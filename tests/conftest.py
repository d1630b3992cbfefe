"""Fixtures that several test files share."""

import pytest

from imartifacts import forge

FORGED_SEEDS = range(20)


@pytest.fixture(scope="session")
def forged_seeds(tmp_path_factory) -> dict:
    """{seed: root} of one evidence tree forged for each of seeds 0-19."""
    base = tmp_path_factory.mktemp("seeds")
    roots = {seed: base / str(seed) for seed in FORGED_SEEDS}
    for seed, root in roots.items():
        forge.forge_fixture(seed, root)
    return roots
