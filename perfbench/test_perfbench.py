"""Tests of the benchmark itself: generator determinism, oracle and tracing.

Run from the root of the repository with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import oracle  # noqa: E402
import workloads  # noqa: E402
from imartifacts import cli  # noqa: E402


def tree_digest(root: Path) -> dict[str, str]:
    digests = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest = hashlib.sha256()
            with open(path, "rb") as handle:
                for block in iter(lambda: handle.read(1 << 20), b""):
                    digest.update(block)
            digests[path.relative_to(root).as_posix()] = digest.hexdigest()
    return digests


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_tree_other_seed_other_bytes(workload, tmp_path):
    trees = [tmp_path / name for name in ("a", "b", "c")]
    try:
        first = workloads.build(workload, 5, trees[0])
        again = workloads.build(workload, 5, trees[1])
        other = workloads.build(workload, 6, trees[2])
        digests = [tree_digest(tree) for tree in trees]
    finally:
        for tree in trees:
            shutil.rmtree(tree, ignore_errors=True)
    assert digests[0] == digests[1]
    assert first == again
    grown = [name for name in digests[0] if digests[0][name] != digests[2][name]]
    assert set(digests[0]) == set(digests[2])
    assert grown, "a second seed must give different bytes"
    planted = {key: value for key, value in first["sizes"].items()
               if key in ("fb_rows", "journal_rows", "package_keys", "persisted_items", "fragments")}
    assert planted == {key: other["sizes"][key] for key in planted}
    for blob in ("pagefile.sys", "hiberfil.sys"):
        if blob in first["carved"]:
            assert len(first["carved"][blob]) == len(other["carved"][blob])


def test_oracle_accepts_the_real_output_and_rejects_damage(tmp_path):
    tree = tmp_path / "tree"
    ledger = workloads.build("app-stores", 2, tree)
    out = tmp_path / "out.jsonl"
    assert cli.main(["report", str(tree), "--format", "jsonl", "--out", str(out)]) == 0
    data = out.read_bytes()
    assert oracle.check(data, "jsonl", ledger, tree, tree) == []

    lines = data.splitlines(keepends=True)
    assert oracle.check(b"".join(lines[:-1]), "jsonl", ledger, tree, tree)  # an event lost
    assert oracle.check(b"".join(reversed(lines)), "jsonl", ledger, tree, tree)  # out of order
    moved = dict(json.loads(lines[0]), evidence_path="no/such/file")
    damaged = json.dumps(moved, ensure_ascii=False).encode("utf-8") + b"\n" + b"".join(lines[1:])
    assert any("does not exist" in problem for problem in oracle.check(damaged, "jsonl", ledger, tree, tree))


def test_oracle_checks_flow_labels_and_fragment_offsets(tmp_path):
    tree = tmp_path / "tree"
    ledger = workloads.build("capture-registry", 2, tree)
    out = tmp_path / "out.csv"
    files = [str(p) for p in sorted(tree.rglob("*")) if p.is_file()]
    assert cli.main(["timeline", *files, "--format", "csv", "--out", str(out)]) == 0
    assert oracle.check(out.read_bytes(), "csv", ledger, Path("/"), tree) == []
    relabeled = dict(ledger, labels=dict(ledger["labels"], Other=ledger["labels"]["Other"] + 1))
    assert oracle.check(out.read_bytes(), "csv", relabeled, Path("/"), tree)
    shifted = dict(ledger, carved={"memory.bin": [ledger["carved"]["memory.bin"][0] + 1]})
    assert oracle.check(out.read_bytes(), "csv", shifted, Path("/"), tree)


def test_traced_run_matches_and_self_times_add_up(tmp_path):
    tree = tmp_path / "tree"
    workloads.build("app-stores", 4, tree)
    plain, traced, stats = tmp_path / "plain.jsonl", tmp_path / "traced.jsonl", tmp_path / "stats.json"
    assert cli.main(["report", str(tree), "--out", str(plain)]) == 0
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, str(HERE / "trace_run.py"), str(stats), "report", str(tree),
                    "--out", str(traced)], check=True, env=env, capture_output=True)
    assert traced.read_bytes() == plain.read_bytes()
    layers = json.loads(stats.read_text())["layers"]
    assert json.loads(stats.read_text())["missing"] == []
    for name in ("sqliteio.row_value", "forge.relativize_events", "facebook.extract_messages",
                 "facebook.extract_notifications", "model.ts_from_iso_text", "scan.find_multi"):
        assert layers[name]["calls"] > 0, name
    total_self = sum(stat["self_s"] for stat in layers.values())
    assert total_self == pytest.approx(layers["cli.main"]["s"], rel=1e-6)
