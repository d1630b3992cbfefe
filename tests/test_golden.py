"""Golden output gate: `report --format jsonl` over forged seed 7.

report_seed7.jsonl holds the bytes the pipeline wrote for this tree before
the column reader, the once-per-path evidence relativizing and the summary
and timestamp fast paths went in. The expected timeline the forge writes
comes from the same normalize, merge and emit code under test, so it cannot
catch a change there; this file can, whatever code the change comes from.
"""

from pathlib import Path

from imartifacts import forge
from imartifacts.cli import main

GOLDEN = Path(__file__).parent / "golden" / "report_seed7.jsonl"


def test_report_jsonl_matches_golden_bytes(tmp_path):
    root = tmp_path / "evidence"
    forge.forge_fixture(7, root)
    out = tmp_path / "report.jsonl"
    assert main(["report", str(root), "--format", "jsonl", "--out", str(out)]) == 0
    assert out.read_bytes() == GOLDEN.read_bytes()
