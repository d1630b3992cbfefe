"""Golden output gates: `report --format jsonl` and `timeline --format csv` over forged seed 7.

report_seed7.jsonl holds the bytes the pipeline wrote for this tree before
the column reader, the once-per-path evidence relativizing and the summary
and timestamp fast paths went in. timeline_seed7.csv holds the CSV bytes
written before the no-hyphen summary cut, the ISO-text and isoformat_ms
fast paths and the once-per-source provenances went in. The expected
timeline the forge writes comes from the same normalize, merge and emit
code under test, so it cannot catch a change there; these files can,
whatever code the change comes from.
"""

from pathlib import Path

from imartifacts import forge
from imartifacts.cli import main

GOLDEN = Path(__file__).parent / "golden" / "report_seed7.jsonl"
GOLDEN_CSV = Path(__file__).parent / "golden" / "timeline_seed7.csv"


def test_report_jsonl_matches_golden_bytes(tmp_path):
    root = tmp_path / "evidence"
    forge.forge_fixture(7, root)
    out = tmp_path / "report.jsonl"
    assert main(["report", str(root), "--format", "jsonl", "--out", str(out)]) == 0
    assert out.read_bytes() == GOLDEN.read_bytes()


def test_timeline_csv_matches_golden_bytes(tmp_path, monkeypatch):
    root = tmp_path / "evidence"
    forge.forge_fixture(7, root)
    # Relative input paths, so the evidence_path column does not hold tmp_path.
    monkeypatch.chdir(root)
    files = sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())
    out = tmp_path / "timeline.csv"
    assert main(["timeline", *files, "--format", "csv", "--out", str(out)]) == 0
    assert out.read_bytes() == GOLDEN_CSV.read_bytes()
