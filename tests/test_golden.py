"""Golden output gates: `report --format jsonl`, `timeline --format csv` and the `facebook` and `skype` summaries
over forged seeds 0-19.

report_seed7.jsonl holds the bytes the pipeline wrote for seed 7 before
the column reader, the once-per-path evidence relativizing and the summary
and timestamp fast paths went in. timeline_seed7.csv holds the CSV bytes
written before the no-hyphen summary cut, the ISO-text and isoformat_ms
fast paths and the once-per-source provenances went in. digests.json holds
the SHA-256 of both outputs for every other seed, taken before the record
mappers moved into one table per type, and the SHA-256 of the
`timeline -v` stderr of every seed, taken before each SQLite file was
opened once per run, and of the stdout and stderr of `facebook` on every
cache and `skype` on the tree's root, taken before the caches were read as
streams; facebook_seed7.txt holds that `facebook` stdout for seed 7. The
expected timeline the forge writes comes from the same normalize, merge and
emit code under test, so it cannot catch a change there; these files can,
whatever code the change comes from.
"""

import hashlib
import json
from pathlib import Path

import pytest

from imartifacts import forge
from imartifacts.cli import main

GOLDEN = Path(__file__).parent / "golden" / "report_seed7.jsonl"
GOLDEN_CSV = Path(__file__).parent / "golden" / "timeline_seed7.csv"
GOLDEN_FACEBOOK = Path(__file__).parent / "golden" / "facebook_seed7.txt"
DIGESTS = json.loads((Path(__file__).parent / "golden" / "digests.json").read_text(encoding="utf-8"))
OTHER_SEEDS = [seed for seed in range(20) if seed != 7]


def report_jsonl(tmp_path, seed) -> bytes:
    root = tmp_path / "evidence"
    forge.forge_fixture(seed, root)
    out = tmp_path / "report.jsonl"
    assert main(["report", str(root), "--format", "jsonl", "--out", str(out)]) == 0
    return out.read_bytes()


def timeline_csv(tmp_path, monkeypatch, seed, *flags) -> bytes:
    root = tmp_path / "evidence"
    forge.forge_fixture(seed, root)
    # Relative input paths, so the evidence_path column does not hold tmp_path.
    monkeypatch.chdir(root)
    files = sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())
    out = tmp_path / "timeline.csv"
    assert main(["timeline", *files, "--format", "csv", "--out", str(out), *flags]) == 0
    return out.read_bytes()


def test_report_jsonl_matches_golden_bytes(tmp_path):
    assert report_jsonl(tmp_path, 7) == GOLDEN.read_bytes()


def test_timeline_csv_matches_golden_bytes(tmp_path, monkeypatch):
    assert timeline_csv(tmp_path, monkeypatch, 7) == GOLDEN_CSV.read_bytes()


@pytest.mark.parametrize("seed", OTHER_SEEDS)
def test_report_jsonl_matches_golden_digest(tmp_path, seed):
    assert hashlib.sha256(report_jsonl(tmp_path, seed)).hexdigest() == DIGESTS[str(seed)]["report_jsonl"]


@pytest.mark.parametrize("seed", OTHER_SEEDS)
def test_timeline_csv_matches_golden_digest(tmp_path, monkeypatch, seed):
    assert hashlib.sha256(timeline_csv(tmp_path, monkeypatch, seed)).hexdigest() == DIGESTS[str(seed)]["timeline_csv"]


@pytest.mark.parametrize("seed", range(20))
def test_timeline_verbose_stderr_matches_golden_digest(tmp_path, monkeypatch, capsys, seed):
    timeline_csv(tmp_path, monkeypatch, seed, "-v")
    assert hashlib.sha256(capsys.readouterr().err.encode()).hexdigest() == DIGESTS[str(seed)]["timeline_stderr"]


def summary(tmp_path, monkeypatch, capsys, seed, command) -> tuple[bytes, bytes]:
    """stdout and stderr of `facebook` on every cache of the forged seed, or of `skype` on its root, run inside it."""
    root = tmp_path / "evidence"
    forge.forge_fixture(seed, root)
    monkeypatch.chdir(root)
    caches = sorted(p.relative_to(root).as_posix() for p in root.rglob("*.sqlite"))
    capsys.readouterr()
    assert main([command, *(caches if command == "facebook" else ["."])]) == 0
    captured = capsys.readouterr()
    return captured.out.encode(), captured.err.encode()


def test_facebook_summary_matches_golden_bytes(tmp_path, monkeypatch, capsys):
    assert summary(tmp_path, monkeypatch, capsys, 7, "facebook") == (GOLDEN_FACEBOOK.read_bytes(), b"")


@pytest.mark.parametrize("command", ["facebook", "skype"])
@pytest.mark.parametrize("seed", range(20))
def test_summary_matches_golden_digest(tmp_path, monkeypatch, capsys, seed, command):
    out, err = summary(tmp_path, monkeypatch, capsys, seed, command)
    want = DIGESTS[str(seed)]
    assert hashlib.sha256(out).hexdigest() == want[command + "_stdout"]
    assert hashlib.sha256(err).hexdigest() == want[command + "_stderr"]
