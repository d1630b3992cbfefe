"""Output checks for one benchmark run, against the generator's ledger.

The checks use only the ledger and the standard library, except the JSONL
round trip, which by definition exercises the package's own reader and
writer: parsing the report and emitting it again must give the same bytes.
"""

from __future__ import annotations

import csv
import io
import json
from datetime import datetime
from pathlib import Path

from imartifacts import timeline

_CHAT_EXTRACTOR = "facebook.chat_json"


def rows_of(data: bytes, fmt: str) -> list[dict]:
    text = data.decode("utf-8")
    if fmt == "jsonl":
        return [json.loads(line) for line in text.splitlines() if line]
    return list(csv.DictReader(io.StringIO(text, newline="")))


def _tally(table: dict, key, n: int) -> None:
    table[key] = table.get(key, 0) + n


def _diff(what: str, got: dict, want: dict) -> list[str]:
    keys = sorted(set(got) | set(want))
    return ["%s %s: got %d, want %d" % (what, key, got.get(key, 0), want.get(key, 0))
            for key in keys if got.get(key, 0) != want.get(key, 0)]


def check(data: bytes, fmt: str, ledger: dict, base: Path, tree: Path) -> list[str]:
    """Problems found in one run's output; an empty list means it is correct.

    base is the directory evidence paths are relative to (the tree for
    ``report``, the working directory for ``timeline``).
    """
    rows = rows_of(data, fmt)
    problems = []
    counts: dict[str, int] = {}
    labels: dict[str, int] = {}
    carved: dict[str, list[int]] = {}
    paths: dict[str, str] = {}
    previous = None
    for line, row in enumerate(rows, start=1):
        n = int(row["duplicates"])
        _tally(counts, "%s|%s" % (row["app"], row["kind"]), n)
        if row["kind"] == "NetworkSession":
            _tally(labels, row["summary"].rsplit(" (", 1)[0].rsplit(" ", 1)[1], n)
        if row["extractor"] == _CHAT_EXTRACTOR:
            carved.setdefault(row["evidence_path"], []).append(int(row["byte_offset"]))
        paths.setdefault(row["evidence_path"], "")
        when = datetime.fromisoformat(row["when_utc"].removesuffix("Z"))
        if previous is not None and when < previous:
            problems.append("line %d: when_utc %s before the line above" % (line, row["when_utc"]))
        previous = when

    problems += _diff("events", counts, ledger["counts"])
    problems += _diff("flows labeled", labels, ledger["labels"])

    root = tree.resolve()
    for path in paths:
        located = (base / path).resolve()
        if not located.exists():
            problems.append("evidence_path %s does not exist" % path)
            continue
        paths[path] = located.relative_to(root).as_posix() if located.is_relative_to(root) else path
    got_offsets = {paths[path]: sorted(offsets) for path, offsets in carved.items()}
    want_offsets = {path: sorted(offsets) for path, offsets in ledger["carved"].items()}
    for path in sorted(set(got_offsets) | set(want_offsets)):
        if got_offsets.get(path) != want_offsets.get(path):
            problems.append("chat fragment offsets in %s differ from the planted ones" % path)

    if fmt == "jsonl":
        events = timeline.parse_jsonl(data)
        again = timeline.emit(timeline.Report(events=events, counts={}, warnings=[],
                                              tool_version="", generated_at=""), "jsonl")
        if again != data:
            problems.append("parse_jsonl then emit does not reproduce the output bytes")
    return problems
