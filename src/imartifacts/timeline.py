"""Timeline assembly: merge events into one sorted evidence stream.

This module ingests external NTFS journal CSV exports, merges and
deduplicates events, and emits machine-readable reports (JSONL and CSV)
that parse_jsonl reads back without loss.  It imports only model and the
standard library, so loading a report loads no extractor.  The record
mappers that turn each extractor's typed records into TimelineEvents live
in mapping; normalize here loads that module on first use.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
from collections import Counter
from dataclasses import dataclass, replace
from datetime import datetime, timedelta, timezone
from pathlib import Path

from . import __version__
from .model import (
    App,
    Channel,
    EventKind,
    ExtractionError,
    Provenance,
    Timestamp,
    TimelineEvent,
    ts_from_iso_text,
)

__all__ = [
    "EMIT_FIELDS",
    "MissingColumns",
    "NotCsv",
    "NtfsJournalRow",
    "Report",
    "UNDETERMINED_MARK",
    "build_report",
    "emit",
    "ingest_ntfs_csv",
    "merge_sort",
    "normalize",
    "parse_jsonl",
    "parse_ntfs_csv",
]


class NotCsv(ExtractionError):
    """The input is not a delimited text file at all."""


class MissingColumns(ExtractionError):
    """The CSV header lacks columns the journal layout requires."""


# Appended to summaries when sent-vs-received cannot be established because
# the dataset owner is unknown; the event is still emitted (as received).
UNDETERMINED_MARK = "(direction undetermined)"


def _short(text: str | None, width: int = 80) -> str:
    """Equal to textwrap.shorten(text, width, placeholder="...") for width >= 3; None gives "".

    Collapsed text that fits is returned as it is. Text with no hyphen
    where the cut falls can break only at its single spaces, so it is cut
    at the last space that leaves room for the placeholder; other text
    goes through textwrap.
    """
    if not text:
        return ""
    collapsed = " ".join(text.split())  # textwrap.shorten's own first step
    if len(collapsed) <= width:
        return collapsed
    if width > 3 and "-" not in collapsed[:width + 1]:
        cut = collapsed.rfind(" ", 0, width - 2)
        return collapsed[:cut] + "..." if cut > 0 else "..."
    import textwrap  # only hyphenated text that must be cut gets here

    return textwrap.shorten(text, width=width, placeholder="...")


def _read_text(source) -> str:
    """Accept a stream, Path, bytes, path string or literal text."""
    if hasattr(source, "read"):
        data = source.read()
        return data.decode("utf-8-sig", "replace") if isinstance(data, bytes) else data
    if isinstance(source, Path):
        return source.read_text(encoding="utf-8-sig")
    if isinstance(source, bytes):
        return source.decode("utf-8-sig", "replace")
    if isinstance(source, str):
        if "\n" not in source and os.path.exists(source):
            return Path(source).read_text(encoding="utf-8-sig")
        return source
    raise TypeError("expected stream, path or text, got %r" % type(source))


# ---------------------------------------------------------------------------
# NTFS journal CSV ingestion


@dataclass(frozen=True)
class NtfsJournalRow:
    """One row of a journal-tracker CSV export."""

    lsn: int
    event_time: Timestamp | None
    event: str
    file_name: str
    full_path: str
    detail: str | None = None
    create_time: Timestamp | None = None
    modified_time: Timestamp | None = None

    def __post_init__(self) -> None:
        if self.lsn < 0:
            raise ValueError("lsn must be non-negative")


_REQUIRED_COLUMNS = ("lsn", "event", "file name", "full path")


def _journal_timestamp(text: str, utc_offset_minutes: int) -> Timestamp:
    parsed = ts_from_iso_text(text)
    if not utc_offset_minutes:
        return parsed
    shifted = parsed.utc_instant - timedelta(minutes=utc_offset_minutes)
    return Timestamp(shifted, "iso_text", parsed.raw)


def parse_ntfs_csv(source, warnings: list[str] | None = None,
                   utc_offset_minutes: int = 0) -> list[NtfsJournalRow]:
    """Parse a journal CSV into rows; unreadable rows are skipped loudly.

    Stored times carry no zone marker; they are read as UTC unless
    utc_offset_minutes says the export machine ran at UTC+offset.
    """
    if warnings is None:
        warnings = []
    text = _read_text(source)
    if "\x00" in text:
        raise NotCsv("binary content, not a CSV export")
    try:
        reader = csv.reader(io.StringIO(text))
        header = next(reader, None)
        body = list(reader)
    except csv.Error as exc:
        raise NotCsv("unreadable as CSV: %s" % exc) from exc
    if header is None:
        raise NotCsv("empty input, no header row")
    if len(header) < 2:
        raise NotCsv("header has no delimited columns")
    positions: dict[str, int] = {}
    for index, name in enumerate(header):
        positions.setdefault(name.strip().casefold(), index)
    missing = [name for name in _REQUIRED_COLUMNS if name not in positions]
    if missing:
        raise MissingColumns("header lacks column(s): %s" % ", ".join(missing))

    def cell(row: list[str], name: str) -> str:
        index = positions.get(name)
        if index is None or index >= len(row):
            return ""
        return row[index].strip()

    def timed(row: list[str], name: str, line: int) -> Timestamp | None:
        raw = cell(row, name)
        if not raw:
            return None
        try:
            return _journal_timestamp(raw, utc_offset_minutes)
        except (ExtractionError, ValueError):
            warnings.append("line %d: unreadable %s %r, treated as blank" % (line, name, raw))
            return None

    rows: list[NtfsJournalRow] = []
    for line, row in enumerate(body, start=2):
        if not any(field.strip() for field in row):
            continue
        try:
            lsn = int(cell(row, "lsn"))
            if lsn < 0:
                raise ValueError(lsn)
        except ValueError:
            warnings.append("line %d: unreadable LSN %r, row skipped" % (line, cell(row, "lsn")))
            continue
        rows.append(NtfsJournalRow(
            lsn=lsn,
            event_time=timed(row, "event time", line),
            event=cell(row, "event"),
            file_name=cell(row, "file name"),
            full_path=cell(row, "full path"),
            detail=cell(row, "detail") or None,
            create_time=timed(row, "create time", line),
            modified_time=timed(row, "modified time", line),
        ))
    return rows


def ingest_ntfs_csv(source, warnings: list[str] | None = None,
                    utc_offset_minutes: int = 0,
                    evidence_path: str | None = None) -> list[TimelineEvent]:
    """One journal event per timed row; blank-time rows inherit the
    preceding timed row's instant and are flagged with a warning."""
    if warnings is None:
        warnings = []
    if evidence_path is None:
        evidence_path = str(source) if isinstance(source, (str, Path)) and "\n" not in str(source) else "<ntfs-csv>"
    if utc_offset_minutes:
        warnings.append("journal times interpreted as UTC%+d minutes per override" % utc_offset_minutes)
    else:
        warnings.append("journal times carry no zone marker, assumed UTC")
    provenance = Provenance(evidence_path, "timeline.ntfs_csv", Channel.INGESTED_CSV)
    events: list[TimelineEvent] = []
    last_timed: Timestamp | None = None
    for row in parse_ntfs_csv(source, warnings, utc_offset_minutes):
        when = row.event_time
        if when is None:
            if last_timed is None:
                warnings.append("LSN %d: blank Event Time with no preceding timed row, skipped" % row.lsn)
                continue
            when = last_timed
            warnings.append("LSN %d: blank Event Time, time-inherited from preceding row" % row.lsn)
        else:
            last_timed = when
        name = row.file_name or row.full_path.replace("\\", "/").rstrip("/").rsplit("/", 1)[-1]
        summary = ("%s %s" % (row.event, name)).strip()
        events.append(TimelineEvent(
            when=when,
            kind=EventKind.FS_JOURNAL,
            app=App.OTHER,
            summary=summary,
            provenance=provenance,
        ))
    return events


# ---------------------------------------------------------------------------
# Record normalization (the mappers live in mapping)


def normalize(records, *, fb_owner_uid: str | None = None,
              skype_owner: str | None = None,
              capture_path: str = "<capture>",
              catalog=None,
              warnings: list[str] | None = None) -> list[TimelineEvent]:
    """Map extracted records onto timeline events.

    Every event-bearing record yields exactly one event, except calls with
    a duration, which expand to a start/end pair.  Records that cannot be
    dated and records that describe state rather than a happening are
    skipped with a warning, never silently.
    """
    from . import mapping  # loads the extractors; reading a report does not need them

    return mapping.normalize(records, fb_owner_uid=fb_owner_uid, skype_owner=skype_owner,
                             capture_path=capture_path, catalog=catalog, warnings=warnings)


# ---------------------------------------------------------------------------
# Merging and reporting


def _total_key(event: TimelineEvent) -> tuple:
    # sort_key is the contractual ordering; the rest makes the order total
    # so merge output never depends on input order.
    p = event.provenance
    return event.sort_key() + (
        event.actor or "",
        event.counterpart or "",
        event.when.encoding,
        str(event.when.raw),
        p.extractor,
        p.channel.value,
        -1 if p.byte_offset is None else p.byte_offset,
    )


def merge_sort(events) -> list[TimelineEvent]:
    """Sort ascending and collapse exact duplicates onto a counter."""
    # No event is hashed. Equal events have equal keys (for the int and str
    # raw values Timestamp holds), so duplicates sit in one run of the stably
    # sorted order; the key also makes None and "" or 5 and "5" alike, so
    # within a run an event is compared with == against the events kept so
    # far, and the first occurrence keeps the summed count.
    events = list(events)
    keys = [_total_key(event) for event in events]
    out: list[TimelineEvent] = []
    counts: dict[int, int] = {}  # position in out -> summed duplicates
    run_key, run_start = None, 0
    for index in sorted(range(len(events)), key=keys.__getitem__):
        event = events[index]
        if keys[index] != run_key:
            run_key, run_start = keys[index], len(out)
        for position in range(run_start, len(out)):
            if out[position] == event:
                counts[position] = counts.get(position, out[position].duplicates) + event.duplicates
                break
        else:
            out.append(event)
    for position, count in counts.items():
        out[position] = replace(out[position], duplicates=count)
    return out


@dataclass
class Report:
    events: list[TimelineEvent]
    counts: dict[str, dict[str, int]]
    warnings: list[str]
    tool_version: str
    generated_at: str


def build_report(events, warnings=(), generated_at: str | None = None) -> Report:
    """Merge events into a report; counts tally emitted events per app."""
    merged = merge_sort(events)
    pairs = Counter((event.app, event.kind) for event in merged)
    counts: dict[str, dict[str, int]] = {}
    for (app, kind), count in pairs.items():
        counts.setdefault(app.value, {})[kind.value] = count
    if generated_at is None:
        now = datetime.now(timezone.utc).replace(microsecond=0)
        generated_at = now.strftime("%Y-%m-%dT%H:%M:%SZ")
    return Report(events=merged, counts=counts, warnings=list(warnings),
                  tool_version=__version__, generated_at=generated_at)


# Contractual column set, plus extractor and duplicates so a parsed report
# reconstructs the exact event list.
EMIT_FIELDS = (
    "when_utc", "when_raw", "encoding", "kind", "app", "actor", "counterpart",
    "summary", "evidence_path", "byte_offset", "channel",
    "extractor", "duplicates",
)


# json.dumps(..., ensure_ascii=False) renders a str with the first and
# anything else that is not an int or None with the second.
_json_str = json.encoder.encode_basestring
_json_other = json.JSONEncoder(ensure_ascii=False).encode

# One JSONL line: the EMIT_FIELDS in order, spaced as json.dumps spaces a dict.
_JSONL_LINE = "{" + ", ".join('"%s": %%s' % name for name in EMIT_FIELDS) + "}\n"


def _json_value(value) -> str:
    """value as json.dumps(value, ensure_ascii=False) renders it."""
    kind = type(value)
    if kind is str:
        return _json_str(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    return _json_other(value)


_KIND_JSON = {kind: _json_value(kind.value) for kind in EventKind}
_APP_JSON = {app: _json_value(app.value) for app in App}


def _emit_jsonl(report: Report, out) -> None:
    # The four provenance fields, rendered once per Provenance object;
    # report.events keeps every one alive, so no id is reused meanwhile.
    provenances: dict[int, tuple[str, str, str, str]] = {}
    for event in report.events:
        provenance = event.provenance
        rendered = provenances.get(id(provenance))
        if rendered is None:
            rendered = provenances[id(provenance)] = (
                _json_value(provenance.evidence_path), _json_value(provenance.byte_offset),
                _json_value(provenance.channel.value), _json_value(provenance.extractor))
        when = event.when
        line = _JSONL_LINE % (
            _json_str(when.isoformat_ms()), _json_value(when.raw), _json_value(when.encoding),
            _KIND_JSON[event.kind], _APP_JSON[event.app], _json_value(event.actor),
            _json_value(event.counterpart), _json_value(event.summary), *rendered,
            _json_value(event.duplicates))
        out.write(line.encode("utf-8", "backslashreplace"))


def _emit_csv(report: Report, out) -> None:
    text = io.TextIOWrapper(out, encoding="utf-8", errors="backslashreplace", newline="")
    try:
        writer = csv.writer(text)
        writer.writerow(EMIT_FIELDS)
        for event in report.events:  # the EMIT_FIELDS in order; csv writes None as ""
            when, provenance = event.when, event.provenance
            writer.writerow((
                when.isoformat_ms(), when.raw, when.encoding, event.kind.value, event.app.value,
                event.actor, event.counterpart, event.summary, provenance.evidence_path,
                provenance.byte_offset, provenance.channel.value, provenance.extractor,
                event.duplicates))
    finally:
        text.detach()  # flushes; the caller's stream stays open


_RENDERERS = {"jsonl": _emit_jsonl, "csv": _emit_csv}


def emit(report: Report, format: str = "jsonl", stream=None) -> bytes | None:
    """Render the report as JSONL or RFC-4180 CSV in UTF-8.

    With stream, a binary file object, each line is written to it as it is
    rendered, the stream is left open and None is returned; without one,
    the rendered bytes are returned.  JSONL lines are laid out as
    json.dumps(..., ensure_ascii=False) lays out the EMIT_FIELDS.  A lone
    surrogate, which UTF-8 cannot hold, is written as its backslash escape:
    in JSONL that is the JSON escape parse_jsonl reads back as the same
    string, and in CSV it is the text \\udXXX.
    """
    render = _RENDERERS.get(format)
    if render is None:
        raise ValueError("unknown report format: %r" % (format,))
    out = io.BytesIO() if stream is None else stream
    render(report, out)
    return out.getvalue() if stream is None else None


# The one layout Timestamp.isoformat_ms writes, e.g. 2015-01-22T03:45:14.666Z.
_WHEN_UTC_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}\.[0-9]{3}Z")


def _utc_from_when(text: str) -> datetime:
    """Instant of an emitted when_utc; other text goes through ts_from_iso_text."""
    if _WHEN_UTC_RE.fullmatch(text):
        try:
            # +00:00 rather than Z, which Python 3.10's fromisoformat rejects;
            # both give timezone.utc.
            return datetime.fromisoformat(text[:-1] + "+00:00")
        except ValueError:
            pass
    return ts_from_iso_text(text).utc_instant


# What json.loads calls for a str, without its per-call argument checks.
_decode_json = json.JSONDecoder().decode

_KINDS = {kind.value: kind for kind in EventKind}
_APPS = {app.value: app for app in App}
_CHANNELS = {channel.value: channel for channel in Channel}


def _member(members: dict, enum_type, value):
    """enum_type(value), looked up in members first; a miss raises as enum_type does."""
    try:
        return members[value]
    except (KeyError, TypeError):  # unknown or unhashable
        return enum_type(value)


def parse_jsonl(data: bytes | str) -> list[TimelineEvent]:
    """Rebuild the event list emit() serialized; emit∘parse is identity.

    Events from one source share one Provenance, as normalize builds them.
    """
    text = data.decode("utf-8") if isinstance(data, (bytes, bytearray)) else data
    events: list[TimelineEvent] = []
    provenances: dict[tuple, Provenance] = {}
    # Fields are read and checked in the order of the constructor calls, so a
    # line with several faults raises what the first one raises.
    # Lines end at "\n" only: str.splitlines would also break at U+0085,
    # U+2028 and U+2029, which emit writes raw inside JSON strings.
    for line in text.split("\n"):
        line = line.strip()
        if not line:
            continue
        fields = _decode_json(line)
        instant = _utc_from_when(fields["when_utc"])
        when = Timestamp(instant, fields["encoding"], fields["when_raw"])
        kind = _member(_KINDS, EventKind, fields["kind"])
        app = _member(_APPS, App, fields["app"])
        summary = fields["summary"]
        path, extractor = fields["evidence_path"], fields["extractor"]
        channel = _member(_CHANNELS, Channel, fields["channel"])
        offset = fields["byte_offset"]
        # Only exact str and int values are shared: JSON's 1, 1.0 and true
        # (or 0.0 and -0.0) are equal in Python, and a list is unhashable.
        if type(path) is str and type(extractor) is str and (offset is None or type(offset) is int):
            key = (path, extractor, channel, offset)
            provenance = provenances.get(key)
            if provenance is None:
                provenance = provenances[key] = Provenance(path, extractor, channel, offset)
        else:
            provenance = Provenance(path, extractor, channel, offset)
        events.append(TimelineEvent(when, kind, app, summary, provenance, fields["actor"],
                                    fields["counterpart"], fields.get("duplicates", 1)))
    return events
