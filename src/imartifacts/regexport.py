"""Decode Windows registry export (.reg) text: install times and per-file
persisted-storage records left by Store apps.

The input is the examiner-produced textual export (REGEDIT4 or the 5.00
Unicode dialect), not binary hives.  Key paths keep their original case
but are matched case-insensitively; binary payloads honor line
continuations.  The 8-byte InstallTime value has no documented byte
order, so both readings are tried and only an instant inside a
plausibility window is accepted.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass, field

from .locator import PackageIdentity, decode_text, parse_package_id
from .model import (
    AmbiguousInterpretation,
    EPOCH_1601,
    ExtractionError,
    MalformedHex,
    Provenance,
    Channel,
    Timestamp,
    ts_from_filetime_ticks,
)

__all__ = [
    "AmbiguousInterpretation",
    "InstallRecord",
    "NotRegExport",
    "PackageKeyNotFound",
    "PersistedItem",
    "RegExport",
    "RegValue",
    "find_install_records",
    "find_install_time",
    "find_persisted_items",
    "is_export_head",
    "parse_reg_export",
]


class NotRegExport(ExtractionError):
    """The text does not begin with a known export header."""


class PackageKeyNotFound(ExtractionError):
    """No repository key for the requested package."""


HEADER_50 = "Windows Registry Editor Version 5.00"
HEADER_4 = "REGEDIT4"


def is_export_head(head: bytes) -> bool:
    """Whether head, a file's first bytes decoded as parse_reg_export decodes a file, opens with an export header.

    Any "Windows Registry" or REGEDIT4 line counts, so one that
    parse_reg_export does not accept fails there loudly.
    """
    return decode_text(head).lstrip("\ufeff").lstrip().startswith(("Windows Registry", HEADER_4))


# Instants outside this window mark a FILETIME reading as implausible.
def _ticks_of(year):
    from datetime import datetime, timezone

    delta = datetime(year, 1, 1, tzinfo=timezone.utc) - EPOCH_1601
    return delta.days * 86400 * 10**7

PLAUSIBLE_LO_TICKS = _ticks_of(2000)
PLAUSIBLE_HI_TICKS = _ticks_of(2100)

_GUID_RE = re.compile(r"^\{?[0-9A-Fa-f]{8}(-[0-9A-Fa-f]{4}){3}-[0-9A-Fa-f]{12}\}?$")
_VALUE_RE = re.compile(r'^(?:"((?:[^"\\]|\\.)*)"|@)=(.*)$', re.DOTALL)


@dataclass(frozen=True)
class RegValue:
    name: str  # "@" for the key's default value
    kind: str  # string / dword / qword / binary
    data: object  # str, int, or bytes per kind

    def __post_init__(self):
        expected = {"string": str, "dword": int, "qword": bytes, "binary": bytes}
        if self.kind not in expected:
            raise ValueError("unknown value kind %r" % self.kind)
        if not isinstance(self.data, expected[self.kind]):
            raise ValueError("%s value holds %s" % (self.kind, type(self.data).__name__))


@dataclass
class RegExport:
    """Parsed export: ordered key paths, each with its values in order."""

    keys: dict[str, list[RegValue]] = field(default_factory=dict)
    errors: list[tuple[int, str]] = field(default_factory=list)
    dialect: str = HEADER_50


def _unescape(text: str) -> str:
    return re.sub(r"\\(.)", lambda m: m.group(1), text)


def _parse_payload(payload: str, line_no: int, errors):
    payload = payload.strip()
    if payload.startswith('"'):
        if not payload.endswith('"') or len(payload) < 2:
            errors.append((line_no, "unterminated string value"))
            return None
        return RegValue("", "string", _unescape(payload[1:-1]))
    lowered = payload.lower()
    if lowered.startswith("dword:"):
        digits = payload[len("dword:"):].strip()
        try:
            return RegValue("", "dword", int(digits, 16))
        except ValueError:
            errors.append((line_no, "bad dword payload %r" % digits))
            return None
    match = re.match(r"hex(\(([0-9a-fA-F]+)\))?:", lowered)
    if match:
        subtype = match.group(2)
        kind = "qword" if subtype == "b" else "binary"
        body = payload[match.end():]
        parts = [p.strip() for p in body.split(",")]
        raw = bytearray()
        for part in parts:
            if part == "":
                continue
            try:
                raw.append(int(part, 16))
            except ValueError:
                errors.append((line_no, "bad hex byte %r" % part))
                return None
        return RegValue("", kind, bytes(raw))
    errors.append((line_no, "unrecognized value payload"))
    return None


def parse_reg_export(text) -> RegExport:
    """Parse export text (or raw file bytes) into keys and typed values.

    Syntax problems never abort the parse; they are collected per line so
    a damaged export still yields everything readable.
    """
    if isinstance(text, (bytes, bytearray)):
        text = decode_text(bytes(text))
    # Lines end at \r\n, \r or \n only, and every use strips a line's end:
    # str.splitlines would also break at U+2028 and the like, which regedit
    # writes raw inside values.
    lines = io.StringIO(text.lstrip("\ufeff"), newline="").readlines()
    position = 0
    while position < len(lines) and not lines[position].strip():
        position += 1
    if position >= len(lines):
        raise NotRegExport("empty input")
    header = lines[position].strip()
    if header not in (HEADER_50, HEADER_4):
        raise NotRegExport("unrecognized header %r" % header[:60])
    export = RegExport(dialect=header)
    position += 1
    current_key = None
    while position < len(lines):
        line_no = position + 1
        line = lines[position]
        position += 1
        stripped = line.strip()
        if not stripped or stripped.startswith(";"):
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                export.errors.append((line_no, "unterminated key line"))
                continue
            current_key = stripped[1:-1]
            export.keys.setdefault(current_key, [])
            continue
        # Hex payloads continue across lines that end with a backslash.
        while stripped.endswith("\\") and position < len(lines):
            stripped = stripped[:-1].rstrip() + lines[position].strip()
            position += 1
        if current_key is None:
            export.errors.append((line_no, "value before any key"))
            continue
        match = _VALUE_RE.match(stripped)
        if not match:
            export.errors.append((line_no, "unparsed line"))
            continue
        name = _unescape(match.group(1)) if match.group(1) is not None else "@"
        value = _parse_payload(match.group(2), line_no, export.errors)
        if value is not None:
            export.keys[current_key].append(RegValue(name, value.kind, value.data))
    return export


# ---------------------------------------------------------------------------
# FILETIME interpretation


def _filetime_bytes(value: RegValue) -> bytes:
    if value.kind in ("qword", "binary"):
        raw = value.data
    elif value.kind == "string":
        text = value.data.strip().replace(" ", "")
        try:
            raw = bytes.fromhex(text)
        except ValueError as exc:
            raise MalformedHex("time value is not hex text: %r" % value.data) from exc
    else:
        raise MalformedHex("time value kind %s cannot hold a FILETIME" % value.kind)
    if len(raw) != 8:
        raise MalformedHex("time value is %d bytes, expected 8" % len(raw))
    return raw


def _select_filetime(raw: bytes) -> tuple[Timestamp, str]:
    """Pick the byte-order reading whose instant is plausible.

    A string export displays FILETIME hex most-significant-first while the
    registry stores it little-endian; with no authority on which this
    export used, the reading landing inside [2000, 2100) wins, and a tie
    either way is an explicit error.
    """
    readings = (
        ("big-endian-hex", int.from_bytes(raw, "big")),
        ("little-endian-binary", int.from_bytes(raw, "little")),
    )
    plausible = [
        (label, ticks) for label, ticks in readings if PLAUSIBLE_LO_TICKS <= ticks < PLAUSIBLE_HI_TICKS
    ]
    if len(plausible) != 1:
        described = ", ".join(
            "%s=0x%016X" % (label, ticks) for label, ticks in readings
        )
        which = "both readings" if len(plausible) == 2 else "neither reading"
        raise AmbiguousInterpretation(
            "%s of the 8-byte time lands in 2000-2100 (%s)" % (which, described)
        )
    label, ticks = plausible[0]
    return ts_from_filetime_ticks(ticks), label


@dataclass(frozen=True)
class InstallRecord:
    package: PackageIdentity
    install_time: Timestamp
    key_path: str
    interpretation: str  # which byte-order reading was plausible
    provenance: Provenance


def _key_segments(path: str) -> list[str]:
    return [segment for segment in path.split("\\") if segment]


def _package_tail(path: str) -> tuple[str, str] | None:
    """A key's casefolded (family, full) last two segments, if it has two."""
    segments = _key_segments(path)
    if len(segments) < 2:
        return None
    return segments[-2].casefold(), segments[-1].casefold()


def _install_record(export: RegExport, key: str, package: PackageIdentity,
                    evidence_path: str) -> InstallRecord:
    for value in export.keys[key]:
        if value.name.casefold() == "installtime":
            when, interpretation = _select_filetime(_filetime_bytes(value))
            return InstallRecord(
                package=package,
                install_time=when,
                key_path=key,
                interpretation=interpretation,
                provenance=Provenance(evidence_path, "regexport.install_time", Channel.REGISTRY),
            )
    raise PackageKeyNotFound("key %s has no InstallTime value" % key)


def find_install_time(export: RegExport, package, evidence_path: str = "<reg-export>") -> InstallRecord:
    """Locate the package's repository key and decode its install time.

    The first key in export order whose last two segments name the
    package's family and full identity is the one read.
    """
    if isinstance(package, str):
        package = parse_package_id(package)
    wanted = (package.family.casefold(), package.text.casefold())
    for key in export.keys:
        if _package_tail(key) == wanted:
            return _install_record(export, key, package, evidence_path)
    raise PackageKeyNotFound("no repository key for %s" % package.text)


def find_install_records(export: RegExport, evidence_path: str = "<reg-export>") -> list[InstallRecord]:
    """Decode an install time for every package repository key, in export order.

    A key qualifies when its last segment is a package identity and the
    one before names that package's family.  Each is resolved as
    find_install_time would resolve its package, through one index of the
    keys; a package whose time cannot be decoded is skipped.
    """
    first_keys: dict[tuple[str, str], str] = {}
    for key in export.keys:
        tail = _package_tail(key)
        if tail is not None:
            first_keys.setdefault(tail, key)
    records = []
    for key in export.keys:
        segments = key.split("\\")
        if len(segments) < 2:
            continue
        try:
            package = parse_package_id(segments[-1])
        except ExtractionError:
            continue
        family = package.family.casefold()
        if segments[-2].casefold() != family:
            continue
        # The key's own tail is indexed, so the lookup always finds a key.
        first = first_keys[family, package.text.casefold()]
        try:
            records.append(_install_record(export, first, package, evidence_path))
        except ExtractionError:
            continue
    return records


@dataclass(frozen=True)
class PersistedItem:
    guid: str
    file_path: str
    last_updated: Timestamp | None
    interpretation: str | None
    key_path: str
    provenance: Provenance

    def __post_init__(self):
        if not _GUID_RE.match(self.guid):
            raise ValueError("not a GUID: %r" % self.guid)


_PERSISTED_MARKER = ("persistedstorageitemtable", "managedbyapp")


def find_persisted_items(
    export: RegExport, warnings: list[str] | None = None, evidence_path: str = "<reg-export>"
) -> list[PersistedItem]:
    """Collect per-file storage records: one item per GUID subkey."""
    items = []
    for key, values in export.keys.items():
        segments = [s.casefold() for s in _key_segments(key)]
        if len(segments) < 3 or tuple(segments[-3:-1]) != _PERSISTED_MARKER:
            continue
        guid = _key_segments(key)[-1]
        if not _GUID_RE.match(guid):
            continue
        named = {v.name.casefold(): v for v in values}
        path_value = named.get("filepath")
        if path_value is None or path_value.kind != "string":
            if warnings is not None:
                warnings.append("persisted item %s lacks FilePath, skipped" % guid)
            continue
        when = None
        interpretation = None
        time_value = named.get("lastupdatedtime")
        if time_value is not None:
            try:
                when, interpretation = _select_filetime(_filetime_bytes(time_value))
            except (AmbiguousInterpretation, MalformedHex) as exc:
                if warnings is not None:
                    warnings.append("persisted item %s time undecoded: %s" % (guid, exc))
        elif warnings is not None:
            warnings.append("persisted item %s lacks LastUpdatedTime" % guid)
        items.append(
            PersistedItem(
                guid=guid,
                file_path=path_value.data,
                last_updated=when,
                interpretation=interpretation,
                key_path=key,
                provenance=Provenance(evidence_path, "regexport.persisted_items", Channel.REGISTRY),
            )
        )
    return items
