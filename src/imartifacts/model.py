"""Shared evidence model: timestamps, provenance and timeline events.

Every extractor in this package produces records built from the types in
this module so that downstream merging and reporting can treat evidence
from databases, registry exports, carved memory and network captures
uniformly.  Timestamps keep both the raw stored value and its decoding so
a report never loses the original artifact value.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone

__all__ = [
    "AmbiguousInterpretation",
    "App",
    "Channel",
    "EventKind",
    "ExtractionError",
    "MalformedHex",
    "OutOfRange",
    "Provenance",
    "Timestamp",
    "TimelineEvent",
    "date_from_ymd",
    "infer_epoch_unit",
    "ts_from_filetime_ticks",
    "ts_from_iso_text",
    "ts_from_unix",
]


class ExtractionError(Exception):
    """Base class for recoverable evidence decoding failures."""


class OutOfRange(ExtractionError):
    """A decoded instant falls outside the representable range."""


class MalformedHex(ExtractionError):
    """A hex-encoded field does not decode."""


class AmbiguousInterpretation(ExtractionError):
    """A raw value admits zero or several plausible decodings."""


TICKS_PER_MILLISECOND = 10**4

EPOCH_1601 = datetime(1601, 1, 1, tzinfo=timezone.utc)
EPOCH_1970 = datetime(1970, 1, 1, tzinfo=timezone.utc)
MAX_INSTANT = datetime(9999, 12, 31, 23, 59, 59, 999000, tzinfo=timezone.utc)

# Values at or above this many units are epoch milliseconds, below it
# epoch seconds (10**12 seconds is past year 33000, 10**12 ms is 2001).
EPOCH_MILLIS_THRESHOLD = 10**12

ENCODINGS = ("unix_seconds", "unix_millis", "filetime_100ns", "iso_text")


# Timestamp, Provenance and TimelineEvent keep their fields in slots: a run
# holds one event and one timestamp per event, and no instance __dict__.
@dataclass(frozen=True, slots=True)
class Timestamp:
    """A decoded instant plus the raw value it came from.

    utc_instant is timezone-aware UTC at millisecond precision; raw is the
    stored artifact value (integer for epoch and tick encodings, the
    original text for iso_text).
    """

    utc_instant: datetime
    encoding: str
    raw: int | str

    def __post_init__(self) -> None:
        if self.encoding not in ENCODINGS:
            raise ValueError("unknown timestamp encoding: %r" % (self.encoding,))
        if self.utc_instant.tzinfo is None:
            raise ValueError("utc_instant must be timezone-aware")
        if self.utc_instant.microsecond % 1000:
            raise ValueError("utc_instant must be millisecond-aligned")
        if not EPOCH_1601 <= self.utc_instant <= MAX_INSTANT:
            raise OutOfRange("instant outside representable range: %s" % self.utc_instant)

    def isoformat_ms(self) -> str:
        """Render as UTC text with explicit milliseconds, e.g. 2015-01-22T03:45:14.666Z."""
        dt = self.utc_instant
        # The year is four digits, as strftime's %Y gives it, because
        # __post_init__ keeps instants within 1601-9999.
        return "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ" % (
            dt.year, dt.month, dt.day, dt.hour, dt.minute, dt.second, dt.microsecond // 1000)


def infer_epoch_unit(value: int) -> str:
    """Classify a positive epoch integer as "seconds" or "millis" by magnitude."""
    return "millis" if value >= EPOCH_MILLIS_THRESHOLD else "seconds"


def ts_from_unix(value: int, unit: str = "auto") -> Timestamp:
    """Decode an unsigned Unix epoch value in seconds or milliseconds.

    unit is "seconds", "millis" or "auto" (magnitude heuristic).
    """
    if not isinstance(value, int):
        raise TypeError("epoch value must be an integer, got %r" % (value,))
    if value < 0:
        raise OutOfRange("epoch value must be unsigned: %d" % value)
    if unit == "auto":
        unit = infer_epoch_unit(value)
    if unit == "seconds":
        millis = value * 1000
        encoding = "unix_seconds"
    elif unit == "millis":
        millis = value
        encoding = "unix_millis"
    else:
        raise ValueError("unit must be seconds, millis or auto: %r" % (unit,))
    try:
        instant = EPOCH_1970 + timedelta(milliseconds=millis)
    except OverflowError as exc:
        raise OutOfRange("epoch value overflows datetime range: %d" % value) from exc
    if instant > MAX_INSTANT:
        raise OutOfRange("instant outside representable range: %d" % value)
    return Timestamp(instant, encoding, value)


def ts_from_filetime_ticks(ticks: int) -> Timestamp:
    """Decode a count of 100ns ticks since 1601-01-01 UTC.

    Sub-millisecond tick remainders are truncated; the exact tick count is
    preserved in raw.
    """
    if not isinstance(ticks, int):
        raise TypeError("tick count must be an integer, got %r" % (ticks,))
    if ticks < 0:
        raise OutOfRange("tick count must be unsigned: %d" % ticks)
    millis = ticks // TICKS_PER_MILLISECOND
    try:
        instant = EPOCH_1601 + timedelta(milliseconds=millis)
    except OverflowError as exc:
        raise OutOfRange("tick count overflows datetime range: %d" % ticks) from exc
    if instant > MAX_INSTANT:
        raise OutOfRange("instant outside representable range: %d" % ticks)
    return Timestamp(instant, "filetime_100ns", ticks)


# strptime's own patterns for %Y, %m and %d (CPython's Lib/_strptime.py): a
# date is read as strptime reads it, without importing _strptime and calendar.
_YMD = r"(?P<Y>\d\d\d\d)%s(?P<m>1[0-2]|0[1-9]|[1-9])%s(?P<d>3[0-1]|[1-2]\d|0[1-9]|[1-9]| [1-9])"


def date_from_ymd(text: str, separator: str = "") -> date:
    """The date that datetime.strptime reads from text with f"%Y{separator}%m{separator}%d", and ValueError where
    it raises one."""
    sep = re.escape(separator)
    match = re.match(_YMD % (sep, sep), text, re.IGNORECASE)
    if match is None or match.end() != len(text):
        raise ValueError("date text %r does not match year, month and day" % (text,))
    return date(int(match["Y"]), int(match["m"]), int(match["d"]))


# strptime's own patterns for %H, %M, %S and %f after _YMD's; ts_from_iso_text
# says which texts they read.
_ISO_RE = re.compile(_YMD % ("-", "-") + r"(?:(?:\s+|(?P<T>T))(?P<H>2[0-3]|[0-1]\d|\d):(?P<M>[0-5]\d|\d)"
                     r"(?::(?P<S>6[0-1]|[0-5]\d|\d)(?:\.(?P<f>[0-9]{1,6}))?)?)?", re.IGNORECASE)


def ts_from_iso_text(text: str) -> Timestamp:
    """Decode a stored date-time string, assuming UTC when no offset is given.

    After a trailing Z is dropped, the text is read as strptime would read
    "%Y-%m-%d %H:%M:%S.%f" with the time, its seconds and their fraction
    optional in turn, a T in place of the space only with seconds, any run
    of white space for the space, and letters in either case; nothing
    imports _strptime.  Text that does not match, or names no real date
    and time, is read by datetime.fromisoformat, which takes UTC offsets.
    OutOfRange if neither reads it or the instant falls outside 1601-9999.
    """
    cleaned = text.strip()
    candidate = cleaned[:-1] if cleaned.endswith("Z") else cleaned
    parsed = None
    match = _ISO_RE.match(candidate)
    if match is not None and match.end() == len(candidate) and (match["S"] or not match["T"]):
        year, month, day, hour, minute, second, fraction = match.group("Y", "m", "d", "H", "M", "S", "f")
        try:
            parsed = datetime(int(year), int(month), int(day), int(hour or 0), int(minute or 0), int(second or 0),
                              int((fraction or "0")[:3].ljust(3, "0")) * 1000, tzinfo=timezone.utc)
        except ValueError:
            pass  # no such date or time: fromisoformat decides
    if parsed is None:
        try:
            parsed = datetime.fromisoformat(candidate)
            parsed = parsed.replace(tzinfo=parsed.tzinfo or timezone.utc).astimezone(timezone.utc)
        except ValueError as exc:
            raise OutOfRange("unrecognized date-time text: %r" % (text,)) from exc
        except OverflowError as exc:
            raise OutOfRange("date-time text outside the datetime range: %r" % (text,)) from exc
        parsed = parsed.replace(microsecond=parsed.microsecond - parsed.microsecond % 1000)
    return Timestamp(parsed, "iso_text", text)


class App(enum.Enum):
    """Which application's evidence an event came from."""

    FACEBOOK = "facebook"
    SKYPE = "skype"
    OTHER = "other"


class Channel(enum.Enum):
    """How the evidence was obtained."""

    FILESYSTEM = "filesystem"
    DATABASE = "database"
    REGISTRY = "registry"
    CARVED = "carved"
    NETWORK = "network"
    INGESTED_CSV = "ingested_csv"


class EventKind(enum.Enum):
    # Declaration order is the tie-break order used when merging events
    # that share an instant and app.
    APP_INSTALL = "AppInstall"
    APP_LAUNCH = "AppLaunch"
    LOGIN = "Login"
    MESSAGE_SENT = "MessageSent"
    MESSAGE_RECEIVED = "MessageReceived"
    FILE_TRANSFER = "FileTransfer"
    FILE_DOWNLOAD = "FileDownload"
    CALL_START = "CallStart"
    CALL_END = "CallEnd"
    VIDEO_MESSAGE = "VideoMessage"
    CONTACT_ADD = "ContactAdd"
    NOTIFICATION = "Notification"
    NETWORK_SESSION = "NetworkSession"
    FS_JOURNAL = "FsJournal"


_KIND_ORDER = {kind: index for index, kind in enumerate(EventKind)}
_APP_ORDER = {app: index for index, app in enumerate(App)}


@dataclass(frozen=True, slots=True)
class Provenance:
    """Where a record came from: path, optional offset, extractor, channel."""

    evidence_path: str
    extractor: str
    channel: Channel
    byte_offset: int | None = None

    def __post_init__(self) -> None:
        if not self.evidence_path:
            raise ValueError("evidence_path must be non-empty")
        if not isinstance(self.channel, Channel):
            raise TypeError("channel must be a Channel, got %r" % (self.channel,))
        # Carved evidence is meaningless without the offset it was cut from,
        # and an offset makes no sense for whole-file channels.
        if self.channel is Channel.CARVED and self.byte_offset is None:
            raise ValueError("carved evidence requires byte_offset")
        if self.channel is not Channel.CARVED and self.byte_offset is not None:
            raise ValueError("byte_offset is only valid for carved evidence")


@dataclass(frozen=True, slots=True)
class TimelineEvent:
    """One dated happening reconstructed from the evidence."""

    when: Timestamp
    kind: EventKind
    app: App
    summary: str
    provenance: Provenance
    actor: str | None = None
    counterpart: str | None = None
    duplicates: int = field(default=1, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.kind, EventKind):
            raise TypeError("kind must be an EventKind, got %r" % (self.kind,))
        if not isinstance(self.app, App):
            raise TypeError("app must be an App, got %r" % (self.app,))
        if not self.summary:
            raise ValueError("summary must be non-empty")
        if self.duplicates < 1:
            raise ValueError("duplicates must be positive")

    def sort_key(self) -> tuple:
        return (
            self.when.utc_instant,
            _APP_ORDER[self.app],
            _KIND_ORDER[self.kind],
            self.provenance.evidence_path,
            self.summary,
        )
