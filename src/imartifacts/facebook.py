"""Extract records from the Facebook app's cache databases and memory remnants.

The app keeps per-login SQLite caches (analytics log, friends, messages,
notifications) under its package LocalState.  Message rows embed JSON in
several columns; malformed JSON never aborts extraction, the raw text is
kept and a warning recorded.  Process memory additionally holds chat push
notifications as JSON fragments which can be recovered by marker scanning.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from datetime import date, datetime

from . import carver
from .model import Channel, ExtractionError, OutOfRange, Provenance, Timestamp, ts_from_iso_text, ts_from_unix
from .sqliteio import MissingTable, as_int, as_text, open_immutable, read_table, table_names, warn

__all__ = [
    "ChatFragment",
    "FbAnalyticsEvent",
    "FbAttachment",
    "FbFriend",
    "FbMessage",
    "FbNotification",
    "FbUser",
    "MalformedJson",
    "extract_analytics",
    "extract_chat_json",
    "extract_friends",
    "extract_messages",
    "extract_notifications",
    "extract_users",
    "infer_owner_uid",
    "parse_fb_attachments",
]


class MalformedJson(ExtractionError):
    """Embedded JSON did not parse."""


CHAT_MARKER = b"orca_message"
CHAT_WINDOW = 64 * 1024

EXTRACTOR_PREFIX = "facebook"


@dataclass(frozen=True)
class FbAnalyticsEvent:
    """One analytics log row: an app usage event."""

    row_id: int
    when: Timestamp  # epoch milliseconds
    log_type: str | None
    name: str | None
    module: str | None
    extra: str | None
    provenance: Provenance


@dataclass(frozen=True)
class FbFriend:
    uid: str
    name: str | None
    first_name: str | None
    middle_name: str | None
    last_name: str | None
    contact_email: str | None
    phones: str | None  # raw JSON text as stored
    profile_url: str | None
    communication_rank: float | None
    birthday: date | None
    provenance: Provenance


@dataclass(frozen=True)
class FbAttachment:
    """One attachment descriptor from a message row."""

    name: str | None
    size: int | None
    id: str | None
    mime: str | None
    type_code: int | None
    url: str | None
    preview_url: str | None
    width: int | None = None
    height: int | None = None


@dataclass(frozen=True)
class FbMessage:
    row_id: int
    mid: str | None
    thread_id: str | None
    body: str | None
    when: Timestamp  # epoch milliseconds
    sender_uid: str | None
    sender_name: str | None
    sender_email: str | None
    sender_raw: str | None
    tags: tuple[str, ...]
    attachments: tuple[FbAttachment, ...]
    attachments_raw: str | None
    provenance: Provenance


@dataclass(frozen=True)
class FbUser:
    id: str
    name: str | None
    email: str | None
    last_active: Timestamp | None  # epoch seconds
    provenance: Provenance


@dataclass(frozen=True)
class FbNotification:
    notification_id: str | None
    sender_id: str | None
    title_text: str | None
    href: str | None
    unread_flag: int  # as stored: app behaviour has been seen to contradict the column name
    created: Timestamp | None
    updated: Timestamp | None
    provenance: Provenance


def _read(path, warnings, wanted: str, what: str, record) -> list:
    """The records of the cache table named wanted, read by record in rowid order."""
    with open_immutable(path, warnings) as connection:
        table = table_names(connection).get(wanted.casefold())
        if table is None:
            raise MissingTable("table %s absent from %s" % (wanted, path))
        return read_table(connection, table, path, EXTRACTOR_PREFIX, what, record, warnings)


def _epoch(value, unit: str) -> Timestamp | None:
    """ts_from_unix(value, unit), or None when value is None or out of range."""
    if value is None:
        return None
    try:
        return ts_from_unix(value, unit)
    except OutOfRange:
        return None


def _analytics_event(row, column, provenance, warnings):
    when = _epoch(as_int(column(row, "time", "timestamp")), "millis")
    if when is None:
        warn(warnings, "analytics row %s has no usable time" % row["rowid_"])
        return None
    return FbAnalyticsEvent(
        row_id=row["rowid_"],
        when=when,
        log_type=as_text(column(row, "log_type", "type")),
        name=as_text(column(row, "name", "event_name")),
        module=as_text(column(row, "module")),
        extra=as_text(column(row, "extra", "extra_json")),
        provenance=provenance,
    )


def extract_analytics(path, warnings: list[str] | None = None) -> list[FbAnalyticsEvent]:
    """Read the analytics log: one event per row in row order."""
    return _read(path, warnings, "analytics_logs", "analytics", _analytics_event)


def _parse_birthday(value, warnings, context):
    if value in (None, ""):
        return None
    text = as_text(value)
    try:
        return datetime.strptime(text[:10], "%Y-%m-%d").date()
    except ValueError:
        warn(warnings, "unparsed birthday %r in %s" % (text, context))
        return None


def _friend(row, column, provenance, warnings):
    uid = as_text(column(row, "uid", "user_id", "id"))
    if uid is None:
        warn(warnings, "friend row %s lacks a uid" % row["rowid_"])
        return None
    first = as_text(column(row, "first_name"))
    middle = as_text(column(row, "middle_name"))
    last = as_text(column(row, "last_name"))
    name = as_text(column(row, "name"))
    if name is None:
        name = (" ".join(part for part in (first, middle, last) if part)) or None
    rank = column(row, "communication_rank", "rank")
    return FbFriend(
        uid=uid,
        name=name,
        first_name=first,
        middle_name=middle,
        last_name=last,
        contact_email=as_text(column(row, "contact_email", "email")),
        phones=as_text(column(row, "phones")),
        profile_url=as_text(column(row, "profile_url", "url")),
        communication_rank=float(rank) if rank is not None else None,
        birthday=_parse_birthday(
            column(row, "birthday", "birthday_date"), warnings, "friends row %s" % row["rowid_"]
        ),
        provenance=provenance,
    )


def extract_friends(path, warnings: list[str] | None = None) -> list[FbFriend]:
    """Read the friends cache: profile fields for every friend row."""
    return _read(path, warnings, "friends", "friends", _friend)


def parse_fb_attachments(text: str) -> list[FbAttachment]:
    """Parse the attachments column JSON into attachment descriptors.

    The stored value is a JSON array, sometimes wrapped in one extra list
    level.  Raises MalformedJson when the text is not JSON at all.
    """
    try:
        loaded = json.loads(text)
    except (TypeError, ValueError) as exc:
        raise MalformedJson("attachments column did not parse: %s" % exc) from exc
    if not isinstance(loaded, list):
        raise MalformedJson("attachments JSON is not a list")
    items: list = []
    for element in loaded:
        if isinstance(element, list):
            items.extend(element)
        else:
            items.append(element)
    attachments = []
    for item in items:
        if not isinstance(item, dict):
            continue
        attachments.append(
            FbAttachment(
                name=as_text(item.get("name")),
                size=as_int(item.get("size")),
                id=as_text(item.get("id") or item.get("attach_id")),
                mime=as_text(item.get("mime") or item.get("mime_type")),
                type_code=as_int(item.get("type")),
                url=as_text(item.get("url")),
                preview_url=as_text(item.get("preview_url") or item.get("preview")),
                width=as_int(item.get("width")),
                height=as_int(item.get("height")),
            )
        )
    return attachments


def _parse_tags(raw, warnings, context) -> tuple[str, ...]:
    if raw in (None, ""):
        return ()
    text = as_text(raw)
    try:
        loaded = json.loads(text)
        if isinstance(loaded, list):
            return tuple(str(tag) for tag in loaded)
    except ValueError:
        pass
    # Cache exports sometimes use a set-like spelling; salvage the quoted
    # strings rather than dropping the row.
    scraped = re.findall(r'"([^"]*)"', text)
    if scraped:
        warn(warnings, "tags salvaged from non-JSON text in %s" % context)
        return tuple(scraped)
    warn(warnings, "tags unparsed in %s" % context)
    return ()


def _parse_sender(raw, warnings, context):
    if raw in (None, ""):
        return None, None, None
    text = as_text(raw)
    try:
        loaded = json.loads(text)
    except ValueError:
        warn(warnings, "sender JSON unparsed in %s" % context)
        return None, None, None
    if not isinstance(loaded, dict):
        warn(warnings, "sender JSON has unexpected shape in %s" % context)
        return None, None, None
    uid = loaded.get("user_id") or loaded.get("uid") or loaded.get("id")
    return (
        as_text(uid),
        as_text(loaded.get("name")),
        as_text(loaded.get("email")),
    )


def _message(row, column, provenance, warnings):
    context = "messages row %s" % row["rowid_"]
    when = _epoch(as_int(column(row, "timestamp", "timestamp_ms", "time")), "millis")
    if when is None:
        warn(warnings, "%s has no usable timestamp" % context)
        return None
    sender_raw = as_text(column(row, "sender"))
    sender_uid, sender_name, sender_email = _parse_sender(sender_raw, warnings, context)
    attachments_raw = as_text(column(row, "attachments"))
    attachments: tuple[FbAttachment, ...] = ()
    if attachments_raw not in (None, "", "[]"):
        try:
            attachments = tuple(parse_fb_attachments(attachments_raw))
        except MalformedJson:
            warn(warnings, "attachments unparsed in %s" % context)
    return FbMessage(
        row_id=row["rowid_"],
        mid=as_text(column(row, "mid", "message_id")),
        thread_id=as_text(column(row, "tid", "thread_id")),
        body=as_text(column(row, "body", "text")),
        when=when,
        sender_uid=sender_uid,
        sender_name=sender_name,
        sender_email=sender_email,
        sender_raw=sender_raw,
        tags=_parse_tags(column(row, "tags"), warnings, context),
        attachments=attachments,
        attachments_raw=attachments_raw,
        provenance=provenance,
    )


def extract_messages(path, warnings: list[str] | None = None) -> list[FbMessage]:
    """Read cached chat messages in row order."""
    return _read(path, warnings, "messages", "messages", _message)


def _user(row, column, provenance, warnings):
    uid = as_text(column(row, "uid", "user_id", "id"))
    if uid is None:
        warn(warnings, "users row %s lacks a uid" % row["rowid_"])
        return None
    seconds = as_int(column(row, "last_active", "last_active_time", "last_active_timestamp"))
    last_active = _epoch(seconds, "seconds")
    if last_active is None and seconds is not None:
        warn(warnings, "time out of range %r in users row %s" % (seconds, row["rowid_"]))
    return FbUser(
        id=uid,
        name=as_text(column(row, "name")),
        email=as_text(column(row, "email")),
        last_active=last_active,
        provenance=provenance,
    )


def extract_users(path, warnings: list[str] | None = None) -> list[FbUser]:
    """Read the users table kept alongside cached messages."""
    return _read(path, warnings, "users", "users", _user)


def _parse_iso_column(value, warnings, context):
    if value in (None, ""):
        return None
    try:
        return ts_from_iso_text(as_text(value))
    except Exception:
        warn(warnings, "unparsed time %r in %s" % (value, context))
        return None


def _notification(row, column, provenance, warnings):
    context = "notifications row %s" % row["rowid_"]
    flag = as_int(column(row, "unread", "unread_flag"))
    return FbNotification(
        notification_id=as_text(column(row, "notification_id", "id")),
        sender_id=as_text(column(row, "sender_id", "sender")),
        title_text=as_text(column(row, "title_text", "title")),
        href=as_text(column(row, "href", "url")),
        unread_flag=flag if flag is not None else 0,
        created=_parse_iso_column(column(row, "created", "created_time"), warnings, context),
        updated=_parse_iso_column(column(row, "updated", "updated_time"), warnings, context),
        provenance=provenance,
    )


def extract_notifications(path, warnings: list[str] | None = None) -> list[FbNotification]:
    """Read cached notifications; times are stored as date-time text."""
    return _read(path, warnings, "notifications", "notifications", _notification)


def infer_owner_uid(messages: list[FbMessage]) -> str | None:
    """Guess the cache owner: the uid that authored "sent"-tagged messages."""
    counts: dict[str, int] = {}
    for message in messages:
        if "sent" in message.tags and message.sender_uid:
            counts[message.sender_uid] = counts.get(message.sender_uid, 0) + 1
    if not counts:
        return None
    return max(counts.items(), key=lambda pair: (pair[1], pair[0]))[0]


@dataclass(frozen=True)
class ChatFragment:
    """A chat push notification recovered from raw memory."""

    offset: int  # stream offset of the JSON region start
    parsed: bool
    raw: bytes
    provenance: Provenance
    message: str | None = None
    time_raw: int | None = None
    time: Timestamp | None = None
    target_uid: str | None = None
    sender_uid: str | None = None
    recipient_uid: str | None = None
    thread_id: str | None = None
    extra: dict = field(default_factory=dict, compare=False)


# One token per match: an opening brace, a closing brace, a whole JSON string
# (a backslash inside it escapes the next byte), or a quote whose string
# does not close.
_JSON_TOKEN = re.compile(rb'(\{)|(\})|"[^"\\]*(?:\\.[^"\\]*)*"|(")', re.DOTALL)


def _balanced_end(data: bytes, start: int, end: int,
                  known: dict[int, int | None] | None = None) -> int | None:
    """Index just past the brace closing data[start], honoring JSON strings.

    Only data[start:end] is read; None when it ends before the brace
    closes.  Inside a string a backslash skips the byte after it.  known
    maps opening braces to their results over the same end; an inner
    brace found there is stepped over instead of scanned again.
    """
    search = _JSON_TOKEN.search
    depth = 0
    position = start
    while (match := search(data, position, end)) is not None:
        position = match.end()
        kind = match.lastindex
        if kind == 1:
            if depth > 0 and known and (inner := match.start()) in known:
                # Depth stays above zero until the inner object closes, so
                # its end (or None) holds for this scan as well.
                position = known[inner]
                if position is None:
                    return None
            else:
                depth += 1
        elif kind == 2:
            depth -= 1
            if depth == 0:
                return position
        elif kind == 3:
            return None
    return None


def _fragment_fields(obj: dict) -> dict:
    params = obj.get("params") if isinstance(obj.get("params"), dict) else {}
    time_raw = obj.get("time")
    time_raw = time_raw if type(time_raw) is int else None  # a JSON true is a bool, not a time
    return dict(
        message=as_text(obj.get("message")),
        time_raw=time_raw,
        time=_epoch(time_raw, "auto"),
        target_uid=as_text(obj.get("target_uid")),
        sender_uid=as_text(params.get("a")),
        recipient_uid=as_text(params.get("u")),
        thread_id=as_text(params.get("tid")),
    )


def _fragment_from_region(buf: bytes, lo: int, hi: int, marker_rel: int, base: int, evidence_path: str):
    """The fragment around the CHAT_MARKER at buf[marker_rel], read within buf[lo:hi].

    base is the stream offset of buf[0].
    """
    marker_end = marker_rel + len(CHAT_MARKER)

    def provenance_at(off):
        return Provenance(evidence_path, "%s.chat_json" % EXTRACTOR_PREFIX, Channel.CARVED, byte_offset=off)

    position = marker_rel
    outermost = None
    known: dict[int, int | None] = {}  # each inner candidate's end, so the walk stays linear
    while True:
        candidate = buf.rfind(b"{", lo, position)
        if candidate == -1:
            break
        outermost = candidate
        end = known[candidate] = _balanced_end(buf, candidate, hi, known)
        if end is not None and end >= marker_end:
            blob = bytes(buf[candidate:end])
            offset = base + candidate
            try:
                obj = json.loads(blob.decode("utf-8", errors="replace"))
            except (ValueError, RecursionError):  # nesting deeper than the decoder's stack
                return ChatFragment(offset=offset, parsed=False, raw=blob, provenance=provenance_at(offset))
            if not isinstance(obj, dict):
                return ChatFragment(offset=offset, parsed=False, raw=blob, provenance=provenance_at(offset))
            return ChatFragment(
                offset=offset,
                parsed=True,
                raw=blob,
                provenance=provenance_at(offset),
                extra={k: v for k, v in obj.items() if k not in ("message", "time", "target_uid", "params")},
                **_fragment_fields(obj),
            )
        position = candidate
    start = outermost if outermost is not None else marker_rel
    offset = base + start
    return ChatFragment(
        offset=offset, parsed=False, raw=bytes(buf[start:hi]), provenance=provenance_at(offset)
    )


def extract_chat_json(
    stream,
    evidence_path: str = "<stream>",
    chunk_size: int = carver.DEFAULT_CHUNK_SIZE,
) -> list[ChatFragment]:
    """Recover chat push JSON fragments around each marker occurrence.

    For every marker hit the smallest brace-balanced region containing it
    (within CHAT_WINDOW bytes either side) is parsed; fragments that do
    not parse are still reported with their raw bytes so nothing silently
    disappears.  A failed read raises carver.StreamReadError.
    """
    fragments: list[ChatFragment] = []

    def emit(buf, base, rel, index):
        lo = max(rel - CHAT_WINDOW, 0)
        hi = min(rel + CHAT_WINDOW, len(buf))
        fragments.append(_fragment_from_region(buf, lo, hi, rel, base, evidence_path))

    carver.scan_stream(stream, [CHAT_MARKER], CHAT_WINDOW, CHAT_WINDOW, emit, chunk_size)
    return fragments
