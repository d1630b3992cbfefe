"""Extract records from the Facebook app's cache databases and memory remnants.

The app keeps per-login SQLite caches (analytics log, friends, messages, users,
notifications) under its package LocalState.  Every extract_* reader yields a
table's records as its rows are read, on a connection the caller opened, and
extract_cache gives each table the open cache holds its reader.  cache_owner
names the cache's login in one pass over the messages table that comes before
the records are read, so that they can be placed as they come.  Message rows
embed JSON in several columns; each distinct sender and tags text is parsed
once per table read, malformed JSON never aborts extraction, the raw text is
kept and a warning recorded.  Process memory holds chat push notifications as
JSON fragments, recovered by marker scanning.
"""

from __future__ import annotations

import itertools
import json
import os
import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from datetime import date

from . import carver, locator
from .model import (Channel, ExtractionError, OutOfRange, Provenance, Timestamp, date_from_ymd, ts_from_iso_text,
                    ts_from_unix)
from .sqliteio import MissingTable, as_int, as_text, read_table, table_names, warn

__all__ = [
    "ChatFragment",
    "FbAnalyticsEvent",
    "FbAttachment",
    "FbFriend",
    "FbMessage",
    "FbNotification",
    "FbUser",
    "MalformedJson",
    "cache_owner",
    "extract_analytics",
    "extract_cache",
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
PARSE_CACHE_SIZE = 1024  # distinct sender or tags texts whose parse one table read keeps

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


def _read(connection, path, warnings, wanted: str, what: str, columns, record) -> Iterator:
    """The records of the cache table named wanted, yielded as record reads its rows on connection through columns
    in rowid order; MissingTable, once the first is asked for, if the table is absent."""
    table = table_names(connection).get(wanted.casefold())
    if table is None:
        raise MissingTable("table %s absent from %s" % (wanted, path))
    yield from read_table(connection, table, path, EXTRACTOR_PREFIX, what, columns, record, warnings)


def _epoch(value, unit: str) -> Timestamp | None:
    """ts_from_unix(value, unit), or None when value is None or out of range."""
    if value is None:
        return None
    try:
        return ts_from_unix(value, unit)
    except OutOfRange:
        return None


_ANALYTICS_COLUMNS = (("time", "timestamp"), ("log_type", "type"), ("name", "event_name"), "module",
                      ("extra", "extra_json"))


def _analytics_event(values, provenance, warnings):
    rowid, time, log_type, name, module, extra = values
    when = _epoch(as_int(time), "millis")
    if when is None:
        warn(warnings, "analytics row %s has no usable time" % rowid)
        return None
    return FbAnalyticsEvent(
        row_id=rowid,
        when=when,
        log_type=as_text(log_type),
        name=as_text(name),
        module=as_text(module),
        extra=as_text(extra),
        provenance=provenance,
    )


def extract_analytics(connection, path, warnings: list[str] | None = None) -> Iterator[FbAnalyticsEvent]:
    """Yield the analytics log as it is read: one event per row in row order."""
    return _read(connection, path, warnings, "analytics_logs", "analytics", _ANALYTICS_COLUMNS, _analytics_event)


def _parse_birthday(value, warnings, context):
    if value in (None, ""):
        return None
    text = as_text(value)
    try:
        return date_from_ymd(text[:10], "-")
    except ValueError:
        warn(warnings, "unparsed birthday %r in %s" % (text, context))
        return None


_FRIEND_COLUMNS = (
    ("uid", "user_id", "id"), "first_name", "middle_name", "last_name", "name", ("communication_rank", "rank"),
    ("contact_email", "email"), "phones", ("profile_url", "url"), ("birthday", "birthday_date"),
)


def _friend(values, provenance, warnings):
    rowid, uid, first, middle, last, name, rank, email, phones, url, birthday = values
    uid = as_text(uid)
    if uid is None:
        warn(warnings, "friend row %s lacks a uid" % rowid)
        return None
    first = as_text(first)
    middle = as_text(middle)
    last = as_text(last)
    name = as_text(name)
    if name is None:
        name = (" ".join(part for part in (first, middle, last) if part)) or None
    if rank is not None:
        try:
            rank = float(rank)
        except ValueError:
            warn(warnings, "unparsed communication rank %r in friends row %s" % (rank, rowid))
            rank = None
    return FbFriend(
        uid=uid,
        name=name,
        first_name=first,
        middle_name=middle,
        last_name=last,
        contact_email=as_text(email),
        phones=as_text(phones),
        profile_url=as_text(url),
        communication_rank=rank,
        birthday=_parse_birthday(birthday, warnings, "friends row %s" % rowid),
        provenance=provenance,
    )


def extract_friends(connection, path, warnings: list[str] | None = None) -> Iterator[FbFriend]:
    """Yield the friends cache as it is read: profile fields for every friend row."""
    return _read(connection, path, warnings, "friends", "friends", _FRIEND_COLUMNS, _friend)


def parse_fb_attachments(text: str) -> list[FbAttachment]:
    """Parse the attachments column JSON into attachment descriptors.

    The stored value is a JSON array, sometimes wrapped in one extra list
    level.  Raises MalformedJson when the text is not JSON at all.
    """
    try:
        loaded = json.loads(text)
    except (TypeError, ValueError, RecursionError) as exc:  # the last: nesting deeper than the decoder's stack
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
    except (ValueError, RecursionError):
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
    except (ValueError, RecursionError):
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


class _ParseCache:
    """parse(raw, warnings, context) for the rows of one table read, parsing each distinct text once.

    A text's result is kept only when its parse appended no warning, so
    every row still gets its own warnings; the first PARSE_CACHE_SIZE such
    results are kept, and no more, however many rows the table holds.
    """

    def __init__(self, parse):
        self.parse = parse
        self.results: dict[str, object] = {}

    def __call__(self, raw, warnings, context):
        if type(raw) is not str:  # None, and the rare number or blob, are parsed as they come
            return self.parse(raw, warnings, context)
        result = self.results.get(raw)
        if result is None:
            said: list[str] = []
            result = self.parse(raw, said, context)
            if said:
                if warnings is not None:
                    warnings.extend(said)
            elif len(self.results) < PARSE_CACHE_SIZE:
                self.results[raw] = result
        return result


# The first three are all the owner pass reads.
_MESSAGE_COLUMNS = (
    ("timestamp", "timestamp_ms", "time"), "sender", "tags", "attachments", ("mid", "message_id"),
    ("tid", "thread_id"), ("body", "text"),
)
_OWNER_COLUMNS = _MESSAGE_COLUMNS[:3]


def _message_reader(owner_pass: bool = False):
    """A read_table record function for one read of a messages table, with its own parse caches.

    It gives the FbMessage of each row with a usable time, from the
    _MESSAGE_COLUMNS values; for the owner pass, only the (sender uid,
    tags) of the same rows, from the _OWNER_COLUMNS values.
    """
    senders, tag_lists = _ParseCache(_parse_sender), _ParseCache(_parse_tags)

    def message(values, provenance, warnings):
        rowid, timestamp, sender_raw, tags, *rest = values
        context = "messages row %s" % rowid
        when = _epoch(as_int(timestamp), "millis")
        if when is None:
            warn(warnings, "%s has no usable timestamp" % context)
            return None
        sender_raw = as_text(sender_raw)
        sender_uid, sender_name, sender_email = senders(sender_raw, warnings, context)
        if owner_pass:
            return sender_uid, tag_lists(tags, warnings, context)
        attachments_raw, mid, thread_id, body = rest
        attachments_raw = as_text(attachments_raw)
        attachments: tuple[FbAttachment, ...] = ()
        if attachments_raw not in (None, "", "[]"):
            try:
                attachments = tuple(parse_fb_attachments(attachments_raw))
            except MalformedJson:
                warn(warnings, "attachments unparsed in %s" % context)
        return FbMessage(
            row_id=rowid,
            mid=as_text(mid),
            thread_id=as_text(thread_id),
            body=as_text(body),
            when=when,
            sender_uid=sender_uid,
            sender_name=sender_name,
            sender_email=sender_email,
            sender_raw=sender_raw,
            tags=tag_lists(tags, warnings, context),
            attachments=attachments,
            attachments_raw=attachments_raw,
            provenance=provenance,
        )

    return message


def extract_messages(connection, path, warnings: list[str] | None = None) -> Iterator[FbMessage]:
    """Yield cached chat messages in row order as they are read."""
    return _read(connection, path, warnings, "messages", "messages", _MESSAGE_COLUMNS, _message_reader())


_USER_COLUMNS = (("uid", "user_id", "id"), ("last_active", "last_active_time", "last_active_timestamp"),
                 "name", "email")


def _user(values, provenance, warnings):
    rowid, uid, seconds, name, email = values
    uid = as_text(uid)
    if uid is None:
        warn(warnings, "users row %s lacks a uid" % rowid)
        return None
    seconds = as_int(seconds)
    last_active = _epoch(seconds, "seconds")
    if last_active is None and seconds is not None:
        warn(warnings, "time out of range %r in users row %s" % (seconds, rowid))
    return FbUser(
        id=uid,
        name=as_text(name),
        email=as_text(email),
        last_active=last_active,
        provenance=provenance,
    )


def extract_users(connection, path, warnings: list[str] | None = None) -> Iterator[FbUser]:
    """Yield the users table kept alongside cached messages as it is read."""
    return _read(connection, path, warnings, "users", "users", _USER_COLUMNS, _user)


def _parse_iso_column(value, warnings, context):
    if value in (None, ""):
        return None
    try:
        return ts_from_iso_text(as_text(value))
    except ExtractionError:
        warn(warnings, "unparsed time %r in %s" % (value, context))
        return None


_NOTIFICATION_COLUMNS = (
    ("unread", "unread_flag"), ("notification_id", "id"), ("sender_id", "sender"), ("title_text", "title"),
    ("href", "url"), ("created", "created_time"), ("updated", "updated_time"),
)


def _notification(values, provenance, warnings):
    rowid, flag, notification_id, sender_id, title, href, created, updated = values
    context = "notifications row %s" % rowid
    flag = as_int(flag)
    return FbNotification(
        notification_id=as_text(notification_id),
        sender_id=as_text(sender_id),
        title_text=as_text(title),
        href=as_text(href),
        unread_flag=flag if flag is not None else 0,
        created=_parse_iso_column(created, warnings, context),
        updated=_parse_iso_column(updated, warnings, context),
        provenance=provenance,
    )


def extract_notifications(connection, path, warnings: list[str] | None = None) -> Iterator[FbNotification]:
    """Yield cached notifications as they are read; times are stored as date-time text."""
    return _read(connection, path, warnings, "notifications", "notifications", _NOTIFICATION_COLUMNS, _notification)


# (casefolded cache table, group label, extractor), in the order the tables are read.
_CACHE_TABLES = (("analytics_logs", "analytics", extract_analytics), ("friends", "friends", extract_friends),
                 ("messages", "messages", extract_messages), ("users", "users", extract_users),
                 ("notifications", "notifications", extract_notifications))


def extract_cache(connection, path, warnings: list[str] | None = None) -> dict[str, Iterator]:
    """{group label: its extractor's records} for every cache table the open connection to path holds.

    Each group is its table's reader, not yet started, so a table is read
    only as its records are taken, and the connection must stay open until
    the last is.
    """
    present = table_names(connection)
    return {label: extract(connection, path, warnings) for table, label, extract in _CACHE_TABLES if table in present}


def infer_owner_uid(messages: Iterable[tuple[str | None, tuple[str, ...]]]) -> str | None:
    """Guess the cache owner from the (sender uid, tags) of its messages: the uid that authored the most
    "sent"-tagged ones, and of those tied, the greatest."""
    counts: dict[str, int] = {}
    for sender_uid, tags in messages:
        if "sent" in tags and sender_uid:
            counts[sender_uid] = counts.get(sender_uid, 0) + 1
    if not counts:
        return None
    return max(counts.items(), key=lambda pair: (pair[1], pair[0]))[0]


def cache_owner(connection, path) -> str | None:
    """The owner of the cache open on connection at path, from one pass over its messages table, if it has one.

    The pass reads the time, sender and tags of each row that
    extract_messages keeps, and adds no warning.  The owner is
    infer_owner_uid of those rows, or else, if there are any, the all-digit
    uid naming the account directory of path made absolute (the
    fb-cache-db rule).
    """
    table = table_names(connection).get("messages")
    if table is None:
        return None
    rows = read_table(connection, table, path, EXTRACTOR_PREFIX, None, _OWNER_COLUMNS, _message_reader(owner_pass=True),
                      None)
    first = next(rows, None)
    if first is None:
        return None
    owner = infer_owner_uid(itertools.chain((first,), rows))
    if owner is None:
        owner = next((match.account for match in locator.match_catalog(os.path.abspath(path), False)
                      if match.rule_id == "fb-cache-db" and match.account.isascii() and match.account.isdigit()),
                     None)
    return owner


@dataclass(frozen=True, slots=True)
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


def _fragment_from_region(buf: bytes | bytearray, lo: int, hi: int, marker_rel: int, base: int, evidence_path: str):
    """The fragment around the CHAT_MARKER at buf[marker_rel], read within buf[lo:hi].

    base is the stream offset of buf[0].  The fragment holds copies of
    buf's bytes, so buf may be reused once this returns.
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
            blob = bytes(memoryview(buf)[candidate:end])  # one copy, not a slice and then a copy
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
        offset=offset, parsed=False, raw=bytes(memoryview(buf)[start:hi]), provenance=provenance_at(offset)
    )


def extract_chat_json(
    stream,
    evidence_path: str = "<stream>",
    chunk_size: int | None = None,
) -> Iterator[ChatFragment]:
    """Yield the chat push JSON fragments around each marker occurrence, in offset order.

    For every marker hit the smallest brace-balanced region containing it
    (within CHAT_WINDOW bytes either side) is parsed; fragments that do
    not parse are still reported with their raw bytes so nothing silently
    disappears.  The stream is read as the fragments are taken, so no list
    of them is held.  A failed read raises carver.StreamReadError after the
    fragments found before it were yielded.
    """
    for buf, base, rel, _ in carver.scan_stream(stream, [CHAT_MARKER], CHAT_WINDOW, CHAT_WINDOW, chunk_size):
        yield _fragment_from_region(buf, max(rel - CHAT_WINDOW, 0), min(rel + CHAT_WINDOW, len(buf)),
                                    rel, base, evidence_path)
