"""Extract records from Skype's main.db, shared.xml, and config.xml.

The per-login main.db carries accounts, contacts, the full message store with
integer type codes, file transfers, calls, and video messages; any of
STORE_TABLES marks a database as one (is_store), which extract_main_db reads on
the caller's connection.  Two XML files alongside it record network state
(supernode addresses packed as prefixed hex in shared.xml) and the per-account
contact list with dot-escaped names (config.xml).  parse_state_xml decodes
either by its byte-order mark and picks the parser by its closing element; both
parse leniently by tag scanning, since carved copies are often incomplete.
"""

from __future__ import annotations

import ipaddress
import re
import xml.etree.ElementTree as ET
from collections.abc import Iterator
from dataclasses import dataclass
from datetime import date

from .locator import decode_text
from .model import ExtractionError, MalformedHex, OutOfRange, Provenance, Timestamp, date_from_ymd, ts_from_unix
from .sqliteio import as_int, as_text, read_table, table_names, warn

__all__ = [
    "AllTablesMissing",
    "CallMember",
    "FileAttachmentXml",
    "FilesBody",
    "HOSTCACHE_PREFIX",
    "MessageKind",
    "NoRecognizedTags",
    "PartListBody",
    "PlainTextBody",
    "STORE_TABLES",
    "SkypeAccount",
    "SkypeCall",
    "SkypeConfig",
    "SkypeContact",
    "SkypeDataset",
    "SkypeMessage",
    "SkypeNetworkState",
    "SkypeTransfer",
    "SkypeVideoMessage",
    "SupernodeEntry",
    "TYPE_CODE_LABELS",
    "VideoMessageBody",
    "VideoMessageNotice",
    "classify_message",
    "decode_decimal_ip",
    "decode_hostcache",
    "extract_main_db",
    "group_main_db",
    "is_store",
    "parse_body_xml",
    "parse_config_xml",
    "parse_shared_xml",
    "parse_state_xml",
]


class NoRecognizedTags(ExtractionError):
    """The XML held none of the tags this parser knows."""


class AllTablesMissing(ExtractionError):
    """None of the expected message-store tables exist."""


EXTRACTOR_PREFIX = "skype"

# Message type codes and their meanings, as observed in the message store.
TYPE_CODE_LABELS = {
    4: "Conference",
    30: "VideoSessionStarted",
    39: "VideoSessionEnded",
    50: "ContactAsk",
    51: "ContactAsk",
    53: "Blocked",
    60: "EmoticonSent",
    61: "TextSent",
    63: "ContactDetailsSent",
    64: "SmsSent",
    67: "VoiceMessageSent",
    68: "FileSent",
    110: "BirthdayNote",
}

HOSTCACHE_PREFIX = "0400050041050200"


def _birthday(value, warnings, context):
    """Decode the packed YYYYMMDD integer (or text) birthday column."""
    if value in (None, "", 0):
        return None
    text = as_text(value).strip()
    if not re.fullmatch(r"\d{8}", text):
        warn(warnings, "unparsed birthday %r in %s" % (value, context))
        return None
    try:
        return date_from_ymd(text)
    except ValueError:
        warn(warnings, "implausible birthday %r in %s" % (value, context))
        return None


def _ts(value, warnings=None, context=""):
    seconds = as_int(value)
    if seconds is None or seconds <= 0:
        return None
    try:
        return ts_from_unix(seconds, "seconds")
    except OutOfRange:
        warn(warnings, "time out of range %r in %s" % (value, context))
        return None


# ---------------------------------------------------------------------------
# Message classification


@dataclass(frozen=True)
class MessageKind:
    """Decoded meaning of a message row's type code."""

    label: str
    code: int
    group_chat: bool


# The shared kind of each known (code, group chat); made-up codes get a kind of their own.
_KINDS = {(code, group_chat): MessageKind(label, code, group_chat)
          for code, label in TYPE_CODE_LABELS.items() for group_chat in (False, True)}


def classify_message(type_code, participant_count=None) -> MessageKind:
    """Map a message type code to its meaning; total over all integers.

    The label depends on the type code alone; a participant count above
    two marks the conversation as a group chat.  Each known code gets one
    shared MessageKind per group-chat reading.
    """
    code = as_int(type_code)
    if code is None:
        code = -1
    count = as_int(participant_count)
    group_chat = count is not None and count > 2
    return _KINDS.get((code, group_chat)) or MessageKind("Unknown", code, group_chat)


# ---------------------------------------------------------------------------
# body_xml variants


@dataclass(frozen=True)
class FileAttachmentXml:
    """One file offered in a file-send message."""

    name: str
    size: int
    index: int
    tid: str


@dataclass(frozen=True)
class VideoMessageNotice:
    sid: str
    public_link: str | None
    secret_code: str | None


@dataclass(frozen=True)
class FilesBody:
    files: tuple[FileAttachmentXml, ...]


@dataclass(frozen=True)
class VideoMessageBody:
    notice: VideoMessageNotice


@dataclass(frozen=True)
class PartListBody:
    raw: str
    part_type: str | None
    identities: tuple[str, ...]


@dataclass(frozen=True)
class PlainTextBody:
    text: str


_SECRET_RE = re.compile(r"secret code\s+([A-Za-z0-9]+)")


def _files_from_root(root, warnings) -> FilesBody:
    files = []
    seen_indices = set()
    for child in root:
        if child.tag.lower() != "file":
            continue
        size = as_int(child.get("size"))
        if size is None or size < 0:
            warn(warnings, "file entry with unusable size %r" % child.get("size"))
            size = 0
        index = as_int(child.get("index"))
        if index is None:
            index = len(files)
        if index in seen_indices:
            warn(warnings, "duplicate file index %d in one message" % index)
        seen_indices.add(index)
        files.append(
            FileAttachmentXml(
                name=(child.text or "").strip(),
                size=size,
                index=index,
                tid=child.get("tid") or "",
            )
        )
    return FilesBody(files=tuple(files))


def parse_body_xml(text, warnings: list[str] | None = None):
    """Decode a body_xml value into one of four shapes; never fails.

    File offers and video message notices get structured records, call
    participant lists keep their raw text plus the identities, and
    everything else (including XML that will not parse) is plain text.
    """
    if text is None:
        return PlainTextBody("")
    stripped = text.strip()
    if not stripped.startswith("<"):
        return PlainTextBody(text)
    try:
        root = ET.fromstring(stripped)
    except (ET.ParseError, UnicodeEncodeError):  # the latter: lone surrogates
        warn(warnings, "body_xml looked like markup but did not parse")
        return PlainTextBody(text)
    tag = root.tag.lower()
    if tag == "files":
        return _files_from_root(root, warnings)
    if tag == "videomessage":
        body_text = "".join(root.itertext())
        match = _SECRET_RE.search(body_text)
        return VideoMessageBody(
            VideoMessageNotice(
                sid=root.get("sid") or "",
                public_link=root.get("publiclink"),
                secret_code=match.group(1) if match else None,
            )
        )
    if tag == "partlist":
        identities = tuple(
            part.get("identity") for part in root if part.tag.lower() == "part" and part.get("identity")
        )
        return PartListBody(raw=text, part_type=root.get("type"), identities=identities)
    return PlainTextBody(text)


# ---------------------------------------------------------------------------
# Network state decoding


@dataclass(frozen=True)
class SupernodeEntry:
    ip: str
    port: int

    def __post_init__(self):
        ipaddress.IPv4Address(self.ip)
        if not 0 <= self.port <= 65535:
            raise OutOfRange("port %d outside 0..65535" % self.port)


def decode_decimal_ip(value: int) -> str:
    """Turn a packed 32-bit address, in network byte order, into a dotted quad."""
    value = int(value)
    if not 0 <= value <= 0xFFFFFFFF:
        raise OutOfRange("not a 32-bit value: %d" % value)
    return ".".join(str(b) for b in value.to_bytes(4, "big"))


def decode_hostcache(hex_text: str, warnings: list[str] | None = None) -> list[SupernodeEntry]:
    """Decode the packed supernode cache: prefix-anchored ip:port entries.

    Each entry is the 16-char marker prefix followed by 12 hex chars, four
    IP bytes then a big-endian port.  Material between entries is skipped;
    a prefix too close to the end is reported and dropped.
    """
    text = "".join(hex_text.split())
    if not re.fullmatch(r"[0-9A-Fa-f]*", text):
        raise MalformedHex("hostcache text contains non-hex characters")
    entries = []
    upper = text.upper()
    position = 0
    while True:
        hit = upper.find(HOSTCACHE_PREFIX, position)
        if hit == -1:
            break
        start = hit + len(HOSTCACHE_PREFIX)
        chunk = text[start : start + 12]
        if len(chunk) < 12:
            warn(warnings, "hostcache entry truncated after prefix at hex offset %d" % hit)
            break
        raw = bytes.fromhex(chunk)
        entries.append(SupernodeEntry(ip=".".join(str(b) for b in raw[:4]), port=int.from_bytes(raw[4:6], "big")))
        position = start + 12
    return entries


@dataclass(frozen=True)
class SkypeNetworkState:
    last_ip: str | None
    listening_port: int | None
    supernode: SupernodeEntry | None
    hostcache: tuple[SupernodeEntry, ...]
    default_skypename: str | None
    node_id: str | None


def _simple_tag(text, name):
    match = re.search(r"<%s>\s*([^<]*?)\s*</%s>" % (name, name), text, re.IGNORECASE)
    return match.group(1) if match else None


def parse_shared_xml(data, warnings: list[str] | None = None) -> SkypeNetworkState:
    """Read network state from shared.xml, text or its bytes, by lenient tag scanning."""
    text = decode_text(data) if isinstance(data, (bytes, bytearray)) else data
    last_ip_raw = _simple_tag(text, "LastIP")
    port_raw = _simple_tag(text, "ListeningPort")
    supernode_raw = _simple_tag(text, "Supernode")
    default_name = _simple_tag(text, "Default")
    node_id = _simple_tag(text, "NodeID")
    cache_match = re.search(r"<HostCache[^>]*>(.*?)</HostCache>", text, re.DOTALL | re.IGNORECASE)

    if not any((last_ip_raw, port_raw, supernode_raw, default_name, node_id, cache_match)):
        raise NoRecognizedTags("no network state tags found")

    last_ip = None
    if last_ip_raw:
        packed = as_int(last_ip_raw)
        if packed is None or not 0 <= packed <= 0xFFFFFFFF:
            warn(warnings, "LastIP is not a 32-bit decimal: %r" % last_ip_raw)
        else:
            last_ip = decode_decimal_ip(packed)

    listening_port = as_int(port_raw) if port_raw else None
    if listening_port is not None and not 0 <= listening_port <= 65535:
        warn(warnings, "ListeningPort out of range: %r" % port_raw)
        listening_port = None

    supernode = None
    if supernode_raw:
        host, _, port_text = supernode_raw.rpartition(":")
        port = as_int(port_text)
        if host and port is not None:
            try:
                supernode = SupernodeEntry(ip=host, port=port)
            except (ValueError, OutOfRange):
                warn(warnings, "Supernode address unparsed: %r" % supernode_raw)
        else:
            warn(warnings, "Supernode address unparsed: %r" % supernode_raw)

    hostcache: list[SupernodeEntry] = []
    if cache_match:
        inner = re.sub(r"<[^>]+>", " ", cache_match.group(1))
        for run in re.findall(r"[0-9A-Fa-f]+", inner):
            hostcache.extend(decode_hostcache(run, warnings))

    return SkypeNetworkState(
        last_ip=last_ip,
        listening_port=listening_port,
        supernode=supernode,
        hostcache=tuple(hostcache),
        default_skypename=default_name or None,
        node_id=node_id or None,
    )


# ---------------------------------------------------------------------------
# config.xml

_DOT_ESCAPE_RE = re.compile(r"\.([0-9A-Fa-f]{2})")


def _unescape_contact(name: str) -> str:
    return _DOT_ESCAPE_RE.sub(lambda m: chr(int(m.group(1), 16)), name)


@dataclass(frozen=True)
class SkypeConfig:
    serial: int | None
    last_used: Timestamp | None
    contacts: tuple[str, ...]
    entries: tuple[tuple[str, str], ...]  # (decoded name, raw inner text)


def parse_config_xml(data, warnings: list[str] | None = None) -> SkypeConfig:
    """Read the per-account config.xml: serial, last-used time, contacts.

    data is text or the file's bytes.  Contact names appear as element
    names under <u> with dots stored as ".2E"-style hex escapes, which are
    decoded back.
    """
    text = decode_text(data) if isinstance(data, (bytes, bytearray)) else data
    serial_match = re.search(r'<config[^>]*\bserial="(\d+)"', text, re.IGNORECASE)
    last_used_raw = _simple_tag(text, "LastUsed")
    u_match = re.search(r"<u>(.*?)</u>", text, re.DOTALL)
    u_empty = re.search(r"<u\s*/>", text)

    if not any((serial_match, last_used_raw, u_match, u_empty)):
        raise NoRecognizedTags("no recognized config tags found")

    entries: list[tuple[str, str]] = []
    if u_match:
        for name, value in re.findall(r"<([A-Za-z0-9._\-]+)>([^<]*)</\1>", u_match.group(1)):
            entries.append((_unescape_contact(name), value.strip()))

    return SkypeConfig(
        serial=as_int(serial_match.group(1)) if serial_match else None,
        last_used=_ts(last_used_raw, warnings, "config LastUsed"),
        contacts=tuple(name for name, _ in entries),
        entries=tuple(entries),
    )


def parse_state_xml(data: bytes, warnings: list[str] | None = None) -> SkypeNetworkState | SkypeConfig | None:
    """The state in a state XML file's bytes, decoded by locator.decode_text: shared.xml's if they
    close a <Lib> element, else config.xml's if they close a <UI>, else None."""
    text = decode_text(data)
    if "</Lib>" in text:
        return parse_shared_xml(text, warnings)
    if "</UI>" in text:
        return parse_config_xml(text, warnings)
    return None


# ---------------------------------------------------------------------------
# main.db


@dataclass(frozen=True)
class SkypeAccount:
    skypename: str
    liveid: str | None
    fullname: str | None
    birthday: date | None
    gender: int | None
    country: str | None
    province: str | None
    city: str | None
    emails: str | None
    mood_text: str | None
    registration_time: Timestamp | None
    provenance: Provenance


@dataclass(frozen=True)
class SkypeContact:
    skypename: str
    fullname: str | None
    displayname: str | None
    birthday: date | None
    gender: int | None
    languages: str | None
    country: str | None
    city: str | None
    phone_mobile: str | None
    emails: str | None
    last_online: Timestamp | None
    last_used: Timestamp | None
    provenance: Provenance


@dataclass(frozen=True)
class SkypeMessage:
    id: int
    convo_id: int | None
    chatname: str | None
    author: str | None
    from_dispname: str | None
    when: Timestamp
    type_code: int
    chatmsg_type: int | None
    chatmsg_status: int | None
    body_xml: str | None
    participant_count: int | None
    reason: str | None
    kind: MessageKind
    provenance: Provenance


@dataclass(frozen=True)
class SkypeTransfer:
    partner_handle: str | None
    partner_dispname: str | None
    direction: str  # receiving / transferring / undetermined
    type_code: int | None
    status_code: int | None
    failure_reason: str | None
    start: Timestamp | None
    finish: Timestamp | None  # absent while unfinished (stored 0)
    filepath: str | None
    filename: str | None
    filesize: int | None
    bytes_transferred: int | None
    provenance: Provenance


@dataclass(frozen=True)
class SkypeCall:
    begin: Timestamp
    host_identity: str | None
    duration_s: int | None
    is_incoming: bool
    name: str | None
    unseen_missed: bool | None
    provenance: Provenance


@dataclass(frozen=True)
class CallMember:
    identity: str | None
    dispname: str | None
    guid_raw: str | None
    guid_parts: tuple[str, str, str] | None  # only when unambiguous
    duration_s: int | None
    provenance: Provenance


@dataclass(frozen=True)
class SkypeVideoMessage:
    sid: str
    local_path: str | None
    vod_path: str | None
    public_link: str | None
    author: str | None
    progress: int
    creation_time: Timestamp | None
    reaction_time: Timestamp | None
    status: int | None
    vod_status: int | None
    provenance: Provenance


@dataclass
class SkypeDataset:
    accounts: list[SkypeAccount]
    contacts: list[SkypeContact]
    messages: list[SkypeMessage]
    transfers: list[SkypeTransfer]
    calls: list[SkypeCall]
    call_members: list[CallMember]
    video_messages: list[SkypeVideoMessage]


_ACCOUNT_COLUMNS = (
    "skypename", ("liveid_membername", "liveid"), "fullname", "birthday", "gender", "country", "province",
    "city", "emails", "mood_text", "registration_timestamp",
)


def _account(values, provenance, warnings):
    (skypename, liveid, fullname, birthday, gender, country, province, city, emails, mood_text,
     registered) = values
    skypename = as_text(skypename)
    if not skypename:
        warn(warnings, "account row without skypename skipped")
        return None
    return SkypeAccount(
        skypename=skypename,
        liveid=as_text(liveid),
        fullname=as_text(fullname),
        birthday=_birthday(birthday, warnings, "account %s" % skypename),
        gender=as_int(gender),
        country=as_text(country),
        province=as_text(province),
        city=as_text(city),
        emails=as_text(emails),
        mood_text=as_text(mood_text),
        registration_time=_ts(registered, warnings, "account"),
        provenance=provenance,
    )


_CONTACT_COLUMNS = (
    "skypename", "fullname", "displayname", "birthday", "gender", "languages", "country", "city",
    "phone_mobile", "emails", "lastonline_timestamp", "lastused_timestamp",
)


def _contact(values, provenance, warnings):
    (skypename, fullname, displayname, birthday, gender, languages, country, city, phone_mobile, emails,
     last_online, last_used) = values
    skypename = as_text(skypename)
    if not skypename:
        warn(warnings, "contact row without skypename skipped")
        return None
    return SkypeContact(
        skypename=skypename,
        fullname=as_text(fullname),
        displayname=as_text(displayname),
        birthday=_birthday(birthday, warnings, "contact %s" % skypename),
        gender=as_int(gender),
        languages=as_text(languages),
        country=as_text(country),
        city=as_text(city),
        phone_mobile=as_text(phone_mobile),
        emails=as_text(emails),
        last_online=_ts(last_online, warnings, "contact"),
        last_used=_ts(last_used, warnings, "contact"),
        provenance=provenance,
    )


_MESSAGE_COLUMNS = (
    "timestamp", "type", "participant_count", "id", "convo_id", "chatname", "author", "from_dispname",
    "chatmsg_type", "chatmsg_status", "body_xml", "reason",
)


def _message(values, provenance, warnings):
    (rowid, timestamp, type_code, count, id_, convo_id, chatname, author, from_dispname, chatmsg_type,
     chatmsg_status, body_xml, reason) = values
    when = _ts(timestamp, warnings, "message")
    if when is None:
        warn(warnings, "message row %s has no usable timestamp" % rowid)
        return None
    type_code = as_int(type_code)
    if type_code is None:
        type_code = -1
    count = as_int(count)
    return SkypeMessage(
        id=as_int(id_) or rowid,
        convo_id=as_int(convo_id),
        chatname=as_text(chatname),
        author=as_text(author),
        from_dispname=as_text(from_dispname),
        when=when,
        type_code=type_code,
        chatmsg_type=as_int(chatmsg_type),
        chatmsg_status=as_int(chatmsg_status),
        body_xml=as_text(body_xml),
        participant_count=count,
        reason=as_text(reason),
        kind=classify_message(type_code, participant_count=count),
        provenance=provenance,
    )


_TRANSFER_DIRECTIONS = {1: "receiving", 2: "transferring"}

_TRANSFER_COLUMNS = (
    "type", "partner_handle", "partner_dispname", "status", ("failurereason", "failure_reason"),
    "starttime", "finishtime", "filepath", "filename", "filesize", ("bytestransferred", "bytes_transferred"),
)


def _transfer(values, provenance, warnings):
    (rowid, type_code, partner_handle, partner_dispname, status, failure_reason, start, finish, filepath,
     filename, filesize, transferred) = values
    type_code = as_int(type_code)
    direction = _TRANSFER_DIRECTIONS.get(type_code)
    if direction is None:
        warn(warnings, "transfer row %s has unknown type %r" % (rowid, type_code))
        direction = "undetermined"
    return SkypeTransfer(
        partner_handle=as_text(partner_handle),
        partner_dispname=as_text(partner_dispname),
        direction=direction,
        type_code=type_code,
        status_code=as_int(status),
        failure_reason=as_text(failure_reason),
        start=_ts(start, warnings, "transfer"),
        finish=_ts(finish, warnings, "transfer"),
        filepath=as_text(filepath),
        filename=as_text(filename),
        filesize=as_int(filesize),
        bytes_transferred=as_int(transferred),
        provenance=provenance,
    )


_CALL_COLUMNS = ("begin_timestamp", "duration", "is_unseen_missed", "host_identity", "is_incoming", "name")


def _call(values, provenance, warnings):
    rowid, begin, duration, unseen, host_identity, is_incoming, name = values
    begin = _ts(begin, warnings, "call")
    if begin is None:
        warn(warnings, "call row %s has no usable begin time" % rowid)
        return None
    duration = as_int(duration)
    if duration is not None and duration < 0:
        warn(warnings, "call row %s has negative duration" % rowid)
        duration = None
    unseen = as_int(unseen)
    return SkypeCall(
        begin=begin,
        host_identity=as_text(host_identity),
        duration_s=duration,
        is_incoming=bool(as_int(is_incoming) or 0),
        name=as_text(name),
        unseen_missed=bool(unseen) if unseen is not None else None,
        provenance=provenance,
    )


def _split_guid(guid: str | None):
    """(user, correspondent, call-name) only when two hyphens make it plain."""
    if not guid:
        return None
    parts = guid.split("-")
    if len(parts) == 3 and all(parts):
        return tuple(parts)
    return None


_CALL_MEMBER_COLUMNS = ("guid", "identity", "dispname", "call_duration")


def _call_member(values, provenance, warnings):
    _, guid, identity, dispname, duration = values
    guid = as_text(guid)
    return CallMember(
        identity=as_text(identity),
        dispname=as_text(dispname),
        guid_raw=guid,
        guid_parts=_split_guid(guid),
        duration_s=as_int(duration),
        provenance=provenance,
    )


_VIDEO_MESSAGE_COLUMNS = (
    ("sharing_id", "sid"), "progress", "local_path", "vod_path", ("public_link", "publiclink"), "author",
    "creation_timestamp", "reaction_timestamp", "status", "vod_status",
)


def _video_message(values, provenance, warnings):
    (rowid, sid, progress, local_path, vod_path, public_link, author, created, reacted, status,
     vod_status) = values
    sid = as_text(sid)
    if not sid:
        warn(warnings, "video message row %s without sharing id skipped" % rowid)
        return None
    progress = as_int(progress)
    if progress is None:
        progress = 0
    if not 0 <= progress <= 100:
        warn(warnings, "video message %s progress %d clamped" % (sid, progress))
        progress = min(max(progress, 0), 100)
    return SkypeVideoMessage(
        sid=sid,
        local_path=as_text(local_path),
        vod_path=as_text(vod_path),
        public_link=as_text(public_link),
        author=as_text(author),
        progress=progress,
        creation_time=_ts(created, warnings, "video message"),
        reaction_time=_ts(reacted, warnings, "video message"),
        status=as_int(status),
        vod_status=as_int(vod_status),
        provenance=provenance,
    )


# (SkypeDataset field, also the provenance name; table; column plan; row
# reader; read with rowid).  Accounts and Contacts need no row id, so they
# are read in scan order and still load when declared WITHOUT ROWID.
_TABLE_READERS = (
    ("accounts", "Accounts", _ACCOUNT_COLUMNS, _account, False),
    ("contacts", "Contacts", _CONTACT_COLUMNS, _contact, False),
    ("messages", "Messages", _MESSAGE_COLUMNS, _message, True),
    ("transfers", "Transfers", _TRANSFER_COLUMNS, _transfer, True),
    ("calls", "Calls", _CALL_COLUMNS, _call, True),
    ("call_members", "CallMembers", _CALL_MEMBER_COLUMNS, _call_member, True),
    ("video_messages", "VideoMessages", _VIDEO_MESSAGE_COLUMNS, _video_message, True),
)

# Casefolded tables any of which marks a message store; not Messages, which a Facebook cache has too.
STORE_TABLES = frozenset(table.casefold() for _, table, *_ in _TABLE_READERS if table != "Messages")


def is_store(connection) -> bool:
    """Whether the open database is a message store, holding one of STORE_TABLES; any other is a Facebook cache."""
    return not STORE_TABLES.isdisjoint(table_names(connection))


def extract_main_db(connection, path, warnings: list[str] | None = None) -> Iterator:
    """Yield the records of every recognized table of the store open on connection as its rows are read.

    Tables come in _TABLE_READERS order, so the Accounts rows lead.  An
    absent table yields nothing but a warning; a database with none of the
    seven tables raises AllTablesMissing once all are looked up.  The
    caller keeps connection open until the last record is read or the
    iterator is closed; group_main_db gathers them into a SkypeDataset.
    """
    present = table_names(connection)
    for attr, wanted, columns, record, rowid in _TABLE_READERS:
        actual = present.get(wanted.casefold())
        if actual is None:
            warn(warnings, "table %s absent from %s" % (wanted, path))
        else:
            yield from read_table(connection, actual, path, EXTRACTOR_PREFIX, attr, columns, record, warnings, rowid)
    if present.keys().isdisjoint(table.casefold() for _, table, *_ in _TABLE_READERS):
        raise AllTablesMissing("none of the expected tables exist in %s" % path)


def group_main_db(records) -> SkypeDataset:
    """The records extract_main_db yields, each in the SkypeDataset field of its table.

    A record's provenance names its table's field: skype.<field>.
    """
    groups: dict[str, list] = {attr: [] for attr, *_ in _TABLE_READERS}
    for record in records:
        groups[record.provenance.extractor.removeprefix(EXTRACTOR_PREFIX + ".")].append(record)
    return SkypeDataset(**groups)
