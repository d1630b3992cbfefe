"""Deterministic evidence forge: ground-truth fixture trees for testing.

forge_fixture writes a small synthetic evidence tree (app cache databases,
Skype account state, a raw memory blob with planted documents, a packet
capture, a registry export, zone sidecars and a journal CSV) together with
a manifest recording exactly what was planted and the timeline the
extractors are expected to reconstruct.  The same seed always produces
byte-identical output.  The capture and registry-export writers live
here too: only fixtures need them, and the extractor modules only read.
"""

from __future__ import annotations

import csv
import io
import ipaddress
import json
import random
import sqlite3
import struct
from pathlib import Path

from . import carver, facebook, locator, pcap, regexport, sampledata as sd, skype, timeline
from .model import (
    Channel,
    ExtractionError,
    Provenance,
    TimelineEvent,
    ts_from_filetime_ticks,
    ts_from_iso_text,
    ts_from_unix,
)

__all__ = [
    "CAPTURE_NAME",
    "MEMORY_NAME",
    "NTFS_CSV_NAME",
    "OutputNotEmpty",
    "REGISTRY_NAME",
    "forge_fixture",
    "make_client_hello",
    "make_tcp_packet",
    "make_udp_packet",
    "relativize_events",
    "serialize_reg_export",
    "write_pcap",
]


class OutputNotEmpty(ExtractionError):
    """The forge refuses to write into a directory that has content."""


MEMORY_NAME = "memory.bin"
CAPTURE_NAME = "capture.pcap"
REGISTRY_NAME = "registry_export.reg"
NTFS_CSV_NAME = "ntfs_journal.csv"
MANIFEST_NAME = "manifest.json"

_PACKAGES = "Users/anonymous/AppData/Local/Packages"
FACEBOOK_DB_DIR = "%s/%s/LocalState/%s/DB" % (_PACKAGES, sd.FACEBOOK_PACKAGE_FAMILY, sd.OWNER_UID)
SKYPE_STATE_DIR = "%s/%s/LocalState" % (_PACKAGES, sd.SKYPE_PACKAGE_FAMILY)
SKYPE_ACCOUNT_DIR = "%s/%s" % (SKYPE_STATE_DIR, sd.SKYPE_OWNER)
DOWNLOADS_DIR = "Users/anonymous/Downloads"

ZONE_SIDECAR_BODY = b"[ZoneTransfer]\r\nZoneId=3\r\n"

_BASE_TS_US = 1421685000 * 10**6  # capture starts 2015-01-19T16:30:00Z


def _write_sqlite(path: Path, tables: dict[str, str], rows: dict[str, tuple]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    connection = sqlite3.connect(path)
    try:
        for ddl in tables.values():
            connection.execute(ddl)
        for table, table_rows in rows.items():
            for row in table_rows:
                columns = list(row)
                connection.execute(
                    'INSERT INTO "%s" (%s) VALUES (%s)'
                    % (table, ", ".join(columns), ", ".join("?" for _ in columns)),
                    tuple(row[c] for c in columns),
                )
        connection.commit()
    finally:
        connection.close()


def _db_provenance(rel_path: str, what: str) -> Provenance:
    return Provenance(rel_path, "facebook.%s" % what, Channel.DATABASE)


# ---------------------------------------------------------------------------
# Facebook cache tree


def _forge_facebook(root: Path):
    db_dir = root / FACEBOOK_DB_DIR
    analytics_rows = (sd.ANALYTICS_LOGIN_ROW,) + sd.ANALYTICS_EXTRA_ROWS
    friend_rows = (
        {
            "uid": sd.FRIEND_ROW["uid"],
            "first_name": sd.FRIEND_ROW["first_name"],
            "middle_name": None,
            "last_name": sd.FRIEND_ROW["last_name"],
            "name": sd.FRIEND_ROW["name"],
            "contact_email": sd.FRIEND_ROW["email"],
            "phones": "[]",
            "profile_url": sd.FRIEND_ROW["profile_url"],
            "communication_rank": sd.FRIEND_ROW["communication_rank"],
            "birthday": sd.FRIEND_ROW["birthday"],
        },
    )
    contents = {
        "Analytics.sqlite": {"analytics_logs": analytics_rows},
        "Friends.sqlite": {"friends": friend_rows},
        "FriendRequests.sqlite": {"friend_requests": ()},
        "Messages.sqlite": {"messages": sd.MESSAGE_ROWS, "users": sd.USERS_ROWS},
        "Notifications.sqlite": {"notifications": sd.NOTIFICATION_ROWS},
        "Stories.sqlite": {"stories": ()},
    }
    for filename, rows in contents.items():
        _write_sqlite(db_dir / filename, sd.FACEBOOK_DB_SCHEMA[filename], rows)

    records = []
    rel = FACEBOOK_DB_DIR + "/Analytics.sqlite"
    for row in analytics_rows:
        records.append(facebook.FbAnalyticsEvent(
            row_id=row["id"], when=ts_from_unix(row["time"], "millis"),
            log_type=row["log_type"], name=row["name"], module=row["module"],
            extra=row["extra"], provenance=_db_provenance(rel, "analytics")))
    rel = FACEBOOK_DB_DIR + "/Messages.sqlite"
    for row in sd.MESSAGE_ROWS:
        sender = json.loads(row["sender"])
        attachments = ()
        if row["attachments"] not in (None, "", "[]"):
            attachments = tuple(facebook.parse_fb_attachments(row["attachments"]))
        records.append(facebook.FbMessage(
            row_id=row["rowid"], mid=row["mid"], thread_id=row["tid"],
            body=row["body"], when=ts_from_unix(row["timestamp"], "millis"),
            sender_uid=sender.get("user_id"), sender_name=sender.get("name"),
            sender_email=sender.get("email"), sender_raw=row["sender"],
            tags=tuple(json.loads(row["tags"])), attachments=attachments,
            attachments_raw=row["attachments"],
            provenance=_db_provenance(rel, "messages")))
    rel = FACEBOOK_DB_DIR + "/Notifications.sqlite"
    for row in sd.NOTIFICATION_ROWS:
        records.append(facebook.FbNotification(
            notification_id=row["notification_id"], sender_id=row["sender_id"],
            title_text=row["title_text"], href=row["href"], unread_flag=row["unread"],
            created=ts_from_iso_text(row["created"]),
            updated=ts_from_iso_text(row["updated"]),
            provenance=_db_provenance(rel, "notifications")))

    manifest = {
        "owner_uid": sd.OWNER_UID,
        "db_dir": FACEBOOK_DB_DIR,
        "analytics_rows": [dict(r) for r in analytics_rows],
        "message_rows": [dict(r) for r in sd.MESSAGE_ROWS],
        "users_rows": [dict(r) for r in sd.USERS_ROWS],
        "friend_rows": [dict(r) for r in friend_rows],
        "notification_rows": [dict(r) for r in sd.NOTIFICATION_ROWS],
    }
    return manifest, records


# ---------------------------------------------------------------------------
# Skype LocalState tree


def _extra_skype_messages(rng: random.Random) -> list[dict]:
    """Seed-dependent filler chatter appended after the fixed conversation."""
    rows = []
    authors = (sd.SKYPE_PARTNER, sd.SKYPE_OWNER)
    dispnames = ("Adam Thomson", "Harold Cornwall")
    for index in range(rng.randrange(0, 5)):
        side = rng.randrange(2)
        rows.append({
            "id": 212 + index,
            "convo_id": 130,
            "chatname": sd.SKYPE_MESSAGE_ROWS[0]["chatname"],
            "author": authors[side],
            "from_dispname": dispnames[side],
            "timestamp": 1421686200 + 60 * index + rng.randrange(0, 50),
            "type": 61,
            "chatmsg_type": 3,
            "chatmsg_status": 2,
            "body_xml": "afterthought %d" % index,
            "participant_count": 2,
            "reason": None,
        })
    return rows


def _forge_skype(root: Path, rng: random.Random):
    message_rows = list(sd.SKYPE_MESSAGE_ROWS) + _extra_skype_messages(rng)
    tables = {
        "Accounts": (sd.SKYPE_ACCOUNT_ROW,),
        "Contacts": (sd.SKYPE_CONTACT_ECHO, sd.SKYPE_CONTACT_PROFILE, sd.SKYPE_CONTACT_PARTNER),
        "Messages": tuple(message_rows),
        "Transfers": sd.SKYPE_TRANSFER_ROWS,
        "Calls": sd.SKYPE_CALL_ROWS,
        "CallMembers": sd.SKYPE_CALLMEMBER_ROWS,
        "VideoMessages": (sd.SKYPE_VIDEOMESSAGE_ROW,),
    }
    main_db = root / SKYPE_ACCOUNT_DIR / "main.db"
    _write_sqlite(main_db, sd.MAIN_DB_SCHEMA, tables)
    (root / SKYPE_STATE_DIR / "shared.xml").write_bytes(sd.SHARED_XML_DOC)
    (root / SKYPE_ACCOUNT_DIR / "config.xml").write_bytes(sd.CONFIG_XML_DOC)
    (root / SKYPE_ACCOUNT_DIR / "ReceiveStorage").mkdir(parents=True, exist_ok=True)
    (root / SKYPE_ACCOUNT_DIR / "SendingStorage").mkdir(parents=True, exist_ok=True)

    rel = SKYPE_ACCOUNT_DIR + "/main.db"
    prov = lambda what: Provenance(rel, "skype.%s" % what, Channel.DATABASE)
    records = []
    for row in message_rows:
        records.append(skype.SkypeMessage(
            id=row["id"], convo_id=row["convo_id"], chatname=row["chatname"],
            author=row["author"], from_dispname=row["from_dispname"],
            when=ts_from_unix(row["timestamp"], "seconds"), type_code=row["type"],
            chatmsg_type=row["chatmsg_type"], chatmsg_status=row["chatmsg_status"],
            body_xml=row["body_xml"], participant_count=row["participant_count"],
            reason=row["reason"],
            kind=skype.classify_message(row["type"], participant_count=row["participant_count"]),
            provenance=prov("messages")))
    for row in sd.SKYPE_TRANSFER_ROWS:
        records.append(skype.SkypeTransfer(
            partner_handle=row["partner_handle"], partner_dispname=row["partner_dispname"],
            direction={1: "receiving", 2: "transferring"}.get(row["type"], "undetermined"),
            type_code=row["type"], status_code=row["status"],
            failure_reason=row["failurereason"],
            start=ts_from_unix(row["starttime"], "seconds"), finish=None,
            filepath=row["filepath"], filename=row["filename"],
            filesize=int(row["filesize"]), bytes_transferred=int(row["bytestransferred"]),
            provenance=prov("transfers")))
    for row in sd.SKYPE_CALL_ROWS:
        records.append(skype.SkypeCall(
            begin=ts_from_unix(row["begin_timestamp"], "seconds"),
            host_identity=row["host_identity"], duration_s=row["duration"],
            is_incoming=bool(row["is_incoming"]), name=row["name"],
            unseen_missed=bool(row["is_unseen_missed"]), provenance=prov("calls")))
    video = sd.SKYPE_VIDEOMESSAGE_ROW
    records.append(skype.SkypeVideoMessage(
        sid=video["sharing_id"], local_path=video["local_path"],
        vod_path=video["vod_path"], public_link=video["public_link"],
        author=video["author"], progress=video["progress"],
        creation_time=ts_from_unix(video["creation_timestamp"], "seconds"),
        reaction_time=ts_from_unix(video["reaction_timestamp"], "seconds"),
        status=video["status"], vod_status=video["vod_status"],
        provenance=prov("video_messages")))

    manifest = {
        "owner": sd.SKYPE_OWNER,
        "main_db": rel,
        "tables": {name: [dict(r) for r in rows] for name, rows in tables.items()},
        "shared_xml": {
            "path": SKYPE_STATE_DIR + "/shared.xml",
            "last_ip": "115.164.92.172",
            "listening_port": sd.SHARED_LISTENING_PORT,
            "supernode": sd.SHARED_SUPERNODE,
            "node_id": sd.SHARED_NODE_ID,
            "hostcache": [["111.221.77.158", 40022], ["65.55.223.24", 33033]],
        },
        "config_xml": {
            "path": SKYPE_ACCOUNT_DIR + "/config.xml",
            "serial": sd.CONFIG_SERIAL,
            "last_used": sd.CONFIG_LAST_USED,
            "contacts": list(sd.CONFIG_CONTACTS),
        },
    }
    return manifest, records


# ---------------------------------------------------------------------------
# Raw memory blob with planted documents


def _forge_memory(root: Path, rng: random.Random):
    straddle_doc = sd.CONFIG_XML_DOC
    blob_size = carver.DEFAULT_CHUNK_SIZE + 1024 * 1024 + rng.randrange(0, 65536)
    # One document sits across the default chunk boundary on purpose.
    straddle_offset = carver.DEFAULT_CHUNK_SIZE - len(straddle_doc) // 2
    plants = [("config-xml", straddle_doc, straddle_offset)]
    taken = [(straddle_offset, straddle_offset + len(straddle_doc))]
    wanted = [
        ("config-xml", sd.CONFIG_XML_DOC),
        ("shared-xml", sd.SHARED_XML_DOC),
        ("chat-json", sd.CHAT_PUSH_JSON.encode("utf-8")),
        ("payload-header", sd.PAYLOAD_HEADER_TEXT.encode("utf-8")),
    ]
    for kind, payload in wanted:
        while True:
            offset = rng.randrange(0, blob_size - len(payload))
            span = (offset, offset + len(payload))
            if all(span[1] + 16 <= lo or span[0] >= hi + 16 for lo, hi in taken):
                taken.append(span)
                plants.append((kind, payload, offset))
                break
    blob = bytearray(rng.randbytes(blob_size))
    for _, payload, offset in plants:
        blob[offset:offset + len(payload)] = payload
    (root / MEMORY_NAME).write_bytes(bytes(blob))

    chat_offset = next(off for kind, _, off in plants if kind == "chat-json")
    fragment = facebook.ChatFragment(
        offset=chat_offset, parsed=True, raw=sd.CHAT_PUSH_JSON.encode("utf-8"),
        provenance=Provenance(MEMORY_NAME, "facebook.chat_json", Channel.CARVED,
                              byte_offset=chat_offset),
        message=sd.CHAT_PUSH_MESSAGE, time_raw=sd.CHAT_PUSH_TIME,
        time=ts_from_unix(sd.CHAT_PUSH_TIME, "auto"),
        target_uid=sd.CORRESPONDENT_UID, sender_uid=sd.OWNER_UID,
        recipient_uid=sd.CORRESPONDENT_UID, thread_id=sd.MESSAGE_THREAD_ID)

    keyword_hits = []
    for term in carver.DEFAULT_TERMS:
        for kind, payload, offset in plants:
            at = payload.find(term)
            while at != -1:
                keyword_hits.append({"term": term.decode("latin-1"), "offset": offset + at})
                at = payload.find(term, at + 1)
    keyword_hits.sort(key=lambda hit: hit["offset"])

    manifest = {
        "path": MEMORY_NAME,
        "size": blob_size,
        "plants": [
            {"kind": kind, "offset": offset, "length": len(payload),
             "sha256": carver.CarvedObject(kind, offset, payload).sha256()}
            for kind, payload, offset in sorted(plants, key=lambda p: p[2])
        ],
        "keyword_hits": keyword_hits,
        "chat_fragment_offset": chat_offset,
    }
    return manifest, [fragment]


# ---------------------------------------------------------------------------
# Packet capture


def _ipv4_header(src_ip: str, dst_ip: str, protocol: int, payload_len: int) -> bytes:
    return struct.pack(
        ">BBHHHBBH4s4s",
        0x45, 0, 20 + payload_len, 0, 0, 64, protocol, 0,
        ipaddress.IPv4Address(src_ip).packed,
        ipaddress.IPv4Address(dst_ip).packed,
    )


def _frame(src_ip, dst_ip, protocol, transport: bytes) -> bytes:
    ethernet = b"\x02" * 6 + b"\x04" * 6 + b"\x08\x00"
    return ethernet + _ipv4_header(src_ip, dst_ip, protocol, len(transport)) + transport


def make_tcp_packet(src_ip, src_port, dst_ip, dst_port, payload: bytes = b"") -> bytes:
    transport = struct.pack(">HHIIBBHHH", src_port, dst_port, 0, 0, 5 << 4, 0x18, 8192, 0, 0) + payload
    return _frame(src_ip, dst_ip, 6, transport)


def make_udp_packet(src_ip, src_port, dst_ip, dst_port, payload: bytes = b"") -> bytes:
    transport = struct.pack(">HHHH", src_port, dst_port, 8 + len(payload), 0) + payload
    return _frame(src_ip, dst_ip, 17, transport)


def make_client_hello(server_name: str | None) -> bytes:
    """A minimal TLS ClientHello, optionally carrying a server name."""
    extensions = b""
    if server_name is not None:
        name = server_name.encode("ascii")
        entry = struct.pack(">BH", 0, len(name)) + name
        sni_list = struct.pack(">H", len(entry)) + entry
        extensions = struct.pack(">HH", 0, len(sni_list)) + sni_list
    body = struct.pack(">H", 0x0303) + bytes(32)  # version + random
    body += b"\x00"  # empty session id
    body += struct.pack(">H", 2) + b"\x13\x01"  # one cipher suite
    body += b"\x01\x00"  # null compression
    body += struct.pack(">H", len(extensions)) + extensions
    handshake = b"\x01" + len(body).to_bytes(3, "big") + body
    return b"\x16\x03\x01" + struct.pack(">H", len(handshake)) + handshake


def write_pcap(destination, frames, byte_swapped: bool = False, nanosecond: bool = False) -> bytes:
    """Write (ts_us, frame_bytes) pairs as a classic pcap capture.

    destination is a path, or None to just get the bytes back.
    """
    order = ">" if byte_swapped else "<"
    magic = pcap.MAGIC_NS if nanosecond else pcap.MAGIC_US
    out = bytearray()
    out += struct.pack(order + "IHHiIII", magic, 2, 4, 0, 0, 0x40000, pcap.LINKTYPE_ETHERNET)
    for ts_us, frame in frames:
        frac = (ts_us % 1_000_000) * (1000 if nanosecond else 1)
        out += struct.pack(order + "IIII", ts_us // 1_000_000, frac, len(frame), len(frame))
        out += frame
    data = bytes(out)
    if destination is not None:
        Path(destination).write_bytes(data)
    return data


class _FlowTally:
    """Ground-truth flow bookkeeping while frames are generated."""

    def __init__(self, proto, first, second):
        self.proto = proto
        self.endpoint_a, self.endpoint_b = (first, second) if first <= second else (second, first)
        self.packets = {True: 0, False: 0}
        self.bytes = {True: 0, False: 0}
        self.first_ts_us = None
        self.last_ts_us = None
        self.sni = None

    def add(self, src, ts_us, payload_len):
        from_a = src == self.endpoint_a
        header = 20 if self.proto == "tcp" else 8
        self.packets[from_a] += 1
        self.bytes[from_a] += header + payload_len
        if self.first_ts_us is None:
            self.first_ts_us = ts_us
        self.last_ts_us = ts_us

    def flow(self) -> pcap.Flow:
        return pcap.Flow(
            proto=self.proto, endpoint_a=self.endpoint_a, endpoint_b=self.endpoint_b,
            packets_ab=self.packets[True], packets_ba=self.packets[False],
            bytes_ab=self.bytes[True], bytes_ba=self.bytes[False],
            first_ts_us=self.first_ts_us, last_ts_us=self.last_ts_us, sni=self.sni)


def _forge_capture(root: Path, rng: random.Random):
    specs = [
        {"server": (sd.FACEBOOK_CHAT_IP, 443), "proto": "tcp",
         "sni": sd.FACEBOOK_CHAT_HOST, "label": "FacebookChat"},
        {"server": ("31.13.70.1", 443), "proto": "tcp", "label": "FacebookUpload"},
        {"server": ("65.55.223.24", sd.SUPERNODE_LOOKUP_PORT), "proto": "tcp",
         "label": "SkypeSupernodeLookup"},
        {"server": ("91.190.216.%d" % rng.randrange(1, 250), 443), "proto": "tcp",
         "label": "SkypeRst"},
    ]
    for index in range(rng.randrange(3, 9)):
        specs.append({
            "server": ("10.%d.%d.%d" % (rng.randrange(256), rng.randrange(256), rng.randrange(1, 255)),
                       rng.randrange(1024, 30000)),
            "proto": rng.choice(("tcp", "udp")),
            "label": "Other",
        })

    frames = []
    flows = []
    expected = []
    t_us = _BASE_TS_US
    client_port = 49200
    for spec in specs:
        client = (sd.LOCAL_CLIENT_IP, client_port)
        client_port += 1
        tally = _FlowTally(spec["proto"], client, spec["server"])
        payloads = []
        if spec.get("sni"):
            payloads.append(make_client_hello(spec["sni"]))
            tally.sni = spec["sni"]
        for _ in range(rng.randrange(2, 6)):
            payload = bytearray(rng.randbytes(rng.randrange(16, 400)))
            # never let filler open like a TLS handshake record
            if payload[0] == 0x16:
                payload[0] = 0x17
            payloads.append(bytes(payload))
        for index, payload in enumerate(payloads):
            src, dst = (client, spec["server"]) if index % 2 == 0 else (spec["server"], client)
            t_us += rng.randrange(1000, 250000)
            maker = make_tcp_packet if spec["proto"] == "tcp" else make_udp_packet
            frames.append((t_us, maker(src[0], src[1], dst[0], dst[1], payload)))
            tally.add(src, t_us, len(payload))
        flow = tally.flow()
        label = pcap.label_flow(flow)
        if label.label != spec["label"]:
            raise RuntimeError("forged flow mislabeled: wanted %s got %s"
                               % (spec["label"], label.label))
        flows.append((flow, label))
        expected.append(flow)
    write_pcap(root / CAPTURE_NAME, frames)

    manifest = {
        "path": CAPTURE_NAME,
        "frame_count": len(frames),
        "flows": [
            {
                "proto": flow.proto,
                "endpoint_a": [flow.endpoint_a[0], flow.endpoint_a[1]],
                "endpoint_b": [flow.endpoint_b[0], flow.endpoint_b[1]],
                "packets_ab": flow.packets_ab, "packets_ba": flow.packets_ba,
                "bytes_ab": flow.bytes_ab, "bytes_ba": flow.bytes_ba,
                "first_ts_us": flow.first_ts_us, "last_ts_us": flow.last_ts_us,
                "sni": flow.sni, "label": label.label, "basis": label.basis,
            }
            for flow, label in flows
        ],
    }
    return manifest, expected


# ---------------------------------------------------------------------------
# Registry export, sidecars, journal CSV


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _wrap_hex(prefix: str, data: bytes, width: int = 76) -> list[str]:
    tokens = ["%02x" % b for b in data]
    lines = []
    current = prefix
    for index, token in enumerate(tokens):
        piece = token + ("," if index < len(tokens) - 1 else "")
        if len(current) + len(piece) > width and current not in (prefix, "  "):
            lines.append(current + "\\")
            current = "  "
        current += piece
    lines.append(current)
    return lines


def serialize_reg_export(export: regexport.RegExport) -> str:
    """Write an export back out in the 5.00 dialect.

    Round-trips with regexport.parse_reg_export: structure is preserved
    exactly, whitespace normalized.
    """
    out = [regexport.HEADER_50, ""]
    for key, values in export.keys.items():
        out.append("[%s]" % key)
        for value in values:
            name = "@" if value.name == "@" else '"%s"' % _escape(value.name)
            if value.kind == "string":
                out.append('%s="%s"' % (name, _escape(value.data)))
            elif value.kind == "dword":
                out.append("%s=dword:%08x" % (name, value.data))
            else:
                tag = "hex(b):" if value.kind == "qword" else "hex:"
                out.extend(_wrap_hex("%s=%s" % (name, tag), value.data))
        out.append("")
    return "\n".join(out) + "\n"


def _ticks_value(name: str, ticks: int) -> regexport.RegValue:
    return regexport.RegValue(name, "qword", ticks.to_bytes(8, "little"))


def _forge_registry(root: Path):
    export = regexport.RegExport()
    fb_family_key = sd.REPOSITORY_BRANCH + "\\" + sd.FACEBOOK_PACKAGE_FAMILY
    fb_key = fb_family_key + "\\" + sd.FACEBOOK_PACKAGE_FULL
    skype_family_key = sd.REPOSITORY_BRANCH + "\\" + sd.SKYPE_PACKAGE_FAMILY
    skype_key = skype_family_key + "\\" + sd.SKYPE_PACKAGE_FULL
    export.keys[fb_family_key] = []
    export.keys[fb_key] = [
        regexport.RegValue("PackageID", "string", sd.FACEBOOK_PACKAGE_FULL),
        _ticks_value("InstallTime", sd.FACEBOOK_INSTALL_TICKS),
    ]
    export.keys[skype_family_key] = []
    export.keys[skype_key] = [
        regexport.RegValue("PackageID", "string", sd.SKYPE_PACKAGE_FULL),
        _ticks_value("InstallTime", sd.INSTALL_TIME_TICKS),
        regexport.RegValue("Flags", "dword", 2),
    ]
    for item in sd.PERSISTED_ITEMS:
        export.keys[sd.PERSISTED_BRANCH + "\\" + item["guid"]] = [
            regexport.RegValue("FilePath", "string", item["file_path"]),
            _ticks_value("LastUpdatedTime", item["last_updated_ticks"]),
        ]
    text = serialize_reg_export(export)
    # Real 5.00 exports are UTF-16LE with a BOM; the parser sniffs it.
    (root / REGISTRY_NAME).write_bytes(("﻿" + text).encode("utf-16-le"))

    prov_install = Provenance(REGISTRY_NAME, "regexport.install_time", Channel.REGISTRY)
    prov_items = Provenance(REGISTRY_NAME, "regexport.persisted_items", Channel.REGISTRY)
    records = [
        regexport.InstallRecord(
            package=locator.parse_package_id(sd.FACEBOOK_PACKAGE_FULL),
            install_time=ts_from_filetime_ticks(sd.FACEBOOK_INSTALL_TICKS),
            key_path=fb_key, interpretation="little-endian-binary",
            provenance=prov_install),
        regexport.InstallRecord(
            package=locator.parse_package_id(sd.SKYPE_PACKAGE_FULL),
            install_time=ts_from_filetime_ticks(sd.INSTALL_TIME_TICKS),
            key_path=skype_key, interpretation="little-endian-binary",
            provenance=prov_install),
    ]
    for item in sd.PERSISTED_ITEMS:
        records.append(regexport.PersistedItem(
            guid=item["guid"], file_path=item["file_path"],
            last_updated=ts_from_filetime_ticks(item["last_updated_ticks"]),
            interpretation="little-endian-binary",
            key_path=sd.PERSISTED_BRANCH + "\\" + item["guid"],
            provenance=prov_items))

    manifest = {
        "path": REGISTRY_NAME,
        "installs": [
            {"package": sd.FACEBOOK_PACKAGE_FULL, "ticks": sd.FACEBOOK_INSTALL_TICKS},
            {"package": sd.SKYPE_PACKAGE_FULL, "ticks": sd.INSTALL_TIME_TICKS},
        ],
        "persisted": [dict(item) for item in sd.PERSISTED_ITEMS],
    }
    return manifest, records


def _forge_downloads(root: Path):
    downloads = root / DOWNLOADS_DIR
    downloads.mkdir(parents=True, exist_ok=True)
    received = root / SKYPE_ACCOUNT_DIR / "ReceiveStorage"
    files = [
        (downloads / "VictimToSuspect.txt", b"notes the victim sent back\r\n",
         downloads / "VictimToSuspect.txt:Zone.Identifier"),
        (received / "VictimToSuspect.pdf", b"%PDF-1.4 placeholder\r\n",
         received / "VictimToSuspect.pdf.Zone.Identifier"),
    ]
    sidecars = []
    for target, body, sidecar in files:
        target.write_bytes(body)
        sidecar.write_bytes(ZONE_SIDECAR_BODY)
        sidecars.append({
            "path": sidecar.relative_to(root).as_posix(),
            "target": target.relative_to(root).as_posix(),
            "zone_id": 3,
        })
    return {"sidecars": sidecars}


def _forge_ntfs_csv(root: Path):
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(sd.NTFS_CSV_HEADER)
    writer.writerows(sd.NTFS_CSV_ROWS)
    text = buffer.getvalue()
    (root / NTFS_CSV_NAME).write_text(text, encoding="utf-8", newline="")
    warnings: list[str] = []
    events = timeline.ingest_ntfs_csv(text, warnings, evidence_path=NTFS_CSV_NAME)
    manifest = {
        "path": NTFS_CSV_NAME,
        "rows": [list(row) for row in sd.NTFS_CSV_ROWS],
    }
    return manifest, events, warnings


# ---------------------------------------------------------------------------
# Entry points


def forge_fixture(seed: int, out) -> dict:
    """Write the evidence tree and manifest.json; returns the manifest."""
    root = Path(out)
    if root.exists() and any(root.iterdir()):
        raise OutputNotEmpty("output directory %s is not empty" % root)
    root.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)

    fb_manifest, records = _forge_facebook(root)
    skype_manifest, skype_records = _forge_skype(root, rng)
    memory_manifest, memory_records = _forge_memory(root, rng)
    capture_manifest, flow_records = _forge_capture(root, rng)
    registry_manifest, registry_records = _forge_registry(root)
    downloads_manifest = _forge_downloads(root)
    csv_manifest, journal_events, warnings = _forge_ntfs_csv(root)

    records += skype_records + memory_records + registry_records + flow_records
    events = timeline.normalize(
        records, fb_owner_uid=sd.OWNER_UID, skype_owner=sd.SKYPE_OWNER,
        capture_path=CAPTURE_NAME, warnings=warnings)
    events += journal_events
    report = timeline.build_report(events, warnings, generated_at="1970-01-01T00:00:00Z")
    expected = [json.loads(line) for line in
                timeline.emit(report, "jsonl").decode("utf-8").splitlines()]

    manifest = {
        "seed": seed,
        "facebook": fb_manifest,
        "skype": skype_manifest,
        "memory": memory_manifest,
        "capture": capture_manifest,
        "registry": registry_manifest,
        "downloads": downloads_manifest,
        "ntfs_csv": csv_manifest,
        "expected_timeline": expected,
    }
    (root / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return manifest


def relativize_events(events, root) -> list[TimelineEvent]:
    """Rewrite evidence paths under root as forward-slash relative paths.

    Each distinct path is resolved, and each distinct provenance
    rewritten, once per call; a path that does not resolve under root
    leaves its events as they are.
    """
    base = Path(root).resolve()
    relative: dict[str, str | None] = {}
    rewritten: dict[Provenance, Provenance | None] = {}
    out = []
    for event in events:
        provenance = event.provenance
        try:
            new = rewritten[provenance]
        except KeyError:
            path = provenance.evidence_path
            if path not in relative:
                try:
                    relative[path] = Path(path).resolve().relative_to(base).as_posix()
                except (ValueError, OSError):
                    relative[path] = None
            rel = relative[path]
            new = rewritten[provenance] = None if rel is None else Provenance(
                rel, provenance.extractor, provenance.channel, provenance.byte_offset)
        if new is None:
            out.append(event)
            continue
        out.append(TimelineEvent(event.when, event.kind, event.app, event.summary, new,
                                 event.actor, event.counterpart, event.duplicates))
    return out
