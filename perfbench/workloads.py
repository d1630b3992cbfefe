"""Deterministic scaled evidence trees for the pipeline benchmark.

Every workload starts from ``forge.forge_fixture(seed)`` and then grows the
part of the tree it is meant to stress.  Grown parts are written with the
standard library only (``sqlite3``, ``csv``, ``struct``, ``random`` and
plain ``.reg`` text), never with the package's own writer helpers, so the
output oracle shares no code with the program under test.

``build`` returns a ledger of what was planted: the event counts per
(app, kind) the run must produce, flows per expected label, the byte
offsets of planted chat fragments, and the input sizes.
"""

from __future__ import annotations

import csv
import json
import random
import sqlite3
import struct
from datetime import datetime, timezone
from pathlib import Path

from imartifacts import forge, sampledata as sd

WORKLOADS = ("app-stores", "capture-registry", "memory-image")

# Input sizes per workload.  They are constants, not options: every run of
# a workload measures the same amount of work, whatever the seed.
SIZES = {
    "app-stores": {
        "skype_messages": 6000,
        "skype_calls": 300,
        "skype_transfers": 200,
        "fb_messages": 3000,
        "fb_notifications": 800,
        "journal_rows": 1200,
    },
    "capture-registry": {
        "flows": 5000,
        "package_keys": 600,
        "persisted_items": 200,
    },
    "memory-image": {
        "blob_mib": 256,  # per file, two files
        "fragments": 3000,
        "nested_share": 0.25,
    },
}

# Command line per workload, after the program name.  ``{tree}`` is the
# evidence root and ``{files}`` every regular file under it; ``{out}`` is
# the output file.
COMMANDS = {
    "app-stores": ["report", "{tree}", "--format", "jsonl", "--out", "{out}"],
    "capture-registry": ["timeline", "{files}", "--format", "csv", "--out", "{out}"],
    "memory-image": ["report", "{tree}", "--format", "jsonl", "--out", "{out}"],
}

SKYPE_OWNER = sd.SKYPE_OWNER
FB_OWNER = sd.OWNER_UID

# Expected label of each planted flow, written down from the documented
# endpoint catalog rather than computed by the labeler under test.
SNI_HOSTS = {
    "5-edge-chat.facebook.com": "FacebookChat",
    "orcart.facebook.com": "FacebookCore",
    "scontent.xx.fbcdn.net": "FacebookCdnDownload",
    "rstwh.skype-cr.akadns.net": "SkypeRst",
    "ocsp.globalsign.com": "GlobalSignOcsp",
    "m.hotmail.com": "MicrosoftLive",
}
CATALOG_IPS = {
    "31.13.76.102": "FacebookChat",
    "31.13.79.246": "FacebookChat",
    "31.13.70.1": "FacebookUpload",
    "173.252.103.16": "FacebookCore",
    "173.252.120.6": "FacebookCore",
    "31.13.70.7": "FacebookCdnDownload",
    "23.58.43.27": "SymantecOcsp",
    "23.62.109.216": "AkamaiCdn",
    "108.162.232.204": "GlobalSignOcsp",
    "192.229.145.200": "EdgeCastCrl",
    "65.54.184.60": "MicrosoftLive",
    "168.63.212.78": "MicrosoftLive",
}
LABEL_APPS = {
    "FacebookChat": "facebook",
    "FacebookUpload": "facebook",
    "FacebookCdnDownload": "facebook",
    "FacebookCore": "facebook",
    "SkypeRst": "skype",
    "SkypeSupernodeLookup": "skype",
}
# Share of planted flows per label basis.
FLOW_MIX = (("sni", 0.10), ("exact_ip", 0.20), ("cidr", 0.20), ("port", 0.10), ("unmatched", 0.40))
SUPERNODE_PORT = 33033

_BASE_EPOCH = 1421600000  # 2015-01-18T16:53:20Z
_WORDS = (
    "documents", "tonight", "meeting", "photos", "address", "transfer", "invoice", "call",
    "later", "thanks", "archive", "password", "holiday", "report", "account", "delivery",
)


def _text(rng: random.Random, long: bool) -> str:
    """A message body; long ones exceed the 80-character summary width."""
    count = rng.randrange(16, 30) if long else rng.randrange(2, 6)
    return " ".join(rng.choice(_WORDS) for _ in range(count))


def _add(counts: dict, app: str, kind: str, n: int = 1) -> None:
    key = "%s|%s" % (app, kind)
    counts[key] = counts.get(key, 0) + n


def _connect(path: Path) -> sqlite3.Connection:
    connection = sqlite3.connect(path)
    connection.execute("PRAGMA synchronous = OFF")  # the whole tree is synced after set-up
    return connection


def _insert(connection: sqlite3.Connection, table: str, rows: list[dict]) -> None:
    columns = list(rows[0])
    connection.executemany(
        'INSERT INTO "%s" (%s) VALUES (%s)' % (table, ", ".join(columns), ", ".join("?" * len(columns))),
        [tuple(row[c] for c in columns) for row in rows],
    )


# ---------------------------------------------------------------------------
# app-stores: message stores, notifications and a longer journal


def _grow_skype(root: Path, rng: random.Random, size: dict, counts: dict) -> int:
    partners = ["partner.%02d" % index for index in range(24)]
    chats = {p: "#%s/$%s;%08x" % (p, SKYPE_OWNER, rng.getrandbits(32)) for p in partners}
    messages = []
    when = _BASE_EPOCH
    for index in range(size["skype_messages"]):
        partner = rng.choice(partners)
        author = SKYPE_OWNER if rng.random() < 0.5 else partner
        when += rng.randrange(1, 120)
        roll = rng.random()
        reason = None
        if roll < 0.05:
            type_code, chatmsg_type = 68, 7
            files = "".join(
                '<file size="%d" index="%d" tid="%d">%s_%d.%s</file>'
                % (rng.randrange(100, 10**7), n, rng.getrandbits(31), rng.choice(_WORDS), index,
                   rng.choice(("pdf", "docx", "jpg", "zip")))
                for n in range(rng.randrange(1, 5)))
            body = '<files alt="">%s</files>' % files
            counts_kind = ("skype", "FileTransfer")
        elif roll < 0.08:
            started = rng.random() < 0.5
            type_code, chatmsg_type = (30, 18) if started else (39, 18)
            body = ('<partlist type="%s" alt=""><part identity="%s"><name>%s</name></part>'
                    '<part identity="%s"><name>Owner</name></part></partlist>'
                    % ("started" if started else "ended", partner, partner, SKYPE_OWNER))
            if not started:
                reason = rng.choice(("no_answer", "busy", None))
            counts_kind = ("skype", "CallStart" if started else "CallEnd")
        else:
            type_code, chatmsg_type = 61, 3
            body = _text(rng, long=rng.random() < 0.4)
            counts_kind = ("skype", "MessageSent" if author == SKYPE_OWNER else "MessageReceived")
        messages.append({
            "id": 10000 + index, "convo_id": 500 + partners.index(partner),
            "chatname": chats[partner], "author": author,
            "from_dispname": "Owner" if author == SKYPE_OWNER else partner.title(),
            "timestamp": when, "type": type_code, "chatmsg_type": chatmsg_type,
            "chatmsg_status": 2, "body_xml": body, "participant_count": 2, "reason": reason,
        })
        _add(counts, *counts_kind)

    calls = []
    for index in range(size["skype_calls"]):
        partner = rng.choice(partners)
        begin = _BASE_EPOCH + rng.randrange(0, 40 * 86400)
        duration = rng.randrange(1, 3600) if rng.random() < 0.7 else None
        incoming = rng.randrange(2)
        calls.append({
            "begin_timestamp": begin, "host_identity": partner if incoming else SKYPE_OWNER,
            "duration": duration, "is_incoming": incoming, "name": "8-%d" % begin,
            "is_unseen_missed": 1 if duration is None else 0,
        })
        _add(counts, "skype", "CallStart")
        if duration is not None:
            _add(counts, "skype", "CallEnd")

    transfers = []
    for index in range(size["skype_transfers"]):
        partner = rng.choice(partners)
        type_code = rng.choice((1, 2))
        name = "%s_%d.%s" % (rng.choice(_WORDS), index, rng.choice(("pdf", "docx", "jpg", "zip")))
        filesize = rng.randrange(100, 10**7)
        transfers.append({
            "type": type_code, "partner_handle": partner, "partner_dispname": partner.title(),
            "status": 8, "failurereason": None,
            "starttime": _BASE_EPOCH + rng.randrange(0, 40 * 86400), "finishtime": 0,
            "filepath": "C:\\Users\\anonymous\\Documents\\" + name, "filename": name,
            "filesize": str(filesize), "bytestransferred": str(filesize),
        })
        _add(counts, "skype", "FileDownload" if type_code == 1 else "FileTransfer")

    connection = _connect(root / forge.SKYPE_ACCOUNT_DIR / "main.db")
    try:
        _insert(connection, "Messages", messages)
        _insert(connection, "Calls", calls)
        _insert(connection, "Transfers", transfers)
        connection.commit()
    finally:
        connection.close()
    return len(messages) + len(calls) + len(transfers)


def _grow_facebook(root: Path, rng: random.Random, size: dict, counts: dict) -> int:
    db_dir = root / forge.FACEBOOK_DB_DIR
    partners = [str(100005000000000 + rng.randrange(10**9)) for _ in range(16)]
    owner_sender = json.dumps({"email": "owner@example.com", "user_id": FB_OWNER, "name": "Owner"})
    messages = []
    when_ms = _BASE_EPOCH * 1000
    for index in range(size["fb_messages"]):
        when_ms += rng.randrange(1000, 90000)
        sent = rng.random() < 0.5
        partner = rng.choice(partners)
        if sent:
            sender, tags = owner_sender, '["inbox", "read", "sent", "source:chat"]'
            _add(counts, "facebook", "MessageSent")
        else:
            sender = json.dumps({"email": "", "user_id": partner, "name": "Friend %s" % partner[-4:]})
            tags = '["inbox", "read", "source:chat"]'
            _add(counts, "facebook", "MessageReceived")
        messages.append({
            "mid": "mid.%d:%016x" % (when_ms, rng.getrandbits(64)), "tid": "t_%s" % partner,
            "body": _text(rng, long=rng.random() < 0.4), "sender": sender, "timestamp": when_ms,
            "tags": tags, "attachments": sd.ATTACHMENTS_JSON if rng.random() < 0.05 else "[]",
        })

    notifications = []
    for index in range(size["fb_notifications"]):
        instant = datetime.fromtimestamp(_BASE_EPOCH + rng.randrange(0, 40 * 86400), timezone.utc)
        created = (instant.strftime("%Y-%m-%d %H:%M:%S") if rng.random() < 0.5
                   else instant.strftime("%Y-%m-%dT%H:%M:%S") + ".%03d" % rng.randrange(1000))
        notifications.append({
            "notification_id": "notif_%s_%d" % (FB_OWNER, 5000 + index),
            "sender_id": rng.choice(partners),
            "title_text": "Friend commented: %s" % _text(rng, long=rng.random() < 0.3),
            "href": "https://www.facebook.com/photo.php?fbid=%d" % rng.getrandbits(40),
            "unread": rng.randrange(2), "created": created, "updated": created,
        })
        _add(counts, "facebook", "Notification")

    for filename, table, rows in (("Messages.sqlite", "messages", messages),
                                  ("Notifications.sqlite", "notifications", notifications)):
        connection = _connect(db_dir / filename)
        try:
            _insert(connection, table, rows)
            connection.commit()
        finally:
            connection.close()
    return len(messages) + len(notifications)


def _grow_journal(root: Path, rng: random.Random, size: dict, counts: dict) -> int:
    events = ("File Creation", "Data Extend", "Data Overwrite", "Moving After", "Basic Info Change")
    with open(root / forge.NTFS_CSV_NAME, "a", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        lsn = 280000000
        seconds = 11 * 3600
        for index in range(size["journal_rows"]):
            lsn += rng.randrange(8, 4000)
            seconds += rng.randrange(0, 3)
            name = "%s_%d.%s" % (rng.choice(_WORDS), index % 300, rng.choice(("txt", "docx", "tmp")))
            writer.writerow([lsn, "2015-01-23 %02d:%02d:%02d" % (seconds // 3600 % 24, seconds // 60 % 60,
                                                               seconds % 60),
                             rng.choice(events), "", name, "Users\\anonymous\\Documents\\" + name])
            _add(counts, "other", "FsJournal")
    return size["journal_rows"]


# ---------------------------------------------------------------------------
# capture-registry: many short flows and a large registry export


def _ipv4(text: str) -> bytes:
    return bytes(int(part) for part in text.split("."))


def _frame(proto: str, src: tuple, dst: tuple, payload: bytes) -> bytes:
    if proto == "tcp":
        transport = struct.pack(">HHIIBBHHH", src[1], dst[1], 1, 1, 0x50, 0x18, 65535, 0, 0)
        number = 6
    else:
        transport = struct.pack(">HHHH", src[1], dst[1], 8 + len(payload), 0)
        number = 17
    transport += payload
    ip = struct.pack(">BBHHHBBH4s4s", 0x45, 0, 20 + len(transport), 0, 0x4000, 64, number, 0,
                     _ipv4(src[0]), _ipv4(dst[0]))
    return b"\x00\x1c\x42\x00\x00\x01\x00\x1c\x42\x00\x00\x02\x08\x00" + ip + transport


def _tls_client_hello(rng: random.Random, host: str) -> bytes:
    """A TLS 1.2 ClientHello whose second extension is server_name."""
    name = host.encode("ascii")
    server_name = struct.pack(">HBH", len(name) + 3, 0, len(name)) + name
    groups = struct.pack(">HH", 4, 0x001D) + struct.pack(">H", 0x0017)
    extensions = (struct.pack(">HH", 0x000A, len(groups)) + groups
                  + struct.pack(">HH", 0x0000, len(server_name)) + server_name)
    suites = b"\xc0\x2b\xc0\x2f\x00\x9e"
    hello = (b"\x03\x03" + rng.randbytes(32) + b"\x20" + rng.randbytes(32)
             + struct.pack(">H", len(suites)) + suites + b"\x01\x00"
             + struct.pack(">H", len(extensions)) + extensions)
    handshake = b"\x01" + len(hello).to_bytes(3, "big") + hello
    return b"\x16\x03\x01" + struct.pack(">H", len(handshake)) + handshake


def _filler(rng: random.Random) -> bytes:
    payload = bytearray(rng.randbytes(rng.randrange(16, 400)))
    if payload[0] == 0x16:  # never open like a TLS handshake record
        payload[0] = 0x17
    return bytes(payload)


def _grow_capture(root: Path, rng: random.Random, size: dict, counts: dict, labels: dict) -> dict:
    bases = [basis for basis, share in FLOW_MIX for _ in range(round(share * size["flows"]))]
    rng.shuffle(bases)
    records = []
    t_us = (_BASE_EPOCH + 86400) * 10**6
    packets = 0
    for index, basis in enumerate(bases):
        client = ("192.168.77.%d" % (2 + index // 40000), 20000 + index % 40000)
        proto = "tcp"
        sni = None
        if basis == "sni":
            sni = rng.choice(sorted(SNI_HOSTS))
            server = ("100.64.%d.%d" % (rng.randrange(256), rng.randrange(1, 255)), 443)
            label = SNI_HOSTS[sni]
        elif basis == "exact_ip":
            ip = rng.choice(sorted(CATALOG_IPS))
            server = (ip, rng.choice((443, 80)))
            label = CATALOG_IPS[ip]
        elif basis == "cidr":
            server = ("91.190.%d.%d" % (rng.choice((216, 218)), rng.randrange(1, 255)), rng.choice((443, 80)))
            proto = rng.choice(("tcp", "udp"))
            label = "SkypeRst"
        elif basis == "port":
            server = ("157.56.%d.%d" % (rng.randrange(256), rng.randrange(1, 255)), SUPERNODE_PORT)
            label = "SkypeSupernodeLookup"
        else:
            server = ("10.%d.%d.%d" % (rng.randrange(256), rng.randrange(256), rng.randrange(1, 255)),
                      rng.randrange(1024, 30000))
            proto = rng.choice(("tcp", "udp"))
            label = "Other"
        payloads = [_tls_client_hello(rng, sni)] if sni else []
        payloads += [_filler(rng) for _ in range(rng.randrange(3, 7) - len(payloads))]
        for turn, payload in enumerate(payloads):
            t_us += rng.randrange(200, 20000)
            src, dst = (client, server) if turn % 2 == 0 else (server, client)
            frame = _frame(proto, src, dst, payload)
            records.append(struct.pack("<IIII", t_us // 10**6, t_us % 10**6, len(frame), len(frame)) + frame)
        packets += len(payloads)
        labels[label] = labels.get(label, 0) + 1
        _add(counts, LABEL_APPS.get(label, "other"), "NetworkSession")
    with open(root / "capture-bulk.pcap", "wb") as handle:
        handle.write(struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1))
        handle.write(b"".join(records))
    return {"flows": len(bases), "packets": packets}


def _filetime_le(rng: random.Random) -> bytes:
    """Little-endian FILETIME bytes whose byte-swapped reading is implausible.

    A millisecond count divisible by 16 makes the low tick byte zero, so the
    swapped reading lands before 2000 and only one reading is plausible.
    """
    millis = (_BASE_EPOCH - rng.randrange(0, 400 * 86400)) * 1000 + 16 * rng.randrange(62)
    return (millis * 10**4 + 116444736000000000).to_bytes(8, "little")


def _reg_hex(raw: bytes) -> str:
    return ",".join("%02x" % b for b in raw)


def _grow_registry(root: Path, rng: random.Random, size: dict, counts: dict) -> dict:
    branch = sd.REPOSITORY_BRANCH
    lines = ["Windows Registry Editor Version 5.00", ""]
    for index in range(size["package_keys"]):
        publisher = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz0123456789") for _ in range(13))
        name = "Bench.App%04d" % index
        family = "%s_%s" % (name, publisher)
        full = "%s_%d.%d.%d.0_%s__%s" % (name, rng.randrange(1, 9), rng.randrange(20), rng.randrange(9999),
                                        rng.choice(("x64", "x86", "neutral")), publisher)
        lines += ["[%s\\%s]" % (branch, family), "",
                  "[%s\\%s\\%s]" % (branch, family, full),
                  '"PackageID"="%s"' % full,
                  '"InstallTime"=hex(b):%s' % _reg_hex(_filetime_le(rng)),
                  '"Flags"=dword:%08x' % rng.randrange(16), ""]
        _add(counts, "other", "AppInstall")
    for index in range(size["persisted_items"]):
        guid = "{%08X-%04X-%04X-%04X-%012X}" % (rng.getrandbits(32), rng.getrandbits(16), rng.getrandbits(16),
                                                rng.getrandbits(16), rng.getrandbits(48))
        path = "C:\\\\Users\\\\anonymous\\\\Documents\\\\%s_%d.docx" % (rng.choice(_WORDS), index)
        lines += ["[%s\\%s]" % (sd.PERSISTED_BRANCH, guid),
                  '"FilePath"="%s"' % path,
                  '"LastUpdatedTime"=hex(b):%s' % _reg_hex(_filetime_le(rng)), ""]
        _add(counts, "skype", "FileTransfer")
    text = "\ufeff" + "\r\n".join(lines) + "\r\n"
    (root / "packages-bulk.reg").write_bytes(text.encode("utf-16-le"))
    return {"package_keys": size["package_keys"], "persisted_items": size["persisted_items"]}


# ---------------------------------------------------------------------------
# memory-image: large raw blobs with planted chat push fragments


class _Filler:
    """Fast seed-determined filler bytes: a random block, rotated and
    passed through a fresh byte permutation for every segment."""

    SEGMENT = 1 << 20

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.block = rng.randbytes(self.SEGMENT)
        self.segment = b""
        self.at = 0

    def take(self, n: int) -> bytes:
        parts = []
        while n > 0:
            if self.at == len(self.segment):
                cut = self.rng.randrange(self.SEGMENT)
                table = bytes(self.rng.sample(range(256), 256))
                self.segment = (self.block[cut:] + self.block[:cut]).translate(table)
                self.at = 0
            piece = self.segment[self.at:self.at + n]
            self.at += len(piece)
            parts.append(piece)
            n -= len(piece)
        return b"".join(parts)


def _push_json(rng: random.Random) -> bytes:
    sender = str(100005000000000 + rng.randrange(10**9))
    params = {"a": sender, "u": FB_OWNER, "tid": str(rng.getrandbits(48))}
    fields = [("time", _BASE_EPOCH + rng.randrange(0, 40 * 86400)), ("type", "orca_message"),
              ("message", "Friend: " + _text(rng, long=rng.random() < 0.4)),
              ("unread_count", rng.randrange(1, 9)), ("target_uid", int(FB_OWNER)),
              ("params", params), ("from_mobile", rng.random() < 0.5)]
    if rng.random() < 0.3:  # params ahead of the marker: recovery must walk outward
        fields.insert(0, fields.pop(5))
    return json.dumps(dict(fields)).encode("utf-8")


def _write_blob(path: Path, rng: random.Random, filler: _Filler, size: int, fragments: int,
                nested_share: float) -> list[int]:
    """Write one blob with fragments spread over equal slots; returns their offsets."""
    slot = size // fragments
    offsets = []
    with open(path, "wb") as handle:
        handle.write(b"\x00" * 16)  # no sniffable magic at the head
        written = 16
        for index in range(fragments):
            body = _push_json(rng)
            depth = rng.randrange(200, 400) if rng.random() < nested_share else 0
            head = b'{"heap":' * depth
            tail = b"}" * depth
            end = (index + 1) * slot if index + 1 < fragments else size
            room = end - written - len(head) - len(body) - len(tail)
            lead = rng.randrange(room // 4, room // 2)
            handle.write(filler.take(lead))
            handle.write(head)
            offsets.append(written + lead + len(head))
            handle.write(body)
            handle.write(tail)
            handle.write(filler.take(room - lead))
            written = end
    return offsets


def _grow_memory(root: Path, rng: random.Random, size: dict, counts: dict, carved: dict) -> int:
    filler = _Filler(rng)
    blob = size["blob_mib"] << 20
    per_file = size["fragments"] // 2
    for name in ("pagefile.sys", "hiberfil.sys"):
        carved[name] = _write_blob(root / name, rng, filler, blob, per_file, size["nested_share"])
        _add(counts, "facebook", "MessageReceived", per_file)
    return 2 * blob


# ---------------------------------------------------------------------------


def build(workload: str, seed: int, root: Path) -> dict:
    """Forge the base tree under root, grow it for the workload, return the ledger."""
    manifest = forge.forge_fixture(seed, root)
    counts: dict[str, int] = {}
    for event in manifest["expected_timeline"]:
        _add(counts, event["app"], event["kind"], event["duplicates"])
    labels: dict[str, int] = {}
    for flow in manifest["capture"]["flows"]:
        labels[flow["label"]] = labels.get(flow["label"], 0) + 1
    carved = {forge.MEMORY_NAME: [manifest["memory"]["chat_fragment_offset"]]}
    sizes = {
        "packets": manifest["capture"]["frame_count"],
        "flows": len(manifest["capture"]["flows"]),
        "raw_bytes": manifest["memory"]["size"],
        "skype_rows": sum(len(rows) for rows in manifest["skype"]["tables"].values()),
    }

    rng = random.Random("%s:%d" % (workload, seed))
    size = SIZES[workload]
    if workload == "app-stores":
        sizes["skype_rows"] += _grow_skype(root, rng, size, counts)
        sizes["fb_rows"] = _grow_facebook(root, rng, size, counts)
        sizes["journal_rows"] = _grow_journal(root, rng, size, counts)
    elif workload == "capture-registry":
        grown = _grow_capture(root, rng, size, counts, labels)
        sizes["packets"] += grown["packets"]
        sizes["flows"] += grown["flows"]
        sizes.update(_grow_registry(root, rng, size, counts))
    elif workload == "memory-image":
        sizes["raw_bytes"] += _grow_memory(root, rng, size, counts, carved)
        sizes["fragments"] = size["fragments"]
    else:
        raise ValueError("unknown workload %r" % workload)

    files = sorted(p for p in root.rglob("*") if p.is_file())
    sizes["bytes"] = sum(p.stat().st_size for p in files)
    sizes["files"] = len(files)
    return {
        "workload": workload,
        "seed": seed,
        "command": COMMANDS[workload],
        "counts": dict(sorted(counts.items())),
        "labels": dict(sorted(labels.items())),
        "carved": carved,
        "sizes": sizes,
    }
