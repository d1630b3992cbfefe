"""End-to-end acceptance checks, one numbered test per criterion.

Each test prints a single PASS line when its assertions hold, so a
`pytest -v tests/test_acceptance.py` run reads as a pass/fail scorecard.
Tolerances (timing budgets, exactness) are asserted, not just observed.
"""

import io
import json
import random
import time
from datetime import datetime, timedelta, timezone

from imartifacts import carver, facebook, forge, pcap, skype, timeline
from imartifacts import sampledata as sd
from imartifacts.carver import Signature
from imartifacts.cli import main as cli_main
from imartifacts.model import ts_from_filetime_ticks, ts_from_unix
from test_carver import carve_bytes
from test_forge import expected_events


def _ok(number: int, text: str) -> None:
    print("PASS %02d %s" % (number, text))


def _best_time(func, *args, repeats: int = 5) -> float:
    func(*args)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func(*args)
        best = min(best, time.perf_counter() - start)
    return best


def test_01_hostcache_decode():
    entries = skype.decode_hostcache("04000500410502004137DF188109")
    assert [(e.ip, e.port) for e in entries] == [("65.55.223.24", 33033)]
    assert _best_time(skype.decode_hostcache, "04000500410502004137DF188109") < 0.001
    _ok(1, "hostcache hex decodes to exactly 65.55.223.24:33033 in < 1 ms")


def test_02_last_ip_decode():
    assert skype.decode_decimal_ip(1940151468) == "115.164.92.172"
    assert _best_time(skype.decode_decimal_ip, 1940151468) < 0.001
    _ok(2, "decimal LastIP 1940151468 decodes to 115.164.92.172 in < 1 ms")


def test_03_filetime_decoding():
    epoch = ts_from_filetime_ticks(int("019DB1DED53E8000", 16))
    assert epoch.isoformat_ms() == "1970-01-01T00:00:00.000Z"
    floor = ts_from_filetime_ticks(int("0000000000000000", 16))
    assert floor.isoformat_ms() == "1601-01-01T00:00:00.000Z"
    _ok(3, "FILETIME hex decodes hit the 1970 epoch and the 1601 origin exactly")


def test_04_message_type_codes():
    documented = {
        4: "Conference", 30: "VideoSessionStarted", 39: "VideoSessionEnded",
        50: "ContactAsk", 51: "ContactAsk", 53: "Blocked", 60: "EmoticonSent",
        61: "TextSent", 63: "ContactDetailsSent", 64: "SmsSent",
        67: "VoiceMessageSent", 68: "FileSent", 110: "BirthdayNote",
    }
    assert len(documented) == 13
    for code, label in documented.items():
        kind = skype.classify_message(code)
        assert kind.label == label
    for code in range(-5, 200):
        kind = skype.classify_message(code)
        if code in documented:
            assert kind.label == documented[code]
        else:
            assert kind.label == "Unknown"
    _ok(4, "all 13 documented type codes classify exactly; every other code is Unknown")


def test_05_skype_body_xml():
    files = skype.parse_body_xml(sd.FILES_BODY_XML)
    assert isinstance(files, skype.FilesBody) and len(files.files) == 6
    first = files.files[0]
    assert (first.name, first.size, first.index, first.tid) == \
        ("SuspectToVictim.docx", 78080, 0, "1335338368")
    video = skype.parse_body_xml(sd.VIDEOMESSAGE_BODY_XML)
    assert video.notice.sid == "90699566cef64bd97b99704588c41609"
    assert video.notice.secret_code == "1400"
    _ok(5, "file-offer body yields 6 exact attachments; video notice yields sid and secret")


def test_06_facebook_attachments_json():
    attachments = facebook.parse_fb_attachments(sd.ATTACHMENTS_JSON)
    assert len(attachments) == 2
    second = attachments[1]
    assert (second.name, second.size, second.id, second.mime, second.type_code) == \
        ("VictimToSuspect.pdf", 31747, "391924720981232", "application/pdf", 7)
    _ok(6, "attachments JSON parses to 2 entries with the exact second quintuple")


def test_07_timestamp_conversions():
    utc = timezone.utc
    millis = ts_from_unix(1421898314666, "millis")
    assert millis.isoformat_ms() == "2015-01-22T03:45:14.666Z"
    assert millis.utc_instant == datetime(1970, 1, 1, tzinfo=utc) + timedelta(milliseconds=1421898314666)
    seconds = ts_from_unix(1421685822, "seconds")
    assert seconds.isoformat_ms() == "2015-01-19T16:43:42.000Z"
    assert seconds.utc_instant == datetime(1970, 1, 1, tzinfo=utc) + timedelta(seconds=1421685822)
    _ok(7, "unix millis and seconds convert exactly against the calendar oracle")


def test_08_carving_64mib_stream():
    rng = random.Random(88)
    size = 64 * 1024 * 1024
    blob = bytearray(rng.randbytes(size))
    docs = [sd.CONFIG_XML_DOC] * 5 + [sd.SHARED_XML_DOC] * 3
    names = ["config-xml"] * 5 + ["shared-xml"] * 3
    placed: list[tuple[str, int, bytes]] = []
    taken: list[tuple[int, int]] = []
    for index, (name, doc) in enumerate(zip(names, docs)):
        if index == 0:
            offset = carver.DEFAULT_CHUNK_SIZE - len(doc) // 2  # straddles chunk 1|2
        else:
            while True:
                offset = rng.randrange(0, size - len(doc))
                if all(offset + len(doc) + 16 <= lo or offset >= hi + 16 for lo, hi in taken):
                    break
        taken.append((offset, offset + len(doc)))
        blob[offset:offset + len(doc)] = doc
        placed.append((name, offset, doc))
    start = time.perf_counter()
    carved = carver.carve(io.BytesIO(bytes(blob)))
    elapsed = time.perf_counter() - start
    got = sorted((c.signature_name, c.offset, c.payload) for c in carved)
    assert got == sorted(placed)
    assert elapsed < 5.0
    _ok(8, "all 8 planted documents carved byte-exact from 64 MiB in %.2f s, zero spurious" % elapsed)


def test_09_chunked_equals_whole():
    signatures = (Signature("alpha", b"<<A>", b"</A>>", 4096),
                  Signature("beta", b"<<B>", b"</B>>", 4096))
    rng = random.Random(99)
    for _ in range(100):
        size = rng.randrange(8 * 1024, 64 * 1024)
        buf = bytearray(rng.randbytes(size))
        for _ in range(rng.randrange(0, 6)):
            header, footer = rng.choice([(b"<<A>", b"</A>>"), (b"<<B>", b"</B>>")])
            body = bytes(rng.randrange(32, 127) for _ in range(rng.randrange(5, 600)))
            doc = header + body + footer
            offset = rng.randrange(0, size - len(doc))
            buf[offset:offset + len(doc)] = doc
        for _ in range(rng.randrange(0, 8)):
            term = rng.choice(carver.DEFAULT_TERMS)
            offset = rng.randrange(0, size - len(term))
            buf[offset:offset + len(term)] = term
        data = bytes(buf)
        whole_carve = carve_bytes(data, signatures)
        chunked_carve = carver.carve(io.BytesIO(data), signatures, chunk_size=8192)
        assert chunked_carve == whole_carve
        whole_hits = carver.scan_keywords(data)
        chunked_hits = carver.scan_keywords(io.BytesIO(data), chunk_size=4096)
        assert chunked_hits == whole_hits
    _ok(9, "carve and keyword scans agree between whole-buffer and chunked on 100 buffers")


def test_10_pcap_labeling_and_byte_conservation():
    rng = random.Random(1010)
    catalog_picks = [
        ("31.13.76.102", 443, "FacebookChat"), ("31.13.79.246", 443, "FacebookChat"),
        ("31.13.70.1", 443, "FacebookUpload"), ("173.252.103.16", 443, "FacebookCore"),
        ("31.13.67.7", 443, "FacebookCdnDownload"),
        ("91.190.216.%d" % rng.randrange(1, 250), 443, "SkypeRst"),
        ("91.190.218.%d" % rng.randrange(1, 250), 443, "SkypeRst"),
        ("64.4.23.%d" % rng.randrange(1, 250), 33033, "SkypeSupernodeLookup"),
    ]
    specs = [catalog_picks[i % len(catalog_picks)] for i in range(40)]
    while len(specs) < 100:
        specs.append(("10.%d.%d.%d" % (rng.randrange(256), rng.randrange(256), rng.randrange(1, 255)),
                      rng.randrange(1024, 30000), "Other"))
    frames = []
    intended = {}
    t_us = 1421685000 * 10**6
    sent_packets = 0
    sent_bytes = 0
    for index, (server_ip, server_port, label) in enumerate(specs):
        client = ("192.168.220.176", 50000 + index)
        server = (server_ip, server_port)
        key = tuple(sorted((client, server)))
        intended[key] = label
        for turn in range(rng.randrange(2, 6)):
            payload = bytearray(rng.randbytes(rng.randrange(10, 300)))
            payload[0] = 0x17 if payload[0] == 0x16 else payload[0]
            src, dst = (client, server) if turn % 2 == 0 else (server, client)
            t_us += rng.randrange(500, 90000)
            frames.append((t_us, forge.make_tcp_packet(src[0], src[1], dst[0], dst[1], bytes(payload))))
            sent_packets += 1
            sent_bytes += 20 + len(payload)
    start = time.perf_counter()
    capture = pcap.read_pcap(forge.write_pcap(None, frames))
    flows = pcap.assemble_flows(capture.packets)
    labels = {(f.endpoint_a, f.endpoint_b): pcap.label_flow(f).label for f in flows}
    elapsed = time.perf_counter() - start
    assert len(flows) == 100
    errors = [key for key, label in labels.items() if intended[key] != label]
    assert errors == []
    assert sum(p.ip_payload_len for p in capture.packets) == sent_bytes
    assert sum(f.bytes_ab + f.bytes_ba for f in flows) == sent_bytes
    assert sum(f.packets_ab + f.packets_ba for f in flows) == sent_packets == len(capture.packets)
    assert elapsed < 2.0
    _ok(10, "100 flows labeled with 0 errors and bytes conserved in %.2f s" % elapsed)


def test_11_forge_extract_round_trip(tmp_path):
    for seed in range(20):
        root = tmp_path / ("seed%d" % seed)
        start = time.perf_counter()
        manifest = forge.forge_fixture(seed, root)
        out = tmp_path / ("events%d.jsonl" % seed)
        assert cli_main(["report", str(root), "--out", str(out)]) == 0
        got = timeline.parse_jsonl(out.read_text(encoding="utf-8"))
        elapsed = time.perf_counter() - start
        assert got == expected_events(manifest)
        raw = json.loads((root / "manifest.json").read_text(encoding="utf-8"))
        assert raw["expected_timeline"] == [json.loads(line) for line in
                                            out.read_text(encoding="utf-8").splitlines() if line]
        assert elapsed < 10.0
    _ok(11, "20 forged seeds round-trip to the exact expected timeline, each < 10 s")


def test_12_journal_csv_ingest():
    warnings: list[str] = []
    buffer = io.StringIO()
    import csv as _csv
    writer = _csv.writer(buffer)
    writer.writerow(sd.NTFS_CSV_HEADER)
    writer.writerows(sd.NTFS_CSV_ROWS)
    events = timeline.ingest_ntfs_csv(buffer.getvalue(), warnings)
    assert events[0].kind.value == "FsJournal"
    assert events[0].summary == "File Creation VictimToSuspect.txt"
    assert events[0].when.isoformat_ms() == "2015-01-22T11:46:02.000Z"
    inherited = [w for w in warnings if "time-inherited" in w]
    assert len(inherited) == 2
    assert len(events) == len(sd.NTFS_CSV_ROWS)
    _ok(12, "journal CSV yields FsJournal events; first is the recorded creation; blanks inherit")
