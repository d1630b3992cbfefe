"""Fuzz contract: on any bytes a parser returns or raises ExtractionError.

The examples are derived from each test's source (derandomize) and no
example database is kept, so every run checks the same inputs.
"""

import io
import struct

import pytest
from hypothesis import given, settings, strategies as st

from imartifacts import facebook, forge, sampledata as sd, skype
from imartifacts.facebook import CHAT_MARKER, ChatFragment, extract_chat_json
from imartifacts.locator import ZoneMarker, read_zone_identifier
from imartifacts.model import ExtractionError
from imartifacts.pcap import LINKTYPE_ETHERNET, MAGIC_NS, MAGIC_US, extract_sni, read_pcap
from imartifacts.regexport import HEADER_4, HEADER_50, parse_reg_export
from imartifacts.timeline import NtfsJournalRow, parse_ntfs_csv
from imartifacts.skype import (
    HOSTCACHE_PREFIX,
    FilesBody,
    PartListBody,
    PlainTextBody,
    SkypeConfig,
    SkypeNetworkState,
    SupernodeEntry,
    VideoMessageBody,
    decode_hostcache,
    parse_body_xml,
    parse_config_xml,
    parse_shared_xml,
)

FUZZ = settings(derandomize=True, database=None, max_examples=200, deadline=None)

PCAP_HEADERS = [
    struct.pack(order + "IHHiIII", magic, 2, 4, 0, 0, 0x40000, LINKTYPE_ETHERNET)
    for order in "<>"
    for magic in (MAGIC_US, MAGIC_NS)
]
REG_HEADERS = [
    HEADER_50.encode("ascii") + b"\r\n",
    HEADER_4.encode("ascii") + b"\r\n",
    ("﻿" + HEADER_50 + "\r\n").encode("utf-16-le"),
    ("﻿" + HEADER_4 + "\r\n").encode("utf-16-le"),
]


def returns_or_extraction_error(parse, data):
    try:
        return parse(data)
    except ExtractionError:
        return None


@FUZZ
@given(st.binary(max_size=512))
def test_read_pcap_any_bytes(data):
    returns_or_extraction_error(read_pcap, data)


@FUZZ
@given(st.sampled_from(PCAP_HEADERS), st.binary(max_size=1024))
def test_read_pcap_records_after_valid_header(header, body):
    capture = read_pcap(header + body)
    skipped = capture.skipped
    packets = sum(flow.total_packets for flow in capture.flows)
    counted = packets + skipped.non_ipv4 + skipped.non_tcp_udp + skipped.truncated
    assert counted <= 1 + len(body) // 16  # each record is accepted or skipped at most once


@FUZZ
@given(st.binary(max_size=512))
def test_extract_sni_any_bytes(data):
    name = extract_sni(data)
    assert name is None or isinstance(name, str)


@FUZZ
@given(st.binary(max_size=200))
def test_extract_sni_after_handshake_prefix(body):
    # Record type, version and a length, then a ClientHello message type.
    data = b"\x16\x03\x01" + struct.pack(">H", len(body) + 1) + b"\x01" + body
    name = extract_sni(data)
    assert name is None or isinstance(name, str)


@FUZZ
@given(st.binary(max_size=512))
def test_parse_reg_export_any_bytes(data):
    returns_or_extraction_error(parse_reg_export, data)


@FUZZ
@given(st.sampled_from(REG_HEADERS), st.binary(max_size=512))
def test_parse_reg_export_after_each_header(header, body):
    export = parse_reg_export(header + body)
    assert export.dialect in (HEADER_50, HEADER_4)


# Any code point, lone surrogates included: body_xml also reaches the parser
# from callers other than the SQLite reader.
ANY_TEXT = st.text(alphabet=st.characters(exclude_categories=()), max_size=300)
BODY_PREFIXES = [
    "<files>", '<files><file size="', "<videomessage ", "<partlist ", "<", " <a>",
    "<?xml version='1.0' encoding='utf-16'?><files>",
]
BODIES = (FilesBody, PartListBody, PlainTextBody, VideoMessageBody)


@FUZZ
@given(ANY_TEXT)
def test_parse_body_xml_any_text(text):
    assert isinstance(parse_body_xml(text, []), BODIES)


@FUZZ
@given(st.sampled_from(BODY_PREFIXES), ANY_TEXT)
def test_parse_body_xml_after_markup_prefix(prefix, text):
    assert isinstance(parse_body_xml(prefix + text, []), BODIES)


SHARED_TAGS = [b"<LastIP>", b"<ListeningPort>", b"<Supernode>", b"<Default>", b"<NodeID>", b"<HostCache>"]
CONFIG_PREFIXES = [b'<config serial="', b"<config>", b"<LastUsed>", b"<u>", b"<u/>"]


@FUZZ
@given(st.binary(max_size=512))
def test_parse_shared_xml_any_bytes(data):
    state = returns_or_extraction_error(parse_shared_xml, data)
    assert state is None or isinstance(state, SkypeNetworkState)


@FUZZ
@given(st.sampled_from(SHARED_TAGS), st.binary(max_size=256))
def test_parse_shared_xml_inside_each_tag(tag, body):
    state = returns_or_extraction_error(parse_shared_xml, tag + body + tag.replace(b"<", b"</"))
    assert state is None or isinstance(state, SkypeNetworkState)


@FUZZ
@given(st.binary(max_size=512))
def test_parse_config_xml_any_bytes(data):
    config = returns_or_extraction_error(parse_config_xml, data)
    assert config is None or isinstance(config, SkypeConfig)


@FUZZ
@given(st.sampled_from(CONFIG_PREFIXES), st.binary(max_size=256))
def test_parse_config_xml_after_each_tag(prefix, body):
    closing = b"</u>" if prefix == b"<u>" else b"</LastUsed>"
    config = returns_or_extraction_error(parse_config_xml, prefix + body + closing)
    assert config is None or isinstance(config, SkypeConfig)


@FUZZ
@given(ANY_TEXT)
def test_decode_hostcache_any_text(text):
    entries = returns_or_extraction_error(decode_hostcache, text)
    assert entries is None or all(isinstance(entry, SupernodeEntry) for entry in entries)


@FUZZ
@given(st.lists(st.one_of(st.just(HOSTCACHE_PREFIX), st.text(alphabet="0123456789abcdefABCDEF \n", max_size=20)),
                max_size=12).map("".join))
def test_decode_hostcache_hex_text(text):
    entries = decode_hostcache(text, [])
    assert len(entries) <= "".join(text.split()).upper().count(HOSTCACHE_PREFIX)


@FUZZ
@given(st.binary(max_size=512))
def test_read_zone_identifier_any_bytes(data):
    marker = returns_or_extraction_error(read_zone_identifier, data)
    assert marker is None or isinstance(marker, ZoneMarker)


@FUZZ
@given(st.sampled_from([b"", b"\xef\xbb\xbf"]), st.binary(max_size=128), st.binary(max_size=128))
def test_read_zone_identifier_inside_section(bom, value, rest):
    data = bom + b"[ZoneTransfer]\r\nZoneId=" + value + b"\r\n" + rest
    marker = returns_or_extraction_error(lambda raw: read_zone_identifier(raw, "x.exe:Zone.Identifier"), data)
    assert marker is None or 0 <= marker.zone_id <= 4


CSV_HEADER = ",".join(sd.NTFS_CSV_HEADER).encode("ascii") + b"\r\n"
CSV_TIMES = ["2015-01-22 11:46:02", "", "2015-13-45 99:99:99", "1601-01-01 00:00:00", "0",
             "9999-12-31 23:59:59.999999", "2015-01-22T11:46:02Z", "22/01/2015 11:46"]
CSV_JOURNAL_ROW = st.tuples(
    st.sampled_from(["274599978", "-1", "", "lsn", "1" * 30]),
    st.sampled_from(CSV_TIMES) | st.text(max_size=12),
    st.sampled_from(["File Creation", "Moving After", "File Deletion", ""]),
    st.sampled_from(["", "Renaming", '"a,b"']),
    st.sampled_from(["VictimToSuspect.txt", "", "x.txt:Zone.Identifier"]),
    st.sampled_from(["Users\\anonymous\\Downloads\\x.txt", "", '"']) | st.text(max_size=12),
)
CSV_ROWS = st.lists(
    CSV_JOURNAL_ROW | st.lists(st.text(max_size=12), max_size=8), max_size=10,
).map(lambda rows: "\r\n".join(",".join(row) for row in rows))


@FUZZ
@given(st.binary(max_size=512))
def test_parse_ntfs_csv_any_bytes(data):
    rows = returns_or_extraction_error(parse_ntfs_csv, data)
    assert rows is None or all(isinstance(row, NtfsJournalRow) for row in rows)


@FUZZ
@given(st.sampled_from([b"", b"\xef\xbb\xbf"]), CSV_ROWS)
def test_parse_ntfs_csv_rows_after_header(bom, rows):
    data = bom + CSV_HEADER + rows.encode("utf-8", "surrogatepass")
    parsed = returns_or_extraction_error(parse_ntfs_csv, data)
    assert parsed is None or all(isinstance(row, NtfsJournalRow) for row in parsed)


CHAT_PIECES = [CHAT_MARKER, b"{", b"}", b'"', b"\\", b":", b",", b'{"a":', b"[", b"]",
               b'{"type":"orca_message","body":"hi","timestamp":1421685000000}',
               b'"message":"hi"', b'{"' + CHAT_MARKER + b'":{']


@FUZZ
@given(st.binary(max_size=512))
def test_extract_chat_json_any_bytes(data):
    fragments = returns_or_extraction_error(lambda data: list(extract_chat_json(data)), data)
    assert fragments is None or all(isinstance(fragment, ChatFragment) for fragment in fragments)


@FUZZ
@given(st.lists(st.one_of(st.sampled_from(CHAT_PIECES), st.binary(max_size=16)), max_size=24).map(b"".join))
def test_extract_chat_json_markers_and_braces(data):
    fragments = returns_or_extraction_error(lambda data: list(extract_chat_json(data)), data)
    assert fragments is None or len(fragments) == data.count(CHAT_MARKER)


@FUZZ
@given(st.integers(64, 4096), st.binary(min_size=1, max_size=1),
       st.lists(st.tuples(st.integers(0, 3), st.integers(-40, 40), st.sampled_from(CHAT_PIECES)), max_size=12),
       st.integers(0, 64))
def test_extract_chat_json_chunked_equals_whole(chunk_size, filler, planted, tail):
    # Pieces sit within 40 bytes of a chunk boundary, so markers and their
    # braces are split between reads.
    data = bytearray(filler * (3 * chunk_size + tail))
    for boundary, shift, piece in planted:
        at = max(boundary * chunk_size + shift, 0)
        data[at:at + len(piece)] = piece
    data = bytes(data)
    assert list(extract_chat_json(io.BytesIO(data), chunk_size=chunk_size)) == list(extract_chat_json(data))


SQLITE_HEADER_SIZE = 100
DATABASE_EXTRACTORS = [
    ("Analytics.sqlite", facebook.extract_analytics),
    ("Friends.sqlite", facebook.extract_friends),
    ("Messages.sqlite", facebook.extract_messages),
    ("Messages.sqlite", facebook.extract_users),
    ("Notifications.sqlite", facebook.extract_notifications),
    ("main.db", lambda path, warnings: skype.group_main_db(skype.extract_main_db(path, warnings))),
]


@pytest.fixture(scope="module")
def forged_databases(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz") / "evidence"
    forge.forge_fixture(3, root)
    return {p.name: p.read_bytes() for p in root.rglob("*") if p.suffix in (".sqlite", ".db")}


@FUZZ
@given(target=st.sampled_from(DATABASE_EXTRACTORS),
       edits=st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 255)), min_size=1, max_size=16))
def test_sqlite_extractors_on_damaged_pages(forged_databases, tmp_path_factory, target, edits):
    name, extract = target
    data = bytearray(forged_databases[name])
    for offset, value in edits:
        data[SQLITE_HEADER_SIZE + offset % (len(data) - SQLITE_HEADER_SIZE)] = value
    path = tmp_path_factory.getbasetemp() / ("damaged-" + name)
    path.write_bytes(bytes(data))
    returns_or_extraction_error(lambda p: extract(p, []), path)
