"""Fuzz contract: on any bytes a parser returns or raises ExtractionError.

The examples are derived from each test's source (derandomize) and no
example database is kept, so every run checks the same inputs.
"""

import struct

from hypothesis import given, settings, strategies as st

from imartifacts.model import ExtractionError
from imartifacts.pcap import LINKTYPE_ETHERNET, MAGIC_NS, MAGIC_US, extract_sni, read_pcap
from imartifacts.regexport import HEADER_4, HEADER_50, parse_reg_export

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
    counted = len(capture) + skipped.non_ipv4 + skipped.non_tcp_udp + skipped.truncated
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
