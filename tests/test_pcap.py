"""Capture reading, flow assembly, SNI extraction, endpoint labeling."""

import io
import ipaddress
import random
import struct
from collections import namedtuple
from dataclasses import astuple

import pytest
from hypothesis import given, strategies as st

from imartifacts import pcap, timeline
from imartifacts import sampledata as sd
from imartifacts.forge import make_client_hello, make_tcp_packet, make_udp_packet, write_pcap
from imartifacts.pcap import (
    CatalogEntry,
    CatalogIndex,
    Flow,
    FlowLabel,
    LABELS,
    NotPcap,
    assemble_flows,
    builtin_catalog,
    catalog_index,
    extract_sni,
    label_flow,
    load_catalog,
    read_pcap,
)
from test_fuzz import FUZZ

CLIENT = "192.168.220.176"
T0 = 1421685000 * 1_000_000


def capture_bytes(frames, **kwargs):
    return write_pcap(None, frames, **kwargs)


def read_packets(data):
    """The accepted packets of a capture and its skip counts: the generator read_pcap folds, listed."""
    stream = io.BytesIO(data)
    order, nanosecond = pcap._read_header(stream)
    counters = pcap.SkipCounters()
    return list(pcap._packets(stream.read, order, nanosecond, counters)), counters


def packet_count(capture):
    return sum(flow.total_packets for flow in capture.flows)


class TestReadPcap:
    def test_udp_packets_all_yielded(self):
        frames = [
            (T0 + i * 1000, make_udp_packet(CLIENT, 40000 + i, "10.0.0.1", 53, b"q" * 10))
            for i in range(10)
        ]
        packets, _ = read_packets(capture_bytes(frames))
        assert len(packets) == 10
        assert all(p.proto == "udp" for p in packets)
        assert packets[0].ip_payload_len == 8 + 10
        assert packet_count(read_pcap(capture_bytes(frames))) == 10

    def test_byte_swapped_magic_identical_yield(self):
        frames = [
            (T0, make_tcp_packet(CLIENT, 49402, "31.13.70.1", 443, b"hello")),
            (T0 + 5000, make_udp_packet(CLIENT, 5060, "10.0.0.2", 5060)),
        ]
        native = read_pcap(capture_bytes(frames))
        swapped = read_pcap(capture_bytes(frames, byte_swapped=True))
        assert swapped.byte_swapped and not native.byte_swapped
        assert swapped.flows == native.flows
        assert read_packets(capture_bytes(frames, byte_swapped=True)) == read_packets(capture_bytes(frames))

    def test_nanosecond_resolution(self):
        frames = [(T0 + 123, make_udp_packet(CLIENT, 1, "10.0.0.1", 2))]
        capture = read_pcap(capture_bytes(frames, nanosecond=True))
        assert capture.nanosecond
        (flow,) = capture.flows
        assert flow.first_ts_us == T0 + 123

    def test_empty_file(self):
        with pytest.raises(NotPcap):
            read_pcap(b"")

    def test_pcapng_rejected_with_clear_message(self):
        data = bytes.fromhex("0a0d0d0a") + bytes(20)
        with pytest.raises(NotPcap, match="pcapng"):
            read_pcap(data)

    def test_garbage_magic(self):
        with pytest.raises(NotPcap):
            read_pcap(b"\x00" * 24)

    def test_non_ipv4_counted(self):
        arp = b"\x02" * 6 + b"\x04" * 6 + b"\x08\x06" + bytes(28)
        frames = [(T0, arp), (T0 + 1, make_udp_packet(CLIENT, 1, "10.0.0.1", 2))]
        capture = read_pcap(capture_bytes(frames))
        assert packet_count(capture) == 1
        assert capture.skipped.non_ipv4 == 1

    def test_non_tcp_udp_counted(self):
        icmp = make_udp_packet(CLIENT, 0, "10.0.0.1", 0)
        # Rewrite the protocol byte inside the IPv4 header to ICMP.
        icmp = icmp[: 14 + 9] + b"\x01" + icmp[14 + 10 :]
        capture = read_pcap(capture_bytes([(T0, icmp)]))
        assert capture.flows == []
        assert capture.skipped.non_tcp_udp == 1

    def test_truncated_record_counted(self):
        good = capture_bytes([(T0, make_udp_packet(CLIENT, 1, "10.0.0.1", 2, b"xy"))])
        capture = read_pcap(good[:-3])
        assert capture.skipped.truncated == 1
        assert capture.flows == []

    def test_overlong_record_ends_the_read_without_asking_for_its_bytes(self):
        class ReadSizes(io.BytesIO):
            def read(self, size=-1):
                sizes.append(size)
                return super().read(size)

        sizes = []
        frame = make_udp_packet(CLIENT, 1, "10.0.0.1", 2)
        hostile = struct.pack("<IIII", 0, 0, 0xF0000000, 0xF0000000)
        data = capture_bytes([(T0, frame)]) + hostile + capture_bytes([(T0 + 1, frame)])[24:]
        capture = read_pcap(ReadSizes(data))
        assert packet_count(capture) == 1
        assert capture.skipped.truncated == 1
        assert max(sizes) <= pcap.MAX_RECORD_LEN

    def test_record_at_the_length_bound_is_read(self):
        frame = make_udp_packet(CLIENT, 1, "10.0.0.1", 2)
        padded = frame + bytes(pcap.MAX_RECORD_LEN - len(frame))
        capture = read_pcap(capture_bytes([(T0, padded), (T0 + 1, frame)]))
        assert packet_count(capture) == 2
        assert capture.skipped.truncated == 0

    def test_reads_from_path(self, tmp_path):
        path = tmp_path / "c.pcap"
        write_pcap(path, [(T0, make_udp_packet(CLIENT, 1, "10.0.0.1", 2))])
        assert packet_count(read_pcap(path)) == 1

    def test_packet_instant(self):
        capture = read_pcap(capture_bytes([(1421685000_123000, make_udp_packet(CLIENT, 1, "10.0.0.1", 2))]))
        (flow,) = capture.flows
        assert flow.first_seen.isoformat_ms() == "2015-01-19T16:30:00.123Z"


class TestFlows:
    def test_single_tcp_connection_bidirectional(self):
        server = ("31.13.76.102", 443)
        frames = []
        for i in range(3):
            frames.append((T0 + i * 10_000, make_tcp_packet(CLIENT, 49431, *server, b"c" * 5)))
            frames.append((T0 + i * 10_000 + 500, make_tcp_packet(server[0], server[1], CLIENT, 49431, b"s" * 9)))
        (flow,) = read_pcap(capture_bytes(frames)).flows
        assert flow.total_packets == 6
        assert {flow.packets_ab, flow.packets_ba} == {3}
        assert flow.proto == "tcp"
        assert {flow.endpoint_a, flow.endpoint_b} == {(CLIENT, 49431), server}
        assert flow.first_ts_us == T0
        assert flow.last_ts_us == T0 + 20_500

    def test_interleaved_udp_conversations(self):
        frames = [
            (T0, make_udp_packet(CLIENT, 1111, "10.0.0.1", 9000, b"a")),
            (T0 + 1, make_udp_packet(CLIENT, 2222, "10.0.0.2", 9000, b"b")),
            (T0 + 2, make_udp_packet("10.0.0.1", 9000, CLIENT, 1111, b"c")),
            (T0 + 3, make_udp_packet("10.0.0.2", 9000, CLIENT, 2222, b"d")),
        ]
        flows = read_pcap(capture_bytes(frames)).flows
        assert len(flows) == 2

    def test_zero_packets(self):
        assert assemble_flows([]) == []

    def test_direction_symmetry(self):
        rng = random.Random(8)
        frames = []
        for i in range(40):
            src = ("10.0.0.%d" % rng.randrange(1, 4), rng.choice((1000, 2000)))
            dst = ("10.0.1.%d" % rng.randrange(1, 4), rng.choice((80, 443)))
            frames.append((T0 + i, make_tcp_packet(src[0], src[1], dst[0], dst[1], b"x" * rng.randrange(0, 9))))
        mirrored = []
        for ts, frame in frames:
            (p,), _ = read_packets(capture_bytes([(ts, frame)]))
            mirrored.append((ts, make_tcp_packet(p.dst_ip, p.dst_port, p.src_ip, p.src_port, p.payload)))
        forward = read_pcap(capture_bytes(frames)).flows
        backward = read_pcap(capture_bytes(mirrored)).flows

        def shape(flows):
            return sorted(
                (f.proto, f.endpoint_a, f.endpoint_b, f.total_packets, f.total_bytes) for f in flows
            )

        assert shape(forward) == shape(backward)
        directed = {
            (f.endpoint_a, f.endpoint_b): (f.packets_ab, f.packets_ba) for f in forward
        }
        for f in backward:
            ab, ba = directed[(f.endpoint_a, f.endpoint_b)]
            assert (f.packets_ab, f.packets_ba) == (ba, ab)

    def test_byte_conservation(self):
        rng = random.Random(13)
        frames = []
        expected = 0
        for i in range(60):
            size = rng.randrange(0, 200)
            if rng.random() < 0.5:
                frames.append((T0 + i, make_tcp_packet(CLIENT, rng.randrange(1024, 65000), "10.9.8.7", 443, b"z" * size)))
                expected += 20 + size
            else:
                frames.append((T0 + i, make_udp_packet(CLIENT, rng.randrange(1024, 65000), "10.9.8.7", 53, b"z" * size)))
                expected += 8 + size
        packets, _ = read_packets(capture_bytes(frames))
        flows = read_pcap(capture_bytes(frames)).flows
        assert sum(p.ip_payload_len for p in packets) == expected
        assert sum(f.total_bytes for f in flows) == expected

    def test_flow_sni_picked_up(self):
        hello = make_client_hello("5-edge-chat.facebook.com")
        frames = [(T0, make_tcp_packet(CLIENT, 49431, "31.13.76.102", 443, hello))]
        (flow,) = read_pcap(capture_bytes(frames)).flows
        assert flow.sni == "5-edge-chat.facebook.com"


class TestSni:
    def test_forged_hello(self):
        assert extract_sni(make_client_hello("5-edge-chat.facebook.com")) == "5-edge-chat.facebook.com"

    def test_hello_without_extension(self):
        assert extract_sni(make_client_hello(None)) is None

    def test_random_bytes(self):
        rng = random.Random(2)
        for _ in range(200):
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 120)))
            assert extract_sni(blob) is None or blob[:1] == b"\x16"

    def test_empty(self):
        assert extract_sni(b"") is None


class TestCatalog:
    def test_builtin_entries_valid(self):
        catalog = builtin_catalog()
        assert len(catalog) > 10
        assert all(e.label in LABELS for e in catalog)

    def test_builtin_minimum_rows(self):
        by_match = {e.match: e for e in builtin_catalog()}
        assert by_match["31.13.76.102"].label == "FacebookChat"
        assert "5-edge-chat.facebook.com" in by_match["31.13.76.102"].urls
        assert by_match["31.13.79.246"].label == "FacebookChat"
        assert by_match["31.13.70.1"].label == "FacebookUpload"
        assert "upload.facebook.com" in by_match["31.13.70.1"].urls
        assert by_match["31.13.70.7"].label == "FacebookCdnDownload"
        assert "cdn.fbsbx.com" in by_match["31.13.70.7"].urls
        assert by_match["91.190.216.0/24"].label == "SkypeRst"
        assert by_match["91.190.218.0/24"].label == "SkypeRst"
        for ip in ("65.54.184.60", "65.55.246.85", "65.55.246.149", "65.55.68.104"):
            assert by_match[ip].label == "MicrosoftLive"
        assert by_match["23.58.43.27"].label == "SymantecOcsp"
        assert by_match["192.229.145.200"].label == "EdgeCastCrl"

    def test_locale_dependent_flagged(self):
        locale_rows = [e for e in builtin_catalog() if e.locale_dependent]
        assert locale_rows
        assert all(e.match.startswith("115.164.") for e in locale_rows)

    def test_cidr_prefix_bounds(self):
        with pytest.raises(ValueError):
            CatalogEntry("10.0.0.0/4", "Other", "x")
        with pytest.raises(ValueError):
            CatalogEntry("31.13.76.102", "NotALabel", "x")

    def test_load_catalog_text(self):
        text = "\n".join(
            [
                "# comment",
                "",
                "203.0.113.7 FacebookChat Test_Owner chat.example.com,alt.example.com",
                "198.51.100.0/24 SkypeRst Pool",
            ]
        )
        entries = load_catalog(text)
        assert len(entries) == 2
        assert entries[0].owner == "Test Owner"
        assert entries[0].urls == ("chat.example.com", "alt.example.com")
        assert entries[1].is_cidr

    def test_load_catalog_file(self, tmp_path):
        path = tmp_path / "catalog.txt"
        path.write_text("203.0.113.7 Other Unknown\n")
        assert len(load_catalog(path)) == 1

    def test_load_catalog_str_is_text_even_when_a_file_has_that_name(self, tmp_path):
        path = tmp_path / "catalog.txt"
        path.write_text("203.0.113.7 Other Unknown\n")
        with pytest.raises(ValueError, match="line 1"):
            load_catalog(str(path))

    def test_load_catalog_bad_line(self):
        with pytest.raises(ValueError, match="line 2"):
            load_catalog("# ok\n203.0.113.7 BadLabel Owner\n")


def _flow(dst_ip, dst_port, proto="tcp", sni=None):
    frames = [
        (
            T0,
            make_tcp_packet(CLIENT, 49999, dst_ip, dst_port, b"")
            if proto == "tcp"
            else make_udp_packet(CLIENT, 49999, dst_ip, dst_port, b""),
        )
    ]
    (flow,) = read_pcap(capture_bytes(frames)).flows
    flow.sni = sni
    return flow


class TestLabeling:
    def test_chat_endpoint(self):
        label = label_flow(_flow("31.13.76.102", 443))
        assert label == FlowLabel("FacebookChat", "ip_catalog", "address 31.13.76.102 (Facebook USA)")

    def test_port_heuristic(self):
        label = label_flow(_flow("203.0.113.5", 33033))
        assert (label.label, label.basis) == ("SkypeSupernodeLookup", "port_heuristic")

    def test_unlabeled(self):
        label = label_flow(_flow("198.51.100.9", 80))
        assert (label.label, label.basis) == ("Other", "unlabeled")

    def test_cidr_match(self):
        label = label_flow(_flow("91.190.216.57", 12345))
        assert (label.label, label.basis) == ("SkypeRst", "ip_catalog")

    def test_sni_beats_ip(self):
        flow = _flow("198.51.100.9", 443, sni="5-edge-chat.facebook.com")
        label = label_flow(flow)
        assert (label.label, label.basis) == ("FacebookChat", "sni")

    def test_exact_ip_beats_cidr(self):
        catalog = (
            CatalogEntry("91.190.216.0/24", "SkypeRst", "Pool"),
            CatalogEntry("91.190.216.57", "MicrosoftLive", "Special"),
        )
        label = label_flow(_flow("91.190.216.57", 443), catalog)
        assert label.label == "MicrosoftLive"

    def test_port_heuristic_udp_excluded(self):
        label = label_flow(_flow("203.0.113.5", 33033, proto="udp"))
        assert label.label == "Other"

    def test_catalog_order_independent(self):
        rng = random.Random(4)
        entries = list(builtin_catalog())
        flow = _flow("31.13.70.7", 443)
        reference = label_flow(flow, entries)
        for _ in range(10):
            rng.shuffle(entries)
            assert label_flow(flow, entries) == reference

    def test_unlabeled_invariant_enforced(self):
        with pytest.raises(ValueError):
            FlowLabel("FacebookChat", "unlabeled", "x")
        with pytest.raises(ValueError):
            FlowLabel("Other", "sni", "x")

    def test_login_cache_address_over_lookup_port(self):
        # This address comes from the decoded supernode cache, not the
        # endpoint tables, so only the port rule fires.
        flow = _flow("65.55.223.24", sd.SUPERNODE_LOOKUP_PORT)
        label = label_flow(flow)
        assert (label.label, label.basis) == ("SkypeSupernodeLookup", "port_heuristic")


def reference_label(flow, entries):
    """Linear-scan labeler over catalog entries: the oracle for label_flow."""

    def best(matches):
        return sorted(matches, key=lambda e: (e.label, e.owner, e.match))[0]

    def covers(entry, ip):
        if entry.is_cidr:
            return ipaddress.IPv4Address(ip) in ipaddress.ip_network(entry.match)
        return ip == entry.match

    ips = [flow.endpoint_a[0], flow.endpoint_b[0]]
    if flow.sni:
        wanted = flow.sni.casefold()
        matches = [e for e in entries if any(u.casefold() == wanted for u in e.urls)]
        if matches:
            chosen = best(matches)
            return FlowLabel(chosen.label, "sni", "server name %s (%s)" % (flow.sni, chosen.owner))
    exact = [e for e in entries if not e.is_cidr and e.match in ips]
    if exact:
        chosen = best(exact)
        return FlowLabel(chosen.label, "ip_catalog", "address %s (%s)" % (chosen.match, chosen.owner))
    cidr = [e for e in entries if e.is_cidr and any(covers(e, ip) for ip in ips)]
    if cidr:
        chosen = best(cidr)
        return FlowLabel(chosen.label, "ip_catalog", "network %s (%s)" % (chosen.match, chosen.owner))
    if flow.proto == "tcp" and sd.SUPERNODE_LOOKUP_PORT in (flow.endpoint_a[1], flow.endpoint_b[1]):
        return FlowLabel("SkypeSupernodeLookup", "port_heuristic", "tcp port %d" % sd.SUPERNODE_LOOKUP_PORT)
    return FlowLabel("Other", "unlabeled", "no catalog match")


def _probe_addresses(entries):
    """Every exact address, and each network's first, last and two outside addresses."""
    addresses = {CLIENT, "203.0.113.9", "198.51.100.200"}
    for entry in entries:
        if not entry.is_cidr:
            addresses.add(entry.match)
            continue
        network = ipaddress.ip_network(entry.match)
        first, last = int(network.network_address), int(network.broadcast_address)
        for value in (first, last, first - 1, last + 1):
            addresses.add(str(ipaddress.IPv4Address(value % 2**32)))
    return sorted(addresses)


def _mixed_case(rng, text):
    return "".join(c.upper() if rng.random() < 0.5 else c for c in text)


def _random_flows(rng, entries, count):
    addresses = _probe_addresses(entries)
    hosts = sorted({u for e in entries for u in e.urls} | {"unknown.example.org"})
    flows = []
    for _ in range(count):
        sni = None
        if rng.random() < 0.4:
            sni = _mixed_case(rng, rng.choice(hosts)) if rng.random() < 0.9 else ""
        ports = (rng.choice((443, 80, sd.SUPERNODE_LOOKUP_PORT, rng.randrange(1, 65536))), 49152)
        a, b = sorted(zip((rng.choice(addresses), rng.choice(addresses)), ports))
        flows.append(Flow(rng.choice(("tcp", "udp")), a, b, sni=sni))
    return flows


def _tied_catalog(rng):
    """Custom entries sharing addresses, networks and server names."""
    matches = ("10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "10.1.2.3", "10.1.2.3/32",
               "192.0.2.1", "192.0.2.0/24", "192.0.2.128/25")
    urls = ("chat.example.com", "CHAT.Example.com", "cdn.example.net", "star.c10r.facebook.com")
    entries = []
    for _ in range(rng.randrange(4, 14)):
        entries.append(CatalogEntry(
            rng.choice(matches), rng.choice(LABELS[:-1]), rng.choice(("Owner A", "Owner B")),
            tuple(rng.sample(urls, rng.randrange(0, 3)))))
    entries += entries[: rng.randrange(0, 3)]  # exact duplicates
    rng.shuffle(entries)
    return entries


class TestIndexedLabelingOracle:
    def test_builtin_catalog_matches_linear_scan(self):
        rng = random.Random(40)
        entries = builtin_catalog()
        flows = _random_flows(rng, entries, 3000)
        labels = [label_flow(flow) for flow in flows]
        assert labels == [reference_label(flow, entries) for flow in flows]
        assert {label.basis for label in labels} == {"sni", "ip_catalog", "port_heuristic", "unlabeled"}

    def test_every_builtin_address_and_network_edge(self):
        entries = builtin_catalog()
        index = catalog_index()
        for address in _probe_addresses(entries):
            for port in (443, sd.SUPERNODE_LOOKUP_PORT):
                flow = Flow("tcp", (CLIENT, 49152), (address, port))
                assert label_flow(flow, index) == reference_label(flow, entries), address

    def test_endpoints_matching_different_entries(self):
        entries = builtin_catalog()
        pairs = [("31.13.76.102", "65.54.184.60"), ("91.190.216.1", "115.164.13.255"),
                 ("23.58.43.27", "91.190.218.0")]
        for first, second in pairs:
            flow = Flow("tcp", (first, 443), (second, 443))
            assert label_flow(flow) == reference_label(flow, entries)

    def test_shared_server_name_any_case(self):
        flow = Flow("tcp", (CLIENT, 49152), ("203.0.113.9", 443), sni="STAR.c10r.FaceBook.com")
        label = label_flow(flow)
        assert label == reference_label(flow, builtin_catalog())
        assert label.detail == "server name STAR.c10r.FaceBook.com (Facebook Singapore)"

    def test_shuffled_custom_catalogs_with_ties(self):
        rng = random.Random(41)
        for _ in range(40):
            entries = _tied_catalog(rng)
            index = CatalogIndex(entries)
            for flow in _random_flows(rng, entries, 30):
                expected = reference_label(flow, entries)
                assert label_flow(flow, entries) == expected
                assert label_flow(flow, index) == expected
                rng.shuffle(entries)
                assert label_flow(flow, entries) == expected

    @pytest.mark.parametrize("endpoint", [
        "01.2.3.4", "1.2.3", " 1.2.3.4", "1.2.3.4 ", "1.2.3.4\x00", "0x5b.190.216.1", "256.1.1.1",
        "91.190.216.1", "255.255.255.255", "0.0.0.0",
        int(ipaddress.IPv4Address("91.190.216.1")), 0, 2**32 - 1, 2**32, -1,
    ])
    def test_odd_endpoints_match_reference(self, endpoint):
        # Endpoints that miss the address and name dicts reach the network
        # entries, whose address parse must accept and reject as ipaddress does.
        entries = builtin_catalog()
        flow = Flow("tcp", (CLIENT, 49152), (endpoint, 443))

        def outcome(label, *args):
            try:
                return label(flow, *args)
            except Exception as error:
                return type(error)

        assert outcome(label_flow) == outcome(reference_label, entries)

    def test_ipv6_prefix_never_covers(self):
        entries = (CatalogEntry("::/8", "SkypeRst", "v6"),)
        flow = Flow("tcp", (CLIENT, 49152), ("0.0.0.1", 443))
        assert label_flow(flow, entries) == reference_label(flow, entries)

    def test_normalize_builds_builtin_catalog_at_most_once(self, monkeypatch):
        builds = []
        original = pcap.builtin_catalog

        def counted():
            builds.append(1)
            return original()

        monkeypatch.setattr(pcap, "builtin_catalog", counted)
        pcap._builtin_index.cache_clear()
        flows = _random_flows(random.Random(42), original(), 100)
        events = timeline.normalize(flows)
        assert len(events) == 100
        assert len(builds) <= 1


# ---------------------------------------------------------------------------
# Frame-parsing oracle: the per-packet slicing reader that read_pcap
# replaced, kept here with its own constants, counters and packet type so
# that it shares no code with the module under test.

ReferencePacket = namedtuple(
    "ReferencePacket",
    "ts_us proto src_ip dst_ip src_port dst_port payload ip_payload_len",
)


class ReferenceCounters:
    def __init__(self):
        self.non_ipv4 = 0
        self.non_tcp_udp = 0
        self.truncated = 0


def reference_read_pcap(data: bytes):
    """(packets, (non_ipv4, non_tcp_udp, truncated), nanosecond, byte_swapped)."""
    stream = io.BytesIO(data)
    header = stream.read(24)
    if len(header) < 24:
        raise NotPcap("file too short for a capture header")
    magic = struct.unpack("<I", header[:4])[0]
    if magic == 0x0A0D0D0A or struct.unpack(">I", header[:4])[0] == 0x0A0D0D0A:
        raise NotPcap("pcapng")
    nanosecond = False
    if magic == 0xA1B2C3D4:
        order = "<"
    elif magic == 0xA1B23C4D:
        order = "<"
        nanosecond = True
    else:
        big = struct.unpack(">I", header[:4])[0]
        if big == 0xA1B2C3D4:
            order = ">"
        elif big == 0xA1B23C4D:
            order = ">"
            nanosecond = True
        else:
            raise NotPcap("unrecognized magic")
    if struct.unpack(order + "I", header[20:24])[0] != 1:
        raise NotPcap("unsupported link type")
    packets = []
    counters = ReferenceCounters()
    while True:
        record = stream.read(16)
        if not record:
            break
        if len(record) < 16:
            counters.truncated += 1
            break
        ts_sec, ts_frac, incl_len, orig_len = struct.unpack(order + "IIII", record)
        if incl_len > 262144:  # libpcap's MAXIMUM_SNAPLEN
            counters.truncated += 1
            break
        frame = stream.read(incl_len)
        if len(frame) < incl_len:
            counters.truncated += 1
            break
        if incl_len < orig_len:
            counters.truncated += 1
            continue
        ts_us = ts_sec * 1_000_000 + (ts_frac // 1000 if nanosecond else ts_frac)
        packet = _reference_parse_frame(ts_us, frame, counters)
        if packet is not None:
            packets.append(packet)
    skipped = (counters.non_ipv4, counters.non_tcp_udp, counters.truncated)
    return packets, skipped, nanosecond, order == ">"


def _reference_parse_frame(ts_us, data, counters):
    if len(data) < 14:
        counters.truncated += 1
        return None
    if struct.unpack(">H", data[12:14])[0] != 0x0800:
        counters.non_ipv4 += 1
        return None
    ip = data[14:]
    if len(ip) < 20:
        counters.truncated += 1
        return None
    if ip[0] >> 4 != 4:
        counters.non_ipv4 += 1
        return None
    ihl = (ip[0] & 0x0F) * 4
    total_length = struct.unpack(">H", ip[2:4])[0]
    protocol = ip[9]
    if len(ip) < total_length or total_length < ihl:
        counters.truncated += 1
        return None
    src_ip = ".".join(str(b) for b in ip[12:16])
    dst_ip = ".".join(str(b) for b in ip[16:20])
    transport = ip[ihl:total_length]
    if protocol == 6:
        if len(transport) < 20:
            counters.truncated += 1
            return None
        src_port, dst_port = struct.unpack(">HH", transport[:4])
        offset = (transport[12] >> 4) * 4
        if offset < 20 or offset > len(transport):
            counters.truncated += 1
            return None
        return ReferencePacket(ts_us, "tcp", src_ip, dst_ip, src_port, dst_port, transport[offset:], len(transport))
    if protocol == 17:
        if len(transport) < 8:
            counters.truncated += 1
            return None
        src_port, dst_port = struct.unpack(">HH", transport[:4])
        return ReferencePacket(ts_us, "udp", src_ip, dst_ip, src_port, dst_port, transport[8:], len(transport))
    counters.non_tcp_udp += 1
    return None


ORACLE_ADDRESSES = [bytes([10, 0, 0, 1]), bytes([10, 0, 0, 2]), bytes([31, 13, 76, 102]), bytes([0, 0, 0, 0]),
                    bytes([255, 255, 255, 255])]


FRAME_FLAWS = ["ethertype", "version", "ihl", "total_length", "data_offset", "cut", "raw"]


@st.composite
def oracle_frames(draw):
    """An Ethernet frame holding IPv4 TCP, UDP or ICMP, with up to two flaws.

    Each flaw sits at one of the parser's edges: another ethertype or IP
    version, an IHL of 0-4, a total length short of a transport header or
    past the frame, a TCP data offset below 20 or past the transport, or a
    frame cut to 0-40 bytes.  Unflawed frames may carry Ethernet padding
    past the IPv4 total length.  Some frames are 0-40 arbitrary bytes.
    """
    flaws = set(draw(st.lists(st.sampled_from(FRAME_FLAWS), max_size=2)))
    if "raw" in flaws:
        return draw(st.binary(max_size=40))
    ethertype = draw(st.sampled_from([0x86DD, 0x0806, 0x8100])) if "ethertype" in flaws else 0x0800
    version = draw(st.sampled_from([0, 6, 15])) if "version" in flaws else 4
    ihl = draw(st.integers(0, 4) if "ihl" in flaws else st.integers(5, 15))
    protocol = draw(st.sampled_from([6, 17, 1]))
    ip_header = bytearray(draw(st.binary(min_size=max(20, 4 * ihl), max_size=max(20, 4 * ihl))))
    ip_header[0] = version << 4 | ihl
    ip_header[9] = protocol
    ip_header[12:16] = draw(st.sampled_from(ORACLE_ADDRESSES))
    ip_header[16:20] = draw(st.sampled_from(ORACLE_ADDRESSES))
    ports = struct.pack(">HH", draw(st.sampled_from([443, 33033, 0])), draw(st.sampled_from([49152, 53, 65535])))
    payload = draw(st.binary(max_size=24))
    if protocol == 6:
        data_offset = draw(st.integers(0, 4) if "data_offset" in flaws else st.integers(5, 15))
        tcp_header = bytearray(ports + draw(st.binary(min_size=max(20, 4 * data_offset) - 4,
                                                      max_size=max(20, 4 * data_offset) - 4)))
        tcp_header[12] = data_offset << 4 | tcp_header[12] & 0x0F
        if "data_offset" in flaws and draw(st.booleans()):  # an offset past the transport
            tcp_header[12] = draw(st.integers(6, 15)) << 4
            tcp_header = tcp_header[:20]
            payload = payload[:draw(st.integers(0, 4 * (tcp_header[12] >> 4) - 21))]
        transport = bytes(tcp_header) + payload
    elif protocol == 17:
        transport = ports + struct.pack(">HH", 8 + len(payload), 0) + payload
    else:
        transport = payload
    body = bytearray(ip_header + transport)
    total_length = len(body)
    if "total_length" in flaws:
        ip_end = 4 * ihl
        total_length = draw(st.sampled_from([max(ip_end - 1, 0), ip_end, ip_end + 7, ip_end + 8, ip_end + 19,
                                             len(body) + 1, None]))
        if total_length is None:
            total_length = draw(st.integers(0, 0xFFFF))
    body[2:4] = struct.pack(">H", total_length)
    frame = bytes(12) + struct.pack(">H", ethertype) + bytes(body)
    if not flaws:
        frame += draw(st.binary(max_size=6))
    elif "cut" in flaws:
        frame = frame[:draw(st.one_of(st.sampled_from([13, 14, 33, 34]), st.integers(0, 40)))]
    return frame


@st.composite
def oracle_captures(draw):
    """Classic pcap bytes in either byte order and resolution, sometimes damaged."""
    order = draw(st.sampled_from("<>"))
    nanosecond = draw(st.booleans())
    magic = 0xA1B23C4D if nanosecond else 0xA1B2C3D4
    header_kind = draw(st.sampled_from(["ok"] * 12 + ["pcapng", "magic", "linktype", "short"]))
    linktype = 101 if header_kind == "linktype" else 1
    header = struct.pack(order + "IHHiIII", magic, 2, 4, 0, 0, 0x40000, linktype)
    if header_kind == "pcapng":
        header = struct.pack(order + "I", 0x0A0D0D0A) + header[4:]
    elif header_kind == "magic":
        header = b"\xd4\xc3\xb2\xa2" + header[4:]
    elif header_kind == "short":
        header = header[:draw(st.integers(0, 23))]
    records = bytearray(header)
    frames = draw(st.lists(oracle_frames(), max_size=8))
    for frame in frames:
        orig_len = len(frame) + draw(st.sampled_from([0] * 8 + [1, 1500]))  # incl_len < orig_len
        ts_frac = draw(st.integers(0, 999_999_999 if nanosecond else 999_999))
        ts_sec = draw(st.integers(0, 0xFFFFFFFF))
        records += struct.pack(order + "IIII", ts_sec, ts_frac, len(frame), orig_len) + frame
    cut = draw(st.sampled_from([0, 0, 0, 1, 15, 16, 17, 30]))  # a cut-off last record
    return bytes(records[:len(records) - cut])


def edge_frames():
    """Every IHL, protocol and TCP data offset against total lengths at each edge, whole and cut."""
    ethernet = bytes(12) + b"\x08\x00"
    for ihl in range(16):
        for protocol in (6, 17, 1):
            for data_offset in range(16) if protocol == 6 else (5,):
                header = bytearray(range(1, 1 + max(20, 4 * ihl)))
                header[0] = 0x40 | ihl
                header[9] = protocol
                transport = bytearray(range(100, 164))
                transport[12] = data_offset << 4
                body = header + transport
                ip_end = 4 * ihl
                totals = {ip_end - 1, ip_end, ip_end + 7, ip_end + 8, ip_end + 19, ip_end + 20,
                          ip_end + 4 * data_offset - 1, ip_end + 4 * data_offset, len(body), len(body) + 1}
                for total in sorted(totals - {-1}):
                    body[2:4] = struct.pack(">H", total)
                    frame = ethernet + body
                    for end in sorted({len(frame), 14 + total, 13 + total, 33, 34, 14, 13}):
                        yield frame[:end]
    for ethertype in (0x86DD, 0x0806, 0x8100):
        yield bytes(12) + struct.pack(">H", ethertype) + bytes([0x45]) + bytes(40)
    for version in (0, 6, 15):
        yield ethernet + bytes([version << 4 | 5]) + bytes(40)


def _reader_outcome(reader, data):
    try:
        return reader(data)
    except Exception as error:
        return type(error)


class TestFrameParsingOracle:
    @FUZZ
    @given(oracle_captures())
    def test_read_pcap_matches_reference(self, data):
        expected = _reader_outcome(reference_read_pcap, data)
        capture = _reader_outcome(read_pcap, data)
        if isinstance(expected, type) or isinstance(capture, type):
            assert capture == expected
            return
        packets, skipped, nanosecond, byte_swapped = expected
        read, counters = read_packets(data)
        assert [astuple(packet) for packet in read] == [tuple(packet) for packet in packets]
        assert astuple(counters) == astuple(capture.skipped) == skipped
        assert (capture.nanosecond, capture.byte_swapped) == (nanosecond, byte_swapped)
        assert capture.flows == assemble_flows(packets)

    def test_every_edge_matches_reference(self):
        frames = list(edge_frames())
        data = capture_bytes([(T0 + i, frame) for i, frame in enumerate(frames)])
        packets, skipped, _, _ = reference_read_pcap(data)
        read, counters = read_packets(data)
        capture = read_pcap(data)
        assert [astuple(packet) for packet in read] == [tuple(p) for p in packets]
        assert astuple(counters) == astuple(capture.skipped) == skipped
        assert len(read) + sum(skipped) == len(frames)
        assert read and all(skipped)
        assert capture.flows == assemble_flows(packets)

    def test_benchmark_capture_shapes_match_reference(self):
        frames = [(T0 + i, make_tcp_packet(CLIENT, 49152 + i % 3, "31.13.76.102", 443, make_client_hello("x.com")))
                  for i in range(20)]
        frames += [(T0 + 50 + i, make_udp_packet("31.13.76.102", 53, CLIENT, 5000 + i % 2, b"q" * i))
                   for i in range(10)]
        for byte_swapped in (False, True):
            for nanosecond in (False, True):
                data = capture_bytes(frames, byte_swapped=byte_swapped, nanosecond=nanosecond)
                packets, skipped, _, _ = reference_read_pcap(data)
                read, _ = read_packets(data)
                capture = read_pcap(data)
                assert [astuple(packet) for packet in read] == [tuple(p) for p in packets]
                assert astuple(capture.skipped) == skipped == (0, 0, 0)
                assert capture.flows == assemble_flows(packets)

    def test_one_string_per_address(self):
        frames = [(T0 + i, make_udp_packet(CLIENT, 1000 + i, "10.0.0.1", 53)) for i in range(5)]
        packets, _ = read_packets(capture_bytes(frames))
        assert len({id(packet.src_ip) for packet in packets}) == 1
        assert len({id(packet.dst_ip) for packet in packets}) == 1
