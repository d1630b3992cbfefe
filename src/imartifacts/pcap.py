"""Classic pcap reading, flow assembly, and endpoint labeling.

Reads saved captures (Ethernet link type, both byte orders, micro- or
nanosecond resolution), folds packets into bidirectional flows, pulls
TLS server names out of ClientHello payloads, and labels each flow
against a catalog of known chat-service endpoints plus one port
heuristic.

The shipped catalog reflects endpoint observations at one point in time
from one geography; CDN assignments rot, so entries can be replaced
from a text file, and resolver-dependent rows are flagged.
"""

from __future__ import annotations

import functools
import io
import ipaddress
import struct
from dataclasses import dataclass

from .model import ExtractionError, Timestamp, ts_from_unix

__all__ = [
    "CatalogEntry",
    "CatalogIndex",
    "Flow",
    "FlowLabel",
    "LABELS",
    "LABEL_APPS",
    "NotPcap",
    "Packet",
    "PcapCapture",
    "SUPERNODE_LOOKUP_PORT",
    "assemble_flows",
    "builtin_catalog",
    "catalog_index",
    "extract_sni",
    "label_flow",
    "load_catalog",
    "read_pcap",
]


class NotPcap(ExtractionError):
    """Input is not a classic pcap capture."""


MAGIC_US = 0xA1B2C3D4
MAGIC_NS = 0xA1B23C4D
PCAPNG_MAGIC = 0x0A0D0D0A
LINKTYPE_ETHERNET = 1

SUPERNODE_LOOKUP_PORT = 33033


@dataclass(frozen=True)
class Packet:
    """One accepted IPv4/TCP-or-UDP packet."""

    ts_us: int  # microseconds since the epoch
    proto: str  # "tcp" or "udp"
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    payload: bytes  # transport payload
    ip_payload_len: int  # transport header + payload, for byte accounting


@dataclass
class SkipCounters:
    non_ipv4: int = 0
    non_tcp_udp: int = 0
    truncated: int = 0


@dataclass
class PcapCapture:
    packets: list[Packet]
    skipped: SkipCounters
    nanosecond: bool
    byte_swapped: bool


def _open_source(source):
    if isinstance(source, (bytes, bytearray, memoryview)):
        return io.BytesIO(bytes(source))
    if hasattr(source, "read"):
        return source
    return open(source, "rb")


_PORTS = struct.Struct(">HH")


class _DottedQuads(dict):
    """Four raw address bytes to their dotted-quad text, made on first sight."""

    def __missing__(self, raw: bytes) -> str:
        text = self[raw] = "%d.%d.%d.%d" % tuple(raw)
        return text


def read_pcap(source) -> PcapCapture:
    """Read a classic pcap capture into accepted packets plus skip counts.

    Non-IPv4 frames and non-TCP/UDP datagrams are counted, not yielded;
    a record cut short by the end of file or by the snap length is
    counted as truncated.
    """
    stream = _open_source(source)
    close = not hasattr(source, "read") and not isinstance(source, (bytes, bytearray, memoryview))
    try:
        header = stream.read(24)
        if len(header) < 24:
            raise NotPcap("file too short for a capture header")
        magic = struct.unpack("<I", header[:4])[0]
        if magic == PCAPNG_MAGIC or struct.unpack(">I", header[:4])[0] == PCAPNG_MAGIC:
            raise NotPcap("pcapng captures are not supported; convert to classic pcap")
        nanosecond = False
        if magic == MAGIC_US:
            order = "<"
        elif magic == MAGIC_NS:
            order = "<"
            nanosecond = True
        else:
            big = struct.unpack(">I", header[:4])[0]
            if big == MAGIC_US:
                order = ">"
            elif big == MAGIC_NS:
                order = ">"
                nanosecond = True
            else:
                raise NotPcap("unrecognized magic 0x%08X" % magic)
        linktype = struct.unpack(order + "I", header[20:24])[0]
        if linktype != LINKTYPE_ETHERNET:
            raise NotPcap("unsupported link type %d" % linktype)

        packets: list[Packet] = []
        counters = SkipCounters()
        addresses = _DottedQuads()  # one str per distinct address in this capture
        read = stream.read
        unpack_record = struct.Struct(order + "IIII").unpack
        append = packets.append
        while True:
            record = read(16)
            if not record:
                break
            if len(record) < 16:
                counters.truncated += 1
                break
            ts_sec, ts_frac, incl_len, orig_len = unpack_record(record)
            data = read(incl_len)
            if len(data) < incl_len:
                counters.truncated += 1
                break
            if incl_len < orig_len:
                counters.truncated += 1
                continue
            ts_us = ts_sec * 1_000_000 + (ts_frac // 1000 if nanosecond else ts_frac)
            packet = _parse_frame(ts_us, data, counters, addresses)
            if packet is not None:
                append(packet)
        return PcapCapture(
            packets=packets,
            skipped=counters,
            nanosecond=nanosecond,
            byte_swapped=(order == ">"),
        )
    finally:
        if close:
            stream.close()


def _parse_frame(ts_us: int, data: bytes, counters: SkipCounters, addresses: _DottedQuads):
    # Fields are read at fixed offsets into the Ethernet frame: the IPv4
    # header starts at 14 and the transport header at 14 + ihl.  Only the
    # payload and the two address keys are sliced out.
    size = len(data)
    if size < 14:
        counters.truncated += 1
        return None
    if data[12] != 0x08 or data[13] != 0x00:  # ethertype IPv4
        counters.non_ipv4 += 1
        return None
    if size < 34:
        counters.truncated += 1
        return None
    version_ihl = data[14]
    if version_ihl >> 4 != 4:
        counters.non_ipv4 += 1
        return None
    ihl = (version_ihl & 0x0F) * 4
    total_length = data[16] << 8 | data[17]
    end = 14 + total_length
    if size < end or total_length < ihl:
        counters.truncated += 1
        return None
    protocol = data[23]
    start = 14 + ihl  # the transport header
    transport_len = total_length - ihl
    if protocol == 6:
        if transport_len < 20:
            counters.truncated += 1
            return None
        offset = (data[start + 12] >> 4) * 4
        if offset < 20 or offset > transport_len:
            counters.truncated += 1
            return None
        src_port, dst_port = _PORTS.unpack_from(data, start)
        return Packet(ts_us, "tcp", addresses[data[26:30]], addresses[data[30:34]],
                      src_port, dst_port, data[start + offset:end], transport_len)
    if protocol == 17:
        if transport_len < 8:
            counters.truncated += 1
            return None
        src_port, dst_port = _PORTS.unpack_from(data, start)
        return Packet(ts_us, "udp", addresses[data[26:30]], addresses[data[30:34]],
                      src_port, dst_port, data[start + 8:end], transport_len)
    counters.non_tcp_udp += 1
    return None


# ---------------------------------------------------------------------------
# Flow assembly


@dataclass
class Flow:
    """One bidirectional conversation, endpoints in canonical order."""

    proto: str
    endpoint_a: tuple[str, int]
    endpoint_b: tuple[str, int]
    packets_ab: int = 0
    packets_ba: int = 0
    bytes_ab: int = 0
    bytes_ba: int = 0
    first_ts_us: int = 0
    last_ts_us: int = 0
    sni: str | None = None

    @property
    def first_seen(self) -> Timestamp:
        return ts_from_unix(self.first_ts_us // 1000, "millis")

    @property
    def total_packets(self) -> int:
        return self.packets_ab + self.packets_ba

    @property
    def total_bytes(self) -> int:
        return self.bytes_ab + self.bytes_ba


def assemble_flows(packets) -> list[Flow]:
    """Fold packets into flows keyed by the canonicalized 5-tuple.

    The lexicographically smaller (ip, port) endpoint becomes side a, so
    mirrored captures produce the same flow set.  Flows come back in
    first-seen order.
    """
    flows: dict[tuple, Flow] = {}
    for packet in packets:
        src = (packet.src_ip, packet.src_port)
        dst = (packet.dst_ip, packet.dst_port)
        a, b = (src, dst) if src <= dst else (dst, src)
        key = (packet.proto, a, b)
        ts_us = packet.ts_us
        flow = flows.get(key)
        if flow is None:
            flow = flows[key] = Flow(
                proto=packet.proto,
                endpoint_a=a,
                endpoint_b=b,
                first_ts_us=ts_us,
                last_ts_us=ts_us,
            )
        elif ts_us < flow.first_ts_us:
            flow.first_ts_us = ts_us
        elif ts_us > flow.last_ts_us:
            flow.last_ts_us = ts_us
        if src == flow.endpoint_a:
            flow.packets_ab += 1
            flow.bytes_ab += packet.ip_payload_len
        else:
            flow.packets_ba += 1
            flow.bytes_ba += packet.ip_payload_len
        if flow.sni is None and packet.proto == "tcp" and packet.payload:
            flow.sni = extract_sni(packet.payload)
    return list(flows.values())


# ---------------------------------------------------------------------------
# TLS ClientHello server name


def extract_sni(payload: bytes) -> str | None:
    """First server name from a TLS ClientHello, if the bytes are one."""
    try:
        if len(payload) < 5 or payload[0] != 0x16:
            return None
        record_len = struct.unpack(">H", payload[3:5])[0]
        body = payload[5 : 5 + record_len]
        if len(body) < 4 or body[0] != 0x01:
            return None
        hs_len = int.from_bytes(body[1:4], "big")
        hello = body[4 : 4 + hs_len]
        pos = 2 + 32  # client version + random
        sid_len = hello[pos]
        pos += 1 + sid_len
        cs_len = struct.unpack(">H", hello[pos : pos + 2])[0]
        pos += 2 + cs_len
        comp_len = hello[pos]
        pos += 1 + comp_len
        if pos + 2 > len(hello):
            return None
        ext_total = struct.unpack(">H", hello[pos : pos + 2])[0]
        pos += 2
        end = min(pos + ext_total, len(hello))
        while pos + 4 <= end:
            ext_type, ext_len = struct.unpack(">HH", hello[pos : pos + 4])
            pos += 4
            ext = hello[pos : pos + ext_len]
            pos += ext_len
            if ext_type != 0 or len(ext) < 5:
                continue
            name_type = ext[2]
            name_len = struct.unpack(">H", ext[3:5])[0]
            if name_type != 0:
                continue
            name = ext[5 : 5 + name_len]
            if len(name) == name_len and name:
                return name.decode("ascii", errors="replace")
        return None
    except (IndexError, struct.error):
        return None


# ---------------------------------------------------------------------------
# Endpoint catalog

LABELS = (
    "FacebookChat",
    "FacebookUpload",
    "FacebookCdnDownload",
    "FacebookCore",
    "AkamaiCdn",
    "SymantecOcsp",
    "SkypeRst",
    "SkypeSupernodeLookup",
    "MicrosoftLive",
    "GlobalSignOcsp",
    "EdgeCastCrl",
    "Other",
)

# Which app a label belongs to, for timeline attribution.
LABEL_APPS = {
    "FacebookChat": "facebook",
    "FacebookUpload": "facebook",
    "FacebookCdnDownload": "facebook",
    "FacebookCore": "facebook",
    "SkypeRst": "skype",
    "SkypeSupernodeLookup": "skype",
}


@dataclass(frozen=True)
class CatalogEntry:
    match: str  # exact IPv4 or CIDR prefix
    label: str
    owner: str
    urls: tuple[str, ...] = ()
    locale_dependent: bool = False  # resolver-geography artifact, not global

    def __post_init__(self):
        if self.label not in LABELS:
            raise ValueError("unknown label %r" % self.label)
        if "/" in self.match:
            network = ipaddress.ip_network(self.match, strict=True)
            if not 8 <= network.prefixlen <= 32:
                raise ValueError("prefix length %d outside 8..32" % network.prefixlen)
        else:
            ipaddress.IPv4Address(self.match)

    @property
    def is_cidr(self) -> bool:
        return "/" in self.match


def builtin_catalog() -> tuple[CatalogEntry, ...]:
    """Endpoint observations for the two chat apps, as captured.

    Chat, upload, CDN, and core service addresses; certificate-check and
    CDN infrastructure; the Skype login/directory servers and the rst
    pool.  The 115.164.* rows came via one ISP's resolvers and only make
    sense for captures from that locale.
    """
    entry = CatalogEntry
    return (
        # Conversation endpoints.
        entry("31.13.76.102", "FacebookChat", "Facebook USA",
              ("star.c10r.facebook.com", "5-edge-chat.facebook.com")),
        entry("31.13.79.246", "FacebookChat", "Facebook Singapore",
              ("star.c10r.facebook.com", "api.facebook.com", "star.facebook.com",
               "5-edge-chat.facebook.com", "upload.facebook.com", "www.facebook.com")),
        # Upload and core service.
        entry("31.13.70.1", "FacebookUpload", "Facebook USA",
              ("star.c10r.facebook.com", "api.facebook.com", "www.facebook.com",
               "star.facebook.com", "upload.facebook.com")),
        entry("173.252.103.16", "FacebookCore", "Facebook Inc.",
              ("orcart.vv.facebook.com", "orcart.facebook.com")),
        entry("173.252.120.6", "FacebookCore", "Facebook Inc.", ("www.facebook.com",)),
        # Attachment CDN.
        entry("31.13.70.7", "FacebookCdnDownload", "Facebook USA",
              ("scontent.xx.fbcdn.net", "cdn.fbsbx.com")),
        entry("31.13.67.7", "FacebookCdnDownload", "Facebook Malaysia", ("scontent-a-kul.xx.fbcdn.net",)),
        entry("31.13.67.23", "FacebookCdnDownload", "Facebook Malaysia", ("scontent-a-kul.xx.fbcdn.net",)),
        # Certificate status and shared CDN infrastructure.
        entry("23.58.43.27", "SymantecOcsp", "Akamai Technologies Inc.",
              ("e8218.ce.akamaiedge.net", "ocsp.ws.symantec.com.edgekey.net",
               "gtssl-ocsp.geotrust.com", "g.symcd.com", "ocsp.verisign.com")),
        entry("23.62.109.216", "AkamaiCdn", "Akamai Technologies Inc.",
              ("a2047.dspl.akamai.net", "fbcdn-profile-a.akamaihd.net")),
        entry("23.62.109.87", "AkamaiCdn", "Akamai Technologies Inc.",
              ("a591.dspda2.akamai.net", "fbcdn-vthumb-a.akamaihd.net.edgesuite.net")),
        entry("23.58.236.138", "AkamaiCdn", "Akamai Technologies Inc.",
              ("e4593.g.akamaiedge.net", "wildcard.skype.com.edgekey.net")),
        entry("23.58.154.154", "AkamaiCdn", "Akamai Technologies Inc.",
              ("e8011.g.akamaiedge.net", "wildcard.msads.net.edgekey.net")),
        entry("108.162.232.204", "GlobalSignOcsp", "CloudFlare Inc.",
              ("ocsp.globalsign.com", "ocsp2.globalsign.com")),
        entry("108.162.232.199", "GlobalSignOcsp", "CloudFlare Inc.",
              ("ocsp.globalsign.com", "ocsp2.globalsign.com")),
        entry("192.229.145.200", "EdgeCastCrl", "EdgeCast Networks Inc.",
              ("cs1.wpc.v0cdn.net", "az361816.vo.msecnd.net", "certrevoc.vo.msecnd.net",
               "msclr.microsoft.com")),
        # Skype login, directory, and messaging front ends.
        entry("65.54.184.60", "MicrosoftLive", "Microsoft Corp.",
              ("baymsg1010611.gateway.messenger.live.com",)),
        entry("65.55.68.104", "MicrosoftLive", "Microsoft Corp.",
              ("activesync.glbdns2.microsoft.com", "m.hotmail.com")),
        entry("65.55.246.85", "MicrosoftLive", "Microsoft Corp.",
              ("proxy-blu-people.directory.live.com.akadns.net",
               "proxy-blu-people.directory.live.com")),
        entry("65.55.246.149", "MicrosoftLive", "Microsoft Corp.",
              ("proxy-blu-people.directory.live.com.akadns.net",
               "proxy-blu-people.directory.live.com")),
        entry("168.63.212.78", "MicrosoftLive", "Microsoft Corp.",
              ("skypeecs-prod-ase-0.cloudapp.net", "a.config.skype.trafficmanager.net")),
        entry("137.116.32.77", "MicrosoftLive", "Microsoft Corp.",
              ("skypeecs-prod-ase-0.cloudapp.net", "a.config.skype.trafficmanager.net")),
        entry("91.190.216.0/24", "SkypeRst", "M.O.D.A.",
              ("rstwh.skype-cr.akadns.net", "1007.0.1.3.9.rst15.r.skype.net")),
        entry("91.190.218.0/24", "SkypeRst", "M.O.D.A.",
              ("rstwh.skype-cr.akadns.net", "1007.0.1.3.9.rst15.r.skype.net")),
        # Resolver-local CDN assignments observed through one ISP.
        entry("115.164.13.0/24", "AkamaiCdn", "DiGi Telecommunications Sdn Bhd",
              ("fbstatic-a.akamaihd.net.edgesuite.net", "fbcdn-photos-e-a.akamaihd.net.edgesuite.net"),
              locale_dependent=True),
        entry("115.164.141.0/24", "AkamaiCdn", "DiGi Telecommunications Sdn Bhd",
              ("fbcdn-sphotos-e-a.akamaihd.net.edgesuite.net",
               "fbcdn-sphotos-f-a.akamaihd.net.edgesuite.net"),
              locale_dependent=True),
    )


def load_catalog(source) -> tuple[CatalogEntry, ...]:
    """Read catalog entries from override text: ip-or-cidr, label, owner, urls.

    A str is the catalog text itself, never a file name; a Path or an
    open text stream is read.  Owner spaces are written as underscores;
    the fourth column is an optional comma-separated URL list.  Blank
    lines and '#' comments are skipped; anything else malformed raises
    with its line number.
    """
    if hasattr(source, "read"):
        text = source.read()
    elif hasattr(source, "read_text"):
        text = source.read_text(encoding="utf-8")
    else:
        text = source
    entries = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) not in (3, 4):
            raise ValueError("line %d: expected 'match label owner [urls]'" % line_no)
        match, label, owner = parts[:3]
        urls = tuple(u for u in parts[3].split(",") if u) if len(parts) == 4 else ()
        try:
            entries.append(CatalogEntry(match, label, owner.replace("_", " "), urls))
        except ValueError as exc:
            raise ValueError("line %d: %s" % (line_no, exc)) from exc
    return tuple(entries)


@dataclass(frozen=True)
class FlowLabel:
    label: str
    basis: str  # ip_catalog / port_heuristic / sni / unlabeled
    detail: str

    def __post_init__(self):
        if (self.basis == "unlabeled") != (self.label == "Other"):
            raise ValueError("unlabeled basis must pair with the Other label")


def _rank(entry: CatalogEntry) -> tuple[str, str, str]:
    # Among several matching entries the lowest rank wins, so a label
    # never depends on the order the catalog lists its entries in.
    return (entry.label, entry.owner, entry.match)


class CatalogIndex:
    """Catalog entries keyed for labeling: one dict hit per lookup.

    by_address maps an exact IPv4 address and by_host a casefolded
    server name to its best entry; networks holds the IPv4 CIDR entries
    as (network, mask, entry) integers, best first.  Read-only once built.
    """

    def __init__(self, entries):
        self.by_address: dict[str, CatalogEntry] = {}
        self.by_host: dict[str, CatalogEntry] = {}
        networks = []
        for entry in sorted(entries, key=_rank):
            for url in entry.urls:
                self.by_host.setdefault(url.casefold(), entry)
            if not entry.is_cidr:
                self.by_address.setdefault(entry.match, entry)
                continue
            network = ipaddress.ip_network(entry.match)
            if network.version == 4:  # an IPv6 prefix never covers an IPv4 flow
                networks.append((int(network.network_address), int(network.netmask), entry))
        self.networks: tuple[tuple[int, int, CatalogEntry], ...] = tuple(networks)


@functools.lru_cache(maxsize=1)
def _builtin_index() -> CatalogIndex:
    return CatalogIndex(builtin_catalog())


def catalog_index(catalog=None) -> CatalogIndex:
    """Index catalog entries; None gives the builtin catalog's, built once per process.

    An index passes through unchanged, so callers labeling many flows
    build it once and hand it to label_flow.
    """
    if catalog is None:
        return _builtin_index()
    if isinstance(catalog, CatalogIndex):
        return catalog
    return CatalogIndex(catalog)


# Each octet value in the one spelling ipaddress accepts for it: decimal,
# with no sign, space or leading zero.
_OCTETS = {str(n): n for n in range(256)}


def _ipv4_int(ip) -> int:
    """int(ipaddress.IPv4Address(ip)), read from a table for a dotted quad."""
    try:
        a, b, c, d = map(_OCTETS.__getitem__, ip.split("."))
    except (AttributeError, KeyError, TypeError, ValueError):
        return int(ipaddress.IPv4Address(ip))  # other forms are accepted or rejected as before
    return a << 24 | b << 16 | c << 8 | d


def label_flow(flow: Flow, catalog=None) -> FlowLabel:
    """Label one flow: SNI beats exact IP beats CIDR beats the port rule.

    catalog is an iterable of entries, a CatalogIndex, or None for the
    builtin catalog.
    """
    index = catalog_index(catalog)
    if flow.sni:
        best = index.by_host.get(flow.sni.casefold())
        if best is not None:
            return FlowLabel(best.label, "sni", "server name %s (%s)" % (flow.sni, best.owner))
    ips = (flow.endpoint_a[0], flow.endpoint_b[0])
    exact = [entry for entry in map(index.by_address.get, ips) if entry is not None]
    if exact:
        best = min(exact, key=_rank)
        return FlowLabel(best.label, "ip_catalog", "address %s (%s)" % (best.match, best.owner))
    if index.networks:
        addresses = [_ipv4_int(ip) for ip in ips]
        for network, mask, best in index.networks:
            if any(address & mask == network for address in addresses):
                return FlowLabel(best.label, "ip_catalog", "network %s (%s)" % (best.match, best.owner))
    if flow.proto == "tcp" and SUPERNODE_LOOKUP_PORT in (flow.endpoint_a[1], flow.endpoint_b[1]):
        return FlowLabel(
            "SkypeSupernodeLookup", "port_heuristic", "tcp port %d" % SUPERNODE_LOOKUP_PORT
        )
    return FlowLabel("Other", "unlabeled", "no catalog match")
