import io
import random

import pytest
from hypothesis import given, settings, strategies as st

from imartifacts.carver import (
    DEFAULT_CHUNK_SIZE,
    CarvedObject,
    Signature,
    StreamReadError,
    builtin_signatures,
    carve,
    scan_stream,
)
from imartifacts.facebook import extract_chat_json
from imartifacts.sampledata import CHAT_PUSH_JSON

CONFIG_DOC = (
    b'<?xml version="1.0"?>\r\n<config version="1.0" serial="78" timestamp="1421686251.63">\r\n'
    b"  <UI>\r\n    <Installed>2</Installed>\r\n  </UI>\r\n</config>\r\n"
)
SHARED_DOC = (
    b'<?xml version="1.0"?>\r\n<config version="1.0" serial="33" timestamp="1421686251.00">\r\n'
    b"  <Lib>\r\n    <Connection>\r\n      <ListeningPort>37439</ListeningPort>\r\n"
    b"    </Connection>\r\n  </Lib>\r\n</config>\r\n"
)


def carve_bytes(data, signatures=None, truncated=None):
    """Whole-buffer reference carve, written apart from carver: what carve must find in data.

    Each header occurrence, overlapping ones too, in offset order (at one
    offset, in the order headers first appear among the signatures), yields
    the document ending at the nearest footer start of a signature with that
    header, within its max_length; the first listed signature wins a tie.  A
    header with no such footer is appended to truncated.
    """
    signatures = list(builtin_signatures() if signatures is None else signatures)
    headers = list(dict.fromkeys(sig.header for sig in signatures))
    hits = []
    for rank, header in enumerate(headers):
        at = data.find(header)
        while at != -1:
            hits.append((at, rank))
            at = data.find(header, at + 1)
    objects = []
    for at, rank in sorted(hits):
        header = headers[rank]
        footers = [(data.find(sig.footer, at + len(header), at + sig.max_length), index)
                   for index, sig in enumerate(signatures) if sig.header == header]
        found = [footer for footer in footers if footer[0] != -1]
        if not found:
            if truncated is not None:
                truncated.append(at)
            continue
        start, index = min(found)
        sig = signatures[index]
        objects.append(CarvedObject(sig.name, at, data[at:start + len(sig.footer)]))
    return objects


class TestSignatures:
    def test_builtin_shapes(self):
        sigs = builtin_signatures()
        assert [s.name for s in sigs] == ["config-xml", "shared-xml"]
        assert all(s.header == b'<?xml version="' for s in sigs)
        assert sigs[0].footer == b"</UI>\r\n</config>\r\n"
        assert sigs[1].footer == b"</Lib>\r\n</config>\r\n"
        assert all(s.max_length == 1024 * 1024 for s in sigs)

    def test_invalid_signature_rejected(self):
        with pytest.raises(ValueError):
            Signature("x", b"", b"end", 100)
        with pytest.raises(ValueError):
            Signature("x", b"head", b"end", 7)


class TestCarveBytes:
    def test_single_document(self):
        data = b"\x00" * 100 + CONFIG_DOC + b"\x00" * 50
        objects = carve(data)
        assert len(objects) == 1
        assert objects[0].signature_name == "config-xml"
        assert objects[0].offset == 100
        assert objects[0].payload == CONFIG_DOC

    def test_both_documents_disambiguated_by_footer(self):
        data = b"\xaa" * 10 + CONFIG_DOC + b"\xbb" * 33 + SHARED_DOC + b"\xcc" * 5
        objects = carve(data)
        assert [(o.signature_name, o.offset) for o in objects] == [
            ("config-xml", 10),
            ("shared-xml", 10 + len(CONFIG_DOC) + 33),
        ]
        assert objects[0].payload == CONFIG_DOC
        assert objects[1].payload == SHARED_DOC

    def test_header_without_footer_is_truncated_candidate(self):
        truncated = []
        data = b"\x00" * 8 + b'<?xml version="1.0"?><config>' + b"\x00" * 64
        assert carve(data, truncated=truncated) == []
        assert truncated == [8]

    def test_footer_without_header_yields_nothing(self):
        assert carve(b"junk</UI>\r\n</config>\r\njunk") == []

    def test_max_length_respected(self):
        sig = Signature("tiny", b"HDR", b"FTR", 16)
        near = b"..HDR123456FTR.."
        far = b"..HDR" + b"x" * 12 + b"FTR"
        assert len(carve(near, [sig])) == 1
        assert carve(far, [sig]) == []

    def test_nearest_footer_wins(self):
        sig = Signature("t", b"HDR", b"FTR", 64)
        data = b"HDR..FTR..FTR"
        (obj,) = carve(data, [sig])
        assert obj.payload == b"HDR..FTR"

    def test_payload_invariants(self):
        data = CONFIG_DOC + SHARED_DOC
        for obj in carve(data):
            assert obj.payload.startswith(b'<?xml version="')
            assert obj.payload.endswith((b"</UI>\r\n</config>\r\n", b"</Lib>\r\n</config>\r\n"))
            assert len(obj.payload) <= 1024 * 1024


def random_plant(rng, sigs, size):
    """Random noise buffer with documents of the given signatures planted."""
    noise = bytes(rng.choice(b" abcdefgh\x00\xff") for _ in range(size))
    data = bytearray(noise)
    expected = []
    position = 0
    while position + 40 < size:
        sig = rng.choice(sigs)
        body = bytes(rng.choice(b"qrstuv") for _ in range(rng.randrange(0, sig.max_length - len(sig.header) - len(sig.footer))))
        doc = sig.header + body + sig.footer
        if position + len(doc) > size:
            break
        data[position : position + len(doc)] = doc
        expected.append((sig.name, position, bytes(doc)))
        position += len(doc) + rng.randrange(1, 50)
    return bytes(data), expected


class TestChunkedEquivalence:
    SIGS = (
        Signature("alpha", b"<<HDR", b"END-A>>", 300),
        Signature("beta", b"<<HDR", b"END-B>>", 200),
    )

    def test_document_straddling_chunk_boundary(self):
        doc = b"<<HDR" + b"m" * 100 + b"END-A>>"
        data = b"\x00" * 4090 + doc + b"\x00" * 4096
        whole = carve_bytes(data, self.SIGS)
        chunked = carve(io.BytesIO(data), self.SIGS, chunk_size=4096)
        assert whole == chunked
        assert len(whole) == 1

    def test_random_buffers_agree(self):
        rng = random.Random(42)
        for _ in range(40):
            data, _ = random_plant(rng, self.SIGS, rng.randrange(500, 5000))
            chunk = rng.choice([64, 128, 333, 1024, 4096])
            assert carve(io.BytesIO(data), self.SIGS, chunk_size=chunk) == carve_bytes(data, self.SIGS)

    def test_planted_documents_recovered(self):
        rng = random.Random(7)
        data, expected = random_plant(rng, self.SIGS, 4000)
        got = [(o.signature_name, o.offset, o.payload) for o in carve(data, self.SIGS)]
        for plant in expected:
            assert plant in got


class FailingStream:
    def __init__(self, payload, fail_after):
        self._stream = io.BytesIO(payload)
        self._fail_after = fail_after
        self._reads = 0

    def read(self, size):
        self._reads += 1
        if self._reads > self._fail_after:
            raise OSError("simulated read failure")
        return self._stream.read(size)


# The two raw scanners, each of which finds something in SCANNED.
SCANNERS = {"carve": carve, "extract_chat_json": lambda source: list(extract_chat_json(source))}
SCANNED = b"\x00" * 100 + CONFIG_DOC + b" junk " + CHAT_PUSH_JSON.encode("utf-8") + b"\x00" * 100


class TestStreamErrors:
    @pytest.mark.parametrize("name", list(SCANNERS))
    def test_one_input_rule(self, name):
        """Bytes, bytearray, memoryview and a stream scan alike; a failed read is a StreamReadError."""
        scan = SCANNERS[name]
        expected = scan(SCANNED)
        assert expected
        for source in (bytearray(SCANNED), memoryview(SCANNED), io.BytesIO(SCANNED)):
            assert scan(source) == expected
        with pytest.raises(StreamReadError, match="^stream read failed: simulated read failure$"):
            scan(FailingStream(SCANNED, fail_after=1))


class RecordingStream(io.BytesIO):
    def __init__(self, payload):
        super().__init__(payload)
        self.sizes = []

    def read(self, size=-1):
        self.sizes.append(size)
        return super().read(size)

    def readinto(self, buffer):
        self.sizes.append(len(buffer))
        return super().readinto(buffer)


class TestDefaultReads:
    @pytest.mark.parametrize("name, chunks", [("carve", 4), ("extract_chat_json", 1)])
    def test_reads_are_well_over_what_a_round_keeps(self, name, chunks):
        """carve keeps up to 1 MiB, its longest document, each round, so it reads 4 MiB; extract_chat_json reads 1 MiB."""
        stream = RecordingStream(SCANNED)
        SCANNERS[name](stream)
        assert set(stream.sizes) == {chunks * DEFAULT_CHUNK_SIZE}


class TestScanMemory:
    """A raw scan holds one buffer of a read plus what a round keeps, whatever the stream's size."""

    SLACK = 192 << 10  # bytes: the one time the buffer grows back by what a round keeps, and small objects

    def traced_peak(self, path):
        import tracemalloc

        with open(path, "rb") as stream:
            tracemalloc.start()
            try:
                fragments = list(extract_chat_json(stream))
                return tracemalloc.get_traced_memory()[1], fragments
            finally:
                tracemalloc.stop()

    def test_chat_scan_peak_does_not_grow_with_the_filler(self, tmp_path):
        from imartifacts.facebook import CHAT_MARKER, CHAT_WINDOW

        push = CHAT_PUSH_JSON.encode("utf-8")
        peaks = []
        for mib in (4, 32):
            path = tmp_path / ("filler-%d.bin" % mib)
            with open(path, "wb") as out:
                out.write(push)
                out.truncate(mib << 20)  # zero filler, left sparse on disk
                out.seek(0, io.SEEK_END)
                out.write(push)
            peak, fragments = self.traced_peak(path)
            assert [fragment.offset for fragment in fragments] == [0, mib << 20]
            peaks.append(peak)
        keep = 2 * CHAT_WINDOW + len(CHAT_MARKER)
        assert abs(peaks[1] - peaks[0]) < 16 << 10
        assert max(peaks) < DEFAULT_CHUNK_SIZE + keep + self.SLACK


class TestValueObjects:
    def test_carved_object_hash(self):
        obj = CarvedObject("config-xml", 0, b"abc")
        assert obj.sha256() == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"


# ---------------------------------------------------------------------------
# Chunked scans equal whole-buffer scans on any bytes.  Examples are derived
# from the test's source and no example database is kept, so every run
# checks the same inputs.

PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None)

PROPERTY_SIGS = TestChunkedEquivalence.SIGS + (Signature("gamma", b"GH", b"GF", 40),)
PROPERTY_TERMS = [b"needleX", b"nee", b"dleX", b"X"]  # overlapping patterns
# Whole and partial headers, footers and terms, so any of them can fall
# across a chunk boundary, between filler.
TOKENS = [b"<<HDR", b"<<H", b"DR", b"END-A>>", b"END-B>>", b"END-", b"GH", b"GF", b"G",
          b"needleX", b"need", b"leX", b"\x00", b" ", b"x" * 37]


def scan_hits(source, lookback, chunk_size):
    """(offset, pattern index, bytes around it) of each PROPERTY_TERMS occurrence scan_stream visits.

    The bytes run from lookback before the occurrence to lookback past its
    end, clipped only where the stream starts or ends.
    """
    hits = []
    for buf, base, rel, index in scan_stream(source, PROPERTY_TERMS, lookback, lookback, chunk_size):
        end = rel + len(PROPERTY_TERMS[index]) + lookback
        hits.append((base + rel, index, bytes(buf[max(rel - lookback, 0):end])))
    return hits


@st.composite
def chunked_stream(draw):
    """Bytes of tokens and noise, a chunk size, and a token planted across a chunk boundary."""
    pieces = draw(st.lists(st.one_of(st.sampled_from(TOKENS), st.binary(max_size=24)), max_size=120))
    data = bytearray(b"".join(pieces))
    chunk_size = draw(st.one_of(st.integers(1, 64), st.integers(1, 4096)))
    token = draw(st.sampled_from(TOKENS[:10]))
    boundary = chunk_size * draw(st.integers(1, 4))
    at = boundary - draw(st.integers(1, len(token)))
    if at <= len(data):
        data[at:at + len(token)] = token
    return bytes(data), chunk_size


class TestChunkedProperty:
    @PROPERTY
    @given(case=chunked_stream())
    def test_carve_equals_carve_bytes(self, case):
        data, chunk_size = case
        truncated_chunked, truncated_whole = [], []
        chunked = carve(io.BytesIO(data), PROPERTY_SIGS, chunk_size, truncated_chunked)
        assert chunked == carve_bytes(data, PROPERTY_SIGS, truncated=truncated_whole)
        assert truncated_chunked == truncated_whole

    @PROPERTY
    @given(case=chunked_stream(), lookback=st.one_of(st.integers(0, 8), st.integers(0, 300)))
    def test_scan_stream_equals_one_chunk_scan(self, case, lookback):
        data, chunk_size = case
        chunked = scan_hits(io.BytesIO(data), lookback, chunk_size)
        assert chunked == scan_hits(data, lookback, max(len(data), 1))
