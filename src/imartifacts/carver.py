"""Carve structured documents and keyword hits out of raw byte streams.

Memory dumps and unallocated space are scanned for known header/footer
signature pairs and for keyword remnants.  Scanning is chunked so streams
larger than memory are handled; a retained overlap guarantees the chunked
result equals a whole-buffer scan.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

from ._scan import find_multi
from .model import ExtractionError

__all__ = [
    "CarvedObject",
    "DEFAULT_TERMS",
    "KeywordHit",
    "Signature",
    "StreamReadError",
    "builtin_signatures",
    "carve",
    "scan_keywords",
    "scan_stream",
]

DEFAULT_CHUNK_SIZE = 4 * 1024 * 1024
MAX_XML_DOCUMENT = 1024 * 1024  # carved app XML never approaches this

XML_DECLARATION = b'<?xml version="'


class StreamReadError(ExtractionError):
    """Reading the input stream failed."""


@dataclass(frozen=True)
class Signature:
    """A carvable document shape: header, footer and a length bound."""

    name: str
    header: bytes
    footer: bytes
    max_length: int

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("signature name must be non-empty")
        if not self.header or not self.footer:
            raise ValueError("header and footer must be non-empty")
        if self.max_length <= len(self.header) + len(self.footer):
            raise ValueError("max_length must exceed header plus footer length")


def builtin_signatures() -> tuple[Signature, ...]:
    """Signatures for the two app XML documents worth carving.

    Both share the generic XML declaration header; they are told apart by
    which closing element pair appears first.
    """
    return (
        Signature("config-xml", XML_DECLARATION, b"</UI>\r\n</config>\r\n", MAX_XML_DOCUMENT),
        Signature("shared-xml", XML_DECLARATION, b"</Lib>\r\n</config>\r\n", MAX_XML_DOCUMENT),
    )


@dataclass(frozen=True)
class CarvedObject:
    """One document cut from a stream: signature name, offset, payload."""

    signature_name: str
    offset: int
    payload: bytes

    def sha256(self) -> str:
        import hashlib  # only the carve command's index needs it

        return hashlib.sha256(self.payload).hexdigest()


@dataclass(frozen=True)
class KeywordHit:
    """One keyword occurrence with surrounding context bytes."""

    term: str
    offset: int
    context: bytes
    term_offset: int  # position of the term within context

    def __post_init__(self) -> None:
        probe = self.context[self.term_offset : self.term_offset + len(self.term.encode("latin-1"))]
        if probe != self.term.encode("latin-1"):
            raise ValueError("context does not contain the term at term_offset")


# Remnant markers left in process memory by the chat apps.
DEFAULT_TERMS: tuple[bytes, ...] = (
    b"m_mid",
    b"orca_message",
    b"Messaging: 2.0",
    b"IM-Display-Name:",
)


def scan_stream(stream, patterns, horizon, lookback, emit, chunk_size=DEFAULT_CHUNK_SIZE):
    """Drive a chunked scan of a stream or bytes, calling emit once per pattern occurrence.

    emit(buf, base, rel, pattern_index) runs with buf guaranteed to hold
    at least horizon bytes beyond the hit (unless the stream ends first)
    and lookback bytes before it (unless the stream starts later).
    Occurrences are visited in offset order exactly once, so chunked and
    whole-buffer scans agree.  A read that fails raises StreamReadError.
    """
    if isinstance(stream, (bytes, bytearray, memoryview)):
        stream = io.BytesIO(bytes(stream))
    patterns = [bytes(p) for p in patterns]
    if not patterns or any(not p for p in patterns):
        raise ValueError("patterns must be non-empty byte strings")
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    guard = horizon + max(len(p) for p in patterns)
    buf = b""
    base = 0
    watermark = 0
    while True:
        try:
            chunk = stream.read(chunk_size)
        except OSError as exc:
            raise StreamReadError("stream read failed: %s" % exc) from exc
        eof = not chunk
        if chunk:
            buf += chunk
        end_abs = base + len(buf)
        limit = end_abs if eof else max(end_abs - guard, 0)
        if limit > watermark:
            for rel, index in find_multi(buf, patterns, max(watermark - base, 0)):
                absolute = base + rel
                if absolute >= limit:
                    break
                emit(buf, base, rel, index)
            watermark = limit
        if eof:
            return
        keep_from = max(watermark - lookback, base)
        cut = keep_from - base
        if cut > 0:
            buf = buf[cut:]
            base = keep_from


def _grouped(signatures):
    groups: dict[bytes, list[Signature]] = {}
    for sig in signatures:
        groups.setdefault(sig.header, []).append(sig)
    return groups


def _resolve_header(buf, rel, base, group, results, truncated):
    header_len = len(group[0].header)
    best_start = None
    best_sig = None
    for sig in group:
        window_end = min(rel + sig.max_length, len(buf))
        fpos = buf.find(sig.footer, rel + header_len, window_end)
        if fpos != -1 and (best_start is None or fpos < best_start):
            best_start = fpos
            best_sig = sig
    if best_sig is None:
        if truncated is not None:
            truncated.append(base + rel)
        return
    end = best_start + len(best_sig.footer)
    results.append(CarvedObject(best_sig.name, base + rel, bytes(buf[rel:end])))


def carve(stream, signatures=None, chunk_size=DEFAULT_CHUNK_SIZE, truncated=None):
    """Carve every signature occurrence from a stream or bytes.

    Each header hit yields at most one object: the payload runs to the
    nearest subsequent footer of the header's signature group, within that
    signature's max_length.  Headerless footers and footerless headers
    yield nothing; the latter are appended to truncated when given.
    """
    sigs = list(signatures) if signatures is not None else list(builtin_signatures())
    names = [sig.name for sig in sigs]
    if len(set(names)) != len(names):
        raise ValueError("signature names must be unique")
    groups = _grouped(sigs)
    headers = list(groups)
    header_groups = [groups[h] for h in headers]
    horizon = max(sig.max_length for sig in sigs)
    results: list[CarvedObject] = []

    def emit(buf, base, rel, index):
        _resolve_header(buf, rel, base, header_groups[index], results, truncated)

    scan_stream(stream, headers, horizon, 0, emit, chunk_size)
    return results


def scan_keywords(stream, terms=None, context_radius=256, chunk_size=DEFAULT_CHUNK_SIZE):
    """Find keyword occurrences in a stream, each with surrounding context.

    Context is clipped only at the stream boundaries; hits are returned in
    offset order.
    """
    term_list = [bytes(t) for t in (terms if terms is not None else DEFAULT_TERMS)]
    if context_radius < 0:
        raise ValueError("context_radius must be non-negative")
    hits: list[KeywordHit] = []

    def emit(buf, base, rel, index):
        term = term_list[index]
        lo = max(rel - context_radius, 0)
        hi = min(rel + len(term) + context_radius, len(buf))
        hits.append(
            KeywordHit(
                term=term.decode("latin-1"),
                offset=base + rel,
                context=bytes(buf[lo:hi]),
                term_offset=rel - lo,
            )
        )

    horizon = max(len(t) for t in term_list) + context_radius
    scan_stream(stream, term_list, horizon, context_radius, emit, chunk_size)
    return hits
