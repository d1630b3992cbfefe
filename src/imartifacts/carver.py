"""Carve structured documents out of raw byte streams.

Memory dumps and unallocated space are scanned for known header/footer
signature pairs.  Scanning is chunked so streams larger than memory are
handled; a retained overlap guarantees the chunked result equals a
whole-buffer scan.
"""

from __future__ import annotations

import io
import os
import stat
from dataclasses import dataclass

from ._scan import find_multi
from .model import ExtractionError

__all__ = [
    "CarvedObject",
    "Signature",
    "StreamReadError",
    "builtin_signatures",
    "carve",
    "scan_stream",
]

DEFAULT_CHUNK_SIZE = 256 * 1024  # smallest default read; a scan holds one read plus what a round keeps
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


def scan_stream(stream, patterns, horizon, lookback, chunk_size=None):
    """Yield (buf, base, rel, pattern_index) once per pattern occurrence in a stream or bytes.

    The scan is chunked and lazy: the stream is read only as the hits are
    taken.  buf is a bytearray of exactly the bytes held this round, and
    the occurrence starts at buf[rel], base + rel bytes into the stream.
    buf holds at least horizon bytes beyond the hit (unless the stream ends
    first) and lookback bytes before it (unless the stream starts later).
    buf is reused by the next round, so the taker copies what it keeps
    before it takes the next hit.  Occurrences are visited in offset order
    exactly once, so chunked and whole-buffer scans agree.  A read that
    fails raises StreamReadError.  chunk_size is the bytes per read after
    the first; by default it is the first multiple of DEFAULT_CHUNK_SIZE
    (256 KiB) over three times what a round keeps, so moving what it keeps
    costs little beside the read: 512 KiB for a chat scan, 3.25 MiB for
    carve.  The one buffer holds a read plus what a round keeps, and no
    more than one byte past the stream's end when its size is known.  The
    first read fills it, so it is not grown again unless a read comes up
    short before the stream's end.
    """
    if isinstance(stream, (bytes, bytearray, memoryview)):
        data = bytes(stream)
        left = len(data)
        stream = io.BytesIO(data)
    else:
        left = _bytes_left(stream)
    patterns = [bytes(p) for p in patterns]
    if not patterns or any(not p for p in patterns):
        raise ValueError("patterns must be non-empty byte strings")
    longest = max(len(p) for p in patterns)
    guard = horizon + longest
    keep = guard + lookback  # the most a round carries into the next
    if chunk_size is None:
        chunk_size = DEFAULT_CHUNK_SIZE * (1 + 3 * keep // DEFAULT_CHUNK_SIZE)
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    readinto = getattr(stream, "readinto", None)
    buf = bytearray(chunk_size + keep if left is None else min(chunk_size + keep, left + 1))
    filled = 0  # buf[:filled] holds the stream from base on
    base = 0
    watermark = 0
    while True:
        # A read fills the buffer, and takes chunk_size at least.  A stream of
        # known size is asked for one byte past its end, which tells its end;
        # one that grew since is read as one of unknown size.
        want = max(chunk_size, len(buf) - filled)
        if left is not None:
            want = min(want, left + 1)
        if len(buf) < filled + want:  # the last read came up short, so the buffer was cut to it
            buf.extend(bytes(filled + want - len(buf)))
        try:
            if readinto is None:
                chunk = stream.read(want) or b""
                got = len(chunk)
                buf[filled:filled + got] = chunk
            else:
                with memoryview(buf) as view:
                    got = readinto(view[filled:filled + want]) or 0
        except OSError as exc:
            raise StreamReadError("stream read failed: %s" % exc) from exc
        eof = not got
        filled += got
        if left is not None:
            left = None if got > left else left - got
        if len(buf) > filled:
            del buf[filled:]  # the hits see exactly the bytes read
        end_abs = base + filled
        limit = end_abs if eof else max(end_abs - guard, 0)
        if limit > watermark:
            # Bytes past the limit are searched in a later round, once the guard behind them is read.
            for rel, index in find_multi(buf, patterns, max(watermark - base, 0), limit - base + longest):
                absolute = base + rel
                if absolute >= limit:
                    break
                yield buf, base, rel, index
            watermark = limit
        if eof:
            return
        keep_from = max(watermark - lookback, base)
        cut = keep_from - base
        if cut > 0:
            with memoryview(buf) as view:
                view[:filled - cut] = view[cut:filled]  # one memmove, no copy
            filled -= cut
            base = keep_from


def _bytes_left(stream) -> int | None:
    """The bytes between a regular file's position and its end, or None when fstat cannot tell."""
    try:
        status = os.fstat(stream.fileno())
        if stat.S_ISREG(status.st_mode):
            return max(status.st_size - stream.tell(), 0)
    except (AttributeError, OSError, ValueError):  # no descriptor, a closed one, or no position
        pass
    return None


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
    results.append(CarvedObject(best_sig.name, base + rel, bytes(memoryview(buf)[rel:end])))


def carve(stream, signatures=None, chunk_size=None, truncated=None):
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
    for buf, base, rel, index in scan_stream(stream, headers, horizon, 0, chunk_size):
        _resolve_header(buf, rel, base, header_groups[index], results, truncated)
    return results
