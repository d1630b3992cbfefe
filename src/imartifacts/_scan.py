"""Byte scanning over raw memory buffers."""

from __future__ import annotations

BACKEND = "python"  # run provenance reads this to name the scan implementation


def find_all(data: bytes, pattern: bytes, start: int = 0, end: int = -1) -> list[int]:
    """Return the offsets of every occurrence of pattern in data[start:end].

    Occurrences may overlap.  end of -1 means the end of the buffer.
    """
    if not pattern:
        raise ValueError("pattern must be non-empty")
    if end < 0:
        end = len(data)
    hits = []
    pos = data.find(pattern, start, end)
    while pos != -1:
        hits.append(pos)
        pos = data.find(pattern, pos + 1, end)
    return hits


def find_multi(data: bytes, patterns: list[bytes], start: int = 0, end: int = -1) -> list[tuple[int, int]]:
    """Find every occurrence of every pattern.

    Returns (offset, pattern_index) pairs sorted by offset then index.
    """
    hits = []
    for index, pattern in enumerate(patterns):
        for offset in find_all(data, pattern, start, end):
            hits.append((offset, index))
    hits.sort()
    return hits
