"""Byte scanning over raw memory buffers."""

from __future__ import annotations

BACKEND = "python"  # run provenance reads this to name the scan implementation


def find_all(data: bytes, pattern: bytes, start: int = 0) -> list[int]:
    """Return the offsets of every occurrence of pattern in data[start:].

    Occurrences may overlap.
    """
    if not pattern:
        raise ValueError("pattern must be non-empty")
    hits = []
    pos = data.find(pattern, start)
    while pos != -1:
        hits.append(pos)
        pos = data.find(pattern, pos + 1)
    return hits


def find_multi(data: bytes, patterns: list[bytes], start: int = 0) -> list[tuple[int, int]]:
    """Find every occurrence of every pattern in data[start:].

    Returns (offset, pattern_index) pairs sorted by offset then index.
    """
    hits = []
    for index, pattern in enumerate(patterns):
        for offset in find_all(data, pattern, start):
            hits.append((offset, index))
    hits.sort()
    return hits
