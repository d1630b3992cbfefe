"""Byte scanning over raw memory buffers."""

from __future__ import annotations

BACKEND = "python"  # run provenance reads this to name the scan implementation


def find_all(data: bytes, pattern: bytes, start: int = 0, end: int | None = None) -> list[int]:
    """Return the offsets of every occurrence of pattern in data[start:end].

    Occurrences may overlap.
    """
    if not pattern:
        raise ValueError("pattern must be non-empty")
    hits = []
    pos = data.find(pattern, start, end)
    while pos != -1:
        hits.append(pos)
        pos = data.find(pattern, pos + 1, end)
    return hits


def find_multi(data: bytes, patterns: list[bytes], start: int = 0,
               end: int | None = None) -> list[tuple[int, int]]:
    """Find every occurrence of every pattern in data[start:end].

    Returns (offset, pattern_index) pairs sorted by offset then index.
    """
    hits = []
    for index, pattern in enumerate(patterns):
        for offset in find_all(data, pattern, start, end):
            hits.append((offset, index))
    hits.sort()
    return hits
