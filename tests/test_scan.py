import random

import pytest

from imartifacts import _scan


def reference_find_all(data, pattern, start=0, end=None):
    stop = len(data) if end is None else min(end, len(data))
    return [i for i in range(start, stop - len(pattern) + 1) if data[i : i + len(pattern)] == pattern]


def reference_find_multi(data, patterns, start=0, end=None):
    return sorted(
        (offset, index)
        for index, pattern in enumerate(patterns)
        for offset in reference_find_all(data, pattern, start, end)
    )


class TestLiteralAnswers:
    def test_simple(self):
        assert _scan.find_all(b"abcabcab", b"ab") == [0, 3, 6]

    def test_overlapping(self):
        assert _scan.find_all(b"aaaa", b"aa") == [0, 1, 2]

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            _scan.find_all(b"abc", b"")

    def test_window(self):
        assert _scan.find_all(b"abcabcab", b"ab", 1) == [3, 6]

    def test_end_bounds_whole_occurrences(self):
        assert _scan.find_all(b"abcabcab", b"ab", 0, 5) == [0, 3]
        assert _scan.find_all(b"abcabcab", b"ab", 0, 4) == [0]

    def test_find_multi_sorted(self):
        hits = _scan.find_multi(b"xAyBxA", [b"A", b"B"])
        assert hits == [(1, 0), (3, 1), (5, 0)]

    def test_backend_is_python(self):
        assert _scan.BACKEND == "python"


class TestAgainstReference:
    def test_random(self):
        rng = random.Random(99)
        for _ in range(100):
            data = bytes(rng.randrange(4) for _ in range(rng.randrange(1, 400)))
            pattern = bytes(rng.randrange(4) for _ in range(rng.randrange(1, 5)))
            assert _scan.find_all(data, pattern) == reference_find_all(data, pattern)

    def test_find_multi_random_windows(self):
        rng = random.Random(1234)
        for _ in range(100):
            data = bytes(rng.randrange(8) for _ in range(rng.randrange(0, 2000)))
            patterns = [
                bytes(rng.randrange(8) for _ in range(rng.randrange(1, 6))) for _ in range(3)
            ]
            start = rng.randrange(0, max(1, len(data)))
            assert _scan.find_all(data, patterns[0], start) == reference_find_all(data, patterns[0], start)
            assert _scan.find_multi(data, patterns) == reference_find_multi(data, patterns)
            assert _scan.find_multi(data, patterns, start) == reference_find_multi(data, patterns, start)
            end = rng.randrange(start, len(data) + 8)
            assert _scan.find_multi(data, patterns, start, end) == reference_find_multi(data, patterns, start, end)

    def test_edge_windows(self):
        data = b"ababab"
        for start in range(0, 8):
            assert _scan.find_all(data, b"ab", start) == reference_find_all(data, b"ab", start)
