import random
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings, strategies as st

from imartifacts import model, regexport
from imartifacts.model import (
    App,
    Channel,
    EventKind,
    MalformedHex,
    OutOfRange,
    Provenance,
    Timestamp,
    TimelineEvent,
    infer_epoch_unit,
    ts_from_filetime_ticks,
    ts_from_iso_text,
    ts_from_unix,
)


def utc(*args):
    return datetime(*args, tzinfo=timezone.utc)


def filetime_hex(text):
    """FILETIME hex text decoded as the registry reader decodes a string time value.

    Returns (timestamp, byte-order reading); only an instant in 2000-2100
    is accepted, so the epoch and 1601 checks use ts_from_filetime_ticks.
    """
    return regexport._select_filetime(regexport._filetime_bytes(regexport.RegValue("t", "string", text)))


def reencode(ts):
    """The raw value recomputed from the decoded instant: the round-trip oracle.

    Epoch encodings give raw back exactly, filetime the ticks of the
    millisecond the instant carries, iso_text its original text.
    """
    if ts.encoding == "unix_seconds":
        return (ts.utc_instant - utc(1970, 1, 1)) // timedelta(seconds=1)
    if ts.encoding == "unix_millis":
        return (ts.utc_instant - utc(1970, 1, 1)) // timedelta(milliseconds=1)
    if ts.encoding == "filetime_100ns":
        return (ts.utc_instant - utc(1601, 1, 1)) // timedelta(milliseconds=1) * 10**4
    return ts.raw


class TestUnixDecoding:
    def test_millis_value(self):
        ts = ts_from_unix(1421898314666, "millis")
        assert ts.utc_instant == utc(2015, 1, 22, 3, 45, 14, 666000)
        assert ts.encoding == "unix_millis"
        assert ts.raw == 1421898314666

    def test_seconds_value(self):
        ts = ts_from_unix(1421685822, "seconds")
        assert ts.utc_instant == utc(2015, 1, 19, 16, 43, 42)
        assert ts.encoding == "unix_seconds"

    def test_auto_unit_uses_magnitude(self):
        assert ts_from_unix(1421898314666, "auto").encoding == "unix_millis"
        assert ts_from_unix(1421685822, "auto").encoding == "unix_seconds"

    def test_more_known_instants(self):
        assert ts_from_unix(1421644744425, "millis").utc_instant == utc(2015, 1, 19, 5, 19, 4, 425000)
        assert ts_from_unix(1421685383, "seconds").utc_instant == utc(2015, 1, 19, 16, 36, 23)
        assert ts_from_unix(1421685999, "seconds").utc_instant == utc(2015, 1, 19, 16, 46, 39)
        assert ts_from_unix(1423766054, "seconds").utc_instant == utc(2015, 2, 12, 18, 34, 14)
        assert ts_from_unix(1421679670, "seconds").utc_instant == utc(2015, 1, 19, 15, 1, 10)

    def test_zero_is_epoch(self):
        assert ts_from_unix(0, "seconds").utc_instant == utc(1970, 1, 1)

    def test_negative_rejected(self):
        with pytest.raises(OutOfRange):
            ts_from_unix(-1, "seconds")

    def test_out_of_range_rejected(self):
        # 253402300799 is 9999-12-31T23:59:59Z, the last valid second.
        assert ts_from_unix(253402300799, "seconds").utc_instant == utc(9999, 12, 31, 23, 59, 59)
        with pytest.raises(OutOfRange):
            ts_from_unix(253402300800, "seconds")

    def test_bad_unit_rejected(self):
        with pytest.raises(ValueError):
            ts_from_unix(1, "days")


class TestFiletimeDecoding:
    def test_unix_epoch_in_ticks(self):
        ts = ts_from_filetime_ticks(0x019DB1DED53E8000)
        assert ts.utc_instant == utc(1970, 1, 1)
        assert ts.raw == 116444736000000000

    def test_zero_is_1601(self):
        ts = ts_from_filetime_ticks(0)
        assert ts.utc_instant == utc(1601, 1, 1)

    def test_little_endian_reading(self):
        # Same 8 bytes as the big-endian 2015 value, reversed.
        ts, reading = filetime_hex("00DC8FE80434D001")
        assert reading == "little-endian-binary"
        assert ts.utc_instant == utc(2015, 1, 19, 16, 28, 8)

    def test_known_2015_instant(self):
        ts, reading = filetime_hex("01D03404E88FDC00")
        assert reading == "big-endian-hex"
        assert ts.utc_instant == utc(2015, 1, 19, 16, 28, 8)
        assert ts.raw == 130661584880000000

    def test_case_insensitive(self):
        assert filetime_hex("01d03404e88fdc00") == filetime_hex("01D03404E88FDC00")

    def test_sub_millisecond_truncation(self):
        base = 116444736000000000
        ts = ts_from_filetime_ticks(base + 9999)  # 999.9 microseconds
        assert ts.utc_instant == utc(1970, 1, 1)
        assert ts.raw == base + 9999

    def test_wrong_length_rejected(self):
        with pytest.raises(MalformedHex):
            filetime_hex("01D03404E88FDC")
        with pytest.raises(MalformedHex):
            filetime_hex("01D03404E88FDC00FF")

    def test_non_hex_rejected(self):
        with pytest.raises(MalformedHex):
            filetime_hex("ZZZZZZZZZZZZZZZZ")

    def test_out_of_range_rejected(self):
        with pytest.raises(OutOfRange):
            ts_from_filetime_ticks(0xFFFFFFFFFFFFFFFF)
        with pytest.raises(OutOfRange):
            ts_from_filetime_ticks(-1)


class TestIsoText:
    def test_space_separated(self):
        ts = ts_from_iso_text("2015-02-12 17:50:00")
        assert ts.utc_instant == utc(2015, 2, 12, 17, 50, 0)
        assert ts.encoding == "iso_text"
        assert ts.raw == "2015-02-12 17:50:00"

    def test_t_separated_with_fraction(self):
        ts = ts_from_iso_text("2015-01-22T11:46:02.123")
        assert ts.utc_instant == utc(2015, 1, 22, 11, 46, 2, 123000)

    def test_garbage_rejected(self):
        with pytest.raises(OutOfRange):
            ts_from_iso_text("not a date")


# The strptime loop ts_from_iso_text ran before its fast path, kept here as
# the oracle: it shares no code with the function under test.
_REFERENCE_LAYOUTS = (
    "%Y-%m-%d %H:%M:%S.%f",
    "%Y-%m-%d %H:%M:%S",
    "%Y-%m-%dT%H:%M:%S.%f",
    "%Y-%m-%dT%H:%M:%S",
    "%Y-%m-%d %H:%M",
    "%Y-%m-%d",
)


def reference_ts_from_iso_text(text: str) -> Timestamp:
    cleaned = text.strip()
    candidate = cleaned[:-1] if cleaned.endswith("Z") else cleaned
    parsed = None
    for layout in _REFERENCE_LAYOUTS:
        try:
            parsed = datetime.strptime(candidate, layout)
            break
        except ValueError:
            continue
    if parsed is None:
        try:
            parsed = datetime.fromisoformat(candidate)
        except ValueError as exc:
            raise OutOfRange("unrecognized date-time text: %r" % (text,)) from exc
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=timezone.utc)
    parsed = parsed.astimezone(timezone.utc)
    parsed = parsed.replace(microsecond=parsed.microsecond - parsed.microsecond % 1000)
    return Timestamp(parsed, "iso_text", text)


def _outcome(decode, text):
    """What decode makes of text: the timestamp's parts, or the exception type."""
    try:
        ts = decode(text)
    except Exception as error:
        return type(error)
    return ts.utc_instant, ts.utc_instant.tzinfo, ts.encoding, ts.raw


# Derived from each test's source and without an example database, so every
# run checks the same inputs.
PROPERTY = settings(derandomize=True, database=None, max_examples=500, deadline=None)

_DIGITS = "0123456789\u0662\uff12"  # with ARABIC-INDIC and FULLWIDTH TWO


# Values strptime's field patterns accept but a date rejects, and digit runs
# of any length and script.
_ODD_FIELD = st.one_of(
    st.sampled_from(["13", "60", "00", "24", "0000", "1600", "2"]),
    st.text(alphabet=_DIGITS, min_size=1, max_size=5),
)


@st.composite
def iso_shaped_text(draw):
    """Date-time text near the stored layouts: one field at most is odd."""
    dt = draw(st.datetimes(min_value=datetime(1601, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59)))
    fields = ["%04d" % dt.year] + ["%02d" % n for n in (dt.month, dt.day, dt.hour, dt.minute, dt.second)]
    odd = draw(st.integers(min_value=0, max_value=11))
    if odd < len(fields):
        fields[odd] = draw(_ODD_FIELD)
    text = "-".join(fields[:3])
    shape = draw(st.sampled_from(["seconds", "seconds", "minutes", "date"]))
    if shape != "date":
        text += draw(st.sampled_from([" ", "T", " ", "T", "t"])) + ":".join(fields[3:5])
    if shape == "seconds":
        ascii_fraction = st.text(alphabet="0123456789", min_size=1, max_size=8).map(lambda f: "." + f)
        text += ":" + fields[5] + draw(st.one_of(
            st.just(""), ascii_fraction, ascii_fraction, st.just("."),
            st.text(alphabet=_DIGITS, min_size=1, max_size=8).map(lambda f: "." + f),
        ))
    text += draw(st.sampled_from(["", "", "Z", "Z", "z", "+01:00"]))
    return draw(st.sampled_from(["", " "])) + text + draw(st.sampled_from(["", " ", "  "]))


class TestIsoTextOracle:
    @settings(PROPERTY, max_examples=1000)
    @given(iso_shaped_text())
    def test_matches_reference(self, text):
        assert _outcome(ts_from_iso_text, text) == _outcome(reference_ts_from_iso_text, text)

    @pytest.mark.parametrize("text", [
        "2015-01-22 11:46:02", "2015-01-22T11:46:02.1234567", "2015-01-22T11:46:02.",
        "2015-01-22 11:46:60", "2015-13-22 11:46:02", "2015-02-29 00:00:00",
        "1600-12-31 23:59:59.999", "2015-01-22t11:46:02", "\u0662015-01-22 11:46:02",
        "2015-01-22 11:46:02.5z", "2015-01-22 11:46:02+01:00", " 2015-01-22 11:46:02 Z ",
    ])
    def test_edge_cases_match_reference(self, text):
        assert _outcome(ts_from_iso_text, text) == _outcome(reference_ts_from_iso_text, text)


class TestInferUnit:
    def test_threshold(self):
        assert infer_epoch_unit(999999999999) == "seconds"
        assert infer_epoch_unit(10**12) == "millis"

    def test_typical_values(self):
        assert infer_epoch_unit(1421685822) == "seconds"
        assert infer_epoch_unit(1421898314666) == "millis"


class TestRoundTrip:
    def test_unix_reencode_sampled(self):
        rng = random.Random(20150122)
        for _ in range(200):
            seconds = rng.randrange(0, 253402300800)
            assert reencode(ts_from_unix(seconds, "seconds")) == seconds
            millis = rng.randrange(10**12, 253402300800000)
            assert reencode(ts_from_unix(millis, "millis")) == millis

    def test_filetime_reencode_ms_aligned(self):
        rng = random.Random(16010101)
        max_ticks = (datetime(9999, 12, 31) - datetime(1601, 1, 1)).days * 86400 * 10**7
        for _ in range(200):
            ticks = rng.randrange(0, max_ticks, 10**4)
            assert reencode(ts_from_filetime_ticks(ticks)) == ticks

    def test_iso_reencode_returns_raw(self):
        assert reencode(ts_from_iso_text("2015-02-12 17:50:00")) == "2015-02-12 17:50:00"

    def test_monotonic_sampled(self):
        rng = random.Random(7)
        pairs = [(rng.randrange(0, 2**40), rng.randrange(0, 2**40)) for _ in range(200)]
        for a, b in pairs:
            lo, hi = sorted((a, b))
            assert ts_from_unix(lo, "millis").utc_instant <= ts_from_unix(hi, "millis").utc_instant


class TestTimestampType:
    def test_rejects_naive_datetime(self):
        with pytest.raises(ValueError):
            Timestamp(datetime(2015, 1, 1), "unix_seconds", 0)

    def test_rejects_sub_millisecond(self):
        with pytest.raises(ValueError):
            Timestamp(utc(2015, 1, 1, 0, 0, 0, 123456), "unix_seconds", 0)

    def test_rejects_unknown_encoding(self):
        with pytest.raises(ValueError):
            Timestamp(utc(2015, 1, 1), "julian", 0)

    def test_isoformat_ms(self):
        assert ts_from_unix(1421898314666, "millis").isoformat_ms() == "2015-01-22T03:45:14.666Z"
        assert ts_from_unix(1421685822, "seconds").isoformat_ms() == "2015-01-19T16:43:42.000Z"

    @PROPERTY
    @given(st.datetimes(min_value=datetime(1601, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59, 999000),
                        timezones=st.sampled_from([timezone.utc, timezone(timedelta(hours=5, minutes=30)),
                                                   timezone(timedelta(hours=-8))])))
    def test_isoformat_ms_matches_strftime(self, dt):
        dt = dt.replace(microsecond=dt.microsecond - dt.microsecond % 1000)
        try:
            ts = Timestamp(dt, "unix_millis", 0)
        except OutOfRange:  # the local time is in range, the instant is not
            return
        want = "%s.%03dZ" % (dt.strftime("%Y-%m-%dT%H:%M:%S"), dt.microsecond // 1000)
        assert ts.isoformat_ms() == want


class TestProvenance:
    def test_carved_requires_offset(self):
        with pytest.raises(ValueError):
            Provenance("mem.bin", "carver", Channel.CARVED)

    def test_offset_only_for_carved(self):
        with pytest.raises(ValueError):
            Provenance("main.db", "skype", Channel.DATABASE, byte_offset=10)
        p = Provenance("mem.bin", "carver", Channel.CARVED, byte_offset=10)
        assert p.byte_offset == 10

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            Provenance("", "skype", Channel.DATABASE)


class TestTimelineEvent:
    def make(self, **kw):
        base = dict(
            when=ts_from_unix(1421685822, "seconds"),
            kind=EventKind.MESSAGE_SENT,
            app=App.SKYPE,
            summary="hello",
            provenance=Provenance("main.db", "skype", Channel.DATABASE),
        )
        base.update(kw)
        return TimelineEvent(**base)

    def test_empty_summary_rejected(self):
        with pytest.raises(ValueError):
            self.make(summary="")

    def test_duplicates_not_compared(self):
        assert self.make(duplicates=1) == self.make(duplicates=5)

    def test_sort_key_orders_by_instant_first(self):
        early = self.make(when=ts_from_unix(1421685821, "seconds"), kind=EventKind.FS_JOURNAL)
        late = self.make(when=ts_from_unix(1421685822, "seconds"), kind=EventKind.APP_INSTALL)
        assert early.sort_key() < late.sort_key()

    def test_sort_key_breaks_ties_by_app_then_kind(self):
        fb = self.make(app=App.FACEBOOK)
        sk = self.make(app=App.SKYPE)
        assert fb.sort_key() < sk.sort_key()
        start = self.make(kind=EventKind.CALL_START)
        end = self.make(kind=EventKind.CALL_END)
        assert start.sort_key() < end.sort_key()
