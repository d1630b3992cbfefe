"""Registry export parsing, install-time decoding, persisted items."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from imartifacts import regexport
from imartifacts.cli import main
from imartifacts import sampledata as sd
from imartifacts.forge import serialize_reg_export
from imartifacts.locator import parse_package_id
from imartifacts.model import ExtractionError, MalformedHex
from imartifacts.regexport import (
    AmbiguousInterpretation,
    InstallRecord,
    NotRegExport,
    PackageKeyNotFound,
    RegExport,
    RegValue,
    find_install_records,
    find_install_time,
    find_persisted_items,
    parse_reg_export,
)


def _hexb(ticks):
    return ",".join("%02x" % b for b in ticks.to_bytes(8, "little"))


FB_KEY = sd.REPOSITORY_BRANCH + "\\" + sd.FACEBOOK_PACKAGE_FAMILY + "\\" + sd.FACEBOOK_PACKAGE_FULL
SKYPE_KEY = sd.REPOSITORY_BRANCH + "\\" + sd.SKYPE_PACKAGE_FAMILY + "\\" + sd.SKYPE_PACKAGE_FULL


def export_text():
    item1, item2 = sd.PERSISTED_ITEMS
    return "\n".join(
        [
            "Windows Registry Editor Version 5.00",
            "",
            "[%s]" % (sd.REPOSITORY_BRANCH + "\\" + sd.FACEBOOK_PACKAGE_FAMILY),
            "",
            "[%s]" % FB_KEY,
            '"PackageID"="%s"' % sd.FACEBOOK_PACKAGE_FULL,
            '"InstallTime"=hex(b):%s' % _hexb(sd.INSTALL_TIME_TICKS),
            "",
            "[%s]" % SKYPE_KEY,
            # Continuation: same eight bytes split across two lines.
            '"InstallTime"=hex(b):00,dc,8f,e8,\\',
            "  04,34,d0,01",
            '"Flags"=dword:00000002',
            "",
            "[%s]" % (sd.PERSISTED_BRANCH + "\\" + item1["guid"]),
            '"FilePath"="%s"' % item1["file_path"].replace("\\", "\\\\"),
            '"LastUpdatedTime"=hex(b):%s' % _hexb(item1["last_updated_ticks"]),
            "",
            "[%s]" % (sd.PERSISTED_BRANCH + "\\" + item2["guid"]),
            '"FilePath"="%s"' % item2["file_path"].replace("\\", "\\\\"),
            '"LastUpdatedTime"=hex(b):%s' % _hexb(item2["last_updated_ticks"]),
            "",
        ]
    )


@pytest.fixture
def export():
    return parse_reg_export(export_text())


def find_value(export, path, name):
    """The value called name of the key at path, both matched case-insensitively, or None."""
    for key, values in export.keys.items():
        if key.casefold() == path.casefold():
            return next((v for v in values if v.name.casefold() == name.casefold()), None)
    return None


class TestParse:
    def test_minimal_qword_value(self):
        text = 'Windows Registry Editor Version 5.00\n\n[HKEY_LOCAL_MACHINE\\K]\n"V"=hex(b):01,02,03,04,05,06,07,08\n'
        export = parse_reg_export(text)
        assert list(export.keys) == ["HKEY_LOCAL_MACHINE\\K"]
        (value,) = export.keys["HKEY_LOCAL_MACHINE\\K"]
        assert value.kind == "qword"
        assert value.data == bytes([1, 2, 3, 4, 5, 6, 7, 8])
        assert export.errors == []

    def test_key_path_case_preserved(self, export):
        assert FB_KEY in export.keys
        assert FB_KEY.endswith("\\Facebook.Facebook_1.4.0.9_x64__8xx8rvfyw5nnt")

    def test_case_insensitive_lookup(self):
        text = export_text().replace(FB_KEY, FB_KEY.replace("HKEY_USERS", "hkey_users")).replace(
            '"InstallTime"', '"installtime"')
        records = find_install_records(parse_reg_export(text))
        assert [r.package.text for r in records] == [sd.FACEBOOK_PACKAGE_FULL, sd.SKYPE_PACKAGE_FULL]
        assert records[0].key_path.startswith("hkey_users")

    def test_continuation_lines_reassembled(self, export):
        value = find_value(export, SKYPE_KEY, "InstallTime")
        assert value.data == sd.INSTALL_TIME_TICKS.to_bytes(8, "little")

    def test_string_escapes(self, export):
        value = find_value(export, sd.PERSISTED_BRANCH + "\\" + sd.PERSISTED_ITEMS[0]["guid"], "FilePath")
        assert value.kind == "string"
        assert value.data == "C:\\Users\\anonymous\\Documents\\SuspectToVictim.docx"

    def test_dword(self, export):
        assert find_value(export, SKYPE_KEY, "Flags").data == 2

    def test_regedit4_header_accepted(self):
        export = parse_reg_export('REGEDIT4\n\n[HKLM\\X]\n"a"="b"\n')
        assert export.dialect == "REGEDIT4"
        assert find_value(export, "HKLM\\X", "a").data == "b"

    def test_not_an_export(self):
        with pytest.raises(NotRegExport):
            parse_reg_export("just some text\n[key]\n")
        with pytest.raises(NotRegExport):
            parse_reg_export("")

    def test_utf16_bytes_with_bom(self):
        text = 'Windows Registry Editor Version 5.00\r\n\r\n[HKLM\\U]\r\n"n"="v"\r\n'
        data = "\ufeff".encode("utf-16-le") + text.encode("utf-16-le")
        export = parse_reg_export(data)
        assert find_value(export, "HKLM\\U", "n").data == "v"

    def test_utf16_cut_mid_character_is_not_an_export(self):
        with pytest.raises(NotRegExport):
            parse_reg_export(b"\xff\xfeW\x00i\x00n")

    def test_syntax_errors_collected_with_line_numbers(self):
        text = "\n".join(
            [
                "Windows Registry Editor Version 5.00",
                "",
                "stray value line",  # line 3: value before any key
                "[HKLM\\K]",
                '"bad"=dword:zz',  # line 5
                '"good"="x"',
                "gibberish",  # line 7
            ]
        )
        export = parse_reg_export(text)
        assert find_value(export, "HKLM\\K", "good").data == "x"
        lines = sorted(line for line, _ in export.errors)
        assert lines == [3, 5, 7]

    def test_comments_and_default_value(self):
        text = 'Windows Registry Editor Version 5.00\n\n; a comment\n[HKLM\\K]\n@="default"\n'
        export = parse_reg_export(text)
        (value,) = export.keys["HKLM\\K"]
        assert (value.name, value.data) == ("@", "default")

    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
    def test_only_cr_and_lf_end_a_line(self, char):
        item = sd.PERSISTED_ITEMS[0]
        path = item["file_path"].replace("SuspectToVictim", "Suspect%sToVictim" % char)
        text = export_text().replace(item["file_path"].replace("\\", "\\\\"), path.replace("\\", "\\\\"))
        for newline in ("\n", "\r\n", "\r"):
            export = parse_reg_export(text.replace("\n", newline))
            assert export.errors == []
            warnings = []
            assert [i.file_path for i in find_persisted_items(export, warnings)] == [
                path, sd.PERSISTED_ITEMS[1]["file_path"]]
            assert warnings == []


class TestParseMemory:
    def test_utf16_export_is_parsed_without_copies(self):
        """Beside what the parse returns, it holds less than the input's size: one decoded text, no more."""
        import tracemalloc

        lines = [regexport.HEADER_50, ""]
        for i in range(3_000):
            lines += ["[HKEY_CURRENT_USER\\Software\\Test\\Key%04d]" % i, '"Name"="value %d"' % i,
                      '"Data"=hex:00,01,02,03', ""]
        data = b"\xff\xfe" + "\r\n".join(lines).encode("utf-16-le")
        tracemalloc.start()
        try:
            export = parse_reg_export(data)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(export.keys) == 3_000 and not export.errors
        # A 4-byte-per-character line buffer, or a list of every line, would take about twice the input.
        assert peak - kept < len(data)


class TestIsExportHead:
    @pytest.mark.parametrize("encoding, bom", [
        ("utf-16-le", b"\xff\xfe"), ("utf-16-be", b"\xfe\xff"), ("utf-8", b"\xef\xbb\xbf"), ("utf-8", b""),
    ])
    def test_each_encoding_parse_reg_export_reads(self, encoding, bom):
        data = bom + export_text().encode(encoding)
        assert regexport.is_export_head(data[:4096])
        assert len(find_persisted_items(parse_reg_export(data))) == 2

    @pytest.mark.parametrize("head", [
        b"", b"\xff\xfe", b"REGEDIT", b"W\x00i\x00n\x00d\x00o\x00w\x00s\x00", b"; Windows Registry",
        b"\x00" * 4096, b"SQLite format 3\x00",
    ], ids=["empty", "bom-only", "short", "utf16le-without-bom", "comment", "zeros", "sqlite"])
    def test_other_heads(self, head):
        assert not regexport.is_export_head(head)

    def test_blank_text_may_come_first(self):
        assert regexport.is_export_head(b"\xef\xbb\xbf\r\n \tREGEDIT4\r\n")


class TestSerialize:
    def test_round_trip_fixed_point(self, export):
        text = serialize_reg_export(export)
        again = parse_reg_export(text)
        assert again.keys == export.keys
        assert serialize_reg_export(again) == text

    def test_long_binary_wraps_and_survives(self):
        rng = random.Random(3)
        payload = bytes(rng.randrange(256) for _ in range(64))
        export = RegExport(keys={"HKLM\\Big": [RegValue("Blob", "binary", payload)]})
        text = serialize_reg_export(export)
        assert any(line.endswith("\\") for line in text.splitlines())
        assert find_value(parse_reg_export(text), "HKLM\\Big", "Blob").data == payload

    def test_random_structures_round_trip(self):
        rng = random.Random(9)
        for _ in range(20):
            keys = {}
            for k in range(rng.randrange(1, 4)):
                path = "HKLM\\%s\\Sub%d" % ("".join(rng.choice("ABCxyz") for _ in range(5)), k)
                values = []
                for v in range(rng.randrange(0, 4)):
                    choice = rng.randrange(3)
                    if choice == 0:
                        values.append(RegValue("s%d" % v, "string", 'va"l\\ue%d' % v))
                    elif choice == 1:
                        values.append(RegValue("d%d" % v, "dword", rng.randrange(2**32)))
                    else:
                        values.append(RegValue("b%d" % v, "binary", bytes(rng.randrange(256) for _ in range(rng.randrange(0, 20)))))
                keys[path] = values
            export = RegExport(keys=keys)
            assert parse_reg_export(serialize_reg_export(export)).keys == keys


class TestInstallTime:
    def test_little_endian_binary_selected(self, export):
        record = find_install_time(export, sd.FACEBOOK_PACKAGE_FULL)
        assert isinstance(record, InstallRecord)
        assert record.install_time.isoformat_ms() == "2015-01-19T16:28:08.000Z"
        assert record.interpretation == "little-endian-binary"
        assert record.key_path == FB_KEY
        assert record.package.family == sd.FACEBOOK_PACKAGE_FAMILY

    def test_accepts_parsed_identity(self, export):
        identity = parse_package_id(sd.SKYPE_PACKAGE_FULL)
        record = find_install_time(export, identity)
        assert record.install_time.isoformat_ms() == "2015-01-19T16:28:08.000Z"

    def test_big_endian_hex_string_selected(self):
        # Value stored as displayed hex text, most significant byte first.
        text = "\n".join(
            [
                "Windows Registry Editor Version 5.00",
                "",
                "[%s]" % FB_KEY,
                '"InstallTime"="%s"' % sd.INSTALL_TIME_HEX_BIG,
                "",
            ]
        )
        record = find_install_time(parse_reg_export(text), sd.FACEBOOK_PACKAGE_FULL)
        assert record.install_time.isoformat_ms() == "2015-01-19T16:28:08.000Z"
        assert record.interpretation == "big-endian-hex"

    def test_epoch_boundary_value_is_ambiguous(self):
        # Hex spelling 1970-01-01: big reading lands before the window,
        # little reading far after it, so neither is accepted.
        text = "\n".join(
            [
                "Windows Registry Editor Version 5.00",
                "",
                "[%s]" % FB_KEY,
                '"InstallTime"="019DB1DED53E8000"',
                "",
            ]
        )
        with pytest.raises(AmbiguousInterpretation):
            find_install_time(parse_reg_export(text), sd.FACEBOOK_PACKAGE_FULL)

    def test_missing_key(self, export):
        with pytest.raises(PackageKeyNotFound):
            find_install_time(export, "Other.App_1.0.0.0_x64__0123456789abc")

    def test_key_without_value(self):
        text = "Windows Registry Editor Version 5.00\n\n[%s]\n" % FB_KEY
        with pytest.raises(PackageKeyNotFound):
            find_install_time(parse_reg_export(text), sd.FACEBOOK_PACKAGE_FULL)

    def test_wrong_size_value(self):
        text = 'Windows Registry Editor Version 5.00\n\n[%s]\n"InstallTime"=hex(b):01,02\n' % FB_KEY
        with pytest.raises(MalformedHex):
            find_install_time(parse_reg_export(text), sd.FACEBOOK_PACKAGE_FULL)

    def test_never_returns_implausible_instant(self):
        rng = random.Random(21)
        for _ in range(200):
            raw = bytes(rng.randrange(256) for _ in range(8))
            text = 'Windows Registry Editor Version 5.00\n\n[%s]\n"InstallTime"=hex(b):%s\n' % (
                FB_KEY,
                ",".join("%02x" % b for b in raw),
            )
            try:
                record = find_install_time(parse_reg_export(text), sd.FACEBOOK_PACKAGE_FULL)
            except AmbiguousInterpretation:
                continue
            year = int(record.install_time.isoformat_ms()[:4])
            assert 2000 <= year < 2100


def _install_key(branch, family, full, ticks=None):
    values = [] if ticks is None else [RegValue("InstallTime", "qword", ticks.to_bytes(8, "little"))]
    return branch + "\\" + family + "\\" + full, values


def reference_install_records(export):
    """One find_install_time call per qualifying key: the oracle for find_install_records."""
    records = []
    for key in export.keys:
        segments = [segment for segment in key.split("\\") if segment]
        if len(segments) < 2:
            continue
        try:
            identity = parse_package_id(segments[-1])
        except ExtractionError:
            continue
        if segments[-2].casefold() != identity.family.casefold():
            continue
        try:
            records.append(find_install_time(export, segments[-1]))
        except ExtractionError:
            continue
    return records


LATER_TICKS = sd.INSTALL_TIME_TICKS + 86400 * 10**7


class TestInstallRecords:
    def test_fixture_export(self, export):
        records = find_install_records(export, evidence_path="x.reg")
        assert [r.package.text for r in records] == [sd.FACEBOOK_PACKAGE_FULL, sd.SKYPE_PACKAGE_FULL]
        assert records[0].provenance.evidence_path == "x.reg"
        assert records[1].provenance is records[0].provenance  # one per export
        assert find_install_records(export) == reference_install_records(export)

    def test_same_package_under_two_hives_and_cases(self):
        other_hive = sd.REPOSITORY_BRANCH.replace("HKEY_USERS\\" + sd.REGISTRY_SID, "HKEY_LOCAL_MACHINE")
        upper_family = sd.FACEBOOK_PACKAGE_FAMILY.replace("Facebook.Facebook", "FACEBOOK.FACEBOOK")
        upper_full = sd.FACEBOOK_PACKAGE_FULL.replace("Facebook.Facebook", "FACEBOOK.FACEBOOK")
        first, first_values = _install_key(
            sd.REPOSITORY_BRANCH, sd.FACEBOOK_PACKAGE_FAMILY, sd.FACEBOOK_PACKAGE_FULL, sd.INSTALL_TIME_TICKS)
        second, second_values = _install_key(other_hive.upper(), upper_family, upper_full, LATER_TICKS)
        export = RegExport(keys={first: first_values, second: second_values})
        records = find_install_records(export)
        assert [r.package.text for r in records] == [sd.FACEBOOK_PACKAGE_FULL, upper_full]
        assert [r.key_path for r in records] == [first, first]
        assert {r.install_time.isoformat_ms() for r in records} == {"2015-01-19T16:28:08.000Z"}
        assert records == reference_install_records(export)

    def test_first_key_without_install_time_wins(self):
        bare, bare_values = _install_key(
            "HKEY_LOCAL_MACHINE\\Repository", sd.FACEBOOK_PACKAGE_FAMILY, sd.FACEBOOK_PACKAGE_FULL)
        good, good_values = _install_key(
            sd.REPOSITORY_BRANCH, sd.FACEBOOK_PACKAGE_FAMILY, sd.FACEBOOK_PACKAGE_FULL, sd.INSTALL_TIME_TICKS)
        export = RegExport(keys={bare: bare_values, good: good_values})
        with pytest.raises(PackageKeyNotFound, match="no InstallTime"):
            find_install_time(export, sd.FACEBOOK_PACKAGE_FULL)
        assert find_install_records(export) == [] == reference_install_records(export)

    def test_key_paths_with_empty_segments(self):
        # Empty segments, from a doubled or a trailing backslash, are dropped:
        # each of the three keys is a package key.
        gap = sd.REPOSITORY_BRANCH + "\\" + sd.FACEBOOK_PACKAGE_FAMILY + "\\\\" + sd.FACEBOOK_PACKAGE_FULL
        good, good_values = _install_key(
            sd.REPOSITORY_BRANCH, sd.FACEBOOK_PACKAGE_FAMILY, sd.FACEBOOK_PACKAGE_FULL, LATER_TICKS)
        trailing, trailing_values = _install_key(
            sd.REPOSITORY_BRANCH + "\\", sd.SKYPE_PACKAGE_FAMILY, sd.SKYPE_PACKAGE_FULL + "\\",
            sd.INSTALL_TIME_TICKS)
        text = serialize_reg_export(RegExport(keys={
            gap: [RegValue("InstallTime", "qword", sd.INSTALL_TIME_TICKS.to_bytes(8, "little"))],
            good: good_values, trailing: trailing_values}))
        export = parse_reg_export(text)
        assert list(export.keys) == [gap, good, trailing]
        records = find_install_records(export)
        assert [(r.package.text, r.key_path) for r in records] == [
            (sd.FACEBOOK_PACKAGE_FULL, gap), (sd.FACEBOOK_PACKAGE_FULL, gap), (sd.SKYPE_PACKAGE_FULL, trailing)]
        assert {r.install_time.isoformat_ms() for r in records} == {"2015-01-19T16:28:08.000Z"}
        assert records == reference_install_records(export)
        assert find_install_time(export, sd.SKYPE_PACKAGE_FULL).key_path == trailing

    @pytest.mark.parametrize("packages", [1000, 4000])
    def test_key_decoding_is_linear(self, monkeypatch, packages):
        calls = []
        original = regexport._key_segments

        def counted(path):
            calls.append(path)
            return original(path)

        monkeypatch.setattr(regexport, "_key_segments", counted)
        keys = dict(
            _install_key(sd.REPOSITORY_BRANCH, "App%d_8xx8rvfyw5nnt" % n,
                         "App%d_1.0.0.0_x64__8xx8rvfyw5nnt" % n, sd.INSTALL_TIME_TICKS)
            for n in range(packages))
        records = find_install_records(RegExport(keys=keys))
        assert len(records) == packages
        assert len(calls) <= 2 * packages


# Package keys as exports spell them, in the case they were written or in
# another (an all-upper full identity no longer parses), with empty segments
# from doubled or trailing backslashes, and with or without an install time.
_PACKAGES = [(sd.FACEBOOK_PACKAGE_FAMILY, sd.FACEBOOK_PACKAGE_FULL), (sd.SKYPE_PACKAGE_FAMILY, sd.SKYPE_PACKAGE_FULL)]
_CASES = [str, str.upper, str.lower, lambda text: text.replace(text.split(".")[0], text.split(".")[0].upper())]
_TIMES = [None, sd.INSTALL_TIME_TICKS, LATER_TICKS, 0]
_BRANCHES = [sd.REPOSITORY_BRANCH, "HKEY_LOCAL_MACHINE\\Repository", "HKEY_LOCAL_MACHINE\\Repository\\"]

_key_specs = st.tuples(st.sampled_from(_BRANCHES), st.sampled_from(_PACKAGES), st.sampled_from(_CASES),
                       st.sampled_from(["\\", "\\\\"]), st.sampled_from(["", "\\"]), st.sampled_from(_TIMES),
                       st.booleans())


def _drawn_export(specs) -> RegExport:
    keys = {}
    for branch, (family, full), case, gap, end, ticks, whole in specs:
        key = branch + "\\" + case(family) + gap + case(full) + end if whole else branch + "\\" + case(family)
        values = [] if ticks is None else [RegValue("InstallTime", "qword", ticks.to_bytes(8, "little"))]
        keys.setdefault(key, values)
    return RegExport(keys=keys)


class TestInstallKeyRule:
    """find_install_records and find_install_time split key paths by one rule."""

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.lists(_key_specs, max_size=8))
    def test_every_package_key_gets_find_install_time_record(self, specs):
        export = _drawn_export(specs)
        assert find_install_records(export) == reference_install_records(export)

    def test_registry_prints_a_key_that_ends_in_a_backslash(self, tmp_path, capsys):
        key, values = _install_key(sd.REPOSITORY_BRANCH, sd.SKYPE_PACKAGE_FAMILY, sd.SKYPE_PACKAGE_FULL + "\\",
                                   sd.INSTALL_TIME_TICKS)
        path = tmp_path / "export.reg"
        path.write_text(serialize_reg_export(RegExport(keys={key: values})), encoding="utf-8")
        assert main(["registry", str(path)]) == 0
        assert capsys.readouterr().out == "install\t%s\t2015-01-19T16:28:08.000Z\n" % sd.SKYPE_PACKAGE_FULL


class TestPersistedItems:
    def test_two_items(self, export):
        items = find_persisted_items(export)
        assert len(items) == 2
        assert items[0].file_path.endswith("SuspectToVictim.docx")
        assert items[1].file_path.endswith("SuspectToVictim.zip")
        assert items[0].guid == sd.PERSISTED_ITEMS[0]["guid"]
        assert items[0].last_updated.isoformat_ms() == "2015-01-19T21:13:42.000Z"
        assert items[1].last_updated.isoformat_ms() == "2015-01-19T21:13:54.000Z"
        assert items[0].interpretation == "little-endian-binary"
        assert items[1].provenance is items[0].provenance  # one per export

    def test_absent_branch(self):
        export = parse_reg_export('Windows Registry Editor Version 5.00\n\n[HKLM\\X]\n"a"="b"\n')
        assert find_persisted_items(export) == []

    def test_missing_file_path_skipped_with_warning(self):
        text = "\n".join(
            [
                "Windows Registry Editor Version 5.00",
                "",
                "[%s\\{B2E34A15-6C11-4E5A-9D07-9A33C3E10003}]" % sd.PERSISTED_BRANCH,
                '"LastUpdatedTime"=hex(b):%s' % _hexb(sd.PERSISTED_ITEMS[0]["last_updated_ticks"]),
                "",
            ]
        )
        warnings = []
        items = find_persisted_items(parse_reg_export(text), warnings)
        assert items == []
        assert any("lacks FilePath" in w for w in warnings)

    def test_non_guid_subkey_ignored(self):
        text = "\n".join(
            [
                "Windows Registry Editor Version 5.00",
                "",
                "[%s\\NotAGuid]" % sd.PERSISTED_BRANCH,
                '"FilePath"="C:\\\\x"',
                "",
            ]
        )
        assert find_persisted_items(parse_reg_export(text)) == []

    def test_missing_time_kept_with_warning(self):
        text = "\n".join(
            [
                "Windows Registry Editor Version 5.00",
                "",
                "[%s\\{B2E34A15-6C11-4E5A-9D07-9A33C3E10004}]" % sd.PERSISTED_BRANCH,
                '"FilePath"="C:\\\\kept.txt"',
                "",
            ]
        )
        warnings = []
        (item,) = find_persisted_items(parse_reg_export(text), warnings)
        assert item.last_updated is None
        assert any("lacks LastUpdatedTime" in w for w in warnings)
