"""Registry export parsing, install-time decoding, persisted items."""

import random

import pytest

from imartifacts import regexport
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
        segments = key.split("\\")
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
        # An empty segment between family and full still names the package
        # for lookup, though the key itself does not qualify as a package key.
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
        assert [(r.package.text, r.key_path) for r in records] == [(sd.FACEBOOK_PACKAGE_FULL, gap)]
        assert records[0].install_time.isoformat_ms() == "2015-01-19T16:28:08.000Z"
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
