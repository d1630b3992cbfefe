import os

import pytest

from imartifacts.locator import (
    CATALOG,
    KNOWN_LAYOUTS,
    MalformedPackageId,
    NotZoneTransfer,
    Role,
    RootUnreadable,
    match_catalog,
    parse_package_id,
    read_zone_identifier,
    scan_tree,
    sidecar_target,
)


class TestPackageId:
    def test_full_form_double_underscore(self):
        pkg = parse_package_id("Facebook.Facebook_1.4.0.9_x64__8xx8rvfyw5nnt")
        assert pkg.name == "Facebook.Facebook"
        assert pkg.version == "1.4.0.9"
        assert pkg.arch == "x64"
        assert pkg.publisher_id == "8xx8rvfyw5nnt"
        assert pkg.family == "Facebook.Facebook_8xx8rvfyw5nnt"

    def test_full_form_single_underscore(self):
        pkg = parse_package_id("Microsoft.SkypeApp_2.0.0.5011_x86_kzf8qxf38zg5c")
        assert pkg.name == "Microsoft.SkypeApp"
        assert pkg.version == "2.0.0.5011"
        assert pkg.arch == "x86"
        assert pkg.publisher_id == "kzf8qxf38zg5c"

    def test_family_form(self):
        pkg = parse_package_id("Microsoft.SkypeApp_kzf8qxf38zg5c")
        assert pkg.name == "Microsoft.SkypeApp"
        assert pkg.version is None
        assert pkg.arch is None

    def test_family_with_underscore_in_name(self):
        pkg = parse_package_id("winstore_cw5n1h2txyewy")
        assert pkg.name == "winstore"
        assert pkg.publisher_id == "cw5n1h2txyewy"

    def test_full_reduces_to_family(self):
        full = parse_package_id("Facebook.Facebook_1.4.0.9_x64__8xx8rvfyw5nnt")
        family = parse_package_id("Facebook.Facebook_8xx8rvfyw5nnt")
        assert full.family == family.text
        assert full.name == family.name
        assert full.publisher_id == family.publisher_id

    @pytest.mark.parametrize(
        "bad",
        [
            "no_underscores_here!",
            "plainname",
            "_kzf8qxf38zg5c",
            "Name_1.2.3_x64_short",
            "",
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(MalformedPackageId):
            parse_package_id(bad)


class TestCatalog:
    def test_every_known_layout_is_covered(self):
        rule_ids = {rule.rule_id for rule in CATALOG}
        for description, example, kind, expected_rule in KNOWN_LAYOUTS:
            assert expected_rule in rule_ids, description
            matches = match_catalog(example, is_dir=(kind == "dir"))
            assert expected_rule in {m.rule_id for m in matches}, description

    def test_account_and_package_captured(self):
        path = (
            "Users/anon/AppData/Local/Packages/Facebook.Facebook_8xx8rvfyw5nnt/"
            "LocalState/100004911219827/DB/Messages.sqlite"
        )
        (match,) = [m for m in match_catalog(path, False) if m.role == Role.CACHE_DB]
        assert match.account == "100004911219827"
        assert match.package.family == "Facebook.Facebook_8xx8rvfyw5nnt"

    def test_windows_separators_accepted(self):
        path = r"C:\Program Files\WindowsApps\Facebook.Facebook_1.4.0.9_x64__8xx8rvfyw5nnt"
        roles = {m.role for m in match_catalog(path, True)}
        assert Role.APP_INSTALL_DIR in roles

    def test_deleted_dir_not_reported_as_install(self):
        path = "Program Files/WindowsApps/Deleted/Facebook.Facebook_1.4.0.9_x64__8xx8rvfyw5nnt"
        roles = {m.role for m in match_catalog(path, True)}
        assert Role.DELETED_INSTALL_DIR in roles
        assert Role.APP_INSTALL_DIR not in roles

    def test_case_insensitive_literals(self):
        path = "users/anon/appdata/local/temp/WINSTORE.LOG"
        roles = {m.role for m in match_catalog(path, False)}
        assert Role.WINSTORE_LOG in roles

    def test_non_artifact_ignored(self):
        assert match_catalog("Users/anon/Documents/notes.txt", False) == []


class TestScanTree:
    def make_tree(self, tmp_path):
        base = tmp_path / "Users" / "anon" / "AppData" / "Local"
        fb = base / "Packages" / "Facebook.Facebook_8xx8rvfyw5nnt" / "LocalState" / "100004911219827" / "DB"
        fb.mkdir(parents=True)
        (fb / "Messages.sqlite").write_bytes(b"x")
        sk = base / "Packages" / "Microsoft.SkypeApp_kzf8qxf38zg5c" / "LocalState"
        (sk / "harold.cornwall1").mkdir(parents=True)
        (sk / "shared.xml").write_bytes(b"<config/>")
        (sk / "harold.cornwall1" / "main.db").write_bytes(b"x")
        downloads = tmp_path / "Users" / "anon" / "Downloads"
        downloads.mkdir(parents=True)
        (downloads / "report.pdf").write_bytes(b"%PDF")
        (downloads / "report.pdf.Zone.Identifier").write_bytes(b"[ZoneTransfer]\r\nZoneId=3\r\n")
        return tmp_path

    def test_finds_expected_roles(self, tmp_path):
        root = self.make_tree(tmp_path)
        artifacts = scan_tree(root)
        roles = {a.role for a in artifacts}
        assert {Role.CACHE_DB, Role.MAIN_DB, Role.SHARED_XML, Role.ZONE_SIDECAR} <= roles
        main = [a for a in artifacts if a.role == Role.MAIN_DB]
        assert main[0].account == "harold.cornwall1"

    def test_all_paths_exist_under_root(self, tmp_path):
        root = self.make_tree(tmp_path)
        for artifact in scan_tree(root):
            assert artifact.path.startswith(str(root))
            assert os.path.exists(artifact.path)

    def test_deterministic_and_idempotent(self, tmp_path):
        root = self.make_tree(tmp_path)
        first = scan_tree(root)
        second = scan_tree(root)
        assert first == second
        assert first == sorted(first, key=lambda a: (a.path, a.role))

    def test_missing_root_rejected(self, tmp_path):
        with pytest.raises(RootUnreadable):
            scan_tree(tmp_path / "nope")


class TestZoneSidecar:
    def test_basic_marker(self):
        marker = read_zone_identifier(
            b"[ZoneTransfer]\r\nZoneId=3\r\n", "Downloads/report.pdf:Zone.Identifier"
        )
        assert marker.zone_id == 3
        assert marker.target_path == "Downloads/report.pdf"

    def test_dot_separator_variant(self):
        marker = read_zone_identifier(
            b"[ZoneTransfer]\r\nZoneId=3\r\n", "Downloads/report.pdf.Zone.Identifier"
        )
        assert marker.target_path == "Downloads/report.pdf"

    def test_extras_preserved(self):
        marker = read_zone_identifier(
            b"[ZoneTransfer]\r\nZoneId=3\r\nHostUrl=https://cdn.example/x\r\n"
        )
        assert ("HostUrl", "https://cdn.example/x") in marker.extras

    def test_utf16_content(self):
        content = "[ZoneTransfer]\r\nZoneId=4\r\n".encode("utf-16-le")
        marker = read_zone_identifier(b"\xff\xfe" + content)
        assert marker.zone_id == 4

    def test_not_a_marker(self):
        with pytest.raises(NotZoneTransfer):
            read_zone_identifier(b"just some text")

    def test_zone_out_of_range(self):
        with pytest.raises(NotZoneTransfer):
            read_zone_identifier(b"[ZoneTransfer]\nZoneId=9\n")

    def test_zone_ids_span_defined_range(self):
        for zone in range(5):
            marker = read_zone_identifier(("[ZoneTransfer]\nZoneId=%d\n" % zone).encode())
            assert marker.zone_id == zone

    def test_sidecar_target_helper(self):
        assert sidecar_target("a.txt:Zone.Identifier") == "a.txt"
        assert sidecar_target("a.txt") is None
        assert sidecar_target(":Zone.Identifier") is None
