import ast
import csv
import errno
import gc
import io
import json
import os
import sqlite3
import stat
import struct
import subprocess
import sys
import threading
import time
import warnings
import weakref
from dataclasses import replace
from pathlib import Path

import pytest

import imartifacts
from imartifacts import cli, facebook, forge, mapping, pcap, sampledata, skype, sqliteio, timeline
from imartifacts.cli import ENV_OUT, main
from imartifacts.model import EventKind, ExtractionError, Provenance
from test_facebook import DEEP_CHAT_REGION
from test_forge import expected_events
from test_metamorphic import ENCODINGS


@pytest.fixture(scope="module")
def forged(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli") / "evidence"
    manifest = forge.forge_fixture(3, root)
    return root, manifest


def fb_db(root, name):
    return str(root / forge.FACEBOOK_DB_DIR / name)


class TestForgeCommand:
    def test_writes_tree_and_reports_seed(self, tmp_path, capfd):
        assert main(["forge", "--seed", "9", "--out", str(tmp_path / "E")]) == 0
        out = capfd.readouterr().out
        assert "seed 9" in out
        assert (tmp_path / "E" / "manifest.json").is_file()

    def test_nonempty_output_is_input_error(self, tmp_path, capfd):
        target = tmp_path / "E"
        assert main(["forge", "--seed", "1", "--out", str(target)]) == 0
        assert main(["forge", "--seed", "1", "--out", str(target)]) == 2
        assert "not empty" in capfd.readouterr().err

    def test_missing_out_is_usage_error(self, monkeypatch, capfd):
        monkeypatch.delenv(ENV_OUT, raising=False)
        assert main(["forge", "--seed", "1"]) == 1

    def test_out_defaults_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_OUT, str(tmp_path / "envtree"))
        assert main(["forge", "--seed", "2"]) == 0
        assert (tmp_path / "envtree" / "manifest.json").is_file()


class TestScan:
    def test_lists_cataloged_artifacts(self, forged, capfd):
        root, _ = forged
        assert main(["scan", str(root)]) == 0
        lines = capfd.readouterr().out.splitlines()
        roles = {line.split("\t")[0] for line in lines}
        assert {"CacheDb", "MainDb", "SharedXml", "ConfigXml", "ZoneIdentifierSidecar"} <= roles

    def test_missing_root(self, capfd):
        assert main(["scan", "/no/such/root"]) == 2
        assert "error" in capfd.readouterr().err


class TestSummaries:
    def test_skype_counts_per_table(self, forged, capfd):
        root, manifest = forged
        assert main(["skype", str(root / forge.SKYPE_ACCOUNT_DIR / "main.db")]) == 0
        out = capfd.readouterr().out
        n = len(manifest["skype"]["tables"]["Messages"])
        assert "accounts=1" in out and "messages=%d" % n in out
        assert "transfers=6" in out and "calls=4" in out

    def test_skype_accepts_state_directory(self, forged, capfd):
        root, _ = forged
        assert main(["skype", str(root / forge.SKYPE_STATE_DIR)]) == 0
        assert "main.db" in capfd.readouterr().out

    def test_skype_dir_without_db(self, tmp_path, capfd):
        assert main(["skype", str(tmp_path)]) == 2

    def test_facebook_counts(self, forged, capfd):
        root, _ = forged
        assert main(["facebook", fb_db(root, "Messages.sqlite"),
                     fb_db(root, "Analytics.sqlite")]) == 0
        out = capfd.readouterr().out
        assert "messages=5 users=2" in out
        assert "analytics=5" in out

    def test_facebook_partial_failure(self, forged, capfd):
        root, _ = forged
        code = main(["facebook", str(root / "capture.pcap"), fb_db(root, "Messages.sqlite")])
        captured = capfd.readouterr()
        assert code == 3
        assert "error" in captured.err
        assert "messages=5" in captured.out

    def test_facebook_total_failure(self, capfd):
        assert main(["facebook", "/no/such.db"]) == 2

    def test_registry_lines(self, forged, capfd):
        root, _ = forged
        assert main(["registry", str(root / "registry_export.reg")]) == 0
        lines = capfd.readouterr().out.splitlines()
        installs = [l for l in lines if l.startswith("install\t")]
        persisted = [l for l in lines if l.startswith("persisted\t")]
        assert len(installs) == 2 and len(persisted) == 2
        assert any("2015-01-19T16:28:08.000Z" in l for l in installs)

    def test_pcap_labels(self, forged, capfd):
        root, _ = forged
        assert main(["pcap", str(root / "capture.pcap")]) == 0
        out = capfd.readouterr().out
        assert "FacebookChat" in out and "SkypeSupernodeLookup" in out


    def test_catalog_override_relabels_flow(self, forged, tmp_path, capfd):
        root, manifest = forged
        (flow,) = [f for f in manifest["capture"]["flows"] if f["label"] == "FacebookUpload"]
        server = flow["endpoint_b"][0]
        override = tmp_path / "catalog.txt"
        override.write_text("%s MicrosoftLive Test_Owner\n" % server)
        capture = str(root / "capture.pcap")
        for command in (["pcap", capture], ["timeline", capture, "--format", "csv"]):
            assert main(command) == 0
            (before,) = [l for l in capfd.readouterr().out.splitlines() if server in l]
            assert main([*command, "--catalog", str(override)]) == 0
            (after,) = [l for l in capfd.readouterr().out.splitlines() if server in l]
            assert "FacebookUpload" in before and "MicrosoftLive" not in before
            assert "MicrosoftLive" in after and "FacebookUpload" not in after

    def test_catalog_help_describes_text_format(self, capfd):
        for command in ("pcap", "timeline", "report"):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            assert "'match label owner [urls]' line" in " ".join(capfd.readouterr().out.split())


def _child_env():
    """The environment with this package's source first on PYTHONPATH."""
    src = str(Path(imartifacts.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _run_cli(*args):
    return subprocess.run([sys.executable, "-m", "imartifacts.cli", *args],
                          env=_child_env(), capture_output=True, text=True, timeout=120)


class TestBadCatalog:
    """A catalog that cannot be read or parsed is a usage error, found before any input is read."""

    @pytest.fixture(params=["missing", "malformed"])
    def bad_catalog(self, request, tmp_path):
        path = tmp_path / "catalog.txt"
        if request.param == "malformed":
            path.write_text("203.0.113.9 FacebookChat\n")
        return path

    @pytest.fixture(params=["pcap", "timeline", "report"])
    def command(self, request, forged):
        root, _ = forged
        return [request.param, str(root if request.param == "report" else root / "capture.pcap")]

    def test_exits_1_without_traceback_or_output(self, command, bad_catalog):
        result = _run_cli(*command, "--catalog", str(bad_catalog))
        assert result.returncode == 1
        assert result.stdout == ""
        assert "Traceback" not in result.stderr
        assert str(bad_catalog) in result.stderr

    def test_no_input_is_read(self, command, bad_catalog, monkeypatch, capfd):
        opened = []
        monkeypatch.setattr(cli, "_sniff", opened.append)
        monkeypatch.setattr(pcap, "read_pcap", opened.append)
        assert main([*command, "--catalog", str(bad_catalog)]) == 1
        assert opened == []
        assert capfd.readouterr().out == ""


class TestCarveCommand:
    def test_writes_payloads_and_index(self, forged, tmp_path, capfd):
        root, manifest = forged
        out = tmp_path / "carved"
        assert main(["carve", str(root / "memory.bin"), "--out", str(out)]) == 0
        index = json.loads((out / "index.json").read_text())
        plants = [p for p in manifest["memory"]["plants"]
                  if p["kind"] in ("config-xml", "shared-xml")]
        assert len(index) == len(plants)
        for entry in index:
            payload = (out / entry["file"]).read_bytes()
            assert len(payload) == entry["length"]
            assert entry["file"] == "%s_%d.bin" % (entry["signature"], entry["offset"])


class TestPipelineCommands:
    def test_report_matches_manifest_expectations(self, forged, tmp_path, capfd):
        root, manifest = forged
        out = tmp_path / "report.jsonl"
        assert main(["report", str(root), "--format", "jsonl", "--out", str(out)]) == 0
        got = [json.loads(line) for line in out.read_text().splitlines() if line]
        assert got == manifest["expected_timeline"]

    def test_timeline_over_every_file(self, forged, tmp_path, capfd):
        root, manifest = forged
        inputs = sorted(str(p) for p in root.rglob("*") if p.is_file())
        out = tmp_path / "tl.jsonl"
        assert main(["timeline", *inputs, "--out", str(out)]) == 0
        events = forge.relativize_events(timeline.parse_jsonl(out.read_text()), root)
        assert events == expected_events(manifest)

    def test_timeline_csv_header(self, forged, capfd):
        root, _ = forged
        assert main(["timeline", str(root / "ntfs_journal.csv"), "--format", "csv"]) == 0
        first = capfd.readouterr().out.splitlines()[0]
        assert first.split(",") == list(timeline.EMIT_FIELDS)

    def test_ntfs_flag_forces_csv_ingest(self, forged, tmp_path, capfd):
        root, _ = forged
        renamed = tmp_path / "journal.dat"
        renamed.write_bytes((root / "ntfs_journal.csv").read_bytes())
        assert main(["timeline", str(root / "capture.pcap"), "--ntfs-csv", str(renamed)]) == 0
        out = capfd.readouterr().out
        assert "FsJournal" in out

    def test_journal_as_input_and_flag_is_ingested_once(self, forged, monkeypatch, capfd):
        root, _ = forged
        journal = str(root / "ntfs_journal.csv")
        tallies = []

        class RecordingTally(cli._Tally):
            def __init__(self):
                super().__init__()
                tallies.append(self)

        monkeypatch.setattr(cli, "_Tally", RecordingTally)
        assert main(["timeline", journal]) == 0
        alone = timeline.parse_jsonl(capfd.readouterr().out)
        assert main(["timeline", journal, str(root / "capture.pcap"), "--ntfs-csv", journal]) == 0
        events = timeline.parse_jsonl(capfd.readouterr().out)
        journal_events = [e for e in events if e.kind is EventKind.FS_JOURNAL]
        assert journal_events == alone
        assert all(e.duplicates == 1 for e in journal_events)
        tally = tallies[-1]
        assert tally.ok.count(journal) == 1 and tally.failed == []

    def test_journal_named_by_another_path_is_read_once(self, forged, tmp_path, capfd):
        """An input that resolves to the --ntfs-csv file, through ".." or a symbolic link, is not read again."""
        root, _ = forged
        journal = tmp_path / "ntfs_journal.csv"
        journal.write_bytes((root / "ntfs_journal.csv").read_bytes())
        (tmp_path / "sub").mkdir()
        link = tmp_path / "link.csv"
        link.symlink_to(journal)
        assert main(["timeline", str(journal)]) == 0
        alone = timeline.parse_jsonl(capfd.readouterr().out)
        assert len(alone) == 5
        for other in (tmp_path / "sub" / ".." / "ntfs_journal.csv", link):
            for argv in ([str(journal), "--ntfs-csv", str(other)], [str(other), "--ntfs-csv", str(journal)]):
                assert main(["timeline", *argv]) == 0
                events = timeline.parse_jsonl(capfd.readouterr().out)
                assert [replace(e, provenance=replace(e.provenance, evidence_path=str(journal))) for e in events] \
                    == alone
        loop = tmp_path / "loop.csv"
        loop.symlink_to(loop)
        assert main(["timeline", str(loop), "--ntfs-csv", str(journal)]) == 3  # the loop fails alone
        assert len(timeline.parse_jsonl(capfd.readouterr().out)) == 5

    def test_partial_failure_keeps_good_events(self, forged, tmp_path, capfd):
        root, _ = forged
        broken = tmp_path / "broken.db"
        broken.write_bytes(b"SQLite format 3\x00" + b"\x00" * 64)
        code = main(["timeline", str(broken), str(root / "ntfs_journal.csv")])
        captured = capfd.readouterr()
        assert code == 3
        assert "error" in captured.err
        assert "FsJournal" in captured.out

    def test_report_closes_every_file(self, forged, tmp_path):
        root, _ = forged
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            assert main(["report", str(root), "--out", str(tmp_path / "r.jsonl")]) == 0
            gc.collect()
        assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_report_builds_one_provenance_per_source(self, tmp_path, monkeypatch, capfd):
        root = tmp_path / "evidence"
        forge.forge_fixture(7, root)
        built = {"sqliteio": [], "timeline": []}

        def counting(keys):
            def build(*args, **kwargs):
                provenance = Provenance(*args, **kwargs)
                keys.append((provenance.evidence_path, provenance.extractor,
                             provenance.channel, provenance.byte_offset))
                return provenance
            return build

        # The SQLite extractors build theirs in sqliteio.read_table, timeline.relativize_events its own.
        monkeypatch.setattr(sqliteio, "Provenance", counting(built["sqliteio"]))
        monkeypatch.setattr(timeline, "Provenance", counting(built["timeline"]))
        out = tmp_path / "report.jsonl"
        assert main(["report", str(root), "--format", "jsonl", "--out", str(out)]) == 0
        golden = Path(__file__).parent / "golden" / "report_seed7.jsonl"
        assert out.read_bytes() == golden.read_bytes()
        for module, keys in built.items():
            assert keys, module
            assert len(keys) == len(set(keys)), module

    def test_report_maps_records_through_timeline_normalize(self, tmp_path):
        """Record mapping lives in mapping, but the pipeline still calls it
        as timeline.normalize, the layer the benchmark's trace wraps; so with
        every other layer perfbench/run.py requires of a traced report on a
        forged tree.  The traced report is the golden one."""
        root = tmp_path / "evidence"
        forge.forge_fixture(7, root)
        bench = Path(__file__).resolve().parent.parent / "perfbench"
        base_layers = next(ast.literal_eval(node.value) for node in ast.parse((bench / "run.py").read_text("utf-8")).body
                           if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "BASE_LAYERS")
        stats, out = tmp_path / "trace.json", tmp_path / "report.jsonl"
        child = subprocess.run([sys.executable, str(bench / "trace_run.py"), str(stats),
                                "report", str(root), "--format", "jsonl", "--out", str(out)],
                               env=_child_env(), capture_output=True, timeout=300)
        assert child.returncode == 0, child.stderr
        trace = json.loads(stats.read_text(encoding="utf-8"))
        assert trace["missing"] == []
        required = base_layers + ("forge.relativize_events",)
        assert "timeline.normalize" in required
        assert [name for name in required if not trace["layers"].get(name, {}).get("calls")] == []
        golden = Path(__file__).parent / "golden" / "report_seed7.jsonl"
        assert out.read_bytes() == golden.read_bytes()

    def test_verbose_prints_warnings(self, forged, capfd):
        root, _ = forged
        assert main(["timeline", str(root / "ntfs_journal.csv"), "-v"]) == 0
        assert "warning:" in capfd.readouterr().err


class TestLoneSurrogate:
    """A chat fragment in memory whose JSON escapes a lone surrogate."""

    @pytest.fixture
    def tree(self, tmp_path):
        root = tmp_path / "evidence"
        root.mkdir()
        fragment = sampledata.CHAT_PUSH_JSON.replace("SUSPECT", "\\ud800").encode("ascii")
        (root / "memdump.bin").write_bytes(bytes(40) + fragment + bytes(40))
        return root

    def test_report_writes_the_json_escape(self, tree, tmp_path, capfd):
        out = tmp_path / "report.jsonl"
        assert main(["report", str(tree), "--out", str(out)]) == 0
        data = out.read_bytes()
        assert b"SUSPECT" not in data and b"\\ud800" in data
        events = timeline.parse_jsonl(data)
        assert [event.summary.count("\ud800") for event in events] == [1]
        again = timeline.Report(events=events, counts={}, warnings=[], tool_version="", generated_at="")
        assert timeline.emit(again) == data

    def test_timeline_csv_exits_0(self, tree, capfd):
        assert main(["timeline", str(tree / "memdump.bin"), "--format", "csv"]) == 0
        assert "\\ud800" in capfd.readouterr().out


class TestStreamedOutput:
    @pytest.mark.parametrize("format", ["csv", "jsonl"])
    def test_out_and_stdout_get_the_same_bytes_without_resource_warnings(self, forged, tmp_path, format):
        root, _ = forged
        out = tmp_path / ("report." + format)
        runs = []
        for extra in (["--out", str(out)], []):
            runs.append(subprocess.run(
                [sys.executable, "-X", "dev", "-m", "imartifacts.cli", "report", str(root), "--format", format, *extra],
                env=_child_env(), capture_output=True, timeout=120))
        for run in runs:
            assert run.returncode == 0, run.stderr
            assert b"ResourceWarning" not in run.stderr
        assert runs[0].stdout == b""
        assert out.read_bytes() == runs[1].stdout
        assert runs[1].stdout.count(b"\n") > 10


class TestWal:
    WAL_HEADER = bytes.fromhex("377f0682") + bytes(28)

    def test_one_warning_per_database(self, forged, tmp_path, capfd):
        root, _ = forged
        messages = tmp_path / "evidence" / "Messages.sqlite"
        messages.parent.mkdir()
        messages.write_bytes(Path(fb_db(root, "Messages.sqlite")).read_bytes())
        Path(str(messages) + "-wal").write_bytes(self.WAL_HEADER)
        for command in (["facebook", str(messages)], ["report", str(messages.parent), "-v"],
                        ["timeline", str(messages), "-v"]):
            assert main(command) == 0
            lines = capfd.readouterr().err.splitlines()
            assert [l for l in lines if "wal-present-not-applied" in l] == [
                "warning: wal-present-not-applied: %s" % messages], command


DAMAGED_DB = b"SQLite format 3\x00" + b"\x00" * 64
ORPHAN_GUID = "{B2E34A15-6C11-4E5A-9D07-9A33C3E10009}"
# A persisted-storage key without the FilePath value find_persisted_items needs.
ORPHAN_EXPORT = (
    "Windows Registry Editor Version 5.00\r\n\r\n"
    "[HKEY_USERS\\S-1\\Software\\Classes\\Local Settings\\Software\\Microsoft\\Windows\\"
    "CurrentVersion\\AppModel\\SystemAppData\\%s\\PersistedStorageItemTable\\ManagedByApp\\%s]\r\n"
    '"LastUpdatedTime"=hex(b):00,c7,38,cd,2c,34,d0,01\r\n\r\n'
    % (sampledata.SKYPE_PACKAGE_FAMILY, ORPHAN_GUID)
).encode("latin-1")


class TestPerInputOutcome:
    """Each input is read once and counts as read, skipped or failed."""

    def test_each_xml_body_is_read_once(self, tmp_path, monkeypatch, capfd):
        other = tmp_path / "other.xml"
        other.write_bytes(b'<?xml version="1.0"?>\r\n<config/>\r\n')
        (tmp_path / "shared.xml").write_bytes(sampledata.SHARED_XML_DOC)
        (tmp_path / "config.xml").write_bytes(sampledata.CONFIG_XML_DOC)
        reads = []
        read_bytes = Path.read_bytes

        def counted(path):
            reads.append(path.name)
            return read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", counted)
        assert main(["timeline", *(str(tmp_path / n) for n in ("shared.xml", "config.xml", "other.xml")),
                     "-v"]) == 0
        assert sorted(reads) == ["config.xml", "other.xml", "shared.xml"]
        assert "warning: no extractor for %s, skipped" % other in capfd.readouterr().err.splitlines()

    def test_skipped_input_is_neither_read_nor_failed(self, tmp_path, capfd):
        skipped = tmp_path / "x.json"
        skipped.write_text("{}")
        broken = tmp_path / "broken.db"
        broken.write_bytes(DAMAGED_DB)
        assert main(["timeline", str(skipped), str(broken)]) == 2
        capfd.readouterr()
        assert main(["timeline", str(skipped), "-v"]) == 2
        assert "warning: no extractor for %s, skipped" % skipped in capfd.readouterr().err.splitlines()

    @pytest.mark.parametrize("command", ["timeline", "report"])
    def test_run_of_only_skipped_inputs_says_nothing_was_read(self, tmp_path, capfd, command):
        for name in ("x.json", "y.json"):
            (tmp_path / name).write_text("{}")
        (tmp_path / "other.xml").write_bytes(b'<?xml version="1.0"?>\r\n<config/>\r\n')
        target = [str(tmp_path)] if command == "report" else sorted(map(str, tmp_path.iterdir()))
        assert main([command, *target]) == 2
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "0 events, 3 warnings", "error: nothing usable: no extractor reads any of 3 input(s)"]

    def test_dangling_symlink_cannot_be_read(self, tmp_path, capfd):
        link = tmp_path / "gone.db"
        link.symlink_to(tmp_path / "missing")
        assert main(["timeline", str(link)]) == 2
        line = "error: %s: [Errno 2] No such file or directory: '%s'" % (link, link)
        assert line in capfd.readouterr().err.splitlines()
        assert main(["carve", str(link), "--out", str(tmp_path / "carved")]) == 2
        assert line in capfd.readouterr().err.splitlines()

    @pytest.mark.parametrize("when, error", [
        ("open", "[Errno 13] Permission denied: '%s'"),
        ("read", "stream read failed: [Errno 5] Input/output error"),
    ], ids=["open", "read"])
    def test_failed_open_or_read_gives_one_error_line_in_every_command(
            self, tmp_path, monkeypatch, capfd, when, error):
        root = tmp_path / "evidence"
        root.mkdir()
        blob = root / "blob.bin"
        blob.write_bytes(b"raw " + sampledata.CHAT_PUSH_JSON.encode("utf-8"))
        real_open = Path.open

        class FailingRead(io.BytesIO):
            def read(self, *args):
                raise OSError(errno.EIO, "Input/output error")

            readinto = read

        def breaking_open(self, *args, **kwargs):
            if self != blob:
                return real_open(self, *args, **kwargs)
            if when == "open":
                raise PermissionError(errno.EACCES, "Permission denied", str(self))
            return FailingRead()

        monkeypatch.setattr(Path, "open", breaking_open)
        monkeypatch.setattr(cli, "open", lambda name, mode: Path(name).open(mode), raising=False)
        line = "error: %s: %s" % (blob, error.replace("%s", str(blob)))
        commands = [["timeline", str(blob)], ["report", str(root)],
                    ["carve", str(blob), "--out", str(tmp_path / "carved")]]
        for argv in commands:
            assert main(argv) == 2, argv
            assert [l for l in capfd.readouterr().err.splitlines() if l.startswith("error:")] == [line], argv
        # Sniffed for a scan worker first, the input is left to be read, and reported, in-line.
        forked = _send_raw_to_workers(monkeypatch)
        assert main(["timeline", str(blob)]) == 2
        assert [l for l in capfd.readouterr().err.splitlines() if l.startswith("error:")] == [line]
        assert forked == []

    @staticmethod
    def _alone_and_with_bad(capfd, alone, with_bad):
        assert main(alone) == 0
        want = capfd.readouterr().out
        assert main(with_bad) == 3
        captured = capfd.readouterr()
        assert len([l for l in captured.err.splitlines() if l.startswith("error:")]) == 1
        assert captured.out == want

    def test_skype_good_and_damaged_store(self, forged, tmp_path, capfd):
        root, _ = forged
        good = tmp_path / "good" / "main.db"
        good.parent.mkdir()
        good.write_bytes((root / forge.SKYPE_ACCOUNT_DIR / "main.db").read_bytes())
        (tmp_path / "damaged").mkdir()
        (tmp_path / "damaged" / "main.db").write_bytes(DAMAGED_DB)
        self._alone_and_with_bad(capfd, ["skype", str(good)], ["skype", str(tmp_path)])

    def test_pcap_good_and_bad_capture(self, forged, capfd):
        root, _ = forged
        capture = str(root / "capture.pcap")
        self._alone_and_with_bad(capfd, ["pcap", capture],
                                 ["pcap", capture, str(root / "ntfs_journal.csv")])

    def test_carve_good_and_missing_file(self, forged, tmp_path, capfd):
        root, _ = forged
        memory = str(root / "memory.bin")
        self._alone_and_with_bad(capfd, ["carve", memory, "--out", str(tmp_path / "a")],
                                 ["carve", memory, str(tmp_path / "missing.bin"), "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "index.json").read_bytes() == (tmp_path / "b" / "index.json").read_bytes()

    def test_bad_registry_export_exits_2(self, forged, capfd):
        root, _ = forged
        assert main(["registry", str(root / "ntfs_journal.csv")]) == 2
        captured = capfd.readouterr()
        assert captured.out == ""
        assert len([l for l in captured.err.splitlines() if l.startswith("error:")]) == 1


def _outcome(capfdbinary, argv):
    """Exit code, stdout and stderr bytes of one in-process run."""
    code = main(argv)
    out, err = capfdbinary.readouterr()
    return code, out, err


def _send_raw_to_workers(monkeypatch, cpus=16):
    """Scan every raw input in a forked worker, with cpus usable CPUs; the list of paths forked for."""
    forked = []
    fork_scan = cli._fork_scan

    def recording(path, others):
        forked.append(path)
        return fork_scan(path, others)

    monkeypatch.setattr(cli, "SCAN_WORKER_MIN_BYTES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(cli, "_fork_scan", recording)
    return forked


def _open_fds():
    return set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else set()


def _pipe_read_ends():
    """This process's open descriptors above 2 that are read ends of pipes."""
    import fcntl

    ends = []
    for name in os.listdir("/proc/self/fd"):
        fd = int(name)
        try:
            mode, flags = os.fstat(fd).st_mode, fcntl.fcntl(fd, fcntl.F_GETFL)
        except OSError:  # the descriptor listdir itself used
            continue
        if fd > 2 and stat.S_ISFIFO(mode) and flags & os.O_ACCMODE == os.O_RDONLY:
            ends.append(fd)
    return ends


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestScanWorkers:
    """Raw inputs scanned in forked workers give the in-line output, errors and exit code."""

    @pytest.mark.parametrize("seed", range(20))
    def test_forged_seed_gives_the_in_line_output(self, seed, tmp_path, monkeypatch, capfdbinary):
        root = tmp_path / "evidence"
        forge.forge_fixture(seed, root)
        files = [str(p) for p in sorted(root.rglob("*")) if p.is_file()]
        commands = [["report", str(root), "--format", "jsonl", "-v"],
                    ["timeline", *files, "--format", "csv", "-v"]]
        in_line = [_outcome(capfdbinary, argv) for argv in commands]
        forked = _send_raw_to_workers(monkeypatch)
        fds = _open_fds()
        assert [_outcome(capfdbinary, argv) for argv in commands] == in_line
        assert forked.count(root / forge.MEMORY_NAME) == 2
        assert _open_fds() == fds
        _assert_no_child_left()

    @pytest.mark.parametrize("error", [ExtractionError("read failed at offset 7"), ValueError("odd bytes")])
    def test_extractor_error_gives_the_in_line_error_line(self, forged, tmp_path, monkeypatch, capfdbinary, error):
        root, _ = forged
        memory = root / forge.MEMORY_NAME

        def failing(*args, **kwargs):
            raise error

        monkeypatch.setattr(facebook, "extract_chat_json", failing)
        argv = ["timeline", fb_db(root, "Messages.sqlite"), str(memory), str(tmp_path / "missing.bin")]
        in_line = _outcome(capfdbinary, argv)
        forked = _send_raw_to_workers(monkeypatch)
        assert _outcome(capfdbinary, argv) == in_line
        assert forked == [memory]
        assert in_line[0] == 3
        assert ("error: %s: %s" % (memory, error)).encode() in in_line[2].splitlines()
        _assert_no_child_left()

    def test_worker_that_dies_gives_one_error_line_and_exit_3(self, forged, monkeypatch, capfdbinary):
        root, _ = forged
        memory = root / forge.MEMORY_NAME
        monkeypatch.setattr(facebook, "extract_chat_json", lambda *args, **kwargs: os._exit(9))
        forked = _send_raw_to_workers(monkeypatch)
        code, out, err = _outcome(capfdbinary, ["timeline", fb_db(root, "Messages.sqlite"), str(memory)])
        assert (code, forked) == (3, [memory])
        assert [line for line in err.splitlines() if line.startswith(b"error:")] == [
            b"error: %s: scan worker for %s ended without a result (status 9)" % (bytes(memory), bytes(memory))]
        assert timeline.parse_jsonl(out)
        _assert_no_child_left()

    def test_worker_that_dies_while_sending_gives_one_error_line(self, forged, monkeypatch, capfdbinary):
        root, _ = forged
        memory = root / forge.MEMORY_NAME
        write = os.write

        def half_then_die(fd, data):  # only the worker calls os.write during main
            write(fd, bytes(data[:len(data) // 2]))
            os._exit(7)

        forked = _send_raw_to_workers(monkeypatch)
        with monkeypatch.context() as patch:
            patch.setattr(os, "write", half_then_die)
            code, _, err = _outcome(capfdbinary, ["timeline", fb_db(root, "Messages.sqlite"), str(memory)])
        assert (code, forked) == (3, [memory])
        assert [line for line in err.splitlines() if line.startswith(b"error:")] == [
            b"error: %s: scan worker for %s ended without a result (status 7)" % (bytes(memory), bytes(memory))]
        _assert_no_child_left()

    @staticmethod
    def write_pushes(path):
        """A raw input of three chat pushes and an unparsed deep region: four fragments."""
        push = sampledata.CHAT_PUSH_JSON.encode("utf-8")
        path.write_bytes(b" junk ".join([push, DEEP_CHAT_REGION, push, push]))
        return path

    @pytest.mark.parametrize("sent", [0, 1, 3])
    def test_worker_that_dies_after_some_fragments_fails_only_its_input(
            self, forged, tmp_path, monkeypatch, capfdbinary, sent):
        import pickle

        root, _ = forged
        raw = self.write_pushes(tmp_path / "pagefile.sys")
        messages = fb_db(root, "Messages.sqlite")
        alone = _outcome(capfdbinary, ["timeline", messages])
        forked = _send_raw_to_workers(monkeypatch)
        dump, dumped = pickle.dump, []

        def send_then_die(item, *args, **kwargs):  # only the worker pickles during main
            if len(dumped) == 1 + sent:  # the header and sent fragments are out
                os._exit(5)
            dumped.append(item)
            dump(item, *args, **kwargs)

        monkeypatch.setattr(pickle, "dump", send_then_die)
        fds = _open_fds()
        code, out, err = _outcome(capfdbinary, ["timeline", messages, str(raw)])
        assert (code, forked) == (3, [raw])
        assert [line for line in err.splitlines() if line.startswith(b"error:")] == [
            b"error: %s: scan worker for %s ended without a result (status 5)" % (bytes(raw), bytes(raw))]
        assert out == alone[1]  # the messages' events, and none of the fragments already sent
        assert _open_fds() == fds
        _assert_no_child_left()

    def test_worker_sends_the_in_line_fragments(self, tmp_path, monkeypatch):
        raw = self.write_pushes(tmp_path / "pagefile.sys")
        in_line = list(cli._scan_raw(raw))
        assert [fragment.parsed for fragment in in_line] == [True, False, True, True]
        _send_raw_to_workers(monkeypatch)
        fds = _open_fds()
        sent = list(cli._scan_result(cli._start_scans([raw])[0], raw))
        assert sent == in_line
        assert [fragment.extra for fragment in sent] == [fragment.extra for fragment in in_line]
        assert _open_fds() == fds
        _assert_no_child_left()

    def test_error_header_raises_its_text(self, tmp_path, monkeypatch):
        raw = self.write_pushes(tmp_path / "pagefile.sys")

        def failing(path):
            raise ExtractionError("read failed at offset 7")

        _send_raw_to_workers(monkeypatch)
        monkeypatch.setattr(cli, "_scan_raw", failing)
        fds = _open_fds()
        with pytest.raises(ExtractionError, match="^read failed at offset 7$"):
            list(cli._scan_result(cli._start_scans([raw])[0], raw))
        assert _open_fds() == fds
        _assert_no_child_left()

    def test_result_left_partway_kills_and_reaps_the_worker(self, tmp_path, monkeypatch):
        raw = self.write_pushes(tmp_path / "pagefile.sys")
        _send_raw_to_workers(monkeypatch)
        fds = _open_fds()
        fragments = cli._scan_result(cli._start_scans([raw])[0], raw)
        assert next(fragments).parsed
        fragments.close()
        assert _open_fds() == fds
        _assert_no_child_left()

    def test_error_while_taking_the_result_kills_and_reaps_the_worker(self, tmp_path, monkeypatch):
        import pickle

        path = tmp_path / "a.bin"
        path.write_bytes(b"raw")
        _send_raw_to_workers(monkeypatch)
        monkeypatch.setattr(cli, "_scan_raw", lambda path: time.sleep(60))
        fds = _open_fds()
        workers = cli._start_scans([path])

        def interrupted(pipe):
            raise KeyboardInterrupt

        monkeypatch.setattr(pickle, "load", interrupted)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            list(cli._scan_result(workers[0], path))
        assert time.monotonic() - start < 30
        assert _open_fds() == fds
        _assert_no_child_left()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open descriptors through /proc")
    def test_each_worker_holds_no_pipe_read_end(self, tmp_path, monkeypatch):
        paths = [tmp_path / name for name in ("a.bin", "b.bin", "c.bin")]
        for path in paths:
            path.write_bytes(b"raw")
        _send_raw_to_workers(monkeypatch)
        inherited = _pipe_read_ends()
        monkeypatch.setattr(cli, "_scan_raw", lambda path: sorted(set(_pipe_read_ends()) - set(inherited)))
        workers = cli._start_scans(paths)
        assert sorted(workers) == [0, 1, 2]
        assert [list(cli._scan_result(workers[index], path)) for index, path in enumerate(paths)] == [[], [], []]
        _assert_no_child_left()

    def test_path_given_twice_is_read_twice(self, forged, monkeypatch, capfdbinary):
        root, _ = forged
        memory = root / forge.MEMORY_NAME
        argv = ["timeline", str(memory), str(memory)]
        in_line = _outcome(capfdbinary, argv)
        forked = _send_raw_to_workers(monkeypatch)
        assert _outcome(capfdbinary, argv) == in_line
        assert forked == [memory, memory]
        assert [event.duplicates for event in timeline.parse_jsonl(in_line[1])] == [2]
        _assert_no_child_left()

    def test_only_the_last_large_raw_inputs_are_forked_and_only_they_sniffed_first(
            self, tmp_path, monkeypatch, capfdbinary):
        small, first, second = tmp_path / "small.bin", tmp_path / "first.bin", tmp_path / "second.bin"
        small.write_bytes(b"x" * 10)
        for path in (first, second):
            path.write_bytes(b"x" * 100 + sampledata.CHAT_PUSH_JSON.encode("utf-8"))
        argv = ["timeline", str(first), str(small), str(second), str(first)]
        in_line = _outcome(capfdbinary, argv)
        forked = _send_raw_to_workers(monkeypatch, cpus=2)
        monkeypatch.setattr(cli, "SCAN_WORKER_MIN_BYTES", 50)
        sniffed = []
        sniff = cli._sniff
        monkeypatch.setattr(cli, "_sniff", lambda path: sniffed.append(path.name) or sniff(path))
        assert _outcome(capfdbinary, argv) == in_line
        assert forked == [first]  # one CPU to spare: the last large input, at position 3
        assert sniffed == ["first.bin", "second.bin", "first.bin",  # large ones, before any is read
                           "first.bin", "small.bin", "second.bin"]  # in-line, at their turn
        _assert_no_child_left()

    @pytest.mark.parametrize("missing", ["fork", "sched_getaffinity", "one CPU"])
    def test_without_fork_affinity_or_a_spare_cpu_everything_runs_in_line(
            self, forged, monkeypatch, capfdbinary, missing):
        root, _ = forged
        argv = ["report", str(root), "-v"]
        in_line = _outcome(capfdbinary, argv)
        forked = _send_raw_to_workers(monkeypatch, cpus=1 if missing == "one CPU" else 16)
        if missing != "one CPU":
            monkeypatch.delattr(os, missing)
        assert _outcome(capfdbinary, argv) == in_line
        assert forked == []

    def test_no_fork_while_another_thread_runs(self, forged, monkeypatch, capfdbinary):
        root, _ = forged
        argv = ["report", str(root), "-v"]
        in_line = _outcome(capfdbinary, argv)
        forked = _send_raw_to_workers(monkeypatch)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait, args=(60,))
        thread.start()
        try:
            assert _outcome(capfdbinary, argv) == in_line
        finally:
            stop.set()
            thread.join(60)
        assert not thread.is_alive()
        assert forked == []

    def test_failed_fork_leaves_the_rest_in_line(self, forged, monkeypatch, capfdbinary):
        root, _ = forged
        argv = ["report", str(root), "-v"]
        in_line = _outcome(capfdbinary, argv)
        forked = _send_raw_to_workers(monkeypatch)

        def no_process():
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_process)
        fds = _open_fds()
        assert _outcome(capfdbinary, argv) == in_line
        assert len(forked) == 1  # the first attempt failed, so no other was made
        assert _open_fds() == fds

    def test_parent_error_kills_and_reaps_the_workers(self, forged, monkeypatch):
        root, _ = forged
        monkeypatch.setattr(facebook, "extract_chat_json", lambda *args, **kwargs: time.sleep(60))

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(skype, "extract_main_db", interrupted)
        forked = _send_raw_to_workers(monkeypatch)
        fds = _open_fds()
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            main(["timeline", str(root / forge.SKYPE_ACCOUNT_DIR / "main.db"), str(root / forge.MEMORY_NAME)])
        assert time.monotonic() - start < 30
        assert len(forked) == 1
        assert _open_fds() == fds
        _assert_no_child_left()

    def test_dev_mode_shows_no_resource_warning(self, forged):
        root, _ = forged
        probe = ("import os, sys\n"
                 "import imartifacts.cli as cli\n"
                 "cli.SCAN_WORKER_MIN_BYTES = 0\n"
                 "os.sched_getaffinity = lambda pid: set(range(16))\n"
                 "sys.exit(cli.main(sys.argv[1:]))\n")
        runs = [subprocess.run([sys.executable, "-X", "dev", *start, "report", str(root), "-v"],
                               env=_child_env(), capture_output=True, timeout=120)
                for start in (["-m", "imartifacts.cli"], ["-c", probe])]
        for run in runs:
            assert run.returncode == 0, run.stderr
            assert b"ResourceWarning" not in run.stderr
        assert (runs[1].stdout, runs[1].stderr) == (runs[0].stdout, runs[0].stderr)


class TestRecordsReleased:
    """The gather lets go of an input's records once they are mapped to events."""

    def test_a_record_is_freed_when_its_ingest_returns(self, forged, monkeypatch):
        root, _ = forged
        normalize, alive = timeline.normalize, []

        def watched(records, **kwargs):
            alive.append(weakref.ref(next(r for r in records if isinstance(r, facebook.FbMessage))))
            return normalize(records, **kwargs)

        monkeypatch.setattr(timeline, "normalize", watched)
        gather = cli._Gather(None)
        enabled = gc.isenabled()
        gc.disable()  # as in a run: reference counting alone must free it
        try:
            gather.ingest(Path(fb_db(root, "Messages.sqlite")))
            assert len(alive) == 1 and alive[0]() is None
        finally:
            if enabled:
                gc.enable()
        assert gather.events


class TestSkypeStoreStreamed:
    """A Skype store's rows are mapped to events as they are read, and a failure partway costs only that store."""

    @staticmethod
    def store(root):
        return root / forge.SKYPE_ACCOUNT_DIR / "main.db"

    def test_first_message_event_is_built_before_the_last_row_is_read(self, forged, tmp_path, monkeypatch):
        root, manifest = forged
        log = []

        def logged(reader):
            return lambda *args: log.append("row") or reader(*args)

        readers = tuple((attr, table, columns, logged(reader) if attr == "messages" else reader, rowid)
                        for attr, table, columns, reader, rowid in skype._TABLE_READERS)
        monkeypatch.setattr(skype, "_TABLE_READERS", readers)
        from_message = mapping._from_skype_message
        monkeypatch.setattr(mapping, "_from_skype_message", lambda *args: log.append("event") or from_message(*args))
        assert main(["timeline", str(self.store(root)), "--out", str(tmp_path / "out.jsonl")]) == 0
        assert log.count("row") == len(manifest["skype"]["tables"]["Messages"])
        last_row = len(log) - 1 - log[::-1].index("row")
        assert log.index("event") < last_row

    def test_a_store_without_accounts_has_no_owner(self, forged, tmp_path, capfd):
        root, _ = forged
        store = tmp_path / "main.db"
        store.write_bytes(self.store(root).read_bytes())
        connection = sqlite3.connect(store)
        connection.execute("DROP TABLE Accounts")
        connection.commit()
        connection.close()
        for path, undetermined in ((self.store(root), False), (store, True)):
            assert main(["timeline", str(path), "-v"]) == 0
            out, err = capfd.readouterr()
            messages = [event for event in timeline.parse_jsonl(out)
                        if event.kind in (EventKind.MESSAGE_SENT, EventKind.MESSAGE_RECEIVED)]
            assert messages
            assert all((timeline.UNDETERMINED_MARK in event.summary) is undetermined for event in messages), path
            assert ("warning: table Accounts absent from %s" % path in err.splitlines()) is undetermined

    def test_a_mapper_raising_mid_store_fails_only_that_store(self, forged, monkeypatch, capfdbinary):
        root, _ = forged
        journal = str(root / "ntfs_journal.csv")
        alone = _outcome(capfdbinary, ["timeline", journal, "-v"])
        calls = []
        from_message = mapping._from_skype_message

        def failing(*args):
            calls.append(1)
            if len(calls) == 3:
                raise ValueError("mapper failed")
            return from_message(*args)

        monkeypatch.setattr(mapping, "_from_skype_message", failing)
        fds, reported = _open_fds(), []
        print_line = cli._err
        monkeypatch.setattr(cli, "_err", lambda message: reported.append(_open_fds()) or print_line(message))
        code, out, err = _outcome(capfdbinary, ["timeline", str(self.store(root)), journal, "-v"])
        assert reported and all(open_then == fds for open_then in reported)  # the store is closed before its error line
        assert _open_fds() == fds
        assert len(calls) == 3
        assert code == 3
        error = b"error: %s: mapper failed" % bytes(self.store(root))
        assert [line for line in err.splitlines() if line.startswith(b"error:")] == [error]
        # no events and no mapping warnings from the store: the journal's alone
        assert (out, err.replace(error + b"\n", b"", 1)) == alone[1:]


class TestRawScanStreamed:
    """A raw input's fragments are mapped as they are found, so no list of them is held."""

    BRACES = 2_000  # unclosed, so every fragment's raw bytes run from the first of them to the input's end
    PEAK_GROWTH_BOUND = 128 << 10  # bytes; 225 more fragments held would take about 1.5 MiB

    def traced_ingest(self, path):
        import tracemalloc

        gather = cli._Gather(None)
        tracemalloc.start()
        try:
            gather.ingest(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, gather

    def test_memory_does_not_grow_with_the_fragments(self, tmp_path):
        warm = tmp_path / "warm.bin"
        warm.write_bytes(b"{ orca_message ")
        self.traced_ingest(warm)  # imports and caches filled on first use
        peaks = []
        for markers in (75, 300):
            path = tmp_path / ("%d.bin" % markers)
            path.write_bytes(b"{" * self.BRACES + b" orca_message " * markers)
            peak, gather = self.traced_ingest(path)
            assert gather.tally.ok == [str(path)] and gather.events == []
            assert len(gather.warnings) == markers  # each fragment is unparsed, so skipped with a warning
            peaks.append(peak)
        # Held whole, the 300 fragments' raw bytes alone would take 300 x 6.2 KB.
        assert peaks[1] < 1 << 20
        assert peaks[1] - peaks[0] < self.PEAK_GROWTH_BOUND

    def test_a_mapper_raising_mid_scan_closes_the_input_first(self, forged, tmp_path, monkeypatch, capfdbinary):
        root, _ = forged
        push = sampledata.CHAT_PUSH_JSON.encode("utf-8")
        raw = tmp_path / "pagefile.sys"
        raw.write_bytes(b" junk ".join([push] * 3))
        journal = str(root / "ntfs_journal.csv")
        alone = _outcome(capfdbinary, ["timeline", journal, "-v"])
        calls = []
        from_fragment = mapping._from_chat_fragment

        def failing(*args):
            calls.append(1)
            if len(calls) == 2:
                raise ValueError("mapper failed")
            return from_fragment(*args)

        monkeypatch.setattr(mapping, "_from_chat_fragment", failing)
        fds, reported = _open_fds(), []
        print_line = cli._err
        monkeypatch.setattr(cli, "_err", lambda message: reported.append(_open_fds()) or print_line(message))
        code, out, err = _outcome(capfdbinary, ["timeline", str(raw), journal, "-v"])
        assert reported and all(open_then == fds for open_then in reported)  # the input is closed before its error line
        assert (code, len(calls)) == (3, 2)
        error = b"error: %s: mapper failed" % bytes(raw)
        assert [line for line in err.splitlines() if line.startswith(b"error:")] == [error]
        assert (out, err.replace(error + b"\n", b"", 1)) == alone[1:]


class TestDamagedCapture:
    """A capture that skipped records says so in one warning."""

    @pytest.fixture
    def hostile(self, tmp_path):
        frame = forge.make_udp_packet("192.168.220.176", 1, "10.0.0.1", 2)
        t0 = 1421685000 * 1_000_000
        path = tmp_path / "hostile.pcap"
        path.write_bytes(forge.write_pcap(None, [(t0, frame)]) + struct.pack("<IIII", 0, 0, 0xF0000000, 0xF0000000)
                         + forge.write_pcap(None, [(t0 + 1, frame)])[24:])
        return path

    def warning(self, path):
        return ("warning: %s: 1 truncated record(s), 0 non-IPv4 frame(s), 0 non-TCP/UDP datagram(s) skipped"
                % path)

    def test_timeline_verbose_prints_the_warning(self, hostile, capfd):
        assert main(["timeline", str(hostile), "-v"]) == 0
        assert capfd.readouterr().err.splitlines() == ["1 events, 1 warnings", self.warning(hostile)]

    def test_pcap_prints_the_warning(self, hostile, capfd):
        assert main(["pcap", str(hostile)]) == 0
        captured = capfd.readouterr()
        assert len(captured.out.splitlines()) == 1
        assert captured.err.splitlines() == [self.warning(hostile)]

    def test_whole_capture_gives_no_warning(self, forged, capfd):
        root, _ = forged
        assert main(["pcap", str(root / forge.CAPTURE_NAME)]) == 0
        assert capfd.readouterr().err == ""


class TestCaptureFold:
    """A capture is folded into flows as it is read, through the two layers the benchmark traces."""

    FLOWS = 20
    PEAK_GROWTH_BOUND = 64 << 10  # bytes; 14,000 more packets kept in a list would take about 5 MiB

    def write_capture(self, path, packets):
        t0 = 1421685000 * 1_000_000
        frames = [(t0 + i, forge.make_udp_packet("192.168.220.176", 5000 + i % self.FLOWS, "31.13.76.102", 443,
                                                 b"x" * 40))
                  for i in range(packets)]
        forge.write_pcap(path, frames)
        return path

    def test_memory_does_not_grow_with_the_packets(self, tmp_path):
        import tracemalloc

        peaks = []
        for packets in (2_000, 16_000):
            path = self.write_capture(tmp_path / ("%d.pcap" % packets), packets)
            warnings = []
            tracemalloc.start()
            try:
                flows = cli._capture_flows(path, warnings)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert warnings == []
            assert len(flows) == self.FLOWS
            assert sum(flow.total_packets for flow in flows) == packets
        assert abs(peaks[1] - peaks[0]) < self.PEAK_GROWTH_BOUND

    def test_flows_are_let_go_as_their_events_are_built(self, tmp_path):
        """Ingesting a capture never holds every flow together with every event built from them."""
        import tracemalloc

        path = tmp_path / "many.pcap"
        forge.write_pcap(path, [(1421685000 * 1_000_000 + i,
                                 forge.make_udp_packet("192.168.220.176", 1000 + i, "31.13.76.102", 443, b"x" * 40))
                                for i in range(3_000)])  # one flow per packet
        gather = cli._Gather(pcap.builtin_catalog())
        tracemalloc.start()
        try:
            flows = cli._capture_flows(path, [])
            flow_bytes = tracemalloc.get_traced_memory()[0]
            del flows
            tracemalloc.stop()
            tracemalloc.start()
            gather.ingest(path)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(gather.events) == 3_000
        # Holding them together would put the peak about flow_bytes above the events kept.
        assert peak - kept < flow_bytes // 4

    def test_timeline_reads_and_folds_each_capture_once(self, tmp_path, monkeypatch, capfd):
        calls = []
        for name in ("read_pcap", "assemble_flows"):
            def counted(*args, _name=name, _function=getattr(pcap, name), **kwargs):
                calls.append(_name)
                return _function(*args, **kwargs)

            monkeypatch.setattr(pcap, name, counted)
        captures = [str(self.write_capture(tmp_path / ("%d.pcap" % n), 30)) for n in range(2)]
        assert main(["timeline", *captures, "--out", str(tmp_path / "out.csv"), "--format", "csv"]) == 0
        assert sorted(calls) == ["assemble_flows"] * 2 + ["read_pcap"] * 2


class TestGarbageCollection:
    """A pipeline run pauses automatic garbage collection and leaves it as the caller had it."""

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def entered(self, request):
        before = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if before else gc.disable)()

    def test_state_after_normal_and_failed_runs(self, forged, tmp_path, monkeypatch, capfd, entered):
        root, _ = forged
        during = []
        normalize = timeline.normalize
        monkeypatch.setattr(timeline, "normalize", lambda *a, **k: during.append(gc.isenabled()) or normalize(*a, **k))
        files = [str(p) for p in sorted(root.rglob("*")) if p.is_file()]
        runs = [(["report", str(root)], 0), (["timeline", *files], 0),
                (["timeline", fb_db(root, "Messages.sqlite"), str(tmp_path / "missing.bin")], 3)]
        for argv, code in runs:
            assert main([*argv, "--out", str(tmp_path / "out.jsonl")]) == code
            assert gc.isenabled() is entered, argv
        assert during and not any(during)

    def test_state_after_an_interrupt_in_an_extractor(self, forged, monkeypatch, entered):
        root, _ = forged
        during = []

        def interrupted(*args, **kwargs):
            during.append(gc.isenabled())
            raise KeyboardInterrupt

        monkeypatch.setattr(skype, "extract_main_db", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["timeline", str(root / forge.SKYPE_ACCOUNT_DIR / "main.db")])
        assert during == [False]
        assert gc.isenabled() is entered


class TestTooDeepChatJson:
    """One chat region nested too deep to decode costs only itself, not its whole blob."""

    @pytest.mark.parametrize("through_worker", [False, True])
    def test_timeline_reads_the_rest_of_the_blob(self, tmp_path, monkeypatch, capfdbinary, through_worker):
        blob = tmp_path / "memdump.bin"
        blob.write_bytes(b"junk " + DEEP_CHAT_REGION + b" " + sampledata.CHAT_PUSH_JSON.encode("utf-8"))
        forked = _send_raw_to_workers(monkeypatch) if through_worker else []
        code, out, err = _outcome(capfdbinary, ["timeline", str(blob), "-v"])
        assert code == 0, err
        assert forked == ([blob] if through_worker else [])
        (event,) = timeline.parse_jsonl(out)
        assert event.provenance.byte_offset == 6 + len(DEEP_CHAT_REGION)
        assert b"warning: chat fragment at offset 5: unparsed or undated, skipped" in err.splitlines()


class TestOutOfRangeFacebookTime:
    """One cached message whose time is out of range costs only its own row."""

    def test_report_skips_the_row_with_a_warning(self, tmp_path, capfdbinary):
        root = tmp_path / "evidence"
        forge.forge_fixture(7, root)
        database = root / forge.FACEBOOK_DB_DIR / "Messages.sqlite"
        connection = sqlite3.connect(database)
        with connection:
            rowid = connection.execute("SELECT min(rowid) FROM messages").fetchone()[0]
            connection.execute("UPDATE messages SET timestamp = -5 WHERE rowid = ?", (rowid,))
        connection.close()
        code, out, err = _outcome(capfdbinary, ["report", str(root), "--format", "jsonl", "-v"])
        assert code == 0, err
        assert b"error" not in err
        assert ("warning: messages row %d has no usable timestamp" % rowid).encode() in err.splitlines()
        sources = [e.provenance.extractor for e in timeline.parse_jsonl(out)]
        assert sources.count("facebook.messages") == len(sampledata.MESSAGE_ROWS) - 1


class TestFacebookOwnerFromPath:
    """A cache with no sent-tagged message takes its owner from the uid directory it sits in."""

    @pytest.fixture
    def tagged(self, tmp_path):
        forge.forge_fixture(7, tmp_path / "evidence")
        return tmp_path / "evidence" / forge.FACEBOOK_DB_DIR / "Messages.sqlite"

    def copy_untagged(self, source, target):
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(source.read_bytes())
        connection = sqlite3.connect(target)
        with connection:
            connection.execute("UPDATE messages SET tags = '[]'")
        connection.close()
        return target

    def messages(self, capfdbinary, path):
        code, out, err = _outcome(capfdbinary, ["timeline", str(path), "-v"])
        assert code == 0, err
        return [(e.kind, e.summary) for e in timeline.parse_jsonl(out)], err.decode("utf-8").splitlines()

    def assert_undetermined(self, capfdbinary, path):
        got, err = self.messages(capfdbinary, path)
        unknown = [line for line in err if "owner unknown, direction undetermined" in line]
        assert got and len(unknown) == len(got)
        assert {kind for kind, _ in got} == {EventKind.MESSAGE_RECEIVED}

    def test_untagged_cache_gets_the_directions_of_its_tags(self, tmp_path, tagged, capfdbinary):
        untagged = self.copy_untagged(tagged, tmp_path / "untagged" / forge.FACEBOOK_DB_DIR / "Messages.sqlite")
        want, _ = self.messages(capfdbinary, tagged)
        got, err = self.messages(capfdbinary, untagged)
        assert got == want
        assert {kind for kind, _ in got} == {EventKind.MESSAGE_SENT, EventKind.MESSAGE_RECEIVED}
        assert not [line for line in err if "owner unknown" in line]

    def test_relative_path_gets_the_same_owner(self, tmp_path, tagged, capfdbinary, monkeypatch):
        untagged = self.copy_untagged(tagged, tmp_path / "untagged" / forge.FACEBOOK_DB_DIR / "Messages.sqlite")
        want, _ = self.messages(capfdbinary, tagged)
        monkeypatch.chdir(untagged.parent.parent)
        for path in ("DB/Messages.sqlite", "../%s/DB/Messages.sqlite" % sampledata.OWNER_UID):
            got, err = self.messages(capfdbinary, path)
            assert got == want
            assert not [line for line in err if "owner unknown" in line]

    def test_untagged_cache_outside_an_account_directory_stays_undetermined(self, tmp_path, tagged, capfdbinary):
        self.assert_undetermined(capfdbinary, self.copy_untagged(tagged, tmp_path / "loose" / "Messages.sqlite"))

    def test_account_directory_that_is_not_a_uid_names_no_owner(self, tmp_path, tagged, capfdbinary):
        db_dir = forge.FACEBOOK_DB_DIR.replace(sampledata.OWNER_UID, "jack")
        assert db_dir != forge.FACEBOOK_DB_DIR
        self.assert_undetermined(capfdbinary, self.copy_untagged(tagged, tmp_path / db_dir / "Messages.sqlite"))


class TestParsedDiagnosticsReachTheOutput:
    """Warnings the registry and Skype XML parsers give are printed, not dropped."""

    WANT = [
        "warning: <export>: 1 unreadable line(s) skipped, first at line 6: bad dword payload 'zz'",
        "warning: persisted item %s lacks FilePath, skipped" % ORPHAN_GUID,
        "warning: LastIP is not a 32-bit decimal: 'notanumber'",
        "warning: time out of range '99999999999999' in config LastUsed",
    ]

    @pytest.fixture
    def tree(self, tmp_path):
        root = tmp_path / "evidence"
        root.mkdir()
        (root / "export.reg").write_bytes(ORPHAN_EXPORT + b'"A"=dword:zz\r\n')
        (root / "shared.xml").write_bytes(
            sampledata.SHARED_XML_DOC.replace(b"1940151468", b"notanumber"))
        (root / "config.xml").write_bytes(
            sampledata.CONFIG_XML_DOC.replace(b"1421679670", b"99999999999999"))
        return root

    def want(self, tree):
        return [line.replace("<export>", str(tree / "export.reg")) for line in self.WANT]

    def test_timeline_and_report_print_them(self, tree, capfd):
        inputs = [str(tree / n) for n in ("export.reg", "shared.xml", "config.xml")]
        want = self.want(tree)
        for command in (["timeline", *inputs, "-v"], ["report", str(tree), "-v"]):
            assert main(command) == 0
            lines = capfd.readouterr().err.splitlines()
            assert sorted(l for l in lines if l in want) == sorted(want), command

    def test_registry_prints_them(self, tree, capfd):
        assert main(["registry", str(tree / "export.reg")]) == 0
        assert capfd.readouterr().err.splitlines() == self.want(tree)[:2]


# The kind _sniff gives each file of a forged tree, by its path in the tree.
_SKYPE_RECEIVED = forge.SKYPE_ACCOUNT_DIR + "/ReceiveStorage/VictimToSuspect.pdf"
FORGED_KINDS = {
    **{"%s/%s.sqlite" % (forge.FACEBOOK_DB_DIR, name): "sqlite"
       for name in ("Analytics", "FriendRequests", "Friends", "Messages", "Notifications", "Stories")},
    forge.SKYPE_ACCOUNT_DIR + "/main.db": "sqlite",
    forge.SKYPE_ACCOUNT_DIR + "/config.xml": "xml",
    forge.SKYPE_STATE_DIR + "/shared.xml": "xml",
    _SKYPE_RECEIVED: "raw",
    _SKYPE_RECEIVED + ".Zone.Identifier": "sidecar",
    forge.DOWNLOADS_DIR + "/VictimToSuspect.txt": "raw",
    forge.DOWNLOADS_DIR + "/VictimToSuspect.txt:Zone.Identifier": "sidecar",
    forge.CAPTURE_NAME: "pcap",
    forge.MANIFEST_NAME: "json",
    forge.MEMORY_NAME: "raw",
    forge.NTFS_CSV_NAME: "journal-csv",
    forge.REGISTRY_NAME: "registry",
}


class TestForgedKinds:
    def test_every_forged_file_has_its_kind(self, forged_seeds):
        for seed, root in forged_seeds.items():
            kinds = {p.relative_to(root).as_posix(): cli._sniff(p) for p in root.rglob("*") if p.is_file()}
            assert kinds == FORGED_KINDS, seed

    def test_text_files_keep_their_kind_in_every_marked_encoding(self, forged_seeds, tmp_path):
        """The export, the journal, both state XML files and the zone sidecars, in UTF-8 and with each byte-order mark."""
        texts = [name for name, kind in FORGED_KINDS.items() if kind in ("registry", "journal-csv", "xml", "sidecar")]
        assert len(texts) == 6
        changed = []
        for seed, root in forged_seeds.items():
            for name in texts:
                data = (root / name).read_bytes()
                text = data.decode("utf-16") if data.startswith((b"\xff\xfe", b"\xfe\xff")) else data.decode("utf-8-sig")
                for label, encode in ENCODINGS.items():
                    copy = tmp_path / str(seed) / label / Path(name).name
                    copy.parent.mkdir(parents=True, exist_ok=True)
                    copy.write_bytes(encode(text))
                    if cli._sniff(copy) != FORGED_KINDS[name]:
                        changed.append((seed, name, label))
        assert changed == []


class TestSniffAsksTheParsers:
    """timeline reads every export and journal that registry and --ntfs-csv read, as they read it."""

    @staticmethod
    def events_without_paths(capfdbinary, path):
        code, out, _ = _outcome(capfdbinary, ["timeline", str(path)])
        assert code == 0
        return [{k: v for k, v in json.loads(line).items() if k != "evidence_path"} for line in out.splitlines()]

    @pytest.mark.parametrize("encoding, bom", [("utf-8", b"\xef\xbb\xbf"), ("utf-16-be", b"\xfe\xff")])
    def test_export_in_another_encoding_gives_the_utf16le_exports_events(self, forged, tmp_path, capfdbinary,
                                                                         encoding, bom):
        root, _ = forged
        original = root / "registry_export.reg"
        body = original.read_bytes()
        assert body.startswith(b"\xff\xfe")
        copy = tmp_path / "export.reg"
        copy.write_bytes(bom + body[2:].decode("utf-16-le").encode(encoding))
        want = self.events_without_paths(capfdbinary, original)
        assert len(want) == 4
        assert self.events_without_paths(capfdbinary, copy) == want
        assert _outcome(capfdbinary, ["registry", str(copy)]) == _outcome(capfdbinary, ["registry", str(original)])

    @staticmethod
    def journal_and_flag_agree(capfdbinary, journal):
        """The outcome of timeline journal, which must be that of timeline --ntfs-csv journal."""
        sniffed = _outcome(capfdbinary, ["timeline", str(journal)])
        assert sniffed == _outcome(capfdbinary, ["timeline", str(journal), "--ntfs-csv", str(journal)])
        return sniffed

    def test_journal_cut_inside_a_character_at_4096_bytes_is_read(self, forged, tmp_path, capfdbinary):
        root, _ = forged
        header, rows = (root / "ntfs_journal.csv").read_bytes().split(b"\n", 1)
        start = header + b"\n1,2015-01-22 11:46:02,File Creation,"
        padded = start + b"x" * (4095 - len(start)) + "é,pad.txt,Users\\pad.txt\r\n".encode() + rows
        assert padded[4095:4097] == "é".encode()
        journal = tmp_path / "journal.csv"
        journal.write_bytes(padded)
        code, out, _ = self.journal_and_flag_agree(capfdbinary, journal)
        assert code == 0 and len(out.splitlines()) == len(rows.splitlines()) + 1

    def test_journal_with_a_latin1_byte_fails_as_with_the_flag(self, forged, tmp_path, capfdbinary):
        root, _ = forged
        header, rows = (root / "ntfs_journal.csv").read_bytes().split(b"\n", 1)
        journal = tmp_path / "journal.csv"
        journal.write_bytes(header + b"\n\xe9" + rows)
        code, out, err = self.journal_and_flag_agree(capfdbinary, journal)
        assert code == 2 and out == b""
        assert err.splitlines()[0] == b"error: %s: not UTF-8 text: byte 0xe9 at byte offset %d does not decode" % (
            bytes(journal), len(header) + 1)
        # no row was read, so no zone warning either
        assert err.splitlines()[1:] == [b"0 events, 0 warnings"]

    def test_journal_row_with_a_time_and_nothing_else_is_skipped(self, forged, tmp_path, capfdbinary):
        root, _ = forged
        header, rows = (root / "ntfs_journal.csv").read_bytes().split(b"\n", 1)
        journal = tmp_path / "journal.csv"
        journal.write_bytes(header + b"\n1,2015-01-22 11:46:02,,,,\r\n" + rows)
        code, out, err = _outcome(capfdbinary, ["timeline", str(journal), "-v"])
        assert (code, out, err) == _outcome(capfdbinary, ["timeline", str(journal), "--ntfs-csv", str(journal), "-v"])
        assert code == 0 and len(out.splitlines()) == len(rows.splitlines())
        assert b"warning: line 2: no event, file name or path, row skipped" in err.splitlines()

    @pytest.mark.parametrize("encoding", ["utf-16-le", "utf-16-be"])
    def test_utf16_journal_gives_the_utf8_journals_events_and_warnings(self, forged, tmp_path, capfdbinary,
                                                                       encoding):
        root, _ = forged
        original = root / "ntfs_journal.csv"
        copy = tmp_path / "journal.csv"
        copy.write_bytes(("\ufeff" + original.read_bytes().decode("utf-8-sig")).encode(encoding))
        want = self.events_without_paths(capfdbinary, original)
        assert want
        assert self.events_without_paths(capfdbinary, copy) == want
        assert self.journal_and_flag_agree(capfdbinary, copy)[0] == 0
        assert _outcome(capfdbinary, ["timeline", str(copy), "-v"])[2] == \
            _outcome(capfdbinary, ["timeline", str(original), "-v"])[2]

    STATE_XML_FAULTS = pytest.mark.parametrize("name, doc, old, new, warning", [
        ("shared.xml", sampledata.SHARED_XML_DOC, b"1940151468", b"notanumber",
         b"warning: LastIP is not a 32-bit decimal: 'notanumber'"),
        ("config.xml", sampledata.CONFIG_XML_DOC, b"1421679670", b"99999999999999",
         b"warning: time out of range '99999999999999' in config LastUsed"),
    ], ids=["shared", "config"])

    @STATE_XML_FAULTS
    def test_xml_with_a_utf8_bom_is_parsed(self, tmp_path, capfdbinary, name, doc, old, new, warning):
        plain, marked = tmp_path / "plain" / name, tmp_path / "marked" / name
        for path, prefix in ((plain, b""), (marked, b"\xef\xbb\xbf")):
            path.parent.mkdir()
            path.write_bytes(prefix + doc.replace(old, new))
        code, out, err = _outcome(capfdbinary, ["timeline", str(plain), "-v"])
        assert warning in err.splitlines()
        assert _outcome(capfdbinary, ["timeline", str(marked), "-v"]) == (code, out, err)

    @STATE_XML_FAULTS
    @pytest.mark.parametrize("encoding", ["utf-16-le", "utf-16-be"])
    def test_xml_with_a_utf16_bom_is_parsed(self, tmp_path, capfdbinary, name, doc, old, new, warning, encoding):
        plain, marked = tmp_path / "plain" / name, tmp_path / "marked" / name
        plain.parent.mkdir()
        plain.write_bytes(doc.replace(old, new))
        marked.parent.mkdir()
        marked.write_bytes(("\ufeff" + doc.replace(old, new).decode("utf-8")).encode(encoding))
        assert cli._sniff(marked) == "xml"
        code, out, err = _outcome(capfdbinary, ["timeline", str(plain), "-v"])
        assert warning in err.splitlines()
        assert _outcome(capfdbinary, ["timeline", str(marked), "-v"]) == (code, out, err)

    def test_registry_prints_an_undated_persisted_item_with_an_empty_time(self, forged, tmp_path, capfdbinary):
        root, _ = forged
        text = (root / "registry_export.reg").read_bytes().decode("utf-16")
        undated = tmp_path / "undated.reg"
        undated.write_bytes(b"\xff\xfe" + "".join(
            line for line in text.splitlines(True) if not line.startswith('"LastUpdatedTime"')).encode("utf-16-le"))
        code, out, err = _outcome(capfdbinary, ["registry", str(undated)])
        assert code == 0
        persisted = [line.split(b"\t") for line in out.splitlines() if line.startswith(b"persisted\t")]
        assert len(persisted) == 2 and all(fields[3] == b"" for fields in persisted)
        assert len(out.splitlines()) == 4
        assert err.splitlines() == [b"warning: persisted item %s lacks LastUpdatedTime" % fields[1]
                                    for fields in persisted]


class TestUsage:
    def test_no_command(self, capfd):
        assert main([]) == 1

    def test_unknown_command(self, capfd):
        assert main(["frobnicate"]) == 1
        assert "frobnicate" in capfd.readouterr().err


class TestImportCost:
    def test_cli_import_leaves_socket_unloaded(self):
        """Importing the command line must not pull in socket.

        Importing socket costs about 6 ms and 0.5 MiB in every process; when
        the frame parser once used socket.inet_ntoa, that showed in the
        benchmark's reload_s and peak_rss_mib on every workload (CHANGES.md).
        Dotted quads are built from the address bytes instead.
        """
        probe = "import sys, imartifacts.cli; print(sorted(m for m in sys.modules if m.split('.')[0] in ('socket', '_socket')))"
        result = subprocess.run([sys.executable, "-c", probe], env=_child_env(), capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_cli_import_leaves_logging_and_textwrap_unloaded(self):
        """Importing the command line loads neither logging nor textwrap.

        logging also pulls in traceback and textwrap, 5-8 ms in every
        process; textwrap is needed only when a hyphenated summary is cut.
        A module the bare interpreter already loads is not counted.
        """
        probe = "import sys%s; print(sorted(m for m in ('logging', 'textwrap') if m in sys.modules))"
        loaded = []
        for extra in ("", ", imartifacts.cli"):
            result = subprocess.run([sys.executable, "-c", probe % extra], env=_child_env(),
                                    capture_output=True, text=True, timeout=60)
            assert result.returncode == 0, result.stderr
            loaded.append(result.stdout.strip())
        assert loaded[1] == loaded[0]

    def test_cli_import_leaves_hashlib_unloaded(self):
        """Importing the command line does not load hashlib.

        Only CarvedObject.sha256, for the carve command's index, needs it;
        importing hashlib and _hashlib costs about 2 ms and, as _hashlib maps
        OpenSSL's libcrypto, about 3.5 MiB of RSS in every process.
        A module the bare interpreter already loads is not counted.
        """
        probe = "import sys%s; print(sorted(m for m in ('hashlib', '_hashlib') if m in sys.modules))"
        loaded = []
        for extra in ("", ", imartifacts.cli"):
            result = subprocess.run([sys.executable, "-c", probe % extra], env=_child_env(),
                                    capture_output=True, text=True, timeout=60)
            assert result.returncode == 0, result.stderr
            loaded.append(result.stdout.strip())
        assert loaded[1] == loaded[0]

    def test_cli_import_leaves_pickle_and_process_pools_unloaded(self):
        """Importing the command line loads neither pickle, multiprocessing nor concurrent.futures.

        Only a run that forks scan workers for large raw inputs imports
        pickle, to move their results; the workers are plain os.fork children.
        A module the bare interpreter already loads is not counted.
        """
        probe = ("import sys%s; print(sorted(m for m in ('pickle', '_pickle', 'multiprocessing', "
                 "'concurrent.futures') if m in sys.modules))")
        loaded = []
        for extra in ("", ", imartifacts.cli"):
            result = subprocess.run([sys.executable, "-c", probe % extra], env=_child_env(),
                                    capture_output=True, text=True, timeout=60)
            assert result.returncode == 0, result.stderr
            loaded.append(result.stdout.strip())
        assert loaded[1] == loaded[0]

    def test_cli_import_and_timeline_leave_the_forge_unloaded(self, tmp_path):
        """Importing the command line, or running timeline, loads neither forge nor sampledata.

        Only the forge command imports them; under -X importtime forge
        itself costs about 10 ms and sampledata about 4 ms.
        """
        journal = tmp_path / "journal.csv"
        with open(journal, "w", encoding="utf-8", newline="") as handle:
            csv.writer(handle).writerows([sampledata.NTFS_CSV_HEADER, *sampledata.NTFS_CSV_ROWS])
        probe = ("import sys, imartifacts.cli as cli\n"
                 "loaded = lambda: sorted(m for m in ('imartifacts.forge', 'imartifacts.sampledata') if m in sys.modules)\n"
                 "print(loaded())\n"
                 "assert cli.main(['timeline', %r, '--out', %r]) == 0\n"
                 "print(loaded())" % (str(journal), str(tmp_path / "out.jsonl")))
        result = subprocess.run([sys.executable, "-c", probe], env=_child_env(), capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split("\n") == ["[]", "[]", ""]

    def test_report_leaves_the_forge_unloaded(self, tmp_path):
        """A report run, which rewrites evidence paths relative to its root, loads neither forge nor sampledata."""
        root = tmp_path / "evidence"
        root.mkdir()
        with open(root / "journal.csv", "w", encoding="utf-8", newline="") as handle:
            csv.writer(handle).writerows([sampledata.NTFS_CSV_HEADER, *sampledata.NTFS_CSV_ROWS])
        out = tmp_path / "out.jsonl"
        probe = ("import sys, imartifacts.cli as cli\n"
                 "assert cli.main(['report', %r, '--out', %r]) == 0\n"
                 "print(sorted(m for m in ('imartifacts.forge', 'imartifacts.sampledata') if m in sys.modules))"
                 % (str(root), str(out)))
        result = subprocess.run([sys.executable, "-c", probe], env=_child_env(), capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"
        assert '"evidence_path": "journal.csv"' in out.read_text(encoding="utf-8")

    # Modules a report reader must not load; all are this package's own or
    # are loaded only by it, since the interpreter's site hooks may preload others.
    EXTRACTOR_MODULES = (
        *("imartifacts." + name for name in ("mapping", "skype", "facebook", "pcap", "regexport", "carver",
                                              "sqliteio", "locator", "forge", "sampledata")),
        "sqlite3",
        "xml.etree",
    )

    def test_timeline_import_loads_no_extractor(self):
        """Loading a report needs only timeline and model.

        Record mapping, and with it every extractor, sqlite3 and
        xml.etree, is loaded on the first timeline.normalize call, so a
        reader of an emitted report does not pay for them.
        """
        probe = (
            "import sys, imartifacts.timeline as t\n"
            "from imartifacts.model import App, Channel, EventKind, Provenance, TimelineEvent, ts_from_unix\n"
            "event = TimelineEvent(ts_from_unix(1421898314666, 'millis'), EventKind.LOGIN, App.FACEBOOK,\n"
            "                      'login', Provenance('a.db', 'x', Channel.DATABASE))\n"
            "assert t.parse_jsonl(t.emit(t.build_report([event]))) == [event]\n"
            "print(sorted(m for m in sys.modules if m in %r))" % (self.EXTRACTOR_MODULES,)
        )
        result = subprocess.run([sys.executable, "-c", probe], env=_child_env(), capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"


class TestZoneSidecarSpelling:
    """scan and timeline both take a zone sidecar's suffix in any letter case."""

    NAMES = ("a.exe.zone.identifier", "b.exe.Zone.Identifier", "c.exe:ZONE.IDENTIFIER")

    def test_scan_lists_every_spelling(self, tmp_path, capfd):
        for name in self.NAMES:
            (tmp_path / name).write_bytes(forge.ZONE_SIDECAR_BODY)
        assert main(["scan", str(tmp_path)]) == 0
        lines = capfd.readouterr().out.splitlines()
        assert sorted((line.split("\t")[0], Path(line.split("\t")[1]).name) for line in lines) == [
            ("ZoneIdentifierSidecar", name) for name in self.NAMES]

    @pytest.mark.parametrize("name", NAMES)
    def test_timeline_reads_every_spelling_as_a_sidecar(self, tmp_path, capfd, name):
        path = tmp_path / name
        path.write_bytes(forge.ZONE_SIDECAR_BODY)
        assert main(["timeline", str(path)]) == 0
        assert capfd.readouterr().err == "0 events, 0 warnings\n"
        path.write_bytes(b"\x00garbage, not a zone marker\x00")
        assert main(["timeline", str(path)]) == 2
        assert "error: %s: no [ZoneTransfer] ZoneId entry" % path in capfd.readouterr().err
