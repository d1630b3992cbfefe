"""Metamorphic relations of the merged timeline over forged evidence trees.

Each relation compares runs of the command line with one another rather
than with an expected output:

- partition: one run over all inputs gives the multiset of JSONL lines
  that one run per input gives together;
- order: reversed inputs give the same bytes;
- clock offset: ``--utc-offset`` moves the journal events, and only them;
- location: a tree whose directory name holds "#", "?", "%" or a space
  gives the report of the same tree elsewhere, and nothing is written
  beside the evidence;
- encoding: a registry export, a journal, or a Skype shared.xml or
  config.xml re-encoded as UTF-8, UTF-8 with a byte-order mark, or UTF-16
  of either byte order with one, is sniffed as the same kind and gives the
  same events and warnings, paths aside; a state XML file also gives the
  same parsed state.

The partition relation also runs on trees with two Facebook caches or two
Skype stores of different owners, whose messages each take their own
store's owner.
"""

import json
import os
import shutil
import sqlite3
from collections import Counter
from dataclasses import replace
from datetime import timedelta
from pathlib import Path

import pytest

from imartifacts import forge, sampledata, skype, timeline
from imartifacts.cli import _sniff, main
from imartifacts.model import App, EventKind, Timestamp

SEEDS = (0, 7, 19)
ODD_NAMES = ("a#b", "e?f", "c%41d", "sp ace")
ENCODINGS = {
    "utf-8": lambda text: text.encode("utf-8"),
    "utf-8-bom": lambda text: b"\xef\xbb\xbf" + text.encode("utf-8"),
    "utf-16le-bom": lambda text: b"\xff\xfe" + text.encode("utf-16-le"),
    "utf-16be-bom": lambda text: b"\xfe\xff" + text.encode("utf-16-be"),
}
JOURNAL = "timeline.ntfs_csv"


@pytest.fixture(scope="module", params=SEEDS, ids=lambda seed: "seed%d" % seed)
def tree(request, tmp_path_factory):
    root = tmp_path_factory.mktemp("seed%d" % request.param) / "evidence"
    forge.forge_fixture(request.param, root)
    return request.param, root


def _inputs(root: Path) -> list[str]:
    return sorted(str(p) for p in root.rglob("*") if p.is_file())


def _output(out: Path, *argv: str) -> bytes:
    """What the command writes to --out; its exit code is not checked."""
    main([*argv, "--out", str(out)])
    return out.read_bytes()


def _assert_partition(tmp_path: Path, inputs: list[str]) -> None:
    out = tmp_path / "out.jsonl"
    whole = Counter(_output(out, "timeline", *inputs).splitlines())
    parts = Counter()
    for path in inputs:
        parts.update(_output(out, "timeline", path).splitlines())
    assert whole == parts


def _snapshot(top: Path) -> dict:
    """Every file and directory under top: its size and modification time."""
    found = {}
    for directory, dirs, files in os.walk(top):
        for name in dirs + files:
            info = os.stat(os.path.join(directory, name))
            found[os.path.relpath(os.path.join(directory, name), top)] = (info.st_size, info.st_mtime_ns)
    return found


class TestRelations:
    def test_partition(self, tree, tmp_path):
        _, root = tree
        _assert_partition(tmp_path, _inputs(root))

    def test_reversed_inputs_give_the_same_bytes(self, tree, tmp_path):
        _, root = tree
        inputs = _inputs(root)
        forward = _output(tmp_path / "forward.jsonl", "timeline", *inputs)
        assert forward
        assert _output(tmp_path / "reversed.jsonl", "timeline", *reversed(inputs)) == forward

    def test_utc_offset_moves_only_the_journal_events(self, tree, tmp_path):
        _, root = tree
        inputs = _inputs(root)
        plain = timeline.parse_jsonl(_output(tmp_path / "plain.jsonl", "timeline", *inputs))
        moved = timeline.parse_jsonl(
            _output(tmp_path / "moved.jsonl", "timeline", *inputs, "--utc-offset", "90"))
        journal = [e for e in plain if e.provenance.extractor == JOURNAL]
        assert journal
        assert [e for e in moved if e.provenance.extractor != JOURNAL] == \
            [e for e in plain if e.provenance.extractor != JOURNAL]
        assert [e for e in moved if e.provenance.extractor == JOURNAL] == [
            replace(e, when=Timestamp(e.when.utc_instant - timedelta(minutes=90), e.when.encoding, e.when.raw))
            for e in journal]

    @pytest.mark.parametrize("name", ODD_NAMES)
    def test_location(self, tree, tmp_path, name):
        seed, root = tree
        expected = _output(tmp_path / "plain.jsonl", "report", str(root))
        parent = tmp_path / "parent"
        forge.forge_fixture(seed, parent / name)
        before = _snapshot(parent)
        assert _output(tmp_path / "odd.jsonl", "report", str(parent / name)) == expected
        assert _snapshot(parent) == before


    @pytest.mark.parametrize("name", [forge.REGISTRY_NAME, forge.NTFS_CSV_NAME, forge.SKYPE_STATE_DIR + "/shared.xml",
                                      forge.SKYPE_ACCOUNT_DIR + "/config.xml"], ids=lambda name: Path(name).name)
    def test_encoding(self, tree, tmp_path, capfd, name):
        _, root = tree
        data = (root / name).read_bytes()
        text = data.decode("utf-16") if data.startswith((b"\xff\xfe", b"\xfe\xff")) else data.decode("utf-8-sig")
        xml = name.endswith(".xml")
        seen = {}
        for encoding, encode in ENCODINGS.items():
            path = tmp_path / encoding / Path(name).name
            path.parent.mkdir()
            path.write_bytes(encode(text))
            capfd.readouterr()
            events = timeline.parse_jsonl(_output(tmp_path / "out.jsonl", "timeline", str(path), "-v"))
            warnings = capfd.readouterr().err.replace(str(path), "<input>")
            seen[encoding] = (_sniff(path),
                              [replace(e, provenance=replace(e.provenance, evidence_path="<input>")) for e in events],
                              warnings, skype.parse_state_xml(path.read_bytes()) if xml else None)
        assert seen["utf-8"][0] == ("xml" if xml else "registry" if name == forge.REGISTRY_NAME else "journal-csv")
        assert seen["utf-8"][3] if xml else seen["utf-8"][1]
        assert all(outcome == seen["utf-8"] for outcome in seen.values()), \
            [encoding for encoding, outcome in seen.items() if outcome != seen["utf-8"]]


class TestOneOwnerPerStore:
    """A cache or store whose owner is not given is owned by the uid its own records name."""

    @pytest.fixture
    def root(self, tmp_path):
        root = tmp_path / "evidence"
        forge.forge_fixture(7, root)
        return root

    def test_two_facebook_caches(self, root, tmp_path):
        owner_db = root / forge.FACEBOOK_DB_DIR / "Messages.sqlite"
        other_dir = owner_db.parents[2] / sampledata.CORRESPONDENT_UID / "DB"
        other_dir.mkdir(parents=True)
        other_db = other_dir / "Messages.sqlite"
        shutil.copyfile(owner_db, other_db)
        with sqlite3.connect(other_db) as connection:  # the correspondent's cache tags their own rows sent
            connection.execute(
                "UPDATE messages SET tags = CASE WHEN sender LIKE ? THEN '[\"sent\"]' ELSE '[]' END",
                ('%%"user_id": "%s"%%' % sampledata.CORRESPONDENT_UID,))
        connection.close()
        inputs = _inputs(root)
        _assert_partition(tmp_path, inputs)
        events = timeline.parse_jsonl(_output(tmp_path / "all.jsonl", "timeline", *inputs))
        kinds = Counter((e.provenance.evidence_path == str(other_db), e.actor, e.kind)
                        for e in events if e.provenance.extractor == "facebook.messages")
        jack = json.loads(sampledata.MESSAGE_ROWS[1]["sender"])["name"]
        assert kinds[(False, jack, EventKind.MESSAGE_RECEIVED)] == 3
        assert kinds[(True, jack, EventKind.MESSAGE_SENT)] == 3
        assert kinds[(True, sampledata.OWNER_NAME, EventKind.MESSAGE_RECEIVED)] == 2

    def test_two_skype_stores(self, root, tmp_path):
        owner_db = root / forge.SKYPE_ACCOUNT_DIR / "main.db"
        other_db = owner_db.parents[1] / "someone.else" / "main.db"
        other_db.parent.mkdir()
        shutil.copyfile(owner_db, other_db)
        with sqlite3.connect(other_db) as connection:
            connection.execute("UPDATE Accounts SET skypename = 'someone.else'")
        connection.close()
        inputs = _inputs(root)
        _assert_partition(tmp_path, inputs)
        events = timeline.parse_jsonl(_output(tmp_path / "all.jsonl", "timeline", *inputs))
        sent = Counter(e.provenance.evidence_path == str(other_db)
                       for e in events if e.kind is EventKind.MESSAGE_SENT and e.app is App.SKYPE)
        assert sent[False] > 0 and sent[True] == 0
