"""No command writes to the evidence it reads.

A child process runs every command of test_reachability._commands over a
forged tree, with its outputs in a directory beside the tree's parent, not
in it.  An audit hook in the child records each open with write flags and
each sqlite3.connect under the tree; every write fails the test, as does a
connect that is not read-only and immutable, and each report, timeline,
facebook and skype run must connect each SQLite file it reads exactly
once.  SQLite opens its own files without an audit event, so the tree and
its parent are also compared before and after: every name, size,
modification time and SHA-256.

The run is made on the plain tree and on one whose Facebook message cache
has a write-ahead log beside it, which must not gain a -shm file.  Run as
a script with the tree and the output directory as its arguments, this
file runs the commands and writes what the hook saw to audit.json in the
output directory.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from urllib.parse import parse_qs, unquote, urlsplit

import pytest

import test_cli
from imartifacts import forge
from imartifacts.sqliteio import SQLITE_MAGIC
from test_reachability import CATALOG, PACKAGE, _commands

WRITE_FLAGS = os.O_WRONLY | os.O_RDWR | os.O_CREAT | os.O_TRUNC | os.O_APPEND


def _snapshot(top: Path) -> dict:
    """Every file and directory under top: its size, modification time and, for a file, SHA-256."""
    found = {}
    for directory, dirs, files in os.walk(top):
        for name in dirs + files:
            path = os.path.join(directory, name)
            info = os.stat(path)
            digest = None
            if name in files:
                with open(path, "rb") as handle:
                    digest = hashlib.sha256(handle.read()).hexdigest()
            found[os.path.relpath(path, top)] = (info.st_size, info.st_mtime_ns, digest)
    return found


def _is_sqlite(path: Path) -> bool:
    with open(path, "rb") as handle:
        return handle.read(len(SQLITE_MAGIC)) == SQLITE_MAGIC


def _under(path: str, root: str) -> bool:
    path = os.path.realpath(path)
    return path == root or path.startswith(root + os.sep)


def audit(tree: Path, work: Path) -> dict:
    """Run every command on tree with outputs in work, under an audit hook.

    Returns {"codes": [[command, exit code], ...], "opened": the number of
    opens under tree, "writes": [[path, mode, flags], ...] of those with write
    flags, "connects": [[index of the command in codes, database path, read-only and
    immutable], ...] of the sqlite3.connect calls under tree}.
    """
    root = os.path.realpath(tree)
    seen = {"opened": 0, "writes": [], "connects": [], "codes": []}

    def hook(event, args):
        if event == "open" and isinstance(args[0], (str, bytes, os.PathLike)):
            path = os.fsdecode(args[0])
            if _under(path, root):
                seen["opened"] += 1
                if args[2] & WRITE_FLAGS:
                    seen["writes"].append([path, args[1], args[2]])
        elif event == "sqlite3.connect":
            database = os.fsdecode(args[0])
            if database.startswith("file:"):
                uri = urlsplit(database)
                path, query = unquote(uri.path), parse_qs(uri.query)
                read_only = query.get("mode") == ["ro"] and query.get("immutable") == ["1"]
            else:
                path, read_only = database, False
            if _under(path, root):
                seen["connects"].append([len(seen["codes"]), os.path.realpath(path), read_only])

    sys.addaudithook(hook)
    from imartifacts import cli

    for argv in _commands(tree, work):
        seen["codes"].append([argv[0], cli.main(argv)])
    return seen


@pytest.mark.parametrize("wal", [False, True], ids=["plain", "wal"])
def test_no_command_writes_to_the_evidence(tmp_path, wal):
    tree = tmp_path / "evidence" / "tree"
    work = tmp_path / "work"
    forge.forge_fixture(7, tree)
    if wal:
        messages = next(tree.rglob("Messages.sqlite"))
        Path(str(messages) + "-wal").write_bytes(test_cli.TestWal.WAL_HEADER)
    work.mkdir()
    (work / "catalog.txt").write_text(CATALOG, encoding="utf-8")
    before = _snapshot(tree.parent)

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), str(Path(__file__).parent), os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, __file__, str(tree), str(work)], env=env,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    seen = json.loads((work / "audit.json").read_text(encoding="utf-8"))

    assert seen["codes"] == [["report", 0], ["report", 0], ["timeline", 0], ["scan", 0], ["facebook", 0],
                             ["skype", 0], ["registry", 0], ["carve", 0], ["pcap", 0], ["pcap", 1]]
    assert seen["opened"] > 0  # the hook sees the evidence being read
    assert seen["writes"] == []
    assert seen["connects"] and [database for _, database, read_only in seen["connects"] if not read_only] == []
    databases = sorted(os.path.realpath(p) for p in tree.rglob("*") if p.is_file() and _is_sqlite(p))
    read_by = {"report": databases, "timeline": databases,
               "skype": [database for database in databases if database.endswith(os.sep + "main.db")]}
    for index, argv in enumerate(_commands(tree, work)):
        reads = read_by.get(argv[0], sorted(map(os.path.realpath, argv[1:])) if argv[0] == "facebook" else [])
        connected = sorted(database for run, database, _ in seen["connects"] if run == index)
        assert connected == reads, argv[0]  # each database a run reads is connected once
    assert len(databases) == 7 and len(read_by["skype"]) == 1
    after = _snapshot(tree.parent)
    assert [name for name in after if name.endswith("-shm")] == []
    assert after == before


if __name__ == "__main__":
    tree, work = Path(sys.argv[1]), Path(sys.argv[2])
    result = audit(tree, work)
    (work / "audit.json").write_text(json.dumps(result), encoding="utf-8")
