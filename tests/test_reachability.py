"""Every function in the package is reached by a command, or is named on purpose.

A child process runs each command of the command line on one forged tree
under sys.setprofile and records which functions of src/imartifacts it
entered.  A function that no command reaches fails the test unless
ALLOWED names it with its reason, so new public surface that nothing runs
becomes a visible decision instead of a quiet addition.

The trace runs in a child so that import-time calls and functions behind
a per-process cache (pcap's builtin catalog index) are seen whatever
other tests ran first.  Run as a script with an empty directory as its
argument, this file writes the trace of one run to trace.json there.
"""

import ast
import json
import os
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "imartifacts"

LIBRARY_API = "library API: README documents it as the way to load a report"
PERFBENCH_LAYER = "perfbench layer: perfbench/trace_run.py times it at this path until the benchmark is retargeted"
OS_ERROR = "error path: runs only when the operating system fails a read or a directory listing"
WORKER_ONLY = "runs only in a forked scan worker, whose own calls the trace does not see"

# Qualified name (module.function, module.Class.method) -> why no command reaches it.
ALLOWED = {
    "timeline.parse_jsonl": LIBRARY_API,
    "timeline._utc_from_when": LIBRARY_API,
    "timeline._member": LIBRARY_API,
    "sqliteio.row_value": PERFBENCH_LAYER,
    "regexport.find_install_time": PERFBENCH_LAYER,
    "locator.scan_tree.on_error": OS_ERROR,
    "cli._fork_scan.Pipe.write": WORKER_ONLY,
}

# A catalog read by --catalog: one Skype line, which relabels the forged rst flow.
CATALOG = "91.190.216.0/24 SkypeRst M.O.D.A. rstwh.skype-cr.akadns.net\n"


def defined_functions() -> dict[tuple[str, int], str]:
    """{(file, first line of its code object): qualified name} for every def in the package."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A decorated function's code object starts at its first decorator.
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(str(path), first)] = prefix + child.name
                walk(child, path, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path, path.stem + ".")
    return found


def _damage(tree: Path) -> None:
    """Give the first cached Facebook message a time before the epoch, which its reader must skip."""
    connection = sqlite3.connect(next(tree.rglob("Messages.sqlite")))
    with connection:
        connection.execute("UPDATE messages SET timestamp = -1 WHERE rowid = (SELECT min(rowid) FROM messages)")
    connection.close()


def _commands(tree: Path, work: Path) -> list[list[str]]:
    """Every command once on tree, report and timeline in both formats, a catalog, and a usage error.

    timeline names the journal twice, so the merge meets events that tie on their sort key.
    """
    files = [str(p) for p in sorted(tree.rglob("*")) if p.is_file()]
    db_dir = next(tree.rglob("Messages.sqlite")).parent
    return [
        ["report", str(tree), "--format", "jsonl", "-v", "--out", str(work / "report.jsonl")],
        ["report", str(tree), "--format", "csv", "--catalog", str(work / "catalog.txt"),
         "--out", str(work / "report.csv")],
        ["timeline", *files, str(tree / "ntfs_journal.csv"), "--format", "csv", "-v", "--out", str(work / "timeline.csv")],
        ["scan", str(tree)],
        ["facebook", *map(str, sorted(db_dir.glob("*.sqlite")))],
        ["skype", str(tree)],
        ["registry", str(next(tree.rglob("*.reg")))],
        ["carve", str(tree / "memory.bin"), "--out", str(work / "carved")],
        ["pcap", str(tree / "capture.pcap"), "--catalog", str(work / "catalog.txt")],
        ["pcap"],
    ]


def trace(work: Path) -> dict:
    """Forge seed 7 into work, damage it, and run every command under sys.setprofile.

    Returns {"codes": [[command, exit code], ...], "reached": [[file, first line], ...]}.
    The last run is a timeline of every file with the raw blob sent to a
    forked scan worker; the worker's own calls are not seen, its parent's are.
    """
    seen = {}  # id of each code object entered -> the code object

    def profile(frame, event, arg):
        if event == "call":
            seen[id(frame.f_code)] = frame.f_code

    sys.setprofile(profile)
    try:
        from imartifacts import cli

        runs = []
        tree = work / "tree"
        (work / "catalog.txt").write_text(CATALOG, encoding="utf-8")
        runs.append(["forge", cli.main(["forge", "--seed", "7", "--out", str(tree)])])
        _damage(tree)
        for argv in _commands(tree, work):
            runs.append([argv[0], cli.main(argv)])
        files = [str(p) for p in sorted(tree.rglob("*")) if p.is_file()]
        cli.SCAN_WORKER_MIN_BYTES = 0
        os.sched_getaffinity = lambda pid: {0, 1}
        runs.append(["timeline-workers",
                     cli.main(["timeline", *files, "--out", str(work / "workers.jsonl")])])
    finally:
        sys.setprofile(None)
    package = str(PACKAGE)
    reached = sorted({(os.path.realpath(code.co_filename), code.co_firstlineno) for code in seen.values()
                      if os.path.realpath(code.co_filename).startswith(package)})
    return {"codes": runs, "reached": reached}


def run_trace(tmp_path: Path) -> tuple[list, set[str]]:
    """The exit codes of a traced child's commands and the qualified names they reached."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, __file__, str(tmp_path)], env=env,
                           capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    result = json.loads((tmp_path / "trace.json").read_text(encoding="utf-8"))
    names = defined_functions()
    return result["codes"], {names[tuple(key)] for key in result["reached"] if tuple(key) in names}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the scan worker path needs os.fork")
def test_every_function_is_reached_by_a_command_or_allowed(tmp_path):
    codes, reached = run_trace(tmp_path)
    assert codes == [["forge", 0], ["report", 0], ["report", 0], ["timeline", 0], ["scan", 0], ["facebook", 0],
                     ["skype", 0], ["registry", 0], ["carve", 0], ["pcap", 0], ["pcap", 1], ["timeline-workers", 0]]
    defined = set(defined_functions().values())
    unreached = sorted(defined - reached - set(ALLOWED))
    assert unreached == [], "reached by no command; give them a caller, move them out, or allow them"
    assert sorted(set(ALLOWED) - defined) == [], "allowed but no longer defined"
    assert sorted(set(ALLOWED) & reached) == [], "allowed but now reached by a command"


if __name__ == "__main__":
    work = Path(sys.argv[1])
    (work / "trace.json").write_text(json.dumps(trace(work)), encoding="utf-8")
