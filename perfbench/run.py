"""End-to-end benchmark of the imartifacts pipeline over scaled evidence trees.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One run:

1. generates the workload's evidence tree from the seed, at least
   SETUP_REPEATS times and SETUP_SECONDS seconds, and reports the median
   as ``setup_s``;
2. runs the real command line as a child process, one run at a time (a
   closed loop with one client), each run followed by loading its output
   in a fresh process RELOADS_PER_ROUND times, for at least S seconds and
   MIN_RUNS rounds after one warm-up run; it reports the median
   ``wall_s``, ``cpu_s``, ``peak_rss_mib`` and ``reload_s``;
3. with ``--trace 1``, runs the command once more in-process with every
   layer timed (see trace_run.py) and reports the per-layer metrics instead
   of the end-to-end ones.

Every output is checked against the generator's ledger (see oracle.py).  A
run that exits non-zero, prints an ``error:`` line or fails a check counts
as failed.  The last line of standard output is the result as JSON; the
lines before it give the run's provenance and every metric with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5  # at least, and at least SETUP_SECONDS of building
SETUP_SECONDS = 2.0
MIN_RUNS = 3
RELOADS_PER_ROUND = 2
CHILD_TIMEOUT_S = 150

# Layers whose input every tree holds, since each starts from the forged
# base tree; a traced run in which one of them records no call fails.
BASE_LAYERS = (
    "skype.extract_main_db", "facebook.extract_messages", "facebook.extract_notifications",
    "facebook.extract_chat_json", "carver.scan_stream", "scan.find_multi",
    "pcap.read_pcap", "pcap.assemble_flows", "regexport.parse_reg_export",
    "regexport.find_persisted_items", "timeline.ingest_ntfs_csv",
    "timeline.normalize", "timeline.build_report", "timeline.emit",
)
MIB = float(1 << 20)

# Imported by main() once the sources are known to be present.
oracle = workloads = None


@dataclass
class Child:
    """One finished child process with its resource use."""

    rc: int
    wall_s: float
    cpu_s: float
    rss_mib: float
    stdout: str
    stderr: str

    def failure(self) -> str | None:
        errors = [line for line in self.stderr.splitlines() if line.startswith("error:")]
        if self.rc != 0:
            return "exit code %d %s" % (self.rc, " ".join(errors[:3]))
        if errors:
            return "; ".join(errors[:3])
        return None


class Launcher:
    """Runs children through launch.py, started while this process is small."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launch.py")], cwd=ROOT,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        # a fixed hash seed keeps set and dict layouts, and so timings, alike across runs
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")

    def run(self, args: list[str], work: Path) -> Child:
        """Run a Python child from the checkout root and wait for it to end."""
        out_path, err_path = work / "child.stdout", work / "child.stderr"
        self.proc.stdin.write(json.dumps({
            "argv": [sys.executable, *args], "cwd": str(ROOT), "env": self.env,
            "stdout": str(out_path), "stderr": str(err_path), "timeout": CHILD_TIMEOUT_S,
        }) + "\n")
        self.proc.stdin.flush()
        answer = self.proc.stdout.readline()
        if not answer:
            raise RuntimeError("launch.py ended unexpectedly")
        result = json.loads(answer)
        return Child(result["rc"], result["wall_s"], result["cpu_s"], result["rss_mib"],
                     out_path.read_text(encoding="utf-8", errors="replace"),
                     err_path.read_text(encoding="utf-8", errors="replace"))

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def git_sha() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Bench:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool, work: Path, launcher: Launcher):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.work = work
        self.launcher = launcher
        self.tree = work / "tree"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.verdicts: dict[str, tuple[list[str], int]] = {}  # output digest -> (problems, events)

    # -- set-up ----------------------------------------------------------

    def setup(self) -> list[float]:
        times = []
        while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
            if self.tree.exists():
                shutil.rmtree(self.tree)
            start = time.perf_counter()
            self.ledger = workloads.build(self.workload, self.seed, self.tree)
            times.append(time.perf_counter() - start)
        for path in self.tree.rglob("*"):  # no write-back of the tree while measuring
            if path.is_file():
                fd = os.open(path, os.O_RDONLY)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)
        command = self.ledger["command"]
        self.fmt = command[command.index("--format") + 1]
        self.out = self.work / ("out." + self.fmt)
        # report rewrites evidence paths relative to the tree; timeline keeps them as given
        self.base = self.tree if command[0] == "report" else ROOT
        return times

    def argv(self, out: Path) -> list[str]:
        """The workload's command line, with paths relative to the checkout root."""
        tree = self.tree.relative_to(ROOT).as_posix()
        argv = []
        for part in self.ledger["command"]:
            if part == "{files}":
                argv += [p.relative_to(ROOT).as_posix() for p in sorted(self.tree.rglob("*")) if p.is_file()]
            else:
                argv.append(part.format(tree=tree, out=out.relative_to(ROOT).as_posix()))
        return argv

    # -- runs ------------------------------------------------------------

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += ["%s: %s" % (what, problem) for problem in problems]

    def check(self, child: Child, output: Path) -> tuple[bytes, list[str], int | None]:
        """The output's bytes, the problems found in it and its event count."""
        failure = child.failure()
        if failure is not None:
            return b"", [failure], None
        data = output.read_bytes() if output.exists() else b""
        digest = hashlib.sha256(data).hexdigest()
        if digest not in self.verdicts:  # identical bytes get the same verdict
            try:
                problems = oracle.check(data, self.fmt, self.ledger, self.base, self.tree)
                self.verdicts[digest] = problems, len(oracle.rows_of(data, self.fmt))
            except (ValueError, KeyError, IndexError) as error:  # output too damaged to check
                self.verdicts[digest] = ["output unreadable: %r" % error], None
        problems, events = self.verdicts[digest]
        return data, problems[:5], events

    def measure(self) -> tuple[list[Child], list[tuple[float, float | None]]]:
        """One warm-up run, then the closed loop.

        Each round runs the command, then loads its output in a fresh
        process, so both samples spread over the whole measured interval.
        Returns the timed command runs and the timed reloads.
        """
        runs, reloads = [], []
        start = None
        while start is None or len(runs) < MIN_RUNS or time.perf_counter() - start < self.seconds:
            if self.out.exists():
                self.out.unlink()
            child = self.launcher.run(["-m", "imartifacts.cli", *self.argv(self.out)], self.work)
            data, problems, events = self.check(child, self.out)
            self.record("run", problems)
            if start is None:  # warm-up: imports compiled, page cache filled
                self.reference = data
                start = time.perf_counter()
                continue
            runs.append(child)
            # a reload is short, so each round takes RELOADS_PER_ROUND samples of it
            reloads += [self.reload(events) for _ in range(RELOADS_PER_ROUND)]
        return runs, reloads

    def reload(self, expected: int | None) -> tuple[float, float | None]:
        """Load the output in a fresh process; returns its wall time and parse time."""
        child = self.launcher.run([str(HERE / "reload.py"), self.fmt, str(self.out)], self.work)
        failure = child.failure()
        problems = [failure] if failure else []
        parse_s = None
        if not problems:
            loaded = json.loads(child.stdout.splitlines()[-1])
            parse_s = loaded["parse_s"]
            if expected is not None and loaded["events"] != expected:
                problems.append("read %d events, want %d" % (loaded["events"], expected))
        self.record("reload", problems)
        return child.wall_s, parse_s

    def traced(self) -> tuple[Child, dict]:
        stats_path = self.work / "trace.json"
        traced_out = self.work / ("traced." + self.fmt)
        child = self.launcher.run([str(HERE / "trace_run.py"), str(stats_path), *self.argv(traced_out)], self.work)
        data, problems, _ = self.check(child, traced_out)
        if not problems and data != self.reference:
            problems.append("traced output differs from the untraced output")
        stats = {"layers": {}, "missing": []}
        if stats_path.exists():
            stats = json.loads(stats_path.read_text(encoding="utf-8"))
        layers = stats["layers"]
        problems += ["layer %s not found in the package" % name for name in stats["missing"]]
        required = BASE_LAYERS + (("forge.relativize_events",) if self.ledger["command"][0] == "report" else ())
        problems += ["layer %s recorded no call" % name for name in required
                     if not layers.get(name, {}).get("calls")]
        self.record("trace", problems)
        return child, stats


def per_layer_metrics(stats: dict, ledger: dict, traced: Child, wall_median: float,
                      parse_median: float, output_bytes: int) -> dict[str, tuple[float, str]]:
    layers = stats["layers"]
    sizes = ledger["sizes"]

    def get(name, field):
        return float(layers.get(name, {}).get(field, 0))

    def rate(units, name):
        seconds = get(name, "s")
        return units / seconds if seconds else 0.0

    main_s = get("cli.main", "s")
    flows = get("pcap.assemble_flows", "items")
    metrics = {
        "sqliteio.row_value.calls": (get("sqliteio.row_value", "calls"), "count"),
        "sqliteio.row_value.self_s": (get("sqliteio.row_value", "self_s"), "s"),
        "sqliteio.open_immutable.calls": (get("sqliteio.open_immutable", "calls"), "count"),
        "skype.extract_main_db.s": (get("skype.extract_main_db", "s"), "s"),
        "skype.extract_main_db.rows_per_s": (rate(sizes["skype_rows"], "skype.extract_main_db"), "1/s"),
        "facebook.extract_messages.s": (get("facebook.extract_messages", "s"), "s"),
        "facebook.extract_notifications.s": (get("facebook.extract_notifications", "s"), "s"),
        "timeline.normalize.self_s": (get("timeline.normalize", "self_s"), "s"),
        "timeline.build_report.s": (get("timeline.build_report", "s"), "s"),
        "timeline.emit.s": (get("timeline.emit", "s"), "s"),
        "timeline.emit.mib": (output_bytes / MIB, "MiB"),
        "forge.relativize_events.calls": (get("forge.relativize_events", "calls"), "count"),
        "forge.relativize_events.share": (get("forge.relativize_events", "s") / main_s if main_s else 0.0,
                                          "ratio"),
        "model.ts_from_iso_text.calls": (get("model.ts_from_iso_text", "calls"), "count"),
        "model.ts_from_iso_text.s": (get("model.ts_from_iso_text", "s"), "s"),
        "reload.parse_s": (parse_median, "s"),
        "timeline.ingest_ntfs_csv.s": (get("timeline.ingest_ntfs_csv", "s"), "s"),
        "timeline.ingest_ntfs_csv.rows": (get("timeline.ingest_ntfs_csv", "items"), "count"),
        "pcap.read_pcap.s": (get("pcap.read_pcap", "s"), "s"),
        "pcap.read_pcap.packets_per_s": (rate(get("pcap.read_pcap", "items"), "pcap.read_pcap"), "1/s"),
        "pcap.assemble_flows.s": (get("pcap.assemble_flows", "s"), "s"),
        "pcap.assemble_flows.flows": (flows, "count"),
        "pcap.label_flow.calls": (get("pcap.label_flow", "calls"), "count"),
        "pcap.label_flow.self_s": (get("pcap.label_flow", "self_s"), "s"),
        "label_calls_per_flow": (get("pcap.label_flow", "calls") / flows if flows else 0.0, "ratio"),
        "catalog_builds_per_run": (get("pcap.builtin_catalog", "calls"), "count"),  # one traced run
        "regexport.parse_reg_export.s": (get("regexport.parse_reg_export", "s"), "s"),
        "regexport.find_install_time.calls": (get("regexport.find_install_time", "calls"), "count"),
        "regexport.find_install_time.s": (get("regexport.find_install_time", "s"), "s"),
        "regexport.find_persisted_items.s": (get("regexport.find_persisted_items", "s"), "s"),
        "facebook.extract_chat_json.s": (get("facebook.extract_chat_json", "s"), "s"),
        "facebook.extract_chat_json.mib_per_s": (rate(sizes["raw_bytes"] / MIB, "facebook.extract_chat_json"),
                                                 "MiB/s"),
        "facebook.extract_chat_json.fragments": (get("facebook.extract_chat_json", "items"), "count"),
        "carver.scan_stream.self_s": (get("carver.scan_stream", "self_s"), "s"),
        "scan.find_multi.s": (get("scan.find_multi", "s"), "s"),
        "scan.find_multi.mib_per_s": (rate(sizes["raw_bytes"] / MIB, "scan.find_multi"), "MiB/s"),
    }
    for stage in ("skype.extract_main_db", "facebook.extract_messages", "facebook.extract_chat_json",
                  "pcap.read_pcap", "regexport.parse_reg_export", "timeline.normalize",
                  "timeline.build_report", "timeline.emit"):
        metrics[stage + ".maxrss_mib"] = (get(stage, "maxrss_mib"), "MiB")
    metrics["cli.main.s"] = (main_s, "s")
    metrics["cli.main.self_s"] = (get("cli.main", "self_s"), "s")
    # Process wall time outside cli.main: interpreter start, imports, wrapping.
    metrics["trace.outside_main_s"] = (traced.wall_s - main_s, "s")
    metrics["trace_overhead_ratio"] = (traced.wall_s / wall_median, "ratio")
    return metrics


def breakdown(stats: dict) -> list[str]:
    """Readable per-layer table, largest self time first."""
    layers = stats["layers"]
    lines = ["%-36s %8s %10s %10s" % ("layer", "calls", "s", "self_s")]
    for name, stat in sorted(layers.items(), key=lambda item: -item[1]["self_s"]):
        if stat["calls"]:
            lines.append("%-36s %8d %10.4f %10.4f" % (name, stat["calls"], stat["s"], stat["self_s"]))
    total = sum(stat["self_s"] for stat in layers.values())
    lines.append("%-36s %8s %10s %10.4f" % ("sum of self times", "", "", total))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "imartifacts" / "__init__.py").is_file():
        print("error: %s does not hold the imartifacts sources" % SRC, file=sys.stderr)
        return 2
    launcher = Launcher()  # first, while this process is small
    work = ROOT / ".bench_work" / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        sys.path.insert(0, str(SRC))
        global oracle, workloads
        import oracle
        import workloads

        if args.workload not in workloads.WORKLOADS:
            print("error: unknown workload %r (one of %s)" % (args.workload, ", ".join(workloads.WORKLOADS)),
                  file=sys.stderr)
            return 2
        work.mkdir(parents=True)
        return run(args, Bench(args.workload, args.seed, args.seconds, bool(args.trace), work, launcher))
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def run(args, bench: Bench) -> int:
    from imartifacts import _scan

    setup_times = bench.setup()
    runs, reloads = bench.measure()
    wall = statistics.median(r.wall_s for r in runs)
    parses = [parse_s for _, parse_s in reloads if parse_s is not None]

    print(json.dumps({"provenance": {
        "git_sha": git_sha(), "python": platform.python_version(), "scan_backend": _scan.BACKEND,
        "nproc": os.cpu_count(), "workload": args.workload, "seed": args.seed,
        "command": bench.ledger["command"], "sizes": bench.ledger["sizes"],
        "output_bytes": len(bench.reference), "runs": len(runs), "setup_repeats": len(setup_times),
    }}))
    print("wall_s per run: %s" % " ".join("%.4f" % r.wall_s for r in runs))
    print("reload_s per run: %s" % " ".join("%.4f" % wall_s for wall_s, _ in reloads))
    if bench.trace:
        traced, stats = bench.traced()
        for line in breakdown(stats):
            print(line)
        metrics = per_layer_metrics(stats, bench.ledger, traced, wall,
                                    statistics.median(parses) if parses else 0.0, len(bench.reference))
    else:
        metrics = {
            "wall_s": (wall, "s"),
            "cpu_s": (statistics.median(r.cpu_s for r in runs), "s"),
            "peak_rss_mib": (statistics.median(r.rss_mib for r in runs), "MiB"),
            "reload_s": (statistics.median(wall_s for wall_s, _ in reloads), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
        }
    for name, (value, unit) in metrics.items():
        print("%s %r %s" % (name, value, unit))
    print("error_rate %r (%d of %d runs failed)" % (bench.failed / bench.attempted, bench.failed, bench.attempted))
    for problem in bench.problems:
        print("failed %s" % problem, file=sys.stderr)
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
