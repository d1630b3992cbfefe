"""Command line front end.

One subcommand per extraction surface plus `timeline`/`report` to merge
everything into a single event stream and `forge` to synthesize test
evidence.  Each format's rules (its sniff test, tables, tags and owners)
live in the module that parses it; this one only dispatches to them.
Diagnostics go to stderr, data to stdout or files.  Exit codes: 0
success, 1 usage error, 2 nothing usable, 3 partial success.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import itertools
import json
import os
import sys
import threading
from collections.abc import Iterator
from pathlib import Path

from . import carver, facebook, locator, pcap, regexport, skype, timeline
from .model import ExtractionError
from .sqliteio import SQLITE_MAGIC, open_immutable

ENV_OUT = "IMARTIFACTS_OUT"
SCAN_WORKER_MIN_BYTES = 64 << 20  # raw inputs this large may be scanned in a forked worker

class _Usage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures map to exit code 1."""

    def error(self, message):
        raise _Usage("%s: %s" % (self.prog, message))


def _err(message: str) -> None:
    print(message, file=sys.stderr)


class _Tally:
    """Per-input success bookkeeping driving the exit code contract."""

    def __init__(self):
        self.ok: list[str] = []
        self.failed: list[str] = []
        self.skipped: list[str] = []

    def read(self, name: str, work):
        """work()'s result; name counts as read, or as skipped if that is None.

        If work() raises, the error is printed, name counts as failed and
        None is returned.
        """
        try:
            result = work()
        except Exception as error:
            self.failed.append(name)
            _err("error: %s: %s" % (name, error))
            return None
        (self.skipped if result is None else self.ok).append(name)
        return result

    def exit_code(self) -> int:
        """3 if some inputs failed and others were read, 2 if none was read
        but some failed or were skipped, else 0.

        When every input was skipped, no error line has been printed yet, so one is.
        """
        if self.failed:
            return 3 if self.ok else 2
        if self.skipped and not self.ok:
            _err("error: nothing usable: no extractor reads any of %d input(s)" % len(self.skipped))
            return 2
        return 0


def _default_out(value):
    return value if value is not None else os.environ.get(ENV_OUT)


# ---------------------------------------------------------------------------
# Input sniffing


def _sniff(path: Path) -> str:
    """The kind of input at path, by its name and by the parsers' own tests of its first 4 KiB."""
    name = path.name
    if locator.sidecar_target(name) is not None:
        return "sidecar"
    with path.open("rb") as handle:
        try:
            head = handle.read(4096)
        except OSError as error:
            raise carver.StreamReadError("stream read failed: %s" % error) from error
    if head.startswith(SQLITE_MAGIC):
        return "sqlite"
    if head[:4] in pcap.HEADER_MAGICS:
        return "pcap"
    if regexport.is_export_head(head):
        return "registry"
    if locator.decode_text(head).lstrip().startswith("<?xml"):
        return "xml"
    if name.lower().endswith(".json"):
        return "json"
    if name.lower().endswith(".csv") and timeline.is_journal_head(head):
        return "journal-csv"
    return "raw"


# ---------------------------------------------------------------------------
# The gather pipeline shared by `timeline` and `report`


class _Gather:
    def __init__(self, catalog, fb_owner=None, skype_owner=None):
        self.catalog = pcap.catalog_index(catalog)
        self.fb_owner, self.skype_owner = fb_owner, skype_owner  # the owners of every cache and store
        self.events: list = []
        self.warnings: list[str] = []
        self.tally = _Tally()

    def ingest(self, path: Path, utc_offset: int = 0, kind: str | None = None, worker=None) -> None:
        """Extract one input, sniffing its kind unless kind names it, and map its records to events.

        With a worker from _start_scans, the input's fragments are those
        that worker sends.  The input's extraction warnings are kept as they
        come; its events and then its mapping warnings are kept only if the
        whole input is read.
        """
        warnings: list[str] = []
        events = self.tally.read(str(path), lambda: self._map(path, utc_offset, kind, worker, warnings))
        if events is not None:
            self.events += events
            self.warnings += warnings

    def _map(self, path: Path, utc_offset: int, kind: str | None, worker, warnings: list[str]) -> list | None:
        """The events of one input, or None if no extractor reads it; mapping warnings go to warnings.

        One branch per kind reads the input and maps its records; a SQLite
        input is opened once, and skype.is_store picks its reader.  A Skype
        store's or Facebook cache's records and a raw input's fragments,
        scanned here or sent by a worker, are mapped as they are read, and a
        capture's flows are let go as they are mapped; every other input's
        records are read whole first.  An owner the gather was not given
        comes from the input itself: a store's is its first record's, if
        that is an Accounts row, and a cache's is facebook.cache_owner's,
        found in a pass over its messages before any record is read.
        """
        label = str(path)
        fb_owner, skype_owner = self.fb_owner, self.skype_owner

        def mapped(records):
            return timeline.normalize(records, fb_owner_uid=fb_owner, skype_owner=skype_owner,
                                      capture_path=label, catalog=self.catalog, warnings=warnings)

        if worker is not None:
            with contextlib.closing(_scan_result(worker, path)) as fragments:  # the worker is reaped if mapping stops
                return mapped(fragments)
        kind = kind or _sniff(path)
        if kind == "sqlite":
            with open_immutable(path, self.warnings) as connection:
                if skype.is_store(connection):
                    with contextlib.closing(skype.extract_main_db(connection, path, self.warnings)) as rows:
                        # If mapping stops partway, the store's cursor is let go before its connection closes.
                        head = list(itertools.islice(rows, 1))
                        if skype_owner is None and head and isinstance(head[0], skype.SkypeAccount):
                            skype_owner = head[0].skypename
                        return mapped(itertools.chain(head, rows))
                if fb_owner is None:
                    fb_owner = facebook.cache_owner(connection, path)
                groups = facebook.extract_cache(connection, path, self.warnings)
                with contextlib.closing(_chained(groups.values())) as records:  # the cursor goes before the connection
                    return mapped(records)
        if kind == "pcap":
            return mapped(_drained(_capture_flows(path, self.warnings)))
        if kind == "registry":
            return mapped(_registry_records(path, self.warnings))
        if kind == "journal-csv":
            return mapped(timeline.ingest_ntfs_csv(path, self.warnings, utc_offset_minutes=utc_offset,
                                                   evidence_path=label))
        if kind == "sidecar":
            locator.read_zone_identifier(path.read_bytes(), sidecar_path=label)
            return []
        if kind == "raw":
            with contextlib.closing(_scan_raw(path)) as fragments:  # the file is closed if mapping stops
                return mapped(fragments)
        if kind == "xml" and skype.parse_state_xml(path.read_bytes(), self.warnings) is not None:
            return []
        self.warnings.append("no extractor for %s, skipped" % label)
        return None


def _chained(groups) -> Iterator:
    """The items of each group in turn; closing this closes the group being taken."""
    for group in groups:
        yield from group


def _registry_records(path: Path, warnings) -> list:
    """The install and persisted-item records of one export, with a warning in warnings if it skipped any line."""
    label = str(path)
    export = regexport.parse_reg_export(locator.decode_text(path.read_bytes()))  # the bytes go before the parse
    if export.errors:
        warnings.append("%s: %d unreadable line(s) skipped, first at line %d: %s" % (label, len(export.errors), *export.errors[0]))
    return (regexport.find_install_records(export, evidence_path=label)
            + regexport.find_persisted_items(export, warnings, evidence_path=label))


def _capture_flows(path, warnings) -> list:
    """The flows of one capture, with a warning in warnings if it skipped any record."""
    capture = pcap.read_pcap(path)
    skipped = capture.skipped
    if skipped.truncated or skipped.non_ipv4 or skipped.non_tcp_udp:
        warnings.append("%s: %d truncated record(s), %d non-IPv4 frame(s), %d non-TCP/UDP datagram(s) skipped"
                        % (path, skipped.truncated, skipped.non_ipv4, skipped.non_tcp_udp))
    return capture.flows


def _drained(items: list) -> Iterator:
    """The items in order, each let go by the list as it is taken."""
    items.reverse()
    return (items.pop() for _ in range(len(items)))


def _scan_raw(path: Path) -> Iterator:
    """The chat fragments of one raw input as they are found; the file is open until the last is taken."""
    with path.open("rb") as handle:
        yield from facebook.extract_chat_json(handle, evidence_path=str(path))


# ---------------------------------------------------------------------------
# Scans of large raw inputs in forked workers


def _start_scans(paths: list[Path]) -> dict[int, tuple[int, int]]:
    """Fork a scan of each of the last large raw inputs: {position in paths: (pid, pipe read end)}.

    Large means that _sniff calls it raw and it holds at least
    SCAN_WORKER_MIN_BYTES.  There is one worker fewer than usable CPUs at
    most, and they take the last such inputs, which this process reaches
    last.  Without os.fork or os.sched_getaffinity, or with one CPU, there
    are none; nor while another thread runs, since a lock it holds would
    stay held in a forked child.
    """
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return {}
    spare = len(os.sched_getaffinity(0)) - 1
    if spare < 1:
        return {}
    large = []
    for index, path in enumerate(paths):
        try:
            if path.stat().st_size >= SCAN_WORKER_MIN_BYTES and _sniff(path) == "raw":
                large.append(index)
        except (OSError, carver.StreamReadError):
            pass  # read in-line, which reports the error at its turn
    workers: dict[int, tuple[int, int]] = {}
    for index in large[-spare:]:
        try:
            workers[index] = _fork_scan(paths[index], workers.values())
        except OSError:
            break  # no process to be had: the rest are scanned in-line
    return workers


def _fork_scan(path: Path, others) -> tuple[int, int]:
    """Start a child that sends _scan_raw(path) through a pipe: (its pid, the read end).

    The child scans the whole input first, so it never waits on a full pipe
    while it could be scanning.  Then it pickles a header, (True, count) or
    (False, error text), straight into the pipe, and then each of the count
    fragments as a pickle of its own, letting each go once it is sent.  It
    ends with os._exit, so it never returns into the caller's code.  others
    are the workers already started, whose read ends it closes.
    """
    import pickle

    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            for _, other in others:
                os.close(other)
            try:
                fragments = list(_scan_raw(path))
                header = (True, len(fragments))
            except Exception as error:
                fragments, header = [], (False, str(error))

            class Pipe:  # pickle.dump hands it one frame at a time, so no whole pickle is held
                def write(self, data):
                    data = memoryview(data)
                    while data:
                        data = data[os.write(write_end, data):]

            pipe = Pipe()
            for item in itertools.chain([header], _drained(fragments)):
                pickle.dump(item, pipe, pickle.HIGHEST_PROTOCOL)
            os.close(write_end)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, read_end


def _scan_result(worker: tuple[int, int], path: Path) -> Iterator:
    """The fragments the worker scanning path sends, each yielded as it is unpickled.

    ExtractionError, once the worker is reaped, if it sent an error, or
    ended before its last fragment or with a nonzero status.  The worker
    is killed and reaped if this stops early.
    """
    import pickle

    try:
        with open(worker[1], "rb", closefd=False) as pipe:
            try:
                ok, value = pickle.load(pipe)
                for _ in range(value if ok else 0):
                    yield pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):  # nothing, or a pickle cut short
                ok = None
    except BaseException:
        _reap(worker, kill=True)
        raise
    status = _reap(worker)
    if ok is None or status != 0:
        raise ExtractionError("scan worker for %s ended without a result (status %d)" % (path, status))
    if not ok:
        raise ExtractionError(value)


def _reap(worker: tuple[int, int], kill: bool = False) -> int:
    """Close the worker's read end and wait for it to end, killing it first if kill; its exit code."""
    pid, read_end = worker
    os.close(read_end)
    if kill:
        import signal

        os.kill(pid, signal.SIGKILL)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def _run_pipeline(args, names, journal=None, root=None) -> int:
    """_gather_and_emit with automatic garbage collection paused, then set back as the caller had it.

    The run's records and events hold almost no reference cycles, so each
    collection would rescan every event built so far and free next to nothing.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _gather_and_emit(args, names, journal, root)
    finally:
        if enabled:
            gc.enable()


def _gather_and_emit(args, names, journal, root) -> int:
    """Gather the files that names name, then the journal CSV if given, merge and emit the timeline.

    Each file is read once, whatever it is called: a name that resolves to
    the journal is left out, and one that resolves to an earlier name is
    left out with a warning, the report's first.  With root, evidence
    paths are rewritten relative to it.  The largest raw
    inputs are scanned in forked workers (_start_scans) while this process
    reads the others; each worker's result is taken at its input's turn.
    """
    gather = _Gather(_load_catalog(args.catalog), args.fb_owner, args.skype_owner)
    first: dict[str, int | None] = {} if journal is None else {os.path.realpath(journal): None}
    paths = []
    for index, name in enumerate(names):
        at = first.setdefault(os.path.realpath(name), index)  # unlike Path.resolve, realpath never raises on a loop
        if at == index:
            paths.append(Path(name))
        elif at is not None:
            gather.warnings.append("%s names the same file as %s, skipped" % (name, names[at]))
    workers = _start_scans(paths)
    try:
        for index, path in enumerate(paths):
            gather.ingest(path, utc_offset=args.utc_offset, worker=workers.pop(index, None))
        if journal is not None:
            gather.ingest(journal, utc_offset=args.utc_offset, kind="journal-csv")
    finally:
        for worker in workers.values():  # left only if this process raised
            _reap(worker, kill=True)
    report = timeline.build_report(gather.events, gather.warnings)
    gather.events = None  # the merged list holds every event now
    if root is not None:  # each old event is let go as it is rewritten
        report.events = timeline.relativize_events(_drained(report.events), root)
    out = _default_out(args.out)
    if out:
        with open(out, "wb") as handle:
            timeline.emit(report, args.format, handle)
    else:
        timeline.emit(report, args.format, sys.stdout.buffer)
        sys.stdout.buffer.flush()
    _err("%d events, %d warnings" % (len(report.events), len(report.warnings)))
    if args.verbose:
        for warning in report.warnings:
            _err("warning: %s" % warning)
    return gather.tally.exit_code()


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_scan(args) -> int:
    warnings: list[str] = []
    try:
        found = locator.scan_tree(args.root, warnings)
    except locator.RootUnreadable as error:
        _err("error: %s" % error)
        return 2
    for warning in warnings:
        _err("warning: %s" % warning)
    for artifact in found:
        extra = ""
        if artifact.package:
            extra += " package=%s" % artifact.package.text
        if artifact.account:
            extra += " account=%s" % artifact.account
        print("%s\t%s%s" % (artifact.role, artifact.path, extra))
    return 0


def _each_input(names, read, show) -> int:
    """show(name, read(name, warnings)) and then the warnings of each input that was read; the tally's exit code."""
    tally = _Tally()
    for name in names:
        warnings: list[str] = []
        result = tally.read(str(name), lambda: read(name, warnings))
        if result is None:
            continue
        show(name, result)
        for warning in warnings:
            _err("warning: %s" % warning)
    return tally.exit_code()


def _read_database(name, warnings, store: bool, read):
    """read(connection, name, warnings) on the database at name, opened once.  ExtractionError if skype.is_store
    does not call it a Skype message store, when store is true, or a Facebook cache, when it is false."""
    with open_immutable(name, warnings) as connection:
        if skype.is_store(connection) != store:
            kinds = ("a Facebook cache", "a Skype message store")
            raise ExtractionError("%s, not %s" % (kinds[not store], kinds[store]))
        return read(connection, name, warnings)


def _show_counts(name, groups) -> None:
    counts = " ".join("%s=%d" % (label, len(group)) for label, group in groups.items())
    print("%s: %s" % (name, counts or "no recognized tables"))


def _cmd_facebook(args) -> int:
    def read(connection, name, warnings):  # {group label: records}, each group read whole while the file is open
        return {label: list(group) for label, group in facebook.extract_cache(connection, name, warnings).items()}

    return _each_input(args.databases, functools.partial(_read_database, store=False, read=read), _show_counts)


def _cmd_skype(args) -> int:
    path = Path(args.path)
    databases = sorted(path.rglob("main.db")) if path.is_dir() else [path]
    if not databases:
        _err("error: no main.db under %s" % path)
        return 2

    def read(connection, name, warnings):  # {SkypeDataset field: records}
        return vars(skype.group_main_db(skype.extract_main_db(connection, name, warnings)))

    return _each_input(databases, functools.partial(_read_database, store=True, read=read), _show_counts)


def _cmd_registry(args) -> int:
    def show(_, records):
        for record in records:
            if isinstance(record, regexport.InstallRecord):
                print("install\t%s\t%s" % (record.package.text, record.install_time.isoformat_ms()))
            else:
                when = record.last_updated
                print("persisted\t%s\t%s\t%s"
                      % (record.guid, record.file_path, "" if when is None else when.isoformat_ms()))

    return _each_input([Path(args.export)], _registry_records, show)


def _cmd_carve(args) -> int:
    out_dir = _default_out(args.out) or "."
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    index = []

    def carve_file(name, _):
        with open(name, "rb") as handle:
            return carver.carve(handle)

    def show(name, objects):
        for item in objects:
            filename = "%s_%d.bin" % (item.signature_name, item.offset)
            (Path(out_dir) / filename).write_bytes(item.payload)
            index.append({
                "source": name, "file": filename, "signature": item.signature_name,
                "offset": item.offset, "length": len(item.payload), "sha256": item.sha256(),
            })
        print("%s: %d objects" % (name, len(objects)))

    code = _each_input(args.raw_files, carve_file, show)
    index.sort(key=lambda entry: (entry["source"], entry["offset"]))
    (Path(out_dir) / "index.json").write_text(
        json.dumps(index, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return code


def _cmd_pcap(args) -> int:
    catalog = pcap.catalog_index(_load_catalog(args.catalog))

    def show(_, flows):
        for flow in flows:
            label = pcap.label_flow(flow, catalog)
            print("%s\t%s:%d\t%s:%d\t%s\t%d packets\t%d bytes"
                  % (flow.proto, flow.endpoint_a[0], flow.endpoint_a[1],
                     flow.endpoint_b[0], flow.endpoint_b[1], label.label,
                     flow.packets_ab + flow.packets_ba, flow.bytes_ab + flow.bytes_ba))

    return _each_input(args.captures, _capture_flows, show)


def _cmd_timeline(args) -> int:
    names = [name for name in args.inputs if not os.path.isdir(name)]
    return _run_pipeline(args, names, journal=Path(args.ntfs_csv) if args.ntfs_csv else None)


def _cmd_report(args) -> int:
    root = Path(args.root)
    if not root.is_dir():
        _err("error: not a readable directory: %s" % root)
        return 2
    paths = sorted(p for p in root.rglob("*") if p.is_file())
    return _run_pipeline(args, paths, root=root)


def _cmd_forge(args) -> int:
    from . import forge

    out = _default_out(args.out)
    if not out:
        raise _Usage("forge: --out is required (or set %s)" % ENV_OUT)
    try:
        manifest = forge.forge_fixture(args.seed, out)
    except forge.OutputNotEmpty as error:
        _err("error: %s" % error)
        return 2
    print("%s: seed %d, %d expected events"
          % (out, args.seed, len(manifest["expected_timeline"])))
    return 0


def _load_catalog(path):
    """Entries of the catalog file at path, or None for the builtin catalog."""
    if not path:
        return None
    try:
        return pcap.load_catalog(Path(path))
    except (OSError, ValueError) as error:
        raise _Usage("--catalog %s: %s" % (path, error)) from error


# ---------------------------------------------------------------------------
# Parser assembly

_CATALOG_HELP = ("endpoint catalog text replacing the builtin: one 'match label owner [urls]' "
                 "line per entry, owner spaces as underscores, urls comma-separated")


def _add_pipeline_flags(parser) -> None:
    parser.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    parser.add_argument("--out", help="write output here instead of stdout")
    parser.add_argument("--fb-owner", help="owner uid of every cache, for direction calls; "
                        "unset, each cache's is inferred from its sent-tagged messages, "
                        "else from the uid directory it sits in")
    parser.add_argument("--skype-owner", help="account name owning every message store; "
                        "unset, each store's is the first in its Accounts table")
    parser.add_argument("--catalog", help=_CATALOG_HELP)
    parser.add_argument("--utc-offset", type=int, default=0,
                        help="journal CSV zone offset in minutes")
    parser.add_argument("-v", "--verbose", action="store_true")


def _build_parser() -> _Parser:
    parser = _Parser(prog="imartifacts", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", metavar="command")

    sub = commands.add_parser("scan", help="list cataloged artifact paths under a tree")
    sub.add_argument("root")
    sub.set_defaults(func=_cmd_scan)

    sub = commands.add_parser("facebook", help="summarize cache databases")
    sub.add_argument("databases", nargs="+")
    sub.set_defaults(func=_cmd_facebook)

    sub = commands.add_parser("skype", help="summarize a message store or state dir")
    sub.add_argument("path")
    sub.set_defaults(func=_cmd_skype)

    sub = commands.add_parser("registry", help="decode install times and persisted items")
    sub.add_argument("export")
    sub.set_defaults(func=_cmd_registry)

    sub = commands.add_parser("carve", help="recover signed documents from raw bytes")
    sub.add_argument("raw_files", nargs="+")
    sub.add_argument("--out", help="directory for carved payloads and index.json")
    sub.set_defaults(func=_cmd_carve)

    sub = commands.add_parser("pcap", help="label capture flows")
    sub.add_argument("captures", nargs="+")
    sub.add_argument("--catalog", help=_CATALOG_HELP)
    sub.set_defaults(func=_cmd_pcap)

    sub = commands.add_parser("timeline", help="extract, merge and emit events")
    sub.add_argument("inputs", nargs="+")
    sub.add_argument("--ntfs-csv", help="filesystem journal CSV to fold in")
    _add_pipeline_flags(sub)
    sub.set_defaults(func=_cmd_timeline)

    sub = commands.add_parser("report", help="full pipeline over an evidence root")
    sub.add_argument("root")
    _add_pipeline_flags(sub)
    sub.set_defaults(func=_cmd_report)

    sub = commands.add_parser("forge", help="write a synthetic evidence tree")
    sub.add_argument("--seed", type=int, required=True)
    sub.add_argument("--out")
    sub.set_defaults(func=_cmd_forge)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            return 1
        return args.func(args)
    except _Usage as error:
        _err(str(error))
        return 1


if __name__ == "__main__":
    sys.exit(main())
