"""Command line front end.

One subcommand per extraction surface plus `timeline`/`report` to merge
everything into a single event stream and `forge` to synthesize test
evidence.  Diagnostics go to stderr, data to stdout or files.  Exit codes:
0 success, 1 usage error, 2 nothing usable, 3 partial success.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
from pathlib import Path

from . import carver, facebook, locator, pcap, regexport, skype, timeline
from .model import ExtractionError
from .sqliteio import SQLITE_MAGIC, open_immutable, table_names

ENV_OUT = "IMARTIFACTS_OUT"
SCAN_WORKER_MIN_BYTES = 64 << 20  # raw inputs this large may be scanned in a forked worker

_PCAP_MAGICS = tuple(magic.to_bytes(4, order)
                     for magic in (pcap.MAGIC_US, pcap.MAGIC_NS) for order in ("big", "little"))
_SKYPE_TABLES = {"accounts", "contacts", "transfers", "calls", "callmembers", "videomessages"}


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
    name = path.name
    if name.endswith(locator._SIDECAR_SUFFIXES):
        return "sidecar"
    try:
        with path.open("rb") as handle:
            head = handle.read(4096)
    except OSError:
        raise OSError("cannot read %s" % path) from None
    if head.startswith(SQLITE_MAGIC):
        return "sqlite"
    if head[:4] in _PCAP_MAGICS:
        return "pcap"
    if head.startswith(b"\xff\xfe") or head.lstrip().startswith((b"Windows Registry", b"REGEDIT4")):
        text = head.decode("utf-16-le" if head.startswith(b"\xff\xfe") else "latin-1",
                           errors="replace").lstrip("﻿ \r\n")
        if text.startswith(("Windows Registry", "REGEDIT4")):
            return "registry"
    if head.lstrip().startswith(b"<?xml"):
        return "xml"
    if name.lower().endswith(".json"):
        return "json"
    if name.lower().endswith(".csv"):
        try:
            first = head.decode("utf-8-sig", errors="strict").splitlines()[0].casefold()
        except (UnicodeDecodeError, IndexError):
            return "raw"
        if "lsn" in first and "event" in first:
            return "journal-csv"
    return "raw"


def _table_names(path: Path) -> set[str]:
    with open_immutable(path) as connection:
        return {n.casefold() for n in table_names(connection)}


_FACEBOOK_EXTRACTORS = (
    ("analytics_logs", "analytics", facebook.extract_analytics),
    ("friends", "friends", facebook.extract_friends),
    ("messages", "messages", facebook.extract_messages),
    ("users", "users", facebook.extract_users),
    ("notifications", "notifications", facebook.extract_notifications),
)


def _extract_facebook_db(path: Path, warnings, present: set[str]) -> dict[str, list]:
    """Run the extractor of every cache table in present, the casefolded table names."""
    out = {}
    for table, label, extractor in _FACEBOOK_EXTRACTORS:
        if table in present:
            out[label] = extractor(path, warnings)
    return out


# ---------------------------------------------------------------------------
# The gather pipeline shared by `timeline` and `report`


class _Gather:
    def __init__(self, catalog):
        self.catalog = pcap.catalog_index(catalog)
        self.records: list = []  # extracted records and the events of captures and journals
        self.warnings: list[str] = []
        self.tally = _Tally()

    def ingest(self, path: Path, utc_offset: int = 0, kind: str | None = None, worker=None) -> None:
        """Extract one input, sniffing its kind unless kind names it.

        With a worker from _start_scans, the input's fragments are that worker's result.
        """
        self.records += self.tally.read(str(path), lambda: self._extract(path, utc_offset, kind, worker)) or []

    def _extract(self, path: Path, utc_offset: int, kind: str | None, worker) -> list | None:
        """The records or events of one input, or None if no extractor reads it."""
        if worker is not None:
            return _scan_result(worker, path)
        label = str(path)
        kind = kind or _sniff(path)
        if kind == "sqlite":
            names = _table_names(path)
            if names & _SKYPE_TABLES:
                groups = vars(skype.extract_main_db(path, self.warnings)).values()
            else:
                groups = _extract_facebook_db(path, self.warnings, names).values()
            return [record for group in groups for record in group]
        if kind == "pcap":
            flows = pcap.assemble_flows(pcap.read_pcap(path).packets)
            return timeline.normalize(flows, capture_path=label, catalog=self.catalog)
        if kind == "registry":
            return _registry_records(path, self.warnings)
        if kind == "journal-csv":
            return timeline.ingest_ntfs_csv(
                path, self.warnings, utc_offset_minutes=utc_offset, evidence_path=label)
        if kind == "xml":
            body = path.read_bytes()
            if b"</Lib>" in body:
                skype.parse_shared_xml(body, self.warnings)
                return []
            if b"</UI>" in body:
                skype.parse_config_xml(body, self.warnings)
                return []
        if kind in ("json", "xml"):
            self.warnings.append("no extractor for %s, skipped" % label)
            return None
        if kind == "sidecar":
            locator.read_zone_identifier(path.read_bytes(), sidecar_path=label)
            return []
        return _scan_raw(path)

    def merged(self, *, fb_owner=None, skype_owner=None) -> timeline.Report:
        if fb_owner is None:
            fb_owner = facebook.infer_owner_uid(
                [r for r in self.records if isinstance(r, facebook.FbMessage)])
        if skype_owner is None:
            accounts = [r for r in self.records if isinstance(r, skype.SkypeAccount)]
            skype_owner = accounts[0].skypename if accounts else None
        events = timeline.normalize(
            self.records, fb_owner_uid=fb_owner, skype_owner=skype_owner,
            catalog=self.catalog, warnings=self.warnings)
        return timeline.build_report(events, self.warnings)


def _registry_records(path: Path, warnings) -> list:
    label = str(path)
    export = regexport.parse_reg_export(path.read_bytes())
    return (regexport.find_install_records(export, evidence_path=label)
            + regexport.find_persisted_items(export, warnings, evidence_path=label))


def _scan_raw(path: Path) -> list:
    with path.open("rb") as handle:
        return facebook.extract_chat_json(handle, evidence_path=str(path))


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
        except OSError:
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

    The child writes the pickle of (True, fragments) or (False, error text)
    and ends with os._exit, so it never returns into the caller's code.
    others are the workers already started, whose read ends it closes.
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
                result = (True, _scan_raw(path))
            except Exception as error:
                result = (False, str(error))
            data = memoryview(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
            while data:
                data = data[os.write(write_end, data):]
            os.close(write_end)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, read_end


def _scan_result(worker: tuple[int, int], path: Path) -> list:
    """The fragments the worker scanning path sent; ExtractionError if it sent an error or nothing."""
    import pickle

    chunks = []
    try:
        while chunk := os.read(worker[1], 1 << 20):
            chunks.append(chunk)
    except BaseException:
        _reap(worker, kill=True)
        raise
    status = _reap(worker)
    if not chunks or status != 0:
        raise ExtractionError("scan worker for %s ended without a result (status %d)" % (path, status))
    ok, value = pickle.loads(b"".join(chunks))
    if not ok:
        raise ExtractionError(value)
    return value


def _reap(worker: tuple[int, int], kill: bool = False) -> int:
    """Close the worker's read end and wait for it to end, killing it first if kill; its exit code."""
    pid, read_end = worker
    os.close(read_end)
    if kill:
        import signal

        os.kill(pid, signal.SIGKILL)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def _run_pipeline(args, paths, journal=None, root=None) -> int:
    """Gather paths, then the journal CSV if given, merge and emit the timeline.

    With root, evidence paths are rewritten relative to it.  The largest raw
    inputs are scanned in forked workers (_start_scans) while this process
    reads the others; each worker's result is taken at its input's turn.
    """
    gather = _Gather(_load_catalog(args.catalog))
    workers = _start_scans(paths)
    try:
        for index, path in enumerate(paths):
            gather.ingest(path, utc_offset=args.utc_offset, worker=workers.pop(index, None))
        if journal is not None:
            gather.ingest(journal, utc_offset=args.utc_offset, kind="journal-csv")
    finally:
        for worker in workers.values():  # left only if this process raised
            _reap(worker, kill=True)
    report = gather.merged(fb_owner=args.fb_owner, skype_owner=args.skype_owner)
    if root is not None:
        from .forge import relativize_events  # the forge and its sample data load only here

        report.events = relativize_events(report.events, root)
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


def _cmd_facebook(args) -> int:
    tally = _Tally()
    for name in args.databases:
        path = Path(name)
        warnings: list[str] = []
        groups = tally.read(name, lambda: _extract_facebook_db(path, warnings, _table_names(path)))
        if groups is None:
            continue
        counts = " ".join("%s=%d" % (label, len(rows)) for label, rows in groups.items())
        print("%s: %s" % (name, counts or "no recognized tables"))
        for warning in warnings:
            _err("warning: %s" % warning)
    return tally.exit_code()


def _cmd_skype(args) -> int:
    path = Path(args.path)
    if path.is_dir():
        databases = sorted(path.rglob("main.db"))
        if not databases:
            _err("error: no main.db under %s" % path)
            return 2
    else:
        databases = [path]
    tally = _Tally()
    for database in databases:
        warnings: list[str] = []
        dataset = tally.read(str(database), lambda: skype.extract_main_db(database, warnings))
        if dataset is None:
            continue
        counts = " ".join("%s=%d" % (name, len(group)) for name, group in vars(dataset).items())
        print("%s: %s" % (database, counts))
        for warning in warnings:
            _err("warning: %s" % warning)
    return tally.exit_code()


def _cmd_registry(args) -> int:
    path = Path(args.export)
    warnings: list[str] = []
    records = _Tally().read(str(path), lambda: _registry_records(path, warnings))
    if records is None:
        return 2
    for record in records:
        if isinstance(record, regexport.InstallRecord):
            print("install\t%s\t%s" % (record.package.text, record.install_time.isoformat_ms()))
        else:
            print("persisted\t%s\t%s\t%s"
                  % (record.guid, record.file_path, record.last_updated.isoformat_ms()))
    for warning in warnings:
        _err("warning: %s" % warning)
    return 0


def _cmd_carve(args) -> int:
    out_dir = _default_out(args.out) or "."
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    tally = _Tally()
    index = []

    def carve_file(name):
        with open(name, "rb") as handle:
            return carver.carve(handle)

    for name in args.raw_files:
        objects = tally.read(name, lambda: carve_file(name))
        if objects is None:
            continue
        for item in objects:
            filename = "%s_%d.bin" % (item.signature_name, item.offset)
            (Path(out_dir) / filename).write_bytes(item.payload)
            index.append({
                "source": name, "file": filename, "signature": item.signature_name,
                "offset": item.offset, "length": len(item.payload), "sha256": item.sha256(),
            })
        print("%s: %d objects" % (name, len(objects)))
    index.sort(key=lambda entry: (entry["source"], entry["offset"]))
    (Path(out_dir) / "index.json").write_text(
        json.dumps(index, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return tally.exit_code()


def _cmd_pcap(args) -> int:
    catalog = pcap.catalog_index(_load_catalog(args.catalog))
    tally = _Tally()
    for name in args.captures:
        flows = tally.read(name, lambda: pcap.assemble_flows(pcap.read_pcap(name).packets))
        if flows is None:
            continue
        for flow in flows:
            label = pcap.label_flow(flow, catalog)
            print("%s\t%s:%d\t%s:%d\t%s\t%d packets\t%d bytes"
                  % (flow.proto, flow.endpoint_a[0], flow.endpoint_a[1],
                     flow.endpoint_b[0], flow.endpoint_b[1], label.label,
                     flow.packets_ab + flow.packets_ba, flow.bytes_ab + flow.bytes_ba))
    return tally.exit_code()


def _cmd_timeline(args) -> int:
    # The journal CSV is ingested last, even if it also appears as an input.
    journal = Path(args.ntfs_csv) if args.ntfs_csv else None
    paths = [p for p in map(Path, args.inputs) if not p.is_dir() and p != journal]
    return _run_pipeline(args, paths, journal=journal)


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
    parser.add_argument("--fb-owner", help="cache owner uid for direction calls")
    parser.add_argument("--skype-owner", help="account name owning the message store")
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
