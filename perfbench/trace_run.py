"""Run the imartifacts command line in-process with its layers timed.

Usage: python3 perfbench/trace_run.py STATS.json CLI-ARGS...

Every function listed in LAYERS is wrapped from the outside, so no file of
the package changes.  Each binding of the original function is replaced:
module attributes, names pulled in with ``from ... import`` and functions
held in module-level tuples such as ``cli._FACEBOOK_EXTRACTORS``.  The
wrapped ``cli.main`` then runs with the given arguments, and per-layer
totals are written to STATS.json:

* ``calls``, ``s`` (inclusive seconds) and ``self_s`` (seconds not spent in
  another wrapped layer) for every layer;
* for stage layers also ``items`` (length of the results) and
  ``maxrss_mib`` (peak resident size when a call returned).

Per-row and per-flow helpers keep only the three totals, which keeps the
tracing cost low.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import pkgutil
import resource
import sys
import time
from pathlib import Path

STAGE, SUM = "stage", "sum"  # stage layers; per-row and per-flow helpers

# (module under imartifacts, function, mode).  Layer names drop the
# leading underscore of a private package: ``_scan.find_multi`` is
# reported as ``scan.find_multi``.
LAYERS = (
    ("cli", "main", STAGE),
    ("skype", "extract_main_db", STAGE),
    ("skype", "parse_shared_xml", STAGE),
    ("skype", "parse_config_xml", STAGE),
    ("skype", "parse_body_xml", SUM),
    ("facebook", "extract_analytics", STAGE),
    ("facebook", "extract_friends", STAGE),
    ("facebook", "extract_messages", STAGE),
    ("facebook", "extract_users", STAGE),
    ("facebook", "extract_notifications", STAGE),
    ("facebook", "extract_chat_json", STAGE),
    ("facebook", "infer_owner_uid", STAGE),
    ("carver", "scan_stream", STAGE),
    ("_scan", "find_multi", STAGE),
    ("sqliteio", "open_immutable", SUM),
    ("sqliteio", "table_names", SUM),
    ("sqliteio", "row_value", SUM),
    ("model", "ts_from_iso_text", SUM),
    ("locator", "parse_package_id", SUM),
    ("locator", "read_zone_identifier", STAGE),
    ("pcap", "read_pcap", STAGE),
    ("pcap", "assemble_flows", STAGE),
    ("pcap", "extract_sni", SUM),
    ("pcap", "label_flow", SUM),
    ("pcap", "builtin_catalog", SUM),
    ("regexport", "parse_reg_export", STAGE),
    ("regexport", "find_install_time", SUM),
    ("regexport", "find_persisted_items", STAGE),
    ("timeline", "ingest_ntfs_csv", STAGE),
    ("timeline", "parse_ntfs_csv", STAGE),
    ("timeline", "normalize", STAGE),
    ("timeline", "merge_sort", STAGE),
    ("timeline", "build_report", STAGE),
    ("timeline", "emit", STAGE),
    ("forge", "relativize_events", STAGE),
)


def layer_name(module: str, function: str) -> str:
    return "%s.%s" % (module.lstrip("_"), function)


def _maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _count(result) -> int:
    """Items a stage returned: its length, or the summed list lengths of a dataclass."""
    try:
        return len(result)
    except TypeError:
        pass
    if dataclasses.is_dataclass(result):
        return sum(len(value) for value in vars(result).values() if isinstance(value, list))
    return 0


class Tracer:
    """Inclusive and self time per layer; child time is charged to the caller."""

    def __init__(self):
        self.stats: dict[str, dict] = {}
        self._child_time = [0.0]  # one accumulator per open call; [0] is outside any layer

    def wrap(self, name: str, function, mode: str):
        stat = self.stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        child_time = self._child_time
        clock = time.perf_counter

        if mode == SUM:
            @functools.wraps(function)
            def summed(*args, **kwargs):
                child_time.append(0.0)
                start = clock()
                try:
                    return function(*args, **kwargs)
                finally:
                    took = clock() - start
                    inner = child_time.pop()
                    child_time[-1] += took
                    stat["calls"] += 1
                    stat["s"] += took
                    stat["self_s"] += took - inner
            return summed

        stat.update(items=0, maxrss_mib=0.0)

        @functools.wraps(function)
        def staged(*args, **kwargs):
            child_time.append(0.0)
            start = clock()
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                took = clock() - start
                inner = child_time.pop()
                child_time[-1] += took
                stat["calls"] += 1
                stat["s"] += took
                stat["self_s"] += took - inner
                stat["items"] += _count(result)
                stat["maxrss_mib"] = max(stat["maxrss_mib"], _maxrss_mib())
        return staged


def _import_package():
    import imartifacts

    modules = [imartifacts]
    for info in pkgutil.walk_packages(imartifacts.__path__, "imartifacts."):
        try:
            modules.append(importlib.import_module(info.name))
        except ImportError:  # the optional compiled kernel may be absent
            continue
    return modules


def _rebind(value, replacements):
    """value with every wrapped function swapped, looking inside tuples."""
    if callable(value):
        for original, wrapper in replacements:
            if value is original:
                return wrapper
        return value
    if isinstance(value, tuple):
        rebuilt = tuple(_rebind(item, replacements) for item in value)
        if any(new is not old for new, old in zip(rebuilt, value)):
            return rebuilt
    return value


def install(tracer: Tracer) -> list[str]:
    """Wrap every listed layer in every binding; return the names not found."""
    modules = _import_package()
    missing = []
    replacements = []
    for module, function, mode in LAYERS:
        name = layer_name(module, function)
        original = getattr(sys.modules.get("imartifacts." + module), function, None)
        if original is None:
            missing.append(name)
            continue
        replacements.append((original, tracer.wrap(name, original, mode)))
    for module in modules:
        for attr, value in list(vars(module).items()):
            new = _rebind(value, replacements)
            if new is not value:
                setattr(module, attr, new)
    return missing


def main(argv: list[str]) -> int:
    stats_path, cli_args = Path(argv[0]), argv[1:]
    tracer = Tracer()
    missing = install(tracer)
    from imartifacts import cli

    rc = cli.main(cli_args)
    stats_path.write_text(json.dumps({"rc": rc, "missing": missing, "layers": tracer.stats}),
                          encoding="utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
