"""Load an emitted report in a fresh process, as a reader of the report would.

Usage: python3 perfbench/reload.py jsonl|csv REPORT

JSONL goes through ``timeline.parse_jsonl``, the package's documented way
to load a report.  The package has no CSV reader, so CSV goes through the
standard ``csv`` module.  Prints the event count and the parse time as JSON.
"""

import csv
import io
import json
import sys
import time

from imartifacts import timeline


def main(fmt: str, path: str) -> None:
    with open(path, "rb") as handle:
        data = handle.read()
    start = time.perf_counter()
    if fmt == "jsonl":
        events = len(timeline.parse_jsonl(data))
    else:
        events = sum(1 for _ in csv.DictReader(io.StringIO(data.decode("utf-8"), newline="")))
    print(json.dumps({"events": events, "parse_s": time.perf_counter() - start}))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
