"""Read-only access to evidence SQLite databases.

Databases are opened immutable so the original file bytes are never
touched: no journal recovery, no WAL checkpoint, no lock files.  A WAL
sidecar next to the database therefore stays unapplied; callers get a
warning so the report records that state.

``read_table`` is the one place where a table's query, its row order and
the provenance of its records are decided.  Every extractor supplies a
column plan and a per-row function.  The plan is a tuple of column specs,
each a column name or a tuple of alias names.  ``plan_query`` resolves
the specs once per table, against the columns of ``SELECT rowid AS
rowid_, *`` (``SELECT *`` when the table is read without rowid), by the
rule ``row_value`` applies to one row.  Its query selects the resolved
columns only, a NULL for a spec that matches none, and the rowid first
when the table is read with it.  The per-row function gets each row as a
plain tuple in that order and unpacks it.
"""

from __future__ import annotations

import os
import sqlite3
from collections.abc import Iterator
from pathlib import Path

from .model import Channel, ExtractionError, Provenance

__all__ = [
    "DamagedDatabase",
    "MissingTable",
    "NotSqlite",
    "SQLITE_MAGIC",
    "as_int",
    "as_text",
    "open_immutable",
    "plan_query",
    "read_table",
    "row_value",
    "table_names",
    "warn",
]

SQLITE_MAGIC = b"SQLite format 3\x00"


class NotSqlite(ExtractionError):
    """File lacks the SQLite file header."""


class MissingTable(ExtractionError):
    """A required table is absent from the database."""


class DamagedDatabase(ExtractionError):
    """The driver could not read the database: damaged pages, bad text or layout."""


class _ClosingConnection(sqlite3.Connection):
    """Connection whose with-block closes it on exit.

    The stock context manager only commits or rolls back, which would
    leave every evidence database open until garbage collection.  The
    connection is read-only, so there is nothing to commit.  A driver or
    text-decoding error raised in the block leaves it as DamagedDatabase.
    """

    def __exit__(self, exc_type, exc, traceback):
        self.close()
        if isinstance(exc, (sqlite3.DatabaseError, UnicodeDecodeError)):
            raise DamagedDatabase("%s: %s" % (type(exc).__name__, exc)) from exc
        return False


def open_immutable(path: str | Path, warnings: list[str] | None = None) -> sqlite3.Connection:
    """Open a database file read-only and immutable.

    Verifies the file magic first so a bad path fails with NotSqlite
    instead of a confusing driver error.  Appends a warning to warnings
    when a WAL sidecar is present, since immutable mode does not apply it.
    """
    path = os.fspath(path)
    try:
        with open(path, "rb") as handle:
            magic = handle.read(len(SQLITE_MAGIC))
    except OSError as exc:
        raise NotSqlite("cannot read %s: %s" % (path, exc)) from exc
    if magic != SQLITE_MAGIC:
        raise NotSqlite("not a SQLite database: %s" % path)
    if warnings is not None and os.path.exists(path + "-wal"):
        warnings.append("wal-present-not-applied: %s" % path)
    uri = Path(path).absolute().as_uri() + "?mode=ro&immutable=1"  # "#", "?" and "%" percent-encoded
    connection = sqlite3.connect(uri, uri=True, factory=_ClosingConnection)
    connection.row_factory = sqlite3.Row
    return connection


def table_names(connection: sqlite3.Connection) -> dict[str, str]:
    """Map casefolded table names to their stored spelling, taken as text: a damaged schema may hold one as a blob."""
    rows = connection.execute(
        "SELECT CAST(name AS TEXT) AS name FROM sqlite_master WHERE type = 'table' AND name NOTNULL")
    return {row["name"].casefold(): row["name"] for row in rows}


def _column_keys(names) -> dict[str, str]:
    """Map casefolded column names to their stored spelling; the last one wins."""
    return {name.casefold(): name for name in names}


def _resolve(keys: dict[str, str], names) -> str | None:
    """Stored key of the first of names present among keys, or None."""
    for name in names:
        key = keys.get(name.casefold())
        if key is not None:
            return key
    return None


def row_value(row: sqlite3.Row, *names: str, default=None):
    """Fetch the first present column among names, tolerating absence."""
    key = _resolve(_column_keys(row.keys()), names)
    return default if key is None else row[key]


def as_text(value):
    """Column or attribute value as text; undecodable bytes are replaced."""
    if value is None or type(value) is str:
        return value
    if isinstance(value, bytes):
        return value.decode("utf-8", errors="replace")
    return str(value)


def as_int(value):
    """Value as an int, or None when it does not convert."""
    try:
        return int(value)
    except (TypeError, ValueError):
        return None


def warn(warnings: list[str] | None, message: str) -> None:
    """Append message to warnings when the caller collects them."""
    if warnings is not None:
        warnings.append(message)


def _row_key_matches(name: str, key: str) -> bool:
    """Whether sqlite3.Row's lookup by key takes the column name: equal, or both ASCII and equal ignoring case."""
    return name == key or (name.isascii() and key.isascii() and name.lower() == key.lower())


def plan_query(connection, table: str, columns, rowid: bool = True) -> str:
    """The query that reads one value per spec of columns from each row of table.

    Each spec, a name or a tuple of aliases, is resolved as row_value
    resolves it on a row of ``SELECT rowid AS rowid_, *`` (``SELECT *``
    without rowid), and its column is the one that sqlite3.Row reads for
    the resolved key.  A spec that matches no column selects NULL.  With
    rowid, the rowid comes first and rows come in rowid order; without
    it, rows come in table scan order.  NOT INDEXED keeps a covering
    index from changing the scan order.
    """
    source = '"%s" NOT INDEXED' % table
    selected = ["rowid AS rowid_"] if rowid else []
    described = connection.execute("SELECT %s FROM %s LIMIT 0" % (", ".join(selected + ["*"]), source))
    names = [column[0] for column in described.description]
    keys = _column_keys(names)
    for spec in columns:
        key = _resolve(keys, (spec,) if isinstance(spec, str) else spec)
        if key is None:
            selected.append("NULL")
            continue
        index = next(i for i, name in enumerate(names) if _row_key_matches(name, key))
        selected.append("rowid" if rowid and index == 0 else '"%s"' % names[index].replace('"', '""'))
    return "SELECT %s FROM %s%s" % (", ".join(selected), source, " ORDER BY rowid_" if rowid else "")


def read_table(connection, table: str, path, prefix: str, what: str | None, columns, record, warnings,
               rowid: bool = True) -> Iterator:
    """The records of one table, yielded as its rows are read: ``record(values, provenance, warnings)`` per row.

    values is the row's tuple from plan_query(connection, table, columns,
    rowid): the rowid first when rowid is true, then one value per spec of
    columns.  Every record shares one ``Provenance(str(path),
    "<prefix>.<what>", DATABASE)``; with what None, for a pass that keeps
    no record, provenance is None.  Rows for which record returns None are
    skipped.  Nothing is queried before the first record is asked for, so
    the caller keeps connection open until the last one; then the
    connection's cached pages are freed, as a table is read once, or twice
    when a pass over it comes first.
    """
    cursor = connection.cursor()
    cursor.row_factory = None
    rows = cursor.execute(plan_query(connection, table, columns, rowid))
    provenance = None if what is None else Provenance(str(path), "%s.%s" % (prefix, what), Channel.DATABASE)
    for values in rows:
        item = record(values, provenance, warnings)
        if item is not None:
            yield item
    connection.execute("PRAGMA shrink_memory")
