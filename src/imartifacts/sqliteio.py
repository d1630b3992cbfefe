"""Read-only access to evidence SQLite databases.

Databases are opened immutable so the original file bytes are never
touched: no journal recovery, no WAL checkpoint, no lock files.  A WAL
sidecar next to the database therefore stays unapplied; callers get a
warning so the report records that state.

``read_table`` is the one place where a table's query, its row order and
the provenance of its records are decided; every extractor supplies only
a per-row function.
"""

from __future__ import annotations

import os
import sqlite3
from pathlib import Path

from .model import Channel, ExtractionError, Provenance

__all__ = [
    "DamagedDatabase",
    "MissingTable",
    "NotSqlite",
    "SQLITE_MAGIC",
    "as_int",
    "as_text",
    "column_reader",
    "open_immutable",
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
    instead of a confusing driver error.  Appends a warning, once per
    warnings list, when a WAL sidecar is present, since immutable mode
    does not apply it.
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
        message = "wal-present-not-applied: %s" % path
        if message not in warnings:  # once per database, however many extractors open it
            warnings.append(message)
    uri = "file:%s?mode=ro&immutable=1" % Path(path).as_posix()
    connection = sqlite3.connect(uri, uri=True, factory=_ClosingConnection)
    connection.row_factory = sqlite3.Row
    return connection


def table_names(connection: sqlite3.Connection) -> dict[str, str]:
    """Map casefolded table names to their stored spelling."""
    rows = connection.execute("SELECT name FROM sqlite_master WHERE type = 'table'")
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


_UNRESOLVED = object()


def column_reader(cursor: sqlite3.Cursor):
    """Reader of the rows of one cursor: ``column(row, *names, default=None)``.

    Gives what row_value gives for the same row and names, but each tuple
    of names is resolved to a stored column key once per cursor, from
    ``cursor.description``; a row then costs one ``row[key]``.
    """
    keys = _column_keys(column[0] for column in cursor.description)
    resolved: dict[tuple[str, ...], str | None] = {}

    def column(row: sqlite3.Row, *names: str, default=None):
        key = resolved.get(names, _UNRESOLVED)
        if key is _UNRESOLVED:
            key = resolved[names] = _resolve(keys, names)
        return default if key is None else row[key]

    return column


def row_value(row: sqlite3.Row, *names: str, default=None):
    """Fetch the first present column among names, tolerating absence."""
    key = _resolve(_column_keys(row.keys()), names)
    return default if key is None else row[key]


def as_text(value):
    """Column or attribute value as text; undecodable bytes are replaced."""
    if value is None:
        return None
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


def read_table(connection, table: str, path, prefix: str, what: str, record, warnings, rowid: bool = True) -> list:
    """The records of one table: ``record(row, column, provenance, warnings)`` per row.

    Rows come in rowid order, read as ``rowid_`` beside the table's own
    columns, or in scan order with the table's columns alone when rowid is
    false.  Every record shares one ``Provenance(str(path), "<prefix>.<what>",
    DATABASE)``; rows for which record returns None are skipped.
    """
    if rowid:
        rows = connection.execute('SELECT rowid AS rowid_, * FROM "%s" ORDER BY rowid_' % table)
    else:
        rows = connection.execute('SELECT * FROM "%s"' % table)
    column = column_reader(rows)
    provenance = Provenance(str(path), "%s.%s" % (prefix, what), Channel.DATABASE)
    out = []
    for row in rows:
        item = record(row, column, provenance, warnings)
        if item is not None:
            out.append(item)
    return out
