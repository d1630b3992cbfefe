"""sqliteio: column_reader against the per-row lookup it replaces, table reads, and driver errors."""

import dataclasses
import sqlite3

import pytest

from imartifacts import facebook, forge, skype, sqliteio
from imartifacts.model import Channel
from imartifacts.sqliteio import column_reader, row_value


def reference_row_value(row, *names, default=None):
    """The per-row lookup the extractors used before column_reader, verbatim."""
    keys = {key.casefold(): key for key in row.keys()}
    for name in names:
        key = keys.get(name.casefold())
        if key is not None:
            return row[key]
    return default


FB_TABLES = (
    ("analytics", facebook.extract_analytics),
    ("friends", facebook.extract_friends),
    ("messages", facebook.extract_messages),
    ("users", facebook.extract_users),
    ("notifications", facebook.extract_notifications),
)


def forged_databases(root):
    return sorted(p for p in root.rglob("*") if p.suffix in (".db", ".sqlite"))


def same(got, want):
    return got == want and type(got) is type(want)


@pytest.fixture(scope="module", params=[0, 7, 13])
def forged_root(request, tmp_path_factory):
    root = tmp_path_factory.mktemp("sqliteio") / "evidence"
    forge.forge_fixture(request.param, root)
    return root


def test_extractor_lookups_match_reference(forged_root, monkeypatch):
    mismatches, aliases = [], set()

    def checking_reader(cursor):
        column = column_reader(cursor)

        def checked(row, *names, default=None):
            got = column(row, *names, default=default)
            want = reference_row_value(row, *names, default=default)
            aliases.add(names)
            if not same(got, want):
                mismatches.append((names, got, want))
            return got

        return checked

    monkeypatch.setattr(sqliteio, "column_reader", checking_reader)
    databases = forged_databases(forged_root)
    assert databases
    for path in databases:
        if path.name == "main.db":
            skype.extract_main_db(path, [])
            continue
        for _, extract in FB_TABLES:
            try:
                extract(path, [])
            except sqliteio.MissingTable:
                pass
    assert len(aliases) > 50
    assert mismatches == []

    # Every alias tuple the extractors use, on every row of every table.
    for path in databases:
        with sqliteio.open_immutable(path) as connection:
            for table in sqliteio.table_names(connection).values():
                for query in ('SELECT * FROM "%s"', 'SELECT rowid AS rowid_, * FROM "%s" ORDER BY rowid_'):
                    rows = connection.execute(query % table)
                    column = column_reader(rows)
                    for row in rows:
                        for names in aliases:
                            assert same(column(row, *names), reference_row_value(row, *names))


def rows_of(sql_setup, query):
    connection = sqlite3.connect(":memory:")
    connection.row_factory = sqlite3.Row
    try:
        connection.executescript(sql_setup)
        cursor = connection.execute(query)
        column = column_reader(cursor)
        return column, cursor.fetchall()
    finally:
        connection.close()


LOOKUPS = [
    ("rowid_",), ("ROWID_",), ("rowid",), ("a",), ("A", "b"),
    ("strasse",), ("STRASSE",), ("straße",), ("Straße",), ("STRASSE", "straße"), ("straße", "STRASSE"),
    ("mixedcase",), ("MIXEDCASE",), ("MixedCase",),
    ("missing",), ("missing", "also_missing"), (), ("missing", "a"),
]

LAYOUTS = [
    # A table with its own rowid_ column, read under the rowid AS rowid_ alias.
    ("CREATE TABLE t (rowid_ TEXT, a INTEGER); INSERT INTO t VALUES ('own', 1), ('own2', 2);",
     'SELECT rowid AS rowid_, * FROM t ORDER BY rowid_'),
    ("CREATE TABLE t (ROWID_ TEXT, a INTEGER); INSERT INTO t VALUES ('own', 1);",
     'SELECT rowid AS rowid_, * FROM t ORDER BY rowid_'),
    # Columns whose names casefold alike, in both orders.
    ('CREATE TABLE t ("STRASSE" TEXT, "straße" TEXT); INSERT INTO t VALUES (\'upper\', \'eszett\');',
     'SELECT * FROM t'),
    ('CREATE TABLE t ("straße" TEXT, "STRASSE" TEXT); INSERT INTO t VALUES (\'eszett\', \'upper\');',
     'SELECT * FROM t'),
    # Mixed case, and result columns that differ only in ASCII case.
    ("CREATE TABLE t (MixedCase TEXT, a BLOB); INSERT INTO t VALUES ('m', x'00ff');",
     "SELECT rowid AS rowid_, * FROM t"),
    ("CREATE TABLE t (a INTEGER, b INTEGER); INSERT INTO t VALUES (1, 2), (3, NULL);",
     "SELECT a AS mixedcase, b AS MIXEDCASE, a AS A FROM t"),
    # No rows at all: resolving needs only the description.
    ("CREATE TABLE t (a INTEGER);", "SELECT rowid AS rowid_, * FROM t"),
]


@pytest.mark.parametrize("setup, query", LAYOUTS)
def test_column_layouts_match_reference(setup, query):
    column, rows = rows_of(setup, query)
    for row in rows:
        for names in LOOKUPS:
            for default in (None, "fallback"):
                want = reference_row_value(row, *names, default=default)
                assert same(column(row, *names, default=default), want), (names, default)
                assert same(row_value(row, *names, default=default), want), (names, default)


def test_own_rowid_column_yields_the_alias():
    column, rows = rows_of(LAYOUTS[0][0], LAYOUTS[0][1])
    assert [column(row, "rowid_") for row in rows] == [1, 2]


def test_missing_names_give_the_default():
    column, (row,) = rows_of("CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (5);", "SELECT * FROM t")
    assert column(row, "nope") is None
    assert column(row, "nope", default=0) == 0
    assert column(row, "nope", "A") == 5


@pytest.mark.parametrize("module, extract", [(facebook, facebook.extract_messages),
                                             (skype, skype.extract_main_db)])
def test_garbage_pages_raise_damaged_database(tmp_path, module, extract, monkeypatch):
    path = tmp_path / "garbage.db"
    path.write_bytes(sqliteio.SQLITE_MAGIC + bytes(range(256)) * 32)
    opened = []

    def recording_open(*args, **kwargs):
        opened.append(sqliteio.open_immutable(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(module, "open_immutable", recording_open)
    with pytest.raises(sqliteio.DamagedDatabase) as caught:
        extract(path, [])
    assert isinstance(caught.value.__cause__, sqlite3.DatabaseError)
    (connection,) = opened
    with pytest.raises(sqlite3.ProgrammingError):  # closed
        connection.execute("SELECT 1")


def test_wal_warning_once_per_warnings_list(tmp_path):
    path = tmp_path / "store.db"
    connection = sqlite3.connect(path)
    connection.execute("CREATE TABLE t (a)")
    connection.close()
    path.with_name("store.db-wal").write_bytes(b"")
    warnings = []
    for _ in range(3):
        sqliteio.open_immutable(path, warnings).close()
    assert warnings == ["wal-present-not-applied: %s" % path]


def test_undecodable_column_name_raises_damaged_database(tmp_path):
    path = tmp_path / "Messages.sqlite"
    connection = sqlite3.connect(path)
    connection.execute("CREATE TABLE messages (msg_id TEXT, zzzz TEXT)")
    connection.execute("INSERT INTO messages VALUES ('m1', 'hi')")
    connection.commit()
    connection.close()
    data = path.read_bytes()
    assert data.count(b"zzzz") == 1  # the column name, in the stored CREATE statement
    path.write_bytes(data.replace(b"zzzz", b"zz\xff\xfe"))
    with pytest.raises(sqliteio.DamagedDatabase) as caught:
        facebook.extract_messages(path, [])
    assert isinstance(caught.value.__cause__, UnicodeDecodeError)


def test_each_table_shares_one_database_provenance(tmp_path):
    root = tmp_path / "evidence"
    forge.forge_fixture(7, root)
    tables = set()

    def check(records, path, extractor):
        assert records, extractor
        provenance = records[0].provenance
        assert provenance.extractor == extractor
        assert provenance.channel is Channel.DATABASE
        assert provenance.evidence_path == str(path)
        assert all(record.provenance is provenance for record in records)
        tables.add(extractor)

    for path in forged_databases(root):
        if path.name == "main.db":
            dataset = skype.extract_main_db(path, [])
            for field in dataclasses.fields(dataset):
                check(getattr(dataset, field.name), path, "skype.%s" % field.name)
            continue
        for what, extract in FB_TABLES:
            try:
                records = extract(path, [])
            except sqliteio.MissingTable:
                continue
            check(records, path, "facebook.%s" % what)
    assert len(tables) == 12


def make_main_db(path, script):
    connection = sqlite3.connect(path)
    try:
        connection.executescript(script)
    finally:
        connection.close()
    return path


def test_without_rowid_accounts_and_contacts_are_read_in_scan_order(tmp_path):
    path = make_main_db(tmp_path / "main.db", """
        CREATE TABLE Accounts (skypename TEXT PRIMARY KEY, fullname TEXT) WITHOUT ROWID;
        INSERT INTO Accounts VALUES ('zed', 'Zed'), ('amy', 'Amy');
        CREATE TABLE Contacts (skypename TEXT PRIMARY KEY, displayname TEXT) WITHOUT ROWID;
        INSERT INTO Contacts VALUES ('yan', 'Yan'), ('bob', 'Bob'), ('max', 'Max');
    """)
    dataset = skype.extract_main_db(path, [])
    assert [account.skypename for account in dataset.accounts] == ["amy", "zed"]
    assert [contact.skypename for contact in dataset.contacts] == ["bob", "max", "yan"]
    assert [contact.displayname for contact in dataset.contacts] == ["Bob", "Max", "Yan"]


def test_without_rowid_messages_raise_damaged_database(tmp_path):
    path = make_main_db(tmp_path / "main.db", """
        CREATE TABLE Messages (id INTEGER PRIMARY KEY, timestamp INTEGER, type INTEGER) WITHOUT ROWID;
        INSERT INTO Messages VALUES (1, 1420000000, 61);
    """)
    with pytest.raises(sqliteio.DamagedDatabase, match="rowid") as caught:
        skype.extract_main_db(path, [])
    assert isinstance(caught.value.__cause__, sqlite3.OperationalError)
