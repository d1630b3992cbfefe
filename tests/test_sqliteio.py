"""sqliteio: the column plan against the per-row lookup it replaces, table reads, and driver errors."""

import dataclasses
import random
import sqlite3
from collections.abc import Iterator

import pytest
from hypothesis import given, settings, strategies as st

from imartifacts import cli, facebook, forge, skype, sqliteio
from imartifacts.model import Channel
from imartifacts.sqliteio import plan_query, row_value
from sqlite_file import SqliteFile


def reference_row_value(row, *names, default=None):
    """The per-row lookup the extractors used before the column plan, verbatim."""
    keys = {key.casefold(): key for key in row.keys()}
    for name in names:
        key = keys.get(name.casefold())
        if key is not None:
            return row[key]
    return default


REFERENCE_QUERIES = {True: 'SELECT rowid AS rowid_, * FROM "%s" ORDER BY rowid_', False: 'SELECT * FROM "%s"'}

FB_TABLES = (
    ("analytics", facebook.extract_analytics),
    ("friends", facebook.extract_friends),
    ("messages", facebook.extract_messages),
    ("users", facebook.extract_users),
    ("notifications", facebook.extract_notifications),
)

READER_PLANS = [columns for _, _, columns, _, _ in skype._TABLE_READERS] + [
    facebook._ANALYTICS_COLUMNS, facebook._FRIEND_COLUMNS, facebook._MESSAGE_COLUMNS,
    facebook._USER_COLUMNS, facebook._NOTIFICATION_COLUMNS,
]


def aliases_of(spec):
    return (spec,) if isinstance(spec, str) else tuple(spec)


READER_SPECS = sorted({aliases_of(spec) for columns in READER_PLANS for spec in columns})


def read(extract, path, warnings=None):
    """extract(connection, path, warnings) on a connection to path opened for the call, a stream of records taken
    whole before it closes."""
    with sqliteio.open_immutable(path, warnings) as connection:
        records = extract(connection, path, warnings)
        return list(records) if isinstance(records, Iterator) else records


def store_dataset(connection, path, warnings=None):
    """The SkypeDataset of the message store open on connection."""
    return skype.group_main_db(skype.extract_main_db(connection, path, warnings))


def forged_databases(root):
    return sorted(p for p in root.rglob("*") if p.suffix in (".db", ".sqlite"))


def same(got, want):
    return got == want and type(got) is type(want)


def plan_mismatches(connection, table, columns, rowid, query=None):
    """(spec, got, want) for every value of the plan's query that differs from the reference lookup.

    The reference reads the same table with REFERENCE_QUERIES[rowid] as sqlite3.Row rows.
    """
    planned = connection.cursor()
    planned.row_factory = None
    planned = planned.execute(query or plan_query(connection, table, columns, rowid)).fetchall()
    reference = connection.cursor()
    reference.row_factory = sqlite3.Row
    reference = reference.execute(REFERENCE_QUERIES[rowid] % table).fetchall()
    assert len(planned) == len(reference)
    mismatches = []
    for values, row in zip(planned, reference):
        if rowid:
            if not same(values[0], row[0]):
                mismatches.append(("rowid", values[0], row[0]))
            values = values[1:]
        assert len(values) == len(columns)
        for spec, got in zip(columns, values):
            want = reference_row_value(row, *aliases_of(spec))
            if not same(got, want):
                mismatches.append((spec, got, want))
    return mismatches


@pytest.fixture(scope="module", params=[0, 7, 13])
def forged_root(request, tmp_path_factory):
    root = tmp_path_factory.mktemp("sqliteio") / "evidence"
    forge.forge_fixture(request.param, root)
    return root


def test_extractor_lookups_match_reference(forged_root, monkeypatch):
    mismatches, aliases = [], set()

    def checking_plan(connection, table, columns, rowid=True):
        query = plan_query(connection, table, columns, rowid)
        aliases.update(aliases_of(spec) for spec in columns)
        mismatches.extend(plan_mismatches(connection, table, columns, rowid, query))
        return query

    monkeypatch.setattr(sqliteio, "plan_query", checking_plan)
    databases = forged_databases(forged_root)
    assert databases
    for path in databases:
        with sqliteio.open_immutable(path) as connection:
            if path.name == "main.db":
                store_dataset(connection, path, [])
                continue
            for _, extract in FB_TABLES:
                try:
                    list(extract(connection, path, []))
                except sqliteio.MissingTable:
                    pass
    assert len(aliases) > 50
    assert mismatches == []

    # Every alias tuple the extractors use, on every row of every table, read both ways.
    every = sorted(aliases)
    for path in databases:
        with sqliteio.open_immutable(path) as connection:
            for table in sqliteio.table_names(connection).values():
                for rowid in (True, False):
                    assert plan_mismatches(connection, table, every, rowid) == []


def memory_db(sql_setup):
    connection = sqlite3.connect(":memory:")
    connection.row_factory = sqlite3.Row
    connection.executescript(sql_setup)
    return connection


def plan_rows(connection, columns, rowid):
    cursor = connection.cursor()
    cursor.row_factory = None
    return cursor.execute(plan_query(connection, "t", columns, rowid)).fetchall()


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
    connection = memory_db(setup)
    try:
        for row in connection.execute(query):
            for names in LOOKUPS:
                for default in (None, "fallback"):
                    want = reference_row_value(row, *names, default=default)
                    assert same(row_value(row, *names, default=default), want), (names, default)
        for rowid in (True, False):
            assert plan_mismatches(connection, "t", LOOKUPS, rowid) == []
    finally:
        connection.close()


def test_own_rowid_column_yields_the_alias():
    connection = memory_db(LAYOUTS[0][0])
    try:
        assert plan_rows(connection, [("rowid_",)], True) == [(1, 1), (2, 2)]
        assert plan_rows(connection, [("rowid_",)], False) == [("own",), ("own2",)]
    finally:
        connection.close()


def test_missing_names_give_the_default():
    connection = memory_db("CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (5);")
    try:
        assert plan_rows(connection, ["nope", ("nope", "A")], False) == [(None, 5)]
        assert plan_rows(connection, ["nope", ("nope", "A")], True) == [(1, None, 5)]
    finally:
        connection.close()


# Column names a generated table may hold besides the readers' aliases: an
# own rowid_, names that casefold alike but differ beyond ASCII case, and
# one with a quote in it.
EXTRA_NAMES = ["rowid_", "STRASSE", "straße", 'na"me']
EXTRA_SPECS = [("rowid_",), ("STRASSE",), ("straße",), ("straße", "STRASSE"), ('na"me',)]
ALL_NAMES = sorted({name for spec in READER_SPECS for name in spec} | set(EXTRA_NAMES))

VALUES = st.one_of(st.none(), st.binary(max_size=6), st.integers(-2**63, 2**63 - 1), st.floats(allow_nan=False),
                   st.text(st.characters(blacklist_categories=("Cs",)), max_size=6))


def twin(name):
    """A name that casefolds like name but differs beyond ASCII case (U+017F for s, U+212A for k), or None."""
    for plain, other in (("s", "\u017f"), ("k", "\u212a")):
        if plain in name:
            return name.replace(plain, other, 1)
    return None


@st.composite
def tables(draw):
    """(specs, CREATE TABLE statement, rows) for a table t whose columns mostly answer the specs."""
    specs = draw(st.lists(st.sampled_from(READER_SPECS) | st.sampled_from(EXTRA_SPECS), min_size=1, max_size=8))
    near = sorted({name for spec in specs for name in spec} | set(EXTRA_NAMES))
    names = []
    for name in draw(st.lists(st.sampled_from(near) | st.sampled_from(ALL_NAMES), min_size=1, max_size=10)):
        names.append(name)
        if twin(name) and draw(st.booleans()):
            names.append(twin(name))
    spelled = []
    for name in draw(st.permutations(names)):
        flips = draw(st.lists(st.booleans(), min_size=len(name), max_size=len(name)))
        spelled.append("".join(c.swapcase() if flip and c.isascii() else c for c, flip in zip(name, flips)))
    unique = list({name.encode("utf-8").lower(): name for name in spelled}.values())  # SQLite folds ASCII only
    types = draw(st.lists(st.sampled_from(["", "INTEGER", "TEXT", "BLOB", "REAL", "NUMERIC"]),
                          min_size=len(unique), max_size=len(unique)))
    rows = draw(st.lists(st.tuples(*[VALUES] * len(unique)), max_size=5))
    columns = ", ".join('"%s" %s' % (name.replace('"', '""'), kind) for name, kind in zip(unique, types))
    return specs, "CREATE TABLE t (%s)" % columns, rows


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(tables())
def test_plan_matches_reference_on_generated_tables(table):
    specs, create, rows = table
    connection = sqlite3.connect(":memory:")
    try:
        connection.execute(create)
        if rows:
            connection.executemany("INSERT INTO t VALUES (%s)" % ", ".join("?" * len(rows[0])), rows)
        for rowid in (True, False):
            assert plan_mismatches(connection, "t", specs, rowid) == []
    finally:
        connection.close()


@pytest.mark.parametrize("extract", [lambda *opened: list(facebook.extract_messages(*opened)), store_dataset],
                         ids=["imartifacts.facebook-extract_messages", "imartifacts.skype-extract_main_db"])
def test_garbage_pages_raise_damaged_database(tmp_path, extract):
    path = tmp_path / "garbage.db"
    path.write_bytes(sqliteio.SQLITE_MAGIC + bytes(range(256)) * 32)
    with pytest.raises(sqliteio.DamagedDatabase) as caught:
        with sqliteio.open_immutable(path, []) as connection:
            extract(connection, path, [])
    assert isinstance(caught.value.__cause__, sqlite3.DatabaseError)
    with pytest.raises(sqlite3.ProgrammingError):  # closed
        connection.execute("SELECT 1")


def test_wal_database_named_twice_gives_one_warning(tmp_path, capfd):
    """A run reads one file once under any name, so a database with a WAL beside it is warned about once."""
    root = tmp_path / "evidence"
    root.mkdir()
    path = root / "Messages.sqlite"
    connection = sqlite3.connect(path)
    connection.execute("CREATE TABLE t (a)")
    connection.close()
    path.with_name("Messages.sqlite-wal").write_bytes(b"")
    link = root / "link.sqlite"
    link.symlink_to(path)
    for argv in (["timeline", str(path), str(root / "." / path.name), str(link)], ["report", str(root)]):
        assert cli.main([*argv, "-v"]) == 0
        warned = [line for line in capfd.readouterr().err.splitlines() if line.startswith("warning: wal-")]
        assert warned == ["warning: wal-present-not-applied: %s" % path]


def test_table_name_stored_as_a_blob_is_read_as_text(tmp_path):
    """A damaged schema row may hold a table's name as a blob; the table is still found and read."""
    path = tmp_path / "Messages.sqlite"
    connection = sqlite3.connect(path)
    connection.execute("CREATE TABLE messages (msg_id TEXT, sender_id TEXT, body TEXT, timestamp INTEGER)")
    connection.execute("INSERT INTO messages VALUES ('m1', '1', 'hi', 1421685822000)")
    connection.commit()
    connection.execute("PRAGMA writable_schema = ON")
    connection.execute("UPDATE sqlite_master SET name = CAST(name AS BLOB)")
    connection.commit()
    connection.close()
    with sqliteio.open_immutable(path) as connection:
        assert sqliteio.table_names(connection) == {"messages": "messages"}
    assert [message.body for message in read(facebook.extract_messages, path, [])] == ["hi"]


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
        read(facebook.extract_messages, path, [])
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
            dataset = read(store_dataset, path, [])
            for field in dataclasses.fields(dataset):
                check(getattr(dataset, field.name), path, "skype.%s" % field.name)
            continue
        for what, extract in FB_TABLES:
            try:
                records = read(extract, path, [])
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
    dataset = read(store_dataset, path, [])
    assert [account.skypename for account in dataset.accounts] == ["amy", "zed"]
    assert [contact.skypename for contact in dataset.contacts] == ["bob", "max", "yan"]
    assert [contact.displayname for contact in dataset.contacts] == ["Bob", "Max", "Yan"]


def test_without_rowid_messages_raise_damaged_database(tmp_path):
    path = make_main_db(tmp_path / "main.db", """
        CREATE TABLE Messages (id INTEGER PRIMARY KEY, timestamp INTEGER, type INTEGER) WITHOUT ROWID;
        INSERT INTO Messages VALUES (1, 1420000000, 61);
    """)
    with pytest.raises(sqliteio.DamagedDatabase, match="rowid") as caught:
        read(store_dataset, path, [])
    assert isinstance(caught.value.__cause__, sqlite3.OperationalError)


def typed(rows) -> list:
    """rows with each value paired with its type, so that 1, 1.0 and True differ."""
    return [tuple((type(value), value) for value in row) for row in rows]


def test_file_format_reader_matches_sqlite3(tmp_path):
    """The reader's rows are sqlite3's, across interior pages, overflow chains and an added column."""
    path = tmp_path / "deep.db"
    rng = random.Random(7)
    with sqlite3.connect(path) as connection:
        connection.execute("PRAGMA page_size = 512")
        connection.execute('CREATE TABLE t (id INTEGER PRIMARY KEY, a TEXT, b BLOB, "c d" REAL, e)')
        connection.executemany('INSERT INTO t VALUES (?, ?, ?, ?, ?)', [
            (n * 7 + 1, "é" * rng.randrange(3000), rng.randbytes(rng.randrange(900)), rng.random(),
             rng.choice([None, 0, 1, -5, 2**40, -2**63, 1.5, "x"])) for n in range(300)])
        connection.execute("ALTER TABLE t ADD COLUMN f TEXT")
        connection.execute("INSERT INTO t (a, f) VALUES ('tail', 'added')")
        want = connection.execute("SELECT rowid, * FROM t ORDER BY rowid").fetchall()
    connection.close()
    reader = SqliteFile(path.read_bytes())
    assert reader.page_size == 512
    assert reader.table("t") == (["id", "a", "b", "c d", "e", "f"], want)
    assert typed(reader.table("t")[1]) == typed(want)


def test_read_table_gives_the_file_format_readers_rows(forged_seeds, monkeypatch):
    """Each table that read_table reads from a store or cache of seeds 0-19 holds the reader's rows in rowid order."""
    reads = []

    def recording(connection, table, path, prefix, what, columns, record, warnings, rowid=True):
        rows = sqliteio.read_table(connection, table, path, prefix, what, columns, lambda values, *_: values,
                                   warnings, rowid)
        reads.append((path, table, columns, rowid, list(rows)))
        return iter(())

    monkeypatch.setattr(skype, "read_table", recording)
    monkeypatch.setattr(facebook, "read_table", recording)
    for root in forged_seeds.values():
        for path in forged_databases(root):
            tables = {name.casefold() for name in SqliteFile(path.read_bytes()).schema()}
            with sqliteio.open_immutable(path) as connection:
                if tables & skype.STORE_TABLES:
                    list(skype.extract_main_db(connection, path))
                else:
                    for group in facebook.extract_cache(connection, path).values():
                        list(group)
    assert len(reads) == len(forged_seeds) * 12  # seven store tables and five cache tables per tree
    assert all(rows for *_, rows in reads)
    mismatched = []
    for path, table, columns, rowid, got in reads:
        names, rows = SqliteFile(path.read_bytes()).table(table)
        index = {name.casefold(): position for position, name in enumerate(names, 1)}
        want = [(row[0],) * rowid + tuple(next((row[index[name.casefold()]] for name in aliases_of(spec)
                                                if name.casefold() in index), None) for spec in columns)
                for row in rows]
        if typed(got) != typed(want):
            mismatched.append((path.name, table))
    assert mismatched == []
