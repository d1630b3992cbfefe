"""A reader of the SQLite database file format, built on the standard library alone.

It shares no code with the sqlite3 library, so the tests use it as an
oracle for what sqliteio reads.  It reads the header (page size, reserved
bytes, text encoding), the sqlite_schema table on page 1, and each table
b-tree: interior and leaf pages, varints, record serial types and
overflow chains.  A column declared INTEGER PRIMARY KEY reads the row
id, as it does through sqlite3.  Index b-trees, WITHOUT ROWID tables,
freelists and WAL files are not read; column DEFAULTs are read as NULL.
"""

import re
import struct

MAGIC = b"SQLite format 3\x00"
_ENCODINGS = {1: "utf-8", 2: "utf-16-le", 3: "utf-16-be"}
_INT_SIZES = {1: 1, 2: 2, 3: 3, 4: 4, 5: 6, 6: 8}
_TABLE_CONSTRAINTS = ("constraint", "primary", "unique", "check", "foreign")


def varint(data, position: int) -> tuple[int, int]:
    """The big-endian varint at position: (its value, the position after it)."""
    value = 0
    for index in range(8):
        byte = data[position + index]
        value = (value << 7) | (byte & 0x7F)
        if byte < 0x80:
            return value, position + index + 1
    return (value << 8) | data[position + 8], position + 9


def _u16(data, position: int) -> int:
    return struct.unpack_from(">H", data, position)[0]


def _u32(data, position: int) -> int:
    return struct.unpack_from(">I", data, position)[0]


def _unquote(name: str) -> str:
    if name[:1] in "\"'`[":
        return name[1:-1].replace(name[0] * 2, name[0]) if name[0] != "[" else name[1:-1]
    return name


def _column_defs(sql: str) -> list[str]:
    """The comma-separated definitions inside a CREATE TABLE's outer parentheses."""
    body = sql[sql.index("(") + 1:sql.rindex(")")]
    parts, depth, quote, start = [], 0, None, 0
    for index, char in enumerate(body):
        if quote:
            quote = None if char == quote else quote
        elif char in "\"'`[":
            quote = "]" if char == "[" else char
        elif char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
        elif char == "," and depth == 0:
            parts.append(body[start:index])
            start = index + 1
    parts.append(body[start:])
    return [part.strip() for part in parts]


def _columns(sql: str) -> tuple[list[str], int | None]:
    """A CREATE TABLE's column names, and the index of the one whose definition makes it the row id alias."""
    names, alias = [], None
    for definition in _column_defs(sql):
        if definition.split(None, 1)[0].casefold() in _TABLE_CONSTRAINTS:
            continue
        name = re.match(r'"(?:[^"]|"")*"|`[^`]*`|\[[^\]]*\]|\S+', definition).group()
        words = definition[len(name):].casefold().split()
        if words[:3] == ["integer", "primary", "key"] and words[3:4] != ["desc"]:
            alias = len(names)
        names.append(_unquote(name))
    return names, alias


class SqliteFile:
    """The bytes of one database file, read as the file format lays them out."""

    def __init__(self, data: bytes):
        if data[:16] != MAGIC:
            raise ValueError("not a SQLite database")
        size = _u16(data, 16)
        self.page_size = 65536 if size == 1 else size
        self.usable = self.page_size - data[20]
        self.encoding = _ENCODINGS[_u32(data, 56)]
        self.data = data

    def page(self, number: int) -> bytes:
        start = (number - 1) * self.page_size
        return self.data[start:start + self.page_size]

    def cells(self, root: int):
        """(rowid, record values) of every row of the table b-tree at page root, in rowid order."""
        page = self.page(root)
        header = 100 if root == 1 else 0
        kind = page[header]
        count = _u16(page, header + 3)
        pointers = header + (12 if kind == 0x05 else 8)
        offsets = [_u16(page, pointers + 2 * index) for index in range(count)]
        if kind == 0x05:  # interior: a left child per cell, then the right-most child
            for offset in offsets:
                yield from self.cells(_u32(page, offset))
            yield from self.cells(_u32(page, header + 8))
        elif kind == 0x0D:
            for offset in offsets:
                size, position = varint(page, offset)
                rowid, position = varint(page, position)
                yield rowid, self.record(self.payload(page, position, size))
        else:
            raise ValueError("page %d is not a table b-tree page (type %#x)" % (root, kind))

    def payload(self, page: bytes, position: int, size: int) -> bytes:
        """A leaf cell's payload of size bytes, following its overflow chain past what the page holds."""
        usable = self.usable
        most = usable - 35
        if size <= most:
            return page[position:position + size]
        least = (usable - 12) * 32 // 255 - 23
        local = least + (size - least) % (usable - 4)
        if local > most:
            local = least
        out = bytearray(page[position:position + local])
        following = _u32(page, position + local)
        while following:
            overflow = self.page(following)
            following = _u32(overflow, 0)
            out += overflow[4:usable]
        return bytes(out[:size])

    def record(self, payload: bytes) -> list:
        """The values of one record: its header's serial types read against its body."""
        header_size, position = varint(payload, 0)
        types = []
        while position < header_size:
            serial, position = varint(payload, position)
            types.append(serial)
        values, body = [], header_size
        for serial in types:
            if serial == 0:
                values.append(None)
            elif serial in _INT_SIZES:
                width = _INT_SIZES[serial]
                values.append(int.from_bytes(payload[body:body + width], "big", signed=True))
                body += width
            elif serial == 7:
                values.append(struct.unpack_from(">d", payload, body)[0])
                body += 8
            elif serial in (8, 9):
                values.append(serial - 8)
            elif serial >= 12:
                width = (serial - 12 - serial % 2) // 2
                raw = payload[body:body + width]
                values.append(bytes(raw) if serial % 2 == 0 else raw.decode(self.encoding))
                body += width
            else:
                raise ValueError("reserved serial type %d" % serial)
        return values

    def schema(self) -> dict[str, tuple[int, str]]:
        """{table name: (root page, CREATE statement)} from sqlite_schema."""
        return {name: (root, sql) for _, (kind, name, _, root, sql) in self.cells(1) if kind == "table"}

    def table(self, name: str) -> tuple[list[str], list[tuple]]:
        """A table's column names and its rows as (rowid, *values), in rowid order.

        A record shorter than the table, as ALTER TABLE ADD COLUMN leaves
        older rows, reads NULL for the columns it lacks; the row id alias
        column reads the row id.
        """
        root, sql = self.schema()[name]
        names, alias = _columns(sql)
        rows = []
        for rowid, values in self.cells(root):
            values = values + [None] * (len(names) - len(values))
            if alias is not None:
                values[alias] = rowid
            rows.append((rowid, *values))
        return names, rows
