"""Facebook cache extraction against known-good sample rows."""

import hashlib
import io
import json
import random
import sqlite3
from datetime import date

import pytest
from hypothesis import given, settings, strategies as st

from imartifacts import facebook, mapping, sampledata as sd
from imartifacts.facebook import (
    ChatFragment,
    MalformedJson,
    extract_analytics,
    extract_chat_json,
    extract_friends,
    extract_messages,
    extract_notifications,
    extract_users,
    infer_owner_uid,
    parse_fb_attachments,
)
from imartifacts.model import Channel
from imartifacts.sqliteio import DamagedDatabase, MissingTable, NotSqlite, open_immutable


def _make_db(path, schema, table, rows):
    connection = sqlite3.connect(path)
    try:
        connection.execute(schema)
        if rows:
            columns = list(rows[0])
            placeholders = ", ".join("?" for _ in columns)
            connection.executemany(
                'INSERT INTO "%s" (%s) VALUES (%s)' % (table, ", ".join(columns), placeholders),
                [tuple(row[c] for c in columns) for row in rows],
            )
        connection.commit()
    finally:
        connection.close()
    return path


@pytest.fixture
def analytics_db(tmp_path):
    rows = (sd.ANALYTICS_LOGIN_ROW,) + sd.ANALYTICS_EXTRA_ROWS
    return _make_db(
        tmp_path / "Analytics.sqlite",
        "CREATE TABLE analytics_logs (id INTEGER PRIMARY KEY, time INTEGER, log_type TEXT, name TEXT, module TEXT, extra TEXT)",
        "analytics_logs",
        rows,
    )


@pytest.fixture
def friends_db(tmp_path):
    row = {
        "uid": sd.FRIEND_ROW["uid"],
        "first_name": sd.FRIEND_ROW["first_name"],
        "middle_name": None,
        "last_name": sd.FRIEND_ROW["last_name"],
        "name": sd.FRIEND_ROW["name"],
        "contact_email": sd.FRIEND_ROW["email"],
        "phones": "[]",
        "profile_url": sd.FRIEND_ROW["profile_url"],
        "communication_rank": sd.FRIEND_ROW["communication_rank"],
        "birthday": sd.FRIEND_ROW["birthday"],
    }
    bare = {
        "uid": sd.CORRESPONDENT_UID,
        "first_name": "Jack",
        "middle_name": None,
        "last_name": "Jeffrey",
        "name": None,
        "contact_email": None,
        "phones": None,
        "profile_url": None,
        "communication_rank": None,
        "birthday": None,
    }
    return _make_db(
        tmp_path / "Friends.sqlite",
        "CREATE TABLE friends (uid TEXT, first_name TEXT, middle_name TEXT, last_name TEXT,"
        " name TEXT, contact_email TEXT, phones TEXT, profile_url TEXT,"
        " communication_rank REAL, birthday TEXT)",
        "friends",
        (row, bare),
    )


def _messages_db(tmp_path, message_rows=None, users_rows=None):
    path = tmp_path / "Messages.sqlite"
    connection = sqlite3.connect(path)
    try:
        connection.execute(
            "CREATE TABLE messages (rowid_seed INTEGER, mid TEXT, tid TEXT, body TEXT,"
            " sender TEXT, timestamp INTEGER, tags TEXT, attachments TEXT)"
        )
        connection.execute("CREATE TABLE users (id TEXT, name TEXT, email TEXT, last_active INTEGER)")
        for row in message_rows if message_rows is not None else sd.MESSAGE_ROWS:
            connection.execute(
                "INSERT INTO messages (rowid, mid, tid, body, sender, timestamp, tags, attachments)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    row["rowid"], row["mid"], row["tid"], row["body"],
                    row["sender"], row["timestamp"], row["tags"], row["attachments"],
                ),
            )
        for row in users_rows if users_rows is not None else sd.USERS_ROWS:
            connection.execute(
                "INSERT INTO users (id, name, email, last_active) VALUES (?, ?, ?, ?)",
                (row["id"], row["name"], row["email"], row["last_active"]),
            )
        connection.commit()
    finally:
        connection.close()
    return path


@pytest.fixture
def messages_db(tmp_path):
    return _messages_db(tmp_path)


@pytest.fixture
def notifications_db(tmp_path):
    return _make_db(
        tmp_path / "Notifications.sqlite",
        "CREATE TABLE notifications (notification_id TEXT, sender_id TEXT, title_text TEXT,"
        " href TEXT, unread INTEGER, created TEXT, updated TEXT)",
        "notifications",
        sd.NOTIFICATION_ROWS,
    )


class TestAnalytics:
    def test_login_row(self, analytics_db):
        events = extract_analytics(analytics_db)
        first = events[0]
        assert first.row_id == 1
        assert first.when.isoformat_ms() == "2015-01-22T03:45:14.666Z"
        assert first.log_type == "client_event"
        assert first.name == "login"
        assert first.module == "login_events"
        assert first.extra == "{}"
        assert first.provenance.channel is Channel.DATABASE

    def test_all_known_names_present(self, analytics_db):
        names = [event.name for event in extract_analytics(analytics_db)]
        assert names == ["login", "chat_turned_on", "message_sent_attempt", "message_send_state", "file_downloaded"]

    def test_row_without_time_skipped_with_warning(self, tmp_path):
        rows = (
            dict(sd.ANALYTICS_LOGIN_ROW),
            {"id": 2, "time": None, "log_type": "client_event", "name": "x", "module": "m", "extra": None},
        )
        path = _make_db(
            tmp_path / "a.sqlite",
            "CREATE TABLE analytics_logs (id INTEGER PRIMARY KEY, time INTEGER, log_type TEXT, name TEXT, module TEXT, extra TEXT)",
            "analytics_logs",
            rows,
        )
        warnings = []
        events = extract_analytics(path, warnings)
        assert len(events) == 1
        assert any("no usable time" in w for w in warnings)

    def test_missing_table(self, tmp_path):
        path = _make_db(tmp_path / "b.sqlite", "CREATE TABLE other (x)", "other", ())
        with pytest.raises(MissingTable):
            extract_analytics(path)


class TestFriends:
    def test_profile_row(self, friends_db):
        friends = extract_friends(friends_db)
        row = friends[0]
        assert row.uid == "100004911219827"
        assert row.name == "Kelvin Sky"
        assert row.first_name == "Kelvin"
        assert row.last_name == "Sky"
        assert row.contact_email == "fbccester@gmail.com"
        assert row.profile_url == "https://www.facebook.com/kelvin.sky.52"
        assert row.communication_rank == pytest.approx(0.000848054885864)
        assert row.birthday == date(1990, 1, 1)

    def test_name_assembled_when_absent(self, friends_db):
        friends = extract_friends(friends_db)
        assert friends[1].name == "Jack Jeffrey"
        assert friends[1].birthday is None

    def test_bad_birthday_warns(self, tmp_path):
        path = _make_db(
            tmp_path / "f.sqlite",
            "CREATE TABLE friends (uid TEXT, name TEXT, birthday TEXT)",
            "friends",
            ({"uid": "1", "name": "N", "birthday": "not-a-date"},),
        )
        warnings = []
        friends = extract_friends(path, warnings)
        assert friends[0].birthday is None
        assert any("birthday" in w for w in warnings)


class TestAttachments:
    def test_double_bracketed_array(self):
        attachments = parse_fb_attachments(sd.ATTACHMENTS_JSON)
        assert len(attachments) == 2
        image, pdf = attachments
        assert image.name == sd.ATTACHMENT_IMAGE["name"]
        assert (image.type_code, image.width, image.height) == (4, 742, 960)
        assert image.size == 0
        assert (pdf.name, pdf.size, pdf.id, pdf.mime, pdf.type_code) == (
            "VictimToSuspect.pdf", 31747, "391924720981232", "application/pdf", 7,
        )
        assert pdf.url.startswith("https://cdn.fbsbx.com/")

    def test_empty_array(self):
        assert parse_fb_attachments("[]") == []

    def test_flat_array_also_accepted(self):
        flat = json.dumps([{"name": "a.txt", "size": 3, "type": 7}])
        (one,) = parse_fb_attachments(flat)
        assert (one.name, one.size, one.type_code) == ("a.txt", 3, 7)

    @pytest.mark.parametrize("text", ["not json", '{"name": "x"}', "42"])
    def test_malformed_raises(self, text):
        with pytest.raises(MalformedJson):
            parse_fb_attachments(text)


class TestMessages:
    def test_rows_in_row_order(self, messages_db):
        messages = extract_messages(messages_db)
        assert [m.row_id for m in messages] == [15, 16, 18, 19, 20]

    def test_third_row_values(self, messages_db):
        third = extract_messages(messages_db)[2]
        assert third.row_id == 18
        assert third.body == "Hello Victim"
        assert third.sender_name == "Jack Jeffrey"
        assert third.sender_uid == "100004935817781"
        assert third.when.isoformat_ms() == "2015-01-19T05:19:04.425Z"
        assert third.thread_id == sd.MESSAGE_THREAD_ID
        assert third.attachments == ()

    def test_attachment_row(self, messages_db):
        with_files = extract_messages(messages_db)[3]
        assert with_files.body == "Here are some files for you SUSPECT"
        assert len(with_files.attachments) == 2
        assert with_files.attachments[1].name == "VictimToSuspect.pdf"
        assert with_files.attachments_raw == sd.ATTACHMENTS_JSON

    def test_direction_from_sent_tag(self, messages_db):
        messages = extract_messages(messages_db)
        directions = [mapping._fb_direction(m, None) for m in messages]
        assert directions == ["sent", "undetermined", "undetermined", "sent", "undetermined"]

    def test_direction_owner_fallback(self, messages_db):
        messages = extract_messages(messages_db)
        stripped = [
            facebook.FbMessage(
                **{**m.__dict__, "tags": tuple(t for t in m.tags if t != "sent")}
            )
            for m in messages
        ]
        assert mapping._fb_direction(stripped[0], sd.OWNER_UID) == "sent"
        assert mapping._fb_direction(stripped[0], None) == "undetermined"
        assert mapping._fb_direction(stripped[1], sd.OWNER_UID) == "received"

    def test_infer_owner(self, messages_db):
        assert infer_owner_uid(extract_messages(messages_db)) == sd.OWNER_UID
        assert infer_owner_uid([]) is None

    def test_malformed_columns_kept_with_warnings(self, tmp_path):
        rows = [dict(sd.MESSAGE_ROWS[0])]
        rows[0]["sender"] = "{broken"
        rows[0]["tags"] = '{"inbox", "sent"}'
        rows[0]["attachments"] = "[[broken"
        path = _messages_db(tmp_path, message_rows=rows, users_rows=())
        warnings = []
        (message,) = extract_messages(path, warnings)
        assert message.sender_uid is None
        assert message.sender_raw == "{broken"
        assert message.tags == ("inbox", "sent")
        assert message.attachments == ()
        assert message.attachments_raw == "[[broken"
        assert any("sender" in w for w in warnings)
        assert any("salvaged" in w for w in warnings)
        assert any("attachments" in w for w in warnings)

    def test_database_bytes_untouched(self, messages_db):
        before = hashlib.sha256(messages_db.read_bytes()).hexdigest()
        extract_messages(messages_db)
        extract_users(messages_db)
        after = hashlib.sha256(messages_db.read_bytes()).hexdigest()
        assert before == after

    def test_connection_closed_on_return_and_raise(self, messages_db, tmp_path, monkeypatch):
        opened = []

        def recording_open(*args, **kwargs):
            opened.append(open_immutable(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(facebook, "open_immutable", recording_open)
        extract_messages(messages_db)
        with pytest.raises(MissingTable):
            extract_messages(_make_db(tmp_path / "Other.sqlite", "CREATE TABLE other (x)", "other", []))
        assert len(opened) == 2
        for connection in opened:
            with pytest.raises(sqlite3.ProgrammingError):
                connection.execute("SELECT 1")

    def test_not_sqlite(self, tmp_path):
        path = tmp_path / "plain.txt"
        path.write_bytes(b"just text, no database here")
        with pytest.raises(NotSqlite):
            extract_messages(path)

    def test_without_rowid_table_is_damaged_database(self, tmp_path):
        path = _make_db(tmp_path / "Messages.sqlite",
                        "CREATE TABLE messages (msg_id TEXT PRIMARY KEY, text TEXT) WITHOUT ROWID",
                        "messages", [{"msg_id": "m1", "text": "hi"}])
        with pytest.raises(DamagedDatabase, match="rowid") as caught:
            extract_messages(path)
        assert isinstance(caught.value.__cause__, sqlite3.OperationalError)


class TestUsers:
    def test_rows(self, messages_db):
        users = extract_users(messages_db)
        assert [(u.id, u.name) for u in users] == [
            ("100004911219827", "Kelvin Sky"),
            ("100004935817781", "Jack Jeffry"),
        ]
        assert users[0].last_active.isoformat_ms() == "2015-02-12T18:34:14.000Z"
        assert users[1].last_active.isoformat_ms() == "2015-02-12T18:34:03.000Z"

    def test_null_last_active(self, tmp_path):
        path = _messages_db(tmp_path, message_rows=(), users_rows=(
            {"id": "7", "name": "N", "email": "", "last_active": None},
        ))
        (user,) = extract_users(path)
        assert user.last_active is None


# Epoch values no Timestamp can hold: before 1970, and past 9999 in any unit.
# The second is text because SQLite integers stop at 2**63 - 1.
OUT_OF_RANGE_EPOCHS = [-1, str(10**20)]


class TestOutOfRangeEpochs:
    """An epoch time out of range makes its row undated; the rest of the database is read."""

    @pytest.mark.parametrize("value", OUT_OF_RANGE_EPOCHS)
    def test_analytics_row_skipped_with_warning(self, tmp_path, value):
        path = _make_db(
            tmp_path / "Analytics.sqlite",
            "CREATE TABLE analytics_logs (id INTEGER PRIMARY KEY, time INTEGER, log_type TEXT, name TEXT, module TEXT, extra TEXT)",
            "analytics_logs",
            (dict(sd.ANALYTICS_LOGIN_ROW, time=value),) + sd.ANALYTICS_EXTRA_ROWS,
        )
        warnings = []
        events = extract_analytics(path, warnings)
        assert [e.row_id for e in events] == [row["id"] for row in sd.ANALYTICS_EXTRA_ROWS]
        assert warnings == ["analytics row 1 has no usable time"]

    @pytest.mark.parametrize("value", OUT_OF_RANGE_EPOCHS)
    def test_message_row_skipped_with_warning(self, tmp_path, value):
        first, *rest = sd.MESSAGE_ROWS
        path = _messages_db(tmp_path, message_rows=[dict(first, timestamp=value)] + rest)
        warnings = []
        messages = extract_messages(path, warnings)
        assert [m.row_id for m in messages] == [row["rowid"] for row in rest]
        assert "messages row %d has no usable timestamp" % first["rowid"] in warnings
        assert len(extract_users(path)) == len(sd.USERS_ROWS)

    @pytest.mark.parametrize("value", OUT_OF_RANGE_EPOCHS)
    def test_user_kept_without_last_active_and_warned(self, tmp_path, value):
        first, second = sd.USERS_ROWS
        path = _messages_db(tmp_path, users_rows=[dict(first, last_active=value), second])
        warnings = []
        users = extract_users(path, warnings)
        assert [(u.id, u.last_active) for u in users][0] == (first["id"], None)
        assert users[1].last_active.isoformat_ms() == "2015-02-12T18:34:03.000Z"
        assert warnings == ["time out of range %r in users row 1" % int(value)]


class TestNotifications:
    def test_rows_and_flag_readings(self, notifications_db):
        notes = extract_notifications(notifications_db)
        assert len(notes) == 2
        first, second = notes
        assert first.sender_id == "100004935817781"
        assert first.unread_flag == 1
        assert second.unread_flag == 0
        assert first.created.isoformat_ms() == "2015-02-12T17:50:03.000Z"
        assert second.updated.isoformat_ms() == "2015-02-12T17:53:01.000Z"
        assert first.href.endswith("id=100004935817781")

    def test_unparsed_time_warns(self, tmp_path):
        path = _make_db(
            tmp_path / "n.sqlite",
            "CREATE TABLE notifications (notification_id TEXT, unread INTEGER, created TEXT)",
            "notifications",
            ({"notification_id": "n1", "unread": 1, "created": "whenever"},),
        )
        warnings = []
        (note,) = extract_notifications(path, warnings)
        assert note.created is None
        assert any("unparsed time" in w for w in warnings)


def _noise(rng, length):
    return bytes(rng.randrange(256) for _ in range(length))


class TestChatJson:
    def test_fragment_fields(self):
        rng = random.Random(11)
        payload = sd.CHAT_PUSH_JSON.encode("utf-8")
        data = _noise(rng, 700) + payload + _noise(rng, 900)
        (fragment,) = extract_chat_json(data, "memdump.bin")
        assert fragment.parsed
        assert fragment.offset == 700
        assert fragment.message == sd.CHAT_PUSH_MESSAGE
        assert fragment.time_raw == sd.CHAT_PUSH_TIME
        assert fragment.time.isoformat_ms() == "2015-01-19T16:36:23.000Z"
        assert fragment.target_uid == "100004935817781"
        assert fragment.sender_uid == "100004911219827"
        assert fragment.recipient_uid == "100004935817781"
        assert fragment.thread_id == "439758492746659"
        assert fragment.raw == payload
        assert fragment.provenance.channel is Channel.CARVED
        assert fragment.provenance.byte_offset == 700
        assert fragment.extra.get("type") == "orca_message"

    def test_nested_region_picks_smallest_balanced(self):
        inner = sd.CHAT_PUSH_JSON
        outer = '{"envelope": 1, "payload": %s, "z": 2}' % inner
        data = b"x" * 64 + outer.encode() + b"y" * 64
        (fragment,) = extract_chat_json(data)
        assert fragment.parsed
        # Marker sits inside the inner object, so that is the region kept.
        assert fragment.raw == inner.encode()

    def test_truncated_tail_reported_unparsed(self):
        payload = sd.CHAT_PUSH_JSON.encode("utf-8")
        data = b"n" * 100 + payload[: len(payload) - 10]
        (fragment,) = extract_chat_json(data)
        assert not fragment.parsed
        assert fragment.raw.startswith(b"{")
        assert b"orca_message" in fragment.raw

    def test_no_marker_no_fragments(self):
        assert extract_chat_json(b"nothing interesting here " * 100) == []

    def test_string_escapes_do_not_break_balance(self):
        doc = '{"type": "orca_message", "message": "brace \\" } in string", "time": 5}'
        (fragment,) = extract_chat_json(doc.encode())
        assert fragment.parsed
        assert fragment.message == 'brace " } in string'

    def test_chunked_matches_whole(self):
        rng = random.Random(23)
        pieces = []
        expected_offsets = []
        cursor = 0
        for _ in range(5):
            gap = _noise(rng, rng.randrange(2000, 9000))
            pieces.append(gap)
            cursor += len(gap)
            expected_offsets.append(cursor)
            payload = sd.CHAT_PUSH_JSON.encode("utf-8")
            pieces.append(payload)
            cursor += len(payload)
        data = b"".join(pieces)
        whole = extract_chat_json(data)
        chunked = extract_chat_json(io.BytesIO(data), chunk_size=1024)
        assert whole == chunked
        assert [f.offset for f in whole] == expected_offsets
        assert all(f.parsed for f in whole)

    def test_marker_without_any_brace(self):
        data = b"plain orca_message text with no json at all"
        (fragment,) = extract_chat_json(data)
        assert not fragment.parsed
        assert b"orca_message" in fragment.raw

    def test_out_of_range_time_leaves_one_fragment_undated(self):
        pushes = [sd.CHAT_PUSH_JSON.replace('"time": %d' % sd.CHAT_PUSH_TIME, '"time": %d' % time)
                  for time in (sd.CHAT_PUSH_TIME, 10**20, sd.CHAT_PUSH_TIME + 1)]
        assert len(set(pushes)) == 3
        data = b" junk ".join(push.encode("utf-8") for push in pushes)
        fragments = extract_chat_json(data, "pagefile.sys")
        assert [(f.parsed, f.time_raw) for f in fragments] == [
            (True, sd.CHAT_PUSH_TIME), (True, 10**20), (True, sd.CHAT_PUSH_TIME + 1)]
        assert [f.time and f.time.isoformat_ms() for f in fragments] == [
            "2015-01-19T16:36:23.000Z", None, "2015-01-19T16:36:24.000Z"]
        assert all(f.message == sd.CHAT_PUSH_MESSAGE for f in fragments)

    def test_boolean_time_leaves_the_fragment_undated(self):
        (fragment,) = extract_chat_json(b'{"time": true, "type": "orca_message", "message": "hi"}')
        assert fragment.parsed and fragment.message == "hi"
        assert (fragment.time_raw, fragment.time) == (None, None)
        warnings = []
        assert mapping.normalize([fragment], warnings=warnings) == []
        assert warnings == ["chat fragment at offset 0: unparsed or undated, skipped"]

    def test_too_deep_region_is_kept_unparsed_and_the_rest_is_read(self):
        payload = sd.CHAT_PUSH_JSON.encode("utf-8")
        data = b"junk " + DEEP_CHAT_REGION + b" " + payload
        with pytest.raises(RecursionError):
            json.loads(DEEP_CHAT_REGION)
        deep, good = extract_chat_json(io.BytesIO(data), "pagefile.sys")
        assert (deep.offset, deep.parsed, deep.raw) == (5, False, DEEP_CHAT_REGION)
        assert deep.provenance.byte_offset == 5
        assert good.parsed and good.raw == payload and good.message == sd.CHAT_PUSH_MESSAGE


# A chat push whose marker sits beside an array nested deeper than json's
# decoder allows on any supported Python (the C recursion limit is 8,000 on
# 3.12), so json.loads raises RecursionError on it.
DEEP_CHAT_REGION = (b'{"x":' + b"[" * 25_000 + b"1" + b"]" * 25_000
                    + b', "time": 1421600000, "type": "orca_message"}')


def reference_balanced_end(data: bytes, start: int) -> int | None:
    """The per-byte brace matcher _balanced_end replaced, kept as its oracle."""
    depth = 0
    in_string = False
    i = start
    n = len(data)
    while i < n:
        b = data[i]
        if in_string:
            if b == 0x5C:  # backslash escape
                i += 2
                continue
            if b == 0x22:
                in_string = False
        elif b == 0x22:
            in_string = True
        elif b == 0x7B:
            depth += 1
        elif b == 0x7D:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return None


# Derived from the test's source and without an example database, so every
# run checks the same inputs.
PROPERTY = settings(derandomize=True, database=None, max_examples=500, deadline=None)

# Bytes dense in the four that move the brace matcher, plus filler.
JSONISH = st.lists(st.sampled_from([b"{", b"}", b'"', b"\\", b"a", b" ", b"\x00", b"{}", b'\\"']),
                   max_size=80).map(b"".join)


class TestBalancedEnd:
    @PROPERTY
    @given(data=JSONISH, start=st.integers(0, 90), end=st.integers(0, 90))
    def test_matches_reference(self, data, start, end):
        assert facebook._balanced_end(data, start, end) == reference_balanced_end(data[:end], start)

    @PROPERTY
    @given(data=JSONISH, start=st.integers(0, 90), end=st.integers(0, 90),
           picks=st.one_of(st.none(), st.lists(st.integers(0, 90))))
    def test_known_inner_ends_change_nothing(self, data, start, end, picks):
        """Any opening braces' ends may be known (None: all of them), whatever data[start] is."""
        if picks is None:
            picks = range(len(data))
        known = {at: reference_balanced_end(data[:end], at) for at in picks if data[at:at + 1] == b"{"}
        assert facebook._balanced_end(data, start, end, known) == reference_balanced_end(data[:end], start)

    @PROPERTY
    @given(head=JSONISH, tail=JSONISH, before=st.integers(0, 30), after=st.integers(0, 30))
    def test_window_bounds_equal_a_copied_window(self, head, tail, before, after):
        marker = facebook.CHAT_MARKER
        buf = head + marker + tail
        rel = len(head)
        lo, hi = max(rel - before, 0), min(rel + len(marker) + after, len(buf))
        bounded = facebook._fragment_from_region(buf, lo, hi, rel, 1000, "m.bin")
        copied = facebook._fragment_from_region(buf[lo:hi], 0, hi - lo, rel - lo, 1000 + lo, "m.bin")
        assert (bounded, bounded.extra) == (copied, copied.extra)

    @pytest.mark.parametrize("body", [b'{"a":', b"{"])
    def test_nested_unclosed_braces_take_linear_work(self, monkeypatch, body):
        """Walking out from a marker over n open braces examines O(n) tokens, not O(n^2)."""
        tokens = []

        class Counting:
            def search(self, *args):
                tokens.append(1)
                return pattern.search(*args)

        pattern = facebook._JSON_TOKEN
        monkeypatch.setattr(facebook, "_JSON_TOKEN", Counting())
        work = []
        for n in (500, 4000):
            tokens.clear()
            (fragment,) = extract_chat_json(body * n + b" orca_message ")
            assert not fragment.parsed and fragment.offset == 0
            work.append(len(tokens))
        assert work[1] <= 9 * work[0]
