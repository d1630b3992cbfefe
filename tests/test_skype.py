"""Skype message-store and XML decoding against known-good sample rows."""

import hashlib
import random
import sqlite3
from datetime import date

import pytest

from imartifacts import sampledata as sd
from imartifacts.model import MalformedHex, OutOfRange
from imartifacts.skype import (
    AllTablesMissing,
    FilesBody,
    MessageKind,
    NoRecognizedTags,
    PartListBody,
    PlainTextBody,
    SupernodeEntry,
    VideoMessageBody,
    classify_message,
    decode_decimal_ip,
    decode_hostcache,
    extract_main_db,
    group_main_db,
    parse_body_xml,
    parse_config_xml,
    parse_shared_xml,
)
from imartifacts.sqliteio import NotSqlite, open_immutable


def main_db_dataset(path, warnings=None):
    """Every record extract_main_db yields for path, on a connection opened for the call, grouped by table."""
    with open_immutable(path, warnings) as connection:
        return group_main_db(extract_main_db(connection, path, warnings))


def build_main_db(path, tables):
    connection = sqlite3.connect(path)
    try:
        for name, rows in tables.items():
            connection.execute(sd.MAIN_DB_SCHEMA[name])
            for row in rows:
                columns = list(row)
                connection.execute(
                    'INSERT INTO "%s" (%s) VALUES (%s)'
                    % (name, ", ".join(columns), ", ".join("?" for _ in columns)),
                    tuple(row[c] for c in columns),
                )
        connection.commit()
    finally:
        connection.close()
    return path


FULL_TABLES = {
    "Accounts": (sd.SKYPE_ACCOUNT_ROW,),
    "Contacts": (sd.SKYPE_CONTACT_ECHO, sd.SKYPE_CONTACT_PROFILE, sd.SKYPE_CONTACT_PARTNER),
    "Messages": sd.SKYPE_MESSAGE_ROWS,
    "Transfers": sd.SKYPE_TRANSFER_ROWS,
    "Calls": sd.SKYPE_CALL_ROWS,
    "CallMembers": sd.SKYPE_CALLMEMBER_ROWS,
    "VideoMessages": (sd.SKYPE_VIDEOMESSAGE_ROW,),
}


@pytest.fixture
def main_db(tmp_path):
    return build_main_db(tmp_path / "main.db", FULL_TABLES)


KNOWN_CODES = {
    4: "Conference",
    30: "VideoSessionStarted",
    39: "VideoSessionEnded",
    50: "ContactAsk",
    51: "ContactAsk",
    53: "Blocked",
    60: "EmoticonSent",
    61: "TextSent",
    63: "ContactDetailsSent",
    64: "SmsSent",
    67: "VoiceMessageSent",
    68: "FileSent",
    110: "BirthdayNote",
}


class TestClassify:
    @pytest.mark.parametrize("code,label", sorted(KNOWN_CODES.items()))
    def test_known_codes(self, code, label):
        kind = classify_message(code)
        assert kind.label == label
        assert kind.code == code

    def test_text_message_not_group(self):
        kind = classify_message(61, participant_count=2)
        assert (kind.label, kind.group_chat) == ("TextSent", False)

    def test_file_send(self):
        assert classify_message(68, participant_count=2).label == "FileSent"

    def test_group_chat_flag(self):
        assert classify_message(61, participant_count=5).group_chat
        assert not classify_message(61, participant_count=2).group_chat
        assert not classify_message(61).group_chat

    def test_unknown_code(self):
        kind = classify_message(99)
        assert (kind.label, kind.code) == ("Unknown", 99)

    def test_total_over_sampled_integers(self):
        rng = random.Random(5)
        for _ in range(500):
            code = rng.randrange(-1000, 1000)
            kind = classify_message(code, participant_count=rng.choice((None, 1, 2, 5)))
            assert kind.label == KNOWN_CODES.get(code, "Unknown")
            assert kind == classify_message(code, participant_count=kind.group_chat and 3 or 2)

    def test_known_codes_share_one_kind_per_group_reading(self):
        assert classify_message(61, participant_count=5) is classify_message("61", participant_count=3)
        assert classify_message(61) is classify_message(61, participant_count=2)
        assert classify_message(61) is not classify_message(61, participant_count=3)
        assert classify_message(61) == MessageKind("TextSent", 61, False)
        assert classify_message(999) == classify_message(999)  # unknown codes are equal, not kept

    def test_group_depends_only_on_count(self):
        for code in list(KNOWN_CODES) + [0, 999]:
            assert classify_message(code, participant_count=3).group_chat
            assert not classify_message(code, participant_count=2).group_chat


class TestBodyXml:
    def test_file_offer(self):
        body = parse_body_xml(sd.FILES_BODY_XML)
        assert isinstance(body, FilesBody)
        assert len(body.files) == 6
        first = body.files[0]
        assert (first.name, first.size, first.index, first.tid) == (
            "SuspectToVictim.docx", 78080, 0, "1335338368",
        )
        got = tuple((f.name, f.size, f.index, f.tid) for f in body.files)
        assert got == sd.FILES_BODY_EXPECTED

    def test_video_message_notice(self):
        body = parse_body_xml(sd.VIDEOMESSAGE_BODY_XML)
        assert isinstance(body, VideoMessageBody)
        assert body.notice.sid == "90699566cef64bd97b99704588c41609"
        assert body.notice.secret_code == "1400"
        assert body.notice.public_link == sd.VIDEOMESSAGE_LINK

    def test_plain_text(self):
        body = parse_body_xml("hello SUSPECT")
        assert body == PlainTextBody("hello SUSPECT")

    def test_partlist(self):
        body = parse_body_xml(sd.PARTLIST_BODY_XML)
        assert isinstance(body, PartListBody)
        assert body.part_type == "started"
        assert body.identities == ("adam.thomson11", "harold.cornwall1")
        assert body.raw == sd.PARTLIST_BODY_XML

    def test_broken_markup_falls_through_with_warning(self):
        warnings = []
        body = parse_body_xml("<files><file size=", warnings)
        assert isinstance(body, PlainTextBody)
        assert warnings

    def test_lone_surrogate_in_markup_is_plain_text(self):
        # Found by the fuzz contract: the XML parser raised UnicodeEncodeError.
        warnings = []
        body = parse_body_xml("<files>\ud800</files>", warnings)
        assert body == PlainTextBody("<files>\ud800</files>")
        assert warnings

    def test_unrecognized_root_kept_verbatim(self):
        body = parse_body_xml("<quote author='x'>said things</quote>".replace("'", '"'))
        assert isinstance(body, PlainTextBody)

    def test_none_and_empty(self):
        assert parse_body_xml(None) == PlainTextBody("")
        assert parse_body_xml("") == PlainTextBody("")

    def test_duplicate_index_warns(self):
        warnings = []
        doc = '<files><file size="1" index="0" tid="9">a</file><file size="2" index="0" tid="8">b</file></files>'
        body = parse_body_xml(doc, warnings)
        assert len(body.files) == 2
        assert any("duplicate file index" in w for w in warnings)

    def test_every_input_maps_to_a_variant(self):
        rng = random.Random(17)
        samples = ["", "x", "<", "<>", "<a>", sd.FILES_BODY_XML, sd.PARTLIST_BODY_XML]
        samples += ["".join(chr(rng.randrange(32, 127)) for _ in range(40)) for _ in range(50)]
        for text in samples:
            body = parse_body_xml(text)
            assert isinstance(body, (FilesBody, VideoMessageBody, PartListBody, PlainTextBody))


class TestDecimalIp:
    def test_zero(self):
        assert decode_decimal_ip(0) == "0.0.0.0"

    def test_known_last_ip(self):
        assert decode_decimal_ip(1940151468) == "115.164.92.172"

    def test_known_supernode(self):
        assert decode_decimal_ip(1876774292) == "111.221.77.148"

    def test_roundtrip_sampled(self):
        rng = random.Random(31)
        for _ in range(300):
            value = rng.randrange(0, 2**32)
            quad = [int(p) for p in decode_decimal_ip(value).split(".")]
            assert len(quad) == 4
            recomposed = quad[0] * 2**24 + quad[1] * 2**16 + quad[2] * 2**8 + quad[3]
            assert recomposed == value

    @pytest.mark.parametrize("bad", [-1, 2**32, 2**40])
    def test_out_of_range(self, bad):
        with pytest.raises(OutOfRange):
            decode_decimal_ip(bad)


class TestHostcache:
    def test_single_login_server_entry(self):
        entries = decode_hostcache(sd.HOSTCACHE_SINGLE_ENTRY_HEX)
        assert entries == [SupernodeEntry("65.55.223.24", 33033)]

    def test_single_supernode_entry(self):
        entries = decode_hostcache(sd.HOSTCACHE_PREFIX + sd.HOSTCACHE_ENTRY_SUPERNODE)
        assert entries == [SupernodeEntry("111.221.77.158", 40022)]

    def test_empty(self):
        assert decode_hostcache("") == []

    def test_interleaved_material_skipped(self):
        entries = decode_hostcache(sd.SHARED_HOSTCACHE_HEX)
        assert entries == [
            SupernodeEntry("111.221.77.158", 40022),
            SupernodeEntry("65.55.223.24", 33033),
        ]

    def test_truncated_entry_skipped_with_warning(self):
        warnings = []
        entries = decode_hostcache(sd.HOSTCACHE_SINGLE_ENTRY_HEX + sd.HOSTCACHE_PREFIX + "AABB", warnings)
        assert len(entries) == 1
        assert any("truncated" in w for w in warnings)

    def test_whitespace_tolerated(self):
        spaced = " ".join((sd.HOSTCACHE_PREFIX, sd.HOSTCACHE_ENTRY_MSLOGIN))
        assert decode_hostcache(spaced) == [SupernodeEntry("65.55.223.24", 33033)]

    def test_non_hex_rejected(self):
        with pytest.raises(MalformedHex):
            decode_hostcache("0400zz")

    def test_count_matches_prefix_occurrences(self):
        rng = random.Random(47)
        for _ in range(25):
            pieces = []
            expected = 0
            for _ in range(rng.randrange(0, 6)):
                pieces.append("%02X" % rng.randrange(256) * rng.randrange(0, 4))
                pieces.append(sd.HOSTCACHE_PREFIX)
                pieces.append("%012X" % rng.randrange(2**48))
                expected += 1
            text = "".join(pieces)
            assert len(decode_hostcache(text)) == expected

    def test_lowercase_prefix_found(self):
        assert len(decode_hostcache(sd.HOSTCACHE_SINGLE_ENTRY_HEX.lower())) == 1


class TestSharedXml:
    def test_full_document(self):
        warnings = []
        state = parse_shared_xml(sd.SHARED_XML_DOC, warnings)
        assert state.last_ip == "115.164.92.172"
        assert state.listening_port == 37439
        assert state.supernode == SupernodeEntry("111.221.77.148", 40028)
        assert state.hostcache == (
            SupernodeEntry("111.221.77.158", 40022),
            SupernodeEntry("65.55.223.24", 33033),
        )
        assert state.default_skypename == "harold.cornwall1"
        assert state.node_id == sd.SHARED_NODE_ID
        assert warnings == []

    def test_port_only(self):
        state = parse_shared_xml(b"<x><ListeningPort>1</ListeningPort></x>")
        assert state.listening_port == 1
        assert state.last_ip is None
        assert state.supernode is None
        assert state.hostcache == ()

    def test_no_recognized_tags(self):
        with pytest.raises(NoRecognizedTags):
            parse_shared_xml(b"<config><General/></config>")

    def test_bad_last_ip_warns(self):
        warnings = []
        state = parse_shared_xml(b"<a><LastIP>notanumber</LastIP><ListeningPort>2</ListeningPort></a>", warnings)
        assert state.last_ip is None
        assert any("LastIP" in w for w in warnings)

    def test_accepts_text_input(self):
        state = parse_shared_xml("<a><ListeningPort>7</ListeningPort></a>")
        assert state.listening_port == 7


class TestConfigXml:
    def test_full_document(self):
        config = parse_config_xml(sd.CONFIG_XML_DOC)
        assert config.serial == 78
        assert config.last_used.isoformat_ms() == "2015-01-19T15:01:10.000Z"
        assert config.contacts == ("echo123", "harold.cornwall1")

    def test_dot_escape_decoded(self):
        config = parse_config_xml(b'<config serial="1"><u><a.2Eb.2Ec>v</a.2Eb.2Ec></u></config>')
        assert config.contacts == ("a.b.c",)

    def test_empty_contact_block(self):
        config = parse_config_xml(b"<config><u/></config>")
        assert config.contacts == ()

    def test_no_recognized_tags(self):
        with pytest.raises(NoRecognizedTags):
            parse_config_xml(b"<other>x</other>")

    def test_four_contacts(self):
        doc = b"<config><u><a>1</a><b>2</b><c>3</c><d>4</d></u></config>"
        assert parse_config_xml(doc).contacts == ("a", "b", "c", "d")

    def test_entries_keep_raw_values(self):
        config = parse_config_xml(sd.CONFIG_XML_DOC)
        assert ("echo123", "9db4df93:2") in config.entries


class TestMainDb:
    def test_counts(self, main_db):
        data = main_db_dataset(main_db)
        assert len(data.accounts) == 1
        assert len(data.contacts) == 3
        assert len(data.messages) == 11
        assert len(data.transfers) == 6
        assert len(data.calls) == 4
        assert len(data.call_members) == 2
        assert len(data.video_messages) == 1

    def test_account_profile(self, main_db):
        (account,) = main_db_dataset(main_db).accounts
        assert account.skypename == "harold.cornwall1"
        assert account.fullname == "Harold Cornwall"
        assert account.birthday == date(1990, 2, 2)
        assert account.gender == 1
        assert (account.country, account.city) == ("my", "Malacca")
        assert account.liveid == "harold.cornwall@hotmail.com"

    def test_contact_profile(self, main_db):
        contacts = {c.skypename: c for c in main_db_dataset(main_db).contacts}
        rich = contacts["harold.cornwall1"]
        assert rich.phone_mobile == "+600156688796"
        assert rich.birthday == date(1990, 2, 2)
        assert contacts["echo123"].fullname == "Echo / Sound Test Service"
        assert contacts["echo123"].birthday is None
        assert contacts["adam.thomson11"].last_online.isoformat_ms() == "2015-01-19T16:49:10.000Z"

    def test_transfers_all_outgoing(self, main_db):
        transfers = main_db_dataset(main_db).transfers
        assert all(t.direction == "transferring" for t in transfers)
        first = transfers[0]
        assert first.filename == "SuspectToVictim.docx"
        assert first.filesize == 78080
        assert first.start.isoformat_ms() == "2015-01-19T16:43:42.000Z"
        assert first.finish is None
        assert first.partner_handle == "adam.thomson11"
        assert [t.filename for t in transfers] == [name for name, _ in sd.SKYPE_TRANSFER_FILES]

    def test_unknown_transfer_type_undetermined(self, tmp_path):
        rows = ({**sd.SKYPE_TRANSFER_ROWS[0], "type": 9},)
        path = build_main_db(tmp_path / "m.db", {"Transfers": rows})
        warnings = []
        data = main_db_dataset(path, warnings)
        assert data.transfers[0].direction == "undetermined"
        assert data.transfers[0].type_code == 9
        assert any("unknown type" in w for w in warnings)

    def test_message_kinds(self, main_db):
        messages = main_db_dataset(main_db).messages
        assert [m.type_code for m in messages] == [50, 61, 30, 39, 61, 68, 61, 68, 30, 39, 30]
        labels = [m.kind.label for m in messages]
        assert labels[0] == "ContactAsk"
        assert labels[2] == "VideoSessionStarted"
        assert labels[5] == "FileSent"
        assert not any(m.kind.group_chat for m in messages)
        assert messages[3].reason == "no_answer"
        assert messages[5].when.isoformat_ms() == "2015-01-19T16:43:42.000Z"

    def test_message_bodies_parse(self, main_db):
        messages = main_db_dataset(main_db).messages
        offer = parse_body_xml(messages[5].body_xml)
        assert isinstance(offer, FilesBody) and len(offer.files) == 6
        assert isinstance(parse_body_xml(messages[2].body_xml), PartListBody)
        assert isinstance(parse_body_xml(messages[1].body_xml), PlainTextBody)

    def test_calls(self, main_db):
        calls = main_db_dataset(main_db).calls
        assert [c.duration_s for c in calls] == [14, None, 11, None]
        assert calls[0].begin.isoformat_ms() == "2015-01-19T16:46:39.000Z"
        assert all(c.is_incoming for c in calls)
        assert calls[0].name == "8-1421685999"
        assert calls[1].unseen_missed is True

    def test_call_members_guid(self, main_db):
        members = main_db_dataset(main_db).call_members
        assert members[0].guid_raw == "adam.thomson11-harold.cornwall1-8-1421685999"
        # Three hyphens make the split ambiguous, so only raw text is kept.
        assert members[0].guid_parts is None
        assert members[0].duration_s == 14

    def test_guid_split_when_unambiguous(self, tmp_path):
        rows = ({**sd.SKYPE_CALLMEMBER_ROWS[0], "guid": "alice-bob-call7"},)
        path = build_main_db(tmp_path / "m.db", {"CallMembers": rows})
        (member,) = main_db_dataset(path).call_members
        assert member.guid_parts == ("alice", "bob", "call7")

    def test_video_message(self, main_db):
        (vm,) = main_db_dataset(main_db).video_messages
        assert vm.sid == sd.VIDEOMESSAGE_SID
        assert vm.public_link == sd.VIDEOMESSAGE_LINK
        assert vm.author == "adam.thomson11"
        assert vm.progress == 100
        assert vm.reaction_time.isoformat_ms() == "2015-01-26T06:35:07.000Z"
        assert vm.local_path.endswith(".mp4")

    def test_missing_tables_warned(self, tmp_path):
        path = build_main_db(tmp_path / "m.db", {"Accounts": (sd.SKYPE_ACCOUNT_ROW,)})
        warnings = []
        data = main_db_dataset(path, warnings)
        assert len(data.accounts) == 1
        for bucket in (data.contacts, data.messages, data.transfers, data.calls, data.call_members, data.video_messages):
            assert bucket == []
        assert sum("absent" in w for w in warnings) == 6

    def test_all_tables_missing(self, tmp_path):
        path = tmp_path / "m.db"
        connection = sqlite3.connect(path)
        connection.execute("CREATE TABLE unrelated (x)")
        connection.commit()
        connection.close()
        with pytest.raises(AllTablesMissing):
            main_db_dataset(path)

    def test_not_sqlite(self, tmp_path):
        path = tmp_path / "m.db"
        path.write_bytes(b"nope")
        with pytest.raises(NotSqlite):
            main_db_dataset(path)

    def test_database_bytes_untouched(self, main_db):
        before = hashlib.sha256(main_db.read_bytes()).hexdigest()
        main_db_dataset(main_db)
        assert hashlib.sha256(main_db.read_bytes()).hexdigest() == before
