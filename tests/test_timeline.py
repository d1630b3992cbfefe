"""Timeline assembly: CSV ingestion, record normalization, merge, emit."""

import csv
import io
import json
import random
import re
import textwrap
from dataclasses import fields, is_dataclass, replace
from datetime import datetime, timezone
from itertools import groupby
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from imartifacts import facebook, forge, mapping, pcap, regexport, skype, timeline
from imartifacts import sampledata as sd
from imartifacts.locator import parse_package_id
from imartifacts.model import (
    App,
    Channel,
    EventKind,
    Provenance,
    OutOfRange,
    Timestamp,
    TimelineEvent,
    ts_from_iso_text,
    ts_from_unix,
)
from test_model import reference_ts_from_iso_text

DB_PROV = Provenance("main.db", "test", Channel.DATABASE)
GOLDEN_SEED7 = Path(__file__).parent / "golden" / "report_seed7.jsonl"


def journal_text(header=sd.NTFS_CSV_HEADER, rows=sd.NTFS_CSV_ROWS):
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def event_at(seconds, kind=EventKind.LOGIN, app=App.FACEBOOK, summary="x",
             path="p", actor=None, counterpart=None):
    return TimelineEvent(when=ts_from_unix(seconds, "seconds"), kind=kind,
                         app=app, summary=summary,
                         provenance=Provenance(path, "test", Channel.DATABASE),
                         actor=actor, counterpart=counterpart)


class TestNtfsCsv:
    def test_rows_parse(self):
        rows = timeline.parse_ntfs_csv(journal_text())
        assert len(rows) == 5
        first = rows[0]
        assert first.lsn == 274599978
        assert first.event == "File Creation"
        assert first.file_name == "VictimToSuspect.txt"
        assert first.full_path.endswith("Downloads\\VictimToSuspect.txt")
        assert first.detail is None

    def test_first_event_frozen(self):
        events = timeline.ingest_ntfs_csv(journal_text())
        first = events[0]
        assert first.when.isoformat_ms() == "2015-01-22T11:46:02.000Z"
        assert first.kind is EventKind.FS_JOURNAL
        assert first.app is App.OTHER
        assert first.summary == "File Creation VictimToSuspect.txt"
        assert first.provenance.channel is Channel.INGESTED_CSV

    def test_blank_time_rows_inherit(self):
        warnings = []
        events = timeline.ingest_ntfs_csv(journal_text(), warnings)
        assert len(events) == 5
        # The two deletion rows have no Event Time and ride on the move row.
        assert events[3].when == events[2].when
        assert events[4].when == events[2].when
        assert events[2].when.isoformat_ms() == "2015-01-22T11:52:18.000Z"
        inherited = [w for w in warnings if "time-inherited" in w]
        assert len(inherited) == 2
        assert "274611021" in inherited[0]

    def test_assumed_utc_noted(self):
        warnings = []
        timeline.ingest_ntfs_csv(journal_text(), warnings)
        assert any("assumed UTC" in w for w in warnings)

    def test_offset_override(self):
        warnings = []
        events = timeline.ingest_ntfs_csv(journal_text(), warnings,
                                          utc_offset_minutes=480)
        assert events[0].when.isoformat_ms() == "2015-01-22T03:46:02.000Z"
        assert events[0].when.raw == "2015-01-22 11:46:02"
        assert any("+480" in w for w in warnings)

    def test_header_case_and_order_free(self):
        header = ("full path", "EVENT", "lsn", "Event Time", "File Name")
        rows = [("Users\\x\\a.txt", "File Creation", "7", "2015-01-22 11:46:02", "a.txt")]
        events = timeline.ingest_ntfs_csv(journal_text(header, rows))
        assert events[0].summary == "File Creation a.txt"

    def test_header_only_is_empty(self):
        assert timeline.ingest_ntfs_csv(journal_text(rows=())) == []

    def test_missing_columns(self):
        header = ("LSN", "Event Time", "Event", "Detail", "File Name")
        with pytest.raises(timeline.MissingColumns, match="full path"):
            timeline.parse_ntfs_csv(journal_text(header=header))

    def test_not_csv_binary(self):
        with pytest.raises(timeline.NotCsv):
            timeline.parse_ntfs_csv(b"\x00\x01\x02PK")

    def test_not_csv_single_column(self):
        with pytest.raises(timeline.NotCsv):
            timeline.parse_ntfs_csv("just a log line\nanother line\n")

    def test_unreadable_lsn_skipped(self):
        warnings = []
        rows = list(sd.NTFS_CSV_ROWS[:1]) + [("oops",) + sd.NTFS_CSV_ROWS[1][1:]]
        parsed = timeline.parse_ntfs_csv(journal_text(rows=rows), warnings)
        assert len(parsed) == 1
        assert any("LSN" in w and "skipped" in w for w in warnings)

    @pytest.mark.parametrize("path", ["", "\\", "  "])
    def test_row_with_no_event_name_or_path_costs_only_its_row(self, path):
        """A timed row that names nothing would have no summary; it is skipped, not fatal to the journal."""
        first, second = sd.NTFS_CSV_ROWS[0], sd.NTFS_CSV_ROWS[1]
        empty = ("1", "2015-01-22 11:46:02", "", "", "", path)
        warnings = []
        events = timeline.ingest_ntfs_csv(journal_text(rows=[first, empty, second]), warnings)
        assert [event.summary for event in events] == ["File Creation %s" % row[4] for row in (first, second)]
        assert warnings == ["journal times carry no zone marker, assumed UTC",
                            "line 3: no event, file name or path, row skipped"]

    def test_row_naming_only_a_path_is_kept(self):
        warnings = []
        (event,) = timeline.ingest_ntfs_csv(journal_text(rows=[("1", "2015-01-22 11:46:02", "", "", "", "C:\\a.txt")]),
                                            warnings)
        assert event.summary == "a.txt"
        assert warnings == ["journal times carry no zone marker, assumed UTC"]

    @pytest.mark.parametrize("bom, encoding, name", [
        (b"", "utf-8", "UTF-8"), (b"\xef\xbb\xbf", "utf-8", "UTF-8"), (b"\xff\xfe", "utf-16-le", "UTF-16")])
    def test_undecodable_file_raises_not_csv_naming_the_byte(self, tmp_path, bom, encoding, name):
        text = journal_text().encode(encoding)
        bad = {"UTF-8": b"\xff", "UTF-16": b"\x00\xdc"}[name]  # a lone low surrogate in UTF-16LE
        at = len(bom) + len(text) // 2 // 2 * 2
        path = tmp_path / "journal.csv"
        path.write_bytes(bom + text[:at - len(bom)] + bad + text[at - len(bom):])
        with pytest.raises(timeline.NotCsv) as caught:
            timeline.ingest_ntfs_csv(path)
        assert str(caught.value) == "not %s text: byte 0x%02x at byte offset %d does not decode" % (name, bad[0], at)
        assert isinstance(caught.value.__cause__, UnicodeDecodeError)

    def test_oversized_field_costs_only_its_row(self):
        warnings = []
        first, second = sd.NTFS_CSV_ROWS[0], sd.NTFS_CSV_ROWS[1]
        oversized = (first[0], first[1], first[2], "x" * 200_000) + first[4:]
        parsed = timeline.parse_ntfs_csv(journal_text(rows=[first, oversized, second]), warnings)
        assert [row.lsn for row in parsed] == [int(first[0]), int(second[0])]
        assert warnings == ["line 3: unreadable as CSV (field larger than field limit (131072)), row skipped"]

    def test_no_rows_from_inside_an_oversized_quoted_field(self):
        warnings = []
        first, second = sd.NTFS_CSV_ROWS[0], sd.NTFS_CSV_ROWS[1]
        planted = "7,2015-01-22 11:46:02,Fake Event,,x.txt,Users\\x.txt"
        spanning = "\n".join(["x" * 70_000] * 3 + [planted])
        oversized = (first[0], first[1], first[2], spanning) + first[4:]
        parsed = timeline.parse_ntfs_csv(journal_text(rows=[first, oversized, second]), warnings)
        assert [row.lsn for row in parsed] == [int(first[0]), int(second[0])]
        assert warnings == ["line 3: unreadable as CSV (field larger than field limit (131072)), row skipped"]

    def test_warnings_name_the_physical_line(self):
        first, second = sd.NTFS_CSV_ROWS[0], sd.NTFS_CSV_ROWS[1]
        spanning = (first[0], first[1], first[2], "one\ntwo\nthree") + first[4:]
        oversized = (first[0], first[1], first[2], "\n".join(["x" * 70_000] * 3)) + first[4:]
        bad_lsn = ("oops",) + second[1:]
        warnings = []
        timeline.parse_ntfs_csv(journal_text(rows=[spanning, bad_lsn]), warnings)
        assert warnings == ["line 5: unreadable LSN 'oops', row skipped"]
        warnings = []  # and after a row the csv module could not read
        timeline.parse_ntfs_csv(journal_text(rows=[first, oversized, bad_lsn]), warnings)
        assert warnings == ["line 3: unreadable as CSV (field larger than field limit (131072)), row skipped",
                            "line 6: unreadable LSN 'oops', row skipped"]

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.text(alphabet='a,"\n\r', max_size=12))
    def test_record_grammar_splits_as_the_csv_module_does(self, text):
        try:
            whole = list(csv.reader(io.StringIO(text)))
        except csv.Error:  # a bare carriage return inside a line
            return
        pieces, start = [], 0
        while start < len(text):
            end = timeline._CSV_RECORD.match(text, start).end()
            pieces.append(text[start:end])
            start = end
        assert [row for piece in pieces for row in csv.reader(io.StringIO(piece))] == whole

    def test_unreadable_time_treated_blank(self):
        warnings = []
        rows = [
            sd.NTFS_CSV_ROWS[0],
            ("274600000", "not a date", "File Deletion", "", "a.txt", "Users\\x\\a.txt"),
        ]
        events = timeline.ingest_ntfs_csv(journal_text(rows=rows), warnings)
        assert events[1].when == events[0].when
        assert any("treated as blank" in w for w in warnings)

    @pytest.mark.parametrize("raw, offset", [
        ("0001-01-01T00:00:00+01:00", 0), ("9999-12-31T23:59:59-01:00", 0), ("9999-12-31 23:59:59", -60),
    ])
    def test_time_past_the_range_edge_costs_only_its_row(self, raw, offset):
        """A time outside datetime's range, as written or once shifted by the offset, is read as blank."""
        warnings = []
        rows = [sd.NTFS_CSV_ROWS[0], ("274600000", raw, "File Deletion", "", "a.txt", "Users\\x\\a.txt")]
        events = timeline.ingest_ntfs_csv(journal_text(rows=rows), warnings, utc_offset_minutes=offset)
        assert len(events) == 2 and events[1].when == events[0].when
        assert "line 3: unreadable event time %r, treated as blank" % raw in warnings

    def test_leading_blank_time_row_skipped(self):
        warnings = []
        rows = [("1", "", "File Deletion", "", "a.txt", "Users\\x\\a.txt")]
        assert timeline.ingest_ntfs_csv(journal_text(rows=rows), warnings) == []
        assert any("no preceding timed row" in w for w in warnings)

    def test_cr_only_line_ends_read_alike_from_path_bytes_and_stream(self, tmp_path):
        """A journal with CR-only line ends gives one set of events whether it is named, given or streamed."""
        forge.forge_fixture(7, tmp_path / "evidence")
        data = (tmp_path / "evidence" / forge.NTFS_CSV_NAME).read_bytes().replace(b"\r\n", b"\r")
        assert b"\n" not in data
        target = tmp_path / "journal.csv"
        target.write_bytes(data)
        by_path = timeline.ingest_ntfs_csv(target, evidence_path="journal.csv")
        assert len(by_path) == 5
        assert timeline.ingest_ntfs_csv(data, evidence_path="journal.csv") == by_path
        assert timeline.ingest_ntfs_csv(io.BytesIO(data), evidence_path="journal.csv") == by_path

    def test_path_input(self, tmp_path):
        target = tmp_path / "journal.csv"
        target.write_text(journal_text())
        events = timeline.ingest_ntfs_csv(target)
        assert len(events) == 5
        assert events[0].provenance.evidence_path == str(target)

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_every_source_and_line_end_reads_alike(self, tmp_path, ending):
        """A str, StringIO, bytes, BytesIO and Path holding one journal give one set of events."""
        expected = timeline.ingest_ntfs_csv(journal_text(), evidence_path="journal.csv")
        assert len(expected) == 5
        text = journal_text().replace("\r\n", "\n").replace("\n", ending)
        target = tmp_path / "journal.csv"
        target.write_bytes(text.encode("utf-8"))
        sources = {"str": text, "StringIO": io.StringIO(text), "bytes": text.encode("utf-8"),
                   "BytesIO": io.BytesIO(text.encode("utf-8")), "Path": target}
        read = {name: timeline.ingest_ntfs_csv(source, evidence_path="journal.csv")
                for name, source in sources.items()}
        assert [name for name, events in read.items() if events != expected] == []

    def test_a_str_naming_a_file_is_text(self, tmp_path, monkeypatch):
        """A one-line str is CSV text, even when it names a journal that exists."""
        target = tmp_path / "journal.csv"
        target.write_text(journal_text())
        monkeypatch.chdir(tmp_path)
        for name in (str(target), "journal.csv"):
            with pytest.raises(timeline.NotCsv, match="no delimited columns"):
                timeline.ingest_ntfs_csv(name)

    def test_lsn_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            timeline.NtfsJournalRow(lsn=-1, event_time=None, event="x",
                                    file_name="a", full_path="b")


def fb_analytics(name, when_ms=1421898314666):
    return facebook.FbAnalyticsEvent(
        row_id=1, when=ts_from_unix(when_ms, "millis"), log_type="client_event",
        name=name, module="m", extra="{}", provenance=DB_PROV)


def fb_message(row=None):
    row = row or sd.MESSAGE_ROWS[2]
    sender = json.loads(row["sender"])
    return facebook.FbMessage(
        row_id=row["rowid"], mid=row["mid"], thread_id=row["tid"],
        body=row["body"], when=ts_from_unix(row["timestamp"], "millis"),
        sender_uid=sender.get("user_id"), sender_name=sender.get("name"),
        sender_email=sender.get("email"), sender_raw=row["sender"],
        tags=tuple(json.loads(row["tags"])),
        attachments=tuple(facebook.parse_fb_attachments(row["attachments"])),
        attachments_raw=row["attachments"], provenance=DB_PROV)


class TestNormalizeFacebook:
    def test_analytics_login(self):
        (event,) = timeline.normalize([fb_analytics("login")])
        assert event.kind is EventKind.LOGIN
        assert event.app is App.FACEBOOK
        assert event.when.isoformat_ms() == "2015-01-22T03:45:14.666Z"
        assert event.summary == "analytics login"

    @pytest.mark.parametrize("name,kind", [
        ("login", EventKind.LOGIN),
        ("file_downloaded", EventKind.FILE_DOWNLOAD),
        ("message_sent_attempt", EventKind.MESSAGE_SENT),
        ("message_send_state", EventKind.MESSAGE_SENT),
        ("chat_turned_on", EventKind.APP_LAUNCH),
        ("something_else", EventKind.APP_LAUNCH),
    ])
    def test_analytics_mapping(self, name, kind):
        (event,) = timeline.normalize([fb_analytics(name)])
        assert event.kind is kind

    def test_message_received_counterpart(self):
        # Cached thread row authored by the other party.
        (event,) = timeline.normalize([fb_message()], fb_owner_uid=sd.OWNER_UID)
        assert event.kind is EventKind.MESSAGE_RECEIVED
        assert event.when.isoformat_ms() == "2015-01-19T05:19:04.425Z"
        assert event.counterpart == "Jack Jeffrey"
        assert event.actor == "Jack Jeffrey"
        assert 'message "Hello Victim"' == event.summary

    def test_message_sent_tag_wins(self):
        (event,) = timeline.normalize([fb_message(sd.MESSAGE_ROWS[0])])
        assert event.kind is EventKind.MESSAGE_SENT
        assert event.counterpart is None

    def test_message_owner_unknown_is_undetermined(self):
        warnings = []
        (event,) = timeline.normalize([fb_message()], warnings=warnings)
        assert event.kind is EventKind.MESSAGE_RECEIVED
        assert timeline.UNDETERMINED_MARK in event.summary
        assert any("direction undetermined" in w for w in warnings)

    def test_message_attachments_noted(self):
        (event,) = timeline.normalize([fb_message(sd.MESSAGE_ROWS[3])],
                                      fb_owner_uid=sd.OWNER_UID)
        assert event.kind is EventKind.MESSAGE_SENT
        assert "with 2 attachments" in event.summary

    def test_notification(self):
        row = sd.NOTIFICATION_ROWS[0]
        record = facebook.FbNotification(
            notification_id=row["notification_id"], sender_id=row["sender_id"],
            title_text=row["title_text"], href=row["href"], unread_flag=row["unread"],
            created=ts_from_unix(1421900000, "seconds"), updated=None,
            provenance=DB_PROV)
        (event,) = timeline.normalize([record])
        assert event.kind is EventKind.NOTIFICATION
        assert "accepted your friend request" in event.summary
        assert event.counterpart == sd.CORRESPONDENT_UID

    def test_notification_without_instant_skipped(self):
        record = facebook.FbNotification(
            notification_id="n1", sender_id=None, title_text=None, href=None,
            unread_flag=0, created=None, updated=None, provenance=DB_PROV)
        warnings = []
        assert timeline.normalize([record], warnings=warnings) == []
        assert any("skipped" in w for w in warnings)

    def test_chat_fragment(self):
        carved = Provenance("memory.bin", "test", Channel.CARVED, byte_offset=700)
        record = facebook.ChatFragment(
            offset=700, parsed=True, raw=b"{}", provenance=carved,
            message=sd.CHAT_PUSH_MESSAGE, time=ts_from_unix(sd.CHAT_PUSH_TIME, "seconds"),
            time_raw=sd.CHAT_PUSH_TIME, sender_uid=sd.CORRESPONDENT_UID)
        (event,) = timeline.normalize([record])
        assert event.kind is EventKind.MESSAGE_RECEIVED
        assert event.provenance.byte_offset == 700
        assert sd.CHAT_PUSH_MESSAGE[:20] in event.summary

    def test_chat_fragment_unparsed_skipped(self):
        carved = Provenance("memory.bin", "test", Channel.CARVED, byte_offset=0)
        record = facebook.ChatFragment(offset=0, parsed=False, raw=b"{",
                                       provenance=carved)
        warnings = []
        assert timeline.normalize([record], warnings=warnings) == []
        assert any("unparsed" in w for w in warnings)


def skype_message(row):
    return skype.SkypeMessage(
        id=row["id"], convo_id=row["convo_id"], chatname=row["chatname"],
        author=row["author"], from_dispname=row["from_dispname"],
        when=ts_from_unix(row["timestamp"], "seconds"), type_code=row["type"],
        chatmsg_type=row["chatmsg_type"], chatmsg_status=row["chatmsg_status"],
        body_xml=row["body_xml"], participant_count=row["participant_count"],
        reason=row["reason"],
        kind=skype.classify_message(row["type"], participant_count=row["participant_count"]),
        provenance=DB_PROV)


def skype_transfer(index=0, direction=None, start=True):
    row = sd.SKYPE_TRANSFER_ROWS[index]
    return skype.SkypeTransfer(
        partner_handle=row["partner_handle"], partner_dispname=row["partner_dispname"],
        direction=direction or "transferring", type_code=row["type"],
        status_code=row["status"], failure_reason=row["failurereason"],
        start=ts_from_unix(row["starttime"], "seconds") if start else None,
        finish=None, filepath=row["filepath"], filename=row["filename"],
        filesize=int(row["filesize"]), bytes_transferred=int(row["bytestransferred"]),
        provenance=DB_PROV)


def skype_call(index=0):
    row = sd.SKYPE_CALL_ROWS[index]
    return skype.SkypeCall(
        begin=ts_from_unix(row["begin_timestamp"], "seconds"),
        host_identity=row["host_identity"], duration_s=row["duration"],
        is_incoming=bool(row["is_incoming"]), name=row["name"],
        unseen_missed=bool(row["is_unseen_missed"]), provenance=DB_PROV)


def skype_videomessage(reaction=True, creation=True):
    row = sd.SKYPE_VIDEOMESSAGE_ROW
    return skype.SkypeVideoMessage(
        sid=row["sharing_id"], local_path=row["local_path"], vod_path=row["vod_path"],
        public_link=row["public_link"], author=row["author"], progress=row["progress"],
        creation_time=ts_from_unix(row["creation_timestamp"], "seconds") if creation else None,
        reaction_time=ts_from_unix(row["reaction_timestamp"], "seconds") if reaction else None,
        status=row["status"], vod_status=row["vod_status"], provenance=DB_PROV)


class TestNormalizeSkype:
    @pytest.mark.parametrize("code,kind,summary", [
        (4, EventKind.CALL_START, "conference call"),
        (30, EventKind.CALL_START, "video session started"),
        (39, EventKind.CALL_END, "video session ended (busy)"),
        (50, EventKind.CONTACT_ADD, "contact request"),
        (51, EventKind.CONTACT_ADD, "contact request"),
        (53, EventKind.CONTACT_ADD, "contact blocked"),
        (60, EventKind.MESSAGE_SENT, 'EmoticonSent "hi"'),
        (61, EventKind.MESSAGE_SENT, 'TextSent "hi"'),
        (63, EventKind.MESSAGE_SENT, 'ContactDetailsSent "hi"'),
        (64, EventKind.MESSAGE_SENT, 'SmsSent "hi"'),
        (67, EventKind.MESSAGE_SENT, 'VoiceMessageSent "hi"'),
        (68, EventKind.FILE_TRANSFER, "file offer"),
        (110, EventKind.MESSAGE_SENT, 'BirthdayNote "hi"'),
        (999, EventKind.MESSAGE_SENT, 'Unknown "hi"'),
    ])
    def test_every_type_code(self, code, kind, summary):
        row = dict(sd.SKYPE_MESSAGE_ROWS[4], type=code, body_xml="hi", reason="busy")
        (event,) = timeline.normalize([skype_message(row)], skype_owner=sd.SKYPE_OWNER)
        assert (event.kind, event.summary) == (kind, summary)

    def test_text_sent_by_owner(self):
        (event,) = timeline.normalize([skype_message(sd.SKYPE_MESSAGE_ROWS[4])],
                                      skype_owner=sd.SKYPE_OWNER)
        assert event.kind is EventKind.MESSAGE_SENT
        assert event.actor == sd.SKYPE_OWNER
        assert event.counterpart == sd.SKYPE_PARTNER

    def test_text_received(self):
        (event,) = timeline.normalize([skype_message(sd.SKYPE_MESSAGE_ROWS[1])],
                                      skype_owner=sd.SKYPE_OWNER)
        assert event.kind is EventKind.MESSAGE_RECEIVED
        assert event.counterpart == sd.SKYPE_PARTNER
        assert 'TextSent "hello SUSPECT"' == event.summary

    def test_owner_unknown_marker(self):
        warnings = []
        (event,) = timeline.normalize([skype_message(sd.SKYPE_MESSAGE_ROWS[1])],
                                      warnings=warnings)
        assert event.kind is EventKind.MESSAGE_RECEIVED
        assert timeline.UNDETERMINED_MARK in event.summary
        assert warnings

    def test_file_offer(self):
        (event,) = timeline.normalize([skype_message(sd.SKYPE_MESSAGE_ROWS[5])],
                                      skype_owner=sd.SKYPE_OWNER)
        assert event.kind is EventKind.FILE_TRANSFER
        assert event.summary == "file offer SuspectToVictim.docx, SuspectToVictim.jpg (+4 more)"
        assert event.when.isoformat_ms() == "2015-01-19T16:43:42.000Z"
        assert event.counterpart == sd.SKYPE_PARTNER

    def test_file_offer_body_warnings_reach_the_pipeline(self):
        body = '<files><file size="-3" index="0">a.txt</file><file size="5" index="0">b.txt</file></files>'
        direct = []
        skype.parse_body_xml(body, direct)
        assert len(direct) == 2
        warnings = []
        (event,) = timeline.normalize([skype_message(dict(sd.SKYPE_MESSAGE_ROWS[5], body_xml=body))],
                                      skype_owner=sd.SKYPE_OWNER, warnings=warnings)
        assert event.summary == "file offer a.txt, b.txt"
        assert warnings == direct

    def test_video_session_pair(self):
        started, ended = timeline.normalize(
            [skype_message(sd.SKYPE_MESSAGE_ROWS[8]),
             skype_message(sd.SKYPE_MESSAGE_ROWS[9])],
            skype_owner=sd.SKYPE_OWNER)
        assert started.kind is EventKind.CALL_START
        assert ended.kind is EventKind.CALL_END
        assert ended.summary == "video session ended (busy)"

    def test_contact_ask(self):
        (event,) = timeline.normalize([skype_message(sd.SKYPE_MESSAGE_ROWS[0])],
                                      skype_owner=sd.SKYPE_OWNER)
        assert event.kind is EventKind.CONTACT_ADD
        assert event.summary == "contact request"
        assert event.counterpart == sd.SKYPE_PARTNER

    def test_transfer(self):
        (event,) = timeline.normalize([skype_transfer()], skype_owner=sd.SKYPE_OWNER)
        assert event.kind is EventKind.FILE_TRANSFER
        assert event.summary == 'file transfer "SuspectToVictim.docx" (78080 bytes)'
        assert event.when.isoformat_ms() == "2015-01-19T16:43:42.000Z"
        assert event.actor == sd.SKYPE_OWNER
        assert event.counterpart == "Adam Thomson"

    def test_transfer_receiving_is_download(self):
        (event,) = timeline.normalize([skype_transfer(direction="receiving")])
        assert event.kind is EventKind.FILE_DOWNLOAD
        assert event.actor == sd.SKYPE_PARTNER

    def test_transfer_undetermined(self):
        warnings = []
        (event,) = timeline.normalize([skype_transfer(direction="undetermined")],
                                      warnings=warnings)
        assert event.kind is EventKind.FILE_TRANSFER
        assert timeline.UNDETERMINED_MARK in event.summary
        assert warnings

    def test_transfer_without_instant_skipped(self):
        warnings = []
        assert timeline.normalize([skype_transfer(start=False)], warnings=warnings) == []
        assert any("skipped" in w for w in warnings)

    def test_call_expands_to_pair(self):
        start, end = timeline.normalize([skype_call(0)])
        assert start.kind is EventKind.CALL_START
        assert start.when.isoformat_ms() == "2015-01-19T16:46:39.000Z"
        assert end.kind is EventKind.CALL_END
        assert (end.when.utc_instant - start.when.utc_instant).total_seconds() == 14
        assert end.when.raw == 1421685999 + 14
        assert "ended after 14s" in end.summary

    def test_call_without_duration_start_only(self):
        (event,) = timeline.normalize([skype_call(1)])
        assert event.kind is EventKind.CALL_START

    def test_videomessage(self):
        (event,) = timeline.normalize([skype_videomessage()])
        assert event.kind is EventKind.VIDEO_MESSAGE
        assert event.when.isoformat_ms() == "2015-01-26T06:35:07.000Z"
        assert event.actor == sd.SKYPE_PARTNER
        assert sd.VIDEOMESSAGE_SID in event.summary

    def test_videomessage_creation_fallback(self):
        (event,) = timeline.normalize([skype_videomessage(reaction=False)])
        assert event.when.raw == 1422254000

    def test_videomessage_without_instant_skipped(self):
        warnings = []
        records = [skype_videomessage(reaction=False, creation=False)]
        assert timeline.normalize(records, warnings=warnings) == []
        assert any(sd.VIDEOMESSAGE_SID in w for w in warnings)

    def test_state_records_skipped_with_warning(self):
        record = skype.SkypeContact(
            skypename="echo123", fullname=None, displayname=None, birthday=None,
            gender=None, languages=None, country=None, city=None,
            phone_mobile=None, emails=None, last_online=None, last_used=None,
            provenance=DB_PROV)
        warnings = []
        assert timeline.normalize([record], warnings=warnings) == []
        assert any("describes state" in w for w in warnings)

    def test_unknown_record_type_raises(self):
        with pytest.raises(TypeError):
            timeline.normalize([object()])

    def test_a_subclass_of_a_record_type_raises(self):
        """Records are dispatched by their exact type, so a subclass has no mapper."""
        class LaterEvent(TimelineEvent):
            pass

        event = event_at(0)
        with pytest.raises(TypeError, match="LaterEvent"):
            timeline.normalize([LaterEvent(**{f.name: getattr(event, f.name) for f in fields(event)})])

    def test_every_record_type_has_a_mapper(self):
        """The mapper table's keys are the extractors' record classes: each dataclass with a provenance."""
        record_types = {cls for module in (facebook, skype, regexport) for cls in vars(module).values()
                        if isinstance(cls, type) and is_dataclass(cls) and cls.__module__ == module.__name__
                        and "provenance" in {f.name for f in fields(cls)}}
        record_types |= {pcap.Flow, TimelineEvent}
        table = mapping._mappers(None, None, [], Provenance("capture.pcap", "pcap.flows", Channel.NETWORK),
                                 pcap.catalog_index(None))
        assert set(table) == record_types
        assert len(table) == 17

    def test_count_formula(self):
        records = (
            [skype_message(row) for row in sd.SKYPE_MESSAGE_ROWS]
            + [skype_transfer(i) for i in range(3)]
            + [skype_call(i) for i in range(4)]
            + [skype_videomessage()]
        )
        events = timeline.normalize(records, skype_owner=sd.SKYPE_OWNER)
        with_duration = sum(1 for i in range(4) if sd.SKYPE_CALL_ROWS[i]["duration"] is not None)
        assert len(events) == len(records) + with_duration


class TestNormalizeOther:
    def test_install_record(self):
        record = regexport.InstallRecord(
            package=parse_package_id(sd.SKYPE_PACKAGE_FULL),
            install_time=ts_from_unix(1421684888, "seconds"),
            key_path="HKEY_USERS\\S\\...", interpretation="little-endian-binary",
            provenance=Provenance("export.reg", "test", Channel.REGISTRY))
        (event,) = timeline.normalize([record])
        assert event.kind is EventKind.APP_INSTALL
        assert event.app is App.SKYPE
        assert sd.SKYPE_PACKAGE_FULL in event.summary

    def test_persisted_item(self):
        record = regexport.PersistedItem(
            guid=sd.PERSISTED_ITEMS[0]["guid"],
            file_path=sd.PERSISTED_ITEMS[0]["file_path"],
            last_updated=ts_from_unix(1421701000, "seconds"),
            interpretation="little-endian-binary",
            key_path=sd.PERSISTED_BRANCH,
            provenance=Provenance("export.reg", "test", Channel.REGISTRY))
        (event,) = timeline.normalize([record])
        assert event.kind is EventKind.FILE_TRANSFER
        assert event.app is App.SKYPE
        assert event.summary == "persisted file SuspectToVictim.docx"

    def test_flow_event(self):
        frames = [
            (1421685000_000000, forge.make_tcp_packet(
                "192.168.220.176", 49200, sd.FACEBOOK_CHAT_IP, 443, b"hi")),
            (1421685001_000000, forge.make_tcp_packet(
                sd.FACEBOOK_CHAT_IP, 443, "192.168.220.176", 49200, b"yo")),
        ]
        (flow,) = pcap.read_pcap(forge.write_pcap(None, frames)).flows
        (event,) = timeline.normalize([flow], capture_path="capture.pcap")
        assert event.kind is EventKind.NETWORK_SESSION
        assert event.app is App.FACEBOOK
        assert "FacebookChat" in event.summary
        assert sd.FACEBOOK_CHAT_IP + ":443" in event.summary
        assert event.provenance.evidence_path == "capture.pcap"
        assert event.when.isoformat_ms() == "2015-01-19T16:30:00.000Z"

    def test_flow_unlabeled_is_other(self):
        frames = [(0, forge.make_udp_packet("10.0.0.1", 1111, "10.0.0.2", 2222, b"x"))]
        (flow,) = pcap.read_pcap(forge.write_pcap(None, frames)).flows
        (event,) = timeline.normalize([flow])
        assert event.app is App.OTHER
        assert "Other" in event.summary

    def test_event_passthrough(self):
        event = event_at(100)
        assert timeline.normalize([event]) == [event]


class TestMergeSort:
    def test_duplicates_collapse(self):
        event = event_at(100)
        merged = timeline.merge_sort([event, event])
        assert len(merged) == 1
        assert merged[0].duplicates == 2

    def test_duplicate_counts_accumulate(self):
        event = event_at(100)
        once = timeline.merge_sort([event, event])
        again = timeline.merge_sort(once + [event])
        assert again[0].duplicates == 3

    def test_idempotent(self):
        events = [event_at(s, summary=t) for s in (5, 3, 3) for t in "ab"]
        merged = timeline.merge_sort(events)
        assert timeline.merge_sort(merged) == merged
        assert [e.duplicates for e in timeline.merge_sort(merged)] == \
            [e.duplicates for e in merged]

    def test_ascending_by_instant(self):
        rng = random.Random(7)
        events = [event_at(rng.randrange(10_000)) for _ in range(200)]
        merged = timeline.merge_sort(events)
        instants = [e.when.utc_instant for e in merged]
        assert instants == sorted(instants)

    def test_path_breaks_ties(self):
        a = event_at(100, path="a.db")
        b = event_at(100, path="b.db")
        assert timeline.merge_sort([b, a]) == [a, b]

    def test_kind_ordinal_breaks_ties(self):
        sent = event_at(100, kind=EventKind.MESSAGE_SENT)
        received = event_at(100, kind=EventKind.MESSAGE_RECEIVED)
        assert timeline.merge_sort([received, sent]) == [sent, received]

    def test_app_breaks_ties(self):
        fb = event_at(100, app=App.FACEBOOK)
        sk = event_at(100, app=App.SKYPE)
        other = event_at(100, app=App.OTHER)
        assert timeline.merge_sort([other, sk, fb]) == [fb, sk, other]

    def test_order_independence(self):
        base = [event_at(s, summary=t, actor=a, counterpart=c)
                for s in (1, 2, 2, 3) for t in "xy" for a in (None, "", "z") for c in (None, "")]
        expected = timeline.merge_sort(base)
        for seed in range(10):
            shuffled = base[:]
            random.Random(seed).shuffle(shuffled)
            assert timeline.merge_sort(shuffled) == expected

    def test_each_event_hashed_once(self, monkeypatch):
        events = timeline.parse_jsonl(GOLDEN_SEED7.read_bytes())  # forged seed 7, merged once
        copies = timeline.parse_jsonl(GOLDEN_SEED7.read_bytes())[::3]  # equal, distinct objects
        inputs = events + copies + [events[0], events[0]]  # and one object passed three times
        expected = reference_merge_sort(inputs)
        merged, hashes = merge_counting_hashes(monkeypatch, inputs)
        assert hashes == 0
        assert merged == expected
        assert [e.duplicates for e in merged] == [e.duplicates for e in expected]
        assert sum(e.duplicates for e in merged) == sum(e.duplicates for e in inputs)

    def test_without_duplicates_each_event_hashed_once(self, monkeypatch):
        events = timeline.parse_jsonl(GOLDEN_SEED7.read_bytes())
        merged, hashes = merge_counting_hashes(monkeypatch, events)
        assert hashes == 0
        assert all(a is b for a, b in zip(merged, events))  # already merged and sorted: kept as is


def merge_counting_hashes(monkeypatch, events):
    """merge_sort(events) and the number of TimelineEvent.__hash__ calls it made."""
    hashes = []
    original = TimelineEvent.__hash__

    def counted(event):
        hashes.append(1)
        return original(event)

    with monkeypatch.context() as patch:
        patch.setattr(TimelineEvent, "__hash__", counted)
        merged = timeline.merge_sort(events)
    return merged, len(hashes)


def reference_merge_sort(events):
    """The dict-of-counts merge that merge_sort replaced: the oracle for its counts."""
    merged = {}
    for event in events:
        merged[event] = merged.get(event, 0) + event.duplicates
    out = [event if event.duplicates == count else replace(event, duplicates=count)
           for event, count in merged.items()]
    out.sort(key=timeline._total_key)
    return out


def total_key_merge(events):
    """merge_sort as one stable sort by _total_key that collapses equal neighbours: the reference for its tie runs."""
    out = []
    for _, run in groupby(sorted(events, key=timeline._total_key), key=timeline._total_key):
        first, *rest = run
        out.append(replace(first, duplicates=first.duplicates + sum(e.duplicates for e in rest)) if rest else first)
    return out


def mixed_report():
    records = (
        [fb_analytics("login")]
        + [fb_message(row) for row in sd.MESSAGE_ROWS]
        + [skype_message(row) for row in sd.SKYPE_MESSAGE_ROWS]
        + [skype_call(i) for i in range(4)]
        + [skype_transfer(i) for i in range(6)]
    )
    warnings = []
    events = timeline.normalize(records, fb_owner_uid=sd.OWNER_UID,
                                skype_owner=sd.SKYPE_OWNER, warnings=warnings)
    events += timeline.ingest_ntfs_csv(journal_text(), warnings)
    return timeline.build_report(events, warnings, generated_at="2015-02-13T00:00:00Z")


class TestReport:
    def test_counts_match_events(self):
        report = mixed_report()
        total = sum(n for per_app in report.counts.values() for n in per_app.values())
        assert total == len(report.events)
        assert report.counts["other"]["FsJournal"] == 5
        assert report.counts["skype"]["CallEnd"] >= 2

    def test_events_sorted(self):
        report = mixed_report()
        instants = [e.when.utc_instant for e in report.events]
        assert instants == sorted(instants)
        assert report.tool_version

    def test_jsonl_field_order_stable(self):
        data = timeline.emit(mixed_report(), "jsonl")
        for line in data.decode("utf-8").splitlines():
            assert tuple(json.loads(line).keys()) == timeline.EMIT_FIELDS

    def test_jsonl_round_trip(self):
        report = mixed_report()
        assert timeline.parse_jsonl(timeline.emit(report, "jsonl")) == report.events

    def test_jsonl_round_trip_keeps_duplicates(self):
        event = event_at(100)
        report = timeline.build_report([event, event])
        (back,) = timeline.parse_jsonl(timeline.emit(report, "jsonl"))
        assert back.duplicates == 2

    def test_csv_layout(self):
        report = mixed_report()
        data = timeline.emit(report, "csv")
        assert b"\r\n" in data
        rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
        assert tuple(rows[0]) == timeline.EMIT_FIELDS
        assert len(rows) == len(report.events) + 1

    def test_csv_quoting_survives_commas(self):
        event = event_at(100, summary='tricky, "quoted" summary')
        report = timeline.build_report([event])
        rows = list(csv.reader(io.StringIO(timeline.emit(report, "csv").decode("utf-8"))))
        assert rows[1][timeline.EMIT_FIELDS.index("summary")] == 'tricky, "quoted" summary'

    def test_empty_report(self):
        report = timeline.build_report([])
        assert timeline.emit(report, "jsonl") == b""
        lines = timeline.emit(report, "csv").decode("utf-8").splitlines()
        assert len(lines) == 1

    def test_carved_offset_round_trips(self):
        carved = Provenance("memory.bin", "test", Channel.CARVED, byte_offset=12345)
        event = TimelineEvent(when=ts_from_unix(100, "seconds"),
                              kind=EventKind.MESSAGE_RECEIVED, app=App.FACEBOOK,
                              summary="x", provenance=carved)
        report = timeline.build_report([event])
        (back,) = timeline.parse_jsonl(timeline.emit(report, "jsonl"))
        assert back.provenance.byte_offset == 12345
        assert back == event

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            timeline.emit(timeline.build_report([]), "xml")

    def test_parse_jsonl_skips_blank_lines(self):
        report = timeline.build_report([event_at(100)])
        data = timeline.emit(report, "jsonl") + b"\n\n"
        assert timeline.parse_jsonl(data) == report.events


# Line breaks to str.splitlines that emit writes raw inside JSON strings; the
# reference parser splits lines at them, which is the fault parse_jsonl mends.
RAW_LINE_BREAKS = ("\x85", "\u2028", "\u2029")


def _event_holding(field, text):
    """An event whose field (an emitted field name) holds text."""
    event = event_at(100, actor="a", counterpart="b")
    if field == "evidence_path":
        return replace(event, provenance=replace(event.provenance, evidence_path=text))
    if field == "when_raw":
        return replace(event, when=replace(event.when, raw=text))
    return replace(event, **{field: text})


class TestRawLineBreaksInFields:
    """U+0085, U+2028 and U+2029 are written raw inside JSON strings and end no line."""

    @pytest.mark.parametrize("char", RAW_LINE_BREAKS)
    @pytest.mark.parametrize("field", ["evidence_path", "actor", "counterpart", "summary", "when_raw"])
    def test_round_trip(self, field, char):
        events = [_event_holding(field, "a%sb" % char), event_at(200), _event_holding(field, char)]
        data = timeline.emit(bare_report(events), "jsonl")
        assert data.count(char.encode("utf-8")) == 2  # raw, not escaped
        for loaded in (data, data.decode("utf-8")):
            back = timeline.parse_jsonl(loaded)
            assert back == events
            assert [repr(event) for event in back] == [repr(event) for event in events]
            assert timeline.emit(bare_report(back), "jsonl") == data


# Derived from each test's source and without an example database, so every
# run checks the same inputs.
PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None)

# Whitespace to str.split, including separators textwrap does not treat as
# whitespace, mixed with words and hyphens that textwrap breaks on.
SHORT_TEXT = st.lists(
    st.one_of(
        st.sampled_from(list(" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u3000") + ["-", "a", "word", "é"]),
        st.characters(),
    ),
    max_size=60,
).map("".join)


# Hyphens, dash runs and words longer than any width in test: the text
# textwrap splits at hyphens, so the summary must still go through it.
HYPHEN_TEXT = st.lists(
    st.one_of(
        st.sampled_from(["-", "--", "---", "-" * 12, " ", "  ", "a", "ab", "word", "é", "1",
                         "a-b", "-a", "a-", "x" * 40, "y" * 120, ",", "\t"]),
        st.text(alphabet="ab- ", max_size=20),
    ),
    max_size=40,
).map("".join)


def check_short(text, width, delta):
    """_short equals textwrap.shorten at width, around the collapsed length and at 80."""
    boundary = max(3, len(" ".join(text.split())) + delta)
    for w in (width, boundary, 80):
        want = textwrap.shorten(text, width=w, placeholder="...") if text else ""
        assert timeline._short(text, w) == want


class TestShort:
    @PROPERTY
    @given(SHORT_TEXT, st.integers(min_value=3, max_value=100), st.integers(min_value=-2, max_value=2))
    def test_matches_textwrap_shorten(self, text, width, delta):
        check_short(text, width, delta)

    @PROPERTY
    @given(HYPHEN_TEXT, st.integers(min_value=3, max_value=100), st.integers(min_value=-2, max_value=2))
    def test_hyphen_heavy_text_matches_textwrap_shorten(self, text, width, delta):
        check_short(text, width, delta)

    def test_hyphen_at_each_position_near_the_cut(self):
        # The fast path must hand every text whose hyphens can move the cut to textwrap.
        for width in range(4, 24):
            for base in ("ab cd efg hi " * 6, "abcdefghij" * 8, "a b " * 20):
                for at in range(width + 4):
                    for piece in ("-", "--", "a-b", "ab--cd", "---"):
                        text = base[:at] + piece + base[at:]
                        want = textwrap.shorten(text, width=width, placeholder="...")
                        assert timeline._short(text, width) == want, (text, width)

    def test_text_without_hyphen_skips_textwrap(self, monkeypatch):
        original = textwrap.shorten
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(textwrap, "shorten", counted)
        rng = random.Random(5)
        words = ["a", "message", "x" * 90, "é", "ok,", "fine."]
        for _ in range(200):
            text = "  ".join(rng.choice(words) for _ in range(rng.randrange(1, 40)))
            for width in (4, 5, 10, 40, 80):
                assert timeline._short(text, width) == original(text, width=width, placeholder="...")
        assert calls == []
        assert timeline._short("well-known " * 10, 80) == original("well-known " * 10, width=80, placeholder="...")
        assert len(calls) == 1

    def test_none_and_empty(self):
        assert timeline._short(None) == ""
        assert timeline._short("") == ""


MS_DATETIMES = st.datetimes(
    min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59, 999000),
).map(lambda dt: dt.replace(microsecond=dt.microsecond - dt.microsecond % 1000))


class TestWhenUtc:
    @PROPERTY
    @given(MS_DATETIMES)
    def test_fast_path_matches_ts_from_iso_text(self, dt):
        text = dt.isoformat(timespec="milliseconds") + "Z"
        assert timeline._WHEN_UTC_RE.fullmatch(text)
        fast = timeline._utc_from_when(text)
        try:
            want = reference_ts_from_iso_text(text).utc_instant
        except OutOfRange:  # before 1601; parse_jsonl's Timestamp rejects it as well
            with pytest.raises(OutOfRange):
                Timestamp(fast, "iso_text", text)
        else:
            assert fast == want

    @pytest.mark.parametrize("text", [
        "2015-01-22T03:45:14.666Z",
        "2015-01-22 03:45:14.666Z",
        "2015-01-22T03:45:14Z",
        "2015-01-22T03:45:14.666",
        "2015-01-22T03:45:14.666+01:00",
        " 2015-01-22T03:45:14.666Z ",
    ])
    def test_other_text_falls_back(self, text):
        assert timeline._utc_from_when(text) == reference_ts_from_iso_text(text).utc_instant

    @pytest.mark.parametrize("text", [
        "2015-13-22T03:45:14.666Z",
        "2015-02-30T03:45:14.666Z",
        "2015-01-22T24:00:00.000Z",
        "2015-01-22T03:45:60.000Z",
        "0000-01-01T00:00:00.000Z",
        "２０１５-01-22T03:45:14.666Z",
    ])
    def test_shaped_but_invalid_text_raises_as_before(self, text):
        try:
            want = reference_ts_from_iso_text(text).utc_instant
        except OutOfRange:
            with pytest.raises(OutOfRange):
                timeline._utc_from_when(text)
        else:
            assert timeline._utc_from_when(text) == want

    @PROPERTY
    @given(st.lists(st.datetimes(min_value=datetime(1601, 1, 1),
                                 max_value=datetime(9999, 12, 31, 23, 59, 59, 999000),
                                 timezones=st.just(timezone.utc)),
                    min_size=1, max_size=5))
    def test_emit_parse_identity(self, instants):
        events = [
            TimelineEvent(
                when=Timestamp(dt.replace(microsecond=dt.microsecond - dt.microsecond % 1000), "unix_millis", i),
                kind=EventKind.LOGIN, app=App.FACEBOOK, summary="s%d" % i, provenance=DB_PROV)
            for i, dt in enumerate(instants)
        ]
        data = timeline.emit(timeline.build_report(events), "jsonl")
        back = timeline.parse_jsonl(data)
        assert back == timeline.build_report(events).events
        assert timeline.emit(timeline.build_report(back), "jsonl") == data

    def test_parse_jsonl_takes_the_fast_path(self, monkeypatch):
        report = mixed_report()
        calls = []
        monkeypatch.setattr(timeline, "ts_from_iso_text", lambda text: calls.append(text))
        assert timeline.parse_jsonl(timeline.emit(report, "jsonl")) == report.events
        assert calls == []


# The EMIT_FIELDS of one event by name: the reference both renderers are checked against.
def _event_fields(event: TimelineEvent) -> dict:
    return {
        "when_utc": event.when.isoformat_ms(),
        "when_raw": event.when.raw,
        "encoding": event.when.encoding,
        "kind": event.kind.value,
        "app": event.app.value,
        "actor": event.actor,
        "counterpart": event.counterpart,
        "summary": event.summary,
        "evidence_path": event.provenance.evidence_path,
        "byte_offset": event.provenance.byte_offset,
        "channel": event.provenance.channel.value,
        "extractor": event.provenance.extractor,
        "duplicates": event.duplicates,
    }


def reference_emit_csv(report):
    """The StringIO rendering that the streaming CSV writer replaced: the oracle for its bytes."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(timeline.EMIT_FIELDS)
    for event in report.events:
        fields = _event_fields(event)
        writer.writerow(["" if fields[name] is None else fields[name] for name in timeline.EMIT_FIELDS])
    return out.getvalue().encode("utf-8")


# Subclasses of str and int, which the renderer passes to the general encoder.
class TaggedText(str):
    pass


class TaggedInt(int):
    pass


# Text the JSON encoder escapes or must pass through: quotes, backslashes,
# control characters, non-ASCII text and the line separators JSON allows raw.
JSON_TEXT = st.lists(
    st.one_of(st.sampled_from(['"', "\\", "\n", "\r", "\t", "\x00", "\x1f", "\x7f", "\xe9", "\u6f22",
                               "\U0001f600", "\u2028", "\u2029", "\ufeff", " ", "a"]),
              st.characters(blacklist_categories=("Cs",))),  # emit escapes lone surrogates: TestLoneSurrogate
    max_size=12,
).map("".join)
NONEMPTY_JSON_TEXT = JSON_TEXT.filter(bool)
MS_INSTANTS = st.datetimes(min_value=datetime(1601, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59, 999000),
                           timezones=st.just(timezone.utc)).map(
    lambda dt: dt.replace(microsecond=dt.microsecond - dt.microsecond % 1000))
BIG = 2**70
PROVENANCES = st.one_of(
    st.builds(Provenance, NONEMPTY_JSON_TEXT, JSON_TEXT,
              st.sampled_from([c for c in Channel if c is not Channel.CARVED])),
    st.builds(Provenance, NONEMPTY_JSON_TEXT, JSON_TEXT, st.just(Channel.CARVED),
              st.integers(-BIG, BIG)),
)
EVENTS = st.builds(
    TimelineEvent,
    when=st.builds(Timestamp, MS_INSTANTS,
                   st.sampled_from(["unix_seconds", "unix_millis", "filetime_100ns", "iso_text"]),
                   st.one_of(st.integers(-BIG, BIG), JSON_TEXT, st.booleans(), st.floats(),
                             st.builds(TaggedText, JSON_TEXT), st.builds(TaggedInt, st.integers(-BIG, BIG)))),
    kind=st.sampled_from(EventKind),
    app=st.sampled_from(App),
    summary=NONEMPTY_JSON_TEXT,
    provenance=PROVENANCES,
    actor=st.none() | JSON_TEXT,
    counterpart=st.none() | JSON_TEXT,
    duplicates=st.integers(1, BIG),
)


def bare_report(events):
    """A report of exactly these events, in this order."""
    return timeline.Report(events=events, counts={}, warnings=[], tool_version="", generated_at="")


# Each example builds several events from nested strategies, so fewer examples.
EMIT_PROPERTY = settings(PROPERTY, max_examples=100)


class TestEmitOracle:
    @EMIT_PROPERTY
    @given(st.lists(EVENTS, max_size=6))
    def test_jsonl_lines_equal_json_dumps(self, events):
        data = timeline.emit(bare_report(events), "jsonl")
        want = [json.dumps(_event_fields(event), ensure_ascii=False) for event in events]
        assert data.decode("utf-8").split("\n") == want + [""]
        assert_streamed(bare_report(events), "jsonl", data)

    @EMIT_PROPERTY
    @given(st.lists(EVENTS, max_size=6))
    def test_csv_equals_string_io_rendering(self, events):
        data = timeline.emit(bare_report(events), "csv")
        assert data == reference_emit_csv(bare_report(events))
        assert_streamed(bare_report(events), "csv", data)

    @pytest.mark.parametrize("format", ["jsonl", "csv"])
    def test_stream_gets_the_returned_bytes(self, format):
        report = mixed_report()
        assert_streamed(report, format, timeline.emit(report, format))

    def test_unknown_format_writes_nothing(self):
        stream = io.BytesIO()
        with pytest.raises(ValueError):
            timeline.emit(mixed_report(), "xml", stream)
        assert stream.getvalue() == b"" and not stream.closed


def assert_streamed(report, format, data):
    """emit with a stream appends exactly data to it, returns None and leaves it open."""
    stream = io.BytesIO()
    stream.write(b"before\n")
    assert timeline.emit(report, format, stream) is None
    assert not stream.closed
    assert stream.getvalue() == b"before\n" + data


class TestLoneSurrogate:
    """Text recovered from memory may hold a lone surrogate, which UTF-8 cannot hold."""

    EVENT = TimelineEvent(when=ts_from_unix(1421685383, "seconds"), kind=EventKind.MESSAGE_RECEIVED,
                          app=App.FACEBOOK, summary="caf\ud800 \\\ud800", actor="\udfff",
                          provenance=Provenance("mem\ud800.bin", "test", Channel.CARVED, byte_offset=7))

    def test_jsonl_writes_the_json_escape_and_reads_back(self):
        data = timeline.emit(bare_report([self.EVENT]), "jsonl")
        assert b"\\ud800" in data and b"\\udfff" in data
        (back,) = timeline.parse_jsonl(data)
        assert back == self.EVENT
        assert timeline.emit(bare_report([back]), "jsonl") == data

    def test_csv_writes_the_backslash_escape(self):
        data = timeline.emit(bare_report([self.EVENT]), "csv")
        rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
        assert rows[1][timeline.EMIT_FIELDS.index("summary")] == "caf\\ud800 \\\\ud800"


# Small pools so that the leading fields of sort keys tie often: None and ""
# actors and counterparts, and 5 and "5" raw values, differ only in the last
# fields of the key.
MERGE_EVENTS = st.builds(
    TimelineEvent,
    when=st.builds(lambda seconds, encoding, raw: Timestamp(ts_from_unix(seconds, "seconds").utc_instant,
                                                            encoding, raw),
                   st.sampled_from([100, 101]), st.sampled_from(["unix_seconds", "iso_text"]),
                   st.sampled_from([5, "5", 6])),
    kind=st.sampled_from([EventKind.LOGIN, EventKind.MESSAGE_SENT]),
    app=st.sampled_from([App.FACEBOOK, App.SKYPE]),
    summary=st.sampled_from(["a", "b"]),
    provenance=st.sampled_from([DB_PROV, Provenance("main.db", "other", Channel.DATABASE),
                                Provenance("main.db", "test", Channel.CARVED, byte_offset=0),
                                Provenance("main.db", "test", Channel.CARVED, byte_offset=-1)]),
    actor=st.sampled_from([None, "", "x"]),
    counterpart=st.sampled_from([None, ""]),
    duplicates=st.integers(1, 3),
)


class TestMergeOracle:
    @PROPERTY
    @given(st.lists(MERGE_EVENTS, min_size=1, max_size=12), st.lists(st.integers(0, 11), max_size=6), st.data())
    def test_equals_reference_merge(self, events, repeats, data):
        # one object passed several times, at places the property chooses
        inputs = data.draw(st.permutations(events + [events[i % len(events)] for i in repeats]))
        merged = timeline.merge_sort(inputs)
        expected = reference_merge_sort(inputs)
        assert [repr(event) for event in merged] == [repr(event) for event in expected]
        assert [event.duplicates for event in merged] == [event.duplicates for event in expected]
        assert sum(event.duplicates for event in merged) == sum(event.duplicates for event in inputs)

    @PROPERTY
    @given(st.lists(MERGE_EVENTS, min_size=1, max_size=24), st.lists(st.integers(0, 23), max_size=6), st.data())
    def test_equals_one_sort_by_total_key(self, events, repeats, data):
        # MERGE_EVENTS draws from small pools, so sort keys tie often
        inputs = data.draw(st.permutations(events + [events[i % len(events)] for i in repeats]))
        merged = timeline.merge_sort(inputs)
        expected = total_key_merge(inputs)
        assert [repr(event) for event in merged] == [repr(event) for event in expected]
        assert [event.duplicates for event in merged] == [event.duplicates for event in expected]
        # where nothing collapsed, the kept event is the input object that the stable sort put first
        given_ids = {id(event) for event in inputs}
        assert all(a is b for a, b in zip(merged, expected) if id(b) in given_ids)

    @PROPERTY
    @given(MERGE_EVENTS, MERGE_EVENTS, st.sets(st.sampled_from(
        ["when", "kind", "app", "summary", "provenance", "actor", "counterpart", "duplicates"])))
    def test_equal_keys_exactly_when_equal_events(self, a, other, fields):
        # b takes some of other's fields, so that it often differs from a in one only
        b = replace(a, **{name: getattr(other, name) for name in fields})
        assert (timeline._total_key(a) == timeline._total_key(b)) == (a == b)


# parse_jsonl and _utc_from_when as they were before parse_jsonl shared
# Provenances and looked enum members up in dicts: the oracle for the load path.
_REFERENCE_WHEN_UTC_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}\.[0-9]{3}Z")


def _reference_utc_from_when(text: str) -> datetime:
    """Instant of an emitted when_utc; other text goes through ts_from_iso_text."""
    if _REFERENCE_WHEN_UTC_RE.fullmatch(text):
        try:
            # Without the Z, so that Python 3.10's fromisoformat accepts it.
            return datetime.fromisoformat(text[:-1]).replace(tzinfo=timezone.utc)
        except ValueError:
            pass
    return ts_from_iso_text(text).utc_instant


def reference_parse_jsonl(data: bytes | str) -> list[TimelineEvent]:
    """Rebuild the event list emit() serialized; emit∘parse is identity."""
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    events: list[TimelineEvent] = []
    for line in text.splitlines():
        if not line.strip():
            continue
        fields = json.loads(line)
        instant = _reference_utc_from_when(fields["when_utc"])
        when = Timestamp(instant, fields["encoding"], fields["when_raw"])
        events.append(TimelineEvent(
            when=when,
            kind=EventKind(fields["kind"]),
            app=App(fields["app"]),
            summary=fields["summary"],
            provenance=Provenance(
                evidence_path=fields["evidence_path"],
                extractor=fields["extractor"],
                channel=Channel(fields["channel"]),
                byte_offset=fields["byte_offset"],
            ),
            actor=fields["actor"],
            counterpart=fields["counterpart"],
            duplicates=fields.get("duplicates", 1),
        ))
    return events


def load_outcome(parse, data):
    """What parse makes of data: the exception type it raises, or the re-emitted bytes and reprs.

    The bytes tell 1, 1.0 and true apart, which == does not.
    """
    try:
        events = parse(data)
    except Exception as error:
        return type(error)
    return timeline.emit(bare_report(events), "jsonl"), [repr(event) for event in events]


GOLDEN_LINES = GOLDEN_SEED7.read_text(encoding="utf-8").splitlines()
MISSING = object()  # a field the line lacks
# Values of the wrong type, or equal in Python but told apart by JSON.
WRONG_VALUES = [1, 1.0, True, False, 0, 0.0, -0.0, 2**70, float("nan"), None, "", [], [1], {}, {"a": 1}]
ODD_WHEN_UTC = [
    "2015-01-22 03:45:14.666Z", "2015-01-22T03:45:14Z", "2015-01-22T03:45:14.666",
    "2015-01-22T03:45:14.666+01:00", " 2015-01-22T03:45:14.666Z ", "2015-13-22T03:45:14.666Z",
    "2015-02-30T03:45:14.666Z", "2015-01-22T24:00:00.000Z", "0000-01-01T00:00:00.000Z",
    "1600-12-31T23:59:59.999Z", "２０１５-01-22T03:45:14.666Z", "0001-01-01T00:00:00+01:00", "yesterday",
]
FIELD_VALUES = {
    "when_utc": ODD_WHEN_UTC,
    "encoding": ["unix_seconds", "iso_text", "epoch"],
    "kind": [kind.value for kind in EventKind] + ["appinstall", "Nope"],
    "app": [app.value for app in App] + ["Skype"],
    "channel": [channel.value for channel in Channel] + ["CARVED", "memory"],
    "byte_offset": [0, 1, 1.0, True, -0.0],
}
FIELD_EDIT = st.sampled_from(timeline.EMIT_FIELDS).flatmap(lambda name: st.tuples(
    st.just(name), st.sampled_from([MISSING, *WRONG_VALUES, *FIELD_VALUES.get(name, ())])))
ODD_LINES = ["", "   ", "\t", "\x0c", "[]", "1", "null", '"x"', "{", "{}", "﻿{}", '{"when_utc": 1}']


@st.composite
def hostile_jsonl(draw):
    """Emitted lines, some with edited fields or copied onto a carved offset, among odd lines."""
    lines = timeline.emit(bare_report(draw(st.lists(EVENTS, max_size=3))), "jsonl").decode("utf-8").split("\n")[:-1]
    lines += draw(st.lists(st.sampled_from(GOLDEN_LINES), max_size=4))
    out = []
    for line in lines:
        fields = json.loads(line)
        for name, value in draw(st.lists(FIELD_EDIT, max_size=2)):
            if value is MISSING:
                fields.pop(name, None)
            else:
                fields[name] = value
        out.append(json.dumps(fields, ensure_ascii=draw(st.booleans())))
        # The same source at offsets that are equal in Python but not in JSON.
        for offset in draw(st.lists(st.sampled_from([0, 0.0, -0.0, 1, 1.0, True]), max_size=3)):
            out.append(json.dumps(dict(fields, channel="carved", byte_offset=offset)))
    for odd in draw(st.lists(st.sampled_from(ODD_LINES), max_size=3)):
        out.insert(draw(st.integers(0, len(out))), odd)
    out = [("\x0c%s\x0c" % line) if draw(st.booleans()) else line for line in out]
    separator = draw(st.sampled_from(["\n", "\r\n"]))
    text = separator.join(out) + draw(st.sampled_from(["", separator]))
    return text.encode("utf-8") if draw(st.booleans()) else text


def escape_raw_line_breaks(data):
    """data with each RAW_LINE_BREAKS character written as its JSON escape.

    hostile_jsonl puts them only inside JSON strings, where the escape means
    the same, so the reference parser reads the result as parse_jsonl reads data.
    """
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    for char in RAW_LINE_BREAKS:
        text = text.replace(char, "\\u%04x" % ord(char))
    return text.encode("utf-8") if isinstance(data, bytes) else text


class TestParseJsonlOracle:
    @EMIT_PROPERTY
    @given(hostile_jsonl())
    def test_equals_reference_parse(self, data):
        # The reference is not given the raw line breaks it mishandles.
        want = load_outcome(reference_parse_jsonl, escape_raw_line_breaks(data))
        assert load_outcome(timeline.parse_jsonl, data) == want

    @pytest.mark.parametrize("missing", timeline.EMIT_FIELDS)
    def test_first_fault_decides_the_exception(self, missing):
        # One field missing and another wrong: the first one read must raise.
        line = json.loads(GOLDEN_LINES[0])
        for base in (line, dict(line, channel="carved", byte_offset=7)):
            for name in timeline.EMIT_FIELDS:
                for value in ("Nope", "", None, 1.0, []):
                    fields = dict(base, **{name: value})
                    fields.pop(missing)
                    data = json.dumps(fields)
                    assert load_outcome(timeline.parse_jsonl, data) == load_outcome(reference_parse_jsonl, data)

    def test_golden_report_equals_reference_parse(self):
        data = GOLDEN_SEED7.read_bytes()
        events = timeline.parse_jsonl(data)
        assert events == reference_parse_jsonl(data)
        assert timeline.emit(bare_report(events), "jsonl") == data
        assert timeline.parse_jsonl(bytearray(data)) == events  # json.loads took a bytearray line too

    def test_offsets_json_tells_apart_share_no_provenance(self):
        line = json.loads(GOLDEN_LINES[0])
        offsets = [0, 0.0, -0.0, 1, 1.0, True, 1]
        data = "\n".join(json.dumps(dict(line, channel="carved", byte_offset=offset)) for offset in offsets)
        events = timeline.parse_jsonl(data)
        assert load_outcome(timeline.parse_jsonl, data) == load_outcome(reference_parse_jsonl, data)
        assert [type(event.provenance.byte_offset) for event in events] == [type(o) for o in offsets]
        assert len({id(event.provenance) for event in events}) == 6  # only the two int 1s share one

    def test_events_from_one_source_share_one_provenance(self):
        events = timeline.parse_jsonl(GOLDEN_SEED7.read_bytes())
        by_source = {}
        for event in events:
            p = event.provenance
            by_source.setdefault((p.evidence_path, p.extractor, p.channel, p.byte_offset), set()).add(id(p))
        assert len(by_source) < len(events)
        assert all(len(ids) == 1 for ids in by_source.values())

    @pytest.mark.parametrize("value", [["AppInstall"], {"a": 1}, 1, None, "appinstall"])
    def test_odd_enum_value_raises_as_enum_does(self, value):
        line = dict(json.loads(GOLDEN_LINES[0]), kind=value)
        with pytest.raises(ValueError) as error:
            timeline.parse_jsonl(json.dumps(line))
        with pytest.raises(ValueError) as want:
            EventKind(value)
        assert str(error.value) == str(want.value)
