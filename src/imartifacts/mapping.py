"""Record mapping: place each extractor's typed records on the timeline.

``normalize`` maps Facebook, Skype, registry and capture records onto
TimelineEvents.  It is reached through ``timeline.normalize``, which loads
this module on first use, so that reading a report back needs neither the
extractors nor their dependencies.
"""

from __future__ import annotations

import re
from datetime import timedelta

from . import facebook, pcap, regexport, skype
from .model import (
    App,
    Channel,
    EventKind,
    Provenance,
    Timestamp,
    TimelineEvent,
    ts_from_unix,
)
from .timeline import UNDETERMINED_MARK, _basename, _short

_ANALYTICS_KINDS = {
    "login": EventKind.LOGIN,
    "file_downloaded": EventKind.FILE_DOWNLOAD,
    "message_sent_attempt": EventKind.MESSAGE_SENT,
    "message_send_state": EventKind.MESSAGE_SENT,
    "chat_turned_on": EventKind.APP_LAUNCH,
}

# The event kind and summary of each Skype label that is not a chat message;
# every other label, Unknown included, is a message, sent or received.
_SKYPE_NON_MESSAGES = {
    "FileSent": (EventKind.FILE_TRANSFER, "file offer"),
    "Conference": (EventKind.CALL_START, "conference call"),
    "VideoSessionStarted": (EventKind.CALL_START, "video session started"),
    "VideoSessionEnded": (EventKind.CALL_END, "video session ended"),
    "ContactAsk": (EventKind.CONTACT_ADD, "contact request"),
    "Blocked": (EventKind.CONTACT_ADD, "contact blocked"),
}

_CHATNAME_RE = re.compile(r"#([^/]+)/\$([^;]*)")

# Record types that describe state rather than a dated happening; they are
# skipped with a warning instead of being forced onto the timeline.
_STATE_RECORD_TYPES = (
    facebook.FbFriend,
    facebook.FbUser,
    skype.SkypeAccount,
    skype.SkypeContact,
    skype.CallMember,
)


def _chat_counterpart(chatname: str | None, author: str | None) -> str | None:
    """The other party of a two-sided chat name like #alice/$bob;cafe."""
    if not chatname:
        return None
    match = _CHATNAME_RE.match(chatname)
    if not match:
        return None
    for party in match.groups():
        if party and party != author:
            return party
    return None


def _skype_counterpart(record: skype.SkypeMessage, owner: str | None) -> str | None:
    """The non-owner party: the author, unless the owner authored it."""
    other = _chat_counterpart(record.chatname, record.author)
    if owner is not None and record.author == owner:
        return other
    return record.author or other


def _shift(ts: Timestamp, seconds: int) -> Timestamp:
    """A timestamp the given number of seconds later, raw value included."""
    if ts.encoding == "unix_seconds":
        return ts_from_unix(ts.raw + seconds, "seconds")
    if ts.encoding == "unix_millis":
        return ts_from_unix(ts.raw + 1000 * seconds, "millis")
    instant = ts.utc_instant + timedelta(seconds=seconds)
    epoch = int(instant.timestamp())
    return ts_from_unix(epoch, "seconds")


def _from_fb_analytics(record: facebook.FbAnalyticsEvent) -> list[TimelineEvent]:
    name = (record.name or "").strip()
    kind = _ANALYTICS_KINDS.get(name, EventKind.APP_LAUNCH)
    summary = "analytics %s" % (name or record.log_type or "event")
    return [TimelineEvent(when=record.when, kind=kind, app=App.FACEBOOK,
                          summary=summary, provenance=record.provenance)]


def _fb_direction(record: facebook.FbMessage, owner_uid: str | None) -> str:
    if "sent" in record.tags:
        return "sent"
    if owner_uid is None:
        return "undetermined"
    return "sent" if record.sender_uid == owner_uid else "received"


def _from_fb_message(record: facebook.FbMessage, owner_uid: str | None,
                     warnings: list[str]) -> list[TimelineEvent]:
    direction = _fb_direction(record, owner_uid)
    body = _short(record.body)
    summary = 'message "%s"' % body if body else "message"
    if record.attachments:
        count = len(record.attachments)
        summary += " with %d attachment%s" % (count, "" if count == 1 else "s")
    if direction == "undetermined":
        summary += " " + UNDETERMINED_MARK
        warnings.append("message row %d: owner unknown, direction undetermined" % record.row_id)
    actor = record.sender_name or record.sender_uid
    return [TimelineEvent(
        when=record.when,
        kind=EventKind.MESSAGE_SENT if direction == "sent" else EventKind.MESSAGE_RECEIVED,
        app=App.FACEBOOK,
        summary=summary,
        provenance=record.provenance,
        actor=actor,
        counterpart=None if direction == "sent" else actor,
    )]


def _from_fb_notification(record: facebook.FbNotification,
                          warnings: list[str]) -> list[TimelineEvent]:
    when = record.created or record.updated
    if when is None:
        warnings.append("notification %s: no usable instant, skipped" % (record.notification_id,))
        return []
    title = _short(record.title_text)
    summary = 'notification "%s"' % title if title else "notification"
    return [TimelineEvent(when=when, kind=EventKind.NOTIFICATION, app=App.FACEBOOK,
                          summary=summary, provenance=record.provenance,
                          actor=record.sender_id, counterpart=record.sender_id)]


def _from_chat_fragment(record: facebook.ChatFragment,
                        warnings: list[str]) -> list[TimelineEvent]:
    if not record.parsed or record.time is None:
        warnings.append("chat fragment at offset %d: unparsed or undated, skipped" % record.offset)
        return []
    body = _short(record.message)
    summary = 'chat push "%s"' % body if body else "chat push"
    return [TimelineEvent(when=record.time, kind=EventKind.MESSAGE_RECEIVED,
                          app=App.FACEBOOK, summary=summary,
                          provenance=record.provenance,
                          actor=record.sender_uid, counterpart=record.sender_uid)]


def _file_offer_summary(body_xml: str | None, warnings: list[str]) -> str:
    parsed = skype.parse_body_xml(body_xml or "", warnings)
    if isinstance(parsed, skype.FilesBody) and parsed.files:
        names = [item.name for item in parsed.files]
        shown = ", ".join(names[:2])
        if len(names) > 2:
            shown += " (+%d more)" % (len(names) - 2)
        return "file offer %s" % shown
    return "file offer"


def _from_skype_message(record: skype.SkypeMessage, owner: str | None,
                        warnings: list[str]) -> list[TimelineEvent]:
    label = record.kind.label
    counterpart = _skype_counterpart(record, owner)
    if label in _SKYPE_NON_MESSAGES:
        kind, summary = _SKYPE_NON_MESSAGES[label]
        if label == "FileSent":
            summary = _file_offer_summary(record.body_xml, warnings)
        elif label == "VideoSessionEnded" and record.reason:
            summary += " (%s)" % record.reason
    else:
        if owner is None:
            direction = "undetermined"
        else:
            direction = "sent" if record.author == owner else "received"
        body = _short(record.body_xml)
        summary = '%s "%s"' % (label, body) if body else label
        if direction == "undetermined":
            summary += " " + UNDETERMINED_MARK
            warnings.append("skype message %d: owner unknown, direction undetermined" % record.id)
        kind = EventKind.MESSAGE_SENT if direction == "sent" else EventKind.MESSAGE_RECEIVED
    return [TimelineEvent(when=record.when, kind=kind, app=App.SKYPE,
                          summary=summary, provenance=record.provenance,
                          actor=record.author, counterpart=counterpart)]


def _from_skype_transfer(record: skype.SkypeTransfer, owner: str | None,
                         warnings: list[str]) -> list[TimelineEvent]:
    when = record.start or record.finish
    if when is None:
        warnings.append('transfer "%s": no usable instant, skipped' % (record.filename,))
        return []
    name = record.filename or (record.filepath or "?").replace("\\", "/").rsplit("/", 1)[-1]
    summary = 'file transfer "%s"' % name
    if record.filesize is not None:
        summary += " (%d bytes)" % record.filesize
    if record.direction == "receiving":
        kind = EventKind.FILE_DOWNLOAD
        actor = record.partner_handle
    elif record.direction == "transferring":
        kind = EventKind.FILE_TRANSFER
        actor = owner
    else:
        kind = EventKind.FILE_TRANSFER
        actor = None
        summary += " " + UNDETERMINED_MARK
        warnings.append('transfer "%s": direction undetermined' % name)
    return [TimelineEvent(when=when, kind=kind, app=App.SKYPE, summary=summary,
                          provenance=record.provenance, actor=actor,
                          counterpart=record.partner_dispname or record.partner_handle)]


def _from_skype_call(record: skype.SkypeCall) -> list[TimelineEvent]:
    mode = "incoming" if record.is_incoming else "outgoing"
    title = ("%s call %s" % (mode, record.name or "")).strip()
    counterpart = record.host_identity if record.is_incoming else None
    events = [TimelineEvent(when=record.begin, kind=EventKind.CALL_START,
                            app=App.SKYPE, summary=title,
                            provenance=record.provenance,
                            actor=record.host_identity, counterpart=counterpart)]
    # The stored row carries begin and duration; the end instant is derived.
    if record.duration_s is not None:
        events.append(TimelineEvent(
            when=_shift(record.begin, record.duration_s),
            kind=EventKind.CALL_END,
            app=App.SKYPE,
            summary="%s ended after %ds" % (title, record.duration_s),
            provenance=record.provenance,
            actor=record.host_identity,
            counterpart=counterpart,
        ))
    return events


def _from_skype_videomessage(record: skype.SkypeVideoMessage,
                             warnings: list[str]) -> list[TimelineEvent]:
    when = record.reaction_time or record.creation_time
    if when is None:
        warnings.append("video message %s: no usable instant, skipped" % record.sid)
        return []
    return [TimelineEvent(when=when, kind=EventKind.VIDEO_MESSAGE, app=App.SKYPE,
                          summary="video message %s" % record.sid,
                          provenance=record.provenance,
                          actor=record.author, counterpart=record.author)]


def _app_for_name(text: str) -> App:
    lowered = text.casefold()
    if "facebook" in lowered:
        return App.FACEBOOK
    if "skype" in lowered:
        return App.SKYPE
    return App.OTHER


def _from_install(record: regexport.InstallRecord) -> list[TimelineEvent]:
    return [TimelineEvent(when=record.install_time, kind=EventKind.APP_INSTALL,
                          app=_app_for_name(record.package.name),
                          summary="package %s installed" % record.package.text,
                          provenance=record.provenance)]


def _from_persisted(record: regexport.PersistedItem,
                    warnings: list[str]) -> list[TimelineEvent]:
    if record.last_updated is None:
        warnings.append("persisted item %s: no usable instant, skipped" % record.guid)
        return []
    return [TimelineEvent(when=record.last_updated, kind=EventKind.FILE_TRANSFER,
                          app=_app_for_name(record.key_path),
                          summary="persisted file %s" % _basename(record.file_path),
                          provenance=record.provenance)]


# Each flow label's App, for attribution; an unknown label is App.OTHER.
_LABEL_APPS = {label: App(pcap.LABEL_APPS.get(label, "other")) for label in pcap.LABELS}


def _from_flow(record: pcap.Flow, provenance: Provenance,
               index: pcap.CatalogIndex) -> TimelineEvent:
    label = pcap.label_flow(record, index).label
    (ip_a, port_a), (ip_b, port_b) = record.endpoint_a, record.endpoint_b
    summary = "%s %s:%d <-> %s:%d %s (%d packets, %d bytes)" % (
        record.proto, ip_a, port_a, ip_b, port_b, label,
        record.total_packets, record.total_bytes)
    return TimelineEvent(
        when=record.first_seen,
        kind=EventKind.NETWORK_SESSION,
        app=_LABEL_APPS.get(label, App.OTHER),
        summary=summary,
        provenance=provenance,
    )


def normalize(records, *, fb_owner_uid: str | None = None,
              skype_owner: str | None = None,
              capture_path: str = "<capture>",
              catalog=None,
              warnings: list[str] | None = None) -> list[TimelineEvent]:
    """The body of timeline.normalize, whose docstring states the contract."""
    if warnings is None:
        warnings = []
    index = pcap.catalog_index(catalog)
    flow_provenance = None  # one per call, made when the first flow is seen
    events: list[TimelineEvent] = []
    for record in records:
        if isinstance(record, TimelineEvent):
            events.append(record)
        elif isinstance(record, facebook.FbAnalyticsEvent):
            events.extend(_from_fb_analytics(record))
        elif isinstance(record, facebook.FbMessage):
            events.extend(_from_fb_message(record, fb_owner_uid, warnings))
        elif isinstance(record, facebook.FbNotification):
            events.extend(_from_fb_notification(record, warnings))
        elif isinstance(record, facebook.ChatFragment):
            events.extend(_from_chat_fragment(record, warnings))
        elif isinstance(record, skype.SkypeMessage):
            events.extend(_from_skype_message(record, skype_owner, warnings))
        elif isinstance(record, skype.SkypeTransfer):
            events.extend(_from_skype_transfer(record, skype_owner, warnings))
        elif isinstance(record, skype.SkypeCall):
            events.extend(_from_skype_call(record))
        elif isinstance(record, skype.SkypeVideoMessage):
            events.extend(_from_skype_videomessage(record, warnings))
        elif isinstance(record, regexport.InstallRecord):
            events.extend(_from_install(record))
        elif isinstance(record, regexport.PersistedItem):
            events.extend(_from_persisted(record, warnings))
        elif isinstance(record, pcap.Flow):
            if flow_provenance is None:
                flow_provenance = Provenance(capture_path, "pcap.flows", Channel.NETWORK)
            events.append(_from_flow(record, flow_provenance, index))
        elif isinstance(record, _STATE_RECORD_TYPES):
            warnings.append("%s describes state, not a happening, skipped" % type(record).__name__)
        else:
            raise TypeError("cannot place %r on a timeline" % type(record).__name__)
    return events
