"""Locate app artifact paths in an evidence tree.

Windows Store apps keep their state under per-package directories whose
names embed a package identity.  This module parses those identities,
matches files and directories from an exported evidence tree against a
catalog of known artifact layouts, and reads download zone sidecars.
"""

from __future__ import annotations

import fnmatch
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

from .model import ExtractionError

__all__ = [
    "ArtifactPath",
    "CATALOG",
    "CatalogRule",
    "KNOWN_LAYOUTS",
    "MalformedPackageId",
    "NotZoneTransfer",
    "PackageIdentity",
    "Role",
    "RootUnreadable",
    "ZoneMarker",
    "decode_text",
    "match_catalog",
    "parse_package_id",
    "read_zone_identifier",
    "scan_tree",
    "sidecar_target",
]


class MalformedPackageId(ExtractionError):
    """Text does not follow the Store package identity grammar."""


class NotZoneTransfer(ExtractionError):
    """Sidecar content is not a zone transfer marker."""


class RootUnreadable(ExtractionError):
    """The evidence tree root cannot be opened."""


_PUBLISHER_RE = re.compile(r"^[a-z0-9]{13}$")
# Full form: name_version_arch_publisher, with some packages writing a
# double underscore before the publisher hash.
_FULL_RE = re.compile(
    r"^(?P<name>.+?)_(?P<version>\d+(?:\.\d+){3})_(?P<arch>x86|x64|arm|arm64|neutral)"
    r"_{1,2}(?P<pub>[a-z0-9]{13})$"
)


@dataclass(frozen=True)
class PackageIdentity:
    """A parsed Store package identity, in full or family form."""

    text: str
    name: str
    publisher_id: str
    version: str | None = None
    arch: str | None = None

    @property
    def family(self) -> str:
        return "%s_%s" % (self.name, self.publisher_id)


def parse_package_id(text: str) -> PackageIdentity:
    """Parse a package directory name into its identity parts.

    Accepts the full form (name_version_arch_publisher, single or double
    underscore before the publisher) and the family form (name_publisher).
    """
    if not isinstance(text, str) or "_" not in text:
        raise MalformedPackageId("not a package identity: %r" % (text,))
    full = _FULL_RE.match(text)
    if full:
        return PackageIdentity(
            text=text,
            name=full.group("name"),
            publisher_id=full.group("pub"),
            version=full.group("version"),
            arch=full.group("arch"),
        )
    name, _, publisher = text.rpartition("_")
    if not name or name.endswith("_") or not _PUBLISHER_RE.match(publisher):
        raise MalformedPackageId("not a package identity: %r" % (text,))
    return PackageIdentity(text=text, name=name, publisher_id=publisher)


class Role:
    """Artifact roles emitted by the path catalog."""

    WINSTORE_LOG = "WinstoreLog"
    CACHE_DB = "CacheDb"
    MAIN_DB = "MainDb"
    SHARED_XML = "SharedXml"
    CONFIG_XML = "ConfigXml"
    CHATSYNC_DIR = "ChatsyncDir"
    AVATARS_DIR = "AvatarsDir"
    RECEIVE_STORAGE = "ReceiveStorage"
    SENDING_STORAGE = "SendingStorage"
    MEDIA_DIR = "MediaDir"
    THUMBNAILS_DIR = "ThumbnailsDir"
    DOWNLOADS_DIR = "DownloadsDir"
    ADDRESS_BOOK = "AddressBookAppcontent"
    APP_INSTALL_DIR = "AppInstallDir"
    DELETED_INSTALL_DIR = "DeletedInstallDir"
    LOCAL_STATE_DIR = "LocalStateDir"
    ZONE_SIDECAR = "ZoneIdentifierSidecar"


# Template tokens: PKG matches a segment that parses as a package identity,
# ACCOUNT captures one arbitrary segment, ANY matches one arbitrary segment.
PKG = "<pkg>"
ACCOUNT = "<account>"
ANY = "<any>"


@dataclass(frozen=True)
class CatalogRule:
    rule_id: str
    role: str
    kind: str  # "file" or "dir"
    template: tuple[str, ...]


CATALOG: tuple[CatalogRule, ...] = (
    CatalogRule("winstore-log-temp", Role.WINSTORE_LOG, "file", ("Temp", "winstore.log")),
    CatalogRule("fb-cache-db", Role.CACHE_DB, "file", ("Packages", PKG, "LocalState", ACCOUNT, "DB", "*.sqlite")),
    CatalogRule("skype-main-db", Role.MAIN_DB, "file", ("Packages", PKG, "LocalState", ACCOUNT, "main.db")),
    CatalogRule("skype-shared-xml", Role.SHARED_XML, "file", ("Packages", PKG, "LocalState", "shared.xml")),
    CatalogRule("skype-config-xml", Role.CONFIG_XML, "file", ("Packages", PKG, "LocalState", ACCOUNT, "config.xml")),
    CatalogRule("skype-config-xml-root", Role.CONFIG_XML, "file", ("Packages", PKG, "LocalState", "config.xml")),
    CatalogRule("skype-chatsync", Role.CHATSYNC_DIR, "dir", ("Packages", PKG, "LocalState", ACCOUNT, "Chatsync")),
    CatalogRule("skype-avatars", Role.AVATARS_DIR, "dir", ("Packages", PKG, "LocalState", "avatars")),
    CatalogRule("skype-receive-storage", Role.RECEIVE_STORAGE, "dir", ("Packages", PKG, "LocalState", ACCOUNT, "ReceiveStorage")),
    CatalogRule("skype-sending-storage", Role.SENDING_STORAGE, "dir", ("Packages", PKG, "LocalState", ACCOUNT, "SendingStorage")),
    CatalogRule("skype-media", Role.MEDIA_DIR, "dir", ("Packages", PKG, "LocalState", ACCOUNT, "media")),
    CatalogRule("skype-thumbnails", Role.THUMBNAILS_DIR, "dir", ("Packages", PKG, "LocalState", ACCOUNT, "thumbnails")),
    CatalogRule("downloads-app-dir", Role.DOWNLOADS_DIR, "dir", ("Downloads", PKG, "App")),
    CatalogRule("downloads-appdata-dir", Role.DOWNLOADS_DIR, "dir", ("Downloads", PKG, "AppData")),
    CatalogRule("ac-netcache", Role.DOWNLOADS_DIR, "dir", ("Packages", PKG, "AC", "NetCache", ANY)),
    CatalogRule("ac-inetcache", Role.DOWNLOADS_DIR, "dir", ("Packages", PKG, "AC", "InetCache", ANY)),
    CatalogRule("ac-local-cache", Role.DOWNLOADS_DIR, "dir", ("Packages", PKG, "AC", "local_cache")),
    CatalogRule("addressbook-contact", Role.ADDRESS_BOOK, "file", ("People", "AddressBook", "*.appcontent-ms")),
    CatalogRule("addressbook-me", Role.ADDRESS_BOOK, "file", ("People", "Me", "*.appcontent-ms")),
    CatalogRule("windowsapps-install", Role.APP_INSTALL_DIR, "dir", ("WindowsApps", PKG)),
    CatalogRule("windowsapps-deleted", Role.DELETED_INSTALL_DIR, "dir", ("WindowsApps", "Deleted", PKG)),
    CatalogRule("package-local-state", Role.LOCAL_STATE_DIR, "dir", ("Packages", PKG, "LocalState")),
)

# Documented evidence layouts and the catalog rule that finds each one.
# The coverage test feeds every example through match_catalog.
KNOWN_LAYOUTS: tuple[tuple[str, str, str, str], ...] = (
    ("store install log in the user temp directory",
     "Users/anon/AppData/Local/Temp/winstore.log", "file", "winstore-log-temp"),
    ("store install log kept by the store app package",
     "Users/anon/AppData/Local/Packages/winstore_cw5n1h2txyewy/AC/Temp/winstore.log", "file", "winstore-log-temp"),
    ("facebook analytics cache database",
     "Users/anon/AppData/Local/Packages/Facebook.Facebook_8xx8rvfyw5nnt/LocalState/100004911219827/DB/Analytics.sqlite", "file", "fb-cache-db"),
    ("facebook friend requests cache database",
     "Users/anon/AppData/Local/Packages/Facebook.Facebook_8xx8rvfyw5nnt/LocalState/100004911219827/DB/FriendRequests.sqlite", "file", "fb-cache-db"),
    ("facebook friends cache database",
     "Users/anon/AppData/Local/Packages/Facebook.Facebook_8xx8rvfyw5nnt/LocalState/100004911219827/DB/Friends.sqlite", "file", "fb-cache-db"),
    ("facebook messages cache database",
     "Users/anon/AppData/Local/Packages/Facebook.Facebook_8xx8rvfyw5nnt/LocalState/100004911219827/DB/Messages.sqlite", "file", "fb-cache-db"),
    ("facebook notifications cache database",
     "Users/anon/AppData/Local/Packages/Facebook.Facebook_8xx8rvfyw5nnt/LocalState/100004911219827/DB/Notifications.sqlite", "file", "fb-cache-db"),
    ("facebook stories cache database",
     "Users/anon/AppData/Local/Packages/Facebook.Facebook_8xx8rvfyw5nnt/LocalState/100004911219827/DB/Stories.sqlite", "file", "fb-cache-db"),
    ("facebook downloaded file web cache",
     "Users/anon/AppData/Local/Packages/Facebook.Facebook_8xx8rvfyw5nnt/AC/NetCache/Z0AFCD01", "dir", "ac-netcache"),
    ("facebook picture cache",
     "Users/anon/AppData/Local/Packages/Facebook.Facebook_8xx8rvfyw5nnt/AC/local_cache", "dir", "ac-local-cache"),
    ("skype conversation database",
     "Users/anon/AppData/Local/Packages/Microsoft.SkypeApp_kzf8qxf38zg5c/LocalState/harold.cornwall1/main.db", "file", "skype-main-db"),
    ("skype shared network settings",
     "Users/anon/AppData/Local/Packages/Microsoft.SkypeApp_kzf8qxf38zg5c/LocalState/shared.xml", "file", "skype-shared-xml"),
    ("skype per-account configuration",
     "Users/anon/AppData/Local/Packages/Microsoft.SkypeApp_kzf8qxf38zg5c/LocalState/harold.cornwall1/config.xml", "file", "skype-config-xml"),
    ("skype chat sync store",
     "Users/anon/AppData/Local/Packages/Microsoft.SkypeApp_kzf8qxf38zg5c/LocalState/harold.cornwall1/Chatsync", "dir", "skype-chatsync"),
    ("skype contact avatars",
     "Users/anon/AppData/Local/Packages/Microsoft.SkypeApp_kzf8qxf38zg5c/LocalState/avatars", "dir", "skype-avatars"),
    ("skype received file staging",
     "Users/anon/AppData/Local/Packages/Microsoft.SkypeApp_kzf8qxf38zg5c/LocalState/harold.cornwall1/ReceiveStorage", "dir", "skype-receive-storage"),
    ("skype sent file staging",
     "Users/anon/AppData/Local/Packages/Microsoft.SkypeApp_kzf8qxf38zg5c/LocalState/harold.cornwall1/SendingStorage", "dir", "skype-sending-storage"),
    ("skype media store",
     "Users/anon/AppData/Local/Packages/Microsoft.SkypeApp_kzf8qxf38zg5c/LocalState/harold.cornwall1/media", "dir", "skype-media"),
    ("skype thumbnails",
     "Users/anon/AppData/Local/Packages/Microsoft.SkypeApp_kzf8qxf38zg5c/LocalState/harold.cornwall1/thumbnails", "dir", "skype-thumbnails"),
    ("skype app downloads directory",
     "Users/anon/Downloads/Microsoft.SkypeApp_kzf8qxf38zg5c/App", "dir", "downloads-app-dir"),
    ("contact address book entries",
     "Users/anon/AppData/Local/Packages/microsoft.windowscommunicationsapps_8wekyb3d8bbwe/LocalState/Indexed/LiveComm/a09baf7bda2e198b/120712-0049/People/AddressBook/1437.appcontent-ms", "file", "addressbook-contact"),
    ("own profile address book entry",
     "Users/anon/AppData/Local/Packages/microsoft.windowscommunicationsapps_8wekyb3d8bbwe/LocalState/Indexed/LiveComm/a09baf7bda2e198b/120712-0049/People/Me/me.appcontent-ms", "file", "addressbook-me"),
    ("installed package program directory",
     "Program Files/WindowsApps/Facebook.Facebook_1.4.0.9_x64__8xx8rvfyw5nnt", "dir", "windowsapps-install"),
    ("parked program directory after uninstall",
     "Program Files/WindowsApps/Deleted/Facebook.Facebook_1.4.0.9_x64__8xx8rvfyw5nnt", "dir", "windowsapps-deleted"),
)


@dataclass(frozen=True)
class ArtifactPath:
    """One located artifact: its role, path and any captured identity."""

    role: str
    path: str
    rule_id: str
    package: PackageIdentity | None = None
    account: str | None = None


_SIDECAR_SUFFIXES = (":Zone.Identifier", ".Zone.Identifier")


def sidecar_target(path: str) -> str | None:
    """Return the annotated file path for a zone sidecar name, else None."""
    folded = path.casefold()
    for suffix in _SIDECAR_SUFFIXES:
        if folded.endswith(suffix.casefold()) and len(path) > len(suffix):
            return path[: -len(suffix)]
    return None


def _segments(path: str) -> tuple[str, ...]:
    return tuple(part for part in re.split(r"[\\/]+", path) if part)


def _match_template(template: tuple[str, ...], segments: tuple[str, ...]):
    """Match template against the tail of segments; return captures or None."""
    if len(segments) < len(template):
        return None
    captured: dict[str, object] = {}
    tail = segments[-len(template):]
    for token, segment in zip(template, tail):
        if token is PKG or token == PKG:
            try:
                captured["package"] = parse_package_id(segment)
            except MalformedPackageId:
                return None
        elif token is ACCOUNT or token == ACCOUNT:
            captured["account"] = segment
        elif token is ANY or token == ANY:
            continue
        elif "*" in token or "?" in token:
            if not fnmatch.fnmatchcase(segment.casefold(), token.casefold()):
                return None
        elif segment.casefold() != token.casefold():
            return None
    return captured


def match_catalog(path: str, is_dir: bool) -> list[ArtifactPath]:
    """Match one path against the catalog; returns all matching roles."""
    segments = _segments(path)
    if not segments:
        return []
    matches = []
    if not is_dir and sidecar_target(segments[-1]):
        matches.append(ArtifactPath(Role.ZONE_SIDECAR, path, "zone-identifier"))
    wanted_kind = "dir" if is_dir else "file"
    for rule in CATALOG:
        if rule.kind != wanted_kind:
            continue
        captured = _match_template(rule.template, segments)
        if captured is None:
            continue
        matches.append(
            ArtifactPath(
                role=rule.role,
                path=path,
                rule_id=rule.rule_id,
                package=captured.get("package"),
                account=captured.get("account"),
            )
        )
    return matches


def scan_tree(root: str | Path, warnings: list[str] | None = None) -> list[ArtifactPath]:
    """Walk an evidence tree and return every cataloged artifact path.

    Per-entry permission errors are appended to warnings and skipped; an
    unreadable root raises RootUnreadable.  Output order is deterministic:
    sorted by path then role.
    """
    root = os.path.abspath(os.fspath(root))
    if not os.path.isdir(root):
        raise RootUnreadable("not a readable directory: %s" % root)

    def on_error(error: OSError) -> None:
        if warnings is not None:
            warnings.append("unreadable entry skipped: %s" % error)

    found: set[ArtifactPath] = set()
    for dirpath, dirnames, filenames in os.walk(root, onerror=on_error):
        for name in dirnames:
            full = os.path.join(dirpath, name)
            found.update(match_catalog(full, is_dir=True))
        for name in filenames:
            full = os.path.join(dirpath, name)
            found.update(match_catalog(full, is_dir=False))
    return sorted(found, key=lambda artifact: (artifact.path, artifact.role))


@dataclass(frozen=True)
class ZoneMarker:
    """A parsed download zone sidecar."""

    zone_id: int
    sidecar_path: str
    target_path: str | None = None
    extras: tuple[tuple[str, str], ...] = field(default=())


def decode_text(data: bytes) -> str:
    """Decode exported text by its byte-order mark, dropping the mark.

    Damaged UTF-16 or BOM-marked UTF-8 decodes with replacement
    characters; unmarked bytes are UTF-8, else latin-1.
    """
    if data.startswith(b"\xff\xfe"):
        return data[2:].decode("utf-16-le", errors="replace")
    if data.startswith(b"\xfe\xff"):
        return data[2:].decode("utf-16-be", errors="replace")
    if data.startswith(b"\xef\xbb\xbf"):
        return data.decode("utf-8-sig", errors="replace")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError:
        return data.decode("latin-1")


def read_zone_identifier(data: bytes, sidecar_path: str = "") -> ZoneMarker:
    """Parse zone sidecar content into a ZoneMarker.

    Requires a [ZoneTransfer] section with an integer ZoneId of 0 to 4;
    other keys in the section are preserved in extras.
    """
    text = decode_text(data)
    section = None
    zone_id = None
    extras = []
    for line in text.splitlines():
        line = line.strip().lstrip("\ufeff")
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().casefold()
            continue
        if section != "zonetransfer" or "=" not in line:
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key.casefold() == "zoneid":
            try:
                zone_id = int(value)
            except ValueError as exc:
                raise NotZoneTransfer("ZoneId is not an integer: %r" % (value,)) from exc
        else:
            extras.append((key, value))
    if zone_id is None:
        raise NotZoneTransfer("no [ZoneTransfer] ZoneId entry")
    if not 0 <= zone_id <= 4:
        raise NotZoneTransfer("ZoneId outside the defined zones: %d" % zone_id)
    return ZoneMarker(
        zone_id=zone_id,
        sidecar_path=sidecar_path,
        target_path=sidecar_target(sidecar_path) if sidecar_path else None,
        extras=tuple(extras),
    )
