import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from imartifacts import carver, facebook, forge, locator, pcap, regexport, sampledata as sd, skype, timeline
from imartifacts.forge import (
    CAPTURE_NAME,
    MEMORY_NAME,
    NTFS_CSV_NAME,
    REGISTRY_NAME,
    OutputNotEmpty,
    forge_fixture,
    relativize_events,
)
from imartifacts.model import Channel, Provenance, TimelineEvent, EventKind, App, ts_from_unix


def expected_events(manifest: dict) -> list[TimelineEvent]:
    """The merged timeline the manifest promises, as event objects."""
    return timeline.parse_jsonl("\n".join(json.dumps(fields) for fields in manifest["expected_timeline"]))


def tree_digest(root):
    """Map of relative path -> sha256 over every file under root."""
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[path.relative_to(root).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def extract_tree(root):
    """Run every extractor over a forged tree the way the manifest promises."""
    db = root / forge.FACEBOOK_DB_DIR
    records = []
    records += facebook.extract_analytics(db / "Analytics.sqlite")
    records += facebook.extract_messages(db / "Messages.sqlite")
    records += facebook.extract_notifications(db / "Notifications.sqlite")
    dataset = skype.group_main_db(skype.extract_main_db(root / forge.SKYPE_ACCOUNT_DIR / "main.db"))
    records += dataset.messages + dataset.transfers + dataset.calls + dataset.video_messages
    with open(root / MEMORY_NAME, "rb") as handle:
        records += facebook.extract_chat_json(handle, evidence_path=str(root / MEMORY_NAME))
    export = regexport.parse_reg_export((root / REGISTRY_NAME).read_bytes())
    reg = str(root / REGISTRY_NAME)
    records.append(regexport.find_install_time(export, sd.FACEBOOK_PACKAGE_FULL, evidence_path=reg))
    records.append(regexport.find_install_time(export, sd.SKYPE_PACKAGE_FULL, evidence_path=reg))
    records += regexport.find_persisted_items(export, evidence_path=reg)
    records += pcap.read_pcap(root / CAPTURE_NAME).flows
    events = timeline.normalize(
        records, fb_owner_uid=sd.OWNER_UID, skype_owner=sd.SKYPE_OWNER,
        capture_path=str(root / CAPTURE_NAME))
    events += timeline.ingest_ntfs_csv(root / NTFS_CSV_NAME,
                                       evidence_path=str(root / NTFS_CSV_NAME))
    events = relativize_events(events, root)
    return timeline.build_report(events, generated_at="1970-01-01T00:00:00Z").events


@pytest.fixture(scope="module")
def forged(tmp_path_factory):
    root = tmp_path_factory.mktemp("forge") / "evidence"
    manifest = forge_fixture(11, root)
    return root, manifest


class TestDeterminism:
    def test_same_seed_is_byte_identical(self, tmp_path):
        forge_fixture(5, tmp_path / "a")
        forge_fixture(5, tmp_path / "b")
        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")

    def test_different_seed_differs(self, tmp_path):
        forge_fixture(5, tmp_path / "a")
        forge_fixture(6, tmp_path / "b")
        assert tree_digest(tmp_path / "a") != tree_digest(tmp_path / "b")

    def test_refuses_nonempty_output(self, tmp_path):
        target = tmp_path / "used"
        target.mkdir()
        (target / "junk.txt").write_text("x")
        with pytest.raises(OutputNotEmpty):
            forge_fixture(1, target)

    def test_accepts_existing_empty_directory(self, tmp_path):
        target = tmp_path / "empty"
        target.mkdir()
        manifest = forge_fixture(1, target)
        assert manifest["seed"] == 1

    def test_manifest_written_matches_returned(self, forged):
        root, manifest = forged
        assert json.loads((root / "manifest.json").read_text(encoding="utf-8")) == manifest


class TestTreeLayout:
    def test_evidence_files_exist(self, forged):
        root, _ = forged
        for name in ("Analytics.sqlite", "Friends.sqlite", "FriendRequests.sqlite",
                     "Messages.sqlite", "Notifications.sqlite", "Stories.sqlite"):
            assert (root / forge.FACEBOOK_DB_DIR / name).is_file()
        assert (root / forge.SKYPE_ACCOUNT_DIR / "main.db").is_file()
        assert (root / forge.SKYPE_STATE_DIR / "shared.xml").is_file()
        assert (root / forge.SKYPE_ACCOUNT_DIR / "config.xml").is_file()
        for name in (MEMORY_NAME, CAPTURE_NAME, REGISTRY_NAME, NTFS_CSV_NAME):
            assert (root / name).is_file()

    def test_locator_finds_the_planted_layout(self, forged):
        root, _ = forged
        found = locator.scan_tree(root)
        roles = {a.role for a in found}
        assert {locator.Role.CACHE_DB, locator.Role.MAIN_DB, locator.Role.SHARED_XML,
                locator.Role.CONFIG_XML, locator.Role.RECEIVE_STORAGE,
                locator.Role.SENDING_STORAGE, locator.Role.ZONE_SIDECAR} <= roles
        cache = [a for a in found if a.role == locator.Role.CACHE_DB]
        assert len(cache) == 6
        sidecars = [a for a in found if a.role == locator.Role.ZONE_SIDECAR]
        assert len(sidecars) == 2

    def test_zone_sidecars_parse(self, forged):
        root, manifest = forged
        entries = manifest["downloads"]["sidecars"]
        assert len(entries) == 2
        for entry in entries:
            marker = locator.read_zone_identifier((root / entry["path"]).read_bytes(),
                                                  sidecar_path=entry["path"])
            assert marker.zone_id == entry["zone_id"] == 3


class TestMemoryPlants:
    def test_plants_are_byte_exact(self, forged):
        root, manifest = forged
        blob = (root / MEMORY_NAME).read_bytes()
        assert len(blob) == manifest["memory"]["size"]
        for plant in manifest["memory"]["plants"]:
            chunk = blob[plant["offset"]:plant["offset"] + plant["length"]]
            assert hashlib.sha256(chunk).hexdigest() == plant["sha256"]

    def test_one_plant_straddles_default_chunk_boundary(self, forged):
        _, manifest = forged
        edge = forge.MEMORY_STRADDLE_AT
        assert edge % carver.DEFAULT_CHUNK_SIZE == 0
        straddling = [p for p in manifest["memory"]["plants"]
                      if p["offset"] < edge < p["offset"] + p["length"]]
        assert len(straddling) == 1

    def test_layout_does_not_follow_the_scan_chunk_size(self, tmp_path):
        memory = forge_fixture(7, tmp_path / "tree")["memory"]
        assert memory["size"] == 5255217
        assert [(p["kind"], p["offset"]) for p in memory["plants"]] == [
            ("chat-json", 486530), ("config-xml", 3067620), ("config-xml", 4194135),
            ("payload-header", 4256679), ("shared-xml", 4888780)]

    def test_carver_recovers_exactly_the_planted_documents(self, forged):
        root, manifest = forged
        with open(root / MEMORY_NAME, "rb") as handle:
            carved = carver.carve(handle)
        want = [p for p in manifest["memory"]["plants"]
                if p["kind"] in ("config-xml", "shared-xml")]
        assert len(carved) == len(want)
        for got, plant in zip(sorted(carved, key=lambda c: c.offset),
                              sorted(want, key=lambda p: p["offset"])):
            assert got.signature_name == plant["kind"]
            assert got.offset == plant["offset"]
            assert len(got.payload) == plant["length"]
            assert got.sha256() == plant["sha256"]

    def test_chat_fragment_recovered_at_plant_offset(self, forged):
        root, manifest = forged
        with open(root / MEMORY_NAME, "rb") as handle:
            fragments = list(facebook.extract_chat_json(handle, evidence_path=MEMORY_NAME))
        assert len(fragments) == 1
        assert fragments[0].offset == manifest["memory"]["chat_fragment_offset"]
        assert fragments[0].parsed
        assert fragments[0].sender_uid == sd.OWNER_UID


class TestCapture:
    def test_flows_match_manifest(self, forged):
        root, manifest = forged
        capture = pcap.read_pcap(root / CAPTURE_NAME)
        assert capture.skipped == pcap.SkipCounters()
        flows = {(f.proto, f.endpoint_a, f.endpoint_b): f
                 for f in capture.flows}
        assert len(flows) == len(manifest["capture"]["flows"])
        for entry in manifest["capture"]["flows"]:
            key = (entry["proto"], tuple(entry["endpoint_a"]), tuple(entry["endpoint_b"]))
            flow = flows[key]
            assert flow.packets_ab == entry["packets_ab"]
            assert flow.packets_ba == entry["packets_ba"]
            assert flow.bytes_ab == entry["bytes_ab"]
            assert flow.bytes_ba == entry["bytes_ba"]
            assert flow.first_ts_us == entry["first_ts_us"]
            assert flow.last_ts_us == entry["last_ts_us"]
            assert flow.sni == entry["sni"]
            assert pcap.label_flow(flow).label == entry["label"]

    def test_catalog_flows_present(self, forged):
        _, manifest = forged
        labels = [f["label"] for f in manifest["capture"]["flows"]]
        for needed in ("FacebookChat", "FacebookUpload", "SkypeSupernodeLookup", "SkypeRst"):
            assert labels.count(needed) == 1
        assert labels.count("Other") >= 3

    def test_client_hello_carries_sni(self, forged):
        _, manifest = forged
        chat = next(f for f in manifest["capture"]["flows"] if f["label"] == "FacebookChat")
        assert chat["sni"] == sd.FACEBOOK_CHAT_HOST


class TestRegistryAndState:
    def test_install_times_parse_back(self, forged):
        root, manifest = forged
        export = regexport.parse_reg_export((root / REGISTRY_NAME).read_bytes())
        assert export.errors == []
        for entry in manifest["registry"]["installs"]:
            record = regexport.find_install_time(export, entry["package"])
            assert record.interpretation == "little-endian-binary"
            assert record.install_time.utc_instant == \
                ts_from_unix((entry["ticks"] - 116444736000000000) // 10**4, "millis").utc_instant

    def test_persisted_items_parse_back(self, forged):
        root, manifest = forged
        export = regexport.parse_reg_export((root / REGISTRY_NAME).read_bytes())
        items = regexport.find_persisted_items(export)
        assert sorted(i.guid for i in items) == sorted(p["guid"] for p in manifest["registry"]["persisted"])
        by_guid = {i.guid: i for i in items}
        for planted in manifest["registry"]["persisted"]:
            assert by_guid[planted["guid"]].file_path == planted["file_path"]

    def test_shared_xml_claims_match_parser(self, forged):
        root, manifest = forged
        state = skype.parse_shared_xml((root / forge.SKYPE_STATE_DIR / "shared.xml").read_bytes())
        claim = manifest["skype"]["shared_xml"]
        assert state.last_ip == claim["last_ip"]
        assert state.listening_port == claim["listening_port"]
        assert [[e.ip, e.port] for e in state.hostcache] == claim["hostcache"]
        assert ["65.55.223.24", 33033] in claim["hostcache"]

    def test_file_offer_body_survives(self, forged):
        _, manifest = forged
        rows = manifest["skype"]["tables"]["Messages"]
        offers = [r for r in rows if r["body_xml"] == sd.FILES_BODY_XML]
        assert len(offers) == 1
        body = skype.parse_body_xml(offers[0]["body_xml"])
        first = body.files[0]
        assert (first.name, first.size, first.index, first.tid) == \
            ("SuspectToVictim.docx", 78080, 0, "1335338368")


class TestExpectedTimeline:
    def test_expected_events_parse_sorted(self, forged):
        _, manifest = forged
        events = expected_events(manifest)
        assert events
        assert all(isinstance(e, TimelineEvent) for e in events)
        assert [e.sort_key() for e in events] == sorted(e.sort_key() for e in events)

    def test_round_trip_reproduces_expected_timeline(self, forged):
        root, manifest = forged
        assert extract_tree(root) == expected_events(manifest)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_round_trip_other_seeds(self, tmp_path, seed):
        root = tmp_path / "t"
        manifest = forge_fixture(seed, root)
        assert extract_tree(root) == expected_events(manifest)

    def test_expected_timeline_is_json_clean(self, forged):
        root, _ = forged
        raw = json.loads((root / "manifest.json").read_text(encoding="utf-8"))
        for fields in raw["expected_timeline"]:
            assert set(fields) == set(timeline.EMIT_FIELDS)


class TestRelativize:
    def test_forge_name_is_the_timeline_function(self):
        assert relativize_events is timeline.relativize_events

    def test_paths_under_root_become_relative(self, tmp_path):
        event = TimelineEvent(
            when=ts_from_unix(1421685822, "seconds"), kind=EventKind.APP_LAUNCH,
            app=App.OTHER, summary="x",
            provenance=Provenance(str(tmp_path / "sub" / "a.db"), "t", Channel.DATABASE))
        out = relativize_events([event], tmp_path)
        assert out[0].provenance.evidence_path == "sub/a.db"

    def test_foreign_paths_left_alone(self, tmp_path):
        event = TimelineEvent(
            when=ts_from_unix(1421685822, "seconds"), kind=EventKind.APP_LAUNCH,
            app=App.OTHER, summary="x",
            provenance=Provenance("/somewhere/else.db", "t", Channel.DATABASE))
        assert relativize_events([event], tmp_path)[0] == event

    def test_matches_per_event_resolve(self, tmp_path, monkeypatch):
        root = tmp_path / "root"
        (root / "a").mkdir(parents=True)
        (root / "a" / "x").write_bytes(b"x")
        (tmp_path / "elsewhere").mkdir()
        (tmp_path / "into_root").symlink_to(root / "a")
        (root / "out_link").symlink_to(tmp_path / "elsewhere")
        monkeypatch.chdir(tmp_path)
        paths = [
            str(root / "a" / "x"),
            str(root / "a" / ".." / "a" / "x"),  # same file as a/x, different text
            str(root / "missing.db"),
            "root/a/x",  # relative to the working directory
            "root/a/../missing",
            "a/x",  # relative, but not under root from here
            str(tmp_path / "into_root" / "x"),  # a symlink into the root
            str(root / "out_link" / "y"),  # a link inside root that leaves it
            "/somewhere/else.db",
            str(tmp_path),
            str(root),
        ]

        def reference(events, base_dir):
            base = Path(base_dir).resolve()
            out = []
            for event in events:
                try:
                    rel = Path(event.provenance.evidence_path).resolve().relative_to(base)
                except (ValueError, OSError):
                    out.append(event)
                    continue
                out.append(replace(event, provenance=replace(event.provenance, evidence_path=rel.as_posix())))
            return out

        events = [
            TimelineEvent(
                when=ts_from_unix(1421685822 + i, "seconds"), kind=EventKind.APP_LAUNCH,
                app=App.OTHER, summary="e%d" % i,
                provenance=Provenance(paths[i % len(paths)], "t%d" % (i % 3),
                                      Channel.CARVED if i % 2 else Channel.DATABASE,
                                      byte_offset=i if i % 2 else None))
            for i in range(5 * len(paths))
        ]
        expected = reference(events, root)
        assert expected[0].provenance.evidence_path == "a/x"
        assert expected[6].provenance.evidence_path == "a/x"

        calls = []
        real_resolve = Path.resolve

        def counting_resolve(self, *args, **kwargs):
            calls.append(str(self))
            return real_resolve(self, *args, **kwargs)

        monkeypatch.setattr(Path, "resolve", counting_resolve)
        for base in (root, str(root), "root"):
            calls.clear()
            assert relativize_events(events, base) == expected
            assert len(calls) <= len(set(paths)) + 1
