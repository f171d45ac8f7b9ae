"""Corpus loading, invariants, and baseline projection."""

from __future__ import annotations

import json

import pytest

from planvet.corpus import baseline_plan, load_corpus, load_package, read_packages
from planvet.errors import IncidentNotFound, ParseError, SchemaError
from planvet.fixtures import NO_ISOLATE_EVIDENCE, incident_id, incident_obj
from planvet.plans import iter_proposals


class TestLoadCorpus:
    def test_loads_200_packages_in_id_order(self, corpus):
        assert len(corpus) == 200
        ids = [pkg.incident_id for pkg in corpus]
        assert ids == sorted(ids)
        assert ids[0] == "inc_0001" and ids[-1] == "inc_0200"

    def test_two_loads_identical(self, bundle, catalog):
        first = load_corpus(bundle / "corpus", catalog)
        second = load_corpus(bundle / "corpus", catalog)
        assert first.digests == second.digests
        assert [p.incident_id for p in first] == [p.incident_id for p in second]

    def test_empty_directory_gives_empty_corpus(self, tmp_path, catalog):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert len(load_corpus(empty, catalog)) == 0

    def test_open_phase_rejected(self, tmp_path, catalog):
        obj = incident_obj(1)
        obj["phase_id"] = "Open"
        path = tmp_path / f"{obj['incident_id']}.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(SchemaError, match="phase gate"):
            load_corpus(tmp_path, catalog)

    def test_unknown_mapped_action_rejected(self, tmp_path, catalog):
        obj = incident_obj(1)
        obj["mapped_human_actions"].append("made_up_action")
        (tmp_path / f"{obj['incident_id']}.json").write_text(json.dumps(obj))
        with pytest.raises(SchemaError, match="does not resolve"):
            load_corpus(tmp_path, catalog)

    def test_approval_for_ungated_action_rejected(self, tmp_path, catalog):
        obj = incident_obj(1)
        obj["approvals"].append({"action_id": "collect_forensics", "source": "x"})
        (tmp_path / f"{obj['incident_id']}.json").write_text(json.dumps(obj))
        with pytest.raises(SchemaError, match="not approval-gated"):
            load_corpus(tmp_path, catalog)

    def test_malformed_json_names_file(self, tmp_path, catalog):
        (tmp_path / "inc_9999.json").write_text("{nope")
        with pytest.raises(ParseError, match="inc_9999"):
            load_corpus(tmp_path, catalog)

    def test_filename_must_match_id(self, tmp_path, catalog):
        obj = incident_obj(1)
        (tmp_path / "other_name.json").write_text(json.dumps(obj))
        with pytest.raises(SchemaError, match="filename"):
            load_corpus(tmp_path, catalog)

    def test_every_corpus_action_resolves(self, corpus, catalog):
        for pkg in corpus:
            for action in pkg.mapped_human_actions:
                assert action in catalog
            for approval in pkg.approvals:
                assert approval.action_id in catalog

    def test_action_ids_are_the_catalog_strings(self, bundle, corpus, catalog):
        packages = [*corpus, load_package(bundle / "corpus", "inc_0001", catalog)]
        for pkg in packages:
            for action in pkg.mapped_human_actions:
                assert action is catalog.get(action).action_id
            for approval in pkg.approvals:
                assert approval.action_id is catalog.get(approval.action_id).action_id

    def test_each_category_value_is_held_once(self, corpus):
        values = [
            value
            for pkg in corpus
            for value in (
                pkg.category, pkg.severity, pkg.asset_criticality, pkg.phase_id,
                *(ev.source for ev in pkg.approvals),
                *(ev.event_type for ev in pkg.telemetry),
                *(label for ev in pkg.telemetry for label in ev.labels),
            )
        ]
        assert len({id(value) for value in values}) == len(set(values))


class TestBaselinePlan:
    def test_projection_preserves_order_and_multiplicity(self, corpus):
        pkg = corpus.get("inc_0001")
        plan = baseline_plan(pkg)
        assert plan.actions == tuple(pkg.mapped_human_actions)
        assert plan.source == "human_baseline"
        assert plan.model_id == ""
        assert plan.actions.count("collect_forensics") >= 3

    def test_empty_mapped_actions_give_empty_plan(self, corpus):
        pkg = corpus.get("inc_0001")
        from dataclasses import replace

        empty = replace(pkg, mapped_human_actions=())
        assert baseline_plan(empty).actions == ()

    def test_gap_incidents_have_no_isolate_and_no_evidence(self, corpus):
        for index in NO_ISOLATE_EVIDENCE:
            pkg = corpus.get(incident_id(index))
            assert "isolate_host" not in pkg.mapped_human_actions
            assert pkg.approvals == ()

    def test_supported_incidents_carry_proxy_evidence(self, corpus):
        pkg = corpus.get("inc_0001")
        assert "isolate_host" in pkg.mapped_human_actions
        assert pkg.approved_actions() == {"isolate_host"}


def _write_corpus(directory, *objs):
    directory.mkdir(exist_ok=True)
    for obj in objs:
        (directory / f"{obj['incident_id']}.json").write_text(json.dumps(obj))
    return directory


class TestLoaderDefects:
    def test_non_object_telemetry_entry_is_a_schema_error(self, tmp_path, catalog):
        obj = incident_obj(1)
        obj["telemetry"].append("process_start")
        with pytest.raises(SchemaError, match="telemetry/2: expected an object"):
            load_corpus(_write_corpus(tmp_path / "c", obj), catalog)

    def test_string_order_index_is_a_schema_error(self, tmp_path, catalog):
        obj = incident_obj(1)
        obj["extracted_tasks"][0]["order_index"] = "0"
        with pytest.raises(SchemaError, match="order_index: expected an integer"):
            load_corpus(_write_corpus(tmp_path / "c", obj), catalog)

    def test_decreasing_order_index_rejected(self, tmp_path, catalog):
        obj = incident_obj(1)
        obj["extracted_tasks"][1]["order_index"] = 0
        with pytest.raises(SchemaError, match="strictly increasing"):
            load_corpus(_write_corpus(tmp_path / "c", obj), catalog)

    def test_non_utf8_file_is_a_parse_error(self, tmp_path, catalog):
        (tmp_path / "inc_0001.json").write_bytes(b'{"incident_id": "\xff"}')
        with pytest.raises(ParseError, match="inc_0001.json"):
            load_corpus(tmp_path, catalog)

    def test_first_defect_in_filename_order_wins(self, tmp_path, catalog):
        bad_id = incident_obj(1)
        bad_id["mapped_human_actions"].append("made_up_action")
        bad_schema = incident_obj(2)
        del bad_schema["severity"]
        _write_corpus(tmp_path / "c", bad_id, bad_schema)
        with pytest.raises(SchemaError, match="inc_0001: mapped action"):
            load_corpus(tmp_path / "c", catalog)

    def test_visit_sees_every_file_even_after_a_defect(self, tmp_path, catalog):
        first = incident_obj(1)
        del first["severity"]
        _write_corpus(tmp_path / "c", first, incident_obj(2), incident_obj(3))
        seen = []
        with pytest.raises(SchemaError, match="missing required field 'severity'"):
            load_corpus(tmp_path / "c", catalog, visit=lambda f: seen.append(f.name))
        assert seen == ["inc_0001.json", "inc_0002.json", "inc_0003.json"]

    def test_directory_named_json_is_a_parse_error(self, tmp_path, catalog):
        _write_corpus(tmp_path / "c", incident_obj(1))
        (tmp_path / "c" / "zz.json").mkdir()
        with pytest.raises(ParseError, match="^zz.json: cannot read: Is a directory"):
            load_corpus(tmp_path / "c", catalog)

    def test_digests_are_taken_from_the_parsed_bytes(self, bundle, corpus):
        from planvet.util import sha256_file

        assert corpus.digests == {
            name: sha256_file(bundle / "corpus" / name) for name in corpus.digests
        }


class TestDirectoryListing:
    """The loaders list the names that ``sorted(glob("*.json"))`` lists, in its order."""

    # Listed: dotfiles and a name sorting before the digits; skipped: other
    # suffixes, a suffix in another case, and a ``.json`` inside a name.
    NAMES = (".x", "_a", "B", "a", "a.b", "\u00e9", "0")
    SKIPPED = ("X.JSON", "a.json.bak", "notes.txt", "json", "a_json")

    @staticmethod
    def _globbed(directory):
        return [path.name for path in sorted(directory.glob("*.json"))]

    def test_read_packages_sees_the_globbed_names(self, tmp_path):
        for stem in self.NAMES:
            (tmp_path / f"{stem}.json").write_text("{}")
        for name in self.SKIPPED:
            (tmp_path / name).write_text("{}")
        names = [package.name for package in read_packages(tmp_path)]
        assert names == self._globbed(tmp_path)
        assert len(names) == len(self.NAMES)

    def test_iter_proposals_sees_the_globbed_names(self, tmp_path, catalog):
        for stem in self.NAMES:
            (tmp_path / f"{stem}__m__a.json").write_text('{"recommended_actions": []}')
        for name in self.SKIPPED:
            (tmp_path / f"i__m__{name}").write_text("not JSON")
        seen = [f"{p.incident_id}__{p.model_id}__{p.arm}.json" for p in iter_proposals(tmp_path, catalog)]
        assert seen == self._globbed(tmp_path)
        assert len(seen) == len(self.NAMES)

    def test_a_missing_directory_lists_nothing(self, tmp_path, catalog):
        assert self._globbed(tmp_path / "absent") == []
        assert list(read_packages(tmp_path / "absent")) == []
        assert list(iter_proposals(tmp_path / "absent", catalog)) == []

    def test_directory_named_like_a_proposal_is_a_parse_error(self, tmp_path, catalog):
        (tmp_path / "inc_0001__m__a.json").mkdir()
        with pytest.raises(ParseError, match="^inc_0001__m__a.json: cannot read: Is a directory"):
            list(iter_proposals(tmp_path, catalog))


class TestCorpusIndex:
    def test_repeated_id_resolves_to_first_package(self, corpus):
        from dataclasses import replace

        from planvet.corpus import Corpus

        first = corpus.get("inc_0001")
        second = replace(first, severity="critical")
        assert Corpus(packages=(first, second)).get("inc_0001") is first


def test_proposal_model_and_arm_are_held_once(bundle, catalog):
    plans = list(iter_proposals(bundle / "proposals", catalog))
    names = [name for plan in plans for name in (plan.model_id, plan.arm)]
    assert len({id(name) for name in names}) == len(set(names)) == 4


class TestLoadPackage:
    def test_equals_the_corpus_package_for_every_incident(self, bundle, catalog, corpus):
        assert len(corpus) == 200
        for pkg in corpus:
            assert load_package(bundle / "corpus", pkg.incident_id, catalog) == pkg

    @pytest.mark.parametrize(
        "defect, match",
        [
            (lambda o: o["telemetry"].append("process_start"), "inc_0001.json: telemetry/2: expected an object"),
            (lambda o: o.update(phase_id="Open"), "phase gate"),
            (lambda o: o["mapped_human_actions"].append("made_up_action"),
             "inc_0001: mapped action 'made_up_action' does not resolve"),
            (lambda o: o["extracted_tasks"][1].update(order_index=0), "strictly increasing"),
            (lambda o: o.update(incident_id="inc_0002"), "filename must be"),
        ],
    )
    def test_defects_raise_as_in_load_corpus(self, tmp_path, catalog, defect, match):
        obj = incident_obj(1)
        defect(obj)
        directory = tmp_path / "c"
        directory.mkdir()
        (directory / "inc_0001.json").write_text(json.dumps(obj))
        with pytest.raises(SchemaError, match=match) as from_corpus:
            load_corpus(directory, catalog)
        with pytest.raises(SchemaError, match=match) as from_package:
            load_package(directory, "inc_0001", catalog)
        assert str(from_package.value) == str(from_corpus.value)

    def test_invalid_json_is_a_parse_error(self, tmp_path, catalog):
        (tmp_path / "inc_0001.json").write_text("{nope")
        with pytest.raises(ParseError, match="inc_0001.json: invalid JSON"):
            load_package(tmp_path, "inc_0001", catalog)

    def test_other_packages_are_not_read(self, tmp_path, catalog):
        directory = _write_corpus(tmp_path / "c", incident_obj(1))
        (directory / "inc_0002.json").write_text("{nope")
        assert load_package(directory, "inc_0001", catalog).incident_id == "inc_0001"

    def test_absent_file_or_directory_is_not_found(self, tmp_path, catalog):
        directory = _write_corpus(tmp_path / "c", incident_obj(1))
        (directory / "inc_0002.json").mkdir()
        for missing in ("inc_0002", "inc_0003", ""):
            with pytest.raises(IncidentNotFound):
                load_package(directory, missing, catalog)

    def test_ids_reaching_outside_the_directory_are_not_found(self, tmp_path, catalog):
        directory = _write_corpus(tmp_path / "c", incident_obj(2))
        outside = _write_corpus(tmp_path / "outside", incident_obj(1))
        for escape in ("../outside/inc_0001", str(outside / "inc_0001"), "./inc_0002"):
            with pytest.raises(IncidentNotFound):
                load_package(directory, escape, catalog)
