"""Privacy scanning, release gates, activation checks, manifests."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from planvet.audit import (
    build_manifest,
    mask_excerpt,
    privacy_scan,
    release_gate,
)
from planvet.errors import IoError, ReleaseGateFailed, SchemaError
from planvet.pipeline import RunConfig, load_gated_corpus
from planvet.util import read_json


class TestPrivacyScan:
    def test_email_and_ipv4_found(self):
        # oracle: the field contains exactly one address of each kind
        doc = {"note": "contact admin@corp.example from 10.1.2.3"}
        findings = privacy_scan([("doc1", doc)])
        kinds = [f.kind for f in findings]
        assert kinds == ["email", "ipv4"]
        assert all("admin@corp.example" not in f.excerpt for f in findings)
        assert findings[0].document_ref == "doc1.note"

    def test_empty_corpus(self):
        assert privacy_scan([]) == []

    def test_forbidden_terms(self):
        findings = privacy_scan(
            [("d", {"x": "refers to Project BLUEHARBOR twice: blueharbor"})],
            forbidden_terms=["blueharbor"],
        )
        assert [f.kind for f in findings] == ["forbidden_term", "forbidden_term"]

    def test_masking_never_reveals_middle(self):
        assert mask_excerpt("admin@corp.example") == "ad**************le"
        assert mask_excerpt("ab") == "**"

    def test_deterministic_order_and_idempotence(self):
        docs = [
            ("b", {"k": "10.0.0.1 then user_1234"}),
            ("a", {"k": "mail me: a@b.example"}),
        ]
        first = privacy_scan(docs)
        second = privacy_scan(list(docs))
        assert first == second
        refs = [f.document_ref for f in first]
        assert refs == sorted(refs)

    def test_nested_fields_scanned(self):
        doc = {"telemetry": [{"command": "curl http://198.51.100.7/x"}]}
        findings = privacy_scan([("p", doc)])
        assert [f.kind for f in findings] == ["ipv4"]
        assert findings[0].document_ref == "p.telemetry[0].command"


class TestReleaseGate:
    def test_official_bundle_passes_with_gap_suggestion(self, bundle, catalog, mapping_rules):
        terms = [
            t for t in (bundle / "forbidden_terms.txt").read_text().splitlines() if t
        ]
        report = release_gate(
            bundle / "corpus", catalog, mapping_rules,
            forbidden_terms=terms,
            patterns=read_json(bundle / "privacy_patterns.json"),
        )
        assert report.overall_pass
        assert report.privacy_finding_count == 0
        assert report.unmatched_tasks == 0 and report.ambiguous_tasks == 0
        suggestions = [g["suggestion"] for g in report.approval_gaps]
        assert suggestions == ["require_approval(isolate_host)"]

    def test_unmatched_task_fails_mapping_gate(self, tmp_path, catalog, mapping_rules):
        from planvet.fixtures import incident_obj

        obj = incident_obj(1)
        obj["extracted_tasks"].append(
            {"task_id": "inc_0001-t99", "text": "emailed the regulator", "order_index": 99}
        )
        (tmp_path / "inc_0001.json").write_text(json.dumps(obj))
        report = release_gate(tmp_path, catalog, mapping_rules)
        assert report.mapping_pass is False
        assert report.overall_pass is False
        assert report.unmatched_tasks == 1

    def test_empty_corpus_passes_vacuously_and_is_flagged(self, tmp_path, catalog, mapping_rules):
        report = release_gate(tmp_path, catalog, mapping_rules)
        assert report.overall_pass
        assert report.empty_corpus is True

    def test_schema_violation_fails_parseability(self, tmp_path, catalog, mapping_rules):
        from planvet.fixtures import incident_obj

        obj = incident_obj(1)
        del obj["telemetry"]
        (tmp_path / "inc_0001.json").write_text(json.dumps(obj))
        report = release_gate(tmp_path, catalog, mapping_rules)
        assert report.parseability_pass is False
        assert "inc_0001.json" in report.parse_failures[0]

    def test_schema_failure_names_file_and_location(self, tmp_path, catalog, mapping_rules):
        from planvet.fixtures import incident_obj

        obj = incident_obj(1)
        obj["telemetry"][0]["event_type"] = 7
        (tmp_path / "inc_0001.json").write_text(json.dumps(obj))
        report = release_gate(tmp_path, catalog, mapping_rules)
        assert report.parse_failures == [
            "inc_0001.json: telemetry/0/event_type: expected a string, got integer"
        ]

    def test_undecodable_file_is_a_parse_failure(self, tmp_path, catalog, mapping_rules):
        (tmp_path / "inc_0001.json").write_bytes(b"\xff\xfe{}")
        report = release_gate(tmp_path, catalog, mapping_rules)
        assert report.parseability_pass is False
        assert report.parse_failures[0].startswith("inc_0001.json: invalid JSON: ")

    def test_gate_is_stable_under_rerun(self, bundle, catalog, mapping_rules):
        first = release_gate(bundle / "corpus", catalog, mapping_rules)
        second = release_gate(bundle / "corpus", catalog, mapping_rules)
        assert first.to_json_obj() == second.to_json_obj()


class TestGatedLoad:
    """``evaluate``'s single pass: one read per file feeds the gate and the loader."""

    @staticmethod
    def _config(bundle, corpus_dir, **overrides):
        return RunConfig.from_json(bundle / "config.json", corpus_dir=str(corpus_dir), **overrides)

    @staticmethod
    def _corpus(directory, *objs):
        directory.mkdir()
        for obj in objs:
            (directory / f"{obj['incident_id']}.json").write_text(json.dumps(obj))
        return directory

    def test_each_corpus_file_is_opened_once(self, bundle, catalog, mapping_rules, monkeypatch):
        import builtins
        import io

        corpus_dir = bundle / "corpus"
        opened = []
        real_open = io.open

        def counting_open(file, *args, **kwargs):
            if Path(str(file)).parent == corpus_dir:
                opened.append(Path(str(file)).name)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(io, "open", counting_open)
        monkeypatch.setattr(builtins, "open", counting_open)
        corpus = load_gated_corpus(self._config(bundle, corpus_dir), catalog, mapping_rules)
        assert len(corpus) == 200
        assert sorted(opened) == sorted(p.name for p in corpus_dir.glob("*.json"))

    def test_gate_failure_outranks_loader_defect(self, bundle, tmp_path, catalog, mapping_rules):
        from planvet.fixtures import incident_obj

        broken = incident_obj(2)
        broken["phase_id"] = "Open"
        corpus_dir = self._corpus(tmp_path / "c", incident_obj(1), broken)
        with pytest.raises(ReleaseGateFailed, match="parseability=False"):
            load_gated_corpus(self._config(bundle, corpus_dir), catalog, mapping_rules)
        with pytest.raises(SchemaError, match="phase gate"):
            load_gated_corpus(self._config(bundle, corpus_dir, skip_gates=True), catalog, mapping_rules)

    def test_loader_defect_raised_when_gate_passes(self, bundle, tmp_path, catalog, mapping_rules):
        from planvet.fixtures import incident_obj

        corpus_dir = self._corpus(tmp_path / "c", incident_obj(1))
        (corpus_dir / "inc_0001.json").rename(corpus_dir / "renamed.json")
        assert release_gate(corpus_dir, catalog, mapping_rules).overall_pass
        with pytest.raises(SchemaError, match="filename"):
            load_gated_corpus(self._config(bundle, corpus_dir), catalog, mapping_rules)


class TestBuildManifest:
    def test_identical_inputs_identical_content_digest(self, bundle):
        paths = [bundle / "catalog.json", bundle / "policy.json"]
        first = build_manifest(paths)
        second = build_manifest(paths)
        assert first["content_sha256"] == second["content_sha256"]
        assert first["files"] == second["files"]

    def test_one_changed_byte_changes_only_that_entry(self, tmp_path, bundle):
        a = tmp_path / "catalog.json"
        b = tmp_path / "policy.json"
        a.write_text((bundle / "catalog.json").read_text())
        b.write_text((bundle / "policy.json").read_text())
        before = build_manifest([a, b])
        b.write_text(b.read_text() + " ")
        after = build_manifest([a, b])
        assert before["files"]["catalog.json"] == after["files"]["catalog.json"]
        assert before["files"]["policy.json"] != after["files"]["policy.json"]
        assert before["content_sha256"] != after["content_sha256"]

    def test_three_entry_manifest(self, bundle):
        manifest = build_manifest(
            [bundle / "catalog.json", bundle / "policy.json", bundle / "mapping_rules.json"]
        )
        assert len(manifest["files"]) == 3

    def test_unreadable_file_raises(self, tmp_path):
        with pytest.raises(IoError):
            build_manifest([tmp_path / "missing.json"])
