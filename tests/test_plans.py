"""Proposal parsing under the output contract."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planvet.errors import MissingField, ParseError, WrongType
from planvet.plans import out_of_catalog_rate, parse_proposal

CATALOG_IDS = (
    "collect_forensics",
    "isolate_host",
    "reset_admin_credentials",
    "block_egress_ip",
    "restore_host",
)


def _parse(doc, catalog, **kw):
    kw.setdefault("incident_id", "inc_0001")
    return parse_proposal(doc, catalog, **kw)


class TestParseProposal:
    def test_single_known_action(self, catalog):
        plan = _parse('{"recommended_actions": ["restore_host"]}', catalog)
        assert plan.actions == ("restore_host",)
        assert plan.out_of_catalog == ()

    def test_empty_array_is_a_valid_empty_plan(self, catalog):
        plan = _parse('{"recommended_actions": []}', catalog)
        assert plan.actions == ()

    def test_byte_equality_filtering(self, catalog):
        # "Restore Host" differs from the catalog token byte-for-byte: rejected
        plan = _parse('{"recommended_actions": ["Restore Host", "isolate_host"]}', catalog)
        assert plan.actions == ("isolate_host",)
        assert plan.out_of_catalog == ("Restore Host",)

    def test_duplicates_preserved(self, catalog):
        doc = '{"recommended_actions": ["isolate_host", "isolate_host"]}'
        assert _parse(doc, catalog).actions == ("isolate_host", "isolate_host")

    def test_extra_fields_ignored(self, catalog):
        doc = '{"recommended_actions": ["isolate_host"], "confidence": 0.8, "notes": "x"}'
        assert _parse(doc, catalog).actions == ("isolate_host",)

    def test_missing_field(self, catalog):
        with pytest.raises(MissingField):
            _parse('{"actions": []}', catalog)

    def test_wrong_type_field(self, catalog):
        with pytest.raises(WrongType):
            _parse('{"recommended_actions": "isolate_host"}', catalog)

    def test_wrong_type_entry(self, catalog):
        with pytest.raises(WrongType):
            _parse('{"recommended_actions": [42]}', catalog)

    def test_invalid_json(self, catalog):
        with pytest.raises(ParseError):
            _parse("{not json", catalog)

    def test_nesting_deeper_than_the_decoder_is_a_parse_error(self, catalog):
        doc = '{"recommended_actions": ' + "[" * 100_000 + "]" * 100_000 + "}"
        with pytest.raises(ParseError, match="proposal for inc_0001: not valid JSON: nested too deeply"):
            _parse(doc, catalog)

    def test_kept_actions_are_the_catalog_strings(self, catalog):
        doc = '{"recommended_actions": ["restore_host", "Restore Host", "isolate_host", "restore_host"]}'
        plan = _parse(doc, catalog)
        assert plan.actions == ("restore_host", "isolate_host", "restore_host")
        assert all(action is catalog.get(action).action_id for action in plan.actions)
        assert plan.out_of_catalog == ("Restore Host",)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(CATALOG_IDS + ("Isolate Host", "open ticket", "")), max_size=12))
    def test_partition_preserves_relative_order(self, catalog, tokens):
        plan = _parse(json.dumps({"recommended_actions": tokens}), catalog)
        kept = [t for t in tokens if t in CATALOG_IDS]
        rejected = [t for t in tokens if t not in CATALOG_IDS]
        assert list(plan.actions) == kept
        assert list(plan.out_of_catalog) == rejected

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from(CATALOG_IDS + ("bogus",)), max_size=10))
    def test_reparse_of_reserialization_is_stable(self, catalog, tokens):
        doc = json.dumps({"recommended_actions": tokens})
        first = _parse(doc, catalog)
        reserialized = json.dumps(
            {"recommended_actions": list(first.actions) + list(first.out_of_catalog)}
        )
        second = _parse(reserialized, catalog)
        assert set(second.actions) == set(first.actions)
        assert _parse(doc, catalog) == first  # parsing itself is deterministic


class TestOutOfCatalogRate:
    def test_empty_list_is_zero(self):
        assert out_of_catalog_rate([]) == 0.0

    def test_counting(self, catalog):
        clean = _parse('{"recommended_actions": ["isolate_host"]}', catalog)
        dirty = _parse('{"recommended_actions": ["nope"]}', catalog)
        assert out_of_catalog_rate([clean, dirty, clean, clean]) == 0.25

    def test_official_bundle_is_clean(self, bundle, catalog):
        from planvet.plans import load_proposals

        plans = load_proposals(bundle / "proposals", catalog)
        assert len(plans) == 800
        assert out_of_catalog_rate(plans) == 0.0
