"""Repair engine semantics: pass order, fixed points, typed traces."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from planvet.catalog import (
    ActionCatalog,
    ActionEntry,
    PolicyRule,
    ScopePredicate,
    validate_policy,
)
from planvet.corpus import ApprovalEvidence, IncidentPackage, TelemetryEvent
from planvet.engine import (
    MODE_DEFER,
    MODE_REMOVE,
    enforce_actions,
    is_fixed_point,
    order_chain_depth,
)


def _catalog(ids, gated=()):
    return ActionCatalog(
        tuple(
            ActionEntry(i, i, approval_gate=(i in gated), reversible=True, baseline_support=False)
            for i in ids
        )
    )


def _incident(approved=(), telemetry=()):
    return IncidentPackage(
        incident_id="inc_test",
        category="malware",
        severity="high",
        asset_criticality="tier-1",
        phase_id="Complete",
        telemetry=tuple(telemetry),
        case_metadata={},
        mapped_human_actions=(),
        approvals=tuple(ApprovalEvidence(a, "test") for a in approved),
    )


def _order(rule_id, prereq, target):
    return PolicyRule(rule_id, "prohibit_before", target, "hard", "insert_before",
                      prerequisite_action=prereq)


def _approval(rule_id, target, operator="remove"):
    return PolicyRule(rule_id, "require_approval", target, "hard", operator)


def _mandatory(rule_id, target, event_substr):
    return PolicyRule(rule_id, "mandatory", target, "hard", "insert",
                      scope=ScopePredicate(event_substr))


class TestWorkedExample:
    """Restore-only plan under the evidence-preservation and approval rules."""

    def test_trace_and_enforced_plan(self, policy):
        incident = _incident()  # no approval evidence
        result = enforce_actions(["restore_host"], policy, incident, MODE_REMOVE)
        assert result.enforced_actions == ("collect_forensics",)
        assert [
            (v.rule_id, v.violation_type, v.repair, v.action_id) for v in result.violations
        ] == [
            ("R2", "order_violation", "insert_before", "collect_forensics"),
            ("R3", "approval_required", "remove", "restore_host"),
        ]
        assert result.violations[0].position == 0
        assert result.modified is True
        assert dict(result.edit_counts) == {
            "insert": 0, "insert_before": 1, "remove": 1, "reorder": 0, "defer": 0,
        }

    def test_enforced_output_is_a_fixed_point(self, policy):
        incident = _incident()
        result = enforce_actions(["restore_host"], policy, incident, MODE_REMOVE)
        assert is_fixed_point(result.enforced_actions, policy, incident, MODE_REMOVE)
        assert not is_fixed_point(["restore_host"], policy, incident, MODE_REMOVE)

    def test_empty_plan_under_vacuous_scope_is_fixed(self, policy):
        incident = _incident()
        result = enforce_actions([], policy, incident, MODE_REMOVE)
        assert result.enforced_actions == ()
        assert result.violations == ()
        assert result.modified is False
        assert is_fixed_point([], policy, incident, MODE_REMOVE)

    def test_approval_evidence_satisfies_the_gate(self, policy):
        incident = _incident(approved=("restore_host",))
        result = enforce_actions(
            ["collect_forensics", "restore_host"], policy, incident, MODE_REMOVE
        )
        assert result.enforced_actions == ("collect_forensics", "restore_host")
        assert result.violations == ()
        assert result.modified is False


class TestOrderingChains:
    def test_two_rule_chain_inserts_both_prerequisites(self):
        # hand simulation of the leftmost-first scan:
        #   [c]: c lacks b -> insert b -> [b, c]; b lacks a -> insert a -> [a, b, c]
        catalog = _catalog(["a", "b", "c"])
        policy = validate_policy(catalog, [_order("r1", "b", "c"), _order("r2", "a", "b")])
        result = enforce_actions(["c"], policy, _incident(), MODE_REMOVE)
        assert result.enforced_actions == ("a", "b", "c")
        assert [v.violation_type for v in result.violations] == ["order_violation"] * 2
        assert [v.action_id for v in result.violations] == ["b", "a"]
        assert order_chain_depth(result, policy) == 2

    def test_later_prerequisite_occurrence_does_not_satisfy(self):
        catalog = _catalog(["a", "b"])
        policy = validate_policy(catalog, [_order("r1", "a", "b")])
        result = enforce_actions(["b", "a"], policy, _incident(), MODE_REMOVE)
        # a new instance is inserted; the engine never reorders
        assert result.enforced_actions == ("a", "b", "a")
        assert result.edit_counts["insert_before"] == 1
        assert result.edit_counts["reorder"] == 0

    def test_leftmost_violation_repaired_first(self):
        catalog = _catalog(["a", "b", "x", "y"])
        policy = validate_policy(catalog, [_order("r1", "a", "b"), _order("r2", "x", "y")])
        result = enforce_actions(["y", "b"], policy, _incident(), MODE_REMOVE)
        assert result.enforced_actions == ("x", "y", "a", "b")
        assert [v.rule_id for v in result.violations] == ["r2", "r1"]

    def test_rules_on_one_occurrence_fire_in_ascending_id(self):
        catalog = _catalog(["a", "b", "c"])
        policy = validate_policy(catalog, [_order("r9", "a", "c"), _order("r2", "b", "c")])
        result = enforce_actions(["c"], policy, _incident(), MODE_REMOVE)
        # r2 inserts b before c; r9 then inserts a before that same c
        assert [v.rule_id for v in result.violations] == ["r2", "r9"]
        assert result.enforced_actions == ("b", "a", "c")

    def test_multiple_target_occurrences_need_one_insertion(self):
        catalog = _catalog(["a", "b"])
        policy = validate_policy(catalog, [_order("r1", "a", "b")])
        result = enforce_actions(["b", "b", "b"], policy, _incident(), MODE_REMOVE)
        assert result.enforced_actions == ("a", "b", "b", "b")
        assert result.edit_counts["insert_before"] == 1


class TestMandatoryPass:
    def test_mandatory_appends_at_end_when_scope_matches(self):
        catalog = _catalog(["a", "m"])
        policy = validate_policy(catalog, [_mandatory("r1", "m", "alert")])
        incident = _incident(telemetry=[TelemetryEvent(event_type="edr_alert")])
        result = enforce_actions(["a"], policy, incident, MODE_REMOVE)
        assert result.enforced_actions == ("a", "m")
        assert result.violations[0].violation_type == "missing_mandatory"
        assert result.violations[0].position == 1

    def test_mandatory_skipped_when_present_or_out_of_scope(self):
        catalog = _catalog(["a", "m"])
        policy = validate_policy(catalog, [_mandatory("r1", "m", "alert")])
        matched = _incident(telemetry=[TelemetryEvent(event_type="edr_alert")])
        assert enforce_actions(["m"], policy, matched, MODE_REMOVE).modified is False
        unmatched = _incident(telemetry=[TelemetryEvent(event_type="flow")])
        assert enforce_actions(["a"], policy, unmatched, MODE_REMOVE).modified is False

    def test_mandatory_insert_then_approval_removal_keeps_both_records(self):
        # an inserted-but-unapproved gated action is removed again in pass 3;
        # both violations stay on the trace and the run counts as modified
        catalog = _catalog(["a", "m"], gated=("m",))
        policy = validate_policy(
            catalog, [_mandatory("r1", "m", "alert"), _approval("r2", "m")]
        )
        incident = _incident(telemetry=[TelemetryEvent(event_type="edr_alert")])
        result = enforce_actions(["a"], policy, incident, MODE_REMOVE)
        assert result.enforced_actions == ("a",)
        assert [v.violation_type for v in result.violations] == [
            "missing_mandatory", "approval_required",
        ]
        assert result.modified is True


class TestApprovalPass:
    def test_remove_mode_deletes_every_unapproved_occurrence(self):
        catalog = _catalog(["a", "g"], gated=("g",))
        policy = validate_policy(catalog, [_approval("r1", "g")])
        result = enforce_actions(["g", "a", "g"], policy, _incident(), MODE_REMOVE)
        assert result.enforced_actions == ("a",)
        assert result.edit_counts["remove"] == 2
        assert [v.position for v in result.violations] == [0, 1]

    def test_defer_mode_keeps_plan_and_records(self):
        catalog = _catalog(["a", "g"], gated=("g",))
        policy = validate_policy(catalog, [_approval("r1", "g")])
        result = enforce_actions(["g", "a"], policy, _incident(), MODE_DEFER)
        assert result.enforced_actions == ("g", "a")
        assert result.deferred_actions == ("g",)
        assert result.violations[0].repair == "defer"
        assert result.modified is True

    def test_defer_reenforcement_keeps_content_and_refires(self):
        catalog = _catalog(["g"], gated=("g",))
        policy = validate_policy(catalog, [_approval("r1", "g")])
        incident = _incident()
        first = enforce_actions(["g"], policy, incident, MODE_DEFER)
        second = enforce_actions(first.enforced_actions, policy, incident, MODE_DEFER)
        assert second.enforced_actions == first.enforced_actions
        assert len(second.violations) == len(first.violations) == 1

    def test_evidence_is_per_action_per_incident(self):
        catalog = _catalog(["g"], gated=("g",))
        policy = validate_policy(catalog, [_approval("r1", "g")])
        incident = _incident(approved=("g",))
        result = enforce_actions(["g", "g"], policy, incident, MODE_REMOVE)
        assert result.violations == ()

    def test_lowest_rule_id_carries_the_record_whatever_the_declaration_order(self):
        catalog = _catalog(["g"], gated=("g",))
        policy = validate_policy(catalog, [_approval("r9", "g"), _approval("r1", "g")])
        for mode in (MODE_REMOVE, MODE_DEFER):
            result = enforce_actions(["g"], policy, _incident(), mode)
            assert [v.rule_id for v in result.violations] == ["r1"]


class TestSelfConflictingPolicyCorner:
    def test_mandatory_insert_remove_loop_is_content_stable(self):
        # a policy that both requires and approval-blocks the same action has
        # no flag-level fixed point: each pass inserts then removes it; the
        # plan content never changes and both violations re-fire
        catalog = _catalog(["a", "g"], gated=("g",))
        policy = validate_policy(
            catalog, [_mandatory("r1", "g", "alert"), _approval("r2", "g")]
        )
        incident = _incident(telemetry=[TelemetryEvent(event_type="edr_alert")])
        first = enforce_actions(["a"], policy, incident, MODE_REMOVE)
        second = enforce_actions(first.enforced_actions, policy, incident, MODE_REMOVE)
        assert first.enforced_actions == second.enforced_actions == ("a",)
        assert second.modified is True
        assert second.canonical() == first.canonical()


class TestDeterminismAndIdempotence:
    # gated actions stay out of the insertion rules here, so flag-level
    # idempotence holds; the self-conflicting corner is pinned above
    ACTIONS = ["a", "b", "c", "d", "g", "h"]
    INSERTABLE = ["a", "b", "c", "d"]

    def _random_policy(self, order_pairs, approvals, mandatory):
        catalog = _catalog(self.ACTIONS, gated=("g", "h"))
        rules = []
        for idx, (i, j) in enumerate(order_pairs):
            if i == j:
                continue
            lo, hi = sorted((i, j))
            rules.append(_order(f"o{idx:02d}", self.INSERTABLE[lo], self.INSERTABLE[hi]))
        for idx, target in enumerate(approvals):
            rules.append(_approval(f"q{idx:02d}", target))
        for idx, target in enumerate(mandatory):
            rules.append(_mandatory(f"m{idx:02d}", target, "alert"))
        return validate_policy(catalog, rules)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from(ACTIONS), max_size=20),
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=6),
        st.lists(st.sampled_from(["g", "h"]), max_size=2, unique=True),
        st.lists(st.sampled_from(INSERTABLE), max_size=2, unique=True),
        st.booleans(),
    )
    def test_remove_mode_idempotent_and_deterministic(
        self, plan, order_pairs, approvals, mandatory, with_telemetry
    ):
        policy = self._random_policy(order_pairs, approvals, mandatory)
        telemetry = [TelemetryEvent(event_type="edr_alert")] if with_telemetry else []
        incident = _incident(telemetry=telemetry)
        first = enforce_actions(plan, policy, incident, MODE_REMOVE)
        again = enforce_actions(plan, policy, incident, MODE_REMOVE)
        assert first.canonical() == again.canonical()
        second = enforce_actions(first.enforced_actions, policy, incident, MODE_REMOVE)
        assert second.modified is False
        assert second.enforced_actions == first.enforced_actions
