"""Repair engine semantics: pass order, fixed points, typed traces."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planvet.audit import activation_check
from planvet.catalog import (
    PROHIBIT_BEFORE,
    ActionCatalog,
    ActionEntry,
    PolicyRule,
    ScopePredicate,
    ValidatedPolicy,
    load_policy,
    scope_matches,
    validate_policy,
)
from planvet.corpus import ApprovalEvidence, IncidentPackage, TelemetryEvent, baseline_plan, load_corpus
from planvet.engine import (
    APPROVAL_MODES,
    EDIT_OPERATORS,
    MODE_DEFER,
    MODE_REMOVE,
    VIOLATION_TYPE_BY_FAMILY,
    EnforcementResult,
    ViolationRecord,
    enforce_actions,
    enforce_modes,
    is_fixed_point,
    order_chain_depth,
)
from planvet.errors import InternalBoundExceeded
from planvet.plans import iter_proposals, parse_proposal
from planvet.util import read_json


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
        for mode in APPROVAL_MODES:
            assert enforce_actions(plan, policy, incident, mode) == reference_enforce_actions(
                plan, policy, incident, mode
            )


class TestTerminationCap:
    def test_cyclic_policy_past_validation_hits_the_cap(self):
        # validate_policy refuses a cycle; built directly, the ordering scan
        # inserts a fresh a/b pair forever until the insertion cap stops it
        # (1 action * 2 rules * 2 catalog entries = 4)
        rules = (_order("r1", "a", "b"), _order("r2", "b", "a"))
        policy = ValidatedPolicy(_catalog(["a", "b"]), rules, (("a", "b"), ("b", "a")))
        with pytest.raises(InternalBoundExceeded, match="^ordering repair exceeded 4 iterations; engine bug$"):
            enforce_actions(["a"], policy, _incident(), MODE_REMOVE)


# ---------------------------------------------------------------------------
# Differential: one shared pass-1/pass-2 prefix against the per-mode engine
# ---------------------------------------------------------------------------

def reference_enforce_actions(actions, policy, incident, mode=MODE_REMOVE):
    """The engine as it was before ``enforce_modes``: all three passes per mode.

    Pass 2 keeps the rescan from index 0 after every insertion, the oracle
    for the engine's single forward scan.
    """
    if mode not in APPROVAL_MODES:
        raise ValueError(f"unknown approval mode {mode!r}")

    # Working plan carries stable occurrence tags so the termination
    # instrumentation can assert "one insertion per (rule, occurrence)".
    tag_counter = iter(range(10**9))
    working: list[tuple[str, int]] = [(a, next(tag_counter)) for a in actions]
    violations: list[ViolationRecord] = []
    edit_counts: dict[str, int] = {op: 0 for op in EDIT_OPERATORS}
    deferred: list[str] = []

    _ref_pass_mandatory(working, policy, incident, violations, edit_counts, tag_counter)
    _ref_pass_ordering(working, policy, violations, edit_counts, tag_counter)
    _ref_pass_approval(working, policy, incident, mode, violations, edit_counts, deferred)

    return EnforcementResult(
        enforced_actions=tuple(action for action, _ in working),
        violations=tuple(violations),
        modified=sum(edit_counts.values()) >= 1,
        edit_counts=edit_counts,
        approval_mode=mode,
        deferred_actions=tuple(deferred),
    )


def _ref_record(rule, action, position, repair):
    return ViolationRecord(
        rule_id=rule.rule_id,
        family=rule.family,
        violation_type=VIOLATION_TYPE_BY_FAMILY[rule.family],
        action_id=action,
        position=position,
        repair=repair,
        severity=rule.severity,
    )


def _ref_pass_mandatory(working, policy, incident, violations, edit_counts, tag_counter):
    for rule in policy.mandatory_rules:
        if not scope_matches(rule, incident.telemetry):
            continue
        if any(action == rule.target_action for action, _ in working):
            continue
        working.append((rule.target_action, next(tag_counter)))
        violations.append(_ref_record(rule, rule.target_action, len(working) - 1, "insert"))
        edit_counts["insert"] += 1


def _ref_pass_ordering(working, policy, violations, edit_counts, tag_counter):
    """Repeatedly fix the leftmost violation, rescanning from index 0 each time."""
    rules_by_target = policy.order_rules
    if not rules_by_target:
        return

    # Cap signals an engine bug, never a data condition: legitimate work on
    # an acyclic graph stays far below length * rules * catalog.
    cap = (
        max(1, len(working))
        * max(1, len(policy.rules))
        * max(1, len(policy.catalog))
    )
    fired: set[tuple[str, int]] = set()
    iterations = 0
    while True:
        iterations += 1
        if iterations > cap + 1:
            raise InternalBoundExceeded(
                f"ordering repair exceeded {cap} iterations; engine bug"
            )
        found = _ref_leftmost_order_violation(working, rules_by_target)
        if found is None:
            return
        index, rule, tag = found
        pair = (rule.rule_id, tag)
        if pair in fired:
            raise InternalBoundExceeded(
                f"rule {rule.rule_id} fired twice for one occurrence; engine bug"
            )
        fired.add(pair)
        working.insert(index, (rule.prerequisite_action, next(tag_counter)))
        violations.append(_ref_record(rule, rule.prerequisite_action, index, "insert_before"))
        edit_counts["insert_before"] += 1


def _ref_leftmost_order_violation(working, rules_by_target):
    seen: set[str] = set()
    for index, (action, tag) in enumerate(working):
        for rule in rules_by_target.get(action, ()):
            if rule.prerequisite_action not in seen:
                return index, rule, tag
        seen.add(action)
    return None


def _ref_pass_approval(working, policy, incident, mode, violations, edit_counts, deferred):
    # One repair per occurrence: when several approval rules target the same
    # action the lowest rule id carries the record.
    rule_by_action = policy.approval_rules
    if not rule_by_action:
        return
    approved = incident.approved_actions()
    repair = "remove" if mode == MODE_REMOVE else "defer"

    index = 0
    while index < len(working):
        action, _tag = working[index]
        rule = rule_by_action.get(action)
        if rule is None or action in approved:
            index += 1
            continue
        violations.append(_ref_record(rule, action, index, repair))
        edit_counts[repair] += 1
        if mode == MODE_REMOVE:
            del working[index]
        else:
            deferred.append(action)
            index += 1


def reference_activation_check(corpus, policy, plans):
    """The activation check as it was: a list of plans, ``enforce`` once per mode."""
    activated: set[str] = set()
    operators: set[str] = set()
    max_depth = 0
    repair_to_operator = {"insert": "insert", "insert_before": "insert_before",
                          "remove": "remove", "defer": "defer_to_human_approval"}
    for plan in plans:
        incident = corpus.get(plan.incident_id)
        for mode in (MODE_REMOVE, MODE_DEFER):
            result = reference_enforce_actions(plan.actions, policy, incident, mode)
            for violation in result.violations:
                activated.add(violation.rule_id)
                operators.add(repair_to_operator[violation.repair])
            if mode == MODE_REMOVE:
                max_depth = max(max_depth, order_chain_depth(result, policy))
    return (tuple(sorted(activated)), tuple(sorted(operators)), max_depth, len(plans))


SURFACES = {
    "official": ("catalog.json", "policy.json"),
    "candidate": ("richer/candidate_catalog.json", "richer/candidate_policy.json"),
}


@pytest.fixture(scope="module", params=sorted(SURFACES))
def surface(request, bundle):
    """A fixture policy surface and the fixture corpus loaded under its catalog."""
    catalog_name, policy_name = SURFACES[request.param]
    policy = load_policy(bundle / catalog_name, bundle / policy_name)
    return policy, load_corpus(bundle / "corpus", policy.catalog)


def _plans(policy):
    """Catalog actions with repeats, mixed with (target, prerequisite) pairs in the wrong order."""
    out_of_order = [
        (rule.target_action, rule.prerequisite_action) for rule in policy.rules if rule.family == PROHIBIT_BEFORE
    ]
    piece = st.sampled_from(policy.catalog.action_ids()).map(lambda action: (action,))
    if out_of_order:
        piece |= st.sampled_from(out_of_order)
    return st.lists(piece, max_size=8).map(lambda pieces: tuple(a for p in pieces for a in p))


class TestEnforceModesDifferential:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_every_mode_equals_the_per_mode_engine(self, surface, data):
        policy, corpus = surface
        incident = data.draw(st.sampled_from(corpus.packages))
        actions = data.draw(_plans(policy))
        modes = data.draw(st.lists(st.sampled_from(APPROVAL_MODES), min_size=1, max_size=3))
        results = enforce_modes(actions, policy, incident, modes)
        assert [result.approval_mode for result in results] == modes
        for result in results:
            expected = reference_enforce_actions(actions, policy, incident, result.approval_mode)
            assert result.enforced_actions == expected.enforced_actions
            assert result.violations == expected.violations  # positions included
            assert dict(result.edit_counts) == dict(expected.edit_counts)
            assert result.deferred_actions == expected.deferred_actions
            assert result.modified == expected.modified
            assert result.canonical() == expected.canonical()
        assert enforce_actions(actions, policy, incident, modes[0]) == results[0]

    def test_fixture_plans_in_both_modes(self, surface, bundle):
        policy, corpus = surface
        plans = [baseline_plan(pkg) for pkg in corpus]
        plans += iter_proposals(bundle / "proposals", policy.catalog)
        for plan in plans:
            incident = corpus.get(plan.incident_id)
            removed, deferred = enforce_modes(plan.actions, policy, incident, (MODE_REMOVE, MODE_DEFER))
            assert removed == reference_enforce_actions(plan.actions, policy, incident, MODE_REMOVE)
            assert deferred == reference_enforce_actions(plan.actions, policy, incident, MODE_DEFER)

    def test_unknown_mode_is_refused_before_any_pass(self, policy):
        with pytest.raises(ValueError, match="unknown approval mode 'keep'"):
            enforce_modes(["restore_host"], policy, _incident(), (MODE_REMOVE, "keep"))


class TestActivationCheckStreams:
    def test_generator_list_and_per_mode_loop_agree(self, surface, bundle):
        policy, corpus = surface

        def plans():
            yield from map(baseline_plan, corpus)
            yield from iter_proposals(bundle / "proposals", policy.catalog)
            for probe in read_json(bundle / "richer" / "probe_plans.json")["plans"]:
                yield parse_proposal(probe, policy.catalog, incident_id=probe["incident_id"],
                                     model_id="probe", arm="none", source="fixture")

        streamed = activation_check(corpus, policy, plans())
        listed = activation_check(corpus, policy, list(plans()))
        assert streamed == listed
        assert streamed.plans_checked == 1003
        expected = reference_activation_check(corpus, policy, list(plans()))
        assert (streamed.activated_rules, streamed.repair_mode_coverage,
                streamed.max_chain_depth, streamed.plans_checked) == expected
