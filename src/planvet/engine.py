"""Deterministic three-pass repair engine over action sequences.

Pass 1 appends missing mandatory actions (once per rule, ascending rule id)
when telemetry matches the rule scope. Pass 2 repairs ordering constraints
to a fixed point, always fixing the leftmost violation first and inserting
a fresh prerequisite instance; the engine never reorders. Pass 3 treats
unapproved approval-gated occurrences left to right: removed in the primary
mode, kept and recorded in defer mode.

Passes 1 and 2 do not depend on the approval mode. ``enforce_modes`` runs
them once and finishes pass 3 for each requested mode from their shared
output; ``enforce`` and ``enforce_actions`` are that entry point with one
mode, so there is one engine whichever way it is called.

For fixed inputs the enforced sequence and the full violation trace are
byte-identical across runs. Reapplying remove-mode enforcement to its own
output modifies nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .catalog import (
    MANDATORY,
    PROHIBIT_BEFORE,
    REQUIRE_APPROVAL,
    PolicyRule,
    ValidatedPolicy,
    scope_matches,
)
from .corpus import IncidentPackage
from .errors import InternalBoundExceeded
from .plans import ProposedPlan
from .util import canonical_json, record_json

# Approval treatment modes (run-level; rule operators are declarative).
MODE_REMOVE = "remove"
MODE_DEFER = "defer_to_human_approval"
APPROVAL_MODES = (MODE_REMOVE, MODE_DEFER)

# Edit operators recorded per run. ``reorder`` stays 0 under current
# semantics; the counter exists because run accounting tracks it.
EDIT_OPERATORS = ("insert", "insert_before", "remove", "reorder", "defer")

VIOLATION_TYPE_BY_FAMILY = {
    MANDATORY: "missing_mandatory",
    PROHIBIT_BEFORE: "order_violation",
    REQUIRE_APPROVAL: "approval_required",
}


@dataclass(frozen=True, slots=True)
class ViolationRecord:
    rule_id: str
    family: str
    violation_type: str
    action_id: str
    position: int  # index in the working plan at detection time
    repair: str    # insert | insert_before | remove | defer
    severity: str

    to_json_obj = record_json


@dataclass(frozen=True, slots=True)
class EnforcementResult:
    enforced_actions: tuple[str, ...]
    violations: tuple[ViolationRecord, ...]
    modified: bool
    edit_counts: Mapping[str, int]
    approval_mode: str
    deferred_actions: tuple[str, ...] = ()

    def hard_violations(self) -> int:
        return sum(1 for v in self.violations if v.severity == "hard")

    def to_json_obj(self, *, policy_sha256: str = "") -> dict:
        return {**record_json(self), "policy_sha256": policy_sha256}

    def canonical(self) -> str:
        return canonical_json(self.to_json_obj())


# ---------------------------------------------------------------------------
# Enforcement
# ---------------------------------------------------------------------------

def enforce(
    plan: ProposedPlan,
    policy: ValidatedPolicy,
    incident: IncidentPackage,
    mode: str = MODE_REMOVE,
) -> EnforcementResult:
    """Transform a proposed plan into the policy-treated sequence plus trace."""
    return enforce_actions(plan.actions, policy, incident, mode)


def enforce_actions(
    actions: Sequence[str],
    policy: ValidatedPolicy,
    incident: IncidentPackage,
    mode: str = MODE_REMOVE,
) -> EnforcementResult:
    """``enforce`` on a bare action sequence."""
    return enforce_modes(actions, policy, incident, (mode,))[0]


def enforce_modes(
    actions: Sequence[str],
    policy: ValidatedPolicy,
    incident: IncidentPackage,
    modes: Sequence[str],
) -> tuple[EnforcementResult, ...]:
    """One result per approval mode, each equal to ``enforce_actions`` in that mode.

    Passes 1 and 2 do not depend on the mode, so they run once; pass 3
    runs per mode on a copy of their output, except for the last mode,
    which takes the output itself (one mode copies nothing).
    """
    for mode in modes:
        if mode not in APPROVAL_MODES:
            raise ValueError(f"unknown approval mode {mode!r}")

    # Working plan carries stable occurrence tags so the termination
    # instrumentation can assert "one insertion per (rule, occurrence)".
    tag_counter = iter(range(10**9))
    working: list[tuple[str, int]] = [(a, next(tag_counter)) for a in actions]
    violations: list[ViolationRecord] = []
    edit_counts: dict[str, int] = {op: 0 for op in EDIT_OPERATORS}

    _pass_mandatory(working, policy, incident, violations, edit_counts, tag_counter)
    _pass_ordering(working, policy, violations, edit_counts, tag_counter)

    results = []
    last = len(modes) - 1
    for index, mode in enumerate(modes):
        if index < last:
            mode_working, mode_violations, mode_counts = list(working), list(violations), dict(edit_counts)
        else:
            mode_working, mode_violations, mode_counts = working, violations, edit_counts
        deferred: list[str] = []
        _pass_approval(mode_working, policy, incident, mode, mode_violations, mode_counts, deferred)
        results.append(
            EnforcementResult(
                enforced_actions=tuple(action for action, _ in mode_working),
                violations=tuple(mode_violations),
                modified=sum(mode_counts.values()) >= 1,
                edit_counts=mode_counts,
                approval_mode=mode,
                deferred_actions=tuple(deferred),
            )
        )
    return tuple(results)


def is_fixed_point(
    actions: Sequence[str],
    policy: ValidatedPolicy,
    incident: IncidentPackage,
    mode: str = MODE_REMOVE,
) -> bool:
    """True iff enforcing this sequence applies no repair."""
    return not enforce_actions(actions, policy, incident, mode).modified


def _record(rule: PolicyRule, action: str, position: int, repair: str) -> ViolationRecord:
    return ViolationRecord(
        rule_id=rule.rule_id,
        family=rule.family,
        violation_type=VIOLATION_TYPE_BY_FAMILY[rule.family],
        action_id=action,
        position=position,
        repair=repair,
        severity=rule.severity,
    )


# -- pass 1: mandatory insertion --------------------------------------------

def _pass_mandatory(working, policy, incident, violations, edit_counts, tag_counter):
    for rule in policy.mandatory_rules:
        if not scope_matches(rule, incident.telemetry):
            continue
        if any(action == rule.target_action for action, _ in working):
            continue
        working.append((rule.target_action, next(tag_counter)))
        violations.append(_record(rule, rule.target_action, len(working) - 1, "insert"))
        edit_counts["insert"] += 1


# -- pass 2: ordering repair to a fixed point --------------------------------

def _pass_ordering(working, policy, violations, edit_counts, tag_counter):
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
        found = _leftmost_order_violation(working, rules_by_target)
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
        violations.append(_record(rule, rule.prerequisite_action, index, "insert_before"))
        edit_counts["insert_before"] += 1


def _leftmost_order_violation(working, rules_by_target):
    """Earliest (index, rule, occurrence tag) lacking its prerequisite, or None.

    A later occurrence of the prerequisite does not satisfy the rule; rules
    targeting the same occurrence are arbitrated by ascending rule id.
    """
    seen: set[str] = set()
    for index, (action, tag) in enumerate(working):
        for rule in rules_by_target.get(action, ()):
            if rule.prerequisite_action not in seen:
                return index, rule, tag
        seen.add(action)
    return None


# -- pass 3: approval treatment ----------------------------------------------

def _pass_approval(working, policy, incident, mode, violations, edit_counts, deferred):
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
        violations.append(_record(rule, action, index, repair))
        edit_counts[repair] += 1
        if mode == MODE_REMOVE:
            del working[index]
        else:
            deferred.append(action)
            index += 1


# ---------------------------------------------------------------------------
# Trace helpers
# ---------------------------------------------------------------------------

def fired_order_edges(
    result: EnforcementResult, policy: ValidatedPolicy
) -> tuple[tuple[str, str], ...]:
    """(prerequisite, target) edge per ordering repair in the trace."""
    edges = []
    for violation in result.violations:
        if violation.violation_type != "order_violation":
            continue
        rule = policy.rules_by_id[violation.rule_id]
        edges.append((rule.prerequisite_action, rule.target_action))
    return tuple(edges)


def order_chain_depth(result: EnforcementResult, policy: ValidatedPolicy) -> int:
    """Longest dependent-repair chain in one run: the longest path through
    the prerequisite edges that actually fired (acyclic by validation)."""
    edges = set(fired_order_edges(result, policy))
    if not edges:
        return 0
    children: dict[str, list[str]] = {}
    for prereq, target in edges:
        children.setdefault(prereq, []).append(target)

    depth: dict[str, int] = {}

    def longest_from(node: str) -> int:
        if node in depth:
            return depth[node]
        best = 0
        for nxt in children.get(node, ()):
            best = max(best, 1 + longest_from(nxt))
        depth[node] = best
        return best

    return max(longest_from(prereq) for prereq, _ in edges)
