"""Action catalog and typed policy surface.

The catalog is the closed vocabulary of response actions; the policy is a
set of typed rules over those actions. ``validate_policy`` is the single
entry point that turns raw rule documents into a ``ValidatedPolicy`` every
other module can trust: all structural defects raise, nothing is repaired.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from graphlib import CycleError, TopologicalSorter
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import (
    CatalogError,
    CyclicPolicy,
    DuplicateRuleId,
    FamilyFieldMismatch,
    PolicyValidationError,
    SelfDependency,
    UnknownActionReference,
)
from .util import canonical_json, json_field, read_json_document

# Rule families
MANDATORY = "mandatory"
PROHIBIT_BEFORE = "prohibit_before"
REQUIRE_APPROVAL = "require_approval"
FAMILIES = (MANDATORY, PROHIBIT_BEFORE, REQUIRE_APPROVAL)

SEVERITIES = ("hard", "soft")

# Repair operators, keyed by the family allowed to declare them.
OPERATORS_BY_FAMILY = {
    MANDATORY: ("insert",),
    PROHIBIT_BEFORE: ("insert_before",),
    REQUIRE_APPROVAL: ("remove", "defer_to_human_approval"),
}

_ACTION_ID_RE = re.compile(r"^[a-z][a-z0-9]*(_[a-z0-9]+)*$")


@dataclass(frozen=True)
class ActionEntry:
    """One catalog row: identifier plus approval-gate and reversibility metadata."""

    action_id: str
    display_name: str
    approval_gate: bool
    reversible: bool
    baseline_support: bool


@dataclass(frozen=True)
class ActionCatalog:
    entries: tuple[ActionEntry, ...]
    source_sha256: str = ""
    _by_id: Mapping[str, ActionEntry] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_id: dict[str, ActionEntry] = {}
        for entry in self.entries:
            if not _ACTION_ID_RE.match(entry.action_id):
                raise CatalogError(
                    f"action id {entry.action_id!r} is not a lowercase snake-case token"
                )
            if entry.action_id in by_id:
                raise CatalogError(f"duplicate action id {entry.action_id!r}")
            by_id[entry.action_id] = entry
        object.__setattr__(self, "_by_id", by_id)

    def action_ids(self) -> tuple[str, ...]:
        return tuple(e.action_id for e in self.entries)

    def __contains__(self, action_id: object) -> bool:
        # Non-strings (even unhashable ones from a malformed document) are never members.
        return isinstance(action_id, str) and action_id in self._by_id

    def __len__(self) -> int:
        return len(self.entries)

    def get(self, action_id: str) -> ActionEntry:
        return self._by_id[action_id]


@dataclass(frozen=True)
class ScopePredicate:
    """Telemetry scope for mandatory rules.

    ``event_type_contains`` and any listed command substring must hit the
    same event; an empty ``command_contains`` matches any command.
    Matching is case-sensitive exact substring, by design.
    """

    event_type_contains: str
    command_contains: tuple[str, ...] = ()


@dataclass(frozen=True)
class PolicyRule:
    rule_id: str
    family: str
    target_action: str
    severity: str
    repair_operator: str
    rationale: str = ""
    prerequisite_action: str | None = None
    scope: ScopePredicate | None = None


@dataclass(frozen=True)
class ValidatedPolicy:
    """Catalog + rules with the prerequisite graph materialized and checked.

    The engine's rule tables are compiled once, here, in ascending rule id
    (string order): ``mandatory_rules``; ``order_rules``, the
    ``prohibit_before`` rules per target action; ``approval_rules``, the
    lowest-id ``require_approval`` rule per target action; and
    ``rules_by_id``.
    """

    catalog: ActionCatalog
    rules: tuple[PolicyRule, ...]
    prerequisite_edges: tuple[tuple[str, str], ...]  # (prerequisite, target)
    source_sha256: str = ""
    mandatory_rules: tuple[PolicyRule, ...] = field(init=False, repr=False, compare=False)
    order_rules: Mapping[str, tuple[PolicyRule, ...]] = field(init=False, repr=False, compare=False)
    approval_rules: Mapping[str, PolicyRule] = field(init=False, repr=False, compare=False)
    rules_by_id: Mapping[str, PolicyRule] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        mandatory: list[PolicyRule] = []
        order: dict[str, tuple[PolicyRule, ...]] = {}
        approval: dict[str, PolicyRule] = {}
        for rule in sorted(self.rules, key=lambda r: r.rule_id):
            if rule.family == MANDATORY:
                mandatory.append(rule)
            elif rule.family == PROHIBIT_BEFORE:
                order[rule.target_action] = order.get(rule.target_action, ()) + (rule,)
            elif rule.family == REQUIRE_APPROVAL:
                approval.setdefault(rule.target_action, rule)
        object.__setattr__(self, "mandatory_rules", tuple(mandatory))
        object.__setattr__(self, "order_rules", order)
        object.__setattr__(self, "approval_rules", approval)
        object.__setattr__(self, "rules_by_id", {rule.rule_id: rule for rule in self.rules})

    def to_json_obj(self) -> dict:
        return {
            "catalog": self.catalog.entries,
            "rules": self.rules,
            "prerequisite_edges": self.prerequisite_edges,
        }

    def canonical(self) -> str:
        return canonical_json(self.to_json_obj())


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate_policy(
    catalog: ActionCatalog,
    rules: Sequence[PolicyRule],
    *,
    source_sha256: str = "",
) -> ValidatedPolicy:
    """Check every structural invariant and materialize the prerequisite graph.

    Raises ``DuplicateRuleId``, ``FamilyFieldMismatch``, ``UnknownActionReference``,
    ``SelfDependency`` or ``CyclicPolicy`` (naming the cycle). Validation is
    total: a policy that comes back is safe to enforce with.
    """
    seen_ids: set[str] = set()
    edges: list[tuple[str, str]] = []
    for rule in rules:
        if rule.rule_id in seen_ids:
            raise DuplicateRuleId(f"rule id {rule.rule_id!r} declared twice")
        seen_ids.add(rule.rule_id)
        _check_rule_shape(rule)
        if rule.target_action not in catalog:
            raise UnknownActionReference(
                f"rule {rule.rule_id}: target action {rule.target_action!r} not in catalog"
            )
        if rule.family == PROHIBIT_BEFORE:
            prereq = rule.prerequisite_action
            assert prereq is not None  # guaranteed by _check_rule_shape
            if prereq not in catalog:
                raise UnknownActionReference(
                    f"rule {rule.rule_id}: prerequisite action {prereq!r} not in catalog"
                )
            if prereq == rule.target_action:
                raise SelfDependency(
                    f"rule {rule.rule_id}: {prereq!r} cannot be its own prerequisite"
                )
            edges.append((prereq, rule.target_action))

    # Nodes in sorted order, then the edges in declaration order: the search
    # walks the graph in that order, so the cycle it names is deterministic.
    sorter = TopologicalSorter()
    for node in sorted({node for edge in edges for node in edge}):
        sorter.add(node)
    for prereq, target in edges:
        sorter.add(target, prereq)
    try:
        sorter.prepare()
    except CycleError as exc:
        cycle = tuple(exc.args[1])  # in edge order, first node repeated at the end
        raise CyclicPolicy("prerequisite graph contains a cycle: " + " -> ".join(cycle), cycle=cycle) from None

    return ValidatedPolicy(
        catalog=catalog,
        rules=tuple(rules),
        prerequisite_edges=tuple(edges),
        source_sha256=source_sha256,
    )


def _check_rule_shape(rule: PolicyRule) -> None:
    if rule.family not in FAMILIES:
        raise FamilyFieldMismatch(f"rule {rule.rule_id}: unknown family {rule.family!r}")
    if rule.severity not in SEVERITIES:
        raise PolicyValidationError(
            f"rule {rule.rule_id}: unknown severity {rule.severity!r}"
        )
    if rule.repair_operator not in OPERATORS_BY_FAMILY[rule.family]:
        raise FamilyFieldMismatch(
            f"rule {rule.rule_id}: family {rule.family} cannot use "
            f"repair operator {rule.repair_operator!r}"
        )
    if rule.family == MANDATORY:
        if rule.scope is None:
            raise FamilyFieldMismatch(f"rule {rule.rule_id}: mandatory rule needs a scope")
        if rule.prerequisite_action is not None:
            raise FamilyFieldMismatch(
                f"rule {rule.rule_id}: mandatory rule cannot name a prerequisite"
            )
        if not rule.scope.event_type_contains:
            raise PolicyValidationError(
                f"rule {rule.rule_id}: scope event_type_contains must be non-empty"
            )
    elif rule.family == PROHIBIT_BEFORE:
        if rule.prerequisite_action is None:
            raise FamilyFieldMismatch(
                f"rule {rule.rule_id}: prohibit_before rule needs a prerequisite_action"
            )
        if rule.scope is not None:
            raise FamilyFieldMismatch(
                f"rule {rule.rule_id}: prohibit_before rule cannot carry a scope"
            )
    else:  # require_approval
        if rule.prerequisite_action is not None or rule.scope is not None:
            raise FamilyFieldMismatch(
                f"rule {rule.rule_id}: require_approval rule carries no optional fields"
            )


# ---------------------------------------------------------------------------
# Scope matching
# ---------------------------------------------------------------------------

def scope_matches(rule: PolicyRule, telemetry: Iterable) -> bool:
    """True iff some single event satisfies the rule's scope predicate.

    The event type must contain ``event_type_contains`` and, when
    ``command_contains`` is non-empty, the same event's command must contain
    at least one of the listed substrings. Missing commands count as empty
    text. Monotone in telemetry: adding events never flips True to False.
    """
    if rule.family != MANDATORY or rule.scope is None:
        raise ValueError(f"scope_matches requires a mandatory rule, got {rule.family}")
    scope = rule.scope
    for event in telemetry:
        if scope.event_type_contains not in event.event_type:
            continue
        command = event.command or ""
        if not scope.command_contains or any(s in command for s in scope.command_contains):
            return True
    return False


# ---------------------------------------------------------------------------
# Document loading
# ---------------------------------------------------------------------------

# Required fields and their JSON types.
_ENTRY_FIELDS = (
    ("action_id", str), ("display_name", str), ("approval_gate", bool), ("reversible", bool),
    ("baseline_support", bool),
)
_RULE_FIELDS = (
    ("rule_id", str), ("family", str), ("target_action", str), ("severity", str), ("repair_operator", str),
)


def load_catalog(path: Path | str) -> ActionCatalog:
    """Read ``catalog.json`` (array of action entries); records the file digest.

    Raises ``CatalogError`` naming the file and the entry for any entry that
    is not an object with string ids and boolean flags.
    """
    path = Path(path)
    raw, digest = read_json_document(path, CatalogError)
    if not isinstance(raw, list):
        raise CatalogError(f"{path.name}: expected a JSON array of action entries")
    entries = []
    for idx, obj in enumerate(raw):
        where = f"{path.name}: entry {idx}"
        if not isinstance(obj, dict):
            raise CatalogError(f"{where} must be a JSON object, got {obj!r}")
        # No defaulting: gates and reversibility must be explicit.
        fields = {key: json_field(obj, key, kind, where, CatalogError) for key, kind in _ENTRY_FIELDS}
        entries.append(ActionEntry(**fields))
    return ActionCatalog(entries=tuple(entries), source_sha256=digest)


def load_policy_rules(path: Path | str) -> tuple[tuple[PolicyRule, ...], str]:
    """Read ``policy.json``; returns the rules plus the raw document digest.

    Raises ``PolicyValidationError`` naming the file and the rule for any
    rule that is not an object of string fields, with an optional ``scope``
    object whose ``command_contains`` is a list of strings.
    """
    path = Path(path)
    raw, digest = read_json_document(path, PolicyValidationError)
    if not isinstance(raw, list):
        raise PolicyValidationError(f"{path.name}: expected a JSON array of rules")
    rules = []
    for idx, obj in enumerate(raw):
        where = f"{path.name}: rule {idx}"
        if not isinstance(obj, dict):
            raise PolicyValidationError(f"{where} must be a JSON object, got {obj!r}")
        scope = json_field(obj, "scope", dict, where, PolicyValidationError, default=None)
        if scope is not None:
            scope = _scope_predicate(scope, f"{where}: scope")
        rules.append(
            PolicyRule(
                **{key: json_field(obj, key, kind, where, PolicyValidationError) for key, kind in _RULE_FIELDS},
                rationale=json_field(obj, "rationale", str, where, PolicyValidationError, default=""),
                prerequisite_action=json_field(obj, "prerequisite_action", str, where, PolicyValidationError, None),
                scope=scope,
            )
        )
    return tuple(rules), digest


def _scope_predicate(obj: dict, where: str) -> ScopePredicate:
    commands = json_field(obj, "command_contains", list, where, PolicyValidationError, default=())
    if not all(isinstance(command, str) for command in commands):
        raise PolicyValidationError(
            f"{where}: field 'command_contains' must be a list of strings, got {commands!r}"
        )
    return ScopePredicate(
        event_type_contains=json_field(obj, "event_type_contains", str, where, PolicyValidationError, default=""),
        command_contains=tuple(commands),
    )


def load_policy(catalog_path: Path | str, policy_path: Path | str) -> ValidatedPolicy:
    """Load and validate catalog + policy documents in one step."""
    catalog = load_catalog(catalog_path)
    rules, digest = load_policy_rules(policy_path)
    return validate_policy(catalog, rules, source_sha256=digest)
