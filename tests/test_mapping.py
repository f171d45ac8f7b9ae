"""Task-to-action mapping contract, checked against a brute-force oracle."""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planvet.catalog import ActionCatalog, ActionEntry
from planvet.corpus import TaskRecord
from planvet.errors import UnknownActionInRule
from planvet.mapping import ActionSupport, MappingRule, map_corpus, map_tasks, mapping_coverage


def _catalog(*ids):
    return ActionCatalog(
        tuple(ActionEntry(i, i, approval_gate=False, reversible=True, baseline_support=True) for i in ids)
    )


def _task(task_id, text, order=None):
    return TaskRecord(task_id, text, order if order is not None else int(task_id[1:]))


# -- independent oracle: enumerate all (rule, set) pairs by hand -------------

def oracle_winner(text: str, rules: list[MappingRule]):
    """Returns ("mapped", action, size) | ("ambiguous", actions) | ("unmatched",)."""
    lowered = text.lower()
    hits = []
    for rule in rules:
        for keyword_set in rule.keyword_sets:
            if all(k.lower() in lowered for k in keyword_set):
                hits.append((rule.action_id, len(keyword_set), rule.priority))
    if not hits:
        return ("unmatched",)
    best = max((size, priority) for _, size, priority in hits)
    finalists = sorted({a for a, size, priority in hits if (size, priority) == best})
    if len(finalists) > 1:
        return ("ambiguous", tuple(finalists))
    return ("mapped", finalists[0], best[0])


RULES = [
    MappingRule("isolate_host", (("isolat", "host"),), priority=1),
    MappingRule("collect_forensics", (("forensic",),), priority=1),
]


class TestMapTasks:
    def test_conjunctive_set_wins_over_smaller(self):
        tasks = [_task("t0", "isolated the host from network")]
        result = map_tasks(tasks, RULES, _catalog("isolate_host", "collect_forensics"))
        assert result.mapped[0].action_id == "isolate_host"
        assert result.mapped[0].matched_set_size == 2
        # oracle agreement
        assert oracle_winner(tasks[0].text, RULES) == ("mapped", "isolate_host", 2)

    def test_empty_task_list(self):
        result = map_tasks([], RULES, _catalog("isolate_host", "collect_forensics"))
        assert result.mapped == () and result.unmatched == () and result.ambiguous == ()
        assert result.support.total_tasks == 0

    def test_equal_size_equal_priority_across_actions_is_ambiguous(self):
        rules = [
            MappingRule("isolate_host", (("host",),), priority=1),
            MappingRule("collect_forensics", (("image",),), priority=1),
        ]
        tasks = [_task("t0", "host image captured")]
        result = map_tasks(tasks, rules, _catalog("isolate_host", "collect_forensics"))
        assert result.ambiguous == (("t0", ("collect_forensics", "isolate_host")),)
        assert oracle_winner(tasks[0].text, rules)[0] == "ambiguous"

    def test_priority_breaks_equal_size_ties(self):
        rules = [
            MappingRule("isolate_host", (("host",),), priority=2),
            MappingRule("collect_forensics", (("image",),), priority=1),
        ]
        tasks = [_task("t0", "host image captured")]
        result = map_tasks(tasks, rules, _catalog("isolate_host", "collect_forensics"))
        assert result.mapped[0].action_id == "isolate_host"

    def test_unknown_action_in_rule(self):
        with pytest.raises(UnknownActionInRule):
            map_tasks([], [MappingRule("ghost", (("x",),))], _catalog("isolate_host"))

    def test_unmatched_reported(self):
        tasks = [_task("t0", "called the service desk")]
        result = map_tasks(tasks, RULES, _catalog("isolate_host", "collect_forensics"))
        assert result.unmatched == ("t0",)

    def test_matching_is_case_insensitive_substring(self):
        tasks = [_task("t0", "ISOLATED the HOST immediately")]
        result = map_tasks(tasks, RULES, _catalog("isolate_host", "collect_forensics"))
        assert result.mapped[0].action_id == "isolate_host"

    WORDS = ("isolat", "host", "forensic", "image", "reset", "credential", "desk")

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(WORDS), min_size=1, max_size=5), max_size=8))
    def test_partition_and_oracle_agreement(self, word_lists):
        catalog = _catalog("isolate_host", "collect_forensics")
        tasks = [_task(f"t{i}", " ".join(words)) for i, words in enumerate(word_lists)]
        result = map_tasks(tasks, RULES, catalog)
        assert len(result.mapped) + len(result.unmatched) + len(result.ambiguous) == len(tasks)
        by_id = {m.task_id: m for m in result.mapped}
        for task in tasks:
            verdict = oracle_winner(task.text, RULES)
            if verdict[0] == "mapped":
                assert by_id[task.task_id].action_id == verdict[1]
                assert by_id[task.task_id].matched_set_size == verdict[2]
            elif verdict[0] == "unmatched":
                assert task.task_id in result.unmatched
            else:
                assert task.task_id in {t for t, _ in result.ambiguous}
        # determinism
        again = map_tasks(tasks, RULES, catalog)
        assert again == result

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(WORDS), min_size=1, max_size=6))
    def test_adding_a_keyword_never_creates_a_new_match(self, words):
        # specificity monotonicity: growing the winning set can only keep or
        # lose the match for a fixed task
        catalog = _catalog("isolate_host", "collect_forensics")
        text = " ".join(words)
        base_rules = [MappingRule("isolate_host", (("isolat",),), priority=1)]
        grown_rules = [MappingRule("isolate_host", (("isolat", "host"),), priority=1)]
        base = oracle_winner(text, base_rules)
        grown = oracle_winner(text, grown_rules)
        result_base = map_tasks([_task("t0", text)], base_rules, catalog)
        result_grown = map_tasks([_task("t0", text)], grown_rules, catalog)
        if result_grown.mapped:
            assert result_base.mapped, "grown set matched where base set did not"
        assert base[0] != "unmatched" or grown[0] == "unmatched"


class TestMapCorpus:
    WORDS = TestMapTasks.WORDS

    @staticmethod
    def merged_per_incident(incidents, rules, catalog):
        """Oracle: map each incident on its own, then sum the results."""
        mapped, unmatched, ambiguous, per_action = [], [], [], {}
        total = 0
        for incident in incidents:
            result = map_tasks(incident.extracted_tasks, rules, catalog)
            mapped += result.mapped
            unmatched += result.unmatched
            ambiguous += result.ambiguous
            total += result.support.total_tasks
            for action, part in result.support.per_action.items():
                entry = per_action.setdefault(action, ActionSupport())
                entry.cases += part.cases
                entry.matches += part.matches
                entry.single_keyword_matches += part.single_keyword_matches
        return tuple(mapped), tuple(unmatched), tuple(ambiguous), per_action, total

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.lists(st.sampled_from(WORDS), min_size=1, max_size=4), max_size=4), max_size=5))
    def test_equals_the_per_incident_merge(self, incidents_words):
        catalog = _catalog("isolate_host", "collect_forensics")
        incidents = [
            SimpleNamespace(extracted_tasks=[_task(f"t{i}", " ".join(words), i) for i, words in enumerate(tasks)])
            for tasks in incidents_words
        ]
        result = map_corpus(incidents, RULES, catalog)
        mapped, unmatched, ambiguous, per_action, total = self.merged_per_incident(incidents, RULES, catalog)
        assert (result.mapped, result.unmatched, result.ambiguous) == (mapped, unmatched, ambiguous)
        assert result.support.per_action == per_action
        assert list(result.support.per_action) == list(per_action)
        assert result.support.total_tasks == total
        assert result.support.mapped_tasks == len(mapped)

    def test_cases_count_incidents(self):
        catalog = _catalog("isolate_host", "collect_forensics")
        tasks = [_task("t0", "isolate host"), _task("t1", "isolated the host")]
        incidents = [SimpleNamespace(extracted_tasks=tasks), SimpleNamespace(extracted_tasks=tasks[:1])]
        support = map_corpus(incidents, RULES, catalog).support
        assert support.per_action["isolate_host"] == ActionSupport(cases=2, matches=3, single_keyword_matches=0)
        assert map_tasks(tasks, RULES, catalog).support.per_action["isolate_host"].cases == 1

    def test_unknown_rule_action_raises_on_an_empty_corpus(self):
        with pytest.raises(UnknownActionInRule):
            map_corpus([], [MappingRule("ghost", (("x",),))], _catalog("isolate_host"))


class TestMappingCoverage:
    def test_no_tasks_vacuous_conventions(self):
        catalog = _catalog("isolate_host", "collect_forensics")
        result = map_tasks([], RULES, catalog)
        coverage = mapping_coverage(result, catalog)
        assert coverage.catalog_coverage == 0.0
        assert coverage.weighted_coverage == 1.0  # vacuously complete
        assert coverage.single_keyword_fraction == 0.0

    def test_counting_example(self):
        # 3 of 4 tasks map, to 1 of 2 catalog actions
        catalog = _catalog("isolate_host", "collect_forensics")
        tasks = [
            _task("t0", "isolated the host"),
            _task("t1", "isolating host now"),
            _task("t2", "host was isolated"),
            _task("t3", "phoned the owner"),
        ]
        result = map_tasks(tasks, RULES, catalog)
        coverage = mapping_coverage(result, catalog)
        assert coverage.catalog_coverage == 0.5
        assert coverage.weighted_coverage == 0.75
