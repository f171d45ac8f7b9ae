"""Deterministic task-to-action mapping under a hash-tracked rule contract.

A task matches a rule's keyword set iff every keyword in that set occurs in
the task text (case-insensitive substring). The winning (action, set) pair
has the largest set, ties broken by higher priority; when two distinct
actions tie on both, the task is ambiguous rather than arbitrarily
assigned. Tasks matching nothing are unmatched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .catalog import ActionCatalog
from .corpus import TaskRecord
from .errors import ParseError, UnknownActionInRule
from .util import json_field, read_json_document, record_json


@dataclass(frozen=True)
class MappingRule:
    action_id: str
    keyword_sets: tuple[tuple[str, ...], ...]  # each inner tuple is conjunctive
    priority: int = 0
    _lowered_sets: tuple[tuple[str, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        lowered = tuple(tuple(keyword.lower() for keyword in ks) for ks in self.keyword_sets)
        object.__setattr__(self, "_lowered_sets", lowered)


@dataclass(frozen=True)
class MappedTask:
    task_id: str
    action_id: str
    matched_set_size: int


@dataclass
class ActionSupport:
    cases: int = 0
    matches: int = 0
    single_keyword_matches: int = 0

    @property
    def single_keyword_unique_fraction(self) -> float:
        if self.matches == 0:
            return 0.0
        return self.single_keyword_matches / self.matches


@dataclass
class MappingSupportManifest:
    per_action: dict[str, ActionSupport] = field(default_factory=dict)
    mapped_tasks: int = 0
    total_tasks: int = 0

    def to_json_obj(self) -> dict:
        per_action = {
            action: {**record_json(s), "single_keyword_unique_fraction": s.single_keyword_unique_fraction}
            for action, s in self.per_action.items()
        }
        return {**record_json(self), "per_action": per_action}


@dataclass
class MappingResult:
    mapped: tuple[MappedTask, ...]
    unmatched: tuple[str, ...]
    ambiguous: tuple[tuple[str, tuple[str, ...]], ...]  # (task_id, candidates)
    support: MappingSupportManifest


@dataclass
class CoverageStats:
    catalog_coverage: float
    weighted_coverage: float
    single_keyword_fraction: float


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------

def map_tasks(
    tasks: Sequence[TaskRecord],
    rules: Sequence[MappingRule],
    catalog: ActionCatalog,
) -> MappingResult:
    """Map every task; mapped/unmatched/ambiguous partition the input."""
    return _map_incidents([tasks], rules, catalog)


def map_corpus(
    corpus: Iterable,
    rules: Sequence[MappingRule],
    catalog: ActionCatalog,
) -> MappingResult:
    """Map every incident's extracted tasks into one corpus-level result."""
    return _map_incidents((incident.extracted_tasks for incident in corpus), rules, catalog)


def _map_incidents(
    task_lists: Iterable[Sequence[TaskRecord]],
    rules: Sequence[MappingRule],
    catalog: ActionCatalog,
) -> MappingResult:
    """Map each incident's tasks in turn; ``cases`` counts, per action, the incidents with a match."""
    for rule in rules:
        if rule.action_id not in catalog:
            raise UnknownActionInRule(
                f"mapping rule names unknown action {rule.action_id!r}"
            )

    mapped: list[MappedTask] = []
    unmatched: list[str] = []
    ambiguous: list[tuple[str, tuple[str, ...]]] = []
    support = MappingSupportManifest()

    for tasks in task_lists:
        support.total_tasks += len(tasks)
        seen_case_actions: set[str] = set()
        for task in tasks:
            candidates = _matching_pairs(task.text, rules)
            if not candidates:
                unmatched.append(task.task_id)
                continue
            best_size, best_priority = max(rank for _, rank in candidates)  # largest set, then priority
            winners = sorted({action for action, rank in candidates if rank == (best_size, best_priority)})
            if len(winners) > 1:
                ambiguous.append((task.task_id, tuple(winners)))
                continue
            action = winners[0]
            mapped.append(MappedTask(task.task_id, action, best_size))
            entry = support.per_action.setdefault(action, ActionSupport())
            entry.matches += 1
            if best_size == 1:
                entry.single_keyword_matches += 1
            if action not in seen_case_actions:
                seen_case_actions.add(action)
                entry.cases += 1

    support.mapped_tasks = len(mapped)
    return MappingResult(
        mapped=tuple(mapped),
        unmatched=tuple(unmatched),
        ambiguous=tuple(ambiguous),
        support=support,
    )


def _matching_pairs(text: str, rules: Sequence[MappingRule]) -> list[tuple[str, tuple[int, int]]]:
    """All (action, (set size, priority)) whose keyword set fully hits the text."""
    contains = text.lower().__contains__
    pairs = []
    for rule in rules:
        for keyword_set in rule._lowered_sets:
            if all(map(contains, keyword_set)):
                pairs.append((rule.action_id, (len(keyword_set), rule.priority)))
    return pairs


def mapping_coverage(result: MappingResult, catalog: ActionCatalog) -> CoverageStats:
    """Catalog coverage, task-weighted coverage, and single-keyword reliance.

    Weighted coverage over zero tasks is 1.0 by convention (vacuously
    complete); the single-keyword fraction over zero mapped tasks is 0.0.
    """
    touched = sum(1 for action in catalog.action_ids() if action in result.support.per_action)
    catalog_coverage = touched / len(catalog) if len(catalog) else 0.0
    total = result.support.total_tasks
    weighted = result.support.mapped_tasks / total if total else 1.0
    mapped_count = result.support.mapped_tasks
    singles = sum(s.single_keyword_matches for s in result.support.per_action.values())
    single_fraction = singles / mapped_count if mapped_count else 0.0
    return CoverageStats(
        catalog_coverage=catalog_coverage,
        weighted_coverage=weighted,
        single_keyword_fraction=single_fraction,
    )


# ---------------------------------------------------------------------------
# Document loading
# ---------------------------------------------------------------------------

def load_mapping_rules(path: Path | str) -> tuple[tuple[MappingRule, ...], str]:
    """Read ``mapping_rules.json``; returns rules plus the raw document digest.

    Raises ``ParseError`` naming the file and the rule for a document that is
    not an array of objects, each with a string ``action_id``, a non-empty
    list of non-empty lists of non-empty strings as ``keyword_sets`` and an
    optional integer ``priority``.
    """
    path = Path(path)
    raw, digest = read_json_document(path, ParseError)
    if not isinstance(raw, list):
        raise ParseError(f"{path.name}: expected a JSON array of mapping rules")
    rules = []
    for idx, obj in enumerate(raw):
        where = f"{path.name}: rule {idx}"
        if not isinstance(obj, dict):
            raise ParseError(f"{where} must be a JSON object, got {obj!r}")
        action_id = json_field(obj, "action_id", str, where, ParseError)
        keyword_sets = json_field(obj, "keyword_sets", list, where, ParseError)
        if not all(isinstance(ks, list) and all(isinstance(kw, str) for kw in ks) for ks in keyword_sets):
            raise ParseError(
                f"{where}: field 'keyword_sets' must be a list of lists of strings, got {keyword_sets!r}"
            )
        if not keyword_sets or not all(ks and all(ks) for ks in keyword_sets):
            raise ParseError(f"{path.name}: rule for {action_id!r} has an empty keyword set")
        rules.append(
            MappingRule(
                action_id=action_id,
                keyword_sets=tuple(map(tuple, keyword_sets)),
                priority=json_field(obj, "priority", int, where, ParseError, default=0),
            )
        )
    return tuple(rules), digest
