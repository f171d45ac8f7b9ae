"""Per-run metrics, cell aggregates, paired contrasts, rerun stability.

Overlap metrics are set-based (deduplicated); multiplicity lives only in
the raw trace. Empty-set conventions (coverage 1.0 on an empty baseline,
precision 1.0 on an empty plan) keep vacuous cases division-free and let a
baseline evaluated against itself score exactly 1.0 / 0. A run is held as a
``RunOutcome`` of set sizes and counts; each ratio is one of its properties,
computed from those integers. This module also owns the ``metrics_runs.jsonl``
row format: ``run_row`` writes a row and ``read_llm_rows`` reads them back.
"""

from __future__ import annotations

import io
import json
import math
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist

from .engine import EDIT_OPERATORS, EnforcementResult
from .errors import DomainError, EmptyCell, IncidentMismatch, KeyMismatch, ParseError
from .plans import ProposedPlan
from .util import decode_json, json_field, read_entry, record_json, round4


@dataclass
class CellSummary:
    model_id: str
    arm: str
    n_runs: int
    violation_rate: float
    wilson_low: float
    wilson_high: float
    hard_per_run: float
    edit_rate: float
    mean_coverage: float
    mean_delta_jaccard: float
    mean_precision_raw: float
    mean_precision_enforced: float
    mean_jaccard_raw: float
    mean_jaccard_enforced: float
    deferred_total: int
    rule_rates: dict[str, float] = field(default_factory=dict)
    rule_counts: dict[str, int] = field(default_factory=dict)

    to_json_obj = record_json


@dataclass
class ContrastResult:
    cell_a: tuple[str, str]
    cell_b: tuple[str, str]
    n_pairs: int
    rate_a: float
    rate_b: float
    delta_rate: float
    discordant_b: int  # a violates, b does not
    discordant_c: int  # b violates, a does not
    mcnemar_p: float
    cohens_h: float
    holm_p: float | None = None  # filled by the caller over the declared family

    to_json_obj = record_json


@dataclass
class StabilityReport:
    n_reruns: int
    labels: tuple[str, ...]
    quantities: dict[str, tuple[float, float]]  # flattened key -> (min, max)
    coverage_loss_runs: int

    def band(self, key: str) -> tuple[float, float]:
        return self.quantities[key]

    def to_json_obj(self) -> dict:
        quantities = {k: {"min": lo, "max": hi} for k, (lo, hi) in self.quantities.items()}
        return {**record_json(self), "quantities": quantities}


# ---------------------------------------------------------------------------
# Per-run metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class RunOutcome:
    """One run, held as counts; every ratio is a property computed from them.

    ``n_base``, ``n_raw`` and ``n_enforced`` are the sizes of the baseline
    (B), proposed (R) and enforced (E) action sets; ``n_raw_base`` and
    ``n_enforced_base`` are |R∩B| and |E∩B|. The unions follow from them.
    """

    incident_id: str
    model_id: str
    arm: str
    hard_count: int
    soft_count: int
    rule_counts: tuple[tuple[str, int], ...]  # (rule id, count), in first-violation order
    edit_tuple: tuple[int, ...]  # in EDIT_OPERATORS order
    modified: bool
    n_base: int
    n_raw: int
    n_enforced: int
    n_raw_base: int
    n_enforced_base: int
    llm_only_actions: tuple[str, ...]
    baseline_only_actions: tuple[str, ...]

    @property
    def violated(self) -> bool:
        return self.hard_count + self.soft_count >= 1

    @property
    def lost_coverage(self) -> bool:
        """Enforcement removed a baseline action the proposal had: |E∩B| < |R∩B|."""
        return self.n_base > 0 and self.n_enforced_base < self.n_raw_base

    def edits(self, operator: str) -> int:
        return self.edit_tuple[EDIT_OPERATORS.index(operator)]

    @property
    def violations_by_rule(self) -> dict[str, int]:
        return dict(self.rule_counts)

    @property
    def edit_counts(self) -> dict[str, int]:
        return dict(zip(EDIT_OPERATORS, self.edit_tuple))

    @property
    def coverage(self) -> float:
        return _ratio(self.n_enforced_base, self.n_base, empty=1.0)

    @property
    def precision_raw(self) -> float:
        return _ratio(self.n_raw_base, self.n_raw, empty=1.0)

    @property
    def precision_enforced(self) -> float:
        return _ratio(self.n_enforced_base, self.n_enforced, empty=1.0)

    @property
    def jaccard_raw(self) -> float:
        return _ratio(self.n_raw_base, self.n_raw + self.n_base - self.n_raw_base, empty=1.0)

    @property
    def jaccard_enforced(self) -> float:
        return _ratio(self.n_enforced_base, self.n_enforced + self.n_base - self.n_enforced_base, empty=1.0)

    @property
    def delta_jaccard(self) -> float:
        return self.jaccard_enforced - self.jaccard_raw


def _ratio(numerator: int, denominator: int, *, empty: float) -> float:
    return numerator / denominator if denominator else empty


def run_outcome(
    raw: ProposedPlan,
    result: EnforcementResult,
    baseline: ProposedPlan,
) -> RunOutcome:
    """The set sizes and counts of one (plan, enforcement, baseline) run."""
    if raw.incident_id != baseline.incident_id:
        raise IncidentMismatch(
            f"plan is for {raw.incident_id!r} but baseline is for {baseline.incident_id!r}"
        )
    raw_set = set(raw.actions)
    base_set = set(baseline.actions)
    # Deferred actions stay in the enforced sequence, so the enforced set
    # includes them by construction in defer mode.
    enforced_set = set(result.enforced_actions)
    hard = result.hard_violations()
    return RunOutcome(
        incident_id=raw.incident_id,
        model_id=raw.model_id,
        arm=raw.arm,
        hard_count=hard,
        soft_count=len(result.violations) - hard,
        rule_counts=tuple(Counter(v.rule_id for v in result.violations).items()),
        edit_tuple=tuple(result.edit_counts.get(op, 0) for op in EDIT_OPERATORS),
        modified=result.modified,
        n_base=len(base_set),
        n_raw=len(raw_set),
        n_enforced=len(enforced_set),
        n_raw_base=len(raw_set & base_set),
        n_enforced_base=len(enforced_set & base_set),
        llm_only_actions=tuple(sorted(raw_set - base_set)),
        baseline_only_actions=tuple(sorted(base_set - raw_set)),
    )


# ---------------------------------------------------------------------------
# The metrics_runs.jsonl row format
# ---------------------------------------------------------------------------

# RunOutcome properties whose cell mean is the CellSummary field ``mean_<name>``;
# a run row holds each rounded to 4 places.
RATIO_COLUMNS = (
    "coverage", "delta_jaccard", "precision_raw", "precision_enforced", "jaccard_raw", "jaccard_enforced",
)
ROW_COLUMNS = (
    "incident_id", "model_id", "arm", "violated", "hard_count", "soft_count", "violations_by_rule",
    "edit_counts", "modified", *RATIO_COLUMNS, "llm_only_actions", "baseline_only_actions",
)


def run_row(outcome: RunOutcome) -> str:
    """One ``metrics_runs.jsonl`` line: the row columns by name, ratios rounded, keys sorted."""
    row = {name: getattr(outcome, name) for name in ROW_COLUMNS}
    for name in RATIO_COLUMNS:
        row[name] = round4(row[name])
    return json.dumps(row, sort_keys=True) + "\n"


def read_llm_rows(path: Path) -> list[tuple[tuple[str, str], str, bool]]:
    """``(cell, incident_id, violated)`` for each LLM run line of ``metrics_runs.jsonl``.

    Baseline lines (empty ``model_id``) sit outside the contrast family and
    are skipped. Raises ``ParseError: <file>:<line>: …`` for a line that is
    not JSON or lacks a string ``model_id``, ``arm`` or ``incident_id`` or a
    boolean ``violated``.
    """
    rows = []
    for number, line in enumerate(io.BytesIO(read_entry(path)), 1):
        where = f"{path.name}:{number}"
        try:
            row = decode_json(line)
        except ValueError as exc:
            raise ParseError(f"{where}: not valid JSON: {exc}") from None
        if not isinstance(row, dict):
            raise ParseError(f"{where}: a run line must be a JSON object")
        model_id, arm, incident_id = (
            json_field(row, key, str, where, ParseError) for key in ("model_id", "arm", "incident_id")
        )
        violated = json_field(row, "violated", bool, where, ParseError)
        if model_id:
            rows.append(((model_id, arm), incident_id, violated))
    return rows


# ---------------------------------------------------------------------------
# Cell aggregation
# ---------------------------------------------------------------------------

def aggregate(runs: Iterable[RunOutcome], confidence: float = 0.95) -> CellSummary:
    """Collapse one model/arm cell into rates, burdens, and rule breakdowns.

    Takes one pass over ``runs``, so a generator serves as well as a list.
    """
    # Imported here: loading the extension module costs every command that
    # imports planvet about 0.3 MB of RSS, and only evaluate aggregates. The
    # columns hold raw doubles, which fragment the heap less than floats.
    from array import array

    cells: set[tuple[str, str]] = set()
    cell = None
    n = violating = hard = modified = deferred = 0
    columns = {name: array("d") for name in RATIO_COLUMNS}
    rule_counts: Counter[str] = Counter()
    rule_run_hits: Counter[str] = Counter()
    for r in runs:
        if (r.model_id, r.arm) != cell:
            cell = (r.model_id, r.arm)
            cells.add(cell)
        n += 1
        violating += r.violated
        hard += r.hard_count
        modified += r.modified
        deferred += r.edits("defer")
        for name, column in columns.items():
            column.append(getattr(r, name))
        for rule_id, count in r.rule_counts:
            rule_counts[rule_id] += count
            rule_run_hits[rule_id] += 1
    if not n:
        raise EmptyCell("cannot aggregate an empty cell")
    if len(cells) != 1:
        raise ValueError(f"aggregate() needs a single cell, got {sorted(cells)}")
    model_id, arm = cell
    low, high = wilson_interval(violating, n, confidence)

    return CellSummary(
        model_id=model_id,
        arm=arm,
        n_runs=n,
        violation_rate=violating / n,
        wilson_low=low,
        wilson_high=high,
        hard_per_run=hard / n,
        edit_rate=modified / n,
        **{f"mean_{name}": math.fsum(column) / n for name, column in columns.items()},
        deferred_total=deferred,
        rule_rates={rule: hits / n for rule, hits in rule_run_hits.items()},
        rule_counts=dict(rule_counts),
    )


# ---------------------------------------------------------------------------
# Statistics primitives
# ---------------------------------------------------------------------------

def wilson_interval(successes: int, n: int, confidence: float = 0.95) -> tuple[float, float]:
    """Wilson score interval, clipped to [0, 1]; full precision, no rounding."""
    if n <= 0:
        raise DomainError("wilson_interval requires n >= 1")
    if not 0 <= successes <= n:
        raise DomainError(f"successes {successes} outside [0, {n}]")
    if not 0 < confidence < 1:
        raise DomainError(f"confidence {confidence} outside (0, 1)")
    z = NormalDist().inv_cdf((1 + confidence) / 2)
    p_hat = successes / n
    z2 = z * z
    denom = 1 + z2 / n
    center = (p_hat + z2 / (2 * n)) / denom
    spread = z * math.sqrt(p_hat * (1 - p_hat) / n + z2 / (4 * n * n)) / denom
    # the bounds saturate exactly at the extremes; do not let float
    # round-off pull them off the closed form
    low = 0.0 if successes == 0 else max(0.0, center - spread)
    high = 1.0 if successes == n else min(1.0, center + spread)
    return (low, high)


def cohens_h(p1: float, p2: float) -> float:
    """Arcsine-transform effect size: 2*asin(sqrt(p1)) - 2*asin(sqrt(p2))."""
    for p in (p1, p2):
        if not 0 <= p <= 1:
            raise DomainError(f"proportion {p} outside [0, 1]")
    return 2 * math.asin(math.sqrt(p1)) - 2 * math.asin(math.sqrt(p2))


def mcnemar_exact(b: int, c: int) -> float:
    """Exact two-sided binomial test on discordant pair counts.

    p = min(1, 2 * P(X <= min(b, c))) for X ~ Binomial(b + c, 1/2);
    1.0 when there is no discordance. Deterministic for all n.
    """
    if b < 0 or c < 0:
        raise DomainError("discordant counts must be nonnegative")
    n = b + c
    if n == 0:
        return 1.0
    k = min(b, c)
    tail = sum(math.comb(n, i) for i in range(k + 1))
    return min(1.0, 2 * tail / (1 << n))


def holm_adjust(p_values: Sequence[float]) -> list[float]:
    """Holm step-down adjustment, returned in the input order."""
    for p in p_values:
        if not 0 <= p <= 1:
            raise DomainError(f"p-value {p} outside [0, 1]")
    m = len(p_values)
    order = sorted(range(m), key=lambda i: p_values[i])
    adjusted = [0.0] * m
    running = 0.0
    for rank, idx in enumerate(order):
        value = min(1.0, (m - rank) * p_values[idx])
        running = max(running, value)
        adjusted[idx] = running
    return adjusted


# ---------------------------------------------------------------------------
# Paired contrasts
# ---------------------------------------------------------------------------

def cell_name(cell: tuple[str, str]) -> str:
    """``model/arm``, as errors name a cell."""
    return "/".join(cell)


def paired_contrast(
    outcomes_a: Mapping[str, bool],
    outcomes_b: Mapping[str, bool],
    cell_a: tuple[str, str] = ("", ""),
    cell_b: tuple[str, str] = ("", ""),
) -> ContrastResult:
    """Matched-incident contrast: delta rate, discordant counts, exact McNemar,
    Cohen's h. Holm correction is applied by the caller across its declared
    contrast family."""
    unpaired = outcomes_a.keys() ^ outcomes_b.keys()
    if unpaired:
        incident = min(unpaired)
        only_in = cell_a if incident in outcomes_a else cell_b
        raise KeyMismatch(
            f"contrast {cell_name(cell_a)} vs {cell_name(cell_b)} requires identical incident "
            f"key sets: {incident} is only in {cell_name(only_in)}"
        )
    if not outcomes_a:
        raise EmptyCell("contrast requires at least one matched incident")
    n = len(outcomes_a)
    b = sum(1 for k, va in outcomes_a.items() if va and not outcomes_b[k])
    c = sum(1 for k, va in outcomes_a.items() if not va and outcomes_b[k])
    rate_a = sum(1 for v in outcomes_a.values() if v) / n
    rate_b = sum(1 for v in outcomes_b.values() if v) / n
    return ContrastResult(
        cell_a=cell_a,
        cell_b=cell_b,
        n_pairs=n,
        rate_a=rate_a,
        rate_b=rate_b,
        delta_rate=rate_a - rate_b,
        discordant_b=b,
        discordant_c=c,
        mcnemar_p=mcnemar_exact(b, c),
        cohens_h=cohens_h(rate_a, rate_b),
    )


# ---------------------------------------------------------------------------
# Rerun stability
# ---------------------------------------------------------------------------

def _flatten(prefix: str, obj, out: dict[str, float]) -> None:
    if isinstance(obj, bool):
        return
    if isinstance(obj, (int, float)):
        out[prefix] = float(obj)
        return
    if isinstance(obj, Mapping):
        for key, value in obj.items():
            _flatten(f"{prefix}/{key}" if prefix else str(key), value, out)


def stability_report(summaries: Sequence[Mapping], labels: Sequence[str] = ()) -> StabilityReport:
    """Min/max band per numeric quantity across labeled rerun summaries.

    ``coverage_loss_runs`` reports the worst rerun (max), so any coverage
    loss anywhere surfaces at the top level.
    """
    if not summaries:
        raise EmptyCell("stability_report requires at least one rerun summary")
    flats: list[dict[str, float]] = []
    for summary in summaries:
        flat: dict[str, float] = {}
        _flatten("", summary, flat)
        flats.append(flat)
    keys = sorted(set().union(*flats))
    quantities = {}
    for key in keys:
        values = [f[key] for f in flats if key in f]
        quantities[key] = (min(values), max(values))
    loss_values = [int(f.get("coverage_loss_runs", 0)) for f in flats]
    return StabilityReport(
        n_reruns=len(summaries),
        labels=tuple(labels) if labels else tuple(f"rerun_{i + 1}" for i in range(len(summaries))),
        quantities=quantities,
        coverage_loss_runs=max(loss_values),
    )
