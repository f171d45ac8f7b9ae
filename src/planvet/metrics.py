"""Per-run metrics, cell aggregates, paired contrasts, rerun stability.

Overlap metrics are set-based (deduplicated); multiplicity lives only in
the raw trace. Empty-set conventions (coverage 1.0 on an empty baseline,
precision 1.0 on an empty plan) keep vacuous cases division-free and let a
baseline evaluated against itself score exactly 1.0 / 0.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Mapping, Sequence

from .engine import EnforcementResult
from .errors import DomainError, EmptyCell, IncidentMismatch, KeyMismatch
from .plans import ProposedPlan
from .util import record_json


@dataclass(frozen=True, slots=True)
class RunMetrics:
    incident_id: str
    model_id: str
    arm: str
    violated: bool
    hard_count: int
    soft_count: int
    violations_by_rule: Mapping[str, int]
    edit_counts: Mapping[str, int]
    modified: bool
    coverage: float
    precision_raw: float
    precision_enforced: float
    jaccard_raw: float
    jaccard_enforced: float
    delta_jaccard: float
    llm_only_actions: tuple[str, ...]
    baseline_only_actions: tuple[str, ...]

    to_json_obj = record_json


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

def _ratio(numerator: int, denominator: int, *, empty: float) -> float:
    return numerator / denominator if denominator else empty

def run_metrics(
    raw: ProposedPlan,
    result: EnforcementResult,
    baseline: ProposedPlan,
) -> RunMetrics:
    """Set-based overlap and burden metrics for one (plan, enforcement, baseline)."""
    if raw.incident_id != baseline.incident_id:
        raise IncidentMismatch(
            f"plan is for {raw.incident_id!r} but baseline is for {baseline.incident_id!r}"
        )
    raw_set = set(raw.actions)
    base_set = set(baseline.actions)
    # Deferred actions stay in the enforced sequence, so the enforced set
    # includes them by construction in defer mode.
    enforced_set = set(result.enforced_actions)

    coverage = _ratio(len(enforced_set & base_set), len(base_set), empty=1.0)
    precision_raw = _ratio(len(raw_set & base_set), len(raw_set), empty=1.0)
    precision_enforced = _ratio(len(enforced_set & base_set), len(enforced_set), empty=1.0)
    jaccard_raw = _ratio(len(raw_set & base_set), len(raw_set | base_set), empty=1.0)
    jaccard_enforced = _ratio(len(enforced_set & base_set), len(enforced_set | base_set), empty=1.0)

    hard = result.hard_violations()
    soft = len(result.violations) - hard
    by_rule = Counter(v.rule_id for v in result.violations)

    return RunMetrics(
        incident_id=raw.incident_id,
        model_id=raw.model_id,
        arm=raw.arm,
        violated=(hard + soft) >= 1,
        hard_count=hard,
        soft_count=soft,
        violations_by_rule=dict(by_rule),
        edit_counts=dict(result.edit_counts),
        modified=result.modified,
        coverage=coverage,
        precision_raw=precision_raw,
        precision_enforced=precision_enforced,
        jaccard_raw=jaccard_raw,
        jaccard_enforced=jaccard_enforced,
        delta_jaccard=jaccard_enforced - jaccard_raw,
        llm_only_actions=tuple(sorted(raw_set - base_set)),
        baseline_only_actions=tuple(sorted(base_set - raw_set)),
    )


# ---------------------------------------------------------------------------
# Cell aggregation
# ---------------------------------------------------------------------------

def aggregate(runs: Sequence[RunMetrics], confidence: float = 0.95) -> CellSummary:
    """Collapse one model/arm cell into rates, burdens, and rule breakdowns."""
    if not runs:
        raise EmptyCell("cannot aggregate an empty cell")
    cells = {(r.model_id, r.arm) for r in runs}
    if len(cells) != 1:
        raise ValueError(f"aggregate() needs a single cell, got {sorted(cells)}")
    model_id, arm = next(iter(cells))

    n = len(runs)
    violating = sum(1 for r in runs if r.violated)
    low, high = wilson_interval(violating, n, confidence)

    rule_counts: Counter[str] = Counter()
    rule_run_hits: Counter[str] = Counter()
    for r in runs:
        for rule_id, count in r.violations_by_rule.items():
            rule_counts[rule_id] += count
            rule_run_hits[rule_id] += 1

    return CellSummary(
        model_id=model_id,
        arm=arm,
        n_runs=n,
        violation_rate=violating / n,
        wilson_low=low,
        wilson_high=high,
        hard_per_run=math.fsum(r.hard_count for r in runs) / n,
        edit_rate=sum(1 for r in runs if r.modified) / n,
        mean_coverage=math.fsum(r.coverage for r in runs) / n,
        mean_delta_jaccard=math.fsum(r.delta_jaccard for r in runs) / n,
        mean_precision_raw=math.fsum(r.precision_raw for r in runs) / n,
        mean_precision_enforced=math.fsum(r.precision_enforced for r in runs) / n,
        mean_jaccard_raw=math.fsum(r.jaccard_raw for r in runs) / n,
        mean_jaccard_enforced=math.fsum(r.jaccard_enforced for r in runs) / n,
        deferred_total=sum(r.edit_counts.get("defer", 0) for r in runs),
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
