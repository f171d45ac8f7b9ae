"""End-to-end corpus evaluation: enforce, measure, aggregate, persist.

The pipeline is the binding layer under the CLI. One evaluation run loads
the declared inputs, gates the corpus, enforces every stored proposal plus
every paired baseline, and writes the full output bundle: per-run metric
lines, cell summaries, paired contrasts, rerun-stability bands, hash
manifests, and per-run enforcement traces. Outputs carry no timestamps
except the manifest sidecar field, so identical inputs give identical
bytes.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from .audit import GateReport, ReleaseGate, build_manifest, load_gate_inputs
from .catalog import ActionCatalog, ValidatedPolicy, load_catalog, load_policy_rules, validate_policy
from .corpus import Corpus, baseline_plan, load_corpus
from .engine import APPROVAL_MODES, MODE_REMOVE, enforce
from .errors import (
    ConfigIncomplete,
    ConfigInvalid,
    EmptyCell,
    EmptyEvaluation,
    ParseError,
    ReleaseGateFailed,
    SchemaError,
)
from .metrics import (
    CellSummary,
    ContrastResult,
    RunMetrics,
    aggregate,
    cell_name,
    holm_adjust,
    paired_contrast,
    run_metrics,
    stability_report,
)
from .plans import SOURCE_BASELINE, ProposedPlan, load_proposals
from .util import make_output_dir, present_record, read_json, write_json

log = logging.getLogger(__name__)

BASELINE_LABEL = "human_baseline"

CellKey = tuple[str, str]

REQUIRED_PATHS = (
    "corpus_dir", "catalog_path", "policy_path", "mapping_rules_path", "proposals_dir", "output_dir",
)
PATH_FIELDS = (*REQUIRED_PATHS, "privacy_patterns_path", "forbidden_terms_path")


def _is_pair(value: object, item_ok: Callable[[object], bool]) -> bool:
    return isinstance(value, (list, tuple)) and len(value) == 2 and all(map(item_ok, value))


def _is_cell(value: object) -> bool:
    """A ``[model, arm]`` pair of strings."""
    return _is_pair(value, lambda name: isinstance(name, str))


def contrast_family_pairs(value: object, what: str = "contrast_family") -> tuple[tuple[CellKey, CellKey], ...]:
    """The contrast family as a tuple of cell pairs; ``ConfigInvalid`` naming ``what`` otherwise."""
    if not isinstance(value, (list, tuple)) or not all(_is_pair(e, _is_cell) for e in value):
        raise ConfigInvalid(f"{what} must be a list of [[model, arm], [model, arm]] pairs, got {value!r}")
    return tuple((tuple(a), tuple(b)) for a, b in value)


@dataclass
class RunConfig:
    corpus_dir: Path
    catalog_path: Path
    policy_path: Path
    mapping_rules_path: Path
    proposals_dir: Path
    output_dir: Path
    approval_mode: str = MODE_REMOVE  # primary endpoint treatment
    confidence: float = 0.95
    contrast_family: tuple[tuple[CellKey, CellKey], ...] = ()
    rerun_label: str = "r1"
    skip_gates: bool = False
    privacy_patterns_path: Path | None = None
    forbidden_terms_path: Path | None = None

    @classmethod
    def from_json(cls, path: Path | str, **overrides) -> "RunConfig":
        """Load a config document; its relative paths resolve against its directory.

        Keyword overrides replace document values as given, so a relative path
        flag resolves against the working directory; ``None`` overrides are
        ignored so CLI flags only bite when actually given.
        """
        path = Path(path)
        document = read_json(path)
        if not isinstance(document, dict):
            raise ConfigInvalid(f"{path.name}: run config must be a JSON object")
        document = {k: path.parent / v if k in PATH_FIELDS and isinstance(v, str) else v for k, v in document.items()}
        return cls.from_fields({**document, **{k: v for k, v in overrides.items() if v is not None}})

    @classmethod
    def from_fields(cls, obj: Mapping) -> "RunConfig":
        """Build a config from document fields; relative paths stay relative.

        ``None`` values count as absent. Raises ``ConfigIncomplete`` naming
        every required path that is absent, and ``ConfigInvalid`` for a path
        that is not a string, an unknown approval mode, a confidence that is
        not a number in (0, 1), a ``skip_gates`` that is not a boolean, a
        ``rerun_label`` that cannot name a file (empty, not a string, or
        holding ``/`` or ``\\``) or a ``contrast_family`` that is not a list
        of pairs of ``[model, arm]`` string pairs.
        """
        obj = {k: v for k, v in obj.items() if v is not None}
        missing = [k for k in REQUIRED_PATHS if k not in obj]
        if missing:
            raise ConfigIncomplete(f"run config is missing {', '.join(missing)}")
        approval_mode = obj.get("approval_mode", MODE_REMOVE)
        if approval_mode not in APPROVAL_MODES:
            raise ConfigInvalid(
                f"unknown approval_mode {approval_mode!r}; expected one of {', '.join(APPROVAL_MODES)}"
            )
        confidence = obj.get("confidence", 0.95)
        if not isinstance(confidence, (int, float)) or not 0 < confidence < 1:  # True/False fail the range
            raise ConfigInvalid(f"confidence must be a number in (0, 1), got {confidence!r}")
        skip_gates = obj.get("skip_gates", False)
        if not isinstance(skip_gates, bool):  # "false" must not switch the gates off
            raise ConfigInvalid(f"skip_gates must be true or false, got {skip_gates!r}")
        rerun_label = obj.get("rerun_label", "r1")  # names summary_<label>.json
        if not isinstance(rerun_label, str) or not rerun_label or "/" in rerun_label or "\\" in rerun_label:
            raise ConfigInvalid(f"rerun_label must be a non-empty string without / or \\, got {rerun_label!r}")

        def resolve(key):
            value = obj.get(key)
            if value is None:
                return None
            if not isinstance(value, (str, os.PathLike)):
                raise ConfigInvalid(f"{key} must be a path string, got {value!r}")
            return Path(value)

        contrast_family = contrast_family_pairs(obj.get("contrast_family", ()))
        return cls(
            corpus_dir=resolve("corpus_dir"),
            catalog_path=resolve("catalog_path"),
            policy_path=resolve("policy_path"),
            mapping_rules_path=resolve("mapping_rules_path"),
            proposals_dir=resolve("proposals_dir"),
            output_dir=resolve("output_dir"),
            approval_mode=approval_mode,
            confidence=float(confidence),
            contrast_family=contrast_family,
            rerun_label=rerun_label,
            skip_gates=skip_gates,
            privacy_patterns_path=resolve("privacy_patterns_path"),
            forbidden_terms_path=resolve("forbidden_terms_path"),
        )


@dataclass
class EvaluationResult:
    config: RunConfig
    policy: ValidatedPolicy
    cells: dict[CellKey, CellSummary]
    baseline_cell: CellSummary | None  # None when every baseline run failed
    contrasts: list[ContrastResult]
    runs: list[RunMetrics]
    baseline_runs: list[RunMetrics]
    planned: int
    completed: int
    failures: list[dict] = field(default_factory=list)
    coverage_loss_runs: int = 0
    summary: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Gate + input loading
# ---------------------------------------------------------------------------

def load_gated_corpus(config: RunConfig, catalog: ActionCatalog, mapping_rules) -> Corpus:
    """Load the corpus in one pass that also feeds the release gate.

    Each package file is read, hashed and validated once; the gate and the
    loader both take it from there. A failed gate outranks a loader defect,
    as it did when the gate ran over the corpus before the loader.
    """
    if config.skip_gates:
        log.warning("release gates skipped by configuration; corpus is ungated")
        return load_corpus(config.corpus_dir, catalog)
    patterns, terms = load_gate_inputs(config.privacy_patterns_path, config.forbidden_terms_path)
    gate = ReleaseGate(catalog, mapping_rules, forbidden_terms=terms, patterns=patterns)
    try:
        corpus = load_corpus(config.corpus_dir, catalog, visit=gate.add)
    except (ParseError, SchemaError):
        _require_pass(gate.report())
        raise
    _require_pass(gate.report())
    return corpus


def _require_pass(report: GateReport) -> None:
    if not report.overall_pass:
        raise ReleaseGateFailed(
            "release gate failed: "
            f"privacy={report.privacy_pass} parseability={report.parseability_pass} "
            f"mapping={report.mapping_pass}"
        )


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def evaluate(config: RunConfig) -> EvaluationResult:
    """Run the declared evaluation and write the output bundle."""
    from .mapping import load_mapping_rules

    catalog = load_catalog(config.catalog_path)
    rules, policy_sha = load_policy_rules(config.policy_path)
    policy = validate_policy(catalog, rules, source_sha256=policy_sha)
    mapping_rules, _mapping_sha = load_mapping_rules(config.mapping_rules_path)

    corpus = load_gated_corpus(config, catalog, mapping_rules)
    proposals = load_proposals(config.proposals_dir, catalog)
    if not proposals:
        raise EmptyEvaluation(f"no proposal documents under {config.proposals_dir}")

    baselines = {pkg.incident_id: baseline_plan(pkg) for pkg in corpus}

    # Fail fast on a contrast family whose cells cannot pair up: check it on
    # the planned runs before anything is enforced or written. Proposals for
    # incidents outside the corpus are left out: they fail as runs. Neither
    # outcome table is kept: at 2k incidents the two would hold about 0.6 MB
    # until the outputs are written.
    compute_contrasts(
        cell_outcomes((p.cell(), p.incident_id, False) for p in proposals if p.incident_id in baselines),
        config.contrast_family,
    )

    enforced_dir = make_output_dir(Path(config.output_dir) / "enforced")

    runs: list[RunMetrics] = []
    baseline_runs: list[RunMetrics] = []
    failures: list[dict] = []
    coverage_loss = 0
    # The LLM runs in (incident, model, arm) order, then the baselines in
    # incident order: deterministic regardless of any future parallel execution.
    # Each proposal is popped off the reversed list for its run, so none is held after it.
    planned = len(proposals)
    proposals.sort(key=lambda p: (p.incident_id, p.model_id, p.arm))
    proposals.reverse()
    consumed = (proposals.pop() for _ in range(planned))
    for plan in chain(consumed, map(baselines.get, sorted(baselines))):
        try:
            incident = corpus.get(plan.incident_id)
            result = enforce(plan, policy, incident, config.approval_mode)
            metrics = run_metrics(plan, result, baselines[plan.incident_id])
        except Exception as exc:  # never silently dropped: counted and logged
            log.error("run failed: %s/%s/%s: %s", plan.incident_id, plan.model_id, plan.arm, exc)
            failures.append(
                {
                    "incident_id": plan.incident_id,
                    "model_id": plan.model_id,
                    "arm": plan.arm,
                    "error": f"{type(exc).__name__}: {exc}",
                }
            )
            continue
        if plan.source == SOURCE_BASELINE:
            baseline_runs.append(metrics)
            label = BASELINE_LABEL
        else:
            runs.append(metrics)
            coverage_loss += _lost_coverage(plan, result, baselines[plan.incident_id])
            label = plan.model_id
        name = f"{plan.incident_id}__{label}__{plan.arm}.json"
        write_json(enforced_dir / name, result.to_json_obj(policy_sha256=policy_sha), rounded=False)

    cells = _aggregate_cells(runs, config.confidence)
    # Failed baselines are in ``failures``; with none left there is no baseline cell.
    baseline_cell = aggregate(baseline_runs, config.confidence) if baseline_runs else None

    contrasts = compute_contrasts(
        cell_outcomes(((run.model_id, run.arm), run.incident_id, run.violated) for run in runs),
        config.contrast_family,
    )

    evaluation = EvaluationResult(
        config=config,
        policy=policy,
        cells=cells,
        baseline_cell=baseline_cell,
        contrasts=contrasts,
        runs=runs,
        baseline_runs=baseline_runs,
        planned=planned,
        completed=len(runs),
        failures=failures,
        coverage_loss_runs=coverage_loss,
        summary=_corpus_summary(config.rerun_label, cells, runs, coverage_loss),
    )
    _write_outputs(evaluation, corpus)
    return evaluation


def _lost_coverage(plan: ProposedPlan, result, baseline: ProposedPlan) -> bool:
    base = set(baseline.actions)
    if not base:
        return False
    raw_cov = len(set(plan.actions) & base) / len(base)
    enforced_cov = len(set(result.enforced_actions) & base) / len(base)
    return enforced_cov < raw_cov


def _aggregate_cells(runs: Sequence[RunMetrics], confidence: float) -> dict[CellKey, CellSummary]:
    grouped: dict[CellKey, list[RunMetrics]] = {}
    for run in runs:
        grouped.setdefault((run.model_id, run.arm), []).append(run)
    return {key: aggregate(group, confidence) for key, group in sorted(grouped.items())}


def cell_outcomes(rows: Iterable[tuple[CellKey, str, bool]]) -> dict[CellKey, dict[str, bool]]:
    """The ``{cell: {incident_id: violated}}`` table that ``compute_contrasts`` pairs."""
    outcomes: dict[CellKey, dict[str, bool]] = {}
    for cell, incident_id, violated in rows:
        outcomes.setdefault(cell, {})[incident_id] = violated
    return outcomes


def compute_contrasts(
    outcomes: Mapping[CellKey, Mapping[str, bool]],
    family: Sequence[tuple[CellKey, CellKey]],
) -> list[ContrastResult]:
    """Paired contrasts over the declared family, Holm-adjusted once across it.

    ``outcomes`` maps each cell to its ``{incident_id: violated}`` flags. A
    declared cell with no runs raises ``EmptyCell``.
    """
    missing = sorted({cell for pair in family for cell in pair} - outcomes.keys())
    if missing:
        raise EmptyCell(f"declared contrast cells with no runs: {', '.join(map(cell_name, missing))}")
    contrasts = [
        paired_contrast(outcomes[cell_a], outcomes[cell_b], cell_a, cell_b)
        for cell_a, cell_b in family
    ]
    if contrasts:
        adjusted = holm_adjust([c.mcnemar_p for c in contrasts])
        for contrast, holm_p in zip(contrasts, adjusted):
            contrast.holm_p = holm_p
    return contrasts


def _corpus_summary(
    label: str,
    cells: Mapping[CellKey, CellSummary],
    runs: Sequence[RunMetrics],
    coverage_loss: int,
) -> dict:
    rule_totals: dict[str, int] = {}
    for cell in cells.values():
        for rule, count in cell.rule_counts.items():
            rule_totals[rule] = rule_totals.get(rule, 0) + count
    n = len(runs)
    return {
        "rerun_label": label,
        "cells": {
            f"{model}|{arm}": {
                "violation_rate": cell.violation_rate,
                "edit_rate": cell.edit_rate,
                "hard_per_run": cell.hard_per_run,
            }
            for (model, arm), cell in sorted(cells.items())
        },
        "rule_totals": dict(sorted(rule_totals.items())),
        "llm_runs": n,
        "llm_edit_rate": (sum(1 for r in runs if r.modified) / n) if n else 0.0,
        "removed_total": sum(r.edit_counts.get("remove", 0) for r in runs),
        "deferred_total": sum(r.edit_counts.get("defer", 0) for r in runs),
        "coverage_loss_runs": coverage_loss,
    }


# ---------------------------------------------------------------------------
# Output bundle
# ---------------------------------------------------------------------------

def _write_outputs(result: EvaluationResult, corpus: Corpus) -> None:
    config = result.config
    output_dir = make_output_dir(config.output_dir)

    with open(output_dir / "metrics_runs.jsonl", "w", encoding="utf-8") as fh:
        for run in chain(result.runs, result.baseline_runs):
            fh.write(json.dumps(present_record(run), sort_keys=True) + "\n")

    cell_objs = [result.cells[key].to_json_obj() for key in sorted(result.cells)]
    baseline_obj = None
    if result.baseline_cell is not None:
        baseline_obj = {**result.baseline_cell.to_json_obj(), "label": BASELINE_LABEL}
    write_json(output_dir / "cell_summaries.json", {"cells": cell_objs, "baseline": baseline_obj})

    write_json(output_dir / "contrasts.json", {"contrasts": [c.to_json_obj() for c in result.contrasts]})

    write_json(output_dir / f"summary_{config.rerun_label}.json", result.summary)

    # Stability bands cover every labeled rerun present in the output dir,
    # including the one just written.
    summary_files = sorted(output_dir.glob("summary_*.json"))
    summaries = [read_json(p) for p in summary_files]
    labels = [p.stem.removeprefix("summary_") for p in summary_files]
    report = stability_report(summaries, labels)
    write_json(output_dir / "stability.json", report.to_json_obj())

    write_json(output_dir / "corpus_manifest.json", dict(sorted(corpus.digests.items())), rounded=False)

    manifest = build_manifest(
        [config.catalog_path, config.policy_path, config.mapping_rules_path],
        extra={
            "corpus_files": len(corpus.digests),
            "policy_sha256": result.policy.source_sha256,
            "approval_mode": config.approval_mode,
            "confidence": config.confidence,
            "rerun_label": config.rerun_label,
            "run_accounting": {
                "planned_llm_runs": result.planned,
                "completed_llm_runs": result.completed,
                "failed_llm_runs": result.planned - result.completed,
                "failures": result.failures,
                "planned_baselines": len(corpus),
                "completed_baselines": len(result.baseline_runs),
            },
        },
    )
    write_json(output_dir / "manifest.json", manifest, rounded=False)
