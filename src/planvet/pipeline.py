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

import logging
import os
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .audit import ReleaseGate, build_manifest, load_gate_inputs
from .catalog import ActionCatalog, ValidatedPolicy, load_catalog, load_policy_rules, validate_policy
from .corpus import Corpus, PackageFile, baseline_plan, load_corpus
from .engine import APPROVAL_MODES, MODE_REMOVE, enforce
from .errors import (
    ConfigIncomplete,
    ConfigInvalid,
    EmptyCell,
    EmptyEvaluation,
    IncidentNotFound,
    ParseError,
    ReleaseGateFailed,
    SchemaError,
)
from .metrics import (
    CellSummary,
    ContrastResult,
    RunOutcome,
    aggregate,
    cell_name,
    holm_adjust,
    paired_contrast,
    run_outcome,
    run_row,
    stability_report,
)
from .plans import SOURCE_BASELINE, ProposedPlan, load_proposals
from .util import json_names, make_output_dir, present, read_json, sha256_bytes, write_chunks, write_json

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
        that is not a string, a path or ``rerun_label`` holding a NUL
        character, an unknown approval mode, a confidence that is not a
        number in (0, 1), a ``skip_gates`` that is not a boolean, a
        ``rerun_label`` that cannot name a file (empty, not a string, or
        holding ``/`` or ``\\``) or a ``contrast_family`` that is not a list
        of pairs of ``[model, arm]`` string pairs.
        """
        obj = {k: v for k, v in obj.items() if v is not None}
        missing = [k for k in REQUIRED_PATHS if k not in obj]
        if missing:
            raise ConfigIncomplete(f"run config is missing {', '.join(missing)}")
        for key in (*PATH_FIELDS, "rerun_label"):  # no file name can hold NUL
            value = obj.get(key)
            if isinstance(value, (str, os.PathLike)) and "\0" in str(value):
                raise ConfigInvalid(f"{key} must not hold a NUL character, got {str(value)!r}")
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
    runs: list[RunOutcome]
    baseline_runs: list[RunOutcome]
    planned: int
    completed: int
    failures: list[dict] = field(default_factory=list)
    coverage_loss_runs: int = 0
    summary: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Gate + input loading
# ---------------------------------------------------------------------------

def load_gated_corpus(config: RunConfig, catalog: ActionCatalog, mapping_rules) -> tuple[Corpus, dict[str, str]]:
    """Load the corpus in one pass that also feeds the release gate; returns it with its digests.

    Each package file is read and validated once; the gate, the loader and
    the digest (``filename -> SHA-256`` of the bytes parsed, for the corpus
    manifest) all take it from there. A failed gate outranks a loader
    defect, as it did when the gate ran over the corpus before the loader.
    """
    digests: dict[str, str] = {}
    gate = None
    if config.skip_gates:
        log.warning("release gates skipped by configuration; corpus is ungated")
    else:
        patterns, terms = load_gate_inputs(config.privacy_patterns_path, config.forbidden_terms_path)
        gate = ReleaseGate(catalog, mapping_rules, forbidden_terms=terms, patterns=patterns)

    def visit(package_file: PackageFile) -> None:
        digests[package_file.name] = sha256_bytes(package_file.data)
        if gate is not None:
            gate.add(package_file)

    try:
        corpus = load_corpus(config.corpus_dir, catalog, visit=visit)
    except (ParseError, SchemaError):
        _require_pass(gate)
        raise
    _require_pass(gate)
    return corpus, digests


def _require_pass(gate: ReleaseGate | None) -> None:
    """Raise ``ReleaseGateFailed`` unless the gate passed; no gate (``skip_gates``) passes."""
    if gate is not None and not (report := gate.report()).overall_pass:
        raise ReleaseGateFailed(
            "release gate failed: "
            f"privacy={report.privacy_pass} parseability={report.parseability_pass} "
            f"mapping={report.mapping_pass}"
        )


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def evaluate(config: RunConfig) -> EvaluationResult:
    """Run the declared evaluation and write the output bundle.

    A ``corpus_dir`` or ``proposals_dir`` that is not a directory raises
    ``ConfigInvalid`` before any input is read.
    """
    from .mapping import load_mapping_rules

    for key in ("corpus_dir", "proposals_dir"):
        path = getattr(config, key)
        if not path.is_dir():
            raise ConfigInvalid(f"{key} {path} is not a directory")
    prior_summaries = _read_prior_summaries(config.output_dir, config.rerun_label)
    catalog = load_catalog(config.catalog_path)
    rules, policy_sha = load_policy_rules(config.policy_path)
    policy = validate_policy(catalog, rules, source_sha256=policy_sha)
    mapping_rules, mapping_sha = load_mapping_rules(config.mapping_rules_path)

    corpus, digests = load_gated_corpus(config, catalog, mapping_rules)
    # Only the packages and digests are kept, so each package can be
    # released once its incident's runs are done.
    packages = {pkg.incident_id: pkg for pkg in corpus}
    del corpus
    proposals = load_proposals(config.proposals_dir, catalog)
    if not proposals:
        raise EmptyEvaluation(f"no proposal documents under {config.proposals_dir}")

    # Fail fast on a contrast family whose cells cannot pair up: check it on
    # the planned runs before anything is enforced or written. Proposals for
    # incidents outside the corpus are left out: they fail as runs. Neither
    # outcome table is kept: at 2k incidents the two would hold about 0.6 MB
    # until the outputs are written.
    compute_contrasts(
        cell_outcomes((p.cell(), p.incident_id, False) for p in proposals if p.incident_id in packages),
        config.contrast_family,
    )

    enforced_dir = make_output_dir(Path(config.output_dir) / "enforced")

    runs: list[RunOutcome] = []
    baseline_runs: list[RunOutcome] = []
    llm_failures: list[dict] = []
    baseline_failures: list[dict] = []
    coverage_loss = 0
    # Incident by incident in id order: its proposals in (model, arm) order,
    # then its baseline. Each proposal is popped off the reversed sorted list
    # for its run, and each package and baseline plan is dropped after the
    # incident's baseline run. ``runs`` then lists the LLM runs in (incident,
    # model, arm) order and ``baseline_runs`` the baselines in incident order.
    planned = len(proposals)
    proposals.sort(key=lambda p: (p.incident_id, p.model_id, p.arm))
    proposals.reverse()
    for incident_id in sorted(packages.keys() | {p.incident_id for p in proposals}):
        package = packages.pop(incident_id, None)  # None for an orphan proposal's incident
        baseline = None if package is None else baseline_plan(package)
        for plan in chain(_popped(proposals, incident_id), () if baseline is None else (baseline,)):
            try:
                if package is None:
                    raise IncidentNotFound(plan.incident_id)
                result = enforce(plan, policy, package, config.approval_mode)
                outcome = run_outcome(plan, result, baseline)
            except Exception as exc:  # never silently dropped: counted and logged
                log.error("run failed: %s/%s/%s: %s", plan.incident_id, plan.model_id, plan.arm, exc)
                failures = baseline_failures if plan.source == SOURCE_BASELINE else llm_failures
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
                baseline_runs.append(outcome)
                label = BASELINE_LABEL
            else:
                runs.append(outcome)
                coverage_loss += outcome.lost_coverage
                label = plan.model_id
            name = f"{plan.incident_id}__{label}__{plan.arm}.json"
            write_json(enforced_dir / name, result.to_json_obj(policy_sha256=policy_sha), rounded=False)
        del package, baseline

    cells = _aggregate_cells(runs, config.confidence)
    # Failed baselines are in ``failures``; with none left there is no baseline cell.
    baseline_cell = aggregate(baseline_runs, config.confidence) if baseline_runs else None

    # A failed run drops its incident from the contrasts that involve its cell.
    contrasts = compute_contrasts(
        cell_outcomes(((run.model_id, run.arm), run.incident_id, run.violated) for run in runs),
        config.contrast_family,
        drop_unpaired=True,
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
        failures=llm_failures + baseline_failures,
        coverage_loss_runs=coverage_loss,
        summary=_corpus_summary(config.rerun_label, cells, runs, coverage_loss),
    )
    _write_outputs(evaluation, mapping_sha, digests, prior_summaries)
    return evaluation


def _read_prior_summaries(output_dir: Path, label: str) -> dict[str, dict]:
    """The other reruns' ``summary_*.json`` in ``output_dir`` by file name, read before anything is written.

    ``summary_<label>.json`` is left out: this run replaces it. A file that is
    not JSON, or not an object with every ``SUMMARY_KEYS`` key, raises ``ParseError`` naming it.
    """
    summaries = {}
    for name in json_names(output_dir):
        if not name.startswith("summary_") or name == f"summary_{label}.json":
            continue
        summary = read_json(Path(output_dir) / name)
        if not isinstance(summary, dict) or not all(key in summary for key in SUMMARY_KEYS):
            raise ParseError(f"{name}: not a rerun summary (a JSON object with {', '.join(SUMMARY_KEYS)})")
        summaries[name] = summary
    return summaries


def _popped(proposals: list[ProposedPlan], incident_id: str) -> Iterator[ProposedPlan]:
    """Pop the proposals for ``incident_id`` off the end of the reversed sorted list, in order."""
    while proposals and proposals[-1].incident_id == incident_id:
        yield proposals.pop()


def _aggregate_cells(runs: Sequence[RunOutcome], confidence: float) -> dict[CellKey, CellSummary]:
    grouped: dict[CellKey, list[RunOutcome]] = {}
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
    *,
    drop_unpaired: bool = False,
) -> list[ContrastResult]:
    """Paired contrasts over the declared family, Holm-adjusted once across it.

    ``outcomes`` maps each cell to its ``{incident_id: violated}`` flags. A
    declared cell with no runs raises ``EmptyCell``. Two cells whose
    incident sets differ raise ``KeyMismatch``, unless ``drop_unpaired``:
    then each contrast pairs the incidents both of its cells hold.
    """
    missing = sorted({cell for pair in family for cell in pair} - outcomes.keys())
    if missing:
        raise EmptyCell(f"declared contrast cells with no runs: {', '.join(map(cell_name, missing))}")
    contrasts = []
    for cell_a, cell_b in family:
        a, b = outcomes[cell_a], outcomes[cell_b]
        if drop_unpaired and a.keys() != b.keys():
            a, b = ({k: v for k, v in side.items() if k in other} for side, other in ((a, b), (b, a)))
        contrasts.append(paired_contrast(a, b, cell_a, cell_b))
    if contrasts:
        adjusted = holm_adjust([c.mcnemar_p for c in contrasts])
        for contrast, holm_p in zip(contrasts, adjusted):
            contrast.holm_p = holm_p
    return contrasts


def _corpus_summary(
    label: str,
    cells: Mapping[CellKey, CellSummary],
    runs: Sequence[RunOutcome],
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
        "removed_total": sum(r.edits("remove") for r in runs),
        "deferred_total": sum(r.edits("defer") for r in runs),
        "coverage_loss_runs": coverage_loss,
    }


SUMMARY_KEYS = tuple(_corpus_summary("", {}, (), 0))  # the keys of every rerun summary, in order


# ---------------------------------------------------------------------------
# Output bundle
# ---------------------------------------------------------------------------

def _write_outputs(result: EvaluationResult, mapping_sha: str, digests: Mapping[str, str], prior: Mapping) -> None:
    config = result.config
    output_dir = make_output_dir(config.output_dir)

    write_chunks(output_dir / "metrics_runs.jsonl", map(run_row, chain(result.runs, result.baseline_runs)))

    cell_objs = [result.cells[key].to_json_obj() for key in sorted(result.cells)]
    baseline_obj = None
    if result.baseline_cell is not None:
        baseline_obj = {**result.baseline_cell.to_json_obj(), "label": BASELINE_LABEL}
    write_json(output_dir / "cell_summaries.json", {"cells": cell_objs, "baseline": baseline_obj})

    write_json(output_dir / "contrasts.json", {"contrasts": [c.to_json_obj() for c in result.contrasts]})

    write_json(output_dir / f"summary_{config.rerun_label}.json", result.summary)

    # Stability bands cover every labeled rerun in the output dir: the ones
    # read before the run and this one, as written (rounded), in file name order.
    summaries = {**prior, f"summary_{config.rerun_label}.json": present(result.summary)}
    names = sorted(summaries)
    labels = [name.removeprefix("summary_").removesuffix(".json") for name in names]
    report = stability_report([summaries[name] for name in names], labels)
    write_json(output_dir / "stability.json", report.to_json_obj())

    write_json(output_dir / "corpus_manifest.json", dict(sorted(digests.items())), rounded=False)

    manifest = build_manifest(
        {
            config.catalog_path.name: result.policy.catalog.source_sha256,
            config.policy_path.name: result.policy.source_sha256,
            config.mapping_rules_path.name: mapping_sha,
        },
        extra={
            "corpus_files": len(digests),
            "policy_sha256": result.policy.source_sha256,
            "approval_mode": config.approval_mode,
            "confidence": config.confidence,
            "rerun_label": config.rerun_label,
            "run_accounting": {
                "planned_llm_runs": result.planned,
                "completed_llm_runs": result.completed,
                "failed_llm_runs": result.planned - result.completed,
                "failures": result.failures,
                "planned_baselines": len(digests),  # one per corpus file
                "completed_baselines": len(result.baseline_runs),
            },
        },
    )
    write_json(output_dir / "manifest.json", manifest, rounded=False)
