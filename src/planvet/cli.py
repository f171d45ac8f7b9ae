"""Command-line entry point.

Subcommands bind the library into the evaluation pipeline: verify one plan,
evaluate a corpus, audit the release boundary, rerun the mapper, compute
contrasts, render reports, run activation checks, and materialize the
shipped fixture bundle.

Exit codes: 0 clean, 3 hard violations (or failed gates) found, 1 error.
"""

from __future__ import annotations

import argparse
import functools
import logging
import sys
from itertools import chain
from pathlib import Path
from typing import Iterator

from . import __version__
from .audit import activation_check, build_manifest, load_gate_inputs, release_gate
from .catalog import ActionCatalog, load_catalog, load_policy
from .corpus import baseline_plan, load_corpus, load_package
from .engine import APPROVAL_MODES, MODE_REMOVE, enforce
from .errors import ConfigInvalid, PlanvetError
from .mapping import load_mapping_rules, map_corpus, mapping_coverage
from .metrics import read_llm_rows
from .pipeline import RunConfig, cell_outcomes, compute_contrasts, contrast_family_pairs, evaluate
from .plans import SOURCE_FIXTURE, ProposedPlan, iter_proposals, parse_proposal
from .report import write_report
from .util import make_output_dir, read_entry, read_json, record_json, write_json

log = logging.getLogger("planvet")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATIONS = 3


class NamedCliError(Exception):
    """Error with a stable machine-checkable name on stderr."""

    def __init__(self, name: str, message: str) -> None:
        super().__init__(message)
        self.name = name


def _existing(path: str | Path, error_name: str) -> Path:
    path = Path(path)
    if not path.exists():
        raise NamedCliError(error_name, str(path))
    return path


def _directory(path: str | Path, error_name: str) -> Path:
    """``path`` if it names a directory; a missing path or a file raises ``error_name``."""
    path = Path(path)
    if not path.is_dir():
        raise NamedCliError(error_name, str(path))
    return path


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_verify(args: argparse.Namespace) -> int:
    catalog_path = _existing(args.catalog, "CatalogNotFound")
    policy_path = _existing(args.policy, "PolicyNotFound")
    corpus_dir = _directory(args.corpus_dir, "CorpusNotFound")
    proposal_path = _existing(args.proposal, "ProposalNotFound")

    policy = load_policy(catalog_path, policy_path)
    incident = load_package(corpus_dir, args.incident_id, policy.catalog)
    plan = parse_proposal(
        read_entry(proposal_path),
        policy.catalog,
        incident_id=args.incident_id,
        model_id=args.model or "",
        arm=args.arm,
    )
    result = enforce(plan, policy, incident, args.approval_mode)

    print(f"incident:  {incident.incident_id}")
    print(f"proposed:  {' '.join(plan.actions) or '(empty)'}")
    if plan.out_of_catalog:
        print(f"out-of-catalog: {' '.join(plan.out_of_catalog)}")
    print(f"enforced:  {' '.join(result.enforced_actions) or '(empty)'}")
    for violation in result.violations:
        print(
            f"violation: {violation.rule_id}/{violation.violation_type} "
            f"{violation.repair} {violation.action_id}@{violation.position} "
            f"[{violation.severity}]"
        )
    if result.deferred_actions:
        print(f"deferred:  {' '.join(result.deferred_actions)}")
    if args.output:
        output = Path(args.output)
        make_output_dir(output.parent)
        write_json(output, result.to_json_obj(policy_sha256=policy.source_sha256), rounded=False)

    hard = result.hard_violations()
    print(f"hard violations: {hard}")
    return EXIT_VIOLATIONS if hard else EXIT_OK


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    overrides = {
        "corpus_dir": args.corpus_dir,
        "catalog_path": args.catalog,
        "policy_path": args.policy,
        "mapping_rules_path": args.mapping_rules,
        "proposals_dir": args.proposals_dir,
        "output_dir": args.output_dir,
        "approval_mode": args.approval_mode,
        "confidence": args.confidence,
        "rerun_label": args.rerun_label,
        "skip_gates": True if args.skip_gates else None,
        "privacy_patterns_path": args.privacy_patterns,
        "forbidden_terms_path": args.forbidden_terms,
    }
    if args.config:
        return RunConfig.from_json(_existing(args.config, "ConfigNotFound"), **overrides)
    return RunConfig.from_fields(overrides)


def cmd_evaluate(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    result = evaluate(config)
    print(f"completed {result.completed}/{result.planned} runs "
          f"({len(result.failures)} failures), mode={config.approval_mode}")
    for (model, arm), cell in sorted(result.cells.items()):
        print(
            f"  {model}/{arm}: violation_rate={cell.violation_rate:.4f} "
            f"hard_per_run={cell.hard_per_run:.4f} edit_rate={cell.edit_rate:.4f}"
        )
    base = result.baseline_cell
    if base is None:
        print("  baseline: no completed runs")
    else:
        print(f"  baseline: violation_rate={base.violation_rate:.4f} coverage={base.mean_coverage:.4f}")
    print(f"outputs in {config.output_dir}")
    return EXIT_OK


def cmd_audit(args: argparse.Namespace) -> int:
    catalog = load_catalog(_existing(args.catalog, "CatalogNotFound"))
    mapping_rules, mapping_sha = load_mapping_rules(_existing(args.mapping_rules, "MappingRulesNotFound"))
    patterns, terms = load_gate_inputs(args.privacy_patterns, args.forbidden_terms)
    report = release_gate(
        _directory(args.corpus_dir, "CorpusNotFound"),
        catalog,
        mapping_rules,
        forbidden_terms=terms,
        patterns=patterns,
    )
    output_dir = make_output_dir(args.output_dir)
    write_json(output_dir / "gate_report.json", report.to_json_obj())
    files = {Path(args.catalog).name: catalog.source_sha256, Path(args.mapping_rules).name: mapping_sha}
    write_json(output_dir / "manifest.json", build_manifest(files), rounded=False)
    status = "PASS" if report.overall_pass else "FAIL"
    print(f"release gate: {status} (privacy={report.privacy_pass} "
          f"parseability={report.parseability_pass} mapping={report.mapping_pass})")
    for gap in report.approval_gaps:
        print(f"  approval gap suggestion: {gap['suggestion']}")
    return EXIT_OK if report.overall_pass else EXIT_VIOLATIONS


def cmd_map(args: argparse.Namespace) -> int:
    catalog = load_catalog(_existing(args.catalog, "CatalogNotFound"))
    mapping_rules, rules_sha = load_mapping_rules(_existing(args.mapping_rules, "MappingRulesNotFound"))
    corpus = load_corpus(_directory(args.corpus_dir, "CorpusNotFound"), catalog)
    result = map_corpus(corpus, mapping_rules, catalog)
    coverage = mapping_coverage(result, catalog)
    doc = {
        "mapping_rules_sha256": rules_sha,
        "support": result.support.to_json_obj(),
        "unmatched": list(result.unmatched),
        "ambiguous": [[task, list(candidates)] for task, candidates in result.ambiguous],
        **record_json(coverage),
    }
    output_dir = make_output_dir(args.output_dir)
    write_json(output_dir / "mapping_report.json", doc)
    print(
        f"mapped {result.support.mapped_tasks}/{result.support.total_tasks} tasks, "
        f"{len(result.unmatched)} unmatched, {len(result.ambiguous)} ambiguous, "
        f"catalog coverage {coverage.catalog_coverage:.4f}"
    )
    return EXIT_OK


def cmd_contrast(args: argparse.Namespace) -> int:
    metrics_path = _existing(args.metrics, "MetricsNotFound")
    family_path = _existing(args.family, "FamilyNotFound")
    family = contrast_family_pairs(read_json(family_path), f"{family_path.name}: contrast family")
    contrasts = compute_contrasts(cell_outcomes(read_llm_rows(metrics_path)), family, drop_unpaired=True)
    output = Path(args.output)
    make_output_dir(output.parent)
    write_json(output, {"contrasts": [c.to_json_obj() for c in contrasts]})
    for contrast in contrasts:
        print(
            f"{contrast.cell_a} vs {contrast.cell_b}: delta={contrast.delta_rate:+.4f} "
            f"p={contrast.mcnemar_p:.6f} holm={contrast.holm_p:.6f} h={contrast.cohens_h:+.4f}"
        )
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    target = write_report(
        _directory(args.output_dir, "OutputDirNotFound"),
        defer_dir=None if args.defer_dir is None else _directory(args.defer_dir, "OutputDirNotFound"),
        out_path=args.out,
    )
    print(f"report written to {target}")
    return EXIT_OK


def _probe_plans(path: Path, catalog: ActionCatalog) -> Iterator[ProposedPlan]:
    """The ``plans`` of a probe document, parsed one at a time once the whole document is checked.

    Each entry must be an object with a string ``incident_id``; any other
    shape raises ``ConfigInvalid`` naming the file before a plan is yielded.
    """
    document = read_json(path)
    if not isinstance(document, dict):
        raise ConfigInvalid(f"{path.name}: probe document must be a JSON object with a 'plans' list")
    plans = document.get("plans", [])
    if not isinstance(plans, list):
        raise ConfigInvalid(f"{path.name}: 'plans' must be a list, got {plans!r}")
    for idx, plan in enumerate(plans):
        if not isinstance(plan, dict):
            raise ConfigInvalid(f"{path.name}: plans[{idx}] must be a JSON object, got {plan!r}")
        if not isinstance(plan.get("incident_id"), str):
            raise ConfigInvalid(f"{path.name}: plans[{idx}] needs a string 'incident_id'")
    for plan in plans:
        yield parse_proposal(
            plan, catalog, incident_id=plan["incident_id"], model_id="probe", arm="none", source=SOURCE_FIXTURE
        )


def cmd_activation_check(args: argparse.Namespace) -> int:
    policy = load_policy(
        _existing(args.catalog, "CatalogNotFound"),
        _existing(args.policy, "PolicyNotFound"),
    )
    corpus = load_corpus(_directory(args.corpus_dir, "CorpusNotFound"), policy.catalog)

    # Baselines, then proposals, then probes, each produced as it is checked.
    streams = []
    sources = args.plan_source
    if sources in ("baselines", "all"):
        streams.append(map(baseline_plan, corpus))
    if sources in ("proposals", "all"):
        if not args.proposals_dir:
            raise NamedCliError("ProposalsDirRequired", "plan source includes proposals")
        streams.append(iter_proposals(_directory(args.proposals_dir, "ProposalsNotFound"), policy.catalog))
    if sources in ("probes", "all"):
        if not args.probes:
            raise NamedCliError("ProbesRequired", "plan source includes probes")
        streams.append(_probe_plans(_existing(args.probes, "ProbesNotFound"), policy.catalog))

    report = activation_check(corpus, policy, chain.from_iterable(streams))
    output_dir = make_output_dir(args.output_dir)
    write_json(output_dir / "activation_report.json", report.to_json_obj())
    print(
        f"candidate surface: {report.candidate_actions} actions, {report.candidate_rules} rules; "
        f"activated {len(report.activated_rules)} rules; operators "
        f"{', '.join(report.repair_mode_coverage)}; max chain depth {report.max_chain_depth}"
    )
    return EXIT_OK


def cmd_make_fixtures(args: argparse.Namespace) -> int:
    from .fixtures import build_bundle

    dest = build_bundle(args.dest)
    print(f"fixture bundle written to {dest}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_eval_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file (flags override its fields)")
    parser.add_argument("--corpus-dir")
    parser.add_argument("--catalog")
    parser.add_argument("--policy")
    parser.add_argument("--mapping-rules")
    parser.add_argument("--proposals-dir")
    parser.add_argument("--output-dir")
    parser.add_argument("--approval-mode", choices=APPROVAL_MODES, default=None)
    parser.add_argument("--confidence", type=float, default=None)
    parser.add_argument("--rerun-label", default=None)
    parser.add_argument("--skip-gates", action="store_true")
    parser.add_argument("--privacy-patterns")
    parser.add_argument("--forbidden-terms")


@functools.cache  # built at the first main(); parse_args returns a fresh Namespace each call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planvet",
        description="Policy-compliance verification and paired evaluation "
                    "for incident-response action plans.",
    )
    parser.add_argument("--version", action="version", version=f"planvet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="enforce one proposal and print the typed trace")
    p.add_argument("proposal", help="proposal JSON file")
    p.add_argument("--catalog", required=True)
    p.add_argument("--policy", required=True)
    p.add_argument("--corpus-dir", required=True)
    p.add_argument("--incident-id", required=True)
    p.add_argument("--approval-mode", choices=APPROVAL_MODES, default=MODE_REMOVE)
    p.add_argument("--model", default="")
    p.add_argument("--arm", default="none")
    p.add_argument("--output", help="write the enforcement result JSON here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("evaluate", help="run the full corpus evaluation")
    _add_eval_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("audit", help="run the release gates over a corpus")
    p.add_argument("--corpus-dir", required=True)
    p.add_argument("--catalog", required=True)
    p.add_argument("--mapping-rules", required=True)
    p.add_argument("--privacy-patterns")
    p.add_argument("--forbidden-terms")
    p.add_argument("--output-dir", required=True)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("map", help="rerun task-to-action mapping over a corpus")
    p.add_argument("--corpus-dir", required=True)
    p.add_argument("--catalog", required=True)
    p.add_argument("--mapping-rules", required=True)
    p.add_argument("--output-dir", required=True)
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("contrast", help="paired contrasts over stored run metrics")
    p.add_argument("--metrics", required=True, help="metrics_runs.jsonl from an evaluation")
    p.add_argument("--family", required=True, help="JSON list of cell pairs")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_contrast)

    p = sub.add_parser("report", help="render markdown tables from evaluation outputs")
    p.add_argument("--output-dir", required=True)
    p.add_argument("--defer-dir", help="defer-mode output dir for the sensitivity table")
    p.add_argument("--out", help="report path (default <output-dir>/report.md)")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("activation-check", help="rule activation over a candidate policy surface")
    p.add_argument("--corpus-dir", required=True)
    p.add_argument("--catalog", required=True, help="candidate catalog")
    p.add_argument("--policy", required=True, help="candidate policy rules")
    p.add_argument("--plan-source", choices=("baselines", "proposals", "probes", "all"), default="all")
    p.add_argument("--proposals-dir")
    p.add_argument("--probes", help="probe plans JSON file")
    p.add_argument("--output-dir", required=True)
    p.set_defaults(func=cmd_activation_check)

    p = sub.add_parser("make-fixtures", help="materialize the shipped evaluation fixture bundle")
    p.add_argument("--dest", required=True)
    p.set_defaults(func=cmd_make_fixtures)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NamedCliError as exc:
        print(f"{exc.name}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except PlanvetError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except FileNotFoundError as exc:
        print(f"FileNotFound: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
