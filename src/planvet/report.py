"""Markdown report rendering.

Reports are pure views over the JSON outputs of an evaluation run: every
number in a rendered table exists in a JSON file first, nothing is
recomputed here.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from .errors import ParseError
from .util import make_output_dir, read_json, round4, write_text


def _fmt(value, decimals: int = 4) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{round4(value):.{decimals}f}"
    return str(value)


def _fmt_p(p: float | None) -> str:
    if p is None:
        return "-"
    # Serialized p-values are presentation-rounded; an exact zero means the
    # true value was below the 4-decimal floor.
    if p == 0.0:
        return "<0.0001"
    return f"{p:.4f}"


def _cell_label(model_id: str, arm: str) -> str:
    arm_label = {"llm_zero": "zero", "llm_policy_prompt": "policy"}.get(arm, arm)
    return f"{model_id} / {arm_label}" if model_id else arm_label


def _table(headers: list[str], rows: list[list[str]]) -> str:
    lines = [
        "| " + " | ".join(headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    lines.extend("| " + " | ".join(row) + " |" for row in rows)
    return "\n".join(lines)


def _section(title: str, headers: list[str], rows: list[list[str]]) -> list[str]:
    return [f"## {title}", "", _table(headers, rows), ""]


@contextmanager
def _reading(name: str):
    """Turn a lookup that fails on a document of the wrong shape into ``ParseError`` naming it."""
    try:
        yield
    except (LookupError, TypeError, AttributeError, ValueError, ArithmeticError) as exc:
        raise ParseError(f"{name}: wrong document shape: {type(exc).__name__}: {exc}") from None


def _outcome_row(label: str, cell: dict | None) -> list[str]:
    if cell is None:  # a cell with no completed runs
        return [label, "0", *["-"] * 6]
    return [
        label,
        str(cell["n_runs"]),
        _fmt(cell["violation_rate"]),
        f"[{_fmt(cell['wilson_low'])}, {_fmt(cell['wilson_high'])}]",
        _fmt(cell["hard_per_run"]),
        _fmt(cell["edit_rate"]),
        _fmt(cell["mean_coverage"]),
        _fmt(cell["mean_delta_jaccard"]),
    ]


def render_report(output_dir: Path | str, defer_dir: Path | str | None = None) -> str:
    """Render evaluation tables from an output directory (plus an optional
    defer-mode directory for the approval-sensitivity view)."""
    output_dir = Path(output_dir)
    cells_doc = read_json(output_dir / "cell_summaries.json")
    contrasts_doc = read_json(output_dir / "contrasts.json")
    manifest = read_json(output_dir / "manifest.json")
    stability = read_json(output_dir / "stability.json")
    with _reading("manifest.json"):
        failed = Counter((run["model_id"], run["arm"]) for run in manifest.get("run_accounting", {}).get("failures", ()))
    with _reading("stability.json"):
        no_coverage_loss = stability.get("coverage_loss_runs", 0) == 0

    sections = ["# Evaluation report", ""]

    # -- outcomes by model and arm -------------------------------------------
    with _reading("cell_summaries.json"):
        rows = [_outcome_row(_cell_label(c["model_id"], c["arm"]), c) for c in cells_doc["cells"]]
        rows.append(_outcome_row("human baseline", cells_doc["baseline"]))
        headers = ["Cell", "Runs", "Violation rate", "95% Wilson", "Hard/run", "Edit rate", "Coverage", "dJaccard"]
        sections += _section("Outcomes by model and arm", headers, rows)

    # -- paired contrasts ------------------------------------------------------
    with _reading("contrasts.json"):
        rows = []
        for contrast in contrasts_doc["contrasts"]:
            label = f"{_cell_label(*contrast['cell_a'])} vs {_cell_label(*contrast['cell_b'])}"
            rows.append([label, str(contrast["n_pairs"]), f"{contrast['delta_rate']:+.4f}",
                         _fmt_p(contrast["mcnemar_p"]), _fmt_p(contrast["holm_p"]), f"{contrast['cohens_h']:+.4f}"])
        headers = ["Contrast", "n", "Delta rate", "McNemar p", "Holm p", "Cohen's h"]
        sections += _section("Paired contrasts", headers, rows)

    # -- rule burden -----------------------------------------------------------
    with _reading("cell_summaries.json"):
        rule_ids = sorted({r for c in cells_doc["cells"] for r in c["rule_counts"]})
        rows = []
        for cell in cells_doc["cells"]:
            n, f = cell["n_runs"], failed[cell["model_id"], cell["arm"]]
            counts = [str(cell["rule_counts"].get(r, 0)) for r in rule_ids]
            rows.append([_cell_label(cell["model_id"], cell["arm"]), f"{n}/{n + f}", *counts, str(f)])
        sections += _section("Rule burden by cell", ["Cell", "Complete", *rule_ids, "Failures"], rows)

        # -- rule-level treatment rates -------------------------------------------
        by_key = {(c["model_id"], c["arm"]): c for c in cells_doc["cells"]}
        models = sorted({m for m, _ in by_key})
        rows = []
        for model in models:
            zero = by_key.get((model, "llm_zero"))
            policy = by_key.get((model, "llm_policy_prompt"))
            if not zero or not policy:
                continue
            for rule in rule_ids:
                z = zero["rule_rates"].get(rule, 0.0)
                p = policy["rule_rates"].get(rule, 0.0)
                rows.append([f"{model} / {rule}", _fmt(z), _fmt(p), f"{p - z:+.4f}", str(zero["n_runs"])])
        headers = ["Model/rule", "Zero", "Policy", "Delta", "Runs"]
        sections += _section("Rule-level treatment rates (zero vs policy arm)", headers, rows)

        # -- approval deferral sensitivity ----------------------------------------
        if defer_dir is not None:
            defer_doc = read_json(Path(defer_dir) / "cell_summaries.json")
            defer_by_key = {(c["model_id"], c["arm"]): c for c in defer_doc["cells"]}
            rows = []
            for key, cell in by_key.items():
                defer_cell = defer_by_key.get(key)
                if defer_cell is None:
                    continue
                rows.append(
                    [
                        _cell_label(*key),
                        str(defer_cell["deferred_total"]),
                        f"{_fmt(cell['mean_precision_enforced'], 3)}/{_fmt(defer_cell['mean_precision_enforced'], 3)}",
                        f"{_fmt(cell['mean_jaccard_enforced'], 3)}/{_fmt(defer_cell['mean_jaccard_enforced'], 3)}",
                        "none" if no_coverage_loss and defer_cell["mean_coverage"] >= cell["mean_coverage"] else "see metrics",
                    ]
                )
            headers = ["Cell", "Deferred", "Precision remove/defer", "Jaccard remove/defer", "Coverage loss"]
            sections += _section("Approval deferral sensitivity", headers, rows)

    # -- stability --------------------------------------------------------------
    with _reading("stability.json"):
        sections += [
            "## Rerun stability",
            "",
            f"Reruns: {stability['n_reruns']} ({', '.join(stability['labels'])}); "
            f"coverage-loss runs: {stability['coverage_loss_runs']}.",
            "",
        ]
        bands = stability["quantities"]
        interesting = [k for k in bands if k.endswith("violation_rate") or k.startswith("rule_totals")]
        rows = [[k, _fmt(bands[k]["min"]), _fmt(bands[k]["max"])] for k in sorted(interesting)]
        if rows:
            sections += [_table(["Quantity", "Min", "Max"], rows), ""]

    return "\n".join(sections)


def write_report(output_dir: Path | str, defer_dir: Path | str | None = None,
                 out_path: Path | str | None = None) -> Path:
    output_dir = Path(output_dir)
    text = render_report(output_dir, defer_dir)
    target = Path(out_path) if out_path else output_dir / "report.md"
    make_output_dir(target.parent)
    write_text(target, text + "\n")
    return target
