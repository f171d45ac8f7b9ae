"""Output correctness checks.

Two kinds. The fixture gate compares the SHA-256 of every file a command
writes for the 200-incident fixture bundle with the digests pinned in
``golden.json``. The scaled checks compare a scaled run's outputs with the
fixture run's: rates equal, counts ``replicas`` times larger. Each check
returns a list of problems; an empty list means the outputs are correct.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden.json")

# The only byte range of any output that may differ between identical runs.
GENERATED_AT = re.compile(rb'^\s*"generated_at": "[^"]*",?\n', re.MULTILINE)


def output_digests(directory: Path) -> dict[str, str]:
    """SHA-256 of every file under ``directory``; manifests without ``generated_at``."""
    digests = {}
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            data = GENERATED_AT.sub(b"", data)
        digests[path.relative_to(directory).as_posix()] = hashlib.sha256(data).hexdigest()
    return digests


def compare_digests(label: str, actual: dict[str, str], expected: dict[str, str]) -> list[str]:
    problems = [f"{label}: missing output {name}" for name in sorted(expected.keys() - actual.keys())]
    problems += [f"{label}: unexpected output {name}" for name in sorted(actual.keys() - expected.keys())]
    problems += [
        f"{label}: {name} differs from the pinned bytes"
        for name in sorted(expected.keys() & actual.keys())
        if actual[name] != expected[name]
    ]
    return problems


def load_golden() -> dict[str, dict[str, str]]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _expect(problems: list[str], label: str, actual, expected) -> None:
    if actual != expected:
        problems.append(f"{label}: got {actual!r}, expected {expected!r}")


def check_evaluate(out: Path, fixture_out: Path, replicas: int) -> list[str]:
    """Scaled ``evaluate`` outputs against the fixture run's; no run may fail."""
    problems: list[str] = []
    summary, base = read_json(out / "summary_r1.json"), read_json(fixture_out / "summary_r1.json")
    _expect(problems, "per-cell rates", summary["cells"], base["cells"])
    _expect(problems, "rule_totals", summary["rule_totals"],
            {rule: replicas * n for rule, n in base["rule_totals"].items()})
    for key in ("removed_total", "deferred_total", "llm_runs", "coverage_loss_runs"):
        _expect(problems, key, summary[key], replicas * base[key])
    runs, base_runs = (read_json(d / "manifest.json")["run_accounting"] for d in (out, fixture_out))
    for key in ("planned_llm_runs", "completed_llm_runs", "planned_baselines", "completed_baselines"):
        _expect(problems, key, runs[key], replicas * base_runs[key])
    _expect(problems, "failed_llm_runs", runs["failed_llm_runs"], 0)
    traces = sum(1 for _ in (out / "enforced").iterdir())
    _expect(problems, "enforcement traces written", traces,
            replicas * sum(1 for _ in (fixture_out / "enforced").iterdir()))
    return problems


def check_audit(out: Path, fixture_out: Path, replicas: int) -> list[str]:
    problems: list[str] = []
    report, base = read_json(out / "gate_report.json"), read_json(fixture_out / "gate_report.json")
    _expect(problems, "overall_pass", report["overall_pass"], True)
    _expect(problems, "parse_failures", report["parse_failures"], [])
    for key in ("privacy_finding_count", "unmatched_tasks", "ambiguous_tasks"):
        _expect(problems, key, report[key], replicas * base[key])
    _expect(problems, "approval_gaps", report["approval_gaps"], [
        dict(gap, baseline_occurrences=replicas * gap["baseline_occurrences"])
        for gap in base["approval_gaps"]
    ])
    return problems


def check_activation(out: Path, fixture_out: Path, replicas: int) -> list[str]:
    problems: list[str] = []
    report, base = read_json(out / "activation_report.json"), read_json(fixture_out / "activation_report.json")
    for key in ("activated_rules", "repair_mode_coverage", "max_chain_depth",
                "candidate_actions", "candidate_rules"):
        _expect(problems, key, report[key], base[key])
    _expect(problems, "plans_checked", report["plans_checked"], replicas * base["plans_checked"])
    return problems
