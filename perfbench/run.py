"""planvet benchmark: CLI workloads with end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload evaluate_2k --seed 1 --seconds 15 --trace 0

Each sample is a fresh Python process (``worker.py``) that imports planvet
from ``src/`` and calls ``planvet.cli.main``, so import time and peak RSS
belong to that sample. A run

1. builds the fixture bundle and, from ``--seed``, a scaled copy of it;
2. runs the workload's commands on the fixture bundle and compares every
   output file with the digests pinned in ``golden.json``;
3. runs one untimed warm-up worker, then timed workers back to back (one
   client, closed loop) for ``--seconds`` and at least ``MIN_WORKERS``;
4. checks the outputs of every call against the fixture run's;
5. prints a table, then one JSON line: end-to-end metrics with
   ``--trace 0``; with ``--trace 1`` per-layer metrics from traced workers
   alternated with untraced ones, whose difference is the tracing overhead.

The exit code is 0 only if every output is correct. NOTES.md explains the
workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_WORKERS = 3       # timed workers per run, however long each takes
SETUP_WORKERS = 5     # extra import-only workers per run, for setup_s
VERIFY_CALLS = 100    # verify requests per worker
DEADLINE_S = 170      # a run never outlives the 180 s limit
MODES = ("remove", "defer_to_human_approval")


@dataclass(frozen=True)
class Workload:
    command: str               # a command_argv name, or "verify"
    replicas: int              # scaled corpus = replicas x 200 incidents
    gate: tuple[str, ...]      # fixture commands whose outputs are pinned


WORKLOADS = {
    "evaluate_2k": Workload("evaluate", 10, ("evaluate", "evaluate_defer")),
    "audit_2k": Workload("audit", 10, ("audit",)),
    "activation_2k": Workload("activation", 10, ("activation",)),
    "verify_200": Workload("verify", 1, ()),
}


def command_argv(command: str, bundle: Path, out: Path) -> list[str]:
    if command in ("evaluate", "evaluate_defer"):
        return [
            "evaluate", "--config", f"{bundle}/config.json",
            "--privacy-patterns", f"{bundle}/privacy_patterns.json",
            "--forbidden-terms", f"{bundle}/forbidden_terms.txt",
            "--approval-mode", MODES[command == "evaluate_defer"],
            "--output-dir", str(out),
        ]
    if command == "audit":
        return [
            "audit", "--corpus-dir", f"{bundle}/corpus",
            "--catalog", f"{bundle}/catalog.json",
            "--mapping-rules", f"{bundle}/mapping_rules.json",
            "--privacy-patterns", f"{bundle}/privacy_patterns.json",
            "--forbidden-terms", f"{bundle}/forbidden_terms.txt",
            "--output-dir", str(out),
        ]
    if command == "activation":
        return [
            "activation-check", "--corpus-dir", f"{bundle}/corpus",
            "--catalog", f"{bundle}/richer/candidate_catalog.json",
            "--policy", f"{bundle}/richer/candidate_policy.json",
            "--plan-source", "all",
            "--proposals-dir", f"{bundle}/proposals",
            "--probes", f"{bundle}/richer/probe_plans.json",
            "--output-dir", str(out),
        ]
    raise ValueError(command)


def verify_argv(bundle: Path, request: dict) -> list[str]:
    return [
        "verify", request["proposal"],
        "--catalog", f"{bundle}/catalog.json",
        "--policy", f"{bundle}/policy.json",
        "--corpus-dir", f"{bundle}/corpus",
        "--incident-id", request["incident_id"],
        "--approval-mode", request["mode"],
    ]


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


class Run:
    """One benchmark run: its work directory, workers, and correctness ledger."""

    def __init__(self, workload: Workload, seed: int, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = perf_counter() + DEADLINE_S
        self.ids = itertools.count()
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.fixture_out: dict[str, Path] = {}
        self.verify_rng = random.Random(f"verify-{seed}")
        self.env = dict(os.environ, PYTHONHASHSEED="0")

    # -- workers -------------------------------------------------------------

    def worker(self, job: dict) -> dict:
        n = next(self.ids)
        job_path, result_path = self.work / f"job{n}.json", self.work / f"result{n}.json"
        job_path.write_text(json.dumps(dict(job, src=str(SRC))), encoding="utf-8")
        remaining = self.deadline - perf_counter()
        if remaining <= 0:
            raise BenchError(f"run exceeded {DEADLINE_S} s")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(job_path), str(result_path)],
                cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"run exceeded {DEADLINE_S} s") from None
        if proc.returncode != 0 or not result_path.exists():
            raise BenchError(f"worker exited {proc.returncode}: {proc.stderr[-3000:]}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        if "error" in result:
            raise BenchError(result["error"])
        for call in result["calls"]:
            if call["error"]:
                self.problems.append(f"call raised:\n{call['error']}")
        return result

    # -- inputs --------------------------------------------------------------

    def build_inputs(self) -> None:
        sys.path.insert(0, str(SRC))
        from planvet.fixtures import build_bundle
        from scaled import build_scaled

        self.fixture = build_bundle(self.work / "fixture")
        self.bundle = self.work / "scaled"
        build_scaled(self.fixture, self.bundle, self.workload.replicas, self.seed)
        self.proposals = sorted(p.name for p in (self.bundle / "proposals").iterdir())
        # Operations one call attempts: evaluate runs, audited packages, or
        # activation plans (baselines, proposals and probes).
        packages = sum(1 for _ in (self.bundle / "corpus").iterdir())
        probes = len(json.loads((self.bundle / "richer" / "probe_plans.json").read_text(encoding="utf-8"))["plans"])
        self.units = {
            "evaluate": packages + len(self.proposals),
            "audit": packages,
            "activation": packages + len(self.proposals) + probes,
        }.get(self.workload.command, 1)

    def verify_requests(self) -> list[dict]:
        rng = self.verify_rng
        requests = []
        for _ in range(VERIFY_CALLS):
            name = rng.choice(self.proposals)
            requests.append({
                "proposal": str(self.bundle / "proposals" / name),
                "incident_id": name.split("__")[0],
                "mode": rng.choice(MODES),
            })
        return requests

    # -- fixture gate ----------------------------------------------------------

    def fixture_gate(self) -> None:
        from checks import compare_digests, load_golden, output_digests

        gate = self.workload.gate
        if not gate:
            return
        golden = load_golden()
        outs = [self.work / "fixture_out" / name for name in gate]
        result = self.worker({"calls": [command_argv(name, self.fixture, out) for name, out in zip(gate, outs)]})
        for name, out, call in zip(gate, outs, result["calls"]):
            if call["rc"] != 0:
                self.problems.append(f"fixture {name}: exit {call['rc']}")
            self.problems += compare_digests(f"fixture {name}", output_digests(out), golden[name])
            self.fixture_out[name] = out

    # -- one sample ----------------------------------------------------------

    def sample(self, *, trace: bool) -> dict:
        """Run one worker of the workload, check its outputs, count the work."""
        command = self.workload.command
        if command == "verify":
            requests = self.verify_requests()
            result = self.worker({
                "calls": [verify_argv(self.bundle, request) for request in requests],
                "requests": requests, "bundle": str(self.bundle), "trace": trace,
            })
            self.problems += result.get("problems", [])
            self.attempted += len(result["calls"])
            self.failed += sum(not call["ok"] for call in result["calls"])
            return result

        out = self.work / "out" / str(next(self.ids))  # fresh and empty for every call
        result = self.worker({"calls": [command_argv(command, self.bundle, out)], "trace": trace})
        call = result["calls"][0]
        problems = [f"{command}: exit {call['rc']}"] if call["rc"] != 0 else []
        if not problems and not call["error"]:
            problems = self.check(out)
        self.problems += problems
        self.attempted += self.units
        self.failed += self.units if problems or call["error"] else 0
        shutil.rmtree(out, ignore_errors=True)
        return result

    def check(self, out: Path):
        from checks import check_activation, check_audit, check_evaluate

        command, r = self.workload.command, self.workload.replicas
        fixture = self.fixture_out[command]
        try:
            if command == "evaluate":
                return check_evaluate(out, fixture, r)
            if command == "audit":
                return check_audit(out, fixture, r)
            return check_activation(out, fixture, r)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            return [f"{command}: unreadable outputs: {type(exc).__name__}: {exc}"]


# ---------------------------------------------------------------------------
# Statistics and report
# ---------------------------------------------------------------------------

def percentile(values: list[float], p: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    return percentile(values, 25), percentile(values, 50), percentile(values, 75)


def per_call_wall(result: dict) -> float:
    return sum(call["wall_s"] for call in result["calls"]) / len(result["calls"])


def end_to_end(timed: list[dict], setups: list[float]) -> tuple[dict, list[str]]:
    walls = [call["wall_s"] for r in timed for call in r["calls"]]
    samples = {
        "setup_s": (setups, "s"),
        "wall_s": (walls, "s"),
        "peak_rss_mb": ([r["peak_rss_mb"] for r in timed], "MB"),
    }
    metrics, lines = {}, []
    for name, (values, unit) in samples.items():
        q1, q2, q3 = quartiles(values)
        metrics[name] = (q2, unit)
        lines.append(f"  {name:<14} {q2:12.4f} {unit:<3} q1 {q1:.4f}  q3 {q3:.4f}  n={len(values)}")
    if len(timed[0]["calls"]) > 1:  # verify: many requests per worker
        walls_ms = [wall * 1000 for wall in walls]
        for p in (50, 90):
            lines.append(f"  verify_p{p}_ms  {percentile(walls_ms, p):12.4f} ms  n={len(walls_ms)} calls")
    return metrics, lines


def per_layer(untraced: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    from tracing import layer_metrics

    rows = [layer_metrics(r["spans"], r["counts"], len(r["calls"])) for r in traced]
    metrics = {key: statistics.median(row[key] for row in rows) for key in rows[0]}
    traced_wall = statistics.median(per_call_wall(r) for r in traced)
    plain_wall = statistics.median(per_call_wall(r) for r in untraced)
    metrics.update({
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": plain_wall,
        "trace.overhead_s": traced_wall - plain_wall,
        "trace.overhead_frac": (traced_wall - plain_wall) / plain_wall,
    })
    units = {key: unit_of(key) for key in metrics}
    spans = traced[len(traced) // 2]
    calls = len(spans["calls"])
    lines = [f"  spans of one traced worker, per call ({calls} calls):",
             f"    {'span':<22}{'calls':>10}{'total_s':>12}{'self_s':>12}"]
    for name, row in sorted(spans["spans"].items(), key=lambda item: -item[1]["self_s"]):
        lines.append(f"    {name:<22}{row['calls'] / calls:>10.0f}{row['total_s'] / calls:>12.4f}"
                     f"{row['self_s'] / calls:>12.4f}")
    if spans["missing"]:
        lines.append(f"  not traced (absent in this version): {', '.join(spans['missing'])}")
    lines += [f"  {key:<32} {value:14.6f} {units[key]}" for key, value in metrics.items()]
    return {key: (value, units[key]) for key, value in metrics.items()}, lines


def unit_of(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("_frac"):
        return "ratio"
    if key.endswith("bytes_read") or key.endswith("bytes_written"):
        return "bytes"
    return "count"


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def measure(run: Run, seconds: int, trace: bool) -> tuple[dict, list[str]]:
    run.build_inputs()
    run.fixture_gate()
    run.sample(trace=False)  # warm-up: untimed, but its outputs are checked
    run.attempted = run.failed = 0
    wrong_before_timing = bool(run.problems)

    start = perf_counter()
    if trace:
        untraced, traced = [], []
        while not traced or perf_counter() - start < seconds:
            untraced.append(run.sample(trace=False))
            traced.append(run.sample(trace=True))
        result = per_layer(untraced, traced)
    else:
        timed = []
        while len(timed) < MIN_WORKERS or perf_counter() - start < seconds:
            timed.append(run.sample(trace=False))
        setups = [r["setup_s"] for r in timed]
        setups += [run.worker({})["setup_s"] for _ in range(SETUP_WORKERS)]
        result = end_to_end(timed, setups)
    if wrong_before_timing:  # the fixture gate or the warm-up failed its checks
        run.failed = run.attempted
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "planvet" / "__init__.py").is_file():
        print(f"perfbench: no planvet sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwind so workers are reaped

    work = WORK / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(WORKLOADS[args.workload], args.seed, work)
    try:
        metrics, lines = measure(run, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still be using it
            WORK.rmdir()

    correct = not run.problems
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{'correct' if correct else 'INCORRECT'}, failed_frac "
          f"{run.failed / run.attempted:.6f} ({run.failed}/{run.attempted})")
    print("\n".join(lines))
    for problem in run.problems[:20]:
        print(f"  problem: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
