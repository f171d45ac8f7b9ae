"""Record a trajectory point: every workload over ten seeds, plus one traced run.

Run from the repository root:

    python3 perfbench/record.py LABEL

Writes ``perfbench/trajectory/LABEL.json`` with, per workload, each
end-to-end metric's ten values, median, quartiles and spread (quartile
distance over the median, as ``statistics.quantiles(values, n=4)`` gives
them) and the per-layer metrics of one ``--trace 1`` run. Takes about 20
minutes; exits 1 if any run fails or reports incorrect outputs.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n"
                         f"{proc.stdout[-3000:]}{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main(label: str) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = config["run_seconds"]
    point = {
        "label": label,
        "run_seconds": seconds,
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "workloads": {},
    }
    for workload in (w["name"] for w in config["workloads"]):
        runs = [bench(workload, seed, seconds, 0) for seed in SEEDS]
        metrics = {
            name: summarize([run["metrics"][name]["value"] for run in runs])
            for name in runs[0]["metrics"]
        }
        traced = bench(workload, SEEDS[0], seconds, 1)
        point["workloads"][workload] = {
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "end_to_end": metrics,
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
        for name, m in metrics.items():
            print(f"{workload:<14} {name:<12} median {m['median']:.4f} spread {m['spread']:.4f}", flush=True)
    out = HERE / "trajectory" / f"{label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(point, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
