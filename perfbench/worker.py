"""One benchmark worker: a fresh Python process that imports planvet and runs CLI calls.

Usage: python3 perfbench/worker.py JOB.json RESULT.json

The job names the checkout's ``src`` directory, the CLI argument lists to
run in order through ``planvet.cli.main``, whether to trace, and for
``verify`` calls the requests and bundle whose library results each call
must match. The result records import time, per-call wall time and exit code, peak RSS,
and when traced the span summary and counters.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

VIOLATION_PREFIX = "violation: "


def verify_problems(job: dict, calls: list[dict]) -> list[str]:
    """Compare each ``verify`` call with the library ``enforce`` result."""
    from planvet import enforce, load_corpus, load_policy, parse_proposal

    bundle = Path(job["bundle"])
    policy = load_policy(bundle / "catalog.json", bundle / "policy.json")
    corpus = load_corpus(bundle / "corpus", policy.catalog)
    problems = []
    for request, call in zip(job["requests"], calls):
        plan = parse_proposal(
            Path(request["proposal"]).read_text(encoding="utf-8"),
            policy.catalog,
            incident_id=request["incident_id"],
        )
        result = enforce(plan, policy, corpus.get(request["incident_id"]), request["mode"])
        expected_rc = 3 if result.hard_violations() else 0
        expected = [
            f"{VIOLATION_PREFIX}{v.rule_id}/{v.violation_type} {v.repair} "
            f"{v.action_id}@{v.position} [{v.severity}]"
            for v in result.violations
        ]
        printed = [line for line in call["stdout"].splitlines() if line.startswith(VIOLATION_PREFIX)]
        enforced = f"enforced:  {' '.join(result.enforced_actions) or '(empty)'}"
        if call["rc"] != expected_rc or printed != expected or enforced not in call["stdout"].splitlines():
            call["ok"] = False
            problems.append(
                f"verify {Path(request['proposal']).name} ({request['mode']}): exit {call['rc']} "
                f"and {printed} differ from library exit {expected_rc} and {expected}"
            )
    return problems


def main(job_path: str, result_path: str) -> None:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))

    start = perf_counter()
    import planvet
    import planvet.cli
    setup_s = perf_counter() - start

    if not Path(planvet.__file__).resolve().is_relative_to(src):
        error = f"imported planvet from {planvet.__file__}, not from {src}"
        Path(result_path).write_text(json.dumps({"error": error}), encoding="utf-8")
        return

    tracer = None
    if job.get("trace"):
        from tracing import ROOT_SPAN, Tracer

        tracer = Tracer()
        tracer.install()

    result: dict = {"setup_s": setup_s, "calls": []}
    for argv in job.get("calls", []):
        out = io.StringIO()
        error = None
        with contextlib.redirect_stdout(out):
            start = perf_counter()
            span = tracer.begin(ROOT_SPAN) if tracer else None
            try:
                rc = planvet.cli.main(argv)
            except Exception:  # reported as a failed call, never hidden
                rc, error = None, traceback.format_exc()
            finally:
                if tracer:
                    tracer.end(span)
            wall_s = perf_counter() - start
        result["calls"].append({"wall_s": wall_s, "rc": rc, "stdout": out.getvalue(),
                                "error": error, "ok": error is None})

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()
        result["spans"] = tracer.summary()
        result["counts"] = dict(tracer.counts)
        result["missing"] = tracer.missing
    if "requests" in job:
        result["problems"] = verify_problems(job, result["calls"])
    for call in result["calls"]:
        del call["stdout"]
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
