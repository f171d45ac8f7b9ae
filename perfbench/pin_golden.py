"""Pin the fixture bundle's output digests in golden.json.

Run from the repository root, only at a commit whose outputs are known to
be right (the digests first came from the seed commit):

    python3 perfbench/pin_golden.py

A change that alters output bytes on purpose re-pins in the same change and
says why.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys

from checks import GOLDEN, output_digests
from run import SRC, WORK, WORKLOADS, Run, command_argv

COMMANDS = ("evaluate", "evaluate_defer", "audit", "activation")


def main() -> int:
    work = WORK / f"pin-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        sys.path.insert(0, str(SRC))
        from planvet.fixtures import build_bundle

        fixture = build_bundle(work / "fixture")
        outs = [work / "out" / command for command in COMMANDS]
        run = Run(WORKLOADS["evaluate_2k"], 0, work)
        result = run.worker({"calls": [command_argv(c, fixture, out) for c, out in zip(COMMANDS, outs)]})
        codes = [call["rc"] for call in result["calls"]]
        if run.problems or codes != [0] * len(COMMANDS):
            print(f"not pinned: exit codes {codes}, {run.problems}", file=sys.stderr)
            return 1
        golden = {command: output_digests(out) for command, out in zip(COMMANDS, outs)}
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"pinned {sum(map(len, golden.values()))} digests in {GOLDEN}")
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still be using it
            WORK.rmdir()


if __name__ == "__main__":
    sys.exit(main())
