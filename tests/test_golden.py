"""Fixture ``evaluate`` outputs against the digests pinned in ``perfbench/golden.json``.

The benchmark gate checks the same pins on one Python version; this test
checks them on every version the tier-1 suite runs on. It runs each command
with the argv the benchmark uses and compares digests the way its checks do
(``manifest.json`` without its ``generated_at`` line).
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from planvet.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("command", ["evaluate", "evaluate_defer"])
def test_evaluate_outputs_match_pinned_digests(bundle, tmp_path, command):
    run, checks = _perfbench_module("run"), _perfbench_module("checks")
    out = tmp_path / command
    assert main(run.command_argv(command, bundle, out)) == 0
    expected = checks.load_golden()[command]
    assert checks.compare_digests(command, checks.output_digests(out), expected) == []
