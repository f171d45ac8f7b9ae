"""Presentation rounding and the per-item record types.

The rounding fast path must match the Decimal rounding bit for bit.
"""

from __future__ import annotations

import json
import random
import struct
from decimal import ROUND_HALF_UP, Decimal, InvalidOperation

import pytest

from planvet.corpus import ApprovalEvidence, IncidentPackage, PackageFile, TaskRecord, TelemetryEvent
from planvet.engine import EnforcementResult, ViolationRecord
from planvet.mapping import MappedTask
from planvet.metrics import ROW_COLUMNS, RunOutcome, run_row
from planvet.plans import ProposedPlan
from planvet.util import present, round4


def _decimal_round4(value: float) -> float:
    """The plain Decimal half-up rounding that ``round4`` must reproduce."""
    return float(Decimal(repr(float(value))).quantize(Decimal("0.0001"), rounding=ROUND_HALF_UP))


def _outcome(rounding, value: float) -> bytes | str:
    """Bit pattern of the result, or the error for magnitudes Decimal cannot quantize."""
    try:
        return struct.pack(">d", rounding(value))
    except InvalidOperation:
        return "InvalidOperation"


def _sample_floats(rng: random.Random, count: int):
    for _ in range(count):
        kind = rng.randrange(5)
        if kind == 0:  # rates and means: ratios of small counts
            value = rng.randrange(0, 2000) / rng.randrange(1, 2000)
        elif kind == 1:  # already short: decimals the fast path takes
            value = round(rng.uniform(-1000, 1000), rng.randrange(0, 7))
        elif kind == 2:  # every magnitude, ties included
            value = rng.random() * 10.0 ** rng.randrange(-8, 20)
        elif kind == 3:  # exact 5-decimal ties such as 0.00005
            value = rng.randrange(0, 10**6) / 10**5
        else:  # arbitrary finite bit patterns
            value = struct.unpack(">d", rng.getrandbits(64).to_bytes(8, "big"))[0]
            if value != value or value in (float("inf"), float("-inf")):
                value = 0.0
        yield -value if rng.random() < 0.3 else value


def test_round4_matches_decimal_on_random_floats():
    rng = random.Random(20261017)
    mismatches = [
        value for value in _sample_floats(rng, 300_000)
        if _outcome(round4, value) != _outcome(_decimal_round4, value)
    ]
    assert mismatches == []


def test_round4_matches_decimal_on_edge_values():
    edges = [0.0, -0.0, 1e-05, -1e-05, 5e-05, 0.1 + 0.2, 0.00015, 2.00005, 1e16, 1.5e16,
             123456789012345678.0, 9007199254740993.0, 1e300, 5e-324, 0.9999, 0.99995, 1, 7]
    for value in edges:
        assert _outcome(round4, value) == _outcome(_decimal_round4, value), value


def test_run_row_serializes_as_present(official_eval, defer_eval):
    for evaluation in (official_eval, defer_eval):
        for run in [*evaluation.runs, *evaluation.baseline_runs]:
            row = {name: getattr(run, name) for name in ROW_COLUMNS}
            assert run_row(run) == json.dumps(present(row), sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Record types: one per run, package or file, so each is slotted
# ---------------------------------------------------------------------------

RECORD_TYPES = [
    ProposedPlan, IncidentPackage, TelemetryEvent, ApprovalEvidence, TaskRecord,
    PackageFile, ViolationRecord, EnforcementResult, RunOutcome, MappedTask,
]


@pytest.mark.parametrize("record_type", RECORD_TYPES, ids=lambda cls: cls.__name__)
def test_record_type_is_slotted(record_type):
    assert "__slots__" in vars(record_type)
    assert record_type.__dictoffset__ == 0  # instances carry no __dict__
