"""Statistics primitives against hand-derived oracles, plus metric identities."""

from __future__ import annotations

import gc
import json
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planvet.catalog import ActionCatalog, ActionEntry, PolicyRule, validate_policy
from planvet.corpus import IncidentPackage
from planvet import pipeline
from planvet.engine import EDIT_OPERATORS, MODE_REMOVE, EnforcementResult, ViolationRecord, enforce_actions
from planvet.errors import DomainError, EmptyCell, IncidentMismatch, KeyMismatch
from planvet.metrics import (
    RunOutcome,
    aggregate,
    cohens_h,
    holm_adjust,
    mcnemar_exact,
    paired_contrast,
    run_outcome,
    run_row,
    stability_report,
    wilson_interval,
)
from planvet.pipeline import RunConfig, evaluate
from planvet.plans import ProposedPlan
from planvet.util import present, round4


class TestWilson:
    def test_zero_successes_golden(self):
        low, high = wilson_interval(0, 200, 0.95)
        assert low == 0.0
        assert round4(high) == 0.0188

    def test_72_of_200_golden(self):
        low, high = wilson_interval(72, 200, 0.95)
        assert (round4(low), round4(high)) == (0.2967, 0.4286)

    def test_all_successes_saturates(self):
        low, high = wilson_interval(17, 17, 0.95)
        assert high == 1.0
        low99, high99 = wilson_interval(17, 17, 0.99)
        assert high99 == 1.0

    def test_nesting_in_confidence(self):
        inner = wilson_interval(50, 200, 0.90)
        outer = wilson_interval(50, 200, 0.99)
        assert outer[0] <= inner[0] and inner[1] <= outer[1]

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            wilson_interval(1, 0, 0.95)
        with pytest.raises(DomainError):
            wilson_interval(5, 3, 0.95)


class TestCohensH:
    def test_main_effect_golden(self):
        assert abs(cohens_h(0.87, 0.36) - 1.1169) <= 0.0005

    def test_small_effect_golden(self):
        assert abs(cohens_h(0.47, 0.54) - (-0.1401)) <= 0.0005

    def test_identical_proportions(self):
        assert cohens_h(0.3, 0.3) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0, 1), st.floats(0, 1))
    def test_antisymmetry(self, p1, p2):
        assert math.isclose(cohens_h(p1, p2), -cohens_h(p2, p1), abs_tol=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            cohens_h(-0.1, 0.5)


class TestMcNemar:
    def test_no_discordance(self):
        assert mcnemar_exact(0, 0) == 1.0

    def test_hand_summed_binomial_tail(self):
        # oracle: 2 * (C(12,0) + C(12,1) + C(12,2)) / 2**12 = 158/4096
        expected = 2 * (1 + 12 + 66) / 4096
        assert abs(mcnemar_exact(10, 2) - expected) < 1e-12
        assert abs(mcnemar_exact(10, 2) - 0.0386) <= 0.0001

    def test_symmetric_in_arguments(self):
        assert mcnemar_exact(10, 2) == mcnemar_exact(2, 10)

    def test_large_separation_below_threshold(self):
        assert mcnemar_exact(30, 2) < 0.0001

    def test_capped_at_one(self):
        assert mcnemar_exact(5, 5) == 1.0


class TestHolm:
    def test_hand_derived_case(self):
        assert [round4(p) for p in holm_adjust([0.01, 0.04, 0.03])] == [0.03, 0.06, 0.06]

    def test_single_value_unchanged(self):
        assert holm_adjust([0.2]) == [0.2]

    def test_largest_of_six_keeps_raw_value(self):
        # family where the largest raw p is 0.0056: its Holm p stays 0.0056
        raw = [1e-9, 1e-9, 1e-9, 0.0003, 1e-9, 0.0056]
        adjusted = holm_adjust(raw)
        assert round4(adjusted[5]) == 0.0056
        assert round4(adjusted[3]) == 0.0006

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0, 1), min_size=1, max_size=8))
    def test_pointwise_dominance_and_monotone(self, ps):
        adjusted = holm_adjust(ps)
        assert all(a >= p for a, p in zip(adjusted, ps))
        assert all(0 <= a <= 1 for a in adjusted)
        resorted = [a for _, a in sorted(zip(ps, adjusted))]
        assert resorted == sorted(resorted)


def _plan(incident, actions, model="m", arm="llm_zero", source="llm_proposal"):
    return ProposedPlan(incident_id=incident, source=source, model_id=model,
                        arm=arm, actions=tuple(actions))


def _enforce_for(raw_actions, gated=(), approved=()):
    ids = ("collect_forensics", "restore_host", "isolate_host")
    catalog = ActionCatalog(
        tuple(ActionEntry(i, i, approval_gate=(i in gated), reversible=True,
                          baseline_support=False) for i in ids)
    )
    rules = [
        PolicyRule(f"q{i}", "require_approval", g, "hard", "remove")
        for i, g in enumerate(gated)
    ]
    policy = validate_policy(catalog, rules)
    incident = IncidentPackage(
        incident_id="inc_x", category="malware", severity="high",
        asset_criticality="tier-1", phase_id="Complete", telemetry=(),
        case_metadata={}, mapped_human_actions=(), approvals=(),
    )
    from planvet.corpus import ApprovalEvidence
    from dataclasses import replace

    incident = replace(incident, approvals=tuple(ApprovalEvidence(a, "t") for a in approved))
    return enforce_actions(raw_actions, policy, incident, MODE_REMOVE)


class TestRunMetrics:
    def test_set_arithmetic_example(self):
        # raw {restore, forensics} vs baseline {forensics}: removal of the
        # unapproved restore lifts precision 0.5 -> 1.0 and jaccard 0.5 -> 1.0
        raw = _plan("inc_x", ["restore_host", "collect_forensics"])
        result = _enforce_for(["restore_host", "collect_forensics"], gated=("restore_host",))
        baseline = _plan("inc_x", ["collect_forensics"], model="", arm="none", source="human_baseline")
        metrics = run_outcome(raw, result, baseline)
        assert metrics.precision_raw == 0.5
        assert metrics.precision_enforced == 1.0
        assert metrics.jaccard_raw == 0.5
        assert metrics.jaccard_enforced == 1.0
        assert metrics.delta_jaccard == 0.5
        assert metrics.coverage == 1.0
        assert metrics.llm_only_actions == ("restore_host",)

    def test_identity_run(self):
        raw = _plan("inc_x", ["collect_forensics"])
        result = _enforce_for(["collect_forensics"])
        baseline = _plan("inc_x", ["collect_forensics"], model="", arm="none")
        metrics = run_outcome(raw, result, baseline)
        assert metrics.coverage == 1.0
        assert metrics.jaccard_enforced == 1.0
        assert metrics.delta_jaccard == 0.0
        assert metrics.violated is False

    def test_empty_set_conventions(self):
        raw = _plan("inc_x", [])
        result = _enforce_for([])
        baseline = _plan("inc_x", [], model="", arm="none")
        metrics = run_outcome(raw, result, baseline)
        assert metrics.coverage == 1.0
        assert metrics.precision_raw == 1.0
        assert metrics.jaccard_enforced == 1.0

    def test_incident_mismatch(self):
        raw = _plan("inc_x", [])
        result = _enforce_for([])
        with pytest.raises(IncidentMismatch):
            run_outcome(raw, result, _plan("inc_y", [], model="", arm="none"))


def reference_run_metrics(raw, result, baseline):
    """The 17 run-row fields by name, each ratio computed from the sets themselves.

    Kept as the oracle for the ``RunOutcome`` properties derived from a run's
    counts, and for the columns ``run_row`` writes.
    """
    def ratio(numerator, denominator, *, empty):
        return numerator / denominator if denominator else empty

    raw_set = set(raw.actions)
    base_set = set(baseline.actions)
    enforced_set = set(result.enforced_actions)

    coverage = ratio(len(enforced_set & base_set), len(base_set), empty=1.0)
    precision_raw = ratio(len(raw_set & base_set), len(raw_set), empty=1.0)
    precision_enforced = ratio(len(enforced_set & base_set), len(enforced_set), empty=1.0)
    jaccard_raw = ratio(len(raw_set & base_set), len(raw_set | base_set), empty=1.0)
    jaccard_enforced = ratio(len(enforced_set & base_set), len(enforced_set | base_set), empty=1.0)

    hard = result.hard_violations()
    soft = len(result.violations) - hard
    by_rule = Counter(v.rule_id for v in result.violations)

    return {
        "incident_id": raw.incident_id,
        "model_id": raw.model_id,
        "arm": raw.arm,
        "violated": (hard + soft) >= 1,
        "hard_count": hard,
        "soft_count": soft,
        "violations_by_rule": dict(by_rule),
        "edit_counts": dict(result.edit_counts),
        "modified": result.modified,
        "coverage": coverage,
        "precision_raw": precision_raw,
        "precision_enforced": precision_enforced,
        "jaccard_raw": jaccard_raw,
        "jaccard_enforced": jaccard_enforced,
        "delta_jaccard": jaccard_enforced - jaccard_raw,
        "llm_only_actions": tuple(sorted(raw_set - base_set)),
        "baseline_only_actions": tuple(sorted(base_set - raw_set)),
    }


def reference_lost_coverage(plan, result, baseline):
    """The coverage-loss test on float coverages, as the pipeline made it."""
    base = set(baseline.actions)
    if not base:
        return False
    raw_cov = len(set(plan.actions) & base) / len(base)
    enforced_cov = len(set(result.enforced_actions) & base) / len(base)
    return enforced_cov < raw_cov


_ACTIONS = st.lists(st.sampled_from(("a", "b", "c", "d", "e")), max_size=8)
_VIOLATIONS = st.lists(
    st.builds(
        lambda rule, severity: ViolationRecord(rule, "require_approval", "approval_required", "a", 0, "remove", severity),
        st.sampled_from(("R1", "R2", "R3")),
        st.sampled_from(("hard", "soft")),
    ),
    max_size=6,
)
_EDIT_COUNTS = st.fixed_dictionaries({op: st.integers(0, 5) for op in EDIT_OPERATORS})


class TestRunOutcome:
    @settings(max_examples=1000, deadline=None)
    @given(raw=_ACTIONS, enforced=_ACTIONS, base=_ACTIONS, violations=_VIOLATIONS,
           edit_counts=_EDIT_COUNTS, modified=st.booleans())
    def test_derived_metrics_equal_set_based_reference(self, raw, enforced, base, violations, edit_counts, modified):
        raw_plan = _plan("inc_x", raw)
        base_plan = _plan("inc_x", base, model="", arm="none", source="human_baseline")
        result = EnforcementResult(tuple(enforced), tuple(violations), modified, edit_counts, MODE_REMOVE)
        expected = reference_run_metrics(raw_plan, result, base_plan)
        outcome = run_outcome(raw_plan, result, base_plan)
        for name, value in expected.items():
            assert getattr(outcome, name) == value, name
        assert json.loads(run_row(outcome)) == present(expected)
        assert outcome.lost_coverage == reference_lost_coverage(raw_plan, result, base_plan)


def _alive_run_outcomes() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is RunOutcome)


class TestWorkingSet:
    def test_evaluate_holds_no_run_metrics(self, bundle, tmp_path, monkeypatch):
        """Each run is held once, as its ``RunOutcome``: 800 LLM runs and 200 baselines."""
        write_outputs = pipeline._write_outputs
        alive_at_write = []

        def counted(*args, **kwargs):
            alive_at_write.append(_alive_run_outcomes())
            return write_outputs(*args, **kwargs)

        monkeypatch.setattr(pipeline, "_write_outputs", counted)
        before = _alive_run_outcomes()
        result = evaluate(RunConfig.from_json(bundle / "config.json", output_dir=str(tmp_path / "out")))
        assert alive_at_write == [before + 1000]
        assert len(result.runs) == result.completed == 800
        assert len(result.baseline_runs) == 200


class TestAggregate:
    def test_empty_cell(self):
        with pytest.raises(EmptyCell):
            aggregate([])

    def test_empty_iterable(self):
        with pytest.raises(EmptyCell):
            aggregate(run for run in ())

    def test_mixed_cells_raise(self, official_eval):
        first = official_eval.runs[0]
        other = next(run for run in official_eval.runs if run.arm != first.arm)
        with pytest.raises(ValueError, match="needs a single cell"):
            aggregate(run for run in (first, other))

    def test_generator_equals_list_in_every_fixture_cell(self, official_eval, defer_eval):
        for evaluation in (official_eval, defer_eval):
            confidence = evaluation.config.confidence
            grouped = {}
            for run in evaluation.runs:
                grouped.setdefault((run.model_id, run.arm), []).append(run)
            assert grouped.keys() == evaluation.cells.keys()
            for cell, runs in grouped.items():
                from_list = aggregate(runs, confidence)
                assert aggregate((run for run in runs), confidence) == from_list
                assert from_list == evaluation.cells[cell]
            baselines = list(evaluation.baseline_runs)
            assert aggregate(iter(baselines), confidence) == aggregate(baselines, confidence) == evaluation.baseline_cell

    def test_single_clean_run(self):
        raw = _plan("inc_x", ["collect_forensics"])
        result = _enforce_for(["collect_forensics"])
        baseline = _plan("inc_x", ["collect_forensics"], model="m", arm="llm_zero")
        cell = aggregate([run_outcome(raw, result, baseline)])
        assert cell.violation_rate == 0.0
        assert cell.hard_per_run == 0.0
        assert cell.edit_rate == 0.0
        assert cell.n_runs == 1


class TestPairedContrast:
    def test_three_incident_toy(self):
        a = {"i1": True, "i2": True, "i3": False}
        b = {"i1": True, "i2": False, "i3": False}
        contrast = paired_contrast(a, b, ("m", "x"), ("m", "y"))
        assert contrast.discordant_b == 1
        assert contrast.discordant_c == 0
        assert abs(contrast.delta_rate - 1 / 3) < 1e-12

    def test_identical_outcomes(self):
        a = {"i1": True, "i2": False}
        contrast = paired_contrast(a, dict(a))
        assert contrast.delta_rate == 0.0
        assert contrast.mcnemar_p == 1.0
        assert contrast.cohens_h == 0.0

    def test_key_mismatch(self):
        with pytest.raises(KeyMismatch):
            paired_contrast({"i1": True}, {"i2": True})


class TestCellInvariants:
    """Identities the official fixture evaluation must satisfy per cell."""

    def test_rule_counts_dominate_rate_products(self, official_eval):
        for cell in official_eval.cells.values():
            for rule, rate in cell.rule_rates.items():
                assert cell.rule_counts[rule] >= cell.n_runs * rate - 1e-9

    def test_edit_rate_equals_violation_rate_under_hard_repair(self, official_eval):
        # every active rule is hard and every violation is repaired, so the
        # modified predicate coincides with the violated predicate
        for cell in official_eval.cells.values():
            assert cell.edit_rate == cell.violation_rate

    def test_enforcement_raises_precision_in_every_cell(self, official_eval):
        for cell in official_eval.cells.values():
            assert cell.mean_precision_enforced >= cell.mean_precision_raw

    def test_delta_jaccard_positive_in_every_cell(self, official_eval):
        for cell in official_eval.cells.values():
            assert cell.mean_delta_jaccard > 0.0


class TestStabilityReport:
    def test_single_rerun_min_equals_max(self):
        report = stability_report([{"rate": 0.87, "coverage_loss_runs": 0}], ["r1"])
        assert report.band("rate") == (0.87, 0.87)
        assert report.coverage_loss_runs == 0

    def test_synthetic_perturbation_bands(self):
        # perturbation oracle: bands are the elementwise min/max of the inputs
        summaries = [
            {"cells": {"c|p": {"violation_rate": 0.8700}}, "rule_totals": {"R3": 431, "R4": 35},
             "coverage_loss_runs": 0},
            {"cells": {"c|p": {"violation_rate": 0.8750}}, "rule_totals": {"R3": 422, "R4": 35},
             "coverage_loss_runs": 0},
            {"cells": {"c|p": {"violation_rate": 0.8725}}, "rule_totals": {"R3": 435, "R4": 35},
             "coverage_loss_runs": 1},
        ]
        report = stability_report(summaries, ["r1", "r2", "r3"])
        assert report.band("cells/c|p/violation_rate") == (0.87, 0.875)
        assert report.band("rule_totals/R3") == (422.0, 435.0)
        assert report.band("rule_totals/R4") == (35.0, 35.0)
        assert report.coverage_loss_runs == 1
        assert report.n_reruns == 3
