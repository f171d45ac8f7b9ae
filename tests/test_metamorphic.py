"""Metamorphic relations: how the outputs must move when the inputs or the treatment move."""

from __future__ import annotations

import json
import shutil

import pytest

from planvet.engine import MODE_DEFER, MODE_REMOVE
from planvet.pipeline import RunConfig, evaluate

SUBSET = 20


@pytest.fixture(scope="module")
def subset_config(bundle, tmp_path_factory):
    """The fixture's run config over its first ``SUBSET`` incidents and their proposals."""
    root = tmp_path_factory.mktemp("subset")
    ids = sorted(path.stem for path in (bundle / "corpus").glob("*.json"))[:SUBSET]
    for kind in ("corpus", "proposals"):
        (root / kind).mkdir()
    for incident_id in ids:
        shutil.copy(bundle / "corpus" / f"{incident_id}.json", root / "corpus")
        for proposal in (bundle / "proposals").glob(f"{incident_id}__*.json"):
            shutil.copy(proposal, root / "proposals")
    config = json.loads((bundle / "config.json").read_text())
    for key in ("catalog_path", "policy_path", "mapping_rules_path"):
        config[key] = str(bundle / config[key])
    path = root / "config.json"
    path.write_text(json.dumps(config))
    return path, root


def _summary(config_path, out, mode):
    return evaluate(RunConfig.from_json(config_path, output_dir=str(out), approval_mode=mode)).summary


def test_defer_mode_defers_exactly_what_remove_mode_removes_on_a_subset(subset_config):
    config_path, root = subset_config
    removed = _summary(config_path, root / "out_remove", MODE_REMOVE)
    deferred = _summary(config_path, root / "out_defer", MODE_DEFER)
    assert removed["llm_runs"] == deferred["llm_runs"] == 4 * SUBSET
    assert removed["removed_total"] == deferred["deferred_total"] > 0
    assert removed["deferred_total"] == deferred["removed_total"] == 0
    assert removed["rule_totals"] == deferred["rule_totals"]


def test_defer_mode_defers_exactly_what_remove_mode_removes_on_the_fixture(official_eval, defer_eval):
    removed, deferred = official_eval.summary, defer_eval.summary
    assert removed["removed_total"] == deferred["deferred_total"] == 466
    assert removed["rule_totals"] == deferred["rule_totals"]
