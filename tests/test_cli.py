"""CLI exit-code contract and subcommand plumbing."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import planvet
from planvet.cli import main


@pytest.fixture()
def proposal_file(tmp_path):
    path = tmp_path / "proposal.json"
    path.write_text(json.dumps({"recommended_actions": ["restore_host"]}))
    return path


def _verify_args(bundle, proposal, **extra):
    args = [
        "verify", str(proposal),
        "--catalog", str(bundle / "catalog.json"),
        "--policy", str(bundle / "policy.json"),
        "--corpus-dir", str(bundle / "corpus"),
        "--incident-id", "inc_0007",
    ]
    for key, value in extra.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    return args


def _config_file(bundle, tmp_path, **fields):
    """The bundle's run config with absolute input paths, output under ``tmp_path/out``
    and ``fields`` replacing its values (``None`` drops a field)."""
    doc = json.loads((bundle / "config.json").read_text())
    for key in ("corpus_dir", "catalog_path", "policy_path", "mapping_rules_path", "proposals_dir"):
        doc[key] = str(bundle / doc[key])
    doc["output_dir"] = str(tmp_path / "out")
    doc.update(fields)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({k: v for k, v in doc.items() if v is not None}))
    return path


class TestVerify:
    def test_violating_plan_exits_3(self, bundle, proposal_file, capsys):
        code = main(_verify_args(bundle, proposal_file))
        out = capsys.readouterr().out
        assert code == 3
        assert "R2/order_violation" in out
        assert "R3/approval_required" in out
        assert "enforced:  collect_forensics" in out

    def test_compliant_plan_exits_0(self, bundle, tmp_path):
        path = tmp_path / "clean.json"
        path.write_text(json.dumps({"recommended_actions": ["collect_forensics"]}))
        assert main(_verify_args(bundle, path)) == 0

    def test_missing_policy_exits_1_named(self, bundle, proposal_file, capsys):
        args = _verify_args(bundle, proposal_file)
        args[args.index("--policy") + 1] = str(bundle / "nope.json")
        code = main(args)
        assert code == 1
        assert "PolicyNotFound" in capsys.readouterr().err

    def test_missing_incident_exits_1_named(self, bundle, proposal_file, capsys):
        args = _verify_args(bundle, proposal_file)
        args[args.index("--incident-id") + 1] = "inc_9999"
        assert main(args) == 1
        assert "IncidentNotFound" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "defect, error",
        [
            pytest.param(
                lambda o: o["telemetry"].append("process_start"),
                "telemetry/2: expected an object",
                id="non-object telemetry entry",
            ),
            pytest.param(
                lambda o: o["extracted_tasks"][0].update(order_index="0"),
                "order_index: expected an integer",
                id="string order_index",
            ),
        ],
    )
    def test_malformed_package_exits_1_named(self, bundle, proposal_file, tmp_path, capsys, defect, error):
        from planvet.fixtures import incident_obj

        corpus = tmp_path / "corpus"
        corpus.mkdir()
        obj = incident_obj(7)
        defect(obj)
        (corpus / "inc_0007.json").write_text(json.dumps(obj))
        args = _verify_args(bundle, proposal_file)
        args[args.index("--corpus-dir") + 1] = str(corpus)
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("SchemaError: inc_0007.json: ")
        assert error in err

    @pytest.mark.parametrize("escape", ["relative", "absolute"])
    def test_incident_id_outside_corpus_dir_exits_1_named(self, bundle, proposal_file, tmp_path, capsys, escape):
        # A valid package sits at the outside path; verify must still not read it.
        outside = tmp_path / "outside"
        outside.mkdir()
        shutil.copy(bundle / "corpus" / "inc_0007.json", outside)
        incident_id = "../../outside/inc_0007" if escape == "relative" else str(outside / "inc_0007")
        corpus = tmp_path / "a" / "corpus"
        corpus.mkdir(parents=True)
        args = _verify_args(bundle, proposal_file)
        args[args.index("--corpus-dir") + 1] = str(corpus)
        args[args.index("--incident-id") + 1] = incident_id
        assert main(args) == 1
        assert capsys.readouterr().err == f"IncidentNotFound: {incident_id}\n"

    def test_defective_sibling_package_does_not_change_verify(self, bundle, proposal_file, tmp_path, capsys):
        assert main(_verify_args(bundle, proposal_file)) == 3
        expected = capsys.readouterr().out
        corpus = tmp_path / "corpus"
        shutil.copytree(bundle / "corpus", corpus)
        sibling = corpus / "inc_0008.json"
        sibling.write_bytes(sibling.read_bytes()[:40])
        args = _verify_args(bundle, proposal_file)
        args[args.index("--corpus-dir") + 1] = str(corpus)
        assert main(args) == 3
        captured = capsys.readouterr()
        assert captured.out == expected
        assert captured.err == ""
        assert "violation: R2/order_violation" in expected

    def test_repeated_calls_in_one_process_match_separate_processes(self, bundle, proposal_file, tmp_path, capsys):
        first = _verify_args(bundle, proposal_file, approval_mode="defer_to_human_approval", model="m")
        second = _verify_args(bundle, proposal_file)
        in_process = []
        for args, output in ((first, tmp_path / "in_process.json"), (second, None)):
            argv = args + ["--output", str(output)] if output else args
            in_process.append((main(argv), capsys.readouterr().out))
        env = dict(os.environ, PYTHONPATH=str(Path(planvet.__file__).parents[1]))
        separate = []
        for args, output in ((first, tmp_path / "separate.json"), (second, None)):
            argv = args + ["--output", str(output)] if output else args
            done = subprocess.run([sys.executable, "-m", "planvet", *argv], env=env, capture_output=True, text=True)
            separate.append((done.returncode, done.stdout))
        assert in_process == separate
        assert in_process[0][1] != in_process[1][1]  # the flags did change the first answer
        assert (tmp_path / "in_process.json").read_bytes() == (tmp_path / "separate.json").read_bytes()
        assert sorted(p.name for p in tmp_path.glob("*.json")) == ["in_process.json", "proposal.json", "separate.json"]

    def test_non_utf8_proposal_exits_1_named(self, bundle, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"recommended_actions": ["restore_host"], "note": "caf\u00e9"}'.encode("latin-1"))
        assert main(_verify_args(bundle, path)) == 1
        assert capsys.readouterr().err.startswith("ParseError: proposal for inc_0007: not valid JSON")

    def test_result_document_written(self, bundle, proposal_file, tmp_path):
        out = tmp_path / "result.json"
        main(_verify_args(bundle, proposal_file, output=out))
        doc = json.loads(out.read_text())
        assert doc["enforced_actions"] == ["collect_forensics"]
        assert doc["policy_sha256"]

    def test_result_document_written_into_missing_directory(self, bundle, proposal_file, tmp_path):
        out = tmp_path / "new" / "verify" / "result.json"
        assert main(_verify_args(bundle, proposal_file, output=out)) == 3
        assert json.loads(out.read_text())["enforced_actions"] == ["collect_forensics"]


class TestAuditAndMap:
    def test_audit_passes_on_bundle(self, bundle, tmp_path, capsys):
        code = main([
            "audit",
            "--corpus-dir", str(bundle / "corpus"),
            "--catalog", str(bundle / "catalog.json"),
            "--mapping-rules", str(bundle / "mapping_rules.json"),
            "--privacy-patterns", str(bundle / "privacy_patterns.json"),
            "--forbidden-terms", str(bundle / "forbidden_terms.txt"),
            "--output-dir", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "require_approval(isolate_host)" in out
        report = json.loads((tmp_path / "gate_report.json").read_text())
        assert report["overall_pass"] is True

    def test_map_writes_report(self, bundle, tmp_path):
        code = main([
            "map",
            "--corpus-dir", str(bundle / "corpus"),
            "--catalog", str(bundle / "catalog.json"),
            "--mapping-rules", str(bundle / "mapping_rules.json"),
            "--output-dir", str(tmp_path),
        ])
        assert code == 0
        doc = json.loads((tmp_path / "mapping_report.json").read_text())
        assert doc["support"]["mapped_tasks"] == 1147
        assert doc["catalog_coverage"] == 0.6

    def test_evaluate_happy_path(self, bundle, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "evaluate",
            "--config", str(bundle / "config.json"),
            "--output-dir", str(out),
            "--rerun-label", "cli",
        ])
        assert code == 0
        assert "violation_rate=0.8700" in capsys.readouterr().out
        for name in ("metrics_runs.jsonl", "cell_summaries.json", "contrasts.json",
                     "stability.json", "manifest.json", "corpus_manifest.json"):
            assert (out / name).exists(), name

    def test_path_flags_resolve_against_the_working_directory(self, bundle, tmp_path, monkeypatch, capsys):
        # The config's own paths ("corpus", ...) still resolve against its directory.
        monkeypatch.chdir(tmp_path)
        rel = Path(os.path.relpath(bundle, tmp_path))
        code = main([
            "evaluate",
            "--config", str(rel / "config.json"),
            "--privacy-patterns", str(rel / "privacy_patterns.json"),
            "--forbidden-terms", str(rel / "forbidden_terms.txt"),
            "--output-dir", "out",
            "--rerun-label", "cwd",
        ])
        assert code == 0, capsys.readouterr().err
        assert "outputs in out\n" in capsys.readouterr().out
        assert (tmp_path / "out" / "manifest.json").exists()
        assert not (bundle / "out" / "summary_cwd.json").exists()

    def test_empty_proposals_dir_is_an_error(self, bundle, tmp_path, capsys):
        empty = tmp_path / "없음"
        empty.mkdir()
        code = main([
            "evaluate",
            "--config", str(bundle / "config.json"),
            "--proposals-dir", str(empty),
            "--output-dir", str(tmp_path / "out"),
        ])
        assert code == 1
        assert "EmptyEvaluation" in capsys.readouterr().err


    _config = staticmethod(_config_file)

    def test_config_file_without_corpus_dir_exits_1_named(self, bundle, tmp_path, capsys):
        code = main(["evaluate", "--config", str(self._config(bundle, tmp_path, corpus_dir=None))])
        assert code == 1
        assert capsys.readouterr().err.startswith("ConfigIncomplete: run config is missing corpus_dir")

    def test_undeclared_contrast_cell_exits_1_named(self, bundle, tmp_path, capsys):
        family = [[["nope", "llm_zero"], ["gpt-5.2", "llm_zero"]]]
        code = main(["evaluate", "--config", str(self._config(bundle, tmp_path, contrast_family=family))])
        assert code == 1
        assert capsys.readouterr().err.startswith("EmptyCell: declared contrast cells with no runs: nope/llm_zero")

    @pytest.mark.parametrize(
        "flag, error",
        [
            ("--catalog", "CatalogError"),
            ("--policy", "PolicyValidationError"),
            ("--mapping-rules", "ParseError"),
        ],
    )
    def test_non_utf8_declared_input_exits_1_named(self, bundle, tmp_path, capsys, flag, error):
        path = tmp_path / "latin1.json"
        path.write_bytes('["caf\u00e9"]'.encode("latin-1"))
        code = main(["evaluate", "--config", str(bundle / "config.json"), flag, str(path),
                     "--output-dir", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"{error}: latin1.json: not valid JSON")

    def test_non_utf8_stored_proposal_exits_1_named(self, bundle, tmp_path, capsys):
        proposals = tmp_path / "proposals"
        proposals.mkdir()
        (proposals / "inc_0001__m__llm_zero.json").write_bytes(b'{"recommended_actions": ["\xe9"]}')
        code = main(["evaluate", "--config", str(bundle / "config.json"),
                     "--proposals-dir", str(proposals), "--output-dir", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.startswith("ParseError: proposal for inc_0001: not valid JSON")

    def test_truncated_config_exits_1_named(self, bundle, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text((bundle / "config.json").read_text()[:40])
        assert main(["evaluate", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("ParseError: config.json: not valid JSON")

    def test_config_that_is_not_an_object_exits_1_named(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('[["corpus_dir", "corpus"]]')
        assert main(["evaluate", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("ConfigInvalid: config.json: run config must be a JSON object")

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"approval_mode": "bogus"}, "unknown approval_mode 'bogus'"),
            ({"confidence": "high"}, "confidence must be a number in (0, 1), got 'high'"),
            ({"confidence": 1}, "confidence must be a number in (0, 1), got 1"),
            ({"skip_gates": "false"}, "skip_gates must be true or false, got 'false'"),
            ({"contrast_family": [["a"]]},
             "contrast_family must be a list of [[model, arm], [model, arm]] pairs, got [['a']]"),
        ],
    )
    def test_bad_config_value_exits_1_before_any_output(self, bundle, tmp_path, capsys, fields, message):
        code = main(["evaluate", "--config", str(self._config(bundle, tmp_path, **fields))])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"ConfigInvalid: {message}")
        assert not (tmp_path / "out").exists()

    def test_truncated_privacy_patterns_exit_1_named(self, bundle, tmp_path, capsys):
        patterns = tmp_path / "patterns.json"
        patterns.write_text((bundle / "privacy_patterns.json").read_text()[:20])
        code = main(["evaluate", "--config", str(self._config(bundle, tmp_path)),
                     "--privacy-patterns", str(patterns)])
        assert code == 1
        assert capsys.readouterr().err.startswith("ParseError: patterns.json: not valid JSON")

    @pytest.mark.parametrize(
        "document, message",
        [
            (["x"], "privacy patterns must be a JSON object of kind -> regular expression"),
            ({"n": 5}, "pattern for kind 'n' must be a string, got 5"),
            ({"bad": "("}, "pattern for kind 'bad' does not compile: missing ), unterminated subpattern"),
        ],
        ids=["not-an-object", "non-string-pattern", "pattern-does-not-compile"],
    )
    def test_bad_privacy_patterns_exit_1_named(self, bundle, tmp_path, capsys, document, message):
        patterns = tmp_path / "patterns.json"
        patterns.write_text(json.dumps(document))
        code = main(["evaluate", "--config", str(self._config(bundle, tmp_path)),
                     "--privacy-patterns", str(patterns)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"ConfigInvalid: patterns.json: {message}")
        assert not (tmp_path / "out").exists()
        code = main(["audit", "--corpus-dir", str(bundle / "corpus"), "--catalog", str(bundle / "catalog.json"),
                     "--mapping-rules", str(bundle / "mapping_rules.json"), "--privacy-patterns", str(patterns),
                     "--output-dir", str(tmp_path / "audit")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"ConfigInvalid: patterns.json: {message}")

    def test_unpaired_contrast_cell_exits_1_before_any_output(self, bundle, tmp_path, capsys):
        proposals = tmp_path / "proposals"
        shutil.copytree(bundle / "proposals", proposals)
        (proposals / "inc_0002__gpt-5.2__llm_zero.json").unlink()
        config = self._config(bundle, tmp_path, proposals_dir=str(proposals))
        assert main(["evaluate", "--config", str(config)]) == 1
        assert capsys.readouterr().err.startswith(
            "KeyMismatch: contrast claude-sonnet-4-6/llm_policy_prompt vs gpt-5.2/llm_zero "
            "requires identical incident key sets: inc_0002 is only in claude-sonnet-4-6/llm_policy_prompt"
        )
        assert not (tmp_path / "out").exists()


class TestContrastAndReport:
    def test_contrast_from_metrics(self, bundle, official_eval, tmp_path):
        out_dir = official_eval.config.output_dir
        family = tmp_path / "family.json"
        family.write_text(json.dumps([
            [["claude-sonnet-4-6", "llm_policy_prompt"], ["claude-sonnet-4-6", "llm_zero"]],
        ]))
        target = tmp_path / "contrasts.json"
        code = main([
            "contrast",
            "--metrics", str(out_dir / "metrics_runs.jsonl"),
            "--family", str(family),
            "--output", str(target),
        ])
        assert code == 0
        doc = json.loads(target.read_text())
        assert doc["contrasts"][0]["delta_rate"] == 0.51

    def test_contrast_over_stored_metrics_reproduces_evaluate(self, bundle, official_eval, tmp_path):
        out_dir = official_eval.config.output_dir
        family = tmp_path / "family.json"
        family.write_text(json.dumps(json.loads((bundle / "config.json").read_text())["contrast_family"]))
        target = tmp_path / "contrasts.json"
        code = main(["contrast", "--metrics", str(out_dir / "metrics_runs.jsonl"), "--family", str(family),
                     "--output", str(target)])
        assert code == 0
        assert target.read_bytes() == (out_dir / "contrasts.json").read_bytes()

    def test_contrast_with_undeclared_cell_exits_1_named(self, official_eval, tmp_path, capsys):
        family = tmp_path / "family.json"
        family.write_text(json.dumps([[["nope", "llm_zero"], ["claude-sonnet-4-6", "llm_zero"]]]))
        code = main([
            "contrast",
            "--metrics", str(official_eval.config.output_dir / "metrics_runs.jsonl"),
            "--family", str(family),
            "--output", str(tmp_path / "contrasts.json"),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("EmptyCell: declared contrast cells with no runs: nope/llm_zero")
        assert not (tmp_path / "contrasts.json").exists()

    def test_truncated_family_file_exits_1_named(self, official_eval, tmp_path, capsys):
        family = tmp_path / "family.json"
        family.write_text('[[["claude-sonnet-4-6", "llm_zero"]')
        code = main([
            "contrast",
            "--metrics", str(official_eval.config.output_dir / "metrics_runs.jsonl"),
            "--family", str(family),
            "--output", str(tmp_path / "contrasts.json"),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("ParseError: family.json: not valid JSON")

    def test_malformed_family_exits_1_named(self, official_eval, tmp_path, capsys):
        family = tmp_path / "family.json"
        family.write_text(json.dumps([["a"]]))
        code = main([
            "contrast",
            "--metrics", str(official_eval.config.output_dir / "metrics_runs.jsonl"),
            "--family", str(family),
            "--output", str(tmp_path / "contrasts.json"),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "ConfigInvalid: family.json: contrast family must be a list of "
            "[[model, arm], [model, arm]] pairs, got [['a']]"
        )
        assert not (tmp_path / "contrasts.json").exists()

    def test_report_renders_tables(self, official_eval, defer_eval, capsys):
        out_dir = official_eval.config.output_dir
        code = main([
            "report",
            "--output-dir", str(out_dir),
            "--defer-dir", str(defer_eval.config.output_dir),
        ])
        assert code == 0
        text = (out_dir / "report.md").read_text()
        assert "| claude-sonnet-4-6 / policy | 200 | 0.8700 |" in text
        assert "<0.0001" in text
        assert "## Approval deferral sensitivity" in text
        assert "| human baseline | 200 | 0.0000 |" in text


def test_activation_probe_for_unknown_incident_exits_1_named(bundle, tmp_path, capsys):
    probes = tmp_path / "probes.json"
    probes.write_text(json.dumps({"plans": [{"incident_id": "inc_9999", "recommended_actions": []}]}))
    code = main([
        "activation-check",
        "--corpus-dir", str(bundle / "corpus"),
        "--catalog", str(bundle / "richer" / "candidate_catalog.json"),
        "--policy", str(bundle / "richer" / "candidate_policy.json"),
        "--plan-source", "probes",
        "--probes", str(probes),
        "--output-dir", str(tmp_path / "out"),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("IncidentNotFound: inc_9999")


def test_truncated_probes_file_exits_1_named(bundle, tmp_path, capsys):
    probes = tmp_path / "probes.json"
    probes.write_text('{"plans": [')
    code = main([
        "activation-check",
        "--corpus-dir", str(bundle / "corpus"),
        "--catalog", str(bundle / "richer" / "candidate_catalog.json"),
        "--policy", str(bundle / "richer" / "candidate_policy.json"),
        "--plan-source", "probes",
        "--probes", str(probes),
        "--output-dir", str(tmp_path / "out"),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("ParseError: probes.json: not valid JSON")


@pytest.mark.parametrize(
    "document, message",
    [
        (["x"], "probe document must be a JSON object with a 'plans' list"),
        ({"plans": {"incident_id": "inc_0001"}}, "'plans' must be a list, got {'incident_id': 'inc_0001'}"),
        ({"plans": ["x"]}, "plans[0] must be a JSON object, got 'x'"),
        ({"plans": [{"recommended_actions": []}]}, "plans[0] needs a string 'incident_id'"),
        ({"plans": [{"incident_id": "inc_0001", "recommended_actions": []}, {"incident_id": 1}]},
         "plans[1] needs a string 'incident_id'"),
    ],
    ids=["not-an-object", "plans-not-a-list", "plan-not-an-object", "no-incident-id", "non-string-incident-id"],
)
def test_malformed_probes_exit_1_named(bundle, tmp_path, capsys, document, message):
    probes = tmp_path / "probes.json"
    probes.write_text(json.dumps(document))
    code = main([
        "activation-check",
        "--corpus-dir", str(bundle / "corpus"),
        "--catalog", str(bundle / "richer" / "candidate_catalog.json"),
        "--policy", str(bundle / "richer" / "candidate_policy.json"),
        "--plan-source", "probes",
        "--probes", str(probes),
        "--output-dir", str(tmp_path / "out"),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"ConfigInvalid: probes.json: {message}")
    assert not (tmp_path / "out").exists()


def test_activation_check_reports_the_first_defect_in_plan_order(bundle, tmp_path, capsys):
    proposals = tmp_path / "proposals"
    proposals.mkdir()
    (proposals / "inc_9999__m__a.json").write_text('{"recommended_actions": []}')  # no such incident
    (proposals / "zz__m__a.json").write_text('{"recommended_actions": [')
    probes = tmp_path / "probes.json"
    probes.write_text('["not an object"]')
    code = main([
        "activation-check",
        "--corpus-dir", str(bundle / "corpus"),
        "--catalog", str(bundle / "richer" / "candidate_catalog.json"),
        "--policy", str(bundle / "richer" / "candidate_policy.json"),
        "--plan-source", "all",
        "--proposals-dir", str(proposals),
        "--probes", str(probes),
        "--output-dir", str(tmp_path / "out"),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("IncidentNotFound: inc_9999")
    assert not (tmp_path / "out").exists()


def test_cli_import_leaves_jsonschema_out():
    code = "import sys, planvet.cli; print('jsonschema' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(planvet.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_failed_baseline_is_counted_and_the_bundle_written(bundle, tmp_path, monkeypatch):
    from planvet import pipeline
    from planvet.plans import SOURCE_BASELINE

    real_enforce = pipeline.enforce

    def enforce(plan, *args):
        if plan.source == SOURCE_BASELINE and plan.incident_id == "inc_0003":
            raise RuntimeError("injected")
        return real_enforce(plan, *args)

    monkeypatch.setattr(pipeline, "enforce", enforce)
    out = tmp_path / "out"
    assert main(["evaluate", "--config", str(bundle / "config.json"), "--output-dir", str(out)]) == 0
    for name in ("metrics_runs.jsonl", "cell_summaries.json", "contrasts.json", "summary_r1.json",
                 "stability.json", "manifest.json", "corpus_manifest.json"):
        assert (out / name).exists(), name
    accounting = json.loads((out / "manifest.json").read_text())["run_accounting"]
    assert accounting["planned_llm_runs"] == accounting["completed_llm_runs"] == 800
    assert accounting["failed_llm_runs"] == 0
    assert accounting["planned_baselines"] == 200
    assert accounting["completed_baselines"] == accounting["planned_baselines"] - 1
    assert accounting["failures"] == [
        {"incident_id": "inc_0003", "model_id": "", "arm": "none", "error": "RuntimeError: injected"}
    ]
    traces = {path.name for path in (out / "enforced").iterdir()}
    assert len(traces) == 999
    assert "inc_0003__human_baseline__none.json" not in traces
    assert "inc_0004__human_baseline__none.json" in traces
    assert len((out / "metrics_runs.jsonl").read_text().splitlines()) == 999


def test_every_baseline_failing_still_writes_the_bundle(bundle, tmp_path, monkeypatch, capsys):
    from planvet import pipeline
    from planvet.plans import SOURCE_BASELINE

    real_enforce = pipeline.enforce

    def enforce(plan, *args):
        if plan.source == SOURCE_BASELINE:
            raise RuntimeError("injected")
        return real_enforce(plan, *args)

    monkeypatch.setattr(pipeline, "enforce", enforce)
    out = tmp_path / "out"
    assert main(["evaluate", "--config", str(bundle / "config.json"), "--output-dir", str(out)]) == 0
    assert "baseline: no completed runs" in capsys.readouterr().out
    for name in ("metrics_runs.jsonl", "cell_summaries.json", "contrasts.json", "summary_r1.json",
                 "stability.json", "manifest.json", "corpus_manifest.json"):
        assert (out / name).exists(), name
    cells = json.loads((out / "cell_summaries.json").read_text())
    assert cells["baseline"] is None
    assert len(cells["cells"]) == 4
    accounting = json.loads((out / "manifest.json").read_text())["run_accounting"]
    assert accounting["completed_llm_runs"] == 800
    assert accounting["planned_baselines"] == 200
    assert accounting["completed_baselines"] == 0
    assert [failure["incident_id"] for failure in accounting["failures"]] == [f"inc_{i:04d}" for i in range(1, 201)]
    assert {(f["model_id"], f["arm"], f["error"]) for f in accounting["failures"]} == {
        ("", "none", "RuntimeError: injected")
    }
    assert main(["report", "--output-dir", str(out)]) == 0
    assert "| human baseline | 0 | - | - | - | - | - | - |" in (out / "report.md").read_text()


BUNDLE_FILES = ("metrics_runs.jsonl", "cell_summaries.json", "contrasts.json", "summary_r1.json",
                "stability.json", "manifest.json", "corpus_manifest.json")


def _failing_enforce(monkeypatch, *failing):
    """Make ``pipeline.enforce`` raise for each ``(incident_id, model_id, arm)`` in ``failing``."""
    from planvet import pipeline

    real_enforce = pipeline.enforce

    def enforce(plan, *args):
        if (plan.incident_id, plan.model_id, plan.arm) in failing:
            raise RuntimeError("injected")
        return real_enforce(plan, *args)

    monkeypatch.setattr(pipeline, "enforce", enforce)


def test_failed_llm_run_drops_its_incident_from_its_contrasts(bundle, tmp_path, monkeypatch):
    _failing_enforce(monkeypatch, ("inc_0001", "gpt-5.2", "llm_zero"))
    out = tmp_path / "out"
    assert main(["evaluate", "--config", str(bundle / "config.json"), "--output-dir", str(out)]) == 0
    for name in BUNDLE_FILES:
        assert (out / name).exists(), name
    assert len(list((out / "enforced").iterdir())) == 999
    accounting = json.loads((out / "manifest.json").read_text())["run_accounting"]
    assert accounting["failed_llm_runs"] == 1
    assert accounting["failures"] == [
        {"incident_id": "inc_0001", "model_id": "gpt-5.2", "arm": "llm_zero", "error": "RuntimeError: injected"}
    ]
    contrasts = json.loads((out / "contrasts.json").read_text())["contrasts"]
    assert len(contrasts) == 6
    for contrast in contrasts:
        involved = ["gpt-5.2", "llm_zero"] in (contrast["cell_a"], contrast["cell_b"])
        assert contrast["n_pairs"] == (199 if involved else 200), contrast
    assert sum(c["n_pairs"] == 199 for c in contrasts) == 3
    # `contrast` pairs a bundle's run rows by the same rule.
    family = tmp_path / "family.json"
    family.write_text(json.dumps(json.loads((bundle / "config.json").read_text())["contrast_family"]))
    target = tmp_path / "contrasts.json"
    assert main(["contrast", "--metrics", str(out / "metrics_runs.jsonl"), "--family", str(family),
                 "--output", str(target)]) == 0
    assert target.read_bytes() == (out / "contrasts.json").read_bytes()


def _with_orphan_proposal(bundle, tmp_path):
    """A copy of the bundle's proposals plus ``inc_0001z__gpt-5.2__llm_zero.json``, whose incident is not in the corpus."""
    proposals = shutil.copytree(bundle / "proposals", tmp_path / "proposals")
    shutil.copy(proposals / "inc_0001__gpt-5.2__llm_zero.json", proposals / "inc_0001z__gpt-5.2__llm_zero.json")
    return proposals


def test_orphan_proposal_fails_as_a_run_and_the_bundle_is_written(bundle, tmp_path):
    out = tmp_path / "out"
    proposals = _with_orphan_proposal(bundle, tmp_path)
    assert main(["evaluate", "--config", str(bundle / "config.json"), "--proposals-dir", str(proposals),
                 "--output-dir", str(out)]) == 0
    for name in BUNDLE_FILES:
        assert (out / name).exists(), name
    accounting = json.loads((out / "manifest.json").read_text())["run_accounting"]
    assert (accounting["planned_llm_runs"], accounting["completed_llm_runs"]) == (801, 800)
    assert accounting["failures"] == [
        {"incident_id": "inc_0001z", "model_id": "gpt-5.2", "arm": "llm_zero", "error": "IncidentNotFound: inc_0001z"}
    ]


def test_failures_list_llm_runs_in_order_then_baselines(bundle, tmp_path, monkeypatch):
    _failing_enforce(monkeypatch, ("inc_0150", "claude-sonnet-4-6", "llm_zero"), ("inc_0002", "", "none"))
    out = tmp_path / "out"
    proposals = _with_orphan_proposal(bundle, tmp_path)
    assert main(["evaluate", "--config", str(bundle / "config.json"), "--proposals-dir", str(proposals),
                 "--output-dir", str(out)]) == 0
    accounting = json.loads((out / "manifest.json").read_text())["run_accounting"]
    assert [(f["incident_id"], f["model_id"], f["arm"]) for f in accounting["failures"]] == [
        ("inc_0001z", "gpt-5.2", "llm_zero"),
        ("inc_0150", "claude-sonnet-4-6", "llm_zero"),
        ("inc_0002", "", "none"),
    ]


def test_evaluate_releases_each_package_after_its_incident(bundle, tmp_path, monkeypatch):
    from planvet import pipeline
    from planvet.corpus import IncidentPackage
    from planvet.plans import SOURCE_BASELINE

    real_load, real_enforce = pipeline.load_gated_corpus, pipeline.enforce
    loaded: set[int] = set()  # ids only: a reference here would keep every package alive
    live_at_last_baseline = []

    def load_gated_corpus(*args):
        corpus, digests = real_load(*args)
        loaded.update(map(id, corpus))
        return corpus, digests

    def enforce(plan, *args):
        if plan.source == SOURCE_BASELINE and plan.incident_id == "inc_0200":
            live_at_last_baseline.append(
                sum(1 for obj in gc.get_objects() if id(obj) in loaded and isinstance(obj, IncidentPackage))
            )
        return real_enforce(plan, *args)

    monkeypatch.setattr(pipeline, "load_gated_corpus", load_gated_corpus)
    monkeypatch.setattr(pipeline, "enforce", enforce)
    assert main(["evaluate", "--config", str(bundle / "config.json"), "--output-dir", str(tmp_path / "out")]) == 0
    assert len(loaded) == 200
    assert live_at_last_baseline == [1]


def test_metrics_runs_path_that_is_a_directory_is_a_named_error(bundle, tmp_path, capsys):
    out = tmp_path / "out"
    (out / "metrics_runs.jsonl").mkdir(parents=True)
    assert main(["evaluate", "--config", str(bundle / "config.json"), "--output-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"IoError: cannot write {out / 'metrics_runs.jsonl'}")
    assert "Traceback" not in err


def _tree(directory):
    return {path.relative_to(directory): path.read_bytes() for path in directory.rglob("*") if path.is_file()}


@pytest.mark.parametrize(
    "stray, message",
    [
        ("[", "summary_zz.json: not valid JSON"),
        ('{"cells": 5}', "summary_zz.json: not a rerun summary (a JSON object with rerun_label, cells, "),
    ],
    ids=["not-json", "not-a-summary"],
)
def test_stray_summary_stops_evaluate_before_any_output(bundle, tmp_path, capsys, stray, message):
    out = tmp_path / "out"
    out.mkdir()
    (out / "summary_zz.json").write_text(stray)
    (out / "summary_r1.json").write_text("[")  # this run's own label: it would be replaced, not read
    before = _tree(out)
    assert main(["evaluate", "--config", str(bundle / "config.json"), "--output-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"ParseError: {message}")
    assert "Traceback" not in err
    assert _tree(out) == before
    assert sorted(path.name for path in out.iterdir()) == ["summary_r1.json", "summary_zz.json"]


def test_summary_of_this_runs_label_is_replaced_not_read(bundle, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "summary_r1.json").write_text("[")
    assert main(["evaluate", "--config", str(bundle / "config.json"), "--output-dir", str(out)]) == 0
    assert json.loads((out / "summary_r1.json").read_text())["rerun_label"] == "r1"
    assert json.loads((out / "stability.json").read_text())["labels"] == ["r1"]


def test_report_creates_the_parent_of_its_out_path(official_eval, tmp_path):
    target = tmp_path / "new_dir" / "report.md"
    assert main(["report", "--output-dir", str(official_eval.config.output_dir), "--out", str(target)]) == 0
    assert target.read_text().startswith("# Evaluation report")


def test_rule_burden_counts_each_cells_failures(bundle, tmp_path, monkeypatch):
    _failing_enforce(monkeypatch, ("inc_0001", "gpt-5.2", "llm_zero"))
    out = tmp_path / "out"
    assert main(["evaluate", "--config", str(bundle / "config.json"), "--output-dir", str(out)]) == 0
    assert main(["report", "--output-dir", str(out)]) == 0
    report = (out / "report.md").read_text()
    burden = report[report.index("## Rule burden by cell"):report.index("## Rule-level treatment rates")]
    rows = [line.split(" | ") for line in burden.splitlines() if line.startswith("| ") and "/" in line]
    # Cell, Complete, ..., Failures: the failed run is counted in its own cell only.
    assert {row[0].removeprefix("| "): (row[1], row[-1].removesuffix(" |")) for row in rows} == {
        "claude-sonnet-4-6 / zero": ("200/200", "0"),
        "claude-sonnet-4-6 / policy": ("200/200", "0"),
        "gpt-5.2 / zero": ("199/200", "1"),
        "gpt-5.2 / policy": ("200/200", "0"),
    }


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _rewrite_inputs_once(inputs):
    """A hook that rewrites each of ``inputs`` on its first call, so a second read sees other bytes."""
    def rewrite():
        if not rewrite.done:
            rewrite.done = True
            for path in inputs:
                path.write_bytes(path.read_bytes() + b" ")
    rewrite.done = False
    return rewrite


def test_manifests_hash_the_bytes_each_loader_parsed(bundle, tmp_path, monkeypatch):
    from planvet import cli, pipeline

    copy = shutil.copytree(bundle, tmp_path / "bundle")
    inputs = [copy / "catalog.json", copy / "policy.json", copy / "mapping_rules.json"]
    original = {path.name: _sha256(path) for path in inputs}
    rewrite = _rewrite_inputs_once(inputs)
    real_enforce, real_gate = pipeline.enforce, cli.release_gate

    def enforce(*args):
        rewrite()
        return real_enforce(*args)

    monkeypatch.setattr(pipeline, "enforce", enforce)
    out = tmp_path / "out"
    assert main(["evaluate", "--config", str(copy / "config.json"), "--output-dir", str(out)]) == 0
    assert rewrite.done
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["files"] == original
    assert manifest["policy_sha256"] == original["policy.json"]
    traces = list((out / "enforced").iterdir())
    assert len(traces) == 1000
    assert {json.loads(trace.read_text())["policy_sha256"] for trace in traces} == {original["policy.json"]}

    for path in inputs:  # the bytes the audit below loads
        original[path.name] = _sha256(path)
    rewrite = _rewrite_inputs_once(inputs)

    def release_gate(*args, **kwargs):
        rewrite()
        return real_gate(*args, **kwargs)

    monkeypatch.setattr(cli, "release_gate", release_gate)
    assert main(["audit", "--corpus-dir", str(copy / "corpus"), "--catalog", str(copy / "catalog.json"),
                 "--mapping-rules", str(copy / "mapping_rules.json"), "--output-dir", str(tmp_path / "audit")]) == 0
    assert rewrite.done
    manifest = json.loads((tmp_path / "audit" / "manifest.json").read_text())
    assert manifest["files"] == {name: original[name] for name in ("catalog.json", "mapping_rules.json")}


def test_directory_entry_is_an_audit_parse_failure(bundle, tmp_path):
    corpus = shutil.copytree(bundle / "corpus", tmp_path / "corpus")
    (corpus / "zz.json").mkdir()
    out = tmp_path / "out"
    code = main(["audit", "--corpus-dir", str(corpus), "--catalog", str(bundle / "catalog.json"),
                 "--mapping-rules", str(bundle / "mapping_rules.json"), "--output-dir", str(out)])
    assert code == 3
    report = json.loads((out / "gate_report.json").read_text())
    assert report["parse_failures"] == ["zz.json: cannot read: Is a directory"]
    assert report["parseability_pass"] is False


def test_package_nested_too_deeply_is_an_audit_parse_failure(bundle, tmp_path, capsys):
    out = tmp_path / "out"
    argv = _audit("--corpus-dir", _corpus_with_nested)(bundle, tmp_path)
    assert main(argv) == 3
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((out / "gate_report.json").read_text())
    assert report["parse_failures"] == ["inc_0001.json: invalid JSON: nested too deeply"]


# ---------------------------------------------------------------------------
# Malformed inputs: each is a named error, exit 1, no traceback, no output
# ---------------------------------------------------------------------------

def _edited(source, dest, edit):
    """Write ``edit(<source document>)`` to ``dest`` as JSON."""
    dest.write_text(json.dumps(edit(json.loads(source.read_text()))))
    return str(dest)


def _first(document, **changes):
    """The document with ``changes`` applied to its first entry."""
    return [{**document[0], **changes}, *document[1:]]


def _evaluate(flag, name, edit):
    def argv(bundle, tmp_path):
        return ["evaluate", "--config", str(bundle / "config.json"), "--output-dir", str(tmp_path / "out"),
                flag, _edited(bundle / name, tmp_path / Path(name).name, edit)]
    return argv


def _audit(*extra):
    def argv(bundle, tmp_path):
        args = {"--corpus-dir": bundle / "corpus", "--catalog": bundle / "catalog.json",
                "--mapping-rules": bundle / "mapping_rules.json", "--output-dir": tmp_path / "out"}
        for flag, make in zip(extra[::2], extra[1::2]):
            args[flag] = make(bundle, tmp_path)
        return ["audit", *(str(item) for pair in args.items() for item in pair)]
    return argv


def _mapping_rules(edit):
    return _audit("--mapping-rules", lambda b, t: _edited(b / "mapping_rules.json", t / "mapping_rules.json", edit))


def _activation_policy(edit):
    def argv(bundle, tmp_path):
        policy = _edited(bundle / "richer" / "candidate_policy.json", tmp_path / "candidate_policy.json", edit)
        return ["activation-check", "--corpus-dir", str(bundle / "corpus"),
                "--catalog", str(bundle / "richer" / "candidate_catalog.json"), "--policy", policy,
                "--plan-source", "baselines", "--output-dir", str(tmp_path / "out")]
    return argv


def _contrast(bad_line):
    def argv(bundle, tmp_path):
        good = {"model_id": "m", "arm": "a", "incident_id": "inc_0001", "violated": True}
        metrics = tmp_path / "metrics.jsonl"
        metrics.write_text(json.dumps(good) + "\n" + bad_line + "\n")
        family = tmp_path / "family.json"
        family.write_text(json.dumps([[["m", "a"], ["m", "b"]]]))
        return ["contrast", "--metrics", str(metrics), "--family", str(family),
                "--output", str(tmp_path / "out" / "contrasts.json")]
    return argv


def _contrast_over_directory(bundle, tmp_path):
    family = tmp_path / "family.json"
    family.write_text(json.dumps([[["m", "a"], ["m", "b"]]]))
    return ["contrast", "--metrics", _directory(bundle, tmp_path), "--family", str(family),
            "--output", str(tmp_path / "out" / "contrasts.json")]


def _config_fields(**fields):
    return lambda bundle, tmp_path: ["evaluate", "--config", str(_config_file(bundle, tmp_path, **fields))]


def _latin1_terms(bundle, tmp_path):
    path = tmp_path / "terms.txt"
    path.write_bytes("blueharbor\ncaf\u00e9\n".encode("latin-1"))
    return str(path)


def _corpus_with_directory(bundle, tmp_path):
    corpus = shutil.copytree(bundle / "corpus", tmp_path / "corpus")
    (corpus / "zz.json").mkdir()
    return ["activation-check", "--corpus-dir", str(corpus),
            "--catalog", str(bundle / "richer" / "candidate_catalog.json"),
            "--policy", str(bundle / "richer" / "candidate_policy.json"),
            "--plan-source", "baselines", "--output-dir", str(tmp_path / "out")]


def _proposals_with_directory(bundle, tmp_path):
    proposals = shutil.copytree(bundle / "proposals", tmp_path / "proposals")
    (proposals / "inc_0001__m__a.json").mkdir()
    return [*_config_fields()(bundle, tmp_path), "--proposals-dir", str(proposals)]


def _directory(bundle, tmp_path):
    """An empty directory named like the one input file it stands in for."""
    path = tmp_path / "d.json"
    path.mkdir()
    return str(path)


def _scope_commands(document):
    return _first(document, scope={**document[0]["scope"], "command_contains": "bash"})


DEEP = 100_000  # far past the JSON decoder's recursion limit


def _nested_proposal(bundle, tmp_path):
    path = tmp_path / "nested.json"
    path.write_text('{"recommended_actions": ' + "[" * DEEP + "]" * DEEP + "}")
    return str(path)


def _proposals_with_nested(bundle, tmp_path):
    proposals = shutil.copytree(bundle / "proposals", tmp_path / "proposals")
    shutil.copyfile(_nested_proposal(bundle, tmp_path), min(proposals.glob("inc_0001__*.json")))
    return str(proposals)


def _corpus_with_nested(bundle, tmp_path):
    """A corpus copy whose inc_0001 holds a ``quality_trace`` nested far too deeply to decode."""
    corpus = shutil.copytree(bundle / "corpus", tmp_path / "corpus")
    text = (corpus / "inc_0001.json").read_text()
    (corpus / "inc_0001.json").write_text(
        text.replace('"quality_trace": {', '"quality_trace": {"deep": ' + '{"a": ' * DEEP + "1" + "}" * DEEP + ", ", 1)
    )
    return str(corpus)


def _file(bundle, tmp_path):
    """A plain file where a directory is expected."""
    path = tmp_path / "taken"
    path.write_text("")
    return str(path)


def _with(argv, *extra):
    """``argv`` followed by each flag in ``extra`` with the value its maker returns."""
    def build(bundle, tmp_path):
        pairs = [[flag, make(bundle, tmp_path)] for flag, make in zip(extra[::2], extra[1::2])]
        return [*argv(bundle, tmp_path), *(item for pair in pairs for item in pair)]
    return build


def _verify_proposal(bundle, tmp_path):
    path = tmp_path / "proposal.json"
    path.write_text(json.dumps({"recommended_actions": ["restore_host"]}))
    return _verify_args(bundle, path)


def _activation(bundle, tmp_path):
    return ["activation-check", "--corpus-dir", str(bundle / "corpus"),
            "--catalog", str(bundle / "richer" / "candidate_catalog.json"),
            "--policy", str(bundle / "richer" / "candidate_policy.json"),
            "--plan-source", "baselines", "--output-dir", str(tmp_path / "out")]


def _report_into_directory(bundle, tmp_path):
    evaluated = tmp_path / "evaluated"
    assert main([*_config_fields()(bundle, tmp_path), "--skip-gates", "--output-dir", str(evaluated)]) == 0
    return ["report", "--output-dir", str(evaluated), "--out", _directory(bundle, tmp_path)]


def _report_over(documents):
    """``report`` over a minimal valid evaluation bundle whose JSON files ``documents`` replace."""
    def argv(bundle, tmp_path):
        evaluated = tmp_path / "evaluated"
        evaluated.mkdir()
        minimal = {
            "cell_summaries.json": {"cells": [], "baseline": None},
            "contrasts.json": {"contrasts": []},
            "manifest.json": {},
            "stability.json": {"n_reruns": 1, "labels": ["r1"], "coverage_loss_runs": 0, "quantities": {}},
        }
        for name, document in {**minimal, **documents}.items():
            (evaluated / name).write_text(json.dumps(document))
        return ["report", "--output-dir", str(evaluated)]
    return argv


MALFORMED_INPUTS = [
    pytest.param(_evaluate("--catalog", "catalog.json", lambda d: [1]),
                 "CatalogError", "catalog.json: entry 0 must be a JSON object, got 1", id="catalog-entry-not-object"),
    pytest.param(_evaluate("--catalog", "catalog.json", lambda d: _first(d, action_id=7)),
                 "CatalogError", "catalog.json: entry 0: field 'action_id' must be a string, got 7",
                 id="catalog-action-id-not-string"),
    pytest.param(_evaluate("--policy", "policy.json", lambda d: [1]),
                 "PolicyValidationError", "policy.json: rule 0 must be a JSON object, got 1", id="policy-rule-not-object"),
    pytest.param(_evaluate("--policy", "policy.json", lambda d: _first(d, scope="command_execution")),
                 "PolicyValidationError", "policy.json: rule 0: field 'scope' must be a JSON object",
                 id="policy-scope-string"),
    pytest.param(_evaluate("--policy", "policy.json", lambda d: _first(d, rule_id=["R1"])),
                 "PolicyValidationError", "policy.json: rule 0: field 'rule_id' must be a string, got ['R1']",
                 id="policy-rule-id-list"),
    pytest.param(_activation_policy(_scope_commands),
                 "PolicyValidationError",
                 "candidate_policy.json: rule 0: scope: field 'command_contains' must be a list, got 'bash'",
                 id="policy-command-contains-string"),
    pytest.param(_mapping_rules(lambda d: [{k: v for k, v in d[0].items() if k != "keyword_sets"}, *d[1:]]),
                 "ParseError", "mapping_rules.json: rule 0: missing field 'keyword_sets'",
                 id="mapping-rule-without-keyword-sets"),
    pytest.param(_mapping_rules(lambda d: _first(d, keyword_sets="abc")),
                 "ParseError", "mapping_rules.json: rule 0: field 'keyword_sets' must be a list, got 'abc'",
                 id="mapping-keyword-sets-string"),
    pytest.param(_mapping_rules(lambda d: _first(d, keyword_sets=["forensic"])),
                 "ParseError", "mapping_rules.json: rule 0: field 'keyword_sets' must be a list of lists of strings",
                 id="mapping-keyword-sets-flat"),
    pytest.param(_mapping_rules(lambda d: {}),
                 "ParseError", "mapping_rules.json: expected a JSON array of mapping rules",
                 id="mapping-document-object"),
    pytest.param(_contrast('{"model_id": "m", "arm": "b"'),
                 "ParseError", "metrics.jsonl:2: not valid JSON", id="contrast-line-not-json"),
    pytest.param(_contrast('{"model_id": "m", "arm": "b", "incident_id": "inc_0001"}'),
                 "ParseError", "metrics.jsonl:2: missing field 'violated'", id="contrast-line-without-violated"),
    pytest.param(_contrast('{"model_id": "m", "arm": ["b"], "incident_id": "inc_0001", "violated": false}'),
                 "ParseError", "metrics.jsonl:2: field 'arm' must be a string", id="contrast-line-list-arm"),
    pytest.param(_audit("--forbidden-terms", _latin1_terms),
                 "ParseError", "terms.txt: not valid UTF-8", id="forbidden-terms-not-utf8-audit"),
    pytest.param(lambda b, t: [*_config_fields()(b, t), "--forbidden-terms", _latin1_terms(b, t)],
                 "ParseError", "terms.txt: not valid UTF-8", id="forbidden-terms-not-utf8-evaluate"),
    pytest.param(_config_fields(policy_path=7),
                 "ConfigInvalid", "policy_path must be a path string, got 7", id="config-path-not-string"),
    pytest.param(_config_fields(rerun_label=7),
                 "ConfigInvalid", "rerun_label must be a non-empty string without / or \\, got 7",
                 id="rerun-label-not-string"),
    pytest.param(_config_fields(rerun_label="a/b"),
                 "ConfigInvalid", "rerun_label must be a non-empty string", id="rerun-label-slash"),
    pytest.param(_config_fields(rerun_label="a\\b"),
                 "ConfigInvalid", "rerun_label must be a non-empty string", id="rerun-label-backslash"),
    pytest.param(lambda b, t: [*_config_fields()(b, t), "--rerun-label", ""],
                 "ConfigInvalid", "rerun_label must be a non-empty string", id="rerun-label-empty"),
    pytest.param(_config_fields(catalog_path="a\u0000b"),
                 "ConfigInvalid", "catalog_path must not hold a NUL character, got ", id="catalog-path-nul"),
    pytest.param(_config_fields(policy_path="a\u0000b"),
                 "ConfigInvalid", "policy_path must not hold a NUL character, got ", id="policy-path-nul"),
    pytest.param(_config_fields(mapping_rules_path="a\u0000b"),
                 "ConfigInvalid", "mapping_rules_path must not hold a NUL character, got ", id="mapping-rules-path-nul"),
    pytest.param(_config_fields(output_dir="a\u0000b"),
                 "ConfigInvalid", "output_dir must not hold a NUL character, got ", id="output-dir-nul"),
    pytest.param(_config_fields(privacy_patterns_path="a\u0000b"),
                 "ConfigInvalid", "privacy_patterns_path must not hold a NUL character, got ", id="privacy-patterns-path-nul"),
    pytest.param(_config_fields(rerun_label="a\u0000b"),
                 "ConfigInvalid", "rerun_label must not hold a NUL character, got ", id="rerun-label-nul"),
    pytest.param(_report_over({"cell_summaries.json": {}}),
                 "ParseError", "cell_summaries.json: wrong document shape: KeyError: 'cells'",
                 id="report-cell-summaries-object"),
    pytest.param(_report_over({"stability.json": []}),
                 "ParseError", "stability.json: wrong document shape: AttributeError", id="report-stability-list"),
    pytest.param(_report_over({"contrasts.json": {"contrasts": [{"cell_a": 1}]}}),
                 "ParseError", "contrasts.json: wrong document shape: TypeError", id="report-contrast-cell-number"),
    pytest.param(_corpus_with_directory,
                 "ParseError", "zz.json: cannot read: Is a directory", id="corpus-directory-entry"),
    pytest.param(_proposals_with_directory,
                 "ParseError", "inc_0001__m__a.json: cannot read: Is a directory", id="proposals-directory-entry"),
    pytest.param(lambda b, t: _verify_args(b, _directory(b, t)),
                 "ParseError", "d.json: cannot read: Is a directory", id="verify-proposal-directory"),
    pytest.param(_audit("--catalog", _directory),
                 "ParseError", "d.json: cannot read: Is a directory", id="catalog-directory"),
    pytest.param(lambda b, t: [*_config_fields()(b, t), "--policy", _directory(b, t)],
                 "ParseError", "d.json: cannot read: Is a directory", id="policy-directory"),
    pytest.param(lambda b, t: ["evaluate", "--config", _directory(b, t)],
                 "ParseError", "d.json: cannot read: Is a directory", id="config-directory"),
    pytest.param(_audit("--privacy-patterns", _directory),
                 "ParseError", "d.json: cannot read: Is a directory", id="privacy-patterns-directory"),
    pytest.param(_audit("--forbidden-terms", _directory),
                 "ParseError", "d.json: cannot read: Is a directory", id="forbidden-terms-directory"),
    pytest.param(_config_fields(catalog_path="missing.json"),
                 "FileNotFound", "[Errno 2] No such file or directory", id="config-catalog-missing"),
    pytest.param(_contrast_over_directory,
                 "ParseError", "d.json: cannot read: Is a directory", id="contrast-metrics-directory"),
    # Nested deeper than the JSON decoder can recurse: a named error, not a RecursionError.
    pytest.param(lambda b, t: _verify_args(b, _nested_proposal(b, t)),
                 "ParseError", "proposal for inc_0007: not valid JSON: nested too deeply", id="verify-nested-proposal"),
    pytest.param(_with(_config_fields(), "--proposals-dir", _proposals_with_nested),
                 "ParseError", "proposal for inc_0001: not valid JSON: nested too deeply",
                 id="evaluate-nested-proposal"),
    pytest.param(_with(_config_fields(), "--corpus-dir", _corpus_with_nested),
                 "ReleaseGateFailed", "release gate failed: privacy=True parseability=False",
                 id="evaluate-nested-package"),
    pytest.param(_with(_activation, "--corpus-dir", _corpus_with_nested),
                 "ParseError", "inc_0001.json: invalid JSON: nested too deeply", id="activation-nested-package"),
    pytest.param(_contrast("[" * DEEP), "ParseError", "metrics.jsonl:2: not valid JSON: nested too deeply",
                 id="contrast-nested-line"),
    # An output path that cannot be written: IoError naming it.
    pytest.param(_with(_verify_proposal, "--output", _directory),
                 "IoError", "cannot write ", id="verify-output-directory"),
    pytest.param(_with(_config_fields(), "--output-dir", _file),
                 "IoError", "cannot create output directory ", id="evaluate-output-dir-file"),
    pytest.param(_audit("--output-dir", _file),
                 "IoError", "cannot create output directory ", id="audit-output-dir-file"),
    pytest.param(lambda b, t: ["map", "--corpus-dir", str(b / "corpus"), "--catalog", str(b / "catalog.json"),
                               "--mapping-rules", str(b / "mapping_rules.json"), "--output-dir", _file(b, t)],
                 "IoError", "cannot create output directory ", id="map-output-dir-file"),
    pytest.param(_with(_contrast('{"model_id": "m", "arm": "b", "incident_id": "inc_0001", "violated": false}'),
                       "--output", _directory),
                 "IoError", "cannot write ", id="contrast-output-directory"),
    pytest.param(_report_into_directory, "IoError", "cannot write ", id="report-out-directory"),
    pytest.param(_with(_activation, "--output-dir", _file),
                 "IoError", "cannot create output directory ", id="activation-output-dir-file"),
    pytest.param(lambda b, t: ["make-fixtures", "--dest", _file(b, t)],
                 "IoError", "cannot create output directory ", id="make-fixtures-dest-file"),
    # A directory flag that names a file or a missing path.
    pytest.param(_with(_verify_proposal, "--corpus-dir", _file), "CorpusNotFound", "", id="verify-corpus-dir-file"),
    pytest.param(_audit("--corpus-dir", _file), "CorpusNotFound", "", id="audit-corpus-dir-file"),
    pytest.param(lambda b, t: ["map", "--corpus-dir", _file(b, t), "--catalog", str(b / "catalog.json"),
                               "--mapping-rules", str(b / "mapping_rules.json"), "--output-dir", str(t / "out")],
                 "CorpusNotFound", "", id="map-corpus-dir-file"),
    pytest.param(_with(_activation, "--corpus-dir", _file), "CorpusNotFound", "", id="activation-corpus-dir-file"),
    pytest.param(_with(_activation, "--plan-source", lambda b, t: "proposals", "--proposals-dir", _file),
                 "ProposalsNotFound", "", id="activation-proposals-dir-file"),
    pytest.param(lambda b, t: ["report", "--output-dir", _file(b, t)],
                 "OutputDirNotFound", "", id="report-output-dir-file"),
    pytest.param(lambda b, t: ["report", "--output-dir", str(b), "--defer-dir", _file(b, t)],
                 "OutputDirNotFound", "", id="report-defer-dir-file"),
    pytest.param(_with(_config_fields(), "--corpus-dir", lambda b, t: "absent"),
                 "ConfigInvalid", "corpus_dir absent is not a directory", id="evaluate-corpus-dir-missing"),
    pytest.param(_with(_config_fields(), "--corpus-dir", _file),
                 "ConfigInvalid", "corpus_dir ", id="evaluate-corpus-dir-file"),
    pytest.param(_with(_config_fields(), "--proposals-dir", _file),
                 "ConfigInvalid", "proposals_dir ", id="evaluate-proposals-dir-file"),
]


@pytest.mark.parametrize("argv, error, message", MALFORMED_INPUTS)
def test_malformed_input_is_a_named_exit_1_error(bundle, tmp_path, capsys, argv, error, message):
    assert main(argv(bundle, tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{error}: {message}")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()
