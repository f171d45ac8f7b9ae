"""SHA-256 digests: the built-in hasher, and hashing only where a digest is written."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import planvet
from planvet import util
from planvet.cli import main
from planvet.util import sha256_bytes, sha256_text

BUILTIN_SHA256 = any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256"))


@pytest.mark.parametrize(
    "data",
    [b"", b"abc", bytes(range(256)) * 4096],  # the last is 1 MB, every byte value
    ids=["empty", "abc", "1MB"],
)
def test_sha256_bytes_equals_hashlib(data):
    assert sha256_bytes(data) == hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("text", ["", "abc", "café über 日本 \U0001f512"], ids=["empty", "ascii", "non-ascii"])
def test_sha256_text_equals_hashlib_over_utf8(text):
    assert sha256_text(text) == hashlib.sha256(text.encode("utf-8")).hexdigest()


def _verify_argv(bundle, proposal):
    return ["verify", str(proposal), "--catalog", str(bundle / "catalog.json"),
            "--policy", str(bundle / "policy.json"), "--corpus-dir", str(bundle / "corpus"),
            "--incident-id", "inc_0007"]


def _audit_argv(bundle, out):
    return ["audit", "--corpus-dir", str(bundle / "corpus"), "--catalog", str(bundle / "catalog.json"),
            "--mapping-rules", str(bundle / "mapping_rules.json"), "--output-dir", str(out)]


def _evaluate_argv(bundle, out):
    return ["evaluate", "--config", str(bundle / "config.json"),
            "--privacy-patterns", str(bundle / "privacy_patterns.json"),
            "--forbidden-terms", str(bundle / "forbidden_terms.txt"), "--output-dir", str(out)]


def _activation_argv(bundle, out):
    return ["activation-check", "--corpus-dir", str(bundle / "corpus"),
            "--catalog", str(bundle / "richer" / "candidate_catalog.json"),
            "--policy", str(bundle / "richer" / "candidate_policy.json"), "--plan-source", "all",
            "--proposals-dir", str(bundle / "proposals"), "--probes", str(bundle / "richer" / "probe_plans.json"),
            "--output-dir", str(out)]


def _map_argv(bundle, out):
    return ["map", "--corpus-dir", str(bundle / "corpus"), "--catalog", str(bundle / "catalog.json"),
            "--mapping-rules", str(bundle / "mapping_rules.json"), "--output-dir", str(out)]


@pytest.fixture()
def proposal(tmp_path):
    path = tmp_path / "proposal.json"
    path.write_text(json.dumps({"recommended_actions": ["restore_host"]}))
    return path


@pytest.mark.skipif(not BUILTIN_SHA256, reason="this interpreter has no built-in SHA-256 module")
def test_commands_leave_hashlib_unloaded(bundle, proposal, tmp_path):
    argvs = [_verify_argv(bundle, proposal), _audit_argv(bundle, tmp_path / "audit"),
             _evaluate_argv(bundle, tmp_path / "evaluate")]
    code = (
        "import json, sys\n"
        "from planvet.cli import main\n"
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, sorted({'hashlib', '_hashlib'} & sys.modules.keys())]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(planvet.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)],
                         env=env, capture_output=True, text=True, check=True)
    codes, loaded = json.loads(out.stdout.splitlines()[-1])
    assert codes == [3, 0, 0]
    assert loaded == []


@pytest.fixture()
def hashed(monkeypatch):
    """Every byte string the planvet hasher is given, counted."""
    seen: Counter[bytes] = Counter()
    real = util._sha256

    def counting(data):
        seen[bytes(data)] += 1
        return real(data)

    monkeypatch.setattr(util, "_sha256", counting)
    return seen


def _corpus_bytes(bundle):
    return {path.read_bytes() for path in (bundle / "corpus").glob("*.json")}


def test_evaluate_hashes_each_corpus_file_once(bundle, tmp_path, hashed):
    packages = _corpus_bytes(bundle)
    assert len(packages) == 200
    assert main(_evaluate_argv(bundle, tmp_path / "out")) == 0
    assert Counter(hashed[data] for data in packages) == {1: 200}  # times hashed -> files


@pytest.mark.parametrize("argv", [_audit_argv, _activation_argv, _map_argv])
def test_commands_without_a_corpus_manifest_hash_no_package(bundle, tmp_path, hashed, argv):
    assert main(argv(bundle, tmp_path / "out")) == 0
    assert not _corpus_bytes(bundle) & hashed.keys()


def test_verify_hashes_no_package(bundle, proposal, hashed):
    assert main(_verify_argv(bundle, proposal)) == 3
    assert not _corpus_bytes(bundle) & hashed.keys()


def test_digests_are_taken_from_the_parsed_bytes(bundle, official_eval):
    manifest = json.loads((Path(official_eval.config.output_dir) / "corpus_manifest.json").read_text())
    assert manifest == {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in sorted((bundle / "corpus").glob("*.json"))
    }
