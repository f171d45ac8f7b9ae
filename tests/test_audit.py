"""Privacy scanning, release gates, activation checks, manifests."""

from __future__ import annotations

import json
import re
import sys
from collections.abc import Mapping
from pathlib import Path
from types import MappingProxyType

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from planvet import audit
from planvet.audit import (
    DEFAULT_PRIVACY_PATTERNS,
    PrivacyFinding,
    _iter_strings,
    build_manifest,
    load_gate_inputs,
    mask_excerpt,
    privacy_scan,
    release_gate,
    required_characters,
)
from planvet.errors import IoError, ReleaseGateFailed, SchemaError
from planvet.pipeline import RunConfig, load_gated_corpus
from planvet.util import read_json


class TestPrivacyScan:
    def test_email_and_ipv4_found(self):
        # oracle: the field contains exactly one address of each kind
        doc = {"note": "contact admin@corp.example from 10.1.2.3"}
        findings = privacy_scan([("doc1", doc)])
        kinds = [f.kind for f in findings]
        assert kinds == ["email", "ipv4"]
        assert all("admin@corp.example" not in f.excerpt for f in findings)
        assert findings[0].document_ref == "doc1.note"

    def test_empty_corpus(self):
        assert privacy_scan([]) == []

    def test_forbidden_terms(self):
        findings = privacy_scan(
            [("d", {"x": "refers to Project BLUEHARBOR twice: blueharbor"})],
            forbidden_terms=["blueharbor"],
        )
        assert [f.kind for f in findings] == ["forbidden_term", "forbidden_term"]

    def test_masking_never_reveals_middle(self):
        assert mask_excerpt("admin@corp.example") == "ad**************le"
        assert mask_excerpt("ab") == "**"

    def test_deterministic_order_and_idempotence(self):
        docs = [
            ("b", {"k": "10.0.0.1 then user_1234"}),
            ("a", {"k": "mail me: a@b.example"}),
        ]
        first = privacy_scan(docs)
        second = privacy_scan(list(docs))
        assert first == second
        refs = [f.document_ref for f in first]
        assert refs == sorted(refs)

    def test_nested_fields_scanned(self):
        doc = {"telemetry": [{"command": "curl http://198.51.100.7/x"}]}
        findings = privacy_scan([("p", doc)])
        assert [f.kind for f in findings] == ["ipv4"]
        assert findings[0].document_ref == "p.telemetry[0].command"

    def test_clean_corpus_builds_no_locations(self, bundle, monkeypatch):
        # Locations are built only for a document with a hit; the fixture corpus has none.
        patterns, terms = load_gate_inputs(bundle / "privacy_patterns.json", bundle / "forbidden_terms.txt")
        documents = [(path.name, read_json(path)) for path in sorted((bundle / "corpus").glob("*.json"))]

        def no_locations(obj, path):
            raise AssertionError(f"locations built for {path}")

        monkeypatch.setattr(audit, "_iter_strings", no_locations)
        assert privacy_scan(documents, terms, patterns) == []

    def test_repeated_value_gives_one_finding_per_leaf(self):
        docs = [("d", {"a": "10.1.2.3", "b": ["10.1.2.3", "x", "10.1.2.3"]})]
        findings = privacy_scan(docs)
        assert [(f.document_ref, f.kind) for f in findings] == [("d.a", "ipv4"), ("d.b[0]", "ipv4"), ("d.b[2]", "ipv4")]
        assert findings == reference_privacy_scan(docs)

    def test_prepared_inputs_replace_terms_and_patterns(self):
        docs = [("d", {"a": "ops@corp.com", "b": "Project Nightfall"})]
        prepared = audit.prepare_scan(["nightfall"], {"email": DEFAULT_PRIVACY_PATTERNS["email"]})
        assert privacy_scan(docs, prepared=prepared) == privacy_scan(
            docs, ["nightfall"], {"email": DEFAULT_PRIVACY_PATTERNS["email"]}
        )
        with pytest.raises(TypeError, match="not both"):
            privacy_scan(docs, ["other"], prepared=prepared)
        with pytest.raises(TypeError, match="not both"):
            privacy_scan(docs, patterns={}, prepared=prepared)


def reference_privacy_scan(documents, forbidden_terms=(), patterns=None):
    """The scan as first written, every pattern and term over every string leaf,
    with forbidden-term offsets mapped back from the lowered text."""
    if patterns is None:
        patterns = DEFAULT_PRIVACY_PATTERNS
    compiled = [(kind, re.compile(expr)) for kind, expr in sorted(patterns.items())]
    findings = []
    for document_ref, obj in documents:
        for path, text in _iter_strings(obj, document_ref):
            for kind, regex in compiled:
                for match in regex.finditer(text):
                    findings.append(
                        PrivacyFinding(
                            document_ref=path,
                            kind=kind,
                            excerpt=mask_excerpt(match.group(0)),
                            position=match.start(),
                        )
                    )
            lowered = text.lower()
            # Offsets in the lowered text, mapped back to the original text.
            origin = [i for i, ch in enumerate(text) for _ in ch.lower()]
            for term in forbidden_terms:
                start = 0
                needle = term.lower()
                while needle:
                    found = lowered.find(needle, start)
                    if found < 0:
                        break
                    position = origin[found]
                    findings.append(
                        PrivacyFinding(
                            document_ref=path,
                            kind="forbidden_term",
                            excerpt=mask_excerpt(text[position : position + len(term)]),
                            position=position,
                        )
                    )
                    start = found + 1
    findings.sort(key=lambda f: (f.document_ref, f.position, f.kind))
    return findings


# Fragments that hit the default patterns, case-folding edge cases, and
# words that sit next to (or inside) one another for the anchored patterns.
FRAGMENTS = [
    "a@b.example", "ops@corp.com", "10.1.2.3", "fe80:0:0:0:0:1", "+14155550100", "555-123-4567",
    "db1.corp.internal", "user_1234", "uid-9876", "İstanbul", "i̇", "STRASSE", "straße", "ß", "ss",
    "ΣΙΣΥΦΟΣ", "σίσυφος", "ς", "x", "xx", "ab", "abc", "ba", "a", "b", " ", ".", "",
    # Values holding the characters the patterns below require, so their sweeps run and find something.
    "xBs", "xbs", "a.b", "aa.b", "@x", ".x", "ab.",
]
TEXT = st.lists(st.sampled_from(FRAGMENTS) | st.text("abxsßİΣσς .@-1", max_size=6), max_size=4).map("".join)
KEYS = st.sampled_from(["a", "b", "a.b", "x", "x[0]", "[0]", "", "İ"])
LEAF = TEXT | st.integers() | st.none() | st.booleans() | st.floats(allow_nan=False)
TREE = st.recursive(
    LEAF,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(KEYS, inner, max_size=4)
        | st.dictionaries(KEYS, inner, max_size=3).map(MappingProxyType)  # a Mapping that is not a dict
    ),
    max_leaves=12,
)
# A dict holding both the key "a.b" and the path a -> b gives two leaves one location.
COLLIDING = st.tuples(TEXT, TEXT, TEXT).map(lambda t: {"a.b": t[0], "a": {"b": t[1]}, "x[0]": t[2], "x": [t[0]]})
DOCUMENTS = st.lists(st.tuples(st.sampled_from(["d", "d.a", "e"]), TREE | COLLIDING), min_size=1, max_size=4)
PATTERNS = st.dictionaries(
    st.sampled_from(["email", "ipv4", "anchor", "edge", "look", "empty", "forbidden_term", "z"]),
    st.sampled_from([
        r"^a", r"b$", r"\Aab", r"s\Z", r"\bx\b", r"\Bs", r"(?<=a)b", r"a(?!b)", r"(?<!x)x",
        r"x*", r"ß|ss", r"(?i)σ", r"İ", r"x(?i:b)s", r"(?:ab|ba)\.?", r"a{0,2}\.b", r"(?:@|\.)x",
        *DEFAULT_PRIVACY_PATTERNS.values(),
    ]),
    max_size=4,
) | st.none()
TERMS = st.lists(st.sampled_from(["a", "ab", "abc", "b", "x", "xx", "", "İ", "i̇", "ß", "ss", "SS", "Σ", "σ", "ς"]),
                 max_size=4)


class TestPrivacyScanDifferential:
    """The marked-leaf scan gives exactly the findings of a scan over every leaf."""

    @settings(max_examples=300, deadline=None)
    @given(DOCUMENTS, TERMS, PATTERNS)
    def test_same_findings_as_every_leaf_scan(self, documents, terms, patterns):
        expected = reference_privacy_scan(documents, terms, patterns)
        assume(expected)
        assert privacy_scan(documents, terms, patterns) == expected

    @settings(max_examples=100, deadline=None)
    @given(DOCUMENTS, TERMS, PATTERNS)
    def test_compiled_patterns_give_the_same_findings(self, documents, terms, patterns):
        compiled = None if patterns is None else {k: re.compile(v) for k, v in patterns.items()}
        assert privacy_scan(documents, terms, compiled) == reference_privacy_scan(documents, terms, patterns)

    def test_empty_match_pattern_marks_every_leaf(self):
        docs = [("d", {"a.b": "", "a": {"b": "xx"}, "n": 3, "l": ("x", None)})]
        findings = privacy_scan(docs, (), {"star": "x*"})
        assert findings == reference_privacy_scan(docs, (), {"star": "x*"})
        assert {f.document_ref for f in findings} == {"d.a.b", "d.l[0]"}

    def test_anchors_bind_to_each_value(self):
        docs = [("d", ["ab", "ba", "b a"])]
        patterns = {"start": r"^a", "end": r"a$"}
        findings = privacy_scan(docs, (), patterns)
        assert findings == reference_privacy_scan(docs, (), patterns)
        assert [(f.document_ref, f.kind) for f in findings] == [
            ("d[0]", "start"), ("d[1]", "end"), ("d[2]", "end"),
        ]

    def test_term_offset_is_in_the_original_text(self):
        # 'İ'.lower() is two characters, so the lowered text runs ahead of the original.
        findings = privacy_scan([("d", {"k": "İİ blueharbor"})], ["blueharbor"], {})
        assert findings == [PrivacyFinding("d.k", "forbidden_term", "bl******or", 3)]
        docs = [("d", {"k": "İ BlueHarbor, İİ blueharbor"})]
        findings = privacy_scan(docs, ["blueharbor"], {})
        assert [(f.position, f.excerpt) for f in findings] == [(2, "Bl******or"), (17, "bl******or")]
        assert findings == reference_privacy_scan(docs, ["blueharbor"], {})

    def test_case_folded_terms_keep_their_positions(self):
        docs = [("d", {"k": "İx Straße SS ΣΑΣ"})]
        terms = ["i̇", "ss", "ß", "σ", "s"]
        assert privacy_scan(docs, terms) == reference_privacy_scan(docs, terms)
        assert privacy_scan(docs, terms)

    def test_sweeps_skipped_by_required_characters_keep_every_finding(self):
        # d holds every required character, so each pattern is searched there; e holds no '.',
        # so the email, ipv4 and hostname sweeps are skipped there, and 'x@y' has no match anyway.
        docs = [("d", ["ops@corp.example", "10.0.0.1", "fe80:0:0:1", "xBs", "xbs", "no dots", "a.b"]), ("e", {"k": "x@y"})]
        patterns = {**DEFAULT_PRIVACY_PATTERNS, "fold": r"x(?i:b)s", "dot": r"a{0,2}\.b"}
        findings = privacy_scan(docs, (), patterns)
        assert {f.kind for f in findings} == {"email", "ipv4", "ipv6", "fold", "dot"}
        assert findings == reference_privacy_scan(docs, (), patterns)


def recursive_iter_strings(obj, path):
    """The leaf walk as first written, recursing once per level."""
    if isinstance(obj, str):
        yield path, obj
    elif isinstance(obj, Mapping):
        for key in obj:
            yield from recursive_iter_strings(obj[key], f"{path}.{key}")
    elif isinstance(obj, (list, tuple)):
        for idx, item in enumerate(obj):
            yield from recursive_iter_strings(item, f"{path}[{idx}]")


class TestLeafWalk:
    @settings(max_examples=300, deadline=None)
    @given(TREE | COLLIDING)
    def test_leaves_in_document_order(self, tree):
        assert list(_iter_strings(tree, "d")) == list(recursive_iter_strings(tree, "d"))

    def test_any_depth_is_scanned(self):
        # Deeper than a walk with one Python frame per level can go.
        depth = 5 * sys.getrecursionlimit()
        doc = "blueharbor"
        for _ in range(depth):
            doc = {"k": [doc]}
        findings = privacy_scan([("d", doc)], ["blueharbor"], {})
        assert findings == [PrivacyFinding("d" + ".k[0]" * depth, "forbidden_term", "bl******or", 0)]


# A pattern grammar for the required-character analysis: literals (some
# needing escapes), classes, anchors, lookarounds, scoped and global
# IGNORECASE, backreferences and conditionals on group 1, greedy, lazy and
# (3.11+) possessive repeats, and alternation.
CHARS = "abAB.:@ "
LITERAL = st.sampled_from([*map(re.escape, CHARS)])
ATOM = LITERAL | LITERAL | st.sampled_from(["[ab]", "[^a]", "[.:]", ".", r"\w", "^", "$", r"\b", r"\B"])
QUANTIFIERS = ["*", "+", "?", "{0,2}", "{1,2}", "{2}", "*?", "+?", "??", "{0,2}?", "{1,2}?"]
if sys.version_info >= (3, 11):
    QUANTIFIERS += ["*+", "++", "?+", "{1,2}+"]
BEHIND = st.sampled_from([re.escape(c) for c in CHARS] + ["[ab]"])


def _pattern_grammar(inner):
    concatenation = st.lists(inner, min_size=2, max_size=3).map("".join)
    return (
        concatenation
        | concatenation
        | st.tuples(inner, st.sampled_from(QUANTIFIERS)).map(lambda t: f"(?:{t[0]}){t[1]}")
        | st.lists(inner, min_size=2, max_size=3).map(lambda alts: "(?:" + "|".join(alts) + ")")
        | inner.map(lambda p: f"(?i:{p})")
        | st.tuples(st.sampled_from(["(?=", "(?!"]), inner).map(lambda t: f"{t[0]}{t[1]})")
        | st.tuples(st.sampled_from(["(?<=", "(?<!"]), BEHIND).map(lambda t: f"{t[0]}{t[1]})")
        | st.just(r"\1")
        | st.tuples(inner, inner).map(lambda t: f"(?(1){t[0]}|{t[1]})")
    )


ITEM = st.recursive(ATOM, _pattern_grammar, max_leaves=6)
# Group 1 is closed before the body, so every backreference and conditional compiles.
SOUNDNESS_PATTERN = st.tuples(
    st.sampled_from(["", "", "", "(?i)"]), st.text("abA.:@", max_size=2), st.lists(ITEM, min_size=1, max_size=4)
).map(lambda t: f"{t[0]}({re.escape(t[1])})?{''.join(t[2])}")
SOUNDNESS_VALUES = st.lists(st.text(CHARS, max_size=8), min_size=1, max_size=8)


class TestRequiredCharacters:
    def test_a_misread_parse_layout_requires_nothing(self, monkeypatch):
        regex = re.compile("abc")  # compiled before the parser is patched below
        assert audit._reads_probe()
        monkeypatch.setattr(audit, "_REPEATS", set())  # as if a repeat's fields had moved
        assert not audit._reads_probe()
        monkeypatch.setattr(audit._sre_parse, "parse", lambda *args: [(None, ())])
        assert not audit._reads_probe()
        monkeypatch.setattr(audit, "_PARSE_READABLE", False)
        assert required_characters(regex) == ""

    def test_default_patterns(self):
        required = {kind: required_characters(re.compile(expr)) for kind, expr in DEFAULT_PRIVACY_PATTERNS.items()}
        assert required == {"email": ".@", "ipv4": ".", "ipv6": ":", "phone": "", "hostname": ".", "user_id": "u"}

    @pytest.mark.parametrize(
        "pattern, required",
        [
            ("abc", "abc"), ("a(?i:b)c", "ac"), ("(?i)abc", ""), ("ab|ac", "a"), ("x{0,3}y", "y"),
            ("x{2,}y", "xy"), ("a+?b", "ab"), ("(a)\\1", "a"), ("(?=q)r", "r"), ("(?<!q)r", "r"),
            ("[.]x", ".x"), ("[.:]x", "x"), ("(?x) a b ", "ab"), ("(a)?(?(1)b|c)", ""),
        ],
    )
    def test_reading_of_the_parse(self, pattern, required):
        assert required_characters(re.compile(pattern)) == required

    @settings(max_examples=500, deadline=None)
    @given(SOUNDNESS_PATTERN, SOUNDNESS_VALUES)
    def test_a_value_lacking_a_required_character_has_no_match(self, pattern, values):
        try:
            regex = re.compile(pattern)
        except re.error:
            assume(False)
        required = required_characters(regex)
        for value in values + [value.swapcase() for value in values]:
            if any(char not in value for char in required):
                assert regex.search(value) is None, (pattern, value, required)


class TestReleaseGate:
    def test_official_bundle_passes_with_gap_suggestion(self, bundle, catalog, mapping_rules):
        terms = [
            t for t in (bundle / "forbidden_terms.txt").read_text().splitlines() if t
        ]
        report = release_gate(
            bundle / "corpus", catalog, mapping_rules,
            forbidden_terms=terms,
            patterns=read_json(bundle / "privacy_patterns.json"),
        )
        assert report.overall_pass
        assert report.privacy_finding_count == 0
        assert report.unmatched_tasks == 0 and report.ambiguous_tasks == 0
        suggestions = [g["suggestion"] for g in report.approval_gaps]
        assert suggestions == ["require_approval(isolate_host)"]

    def test_unmatched_task_fails_mapping_gate(self, tmp_path, catalog, mapping_rules):
        from planvet.fixtures import incident_obj

        obj = incident_obj(1)
        obj["extracted_tasks"].append(
            {"task_id": "inc_0001-t99", "text": "emailed the regulator", "order_index": 99}
        )
        (tmp_path / "inc_0001.json").write_text(json.dumps(obj))
        report = release_gate(tmp_path, catalog, mapping_rules)
        assert report.mapping_pass is False
        assert report.overall_pass is False
        assert report.unmatched_tasks == 1

    def test_empty_corpus_passes_vacuously_and_is_flagged(self, tmp_path, catalog, mapping_rules):
        report = release_gate(tmp_path, catalog, mapping_rules)
        assert report.overall_pass
        assert report.empty_corpus is True

    def test_schema_violation_fails_parseability(self, tmp_path, catalog, mapping_rules):
        from planvet.fixtures import incident_obj

        obj = incident_obj(1)
        del obj["telemetry"]
        (tmp_path / "inc_0001.json").write_text(json.dumps(obj))
        report = release_gate(tmp_path, catalog, mapping_rules)
        assert report.parseability_pass is False
        assert "inc_0001.json" in report.parse_failures[0]

    def test_schema_failure_names_file_and_location(self, tmp_path, catalog, mapping_rules):
        from planvet.fixtures import incident_obj

        obj = incident_obj(1)
        obj["telemetry"][0]["event_type"] = 7
        (tmp_path / "inc_0001.json").write_text(json.dumps(obj))
        report = release_gate(tmp_path, catalog, mapping_rules)
        assert report.parse_failures == [
            "inc_0001.json: telemetry/0/event_type: expected a string, got integer"
        ]

    def test_undecodable_file_is_a_parse_failure(self, tmp_path, catalog, mapping_rules):
        (tmp_path / "inc_0001.json").write_bytes(b"\xff\xfe{}")
        report = release_gate(tmp_path, catalog, mapping_rules)
        assert report.parseability_pass is False
        assert report.parse_failures[0].startswith("inc_0001.json: invalid JSON: ")

    def test_each_pattern_is_parsed_once_per_gate(self, bundle, catalog, mapping_rules, monkeypatch):
        patterns, terms = load_gate_inputs(bundle / "privacy_patterns.json", bundle / "forbidden_terms.txt")
        parsed = []
        parse = audit._sre_parse.parse

        def counting_parse(pattern, *args, **kwargs):
            parsed.append(pattern)
            return parse(pattern, *args, **kwargs)

        monkeypatch.setattr(audit._sre_parse, "parse", counting_parse)
        # 200 packages, each scanned with the patterns prepared once.
        report = release_gate(bundle / "corpus", catalog, mapping_rules, forbidden_terms=terms, patterns=patterns)
        assert report.privacy_pass
        assert sorted(parsed) == sorted(regex.pattern for regex in patterns.values())

    def test_gate_is_stable_under_rerun(self, bundle, catalog, mapping_rules):
        first = release_gate(bundle / "corpus", catalog, mapping_rules)
        second = release_gate(bundle / "corpus", catalog, mapping_rules)
        assert first.to_json_obj() == second.to_json_obj()


class TestGatedLoad:
    """``evaluate``'s single pass: one read per file feeds the gate and the loader."""

    @staticmethod
    def _config(bundle, corpus_dir, **overrides):
        return RunConfig.from_json(bundle / "config.json", corpus_dir=str(corpus_dir), **overrides)

    @staticmethod
    def _corpus(directory, *objs):
        directory.mkdir()
        for obj in objs:
            (directory / f"{obj['incident_id']}.json").write_text(json.dumps(obj))
        return directory

    def test_each_corpus_file_is_opened_once(self, bundle, catalog, mapping_rules, monkeypatch):
        import builtins
        import io

        corpus_dir = bundle / "corpus"
        opened = []
        real_open = io.open

        def counting_open(file, *args, **kwargs):
            if Path(str(file)).parent == corpus_dir:
                opened.append(Path(str(file)).name)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(io, "open", counting_open)
        monkeypatch.setattr(builtins, "open", counting_open)
        corpus = load_gated_corpus(self._config(bundle, corpus_dir), catalog, mapping_rules)
        assert len(corpus) == 200
        assert sorted(opened) == sorted(p.name for p in corpus_dir.glob("*.json"))

    def test_gate_failure_outranks_loader_defect(self, bundle, tmp_path, catalog, mapping_rules):
        from planvet.fixtures import incident_obj

        broken = incident_obj(2)
        broken["phase_id"] = "Open"
        corpus_dir = self._corpus(tmp_path / "c", incident_obj(1), broken)
        with pytest.raises(ReleaseGateFailed, match="parseability=False"):
            load_gated_corpus(self._config(bundle, corpus_dir), catalog, mapping_rules)
        with pytest.raises(SchemaError, match="phase gate"):
            load_gated_corpus(self._config(bundle, corpus_dir, skip_gates=True), catalog, mapping_rules)

    def test_loader_defect_raised_when_gate_passes(self, bundle, tmp_path, catalog, mapping_rules):
        from planvet.fixtures import incident_obj

        corpus_dir = self._corpus(tmp_path / "c", incident_obj(1))
        (corpus_dir / "inc_0001.json").rename(corpus_dir / "renamed.json")
        assert release_gate(corpus_dir, catalog, mapping_rules).overall_pass
        with pytest.raises(SchemaError, match="filename"):
            load_gated_corpus(self._config(bundle, corpus_dir), catalog, mapping_rules)


class TestBuildManifest:
    def test_identical_inputs_identical_content_digest(self, bundle):
        paths = [bundle / "catalog.json", bundle / "policy.json"]
        first = build_manifest(paths)
        second = build_manifest(paths)
        assert first["content_sha256"] == second["content_sha256"]
        assert first["files"] == second["files"]

    def test_one_changed_byte_changes_only_that_entry(self, tmp_path, bundle):
        a = tmp_path / "catalog.json"
        b = tmp_path / "policy.json"
        a.write_text((bundle / "catalog.json").read_text())
        b.write_text((bundle / "policy.json").read_text())
        before = build_manifest([a, b])
        b.write_text(b.read_text() + " ")
        after = build_manifest([a, b])
        assert before["files"]["catalog.json"] == after["files"]["catalog.json"]
        assert before["files"]["policy.json"] != after["files"]["policy.json"]
        assert before["content_sha256"] != after["content_sha256"]

    def test_three_entry_manifest(self, bundle):
        manifest = build_manifest(
            [bundle / "catalog.json", bundle / "policy.json", bundle / "mapping_rules.json"]
        )
        assert len(manifest["files"]) == 3

    def test_unreadable_file_raises(self, tmp_path):
        with pytest.raises(IoError):
            build_manifest([tmp_path / "missing.json"])
