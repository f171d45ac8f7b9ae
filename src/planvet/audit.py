"""Release gates, rule-activation checks, and hash manifests.

The privacy scanner is exactly that: a scanner that reports findings with
masked excerpts. Tokenization and anonymization happen on the private side
of the release boundary and are out of scope here.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import compress, repeat
from pathlib import Path

from . import __version__ as _tool_version
from .catalog import ActionCatalog, ValidatedPolicy
from .corpus import PROXY_APPROVAL_SOURCE, Corpus, PackageFile, TaskRecord, read_packages
from .engine import MODE_DEFER, MODE_REMOVE, enforce_modes, order_chain_depth
from .errors import ConfigInvalid, IoError, ParseError
from .mapping import MappingRule, map_tasks
from .plans import ProposedPlan
from .util import canonical_json, read_json, record_json, sha256_file, sha256_text

# Declared baseline pattern set, versioned and hash-tracked. Hostname and
# user-id shapes are necessarily heuristic; the pattern file is an input,
# not ground truth.
DEFAULT_PRIVACY_PATTERNS: dict[str, str] = {
    "email": r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}",
    "ipv4": r"\b(?:\d{1,3}\.){3}\d{1,3}\b",
    "ipv6": r"\b(?:[0-9A-Fa-f]{1,4}:){2,7}[0-9A-Fa-f]{1,4}\b",
    "phone": r"\+\d{7,15}\b|\b\d{3}[-.]\d{3}[-.]\d{4}\b",
    "hostname": r"\b[a-z0-9][a-z0-9-]*(?:\.[a-z0-9][a-z0-9-]*)+\.(?:com|net|org|io|corp|local|internal|example|lan)\b",
    "user_id": r"\b(?:uid|user)[-_]\d{3,}\b",
}


@dataclass(frozen=True)
class PrivacyFinding:
    document_ref: str
    kind: str
    excerpt: str  # masked so findings never re-leak
    position: int


@dataclass
class GateReport:
    privacy_pass: bool
    privacy_finding_count: int
    parseability_pass: bool
    parse_failures: list[str]
    mapping_pass: bool
    unmatched_tasks: int
    ambiguous_tasks: int
    approval_gaps: list[dict]
    empty_corpus: bool = False

    @property
    def overall_pass(self) -> bool:
        return self.privacy_pass and self.parseability_pass and self.mapping_pass

    def to_json_obj(self) -> dict:
        return {**record_json(self), "overall_pass": self.overall_pass}


@dataclass
class ActivationReport:
    candidate_actions: int
    candidate_rules: int
    activated_rules: tuple[str, ...]
    repair_mode_coverage: tuple[str, ...]
    max_chain_depth: int
    plans_checked: int = 0

    to_json_obj = record_json


# ---------------------------------------------------------------------------
# Privacy scanning
# ---------------------------------------------------------------------------

def mask_excerpt(text: str) -> str:
    if len(text) <= 4:
        return "*" * len(text)
    return text[:2] + "*" * (len(text) - 4) + text[-2:]


def _iter_strings(obj, path: str):
    if isinstance(obj, str):
        yield path, obj
    elif isinstance(obj, Mapping):
        for key in obj:
            yield from _iter_strings(obj[key], f"{path}.{key}")
    elif isinstance(obj, (list, tuple)):
        for idx, item in enumerate(obj):
            yield from _iter_strings(item, f"{path}[{idx}]")


def privacy_scan(
    documents: Iterable[tuple[str, object]],
    forbidden_terms: Sequence[str] = (),
    patterns: Mapping[str, str | re.Pattern] | None = None,
) -> list[PrivacyFinding]:
    """Scan every text field of every document; deterministic finding order.

    ``documents`` is an iterable of (document_ref, parsed JSON object).
    Findings, not errors: an empty list means the scan passed.

    Each string value is matched on its own, so ``^`` and ``$`` anchor to
    that value. Per document, one ``search`` sweep per pattern and one
    substring sweep per term mark the values that hit; only those are
    scanned for findings. A value has findings exactly when it is marked.
    Forbidden terms match case-insensitively; their positions and excerpts
    refer to the original value, also where lowering changes its length.
    """
    if patterns is None:
        patterns = DEFAULT_PRIVACY_PATTERNS
    compiled = [(kind, re.compile(expr)) for kind, expr in sorted(patterns.items())]
    needles = [term.lower() for term in forbidden_terms if term]
    findings: list[PrivacyFinding] = []
    for document_ref, obj in documents:
        leaves = list(_iter_strings(obj, document_ref))
        texts = [text for _, text in leaves]
        indices = range(len(texts))
        marked: set[int] = set()
        for _, regex in compiled:
            marked.update(compress(indices, map(regex.search, texts)))
        if needles:
            lowered_texts = [text.lower() for text in texts]
            for needle in needles:
                marked.update(compress(indices, map(operator.contains, lowered_texts, repeat(needle))))
        for index in sorted(marked):
            path, text = leaves[index]
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
            # Lowering can lengthen a value ('İ' becomes two characters): then
            # map each offset in the lowered text to the character it came from.
            origin = None if len(lowered) == len(text) else [i for i, ch in enumerate(text) for _ in ch.lower()]
            for term in forbidden_terms:
                start = 0
                needle = term.lower()
                while needle:
                    found = lowered.find(needle, start)
                    if found < 0:
                        break
                    position = found if origin is None else origin[found]
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


# ---------------------------------------------------------------------------
# Release gate
# ---------------------------------------------------------------------------

def load_gate_inputs(
    patterns_path: Path | str | None, terms_path: Path | str | None
) -> tuple[dict[str, re.Pattern] | None, tuple[str, ...]]:
    """Read the privacy pattern file and the forbidden-term list (one term per line).

    The pattern file is a JSON object of kind -> regular expression; each
    pattern is compiled here, once. Raises ``ConfigInvalid`` naming the
    file (and the kind) for any other document or a pattern that does not
    compile, and ``ParseError`` naming the term file when it is not UTF-8.
    """
    patterns = _compile_patterns(Path(patterns_path)) if patterns_path else None
    terms: tuple[str, ...] = ()
    if terms_path:
        terms_path = Path(terms_path)
        try:
            text = terms_path.read_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{terms_path.name}: not valid UTF-8: {exc}") from None
        terms = tuple(line.strip() for line in text.splitlines() if line.strip())
    return patterns, terms


def _compile_patterns(path: Path) -> dict[str, re.Pattern]:
    document = read_json(path)
    if not isinstance(document, dict):
        raise ConfigInvalid(
            f"{path.name}: privacy patterns must be a JSON object of kind -> regular expression"
        )
    compiled: dict[str, re.Pattern] = {}
    for kind, expr in document.items():
        if not isinstance(expr, str):
            raise ConfigInvalid(f"{path.name}: pattern for kind {kind!r} must be a string, got {expr!r}")
        try:
            compiled[kind] = re.compile(expr)
        except re.error as exc:
            raise ConfigInvalid(
                f"{path.name}: pattern for kind {kind!r} does not compile: {exc}"
            ) from None
    return compiled


class ReleaseGate:
    """Privacy, parseability and mapping gates, fed one package file at a time.

    ``add`` takes each ``PackageFile`` of a corpus pass (see
    ``corpus.read_packages``); ``report`` gives the verdict once every file
    has been added. Feeding the gate from the loader's pass lets one read
    of each file serve both.

    Also surfaces approval-gap suggestions: approval-gated catalog actions
    executed in some baseline whose only approval evidence is the mapping
    contract proxy (or none at all). Suggestions are candidates for manual
    review, never auto-activated, and do not fail the gate.
    """

    def __init__(
        self,
        catalog: ActionCatalog,
        mapping_rules: Sequence[MappingRule],
        *,
        forbidden_terms: Sequence[str] = (),
        patterns: Mapping[str, str | re.Pattern] | None = None,
    ) -> None:
        self.catalog = catalog
        self.mapping_rules = mapping_rules
        self.forbidden_terms = forbidden_terms
        self.patterns = patterns
        self.files = 0
        self.findings = 0
        self.parse_failures: list[str] = []
        self.unmatched = 0
        self.ambiguous = 0
        self.gaps: dict[str, int] = {}

    def add(self, package: PackageFile) -> None:
        self.files += 1
        # Every parsed document is scanned, schema-valid or not.
        self.findings += len(
            privacy_scan([(package.name, package.document)], self.forbidden_terms, self.patterns)
        )
        if package.defect is not None:
            self.parse_failures.append(str(package.defect))
            return
        doc = package.document
        tasks = [
            TaskRecord(t["task_id"], t["text"], t["order_index"])
            for t in doc.get("extracted_tasks", ())
        ]
        if tasks:
            result = map_tasks(tasks, self.mapping_rules, self.catalog)
            self.unmatched += len(result.unmatched)
            self.ambiguous += len(result.ambiguous)
        recorded = {
            ev["action_id"] for ev in doc["approvals"] if ev["source"] != PROXY_APPROVAL_SOURCE
        }
        for action in doc["mapped_human_actions"]:
            if (
                action in self.catalog
                and self.catalog.get(action).approval_gate
                and action not in recorded
            ):
                self.gaps[action] = self.gaps.get(action, 0) + 1

    def report(self) -> GateReport:
        return GateReport(
            privacy_pass=not self.findings,
            privacy_finding_count=self.findings,
            parseability_pass=not self.parse_failures,
            parse_failures=list(self.parse_failures),
            mapping_pass=(self.unmatched == 0 and self.ambiguous == 0),
            unmatched_tasks=self.unmatched,
            ambiguous_tasks=self.ambiguous,
            approval_gaps=[
                {
                    "action_id": action,
                    "suggestion": f"require_approval({action})",
                    "baseline_occurrences": count,
                    "note": "historical gap: baseline support carries no recorded approval evidence",
                }
                for action, count in sorted(self.gaps.items())
            ],
            empty_corpus=not self.files,
        )


def release_gate(
    corpus_dir: Path | str,
    catalog: ActionCatalog,
    mapping_rules: Sequence[MappingRule],
    *,
    forbidden_terms: Sequence[str] = (),
    patterns: Mapping[str, str | re.Pattern] | None = None,
) -> GateReport:
    """Run the privacy, parseability, and mapping gates over a corpus directory."""
    gate = ReleaseGate(catalog, mapping_rules, forbidden_terms=forbidden_terms, patterns=patterns)
    for package in read_packages(corpus_dir):
        gate.add(package)
    return gate.report()


# ---------------------------------------------------------------------------
# Activation check
# ---------------------------------------------------------------------------

def activation_check(
    corpus: Corpus,
    policy: ValidatedPolicy,
    plans: Iterable[ProposedPlan],
) -> ActivationReport:
    """Enforce every plan under a candidate policy and report which rules fire.

    Each plan is enforced once for both approval treatments
    (``engine.enforce_modes``), so the report covers every supported repair
    operator. Passes 1 and 2 run once per plan and are the same for both
    treatments, so chain depth is read from the remove-mode result.
    ``plans`` may be any iterable, a generator included: each plan is
    consumed once, in order, and not kept, and ``plans_checked`` counts
    them as they go. An error from producing or enforcing a plan (a
    malformed proposal, an unknown incident) propagates at that plan.
    """
    activated: set[str] = set()
    operators: set[str] = set()
    max_depth = 0
    checked = 0
    repair_to_operator = {"insert": "insert", "insert_before": "insert_before",
                          "remove": "remove", "defer": "defer_to_human_approval"}
    for plan in plans:
        checked += 1
        incident = corpus.get(plan.incident_id)
        removed, deferred = enforce_modes(plan.actions, policy, incident, (MODE_REMOVE, MODE_DEFER))
        for result in (removed, deferred):
            for violation in result.violations:
                activated.add(violation.rule_id)
                operators.add(repair_to_operator[violation.repair])
        max_depth = max(max_depth, order_chain_depth(removed, policy))
    return ActivationReport(
        candidate_actions=len(policy.catalog),
        candidate_rules=len(policy.rules),
        activated_rules=tuple(sorted(activated)),
        repair_mode_coverage=tuple(sorted(operators)),
        max_chain_depth=max_depth,
        plans_checked=checked,
    )


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------

def build_manifest(paths: Sequence[Path | str], *, extra: Mapping | None = None) -> dict:
    """Filename -> SHA-256 manifest with a content digest.

    The timestamp is a sidecar field excluded from the content digest, so
    manifests of identical inputs compare equal where it matters.
    """
    files: dict[str, str] = {}
    for path in paths:
        path = Path(path)
        try:
            files[path.name] = sha256_file(path)
        except OSError as exc:
            raise IoError(f"cannot hash {path}: {exc}") from exc
    body = {"files": files, "tool_version": _tool_version}
    if extra:
        body.update(extra)
    content_sha = sha256_text(canonical_json(body))
    manifest = dict(body)
    manifest["content_sha256"] = content_sha
    manifest["generated_at"] = datetime.now(timezone.utc).isoformat()
    return manifest
