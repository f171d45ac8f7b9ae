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
from .errors import ConfigInvalid, ParseError
from .mapping import MappingRule, map_tasks
from .plans import ProposedPlan
from .util import canonical_json, read_entry, read_json, record_json, sha256_text

# The regex parser is re._parser from Python 3.11 and re.sre_parse before; POSSESSIVE_REPEAT (a*+) is 3.11+.
_sre_parse = getattr(re, "_parser", None) or re.sre_parse
_REPEATS = {_sre_parse.MAX_REPEAT, _sre_parse.MIN_REPEAT, getattr(_sre_parse, "POSSESSIVE_REPEAT", None)}

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
    """(location, value) of each string leaf of ``obj``, in document order.

    Walks with its own stack, so any document the JSON decoder accepts can
    be walked, however deeply it nests.
    """
    stack = [(path, obj)]
    while stack:
        path, obj = stack.pop()
        if isinstance(obj, str):
            yield path, obj
        elif isinstance(obj, Mapping):
            stack.extend((f"{path}.{key}", value) for key, value in reversed(list(obj.items())))
        elif isinstance(obj, (list, tuple)):
            stack.extend((f"{path}[{idx}]", obj[idx]) for idx in reversed(range(len(obj))))


def _collect_values(obj, values: dict[str, None]) -> None:
    """Add each string leaf of ``obj`` to ``values``.

    Visits the leaves ``_iter_strings`` visits, in no set order, with its
    own stack, and builds no locations.
    """
    stack = [obj]
    while stack:
        obj = stack.pop()
        if isinstance(obj, str):
            values[obj] = None
        elif isinstance(obj, Mapping):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)


def required_characters(regex: re.Pattern) -> str:
    """Characters that every match of ``regex`` consumes, sorted, read conservatively from its parse.

    A literal counts, a group unless it turns on IGNORECASE, a repeat with a minimum of 1 or more, an
    alternation with what all its branches need; nothing else, and nothing under a global IGNORECASE.
    """
    if regex.flags & re.IGNORECASE or not _PARSE_READABLE:
        return ""
    return "".join(sorted(_required(_sre_parse.parse(regex.pattern, regex.flags))))


def _required(items) -> set[str]:
    chars: set[str] = set()
    for op, av in items:
        if op is _sre_parse.LITERAL:
            chars.add(chr(av))
        elif op is _sre_parse.SUBPATTERN and not av[1] & re.IGNORECASE:
            chars |= _required(av[3])
        elif op in _REPEATS and av[0]:
            chars |= _required(av[2])
        elif op is _sre_parse.BRANCH:
            chars |= set.intersection(*map(_required, av[1]))
    return chars


def _reads_probe() -> bool:
    """Whether ``_required`` still reads the private parse layout (a group's flags, a repeat's minimum)."""
    try:
        return _required(_sre_parse.parse(r"a(?i:b)c?(?:gh|hi)(k)+")) == {"a", "h", "k"}
    except Exception:
        return False


_PARSE_READABLE = _reads_probe()  # where not, no pattern requires anything

ScanInputs = tuple[list[tuple[str, re.Pattern, str]], list[tuple[str, str]]]


def prepare_scan(forbidden_terms: Sequence[str] = (), patterns: Mapping[str, str | re.Pattern] | None = None) -> ScanInputs:
    """``privacy_scan``'s inputs, built once for many calls: (kind, regex, required characters)
    in kind order, and (term, lowered term) per non-empty term."""
    if patterns is None:
        patterns = DEFAULT_PRIVACY_PATTERNS
    compiled = [(kind, re.compile(expr)) for kind, expr in sorted(patterns.items())]
    return (
        [(kind, regex, required_characters(regex)) for kind, regex in compiled],
        [(term, term.lower()) for term in forbidden_terms if term],
    )


def privacy_scan(documents: Iterable[tuple[str, object]], scan: ScanInputs) -> list[PrivacyFinding]:
    """Scan every text field of every document; deterministic finding order.

    ``documents`` is an iterable of (document_ref, parsed JSON object), and
    ``scan`` the patterns and terms as ``prepare_scan`` returns them.
    Findings, not errors: an empty list means the scan passed.

    Each string value is matched on its own, so ``^`` and ``$`` anchor to
    that value. Per document, each distinct value is matched once: one
    ``search`` sweep per pattern, over the values holding all its
    ``required_characters`` (none if no value holds one), and one substring sweep per term mark the
    values that hit. Only if some value hit is the document walked again
    with locations, and findings are built for each leaf holding a marked
    value. A value has findings exactly when it is marked.
    Forbidden terms match case-insensitively; their positions and excerpts
    refer to the original value, also where lowering changes its length.
    """
    compiled, terms = scan
    findings: list[PrivacyFinding] = []
    for document_ref, obj in documents:
        distinct: dict[str, None] = {}
        _collect_values(obj, distinct)
        texts = list(distinct)
        # A pattern requiring a character that no value holds cannot match here;
        # otherwise it is searched in the values holding all its required characters.
        held = "".join(texts)
        marked: set[str] = set()
        for _, regex, required in compiled:
            if all(char in held for char in required):
                candidates = texts
                for char in required:
                    candidates = list(compress(candidates, map(operator.contains, candidates, repeat(char))))
                marked.update(compress(candidates, map(regex.search, candidates)))
        if terms:
            lowered_texts = [text.lower() for text in texts]
            for _, needle in terms:
                marked.update(compress(texts, map(operator.contains, lowered_texts, repeat(needle))))
        if not marked:
            continue
        for path, text in _iter_strings(obj, document_ref):
            if text not in marked:
                continue
            for kind, regex, _ in compiled:
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
            for term, needle in terms:
                start = 0
                while True:
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
    compile, and ``ParseError`` naming either file when it cannot be read
    as a file and the term file when it is not UTF-8.
    """
    patterns = _compile_patterns(Path(patterns_path)) if patterns_path else None
    terms: tuple[str, ...] = ()
    if terms_path:
        terms_path = Path(terms_path)
        try:
            text = read_entry(terms_path).decode("utf-8")
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
        self.scan = prepare_scan(forbidden_terms, patterns)
        self.files = 0
        self.findings = 0
        self.parse_failures: list[str] = []
        self.unmatched = 0
        self.ambiguous = 0
        self.gaps: dict[str, int] = {}

    def add(self, package: PackageFile) -> None:
        self.files += 1
        # Every parsed document is scanned, schema-valid or not.
        self.findings += len(privacy_scan([(package.name, package.document)], self.scan))
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

def build_manifest(files: Mapping[str, str], *, extra: Mapping | None = None) -> dict:
    """Filename -> SHA-256 manifest with a content digest.

    ``files`` maps each input's file name to the SHA-256 of the bytes its
    loader parsed, so the manifest names exactly the inputs the run used.
    The timestamp is a sidecar field excluded from the content digest, so
    manifests of identical inputs compare equal where it matters.
    """
    body = {"files": dict(files), "tool_version": _tool_version}
    if extra:
        body.update(extra)
    content_sha = sha256_text(canonical_json(body))
    manifest = dict(body)
    manifest["content_sha256"] = content_sha
    manifest["generated_at"] = datetime.now(timezone.utc).isoformat()
    return manifest
