"""Canonical incident packages: the public, auditable evidence surface.

One JSON file per incident, filename ``<incident_id>.json``. Each file is
read once: its SHA-256 is taken from the bytes that are parsed, and the
document is checked against ``schema/incident_package.json`` by a stdlib
validator compiled from that schema. Packages are immutable after load;
loading is order-deterministic (lexicographic incident id) and records the
per-file digests for manifests.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, field
from functools import cache
from importlib import resources
from pathlib import Path
from typing import Callable, Iterator, Mapping

from .catalog import ActionCatalog
from .errors import IncidentNotFound, ParseError, SchemaError
from .plans import ARM_NONE, SOURCE_BASELINE, ProposedPlan
from .util import decode_json, json_names, read_entry, sha256_bytes

# Approval evidence derived from the task-to-action contract rather than
# from recorded approval logs. The verifier accepts it; the release gate
# treats it as historical absence when suggesting candidate rules.
PROXY_APPROVAL_SOURCE = "mapping_contract_proxy"


@dataclass(frozen=True, slots=True)
class TelemetryEvent:
    event_type: str
    command: str = ""
    indicators: tuple[str, ...] = ()
    labels: tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class ApprovalEvidence:
    action_id: str
    source: str
    note: str = ""


@dataclass(frozen=True, slots=True)
class TaskRecord:
    task_id: str
    text: str
    order_index: int


@dataclass(frozen=True, slots=True)
class IncidentPackage:
    incident_id: str
    category: str
    severity: str
    asset_criticality: str  # proxy field, reporting context only
    phase_id: str
    telemetry: tuple[TelemetryEvent, ...]
    case_metadata: Mapping[str, str]
    mapped_human_actions: tuple[str, ...]
    approvals: tuple[ApprovalEvidence, ...]
    extracted_tasks: tuple[TaskRecord, ...] = ()
    quality_trace: Mapping | None = None

    def approved_actions(self) -> frozenset[str]:
        return frozenset(ev.action_id for ev in self.approvals)


@dataclass(frozen=True)
class Corpus:
    """Loaded corpus: packages in incident-id order plus per-file digests."""

    packages: tuple[IncidentPackage, ...]
    digests: Mapping[str, str] = field(default_factory=dict)  # filename -> sha256
    _by_id: Mapping[str, IncidentPackage] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_id: dict[str, IncidentPackage] = {}
        for pkg in self.packages:
            by_id.setdefault(pkg.incident_id, pkg)  # a repeated id resolves to its first package
        object.__setattr__(self, "_by_id", by_id)

    def __iter__(self) -> Iterator[IncidentPackage]:
        return iter(self.packages)

    def __len__(self) -> int:
        return len(self.packages)

    def get(self, incident_id: str) -> IncidentPackage:
        try:
            return self._by_id[incident_id]
        except KeyError:
            raise IncidentNotFound(incident_id) from None


# ---------------------------------------------------------------------------
# Package schema
# ---------------------------------------------------------------------------

# The draft-07 keywords the validator implements, per declared type. Every
# schema node must declare one of these types; any other keyword is refused
# when the schema is compiled, so the published contract cannot say more
# than the validator checks.
_KEYWORDS = {
    "object": {"required", "properties", "additionalProperties"},
    "array": {"items"},
    "string": {"minLength", "const"},
    "integer": {"minimum"},
}
_ANNOTATIONS = {"type", "$schema", "title", "description"}

_JSON_TYPE_NAMES = {dict: "object", list: "array", str: "string", bool: "boolean",
                    int: "integer", float: "number", type(None): "null"}


class _Defect(Exception):
    """First schema defect; ``path`` grows from the leaf up while unwinding."""

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.message = message
        self.path: list[str | int] = []


def _expected(kind: str, value: object) -> _Defect:
    return _Defect(f"expected {kind}, got {_JSON_TYPE_NAMES.get(type(value), type(value).__name__)}")


def _compile(node: object) -> Callable[[object], None]:
    """Turn one schema node into a check that raises ``_Defect`` at the first failure.

    A node's own defects are found before its children's; children are
    checked in document order.
    """
    kind = node.get("type") if isinstance(node, dict) else None
    if kind not in _KEYWORDS:
        raise ValueError(f"package schema: unsupported node {node!r}")
    unsupported = node.keys() - _KEYWORDS[kind] - _ANNOTATIONS
    if unsupported:
        raise ValueError(f"package schema: unsupported keywords {sorted(unsupported)}")
    check = _COMPILERS[kind](node)
    note = node.get("description")
    if note is None:
        return check

    def described(value: object) -> None:
        try:
            check(value)
        except _Defect as defect:
            if not defect.path:  # the node's own defect, not a child's
                defect.message += f" ({note})"
            raise

    return described


def _compile_object(node: dict) -> Callable[[object], None]:
    required = tuple(node.get("required", ()))
    required_set = frozenset(required)
    properties = {key: _compile(sub) for key, sub in node.get("properties", {}).items()}
    additional = node.get("additionalProperties", True)
    closed = additional is False
    allowed = frozenset(properties)
    check_additional = None if isinstance(additional, bool) else _compile(additional)

    def check(value: object) -> None:
        if not isinstance(value, dict):
            raise _expected("an object", value)
        keys = value.keys()
        if not keys >= required_set:
            missing = next(key for key in required if key not in value)
            raise _Defect(f"missing required field {missing!r}")
        if closed and not keys <= allowed:
            raise _Defect(f"unexpected field {min(keys - allowed)!r}")
        for key, item in value.items():
            sub = properties.get(key, check_additional)
            if sub is not None:
                try:
                    sub(item)
                except _Defect as defect:
                    defect.path.append(key)
                    raise

    return check


def _compile_array(node: dict) -> Callable[[object], None]:
    check_item = _compile(node["items"]) if "items" in node else None

    def check(value: object) -> None:
        if not isinstance(value, list):
            raise _expected("an array", value)
        if check_item is not None:
            for index, item in enumerate(value):
                try:
                    check_item(item)
                except _Defect as defect:
                    defect.path.append(index)
                    raise

    return check


def _compile_string(node: dict) -> Callable[[object], None]:
    min_length = node.get("minLength", 0)
    const = node.get("const")
    if const is not None and not isinstance(const, str):
        raise ValueError(f"package schema: non-string const {const!r}")

    def check(value: object) -> None:
        if not isinstance(value, str):
            raise _expected("a string", value)
        if len(value) < min_length:
            raise _Defect(f"must have at least {min_length} character(s)")
        if const is not None and value != const:
            raise _Defect(f"must be {const!r}, got {value!r}")

    return check


def _compile_integer(node: dict) -> Callable[[object], None]:
    minimum = node.get("minimum")

    def check(value: object) -> None:
        # Draft 7 counts integral floats such as 1.0 as integers; booleans never.
        if isinstance(value, bool) or not (
            isinstance(value, int) or (isinstance(value, float) and value.is_integer())
        ):
            raise _expected("an integer", value)
        if minimum is not None and value < minimum:
            raise _Defect(f"must be >= {minimum}, got {value!r}")

    return check


_COMPILERS = {
    "object": _compile_object,
    "array": _compile_array,
    "string": _compile_string,
    "integer": _compile_integer,
}


def load_package_schema() -> dict:
    """The published package contract, ``schema/incident_package.json``."""
    text = resources.files("planvet").joinpath("schema/incident_package.json").read_text(
        encoding="utf-8"
    )
    return json.loads(text)


@cache
def _package_check() -> Callable[[object], None]:
    return _compile(load_package_schema())


def schema_defect(document: object) -> str | None:
    """First violation of the package schema as ``"<location>: <message>"``, else None.

    The location joins the JSON path with ``/`` (``<root>`` for the top).
    """
    try:
        _package_check()(document)
    except _Defect as defect:
        location = "/".join(str(part) for part in reversed(defect.path)) or "<root>"
        return f"{location}: {defect.message}"
    return None


# ---------------------------------------------------------------------------
# Reading and loading
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class PackageFile:
    """One corpus file, read once: its digest, parsed document and first defect."""

    name: str
    sha256: str  # of the bytes that were parsed; empty when they could not be read
    document: object = None  # parsed JSON; None when the bytes did not parse
    defect: ParseError | SchemaError | None = None  # message starts with the file name


def read_package(path: Path | str) -> PackageFile:
    """Read one package file once and check it against the schema.

    An entry that cannot be read (a directory named ``*.json``, say) is a
    ``ParseError`` defect naming the file, with an empty digest.
    """
    name = os.path.basename(path)
    try:
        data = read_entry(path)
    except ParseError as exc:
        return PackageFile(name, "", defect=exc)
    digest = sha256_bytes(data)
    try:
        document = decode_json(data)
    except ValueError as exc:  # not UTF-8, not JSON, nested too deeply, or an oversized number
        return PackageFile(name, digest, defect=ParseError(f"{name}: invalid JSON: {exc}"))
    found = schema_defect(document)
    defect = SchemaError(f"{name}: {found}") if found else None
    return PackageFile(name, digest, document, defect)


def read_packages(directory: Path | str) -> Iterator[PackageFile]:
    """Read every ``*.json`` entry once, in filename order, and check it against the schema.

    Yields one file at a time so callers can drop each document before the
    next is parsed.
    """
    for name in json_names(directory):
        yield read_package(os.path.join(directory, name))


def load_package(directory: Path | str, incident_id: str, catalog: ActionCatalog) -> IncidentPackage:
    """Load the one package ``<directory>/<incident_id>.json``, checked as ``load_corpus`` checks it.

    Filenames equal incident ids, so this is the package that
    ``load_corpus(directory, catalog).get(incident_id)`` returns when the
    whole corpus is sound; no other file is read. An id that is not a
    plain file name in ``directory`` (a path separator, an absolute path)
    or that names no file raises ``IncidentNotFound``.
    """
    path = Path(directory) / f"{incident_id}.json"
    if path.name != f"{incident_id}.json" or not path.is_file():
        raise IncidentNotFound(incident_id)
    return _build_package(read_package(path), catalog)


def load_corpus(
    directory: Path | str,
    catalog: ActionCatalog,
    *,
    visit: Callable[[PackageFile], None] | None = None,
) -> Corpus:
    """Load every package in lexicographic incident-id order.

    All invariants are checked here so downstream code never revalidates:
    the package schema (phase gate included), filename equals incident id,
    catalog resolution of baseline actions and approvals, approval-gate
    consistency, task ordering. ``visit`` sees every file as it is read,
    which lets the release gate share this single pass. Every file is read
    even after a defect, so ``visit`` always sees the whole corpus; the
    first defect in filename order is then raised as ``ParseError`` or
    ``SchemaError``.
    """
    packages: list[IncidentPackage] = []
    digests: dict[str, str] = {}
    first_defect: ParseError | SchemaError | None = None
    for package_file in read_packages(directory):
        if visit is not None:
            visit(package_file)
        digests[package_file.name] = package_file.sha256
        if first_defect is None:
            try:
                packages.append(_build_package(package_file, catalog))
            except (ParseError, SchemaError) as exc:
                first_defect = exc
    if first_defect is not None:
        raise first_defect
    packages.sort(key=lambda p: p.incident_id)
    return Corpus(packages=tuple(packages), digests=digests)


def _build_package(package_file: PackageFile, catalog: ActionCatalog) -> IncidentPackage:
    """Apply the semantic checks to a schema-valid document and build the package.

    Action ids are the catalog's own string objects, and the category fields
    (category, severity, asset criticality, phase, event types, labels,
    approval sources) are interned: a corpus holds each such value once.
    Free text (commands, notes, tasks, indicators, case metadata) is kept as
    parsed.
    """
    if package_file.defect is not None:
        raise package_file.defect
    obj = package_file.document
    incident_id = obj["incident_id"]
    if package_file.name.removesuffix(".json") != incident_id:
        raise SchemaError(
            f"{package_file.name}: filename must be <incident_id>.json (id is {incident_id!r})"
        )

    mapped = []
    for action in obj["mapped_human_actions"]:
        if action not in catalog:
            raise SchemaError(
                f"{incident_id}: mapped action {action!r} does not resolve to the catalog"
            )
        mapped.append(catalog.get(action).action_id)

    approvals = []
    for ev in obj["approvals"]:
        action = ev["action_id"]
        if action not in catalog:
            raise SchemaError(
                f"{incident_id}: approval evidence names unknown action {action!r}"
            )
        entry = catalog.get(action)
        if not entry.approval_gate:
            raise SchemaError(
                f"{incident_id}: approval evidence for {action!r} but the action "
                "is not approval-gated"
            )
        approvals.append(ApprovalEvidence(entry.action_id, sys.intern(ev["source"]), ev.get("note", "")))

    tasks = []
    last_order = -1
    for task in obj.get("extracted_tasks", ()):
        order_index = task["order_index"]
        if order_index <= last_order:
            raise SchemaError(
                f"{incident_id}: extracted task order_index must be strictly increasing"
            )
        last_order = order_index
        tasks.append(TaskRecord(task["task_id"], task["text"], order_index))

    return IncidentPackage(
        incident_id=incident_id,
        category=sys.intern(obj["category"]),
        severity=sys.intern(obj["severity"]),
        asset_criticality=sys.intern(obj["asset_criticality"]),
        phase_id=sys.intern(obj["phase_id"]),
        telemetry=tuple(
            TelemetryEvent(
                event_type=sys.intern(ev["event_type"]),
                command=ev.get("command", ""),
                indicators=tuple(ev.get("indicators", ())),
                labels=tuple(map(sys.intern, ev.get("labels", ()))),
            )
            for ev in obj["telemetry"]
        ),
        case_metadata=dict(obj["case_metadata"]),
        mapped_human_actions=tuple(mapped),
        approvals=tuple(approvals),
        extracted_tasks=tuple(tasks),
        quality_trace=obj.get("quality_trace"),
    )


# ---------------------------------------------------------------------------
# Baseline projection
# ---------------------------------------------------------------------------

def baseline_plan(incident: IncidentPackage) -> ProposedPlan:
    """Project the mapped human actions onto a plan, order and multiplicity intact."""
    return ProposedPlan(
        incident_id=incident.incident_id,
        source=SOURCE_BASELINE,
        model_id="",
        arm=ARM_NONE,
        actions=tuple(incident.mapped_human_actions),
        out_of_catalog=(),
    )
