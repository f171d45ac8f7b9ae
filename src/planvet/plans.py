"""Proposal parsing under the declared output contract.

A proposal document is a JSON object whose ``recommended_actions`` field is
an array of strings. Entries that match a catalog action id byte-for-byte
are kept in order; everything else is logged out-of-catalog. No coercion,
no synonym matching, no case folding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .catalog import ActionCatalog
from .errors import MissingField, ParseError, WrongType

SOURCE_LLM = "llm_proposal"
SOURCE_BASELINE = "human_baseline"
SOURCE_FIXTURE = "fixture"

ARM_ZERO = "llm_zero"
ARM_POLICY = "llm_policy_prompt"
ARM_NONE = "none"

CONTRACT_FIELD = "recommended_actions"


@dataclass(frozen=True)
class ProposedPlan:
    incident_id: str
    source: str
    model_id: str  # verbatim provider label; empty for baselines
    arm: str
    actions: tuple[str, ...]
    out_of_catalog: tuple[str, ...] = ()

    def cell(self) -> tuple[str, str]:
        return (self.model_id, self.arm)


def parse_proposal(
    document: str | bytes | dict,
    catalog: ActionCatalog,
    *,
    incident_id: str,
    model_id: str = "",
    arm: str = ARM_NONE,
    source: str = SOURCE_LLM,
) -> ProposedPlan:
    """Parse one proposal document into a plan, filtering out-of-catalog actions.

    Extra fields in the document are ignored; duplicates in the contract
    array are preserved (the plan is evidence, not a normalized set).
    Bytes must be UTF-8. Raises ``ParseError`` (not UTF-8 or not JSON),
    ``MissingField`` or ``WrongType``.
    """
    if isinstance(document, (str, bytes)):
        try:
            obj = json.loads(document.decode("utf-8") if isinstance(document, bytes) else document)
        except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
            raise ParseError(f"proposal for {incident_id}: not valid JSON: {exc}") from exc
    else:
        obj = document
    if not isinstance(obj, dict):
        raise WrongType(f"proposal for {incident_id}: document must be a JSON object")
    if CONTRACT_FIELD not in obj:
        raise MissingField(f"proposal for {incident_id}: missing {CONTRACT_FIELD!r}")
    raw_actions = obj[CONTRACT_FIELD]
    if not isinstance(raw_actions, list):
        raise WrongType(f"proposal for {incident_id}: {CONTRACT_FIELD!r} must be an array")

    actions: list[str] = []
    rejected: list[str] = []
    for idx, token in enumerate(raw_actions):
        if not isinstance(token, str):
            raise WrongType(
                f"proposal for {incident_id}: {CONTRACT_FIELD}[{idx}] is not a string"
            )
        if token in catalog:  # byte equality only
            actions.append(token)
        else:
            rejected.append(token)

    return ProposedPlan(
        incident_id=incident_id,
        source=source,
        model_id=model_id,
        arm=arm,
        actions=tuple(actions),
        out_of_catalog=tuple(rejected),
    )


def out_of_catalog_rate(plans: Sequence[ProposedPlan]) -> float:
    """Fraction of plans with at least one rejected token; 0.0 on empty input."""
    if not plans:
        return 0.0
    dirty = sum(1 for p in plans if p.out_of_catalog)
    return dirty / len(plans)


def load_proposals(directory: Path | str, catalog: ActionCatalog) -> list[ProposedPlan]:
    """Load every ``<incident_id>__<model>__<arm>.json`` proposal fixture.

    Returned in sorted filename order, which is also (incident, model, arm)
    order for the shipped bundle naming scheme.
    """
    directory = Path(directory)
    plans: list[ProposedPlan] = []
    for path in sorted(directory.glob("*.json")):
        parts = path.stem.split("__")
        if len(parts) != 3:
            raise ParseError(
                f"{path.name}: expected <incident_id>__<model>__<arm>.json naming"
            )
        incident_id, model_id, arm = parts
        plans.append(
            parse_proposal(
                path.read_bytes(),
                catalog,
                incident_id=incident_id,
                model_id=model_id,
                arm=arm,
                source=SOURCE_LLM,
            )
        )
    return plans
