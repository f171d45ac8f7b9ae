"""Proposal parsing under the declared output contract.

A proposal document is a JSON object whose ``recommended_actions`` field is
an array of strings. Entries that match a catalog action id byte-for-byte
are kept in order; everything else is logged out-of-catalog. No coercion,
no synonym matching, no case folding.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

from .catalog import ActionCatalog
from .errors import MissingField, ParseError, WrongType
from .util import decode_json, json_names, read_entry

SOURCE_LLM = "llm_proposal"
SOURCE_BASELINE = "human_baseline"
SOURCE_FIXTURE = "fixture"

ARM_ZERO = "llm_zero"
ARM_POLICY = "llm_policy_prompt"
ARM_NONE = "none"

CONTRACT_FIELD = "recommended_actions"


@dataclass(frozen=True, slots=True)
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
    array are preserved (the plan is evidence, not a normalized set). Each
    kept action is the catalog's own string object, so a corpus of plans
    holds each action id once. Bytes must be UTF-8. Raises ``ParseError``
    (not UTF-8, not JSON or nested too deeply), ``MissingField`` or
    ``WrongType``.
    """
    if isinstance(document, (str, bytes)):
        try:
            obj = decode_json(document)
        except ValueError as exc:
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
            actions.append(catalog.get(token).action_id)
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


def iter_proposals(directory: Path | str, catalog: ActionCatalog) -> Iterator[ProposedPlan]:
    """Parse every ``<incident_id>__<model>__<arm>.json`` proposal fixture, one at a time.

    Yielded in sorted filename order, which is also (incident, model, arm)
    order for the shipped bundle naming scheme. Each plan's model and arm
    are interned, one string object per distinct name. A name that does
    not split into three parts, or an entry that cannot be read (a
    directory named ``*.json``, say), raises ``ParseError`` naming the file.
    """
    for name in json_names(directory):
        parts = name.removesuffix(".json").split("__")
        if len(parts) != 3:
            raise ParseError(f"{name}: expected <incident_id>__<model>__<arm>.json naming")
        incident_id, model_id, arm = parts
        yield parse_proposal(
            read_entry(os.path.join(directory, name)),
            catalog,
            incident_id=incident_id,
            model_id=sys.intern(model_id),
            arm=sys.intern(arm),
            source=SOURCE_LLM,
        )


def load_proposals(directory: Path | str, catalog: ActionCatalog) -> list[ProposedPlan]:
    """Every proposal fixture under ``directory``, in ``iter_proposals`` order."""
    return list(iter_proposals(directory, catalog))
