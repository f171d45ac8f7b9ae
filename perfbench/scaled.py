"""Seeded input bundles: the fixture bundle and exact replicas of it under fresh ids.

A scaled bundle holds ``replicas`` copies of every fixture incident and
proposal. Copy ``r`` of fixture incident ``inc_NNNN`` gets an id drawn from
the seed, so the seed fixes the ids and with them the file order and the
sort order the program sees. Every other byte of every file is the fixture's
own, so per-cell rates equal the fixture's and every count is ``replicas``
times the fixture's. Probe plans name incidents by id, so they are rewritten
too, one probe set per copy.
"""

from __future__ import annotations

import json
import random
import re
import shutil
from pathlib import Path

FIXTURE_ID = re.compile(r"\binc_\d{4}\b")

# Files copied unchanged from the fixture bundle.
SHARED_FILES = (
    "catalog.json",
    "policy.json",
    "mapping_rules.json",
    "privacy_patterns.json",
    "forbidden_terms.txt",
    "config.json",
    "richer/candidate_catalog.json",
    "richer/candidate_policy.json",
)


def fresh_ids(fixture_ids: list[str], replicas: int, seed: int) -> list[dict[str, str]]:
    """One {fixture id: fresh id} map per replica; all fresh ids distinct.

    Fresh ids are ``inc_`` plus 12 hex digits: no privacy pattern matches
    them and they never contain the ``__`` proposal-name separator.
    """
    rng = random.Random(seed)
    used: set[str] = set()
    maps = []
    for _ in range(replicas):
        mapping = {}
        for old in fixture_ids:
            new = f"inc_{rng.getrandbits(48):012x}"
            while new in used:
                new = f"inc_{rng.getrandbits(48):012x}"
            used.add(new)
            mapping[old] = new
        maps.append(mapping)
    return maps


def build_scaled(fixture: Path, dest: Path, replicas: int, seed: int) -> None:
    """Write a ``replicas``-fold copy of the fixture bundle under ``dest``."""
    for sub in ("corpus", "proposals", "richer"):
        (dest / sub).mkdir(parents=True, exist_ok=True)
    for name in SHARED_FILES:
        shutil.copyfile(fixture / name, dest / name)

    corpus = {p.stem: p.read_text(encoding="utf-8") for p in sorted((fixture / "corpus").glob("*.json"))}
    proposals = [(p.name, p.read_bytes()) for p in sorted((fixture / "proposals").glob("*.json"))]
    maps = fresh_ids(sorted(corpus), replicas, seed)

    for mapping in maps:
        for old, text in corpus.items():
            (dest / "corpus" / f"{mapping[old]}.json").write_text(
                FIXTURE_ID.sub(lambda match: mapping[match.group(0)], text), encoding="utf-8"
            )
        for name, data in proposals:
            old, rest = name.split("__", 1)
            (dest / "proposals" / f"{mapping[old]}__{rest}").write_bytes(data)

    probes = json.loads((fixture / "richer" / "probe_plans.json").read_text(encoding="utf-8"))
    plans = [
        dict(plan, incident_id=mapping[plan["incident_id"]])
        for mapping in maps
        for plan in probes["plans"]
    ]
    (dest / "richer" / "probe_plans.json").write_text(
        json.dumps({"plans": plans}, indent=2) + "\n", encoding="utf-8"
    )
