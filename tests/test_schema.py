"""The stdlib package validator against the published schema, with jsonschema as the oracle.

jsonschema is a test-only dependency: the validator in ``planvet.corpus``
is compiled from ``schema/incident_package.json`` and must accept and
reject exactly what ``jsonschema.Draft7Validator`` does on that schema.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planvet.corpus import load_package_schema, schema_defect
from planvet.fixtures import incident_obj

jsonschema = pytest.importorskip("jsonschema")

_REFERENCE = jsonschema.Draft7Validator(load_package_schema())


def _reference_locations(doc) -> set[str]:
    return {
        "/".join(str(part) for part in error.absolute_path) or "<root>"
        for error in _REFERENCE.iter_errors(doc)
    }


def _assert_agrees(doc) -> None:
    defect = schema_defect(doc)
    locations = _reference_locations(doc)
    assert (defect is None) == (not locations), (defect, locations)
    if defect is not None:
        assert defect.split(": ", 1)[0] in locations, (defect, locations)


def _containers(node, out):
    """Every (container, key) slot of a JSON tree, parents before children."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in list(items):
        out.append((node, key))
        if isinstance(value, (dict, list)):
            _containers(value, out)
    return out


REPLACEMENTS = (
    None, True, False, 0, 1, -1, 1.0, 2.5, float("inf"), "", "x", "Complete", "0",
    [], ["x"], [1], {}, {"k": "v"}, {"k": 1},
)

MUTATIONS = {
    "order_index float": lambda o: o["extracted_tasks"][0].update(order_index=1.0),
    "order_index fractional": lambda o: o["extracted_tasks"][0].update(order_index=0.5),
    "order_index bool": lambda o: o["extracted_tasks"][0].update(order_index=True),
    "order_index string": lambda o: o["extracted_tasks"][0].update(order_index="0"),
    "order_index negative": lambda o: o["extracted_tasks"][0].update(order_index=-1),
    "order_index missing": lambda o: o["extracted_tasks"][0].pop("order_index"),
    "empty incident_id": lambda o: o.update(incident_id=""),
    "empty event_type": lambda o: o["telemetry"][0].update(event_type=""),
    "empty command": lambda o: o["telemetry"][0].update(command=""),
    "empty mapped action": lambda o: o["mapped_human_actions"].append(""),
    "empty approval source": lambda o: o["approvals"].append({"action_id": "x", "source": ""}),
    "numeric metadata value": lambda o: o["case_metadata"].update(queue=3),
    "null metadata value": lambda o: o["case_metadata"].update(queue=None),
    "wrong phase": lambda o: o.update(phase_id="Open"),
    "phase not a string": lambda o: o.update(phase_id=1),
    "extra root key": lambda o: o.update(notes="x"),
    "extra task key": lambda o: o["extracted_tasks"][0].update(owner="x"),
    "telemetry entry not an object": lambda o: o["telemetry"].append("x"),
    "indicator not a string": lambda o: o["telemetry"][0]["indicators"].append(7),
    "quality_trace not an object": lambda o: o.update(quality_trace=[]),
    "no extracted_tasks": lambda o: o.pop("extracted_tasks"),
    "missing approvals": lambda o: o.pop("approvals"),
    "every field replaced": lambda o: o.clear() or o.update(x=1),
}


class TestPackageSchema:
    def test_fixture_packages_are_valid(self):
        for index in range(1, 201):
            assert schema_defect(incident_obj(index)) is None

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_named_mutations_agree_with_jsonschema(self, name):
        obj = incident_obj(1)
        MUTATIONS[name](obj)
        _assert_agrees(obj)

    @pytest.mark.parametrize("doc", [None, [], "x", 1, True])
    def test_non_object_documents_agree_with_jsonschema(self, doc):
        _assert_agrees(doc)

    @settings(max_examples=400, deadline=None)
    @given(
        st.integers(1, 200),
        st.lists(
            st.tuples(
                st.sampled_from(("drop", "add", "replace")),
                st.integers(0, 10_000),
                st.sampled_from(REPLACEMENTS),
            ),
            min_size=1,
            max_size=3,
        ),
    )
    def test_random_mutations_agree_with_jsonschema(self, index, edits):
        obj = incident_obj(index)
        for op, pick, value in edits:
            # A fresh copy per edit: a shared REPLACEMENTS list or dict that a
            # later edit mutates could otherwise end up containing itself.
            value = copy.deepcopy(value)
            slots = _containers(obj, [])
            container, key = slots[pick % len(slots)]
            if op == "drop":
                del container[key]
            elif op == "add" and isinstance(container, dict):
                container[f"extra_{pick}"] = value
            elif op == "add":
                container.append(value)
            else:
                container[key] = value
        _assert_agrees(obj)

    def test_phase_gate_named_in_message(self):
        obj = incident_obj(1)
        obj["phase_id"] = "Open"
        assert "phase gate" in schema_defect(obj)
