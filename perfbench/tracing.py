"""Span tracing of planvet from outside the program.

``Tracer.install`` replaces the names one planvet module calls in another
(for example ``planvet.pipeline.enforce`` or ``Corpus.get``) with wrappers
that record a span: name, start, end and parent. Spans stay in memory;
``Tracer.summary`` turns them into per-name call counts, inclusive time and
self time (duration minus the time covered by child spans).

Rules that keep the trace honest:

* a generator is consumed inside its span (``Draft7Validator.iter_errors``);
* recursive helpers such as ``util.present`` get no per-call span, because
  the wrapper cost would dwarf their work; their time lands in the caller;
* file reads are counted where they happen (``Path.read_text`` and
  ``read_bytes``, and ``open`` as seen from planvet modules) and charged to
  the layer of the innermost open span;
* very hot predicates (``scope_matches``, ``rules_in_family``) are counted,
  not timed.

A name that a later version of the program no longer has is skipped and
listed in ``Tracer.missing``; its metrics then read 0.
"""

from __future__ import annotations

import builtins
import importlib
import os
import pathlib
import sys
from collections import Counter
from functools import partial
from time import perf_counter

ROOT_SPAN = "cli"

# (module, attribute, span name). The attribute is looked up in the
# calling module, so each binding that the program calls is wrapped.
SPANS = (
    ("planvet.cli", "evaluate", "pipeline.evaluate"),
    ("planvet.cli", "release_gate", "audit.release_gate"),
    ("planvet.pipeline", "release_gate", "audit.release_gate"),
    ("planvet.audit", "privacy_scan", "audit.privacy_scan"),
    ("planvet.cli", "activation_check", "audit.activation"),
    ("planvet.cli", "build_manifest", "audit.manifest"),
    ("planvet.pipeline", "build_manifest", "audit.manifest"),
    ("planvet.audit", "map_tasks", "mapping.map_tasks"),
    ("planvet.mapping", "map_tasks", "mapping.map_tasks"),
    ("planvet.cli", "load_mapping_rules", "mapping.load_rules"),
    ("planvet.mapping", "load_mapping_rules", "mapping.load_rules"),
    ("planvet.cli", "load_corpus", "corpus.load"),
    ("planvet.pipeline", "load_corpus", "corpus.load"),
    ("planvet.corpus", "Corpus.get", "corpus.get"),
    ("planvet.cli", "load_proposals", "plans.load"),
    ("planvet.pipeline", "load_proposals", "plans.load"),
    ("planvet.cli", "parse_proposal", "plans.load"),
    ("planvet.cli", "load_policy", "catalog.load"),
    ("planvet.cli", "load_catalog", "catalog.load"),
    ("planvet.pipeline", "load_catalog", "catalog.load"),
    ("planvet.pipeline", "load_policy_rules", "catalog.load"),
    ("planvet.pipeline", "validate_policy", "catalog.load"),
    ("planvet.cli", "enforce", "engine.enforce"),
    ("planvet.pipeline", "enforce", "engine.enforce"),
    ("planvet.audit", "enforce", "engine.enforce"),
    ("planvet.pipeline", "run_metrics", "metrics.run_metrics"),
    ("planvet.pipeline", "aggregate", "metrics.aggregate"),
    ("planvet.pipeline", "compute_contrasts", "metrics.contrasts"),
    ("planvet.pipeline", "stability_report", "metrics.stability"),
    ("planvet.cli", "write_json", "util.write_json"),
    ("planvet.pipeline", "write_json", "util.write_json"),
    ("planvet.corpus", "sha256_file", "util.sha256_file"),
    ("planvet.audit", "sha256_file", "util.sha256_file"),
)

# (module, attribute, counter): call counts only, no span.
COUNTED = (
    ("planvet.catalog", "ValidatedPolicy.rules_in_family", "catalog.rules_in_family_calls"),
    ("planvet.engine", "scope_matches", "catalog.scope_matches_calls"),
)

SCHEMA_SPAN = "audit.schema"


def _resolve(module: str, attribute: str):
    """Return (owner object, attribute name, current value) or None."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, name, None)
    return None if value is None else (owner, name, value)


def _result_counts(name: str, result, counts: Counter) -> None:
    if name == "engine.enforce":
        counts["engine.violations"] += len(getattr(result, "violations", ()))
        counts["engine.modified"] += bool(getattr(result, "modified", False))
    elif name == "audit.privacy_scan":
        counts["audit.privacy_findings"] += len(result)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []
        self._schema_depth = 0

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self.stack.pop()

    def layer(self) -> str:
        return self.spans[self.stack[-1]][0].split(".")[0] if self.stack else ROOT_SPAN

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        begin, end, counts = self.begin, self.end, self.counts

        def wrapper(*args, **kwargs):
            index = begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(index)
            _result_counts(name, result, counts)
            return result

        return wrapper

    def _count_wrapper(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _schema_wrapper(self, fn):
        def iter_errors(validator, *args, **kwargs):
            if self._schema_depth:  # nested validation belongs to the outer span
                return fn(validator, *args, **kwargs)
            self._schema_depth += 1
            index = self.begin(SCHEMA_SPAN)
            try:
                errors = list(fn(validator, *args, **kwargs))
            finally:
                self.end(index)
                self._schema_depth -= 1
            return iter(errors)

        return iter_errors

    def _read_wrapper(self, fn):
        def read(path, *args, **kwargs):
            data = fn(path, *args, **kwargs)
            layer = self.layer()
            self.counts[f"{layer}.files_read"] += 1
            self.counts[f"{layer}.bytes_read"] += os.stat(path).st_size
            return data

        return read

    def _write_wrapper(self, fn):
        def write(path, data, *args, **kwargs):
            written = fn(path, data, *args, **kwargs)
            self.counts[f"{self.layer()}.bytes_written"] += os.stat(path).st_size
            return written

        return write

    def _open(self, file, mode="r", *args, **kwargs):
        handle = builtins.open(file, mode, *args, **kwargs)
        if not any(flag in mode for flag in "wax+"):
            layer = self.layer()
            self.counts[f"{layer}.files_read"] += 1
            self.counts[f"{layer}.bytes_read"] += os.fstat(handle.fileno()).st_size
        return handle

    def _patch(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, owner.__dict__.get(name, _ABSENT)))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap every known boundary; call after planvet is imported."""
        boundaries = [(m, a, partial(self._span_wrapper, span)) for m, a, span in SPANS]
        boundaries += [(m, a, partial(self._count_wrapper, key)) for m, a, key in COUNTED]
        boundaries.append(("jsonschema", "Draft7Validator.iter_errors", self._schema_wrapper))
        for module, attribute, make_wrapper in boundaries:
            found = _resolve(module, attribute)
            if found is None:
                self.missing.append(f"{module}.{attribute}")
                continue
            owner, name, fn = found
            self._patch(owner, name, make_wrapper(fn))
        path_cls = pathlib.Path
        for name in ("read_text", "read_bytes"):
            self._patch(path_cls, name, self._read_wrapper(getattr(path_cls, name)))
        for name in ("write_text", "write_bytes"):
            self._patch(path_cls, name, self._write_wrapper(getattr(path_cls, name)))
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("planvet") and module is not None and "open" not in vars(module):
                self._patch(module, "open", self._open)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._restore):
            if value is _ABSENT:
                delattr(owner, name)
            else:
                setattr(owner, name, value)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: dict[str, dict[str, float]] = {}
        for (name, start, end, parent), children in zip(self.spans, child_time):
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - children
        return table


_ABSENT = object()


def layer_metrics(spans: dict, counts: dict, calls: int) -> dict[str, float]:
    """Per-layer metrics of one traced worker, per entry-point call."""

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0) / calls

    def own(name):
        return spans.get(name, {}).get("self_s", 0.0) / calls

    def n(name):
        return spans.get(name, {}).get("calls", 0) / calls

    def c(key):
        return counts.get(key, 0) / calls

    enforced = spans.get("engine.enforce", {}).get("calls", 0)
    return {
        "audit.release_gate_s": total("audit.release_gate"),
        "audit.schema_s": total(SCHEMA_SPAN),
        "audit.privacy_scan_s": total("audit.privacy_scan"),
        "audit.gate_self_s": own("audit.release_gate"),
        "audit.privacy_findings": c("audit.privacy_findings"),
        "audit.files_read": c("audit.files_read"),
        "audit.activation_s": total("audit.activation"),
        "mapping.map_tasks_calls": n("mapping.map_tasks"),
        "mapping.map_tasks_s": total("mapping.map_tasks"),
        "corpus.load_s": total("corpus.load"),
        "corpus.files_read": c("corpus.files_read"),
        "corpus.bytes_read": c("corpus.bytes_read"),
        "corpus.get_calls": n("corpus.get"),
        "corpus.get_s": total("corpus.get"),
        "plans.load_s": total("plans.load"),
        "plans.files_read": c("plans.files_read"),
        "engine.enforce_calls": n("engine.enforce"),
        "engine.enforce_s": total("engine.enforce"),
        "engine.violations": c("engine.violations"),
        "engine.modified_frac": counts.get("engine.modified", 0) / enforced if enforced else 0.0,
        "catalog.load_s": total("catalog.load"),
        "catalog.rules_in_family_calls": c("catalog.rules_in_family_calls"),
        "catalog.scope_matches_calls": c("catalog.scope_matches_calls"),
        "metrics.run_metrics_s": total("metrics.run_metrics"),
        "metrics.aggregate_s": total("metrics.aggregate"),
        "metrics.contrasts_s": total("metrics.contrasts"),
        "metrics.stability_s": total("metrics.stability"),
        "util.write_json_calls": n("util.write_json"),
        "util.write_json_s": total("util.write_json"),
        "util.bytes_written": c("util.bytes_written"),
        "util.sha256_file_s": total("util.sha256_file"),
        "pipeline.evaluate_s": total("pipeline.evaluate"),
        "pipeline.self_s": own("pipeline.evaluate"),
        "cli.self_s": own(ROOT_SPAN),
        "trace.self_sum_s": sum(row["self_s"] for row in spans.values()) / calls,
    }
