"""Run one qflip command with spans and counters around each layer.

Usage: python traced_qflip.py SPANS_PATH COMMAND_ID QFLIP_ARGS...

Before calling ``qflip.cli.main`` this replaces the public functions of
each layer, where the callers look them up (``qflip.cli.estimate_model``,
``qflip.mitigation.lu_factor``, ``Dataset.read_jsonl`` ...), with wrappers
that record a span (name, start, end, parent) and update counters. The
command then runs the same CLI code path as an untraced run. Spans stay in
memory and are written to SPANS_PATH as JSON when the command ends.

A probe whose target no longer exists is skipped and listed under
``missing`` in the output, so a renamed function shows up as an absent
metric instead of a failed command.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import time


class Recorder:
    """In-memory spans of one command plus counters filled from call results."""

    def __init__(self):
        self.spans = []  # [id, parent, name, start_ns, end_ns]
        self.counters = {}
        self.missing = []
        self.hook_errors = []
        self._stack = []
        self._ids = itertools.count()

    def add(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    def maximum(self, key, value):
        self.counters[key] = max(self.counters.get(key, value), value)

    def wrap(self, name, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append([span_id, parent, name, start, end])
            if hook is not None:
                try:
                    hook(self, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
                    self.hook_errors.append(f"{name}: {exc!r}")
            return result

        return traced

    def dump(self, path, command_id, argv, exit_code):
        payload = {
            "command": command_id,
            "argv": argv,
            "exit_code": exit_code,
            "counters": self.counters,
            "missing": self.missing,
            "hook_errors": self.hook_errors,
            "spans": sorted(self.spans),
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)


# counters derived from arguments and results; byte and flop counts are
# computed from sizes, not measured by hardware counters


def _written_bytes(rec, args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[1]
    rec.add("records.write_bytes", os.path.getsize(path))


def _read_records(rec, args, kwargs, result):
    rec.add("records.read_records", len(result.records))


def _generated_records(rec, args, kwargs, result):
    rec.add("simulator.records", len(result.records))


def _fit_points(rec, args, kwargs, result):
    used = [int(x) for x in result.points_used[1:]]
    # coefficient 0 is pinned to the full depth count: the points offered
    rec.add("estimation.points_used", sum(used))
    rec.add("estimation.points_offered", int(result.points_used[0]) * len(used))
    rec.add("estimation.coefficients_fit", sum(1 for u in used if u >= 2))


def _condition(rec, args, kwargs, result):
    rec.maximum("channel.condition_max", float(result.condition))


def _lu_flops(rec, args, kwargs, result):
    size = args[0].shape[0]
    rec.add("mitigation.lu_flops", 2 * size**3 // 3)


def _flagged_rows(rec, args, kwargs, result):
    rec.add("mitigation.report_rows", len(result.rows))
    rec.add("mitigation.flagged_rows", sum(1 for row in result.rows if row.flags))


def _fwht_flops(rec, args, kwargs, result):
    # n * 2**n butterfly additions per transform
    size = len(result)
    rec.add("transforms.fwht_flops", (size.bit_length() - 1) * size)


# (module, attribute, span name, counter hook); a function imported into
# several modules is patched in each so every call site is covered
PROBES = [
    ("qflip.records:Dataset", "write_jsonl", "records.write", _written_bytes),
    ("qflip.records:Dataset", "read_jsonl", "records.read", _read_records),
    ("qflip.records:Dataset", "group", "records.group", None),
    ("qflip.cli", "generate_dataset", "simulator.generate", _generated_records),
    ("qflip.clifford", "sample_identity_circuit", "clifford.sample", None),
    ("qflip.cli", "estimate_model", "estimation.estimate", None),
    ("qflip.estimation", "fit_decay", "estimation.fit_decay", _fit_points),
    ("qflip.cli", "aggregate", "estimation.aggregate", None),
    ("qflip.estimation", "aggregate", "estimation.aggregate", None),
    ("qflip.cli", "rb_fit", "estimation.rb_fit", None),
    ("qflip.cli", "predict_distribution", "channel.predict", None),
    ("qflip.estimation", "predict_distribution", "channel.predict", None),
    ("qflip.mitigation", "mitigation_matrix", "channel.mitigation_matrix", _condition),
    ("qflip.cli", "evaluate_mitigation", "mitigation.evaluate", _flagged_rows),
    ("qflip.mitigation", "build_mem_matrix", "mitigation.build_mem", None),
    ("qflip.mitigation", "lu_factor", "mitigation.lu_factor", _lu_flops),
    ("qflip.mitigation", "lu_solve", "mitigation.lu_solve", None),
    ("qflip.cli", "jsd", "mitigation.jsd", None),
    ("qflip.mitigation", "jsd", "mitigation.jsd", None),
    ("qflip.transforms", "fwht", "transforms.fwht", _fwht_flops),
    ("qflip.channel", "fwht", "transforms.fwht", _fwht_flops),
    ("qflip.estimation", "fwht", "transforms.fwht", _fwht_flops),
    ("qflip.channel", "simplex_project", "transforms.simplex_project", None),
    ("qflip.mitigation", "simplex_project", "transforms.simplex_project", None),
]


def install(rec: Recorder) -> None:
    for target, attr, name, hook in PROBES:
        module_name, _, class_name = target.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        raw = owner.__dict__.get(attr) if class_name else getattr(owner, attr, None)
        if raw is None:
            rec.missing.append(f"{target}.{attr}")
        elif isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(rec.wrap(name, raw.__func__, hook)))
        else:
            setattr(owner, attr, rec.wrap(name, raw, hook))


def main(argv) -> int:
    spans_path, command_id, qflip_args = argv[0], argv[1], argv[2:]
    import qflip.cli

    rec = Recorder()
    install(rec)
    command = rec.wrap("cli.main", qflip.cli.main)
    code = 1
    try:
        code = command(qflip_args)
    finally:
        rec.dump(spans_path, command_id, qflip_args, code)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
