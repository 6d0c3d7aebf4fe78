"""Per-layer metrics from the span dumps that traced_qflip.py writes.

A span's name is ``<layer>.<function>``; the layers are qflip's modules.
For one workload iteration (all its commands):

* ``<span>_s`` is the time inside that span, outermost calls only;
* ``<span>_calls`` is how many times it ran;
* ``<layer>.self_s`` is the layer's self time: each span's duration minus
  the time its child spans cover, summed over the layer's spans;
* the rest come from counters filled from call arguments and results.

Byte and flop counts are computed from sizes, not measured.
"""

from __future__ import annotations

import json

LAYERS = ("cli", "records", "simulator", "clifford", "estimation", "channel", "mitigation",
          "transforms")

MIB = float(1 << 20)

SPAN_METRICS = {
    "records.write_s": "s",
    "records.read_s": "s",
    "records.group_calls": "count",
    "records.group_s": "s",
    "simulator.generate_s": "s",
    "clifford.sample_calls": "count",
    "clifford.sample_s": "s",
    "estimation.estimate_s": "s",
    "estimation.fit_decay_calls": "count",
    "estimation.fit_decay_s": "s",
    "estimation.rb_fit_s": "s",
    "channel.predict_calls": "count",
    "channel.predict_s": "s",
    "channel.mitigation_matrix_calls": "count",
    "channel.mitigation_matrix_s": "s",
    "mitigation.evaluate_s": "s",
    "mitigation.build_mem_s": "s",
    "mitigation.lu_factor_calls": "count",
    "mitigation.jsd_calls": "count",
    "mitigation.jsd_s": "s",
    "transforms.fwht_calls": "count",
    "transforms.fwht_s": "s",
    "transforms.simplex_project_calls": "count",
    "transforms.simplex_project_s": "s",
}

COUNTER_METRICS = {
    "records.write_mb": "MiB",
    "records.read_records": "count",
    "simulator.records": "count",
    "estimation.coefficients_fit": "count",
    "estimation.points_used_ratio": "ratio",
    "channel.condition_max": "1",
    "mitigation.lu_flops": "flop",
    "mitigation.flagged_ratio": "ratio",
    "transforms.fwht_flops": "flop",
}

SELF_METRICS = {f"{layer}.self_s": "s" for layer in LAYERS}

# output quality of a layer, from the correctness checks; exact per seed
QUALITY_METRICS = {"estimation.fit_l1": "1", "channel.predict_jsd": "bits"}


def _layer_order(metric: str) -> int:
    layer = metric.split(".", 1)[0]
    return LAYERS.index(layer) if layer in LAYERS else len(LAYERS)


UNITS = dict(sorted(
    {**SPAN_METRICS, **COUNTER_METRICS, **QUALITY_METRICS, **SELF_METRICS,
     "trace.overhead_s": "s"}.items(),
    key=lambda item: _layer_order(item[0]),
))


def _span_stem(metric: str) -> str:
    return metric.rsplit("_", 1)[0]


def load_dump(path) -> dict:
    with open(path) as handle:
        return json.load(handle)


def iteration_metrics(dumps) -> dict:
    """Per-layer metrics of one iteration from its commands' span dumps."""
    inclusive, calls, self_time, counters = {}, {}, dict.fromkeys(LAYERS, 0), {}
    for dump in dumps:
        spans = {span[0]: span for span in dump["spans"]}
        covered = {}
        for span_id, parent, name, start, end in spans.values():
            if parent is not None:
                covered[parent] = covered.get(parent, 0) + end - start
        for span_id, parent, name, start, end in spans.values():
            layer = name.split(".", 1)[0]
            self_time[layer] = self_time.get(layer, 0) + end - start - covered.get(span_id, 0)
            calls[name] = calls.get(name, 0) + 1
            ancestor = parent
            while ancestor is not None and spans[ancestor][2] != name:
                ancestor = spans[ancestor][1]
            if ancestor is None:
                inclusive[name] = inclusive.get(name, 0) + end - start
        for key, value in dump["counters"].items():
            if key == "channel.condition_max":
                counters[key] = max(counters.get(key, value), value)
            else:
                counters[key] = counters.get(key, 0) + value

    metrics = {}
    for metric in SPAN_METRICS:
        stem = _span_stem(metric)
        if metric.endswith("_calls"):
            metrics[metric] = calls.get(stem, 0)
        else:
            metrics[metric] = inclusive.get(stem, 0) / 1e9
    for layer, nanos in self_time.items():
        metrics[f"{layer}.self_s"] = nanos / 1e9

    def ratio(num, den):
        return counters.get(num, 0) / counters[den] if counters.get(den) else 0.0

    metrics["records.write_mb"] = counters.get("records.write_bytes", 0) / MIB
    for key in ("records.read_records", "simulator.records", "estimation.coefficients_fit",
                "channel.condition_max", "mitigation.lu_flops", "transforms.fwht_flops"):
        metrics[key] = counters.get(key, 0)
    metrics["estimation.points_used_ratio"] = ratio(
        "estimation.points_used", "estimation.points_offered"
    )
    metrics["mitigation.flagged_ratio"] = ratio("mitigation.flagged_rows", "mitigation.report_rows")
    return metrics


def absent_notes(dumps) -> list:
    """Why a per-layer metric reads 0: a probe target is gone or never ran."""
    notes = []
    missing = sorted({target for dump in dumps for target in dump["missing"]})
    if missing:
        notes.append("probe targets not found in qflip: " + ", ".join(missing))
    for dump in dumps:
        notes.extend(f"{dump['command']}: counter hook failed: {e}" for e in dump["hook_errors"])
    ran = {span[2] for dump in dumps for span in dump["spans"]}
    stems = sorted({_span_stem(m) for m in SPAN_METRICS} - ran)
    if stems:
        notes.append("never called by this workload's commands: " + ", ".join(stems))
    return notes
