"""Correctness checks and quality metrics on one workload's output directory.

Pure Python on purpose: the benchmark process stays light, and the
planted truth is recomputed here rather than taken from qflip.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os


def planted_rates(n: int, q: float) -> list:
    """iid_bitflip truth: pattern i flips popcount(i) qubits, each with prob q."""
    flips = [bin(i).count("1") for i in range(1 << n)]
    return [q**k * (1.0 - q) ** (n - k) for k in flips]


def _csv_rows(path) -> list:
    with open(path, newline="") as handle:
        lines = [line for line in handle if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _count_records(path) -> int:
    with open(path) as handle:
        return sum(1 for line in handle if line.strip() and not line.startswith("#"))


def artifact_digests(out: str) -> dict:
    """sha256 and size of every file under out, keyed by relative path."""
    digests = {}
    for folder, _, files in os.walk(out):
        for name in files:
            path = os.path.join(folder, name)
            with open(path, "rb") as handle:
                blob = handle.read()
            digests[os.path.relpath(path, out)] = (hashlib.sha256(blob).hexdigest(), len(blob))
    return dict(sorted(digests.items()))


def check_outputs(workload, out: str):
    """Returns (quality metrics, failed check descriptions).

    Checks: record count equals depths x K x inputs; report.csv has every
    (depth, input, method) row with finite values; proposed beats
    unmitigated at every test depth; fit_l1 is finite.
    """
    failures = []
    quality = {}
    n = workload.n

    records = _count_records(os.path.join(out, "dataset.jsonl"))
    quality["records"] = records
    if records != workload.expected_records:
        failures.append(f"dataset has {records} records, expected {workload.expected_records}")

    with open(os.path.join(out, "model.json")) as handle:
        model = json.load(handle)
    truth = planted_rates(n, workload.q)
    gaps = [
        sum(abs(p - t) for p, t in zip(entry["p"], truth))
        for entry in model["inputs"].values()
    ]
    quality["fit_l1"] = sum(gaps) / len(gaps) if gaps else math.nan
    if len(gaps) != 1 << n:
        failures.append(f"model characterizes {len(gaps)} inputs, expected {1 << n}")
    if not math.isfinite(quality["fit_l1"]):
        failures.append("fit_l1 is not finite")

    scores = [float(row["jsd"]) for row in _csv_rows(os.path.join(out, "predictions.csv"))]
    quality["predict_jsd"] = sum(scores) / len(scores) if scores else math.nan
    if not scores or not all(math.isfinite(s) for s in scores):
        failures.append("predictions.csv has no finite jsd column")

    report = {}
    for row in _csv_rows(os.path.join(out, "report.csv")):
        values = (float(row["mean_jsd"]), float(row["std_jsd"]))
        report[(int(row["depth"]), row["input"], row["method"])] = values
    labels = [format(i, f"0{n}b") for i in range(1 << n)] + ["all"]
    expected = {
        (depth, label, method)
        for depth in workload.test
        for label in labels
        for method in workload.methods
    }
    missing = expected - report.keys()
    if missing:
        failures.append(f"report.csv lacks {len(missing)} rows, e.g. {sorted(missing)[0]}")
    if len(report) != len(expected):
        failures.append(f"report.csv has {len(report)} rows, expected {len(expected)}")
    if not all(math.isfinite(v) for pair in report.values() for v in pair):
        failures.append("report.csv has non-finite values")
    for depth in workload.test:
        proposed = report.get((depth, "all", "proposed"), (math.inf,))[0]
        unmitigated = report.get((depth, "all", "unmitigated"), (-math.inf,))[0]
        if not proposed < unmitigated:
            failures.append(f"proposed {proposed} does not beat unmitigated {unmitigated} at m={depth}")
    deepest = max(workload.test)
    quality["proposed_jsd"] = report.get((deepest, "all", "proposed"), (math.nan,))[0]
    return quality, failures
