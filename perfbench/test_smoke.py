"""Smoke-size self-test of the benchmark harness.

Runs every workload shrunk to n=2, K=2, untraced and traced, and checks
that each metric named in BENCHMARK.json is emitted with its unit and that
the correctness checks pass. Not part of the tier-1 suite; run it with

    python -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import os

import pytest

import run
from workloads import WORKLOADS

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def _declared(key) -> dict:
    return {entry["name"]: entry["unit"] for entry in SPEC[key]}


def test_declared_workloads_exist():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_emits_every_metric(name, trace):
    result = run.run_workload(WORKLOADS[name].shrunk(), seed=3, seconds=0, trace=trace)
    assert result["correct"], result["failures"]
    assert result["iterations"] == run.MIN_ITERATIONS

    lines = run.report(result).splitlines()
    printed = {line.split()[0] for line in lines[:-1] if not line.startswith("#")}
    assert {"failed_ratio", "fit_l1", "predict_jsd", "proposed_jsd"} <= printed
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    emitted = {metric: body["unit"] for metric, body in last["metrics"].items()}
    assert emitted == _declared("per_layer" if trace else "end_to_end")
    assert all(isinstance(body["value"], (int, float)) for body in last["metrics"].values())


def test_missing_sources_fail_without_a_result(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", os.path.join(run.ROOT, "no-such-src"))
    assert run.main(["--workload", "grid-n3", "--seconds", "0"]) != 0
    assert capsys.readouterr().out == ""
