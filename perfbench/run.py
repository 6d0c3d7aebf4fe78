"""qflip benchmark: run a workload's qflip commands, check them, print metrics.

    python3 perfbench/run.py --workload grid-n3 --seed 11 --seconds 40 --trace 0

Run from anywhere; the qflip sources are taken from ``src/`` next to this
directory. Every qflip command runs in a fresh interpreter with BLAS
threads pinned to 1. The workload repeats with the same seed as often
as fits in ``--seconds`` (at least twice, so reruns can be compared
byte for byte). With ``--trace 0`` the last stdout line reports the
end-to-end metrics; with ``--trace 1`` untraced and traced repetitions
alternate and it reports the per-layer metrics. ``--workload all`` runs
every workload in turn. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import checks
import layers
from workloads import DEFAULT_SEED, HELDOUT_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")

MIN_ITERATIONS = 2
MIN_SETUP_SAMPLES = 5
COMMAND_TIMEOUT_S = 150
MIB = float(1 << 20)
BLAS_PIN = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}

END_TO_END_UNITS = {
    "wall_ref": "ref",
    "records_per_ref": "records/ref",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "artifact_mb": "MiB",
    "proposed_jsd": "bits",
}

SETUP_PROBE = (
    "import json, time\n"
    "start = time.perf_counter()\n"
    "import qflip.cli\n"
    "qflip.cli.build_parser()\n"
    "print(json.dumps({'setup_s': time.perf_counter() - start, 'file': qflip.__file__}))\n"
)


# A fixed task that touches no qflip code: the interpreter loop, LAPACK and
# numpy sorting that qflip's commands also spend their time in. Timed in a
# fresh interpreter before every repetition and after the last, it is the
# unit of the bounded timing metrics, so that the machine's speed drifting
# over seconds to minutes cancels out of them.
REFERENCE_TASK = (
    "import numpy as np\n"
    "rng = np.random.default_rng(0)\n"
    "a = rng.random((128, 128))\n"
    "for _ in range(80):\n"
    "    np.linalg.solve(a, a)\n"
    "total = 0\n"
    "for i in range(3000000):\n"
    "    total += i * i % 7\n"
    "np.sort(rng.random(1000000))\n"
)


class CommandFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_PIN)
    env["PYTHONPATH"] = SRC
    return env


def run_child(argv, env, log_path, cwd):
    """Run argv to completion; returns (exit code, wall s, CPU s, peak RSS MiB)."""
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=cwd)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, wall, cpu, usage.ru_maxrss / 1024.0


def machine_context() -> dict:
    def version(name):
        try:
            return importlib.metadata.version(name)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_pin": BLAS_PIN,
    }


def measure_setup(env, run_dir) -> float:
    """One fresh-interpreter sample of importing qflip plus build_parser."""
    out_path = os.path.join(run_dir, "setup.json")
    with open(out_path, "wb") as out:
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], stdout=out, env=env,
                              cwd=run_dir, timeout=COMMAND_TIMEOUT_S)
    if proc.returncode != 0:
        raise CommandFailed("qflip import failed")
    with open(out_path) as handle:
        probe = json.load(handle)
    if not os.path.abspath(probe["file"]).startswith(SRC + os.sep):
        raise CommandFailed(f"imported qflip from {probe['file']}, not from {SRC}")
    return probe["setup_s"]


def measure_reference(env, run_dir) -> float:
    """Wall seconds of one fresh-interpreter run of REFERENCE_TASK."""
    log = os.path.join(run_dir, "reference.log")
    code, wall, _, _ = run_child([sys.executable, "-c", REFERENCE_TASK], env, log, run_dir)
    if code != 0:
        raise CommandFailed(f"reference task exited {code}; see {log}")
    return wall


def run_iteration(workload, seed, run_dir, index, traced, env):
    """One pass of the workload's commands; returns a dict of measurements."""
    out = os.path.join(run_dir, f"iter{index}")
    log = os.path.join(run_dir, "commands.log")
    commands = workload.commands(seed, out)
    result = {"traced": traced, "attempted": 0, "failed": 0, "failures": [], "dumps": []}
    peak, wall, cpu = 0.0, 0.0, 0.0
    for number, args in enumerate(commands):
        result["attempted"] += 1
        if traced:
            spans = os.path.join(run_dir, f"iter{index}-cmd{number}.spans.json")
            argv = [sys.executable, os.path.join(HERE, "traced_qflip.py"), spans,
                    f"it{index}.{number}.{args[0]}", *args]
        else:
            argv = [sys.executable, "-m", "qflip", *args]
        code, seconds, cpu_seconds, rss = run_child(argv, env, log, run_dir)
        wall += seconds
        cpu += cpu_seconds
        peak = max(peak, rss)
        if code != 0:
            result["failed"] += 1
            result["failures"].append(f"qflip {args[0]} exited {code}; see {log}")
            return result
        if traced:
            result["dumps"].append(layers.load_dump(spans))
    result.update(wall=wall, cpu=cpu, peak_rss_mb=peak)
    try:
        result["quality"], failed_checks = checks.check_outputs(workload, out)
    except (OSError, KeyError, ValueError) as exc:
        result["quality"], failed_checks = {}, [f"unreadable output: {exc!r}"]
    result["failed"] += len(failed_checks)
    result["failures"] += failed_checks
    result["digests"] = checks.artifact_digests(out)
    shutil.rmtree(out)
    return result


def write_trace(path, iterations) -> None:
    """Every span of the traced iterations, one JSON object per line."""
    with open(path, "w") as handle:
        for it in iterations:
            for dump in it["dumps"]:
                for span_id, parent, name, start, end in dump["spans"]:
                    handle.write(json.dumps({
                        "command": dump["command"], "id": span_id, "parent": parent,
                        "name": name, "start_ns": start, "end_ns": end,
                    }) + "\n")


def end_to_end(iterations, setup_times, references) -> tuple:
    """(bounded metrics, raw wall times).

    Each repetition's wall time is divided by the mean of the reference
    task times taken just before and just after it; wall_ref is the
    median of those ratios.
    """
    first = iterations[0]
    wall = statistics.median(it["wall"] for it in iterations)
    wall_ref = statistics.median(
        it["wall"] / ((before + after) / 2)
        for it, before, after in zip(iterations, references, references[1:])
    )
    raw = {
        "wall_s": wall,
        "records_per_s": first["quality"]["records"] / wall,
        "reference_s": statistics.median(references),
    }
    return {
        "wall_ref": wall_ref,
        "records_per_ref": first["quality"]["records"] / wall_ref,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": statistics.median(it["peak_rss_mb"] for it in iterations),
        "artifact_mb": sum(size for _, size in first["digests"].values()) / MIB,
        "proposed_jsd": first["quality"]["proposed_jsd"],
    }, raw


def per_layer(iterations) -> tuple:
    traced = [it for it in iterations if it["traced"]]
    untraced = [it for it in iterations if not it["traced"]]
    rows = [layers.iteration_metrics(it["dumps"]) for it in traced]
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    metrics["estimation.fit_l1"] = iterations[0]["quality"]["fit_l1"]
    metrics["channel.predict_jsd"] = iterations[0]["quality"]["predict_jsd"]
    metrics["trace.overhead_s"] = (statistics.median(it["wall"] for it in traced)
                                   - statistics.median(it["wall"] for it in untraced))
    return {name: metrics[name] for name in layers.UNITS}, layers.absent_notes(traced[-1]["dumps"])


def run_workload(workload, seed, seconds, trace) -> dict:
    """Repeat the workload for `seconds` and gather metrics, checks and notes."""
    env = child_env()
    run_dir = os.path.join(WORK, f"{workload.name}-seed{seed}-trace{int(trace)}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    measure_setup(env, run_dir)  # warm-up: byte-compiles qflip, fills the page cache
    setup_times = []
    references = []
    iterations = []
    start = time.perf_counter()
    last = 0.0
    # start another repetition only if it should end within `seconds`
    while len(iterations) < MIN_ITERATIONS or time.perf_counter() - start + last <= seconds:
        traced = trace and len(iterations) % 2 == 1
        began = time.perf_counter()
        if not trace:
            # set-up and reference samples interleave with the repetitions so
            # all see the same stretch of machine speed
            setup_times.append(measure_setup(env, run_dir))
            references.append(measure_reference(env, run_dir))
        iterations.append(run_iteration(workload, seed, run_dir, len(iterations), traced, env))
        last = time.perf_counter() - began
        if "digests" not in iterations[-1]:
            break
        if iterations[-1]["digests"] != iterations[0]["digests"]:
            iterations[-1]["failed"] += 1
            iterations[-1]["failures"].append(
                f"iteration {len(iterations) - 1} artifacts differ from iteration 0 (same seed)"
            )

    if not trace:
        references.append(measure_reference(env, run_dir))  # closes the last bracket
    while not trace and len(setup_times) < MIN_SETUP_SAMPLES:
        setup_times.append(measure_setup(env, run_dir))

    attempted = sum(it["attempted"] for it in iterations)
    failed = sum(it["failed"] for it in iterations)
    failures = [f for it in iterations for f in it["failures"]]
    result = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "iterations": len(iterations),
        "traced_iterations": sum(1 for it in iterations if it["traced"]),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "failures": failures,
        "quality": iterations[0].get("quality", {}),
        "notes": [],
        "metrics": {},
        "raw_times": {},
        "context": machine_context(),
        "per_iteration": [
            {k: it.get(k) for k in ("traced", "wall", "cpu", "peak_rss_mb")} for it in iterations
        ],
        "references": references,
    }
    if failed:
        return result
    if trace:
        result["metrics"], result["notes"] = per_layer(iterations)
        os.makedirs(os.path.join(WORK, "trace"), exist_ok=True)
        result["trace_file"] = os.path.join(WORK, "trace", f"{workload.name}-seed{seed}.jsonl")
        write_trace(result["trace_file"], [it for it in iterations if it["traced"]])
    else:
        result["metrics"], result["raw_times"] = end_to_end(iterations, setup_times, references)
    shutil.rmtree(run_dir)
    return result


def report(result) -> str:
    """Human-readable lines, then the one-line JSON result as the last line."""
    lines = [
        f"# workload {result['workload']} seed {result['seed']} trace {result['trace']}: "
        f"{result['iterations']} iterations ({result['traced_iterations']} traced), "
        f"metrics are medians over them",
        f"# context {json.dumps(result['context'], sort_keys=True)}",
    ]
    table = layers.UNITS if result["trace"] else END_TO_END_UNITS
    for name, value in result["metrics"].items():
        lines.append(f"{name:36s} {value:16.6g} {table[name]}")
    for name, value in result["raw_times"].items():
        unit = "records/s" if name == "records_per_s" else "s"
        lines.append(f"{name:36s} {value:16.6g} {unit} (raw, unbounded)")
    lines.append(f"{'failed_ratio':36s} {result['failed_ratio']:16.6g} ratio "
                 f"({result['failed']} failed / {result['attempted']} commands)")
    quality = result["quality"]
    for name, unit in (("fit_l1", "1"), ("predict_jsd", "bits"), ("proposed_jsd", "bits")):
        if name in quality:
            lines.append(f"{name:36s} {quality[name]:16.6g} {unit} (exact per seed)")
    lines += [f"# note: {note}" for note in result["notes"]]
    lines += [f"# FAILED: {failure}" for failure in result["failures"]]
    if result.get("trace_file"):
        lines.append(f"# spans written to {os.path.relpath(result['trace_file'], ROOT)}")
    lines.append(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": table[name]}
            for name, value in result["metrics"].items()
        },
    }))
    return "\n".join(lines)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    seeds = parser.add_mutually_exclusive_group()
    seeds.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help=f"workload seed (default {DEFAULT_SEED})")
    seeds.add_argument("--heldout", action="store_true",
                       help=f"use the held-out seed {HELDOUT_SEED} instead")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="repeat the workload within this time (at least twice)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: alternate traced runs and report per-layer metrics")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qflip", "__init__.py")):
        print(f"error: qflip sources not found under {SRC}", file=sys.stderr)
        return 2
    seed = HELDOUT_SEED if args.heldout else args.seed
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        try:
            result = run_workload(WORKLOADS[name], seed, args.seconds, bool(args.trace))
        except CommandFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        results_dir = os.path.join(WORK, "results")
        os.makedirs(results_dir, exist_ok=True)
        with open(os.path.join(results_dir, f"{name}-seed{seed}-trace{args.trace}.json"), "w") as f:
            json.dump(result, f, indent=1)
        print(report(result), flush=True)
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
