"""Command-line pipeline: simulate, characterize, predict, mitigate.

Subcommands chain through files (JSON-lines datasets, model JSON, CSV
reports) so any plot or table is regenerable from the artifacts alone;
each artifact embeds n, the seed, and a hash of the effective config.
Flags override values from an optional flat key=value config file.
Exit codes: 0 success, 2 config error, 3 coverage error, 4 numeric error.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import sys

import numpy as np

from .errors import ConfigError, CoverageError, NumericError
from .records import Dataset, index_to_bits, read_json, remove_artifact, write_csv, write_json
from .transforms import check_basis_indices

# stage module -> the names the commands use from it. Each is an attribute
# of this module that __getattr__ imports on first access (PEP 562), and
# the commands reach it as _stages.<name>: a command loads only the stage
# modules it runs, and a wrapper set on qflip.cli.<name> (as
# perfbench/traced_qflip.py sets them) is what the command calls
_STAGE_NAMES = {
    "simulator": (
        "DEFAULT_CIRCUITS_PER_DEPTH",
        "DEFAULT_SHOTS",
        "build_preset",
        "generate_dataset",
        "ground_truth_from_profile",
        "lookup_preset",
    ),
    "estimation": (
        "estimate_model",
        "rb_fit",
        "rb_series_from_dataset",
        "require_fit_depths",
        "write_diagnostics",
    ),
    "channel": ("predict_distribution", "read_model", "write_model"),
    "mitigation": (
        "MEM",
        "PROPOSED",
        "PROPOSED_PAVG",
        "UNMITIGATED",
        "evaluate_mitigation",
        "jsd",
    ),
}
_STAGE_OF = {name: module for module, names in _STAGE_NAMES.items() for name in names}


def __getattr__(name):
    module = _STAGE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__package__}.{module}"), name)
    globals()[name] = value
    return value


_stages = sys.modules[__name__]

__all__ = ["main", "build_parser", "parse_depths", "parse_inputs", "parse_preset"]


def parse_depths(text) -> list:
    """Depth grammar: comma-separated ints and inclusive a..b ranges."""
    depths = set()
    for token in str(text).split(","):
        token = token.strip()
        if not token:
            continue
        try:
            if ".." in token:
                lo, hi = token.split("..")
                lo, hi = int(lo), int(hi)
                if lo > hi:
                    raise ValueError
                depths.update(range(lo, hi + 1))
            else:
                depths.add(int(token))
        except ValueError:
            raise ConfigError(
                f"bad depth token {token!r}; use forms like 0,5,10 or 1..30"
            ) from None
    if not depths:
        raise ConfigError("empty depth list")
    if min(depths) < 0:
        raise ConfigError("depths must be >= 0")
    return sorted(depths)


def parse_inputs(text, size: int) -> list:
    """Input-state grammar: 'all' or comma-separated basis indices."""
    text = str(text).strip()
    if text.lower() == "all":
        return list(range(size))
    indices = set()
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            index = int(token)
        except ValueError:
            raise ConfigError(
                f"bad input token {token!r}; use decimal basis indices or 'all'"
            ) from None
        try:
            check_basis_indices(index, size.bit_length() - 1, "input state")
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        indices.add(index)
    if not indices:
        raise ConfigError("empty input list")
    return sorted(indices)


def parse_preset(text: str):
    """Preset grammar: name or name:value[:value...], positional params."""
    parts = str(text).split(":")
    name = parts[0].strip()
    _, types = _stages.lookup_preset(name)
    values = [p.strip() for p in parts[1:]]
    if len(values) > len(types):
        raise ConfigError(
            f"preset {name!r} takes at most {len(types)} parameters ({', '.join(types)})"
        )
    params = {}
    for (key, kind), value in zip(types.items(), values):
        try:
            params[key] = kind(value)
        except ValueError:
            raise ConfigError(f"bad value {value!r} for preset parameter {key}") from None
    return name, params


def parse_spam(text):
    """Error-probability grammar: scalar, comma list per qubit, a/b pairs."""

    def one(token):
        if "/" in token:
            a, b = token.split("/", 1)
            return (float(a), float(b))
        return float(token)

    try:
        parts = [one(t.strip()) for t in str(text).split(",") if t.strip()]
    except ValueError:
        raise ConfigError(f"bad error-probability value {text!r}") from None
    if not parts:
        raise ConfigError(f"bad error-probability value {text!r}")
    if len(parts) == 1 and not isinstance(parts[0], tuple):
        return parts[0]
    return parts


def _load_config(path, options) -> dict:
    """key = value lines of a config file; each key must name an option of
    some subcommand, so one file can serve several."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    values = {}
    with open(path) as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected key = value")
            written, _, value = line.partition("=")
            key = written.strip().replace("-", "_")
            if not key:
                raise ConfigError(f"{path}:{line_no}: empty key")
            if key not in options:
                raise ConfigError(f"{path}:{line_no}: unknown option {written.strip()!r}")
            values[key] = value.strip().strip("\"'")
    return values


class Settings:
    """Effective options: CLI flags override config-file entries."""

    def __init__(self, args: argparse.Namespace):
        self._cli = vars(args)
        path = self._cli.get("config")
        self._file = _load_config(path, self._cli["options"]) if path else {}

    def raw(self, key, default=None):
        value = self._cli.get(key)
        if value is not None:
            return value
        return self._file.get(key, default)

    def require(self, key):
        value = self.raw(key)
        if value is None:
            raise ConfigError(f"missing required option --{key.replace('_', '-')}")
        return value

    def integer(self, key, default=None, required: bool = False):
        value = self.require(key) if required else self.raw(key)
        if value is None:
            return default
        try:
            return int(value)
        except (TypeError, ValueError):
            raise ConfigError(f"--{key} expects an integer, got {value!r}") from None

    def boolean(self, key) -> bool:
        value = self.raw(key)
        if value is None:
            return False
        if isinstance(value, bool):
            return value
        text = str(value).strip().lower()
        if text in {"1", "true", "yes", "on"}:
            return True
        if text in {"0", "false", "no", "off"}:
            return False
        raise ConfigError(f"--{key} expects a boolean, got {value!r}")

    def out_dir(self) -> str:
        path = self.raw("out", ".")
        os.makedirs(path, exist_ok=True)
        return path


def _config_hash(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _meta_line(n, seed, digest) -> str:
    seed_text = "none" if seed is None else seed
    return f"n={n} seed={seed_text} config_sha256={digest}"


def _read_dataset(path, model=None) -> Dataset:
    if not os.path.exists(path):
        raise ConfigError(f"dataset not found: {path}")
    dataset = Dataset.read_jsonl(path)
    if model is not None and dataset.n != model.n:
        raise ConfigError(f"dataset has n={dataset.n} but model has n={model.n}")
    return dataset


def _positive_depths(dataset: Dataset) -> list:
    depths = [m for m in dataset.depths() if m > 0]
    return depths or dataset.depths()


def _ground_truth_params(s: Settings, inputs: str):
    """Shared simulate/run-all front end: preset, geometry, sampling plan
    over the input states that inputs names. The plan is what profile.json
    and the config digest record of it."""
    name, params = parse_preset(s.require("preset"))
    n = s.integer("n", required=True)
    for key in ("readout", "prep"):
        if s.raw(key) is not None:
            params[key] = parse_spam(s.raw(key))
    gt = _stages.build_preset(name, n, **params)
    plan = {
        "preset": name,
        "params": params,
        "n": n,
        "K": s.integer("K", _stages.DEFAULT_CIRCUITS_PER_DEPTH),
        "shots": s.integer("shots", _stages.DEFAULT_SHOTS),
        "seed": s.integer("seed", 0),
        "inputs": parse_inputs(inputs, gt.size),
    }
    return gt, plan


def _simulate_to_dir(gt, plan, depths, workers, outdir, digest, **extra_profile):
    dataset = _stages.generate_dataset(
        gt,
        depths,
        circuits_per_depth=plan["K"],
        inputs=plan["inputs"],
        shots=plan["shots"],
        seed=plan["seed"],
        workers=workers,
    )
    meta = _meta_line(plan["n"], plan["seed"], digest)
    dataset_path = os.path.join(outdir, "dataset.jsonl")
    dataset.write_jsonl(dataset_path, header=f"qflip dataset {meta}")
    profile = {**plan, "depths": depths, "config_sha256": digest, **extra_profile}
    profile_path = os.path.join(outdir, "profile.json")
    write_json(profile_path, profile)
    print(f"wrote {len(dataset)} records to {dataset_path}")
    print(f"wrote ground-truth profile to {profile_path}")
    return dataset, dataset_path


def _load_profile(s: Settings, dataset_path, n):
    """Planted ground truth when available: --profile or a sibling file."""
    path = s.raw("profile")
    if path is None:
        path = os.path.join(os.path.dirname(os.path.abspath(dataset_path)), "profile.json")
        if not os.path.exists(path):
            return None, None
    payload = read_json(path, "profile")
    try:
        gt, seed = _stages.ground_truth_from_profile(payload)
    except (ConfigError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if gt.n != n:
        raise ConfigError(f"{path}: profile has n={gt.n} but dataset has n={n}")
    return gt, seed


def _print_truth_distance(model, gt) -> None:
    for index, rates in zip(model.input_indices(), model.rates):
        gap = float(np.abs(rates - gt.rates_for(index)).sum())
        bits = index_to_bits(index, model.n)
        print(f"L1(p_hat, p_true) input {bits}: {gap:.6f}")


def _characterize_into(dataset, outdir, train, inputs, seed, digest, gt=None):
    model, fits = _stages.estimate_model(dataset, inputs=inputs, train_depths=train)
    model_path = os.path.join(outdir, "model.json")
    _stages.write_model(
        model_path,
        model,
        meta={"seed": seed, "config_sha256": digest, "train_depths": train},
    )
    _stages.write_diagnostics(
        os.path.join(outdir, "diagnostics.csv"), fits, meta=_meta_line(dataset.n, seed, digest)
    )
    print(f"wrote model to {model_path} (train depths {train[0]}..{train[-1]})")
    if gt is not None:
        _print_truth_distance(model, gt)
    return model, fits


def _check_train(train, rb: bool) -> None:
    """What the fits raise for too few training depths, before a file is written."""
    _stages.require_fit_depths(len(train))
    if rb:
        _stages.require_fit_depths(len(train), rb=True)


def _rb_into(dataset, outdir, train, fits, seed, digest, wanted: bool) -> None:
    """rb.json: the first fitted input's RB fit, or, unless wanted, no file."""
    path = os.path.join(outdir, "rb.json")
    if not wanted:
        remove_artifact(path)
        return
    input_index = min(fits)
    series = _stages.rb_series_from_dataset(dataset, input_index=input_index, depths=train)
    result = _stages.rb_fit(series, dataset.n)
    payload = {
        "n": dataset.n,
        "seed": seed,
        "config_sha256": digest,
        "input": index_to_bits(input_index, dataset.n),
        "amplitude": result.amplitude,
        "offset": result.offset,
        "alpha": result.alpha,
        "gate_error": result.gate_error,
        "degenerate": result.degenerate,
    }
    write_json(path, payload)
    flag = " (degenerate fit)" if result.degenerate else ""
    print(f"RB baseline: alpha={result.alpha:.6f} gate_error={result.gate_error:.6f}{flag}")
    print(f"wrote RB fit to {path}")


def _write_predictions(path, model, depths, inputs, dataset=None, meta=None) -> None:
    labels = [index_to_bits(i, model.n) for i in range(model.size)]
    model.rows(inputs)  # CoverageError before the file is created
    if dataset is not None:
        dataset.require(depths, inputs)

    def rows():
        for depth in depths:
            predicted = _stages.predict_distribution(model, depth, inputs)
            scores = [()] * len(inputs)
            if dataset is not None:
                observed = dataset.cell_means([depth], inputs)[:, 0]
                scores = [(score,) for score in _stages.jsd(observed, predicted).tolist()]
            for index, score, row in zip(inputs, scores, predicted):
                yield (depth, labels[index], *score, *row.tolist())

    # without a dataset the jsd column is empty
    score_fmt = "%.12g" if dataset is not None else ""
    fmt = f"%d,%s,{score_fmt}" + ",%.12g" * model.size
    write_csv(path, meta, ["depth", "input", "jsd", *labels], fmt, rows())
    print(f"wrote predictions to {path}")


def _mitigation_methods(dataset: Dataset, pooled: bool) -> list:
    # the MEM baseline joins when depth 0 calibrates every input
    methods = [_stages.UNMITIGATED]
    if 0 in dataset.depths():
        try:
            dataset.require([0], range(dataset.size))
        except CoverageError as exc:
            print(f"warning: MEM left out: {exc}", file=sys.stderr)
        else:
            methods.append(_stages.MEM)
    methods.append(_stages.PROPOSED)
    if pooled:
        methods.append(_stages.PROPOSED_PAVG)
    return methods


def _warn_overlap(train, test) -> None:
    overlap = sorted(set(train) & set(test))
    if overlap:
        shown = ", ".join(str(m) for m in overlap)
        print(f"warning: training and test depths overlap: {shown}", file=sys.stderr)


def _mitigate_into(dataset, model, outdir, test, inputs, pooled, seed, digest) -> None:
    methods = _mitigation_methods(dataset, pooled)
    report = _stages.evaluate_mitigation(
        dataset, model=model, test_depths=test, inputs=inputs, methods=methods
    )
    path = os.path.join(outdir, "report.csv")
    report.write_csv(path, meta=_meta_line(dataset.n, seed, digest))
    for depth in test:
        parts = [f"m={depth}"]
        for method in methods:
            parts.append(f"{method}={report.mean(depth, method):.6g}")
        print("  ".join(parts))
    print(f"wrote mitigation report to {path}")


def cmd_simulate(s: Settings) -> int:
    gt, plan = _ground_truth_params(s, s.raw("inputs", "0"))
    depths = parse_depths(s.require("depths"))
    digest = _config_hash({**plan, "command": "simulate", "depths": depths})
    _simulate_to_dir(gt, plan, depths, s.integer("workers"), s.out_dir(), digest)
    return 0


def cmd_characterize(s: Settings) -> int:
    dataset_path = s.require("dataset")
    dataset = _read_dataset(dataset_path)
    train_text = s.raw("train")
    train = parse_depths(train_text) if train_text is not None else _positive_depths(dataset)
    _check_train(train, s.boolean("rb"))
    inputs_text = s.raw("inputs")
    inputs = parse_inputs(inputs_text, 1 << dataset.n) if inputs_text is not None else None
    gt, seed = _load_profile(s, dataset_path, dataset.n)
    cfg = {
        "command": "characterize",
        "dataset": os.path.basename(dataset_path),
        "train": train,
        "inputs": inputs,
        "seed": seed,
    }
    digest = _config_hash(cfg)
    outdir = s.out_dir()
    _, fits = _characterize_into(dataset, outdir, train, inputs, seed, digest, gt=gt)
    _rb_into(dataset, outdir, train, fits, seed, digest, s.boolean("rb"))
    return 0


def cmd_predict(s: Settings) -> int:
    model, meta = _stages.read_model(s.require("model"))
    depths = parse_depths(s.require("depths"))
    inputs_text = s.raw("inputs")
    if inputs_text is not None:
        inputs = parse_inputs(inputs_text, model.size)
    else:
        inputs = sorted(model.input_indices())
    dataset = None
    if s.raw("dataset") is not None:
        dataset = _read_dataset(s.raw("dataset"), model)
    seed = meta.get("seed")
    cfg = {"command": "predict", "depths": depths, "inputs": inputs, "seed": seed}
    digest = _config_hash(cfg)
    path = os.path.join(s.out_dir(), "predictions.csv")
    _write_predictions(
        path, model, depths, inputs, dataset=dataset, meta=_meta_line(model.n, seed, digest)
    )
    return 0


def cmd_mitigate(s: Settings) -> int:
    model, meta = _stages.read_model(s.require("model"))
    dataset = _read_dataset(s.require("dataset"), model)
    test_text = s.raw("test")
    test = parse_depths(test_text) if test_text is not None else _positive_depths(dataset)
    inputs_text = s.raw("inputs")
    inputs = parse_inputs(inputs_text, model.size) if inputs_text is not None else None
    pooled = s.boolean("pavg")
    _warn_overlap(meta.get("train_depths", []), test)
    seed = meta.get("seed")
    cfg = {"command": "mitigate", "test": test, "inputs": inputs, "pavg": pooled, "seed": seed}
    digest = _config_hash(cfg)
    _mitigate_into(dataset, model, s.out_dir(), test, inputs, pooled, seed, digest)
    return 0


def cmd_run_all(s: Settings) -> int:
    # mitigation needs every basis input characterized
    gt, plan = _ground_truth_params(s, "all")
    train = parse_depths(s.require("train"))
    _check_train(train, s.boolean("rb"))
    test = parse_depths(s.require("test"))
    _warn_overlap(train, test)
    # depth 0 rides along as the MEM calibration stage
    depths = sorted(set(train) | set(test) | {0})
    pooled = s.boolean("pavg")
    digest = _config_hash(
        {**plan, "command": "run-all", "train": train, "test": test, "pavg": pooled}
    )
    outdir = s.out_dir()
    dataset, _ = _simulate_to_dir(
        gt, plan, depths, s.integer("workers"), outdir, digest, train=train, test=test
    )
    seed = plan["seed"]
    model, fits = _characterize_into(dataset, outdir, train, None, seed, digest, gt=gt)
    _rb_into(dataset, outdir, train, fits, seed, digest, s.boolean("rb"))
    _write_predictions(
        os.path.join(outdir, "predictions.csv"),
        model,
        test,
        sorted(fits),
        dataset=dataset,
        meta=_meta_line(dataset.n, seed, digest),
    )
    _mitigate_into(dataset, model, outdir, test, None, pooled, seed, digest)
    return 0


def _add_common(cmd) -> None:
    cmd.add_argument("--config", help="flat key=value config file; flags override it")
    cmd.add_argument("--out", help="output directory (default: current)")


def _add_device(cmd) -> None:
    cmd.add_argument("--preset", help="device preset, e.g. iid_bitflip:0.02")
    cmd.add_argument("--n", help="number of qubits")
    cmd.add_argument("--K", help="circuits per depth")
    cmd.add_argument("--shots", help="shots per circuit")
    cmd.add_argument("--seed", help="master RNG seed")
    cmd.add_argument("--readout", help="readout flip probability (scalar, list, or e01/e10 pairs)")
    cmd.add_argument("--prep", help="preparation flip probability (scalar or per-qubit list)")
    cmd.add_argument("--workers", help="parallel worker processes")


_PAVG_METHOD = "also score proposed_pavg: proposed on the model with its rates pooled"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qflip",
        description="Characterize, predict, and mitigate average bit-flip noise.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cmd = sub.add_parser("simulate", help="sample a dataset from a synthetic device")
    _add_common(cmd)
    _add_device(cmd)
    cmd.add_argument("--depths", help="depth grid, e.g. 1..30 or 0,10,20")
    cmd.add_argument("--inputs", help="input states: decimal indices or 'all' (default 0)")
    cmd.set_defaults(func=cmd_simulate)

    cmd = sub.add_parser("characterize", help="fit a noise model from a dataset")
    _add_common(cmd)
    cmd.add_argument("--dataset", help="JSON-lines dataset path")
    cmd.add_argument("--train", help="training depths (default: all positive depths)")
    cmd.add_argument("--inputs", help="input states to fit (default: all present)")
    cmd.add_argument("--profile", help="ground-truth profile JSON (default: sibling file)")
    cmd.add_argument("--rb", action="store_const", const=True, help="also fit the RB baseline")
    cmd.set_defaults(func=cmd_characterize)

    cmd = sub.add_parser("predict", help="predict average outputs at given depths")
    _add_common(cmd)
    cmd.add_argument("--model", help="fitted model JSON path")
    cmd.add_argument("--depths", help="depths to predict, e.g. 40,70,100")
    cmd.add_argument("--inputs", help="input states (default: all in the model)")
    cmd.add_argument("--dataset", help="optional dataset; adds a JSD column")
    cmd.set_defaults(func=cmd_predict)

    cmd = sub.add_parser("mitigate", help="score mitigation methods on test depths")
    _add_common(cmd)
    cmd.add_argument("--model", help="fitted model JSON path")
    cmd.add_argument("--dataset", help="JSON-lines dataset path")
    cmd.add_argument("--test", help="test depths (default: all positive depths)")
    cmd.add_argument("--inputs", help="input states (default: all present)")
    cmd.add_argument("--pavg", action="store_const", const=True, help=_PAVG_METHOD)
    cmd.set_defaults(func=cmd_mitigate)

    cmd = sub.add_parser(
        "run-all", help="simulate, characterize, predict, mitigate, over every input state"
    )
    _add_common(cmd)
    _add_device(cmd)
    cmd.add_argument("--train", help="training depths, e.g. 1..30")
    cmd.add_argument("--test", help="test depths, e.g. 10,30,50,70,90")
    cmd.add_argument("--pavg", action="store_const", const=True, help=_PAVG_METHOD)
    cmd.add_argument("--rb", action="store_const", const=True, help="also fit the RB baseline")
    cmd.set_defaults(func=cmd_run_all)

    # a config file may set any option of any subcommand
    options = set().union(*(vars(cmd.parse_args([])) for cmd in sub.choices.values()))
    parser.set_defaults(options=frozenset(options - {"func"}))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(Settings(args))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CoverageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
