"""Synthetic noisy device with planted ground truth.

The device executes nominally-identity circuits by applying depth steps of
a bit-flip Markov chain (shared or per-input flip-pattern rates), wrapped
by per-qubit preparation flips before and per-qubit readout confusion
after, then draws multinomial shot counts. Preparation and readout are
applied as the true tensor-product confusion maps; the Walsh-diagonal
summary ``spectral_spam`` is exact when every qubit's readout confusion is
symmetric (eps01 == eps10) and an approximation otherwise.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass

import numpy as np

from . import clifford
from .channel import NoiseModel, apply_transition_power
from .errors import ConfigError
from .records import Dataset, holds_numbers
from .transforms import check_basis_indices, check_qubit_count, require_prob_dist

__all__ = [
    "GroundTruth",
    "exact_distribution",
    "exact_distributions",
    "generate_dataset",
    "generate_circuits",
    "true_noise_model",
    "iid_bitflip",
    "depolarizing",
    "correlated_pair",
    "spam_only",
    "PRESETS",
    "lookup_preset",
    "build_preset",
    "ground_truth_from_profile",
    "DEFAULT_SHOTS",
    "DEFAULT_CIRCUITS_PER_DEPTH",
]

DEFAULT_SHOTS = 1024
DEFAULT_CIRCUITS_PER_DEPTH = 1000

# per-qubit error probabilities live strictly below a fair coin
MAX_FLIP_PROB = 0.5


def _per_qubit_pairs(readout, n: int) -> tuple[tuple[float, float], ...]:
    """Normalize a readout argument: scalar, per-qubit scalar, or (e01, e10)."""
    if np.isscalar(readout):
        pairs = [(float(readout), float(readout))] * n
    else:
        entries = list(readout)
        if len(entries) != n:
            raise ValueError(f"expected {n} readout entries, got {len(entries)}")
        pairs = []
        for entry in entries:
            if np.isscalar(entry):
                pairs.append((float(entry), float(entry)))
            else:
                e01, e10 = entry
                pairs.append((float(e01), float(e10)))
    for e01, e10 in pairs:
        if not (0.0 <= e01 < MAX_FLIP_PROB and 0.0 <= e10 < MAX_FLIP_PROB):
            raise ValueError(f"readout probabilities must be in [0, 0.5), got {(e01, e10)}")
    return tuple(pairs)


def _per_qubit_probs(prep, n: int) -> tuple[float, ...]:
    if np.isscalar(prep):
        probs = [float(prep)] * n
    else:
        probs = [float(x) for x in prep]
        if len(probs) != n:
            raise ValueError(f"expected {n} preparation entries, got {len(probs)}")
    for p in probs:
        if not 0.0 <= p < MAX_FLIP_PROB:
            raise ValueError(f"preparation flip probability must be in [0, 0.5), got {p}")
    return tuple(probs)


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Planted device parameters: gate flip rates plus SPAM confusion."""

    n: int
    rates: np.ndarray
    readout: tuple[tuple[float, float], ...] = 0.0
    prep: tuple[float, ...] = 0.0
    rates_by_input: dict | None = None

    def __post_init__(self):
        check_qubit_count(self.n)
        rates = require_prob_dist(self.rates).copy()
        if rates.shape != (1 << self.n,):
            raise ValueError(f"rates length {rates.size} does not match n={self.n}")
        rates.flags.writeable = False
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "readout", _per_qubit_pairs(self.readout, self.n))
        object.__setattr__(self, "prep", _per_qubit_probs(self.prep, self.n))
        overrides = {}
        if self.rates_by_input:
            for index, values in self.rates_by_input.items():
                index = int(index)
                check_basis_indices(index, self.n, "override input")
                arr = require_prob_dist(values).copy()
                if arr.shape != (1 << self.n,):
                    raise ValueError(f"override for input {index} has wrong length")
                arr.flags.writeable = False
                overrides[index] = arr
        object.__setattr__(self, "rates_by_input", overrides)

    @property
    def size(self) -> int:
        return 1 << self.n

    def rates_for(self, input_index: int) -> np.ndarray:
        return self.rates_by_input.get(input_index, self.rates)

    def prep_matrices(self) -> list[np.ndarray]:
        return [np.array([[1.0 - p, p], [p, 1.0 - p]]) for p in self.prep]

    def readout_matrices(self) -> list[np.ndarray]:
        # column j = true bit j, row i = reported bit i
        return [
            np.array([[1.0 - e01, e10], [e01, 1.0 - e10]]) for e01, e10 in self.readout
        ]

    def spectral_spam(self) -> np.ndarray:
        """Walsh-diagonal SPAM attenuation per parity coefficient.

        Entry i multiplies factors (1 - e01 - e10)(1 - 2 prep) over the
        qubits set in i. Exact for symmetric readout; otherwise the
        composed confusion also has off-diagonal Walsh structure that this
        summary drops.
        """
        return _per_qubit_product(
            [
                (1.0, (1.0 - e01 - e10) * (1.0 - 2.0 * p))
                for (e01, e10), p in zip(self.readout, self.prep)
            ]
        )


def _per_qubit_product(pairs) -> np.ndarray:
    """The length-2**n vector whose entry i multiplies pairs[q][bit q of i]
    over the qubits q, the new factor on the left at each qubit."""
    out = np.ones(1)
    for pair in pairs:
        # kron on the left: the new qubit becomes the highest bit of the index
        out = np.kron(pair, out)
    return out


def _apply_per_qubit(matrices, vec: np.ndarray, n: int) -> np.ndarray:
    """Apply one 2x2 matrix per qubit to each row of a (rows, 2**n) array,
    O(n 2**n) per row.

    Each row takes one (2, 2) @ (2, 2**(n-1)) product per qubit, whatever
    the number of rows, so a row's bits do not depend on the other rows.
    """
    rows = vec.shape[0]
    out = vec
    for qubit, mat in enumerate(matrices):
        low, high = 1 << qubit, 1 << (n - 1 - qubit)
        pairs = out.reshape(rows, high, 2, low).transpose(0, 2, 1, 3)
        mixed = np.matmul(mat, pairs.reshape(rows, 2, high * low))
        out = mixed.reshape(rows, 2, high, low).transpose(0, 2, 1, 3).reshape(rows, -1)
    return out


def exact_distributions(gt: GroundTruth, depth: int, inputs) -> np.ndarray:
    """True outcome distributions, one row per input state:
    readout . gate-chain^depth . prep . e_in.

    Each row uses its input's own rates when ``rates_by_input`` overrides
    them.
    """
    inputs = check_basis_indices(inputs, gt.n).tolist()
    state = np.zeros((len(inputs), gt.size))
    state[np.arange(len(inputs)), inputs] = 1.0
    if any(p > 0.0 for p in gt.prep):
        state = _apply_per_qubit(gt.prep_matrices(), state, gt.n)
    if any(index in gt.rates_by_input for index in inputs):
        rates = np.stack([gt.rates_for(index) for index in inputs])
    else:
        rates = gt.rates
    state = apply_transition_power(rates, depth, state)
    if any(e01 > 0.0 or e10 > 0.0 for e01, e10 in gt.readout):
        state = _apply_per_qubit(gt.readout_matrices(), state, gt.n)
    state = np.ascontiguousarray(np.maximum(state, 0.0))
    return state / state.sum(axis=-1, keepdims=True)


def exact_distribution(gt: GroundTruth, depth: int, input_index: int) -> np.ndarray:
    """True outcome distribution of one input state; see exact_distributions."""
    return exact_distributions(gt, depth, [input_index])[0]


def _shard_rng(seed: int, depth: int, sequence_id: int) -> np.random.Generator:
    # one stream per (depth, circuit); independent of list order and workers
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(depth, sequence_id)))


def _check_generation_args(gt, depths, circuits_per_depth, inputs, shots):
    depths = [int(d) for d in depths]
    if not depths:
        raise ValueError("need at least one depth")
    if len(set(depths)) != len(depths):
        raise ValueError("depths must be unique")
    if min(depths) < 0:
        raise ValueError("depths must be >= 0")
    inputs = check_basis_indices(inputs, gt.n).tolist()
    if not inputs:
        raise ValueError("need at least one input state")
    if len(set(inputs)) != len(inputs):
        raise ValueError("input states must be unique")
    if circuits_per_depth < 1:
        raise ValueError(f"circuits per depth must be >= 1, got {circuits_per_depth}")
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    return depths, sorted(inputs)


def _depth_columns(gt, depth, circuits_per_depth, inputs, shots, seed, first_record):
    """One depth's records as columns: (seq, input, record, outcome, count),
    the count entries in record, then outcome order.

    Records run through the circuits, each over every input, and are
    numbered from first_record.
    """
    dists = exact_distributions(gt, depth, inputs)
    entries = []
    for k in range(circuits_per_depth):
        rng = _shard_rng(seed, depth, k)
        # draw the circuit's gate ids first, as sample_identity_circuit does,
        # so generate_circuits reproduces it; depth 0 draws nothing
        rng.integers(0, clifford.GROUP_ORDER, size=(depth, gt.n))
        # one row per input, drawn in input order from the circuit's stream
        sample = rng.multinomial(shots, dists)
        rows, outcomes = np.nonzero(sample)
        entries.append((rows + (first_record + k * len(inputs)), outcomes, sample[rows, outcomes]))
    seq = np.repeat(np.arange(circuits_per_depth), len(inputs))
    input_column = np.tile(inputs, circuits_per_depth)
    return (seq, input_column, *(np.concatenate(parts) for parts in zip(*entries)))


def generate_dataset(
    gt: GroundTruth,
    depths,
    circuits_per_depth: int = DEFAULT_CIRCUITS_PER_DEPTH,
    inputs=(0,),
    shots: int = DEFAULT_SHOTS,
    seed: int = 0,
    workers: int | None = None,
) -> Dataset:
    """Sample circuits_per_depth circuits at every depth and input state.

    Deterministic per seed: every (depth, circuit) pair derives its own
    random stream, so results are identical whether generation runs
    serially or sharded across worker processes.
    """
    depths, inputs = _check_generation_args(gt, depths, circuits_per_depth, inputs, shots)
    per_depth = circuits_per_depth * len(inputs)
    shard_args = [
        (gt, depth, circuits_per_depth, inputs, shots, seed, position * per_depth)
        for position, depth in enumerate(depths)
    ]
    if workers is not None and workers > 1 and len(shard_args) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            shards = list(pool.map(_depth_columns, *zip(*shard_args)))
    else:
        shards = list(map(_depth_columns, *zip(*shard_args)))
    seq, input_column, record, outcome, count = (np.concatenate(parts) for parts in zip(*shards))
    del shards  # free the per-depth copies before the dataset's checks
    return Dataset.from_columns(
        gt.n,
        np.repeat(depths, per_depth),
        input_column,
        seq,
        np.full(len(seq), shots),
        record,
        outcome,
        count,
    )


def generate_circuits(n: int, depths, circuits_per_depth: int, seed: int = 0):
    """The identity circuits generate_dataset draws, in dataset order."""
    circuits = []
    for depth in sorted(set(int(d) for d in depths)):
        for k in range(circuits_per_depth):
            rng = _shard_rng(seed, depth, k)
            if depth == 0:
                circuits.append(clifford.empty_circuit(n))
            else:
                circuits.append(clifford.sample_identity_circuit(n, depth, rng, seed=k))
    return circuits


def true_noise_model(gt: GroundTruth) -> NoiseModel:
    """The planted parameters as a fitted-model object (all input states).

    Exactly reproduces the device for symmetric readout confusion, where
    prep flips commute with the gate chain and fold into the Walsh-diagonal
    SPAM factor.
    """
    rates = np.stack([gt.rates_for(index) for index in range(gt.size)])
    spam = np.broadcast_to(gt.spectral_spam(), rates.shape)
    return NoiseModel.from_arrays(gt.n, np.arange(gt.size), rates, spam)


def iid_bitflip(n: int, q: float, readout=0.0, prep=0.0) -> GroundTruth:
    """Independent per-qubit flip probability q each gate layer."""
    check_qubit_count(n)
    if not 0.0 <= q < MAX_FLIP_PROB:
        raise ValueError(f"flip probability must be in [0, 0.5), got {q}")
    rates = _per_qubit_product([(1.0 - q, q)] * n)
    return GroundTruth(n=n, rates=rates, readout=readout, prep=prep)


def depolarizing(n: int, alpha: float, readout=0.0, prep=0.0) -> GroundTruth:
    """Per-qubit depolarizing strength alpha; in the measured basis each
    qubit flips with probability alpha/2 per layer."""
    check_qubit_count(n)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"depolarizing strength must be in [0, 1], got {alpha}")
    flip = alpha / 2.0
    rates = _per_qubit_product([(1.0 - flip, flip)] * n)
    return GroundTruth(n=n, rates=rates, readout=readout, prep=prep)


def correlated_pair(
    n: int, q: float, q_corr: float, first: int = 0, second: int = 1, readout=0.0, prep=0.0
) -> GroundTruth:
    """iid flips plus excess joint-flip mass on one qubit pair."""
    check_qubit_count(n)
    if not 0.0 <= q < MAX_FLIP_PROB:
        raise ValueError(f"flip probability must be in [0, 0.5), got {q}")
    if not 0.0 <= q_corr < 1.0:
        raise ValueError(f"correlated mass must be in [0, 1), got {q_corr}")
    if first == second or not (0 <= first < n and 0 <= second < n):
        raise ValueError(f"need two distinct qubits in range, got {(first, second)}")
    rates = _per_qubit_product([(1.0 - q, q)] * n)
    pattern = (1 << first) | (1 << second)
    rates[pattern] += q_corr
    rates /= 1.0 + q_corr
    return GroundTruth(n=n, rates=rates, readout=readout, prep=prep)


def spam_only(n: int, epsilon, prep=0.0) -> GroundTruth:
    """No gate noise at all; only readout confusion (and optional prep)."""
    check_qubit_count(n)
    rates = np.zeros(1 << n)
    rates[0] = 1.0
    return GroundTruth(n=n, rates=rates, readout=epsilon, prep=prep)


# name -> (builder, the parameters that may follow the name in order, as
# in iid_bitflip:0.02, with their types)
PRESETS = {
    "iid_bitflip": (iid_bitflip, {"q": float}),
    "depolarizing": (depolarizing, {"alpha": float}),
    "correlated_pair": (
        correlated_pair, {"q": float, "q_corr": float, "first": int, "second": int}
    ),
    "spam_only": (spam_only, {"epsilon": float}),
}


def lookup_preset(name: str):
    """(builder, params) of a preset; ConfigError lists the known names."""
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise ConfigError(f"unknown preset {name!r}; available: {known}") from None


def build_preset(name: str, n: int, **params) -> GroundTruth:
    builder, _ = lookup_preset(name)
    # outside the except below, so a bad n is not called a bad parameter
    check_qubit_count(n)
    try:
        return builder(n=n, **params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad parameters for preset {name!r}: {exc}") from exc


def ground_truth_from_profile(payload: dict):
    """Profile JSON -> (GroundTruth, seed). Shape:
    {"preset": name, "n": n, "seed": s, "params": {...}}."""
    try:
        name = payload["preset"]
        n = payload["n"]
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed profile: {exc}") from exc
    if type(n) is not int:
        raise ConfigError(f"malformed profile: n must be an integer, got {n!r}")
    if not isinstance(name, str):
        raise ConfigError(f"malformed profile: preset must be a string, got {name!r}")
    params = payload.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("profile params must be an object")
    for key, value in params.items():
        if not holds_numbers(value):
            raise ConfigError(f"malformed profile: parameter {key!r} is not a number: {value!r}")
    seed = payload.get("seed")
    if seed is not None and type(seed) is not int:
        raise ConfigError(f"malformed profile: seed must be an integer, got {seed!r}")
    return build_preset(name, n, **params), seed
