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

from dataclasses import dataclass
from functools import cache

import numpy as np

from .channel import InputChannel, NoiseModel, apply_transition_power
from .errors import ConfigError, require_selected, select
from .records import OUTCOME_DTYPE, Dataset, count_dtype, holds_numbers, recorded_seed
from .transforms import check_basis_indices, check_qubit_count, check_seed, check_size
from .transforms import integer_array, require_prob_dist

# the two functions that draw gate ids import clifford, so a command that
# only reads a profile through this module (characterize) never loads it

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

def _check_flip_probability(value, what: str) -> None:
    """ValueError unless value, a per-qubit error probability, is below a fair coin."""
    if not 0.0 <= value < 0.5:
        raise ValueError(f"{what} must be in [0, 0.5), got {value}")


def _per_qubit(values, n: int, what: str, pairs: bool) -> tuple:
    """A readout or preparation argument, one entry for every qubit or n
    entries, as n float entries. With pairs, an entry e stands for (e, e),
    or is an (e01, e10) pair; without, a pair is rejected."""
    entries = [values] * n if np.isscalar(values) else list(values)
    if len(entries) != n:
        raise ValueError(f"expected {n} {what} entries, got {len(entries)}")
    out = []
    for entry in entries:
        if not (pairs or np.isscalar(entry)):
            raise ValueError(f"{what} takes one probability per qubit, got {entry!r}")
        e01, e10 = map(float, (entry, entry) if np.isscalar(entry) else entry)
        for p in (e01, e10):
            _check_flip_probability(p, f"{what} probability")
        out.append((e01, e10) if pairs else e01)
    return tuple(out)


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Planted device parameters: gate flip rates plus SPAM confusion."""

    n: int
    rates: np.ndarray
    readout: tuple[tuple[float, float], ...] = 0.0
    prep: tuple[float, ...] = 0.0
    rates_by_input: dict | None = None

    def __post_init__(self):
        object.__setattr__(self, "n", check_qubit_count(self.n))
        object.__setattr__(self, "rates", self._checked_rates(self.rates, "rates"))
        object.__setattr__(self, "readout", _per_qubit(self.readout, self.n, "readout", True))
        object.__setattr__(self, "prep", _per_qubit(self.prep, self.n, "preparation", False))
        overrides = {}
        for index, values in (self.rates_by_input or {}).items():
            index = check_basis_indices(index, self.n, "override input").item()
            overrides[index] = self._checked_rates(values, f"override for input {index}")
        object.__setattr__(self, "rates_by_input", overrides)

    def _checked_rates(self, values, what: str) -> np.ndarray:
        """A read-only copy of values, a flip-pattern distribution of length 2**n."""
        rates = require_prob_dist(values).copy()
        if rates.shape != (self.size,):
            raise ValueError(f"{what} length {rates.size} does not match n={self.n}")
        rates.flags.writeable = False
        return rates

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
            self.n,
            [
                (1.0, (1.0 - e01 - e10) * (1.0 - 2.0 * p))
                for (e01, e10), p in zip(self.readout, self.prep)
            ],
        )


def _per_qubit_product(n: int, pairs) -> np.ndarray:
    """The length-2**n vector whose entry i multiplies pairs[q][bit q of i]
    over the qubits q, the new factor on the left at each qubit. One pair
    stands for every qubit. n is checked before anything is allocated."""
    check_qubit_count(n)
    out = np.ones(1)
    for pair in np.broadcast_to(np.asarray(pairs, dtype=float), (n, 2)):
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
    require_selected(inputs, "input states")
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


# count entries (circuits x inputs x outcomes), or gate ids, drawn per
# numpy call, unless one circuit holds more: a call's int64 result stays
# within 1 MiB, eight n=7 circuits' counts over all 128 inputs, however
# many circuits a depth has. Each call costs tens of microseconds before
# it draws, so at n=7, K=10 a depth's counts take 2 calls, not 10
_DRAW_ENTRIES = 1 << 17


def _depth_rng(seed: int, depth: int) -> np.random.Generator:
    """The random stream of one depth, the one
    ``default_rng(SeedSequence(seed, spawn_key=(depth,)))`` gives."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(depth,))))


def _circuits_per_call(entries_per_circuit: int) -> int:
    """How many circuits one draw of entries_per_circuit entries each takes."""
    return max(1, _DRAW_ENTRIES // max(1, entries_per_circuit))


@cache
def _flip_order(n: int) -> np.ndarray:
    """The 2**n flip patterns by increasing popcount, then by index, in the
    narrowest unsigned dtype that holds them; read-only, built once per n."""
    # sorted is stable, so patterns of one popcount stay in index order
    order = np.array(sorted(range(1 << n), key=int.bit_count), np.min_scalar_type((1 << n) - 1))
    order.flags.writeable = False
    return order


def _depth_columns(gt, depth, circuits_per_depth, inputs, shots, seed):
    """One depth's records as columns: (seq, input, lengths, outcome,
    count). Records run through the circuits, each over every input;
    record r's count entries are the next lengths[r] (outcome, count)
    pairs, by increasing outcome, in the dtypes the Dataset stores.

    The depth's stream draws every circuit's (depth, n) gate ids first, as
    generate_circuits does, and drops them; then every record's counts,
    circuit-major, each circuit's rows in input order. Each draw is split
    into calls of at most _DRAW_ENTRIES entries, or of one circuit, which
    changes no value.

    Input x's multinomial row lists its outcomes most likely first: its
    k-th category is outcome x ^ order[k], where order, _flip_order(n),
    sorts the flip patterns by popcount, then by index. numpy draws a row
    as one binomial per category in category order and stops once every
    shot is placed, so at n=7 (flip rate 0.002 per qubit and layer,
    readout 0.01, depths 0..30) a row takes 48.7 binomial draws on
    average instead of 117.7 in outcome order. The counts are put back in
    outcome order. The gate ids are drawn as before, so generate_circuits
    still gives each record's circuit.
    """
    from .clifford import GROUP_ORDER

    dists = exact_distributions(gt, depth, inputs)
    # every circuit's counts go into one block, so that the entries are
    # found, gathered and narrowed once per depth, not once per circuit.
    # It is made first: numpy rejects a shape past the address space before
    # any draw, where the gate-id calls would run through every circuit
    block = np.empty((circuits_per_depth, len(inputs), gt.size), count_dtype(shots))
    rng = _depth_rng(seed, depth)
    step = _circuits_per_call(depth * gt.n)
    for lo in range(0, circuits_per_depth, step):
        circuits = min(step, circuits_per_depth - lo)
        rng.integers(0, GROUP_ORDER, size=(circuits, depth, gt.n))
    # forward[i, k], the flat position in dists of input i's outcome
    # inputs[i] ^ order[k]; back, its inverse, takes a call's counts from
    # category order to outcome order. Both are kept narrow, but built in
    # int64: a run loads numpy's int64 loops anyway, while a first uint8
    # or uint16 XOR maps about 0.1 MiB more of its code into the process
    forward = np.arange(0, dists.size, gt.size)[:, None]
    forward = forward + (np.asarray(inputs)[:, None] ^ _flip_order(gt.n))
    flat = np.min_scalar_type(dists.size - 1)
    forward = forward.astype(flat)
    back = np.empty_like(forward)
    back.reshape(-1)[forward.reshape(-1)] = np.arange(dists.size, dtype=flat)
    dists = dists.reshape(-1)[forward]
    step = _circuits_per_call(dists.size)
    for lo in range(0, circuits_per_depth, step):
        rows = block[lo : lo + step]
        # shots as a (circuits, inputs) array broadcasts against dists, so
        # dists is not copied once per circuit
        rows[...] = rng.multinomial(np.full(rows.shape[:2], shots), dists)
        # category order to outcome order, a narrow copy of the call's rows
        rows[...] = np.take(rows.reshape(len(rows), -1), back, axis=1)
    block = block.reshape(-1, gt.size)
    # a bool mask, not the narrow counts themselves, is what numpy scans fast
    nonzero = block != 0
    entries = np.flatnonzero(nonzero)
    outcome = (entries & (gt.size - 1)).astype(OUTCOME_DTYPE)
    return (
        np.repeat(np.arange(circuits_per_depth), len(inputs)),
        np.tile(inputs, circuits_per_depth),
        np.count_nonzero(nonzero, axis=1),
        outcome,
        block.reshape(-1)[entries],
    )


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

    Deterministic per seed, one integer >= 0: depth m draws from its own
    random stream, the one ``default_rng(SeedSequence(seed, spawn_key=(m,)))``
    gives, first every circuit's (m, n) gate ids, as generate_circuits
    does, then every record's counts, circuit by circuit, each circuit's
    inputs in input order. Input x's counts are one multinomial row over
    the outcomes x ^ order[k], its likeliest outcomes first (order sorts
    the flip patterns by popcount, then by index), which at n=7 takes
    about 49 binomial draws per row where outcome order takes about 118;
    see _depth_columns. So results are identical whether generation
    runs serially or sharded across worker processes, and do not depend on
    the other depths. Each depth's counts are made in one dense block and
    kept only as the Dataset's compact entries. depths and inputs are
    selections: sorted, repeats dropped. workers None or 1 runs serially;
    above 1, depths are sharded over that many processes.
    """
    seed = check_seed(seed)
    depths, inputs = select(depths), select(inputs, gt.n)
    circuits_per_depth = check_size(circuits_per_depth, "circuits per depth")
    shots = check_size(shots, "shots")
    workers = None if workers is None else check_size(workers, "workers")
    shard_args = [(gt, depth, circuits_per_depth, inputs, shots, seed) for depth in depths]
    if workers is not None and workers > 1 and len(shard_args) > 1:
        # imported here: the pool module costs every serial run its import
        import concurrent.futures

        # a pool that forks starts all its workers at once: no more than shards
        with concurrent.futures.ProcessPoolExecutor(min(workers, len(shard_args))) as pool:
            shards = list(pool.map(_depth_columns, *zip(*shard_args)))
    else:
        shards = list(map(_depth_columns, *zip(*shard_args)))
    seq, input_column, lengths, outcome, count = (np.concatenate(parts) for parts in zip(*shards))
    del shards  # free the per-depth parts before the dataset's checks
    return Dataset(
        gt.n,
        np.repeat(depths, circuits_per_depth * len(inputs)),
        input_column,
        seq,
        np.full(len(seq), shots),
        lengths,
        outcome,
        count,
    )


def generate_circuits(n: int, depths, circuits_per_depth: int, seed: int = 0):
    """The identity circuits generate_dataset draws, in dataset order: at
    each depth, sample_identity_circuit once per circuit on that depth's
    stream."""
    from . import clifford

    seed = check_seed(seed)
    circuits_per_depth = check_size(circuits_per_depth, "circuits per depth")
    circuits = []
    for depth in select(depths):
        rng = _depth_rng(seed, depth)
        for k in range(circuits_per_depth):
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
    spam = gt.spectral_spam()
    return NoiseModel(
        gt.n, {index: InputChannel(gt.rates_for(index), spam) for index in range(gt.size)}
    )


def iid_bitflip(n: int, q: float, readout=0.0, prep=0.0) -> GroundTruth:
    """Independent per-qubit flip probability q each gate layer."""
    _check_flip_probability(q, "flip probability")
    rates = _per_qubit_product(n, (1.0 - q, q))
    return GroundTruth(n=n, rates=rates, readout=readout, prep=prep)


def depolarizing(n: int, alpha: float, readout=0.0, prep=0.0) -> GroundTruth:
    """Per-qubit depolarizing strength alpha; in the measured basis each
    qubit flips with probability alpha/2 per layer."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"depolarizing strength must be in [0, 1], got {alpha}")
    flip = alpha / 2.0
    rates = _per_qubit_product(n, (1.0 - flip, flip))
    return GroundTruth(n=n, rates=rates, readout=readout, prep=prep)


def correlated_pair(
    n: int, q: float, q_corr: float, first: int = 0, second: int = 1, readout=0.0, prep=0.0
) -> GroundTruth:
    """iid flips plus excess joint-flip mass on one qubit pair."""
    _check_flip_probability(q, "flip probability")
    if not 0.0 <= q_corr < 1.0:
        raise ValueError(f"correlated mass must be in [0, 1), got {q_corr}")
    rates = _per_qubit_product(n, (1.0 - q, q))
    if integer_array([first, second])[1] or first == second or {first, second} - set(range(n)):
        raise ValueError(f"need two distinct qubits in range, got {(first, second)}")
    pattern = (1 << first) | (1 << second)
    rates[pattern] += q_corr
    rates /= 1.0 + q_corr
    return GroundTruth(n=n, rates=rates, readout=readout, prep=prep)


def spam_only(n: int, epsilon, prep=0.0) -> GroundTruth:
    """No gate noise at all; only readout confusion (and optional prep)."""
    rates = _per_qubit_product(n, (1.0, 0.0))
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
    if not isinstance(name, str):
        raise ConfigError(f"malformed profile: preset must be a string, got {name!r}")
    params = payload.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"malformed profile: params must be an object, got {params!r}")
    for key, value in params.items():
        if not holds_numbers(value):
            raise ConfigError(f"malformed profile: parameter {key!r} is not a number: {value!r}")
    seed = recorded_seed(payload)
    return build_preset(name, n, **params), seed
