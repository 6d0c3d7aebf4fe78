"""Bit-flip channel algebra over n-qubit outcome distributions.

A depth-m run of nominally-identity circuits is modeled as m applications
of one average per-gate transition matrix, wrapped by a state-preparation
and measurement (SPAM) factor. Both matrices are diagonalized by the
Walsh-Hadamard transform, so every operation here works on length-2**n
vectors in O(n * 2**n):

  * ``rates``: probabilities of each n-bit flip pattern per gate layer
    (index 1 flips qubit 0, the rightmost bit of the displayed string);
  * ``eigenvalues``: the WHT of the rates, one attenuation per parity
    coefficient, raised to the m-th power for depth m;
  * ``spam``: the per-coefficient SPAM attenuation, entry 0 fixed at 1.

Dense matrices are only materialized on demand for inspection and for the
mitigation system; predictions always go through the spectral route.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import CoverageError, format_missing
from .transforms import (
    MAX_QUBITS,
    fwht,
    fwht_inverse,
    num_qubits,
    require_prob_dist,
    simplex_project,
)

__all__ = [
    "InputChannel",
    "NoiseModel",
    "MitigationMatrix",
    "eigenvalues_from_rates",
    "rates_from_eigenvalues",
    "gate_error_matrix",
    "spam_matrix",
    "apply_transition_power",
    "predict_distribution",
    "mitigation_matrix",
    "average_error_rates",
    "model_to_json",
    "model_from_json",
    "write_model",
    "read_model",
]

SPAM_HEAD_TOL = 1e-9


def eigenvalues_from_rates(rates: np.ndarray) -> np.ndarray:
    """WHT spectrum of a flip-pattern distribution; entry 0 is exactly 1.

    A ``(..., 2**n)`` array gives one spectrum per distribution.
    """
    spectrum = fwht(require_prob_dist(rates))
    spectrum[..., 0] = 1.0
    return spectrum


def rates_from_eigenvalues(eigenvalues: np.ndarray) -> np.ndarray:
    """Inverse of ``eigenvalues_from_rates`` followed by simplex projection.

    Exact (projection is the identity) when the spectrum came from a
    distribution; otherwise returns the nearest valid distribution.
    """
    return simplex_project(fwht_inverse(np.asarray(eigenvalues, dtype=float)))


def gate_error_matrix(rates: np.ndarray) -> np.ndarray:
    """Dense per-gate transition matrix T[i, j] = rates[i ^ j].

    Symmetric and column-stochastic; diagonalized by the WHT with
    eigenvalues ``eigenvalues_from_rates(rates)``. For computation prefer
    ``apply_transition_power``; this dense form is for inspection.
    """
    arr = require_prob_dist(rates)
    idx = np.arange(1 << num_qubits(arr))
    return arr[idx[:, None] ^ idx[None, :]]


def spam_matrix(spam: np.ndarray) -> np.ndarray:
    """Dense SPAM matrix (1/2**n) W diag(spam) W; columns sum to spam[0]."""
    arr = np.asarray(spam, dtype=float)
    n = num_qubits(arr)
    if abs(arr[0] - 1.0) > SPAM_HEAD_TOL:
        raise ValueError(f"spam[0] must be 1, got {arr[0]!r}")
    walsh = _walsh_matrix(n)
    return (walsh * arr) @ walsh / arr.size


def _walsh_matrix(n: int) -> np.ndarray:
    idx = np.arange(1 << n)
    overlaps = idx[:, None] & idx[None, :]
    # popcount parity of i & j gives the +-1 Walsh matrix entry
    return np.where(_popcount(overlaps) % 2 == 0, 1.0, -1.0)


def _popcount(values: np.ndarray) -> np.ndarray:
    out = np.zeros_like(values)
    work = values.copy()
    while work.any():
        out += work & 1
        work >>= 1
    return out


def apply_transition_power(rates: np.ndarray, depth: int, vec: np.ndarray) -> np.ndarray:
    """Apply the depth-th power of the gate transition matrix to vec.

    Spectral route: WHT, elementwise eigenvalue power, inverse WHT; never
    forms the dense matrix. depth == 0 returns vec unchanged. vec may be a
    ``(..., 2**n)`` batch of vectors; rates is then one distribution for
    all of them or one per vector, and every vector gets the
    floating-point result it gets alone.
    """
    arr = require_prob_dist(rates)
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    target = np.asarray(vec, dtype=float)
    if arr.ndim > target.ndim or target.shape[target.ndim - arr.ndim:] != arr.shape:
        raise ValueError(f"vector shape {target.shape} does not match rates {arr.shape}")
    if depth == 0:
        return target.copy()
    spectrum = eigenvalues_from_rates(arr) ** depth
    return fwht_inverse(spectrum * fwht(target))


@dataclass(frozen=True, eq=False)
class InputChannel:
    """Fitted noise parameters for one basis input state.

    rates: flip-pattern distribution applied per gate layer.
    spam: per-coefficient SPAM attenuation (WHT diagonal), spam[0] == 1.
    """

    rates: np.ndarray
    spam: np.ndarray

    def __post_init__(self):
        rates = require_prob_dist(self.rates)
        spam = np.asarray(self.spam, dtype=float)
        num_qubits(spam)
        if spam.shape != rates.shape:
            raise ValueError(
                f"spam length {spam.size} does not match rates length {rates.size}"
            )
        if abs(spam[0] - 1.0) > SPAM_HEAD_TOL:
            raise ValueError(f"spam[0] must be 1, got {spam[0]!r}")
        rates = rates.copy()
        spam = spam.copy()
        spam[0] = 1.0
        rates.flags.writeable = False
        spam.flags.writeable = False
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "spam", spam)

    @property
    def eigenvalues(self) -> np.ndarray:
        return eigenvalues_from_rates(self.rates)


@dataclass(frozen=True, eq=False)
class NoiseModel:
    """Per-input-state channel parameters for an n-qubit device.

    channels maps basis input index -> InputChannel. A model need not
    cover all 2**n inputs; operations that require full coverage
    (averaging, mitigation matrices) raise CoverageError when it is
    missing.
    """

    n: int
    channels: dict[int, InputChannel]

    def __post_init__(self):
        if not 1 <= self.n <= MAX_QUBITS:
            raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}], got {self.n}")
        if not self.channels:
            raise ValueError("model has no input-state channels")
        object.__setattr__(self, "channels", dict(self.channels))
        size = 1 << self.n
        for index, channel in self.channels.items():
            if not 0 <= index < size:
                raise ValueError(f"input index {index} out of range for n={self.n}")
            if channel.rates.size != size:
                raise ValueError(
                    f"channel for input {index} has length {channel.rates.size}, "
                    f"expected {size}"
                )

    @property
    def size(self) -> int:
        return 1 << self.n

    def channel(self, input_index: int) -> InputChannel:
        try:
            return self.channels[input_index]
        except KeyError:
            raise CoverageError(
                f"model has no channel for input state {input_index} "
                f"({format(input_index, f'0{self.n}b')})"
            ) from None

    def input_indices(self) -> list[int]:
        return sorted(self.channels)


def predict_distribution(model: NoiseModel, depth: int, input_index: int) -> np.ndarray:
    """Predicted outcome distribution after depth gate layers on one input.

    Spectrally: project(W^-1 (spam * eigenvalues**depth * W e_in)). The
    projection only acts when fitted SPAM values push entries slightly
    negative; for exact models it is the identity.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    channel = model.channel(input_index)
    return _predict(channel.spam, channel.eigenvalues, depth, input_index, model.size)


def _predict(spam, eigenvalues, depth: int, input_index: int, size: int) -> np.ndarray:
    if not 0 <= input_index < size:
        raise ValueError(f"input index {input_index} out of range for size {size}")
    indicator = np.zeros(size)
    indicator[input_index] = 1.0
    spectrum = spam * eigenvalues**depth * fwht(indicator)
    return simplex_project(fwht_inverse(spectrum))


@dataclass(frozen=True, eq=False)
class MitigationMatrix:
    """Columns are predicted distributions per input state at one depth."""

    depth: int
    matrix: np.ndarray = field(repr=False)
    condition: float

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


def mitigation_matrix(
    model: NoiseModel, depth: int, use_average_rates: bool = False
) -> MitigationMatrix:
    """Build the depth-m mitigation system: column in = prediction for in.

    Requires a channel for every input state. With use_average_rates the
    gate error rates are pooled across inputs (one shared spectrum) while
    SPAM stays input-specific. The 1-norm condition number is recorded so
    callers can flag ill-conditioned inversions.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    size = model.size
    missing = [i for i in range(size) if i not in model.channels]
    if missing:
        raise CoverageError(
            f"mitigation matrix needs all {size} input states; missing "
            + format_missing(missing, lambda i: format(i, f"0{model.n}b"))
        )
    shared = eigenvalues_from_rates(average_error_rates(model)) if use_average_rates else None
    columns = np.empty((size, size))
    for index in range(size):
        channel = model.channels[index]
        eigenvalues = shared if shared is not None else channel.eigenvalues
        columns[:, index] = _predict(channel.spam, eigenvalues, depth, index, size)
    try:
        condition = float(np.linalg.cond(columns, 1))
    except np.linalg.LinAlgError:
        condition = float("inf")
    return MitigationMatrix(depth=depth, matrix=columns, condition=condition)


def average_error_rates(model: NoiseModel) -> np.ndarray:
    """Mean flip-pattern distribution across all 2**n input states.

    Each per-input rate vector already lives in the input-0 flip frame
    (estimation aligns them), so a plain arithmetic mean is correct.
    """
    size = model.size
    missing = [i for i in range(size) if i not in model.channels]
    if missing:
        raise CoverageError(
            f"average over input states needs all {size}; missing "
            + format_missing(missing, lambda i: format(i, f"0{model.n}b"))
        )
    stacked = np.stack([model.channels[i].rates for i in range(size)])
    return stacked.mean(axis=0)


def model_to_json(model: NoiseModel) -> dict:
    """JSON form: {"n": n, "inputs": {"<index>": {"p": [...], "A": [...]}}}."""
    inputs = {
        str(index): {
            "p": [float(x) for x in channel.rates],
            "A": [float(x) for x in channel.spam],
        }
        for index, channel in sorted(model.channels.items())
    }
    return {"n": model.n, "inputs": inputs}


def model_from_json(payload: dict) -> NoiseModel:
    try:
        n = int(payload["n"])
        raw_inputs = payload["inputs"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed model payload: {exc}") from exc
    if not isinstance(raw_inputs, dict) or not raw_inputs:
        raise ValueError("model payload has no inputs")
    channels = {}
    for key, entry in raw_inputs.items():
        try:
            index = int(key)
            rates = np.asarray(entry["p"], dtype=float)
            spam = np.asarray(entry["A"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed model entry for input {key!r}: {exc}") from exc
        channels[index] = InputChannel(rates=rates, spam=spam)
    return NoiseModel(n=n, channels=channels)


def write_model(path, model: NoiseModel, meta: dict | None = None) -> None:
    payload = model_to_json(model)
    if meta:
        payload["meta"] = meta
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def read_model(path) -> NoiseModel:
    with open(path) as handle:
        payload = json.load(handle)
    return model_from_json(payload)
