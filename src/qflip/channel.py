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

A NoiseModel stores these per characterized input as rows of ``(inputs,
2**n)`` arrays, and predictions batch over inputs: one spectral
prediction gives a row per input, each equal to its one-input result, and
builds all 2**n columns of a mitigation matrix at once. Dense matrices are
only materialized on demand for inspection and for the mitigation system;
predictions always go through the spectral route.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, CoverageError, format_missing, require_selected
from .records import holds_numbers, index_to_bits, read_json, write_json
from .transforms import (
    check_basis_indices,
    check_depths,
    check_qubit_count,
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
    "pool_rates",
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


def _check_spam_head(spam: np.ndarray) -> None:
    """ValueError unless spam[0] of each vector along the last axis is
    within SPAM_HEAD_TOL of 1."""
    heads = spam[..., :1]
    off = np.abs(heads - 1.0) > SPAM_HEAD_TOL
    if off.any():
        raise ValueError(f"spam[0] must be 1, got {float(heads[off][0])!r}")


def spam_matrix(spam: np.ndarray) -> np.ndarray:
    """Dense SPAM matrix (1/2**n) W diag(spam) W; columns sum to spam[0]."""
    arr = np.asarray(spam, dtype=float)
    num_qubits(arr)
    _check_spam_head(arr)
    # fwht transforms rows: diag(spam) W, then (W diag(spam)) W
    return fwht(fwht(np.diag(arr)).T) / arr.size


def apply_transition_power(rates: np.ndarray, depth: int, vec: np.ndarray) -> np.ndarray:
    """Apply the depth-th power of the gate transition matrix to vec.

    Spectral route: WHT, elementwise eigenvalue power, inverse WHT; never
    forms the dense matrix. depth == 0 returns vec unchanged. vec may be a
    ``(..., 2**n)`` batch of vectors; rates is then one distribution for
    all of them or one per vector, and every vector gets the
    floating-point result it gets alone.
    """
    arr = require_prob_dist(rates)
    depth = check_depths(depth).item()
    target = np.asarray(vec, dtype=float)
    if arr.ndim > target.ndim or target.shape[target.ndim - arr.ndim:] != arr.shape:
        raise ValueError(f"vector shape {target.shape} does not match rates {arr.shape}")
    if depth == 0:
        return target.copy()
    spectrum = eigenvalues_from_rates(arr) ** depth
    return fwht_inverse(spectrum * fwht(target))


# fitted noise parameters for one basis input state: rates, the
# flip-pattern distribution applied per gate layer, and spam, the
# per-coefficient SPAM attenuation (WHT diagonal) with spam[0] == 1
InputChannel = namedtuple("InputChannel", "rates spam")


class NoiseModel:
    """Per-input-state channel parameters for an n-qubit device, held as arrays.

    ``NoiseModel(n, channels)`` builds one from a mapping of basis input
    index -> InputChannel. ``inputs`` holds the k characterized basis
    inputs in increasing order; row r of the read-only ``(k, 2**n)``
    arrays ``rates`` and ``spam`` belongs to ``inputs[r]``, and
    ``channel(index)`` reads one row back. Every rates row is a
    distribution, spam is finite, and each spam[0] within SPAM_HEAD_TOL of
    1 is stored as exactly 1. A model need not cover all 2**n inputs;
    ``rows`` raises CoverageError for an input it does not cover, and
    mitigation matrices need them all.
    """

    def __init__(self, n: int, channels: Mapping[int, InputChannel]):
        n = check_qubit_count(n)
        size = 1 << n
        order = sorted(channels)
        if not order:
            raise ValueError("model has no input-state channels")
        for index in order:
            for vector in channels[index]:
                if np.shape(vector) != (size,):
                    raise ValueError(
                        f"channel for input {index} has length {np.size(vector)}, "
                        f"expected {size}"
                    )
        inputs = check_basis_indices(order, n)
        rates = np.array([channels[index].rates for index in order], dtype=float)
        spam = np.array([channels[index].spam for index in order], dtype=float)
        require_prob_dist(rates)
        if not np.all(np.isfinite(spam)):
            raise ValueError("vector entries must be finite")
        _check_spam_head(spam)
        spam[:, 0] = 1.0
        for arr in (inputs, rates, spam):
            arr.flags.writeable = False
        self.n, self.inputs, self.rates, self.spam = n, inputs, rates, spam

    @property
    def size(self) -> int:
        return 1 << self.n

    def rows(self, input_indices) -> np.ndarray:
        """Row positions of the given basis indices, in their order. This is
        the model's one coverage check: CoverageError on an empty selection,
        or naming every input the model does not cover."""
        wanted = check_basis_indices(input_indices, self.n).reshape(-1)
        require_selected(wanted, "input states")
        found = np.minimum(np.searchsorted(self.inputs, wanted), self.inputs.size - 1)
        missing = sorted(set(wanted[self.inputs[found] != wanted].tolist()))
        if missing:
            shown = format_missing(missing, lambda i: f"{i} ({index_to_bits(i, self.n)})")
            plural = "s" if len(missing) > 1 else ""
            raise CoverageError(f"model has no channel for input state{plural} {shown}")
        return found

    def channel(self, input_index: int) -> InputChannel:
        """The input's rows, as read-only views."""
        row = self.rows([input_index])[0]
        return InputChannel(rates=self.rates[row], spam=self.spam[row])

    def input_indices(self) -> list[int]:
        return self.inputs.tolist()


def predict_distribution(model: NoiseModel, depth: int, input_index) -> np.ndarray:
    """Predicted outcome distribution after depth gate layers on one input.

    Spectrally: project(W^-1 (spam * eigenvalues**depth * W e_in)). The
    projection only acts when fitted SPAM values push entries slightly
    negative; for exact models it is the identity. A sequence of input
    indices gives one row per input, each equal to its one-input result.
    """
    rows = model.rows(input_index)
    predicted = _predict(
        model.spam[rows], eigenvalues_from_rates(model.rates[rows]), depth, model.inputs[rows]
    )
    return predicted[0] if np.ndim(input_index) == 0 else predicted


def _predict(spam, eigenvalues, depth: int, inputs) -> np.ndarray:
    """One predicted distribution per input: spam is ``(inputs, 2**n)``,
    eigenvalues the same or one spectrum shared by every input."""
    depth = check_depths(depth).item()
    indicator = np.zeros(spam.shape)
    indicator[np.arange(len(inputs)), inputs] = 1.0
    spectrum = spam * eigenvalues**depth * fwht(indicator)
    return simplex_project(fwht_inverse(spectrum))


@dataclass(frozen=True, eq=False)
class MitigationMatrix:
    """Columns are predicted distributions per input state at one depth.

    The matrix is square and kept C-contiguous, and ``condition`` is its
    1-norm condition number (inf for a singular matrix).
    """

    depth: int
    matrix: np.ndarray = field(repr=False)
    condition: float = field(init=False)

    def __post_init__(self):
        matrix = np.ascontiguousarray(self.matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or not matrix.size:
            raise ValueError(
                f"need a non-empty square mitigation matrix, got shape {matrix.shape}"
            )
        condition = float(np.linalg.cond(matrix, 1))
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "condition", condition)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


def mitigation_matrix(model: NoiseModel, depth: int) -> MitigationMatrix:
    """Build the depth-m mitigation system: column in = prediction for in.

    Requires a channel for every input state; all columns come from one
    batched spectral prediction. The 1-norm condition number is recorded
    so callers can flag ill-conditioned inversions.
    """
    model.rows(range(model.size))  # names every input the model lacks
    predicted = _predict(model.spam, eigenvalues_from_rates(model.rates), depth, model.inputs)
    return MitigationMatrix(depth, predicted.T)


def pool_rates(model: NoiseModel) -> NoiseModel:
    """The model with every input's rates replaced by their mean over the
    model's own inputs; each input keeps its SPAM.

    Each per-input rate vector already lives in the input-0 flip frame
    (estimation aligns them), so a plain arithmetic mean is correct.
    """
    rates = model.rates.mean(axis=0)
    rows = zip(model.input_indices(), model.spam)
    return NoiseModel(model.n, {index: InputChannel(rates, spam) for index, spam in rows})


def model_to_json(model: NoiseModel) -> dict:
    """JSON form: {"n": n, "inputs": {"<index>": {"p": [...], "A": [...]}}}."""
    inputs = {
        str(index): {"p": rates.tolist(), "A": spam.tolist()}
        for index, rates, spam in zip(model.inputs.tolist(), model.rates, model.spam)
    }
    return {"n": model.n, "inputs": inputs}


def model_from_json(payload: dict) -> NoiseModel:
    """The model of a ``model_to_json`` payload. Each entry's "p" and "A"
    must hold JSON numbers. An optional "meta" must be an object, and its
    "train_depths", if present, a list of integers."""
    try:
        n = payload["n"]
        raw_inputs = payload["inputs"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed model payload: {exc}") from exc
    if type(n) is not int:
        raise ValueError(f"malformed model payload: n must be an integer, got {n!r}")
    if not isinstance(raw_inputs, dict) or not raw_inputs:
        raise ValueError("model payload has no inputs")
    meta = payload.get("meta", {})
    if not isinstance(meta, dict):
        raise ValueError(f"model meta must be an object, got {meta!r}")
    train = meta.get("train_depths", [])
    if not isinstance(train, list) or any(type(depth) is not int for depth in train):
        raise ValueError(f"model meta train_depths must be a list of integers, got {train!r}")
    channels = {}
    for key, entry in raw_inputs.items():
        try:
            index = int(key)
            if key != str(index):
                raise ValueError(f"expected the key {str(index)!r}")
            for name in ("p", "A"):
                if not holds_numbers(entry[name]):
                    raise ValueError(f"{name} must hold numbers, got {entry[name]!r}")
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
    write_json(path, payload)


def read_model(path):
    """(model, meta) of a file written by ``write_model``; meta is {} when
    the file has none. ConfigError names the file for any fault in it."""
    payload = read_json(path, "model file")
    try:
        model = model_from_json(payload)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return model, payload.get("meta", {})
