"""Bit-flip channel algebra over n-qubit outcome distributions.

A depth-m run of nominally-identity circuits is modeled as m applications
of one average per-gate transition matrix, wrapped by a state-preparation
and measurement (SPAM) factor. Both matrices are diagonalized by the
Walsh-Hadamard transform, so every operation here works on length-2**n
vectors in O(n * 2**n):

  * ``rates``: the weight of each n-bit flip pattern per gate layer
    (index 1 flips qubit 0, the rightmost bit of the displayed string);
  * ``eigenvalues``: the WHT of the rates, one attenuation per parity
    coefficient, raised to the m-th power for depth m;
  * ``spam``: the per-coefficient SPAM attenuation, entry 0 fixed at 1.

A fitted model's rates are ``W^-1 lambda``: they sum to 1, may hold small
negative entries, and their spectrum lies in [-1, 1]. A NoiseModel keeps
all three per characterized input as ``(inputs, 2**n)`` rows. Predictions
read its spectrum and batch over inputs: one gives a row per input, each
equal to its one-input result, and builds all 2**n columns of a
mitigation matrix at once. Dense matrices are only materialized on demand
for inspection and for the mitigation system.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, CoverageError, format_missing, require_selected
from .records import holds_numbers, index_to_bits, read_json, recorded_seed, write_json
from .transforms import (
    PROB_SUM_TOL,
    check_basis_indices,
    check_depths,
    check_qubit_count,
    fwht,
    fwht_inverse,
    num_qubits,
    require_finite,
    require_unit_sum,
    simplex_project,
)

__all__ = [
    "InputChannel",
    "NoiseModel",
    "MitigationMatrix",
    "eigenvalues_from_rates",
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
    """WHT spectrum of flip-pattern rates; entry 0 is exactly 1.

    A ``(..., 2**n)`` array gives one spectrum per row. Each row must be
    finite and sum to 1, and its spectrum lie in [-1, 1], both within
    PROB_SUM_TOL; it may hold negative entries, as W^-1 of a fit does.
    """
    spectrum = fwht(require_unit_sum(rates))
    outside = spectrum[np.abs(spectrum) > 1.0 + PROB_SUM_TOL]
    if outside.size:
        raise ValueError(f"rates spectrum has entry {float(outside[0])!r} outside [-1, 1]")
    spectrum[..., 0] = 1.0
    return spectrum


def gate_error_matrix(rates: np.ndarray) -> np.ndarray:
    """Dense per-gate transition matrix T[i, j] = rates[i ^ j].

    Symmetric, and its columns sum to 1; its entries may be negative, as a
    fitted model's rates may. rates must pass ``eigenvalues_from_rates``,
    whose spectrum diagonalizes T through the WHT. For computation prefer
    ``apply_transition_power``; this dense form is for inspection.
    """
    arr = np.asarray(rates, dtype=float)
    eigenvalues_from_rates(arr)
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
    ``(..., 2**n)`` batch of vectors; rates is then one row for all of
    them or one per vector, and every vector gets the
    floating-point result it gets alone.
    """
    spectrum = eigenvalues_from_rates(rates)
    depth = check_depths(depth).item()
    target = np.asarray(vec, dtype=float)
    if spectrum.ndim > target.ndim or target.shape[target.ndim - spectrum.ndim:] != spectrum.shape:
        raise ValueError(f"vector shape {target.shape} does not match rates {spectrum.shape}")
    if depth == 0:
        return target.copy()
    return fwht_inverse(spectrum**depth * fwht(target))


# fitted noise parameters for one basis input state: rates, W^-1 lambda per
# gate layer (sums to 1, may hold small negative entries, spectrum within
# [-1, 1]), and spam, the SPAM attenuation per WHT coefficient, spam[0] == 1
InputChannel = namedtuple("InputChannel", "rates spam")


class NoiseModel:
    """Per-input-state channel parameters for an n-qubit device, held as arrays.

    ``NoiseModel(n, channels)`` builds one from a mapping of basis input
    index -> InputChannel. ``inputs`` holds the k characterized basis
    inputs in increasing order; row r of the read-only ``(k, 2**n)``
    arrays ``rates``, ``eigenvalues`` and ``spam`` belongs to
    ``inputs[r]``, and ``channel(index)`` reads one row back. A rates row
    sums to 1 and may hold small negative entries, but its spectrum, the
    eigenvalues row computed once here, lies in [-1, 1]. spam is finite,
    and each spam[0] within SPAM_HEAD_TOL of 1 is stored as exactly 1. A
    model need not cover all 2**n inputs;
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
        eigenvalues = eigenvalues_from_rates(rates)
        require_finite(spam)
        _check_spam_head(spam)
        spam[:, 0] = 1.0
        for arr in (inputs, rates, eigenvalues, spam):
            arr.flags.writeable = False
        self.n, self.inputs, self.rates, self.spam = n, inputs, rates, spam
        self.eigenvalues = eigenvalues

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

    Spectrally: project(W^-1 (spam * eigenvalues**depth * W e_in)) with the
    model's eigenvalues; the projection is the identity unless fitted
    values push entries negative. A sequence of input indices gives one
    row per input, each equal to its one-input result.
    """
    rows = model.rows(input_index)
    predicted = _predict(model.spam[rows], model.eigenvalues[rows], depth, model.inputs[rows])
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

    The matrix is square, finite and a read-only C-ordered copy, factored
    once: ``inverse`` is its read-only inverse (None if singular), and
    ``condition`` the 1-norm condition number np.linalg.cond(matrix, 1)
    gives, from that inverse (inf if singular or not finite).
    """

    depth: int
    matrix: np.ndarray = field(repr=False)
    condition: float = field(init=False)
    inverse: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        matrix = np.array(self.matrix, dtype=float, order="C")
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or not matrix.size:
            raise ValueError(
                f"need a non-empty square mitigation matrix, got shape {matrix.shape}"
            )
        require_finite(matrix)
        matrix.flags.writeable = False
        try:
            inverse = np.linalg.inv(matrix)
        except np.linalg.LinAlgError:
            inverse, condition = None, np.inf
        else:
            inverse.flags.writeable = False
            with np.errstate(all="ignore"):
                condition = float(np.linalg.norm(matrix, 1) * np.linalg.norm(inverse, 1))
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "condition", condition if np.isfinite(condition) else np.inf)
        object.__setattr__(self, "inverse", inverse)

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
    predicted = _predict(model.spam, model.eigenvalues, depth, model.inputs)
    return MitigationMatrix(depth, predicted.T)


def pool_rates(model: NoiseModel) -> NoiseModel:
    """The model with every input's rates replaced by their mean over the
    model's own inputs; each input keeps its SPAM.

    Each per-input rate vector already lives in the input-0 flip frame
    (estimation aligns them), so a plain arithmetic mean is correct; the
    WHT is linear, so it is also the mean spectrum, within [-1, 1].
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
    must hold JSON numbers. An optional "meta" must be an object whose
    optional "train_depths" is a list of depths and "seed" a seed or null."""
    try:
        n = payload["n"]
        raw_inputs = payload["inputs"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed model payload: {exc}") from exc
    if not isinstance(raw_inputs, dict) or not raw_inputs:
        raise ValueError("model payload has no inputs")
    meta = payload.get("meta", {})
    if not isinstance(meta, dict):
        raise ValueError(f"model meta must be an object, got {meta!r}")
    train = meta.get("train_depths", [])
    if not isinstance(train, list):
        raise ValueError(f"model meta train_depths must be a list of integers, got {train!r}")
    check_depths(train)
    recorded_seed(meta)
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
