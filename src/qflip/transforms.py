"""Bit-indexed spectral and geometric kernels.

Everything here operates on real vectors of length 2**n indexed by n-bit
patterns: the Walsh-Hadamard transform in natural (Hadamard) ordering,
xor-relabeling of the index set, and Euclidean projection onto the
probability simplex. Each kernel also takes a ``(..., 2**n)`` batch and
treats every vector along the last axis as it treats that vector alone.
These are the shared primitives for the channel algebra, the device
simulator, and the estimation pipeline.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

__all__ = [
    "fwht",
    "fwht_in_place",
    "fwht_inverse",
    "xor_permute",
    "simplex_project",
    "num_qubits",
    "check_qubit_count",
    "check_size",
    "check_basis_indices",
    "check_depths",
    "check_seed",
    "require_finite",
    "require_prob_dist",
]

MAX_QUBITS = 12
_INT64 = range(-(1 << 63), 1 << 63)

PROB_SUM_TOL = 1e-9
PROB_NEG_TOL = 1e-9

# fwht_in_place transforms about this many entries at a time
_FWHT_ENTRIES = 1 << 15


def num_qubits(values: np.ndarray) -> int:
    """Return n for a length-2**n vector, validating the length.

    Raises ValueError if the length is not a power of two 2**n with n a
    valid qubit count, or the entries are not finite.
    """
    if values.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {values.shape}")
    return _outcome_qubits(values)


def check_qubit_count(n) -> int:
    """n as a Python int; ValueError unless it is one integer in [1, MAX_QUBITS]."""
    arr, outside = _checked(n, "qubit count", 1, MAX_QUBITS + 1)
    if arr.ndim or outside is not None:
        raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}], got {n}")
    return int(arr)


def check_size(value, what: str) -> int:
    """value, a count such as shots, as a Python int; ValueError unless it
    is one integer in [1, 2**63)."""
    arr, _ = _checked(value, what, 1)
    if arr.ndim:
        raise ValueError(f"{what} must be one integer, got {value!r}")
    return int(arr)


def check_basis_indices(indices, n: int, what: str = "input index") -> np.ndarray:
    """The indices as int64; ValueError names the first non-integer or one outside [0, 2**n)."""
    arr, outside = _checked(indices, what, 0, 1 << n)
    if outside is not None:
        raise ValueError(f"{what} {outside} out of range for n={n}")
    return arr


def check_depths(depths) -> np.ndarray:
    """The depths as int64; ValueError names the first non-integer or one outside [0, 2**63)."""
    return _checked(depths, "depth", 0)[0]


def check_seed(seed) -> int:
    """seed as a Python int; ValueError unless it is one integer >= 0, of any size."""
    arr, outside = _checked(seed, "seed", 0, 1 << 63)
    if arr.ndim or outside is not None and outside < 0:
        raise ValueError(f"seed must be one integer >= 0, got {seed!r}")
    return int(arr) if outside is None else outside


def integer_array(values):
    """(arr, wrong): values (an integer, an iterable as 1-d, or an array) as
    int64 of its shape, a numpy integer array int64 holds as given, and {flat
    position: entry} of the entries, set to 0, that are not 64-bit integers."""
    if isinstance(values, str):
        # np.asarray would drop a str's trailing NUL characters
        values = np.array(values, object)
    elif isinstance(values, Iterable) and not isinstance(values, np.ndarray):
        values = np.fromiter(values, object)
    values = np.asarray(values)
    if values.dtype.kind in "iu" and np.can_cast(values.dtype, np.int64):
        return values, {}
    entries = values.reshape(-1).tolist()
    if set(map(type, entries)) <= {int} and all(map(_INT64.__contains__, entries)):
        return np.array(entries, dtype=np.int64).reshape(values.shape), {}
    entries = [value.item() if isinstance(value, np.generic) else value for value in entries]
    wrong = {i: v for i, v in enumerate(entries) if type(v) is not int or v not in _INT64}
    arr = np.array([0 if i in wrong else v for i, v in enumerate(entries)], dtype=np.int64)
    return arr.reshape(values.shape), wrong


def _checked(values, what: str, low: int, high: int | None = None):
    """(integer_array(values) as int64, its first entry outside [low, high) or None); ValueError
    names the first non-integer, calling it what, and without high one outside [low, 2**63)."""
    if type(values) is int and low <= values < (high or 1 << 63):
        return np.array(values), None
    arr, wrong = integer_array(values)
    for value in wrong.values():
        if type(value) is not int:
            raise ValueError(f"{what} {value!r} is not an integer")
    outside = np.flatnonzero((arr < low) | (arr >= high) if high else arr < low)[:1].tolist()
    position = min([*outside, *wrong], default=None)
    if position is None:
        return arr.astype(np.int64, copy=False), None
    first = wrong.get(position, arr.flat[position].item())
    if high is None:
        bound = f">= {low}" if first < low else "below 2**63"
        raise ValueError(f"{what} must be {bound}, got {first}")
    return arr, first


def _outcome_qubits(values: np.ndarray) -> int:
    """num_qubits for the last axis of a vector or a batch of vectors."""
    if values.ndim == 0:
        raise ValueError(f"expected a 1-d vector, got shape {values.shape}")
    size = values.shape[-1]
    if size < 2 or size & (size - 1) != 0:
        raise ValueError(f"vector length {size} is not a power of two >= 2")
    n = check_qubit_count(size.bit_length() - 1)
    require_finite(values)
    return n


def require_finite(values) -> None:
    """ValueError unless every entry of values is finite."""
    if not np.all(np.isfinite(values)):
        raise ValueError("vector entries must be finite")


def require_prob_dist(values: np.ndarray) -> np.ndarray:
    """Validate a probability distribution over bit patterns.

    Entries must be >= -PROB_NEG_TOL and sum to 1 within PROB_SUM_TOL.
    A ``(..., 2**n)`` array is a batch of distributions along its last
    axis; a batch with one invalid row raises the error that row raises
    alone.
    Returns the input as a float array (copy only if conversion is needed).
    """
    arr = np.asarray(values, dtype=float)
    _outcome_qubits(arr)
    if arr.min() < -PROB_NEG_TOL:
        raise ValueError(f"distribution has negative entry {arr.min():g}")
    totals = arr.sum(axis=-1)
    bad = np.abs(totals - 1.0) > PROB_SUM_TOL
    if np.any(bad):
        raise ValueError(f"distribution sums to {float(totals[bad].flat[0])!r}, expected 1")
    return arr


def fwht(values: np.ndarray) -> np.ndarray:
    """Unnormalized fast Walsh-Hadamard transform, natural ordering.

    Computes W @ values with W[i, j] = (-1)**popcount(i & j) using the
    in-place radix-2 butterfly, O(n * 2**n). A ``(..., 2**n)`` array
    transforms each vector along its last axis, with the same
    floating-point result as transforming it alone. The inverse is
    ``fwht_inverse`` (which carries the full 1/2**n factor).
    """
    return fwht_in_place(np.array(values, dtype=float, order="C"))


def fwht_in_place(values: np.ndarray) -> np.ndarray:
    """``fwht`` of a writeable C-contiguous float64 array, written over it
    and returned, bit for bit as ``fwht`` gives it.

    The vectors go _FWHT_ENTRIES entries at a time, at least one vector
    per block. Each block is copied to a ``(2**n, vectors)`` layout, so
    that the butterflies over ``half`` entries work on contiguous runs of
    ``half * vectors`` values, and copied back. The temporaries hold one
    block and half of one, whatever the size of the array.
    """
    size = 1 << _outcome_qubits(values)
    if values.dtype != np.float64 or not values.flags.c_contiguous or not values.flags.writeable:
        raise ValueError("fwht_in_place needs a writeable C-contiguous float64 array")
    vectors = values.reshape(-1, size)
    step = max(1, _FWHT_ENTRIES // size)
    for lo in range(0, len(vectors), step):
        block = np.ascontiguousarray(vectors[lo:lo + step].T)
        half = 1
        while half < size:
            # outcome rows i and i + half of each run of 2 * half rows
            pairs = block.reshape(-1, 2, half * block.shape[1])
            low, high = pairs[:, 0], pairs[:, 1]
            odd = low - high
            low += high
            high[...] = odd
            del odd  # before the next step makes its own
            half *= 2
        vectors[lo:lo + step] = block.T
    return values


def fwht_inverse(values: np.ndarray) -> np.ndarray:
    """Inverse Walsh-Hadamard transform: (1/2**n) * W @ values, per last-axis
    vector of a ``(..., 2**n)`` array."""
    out = fwht(values)
    return out / out.shape[-1]


def xor_permute(values: np.ndarray, basis_index) -> np.ndarray:
    """Relabel outcomes by xor: output[i] = values[i ^ basis_index].

    This is the input-alignment permutation: it maps the distribution seen
    on basis input ``basis_index`` to the flip-pattern frame of input 0.
    An involution (applying it twice is the identity).

    A ``(..., 2**n)`` array permutes each vector along its last axis, by
    one basis index or by an array of them that broadcasts against the
    leading axes (``inputs[:, None]`` for an ``(inputs, depths, 2**n)``
    table); each vector gets its 1-d result. An index out of range raises.
    """
    arr = np.asarray(values, dtype=float)
    n = _outcome_qubits(arr)
    index = check_basis_indices(basis_index, n, "basis index")
    # the gather index takes the shape of the basis indices, not of arr:
    # take_along_axis broadcasts it
    gather = np.arange(1 << n) ^ index[..., None]
    gather = gather.reshape((1,) * (arr.ndim - gather.ndim) + gather.shape)
    return np.take_along_axis(arr, gather, axis=-1)


def simplex_project(values: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex.

    Sort-and-threshold algorithm (Held/Wolfe/Crowder; see also Wang &
    Carreira-Perpinan 2013), O(N log N). Total on finite vectors of any
    length >= 1; idempotent; exact on inputs already on the simplex. A
    ``(..., N)`` array projects each vector along its last axis, with the
    same floating-point result as projecting it alone.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 0 or arr.shape[-1] == 0:
        raise ValueError(f"expected a nonempty 1-d vector, got shape {arr.shape}")
    require_finite(arr)
    desc = np.flip(np.sort(arr, axis=-1), axis=-1)
    cumulative = np.cumsum(desc, axis=-1)
    counts = np.arange(1, arr.shape[-1] + 1)
    support = desc + (1.0 - cumulative) / counts > 0.0
    # in exact arithmetic the largest entry is always in the support;
    # entries near 2**53 round it away
    if not np.all(np.any(support, axis=-1)):
        raise ValueError("vector entries too large to project onto the simplex")
    rho = arr.shape[-1] - 1 - np.argmax(np.flip(support, axis=-1), axis=-1, keepdims=True)
    shift = (1.0 - np.take_along_axis(cumulative, rho, axis=-1)) / (rho + 1.0)
    return np.maximum(arr + shift, 0.0)
