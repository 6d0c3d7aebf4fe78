"""The 24-element single-qubit Clifford group and random identity circuits.

The group is generated by closure from the Hadamard and phase gates,
quotienting global phase, with elements numbered in order of first
appearance. Gate ids index a fixed canonical table; composition and
inversion are table lookups. The tables are built the first time a gate
is composed, inverted or looked up, not at import: a run that only draws
gate ids needs GROUP_ORDER alone. Circuits are m random layers of per-qubit
gates followed by one inverse layer that undoes each qubit's sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .transforms import check_qubit_count, check_size, integer_array

__all__ = [
    "GROUP_ORDER",
    "IDENTITY_ID",
    "HADAMARD_ID",
    "PHASE_ID",
    "compose",
    "inverse",
    "unitary",
    "sample_identity_circuit",
    "empty_circuit",
    "IdentityCircuit",
]

GROUP_ORDER = 24
IDENTITY_ID = 0
# the generators' ids in order of first appearance, checked when the
# group is built
HADAMARD_ID = 1
PHASE_ID = 2

_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_PHASE = np.array([[1, 0], [0, 1j]], dtype=complex)


def _canonical(matrices: np.ndarray) -> np.ndarray:
    """Quotient global phase: scale each 2x2 matrix of a (..., 2, 2) stack
    so its first nonzero entry (row-major) is real positive."""
    flat = matrices.reshape(-1, 4)
    first = flat[np.arange(len(flat)), np.argmax(np.abs(flat) > 1e-9, axis=1)]
    return (flat * (np.abs(first) / first)[:, None]).reshape(matrices.shape)


def _key(matrix: np.ndarray) -> bytes:
    # nonzero Clifford entries are >= 1/2 in magnitude and distinct values
    # differ by >= ~0.29, so 6 decimals absorbs all float drift;
    # +0.0 normalizes -0.0 so keys are unique
    return (np.round(_canonical(matrix), 6) + 0.0).tobytes()


def _build_group() -> tuple[list[np.ndarray], dict[bytes, int]]:
    elements: list[np.ndarray] = [np.eye(2, dtype=complex)]
    index = {_key(elements[0]): 0}
    frontier = 0
    while frontier < len(elements):
        current = elements[frontier]
        frontier += 1
        for generator in (_HADAMARD, _PHASE):
            product = _canonical(current @ generator)
            key = _key(product)
            if key not in index:
                index[key] = len(elements)
                elements.append(product)
    if len(elements) != GROUP_ORDER:
        raise RuntimeError(f"group closure produced {len(elements)} elements")
    if (index[_key(_HADAMARD)], index[_key(_PHASE)]) != (HADAMARD_ID, PHASE_ID):
        raise RuntimeError("the generators' ids moved")
    return elements, index


def _build_tables(group: list[np.ndarray], index: dict[bytes, int]) -> tuple[np.ndarray, ...]:
    """The composition table, entry [g, h] the id of g @ h looked up in the
    closure's own index, and the inverse table read off it."""
    try:
        compose_table = np.array(
            [[index[_key(g @ h)] for h in group] for g in group], dtype=np.int8
        )
    except KeyError:
        raise RuntimeError("the group is not closed under composition") from None
    inverse_table = np.argmax(compose_table == IDENTITY_ID, axis=1).astype(np.int8)
    return compose_table, inverse_table


@cache
def _group() -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """The elements, the composition table and the inverse table, built
    on first use."""
    elements, index = _build_group()
    return (elements, *_build_tables(elements, index))


def _check_id(gate_id: int) -> int:
    arr, wrong = integer_array(gate_id)
    if wrong or arr.ndim or not 0 <= arr < GROUP_ORDER:
        raise ValueError(f"gate id {gate_id!r} out of range [0, {GROUP_ORDER})")
    return arr.item()


def compose(g: int, h: int) -> int:
    """Group product g . h (h acts first on states)."""
    return int(_group()[1][_check_id(g), _check_id(h)])


def inverse(g: int) -> int:
    """The id satisfying compose(g, inverse(g)) == IDENTITY_ID."""
    return int(_group()[2][_check_id(g)])


def unitary(gate_id: int) -> np.ndarray:
    """Canonical 2x2 unitary for a gate id (phase-normalized, read-only copy)."""
    return _group()[0][_check_id(gate_id)].copy()


@dataclass(frozen=True)
class IdentityCircuit:
    """m random single-qubit Clifford layers plus one per-qubit inverse layer.

    layers[t][q] is the gate on qubit q at time step t; inverse_layer[q]
    undoes qubit q's whole sequence, so the net circuit is the identity.
    """

    n: int
    depth: int
    layers: tuple[tuple[int, ...], ...]
    inverse_layer: tuple[int, ...]
    seed: int | None = field(default=None, compare=False)

    def __post_init__(self):
        if len(self.layers) != self.depth:
            raise ValueError("layer count does not match depth")
        if any(len(layer) != self.n for layer in self.layers):
            raise ValueError("layer width does not match qubit count")
        if len(self.inverse_layer) != self.n:
            raise ValueError("inverse layer width does not match qubit count")

    def qubit_sequence(self, qubit: int) -> list[int]:
        """Time-ordered gate ids on one qubit, inverse gate last."""
        seq = [layer[qubit] for layer in self.layers]
        seq.append(self.inverse_layer[qubit])
        return seq


def sample_identity_circuit(
    n: int, depth: int, rng: np.random.Generator, seed: int | None = None
) -> IdentityCircuit:
    """Draw depth >= 1 layers of n uniform gates, then the per-qubit inverse layer."""
    n, depth = check_qubit_count(n), check_size(depth, "depth")
    grid = rng.integers(0, GROUP_ORDER, size=(depth, n))
    inverse_layer = []
    for q in range(n):
        net = IDENTITY_ID
        for t in range(depth):
            net = compose(int(grid[t, q]), net)
        inverse_layer.append(inverse(net))
    return IdentityCircuit(
        n=n,
        depth=depth,
        layers=tuple(tuple(int(g) for g in row) for row in grid),
        inverse_layer=tuple(inverse_layer),
        seed=seed,
    )


def empty_circuit(n: int) -> IdentityCircuit:
    """The gate-free depth-0 circuit (prepare and immediately measure)."""
    n = check_qubit_count(n)
    return IdentityCircuit(n=n, depth=0, layers=(), inverse_layer=(IDENTITY_ID,) * n)
