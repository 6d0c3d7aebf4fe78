import hashlib
import subprocess
import sys

import numpy as np
import pytest

from qflip import clifford
from qflip.clifford import (
    GROUP_ORDER,
    HADAMARD_ID,
    IDENTITY_ID,
    PHASE_ID,
    compose,
    empty_circuit,
    inverse,
    sample_identity_circuit,
    unitary,
)

from oracles import IDENTITY_2x2, clifford_closure, equal_up_to_phase


def compose_unitaries(gate_ids):
    """Time-ordered product: later gates multiply on the left."""
    net = IDENTITY_2x2
    for gid in gate_ids:
        net = unitary(gid) @ net
    return net


class TestGroupTable:
    def test_group_order(self):
        assert GROUP_ORDER == 24

    def test_identity_composes_trivially(self):
        for g in range(GROUP_ORDER):
            assert compose(IDENTITY_ID, g) == g
            assert compose(g, IDENTITY_ID) == g

    def test_hadamard_is_involution(self):
        assert compose(HADAMARD_ID, HADAMARD_ID) == IDENTITY_ID

    def test_phase_gate_order_four(self):
        g = IDENTITY_ID
        for _ in range(4):
            g = compose(PHASE_ID, g)
        assert g == IDENTITY_ID

    def test_table_matches_unitary_oracle(self):
        # every entry of the 24x24 table agrees with 2x2 matrix products
        for g in range(GROUP_ORDER):
            for h in range(GROUP_ORDER):
                product = unitary(g) @ unitary(h)
                assert equal_up_to_phase(product, unitary(compose(g, h)))

    def test_rows_and_columns_are_permutations(self):
        full = set(range(GROUP_ORDER))
        for g in range(GROUP_ORDER):
            assert {compose(g, h) for h in range(GROUP_ORDER)} == full
            assert {compose(h, g) for h in range(GROUP_ORDER)} == full

    def test_inverses(self):
        for g in range(GROUP_ORDER):
            assert compose(g, inverse(g)) == IDENTITY_ID
            assert compose(inverse(g), g) == IDENTITY_ID
        assert inverse(IDENTITY_ID) == IDENTITY_ID
        assert compose(inverse(PHASE_ID), PHASE_ID) == IDENTITY_ID

    def test_unitaries_are_unitary_and_distinct(self):
        keys = set()
        for g in range(GROUP_ORDER):
            u = unitary(g)
            assert np.allclose(u @ u.conj().T, IDENTITY_2x2, atol=1e-9)
            keys.add(u.tobytes())
        assert len(keys) == GROUP_ORDER

    def test_rejects_bad_ids(self):
        with pytest.raises(ValueError):
            compose(0, 24)
        with pytest.raises(ValueError):
            inverse(-1)
        with pytest.raises(ValueError):
            unitary(99)


class TestIdentityCircuits:
    def test_single_layer_is_identity(self):
        rng = np.random.default_rng(0)
        circuit = sample_identity_circuit(1, 1, rng)
        net = compose_unitaries(circuit.qubit_sequence(0))
        assert equal_up_to_phase(net, IDENTITY_2x2)

    @pytest.mark.parametrize("n,depth", [(1, 1), (2, 5), (3, 20), (5, 100)])
    def test_composes_to_identity(self, n, depth):
        rng = np.random.default_rng(depth)
        circuit = sample_identity_circuit(n, depth, rng)
        assert len(circuit.layers) == depth
        for q in range(n):
            net = compose_unitaries(circuit.qubit_sequence(q))
            assert equal_up_to_phase(net, IDENTITY_2x2)

    def test_deterministic_for_fixed_seed(self):
        a = sample_identity_circuit(3, 10, np.random.default_rng(42))
        b = sample_identity_circuit(3, 10, np.random.default_rng(42))
        assert a == b

    def test_gate_frequencies_uniform(self):
        # 24,000 draws: each id within 5 sigma of 1/24
        rng = np.random.default_rng(99)
        counts = np.zeros(GROUP_ORDER)
        draws = 0
        while draws < 24000:
            circuit = sample_identity_circuit(4, 30, rng)
            for layer in circuit.layers:
                for gid in layer:
                    counts[gid] += 1
            draws += 4 * 30
        freq = counts / draws
        sigma = np.sqrt((1 / 24) * (23 / 24) / draws)
        assert np.max(np.abs(freq - 1 / 24)) < 5 * sigma

    def test_rejects_bad_dimensions(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_identity_circuit(0, 1, rng)
        with pytest.raises(ValueError):
            sample_identity_circuit(1, 0, rng)

    def test_empty_circuit(self):
        circuit = empty_circuit(3)
        assert circuit.depth == 0
        assert circuit.layers == ()
        assert circuit.inverse_layer == (IDENTITY_ID,) * 3


def test_module_regenerates_same_ids():
    # enumeration is fixed by construction order, not hardcoded matrices
    assert IDENTITY_ID == 0
    assert equal_up_to_phase(
        unitary(HADAMARD_ID), np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    )
    assert equal_up_to_phase(unitary(PHASE_ID), np.array([[1, 0], [0, 1j]]))
    # rebuilding from scratch yields the same table
    elements, _ = clifford._build_group()
    for gid, mat in enumerate(elements):
        assert np.array_equal(mat, unitary(gid))


class TestTablesOnFirstUse:
    """The tables are built when first used, and are the ones the module
    built at import before."""

    # sha256 of the int8 composition table as the import-time build made it
    COMPOSE_SHA256 = "eab2efdab85fd8419ff7f310d571e6e059af8d570ad85061b42f42b02ecad399"
    INVERSES = [0, 1, 10, 11, 13, 5, 8, 9, 6, 7, 2, 3, 12, 4, 21, 22, 16, 17, 18, 19, 20, 14, 15, 23]

    def test_tables_are_unchanged(self):
        table = np.array([[compose(g, h) for h in range(GROUP_ORDER)] for g in range(GROUP_ORDER)])
        assert hashlib.sha256(table.astype(np.int8).tobytes()).hexdigest() == self.COMPOSE_SHA256
        assert [inverse(g) for g in range(GROUP_ORDER)] == self.INVERSES
        assert (IDENTITY_ID, HADAMARD_ID, PHASE_ID) == (0, 1, 2)

    def test_a_product_missing_from_the_index_is_not_closed(self):
        elements, index = clifford._build_group()
        del index[clifford._key(elements[-1])]
        with pytest.raises(RuntimeError, match="not closed under composition"):
            clifford._build_tables(elements, index)

    def test_unitaries_follow_the_closure_order(self):
        closure = clifford_closure()
        assert len(closure) == GROUP_ORDER
        for gate_id, element in enumerate(closure):
            u = unitary(gate_id)
            assert equal_up_to_phase(u, element)
            # phase-normalized: the first nonzero entry is real positive
            first = u.flat[np.argmax(np.abs(u.ravel()) > 1e-9)]
            assert abs(first.imag) < 1e-12 and first.real > 0

    def test_import_does_not_build_the_group(self):
        probe = (
            "import qflip, qflip.cli\n"
            "from qflip import clifford\n"
            "print(clifford._group.cache_info().currsize, clifford.GROUP_ORDER)\n"
        )
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["0", "24"]
