import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qflip import transforms
from qflip.transforms import (
    fwht,
    fwht_in_place,
    fwht_inverse,
    num_qubits,
    require_prob_dist,
    simplex_project,
    xor_permute,
)

from oracles import (
    dense_wht_matrix,
    grid_simplex_minimizer,
    radix2_fwht,
    traced_peak,
    threshold_simplex_project,
    xor_permutation_matrix,
)


class TestFwht:
    def test_single_qubit_by_hand(self):
        # W = [[1, 1], [1, -1]]
        assert np.allclose(fwht(np.array([0.9, 0.1])), [1.0, 0.8])

    def test_point_mass_maps_to_all_ones(self):
        e0 = np.zeros(8)
        e0[0] = 1.0
        assert np.array_equal(fwht(e0), np.ones(8))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        w = dense_wht_matrix(4)
        for _ in range(100):
            v = rng.uniform(-1, 1, size=16)
            assert np.max(np.abs(fwht(v) - w @ v)) < 1e-12

    @pytest.mark.parametrize("n", range(1, 7))
    def test_scaled_involution(self, n):
        rng = np.random.default_rng(n)
        v = rng.normal(size=2**n)
        assert np.max(np.abs(fwht(fwht(v)) - 2**n * v)) < 1e-10

    def test_dc_coefficient_is_total_mass(self):
        rng = np.random.default_rng(3)
        p = rng.dirichlet(np.ones(16))
        assert abs(fwht(p)[0] - 1.0) < 1e-12

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            fwht(np.ones(6))
        with pytest.raises(ValueError):
            fwht(np.ones(1))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            fwht(np.array([1.0, np.nan]))

    def test_input_not_mutated(self):
        v = np.arange(8.0)
        fwht(v)
        assert np.array_equal(v, np.arange(8.0))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 8), rows=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_batch_rows_match_one_dimensional_transform(self, n, rows, seed):
        rng = np.random.default_rng(seed)
        batch = rng.normal(scale=rng.uniform(0.01, 100.0), size=(rows, 2**n))
        batch[rng.uniform(size=rows) < 0.3] = 0.0
        batch = np.vstack([batch, np.zeros(2**n)])
        forward, inverse = fwht(batch), fwht_inverse(batch)
        assert forward.shape == inverse.shape == batch.shape
        for row, out, back in zip(batch, forward, inverse):
            assert fwht(row).shape == fwht_inverse(row).shape == (2**n,)
            assert np.array_equal(out, fwht(row))
            assert np.array_equal(back, fwht_inverse(row))
        assert np.array_equal(fwht(batch[None]), forward[None])
        assert np.array_equal(fwht(np.asfortranarray(batch)), forward)

    def test_rejects_scalar(self):
        with pytest.raises(ValueError):
            fwht(np.float64(1.0))


class TestFwhtInPlace:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 8), rows=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_two_temporary_butterfly(self, n, rows, seed):
        rng = np.random.default_rng(seed)
        batch = rng.normal(scale=rng.uniform(0.01, 100.0), size=(rows, 2**n))
        expected, half = batch.copy(), 1
        while half < 2**n:
            pairs = expected.reshape(-1, 2, half)
            even, odd = pairs[:, 0] + pairs[:, 1], pairs[:, 0] - pairs[:, 1]
            pairs[:, 0], pairs[:, 1] = even, odd
            half *= 2
        out = fwht_in_place(batch)
        assert out is batch
        assert np.array_equal(batch, expected)

    def test_temporary_is_about_half_the_array(self):
        # plus the finiteness check's bools and the ufuncs' fixed buffers;
        # fwht's copy alone is the whole array
        values = np.random.default_rng(2).normal(size=(512, 1024))
        _, peak = traced_peak(lambda: fwht_in_place(values))
        assert peak < 0.75 * values.nbytes

    @pytest.mark.parametrize(
        "values",
        [np.arange(8), np.zeros((8, 2)).T, np.zeros(8)[::2]],
        ids=["integers", "fortran order", "strided"],
    )
    def test_rejects_arrays_it_cannot_write_over(self, values):
        with pytest.raises(ValueError, match="writeable C-contiguous float64"):
            fwht_in_place(values)
        frozen = np.zeros(8)
        frozen.flags.writeable = False
        with pytest.raises(ValueError, match="writeable C-contiguous float64"):
            fwht_in_place(frozen)


class TestFwhtBlocks:
    """fwht_in_place runs the radix-2 butterfly on blocks of vectors in a
    transposed layout; every bit must be the whole-array butterfly's."""

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 12),
        leading=st.lists(st.integers(1, 24), max_size=2),
        scale=st.floats(0.01, 1e3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_radix2_butterfly(self, n, leading, scale, seed):
        assume(np.prod(leading, dtype=int) << n <= 1 << 17)
        values = np.random.default_rng(seed).normal(scale=scale, size=(*leading, 2**n))
        expected = radix2_fwht(values)
        assert fwht_in_place(values) is values
        assert values.tobytes() == expected.tobytes()

    # vectors per block at n=7: the batches end just before, at and just
    # after a block, and just after the fifth
    PER_BLOCK = transforms._FWHT_ENTRIES >> 7

    @pytest.mark.parametrize("rows", [PER_BLOCK - 1, PER_BLOCK, PER_BLOCK + 1, 5 * PER_BLOCK + 1])
    @pytest.mark.parametrize("scale", [0.01, 1.0, 1e3])
    def test_block_boundaries_at_n7(self, rows, scale):
        rng = np.random.default_rng(rows)
        for shape in [(rows, 128), (1, rows, 128)]:
            values = rng.normal(scale=scale, size=shape)
            expected = radix2_fwht(values)
            fwht_in_place(values)
            assert values.tobytes() == expected.tobytes()

    def test_temporaries_are_a_few_blocks(self):
        # the whole-array butterfly's temporary is half the array, 2 MiB
        # here; a block is 256 KiB, and the finiteness check's bools 512 KiB
        values = np.random.default_rng(3).normal(size=(512, 1024))
        expected = radix2_fwht(values)
        _, peak = traced_peak(lambda: fwht_in_place(values))
        assert peak <= 4 * transforms._FWHT_ENTRIES * values.itemsize
        assert values.tobytes() == expected.tobytes()


class TestFwhtInverse:
    def test_single_qubit_by_hand(self):
        assert np.allclose(fwht_inverse(np.array([1.0, 0.8])), [0.9, 0.1])

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        for n in range(1, 7):
            v = rng.normal(size=2**n)
            assert np.max(np.abs(fwht_inverse(fwht(v)) - v)) < 1e-12

    def test_all_ones_maps_to_point_mass(self):
        out = fwht_inverse(np.ones(8))
        expected = np.zeros(8)
        expected[0] = 1.0
        assert np.allclose(out, expected, atol=1e-15)


class TestXorPermute:
    def test_identity_index(self):
        v = np.arange(4.0)
        assert np.array_equal(xor_permute(v, 0), v)

    def test_full_reversal(self):
        # xor by 0b11 reverses a length-4 vector
        assert np.array_equal(
            xor_permute(np.array([1.0, 2.0, 3.0, 4.0]), 3), [4.0, 3.0, 2.0, 1.0]
        )

    def test_involution(self):
        rng = np.random.default_rng(7)
        v = rng.normal(size=16)
        for idx in range(16):
            assert np.array_equal(xor_permute(xor_permute(v, idx), idx), v)

    def test_matches_dense_permutation_matrix(self):
        rng = np.random.default_rng(9)
        v = rng.normal(size=8)
        for idx in range(8):
            assert np.allclose(xor_permute(v, idx), xor_permutation_matrix(3, idx) @ v)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            xor_permute(np.ones(4), 4)
        with pytest.raises(ValueError):
            xor_permute(np.ones(4), -1)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 8),
        rows=st.integers(1, 4),
        depths=st.integers(1, 3),
        shape=st.sampled_from(["scalar", "per row", "per vector"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batch_rows_equal_their_1d_calls(self, n, rows, depths, shape, seed):
        rng = np.random.default_rng(seed)
        size = 1 << n
        values = rng.normal(size=(rows, depths, size))
        index = {
            "scalar": int(rng.integers(size)),
            "per row": rng.integers(size, size=(rows, 1)),
            "per vector": rng.integers(size, size=(rows, depths)),
        }[shape]
        got = xor_permute(values, index)
        assert got.shape == values.shape
        each = np.broadcast_to(index, (rows, depths))
        for r in range(rows):
            for d in range(depths):
                expected = xor_permute(values[r, d], int(each[r, d]))
                assert got[r, d].tobytes() == expected.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 8),
        rows=st.integers(1, 5),
        bad_row=st.integers(0, 4),
        too_high=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batch_rejects_an_out_of_range_index_in_any_row(
        self, n, rows, bad_row, too_high, seed
    ):
        rng = np.random.default_rng(seed)
        size = 1 << n
        index = rng.integers(size, size=rows)
        index[bad_row % rows] = size if too_high else -1
        with pytest.raises(ValueError, match="out of range"):
            xor_permute(np.zeros((rows, 2, size)), index[:, None])


class TestSimplexProject:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 8), rows=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_a_fortran_ordered_batch_projects_as_its_c_ordered_copy(self, n, rows, seed):
        # a solve's transposed output is Fortran-ordered; the mitigation
        # path projects a C-ordered copy of it
        batch = np.random.default_rng(seed).normal(scale=0.3, size=(2**n, rows)).T
        assert batch.flags.f_contiguous
        assert (
            simplex_project(batch).tobytes()
            == simplex_project(np.ascontiguousarray(batch)).tobytes()
        )

    def test_already_on_simplex_unchanged(self):
        v = np.array([0.2, 0.3, 0.5])
        assert np.array_equal(simplex_project(v), v)

    def test_symmetric_shift(self):
        assert np.allclose(simplex_project(np.array([0.6, 0.6])), [0.5, 0.5])

    def test_clips_to_vertex(self):
        # frozen from the grid oracle (steps=100 resolves this exactly)
        out = simplex_project(np.array([1.2, -0.2, 0.0]))
        assert np.allclose(out, [1.0, 0.0, 0.0], atol=1e-12)
        grid = grid_simplex_minimizer(np.array([1.2, -0.2, 0.0]), steps=100)
        assert np.max(np.abs(out - grid)) < 1e-12

    def test_output_is_distribution_and_idempotent(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            v = rng.normal(scale=2.0, size=rng.integers(2, 9))
            out = simplex_project(v)
            assert out.min() >= 0.0
            assert abs(out.sum() - 1.0) < 1e-12
            assert np.max(np.abs(simplex_project(out) - out)) < 1e-12

    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_matches_grid_minimizer(self, size):
        rng = np.random.default_rng(size)
        steps = 60
        for _ in range(5):
            v = rng.normal(scale=1.5, size=size)
            out = simplex_project(v)
            grid = grid_simplex_minimizer(v, steps=steps)
            # grid resolution bounds the coordinate-wise gap
            assert np.max(np.abs(out - grid)) <= 1.0 / steps + 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            simplex_project(np.array([np.inf, 0.0]))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 7), rows=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_batch_rows_match_one_dimensional_projection(self, n, rows, seed):
        rng = np.random.default_rng(seed)
        size = 2**n
        batch = rng.normal(scale=rng.uniform(0.01, 3.0), size=(rows, size))
        batch[rng.uniform(size=(rows, size)) < rng.uniform()] = 0.0
        on_simplex = rng.dirichlet(np.ones(size), size=rows)
        on_simplex[:, rng.integers(0, size)] = 0.0
        on_simplex /= on_simplex.sum(axis=1, keepdims=True)
        batch = np.vstack([batch, on_simplex, np.eye(size)[:1]])
        projected = simplex_project(batch)
        assert projected.shape == batch.shape
        for row, out in zip(batch, projected):
            assert np.array_equal(out, simplex_project(row))
            assert np.array_equal(out, threshold_simplex_project(row))
        # a transposed (non-contiguous) view projects to the same bits
        assert np.array_equal(simplex_project(batch.T.copy().T), projected)
        assert np.array_equal(
            simplex_project(batch.reshape(1, *batch.shape)), projected[None]
        )

    def test_batch_with_non_finite_row_raises_the_one_dimensional_error(self):
        batch = np.full((3, 4), 0.25)
        batch[1, 2] = np.nan
        with pytest.raises(ValueError) as single:
            simplex_project(batch[1])
        with pytest.raises(ValueError) as batched:
            simplex_project(batch)
        assert str(batched.value) == str(single.value)

    def test_rejects_entries_too_large_to_project(self):
        with pytest.raises(ValueError):
            simplex_project(np.array([1e17, 0.0]))
        with pytest.raises(ValueError):
            simplex_project(np.array([[0.5, 0.5], [1e17, 0.0]]))

    def test_rejects_empty_and_scalar(self):
        with pytest.raises(ValueError):
            simplex_project(np.array([]))
        with pytest.raises(ValueError):
            simplex_project(np.array(0.5))


class TestValidators:
    def test_num_qubits(self):
        assert num_qubits(np.ones(2)) == 1
        assert num_qubits(np.ones(4096)) == 12
        with pytest.raises(ValueError, match=r"^qubit count must be in \[1, 12\], got 13$"):
            num_qubits(np.ones(8192))
        with pytest.raises(ValueError):
            num_qubits(np.ones((2, 2)))

    def test_require_prob_dist(self):
        require_prob_dist(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            require_prob_dist(np.array([0.7, 0.4]))
        with pytest.raises(ValueError):
            require_prob_dist(np.array([1.1, -0.1]))

    @pytest.mark.parametrize(
        "bad_row",
        [[1.1, -0.1, 0.0, 0.0], [0.7, 0.4, 0.0, 0.0], [0.5, np.inf, 0.5, 0.0]],
        ids=["negative", "sum", "inf"],
    )
    def test_require_prob_dist_batch_reports_the_bad_row(self, bad_row):
        batch = np.tile([0.1, 0.2, 0.3, 0.4], (4, 1))
        assert require_prob_dist(batch) is batch
        batch[2] = bad_row
        with pytest.raises(ValueError) as single:
            require_prob_dist(batch[2])
        with pytest.raises(ValueError) as batched:
            require_prob_dist(batch)
        assert str(batched.value) == str(single.value)
        with pytest.raises(ValueError):
            require_prob_dist(np.ones((2, 3)) / 3)
