"""Mitigation and scoring tests.

JSD is cross-checked against scipy's jensenshannon (squared, base 2) and a
frozen hand value; mitigation solves are checked by inverting planted
channels; the report structure is pinned down to the CSV bytes. Batched
correction and scoring must match the per-record loop in oracles.py, which
solves by LU, within solve_bound.
"""

from functools import reduce
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import jensenshannon

from qflip import channel, estimation, mitigation, simulator
from qflip.errors import CoverageError
from qflip.transforms import PROB_NEG_TOL, require_prob_dist, simplex_project
from oracles import (
    dataset_of,
    masked_jsd,
    per_record_mitigation_rows,
    support_jsd,
    traced_peak,
    transposed_solve_projection,
)


def solve_bound(system, rows):
    """size * condition * 2**-52 * max(1, |x|inf), x being np.linalg.solve's
    solutions for the rows: the largest absolute difference allowed between
    a corrected row and the projection of solve's. The product with the
    inverse and the LU solve each err by about condition * 2**-52 * |x|."""
    solved = np.linalg.solve(system.matrix, np.asarray(rows).T)
    return system.size * system.condition * 2.0**-52 * max(1.0, np.abs(solved).max())


def random_simplex(rng, size):
    raw = rng.uniform(0, 1, size)
    return raw / raw.sum()


class TestJsd:
    def test_equal_distributions(self):
        rng = np.random.default_rng(1)
        p = random_simplex(rng, 8)
        assert mitigation.jsd(p, p) == 0.0

    def test_disjoint_point_masses(self):
        assert mitigation.jsd([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0, abs=1e-12)
        assert mitigation.jsd([1, 0, 0, 0], [0, 0, 1, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_frozen_hand_value(self):
        got = mitigation.jsd([0.5, 0.5], [1.0, 0.0])
        assert got == pytest.approx(0.311278, abs=1e-6)
        oracle = jensenshannon([0.5, 0.5], [1.0, 0.0], base=2) ** 2
        assert got == pytest.approx(oracle, abs=1e-12)

    def test_symmetry_range_and_scipy_agreement(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            p = random_simplex(rng, 4)
            q = random_simplex(rng, 4)
            a = mitigation.jsd(p, q)
            b = mitigation.jsd(q, p)
            assert abs(a - b) < 1e-12
            assert 0.0 <= a <= 1.0
            assert a == pytest.approx(jensenshannon(p, q, base=2) ** 2, abs=1e-10)

    def test_range_bulk(self):
        rng = np.random.default_rng(3)
        for _ in range(10_000):
            p = random_simplex(rng, 2)
            q = random_simplex(rng, 2)
            assert 0.0 <= mitigation.jsd(p, q) <= 1.0

    @pytest.mark.parametrize("tiny", [5e-324, 1e-320])
    def test_subnormal_entry_scores_half_its_mass(self, tiny):
        # the midpoint of tiny and 0 underflows at the smallest subnormal;
        # the score is tiny * log2(2) / 2, rounded (to 0 at the smallest),
        # with no division by zero
        with np.errstate(divide="raise", invalid="raise"):
            got = mitigation.jsd([1.0, tiny], [1.0, 0.0])
        assert got == 0.5 * tiny

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            mitigation.jsd([0.5, 0.5], [0.25, 0.25, 0.25, 0.25])
        with pytest.raises(ValueError):
            mitigation.jsd([0.5, 0.5], [0.9, 0.2])


def distribution_batch(rng, rows, size):
    """Distributions with zero entries, point masses and dense rows mixed."""
    weights = rng.uniform(0.0, 1.0, (rows, size))
    weights[rng.uniform(size=(rows, size)) < rng.uniform()] = 0.0
    weights[:, 0] += weights.sum(axis=1) == 0.0
    weights[rng.integers(0, rows)] = np.eye(size)[rng.integers(0, size)]
    return weights / weights.sum(axis=1, keepdims=True)


class TestBatchedJsd:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 7),
        rows=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        chunk=st.sampled_from([1, 20, 1 << 14]),
    )
    @example(n=7, rows=12, seed=0, chunk=1 << 14)
    def test_rows_match_one_dimensional_scores(self, n, rows, seed, chunk):
        rng = np.random.default_rng(seed)
        p = distribution_batch(rng, rows, 2**n)
        q = distribution_batch(rng, rows, 2**n)
        # rows are scored in chunks of about `chunk` entries
        with mock.patch.object(mitigation, "_JSD_ENTRIES", chunk):
            batch = mitigation.jsd(p, q)
            # a Fortran-ordered batch, as a solve's transposed output is,
            # is added row by row in the same order
            fortran = mitigation.jsd(np.asfortranarray(p), np.asfortranarray(q))
        assert batch.shape == (rows,)
        assert np.array_equal(fortran, batch)
        for i in range(rows):
            single = mitigation.jsd(p[i], q[i])
            assert type(single) is float
            assert batch[i] == single == masked_jsd(p[i], q[i])
        stacked = mitigation.jsd(p.reshape(1, rows, -1), q.reshape(1, rows, -1))
        assert np.array_equal(stacked, batch[None, :])

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_full_row_sum_agrees_with_the_support_sum(self, n, seed):
        # the kernel adds each row's 2**n terms, 0 off the support; a sum
        # over the support alone differs from it by rounding only
        rng = np.random.default_rng(seed)
        p, q = distribution_batch(rng, 2, 2**n)
        full = masked_jsd(p, q)
        assert mitigation.jsd(p, q) == full
        assert abs(full - support_jsd(p, q)) <= 1e-14

    def test_peak_is_a_few_times_one_batch(self):
        rng = np.random.default_rng(4)
        p = distribution_batch(rng, 1280, 128)
        q = distribution_batch(rng, 1280, 128)
        scores, peak = traced_peak(lambda: mitigation.jsd(p, q))
        assert peak < 4 * p.nbytes
        assert np.array_equal(scores, [masked_jsd(a, b) for a, b in zip(p, q)])

    @pytest.mark.parametrize(
        "bad_row",
        [[1.1, -0.1, 0.0, 0.0], [0.7, 0.4, 0.0, 0.0], [0.5, np.nan, 0.5, 0.0]],
        ids=["negative", "sum", "nan"],
    )
    def test_bad_row_raises_the_one_dimensional_error(self, bad_row):
        rng = np.random.default_rng(8)
        p = distribution_batch(rng, 5, 4)
        q = distribution_batch(rng, 5, 4)
        q[3] = bad_row
        with pytest.raises(ValueError) as single:
            mitigation.jsd(p[3], q[3])
        with pytest.raises(ValueError) as batch:
            mitigation.jsd(p, q)
        assert str(batch.value) == str(single.value)
        with pytest.raises(ValueError) as swapped:
            mitigation.jsd(q, p)
        assert str(swapped.value) == str(single.value)


def one_hot_scores(rows, truth):
    """jsd of each row against its one-hot truth row, the dense way."""
    return mitigation.jsd(np.eye(rows.shape[1])[truth], rows)


class TestOneHotScoring:
    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 7),
        blocks=st.integers(0, 3),
        extra=st.sampled_from([-1, 0, 1]),
        seed=st.integers(0, 2**32 - 1),
        chunk=st.sampled_from([1, 20, 100, 1 << 14]),
    )
    @example(n=7, blocks=1, extra=1, seed=0, chunk=1 << 14)
    @example(n=1, blocks=3, extra=-1, seed=1, chunk=20)
    def test_rows_match_dense_one_hot_scores(self, n, blocks, extra, seed, chunk):
        size = 2**n
        step = max(1, chunk // size)
        # a row count on either side of a scoring block's edge
        rows = max(1, blocks * step + extra)
        rng = np.random.default_rng(seed)
        q = distribution_batch(rng, rows, size)
        truth = rng.integers(0, size, rows)
        # a point mass at the truth, then a zero at the truth on a row with
        # mass elsewhere
        point = rng.integers(0, rows)
        q[point] = np.eye(size)[truth[point]]
        spread = np.flatnonzero(q.max(axis=1) < 1.0)
        if len(spread):
            q[spread[0], truth[spread[0]]] = 0.0
            q[spread[0]] /= q[spread[0]].sum()
        # subnormal or slightly negative entries in place of some zeros,
        # the zero at the truth among them; each row's largest entry gives
        # back what they add
        tiny = rng.choice([5e-324, 1e-320, 2.2e-308, -PROB_NEG_TOL, -1e-12, -0.0])
        picked = (q == 0.0) & (rng.uniform(size=q.shape) < 0.3)
        if len(spread) and rng.uniform() < 0.5:
            picked[spread[0], truth[spread[0]]] = True
        q[picked] = tiny
        q[np.arange(rows), q.argmax(axis=1)] -= picked.sum(axis=1) * tiny
        with mock.patch.object(mitigation, "_JSD_ENTRIES", chunk):
            dense = one_hot_scores(q, truth)
            got = mitigation._score_rows(q, truth)
            fortran = mitigation._score_rows(np.asfortranarray(q), truth)
        assert got.tobytes() == dense.tobytes()
        assert fortran.tobytes() == dense.tobytes()

    @pytest.mark.parametrize("chunk", [8, 1 << 14])
    @pytest.mark.parametrize(
        "bad_row",
        [[1.1, -0.1, 0.0, 0.0], [1.0, -2e-9, 0.0, 0.0], [0.7, 0.4, 0.0, 0.0],
         [0.5, np.nan, 0.5, 0.0], [np.inf, 0.0, 0.0, 0.0]],
        ids=["negative", "below-tolerance", "sum", "nan", "inf"],
    )
    def test_bad_row_raises_the_dense_error(self, bad_row, chunk, monkeypatch):
        monkeypatch.setattr(mitigation, "_JSD_ENTRIES", chunk)
        rng = np.random.default_rng(9)
        q = distribution_batch(rng, 6, 4)
        q[4] = bad_row
        truth = rng.integers(0, 4, 6)
        with pytest.raises(ValueError) as dense:
            one_hot_scores(q, truth)
        with pytest.raises(ValueError) as got:
            mitigation._score_rows(q, truth)
        assert str(got.value) == str(dense.value)


class TestCellMoments:
    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 300), min_size=1, max_size=12),
        methods=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(sizes=[285, 3, 285], methods=2, seed=0)
    def test_each_cell_gets_its_own_mean_and_std(self, sizes, methods, seed):
        rng = np.random.default_rng(seed)
        scores = rng.uniform(size=(methods, sum(sizes))) ** rng.uniform(1, 20)
        means, stds = mitigation._cell_moments(scores, sizes)
        for row in range(methods):
            cells = np.split(scores[row], np.cumsum(sizes)[:-1]) + [scores[row]]
            assert means[row].tobytes() == np.array([v.mean() for v in cells]).tobytes()
            assert stds[row].tobytes() == np.array([v.std() for v in cells]).tobytes()


class TestMitigate:
    def test_identity_system(self):
        mit = channel.MitigationMatrix(depth=1, matrix=np.eye(4))
        noisy = np.array([0.4, 0.3, 0.2, 0.1])
        np.testing.assert_allclose(mitigation.mitigate(mit, noisy), noisy, atol=1e-12)

    def test_exact_inversion_of_planted_channel(self):
        mit = channel.MitigationMatrix(depth=1, matrix=np.array([[0.9, 0.1], [0.1, 0.9]]))
        got = mitigation.mitigate(mit, [0.9, 0.1])
        np.testing.assert_allclose(got, [1.0, 0.0], atol=1e-9)

    def test_columns_invert_to_basis_states(self):
        rng = np.random.default_rng(4)
        raw = rng.uniform(0, 1, (4, 4))
        channels = {
            i: channel.InputChannel(
                rates=random_simplex(rng, 4) * 0.2 + np.array([0.8, 0, 0, 0]),
                spam=np.concatenate(([1.0], rng.uniform(0.7, 1.0, 3))),
            )
            for i in range(4)
        }
        model = channel.NoiseModel(n=2, channels=channels)
        mit = channel.mitigation_matrix(model, 4)
        for index in range(4):
            got = mitigation.mitigate(mit, mit.matrix[:, index])
            expected = np.zeros(4)
            expected[index] = 1.0
            np.testing.assert_allclose(got, expected, atol=1e-9)

    def test_round_trip_on_simplex_interior(self):
        rng = np.random.default_rng(5)
        chan = channel.InputChannel(rates=[0.9, 0.06, 0.03, 0.01], spam=[1.0, 0.9, 0.95, 0.85])
        model = channel.NoiseModel(n=2, channels={i: chan for i in range(4)})
        mit = channel.mitigation_matrix(model, 8)
        assert mit.condition < 1e6
        for _ in range(20):
            x = 0.8 * random_simplex(rng, 4) + 0.2 * np.full(4, 0.25)
            noisy = mit.matrix @ x
            np.testing.assert_allclose(mitigation.mitigate(mit, noisy), x, atol=1e-9)

    def test_singular_system_falls_back(self):
        matrix = np.full((2, 2), 0.5)
        mit = channel.MitigationMatrix(depth=1, matrix=matrix)
        assert mit.condition == float("inf")
        got = mitigation.mitigate(mit, [0.5, 0.5])
        assert abs(got.sum() - 1.0) < 1e-12
        assert got.min() >= 0.0

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 7),
        rows=st.integers(1, 300),
        decades=st.floats(0.0, 7.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=7, rows=300, decades=0.0, seed=0)
    @example(n=7, rows=300, decades=7.0, seed=0)
    def test_corrected_rows_are_c_ordered_within_the_solve_bound(self, n, rows, decades, seed):
        # the product with the inverse is C-ordered, so projection and
        # scoring walk each row in memory order; its rows, and mitigate's
        # one row, lie within solve_bound of np.linalg.solve's
        rng = np.random.default_rng(seed)
        size = 2**n
        spectrum = 10.0 ** -(decades * rng.uniform(size=size))
        spectrum[0] = 1.0
        mixing = 0.8 * np.eye(size) + 0.2 * distribution_batch(rng, size, size).T
        matrix = mixing @ channel.spam_matrix(spectrum)
        system = channel.MitigationMatrix(depth=1, matrix=matrix)
        assume(system.condition <= mitigation.COND_LIMIT)
        noisy = distribution_batch(rng, rows, size)
        corrected, flag = mitigation._invert(system, noisy)
        assert flag == ""
        assert corrected.flags.c_contiguous
        expected = transposed_solve_projection(matrix, noisy)
        assert np.abs(corrected - expected).max() <= solve_bound(system, noisy)
        one = mitigation.mitigate(system, noisy[0])
        assert np.abs(one - expected[0]).max() <= solve_bound(system, noisy[:1])

    @pytest.mark.parametrize(
        "rates,depth,flag",
        [([0.75, 0.25], 26, ""), ([0.75, 0.25], 27, mitigation.ILL_CONDITIONED_FLAG),
         ([0.5, 0.5], 3, mitigation.ILL_CONDITIONED_FLAG)],
        ids=["below_cond_limit", "above_cond_limit", "singular"],
    )
    def test_systems_at_the_cond_limit_and_singular(self, rates, depth, flag):
        # lambda = 0.5 per layer gives condition 2**depth: 2**26 is below
        # COND_LIMIT and 2**27 above it; rates [0.5, 0.5] give a rank-1 matrix
        chan = channel.InputChannel(rates=rates, spam=[1.0, 1.0])
        model = channel.NoiseModel(n=1, channels={0: chan, 1: chan})
        system = channel.mitigation_matrix(model, depth)
        noisy = np.array([[0.625, 0.375], [0.5, 0.5], [0.45, 0.55]])
        corrected, got_flag = mitigation._invert(system, noisy)
        assert got_flag == flag
        if flag:
            least_squares = np.linalg.lstsq(system.matrix, noisy.T, rcond=None)[0]
            assert corrected.tobytes() == simplex_project(least_squares.T).tobytes()
        else:
            expected = transposed_solve_projection(system.matrix, noisy)
            assert np.abs(corrected - expected).max() <= solve_bound(system, noisy)
        if rates == [0.5, 0.5]:
            assert system.condition == float("inf")
            assert system.inverse is None
        else:
            assert system.condition == pytest.approx(2.0**depth, rel=1e-6)

    @pytest.mark.parametrize(
        "row", [[2.0, -1.0], [0.3, 0.3], [np.nan, 1.0], [np.inf, 0.0]],
        ids=["negative", "sum", "nan", "inf"],
    )
    def test_rejects_a_row_that_is_not_a_distribution(self, row):
        # jsd and _score_rows apply the same rule, and a bad row is bad
        # input, not a numeric failure
        with pytest.raises(ValueError) as rule:
            require_prob_dist(np.array(row))
        mit = channel.MitigationMatrix(depth=1, matrix=np.array([[0.9, 0.1], [0.1, 0.9]]))
        with pytest.raises(ValueError) as caught:
            mitigation.mitigate(mit, row)
        assert str(caught.value) == str(rule.value)

    def test_shape_mismatch(self):
        mit = channel.MitigationMatrix(depth=1, matrix=np.eye(2))
        with pytest.raises(ValueError):
            mitigation.mitigate(mit, [0.5, 0.25, 0.25])


class TestCorrectionSeam:
    """Every method is a builder in CORRECTIONS giving, per depth, a
    correction rows -> (rows, flag)."""

    def test_method_order_is_the_table_order(self):
        assert mitigation.METHOD_ORDER == tuple(mitigation.CORRECTIONS)

    @pytest.mark.parametrize(
        "rates,depth,flag",
        [([0.75, 0.25], 1, ""), ([0.75, 0.25], 30, "ill_conditioned"),
         ([0.5, 0.5], 3, "ill_conditioned")],
        ids=["well_conditioned", "above_cond_limit", "singular"],
    )
    def test_mitigate_is_the_correction_on_one_row(self, rates, depth, flag):
        chan = channel.InputChannel(rates=rates, spam=[1.0, 1.0])
        model = channel.NoiseModel(n=1, channels={0: chan, 1: chan})
        mit = channel.mitigation_matrix(model, depth)
        correct = mitigation.CORRECTIONS[mitigation.PROPOSED](None, model)(depth)
        row = np.array([0.625, 0.375])
        corrected, got_flag = correct(row[None])
        assert got_flag == flag
        assert corrected.shape == (1, 2)
        assert mitigation.mitigate(mit, row).tobytes() == corrected[0].tobytes()

    def test_unmitigated_returns_the_rows(self):
        rows = np.array([[0.25, 0.75]])
        corrected, flag = mitigation.CORRECTIONS[mitigation.UNMITIGATED](None, None)(4)(rows)
        assert corrected is rows and flag == ""

    def test_shared_systems_are_built_once_per_call(self, monkeypatch):
        gt = simulator.iid_bitflip(2, 0.01, readout=0.02)
        ds = simulator.generate_dataset(
            gt, depths=range(6), circuits_per_depth=3, inputs=range(4), shots=64, seed=10
        )
        model = simulator.true_noise_model(gt)
        calls = []
        for name in ("build_mem_matrix", "pool_rates", "mitigation_matrix"):
            def counted(*args, _name=name, _fn=getattr(mitigation, name)):
                calls.append(_name)
                return _fn(*args)

            monkeypatch.setattr(mitigation, name, counted)
        report = mitigation.evaluate_mitigation(
            ds, model=model, test_depths=range(1, 6), methods=mitigation.METHOD_ORDER
        )
        assert len(report.rows) == 5 * 5 * 4
        assert calls.count("build_mem_matrix") == 1
        assert calls.count("pool_rates") == 1
        # proposed and proposed_pavg build their own system at each depth
        assert calls.count("mitigation_matrix") == 2 * 5

    def test_mem_on_a_partial_calibration_raises(self):
        # depth 1 for both inputs, depth 0 for input 0 alone
        ds = dataset_of(1, [(0, 0, 0, 8, {0: 8})] + [(1, i, 0, 8, {i: 8}) for i in range(2)])
        with pytest.raises(CoverageError, match=r"\(m=0, in=1\)"):
            mitigation.evaluate_mitigation(ds, methods=(mitigation.MEM,))


class TestMemMatrix:
    def test_noiseless_device_gives_identity(self):
        gt = simulator.iid_bitflip(2, 0.0)
        ds = simulator.generate_dataset(
            gt, depths=[0], circuits_per_depth=5, inputs=range(4), shots=64, seed=1
        )
        mem = mitigation.build_mem_matrix(ds)
        assert np.array_equal(mem.matrix, np.eye(4))
        assert mem.depth == 0

    def test_matches_planted_confusion(self):
        gt = simulator.spam_only(2, 0.03)
        circuits = 300
        shots = 1024
        ds = simulator.generate_dataset(
            gt, depths=[0], circuits_per_depth=circuits, inputs=range(4), shots=shots, seed=2
        )
        mem = mitigation.build_mem_matrix(ds)
        confusion = reduce(np.kron, list(gt.readout_matrices())[::-1])
        envelope = 4 * np.sqrt(confusion * (1 - confusion) / (circuits * shots)) + 1e-12
        assert np.all(np.abs(mem.matrix - confusion) <= envelope)
        np.testing.assert_allclose(mem.matrix.sum(axis=0), 1.0, atol=1e-9)

    def test_missing_inputs_raise(self):
        gt = simulator.spam_only(2, 0.03)
        ds = simulator.generate_dataset(
            gt, depths=[0], circuits_per_depth=5, inputs=[0, 1], shots=64, seed=3
        )
        with pytest.raises(CoverageError):
            mitigation.build_mem_matrix(ds)

    def test_agrees_with_fitted_spam_on_spam_only_device(self):
        # two SPAM estimates, one from depth-0 data and one from the decay
        # intercepts, must coincide on a gate-noise-free device
        gt = simulator.spam_only(2, 0.04)
        circuits = 400
        shots = 1024
        ds = simulator.generate_dataset(
            gt, depths=[0] + list(range(1, 11)), circuits_per_depth=circuits,
            inputs=range(4), shots=shots, seed=4,
        )
        mem = mitigation.build_mem_matrix(ds)
        model, _ = estimation.estimate_model(ds, train_depths=range(1, 11))
        for index in range(4):
            fitted_column = channel.spam_matrix(model.channel(index).spam)[:, index]
            l1 = np.abs(mem.matrix[:, index] - fitted_column).sum()
            # generous but principled: a few pooled shot-noise sigmas
            assert l1 < 8 * np.sqrt(4 / (circuits * shots))


class TestConditionNumber:
    """Both system builders record np.linalg.cond(columns, 1) of the
    matrix they return, and inf for a singular one."""

    def test_recorded_condition_is_numpys(self):
        rng = np.random.default_rng(6)
        channels = {
            i: channel.InputChannel(
                rates=random_simplex(rng, 4) * 0.2 + np.array([0.8, 0, 0, 0]),
                spam=np.concatenate(([1.0], rng.uniform(0.7, 1.0, 3))),
            )
            for i in range(4)
        }
        model = channel.NoiseModel(n=2, channels=channels)
        ds = simulator.generate_dataset(
            simulator.spam_only(2, 0.05), depths=[0], circuits_per_depth=3,
            inputs=range(4), shots=64, seed=6,
        )
        systems = [
            channel.mitigation_matrix(model, 5),
            channel.mitigation_matrix(channel.pool_rates(model), 5),
            mitigation.build_mem_matrix(ds),
        ]
        for system in systems:
            assert system.condition == float(np.linalg.cond(system.matrix, 1))
            assert np.isfinite(system.condition)

    def test_singular_systems_record_inf(self):
        # rates exactly [0.5, 0.5] give a rank-1 prediction matrix, and two
        # inputs read out alike give a rank-1 confusion matrix
        chan = channel.InputChannel(rates=[0.5, 0.5], spam=[1.0, 1.0])
        model = channel.NoiseModel(n=1, channels={0: chan, 1: chan})
        ds = dataset_of(1, [(0, i, 0, 4, {0: 2, 1: 2}) for i in range(2)])
        for system in (channel.mitigation_matrix(model, 3), mitigation.build_mem_matrix(ds)):
            assert system.condition == float("inf")


class TestEvaluate:
    def make_noiseless_report(self):
        gt = simulator.iid_bitflip(2, 0.0)
        ds = simulator.generate_dataset(
            gt, depths=[0, 1, 5], circuits_per_depth=4, inputs=range(4), shots=32, seed=6
        )
        model, _ = estimation.estimate_model(ds, train_depths=[1, 5])
        report = mitigation.evaluate_mitigation(
            ds, model=model, methods=mitigation.METHOD_ORDER
        )
        return report

    def test_noiseless_scores_are_zero(self):
        report = self.make_noiseless_report()
        for row in report.rows:
            assert row.mean_jsd == pytest.approx(0.0, abs=1e-12)
            assert row.std_jsd == pytest.approx(0.0, abs=1e-12)
            assert row.flags == ""

    def test_report_structure(self):
        report = self.make_noiseless_report()
        # depths 1 and 5 (0 is calibration only), 4 inputs + "all", 4 methods
        assert len(report.rows) == 2 * 5 * 4
        assert report.methods() == list(mitigation.METHOD_ORDER)
        assert report.mean(1, "proposed") == 0.0
        assert report.mean(5, "MEM", input_label="10") == 0.0
        with pytest.raises(KeyError):
            report.mean(2, "proposed")

    def test_csv_format(self, tmp_path):
        report = self.make_noiseless_report()
        path = tmp_path / "report.csv"
        report.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "depth,input,method,mean_jsd,std_jsd,flags"
        assert len(lines) == 1 + len(report.rows)
        first = lines[1].split(",")
        assert first[0] == "1"
        assert first[1] == "00"
        assert first[2] == "unmitigated"
        assert float(first[3]) == 0.0

    def test_planted_device_improvement(self):
        gt = simulator.iid_bitflip(2, 0.01, readout=0.02)
        ds = simulator.generate_dataset(
            gt, depths=[0] + list(range(1, 21)), circuits_per_depth=100,
            inputs=range(4), shots=1024, seed=7,
        )
        model, _ = estimation.estimate_model(ds, train_depths=range(1, 21))
        report = mitigation.evaluate_mitigation(
            ds, model=model, test_depths=[15],
            methods=(mitigation.UNMITIGATED, mitigation.MEM, mitigation.PROPOSED),
        )
        unmit = report.mean(15, "unmitigated")
        mem = report.mean(15, "MEM")
        proposed = report.mean(15, "proposed")
        assert proposed < 0.5 * unmit
        assert proposed < mem

    def test_gate_dominated_device_beats_mem(self):
        gt = simulator.iid_bitflip(2, 0.02, readout=0.002)
        ds = simulator.generate_dataset(
            gt, depths=[0] + list(range(1, 31)), circuits_per_depth=100,
            inputs=range(4), shots=1024, seed=8,
        )
        model, _ = estimation.estimate_model(ds, train_depths=range(1, 31))
        report = mitigation.evaluate_mitigation(
            ds, model=model, test_depths=[30],
            methods=(mitigation.MEM, mitigation.PROPOSED),
        )
        assert report.mean(30, "proposed") < report.mean(30, "MEM")

    def test_flags_ill_conditioned_systems(self):
        # rates exactly [0.5, 0.5] give a rank-1 prediction matrix
        chan = channel.InputChannel(rates=[0.5, 0.5], spam=[1.0, 1.0])
        model = channel.NoiseModel(n=1, channels={0: chan, 1: chan})
        ds = dataset_of(1, [(3, i, s, 8, {i: 8}) for i in range(2) for s in range(3)])
        report = mitigation.evaluate_mitigation(
            ds, model=model, methods=(mitigation.UNMITIGATED, mitigation.PROPOSED)
        )
        proposed_rows = [r for r in report.rows if r.method == "proposed"]
        assert proposed_rows and all(
            r.flags == mitigation.ILL_CONDITIONED_FLAG for r in proposed_rows
        )
        unmit_rows = [r for r in report.rows if r.method == "unmitigated"]
        assert all(r.flags == "" for r in unmit_rows)

    def test_matches_per_record_loop(self, monkeypatch):
        self.check_against_per_record_loop(monkeypatch)

    def test_scoring_blocks_match_per_record_loop(self, monkeypatch):
        # 3 records of 8 outcomes per scoring block
        monkeypatch.setattr(mitigation, "_JSD_ENTRIES", 24)
        self.check_against_per_record_loop(monkeypatch)

    @staticmethod
    def check_against_per_record_loop(monkeypatch):
        gt = simulator.iid_bitflip(3, 0.01, readout=0.03, prep=0.01)
        train = list(range(1, 9))
        ds = simulator.generate_dataset(
            gt, depths=[0] + train + [12], circuits_per_depth=12,
            inputs=range(8), shots=256, seed=21,
        )
        model, _ = estimation.estimate_model(ds, train_depths=train)
        depths, inputs = [4, 12], list(range(8))
        mem = mitigation.build_mem_matrix(ds)
        systems = {}
        for depth in depths:
            systems[(depth, mitigation.UNMITIGATED)] = None
            systems[(depth, mitigation.MEM)] = mem
            systems[(depth, mitigation.PROPOSED)] = channel.mitigation_matrix(model, depth)
            systems[(depth, mitigation.PROPOSED_PAVG)] = channel.mitigation_matrix(
                channel.pool_rates(model), depth
            )
        expected = per_record_mitigation_rows(
            ds, depths, inputs, systems, mitigation.COND_LIMIT
        )

        inv = np.linalg.inv
        inverted = []

        def counting_inv(matrix):
            inverted.append(np.shape(matrix))
            return inv(matrix)

        monkeypatch.setattr(np.linalg, "inv", counting_inv)
        report = mitigation.evaluate_mitigation(
            ds, model=model, test_depths=depths, methods=mitigation.METHOD_ORDER
        )
        # the oracle solves by LU, the report multiplies by the inverse: each
        # score may move by solve_bound, and an unmitigated one not at all
        assert len(report.rows) == len(expected)
        for row, want in zip(report.rows, expected):
            depth, label, method, mean, std, flagged = want
            assert (row.depth, row.input_label, row.method, bool(row.flags)) == (
                depth, label, method, flagged
            )
            system = systems[(depth, method)]
            tol = 0.0 if system is None else solve_bound(system, ds.distributions(depth, inputs))
            assert abs(row.mean_jsd - mean) <= tol, row
            assert abs(row.std_jsd - std) <= tol, row
        # one factorization for MEM per call, one per depth for each
        # model-based method
        assert inverted == [(8, 8)] * (1 + 2 * len(depths))

    def test_scoring_peak_is_bounded_by_the_records(self):
        gt = simulator.iid_bitflip(7, 0.01, readout=0.02)
        ds = simulator.generate_dataset(
            gt, depths=[0, 5], circuits_per_depth=10, inputs=range(128), shots=1024, seed=4
        )
        model = simulator.true_noise_model(gt)
        # a first call makes one-time allocations (imports, caches)
        mitigation.evaluate_mitigation(ds, model=model, test_depths=[5])
        _, peak = traced_peak(
            lambda: mitigation.evaluate_mitigation(ds, model=model, test_depths=[5])
        )
        raw = 10 * 128 * 128 * 8
        # the depth's rows and their product with the inverse take two;
        # dense one-hot truth rows and a whole-depth projection took 7.5
        assert peak < 4 * raw

    def test_cells_of_different_sizes_report_their_own_moments(self):
        # cells of 1 to 3 circuits, so the cells of one depth differ in size
        gt = simulator.iid_bitflip(3, 0.03, readout=0.02, prep=0.01)
        model = simulator.true_noise_model(gt)
        rng = np.random.default_rng(12)
        records = [
            (depth, index, seq, 64, {
                outcome: int(c)
                for outcome, c in enumerate(rng.multinomial(
                    64, simulator.exact_distribution(gt, depth, index)))
                if c
            })
            for depth in (0, 3, 7)
            for index in range(8)
            for seq in range(1 + (index + depth) % 3)
        ]
        ds = dataset_of(3, records)
        report = mitigation.evaluate_mitigation(ds, model=model, methods=mitigation.METHOD_ORDER)
        builders = {m: mitigation.CORRECTIONS[m](ds, model) for m in mitigation.METHOD_ORDER}
        expected = []
        for depth in (3, 7):
            sizes = [ds.circuits(depth, index) for index in range(8)]
            assert sorted(set(sizes)) == [1, 2, 3]
            truth = np.repeat(np.arange(8), sizes)
            raw = ds.distributions(depth, range(8))
            cells = {}
            for method, builder in builders.items():
                scores = one_hot_scores(builder(depth)(raw)[0], truth)
                cells[method] = np.split(scores, np.cumsum(sizes)[:-1]) + [scores]
            labels = [format(index, "03b") for index in range(8)] + ["all"]
            for position, label in enumerate(labels):
                for method in mitigation.METHOD_ORDER:
                    values = cells[method][position]
                    expected.append((depth, label, method, values.mean(), values.std()))
        got = [(r.depth, r.input_label, r.method, r.mean_jsd, r.std_jsd) for r in report.rows]
        assert len(got) == len(expected)
        for row, want in zip(got, expected):
            assert row[:3] == want[:3]
            assert np.float64(row[3]).tobytes() == np.float64(want[3]).tobytes(), row
            assert np.float64(row[4]).tobytes() == np.float64(want[4]).tobytes(), row

    def test_ill_conditioned_depth_takes_least_squares(self, monkeypatch):
        # lambda = 0.5 per layer: depth 1 is well conditioned, depth 30 has
        # condition ~2**30 > COND_LIMIT
        chan = channel.InputChannel(rates=[0.75, 0.25], spam=[1.0, 1.0])
        model = channel.NoiseModel(n=1, channels={0: chan, 1: chan})
        assert channel.mitigation_matrix(model, 1).condition < 10
        assert channel.mitigation_matrix(model, 30).condition > mitigation.COND_LIMIT
        ds = dataset_of(1, [
            (d, i, s, 8, {i: 5, 1 - i: 3}) for d in (1, 30) for i in range(2) for s in range(3)
        ])
        lstsq = np.linalg.lstsq
        rhs_shapes = []

        def counting_lstsq(matrix, rhs, rcond=None):
            rhs_shapes.append(np.shape(rhs))
            return lstsq(matrix, rhs, rcond=rcond)

        monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
        report = mitigation.evaluate_mitigation(
            ds, model=model, methods=(mitigation.UNMITIGATED, mitigation.PROPOSED)
        )
        assert rhs_shapes == [(2, 6)]
        for row in report.rows:
            flagged = row.method == mitigation.PROPOSED and row.depth == 30
            assert row.flags == (mitigation.ILL_CONDITIONED_FLAG if flagged else "")
            assert np.isfinite(row.mean_jsd)
        assert len([r for r in report.rows if r.flags]) == 3

    def test_argument_and_coverage_errors(self):
        gt = simulator.iid_bitflip(1, 0.05)
        ds = simulator.generate_dataset(
            gt, depths=[1, 2], circuits_per_depth=2, inputs=[0, 1], shots=16, seed=9
        )
        model, _ = estimation.estimate_model(ds)
        with pytest.raises(ValueError):
            mitigation.evaluate_mitigation(ds, model=model, methods=("bogus",))
        with pytest.raises(ValueError, match="need at least one method"):
            mitigation.evaluate_mitigation(ds, model=model, methods=[])
        with pytest.raises(ValueError):
            mitigation.evaluate_mitigation(ds, model=None, methods=(mitigation.PROPOSED,))
        with pytest.raises(CoverageError):
            mitigation.evaluate_mitigation(ds, model=model, test_depths=[9])
        with pytest.raises(CoverageError):
            # MEM needs depth-0 calibration records
            mitigation.evaluate_mitigation(ds, model=model, methods=(mitigation.MEM,))
