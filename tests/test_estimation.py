"""Estimation pipeline tests: aggregation, spectral fits, recovery.

Recovery tests run the full pipeline against the synthetic device and
compare with the planted parameters; exactness tests feed the pipeline
zero-noise pseudo-data and demand near machine-precision round trips.
"""

from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    curve_fit_rb,
    dataset_of,
    dense_wht_matrix,
    one_pass_rb_fit,
    polyfit_decay,
    rb_rss,
    traced_peak,
    xor_permutation_matrix,
)
from qflip import channel, estimation, simulator
from qflip.errors import CoverageError
from qflip.transforms import fwht, fwht_inverse


def fit_series(series, train_depths=None):
    """fit_decay on the rows of a depth -> spectrum mapping, in depth order."""
    depths = sorted(series) if train_depths is None else sorted(set(train_depths))
    return estimation.fit_decay(np.stack([series[m] for m in depths]), depths)


def make_record(depth, input_index, counts, sequence_id=0):
    return (depth, input_index, sequence_id, sum(counts.values()), counts)


class TestAggregate:
    def test_average_needs_a_circuit(self):
        with pytest.raises(ValueError, match="need at least one circuit"):
            estimation.DepthAverage(
                depth=1, input_index=0, distribution=np.array([1.0, 0.0]), circuits_used=0
            )

    def test_single_record(self):
        ds = dataset_of(1, [make_record(1, 0, {0: 8})])
        avg = estimation.aggregate(ds, 1, 0)
        assert np.array_equal(avg.distribution, [1.0, 0.0])
        assert avg.circuits_used == 1

    def test_mean_of_two_records(self):
        ds = dataset_of(
            1,
            [
                make_record(1, 0, {0: 4}, sequence_id=0),
                make_record(1, 0, {1: 4}, sequence_id=1),
            ],
        )
        avg = estimation.aggregate(ds, 1, 0)
        assert np.array_equal(avg.distribution, [0.5, 0.5])
        assert avg.circuits_used == 2

    def test_records_normalized_before_averaging(self):
        # unequal shots: each circuit still contributes equal weight
        ds = dataset_of(
            1,
            [
                make_record(1, 0, {0: 10}, sequence_id=0),
                make_record(1, 0, {1: 30}, sequence_id=1),
            ],
        )
        avg = estimation.aggregate(ds, 1, 0)
        assert np.array_equal(avg.distribution, [0.5, 0.5])

    def test_missing_group_raises(self):
        ds = dataset_of(1, [make_record(1, 0, {0: 8})])
        with pytest.raises(CoverageError):
            estimation.aggregate(ds, 2, 0)
        with pytest.raises(CoverageError):
            estimation.aggregate(ds, 1, 1)

    def test_simulated_mean_within_envelope(self):
        gt = simulator.iid_bitflip(2, 0.05, readout=0.02)
        circuits = 1000
        shots = 32
        ds = simulator.generate_dataset(
            gt, depths=[2], circuits_per_depth=circuits, inputs=[0], shots=shots, seed=8
        )
        avg = estimation.aggregate(ds, 2, 0)
        assert avg.circuits_used == circuits
        exact = simulator.exact_distribution(gt, 2, 0)
        envelope = 4 * np.sqrt(exact * (1 - exact) / (circuits * shots))
        assert np.all(np.abs(avg.distribution - exact) <= envelope)


class TestSpectralize:
    def test_aligned_point_mass_gives_all_ones(self):
        avg = estimation.DepthAverage(
            depth=1, input_index=0, distribution=np.array([1.0, 0, 0, 0]), circuits_used=1
        )
        assert np.array_equal(estimation.spectralize(avg), np.ones(4))

    def test_permutation_aligns_input(self):
        avg = estimation.DepthAverage(
            depth=1, input_index=3, distribution=np.array([0, 0, 0, 1.0]), circuits_used=1
        )
        assert np.array_equal(estimation.spectralize(avg), np.ones(4))

    def test_matches_dense_permutation_then_walsh(self):
        rng = np.random.default_rng(3)
        raw = rng.uniform(0, 1, 4)
        dist = raw / raw.sum()
        for index in range(4):
            avg = estimation.DepthAverage(
                depth=1, input_index=index, distribution=dist, circuits_used=1
            )
            got = estimation.spectralize(avg)
            oracle = dense_wht_matrix(2) @ xor_permutation_matrix(2, index) @ dist
            assert got[0] == 1.0
            np.testing.assert_allclose(got[1:], oracle[1:], atol=1e-12)


class TestFitDecay:
    def test_exact_log_linear_data(self):
        spams = np.array([1.0, 0.95, 0.9, 0.85])
        eigs = np.array([1.0, 0.99, 0.97, 0.9])
        series = {m: spams * eigs**m for m in range(1, 51)}
        fit = fit_series(series)
        np.testing.assert_allclose(fit.spam, spams, atol=1e-6)
        np.testing.assert_allclose(fit.eigenvalues, eigs, atol=1e-6)
        assert np.all(fit.residual[1:] < 1e-9)
        assert np.all(fit.points_used == 50)

    def test_constant_series_gives_unit_eigenvalue(self):
        series = {m: np.array([1.0, 0.9]) for m in (1, 5, 9)}
        fit = fit_series(series)
        assert fit.eigenvalues[1] == 1.0
        assert fit.spam[1] == pytest.approx(0.9, abs=1e-12)

    def test_coefficient_zero_is_pinned(self):
        series = {m: np.array([0.7, 0.5**m]) for m in range(1, 6)}
        fit = fit_series(series)
        assert fit.spam[0] == 1.0
        assert fit.eigenvalues[0] == 1.0

    def test_floor_masks_decayed_tail(self):
        # 0.5**m dives below the floor near m=20; the fit must ignore the
        # tail garbage and still recover the early decay
        series = {}
        rng = np.random.default_rng(5)
        for m in range(1, 41):
            clean = 0.5**m
            value = clean if clean > 1e-6 else rng.normal(0.0, 1e-7)
            series[m] = np.array([1.0, value])
        fit = fit_series(series)
        assert fit.eigenvalues[1] == pytest.approx(0.5, abs=1e-9)
        assert fit.points_used[1] < 40

    def test_under_determined_coefficients(self):
        series = {
            1: np.array([1.0, 0.3, -0.2]),
            2: np.array([1.0, -1e-9, 0.0]),
            3: np.array([1.0, 0.0, -0.1]),
        }
        fit = fit_series(series)
        # one usable point: eigenvalue floored, spam keeps the value
        assert fit.eigenvalues[1] == estimation.FIT_FLOOR
        assert fit.spam[1] == pytest.approx(0.3)
        assert fit.points_used[1] == 1
        # zero usable points
        assert fit.eigenvalues[2] == estimation.FIT_FLOOR
        assert fit.spam[2] == 0.0
        assert fit.points_used[2] == 0
        assert np.isnan(fit.residual[1]) and np.isnan(fit.residual[2])

    def test_growing_series_clamps_to_one(self):
        series = {m: np.array([1.0, 0.5 * 1.1**m]) for m in range(1, 11)}
        fit = fit_series(series)
        assert fit.eigenvalues[1] == 1.0

    def test_fast_decay_clamps_to_floor(self):
        series = {m: np.array([1.0, np.exp(-16.0 * m)]) for m in (1, 2)}
        # values at m=1,2 are below the mask floor already? exp(-16) ~ 1e-7
        fit = fit_series(series)
        assert fit.eigenvalues[1] == estimation.FIT_FLOOR

    def test_training_depth_selection(self):
        spams = np.array([1.0, 0.9])
        eigs = np.array([1.0, 0.95])
        series = {m: spams * eigs**m for m in range(1, 21)}
        # corrupt the depths outside the training set
        series[15] = np.array([1.0, 0.0])
        series[16] = np.array([1.0, 0.0])
        fit = fit_series(series, train_depths=range(1, 11))
        np.testing.assert_allclose(fit.eigenvalues[1], 0.95, atol=1e-9)
        assert fit.points_used[0] == 10

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="at least 2"):
            estimation.fit_decay(np.array([[1.0, 0.5]]), [1])
        with pytest.raises(ValueError, match="does not match"):
            estimation.fit_decay(np.ones((2, 2)), [1, 2, 3])
        with pytest.raises(ValueError, match="repeat"):
            estimation.fit_decay(np.ones((3, 2)), [1, 2, 2])
        averages = [
            estimation.DepthAverage(
                depth=1, input_index=0, distribution=np.array([0.75, 0.25]), circuits_used=1
            )
        ]
        with pytest.raises(CoverageError):
            estimation.estimate_model_from_averages(1, averages, train_depths=[1, 2])


def noisy_decay_table(rng, n, depths, noise=0.01):
    """Spectra spam * eig**m plus normal noise of the given scale, with
    coefficients that keep no, one, or a gapped subset of usable points."""
    size = 1 << n
    spams = rng.uniform(0.3, 1.2, size)
    eigs = rng.uniform(0.5, 1.0, size)
    table = spams * eigs ** depths[:, None] + rng.normal(0.0, noise, (len(depths), size))
    kind = rng.integers(0, 4, size)
    table[:, kind == 0] = -rng.uniform(0.0, 1e-3, (len(depths), int(np.sum(kind == 0))))
    for column in np.flatnonzero(kind == 1):
        table[:, column] = 0.0
        table[rng.integers(len(depths)), column] = 0.5
    gaps = (kind == 2)[None, :] & (rng.random(table.shape) < 0.4)
    table[gaps] = estimation.FIT_FLOOR
    table[:, 0] = 1.0
    return table


class TestFitDecayOracle:
    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 7),
        noise=st.sampled_from([0.0, 1e-6, 1e-4, 1e-2]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_polyfit_loop(self, n, noise, seed):
        # depths up to 200 let fast decays fall below FIT_FLOOR part way;
        # the table also holds series with no, one or gapped usable points
        rng = np.random.default_rng(seed)
        depths = np.sort(rng.choice(201, size=rng.integers(2, 31), replace=False))
        table = noisy_decay_table(rng, n, depths, noise)
        fit = estimation.fit_decay(table, depths)
        spam, eigenvalues, points_used, residual = polyfit_decay(table, depths)
        assert fit.points_used.dtype == points_used.dtype
        np.testing.assert_array_equal(fit.points_used, points_used)
        for mine, oracle in [
            (fit.spam, spam),
            (fit.eigenvalues, eigenvalues),
            (fit.residual, residual),
        ]:
            np.testing.assert_array_equal(np.isnan(mine), np.isnan(oracle))
            np.testing.assert_allclose(mine, oracle, rtol=1e-10, atol=1e-12)

    def test_fits_without_lstsq_or_polyfit(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("fit_decay must fit in closed form")

        monkeypatch.setattr(np.linalg, "lstsq", forbidden)
        monkeypatch.setattr(np, "polyfit", forbidden)
        rng = np.random.default_rng(12)
        depths = np.arange(1, 21)
        fit = estimation.fit_decay(noisy_decay_table(rng, 5, depths), depths)
        assert 0 < int(np.sum(fit.points_used[1:] >= 2)) < 31


class TestEstimateModel:
    def test_noiseless_dataset_recovers_identity(self):
        gt = simulator.iid_bitflip(2, 0.0)
        ds = simulator.generate_dataset(
            gt, depths=range(1, 6), circuits_per_depth=3, inputs=range(4), shots=64, seed=2
        )
        model, diagnostics = estimation.estimate_model(ds)
        for index in range(4):
            expected = np.zeros(4)
            expected[0] = 1.0
            np.testing.assert_allclose(model.channel(index).rates, expected, atol=1e-9)
            np.testing.assert_allclose(model.channel(index).spam, np.ones(4), atol=1e-9)
        assert sorted(diagnostics) == [0, 1, 2, 3]

    @pytest.mark.parametrize("builder", [
        lambda: simulator.iid_bitflip(2, 0.03, readout=0.02, prep=0.01),
        lambda: simulator.correlated_pair(3, 0.02, 0.015, 0, 2, readout=0.025),
    ])
    def test_exact_averages_round_trip(self, builder):
        # zero shot noise: pipeline must reproduce the in-class model
        gt = builder()
        planted = simulator.true_noise_model(gt)
        averages = estimation.exact_averages(
            planted, depths=range(1, 21), inputs=range(gt.size)
        )
        model, _ = estimation.estimate_model_from_averages(gt.n, averages)
        for index in range(gt.size):
            np.testing.assert_allclose(
                model.channel(index).rates, planted.channel(index).rates, atol=1e-6
            )
            np.testing.assert_allclose(
                model.channel(index).spam, planted.channel(index).spam, atol=1e-6
            )

    def test_spam_only_device_absorbed_in_spam(self):
        gt = simulator.spam_only(2, 0.05, prep=0.01)
        ds = simulator.generate_dataset(
            gt, depths=range(1, 11), circuits_per_depth=100, inputs=range(4),
            shots=1024, seed=31,
        )
        model, _ = estimation.estimate_model(ds)
        expected_rates = np.array([1.0, 0, 0, 0])
        for index in range(4):
            fitted = model.channel(index)
            assert np.abs(fitted.rates - expected_rates).sum() < 0.01
            np.testing.assert_allclose(fitted.spam, gt.spectral_spam(), atol=0.02)

    def test_planted_recovery_small(self):
        gt = simulator.iid_bitflip(2, 0.02, readout=0.03)
        ds = simulator.generate_dataset(
            gt, depths=range(1, 21), circuits_per_depth=100, inputs=[0],
            shots=1024, seed=17,
        )
        model, _ = estimation.estimate_model(ds, train_depths=range(1, 21))
        fitted = model.channel(0)
        assert np.abs(fitted.rates - gt.rates).sum() < 0.02
        np.testing.assert_allclose(fitted.spam, gt.spectral_spam(), atol=0.05)

    def test_coverage_error_names_missing_pairs(self):
        ds = dataset_of(
            1,
            [
                make_record(1, 0, {0: 8}),
                make_record(2, 0, {0: 8}),
                make_record(1, 1, {1: 8}),
            ],
        )
        with pytest.raises(CoverageError, match=r"m=2, in=1"):
            estimation.estimate_model(ds)
        with pytest.raises(CoverageError, match=r"m=3"):
            estimation.estimate_model(ds, inputs=[0], train_depths=[1, 2, 3])

    def test_average_rates_variant(self):
        gt = simulator.iid_bitflip(2, 0.04, readout=0.02)
        ds = simulator.generate_dataset(
            gt, depths=range(1, 16), circuits_per_depth=60, inputs=range(4),
            shots=1024, seed=23,
        )
        separate, _ = estimation.estimate_model(ds)
        pooled = channel.pool_rates(separate)
        expected = np.mean([separate.channel(i).rates for i in range(4)], axis=0)
        for index in range(4):
            np.testing.assert_allclose(pooled.channel(index).rates, expected, atol=1e-12)
            # SPAM stays input-specific
            np.testing.assert_allclose(
                pooled.channel(index).spam, separate.channel(index).spam, atol=1e-12
            )
            # identical planted rates: pooled estimate close to each per-input one
            assert np.abs(pooled.channel(index).rates - separate.channel(index).rates).sum() < 0.02

    @pytest.mark.parametrize("entries", [1, 3 * 5 * 4])
    def test_blocks_of_inputs_fit_as_one_table(self, monkeypatch, entries):
        # cells of 1 to 3 circuits, so blocks pad their cell means differently
        rng = np.random.default_rng(5)
        probabilities = [0.7, 0.1, 0.15, 0.05]
        rows = [
            (depth, index, seq, 64, dict(enumerate(rng.multinomial(64, probabilities).tolist())))
            for depth in range(1, 6)
            for index in range(4)
            for seq in range(1 + (depth + index) % 3)
        ]
        ds = dataset_of(2, rows)
        whole, whole_fits = estimation.estimate_model(ds)
        # 1 entry: one input per block; 60 entries: inputs 0-2, then 3
        monkeypatch.setattr(estimation, "_FIT_ENTRIES", entries)
        blocked, blocked_fits = estimation.estimate_model(ds)
        np.testing.assert_array_equal(blocked.rates, whole.rates)
        np.testing.assert_array_equal(blocked.spam, whole.spam)
        for index in range(4):
            for field in ("spam", "eigenvalues", "points_used", "residual"):
                np.testing.assert_array_equal(
                    getattr(blocked_fits[index], field), getattr(whole_fits[index], field)
                )

    def test_fit_peak_is_bounded_by_a_block_of_inputs(self):
        gt = simulator.iid_bitflip(7, 0.01, readout=0.02)
        depths = range(1, 41)
        ds = simulator.generate_dataset(
            gt, depths=depths, circuits_per_depth=1, inputs=range(128), shots=1024, seed=3
        )
        # a first call makes one-time allocations (imports, caches)
        estimation.estimate_model(ds, inputs=[0, 1], train_depths=[1, 2])
        _, peak = traced_peak(lambda: estimation.estimate_model(ds))
        table = 128 * len(depths) * 128 * 8
        # the whole (inputs, depths, 2**n) table of cell means and its
        # aligned copy would take two tables; a block of inputs at a time,
        # the fits and the model stay under one
        assert peak < table

    def test_data_sufficiency_is_monotone(self):
        # mean recovery error over a seed family must not get worse as the
        # number of circuits per depth grows
        gt = simulator.iid_bitflip(2, 0.03, readout=0.02)
        mean_errors = []
        for circuits in (50, 200, 1000):
            errors = []
            for seed in range(3):
                ds = simulator.generate_dataset(
                    gt, depths=range(1, 16), circuits_per_depth=circuits,
                    inputs=[0], shots=256, seed=900 + seed,
                )
                model, _ = estimation.estimate_model(ds)
                errors.append(np.abs(model.channel(0).rates - gt.rates).sum())
            mean_errors.append(np.mean(errors))
        assert mean_errors[0] >= mean_errors[1] >= mean_errors[2]


@pytest.fixture(scope="module")
def q02_fits():
    """The README example's device (n=5, iid q=0.02, readout 0.03) and the
    (model, diagnostics) of input 0, K=50, 1024 shots, trained on depths
    1..30, for seeds 1-40."""
    gt = simulator.iid_bitflip(5, 0.02, readout=0.03)
    fits = [
        estimation.estimate_model(
            simulator.generate_dataset(gt, range(1, 31), 50, inputs=[0], shots=1024, seed=seed)
        )
        for seed in range(1, 41)
    ]
    return gt, fits


class TestFittedSpectrum:
    """The model keeps the decay fit's spectrum: its rates are W^-1 of the
    fitted eigenvalues, with no projection onto the simplex, which on this
    device put a weight-1 bias of about -2.3e-3 into every prediction."""

    def test_rates_are_the_inverse_transform_of_the_fit(self, q02_fits):
        _, fits = q02_fits
        model, diagnostics = fits[0]
        fitted = diagnostics[0].eigenvalues
        assert model.rates[0].tobytes() == fwht_inverse(fitted).tobytes()
        assert model.rates.min() < 0.0  # a projection would have clipped these
        np.testing.assert_allclose(model.eigenvalues[0], fitted, rtol=0, atol=1e-15)

    def test_gate_error_matrix_takes_the_fitted_rates(self, q02_fits):
        # seed 1's rates hold negative entries, and the dense matrix is
        # still diagonal in the Walsh basis, with the model's spectrum
        _, fits = q02_fits
        model, _ = fits[0]
        rates = model.rates[0]
        assert rates.min() < 0.0
        got = channel.gate_error_matrix(rates)
        index = np.arange(rates.size)
        assert got.tobytes() == rates[index[:, None] ^ index[None, :]].tobytes()
        walsh = dense_wht_matrix(model.n)
        np.testing.assert_allclose(
            walsh @ got @ walsh / rates.size, np.diag(model.eigenvalues[0]), rtol=0, atol=1e-12
        )

    def test_weight_one_eigenvalues_are_unbiased(self, q02_fits):
        gt, fits = q02_fits
        weight_one = [1 << qubit for qubit in range(gt.n)]
        truth = fwht(gt.rates)[weight_one]
        errors = np.array([(model.eigenvalues[0, weight_one] - truth).mean() for model, _ in fits])
        se = errors.std(ddof=1) / np.sqrt(errors.size)
        assert abs(errors.mean()) < 3.0 * se

    @pytest.mark.parametrize("depth", [10, 40])
    def test_held_out_predictions_are_close_to_the_truth(self, q02_fits, depth):
        gt, fits = q02_fits
        truth = simulator.exact_distributions(gt, depth, [0])[0]
        distances = [
            0.5 * np.abs(channel.predict_distribution(model, depth, 0) - truth).sum()
            for model, _ in fits[:20]
        ]
        # the projected model read 1.9e-2 at m=10 and 1.6e-2 at m=40
        assert np.mean(distances) < 6e-3

    def test_model_file_round_trip_is_bit_identical(self, q02_fits, tmp_path):
        model, _ = q02_fits[1][0]
        channel.write_model(tmp_path / "model.json", model)
        back, _ = channel.read_model(tmp_path / "model.json")
        assert back.rates.tobytes() == model.rates.tobytes()
        assert back.eigenvalues.tobytes() == model.eigenvalues.tobytes()
        for depth in (0, 10, 40):
            got = channel.predict_distribution(back, depth, 0)
            assert got.tobytes() == channel.predict_distribution(model, depth, 0).tobytes()


def noisy_rb_series(seed, alpha, amplitude, offset, noise, depths):
    """amplitude * alpha**m + offset plus Gaussian noise, drawn as c10 draws it."""
    rng = np.random.default_rng(seed)
    return {m: amplitude * alpha**m + offset + rng.normal(0.0, noise) for m in depths}


class TestRb:
    def test_constant_series_is_degenerate(self):
        series = {m: 0.5 for m in range(1, 6)}
        result = estimation.rb_fit(series, n=1)
        assert result.degenerate
        assert result.alpha == 1.0
        assert result.gate_error == 0.0

    def test_exact_decay_recovered(self):
        series = {m: 0.5 * 0.9**m + 0.5 for m in range(1, 31)}
        result = estimation.rb_fit(series, n=1)
        assert result.alpha == pytest.approx(0.9, abs=1e-6)
        assert result.amplitude == pytest.approx(0.5, abs=1e-6)
        assert result.offset == pytest.approx(0.5, abs=1e-6)
        # r = (2 - 1)(1 - 0.9)/2
        assert result.gate_error == pytest.approx(0.05, abs=1e-6)

    def test_noisy_decay_recovered(self):
        rng = np.random.default_rng(77)
        series = {
            m: 0.5 * 0.98**m + 0.5 + rng.normal(0, 0.001) for m in range(1, 101)
        }
        result = estimation.rb_fit(series, n=2)
        assert result.alpha == pytest.approx(0.98, abs=1e-3)
        assert result.amplitude == pytest.approx(0.5, abs=0.01)
        assert result.offset == pytest.approx(0.5, abs=0.01)

    @pytest.mark.parametrize(
        "series, n",
        [
            (noisy_rb_series(1010, 0.98, 0.5, 0.5, 0.001, range(1, 101, 3)), 1),
            (noisy_rb_series(31, 0.95, 0.7, 0.25, 0.005, range(1, 41)), 2),
            (noisy_rb_series(32, 0.99, 0.8, 0.13, 0.01, range(0, 200, 7)), 3),
            (noisy_rb_series(33, 0.6, 0.4, 0.5, 0.02, range(1, 16)), 1),
            # alpha**m underflows to 0 on the low end of the alpha grid
            (noisy_rb_series(34, 0.99, 0.6, 0.3, 0.002, range(100, 300, 5)), 2),
        ],
        ids=["c10", "n2", "n3-slow", "n1-fast", "n2-deep"],
    )
    def test_fit_is_no_worse_than_curve_fit(self, series, n):
        pytest.importorskip("scipy")
        result = estimation.rb_fit(series, n)
        reference = rb_rss(series, *curve_fit_rb(series, n))
        fitted = rb_rss(series, result.amplitude, result.offset, result.alpha)
        assert fitted <= reference + 1e-12
        assert not result.degenerate
        assert 0.0 <= result.amplitude <= 1.5
        assert 0.0 <= result.offset <= 1.0
        assert 1e-6 <= result.alpha <= 1.0

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 4),
        alpha=st.floats(0.0, 1.0),
        amplitude=st.floats(0.0, 2.0),
        offset=st.floats(-0.2, 1.2),
        noise=st.sampled_from([0.0, 1e-3, 0.05]),
        seed=st.integers(0, 2**32 - 1),
        depths=st.lists(st.integers(0, 400), min_size=3, max_size=60, unique=True),
    )
    def test_blocked_grid_matches_the_one_pass_search(
        self, n, alpha, amplitude, offset, noise, seed, depths
    ):
        # the grid is scored a block of alphas at a time; every bit of the
        # result is the one a single pass over the grid gives
        series = noisy_rb_series(seed, alpha, amplitude, offset, noise, depths)
        assert astuple(estimation.rb_fit(series, n)) == astuple(one_pass_rb_fit(series, n))

    def test_parameters_stay_in_bounds(self):
        # the unbounded optimum has offset < 0 and amplitude > 1.5
        series = {m: 2.0 * 0.9**m - 0.3 for m in range(1, 21)}
        result = estimation.rb_fit(series, n=1)
        assert 0.0 <= result.amplitude <= 1.5
        assert 0.0 <= result.offset <= 1.0
        assert 1e-6 <= result.alpha <= 1.0
        pytest.importorskip("scipy")
        reference = rb_rss(series, *curve_fit_rb(series, 1))
        fitted = rb_rss(series, result.amplitude, result.offset, result.alpha)
        assert fitted <= reference + 1e-12

    def test_needs_three_depths(self):
        with pytest.raises(ValueError):
            estimation.rb_fit({1: 0.9, 2: 0.8}, n=1)

    def test_series_from_dataset(self):
        gt = simulator.iid_bitflip(1, 0.05)
        ds = simulator.generate_dataset(
            gt, depths=[1, 2, 3], circuits_per_depth=20, inputs=[0], shots=128, seed=5
        )
        series = estimation.rb_series_from_dataset(ds, input_index=0)
        assert sorted(series) == [1, 2, 3]
        for depth, value in series.items():
            expected = estimation.aggregate(ds, depth, 0).distribution[0]
            assert value == pytest.approx(expected)


class TestDiagnosticsCsv:
    def test_format(self, tmp_path):
        series = {m: np.array([1.0, 0.9 * 0.95**m]) for m in range(1, 11)}
        fit = fit_series(series)
        path = tmp_path / "diag.csv"
        estimation.write_diagnostics(path, {1: fit, 0: fit})
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "input,coefficient,A,lambda,points_used,residual"
        # by increasing input, then coefficient
        assert [line.split(",")[:2] for line in lines[1:]] == [
            ["0", "0"], ["0", "1"], ["1", "0"], ["1", "1"]
        ]
        fields = lines[4].split(",")
        assert float(fields[2]) == pytest.approx(0.9, abs=1e-9)
        assert float(fields[3]) == pytest.approx(0.95, abs=1e-9)
        assert int(fields[4]) == 10
