"""Synthetic-device tests: presets, exact distributions, sampling.

Dense oracles build the full tensor-product confusion and transition
matrices with np.kron and compare against the simulator's spectral and
per-qubit application paths.
"""

import concurrent.futures
from functools import reduce

import numpy as np
import pytest

from oracles import (
    dense_gate_matrix,
    dense_power_apply,
    dense_wht_matrix,
    depth_draws,
    depolarized_measurement,
    flip_order,
    per_input_exact_distribution,
    per_input_true_noise_model,
    popcount,
    traced_peak,
)
from qflip import channel, clifford, simulator
from qflip.errors import ConfigError, CoverageError


def kron_chain(mats):
    # mats[q] acts on qubit q (bit q); qubit n-1 owns the most significant bit
    return reduce(np.kron, list(mats)[::-1])


def basis_vector(size, index):
    out = np.zeros(size)
    out[index] = 1.0
    return out


def dense_device_distribution(gt, depth, input_index):
    state = basis_vector(gt.size, input_index)
    state = kron_chain(gt.prep_matrices()) @ state
    state = dense_power_apply(dense_gate_matrix(gt.rates_for(input_index)), depth, state)
    return kron_chain(gt.readout_matrices()) @ state


class TestPresets:
    def test_iid_bitflip_zero_is_noiseless(self):
        gt = simulator.iid_bitflip(3, 0.0)
        assert np.array_equal(gt.rates, basis_vector(8, 0))

    def test_iid_bitflip_tensor_product(self):
        gt = simulator.iid_bitflip(2, 0.1)
        np.testing.assert_allclose(gt.rates, [0.81, 0.09, 0.09, 0.01], atol=1e-15)

    def test_depolarizing_matches_density_matrix_oracle(self):
        alpha = 0.3
        gt = simulator.depolarizing(1, alpha)
        oracle = depolarized_measurement(np.array([1.0, 0.0]), alpha)
        np.testing.assert_allclose(
            simulator.exact_distribution(gt, 1, 0), oracle, atol=1e-12
        )
        # and per qubit on two qubits
        gt2 = simulator.depolarizing(2, alpha)
        expected = np.kron(oracle, oracle)
        np.testing.assert_allclose(
            simulator.exact_distribution(gt2, 1, 0), expected, atol=1e-12
        )

    def test_correlated_pair_excess_mass(self):
        gt = simulator.correlated_pair(2, 0.05, 0.02, 0, 1)
        independent = simulator.iid_bitflip(2, 0.05).rates
        expected = independent.copy()
        expected[3] += 0.02
        expected /= 1.02
        np.testing.assert_allclose(gt.rates, expected, atol=1e-15)
        excess = gt.rates[3] - independent[3]
        assert 0.019 < excess < 0.02
        assert abs(gt.rates.sum() - 1.0) < 1e-12

    def test_correlated_pair_picks_requested_qubits(self):
        gt = simulator.correlated_pair(3, 0.0, 0.1, 0, 2)
        assert gt.rates[0b101] == pytest.approx(0.1 / 1.1)

    def test_spam_only_has_no_gate_noise(self):
        gt = simulator.spam_only(2, 0.05)
        assert np.array_equal(gt.rates, basis_vector(4, 0))
        assert gt.readout == ((0.05, 0.05),) * 2

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            simulator.iid_bitflip(2, 0.5)
        with pytest.raises(ValueError):
            simulator.depolarizing(2, 1.5)
        with pytest.raises(ValueError):
            simulator.correlated_pair(2, 0.1, 0.1, 1, 1)
        with pytest.raises(ValueError):
            simulator.correlated_pair(2, 0.1, 0.1, 0, 5)
        with pytest.raises(ValueError, match=r"correlated mass must be in \[0, 1\), got 1.0"):
            simulator.correlated_pair(2, 0.1, 1.0)
        with pytest.raises(ValueError):
            simulator.spam_only(2, 0.7)

    def test_preset_dispatch(self):
        gt = simulator.build_preset("iid_bitflip", 2, q=0.1, readout=0.02)
        assert gt.readout == ((0.02, 0.02),) * 2
        with pytest.raises(ConfigError):
            simulator.build_preset("nope", 2)
        with pytest.raises(ConfigError):
            simulator.build_preset("iid_bitflip", 2, bogus=1)
        with pytest.raises(ConfigError):
            simulator.build_preset("iid_bitflip", 2, q=0.9)

    def test_profile_round_trip(self):
        payload = {"preset": "iid_bitflip", "n": 2, "seed": 7, "params": {"q": 0.1}}
        gt, seed = simulator.ground_truth_from_profile(payload)
        assert seed == 7
        np.testing.assert_allclose(gt.rates, simulator.iid_bitflip(2, 0.1).rates)
        with pytest.raises(ConfigError):
            simulator.ground_truth_from_profile({"n": 2})
        with pytest.raises(ConfigError, match=r"params must be an object, got \[0.1\]"):
            simulator.ground_truth_from_profile({"preset": "iid_bitflip", "n": 2, "params": [0.1]})


class TestGroundTruth:
    def test_readout_argument_forms(self):
        scalar = simulator.GroundTruth(n=2, rates=[1.0, 0, 0, 0], readout=0.02)
        assert scalar.readout == ((0.02, 0.02), (0.02, 0.02))
        mixed = simulator.GroundTruth(
            n=2, rates=[1.0, 0, 0, 0], readout=[0.01, (0.02, 0.03)], prep=[0.0, 0.01]
        )
        assert mixed.readout == ((0.01, 0.01), (0.02, 0.03))
        assert mixed.prep == (0.0, 0.01)

    def test_rejects_bad_spam_ranges(self):
        with pytest.raises(ValueError):
            simulator.GroundTruth(n=1, rates=[1.0, 0.0], readout=0.5)
        with pytest.raises(ValueError):
            simulator.GroundTruth(n=1, rates=[1.0, 0.0], prep=-0.1)
        with pytest.raises(ValueError):
            simulator.GroundTruth(n=2, rates=[1.0, 0.0], readout=0.1)
        with pytest.raises(ValueError, match="expected 2 readout entries, got 3"):
            simulator.GroundTruth(n=2, rates=[1.0, 0, 0, 0], readout=[0.01, 0.02, 0.03])

    def test_per_input_rate_overrides(self):
        gt = simulator.GroundTruth(
            n=1, rates=[0.9, 0.1], rates_by_input={1: [0.8, 0.2]}
        )
        assert np.array_equal(gt.rates_for(0), [0.9, 0.1])
        assert np.array_equal(gt.rates_for(1), [0.8, 0.2])

    def test_spectral_spam_single_qubit(self):
        gt = simulator.GroundTruth(n=1, rates=[1.0, 0.0], readout=0.05, prep=0.01)
        expected = (1.0 - 0.1) * (1.0 - 0.02)
        np.testing.assert_allclose(gt.spectral_spam(), [1.0, expected], atol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_spectral_spam_matches_walsh_diagonal(self, n):
        rng = np.random.default_rng(60 + n)
        readout = [(e, e) for e in rng.uniform(0.0, 0.1, n)]
        prep = rng.uniform(0.0, 0.05, n)
        gt = simulator.GroundTruth(
            n=n, rates=basis_vector(1 << n, 0), readout=readout, prep=prep
        )
        confusion = kron_chain(gt.readout_matrices()) @ kron_chain(gt.prep_matrices())
        walsh = dense_wht_matrix(n)
        conjugated = walsh @ confusion @ walsh / (1 << n)
        # symmetric per-qubit confusion: exactly Walsh-diagonal
        off = conjugated - np.diag(np.diag(conjugated))
        assert np.abs(off).max() < 1e-12
        np.testing.assert_allclose(gt.spectral_spam(), np.diag(conjugated), atol=1e-12)

    def test_spectral_spam_is_diagonal_part_when_asymmetric(self):
        gt = simulator.GroundTruth(n=1, rates=[1.0, 0.0], readout=[(0.04, 0.01)])
        confusion = gt.readout_matrices()[0]
        walsh = dense_wht_matrix(1)
        conjugated = walsh @ confusion @ walsh / 2
        np.testing.assert_allclose(gt.spectral_spam(), np.diag(conjugated), atol=1e-15)
        # the dropped off-diagonal term is the e01 - e10 asymmetry
        assert conjugated[1, 0] == pytest.approx(0.01 - 0.04)


class TestExactDistribution:
    def test_noiseless_device(self):
        gt = simulator.iid_bitflip(2, 0.0)
        for index in range(4):
            for depth in (0, 1, 9):
                got = simulator.exact_distribution(gt, depth, index)
                assert np.array_equal(got, basis_vector(4, index))

    def test_single_qubit_single_layer(self):
        gt = simulator.iid_bitflip(1, 0.1)
        np.testing.assert_allclose(simulator.exact_distribution(gt, 1, 0), [0.9, 0.1], atol=1e-12)
        np.testing.assert_allclose(simulator.exact_distribution(gt, 1, 1), [0.1, 0.9], atol=1e-12)

    @pytest.mark.parametrize("depth", [0, 1, 5])
    def test_matches_dense_oracle_with_full_spam(self, depth):
        gt = simulator.GroundTruth(
            n=2,
            rates=simulator.correlated_pair(2, 0.03, 0.01).rates,
            readout=[(0.02, 0.05), (0.04, 0.01)],
            prep=[0.01, 0.02],
        )
        for index in range(4):
            got = simulator.exact_distribution(gt, depth, index)
            oracle = dense_device_distribution(gt, depth, index)
            np.testing.assert_allclose(got, oracle, atol=1e-12)
            assert got.min() >= 0.0
            assert abs(got.sum() - 1.0) < 1e-12

    def test_spam_only_is_depth_independent(self):
        gt = simulator.spam_only(2, 0.06, prep=0.01)
        base = simulator.exact_distribution(gt, 0, 2)
        for depth in (1, 7, 50):
            np.testing.assert_allclose(
                simulator.exact_distribution(gt, depth, 2), base, atol=1e-15
            )

    def test_matches_true_noise_model_predictions(self):
        # symmetric readout: the device sits exactly in the model class
        gt = simulator.iid_bitflip(3, 0.02, readout=0.03, prep=0.01)
        model = simulator.true_noise_model(gt)
        for depth in (0, 1, 10, 80):
            for index in (0, 3, 7):
                np.testing.assert_allclose(
                    simulator.exact_distribution(gt, depth, index),
                    channel.predict_distribution(model, depth, index),
                    atol=1e-12,
                )

    def test_argument_validation(self):
        gt = simulator.iid_bitflip(1, 0.1)
        with pytest.raises(ValueError):
            simulator.exact_distribution(gt, -1, 0)
        with pytest.raises(ValueError):
            simulator.exact_distribution(gt, 1, 2)


class TestExactDistributions:
    READOUT = [(0.02, 0.05), (0.04, 0.01), (0.0, 0.03), (0.01, 0.0)]
    PREP = [0.01, 0.0, 0.02, 0.005]
    PARAMS = {
        "iid_bitflip": dict(q=0.03),
        "depolarizing": dict(alpha=0.05),
        "correlated_pair": dict(q=0.02, q_corr=0.01),
        "spam_only": dict(),
    }

    def ground_truth(self, preset, n):
        readout, prep = self.READOUT[:n], self.PREP[:n]
        if preset == "spam_only":
            return simulator.spam_only(n, readout, prep=prep)
        return simulator.build_preset(preset, n, readout=readout, prep=prep, **self.PARAMS[preset])

    @pytest.mark.parametrize(
        "preset,n",
        [(preset, n) for preset in sorted(PARAMS) for n in (1, 2, 4)
         if (preset, n) != ("correlated_pair", 1)],
    )
    def test_rows_equal_per_input_oracle(self, preset, n):
        base = self.ground_truth(preset, n)
        rng = np.random.default_rng(n)
        overridden = simulator.GroundTruth(
            n=n, rates=base.rates, readout=base.readout, prep=base.prep,
            rates_by_input={(1 << n) - 1: rng.dirichlet(np.ones(1 << n))},
        )
        inputs = list(range(1 << n))[::-1]
        for gt in (base, overridden):
            for depth in range(31):
                rows = simulator.exact_distributions(gt, depth, inputs)
                assert rows.shape == (len(inputs), 1 << n)
                for index, row in zip(inputs, rows):
                    assert np.array_equal(row, per_input_exact_distribution(gt, depth, index))
                    assert np.array_equal(simulator.exact_distribution(gt, depth, index), row)

    @pytest.mark.parametrize(
        "preset,n",
        [(preset, n) for preset in sorted(PARAMS) for n in (1, 2, 4)
         if (preset, n) != ("correlated_pair", 1)],
    )
    def test_true_noise_model_equals_per_input_build(self, preset, n):
        base = self.ground_truth(preset, n)
        rng = np.random.default_rng(n)
        overridden = simulator.GroundTruth(
            n=n, rates=base.rates, readout=base.readout, prep=base.prep,
            rates_by_input={0: rng.dirichlet(np.ones(1 << n))},
        )
        for gt in (base, overridden):
            got, expected = simulator.true_noise_model(gt), per_input_true_noise_model(gt)
            assert got.n == expected.n
            for name in ("inputs", "rates", "spam"):
                assert getattr(got, name).tobytes() == getattr(expected, name).tobytes()

    def test_argument_validation(self):
        gt = simulator.iid_bitflip(2, 0.1)
        with pytest.raises(ValueError):
            simulator.exact_distributions(gt, -1, [0])
        with pytest.raises(ValueError):
            simulator.exact_distributions(gt, 1, [0, 4])


class TestGenerateDataset:
    def test_single_record(self):
        gt = simulator.iid_bitflip(1, 0.1)
        ds = simulator.generate_dataset(gt, depths=[1], circuits_per_depth=1, inputs=[0], shots=16, seed=5)
        assert len(ds) == 1
        record = ds.records[0]
        assert (record.depth, record.input_index, record.sequence_id, record.shots) == (1, 0, 0, 16)

    def test_record_counting_and_grouping(self):
        gt = simulator.iid_bitflip(2, 0.05)
        ds = simulator.generate_dataset(
            gt, depths=[1, 3, 7], circuits_per_depth=4, inputs=[0, 3], shots=32, seed=9
        )
        assert len(ds) == 3 * 4 * 2
        assert ds.depths() == [1, 3, 7]
        assert ds.input_indices() == [0, 3]
        assert len(ds.distributions(3, [0])) == 4
        cell = [r.sequence_id for r in ds.records if (r.depth, r.input_index) == (3, 0)]
        assert cell == [0, 1, 2, 3]
        assert all(sum(r.counts.values()) == 32 for r in ds.records)

    def test_same_seed_is_byte_identical(self, tmp_path):
        gt = simulator.iid_bitflip(2, 0.05, readout=0.02)
        kwargs = dict(depths=[1, 4], circuits_per_depth=3, inputs=[0, 1], shots=64)
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        simulator.generate_dataset(gt, seed=123, **kwargs).write_jsonl(first)
        simulator.generate_dataset(gt, seed=123, **kwargs).write_jsonl(second)
        assert first.read_bytes() == second.read_bytes()
        third = tmp_path / "c.jsonl"
        simulator.generate_dataset(gt, seed=124, **kwargs).write_jsonl(third)
        assert first.read_bytes() != third.read_bytes()

    def test_workers_match_serial(self, tmp_path):
        gt = simulator.iid_bitflip(2, 0.05)
        kwargs = dict(depths=[1, 2, 5], circuits_per_depth=3, inputs=[0], shots=32, seed=7)
        serial = simulator.generate_dataset(gt, **kwargs)
        parallel = simulator.generate_dataset(gt, workers=2, **kwargs)
        # the process pool returns the same compact columns
        for column in ("depth", "input", "seq", "shots", "starts", "outcome", "count"):
            ours, theirs = getattr(serial, column), getattr(parallel, column)
            assert ours.dtype == theirs.dtype
            np.testing.assert_array_equal(ours, theirs)
        assert (parallel.outcome.dtype, parallel.count.dtype) == (np.int16, np.int8)
        serial.write_jsonl(tmp_path / "serial.jsonl")
        parallel.write_jsonl(tmp_path / "parallel.jsonl")
        assert (tmp_path / "serial.jsonl").read_bytes() == (tmp_path / "parallel.jsonl").read_bytes()

    def test_generation_peak_is_bounded_by_the_entries(self):
        gt = simulator.iid_bitflip(7, 0.05, readout=0.02)
        kwargs = dict(depths=range(6), circuits_per_depth=2, inputs=range(128), shots=1024, seed=3)
        # a first call makes one-time allocations (imports, caches)
        simulator.generate_dataset(gt, depths=[0], circuits_per_depth=1, inputs=[0])
        ds, peak = traced_peak(lambda: simulator.generate_dataset(gt, **kwargs))
        entries = len(ds.count)
        assert entries > 50_000
        # 4 bytes stored per entry, a second copy while the depths are
        # joined, and one depth's dense block and index; three int64
        # columns held twice would be 48
        assert peak < 16 * entries

    def test_depth_streams_do_not_depend_on_depth_list(self):
        gt = simulator.iid_bitflip(1, 0.1)
        joint = simulator.generate_dataset(gt, depths=[2, 6], circuits_per_depth=2, inputs=[0], shots=32, seed=3)
        alone = simulator.generate_dataset(gt, depths=[6], circuits_per_depth=2, inputs=[0], shots=32, seed=3)
        joint_counts = [r.counts for r in joint.records if r.depth == 6]
        alone_counts = [r.counts for r in alone.records]
        assert joint_counts == alone_counts

    def test_empirical_mean_envelope(self):
        # mean of many records stays within 4 sigma of the exact distribution
        gt = simulator.iid_bitflip(1, 0.1, readout=0.03)
        circuits = 1000
        shots = 64
        ds = simulator.generate_dataset(
            gt, depths=[1], circuits_per_depth=circuits, inputs=[0], shots=shots, seed=11
        )
        exact = simulator.exact_distribution(gt, 1, 0)
        totals = np.zeros(2)
        for record in ds.records:
            for outcome, count in record.counts.items():
                totals[outcome] += count
        mean = totals / (circuits * shots)
        envelope = 4 * np.sqrt(exact * (1 - exact) / (circuits * shots))
        assert np.all(np.abs(mean - exact) <= envelope)

    def test_counts_follow_the_exact_law(self):
        # 4,000 circuits over every input of an n=3 device with prep and
        # asymmetric readout: each of the 64 (input, outcome) mean counts
        # stays within 4.5 standard errors of shots * p, a bound a correct
        # sampler breaks with probability below 64 * 6.8e-6 = 4.4e-4
        gt = simulator.iid_bitflip(3, 0.03, readout=[(0.02, 0.05), (0.04, 0.01), 0.03], prep=0.01)
        circuits, shots, depth = 4000, 64, 3
        ds = simulator.generate_dataset(
            gt, [depth], circuits, inputs=range(8), shots=shots, seed=21
        )
        exact = simulator.exact_distributions(gt, depth, range(8))
        mean = ds.cell_means([depth], range(8))[:, 0] * shots
        sigma = np.sqrt(shots * exact * (1 - exact) / circuits)
        assert np.all(exact > 0)
        assert np.max(np.abs(mean - shots * exact) / sigma) < 4.5

    def test_counts_match_the_per_record_oracle(self):
        # at n=4 the flip order is not its own inverse, so a count put back
        # through the order instead of its inverse lands on a wrong outcome
        gt = simulator.iid_bitflip(4, 0.08, readout=[(0.02, 0.05), 0.01, 0.03, (0.04, 0.0)], prep=0.02)
        ds = simulator.generate_dataset(
            gt, depths=[0, 2], circuits_per_depth=3, inputs=[0, 5, 11], shots=256, seed=6
        )
        for depth in (0, 2):
            _, counts = depth_draws(gt, 6, depth, 3, [0, 5, 11], 256)
            assert [r.counts for r in ds.records if r.depth == depth] == counts
        # at n=7 a record's 128 counts are the widest rows the sampler
        # scans for its entries
        gt = simulator.iid_bitflip(7, 0.02, readout=0.01)
        inputs = [0, 1, 77, 127]
        ds = simulator.generate_dataset(
            gt, depths=[0, 3], circuits_per_depth=2, inputs=inputs, shots=1024, seed=9
        )
        for depth in (0, 3):
            _, counts = depth_draws(gt, 9, depth, 2, inputs, 1024)
            assert [r.counts for r in ds.records if r.depth == depth] == counts

    @pytest.mark.parametrize("n", range(1, 13))
    def test_flip_order_is_a_permutation_by_popcount(self, n):
        order = simulator._flip_order(n)
        assert sorted(order.tolist()) == list(range(1 << n))
        weights = [popcount(pattern) for pattern in order.tolist()]
        assert weights == sorted(weights)
        assert order.tolist() == flip_order(n)
        assert order.dtype == np.min_scalar_type((1 << n) - 1)
        assert not order.flags.writeable
        assert simulator._flip_order(n) is order

    def test_argument_validation(self, tmp_path):
        gt = simulator.iid_bitflip(1, 0.1)
        with pytest.raises(CoverageError, match="empty selection of depths"):
            simulator.generate_dataset(gt, depths=[], circuits_per_depth=1)
        with pytest.raises(CoverageError, match="empty selection of input states"):
            simulator.generate_dataset(gt, depths=[1], circuits_per_depth=1, inputs=[])
        # a repeated depth or input is the selection without the repeat
        repeated = simulator.generate_dataset(
            gt, depths=[1, 1], circuits_per_depth=2, inputs=[1, 0, 1], shots=8, seed=3
        )
        single = simulator.generate_dataset(
            gt, depths=[1], circuits_per_depth=2, inputs=[0, 1], shots=8, seed=3
        )
        repeated.write_jsonl(tmp_path / "repeated.jsonl")
        single.write_jsonl(tmp_path / "single.jsonl")
        assert (tmp_path / "repeated.jsonl").read_bytes() == (
            tmp_path / "single.jsonl"
        ).read_bytes()
        assert len(repeated) == 4
        with pytest.raises(ValueError):
            simulator.generate_dataset(gt, depths=[1], circuits_per_depth=0)
        with pytest.raises(ValueError):
            simulator.generate_dataset(gt, depths=[1], circuits_per_depth=1, inputs=[2])
        with pytest.raises(ValueError):
            simulator.generate_dataset(gt, depths=[1], circuits_per_depth=1, inputs=[0], shots=0)

    @pytest.mark.parametrize(
        "seed,message",
        [
            (None, "seed None is not an integer"),
            (True, "seed True is not an integer"),
            (1.5, "seed 1.5 is not an integer"),
            (-1, "seed must be one integer >= 0, got -1"),
            ([1, 2], "seed must be one integer >= 0, got [1, 2]"),
        ],
    )
    @pytest.mark.parametrize("entry", ["generate_dataset", "generate_circuits"])
    def test_seed_is_one_integer_at_least_zero(self, entry, seed, message, monkeypatch):
        # checked before any work: nothing is seeded or sampled
        def unreachable(*args, **kwargs):
            raise AssertionError("seeded before the seed was checked")

        monkeypatch.setattr(simulator, "_depth_rng", unreachable)
        monkeypatch.setattr(simulator, "exact_distributions", unreachable)
        with pytest.raises(ValueError) as caught:
            if entry == "generate_dataset":
                simulator.generate_dataset(simulator.iid_bitflip(1, 0.1), [1], 2, seed=seed)
            else:
                simulator.generate_circuits(1, [1], 2, seed=seed)
        assert str(caught.value) == message

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_are_rejected(self, workers, monkeypatch):
        # checked before any work, as circuits per depth and shots are
        def unreachable(*args, **kwargs):
            raise AssertionError("sampled before workers was checked")

        monkeypatch.setattr(simulator, "_depth_columns", unreachable)
        gt = simulator.iid_bitflip(1, 0.1)
        with pytest.raises(ValueError) as caught:
            simulator.generate_dataset(gt, [1, 2], 2, workers=workers)
        assert str(caught.value) == f"workers must be >= 1, got {workers}"

    def test_none_and_one_worker_run_serially(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", unreachable)
        gt = simulator.iid_bitflip(1, 0.1)
        kwargs = dict(depths=[1, 2], circuits_per_depth=2, shots=8, seed=4)
        default = simulator.generate_dataset(gt, **kwargs)
        for workers in (None, 1):
            ds = simulator.generate_dataset(gt, workers=workers, **kwargs)
            for column in ("depth", "input", "seq", "shots", "starts", "outcome", "count"):
                np.testing.assert_array_equal(getattr(ds, column), getattr(default, column))

    def test_a_pool_starts_no_more_workers_than_depths(self, monkeypatch):
        started = []

        class SerialPool:
            # a stand-in that records its size and starts no process
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        gt = simulator.iid_bitflip(1, 0.1)
        simulator.generate_dataset(gt, [1, 2, 3], 2, shots=8, workers=2**40)
        assert started == [3]

    def test_numpy_integer_and_wide_seeds_are_taken(self):
        gt = simulator.iid_bitflip(1, 0.1)
        for seed in (np.uint64(7), 2**100 + 7):
            ds = simulator.generate_dataset(gt, [1], 2, shots=8, seed=seed)
            _, counts = depth_draws(gt, int(seed), 1, 2, [0], 8)
            assert [record.counts for record in ds.records] == counts

    def test_each_depth_seeds_one_generator(self, monkeypatch):
        built = {"SeedSequence": 0, "PCG64": 0, "Generator": 0}

        def counted(name):
            cls = getattr(np.random, name)

            def build(*args, **kwargs):
                built[name] += 1
                return cls(*args, **kwargs)

            return build

        for name in built:
            monkeypatch.setattr(np.random, name, counted(name))
        gt = simulator.iid_bitflip(2, 0.05)
        simulator.generate_dataset(gt, [0, 1, 5], 50, inputs=[0, 3], shots=16, seed=3)
        assert built == {"SeedSequence": 3, "PCG64": 3, "Generator": 3}
        built.update(dict.fromkeys(built, 0))
        simulator.generate_circuits(2, [0, 1, 5], 50, seed=3)
        assert built == {"SeedSequence": 3, "PCG64": 3, "Generator": 3}

    def test_generated_circuits_are_identities(self):
        circuits = simulator.generate_circuits(2, depths=[0, 3], circuits_per_depth=2, seed=4)
        assert len(circuits) == 4
        assert circuits[0].depth == 0
        for circuit in circuits:
            for q in range(2):
                net = clifford.IDENTITY_ID
                for gate in circuit.qubit_sequence(q):
                    net = clifford.compose(gate, net)
                assert net == clifford.IDENTITY_ID
        # each depth's stream draws its circuits' gate ids, then every
        # record's counts, circuit by circuit and each in input order
        gt = simulator.iid_bitflip(2, 0.05, readout=0.02)
        ds = simulator.generate_dataset(
            gt, depths=[0, 3], circuits_per_depth=2, inputs=[0, 1], shots=32, seed=4
        )
        for depth, drawn in ((0, circuits[:2]), (3, circuits[2:])):
            ids, counts = depth_draws(gt, 4, depth, 2, [0, 1], 32)
            assert [circuit.layers for circuit in drawn] == [
                tuple(map(tuple, grid.tolist())) for grid in ids
            ]
            assert [r.counts for r in ds.records if r.depth == depth] == counts

    @pytest.mark.parametrize("entries", [1, 40, 1 << 30])
    def test_draws_do_not_depend_on_the_call_size(self, entries, monkeypatch, tmp_path):
        # one circuit per call, a few with a remainder, and one call per
        # draw; m * n is odd at depths 1 and 5, so calls split 64-bit words
        gt = simulator.iid_bitflip(3, 0.05, readout=0.02)
        kwargs = dict(depths=[0, 1, 5], circuits_per_depth=7, inputs=[0, 3, 6], shots=64, seed=9)
        simulator.generate_dataset(gt, **kwargs).write_jsonl(tmp_path / "default.jsonl")
        monkeypatch.setattr(simulator, "_DRAW_ENTRIES", entries)
        simulator.generate_dataset(gt, **kwargs).write_jsonl(tmp_path / "split.jsonl")
        assert (tmp_path / "split.jsonl").read_bytes() == (tmp_path / "default.jsonl").read_bytes()


class TestWideDrawCalls:
    # the wide-n7 benchmark's dataset: 31 depths x 10 circuits x 128 inputs
    WIDE = dict(depths=range(31), circuits_per_depth=10, inputs=range(128), shots=1024, seed=11)
    COLUMNS = ("depth", "input", "seq", "shots", "starts", "outcome", "count")

    @staticmethod
    def counted_draw(monkeypatch, entries):
        """The wide dataset drawn at _DRAW_ENTRIES = entries, and how many
        multinomial calls drew its counts."""
        calls = []

        class CountingGenerator(np.random.Generator):
            def multinomial(self, *args, **kwargs):
                calls.append(1)
                return super().multinomial(*args, **kwargs)

        monkeypatch.setattr(np.random, "Generator", CountingGenerator)
        monkeypatch.setattr(simulator, "_DRAW_ENTRIES", entries)
        gt = simulator.iid_bitflip(7, 0.002, readout=0.01)
        return simulator.generate_dataset(gt, **TestWideDrawCalls.WIDE), len(calls)

    def test_draw_split_changes_no_count_and_pins_the_calls(self, monkeypatch):
        default, calls = self.counted_draw(monkeypatch, simulator._DRAW_ENTRIES)
        # eight circuits of 128 x 128 entries per call: 8 + 2 per depth
        assert simulator._DRAW_ENTRIES == 1 << 17
        assert calls == 2 * 31
        # 2**14 entries are one circuit's counts over all 128 inputs, and
        # 1 entry still draws one whole circuit per call
        for entries in (1 << 14, 1):
            split, calls = self.counted_draw(monkeypatch, entries)
            assert calls == 10 * 31
            for name in self.COLUMNS:
                assert np.array_equal(getattr(split, name), getattr(default, name)), name
                assert getattr(split, name).dtype == getattr(default, name).dtype, name
