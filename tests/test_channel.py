"""Channel algebra tests against dense-matrix oracles.

The spectral implementations (WHT + elementwise powers) are checked
against literal dense linear algebra: explicit Walsh matrices, repeated
matrix multiplication, and hand-computed 2x2 cases.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    dense_gate_matrix,
    dense_power_apply,
    dense_spam_matrix,
    dense_wht_matrix,
    per_column_mitigation_matrix,
)
from qflip import channel
from qflip.errors import CoverageError
from qflip.transforms import fwht, fwht_inverse, simplex_project


def random_rates(rng, n):
    raw = rng.uniform(0.0, 1.0, 1 << n)
    return raw / raw.sum()


def random_channel(rng, n):
    spam = rng.uniform(0.3, 1.0, 1 << n)
    spam[0] = 1.0
    return channel.InputChannel(rates=random_rates(rng, n), spam=spam)


def random_model(rng, n):
    return channel.NoiseModel(
        n=n, channels={i: random_channel(rng, n) for i in range(1 << n)}
    )


def noiseless_model(n):
    size = 1 << n
    rates = np.zeros(size)
    rates[0] = 1.0
    chan = channel.InputChannel(rates=rates, spam=np.ones(size))
    return channel.NoiseModel(n=n, channels={i: chan for i in range(size)})


def basis_vector(size, index):
    out = np.zeros(size)
    out[index] = 1.0
    return out


class TestGateErrorMatrix:
    def test_no_error_channel_is_identity(self):
        rates = basis_vector(8, 0)
        assert np.array_equal(channel.gate_error_matrix(rates), np.eye(8))

    def test_single_qubit_by_hand(self):
        got = channel.gate_error_matrix([0.9, 0.1])
        assert np.array_equal(got, [[0.9, 0.1], [0.1, 0.9]])

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_dense_oracle(self, n):
        rng = np.random.default_rng(100 + n)
        rates = random_rates(rng, n)
        got = channel.gate_error_matrix(rates)
        assert np.array_equal(got, dense_gate_matrix(rates))
        assert np.array_equal(got, got.T)
        np.testing.assert_allclose(got.sum(axis=0), 1.0, rtol=0, atol=1e-12)

    def test_walsh_conjugation_is_diagonal(self):
        # (1/2^n) W T W must be diag(fwht(rates))
        rng = np.random.default_rng(7)
        rates = random_rates(rng, 3)
        walsh = dense_wht_matrix(3)
        conjugated = walsh @ channel.gate_error_matrix(rates) @ walsh / 8.0
        off_diagonal = conjugated - np.diag(np.diag(conjugated))
        assert np.abs(off_diagonal).max() < 1e-10
        np.testing.assert_allclose(np.diag(conjugated), fwht(rates), atol=1e-12)

    def test_rejects_non_distribution(self):
        with pytest.raises(ValueError):
            channel.gate_error_matrix([0.9, 0.2])


class TestEigenvalueMaps:
    def test_identity_channel_has_unit_spectrum(self):
        assert np.array_equal(
            channel.eigenvalues_from_rates(basis_vector(8, 0)), np.ones(8)
        )

    def test_uniform_rates_kill_all_coefficients(self):
        got = channel.eigenvalues_from_rates(np.full(4, 0.25))
        assert np.array_equal(got, [1.0, 0.0, 0.0, 0.0])

    def test_head_is_exactly_one(self):
        rng = np.random.default_rng(11)
        got = channel.eigenvalues_from_rates(random_rates(rng, 3))
        assert got[0] == 1.0

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_round_trip(self, n):
        rng = np.random.default_rng(200 + n)
        rates = random_rates(rng, n)
        spectrum = channel.eigenvalues_from_rates(rates)
        np.testing.assert_allclose(spectrum, dense_wht_matrix(n) @ rates, atol=1e-12)
        back = fwht_inverse(spectrum)
        np.testing.assert_allclose(back, rates, rtol=0, atol=1e-10)


class TestTransitionPower:
    def test_zero_depth_returns_copy(self):
        vec = np.array([0.3, 0.7])
        got = channel.apply_transition_power([0.9, 0.1], 0, vec)
        assert np.array_equal(got, vec)
        got[0] = -1.0
        assert vec[0] == 0.3

    def test_two_layers_by_hand(self):
        got = channel.apply_transition_power([0.9, 0.1], 2, [1.0, 0.0])
        np.testing.assert_allclose(got, [0.82, 0.18], rtol=0, atol=1e-12)
        oracle = dense_power_apply(dense_gate_matrix([0.9, 0.1]), 2, [1.0, 0.0])
        np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("depth", [1, 3, 10, 100])
    def test_matches_dense_powering(self, n, depth):
        rng = np.random.default_rng(300 + 17 * n + depth)
        rates = random_rates(rng, n)
        vec = rng.uniform(-1.0, 1.0, 1 << n)
        got = channel.apply_transition_power(rates, depth, vec)
        oracle = dense_power_apply(dense_gate_matrix(rates), depth, vec)
        np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("depth", [1, 2, 5, 20, 100])
    def test_spectrum_of_powered_channel(self, n, depth):
        # WHT of T^m e_0 equals the m-th elementwise power of WHT(rates),
        # for both the spectral route and dense matrix powering
        rng = np.random.default_rng(400 + 31 * n + depth)
        rates = random_rates(rng, n)
        expected = channel.eigenvalues_from_rates(rates) ** depth
        spectral = fwht(channel.apply_transition_power(rates, depth, basis_vector(1 << n, 0)))
        dense = fwht(dense_power_apply(dense_gate_matrix(rates), depth, basis_vector(1 << n, 0)))
        assert np.abs(spectral - expected).max() < 1e-9
        assert np.abs(dense - expected).max() < 1e-9

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            channel.apply_transition_power([0.9, 0.1], -1, [1.0, 0.0])
        with pytest.raises(ValueError):
            channel.apply_transition_power([0.9, 0.1], 2, [1.0, 0.0, 0.0, 0.0])


class TestSpamMatrix:
    def test_spam_free_is_identity(self):
        np.testing.assert_allclose(channel.spam_matrix(np.ones(4)), np.eye(4), atol=1e-12)

    def test_single_qubit_by_hand(self):
        got = channel.spam_matrix([1.0, 0.9])
        np.testing.assert_allclose(got, [[0.95, 0.05], [0.05, 0.95]], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_dense_oracle_and_column_sums(self, n):
        rng = np.random.default_rng(500 + n)
        spam = rng.uniform(0.2, 1.0, 1 << n)
        spam[0] = 1.0
        got = channel.spam_matrix(spam)
        np.testing.assert_allclose(got, dense_spam_matrix(spam), atol=1e-12)
        np.testing.assert_allclose(got.sum(axis=0), 1.0, rtol=0, atol=1e-12)

    def test_rejects_bad_head(self):
        with pytest.raises(ValueError):
            channel.spam_matrix([0.9, 0.9])


def one_input_model(rates, spam):
    return channel.NoiseModel(1, {0: channel.InputChannel(rates=rates, spam=spam)})


class TestModelTypes:
    def test_spam_head_snapped_to_one(self):
        model = one_input_model([0.9, 0.1], [1.0 + 5e-10, 0.8])
        assert model.channel(0).spam[0] == 1.0

    def test_arrays_are_read_only(self):
        chan = one_input_model([0.9, 0.1], [1.0, 0.8]).channel(0)
        with pytest.raises(ValueError):
            chan.rates[0] = 0.5
        with pytest.raises(ValueError):
            chan.spam[1] = 0.5

    def test_rejects_invalid_parameters(self):
        with pytest.raises(ValueError, match="distribution sums to 1.1"):
            one_input_model([0.9, 0.2], [1.0, 0.8])
        with pytest.raises(ValueError, match=r"spam\[0\] must be 1, got 0.7$"):
            one_input_model([0.9, 0.1], [0.7, 0.8])
        with pytest.raises(ValueError, match="channel for input 0 has length 4, expected 2"):
            one_input_model([0.9, 0.1], [1.0, 0.8, 0.8, 0.8])

    def test_model_validation(self):
        chan = channel.InputChannel(rates=[0.9, 0.1], spam=[1.0, 0.8])
        with pytest.raises(ValueError):
            channel.NoiseModel(n=1, channels={})
        with pytest.raises(ValueError):
            channel.NoiseModel(n=1, channels={2: chan})
        with pytest.raises(ValueError):
            channel.NoiseModel(n=2, channels={0: chan})
        with pytest.raises(ValueError):
            channel.NoiseModel(n=0, channels={0: chan})

    def test_missing_channel_raises_coverage_error(self):
        chan = channel.InputChannel(rates=[0.9, 0.1], spam=[1.0, 0.8])
        model = channel.NoiseModel(n=1, channels={0: chan})
        with pytest.raises(CoverageError):
            model.channel(1)


class TestRatesSpectrum:
    """A rates row is W^-1 of a gate spectrum: finite, summing to 1, with
    its spectrum in [-1, 1]. It may hold negative entries, as the rates of a
    fitted model do, and the model keeps that spectrum as its eigenvalues."""

    SPECTRUM = [1.0, 0.9, 0.9, 0.7]

    def signed_rates(self):
        rates = fwht_inverse(np.array(self.SPECTRUM))
        assert rates.min() < 0.0
        return rates

    def test_accepts_negative_entries_with_a_spectrum_in_range(self):
        rates = self.signed_rates()
        model = channel.NoiseModel(2, {0: channel.InputChannel(rates, np.ones(4))})
        assert model.rates[0].tobytes() == rates.tobytes()
        assert model.eigenvalues[0, 0] == 1.0
        np.testing.assert_allclose(model.eigenvalues[0], self.SPECTRUM, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_eigenvalues_are_the_spectra_of_the_rates(self, n):
        model = random_model(np.random.default_rng(60 + n), n)
        for model in (model, channel.pool_rates(model)):
            for rates, eigenvalues in zip(model.rates, model.eigenvalues):
                assert eigenvalues.tobytes() == channel.eigenvalues_from_rates(rates).tobytes()

    @pytest.mark.parametrize("depth", [1, 7])
    def test_transition_power_takes_signed_rates(self, depth):
        rates, vec = self.signed_rates(), np.array([0.1, 0.2, 0.3, 0.4])
        got = channel.apply_transition_power(rates, depth, vec)
        oracle = dense_power_apply(dense_gate_matrix(rates), depth, vec)
        np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-12)

    def test_rejects_a_spectrum_outside_the_unit_interval(self):
        with pytest.raises(ValueError) as caught:
            one_input_model([1.5, -0.5], [1.0, 0.8])
        assert str(caught.value) == "rates spectrum has entry 2.0 outside [-1, 1]"

    def test_model_file_with_negative_rates_loads(self, tmp_path):
        path = tmp_path / "model.json"
        payload = {"n": 2, "inputs": {"0": {"p": self.signed_rates().tolist(), "A": [1.0] * 4}}}
        path.write_text(json.dumps(payload))
        model, _ = channel.read_model(path)
        assert model.rates[0].tobytes() == self.signed_rates().tobytes()

    def test_reads_a_file_with_projected_rates(self, tmp_path):
        # rates projected onto the simplex, as earlier versions wrote them:
        # non-negative, with exact zeros where the projection clipped
        path = tmp_path / "model.json"
        entry = {"p": [0.96, 0.02, 0.02, 0.0], "A": [1.0, 0.94, 0.94, 0.8836]}
        path.write_text(json.dumps({"n": 2, "inputs": {"0": entry, "3": entry},
                                    "meta": {"seed": 5, "train_depths": [1, 2, 3]}}))
        model, meta = channel.read_model(path)
        assert meta == {"seed": 5, "train_depths": [1, 2, 3]}
        assert model.input_indices() == [0, 3]
        assert model.rates.tolist() == [entry["p"]] * 2
        np.testing.assert_allclose(model.eigenvalues[0], [1.0, 0.96, 0.96, 0.92], atol=1e-15)


class TestModelArrays:
    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_rows_match_channels(self, n, seed):
        rng = np.random.default_rng(seed)
        size = 1 << n
        inputs = sorted(rng.choice(size, size=rng.integers(1, size + 1), replace=False).tolist())
        channels = {index: random_channel(rng, n) for index in reversed(inputs)}
        model = channel.NoiseModel(n, channels)
        in_order = channel.NoiseModel(n, {index: channels[index] for index in inputs})
        assert model.input_indices() == inputs
        for row, index in enumerate(inputs):
            assert model.rates[row].tobytes() == channels[index].rates.tobytes()
            assert model.spam[row].tobytes() == channels[index].spam.tobytes()
            assert model.channel(index).rates.tobytes() == channels[index].rates.tobytes()
            assert model.channel(index).spam.tobytes() == channels[index].spam.tobytes()
        assert channel.model_to_json(in_order) == channel.model_to_json(model)
        batch = channel.predict_distribution(model, 7, inputs)
        for index, row in zip(inputs, batch):
            assert row.tobytes() == channel.predict_distribution(model, 7, index).tobytes()

    def test_arrays_and_views_are_read_only(self):
        model = random_model(np.random.default_rng(3), 2)
        for arr in (model.inputs, model.rates, model.eigenvalues, model.spam, *model.channel(1)):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_constructor_validation(self):
        first = channel.InputChannel(rates=[0.9, 0.1], spam=[1.0, 0.9])
        second = channel.InputChannel(rates=[0.8, 0.2], spam=[1.0, 0.8])
        with pytest.raises(ValueError, match="input index 2 out of range for n=1"):
            channel.NoiseModel(1, {0: first, 2: second})
        with pytest.raises(ValueError, match="channel for input 1 has length 3, expected 2"):
            channel.NoiseModel(1, {0: first, 1: second._replace(spam=[1.0, 0.8, 0.8])})
        with pytest.raises(ValueError, match="spam"):
            channel.NoiseModel(1, {0: first, 1: second._replace(spam=[0.5, 0.8])})
        with pytest.raises(ValueError, match="finite"):
            channel.NoiseModel(1, {0: first, 1: second._replace(spam=[1.0, np.nan])})
        with pytest.raises(ValueError, match="no input-state"):
            channel.NoiseModel(1, {})
        with pytest.raises(CoverageError, match="input state 1 "):
            channel.predict_distribution(channel.NoiseModel(1, {0: first}), 2, [0, 1])


class TestPredict:
    def test_single_layer_recovers_rates(self):
        rng = np.random.default_rng(21)
        rates = random_rates(rng, 2)
        chan = channel.InputChannel(rates=rates, spam=np.ones(4))
        model = channel.NoiseModel(n=2, channels={0: chan})
        np.testing.assert_allclose(
            channel.predict_distribution(model, 1, 0), rates, rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("depth", [0, 1, 5])
    def test_noiseless_model_preserves_inputs(self, depth):
        model = noiseless_model(2)
        for index in range(4):
            got = channel.predict_distribution(model, depth, index)
            assert np.array_equal(got, basis_vector(4, index))

    def test_two_layer_spam_example(self):
        chan = channel.InputChannel(rates=[0.9, 0.1], spam=[1.0, 0.9])
        model = channel.NoiseModel(n=1, channels={0: chan})
        got = channel.predict_distribution(model, 2, 0)
        # dense oracle: project(N @ T^2 @ e_0) with N = [[.95,.05],[.05,.95]]
        oracle = simplex_project(
            dense_spam_matrix([1.0, 0.9])
            @ dense_power_apply(dense_gate_matrix([0.9, 0.1]), 2, [1.0, 0.0])
        )
        np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got, [0.788, 0.212], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("depth", [0, 1, 7, 40])
    def test_matches_dense_oracle(self, n, depth):
        rng = np.random.default_rng(600 + 13 * n + depth)
        model = random_model(rng, n)
        size = 1 << n
        for index in range(size):
            chan = model.channel(index)
            got = channel.predict_distribution(model, depth, index)
            oracle = simplex_project(
                dense_spam_matrix(chan.spam)
                @ dense_power_apply(
                    dense_gate_matrix(chan.rates), depth, basis_vector(size, index)
                )
            )
            np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-9)
            assert got.min() >= 0.0
            assert abs(got.sum() - 1.0) < 1e-9


class TestMitigationMatrix:
    def test_noiseless_is_identity(self):
        model = noiseless_model(2)
        for depth in (0, 1, 10):
            built = channel.mitigation_matrix(model, depth)
            assert np.array_equal(built.matrix, np.eye(4))
            assert built.condition == pytest.approx(1.0)

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (0, 0), (2, 2, 2)])
    def test_rejects_a_matrix_that_is_not_square(self, shape):
        with pytest.raises(ValueError) as caught:
            channel.MitigationMatrix(0, np.full(shape, 0.5))
        assert str(caught.value) == (
            f"need a non-empty square mitigation matrix, got shape {shape}"
        )

    def test_single_qubit_no_spam(self):
        chan = channel.InputChannel(rates=[0.9, 0.1], spam=[1.0, 1.0])
        model = channel.NoiseModel(n=1, channels={0: chan, 1: chan})
        built = channel.mitigation_matrix(model, 1)
        np.testing.assert_allclose(built.matrix, [[0.9, 0.1], [0.1, 0.9]], atol=1e-12)

    def test_columns_are_distributions(self):
        rng = np.random.default_rng(33)
        model = random_model(rng, 3)
        built = channel.mitigation_matrix(model, 12)
        assert built.matrix.min() >= 0.0
        np.testing.assert_allclose(built.matrix.sum(axis=0), 1.0, rtol=0, atol=1e-9)
        assert built.condition == pytest.approx(np.linalg.cond(built.matrix, 1))

    def test_columns_are_predictions(self):
        rng = np.random.default_rng(34)
        model = random_model(rng, 2)
        built = channel.mitigation_matrix(model, 5)
        for index in range(4):
            np.testing.assert_allclose(
                built.matrix[:, index],
                channel.predict_distribution(model, 5, index),
                atol=1e-12,
            )

    def test_average_rates_variant(self):
        rng = np.random.default_rng(35)
        model = random_model(rng, 2)
        pooled = np.mean([model.channel(i).rates for i in range(4)], axis=0)
        built = channel.mitigation_matrix(channel.pool_rates(model), 6)
        for index in range(4):
            chan = model.channel(index)
            oracle = simplex_project(
                dense_spam_matrix(chan.spam)
                @ dense_power_apply(
                    dense_gate_matrix(pooled), 6, basis_vector(4, index)
                )
            )
            np.testing.assert_allclose(built.matrix[:, index], oracle, atol=1e-9)

    def test_average_variant_matches_when_rates_shared(self):
        rng = np.random.default_rng(36)
        rates = random_rates(rng, 2)
        channels = {}
        for index in range(4):
            spam = rng.uniform(0.5, 1.0, 4)
            spam[0] = 1.0
            channels[index] = channel.InputChannel(rates=rates, spam=spam)
        model = channel.NoiseModel(n=2, channels=channels)
        default = channel.mitigation_matrix(model, 9)
        pooled = channel.mitigation_matrix(channel.pool_rates(model), 9)
        np.testing.assert_allclose(default.matrix, pooled.matrix, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 6),
        depth=st.integers(0, 40),
        pooled=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bits_match_per_column_predictions(self, n, depth, pooled, seed):
        model = random_model(np.random.default_rng(seed), n)
        if pooled:
            model = channel.pool_rates(model)
        built = channel.mitigation_matrix(model, depth)
        oracle = per_column_mitigation_matrix(model, depth)
        assert built.matrix.flags.c_contiguous
        assert built.matrix.tobytes() == oracle.tobytes()

    def test_one_batched_prediction_per_call(self, monkeypatch):
        model = random_model(np.random.default_rng(37), 4)
        predict = channel._predict
        calls = []

        def counting_predict(*args):
            calls.append(args)
            return predict(*args)

        monkeypatch.setattr(channel, "_predict", counting_predict)
        channel.mitigation_matrix(model, 3)
        channel.mitigation_matrix(channel.pool_rates(model), 3)
        assert [len(args[3]) for args in calls] == [16, 16]

    def test_missing_input_raises(self):
        chan = channel.InputChannel(rates=[0.9, 0.1], spam=[1.0, 1.0])
        model = channel.NoiseModel(n=1, channels={0: chan})
        with pytest.raises(CoverageError):
            channel.mitigation_matrix(model, 1)


class TestPoolRates:
    def test_shared_rates_are_fixed_point(self):
        rng = np.random.default_rng(41)
        rates = random_rates(rng, 2)
        chan = channel.InputChannel(rates=rates, spam=np.ones(4))
        model = channel.NoiseModel(n=2, channels={i: chan for i in range(4)})
        np.testing.assert_allclose(channel.pool_rates(model).rates, model.rates, atol=1e-15)

    def test_two_input_mean_by_hand(self):
        first = channel.InputChannel(rates=[1.0, 0.0], spam=[1.0, 1.0])
        second = channel.InputChannel(rates=[0.8, 0.2], spam=[1.0, 0.6])
        model = channel.NoiseModel(n=1, channels={0: first, 1: second})
        pooled = channel.pool_rates(model)
        np.testing.assert_allclose(pooled.rates, [[0.9, 0.1], [0.9, 0.1]], atol=1e-15)
        assert pooled.spam.tolist() == [[1.0, 1.0], [1.0, 0.6]]

    def test_mean_stays_on_simplex_and_spam_is_kept(self):
        rng = np.random.default_rng(42)
        model = random_model(rng, 2)
        pooled = channel.pool_rates(model)
        stacked = np.stack([model.channel(i).rates for i in range(4)])
        assert pooled.input_indices() == model.input_indices()
        for index in range(4):
            got = pooled.channel(index)
            np.testing.assert_allclose(got.rates, stacked.mean(axis=0), atol=1e-15)
            assert abs(got.rates.sum() - 1.0) < 1e-12
            assert got.rates.min() >= 0.0
            assert got.spam.tobytes() == model.channel(index).spam.tobytes()

    def test_partial_model_averages_over_its_own_inputs(self):
        # a model of inputs 1, 2, 4 and 7 at n=3, as characterize --inputs 1,2,4,7 fits
        rng = np.random.default_rng(43)
        channels = {index: random_channel(rng, 3) for index in (1, 2, 4, 7)}
        model = channel.NoiseModel(n=3, channels=channels)
        pooled = channel.pool_rates(model)
        mean = np.mean([channels[i].rates for i in (1, 2, 4, 7)], axis=0)
        assert pooled.input_indices() == [1, 2, 4, 7]
        for row in pooled.rates:
            assert row.tobytes() == model.rates.mean(axis=0).tobytes()
            np.testing.assert_allclose(row, mean, atol=1e-15)
        with pytest.raises(CoverageError, match=r"input states 0 \(000\), 3 \(011\), 5 "):
            channel.mitigation_matrix(pooled, 2)


class TestSerialization:
    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(51)
        model = random_model(rng, 2)
        payload = json.loads(json.dumps(channel.model_to_json(model)))
        back = channel.model_from_json(payload)
        assert back.n == model.n
        assert back.input_indices() == model.input_indices()
        for index in model.input_indices():
            assert np.array_equal(back.channel(index).rates, model.channel(index).rates)
            assert np.array_equal(back.channel(index).spam, model.channel(index).spam)

    def test_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(52)
        model = random_model(rng, 3)
        path = tmp_path / "model.json"
        channel.write_model(path, model)
        back, meta = channel.read_model(path)
        assert meta == {}
        for index in model.input_indices():
            assert np.array_equal(back.channel(index).rates, model.channel(index).rates)

    def test_payload_shape(self):
        chan = channel.InputChannel(rates=[0.9, 0.1], spam=[1.0, 0.8])
        model = channel.NoiseModel(n=1, channels={0: chan})
        payload = channel.model_to_json(model)
        assert payload == {"n": 1, "inputs": {"0": {"p": [0.9, 0.1], "A": [1.0, 0.8]}}}

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"n": 1},
            {"n": 1, "inputs": {}},
            {"n": 1, "inputs": {"0": {"p": [0.9, 0.1]}}},
            {"n": "x", "inputs": {"0": {"p": [0.9, 0.1], "A": [1.0, 0.8]}}},
        ],
    )
    def test_rejects_malformed_payloads(self, payload):
        with pytest.raises(ValueError):
            channel.model_from_json(payload)
