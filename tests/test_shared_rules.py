"""Rules written once and used at several entry points: each entry point
rejects a bad value with the same message, and the one implementation
gives the bits the former copies gave."""

import numpy as np
import pytest

from oracles import dataset_of, mask_loop_product, traced_peak
from qflip import channel, estimation, mitigation, simulator
from qflip.cli import main, parse_preset
from qflip.errors import ConfigError, CoverageError
from qflip.records import Dataset

QUBIT_COUNT_ENTRY_POINTS = {
    "Dataset": lambda n: Dataset(n, [], [], [], [], [], [], []),
    "NoiseModel": lambda n: channel.NoiseModel(n, {}),
    "NoiseModel with a channel": lambda n: channel.NoiseModel(
        n, {0: channel.InputChannel(rates=[1.0, 0.0], spam=[1.0, 1.0])}
    ),
    "GroundTruth": lambda n: simulator.GroundTruth(n=n, rates=[1.0, 0.0]),
}


@pytest.mark.parametrize("n", [0, 13])
@pytest.mark.parametrize("entry", [*QUBIT_COUNT_ENTRY_POINTS, "qflip simulate --n"])
def test_every_entry_point_rejects_a_qubit_count_alike(entry, n, tmp_path, capsys):
    message = f"qubit count must be in [1, 12], got {n}"
    if entry == "qflip simulate --n":
        code = main(["simulate", "--preset", "iid_bitflip:0.01", "--n", str(n),
                     "--depths", "1", "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    else:
        with pytest.raises(ValueError) as caught:
            QUBIT_COUNT_ENTRY_POINTS[entry](n)
        assert str(caught.value) == message


@pytest.mark.parametrize(
    "builder,params",
    [
        (simulator.iid_bitflip, (0.01,)),
        (simulator.depolarizing, (0.1,)),
        (simulator.correlated_pair, (0.01, 0.01)),
        (simulator.spam_only, (0.01,)),
    ],
)
def test_preset_builders_check_n_before_allocating(builder, params):
    def build():
        with pytest.raises(ValueError) as caught:
            builder(40, *params)
        return caught

    caught, peak = traced_peak(build)
    assert str(caught.value) == "qubit count must be in [1, 12], got 40"
    assert peak < 1 << 20


def test_preset_name_is_checked_by_one_lookup():
    with pytest.raises(ConfigError) as parsed:
        parse_preset("nope")
    with pytest.raises(ConfigError) as built:
        simulator.build_preset("nope", 2)
    assert str(parsed.value) == str(built.value)
    assert str(built.value) == (
        "unknown preset 'nope'; available: correlated_pair, depolarizing, "
        "iid_bitflip, spam_only"
    )


def test_missing_averages_are_named_as_missing_records():
    # cells present: every input at depth 1, only input 0 at depths 2..9
    cells = [(1, index) for index in range(4)] + [(depth, 0) for depth in range(2, 10)]
    dataset = dataset_of(2, [(depth, index, 0, 1, {index: 1}) for depth, index in cells])
    averages = [estimation.aggregate(dataset, depth, index) for depth, index in cells]
    depths, inputs = list(range(1, 10)), [0, 1, 2, 3]
    with pytest.raises(CoverageError) as records:
        dataset.require(depths, inputs)
    with pytest.raises(CoverageError) as fitted:
        estimation.estimate_model_from_averages(2, averages, train_depths=depths)
    shown = str(records.value).removeprefix("dataset is missing records for ")
    assert shown.startswith("(m=2, in=01), (m=3, in=01)")
    assert shown.endswith(", ... (24 total)")
    assert str(fitted.value) == f"no averages for {shown}"


# every input at depths 0 and 1, and the same records at depth 0 alone
CELLS = dataset_of(2, [(depth, index, 0, 4, {index: 4}) for depth in (0, 1) for index in range(4)])
DEPTH_0 = dataset_of(2, [(0, index, 0, 4, {index: 4}) for index in range(4)])
MODEL = channel.NoiseModel(
    2, {index: channel.InputChannel(rates=np.eye(4)[0], spam=np.ones(4)) for index in range(4)}
)
EMPTY_SELECTIONS = {
    "evaluate_mitigation inputs": (
        lambda: mitigation.evaluate_mitigation(
            CELLS, None, [1], inputs=[], methods=["unmitigated"]
        ),
        "input states",
    ),
    "evaluate_mitigation depths": (
        lambda: mitigation.evaluate_mitigation(CELLS, MODEL, [], methods=["proposed"]),
        "depths",
    ),
    "evaluate_mitigation on depth 0 alone": (
        lambda: mitigation.evaluate_mitigation(DEPTH_0, MODEL),
        "depths",
    ),
    "Dataset.distributions": (lambda: CELLS.distributions(1, []), "input states"),
    "Dataset.cell_means inputs": (lambda: CELLS.cell_means([1], []), "input states"),
    "Dataset.cell_means depths": (lambda: CELLS.cell_means([], [0]), "depths"),
    "Dataset.require": (lambda: DEPTH_0.require([0], []), "input states"),
    "estimate_model": (lambda: estimation.estimate_model(CELLS, inputs=[]), "input states"),
    "estimate_model_from_averages": (
        lambda: estimation.estimate_model_from_averages(2, [], train_depths=[1, 2]),
        "input states",
    ),
    "rb_series_from_dataset": (
        lambda: estimation.rb_series_from_dataset(CELLS, depths=[]), "depths"
    ),
    "predict_distribution": (lambda: channel.predict_distribution(MODEL, 1, []), "input states"),
    "NoiseModel.rows": (lambda: MODEL.rows(np.empty(0, int)), "input states"),
}


@pytest.mark.parametrize("entry", EMPTY_SELECTIONS)
def test_every_entry_point_rejects_an_empty_selection_alike(entry):
    call, what = EMPTY_SELECTIONS[entry]
    with pytest.raises(CoverageError) as caught:
        call()
    assert str(caught.value) == f"empty selection of {what}"


@pytest.mark.parametrize("n", range(1, 9))
def test_per_qubit_products_keep_the_mask_loop_bits(n):
    rng = np.random.default_rng(100 + n)
    readout = [tuple(pair) for pair in rng.uniform(0.0, 0.2, size=(n, 2))]
    prep = rng.uniform(0.0, 0.2, size=n)
    gt = simulator.GroundTruth(n=n, rates=np.eye(1 << n)[0], readout=readout, prep=prep)
    factors = [(1.0 - e01 - e10) * (1.0 - 2.0 * p) for (e01, e10), p in zip(readout, prep)]
    expected = mask_loop_product([(1.0, factor) for factor in factors])
    assert np.array_equal(gt.spectral_spam(), expected)

    q, alpha = rng.uniform(0.0, 0.1), rng.uniform(0.0, 0.2)
    flips = mask_loop_product([(1.0 - q, q)] * n)
    assert np.array_equal(simulator.iid_bitflip(n, q).rates, flips)
    assert np.array_equal(
        simulator.depolarizing(n, alpha).rates,
        mask_loop_product([(1.0 - alpha / 2.0, alpha / 2.0)] * n),
    )
    if n >= 2:
        paired = flips.copy()
        paired[0b11] += 0.03
        paired /= 1.03
        assert np.array_equal(simulator.correlated_pair(n, q, 0.03).rates, paired)
