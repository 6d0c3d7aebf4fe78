"""Rules written once and used at several entry points: each entry point
rejects a bad value with the same message, and the one implementation
gives the bits the former copies gave."""

import tracemalloc

import numpy as np
import pytest

from oracles import mask_loop_product
from qflip import channel, estimation, simulator
from qflip.cli import main, parse_preset
from qflip.errors import ConfigError, CoverageError
from qflip.records import CountsRecord, Dataset

QUBIT_COUNT_ENTRY_POINTS = {
    "Dataset.from_columns": lambda n: Dataset.from_columns(n, [], [], [], [], [], [], []),
    "NoiseModel": lambda n: channel.NoiseModel(n, {}),
    "NoiseModel.from_arrays": lambda n: channel.NoiseModel.from_arrays(
        n, [0], [[1.0, 0.0]], [[1.0, 1.0]]
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
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as caught:
            builder(40, *params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
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
    dataset = Dataset(
        2, [CountsRecord(depth, index, 0, 1, {index: 1}) for depth, index in cells]
    )
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
