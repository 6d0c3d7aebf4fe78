"""Rules written once and used at several entry points: each entry point
rejects a bad value with the same message, and the one implementation
gives the bits the former copies gave."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dataset_of, mask_loop_product, traced_peak
from qflip import channel, clifford, estimation, mitigation, simulator
from qflip.cli import main, parse_preset
from qflip.errors import ConfigError, CoverageError
from qflip.records import Dataset
from qflip.transforms import check_depths, check_qubit_count, integer_array

QUBIT_COUNT_ENTRY_POINTS = {
    "Dataset": lambda n: Dataset(n, [], [], [], [], [], [], []),
    "NoiseModel": lambda n: channel.NoiseModel(n, {}),
    "NoiseModel with a channel": lambda n: channel.NoiseModel(
        n, {0: channel.InputChannel(rates=[1.0, 0.0], spam=[1.0, 1.0])}
    ),
    "GroundTruth": lambda n: simulator.GroundTruth(n=n, rates=[1.0, 0.0]),
    "rb_fit": lambda n: estimation.rb_fit({1: 0.9, 2: 0.8, 3: 0.75}, n),
    "iid_bitflip": lambda n: simulator.iid_bitflip(n, 0.01),
    "check_qubit_count": check_qubit_count,
    "sample_identity_circuit": lambda n: clifford.sample_identity_circuit(
        n, 1, np.random.default_rng(0)
    ),
    "empty_circuit": clifford.empty_circuit,
    "generate_circuits": lambda n: simulator.generate_circuits(n, [0, 1], 1),
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
    "n,shown", [(2.0, "2.0"), (True, "True"), (np.float64(3.0), "3.0"), ("2", "'2'")]
)
@pytest.mark.parametrize("entry", QUBIT_COUNT_ENTRY_POINTS)
def test_every_entry_point_rejects_a_qubit_count_that_is_not_an_integer(entry, n, shown):
    with pytest.raises(ValueError) as caught:
        QUBIT_COUNT_ENTRY_POINTS[entry](n)
    assert str(caught.value) == f"qubit count {shown} is not an integer"


@pytest.mark.parametrize("n", [3, np.int64(3), np.uint8(3)])
def test_a_qubit_count_is_returned_as_a_python_int(n):
    assert type(check_qubit_count(n)) is int
    assert type(simulator.iid_bitflip(n, 0.01).n) is int
    assert type(Dataset(n, [], [], [], [], [], [], []).n) is int


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
    "generate_dataset depths": (
        lambda: simulator.generate_dataset(simulator.iid_bitflip(2, 0.01), [], 1), "depths"
    ),
    "generate_dataset inputs": (
        lambda: simulator.generate_dataset(simulator.iid_bitflip(2, 0.01), [1], 1, inputs=[]),
        "input states",
    ),
    "generate_circuits": (lambda: simulator.generate_circuits(2, [], 1), "depths"),
    "exact_distributions": (
        lambda: simulator.exact_distributions(simulator.iid_bitflip(2, 0.01), 1, []),
        "input states",
    ),
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


# every input at depths 0..3 from a device with readout and preparation
# flips, and the model fitted to it
DEVICE = simulator.iid_bitflip(2, 0.05, readout=[(0.02, 0.04), 0.03], prep=[0.01, 0.0])
DATA = simulator.generate_dataset(DEVICE, range(4), 3, inputs=range(4), shots=32, seed=5)
FITTED = estimation.estimate_model(DATA)[0]
AVERAGES = [estimation.aggregate(DATA, depth, index) for depth in range(4) for index in range(4)]

INDEX_ENTRY_POINTS = {
    "NoiseModel.rows": lambda index: FITTED.rows([0, index]),
    "predict_distribution": lambda index: channel.predict_distribution(FITTED, 1, index),
    "Dataset.distributions": lambda index: DATA.distributions(1, [index]),
    "Dataset.cell_means": lambda index: DATA.cell_means([1], [0, index]),
    "Dataset.circuits": lambda index: DATA.circuits(1, index),
    "estimate_model": lambda index: estimation.estimate_model(DATA, inputs=[index]),
    "rb_series_from_dataset": lambda index: estimation.rb_series_from_dataset(DATA, index),
    "evaluate_mitigation": lambda index: mitigation.evaluate_mitigation(
        DATA, FITTED, [1], inputs=[index]
    ),
    "generate_dataset": lambda index: simulator.generate_dataset(DEVICE, [1], 1, inputs=[index]),
    "exact_distributions": lambda index: simulator.exact_distributions(DEVICE, 1, [index]),
    "GroundTruth override": lambda index: simulator.GroundTruth(
        n=2, rates=DEVICE.rates, rates_by_input={index: DEVICE.rates}
    ),
}


@pytest.mark.parametrize(
    "value,shown", [(1.5, "1.5"), (True, "True"), ("1", "'1'"), (np.float64(1.0), "1.0")]
)
@pytest.mark.parametrize("entry", INDEX_ENTRY_POINTS)
def test_every_entry_point_rejects_a_basis_index_that_is_not_an_integer(entry, value, shown):
    what = "override input" if entry == "GroundTruth override" else "input index"
    with pytest.raises(ValueError) as caught:
        INDEX_ENTRY_POINTS[entry](value)
    assert str(caught.value) == f"{what} {shown} is not an integer"


DEPTH_ENTRY_POINTS = {
    "predict_distribution": lambda depth: channel.predict_distribution(FITTED, depth, 0),
    "mitigation_matrix": lambda depth: channel.mitigation_matrix(FITTED, depth),
    "apply_transition_power": lambda depth: channel.apply_transition_power(
        DEVICE.rates, depth, np.eye(4)[0]
    ),
    "Dataset.distributions": lambda depth: DATA.distributions(depth, [0]),
    "Dataset.cell_means": lambda depth: DATA.cell_means([1, depth], [0]),
    "Dataset.circuits": lambda depth: DATA.circuits(depth, 0),
    "estimate_model": lambda depth: estimation.estimate_model(DATA, train_depths=[1, depth]),
    "estimate_model_from_averages": lambda depth: estimation.estimate_model_from_averages(
        2, AVERAGES, train_depths=[1, depth]
    ),
    "rb_series_from_dataset": lambda depth: estimation.rb_series_from_dataset(
        DATA, depths=[depth]
    ),
    "evaluate_mitigation": lambda depth: mitigation.evaluate_mitigation(DATA, FITTED, [depth]),
    "exact_distributions": lambda depth: simulator.exact_distributions(DEVICE, depth, [0]),
    "generate_dataset": lambda depth: simulator.generate_dataset(DEVICE, [1, depth], 1),
    "generate_circuits": lambda depth: simulator.generate_circuits(2, [depth], 1),
    # keys that True (== 1) and 2.0 (== 2) do not collide with
    "fit_decay": lambda depth: estimation.fit_decay(np.ones((3, 2)), [3, 4, depth]),
    "rb_fit": lambda depth: estimation.rb_fit({3: 0.9, 4: 0.8, depth: 0.7}, 1),
}


@pytest.mark.parametrize(
    "value,message",
    [
        (2.5, "depth 2.5 is not an integer"),
        (True, "depth True is not an integer"),
        ("1", "depth '1' is not an integer"),
        (np.float64(2.0), "depth 2.0 is not an integer"),
        (-1, "depth must be >= 0, got -1"),
        (2**63, f"depth must be below 2**63, got {2**63}"),
        (2**70, f"depth must be below 2**63, got {2**70}"),
        (np.uint64(2**63), f"depth must be below 2**63, got {2**63}"),
    ],
)
@pytest.mark.parametrize("entry", DEPTH_ENTRY_POINTS)
def test_every_entry_point_rejects_a_depth_alike(entry, value, message):
    with pytest.raises(ValueError) as caught:
        DEPTH_ENTRY_POINTS[entry](value)
    assert str(caught.value) == message


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_rb_fit_rejects_a_value_that_is_not_finite(value):
    with pytest.raises(ValueError) as caught:
        estimation.rb_fit({1: 0.9, 2: value, 3: 0.8}, 1)
    assert str(caught.value) == f"value at depth 2 is not finite, got {value}"


def _model_bits(model):
    return model.inputs.tolist(), model.rates.tobytes(), model.spam.tobytes()


def _dataset_bits(dataset):
    columns = ("depth", "input", "seq", "shots", "outcome", "count", "starts")
    return [getattr(dataset, name).tobytes() for name in columns]


# each call takes (depths, inputs); the entry points without an inputs
# argument ignore it
SELECTIONS = {
    "estimate_model": lambda depths, inputs: _model_bits(
        estimation.estimate_model(DATA, inputs=inputs, train_depths=depths)[0]
    ),
    "estimate_model_from_averages": lambda depths, inputs: _model_bits(
        estimation.estimate_model_from_averages(2, AVERAGES, train_depths=depths)[0]
    ),
    "rb_series_from_dataset": lambda depths, inputs: estimation.rb_series_from_dataset(
        DATA, depths=depths
    ),
    "evaluate_mitigation": lambda depths, inputs: mitigation.evaluate_mitigation(
        DATA, FITTED, depths, inputs=inputs
    ).rows,
    "generate_dataset": lambda depths, inputs: _dataset_bits(
        simulator.generate_dataset(DEVICE, depths, 2, inputs=inputs, shots=16, seed=3)
    ),
    "generate_circuits": lambda depths, inputs: simulator.generate_circuits(2, depths, 2),
}


@pytest.mark.parametrize("entry", SELECTIONS)
def test_every_selection_is_its_sorted_distinct_values(entry):
    call = SELECTIONS[entry]
    assert call([3, 1, 3, 2], [3, 0, 3, 1]) == call([1, 2, 3], [0, 1, 3])
    assert call(np.array([2, 1, 2]), (1, 1)) == call([1, 2], [1])
    assert call({3, 2}, (index for index in [3, 1])) == call(range(2, 4), [1, 3])


BATCHES = {
    "NoiseModel.rows": lambda inputs: FITTED.rows(inputs),
    "predict_distribution": lambda inputs: channel.predict_distribution(FITTED, 2, inputs),
    "Dataset.distributions": lambda inputs: DATA.distributions(2, inputs),
    "Dataset.cell_means": lambda inputs: DATA.cell_means([2, 1, 2], inputs),
    "exact_distributions": lambda inputs: simulator.exact_distributions(DEVICE, 2, inputs),
}


@pytest.mark.parametrize("entry", BATCHES)
def test_every_batch_keeps_its_order_and_repeats(entry):
    call = BATCHES[entry]
    batch = call([3, 0, 3, 1])
    alone = [call([index]) for index in (3, 0, 3, 1)]
    assert np.array_equal(batch, np.concatenate(alone))


RATES_0 = np.eye(4)[0]
PROBABILITIES = {
    "iid_bitflip q": (lambda p: simulator.iid_bitflip(2, p), "flip probability"),
    "correlated_pair q": (lambda p: simulator.correlated_pair(2, p, 0.01), "flip probability"),
    "readout": (
        lambda p: simulator.GroundTruth(n=2, rates=RATES_0, readout=p), "readout probability"
    ),
    "readout pair": (
        lambda p: simulator.GroundTruth(n=2, rates=RATES_0, readout=[0.0, (0.01, p)]),
        "readout probability",
    ),
    "spam_only epsilon": (lambda p: simulator.spam_only(2, p), "readout probability"),
    "prep": (
        lambda p: simulator.GroundTruth(n=2, rates=RATES_0, prep=[p, 0.0]),
        "preparation probability",
    ),
}


@pytest.mark.parametrize("value", [0.5, -0.01, float("nan")])
@pytest.mark.parametrize("entry", PROBABILITIES)
def test_every_device_probability_is_checked_alike(entry, value):
    build, what = PROBABILITIES[entry]
    with pytest.raises(ValueError) as caught:
        build(value)
    assert str(caught.value) == f"{what} must be in [0, 0.5), got {value}"


@pytest.mark.parametrize("entry", [*SELECTIONS, "check_depths"])
def test_a_uint64_depth_array_past_int64_is_named_not_wrapped(entry):
    depths = np.array([1, 2**63], np.uint64)
    with pytest.raises(ValueError) as caught:
        check_depths(depths) if entry == "check_depths" else SELECTIONS[entry](depths, [0])
    assert str(caught.value) == f"depth must be below 2**63, got {2**63}"


# what each call names its size; the calls take one depth, so none can
# start a process pool
SIZE_ENTRY_POINTS = {
    "generate_dataset K": (
        lambda size: simulator.generate_dataset(DEVICE, [1], size), "circuits per depth"
    ),
    "generate_dataset shots": (
        lambda size: simulator.generate_dataset(DEVICE, [1], 1, shots=size), "shots"
    ),
    "generate_dataset workers": (
        lambda size: simulator.generate_dataset(DEVICE, [1], 1, workers=size), "workers"
    ),
    "generate_circuits K": (
        lambda size: simulator.generate_circuits(2, [1], size), "circuits per depth"
    ),
    "qflip simulate --K": ("--K", "circuits per depth"),
    "qflip simulate --shots": ("--shots", "shots"),
    "qflip simulate --workers": ("--workers", "workers"),
}
# a command-line option is read as an integer, so only the integers reach
# the commands
SIZES = [
    (1.5, "{what} 1.5 is not an integer"),
    (True, "{what} True is not an integer"),
    (np.float64(2.0), "{what} 2.0 is not an integer"),
    (2**63, f"{{what}} must be below 2**63, got {2**63}"),
    (2**70, f"{{what}} must be below 2**63, got {2**70}"),
]


@pytest.mark.parametrize(
    "entry,value,message",
    [
        (entry, value, message)
        for entry in SIZE_ENTRY_POINTS
        for value, message in SIZES
        if type(value) is int or not entry.startswith("qflip")
    ],
)
def test_every_entry_point_rejects_a_size_alike(entry, value, message, tmp_path, capsys):
    call, what = SIZE_ENTRY_POINTS[entry]
    message = message.format(what=what)
    if entry.startswith("qflip"):
        code = main(["simulate", "--preset", "iid_bitflip:0.01", "--n", "2", "--depths", "1",
                     call, str(value), "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not any(tmp_path.glob("*"))
    else:
        with pytest.raises(ValueError) as caught:
            call(value)
        assert str(caught.value) == message


@pytest.mark.parametrize("size", [0, -1])
def test_generate_circuits_rejects_a_count_below_one(size):
    with pytest.raises(ValueError) as caught:
        simulator.generate_circuits(2, [1], size)
    assert str(caught.value) == f"circuits per depth must be >= 1, got {size}"


@pytest.mark.parametrize("first,second", [(1.5, 0), (True, 0), (np.float64(1.0), 0), ("1", 0)])
def test_correlated_pair_takes_only_integer_qubits(first, second):
    with pytest.raises(ValueError) as caught:
        simulator.correlated_pair(2, 0.01, 0.01, first, second)
    assert str(caught.value) == f"need two distinct qubits in range, got {(first, second)}"


def _is_int64(entry) -> bool:
    """The plain-Python rule: an int, or a numpy integer, from -2**63 up to
    2**63 - 1; a bool is not one."""
    if isinstance(entry, (bool, np.bool_)) or not isinstance(entry, (int, np.integer)):
        return False
    return -(2**63) <= int(entry) < 2**63


def _shown(entry):
    return entry.item() if isinstance(entry, np.generic) else entry


EDGES = [2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**64, 0]
SCALARS = st.one_of(
    st.integers(-(2**70), 2**70),
    st.sampled_from(EDGES),
    st.booleans(),
    st.builds(np.bool_, st.booleans()),
    st.floats(allow_nan=False),
    st.builds(np.float64, st.floats(-1e3, 1e3)),
    st.builds(np.int64, st.integers(-(2**63), 2**63 - 1)),
    st.builds(np.uint64, st.integers(0, 2**64 - 1)),
    st.builds(np.int8, st.integers(-128, 127)),
    st.text(max_size=2),
    st.none(),
)
ENTRIES = st.one_of(SCALARS, st.lists(SCALARS, max_size=2))
INTEGER_ARRAYS = st.one_of(
    st.lists(st.integers(0, 2**64 - 1), max_size=4).map(lambda v: np.array(v, np.uint64)),
    st.lists(st.integers(-128, 127), max_size=4).map(lambda v: np.array(v, np.int8)),
    st.lists(st.integers(-(2**63), 2**63 - 1), min_size=4, max_size=4).map(
        lambda v: np.array(v, np.int64).reshape(2, 2)
    ),
)
OTHER_ARRAYS = st.one_of(
    st.lists(st.floats(-1e3, 1e3), max_size=4).map(np.array),
    st.lists(st.booleans(), max_size=4).map(np.array),
    st.lists(st.text(max_size=1), max_size=4).map(np.array),
)
VALUES = st.one_of(
    ENTRIES,
    st.lists(ENTRIES, max_size=6),
    st.lists(ENTRIES, max_size=6).map(tuple),
    st.sets(st.integers(-(2**65), 2**65), max_size=6),
    INTEGER_ARRAYS,
    OTHER_ARRAYS,
)


@settings(max_examples=300, deadline=None)
@given(values=VALUES)
def test_integer_array_follows_the_plain_python_rule(values):
    if isinstance(values, np.ndarray):
        shape, entries = values.shape, list(values.reshape(-1))
    elif isinstance(values, (list, tuple, set)):
        entries = list(values)
        shape = (len(entries),)
    else:
        shape, entries = (), [values]
    wrong = {i: entry for i, entry in enumerate(entries) if not _is_int64(entry)}
    expected = [0 if i in wrong else int(entry) for i, entry in enumerate(entries)]

    arr, got = integer_array(values)
    assert arr.shape == shape
    assert arr.reshape(-1).tolist() == expected
    assert {i: repr(value) for i, value in got.items()} == {
        i: repr(_shown(entry)) for i, entry in wrong.items()
    }
    kind = np.asarray(values).dtype if isinstance(values, (np.ndarray, np.integer)) else None
    if kind is not None and kind.kind in "iu" and np.can_cast(kind, np.int64):
        # an integer array that int64 holds is taken uncopied, a numpy
        # integer as an array of its own type
        assert arr is values or arr.dtype == kind
    else:
        assert arr.dtype == np.int64
