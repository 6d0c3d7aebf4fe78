"""Golden sha256 pins for the artifacts of small fixed pipelines: two
run-all configs, one staged simulate, characterize, predict chain and one
staged characterize with pooled rates and the RB fit.

The bytes of these artifacts are part of the package's contract: a
refactor of grouping, sampling or scoring must leave them unchanged. When
an intended change alters them, update the pins in the same change and
say why.
"""

import hashlib

import pytest

from qflip.cli import main

ARGV = [
    "run-all",
    "--preset", "iid_bitflip:0.01",
    "--n", "2",
    "--K", "3",
    "--shots", "64",
    "--seed", "5",
    "--readout", "0.02",
    "--prep", "0.01",
    "--train", "1..6",
    "--test", "3,8",
    "--rb",
    "--pavg",
]

PINS = {
    "dataset.jsonl": "226da59f24f82f05e09fe72e2d2fcd7410c878e3bd058d08d68423b422d618a5",
    "model.json": "431397f3d27445ec65b9c55777b552ff0fef973e1b13552e812d39fe8627a0bd",
    "report.csv": "e7bc5c8030e5b94bb6331970c1309259fbf94db8acdfceca18deb24465c1ef60",
    "predictions.csv": "b2cba4b7c083093e3718e7dd773399d1310938044d91fd5b2ec8d2071eb03a8e",
    "profile.json": "b98b6cfb14e27ac3c6bbe217226a186865cfb558b101a5ecebc662e2b59ea1f2",
}

# every input of n=4, correlated flips, asymmetric readout pairs per qubit
ARGV_N4 = [
    "run-all",
    "--preset", "correlated_pair:0.01:0.005:0:2",
    "--n", "4",
    "--K", "3",
    "--shots", "128",
    "--seed", "13",
    "--inputs", "all",
    "--readout", "0.02/0.04,0.01/0.03,0.03/0.01,0.015/0.025",
    "--prep", "0.01",
    "--train", "1..8",
    "--test", "10,14",
    "--rb",
    "--pavg",
]

PINS_N4 = {
    "dataset.jsonl": "a032cc1c74dad47347c2f1c76246464d800a2cd5ba0884aefa92358166f7a58e",
    "model.json": "2f5f1afaabe97f149233338d8d4d741e44522bed59e2ff2ce979a531df2e0af8",
    "report.csv": "15a8ed88109bc278954073c9ebc3370127b8e54ce129ff65612ee54d9414aefc",
    "predictions.csv": "3c3b6dba42feaae80d8994484d1ec705e85b0b38a61c6dd9ff16d37fe983f20c",
    "rb.json": "b669bc50d6eac3ecfe5a7d3ea6c807333372bd07d0b5ffd0e76e99017c3ac4f5",
    "diagnostics_1011.csv": "cc45cfaf68f3b5f863d300ad94261d46c8a8b6b9096a5afb1625f86387e49912",
    "profile.json": "9dac0303df3610c0dabe94263f3aea35c263366c78010434c41d8754501a81c7",
}


def run_all(tmp_path_factory, argv):
    out = tmp_path_factory.mktemp("golden")
    assert main([*argv, "--out", str(out)]) == 0
    return out


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    return run_all(tmp_path_factory, ARGV)


@pytest.fixture(scope="module")
def run_dir_n4(tmp_path_factory):
    return run_all(tmp_path_factory, ARGV_N4)


@pytest.mark.parametrize("name", sorted(PINS))
def test_artifact_bytes_are_pinned(run_dir, name):
    assert sha256(run_dir / name) == PINS[name]


@pytest.mark.parametrize("name", sorted(PINS_N4))
def test_n4_artifact_bytes_are_pinned(run_dir_n4, name):
    assert sha256(run_dir_n4 / name) == PINS_N4[name]


# the staged path: simulate, characterize three of the inputs, then predict
# two of them without a dataset, so the model covers only some inputs and
# the score column stays empty
STAGED_N3 = [
    [
        "simulate",
        "--preset", "iid_bitflip:0.02",
        "--n", "3",
        "--K", "3",
        "--shots", "64",
        "--seed", "7",
        "--readout", "0.03",
        "--depths", "1..6",
        "--inputs", "0,3,5,6",
    ],
    [
        "characterize",
        "--dataset", "{out}/dataset.jsonl",
        "--inputs", "0,3,5",
        "--train", "1..6",
    ],
    ["predict", "--model", "{out}/model.json", "--depths", "2,9", "--inputs", "0,5"],
]

PINS_STAGED_N3 = {
    "dataset.jsonl": "c4adb94588212e312f367cded8d67009012161cca239d48a615cd3b69ce99af8",
    "model.json": "f62a485fbb2511fe670695f6927528b046c93ea63fdf9fd0ba6b9a203e2a3054",
    "predictions.csv": "9148a3118f5cedaa11acc4cdb6536bb236d55b6921ef0edc556333d3b8bc9349",
    "diagnostics_000.csv": "52aa83f9bd1f4891d93ada85dc6529b56609b0eaaf0e0da0d1223d6fa480c638",
    "diagnostics_011.csv": "06d0517a7b4580d7d386e316d7844e624d03aab74cf548e8ac8aed38c71b0d17",
    "diagnostics_101.csv": "f1cb2917237b0327c061a8c8ae9aa14bcaf96be914f67ddf9fbf9358ee8c1e48",
    "profile.json": "4fb4dc8f35f85d9c65dc65e08e29aec4b47bf7dff31c1c71d364e343991bd9b4",
}


@pytest.fixture(scope="module")
def run_dir_staged(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    for argv in STAGED_N3:
        assert main([*(arg.format(out=out) for arg in argv), "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("name", sorted(PINS_STAGED_N3))
def test_staged_artifact_bytes_are_pinned(run_dir_staged, name):
    assert sha256(run_dir_staged / name) == PINS_STAGED_N3[name]


# fit-time pooling: characterize four inputs, none of them 0, with --pavg
# (rates pooled over the fitted inputs) and --rb (fit on the first of them)
STAGED_PAVG_N3 = [
    [
        "simulate",
        "--preset", "depolarizing:0.01",
        "--n", "3",
        "--K", "4",
        "--shots", "128",
        "--seed", "17",
        "--readout", "0.02/0.03,0.01,0.04",
        "--prep", "0.005",
        "--depths", "1..8",
        "--inputs", "all",
    ],
    [
        "characterize",
        "--dataset", "{out}/dataset.jsonl",
        "--inputs", "1,2,4,7",
        "--train", "2..8",
        "--pavg",
        "--rb",
    ],
]

PINS_STAGED_PAVG_N3 = {
    "model.json": "feebcd5e3cba0a75944adcd1e27fcff80e2290071e24d9fead564fc305c5d9be",
    "rb.json": "357daab0dd39916f111ae216e8ee993a55bc22b8e25f95a4a915192c4dae4fa8",
    "diagnostics_111.csv": "e28e133f8cf9afedd040c967cadcf88238d6c3ebf9cea21a4446d023c4707fcc",
    "profile.json": "354cf52b1669a91d09cdfd10ceaf26eb2ffa3a32634144b8cd92913b8d5c87c5",
}


@pytest.fixture(scope="module")
def run_dir_staged_pavg(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    for argv in STAGED_PAVG_N3:
        assert main([*(arg.format(out=out) for arg in argv), "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("name", sorted(PINS_STAGED_PAVG_N3))
def test_staged_pavg_artifact_bytes_are_pinned(run_dir_staged_pavg, name):
    assert sha256(run_dir_staged_pavg / name) == PINS_STAGED_PAVG_N3[name]
