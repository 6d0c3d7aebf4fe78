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
    "dataset.jsonl": "0d0656d0707a38ea9e8480593e17130254f601841561d713c8fe51ab5ee0c24e",
    "model.json": "ecc3bfb56364b923897473a760b3f6761e87f885fa1d1a45b3e41c10d9eb44a0",
    "report.csv": "ef0c6cfc01f26ed94d468b1c98b4e600e4eda0840f9967299eb3d9ea522aea7f",
    "predictions.csv": "80b6acfaa2c16fb76d59e35050e50d650ee5d358d81a2e12d82ee72db2088acb",
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
    "dataset.jsonl": "736555503485439608505443524d3f2152300dce0d3b570f3d26ade215a81c8f",
    "model.json": "cfdaa4d2ee81740d9c75268ee4d3dd5b504a86cc2e9c784ec14525a6be60b1ca",
    "report.csv": "c8eb7ba9d2c9ceacd1d59db8ae8655e4790dde4ee6392fcba219ae2297d05a4a",
    "predictions.csv": "4c7a49d333550357a5a5c009a0b34a0eeb8a576903d6263c336e0563a31c2df2",
    "rb.json": "b55399761a46e024c553c19fce5e13cccb87e139c57c8fdd5bcd675e578a889f",
    "diagnostics_1011.csv": "e9442dd8f3274b26df22b26977d7596ea10ff788a04895bd92ea5255b2d0c743",
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
    "dataset.jsonl": "7ff0fd0a33bf50153697aef96566905b55cf4913428b5d44654365a5378a6df2",
    "model.json": "cf35107d9fa3c69de81b4a1edf5e223e4b5c123d408ee3b971543c41072d4277",
    "predictions.csv": "970a0f7ed881af5a915c07418d5c2eb21852e0392268de8563f9f85f02e17b16",
    "diagnostics_000.csv": "72534000bfb7854bfb16d080374e42571fc87d6164466593b0e4031e1a527a6b",
    "diagnostics_011.csv": "eeb3e8bf948d21217b7c44d82f48bea5bdfabd620fa34d2ac06232d0c27ad396",
    "diagnostics_101.csv": "0b6b8a2d88e792b01b05409ff2cd5d582dd513709bdea331b1a3eabef74d0c9c",
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
    "model.json": "00e502a7a492350e5d84b8b9edbea60d0c72a58b4c4ec58af6163cbb5a17b60c",
    "rb.json": "81f658e15d858e1257b3b4151bc4f3d9d536ababe7cbd453c994064d233b6987",
    "diagnostics_111.csv": "667ebcc8c18aa40b4c37f802be2a8d7acc051a0425a9c9ddfcea29cd96285a20",
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
