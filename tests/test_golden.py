"""Golden sha256 pins for the artifacts of small fixed pipelines: two
run-all configs, one staged simulate, characterize, predict chain and one
staged characterize of some inputs with the RB fit.

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
    "dataset.jsonl": "03f7278da43fdb12de49fb14a324bde61e3fd51ae6a67a66431204ceafe2e764",
    "model.json": "25b951b9e42c7fe27e054e5ecaf89cab8b1f2088d974b043ef3237f6c3658e03",
    "report.csv": "8d9661059208d83ed9367e5f880df40b1247310aa14db1261dd465528e790593",
    "predictions.csv": "ed66c06d5f2ca0356f661edb6b4fdcce63bef9da9ee50768cc68b6c55818f03e",
    "profile.json": "b98b6cfb14e27ac3c6bbe217226a186865cfb558b101a5ecebc662e2b59ea1f2",
    "diagnostics.csv": "e77c72a8c71377b8b783ff41a4de86b6a5d397f149058675f398e7dde37a85a4",
}

# every input of n=4, correlated flips, asymmetric readout pairs per qubit
ARGV_N4 = [
    "run-all",
    "--preset", "correlated_pair:0.01:0.005:0:2",
    "--n", "4",
    "--K", "3",
    "--shots", "128",
    "--seed", "13",
    "--readout", "0.02/0.04,0.01/0.03,0.03/0.01,0.015/0.025",
    "--prep", "0.01",
    "--train", "1..8",
    "--test", "10,14",
    "--rb",
    "--pavg",
]

PINS_N4 = {
    "dataset.jsonl": "48c3200196baa18502f7f31bb07ffa59e4760b7e057dc7d0ee71e12fca5ebc46",
    "model.json": "97dd4de64fd757ccfaa54affe540556b6d6da362e8249687c9145c4e8570b7ce",
    "report.csv": "5918b0887168de4eacc50c14122787a82094a04fe9f6ba5f03aa46a5f6fe9b27",
    "predictions.csv": "1cb734d38664548f0fec64dbf3820bf15928ce5a3748b4f2b4257dc3f015373e",
    "rb.json": "8f89cf5198c55b0558438464339b2408f524ee0c85d4e62252962be7df84bc76",
    "diagnostics.csv": "f7d635eb5daee224746125739dacfc128b7aa36bf56d7a59e53ff76d1a01c9cd",
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
    "dataset.jsonl": "45c076f05f1df17dad113c614aa51fbce17ea490e61b28020d100f40008f5142",
    "model.json": "1f58f3b63092046ae9bb74074bcedd36e1d3d727a8df568124b10f04d2453172",
    "predictions.csv": "80142b60da811eefaad88d8c2a304ba68d04ad9f209791b83a763c7fa012e381",
    "diagnostics.csv": "4d74bd4a73adfe62e81c2a7f2b0e624381b8996f9a2ab0309d13a92d75668cc9",
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


# characterize four inputs, none of them 0, with --rb (fit on the first of them)
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
        "--rb",
    ],
]

PINS_STAGED_PAVG_N3 = {
    "model.json": "4bd735053219476fc0a0c031af9b85204287134ace49796ba1edd78b65b51b02",
    "rb.json": "b8fbdc224ea3829dfdb92289e33bbfcbcb3f7c2813cab34ad5293d3e51a96a45",
    "diagnostics.csv": "7ad5f8a28ed8edf54c1301dfd73638704c4dd3a2f6f3d902eac239fa6be7a244",
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
