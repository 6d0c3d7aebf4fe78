"""Golden sha256 pins for the artifacts of one small fixed run-all config.

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
    "model.json": "25b426b1922ac6c5f0ca69fba9c046d6474904a81df06a0ced47bd00c5df5609",
    "report.csv": "ef0c6cfc01f26ed94d468b1c98b4e600e4eda0840f9967299eb3d9ea522aea7f",
    "predictions.csv": "80b6acfaa2c16fb76d59e35050e50d650ee5d358d81a2e12d82ee72db2088acb",
}


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    assert main([*ARGV, "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("name", sorted(PINS))
def test_artifact_bytes_are_pinned(run_dir, name):
    digest = hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
    assert digest == PINS[name]
