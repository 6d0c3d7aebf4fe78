"""End-to-end tests for the command-line pipeline."""

import csv
import json
import subprocess
import sys

import numpy as np
import pytest

import qflip
from qflip import simulator
from qflip.cli import main, parse_depths, parse_inputs, parse_preset, parse_spam
from qflip.errors import ConfigError
from qflip.records import Dataset


def run(*argv):
    return main([str(a) for a in argv])


def read_csv_rows(path):
    with open(path) as handle:
        lines = [line for line in handle if not line.startswith("#")]
    return list(csv.reader(lines))


# ---------------------------------------------------------------- parsing


class TestParseDepths:
    def test_range(self):
        assert parse_depths("1..5") == [1, 2, 3, 4, 5]

    def test_list(self):
        assert parse_depths("10,30,50") == [10, 30, 50]

    def test_mixed_and_deduplicated(self):
        assert parse_depths("0,1..3,3,7") == [0, 1, 2, 3, 7]

    def test_single(self):
        assert parse_depths("0") == [0]

    def test_bad_token(self):
        with pytest.raises(ConfigError):
            parse_depths("1..a")

    def test_reversed_range(self):
        with pytest.raises(ConfigError):
            parse_depths("5..1")

    def test_negative(self):
        with pytest.raises(ConfigError):
            parse_depths("-3")

    def test_empty(self):
        with pytest.raises(ConfigError):
            parse_depths(",")


class TestParseInputs:
    def test_all(self):
        assert parse_inputs("all", 4) == [0, 1, 2, 3]

    def test_list(self):
        assert parse_inputs("3,0", 4) == [0, 3]

    def test_out_of_range(self):
        with pytest.raises(ConfigError, match="input state 4 out of range for n=2"):
            parse_inputs("4", 4)
        with pytest.raises(ConfigError, match=f"input state {2**70} out of range for n=2"):
            parse_inputs(str(2**70), 4)

    def test_garbage(self):
        with pytest.raises(ConfigError):
            parse_inputs("first", 4)


class TestParsePreset:
    def test_with_value(self):
        assert parse_preset("iid_bitflip:0.02") == ("iid_bitflip", {"q": 0.02})

    def test_bare_name(self):
        assert parse_preset("spam_only") == ("spam_only", {})

    def test_positional_order(self):
        name, params = parse_preset("correlated_pair:0.01:0.05:0:2")
        assert name == "correlated_pair"
        assert params == {"q": 0.01, "q_corr": 0.05, "first": 0, "second": 2}

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            parse_preset("bogus:0.1")

    def test_too_many_values(self):
        with pytest.raises(ConfigError):
            parse_preset("iid_bitflip:0.1:0.2")

    def test_bad_value(self):
        with pytest.raises(ConfigError):
            parse_preset("iid_bitflip:high")


class TestParseSpam:
    def test_scalar(self):
        assert parse_spam("0.03") == 0.03

    def test_per_qubit(self):
        assert parse_spam("0.01,0.02") == [0.01, 0.02]

    def test_pairs(self):
        assert parse_spam("0.01/0.02,0.0/0.03") == [(0.01, 0.02), (0.0, 0.03)]

    def test_pair_rejected_when_not_allowed(self, tmp_path, capsys):
        # the grammar parses a pair anywhere; the simulator rejects one for prep
        assert parse_spam("0.01/0.02,0.0") == [(0.01, 0.02), 0.0]
        message = "preparation takes one probability per qubit, got (0.01, 0.02)"
        with pytest.raises(ValueError) as caught:
            simulator.GroundTruth(n=2, rates=[1.0, 0, 0, 0], prep=[(0.01, 0.02), 0.0])
        assert str(caught.value) == message
        code = run("simulate", "--preset", "iid_bitflip:0.01", "--n", 2, "--depths", 1,
                   "--prep", "0.01/0.02,0.0", "--out", tmp_path)
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: bad parameters for preset 'iid_bitflip': {message}\n"
        )
        assert not (tmp_path / "dataset.jsonl").exists()

    def test_garbage(self):
        with pytest.raises(ConfigError):
            parse_spam("tiny")


# ---------------------------------------------------------------- simulate


class TestSimulate:
    def test_record_count_matches_grid(self, tmp_path):
        # 30 depths x 200 circuits x 1 input
        code = run(
            "simulate", "--preset", "iid_bitflip:0.02", "--n", 3,
            "--depths", "1..30", "--K", 200, "--seed", 7, "--shots", 64,
            "--out", tmp_path,
        )
        assert code == 0
        dataset = Dataset.read_jsonl(tmp_path / "dataset.jsonl")
        assert len(dataset.records) == 6000

    def test_rerun_is_byte_identical(self, tmp_path):
        args = (
            "simulate", "--preset", "iid_bitflip:0.05", "--n", 2,
            "--depths", "1..4", "--K", 10, "--seed", 3, "--shots", 100,
        )
        assert run(*args, "--out", tmp_path / "a") == 0
        assert run(*args, "--out", tmp_path / "b") == 0
        for name in ("dataset.jsonl", "profile.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_depth_zero_calibration_shape(self, tmp_path):
        code = run(
            "simulate", "--preset", "spam_only:0.03", "--n", 2,
            "--depths", "0", "--K", 5, "--shots", 50, "--inputs", "all",
            "--out", tmp_path,
        )
        assert code == 0
        dataset = Dataset.read_jsonl(tmp_path / "dataset.jsonl")
        assert dataset.depths() == [0]
        assert dataset.input_indices() == [0, 1, 2, 3]

    def test_profile_records_parameters(self, tmp_path):
        run(
            "simulate", "--preset", "iid_bitflip:0.02", "--n", 2,
            "--depths", "1,2", "--K", 4, "--seed", 9, "--shots", 32,
            "--readout", "0.01", "--out", tmp_path,
        )
        profile = json.loads((tmp_path / "profile.json").read_text())
        assert profile["preset"] == "iid_bitflip"
        assert profile["n"] == 2
        assert profile["seed"] == 9
        assert profile["params"]["q"] == 0.02
        assert profile["params"]["readout"] == 0.01
        assert "config_sha256" in profile

    def test_dataset_header_is_self_describing(self, tmp_path):
        run(
            "simulate", "--preset", "iid_bitflip:0.02", "--n", 2,
            "--depths", "1", "--K", 2, "--seed", 5, "--shots", 16,
            "--out", tmp_path,
        )
        first = (tmp_path / "dataset.jsonl").read_text().splitlines()[0]
        assert first.startswith("#")
        assert "n=2" in first and "seed=5" in first and "config_sha256=" in first

    def test_unknown_preset_exits_2(self, tmp_path, capsys):
        code = run("simulate", "--preset", "bogus:0.1", "--n", 2, "--depths", "1",
                   "--out", tmp_path)
        assert code == 2
        assert "unknown preset" in capsys.readouterr().err

    def test_missing_required_flag_exits_2(self, tmp_path):
        assert run("simulate", "--n", 2, "--depths", "1", "--out", tmp_path) == 2

    def test_n_out_of_range_exits_2(self, tmp_path, capsys):
        code = run("simulate", "--preset", "iid_bitflip:0.1", "--n", 0,
                   "--depths", "1", "--out", tmp_path)
        assert code == 2
        assert capsys.readouterr().err == "error: qubit count must be in [1, 12], got 0\n"

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        code = run("simulate", "--preset", "iid_bitflip:0.1", "--n", 2,
                   "--depths", "1", "--seed", -1, "--out", tmp_path)
        assert code == 2
        assert capsys.readouterr().err == "error: seed must be one integer >= 0, got -1\n"
        assert not (tmp_path / "dataset.jsonl").exists()

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_exit_2(self, tmp_path, capsys, workers):
        code = run("simulate", "--preset", "iid_bitflip:0.1", "--n", 2,
                   "--depths", "1,2", "--workers", workers, "--out", tmp_path)
        assert code == 2
        assert capsys.readouterr().err == f"error: workers must be >= 1, got {workers}\n"
        assert not (tmp_path / "dataset.jsonl").exists()

    def test_workers_write_the_serial_bytes(self, tmp_path):
        args = ("simulate", "--preset", "iid_bitflip:0.05", "--n", 2, "--inputs", "all",
                "--depths", "0..3", "--K", 4, "--seed", 8, "--shots", 50)
        assert run(*args, "--out", tmp_path / "serial") == 0
        assert run(*args, "--workers", 2, "--out", tmp_path / "pool") == 0
        for name in ("dataset.jsonl", "profile.json"):
            serial = (tmp_path / "serial" / name).read_bytes()
            assert (tmp_path / "pool" / name).read_bytes() == serial

    def test_bad_preset_parameter_exits_2(self, tmp_path):
        code = run("simulate", "--preset", "iid_bitflip:0.7", "--n", 2,
                   "--depths", "1", "--out", tmp_path)
        assert code == 2


# ------------------------------------------------- characterize and predict


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """One simulated dataset shared by the downstream-command tests."""
    path = tmp_path_factory.mktemp("cli_run")
    code = run(
        "simulate", "--preset", "iid_bitflip:0.05", "--n", 2,
        "--depths", "0,1..8", "--K", 40, "--shots", 600, "--seed", 21,
        "--inputs", "all", "--readout", "0.02", "--out", path,
    )
    assert code == 0
    return path


class TestCharacterize:
    def test_writes_model_and_diagnostics(self, run_dir, tmp_path, capsys):
        code = run(
            "characterize", "--dataset", run_dir / "dataset.jsonl",
            "--train", "1..8", "--out", tmp_path,
        )
        assert code == 0
        assert (tmp_path / "model.json").exists()
        for bits in ("00", "01", "10", "11"):
            assert (tmp_path / f"diagnostics_{bits}.csv").exists()
        # the sibling profile makes ground truth available
        out = capsys.readouterr().out
        assert "L1(p_hat, p_true)" in out

    def test_recovers_planted_rates(self, run_dir, tmp_path):
        run("characterize", "--dataset", run_dir / "dataset.jsonl",
            "--train", "1..8", "--out", tmp_path)
        payload = json.loads((tmp_path / "model.json").read_text())
        rates = np.array(payload["inputs"]["0"]["p"])
        # planted device: per-qubit flip 0.05, so p_0 = 0.95^2
        assert abs(rates[0] - 0.9025) < 0.02

    def test_model_meta_embeds_run_info(self, run_dir, tmp_path):
        run("characterize", "--dataset", run_dir / "dataset.jsonl",
            "--train", "1..8", "--out", tmp_path)
        meta = json.loads((tmp_path / "model.json").read_text())["meta"]
        assert meta["train_depths"] == [1, 2, 3, 4, 5, 6, 7, 8]
        assert meta["seed"] == 21
        assert "config_sha256" in meta

    def test_diagnostics_schema(self, run_dir, tmp_path):
        run("characterize", "--dataset", run_dir / "dataset.jsonl",
            "--train", "1..8", "--out", tmp_path)
        rows = read_csv_rows(tmp_path / "diagnostics_00.csv")
        assert rows[0] == ["coefficient", "A", "lambda", "points_used", "residual"]
        assert len(rows) == 1 + 4

    def test_rb_flag_writes_fit(self, run_dir, tmp_path):
        code = run("characterize", "--dataset", run_dir / "dataset.jsonl",
                   "--train", "1..8", "--rb", "--out", tmp_path)
        assert code == 0
        payload = json.loads((tmp_path / "rb.json").read_text())
        assert 0.0 < payload["alpha"] <= 1.0
        assert payload["degenerate"] is False

    def test_missing_depth_exits_3_and_names_cell(self, run_dir, tmp_path, capsys):
        code = run("characterize", "--dataset", run_dir / "dataset.jsonl",
                   "--train", "1..12", "--out", tmp_path)
        assert code == 3
        assert "m=9" in capsys.readouterr().err

    def test_missing_dataset_exits_2(self, tmp_path):
        assert run("characterize", "--dataset", tmp_path / "nope.jsonl",
                   "--out", tmp_path) == 2

    def test_counts_not_an_object_exits_2_naming_the_line(self, tmp_path, capsys):
        path = tmp_path / "dataset.jsonl"
        path.write_text(
            '{"depth":1,"input":"00","seq":0,"shots":2,"counts":{"00":2}}\n'
            '{"depth":1,"input":"00","seq":1,"shots":2,"counts":null}\n'
        )
        code = run("characterize", "--dataset", path, "--out", tmp_path)
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {path}:2: malformed dataset record: counts must be a JSON object\n"
        )

    def test_broken_profile_names_its_file(self, run_dir, tmp_path, capsys):
        profile = tmp_path / "mine.json"
        profile.write_text("nope")
        code = run("characterize", "--dataset", run_dir / "dataset.jsonl",
                   "--profile", profile, "--out", tmp_path)
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {profile}: Expecting value")

    def test_missing_profile_exits_2(self, run_dir, tmp_path, capsys):
        code = run("characterize", "--dataset", run_dir / "dataset.jsonl",
                   "--profile", tmp_path / "nope.json", "--out", tmp_path)
        assert code == 2
        assert "profile not found" in capsys.readouterr().err

    def test_not_utf8_dataset_names_file_and_line(self, tmp_path, capsys):
        path = tmp_path / "dataset.jsonl"
        path.write_bytes(b"\xff\xfe")
        code = run("characterize", "--dataset", path, "--out", tmp_path)
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {path}:1: malformed dataset record: 'utf-8' codec can't decode "
            "byte 0xff in position 0: invalid start byte\n"
        )

    @pytest.mark.parametrize(
        "payload, message",
        [
            ('{"preset": "nope"}', "'n'"),
            ('{"preset": [1], "n": 2}', "preset must be a string, got [1]"),
            ('{"preset": "iid_bitflip", "n": 2.7}', "n must be an integer, got 2.7"),
            ('{"preset": "iid_bitflip", "n": true}', "n must be an integer, got True"),
            # a seed that is not an integer was once written into every header
            ('{"preset": "iid_bitflip", "n": 2, "seed": 2.5}',
             "seed must be an integer, got 2.5"),
            ('{"preset": "iid_bitflip", "n": 2, "seed": "7"}',
             "seed must be an integer, got '7'"),
            ('{"preset": "iid_bitflip", "n": 2, "seed": true}',
             "seed must be an integer, got True"),
        ],
    )
    def test_malformed_profile_payload_names_its_file(
        self, run_dir, tmp_path, capsys, payload, message
    ):
        profile = tmp_path / "p.json"
        profile.write_text(payload)
        code = run("characterize", "--dataset", run_dir / "dataset.jsonl",
                   "--profile", profile, "--out", tmp_path)
        assert code == 2
        assert capsys.readouterr().err == f"error: {profile}: malformed profile: {message}\n"

    @pytest.mark.parametrize("seed", ["", ', "seed": null'])
    def test_profile_seed_may_be_absent(self, run_dir, tmp_path, seed):
        profile = tmp_path / "p.json"
        profile.write_text(
            f'{{"preset": "iid_bitflip", "n": 2, "params": {{"q": 0.05}}{seed}}}'
        )
        code = run("characterize", "--dataset", run_dir / "dataset.jsonl",
                   "--profile", profile, "--out", tmp_path)
        assert code == 0
        assert "seed=none" in (tmp_path / "diagnostics_00.csv").read_text()

    def test_profile_qubit_count_is_checked_before_the_device_is_built(
        self, run_dir, tmp_path, capsys
    ):
        # the preset builders allocate 2**n rates, so n is checked first
        profile = tmp_path / "p.json"
        profile.write_text('{"preset": "iid_bitflip", "n": 13, "params": {"q": 0.01}}')
        code = run("characterize", "--dataset", run_dir / "dataset.jsonl",
                   "--profile", profile, "--out", tmp_path)
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {profile}: qubit count must be in [1, 12], got 13\n"
        )

    def test_profile_must_hold_an_object(self, run_dir, tmp_path, capsys):
        profile = tmp_path / "arr.json"
        profile.write_text("[1]")
        code = run("characterize", "--dataset", run_dir / "dataset.jsonl",
                   "--profile", profile, "--out", tmp_path)
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {profile}: profile must hold a JSON object\n"
        )

    @pytest.mark.parametrize(
        "value, shown",
        [('"0.01"', "'0.01'"), ("false", "False"), ("true", "True"),
         ('[0.01, "0.02"]', "[0.01, '0.02']")],
    )
    def test_preset_params_must_be_numbers(self, run_dir, tmp_path, capsys, value, shown):
        # false was once read as q=0 and compared against the wrong device
        profile = tmp_path / "p.json"
        profile.write_text(
            f'{{"preset": "iid_bitflip", "n": 2, "params": {{"readout": 0.0, "q": {value}}}}}'
        )
        code = run("characterize", "--dataset", run_dir / "dataset.jsonl",
                   "--profile", profile, "--out", tmp_path)
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {profile}: malformed profile: parameter 'q' is not a number: {shown}\n"
        )

    def test_broken_sibling_profile_names_its_file(self, run_dir, tmp_path, capsys):
        # the profile next to the dataset is read without being asked for
        (tmp_path / "dataset.jsonl").write_bytes((run_dir / "dataset.jsonl").read_bytes())
        (tmp_path / "profile.json").write_text('{"preset": ')
        code = run("characterize", "--dataset", tmp_path / "dataset.jsonl",
                   "--out", tmp_path / "out")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / 'profile.json'}: Expecting value")


class TestPredict:
    @pytest.fixture()
    def model_path(self, run_dir, tmp_path):
        run("characterize", "--dataset", run_dir / "dataset.jsonl",
            "--train", "1..8", "--out", tmp_path)
        return tmp_path / "model.json"

    def test_rows_cover_grid_and_sum_to_one(self, model_path, tmp_path):
        code = run("predict", "--model", model_path, "--depths", "2,5",
                   "--out", tmp_path)
        assert code == 0
        rows = read_csv_rows(tmp_path / "predictions.csv")
        assert rows[0] == ["depth", "input", "jsd", "00", "01", "10", "11"]
        assert len(rows) == 1 + 2 * 4
        for row in rows[1:]:
            assert row[2] == ""  # no dataset, no JSD column values
            assert abs(sum(float(v) for v in row[3:]) - 1.0) < 1e-9

    def test_jsd_column_with_dataset(self, model_path, run_dir, tmp_path):
        code = run("predict", "--model", model_path, "--depths", "4,8",
                   "--dataset", run_dir / "dataset.jsonl", "--out", tmp_path)
        assert code == 0
        rows = read_csv_rows(tmp_path / "predictions.csv")
        scores = [float(row[2]) for row in rows[1:]]
        assert all(0.0 <= s < 0.02 for s in scores)

    def test_depth_not_in_dataset_exits_3(self, model_path, run_dir, tmp_path):
        code = run("predict", "--model", model_path, "--depths", "99",
                   "--dataset", run_dir / "dataset.jsonl", "--out", tmp_path)
        assert code == 3

    def test_missing_model_exits_2(self, tmp_path):
        assert run("predict", "--model", tmp_path / "nope.json", "--depths", "1",
                   "--out", tmp_path) == 2

    def test_input_not_in_model_exits_3_without_a_file(self, run_dir, tmp_path, capsys):
        run("characterize", "--dataset", run_dir / "dataset.jsonl", "--inputs", "0,1",
            "--train", "1..8", "--out", tmp_path)
        out = tmp_path / "predict"
        code = run("predict", "--model", tmp_path / "model.json", "--depths", "2",
                   "--inputs", "0,2", "--out", out)
        assert code == 3
        assert "no channel for input state 2 (10)" in capsys.readouterr().err
        assert not (out / "predictions.csv").exists()

    def test_broken_model_names_its_file(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text('{"n": 2,')
        code = run("predict", "--model", model, "--depths", "1", "--out", tmp_path)
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {model}: Expecting")

    def test_model_must_hold_an_object(self, tmp_path, capsys):
        model = tmp_path / "arr.json"
        model.write_text("[1]")
        code = run("predict", "--model", model, "--depths", "1", "--out", tmp_path)
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {model}: model file must hold a JSON object\n"
        )

    def test_malformed_model_payload_names_its_file(self, tmp_path, capsys):
        model = tmp_path / "m.json"
        model.write_text('{"n": 2}')
        code = run("predict", "--model", model, "--depths", "1", "--out", tmp_path)
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {model}: malformed model payload: 'inputs'\n"
        )


def _with_entry(payload, key, **fields):
    """The model file's text with fields of input ``key``'s entry replaced."""
    entry = {**payload["inputs"][key], **fields}
    return json.dumps({**payload, "inputs": {**payload["inputs"], key: entry}})


def _with_key_twice(payload, key):
    """The model file's text with input ``key`` listed twice, verbatim."""
    entry = json.dumps(payload["inputs"][key])
    return json.dumps(payload).replace('"inputs": {', f'"inputs": {{"{key}": {entry}, ', 1)


class TestModelFileChecks:
    """A model.json field that breaks the format exits 2 naming the file, in
    each command that reads one."""

    CASES = {
        "meta not an object": (
            lambda p: json.dumps({**p, "meta": [1]}), "model meta must be an object"
        ),
        "train depths not a list": (
            lambda p: json.dumps({**p, "meta": {"train_depths": 5}}),
            "train_depths must be a list of integers",
        ),
        "fractional n": (
            lambda p: json.dumps({**p, "n": 2.7}), "n must be an integer, got 2.7"
        ),
        "boolean n": (lambda p: json.dumps({**p, "n": True}), "n must be an integer, got True"),
        "two keys for one input": (
            lambda p: json.dumps({**p, "inputs": {**p["inputs"], "03": p["inputs"]["3"]}}),
            "input '03': expected the key '3'",
        ),
        "repeated key": (lambda p: _with_key_twice(p, "3"), "repeated key '3'"),
        # strings and booleans were once read as numbers
        "string rates": (
            lambda p: _with_entry(p, "0", p=[str(v) for v in p["inputs"]["0"]["p"]]),
            "malformed model entry for input '0': p must hold numbers, got ['",
        ),
        "boolean spam": (
            lambda p: _with_entry(p, "0", A=[True, 1.0, 1.0, 1.0]),
            "malformed model entry for input '0': A must hold numbers, "
            "got [True, 1.0, 1.0, 1.0]",
        ),
        "input past int64": (
            lambda p: json.dumps({**p, "inputs": {**p["inputs"], str(2**70): p["inputs"]["0"]}}),
            f"input index {2**70} out of range for n=2",
        ),
        # the sum is printed as a plain float, not as a numpy repr
        "rates not summing to 1": (
            lambda p: _with_entry(p, "1", p=[p["inputs"]["1"]["p"][0] + 0.2,
                                             *p["inputs"]["1"]["p"][1:]]),
            "distribution sums to 1.2",
        ),
        # the length is checked before the sum, so the error names it
        "rates of the wrong length": (
            lambda p: _with_entry(p, "2", p=p["inputs"]["2"]["p"][:-1]),
            "channel for input 2 has length 3, expected 4",
        ),
    }

    @pytest.fixture(scope="class")
    def payload(self, run_dir, tmp_path_factory):
        out = tmp_path_factory.mktemp("model")
        assert run("characterize", "--dataset", run_dir / "dataset.jsonl",
                   "--train", "1..8", "--out", out) == 0
        return json.loads((out / "model.json").read_text())

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("command", ["predict", "mitigate"])
    def test_exits_2_naming_the_file(self, payload, run_dir, tmp_path, capsys, case, command):
        text, message = self.CASES[case]
        model = tmp_path / "model.json"
        model.write_text(text(payload))
        args = {
            "predict": ["--depths", "2"],
            "mitigate": ["--dataset", run_dir / "dataset.jsonl", "--test", "4"],
        }[command]
        code = run(command, "--model", model, *args, "--out", tmp_path / "out")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}: ")
        assert message in err
        assert "np." not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_library_reader_gives_the_same_error(self, payload, tmp_path, case):
        text, message = self.CASES[case]
        model = tmp_path / "model.json"
        model.write_text(text(payload))
        with pytest.raises(ConfigError) as caught:
            qflip.read_model(model)
        assert str(caught.value).startswith(f"{model}: ")
        assert message in str(caught.value)
        assert "np." not in str(caught.value)


class TestMitigate:
    @pytest.fixture()
    def model_path(self, run_dir, tmp_path):
        run("characterize", "--dataset", run_dir / "dataset.jsonl",
            "--train", "1..8", "--out", tmp_path)
        return tmp_path / "model.json"

    def test_report_schema_and_methods(self, model_path, run_dir, tmp_path):
        code = run("mitigate", "--model", model_path,
                   "--dataset", run_dir / "dataset.jsonl",
                   "--test", "4,8", "--pavg", "--out", tmp_path)
        assert code == 0
        rows = read_csv_rows(tmp_path / "report.csv")
        assert rows[0] == ["depth", "input", "method", "mean_jsd", "std_jsd", "flags"]
        methods = {row[2] for row in rows[1:]}
        # depth-0 data present, so the MEM baseline rides along
        assert methods == {"unmitigated", "MEM", "proposed", "proposed_pavg"}

    def test_partial_calibration_leaves_mem_out(self, model_path, run_dir, tmp_path, capsys):
        # depth 3 for every input, but depth 0 for input 00 alone
        keep = {(0, "00"), (3, "00"), (3, "01"), (3, "10"), (3, "11")}
        dataset = tmp_path / "partial.jsonl"
        with open(run_dir / "dataset.jsonl") as source, open(dataset, "w") as target:
            for line in source:
                record = {} if line.startswith("#") else json.loads(line)
                if (record.get("depth"), record.get("input")) in keep:
                    target.write(line)
        capsys.readouterr()
        code = run("mitigate", "--model", model_path, "--dataset", dataset,
                   "--test", "3", "--out", tmp_path)
        assert code == 0
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if "MEM" in line] == [
            "warning: MEM left out: dataset is missing records for "
            "(m=0, in=01), (m=0, in=10), (m=0, in=11)"
        ]
        methods = {row[2] for row in read_csv_rows(tmp_path / "report.csv")[1:]}
        assert methods == {"unmitigated", "proposed"}

    def test_proposed_beats_unmitigated(self, model_path, run_dir, tmp_path):
        run("mitigate", "--model", model_path,
            "--dataset", run_dir / "dataset.jsonl", "--test", "6", "--out", tmp_path)
        rows = read_csv_rows(tmp_path / "report.csv")
        pooled = {row[2]: float(row[3]) for row in rows[1:] if row[1] == "all"}
        assert pooled["proposed"] < pooled["unmitigated"]

    def test_overlap_warning(self, model_path, run_dir, tmp_path, capsys):
        run("mitigate", "--model", model_path,
            "--dataset", run_dir / "dataset.jsonl", "--test", "8", "--out", tmp_path)
        assert "overlap" in capsys.readouterr().err

    @pytest.mark.parametrize("text,pooled", [("yes", True), ("off", False)])
    def test_pavg_read_from_config_text(self, model_path, run_dir, tmp_path, text, pooled):
        config = tmp_path / "pavg.cfg"
        config.write_text(f"pavg = {text}\ntest = 4\n")
        code = run("mitigate", "--config", config, "--model", model_path,
                   "--dataset", run_dir / "dataset.jsonl", "--out", tmp_path)
        assert code == 0
        methods = {row[2] for row in read_csv_rows(tmp_path / "report.csv")[1:]}
        assert ("proposed_pavg" in methods) == pooled

    def test_pavg_config_word_must_be_boolean(self, model_path, run_dir, tmp_path, capsys):
        config = tmp_path / "pavg.cfg"
        config.write_text("pavg = maybe\n")
        code = run("mitigate", "--config", config, "--model", model_path,
                   "--dataset", run_dir / "dataset.jsonl", "--out", tmp_path)
        assert code == 2
        assert capsys.readouterr().err == "error: --pavg expects a boolean, got 'maybe'\n"

    def test_failed_solve_exits_4_without_a_report(
        self, model_path, run_dir, tmp_path, capsys, monkeypatch
    ):
        def no_solution(matrix, rhs, *args, **kwargs):
            return np.full(np.shape(rhs), np.nan)

        monkeypatch.setattr(np.linalg, "solve", no_solution)
        monkeypatch.setattr(np.linalg, "lstsq", lambda *args, **kw: (no_solution(*args),))
        out = tmp_path / "out"
        code = run("mitigate", "--model", model_path,
                   "--dataset", run_dir / "dataset.jsonl", "--test", "4", "--out", out)
        assert code == 4
        # the test depth overlaps the training depths, so a warning comes first
        err = capsys.readouterr().err
        assert err.endswith("\nerror: mitigation solve failed even via least squares\n")
        assert not (out / "report.csv").exists()

    def test_dataset_width_must_match_model(self, model_path, tmp_path, capsys):
        dataset = tmp_path / "one_qubit.jsonl"
        dataset.write_text('{"depth":1,"input":"0","seq":0,"shots":1,"counts":{"0":1}}\n')
        for command in (["mitigate", "--test", "1"], ["predict", "--depths", "1"]):
            code = run(*command, "--model", model_path, "--dataset", dataset, "--out", tmp_path)
            assert code == 2
            assert "dataset has n=1 but model has n=2" in capsys.readouterr().err

    def test_exit_zero_even_when_underperforming(self, run_dir, tmp_path):
        # an intentionally terrible model: fit on depth 1 only is still a
        # valid artifact, and the report carries the verdict either way
        run("characterize", "--dataset", run_dir / "dataset.jsonl",
            "--train", "1,2", "--out", tmp_path)
        code = run("mitigate", "--model", tmp_path / "model.json",
                   "--dataset", run_dir / "dataset.jsonl",
                   "--test", "8", "--out", tmp_path)
        assert code == 0


# ------------------------------------------------------------------ run-all


class TestRunAll:
    def test_pipeline_artifacts_and_determinism(self, tmp_path):
        config = tmp_path / "grid.cfg"
        config.write_text(
            "# experiment grid\n"
            "preset = iid_bitflip:0.04\n"
            "n = 2\n"
            "K = 25\n"
            "shots = 300\n"
            "seed = 11\n"
            "train = 1..6\n"
            "test = 3,8\n"
            "readout = 0.02\n"
        )
        for sub in ("a", "b"):
            code = run("run-all", "--config", config, "--out", tmp_path / sub)
            assert code == 0
        names = [
            "dataset.jsonl", "profile.json", "model.json",
            "predictions.csv", "report.csv",
        ]
        for name in names:
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name

    def test_flag_overrides_config(self, tmp_path):
        config = tmp_path / "grid.cfg"
        config.write_text("preset = iid_bitflip:0.04\nn = 2\nK = 5\nshots = 50\n"
                          "seed = 1\ntrain = 1..3\ntest = 2\n")
        code = run("run-all", "--config", config, "--seed", 2, "--out", tmp_path / "o")
        assert code == 0
        profile = json.loads((tmp_path / "o" / "profile.json").read_text())
        assert profile["seed"] == 2

    def test_overlapping_grids_warn_but_run(self, tmp_path, capsys):
        code = run(
            "run-all", "--preset", "iid_bitflip:0.05", "--n", 1,
            "--K", 10, "--shots", 100, "--seed", 4,
            "--train", "1..4", "--test", "2,6", "--out", tmp_path,
        )
        assert code == 0
        assert "overlap" in capsys.readouterr().err

    def test_bad_config_line_exits_2(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("preset iid_bitflip\n")
        assert run("run-all", "--config", config, "--out", tmp_path) == 2

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        # 'shot' was once ignored, and the run went on with 1024 shots
        config = tmp_path / "typo.cfg"
        config.write_text("preset = iid_bitflip:0.04\nn = 2\n# shots per circuit\nshot = 16\n"
                          "train = 1..3\ntest = 2\n")
        code = run("run-all", "--config", config, "--out", tmp_path / "o")
        assert code == 2
        assert capsys.readouterr().err == f"error: {config}:4: unknown option 'shot'\n"
        assert not (tmp_path / "o").exists()

    def test_config_may_hold_other_subcommands_options(self, tmp_path):
        # one file serves simulate and characterize; run-all skips the rest
        config = tmp_path / "shared.cfg"
        config.write_text("preset = iid_bitflip:0.04\nn = 2\nK = 5\nshots = 50\n"
                          "train = 1..3\ntest = 2\ndepths = 1..3\ndataset = d.jsonl\n"
                          "model = m.json\nprofile = p.json\n")
        assert run("run-all", "--config", config, "--out", tmp_path / "o") == 0
        assert run("simulate", "--config", config, "--out", tmp_path / "s") == 0


class TestErrorExits:
    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        config = tmp_path / "absent.cfg"
        assert run("run-all", "--config", config, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == f"error: config file not found: {config}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag", ["--K", "--shots", "--seed", "--n"])
    def test_non_integer_option_exits_2(self, tmp_path, capsys, flag):
        argv = {"--preset": "iid_bitflip:0.05", "--n": 1, "--depths": "1",
                "--out": tmp_path, flag: "five"}
        assert run("simulate", *[part for pair in argv.items() for part in pair]) == 2
        assert capsys.readouterr().err == f"error: {flag} expects an integer, got 'five'\n"
        assert not (tmp_path / "dataset.jsonl").exists()

    def test_unwritable_output_exits_1(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = run("simulate", "--preset", "iid_bitflip:0.05", "--n", 1,
                   "--depths", "1", "--out", blocker)
        assert code == 1
        assert capsys.readouterr().err.startswith("error: [Errno 17] File exists")


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "qflip", "simulate",
             "--preset", "iid_bitflip:0.05", "--n", "1", "--depths", "1,2",
             "--K", "3", "--shots", "20", "--out", str(tmp_path)],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert (tmp_path / "dataset.jsonl").exists()

    def test_import_loads_no_scipy(self):
        # importing scipy.linalg and scipy.optimize cost every CLI process
        # about 0.6 s and 40 MiB; the runtime must not pull it back in
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, qflip, qflip.cli; print('scipy' in sys.modules)"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    @pytest.fixture(scope="class")
    def model_path(self, run_dir, tmp_path_factory):
        path = tmp_path_factory.mktemp("startup")
        code = run("characterize", "--dataset", run_dir / "dataset.jsonl", "--train", "1..4",
                   "--out", path)
        assert code == 0
        return path / "model.json"

    @pytest.mark.parametrize("command", ["simulate", "characterize", "predict", "mitigate",
                                         "run-all"])
    def test_commands_load_no_masked_arrays_or_process_pool(
        self, run_dir, model_path, tmp_path, command
    ):
        # numpy.ma cost every command 11-20 ms and concurrent.futures about
        # 6 ms; nothing a serial run does needs either, nor the Clifford tables
        dataset, model = run_dir / "dataset.jsonl", model_path
        argv = {
            "simulate": ["--preset", "iid_bitflip:0.05", "--n", 2, "--depths", "0..3", "--K", 2,
                         "--shots", 20, "--inputs", "all"],
            "characterize": ["--dataset", dataset, "--train", "1..4", "--rb", "--pavg"],
            "predict": ["--model", model, "--depths", "2,4", "--dataset", dataset],
            "mitigate": ["--model", model, "--dataset", dataset, "--test", "2,3", "--pavg"],
            "run-all": ["--preset", "iid_bitflip:0.05", "--n", 2, "--K", 2, "--shots", 20,
                        "--train", "1..3", "--test", "2,5", "--rb", "--pavg"],
        }[command]
        probe = (
            "import sys\n"
            "from qflip import clifford\n"
            "from qflip.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "loaded = [m for m in ('numpy.ma', 'concurrent.futures') if m in sys.modules]\n"
            "print(loaded, clifford._group.cache_info().currsize)\n"
            "sys.exit(code)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe, command, *map(str, argv), "--out", str(tmp_path)],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "[] 0"

    def test_no_subcommand_exits_2(self):
        result = subprocess.run(
            [sys.executable, "-m", "qflip"], capture_output=True, text=True
        )
        assert result.returncode == 2
