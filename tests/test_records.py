"""Dataset record validation and JSONL wire-format tests."""

import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import record_to_json, stacked_cell_means
from qflip import records, simulator
from qflip.errors import CoverageError


def read_lines(tmp_path, *lines):
    path = tmp_path / "data.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    return records.Dataset.read_jsonl(path)


class TestBitstrings:
    def test_qubit_zero_is_rightmost(self, tmp_path):
        assert records.index_to_bits(1, 3) == "001"
        assert records.index_to_bits(4, 3) == "100"
        ds = read_lines(tmp_path, '{"depth":1,"input":"001","seq":0,"shots":1,"counts":{"100":1}}')
        assert (ds.input.tolist(), ds.outcome.tolist()) == ([1], [4])

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_round_trip(self, n):
        for index in range(1 << n):
            assert int(records.index_to_bits(index, n), 2) == index

    def test_rejects_bad_values(self, tmp_path):
        with pytest.raises(ValueError):
            records.index_to_bits(8, 3)
        with pytest.raises(ValueError):
            records.index_to_bits(-1, 3)
        for bits in ("0a1", ""):
            line = '{"depth":1,"input":"%s","seq":0,"shots":1,"counts":{"000":1}}' % bits
            with pytest.raises(ValueError, match=f"invalid bitstring '{bits}'"):
                read_lines(tmp_path, line)


class TestCountsRecord:
    def test_counts_must_sum_to_shots(self):
        with pytest.raises(ValueError):
            records.CountsRecord(
                depth=1, input_index=0, sequence_id=0, shots=10, counts={0: 4, 1: 5}
            )

    def test_rejects_negative_fields(self):
        good = dict(depth=1, input_index=0, sequence_id=0, shots=4, counts={0: 4})
        records.CountsRecord(**good)
        for bad in (
            dict(good, depth=-1),
            dict(good, input_index=-1),
            dict(good, sequence_id=-1),
            dict(good, shots=0, counts={}),
            dict(good, counts={-1: 4}),
            dict(good, counts={0: -4, 1: 8}),
        ):
            with pytest.raises(ValueError):
                records.CountsRecord(**bad)

    def test_counts_coerced_to_ints(self):
        record = records.CountsRecord(
            depth=1, input_index=0, sequence_id=0, shots=4, counts={np.int64(2): np.int64(4)}
        )
        assert record.counts == {2: 4}
        assert all(type(k) is int and type(v) is int for k, v in record.counts.items())

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("depth", 1.9, "depth must be a 64-bit integer, got 1.9"),
            ("depth", True, "depth must be a 64-bit integer, got True"),
            ("input_index", np.float64(0.0), "input index must be a 64-bit integer, got 0.0"),
            ("sequence_id", "7", "sequence id must be a 64-bit integer, got '7'"),
            ("shots", None, "shots must be a 64-bit integer, got None"),
            ("shots", 1 << 63, f"shots must be a 64-bit integer, got {1 << 63}"),
            ("counts", {0.0: 4}, "outcome index must be a 64-bit integer, got 0.0"),
            ("counts", {0: 4.0}, "count value must be a 64-bit integer, got 4.0"),
        ],
    )
    def test_rejects_non_integer_fields(self, field, value, message):
        good = dict(depth=1, input_index=0, sequence_id=0, shots=4, counts={0: 4})
        with pytest.raises(records.RecordError) as info:
            records.CountsRecord(**dict(good, **{field: value}))
        assert str(info.value) == message
        assert info.value.position == 0


class TestWireFormat:
    def test_exact_line(self, tmp_path):
        record = records.CountsRecord(
            depth=3, input_index=1, sequence_id=7, shots=100, counts={0: 61, 2: 39}
        )
        path = tmp_path / "data.jsonl"
        records.Dataset(2, [record]).write_jsonl(path)
        line = '{"depth":3,"input":"01","seq":7,"shots":100,"counts":{"00":61,"10":39}}'
        assert path.read_text() == line + "\n"
        back = records.Dataset.read_jsonl(path)
        assert back.n == 2
        (only,) = back.records
        assert only.counts == record.counts
        assert only.sort_key() == record.sort_key()

    def test_rejects_malformed_lines(self, tmp_path):
        for line in (
            "not json",
            "{}",
            '{"depth":1,"input":"0","seq":0,"shots":2,"counts":{"0":1}}',
            '{"depth":1,"input":"00","seq":0,"shots":2,"counts":{"000":2}}',
            '{"depth":1,"input":"00","seq":0,"shots":2,"counts":{"01":1}}',
        ):
            with pytest.raises(ValueError, match="data.jsonl:1: "):
                read_lines(tmp_path, line)


class TestDataset:
    def make_dataset(self):
        recs = [
            records.CountsRecord(depth=2, input_index=1, sequence_id=0, shots=4, counts={1: 4}),
            records.CountsRecord(depth=1, input_index=0, sequence_id=1, shots=4, counts={0: 3, 3: 1}),
            records.CountsRecord(depth=1, input_index=0, sequence_id=0, shots=4, counts={0: 4}),
        ]
        return records.Dataset(n=2, records=recs)

    def test_grouping(self):
        ds = self.make_dataset()
        assert ds.depths() == [1, 2]
        assert ds.input_indices() == [0, 1]
        assert len(ds.distributions(2, 1)) == 1
        # rows come in sequence-id order
        rows = ds.distributions(1, 0)
        np.testing.assert_array_equal(rows, [[1, 0, 0, 0], [0.75, 0, 0, 0.25]])
        ds.require([1], [0])
        with pytest.raises(CoverageError, match=r"\(m=2, in=00\), \(m=1, in=01\)"):
            ds.require([1, 2], [0, 1])
        with pytest.raises(CoverageError, match="m=9"):
            ds.distributions(9, 0)

    def test_rejects_duplicate_records(self):
        recs = list(self.make_dataset().records)
        recs.append(
            records.CountsRecord(depth=1, input_index=0, sequence_id=1, shots=2, counts={0: 2})
        )
        with pytest.raises(ValueError, match=r"duplicate record \(depth=1, input=00, seq=1\)"):
            records.Dataset(n=2, records=recs)

    def test_sorted_order(self):
        ds = self.make_dataset()
        keys = [r.sort_key() for r in ds.records]
        assert keys == sorted(keys)
        assert [ds.depth.tolist(), ds.seq.tolist(), ds.input.tolist()] == [
            [1, 1, 2], [0, 1, 0], [0, 0, 1]
        ]
        # entries sorted by record, then outcome
        assert ds.record.tolist() == [0, 1, 1, 2]
        assert ds.outcome.tolist() == [0, 0, 3, 1]
        assert ds.count.tolist() == [4, 3, 1, 4]

    def test_records_view(self):
        ds = self.make_dataset()
        view = ds.records
        assert len(view) == len(ds) == 3
        assert view[-1].sort_key() == (2, 0, 1)
        assert view[1].counts == {0: 3, 3: 1}
        assert [r.sort_key() for r in view[1:]] == [(1, 1, 0), (2, 0, 1)]
        with pytest.raises(IndexError):
            view[3]
        with pytest.raises(ValueError):
            ds.depth[0] = 5

    def test_from_columns_matches_records(self):
        ds = self.make_dataset()
        # records and entries in any order; entries name their record's position
        again = records.Dataset.from_columns(
            2, depth=[1, 2, 1], input=[0, 1, 0], seq=[1, 0, 0], shots=[4, 4, 4],
            record=[2, 0, 1, 0, 1], outcome=[0, 3, 1, 0, 3], count=[4, 1, 4, 3, 0],
        )
        for column in ("depth", "input", "seq", "shots"):
            assert getattr(again, column).tolist() == getattr(ds, column).tolist()
        # the zero entry is kept
        assert again.record.tolist() == [0, 1, 1, 2, 2]
        assert again.outcome.tolist() == [0, 0, 3, 1, 3]
        assert again.count.tolist() == [4, 3, 1, 4, 0]
        for cell in [(1, 0), (2, 1)]:
            np.testing.assert_array_equal(again.distributions(*cell), ds.distributions(*cell))
        with pytest.raises(ValueError, match="one outcome twice"):
            records.Dataset.from_columns(
                2, [1], [0], [0], [4], record=[0, 0], outcome=[1, 1], count=[2, 2]
            )
        with pytest.raises(ValueError, match="counts sum to 3, expected shots=4"):
            records.Dataset.from_columns(2, [1], [0], [0], [4], [0], [1], [3])

    def test_from_columns_rejects_non_integer_columns(self):
        with pytest.raises(ValueError, match="shots must be a 64-bit integer, got 3.9"):
            records.Dataset.from_columns(2, [1], [0], [0], [3.9], [0], [1], [3])
        # an integral float array is still not an integer column
        with pytest.raises(ValueError, match="depth must be a 64-bit integer, got 1.0"):
            records.Dataset.from_columns(
                2, np.array([1.0]), [0], [0], [3], [0], [1], [3]
            )
        with pytest.raises(ValueError, match="count value must be a 64-bit integer, got True"):
            records.Dataset.from_columns(2, [1], [0], [0], [1], [0], [1], np.array([True]))
        with pytest.raises(ValueError, match="record positions must be integers"):
            records.Dataset.from_columns(2, [1], [0], [0], [3], [0.0], [1], [3])
        # the first broken record is named by its position as given
        with pytest.raises(records.RecordError, match="got -2") as info:
            records.Dataset.from_columns(
                2, depth=[3, 1, 2], input=[0, 0, 0], seq=[0, -2, -1], shots=[1, 1, 1],
                record=[0, 1, 2], outcome=[0, 0, 0], count=[1, 1, 1],
            )
        assert info.value.position == 1

    def test_rejects_out_of_range_records(self):
        bad = records.CountsRecord(depth=1, input_index=5, sequence_id=0, shots=1, counts={0: 1})
        with pytest.raises(ValueError):
            records.Dataset(n=2, records=[bad])
        bad = records.CountsRecord(depth=1, input_index=0, sequence_id=0, shots=1, counts={4: 1})
        with pytest.raises(ValueError):
            records.Dataset(n=2, records=[bad])

    def test_file_round_trip(self, tmp_path):
        ds = self.make_dataset()
        path = tmp_path / "data.jsonl"
        ds.write_jsonl(path)
        back = records.Dataset.read_jsonl(path)
        assert back.n == 2
        assert len(back) == 3
        original = {r.sort_key(): r.counts for r in ds.records}
        loaded = {r.sort_key(): r.counts for r in back.records}
        assert loaded == original
        # canonical order makes rewrites byte-identical
        second = tmp_path / "again.jsonl"
        back.write_jsonl(second)
        assert path.read_bytes() == second.read_bytes()

    def test_read_reports_line_numbers(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text(
            '{"depth":1,"input":"00","seq":0,"shots":2,"counts":{"00":2}}\n'
            "garbage\n"
        )
        with pytest.raises(ValueError, match=":2:"):
            records.Dataset.read_jsonl(path)

    def test_read_rejects_mixed_widths(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text(
            '{"depth":1,"input":"00","seq":0,"shots":2,"counts":{"00":2}}\n'
            '{"depth":1,"input":"0","seq":1,"shots":2,"counts":{"0":2}}\n'
        )
        with pytest.raises(ValueError, match="qubit count"):
            records.Dataset.read_jsonl(path)

    def test_read_rejects_duplicate_records(self, tmp_path):
        path = tmp_path / "data.jsonl"
        line = '{"depth":1,"input":"01","seq":4,"shots":2,"counts":{"00":2}}\n'
        path.write_text(line + line.replace('"seq":4', '"seq":5') + line)
        with pytest.raises(ValueError, match=r"data\.jsonl: duplicate record .*seq=4"):
            records.Dataset.read_jsonl(path)

    def test_read_rejects_empty_file(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text("\n\n")
        with pytest.raises(ValueError, match="empty"):
            records.Dataset.read_jsonl(path)


GOOD_LINE = '{"depth":1,"input":"00","seq":0,"shots":2,"counts":{"00":2}}'


def bad_line(counts):
    return '{"depth":2,"input":"10","seq":3,"shots":5,"counts":%s}' % counts


class TestCellMeans:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 7), seed=st.integers(0, 2**32 - 1))
    def test_bits_match_stacked_cell_means(self, n, seed):
        # unequal circuit counts and shots per cell, gapped sequence ids,
        # and subsets of the depths and inputs in any order
        rng = np.random.default_rng(seed)
        size = 1 << n
        depths = rng.choice(8, size=rng.integers(1, 5), replace=False).tolist()
        inputs = rng.choice(size, size=rng.integers(1, min(size, 6) + 1), replace=False).tolist()
        cells = []
        for depth in depths:
            for index in inputs:
                for seq in rng.choice(20, size=rng.integers(1, 6), replace=False).tolist():
                    shots = int(rng.integers(1, 40))
                    outcomes, counts = np.unique(rng.integers(0, size, shots), return_counts=True)
                    counts = dict(zip(outcomes.tolist(), counts.tolist()))
                    cells.append(records.CountsRecord(depth, index, seq, shots, counts))
        ds = records.Dataset(n, cells)
        chosen_depths = rng.permutation(depths)[: rng.integers(1, len(depths) + 1)].tolist()
        chosen_inputs = rng.permutation(inputs)[: rng.integers(1, len(inputs) + 1)].tolist()
        got = ds.cell_means(chosen_depths, chosen_inputs)
        expected = stacked_cell_means(ds, chosen_depths, chosen_inputs)
        assert got.shape == (len(chosen_inputs), len(chosen_depths), size)
        assert got.tobytes() == expected.tobytes()

    def test_coverage_and_repeated_inputs(self):
        ds = simulator.generate_dataset(
            simulator.iid_bitflip(2, 0.05), depths=[1, 2], circuits_per_depth=2,
            inputs=[0, 3], shots=16, seed=4,
        )
        assert ds.circuits(2, 3) == 2
        with pytest.raises(CoverageError, match=r"m=3, in=11"):
            ds.cell_means([1, 3], [3])
        with pytest.raises(CoverageError):
            ds.cell_means([1], [1])
        with pytest.raises(ValueError, match="repeat"):
            ds.cell_means([1], [0, 0])


class TestCodecEdgeCases:
    """Expected lines and messages are what the per-record codec gave."""

    def test_unsorted_keys_and_zero_count_write_back_canonically(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text(GOOD_LINE + "\n" + bad_line('{"11":1,"01":0,"00":4}') + "\n")
        out = tmp_path / "out.jsonl"
        records.Dataset.read_jsonl(path).write_jsonl(out)
        assert out.read_text() == (
            GOOD_LINE + "\n"
            '{"depth":2,"input":"10","seq":3,"shots":5,"counts":{"00":4,"01":0,"11":1}}\n'
        )

    @pytest.mark.parametrize("bad_first", [False, True])
    @pytest.mark.parametrize(
        "counts,message",
        [
            ('{"0x":5}', "malformed dataset record: invalid bitstring '0x'"),
            ('{"011":5}', "outcome bitstring '011' does not have 2 bits"),
            ('{"00":-1,"01":6}', "malformed dataset record: negative count value"),
            ('{"00":3,"01":1}', "malformed dataset record: counts sum to 4, expected shots=5"),
        ],
    )
    def test_bad_counts_name_their_line(self, tmp_path, counts, message, bad_first):
        path = tmp_path / "data.jsonl"
        lines = [bad_line(counts), GOOD_LINE] if bad_first else [GOOD_LINE, bad_line(counts)]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as info:
            records.Dataset.read_jsonl(path)
        assert str(info.value) == f"{path}:{1 if bad_first else 2}: {message}"

    @pytest.mark.parametrize("bad_first", [False, True])
    @pytest.mark.parametrize(
        "fields,message",
        [
            ('"depth":-1,"input":"10","seq":3,"shots":5',
             "malformed dataset record: depth must be >= 0, got -1"),
            ('"depth":2,"input":"10","seq":-1,"shots":5',
             "malformed dataset record: sequence id must be >= 0, got -1"),
            ('"depth":2,"input":"10","seq":3,"shots":0',
             "malformed dataset record: shots must be >= 1, got 0"),
            ('"depth":2,"input":"1x","seq":3,"shots":5',
             "malformed dataset record: invalid bitstring '1x'"),
            ('"depth":2,"input":"0000000000000","seq":3,"shots":5',
             "malformed dataset record: qubit count must be in [1, 12], got 13"),
        ],
    )
    def test_bad_fields_name_their_line(self, tmp_path, fields, message, bad_first):
        bad = '{%s,"counts":{"00":5}}' % fields
        lines = [bad, GOOD_LINE] if bad_first else [GOOD_LINE, bad]
        with pytest.raises(ValueError) as info:
            read_lines(tmp_path, *lines)
        assert str(info.value) == f"{tmp_path / 'data.jsonl'}:{1 if bad_first else 2}: {message}"

    @pytest.mark.parametrize("counts", ["null", "[]", '[["00",5]]', "5", '"00"'])
    def test_counts_must_be_an_object(self, tmp_path, counts):
        with pytest.raises(ValueError) as info:
            read_lines(tmp_path, GOOD_LINE, bad_line(counts))
        assert str(info.value).endswith(
            "data.jsonl:2: malformed dataset record: counts must be a JSON object"
        )

    @pytest.mark.parametrize(
        "line,message",
        [
            ('{"depth":2,"input":"10","seq":3,"shots":2.9,"counts":{"00":5}}',
             "shots must be a 64-bit integer, got 2.9"),
            ('{"depth":true,"input":"10","seq":3,"shots":5,"counts":{"00":5}}',
             "depth must be a 64-bit integer, got True"),
            ('{"depth":2,"input":"10","seq":"7","shots":5,"counts":{"00":5}}',
             "sequence id must be a 64-bit integer, got '7'"),
            ('{"depth":null,"input":"10","seq":3,"shots":5,"counts":{"00":5}}',
             "depth must be a 64-bit integer, got None"),
            ('{"depth":2,"input":"10","seq":3,"shots":5,"counts":{"00":5.0}}',
             "count value must be a 64-bit integer, got 5.0"),
            ('{"depth":2,"input":"10","seq":3,"shots":5,"counts":{"00":4,"01":false}}',
             "count value must be a 64-bit integer, got False"),
            ('{"depth":%d,"input":"10","seq":3,"shots":5,"counts":{"00":5}}' % (1 << 63),
             f"depth must be a 64-bit integer, got {1 << 63}"),
        ],
    )
    def test_json_values_must_be_integers(self, tmp_path, line, message):
        with pytest.raises(ValueError) as info:
            read_lines(tmp_path, GOOD_LINE, line)
        assert str(info.value).endswith(f"data.jsonl:2: malformed dataset record: {message}")

    @pytest.mark.parametrize(
        "line,message",
        [
            (bad_line('{"00":3,"00":2}'), "repeated key '00' in counts"),
            (bad_line('{"00":5}')[:-1] + ',"seq":4}', "repeated key 'seq' in a record"),
        ],
    )
    def test_repeated_keys_are_rejected(self, tmp_path, line, message):
        with pytest.raises(ValueError) as info:
            read_lines(tmp_path, GOOD_LINE, line)
        assert str(info.value).endswith(f"data.jsonl:2: malformed dataset record: {message}")

    def test_first_bad_line_is_reported(self, tmp_path):
        sums_wrong = bad_line('{"00":4}')
        later = GOOD_LINE.replace('"seq":0', '"seq":1')
        with pytest.raises(ValueError, match=r"data\.jsonl:2: .*counts sum to 4"):
            read_lines(tmp_path, GOOD_LINE, sums_wrong, later, "{broken")
        with pytest.raises(ValueError, match=r"data\.jsonl:2: .*Expecting"):
            read_lines(tmp_path, GOOD_LINE, "{broken", later, sums_wrong)
        with pytest.raises(ValueError, match=r"data\.jsonl:3: .*negative count"):
            read_lines(tmp_path, "# header", GOOD_LINE, bad_line('{"00":-1,"01":6}'),
                       bad_line('{"00":3,"00":2}'))

    def test_lines_match_the_one_record_formatter(self, tmp_path):
        gt = simulator.iid_bitflip(3, 0.05, readout=0.03)
        ds = simulator.generate_dataset(
            gt, depths=[4, 0], circuits_per_depth=3, inputs=[0, 5, 6], shots=50, seed=2
        )
        path = tmp_path / "data.jsonl"
        ds.write_jsonl(path, header="h")
        lines = path.read_text().splitlines()
        assert lines[0] == "# h"
        assert lines[1:] == [record_to_json(record, 3) for record in ds.records]

    def test_columnar_pipeline_builds_no_counts_records(self, tmp_path, monkeypatch):
        built = []
        check = records.CountsRecord.__post_init__

        def counted(self):
            built.append(self)
            check(self)

        monkeypatch.setattr(records.CountsRecord, "__post_init__", counted)
        gt = simulator.iid_bitflip(2, 0.05, readout=0.02)
        ds = simulator.generate_dataset(
            gt, depths=[0, 3], circuits_per_depth=4, inputs=[0, 1, 2, 3], shots=32, seed=1
        )
        path = tmp_path / "data.jsonl"
        ds.write_jsonl(path)
        back = records.Dataset.read_jsonl(path)
        assert len(ds.records) == len(back.records) == 32
        assert built == []
        back.records[0]
        assert len(built) == 1


COLUMNS = ("depth", "input", "seq", "shots", "record", "outcome", "count")
INT63 = st.integers(0, 2**63 - 1)


def read_outcome(reader, path):
    """What a reader makes of a file: its n and columns, or its message."""
    try:
        ds = reader(path)
    except ValueError as exc:
        return str(exc)
    return ds.n, [getattr(ds, column).tolist() for column in COLUMNS]


@st.composite
def column_datasets(draw):
    """Datasets of a few records at n = 1..12, with depth, seq, shots and
    counts up to 2**63 - 1, so some values have 19 digits."""
    n = draw(st.sampled_from([1, 2, 5, 12]))
    size = draw(st.integers(1, 5))
    seqs = draw(st.lists(INT63, min_size=size, max_size=size, unique=True))
    depth, input, shots, record, outcome, count = [], [], [], [], [], []
    for position in range(size):
        outcomes = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=4, unique=True))
        counts = draw(st.lists(st.integers(0, (2**63 - 1) // 4), min_size=len(outcomes),
                               max_size=len(outcomes)))
        counts[0] += sum(counts) == 0
        depth.append(draw(INT63))
        input.append(draw(st.integers(0, (1 << n) - 1)))
        shots.append(sum(counts))
        record += [position] * len(outcomes)
        outcome += outcomes
        count += counts
    return records.Dataset.from_columns(n, depth, input, seqs, shots, record, outcome, count)


class TestBlockCodec:
    """write_jsonl renders blocks of bytes, and read_jsonl parses a file in
    blocks when each renders back to itself, else reads it line by line."""

    @settings(max_examples=60, deadline=None)
    @given(ds=column_datasets(), block=st.sampled_from(["default", "short", "exact"]))
    def test_round_trip(self, ds, block):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.jsonl")
            ds.write_jsonl(path, header="h")
            with open(path, "rb") as handle:
                text = handle.read()
            assert text.decode() == "".join(
                f"{line}\n" for line in ["# h"] + [record_to_json(r, ds.n) for r in ds.records]
            )
            body = len(text) - len("# h\n")
            # "short": every line is longer than a block; "exact": the lines
            # after the header fill a whole number of blocks
            size = {
                "default": records._READ_BYTES,
                "short": 7,
                "exact": next(d for d in range(8, body + 1) if body % d == 0),
            }[block]
            with mock.patch.object(records, "_READ_BYTES", size):
                back = read_outcome(records.Dataset.read_jsonl, path)
                parsed = records._read_rendered(path)
            assert back == read_outcome(records._read_lines, path)
            assert back == (ds.n, [getattr(ds, column).tolist() for column in COLUMNS])
            # a 19-digit value is left to the line reader
            nineteen = any(
                getattr(ds, column).max() >= 10**18 for column in ("depth", "seq", "shots", "count")
            )
            assert (parsed is None) == nineteen

    def test_line_longer_than_a_block(self, tmp_path):
        size = 1 << 12
        counts = np.arange(size) + 10**6
        ds = records.Dataset.from_columns(
            12, [3], [size - 1], [0], [int(counts.sum())], [0] * size, np.arange(size), counts
        )
        path = tmp_path / "data.jsonl"
        ds.write_jsonl(path)
        assert path.stat().st_size > records._READ_BYTES
        parsed = records._read_rendered(path)
        assert parsed is not None
        assert read_outcome(lambda _: parsed, path) == read_outcome(records._read_lines, path)

    @settings(max_examples=300, deadline=None)
    @given(
        position=st.integers(0, 10**6),
        byte=st.sampled_from(b'0129":,{}#- \n\r\x00\xc3\xff'),
        edit=st.sampled_from(["replace", "insert", "delete"]),
        size=st.sampled_from([16, 1 << 16]),
    )
    def test_one_byte_edits_read_as_the_line_reader_reads_them(self, position, byte, edit, size):
        text = bytearray(CANONICAL)
        position %= len(text)
        if edit == "replace":
            text[position] = byte
        elif edit == "insert":
            text.insert(position, byte)
        else:
            del text[position]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.jsonl")
            with open(path, "wb") as handle:
                handle.write(text)
            with mock.patch.object(records, "_READ_BYTES", size):
                got = read_outcome(records.Dataset.read_jsonl, path)
            assert got == read_outcome(records._read_lines, path)

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda text: text[:-1], None),
            (lambda text: text.replace(b"\n", b"\r\n"), None),
            (lambda text: text.replace(b"}}\n", b"}}\n# note\n", 1), None),
            (lambda text: text.replace(b"}}\n", b"}}\n\n", 1), None),
            (lambda text: b"# a\rb\n" + text, ":2: malformed dataset record: Expecting value"),
            (lambda text: text.replace(b'"counts":{"00":1', b'"counts":{"00":1,"00":0'),
             ":3: malformed dataset record: repeated key '00' in counts"),
            (lambda text: text.replace(b'"seq":1', b'"seq":\xc3\xa91'),
             ":3: malformed dataset record: Expecting value"),
            (lambda text: text.replace(b'"seq":1', b'"seq":\xff1'),
             ":3: malformed dataset record: 'utf-8' codec can't decode byte 0xff"),
        ],
        ids=["no final newline", "crlf", "interior #", "blank line", "cr in header", "repeated outcome", "non-ascii record", "invalid utf-8"],
    )
    def test_other_spellings_are_read_line_by_line(self, tmp_path, edit, message):
        path = tmp_path / "data.jsonl"
        path.write_bytes(edit(CANONICAL))
        assert records._read_rendered(path) is None
        got = read_outcome(records.Dataset.read_jsonl, path)
        assert got == read_outcome(records._read_lines, path)
        if message is None:
            canonical = tmp_path / "canonical.jsonl"
            canonical.write_bytes(CANONICAL)
            assert got == read_outcome(records._read_rendered, canonical)
        else:
            assert got.startswith(f"{path}{message}")

    def test_header_lines_are_skipped_unread(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_bytes(b"# caf\xc3\xa9\n#\xff\n" + CANONICAL)
        parsed = records._read_rendered(path)
        assert parsed is not None
        assert read_outcome(lambda _: parsed, path) == read_outcome(records._read_lines, path)


CANONICAL = (
    b"# qflip dataset n=2\n"
    b'{"depth":1,"input":"00","seq":0,"shots":5,"counts":{"00":3,"11":2}}\n'
    b'{"depth":1,"input":"11","seq":1,"shots":5,"counts":{"00":1,"01":2,"11":2}}\n'
    b'{"depth":20,"input":"01","seq":1,"shots":7,"counts":{"01":7}}\n'
)
