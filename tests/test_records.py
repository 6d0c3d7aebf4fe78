"""Dataset record validation and JSONL wire-format tests."""

import os
import re
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    bits_to_index,
    csv_writer_file,
    dataset_of,
    decimal_digits,
    json_dump_file,
    record_to_json,
    render_lines,
    stacked_cell_means,
    traced_peak,
)
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


def one_record(**fields):
    """A two-qubit Dataset of one record: a good record with fields replaced."""
    good = dict(depth=1, input_index=0, sequence_id=0, shots=4, counts={0: 4})
    return dataset_of(2, [tuple(dict(good, **fields).values())])


class TestRecordRules:
    """The record rules as the Dataset constructor applies them."""

    def test_counts_must_sum_to_shots(self):
        with pytest.raises(ValueError):
            one_record(shots=10, counts={0: 4, 1: 5})

    def test_rejects_negative_fields(self):
        one_record()
        for bad in (
            dict(depth=-1),
            dict(input_index=-1),
            dict(sequence_id=-1),
            dict(shots=0, counts={}),
            dict(counts={-1: 4}),
            dict(counts={0: -4, 1: 8}),
        ):
            with pytest.raises(ValueError):
                one_record(**bad)

    def test_counts_coerced_to_ints(self):
        (record,) = one_record(counts={np.int64(2): np.int64(4)}).records
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
        with pytest.raises(records.RecordError) as info:
            one_record(**{field: value})
        assert str(info.value) == message
        assert info.value.position == 0

    @pytest.mark.parametrize(
        "n,shots,counts,message",
        [
            # the int64 sum wraps to exactly the shots
            (2, 5, [2**62] * 3 + [2**62 + 5], f"count value {2**62 + 5} exceeds shots=5"),
            # no count exceeds the shots, and the int64 sum wraps to them
            (3, 2**62, [2**62] * 5, f"counts sum to {5 * 2**62}, expected shots={2**62}"),
        ],
        ids=["count above shots", "sum past int64"],
    )
    def test_counts_that_wrap_int64_are_rejected(self, tmp_path, n, shots, counts, message):
        record = records.Record(1, 0, 0, shots, dict(enumerate(counts)))
        with pytest.raises(records.RecordError) as info:
            dataset_of(n, [record])
        assert str(info.value) == message
        assert info.value.position == 0
        path = tmp_path / "data.jsonl"
        path.write_text(record_to_json(record, n) + "\n")
        with pytest.raises(ValueError) as info:
            records.Dataset.read_jsonl(path)
        assert str(info.value) == f"{path}:1: malformed dataset record: {message}"


    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from([1, 5, 2**62, 2**63 - 1]),
                st.lists(st.sampled_from([0, 1, 4, 5, 2**62, 2**62 + 5, 2**63 - 1]), max_size=5),
                st.booleans(),
            ),
            min_size=1, max_size=4,
        ),
        block=st.sampled_from([1, 2, 3, 1 << 14]),
    )
    def test_sum_rules_match_python_integers(self, rows, block):
        """The int64 block sums name the record, and the rule, that adding
        each record's counts as Python integers names."""
        rows = [
            (total if exact and 1 <= total < 2**63 else shots, counts)
            for shots, counts, exact in rows
            for total in [sum(counts)]
        ]
        faults = [
            (position, f"count value {max(counts)} exceeds shots={shots}")
            if max(counts, default=0) > shots
            else (position, f"counts sum to {sum(counts)}, expected shots={shots}")
            for position, (shots, counts) in enumerate(rows)
            if max(counts, default=0) > shots or sum(counts) != shots
        ]
        with mock.patch.object(records, "_SUM_ENTRIES", block):
            try:
                dataset_of(3, [
                    (1, 0, seq, shots, dict(enumerate(counts)))
                    for seq, (shots, counts) in enumerate(rows)
                ])
                got = []
            except records.RecordError as exc:
                got = [(exc.position, str(exc))]
        assert got == faults[:1]


class TestWireFormat:
    def test_exact_line(self, tmp_path):
        ds = dataset_of(2, [(3, 1, 7, 100, {0: 61, 2: 39})])
        path = tmp_path / "data.jsonl"
        ds.write_jsonl(path)
        line = '{"depth":3,"input":"01","seq":7,"shots":100,"counts":{"00":61,"10":39}}'
        assert path.read_text() == line + "\n"
        back = records.Dataset.read_jsonl(path)
        assert back.n == 2
        (only,) = back.records
        assert only == ds.records[0] == (3, 1, 7, 100, {0: 61, 2: 39})

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
        return dataset_of(2, [
            (2, 1, 0, 4, {1: 4}),
            (1, 0, 1, 4, {0: 3, 3: 1}),
            (1, 0, 0, 4, {0: 4}),
        ])

    def test_grouping(self):
        ds = self.make_dataset()
        assert ds.depths() == [1, 2]
        assert ds.input_indices() == [0, 1]
        assert len(ds.distributions(2, [1])) == 1
        # rows come in sequence-id order
        rows = ds.distributions(1, [0])
        np.testing.assert_array_equal(rows, [[1, 0, 0, 0], [0.75, 0, 0, 0.25]])
        ds.require([1], [0])
        with pytest.raises(CoverageError, match=r"\(m=2, in=00\), \(m=1, in=01\)"):
            ds.require([1, 2], [0, 1])
        with pytest.raises(CoverageError, match="m=9"):
            ds.distributions(9, [0])

    def test_distributions_of_several_inputs_come_cell_after_cell(self):
        ds = dataset_of(1, [
            (1, 1, 0, 2, {1: 2}), (1, 0, 0, 2, {0: 1, 1: 1}), (1, 0, 1, 2, {0: 2}),
        ])
        np.testing.assert_array_equal(ds.distributions(1, [1, 0]), [[0, 1], [0.5, 0.5], [1, 0]])

    def test_rejects_duplicate_records(self):
        recs = list(self.make_dataset().records)
        recs.append(records.Record(1, 0, 1, 2, {0: 2}))
        with pytest.raises(ValueError, match=r"duplicate record \(depth=1, input=00, seq=1\)"):
            dataset_of(2, recs)

    def test_sorted_order(self):
        ds = self.make_dataset()
        keys = [(r.depth, r.sequence_id, r.input_index) for r in ds.records]
        assert keys == sorted(keys)
        assert [ds.depth.tolist(), ds.seq.tolist(), ds.input.tolist()] == [
            [1, 1, 2], [0, 1, 0], [0, 0, 1]
        ]
        # entries sorted by record, then outcome
        assert ds.starts.tolist() == [0, 1, 3, 4]
        assert ds.outcome.tolist() == [0, 0, 3, 1]
        assert ds.count.tolist() == [4, 3, 1, 4]

    def test_records_view(self):
        ds = self.make_dataset()
        view = ds.records
        assert len(view) == len(ds) == 3
        assert view[-1] == records.Record(
            depth=2, input_index=1, sequence_id=0, shots=4, counts={1: 4}
        )
        assert view[1].counts == {0: 3, 3: 1}
        assert [r[:3] for r in view[1:]] == [(1, 0, 1), (2, 1, 0)]
        with pytest.raises(IndexError):
            view[3]
        with pytest.raises(ValueError):
            ds.depth[0] = 5
        with pytest.raises(ValueError):
            ds.starts[0] = 1

    def test_columns_in_any_order_match_records(self):
        ds = self.make_dataset()
        # records, and the entries within a record, in any order
        again = records.Dataset(
            2, depth=[1, 2, 1], input=[0, 1, 0], seq=[1, 0, 0], shots=[4, 4, 4],
            lengths=[2, 2, 1], outcome=[3, 0, 1, 3, 0], count=[1, 3, 4, 0, 4],
        )
        for column in ("depth", "input", "seq", "shots"):
            assert getattr(again, column).tolist() == getattr(ds, column).tolist()
        # the zero entry is kept
        assert again.starts.tolist() == [0, 1, 3, 5]
        assert again.outcome.tolist() == [0, 0, 3, 1, 3]
        assert again.count.tolist() == [4, 3, 1, 4, 0]
        for depth, index in [(1, 0), (2, 1)]:
            np.testing.assert_array_equal(
                again.distributions(depth, [index]), ds.distributions(depth, [index])
            )
        with pytest.raises(ValueError, match="one outcome twice"):
            records.Dataset(2, [1], [0], [0], [4], lengths=[2], outcome=[1, 1], count=[2, 2])
        with pytest.raises(ValueError, match="counts sum to 3, expected shots=4"):
            records.Dataset(2, [1], [0], [0], [4], [1], [1], [3])

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 5)),
                    unique=True))
    def test_cell_index_lists_each_cells_records_in_seq_order(self, triples):
        depth, input_index, seq = np.array(triples, dtype=np.int64).reshape(-1, 3).T
        index = records._cell_index(2, depth, input_index, seq)
        expected = {}
        for position in sorted(range(len(triples)), key=lambda p: triples[p][2]):
            expected.setdefault(triples[position][:2], []).append(position)
        assert {cell: positions.tolist() for cell, positions in index.items()} == expected
        assert not any(positions.flags.writeable for positions in index.values())

    def test_rejects_non_integer_columns(self):
        with pytest.raises(ValueError, match="shots must be a 64-bit integer, got 3.9"):
            records.Dataset(2, [1], [0], [0], [3.9], [1], [1], [3])
        # an integral float array is still not an integer column
        with pytest.raises(ValueError, match="depth must be a 64-bit integer, got 1.0"):
            records.Dataset(2, np.array([1.0]), [0], [0], [3], [1], [1], [3])
        with pytest.raises(ValueError, match="count value must be a 64-bit integer, got True"):
            records.Dataset(2, [1], [0], [0], [1], [1], [1], np.array([True]))
        # the first broken record is named by its position as given
        with pytest.raises(records.RecordError, match="got -2") as info:
            records.Dataset(
                2, depth=[3, 1, 2], input=[0, 0, 0], seq=[0, -2, -1], shots=[1, 1, 1],
                lengths=[1, 1, 1], outcome=[0, 0, 0], count=[1, 1, 1],
            )
        assert info.value.position == 1

    def test_rejects_out_of_range_records(self):
        with pytest.raises(ValueError):
            dataset_of(2, [(1, 5, 0, 1, {0: 1})])
        with pytest.raises(ValueError):
            dataset_of(2, [(1, 0, 0, 1, {4: 1})])

    def test_file_round_trip(self, tmp_path):
        ds = self.make_dataset()
        path = tmp_path / "data.jsonl"
        ds.write_jsonl(path)
        back = records.Dataset.read_jsonl(path)
        assert back.n == 2
        assert len(back) == 3
        assert list(back.records) == list(ds.records)
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
                    cells.append((depth, index, seq, shots, counts))
        ds = dataset_of(n, cells)
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
        # a depth or input that is not an integer is named, not truncated
        # or looked up as a missing cell
        for depth, index in [(1.5, 0), (1, 1.0), (1, True)]:
            with pytest.raises(ValueError, match="is not an integer"):
                ds.circuits(depth, index)
        with pytest.raises(CoverageError, match=r"m=3, in=11"):
            ds.cell_means([1, 3], [3])
        with pytest.raises(CoverageError):
            ds.cell_means([1], [1])
        # a batch keeps its order and its repeats: a repeated input or depth
        # gives a repeated row, bit for bit
        means = ds.cell_means([2, 1, 2], [3, 0, 3])
        assert means.shape == (3, 3, 4)
        once = ds.cell_means([1, 2], [0, 3])
        for i, index in enumerate([3, 0, 3]):
            for j, depth in enumerate([2, 1, 2]):
                assert np.array_equal(means[i, j], once[[0, 3].index(index), [1, 2].index(depth)])


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
            ('{"00":6,"01":0}', "malformed dataset record: count value 6 exceeds shots=5"),
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


class TestCompactStorage:
    """Count entries are stored grouped by record behind per-record
    offsets, in the narrowest dtypes that hold them."""

    def test_generated_dataset_has_no_wide_entry_column(self):
        gt = simulator.iid_bitflip(3, 0.05, readout=0.02)
        ds = simulator.generate_dataset(
            gt, depths=[0, 4], circuits_per_depth=3, inputs=range(8), shots=1024, seed=5
        )
        entries = len(ds.count)
        # so that a per-entry array is told apart from a per-record one
        assert entries not in (len(ds), len(ds) + 1)
        assert (ds.outcome.dtype, ds.count.dtype) == (np.int16, np.int16)
        wide = [
            name for name, value in vars(ds).items()
            if isinstance(value, np.ndarray) and len(value) == entries and value.itemsize > 2
        ]
        assert wide == []
        # each record's first entry, read-only
        lengths = [len(record.counts) for record in ds.records]
        assert ds.starts.tolist() == np.cumsum([0] + lengths).tolist()
        with pytest.raises(ValueError):
            ds.starts[0] = 1

    @pytest.mark.parametrize(
        "shots,dtype",
        [(1, np.int8), (127, np.int8), (128, np.int16), (1024, np.int16),
         (2**15, np.int32), (2**31, np.int64), (2**63 - 1, np.int64)],
    )
    def test_count_dtype_is_the_narrowest_that_holds_shots(self, shots, dtype):
        assert records.count_dtype(shots) == dtype
        ds = records.Dataset(1, [0], [0], [0], [shots], [2], [1, 0], [shots - 1, 1])
        assert ds.count.dtype == dtype
        assert ds.outcome.dtype == np.int16
        assert ds.count.tolist() == [1, shots - 1]

    def test_full_range_counts_round_trip(self, tmp_path):
        top = 2**63 - 1
        ds = records.Dataset(1, [0], [1], [0], [top], [2], [0, 1], [top - 2, 2])
        assert ds.count.dtype == np.int64
        path = tmp_path / "data.jsonl"
        ds.write_jsonl(path)
        back = records.Dataset.read_jsonl(path)
        assert back.count.dtype == np.int64
        assert back.count.tolist() == [top - 2, 2]

    def test_sorts_records_and_entries(self):
        ds = TestDataset().make_dataset()
        # records out of canonical order, entries out of order in a record
        again = records.Dataset(
            2, depth=[2, 1, 1], input=[1, 0, 0], seq=[0, 1, 0], shots=[4, 4, 4],
            lengths=[1, 2, 1], outcome=[1, 3, 0, 0], count=[4, 1, 3, 4],
        )
        for column in COLUMNS:
            assert getattr(again, column).tolist() == getattr(ds, column).tolist()
        # narrow arrays of the stored dtypes are kept as they are
        outcome = np.array([1, 0], np.int16)
        count = np.array([1, 3], np.int8)
        kept = records.Dataset(2, [1], [0], [0], [4], [2], outcome, count)
        assert kept.count is not count and kept.count.dtype == np.int8
        assert kept.outcome.tolist() == [0, 1]
        in_order = np.array([0, 1], np.int16)
        kept = records.Dataset(2, [1], [0], [0], [4], [2], in_order, count)
        assert np.shares_memory(kept.outcome, in_order)

    def test_checks_lengths(self):
        with pytest.raises(ValueError, match="lengths must be non-negative integers"):
            records.Dataset(2, [1, 1], [0, 1], [0, 0], [1, 1], [2, -1], [0], [1])
        with pytest.raises(ValueError, match="lengths must be non-negative integers"):
            records.Dataset(2, [1], [0], [0], [1], [1.0], [0], [1])
        with pytest.raises(ValueError, match="count entry columns differ in length"):
            records.Dataset(2, [1], [0], [0], [1], [2], [0], [1])
        with pytest.raises(ValueError, match="per-record columns differ in length"):
            records.Dataset(2, [1], [0], [0], [1], [1, 0], [0], [1])
        # an empty record is named by the sum rule, not read as its neighbour's
        with pytest.raises(records.RecordError, match="counts sum to 0, expected shots=1") as info:
            records.Dataset(2, [1, 1], [0, 1], [0, 0], [1, 1], [0, 1], [0], [1])
        assert info.value.position == 0

    def test_narrow_columns_are_checked_as_they_are(self):
        with pytest.raises(records.RecordError, match="negative count value"):
            records.Dataset(
                2, [1], [0], [0], [1], [2], np.array([0, 1], np.int16), np.array([2, -1], np.int8)
            )
        with pytest.raises(ValueError, match="record outcome 4 out of range for n=2"):
            records.Dataset(
                2, [1], [0], [0], [1], [1], np.array([4], np.uint8), np.array([1], np.uint8)
            )
        # int8 counts that sum past 127 are added up as int64, and stored
        # in the dtype of their shots
        ds = records.Dataset(
            2, [1], [0], [0], [200], [2], np.array([0, 1], np.int16), np.array([100, 100], np.int8)
        )
        assert ds.count.dtype == np.int16
        assert ds.count.tolist() == [100, 100]


class TestLineReaderWhitespace:
    """A record line may be padded with JSON whitespace (space, tab, CR,
    LF) and nothing else."""

    LINE = '{"depth":1,"input":"0","seq":0,"shots":1,"counts":{"0":1}}'

    @pytest.mark.parametrize("pad", ["\u00a0", "\x1c", "\u3000"])
    @pytest.mark.parametrize("side", ["before", "after"])
    def test_other_space_characters_are_errors(self, tmp_path, pad, side):
        path = tmp_path / "data.jsonl"
        line = pad + self.LINE if side == "before" else self.LINE + pad
        path.write_text(f"# h\n{self.LINE}\n{line}\n", encoding="utf-8")
        prefix = re.escape(f"{path}:3: malformed dataset record: ")
        with pytest.raises(ValueError, match=f"^{prefix}"):
            records.Dataset.read_jsonl(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda text: text.replace(b"\n{", b"\n \t{").replace(b"}}\n", b"}}\t \n"),
            lambda text: text.replace(b"\n", b"\r\n"),
            lambda text: text.replace(b"}}\n", b"}}\n\n \t\n\r\n"),
        ],
        ids=["space and tab padding", "crlf", "blank lines"],
    )
    def test_json_whitespace_reads_as_before(self, tmp_path, edit):
        canonical = tmp_path / "canonical.jsonl"
        canonical.write_bytes(CANONICAL)
        path = tmp_path / "data.jsonl"
        path.write_bytes(edit(CANONICAL))
        expected = read_outcome(records.Dataset.read_jsonl, canonical)
        assert type(expected) is tuple
        assert read_outcome(records.Dataset.read_jsonl, path) == expected
        assert read_outcome(records._read_lines, path) == expected


COLUMNS = ("depth", "input", "seq", "shots", "starts", "outcome", "count")
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
    depth, input, shots, lengths, outcome, count = [], [], [], [], [], []
    for _ in range(size):
        outcomes = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=4, unique=True))
        counts = draw(st.lists(st.integers(0, (2**63 - 1) // 4), min_size=len(outcomes),
                               max_size=len(outcomes)))
        counts[0] += sum(counts) == 0
        depth.append(draw(INT63))
        input.append(draw(st.integers(0, (1 << n) - 1)))
        shots.append(sum(counts))
        lengths.append(len(outcomes))
        outcome += outcomes
        count += counts
    return records.Dataset(n, depth, input, seqs, shots, lengths, outcome, count)


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
        ds = records.Dataset(
            12, [3], [size - 1], [0], [int(counts.sum())], [size], np.arange(size), counts
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


def values_of_digits(rng, size: int, most: int) -> np.ndarray:
    """size int64 values, each of 1 to ``most`` decimal digits, the digit
    counts uniform; 19 digits reach 2**63 - 1."""
    digits = rng.integers(1, most + 1, size).tolist()
    return np.array([
        rng.integers(10 ** (d - 1) if d > 1 else 0, min(10**d - 1, 2**63 - 1), endpoint=True)
        for d in digits
    ], np.int64)


@st.composite
def kernel_columns(draw):
    """_render's arguments: n = 1..12, 1 to 4 records of 1 to 2**n count
    entries, and depth, seq, shots and count values of 1 to 19 digits."""
    n = draw(st.integers(1, 12))
    lengths = draw(st.lists(st.one_of(st.just(1 << n), st.integers(1, 1 << n)), min_size=1,
                            max_size=4))
    most = {column: draw(st.integers(1, 19)) for column in ("depth", "seq", "shots", "count")}
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    records_, entries = len(lengths), sum(lengths)
    count = values_of_digits(rng, entries, most["count"])
    outcome = np.concatenate([np.sort(rng.choice(1 << n, size, replace=False)) for size in lengths])
    return (
        n, values_of_digits(rng, records_, most["depth"]), rng.integers(0, 1 << n, records_),
        values_of_digits(rng, records_, most["seq"]), values_of_digits(rng, records_, most["shots"]),
        outcome.astype(records.OUTCOME_DTYPE), count.astype(records.count_dtype(count.max())),
        np.concatenate([[0], np.cumsum(lengths)]),
    )


class TestCodecKernels:
    """The table-gather kernels give the bytes and values of the division
    kernels they replaced (oracles.render_lines and bits_to_index)."""

    @settings(max_examples=80, deadline=None)
    @given(columns=kernel_columns())
    def test_render_and_parse_match_the_reference(self, columns):
        n, depth, input, seq, shots, outcome, count, starts = columns
        rendered = records._render(*columns)
        assert rendered == render_lines(*columns)
        parsed = records._parse_block(n, rendered)
        if max(depth.max(), seq.max(), shots.max(), count.max()) >= 10**18:
            assert parsed is None
            return
        expected = (depth, input, seq, shots, np.diff(starts), outcome, count)
        assert [column.tolist() for column in parsed] == [column.tolist() for column in expected]

    @pytest.mark.parametrize("n", [1, 12])
    def test_values_at_the_table_edges(self, n):
        values = np.array([0, 9, 10, 99, 100, 9999, 10**4, 10**4 + 1, 99999, 10**8, 10**18 - 1,
                           10**18, 2**63 - 1], np.int64)
        size = len(values)
        columns = (
            n, values, np.arange(size) % (1 << n), values[::-1].copy(), values,
            np.full(size, (1 << n) - 1, records.OUTCOME_DTYPE), values, np.arange(size + 1),
        )
        assert records._render(*columns) == render_lines(*columns)
        for width in range(1, records._TABLE_DIGITS + 1):
            table = records._digit_table(width)
            assert table.tobytes() == decimal_digits(np.arange(10**width)).tobytes()

    @pytest.mark.parametrize("n", [1, 5, 12])
    def test_bitstrings_read_as_the_decimal_reading(self, n):
        rng = np.random.default_rng(n)
        index = np.concatenate([[0, (1 << n) - 1], rng.integers(0, 1 << n, 200)])
        text = np.frombuffer("".join(f"{i:0{n}b}" for i in index).encode() + bytes(n), np.uint8)
        decimal = np.array([int(f"{i:0{n}b}") for i in index], np.int64)
        got = records._indices(text, np.arange(len(index)) * n, n)
        assert got.tolist() == bits_to_index(decimal, n).tolist() == index.tolist()

    @pytest.mark.parametrize(
        "old,new,outcome",
        [
            (b'"seq":0,', b'"seq":0x,',
             ":2: malformed dataset record: Expecting ',' delimiter: line 1 column 32 (char 31)"),
            (b'"depth":20', b'"depth":020',
             ":4: malformed dataset record: Expecting ',' delimiter: line 1 column 11 (char 10)"),
            (b'"01":7', b'"01":07',
             ":4: malformed dataset record: Expecting ',' delimiter: line 1 column 60 (char 59)"),
            (b'"shots":5,"counts":{"00":1', b'"shots": 5,"counts":{"00":1', None),
            (b'"01":7}}', b'"01":7}',
             ":4: malformed dataset record: Expecting ',' delimiter: line 1 column 61 (char 60)"),
            (b'{"00":3,"11":2}', b'{"11":2,"00":3}', None),
        ],
        ids=["stray letter", "leading zero", "leading zero count", "space", "missing brace",
             "outcomes out of order"],
    )
    def test_mutated_block_is_left_to_the_line_reader(self, tmp_path, old, new, outcome):
        assert CANONICAL.count(old) == 1
        path = tmp_path / "data.jsonl"
        path.write_bytes(CANONICAL.replace(old, new))
        assert records._read_rendered(path) is None
        got = read_outcome(records.Dataset.read_jsonl, path)
        assert got == read_outcome(records._read_lines, path)
        if outcome is None:
            # the line reader takes the spelling and gives the canonical file's columns
            canonical = tmp_path / "canonical.jsonl"
            canonical.write_bytes(CANONICAL)
            assert got == read_outcome(records._read_rendered, canonical)
        else:
            assert got == f"{path}{outcome}"


CANONICAL = (
    b"# qflip dataset n=2\n"
    b'{"depth":1,"input":"00","seq":0,"shots":5,"counts":{"00":3,"11":2}}\n'
    b'{"depth":1,"input":"11","seq":1,"shots":5,"counts":{"00":1,"01":2,"11":2}}\n'
    b'{"depth":20,"input":"01","seq":1,"shots":7,"counts":{"01":7}}\n'
)


SPECIAL_FLOATS = [-0.0, 5e-324, 1e16, 1e-5, 1e308, float("nan"), float("inf"), float("-inf")]
FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
# a CSV column kind: its %-format, its values, and the field csv.writer
# was given for a value, formatted as the CSV writers used to format it
CSV_KINDS = {
    "int": ("%d", st.integers(), lambda value: value),
    "float": ("%.12g", FLOATS, lambda value: f"{value:.12g}"),
    "text": (
        "%s",
        st.one_of(
            st.sampled_from(["all", "MEM", "ill_conditioned", ""]),
            st.text("01", min_size=1, max_size=12),
            st.booleans(),
        ),
        lambda value: value,
    ),
    # the jsd column of predictions written without a dataset: no value
    "empty": ("", st.none(), lambda value: ""),
}
JSON_VALUES = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(), FLOATS, st.text(),
        st.lists(st.floats(allow_nan=False, allow_infinity=False)),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.tuples(FLOATS, FLOATS),
        st.dictionaries(st.text(), inner, max_size=4),
    ),
    max_leaves=16,
)


@st.composite
def csv_tables(draw):
    """(column kinds, rows); every artifact CSV has several columns."""
    kinds = draw(st.lists(st.sampled_from(sorted(CSV_KINDS)), min_size=2, max_size=6))
    rows = draw(st.lists(st.tuples(*(CSV_KINDS[kind][1] for kind in kinds)), max_size=8))
    return kinds, rows


class TestArtifactWriters:
    """write_csv and write_json give the bytes csv.writer and json.dump gave."""

    @settings(max_examples=150, deadline=None)
    @given(
        table=csv_tables(),
        chunk=st.sampled_from([1, 3, 10, records._CSV_VALUES]),
        header=st.sampled_from([None, "n=2 seed=11 config_sha256=0123abcd"]),
    )
    @example(
        table=(["int", "text", "empty", "float", "float"], [(10, "01", None, 0.25, -0.0)] * 4),
        chunk=3,
        header="h",
    )
    def test_csv_matches_csv_writer(self, table, chunk, header):
        kinds, rows = table
        columns = [f"c{i}" for i in range(len(kinds))]
        fmt = ",".join(CSV_KINDS[kind][0] for kind in kinds)
        values = [tuple(v for kind, v in zip(kinds, row) if kind != "empty") for row in rows]
        fields = [[CSV_KINDS[kind][2](v) for kind, v in zip(kinds, row)] for row in rows]
        patch = mock.patch.object(records, "_CSV_VALUES", chunk)
        with tempfile.TemporaryDirectory() as tmp, patch:
            got, want = os.path.join(tmp, "got.csv"), os.path.join(tmp, "want.csv")
            records.write_csv(got, header, columns, fmt, iter(values))
            csv_writer_file(want, header, columns, fields)
            with open(got, "rb") as mine, open(want, "rb") as theirs:
                assert mine.read() == theirs.read()

    @settings(max_examples=150, deadline=None)
    @given(payload=JSON_VALUES)
    @example(payload={
        "p": [-0.0, 5e-324, 1e16, 1e-5, 0.1, 1e308, 1e308],
        "x": [float("nan"), float("inf"), float("-inf"), 1.0],
        "empty": [], "object": {}, "nested": {"deeper": {"list": [[], {}]}},
        "readout": [(0.01, 0.02), (0.03, 0.04)],
        "text": "caf\u00e9 \u2713 \"quoted\"\n", "caf\u00e9": 1,
        "flags": [True, False, None, 3, -7, 2**70],
    })
    def test_json_matches_json_dump(self, payload):
        with tempfile.TemporaryDirectory() as tmp:
            got, want = os.path.join(tmp, "got.json"), os.path.join(tmp, "want.json")
            records.write_json(got, payload)
            json_dump_file(want, payload)
            with open(got, "rb") as mine, open(want, "rb") as theirs:
                assert mine.read() == theirs.read()

    def test_json_keys_must_be_strings(self, tmp_path):
        with pytest.raises(TypeError, match="keys must be strings"):
            records.write_json(tmp_path / "bad.json", {"inputs": {1: [0.5]}})
