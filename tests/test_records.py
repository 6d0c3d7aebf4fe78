"""Dataset record validation and JSONL wire-format tests."""

import numpy as np
import pytest

from qflip import records, simulator
from qflip.errors import CoverageError


class TestBitstrings:
    def test_qubit_zero_is_rightmost(self):
        assert records.index_to_bits(1, 3) == "001"
        assert records.index_to_bits(4, 3) == "100"
        assert records.bits_to_index("001") == 1

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_round_trip(self, n):
        for index in range(1 << n):
            assert records.bits_to_index(records.index_to_bits(index, n)) == index

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            records.index_to_bits(8, 3)
        with pytest.raises(ValueError):
            records.index_to_bits(-1, 3)
        with pytest.raises(ValueError):
            records.bits_to_index("0a1")
        with pytest.raises(ValueError):
            records.bits_to_index("")


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


class TestWireFormat:
    def test_exact_line(self):
        record = records.CountsRecord(
            depth=3, input_index=1, sequence_id=7, shots=100, counts={0: 61, 2: 39}
        )
        line = records.record_to_json(record, 2)
        assert line == '{"depth":3,"input":"01","seq":7,"shots":100,"counts":{"00":61,"10":39}}'
        back, n = records.record_from_json(line)
        assert n == 2
        assert back.counts == record.counts
        assert back.sort_key() == record.sort_key()

    def test_rejects_malformed_lines(self):
        for line in (
            "not json",
            "{}",
            '{"depth":1,"input":"0","seq":0,"shots":2,"counts":{"0":1}}',
            '{"depth":1,"input":"00","seq":0,"shots":2,"counts":{"000":2}}',
            '{"depth":1,"input":"00","seq":0,"shots":2,"counts":{"01":1}}',
        ):
            with pytest.raises(ValueError):
                records.record_from_json(line)


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

    def test_lines_match_the_one_record_formatter(self, tmp_path):
        gt = simulator.iid_bitflip(3, 0.05, readout=0.03)
        ds = simulator.generate_dataset(
            gt, depths=[4, 0], circuits_per_depth=3, inputs=[0, 5, 6], shots=50, seed=2
        )
        path = tmp_path / "data.jsonl"
        ds.write_jsonl(path, header="h")
        lines = path.read_text().splitlines()
        assert lines[0] == "# h"
        assert lines[1:] == [records.record_to_json(record, 3) for record in ds.records]

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
