"""Shot-count records and the JSON-lines dataset format.

One record holds the outcome counts of a single circuit submission:
(depth, input state, sequence id, shots, counts). Outcomes and inputs are
n-bit basis indices; on the wire they appear as bitstrings whose rightmost
character is qubit 0. A Dataset holds its records as flat columns.

The other artifact files are read and written here too: ``read_json`` and
``write_json`` for model.json, profile.json and rb.json, and ``write_csv``
for the CSV reports, whose '# ' header line is written as the dataset's is.
``holds_numbers`` is the number rule of the JSON payloads, and
``require_cells`` the missing-cell error of datasets and averages alike.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, CoverageError, format_missing
from .transforms import MAX_QUBITS, check_basis_indices, check_qubit_count

__all__ = ["CountsRecord", "Dataset", "RecordError", "index_to_bits"]

# one dataset line; the counts are '"<bits>":<count>' entries in outcome order
_LINE = '{"depth":%d,"input":"%s","seq":%d,"shots":%d,"counts":{%s}}'
_INT64 = range(-(1 << 63), 1 << 63)

# a JSON object decodes to a tuple of (key, value) pairs: a repeated key
# stays visible, and an object is told apart from an array
_DECODE = json.JSONDecoder(object_pairs_hook=tuple).raw_decode


def index_to_bits(index: int, n: int) -> str:
    """Basis index -> n-character bitstring, qubit 0 rightmost."""
    if not 0 <= index < (1 << n):
        raise ValueError(f"index {index} out of range for {n} qubits")
    return format(index, f"0{n}b")


class RecordError(ValueError):
    """A record breaks a rule; ``position`` is its index in the columns."""

    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.position = position


def _integers(column):
    """The column as int64, and {position: value} of its entries that are
    not 64-bit integers (stored as 0)."""
    if isinstance(column, np.ndarray):
        if column.dtype.kind in "iu" and np.can_cast(column.dtype, np.int64):
            return column.astype(np.int64, copy=False).reshape(-1), {}
        column = column.reshape(-1).tolist()
    if all(kind is int or issubclass(kind, np.integer) for kind in set(map(type, column))):
        with contextlib.suppress(OverflowError):
            return np.array(column, dtype=np.int64), {}
    values = [v.item() if isinstance(v, np.generic) else v for v in column]
    wrong = {i: v for i, v in enumerate(values) if type(v) is not int or v not in _INT64}
    return np.array([0 if i in wrong else v for i, v in enumerate(values)], dtype=np.int64), wrong


def _check_fields(depth, input_index, seq, shots, record, outcome, count):
    """Check per-record columns and COO count entries (``record`` holding
    each entry's record position), as lists or integer arrays, against
    every CountsRecord rule; returns them as int64 arrays (intp for
    ``record``). Raises RecordError for the first record that breaks a
    rule, with the message of the first rule it breaks in the order listed.
    """
    record, wrong = _integers(record)
    if wrong:
        raise ValueError("count entry record positions must be integers")
    columns = (depth, input_index, seq, shots, outcome, count)
    (depth, input_index, seq, shots, outcome, count), wrongs = zip(*map(_integers, columns))
    size = len(depth)
    if not size == len(input_index) == len(seq) == len(shots):
        raise ValueError("per-record columns differ in length")
    if not len(record) == len(outcome) == len(count):
        raise ValueError("count entry columns differ in length")
    if record.size and not 0 <= record.min() <= record.max() < size:
        raise ValueError("count entry names a record that does not exist")
    record = record.astype(np.intp, copy=False)
    # each record's first value that is not an integer; an entry's is its record's
    faults = {}
    names = ("depth", "input index", "sequence id", "shots", "outcome index", "count value")
    for name, wrong, per_entry in zip(names, wrongs, [False] * 4 + [True] * 2):
        for position, value in wrong.items():
            owner = int(record[position]) if per_entry else position
            faults.setdefault(owner, f"{name} must be a 64-bit integer, got {value!r}")
    negative_outcome = np.zeros(size, dtype=bool)
    negative_outcome[record[outcome < 0]] = True
    negative_count = np.zeros(size, dtype=bool)
    negative_count[record[count < 0]] = True
    totals = np.zeros(size, dtype=np.int64)
    np.add.at(totals, record, count)
    rules = [
        (depth < 0, lambda i: f"depth must be >= 0, got {depth[i]}"),
        (input_index < 0, lambda i: f"input index must be >= 0, got {input_index[i]}"),
        (seq < 0, lambda i: f"sequence id must be >= 0, got {seq[i]}"),
        (shots < 1, lambda i: f"shots must be >= 1, got {shots[i]}"),
        (negative_outcome, lambda i: "negative outcome index in counts"),
        (negative_count, lambda i: "negative count value"),
        (totals != shots, lambda i: f"counts sum to {totals[i]}, expected shots={shots[i]}"),
    ]
    broken = np.logical_or.reduce([mask for mask, _ in rules])
    broken[list(faults)] = True
    if broken.any():
        position = int(np.argmax(broken))
        message = faults.get(position) or next(
            message(position) for mask, message in rules if mask[position]
        )
        raise RecordError(message, position)
    return depth, input_index, seq, shots, record, outcome, count


@dataclass(frozen=True, eq=False)
class CountsRecord:
    """Outcome counts for one circuit run at one depth and input state."""

    depth: int
    input_index: int
    sequence_id: int
    shots: int
    counts: dict[int, int]

    def __post_init__(self):
        *_, outcome, count = _check_fields(
            [self.depth], [self.input_index], [self.sequence_id], [self.shots],
            [0] * len(self.counts), list(self.counts), list(self.counts.values()),
        )
        object.__setattr__(self, "counts", dict(zip(outcome.tolist(), count.tolist())))

    def sort_key(self):
        return (self.depth, self.sequence_id, self.input_index)


def _object(pairs, name: str) -> dict:
    """A decoded JSON object as a dict; ValueError if it is none or repeats a key."""
    if type(pairs) is not tuple:
        raise ValueError(f"{name} must be a JSON object")
    fields = dict(pairs)
    if len(fields) < len(pairs):
        key = next(key for key, seen in Counter(key for key, _ in pairs).items() if seen > 1)
        raise ValueError(f"repeated key {key!r} in {name}")
    return fields


def read_json(path, what: str) -> dict:
    """The JSON object in a file (model.json, profile.json). ConfigError for
    a missing file ('<what> not found: <path>'), and '<path>: <reason>' for
    text that is not JSON, an object that repeats a key or a top-level
    value that is not an object."""
    if not os.path.exists(path):
        raise ConfigError(f"{what} not found: {path}")
    with open(path) as handle:
        try:
            payload = json.load(
                handle, object_pairs_hook=lambda pairs: _object(tuple(pairs), "an object")
            )
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: {what} must hold a JSON object")
    return payload


def holds_numbers(value) -> bool:
    """A JSON number, or nested arrays of them (a rates vector, per-qubit
    readout and prep); a bool is not a number."""
    if isinstance(value, (list, tuple)):
        return all(holds_numbers(item) for item in value)
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def write_json(path, payload) -> None:
    """Write payload as indented JSON with sorted keys and a final newline."""
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def write_csv(path, header: str | None, columns, rows) -> None:
    """Write a CSV artifact: the header comment line, the column names, then rows."""
    with open(path, "w", newline="") as handle:
        _write_header(handle, header)
        writer = csv.writer(handle)
        writer.writerow(columns)
        writer.writerows(rows)


def _write_header(handle, header: str | None) -> None:
    """Write header as the '# ' comment line that opens an artifact, if given."""
    if header:
        handle.write(f"# {header}\n")


def _lookup_fault(key, payload: dict, n) -> str:
    """Why a line's lookup failed: a missing field or a bitstring of another width."""
    if key in ("depth", "input", "seq", "shots", "counts") and key not in payload:
        return f"malformed dataset record: missing field {key!r}"
    if type(key) is not str or not key or key.strip("01"):
        return f"malformed dataset record: invalid bitstring {key!r}"
    if key != payload["input"]:
        return f"outcome bitstring {key!r} does not have {n} bits"
    if not 1 <= len(key) <= MAX_QUBITS:
        return f"input bitstring length {len(key)} out of range"
    return f"qubit count {len(key)} != {n} seen earlier"


def require_cells(depths, inputs, present, n: int, what: str) -> None:
    """CoverageError, '<what>' and then every (depth, input) cell of
    depths x inputs that is not in present."""
    missing = [
        (depth, index) for index in inputs for depth in depths if (depth, index) not in present
    ]
    if missing:
        shown = format_missing(
            missing, lambda cell: f"(m={cell[0]}, in={index_to_bits(cell[1], n)})"
        )
        raise CoverageError(f"{what} {shown}")


def _cell_index(n, depth, input_index, seq) -> dict:
    """(depth, input) -> positions of the cell's records in sequence-id
    order; raises ValueError on a repeated (depth, input, seq) triple."""
    if not len(depth):
        return {}
    by_cell = np.lexsort((seq, input_index, depth))
    d, i, s = depth[by_cell], input_index[by_cell], seq[by_cell]
    same_cell = (d[1:] == d[:-1]) & (i[1:] == i[:-1])
    repeated = np.flatnonzero(same_cell & (s[1:] == s[:-1]))
    if repeated.size:
        j = repeated[0]
        raise ValueError(
            f"duplicate record (depth={d[j]}, "
            f"input={index_to_bits(int(i[j]), n)}, seq={s[j]})"
        )
    firsts = np.concatenate([[0], np.flatnonzero(~same_cell) + 1])
    return {
        (int(d[first]), int(i[first])): positions
        for first, positions in zip(firsts, np.split(by_cell, firsts[1:]))
    }


class Dataset:
    """Counts over a fixed qubit count, held as flat read-only columns.

    Records are in canonical (depth, seq, input) order, the order of the
    JSON-lines file. Per record: ``depth``, ``input``, ``seq`` and
    ``shots``. The counts are COO entries (``record``, ``outcome``,
    ``count``) sorted by record, then outcome; ``record`` is the record's
    position, and an entry read from a file may hold a zero count.

    ``Dataset(n, records)`` builds one from CountsRecords and
    ``Dataset.from_columns`` from arrays; both go through the same checks.
    Each (depth, input) cell indexes its records in sequence-id order; a
    repeated (depth, input, seq) triple is rejected.
    """

    def __init__(self, n: int, records=()):
        records = list(records)
        self._store(
            n,
            [record.depth for record in records],
            [record.input_index for record in records],
            [record.sequence_id for record in records],
            [record.shots for record in records],
            np.repeat(np.arange(len(records)), [len(record.counts) for record in records]),
            [outcome for record in records for outcome in record.counts],
            [count for record in records for count in record.counts.values()],
        )

    @classmethod
    def from_columns(cls, n, depth, input, seq, shots, record, outcome, count) -> "Dataset":
        """A dataset from per-record columns and COO count entries.

        Records and entries may come in any order; each entry's ``record``
        is the position of its record in the per-record columns. Arrays of
        the stored dtypes (int64; intp for ``record``) are kept without a
        copy, so the caller must not modify them afterwards.
        """
        dataset = cls.__new__(cls)
        dataset._store(n, depth, input, seq, shots, record, outcome, count)
        return dataset

    def _store(self, n, *columns) -> None:
        check_qubit_count(n)
        depth, input, seq, shots, record, outcome, count = _check_fields(*columns)
        size = 1 << n
        outside = input >= size
        outside[record[outcome >= size]] = True
        if outside.any():
            position = int(np.argmax(outside))
            # the record's input is named if it is outside, else its outcome
            check_basis_indices(input[position], n, "record input")
            check_basis_indices(outcome[record == position], n, "record outcome")

        # columns from the simulator or a written file are already in
        # canonical order; sort only when they are not
        order = np.lexsort((input, seq, depth))
        if np.any(order != np.arange(len(order))):
            rank = np.empty_like(order)
            rank[order] = np.arange(len(order))
            depth, input, seq, shots = depth[order], input[order], seq[order], shots[order]
            record = rank[record]
        same_record = record[1:] == record[:-1]
        if not np.all((record[1:] > record[:-1]) | (same_record & (outcome[1:] > outcome[:-1]))):
            entries = np.lexsort((outcome, record))
            record, outcome, count = record[entries], outcome[entries], count[entries]
            if np.any((record[1:] == record[:-1]) & (outcome[1:] == outcome[:-1])):
                raise ValueError("a record lists one outcome twice")

        self.n = n
        self.depth, self.input, self.seq, self.shots = depth, input, seq, shots
        self.record, self.outcome, self.count = record, outcome, count
        # entries of record r are [_starts[r], _starts[r + 1])
        self._starts = np.searchsorted(record, np.arange(len(depth) + 1))
        for column in (depth, input, seq, shots, record, outcome, count, self._starts):
            column.flags.writeable = False
        self._cells = _cell_index(n, depth, input, seq)

    @property
    def size(self) -> int:
        return 1 << self.n

    def __len__(self) -> int:
        return len(self.depth)

    @property
    def records(self) -> Sequence:
        """Read-only sequence of the records in canonical order; each
        CountsRecord is built when indexed."""
        return _RecordView(self)

    def depths(self) -> list[int]:
        return sorted({depth for depth, _ in self._cells})

    def input_indices(self) -> list[int]:
        return sorted({index for _, index in self._cells})

    def require(self, depths, inputs) -> None:
        """Raise CoverageError naming every (depth, input) cell with no records."""
        require_cells(depths, inputs, self._cells, self.n, "dataset is missing records for")

    def circuits(self, depth: int, input_index: int) -> int:
        """Number of records (circuits) in the (depth, input) cell."""
        self.require([depth], [input_index])
        return len(self._cells[(depth, input_index)])

    def distributions(self, depth: int, input_index: int) -> np.ndarray:
        """Normalized counts of the cell's circuits, one row per record."""
        self.require([depth], [input_index])
        return self._rows(self._cells[(depth, input_index)])

    def cell_means(self, depths, inputs) -> np.ndarray:
        """Mean normalized counts per cell as an ``(inputs, depths, 2**n)`` table.

        Entry ``[i, j]`` adds the rows of ``distributions(depths[j],
        inputs[i])`` one at a time in sequence-id order (a depth's rows sit
        in a zero-padded ``(inputs, circuits, 2**n)`` block by rank in their
        cell, summed along the circuit axis) and divides by their number.
        One depth at a time, never from the whole dataset at once.
        """
        depths, inputs = [int(d) for d in depths], [int(i) for i in inputs]
        if len(set(inputs)) < len(inputs):
            raise ValueError("cell_means inputs repeat an index")
        self.require(depths, inputs)
        means = np.empty((len(inputs), len(depths), self.size))
        for j, depth in enumerate(depths):
            cells = [self._cells[depth, index] for index in inputs]
            circuits = np.array([len(positions) for positions in cells])
            owner = np.repeat(np.arange(len(inputs)), circuits)
            rank = np.arange(len(owner)) - np.repeat(np.cumsum(circuits) - circuits, circuits)
            block = np.zeros((len(inputs), circuits.max(), self.size))
            block[owner, rank] = self._rows(np.concatenate(cells))
            means[:, j] = block.sum(axis=1) / circuits[:, None]
        return means

    def _rows(self, positions: np.ndarray) -> np.ndarray:
        """Normalized counts of the records at positions, one dense row each."""
        first = self._starts[positions]
        lengths = self._starts[positions + 1] - first
        entries = np.repeat(first - np.cumsum(lengths) + lengths, lengths)
        entries += np.arange(len(entries))
        rows = np.zeros((len(positions), self.size))
        rows[np.repeat(np.arange(len(positions)), lengths), self.outcome[entries]] = (
            self.count[entries]
        )
        rows /= self.shots[positions].astype(float)[:, None]
        return rows

    def write_jsonl(self, path, header: str | None = None) -> None:
        """Write records in canonical order; header becomes a '#' comment."""
        bits = [index_to_bits(index, self.n) for index in range(self.size)]
        keys = [f'"{text}":' for text in bits]
        starts = self._starts.tolist()
        line = _LINE + "\n"
        with open(path, "w") as handle:
            _write_header(handle, header)
            for depth, index, seq, shots, lo, hi in zip(
                self.depth.tolist(),
                self.input.tolist(),
                self.seq.tolist(),
                self.shots.tolist(),
                starts,
                starts[1:],
            ):
                entries = map(
                    str.__add__,
                    map(keys.__getitem__, self.outcome[lo:hi].tolist()),
                    map(str, self.count[lo:hi].tolist()),
                )
                handle.write(line % (depth, bits[index], seq, shots, ",".join(entries)))

    @classmethod
    def read_jsonl(cls, path) -> "Dataset":
        """Read a dataset file; the first record's input fixes n. The first
        line that breaks the format or a record rule is named as path:line."""
        n, index = None, {}  # index: n-bit string -> basis index, once n is known
        # depth, input, seq and shots of each record, then its count entries
        rows, lengths, outcomes, counts, line_of = [], [], [], [], []
        fault = None
        # bytes that are not UTF-8 are kept as surrogates, so that the line
        # holding them can be named
        with open(path, encoding="utf-8", errors="surrogateescape") as handle:
            for line_no, line in enumerate(handle, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    if not line.isascii():
                        # raises the decoding error of the line's own bytes
                        line.encode("utf-8", "surrogateescape").decode("utf-8")
                    pairs, end = _DECODE(line)
                    if end < len(line):
                        end = json.decoder.WHITESPACE.match(line, end).end()
                        raise json.JSONDecodeError("Extra data", line, end)
                    payload = _object(pairs, "a record")
                    bits = payload["input"]
                    if n is None and type(bits) is str and 1 <= len(bits) <= MAX_QUBITS:
                        n = len(bits)
                        index = {index_to_bits(i, n): i for i in range(1 << n)}
                    entries = _object(payload["counts"], "counts")
                    row = (payload["depth"], index[bits], payload["seq"], payload["shots"])
                    keys = list(map(index.__getitem__, entries))
                except KeyError as exc:
                    fault = f"{path}:{line_no}: {_lookup_fault(exc.args[0], payload, n)}"
                    break
                except (TypeError, ValueError) as exc:
                    fault = f"{path}:{line_no}: malformed dataset record: {exc}"
                    break
                rows += row
                lengths.append(len(keys))
                outcomes += keys
                counts += entries.values()
                line_of.append(line_no)
        columns = (
            rows[0::4], rows[1::4], rows[2::4], rows[3::4],
            np.repeat(np.arange(len(lengths)), lengths), outcomes, counts,
        )
        try:
            if fault is None:
                if n is None:
                    raise ValueError("dataset file is empty")
                return cls.from_columns(n, *columns)
            # a record rule broken on an earlier line comes first
            _check_fields(*columns)
        except RecordError as exc:
            line_no = line_of[exc.position]
            raise ValueError(f"{path}:{line_no}: malformed dataset record: {exc}") from exc
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
        raise ValueError(fault)


class _RecordView(Sequence):
    """The records of a Dataset, in its order; a CountsRecord per index."""

    def __init__(self, dataset: Dataset):
        self._dataset = dataset

    def __len__(self) -> int:
        return len(self._dataset)

    def __getitem__(self, position):
        if isinstance(position, slice):
            return [self[i] for i in range(len(self))[position]]
        ds = self._dataset
        position = range(len(ds))[position]
        lo, hi = ds._starts[position], ds._starts[position + 1]
        return CountsRecord(
            depth=int(ds.depth[position]),
            input_index=int(ds.input[position]),
            sequence_id=int(ds.seq[position]),
            shots=int(ds.shots[position]),
            counts=dict(zip(ds.outcome[lo:hi].tolist(), ds.count[lo:hi].tolist())),
        )
