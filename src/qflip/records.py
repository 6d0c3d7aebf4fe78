"""Shot-count records and the JSON-lines dataset format.

One record holds the outcome counts of a single circuit submission:
(depth, input state, sequence id, shots, counts). Outcomes and inputs are
n-bit basis indices; on the wire they appear as bitstrings whose rightmost
character is qubit 0. A Dataset holds its records as flat columns. One
numpy byte kernel, ``_render``, formats the dataset lines: the writer
writes its bytes, and the reader accepts a block of a file only if the
kernel gives it back, reading any other file one JSON line at a time.

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
from .transforms import check_basis_indices, check_qubit_count

__all__ = ["CountsRecord", "Dataset", "RecordError", "index_to_bits"]

_INT64 = range(-(1 << 63), 1 << 63)

# write_jsonl renders about this many count entries at a time, and
# read_jsonl parses about this many bytes at a time; larger blocks raise
# peak RSS and gain no speed
_WRITE_ENTRIES = 4096
_READ_BYTES = 1 << 16
# np.fromstring saturates an int64 past 2**63 - 1, so the block reader
# takes only digit runs of up to 18 characters: values below this
_PARSE_LIMIT = 10**18
# a bytes.translate table that keeps the digits and turns every other byte into a space
_DIGITS_ONLY = bytes(byte if 48 <= byte <= 57 else 32 for byte in range(256))

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
        handle.write(_header_line(header))
        writer = csv.writer(handle)
        writer.writerow(columns)
        writer.writerows(rows)


def _header_line(header: str | None) -> str:
    """The '# ' comment line that opens an artifact, or "" for no header."""
    return f"# {header}\n" if header else ""


def _lookup_fault(key, payload: dict, n) -> str:
    """Why a line's lookup failed: a missing field or a bitstring of another width."""
    if key in ("depth", "input", "seq", "shots", "counts") and key not in payload:
        return f"malformed dataset record: missing field {key!r}"
    if type(key) is not str or not key or key.strip("01"):
        return f"malformed dataset record: invalid bitstring {key!r}"
    if key != payload["input"]:
        return f"outcome bitstring {key!r} does not have {n} bits"
    return f"qubit count {len(key)} != {n} seen earlier"


def _input_width(bits) -> int | None:
    """The qubit count a record's input gives: None if it is not a
    bitstring, else its length, which check_qubit_count checks."""
    if type(bits) is not str or not bits or bits.strip("01"):
        return None
    return check_qubit_count(len(bits))


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
        starts = self._starts
        # record bounds of blocks of about _WRITE_ENTRIES count entries
        cuts = np.searchsorted(starts, np.arange(_WRITE_ENTRIES, len(self.count), _WRITE_ENTRIES))
        bounds = np.unique(np.concatenate([[0], cuts, [len(self)]])).tolist()
        with open(path, "wb") as handle:
            handle.write(_header_line(header).encode())
            for lo, hi in zip(bounds, bounds[1:]):
                first, last = starts[lo], starts[hi]
                handle.write(_render(
                    self.n, self.depth[lo:hi], self.input[lo:hi], self.seq[lo:hi],
                    self.shots[lo:hi], self.outcome[first:last], self.count[first:last],
                    starts[lo:hi + 1] - first,
                ))

    @classmethod
    def read_jsonl(cls, path) -> "Dataset":
        """Read a dataset file; the first record's input fixes n. The first
        line that breaks the format or a record rule is named as path:line.

        A file as write_jsonl writes it is parsed in blocks of bytes; any
        other file, and any file that breaks a rule, is read line by line.
        """
        dataset = _read_rendered(path)
        return _read_lines(path) if dataset is None else dataset


def _render(n, depth, input, seq, shots, outcome, count, starts) -> np.ndarray:
    """The dataset lines of a block of records, as uint8 bytes; record r's
    count entries are ``outcome``/``count[starts[r]:starts[r + 1]]``, at
    least one per record. The only formatter of dataset lines.

    Each count entry is one matrix row, each record head a few rows of the
    same width, in file order; every field is right-aligned in a
    fixed-width column, padded with 0 bytes. The lines are the matrix's
    bytes with the 0 bytes dropped.
    """
    records, entries = len(depth), len(outcome)
    bits = _bit_table(n)
    ends = np.zeros((entries, 3), np.uint8)
    ends[:, 0] = ord(",")
    ends[starts[1:] - 1] = np.frombuffer(b"}}\n", np.uint8)
    tails = _side_by_side(entries, b'"', bits[outcome], b'":', _digits(count), ends)
    heads = _side_by_side(
        records, b'{"depth":', _digits(depth), b',"input":"', bits[input], b'","seq":',
        _digits(seq), b',"shots":', _digits(shots), b',"counts":{',
    )
    width = tails.shape[1]
    height = -(-heads.shape[1] // width)
    heads = np.pad(heads, ((0, 0), (0, height * width - heads.shape[1])))
    is_head = np.zeros(records * height + entries, bool)
    is_head[(np.arange(records) * height + starts[:-1])[:, None] + np.arange(height)] = True
    rows = np.empty((len(is_head), width), np.uint8)
    rows[is_head] = heads.reshape(-1, width)
    rows[~is_head] = tails
    return rows[rows != 0]


def _bit_table(n: int) -> np.ndarray:
    """Row i: the n-character bitstring of basis index i, as ASCII bytes."""
    shifts = np.arange(n - 1, -1, -1)
    return ((np.arange(1 << n)[:, None] >> shifts) & 1).astype(np.uint8) + ord("0")


def _digits(values: np.ndarray) -> np.ndarray:
    """Each non-negative value's decimal digits as a row of ASCII bytes,
    right-aligned in the width of the largest; 0 bytes pad the left."""
    width = len(str(values.max()))
    out = np.zeros((len(values), width), np.uint8)
    out[:, -1] = values % 10 + ord("0")
    rest = values // 10
    for column in range(width - 2, -1, -1):
        out[:, column] = (rest % 10 + ord("0")) * (rest > 0)
        rest = rest // 10
    return out


def _side_by_side(rows: int, *fields) -> np.ndarray:
    """The fields as one (rows, total width) uint8 matrix; a bytes field
    repeats on every row."""
    fields = [np.frombuffer(f, np.uint8) if isinstance(f, bytes) else f for f in fields]
    edges = np.cumsum([0] + [field.shape[-1] for field in fields]).tolist()
    out = np.empty((rows, edges[-1]), np.uint8)
    for field, lo, hi in zip(fields, edges, edges[1:]):
        out[:, lo:hi] = field
    return out


def _read_rendered(path) -> Dataset | None:
    """The dataset in a file of '#' lines followed by lines exactly as
    _render writes them, parsed in blocks of about _READ_BYTES cut after a
    newline; None for any other file, or columns that break a rule."""
    n, blocks = None, []
    with open(path, "rb") as handle:
        start = 0
        while (line := handle.readline()).startswith(b"#"):
            if b"\r" in line:
                # text mode ends a line at '\r' too, so what follows may be a record
                return None
            start = handle.tell()
        handle.seek(start)
        for block in _line_blocks(handle):
            if n is None:
                n = _rendered_width(block)
            parsed = _parse_block(n, block) if n else None
            if parsed is None:
                return None
            blocks.append(parsed)
    if not blocks:
        return None
    depth, input, seq, shots, lengths, outcome, count = map(np.concatenate, zip(*blocks))
    record = np.repeat(np.arange(len(depth)), lengths)
    try:
        return Dataset.from_columns(n, depth, input, seq, shots, record, outcome, count)
    except ValueError:
        return None


def _line_blocks(handle):
    """The rest of a binary file in blocks of about _READ_BYTES, each cut
    after its last newline; bytes after the file's last newline come last."""
    pending = bytearray()
    for chunk in iter(lambda: handle.read(_READ_BYTES), b""):
        pending += chunk
        cut = pending.rfind(b"\n") + 1
        if cut:
            yield bytes(pending[:cut])
            del pending[:cut]
    if pending:
        yield bytes(pending)


def _rendered_width(block: bytes) -> int | None:
    """n as the block's first line gives it, None if the line gives none."""
    line = block.split(b"\n", 1)[0]
    start = line.find(b'"input":"') + len(b'"input":"')
    try:
        return _input_width(line[start : line.find(b'"', start)].decode("latin-1"))
    except ValueError:
        return None


def _parse_block(n: int, block: bytes) -> tuple | None:
    """depth, input, seq, shots, the number of count entries of each record,
    outcome and count of a block of whole lines; None unless _render gives
    the block back byte for byte with each record's outcomes increasing.

    Numbers are the block's digit runs; the colons after the five field
    names count each line's entries, and a bitstring is read as a decimal
    number whose digit k is bit k.
    """
    if not block.endswith(b"\n"):
        return None
    text = np.frombuffer(block, np.uint8)
    newlines = np.flatnonzero(text == ord("\n"))
    colons = np.flatnonzero(text == ord(":"))
    lengths = np.bincount(np.searchsorted(newlines, colons), minlength=len(newlines)) - 5
    values = np.fromstring(block.translate(_DIGITS_ONLY), dtype=np.int64, sep=" ")
    tokens = 4 + 2 * lengths
    if lengths.min() < 1 or len(values) != tokens.sum() or values.max() >= _PARSE_LIMIT:
        return None
    firsts = np.cumsum(tokens) - tokens
    depth, bits, seq, shots = (values[firsts + field] for field in range(4))
    in_entries = np.ones(len(values), bool)
    in_entries[firsts[:, None] + np.arange(4)] = False
    keys, count = values[in_entries].reshape(-1, 2).T
    # a copy, so the block's keys are freed once they are decoded
    count = count.copy()
    input, outcome = _bits_to_index(bits, n), _bits_to_index(keys, n)
    starts = np.concatenate([[0], np.cumsum(lengths)])
    same_record = np.ones(len(outcome) - 1, bool)
    same_record[starts[1:-1] - 1] = False
    if np.any(same_record & (outcome[1:] <= outcome[:-1])):
        return None
    if not np.array_equal(_render(n, depth, input, seq, shots, outcome, count, starts), text):
        return None
    return depth, input, seq, shots, lengths, outcome, count


def _bits_to_index(values: np.ndarray, n: int) -> np.ndarray:
    """Basis indices of n-bit strings read as decimal numbers: bit k is set
    where decimal digit k is not 0."""
    index = np.zeros_like(values)
    for k in range(n):
        values, digit = np.divmod(values, 10)
        index += np.minimum(digit, 1) << k
    return index


def _read_lines(path) -> Dataset:
    """Read a dataset file one JSON line at a time; the first line that
    breaks the format or a record rule is named as path:line."""
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
                width = _input_width(bits)
                if n is None and width:
                    n, index = width, {index_to_bits(i, width): i for i in range(1 << width)}
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
            return Dataset.from_columns(n, *columns)
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
