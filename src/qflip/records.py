"""Shot-count records and the JSON-lines dataset format.

One record holds the outcome counts of a single circuit submission:
(depth, input state, sequence id, shots, counts). Outcomes and inputs are
n-bit basis indices; on the wire they appear as bitstrings whose rightmost
character is qubit 0. A Dataset holds its records as flat columns and
its count entries in compressed sparse rows, in narrow dtypes. It has one
constructor, from those columns, and one check of the record rules: among
them, each count is at most its record's shots and the counts add up to
the shots. ``Dataset.records`` gives each record as a ``Record`` tuple. One
numpy byte kernel, ``_render``, formats the dataset lines: the writer
writes its bytes, and the reader accepts a block of a file only if the
kernel gives it back, reading any other file one JSON line at a time.

The other artifact files are read and written here too: ``read_json`` and
``write_json`` for model.json, profile.json and rb.json, and ``write_csv``
for the CSV reports, whose '# ' header line is written as the dataset's is.
Both writers render their files by hand, in batches, byte for byte as
the json module (indent=2, sort_keys=True) and ``csv.writer`` would.
Every writer opens its file through ``_create``, which replaces an
existing file rather than truncating it, and removes what it wrote if
the writing raises. ``holds_numbers`` is the number rule of the JSON
payloads, ``recorded_seed`` their seed rule, and ``require_cells`` the
empty-selection and missing-cell errors of datasets and averages alike.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from collections import Counter, namedtuple
from collections.abc import Sequence
from functools import cache
from itertools import chain, islice

import numpy as np

from .errors import ConfigError, CoverageError, format_missing, require_selected
from .transforms import (
    check_basis_indices, check_depths, check_qubit_count, check_seed, integer_array
)

__all__ = ["Dataset", "Record", "RecordError", "index_to_bits"]

# the stored outcome dtype: it holds every basis index up to MAX_QUBITS
OUTCOME_DTYPE = np.dtype(np.int16)

# write_jsonl renders about this many count entries at a time
_WRITE_ENTRIES = 4096
# read_jsonl parses about this many bytes at a time. On one Xeon vCPU,
# datasets of 2.5, 3.5 and 14 MB read in 32, 45 and 180 ms at 2^16; 27,
# 34 and 140 ms at 2^18; 26, 34 and 130 ms at 2^19; and 31, 42 and 270 ms
# at 2^20. 2^19 raises a read's peak RSS by about 3 MiB over 2^18
_READ_BYTES = 1 << 18
# write_csv formats about this many values with one % at a time, so a
# wide CSV never holds more of its Python values than that
_CSV_VALUES = 1 << 14
# the checks add up each record's counts this many entries at a time; a
# block makes a few int64 temporaries of its size
_SUM_ENTRIES = 1 << 14
# _render writes a number below 10**_TABLE_DIGITS as one row of a digit
# table; the block reader takes numbers of up to _PARSE_DIGITS digits,
# which all fit an int64, and leaves a longer one to the line reader
_TABLE_DIGITS = 4
_PARSE_DIGITS = 18

# a JSON object decodes to a tuple of (key, value) pairs: a repeated key
# stays visible, and an object is told apart from an array
_DECODE = json.JSONDecoder(object_pairs_hook=tuple).raw_decode


def index_to_bits(index: int, n: int) -> str:
    """Basis index -> n-character bitstring, qubit 0 rightmost."""
    check_basis_indices(index, n, "index")
    return format(index, f"0{n}b")


class RecordError(ValueError):
    """A record breaks a rule; ``position`` is its index in the columns."""

    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.position = position


def count_dtype(shots: int) -> np.dtype:
    """The narrowest signed integer dtype that holds ``shots``, and so every
    count of a record of at most that many shots: the one -shots - 1 needs."""
    return np.min_scalar_type(-shots - 1)


def _owners(starts: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """The record of each entry position, for entries grouped by record
    from the offsets ``starts``."""
    return np.searchsorted(starts, entries, side="right") - 1


def _record_blocks(starts: np.ndarray, entries: int) -> list[int]:
    """Record bounds of consecutive blocks of about ``entries`` count
    entries each, for entries grouped by record from offsets ``starts``."""
    cuts = np.searchsorted(starts, np.arange(entries, starts[-1], entries))
    return sorted({0, *cuts.tolist(), len(starts) - 1})


def _sum_faults(count: np.ndarray, shots: np.ndarray, starts: np.ndarray):
    """Per record: whether a count exceeds its shots, and whether its
    counts do not sum to its shots. The running sums are int64 and are
    made in blocks of about _SUM_ENTRIES entries. A count is below 2**63,
    so with non-negative counts the first running sum past shots is either
    above shots or, wrapped, negative: a record whose running sums stay in
    [0, shots] and end at shots sums to its shots."""
    above = np.zeros(len(shots), dtype=bool)
    unequal = shots != 0
    bounds = _record_blocks(starts, _SUM_ENTRIES)
    for lo, hi in zip(bounds, bounds[1:]):
        first, entries = starts[lo], count[starts[lo] : starts[hi]]
        if not entries.size:
            continue
        lengths = np.diff(starts[lo : hi + 1])
        limit = np.repeat(shots[lo:hi], lengths)
        running = np.cumsum(entries, dtype=np.int64)
        # the sum of the block's records before each record's first entry
        offsets = starts[lo:hi] - first
        running -= np.repeat(np.where(offsets > 0, running[offsets - 1], 0), lengths)
        above[_owners(starts, first + np.flatnonzero(entries > limit))] = True
        filled = lo + np.flatnonzero(lengths)
        unequal[filled] = running[starts[filled + 1] - first - 1] != shots[filled]
        unequal[_owners(starts, first + np.flatnonzero((running < 0) | (running > limit)))] = True
    return above, unequal


def _check_fields(depth, input_index, seq, shots, lengths, outcome, count):
    """Check per-record columns and count entries grouped by record (record
    r's are the next ``lengths[r]`` of ``outcome`` and ``count``), as lists
    or integer arrays, against every record rule. Returns them as
    integer arrays, an integer array as given, with the record offsets
    ``starts`` in place of ``lengths``. Raises RecordError for the first
    record that breaks a rule, with the message of the first rule it breaks
    in the order listed.
    """
    columns = (lengths, depth, input_index, seq, shots, outcome, count)
    arrays, (wrong, *wrongs) = zip(*map(integer_array, columns))
    lengths, depth, input_index, seq, shots, outcome, count = (a.reshape(-1) for a in arrays)
    if wrong or lengths.min(initial=0) < 0:
        raise ValueError("count entry lengths must be non-negative integers")
    size = len(depth)
    if not size == len(input_index) == len(seq) == len(shots) == len(lengths):
        raise ValueError("per-record columns differ in length")
    if not lengths.sum() == len(outcome) == len(count):
        raise ValueError("count entry columns differ in length")
    # entries of record r are [starts[r], starts[r + 1])
    starts = np.concatenate([[0], np.cumsum(lengths)])
    # each record's first non-integer value; an entry's is its record's
    faults = {}
    names = ("depth", "input index", "sequence id", "shots", "outcome index", "count value")
    for name, wrong, per_entry in zip(names, wrongs, [False] * 4 + [True] * 2):
        for position, value in wrong.items():
            owner = int(_owners(starts, position)) if per_entry else position
            faults.setdefault(owner, f"{name} must be a 64-bit integer, got {value!r}")
    negative_outcome = np.zeros(size, dtype=bool)
    negative_outcome[_owners(starts, np.flatnonzero(outcome < 0))] = True
    negative_count = np.zeros(size, dtype=bool)
    negative_count[_owners(starts, np.flatnonzero(count < 0))] = True

    def counts(i):
        return count[starts[i] : starts[i + 1]].tolist()

    above, unequal = _sum_faults(count, shots, starts)
    rules = [
        (depth < 0, lambda i: f"depth must be >= 0, got {depth[i]}"),
        (input_index < 0, lambda i: f"input index must be >= 0, got {input_index[i]}"),
        (seq < 0, lambda i: f"sequence id must be >= 0, got {seq[i]}"),
        (shots < 1, lambda i: f"shots must be >= 1, got {shots[i]}"),
        (negative_outcome, lambda i: "negative outcome index in counts"),
        (negative_count, lambda i: "negative count value"),
        (above, lambda i: f"count value {max(counts(i))} exceeds shots={shots[i]}"),
        (unequal, lambda i: f"counts sum to {sum(counts(i))}, expected shots={shots[i]}"),
    ]
    broken = np.logical_or.reduce([mask for mask, _ in rules])
    broken[list(faults)] = True
    if broken.any():
        position = int(np.argmax(broken))
        message = faults.get(position) or next(
            message(position) for mask, message in rules if mask[position]
        )
        raise RecordError(message, position)
    return depth, input_index, seq, shots, starts, outcome, count


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


def recorded_seed(payload: dict):
    """payload's "seed": None when it is absent or null, else as check_seed takes it."""
    seed = payload.get("seed")
    return None if seed is None else check_seed(seed)


def write_json(path, payload) -> None:
    """Write payload as JSON with a final newline, byte for byte as the
    json module writes it with indent=2 and sort_keys=True: 2-space indent,
    sorted keys, floats in repr form and NaN/Infinity as json spells them.
    Object keys must be strings."""
    with _create(path) as handle:
        handle.write(_json_text(payload, "\n"))
        handle.write("\n")


def _json_text(value, newline: str) -> str:
    """value as indented JSON; newline is the line break plus the indent of
    the line value starts on. A list of finite floats is joined in one
    call; every other scalar goes through json.dumps."""
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = (f"{_json_key(key)}: {_json_text(value[key], inner)}" for key in sorted(value))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        # a sum that is not finite flags an infinity or a NaN (or an
        # overflow, which the per-item path writes the same way)
        if set(map(type, value)) == {float} and math.isfinite(sum(value)):
            items = map(float.__repr__, value)
        else:
            items = (_json_text(item, inner) for item in value)
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    return json.dumps(value)


def _json_key(key) -> str:
    if not isinstance(key, str):
        raise TypeError(f"JSON object keys must be strings, got {key!r}")
    return json.dumps(key)


def write_csv(path, header: str | None, columns, fmt: str, rows) -> None:
    """Write a CSV artifact: the header comment line, the column names,
    then rows, each formatted by fmt, one %-format per column (such as
    "%d,%s,%.12g"). Lines end in CRLF, as csv.writer ends them. No field is
    quoted, so no name or value may hold a comma, a quote or a line break.
    Rows are formatted about _CSV_VALUES values at a time, one % per chunk."""
    line = fmt + "\r\n"
    step = max(1, _CSV_VALUES // len(columns))
    rows = iter(rows)
    with _create(path) as handle:
        handle.write(_header_line(header))
        handle.write(",".join(columns) + "\r\n")
        while chunk := list(islice(rows, step)):
            handle.write((line * len(chunk)) % tuple(chain.from_iterable(chunk)))


@contextlib.contextmanager
def _create(path, binary: bool = False):
    """A new file at path, open for writing an artifact: text mode writes
    each line end as given. An existing file is unlinked first, never
    truncated, so a reader that holds it keeps its bytes, and the
    filesystem need not flush the old blocks before the new ones land.
    A write that raises removes the file, so no partial artifact stays."""
    remove_artifact(path)
    try:
        with open(path, "xb") if binary else open(path, "x", newline="") as handle:
            yield handle
    except BaseException:
        remove_artifact(path)
        raise


def remove_artifact(path) -> None:
    """Unlink the file at path if there is one."""
    with contextlib.suppress(FileNotFoundError):
        os.unlink(path)


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
    """CoverageError when depths or inputs is empty, else '<what>' and then
    every (depth, input) cell of depths x inputs that is not in present."""
    require_selected(depths, "depths")
    require_selected(inputs, "input states")
    missing = [
        (depth, index) for index in inputs for depth in depths if (depth, index) not in present
    ]
    if missing:
        shown = format_missing(
            missing, lambda cell: f"(m={cell[0]}, in={index_to_bits(cell[1], n)})"
        )
        raise CoverageError(f"{what} {shown}")


def _cell_index(n, depth, input_index, seq, given) -> dict:
    """(depth, input) -> positions of the cell's records in sequence-id
    order. A repeated (depth, input, seq) triple raises a RecordError at
    the first record that repeats the triple of an earlier one, in the
    order the records were given: record r was given at given[r]."""
    if not len(depth):
        return {}
    by_cell = np.lexsort((seq, input_index, depth))
    d, i, s = depth[by_cell], input_index[by_cell], seq[by_cell]
    same_cell = (d[1:] == d[:-1]) & (i[1:] == i[:-1])
    repeated = np.flatnonzero(same_cell & (s[1:] == s[:-1]))
    if repeated.size:
        # the sorts are stable: of two equal triples, the second came later
        later = given[by_cell[repeated + 1]]
        j = repeated[np.argmin(later)]
        raise RecordError(
            f"duplicate record (depth={d[j]}, "
            f"input={index_to_bits(int(i[j]), n)}, seq={s[j]})",
            int(later.min()),
        )
    firsts = np.concatenate([[0], np.flatnonzero(~same_cell) + 1])
    ends = np.append(firsts[1:], len(by_cell))
    by_cell.flags.writeable = False
    cells = zip(d[firsts].tolist(), i[firsts].tolist())
    return {
        cell: by_cell[first:end] for cell, first, end in zip(cells, firsts.tolist(), ends.tolist())
    }


class Dataset:
    """Counts over a fixed qubit count, held as flat read-only columns.

    ``Dataset(n, depth, input, seq, shots, lengths, outcome, count)`` is
    the only constructor. It takes per-record columns and count entries
    grouped by record: record r's entries are the next ``lengths[r]`` of
    ``outcome`` and ``count``. Records, and the entries within a record,
    may come in any order. Every record must follow the record rules
    (``_check_fields``): non-negative integer fields, shots >= 1, each
    count at most its shots and the counts summing to shots. Arrays of the
    stored dtypes are kept without a copy, so the caller must not modify
    them afterwards.

    Records are stored in canonical (depth, seq, input) order, the order of
    the JSON-lines file. Per record: int64 ``depth``, ``input``, ``seq`` and
    ``shots``. The count entries are stored in compressed sparse rows:
    ``outcome`` (OUTCOME_DTYPE) and ``count`` (``count_dtype`` of the
    largest shots) hold every record's entries in record order, each
    record's by increasing outcome, and record r's are those from offset
    ``starts[r]`` to ``starts[r + 1]``. An entry read from a file may hold
    a zero count. Each (depth, input) cell indexes its records in
    sequence-id order; a repeated (depth, input, seq) triple is rejected.
    """

    def __init__(self, n: int, depth, input, seq, shots, lengths, outcome, count):
        n = check_qubit_count(n)
        depth, input, seq, shots, starts, outcome, count = _check_fields(
            depth, input, seq, shots, lengths, outcome, count
        )
        size = 1 << n
        outside = input >= size
        outside[_owners(starts, np.flatnonzero(outcome >= size))] = True
        if outside.any():
            position = int(np.argmax(outside))
            # the record's input is named if it is outside, else its outcome
            check_basis_indices(input[position], n, "record input")
            check_basis_indices(outcome[starts[position]:starts[position + 1]], n, "record outcome")
        depth, input, seq, shots = (
            column.astype(np.int64, copy=False) for column in (depth, input, seq, shots)
        )
        outcome = outcome.astype(OUTCOME_DTYPE, copy=False)
        count = count.astype(count_dtype(shots.max(initial=0)), copy=False)

        # columns from the simulator or a written file are already in
        # canonical order; sort only when they are not
        order = np.lexsort((input, seq, depth))
        if np.any(order != np.arange(len(order))):
            depth, input, seq, shots = depth[order], input[order], seq[order], shots[order]
            lengths = np.diff(starts)[order]
            moved = np.concatenate([[0], np.cumsum(lengths)])
            # entry j of the record now at r was entry starts[order[r]] + j
            entries = np.repeat(starts[order] - moved[:-1], lengths) + np.arange(moved[-1])
            outcome, count, starts = outcome[entries], count[entries], moved
        # every record has an entry, so each ends before the next one starts
        last = np.zeros(max(len(outcome) - 1, 0), bool)
        last[starts[1:-1] - 1] = True
        if not np.all(last | (outcome[1:] > outcome[:-1])):
            entries = np.lexsort((outcome, np.repeat(np.arange(len(depth)), np.diff(starts))))
            outcome, count = outcome[entries], count[entries]
            if np.any(~last & (outcome[1:] == outcome[:-1])):
                raise ValueError("a record lists one outcome twice")

        self.n = n
        self.depth, self.input, self.seq, self.shots = depth, input, seq, shots
        self.outcome, self.count, self.starts = outcome, count, starts
        for column in (depth, input, seq, shots, outcome, count, starts):
            column.flags.writeable = False
        self._cells = _cell_index(n, depth, input, seq, order)

    @property
    def size(self) -> int:
        return 1 << self.n

    def __len__(self) -> int:
        return len(self.depth)

    @property
    def records(self) -> Sequence:
        """Read-only sequence of the records in canonical order; each
        Record is built when indexed."""
        return _RecordView(self)

    def depths(self) -> list[int]:
        return sorted({depth for depth, _ in self._cells})

    def input_indices(self) -> list[int]:
        return sorted({index for _, index in self._cells})

    def require(self, depths, inputs) -> None:
        """Raise CoverageError on an empty selection, else naming every
        (depth, input) cell with no records."""
        require_cells(depths, inputs, self._cells, self.n, "dataset is missing records for")

    def circuits(self, depth: int, input_index: int) -> int:
        """Number of records (circuits) in the (depth, input) cell."""
        depth = check_depths(depth).item()
        input_index = check_basis_indices(input_index, self.n).item()
        self.require([depth], [input_index])
        return len(self._cells[(depth, input_index)])

    def distributions(self, depth: int, inputs) -> np.ndarray:
        """Normalized counts of the circuits at depth on each of inputs, one
        row per record: the (depth, input) cells in the order of inputs,
        each cell's records in sequence-id order."""
        depth = check_depths(depth).item()
        inputs = check_basis_indices(inputs, self.n).tolist()
        self.require([depth], inputs)
        positions = np.concatenate([self._cells[depth, index] for index in inputs])
        return self._rows(positions, np.arange(len(positions)), len(positions))

    def cell_means(self, depths, inputs) -> np.ndarray:
        """Mean normalized counts per cell as an ``(inputs, depths, 2**n)`` table.

        Entry ``[i, j]`` adds the rows of ``distributions(depths[j],
        [inputs[i]])`` one at a time in sequence-id order and divides by
        their number. A depth's rows are written straight into a
        zero-padded ``(inputs, circuits, 2**n)`` block, each at its rank in
        its cell, and the block is summed along the circuit axis. One depth
        at a time, never from the whole dataset at once.
        """
        depths = check_depths(depths).tolist()
        inputs = check_basis_indices(inputs, self.n).tolist()
        self.require(depths, inputs)
        means = np.empty((len(inputs), len(depths), self.size))
        for j, depth in enumerate(depths):
            cells = [self._cells[depth, index] for index in inputs]
            circuits = np.array([len(positions) for positions in cells])
            width = circuits.max()
            # record k of input i's cell goes to row i * width + k
            slots = np.arange(circuits.sum()) + np.repeat(
                np.arange(len(inputs)) * width - np.cumsum(circuits) + circuits, circuits
            )
            block = self._rows(np.concatenate(cells), slots, len(inputs) * width)
            block = block.reshape(len(inputs), width, self.size)
            means[:, j] = block.sum(axis=1) / circuits[:, None]
        return means

    def _rows(self, positions: np.ndarray, slots: np.ndarray, height: int) -> np.ndarray:
        """A zero ``(height, 2**n)`` array whose row ``slots[k]`` holds the
        normalized counts of the record at ``positions[k]``."""
        first = self.starts[positions]
        lengths = self.starts[positions + 1] - first
        entries = np.repeat(first - np.cumsum(lengths) + lengths, lengths)
        entries += np.arange(len(entries))
        rows = np.zeros((height, self.size))
        rows[np.repeat(slots, lengths), self.outcome[entries]] = (
            self.count[entries] / np.repeat(self.shots[positions].astype(float), lengths)
        )
        return rows

    def write_jsonl(self, path, header: str | None = None) -> None:
        """Write records in canonical order; header becomes a '#' comment."""
        starts = self.starts
        bounds = _record_blocks(starts, _WRITE_ENTRIES)
        with _create(path, binary=True) as handle:
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


def _render(n, depth, input, seq, shots, outcome, count, starts) -> bytes:
    """The dataset lines of a block of records; record r's count entries
    are ``outcome``/``count[starts[r]:starts[r + 1]]``, at least one per
    record. The only formatter of dataset lines.

    Each count entry is one matrix row: its separator (',', or '{' before
    a record's first entry) and quoted key, gathered from one table row
    per outcome, then its count's digits. Each record head is a few rows
    of the same width, from '}}\\n' that closes the record before it to
    '"counts":'. Every field is right-aligned in a fixed-width column,
    padded with 0 bytes. Whole rows are put in file order as void items,
    and the lines are the matrix's bytes with the 0 bytes dropped, less
    the first head's '}}\\n' and with the last record's added.
    """
    records, entries = len(depth), len(outcome)
    digits = _digits(count)
    key = n + 4
    width = key + digits.shape[1]
    row = np.dtype((np.void, width))
    tails = np.empty(entries, [("key", f"V{key}"), ("count", f"V{digits.shape[1]}")])
    index = outcome.astype(np.intp)
    index[starts[:-1]] += 1 << n
    tails["key"] = np.take(_entry_keys(n), index)
    tails["count"] = digits.view(tails.dtype["count"]).ravel()
    fields = (
        b'}}\n{"depth":', _digits(depth), np.take(_input_keys(n), input, axis=0),
        _digits(seq), b',"shots":', _digits(shots), b',"counts":',
    )
    heads = _side_by_side(records, *fields, multiple=width)
    height = heads.shape[1] // width
    rows = np.empty(records * height + entries, row)
    # record r's head rows start after r heads and the entries before it
    firsts = starts[:-1] + np.arange(records) * height
    np.put(rows, (firsts[:, None] + np.arange(height)).ravel(), heads.view(row))
    shift = np.zeros(entries, np.intp)
    shift[starts[:-1]] = height
    np.put(rows, np.cumsum(shift) + np.arange(entries), tails.view(row))
    return rows.tobytes().translate(None, b"\0")[3:] + b"}}\n"


@cache
def _bits(n: int) -> np.ndarray:
    """Row i: the n-character bitstring of basis index i, as ASCII bytes."""
    shifts = np.arange(n - 1, -1, -1)
    bits = ((np.arange(1 << n)[:, None] >> shifts) & 1).astype(np.uint8) + ord("0")
    bits.flags.writeable = False
    return bits


@cache
def _entry_keys(n: int) -> np.ndarray:
    """',"<bits>":' of each outcome i of n qubits as void item i, and
    '{"<bits>":' as item 2**n + i."""
    separators = np.repeat(np.frombuffer(b",{", np.uint8), 1 << n)[:, None]
    keys = _side_by_side(2 << n, separators, b'"', np.tile(_bits(n), (2, 1)), b'":')
    keys.flags.writeable = False
    return keys.view(np.dtype((np.void, n + 4))).ravel()


@cache
def _input_keys(n: int) -> np.ndarray:
    """Row i: ',"input":"<bits>","seq":' of input i of n qubits."""
    keys = _side_by_side(1 << n, b',"input":"', _bits(n), b'","seq":')
    keys.flags.writeable = False
    return keys


@cache
def _digit_table(width: int) -> np.ndarray:
    """Row v: the decimal digits of v < 10**width as ASCII bytes,
    right-aligned; 0 bytes pad the left."""
    values = np.arange(10**width, dtype=np.uint16)[:, None]
    powers = 10 ** np.arange(width - 1, -1, -1, dtype=np.uint16)
    table = (values // powers % 10 + ord("0")).astype(np.uint8)
    table[np.maximum(values, 1) < powers] = 0
    table.flags.writeable = False
    return table


def _digits(values: np.ndarray) -> np.ndarray:
    """Each non-negative value's decimal digits as a row of ASCII bytes,
    right-aligned in the width of the largest; 0 bytes pad the left.
    Values below 10**_TABLE_DIGITS are table rows; a longer value is its
    quotient's digits followed by its remainder's, '0'-filled."""
    width = len(str(values.max()))
    if width <= _TABLE_DIGITS:
        return np.take(_digit_table(width), values, axis=0)
    high, low = np.divmod(values, 10**_TABLE_DIGITS)
    long = (high > 0)[:, None]
    low = np.take(_digit_table(_TABLE_DIGITS), low, axis=0)
    return np.hstack([_digits(high) * long, np.where(long, np.maximum(low, ord("0")), low)])


def _side_by_side(rows: int, *fields, multiple: int = 1) -> np.ndarray:
    """The fields as one uint8 matrix of ``rows`` rows, its width rounded up
    to a multiple of ``multiple`` with 0 bytes; a bytes field repeats on
    every row."""
    fields = [np.frombuffer(f, np.uint8) if isinstance(f, bytes) else f for f in fields]
    edges = np.cumsum([0] + [field.shape[-1] for field in fields]).tolist()
    out = np.empty((rows, -(-edges[-1] // multiple) * multiple), np.uint8)
    for field, lo, hi in zip(fields, edges, edges[1:]):
        out[:, lo:hi] = field
    out[:, edges[-1]:] = 0
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
    columns = [np.concatenate(parts) for parts in zip(*blocks)]
    del blocks
    try:
        return Dataset(n, *columns)
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

    A line's colons end its five field names, then each entry's key. Each
    number is read from the bytes between the colon before it and the
    field name or separator after it; each bitstring from the n bytes
    after '"input":"' or before an entry's '":'.
    """
    if not block.endswith(b"\n"):
        return None
    # 0 bytes after the block, so the span of up to _PARSE_DIGITS bytes
    # from any position in the block lies in text
    text = np.frombuffer(block + bytes(_PARSE_DIGITS), np.uint8)
    newlines = np.flatnonzero(text == ord("\n"))
    colons = np.flatnonzero(text == ord(":"))
    # line i's colons are colons[firsts[i]:line_ends[i]]
    line_ends = np.searchsorted(colons, newlines)
    firsts = np.concatenate([[0], line_ends[:-1]])
    lengths = line_ends - firsts - 5
    if lengths.min() < 1:
        return None
    depth_at, input_at, seq_at, shots_at, counts_at = (colons[firsts + k] for k in range(5))
    in_entries = np.ones(len(colons), bool)
    in_entries[firsts[:, None] + np.arange(5)] = False
    keys = colons[in_entries]
    # an entry's count ends at the ',"' before the next key, or at '}}\n'
    ends = np.empty(len(keys), np.intp)
    ends[:-1] = keys[1:] - n - 3
    ends[np.cumsum(lengths) - 1] = newlines - 2
    numbers = [
        _numbers(text, depth_at + 1, input_at - len(b',"input"')),
        _numbers(text, seq_at + 1, shots_at - len(b',"shots"')),
        _numbers(text, shots_at + 1, counts_at - len(b',"counts"')),
        _numbers(text, keys + 1, ends),
    ]
    if any(column is None for column in numbers):
        return None
    depth, seq, shots, count = numbers
    # a narrow copy; blocks of other dtypes concatenate to the widest
    count = count.astype(count_dtype(max(shots.max(), count.max())))
    input = _indices(text, input_at + 2, n)
    outcome = _indices(text, keys - n - 1, n).astype(OUTCOME_DTYPE)
    starts = np.concatenate([[0], np.cumsum(lengths)])
    same_record = np.ones(len(outcome) - 1, bool)
    same_record[starts[1:-1] - 1] = False
    if np.any(same_record & (outcome[1:] <= outcome[:-1])):
        return None
    if _render(n, depth, input, seq, shots, outcome, count, starts) != block:
        return None
    return depth, input, seq, shots, lengths, outcome, count


def _spans(text: np.ndarray, firsts: np.ndarray, width: int) -> np.ndarray:
    """The width bytes of text from each of firsts, one row each: the
    rows of a void view whose items overlap."""
    items = np.ndarray((len(text) - width + 1,), np.dtype((np.void, width)), text, strides=(1,))
    return items[firsts].view(np.uint8).reshape(-1, width)


def _numbers(text: np.ndarray, firsts: np.ndarray, ends: np.ndarray) -> np.ndarray | None:
    """The decimal numbers text[firsts[i]:ends[i]] as int64; None unless
    each has 1 to _PARSE_DIGITS bytes, all of them digits."""
    lengths = ends - firsts
    if lengths.min() < 1 or lengths.max() > _PARSE_DIGITS:
        return None
    width = int(lengths.max())
    digits = _spans(text, firsts, width) - np.uint8(ord("0"))
    # row l: 255 on the first l of width bytes, 0 on those after them
    masks = (np.arange(width) < np.arange(width + 1)[:, None]).astype(np.uint8) * 255
    digits &= np.take(masks, lengths, axis=0)
    if digits.max() > 9:
        return None
    values = digits[:, 0].astype(np.int64)
    for column in digits.T[1:]:
        values *= 10
        values += column
    # each number was read as if padded with zeros to width digits
    return values // 10 ** (width - lengths)


def _indices(text: np.ndarray, firsts: np.ndarray, n: int) -> np.ndarray:
    """Basis indices of the n-byte bitstrings of text at firsts: bit k is
    set where byte n - 1 - k is '1'."""
    bits = _spans(text, firsts, n) == ord("1")
    # exact: a float dot product is exact below 2**53
    return (bits @ 2.0 ** np.arange(n - 1, -1, -1)).astype(np.int64)


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
            # JSON whitespace only: any other space character is an error
            line = line.strip(" \t\r\n")
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
    columns = (rows[0::4], rows[1::4], rows[2::4], rows[3::4], lengths, outcomes, counts)
    try:
        if fault is None:
            if n is None:
                raise ValueError("dataset file is empty")
            return Dataset(n, *columns)
        # a record rule broken on an earlier line comes first
        _check_fields(*columns)
    except RecordError as exc:
        line_no = line_of[exc.position]
        raise ValueError(f"{path}:{line_no}: malformed dataset record: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    raise ValueError(fault)


# one record of a Dataset, as Dataset.records gives it; counts maps
# outcome -> count in increasing outcome order
Record = namedtuple("Record", "depth input_index sequence_id shots counts")


class _RecordView(Sequence):
    """The records of a Dataset, in its order; a Record per index."""

    def __init__(self, dataset: Dataset):
        self._dataset = dataset

    def __len__(self) -> int:
        return len(self._dataset)

    def __getitem__(self, position):
        if isinstance(position, slice):
            return [self[i] for i in range(len(self))[position]]
        ds = self._dataset
        position = range(len(ds))[position]
        lo, hi = ds.starts[position], ds.starts[position + 1]
        return Record(
            int(ds.depth[position]), int(ds.input[position]), int(ds.seq[position]),
            int(ds.shots[position]),
            dict(zip(ds.outcome[lo:hi].tolist(), ds.count[lo:hi].tolist())),
        )
