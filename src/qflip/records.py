"""Shot-count records and the JSON-lines dataset format.

One record holds the outcome counts of a single circuit submission:
(depth, input state, sequence id, shots, counts). Outcomes and inputs are
n-bit basis indices; on the wire they appear as bitstrings whose rightmost
character is qubit 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import CoverageError, format_missing
from .transforms import MAX_QUBITS

__all__ = [
    "CountsRecord",
    "Dataset",
    "index_to_bits",
    "bits_to_index",
    "record_to_json",
    "record_from_json",
]


def index_to_bits(index: int, n: int) -> str:
    """Basis index -> n-character bitstring, qubit 0 rightmost."""
    if not 0 <= index < (1 << n):
        raise ValueError(f"index {index} out of range for {n} qubits")
    return format(index, f"0{n}b")


def bits_to_index(bits: str) -> int:
    if not bits or any(c not in "01" for c in bits):
        raise ValueError(f"invalid bitstring {bits!r}")
    return int(bits, 2)


@dataclass(frozen=True, eq=False)
class CountsRecord:
    """Outcome counts for one circuit run at one depth and input state."""

    depth: int
    input_index: int
    sequence_id: int
    shots: int
    counts: dict[int, int]

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError(f"depth must be >= 0, got {self.depth}")
        if self.input_index < 0:
            raise ValueError(f"input index must be >= 0, got {self.input_index}")
        if self.sequence_id < 0:
            raise ValueError(f"sequence id must be >= 0, got {self.sequence_id}")
        if self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")
        counts = {int(k): int(v) for k, v in self.counts.items()}
        if any(k < 0 for k in counts):
            raise ValueError("negative outcome index in counts")
        if any(v < 0 for v in counts.values()):
            raise ValueError("negative count value")
        total = sum(counts.values())
        if total != self.shots:
            raise ValueError(f"counts sum to {total}, expected shots={self.shots}")
        object.__setattr__(self, "counts", counts)

    def sort_key(self):
        return (self.depth, self.sequence_id, self.input_index)


def record_to_json(record: CountsRecord, n: int) -> str:
    payload = {
        "depth": record.depth,
        "input": index_to_bits(record.input_index, n),
        "seq": record.sequence_id,
        "shots": record.shots,
        "counts": {
            index_to_bits(outcome, n): count
            for outcome, count in sorted(record.counts.items())
        },
    }
    return json.dumps(payload, separators=(",", ":"))


def record_from_json(line: str) -> tuple[CountsRecord, int]:
    """Parse one dataset line; returns (record, qubit count)."""
    try:
        payload = json.loads(line)
        input_bits = payload["input"]
        record = CountsRecord(
            depth=int(payload["depth"]),
            input_index=bits_to_index(input_bits),
            sequence_id=int(payload["seq"]),
            shots=int(payload["shots"]),
            counts={bits_to_index(k): int(v) for k, v in payload["counts"].items()},
        )
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise ValueError(f"malformed dataset record: {exc}") from exc
    n = len(input_bits)
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"input bitstring length {n} out of range")
    bad = [k for k in payload["counts"] if len(k) != n]
    if bad:
        raise ValueError(f"outcome bitstring {bad[0]!r} does not have {n} bits")
    return record, n


@dataclass(eq=False)
class Dataset:
    """CountsRecords over a fixed qubit count, indexed by (depth, input).

    Each (depth, input) cell holds its records sorted by sequence id; a
    repeated (depth, input, seq) triple is rejected.
    """

    n: int
    records: tuple[CountsRecord, ...]

    def __post_init__(self):
        if not 1 <= self.n <= MAX_QUBITS:
            raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}], got {self.n}")
        self.records = tuple(self.records)
        size = 1 << self.n
        cells: dict[tuple[int, int], list[CountsRecord]] = {}
        for record in self.records:
            if record.input_index >= size:
                raise ValueError(
                    f"record input {record.input_index} out of range for n={self.n}"
                )
            if any(outcome >= size for outcome in record.counts):
                raise ValueError(f"record outcome out of range for n={self.n}")
            cells.setdefault((record.depth, record.input_index), []).append(record)
        for (depth, index), cell in cells.items():
            cell.sort(key=lambda record: record.sequence_id)
            for first, second in zip(cell, cell[1:]):
                if first.sequence_id == second.sequence_id:
                    raise ValueError(
                        f"duplicate record (depth={depth}, "
                        f"input={index_to_bits(index, self.n)}, seq={first.sequence_id})"
                    )
        self._cells = cells

    @property
    def size(self) -> int:
        return 1 << self.n

    def __len__(self) -> int:
        return len(self.records)

    def depths(self) -> list[int]:
        return sorted({depth for depth, _ in self._cells})

    def input_indices(self) -> list[int]:
        return sorted({index for _, index in self._cells})

    def group(self, depth: int, input_index: int) -> list[CountsRecord]:
        """Records at (depth, input) in sequence-id order; [] when absent."""
        return list(self._cells.get((depth, input_index), ()))

    def require(self, depths, inputs) -> None:
        """Raise CoverageError naming every (depth, input) cell with no records."""
        missing = [
            (depth, index)
            for index in inputs
            for depth in depths
            if (depth, index) not in self._cells
        ]
        if missing:
            shown = format_missing(
                missing, lambda cell: f"(m={cell[0]}, in={index_to_bits(cell[1], self.n)})"
            )
            raise CoverageError(f"dataset is missing records for {shown}")

    def distributions(self, depth: int, input_index: int) -> np.ndarray:
        """Normalized counts of the cell's circuits, one row per record."""
        self.require([depth], [input_index])
        cell = self._cells[(depth, input_index)]
        lengths = [len(record.counts) for record in cell]
        total = sum(lengths)
        rows = np.zeros((len(cell), self.size))
        outcomes = np.fromiter(
            (outcome for record in cell for outcome in record.counts), np.intp, total
        )
        counts = np.fromiter(
            (count for record in cell for count in record.counts.values()), float, total
        )
        rows[np.repeat(np.arange(len(cell)), lengths), outcomes] = counts
        rows /= np.array([record.shots for record in cell], dtype=float)[:, None]
        return rows

    def sorted_records(self) -> list[CountsRecord]:
        return sorted(self.records, key=CountsRecord.sort_key)

    def write_jsonl(self, path, header: str | None = None) -> None:
        """Write records in canonical order; header becomes a '#' comment."""
        with open(path, "w") as handle:
            if header:
                handle.write(f"# {header}\n")
            for record in self.sorted_records():
                handle.write(record_to_json(record, self.n) + "\n")

    @classmethod
    def read_jsonl(cls, path) -> "Dataset":
        records = []
        n = None
        with open(path) as handle:
            for line_no, line in enumerate(handle, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    record, record_n = record_from_json(line)
                except ValueError as exc:
                    raise ValueError(f"{path}:{line_no}: {exc}") from exc
                if n is None:
                    n = record_n
                elif record_n != n:
                    raise ValueError(
                        f"{path}:{line_no}: qubit count {record_n} != {n} seen earlier"
                    )
                records.append(record)
        if n is None:
            raise ValueError(f"{path}: dataset file is empty")
        try:
            return cls(n=n, records=records)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
