"""Error mitigation and scoring.

Every method is one entry of CORRECTIONS: a builder that runs once per
evaluation with ``(dataset, model)`` and gives, per test depth, a
correction ``rows -> (rows, flag)`` on the depth's ``(records, 2**n)``
empirical distributions. The matrix methods multiply every row by the
inverse of a system and project back onto the simplex: proposed the
depth-m prediction matrix, MEM the readout-calibration baseline (depth-0
confusion matrix) built from gate-free records. Each system is factored
once, by one inversion, so MEM pays it once per evaluation and proposed
once per depth. Quality is scored with the Jensen-Shannon
divergence in bits against the ideal output of an identity circuit,
averaged over circuits per (depth, input) and over everything per depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .channel import MitigationMatrix, NoiseModel, mitigation_matrix, pool_rates
from .errors import NumericError, select
from .records import Dataset, index_to_bits, write_csv
from .transforms import require_prob_dist, simplex_project

__all__ = [
    "UNMITIGATED",
    "MEM",
    "PROPOSED",
    "PROPOSED_PAVG",
    "METHOD_ORDER",
    "CORRECTIONS",
    "DEFAULT_METHODS",
    "COND_LIMIT",
    "ILL_CONDITIONED_FLAG",
    "jsd",
    "mitigate",
    "build_mem_matrix",
    "evaluate_mitigation",
    "ReportRow",
    "MitigationReport",
]

UNMITIGATED = "unmitigated"
MEM = "MEM"
PROPOSED = "proposed"
PROPOSED_PAVG = "proposed_pavg"
DEFAULT_METHODS = (UNMITIGATED, MEM, PROPOSED)

# above this 1-norm condition number the product with the inverse is distrusted
# and the pseudo-inverse path is taken (and flagged in reports)
COND_LIMIT = 1e8
ILL_CONDITIONED_FLAG = "ill_conditioned"

# jsd scores about this many entries at a time
_JSD_ENTRIES = 1 << 14


def jsd(p, q):
    """Jensen-Shannon divergence in bits; 0 for equal, 1 for disjoint.

    1-d distributions give a float. ``(..., 2**n)`` arrays are scored row
    by row along the last axis and give an array of the leading shape. Each
    row's score is one C-ordered sum over its 2**n terms, whatever the
    input's layout, so it equals the 1-d score of that row. Rows are
    scored about _JSD_ENTRIES entries at a time, so the temporaries stay a
    few times that size whatever the batch.
    """
    p_arr = np.asarray(p, dtype=float)
    q_arr = np.asarray(q, dtype=float)
    if p_arr.shape != q_arr.shape:
        raise ValueError(f"shape mismatch: {p_arr.shape} vs {q_arr.shape}")
    p_rows = require_prob_dist(p_arr).reshape(-1, p_arr.shape[-1])
    q_rows = require_prob_dist(q_arr).reshape(-1, q_arr.shape[-1])
    scores = np.empty(len(p_rows))
    step = max(1, _JSD_ENTRIES // p_rows.shape[1])
    for lo in range(0, len(p_rows), step):
        rows = slice(lo, lo + step)
        p_part = np.maximum(p_rows[rows], 0.0)
        q_part = np.maximum(q_rows[rows], 0.0)
        total = p_part + q_part
        scores[rows] = 0.5 * (_kl_bits(p_part, total) + _kl_bits(q_part, total))
    return float(scores[0]) if p_arr.ndim == 1 else scores.reshape(p_arr.shape[:-1])


def _kl_bits(a: np.ndarray, total: np.ndarray) -> np.ndarray:
    """sum(a * log2(a / mid)) per row of ``(rows, 2**n)``, where mid =
    total / 2, as one sum over all 2**n terms, 0 off the support of a.

    The terms array is C-ordered whatever the layout of a, so each row is
    added in the order a 1-d sum over its 2**n terms uses.
    """
    # 2a / total, not a / (total / 2): halving a subnormal total can round
    # it to 0, while doubling is exact, so normal values give the same bits
    terms = np.log2(np.divide(2.0 * a, total, out=np.ones(a.shape), where=a > 0.0))
    terms *= a
    return terms.sum(axis=1)


def _score_rows(outputs: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """JSD of each row of ``(records, 2**n)`` outputs against the basis
    state truth[row], bit for bit ``jsd(one_hot, row)``, with no one-hot
    rows made. Rows go about _JSD_ENTRIES entries at a time, and
    require_prob_dist checks each block as jsd would.

    Off the truth the mixture is the row's own entry q, so its term
    q * log2(2q / q) is q exactly (0 at q = 0). At the truth, with t the
    row's entry, the row's term is t * log2(2t / (1 + t)) and the one-hot
    side's whole sum is log2(2 / (1 + t)). Each row's terms are still one
    C-ordered sum over its 2**n entries, as in _kl_bits.
    """
    scores = np.empty(len(outputs))
    step = max(1, _JSD_ENTRIES // outputs.shape[1])
    for lo in range(0, len(outputs), step):
        block = require_prob_dist(outputs[lo:lo + step])
        terms = np.maximum(block, 0.0, out=np.empty(block.shape))
        at = (np.arange(len(block)), truth[lo:lo + step])
        mass = terms[at]
        total = 1.0 + mass
        ratio = np.divide(2.0 * mass, total, out=np.ones(len(mass)), where=mass > 0.0)
        terms[at] = np.log2(ratio) * mass
        scores[lo:lo + step] = 0.5 * (np.log2(2.0 / total) + terms.sum(axis=1))
    return scores


def _invert(system: MitigationMatrix, rows: np.ndarray) -> tuple[np.ndarray, str]:
    """Matrix correction: all rows times the system's inverse in one product,
    then projected in place, _JSD_ENTRIES entries at a time. Above COND_LIMIT
    least squares solves the rows instead, and the result is flagged."""
    fallback = system.condition > COND_LIMIT
    if fallback:
        rows = np.linalg.lstsq(system.matrix, rows.T, rcond=None)[0].T
        if not np.all(np.isfinite(rows)):
            raise NumericError("mitigation solve failed even via least squares")
    else:
        rows = rows @ system.inverse.T
    step = max(1, _JSD_ENTRIES // rows.shape[1])
    for lo in range(0, len(rows), step):
        rows[lo:lo + step] = simplex_project(rows[lo:lo + step])
    return rows, ILL_CONDITIONED_FLAG if fallback else ""


def mitigate(mit: MitigationMatrix, noisy) -> np.ndarray:
    """Invert the mitigation system on one observed distribution, which
    must pass require_prob_dist."""
    noisy = np.asarray(noisy, dtype=float)
    if noisy.shape != (mit.size,):
        raise ValueError(f"distribution shape {noisy.shape} does not match {mit.size}")
    return _invert(mit, require_prob_dist(noisy)[None])[0][0]


def build_mem_matrix(dataset: Dataset) -> MitigationMatrix:
    """Readout-confusion matrix from gate-free (depth-0) records.

    Column in = averaged prepare-and-measure distribution on input in;
    needs every basis input at depth 0.
    """
    return MitigationMatrix(0, dataset.cell_means([0], range(dataset.size))[:, 0].T)


def _as_measured(dataset: Dataset, model: NoiseModel | None):
    return lambda depth: lambda rows: (rows, "")


def _readout_inverse(dataset: Dataset, model: NoiseModel | None):
    correction = partial(_invert, build_mem_matrix(dataset))
    return lambda depth: correction


def _prediction_inverse(dataset: Dataset, model: NoiseModel | None):
    if model is None:
        raise ValueError("model-based methods need a fitted model")
    return lambda depth: partial(_invert, mitigation_matrix(model, depth))


# method name -> builder(dataset, model), run once per evaluation, giving
# per test depth a correction rows -> (rows, flag); report order is key order
CORRECTIONS = {
    UNMITIGATED: _as_measured,
    MEM: _readout_inverse,
    PROPOSED: _prediction_inverse,
    PROPOSED_PAVG: lambda dataset, model: _prediction_inverse(dataset, model and pool_rates(model)),
}
METHOD_ORDER = tuple(CORRECTIONS)


@dataclass(frozen=True)
class ReportRow:
    depth: int
    input_label: str  # bitstring, or "all" for the pooled row
    method: str
    mean_jsd: float
    std_jsd: float
    flags: str


@dataclass(eq=False)
class MitigationReport:
    n: int
    rows: list

    def mean(self, depth: int, method: str, input_label: str = "all") -> float:
        for row in self.rows:
            if (row.depth, row.method, row.input_label) == (depth, method, input_label):
                return row.mean_jsd
        raise KeyError(f"no report row for depth={depth} method={method} input={input_label}")

    def methods(self) -> list:
        return sorted({row.method for row in self.rows}, key=METHOD_ORDER.index)

    def write_csv(self, path, meta: str | None = None) -> None:
        columns = ["depth", "input", "method", "mean_jsd", "std_jsd", "flags"]
        rows = (
            (r.depth, r.input_label, r.method, r.mean_jsd, r.std_jsd, r.flags)
            for r in self.rows
        )
        write_csv(path, meta, columns, "%d,%s,%s,%.12g,%.12g,%s", rows)


def _cell_moments(scores: np.ndarray, sizes: list) -> tuple[np.ndarray, np.ndarray]:
    """Mean and std of each row of ``(methods, records)`` scores over each
    cell of sizes[i] consecutive records, then over all of them, as
    ``(methods, cells + 1)`` arrays.

    The cells of one size are gathered into one ``(methods, cells, size)``
    array and reduced along its last axis in one mean and one std call;
    each cell's values are then one contiguous row, so it gets the bits of
    its own ``values.mean()`` and ``values.std()``.
    """
    starts = np.cumsum([0] + sizes[:-1])
    by_size = {}
    for position, size in enumerate(sizes):
        by_size.setdefault(size, []).append(position)
    means = np.empty((len(scores), len(sizes) + 1))
    stds = np.empty_like(means)
    for size, positions in by_size.items():
        # take, not scores[:, index]: that mixed index gives a strided
        # array, whose sums along a cell are not the cell's own sum
        cells = np.take(scores, starts[positions][:, None] + np.arange(size), axis=1)
        means[:, positions] = cells.mean(axis=2)
        stds[:, positions] = cells.std(axis=2)
    means[:, -1] = scores.mean(axis=1)
    stds[:, -1] = scores.std(axis=1)
    return means, stds


def evaluate_mitigation(
    dataset: Dataset,
    model: NoiseModel | None = None,
    test_depths=None,
    inputs=None,
    methods=DEFAULT_METHODS,
) -> MitigationReport:
    """Score each method per circuit and aggregate.

    Each method's builder in CORRECTIONS runs once, so the MEM system and
    ``pool_rates(model)`` are built once per call: one inversion per
    system, which the MEM system pays once per evaluation. Per depth, every
    method corrects all of the depth's records at once (a matrix method in
    one product with its system's inverse), and the corrected rows are scored a
    block of records at a time by their JSD against the input basis state
    (_score_rows, with no one-hot rows). Rows report mean/std over circuits
    per (depth, input, method), plus pooled "all" rows per (depth, method),
    with the correction's flag; _cell_moments takes the cells of one size
    in one mean and one std call, with the bits of each cell's own.
    """
    methods = list(methods)
    unknown = [m for m in methods if m not in METHOD_ORDER]
    if unknown:
        raise ValueError(f"unknown methods {unknown}; choose from {METHOD_ORDER}")
    if not methods:
        raise ValueError("need at least one method")
    ordered = sorted(methods, key=METHOD_ORDER.index)
    builders = {method: CORRECTIONS[method](dataset, model) for method in ordered}
    depths = [d for d in dataset.depths() if d > 0] if test_depths is None else select(test_depths)
    inputs = dataset.input_indices() if inputs is None else select(inputs, dataset.n)
    dataset.require(depths, inputs)

    rows = []
    for depth in depths:
        sizes = [dataset.circuits(depth, index) for index in inputs]
        truth = np.repeat(inputs, sizes)
        raw = dataset.distributions(depth, inputs)
        scores, flags = np.empty((len(ordered), len(truth))), {}
        for k, (method, builder) in enumerate(builders.items()):
            corrected, flags[method] = builder(depth)(raw)
            scores[k] = _score_rows(corrected, truth)
            del corrected
        # each input's cell in input order, then the pooled "all" row
        means, stds = _cell_moments(scores, sizes)
        labels = [index_to_bits(index, dataset.n) for index in inputs] + ["all"]
        for position, label in enumerate(labels):
            for k, method in enumerate(ordered):
                rows.append(ReportRow(
                    depth, label, method, float(means[k, position]),
                    float(stds[k, position]), flags[method],
                ))
    return MitigationReport(n=dataset.n, rows=rows)
