"""Noise-model estimation from identity-circuit shot counts.

Pipeline: average the per-circuit empirical distributions into an
(inputs, depths, 2**n) table of cell means for a block of inputs, xor-align
each row to its input and Walsh-transform the block at once, fit each input's spectral
coefficients to exponential decays A * lambda**m by least squares in the
log domain, then keep each input's rates as W^-1 lambda, unprojected: they
sum to 1, may hold small negative entries, and their spectrum lies in
[-1, 1]. A randomized-benchmarking style scalar fit of the survival
probability is included as a baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .channel import InputChannel, NoiseModel, predict_distribution
from .errors import select
from .records import Dataset, index_to_bits, require_cells, write_csv
from .transforms import check_depths, check_qubit_count, fwht_in_place, fwht_inverse, xor_permute

__all__ = [
    "DepthAverage",
    "FitResult",
    "RbResult",
    "FIT_FLOOR",
    "aggregate",
    "spectralize",
    "require_fit_depths",
    "fit_decay",
    "estimate_model",
    "estimate_model_from_averages",
    "exact_averages",
    "rb_series_from_dataset",
    "rb_fit",
    "write_diagnostics",
]

# below this value a spectral sample is treated as decayed to noise; also
# the lower clamp for fitted eigenvalues
FIT_FLOOR = 1e-6
# estimate_model fits a block of inputs whose cell means number about this
# many values (inputs x depths x 2**n) at a time
_FIT_ENTRIES = 1 << 17

# the fewest depths that fit_decay (a slope and an intercept) and rb_fit
# (amplitude, offset and alpha) take
MIN_FIT_DEPTHS = 2
MIN_RB_DEPTHS = 3

# rb_fit bounds and alpha search: grid size and golden-section stopping width
RB_AMPLITUDE_MAX = 1.5
RB_ALPHA_MIN = 1e-6
RB_ALPHA_GRID = 1001
RB_ALPHA_TOL = 1e-12
# alphas scored per _rb_profile call while searching the grid
_RB_GRID_BLOCK = 64
_INV_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True, eq=False)
class DepthAverage:
    """Mean empirical distribution over the circuits at one (depth, input)."""

    depth: int
    input_index: int
    distribution: np.ndarray
    circuits_used: int

    def __post_init__(self):
        if self.circuits_used < 1:
            raise ValueError("need at least one circuit")
        arr = np.asarray(self.distribution, dtype=float)
        arr.flags.writeable = False
        object.__setattr__(self, "distribution", arr)


def aggregate(dataset: Dataset, depth: int, input_index: int) -> DepthAverage:
    """Average the normalized counts of every record at (depth, input)."""
    return DepthAverage(
        depth=depth,
        input_index=input_index,
        distribution=dataset.cell_means([depth], [input_index])[0, 0],
        circuits_used=dataset.circuits(depth, input_index),
    )


def spectralize(avg: DepthAverage) -> np.ndarray:
    """Input-aligned Walsh spectrum of the averaged distribution.

    Entry 0 is pinned to 1 (total mass of a distribution).
    """
    return _aligned_spectra(avg.distribution[None, None], [avg.input_index])[0, 0]


def _aligned_spectra(means: np.ndarray, inputs) -> np.ndarray:
    """Spectra of an ``(inputs, depths, 2**n)`` table of distributions,
    each xor-aligned to its input; entry 0 of every spectrum is 1. The
    aligned copy is transformed in place."""
    spectra = fwht_in_place(xor_permute(means, np.asarray(inputs, dtype=np.int64)[:, None]))
    spectra[..., 0] = 1.0
    return spectra


@dataclass(frozen=True, eq=False)
class FitResult:
    """Per-coefficient decay fit: spectrum(m) ~= spam * eigenvalues**m."""

    spam: np.ndarray
    eigenvalues: np.ndarray
    points_used: np.ndarray
    residual: np.ndarray


def require_fit_depths(count: int, rb: bool = False) -> None:
    """ValueError unless count distinct depths are enough for fit_decay,
    or with rb for rb_fit."""
    if rb and count < MIN_RB_DEPTHS:
        raise ValueError(f"need at least {MIN_RB_DEPTHS} depths for the scalar fit, got {count}")
    if not rb and count < MIN_FIT_DEPTHS:
        raise ValueError(f"need at least {MIN_FIT_DEPTHS} training depths, got {count}")


def fit_decay(spectra, depths) -> FitResult:
    """Fit spam * eigenvalue**m to each column of a spectrum table.

    Row j of the ``(depths, 2**n)`` table is the spectrum at depths[j];
    the depths are distinct and follow the shared depth rule.
    Per coefficient, depths whose value exceeds FIT_FLOOR enter an
    ordinary least squares of log(value) on depth. All columns are solved
    at once in closed form from sums centred on each column's mean usable
    depth and log value; this agrees with a per-coefficient np.polyfit to
    rounding, not bit for bit. The eigenvalue is clamped to [FIT_FLOOR, 1].
    Coefficients with fewer than two usable points get eigenvalue
    FIT_FLOOR, spam equal to their one usable value (0 if none) and a NaN
    residual; points_used flags them. Coefficient 0 is pinned to 1.
    """
    table = np.asarray(spectra, dtype=float)
    depth_arr = check_depths(depths).astype(float)
    require_fit_depths(depth_arr.size)
    if depth_arr.ndim != 1 or table.ndim != 2 or len(table) != len(depth_arr):
        raise ValueError(
            f"spectrum table shape {table.shape} does not match {depth_arr.size} depths"
        )
    ordered = np.sort(depth_arr)
    if np.any(ordered[1:] == ordered[:-1]):
        raise ValueError("training depths repeat a value")
    usable = table > FIT_FLOOR
    used = usable.sum(axis=0)
    count = np.maximum(used, 1)
    # unusable points get log(1) = 0 and weight 0 (usable is the weight)
    logs = np.log(np.where(usable, table, 1.0))
    x_mean = depth_arr @ usable / count
    y_mean = logs.sum(axis=0) / count
    dx = (depth_arr[:, None] - x_mean) * usable
    dy = logs - y_mean
    spread = np.einsum("ij,ij->j", dx, dx)
    # distinct depths give a positive spread wherever two points are usable
    slope = np.einsum("ij,ij->j", dx, dy) / np.where(used >= 2, spread, 1.0)
    intercept = y_mean - slope * x_mean
    errors = ((dy - slope * dx) * usable) ** 2
    residual = np.sqrt(errors.sum(axis=0) / count)
    eigenvalues = np.clip(np.exp(slope), FIT_FLOOR, 1.0)
    spam = np.exp(intercept)

    few = used < 2
    eigenvalues[few], residual[few] = FIT_FLOOR, np.nan
    # the one usable value, or 0 where there is none
    spam[few] = np.where(usable, table, 0.0).max(axis=0)[few]
    used[0], spam[0], eigenvalues[0], residual[0] = len(depth_arr), 1.0, 1.0, 0.0
    return FitResult(spam=spam, eigenvalues=eigenvalues, points_used=used, residual=residual)


def exact_averages(model: NoiseModel, depths, inputs) -> list[DepthAverage]:
    """Zero-shot-noise pseudo-data: the model's own exact predictions."""
    inputs = list(inputs)
    return [
        DepthAverage(depth=depth, input_index=index, distribution=row, circuits_used=1)
        for depth in depths
        for index, row in zip(inputs, predict_distribution(model, depth, inputs))
    ]


def estimate_model_from_averages(n: int, averages, train_depths=None):
    """Fit a NoiseModel from precomputed DepthAverages.

    The averages are stacked into the ``(inputs, depths, 2**n)`` table that
    estimate_model reads from a dataset and fit the same way; a later
    average of a cell replaces an earlier one. train_depths defaults to
    every depth supplied, and every input needs an average at each.
    Returns (model, diagnostics) where diagnostics maps input index ->
    FitResult.
    """
    cells = {(avg.depth, avg.input_index): avg.distribution for avg in averages}
    depths = select([depth for depth, _ in cells] if train_depths is None else train_depths)
    inputs = select([index for _, index in cells], n)
    require_cells(depths, inputs, cells, n, "no averages for")
    means = np.array([[cells[depth, index] for depth in depths] for index in inputs])
    return _model_from_fits(n, inputs, _fit_table(means, inputs, depths))


def estimate_model(dataset: Dataset, inputs=None, train_depths=None):
    """Full pipeline: cell means, spectra, fit, back-transform.

    inputs defaults to every input present in the dataset; train_depths
    to every depth present. Raises CoverageError for an empty selection,
    or naming each requested (depth, input) pair with no records. Inputs
    are fitted a block at a time, so the table of cell means and its
    spectra hold about _FIT_ENTRIES values, whatever the number of inputs.
    """
    inputs = dataset.input_indices() if inputs is None else select(inputs, dataset.n)
    depths = dataset.depths() if train_depths is None else select(train_depths)
    # every missing cell is named, not only those of the first block
    dataset.require(depths, inputs)
    step = max(1, _FIT_ENTRIES // (len(depths) * dataset.size))
    fits = []
    for lo in range(0, len(inputs), step):
        block = inputs[lo:lo + step]
        fits += _fit_table(dataset.cell_means(depths, block), block, depths)
    return _model_from_fits(dataset.n, inputs, fits)


def _fit_table(means, inputs, depths) -> list:
    """The FitResult of each input's row of an ``(inputs, depths, 2**n)``
    table of averaged distributions."""
    return [fit_decay(spectra, depths) for spectra in _aligned_spectra(means, inputs)]


def _model_from_fits(n, inputs, fits):
    """(model, diagnostics) of the inputs' fits, in input order."""
    rates = fwht_inverse(np.stack([fit.eigenvalues for fit in fits]))
    spam = np.stack([fit.spam for fit in fits])
    channels = dict(zip(inputs, map(InputChannel, rates, spam)))
    return NoiseModel(n, channels), dict(zip(inputs, fits))


@dataclass(frozen=True, eq=False)
class RbResult:
    """Randomized-benchmarking style scalar decay fit q(m) = A alpha**m + B."""

    amplitude: float
    offset: float
    alpha: float
    gate_error: float
    degenerate: bool = False


def rb_series_from_dataset(dataset: Dataset, input_index: int = 0, depths=None) -> dict:
    """Survival probability of the input bitstring at each depth."""
    depths = dataset.depths() if depths is None else select(depths)
    means = dataset.cell_means(depths, [input_index])[0]
    return {depth: float(row[input_index]) for depth, row in zip(depths, means)}


def rb_fit(series: dict, n: int) -> RbResult:
    """Fit the scalar decay and convert to average gate error.

    Bounded least squares over amplitude in [0, 1.5], offset in [0, 1] and
    alpha in [RB_ALPHA_MIN, 1], by variable projection: for a fixed alpha
    the best (amplitude, offset) has a closed form, so only alpha is
    searched, on a grid and then by golden section around the best grid
    point. gate_error r = (2**n - 1) (1 - alpha) / 2**n. degenerate means
    a constant series: alpha = 1, r = 0, amplitude 0. The series maps
    depths to finite values; n and the depths follow the shared rules.
    """
    size = 1 << check_qubit_count(n)
    require_fit_depths(len(series), rb=True)
    ordered = sorted(check_depths(list(series)).tolist())
    depths = np.array(ordered, dtype=float)
    values = np.array([series[m] for m in ordered], dtype=float)
    if not np.all(np.isfinite(values)):
        bad = int(np.argmin(np.isfinite(values)))
        raise ValueError(f"value at depth {ordered[bad]} is not finite, got {values[bad]}")
    if np.ptp(values) < 1e-12:
        return RbResult(
            amplitude=0.0,
            offset=float(values[0]),
            alpha=1.0,
            gate_error=0.0,
            degenerate=True,
        )
    def rss_at(alpha):
        return _rb_profile(np.array([alpha]), depths, values)[0][0]

    grid = np.linspace(RB_ALPHA_MIN, 1.0, RB_ALPHA_GRID)
    # a block of alphas at a time, so that the (candidates, alphas, depths)
    # residuals of the whole grid are never held at once
    grid_rss = np.concatenate([
        _rb_profile(grid[lo : lo + _RB_GRID_BLOCK], depths, values)[0]
        for lo in range(0, grid.size, _RB_GRID_BLOCK)
    ])
    best = int(np.argmin(grid_rss))
    low, high = grid[max(best - 1, 0)], grid[min(best + 1, grid.size - 1)]
    inner_low = high - _INV_GOLDEN * (high - low)
    inner_high = low + _INV_GOLDEN * (high - low)
    rss_low, rss_high = rss_at(inner_low), rss_at(inner_high)
    while high - low > RB_ALPHA_TOL:
        if rss_low < rss_high:
            high, inner_high, rss_high = inner_high, inner_low, rss_low
            inner_low = high - _INV_GOLDEN * (high - low)
            rss_low = rss_at(inner_low)
        else:
            low, inner_low, rss_low = inner_low, inner_high, rss_high
            inner_high = low + _INV_GOLDEN * (high - low)
            rss_high = rss_at(inner_high)
    finalists = np.array([grid[best], inner_low, inner_high])
    rss, amplitudes, offsets = _rb_profile(finalists, depths, values)
    pick = int(np.argmin(rss))
    alpha = float(finalists[pick])
    gate_error = (size - 1) * (1.0 - alpha) / size
    return RbResult(
        amplitude=float(amplitudes[pick]),
        offset=float(offsets[pick]),
        alpha=alpha,
        gate_error=gate_error,
    )


def _rb_profile(alphas: np.ndarray, depths: np.ndarray, values: np.ndarray):
    """Best bounded (amplitude, offset) for each alpha; returns (rss, amplitude, offset).

    The fit is linear in (amplitude, offset), so the box-constrained
    optimum is the unconstrained one when it lies inside the box, else the
    best of the four edges, each a clipped one-variable fit.
    """
    decay = alphas[:, None] ** depths
    centered = decay - decay.mean(axis=1, keepdims=True)
    spread = np.einsum("ij,ij->i", centered, centered)
    # alpha**m underflows to 0 for tiny alpha and deep depths; the amplitude
    # of an all-zero (or constant) decay is then left at 0
    free_amp = _divide(centered @ (values - values.mean()), spread)
    free_off = values.mean() - free_amp * decay.mean(axis=1)
    inside = (spread > 0) & (free_amp >= 0) & (free_amp <= RB_AMPLITUDE_MAX)
    inside &= (free_off >= 0) & (free_off <= 1)
    candidates = [(np.where(inside, free_amp, 0.0), np.where(inside, free_off, 0.0))]
    for amp in (0.0, RB_AMPLITUDE_MAX):
        off = np.clip((values - amp * decay).mean(axis=1), 0.0, 1.0)
        candidates.append((np.full_like(off, amp), off))
    power = np.einsum("ij,ij->i", decay, decay)
    for off in (0.0, 1.0):
        amp = np.clip(_divide(decay @ (values - off), power), 0.0, RB_AMPLITUDE_MAX)
        candidates.append((amp, np.full_like(amp, off)))
    amps = np.stack([amp for amp, _ in candidates])
    offs = np.stack([off for _, off in candidates])
    # in place: one (candidates, alphas, depths) array at a time
    residual = amps[:, :, None] * decay
    residual += offs[:, :, None]
    residual -= values
    rss = np.einsum("cij,cij->ci", residual, residual)
    rss[0, ~inside] = np.inf
    choice = np.argmin(rss, axis=0)
    columns = np.arange(alphas.size)
    return rss[choice, columns], amps[choice, columns], offs[choice, columns]


def _divide(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    """numerator / denominator where the denominator is positive, else 0."""
    return np.divide(
        numerator, denominator, out=np.zeros_like(numerator), where=denominator > 0
    )


def write_diagnostics(path, fits: dict, meta: str | None = None) -> None:
    """Fit diagnostics CSV of a ``{input index: FitResult}`` mapping, as
    estimate_model returns it: columns input,coefficient,A,lambda,
    points_used,residual, one row per input and Walsh coefficient, by
    increasing input and then coefficient. input is the n-bit string of
    the index, n being log2 of the number of coefficients of each fit."""

    def rows():
        for index in sorted(fits):
            fit = fits[index]
            size = len(fit.spam)
            yield from zip(
                repeat(index_to_bits(index, size.bit_length() - 1)),
                range(size),
                fit.spam.tolist(),
                fit.eigenvalues.tolist(),
                fit.points_used.tolist(),
                fit.residual.tolist(),
            )

    columns = ["input", "coefficient", "A", "lambda", "points_used", "residual"]
    write_csv(path, meta, columns, "%s,%d,%.12g,%.12g,%d,%.12g", rows())
