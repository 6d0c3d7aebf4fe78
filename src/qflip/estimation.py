"""Noise-model estimation from identity-circuit shot counts.

Pipeline per input state: average the per-circuit empirical distributions
at each depth, xor-align to the input, Walsh-transform, fit each spectral
coefficient to an exponential decay A * lambda**m by least squares in the
log domain, then map the fitted eigenvalues back to flip-pattern rates and
project onto the simplex. A randomized-benchmarking style scalar fit of
the survival probability is included as a baseline.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .channel import (
    InputChannel,
    NoiseModel,
    predict_distribution,
    rates_from_eigenvalues,
)
from .errors import CoverageError
from .records import Dataset
from .transforms import fwht, xor_permute

__all__ = [
    "DepthAverage",
    "FitResult",
    "RbResult",
    "FIT_FLOOR",
    "aggregate",
    "spectralize",
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

# rb_fit bounds and alpha search: grid size and golden-section stopping width
RB_AMPLITUDE_MAX = 1.5
RB_ALPHA_MIN = 1e-6
RB_ALPHA_GRID = 1001
RB_ALPHA_TOL = 1e-12
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
    rows = dataset.distributions(depth, input_index)
    # an axis-0 sum adds the rows one at a time in sequence order; the golden
    # artifact hashes depend on that order
    return DepthAverage(
        depth=depth,
        input_index=input_index,
        distribution=rows.sum(axis=0) / len(rows),
        circuits_used=len(rows),
    )


def spectralize(avg: DepthAverage) -> np.ndarray:
    """Input-aligned Walsh spectrum of the averaged distribution.

    Entry 0 is pinned to 1 (total mass of a distribution).
    """
    spectrum = fwht(xor_permute(avg.distribution, avg.input_index))
    spectrum[0] = 1.0
    return spectrum


@dataclass(frozen=True, eq=False)
class FitResult:
    """Per-coefficient decay fit: spectrum(m) ~= spam * eigenvalues**m."""

    spam: np.ndarray
    eigenvalues: np.ndarray
    points_used: np.ndarray
    residual: np.ndarray


def fit_decay(series: dict, train_depths=None) -> FitResult:
    """Fit spam * eigenvalue**m to each spectral coefficient.

    series maps depth -> spectrum vector. Per coefficient, depths whose
    value exceeds FIT_FLOOR enter an ordinary least squares of log(value)
    on depth; the eigenvalue is clamped to [FIT_FLOOR, 1]. Coefficients
    with fewer than two usable points get eigenvalue FIT_FLOOR and spam
    equal to the first usable value (0 if none); points_used flags them.
    """
    depths = sorted(series) if train_depths is None else sorted(set(train_depths))
    if len(depths) < 2:
        raise ValueError(f"need at least 2 training depths, got {len(depths)}")
    missing = [m for m in depths if m not in series]
    if missing:
        raise CoverageError(f"series has no spectrum at depths {missing}")
    table = np.stack([np.asarray(series[m], dtype=float) for m in depths])
    depth_arr = np.array(depths, dtype=float)
    size = table.shape[1]

    spam = np.ones(size)
    eigenvalues = np.ones(size)
    points_used = np.full(size, len(depths))
    residual = np.zeros(size)
    for i in range(1, size):
        values = table[:, i]
        usable = values > FIT_FLOOR
        used = int(usable.sum())
        points_used[i] = used
        if used < 2:
            eigenvalues[i] = FIT_FLOOR
            spam[i] = float(values[usable][0]) if used else 0.0
            residual[i] = np.nan
            continue
        logs = np.log(values[usable])
        slope, intercept = np.polyfit(depth_arr[usable], logs, 1)
        eigenvalues[i] = min(max(np.exp(slope), FIT_FLOOR), 1.0)
        spam[i] = np.exp(intercept)
        fitted = intercept + slope * depth_arr[usable]
        residual[i] = float(np.sqrt(np.mean((logs - fitted) ** 2)))
    return FitResult(
        spam=spam, eigenvalues=eigenvalues, points_used=points_used, residual=residual
    )


def exact_averages(model: NoiseModel, depths, inputs) -> list[DepthAverage]:
    """Zero-shot-noise pseudo-data: the model's own exact predictions."""
    return [
        DepthAverage(
            depth=depth,
            input_index=index,
            distribution=predict_distribution(model, depth, index),
            circuits_used=1,
        )
        for depth in depths
        for index in inputs
    ]


def estimate_model_from_averages(
    n: int, averages, train_depths=None, use_average_rates: bool = False
):
    """Fit a NoiseModel from precomputed DepthAverages.

    Returns (model, diagnostics) where diagnostics maps input index ->
    FitResult. With use_average_rates every channel's rates are replaced
    by the mean over the fitted inputs (SPAM stays input-specific).
    """
    by_input: dict[int, dict[int, np.ndarray]] = {}
    for avg in averages:
        by_input.setdefault(avg.input_index, {})[avg.depth] = spectralize(avg)
    if not by_input:
        raise CoverageError("no averages supplied")
    channels = {}
    diagnostics = {}
    for index, series in sorted(by_input.items()):
        fit = fit_decay(series, train_depths)
        diagnostics[index] = fit
        channels[index] = InputChannel(
            rates=rates_from_eigenvalues(fit.eigenvalues), spam=fit.spam
        )
    if use_average_rates:
        pooled = np.mean([c.rates for c in channels.values()], axis=0)
        channels = {
            index: InputChannel(rates=pooled, spam=c.spam)
            for index, c in channels.items()
        }
    return NoiseModel(n=n, channels=channels), diagnostics


def estimate_model(
    dataset: Dataset,
    inputs=None,
    train_depths=None,
    use_average_rates: bool = False,
):
    """Full pipeline: aggregate, spectralize, fit, back-transform.

    inputs defaults to every input present in the dataset; train_depths
    to every depth present. Raises CoverageError naming each requested
    (depth, input) pair with no records.
    """
    inputs = dataset.input_indices() if inputs is None else sorted(set(inputs))
    depths = dataset.depths() if train_depths is None else sorted(set(train_depths))
    if not inputs:
        raise CoverageError("dataset has no records")
    dataset.require(depths, inputs)
    averages = [aggregate(dataset, depth, index) for index in inputs for depth in depths]
    return estimate_model_from_averages(
        dataset.n, averages, train_depths=depths, use_average_rates=use_average_rates
    )


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
    depths = dataset.depths() if depths is None else sorted(set(depths))
    return {
        depth: float(aggregate(dataset, depth, input_index).distribution[input_index])
        for depth in depths
    }


def rb_fit(series: dict, n: int) -> RbResult:
    """Fit the scalar decay and convert to average gate error.

    Bounded least squares over amplitude in [0, 1.5], offset in [0, 1] and
    alpha in [RB_ALPHA_MIN, 1], by variable projection: for a fixed alpha
    the best (amplitude, offset) has a closed form, so only alpha is
    searched, on a grid and then by golden section around the best grid
    point. gate_error r = (2**n - 1) (1 - alpha) / 2**n. degenerate means
    a constant series: alpha = 1, r = 0, amplitude 0.
    """
    if len(series) < 3:
        raise ValueError(f"need at least 3 depths for the scalar fit, got {len(series)}")
    depths = np.array(sorted(series), dtype=float)
    values = np.array([series[m] for m in sorted(series)], dtype=float)
    size = 1 << n
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
    best = int(np.argmin(_rb_profile(grid, depths, values)[0]))
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
    residual = amps[:, :, None] * decay + offs[:, :, None] - values
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


def write_diagnostics(path, fit: FitResult, meta: str | None = None) -> None:
    """Fit diagnostics CSV: coefficient,A,lambda,points_used,residual."""
    with open(path, "w", newline="") as handle:
        if meta:
            handle.write(f"# {meta}\n")
        writer = csv.writer(handle)
        writer.writerow(["coefficient", "A", "lambda", "points_used", "residual"])
        for i in range(fit.spam.size):
            writer.writerow(
                [
                    i,
                    f"{fit.spam[i]:.12g}",
                    f"{fit.eigenvalues[i]:.12g}",
                    int(fit.points_used[i]),
                    f"{fit.residual[i]:.12g}",
                ]
            )
