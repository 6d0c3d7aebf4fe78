"""Independent brute-force oracles used to pin expected values.

Everything here deliberately avoids the fast paths in qflip: dense matrix
builds, naive matrix powers, grid searches, direct 2x2 complex algebra,
and csv.writer and json.dump for the artifact bytes.
Tests compare library output against these. ``traced_peak`` measures
what a call allocates, for the memory bounds.
"""

from __future__ import annotations

import csv
import itertools
import json
import tracemalloc

import numpy as np


def traced_peak(fn):
    """(fn(), the peak in bytes of the memory allocated while fn ran, as
    tracemalloc counts it, over what was allocated before)."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def popcount(x: int) -> int:
    return bin(x).count("1")


def dense_wht_matrix(n: int) -> np.ndarray:
    """W[i, j] = (-1)**popcount(i & j), built entry by entry."""
    size = 2**n
    return np.array(
        [[(-1.0) ** popcount(i & j) for j in range(size)] for i in range(size)]
    )


def radix2_fwht(values: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of each vector along the last
    axis, on a copy: the radix-2 butterfly over the whole array in its own
    layout, stage half = 1, 2, 4, ..., each pair (low, high) becoming
    (low + high, low - high)."""
    out = np.array(values, dtype=float, order="C")
    half = 1
    while half < out.shape[-1]:
        pairs = out.reshape(-1, 2, half)
        low, high = pairs[:, 0, :], pairs[:, 1, :]
        odd = low - high
        low += high
        high[...] = odd
        half *= 2
    return out


def dense_gate_matrix(rates: np.ndarray) -> np.ndarray:
    """M[i, j] = rates[i ^ j], built entry by entry."""
    size = len(rates)
    return np.array([[rates[i ^ j] for j in range(size)] for i in range(size)])


def dense_spam_matrix(spam_diag: np.ndarray) -> np.ndarray:
    """(1/2**n) W diag(A) W via explicit dense products."""
    size = len(spam_diag)
    n = size.bit_length() - 1
    w = dense_wht_matrix(n)
    return w @ np.diag(spam_diag) @ w / size


def dense_power_apply(matrix: np.ndarray, m: int, vec: np.ndarray) -> np.ndarray:
    """matrix**m @ vec by repeated dense multiplication."""
    out = np.array(vec, dtype=float)
    for _ in range(m):
        out = matrix @ out
    return out


def grid_simplex_minimizer(target: np.ndarray, steps: int) -> np.ndarray:
    """Brute-force closest simplex point on a regular grid.

    Enumerates all compositions of `steps` into len(target) parts, i.e. the
    grid {k/steps}. Exponential; keep len(target) <= 4.
    """
    dim = len(target)
    best, best_dist = None, np.inf
    for combo in itertools.combinations(range(steps + dim - 1), dim - 1):
        parts = []
        prev = -1
        for cut in combo:
            parts.append(cut - prev - 1)
            prev = cut
        parts.append(steps + dim - 2 - prev)
        point = np.array(parts, dtype=float) / steps
        dist = np.sum((point - target) ** 2)
        if dist < best_dist:
            best, best_dist = point, dist
    return best


def threshold_simplex_project(values) -> np.ndarray:
    """Simplex projection of one vector by sort and threshold, taking the
    last index of the support found with np.nonzero."""
    arr = np.asarray(values, dtype=float)
    desc = np.sort(arr)[::-1]
    cumulative = np.cumsum(desc)
    counts = np.arange(1, arr.size + 1)
    rho = np.nonzero(desc + (1.0 - cumulative) / counts > 0.0)[0][-1]
    shift = (1.0 - cumulative[rho]) / (rho + 1.0)
    return np.maximum(arr + shift, 0.0)


def xor_permutation_matrix(n: int, basis_index: int) -> np.ndarray:
    """Pi[i, j] = 1 iff i ^ j == basis_index."""
    size = 2**n
    pi = np.zeros((size, size))
    for i in range(size):
        for j in range(size):
            if i ^ j == basis_index:
                pi[i, j] = 1.0
    return pi


def _kl_terms(p, q) -> list:
    """(terms, support) of p and of q: each KL term a * log2(a / mid) is
    computed on the boolean-masked support of a and set to 0 off it."""
    p = np.maximum(np.asarray(p, dtype=float), 0.0)
    q = np.maximum(np.asarray(q, dtype=float), 0.0)
    mid = 0.5 * (p + q)
    pairs = []
    for a in (p, q):
        mask = a > 0.0
        terms = np.zeros(a.shape)
        terms[mask] = a[mask] * np.log2(a[mask] / mid[mask])
        pairs.append((terms, mask))
    return pairs


def masked_jsd(p, q) -> float:
    """Jensen-Shannon divergence in bits of two 1-d distributions (the
    per-record form): each KL sum adds all 2**n terms by one np.sum."""
    return 0.5 * sum(float(np.sum(terms)) for terms, _ in _kl_terms(p, q))


def support_jsd(p, q) -> float:
    """masked_jsd with each KL sum taken over the support alone, so the
    terms are added in another order: equal to rounding, not bit for bit."""
    return 0.5 * sum(float(np.sum(terms[mask])) for terms, mask in _kl_terms(p, q))


def transposed_solve_projection(matrix, rows) -> np.ndarray:
    """Each row solved through matrix by np.linalg.solve on the stacked
    columns, then projected onto the simplex in the solve's own layout:
    the Fortran-ordered transpose of its output."""
    from qflip.transforms import simplex_project

    solved = np.linalg.solve(matrix, np.asarray(rows).T)
    return simplex_project(solved.T)


def per_record_mitigation_rows(dataset, depths, inputs, systems, cond_limit):
    """Mitigation report rows by the per-input, per-record loop.

    systems maps (depth, method) -> MitigationMatrix, or None for the
    unmitigated method; methods are scored in the order given. Each input's
    records are solved together, then projected with
    ``threshold_simplex_project`` and scored with ``masked_jsd`` one record
    at a time. Returns (depth, label,
    method, mean, std, flagged) tuples in report order.
    """
    from qflip.records import index_to_bits

    methods = list(dict.fromkeys(method for _, method in systems))
    size = dataset.size
    rows = []
    for depth in depths:
        scores = {method: {} for method in methods}
        flagged = dict.fromkeys(methods, False)
        for index in inputs:
            raw = dataset.distributions(depth, [index]).T
            ideal = np.eye(size)[:, index]
            for method in methods:
                system = systems[(depth, method)]
                outputs = raw
                if system is not None:
                    solved = None
                    if np.isfinite(system.condition) and system.condition <= cond_limit:
                        try:
                            solved = np.linalg.solve(system.matrix, raw)
                        except np.linalg.LinAlgError:
                            pass
                    if solved is None or not np.all(np.isfinite(solved)):
                        solved = np.linalg.lstsq(system.matrix, raw, rcond=None)[0]
                        flagged[method] = True
                    flagged[method] |= system.condition > cond_limit
                    outputs = np.stack(
                        [threshold_simplex_project(solved[:, j])
                         for j in range(solved.shape[1])],
                        axis=1,
                    )
                scores[method][index] = np.array(
                    [masked_jsd(ideal, outputs[:, j]) for j in range(outputs.shape[1])]
                )
        for index in inputs:
            for method in methods:
                values = scores[method][index]
                rows.append((depth, index_to_bits(index, dataset.n), method,
                             float(values.mean()), float(values.std()), flagged[method]))
        for method in methods:
            pooled = np.concatenate([scores[method][index] for index in inputs])
            rows.append((depth, "all", method, float(pooled.mean()), float(pooled.std()),
                         flagged[method]))
    return rows


def curve_fit_rb(series: dict, n: int):
    """(amplitude, offset, alpha) of A * alpha**m + B by scipy's bounded
    curve_fit, started from a log-linear fit above the 1/2**n asymptote."""
    from scipy.optimize import curve_fit

    depths = np.array(sorted(series), dtype=float)
    values = np.array([series[m] for m in sorted(series)], dtype=float)
    baseline = 1.0 / 2**n
    excess = values - baseline
    usable = excess > 1e-6
    if usable.sum() >= 2:
        slope, intercept = np.polyfit(depths[usable], np.log(excess[usable]), 1)
        alpha0 = min(max(np.exp(slope), 1e-3), 1.0)
        amp0 = min(max(np.exp(intercept), 1e-3), 1.0)
    else:
        alpha0, amp0 = 0.9, max(float(excess.max()), 1e-3)
    params, _ = curve_fit(
        lambda m, amp, off, alpha: amp * alpha**m + off,
        depths,
        values,
        p0=[amp0, baseline, alpha0],
        bounds=([0.0, 0.0, 1e-6], [1.5, 1.0, 1.0]),
        maxfev=10000,
    )
    return tuple(float(x) for x in params)


def rb_rss(series: dict, amplitude: float, offset: float, alpha: float) -> float:
    depths = np.array(sorted(series), dtype=float)
    values = np.array([series[m] for m in sorted(series)], dtype=float)
    return float(np.sum((amplitude * alpha**depths + offset - values) ** 2))


def one_pass_rb_fit(series: dict, n: int):
    """estimation.rb_fit with its whole alpha grid scored by one
    _rb_profile call; the same golden-section refinement follows."""
    from qflip import estimation

    depths = np.array(sorted(series), dtype=float)
    values = np.array([series[m] for m in sorted(series)], dtype=float)
    if np.ptp(values) < 1e-12:
        return estimation.RbResult(0.0, float(values[0]), 1.0, 0.0, degenerate=True)

    def rss_at(alpha):
        return estimation._rb_profile(np.array([alpha]), depths, values)[0][0]

    golden = estimation._INV_GOLDEN
    grid = np.linspace(estimation.RB_ALPHA_MIN, 1.0, estimation.RB_ALPHA_GRID)
    best = int(np.argmin(estimation._rb_profile(grid, depths, values)[0]))
    low, high = grid[max(best - 1, 0)], grid[min(best + 1, grid.size - 1)]
    inner_low, inner_high = high - golden * (high - low), low + golden * (high - low)
    rss_low, rss_high = rss_at(inner_low), rss_at(inner_high)
    while high - low > estimation.RB_ALPHA_TOL:
        if rss_low < rss_high:
            high, inner_high, rss_high = inner_high, inner_low, rss_low
            inner_low = high - golden * (high - low)
            rss_low = rss_at(inner_low)
        else:
            low, inner_low, rss_low = inner_low, inner_high, rss_high
            inner_high = low + golden * (high - low)
            rss_high = rss_at(inner_high)
    finalists = np.array([grid[best], inner_low, inner_high])
    rss, amplitudes, offsets = estimation._rb_profile(finalists, depths, values)
    pick = int(np.argmin(rss))
    alpha = float(finalists[pick])
    size = 1 << n
    return estimation.RbResult(
        float(amplitudes[pick]), float(offsets[pick]), alpha, (size - 1) * (1.0 - alpha) / size
    )


# --- 2x2 unitary algebra for the Clifford checks ---------------------------

HADAMARD_2x2 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
PHASE_2x2 = np.array([[1, 0], [0, 1j]], dtype=complex)
IDENTITY_2x2 = np.eye(2, dtype=complex)


def equal_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    """True if a == phase * b for some unit complex phase."""
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    if abs(b[idx]) < tol:
        return np.allclose(a, b, atol=tol)
    phase = a[idx] / b[idx]
    if abs(abs(phase) - 1.0) > tol:
        return False
    return np.allclose(a, phase * b, atol=tol)


def clifford_closure() -> list:
    """The single-qubit Clifford group up to global phase, from the
    identity by right products with H then S, each element numbered on
    first appearance, compared by equal_up_to_phase."""
    elements = [IDENTITY_2x2]
    for current in elements:
        for generator in (HADAMARD_2x2, PHASE_2x2):
            product = current @ generator
            if not any(equal_up_to_phase(product, seen) for seen in elements):
                elements.append(product)
    return elements


def depolarized_measurement(state: np.ndarray, alpha: float) -> np.ndarray:
    """Computational-basis outcome distribution of a single-qubit
    depolarizing channel rho -> (1-alpha) rho + alpha I/2 applied to a
    pure state, via explicit density matrices."""
    rho = np.outer(state, state.conj())
    rho = (1 - alpha) * rho + alpha * np.eye(2) / 2
    return np.real(np.diag(rho)).copy()


def per_input_exact_distribution(gt, depth: int, input_index: int) -> np.ndarray:
    """Device distribution of one input by the per-input formula: a basis
    vector through per-qubit prep (tensordot), the input's transition power,
    per-qubit readout, then clipping and normalization."""
    from qflip.channel import apply_transition_power

    def per_qubit(matrices, vec):
        out = vec.reshape((2,) * gt.n)
        for qubit, mat in enumerate(matrices):
            axis = gt.n - 1 - qubit
            out = np.moveaxis(np.tensordot(mat, out, axes=([1], [axis])), 0, axis)
        return out.reshape(-1)

    state = np.zeros(gt.size)
    state[input_index] = 1.0
    if any(p > 0.0 for p in gt.prep):
        state = per_qubit(gt.prep_matrices(), state)
    state = apply_transition_power(gt.rates_for(input_index), depth, state)
    if any(e01 > 0.0 or e10 > 0.0 for e01, e10 in gt.readout):
        state = per_qubit(gt.readout_matrices(), state)
    state = np.maximum(state, 0.0)
    return state / state.sum()


def depth_rng(seed: int, depth: int) -> np.random.Generator:
    """The random stream of one depth, built by numpy's default_rng."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(depth,)))


def flip_order(n: int) -> list:
    """The 2**n flip patterns by increasing popcount, then by index."""
    return sorted(range(1 << n), key=lambda pattern: (popcount(pattern), pattern))


def depth_draws(gt, seed: int, depth: int, circuits: int, inputs, shots: int):
    """One depth's gate ids and counts drawn one circuit, then one record,
    per numpy call: each circuit's (depth, n) ids, then each circuit's
    records in input order, one multinomial row each, whose k-th category
    is outcome input ^ flip_order(n)[k]. Gives the list of id arrays and
    the list of {outcome: count} dicts, in record order."""
    from qflip.clifford import GROUP_ORDER
    from qflip.simulator import exact_distribution

    rng = depth_rng(seed, depth)
    ids = [rng.integers(0, GROUP_ORDER, size=(depth, gt.n)) for _ in range(circuits)]
    counts = []
    for _ in range(circuits):
        for index in inputs:
            outcomes = [index ^ pattern for pattern in flip_order(gt.n)]
            sample = rng.multinomial(shots, exact_distribution(gt, depth, index)[outcomes])
            counts.append({outcome: int(c) for outcome, c in zip(outcomes, sample) if c})
    return ids, counts


def per_input_true_noise_model(gt):
    """The planted model built as one InputChannel per basis input (its
    own rates, the shared spectral SPAM), then stacked by NoiseModel."""
    from qflip.channel import InputChannel, NoiseModel

    spam = gt.spectral_spam()
    channels = {
        index: InputChannel(rates=gt.rates_for(index), spam=spam) for index in range(gt.size)
    }
    return NoiseModel(n=gt.n, channels=channels)


def dataset_of(n: int, rows):
    """A Dataset from (depth, input, seq, shots, {outcome: count}) rows,
    through its one constructor."""
    from qflip.records import Dataset

    depth, input, seq, shots, counts = map(list, list(zip(*rows)) or [()] * 5)
    return Dataset(
        n, depth, input, seq, shots, [len(entries) for entries in counts],
        [outcome for entries in counts for outcome in entries],
        [count for entries in counts for count in entries.values()],
    )


def record_to_json(record, n: int) -> str:
    """One dataset line by json.dumps: the fields in wire order, the counts
    in outcome order, bitstrings with qubit 0 rightmost."""
    width = f"0{n}b"
    payload = {
        "depth": record.depth,
        "input": format(record.input_index, width),
        "seq": record.sequence_id,
        "shots": record.shots,
        "counts": {
            format(outcome, width): count for outcome, count in sorted(record.counts.items())
        },
    }
    return json.dumps(payload, separators=(",", ":"))


def render_lines(n, depth, input, seq, shots, outcome, count, starts) -> bytes:
    """Dataset lines of a block of records, as the codec's first byte
    kernel made them: each count entry one matrix row, each record head a
    few rows of the same width, every field right-aligned in a fixed-width
    column padded with 0 bytes, the lines the matrix's bytes with the 0
    bytes dropped."""
    records, entries = len(depth), len(outcome)
    bits = bit_table(n)
    ends = np.zeros((entries, 3), np.uint8)
    ends[:, 0] = ord(",")
    ends[starts[1:] - 1] = np.frombuffer(b"}}\n", np.uint8)
    tails = _side_by_side(entries, b'"', bits[outcome], b'":', decimal_digits(count), ends)
    heads = _side_by_side(
        records, b'{"depth":', decimal_digits(depth), b',"input":"', bits[input], b'","seq":',
        decimal_digits(seq), b',"shots":', decimal_digits(shots), b',"counts":{',
    )
    width = tails.shape[1]
    height = -(-heads.shape[1] // width)
    heads = np.pad(heads, ((0, 0), (0, height * width - heads.shape[1])))
    is_head = np.zeros(records * height + entries, bool)
    is_head[(np.arange(records) * height + starts[:-1])[:, None] + np.arange(height)] = True
    rows = np.empty((len(is_head), width), np.uint8)
    rows[is_head] = heads.reshape(-1, width)
    rows[~is_head] = tails
    return rows[rows != 0].tobytes()


def bit_table(n: int) -> np.ndarray:
    """Row i: the n-character bitstring of basis index i, as ASCII bytes."""
    shifts = np.arange(n - 1, -1, -1)
    return ((np.arange(1 << n)[:, None] >> shifts) & 1).astype(np.uint8) + ord("0")


def decimal_digits(values: np.ndarray) -> np.ndarray:
    """Each non-negative value's decimal digits as a row of ASCII bytes,
    right-aligned in the width of the largest, by repeated division;
    0 bytes pad the left."""
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


def bits_to_index(values: np.ndarray, n: int) -> np.ndarray:
    """Basis indices of n-bit strings read as decimal numbers: bit k is set
    where decimal digit k is not 0."""
    index = np.zeros_like(values)
    for k in range(n):
        values, digit = np.divmod(values, 10)
        index += np.minimum(digit, 1) << k
    return index


def csv_writer_file(path, header, columns, rows) -> None:
    """A CSV artifact as csv.writer writes it: the '# ' header line, the
    column names, then rows of fields, floats already formatted."""
    with open(path, "w", newline="") as handle:
        handle.write(f"# {header}\n" if header else "")
        writer = csv.writer(handle)
        writer.writerow(columns)
        writer.writerows(rows)


def json_dump_file(path, payload) -> None:
    """A JSON artifact as json.dump writes it, with a final newline."""
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def stacked_cell_means(dataset, depths, inputs) -> np.ndarray:
    """(inputs, depths, 2**n) table of cell means, each an axis-0 sum of
    the cell's rows divided by their count, one cell at a time. A row is
    a record's counts put into a dense zero row, then divided by its shots,
    the records taken from dataset.records in sequence-id order."""
    table = []
    for index in inputs:
        row = []
        for depth in depths:
            cell = sorted(
                (r for r in dataset.records if (r.depth, r.input_index) == (depth, index)),
                key=lambda r: r.sequence_id,
            )
            rows = np.zeros((len(cell), dataset.size))
            for dense, record in zip(rows, cell):
                dense[list(record.counts)] = list(record.counts.values())
                dense /= record.shots
            row.append(rows.sum(axis=0) / len(rows))
        table.append(row)
    return np.array(table)


def polyfit_decay(spectra, depths, floor=1e-6):
    """Per-coefficient log-linear decay fit of a (depths, 2**n) table, one
    np.polyfit call per coefficient; returns (spam, eigenvalues,
    points_used, residual) with fit_decay's conventions."""
    table = np.asarray(spectra, dtype=float)
    depth_arr = np.asarray(depths, dtype=float)
    size = table.shape[1]
    spam = np.ones(size)
    eigenvalues = np.ones(size)
    points_used = np.full(size, len(depth_arr))
    residual = np.zeros(size)
    for i in range(1, size):
        values = table[:, i]
        usable = values > floor
        used = int(usable.sum())
        points_used[i] = used
        if used < 2:
            eigenvalues[i] = floor
            spam[i] = float(values[usable][0]) if used else 0.0
            residual[i] = np.nan
            continue
        logs = np.log(values[usable])
        slope, intercept = np.polyfit(depth_arr[usable], logs, 1)
        eigenvalues[i] = min(max(np.exp(slope), floor), 1.0)
        spam[i] = np.exp(intercept)
        fitted = intercept + slope * depth_arr[usable]
        residual[i] = float(np.sqrt(np.mean((logs - fitted) ** 2)))
    return spam, eigenvalues, points_used, residual


def per_column_mitigation_matrix(model, depth) -> np.ndarray:
    """Mitigation matrix built one column (one input's prediction) at a
    time, from the model's channels, each column with its own 1-d
    spectrum."""
    from qflip.transforms import fwht, fwht_inverse, simplex_project

    size = model.size
    columns = np.empty((size, size))
    for index in range(size):
        chan = model.channel(index)
        indicator = np.zeros(size)
        indicator[index] = 1.0
        eigenvalues = fwht(chan.rates)
        eigenvalues[0] = 1.0
        spectrum = chan.spam * eigenvalues**depth * fwht(indicator)
        columns[:, index] = simplex_project(fwht_inverse(spectrum))
    return columns


def mask_loop_product(pairs) -> np.ndarray:
    """Entry i multiplies pairs[q][bit q of i] over the qubits q, by one
    boolean mask per qubit (spectral_spam's former loop, with pairs
    (1, factor))."""
    size = 1 << len(pairs)
    out = np.ones(size)
    idx = np.arange(size)
    for qubit, (low, high) in enumerate(pairs):
        bit = (idx >> qubit) & 1 == 1
        out[~bit] *= low
        out[bit] *= high
    return out
