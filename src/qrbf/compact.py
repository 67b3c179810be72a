"""Compactly supported RBF pipeline built on distance-as-amplitude oracles.

For sites x_i, x_j the two-register state

    (||x_i|| |+>|x_i_hat> - ||x_j|| |->|x_j_hat>) / sqrt(||x_i||^2 + ||x_j||^2)

puts the scaled distance a = ||x_i - x_j|| / sqrt(2(||x_i||^2 + ||x_j||^2))
on its |0>-branch, where a is always in [0, 1] and can be read off by
amplitude estimation.  The state is never formed: distance_amplitude
computes a from the two sites.  Every distance and norm of a pair comes
from one routine, _pair_rows (interpolation.pair_distance and
interpolation.row_norms), so distance_amplitude, pair_scale, oracle_PA
and the batched build_matrix read the same bits for a pair.  Matrix
entries follow by rescaling the estimate back to a distance and applying
the kernel profile; a column oracle maps (column, slot) to the row of the
slot-th nonzero so sparse solvers can walk the matrix.  Query states
|Phi(x)> are prepared by a rotation proportional to the kernel values;
its success probability C_hat^2 ||Phi(x)||^2 / m gives ||Phi(x)|| back
at any admissible scaling C_hat, so the simulation reads ||Phi(x)||
directly and models no C_hat.

Amplitude estimation is simulated at the outcome-distribution level: in
a 2^bits-cell phase grid, the outcome y follows the standard two-cell
interference pattern around +-omega with a = sin(pi omega), and the
estimate sin(pi y / 2^bits) is exact for on-grid amplitudes and within
pi 2^{-bits} + pi^2 2^{-2 bits} with probability at least 8/pi^2
otherwise.  The pattern is evaluated in closed form: with s = sin(pi y /
2^bits), cell y has weight proportional to
(s^2 + a^2 - 2 s^2 a^2) / ((s - a)(s + a))^2, since the Fejer numerator
sin^2(pi 2^bits omega) is the same in every cell and cancels.  An exact
hit (s = a, a zero denominator) makes the row the normalised indicator
of its hit cells.  The tests evaluate this distribution over the whole
grid as the reference the sampler is checked against.

The oracles never form the whole grid.  The weight depends on y only
through s, and so does the estimate, so _sample_outcomes draws from the
folded half y in [0, M/2] (cells 0 < y < M/2 weigh twice).  It
evaluates the 2 _WINDOW cells around M omega exactly and draws the rest
of the half by rejection against the envelope M^2 / (2 k^2), k = |y - M
omega|, which bounds every folded weight and whose integral inverts in
closed form: expected O(_WINDOW) work per draw at any bit count, and the
accepted outcomes follow the whole-grid distribution exactly.

oracle_PA is the per-entry reference.  The pair {i, j} owns the
counter-based Philox4x64-10 blocks under key seed at counters (min(i, j)
+ 1, max(i, j), c2, 0), numpy's Philox(key=seed, counter=[min(i, j),
max(i, j), c2, 0]), a pure function of (seed, i, j), so every call is
reproducible in any order.  Attempt c2 = 0, 1, ... of a draw reads block
c2: word 0 draws the outcome of order (i, j) (i < j) and word 1 that of
(j, i), words 2 and 3 accept or reject their tail proposals.
build_matrix computes the same entries in one batched pass over the
pairs i < j that the column oracle oracle_Pv lists, the nonzero pattern
of the exact matrix, so it draws O(nnz) outcomes rather than m(m - 1)/2:
a_ij == a_ji bit for bit, so both orders share one amplitude.
_pair_uniforms evaluates Philox4x64-10 (Salmon et al., SC'11) for all
pairs at once, bit for bit as numpy does.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import interpolation, qinvert
from .interpolation import DataSet, InterpMatrix, LinearSystem
from .kernels import Kernel
from .qinvert import InversionConfig, SolveReport

_AE_BITS_CAP = 20
# half-width of the window of outcome cells weighed exactly around M omega;
# about 2/(pi^2 _WINDOW) of the mass lies beyond it and is drawn by rejection
_WINDOW = 8


@dataclass
class CompactOracleConfig:
    """Oracle behavior: kernel, estimation precision, and the key of the estimation draws.

    ae_bits None means exact oracles (no amplitude estimation).
    """

    kernel: Kernel
    ae_bits: int | None = None
    seed: int = 0

    def __post_init__(self):
        if not self.kernel.is_compact:
            raise ValueError("compact pipeline needs a compactly supported kernel")
        if self.ae_bits is not None:
            if not 1 <= int(self.ae_bits) <= _AE_BITS_CAP:
                raise ValueError(f"ae_bits must be in [1, {_AE_BITS_CAP}]")
            self.ae_bits = int(self.ae_bits)


def _pair_rows(x_i, x_j):
    """Distances ||x_i - x_j|| and scales sqrt(2 (||x_i||^2 + ||x_j||^2)) of pairs of points.

    The one arithmetic of the pair geometry.  x_i and x_j are two points,
    taken as one row each, or two (n, d) arrays whose rows pair up.  The
    distances are interpolation.pair_distance and the norms
    interpolation.row_norms, each row's values those of its pair alone, so
    a pair of points gets the bits the batched build gets for it.
    """
    x_i = np.atleast_2d(np.asarray(x_i, dtype=float))
    x_j = np.atleast_2d(np.asarray(x_j, dtype=float))
    if x_i.shape != x_j.shape:
        raise ValueError("points must share a dimension")
    ni, nj = interpolation.row_norms(x_i), interpolation.row_norms(x_j)
    if ((ni == 0.0) & (nj == 0.0)).any():
        raise ValueError("pair state undefined when both points are zero")
    return interpolation.pair_distance(x_i, x_j), np.sqrt(2.0 * (ni * ni + nj * nj))


def distance_amplitude(x_i, x_j) -> float:
    """Scaled distance ||x_i - x_j|| / sqrt(2 (||x_i||^2 + ||x_j||^2)), in [0, 1]."""
    dist, scale = _pair_rows(x_i, x_j)
    return float(dist[0] / scale[0])


def pair_scale(x_i, x_j) -> float:
    """Factor sqrt(2 (||x_i||^2 + ||x_j||^2)) converting amplitude to distance."""
    return float(_pair_rows(x_i, x_j)[1][0])


def reconstruct_distance(x_i, x_j):
    """Round-trip distance through the amplitude encoding (exact arithmetic).

    Takes two points, giving a float, or two (n, d) arrays whose rows pair
    up, giving the n distances as an array.  Each row's distance is bit
    for bit that of its pair alone: distance_amplitude times pair_scale.
    """
    dist, scale = _pair_rows(x_i, x_j)
    dist = dist / scale * scale
    return dist if np.ndim(x_i) == 2 else float(dist[0])


@functools.lru_cache(maxsize=_AE_BITS_CAP)
def _grid_sines(ae_bits: int) -> np.ndarray:
    """sin(pi y / 2^bits) for each outcome y of the grid, read-only: the amplitude y reads.

    Computed as math.sin(pi min(y, M - y) / M), so cells y and M - y hold
    the same bits, and no estimate depends on which vectorized loop numpy
    picks.
    """
    M = 2**ae_bits
    half = [math.sin(math.pi * k / M) for k in range(M // 2 + 1)]
    table = np.array(half + half[M // 2 - 1 : 0 : -1])
    table.flags.writeable = False
    return table


def _closed_form(s, a):
    """Unnormalised outcome weight of the cells with grid sines s, and its squared denominator.

    (s^2 + a^2 - 2 s^2 a^2) / ((s - a)(s + a))^2, s and a broadcast; a 0
    denominator gives inf or nan.
    """
    s2 = s * s
    den = ((s - a) * (s + a)) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        return (s2 + a * a * (1.0 - 2.0 * s2)) / den, den


def ae_error_bound(ae_bits: int) -> float:
    """Precision of amplitude estimation holding with probability >= 8/pi^2."""
    return math.pi * 2.0**-ae_bits + math.pi**2 * 2.0 ** (-2 * ae_bits)


def _folded_weights(a, y, ae_bits: int):
    """Folded outcome weights c'_y of amplitudes a at cells y in [0, M/2], and hit flags.

    c'_y is the unnormalised outcome weight _closed_form, taken twice for
    0 < y < M/2, where cells y and M - y fold together; a and y broadcast.
    A cell whose squared denominator is 0 is flagged as a hit and its
    weight is inf or nan.
    """
    weight, den = _closed_form(_grid_sines(ae_bits)[y], a)
    fold = np.where((y == 0) | (y == 2 ** (ae_bits - 1)), 1.0, 2.0)
    return fold * weight, den == 0.0


def _sample_outcomes(a, ae_bits: int, uniforms) -> np.ndarray:
    """Two independent folded AE outcomes for each amplitude of a, shape (n, 2).

    Outcomes follow the outcome distribution of a (module docstring)
    folded onto y in [0, M/2], M = 2^bits.  A draw picks one of the
    window cells, the min(2 _WINDOW, M/2 + 1) cells from floor(mu) -
    _WINDOW + 1 on, mu = M arcsin(a) / pi (shifted to fit in [0, M/2]),
    with its exact weight c'_y, or a tail cell beyond them with the
    weight of the envelope M^2 / (2 (x - mu)^2) over the cell
    [y - 1/2, y + 1/2], which is M^2 / (2 (k^2 - 1/4)), k = y - mu, and
    is at least c'_y.  A tail cell is found by inverting the envelope's
    integral and kept with probability c'_y over its envelope weight; a
    rejected draw starts again, so the kept outcomes are exact.  A window cell with a zero denominator is a hit: both
    draws return it, as the distribution's indicator row does.

    uniforms(c2, rows) gives the (len(rows), 4) uniforms of attempt c2
    for the rows of a still drawing: column k picks draw k's cell by
    inverse CDF over the window and tails, column 2 + k accepts or
    rejects its tail proposal.
    """
    a = np.asarray(a, dtype=float).ravel()
    if not np.all((a >= 0.0) & (a <= 1.0)):
        raise ValueError("amplitude must lie in [0, 1]")
    M = 2**ae_bits
    half, h = M // 2, M * M / 2.0
    mu = np.array([math.asin(v) for v in a.tolist()]) * (M / math.pi)
    width = min(2 * _WINDOW, half + 1)
    lo = np.clip(np.floor(mu).astype(np.int64) + (1 - _WINDOW), 0, half + 1 - width)
    last = lo + width - 1
    # the tails are the cells [0, lo) and (last, half], with envelope
    # masses h (1/d_near - 1/d_far) written without the cancellation
    left = h * lo / ((mu - lo + 0.5) * (mu + 0.5))
    right = h * (half - last) / ((last + 0.5 - mu) * (half + 0.5 - mu))
    has_tail = left + right > 0.0
    y = np.full((a.shape[0], 2), -1, dtype=np.int64)
    # the window's running masses, weighed one offset at a time so that the
    # temporaries stay O(len(a))
    cdf = np.empty((width, a.shape[0]))
    for offset in range(width):
        cdf[offset], hit = _folded_weights(a, lo + offset, ae_bits)
        y[hit] = lo[hit, None] + offset
    np.cumsum(cdf, axis=0, out=cdf)
    window = cdf[-1]
    total = window + left + right
    c2 = 0
    while (y < 0).any():
        rows = np.flatnonzero((y < 0).any(axis=1))
        r = uniforms(c2, rows)
        u = r[:, :2] * total[rows, None]
        # inverse CDF over the window: count the cells whose running mass is <= u
        out = lo[rows, None] + sum(column[rows, None] <= u for column in cdf[:-1])
        # u == window mass can round up from a uniform below 1 when no tail is left
        sub, k = np.nonzero((u >= window[rows, None]) & has_tail[rows, None])
        tr = rows[sub]
        t = u[sub, k] - window[tr]
        go_right = (t >= left[tr]) & (right[tr] > 0.0)
        near = np.where(go_right, last[tr] + 0.5 - mu[tr], mu[tr] - lo[tr] + 0.5)
        dist = 1.0 / (1.0 / near - np.where(go_right, t - left[tr], t) / h)
        x = np.floor(np.where(go_right, mu[tr] + dist, mu[tr] - dist) + 0.5)
        cell = np.where(
            go_right, np.clip(x, last[tr] + 1, half), np.clip(x, 0, lo[tr] - 1)
        ).astype(np.int64)
        envelope = h / ((cell - mu[tr]) ** 2 - 0.25)
        accept = r[sub, 2 + k] * envelope < _folded_weights(a[tr], cell, ae_bits)[0]
        out[sub, k] = np.where(accept, cell, -1)
        y[rows] = np.where(y[rows] < 0, out, y[rows])
        c2 += 1
    return y


# Philox4x64-10 round multipliers and key increments (Salmon, Moraes, Dror and
# Shaw, SC'11), as in numpy's Philox
_PHILOX_MULT = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_BUMP = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_M32, _M64 = 2**32 - 1, 2**64 - 1


def _mulhi64(a, b):
    """High 64 bits of the 128-bit products a * b of uint64 values, by 32-bit limbs.

    Each partial sum stays below 2**64 (the mulhu of Hacker's Delight).
    """
    m32, s32 = np.uint64(_M32), np.uint64(32)
    a0, a1, b0, b1 = a & m32, a >> s32, b & m32, b >> s32
    t = a1 * b0 + ((a0 * b0) >> s32)
    mid = a0 * b1 + (t & m32)
    return a1 * b1 + (t >> s32) + (mid >> s32)


def _pair_uniforms(seed, i, j, c2: int = 0) -> np.ndarray:
    """First four random() draws of Generator(Philox(key=seed, counter=[i, j, c2, 0])).

    One row per pair of the index arrays i, j, shape i.shape + (4,), the
    same draws bit for bit, computed for the whole batch at once.  numpy
    steps the counter before its first block, so the row holds words 0
    to 3 of the Philox4x64-10 block at counter (i + 1, j, c2, 0) under
    the 128-bit key seed, each as (word >> 11) 2^-53.  A seed outside
    [0, 2**128), Philox's key range, or a negative index raises
    ValueError.
    """
    seed = operator.index(seed)
    if not 0 <= seed < 2**128:
        raise ValueError("seed must lie in [0, 2**128), the Philox key range")
    i, j = np.broadcast_arrays(i, j)
    if i.size and min(i.min(), j.min()) < 0:
        raise ValueError("pair indices must be non-negative")
    zero = np.zeros(i.shape, dtype=np.uint64)
    ctr = [i.astype(np.uint64) + np.uint64(1), j.astype(np.uint64), zero + np.uint64(c2), zero]
    key = [seed & _M64, seed >> 64]
    mult0, mult1 = _PHILOX_MULT
    for r in range(10):
        if r:
            key = [(k + bump) & _M64 for k, bump in zip(key, _PHILOX_BUMP)]
        hi0, hi1 = _mulhi64(ctr[0], mult0), _mulhi64(ctr[2], mult1)
        ctr = [hi1 ^ ctr[1] ^ np.uint64(key[0]), ctr[2] * mult1,
               hi0 ^ ctr[3] ^ np.uint64(key[1]), ctr[0] * mult0]
    return (np.stack(ctr, axis=-1) >> np.uint64(11)).astype(np.float64) * 2.0**-53


def amplitude_estimate(a_true: float, ae_bits: int, seed) -> float:
    """One amplitude-estimation outcome, mapped to [0, 1], drawn from default_rng(seed).

    _sample_outcomes draws it; each attempt reads the generator's next
    four uniforms.
    """
    gen = np.random.default_rng(seed)
    y = _sample_outcomes(a_true, ae_bits, lambda c2, rows: gen.random((1, 4)))
    return float(_grid_sines(ae_bits)[y[0, 0]])


def oracle_PA(i: int, j: int, dataset: DataSet, config: CompactOracleConfig) -> float:
    """Matrix-entry oracle: estimated (or exact) distance pushed through the kernel.

    Estimated mode reconstructs r_hat = a_hat * pair_scale(x_i, x_j) from
    one amplitude-estimation draw by _sample_outcomes of a =
    distance_amplitude(x_i, x_j), then evaluates the kernel profile at
    r_hat.  Attempt c2 of the draw reads the first
    block of numpy's Philox(key=seed, counter=[min(i, j), max(i, j), c2,
    0]), word 0 for i < j and word 1 for i > j (see the module docstring):
    the words build_matrix reads, so its entries equal this oracle's.
    As in the paper's sparse access, O_PA is queried only on O_Pv's
    pattern: build_matrix evaluates it at the pairs oracle_Pv lists and
    at no other.
    """
    m = dataset.m
    if not (0 <= i < m and 0 <= j < m):
        raise IndexError(f"indices ({i}, {j}) out of range for m = {m}")
    if i == j:
        return config.kernel.phi0
    x_i, x_j = dataset.sites[i], dataset.sites[j]
    if config.ae_bits is None:
        return float(config.kernel.eval(float(interpolation.pair_distance(x_i, x_j))))
    a = distance_amplitude(x_i, x_j)
    lo, hi = sorted((i, j))

    def block(c2, rows):
        gen = np.random.Generator(np.random.Philox(key=config.seed, counter=[lo, hi, c2, 0]))
        return gen.random((1, 4))

    y = _sample_outcomes(a, config.ae_bits, block)[0, int(i > j)]
    r_hat = float(_grid_sines(config.ae_bits)[y]) * pair_scale(x_i, x_j)
    return float(config.kernel.eval(r_hat))


def oracle_Pv(j: int, ell: int, matrix: InterpMatrix) -> int:
    """Row index of the ell-th nonzero of column j (1-based ell, ascending rows).

    Slots past the column's nonzero count return the out-of-band index m.
    The pattern is read off the assembled sparse matrix; no independent
    neighbor search is modeled.
    """
    if not matrix.is_sparse:
        raise ValueError("column oracle needs a sparse matrix")
    m = matrix.m
    if not 0 <= j < m:
        raise IndexError(f"column {j} out of range")
    s = matrix.sparsity
    if not 1 <= ell <= s:
        raise ValueError(f"slot {ell} outside [1, {s}]")
    # symmetric matrix: column j of CSR equals row j
    data = matrix.data
    start, stop = data.indptr[j], data.indptr[j + 1]
    rows = data.indices[start:stop]
    if ell > rows.shape[0]:
        return m
    return int(rows[ell - 1])


def _estimated_radii(dataset: DataSet, config: CompactOracleConfig, i, j) -> np.ndarray:
    """Estimated radii of the pairs (i, j), shape (n, 2): orders (i, j), (j, i).

    Both orders share one amplitude, since it is symmetric.  With i < j,
    _sample_outcomes draws both orders of every pair at once, attempt c2
    reading the pair's Philox block _pair_uniforms(seed, i, j, c2), the
    words oracle_PA reads, without building a generator per pair.  A
    pair's draw is a function of (seed, i, j) alone, so it does not depend
    on which other pairs share the batch.  Expected O(_WINDOW) work per
    pair at any bit count.
    """
    dist, scale = _pair_rows(dataset.sites[i], dataset.sites[j])
    y = _sample_outcomes(
        dist / scale, config.ae_bits,
        lambda c2, rows: _pair_uniforms(config.seed, i[rows], j[rows], c2),
    )
    return _grid_sines(config.ae_bits)[y] * scale[:, None]


def build_matrix(
    dataset: DataSet, config: CompactOracleConfig, normalized: bool = False
) -> InterpMatrix:
    """Assemble the interpolation matrix from the entry oracle on the column oracle's pattern.

    The entry oracle is queried only at the pairs oracle_Pv lists: the
    pairs of interpolation.support_pairs whose exact entry is nonzero,
    the off-diagonal pattern interpolation.assemble stores.  Entries equal
    the symmetrized oracle, (PA(i,j) + PA(j,i))/2, bit for bit: the
    entrywise oracle does not guarantee symmetry on its own.  In estimated
    mode each ordered pair takes one draw from the unordered pair's Philox
    blocks, O(_WINDOW) cells per pair (_estimated_radii), so the build
    takes O(nnz) work and memory; an estimate at or beyond the support
    radius leaves its entry out.  Exact mode reproduces
    interpolation.assemble entry for entry.
    """
    i, j = interpolation.support_pairs(dataset.sites, config.kernel.alpha)
    dist = interpolation.pair_distance(dataset.sites[i], dataset.sites[j])
    # both orders see the same distance, and (v + v)/2 == v exactly
    entry = config.kernel.eval(dist)
    if config.ae_bits is not None:
        # a pair exactly alpha apart is in the support but not in the pattern
        keep = entry != 0.0
        i, j = i[keep], j[keep]
        phi = config.kernel.eval(_estimated_radii(dataset, config, i, j))
        entry = 0.5 * (phi[:, 0] + phi[:, 1])
    return interpolation.symmetric_csr(dataset.m, i, j, entry, config.kernel.phi0, normalized)


def prepare_phi_state(x, dataset: DataSet, config: CompactOracleConfig):
    """Rotation-based preparation of the query state |Phi(x)>.

    Returns (state, norm): the post-selected unit state proportional to
    sum_j phi(||x - x_j|| / alpha) |j>, as a complex array, and
    ||Phi(x)||, which the preparation's success probability gives back
    (module docstring).  The norm is sqrt(np.add.reduce(phi * phi)), as
    the pipelines' readout takes it, so the state and the norm equal the
    readout's unit row and sqrt(sq_norm) of the query bit for bit.
    """
    phi = interpolation.basis_vector(dataset, config.kernel, x)
    norm = float(np.sqrt(np.add.reduce(phi * phi)))
    if norm == 0.0:
        raise ValueError("query point is outside the support of every site")
    return (phi / norm).astype(complex), norm


@dataclass
class CompactReport:
    """Sparse quantum solve plus its classical and exact-matrix baselines."""

    solve: SolveReport
    sparsity: int
    matrix_error: float
    fidelity_vs_exact_solution: float


def solve_compact(
    dataset: DataSet,
    config: CompactOracleConfig,
    inversion: InversionConfig | None = None,
    exact: LinearSystem | None = None,
) -> CompactReport:
    """Build the normalized matrix through the oracles and invert it.

    exact, the normalized `interpolation.exact_system` (built here when
    None), is the reference of matrix_error and fidelity_vs_exact_solution;
    solve.fidelity_vs_classical checks the inversion against the oracle
    matrix, exact itself when the oracles are exact (ae_bits None).  An
    estimated oracle matrix that is not positive definite raises
    NotPositiveDefiniteError naming compact.ae_bits and inversion.spectral_floor.
    """
    inversion = inversion or InversionConfig()
    if exact is None:
        exact = interpolation.exact_system(dataset, config.kernel, normalized=True)
    system, matrix_error = exact, 0.0
    if config.ae_bits is not None:
        built = build_matrix(dataset, config, normalized=True)
        system = LinearSystem(built, exact.y)
        # the Frobenius norm of the stored differences: no dense m x m copy
        matrix_error = float(np.linalg.norm((built.data - exact.matrix.data).data))
    try:
        report = qinvert.invert(system, inversion)
    except interpolation.NotPositiveDefiniteError as exc:
        if config.ae_bits is None:
            raise
        # estimation noise in the entries is what breaks definiteness here
        raise interpolation.NotPositiveDefiniteError(
            f"{exc}, or raise compact.ae_bits to estimate the oracle entries more finely"
        ) from exc
    return CompactReport(
        solve=report,
        sparsity=system.matrix.sparsity,
        matrix_error=matrix_error,
        fidelity_vs_exact_solution=qinvert.solution_fidelity(exact.coeffs.c, report.state_out),
    )
