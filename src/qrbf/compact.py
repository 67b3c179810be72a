"""Compactly supported RBF pipeline built on distance-as-amplitude oracles.

For sites x_i, x_j the two-register state

    (||x_i|| |+>|x_i_hat> - ||x_j|| |->|x_j_hat>) / sqrt(||x_i||^2 + ||x_j||^2)

puts the scaled distance a = ||x_i - x_j|| / sqrt(2(||x_i||^2 + ||x_j||^2))
on its |0>-branch, where a is always in [0, 1] and can be read off by
amplitude estimation.  Matrix entries follow by rescaling the estimate
back to a distance and applying the kernel profile; a column oracle maps
(column, slot) to the row of the slot-th nonzero so sparse solvers can
walk the matrix.  Query states |Phi(x)> are prepared by a rotation
proportional to the kernel values with scaling C_hat, whose success
probability recovers ||Phi(x)||.

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
of its hit cells.  Per-pair streams seeded by (seed, i, j) keep every oracle
call reproducible regardless of evaluation order.

oracle_PA is the per-entry reference: it draws from
np.random.default_rng((seed, i, j)).  build_matrix computes the same
entries in one batched pass over the upper-triangle pairs: a_ij == a_ji
bit for bit, so it builds one outcome distribution per unordered pair and
takes one draw per ordered pair from that pair's (seed, i, j) stream, by
the inverse-CDF rule Generator.choice uses.  It builds no generator:
_pair_uniforms reproduces the first uniform of every stream in numpy
(SeedSequence hashing, PCG64 seeding and one XSL-RR output), and the
tests hold it to default_rng bit for bit.  Distributions are built in
blocks of at most _BLOCK_CELLS grid cells, so memory stays flat in m.
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
from .qcore import PureState
from .qinvert import InversionConfig, SolveReport

_AE_BITS_CAP = 20
# grid cells per block of distributions in build_matrix, so the block
# temporaries stay small at any m; with ae_bits above 14 a block holds one pair
_BLOCK_CELLS = 2**14


@dataclass
class CompactOracleConfig:
    """Oracle behavior: kernel, estimation precision, state-prep scaling.

    ae_bits None means exact oracles (no amplitude estimation).
    scale_hat is the rotation scaling for query-state preparation and
    must satisfy scale_hat * phi(0) <= 1; None picks 1/phi(0).
    """

    kernel: Kernel
    ae_bits: int | None = None
    scale_hat: float | None = None
    seed: int = 0

    def __post_init__(self):
        if not self.kernel.is_compact:
            raise ValueError("compact pipeline needs a compactly supported kernel")
        if self.ae_bits is not None:
            if not 1 <= int(self.ae_bits) <= _AE_BITS_CAP:
                raise ValueError(f"ae_bits must be in [1, {_AE_BITS_CAP}]")
            self.ae_bits = int(self.ae_bits)
        if self.scale_hat is not None and self.scale_hat * self.kernel.phi0 > 1.0 + 1e-12:
            raise ValueError("scale_hat * phi(0) must not exceed 1")

    @property
    def alpha(self) -> float:
        return self.kernel.alpha

    @property
    def effective_scale(self) -> float:
        return 1.0 / self.kernel.phi0 if self.scale_hat is None else self.scale_hat


def _norms(x_i, x_j, norm_i, norm_j):
    x_i = np.asarray(x_i, dtype=float).ravel()
    x_j = np.asarray(x_j, dtype=float).ravel()
    if x_i.shape != x_j.shape:
        raise ValueError("points must share a dimension")
    ni = float(np.linalg.norm(x_i)) if norm_i is None else float(norm_i)
    nj = float(np.linalg.norm(x_j)) if norm_j is None else float(norm_j)
    if ni == 0.0 and nj == 0.0:
        raise ValueError("pair state undefined when both points are zero")
    return x_i, x_j, ni, nj


def pair_state(x_i, x_j, norm_i: float | None = None, norm_j: float | None = None) -> PureState:
    """Unit two-register state whose |0>-branch amplitude encodes the distance.

    Register layout: a sign qubit in the |+>/|-> basis and a d-dimensional
    direction register; amplitudes returned in the computational basis.
    """
    x_i, x_j, ni, nj = _norms(x_i, x_j, norm_i, norm_j)
    d = x_i.shape[0]
    s = math.sqrt(ni * ni + nj * nj)
    amps = np.zeros(2 * d)
    # |+>|x_i> branch and -|->|x_j> branch, written out in the z basis
    amps[:d] = (x_i - x_j) / (s * math.sqrt(2.0))
    amps[d:] = (x_i + x_j) / (s * math.sqrt(2.0))
    return PureState(amps, (2, d))


def distance_amplitude(
    x_i, x_j, norm_i: float | None = None, norm_j: float | None = None
) -> float:
    """Scaled distance ||x_i - x_j|| / sqrt(2 (||x_i||^2 + ||x_j||^2)), in [0, 1]."""
    x_i, x_j, ni, nj = _norms(x_i, x_j, norm_i, norm_j)
    dist = interpolation.pair_distance(x_i, x_j)
    return float(dist / math.sqrt(2.0 * (ni * ni + nj * nj)))


def pair_scale(x_i, x_j, norm_i: float | None = None, norm_j: float | None = None) -> float:
    """Factor sqrt(2 (||x_i||^2 + ||x_j||^2)) converting amplitude to distance."""
    _, _, ni, nj = _norms(x_i, x_j, norm_i, norm_j)
    return math.sqrt(2.0 * (ni * ni + nj * nj))


def reconstruct_distance(x_i, x_j) -> float:
    """Round-trip distance through the amplitude encoding (exact arithmetic)."""
    return distance_amplitude(x_i, x_j) * pair_scale(x_i, x_j)


@functools.lru_cache(maxsize=_AE_BITS_CAP)
def _grid_sines(ae_bits: int) -> np.ndarray:
    """sin(pi y / 2^bits) for each outcome y of the grid, read-only.

    Computed as math.sin(pi min(y, M - y) / M), so cells y and M - y hold
    the same bits.
    """
    M = 2**ae_bits
    half = [math.sin(math.pi * k / M) for k in range(M // 2 + 1)]
    table = np.array(half + half[M // 2 - 1 : 0 : -1])
    table.flags.writeable = False
    return table


def estimation_pmf(a_true, ae_bits: int) -> np.ndarray:
    """Outcome distribution of canonical amplitude estimation on a 2^bits grid.

    Cell y of the grid carries the interference weight
    (F(y/M - omega) + F(y/M + omega)) / 2 with F the squared Dirichlet
    kernel sin^2(pi M t) / (M sin(pi t))^2 and omega = arcsin(a)/pi.  The
    numerator sin^2(pi M omega) is the same in every cell of a row and
    cancels in the normalisation; with s = sin(pi y / M) what is left is

        pmf_y  proportional to  (s^2 + a^2 - 2 s^2 a^2) / ((s - a)(s + a))^2,

    a few multiplies and one divide per cell, s read from _grid_sines.
    A row with an exact hit, a cell whose squared denominator is 0, is the
    normalised indicator of its hit cells (the 0/0 limit of F): an
    on-grid amplitude splits 0.5/0.5 between y0 and M - y0, and a = 0 or
    a = 1 puts 1.0 on one cell.  An array of n amplitudes gives one
    distribution per row, shape (n, 2^bits); a scalar gives the 1-D
    distribution through the same path.
    """
    a = np.asarray(a_true, dtype=float)
    scalar = a.ndim == 0
    a = a.reshape(-1, 1)
    if not np.all((a >= 0.0) & (a <= 1.0)):
        raise ValueError("amplitude must lie in [0, 1]")
    s = _grid_sines(ae_bits)
    s2 = s * s
    den = ((s - a) * (s + a)) ** 2
    pmf = s2 + a * a * (1.0 - 2.0 * s2)
    with np.errstate(divide="ignore", invalid="ignore"):
        pmf /= den
    total = pmf.sum(axis=-1, keepdims=True)
    hit_rows = ~np.isfinite(total[:, 0])
    if hit_rows.any():
        # a zero denominator gives inf or 0/0 = nan, so only hit rows sum to a non-finite
        pmf[hit_rows] = den[hit_rows] == 0.0
        total[hit_rows] = pmf[hit_rows].sum(axis=-1, keepdims=True)
    pmf /= total
    return pmf[0] if scalar else pmf


def ae_error_bound(ae_bits: int) -> float:
    """Precision of amplitude estimation holding with probability >= 8/pi^2."""
    return math.pi * 2.0**-ae_bits + math.pi**2 * 2.0 ** (-2 * ae_bits)


def _draw(pmf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Outcomes for uniforms u in [0, 1) by inverse CDF, shape (..., k).

    pmf has shape (..., M) and u shape (..., k): k draws from each
    distribution.  The arithmetic is that of Generator.choice(M, p=pmf):
    cumulative sum scaled to end at 1, then searchsorted(cdf, u, 'right'),
    which is count(cdf <= u) for a nondecreasing cdf.
    """
    cdf = np.cumsum(pmf, axis=-1)
    cdf /= cdf[..., -1:]
    return np.count_nonzero(cdf[..., None, :] <= u[..., :, None], axis=-1)


def _outcome_amplitude(y, ae_bits: int) -> np.ndarray:
    """Amplitude |sin(pi y / 2^bits)| read from each outcome y.

    math.sin once per distinct outcome, so estimates do not depend on which
    vectorized loop numpy picks.  It is sin(pi y / M) itself, not the
    _grid_sines entry: for some y, sin(pi (M - y) / M) differs from it in
    the last bit.
    """
    M = 2**ae_bits
    outcomes, inverse = np.unique(y, return_inverse=True)
    table = np.array([abs(math.sin(math.pi * v / M)) for v in outcomes.tolist()])
    return table[inverse].reshape(np.shape(y))


# numpy's SeedSequence hash and mix constants, and the PCG64 (XSL-RR 128/64)
# multiplier; _pair_uniforms reproduces default_rng's seeding with them
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT_HI, _PCG_MULT_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)
_M32 = 0xFFFFFFFF


def _xorshift16(v):
    return v ^ (v >> np.uint32(16))


def _mulhi64(a, b):
    """High 64 bits of the 128-bit products a * b of uint64 values, by 32-bit limbs.

    Each partial sum stays below 2**64 (the mulhu of Hacker's Delight).
    """
    m32, s32 = np.uint64(_M32), np.uint64(32)
    a0, a1, b0, b1 = a & m32, a >> s32, b & m32, b >> s32
    t = a1 * b0 + ((a0 * b0) >> s32)
    mid = a0 * b1 + (t & m32)
    return a1 * b1 + (t >> s32) + (mid >> s32)


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo).astype(np.uint64), lo


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 state step, state * multiplier + inc modulo 2**128."""
    mul_hi = _mulhi64(lo, _PCG_MULT_LO) + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO
    return _add128(mul_hi, lo * _PCG_MULT_LO, inc_hi, inc_lo)


def _seed_hash(init: int, mult: int):
    """SeedSequence's word hash on uint32 arrays, one call after another.

    The hash constant steps by mult on every call, whatever the data, so
    it is kept as a Python int and the same for every pair of the batch.
    """
    const = init

    def hash_word(v):
        nonlocal const
        v = v ^ np.uint32(const)
        const = (const * mult) & _M32
        return _xorshift16(v * np.uint32(const))

    return hash_word


def _seed_sequence_state(seed: int, i: np.ndarray, j: np.ndarray) -> list:
    """SeedSequence((seed, p, q)).generate_state(4, np.uint64) for each pair of i, j.

    The entropy words are seed's little-endian 32-bit words, then p, then
    q; the result is the four uint64 state words, one array each.
    """
    seed_words = [seed & _M32]
    while seed > _M32:
        seed >>= 32
        seed_words.append(seed & _M32)
    words = [np.full(i.shape, w, dtype=np.uint32) for w in seed_words]
    words += [i.astype(np.uint32), j.astype(np.uint32)]
    hashmix = _seed_hash(_HASH_INIT_A, _HASH_MULT_A)

    def mix(x, y):
        return _xorshift16(_MIX_MULT_L * x - _MIX_MULT_R * y)

    # the pool of four: entropy words hashed in (zeros past the end), every
    # pool word mixed into every other, then any entropy words past four
    zero = np.zeros_like(words[0])
    pool = [hashmix(words[k] if k < len(words) else zero) for k in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    # eight output words cycling the pool, joined in pairs, low word first
    out = _seed_hash(_HASH_INIT_B, _HASH_MULT_B)
    state = []
    for k in range(0, 8, 2):
        low = out(pool[k % 4]).astype(np.uint64)
        state.append(low | (out(pool[k % 4 + 1]).astype(np.uint64) << np.uint64(32)))
    return state


def _pair_uniforms(seed, i, j) -> np.ndarray:
    """default_rng((seed, p, q)).random() for each pair (p, q) of index arrays i, j.

    The same draws bit for bit, computed for the whole batch at once:
    SeedSequence((seed, p, q)) gives four uint64 words, which seed
    PCG64 (state 0, inc = 2 seq + 1, step, add the initial state, step);
    one more step and the XSL-RR output give a 53-bit double.  Arithmetic
    is uint32 or uint64 with wraparound, 128-bit values as (hi, lo)
    pairs.  Indices must lie in [0, 2**32); a negative seed raises
    ValueError, as in default_rng.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    i, j = np.broadcast_arrays(i, j)
    if i.size and not (min(i.min(), j.min()) >= 0 and max(i.max(), j.max()) <= _M32):
        raise ValueError("pair indices must lie in [0, 2**32)")
    s_hi, s_lo, q_hi, q_lo = _seed_sequence_state(seed, i, j)
    # PCG64 srandom from state 0, whose first step leaves state == inc
    inc_hi = (q_hi << np.uint64(1)) | (q_lo >> np.uint64(63))
    inc_lo = (q_lo << np.uint64(1)) | np.uint64(1)
    hi, lo = _add128(inc_hi, inc_lo, s_hi, s_lo)
    del s_hi, s_lo, q_hi, q_lo  # 32 bytes per draw, freed before the steps' temporaries
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    # the draw: step, XSL-RR output, top 53 bits as a double in [0, 1)
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    rot = hi >> np.uint64(58)
    x = hi ^ lo
    x = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
    return (x >> np.uint64(11)).astype(np.float64) * 2.0**-53


def amplitude_estimate(a_true: float, ae_bits: int, seed) -> float:
    """Draw one amplitude-estimation outcome and map it back to [0, 1]."""
    u = np.random.default_rng(seed).random()
    y = _draw(estimation_pmf(a_true, ae_bits), np.array([u]))
    return float(_outcome_amplitude(y[0], ae_bits))


def oracle_PA(i: int, j: int, dataset: DataSet, config: CompactOracleConfig) -> float:
    """Matrix-entry oracle: estimated (or exact) distance pushed through the kernel.

    Estimated mode reconstructs r_hat = a_hat * sqrt(2(||x_i||^2+||x_j||^2))
    from one amplitude-estimation draw seeded by (seed, i, j), then
    evaluates the kernel profile at r_hat.
    """
    m = dataset.m
    if not (0 <= i < m and 0 <= j < m):
        raise IndexError(f"indices ({i}, {j}) out of range for m = {m}")
    if i == j:
        return config.kernel.phi0
    x_i, x_j = dataset.sites[i], dataset.sites[j]
    ni, nj = dataset.site_norms[i], dataset.site_norms[j]
    if config.ae_bits is None:
        return float(config.kernel.eval(float(interpolation.pair_distance(x_i, x_j))))
    a = distance_amplitude(x_i, x_j, ni, nj)
    a_hat = amplitude_estimate(a, config.ae_bits, (config.seed, i, j))
    r_hat = a_hat * pair_scale(x_i, x_j, ni, nj)
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


def _estimated_radii(
    dataset: DataSet, config: CompactOracleConfig, i, j, dist
) -> np.ndarray:
    """Estimated radii of the pairs (i, j), shape (n, 2): orders (i, j), (j, i).

    Both orders share one distribution, since the amplitude is symmetric;
    each order takes the first uniform of its (seed, i, j) stream.  The
    uniforms come from one _pair_uniforms call per order, which reproduces
    default_rng((seed, i, j)).random() in numpy without building a
    generator per pair.
    """
    ni, nj = dataset.site_norms[i], dataset.site_norms[j]
    scale = np.sqrt(2.0 * (ni * ni + nj * nj))
    amps = dist / scale
    bits = config.ae_bits
    # one call per order, so the uint64 temporaries cover half the draws at a time
    u = np.stack([_pair_uniforms(config.seed, i, j), _pair_uniforms(config.seed, j, i)], axis=1)
    y = np.empty(u.shape, dtype=np.int64)
    step = max(1, _BLOCK_CELLS >> bits)
    for start in range(0, amps.shape[0], step):
        block = slice(start, start + step)
        y[block] = _draw(estimation_pmf(amps[block], bits), u[block])
    return _outcome_amplitude(y, bits) * scale[:, None]


def build_matrix(
    dataset: DataSet, config: CompactOracleConfig, normalized: bool = False
) -> InterpMatrix:
    """Assemble the interpolation matrix from the entry oracle, all pairs at once.

    Entries equal the symmetrized oracle, (PA(i,j) + PA(j,i))/2, bit for
    bit: the entrywise oracle does not guarantee symmetry on its own.  In
    estimated mode there is one outcome distribution per unordered pair
    and one draw per ordered pair from its (seed, i, j) stream;
    distributions are built in blocks of at most _BLOCK_CELLS cells so
    memory does not grow with m.  Exact mode reproduces
    interpolation.assemble entry for entry.
    """
    from scipy.sparse import coo_array

    m = dataset.m
    scale = 1.0 / m if normalized else 1.0
    i, j = np.triu_indices(m, k=1)
    dist = interpolation.pair_distance(dataset.sites[i], dataset.sites[j])
    if config.ae_bits is None:
        # both orders see the same distance, and (v + v)/2 == v exactly
        entry = config.kernel.eval(dist)
    else:
        phi = config.kernel.eval(_estimated_radii(dataset, config, i, j, dist))
        entry = 0.5 * (phi[:, 0] + phi[:, 1])
    keep = entry != 0.0
    i, j, entry = i[keep], j[keep], entry[keep] * scale
    diag = np.arange(m)
    rows = np.concatenate([diag, i, j])
    cols = np.concatenate([diag, j, i])
    vals = np.concatenate([np.full(m, config.kernel.phi0 * scale), entry, entry])
    mat = coo_array((vals, (rows, cols)), shape=(m, m)).tocsr()
    mat.sort_indices()
    sparsity = int(np.max(np.diff(mat.indptr)))
    return InterpMatrix(
        data=mat, normalized=normalized, family=config.kernel.family, sparsity=sparsity
    )


def prepare_phi_state(x, dataset: DataSet, config: CompactOracleConfig):
    """Rotation-based preparation of the query state |Phi(x)>.

    Returns (state, success_prob, phi_norm_est): the post-selected unit
    state proportional to sum_j phi(||x - x_j|| / alpha) |j>, the
    probability (scale^2/m) sum_j phi^2 of the successful ancilla
    outcome, and the norm estimate sqrt(success_prob * m) / scale that
    recovers ||Phi(x)||.
    """
    c_hat = config.effective_scale
    if c_hat * config.kernel.phi0 > 1.0 + 1e-12:
        raise ValueError("scale_hat * phi(0) must not exceed 1")
    phi = interpolation.basis_vector(dataset, config.kernel, x)
    norm = float(np.linalg.norm(phi))
    if norm == 0.0:
        raise ValueError("query point is outside the support of every site")
    success, phi_norm_est = phi_norm_estimate(float(np.dot(phi, phi)), dataset.m, c_hat)
    state = PureState(phi / norm, (dataset.m,))
    return state, float(success), float(phi_norm_est)


def phi_norm_estimate(sq_norm, m: int, c_hat: float):
    """Success probability and ||Phi(x)|| estimate of the query-state preparation.

    sq_norm is ||Phi(x)||^2 (a scalar or one entry per query); returns
    (c_hat^2 ||Phi||^2 / m, sqrt(success * m) / c_hat).
    """
    success = c_hat**2 * sq_norm / m
    return success, np.sqrt(success * m) / c_hat


@dataclass
class CompactReport:
    """Sparse quantum solve plus its classical and exact-matrix baselines."""

    solve: SolveReport
    sparsity: int
    matrix_error: float
    fidelity_vs_exact_solution: float
    matrix: InterpMatrix


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
    matrix itself.  An estimated oracle matrix that is not positive
    definite raises NotPositiveDefiniteError naming compact.ae_bits as well
    as inversion.spectral_floor.
    """
    inversion = inversion or InversionConfig()
    if exact is None:
        exact = interpolation.exact_system(dataset, config.kernel, normalized=True)
    built = build_matrix(dataset, config, normalized=True)
    try:
        report = qinvert.invert(built.toarray(), exact.y, inversion)
    except interpolation.NotPositiveDefiniteError as exc:
        if config.ae_bits is None:
            raise
        # estimation noise in the entries is what breaks definiteness here
        raise interpolation.NotPositiveDefiniteError(
            f"{exc}, or raise compact.ae_bits to estimate the oracle entries more finely"
        ) from exc
    chat = exact.coeffs.c / np.linalg.norm(exact.coeffs.c)
    fidelity = float(abs(np.vdot(chat, report.state_out.amplitudes)))
    return CompactReport(
        solve=report,
        sparsity=built.sparsity,
        matrix_error=float(np.linalg.norm((built.data - exact.matrix.data).toarray(), "fro")),
        fidelity_vs_exact_solution=fidelity,
        matrix=built,
    )
