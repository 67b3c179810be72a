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
otherwise.  Per-pair generators seeded by (seed, i, j) keep every oracle
call reproducible regardless of evaluation order.

oracle_PA is the per-entry reference.  build_matrix computes the same
entries in one batched pass over the upper-triangle pairs: a_ij == a_ji
bit for bit, so it builds one outcome distribution per unordered pair and
takes one draw per ordered pair from that pair's (seed, i, j) stream, by
the inverse-CDF rule Generator.choice uses.  Distributions are built in
blocks of at most _BLOCK_CELLS grid cells, so memory stays flat in m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import interpolation, qinvert
from .interpolation import DataSet, InterpMatrix
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


def estimation_pmf(a_true, ae_bits: int) -> np.ndarray:
    """Outcome distribution of canonical amplitude estimation on a 2^bits grid.

    Cell y of the grid carries the interference weight
    (F(y/M - omega) + F(y/M + omega)) / 2 with F the squared Dirichlet
    kernel sin^2(pi M t) / (M sin(pi t))^2 and omega = arcsin(a)/pi.
    An array of n amplitudes gives one distribution per row, shape
    (n, 2^bits); a scalar gives the 1-D distribution through the same path.
    """
    a = np.asarray(a_true, dtype=float)
    scalar = a.ndim == 0
    a = a.reshape(-1)
    if not np.all((a >= 0.0) & (a <= 1.0)):
        raise ValueError("amplitude must lie in [0, 1]")
    M = 2**ae_bits
    # math.asin, not np.arcsin: the two differ in the last ulp for some inputs
    omega = np.array([math.asin(v) for v in a.tolist()])[:, None] / math.pi
    y = np.arange(M) / M

    def fejer(delta):
        # squared Dirichlet weight; the 0/0 cells are exact hits with weight 1
        num = np.sin(np.pi * M * delta) ** 2
        den = (M * np.sin(np.pi * delta)) ** 2
        out = np.divide(num, den, out=np.ones_like(den), where=den != 0.0)
        return out

    pmf = 0.5 * (fejer(y - omega) + fejer(y + omega))
    pmf /= pmf.sum(axis=-1, keepdims=True)
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

    math.sin per outcome, as for omega in estimation_pmf, so estimates do
    not depend on which vectorized loop numpy picks.
    """
    M = 2**ae_bits
    vals = [abs(math.sin(math.pi * v / M)) for v in np.ravel(y).tolist()]
    return np.array(vals).reshape(np.shape(y))


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
    each order draws one uniform from its own (seed, i, j) generator.
    """
    ni, nj = dataset.site_norms[i], dataset.site_norms[j]
    scale = np.sqrt(2.0 * (ni * ni + nj * nj))
    amps = dist / scale
    seed, bits = config.seed, config.ae_bits
    u = np.array(
        [
            (
                np.random.default_rng((seed, p, q)).random(),
                np.random.default_rng((seed, q, p)).random(),
            )
            for p, q in zip(i.tolist(), j.tolist())
        ]
    ).reshape(-1, 2)
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
    and one draw per ordered pair from its (seed, i, j) generator;
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
    success = float(c_hat**2 * np.dot(phi, phi) / dataset.m)
    state = PureState(phi / norm, (dataset.m,))
    phi_norm_est = math.sqrt(success * dataset.m) / c_hat
    return state, success, phi_norm_est


@dataclass
class CompactReport:
    """Sparse quantum solve plus its classical and exact-matrix baselines."""

    solve: SolveReport
    sparsity: int
    kappa: float
    matrix_error: float
    fidelity_vs_exact_solution: float
    matrix: InterpMatrix


def solve_compact(
    dataset: DataSet,
    config: CompactOracleConfig,
    inversion: InversionConfig | None = None,
    normalized: bool = True,
) -> CompactReport:
    """Build the matrix through the oracles and invert it.

    solve.fidelity_vs_classical checks the inversion against the oracle
    matrix itself; fidelity_vs_exact_solution checks the whole pipeline
    against the classically assembled exact system.
    """
    inversion = inversion or InversionConfig()
    built = build_matrix(dataset, config, normalized=normalized)
    exact = interpolation.assemble(dataset, config.kernel, normalized=normalized)
    y = dataset.values / dataset.m if normalized else dataset.values
    report = qinvert.invert(built.toarray(), y, inversion)
    exact_coeffs = interpolation.solve(exact, y)
    chat = exact_coeffs.c / np.linalg.norm(exact_coeffs.c)
    fidelity = float(abs(np.vdot(chat, report.state_out.amplitudes)))
    spec = interpolation.spectrum(exact)
    return CompactReport(
        solve=report,
        sparsity=built.sparsity,
        kappa=spec.kappa,
        matrix_error=float(
            np.linalg.norm((built.data - exact.data).toarray(), "fro")
        ),
        fidelity_vs_exact_solution=fidelity,
        matrix=built,
    )
