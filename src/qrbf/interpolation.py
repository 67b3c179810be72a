"""Classical scattered-data interpolation with radial basis functions.

Given sites x_1..x_m and values y, the interpolant is
f(x) = sum_j c_j phi(||x - x_j||) with coefficients solving the
symmetric system A c = y, A_ij = phi(||x_i - x_j||).

Two matrix conventions are supported.  The raw convention stores A as
written above.  The normalized convention divides both A and y by m, so
the matrix has unit-bounded spectrum for unit-diagonal kernels and trace
equal to phi(0); the coefficient vector is unchanged because the scaling
cancels.  Quantum-facing code works in the normalized convention.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.sparse import coo_array, issparse
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, SuperLU, eigsh, splu

# cg solves nothing: the name stays bound only because perfbench/tracer.py
# wraps interpolation.cg by name, until tracing moves inside (ROADMAP item 8)
from scipy.sparse.linalg import cg  # noqa: F401
from scipy.spatial import cKDTree

from .kernels import Kernel


def pair_distance(a, b):
    """Euclidean distance along the last axis.

    Used for every site-to-site and site-to-query distance in the
    package so that scalar, batched, and matrix evaluations share one
    floating-point path and agree bit for bit.  Two 1-D points give an
    np.float64.

    The squared differences are summed coordinate by coordinate, in
    order, into the array this returns, which has the broadcast shape
    without the last axis: the first coordinate's difference is made and
    squared there, each later one is formed and squared in one buffer of
    that shape and added, and the root is taken in place, so a call
    allocates two arrays of the result's size.  For the pair matrix of
    512 sites in 2-D that is about seven times faster than reducing the
    (m, m, d) difference array over its short last axis.  For d <= 7 the
    sum has the bits of np.add.reduce(diff * diff, axis=-1), which adds
    fewer than 8 terms in order; from 8 terms on NumPy sums pairwise and
    the two differ in the last bits.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape[-1] != b.shape[-1]:
        raise ValueError("points must share a dimension")
    # coordinate axis first: a[c] is coordinate c of every point, a scalar for one point
    a = a.transpose(-1, *range(a.ndim - 1))
    b = b.transpose(-1, *range(b.ndim - 1))
    total = a[0] - b[0]
    total *= total
    # two points sum in np.float64 scalars, which have no storage to write into
    buffer = np.empty_like(total) if total.ndim and len(a) > 1 else None
    for c in range(1, len(a)):
        diff = np.subtract(a[c], b[c], out=buffer)
        diff *= diff
        total += diff
    return np.sqrt(total, out=total) if total.ndim else np.sqrt(total)


def row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a real (n, d) array, bit for bit as np.linalg.norm(row).

    One 1 x d @ d x 1 product per row: numpy computes it with the dot
    routine of x.dot(x), the sum np.linalg.norm takes the root of for a
    1-D real vector, where norm(axis=-1) differs in the last ulp.
    """
    return np.sqrt(np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0])


def unique_rows(a: np.ndarray) -> np.ndarray:
    """Distinct rows of a 2-D array, sorted lexicographically.

    The rows np.unique(a, axis=0) returns, from a lexsort and a comparison
    of adjacent rows instead of its structured-dtype sort, at a quarter of
    the cost on a few-row array.  Rows compare as floats: -0.0 equals 0.0,
    NaN rows sort last and are all kept.  Of rows that differ only in the
    sign of a zero the first in input order is kept; np.unique keeps
    whichever its unstable sort puts first, the same one on up to 16 rows.
    Rows of no columns are all equal, as they are to np.unique.
    """
    rows = a[np.lexsort(a.T[::-1])] if a.shape[1] else a
    keep = np.empty(rows.shape[0], dtype=bool)
    keep[:1] = True
    np.any(rows[1:] != rows[:-1], axis=1, out=keep[1:])
    return rows[keep]


def spectral_norm(x: np.ndarray) -> np.floating:
    """Largest singular value: np.linalg.norm(x, 2) bit for bit.

    That norm takes the amax of this same singular-value array, which
    LAPACK returns in descending order; calling svd directly skips the
    wrapper's axis handling, about half the cost on a small matrix.
    """
    return np.linalg.svd(x, compute_uv=False)[0]


@dataclass
class DataSet:
    """Scattered sites (m, d) and target values (m,).

    No site norm is cached: every norm of a site is row_norms of the rows
    that need it, so per-pair and batched code read the same bits.
    """

    sites: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.sites = np.atleast_2d(np.asarray(self.sites, dtype=float))
        self.values = np.asarray(self.values, dtype=float).ravel()
        if self.sites.shape[0] != self.values.shape[0]:
            raise ValueError("sites and values disagree on the number of points")
        if self.sites.shape[0] == 0:
            raise ValueError("empty dataset")
        if unique_rows(self.sites).shape[0] != self.sites.shape[0]:
            raise ValueError("sites must be pairwise distinct")

    @property
    def m(self) -> int:
        return self.sites.shape[0]

    @property
    def d(self) -> int:
        return self.sites.shape[1]


def _franke(sites: np.ndarray) -> np.ndarray:
    # classic two-dimensional blend of four gaussian bumps; extra
    # coordinates are ignored, a missing second coordinate is fixed at 0.5
    x = sites[:, 0]
    y = sites[:, 1] if sites.shape[1] > 1 else np.full(sites.shape[0], 0.5)
    t1 = 0.75 * np.exp(-((9 * x - 2) ** 2 + (9 * y - 2) ** 2) / 4.0)
    t2 = 0.75 * np.exp(-((9 * x + 1) ** 2) / 49.0 - (9 * y + 1) / 10.0)
    t3 = 0.5 * np.exp(-((9 * x - 7) ** 2 + (9 * y - 3) ** 2) / 4.0)
    t4 = -0.2 * np.exp(-((9 * x - 4) ** 2) - (9 * y - 7) ** 2)
    return t1 + t2 + t3 + t4


def _cosines(sites: np.ndarray) -> np.ndarray:
    return np.prod(np.cos(2.0 * np.pi * sites), axis=1)


def _constant(sites: np.ndarray) -> np.ndarray:
    return np.ones(sites.shape[0])


TARGETS = {"franke": _franke, "cosines": _cosines, "constant": _constant}


def _box_array(box, d: int, name: str = "box") -> np.ndarray:
    """The (d, 2) finite bounds of box: one [lo, hi] for every dimension, or d rows [lo, hi];
    anything else is refused under name, with the shape it needs."""
    try:
        arr = np.asarray(box, dtype=float)
    except (TypeError, ValueError):  # text, or rows of unequal length
        arr = np.empty(0)
    if arr.shape == (2,):
        arr = np.tile(arr, (d, 1))
    if arr.shape != (d, 2) or not np.all(np.isfinite(arr)) or np.any(arr[:, 0] > arr[:, 1]):
        raise ValueError(f"{name} must be [lo, hi] or {d} rows [lo, hi], lo <= hi, got {box!r}")
    return arr


def gen_data(m: int, d: int, box, seed: int, target_fn: str = "franke") -> DataSet:
    """Uniform random distinct sites in the box with built-in target values."""
    if m < 1 or d < 1:
        raise ValueError("need m >= 1 and d >= 1")
    if target_fn not in TARGETS:
        raise ValueError(f"unknown target {target_fn!r}; choose from {sorted(TARGETS)}")
    bounds = _box_array(box, d)
    rng = np.random.default_rng(seed)
    sites = rng.uniform(bounds[:, 0], bounds[:, 1], size=(m, d))
    for _ in range(100):
        sites = unique_rows(sites)
        if sites.shape[0] == m:
            break
        draw = rng.uniform(bounds[:, 0], bounds[:, 1], size=(m - sites.shape[0], d))
        sites = np.vstack([sites, draw])
    else:
        raise RuntimeError(f"could not draw {m} distinct sites in box {box!r}")
    # unique_rows() sorted the rows; shuffle deterministically so ordering is not biased.
    # The draws, rows and generator state of rng.shuffle(sites), without its row loop
    sites = sites[rng.permutation(m)]
    return DataSet(sites=sites, values=TARGETS[target_fn](sites))


def save_dataset(dataset: DataSet, path) -> None:
    """Write sites and values as CSV with header x1..xd,y.

    Floats are written with repr so a reload is bit-exact and reruns are
    byte-identical.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i + 1}" for i in range(dataset.d)] + ["y"])
        for row, y in zip(dataset.sites, dataset.values):
            writer.writerow([repr(float(v)) for v in row] + [repr(float(y))])


def read_csv_rows(path) -> tuple[list, list]:
    """The header of a CSV of numbers and its nonblank rows as floats.

    A row whose width differs from the header's, or a cell that is not a
    finite number (nan, inf, text), is refused with the file, the line and
    the column.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file, no header")
        rows = []
        for row in filter(None, reader):
            where = f"{path}, line {reader.line_num}"
            if len(row) != len(header):
                raise ValueError(f"{where}: {len(row)} columns, the header has {len(header)}")
            values = []
            for name, text in zip(header, row):
                try:
                    v = float(text)
                except ValueError:
                    v = math.nan
                if not math.isfinite(v):
                    raise ValueError(f"{where}, column {name}: {text!r} is not a finite number")
                values.append(v)
            rows.append(values)
    return header, rows


def load_dataset(path) -> DataSet:
    """Read a dataset CSV written by `save_dataset` (header x1..xd,y)."""
    header, rows = read_csv_rows(path)
    if header[-1] != "y" or any(h != f"x{i + 1}" for i, h in enumerate(header[:-1])):
        raise ValueError(f"unexpected dataset header {header}")
    if not rows:
        raise ValueError(f"{path}: no data rows")
    arr = np.asarray(rows, dtype=float)
    return DataSet(sites=arr[:, :-1], values=arr[:, -1])


@dataclass
class InterpMatrix:
    """Interpolation matrix plus bookkeeping.

    data is a dense ndarray or a CSR array (compact kernels); sparsity is
    the maximum number of nonzeros in any row, counting the diagonal.
    """

    data: object
    normalized: bool
    sparsity: int | None = None

    @property
    def is_sparse(self) -> bool:
        return not isinstance(self.data, np.ndarray)

    @property
    def m(self) -> int:
        return self.data.shape[0]

    def toarray(self) -> np.ndarray:
        return self.data.toarray() if self.is_sparse else self.data


def _as_dense(matrix) -> np.ndarray:
    """Dense array of an InterpMatrix, a sparse array or an array-like."""
    data = matrix.data if isinstance(matrix, InterpMatrix) else matrix
    return data.toarray() if issparse(data) else np.asarray(data, dtype=float)


def symmetric_csr(m: int, i, j, vals, phi0: float, normalized: bool) -> InterpMatrix:
    """Sparse symmetric matrix with vals at the pairs (i, j) and (j, i), phi0 on the diagonal.

    Zero entries are dropped (phi is exactly 0 on the support boundary),
    and normalized scales every entry by 1/m.  The CSR indices are sorted.
    """
    scale = 1.0 / m if normalized else 1.0
    keep = vals != 0.0
    i, j, vals = i[keep], j[keep], vals[keep] * scale
    diag = np.arange(m)
    rows = np.concatenate([diag, i, j])
    cols = np.concatenate([diag, j, i])
    data = np.concatenate([np.full(m, phi0 * scale), vals, vals])
    mat = coo_array((data, (rows, cols)), shape=(m, m)).tocsr()
    mat.sort_indices()
    return InterpMatrix(data=mat, normalized=normalized, sparsity=int(np.max(np.diff(mat.indptr))))


def support_pairs(sites, alpha: float):
    """Index arrays (i, j), i < j, of the site pairs at most alpha apart.

    The candidate off-diagonal pattern of a kernel supported on [0, alpha]:
    a k-d tree neighbour search, O(m log m + pairs) instead of the
    m(m - 1)/2 of all pairs.  Pairs come in the tree's order.
    """
    return cKDTree(sites).query_pairs(alpha, output_type="ndarray").T


# Cells (rows x columns) of each row block the dense m x m builds and the
# batched readout work in: their temporaries stay in cache at any m, and
# only the result takes m x m memory
BLOCK_CELLS = 2**14


def row_blocks(m: int, columns: int) -> list:
    """Slices of consecutive rows of an (m, columns) array, BLOCK_CELLS cells or one row each."""
    step = max(1, BLOCK_CELLS // columns)
    return [slice(start, start + step) for start in range(0, m, step)]


def assemble(dataset: DataSet, kernel: Kernel, normalized: bool = False) -> InterpMatrix:
    """Assemble the interpolation matrix for a dataset and kernel.

    Compact kernels are stored as CSR with only the pairs inside the
    support radius (support_pairs); global kernels are dense.  The dense
    matrix is allocated once and filled by row blocks (row_blocks): each
    block's distances and kernel values are block-sized temporaries,
    scaled by 1/m (normalized) or 1 into the result.  Every entry takes
    the operations it took on the whole matrix, so the bits do not
    depend on the blocks.
    """
    sites = dataset.sites
    if kernel.is_compact:
        i, j = support_pairs(sites, kernel.alpha)
        vals = kernel.eval(pair_distance(sites[i], sites[j]))
        return symmetric_csr(dataset.m, i, j, vals, kernel.phi0, normalized)
    m = dataset.m
    scale = 1.0 / m if normalized else 1.0
    data = np.empty((m, m))
    for rows in row_blocks(m, m):
        phi = kernel.eval(pair_distance(sites[rows, None, :], sites[None, :, :]))
        np.multiply(phi, scale, out=data[rows])
    return InterpMatrix(data=data, normalized=normalized, sparsity=m)


@dataclass
class Coefficients:
    """Solution of the interpolation system.

    residual is the maximum over sites of |f(x_j) - y_j| in the raw
    convention, regardless of which convention the system was solved in.
    """

    c: np.ndarray
    norm: float
    residual: float


class NotPositiveDefiniteError(ValueError):
    """A factorization of an interpolation matrix failed: it is not numerically positive definite."""


def _cholesky(dense: np.ndarray):
    """cho_factor of a dense matrix, NotPositiveDefiniteError when it fails."""
    try:
        return cho_factor(dense)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            "matrix is not numerically positive definite (Cholesky failed)"
        ) from exc


def _ldlt(sparse) -> SuperLU:
    """Sparse LDL^T of a symmetric matrix, NotPositiveDefiniteError unless it is positive definite.

    SuperLU with diagonal pivoting and a symmetric fill-reducing order
    factors P A P^T = L U with U = D L^T, so U's diagonal holds the LDL^T
    pivots; A is positive definite exactly when each pivot is > 0
    (Sylvester's criterion).  A zero pivot makes SuperLU pivot off the
    diagonal (perm_r != perm_c) or stop at an exactly singular factor.
    A is taken to be symmetric, as `symmetric_csr` builds it; that is not
    checked here, since `LinearSystem` checks it on the CSR matrix itself.
    """
    try:
        lu = splu(sparse.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
    except RuntimeError as exc:  # SuperLU's exactly singular factor
        raise NotPositiveDefiniteError(
            f"matrix is not numerically positive definite (sparse LDL^T failed: {exc})"
        ) from exc
    if not (np.array_equal(lu.perm_r, lu.perm_c) and np.all(lu.U.diagonal() > 0.0)):
        raise NotPositiveDefiniteError(
            "matrix is not numerically positive definite (sparse LDL^T has a pivot <= 0)"
        )
    return lu


@dataclass(frozen=True)
class RefinedSolve:
    """The solves of a matrix G = A + E on A's factor, with one step of iterative refinement.

    x = A^-1 b, then x <- x + A^-1 (b - G x).  With gamma = ||A^-1 E||_2 < 1
    the step takes the error from about gamma ||x|| to gamma^2 ||x||
    (refinement converges at rate gamma: Wilkinson 1963, Moler 1967,
    Carson-Higham 2018), and in float64 the first step already reaches the
    kappa u floor of G's own Cholesky solve, so no further step is taken.
    """

    base: object  # A's factor, as `factor_solve` takes it
    matrix: np.ndarray  # G, dense


def factor_solve(factor, b) -> np.ndarray:
    """A^-1 b from A's factor: a cho_factor pair (dense), a SuperLU LDL^T (sparse), or a
    `RefinedSolve` of a perturbed matrix.

    cho_factor has checked A for non-finite entries, so the factor is not
    scanned again: that O(m^2) scan would cost each Lanczos step as much as
    the solve.
    """
    if isinstance(factor, SuperLU):
        return factor.solve(b)
    if isinstance(factor, RefinedSolve):
        x = factor_solve(factor.base, b)
        return x + factor_solve(factor.base, b - factor.matrix @ x)
    return cho_solve(factor, b, check_finite=False)


def solve(matrix: InterpMatrix, y, factor=None) -> Coefficients:
    """Solve A c = y by Cholesky (dense) or a SuperLU LDL^T (sparse).

    factor is A's factorization if the caller holds one (a
    `LinearSystem.factor`); otherwise one is taken here and freed when
    this returns.  NotPositiveDefiniteError when A is not positive definite.
    """
    y = np.asarray(y, dtype=float).ravel()
    A = matrix.data if isinstance(matrix, InterpMatrix) else np.asarray(matrix, dtype=float)
    if A.shape[0] != y.shape[0]:
        raise ValueError("matrix and right-hand side sizes disagree")
    m = y.shape[0]
    if factor is None:
        factor = _cholesky(A) if isinstance(A, np.ndarray) else _ldlt(A)
    c = factor_solve(factor, y)
    res = A @ c - y
    site_res = float(np.max(np.abs(res)))
    if isinstance(matrix, InterpMatrix) and matrix.normalized:
        site_res *= m  # raw-convention residual: the 1/m scaling cancels in c but not in A c - y
    return Coefficients(c=c, norm=float(np.linalg.norm(c)), residual=site_res)


def evaluate(coeffs, dataset: DataSet, kernel: Kernel, x) -> float:
    """The interpolant f(x) = sum_j c_j phi(||x - x_j||) at a single point x.

    np.add.reduce over basis_vector(x) * c, the sum the pipelines' batched
    readout takes for each query row, so f(x) equals the f_classical of
    that query bit for bit.
    """
    c = coeffs.c if isinstance(coeffs, Coefficients) else np.asarray(coeffs, dtype=float)
    return float(np.add.reduce(basis_vector(dataset, kernel, x) * c))


def basis_matrix(dataset: DataSet, kernel: Kernel, points) -> np.ndarray:
    """Kernel values phi(||x_k - x_j||), one row per query point x_k: shape (n, m)."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != dataset.d:
        raise ValueError(f"query points have shape {points.shape}, expected (n, {dataset.d})")
    r = pair_distance(dataset.sites[None, :, :], points[:, None, :])
    return np.asarray(kernel.eval(r), dtype=float)


def basis_vector(dataset: DataSet, kernel: Kernel, x) -> np.ndarray:
    """Vector of kernel values (phi(||x - x_j||))_j at a query point."""
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] != dataset.d:
        raise ValueError(f"query point has dimension {x.shape[0]}, expected {dataset.d}")
    return basis_matrix(dataset, kernel, x[None, :])[0]


# Order from which `LinearSystem.spectrum` takes its extremes by Lanczos on
# the system's factor: below it a dense eigvalsh is faster (measured at one
# BLAS thread on dense Gaussian and sparse Wendland matrices, m = 64 to 512)
LANCZOS_MIN_M = 192
# ARPACK's Lanczos basis size and residual tolerance, fixed with its start
# vector (all ones) so that the extremes have the same bits in every run
_LANCZOS_NCV = 10
_LANCZOS_TOL = 1e-8


@dataclass
class Spectrum:
    lambda_max: float
    lambda_min: float
    kappa: float


def _largest_eigenvalue(operator, what: str) -> float:
    """Largest eigenvalue of a symmetric operator by Lanczos (ARPACK eigsh)."""
    m = operator.shape[0]
    try:
        w = eigsh(operator, k=1, which="LA", v0=np.ones(m), ncv=_LANCZOS_NCV,
                  tol=_LANCZOS_TOL, return_eigenvectors=False)
    except ArpackNoConvergence as exc:
        raise ValueError(
            f"Lanczos found no {what} of the {m} x {m} matrix: ARPACK did not converge "
            f"to tolerance {_LANCZOS_TOL:g} ({exc})"
        ) from exc
    return float(w[0])


def spectrum(matrix, factor=None) -> Spectrum:
    """Eigenvalue range and condition number of a (symmetric) matrix.

    With no factor, the extremes of a dense eigvalsh.  With the matrix's
    factor (a `LinearSystem.factor`), by Lanczos instead, in O(nnz) memory:
    lambda_max on A, and lambda_min as 1 / lambda_max(A^-1), A^-1 applied
    through the factor; the extremes then differ from eigvalsh's by about
    kappa u relative (u the float64 unit roundoff).  kappa is
    lambda_max / lambda_min, reported as inf when the smallest eigenvalue
    is not positive.
    """
    if factor is None:
        w = np.linalg.eigvalsh(_as_dense(matrix))
        lam_min, lam_max = float(w[0]), float(w[-1])
    else:
        data = matrix.data if isinstance(matrix, InterpMatrix) else matrix
        inverse = LinearOperator(data.shape, matvec=partial(factor_solve, factor), dtype=float)
        lam_max = _largest_eigenvalue(data, "lambda_max")
        lam_min = 1.0 / _largest_eigenvalue(inverse, "lambda_min")
    kappa = lam_max / lam_min if lam_min > 0 else math.inf
    return Spectrum(lambda_max=lam_max, lambda_min=lam_min, kappa=kappa)


# Side of the square tiles `_exactly_symmetric` compares a dense matrix in
_SYMMETRY_TILE = 128


def _exactly_symmetric(data) -> bool:
    """True when a dense or CSR square matrix equals its transpose entry for entry.

    A NaN entry anywhere reads False, as it does under (data == data.T).all().

    A CSR matrix's CSC arrays are the CSR arrays of its transpose, so the
    two are compared array by array.  Where the stored patterns differ (an
    explicit zero, unsorted indices) this reads False though the matrix
    may be symmetric; the caller's tolerance check then decides.
    """
    if issparse(data):
        csc = data.tocsc()
        return all(
            np.array_equal(getattr(data, name), getattr(csc, name))
            for name in ("indptr", "indices", "data")
        )
    # tile by tile, each upper tile against its transposed lower mirror: the whole
    # data.T is a strided read, a 128 x 128 tile pair stays in cache (m=2048 on a
    # 2-vCPU Xeon: 40 ms whole, 6.3-10 ms in 64-tiles, 5.4-7.9 ms in 128-tiles)
    m, t = len(data), _SYMMETRY_TILE
    if m <= t:
        return bool((data == data.T).all())
    for i in range(0, m, t):
        for j in range(i, m, t):
            if not (data[i:i + t, j:j + t] == data[j:j + t, i:i + t].T).all():
                return False
    return True


@dataclass
class LinearSystem:
    """A c = y; each decomposition of A is computed when first read, and kept.

    A is refused unless square and symmetric, a CSR matrix in O(nnz)
    without a dense copy.  factor is the system's one factorization,
    whatever the storage: the Cholesky of the dense matrix, or the sparse
    LDL^T (`_ldlt`) of a CSR one; it is taken once, and a failed one
    raises the same NotPositiveDefiniteError at every read.  coeffs solve
    from it.  spectrum gives lambda_min, lambda_max and kappa: from
    LANCZOS_MIN_M rows on by Lanczos through the factor (`spectrum`),
    below that, or when the factor fails, from a dense eigvalsh.  Only the
    eigenbasis, which a spectral floor or quantized inversion reads, takes
    all m eigenvalues.  `perturbed` gives the system of a matrix close to
    A that reuses A's factor and extremes instead of taking its own.
    """

    matrix: InterpMatrix
    y: np.ndarray

    def __post_init__(self):
        if np.shape(self._data)[0] != np.size(self.y):
            raise ValueError("matrix and right-hand side sizes disagree")

    @property
    def _data(self):
        return self.matrix.data if isinstance(self.matrix, InterpMatrix) else self.matrix

    @cached_property
    def _checked(self):
        """The matrix data, a CSR array or a dense array, once it is known square and symmetric."""
        data = self._data if issparse(self._data) else _as_dense(self.matrix)
        if data.ndim != 2 or data.shape[0] != data.shape[1]:
            raise ValueError("need a square matrix")
        # an exactly symmetric matrix, as every assembly builds, skips the tolerance check
        if not _exactly_symmetric(data) and (
            abs(data - data.T).max() > 1e-10 * max(1.0, abs(data).max())
        ):
            raise ValueError("matrix is not symmetric")
        return data

    @cached_property
    def dense(self) -> np.ndarray:
        return _as_dense(self._checked)

    @cached_property
    def _factorization(self):
        """(factor, None), or (None, the NotPositiveDefiniteError of the failed factorization).

        The error is kept without its own or its cause's traceback: a
        traceback holds every calling frame alive, this system's among them,
        and so would make each failed system a reference cycle.
        """
        factorize = _ldlt if issparse(self._checked) else _cholesky
        try:
            return factorize(self._checked), None
        except NotPositiveDefiniteError as exc:
            exc.__traceback__ = None
            if exc.__cause__ is not None:
                exc.__cause__.__traceback__ = None
            return None, exc

    @property
    def factor(self):
        factor, error = self._factorization
        if error is not None:
            # a new error at each read, so that the kept one takes no traceback
            raise NotPositiveDefiniteError(*error.args) from error.__cause__
        return factor

    @cached_property
    def spectrum(self) -> Spectrum:
        if self._checked.shape[0] >= LANCZOS_MIN_M:
            factor, error = self._factorization
            if error is None:
                return spectrum(self._checked, factor)
        # a matrix with no factor is worded from the dense extremes, at any size
        return spectrum(self.dense)

    @cached_property
    def eigenbasis(self):
        """Ascending eigenvalues and orthonormal eigenvectors of the dense matrix."""
        return np.linalg.eigh(self.dense)

    @cached_property
    def coeffs(self) -> Coefficients:
        return solve(self.matrix, self.y, self.factor)

    def perturbed(self, matrix, e_norm: float) -> LinearSystem:
        """The system G c = y of a dense matrix G = A + E with ||E||_F = e_norm.

        Where gamma_b = e_norm / lambda_min(A) < 1/2, a `PerturbedSystem`
        that takes no factorization or spectrum of G; otherwise
        LinearSystem(G, y), which factors G itself.
        """
        if e_norm < 0.5 * self.spectrum.lambda_min:
            return PerturbedSystem(matrix, self.y, base=self, e_norm=e_norm)
        return LinearSystem(matrix, self.y)


@dataclass
class PerturbedSystem(LinearSystem):
    """G c = y for G = A + E, ||E||_F = e_norm < lambda_min(A) / 2, A the matrix of base.

    Its factor is a `RefinedSolve` on base's factor, one refinement step per
    solve, and its spectrum the Weyl interval: every eigenvalue of G lies
    within ||E||_2 <= e_norm of one of A, so lambda_min(A) - e_norm is a
    lower bound on lambda_min(G), lambda_max(A) + e_norm an upper bound on
    lambda_max(G), and kappa their ratio.  G's symmetry is still checked,
    as the refinement multiplies by G, and its eigenbasis is still G's own.
    """

    base: LinearSystem
    e_norm: float

    @cached_property
    def _factorization(self):
        return RefinedSolve(self.base.factor, self._checked), None

    @cached_property
    def spectrum(self) -> Spectrum:
        spec = self.base.spectrum
        lam_min, lam_max = spec.lambda_min - self.e_norm, spec.lambda_max + self.e_norm
        return Spectrum(lambda_max=lam_max, lambda_min=lam_min, kappa=lam_max / lam_min)


def exact_system(dataset: DataSet, kernel: Kernel, normalized: bool = False) -> LinearSystem:
    """Assemble and solve A c = y; y = values / m when normalized.

    A failed solve raises NotPositiveDefiniteError worded from the
    system's spectrum, naming the settings that condition A.
    """
    y = dataset.values / dataset.m if normalized else dataset.values
    system = LinearSystem(assemble(dataset, kernel, normalized=normalized), y)
    try:
        system.coeffs  # solved here, so that a failure is worded below
    except NotPositiveDefiniteError as exc:
        spec = system.spectrum
        # A flattens, and so loses its smallest eigenvalues, as the kernel
        # widens or the sites crowd together
        if kernel.is_compact:
            width = "lower kernel.alpha"
        elif kernel.family == "gaussian":
            width = "lower kernel.sigma"
        else:
            width = "raise kernel.eta"
        raise NotPositiveDefiniteError(
            f"the interpolation matrix is not numerically positive definite "
            f"(lambda_min {spec.lambda_min:.3e}, lambda_max {spec.lambda_max:.3e}, "
            f"kappa {spec.kappa:.3e}); {width} or dataset.m"
        ) from exc
    return system
