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
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.sparse import coo_array, issparse
from scipy.sparse.linalg import SuperLU, splu

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
    order, on arrays of the broadcast shape without the last axis; for
    the pair matrix of 512 sites in 2-D that is about seven times faster
    than reducing the (m, m, d) difference array over its short last
    axis.  For d <= 7 the sum has the bits of
    np.add.reduce(diff * diff, axis=-1), which adds fewer than 8 terms
    in order; from 8 terms on NumPy sums pairwise and the two differ in
    the last bits.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape[-1] != b.shape[-1]:
        raise ValueError("points must share a dimension")
    # coordinate axis first: a[c] is coordinate c of every point, a scalar for one point
    a = a.transpose(-1, *range(a.ndim - 1))
    b = b.transpose(-1, *range(b.ndim - 1))
    diff = a[0] - b[0]
    total = diff * diff
    for c in range(1, len(a)):
        diff = a[c] - b[c]
        total += diff * diff
    return np.sqrt(total)


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
    """Scattered sites (m, d), target values (m,), and cached site norms."""

    sites: np.ndarray
    values: np.ndarray
    site_norms: np.ndarray = field(init=False)

    def __post_init__(self):
        self.sites = np.atleast_2d(np.asarray(self.sites, dtype=float))
        self.values = np.asarray(self.values, dtype=float).ravel()
        if self.sites.shape[0] != self.values.shape[0]:
            raise ValueError("sites and values disagree on the number of points")
        if self.sites.shape[0] == 0:
            raise ValueError("empty dataset")
        if unique_rows(self.sites).shape[0] != self.sites.shape[0]:
            raise ValueError("sites must be pairwise distinct")
        self.site_norms = np.linalg.norm(self.sites, axis=1)

    @property
    def m(self) -> int:
        return self.sites.shape[0]

    @property
    def d(self) -> int:
        return self.sites.shape[1]


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


def _as_matrix_data(matrix):
    return matrix.data if isinstance(matrix, InterpMatrix) else np.asarray(matrix, dtype=float)


def _as_dense(matrix) -> np.ndarray:
    """Dense array of an InterpMatrix, a sparse array or an array-like."""
    data = matrix.data if isinstance(matrix, InterpMatrix) else matrix
    return data.toarray() if issparse(data) else np.asarray(data, dtype=float)


def assemble(dataset: DataSet, kernel: Kernel, normalized: bool = False) -> InterpMatrix:
    """Assemble the interpolation matrix for a dataset and kernel.

    Compact kernels are stored as CSR with only the pairs inside the
    support radius; global kernels are dense.
    """
    m = dataset.m
    scale = 1.0 / m if normalized else 1.0

    if kernel.is_compact:
        tree = cKDTree(dataset.sites)
        pairs = tree.query_pairs(kernel.alpha, output_type="ndarray")
        if pairs.size:
            dist = pair_distance(dataset.sites[pairs[:, 0]], dataset.sites[pairs[:, 1]])
            vals = kernel.eval(dist)
            keep = vals != 0.0  # drop the support boundary, phi is exactly 0 there
            pairs, vals = pairs[keep], vals[keep]
        else:
            pairs = pairs.reshape(0, 2)
            vals = np.zeros(0)
        diag = np.full(m, kernel.phi0)
        rows = np.concatenate([pairs[:, 0], pairs[:, 1], np.arange(m)])
        cols = np.concatenate([pairs[:, 1], pairs[:, 0], np.arange(m)])
        data = np.concatenate([vals, vals, diag]) * scale
        mat = coo_array((data, (rows, cols)), shape=(m, m)).tocsr()
        mat.sort_indices()
        sparsity = int(np.max(np.diff(mat.indptr)))
        return InterpMatrix(data=mat, normalized=normalized, sparsity=sparsity)

    dist = pair_distance(dataset.sites[:, None, :], dataset.sites[None, :, :])
    mat = kernel.eval(dist) * scale
    return InterpMatrix(data=mat, normalized=normalized, sparsity=m)


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
    A is taken to be symmetric, as `assemble` and `compact.build_matrix`
    build it; that is not checked here, since `LinearSystem.dense` checks
    it on a dense copy.
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


def factor_solve(factor, b) -> np.ndarray:
    """A^-1 b from A's factor: a cho_factor pair (dense) or a SuperLU LDL^T (sparse)."""
    return factor.solve(b) if isinstance(factor, SuperLU) else cho_solve(factor, b)


def solve(matrix: InterpMatrix, y, factor=None) -> Coefficients:
    """Solve A c = y by Cholesky (dense) or a SuperLU LDL^T (sparse).

    factor is A's factorization if the caller holds one (a
    `LinearSystem.factor`); otherwise one is taken here and freed when
    this returns.  NotPositiveDefiniteError when A is not positive definite.
    """
    y = np.asarray(y, dtype=float).ravel()
    A = _as_matrix_data(matrix)
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


def _coeff_vector(coeffs) -> np.ndarray:
    return coeffs.c if isinstance(coeffs, Coefficients) else np.asarray(coeffs, dtype=float)


def evaluate(coeffs, dataset: DataSet, kernel: Kernel, x) -> float:
    """Evaluate the interpolant at a single point x of matching dimension."""
    c = _coeff_vector(coeffs)
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] != dataset.d:
        raise ValueError(f"query point has dimension {x.shape[0]}, expected {dataset.d}")
    r = pair_distance(dataset.sites, x)
    if kernel.is_compact:
        mask = r < kernel.alpha
        if not np.any(mask):
            return 0.0
        return float(np.dot(c[mask], kernel.eval(r[mask])))
    return float(np.dot(c, kernel.eval(r)))


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


@dataclass
class Spectrum:
    lambda_max: float
    lambda_min: float
    kappa: float
    eigenvalues: np.ndarray


def spectrum(matrix) -> Spectrum:
    """Eigenvalue range and condition number of a (symmetric) matrix.

    kappa is lambda_max / lambda_min, reported as inf when the smallest
    eigenvalue is not positive.
    """
    w = np.linalg.eigvalsh(_as_dense(matrix))
    lam_min, lam_max = float(w[0]), float(w[-1])
    kappa = lam_max / lam_min if lam_min > 0 else math.inf
    return Spectrum(lambda_max=lam_max, lambda_min=lam_min, kappa=kappa, eigenvalues=w)


@dataclass
class LinearSystem:
    """A c = y; each decomposition of A is computed when first read, and kept.

    factor is the system's one factorization, whatever the storage: the
    Cholesky of the dense matrix, or the sparse LDL^T (`_ldlt`) of a CSR
    one.  A sparse system's coeffs solve from it; a dense system's coeffs
    take their own Cholesky, freed when the solve returns, so that a run
    which never reads the factor keeps no m x m copy of it.
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
    def dense(self) -> np.ndarray:
        dense = _as_dense(self.matrix)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise ValueError("need a square matrix")
        if np.max(np.abs(dense - dense.T)) > 1e-10 * max(1.0, np.max(np.abs(dense))):
            raise ValueError("matrix is not symmetric")
        return dense

    @cached_property
    def spectrum(self) -> Spectrum:
        return spectrum(self.dense)

    @cached_property
    def eigenbasis(self):
        """Ascending eigenvalues and orthonormal eigenvectors of the dense matrix."""
        return np.linalg.eigh(self.dense)

    @cached_property
    def factor(self):
        return _ldlt(self._data) if issparse(self._data) else _cholesky(self.dense)

    @cached_property
    def coeffs(self) -> Coefficients:
        return solve(self.matrix, self.y, self.factor if issparse(self._data) else None)


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


@dataclass
class PerturbationReport:
    """Measured perturbation effects against their a-priori bounds.

    Inverse side: || (A+E)^-1 - A^-1 || <= ||E|| ||A^-1||^2 / (1 - r)
    with r = ||A^-1 E|| < 1 (spectral norms); skipped when r >= 1.
    Eigenvalue side: every sorted eigenvalue moves by at most ||E||_2.
    """

    inverse_bound: float
    inverse_measured: float
    inverse_ok: bool
    inverse_skipped: bool
    eig_shift_bound: float
    eig_shift_measured: float
    eig_shift_ok: bool


def perturbation_check(A, E) -> PerturbationReport:
    A = _as_dense(A)
    E = np.asarray(E, dtype=float)
    if A.shape != E.shape or A.shape[0] != A.shape[1]:
        raise ValueError("A and E must be square matrices of the same shape")
    try:
        A_inv = np.linalg.inv(A)
    except np.linalg.LinAlgError as exc:
        raise ValueError("A must be nonsingular") from exc

    r = float(spectral_norm(A_inv @ E))
    e_norm = spectral_norm(E)
    if r < 1.0:
        bound = float(e_norm * spectral_norm(A_inv) ** 2 / (1.0 - r))
        measured = float(spectral_norm(np.linalg.inv(A + E) - A_inv))
        inv_ok = measured <= bound * (1.0 + 1e-12)
        skipped = False
    else:
        bound = math.inf
        measured = math.nan
        inv_ok = True
        skipped = True

    shift_bound = float(e_norm)
    wA = np.linalg.eigvalsh(A)
    wAE = np.linalg.eigvalsh(A + E)
    shift = float(np.max(np.abs(wAE - wA)))
    return PerturbationReport(
        inverse_bound=bound,
        inverse_measured=measured,
        inverse_ok=inv_ok,
        inverse_skipped=skipped,
        eig_shift_bound=shift_bound,
        eig_shift_measured=shift,
        eig_shift_ok=shift <= shift_bound * (1.0 + 1e-12) + 1e-15,
    )
