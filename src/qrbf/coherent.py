"""Truncated coherent-state encodings of scattered sites.

A coordinate value r is encoded in the first N levels of an oscillator
mode as the unit vector with amplitudes proportional to
(r/sigma)^k / sqrt(k!), k = 0..N-1.  A d-dimensional site uses one mode
per coordinate.  Overlaps of the untruncated states reproduce the
Gaussian kernel exactly,

    <psi_x | psi_z> = exp(-||x - z||^2 / (2 sigma^2)),

so a Gram matrix of truncated encodings is a controlled perturbation of
the Gaussian interpolation matrix: each truncated coordinate state is
within delta = sqrt(2 (r/sigma)^{2N} / N!) of its exact counterpart, a
d-coordinate product state is within d*delta, and every Gram entry moves
by at most 2*d*delta.

All amplitude arithmetic runs in log space (gammaln) so deep tails stay
accurate: two truncations of the same state share bit-identical leading
amplitudes, which keeps measured truncation errors meaningful far below
float epsilon.

One batch routine computes every amplitude vector: an array of n
coordinate ratios gives an (n, N) table of unit rows, each bit for bit
the vector of its coordinate alone, and a single coordinate takes the
same path.  It runs in two steps.  The log table k log|r| - gammaln(k +
1) / 2 does not depend on N, so the table at a high order holds the
table at every lower order in its leading columns.  The finishing step
takes a copy of the leading N columns and, in place, subtracts each
row's maximum, exponentiates, fixes the signs of negative ratios and
the rows of zero ratios, and scales each row to unit norm.  A search
over orders (grams_by_order, the bound suites) therefore builds one log
table and pays one finishing call per order.  A product-state overlap
is the product of its per-coordinate overlaps, so the m x m Gram
matrix is built as d BLAS syrk products F_c F_c^T, one per coordinate
table F_c, multiplied entrywise; no order^d product-state vector is
ever formed.

The far tails of a row underflow: exp leaves some amplitudes below the
smallest normal float64 (2.2e-308), about 0.45 % of a centred 512-site
table at sigma = 0.05 (order 339).  On x86 a product with such a
subnormal operand is many times slower than a normal one, enough to
make each syrk about four times slower, so gram_coherent sets them to
0.0 before its products.  Each dropped term is below 2.2e-308 in size,
so a Gram entry moves by at most order * 2.2e-308.  That centred
512-site Gram keeps every bit; at 1024 sites and sigma = 0.0125
(order 4370) 1116 of its 1048576 entries move, each below 1.5e-297 in
size and by at most 1.3e-311.  The tables _amplitudes returns keep
their subnormals.

The kernel depends only on x - z, so the quantum-global pipeline encodes
centred(dataset): each coordinate translated by the midpoint of its
range.  The largest ratio r/sigma is then half the range's width over
sigma rather than the largest |coordinate| over sigma.  On a 512-site
unit box at sigma = 0.05 the truncation order falls from 1161 to 339,
wherever the box lies.  The functions here encode coordinates as given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .interpolation import DataSet, InterpMatrix, row_norms

# smallest normal float64: amplitudes below it are flushed before the Gram's products
_TINY = np.finfo(float).tiny


def max_ratio(sites, sigma: float) -> float:
    """Largest |coordinate| / sigma over the sites: the ratio the bounds use."""
    return float(np.max(np.abs(sites))) / sigma


def centred(dataset: DataSet) -> DataSet:
    """The dataset with each coordinate translated by the midpoint of its range.

    The sites become sites - (min + max) / 2 per coordinate and the values
    stay the same.  Gaussian overlaps depend only on x - z, so the exact
    Gram matrix is unchanged, while the largest |coordinate| it encodes
    is half the range's width.
    """
    sites = dataset.sites
    mid = (sites.min(axis=0) + sites.max(axis=0)) / 2
    return DataSet(sites=sites - mid, values=dataset.values)


def _ratios(x, sigma: float) -> np.ndarray:
    """Coordinates divided by sigma."""
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    return np.asarray(x, dtype=float) / sigma


def _log_table(ratios, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat ratios r and the (n, order) table k log|r| - gammaln(k + 1) / 2.

    Entry (i, k) does not depend on the order, so the leading columns of a
    table at a high order are bit for bit the table at any lower order.
    A zero ratio takes log|r| = 0.0; _finish makes its row the unit vector.
    """
    if order < 1:
        raise ValueError("truncation order must be at least 1")
    r = np.asarray(ratios, dtype=float).reshape(-1)
    k = np.arange(order)
    # math.log, not np.log: the two differ in the last ulp for some inputs
    log_r = np.array([math.log(abs(v)) if v != 0.0 else 0.0 for v in r.tolist()])
    table = np.multiply.outer(log_r, k)
    table -= 0.5 * gammaln(k + 1.0)
    return r, table


def _finish(r, table) -> np.ndarray:
    """Unit amplitude rows, in place, from a C-contiguous log table of the ratios r.

    The sign flip of negative ratios and the unit row of zero ratios are
    masked writes that leave a table of positive ratios unchanged, so they
    run only when some ratio is not positive: the bound suites build
    hundreds of small tables, and on 8 ratios the masked writes take about
    a quarter of a build's time.
    """
    table -= table.max(axis=1, keepdims=True)
    np.exp(table, out=table)
    if not (r > 0.0).all():
        table[r < 0.0, 1::2] *= -1.0
        zero = r == 0.0
        table[zero] = 0.0
        table[zero, 0] = 1.0
    table /= row_norms(table)[:, None]
    return table


def _truncated(r, log_table, order: int) -> np.ndarray:
    """Amplitude rows at an order from a log table at that order or above: a finished copy."""
    return _finish(r, log_table[:, :order].copy())


def _amplitudes(ratios, order: int) -> np.ndarray:
    """Unit-normalized truncated amplitude rows, one per coordinate ratio.

    An array of n ratios gives an (n, order) table; a scalar gives the 1-D
    vector through the same path.  The table is built in place so the only
    (n, order) array is the result.
    """
    r, table = _log_table(ratios, order)
    _finish(r, table)
    return table[0] if np.ndim(ratios) == 0 else table


@dataclass
class TruncatedCoherent:
    """Single-coordinate truncated encoding."""

    ratio: float
    order: int
    amplitudes: np.ndarray


def coherent_state(r: float, sigma: float, order: int) -> TruncatedCoherent:
    """Truncated coherent encoding of coordinate r at width sigma."""
    ratio = float(_ratios(r, sigma))
    return TruncatedCoherent(ratio, int(order), _amplitudes(ratio, order))


def truncation_bound(r: float, sigma: float, order: int) -> float:
    """Bound sqrt(2 (r/sigma)^{2N} / N!) on the truncated-state error.

    Valid whenever N >= (r/sigma)^2 (the dropped tail is then dominated
    by its first term times a geometric factor of 2).  A bound past the
    float range is inf.
    """
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    if order < 1:
        raise ValueError("truncation order must be at least 1")
    ratio = abs(r) / sigma
    if ratio == 0.0:
        return 0.0
    lg = 0.5 * (math.log(2.0) + 2.0 * order * math.log(ratio) - gammaln(order + 1.0))
    try:
        return math.exp(lg)
    except OverflowError:
        return math.inf


def min_order(ratio_max: float, delta: float) -> int:
    """Smallest truncation order whose bound at ratio_max is <= delta.

    Grows like log(1/delta) / log log(1/delta) in the target accuracy.
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    ratio_max = abs(ratio_max)
    order = max(1, math.ceil(ratio_max * ratio_max))
    while truncation_bound(ratio_max, 1.0, order) > delta:
        order += 1
        if order > 100_000:
            raise RuntimeError("truncation order search did not terminate")
    return order


def _gram(tables, m: int) -> InterpMatrix:
    """Normalized Gram prod_c F_c F_c^T / m of the (m, order) coordinate tables F_c.

    Each table's subnormal amplitudes are set to 0.0 in place before its
    syrk product (see the module docstring), and the diagonal is 1.0.
    """
    gram = np.ones((m, m))
    for table in tables:
        table[np.abs(table) < _TINY] = 0.0
        gram *= table @ table.T
        del table  # freed before the next coordinate's table is built
    np.fill_diagonal(gram, 1.0)  # encodings are unit vectors by construction
    gram /= m
    return InterpMatrix(data=gram, normalized=True, sparsity=m)


def gram_coherent(dataset: DataSet, sigma: float, order: int) -> InterpMatrix:
    """Normalized Gram matrix of truncated encodings, entries <psi_i|psi_j>/m.

    This is the matrix the quantum pipeline actually inverts; it converges
    to the normalized Gaussian interpolation matrix as the order grows.
    A product-state overlap is the product of per-coordinate overlaps, so
    the build is one (m, order) amplitude table F_c per coordinate and the
    entrywise product of the d products F_c F_c^T, which BLAS runs as syrk
    and which are therefore exactly symmetric.  Subnormal amplitudes are
    set to 0.0 first (see the module docstring).  One coordinate's table
    is held at a time.
    """
    ratios = _ratios(dataset.sites, sigma)  # (m, d)
    return _gram((_amplitudes(ratios[:, c], order) for c in range(dataset.d)), dataset.m)


def grams_by_order(dataset: DataSet, sigma: float, orders):
    """Yield gram_coherent(dataset, sigma, order) for each order in turn, bit for bit.

    One log table of all m*d coordinate ratios at the largest order is
    built first; each order then finishes a copy of its leading columns
    (see the module docstring), so a search over orders pays the logs
    and gammaln once.  Lazy: a search that stops early builds no later
    Gram.
    """
    orders = list(orders)
    m, d = dataset.m, dataset.d
    # coordinate-major rows, so each coordinate's block of a finished copy is contiguous
    r, log_table = _log_table(_ratios(dataset.sites, sigma).T, max(orders))
    for order in orders:
        yield _gram(_truncated(r, log_table, order).reshape(d, m, order), m)


@dataclass
class GramDeviation:
    """Measured deviation of the truncated Gram matrix from the exact one, which exact holds."""

    delta: float
    entry_bound: float
    entry_max_error: float
    frobenius_bound: float
    frobenius_error: float
    exact: InterpMatrix


def gram_report(dataset: DataSet, sigma: float, order: int) -> GramDeviation:
    """Compare gram_coherent against the exact normalized Gaussian matrix.

    delta is the worst single-coordinate truncation bound over the
    dataset; entries are bounded by 2*d*delta/m and the Frobenius norm of
    the deviation by 2*d*delta.
    """
    from .kernels import gaussian
    from .interpolation import assemble

    approx = gram_coherent(dataset, sigma, order)
    exact = assemble(dataset, gaussian(sigma=sigma), normalized=True)
    diff = approx.data - exact.data
    delta = truncation_bound(max_ratio(dataset.sites, sigma), 1.0, order)
    d = dataset.d
    return GramDeviation(
        delta=delta,
        entry_bound=2.0 * d * delta / dataset.m,
        entry_max_error=float(np.max(np.abs(diff))),
        frobenius_bound=2.0 * d * delta,
        frobenius_error=float(np.linalg.norm(diff, "fro")),
        exact=exact,
    )

