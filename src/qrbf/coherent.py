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
over orders (the truncation suite, grams_by_order below the ratios)
therefore builds one log table and pays one finishing call per order.

The Gram matrix has a closed form (NIST DLMF 8.4, 13.2).  With a =
coordinate / sigma, a truncated state's squared norm is e_N(a^2), the
partial sum of the exponential series to N terms, so one coordinate's
overlap is

    e_N(ab) / sqrt(e_N(a^2) e_N(b^2)) = e^{-(a - b)^2 / 2} f(ab) / sqrt(f(a^2) f(b^2))

with the truncation factor f(t) = e^-t e_N(t): Q(N, t), the regularized
upper incomplete gamma function, for t >= 0, and 1 - e^-t R_N(t) for
t < 0, where R_N(t) = t^N / N! 1F1(1; N + 1; t) is the series'
remainder.  A product-state overlap is the product over coordinates, so
an entry is the exp of -||a_i - a_j||^2 / 2 plus, per coordinate,
ln f(a_i a_j) - ln f(a_i^2) / 2 - ln f(a_j^2) / 2.  gram_coherent forms
the pair exponent, adds the log factors and takes one exp: O(m^2 d)
work, where d products of (m, N) amplitude tables took O(m^2 d N).  A
factor moves an entry by 2^-54 of itself, half a unit in its last
place, only where |t| reaches a cut that the bounds of _factor_cut give
once per order; at the orders min_order picks, only products of large
opposite-signed ratios reach it.  With every a^2 at most N, as
min_order guarantees, the factors are near 1 wherever an entry is not
negligible: against a 60-digit reference the tests bound entries by
8 u / m (u = 2^-53) and find them within 1.3 u / m, where the table
products' N-term dot products erred by up to N u / m.  At orders below
some a^2 the factors would cancel most of the exponent, so the Gram
there is the entrywise product of the coordinates' amplitude-table
products F_c F_c^T instead.

The kernel depends only on x - z, so the quantum-global pipeline encodes
centred(dataset): each coordinate translated by the midpoint of its
range.  The largest ratio r/sigma is then half the range's width over
sigma rather than the largest |coordinate| over sigma.  On a 512-site
unit box at sigma = 0.05 the truncation order falls from 1161 to 339,
wherever the box lies.  The functions here encode coordinates as given.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincc, gammaln, hyp1f1

from .interpolation import DataSet, InterpMatrix, row_norms

# min_order searches no further
_MAX_ORDER = 100_000


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
    """Smallest truncation order from ceil(ratio_max^2) whose bound at ratio_max is <= delta.

    Grows like log(1/delta) / log log(1/delta) in the target accuracy.
    From N >= ratio^2 on, consecutive bounds differ by the factor
    ratio / sqrt(N + 1) < 1, so the bound decreases: the search brackets
    the first order that meets delta by doubling steps and bisects, about
    2 log2 of the scan's length in bound evaluations.
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    ratio_max = abs(ratio_max)

    def meets(order: int) -> bool:
        return truncation_bound(ratio_max, 1.0, order) <= delta

    lo = max(1, math.ceil(ratio_max * ratio_max))
    if meets(lo):
        return lo
    step, hi = 1, lo + 1
    while hi <= _MAX_ORDER and not meets(hi):
        lo, step = hi, 2 * step
        hi = min(lo + step, _MAX_ORDER) if lo < _MAX_ORDER else lo + 1
    if hi > _MAX_ORDER:
        raise RuntimeError("truncation order search did not terminate")
    # bound(lo) > delta >= bound(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if meets(mid):
            hi = mid
        else:
            lo = mid
    return hi


# a factor f with |1 - f| < 2^-54 moves a Gram entry by under half a unit in its last place
_LOG_HALF_ULP = -54.0 * math.log(2.0)


def _bisect_cut(log_bound, hi: float) -> float:
    """Largest t found in (0, hi) with log_bound(t) < _LOG_HALF_ULP, for a bound increasing in t.

    The cut is conservative: every t below it has its bound below 2^-54.
    """
    lo = 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if log_bound(mid) < _LOG_HALF_ULP:
            lo = mid
        else:
            hi = mid
    return lo


@functools.lru_cache(maxsize=256)  # an order search takes a few dozen orders
def _factor_cut(order: int) -> float:
    """A cut c > 0 such that a product t with |t| < c has a truncation factor within 2^-54 of 1.

    The factor of a product t is f(t) = e^-t e_N(t).  For t >= 0 it is
    Q(N, t), and 1 - Q(N, t) <= t^N e^-t / N! (N + 1) / (N + 1 - t) while
    t < N + 1.  For t < 0, |1 - f(t)| = e^|t| |R_N(t)| <= e^|t| |t|^N / N!,
    since 0 < 1F1(1; N + 1; t) <= 1.  Both bounds grow with |t|, so each
    has its own cut by one bisection, and c is the smaller; it is cached
    per order, so a search over orders pays each bisection once.
    """
    n = float(order)
    log_fact = float(gammaln(n + 1.0))
    cut_pos = _bisect_cut(
        lambda t: n * math.log(t) - t - log_fact + math.log((n + 1.0) / (n + 1.0 - t)), n + 1.0
    )
    # the bound at |t| = N is e^N N^N / N! > 1
    cut_neg = _bisect_cut(lambda s: s + n * math.log(s) - log_fact, n)
    return min(cut_pos, cut_neg)


def _negative(t: np.ndarray):
    """The mask t < 0, or None where no entry is negative."""
    neg = t < 0.0
    return neg if neg.any() else None


def _log_factors(order: int, t: np.ndarray, neg):
    """ln|f(t)| for an array of products t, and the mask of negative f(t), or None if there is none.

    f(t) = e^-t e_N(t).  For t >= 0 it is Q(N, t), scipy's gammaincc.  For
    t < 0 it is 1 - e^-t R_N(t), with R_N(t) = t^N / N! 1F1(1; N + 1; t)
    the series' remainder (DLMF 13.2), so e^-t R_N(t) = (-1)^N e^rho with
    rho formed in log space.  neg is _negative(t).
    """
    if neg is None:
        return np.log(gammaincc(order, t)), None
    out = np.empty_like(t)
    pos = ~neg
    out[pos] = np.log(gammaincc(order, t[pos]))
    s = -t[neg]
    rho = order * np.log(s) - gammaln(order + 1.0) + np.log(hyp1f1(1.0, order + 1.0, -s)) + s
    if order % 2:
        out[neg] = np.logaddexp(0.0, rho)  # ln(1 + e^rho)
        return out, None
    out[neg] = np.maximum(rho, 0.0) + np.log(-np.expm1(-np.abs(rho)))  # ln|1 - e^rho|
    flip = np.zeros(t.shape, dtype=bool)
    flip[neg] = rho > 0.0
    return out, flip if flip.any() else None


# up to this many products a_ic a_jc (d m^2) every factor is taken in one call, cut or not:
# on so few, numpy's cost per call outweighs the factors a cut would skip
_STACKED_MAX = 2048


class _PairTerms:
    """The order-free terms of a dataset's closed form, the arrays computed when first read.

    ratios is the (m, d) array a of coordinates / sigma; exponent is
    -||a_i - a_j||^2 / 2 over all pairs, summed coordinate by coordinate;
    reach is |a_ic| max_j |a_jc|, the largest |a_ic a_jc| of each row and
    coordinate, and top its largest entry, max a^2; products is the (d,
    m, m) array of a_ic a_jc and negative its _negative mask.
    """

    def __init__(self, ratios):
        self.ratios = ratios
        size = np.abs(ratios)
        self.reach = size * size.max(axis=0)
        self.top = float(self.reach.max())
        self.products_size = size.size * len(ratios)

    @functools.cached_property
    def exponent(self) -> np.ndarray:
        first, *rest = self.ratios.T
        total = np.subtract.outer(first, first)
        total *= total
        diff = np.empty_like(total) if rest else None
        for a in rest:
            np.subtract.outer(a, a, out=diff)
            diff *= diff
            total += diff
        total *= -0.5
        return total

    @functools.cached_property
    def products(self) -> np.ndarray:
        a = self.ratios.T
        return a[:, :, None] * a[:, None, :]

    @functools.cached_property
    def negative(self):
        return _negative(self.products)


def _closed_form(terms: _PairTerms, order: int, last: bool) -> np.ndarray:
    """Unnormalized Gram of the truncated encodings of terms.ratios at an order.

    To the exponent -||a_i - a_j||^2 / 2 (itself if last, else a copy) it
    adds each coordinate's truncation factors ln f(a_i a_j), then each
    row's -ln Q(N, a_i^2) / 2, read off the diagonal those factors filled,
    takes one exp and flips the signs of negative factors.  Rows i with
    |a_i| max|a| below _factor_cut take no factor in that coordinate:
    their products and their squares are below the cut.  On up to
    _STACKED_MAX products, once some row reaches the cut, the factors of
    all pairs and coordinates are taken in one call.  Every term is a
    function of the unordered pair, so the result is exactly symmetric.
    """
    m = len(terms.ratios)
    log_gram = terms.exponent if last else terms.exponent.copy()
    cut = _factor_cut(order)
    flip = None
    if cut > terms.top:
        pass  # no factor can move an entry
    elif terms.products_size <= _STACKED_MAX:
        log_f, negative = _log_factors(order, terms.products, terms.negative)
        for term in log_f:
            log_gram += term
        if negative is not None:
            flip = np.logical_xor.reduce(negative, axis=0)
    else:
        for a, reach in zip(terms.ratios.T, terms.reach.T):
            rows = np.flatnonzero(reach >= cut)
            if rows.size == 0:
                continue
            block = np.ix_(rows, rows)
            t = np.multiply.outer(a[rows], a[rows])
            log_f, negative = _log_factors(order, t, _negative(t))
            log_gram[block] += log_f
            if negative is not None:
                if flip is None:
                    flip = np.zeros((m, m), dtype=bool)
                flip[block] ^= negative
    # the exponent's diagonal is 0, so it now holds sum_c ln Q(N, a_ic^2)
    row_log = -0.5 * log_gram.diagonal()
    if row_log.any():
        log_gram += np.add.outer(row_log, row_log)
    gram = np.exp(log_gram, out=log_gram)
    if flip is not None:
        np.negative(gram, out=gram, where=flip)
    return gram


def gram_coherent(dataset: DataSet, sigma: float, order: int) -> InterpMatrix:
    """Normalized Gram matrix of truncated encodings, entries <psi_i|psi_j>/m.

    This is the matrix the quantum pipeline actually inverts; it converges
    to the normalized Gaussian interpolation matrix as the order grows.
    Where the order is at least every a^2 = (coordinate / sigma)^2 it is
    the closed form of the module docstring, O(m^2 d); below that, the
    product of the coordinates' amplitude tables.  The matrix is exactly
    symmetric with diagonal 1/m.
    """
    return next(grams_by_order(dataset, sigma, (order,)))


def grams_by_order(dataset: DataSet, sigma: float, orders):
    """Yield gram_coherent(dataset, sigma, order) for each order in turn, bit for bit.

    The closed form's pair exponent -||a_i - a_j||^2 / 2 is computed once
    and copied per order; the orders below the ratios share one log table
    at the largest order, each finishing a copy of its leading columns
    (see the module docstring).  Each is built when first needed.  Lazy:
    a search that stops early builds no later Gram.
    """
    orders = list(orders)
    if min(orders) < 1:
        raise ValueError("truncation order must be at least 1")
    ratios = _ratios(dataset.sites, sigma)  # (m, d)
    m, d = ratios.shape
    terms = _PairTerms(ratios)
    log_table = None
    for k, order in enumerate(orders):
        if order >= terms.top:
            gram = _closed_form(terms, order, last=k == len(orders) - 1)
        else:
            if log_table is None:
                # coordinate-major rows, so each coordinate's block of a finished copy is contiguous
                r, log_table = _log_table(ratios.T, max(orders))
            # the entrywise product of the coordinates' F_c F_c^T
            gram = np.ones((m, m))
            for table in _truncated(r, log_table, order).reshape(d, m, order):
                gram *= table @ table.T
        np.fill_diagonal(gram, 1.0)  # encodings are unit vectors by construction
        gram /= m
        yield InterpMatrix(data=gram, normalized=True, sparsity=m)


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

