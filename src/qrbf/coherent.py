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

The Gram matrix and the truncation error have closed forms (NIST DLMF
8.2, 8.4, 13.2); only coherent_state builds amplitudes.  With a =
coordinate / sigma, a truncated state's squared norm is e_N(a^2), the
partial sum of the exponential series to N terms, so it overlaps the
exact state by sqrt(Q(N, a^2)), Q the regularized upper incomplete gamma
function (truncation_error), and two truncated coordinate states overlap by

    e_N(ab) / sqrt(e_N(a^2) e_N(b^2)) = e^{-(a - b)^2 / 2} f(ab) / sqrt(f(a^2) f(b^2))

with the truncation factor f(t) = e^-t e_N(t): Q(N, t) for t >= 0, and
1 - e^-t R_N(t) for t < 0, where R_N(t) = t^N / N! 1F1(1; N + 1; t) is
the series' remainder.  A product-state overlap is the product over
coordinates, so an entry is the exp of -||a_i - a_j||^2 / 2 plus, per
coordinate, ln f(a_i a_j) - ln f(a_i^2) / 2 - ln f(a_j^2) / 2.
gram_coherent forms the pair exponent, adds the log factors and takes
one exp: O(m^2 d) work.  A factor moves an entry by 2^-54 of itself,
half a unit in its last place, only where |t| reaches a cut that the
bounds of _factor_cut give once per order; at the orders min_order
picks, only products of large opposite-signed ratios reach it.

With every a^2 at most N, as min_order guarantees, the factors are near
1 wherever an entry is not negligible: against a 60-digit reference the
tests bound entries by 8 u / m (u = 2^-53) and find them within 1.3 u / m.
Below some a^2 (the bound suites' order searches) the factors cancel part
of the exponent, so an entry errs by a few u times the sum of the
magnitudes of its log's terms: up to 17 u / m on 30 datasets like the
bound suites', far below the truncation bounds at those orders.  Where
Q(N, max a^2) leaves the normal range the build refuses.

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
from scipy.special import gammainc, gammaincc, gammaln, hyp1f1

from . import interpolation
from .interpolation import DataSet, InterpMatrix
from .kernels import gaussian

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


def _ratios(x, sigma: float, order: int) -> np.ndarray:
    """Coordinates divided by sigma, for a truncation order that must be at least 1."""
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    if order < 1:
        raise ValueError("truncation order must be at least 1")
    return np.asarray(x, dtype=float) / sigma


def coherent_state(r: float, sigma: float, order: int) -> np.ndarray:
    """Unit amplitudes of the truncated encoding of coordinate r at width sigma.

    Formed in log space, k log|a| - ln(k!) / 2 less its largest value, so
    (r/sigma)^2 past exp's float range stays a unit vector; a negative
    ratio alternates the signs, and a zero ratio gives the ground state.
    """
    ratio = float(_ratios(r, sigma, order))
    if ratio == 0.0:
        return np.eye(1, order)[0]
    k = np.arange(order)
    log_u = k * math.log(abs(ratio)) - 0.5 * gammaln(k + 1.0)
    u = np.exp(log_u - log_u.max()) * np.sign(ratio) ** k
    return u / np.linalg.norm(u)


def truncation_error(r, sigma: float, order: int):
    """Distance ||psi_N - psi|| of the unit truncation at order N from the exact state.

    The two overlap by sqrt(Q(N, a^2)), a = r / sigma, so the squared
    distance is 2 - 2 sqrt(Q) = 2 P / (1 + sqrt(Q)), P = 1 - Q, which keeps
    its digits far below float epsilon, where 2 - 2 sqrt(Q) rounds to 0,
    and near sqrt(2), where P rounds to 1.  r may be an array.

    It is only as exact as SciPy's gammainc, which loses digits as the order
    grows: against a 60-digit reference the distance errs by up to 75 u
    relative (u the float64 unit roundoff) at orders up to 30, 220 u up to
    60, and 4.9e-13 at ratio 20, order 1000.  A bound near rounding at
    min_order's orders (hundreds to thousands) cannot be checked with it.
    """
    x = _ratios(r, sigma, order) ** 2
    return np.sqrt(2.0 * gammainc(order, x) / (1.0 + np.sqrt(gammaincc(order, x))))


def truncation_bound(r: float, sigma: float, order: int) -> float:
    """Bound sqrt(2 (r/sigma)^{2N} / N!) on the truncated-state error.

    Valid whenever N >= (r/sigma)^2 (the dropped tail is then dominated
    by its first term times a geometric factor of 2).  A bound past the
    float range is inf.
    """
    ratio = abs(_ratios(r, sigma, order))
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
    with np.errstate(divide="ignore"):  # rho = 0 is f(t) = 0 exactly: ln 0 = -inf, entry 0
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
    Refused where Q(N, max a^2) is below the normal range: its log would
    be -inf, or would keep only the few bits of a subnormal.
    """
    if order < terms.top and gammaincc(order, terms.top) < np.finfo(float).tiny:
        raise ValueError(
            f"truncation order {order} is too low for max (coordinate/sigma)^2 = "
            f"{terms.top:.6g}: Q(N, a^2) underflows there; take the order from "
            f"coherent.min_order, which starts at {math.ceil(terms.top)}"
        )
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
    It is the closed form of the module docstring at every order, O(m^2 d),
    exactly symmetric with diagonal 1/m.
    """
    return next(grams_by_order(dataset, sigma, (order,)))


def grams_by_order(dataset: DataSet, sigma: float, orders):
    """Yield gram_coherent(dataset, sigma, order) for each order in turn, bit for bit.

    The closed form's pair exponent -||a_i - a_j||^2 / 2 and the products
    a_ic a_jc are computed once and each order adds its own truncation
    factors to a copy of the exponent.  Lazy: a search that stops early
    builds no later Gram.
    """
    orders = list(orders)
    terms = _PairTerms(_ratios(dataset.sites, sigma, min(orders)))
    m = len(terms.ratios)
    for k, order in enumerate(orders):
        gram = _closed_form(terms, order, last=k == len(orders) - 1)
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
    approx = gram_coherent(dataset, sigma, order)
    exact = interpolation.assemble(dataset, gaussian(sigma=sigma), normalized=True)
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

