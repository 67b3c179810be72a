"""Tests for truncated coherent encodings and the Gram matrix they induce."""

import functools
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import gammaincc, gammaln, hyp1f1

from qrbf import coherent
from qrbf.harness import gen_data
from qrbf.interpolation import DataSet, assemble, row_norms
from qrbf.kernels import gaussian

# one ratio of each kind: zero, negative, positive, and (r/sigma)^2 of about
# 700 and of 3249, where exp((r/sigma)^2) is past the float64 range
EDGE_RATIOS = (0.0, -0.3, -2.2, -26.45, -57.0, 0.4, 1.0, 7.9, 26.45, 57.0)


def _reference_amplitudes(ratio: float, order: int) -> np.ndarray:
    """One coordinate's amplitude vector, computed on its own in log space."""
    if ratio == 0.0:
        out = np.zeros(order)
        out[0] = 1.0
        return out
    k = np.arange(order)
    logu = k * math.log(abs(ratio)) - 0.5 * gammaln(k + 1.0)
    u = np.exp(logu - logu.max())
    if ratio < 0.0:
        u *= (-1.0) ** k
    return u / np.linalg.norm(u)


def _reference_table(ratios, order: int) -> np.ndarray:
    """The (n, order) table of the amplitude vectors of n ratios, built at once.

    The log table k log|r| - gammaln(k + 1) / 2 less each row's maximum is
    exponentiated, the odd columns of negative ratios flip sign, a zero
    ratio's row is the ground state, and the rows are normalised in one
    batched product (interpolation.row_norms).
    """
    r = np.asarray(ratios, dtype=float).reshape(-1)
    k = np.arange(order)
    # math.log, not np.log: the two differ in the last ulp for some inputs
    log_r = np.array([math.log(abs(v)) if v != 0.0 else 0.0 for v in r.tolist()])
    table = np.multiply.outer(log_r, k) - 0.5 * gammaln(k + 1.0)
    table = np.exp(table - table.max(axis=1, keepdims=True))
    table[r < 0.0, 1::2] *= -1.0
    table[r == 0.0] = np.eye(1, order)[0]
    return table / row_norms(table)[:, None]


def _reference_gram(ds: DataSet, sigma: float, order: int, magnitudes: bool = False) -> np.ndarray:
    """Gram matrix of the amplitude tables, all per-coordinate overlaps at once, via einsum.

    With magnitudes, the same products of the tables' absolute values: the
    scale of the dot products' rounding errors.
    """
    factors = np.stack([_reference_table(x / sigma, order) for x in ds.sites])
    if magnitudes:
        factors = np.abs(factors)
    gram = np.einsum("ick,jck->ijc", factors, factors).prod(axis=2)
    gram = 0.5 * (gram + gram.T)
    np.fill_diagonal(gram, 1.0)
    return gram / ds.m


def test_amplitude_profile_small_case():
    """ratio 1, four levels: unnormalized weights 1, 1, 1/sqrt(2), 1/sqrt(6)."""
    st = coherent.coherent_state(1.0, 1.0, 4)
    raw = np.array([1.0, 1.0, 1.0 / math.sqrt(2.0), 1.0 / math.sqrt(6.0)])
    assert np.allclose(st, raw / np.linalg.norm(raw), rtol=1e-14)
    assert np.isclose(np.linalg.norm(st), 1.0, rtol=1e-14)


@pytest.mark.parametrize("order", [1, 2, 7, 300])
def test_amplitude_table_rows_equal_single_coordinate_states(order):
    """Each row of the reference table is bit for bit the state of its coordinate alone,
    as _reference_amplitudes and coherent_state compute it."""
    rng = np.random.default_rng(order)
    for d in (1, 2, 3):
        sites = rng.permuted(np.tile(EDGE_RATIOS, (d, 1)), axis=1).T  # every ratio per column
        for c in range(d):
            table = _reference_table(sites[:, c], order)
            assert table.shape == (len(sites), order)
            want = np.stack([_reference_amplitudes(float(r), order) for r in sites[:, c]])
            states = np.stack([coherent.coherent_state(float(r), 1.0, order) for r in sites[:, c]])
            assert np.array_equal(table, want)
            assert np.array_equal(states, want)
        for x in sites:
            factors = _reference_table(x, order)
            assert np.array_equal(factors, np.stack([_reference_amplitudes(r, order) for r in x]))


@pytest.mark.parametrize("order", [1, 2, 3, 17, 64, 339, 1161, 3300])
def test_batched_row_norms_equal_one_dimensional_norms(order):
    """The reference table's rows, normalised in one batched product, are bit for bit
    coherent_state's, each normalised by its 1-D norm.

    The grid runs over negative, zero and positive ratios up to
    (r/sigma)^2 of about 3200.
    """
    rng = np.random.default_rng(order)
    grid = np.linspace(-56.6, 56.6, 67)  # passes through 0.0
    ratios = np.concatenate([grid, rng.uniform(-56.6, 56.6, 33), [0.0, -1e-300, 1e-300]])
    assert 0.0 in grid
    table = _reference_table(ratios, order)
    want = np.stack([coherent.coherent_state(float(r), 1.0, order) for r in ratios])
    assert np.array_equal(table, want)


def test_truncations_share_prefixes():
    """Log-space evaluation keeps short and long truncations consistent.

    The two normalisations differ, so each prefix is scaled by its value
    at the short state's largest amplitude.
    """
    for ratio in (0.0, 0.3, 1.0, 2.7, 30.0, 57.0):
        short = coherent.coherent_state(ratio, 1.0, 6)
        long = coherent.coherent_state(ratio, 1.0, 12)
        kmax = np.argmax(np.abs(short))
        assert np.allclose(short / short[kmax], long[:6] / long[kmax], rtol=5e-15, atol=0.0)


def test_negative_displacement_alternates_sign():
    signs = np.sign(coherent.coherent_state(-1.0, 1.0, 5))
    assert np.array_equal(signs, [1.0, -1.0, 1.0, -1.0, 1.0])


def test_sigma_only_enters_through_the_ratio():
    a = coherent.coherent_state(0.8, 2.0, 7)
    b = coherent.coherent_state(0.4, 1.0, 7)
    assert np.array_equal(a, b)


def test_truncation_bound_formula_and_monotonicity():
    # delta = sqrt(2 ratio^(2N) / N!)
    want = math.sqrt(2.0 * 1.0 / math.factorial(10))
    assert np.isclose(coherent.truncation_bound(1.0, 1.0, 10), want, rtol=1e-12)
    bounds = [coherent.truncation_bound(0.9, 1.0, n) for n in range(2, 25)]
    assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))
    assert coherent.truncation_bound(0.0, 1.0, 5) == 0.0


def test_min_order_reference_point():
    # smallest N with sqrt(2/N!) <= 7.5e-4 at ratio 1 is N = 10
    assert coherent.min_order(1.0, 7.5e-4) == 10
    n = coherent.min_order(2.0, 1e-6)
    assert coherent.truncation_bound(2.0, 1.0, n) <= 1e-6
    assert coherent.truncation_bound(2.0, 1.0, n - 1) > 1e-6


def test_min_order_searches_past_bounds_beyond_the_float_range():
    # at ratio 38 or more the bound at order ceil(ratio^2) exceeds the
    # float range; it reads inf and the search goes on
    assert coherent.truncation_bound(57.0, 1.0, 57 * 57) == math.inf
    n = coherent.min_order(57.0, 1e-16)
    assert coherent.truncation_bound(57.0, 1.0, n) <= 1e-16
    assert coherent.truncation_bound(57.0, 1.0, n - 1) > 1e-16
    n = coherent.min_order(38.0, 1e-12)
    assert coherent.truncation_bound(38.0, 1.0, n) <= 1e-12
    # orders whose bounds stay in range are unchanged
    assert coherent.min_order(20.0, 1e-12) == 1138
    assert coherent.min_order(26.0, 1e-12) == 1889


def _scanned_min_order(ratio_max: float, delta: float) -> int:
    """min_order by a linear scan from ceil(ratio_max^2), one bound per order."""
    ratio_max = abs(ratio_max)
    order = max(1, math.ceil(ratio_max * ratio_max))
    while coherent.truncation_bound(ratio_max, 1.0, order) > delta:
        order += 1
        if order > 100_000:
            raise RuntimeError("truncation order search did not terminate")
    return order


def test_min_order_bisection_equals_the_linear_scan(monkeypatch):
    """Same order on a grid of ratios and delta, bounds past the float range included,
    in far fewer bound evaluations; past order 100000 both refuse."""
    calls = []
    bound = coherent.truncation_bound
    ratios = (0.0, 1e-3, 0.3, 1.0, 2.0, 5.5, 10.0, 19.97, 20.0, 38.0, 40.0, 56.8, 57.0, 100.0)
    deltas = (0.9, 1e-1, 1e-4, 1e-8, 1e-12, 1e-16, 1e-30, 1e-100, 1e-300, 5e-324)
    for ratio in ratios:
        for delta in deltas:
            want = _scanned_min_order(ratio, delta)
            monkeypatch.setattr(coherent, "truncation_bound",
                                lambda *a: calls.append(a) or bound(*a))
            assert coherent.min_order(ratio, delta) == want, (ratio, delta)
            monkeypatch.undo()
    assert len(calls) < 40 * len(ratios) * len(deltas)
    assert coherent.min_order(10.0, 1e-20) > 300  # the global-gram regime
    for ratio in (316.0, 317.0):  # ratio^2 within 144 of the cap, and past it
        with pytest.raises(RuntimeError, match="did not terminate"):
            _scanned_min_order(ratio, 1e-16)
        with pytest.raises(RuntimeError, match="did not terminate"):
            coherent.min_order(ratio, 1e-16)


def test_truncation_bound_dominates_measured_tail():
    """The bound sits above the L2 distance to the full state, measured on the states
    themselves, and truncation_error gives that distance to within its rounding.

    The order-220 state stands in for the exact one (its own error is below
    1e-150 here).  Each of its amplitudes, and of the padded truncation,
    is within 2 u of itself, so the measured distance is within 4 u of the
    true one; truncation_error is within 1e-13 of itself (see the decimal
    test below).
    """
    ref_order = 220
    u = 2.0**-53
    for ratio in (0.25, 0.75, 1.5):
        ref = coherent.coherent_state(ratio, 1.0, ref_order)
        for order in range(2, 20):
            padded = np.zeros(ref_order)
            padded[:order] = coherent.coherent_state(ratio, 1.0, order)
            measured = np.linalg.norm(padded - ref)
            error = coherent.truncation_error(ratio, 1.0, order)
            assert measured <= coherent.truncation_bound(ratio, 1.0, order) + 1e-15
            assert abs(measured - error) <= 4 * u + 1e-13 * error, (ratio, order)


def _decimal_truncation_error(ratio: float, order: int) -> Decimal:
    """||psi_N - psi|| = sqrt(2 P / (1 + sqrt(Q))) at 60 digits, for the float ratio taken exactly.

    Q = e^-x e_N(x) and P = e^-x (e^x - e_N(x)), x = ratio^2, are the head
    and the tail of the exponential series, each a sum of positive terms,
    so neither cancels; the tail is summed until its terms fall below
    1e-70 of it.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        x = Decimal(ratio) ** 2
        head, term = Decimal(0), Decimal(1)
        for k in range(1, order + 1):
            head += term
            term = term * x / k
        tail, k = Decimal(0), order
        while term > tail * Decimal("1e-70") or k < x:
            tail += term
            k += 1
            term = term * x / k
        scale = (-x).exp()
        return (2 * tail * scale / (1 + (head * scale).sqrt())).sqrt()


def test_truncation_error_matches_a_decimal_reference():
    """Within 1e-13 relative of the 60-digit distance, on the truncation suite's grid and
    past it, from errors of 1e-150 to sqrt(2).

    The rounding is that of scipy's gammainc and gammaincc: the expression
    adds a few u, and the square root halves their relative error.  On
    this grid they err by up to 220 u relative (ratio 0.25, order 56), and
    1e-13 is 450 u.  Below 1e-150, P(N, x) is subnormal and keeps fewer
    bits, so the grid stops there.  At ratio 10, order 29, P rounds to 1:
    the form -2 expm1(log1p(-P) / 2) reads sqrt(2) there, 2e-9 relative
    off, where 2 P / (1 + sqrt(Q)) keeps every digit.
    """
    ratios = (0.0, 1e-3, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, -2.0, 3.0, 4.5, 6.0, 10.0)
    for ratio in ratios:
        got = coherent.truncation_error(np.array([ratio]), 1.0, 29)
        assert got.shape == (1,)
        for order in range(1, 61):
            want = _decimal_truncation_error(ratio, order)
            error = coherent.truncation_error(ratio, 1.0, order)
            if order == 29:
                assert got[0] == error
            if want == 0:
                assert error == 0.0
            elif want > Decimal("1e-150"):
                assert abs(Decimal(error) - want) <= Decimal("1e-13") * want, (ratio, order)
    assert coherent.truncation_error(2.0, 0.5, 7) == coherent.truncation_error(4.0, 1.0, 7)
    with pytest.raises(ValueError, match="at least 1"):
        coherent.truncation_error(1.0, 1.0, 0)


def test_coherent_inner_converges_to_gaussian_overlap():
    """<psi_x|psi_z> -> exp(-||x-z||^2 / (2 sigma^2)) as the cutoff grows."""
    x = np.array([0.5, -0.3])
    z = np.array([0.1, 0.2])
    sigma = 1.0
    want = math.exp(-np.sum((x - z) ** 2) / (2.0 * sigma**2))
    # a product-state overlap is the product of its per-coordinate overlaps
    fx = np.stack([coherent.coherent_state(v, sigma, 60) for v in x])
    fz = np.stack([coherent.coherent_state(v, sigma, 60) for v in z])
    got = np.prod(np.sum(fx * fz, axis=1))
    assert np.isclose(got, want, rtol=1e-13)


def test_gram_coherent_matches_exact_matrix():
    rng = np.random.default_rng(2)
    sites = rng.uniform(-1.0, 1.0, size=(6, 2))
    ds = DataSet(sites, rng.standard_normal(6))
    sigma = 0.8
    approx = coherent.gram_coherent(ds, sigma, 40)
    exact = assemble(ds, gaussian(sigma=sigma), normalized=True)
    assert approx.normalized
    assert np.allclose(approx.data, exact.data, atol=1e-13)
    G = approx.data
    assert np.array_equal(G, G.T)
    assert np.allclose(np.diag(G), 1.0 / ds.m, rtol=1e-15)


@pytest.mark.parametrize(
    "m, d, lo, sigma, order",
    [
        (9, 1, -1.0, 0.8, 30),
        (12, 2, -1.0, 0.9, 25),
        (7, 3, -0.8, 1.1, 18),
        (48, 2, 0.0, 0.05, 1164),  # unit box at the global-gram width and order
    ],
)
def test_gram_coherent_matches_einsum_reference(m, d, lo, sigma, order):
    """The closed form agrees with the amplitude tables' products entry by entry.

    Per entry, |G - R| <= (d + 3)(1 + x) u |R| + d gamma_N R_abs, with x =
    ||a_i - a_j||^2 / 2: the closed form's exponent x is rounded in d + 2
    operations and exp multiplies a relative error in x by x, one more u
    covers exp and the factors; the reference's N-term dot products err by
    gamma_N = N u / (1 - N u) of the products of the tables' magnitudes,
    R_abs (Higham, Accuracy and Stability of Numerical Algorithms, 3.1).
    Entries as small as 1e-65 are compared, so the bound is relative.
    """
    rng = np.random.default_rng(m * d)
    ds = DataSet(rng.uniform(lo, 1.0, size=(m, d)), rng.standard_normal(m))
    G = coherent.gram_coherent(ds, sigma, order).data
    want = _reference_gram(ds, sigma, order)
    u = 2.0**-53
    a = ds.sites / sigma
    x = 0.5 * np.sum((a[:, None, :] - a[None, :, :]) ** 2, axis=2)
    gamma = order * u / (1.0 - order * u)
    magnitudes = _reference_gram(ds, sigma, order, magnitudes=True)
    bound = (d + 3) * (1.0 + x) * u * np.abs(want) + d * gamma * magnitudes
    assert np.all(np.abs(G - want) <= bound)
    assert np.array_equal(G, G.T)
    assert np.array_equal(np.diag(G), np.full(m, 1.0 / m))


def _partial_exp(t: Decimal, order: int) -> Decimal:
    """e_N(t) = sum_{k<N} t^k / k!, term by term in the current decimal context."""
    total, term = Decimal(0), Decimal(1)
    for k in range(1, order + 1):
        total += term
        term = term * t / k
    return total


def _decimal_entries(ratios: np.ndarray, order: int, pairs, magnitudes: bool = False) -> list:
    """Gram entries prod_c e_N(a_ic a_jc) / sqrt(e_N(a_ic^2) e_N(a_jc^2)) / m at 60 digits.

    The ratios are the float64 values the build reads, taken exactly.  An
    alternating sum (a_ic a_jc < 0) rounds each of its N terms by 1e-60 of
    the largest, at most e^{|a_ic a_jc|} <= e^{(a_ic^2 + a_jc^2) / 2}, and
    the denominator is at least that over 2 where every a^2 <= N, so its
    rounding moves an entry by under 1e-55: far below u / m.  Below max
    a^2 the denominator is at least 1, and at the ratios up to 6 the tests
    use a term is at most e^36, so the rounding stays under 1e-44.  With
    magnitudes, e_N(|a_ic a_jc|) replaces e_N(a_ic a_jc): the sum of the
    terms' magnitudes, at most 1 / m by Cauchy-Schwarz.
    """
    m = len(ratios)
    with localcontext() as ctx:
        ctx.prec = 60
        sq = {}

        def norm(i, c):
            if (i, c) not in sq:
                sq[i, c] = _partial_exp(Decimal(ratios[i, c]) ** 2, order).sqrt()
            return sq[i, c]

        out = []
        for i, j in pairs:
            entry = Decimal(1) / m
            for c in range(ratios.shape[1]):
                t = Decimal(ratios[i, c]) * Decimal(ratios[j, c])
                entry *= _partial_exp(abs(t) if magnitudes else t, order) / (norm(i, c) * norm(j, c))
            out.append(entry)
        return out


def _sampled_pairs(ratios: np.ndarray, seed: int) -> list:
    """Pairs of each coordinate's most negative product, of its largest
    opposite-signed ratios, of the largest-ratio rows, and near neighbours."""
    m, d = ratios.shape
    pairs = set()
    for c in range(d):
        high, low = np.argsort(ratios[:, c])[[-1, -2]], np.argsort(ratios[:, c])[[0, 1]]
        pairs.update((int(i), int(j)) for i in high for j in low)
    big = np.argsort(-np.max(np.abs(ratios), axis=1))[:3]
    pairs.update((int(i), int(j)) for i in big for j in big if i < j)
    rng = np.random.default_rng(seed)
    for i in rng.choice(m, 4, replace=False):
        near = np.argsort(np.sum((ratios - ratios[i]) ** 2, axis=1))[1:3]
        pairs.update((int(i), int(j)) for j in near)
    return sorted(pairs)


@pytest.mark.parametrize("m, sigma, order, centre", [
    (512, 0.05, 339, True),  # the global-gram config at seed 0
    (256, 0.025, 1149, True),
    (256, 0.0088, None, True),  # (r/sigma)^2 ~ 3200, order from min_order at delta 1e-16
    (256, 0.05, 400, False),  # ratios up to 20 at order 400: rows with Q(N, a^2) < 1
])
def test_gram_coherent_entries_match_a_60_digit_reference(m, sigma, order, centre):
    """Sampled entries lie within 8 u / m of the exact overlaps of the truncated states.

    8 u / m bounds the closed form's rounding where every a^2 <= N: the
    exponent x = ||a_i - a_j||^2 / 2 is rounded in d + 2 = 4 operations,
    which exp turns into at most 4 u x e^-x <= 4 u / e of the entry's
    scale 1 / m; exp, each factor's log and the division by m add about
    u each.  The table products this build replaced erred by up to N u / m.
    """
    ds = gen_data(m, 2, [0.0, 1.0], seed=0)
    if centre:
        ds = coherent.centred(ds)
    ratios = ds.sites / sigma
    if order is None:
        order = coherent.min_order(coherent.max_ratio(ds.sites, sigma), 1e-16)
    assert np.max(ratios * ratios) <= order  # the closed form's range
    G = coherent.gram_coherent(ds, sigma, order).data
    pairs = _sampled_pairs(ratios, seed=m)
    want = _decimal_entries(ratios, order, pairs)
    u = 2.0**-53
    for (i, j), ref in zip(pairs, want):
        assert abs(Decimal(G[i, j]) - ref) <= Decimal(8.0 * u / m), (i, j)
    rows = sorted({i for pair in pairs for i in pair})
    if centre:  # the most negative products, where the remainder factor acts
        products = ratios[:, None, 0] * ratios[None, :, 0]
        assert np.unravel_index(np.argmin(products), products.shape) in pairs
    else:
        assert np.min(gammaincc(order, ratios[rows] ** 2)) < 0.6


def _log_term_sizes(ratios: np.ndarray, order: int) -> np.ndarray:
    """S_ij: the sum of the magnitudes of the terms the closed form adds into entry (i, j)'s log.

    Per coordinate: (a_i - a_j)^2 / 2, |ln Q(N, a_i^2)| / 2, |ln Q(N, a_j^2)| / 2,
    and the factor of t = a_i a_j: |ln Q(N, t)| for t >= 0, and for t < 0
    the four terms of its remainder's log, N |ln|t||, ln N!,
    |ln 1F1(1; N + 1; t)| and |t| (coherent._log_factors).
    """
    total = np.zeros((len(ratios), len(ratios)))
    for a in ratios.T:
        log_q = np.abs(np.log(gammaincc(order, a * a)))
        total += 0.5 * np.subtract.outer(a, a) ** 2 + 0.5 * np.add.outer(log_q, log_q)
        t = np.multiply.outer(a, a)
        s = np.maximum(-t, 1e-300)  # the remainder's terms, read only where t < 0
        remainder = (order * np.abs(np.log(s)) + gammaln(order + 1.0)
                     + np.abs(np.log(hyp1f1(1.0, order + 1.0, -s))) + s)
        total += np.where(t >= 0.0, np.abs(np.log(gammaincc(order, np.abs(t)))), remainder)
    return total


def _low_order_cases(kind: str) -> list:
    """(dataset, sigma, orders) triples whose orders lie below max (coordinate/sigma)^2.

    grid-d: ratios at 0, +-0.3, +-1, +-sqrt(2), +-sqrt(3) and +-2 at orders
    1 to 3, where e_N(a b) crosses 0 between opposite-signed ratios near
    +-sqrt(N) (e_2(-1) = 0, e_2(-2) = -1).  suite: 30 datasets like the
    perturbation suite's (m 4-8, d 1-3, sigma 0.3-0.8, raw and centred
    sites) at every order from 1 to ceil(max a^2).  wide-d: 8 ratios in
    (-6, 6) at every order from 1 to 36.
    """
    if kind.startswith("grid"):
        d = int(kind[-1])
        roots = [0.3, 1.0, math.sqrt(2.0), math.sqrt(3.0), 2.0]
        grid = np.array([0.0, *roots, *(-r for r in roots)])
        rng = np.random.default_rng(d)
        sites = rng.permuted(np.tile(grid, (d, 1)), axis=1).T
        return [(DataSet(sites, rng.standard_normal(len(grid))), 1.0, range(1, 4))]
    if kind.startswith("wide"):
        rng = np.random.default_rng(10 + int(kind[-1]))
        ds = DataSet(rng.uniform(-6.0, 6.0, size=(8, int(kind[-1]))), rng.standard_normal(8))
        return [(ds, 1.0, range(1, 37))]
    rng = np.random.default_rng(0)
    cases = []
    for case in range(30):
        m, d, sigma = int(rng.integers(4, 9)), int(rng.integers(1, 4)), float(rng.uniform(0.3, 0.8))
        ds = gen_data(m, d, [0.0, 1.0], int(rng.integers(2**31)), "franke")
        ds = coherent.centred(ds) if case % 2 else ds
        top = float(np.max((ds.sites / sigma) ** 2))
        cases.append((ds, sigma, range(1, math.ceil(top) + 1)))
    return cases


@pytest.mark.parametrize("kind", ["grid-1", "grid-2", "grid-3", "suite", "wide-1", "wide-2"])
def test_gram_coherent_below_max_a2_matches_a_60_digit_reference(kind):
    """Every entry at orders below max a^2 lies within 16 u (1 + S_ij) A_ij of the exact
    overlap of the truncated states.

    Below max a^2 the truncation factors are far from 1, and their logs
    cancel part of the pair exponent.  Each term of the entry's log is
    rounded by a few u of its own size, so the log errs by a few u times
    S_ij, the sum of the terms' magnitudes (_log_term_sizes), and exp
    carries that into the entry's relative error.  The scale A_ij is the
    entry with every series term taken by magnitude, prod_c
    e_N(|a_ic a_jc|) / sqrt(e_N(a_ic^2) e_N(a_jc^2)) / m <= 1 / m: it
    bounds the entry, and also the remainder e^-t R_N(t) whose log is
    rounded where t < 0, to within a factor 2.  The 1 covers the final
    exp and the division by m.  c = 16 allows up to 4 u per special
    function, 1 u for its log and 1 u for adding it in, doubled for the
    remainder.  Measured: up to 3.4 on the suite-like datasets (16.5 u / m
    of the largest entry), 1.4 on the grids and 11.2 on ratios up to 6
    (128 u / m), where the amplitude tables' dot products err by 5 u / m.
    """
    u = 2.0**-53
    below = 0
    for ds, sigma, orders in _low_order_cases(kind):
        ratios = ds.sites / sigma
        pairs = [(i, j) for i in range(ds.m) for j in range(ds.m)]
        below += sum(order < np.max(ratios * ratios) for order in orders)
        for order, gram in zip(orders, coherent.grams_by_order(ds, sigma, orders)):
            want = np.array(_decimal_entries(ratios, order, pairs), dtype=float).reshape(ds.m, -1)
            scale = np.array(_decimal_entries(ratios, order, pairs, magnitudes=True), dtype=float)
            bound = 16 * u * (1.0 + _log_term_sizes(ratios, order)) * scale.reshape(ds.m, -1)
            assert np.all(np.abs(gram.data - want) <= bound), (kind, order)
            if kind.startswith("grid") and order == 2:  # opposite-signed pairs at +-1, +-sqrt(2)
                assert np.min(want) < 0.0 and np.min(np.abs(want)) == 0.0
    assert below


@pytest.mark.parametrize("d", [1, 2, 3])
def test_closed_form_matches_tables_at_low_orders_with_every_sign(d):
    """Every order from ceil(max a^2) to 39 on ratios of both signs, factors far from 1 included.

    At ratios near +-sqrt(N) an even order makes e_N(ab) negative, so the
    remainder factor flips signs (e_4(-4) = -17/3).  The bound is the
    reference's d gamma_N of the magnitudes' products plus 16 u / m for
    the closed form, whose factors far from 1 cancel part of its exponent.
    """
    rng = np.random.default_rng(d)
    grid = np.array([-2.0, -1.9, -1.0, -0.3, 0.0, 0.4, 1.2, 1.95, 2.0])
    sites = rng.permuted(np.tile(grid, (d, 1)), axis=1).T
    ds = DataSet(sites, rng.standard_normal(len(grid)))
    u = 2.0**-53
    signs = set()
    for order, G in zip(range(4, 40), coherent.grams_by_order(ds, 1.0, range(4, 40))):
        G = G.data
        want = _reference_gram(ds, 1.0, order)
        gamma = order * u / (1.0 - order * u)
        bound = d * gamma * _reference_gram(ds, 1.0, order, magnitudes=True) + 16 * u / ds.m
        assert np.all(np.abs(G - want) <= bound), order
        assert np.array_equal(G, G.T)
        assert np.array_equal(np.diag(G), np.full(ds.m, 1.0 / ds.m))
        signs.update(np.sign(G[G != 0.0]).tolist())
    assert signs == {-1.0, 1.0}


def test_factor_blocks_give_the_one_call_gram(monkeypatch):
    """Factors taken per coordinate on the rows that reach the cut, as on large problems,
    agree with all factors in one call to within the 2^-54 the cut allows per factor."""
    ds = _every_ratio_sign(3)
    for order in (3, 4, 9, 20, 39):
        stacked = coherent.gram_coherent(ds, 0.6, order).data
        monkeypatch.setattr(coherent, "_STACKED_MAX", 0)
        blocks = coherent.gram_coherent(ds, 0.6, order).data
        monkeypatch.undo()
        assert np.array_equal(blocks, blocks.T)
        np.testing.assert_allclose(blocks, stacked, rtol=8 * 2.0**-53, atol=0.0)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 7, 20, 39, 64, 339, 1149, 4405])
def test_factor_cut_is_conservative(order):
    """Just below the cut every factor is within 2^-54 of 1; well above it some is not."""
    cut = coherent._factor_cut(order)
    t = np.array([-0.999 * cut, 0.999 * cut, -0.5 * cut, 0.5 * cut])
    log_f, _ = coherent._log_factors(order, t, t < 0)
    assert np.all(np.abs(log_f) <= 2.0**-54)
    if order <= 1149:  # where the remainder is formed at one scale
        t = np.array([-4.0 * cut])
        assert np.abs(coherent._log_factors(order, t, t < 0)[0][0]) > 2.0**-54


def _every_ratio_sign(d: int) -> DataSet:
    """Nine sites whose centred coordinates are negative, positive and exactly 0.0."""
    rng = np.random.default_rng(d)
    grid = np.linspace(-0.7, 1.3, 9)  # midpoint 0.3 is a grid value
    sites = rng.permuted(np.tile(grid, (d, 1)), axis=1).T
    return coherent.centred(DataSet(sites, rng.standard_normal(9)))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kind", ["raw", "centred"])
def test_grams_by_order_equal_gram_coherent_at_every_order(kind, d):
    """One pair exponent gives every order's Gram bit for bit, orders 3 to 39.

    raw: positive ratios only, up to a^2 = 4, so order 3 lies below max
    a^2.  centred: negative, positive and zero ratios, so remainder
    factors and sign flips run.
    """
    if kind == "raw":
        ds, sigma = gen_data(7, d, [0.0, 1.0], seed=d), 0.5
    else:
        ds, sigma = _every_ratio_sign(d), 0.6
        assert {-1.0, 0.0, 1.0} <= set(np.sign(ds.sites).ravel().tolist())
    orders = range(3, 40)
    grams = list(coherent.grams_by_order(ds, sigma, orders))
    assert len(grams) == len(orders)
    for order, gram in zip(orders, grams):
        want = coherent.gram_coherent(ds, sigma, order)
        assert np.array_equal(gram.data, want.data), order
        assert (gram.normalized, gram.sparsity) == (want.normalized, want.sparsity)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_a_gram_whose_q_underflows_is_refused_naming_the_order(d):
    """Where Q(N, max a^2) leaves the normal range, ln Q would be -inf (a NaN Gram) or keep
    a subnormal's few bits: the build refuses, naming the order, max a^2 and min_order.

    At sigma = 1e-9 (ratios near 1e9) every order is refused.  At max a^2
    = 750 the first order whose Q(N, 750) is normal builds finite entries,
    and the order below it is refused.
    """
    ds = gen_data(6, d, [0.0, 1.0], seed=d)
    top = float(np.max((ds.sites / 1e-9) ** 2))
    for order in (3, 39):
        with pytest.raises(ValueError) as info:
            coherent.gram_coherent(ds, 1e-9, order)
        for part in (f"truncation order {order} ", f"= {top:.6g}:", "coherent.min_order"):
            assert part in str(info.value)
    with pytest.raises(ValueError, match="truncation order 3 is too low"):
        next(coherent.grams_by_order(ds, 1e-9, range(3, 40)))
    sigma = float(np.max(np.abs(ds.sites))) / math.sqrt(750.0)
    top = float(np.max((ds.sites / sigma) ** 2))
    first = next(n for n in range(1, 100) if gammaincc(n, top) >= np.finfo(float).tiny)
    assert first > 1
    assert np.all(np.isfinite(coherent.gram_coherent(ds, sigma, first).data))
    with pytest.raises(ValueError, match=f"truncation order {first - 1} is too low"):
        coherent.gram_coherent(ds, sigma, first - 1)


def test_grams_by_order_builds_no_gram_past_the_one_taken(monkeypatch):
    """A search that stops at an order builds no Gram after it."""
    finished = []
    closed_form = coherent._closed_form

    def recorded_closed_form(terms, order, last):
        finished.append(order)
        return closed_form(terms, order, last)

    monkeypatch.setattr(coherent, "_closed_form", recorded_closed_form)
    ds = gen_data(5, 2, [0.0, 1.0], seed=3)
    assert 3 < np.max((ds.sites / 0.43) ** 2) <= 4  # order 3 lies below max a^2, 4 above it
    for _ in coherent.grams_by_order(ds, 0.43, range(3, 40)):
        if len(finished) == 4:
            break
    assert finished == [3, 4, 5, 6]


def test_gram_report_bounds_hold():
    rng = np.random.default_rng(4)
    for trial in range(5):
        r = np.random.default_rng(50 + trial)
        m, d = int(r.integers(3, 8)), int(r.integers(1, 4))
        ds = DataSet(r.uniform(-1, 1, size=(m, d)), r.standard_normal(m))
        rep = coherent.gram_report(ds, sigma=0.7, order=int(r.integers(5, 12)))
        assert rep.entry_max_error <= rep.entry_bound
        assert rep.frobenius_error <= rep.frobenius_bound
        assert rep.entry_bound == 2.0 * d * rep.delta / m
        assert rep.frobenius_bound == 2.0 * d * rep.delta


def _superposition_gram(ds: DataSet, sigma: float, order: int) -> np.ndarray:
    """Reduced state of |Psi> = m^{-1/2} sum_j |j>|psi_j> on the site register.

    Each |psi_j> is the order^d Kronecker product of its coordinate
    states; tracing out the encoding register of |Psi><Psi| leaves the
    m x m matrix of overlaps <psi_i|psi_j> / m.
    """
    psi = np.stack([functools.reduce(np.kron, [coherent.coherent_state(v, sigma, order) for v in x])
                    for x in ds.sites])
    psi /= math.sqrt(ds.m)
    return psi @ psi.T


def test_superposition_reduction_reproduces_gram():
    """Tracing the encoding register of the global state gives the Gram matrix."""
    rng = np.random.default_rng(9)
    ds = DataSet(rng.uniform(-0.8, 0.8, size=(4, 2)), rng.standard_normal(4))
    reduced = _superposition_gram(ds, sigma=0.9, order=5)
    direct = coherent.gram_coherent(ds, 0.9, 5).data
    assert np.max(np.abs(reduced - direct)) <= 1e-12
    assert np.isclose(np.trace(reduced), 1.0, atol=1e-12)


def _displacement_state(r: float, sigma: float, order: int) -> np.ndarray:
    """Coordinate encoding built by exponentiating the displacement generator.

    Applies exp(ratio * (a_dag - a)) to the ground state in an
    order-dimensional truncation, an independent route to coherent_state.
    """
    ratio = r / sigma
    k = np.arange(1, order)
    a = np.zeros((order, order))
    a[k - 1, k] = np.sqrt(k)
    e0 = np.zeros(order)
    e0[0] = 1.0
    return expm(ratio * (a.T - a)) @ e0


def test_displacement_operator_cross_check():
    """Truncated amplitudes agree with expm of the displacement generator."""
    order = 30
    for r in (0.3, 1.0, 1.7):
        direct = coherent.coherent_state(r, 1.0, order)
        matrix = _displacement_state(r, 1.0, order)
        assert np.max(np.abs(direct - matrix)) <= 1e-8


def test_coherent_state_is_a_unit_vector_past_the_float_range_of_its_norm():
    """exp(57^2) overflows float64; the amplitudes never form it."""
    for order in (10, 3249, 4000):
        st = coherent.coherent_state(57.0, 1.0, order)
        assert np.isclose(np.linalg.norm(st), 1.0, rtol=1e-14)


@pytest.mark.parametrize("m, d", [(256, 2), (64, 3)])
@pytest.mark.parametrize("sigma", [0.05, 0.03, 0.015, 0.0088])  # (r/sigma)^2 ~ 100 to 3200
def test_gram_coherent_accuracy_at_large_ratios(m, d, sigma):
    """Every entry lies within (2 d delta + d gamma_N + u) / m of the exact matrix.

    2 d delta is the truncation bound; gamma_N = N u / (1 - N u) bounds the
    rounding of each N-term dot product of unit vectors (Higham, Accuracy
    and Stability of Numerical Algorithms, section 3.1), one per
    coordinate; u covers the rounding of the exact entry.
    """
    ds = coherent.centred(gen_data(m, d, [0.0, 1.0], seed=0))
    delta = 1e-16
    order = coherent.min_order(coherent.max_ratio(ds.sites, sigma), delta)
    u = 2.0**-53
    gamma = order * u / (1.0 - order * u)
    bound = (2 * d * delta + d * gamma + u) / m
    approx = coherent.gram_coherent(ds, sigma, order).data
    exact = assemble(ds, gaussian(sigma=sigma), normalized=True).data
    assert np.max(np.abs(approx - exact)) <= bound
