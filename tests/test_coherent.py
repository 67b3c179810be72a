"""Tests for truncated coherent encodings and the Gram matrix they induce."""

import functools
import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import gammaln

from qrbf import coherent
from qrbf.harness import gen_data
from qrbf.interpolation import DataSet, assemble
from qrbf.kernels import gaussian

# one ratio of each kind: zero, negative, positive, and (r/sigma)^2 of about
# 700 and of 3249, where exp((r/sigma)^2) is past the float64 range
EDGE_RATIOS = (0.0, -0.3, -2.2, -26.45, -57.0, 0.4, 1.0, 7.9, 26.45, 57.0)


def _reference_amplitudes(ratio: float, order: int) -> np.ndarray:
    """One coordinate's amplitude vector, computed on its own."""
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


def _reference_gram(ds: DataSet, sigma: float, order: int) -> np.ndarray:
    """Gram matrix from all per-coordinate overlaps at once, via einsum."""
    factors = np.stack([coherent._amplitudes(x / sigma, order) for x in ds.sites])
    gram = np.einsum("ick,jck->ijc", factors, factors).prod(axis=2)
    gram = 0.5 * (gram + gram.T)
    np.fill_diagonal(gram, 1.0)
    return gram / ds.m


def test_amplitude_profile_small_case():
    """ratio 1, four levels: unnormalized weights 1, 1, 1/sqrt(2), 1/sqrt(6)."""
    st = coherent.coherent_state(1.0, 1.0, 4)
    raw = np.array([1.0, 1.0, 1.0 / math.sqrt(2.0), 1.0 / math.sqrt(6.0)])
    assert np.allclose(st.amplitudes, raw / np.linalg.norm(raw), rtol=1e-14)
    assert np.isclose(np.linalg.norm(st.amplitudes), 1.0, rtol=1e-14)


@pytest.mark.parametrize("order", [1, 2, 7, 300])
def test_amplitude_table_rows_equal_single_coordinate_states(order):
    """Each table row is bit for bit the state of its coordinate alone."""
    rng = np.random.default_rng(order)
    for d in (1, 2, 3):
        sites = rng.permuted(np.tile(EDGE_RATIOS, (d, 1)), axis=1).T  # every ratio per column
        for c in range(d):
            table = coherent._amplitudes(sites[:, c], order)
            assert table.shape == (len(sites), order)
            want = np.stack([_reference_amplitudes(float(r), order) for r in sites[:, c]])
            states = np.stack(
                [coherent.coherent_state(float(r), 1.0, order).amplitudes for r in sites[:, c]]
            )
            assert np.array_equal(table, want)
            assert np.array_equal(states, want)
        for x in sites:
            factors = coherent._amplitudes(x, order)
            assert np.array_equal(factors, np.stack([_reference_amplitudes(r, order) for r in x]))


@pytest.mark.parametrize("order", [1, 2, 3, 17, 64, 339, 1161, 3300])
def test_batched_row_norms_equal_one_dimensional_norms(order):
    """Rows are normalised in one batched product, bit for bit as by a 1-D norm each.

    The grid runs over negative, zero and positive ratios up to
    (r/sigma)^2 of about 3200.
    """
    rng = np.random.default_rng(order)
    grid = np.linspace(-56.6, 56.6, 67)  # passes through 0.0
    ratios = np.concatenate([grid, rng.uniform(-56.6, 56.6, 33), [0.0, -1e-300, 1e-300]])
    assert 0.0 in grid
    table = coherent._amplitudes(ratios, order)
    want = np.stack([_reference_amplitudes(float(r), order) for r in ratios])
    assert np.array_equal(table, want)


def _unguarded_amplitudes(ratios, order: int) -> np.ndarray:
    """coherent._amplitudes with its sign flip and zero-row fix-up always run."""
    r = np.asarray(ratios, dtype=float)
    scalar = r.ndim == 0
    r = r.reshape(-1)
    k = np.arange(order)
    log_r = np.array([math.log(abs(v)) if v != 0.0 else 0.0 for v in r.tolist()])
    table = np.multiply.outer(log_r, k)
    table -= 0.5 * gammaln(k + 1.0)
    table -= table.max(axis=1, keepdims=True)
    np.exp(table, out=table)
    table[r < 0.0, 1::2] *= -1.0
    zero = r == 0.0
    table[zero] = 0.0
    table[zero, 0] = 1.0
    table /= np.sqrt(np.matmul(table[:, None, :], table[:, :, None]))[:, 0]
    return table[0] if scalar else table


@pytest.mark.parametrize("order", [1, 2, 9, 339])
def test_amplitude_fix_ups_run_wherever_a_ratio_is_not_positive(order):
    """Skipping the fix-ups on positive ratios leaves every bit of the table."""
    rng = np.random.default_rng(order)
    positive = rng.uniform(1e-3, 30.0, 40)
    cases = [
        positive,
        positive[:1],
        np.float64(2.5),
        np.append(positive, 0.0),
        np.append(positive, -1e-300),
        -positive,
        rng.uniform(-30.0, 30.0, 40),
        np.array([np.nan, -0.5, 1.0]),
        np.array([]),
        np.float64(0.0),
        np.float64(-2.5),
    ]
    for ratios in cases:
        got = coherent._amplitudes(ratios, order)
        want = _unguarded_amplitudes(ratios, order)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_truncations_share_prefixes():
    """Log-space evaluation keeps short and long truncations consistent.

    The two normalisations differ, so each prefix is scaled by its value
    at the short state's largest amplitude.
    """
    for ratio in (0.0, 0.3, 1.0, 2.7, 30.0, 57.0):
        short = coherent.coherent_state(ratio, 1.0, 6).amplitudes
        long = coherent.coherent_state(ratio, 1.0, 12).amplitudes
        kmax = np.argmax(np.abs(short))
        assert np.allclose(short / short[kmax], long[:6] / long[kmax], rtol=5e-15, atol=0.0)


def test_negative_displacement_alternates_sign():
    st = coherent.coherent_state(-1.0, 1.0, 5)
    signs = np.sign(st.amplitudes)
    assert np.array_equal(signs, [1.0, -1.0, 1.0, -1.0, 1.0])


def test_sigma_only_enters_through_the_ratio():
    a = coherent.coherent_state(0.8, 2.0, 7)
    b = coherent.coherent_state(0.4, 1.0, 7)
    assert np.array_equal(a.amplitudes, b.amplitudes)


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


def test_truncation_bound_dominates_measured_tail():
    """The bound must sit above the actual L2 distance to the full state."""
    ref_order = 220
    for ratio in (0.25, 0.75, 1.5):
        ref = coherent.coherent_state(ratio, 1.0, ref_order).amplitudes
        for order in range(2, 20):
            st = coherent.coherent_state(ratio, 1.0, order).amplitudes
            padded = np.zeros(ref_order)
            padded[:order] = st
            measured = np.linalg.norm(padded - ref)
            assert measured <= coherent.truncation_bound(ratio, 1.0, order) + 1e-15


def test_coherent_inner_converges_to_gaussian_overlap():
    """<psi_x|psi_z> -> exp(-||x-z||^2 / (2 sigma^2)) as the cutoff grows."""
    x = np.array([0.5, -0.3])
    z = np.array([0.1, 0.2])
    sigma = 1.0
    want = math.exp(-np.sum((x - z) ** 2) / (2.0 * sigma**2))
    # a product-state overlap is the product of its per-coordinate overlaps
    fx, fz = coherent._amplitudes(x / sigma, 60), coherent._amplitudes(z / sigma, 60)
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
    """Per-coordinate BLAS products agree with the all-coordinates einsum."""
    rng = np.random.default_rng(m * d)
    ds = DataSet(rng.uniform(lo, 1.0, size=(m, d)), rng.standard_normal(m))
    G = coherent.gram_coherent(ds, sigma, order).data
    np.testing.assert_allclose(G, _reference_gram(ds, sigma, order), rtol=1e-13, atol=0.0)
    assert np.array_equal(G, G.T)
    assert np.array_equal(np.diag(G), np.full(m, 1.0 / m))


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
    psi = np.stack([functools.reduce(np.kron, coherent._amplitudes(x / sigma, order))
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
        direct = coherent.coherent_state(r, 1.0, order).amplitudes
        matrix = _displacement_state(r, 1.0, order)
        assert np.max(np.abs(direct - matrix)) <= 1e-8


def test_coherent_state_is_a_unit_vector_past_the_float_range_of_its_norm():
    """exp(57^2) overflows float64; the amplitudes never form it."""
    for order in (10, 3249, 4000):
        st = coherent.coherent_state(57.0, 1.0, order)
        assert np.isclose(np.linalg.norm(st.amplitudes), 1.0, rtol=1e-14)


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
