"""Tests for dataset handling, matrix assembly, and the classical solver."""

import math

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.sparse import csr_array

from qrbf import interpolation as interp
from qrbf import kernels


def _random_dataset(rng, m, d):
    sites = rng.uniform(-1.0, 1.0, size=(m, d))
    values = rng.standard_normal(m)
    return interp.DataSet(sites, values)


def _dense_matrix(ds, kern):
    """Dense reference for assemble: the kernel at every site-to-site distance."""
    return kern.eval(interp.pair_distance(ds.sites[:, None, :], ds.sites[None, :, :]))


def test_pair_distance_matches_norm():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((30, 3))
    b = rng.standard_normal((30, 3))
    got = interp.pair_distance(a, b)
    want = np.linalg.norm(a - b, axis=1)
    assert np.allclose(got, want, rtol=1e-15)


def test_pair_distance_batched_equals_single():
    """Batched and one-at-a-time evaluations agree bit for bit."""
    rng = np.random.default_rng(1)
    a = rng.standard_normal((12, 2))
    b = rng.standard_normal((12, 2))
    batched = interp.pair_distance(a, b)
    for i in range(12):
        single = float(interp.pair_distance(a[i], b[i]))
        assert single == batched[i]


def _reduced_distance(a, b):
    """Distance by NumPy's reduce over the last axis of the full difference array."""
    diff = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    return np.sqrt(np.add.reduce(diff * diff, axis=-1))


def _distance_calls(d):
    """The package's call shapes, then inputs of different ranks.

    In order: site matrix, query block, pair list, site column, two 1-D points.
    """
    rng = np.random.default_rng(d)
    scale = 10.0 ** rng.uniform(-3.0, 3.0, size=(1, d))
    sites = rng.standard_normal((40, d)) * scale
    sites[7] = sites[3]  # a repeated site: distance exactly 0
    points = rng.standard_normal((25, d)) * scale
    i, j = np.triu_indices(40, k=1)
    return [
        (sites[:, None, :], sites[None, :, :], (40, 40)),
        (sites[None, :, :], points[:, None, :], (25, 40)),
        (sites[i], sites[j], (len(i),)),
        (sites, points[0], (40,)),
        (sites[0], points[0], ()),
        (sites, points[:, None, :], (25, 40)),
        (points[0], sites[None, :, :], (1, 40)),
    ]


@pytest.mark.parametrize("d", range(1, 8))
def test_pair_distance_equals_numpy_reduce_bit_for_bit(d):
    """Below 8 coordinates NumPy's reduce adds in order, as pair_distance does."""
    for a, b, shape in _distance_calls(d):
        got = interp.pair_distance(a, b)
        want = _reduced_distance(a, b)
        assert np.shape(got) == shape
        assert np.array_equal(got, want)
        if shape == ():
            assert type(got) is np.float64
        else:
            assert isinstance(got, np.ndarray) and got.dtype == np.float64


@pytest.mark.parametrize("d", range(8, 12))
def test_pair_distance_is_within_4_ulp_of_pairwise_numpy_reduce(d):
    """From 8 coordinates NumPy sums pairwise; the in-order sum stays within 4 ulp."""
    for a, b, shape in _distance_calls(d):
        got = interp.pair_distance(a, b)
        want = _reduced_distance(a, b)
        assert np.shape(got) == shape
        assert np.all(np.abs(got - want) <= 4.0 * np.spacing(want))


def test_pair_distance_refuses_points_of_different_dimensions():
    with pytest.raises(ValueError, match="share a dimension"):
        interp.pair_distance(np.zeros((3, 2)), np.zeros(3))


def test_dataset_validation():
    with pytest.raises(ValueError):
        interp.DataSet(np.array([[0.0], [0.0]]), np.array([1.0, 2.0]))  # duplicate site
    with pytest.raises(ValueError):
        interp.DataSet(np.array([[0.0], [1.0]]), np.array([1.0]))  # length mismatch
    ds = interp.DataSet(np.array([[0.0, 1.0], [2.0, 0.0]]), np.array([1.0, -1.0]))
    assert ds.m == 2 and ds.d == 2
    assert np.allclose(ds.site_norms, [1.0, 2.0])


def _assert_same_bits(got, want):
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def _signed_zero_grid(rng, m, d, nan_share=0.0):
    """Rows over {-1, -0.0, 0.0, 1}, so that ties run into later columns."""
    a = rng.integers(-1, 2, size=(m, d)).astype(float)
    a[(a == 0.0) & (rng.uniform(size=a.shape) < 0.5)] = -0.0
    a[rng.uniform(size=a.shape) < nan_share] = np.nan
    return a


def test_unique_rows_equal_numpy_unique_rows():
    """Random, repeated and tied rows: np.unique(axis=0)'s rows, bit for bit."""
    rng = np.random.default_rng(11)
    for _ in range(300):
        m = int(rng.integers(1, 40))
        d = int(rng.integers(1, 5))
        draws = rng.uniform(-1.0, 1.0, size=(m, d))
        repeated = draws[rng.integers(0, max(1, m // 3), size=m)]
        ties = rng.integers(-2, 3, size=(m, d)).astype(float)
        for a in (draws, repeated, ties):
            _assert_same_bits(interp.unique_rows(a), np.unique(a, axis=0))


def test_unique_rows_signed_zeros_and_nan_rows():
    """-0.0 equals 0.0 and every NaN row is kept, as in np.unique."""
    a = np.array([[0.0, 1.0], [np.nan, 0.0], [-0.0, 1.0], [1.0, -0.0], [np.nan, 0.0],
                  [1.0, 0.0], [-0.5, np.nan]])
    got = interp.unique_rows(a)
    _assert_same_bits(got, np.unique(a, axis=0))
    assert got.shape[0] == 5
    rng = np.random.default_rng(12)
    for _ in range(300):
        # up to 16 rows np.unique sorts stably, so it keeps the same signed zero
        a = _signed_zero_grid(rng, int(rng.integers(1, 17)), int(rng.integers(1, 4)), 0.1)
        _assert_same_bits(interp.unique_rows(a), np.unique(a, axis=0))
        # past 16 rows its sort is not stable; the kept rows are equal as floats
        a = _signed_zero_grid(rng, int(rng.integers(17, 60)), int(rng.integers(1, 4)), 0.1)
        got, want = interp.unique_rows(a), np.unique(a, axis=0)
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)


def test_dataset_refuses_duplicate_sites():
    sites = np.array([[0.3, 0.1], [0.5, 0.2], [0.9, 0.0], [0.3, 0.1]])
    with pytest.raises(ValueError, match="pairwise distinct"):
        interp.DataSet(sites, np.zeros(4))
    with pytest.raises(ValueError, match="pairwise distinct"):
        interp.DataSet(np.array([[0.0, 1.0], [-0.0, 1.0]]), np.zeros(2))
    assert interp.DataSet(sites[:3], np.zeros(3)).m == 3


def test_spectral_norm_equals_numpy_two_norm():
    """The largest singular value is np.linalg.norm(x, 2) bit for bit, at any rank."""
    rng = np.random.default_rng(13)
    for _ in range(200):
        m, n = (int(v) for v in rng.integers(1, 13, size=2))
        full = rng.standard_normal((m, n))
        rank = int(rng.integers(0, min(m, n)))
        deficient = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
        for x in (full, deficient, full @ full.T, np.linalg.inv(full @ full.T + np.eye(m))):
            _assert_same_bits(interp.spectral_norm(x), np.linalg.norm(x, 2))


def test_dataset_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    ds = _random_dataset(rng, 9, 3)
    path = tmp_path / "data.csv"
    interp.save_dataset(ds, path)
    back = interp.load_dataset(path)
    # repr() serialization preserves every float exactly
    assert np.array_equal(back.sites, ds.sites)
    assert np.array_equal(back.values, ds.values)


def test_assemble_dense_symmetric_with_kernel_diagonal():
    rng = np.random.default_rng(3)
    ds = _random_dataset(rng, 8, 2)
    kern = kernels.gaussian(sigma=0.7)
    A = interp.assemble(ds, kern).data
    assert np.array_equal(A, A.T)
    assert np.all(np.diag(A) == 1.0)
    An = interp.assemble(ds, kern, normalized=True).data
    assert np.allclose(An * ds.m, A, rtol=1e-15)


def test_two_point_normalized_gaussian_spectrum():
    """Two unit-separated sites: eigenvalues (1 +- exp(-1/2)) / 2."""
    ds = interp.DataSet(np.array([[0.0], [1.0]]), np.array([1.0, 2.0]))
    mat = interp.assemble(ds, kernels.gaussian(sigma=1.0), normalized=True)
    spec = interp.spectrum(mat)
    g = math.exp(-0.5)
    assert np.isclose(spec.lambda_max, (1.0 + g) / 2.0, rtol=1e-14)
    assert np.isclose(spec.lambda_min, (1.0 - g) / 2.0, rtol=1e-14)
    assert np.isclose(spec.kappa, (1.0 + g) / (1.0 - g), rtol=1e-13)


def test_sparse_and_dense_assembly_agree_exactly():
    rng = np.random.default_rng(17)
    ds = _random_dataset(rng, 25, 2)
    kern = kernels.wendland(3, 2, alpha=0.6)
    sp = interp.assemble(ds, kern)
    de = _dense_matrix(ds, kern)
    assert sp.is_sparse
    assert np.array_equal(sp.toarray(), de)
    # sparsity counts the fullest row
    assert sp.sparsity == int(np.max(np.count_nonzero(de, axis=1)))


def test_solve_interpolates_exactly_at_sites():
    rng = np.random.default_rng(5)
    for trial in range(5):
        ds = _random_dataset(np.random.default_rng(100 + trial), 12, 2)
        kern = kernels.gaussian(sigma=0.5)
        mat = interp.assemble(ds, kern)
        coeffs = interp.solve(mat, ds.values)
        assert coeffs.residual < 1e-9
        for j in range(ds.m):
            fj = interp.evaluate(coeffs, ds, kern, ds.sites[j])
            assert abs(fj - ds.values[j]) < 1e-8


def test_normalized_and_raw_conventions_share_coefficients():
    """(A/m) c = y/m has the same solution as A c = y."""
    rng = np.random.default_rng(23)
    ds = _random_dataset(rng, 10, 2)
    kern = kernels.gaussian(sigma=0.6)
    raw = interp.solve(interp.assemble(ds, kern), ds.values)
    nrm = interp.solve(interp.assemble(ds, kern, normalized=True), ds.values / ds.m)
    assert np.allclose(raw.c, nrm.c, rtol=1e-10)
    assert np.isclose(raw.residual, nrm.residual, rtol=1e-6, atol=1e-12)


def test_sparse_cg_matches_dense_cholesky():
    rng = np.random.default_rng(29)
    ds = _random_dataset(rng, 30, 2)
    kern = kernels.wendland(3, 2, alpha=0.8)
    sp = interp.solve(interp.assemble(ds, kern), ds.values)
    de = interp.solve(_dense_matrix(ds, kern), ds.values)
    assert np.allclose(sp.c, de.c, rtol=1e-9, atol=1e-11)


def test_evaluate_compact_far_query_is_zero():
    ds = interp.DataSet(np.array([[0.0, 0.0], [0.5, 0.0]]), np.array([1.0, 2.0]))
    kern = kernels.wendland(3, 2, alpha=0.6)
    coeffs = interp.solve(interp.assemble(ds, kern), ds.values)
    assert interp.evaluate(coeffs, ds, kern, [10.0, 10.0]) == 0.0


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize(
    "kern", [kernels.gaussian(sigma=0.3), kernels.wendland(3, 2, alpha=0.6)], ids=["gaussian", "wendland"]
)
def test_basis_matrix_rows_equal_basis_vector(d, kern):
    rng = np.random.default_rng(41 + d)
    ds = _random_dataset(rng, 9, d)
    # the last query lies beyond every site: its row is all zeros for both kernels
    pts = np.vstack([rng.uniform(-1.2, 1.2, size=(7, d)), np.full((1, d), 50.0)])
    rows = interp.basis_matrix(ds, kern, pts)
    assert rows.shape == (8, 9)
    for x, row in zip(pts, rows):
        assert np.array_equal(row, interp.basis_vector(ds, kern, x))
    assert not np.any(rows[-1])
    with pytest.raises(ValueError):
        interp.basis_matrix(ds, kern, np.zeros((2, d + 1)))


def test_evaluate_matches_basis_dot():
    rng = np.random.default_rng(31)
    ds = _random_dataset(rng, 7, 3)
    kern = kernels.matern_c2(1.2)
    coeffs = interp.solve(interp.assemble(ds, kern), ds.values)
    x = rng.uniform(-1, 1, size=3)
    phi = interp.basis_vector(ds, kern, x)
    assert np.isclose(interp.evaluate(coeffs, ds, kern, x), float(coeffs.c @ phi), rtol=1e-14)


def test_spectrum_and_kappa_inf():
    rng = np.random.default_rng(41)
    ds = _random_dataset(rng, 6, 2)
    mat = interp.assemble(ds, kernels.gaussian(sigma=0.5))
    spec = interp.spectrum(mat)
    assert np.array_equal(spec.eigenvalues, np.linalg.eigvalsh(mat.data))
    assert spec.kappa == spec.lambda_max / spec.lambda_min
    # has a zero eigenvalue, so kappa is reported as inf
    singular = np.ones((3, 3))
    assert interp.spectrum(singular).kappa == math.inf


def test_normalized_gaussian_lambda_max_guard():
    rng = np.random.default_rng(43)
    for trial in range(20):
        ds = _random_dataset(np.random.default_rng(trial), 8, 2)
        mat = interp.assemble(ds, kernels.gaussian(sigma=0.6), normalized=True)
        spec = interp.spectrum(mat)
        assert spec.lambda_max <= 1.0 + 1e-12


def test_perturbation_check_bounds_hold():
    rng = np.random.default_rng(47)
    for trial in range(10):
        r = np.random.default_rng(300 + trial)
        q, _ = np.linalg.qr(r.standard_normal((6, 6)))
        A = q @ np.diag(r.uniform(0.5, 2.0, 6)) @ q.T
        A = 0.5 * (A + A.T)
        E = 1e-6 * r.standard_normal((6, 6))
        E = 0.5 * (E + E.T)
        rep = interp.perturbation_check(A, E)
        assert not rep.inverse_skipped
        assert rep.inverse_ok and rep.eig_shift_ok
        assert rep.inverse_measured <= rep.inverse_bound
        assert rep.eig_shift_measured <= rep.eig_shift_bound * (1 + 1e-12)


def test_perturbation_check_skips_when_not_contractive():
    A = np.eye(2)
    E = 2.0 * np.eye(2)  # r = ||A^-1 E|| = 2 >= 1
    rep = interp.perturbation_check(A, E)
    assert rep.inverse_skipped
    assert rep.eig_shift_ok


def test_perturbation_check_accepts_sparse_matrix():
    rng = np.random.default_rng(53)
    ds = _random_dataset(rng, 10, 2)
    kern = kernels.wendland(3, 2, alpha=0.7)
    sp = interp.assemble(ds, kern)
    de = _dense_matrix(ds, kern)
    assert sp.is_sparse
    E = 1e-6 * np.eye(ds.m)
    assert interp.perturbation_check(sp, E) == interp.perturbation_check(de, E)
    assert np.array_equal(interp.spectrum(sp).eigenvalues, interp.spectrum(de).eigenvalues)


def test_solve_rejects_indefinite_matrix():
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    with pytest.raises(interp.NotPositiveDefiniteError, match="Cholesky"):
        interp.solve(interp.InterpMatrix(bad, False, 2), np.ones(2))


def test_linear_system_takes_each_decomposition_once_when_first_read(factor_calls):
    rng = np.random.default_rng(59)
    ds = _random_dataset(rng, 10, 2)
    mat = interp.assemble(ds, kernels.wendland(3, 2, alpha=0.7), normalized=True)
    assert mat.is_sparse
    system = interp.LinearSystem(mat, ds.values / ds.m)
    assert factor_calls == {"assemble": 1}
    spec, factor = system.spectrum, system.factor
    assert system.spectrum is spec and system.factor is factor
    assert factor_calls == {"assemble": 1, "eigvalsh": 1, "splu": 1}
    # a sparse system solves from its own sparse LDL^T, with no second factorization
    coeffs = system.coeffs
    assert system.coeffs is coeffs
    assert factor_calls == {"assemble": 1, "eigvalsh": 1, "splu": 1}
    assert np.array_equal(spec.eigenvalues, interp.spectrum(mat).eigenvalues)
    assert np.array_equal(coeffs.c, interp.solve(mat, ds.values / ds.m).c)
    assert factor_calls == {"assemble": 1, "eigvalsh": 2, "splu": 2}


def test_sparse_ldlt_solution_matches_the_dense_cholesky_solution():
    """Both solves are backward stable, so they differ by about kappa u:
    on these Wendland systems, kappa below 1e4, by less than 1e-12 relative."""
    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)
        m, d = int(rng.integers(5, 150)), int(rng.integers(2, 4))
        ds = interp.DataSet(rng.uniform(0.0, 1.0, (m, d)), rng.standard_normal(m))
        normalized = bool(trial % 2)
        mat = interp.assemble(ds, kernels.wendland(3, 2, alpha=rng.uniform(0.1, 0.3)),
                              normalized=normalized)
        y = ds.values / m if normalized else ds.values
        system = interp.LinearSystem(mat, y)
        assert mat.is_sparse and system.spectrum.kappa < 1e4
        want = cho_solve(cho_factor(mat.toarray()), y)
        got = system.coeffs.c
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        assert np.array_equal(interp.factor_solve(system.factor, y), got)


@pytest.mark.parametrize("entries", [
    [[1.0, 2.0], [2.0, 1.0]],  # a negative pivot
    [[0.0, 1.0], [1.0, 0.0]],  # no diagonal to pivot on
    [[1.0, 1.0], [1.0, 1.0]],  # exactly singular
    [[0.0, 0.0], [0.0, 0.0]],
], ids=["indefinite", "zero diagonal", "singular", "zero"])
def test_sparse_matrix_that_is_not_positive_definite_is_refused(entries, factor_calls):
    mat = interp.InterpMatrix(csr_array(np.array(entries)), False, 2)
    with pytest.raises(interp.NotPositiveDefiniteError, match="sparse LDL"):
        interp.solve(mat, np.ones(2))
    with pytest.raises(interp.NotPositiveDefiniteError, match="sparse LDL"):
        interp.LinearSystem(mat, np.ones(2)).factor
    assert factor_calls == {"splu": 2}


def test_exact_system_words_a_failed_sparse_factorization_from_the_spectrum(factor_calls):
    # a smooth Wendland profile whose support covers the whole box: the
    # smallest eigenvalue rounds below zero and an LDL^T pivot with it
    rng = np.random.default_rng(0)
    ds = interp.DataSet(rng.uniform(0.0, 1.0, (200, 2)), rng.standard_normal(200))
    with pytest.raises(interp.NotPositiveDefiniteError) as info:
        interp.exact_system(ds, kernels.wendland(3, 6, alpha=20.0))
    message = str(info.value)
    assert "lambda_min -" in message and "kappa inf" in message
    assert message.endswith("lower kernel.alpha or dataset.m")
    assert "sparse LDL" in str(info.value.__cause__)
    assert factor_calls == {"assemble": 1, "splu": 1, "eigvalsh": 1}


def test_linear_system_factor_fails_plainly_without_a_spectrum(factor_calls):
    system = interp.LinearSystem(np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones(2))
    with pytest.raises(interp.NotPositiveDefiniteError, match="Cholesky failed"):
        system.factor
    assert factor_calls == {"cho_factor": 1}
    with pytest.raises(ValueError, match="not symmetric"):
        interp.LinearSystem(np.array([[1.0, 2.0], [0.0, 1.0]]), np.ones(2)).dense
    with pytest.raises(ValueError, match="square"):
        interp.LinearSystem(np.ones((2, 3)), np.ones(2)).dense
