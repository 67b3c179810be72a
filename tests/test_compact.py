"""Tests for the pair-state encoding, estimation oracles, and sparse pipeline."""

import dataclasses
import math

import numpy as np
import pytest

from qrbf import compact
from qrbf import interpolation as interp
from qrbf.compact import CompactOracleConfig
from qrbf.kernels import wendland


def _dataset(rng, m, d):
    sites = rng.uniform(-1.0, 1.0, size=(m, d))
    return interp.DataSet(sites, rng.standard_normal(m))


def _pair_state(x_i, x_j):
    """(||x_i|| |+>|x_i_hat> - ||x_j|| |->|x_j_hat>) / sqrt(||x_i||^2 + ||x_j||^2).

    Amplitudes in the computational basis: sign qubit first, then the
    d-dimensional direction register.
    """
    s = math.sqrt(x_i @ x_i + x_j @ x_j)
    plus_i = np.concatenate([x_i, x_i]) / math.sqrt(2.0)
    minus_j = np.concatenate([x_j, -x_j]) / math.sqrt(2.0)
    return (plus_i - minus_j) / s


def test_pair_state_layout_and_norm():
    x_i = np.array([1.0, 0.0])
    x_j = np.array([0.0, 1.0])
    st = _pair_state(x_i, x_j)
    s = math.sqrt(2.0)  # sqrt(||x_i||^2 + ||x_j||^2)
    want = np.concatenate([(x_i - x_j), (x_i + x_j)]) / (s * math.sqrt(2.0))
    assert np.allclose(st, want, rtol=1e-15)
    assert np.isclose(np.linalg.norm(st), 1.0, rtol=1e-14)
    # the |0>-branch of the sign qubit carries the amplitude the oracles estimate
    rng = np.random.default_rng(3)
    for _ in range(200):
        x_i, x_j = rng.uniform(-3, 3, size=3), rng.uniform(-3, 3, size=3)
        zero_branch = np.linalg.norm(_pair_state(x_i, x_j)[:3])
        assert np.isclose(zero_branch, compact.distance_amplitude(x_i, x_j), rtol=1e-13)


def test_distance_amplitude_reference_point():
    # orthogonal unit vectors: ||x_i - x_j|| = sqrt(2), scale sqrt(2 * 2)
    a = compact.distance_amplitude(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert np.isclose(a, 1.0 / math.sqrt(2.0), rtol=1e-14)


def test_distance_amplitude_range_and_roundtrip():
    rng = np.random.default_rng(2)
    for _ in range(200):
        x_i = rng.uniform(-3, 3, size=3)
        x_j = rng.uniform(-3, 3, size=3)
        if np.linalg.norm(x_i) == 0 and np.linalg.norm(x_j) == 0:
            continue
        a = compact.distance_amplitude(x_i, x_j)
        assert 0.0 <= a <= 1.0
        dist = compact.reconstruct_distance(x_i, x_j)
        assert np.isclose(dist, np.linalg.norm(x_i - x_j), rtol=1e-12, atol=1e-13)


def test_reconstruct_distance_equals_amplitude_times_scale():
    """One pair of 1-D norms serves both steps, with np.linalg.norm's bits."""
    rng = np.random.default_rng(19)
    for _ in range(1000):
        d = int(rng.integers(1, 6))
        x_i = rng.normal(size=d)
        x_j = rng.normal(size=d)
        ni, nj = np.linalg.norm(x_i), np.linalg.norm(x_j)
        assert compact.pair_scale(x_i, x_j) == math.sqrt(2.0 * (ni * ni + nj * nj))
        want = compact.distance_amplitude(x_i, x_j) * compact.pair_scale(x_i, x_j)
        assert compact.reconstruct_distance(x_i, x_j) == want


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_reconstruct_distance_of_rows_equals_the_per_pair_call(d):
    """(n, d) rows give, bit for bit, each pair's own reconstruction and amplitude times scale."""
    rng = np.random.default_rng(40 + d)
    x_i = rng.normal(size=(300, d))
    x_j = rng.normal(size=(300, d))
    x_i[:5] = 0.0  # one point of the pair at the origin
    x_j[5:10] = 0.0
    x_j[10] = x_i[10]  # distance 0.0
    got = compact.reconstruct_distance(x_i, x_j)
    assert got.shape == (300,)
    want = [compact.reconstruct_distance(a, b) for a, b in zip(x_i, x_j)]
    assert all(type(w) is float for w in want)
    assert np.array_equal(got, want)
    old = [compact.distance_amplitude(a, b) * compact.pair_scale(a, b) for a, b in zip(x_i, x_j)]
    assert np.array_equal(got, old)
    assert got[10] == 0.0


def test_reconstruct_distance_of_rows_refuses_what_a_pair_refuses():
    rows = np.ones((4, 3))
    with pytest.raises(ValueError, match="share a dimension"):
        compact.reconstruct_distance(rows, np.ones((4, 2)))
    zero = rows.copy()
    zero[2] = 0.0
    with pytest.raises(ValueError, match="both points are zero"):
        compact.reconstruct_distance(zero, zero)
    with pytest.raises(ValueError, match="both points are zero"):
        compact.reconstruct_distance(np.zeros(3), np.zeros(3))


def _estimation_pmf(a_true, ae_bits: int) -> np.ndarray:
    """Reference: outcome distribution of amplitude estimation over the whole 2^bits grid.

    Cell y of the grid carries the interference weight
    (F(y/M - omega) + F(y/M + omega)) / 2 with F the squared Dirichlet
    kernel sin^2(pi M t) / (M sin(pi t))^2 and omega = arcsin(a)/pi.  The
    numerator sin^2(pi M omega) is the same in every cell of a row and
    cancels in the normalisation; with s = sin(pi y / M) what is left is
    compact._closed_form, s read from compact._grid_sines.  A row with an
    exact hit, a cell whose squared denominator is 0, is the normalised
    indicator of its hit cells (the 0/0 limit of F): an on-grid amplitude
    splits 0.5/0.5 between y0 and M - y0, and a = 0 or a = 1 puts 1.0 on
    one cell.  An array of n amplitudes gives one distribution per row,
    shape (n, 2^bits); a scalar gives the 1-D distribution through the
    same path.
    """
    a = np.asarray(a_true, dtype=float)
    scalar = a.ndim == 0
    a = a.reshape(-1, 1)
    pmf, den = compact._closed_form(compact._grid_sines(ae_bits), a)
    total = pmf.sum(axis=-1, keepdims=True)
    hit_rows = ~np.isfinite(total[:, 0])
    if hit_rows.any():
        # a zero denominator gives inf or 0/0 = nan, so only hit rows sum to a non-finite
        pmf[hit_rows] = den[hit_rows] == 0.0
        total[hit_rows] = pmf[hit_rows].sum(axis=-1, keepdims=True)
    pmf /= total
    return pmf[0] if scalar else pmf


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


def test_estimation_pmf_is_a_distribution():
    for a in (0.0, 0.3, 1.0 / math.sqrt(2.0), 0.95):
        pmf = _estimation_pmf(a, ae_bits=6)
        assert pmf.shape == (64,)
        assert np.all(pmf >= -1e-15)
        assert np.isclose(pmf.sum(), 1.0, atol=1e-12)


def test_estimation_pmf_exact_cases():
    # exact hits give the indicator of the hit cells: a = 0 on outcome 0,
    # a = 1 on outcome M/2, an on-grid a = sin(pi y0 / M) half on y0, half on M - y0
    M = 32
    y0 = 5
    pmf = _estimation_pmf(0.0, ae_bits=5)
    assert pmf[0] == 1.0 and np.count_nonzero(pmf) == 1
    pmf = _estimation_pmf(1.0, ae_bits=5)
    assert pmf[M // 2] == 1.0 and np.count_nonzero(pmf) == 1
    pmf = _estimation_pmf(math.sin(math.pi * y0 / M), ae_bits=5)
    assert pmf[y0] == pmf[M - y0] == 0.5
    assert np.count_nonzero(pmf) == 2


def _fejer_pmf(a, bits):
    """Reference: the AE outcome distribution evaluated cell by cell in Fejer form.

    Cell y weighs (F(y/M - omega) + F(y/M + omega)) / 2, with
    F(t) = sin^2(pi M t) / (M sin(pi t))^2 and omega = arcsin(a) / pi;
    a 0/0 cell is an exact hit of weight 1.
    """
    a = np.asarray(a, dtype=float).reshape(-1)
    M = 2**bits
    omega = np.array([math.asin(v) for v in a.tolist()])[:, None] / math.pi
    y = np.arange(M) / M

    def fejer(delta):
        num = np.sin(np.pi * M * delta) ** 2
        den = (M * np.sin(np.pi * delta)) ** 2
        return np.divide(num, den, out=np.ones_like(den), where=den != 0.0)

    pmf = 0.5 * (fejer(y - omega) + fejer(y + omega))
    return pmf / pmf.sum(axis=-1, keepdims=True)


def _row_blocks(n, bits, cells=2**16):
    step = max(1, cells >> bits)
    return [slice(start, start + step) for start in range(0, n, step)]


def test_estimation_pmf_closed_form_matches_fejer_reference():
    rng = np.random.default_rng(41)
    worst = 0.0
    for bits in range(1, 15):
        M = 2**bits
        k = np.arange(M) if M <= 64 else np.concatenate(
            [[0, 1, M // 2 - 1, M // 2, M // 2 + 1, M - 1], rng.integers(0, M, 40)]
        )
        grid = np.array([math.sin(math.pi * v / M) for v in k.tolist()])
        amps = np.concatenate([
            rng.uniform(0.0, 1.0, 40), [0.0, 1.0],
            grid, np.nextafter(grid, -np.inf), np.nextafter(grid, np.inf),
        ])
        amps = amps[(amps >= 0.0) & (amps <= 1.0)]
        for block in _row_blocks(amps.shape[0], bits):
            pmf = _estimation_pmf(amps[block], bits)
            assert np.all(np.isfinite(pmf))
            worst = max(worst, float(np.max(np.abs(pmf - _fejer_pmf(amps[block], bits)))))
    assert worst <= 1e-11


def test_estimation_pmf_draws_equal_fejer_reference_draws():
    rng = np.random.default_rng(43)
    pairs = 0
    for bits in range(4, 13):
        n = min(40_000, 2**20 >> bits)
        amps = rng.uniform(0.0, 1.0, n)
        u = rng.random((n, 1))
        for block in _row_blocks(n, bits):
            got = _draw(_estimation_pmf(amps[block], bits), u[block])
            want = _draw(_fejer_pmf(amps[block], bits), u[block])
            assert np.array_equal(got, want)
        pairs += n
    assert pairs >= 100_000


def test_grid_sines_table_is_cached_read_only_and_mirror_symmetric():
    for bits in (1, 2, 5, 12):
        M = 2**bits
        table = compact._grid_sines(bits)
        assert compact._grid_sines(bits) is table
        assert not table.flags.writeable
        assert table.shape == (M,)
        # y and M - y hold the same bits
        assert np.array_equal(table[1:], table[:0:-1])
        assert table.tolist()[: M // 2 + 1] == [math.sin(math.pi * y / M) for y in range(M // 2 + 1)]


def test_estimated_oracle_matrix_not_pd_names_ae_bits_and_spectral_floor():
    rng = np.random.default_rng(11)
    ds = _dataset(rng, 24, 2)
    cfg = CompactOracleConfig(kernel=wendland(3, 2, alpha=0.7), ae_bits=3, seed=0)
    with pytest.raises(
        interp.NotPositiveDefiniteError,
        match=r"kappa inf\); set inversion\.spectral_floor .*, or raise compact\.ae_bits",
    ):
        compact.solve_compact(ds, cfg)


def test_amplitude_estimate_error_bound():
    """Estimates land within pi/M + (pi/M)^2 with high probability."""
    rng = np.random.default_rng(3)
    bits = 7
    bound = compact.ae_error_bound(bits)
    assert np.isclose(bound, math.pi * 2.0**-bits + math.pi**2 * 2.0 ** (-2 * bits))
    hits = 0
    trials = 200
    for t in range(trials):
        a = rng.uniform(0.0, 1.0)
        est = compact.amplitude_estimate(a, bits, seed=(9, t))
        if abs(est - a) <= bound:
            hits += 1
    assert hits / trials >= 0.81  # 8/pi^2 is about 0.81


def test_amplitude_estimate_deterministic_per_seed():
    first = compact.amplitude_estimate(0.4, 6, seed=(1, 2))
    assert all(compact.amplitude_estimate(0.4, 6, seed=(1, 2)) == first for _ in range(5))
    # 0.4 is off the grid, so the draws spread over several outcomes
    draws = {compact.amplitude_estimate(0.4, 6, seed=(1, s)) for s in range(50)}
    assert len(draws) > 1


def test_estimation_pmf_batch_rows_and_draw_rule():
    """Batched rows equal scalar calls; the inverse-CDF draw equals Generator.choice."""
    rng = np.random.default_rng(29)
    cases = 0
    for bits in (1, 3, 6, 9, 12):
        M = 2**bits
        amps = np.concatenate([[0.0, 1.0, math.sin(math.pi * 3 / 16)], rng.uniform(0, 1, 37)])
        batch = _estimation_pmf(amps, bits)
        assert batch.shape == (amps.shape[0], M)
        for k, a in enumerate(amps):
            pmf = _estimation_pmf(float(a), bits)
            assert pmf.shape == (M,)
            assert np.array_equal(batch[k], pmf)
            seed = (bits, k)
            want = int(np.random.default_rng(seed).choice(M, p=pmf))
            u = np.random.default_rng(seed).random()
            assert int(_draw(pmf, np.array([u]))[0]) == want
            cases += 1
    assert cases == 200


def test_oracle_pa_exact_mode_matches_kernel():
    rng = np.random.default_rng(5)
    ds = _dataset(rng, 8, 2)
    cfg = CompactOracleConfig(kernel=wendland(3, 2, alpha=0.7))
    for i in range(ds.m):
        assert compact.oracle_PA(i, i, ds, cfg) == cfg.kernel.phi0
    for i in range(ds.m):
        for j in range(ds.m):
            if i == j:
                continue
            want = cfg.kernel.eval(float(interp.pair_distance(ds.sites[i], ds.sites[j])))
            assert compact.oracle_PA(i, j, ds, cfg) == want


def test_oracle_pa_estimated_mode_reproducible():
    rng = np.random.default_rng(7)
    ds = _dataset(rng, 6, 2)
    cfg = CompactOracleConfig(kernel=wendland(3, 2, alpha=0.9), ae_bits=8, seed=42)
    a = compact.oracle_PA(0, 1, ds, cfg)
    b = compact.oracle_PA(0, 1, ds, cfg)
    assert a == b
    exact = CompactOracleConfig(kernel=wendland(3, 2, alpha=0.9))
    truth = compact.oracle_PA(0, 1, ds, exact)
    assert abs(a - truth) < 0.1


def test_oracle_pv_scans_column_pattern():
    ds = interp.DataSet(np.array([[0.0], [0.3], [0.6], [2.0]]), np.ones(4))
    cfg = CompactOracleConfig(kernel=wendland(1, 0, alpha=0.5))
    mat = compact.build_matrix(ds, cfg)
    # site 1 neighbors sites 0 and 2; site 3 is isolated
    col1 = [compact.oracle_Pv(1, ell, mat) for ell in range(1, mat.sparsity + 1)]
    assert col1 == [0, 1, 2]
    col3 = [compact.oracle_Pv(3, ell, mat) for ell in range(1, mat.sparsity + 1)]
    assert col3 == [3, ds.m, ds.m]  # out-of-band marker m pads empty slots
    with pytest.raises(ValueError):
        compact.oracle_Pv(0, mat.sparsity + 1, mat)
    with pytest.raises(IndexError):
        compact.oracle_Pv(7, 1, mat)


def test_build_matrix_exact_equals_assembler():
    rng = np.random.default_rng(11)
    for trial in range(5):
        r = np.random.default_rng(700 + trial)
        ds = _dataset(r, 12, 2)
        kern = wendland(3, 2, alpha=0.6)
        cfg = CompactOracleConfig(kernel=kern)
        built = compact.build_matrix(ds, cfg)
        exact = interp.assemble(ds, kern)
        gap = np.abs((built.data - exact.data).toarray())
        assert np.max(gap) == 0.0 if gap.size else True


def _same_csr(a, b) -> bool:
    """Same stored pattern and the same bits in every stored entry."""
    return all(np.array_equal(getattr(a, name), getattr(b, name))
               for name in ("indptr", "indices", "data"))


@pytest.mark.parametrize("normalized", [False, True])
def test_support_below_every_pair_distance_stores_only_the_diagonal(normalized):
    ds = _dataset(np.random.default_rng(5), 9, 2)
    gaps = interp.pair_distance(ds.sites[:, None, :], ds.sites[None, :, :])
    kern = wendland(3, 2, alpha=0.5 * np.min(gaps[np.triu_indices(ds.m, k=1)]))
    mat = interp.assemble(ds, kern, normalized=normalized)
    built = compact.build_matrix(ds, CompactOracleConfig(kernel=kern), normalized=normalized)
    for m in (mat, built):
        assert m.is_sparse and m.sparsity == 1 and m.data.nnz == ds.m
        want = kern.phi0 * (1.0 / ds.m if normalized else 1.0)
        assert np.array_equal(m.data.diagonal(), np.full(ds.m, want))
    assert _same_csr(mat.data, built.data)


def test_a_pair_exactly_alpha_apart_is_stored_by_neither_assembly():
    # sites 0 and 1 are exactly alpha apart, where phi is 0; sites 0 and 2 lie inside it
    ds = interp.DataSet(np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.25]]), np.ones(3))
    kern = wendland(3, 2, alpha=0.5)
    assert interp.pair_distance(ds.sites[0], ds.sites[1]) == kern.alpha
    mat = interp.assemble(ds, kern)
    built = compact.build_matrix(ds, CompactOracleConfig(kernel=kern))
    for m in (mat, built):
        coo = m.data.tocoo()
        assert sorted(zip(coo.row.tolist(), coo.col.tolist())) == [
            (0, 0), (0, 2), (1, 1), (2, 0), (2, 2)
        ]
        assert m.sparsity == 2
    assert _same_csr(mat.data, built.data)


def _oracle_loop_matrix(ds, cfg, normalized):
    """Reference build: the symmetrized per-pair oracle_PA loop on the column oracle's pattern.

    Column j's rows are oracle_Pv(j, ell, exact) for ell = 1..s on the
    exact matrix, in ascending order; each row i < j is a pair the entry
    oracle is queried at.
    """
    from scipy.sparse import coo_array

    exact = interp.assemble(ds, cfg.kernel)
    scale = 1.0 / ds.m if normalized else 1.0
    rows, cols, vals = list(range(ds.m)), list(range(ds.m)), [cfg.kernel.phi0 * scale] * ds.m
    for j in range(ds.m):
        for ell in range(1, exact.sparsity + 1):
            i = compact.oracle_Pv(j, ell, exact)
            if i >= j:  # the diagonal, then rows i > j or the out-of-band m
                break
            entry = 0.5 * (compact.oracle_PA(i, j, ds, cfg) + compact.oracle_PA(j, i, ds, cfg))
            if entry != 0.0:
                rows.extend((i, j))
                cols.extend((j, i))
                vals.extend((entry * scale, entry * scale))
    mat = coo_array((vals, (rows, cols)), shape=(ds.m, ds.m)).tocsr()
    mat.sort_indices()
    return mat


@pytest.mark.parametrize("bits", [None, 4, 8, 12, 16, 20])
def test_build_matrix_equals_symmetrized_oracle_loop(bits, monkeypatch):
    if bits is not None:
        # folded outcome amplitudes are the sine table itself, for arrays and 0-d input
        M = 2**bits
        y = np.random.default_rng(bits).integers(0, M // 2 + 1, size=(50, 2))
        want = [[math.sin(math.pi * v / M) for v in row] for row in y.tolist()]
        assert np.array_equal(compact._grid_sines(bits)[y], np.array(want))
        assert compact._grid_sines(bits)[y[0, 0]].shape == ()
        assert float(compact._grid_sines(bits)[y[0, 0]]) == want[0][0]
    # record which Philox counter words c2 the batched build reads
    attempts = []
    pair_uniforms = compact._pair_uniforms

    def recording(seed, i, j, c2=0):
        attempts.append(c2)
        return pair_uniforms(seed, i, j, c2)

    monkeypatch.setattr(compact, "_pair_uniforms", recording)
    # 2**40 + 3 fills more than 32 bits of the 128-bit Philox key
    for seed in (0, 3, 11, 2**40 + 3):
        r = np.random.default_rng(500 + seed)
        ds = _dataset(r, 16, 2 + seed % 2)
        cfg = CompactOracleConfig(kernel=wendland(3, 2, alpha=1.1), ae_bits=bits, seed=seed)
        normalized = seed % 2 == 1
        built = compact.build_matrix(ds, cfg, normalized=normalized).data
        want = _oracle_loop_matrix(ds, cfg, normalized)
        for name in ("data", "indices", "indptr"):
            got, ref = getattr(built, name), getattr(want, name)
            assert got.dtype == ref.dtype
            assert np.array_equal(got, ref), name
    # from 8 bits on some draws land in the tail and are rejected, so the
    # oracle's retries at counter words c2 >= 1 are compared too
    assert (max(attempts, default=-1) >= 1) == (bits is not None and bits >= 8)


def _pattern(mat) -> set:
    coo = mat.data.tocoo()
    return set(zip(coo.row.tolist(), coo.col.tolist()))


@pytest.mark.parametrize("m, alpha, bits", [(128, 0.15, 8), (64, 0.3, 12), (50, 0.7, 20)])
def test_estimated_build_is_the_all_pairs_draw_restricted_to_the_exact_pattern(m, alpha, bits):
    # every pair of the upper triangle drawn in one batch, then cut to the exact
    # pattern: a pair's draw does not depend on which other pairs share its batch
    for seed in (0, 1):
        ds = _dataset(np.random.default_rng(900 + seed), m, 2)
        cfg = CompactOracleConfig(kernel=wendland(3, 2, alpha=alpha), ae_bits=bits, seed=seed)
        i, j = np.triu_indices(m, k=1)
        dist = interp.pair_distance(ds.sites[i], ds.sites[j])
        phi = cfg.kernel.eval(compact._estimated_radii(ds, cfg, i, j))
        entry = 0.5 * (phi[:, 0] + phi[:, 1])
        inside = cfg.kernel.eval(dist) != 0.0
        normalized = seed == 1
        want = interp.symmetric_csr(m, i[inside], j[inside], entry[inside], cfg.kernel.phi0,
                                    normalized)
        built = compact.build_matrix(ds, cfg, normalized=normalized)
        assert _same_csr(built.data, want.data)
        # below 20 bits the all-pairs draw also stores noise off the pattern, which is left
        # out; at 20 bits every estimate off the pattern lands at or past alpha
        full = interp.symmetric_csr(m, i, j, entry, cfg.kernel.phi0, normalized)
        assert (full.data.nnz > built.data.nnz) == (bits < 20)


def test_estimated_build_draws_the_distance_amplitude_of_each_pair(monkeypatch):
    """The amplitudes the estimated build draws are distance_amplitude of each pair's sites.

    The sites of an m=128 dataset at seed 0 include some whose
    np.linalg.norm(axis=1) and interpolation.row_norms differ in the last
    bit, and pairs of the pattern touch them.
    """
    from qrbf import harness

    ds = harness.gen_data(128, 2, [0.0, 1.0], 0)
    kern = wendland(3, 2, alpha=0.15)
    drawn = []
    sample_outcomes = compact._sample_outcomes
    monkeypatch.setattr(compact, "_sample_outcomes",
                        lambda a, bits, u: drawn.append(a) or sample_outcomes(a, bits, u))
    compact.build_matrix(ds, CompactOracleConfig(kernel=kern, ae_bits=8, seed=0))
    i, j = interp.support_pairs(ds.sites, kern.alpha)
    inside = kern.eval(interp.pair_distance(ds.sites[i], ds.sites[j])) != 0.0
    i, j = i[inside], j[inside]
    differ = np.linalg.norm(ds.sites, axis=1) != interp.row_norms(ds.sites)
    assert np.any(differ[i] | differ[j])
    want = [compact.distance_amplitude(ds.sites[a], ds.sites[b]) for a, b in zip(i, j)]
    assert len(drawn) == 1
    assert drawn[0].tolist() == want


@pytest.mark.parametrize("bits", [2, 8, 12])
def test_estimated_pattern_lies_within_the_exact_pattern(bits):
    kern = wendland(3, 2, alpha=0.5)
    for seed in range(3):
        ds = _dataset(np.random.default_rng(40 + seed), 60, 2)
        built = compact.build_matrix(ds, CompactOracleConfig(kernel=kern, ae_bits=bits, seed=seed))
        assert _pattern(built) <= _pattern(interp.assemble(ds, kern))
    # sites 0 and 1 are exactly alpha apart, where phi is 0: a support pair off the
    # pattern, whose off-grid amplitude estimates below alpha at some of these seeds
    ds = interp.DataSet(np.array([[0.25, 0.0], [0.75, 0.0], [0.25, 0.25]]), np.ones(3))
    assert interp.pair_distance(ds.sites[0], ds.sites[1]) == kern.alpha
    i, j = interp.support_pairs(ds.sites, kern.alpha)
    assert sorted(zip(i.tolist(), j.tolist())) == [(0, 1), (0, 2)]
    exact = _pattern(interp.assemble(ds, kern))
    assert exact == {(0, 0), (0, 2), (1, 1), (2, 0), (2, 2)}
    for seed in range(5):
        built = compact.build_matrix(ds, CompactOracleConfig(kernel=kern, ae_bits=bits, seed=seed))
        assert _pattern(built) == exact


def test_estimated_build_draws_only_the_support_pairs(monkeypatch):
    # the draws are counted, not timed: attempt 0 reads one Philox block per support pair
    m = 4096
    ds = _dataset(np.random.default_rng(4), m, 2)
    cfg = CompactOracleConfig(kernel=wendland(3, 2, alpha=0.15 * math.sqrt(512 / m)), ae_bits=12)
    first_attempt_rows = []
    pair_uniforms = compact._pair_uniforms

    def recording(seed, i, j, c2=0):
        if c2 == 0:
            first_attempt_rows.append(i.size)
        return pair_uniforms(seed, i, j, c2)

    monkeypatch.setattr(compact, "_pair_uniforms", recording)
    built = compact.build_matrix(ds, cfg)
    n_pairs = interp.support_pairs(ds.sites, cfg.kernel.alpha)[0].size
    assert first_attempt_rows == [n_pairs]
    assert n_pairs < m * (m - 1) // 2 // 50
    assert built.data.nnz <= interp.assemble(ds, cfg.kernel).data.nnz


def _folded_pmf(a, bits):
    """_estimation_pmf(a) folded onto y in [0, M/2]: cells y and M - y summed."""
    pmf = _estimation_pmf(a, bits)
    half = 2 ** (bits - 1)
    folded = pmf[: half + 1].copy()
    folded[1:half] += pmf[:half:-1]
    return folded


def _chi2_pvalue(draws, pmf):
    """Pearson chi-squared p-value of draws against pmf.

    Cells expected below 5 times are pooled; a pool still below 5 joins
    the largest cell.  None when a single bin is left.
    """
    from scipy import stats

    expected = pmf * draws.size
    observed = np.bincount(draws.ravel(), minlength=pmf.size).astype(float)
    big = expected >= 5.0
    obs, exp = list(observed[big]), list(expected[big])
    pooled_obs, pooled_exp = observed[~big].sum(), expected[~big].sum()
    if pooled_exp >= 5.0:
        obs.append(pooled_obs)
        exp.append(pooled_exp)
    else:
        top = int(np.argmax(exp))
        obs[top] += pooled_obs
        exp[top] += pooled_exp
    if len(exp) < 2:
        return None
    obs, exp = np.array(obs), np.array(exp)
    return float(stats.chi2.sf(np.sum((obs - exp) ** 2 / exp), len(exp) - 1))


def _window_only_draws(a, bits, n, rng):
    """Planted defect: the sampler's window with its exact weights and no tail."""
    M = 2**bits
    half = M // 2
    pmf = _folded_pmf(a, bits)
    width = min(2 * compact._WINDOW, half + 1)
    lo = min(max(math.floor(M * math.asin(a) / math.pi) + 1 - compact._WINDOW, 0), half + 1 - width)
    cdf = np.cumsum(pmf[lo : lo + width])
    return lo + np.searchsorted(cdf / cdf[-1], rng.random(n), side="right")


@pytest.mark.parametrize("bits", [4, 8, 12])
def test_sample_outcomes_fit_the_folded_estimation_pmf(bits):
    M = 2**bits
    rng = np.random.default_rng(1000 + bits)
    on_grid = math.sin(math.pi * (M // 3) / M)
    near = math.sin(math.pi * (M // 5) / M)
    hits = {0.0: 0, 1.0: M // 2, on_grid: M // 3}
    amps = [*hits, near + 1e-9, near - 1e-9, *rng.uniform(0.0, 1.0, 3)]
    n = 100_000
    for a in amps:
        gen = np.random.default_rng((bits, 7))
        # two draws per row: 2 * 10^5 outcomes
        y = compact._sample_outcomes(np.full(n, a), bits, lambda c2, rows: gen.random((rows.size, 4)))
        assert y.shape == (n, 2) and y.min() >= 0 and y.max() <= M // 2
        pmf = _folded_pmf(a, bits)
        if a in hits:
            assert np.all(y == hits[a])
            continue
        p = _chi2_pvalue(y, pmf)
        if a in (near + 1e-9, near - 1e-9):
            # an amplitude 1e-9 off the grid keeps all but ~1e-16 of its mass on one cell
            assert p is None and np.all(y == M // 5)
            continue
        assert p > 1e-3, (a, p)
        if bits > 4:
            # beyond the window lies about 2/(pi^2 _WINDOW) of the mass; at 4 bits
            # the window is the whole half-grid
            planted = _window_only_draws(a, bits, 2 * n, np.random.default_rng(bits))
            assert _chi2_pvalue(planted, pmf) < 1e-9, a


@pytest.mark.parametrize("bits", [2, 4, 8, 12])
def test_folded_weights_stay_under_the_envelope(bits):
    # c'_y <= M^2 / (2 k^2), k = y - M arcsin(a) / pi, on every cell of a
    # dense amplitude grid, on-grid and just-off-grid amplitudes included
    M = 2**bits
    half = M // 2
    grid = np.array([math.sin(math.pi * v / M) for v in range(half + 1)])
    amps = np.concatenate([
        np.linspace(0.0, 1.0, 1001), grid, np.nextafter(grid, -1.0), np.nextafter(grid, 2.0),
        grid - 1e-9, grid + 1e-9,
    ])
    amps = amps[(amps >= 0.0) & (amps <= 1.0)]
    y = np.arange(half + 1)
    worst = 0.0
    for chunk in np.array_split(amps, max(1, amps.size * y.size // 2**18)):
        mu = np.array([math.asin(v) for v in chunk.tolist()])[:, None] * (M / math.pi)
        weight, hit = compact._folded_weights(chunk[:, None], y, bits)
        k = y - mu
        tail = (np.abs(k) >= 0.5) & ~hit
        assert np.all(np.isfinite(weight[tail]))
        worst = max(worst, float(np.max(weight[tail] * 2.0 * k[tail] ** 2 / M**2)))
    assert worst <= 1.0
    # the bound sin(pi t) >= 2 |t| is tight at t = 1/2, so the envelope is too
    assert worst > (0.9 if bits >= 8 else 0.4)


def _pair_dataset(sites):
    sites = np.array(sites, dtype=float)
    return interp.DataSet(sites, np.arange(1.0, sites.shape[0] + 1.0))


@pytest.mark.parametrize("bits", [1, 2, 3, 8])
def test_estimated_build_edge_cases_equal_the_oracle(bits):
    kern = wendland(3, 2, alpha=3.0)
    cfg = CompactOracleConfig(kernel=kern, ae_bits=bits, seed=5)
    # m = 1 has no pairs
    single = _pair_dataset([[0.3, 0.4]])
    assert compact.build_matrix(single, cfg).toarray().tolist() == [[kern.phi0]]
    assert compact.oracle_PA(0, 0, single, cfg) == kern.phi0
    # m = 2, and sites 0, 1 coincident (a = 0) and 0, 2 antipodal (a = 1);
    # DataSet refuses coincident sites, so site 1 is moved onto site 0 afterwards
    for sites in ([[0.3, 0.4], [-0.2, 0.1]], [[0.3, 0.4], [0.4, 0.3], [-0.3, -0.4], [0.5, -0.1]]):
        ds = _pair_dataset(sites)
        if ds.m == 4:
            ds.sites[1] = ds.sites[0]
        built = compact.build_matrix(ds, cfg)
        want = _oracle_loop_matrix(ds, cfg, normalized=False)
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(built.data, name), getattr(want, name)), name
    dense = built.toarray()
    # both draws of an exact hit return it: estimate 0, and 1 times the pair scale
    assert dense[0, 1] == dense[1, 0] == kern.phi0
    scale = compact.pair_scale(ds.sites[0], ds.sites[2])
    assert dense[0, 2] == float(kern.eval(scale))


@pytest.mark.parametrize("bits", [1, 2, 3])
def test_window_covers_the_half_grid_at_three_bits_or_fewer(bits):
    # no tail, so no draw is ever rejected: every row reads attempt 0 only
    attempts = []

    def uniforms(c2, rows):
        attempts.append(c2)
        return np.random.default_rng((bits, c2)).random((rows.size, 4))

    amps = np.random.default_rng(bits).uniform(0.0, 1.0, 20_000)
    y = compact._sample_outcomes(amps, bits, uniforms)
    assert attempts == [0]
    # every cell of the half-grid is reached
    assert set(np.unique(y).tolist()) == set(range(2 ** (bits - 1) + 1))


def test_sample_outcomes_rejects_amplitudes_outside_the_unit_interval():
    never = lambda c2, rows: pytest.fail("no uniforms for a rejected amplitude")  # noqa: E731
    for bad in (-1e-12, 1.0 + 1e-12, math.nan):
        with pytest.raises(ValueError, match=r"amplitude must lie in \[0, 1\]"):
            compact._sample_outcomes(np.array([0.5, bad]), 8, never)
    assert compact._sample_outcomes(np.array([]), 8, never).shape == (0, 2)


def _philox_uniforms(seed, p, q, c2=0):
    """First four random() draws of numpy's Philox stream at counter [p, q, c2, 0].

    The key is passed as an int: numpy reads a list key through float, so
    key=[2**63 + 5, 0] would become 2**63.
    """
    gen = np.random.Generator(np.random.Philox(key=seed, counter=[p, q, c2, 0]))
    return [gen.random() for _ in range(4)]


@pytest.mark.parametrize(
    "seed", [0, 1, 2**31, 2**32 + 5, 2**63 + 5, 2**64 + 7, 2**100 + 3, 2**128 - 1]
)
def test_pair_uniforms_equal_numpy_philox(seed):
    # every counter (p, q) of m=64, index 0 and the diagonal included
    i, j = np.divmod(np.arange(64 * 64), 64)
    got = compact._pair_uniforms(seed, i, j)
    assert got.dtype == np.float64 and got.shape == i.shape + (4,)
    want = np.array([_philox_uniforms(seed, p, q) for p, q in zip(i.tolist(), j.tolist())])
    assert np.array_equal(got, want)
    # later attempts read counter word c2 = 1, 2, ... of the same key
    for c2 in (1, 2, 7):
        got_c2 = compact._pair_uniforms(seed, i[::61], j[::61], c2)
        want = [_philox_uniforms(seed, p, q, c2) for p, q in zip(i[::61].tolist(), j[::61].tolist())]
        assert np.array_equal(got_c2, np.array(want))
        assert not np.any(got_c2 == got[::61])
    # all 4096 ordered pairs as the oracle draws them: the pair's first
    # uniform for p <= q, its second for p > q
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    ordered = compact._pair_uniforms(seed, lo, hi)[np.arange(i.size), (i > j).astype(int)]
    want = [
        _philox_uniforms(seed, min(p, q), max(p, q))[p > q] for p, q in zip(i.tolist(), j.tolist())
    ]
    assert np.array_equal(ordered, np.array(want))
    assert not np.array_equal(got[:, 0], got[:, 1])
    # batch shape is kept
    upper, lower = np.triu_indices(64, k=1)
    block = compact._pair_uniforms(seed, np.stack([upper, lower]), np.stack([lower, upper]))
    assert block.shape == (2, upper.size, 4)
    assert np.array_equal(block[0], compact._pair_uniforms(seed, upper, lower))


def test_pair_uniforms_reject_seeds_outside_the_philox_key_range():
    for seed in (-1, 2**128):
        with pytest.raises(ValueError):
            np.random.Philox(key=seed)
        with pytest.raises(ValueError):
            compact._pair_uniforms(seed, np.array([0]), np.array([1]))
    with pytest.raises(ValueError):
        compact._pair_uniforms(0, np.array([-1]), np.array([1]))


def test_build_matrix_estimated_is_symmetric_and_close():
    rng = np.random.default_rng(13)
    ds = _dataset(rng, 10, 2)
    kern = wendland(3, 2, alpha=0.8)
    built = compact.build_matrix(ds, CompactOracleConfig(kernel=kern, ae_bits=10, seed=3))
    dense = built.toarray()
    assert np.array_equal(dense, dense.T)
    # amplitude error passes through the distance and the profile Lipschitz
    # constant, so only a loose entrywise tolerance is meaningful here
    exact = kern.eval(interp.pair_distance(ds.sites[:, None, :], ds.sites[None, :, :]))
    assert np.max(np.abs(dense - exact)) <= 0.05
    more = compact.build_matrix(ds, CompactOracleConfig(kernel=kern, ae_bits=14, seed=3))
    assert np.max(np.abs(more.toarray() - exact)) < np.max(np.abs(dense - exact))


def test_prepare_phi_state_returns_the_unit_state_and_norm():
    rng = np.random.default_rng(17)
    ds = _dataset(rng, 9, 2)
    kern = wendland(3, 2, alpha=1.2)
    cfg = CompactOracleConfig(kernel=kern)
    x = np.zeros(2)
    state, norm = compact.prepare_phi_state(x, ds, cfg)
    phi = interp.basis_vector(ds, kern, x)
    assert np.allclose(state, phi / np.linalg.norm(phi), rtol=1e-14)
    assert norm == np.linalg.norm(phi)


def test_prepare_phi_state_empty_support():
    ds = interp.DataSet(np.array([[0.0, 0.0], [0.1, 0.0]]), np.array([1.0, 2.0]))
    cfg = CompactOracleConfig(kernel=wendland(3, 2, alpha=0.3))
    with pytest.raises(ValueError):
        compact.prepare_phi_state(np.array([5.0, 5.0]), ds, cfg)


def test_solve_compact_exact_recovers_classical_solution():
    rng = np.random.default_rng(19)
    ds = _dataset(rng, 14, 2)
    rep = compact.solve_compact(ds, CompactOracleConfig(kernel=wendland(3, 2, alpha=0.9)))
    assert rep.matrix_error == 0.0
    assert rep.fidelity_vs_exact_solution > 1.0 - 1e-10
    assert rep.solve.fidelity_vs_classical > 1.0 - 1e-10
    assert rep.sparsity >= 1


def test_solve_compact_estimated_stays_close():
    rng = np.random.default_rng(23)
    ds = _dataset(rng, 12, 2)
    cfg = CompactOracleConfig(kernel=wendland(3, 2, alpha=0.7), ae_bits=12, seed=5)
    rep = compact.solve_compact(ds, cfg)
    assert rep.matrix_error > 0.0
    # taken from the stored differences, it is the dense Frobenius norm up to summation order
    gap = compact.build_matrix(ds, cfg, normalized=True).toarray() - interp.assemble(
        ds, cfg.kernel, normalized=True).toarray()
    assert rep.matrix_error == pytest.approx(np.linalg.norm(gap, "fro"), rel=1e-14)
    assert rep.fidelity_vs_exact_solution > 0.999
    # a caller's exact system gives the same report as the one built inside
    exact = interp.exact_system(ds, cfg.kernel, normalized=True)
    shared = compact.solve_compact(ds, cfg, exact=exact)
    assert shared.solve.to_dict() == rep.solve.to_dict()
    for name in ("sparsity", "matrix_error", "fidelity_vs_exact_solution"):
        assert getattr(shared, name) == getattr(rep, name)


# a second value of every CompactOracleConfig field, against kernel wendland(3, 2, 0.7),
# ae_bits 8 and seed 0
_FIELD_VALUES = {"kernel": wendland(3, 2, alpha=0.5), "ae_bits": None, "seed": 1}


@pytest.mark.parametrize("name", list(_FIELD_VALUES))
def test_no_oracle_config_field_is_inert(name):
    """Each field, set to a second value, moves the oracle matrix by more than rounding."""
    assert set(_FIELD_VALUES) == {field.name for field in dataclasses.fields(CompactOracleConfig)}
    ds = _dataset(np.random.default_rng(29), 12, 2)
    base = {"kernel": wendland(3, 2, alpha=0.7), "ae_bits": 8, "seed": 0}
    a, b = (compact.build_matrix(ds, CompactOracleConfig(**cfg)).toarray()
            for cfg in (base, {**base, name: _FIELD_VALUES[name]}))
    assert not np.allclose(a, b, rtol=1e-9, atol=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        CompactOracleConfig(kernel=wendland(3, 2, alpha=0.5), ae_bits=0)
    with pytest.raises(ValueError):
        CompactOracleConfig(kernel=wendland(3, 2, alpha=0.5), ae_bits=99)
    from qrbf.kernels import gaussian

    with pytest.raises(ValueError):
        CompactOracleConfig(kernel=gaussian(sigma=1.0))
