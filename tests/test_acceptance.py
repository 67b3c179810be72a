"""Acceptance gate: ten quantitative criteria, one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
report lines; each test fails loudly if its bound is violated.
"""

import functools
import math
import time

import numpy as np

from qrbf import coherent, compact, harness, kernels, qcore, qinvert
from qrbf import interpolation as interp


# one line per criterion; conftest echoes these in the terminal summary so
# they survive pytest's output capture on passing tests
REPORT_LINES = []


def _report(num, label, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    line = f"criterion {num} ({label}): {tag}"
    if detail:
        line += f" [{detail}]"
    print(line, flush=True)
    REPORT_LINES.append(line)
    return ok


def _random_density(rng, dim, rank=3):
    rho = np.zeros((dim, dim), dtype=complex)
    w = rng.uniform(0.2, 1.0, rank)
    w /= w.sum()
    for p in w:
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        rho += p * np.outer(v, v.conj())
    return rho


def test_criterion_01_truncation_bound():
    """Truncated-state distance stays below sqrt(2 ratio^(2N) / N!) on the grid.

    The distance to the exact state is coherent.truncation_error's closed form.
    """
    start = time.perf_counter()
    worst = 0.0
    ok = True
    for ratio in np.arange(0.0, 2.0 + 1e-9, 0.25):
        for order in range(2, 31):
            measured = float(coherent.truncation_error(float(ratio), 1.0, order))
            bound = coherent.truncation_bound(float(ratio), 1.0, order)
            if measured > bound + 1e-15:
                ok = False
            if bound > 0:
                worst = max(worst, measured / bound)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    assert _report(1, "truncation bound", ok,
                   f"261 grid points, worst measured/bound {worst:.3f}, {elapsed:.2f}s")


def test_criterion_02_gram_construction():
    """Frobenius and entrywise deviations within 2*d*delta; partial trace to 1e-12."""
    rng = np.random.default_rng(2)
    ok = True
    for _ in range(50):
        m = int(rng.integers(2, 11))
        d = int(rng.integers(1, 4))
        sigma = float(rng.uniform(0.5, 1.2))
        order = int(rng.integers(4, 13))
        ds = interp.DataSet(rng.uniform(-1.0, 1.0, size=(m, d)), rng.standard_normal(m))
        rep = coherent.gram_report(ds, sigma, order)
        # entry_bound is 2 d delta / m because entries carry the 1/m scale
        if rep.frobenius_error > rep.frobenius_bound or rep.entry_max_error > rep.entry_bound:
            ok = False
    worst_dev = 0.0
    for _ in range(5):
        m = int(rng.integers(2, 5))
        d = int(rng.integers(1, 3))
        order = int(rng.integers(3, 7))
        ds = interp.DataSet(rng.uniform(-0.9, 0.9, size=(m, d)), rng.standard_normal(m))
        # |Psi> = m^{-1/2} sum_j |j>|psi_j>, its encoding register traced out
        psi = np.stack([functools.reduce(np.kron, [coherent.coherent_state(v, 0.8, order) for v in x])
                        for x in ds.sites]) / math.sqrt(m)
        dev = float(np.max(np.abs(psi @ psi.T - coherent.gram_coherent(ds, 0.8, order).data)))
        worst_dev = max(worst_dev, dev)
    ok = ok and worst_dev <= 1e-12
    assert _report(2, "gram construction", ok,
                   f"50 datasets in budget, partial-trace dev {worst_dev:.2e}")


def test_criterion_03_lambda_max_cap():
    """Normalized Gaussian matrices keep lambda_max <= 1 + 1e-12."""
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 13))
        d = int(rng.integers(1, 4))
        sigma = float(rng.uniform(0.3, 1.5))
        ds = interp.DataSet(rng.uniform(-1.0, 1.0, size=(m, d)), rng.standard_normal(m))
        mat = interp.assemble(ds, kernels.gaussian(sigma=sigma), normalized=True)
        worst = max(worst, interp.spectrum(mat).lambda_max)
    ok = worst <= 1.0 + 1e-12
    assert _report(3, "spectral cap", ok, f"max lambda_max over 100 datasets {worst:.15f}")


def test_criterion_04_exponentiation_scaling():
    """Multi-step error slope -1 +- 0.2 in l; single-step slope 2 +- 0.2 in dt."""
    rng = np.random.default_rng(4)
    ls = np.array([8, 16, 32, 64, 128, 256, 512])
    ok = True
    slopes = []
    for pair in range(3):
        A = _random_density(rng, 4, rank=4)
        rho = _random_density(rng, 4, rank=2)
        for t in (0.5, 1.0, 2.0):
            errs = np.array([qcore.dme_error(A, rho, t, int(l)) for l in ls])
            slope = float(np.polyfit(np.log(ls), np.log(errs), 1)[0])
            slopes.append(slope)
            if not -1.2 <= slope <= -0.8:
                ok = False
    dts = np.array([0.4, 0.2, 0.1, 0.05, 0.025])
    A = _random_density(rng, 4, rank=4)
    rho = _random_density(rng, 4, rank=2)
    errs = []
    for dt in dts:
        one = qcore.dme_step(A, rho, float(dt))
        ref = qcore.exact_conjugation(A, rho, float(dt))
        errs.append(qcore.trace_norm(one - ref))
    dt_slope = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    ok = ok and 1.8 <= dt_slope <= 2.2
    assert _report(4, "exponentiation scaling", ok,
                   f"step slopes {min(slopes):.3f}..{max(slopes):.3f}, dt slope {dt_slope:.3f}")


def test_criterion_05_ideal_inversion():
    """Fidelity, norm recovery, and the kappa^-2 acceptance floor on 100 systems."""
    rng = np.random.default_rng(5)
    ok = True
    worst_fid, worst_rel, worst_margin = 1.0, 0.0, math.inf
    for _ in range(100):
        m = int(rng.integers(2, 17))
        q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        w = rng.uniform(0.1, 1.0, m)
        A = 0.5 * ((q @ np.diag(w) @ q.T) + (q @ np.diag(w) @ q.T).T)
        y = rng.standard_normal(m)
        rep = qinvert.invert_ideal(interp.LinearSystem(A, y))
        c = np.linalg.solve(A, y)
        fid = abs(np.dot(c / np.linalg.norm(c), rep.state_out.real))
        rel = abs(rep.coeff_norm_est - np.linalg.norm(c)) / np.linalg.norm(c)
        eigs = np.linalg.eigvalsh(A)
        kappa = eigs[-1] / eigs[0]
        margin = rep.post_select_prob - kappa**-2
        worst_fid = min(worst_fid, fid)
        worst_rel = max(worst_rel, rel)
        worst_margin = min(worst_margin, margin)
        if fid < 1.0 - 1e-10 or rel > 1e-9 or margin < -1e-12:
            ok = False
    assert _report(5, "ideal inversion", ok,
                   f"min fidelity {worst_fid:.2e} offset from 1: {1 - worst_fid:.2e}, "
                   f"max norm rel err {worst_rel:.2e}, min acceptance margin {worst_margin:.2e}")


def test_criterion_06_quantized_inversion():
    """On-grid spectra match ideal mode; off-grid error falls ~1/t0 up to the bit floor."""
    A = np.diag([0.25, 0.5])
    y = np.array([0.6, 0.8])
    cfg = qinvert.InversionConfig(mode="quantized", evolution_time=8.0 * math.pi, clock_bits=3)
    on_grid = qinvert.invert_quantized(interp.LinearSystem(A, y), cfg).deviation_from_ideal
    ok = on_grid <= 1e-10

    rng = np.random.default_rng(6)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    w = np.array([0.23, 0.41, 0.77])  # generic, far from any clock grid
    B = q @ np.diag(w) @ q.T
    B = 0.5 * (B + B.T)
    yb = rng.standard_normal(3)
    t0s = [(2.0**k) * math.pi for k in range(3, 8)]
    devs = []
    for t0 in t0s:
        c = qinvert.InversionConfig(mode="quantized", evolution_time=t0, clock_bits=10)
        devs.append(qinvert.invert_quantized(interp.LinearSystem(B, yb), c).deviation_from_ideal)
    slope = float(np.polyfit(np.log(t0s), np.log(devs), 1)[0])
    ok = ok and -1.3 <= slope <= -0.7
    assert _report(6, "quantized inversion", ok,
                   f"on-grid deviation {on_grid:.2e}, t0 slope {slope:.3f}")


def test_criterion_07_perturbation_chain():
    """Coefficient-state shift bounded by 2 eps_A kappa^2 / ((1-gamma) lambda_max), with the
    inverse and eigenvalue-shift bounds, over the perturbation suite's seed-7 instances."""
    rows = harness.verify_bounds("perturbation", seed=7).rows
    chain = [row for row in rows if row["case"].endswith(" chain")]
    ok = len(chain) == 50 and all(row["passed"] for row in rows)
    worst_ratio = max(row["measured"] / row["bound"] for row in chain if row["bound"] > 0)
    assert _report(7, "perturbation chain", ok,
                   f"50 instances, worst measured/bound {worst_ratio:.3e}")


def test_criterion_08_swap_test_readout():
    """Analytic acceptance probability, binomial coverage, end-to-end budget."""
    ok = True
    for theta in (0.0, 0.3, 1.0, math.pi / 2):
        u = np.array([1.0, 0.0])
        v = np.array([math.cos(theta), math.sin(theta)])
        if qinvert.swap_test(u, v) != 0.5 + 0.5 * math.cos(theta) ** 2:
            ok = False

    p_true = 0.75
    hits = 0
    for seed in range(100):
        s = qinvert.sample_probability(p_true, 10**6, seed)
        if abs(s.estimate - p_true) <= s.half_width:
            hits += 1
    ok = ok and hits >= 99

    cfg = {
        "pipeline": "quantum-global",
        "seed": 3,
        "epsilon": 1e-2,
        "dataset": {"m": 8, "d": 2, "box": [0.0, 1.0], "target": "franke"},
        "kernel": {"family": "gaussian", "sigma": 0.15},
        "queries": {"n": 20},
    }
    summary = harness.run_pipeline(cfg).summary
    ok = ok and summary["all_within_budget"] and summary["n_queries"] == 20
    assert _report(8, "swap-test readout", ok,
                   f"coverage {hits}/100, end-to-end max |f_q - f_c| "
                   f"{summary['max_abs_err']:.2e}, all within 3x budget: "
                   f"{summary['all_within_budget']}")


def test_criterion_09_compact_pipeline():
    """Exact-oracle parity, distance recovery, estimation scaling, SPD table."""
    rng = np.random.default_rng(9)
    ds = interp.DataSet(rng.uniform(-1.0, 1.0, size=(14, 2)), rng.standard_normal(14))
    kern = kernels.wendland(3, 2, alpha=0.9)
    oracle = compact.CompactOracleConfig(kernel=kern)
    rep = compact.solve_compact(ds, oracle)
    # solve_compact inverts the assembled matrix itself in exact mode, so the
    # oracle build is compared with the assembler directly
    built = compact.build_matrix(ds, oracle, normalized=True)
    parity = np.array_equal(built.toarray(), interp.assemble(ds, kern, normalized=True).toarray())
    coeffs = interp.solve(built, ds.values / ds.m)
    ok = parity and rep.fidelity_vs_exact_solution >= 1.0 - 1e-10 and coeffs.residual <= 1e-9

    worst_dist = 0.0
    for _ in range(1000):
        x_i = rng.uniform(-3.0, 3.0, size=3)
        x_j = rng.uniform(-3.0, 3.0, size=3)
        got = compact.reconstruct_distance(x_i, x_j)
        worst_dist = max(worst_dist, abs(got - float(np.linalg.norm(x_i - x_j))))
    ok = ok and worst_dist <= 1e-12

    # median entrywise error over the upper-triangle pairs in the kernel's support
    bits_grid = list(range(4, 13))
    errs = []
    upper = np.triu_indices(ds.m, k=1)
    exact = kern.eval(interp.pair_distance(ds.sites[:, None, :], ds.sites[None, :, :]))[upper]
    support = exact != 0.0
    for bits in bits_grid:
        built = compact.build_matrix(
            ds, compact.CompactOracleConfig(kernel=kern, ae_bits=bits, seed=1)
        )
        errs.append(float(np.median(np.abs(built.toarray()[upper] - exact)[support])))
    slope = float(np.polyfit(np.log([2.0**-b for b in bits_grid]), np.log(errs), 1)[0])
    ok = ok and 0.7 <= slope <= 1.3

    spd_ok = True
    for (dw, kw) in kernels.WENDLAND_PAIRS:
        d_data = min(dw, 3)
        sites = np.random.default_rng(90 + dw * 10 + kw).uniform(0.0, 1.0, size=(12, d_data))
        dists = interp.pair_distance(sites[:, None, :], sites[None, :, :])
        nearest = np.where(np.eye(12, dtype=bool), np.inf, dists).min(axis=1)
        alpha = 2.0 * float(np.median(nearest))
        mat = kernels.wendland(dw, kw, alpha=alpha).eval(dists)
        if np.linalg.eigvalsh(mat)[0] <= 0.0:
            spd_ok = False
    ok = ok and spd_ok
    assert _report(9, "compact pipeline", ok,
                   f"fidelity gap {1 - rep.fidelity_vs_exact_solution:.2e}, "
                   f"distance err {worst_dist:.2e}, estimation slope {slope:.3f}, "
                   f"SPD table {'ok' if spd_ok else 'violated'}")


def test_criterion_10_determinism(tmp_path):
    """Suite reruns with the same seed produce byte-identical CSV reports."""
    out1, out2 = tmp_path / "a", tmp_path / "b"
    r1 = harness.verify_bounds("gram", seed=11, out_dir=str(out1))
    r2 = harness.verify_bounds("gram", seed=11, out_dir=str(out2))
    b1 = open(r1.files["csv"], "rb").read()
    b2 = open(r2.files["csv"], "rb").read()
    ok = b1 == b2 and len(b1) > 0
    body1 = harness.csv_body(r1.fieldnames, r1.rows)
    body2 = harness.csv_body(r2.fieldnames, r2.rows)
    ok = ok and body1 == body2
    assert _report(10, "determinism", ok, f"{len(r1.rows)} rows, {len(b1)} bytes identical")
