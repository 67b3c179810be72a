"""Tests for the simulated linear-system inversion and readout primitives."""

import json
import math
import re

import numpy as np
import pytest
from scipy import sparse

from qrbf import compact, harness, interpolation, kernels, qinvert
from qrbf.interpolation import LinearSystem
from qrbf.qinvert import InversionConfig


def _random_spd(rng, m):
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    w = rng.uniform(0.1, 1.0, m)
    A = q @ np.diag(w) @ q.T
    return 0.5 * (A + A.T)


def test_eigensolve_ascending_and_symmetric_only():
    rng = np.random.default_rng(1)
    A = _random_spd(rng, 5)
    system = LinearSystem(A, np.ones(5))
    w, u = qinvert.eigensolve(system)
    assert qinvert.eigensolve(system) is system.eigenbasis  # taken once, kept on the system
    assert np.all(np.diff(w) >= 0)
    assert np.allclose(u @ np.diag(w) @ u.T, A, atol=1e-12)
    with pytest.raises(ValueError):
        qinvert.eigensolve(LinearSystem(np.array([[1.0, 2.0], [0.0, 1.0]]), np.ones(2)))


@pytest.mark.parametrize("matrix", [
    np.eye(3),
    sparse.csr_array(np.eye(3)),
    interpolation.InterpMatrix(np.eye(3), normalized=False),
], ids=["dense", "sparse", "interp-matrix"])
@pytest.mark.parametrize("config", [
    InversionConfig(),
    InversionConfig(spectral_floor=0.5),
    InversionConfig(mode="quantized", evolution_time=1.0, clock_bits=3),
], ids=["ideal", "floor", "quantized"])
def test_right_hand_side_of_the_wrong_size_is_refused_where_the_system_is_built(matrix, config):
    with pytest.raises(ValueError, match="matrix and right-hand side sizes disagree"):
        qinvert.invert(LinearSystem(matrix, np.ones(2)), config)


@pytest.mark.parametrize("config", [
    InversionConfig(),
    InversionConfig(spectral_floor=0.05),
    InversionConfig(mode="quantized", evolution_time=1.0, clock_bits=3),
], ids=["cholesky", "floor", "quantized"])
def test_state_out_is_a_complex_vector_on_every_path(config):
    """state_out is complex128 even where every inversion path computes it real.

    np.vdot of a real vector against a real state rounds differently from
    the same call against the state's complex copy, so a real state_out
    would move the bits of solution_fidelity, and with them every
    fidelity_vs_exact_solution a pipeline writes.
    """
    rng = np.random.default_rng(5)
    A, y = _random_spd(rng, 6), rng.standard_normal(6)
    rep = qinvert.invert(LinearSystem(A, y), config)
    # the Cholesky path alone reads no eigenbasis overlaps
    assert (rep.overlaps is None) == (config == InversionConfig())
    assert isinstance(rep.state_out, np.ndarray)
    assert rep.state_out.dtype == np.complex128 and rep.state_out.shape == (6,)
    assert not rep.state_out.imag.any()


def test_spectral_floor_keeps_the_eigenvalues_above_it():
    system = LinearSystem(np.diag([0.05, 0.2, 0.5, 1.0]), np.ones(4))
    rep = qinvert.invert_ideal(system, InversionConfig(spectral_floor=0.1))
    assert rep.kept.tolist() == [False, True, True, True]
    assert rep.kappa_eff == 5.0
    quantized = InversionConfig(mode="quantized", evolution_time=1.0, clock_bits=3,
                                spectral_floor=2.0)
    for invert, config in ((qinvert.invert_ideal, InversionConfig(spectral_floor=2.0)),
                           (qinvert.invert_quantized, quantized)):
        with pytest.raises(ValueError, match="no eigenvalues above spectral floor"):
            invert(system, config)


def test_ideal_inversion_diagonal_oracle():
    """A = diag(1/2, 1/4), y = e1: every report field is known in closed form."""
    A = np.diag([0.5, 0.25])
    y = np.array([1.0, 0.0])
    rep = qinvert.invert_ideal(LinearSystem(A, y))
    # C defaults to lambda_min = 1/4; the only overlap is with the 1/2 branch
    assert np.isclose(rep.rotation_scale, 0.25)
    assert np.isclose(rep.post_select_prob, 0.25)
    assert np.isclose(rep.norm_factor, 0.5)
    # ||A^-1 y|| = 2 recovered from F ||y|| / C
    assert np.isclose(rep.coeff_norm_est, 2.0, rtol=1e-12)
    assert rep.fidelity_vs_classical > 1.0 - 1e-12
    assert rep.repetitions_ledger == math.ceil(1.0 / 0.25)
    assert np.isclose(rep.kappa_eff, 2.0)
    # solution state is e1 up to sign
    assert np.isclose(abs(rep.state_out[0]), 1.0, atol=1e-12)


def test_ideal_inversion_random_spd_systems():
    for trial in range(20):
        rng = np.random.default_rng(500 + trial)
        m = int(rng.integers(2, 12))
        A = _random_spd(rng, m)
        y = rng.standard_normal(m)
        rep = qinvert.invert_ideal(LinearSystem(A, y))
        c = np.linalg.solve(A, y)
        chat = c / np.linalg.norm(c)
        fid = abs(np.dot(chat, rep.state_out.real))
        assert fid > 1.0 - 1e-10
        assert abs(rep.coeff_norm_est - np.linalg.norm(c)) <= 1e-9 * np.linalg.norm(c)
        # with C = lambda_min the acceptance rate is at least kappa^-2
        assert rep.post_select_prob >= rep.kappa_eff**-2 - 1e-12


def test_non_pd_matrix_names_its_spectrum_and_the_spectral_floor():
    a = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues -1 and 3
    match = (
        r"lambda_min -1\.000e\+00, lambda_max 3\.000e\+00, kappa inf\); "
        r"set inversion\.spectral_floor"
    )
    quantized = InversionConfig(mode="quantized", evolution_time=math.pi, clock_bits=4)
    for config in (InversionConfig(), quantized):
        with pytest.raises(interpolation.NotPositiveDefiniteError, match=match):
            qinvert.invert(LinearSystem(a, np.array([1.0, 0.0])), config)
    # the floor the message names is the fix
    rep = qinvert.invert(LinearSystem(a, np.array([1.0, 0.0])),
                         InversionConfig(spectral_floor=0.0))
    assert rep.kept.tolist() == [False, True]


def _log_spread_spd(rng, m):
    """Random SPD matrix with eigenvalues log-uniform in [1e-8, 1]."""
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    A = q @ np.diag(10.0 ** rng.uniform(-8.0, 0.0, m)) @ q.T
    return 0.5 * (A + A.T)


def _global_gram_system(monkeypatch):
    """The Gram matrix and right-hand side the seed-0 global-gram benchmark inverts."""
    caught = []
    invert = qinvert.invert

    def spy(system, cfg):
        caught.append((np.array(system.matrix.toarray()), np.array(system.y)))
        return invert(system, cfg)

    monkeypatch.setattr(qinvert, "invert", spy)
    harness.run_pipeline({
        "pipeline": "quantum-global",
        "seed": 0,
        "dataset": {"m": 512, "d": 2},
        "kernel": {"family": "gaussian", "sigma": 0.05},
        "inversion": {"mode": "ideal"},
        "queries": {"n": 20},
    })
    return caught[0]


def test_cholesky_path_matches_the_eigenbasis_path(monkeypatch):
    """With no floor, one Cholesky factor gives the eigenbasis map C/lambda_j.

    spectral_floor=0.0 keeps every eigenvalue of an SPD matrix but takes
    the eigenbasis path, so it is the reference.  fidelity_vs_classical on
    the Cholesky path reads its classical solution from the same factor and
    is 1 to rounding by construction: this agreement is the check it used
    to witness.  Measured worst cases over 3000 such systems: state 1.4,
    post_select_prob 7.6 and coeff_norm_est 4.1 times kappa u.
    """
    u = 2.0**-53
    systems = []
    for trial in range(40):
        rng = np.random.default_rng(900 + trial)
        m = int(rng.integers(2, 17))
        systems.append((_log_spread_spd(rng, m), rng.standard_normal(m)))
    systems.append(_global_gram_system(monkeypatch))
    assert systems[-1][0].shape == (512, 512)
    for A, y in systems:
        rep = qinvert.invert_ideal(LinearSystem(A, y))
        ref = qinvert.invert_ideal(LinearSystem(A, y), InversionConfig(spectral_floor=0.0))
        assert ref.kept.all() and ref.overlaps is not None
        tol = rep.kappa_eff * u
        assert np.max(np.abs(rep.state_out - ref.state_out)) <= 4 * tol
        assert math.isclose(rep.post_select_prob, ref.post_select_prob, rel_tol=16 * tol)
        assert math.isclose(rep.coeff_norm_est, ref.coeff_norm_est, rel_tol=16 * tol)
        # no eigenbasis on this path; the extremes are eigvalsh's below
        # LANCZOS_MIN_M rows, and Lanczos's within a few kappa u above
        assert rep.eigenvalues is None and rep.kept is None and rep.overlaps is None
        w = np.linalg.eigvalsh(A)
        if len(y) < interpolation.LANCZOS_MIN_M:
            assert (rep.lambda_min, rep.lambda_max) == (w[0], w[-1])
        else:
            assert math.isclose(rep.lambda_min, w[0], rel_tol=4 * tol)
            assert math.isclose(rep.lambda_max, w[-1], rel_tol=1e-12)
        assert rep.kappa_eff == rep.lambda_max / rep.lambda_min
    # the seed-0 benchmark Gram is ill-conditioned, so the tolerance has teeth
    assert rep.kappa_eff > 1e7


def test_ideal_inversion_without_floor_takes_eigenvalues_and_one_factor(factor_calls):
    rng = np.random.default_rng(5)
    A = _random_spd(rng, 6)
    rep = qinvert.invert_ideal(LinearSystem(A, rng.standard_normal(6)))
    assert factor_calls == {"eigvalsh": 1, "cho_factor": 1}
    assert rep.to_dict()["overlaps"] is None


def test_failed_cholesky_names_the_spectrum_and_the_spectral_floor(monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(interpolation, "cho_factor", fail)
    match = (
        r"lambda_min 2\.500e-01, lambda_max 5\.000e-01, kappa 2\.000e\+00\); "
        r"set inversion\.spectral_floor"
    )
    with pytest.raises(interpolation.NotPositiveDefiniteError, match=match) as info:
        qinvert.invert_ideal(LinearSystem(np.diag([0.5, 0.25]), np.array([1.0, 1.0])))
    # the system's plain Cholesky error, itself caused by the failed factorization
    assert isinstance(info.value.__cause__, interpolation.NotPositiveDefiniteError)
    assert isinstance(info.value.__cause__.__cause__, np.linalg.LinAlgError)
    # an estimated oracle matrix (positive definite here, kappa about 5)
    # whose sparse LDL^T fails adds the AE knob to the same message; the
    # exact system is factored before the failure is put in
    rng = np.random.default_rng(11)
    ds = interpolation.DataSet(rng.uniform(0.0, 1.0, (24, 2)), rng.standard_normal(24))
    cfg = compact.CompactOracleConfig(kernel=kernels.wendland(3, 2, alpha=0.2), ae_bits=8, seed=0)
    exact = interpolation.exact_system(ds, cfg.kernel, normalized=True)

    def fail_sparse(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(interpolation, "splu", fail_sparse)
    match = r"kappa \d\.\d{3}e\+00\); set inversion\.spectral_floor .*, or raise compact\.ae_bits"
    with pytest.raises(interpolation.NotPositiveDefiniteError, match=match) as info:
        compact.solve_compact(ds, cfg, exact=exact)
    assert isinstance(info.value.__cause__.__cause__.__cause__, RuntimeError)


def test_spectral_floor_projects_small_eigenvalues():
    A = np.diag([1e-6, 0.5, 1.0])
    y = np.ones(3) / math.sqrt(3.0)
    rep = qinvert.invert_ideal(LinearSystem(A, y), InversionConfig(spectral_floor=1e-3))
    assert np.array_equal(rep.kept, [False, True, True])
    assert np.isclose(rep.kappa_eff, 2.0)
    # output lives in the kept eigenspace
    assert abs(rep.state_out[0]) < 1e-12


def test_quantized_on_grid_matches_ideal():
    """Eigenphases on the clock grid reproduce the ideal branch exactly."""
    A = np.diag([0.25, 0.5])
    y = np.array([0.6, 0.8])
    cfg = InversionConfig(mode="quantized", evolution_time=8.0 * math.pi, clock_bits=3)
    rep = qinvert.invert_quantized(LinearSystem(A, y), cfg)
    assert rep.deviation_from_ideal <= 1e-10
    assert rep.clock_leak <= 1e-20
    ideal = qinvert.invert_ideal(LinearSystem(A, y))
    assert np.isclose(rep.post_select_prob, ideal.post_select_prob, rtol=1e-10)
    assert np.isclose(rep.coeff_norm_est, ideal.coeff_norm_est, rtol=1e-10)


def _deviation_from_separate_ideal(A, y, rep, floor):
    # a floor of 0 keeps the eigenbasis path, the one invert_quantized's reference takes
    floor = 0.0 if floor is None else floor
    config = InversionConfig(spectral_floor=floor)
    ideal = qinvert.invert_ideal(LinearSystem(A, y), config).state_out
    state = rep.state_out
    theta = np.angle(np.vdot(ideal, state))
    return float(np.linalg.norm(state * np.exp(-1j * theta) - ideal))


def test_quantized_deviation_shrinks_with_evolution_time():
    rng = np.random.default_rng(7)
    A = _random_spd(rng, 3)
    y = rng.standard_normal(3)
    w = np.linalg.eigvalsh(A)
    # no floor, and a floor that drops the smallest eigenvalue
    devs = []
    for floor in (None, 0.5 * (w[0] + w[1])):
        for k in (3, 5, 7):
            cfg = InversionConfig(mode="quantized", evolution_time=(2.0**k) * math.pi,
                                  clock_bits=10, spectral_floor=floor)
            rep = qinvert.invert_quantized(LinearSystem(A, y), cfg)
            assert rep.kept.sum() == (3 if floor is None else 2)
            # the reference built from the inversion's own eigendecomposition
            # is bit for bit the one a separate ideal inversion gives
            assert rep.deviation_from_ideal == _deviation_from_separate_ideal(A, y, rep, floor)
            if floor is None:
                devs.append(rep.deviation_from_ideal)
    assert devs[2] < devs[1] < devs[0]


def _walsh_hadamard(arr: np.ndarray) -> np.ndarray:
    """Orthonormal Hadamard transform along axis 0 (length a power of two)."""
    out = np.array(arr, dtype=complex)
    n = out.shape[0]
    trailing = out.shape[1:]
    h = 1
    while h < n:
        out = out.reshape(n // (2 * h), 2, h, *trailing)
        top = out[:, 0].copy()
        out[:, 0] = top + out[:, 1]
        out[:, 1] = top - out[:, 1]
        out = out.reshape(n, *trailing)
        h *= 2
    return out / math.sqrt(n)


def _reference_clock_zero(back):
    """Clock-0 row and leak from the full transform of the clock register.

    The leak is the mass on the other clock rows, measured directly, so a
    small leak keeps its relative precision.
    """
    joint = _walsh_hadamard(back)
    survivor = joint[0, :]
    leaked = float(np.sum(np.abs(joint[1:]) ** 2))
    return survivor, leaked / (leaked + float(np.sum(np.abs(survivor) ** 2)))


def _simulated_clock(system, cfg, rep):
    """Statevector simulation of the clock register: state, p and clock_leak.

    The reference for the closed form: H on the clock, controlled powers of
    e^{iA t0/T}, inverse QFT, rotation keyed on the clock cell, uncompute,
    and the clock projected onto 0 by a full Hadamard transform.  C and the
    overlaps are read from rep, the rotated cells rebuilt from the config.
    """
    T = 2**cfg.clock_bits
    t0 = cfg.evolution_time
    _, u = qinvert.eigensolve(system)
    k_grid = np.arange(T)
    phi = rep.eigenvalues * t0 / (2.0 * math.pi)
    lam_hat = 2.0 * math.pi * k_grid / t0
    C = rep.rotation_scale
    rotated = (k_grid > 0) & (lam_hat > (cfg.spectral_floor or 0.0)) & (lam_hat >= C)
    rot_amp = np.zeros(T)
    rot_amp[rotated] = C / lam_hat[rotated]
    phase = np.exp(2j * math.pi * np.outer(k_grid, phi) / T) / math.sqrt(T)
    g = np.fft.fft(phase * rep.overlaps[None, :], axis=0, norm="ortho")
    branch1 = g * rot_amp[:, None]
    p = float(np.sum(np.abs(branch1) ** 2))
    back = np.fft.ifft(branch1, axis=0, norm="ortho")
    back = back * np.exp(-2j * math.pi * np.outer(k_grid, phi) / T)
    survivor, leak = _reference_clock_zero(back)
    return u @ (survivor / np.linalg.norm(survivor)), p, leak


def _assert_matches_simulation(A, y, cfg):
    system = LinearSystem(A, y)
    rep = qinvert.invert_quantized(system, cfg)
    state, p, leak = _simulated_clock(system, cfg, rep)
    assert 1.0 - abs(np.vdot(state, rep.state_out)) <= 1e-14
    assert math.isclose(rep.post_select_prob, p, rel_tol=1e-10)
    # the simulated phases carry rounding of about eps * T, which floors the leak it resolves
    assert math.isclose(rep.clock_leak, leak, rel_tol=1e-10, abs_tol=1e-15)
    # the closed form is real: no phase is left to align
    assert not rep.state_out.imag.any()
    return rep


@pytest.mark.parametrize("bits", [3, 6, 10])
@pytest.mark.parametrize("on_grid", [True, False])
@pytest.mark.parametrize("floor", [False, True])
def test_clock_readout_matches_full_hadamard_transform(bits, on_grid, floor):
    T = 2**bits
    rng = np.random.default_rng(100 * bits + 10 * on_grid + floor)
    if on_grid:
        # eigenvalues k / T sit on clock cells k when t0 = 2 pi T
        A = np.diag(np.array([1, 2, 3, T - 1]) / T)
        t0 = 2.0 * math.pi * T
    else:
        A = _random_spd(rng, 5)
        t0 = 2.0 * math.pi * (T - 1) * rng.uniform(0.3, 0.95)
    y = rng.standard_normal(A.shape[0])
    w = np.linalg.eigvalsh(A)
    cfg = InversionConfig(mode="quantized", evolution_time=t0, clock_bits=bits,
                          spectral_floor=0.5 * (w[0] + w[1]) if floor else None)
    rep = _assert_matches_simulation(A, y, cfg)
    if on_grid:
        assert rep.clock_leak <= 1e-20
        assert rep.deviation_from_ideal <= 1e-10


def test_closed_form_matches_the_clock_simulation_on_random_systems():
    for trial in range(300):
        rng = np.random.default_rng(2000 + trial)
        m = int(rng.integers(2, 12))
        bits = int(rng.integers(3, 11))
        A = _random_spd(rng, m)
        y = rng.standard_normal(m)
        w = np.linalg.eigvalsh(A)
        t0 = 2.0 * math.pi * (2**bits - 1) / w[-1] * rng.uniform(0.3, 1.0)
        cfg = InversionConfig(mode="quantized", evolution_time=t0, clock_bits=bits,
                              spectral_floor=0.5 * (w[0] + w[1]) if trial % 2 else None)
        _assert_matches_simulation(A, y, cfg)


@pytest.mark.parametrize("bits", [3, 6, 10])
def test_near_grid_leak_keeps_its_relative_precision(bits):
    """Eigenphases delta off the grid leak in proportion to delta^2.

    1 - ||h beta||^2 / p would resolve such a leak only to float64 eps.
    """
    T = 2**bits
    y = np.array([0.3, -0.5, 0.7, 0.4])
    cfg = InversionConfig(mode="quantized", evolution_time=2.0 * math.pi * T, clock_bits=bits)
    leaks = []
    for delta in (1e-5, 1e-7):
        A = np.diag((np.array([1, 2, 3, T - 1]) + delta * np.array([1, -1, 0.5, -0.5])) / T)
        system = LinearSystem(A, y)
        rep = qinvert.invert_quantized(system, cfg)
        if delta == 1e-5:
            _, _, leak = _simulated_clock(system, cfg, rep)
            assert math.isclose(rep.clock_leak, leak, rel_tol=1e-8)
        leaks.append(rep.clock_leak)
    # where the simulated phases no longer resolve it, the closed form keeps the delta^2 law
    assert math.isclose(leaks[0], 1e4 * leaks[1], rel_tol=1e-4)


@pytest.mark.parametrize("offset", [0.0, 1e-12, 4e-16])
def test_fejer_weights_on_and_next_to_a_cell(offset):
    T = 8
    weights = qinvert._fejer_weights(np.array([3.0 + offset, 0.0, 5.5]), T)
    assert np.all(np.isfinite(weights))
    assert np.allclose(weights.sum(axis=1), 1.0, rtol=0.0, atol=1e-15)
    # phi = 0 is on cell 0, and an exact hit is the indicator of its cell
    assert weights[1].tolist() == [1.0] + [0.0] * (T - 1)
    if offset == 0.0:
        assert weights[0].tolist() == [0.0] * 3 + [1.0] + [0.0] * (T - 4)
    else:
        assert weights[0].argmax() == 3 and 1.0 - weights[0, 3] < 1e-20
    # off the grid, the Fejer kernel sin^2(pi phi) / (T sin(pi (phi - k) / T))^2 itself
    fejer = 1.0 / (T * np.sin(math.pi * (5.5 - np.arange(T)) / T)) ** 2
    assert np.allclose(weights[2], fejer, rtol=1e-14, atol=0.0)


def test_quantized_inversion_decomposes_once(factor_calls):
    rng = np.random.default_rng(7)
    A = _random_spd(rng, 3)
    y = rng.standard_normal(3)
    cfg = InversionConfig(mode="quantized", evolution_time=32.0 * math.pi, clock_bits=10)
    qinvert.invert_quantized(LinearSystem(A, y), cfg)
    # one eigh for the inversion and its ideal reference, one Cholesky for the classical check
    assert factor_calls == {"eigh": 1, "cho_factor": 1}


def test_quantized_wraparound_rejected():
    A = np.diag([0.25, 0.5])
    y = np.array([1.0, 0.0])
    # lambda_max t0 / 2pi = 8 is off the 3-bit grid [0, 8)
    cfg = InversionConfig(mode="quantized", evolution_time=32.0 * math.pi, clock_bits=3)
    with pytest.raises(ValueError):
        qinvert.invert_quantized(LinearSystem(A, y), cfg)


def test_quantized_clock_bits_cap_enforced():
    A = np.diag([0.25, 0.5])
    y = np.array([1.0, 0.0])
    cfg = InversionConfig(mode="quantized", evolution_time=8.0 * math.pi, clock_bits=12)
    with pytest.raises(ValueError):
        qinvert.invert_quantized(LinearSystem(A, y), cfg)


def test_invert_dispatches_on_mode():
    A = np.diag([0.25, 0.5])
    y = np.array([1.0, 0.0])
    assert qinvert.invert(LinearSystem(A, y), InversionConfig()).mode == "ideal"
    cfg = InversionConfig(mode="quantized", evolution_time=8.0 * math.pi, clock_bits=3)
    assert qinvert.invert(LinearSystem(A, y), cfg).mode == "quantized"


def test_report_serializes_to_json():
    A = np.diag([0.25, 0.5])
    rep = qinvert.invert_ideal(LinearSystem(A, np.array([1.0, 1.0])))
    out = json.loads(json.dumps(rep.to_dict()))
    assert out["mode"] == "ideal"
    assert (out["lambda_min"], out["lambda_max"]) == (0.25, 0.5)
    assert "eigenvalues" not in out and "kept" not in out
    assert isinstance(out["post_select_prob"], float)
    floor = qinvert.invert_ideal(LinearSystem(A, np.array([1.0, 1.0])),
                                 InversionConfig(spectral_floor=0.3))
    out = json.loads(json.dumps(floor.to_dict()))
    assert out["eigenvalues"] == [0.25, 0.5] and out["kept"] == [False, True]
    assert (out["lambda_min"], out["lambda_max"]) == (0.5, 0.5)


def test_config_validation():
    with pytest.raises(ValueError):
        InversionConfig(mode="other")
    with pytest.raises(ValueError):
        InversionConfig(spectral_floor=-1.0)


def test_sample_probability_concentrates_and_repeats():
    hits = 0
    for seed in range(50):
        s = qinvert.sample_probability(0.37, 40000, seed)
        if abs(s.estimate - 0.37) <= s.half_width:
            hits += 1
    assert hits >= 48  # three-sigma radius misses rarely
    a = qinvert.sample_probability(0.5, 1000, 123)
    b = qinvert.sample_probability(0.5, 1000, 123)
    assert a.successes == b.successes


def test_sample_probability_validation():
    with pytest.raises(ValueError):
        qinvert.sample_probability(1.5, 10, 0)
    with pytest.raises(ValueError):
        qinvert.sample_probability(0.5, 0, 0)


def test_swap_test_known_cases():
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    assert qinvert.swap_test(e1, e2) == 0.5
    assert qinvert.swap_test(e1, e1) == 1.0
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert np.isclose(qinvert.swap_test(e1, plus), 0.75)
    # complex phases leave the acceptance probability unchanged
    assert np.isclose(qinvert.swap_test(e1 * 1j, plus), 0.75)
    with pytest.raises(ValueError):
        qinvert.swap_test(e1, 2.0 * e2)


def test_swap_test_rows_equal_single_calls_and_each_row_is_checked():
    rng = np.random.default_rng(17)
    u = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    u /= np.linalg.norm(u)
    v = rng.standard_normal((5, 6))
    v /= np.linalg.norm(v, axis=1)[:, None]
    batched = qinvert.swap_test(u, v)
    assert batched.shape == (5,)
    for k in range(5):
        assert batched[k] == qinvert.swap_test(u, v[k])
        assert np.isclose(batched[k], 0.5 + 0.5 * abs(np.vdot(u, v[k])) ** 2, rtol=1e-14)
    v[3] *= 1.1
    with pytest.raises(ValueError, match="v is not unit norm"):
        qinvert.swap_test(u, v)


@pytest.mark.parametrize("complex_u", [False, True], ids=["real u", "complex u"])
@pytest.mark.parametrize("m", [2, 8, 64, 513])
def test_swap_test_of_real_rows_matches_their_complex_copy(m, complex_u):
    """A real stack is reduced in real arithmetic; its sums block differently from the
    complex ones, so the two agree to a few ulp rather than bit for bit."""
    rng = np.random.default_rng(m)
    u = rng.standard_normal(m) + (1j * rng.standard_normal(m) if complex_u else 0j)
    u /= np.linalg.norm(u)
    v = rng.standard_normal((40, m))
    v /= np.linalg.norm(v, axis=1)[:, None]
    real, cplx = qinvert.swap_test(u, v), qinvert.swap_test(u, v.astype(complex))
    assert real.dtype == cplx.dtype == np.float64
    assert np.all(np.abs(real - cplx) <= 4 * np.spacing(np.maximum(real, cplx)))


def test_swap_test_refuses_a_non_unit_real_row_as_its_complex_copy():
    u = np.array([1.0, 0.0, 0.0])
    v = np.array([[0.6, 0.8, 0.0], [0.6, 0.8, 0.1]])
    for rows in (v, v.astype(complex)):
        with pytest.raises(ValueError, match="^v is not unit norm$"):
            qinvert.swap_test(u, rows)


def test_sample_successes_draws_like_a_scalar_loop_and_checks_every_entry():
    p = np.array([0.5, 0.9, 0.0, 1.0, 0.62])
    got = qinvert.sample_successes(p, 1000, np.random.default_rng(4))
    ref = np.random.default_rng(4)
    assert got.tolist() == [ref.binomial(1000, float(q)) for q in p]
    for bad in (np.array([0.5, 1.5]), np.array([-0.1, 0.5]), np.array([0.5, np.nan])):
        with pytest.raises(ValueError):
            qinvert.sample_successes(bad, 10, np.random.default_rng(0))
    with pytest.raises(ValueError):
        qinvert.sample_successes(p, 0, np.random.default_rng(0))


@pytest.mark.parametrize("bits", [3.7, 3.0, True, "3", 0, 11])
def test_clock_bits_that_are_not_an_integer_in_range_are_refused(bits):
    """No truncation: 3.7 is not a 3-bit clock, and a bool is not a 1-bit one."""
    cfg = InversionConfig(mode="quantized", evolution_time=8.0 * math.pi, clock_bits=bits)
    with pytest.raises(ValueError, match=re.escape(
            f"clock_bits must be an integer in [1, 10], got {bits!r}")):
        qinvert.invert_quantized(LinearSystem(np.diag([0.25, 0.5]), np.array([0.6, 0.8])), cfg)


def test_a_numpy_integer_clock_runs_the_clock_of_its_int():
    system = LinearSystem(np.diag([0.25, 0.5]), np.array([0.6, 0.8]))
    reports = [qinvert.invert_quantized(system, InversionConfig(
        mode="quantized", evolution_time=8.0 * math.pi, clock_bits=bits))
        for bits in (3, np.int64(3))]
    # json.dumps refuses a numpy integer: the report holds an int
    assert json.dumps(reports[0].to_dict()) == json.dumps(reports[1].to_dict())
