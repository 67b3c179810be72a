"""Tests for states and swap-based matrix exponentiation."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from qrbf import qcore


def _random_state(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _random_density(rng, dim, rank=2):
    rho = np.zeros((dim, dim), dtype=complex)
    w = rng.uniform(0.2, 1.0, rank)
    w /= w.sum()
    for p in w:
        v = _random_state(rng, dim)
        rho += p * np.outer(v, v.conj())
    return rho


# dme_step's reference, the explicit swap conjugation, and the two tests below check it
def _swap(m):
    """Permutation matrix exchanging two m-dimensional registers: S (u (x) v) = v (x) u."""
    return np.eye(m * m).reshape(m, m, m, m).transpose(1, 0, 2, 3).reshape(m * m, m * m)


def _swap_exponential(m, dt):
    """e^{-iS dt} = cos(dt) I - i sin(dt) S, exact because S^2 = I."""
    return math.cos(dt) * np.eye(m * m) - 1j * math.sin(dt) * _swap(m)


def test_swap_operator_properties():
    for m in (2, 3, 5):
        S = _swap(m)
        assert np.array_equal(S @ S, np.eye(m * m))
        rng = np.random.default_rng(m)
        u, v = _random_state(rng, m), _random_state(rng, m)
        assert np.allclose(S @ np.kron(u, v), np.kron(v, u), atol=1e-15)


def test_swap_exponential_is_cos_sin_combination():
    m, dt = 3, 0.37
    S = _swap(m)
    U = _swap_exponential(m, dt)
    direct = expm(-1j * dt * S)
    assert np.allclose(U, direct, atol=1e-12)
    assert np.allclose(U @ U.conj().T, np.eye(m * m), atol=1e-13)


def test_dme_step_matches_kron_conjugation():
    """Closed form equals tracing out the ancilla after the swap rotation."""
    rng = np.random.default_rng(11)
    m, dt = 3, 0.21
    A = _random_density(rng, m, rank=3)
    rho = _random_density(rng, m, rank=2)
    got = qcore.dme_step(A, rho, dt)

    U = _swap_exponential(m, dt)
    joint = U @ np.kron(A, rho) @ U.conj().T
    want = joint.reshape(m, m, m, m).trace(axis1=0, axis2=2)  # trace out the first register
    assert np.allclose(got, want, atol=1e-13)


def _stepped_evolve(a_op, rho, t, l):
    """Reference channel: l calls of dme_step of length t/l."""
    for _ in range(l):
        rho = qcore.dme_step(a_op, rho, t / l)
    return rho


def test_dme_evolve_matches_stepped_reference():
    """The closed form is the stepped channel to rounding, over 300 random systems."""
    rng = np.random.default_rng(37)
    worst = 0.0
    for _ in range(300):
        m = int(rng.integers(2, 9))
        A = _random_density(rng, m, rank=int(rng.integers(1, m + 1)))
        rho = _random_density(rng, m, rank=int(rng.integers(1, m + 1)))
        t = float(rng.uniform(0.1, 3.0))
        l = int(rng.integers(1, 601))
        got = qcore.dme_evolve(A, rho, t, l)
        worst = max(worst, float(np.max(np.abs(got - _stepped_evolve(A, rho, t, l)))))
    assert worst <= 1e-13


def test_dme_evolve_single_step_is_dme_step():
    rng = np.random.default_rng(41)
    for m in (2, 3, 5, 8):
        A = _random_density(rng, m, rank=m)
        rho = _random_density(rng, m, rank=2)
        for dt in (1e-3, 0.2, 1.5):
            got = qcore.dme_evolve(A, rho, dt, 1)
            assert np.allclose(got, qcore.dme_step(A, rho, dt), rtol=0, atol=1e-15)


def test_dme_fixed_point():
    """rho = A is returned exactly for every step size."""
    rng = np.random.default_rng(13)
    A = _random_density(rng, 4, rank=4)
    for t, l in ((1.3, 7), (0.5, 1), (2.0, 100000)):
        assert np.array_equal(qcore.dme_evolve(A, A, t=t, l=l), A)


def test_dme_channel_returns_complex_square_arrays():
    """Real symmetric inputs come back as complex (m, m) arrays from every channel."""
    rng = np.random.default_rng(53)
    A = _random_density(rng, 3, rank=3).real
    rho = _random_density(rng, 3, rank=2).real
    for out in (qcore.dme_step(A, rho, 0.3), qcore.dme_evolve(A, rho, 1.0, 4),
                qcore.exact_conjugation(A, rho, 1.0)):
        assert isinstance(out, np.ndarray)
        assert out.dtype == np.complex128 and out.shape == (3, 3)


def test_dme_channel_refuses_a_non_hermitian_operator():
    rng = np.random.default_rng(43)
    A = _random_density(rng, 3, rank=3)
    A[0, 1] += 1e-6
    rho = _random_density(rng, 3, rank=2)
    for call in (
        lambda: qcore.dme_evolve(A, rho, 1.0, 8),
        lambda: qcore.dme_error(A, rho, 1.0, 8),
        lambda: qcore.exact_conjugation(A, rho, 1.0),
    ):
        with pytest.raises(ValueError, match=r"not hermitian: max asymmetry 1\.000e-06"):
            call()
    # asymmetry at rounding level of the largest entry passes
    A[0, 1] -= 1e-6
    A[1, 0] += 1e-13 * np.max(np.abs(A))
    qcore.dme_evolve(A, rho, 1.0, 8)


def test_dme_error_decomposes_the_operator_once(monkeypatch):
    rng = np.random.default_rng(47)
    A = _random_density(rng, 4, rank=4)
    rho = _random_density(rng, 4, rank=2)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
    err = qcore.dme_error(A, rho, 1.0, 10**6)
    assert len(calls) == 1
    assert 0.0 < err < 1e-5


def test_exact_conjugation_matches_expm():
    rng = np.random.default_rng(17)
    A = _random_density(rng, 4, rank=4)
    A = 0.5 * (A + A.conj().T)
    rho = _random_density(rng, 4, rank=2)
    t = 0.9
    got = qcore.exact_conjugation(A, rho, t)
    U = expm(-1j * t * A)
    want = U @ rho @ U.conj().T
    assert np.allclose(got, want, atol=1e-12)


def test_trace_norm_of_hermitian_matrix():
    w = np.array([0.5, -0.2, 0.1])
    rng = np.random.default_rng(19)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    M = q @ np.diag(w) @ q.T
    assert np.isclose(qcore.trace_norm(M), np.sum(np.abs(w)), rtol=1e-12)


def test_dme_error_shrinks_linearly_in_steps():
    rng = np.random.default_rng(23)
    A = _random_density(rng, 3, rank=3)
    rho = _random_density(rng, 3, rank=2)
    t = 1.0
    errs = [qcore.dme_error(A, rho, t, l) for l in (8, 16, 32, 64, 128)]
    assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
    # halving the error when doubling l, within 20 percent
    ratios = [e1 / e2 for e1, e2 in zip(errs, errs[1:])]
    assert all(1.6 < r < 2.4 for r in ratios)


def test_dme_single_step_is_second_order_in_dt():
    rng = np.random.default_rng(29)
    A = _random_density(rng, 3, rank=3)
    rho = _random_density(rng, 3, rank=2)
    errs = []
    for dt in (0.2, 0.1, 0.05):
        one = qcore.dme_step(A, rho, dt)
        ref = qcore.exact_conjugation(A, rho, dt)
        errs.append(qcore.trace_norm(one - ref))
    ratios = [e1 / e2 for e1, e2 in zip(errs, errs[1:])]
    assert all(3.4 < r < 4.6 for r in ratios)  # quadratic: factor 4 per halving


def _dme_scaling(a_op, rho, t_values, l_values) -> list:
    """Step-error table over a (t, l) grid, one dict per cell.

    Keys t, l, trace_error and frobenius_error; the Frobenius norm never
    exceeds the trace norm, and both shrink like 1/l at fixed t.
    """
    rows = []
    for t in t_values:
        exact = qcore.exact_conjugation(a_op, rho, float(t))
        for l in l_values:
            diff = qcore.dme_evolve(a_op, rho, float(t), int(l)) - exact
            rows.append(
                {
                    "t": float(t),
                    "l": int(l),
                    "trace_error": qcore.trace_norm(diff),
                    "frobenius_error": float(np.linalg.norm(diff, "fro")),
                }
            )
    return rows


def test_dme_scaling_table(tmp_path):
    from qrbf import harness

    rng = np.random.default_rng(31)
    A = _random_density(rng, 3, rank=3)
    rho = _random_density(rng, 3, rank=2)
    ts, ls = (0.5, 1.0), (8, 16, 32)
    rows = _dme_scaling(A, rho, ts, ls)
    assert len(rows) == len(ts) * len(ls)
    for row in rows:
        assert row["trace_error"] == qcore.dme_error(A, rho, row["t"], row["l"])
        assert 0.0 < row["frobenius_error"] <= row["trace_error"]
    # both norms keep the 1/l scaling at fixed t
    by_t = {t: [r for r in rows if r["t"] == t] for t in ts}
    for t in ts:
        tr = [r["trace_error"] for r in by_t[t]]
        fr = [r["frobenius_error"] for r in by_t[t]]
        assert all(1.6 < a / b < 2.4 for a, b in zip(tr, tr[1:]))
        assert all(1.6 < a / b < 2.4 for a, b in zip(fr, fr[1:]))

    path = tmp_path / "dme_scaling.csv"
    harness.write_csv(path, ["t", "l", "trace_error", "frobenius_error"], rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,l,trace_error,frobenius_error"
    assert len(lines) == 1 + len(rows)
    first = lines[1].split(",")
    assert float(first[0]) == 0.5 and int(first[1]) == 8
    assert float(first[2]) == rows[0]["trace_error"]
