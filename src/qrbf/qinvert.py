"""Simulated quantum linear-system inversion with post-selected readout.

Given an `interpolation.LinearSystem` A c = y, A symmetric positive definite,
the simulated algorithm expands |y> in the eigenbasis of A, attaches an
ancilla rotated to amplitude C/lambda_j on each eigencomponent, and
post-selects the ancilla on 1.  The surviving state is proportional to
A^{-1} y, the post-selection probability p determines the normalization
factor F = sqrt(p), and the solution norm follows as ||c|| = F ||y|| / C.
Each decomposition of A is read from the system, which takes it at most once;
a system from `LinearSystem.perturbed` reads its factor and extremes from a
nearby matrix's system instead, and this module does not tell the two apart.

Two fidelity levels are provided.  `invert_ideal` applies the exact
map lambda -> C/lambda.  With no spectral floor that map is C A^{-1}
on all of |y>, so the state, p = C^2 ||A^{-1} y_hat||^2 and the
classical check all come from the system's factor (a dense Cholesky
or a sparse LDL^T), and of its spectrum only the extremes are read:
lambda_min for C and the repetition ledger, lambda_max for kappa.  From
`interpolation.LANCZOS_MIN_M` rows on the system takes them by Lanczos
through that same factor, so this path takes no dense eigendecomposition.
A floor projects onto the eigenvalues above it, which needs the
eigenbasis; only then does the report list all m eigenvalues.
`invert_quantized` models phase estimation with a b-bit clock register
(controlled powers of e^{iA t0 / 2^b}, inverse Fourier transform, rotation
keyed on the clock value, uncompute, post-select) by the filter it applies
in the eigenbasis: eigenvalue lambda reads clock cell k with the Fejer
weight F_T(phi - k), phi = lambda * t0 / (2 pi), one real weight per
eigenvalue and cell.  Spectra landing exactly on that integer grid
reproduce the ideal mode to rounding, generic spectra converge to it as
t0 grows.

Every path hands its results to one report builder, which derives
kappa_eff, the repetition ledger and the classical check; the inverted
state is `SolveReport.state_out`, a complex 1-D array.  The readout of
the interpolant f(x) = ||c|| * ||Phi(x)|| * <c|Phi(x)> is
`harness._readout`, which draws from this module's `swap_test` and
`sample_successes`.  The swap test only determines the magnitude
|<c|Phi(x)>|, so the readout's f_quantum is the sampled magnitude with
the sign of the exact overlap, and f_quantum_analytic uses the exact
signed overlap itself.  The swap probability of a real basis row is taken
in real arithmetic, with no complex copy of the row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from numbers import Integral

import numpy as np

from . import interpolation
from .interpolation import LinearSystem

_CLOCK_BITS_CAP = 10
MODES = ("ideal", "quantized")


@dataclass
class InversionConfig:
    """Knobs for the simulated inversion.

    The rotation amplitudes are C/lambda with C always the largest
    admissible value, since a smaller C only lowers p: lambda_min in ideal
    mode, the smallest clock cell above the floor in quantized mode.
    spectral_floor discards eigenvalues <= that value before
    inverting, trading accuracy for conditioning.  evolution_time and
    clock_bits only apply to quantized mode.
    """

    mode: str = "ideal"
    evolution_time: float | None = None
    clock_bits: int | None = None
    spectral_floor: float | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown inversion mode {self.mode!r}")
        if self.spectral_floor is not None and self.spectral_floor < 0:
            raise ValueError("spectral_floor must be nonnegative")


@dataclass
class SolveReport:
    """Everything observable about one simulated inversion.

    lambda_min is the smallest eigenvalue inverted (the smallest above the
    spectral floor), lambda_max the largest eigenvalue, and kappa_eff their
    ratio.  eigenvalues (all m, ascending) and kept (those above the floor)
    are None unless the inversion took the eigenbasis: a spectral floor or
    quantized mode.
    """

    mode: str
    lambda_min: float
    lambda_max: float
    overlaps: np.ndarray | None
    rotation_scale: float
    post_select_prob: float
    norm_factor: float
    coeff_norm_est: float
    state_out: np.ndarray
    fidelity_vs_classical: float
    repetitions_ledger: int
    kappa_eff: float
    eigenvalues: np.ndarray | None = None
    kept: np.ndarray | None = None
    spectral_floor: float | None = None
    evolution_time: float | None = None
    clock_bits: int | None = None
    deviation_from_ideal: float | None = None
    clock_leak: float | None = None

    def to_dict(self) -> dict:
        """JSON-ready fields: arrays as lists, the state as its real and imaginary parts.

        eigenvalues and kept are left out where the eigenbasis was not taken,
        and state_out_imag where every imaginary part is 0.0, as it is on
        every inversion path of a real system.
        """
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.eigenvalues is None:
            del out["eigenvalues"], out["kept"]
        state = out.pop("state_out")
        out = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in out.items()}
        out["state_out_real"] = state.real.tolist()
        if state.imag.any():
            out["state_out_imag"] = state.imag.tolist()
        # NaN when the matrix is not positive definite, written as null
        if math.isnan(self.fidelity_vs_classical):
            out["fidelity_vs_classical"] = None
        return out


def eigensolve(system: LinearSystem):
    """Ascending eigenvalues and orthonormal eigenvectors of a system's symmetric matrix."""
    return system.eigenbasis


def _rhs_norm(y) -> float:
    """||y||, which must be nonzero."""
    ynorm = float(np.linalg.norm(y))
    if ynorm == 0.0:
        raise ValueError("right-hand side must be nonzero")
    return ynorm


def _not_pd(lam_min, lam_max) -> interpolation.NotPositiveDefiniteError:
    """The error for a matrix of extreme eigenvalues lam_min, lam_max that cannot be
    inverted whole."""
    kappa = f"{lam_max / lam_min:.3e}" if lam_min > 0.0 else "inf"
    return interpolation.NotPositiveDefiniteError(
        f"the matrix to invert is not positive definite (lambda_min {lam_min:.3e}, "
        f"lambda_max {lam_max:.3e}, kappa {kappa}); set "
        "inversion.spectral_floor to invert on the eigenvalues above it"
    )


def _eigen_split(system: LinearSystem, config):
    """Eigenvalues w, eigenvectors u, overlaps beta of y_hat, the kept mask and ||y||.

    kept marks the eigenvalues above the spectral floor (above 0 with no
    floor, where a matrix that is not positive definite is refused).
    """
    w, u = eigensolve(system)
    ynorm = _rhs_norm(system.y)
    floor = config.spectral_floor
    if floor is None and w[0] <= 0.0:
        raise _not_pd(w[0], w[-1])
    kept = w > (0.0 if floor is None else floor)
    if not kept.any():
        raise ValueError(f"no eigenvalues above spectral floor {floor}")
    return w, u, u.T @ (system.y / ynorm), kept, ynorm


def solution_fidelity(c, state: np.ndarray) -> float:
    """|<c_hat|state>| with c_hat = c / ||c||: how well a unit state points along c."""
    return float(abs(np.vdot(c / np.linalg.norm(c), state)))


def _ideal_state(w, u, beta, kept) -> np.ndarray:
    """Unit vector along A^{-1} y on the kept eigencomponents."""
    raw = u[:, kept] @ (beta[kept] / w[kept])
    return raw / np.linalg.norm(raw)


def _report(system, config, lam_min, lam_max, ynorm, C, p, state, **named) -> SolveReport:
    """The report of one inversion; named carries mode, overlaps, the eigenvalues and
    kept mask where the eigenbasis was taken, and the quantized fields.

    lam_min is the smallest eigenvalue inverted, lam_max the largest eigenvalue.
    fidelity_vs_classical is |<c|state>| for the solution c of A c = y
    from the system's factor, NaN when A is not positive definite.
    """
    try:
        factor = system.factor
    except interpolation.NotPositiveDefiniteError:
        fidelity = math.nan
    else:
        fidelity = solution_fidelity(interpolation.factor_solve(factor, system.y), state)
    F = math.sqrt(p)
    return SolveReport(
        lambda_min=lam_min,
        lambda_max=lam_max,
        rotation_scale=C,
        post_select_prob=p,
        norm_factor=F,
        coeff_norm_est=F * ynorm / C,
        # complex even where the inversion is real: np.vdot rounds a real pair
        # differently, and solution_fidelity's bits would follow the dtype
        state_out=np.asarray(state, dtype=complex),
        fidelity_vs_classical=fidelity,
        repetitions_ledger=math.ceil(1.0 / lam_min),
        kappa_eff=lam_max / lam_min,
        spectral_floor=config.spectral_floor,
        **named,
    )


def invert_ideal(system: LinearSystem, config: InversionConfig | None = None) -> SolveReport:
    """Inversion with rotation amplitudes C/lambda_j on the exact spectrum.

    With no spectral floor the rotation reaches every eigencomponent, so
    the post-selected state is C A^{-1} y_hat: it comes from the system's
    factor, beside its extreme eigenvalues alone (no eigenbasis), and
    overlaps, eigenvalues and kept are None.  fidelity_vs_classical is
    then read from the same factor and is 1 to rounding by construction;
    the agreement with the eigenbasis map is what tests check.  A floor keeps the eigenbasis
    path, which projects onto the eigenvalues above it.

    post_select_prob is computed by amplitude arithmetic, never sampled
    here.  With C = lambda_min of the kept eigenvalues it is bounded
    below by 1/kappa^2.
    """
    config = config or InversionConfig()
    if config.spectral_floor is not None:
        w, u, beta, kept, ynorm = _eigen_split(system, config)
        lam = w[kept]
        C = float(lam.min())
        amp = C * beta[kept] / lam
        p = float(np.dot(amp, amp))
        return _report(system, config, C, float(w.max()), ynorm, C, p,
                       _ideal_state(w, u, beta, kept), mode="ideal", overlaps=beta,
                       eigenvalues=w, kept=kept)
    spec = system.spectrum
    ynorm = _rhs_norm(system.y)
    if spec.lambda_min <= 0.0:
        raise _not_pd(spec.lambda_min, spec.lambda_max)
    C = spec.lambda_min
    try:
        factor = system.factor
    except interpolation.NotPositiveDefiniteError as exc:
        raise _not_pd(spec.lambda_min, spec.lambda_max) from exc
    x = interpolation.factor_solve(factor, system.y / ynorm)
    xnorm = float(np.linalg.norm(x))
    # no eigenbasis on this path: no eigenvalue array, kept mask or overlaps
    return _report(system, config, C, spec.lambda_max, ynorm, C, (C * xnorm) ** 2,
                   x / xnorm, mode="ideal", overlaps=None)


def _fejer_weights(phi, T: int) -> np.ndarray:
    """Clock-cell distribution of phase estimation: one row of T cells per eigenphase.

    Cell k carries the Fejer weight sin^2(pi phi) / (T sin(pi (phi - k) / T))^2,
    whose numerator is common to the row and cancels in the normalisation.  A
    row with a non-finite weight sits on the grid: it is the indicator of its hit cell.
    """
    s = np.sin(math.pi * (phi[:, None] - np.arange(T)) / T)
    with np.errstate(divide="ignore"):
        weights = 1.0 / (s * s)
    hit = ~np.isfinite(weights.sum(axis=1))
    weights[hit] = np.isinf(weights[hit])
    return weights / weights.sum(axis=1, keepdims=True)


def invert_quantized(system: LinearSystem, config: InversionConfig) -> SolveReport:
    """Phase-estimation inversion with a 2^b-cell clock, computed as the filter it applies.

    Eigenvalue lambda of system.dense has clock phase phi = lambda t0 / (2 pi);
    cell k reads lambda_hat(k) = 2 pi k / t0 and rotates by r_k = C / lambda_hat(k)
    when k > 0 and lambda_hat is above the spectral floor, C the smallest such
    lambda_hat, so that no r_k exceeds 1.  Uncomputing the clock and projecting
    it onto 0 scales eigencomponent j by h_j = sum_k F_jk r_k, F from
    _fejer_weights; the variance v_j = sum_k F_jk (r_k - h_j)^2 is the
    accepted mass left off clock 0, reported as clock_leak.
    """
    if config.evolution_time is None or config.clock_bits is None:
        raise ValueError("quantized mode needs evolution_time and clock_bits")
    b = config.clock_bits
    if isinstance(b, bool) or not isinstance(b, Integral) or not 1 <= b <= _CLOCK_BITS_CAP:
        raise ValueError(f"clock_bits must be an integer in [1, {_CLOCK_BITS_CAP}], got {b!r}")
    b = int(b)
    t0 = float(config.evolution_time)
    if not t0 > 0:
        raise ValueError("evolution_time must be positive")

    w, u, beta, kept, ynorm = _eigen_split(system, config)
    T = 2**b
    phi = w * t0 / (2.0 * math.pi)
    if phi.min() < 0.0 or phi.max() >= T:
        raise ValueError(
            f"clock wraparound: eigenphases must lie in [0, {T}), got "
            f"[{phi.min():.4g}, {phi.max():.4g}]; reduce inversion.evolution_time or raise "
            "inversion.clock_bits"
        )

    floor = 0.0 if config.spectral_floor is None else config.spectral_floor
    lam_hat = 2.0 * math.pi * np.arange(T) / t0
    above = lam_hat > floor
    above[0] = False  # cell 0 reads lambda_hat = 0, never rotated
    if not above.any():
        raise ValueError("no clock cell above the spectral floor; reduce the floor")
    C = float(lam_hat[above].min())
    rot_amp = np.zeros(T)
    rot_amp[above] = C / lam_hat[above]

    F = _fejer_weights(phi, T)
    h = F @ rot_amp
    v = np.sum(F * (rot_amp - h[:, None]) ** 2, axis=1)
    survivor = h * beta
    norm = float(np.linalg.norm(survivor))
    if norm == 0.0:
        raise ValueError("post-selected state vanished; lower inversion.spectral_floor")
    leaked = float(np.dot(beta * beta, v))
    p = norm * norm + leaked
    clock_leak = leaked / p
    state = u @ (survivor / norm)

    # the ideal reference reuses this eigendecomposition: same kept set, C = lambda_min
    ideal = _ideal_state(w, u, beta, kept)
    phase_align = np.vdot(ideal, state)
    theta = np.angle(phase_align) if abs(phase_align) > 0 else 0.0
    deviation = float(np.linalg.norm(state * np.exp(-1j * theta) - ideal))
    return _report(
        system, config, float(w[kept].min()), float(w.max()), ynorm, C, p, state,
        mode="quantized",
        overlaps=beta,
        eigenvalues=w,
        kept=kept,
        evolution_time=t0,
        clock_bits=b,
        deviation_from_ideal=deviation,
        clock_leak=clock_leak,
    )


def invert(system: LinearSystem, config: InversionConfig) -> SolveReport:
    """Dispatch on config.mode."""
    if config.mode == "quantized":
        return invert_quantized(system, config)
    return invert_ideal(system, config)


@dataclass
class SampledProbability:
    estimate: float
    half_width: float
    successes: int
    samples: int


def sample_probability(p_true: float, n: int, seed) -> SampledProbability:
    """Estimate a probability from n seeded Bernoulli trials.

    The reported half-width 3*sqrt(p_hat(1-p_hat)/n) is a three-sigma
    normal-approximation confidence radius.
    """
    successes = int(sample_successes(p_true, n, np.random.default_rng(seed)))
    est = successes / n
    return SampledProbability(
        estimate=est,
        half_width=3.0 * math.sqrt(est * (1.0 - est) / n),
        successes=successes,
        samples=n,
    )


def sample_successes(p_true, n: int, rng):
    """Successes in n Bernoulli(p) trials for each entry p of p_true.

    One binomial draw per entry from rng, in entry order, so an array of
    probabilities draws exactly what a loop of scalar calls on the same
    generator would.
    """
    p = np.asarray(p_true, dtype=float)
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError("p_true must be in [0, 1]")
    if n < 1:
        raise ValueError("need at least one sample")
    return rng.binomial(n, p)


def swap_test(u, v):
    """Acceptance probability 1/2 + |<u|v>|^2 / 2 of the swap test, per row of v.

    v is one state or a stack of states along its last axis; u and every
    row of v must be unit norm.  Each row is reduced on its own, so a row's
    probability does not depend on the rows stacked with it.  A complex v
    is reduced in complex arithmetic.  A real v, such as a basis row, is
    reduced in real arithmetic with no complex copy: <u|v> = re + i im with
    re = sum Re(u) v and im = -sum Im(u) v, the latter taken only when u
    has a nonzero imaginary part; the two paths agree to a few ulp.
    """
    ua = np.asarray(u, dtype=complex).ravel()
    va = np.asarray(v)
    va = va.astype(complex if np.iscomplexobj(va) else float, copy=False)
    if va.shape[-1:] != ua.shape:
        raise ValueError("states must have equal dimension")
    if abs(np.linalg.norm(ua) - 1.0) > 1e-10:
        raise ValueError("u is not unit norm")
    if np.any(np.abs(np.linalg.norm(va, axis=-1) - 1.0) > 1e-10):
        raise ValueError("v is not unit norm")
    if np.iscomplexobj(va):
        return 0.5 + 0.5 * np.abs(np.add.reduce(ua.conj() * va, axis=-1)) ** 2
    re = np.add.reduce(ua.real * va, axis=-1)
    im = -np.add.reduce(ua.imag * va, axis=-1) if np.any(ua.imag) else 0.0
    return 0.5 + 0.5 * (re * re + im * im)

