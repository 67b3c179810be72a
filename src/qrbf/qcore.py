"""State containers and the density-matrix exponentiation channel.

The key primitive simulates applying e^{-iAt} when A itself is only
available as a quantum state: conjugate A (x) rho by the partial swap
e^{-iS dt} and trace out the first register,

    tr_1[ e^{-iS dt} (A (x) rho) e^{+iS dt} ]
        = cos^2(dt) rho + sin^2(dt) A - i sin(dt) cos(dt) [A, rho]
        = rho - i dt [A, rho] + O(dt^2),

which is one Euler step of the Liouville equation.  The closed form on
the right is exact (S squares to the identity, so its exponential is
cos(dt) I - i sin(dt) S) and is what `dme_step` computes; the tensor
route is kept in the tests as an independent check.  Composing l steps
of length t/l approaches e^{-iAt} rho e^{iAt} with error O(t^2/l).

The step fixes A and, in A's eigenbasis A = U diag(w) U^dagger, scales
entry (j, k) of rho - A by mu_jk = cos(dt) (cos(dt) - i sin(dt) (w_j - w_k)).
`dme_evolve` therefore computes the l-step channel exactly as
A + U (mu^l o U^dagger (rho - A) U) U^dagger: one eigendecomposition and
O(m^2) work at any l.  The stepped loop is kept in the tests as the
reference.

Errors between density matrices are measured in the trace norm (sum of
singular values of the difference).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class PureState:
    """Complex amplitude vector over a tensor product of registers."""

    amplitudes: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex).ravel()
        self.dims = tuple(int(d) for d in self.dims)
        if self.amplitudes.shape[0] != math.prod(self.dims):
            raise ValueError(
                f"amplitude length {self.amplitudes.shape[0]} does not match dims {self.dims}"
            )

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def density(self) -> "DensityMatrix":
        psi = self.amplitudes
        return DensityMatrix(np.outer(psi, psi.conj()), self.dims)


@dataclass
class DensityMatrix:
    """Hermitian unit-trace operator over a tensor product of registers."""

    entries: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=complex)
        self.dims = tuple(int(d) for d in self.dims)
        dim = math.prod(self.dims)
        if self.entries.shape != (dim, dim):
            raise ValueError(f"entries shape {self.entries.shape} does not match dims {self.dims}")


def _as_operator(obj) -> np.ndarray:
    if isinstance(obj, DensityMatrix):
        return obj.entries
    if isinstance(obj, PureState):
        return obj.density().entries
    return np.asarray(obj, dtype=complex)


def dme_step(a_op, rho, dt: float) -> DensityMatrix:
    """One exponentiation step: trace-out of the partial-swap conjugation.

    Both a_op and rho must be hermitian with matching shape; a_op is the
    operator being exponentiated (a density-matrix-normalized
    interpolation matrix in this package), rho the evolving state.
    """
    a = _as_operator(a_op)
    r = _as_operator(rho)
    if a.shape != r.shape or a.shape[0] != a.shape[1]:
        raise ValueError("operator and state shapes disagree")
    c, s = math.cos(dt), math.sin(dt)
    comm = a @ r - r @ a
    out = c * c * r + s * s * a - 1j * s * c * comm
    return DensityMatrix(out, (a.shape[0],))


def _eigenbasis(a: np.ndarray):
    """eigh of a hermitian operator; eigh reads one triangle, so refuse any other."""
    asym = float(np.max(np.abs(a - a.conj().T)))
    if asym > 1e-12 * float(np.max(np.abs(a))):
        raise ValueError(f"operator is not hermitian: max asymmetry {asym:.3e}")
    return np.linalg.eigh(a)


def _evolve(a, w, u, r, t: float, l: int) -> DensityMatrix:
    """l steps of length t/l from A's eigenbasis (w, u), as in the module docstring.

    mu^l is taken in polar form, |mu|^2 = (1 - s^2)(1 + s^2 (dw^2 - 1)) and
    arg mu = atan2(-c s dw, c^2) with c, s = cos(dt), sin(dt): log1p keeps
    both to rounding at small dt, where a plain complex power loses l ulps.
    """
    if l < 1:
        raise ValueError("need at least one step")
    if r.shape != a.shape:
        raise ValueError("operator and state shapes disagree")
    dt = t / l
    c, s = math.cos(dt), math.sin(dt)
    dw = np.subtract.outer(w, w)
    log_abs = 0.5 * (math.log1p(-s * s) + np.log1p(s * s * (dw * dw - 1.0)))
    powers = np.exp(l * (log_abs + 1j * np.arctan2(-c * s * dw, c * c)))
    uh = u.conj().T
    out = a + u @ (powers * (uh @ (r - a) @ u)) @ uh
    return DensityMatrix(out, (a.shape[0],))


def _conjugate(w, u, r, t: float) -> DensityMatrix:
    evo = (u * np.exp(-1j * w * t)) @ u.conj().T
    out = evo @ r @ evo.conj().T
    return DensityMatrix(out, (u.shape[0],))


def dme_evolve(a_op, rho, t: float, l: int) -> DensityMatrix:
    """Compose l exponentiation steps of length t/l, in closed form.

    Equal to l calls of `dme_step` up to rounding, at the cost of one
    eigendecomposition of A whatever l is.  a_op must be hermitian.
    """
    a = _as_operator(a_op)
    return _evolve(a, *_eigenbasis(a), _as_operator(rho), t, l)


def exact_conjugation(a_op, rho, t: float) -> DensityMatrix:
    """Target channel e^{-iAt} rho e^{+iAt} via the eigendecomposition of A."""
    return _conjugate(*_eigenbasis(_as_operator(a_op)), _as_operator(rho), t)


def trace_norm(mat) -> float:
    """Sum of singular values."""
    return float(np.linalg.svd(np.asarray(mat, dtype=complex), compute_uv=False).sum())


def dme_error(a_op, rho, t: float, l: int) -> float:
    """Trace-norm gap between the l-step channel and the exact conjugation.

    Both channels are read from one eigendecomposition of A.
    """
    a = _as_operator(a_op)
    r = _as_operator(rho)
    w, u = _eigenbasis(a)
    return trace_norm(_evolve(a, w, u, r, t, l).entries - _conjugate(w, u, r, t).entries)
