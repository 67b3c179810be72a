"""Radial basis functions used throughout the package.

A kernel is a univariate profile phi applied to Euclidean distances,
phi(||x - y||) for the global families and phi(||x - y|| / alpha) for the
compactly supported ones.  `r` below always denotes a nonnegative radial
argument and `w_+ = max(w, 0)` the cutoff that clamps negatives to zero
before any power is taken.

Global families (shape parameter eta > 0):

================        ==============================================
gaussian                exp(-r^2 / (2 sigma^2)),  sigma = sqrt(1/(2 eta^2))
inverse-multiquadric    1 / sqrt(1 + (eta r)^2)
matern-c0               exp(-eta r)
matern-c2               exp(-eta r) (1 + eta r)
matern-c4               exp(-eta r) (3 + 3 eta r + (eta r)^2)
================        ==============================================

Each of them is positive definite, so the interpolation matrix of
distinct sites is nonsingular.  The multiquadric sqrt(1 + (eta r)^2) is
only conditionally positive definite: it would need the polynomial
augmentation of Micchelli (1986), and is not offered.

Compact family (support radius alpha, profile below takes r in [0, 1]):

=====  ==========  =================================
d = 1  C^0         (1 - r)_+
       C^2         (1 - r)_+^3 (3 r + 1)
       C^4         (1 - r)_+^5 (8 r^2 + 5 r + 1)
d = 3  C^0         (1 - r)_+^2
       C^2         (1 - r)_+^4 (4 r + 1)
       C^4         (1 - r)_+^6 (35 r^2 + 18 r + 3)
       C^6         (1 - r)_+^8 (32 r^3 + 25 r^2 + 8 r + 1)
d = 5  C^0         (1 - r)_+^3
       C^2         (1 - r)_+^5 (5 r + 1)
       C^4         (1 - r)_+^7 (16 r^2 + 7 r + 1)
=====  ==========  =================================

These are the minimal-degree polynomials that are positive definite on
R^d with the stated smoothness.  A profile built for dimension d stays
positive definite for every dimension <= d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# family -> {config key the family reads: its default, None where it has none}.  A
# config that sets none of its family's keys takes the defaults; only the
# gaussian has one.
CONFIG_KEYS = {
    "gaussian": {"sigma": 0.4, "eta": None},
    "inverse-multiquadric": {"eta": None},
    "matern-c0": {"eta": None},
    "matern-c2": {"eta": None},
    "matern-c4": {"eta": None},
    "wendland": {"d": None, "k": None, "alpha": None},
}
COMPACT_FAMILIES = ("wendland",)
GLOBAL_FAMILIES = tuple(family for family in CONFIG_KEYS if family not in COMPACT_FAMILIES)

# (d, k) -> (cutoff exponent, polynomial coefficients, low order first)
_WENDLAND_TABLE = {
    (1, 0): (1, (1.0,)),
    (1, 2): (3, (1.0, 3.0)),
    (1, 4): (5, (1.0, 5.0, 8.0)),
    (3, 0): (2, (1.0,)),
    (3, 2): (4, (1.0, 4.0)),
    (3, 4): (6, (3.0, 18.0, 35.0)),
    (3, 6): (8, (1.0, 8.0, 25.0, 32.0)),
    (5, 0): (3, (1.0,)),
    (5, 2): (5, (1.0, 5.0)),
    (5, 4): (7, (1.0, 7.0, 16.0)),
}

WENDLAND_PAIRS = tuple(sorted(_WENDLAND_TABLE))


def _unknown_family(family) -> ValueError:
    return ValueError(
        f"unknown kernel family {family!r}; choose from {tuple(CONFIG_KEYS)}"
    )


def cutoff(w):
    """Clamp to zero from below: returns w for w >= 0 and 0 otherwise."""
    return np.maximum(w, 0.0)


@dataclass(frozen=True)
class Kernel:
    """Radial profile with its shape/support parameters.

    Use the module-level constructors (`gaussian`, `wendland`, ...) or
    `config.from_config` rather than instantiating directly.
    """

    family: str
    eta: float | None = None
    sigma: float | None = None
    alpha: float = math.inf
    d: int | None = None
    k: int | None = None

    def __post_init__(self):
        if self.family in GLOBAL_FAMILIES:
            if self.family == "gaussian":
                if self.sigma is None or not 0 < self.sigma < math.inf:
                    raise ValueError("gaussian kernel needs a finite sigma > 0")
            elif self.eta is None or not 0 < self.eta < math.inf:
                # an infinite eta puts inf * 0 = nan on the diagonal
                raise ValueError(f"{self.family} kernel needs a finite eta > 0")
            if not math.isinf(self.alpha):
                raise ValueError("global kernels have unbounded support")
        elif self.family in COMPACT_FAMILIES:
            if (self.d, self.k) not in _WENDLAND_TABLE:
                raise ValueError(
                    f"unsupported wendland profile (d={self.d}, k={self.k}); "
                    f"known pairs: {WENDLAND_PAIRS}"
                )
            if not (math.isfinite(self.alpha) and self.alpha > 0):
                raise ValueError("compact kernels need a finite support radius alpha > 0")
        else:
            raise _unknown_family(self.family)

    @property
    def is_compact(self) -> bool:
        return self.family in COMPACT_FAMILIES

    @property
    def phi0(self) -> float:
        """Value of the profile at zero distance."""
        return float(self.eval(0.0))

    def eval(self, r):
        """Evaluate the profile at radial argument r (scalar or array).

        Negative arguments are rejected: radii are distances.

        A global profile is one chain of ufuncs: the first makes a new
        array, the result, and the rest write into it (matern-c2 and -c4
        keep one or two more of r's shape).  Each takes the operands of
        the written formula in its order, so the values have the bits of
        the out-of-place expression, exp(-(r * r) / (2 sigma^2)) and so
        on, without its temporaries.  r itself is never written.
        """
        arr = np.asarray(r, dtype=float)
        if np.any(arr < 0.0):
            raise ValueError("radial argument must be nonnegative")
        scalar = arr.ndim == 0
        if scalar:
            # route scalars through the array path so both agree bit for bit
            arr = arr.reshape(1)
        fam = self.family
        if fam == "gaussian":
            out = arr * arr
            np.negative(out, out=out)
            out /= 2.0 * self.sigma**2
            np.exp(out, out=out)
        elif fam == "inverse-multiquadric":
            out = self.eta * arr
            out **= 2
            np.add(1.0, out, out=out)
            np.sqrt(out, out=out)
            np.divide(1.0, out, out=out)
        elif fam == "matern-c0":
            out = -self.eta * arr
            np.exp(out, out=out)
        elif fam == "matern-c2":
            u = self.eta * arr
            out = np.negative(u)
            np.exp(out, out=out)
            np.add(1.0, u, out=u)
            out *= u
        elif fam == "matern-c4":
            u = self.eta * arr
            out = np.negative(u)
            np.exp(out, out=out)
            poly = 3.0 * u
            np.add(3.0, poly, out=poly)
            u *= u
            poly += u
            out *= poly
        else:
            u = arr / self.alpha
            ell, coeffs = _WENDLAND_TABLE[(self.d, self.k)]
            base = cutoff(1.0 - u)
            # base == 0 outside the support, so the product is exactly 0.0 there
            out = base**ell * np.polynomial.polynomial.polyval(u, coeffs)
        if scalar:
            return float(out[0])
        return out


def gaussian(sigma: float | None = None, eta: float | None = None) -> Kernel:
    """Gaussian kernel, parameterized by width sigma or shape eta (one required).

    Each shape is sqrt(1 / (2 x^2)) of the other, and the profile divides by
    2 sigma^2.  A finite value for which either conversion leaves the
    positive finite floats is refused under the key it was given as.
    """
    if (sigma is None) == (eta is None):
        raise ValueError("give exactly one of sigma, eta")
    if sigma is None:
        if not 0 < eta < math.inf:  # an infinite eta would give sigma 0
            raise ValueError("eta must be positive and finite")
        key, value, other, sigma = "eta", eta, "sigma", _other_shape(eta)
    else:
        if not sigma > 0:
            raise ValueError("sigma must be positive")
        key, value, other, eta = "sigma", sigma, "eta", _other_shape(sigma)
    # an infinite sigma gives eta 0, which the Kernel refuses as not a finite sigma
    if value < math.inf and not (0 < eta < math.inf and 0 < sigma < math.inf
                                 and 2.0 * sigma * sigma < math.inf):
        raise ValueError(f"{key}={value!r} is out of range: its conversion to {other} = "
                         f"sqrt(1/(2 {key}^2)) or to 2 sigma^2 leaves the float range")
    return Kernel("gaussian", eta=eta, sigma=sigma)


def _other_shape(x: float) -> float:
    """sqrt(1 / (2 x^2)), either gaussian shape from the other; inf where 2 x^2 underflows."""
    two_sq = 2.0 * x * x
    return math.sqrt(1.0 / two_sq) if two_sq > 0 else math.inf


def inverse_multiquadric(eta: float) -> Kernel:
    return Kernel("inverse-multiquadric", eta=eta)


def matern_c2(eta: float) -> Kernel:
    return Kernel("matern-c2", eta=eta)


def matern_c4(eta: float) -> Kernel:
    return Kernel("matern-c4", eta=eta)


def wendland(d: int, k: int, alpha: float) -> Kernel:
    """Compactly supported kernel for dimension d, smoothness C^k, support alpha."""
    return Kernel("wendland", alpha=float(alpha), d=d, k=k)
