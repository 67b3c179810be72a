"""Classical scattered-data interpolation from start to finish.

Generates a small 2-d dataset, fits it with several radial profiles,
and reports conditioning, residuals, and out-of-sample behavior.  This
is the baseline every quantum-simulation pipeline is checked against.
"""

import numpy as np

from qrbf import harness, kernels
from qrbf import interpolation as interp


def section(title):
    print("\n" + "-" * 64)
    print(title)
    print("-" * 64)


seed = 7
ds = harness.gen_data(m=25, d=2, box=[0.0, 1.0], seed=seed, target_fn="franke")
print(f"dataset: {ds.m} sites in dimension {ds.d}, seed {seed}")

section("kernel tour: conditioning and residuals")
candidates = [
    ("gaussian sigma=0.3", kernels.gaussian(sigma=0.3)),
    ("gaussian sigma=0.8", kernels.gaussian(sigma=0.8)),
    ("inverse-multiquadric eta=2", kernels.inverse_multiquadric(2.0)),
    ("matern-c2 eta=3", kernels.matern_c2(3.0)),
    ("matern-c4 eta=3", kernels.matern_c4(3.0)),
    ("wendland(3,2) alpha=0.5", kernels.wendland(3, 2, alpha=0.5)),
]
print(f"{'kernel':32s} {'kappa':>12s} {'site residual':>14s} {'sparsity':>9s}")
for label, kern in candidates:
    mat = interp.assemble(ds, kern)
    spec = interp.spectrum(mat)
    coeffs = interp.solve(mat, ds.values)
    print(f"{label:32s} {spec.kappa:12.4g} {coeffs.residual:14.3e} {mat.sparsity:9d}")

section("interpolation property: the fit passes through every site")
kern = kernels.gaussian(sigma=0.4)
coeffs = interp.solve(interp.assemble(ds, kern), ds.values)
worst = max(
    abs(interp.evaluate(coeffs, ds, kern, x) - y) for x, y in zip(ds.sites, ds.values)
)
print(f"max |f(x_j) - y_j| over the {ds.m} sites: {worst:.3e}")

section("out-of-sample error against the known target")
rng = np.random.default_rng(seed + 1)
queries = rng.uniform(0.0, 1.0, size=(200, 2))
fhat = np.array([interp.evaluate(coeffs, ds, kern, x) for x in queries])
truth = harness.TARGETS["franke"](queries)
print(f"mean |f - target| on 200 fresh points: {np.mean(np.abs(fhat - truth)):.4f}")
print(f"max  |f - target| on 200 fresh points: {np.max(np.abs(fhat - truth)):.4f}")

section("normalized convention")
raw = interp.spectrum(interp.assemble(ds, kern))
nrm = interp.spectrum(interp.assemble(ds, kern, normalized=True))
print(f"raw    lambda range [{raw.lambda_min:.4g}, {raw.lambda_max:.4g}]")
print(f"scaled lambda range [{nrm.lambda_min:.4g}, {nrm.lambda_max:.4g}]")
print("dividing A and y by m leaves the coefficients unchanged and caps lambda_max at 1")
