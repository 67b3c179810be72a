"""Sparse interpolation through pair states and estimation oracles.

Compactly supported profiles give sparse kernel matrices.  The quantum
route encodes each site pair in a small state whose first-register
weight is the scaled distance, estimates that amplitude to ae_bits of
precision, and rebuilds the matrix entry from the estimate.  The demo
writes out the pair state and the estimation distribution, which the
package itself never forms, and then runs the full solve.
"""

import math

import numpy as np

from qrbf import compact, harness
from qrbf import interpolation as interp
from qrbf.compact import CompactOracleConfig
from qrbf.kernels import wendland

ds = harness.gen_data(m=16, d=2, box=[0.0, 1.0], seed=11, target_fn="franke")
kern = wendland(3, 2, alpha=0.45)
print(f"{ds.m} sites, wendland(3,2) with support alpha={kern.alpha}")

print("\npair-state encoding of one site pair:")
x_i, x_j = ds.sites[0], ds.sites[1]
# (||x_i|| |+>|x_i_hat> - ||x_j|| |->|x_j_hat>) / sqrt(||x_i||^2 + ||x_j||^2),
# sign qubit first, in the computational basis
scale = math.sqrt(x_i @ x_i + x_j @ x_j)
amps = np.concatenate([x_i - x_j, x_i + x_j]) / (scale * math.sqrt(2.0))
# one row per value of the sign qubit
st = amps.reshape(2, ds.d)
a = compact.distance_amplitude(x_i, x_j)
print(f"  state dims {st.shape}, norm {np.linalg.norm(st):.12f}")
print(f"  distance amplitude a = {a:.6f} (always in [0, 1])")
print(f"  reconstructed distance {compact.reconstruct_distance(x_i, x_j):.12f}")
print(f"  direct distance        {float(np.linalg.norm(x_i - x_j)):.12f}")

print("\nestimation outcome distribution for this amplitude at 5 bits:")
# cell y weighs (s^2 + a^2 - 2 s^2 a^2) / ((s - a)(s + a))^2, s = sin(pi y / 32):
# the two-peak Fejer pattern with its common numerator cancelled
s = np.array([math.sin(math.pi * min(y, 32 - y) / 32) for y in range(32)])
pmf = (s * s + a * a * (1.0 - 2.0 * s * s)) / ((s - a) * (s + a)) ** 2
pmf /= pmf.sum()
top = np.argsort(pmf)[::-1][:4]
for y in top:
    est = abs(np.sin(np.pi * y / 32))
    print(f"  outcome {int(y):2d}: prob {pmf[y]:.4f} -> estimate {est:.4f}")
print(f"  worst-case error bound: {compact.ae_error_bound(5):.4f}")

print("\nmatrix built entirely from entry oracles (exact mode):")
cfg = CompactOracleConfig(kernel=kern)
built = compact.build_matrix(ds, cfg)
exact = interp.assemble(ds, kern)
gap = np.max(np.abs((built.data - exact.data).toarray()))
print(f"  sparsity (max nonzeros per row) = {built.sparsity} of m = {ds.m}")
print(f"  max entry gap vs direct assembly = {gap:.1e}")

print("\ncolumn oracle walks the sparse pattern of column 0:")
slots = [compact.oracle_Pv(0, ell, built) for ell in range(1, built.sparsity + 1)]
print(f"  row indices: {slots} (index {ds.m} marks an empty slot)")

print("\nend-to-end solve at several estimation precisions:")
print(f"{'ae_bits':>8s} {'matrix error':>13s} {'fidelity':>10s}")
rep = compact.solve_compact(ds, cfg)
print(f"{'exact':>8s} {rep.matrix_error:13.3e} {rep.fidelity_vs_exact_solution:10.7f}")
for bits in (6, 8, 10, 12):
    cfgb = CompactOracleConfig(kernel=kern, ae_bits=bits, seed=11)
    rep = compact.solve_compact(ds, cfgb)
    print(f"{bits:8d} {rep.matrix_error:13.3e} {rep.fidelity_vs_exact_solution:10.7f}")

print("\nquery-state preparation:")
x = np.array([0.5, 0.5])
state, success, norm_est = compact.prepare_phi_state(x, ds, cfg)
phi = interp.basis_vector(ds, kern, x)
print(f"  success probability = {success:.4f}")
print(f"  recovered ||Phi(x)|| = {norm_est:.6f} (direct {float(np.linalg.norm(phi)):.6f})")
