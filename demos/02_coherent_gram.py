"""Coherent-state encoding of the Gaussian kernel matrix.

Each site x becomes a product of truncated coherent states, one factor
per coordinate.  Pairwise inner products then reproduce the normalized
Gaussian kernel matrix, with a truncation error that is bounded a
priori.  gram_coherent builds that matrix in closed form, from the
Gaussian of the pair distances and incomplete-gamma truncation factors,
never from the states themselves.  The same matrix also appears as the
reduced state of a single uniform superposition over sites: the demo
builds that statevector from Kronecker products of the coordinate
states and traces out the encoding register explicitly, so the
partial-trace check compares two independent routes to the matrix.
"""

import functools
import math

import numpy as np

from qrbf import coherent, harness
from qrbf import interpolation as interp
from qrbf.kernels import gaussian

sigma = 0.7
ds = harness.gen_data(m=6, d=2, box=[0.0, 1.0], seed=3, target_fn="cosines")
print(f"{ds.m} sites, d={ds.d}, sigma={sigma}")

print("\ntruncation order vs a-priori bound and measured matrix error:")
exact = interp.assemble(ds, gaussian(sigma=sigma), normalized=True)
print(f"{'order':>5s} {'delta':>12s} {'frob bound':>12s} {'frob error':>12s}")
for order in (3, 5, 8, 12, 16, 20):
    rep = coherent.gram_report(ds, sigma, order)
    print(f"{order:5d} {rep.delta:12.3e} {rep.frobenius_bound:12.3e} {rep.frobenius_error:12.3e}")

delta_target = 1e-8
order = coherent.min_order(coherent.max_ratio(ds.sites, sigma), delta_target)
print(f"\nsmallest order with per-coordinate bound <= {delta_target:g}: {order}")

rep = coherent.gram_report(ds, sigma, order)
print(f"entry error {rep.entry_max_error:.3e} <= bound {rep.entry_bound:.3e}")
min_eig = np.linalg.eigvalsh(coherent.gram_coherent(ds, sigma, order).data)[0]
print(f"smallest eigenvalue of the encoded matrix: {min_eig:.4e}")

print("\npartial-trace consistency check:")
# |Psi> = sum_j |j>|psi_j>/sqrt(m), psi_j the Kronecker product of its
# coordinate states: row j of block is the psi_j slice, and tracing out the
# encoding register of |Psi><Psi| leaves block block^T
block = np.stack([
    functools.reduce(np.kron, [coherent.coherent_state(v, sigma, 6) for v in x])
    for x in ds.sites
]) / math.sqrt(ds.m)
reduced = block @ block.T
dev = float(np.max(np.abs(reduced - coherent.gram_coherent(ds, sigma, 6).data)))
print(f"|Psi> = sum_j |j>|psi_j>/sqrt(m), reduced over the site register")
print(f"max |reduced - gram| = {dev:.3e}, trace = {float(np.trace(reduced)):.12f}")

print("\nsingle-pair overlap vs the Gaussian kernel value:")
x, z = ds.sites[0], ds.sites[1]
# a product-state overlap is the product of its per-coordinate overlaps
fx = np.array([coherent.coherent_state(v, sigma, 40) for v in x])
fz = np.array([coherent.coherent_state(v, sigma, 40) for v in z])
got = float(np.prod(np.sum(fx * fz, axis=1)))
want = float(np.exp(-np.sum((x - z) ** 2) / (2 * sigma**2)))
print(f"<psi_x|psi_z> = {got:.15f}")
print(f"exp(-|x-z|^2 / 2 sigma^2) = {want:.15f}")
