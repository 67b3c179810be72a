"""Simulated eigenvalue inversion: ideal rotation vs a finite clock register.

Solves A c = y by rotating an ancilla through C/lambda on each
eigenbranch.  Each inversion takes the system as a LinearSystem(A, y),
which computes each decomposition of A when first read and keeps it.
Ideal mode applies that map exactly: with no spectral floor it is
C A^{-1}, so it is simulated from the system's extreme eigenvalues and
its one Cholesky factor.  Quantized mode applies the phase-estimation
clock as the filter it is in the eigenbasis: each eigenvalue reads the
clock cells with Fejer weights, so grid resolution and leakage become
visible.
"""

import math

import numpy as np

from qrbf import qinvert
from qrbf.interpolation import LinearSystem
from qrbf.qinvert import InversionConfig

print("ideal mode on a diagonal system A = diag(0.5, 0.25), y = e1")
A = np.diag([0.5, 0.25])
y = np.array([1.0, 0.0])
rep = qinvert.invert_ideal(LinearSystem(A, y))
print(f"  rotation scale C = {rep.rotation_scale} (defaults to lambda_min)")
print(f"  post-selection probability = {rep.post_select_prob}")
print(f"  recovered ||A^-1 y|| = {rep.coeff_norm_est} (true value 2)")
print(f"  fidelity vs classical solution = {rep.fidelity_vs_classical:.15f}")
print(f"  expected repetitions 1/p ledger: {rep.repetitions_ledger}")

print("\npost-selection never falls below kappa^-2 at C = lambda_min:")
rng = np.random.default_rng(1)
for trial in range(4):
    m = int(rng.integers(3, 9))
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    w = rng.uniform(0.05, 1.0, m)
    B = q @ np.diag(w) @ q.T
    B = 0.5 * (B + B.T)
    rb = qinvert.invert_ideal(LinearSystem(B, rng.standard_normal(m)))
    print(f"  m={m}: p = {rb.post_select_prob:.4e} >= kappa^-2 = {rb.kappa_eff**-2:.4e}")

print("\nquantized mode, eigenphases exactly on the 3-bit clock grid:")
cfg = InversionConfig(mode="quantized", evolution_time=8.0 * math.pi, clock_bits=3)
qrep = qinvert.invert_quantized(LinearSystem(A, np.array([0.6, 0.8])), cfg)
print(f"  deviation from ideal output state = {qrep.deviation_from_ideal:.3e}")
print(f"  clock leakage after uncomputation  = {qrep.clock_leak:.3e}")

print("\noff-grid spectrum: deviation falls like 1/t0 until the bit floor")
q, _ = np.linalg.qr(np.random.default_rng(2).standard_normal((3, 3)))
B = q @ np.diag([0.23, 0.41, 0.77]) @ q.T
B = 0.5 * (B + B.T)
# one system for every t0: its Cholesky factor for the classical check is taken once
system_b = LinearSystem(B, np.random.default_rng(3).standard_normal(3))
print(f"{'t0/pi':>8s} {'deviation':>12s}")
for k in range(3, 9):
    t0 = (2.0**k) * math.pi
    c = InversionConfig(mode="quantized", evolution_time=t0, clock_bits=10)
    dev = qinvert.invert_quantized(system_b, c).deviation_from_ideal
    print(f"{2.0**k:8.0f} {dev:12.3e}")

print("\nswap-test readout of an overlap:")
u = np.array([1.0, 0.0])
v = np.array([math.cos(0.4), math.sin(0.4)])
p = qinvert.swap_test(u, v)
print(f"  analytic acceptance p = {p:.6f} -> |overlap| = {math.sqrt(2 * p - 1):.6f}")
s = qinvert.sample_probability(p, n=100000, seed=5)
est = math.sqrt(max(0.0, 2 * s.estimate - 1))
print(f"  sampled at n=1e5: p_hat = {s.estimate:.6f} -> |overlap| = {est:.6f}")
