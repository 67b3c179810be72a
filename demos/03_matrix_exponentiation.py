"""Density-matrix exponentiation by repeated swap rotations.

Conjugating a state by e^{-iAt} using l copies of A costs an error
O(t^2/l) in trace norm.  The demo measures that rate on random 4x4
density pairs and confirms the closed-form single step against the
explicit two-register construction: the swap S as a permuted identity,
e^{-iS dt} = cos(dt) I - i sin(dt) S, and a partial trace over the
first register.  `qcore.dme_evolve` computes the
l-step channel in A's eigenbasis rather than stepping it, so the rate
table costs the same at l = 512 as at l = 8.
"""

import math

import numpy as np

from qrbf import qcore

rng = np.random.default_rng(0)


def random_density(dim, rank):
    rho = np.zeros((dim, dim), dtype=complex)
    w = rng.uniform(0.2, 1.0, rank)
    w /= w.sum()
    for p in w:
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        rho += p * np.outer(v, v.conj())
    return rho


A = random_density(4, rank=4)
rho = random_density(4, rank=2)

print("single-step consistency: closed form vs explicit swap conjugation")
dt = 0.2
closed = qcore.dme_step(A, rho, dt)
S = np.eye(16).reshape(4, 4, 4, 4).transpose(1, 0, 2, 3).reshape(16, 16)
U = math.cos(dt) * np.eye(16) - 1j * math.sin(dt) * S
joint = U @ np.kron(A, rho) @ U.conj().T
explicit = joint.reshape(4, 4, 4, 4).trace(axis1=0, axis2=2)
print(f"  max |closed - explicit| = {np.max(np.abs(closed - explicit)):.3e}")

print("\nerror vs number of steps at t = 1 (trace norm):")
print(f"{'l':>5s} {'error':>12s} {'l * error':>12s}")
for l in (8, 16, 32, 64, 128, 256, 512):
    err = qcore.dme_error(A, rho, 1.0, l)
    print(f"{l:5d} {err:12.3e} {l * err:12.4f}")

ls = np.array([8, 16, 32, 64, 128, 256, 512])
errs = np.array([qcore.dme_error(A, rho, 1.0, int(l)) for l in ls])
slope = np.polyfit(np.log(ls), np.log(errs), 1)[0]
print(f"log-log slope in l: {slope:.3f} (expected -1)")

print("\nsingle-step error vs dt:")
for dt in (0.4, 0.2, 0.1, 0.05):
    one = qcore.dme_step(A, rho, dt)
    ref = qcore.exact_conjugation(A, rho, dt)
    err = qcore.trace_norm(one - ref)
    print(f"  dt={dt:5.2f}  error={err:.3e}  error/dt^2={err / dt**2:.4f}")

print("\nfixed point: rho = A is preserved exactly")
out = qcore.dme_evolve(A, A, t=2.0, l=5)
print(f"  max |out - A| = {np.max(np.abs(out - A)):.3e}")
