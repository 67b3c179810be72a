"""Desk-scale simulation lab for quantum radial-basis-function interpolation.

The package pairs an exact classical RBF interpolation path with
classical simulations of two quantum pipelines (a global Gaussian one
built on truncated coherent states and a compact one built on amplitude
estimation oracles), so every quantum output can be checked against the
classical answer and against its proven error bound.  One JSON config,
whose format `config` owns, drives every run.
"""

from . import (  # noqa: F401
    coherent,
    compact,
    config,
    harness,
    interpolation,
    kernels,
    qcore,
    qinvert,
)

__version__ = "0.1.0"
