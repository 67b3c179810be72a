import collections
import sys

import numpy as np
import pytest

from qrbf import interpolation


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance-criterion lines after the run.

    The tests print them too, but capture hides stdout of passing tests;
    this keeps one visible pass/fail line per criterion in every run.
    """
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "REPORT_LINES", None) if mod is not None else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def factor_calls(monkeypatch):
    """Counter of matrix assemblies, CG solves, dense Cholesky and sparse
    LDL^T (splu) factorizations, dense eigendecompositions and Lanczos
    (eigsh) extreme eigenvalues computed while the test runs, keyed by
    function name."""
    counts = collections.Counter()

    def spy(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for name in ("assemble", "cg", "cho_factor", "splu", "eigsh"):
        spy(interpolation, name)
    for name in ("eigh", "eigvalsh"):
        spy(np.linalg, name)
    return counts
