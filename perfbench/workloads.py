"""The four benchmark workloads: qrbf configs, one op each, output checks.

One op is one `harness.run_pipeline` call, or for `bounds-all` one pass
over all six `harness.verify_bounds` suites.  The workload seed is the
only input the benchmark varies; it becomes the qrbf config seed, so the
same seed always gives the same dataset, queries and sampling draws.

Importing this module imports qrbf from the `src` directory next to the
benchmark, never an installed copy.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")

if not os.path.isfile(os.path.join(SRC, "qrbf", "__init__.py")):
    raise ImportError(f"qrbf sources not found under {SRC}")
sys.path.insert(0, SRC)

import qrbf  # noqa: E402
from qrbf import harness  # noqa: E402

if os.path.dirname(os.path.abspath(qrbf.__file__)) != os.path.join(SRC, "qrbf"):
    raise ImportError(f"imported qrbf from {qrbf.__file__}, expected {SRC}")

# Stated tolerances of the output checks.
FIDELITY_MIN = 1.0 - 1e-9  # global: inverted state vs classical solution
ANALYTIC_TOL = 1e-9  # global: |f_quantum_analytic - f_classical| per query
COMPACT_FIDELITY_FLOOR = 0.2  # compact: fidelity_vs_exact_solution

# The qrbf config of each workload (None: the bound suites).  README.md says
# which layers each one loads and bypasses, and which inputs were chosen to
# skip known defects.
WORKLOADS = {
    # coherent Gram (order 1161) and dense factorizations; sigma=0.05 because
    # sigma=0.1 and 0.4 abort at m=512 (ROADMAP item 2)
    "global-gram": {
        "pipeline": "quantum-global",
        "dataset": {"m": 512, "d": 2},
        "kernel": {"family": "gaussian", "sigma": 0.05},
        "inversion": {"mode": "ideal"},
        "queries": {"n": 20},
    },
    # per-query readout loop; the Gram is under 3 % of the op
    "global-readout": {
        "pipeline": "quantum-global",
        "dataset": {"m": 64, "d": 2},
        "kernel": {"family": "gaussian", "sigma": 0.1},
        "inversion": {"mode": "ideal"},
        "queries": {"n": 4000},
    },
    # 16256 oracle_PA calls with one AE draw each; spectral_floor because
    # ae_bits=8 breaks positive definiteness at m=128 (ROADMAP item 4)
    "compact-ae": {
        "pipeline": "quantum-compact",
        "dataset": {"m": 128, "d": 2},
        "kernel": {"family": "wendland", "d": 3, "k": 2, "alpha": 0.15},
        "inversion": {"mode": "ideal", "spectral_floor": 1e-3},
        "compact": {"ae_bits": 8},
    },
    # all six verify_bounds suites: hundreds of m <= 16 problems
    "bounds-all": None,
}


def pipeline_config(workload: str, seed: int) -> dict:
    cfg = copy.deepcopy(WORKLOADS[workload])
    cfg["seed"] = seed
    return cfg


def run_op(workload: str, seed: int):
    """Run one op; returns the qrbf result objects."""
    if workload == "bounds-all":
        return [harness.verify_bounds(suite, seed=seed) for suite in harness.SUITES]
    return harness.run_pipeline(pipeline_config(workload, seed))


def output_bytes(result) -> bytes:
    """Summary JSON and query CSV exactly as `run_pipeline(out_dir=...)` writes them.

    For `bounds-all`, the CSV of every suite plus its pass count.
    """
    if isinstance(result, list):
        parts = [
            f"{r.suite} {r.n_failed}\n{harness.csv_body(r.fieldnames, r.rows)}" for r in result
        ]
        return "".join(parts).encode()
    summary = json.dumps(result.summary, indent=2, sort_keys=True) + "\n"
    return (summary + harness.csv_body(result.query_fields, result.query_rows)).encode()


def digest(result) -> str:
    return hashlib.sha256(output_bytes(result)).hexdigest()


# Rows of the bound suites whose slope gate fails at some seeds (inversion
# t0-slope at 34 and compact-oracle ae-error-slope at 18 of seeds 0-99;
# every other row passes at all of them).  They are reported, not gated,
# so that bounds-all runs at every seed.
SEED_FRAGILE_ROWS = (("inversion", "t0-slope"), ("compact-oracle", "ae-error-slope"))


def check(workload: str, result) -> tuple[list, dict, list]:
    """Output checks of one op.

    Returns (failures, recorded values that are not gated, failing rows
    of SEED_FRAGILE_ROWS).
    """
    if workload == "bounds-all":
        failures, defects = [], []
        for r in result:
            for row in r.rows:
                if row["passed"]:
                    continue
                where = f"suite {r.suite} row {row['case']} ({row['detail']}): " \
                        f"measured {row['measured']!r}, bound {row['bound']!r}"
                (defects if (r.suite, row["case"]) in SEED_FRAGILE_ROWS else failures).append(where)
        return failures, {}, defects
    failures = []
    s = result.summary
    if workload.startswith("global-"):
        fid = s["fidelity_vs_classical"]
        if not fid >= FIDELITY_MIN:
            failures.append(f"fidelity_vs_classical {fid!r} < {FIDELITY_MIN!r}")
        dev = max(abs(q["f_quantum_analytic"] - q["f_classical"]) for q in result.query_rows)
        if not dev <= ANALYTIC_TOL:
            failures.append(f"max |f_quantum_analytic - f_classical| {dev!r} > {ANALYTIC_TOL!r}")
        # ROADMAP item 2: the Gram budget lies below float64 resolution, so it is recorded only
        recorded = {
            "fidelity_vs_classical": fid,
            "max_analytic_dev": dev,
            "gram_frobenius_error": s["gram_frobenius_error"],
            "gram_frobenius_budget": s["gram_frobenius_budget"],
            "truncation_order": s["truncation_order"],
        }
        return failures, recorded, []
    fid = s["fidelity_vs_exact_solution"]
    if not (math.isfinite(fid) and fid >= COMPACT_FIDELITY_FLOOR):
        failures.append(f"fidelity_vs_exact_solution {fid!r} below {COMPACT_FIDELITY_FLOOR}")
    recorded = {
        "fidelity_vs_exact_solution": fid,
        "matrix_frobenius_error": s["matrix_frobenius_error"],
    }
    return failures, recorded, []
