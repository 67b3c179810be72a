"""Experiment drivers: pipelines, bound suites, reports.

Everything here is deterministic given (config, seed).  Report rows all
carry the seed and a hash of the originating config, floats are written
with repr, and no timestamps enter CSV bodies, so reruns are
byte-identical.  Tolerance budgets follow the constant-1 policy: each
O(.) relation between budgets is instantiated with constant exactly 1
(eps_A = eps_c / kappa^2, t0 = 1/(lambda_min eps_c), sample count
ceil(1/eps^2)), and the realized errors are recorded next to the budgets
so the slack is visible.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import io
import json
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from . import coherent, compact, config, interpolation, kernels, qcore, qinvert
# gen_data is called by this module's name, which the benchmark tracer wraps
from .interpolation import DataSet, gen_data


# ---------------------------------------------------------------------------
# report plumbing

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


# _fmt of a cell of exactly these types, without its isinstance chain
_CELL_FORMAT = {type(None): lambda _: "", bool: str, int: str, float: repr, str: str}


def csv_body(fieldnames, rows) -> str:
    """CSV text with deterministic float formatting (repr round-trip).

    Each cell is written as `_fmt` writes it: by the formatter of its exact
    type, and by `_fmt` itself for NumPy scalars and every other type.
    """
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(fieldnames)
    formatter = _CELL_FORMAT.get
    for row in rows:
        writer.writerow([formatter(type(v), _fmt)(v) for v in map(row.get, fieldnames)])
    return buf.getvalue()


def write_csv(path, fieldnames, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(csv_body(fieldnames, rows))


def write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# budget propagation

@dataclass
class Budgets:
    """Constant-1 instantiation of the tolerance relations.

    epsilon is the master accuracy; eps_c the coefficient-state budget,
    eps_A = eps_c/kappa^2 the matrix budget, delta = eps_A/(2d) the
    per-coordinate truncation budget, eps_E the exponentiation budget,
    and eps_F/eps_p the sampling budgets with ceil(1/eps^2) shots each.
    """

    epsilon: float
    eps_c: float
    eps_A: float
    eps_E: float
    eps_F: float
    eps_p: float
    delta: float
    norm_samples: int
    overlap_samples: int


def derive_budgets(epsilon: float, kappa: float, d: int) -> Budgets:
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    eps_c = epsilon
    eps_A = eps_c / (kappa * kappa)
    return Budgets(
        epsilon=epsilon,
        eps_c=eps_c,
        eps_A=eps_A,
        eps_E=epsilon,
        eps_F=epsilon,
        eps_p=epsilon,
        delta=eps_A / (2.0 * d),
        norm_samples=math.ceil(1.0 / epsilon**2),
        overlap_samples=math.ceil(1.0 / epsilon**2),
    )


def readout_budget(
    basis_norm: float,
    y_norm: float,
    rotation_scale: float,
    coeff_norm: float,
    overlap_classical: float,
    budgets: Budgets,
) -> float:
    """Propagated bound on |f_quantum - f_classical| at a query point.

    Three contributions: the sampled norm factor (eps_F * ||y|| / C), the
    coefficient-state budget (2 eps_c, covering both the norm shift and
    the overlap shift of the state), and the swap-test sampling term
    eps_o, the worst-case movement of sqrt(2p - 1) when p moves by
    2*eps_p around its classical value.  basis_norm and overlap_classical
    may be arrays with one entry per query; each entry gets the bits of
    a scalar call.

    A query is within_budget when abs_err <= 3 * budget.  The factor 3 is
    a margin, not derived from this bound or from a failure probability.
    """
    base = np.maximum(0.0, 2.0 * (0.5 + 0.5 * (overlap_classical * overlap_classical)) - 1.0)
    eps_o = np.sqrt(base + 2.0 * budgets.eps_p) - np.sqrt(base)
    return basis_norm * (
        budgets.eps_F * y_norm / rotation_scale
        + coeff_norm * (2.0 * budgets.eps_c + eps_o)
    )


# ---------------------------------------------------------------------------
# pipelines

@dataclass
class PipelineResult:
    pipeline: str
    summary: dict
    query_rows: list
    query_fields: list
    solve_report: object = None
    files: dict = field(default_factory=dict)


def _load_or_generate_dataset(cfg: dict, seed: int) -> DataSet:
    ds_cfg = cfg["dataset"]
    if ds_cfg.get("file"):
        return interpolation.load_dataset(ds_cfg["file"])
    return gen_data(
        m=ds_cfg["m"],
        d=ds_cfg["d"],
        box=ds_cfg["box"],
        seed=ds_cfg.get("seed", seed),
        target_fn=ds_cfg["target"],
    )


def _query_points(cfg: dict, dataset: DataSet, seed: int) -> np.ndarray:
    q_cfg = cfg["queries"]
    if q_cfg.get("file"):
        header, rows = interpolation.read_csv_rows(q_cfg["file"])
        if len(header) != dataset.d:
            raise ValueError(f"query file has {len(header)} columns, expected {dataset.d}")
        return np.asarray(rows) if rows else np.empty((0, dataset.d))
    rng = np.random.default_rng(q_cfg.get("seed", seed + 1))
    ds_cfg = cfg["dataset"]
    if not ds_cfg.get("file"):
        bounds = interpolation._box_array(ds_cfg["box"], dataset.d)
    else:
        bounds = np.stack([dataset.sites.min(axis=0), dataset.sites.max(axis=0)], axis=1)
    return rng.uniform(bounds[:, 0], bounds[:, 1], size=(q_cfg["n"], dataset.d))


_QUERY_BASE_FIELDS = [
    "f_classical",
    "f_quantum",
    "f_quantum_analytic",
    "abs_err",
    "budget",
    "within_budget",
]


def _query_rows(queries, seed: int, chash: str, columns: dict) -> tuple[list, list]:
    """One {seed, config_hash, x1..xd, **columns} row per query, and the query CSV's fields.

    Each column is an array with one entry per query; rows hold builtin
    values.  Every row is a copy of one template whose keys come in that
    order, with seed and config_hash already set, and each coordinate and
    column is then filled in by one loop over the rows.  The fields name
    the columns of every pipeline.
    """
    coords = [f"x{i + 1}" for i in range(queries.shape[1])]
    template = {"seed": seed, "config_hash": chash, **dict.fromkeys((*coords, *columns))}
    rows = [template.copy() for _ in range(len(queries))]
    for key, col in zip((*coords, *columns), (*queries.T, *columns.values())):
        for row, value in zip(rows, col.tolist()):
            row[key] = value
    return rows, ["seed", "config_hash", *coords, *_QUERY_BASE_FIELDS]


@dataclass
class _BasisReadings:
    """Readout inputs of every query point x, one array entry per query.

    f_classical = <c, Phi(x)>, sq_norm = ||Phi(x)||^2, overlap =
    Re<state|Phi^(x)> with the inverted state, swap_p the swap-test
    acceptance probability against that state, and overlap_classical =
    <c^|Phi^(x)> with the unit classical coefficients.  Where no site
    reaches x (Phi(x) = 0), or no state was given, the overlaps read 0
    and swap_p is NaN.
    """

    f_classical: np.ndarray
    sq_norm: np.ndarray
    overlap: np.ndarray
    swap_p: np.ndarray
    overlap_classical: np.ndarray


def _basis_readings(dataset, kernel, queries, coeffs, state) -> _BasisReadings:
    """Basis rows, norms and overlaps of all queries, interpolation.BLOCK_CELLS cells at a time.

    Every row is reduced on its own (np.add.reduce along the sites, not a
    BLAS product), so no value depends on the block size or on the other
    queries of the run.  With state None (the classical pipeline) only
    f_classical and sq_norm are read, and the coefficients are never
    divided by their norm, which is 0 on all-zero data.
    """
    n = len(queries)
    out = _BasisReadings(*np.zeros((5, n)))
    out.swap_p[:] = np.nan
    c_hat = None if state is None else coeffs.c / coeffs.norm
    for block in interpolation.row_blocks(n, dataset.m):
        phi = interpolation.basis_matrix(dataset, kernel, queries[block])
        sq = np.add.reduce(phi * phi, axis=-1)
        out.f_classical[block] = np.add.reduce(phi * coeffs.c, axis=-1)
        out.sq_norm[block] = sq
        if state is None:
            continue
        hit = sq > 0.0
        unit = phi[hit] / np.sqrt(sq[hit])[:, None]
        # Re<state|u> = sum_j Re(state_j) u_j for a real row u
        out.overlap[block][hit] = np.add.reduce(unit * state.real, axis=-1)
        out.swap_p[block][hit] = qinvert.swap_test(state, unit)
        out.overlap_classical[block][hit] = np.add.reduce(unit * c_hat, axis=-1)
    return out


def _readout(readings, basis_norm, report, budgets, y_norm: float, rng):
    """Swap-test readout f(x) = ||c|| ||Phi(x)|| <c^|Phi^(x)> of every query.

    All draws come from rng: first the norm ||c|| from the post-selection
    probability with budgets.norm_samples shots, then one binomial of
    budgets.overlap_samples shots per reached query (basis_norm > 0), in
    query order, in one call.  Where no site reaches a query the
    interpolant is exactly 0 and nothing is drawn.  The swap test gives
    |<c^|Phi^(x)>|; its sign is taken from the exact state.  Returns the
    query columns f_classical, f_quantum, f_quantum_analytic and abs_err,
    and the norm draw's success count.
    """
    norm_shots, overlap_shots = budgets.norm_samples, budgets.overlap_samples
    hits = int(qinvert.sample_successes(report.post_select_prob, norm_shots, rng))
    coeff_norm_sampled = math.sqrt(hits / norm_shots) * y_norm / report.rotation_scale
    reached = basis_norm > 0.0
    p_hat = qinvert.sample_successes(readings.swap_p[reached], overlap_shots, rng) / overlap_shots
    o_mag = np.sqrt(np.maximum(0.0, 2.0 * p_hat - 1.0))
    overlap, norm = readings.overlap[reached], basis_norm[reached]
    f_quantum = np.zeros(len(basis_norm))
    f_analytic = np.zeros(len(basis_norm))
    f_quantum[reached] = coeff_norm_sampled * norm * np.copysign(o_mag, overlap)
    f_analytic[reached] = report.coeff_norm_est * norm * overlap
    return {"f_classical": readings.f_classical, "f_quantum": f_quantum,
            "f_quantum_analytic": f_analytic,
            "abs_err": np.abs(f_quantum - readings.f_classical)}, hits


@contextlib.contextmanager
def _stage(label: str):
    """Relabel errors with the pipeline stage that raised; interrupts pass as they are."""
    try:
        yield
    except _StageError:
        raise
    except Exception as exc:
        raise _StageError(label, exc) from exc


class _StageError(RuntimeError):
    """An error of a pipeline stage, worded "[stage: <stage>] <cause>"; `stage` names the stage."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[stage: {stage}] {cause}")
        self.stage = stage


def run_pipeline(cfg: dict, out_dir=None) -> PipelineResult:
    """Execute one pipeline end to end, classical baseline always included.

    The pipeline's runner returns its own summary fields, its query
    columns and its solve report (None for the classical pipeline); the
    summary head every pipeline shares and the query rows are built here.
    """
    with _stage("config"):
        cfg = config.full_config(cfg)
        pipeline = cfg["pipeline"]
        seed = config.resolve_seed(cfg["seed"])
    # where the files go is not part of the run: the same run hashes alike in every directory
    chash = config.config_hash(dict(cfg, output=None))

    with _stage("dataset"):
        dataset = _load_or_generate_dataset(cfg, seed)
        queries = _query_points(cfg, dataset, seed)
    with _stage("kernel"):
        kernel = config.from_config(cfg["kernel"])

    fields, columns, report = _RUNNERS[pipeline](cfg, dataset, kernel, queries, seed)
    summary = {"pipeline": pipeline, "seed": seed, "config_hash": chash, "m": dataset.m,
               "d": dataset.d, "kernel": cfg["kernel"], "n_queries": len(queries), **fields}
    result = PipelineResult(pipeline, summary, *_query_rows(queries, seed, chash, columns), report)

    out_dir = out_dir or cfg["output"]
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        files = result.files = {name: os.path.join(out_dir, name + ext) for name, ext in
                                (("queries", ".csv"), ("summary", ".json"), ("dataset", ".csv"))}
        write_csv(files["queries"], result.query_fields, result.query_rows)
        write_json(files["summary"], summary)
        interpolation.save_dataset(dataset, files["dataset"])
        if report is not None:
            files["solve_report"] = os.path.join(out_dir, "solve_report.json")
            write_json(files["solve_report"], report.to_dict())
    return result


def _run_classical(cfg, dataset, kernel, queries, seed):
    with _stage("classical solve"):
        system = interpolation.exact_system(dataset, kernel)
    spec, coeffs = system.spectrum, system.coeffs
    # f_classical as the quantum pipelines read it, with no state to overlap
    readings = _basis_readings(dataset, kernel, queries, coeffs, None)
    fields = {
        "kappa": spec.kappa,
        "lambda_min": spec.lambda_min,
        "lambda_max": spec.lambda_max,
        "sparsity": system.matrix.sparsity,
        "site_residual_max": coeffs.residual,
        "coeff_norm": coeffs.norm,
    }
    return fields, {"f_classical": readings.f_classical}, None


def _inversion_config(cfg: dict, budgets, spec) -> tuple[qinvert.InversionConfig, bool]:
    """The inversion config, and whether the evolution time was clamped to the clock."""
    inv = cfg["inversion"]
    mode = inv["mode"]
    kwargs = {"mode": mode, "spectral_floor": inv.get("spectral_floor")}
    clamped = False
    if mode == "quantized":
        cap = qinvert._CLOCK_BITS_CAP
        t0 = inv.get("evolution_time")
        if t0 is None:
            t0 = 1.0 / (spec.lambda_min * budgets.eps_c)
            # keep the largest eigenphase on the clock grid
            t0_max = 2.0 * math.pi * (2.0**cap - 1.0) / spec.lambda_max
            if t0 > t0_max:
                clamped = True
                t0 = t0_max
        b = inv.get("clock_bits")
        if b is None:
            b = max(1, min(cap, math.ceil(math.log2(spec.lambda_max * t0 / (2 * math.pi))) + 1))
        kwargs.update(evolution_time=float(t0), clock_bits=int(b))
    return qinvert.InversionConfig(**kwargs), clamped


def _quantum_fields(spec, coeffs, report, fidelity: float, abs_err, clamped: bool) -> dict:
    """Summary fields both quantum pipelines write."""
    fields = {
        "kappa": spec.kappa,
        "site_residual_max": coeffs.residual,
        "post_select_prob": report.post_select_prob,
        "coeff_norm_est": report.coeff_norm_est,
        "coeff_norm_classical": coeffs.norm,
        "fidelity_vs_exact_solution": fidelity,
        # null with no query: no readout was made, so there is no error to report
        "max_abs_err": float(np.max(abs_err)) if len(abs_err) else None,
    }
    if clamped:
        fields["evolution_time_clamped"] = True
    return fields


def _run_global(cfg, dataset, kernel, queries, seed):
    with _stage("classical solve"):
        system = interpolation.exact_system(dataset, kernel, normalized=True)
    exact, spec, coeffs = system.matrix, system.spectrum, system.coeffs
    with _stage("budgets"):
        budgets = derive_budgets(cfg["epsilon"], spec.kappa, dataset.d)
        # the Gaussian Gram depends only on x - z: encode the centred sites, at a lower order
        encoded = coherent.centred(dataset)
        order = coherent.min_order(coherent.max_ratio(encoded.sites, kernel.sigma), budgets.delta)
    with _stage("gram construction"):
        gram = coherent.gram_coherent(encoded, kernel.sigma, order)
        # ||E||_F for E = G - A, taken once: the budget check and gamma_b both read it
        eps_A_measured = float(np.linalg.norm(gram.data - exact.data, "fro"))
        # no truncation order meets a budget below the float64 resolution of ||A||_F
        eps_A_floor = float(np.finfo(float).eps) * float(np.linalg.norm(exact.data, "fro"))

    dme_summary = None
    dme_cfg = cfg["dme_check"]
    if dme_cfg["enabled"]:
        with _stage("exponentiation check"):
            rho0 = np.zeros_like(gram.data)
            rho0[0, 0] = 1.0
            t = float(dme_cfg["t"])
            steps = int(dme_cfg["steps"])
            err = qcore.dme_error(gram.data, rho0, t, steps)
            dme_summary = {"t": t, "steps": steps, "trace_norm_error": err,
                           "budget_eps_E": budgets.eps_E,
                           "steps_for_budget": math.ceil(t * t / budgets.eps_E)}

    with _stage("inversion"):
        inv_cfg, clamped = _inversion_config(cfg, budgets, spec)
        # the ideal map with no floor reads only solves and the extremes, which the Gram
        # takes from A's factor and spectrum when close enough (gamma_b < 1/2); a floor
        # or the clock reads G's eigenbasis, and its fidelity check G's own factor
        if inv_cfg.mode == "ideal" and inv_cfg.spectral_floor is None:
            gram_system = system.perturbed(gram, eps_A_measured)
        else:
            gram_system = interpolation.LinearSystem(gram, system.y)
        report = qinvert.invert(gram_system, inv_cfg)

    with _stage("readout"):
        readings = _basis_readings(dataset, kernel, queries, coeffs, report.state_out)
        phi_norm, y_norm = np.sqrt(readings.sq_norm), float(np.linalg.norm(system.y))
        columns, norm_successes = _readout(
            readings, phi_norm, report, budgets, y_norm, np.random.default_rng((seed, 1))
        )
        budget = readout_budget(
            phi_norm, y_norm, report.rotation_scale, coeffs.norm,
            readings.overlap_classical, budgets,
        )
        columns.update(budget=budget, within_budget=columns["abs_err"] <= 3.0 * budget)

    gram_within = eps_A_measured <= budgets.eps_A
    fidelity = qinvert.solution_fidelity(coeffs.c, report.state_out)
    fidelity_within = fidelity >= 1.0 - budgets.eps_c
    # with no norm success the sampled ||c|| is 0 and every f_quantum reads 0; with no
    # query only the per-query term is vacuous: a failed run-wide check still reads False,
    # and a run that passes them reads as unbudgeted, since no readout was held to a budget
    all_within = bool(gram_within and fidelity_within and norm_successes > 0)
    if all_within:
        all_within = bool(np.all(columns["within_budget"])) if len(queries) else None
    fields = {
        **_quantum_fields(spec, coeffs, report, fidelity, columns["abs_err"], clamped),
        "lambda_min": spec.lambda_min,
        "lambda_max": spec.lambda_max,
        "budgets": asdict(budgets),
        "truncation_order": order,
        "gram_frobenius_error": eps_A_measured,
        "gram_frobenius_budget": budgets.eps_A,
        # bounds ||A^-1 E||_2; below 1/2 the ideal no-floor inversion solves on A's factor
        "gram_gamma_bound": eps_A_measured / spec.lambda_min,
        "gram_within_budget": gram_within,
        "budget_unreachable": budgets.eps_A < eps_A_floor,
        "inversion_mode": report.mode,
        # with no floor this reads the inversion's own solve, so it is 1 by construction;
        # fidelity_vs_exact_solution is not
        "fidelity_vs_classical": report.fidelity_vs_classical,
        "fidelity_within_budget": fidelity_within,
        "deviation_from_ideal": report.deviation_from_ideal,
        "repetitions_ledger": report.repetitions_ledger,
        "norm_successes": norm_successes,
        "all_within_budget": all_within,
        "dme_check": dme_summary,
    }
    return fields, columns, report


def _run_compact(cfg, dataset, kernel, queries, seed):
    oracle_cfg = compact.CompactOracleConfig(kernel=kernel, ae_bits=cfg["compact"]["ae_bits"],
                                             seed=seed)
    with _stage("classical solve"):
        system = interpolation.exact_system(dataset, kernel, normalized=True)
        spec, coeffs = system.spectrum, system.coeffs
        budgets = derive_budgets(cfg["epsilon"], spec.kappa, dataset.d)
    with _stage("oracle solve"):
        inv_cfg, clamped = _inversion_config(cfg, budgets, spec)
        creport = compact.solve_compact(dataset, oracle_cfg, inv_cfg, exact=system)
        report = creport.solve

    with _stage("readout"):
        readings = _basis_readings(dataset, kernel, queries, coeffs, report.state_out)
        columns, _ = _readout(
            readings, np.sqrt(readings.sq_norm), report, budgets, float(np.linalg.norm(system.y)),
            np.random.default_rng((seed, 2)),
        )

    # the oracle matrix's own LDL^T check reads NaN when it fails, and JSON has no NaN
    oracle_pd = not math.isnan(report.fidelity_vs_classical)
    fields = {
        **_quantum_fields(spec, coeffs, report, creport.fidelity_vs_exact_solution,
                          columns["abs_err"], clamped),
        "ae_bits": oracle_cfg.ae_bits,
        "sparsity": creport.sparsity,
        "matrix_frobenius_error": creport.matrix_error,
        "fidelity_vs_oracle_matrix": report.fidelity_vs_classical if oracle_pd else None,
        "oracle_matrix_positive_definite": oracle_pd,
    }
    return fields, columns, report


_RUNNERS = dict(zip(config.PIPELINES, (_run_classical, _run_global, _run_compact)))


# ---------------------------------------------------------------------------
# bound-verification suites

_SUITE_FIELDS = [
    "seed",
    "config_hash",
    "suite",
    "case",
    "detail",
    "measured",
    "bound",
    "passed",
]


@dataclass
class BoundSuiteResult:
    suite: str
    rows: list
    fieldnames: list
    n_failed: int
    files: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.n_failed == 0


def _slope(xs, ys) -> float:
    return float(np.polyfit(np.log(np.asarray(xs)), np.log(np.asarray(ys)), 1)[0])


def _suite_truncation(seed: int) -> list:
    ratios = np.arange(0.0, 2.25, 0.25)
    orders = range(2, 31)
    # one truncation_error call per order, over all ratios; rows keep (ratio, order) order
    measured = np.stack([coherent.truncation_error(ratios, 1.0, order) for order in orders], 1)
    rows = []
    for ratio, errs in zip(ratios, measured):
        for order, err in zip(orders, errs.tolist()):
            bound = coherent.truncation_bound(ratio, 1.0, order)
            rows.append((f"ratio={ratio}", f"order={order}", err, bound, err <= bound))
    return rows


def _suite_gram(seed: int) -> list:
    rows = []
    rng = np.random.default_rng(seed)
    for case in range(20):
        m = int(rng.integers(3, 9))
        d = int(rng.integers(1, 4))
        sigma = float(rng.uniform(0.4, 1.2))
        order = int(rng.integers(4, 12))
        ds = gen_data(m, d, [0.0, 1.0], int(rng.integers(2**31)), "cosines")
        rep = coherent.gram_report(ds, sigma, order)
        detail = f"m={m} d={d} order={order}"
        rows.append((f"case={case} frobenius", detail, rep.frobenius_error,
                     rep.frobenius_bound, rep.frobenius_error <= rep.frobenius_bound))
        rows.append((f"case={case} entrywise", detail, rep.entry_max_error,
                     rep.entry_bound, rep.entry_max_error <= rep.entry_bound))
        spec = interpolation.spectrum(rep.exact)
        rows.append((f"case={case} lambda_max", f"m={m} d={d}", spec.lambda_max,
                     1.0 + 1e-12, spec.lambda_max <= 1.0 + 1e-12))
    return rows


def _random_density(rng, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _suite_dme(seed: int) -> list:
    rows = []
    rng = np.random.default_rng(seed)
    steps = [8, 16, 32, 64, 128, 256, 512]
    for t in (0.5, 1.0, 2.0):
        a = _random_density(rng, 4)
        rho = _random_density(rng, 4)
        errors = [qcore.dme_error(a, rho, t, l) for l in steps]
        rows += [(f"t={t} evolve", f"steps={l}", err, None, True) for l, err in zip(steps, errors)]
        slope = _slope(steps, errors)
        rows.append((f"t={t} evolve-slope", "target -1 +/- 0.2", slope, -1.0,
                     abs(slope + 1.0) <= 0.2))
    # single-step error against the exact conjugation scales as dt^2
    a = _random_density(rng, 4)
    rho = _random_density(rng, 4)
    dts = np.array([0.2, 0.1, 0.05, 0.025, 0.0125])
    errs = [qcore.trace_norm(qcore.dme_step(a, rho, dt) - qcore.exact_conjugation(a, rho, dt))
            for dt in dts]
    rows += [("step", f"dt={dt}", err, None, True) for dt, err in zip(dts, errs)]
    slope = _slope(dts, errs)
    rows.append(("step-slope", "target 2 +/- 0.2", slope, 2.0, abs(slope - 2.0) <= 0.2))
    return rows


def _suite_inversion(seed: int) -> list:
    rows = []
    rng = np.random.default_rng(seed)
    for case in range(30):
        m = int(rng.integers(2, 17))
        g = rng.normal(size=(m, m))
        a, y = g @ g.T + m * np.eye(m), rng.normal(size=m)
        rep = qinvert.invert_ideal(interpolation.LinearSystem(a, y))
        c = np.linalg.solve(a, y)
        # against this LU solution: the report's own fidelity_vs_classical
        # reads its classical solution from the inversion's Cholesky factor
        fid = float(abs(np.vdot(c / np.linalg.norm(c), rep.state_out)))
        rows.append((f"case={case} fidelity", f"m={a.shape[0]}", fid, 1.0 - 1e-10,
                     fid >= 1.0 - 1e-10))
        rel = abs(rep.coeff_norm_est - np.linalg.norm(c)) / np.linalg.norm(c)
        rows.append((f"case={case} norm", "relative error of ||c|| estimate", rel, 1e-9,
                     rel <= 1e-9))
        floor = rep.kappa_eff**-2
        rows.append((f"case={case} post-selection", "lower bound kappa^-2 at C = lambda_min",
                     rep.post_select_prob, floor,
                     rep.post_select_prob >= floor * (1.0 - 1e-12)))
    # quantized mode: on-grid spectrum agrees with ideal; generic spectrum
    # converges with slope -1 in the evolution time
    lam = np.array([0.25, 0.5])
    a = np.diag(lam)
    system = interpolation.LinearSystem(a, np.array([1.0, 1.0]) / math.sqrt(2.0))
    qrep = qinvert.invert_quantized(
        system, qinvert.InversionConfig(mode="quantized", evolution_time=8 * math.pi, clock_bits=3)
    )
    rows.append(("on-grid deviation", "eigenphases {1, 2} on a 3-bit clock",
                 qrep.deviation_from_ideal, 1e-10, qrep.deviation_from_ideal <= 1e-10))
    g = rng.normal(size=(4, 4))
    a = g @ g.T + 4 * np.eye(4)
    a = a / np.linalg.eigvalsh(a)[-1]  # spectrum inside (0, 1]
    system = interpolation.LinearSystem(a, rng.normal(size=4))
    t0s = [2**k * math.pi for k in range(3, 8)]
    devs = []
    for t0 in t0s:
        rep = qinvert.invert_quantized(
            system, qinvert.InversionConfig(mode="quantized", evolution_time=t0, clock_bits=10)
        )
        devs.append(rep.deviation_from_ideal)
    slope = _slope(t0s, devs)
    rows.append(("t0-slope", "target -1 +/- 0.3", slope, -1.0, abs(slope + 1.0) <= 0.3))
    return rows


def _perturbation_instance(rng):
    """Random gaussian dataset at the first truncation order from 3 up with gamma < 0.5.

    Returns the dataset, its normalized matrix A, A's ascending eigenvalues,
    A^-1, the truncation perturbation dA = G - A and gamma = ||A^-1 dA||_2.
    A is decomposed once, by one eigvalsh and one inverse; gamma is taken
    from that inverse by SVD at every order in turn, and no order is
    skipped.  The Grams of the search share one pair exponent
    (coherent.grams_by_order), bit for bit gram_coherent's.  Datasets with
    kappa beyond 1e5 are redrawn: near the float64 floor the truncation
    perturbation can never bring ||A^-1 dA|| below 1 there.
    """
    for _ in range(50):
        m = int(rng.integers(3, 9))
        d = int(rng.integers(1, 4))
        sigma = float(rng.uniform(0.3, 0.8))
        ds = gen_data(m, d, [0.0, 1.0], int(rng.integers(2**31)), "franke")
        a = interpolation.assemble(ds, kernels.gaussian(sigma=sigma), normalized=True).data
        eig = np.linalg.eigvalsh(a)
        if not eig[0] > 0 or eig[-1] / eig[0] > 1e5:
            continue
        a_inv = np.linalg.inv(a)
        for gram in coherent.grams_by_order(ds, sigma, range(3, 40)):
            delta_a = gram.data - a
            gamma = float(interpolation.spectral_norm(a_inv @ delta_a))
            if gamma < 0.5:
                return ds, a, eig, a_inv, delta_a, gamma
    raise RuntimeError("could not draw a perturbation instance with gamma < 0.5")


def _suite_perturbation(seed: int) -> list:
    """Per case, the chain from dA to the coefficient state, the inverse bound
    ||(A+dA)^-1 - A^-1|| <= ||dA|| ||A^-1||^2 / (1 - gamma), and Weyl's bound: every
    sorted eigenvalue moves by at most ||dA||_2 (spectral norms).  A and A+dA are
    each decomposed once, by one inverse and one eigvalsh."""
    rows = []
    rng = np.random.default_rng(seed)
    for case in range(50):
        ds, a, eig, a_inv, delta_a, gamma = _perturbation_instance(rng)
        a_pert = a + delta_a
        pert_inv = np.linalg.inv(a_pert)
        lam_max = float(eig[-1])
        kappa = lam_max / float(eig[0])
        eps_a = float(np.linalg.norm(delta_a, "fro"))
        y = ds.values / ds.m
        c_exact, c_pert = a_inv @ y, pert_inv @ y
        u = c_exact / np.linalg.norm(c_exact)
        v = c_pert / np.linalg.norm(c_pert)
        measured = float(np.linalg.norm(u - v))
        bound = 2.0 * eps_a * kappa**2 / ((1.0 - gamma) * lam_max)
        rows.append((f"case={case} chain", f"m={ds.m} d={ds.d} gamma={gamma:.3e}",
                     measured, bound, measured <= bound))
        e_norm = float(interpolation.spectral_norm(delta_a))
        bound = float(e_norm * interpolation.spectral_norm(a_inv) ** 2 / (1.0 - gamma))
        measured = float(interpolation.spectral_norm(pert_inv - a_inv))
        rows.append((f"case={case} inverse", "contraction ok", measured, bound,
                     measured <= bound * (1.0 + 1e-12)))
        shift = float(np.max(np.abs(np.linalg.eigvalsh(a_pert) - eig)))
        rows.append((f"case={case} eigenvalue-shift", "spectral-norm bound", shift, e_norm,
                     shift <= e_norm * (1.0 + 1e-12) + 1e-15))
    return rows


def _suite_compact_oracle(seed: int) -> list:
    rows = []
    rng = np.random.default_rng(seed)
    # distance reconstruction through the amplitude encoding: the pairs are
    # drawn one by one, then each dimension's pairs are checked in one call
    pairs = {}
    for _ in range(1000):
        d = int(rng.integers(1, 6))
        pairs.setdefault(d, []).append((rng.normal(size=d), rng.normal(size=d)))
    worst = 0.0
    for group in pairs.values():
        x_i, x_j = (np.array(side) for side in zip(*group))
        err = compact.reconstruct_distance(x_i, x_j) - interpolation.row_norms(x_i - x_j)
        worst = max(worst, float(np.max(np.abs(err))))
    rows.append(("distance-roundtrip", "1000 random pairs, absolute error", worst, 1e-12,
                 worst <= 1e-12))
    # exact oracle mode reproduces the assembler
    ds = gen_data(10, 2, [0.0, 1.0], seed + 17, "franke")
    kern = kernels.wendland(3, 2, alpha=0.6)
    cfg = compact.CompactOracleConfig(kernel=kern, seed=seed)
    built = compact.build_matrix(ds, cfg)
    exact = interpolation.assemble(ds, kern)
    gap = float(np.max(np.abs((built.data - exact.data).toarray())))
    rows.append(("exact-mode-equality", "max entrywise gap vs assembler", gap, 0.0, gap <= 0.0))
    # column oracle reconstructs the sparsity pattern
    pattern = set()
    for j in range(ds.m):
        for ell in range(1, exact.sparsity + 1):
            i = compact.oracle_Pv(j, ell, exact)
            if i < ds.m:
                pattern.add((i, j))
    coo = exact.data.tocoo()
    truth = set(zip(coo.row.tolist(), coo.col.tolist()))
    rows.append(("column-oracle-scan", f"pattern of {len(truth)} nonzeros",
                 float(len(pattern ^ truth)), 0.0, pattern == truth))
    # estimated-mode entry error scales linearly with the estimation step; the
    # median over the pairs of one build does not hinge on a few unlucky draws
    bits_sweep = [4, 5, 6, 7, 8, 9, 10, 11, 12]
    upper = np.triu_indices(ds.m, k=1)
    exact_upper = exact.toarray()[upper]
    support = exact_upper != 0.0
    errs = []
    for bits in bits_sweep:
        cfg_b = compact.CompactOracleConfig(kernel=kern, ae_bits=bits, seed=seed)
        built_b = compact.build_matrix(ds, cfg_b).toarray()[upper]
        errs.append(float(np.median(np.abs(built_b - exact_upper)[support])))
    slope = _slope([2.0**-b for b in bits_sweep], errs)
    rows.append(("ae-error-slope", "median entrywise error vs 2^-bits, target 1 +/- 0.3", slope,
                 1.0, abs(slope - 1.0) <= 0.3))
    # positive definiteness at alpha = twice the median neighbor distance
    for dw, k in kernels.WENDLAND_PAIRS:
        d_data = min(dw, 3)
        ds_w = gen_data(12, d_data, [0.0, 1.0], seed + dw * 10 + k, "cosines")
        tree = cKDTree(ds_w.sites)
        nn, _ = tree.query(ds_w.sites, k=2)
        alpha = 2.0 * float(np.median(nn[:, 1]))
        kern_w = kernels.wendland(dw, k, alpha=alpha)
        spec = interpolation.spectrum(interpolation.assemble(ds_w, kern_w))
        rows.append((f"spd d={dw} k={k}", f"alpha={alpha:.4f} lambda_min", spec.lambda_min, 0.0,
                     spec.lambda_min > 0.0))
    return rows


# each runner takes the seed and returns (case, detail, measured, bound, passed)
# tuples; verify_bounds stamps them with the seed, config hash and suite
_SUITE_RUNNERS = {
    "truncation": _suite_truncation,
    "gram": _suite_gram,
    "dme": _suite_dme,
    "inversion": _suite_inversion,
    "perturbation": _suite_perturbation,
    "compact-oracle": _suite_compact_oracle,
}
SUITES = tuple(_SUITE_RUNNERS)


def verify_bounds(suite: str, seed=None, out_dir=None) -> BoundSuiteResult:
    """Run one bound-verification sweep and optionally write CSV/JSON reports."""
    if suite not in _SUITE_RUNNERS:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(_SUITE_RUNNERS)}")
    with _stage("config"):
        seed = config.resolve_seed(seed)
    chash = config.config_hash({"suite": suite, "seed": seed})
    rows = [
        dict(zip(_SUITE_FIELDS, (seed, chash, suite) + row)) for row in _SUITE_RUNNERS[suite](seed)
    ]
    n_failed = sum(1 for row in rows if not row["passed"])
    result = BoundSuiteResult(suite, rows, list(_SUITE_FIELDS), n_failed)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        cpath = os.path.join(out_dir, f"bounds_{suite}.csv")
        write_csv(cpath, result.fieldnames, rows)
        jpath = os.path.join(out_dir, f"bounds_{suite}.json")
        write_json(
            jpath,
            {
                "suite": suite,
                "seed": seed,
                "config_hash": chash,
                "rows": len(rows),
                "failed": n_failed,
                "ok": n_failed == 0,
            },
        )
        result.files = {"csv": cpath, "json": jpath}
    return result


# ---------------------------------------------------------------------------
# parameter sweeps

_SWEEP_FIELDS = [
    "seed",
    "config_hash",
    "param",
    "value",
    "kappa",
    "fidelity",
    "post_select_prob",
    "matrix_frobenius_error",
    "max_abs_err",
    "all_within_budget",
]


def sweep(cfg: dict, param: str, values, out_dir=None):
    """Rerun one pipeline config while varying a dot-path parameter."""
    rows = []
    for value in values:
        case = copy.deepcopy(cfg)
        case["output"] = None  # only sweep.csv is written; cases leave no run files behind
        with _stage("config"):
            config.set_by_path(case, param, value)
        result = run_pipeline(case)
        s = result.summary
        rows.append(
            {
                "seed": s["seed"],
                "config_hash": s["config_hash"],
                "param": param,
                "value": value,
                "kappa": s.get("kappa"),
                "fidelity": s.get("fidelity_vs_exact_solution"),
                "post_select_prob": s.get("post_select_prob"),
                "matrix_frobenius_error": s.get(
                    "matrix_frobenius_error", s.get("gram_frobenius_error")
                ),
                "max_abs_err": s.get("max_abs_err"),
                "all_within_budget": s.get("all_within_budget"),
            }
        )
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "sweep.csv")
        write_csv(path, _SWEEP_FIELDS, rows)
        return rows, path
    return rows, None
