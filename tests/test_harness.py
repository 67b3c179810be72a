"""Tests for data generation, budgets, pipelines, suites, and determinism."""

import csv
import io
import json
import math
import os
from types import SimpleNamespace

import numpy as np
import pytest

from qrbf import harness
from qrbf import interpolation as interp


def test_gen_data_shape_box_and_determinism():
    ds1 = harness.gen_data(15, 3, [-2.0, 2.0], seed=4)
    ds2 = harness.gen_data(15, 3, [-2.0, 2.0], seed=4)
    ds3 = harness.gen_data(15, 3, [-2.0, 2.0], seed=5)
    assert ds1.m == 15 and ds1.d == 3
    assert np.array_equal(ds1.sites, ds2.sites)
    assert np.array_equal(ds1.values, ds2.values)
    assert not np.array_equal(ds1.sites, ds3.sites)
    assert np.all(ds1.sites >= -2.0) and np.all(ds1.sites <= 2.0)
    assert np.unique(ds1.sites, axis=0).shape[0] == 15


def test_gen_data_targets():
    ds = harness.gen_data(10, 2, [0.0, 1.0], seed=0, target_fn="constant")
    assert np.all(ds.values == 1.0)
    ds = harness.gen_data(10, 2, [0.0, 1.0], seed=0, target_fn="cosines")
    want = np.prod(np.cos(2.0 * np.pi * ds.sites), axis=1)
    assert np.allclose(ds.values, want, rtol=1e-14)
    ds = harness.gen_data(10, 2, [0.0, 1.0], seed=0, target_fn="franke")
    assert np.all(np.isfinite(ds.values))
    with pytest.raises(ValueError):
        harness.gen_data(10, 2, [0.0, 1.0], seed=0, target_fn="unknown")


def test_resolve_seed_env_and_explicit(monkeypatch):
    monkeypatch.delenv("QRBF_SEED", raising=False)
    assert harness.resolve_seed(None) == 0
    assert harness.resolve_seed(7) == 7
    monkeypatch.setenv("QRBF_SEED", "13")
    assert harness.resolve_seed(None) == 13
    assert harness.resolve_seed(7) == 7  # explicit wins over the environment


def test_config_hash_stable_and_order_free():
    a = {"x": 1, "y": {"z": 2.5}}
    b = {"y": {"z": 2.5}, "x": 1}
    assert harness.config_hash(a) == harness.config_hash(b)
    assert len(harness.config_hash(a)) == 12
    assert harness.config_hash(a) != harness.config_hash({"x": 1, "y": {"z": 2.6}})


# literal config_hash values of configs that ran before unknown keys were
# refused: they must hash alike, so their outputs stay byte-identical.  The
# first three are the benchmark workloads at seed 0, the rest the configs this
# file runs.
_W = {"family": "wendland", "d": 3, "k": 2}
_PINNED_HASHES = [
    ("8f14f4ab12ae", {"pipeline": "quantum-global", "seed": 0, "dataset": {"m": 512, "d": 2},
                      "kernel": {"family": "gaussian", "sigma": 0.05},
                      "inversion": {"mode": "ideal"}, "queries": {"n": 20}}),
    ("16629ebc19bc", {"pipeline": "quantum-global", "seed": 0, "dataset": {"m": 64, "d": 2},
                      "kernel": {"family": "gaussian", "sigma": 0.1},
                      "inversion": {"mode": "ideal"}, "queries": {"n": 4000}}),
    ("f4fab2045417", {"pipeline": "quantum-compact", "seed": 0, "dataset": {"m": 128, "d": 2},
                      "kernel": dict(_W, alpha=0.15),
                      "inversion": {"mode": "ideal", "spectral_floor": 1e-3},
                      "compact": {"ae_bits": 8}}),
    ("cd99259549df", {"pipeline": "classical", "seed": 3, "queries": {"n": 5}}),
    ("9d0eb48f4635", {"pipeline": "quantum-global", "seed": 1,
                      "kernel": {"family": "gaussian", "sigma": 0.4}, "queries": {"n": 6}}),
    ("3b94c715adbc", {"pipeline": "quantum-global", "seed": 0, "dataset": {"m": 64}}),
    ("7118fb2e3784", {"pipeline": "quantum-global", "seed": 0,
                      "dataset": {"m": 16, "box": [10.0, 11.0]},
                      "kernel": {"family": "gaussian", "sigma": 0.4}, "queries": {"n": 4}}),
    ("5d26020fc86f", {"pipeline": "quantum-global", "seed": 0,
                      "dataset": {"m": 16, "box": [0.0, 1.0]},
                      "kernel": {"family": "gaussian", "sigma": 0.4}, "queries": {"n": 4}}),
    ("05b67e301b3b", {"pipeline": "quantum-global", "seed": 0,
                      "dataset": {"m": 32, "box": [0.0, 1.0]},
                      "kernel": {"family": "gaussian", "sigma": 0.03}, "queries": {"n": 4}}),
    ("15cc57e588c6", {"pipeline": "quantum-global", "seed": 0,
                      "dataset": {"m": 32, "box": [0.0, 1.0]},
                      "kernel": {"family": "gaussian", "sigma": 0.018}, "queries": {"n": 4}}),
    ("ae8feffa9706", {"pipeline": "quantum-global", "seed": 2,
                      "dataset": {"m": 24, "box": [-3.0, -1.5]},
                      "kernel": {"family": "gaussian", "sigma": 0.2}, "queries": {"n": 4}}),
    ("849f97d9f55a", {"pipeline": "quantum-global", "seed": 2,
                      "dataset": {"m": 24, "box": [0.0, 1.0]},
                      "kernel": {"family": "gaussian", "sigma": 0.2}, "queries": {"n": 4}}),
    ("e9817880659a", {"pipeline": "quantum-global", "seed": 0}),
    ("bed8925f931d", {"pipeline": "quantum-global", "seed": 3}),
    ("ee2154da91ee", {"pipeline": "quantum-global", "seed": 3, "epsilon": 0.05,
                      "kernel": {"family": "gaussian", "sigma": 0.15},
                      "inversion": {"mode": "quantized"}, "queries": {"n": 3}}),
    ("9ca69886f37d", {"pipeline": "quantum-global", "seed": 0, "inversion": {"mode": "quantized"}}),
    ("49d5fab8630f", {"pipeline": "quantum-global", "seed": 1, "inversion": {"mode": "quantized"}}),
    ("b21652d34e07", {"pipeline": "quantum-global", "seed": 2, "inversion": {"mode": "quantized"}}),
    ("36711939e2e5", {"pipeline": "quantum-global", "seed": 3, "inversion": {"mode": "quantized"}}),
    ("ba267988ce30", {"pipeline": "quantum-global", "seed": 1,
                      "dme_check": {"enabled": True, "t": 1.0, "steps": 32},
                      "queries": {"n": 2}}),
    ("da004536c21d", {"pipeline": "quantum-compact", "seed": 4, "kernel": dict(_W, alpha=0.7),
                      "queries": {"n": 5}}),
    ("31e43d5698f0", {"pipeline": "quantum-compact", "seed": 4, "kernel": dict(_W, alpha=0.7),
                      "compact": {"ae_bits": 10}, "queries": {"n": 4}}),
    ("6d2ff0b949a2", {"pipeline": "quantum-global", "seed": 2, "dataset": {"m": 40},
                      "kernel": {"family": "gaussian", "sigma": 0.1}, "queries": {"n": 50}}),
    ("219b7550ec88", {"pipeline": "quantum-compact", "seed": 2, "dataset": {"m": 40},
                      "kernel": dict(_W, alpha=0.3), "inversion": {"spectral_floor": 1e-3},
                      "compact": {"ae_bits": 8}, "queries": {"n": 50}}),
    ("1663081d83a1", {"pipeline": "quantum-global", "seed": 9, "queries": {"n": 4}}),
    ("46c4e68c13ca", {"pipeline": "quantum-compact", "seed": 3, "kernel": dict(_W, alpha=0.7),
                      "inversion": {"mode": "quantized"}}),
    ("a5d7f4a7df3a", {"pipeline": "quantum-global", "seed": 0,
                      "dataset": {"m": 64, "box": [0.0, 1.0]},
                      "kernel": {"family": "gaussian", "sigma": 0.1}, "queries": {"n": 4},
                      "inversion": {"mode": "ideal"}}),
    ("151e6ed6bff7", {"pipeline": "quantum-compact", "seed": 3, "kernel": dict(_W, alpha=0.7),
                      "inversion": {"mode": "ideal"}}),
    ("a16f27a864e2", {"pipeline": "quantum-compact", "seed": 0, "dataset": {"m": 128, "d": 2},
                      "kernel": dict(_W, alpha=0.15),
                      "inversion": {"mode": "ideal", "spectral_floor": 1e-3},
                      "compact": {"ae_bits": 8}, "queries": {"n": 3}}),
    ("8bd9760e3637", {"pipeline": "quantum-compact", "seed": 0, "dataset": {"m": 128, "d": 2},
                      "kernel": dict(_W, alpha=0.15),
                      "inversion": {"mode": "ideal", "spectral_floor": 1e-3},
                      "compact": {"ae_bits": None}, "queries": {"n": 3}}),
]


@pytest.mark.parametrize("want, cfg", _PINNED_HASHES, ids=[h for h, _ in _PINNED_HASHES])
def test_config_hash_of_a_valid_config_is_pinned(want, cfg):
    harness._check_config(cfg)
    merged = harness.merge_config(harness.default_config(), cfg)
    assert harness.config_hash(dict(merged, output=None)) == want


def test_default_config_hash_is_pinned_and_reported_by_a_run():
    assert harness.config_hash(harness.default_config()) == "4484c5432579"
    assert harness.run_pipeline({}).summary["config_hash"] == "4484c5432579"


def test_merge_config_is_recursive():
    base = {"a": {"b": 1, "c": 2}, "d": 3}
    out = harness.merge_config(base, {"a": {"c": 9}, "e": 4})
    assert out == {"a": {"b": 1, "c": 9}, "d": 3, "e": 4}
    assert base["a"]["c"] == 2  # base not mutated


def test_csv_body_repr_floats_and_determinism():
    rows = [{"a": 0.1 + 0.2, "b": None, "c": True, "d": 7}]
    body = harness.csv_body(["a", "b", "c", "d"], rows)
    assert body.splitlines()[1] == "0.30000000000000004,,True,7"
    assert body == harness.csv_body(["a", "b", "c", "d"], rows)


def test_csv_body_writes_each_cell_as_fmt_does():
    cells = [None, True, False, 0, -12, 2**70, "", "a,b", 'say "hi"', 0.1, -0.0, 1e-300,
             math.inf, math.nan, np.float64(0.1), np.float32(0.1), np.int64(-3), np.uint8(200),
             np.bool_(True), np.bool_(False), np.str_("s"), (1, 2)]
    fieldnames = [f"c{i}" for i in range(len(cells))]
    rows = [dict(zip(fieldnames, cells)), dict(zip(fieldnames, reversed(cells))), {}]
    # the per-cell writer: _fmt on every cell, missing cells as None
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(fieldnames)
    for row in rows:
        writer.writerow([harness._fmt(row.get(name)) for name in fieldnames])
    assert harness.csv_body(fieldnames, rows) == buf.getvalue()


def test_write_csv_round_trip(tmp_path):
    path = tmp_path / "rows.csv"
    rows = [{"v": float(np.pi)}, {"v": 1e-300}]
    harness.write_csv(path, ["v"], rows)
    text = path.read_text()
    vals = [float(line) for line in text.splitlines()[1:]]
    assert vals[0] == float(np.pi) and vals[1] == 1e-300


def test_derive_budgets_relations():
    b = harness.derive_budgets(1e-2, kappa=10.0, d=2)
    assert b.eps_c == 1e-2
    assert np.isclose(b.eps_A, 1e-2 / 100.0)
    assert np.isclose(b.delta, b.eps_A / 4.0)
    assert b.norm_samples == b.overlap_samples == 10000
    assert b.eps_E == b.eps_F == b.eps_p == 1e-2
    with pytest.raises(ValueError):
        harness.derive_budgets(0.0, 10.0, 2)
    with pytest.raises(ValueError):
        harness.derive_budgets(1.0, 10.0, 2)


def test_readout_budget_formula():
    b = harness.derive_budgets(1e-2, kappa=5.0, d=2)
    phi_norm, y_norm, C, c_norm, o_cl = 0.8, 0.6, 0.2, 3.0, 0.4
    base = max(0.0, 2.0 * (0.5 + 0.5 * o_cl**2) - 1.0)
    eps_o = math.sqrt(base + 2.0 * b.eps_p) - math.sqrt(base)
    want = phi_norm * (b.eps_F * y_norm / C + c_norm * (2.0 * b.eps_c + eps_o))
    got = harness.readout_budget(phi_norm, y_norm, C, c_norm, o_cl, b)
    assert np.isclose(got, want, rtol=1e-14)


def test_readout_budget_on_arrays_equals_scalar_calls():
    b = harness.derive_budgets(1e-2, kappa=7.0, d=2)
    rng = np.random.default_rng(12)
    phi_norm = np.append(rng.uniform(0.1, 2.0, 40), 0.0)
    o_cl = np.append(rng.uniform(-1.0, 1.0, 40), 0.0)
    got = harness.readout_budget(phi_norm, 0.6, 0.2, 3.0, o_cl, b)
    want = [harness.readout_budget(float(p), 0.6, 0.2, 3.0, float(o), b)
            for p, o in zip(phi_norm, o_cl)]
    assert got.tolist() == want
    assert got[-1] == 0.0


def test_classical_pipeline_runs_and_writes(tmp_path):
    cfg = {"pipeline": "classical", "seed": 3, "queries": {"n": 5}}
    out = tmp_path / "run"
    result = harness.run_pipeline(cfg, out_dir=str(out))
    assert result.summary["pipeline"] == "classical"
    assert result.summary["n_queries"] == 5
    assert len(result.query_rows) == 5
    assert all(np.isfinite(row["f_classical"]) for row in result.query_rows)
    assert os.path.exists(result.files["queries"])
    assert os.path.exists(result.files["summary"])
    assert os.path.exists(result.files["dataset"])
    back = interp.load_dataset(result.files["dataset"])
    assert back.m == 8


@pytest.mark.filterwarnings("error")
def test_classical_pipeline_on_all_zero_values_reads_zero_without_warnings(tmp_path):
    """y = 0 gives c = 0, whose norm the classical readout must not divide by."""
    path = tmp_path / "zero.csv"
    sites = np.array([[0.1, 0.2], [0.5, 0.7], [0.9, 0.3]])
    interp.save_dataset(interp.DataSet(sites, np.zeros(3)), path)
    cfg = {"pipeline": "classical", "seed": 0, "dataset": {"file": str(path)}}
    result = harness.run_pipeline(cfg, out_dir=str(tmp_path / "run"))
    assert result.summary["coeff_norm"] == 0.0
    with open(result.files["queries"], newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 20 and all(float(row["f_classical"]) == 0.0 for row in rows)


def test_a_null_dataset_file_draws_queries_from_the_dataset_box():
    cfg = {"pipeline": "classical", "seed": 0, "dataset": {"box": [0.2, 0.9]}}
    want = harness.run_pipeline(cfg).query_rows
    null = harness.run_pipeline(harness.merge_config(cfg, {"dataset": {"file": None}}))
    assert [(r["x1"], r["x2"]) for r in null.query_rows] == [(r["x1"], r["x2"]) for r in want]


def test_classical_pipeline_interpolates_training_data(tmp_path):
    qfile = tmp_path / "q.csv"
    ds = harness.gen_data(8, 2, [0.0, 1.0], seed=3)
    with open(qfile, "w") as fh:
        fh.write("x1,x2\n")
        for row in ds.sites:
            fh.write(f"{float(row[0])!r},{float(row[1])!r}\n")
    cfg = {
        "pipeline": "classical",
        "seed": 3,
        "dataset": {"m": 8, "d": 2, "box": [0.0, 1.0], "target": "franke", "seed": 3},
        "queries": {"file": str(qfile)},
    }
    result = harness.run_pipeline(cfg)
    got = np.array([row["f_classical"] for row in result.query_rows])
    assert np.allclose(got, ds.values, atol=1e-8)


def test_classical_wendland_run_at_alpha_half_and_m_1024_solves(factor_calls):
    # about 490 nonzeros per row and kappa 4e7: conjugate gradients stalled
    # here, the sparse LDL^T solves it once, to rounding
    s = harness.run_pipeline({
        "pipeline": "classical",
        "seed": 0,
        "dataset": {"m": 1024},
        "kernel": {"family": "wendland", "d": 3, "k": 2, "alpha": 0.5},
    }).summary
    assert s["kappa"] > 1e7
    assert s["site_residual_max"] <= 1e-12
    assert factor_calls == {"assemble": 1, "splu": 1, "eigvalsh": 1}


@pytest.mark.parametrize("pipeline", ["classical", "quantum-global", "quantum-compact"])
@pytest.mark.parametrize("source", ["header-only file", "n = 0"])
def test_an_empty_query_set_is_an_empty_unbudgeted_run(tmp_path, pipeline, source):
    """No query: no rows, a header-only queries.csv, and no budget verdict or readout error."""
    qfile = tmp_path / "q.csv"
    qfile.write_text("x1,x2\n")
    queries = {"file": str(qfile)} if source == "header-only file" else {"n": 0}
    out = tmp_path / "out"
    cfg = {"pipeline": pipeline, "seed": 0, "queries": queries}
    if pipeline == "quantum-compact":
        cfg["kernel"] = dict(_W, alpha=0.5)  # exact oracles: compact.ae_bits is None
    result = harness.run_pipeline(cfg, out)
    assert result.query_rows == []
    assert result.summary["n_queries"] == 0
    assert result.summary.get("all_within_budget") is None
    assert result.summary.get("max_abs_err") is None
    if pipeline != "classical":
        assert json.loads((out / "summary.json").read_text())["max_abs_err"] is None
    with open(out / "queries.csv", newline="") as fh:
        assert list(csv.reader(fh)) == [["seed", "config_hash", "x1", "x2",
                                         *harness._QUERY_BASE_FIELDS]]
    if pipeline == "quantum-global":
        # only the per-query term is vacuous: the clamped quantized clock at seed 1
        # loses the fidelity, and that fails the run with or without queries
        cfg = {"pipeline": pipeline, "seed": 1, "queries": queries,
               "inversion": {"mode": "quantized"}}
        s = harness.run_pipeline(cfg).summary
        assert s["fidelity_within_budget"] is False
        assert s["all_within_budget"] is False


def test_global_pipeline_analytic_readout_matches_classical():
    cfg = {
        "pipeline": "quantum-global",
        "seed": 1,
        "kernel": {"family": "gaussian", "sigma": 0.4},
        "queries": {"n": 6},
    }
    result = harness.run_pipeline(cfg)
    s = result.summary
    assert s["fidelity_vs_classical"] > 1.0 - 1e-9
    assert s["gram_frobenius_error"] <= s["gram_frobenius_budget"]
    assert s["gram_within_budget"] and not s["budget_unreachable"]
    for row in result.query_rows:
        assert abs(row["f_quantum_analytic"] - row["f_classical"]) < 1e-6
        assert row["within_budget"]
    assert s["fidelity_within_budget"] is True
    assert s["all_within_budget"]


def test_global_pipeline_flags_gram_budget_below_float_resolution():
    """m=64 at the default sigma: eps_A ~ 1e-29, far below what float64 can resolve."""
    cfg = {"pipeline": "quantum-global", "seed": 0, "dataset": {"m": 64}}
    s = harness.run_pipeline(cfg).summary
    assert s["gram_frobenius_budget"] < 1e-28
    assert 1e-17 < s["gram_frobenius_error"] < 1e-15
    assert s["budget_unreachable"] is True
    assert s["gram_within_budget"] is False
    # a Gram error above its budget is not a pass, whatever the readout says
    assert s["all_within_budget"] is False


def _global_cfg(m, sigma, box=(0.0, 1.0), seed=0, n=4):
    return {
        "pipeline": "quantum-global",
        "seed": seed,
        "dataset": {"m": m, "box": list(box)},
        "kernel": {"family": "gaussian", "sigma": sigma},
        "queries": {"n": n},
    }


def test_global_pipeline_encodes_centred_sites_at_a_lower_order():
    """The global-gram benchmark config: order 1161 with raw sites, 339 centred."""
    s = harness.run_pipeline(_global_cfg(512, 0.05, n=20)).summary
    assert s["truncation_order"] == 339
    assert s["fidelity_vs_classical"] > 1.0 - 1e-9


def test_global_pipeline_runs_on_a_translated_box():
    """Box [10, 11] encodes with (r/sigma)^2 = 755.9 raw; centred, it is box [0, 1]."""
    far = harness.run_pipeline(_global_cfg(16, 0.4, box=(10.0, 11.0))).summary
    unit = harness.run_pipeline(_global_cfg(16, 0.4)).summary
    assert far["truncation_order"] == unit["truncation_order"]
    assert far["fidelity_vs_classical"] > 1.0 - 1e-9


def test_global_pipeline_runs_at_large_centred_ratios():
    # centred (r/sigma)^2 is 265.7 at sigma 0.03 (1104.9 raw) and 738.2 at
    # sigma 0.018, where exp((r/sigma)^2) is past the float64 range
    for sigma in (0.03, 0.018):
        s = harness.run_pipeline(_global_cfg(32, sigma)).summary
        assert s["fidelity_vs_classical"] > 1.0 - 1e-9


def test_global_pipeline_inverts_the_gram_of_the_centred_dataset(monkeypatch):
    from qrbf import coherent, qinvert

    inverted = []
    invert = qinvert.invert

    def spy(system, cfg):
        inverted.append(np.array(system.matrix.toarray()))
        return invert(system, cfg)

    monkeypatch.setattr(qinvert, "invert", spy)
    cfg = _global_cfg(24, 0.2, box=(-3.0, -1.5), seed=2)
    s = harness.run_pipeline(cfg).summary
    ds = harness.gen_data(24, 2, [-3.0, -1.5], seed=2)
    sites = ds.sites - (ds.sites.min(axis=0) + ds.sites.max(axis=0)) / 2
    centred = coherent.centred(ds)
    assert np.array_equal(centred.sites, sites)
    assert np.array_equal(centred.values, ds.values)
    want = coherent.gram_coherent(centred, 0.2, s["truncation_order"]).data
    assert len(inverted) == 1 and np.array_equal(inverted[0], want)


def test_global_fidelity_vs_exact_solution_sees_a_wrong_state(monkeypatch):
    from qrbf import qinvert

    cfg = _global_cfg(24, 0.2, seed=2)
    good = harness.run_pipeline(cfg).summary
    assert good["fidelity_vs_exact_solution"] > 1.0 - 1e-9
    invert = qinvert.invert

    def reversed_state(system, config):
        # a wrong state under a report that still claims fidelity 1
        rep = invert(system, config)
        rep.state_out = rep.state_out[::-1]
        return rep

    monkeypatch.setattr(qinvert, "invert", reversed_state)
    bad = harness.run_pipeline(cfg).summary
    assert bad["fidelity_vs_classical"] == good["fidelity_vs_classical"]
    assert bad["fidelity_vs_exact_solution"] < 0.5


def test_sweep_fidelity_sees_a_wrong_global_state(monkeypatch, tmp_path):
    """sweep.csv's fidelity is against the exact solution, not the run's own factor."""
    from qrbf import qinvert

    cfg = _global_cfg(24, 0.2, seed=2)
    good, _ = harness.sweep(cfg, "seed", [2])
    assert good[0]["fidelity"] > 1.0 - 1e-9
    invert = qinvert.invert

    def reversed_state(system, config):
        rep = invert(system, config)
        rep.state_out = rep.state_out[::-1]
        return rep

    monkeypatch.setattr(qinvert, "invert", reversed_state)
    _, path = harness.sweep(cfg, "seed", [2], out_dir=str(tmp_path))
    with open(path, newline="") as fh:
        (row,) = list(csv.DictReader(fh))
    assert float(row["fidelity"]) < 0.5


def test_global_pipeline_needs_a_norm_success_to_pass():
    """No success in the norm draw reads every f_quantum as 0: not a pass."""
    for seed, successes in ((0, 4), (3, 0)):
        s = harness.run_pipeline({"pipeline": "quantum-global", "seed": seed}).summary
        rng = np.random.default_rng((seed, 1))
        assert s["norm_successes"] == successes
        assert successes == rng.binomial(s["budgets"]["norm_samples"], s["post_select_prob"])
        assert s["all_within_budget"] is (successes > 0)


def test_global_pipeline_rejects_non_gaussian_kernel():
    cfg = {
        "pipeline": "quantum-global",
        "kernel": {"family": "matern-c2", "eta": 1.0},
    }
    with pytest.raises(ValueError):
        harness.run_pipeline(cfg)


def test_global_pipeline_quantized_mode_smoke():
    # sharp kernel keeps kappa small enough for the 10-bit clock default
    cfg = {
        "pipeline": "quantum-global",
        "seed": 3,
        "epsilon": 5e-2,
        "kernel": {"family": "gaussian", "sigma": 0.15},
        "inversion": {"mode": "quantized"},
        "queries": {"n": 3},
    }
    result = harness.run_pipeline(cfg)
    s = result.summary
    assert s["inversion_mode"] == "quantized"
    assert s["deviation_from_ideal"] is not None
    assert s["deviation_from_ideal"] < 0.05


def test_global_pipeline_fails_where_the_clamped_clock_loses_fidelity():
    """Quantized default config: t0 = 1/(lambda_min eps_c) is clamped to the 10-bit cap.

    The state then reads fidelity 1.000, 0.106, 0.709 and 0.983 at seeds
    0-3, and a fidelity below 1 - eps_c is not a pass.
    """
    for seed, ok in ((0, True), (1, False), (2, False), (3, False)):
        cfg = {"pipeline": "quantum-global", "seed": seed, "inversion": {"mode": "quantized"}}
        s = harness.run_pipeline(cfg).summary
        assert s["evolution_time_clamped"] is True
        assert s["fidelity_within_budget"] is ok
        assert ok is (s["fidelity_vs_exact_solution"] >= 1.0 - s["budgets"]["eps_c"])
        if not ok:
            assert s["all_within_budget"] is False


def test_global_pipeline_dme_check_block():
    cfg = {
        "pipeline": "quantum-global",
        "seed": 1,
        "dme_check": {"enabled": True, "t": 1.0, "steps": 32},
        "queries": {"n": 2},
    }
    s = harness.run_pipeline(cfg).summary
    assert s["dme_check"] is not None
    assert s["dme_check"]["steps"] == 32
    assert s["dme_check"]["trace_norm_error"] > 0.0


def test_compact_pipeline_exact_oracles():
    cfg = {
        "pipeline": "quantum-compact",
        "seed": 4,
        "kernel": {"family": "wendland", "d": 3, "k": 2, "alpha": 0.7},
        "queries": {"n": 5},
    }
    result = harness.run_pipeline(cfg)
    s = result.summary
    assert s["pipeline"] == "quantum-compact"
    assert s["matrix_frobenius_error"] == 0.0
    assert s["fidelity_vs_exact_solution"] > 1.0 - 1e-9
    for row in result.query_rows:
        assert abs(row["f_quantum_analytic"] - row["f_classical"]) < 1e-6


def test_compact_pipeline_estimated_oracles():
    cfg = {
        "pipeline": "quantum-compact",
        "seed": 4,
        "kernel": {"family": "wendland", "d": 3, "k": 2, "alpha": 0.7},
        "compact": {"ae_bits": 10},
        "queries": {"n": 4},
    }
    s = harness.run_pipeline(cfg).summary
    assert s["matrix_frobenius_error"] > 0.0
    assert s["fidelity_vs_exact_solution"] > 0.99


@pytest.mark.parametrize(
    "cfg",
    [
        {"pipeline": "quantum-global", "seed": 1},
        {
            "pipeline": "quantum-compact",
            "seed": 4,
            "kernel": {"family": "wendland", "d": 3, "k": 2, "alpha": 0.7},
            "compact": {"ae_bits": 10},
        },
    ],
)
def test_query_beyond_every_site_reads_zero_and_takes_no_draw(tmp_path, cfg):
    both = tmp_path / "both.csv"
    both.write_text("x1,x2\n0.5,0.5\n50.0,50.0\n0.25,0.75\n")
    near = tmp_path / "near.csv"
    near.write_text("x1,x2\n0.5,0.5\n0.25,0.75\n")
    rows = harness.run_pipeline(dict(cfg, queries={"file": str(both)})).query_rows
    near_rows = harness.run_pipeline(dict(cfg, queries={"file": str(near)})).query_rows
    far = rows[1]
    assert far["f_classical"] == 0.0
    assert far["f_quantum"] == 0.0 and far["f_quantum_analytic"] == 0.0 and far["abs_err"] == 0.0
    if cfg["pipeline"] == "quantum-global":
        assert far["budget"] == 0.0 and far["within_budget"] is True
    else:
        assert far.get("budget") is None and far.get("within_budget") is None
    # the far query takes no swap-test draw, so the near rows keep their draws
    def strip(row):
        return {k: v for k, v in row.items() if k != "config_hash"}

    assert [strip(rows[0]), strip(rows[2])] == [strip(r) for r in near_rows]


_READOUT_CONFIGS = [
    {"pipeline": "quantum-global", "seed": 2, "dataset": {"m": 40},
     "kernel": {"family": "gaussian", "sigma": 0.1}, "queries": {"n": 50}},
    {"pipeline": "quantum-compact", "seed": 2, "dataset": {"m": 40},
     "kernel": {"family": "wendland", "d": 3, "k": 2, "alpha": 0.3},
     "inversion": {"spectral_floor": 1e-3}, "compact": {"ae_bits": 8},
     "queries": {"n": 50}},
    {"pipeline": "classical", "seed": 2, "dataset": {"m": 40},
     "kernel": {"family": "wendland", "d": 3, "k": 2, "alpha": 0.3}, "queries": {"n": 50}},
]
_READOUT_IDS = ["global", "compact", "classical"]


@pytest.mark.parametrize("cfg", _READOUT_CONFIGS, ids=_READOUT_IDS)
def test_query_rows_do_not_depend_on_the_readout_block(monkeypatch, cfg):
    whole = harness.run_pipeline(cfg)
    for cells in (1, 3 * 40 + 1):  # one query per block; blocks of 3 with a ragged tail
        monkeypatch.setattr(harness, "_READOUT_BLOCK_CELLS", cells)
        blocked = harness.run_pipeline(cfg)
        assert blocked.query_rows == whole.query_rows
        assert blocked.summary == whole.summary


@pytest.mark.parametrize("cfg", _READOUT_CONFIGS, ids=_READOUT_IDS)
def test_query_rows_hold_only_builtin_values(cfg):
    for row in harness.run_pipeline(cfg).query_rows:
        assert all(type(v) in (float, int, bool, str) for v in row.values()), row


@pytest.mark.parametrize("d, n", [(1, 5), (2, 7), (3, 4), (2, 0)])
def test_query_rows_match_the_per_row_reference_key_for_key(d, n):
    rng = np.random.default_rng(d)
    queries = rng.uniform(size=(n, d))
    columns = {"f_classical": rng.normal(size=n), "abs_err": rng.uniform(size=n)}
    columns["within_budget"] = columns["abs_err"] <= 0.5
    rows, fields = harness._query_rows(queries, 9, "abc123", columns)
    coords, names = [f"x{i + 1}" for i in range(d)], list(columns)
    want = [{"seed": 9, "config_hash": "abc123", **dict(zip(coords, x)), **dict(zip(names, vals))}
            for x, *vals in zip(queries.tolist(), *(c.tolist() for c in columns.values()))]
    assert rows == want and len(rows) == n
    assert [list(r) for r in rows] == [list(r) for r in want]
    assert all(type(r["within_budget"]) is bool for r in rows)
    assert fields == ["seed", "config_hash", *coords, *harness._QUERY_BASE_FIELDS]


@pytest.mark.parametrize("cfg", _READOUT_CONFIGS, ids=_READOUT_IDS)
def test_query_row_keys_come_in_query_field_order(cfg):
    result = harness.run_pipeline(cfg)
    assert result.query_rows
    for row in result.query_rows:
        assert list(row) == [f for f in result.query_fields if f in row]


@pytest.mark.parametrize("cfg", _READOUT_CONFIGS, ids=_READOUT_IDS)
def test_batched_readout_matches_the_per_query_reference(cfg):
    """Within m ulps of the scale of each sum: the batch reduces rows in another order."""
    from qrbf import compact, kernels

    result = harness.run_pipeline(cfg)
    full = harness.merge_config(harness.default_config(), cfg)
    ds = harness._load_or_generate_dataset(full, cfg["seed"])
    queries = harness._query_points(full, ds, cfg["seed"])
    kern = kernels.from_config(full["kernel"])
    classical = cfg["pipeline"] == "classical"
    system = interp.exact_system(ds, kern, normalized=not classical)
    c, report = system.coeffs.c, result.solve_report
    tol = ds.m * np.finfo(float).eps
    reached = 0
    for x, row in zip(queries, result.query_rows):
        phi = interp.basis_vector(ds, kern, x)
        assert abs(row["f_classical"] - float(np.dot(c, phi))) <= tol * np.abs(c) @ phi
        reached += bool(np.any(phi))
        if classical:
            assert "f_quantum_analytic" not in row
            continue
        if not np.any(phi):
            assert row["f_quantum_analytic"] == 0.0
            continue
        state = report.state_out
        if cfg["pipeline"] == "quantum-global":
            norm = float(np.linalg.norm(phi))
            unit = phi / norm
            budgets = harness.derive_budgets(full["epsilon"], system.spectrum.kappa, ds.d)
            budget = harness.readout_budget(
                norm, float(np.linalg.norm(system.y)), report.rotation_scale,
                system.coeffs.norm, float(np.dot(c / system.coeffs.norm, unit)), budgets,
            )
            assert row["budget"] == pytest.approx(budget, rel=tol)
        else:
            oracle = compact.CompactOracleConfig(kernel=kern, ae_bits=full["compact"]["ae_bits"])
            phi_state, _, norm = compact.prepare_phi_state(x, ds, oracle)
            unit = phi_state.real
        want = report.coeff_norm_est * norm * float(np.real(np.vdot(state, unit)))
        scale = report.coeff_norm_est * norm * (np.abs(state) @ unit)
        assert abs(row["f_quantum_analytic"] - want) <= tol * scale
    assert reached > 0


def test_readout_draws_norm_first_then_one_binomial_per_reached_query():
    basis_norm = np.array([0.7, 0.0, 1.3, 0.4, 0.0, 0.9])
    readings = harness._BasisReadings(
        f_classical=np.array([0.2, 0.0, -0.5, 0.1, 1e-300, 0.3]),
        sq_norm=basis_norm**2,
        overlap=np.array([0.3, 0.0, -0.6, 0.05, 0.0, 0.8]),
        swap_p=np.array([0.545, np.nan, 0.68, 0.50125, np.nan, 0.82]),
        overlap_classical=np.zeros(6),
    )
    report = SimpleNamespace(post_select_prob=0.3, rotation_scale=0.2, coeff_norm_est=2.5)
    rng = np.random.default_rng(7)
    shots = SimpleNamespace(norm_samples=1000, overlap_samples=500)
    columns, _ = harness._readout(readings, basis_norm, report, shots, 0.6, rng)
    f_q, f_a, err = columns["f_quantum"], columns["f_quantum_analytic"], columns["abs_err"]

    ref = np.random.default_rng(7)
    coeff_norm = math.sqrt(ref.binomial(1000, 0.3) / 1000) * 0.6 / 0.2
    want_q, want_a = [], []
    for norm, o, p in zip(basis_norm, readings.overlap, readings.swap_p):
        if norm == 0.0:
            want_q.append(0.0)
            want_a.append(0.0)
            continue
        o_mag = math.sqrt(max(0.0, 2.0 * (ref.binomial(500, float(p)) / 500) - 1.0))
        want_q.append(coeff_norm * norm * math.copysign(o_mag, o))
        want_a.append(2.5 * norm * o)
    assert f_q.tolist() == want_q
    assert f_a.tolist() == want_a
    assert err.tolist() == [abs(q - f) for q, f in zip(want_q, readings.f_classical)]
    # both generators made the same draws, no more
    assert rng.random() == ref.random()


def test_non_pd_exact_system_names_its_fix_without_a_second_spectrum(factor_calls):
    with pytest.raises(RuntimeError, match=r"\[stage: classical solve\]") as info:
        harness.run_pipeline({"pipeline": "quantum-global", "seed": 0, "dataset": {"m": 128}})
    assert info.value.stage == "classical solve"
    assert isinstance(info.value.__cause__, interp.NotPositiveDefiniteError)
    message = str(info.value)
    assert "lambda_min -5." in message and "kappa inf" in message
    assert "kernel.sigma" in message and "dataset.m" in message
    assert factor_calls["eigvalsh"] == 1


def test_pipeline_rejects_unknown_name():
    with pytest.raises(ValueError):
        harness.run_pipeline({"pipeline": "noqueue"})


def test_multiquadric_is_refused_at_the_kernel_stage_naming_the_valid_families():
    cfg = {"pipeline": "classical", "kernel": {"family": "multiquadric", "eta": 1.0}}
    with pytest.raises(RuntimeError, match=r"\[stage: kernel\]") as info:
        harness.run_pipeline(cfg)
    assert isinstance(info.value.__cause__, ValueError)
    message = str(info.value.__cause__)
    assert "unknown kernel family 'multiquadric'" in message and "'gaussian'" in message


def test_unknown_config_keys_are_refused_with_the_nearest_valid_key():
    cfg = {"pipeline": "quantum-global", "seed": 0,
           "inversion": {"mode": "quantized", "clock_bit": 3}, "epsilonn": 5}
    with pytest.raises(ValueError) as info:
        harness.run_pipeline(cfg)
    message = str(info.value)
    assert "unknown config key 'inversion.clock_bit'; did you mean 'inversion.clock_bits'?" \
        in message
    assert "unknown config key 'epsilonn'; did you mean 'epsilon'?" in message
    # a dotted path is how errors and --set name a key, not a key of the config itself
    with pytest.raises(ValueError, match="unknown config key 'dataset.m'"):
        harness.run_pipeline({"dataset.m": 5})


@pytest.mark.parametrize("key", ["norm_samples", "overlap_samples"])
def test_shot_counts_are_not_config_keys(key):
    """The readout takes its shots from the budgets, which the summary records."""
    with pytest.raises(ValueError, match=f"unknown config key 'inversion.{key}'"):
        harness.run_pipeline({"pipeline": "quantum-global", "inversion": {key: 100}})


def test_a_dotted_top_level_key_is_told_to_nest():
    with pytest.raises(ValueError) as info:
        harness.run_pipeline({"dataset.m": 5, "kernel.sigma": 0.3})
    assert str(info.value).splitlines() == [
        """unknown config key 'dataset.m'; nest it as {"dataset": {"m": ...}}""",
        """unknown config key 'kernel.sigma'; nest it as {"kernel": {"sigma": ...}}""",
    ]


def test_sweep_over_an_unknown_key_is_refused_and_writes_nothing(tmp_path):
    cfg = {"pipeline": "quantum-global", "seed": 0, "inversion": {"mode": "quantized"}}
    with pytest.raises(ValueError, match="did you mean 'inversion.clock_bits'"):
        harness.sweep(cfg, "inversion.clock_bit", [2, 5], out_dir=str(tmp_path))
    assert list(tmp_path.iterdir()) == []


def test_a_section_that_is_not_an_object_is_refused():
    with pytest.raises(ValueError, match="section 'queries' must be an object, got None"):
        harness.run_pipeline({"pipeline": "classical", "queries": None})


_BAD_INPUT_FILES = [
    ("dataset", "x1,x2,y\n0.1,0.2,0.3\n0.5,0.6,nan\n",
     ", line 3, column y: 'nan' is not a finite number"),
    ("dataset", "x1,x2,y\n0.1,0.2,0.3\ninf,0.6,0.1\n",
     ", line 3, column x1: 'inf' is not a finite number"),
    ("queries", "x1,x2\n0.1,0.2\n\n0.3,nan\n", ", line 4, column x2: 'nan' is not a finite number"),
    ("dataset", "x1,x2,y\n0.1,0.2,abc\n", ", line 2, column y: 'abc' is not a finite number"),
    ("queries", "x1,x2\n0.1,0.2\n0.3\n", ", line 3: 1 columns, the header has 2"),
    ("queries", "", ": empty file, no header"),
    ("dataset", "x1,x2,y\n", ": no data rows"),
]


@pytest.mark.parametrize("pipeline", ["classical", "quantum-global"])
@pytest.mark.parametrize("section, text, cause", _BAD_INPUT_FILES,
                         ids=["nan value", "inf site", "nan query", "text value", "ragged query",
                              "empty query file", "header-only dataset"])
def test_a_bad_input_file_is_refused_at_the_dataset_stage_with_its_name(
        tmp_path, pipeline, section, text, cause):
    path = tmp_path / f"bad-{section}.csv"
    path.write_text(text)
    cfg = {"pipeline": pipeline, "seed": 0, section: {"file": str(path)}}
    with pytest.raises(RuntimeError) as info:
        harness.run_pipeline(cfg)
    assert info.value.stage == "dataset"
    assert str(info.value) == f"[stage: dataset] {path}{cause}"


def test_stage_labels_surface_in_errors():
    cfg = {"pipeline": "classical", "dataset": {"m": 3, "d": 2, "box": [0.0, 0.0]}}
    with pytest.raises(RuntimeError, match="stage: dataset"):
        harness.run_pipeline(cfg)


def test_stage_lets_keyboard_interrupt_through(monkeypatch):
    interrupt = KeyboardInterrupt()

    def raise_interrupt(cfg):
        raise interrupt

    monkeypatch.setattr(harness.kernels, "from_config", raise_interrupt)
    with pytest.raises(KeyboardInterrupt) as info:
        harness.run_pipeline({"pipeline": "classical"})
    assert info.value is interrupt


def test_verify_bounds_truncation_suite_and_files(tmp_path):
    res = harness.verify_bounds("truncation", seed=0, out_dir=str(tmp_path))
    assert res.ok and res.n_failed == 0
    assert len(res.rows) > 200
    assert os.path.exists(res.files["csv"])
    assert os.path.exists(res.files["json"])
    payload = json.loads(open(res.files["json"]).read())
    assert payload["failed"] == 0 and payload["ok"]
    for row in res.rows:
        assert list(row) == harness._SUITE_FIELDS
        assert (row["seed"], row["config_hash"], row["suite"]) == (
            0, payload["config_hash"], "truncation"
        )
    with pytest.raises(ValueError):
        harness.verify_bounds("not-a-suite")


def test_inversion_suite_fidelity_rows_check_the_state_against_an_independent_solve(monkeypatch):
    from qrbf import qinvert

    good = harness.verify_bounds("inversion", seed=0)
    fidelity = [r for r in good.rows if r["case"].endswith(" fidelity")]
    assert len(fidelity) == 30 and all(r["passed"] for r in fidelity)
    invert_ideal = qinvert.invert_ideal

    def reversed_state(system, config=None):
        # a wrong state under a report that still claims fidelity 1
        rep = invert_ideal(system, config)
        rep.state_out = rep.state_out[::-1]
        return rep

    monkeypatch.setattr(qinvert, "invert_ideal", reversed_state)
    bad = harness.verify_bounds("inversion", seed=0)
    assert all(not r["passed"] for r in bad.rows if r["case"].endswith(" fidelity"))


def test_inversion_suite_decomposes_each_quantized_system_once(factor_calls):
    harness.verify_bounds("inversion", seed=0)
    # one eigh for the on-grid system, one for the system the t0 loop inverts five times
    assert factor_calls["eigh"] == 2


def test_verify_bounds_rows_are_deterministic():
    a = harness.verify_bounds("gram", seed=5)
    b = harness.verify_bounds("gram", seed=5)
    body_a = harness.csv_body(a.fieldnames, a.rows)
    body_b = harness.csv_body(b.fieldnames, b.rows)
    assert body_a == body_b


def test_sweep_over_ae_bits(tmp_path):
    cfg = {
        "pipeline": "quantum-compact",
        "seed": 6,
        "kernel": {"family": "wendland", "d": 3, "k": 2, "alpha": 0.8},
        "queries": {"n": 3},
    }
    rows, path = harness.sweep(cfg, "compact.ae_bits", [6, 10], out_dir=str(tmp_path))
    assert [row["value"] for row in rows] == [6, 10]
    assert all(np.isfinite(row["max_abs_err"]) for row in rows)
    assert os.path.exists(path)


def test_set_by_path_nested():
    cfg = harness.default_config()
    harness._set_by_path(cfg, "inversion.mode", "quantized")
    assert cfg["inversion"]["mode"] == "quantized"
    harness._set_by_path(cfg, "dataset.m", 5)
    assert cfg["dataset"]["m"] == 5
    cfg["queries"] = None
    with pytest.raises(ValueError, match="config section 'queries' must be an object, got None"):
        harness._set_by_path(cfg, "queries.n", 3)


def test_pipeline_outputs_are_byte_identical_across_reruns(tmp_path):
    cfg = {
        "pipeline": "quantum-global",
        "seed": 9,
        "queries": {"n": 4},
    }
    out1, out2 = tmp_path / "a", tmp_path / "b"
    harness.run_pipeline(dict(cfg), out_dir=str(out1))
    harness.run_pipeline(dict(cfg), out_dir=str(out2))
    for name in ("queries.csv", "summary.json", "dataset.csv", "solve_report.json"):
        b1 = (out1 / name).read_bytes()
        b2 = (out2 / name).read_bytes()
        assert b1 == b2, f"{name} differs between reruns"


def test_quantized_compact_run_factorizes_each_system_once(factor_calls):
    harness.run_pipeline({
        "pipeline": "quantum-compact",
        "seed": 3,
        "kernel": {"family": "wendland", "d": 3, "k": 2, "alpha": 0.7},
        "inversion": {"mode": "quantized"},
    })
    # exact oracles (ae_bits None) invert the exact system itself: one
    # assembly, one spectrum, one eigh for the inversion, and one sparse
    # LDL^T that both the coefficients and the classical check solve from
    assert factor_calls == {"assemble": 1, "eigvalsh": 1, "eigh": 1, "splu": 1}


def test_ideal_global_run_factorizes_each_matrix_once(factor_calls):
    cfg = _global_cfg(64, 0.1)
    cfg["inversion"] = {"mode": "ideal"}
    harness.run_pipeline(cfg)
    # the exact system: one assembly, one spectrum, one Cholesky solve; the
    # Gram: its eigenvalues and one Cholesky factor, no eigenbasis
    assert factor_calls == {"assemble": 1, "eigvalsh": 2, "cho_factor": 2}


def test_exact_ideal_compact_run_inverts_its_exact_system(factor_calls, monkeypatch):
    from qrbf import compact

    def refuse(*args, **kwargs):
        raise AssertionError("exact oracles invert the exact system, not a rebuilt matrix")

    monkeypatch.setattr(compact, "build_matrix", refuse)
    s = harness.run_pipeline({
        "pipeline": "quantum-compact",
        "seed": 3,
        "kernel": {"family": "wendland", "d": 3, "k": 2, "alpha": 0.7},
        "inversion": {"mode": "ideal"},
    }).summary
    # one assembly, one spectrum for the budgets and the inversion both,
    # and one sparse LDL^T for the coefficients and the inverted state
    assert factor_calls == {"assemble": 1, "eigvalsh": 1, "splu": 1}
    assert s["matrix_frobenius_error"] == 0.0
    assert s["fidelity_vs_exact_solution"] > 1.0 - 1e-10


_NON_PD_ORACLE_CFG = {
    "pipeline": "quantum-compact",
    "seed": 0,
    "dataset": {"m": 128, "d": 2},
    "kernel": {"family": "wendland", "d": 3, "k": 2, "alpha": 0.15},
    "inversion": {"mode": "ideal", "spectral_floor": 1e-3},
    "compact": {"ae_bits": 8},
}


def test_non_pd_oracle_matrix_takes_no_eigenvalues_for_its_fidelity(factor_calls):
    # m=128 at ae_bits 8: the oracle matrix is not positive definite, so its
    # LDL^T check fails without a spectrum to word an error
    result = harness.run_pipeline(_NON_PD_ORACLE_CFG)
    assert result.summary["fidelity_vs_oracle_matrix"] is None
    assert math.isnan(result.solve_report.fidelity_vs_classical)
    # eigvalsh only for the exact system's spectrum; one sparse LDL^T for
    # each of the exact system and the oracle matrix
    assert factor_calls == {"assemble": 1, "eigvalsh": 1, "eigh": 1, "splu": 2}


def _strict_json(path):
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(path.read_text(), parse_constant=refuse)


@pytest.mark.parametrize("ae_bits, positive_definite", [(8, False), (None, True)])
def test_compact_summary_is_strict_json_and_flags_a_non_pd_oracle_matrix(
    tmp_path, ae_bits, positive_definite
):
    cfg = {**_NON_PD_ORACLE_CFG, "compact": {"ae_bits": ae_bits}, "queries": {"n": 3}}
    harness.run_pipeline(cfg, out_dir=str(tmp_path))
    summary = _strict_json(tmp_path / "summary.json")
    report = _strict_json(tmp_path / "solve_report.json")
    assert summary["oracle_matrix_positive_definite"] is positive_definite
    if positive_definite:
        # the spectral floor projects the state off the smallest eigenvalues
        assert 0.5 < summary["fidelity_vs_oracle_matrix"] <= 1.0
        assert report["fidelity_vs_classical"] == summary["fidelity_vs_oracle_matrix"]
    else:
        assert summary["fidelity_vs_oracle_matrix"] is None
        assert report["fidelity_vs_classical"] is None


_SOLVE_REPORT_KEYS = {
    "mode", "eigenvalues", "kept", "overlaps", "rotation_scale", "post_select_prob",
    "norm_factor", "coeff_norm_est", "state_out_real", "state_out_imag",
    "fidelity_vs_classical", "repetitions_ledger", "kappa_eff", "spectral_floor",
    "evolution_time", "clock_bits", "deviation_from_ideal", "clock_leak",
}


def _plain_json_values(value) -> bool:
    """True when value is built only of lists, dicts and builtin scalars, with no numpy type."""
    if isinstance(value, list):
        return all(_plain_json_values(v) for v in value)
    if isinstance(value, dict):
        return all(_plain_json_values(v) for v in value.values())
    return type(value) in (str, int, float, bool, type(None))


@pytest.mark.parametrize("cfg, cholesky_path, factor_fails", [
    ({"pipeline": "quantum-global"}, True, False),
    ({"pipeline": "quantum-global", "inversion": {"spectral_floor": 1e-3}}, False, False),
    ({"pipeline": "quantum-global", "kernel": {"sigma": 0.15}, "epsilon": 0.05,
      "inversion": {"mode": "quantized"}}, False, False),
    *(({**_NON_PD_ORACLE_CFG, "seed": seed}, False, True) for seed in range(3)),
], ids=["cholesky", "floor", "quantized", "compact-ae-0", "compact-ae-1", "compact-ae-2"])
def test_solve_report_json_schema_on_every_inversion_path(tmp_path, cfg, cholesky_path,
                                                          factor_fails):
    result = harness.run_pipeline({"seed": 0, **cfg, "queries": {"n": 3}},
                                  out_dir=str(tmp_path))
    out = result.solve_report.to_dict()
    json.dumps(out)  # no ndarray or numpy scalar is left in the dict
    assert _plain_json_values(out)
    assert set(out) == _SOLVE_REPORT_KEYS
    assert _strict_json(tmp_path / "solve_report.json") == out
    assert (out["overlaps"] is None) == cholesky_path
    assert (out["fidelity_vs_classical"] is None) == factor_fails
    assert len(out["state_out_real"]) == len(out["state_out_imag"]) == len(out["eigenvalues"])
