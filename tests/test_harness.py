"""Tests for data generation, budgets, pipelines, suites, and determinism."""

import collections
import copy
import csv
import dataclasses
import io
import json
import math
import os
import re
from types import SimpleNamespace

import numpy as np
import pytest

from qrbf import config, harness
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
    assert config.resolve_seed(None) == 0
    assert config.resolve_seed(7) == 7
    monkeypatch.setenv("QRBF_SEED", "13")
    assert config.resolve_seed(None) == 13
    assert config.resolve_seed(7) == 7  # explicit wins over the environment


@pytest.mark.parametrize("seed", [True, False, 2.0, "3"], ids=repr)
def test_an_explicit_seed_must_be_an_integer_as_given(seed, monkeypatch):
    """QRBF_SEED text is parsed, an explicit seed is not: True would run as seed 1 under
    another config hash, and 2.0 as seed 2."""
    monkeypatch.setenv("QRBF_SEED", "3")
    assert config.resolve_seed(None) == 3
    want = f"seed {seed!r} is not a non-negative integer; set seed (--seed) or QRBF_SEED"
    with pytest.raises(ValueError) as info:
        config.resolve_seed(seed)
    assert str(info.value) == want
    assert _config_refusal(harness.verify_bounds, "gram", seed=seed) == want
    assert config.resolve_seed(np.int64(2)) == 2


def test_config_hash_stable_and_order_free():
    a = {"x": 1, "y": {"z": 2.5}}
    b = {"y": {"z": 2.5}, "x": 1}
    assert config.config_hash(a) == config.config_hash(b)
    assert len(config.config_hash(a)) == 12
    assert config.config_hash(a) != config.config_hash({"x": 1, "y": {"z": 2.6}})


# literal config_hash values: the first three are the benchmark workloads at
# seed 0, the rest the configs this file runs.  A run hashes its full config,
# with the kernel family's defaults filled in, so these move only when a
# default or a key of that config does.  They last moved when the inert
# compact.scale_hat key was deleted and default_config() stopped giving every
# family the gaussian's sigma: a wendland config no longer hashes a sigma.
_W = {"family": "wendland", "d": 3, "k": 2}
_PINNED_HASHES = [
    ("ca5f27fbf790", {"pipeline": "quantum-global", "seed": 0, "dataset": {"m": 512, "d": 2},
                      "kernel": {"family": "gaussian", "sigma": 0.05},
                      "inversion": {"mode": "ideal"}, "queries": {"n": 20}}),
    ("21a15d054bb2", {"pipeline": "quantum-global", "seed": 0, "dataset": {"m": 64, "d": 2},
                      "kernel": {"family": "gaussian", "sigma": 0.1},
                      "inversion": {"mode": "ideal"}, "queries": {"n": 4000}}),
    ("bda312db0134", {"pipeline": "quantum-compact", "seed": 0, "dataset": {"m": 128, "d": 2},
                      "kernel": dict(_W, alpha=0.15),
                      "inversion": {"mode": "ideal", "spectral_floor": 1e-3},
                      "compact": {"ae_bits": 8}}),
    ("d01f2c82c965", {"pipeline": "classical", "seed": 3, "queries": {"n": 5}}),
    ("438362c7abb8", {"pipeline": "quantum-global", "seed": 1,
                      "kernel": {"family": "gaussian", "sigma": 0.4}, "queries": {"n": 6}}),
    ("3cb469058c8a", {"pipeline": "quantum-global", "seed": 0, "dataset": {"m": 64}}),
    ("a0d1f388bbf5", {"pipeline": "quantum-global", "seed": 0,
                      "dataset": {"m": 16, "box": [10.0, 11.0]},
                      "kernel": {"family": "gaussian", "sigma": 0.4}, "queries": {"n": 4}}),
    ("1627f7aef783", {"pipeline": "quantum-global", "seed": 0,
                      "dataset": {"m": 16, "box": [0.0, 1.0]},
                      "kernel": {"family": "gaussian", "sigma": 0.4}, "queries": {"n": 4}}),
    ("b7bdbdd4d19e", {"pipeline": "quantum-global", "seed": 0,
                      "dataset": {"m": 32, "box": [0.0, 1.0]},
                      "kernel": {"family": "gaussian", "sigma": 0.03}, "queries": {"n": 4}}),
    ("980b08bb049b", {"pipeline": "quantum-global", "seed": 0,
                      "dataset": {"m": 32, "box": [0.0, 1.0]},
                      "kernel": {"family": "gaussian", "sigma": 0.018}, "queries": {"n": 4}}),
    ("a735d64e5f1b", {"pipeline": "quantum-global", "seed": 2,
                      "dataset": {"m": 24, "box": [-3.0, -1.5]},
                      "kernel": {"family": "gaussian", "sigma": 0.2}, "queries": {"n": 4}}),
    ("4ceb970f0073", {"pipeline": "quantum-global", "seed": 2,
                      "dataset": {"m": 24, "box": [0.0, 1.0]},
                      "kernel": {"family": "gaussian", "sigma": 0.2}, "queries": {"n": 4}}),
    ("1ea64b412da2", {"pipeline": "quantum-global", "seed": 0}),
    ("b2d60bd7848b", {"pipeline": "quantum-global", "seed": 3}),
    ("182bf87fc893", {"pipeline": "quantum-global", "seed": 3, "epsilon": 0.05,
                      "kernel": {"family": "gaussian", "sigma": 0.15},
                      "inversion": {"mode": "quantized"}, "queries": {"n": 3}}),
    ("f58dcd80463d", {"pipeline": "quantum-global", "seed": 0, "inversion": {"mode": "quantized"}}),
    ("a9705ab33d12", {"pipeline": "quantum-global", "seed": 1, "inversion": {"mode": "quantized"}}),
    ("a648ba74c395", {"pipeline": "quantum-global", "seed": 2, "inversion": {"mode": "quantized"}}),
    ("36db567f9bd3", {"pipeline": "quantum-global", "seed": 3, "inversion": {"mode": "quantized"}}),
    ("876180f650e2", {"pipeline": "quantum-global", "seed": 1,
                      "dme_check": {"enabled": True, "t": 1.0, "steps": 32},
                      "queries": {"n": 2}}),
    ("5f45e9c23fc2", {"pipeline": "quantum-compact", "seed": 4, "kernel": dict(_W, alpha=0.7),
                      "queries": {"n": 5}}),
    ("e06ca0ece8a4", {"pipeline": "quantum-compact", "seed": 4, "kernel": dict(_W, alpha=0.7),
                      "compact": {"ae_bits": 10}, "queries": {"n": 4}}),
    ("430e0b836a70", {"pipeline": "quantum-global", "seed": 2, "dataset": {"m": 40},
                      "kernel": {"family": "gaussian", "sigma": 0.1}, "queries": {"n": 50}}),
    ("2bfb547af287", {"pipeline": "quantum-compact", "seed": 2, "dataset": {"m": 40},
                      "kernel": dict(_W, alpha=0.3), "inversion": {"spectral_floor": 1e-3},
                      "compact": {"ae_bits": 8}, "queries": {"n": 50}}),
    ("36db09e0ca6b", {"pipeline": "quantum-global", "seed": 9, "queries": {"n": 4}}),
    ("4da869c3ff3c", {"pipeline": "quantum-compact", "seed": 3, "kernel": dict(_W, alpha=0.7),
                      "inversion": {"mode": "quantized"}}),
    ("fe666503965c", {"pipeline": "quantum-global", "seed": 0,
                      "dataset": {"m": 64, "box": [0.0, 1.0]},
                      "kernel": {"family": "gaussian", "sigma": 0.1}, "queries": {"n": 4},
                      "inversion": {"mode": "ideal"}}),
    ("cde3b210667d", {"pipeline": "quantum-compact", "seed": 3, "kernel": dict(_W, alpha=0.7),
                      "inversion": {"mode": "ideal"}}),
    ("81c7e12e78eb", {"pipeline": "quantum-compact", "seed": 0, "dataset": {"m": 128, "d": 2},
                      "kernel": dict(_W, alpha=0.15),
                      "inversion": {"mode": "ideal", "spectral_floor": 1e-3},
                      "compact": {"ae_bits": 8}, "queries": {"n": 3}}),
    ("73842f0964c0", {"pipeline": "quantum-compact", "seed": 0, "dataset": {"m": 128, "d": 2},
                      "kernel": dict(_W, alpha=0.15),
                      "inversion": {"mode": "ideal", "spectral_floor": 1e-3},
                      "compact": {"ae_bits": None}, "queries": {"n": 3}}),
]


@pytest.mark.parametrize("want, cfg", _PINNED_HASHES, ids=[h for h, _ in _PINNED_HASHES])
def test_config_hash_of_a_valid_config_is_pinned(want, cfg):
    assert config.config_hash(dict(config.full_config(cfg), output=None)) == want


def test_default_config_hash_is_pinned_and_reported_by_a_run():
    assert config.config_hash(config.full_config({})) == "f1f648a42725"
    assert harness.run_pipeline({}).summary["config_hash"] == "f1f648a42725"


def test_merge_config_is_recursive():
    base = {"a": {"b": 1, "c": 2}, "d": 3}
    out = config.merge_config(base, {"a": {"c": 9}, "e": 4})
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
    null = harness.run_pipeline(config.merge_config(cfg, {"dataset": {"file": None}}))
    assert [(r["x1"], r["x2"]) for r in null.query_rows] == [(r["x1"], r["x2"]) for r in want]


def test_a_dataset_file_leaves_the_box_unread(tmp_path):
    """With a dataset file the sites and the query box come from the file: no box is
    checked there, while gen_data refuses a malformed one with the shape it needs."""
    path = tmp_path / "data.csv"
    interp.save_dataset(harness.gen_data(8, 2, [0.0, 1.0], seed=3), str(path))
    cfg = {"pipeline": "classical", "seed": 0, "dataset": {"file": str(path)}}
    runs = [harness.run_pipeline(config.merge_config(cfg, {"dataset": {"box": box}}))
            for box in ([0.0, 1.0], "a")]
    want, got = ([(r["x1"], r["x2"], r["f_classical"]) for r in run.query_rows] for run in runs)
    assert got == want
    for box in ("a", [1.0], [[0.0, 1.0], [0.0]], [1.0, 0.0]):
        with pytest.raises(ValueError, match=r"^box must be \[lo, hi\] or 3 rows \[lo, hi\]"):
            harness.gen_data(8, 3, box, seed=0)


@pytest.mark.parametrize("box", [[0.0, math.inf], [math.nan, 1.0], [-math.inf, 0.0],
                                 [[0.0, 1.0], [0.0, math.nan]]], ids=repr)
def test_a_box_bound_that_is_not_finite_is_refused(box):
    """NumPy's uniform would refuse an infinite range in its own words, and a nan
    bound would draw nan sites."""
    with pytest.raises(ValueError, match=r"^box must be \[lo, hi\] or 2 rows \[lo, hi\]"):
        harness.gen_data(8, 2, box, seed=0)


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
    # here, the sparse LDL^T solves it once, to rounding, and its extremes
    # come from Lanczos through that factor, not from a dense eigvalsh
    s = harness.run_pipeline({
        "pipeline": "classical",
        "seed": 0,
        "dataset": {"m": 1024},
        "kernel": {"family": "wendland", "d": 3, "k": 2, "alpha": 0.5},
    }).summary
    assert s["kappa"] > 1e7
    assert s["site_residual_max"] <= 1e-12
    assert factor_calls == {"assemble": 1, "splu": 1, "eigsh": 2}


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
    with pytest.raises(harness._StageError) as info:
        harness.run_pipeline(cfg)
    assert info.value.stage == "config"
    assert "kernel.family" in str(info.value)


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
        monkeypatch.setattr(interp, "BLOCK_CELLS", cells)
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


def test_query_rows_are_distinct_dicts():
    """Every row is its own copy of the template: setting one row's value leaves the others."""
    queries = np.random.default_rng(3).uniform(size=(4, 2))
    columns = {"f_classical": np.arange(4.0), "abs_err": np.ones(4)}
    rows, _ = harness._query_rows(queries, 9, "abc123", columns)
    built = copy.deepcopy(rows)
    rows[1]["f_classical"] = -7.0
    assert len({id(row) for row in rows}) == len(rows)
    assert rows[:1] + rows[2:] == built[:1] + built[2:]
    assert rows[1] == {**built[1], "f_classical": -7.0}


@pytest.mark.parametrize("cfg", _READOUT_CONFIGS, ids=_READOUT_IDS)
def test_query_row_keys_come_in_query_field_order(cfg):
    result = harness.run_pipeline(cfg)
    assert result.query_rows
    for row in result.query_rows:
        assert list(row) == [f for f in result.query_fields if f in row]


@pytest.mark.parametrize("cfg", _READOUT_CONFIGS, ids=_READOUT_IDS)
def test_batched_readout_matches_the_per_query_reference(cfg):
    """Within m ulps of the scale of each sum: the batch reduces rows in another order."""
    from qrbf import compact

    result = harness.run_pipeline(cfg)
    full = config.merge_config(config.default_config(), cfg)
    ds = harness._load_or_generate_dataset(full, cfg["seed"])
    queries = harness._query_points(full, ds, cfg["seed"])
    kern = config.from_config(full["kernel"])
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
            phi_state, norm = compact.prepare_phi_state(x, ds, oracle)
            unit = phi_state.real
        want = report.coeff_norm_est * norm * float(np.real(np.vdot(state, unit)))
        scale = report.coeff_norm_est * norm * (np.abs(state) @ unit)
        assert abs(row["f_quantum_analytic"] - want) <= tol * scale
    assert reached > 0


@pytest.mark.parametrize("m, kernel", [
    (8, {"family": "gaussian"}),
    (64, {"family": "gaussian", "sigma": 0.1}),
    (64, {"family": "wendland", "d": 3, "k": 2, "alpha": 0.3}),
], ids=["gaussian-m8", "gaussian-m64", "wendland-m64"])
@pytest.mark.parametrize("seed", [0, 1])
def test_evaluate_is_the_f_classical_of_a_classical_run(m, kernel, seed):
    """interpolation.evaluate at each query is that query's f_classical, bit for bit."""
    cfg = {"pipeline": "classical", "seed": seed, "dataset": {"m": m}, "kernel": kernel,
           "queries": {"n": 200}}
    result = harness.run_pipeline(cfg)
    full = config.full_config(cfg)
    ds = harness._load_or_generate_dataset(full, seed)
    kern = config.from_config(full["kernel"])
    coeffs = interp.exact_system(ds, kern).coeffs
    got = [interp.evaluate(coeffs, ds, kern, x) for x in harness._query_points(full, ds, seed)]
    assert got == [row["f_classical"] for row in result.query_rows]


@pytest.mark.parametrize("m", [64, 128])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_prepare_phi_state_is_the_readouts_unit_row_and_norm(monkeypatch, m, seed):
    """Each query's state and norm are, bit for bit, the unit row the readout's swap test
    takes and the square root of its sq_norm."""
    from qrbf import compact, kernels, qinvert

    kern = kernels.wendland(3, 2, alpha=0.3)
    ds = harness.gen_data(m, 2, [0.0, 1.0], seed)
    queries = np.random.default_rng(seed + 1).uniform(0.0, 1.0, size=(20, 2))
    coeffs = interp.exact_system(ds, kern, normalized=True).coeffs
    units = []
    swap_test = qinvert.swap_test
    monkeypatch.setattr(qinvert, "swap_test", lambda u, v: units.append(v) or swap_test(u, v))
    readings = harness._basis_readings(ds, kern, queries, coeffs, coeffs.c / coeffs.norm)
    reached = readings.sq_norm > 0.0
    units = np.concatenate(units)
    assert units.shape[0] == np.count_nonzero(reached) > 0
    oracle = compact.CompactOracleConfig(kernel=kern)
    for x, unit, sq in zip(queries[reached], units, readings.sq_norm[reached]):
        state, norm = compact.prepare_phi_state(x, ds, oracle)
        assert norm == np.sqrt(sq)
        assert np.array_equal(state, unit.astype(complex))


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


def _config_refusal(call, *args, **kwargs) -> str:
    """The cause of the config-stage error that call(*args, **kwargs) raises, as text."""
    with pytest.raises(harness._StageError) as info:
        call(*args, **kwargs)
    assert info.value.stage == "config"
    assert isinstance(info.value.__cause__, ValueError)
    return str(info.value.__cause__)


def test_pipeline_rejects_unknown_name():
    message = _config_refusal(harness.run_pipeline, {"pipeline": "noqueue"})
    assert "unknown pipeline 'noqueue'" in message


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
    message = _config_refusal(harness.run_pipeline, cfg)
    assert "unknown config key 'inversion.clock_bit'; did you mean 'inversion.clock_bits'?" \
        in message
    assert "unknown config key 'epsilonn'; did you mean 'epsilon'?" in message
    # a dotted path is how errors and --set name a key, not a key of the config itself
    assert re.search("unknown config key 'dataset.m'",
                     _config_refusal(harness.run_pipeline, {"dataset.m": 5}))


@pytest.mark.parametrize("key", ["norm_samples", "overlap_samples"])
def test_shot_counts_are_not_config_keys(key):
    """The readout takes its shots from the budgets, which the summary records."""
    message = _config_refusal(harness.run_pipeline,
                              {"pipeline": "quantum-global", "inversion": {key: 100}})
    assert re.search(f"unknown config key 'inversion.{key}'", message)


def test_rotation_scale_is_not_a_config_key():
    """C is always the largest admissible rotation scale; solve_report.json records it."""
    message = _config_refusal(harness.run_pipeline,
                              {"pipeline": "quantum-global", "inversion": {"rotation_scale": 0.1}})
    assert re.search("unknown config key 'inversion.rotation_scale'", message)


def test_scale_hat_is_not_a_config_key():
    """The query norm is read as ||Phi(x)||, which the preparation's success probability
    gives back at every rotation scaling."""
    message = _config_refusal(harness.run_pipeline,
                              {"pipeline": "quantum-compact", "compact": {"scale_hat": 0.5}})
    assert re.search("unknown config key 'compact.scale_hat'", message)


@pytest.mark.parametrize("kernel, key, reads", [
    ({"family": "gaussian", "alpha": 0.3}, "alpha", "'sigma', 'eta'"),
    ({"family": "wendland", "d": 3, "k": 2, "alpha": 0.7, "sigma": 0.4}, "sigma",
     "'d', 'k', 'alpha'"),
    ({"family": "matern-c2", "eta": 2.0, "sigma": 0.4}, "sigma", "'eta'"),
], ids=["alpha-on-gaussian", "sigma-on-wendland", "sigma-on-matern-c2"])
def test_a_kernel_key_its_family_does_not_read_is_refused(kernel, key, reads):
    message = _config_refusal(harness.run_pipeline, {"pipeline": "classical", "kernel": kernel})
    assert message == f"kernel family {kernel['family']!r} reads no key {key!r}; it reads {reads}"


def test_a_gaussian_configured_by_eta_takes_no_default_sigma():
    result = harness.run_pipeline({"pipeline": "classical", "seed": 0, "kernel": {"eta": 2.0}})
    assert result.summary["kernel"] == {"family": "gaussian", "eta": 2.0}
    by_sigma = harness.run_pipeline({"pipeline": "classical", "seed": 0,
                                     "kernel": {"sigma": math.sqrt(1.0 / 8.0)}})
    assert result.query_rows[0]["f_classical"] == by_sigma.query_rows[0]["f_classical"]
    assert harness.run_pipeline({"seed": 0}).summary["kernel"] == {"family": "gaussian",
                                                                 "sigma": 0.4}


@pytest.mark.parametrize("kernel", [{"family": "matern-c2", "eta": 2.0},
                                    {"family": "wendland", "d": 3, "k": 2, "alpha": 0.7}],
                         ids=["matern-c2", "wendland"])
def test_a_family_without_sigma_echoes_no_sigma(kernel):
    summary = harness.run_pipeline({"pipeline": "classical", "seed": 0, "kernel": kernel}).summary
    assert summary["kernel"] == kernel


_WENDLAND = {"family": "wendland", "d": 3, "k": 2, "alpha": 0.7}
_QUANTIZED = {"pipeline": "quantum-global", "inversion": {"mode": "quantized"}}
_DME = {"pipeline": "quantum-global", "dme_check": {"enabled": True}, "queries": {"n": 2}}


def _data_file(tmp_path):
    path = tmp_path / "data.csv"
    interp.save_dataset(harness.gen_data(8, 2, [0.0, 1.0], 3), str(path))
    return str(path)


def _query_file(tmp_path):
    path = tmp_path / "queries.csv"
    path.write_text("x1,x2\n0.1,0.2\n0.7,0.4\n")
    return str(path)


# every key a config may set -> (a config that reads it, a second valid value, or a
# function of the test's tmp_path giving one); the first value is what that config,
# or the default, gives
_KEY_CASES = {
    "seed": ({}, 1),
    "pipeline": ({}, "quantum-global"),
    "dataset.m": ({}, 9),
    "dataset.d": ({}, 1),
    "dataset.box": ({}, [0.0, 2.0]),
    "dataset.target": ({}, "cosines"),
    "dataset.file": ({}, _data_file),
    "dataset.seed": ({}, 5),
    "kernel.family": ({"kernel": {"family": "matern-c2", "eta": 2.0}}, "matern-c4"),
    "kernel.sigma": ({}, 0.3),
    "kernel.eta": ({"kernel": {"eta": 2.0}}, 3.0),
    "kernel.d": ({"kernel": _WENDLAND}, 1),
    "kernel.k": ({"kernel": _WENDLAND}, 4),
    "kernel.alpha": ({"kernel": _WENDLAND}, 0.5),
    "epsilon": ({"pipeline": "quantum-global"}, 0.05),
    "inversion.mode": ({"pipeline": "quantum-global"}, "quantized"),
    "inversion.spectral_floor": ({"pipeline": "quantum-global"}, 1e-3),
    "inversion.evolution_time": (_QUANTIZED, 50.0),
    "inversion.clock_bits": (dict(_QUANTIZED, inversion={"mode": "quantized",
                                                         "evolution_time": 50.0}), 6),
    "compact.ae_bits": ({"pipeline": "quantum-compact", "kernel": _WENDLAND}, 10),
    "dme_check.enabled": (dict(_DME, dme_check={"enabled": False}), True),
    "dme_check.t": (_DME, 0.5),
    "dme_check.steps": (_DME, 32),
    "queries.n": ({}, 3),
    "queries.file": ({}, _query_file),
    "queries.seed": ({}, 5),
    "output": ({}, lambda tmp_path: str(tmp_path / "out")),
}

# summary fields and query columns that echo the config rather than compute from it
_ECHOES = ("config_hash", "seed", "pipeline", "kernel", "ae_bits", "t", "steps")


def _leaves(node, path=()):
    """(path, value) of every value under node but the echoes of the config."""
    if isinstance(node, dict):
        for key, val in node.items():
            if key not in _ECHOES:
                yield from _leaves(val, (*path, key))
    elif isinstance(node, list):
        for i, val in enumerate(node):
            yield from _leaves(val, (*path, i))
    else:
        yield path, node


def _moved(a, b) -> bool:
    """Whether runs a and b computed or wrote something apart by more than rounding.

    Floats are apart beyond 1e-9 relative (1e-12 absolute); every other
    value, and the set of fields, must be equal.
    """
    la, lb = (dict(_leaves([r.summary, r.query_rows, r.files])) for r in (a, b))
    if la.keys() != lb.keys():
        return True
    for key, x in la.items():
        y = lb[key]
        both_floats = isinstance(x, float) and isinstance(y, float)
        if not (np.allclose(x, y, rtol=1e-9, atol=1e-12, equal_nan=True) if both_floats
                else x == y):
            return True
    return False


def test_the_key_cases_name_every_config_key():
    keys = set(config._SCHEMA)
    keys |= {f"kernel.{k}" for family in harness.kernels.CONFIG_KEYS.values() for k in family}
    assert set(_KEY_CASES) == keys


@pytest.mark.parametrize("key", list(_KEY_CASES))
def test_no_config_key_is_inert(key, tmp_path):
    """A second value of each key moves, by more than rounding, something the run
    computes, or where it writes its files."""
    cfg, value = _KEY_CASES[key]
    cfg = config.merge_config({"pipeline": "classical", "seed": 0, "queries": {"n": 4}},
                               copy.deepcopy(cfg))
    changed = copy.deepcopy(cfg)
    config.set_by_path(changed, key, value(tmp_path) if callable(value) else value)
    assert _moved(harness.run_pipeline(changed), harness.run_pipeline(cfg))


def test_a_dotted_top_level_key_is_told_to_nest():
    message = _config_refusal(harness.run_pipeline, {"dataset.m": 5, "kernel.sigma": 0.3})
    assert message.splitlines() == [
        """unknown config key 'dataset.m'; nest it as {"dataset": {"m": ...}}""",
        """unknown config key 'kernel.sigma'; nest it as {"kernel": {"sigma": ...}}""",
    ]


def test_sweep_over_an_unknown_key_is_refused_and_writes_nothing(tmp_path):
    cfg = {"pipeline": "quantum-global", "seed": 0, "inversion": {"mode": "quantized"}}
    message = _config_refusal(harness.sweep, cfg, "inversion.clock_bit", [2, 5],
                              out_dir=str(tmp_path))
    assert re.search("did you mean 'inversion.clock_bits'", message)
    assert list(tmp_path.iterdir()) == []


def test_a_section_that_is_not_an_object_is_refused():
    message = _config_refusal(harness.run_pipeline, {"pipeline": "classical", "queries": None})
    assert re.search("section 'queries' must be an object, got None", message)


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

    monkeypatch.setattr(config, "from_config", raise_interrupt)
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


def _per_order_perturbation_instance(rng):
    """The order search with one full gram_coherent build per order, each from its own
    tables, and gamma from the one inverse of A."""
    from qrbf import coherent, kernels

    for _ in range(50):
        m = int(rng.integers(3, 9))
        d = int(rng.integers(1, 4))
        sigma = float(rng.uniform(0.3, 0.8))
        ds = harness.gen_data(m, d, [0.0, 1.0], int(rng.integers(2**31)), "franke")
        exact = interp.assemble(ds, kernels.gaussian(sigma=sigma), normalized=True)
        if interp.spectrum(exact).kappa > 1e5:
            continue
        a_inv = np.linalg.inv(exact.data)
        for order in range(3, 40):
            delta_a = coherent.gram_coherent(ds, sigma, order).data - exact.data
            gamma = float(interp.spectral_norm(a_inv @ delta_a))
            if gamma < 0.5:
                return ds, exact.data, np.linalg.eigvalsh(exact.data), a_inv, delta_a, gamma
    raise RuntimeError("could not draw a perturbation instance with gamma < 0.5")


def _per_order_truncation_suite(seed: int) -> list:
    """The truncation suite with one truncation_error call per ratio and order."""
    from qrbf import coherent

    rows = []
    for ratio in np.arange(0.0, 2.25, 0.25):
        for order in range(2, 31):
            err = float(coherent.truncation_error(float(ratio), 1.0, order))
            bound = coherent.truncation_bound(ratio, 1.0, order)
            rows.append((f"ratio={ratio}", f"order={order}", err, bound, err <= bound))
    return rows


def _suite_body(suite: str, seed: int) -> str:
    res = harness.verify_bounds(suite, seed=seed)
    return f"{res.n_failed}\n" + harness.csv_body(res.fieldnames, res.rows)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_order_searches_from_one_log_table_equal_the_per_order_builds(monkeypatch, seed):
    """perturbation and truncation rows equal those of one build per order: one
    gram_coherent per order for the Grams that share a pair exponent, one scalar
    truncation_error per ratio and order for the errors taken over all ratios at once."""
    got = {suite: _suite_body(suite, seed) for suite in ("perturbation", "truncation")}
    monkeypatch.setattr(harness, "_perturbation_instance", _per_order_perturbation_instance)
    monkeypatch.setitem(harness._SUITE_RUNNERS, "truncation", _per_order_truncation_suite)
    for suite, body in got.items():
        assert body == _suite_body(suite, seed), suite


def test_perturbation_suite_decomposes_each_matrix_once(monkeypatch):
    """One inverse and one eigvalsh of A and of A + dA in each case, and no LU solve: gamma,
    the coefficient states and the inverse bound all read the one inverse of each matrix."""
    calls = collections.defaultdict(list)

    def spy(name):
        original = getattr(np.linalg, name)

        def recorded(a, *args, **kwargs):
            calls[name].append(np.asarray(a).tobytes())
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)

    for name in ("solve", "inv", "eigvalsh"):
        spy(name)
    cases = len(harness._suite_perturbation(0)) // 3
    assert cases == 50 and calls["solve"] == []
    assert len(calls["inv"]) == 2 * cases
    # the datasets redrawn for their kappa take an eigvalsh and no inverse
    for name in ("inv", "eigvalsh"):
        assert len(set(calls[name])) == len(calls[name]), f"a matrix took two {name} calls"
    assert set(calls["inv"]) <= set(calls["eigvalsh"])


def _per_pair_roundtrip_row(seed: int) -> tuple:
    """The distance-roundtrip row from one reconstruction per pair, as amplitude times scale."""
    from qrbf import compact

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 6))
        x_i = rng.normal(size=d)
        x_j = rng.normal(size=d)
        r = float(np.linalg.norm(x_i - x_j))
        got = compact.distance_amplitude(x_i, x_j) * compact.pair_scale(x_i, x_j)
        worst = max(worst, abs(got - r))
    return ("distance-roundtrip", "1000 random pairs, absolute error", worst, 1e-12,
            worst <= 1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_distance_roundtrip_row_equals_the_per_pair_loop(seed):
    res = harness.verify_bounds("compact-oracle", seed=seed)
    row = res.rows[0]
    assert tuple(row[k] for k in harness._SUITE_FIELDS[3:]) == _per_pair_roundtrip_row(seed)
    assert type(row["measured"]) is float
    assert 0.0 < row["measured"] <= 1e-12


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
    cfg = config.default_config()
    config.set_by_path(cfg, "inversion.mode", "quantized")
    assert cfg["inversion"]["mode"] == "quantized"
    config.set_by_path(cfg, "dataset.m", 5)
    assert cfg["dataset"]["m"] == 5
    cfg["queries"] = None
    with pytest.raises(ValueError, match="config section 'queries' must be an object, got None"):
        config.set_by_path(cfg, "queries.n", 3)


_WENDLAND = {"family": "wendland", "d": 3, "k": 2, "alpha": 0.7}
# a valid kernel of each pipeline, which a row's own kernel section overrides
_PIPELINE_KERNEL = {"classical": {"family": "gaussian"}, "quantum-global": {"family": "gaussian"},
                    "quantum-compact": _WENDLAND}
_QUANTIZED_WRAP = {"mode": "quantized", "evolution_time": 1e6, "clock_bits": 3}
_ESTIMATED_NOT_PD = {"dataset": {"m": 128}, "compact": {"ae_bits": 8},
                     "kernel": {"family": "wendland", "d": 3, "k": 2, "alpha": 0.15}}

# The failure contract (ROADMAP item 18): each refusal names its stage, its cause and
# the setting that fixes it, or the input that is invalid.  A row is (id, pipelines,
# config file, stage, cause, knob): the config file is JSON text, written as it is,
# or a dict written as JSON over each pipeline's valid config, with "{dataset}"
# or "{queries}" standing for the input file _CONTRACT_FILES holds for the row;
# "{config}" in the knob stands for the config file's own path.
_FAILURE_CONTRACT = [
    ("unknown key", config.PIPELINES, {"inversion": {"clock_bit": 3}},
     "config", "unknown config key 'inversion.clock_bit'", "inversion.clock_bits"),
    ("section not an object", config.PIPELINES, {"queries": None},
     "config", "must be an object, got None", "'queries'"),
    ("object for a value", config.PIPELINES, {"epsilon": {"x": 1}},
     "config", "takes a value, not an object", "'epsilon'"),
    ("config file not an object", ("classical",), "[1, 2]",
     "config", "must hold a JSON object, got [1, 2]", "{config}"),
    ("config file a number", ("classical",), "5",
     "config", "must hold a JSON object, got 5", "{config}"),
    ("negative seed", config.PIPELINES, {"seed": -1},
     "config", "seed -1 is not a non-negative integer", "set seed"),
    ("bad QRBF_SEED", config.PIPELINES, {"seed": None},
     "config", "seed 'abc' is not a non-negative integer", "QRBF_SEED"),
    # a bool or a float seed would run as the integer it equals, under another config hash
    ("bool seed", config.PIPELINES, {"seed": True},
     "config", "seed True is not a non-negative integer", "set seed"),
    ("float seed", config.PIPELINES, {"seed": 2.0},
     "config", "seed 2.0 is not a non-negative integer", "set seed"),
    ("text seed", ("classical",), {"seed": "3"},
     "config", "seed '3' is not a non-negative integer", "set seed"),
    ("unknown pipeline", ("noqueue",), {},
     "config", "unknown pipeline 'noqueue'", "choose from"),
    ("kernel key the family does not read", config.PIPELINES,
     {"kernel": {**_WENDLAND, "sigma": 0.3}},
     "config", "reads no key 'sigma'", "kernel family 'wendland'"),
    ("fractional count", config.PIPELINES, {"queries": {"n": 3.7}},
     "config", "must be an integer, got 3.7", "'queries.n'"),
    ("fractional ae_bits", ("quantum-compact",), {"compact": {"ae_bits": 8.9}},
     "config", "must be an integer, got 8.9", "'compact.ae_bits'"),
    ("bool clock_bits", ("quantum-global",), {"inversion": {"clock_bits": True}},
     "config", "must be an integer, got True", "'inversion.clock_bits'"),
    ("null dataset size", config.PIPELINES, {"dataset": {"m": None}},
     "config", "must be an integer, got None", "'dataset.m'"),
    ("unknown family", config.PIPELINES, {"kernel": {"family": "cubic"}},
     "kernel", "unknown kernel family 'cubic'", "choose from"),
    ("non-finite dataset", config.PIPELINES, {"dataset": {"file": "{dataset}"}},
     "dataset", "line 3, column y: 'nan' is not a finite number", "{dataset}"),
    ("ragged queries", config.PIPELINES, {"queries": {"file": "{queries}"}},
     "dataset", "line 3: 1 columns, the header has 2", "{queries}"),
    ("empty queries", config.PIPELINES, {"queries": {"file": "{queries}"}},
     "dataset", "empty file, no header", "{queries}"),
    ("header-only dataset", config.PIPELINES, {"dataset": {"file": "{dataset}"}},
     "dataset", "no data rows", "{dataset}"),
    ("wide gaussian", ("classical", "quantum-global"), {"dataset": {"m": 128}},
     "classical solve", "not numerically positive definite", "lower kernel.sigma or dataset.m"),
    ("wide wendland", ("classical", "quantum-compact"),
     {"dataset": {"m": 200}, "kernel": {"family": "wendland", "d": 3, "k": 6, "alpha": 20.0}},
     "classical solve", "not numerically positive definite", "lower kernel.alpha or dataset.m"),
    ("estimated oracle not positive definite", ("quantum-compact",), _ESTIMATED_NOT_PD,
     "oracle solve", "not positive definite", "raise compact.ae_bits"),
    ("clock wraparound", ("quantum-global",), {"inversion": _QUANTIZED_WRAP},
     "inversion", "clock wraparound", "inversion.evolution_time or raise inversion.clock_bits"),
    ("clock wraparound", ("quantum-compact",), {"inversion": _QUANTIZED_WRAP},
     "oracle solve", "clock wraparound", "inversion.evolution_time or raise inversion.clock_bits"),
    # each value outside its _SCHEMA rule, refused at the config stage on every pipeline,
    # also where the pipeline or mode does not read the key
    ("no ae_bits", config.PIPELINES, {"compact": {"ae_bits": 0}},
     "config", "must be in [1, 20], got 0", "'compact.ae_bits'"),
    ("ae_bits above the cap", config.PIPELINES, {"compact": {"ae_bits": 21}},
     "config", "must be in [1, 20], got 21", "'compact.ae_bits'"),
    ("global with a compact kernel", ("quantum-global",), {"kernel": _WENDLAND},
     "config", "needs kernel.family in ('gaussian',), got 'wendland'", "kernel.family"),
    ("compact with its default kernel", ("quantum-compact",),
     '{"pipeline": "quantum-compact", "seed": 0}',
     "config", "needs kernel.family in ('wendland',), got 'gaussian'", "kernel.family"),
    ("negative query count", config.PIPELINES, {"queries": {"n": -1}},
     "config", "must be >= 0, got -1", "'queries.n'"),
    ("no sites", config.PIPELINES, {"dataset": {"m": 0}},
     "config", "must be >= 1, got 0", "'dataset.m'"),
    ("no dimension", config.PIPELINES, {"dataset": {"d": 0}},
     "config", "must be >= 1, got 0", "'dataset.d'"),
    ("unknown target", config.PIPELINES, {"dataset": {"target": "runge"}},
     "config", "unknown dataset.target 'runge'", "choose from ('franke', 'cosines', 'constant')"),
    ("no clock bits", config.PIPELINES, {"inversion": {"mode": "quantized", "clock_bits": 0}},
     "config", "must be in [1, 10], got 0", "'inversion.clock_bits'"),
    ("clock bits above the cap in ideal mode", config.PIPELINES, {"inversion": {"clock_bits": 12}},
     "config", "must be in [1, 10], got 12", "'inversion.clock_bits'"),
    ("no DME steps", config.PIPELINES, {"dme_check": {"enabled": True, "steps": 0}},
     "config", "must be >= 1, got 0", "'dme_check.steps'"),
    ("text DME time", config.PIPELINES, {"dme_check": {"t": "a"}},
     "config", "must be a number, got 'a'", "'dme_check.t'"),
    ("text DME switch", config.PIPELINES, {"dme_check": {"enabled": "no"}},
     "config", "must be true or false, got 'no'", "'dme_check.enabled'"),
    ("epsilon above 1", config.PIPELINES, {"epsilon": 2},
     "config", "must be in (0, 1), got 2", "'epsilon'"),
    ("text epsilon", config.PIPELINES, {"epsilon": "x"},
     "config", "must be a number, got 'x'", "'epsilon'"),
    ("unknown inversion mode", config.PIPELINES, {"inversion": {"mode": "foo"}},
     "config", "unknown inversion.mode 'foo'", "choose from ('ideal', 'quantized')"),
    ("negative spectral floor", config.PIPELINES, {"inversion": {"spectral_floor": -1}},
     "config", "must be >= 0, got -1", "'inversion.spectral_floor'"),
    ("negative evolution time", config.PIPELINES,
     {"inversion": {"mode": "quantized", "evolution_time": -1}},
     "config", "must be > 0, got -1", "'inversion.evolution_time'"),
    ("null dataset seed", config.PIPELINES, {"dataset": {"seed": None}},
     "config", "must be an integer, got None", "'dataset.seed'"),
    ("null query seed", config.PIPELINES, {"queries": {"seed": None}},
     "config", "must be an integer, got None", "'queries.seed'"),
    ("fractional kernel d", config.PIPELINES, {"kernel": {**_WENDLAND, "d": 3.9}},
     "config", "must be an integer, got 3.9", "'kernel.d'"),
    ("text kernel sigma", ("classical", "quantum-global"), {"kernel": {"sigma": "a"}},
     "config", "must be a number, got 'a'", "'kernel.sigma'"),
    # open() takes an integer for a file descriptor, and a with block closes it
    ("numeric dataset file", config.PIPELINES, {"dataset": {"file": 2}},
     "config", "must be a string, got 2", "'dataset.file'"),
    ("numeric queries file", config.PIPELINES, {"queries": {"file": 7}},
     "config", "must be a string, got 7", "'queries.file'"),
    ("numeric output directory", config.PIPELINES, {"output": 5},
     "config", "must be a string, got 5", "'output'"),
    ("text box", config.PIPELINES, {"dataset": {"box": "a"}},
     "config", "must be [lo, hi] or 2 rows [lo, hi], lo <= hi, got 'a'", "'dataset.box'"),
    ("one-number box", config.PIPELINES, {"dataset": {"box": [1]}},
     "config", "must be [lo, hi] or 2 rows [lo, hi], lo <= hi, got [1]", "'dataset.box'"),
    ("box of the wrong dimension", config.PIPELINES, {"dataset": {"d": 3, "box": [[0, 1], [0, 1]]}},
     "config", "must be [lo, hi] or 3 rows [lo, hi], lo <= hi", "'dataset.box'"),
    ("infinite box", config.PIPELINES, {"dataset": {"box": [0, math.inf]}},
     "config", "must be [lo, hi] or 2 rows [lo, hi], lo <= hi, got [0, inf]", "'dataset.box'"),
    ("nan box", config.PIPELINES, {"dataset": {"box": [math.nan, 1]}},
     "config", "must be [lo, hi] or 2 rows [lo, hi], lo <= hi, got [nan, 1]", "'dataset.box'"),
    # an infinite eta puts inf * 0 = nan on the diagonal, which the solve would meet first
    ("infinite matern eta", ("classical",), {"kernel": {"family": "matern-c2", "eta": math.inf}},
     "kernel", "matern-c2 kernel needs a finite eta > 0", "eta"),
    ("infinite inverse-multiquadric eta", ("classical",),
     {"kernel": {"family": "inverse-multiquadric", "eta": math.inf}},
     "kernel", "inverse-multiquadric kernel needs a finite eta > 0", "eta"),
    ("infinite gaussian sigma", ("classical", "quantum-global"), {"kernel": {"sigma": math.inf}},
     "kernel", "gaussian kernel needs a finite sigma > 0", "sigma"),
    # each shape's conversion to the other, or to the profile's 2 sigma^2, leaves the floats
    ("tiny gaussian sigma", ("classical", "quantum-global"), {"kernel": {"sigma": 1e-200}},
     "kernel", "conversion to eta = sqrt(1/(2 sigma^2)) or to 2 sigma^2", "sigma=1e-200"),
    ("huge gaussian sigma", ("classical", "quantum-global"), {"kernel": {"sigma": 1e200}},
     "kernel", "conversion to eta = sqrt(1/(2 sigma^2)) or to 2 sigma^2", "sigma=1e+200"),
    ("tiny gaussian eta", ("classical", "quantum-global"), {"kernel": {"eta": 1e-200}},
     "kernel", "conversion to sigma = sqrt(1/(2 eta^2)) or to 2 sigma^2", "eta=1e-200"),
    ("huge gaussian eta", ("classical", "quantum-global"), {"kernel": {"eta": 1e200}},
     "kernel", "conversion to sigma = sqrt(1/(2 eta^2)) or to 2 sigma^2", "eta=1e+200"),
]
_CONTRACT_FILES = {
    "non-finite dataset": ("dataset", "x1,x2,y\n0.1,0.2,0.3\n0.5,0.6,nan\n"),
    "ragged queries": ("queries", "x1,x2\n0.1,0.2\n0.3\n"),
    "empty queries": ("queries", ""),
    "header-only dataset": ("dataset", "x1,x2,y\n"),
}


@pytest.mark.parametrize("case, pipeline, cfg, stage, cause, knob", [
    pytest.param(case, pipeline, cfg, stage, cause, knob, id=f"{case}-{pipeline}")
    for case, pipelines, cfg, stage, cause, knob in _FAILURE_CONTRACT
    for pipeline in pipelines
])
def test_failure_contract(case, pipeline, cfg, stage, cause, knob, tmp_path, monkeypatch):
    """A config file the CLI would read, refused at its stage with its cause and knob named."""
    from qrbf import cli

    monkeypatch.setenv("QRBF_SEED", "abc")
    text = cfg
    if isinstance(cfg, dict):
        base = {"pipeline": pipeline, "seed": 0, "queries": {"n": 2},
                "kernel": _PIPELINE_KERNEL.get(pipeline, {"family": "gaussian"})}
        text = json.dumps(config.merge_config(base, cfg))
    paths = {"config": tmp_path / "cfg.json"}
    if case in _CONTRACT_FILES:
        section, body = _CONTRACT_FILES[case]
        paths[section] = tmp_path / f"{section}.csv"
        paths[section].write_text(body)
        text = text.replace("{" + section + "}", str(paths[section]))
    paths["config"].write_text(text)
    with pytest.raises(harness._StageError) as info:
        harness.run_pipeline(cli._base_config(SimpleNamespace(config=str(paths["config"]))))
    message = str(info.value)
    assert info.value.stage == stage
    assert message.startswith(f"[stage: {stage}] ")
    assert cause in message
    assert knob.format(**{name: str(path) for name, path in paths.items()}) in message


def test_every_schema_rule_is_the_knob_of_a_failure_contract_row():
    """Each _SCHEMA path with a rule is named by the cause or knob of at least one row."""
    named = " ".join(f"{cause} {knob}" for *_, cause, knob in _FAILURE_CONTRACT)
    ruled = [path for path, (_, *rule) in config._SCHEMA.items() if rule]
    assert ruled and [path for path in ruled if path not in named] == []


@pytest.mark.parametrize("section", ["dataset", "queries"])
def test_a_null_seed_is_refused_rather_than_drawn_from_the_os(section):
    """A null seed would hand None to default_rng, which reads OS entropy: two runs of
    one config, with one config_hash, would draw different data."""
    message = _config_refusal(harness.run_pipeline, {"seed": 0, section: {"seed": None}})
    assert message == f"config key '{section}.seed' must be an integer, got None"


@pytest.mark.parametrize("value", ["no", "false", 0, 1], ids=repr)
def test_dme_check_enabled_takes_only_a_bool(value):
    """A string is truthy, so "no" would run the check."""
    cfg = {"pipeline": "quantum-global", "seed": 0, "dme_check": {"enabled": value}}
    message = _config_refusal(harness.run_pipeline, cfg)
    assert message == f"config key 'dme_check.enabled' must be true or false, got {value!r}"


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
    # the exact system: one assembly, one spectrum, one Cholesky factor; the
    # Gram solves on that factor and takes its extremes by Weyl from that spectrum
    assert factor_calls == {"assemble": 1, "eigvalsh": 1, "cho_factor": 1}


@pytest.mark.parametrize("m", [interp.LANCZOS_MIN_M - 1, interp.LANCZOS_MIN_M])
def test_ideal_runs_take_extremes_by_lanczos_from_the_crossover_on(m, factor_calls):
    """Below LANCZOS_MIN_M rows each spectrum is one eigvalsh; from it on, two
    Lanczos runs on the factor the system holds, and no dense eigendecomposition."""
    cfg = _global_cfg(m, 0.05)
    cfg["inversion"] = {"mode": "ideal"}
    harness.run_pipeline(cfg)
    # one Cholesky and one spectrum, of the exact system: the Gram reuses both
    spectra = {"eigvalsh": 1} if m < interp.LANCZOS_MIN_M else {"eigsh": 2}
    assert factor_calls == {"assemble": 1, "cho_factor": 1, **spectra}
    factor_calls.clear()
    harness.run_pipeline({
        "pipeline": "quantum-compact",
        "seed": 3,
        "dataset": {"m": m},
        "kernel": {"family": "wendland", "d": 3, "k": 2, "alpha": 0.15},
        "inversion": {"mode": "ideal"},
    })
    spectra = {"eigvalsh": 1} if m < interp.LANCZOS_MIN_M else {"eigsh": 2}
    assert factor_calls == {"assemble": 1, "splu": 1, **spectra}


def test_a_gram_far_from_the_exact_matrix_takes_its_own_cholesky(factor_calls, monkeypatch):
    """Where gamma_b = ||G - A||_F / lambda_min(A) >= 1/2 the refinement on A's factor
    need not converge: the Gram system factors G itself, and its report is that of
    qinvert.invert(LinearSystem(G, y)) bit for bit."""
    from qrbf import coherent, qinvert

    cfg = _global_cfg(64, 0.1)
    lam = harness.run_pipeline(copy.deepcopy(cfg)).summary["lambda_min"]
    gram_coherent = coherent.gram_coherent

    def planted(*args, **kwargs):
        # E = lambda_min(A) I: ||E||_F = 8 lambda_min(A), and G stays positive definite
        gram = gram_coherent(*args, **kwargs)
        return dataclasses.replace(gram, data=gram.data + lam * np.eye(gram.m))

    caught = []
    invert = qinvert.invert

    def spy(system, config):
        caught.append((system, config, invert(system, config)))
        return caught[-1][2]

    monkeypatch.setattr(coherent, "gram_coherent", planted)
    monkeypatch.setattr(qinvert, "invert", spy)
    factor_calls.clear()
    s = harness.run_pipeline(cfg).summary
    assert s["gram_gamma_bound"] >= 0.5
    assert factor_calls == {"assemble": 1, "eigvalsh": 2, "cho_factor": 2}
    [(system, config, report)] = caught
    assert type(system) is interp.LinearSystem
    assert report.to_dict() == invert(interp.LinearSystem(system.matrix, system.y),
                                      config).to_dict()


@pytest.mark.parametrize("inversion", [
    {"mode": "ideal", "spectral_floor": 1e-6},
    {"mode": "quantized"},
    {"mode": "ideal"},
], ids=["floor", "quantized", "ideal"])
def test_only_the_ideal_map_without_a_floor_solves_the_gram_on_the_exact_factor(
        inversion, monkeypatch, tmp_path):
    """A floor or the clock reads G's eigenbasis, and its classical check G's own
    factor: those runs write the bytes of a run whose Gram system factors G itself.
    The ideal map with no floor solves on A's factor, and its bytes move."""
    cfg = {**_global_cfg(64, 0.1), "inversion": inversion}
    harness.run_pipeline(copy.deepcopy(cfg), out_dir=str(tmp_path / "refined"))
    monkeypatch.setattr(interp.LinearSystem, "perturbed",
                        lambda self, matrix, e_norm: interp.LinearSystem(matrix, self.y))
    harness.run_pipeline(copy.deepcopy(cfg), out_dir=str(tmp_path / "factored"))
    same = [
        (tmp_path / "refined" / name).read_bytes() == (tmp_path / "factored" / name).read_bytes()
        for name in ("summary.json", "solve_report.json")
    ]
    assert same == ([False, False] if inversion == {"mode": "ideal"} else [True, True])


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
    "mode", "lambda_min", "lambda_max", "overlaps", "rotation_scale", "post_select_prob",
    "norm_factor", "coeff_norm_est", "state_out_real",
    "fidelity_vs_classical", "repetitions_ledger", "kappa_eff", "spectral_floor",
    "evolution_time", "clock_bits", "deviation_from_ideal", "clock_leak",
}
# written only where the inversion took the eigenbasis
_EIGENBASIS_KEYS = {"eigenvalues", "kept"}


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
    assert set(out) == _SOLVE_REPORT_KEYS | (set() if cholesky_path else _EIGENBASIS_KEYS)
    assert _strict_json(tmp_path / "solve_report.json") == out
    assert (out["overlaps"] is None) == cholesky_path
    assert (out["fidelity_vs_classical"] is None) == factor_fails
    assert len(out["state_out_real"]) == result.summary["m"]
    # every path inverts a real system: the all-zero imaginary part is not written
    assert not result.solve_report.state_out.imag.any()
    assert out["kappa_eff"] == out["lambda_max"] / out["lambda_min"]
    if not cholesky_path:
        assert len(out["eigenvalues"]) == len(out["kept"]) == result.summary["m"]
        assert out["lambda_max"] == out["eigenvalues"][-1]
        assert out["lambda_min"] == min(w for w, k in zip(out["eigenvalues"], out["kept"]) if k)


def test_solve_report_writes_the_imaginary_part_only_where_it_is_nonzero():
    report = harness.run_pipeline({"seed": 0, "pipeline": "quantum-global",
                                   "queries": {"n": 1}}).solve_report
    assert "state_out_imag" not in report.to_dict()
    state = report.state_out.copy()
    state[1] += 0.25j
    out = dataclasses.replace(report, state_out=state).to_dict()
    assert out["state_out_imag"] == state.imag.tolist()
    assert out["state_out_real"] == state.real.tolist()
    assert set(out) == _SOLVE_REPORT_KEYS | {"state_out_imag"}
