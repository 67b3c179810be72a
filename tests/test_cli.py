"""Command-line interface smoke tests."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from qrbf import cli
from qrbf import interpolation as interp


def test_gen_data_writes_loadable_csv(tmp_path, capsys):
    out = tmp_path / "data.csv"
    rc = cli.main(["gen-data", "--m", "12", "--d", "3", "--box", "-1", "1",
                   "--seed", "5", "--out", str(out)])
    assert rc == 0
    ds = interp.load_dataset(out)
    assert ds.m == 12 and ds.d == 3
    assert np.all(ds.sites >= -1.0) and np.all(ds.sites <= 1.0)
    assert "seed 5" in capsys.readouterr().out


def test_bare_gen_data_draws_the_default_fit_dataset(tmp_path, capsys):
    """gen-data's option defaults are the dataset section of default_config()."""
    assert cli.main(["gen-data", "--seed", "0", "--out", str(tmp_path / "gen.csv")]) == 0
    assert cli.main(["fit", "--seed", "0", "--out", str(tmp_path / "fit")]) == 0
    gen = interp.load_dataset(tmp_path / "gen.csv")
    fit = interp.load_dataset(tmp_path / "fit" / "dataset.csv")
    assert np.array_equal(gen.sites, fit.sites)
    assert np.array_equal(gen.values, fit.values)


def test_gen_data_respects_env_seed(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QRBF_SEED", "21")
    out = tmp_path / "data.csv"
    cli.main(["gen-data", "--m", "6", "--d", "2", "--out", str(out)])
    assert "seed 21" in capsys.readouterr().out


def test_fit_classical_prints_summary(tmp_path, capsys):
    rc = cli.main(["fit", "--pipeline", "classical", "--seed", "2",
                   "--out", str(tmp_path / "run")])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["pipeline"] == "classical"
    assert summary["seed"] == 2
    assert (tmp_path / "run" / "queries.csv").exists()
    assert (tmp_path / "run" / "summary.json").exists()


def test_fit_with_config_and_set_overrides(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"pipeline": "classical", "dataset": {"m": 6}}))
    rc = cli.main(["fit", "--config", str(cfg_path), "--seed", "1",
                   "--set", "dataset.m=5", "--set", "queries.n=3"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["m"] == 5
    assert summary["n_queries"] == 3


def test_fit_outputs_do_not_depend_on_the_output_directory(tmp_path, capsys):
    args = ["fit", "--pipeline", "quantum-compact", "--seed", "0",
            "--set", "kernel.family=wendland", "--set", "kernel.d=3", "--set", "kernel.k=2",
            "--set", "kernel.alpha=0.7", "--set", "compact.ae_bits=10"]
    assert cli.main(args) == 0
    chash = json.loads(capsys.readouterr().out)["config_hash"]
    for name in ("a", "b"):
        assert cli.main(args + ["--out", str(tmp_path / name)]) == 0
        assert json.loads(capsys.readouterr().out)["config_hash"] == chash
    for name in ("queries.csv", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_evaluate_prints_query_rows(tmp_path, capsys):
    qfile = tmp_path / "q.csv"
    qfile.write_text("x1,x2\n0.5,0.5\n0.25,0.75\n")
    rc = cli.main(["evaluate", "--pipeline", "classical", "--seed", "3",
                   "--query-file", str(qfile)])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("seed,config_hash,x1,x2,f_classical")
    assert len(lines) == 3


def test_verify_bounds_exit_status_ok(capsys):
    rc = cli.main(["verify-bounds", "--suite", "truncation", "--seed", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "0 failed" in out and "ok" in out


def test_sweep_runs_over_values(tmp_path, capsys):
    rc = cli.main(["sweep", "--pipeline", "classical", "--seed", "4",
                   "--param", "kernel.sigma", "--values", "0.3,0.5",
                   "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "kernel.sigma=0.3" in out and "kernel.sigma=0.5" in out
    # the cases write no run files of their own beside the sweep table
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.csv"]


def test_set_of_an_unknown_key_is_refused(capsys):
    rc = cli.main(["fit", "--pipeline", "quantum-global", "--seed", "0",
                   "--set", "inversion.clock_bit=3"])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: [stage: config] unknown config key 'inversion.clock_bit'; "
        "did you mean 'inversion.clock_bits'?\n"
    )
    assert cli.main(["fit", "--set", "inversion.clock_bits"]) == 2
    assert capsys.readouterr().err == (
        "error: [stage: config] --set expects path=value, got 'inversion.clock_bits'\n"
    )


def test_set_kernel_keys_follow_the_family(capsys):
    assert cli.main(["fit", "--pipeline", "classical", "--seed", "0",
                     "--set", "kernel.eta=2.0"]) == 0
    assert json.loads(capsys.readouterr().out)["kernel"] == {"family": "gaussian", "eta": 2.0}
    assert cli.main(["fit", "--pipeline", "classical", "--seed", "0",
                     "--set", "kernel.alpha=0.3"]) == 2
    assert capsys.readouterr().err == (
        "error: [stage: config] kernel family 'gaussian' reads no key 'alpha'; "
        "it reads 'sigma', 'eta'\n"
    )


def test_writing_into_a_null_config_section_names_the_section(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"queries": None}))
    qfile = tmp_path / "q.csv"
    qfile.write_text("x1,x2\n0.5,0.5\n")
    for args in (["fit", "--set", "queries.n=3"], ["evaluate", "--query-file", str(qfile)]):
        assert cli.main(args + ["--config", str(cfg_path), "--seed", "0"]) == 2
        assert capsys.readouterr().err == (
            "error: [stage: config] config section 'queries' must be an object, got None\n"
        )


@pytest.mark.parametrize("args, env, shown", [
    (["fit", "--seed", "-1"], None, "-1"),
    (["fit"], "-1", "'-1'"),
    (["fit"], "abc", "'abc'"),
    (["sweep", "--param", "seed", "--values", "1.5"], None, "1.5"),
    (["gen-data", "--out", os.devnull], "-2", "'-2'"),
    (["verify-bounds", "--suite", "gram", "--seed", "-1"], None, "-1"),
])
def test_a_seed_that_is_not_a_non_negative_integer_is_refused_at_the_config_stage(
    args, env, shown, monkeypatch, capsys
):
    if env is None:
        monkeypatch.delenv("QRBF_SEED", raising=False)
    else:
        monkeypatch.setenv("QRBF_SEED", env)
    assert cli.main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: [stage: config] seed {shown} is not a non-negative integer; "
        "set seed (--seed) or QRBF_SEED\n"
    )


def test_installed_entry_point():
    proc = subprocess.run([sys.executable, "-m", "qrbf.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for sub in ("gen-data", "fit", "evaluate", "verify-bounds", "sweep"):
        assert sub in proc.stdout


def test_a_refused_fit_prints_one_stage_line_and_exits_2(tmp_path):
    data = tmp_path / "nan.csv"
    data.write_text("x1,x2,y\n0.1,0.2,0.3\n0.5,0.6,nan\n")
    proc = subprocess.run([sys.executable, "-m", "qrbf.cli", "fit", "--pipeline", "classical",
                           "--set", f"dataset.file={data}"], capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    # one line, no traceback
    assert proc.stderr == (
        f"error: [stage: dataset] {data}, line 3, column y: 'nan' is not a finite number\n"
    )


def test_a_file_key_that_is_not_a_string_is_refused_before_any_file_is_opened():
    """open(2) would take stderr's descriptor and its with block close it: no output at all."""
    proc = subprocess.run([sys.executable, "-m", "qrbf.cli", "fit", "--seed", "0",
                           "--set", "dataset.file=2"], capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: [stage: config] config key 'dataset.file' must be a string, got 2\n"


def test_a_compact_fit_with_the_default_kernel_is_refused_at_the_config_stage():
    """The default kernel is the gaussian, which the compact pipeline cannot encode."""
    proc = subprocess.run([sys.executable, "-m", "qrbf.cli", "fit", "--pipeline",
                           "quantum-compact", "--seed", "0"], capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("error: [stage: config] pipeline 'quantum-compact' needs "
                           "kernel.family in ('wendland',), got 'gaussian'\n")


def test_a_refused_sweep_case_prints_one_stage_line_and_exits_2(capsys):
    rc = cli.main(["sweep", "--pipeline", "classical", "--seed", "0",
                   "--param", "kernel.sigma", "--values", "0.3,-1"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: [stage: kernel] sigma must be positive\n"
