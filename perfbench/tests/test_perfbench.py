"""Tests of the benchmark itself: names, wrapper hygiene, traced outputs.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import re
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
REPO = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from qrbf import coherent, compact, harness, interpolation, kernels, qcore, qinvert  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
END_TO_END = ("setup_s", "wall_s_p50", "cpu_s_p50", "peak_rss_mb")

with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def test_metric_names_and_units_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert set(run.WORKLOAD_PROBE) == set(workloads.WORKLOADS)
    assert set(run.WORKLOAD_PROBE.values()) <= set(run.PROBES) == set(run.PROBE_REF_S)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(tracing.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def _namespaces():
    return [coherent, compact, harness, interpolation, kernels, qcore, qinvert, np.linalg,
            kernels.Kernel]


def test_wrappers_restore_every_attribute():
    before = [dict(vars(ns)) for ns in _namespaces()]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for owner, attr, _, _ in tracing.TARGETS:
            assert vars(owner)[attr].__wrapped__ is not None
    finally:
        tracer.restore()
    after = [dict(vars(ns)) for ns in _namespaces()]
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        for key in old:
            assert new[key] is old[key], key


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    inner = tracer._wrap(lambda: time.sleep(0.05), "qinvert.swap_test", None)
    outer = tracer._wrap(lambda: (time.sleep(0.01), inner(), inner()), "harness.run_pipeline",
                         None)
    tracer.op = 0
    outer()
    metrics = tracer.op_metrics()[0]
    assert metrics["qinvert.swap_test_calls"] == 2
    assert metrics["qinvert.swap_test_s"] >= 0.1
    assert 0.01 <= metrics["harness.self_s"] < 0.05
    assert metrics["qinvert.self_s"] == pytest.approx(metrics["qinvert.swap_test_s"])


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_op_matches_untraced(workload):
    untraced = workloads.digest(workloads.run_op(workload, 1))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        result = workloads.run_op(workload, 1)
    finally:
        tracer.restore()
    assert workloads.digest(result) == untraced
    assert workloads.check(workload, result)[0] == []
    metrics = tracer.op_metrics()[0]
    assert set(metrics) == {name for name, _ in tracing.PER_LAYER} - {"trace.overhead_s"}
    if workload == "global-readout":
        assert metrics["interpolation.basis_vector_calls"] == 4000
    if workload == "compact-ae":
        assert metrics["compact.oracle_calls"] == 128 * 127
    if workload == "bounds-all":
        assert metrics["qcore.dme_calls"] > 0 and metrics["harness.suite.gram_s"] > 0


def test_refuses_to_run_without_the_qrbf_sources(tmp_path):
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable] + SPEC["command"][1:]
        + ["--workload", "global-readout", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
