#!/usr/bin/env python3
"""qrbf benchmark: time to solution per pipeline, with a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of `workloads.py` as a closed loop, one op at a time in
this process, for S seconds after one cold op.  With --trace 0 it reports
the end-to-end metrics, and with --trace 1 the per-layer metrics of
`tracer.py` (an untraced half of the run followed by a traced half).
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  Spans,
the environment and every check go to files under perfbench/out/.

Times are speed-normalised.  A shared cloud machine (measured: Intel Xeon,
2 vCPUs) changes speed by up to 2x from one second to the next, because
other tenants share its cores.  So a fixed probe runs between each two ops, and each op's seconds
are rescaled to a machine on which the probe takes PROBE_REF_S.  The probe
matches what dominates the workload's op: a pure-Python loop, numpy calls
on tiny arrays, or the einsum of the coherent Gram build.  The raw seconds
are printed beside the normalised ones.

Exits 2 without a result when the qrbf sources are not next to the
benchmark.  README.md explains the workloads and the metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

# One BLAS/OpenMP thread (at most nproc), set before numpy is imported:
# the steadiest timing on a small shared machine, and the same arithmetic
# order in every process, so outputs compare byte for byte.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_PROCESSES = 3  # fresh processes whose import + cold op give setup_s
P90_MIN_OPS = 100  # wall_s_p90 needs ten samples beyond it
MIN_TRACED_OPS = 2  # so that counts can be compared op to op
# Median probe times measured on an Intel Xeon with 2 vCPUs; normalised
# seconds are seconds on a machine that fast.
PROBE_REF_S = {"python": 0.0014, "numpy-call": 0.0020, "einsum": 0.00075}


def _python_probe():
    acc, table = 0.0, {}
    for i in range(10000):
        acc += i * 0.5
        table[i & 255] = acc


def _numpy_call_probe():
    # many numpy calls on tiny arrays, as in a per-query readout loop
    import numpy as np

    v = np.arange(64.0)
    for _ in range(1500):
        float(np.dot(v, v))


def _einsum_probe():
    # the pairwise-overlap contraction that dominates a large coherent Gram build
    import numpy as np

    factors = np.linspace(0.0, 1.0, 48 * 2 * 300).reshape(48, 2, 300)
    np.einsum("ick,jck->ijc", factors, factors)


PROBES = {"python": _python_probe, "numpy-call": _numpy_call_probe, "einsum": _einsum_probe}

# The probe that imitates what dominates each workload's op (README.md).
WORKLOAD_PROBE = {
    "global-gram": "einsum",
    "global-readout": "numpy-call",
    "compact-ae": "python",
    "bounds-all": "python",
}


def speed_probe(kind: str) -> float:
    """Best of three timings of a fixed probe: the machine's speed now.

    The python probe needs no numpy, so it can run before the cold import.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        PROBES[kind]()
        best = min(best, time.perf_counter() - start)
    return best


def speed_scale(kind: str, before: float, after: float) -> float:
    """Factor from raw seconds to seconds on the reference machine."""
    return PROBE_REF_S[kind] / ((before + after) / 2)


@dataclass
class Op:
    """One op: raw wall and CPU seconds, speed scale, output digest, failures."""

    label: str
    wall: float = 0.0
    cpu: float = 0.0
    scale: float = 1.0
    digest: str | None = None
    failures: list = field(default_factory=list)

    @property
    def done(self) -> bool:
        return self.digest is not None


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOAD_PROBE))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--cold-child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def cold_start(workload: str, seed: int):
    """Import qrbf and run the first op: one setup_s sample (raw s, scale).

    Only the pure-Python probe may run before the cold import; the others
    would load numpy, so they are timed after the op alone.
    """
    kind = WORKLOAD_PROBE[workload]
    before = speed_probe(kind) if kind == "python" else None
    start = time.perf_counter()
    import workloads

    result = workloads.run_op(workload, seed)
    seconds = time.perf_counter() - start
    after = speed_probe(kind)
    return workloads, result, seconds, speed_scale(kind, before or after, after)


def timed_op(workloads, workload, seed, label) -> Op:
    op = Op(label)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        result = workloads.run_op(workload, seed)
    except Exception as exc:  # an op that raises is counted as failed, the run goes on
        traceback.print_exc()
        op.failures.append(repr(exc))
        return op
    op.wall, op.cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    op.failures, _, _ = workloads.check(workload, result)
    op.digest = workloads.digest(result)
    return op


def closed_loop(workloads, workload, seed, seconds, label, min_ops=1, tracer=None):
    """Ops one after another for `seconds`, a speed probe between each two."""
    kind = WORKLOAD_PROBE[workload]
    ops = []
    before = speed_probe(kind)
    deadline = time.perf_counter() + seconds
    while len(ops) < min_ops or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.op = len(ops)
        op = timed_op(workloads, workload, seed, label)
        after = speed_probe(kind)
        op.scale = speed_scale(kind, before, after)
        before = after
        ops.append(op)
    return ops


def setup_children(workload, seed) -> list:
    """setup_s samples from fresh processes, as Ops whose wall is the setup time."""
    samples = []
    for _ in range(SETUP_PROCESSES - 1):
        cmd = [sys.executable, os.path.abspath(__file__), "--cold-child", "--workload", workload,
               "--seed", str(seed), "--seconds", "1"]
        proc = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            tail = proc.stderr.strip()[-500:]
            samples.append(Op("setup process", failures=[f"exited {proc.returncode}: {tail}"]))
            continue
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append(Op("setup process", wall=child["setup_s"], scale=child["scale"],
                          digest=child["digest"], failures=child["failures"]))
    return samples


def median_scaled(values_and_scales):
    return statistics.median(v * s for v, s in values_and_scales)


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def peak_rss_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


def end_to_end(args, workloads, cold, extra):
    setups = [cold] + setup_children(args.workload, args.seed)
    ops = closed_loop(workloads, args.workload, args.seed, args.seconds, "op")
    done = [op for op in ops if op.done]
    setup_done = [op for op in setups if op.done]
    if not done or not setup_done:
        return setups + ops, {}
    metrics = {
        "setup_s": (median_scaled((op.wall, op.scale) for op in setup_done), "s"),
        "wall_s_p50": (median_scaled((op.wall, op.scale) for op in done), "s"),
        "cpu_s_p50": (median_scaled((op.cpu, op.scale) for op in done), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    extra.update(
        ops=len(done),
        raw_setup_s=statistics.median(op.wall for op in setup_done),
        raw_wall_s_p50=statistics.median(op.wall for op in done),
        raw_cpu_s_p50=statistics.median(op.cpu for op in done),
        speed_scale_p50=statistics.median(op.scale for op in done),
    )
    if len(done) >= P90_MIN_OPS:
        extra["wall_s_p90"] = percentile([op.wall * op.scale for op in done], 0.9)
    return setups + ops, metrics


def per_layer(args, workloads, extra, run_failures):
    import report
    import tracer as tracing

    untraced = closed_loop(workloads, args.workload, args.seed, args.seconds / 2, "op")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = closed_loop(workloads, args.workload, args.seed, args.seconds / 2, "traced op",
                             min_ops=MIN_TRACED_OPS, tracer=tracer)
    finally:
        tracer.restore()
    ops = untraced + traced
    if not any(op.done for op in untraced) or not all(op.done for op in traced):
        return ops, {}
    per_op = tracer.op_metrics()
    for op_id, values in per_op.items():  # span seconds are normalised like op seconds
        for name in values:
            if name.endswith("_s"):
                values[name] *= traced[op_id].scale
    layer, varied = tracing.summarize(per_op)
    run_failures += [f"count {name} differs between traced ops" for name in varied]
    run_failures += report.compare_counts(OUT, args.workload, args.seed, layer)
    layer["trace.overhead_s"] = (
        median_scaled((op.wall, op.scale) for op in traced)
        - median_scaled((op.wall, op.scale) for op in untraced if op.done)
    )
    metrics = {name: (tracing.as_number(name, layer[name]), unit)
               for name, unit in tracing.PER_LAYER}
    extra.update(ops=sum(op.done for op in untraced), traced_ops=len(traced),
                 spans=len(tracer.spans))
    os.makedirs(OUT, exist_ok=True)
    tracer.write_spans(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.csv"))
    return ops, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        workloads, result, cold_s, cold_scale = cold_start(args.workload, args.seed)
    except ImportError as exc:
        print(f"cannot import qrbf: {exc}", file=sys.stderr)
        return 2
    failures, recorded, defects = workloads.check(args.workload, result)
    cold = Op("cold op", wall=cold_s, scale=cold_scale, digest=workloads.digest(result),
              failures=failures)
    if args.cold_child:
        print(json.dumps({"setup_s": cold.wall, "scale": cold.scale, "digest": cold.digest,
                          "failures": cold.failures}))
        return 0

    import report

    extra = {"recorded": recorded, "known_defect_rows": defects}
    run_failures = []
    if args.trace == 0:
        ops, metrics = end_to_end(args, workloads, cold, extra)
    else:
        ops, metrics = per_layer(args, workloads, extra, run_failures)
        ops = [cold] + ops
    # every op of the run, in this process or a fresh one, must give the same bytes
    for op in ops:
        if op.done and op.digest != cold.digest and not op.failures:
            op.failures.append("output digest differs from the cold op")
    if not metrics:
        report.print_failures(ops, run_failures)
        print("no metrics: no op completed", file=sys.stderr)
        return 1
    return report.finish(args, metrics, ops, run_failures, extra)


if __name__ == "__main__":
    sys.exit(main())
