"""Result reporting: environment record, count ledger, output lines."""

from __future__ import annotations

import glob
import hashlib
import json
import os
import platform
import sys
import time

import numpy as np
import scipy

from workloads import REPO, SRC, WORKLOADS, pipeline_config

HERE = os.path.dirname(os.path.abspath(__file__))


def code_digest() -> str:
    """sha256 over the qrbf and benchmark sources; names the code without git."""
    h = hashlib.sha256()
    files = glob.glob(os.path.join(SRC, "qrbf", "*.py")) + glob.glob(os.path.join(HERE, "*.py"))
    for path in sorted(files):
        h.update(os.path.relpath(path, REPO).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD commit read from .git without running git; None outside a git checkout."""
    head_path = os.path.join(REPO, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return None
    with open(head_path) as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(REPO, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path) as fh:
            return fh.read().strip()
    packed = os.path.join(REPO, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return None


def _blas_threads():
    # numpy's bundled OpenBLAS, asked directly; None when it is not that build
    import ctypes

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "libscipy_openblas*")):
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            return int(fn())
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu": _cpu_model(),
        "workload_seed": seed,
        "git_commit": git_commit(),
        "code_digest": code_digest(),
    }


def compare_counts(out_dir: str, workload: str, seed: int, layer: dict) -> list:
    """Check the count metrics against earlier traced runs of the same code and seed.

    The first run of a (workload, seed, code) stores its counts; later
    runs must repeat them exactly.  Returns one failure per count that
    moved.
    """
    from tracer import COUNTS

    path = os.path.join(out_dir, "counts.json")
    ledger = {}
    if os.path.isfile(path):
        with open(path) as fh:
            ledger = json.load(fh)
    key = f"{workload}|{seed}|{code_digest()}"
    counts = {name: layer[name] for name in COUNTS}
    before = ledger.get(key)
    if before is None:
        ledger[key] = counts
        os.makedirs(out_dir, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(ledger, fh, indent=1, sort_keys=True)
        return []
    return [
        f"count {name} is {counts[name]!r}, an earlier run at this seed gave {before[name]!r}"
        for name in COUNTS
        if before.get(name) != counts[name]
    ]


def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def finish(args, metrics: dict, ops: list, run_failures: list, extra: dict) -> int:
    """Print the human lines and the result JSON, and append the result record.

    ops holds one run.Op per op attempted; run_failures are checks on the
    run as a whole, which fail it without failing an op.
    """
    failed = sum(1 for op in ops if op.failures or not op.done)
    correct = failed == 0 and not run_failures
    env = environment(args.seed)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: closed loop, "
          f"one op at a time, {extra['ops']} measured ops in {args.seconds:g} s")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in metrics.items():
        print(f"{name} {_fmt(value)} {unit}")
    for key, value in extra.items():
        if key not in ("recorded", "known_defect_rows"):
            print(f"{key} {_fmt(value)}")
    if args.trace == 0 and "wall_s_p90" not in extra:
        print("wall_s_p90 not reported: fewer than 100 measured ops")
    print(f"fail_ratio {failed / len(ops)!r} ({failed} of {len(ops)} ops failed)")
    for key, value in extra["recorded"].items():
        print(f"recorded {key} {_fmt(value)}")
    for row in extra["known_defect_rows"]:
        print(f"known defect, not gated: {row}")
    print_failures(ops, run_failures)

    metrics_json = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "config": pipeline_config(args.workload, args.seed)
        if WORKLOADS[args.workload] else "all verify_bounds suites",
        "environment": env,
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "fail_ratio": failed / len(ops),
        "metrics": metrics_json,
        "extra": extra,
        "failures": [f"{op.label}: {f}" for op in ops for f in op.failures] + run_failures,
    }
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "results.jsonl"), "a") as fh:
        fh.write(json.dumps(record, sort_keys=True, default=str) + "\n")

    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": metrics_json}))
    return 0


def print_failures(ops: list, run_failures=()) -> None:
    for op in ops:
        for failure in op.failures:
            print(f"FAILED {op.label}: {failure}", file=sys.stderr)
    for failure in run_failures:
        print(f"FAILED run: {failure}", file=sys.stderr)
