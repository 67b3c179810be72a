"""Per-layer tracing of qrbf from outside the package.

`Tracer.install()` replaces public functions of each qrbf module (and
the dense and sparse factorizations at the numpy/scipy boundary) with
wrappers that record one span per call: name, start, end, parent span,
op id, and whether the call is the outermost one of its name.  Spans stay
in memory; `restore()` puts every original attribute back.  Calls made
through a module attribute or a module global are seen; calls through a
name bound before installation (a `from x import f` at import time) are
not, which is why `interpolation.cho_factor` and `interpolation.cg` are
wrapped where interpolation looks them up.

A span name is `<layer>.<what>`; a layer's self time is the time in its
spans minus the time in their direct child spans.
"""

from __future__ import annotations

import csv
import functools
import statistics
import time
from collections import defaultdict

import numpy as np

import workloads  # noqa: F401  (puts the qrbf sources next to the benchmark on sys.path)
from qrbf import coherent, compact, harness, interpolation, kernels, qcore, qinvert  # noqa: E402


def _eval_points(args, kwargs, result, outer):
    return {"kernels.eval_points": np.size(args[1] if len(args) > 1 else kwargs["r"])}


def _gram_work(args, kwargs, result, outer):
    m, d = result.data.shape[0], args[0].d
    order = int(args[2] if len(args) > 2 else kwargs["order"])
    return {"coherent.gram_madds": m * m * d * order, "coherent.truncation_order": order}


def _offdiag_nonzeros(args, kwargs, result, outer):
    mat = result.data
    return {"compact.offdiag_nonzeros": mat.nnz - np.count_nonzero(mat.diagonal())}


def _inversion(args, kwargs, result, outer):
    # post-selection of the inversion the caller asked for, not of the
    # ideal reference that invert_quantized runs inside itself
    if not outer:
        return {}
    return {"qinvert.post_select_sum": result.post_select_prob, "qinvert.reports": 1}


def _ideal_inversion(args, kwargs, result, outer):
    return {"qinvert.invert_ideal_calls": 1, **_inversion(args, kwargs, result, outer)}


# (owner, attribute, span name, note).  A note maps (args, kwargs, result,
# outermost) to per-op counters; `harness.verify_bounds` is named by its suite.
TARGETS = (
    (harness, "run_pipeline", "harness.run_pipeline", None),
    (harness, "gen_data", "harness.gen_data", None),
    (harness, "verify_bounds", None, None),
    (coherent, "gram_coherent", "coherent.gram", _gram_work),
    (coherent, "coherent_state", "coherent.state", None),
    (interpolation, "assemble", "interpolation.assemble", None),
    (interpolation, "solve", "interpolation.solve", None),
    (interpolation, "spectrum", "interpolation.spectrum", None),
    (interpolation, "basis_vector", "interpolation.basis_vector", None),
    (interpolation, "evaluate", "interpolation.evaluate", None),
    (interpolation, "cho_factor", "linalg.cholesky", None),
    (interpolation, "cg", "linalg.cg", None),
    (np.linalg, "eigh", "linalg.eigh", None),
    (np.linalg, "eigvalsh", "linalg.eigvalsh", None),
    (qinvert, "invert", "qinvert.invert", _inversion),
    (qinvert, "invert_ideal", "qinvert.invert", _ideal_inversion),
    (qinvert, "invert_quantized", "qinvert.invert", _inversion),
    (qinvert, "eigensolve", "qinvert.eigensolve", None),
    (qinvert, "swap_test", "qinvert.swap_test", None),
    (qinvert, "sample_probability", "qinvert.sample", None),
    (compact, "build_matrix", "compact.build", _offdiag_nonzeros),
    (compact, "oracle_PA", "compact.oracle", None),
    (compact, "amplitude_estimate", "compact.ae", None),
    (compact, "prepare_phi_state", "compact.phi_prep", None),
    (compact, "solve_compact", "compact.solve", None),
    (kernels.Kernel, "eval", "kernels.eval", _eval_points),
    (qcore, "dme_evolve", "qcore.dme_evolve", None),
    (qcore, "dme_step", "qcore.dme_step", None),
)

# Per-layer metrics, all normalised per op.  `<span>_calls` counts the
# outermost calls of a span name and `<span>_s` their inclusive time.
PER_LAYER = (
    ("harness.self_s", "s"),
    ("harness.gen_data_s", "s"),
    *((f"harness.suite.{suite}_s", "s") for suite in harness.SUITES),
    ("coherent.self_s", "s"),
    ("coherent.gram_calls", "count"),
    ("coherent.gram_s", "s"),
    ("coherent.state_calls", "count"),
    ("coherent.state_s", "s"),
    ("coherent.truncation_order", "count"),
    ("coherent.gram_madds", "madd.computed"),
    ("interpolation.self_s", "s"),
    *(
        (f"interpolation.{fn}_{kind}", unit)
        for fn in ("assemble", "solve", "spectrum", "basis_vector", "evaluate")
        for kind, unit in (("calls", "count"), ("s", "s"))
    ),
    ("linalg.eigh_calls", "count"),
    ("linalg.eigvalsh_calls", "count"),
    ("linalg.cholesky_calls", "count"),
    ("linalg.cg_calls", "count"),
    ("linalg.factor_s", "s"),
    ("qinvert.self_s", "s"),
    ("qinvert.invert_calls", "count"),
    ("qinvert.invert_s", "s"),
    ("qinvert.invert_ideal_calls", "count"),
    ("qinvert.eigensolve_calls", "count"),
    ("qinvert.swap_test_calls", "count"),
    ("qinvert.swap_test_s", "s"),
    ("qinvert.sample_calls", "count"),
    ("qinvert.sample_s", "s"),
    ("qinvert.post_select_prob", "1"),
    ("compact.self_s", "s"),
    ("compact.build_s", "s"),
    ("compact.oracle_calls", "count"),
    ("compact.oracle_s", "s"),
    ("compact.ae_draws", "count"),
    ("compact.ae_s", "s"),
    ("compact.phi_prep_calls", "count"),
    ("compact.solve_s", "s"),
    ("compact.useful_oracle_ratio", "1"),
    ("kernels.eval_calls", "count"),
    ("kernels.eval_points", "count"),
    ("kernels.eval_s", "s"),
    ("qcore.dme_calls", "count"),
    ("qcore.dme_s", "s"),
    ("trace.overhead_s", "s"),
)

# Metrics that must repeat exactly from op to op and from run to run.
COUNTS = tuple(
    name for name, unit in PER_LAYER
    if unit in ("count", "madd.computed") or name in (
        "qinvert.post_select_prob", "compact.useful_oracle_ratio")
)


class Tracer:
    """Span recorder around qrbf's public functions; one instance per run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id, outermost]
        self.notes = []  # (op id, {counter: increment})
        self.op = -1
        self._stack = []
        self._depth = defaultdict(int)
        self._saved = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, note in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, note))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, note):
        spans, stack, depth = self.spans, self._stack, self._depth
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_name = name or "harness.suite." + (args[0] if args else kwargs["suite"])
            outer = depth[span_name] == 0
            span = [span_name, 0.0, 0.0, stack[-1] if stack else -1, self.op, outer]
            stack.append(len(spans))
            spans.append(span)
            depth[span_name] += 1
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                depth[span_name] -= 1
                stack.pop()
            if note is not None:
                self.notes.append((self.op, note(args, kwargs, result, outer)))
            return result

        return functools.update_wrapper(traced, fn)

    def op_metrics(self) -> dict:
        """Per-layer metrics of each traced op: {op id: {metric: value}}."""
        child = defaultdict(float)
        for name, start, end, parent, op, outer in self.spans:
            if parent >= 0:
                child[parent] += end - start
        raw = defaultdict(lambda: defaultdict(float))
        for idx, (name, start, end, parent, op, outer) in enumerate(self.spans):
            dur = end - start
            layer = name.split(".", 1)[0]
            acc = raw[op]
            acc[f"{layer}.self_s"] += dur - child[idx]
            if parent < 0 or self.spans[parent][0].split(".", 1)[0] != layer:
                acc[f"{layer}.inclusive_s"] += dur
            if outer:
                acc[f"{name}_calls"] += 1
                acc[f"{name}_s"] += dur
        for op, counters in self.notes:
            acc = raw[op]
            for key, inc in counters.items():
                if key == "coherent.truncation_order":
                    acc[key] = max(acc[key], inc)
                else:
                    acc[key] += inc
        return {op: _derive(acc) for op, acc in raw.items()}

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "start_s", "end_s", "parent", "op"])
            for name, start, end, parent, op, _ in self.spans:
                writer.writerow([name, repr(start), repr(end), parent, op])


def _derive(acc) -> dict:
    """Map the raw per-op accumulators onto the PER_LAYER names."""
    alias = {
        "linalg.factor_s": acc["linalg.inclusive_s"],
        "qcore.dme_s": acc["qcore.inclusive_s"],
        "qcore.dme_calls": acc["qcore.dme_step_calls"],
        "compact.ae_draws": acc["compact.ae_calls"],
        "qinvert.post_select_prob": (
            acc["qinvert.post_select_sum"] / acc["qinvert.reports"] if acc["qinvert.reports"]
            else 0.0
        ),
        "compact.useful_oracle_ratio": (
            acc["compact.offdiag_nonzeros"] / acc["compact.oracle_calls"]
            if acc["compact.oracle_calls"] else 0.0
        ),
    }
    out = {}
    for name, _ in PER_LAYER:
        if name == "trace.overhead_s":
            continue
        out[name] = alias[name] if name in alias else acc.get(name, 0.0)
    return out


def as_number(name: str, value):
    """Counts as int, everything else as float."""
    return int(value) if name in COUNTS and float(value).is_integer() else float(value)


def summarize(per_op: dict) -> tuple[dict, list]:
    """Per-op medians of the per-layer metrics, and the counts that varied between ops."""
    ops = sorted(per_op)
    merged, varied = {}, []
    for name in per_op[ops[0]]:
        values = [per_op[op][name] for op in ops]
        merged[name] = statistics.median(values)
        if name in COUNTS and len(set(values)) > 1:
            varied.append(name)
    return merged, varied
