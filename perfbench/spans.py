"""Span tracing of the program from outside it, and the per-layer metrics.

`Tracer.install` replaces public functions of `hcmm` at the binding where
they are looked up (for example `hcmm.problems.project_simplex`, which the
logistic problem's `project_y` calls) and the oracle methods of the problem
classes with wrappers that record a span: name, start, end and parent span.
Spans live in flat arrays in memory and are written out once, at the end.
`uninstall` puts the original functions back, so traced and untraced
repeats can alternate in one process.

A layer's self time is its span durations minus the durations of the spans
directly inside them.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

import numpy as np

# metric name -> unit; the traced run reports every one of them
LAYER_METRICS = {
    "problems.sample_gradient.calls": "count",
    "problems.sample_gradient.busy_s": "s",
    "problems.sample_gradient.us_p50": "us",
    "problems.sample_gradient.us_p99": "us",
    "problems.sample_hvp.calls": "count",
    "problems.sample_hvp.busy_s": "s",
    "problems.sample_hvp.us_p50": "us",
    "problems.full_gradient.calls": "count",
    "problems.full_gradient.busy_s": "s",
    "problems.closed_form.busy_s": "s",
    "optimizers.step.calls": "count",
    "optimizers.step.us_p50": "us",
    "optimizers.step.us_p99": "us",
    "optimizers.step.self_s": "s",
    "simplex.project_simplex.calls": "count",
    "simplex.project_simplex.busy_s": "s",
    "simplex.project_simplex.us_p50": "us",
    "simplex.project_simplex.bytes_computed": "bytes",
    "core.clip_momentum.calls": "count",
    "core.clip_momentum.busy_s": "s",
    "core.clip_momentum.clip_frac": "frac",
    "oracle.evaluate_P.calls": "count",
    "oracle.evaluate_P.busy_s": "s",
    "oracle.evaluate_P.inner_iters": "count",
    "oracle.evaluate_P.unconverged": "count",
    "libsvm.load_dataset.calls": "count",
    "libsvm.load_dataset.busy_s": "s",
    "libsvm.load_dataset.rows_per_s": "1/s",
    "harness.run_single.self_s": "s",
    "harness.run_experiment.self_s": "s",
    "harness.trace_bytes": "bytes",
    "harness.emit_plot.busy_s": "s",
    "harness.grid_search.self_s": "s",
    "trace.overhead_frac": "frac",
}

# problem-class method -> span name
ORACLE_METHODS = {
    "sample_gradient": "problems.sample_gradient",
    "sample_hvp": "problems.sample_hvp",
    "full_gradient": "problems.full_gradient",
    "p_value": "problems.closed_form",
    "grad_p": "problems.closed_form",
    "y_argmax": "problems.closed_form",
}


class Tracer:
    def __init__(self, dataset_rows: dict):
        # rows in each LIBSVM file, by path: load_dataset may subsample
        self.dataset_rows = dataset_rows
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._patches: list = []
        self.counters = defaultdict(int)
        # per finished repeat: (first span, end span, counters of that repeat)
        self.repeats: list = []
        self._repeat_start = 0

    def wrap(self, name: str, fn, on_result=None):
        """Return `fn` wrapped to record one span per call."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, name: str, on_result=None):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_result))

    def install(self):
        import hcmm.harness
        import hcmm.optimizers
        import hcmm.problems
        count = self.counters

        def on_clip(args, result):
            count["core.clip_momentum.clipped"] += result is not args[0]

        def on_project(args, result):
            # read v, write w: the least traffic any projection needs
            count["simplex.project_simplex.bytes_computed"] += 16 * np.size(args[0])

        def on_evaluate(args, report):
            count["oracle.evaluate_P.inner_iters"] += report.iters_used
            count["oracle.evaluate_P.unconverged"] += not report.converged

        def on_load(args, dataset):
            count["libsvm.load_dataset.rows"] += self.dataset_rows[str(args[0])]

        self._patch(hcmm.optimizers, "step", "optimizers.step")
        self._patch(hcmm.optimizers, "clip_momentum", "core.clip_momentum", on_clip)
        self._patch(hcmm.problems, "project_simplex", "simplex.project_simplex",
                    on_project)
        self._patch(hcmm.harness, "evaluate_P", "oracle.evaluate_P", on_evaluate)
        self._patch(hcmm.harness, "load_dataset", "libsvm.load_dataset", on_load)
        self._patch(hcmm.harness, "run_single", "harness.run_single")
        self._patch(hcmm.harness, "final_p", "harness.final_p")
        for entry in ("rate_study", "grid_search", "run_experiment", "emit_plot"):
            self._patch(hcmm.harness, entry, "harness." + entry)
        for cls in (hcmm.problems.RobustLogisticProblem,
                    hcmm.problems.QuadraticMinimaxProblem,
                    hcmm.problems.PlToyProblem):
            for method, span in ORACLE_METHODS.items():
                if method in vars(cls):
                    self._patch(cls, method, span)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def end_repeat(self):
        self.repeats.append((self._repeat_start, len(self.start), dict(self.counters)))
        self._repeat_start = len(self.start)
        self.counters.clear()

    def arrays(self) -> dict:
        # copies, so the arrays can still grow afterwards
        return {"names": np.array(self.names),
                "name_id": np.array(self.name_id, dtype=np.uint16),
                "parent": np.array(self.parent, dtype=np.int64),
                "start_ns": np.array(self.start, dtype=np.int64),
                "end_ns": np.array(self.end, dtype=np.int64),
                "repeat_bounds": np.array([r[:2] for r in self.repeats],
                                          dtype=np.int64).reshape(-1, 2)}

    def repeat_counts(self) -> list:
        """Per repeat: calls per span name plus the counters; exact integers."""
        name_id = np.array(self.name_id, dtype=np.uint16)
        out = []
        for first, stop, counters in self.repeats:
            calls = np.bincount(name_id[first:stop], minlength=len(self.names))
            out.append({**{f"{n}.calls": int(c) for n, c in zip(self.names, calls)},
                        **counters})
        return out

    def layer_metrics(self, repeat_bytes: list, overhead_frac: float) -> dict:
        """Reduce the spans of the traced repeats to LAYER_METRICS.

        Counts are per repeat (they repeat exactly); busy and self times are
        the median over repeats of the per-repeat sums; latency percentiles
        pool every call of the traced repeats.
        """
        a = self.arrays()
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        parent = a["parent"]
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        own = dur - child
        first_counts = self.repeat_counts()[0]

        def spans_of(layer):
            """(durations, self times) of the layer's spans, one pair per repeat."""
            hit = a["name_id"] == self._ids.get(layer, -1)
            return [(dur[f:s][hit[f:s]], own[f:s][hit[f:s]]) for f, s in a["repeat_bounds"]]

        def busy(layer, self_time=False):
            sums = [times[1 if self_time else 0].sum() for times in spans_of(layer)]
            return float(np.median(sums)) * 1e-9

        def pct(layer, q):
            pooled = np.concatenate([d for d, _ in spans_of(layer)])
            return float(np.percentile(pooled, q)) * 1e-3 if pooled.size else 0.0

        m = {"harness.trace_bytes": repeat_bytes[0],
             "trace.overhead_frac": overhead_frac}
        clipped = first_counts.get("core.clip_momentum.clipped", 0)
        rows = first_counts.get("libsvm.load_dataset.rows", 0)
        for key in LAYER_METRICS:
            layer, _, kind = key.rpartition(".")
            if key in m:
                continue
            if kind in ("busy_s", "self_s"):
                m[key] = busy(layer, self_time=kind == "self_s")
            elif kind.startswith("us_p"):
                m[key] = pct(layer, int(kind[len("us_p"):]))
            else:  # calls and the counters the wrappers keep
                m[key] = first_counts.get(key, 0)
        clip_calls = m["core.clip_momentum.calls"]
        m["core.clip_momentum.clip_frac"] = clipped / clip_calls if clip_calls else 0.0
        load_s = m["libsvm.load_dataset.busy_s"]
        m["libsvm.load_dataset.rows_per_s"] = rows / load_s if load_s else 0.0
        return {k: {"value": m[k], "unit": unit} for k, unit in LAYER_METRICS.items()}
