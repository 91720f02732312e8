"""In-memory span tracer for the benchmark's traced run.

Spans are recorded around calls into ``tsbm``'s public functions, from the
benchmark's side of the boundary: ``install`` swaps each module attribute
(or class attribute) for a timing wrapper under the name its caller uses,
because modules bind imported names at import time and one wrapper on the
defining module would miss ``from .spectral import spectral_cluster``
callers.  ``restore`` puts the originals back.

Each span records its name, start, end, parent span and op id.  Work the
tracer itself does around a call (counting set bits, eigen-residuals and
moved labels) is recorded as a ``trace.hook`` span, so it is excluded from
the self time of the caller's span and shows up as tracing overhead.
"""

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# t_star's linear scan covers T <= 1024 before doubling and bisection
# (see the t_star docstring); calls that return beyond it left the scan.
LINEAR_SCAN_CAP = 1024

OP_SPAN = "bench.op"
HOOK_SPAN = "trace.hook"


class Tracer:
    """Records spans and counters; one instance per traced run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self._stack = []
        self._op = None
        self._saved = []
        self.counters = defaultdict(float)
        self.maxima = defaultdict(float)

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self._op]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    @contextmanager
    def op(self, op_id):
        self._op = op_id
        try:
            with self.span(OP_SPAN):
                yield
        finally:
            self._op = None

    def count(self, name, value=1):
        self.counters[name] += value

    def record_max(self, name, value):
        self.maxima[name] = max(self.maxima[name], float(value))

    def wrap(self, owner, attr, name, before=None, after=None):
        """Replace ``owner.attr`` with a wrapper that records a span named
        ``name`` (or ``name(args)`` when callable).  ``before(*args)``
        returns a token handed to ``after(token, result, *args)``."""
        fn = getattr(owner, attr)
        self._saved.append((owner, attr, fn))
        tracer = self

        def wrapper(*args, **kwargs):
            token = None
            if before is not None:
                with tracer.span(HOOK_SPAN):
                    token = before(*args, **kwargs)
            with tracer.span(name(args) if callable(name) else name):
                result = fn(*args, **kwargs)
            if after is not None:
                with tracer.span(HOOK_SPAN):
                    after(token, result, *args, **kwargs)
            return result

        wrapper.__wrapped__ = fn
        setattr(owner, attr, wrapper)

    def restore(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def self_times(self):
        """Per span name: (summed self seconds, call count)."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals = defaultdict(lambda: [0.0, 0])
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name][0] += end - start - child_time[index]
            totals[name][1] += 1
        return totals

    def write(self, path):
        with open(path, "w") as fh:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op,
                }) + "\n")


# ---------------------------------------------------------------------------
# What the traced run wraps: each target names its span, every (module or
# class, attribute) through which callers reach the function, and the hooks
# that count work around the call.
# ---------------------------------------------------------------------------


def install(tracer):
    """Wrap the public functions of every layer the workloads reach."""
    import tsbm.cli as cli
    import tsbm.harness as harness
    import tsbm.recovery as recovery
    import tsbm.spectral as spectral

    def sampled(_, array, *args, **kwargs):
        tracer.count("sbm.tensor_bytes", array.data.nbytes)
        tracer.count("sbm.set_bits", int(np.count_nonzero(array.data)) // 2)

    def written(_, result, path, *args, **kwargs):
        tracer.count("sbm.file_bytes", os.path.getsize(path))

    def read(_, array, *args, **kwargs):
        tracer.count("sbm.tensor_bytes", array.data.nbytes)

    def eigen_residual(_, result, A, k, *args, **kwargs):
        A = np.asarray(A, dtype=np.float64)
        vals, vecs = result
        scale = max(float(np.abs(A).sum(axis=1).max()), 1e-300)
        resid = np.linalg.norm(A @ vecs - vecs * vals, axis=0).max(initial=0.0)
        tracer.record_max("spectral.top_eigenpairs.resid_max", resid / scale)

    def labels_before(state, *args, **kwargs):
        return state.labels.copy()

    def labels_after(before, _, state, *args, **kwargs):
        moved = int(np.count_nonzero(state.labels != before))
        tracer.count("recovery.steps")
        tracer.count("recovery.moved_nodes", moved)
        tracer.count("recovery.moving_steps", moved > 0)

    def t_star_result(_, result, *args, **kwargs):
        tracer.count("markov.t_star.beyond_scan", result is None or result > LINEAR_SCAN_CAP)
        tracer.count("markov.t_star.unbounded", result is None)

    targets = [
        ("sbm.sample_markov_snapshots", [(harness, "sample_markov_snapshots"),
                                         (cli, "sample_markov_snapshots")], None, sampled),
        ("sbm.write_snapshots", [(cli, "write_snapshots")], None, written),
        ("sbm.read_snapshots", [(cli, "read_snapshots")], None, read),
        ("spectral.binarize", [(harness, "binarize"), (cli, "binarize"),
                               (recovery, "binarize")], None, None),
        ("spectral.spectral_cluster", [(harness, "spectral_cluster"),
                                       (cli, "spectral_cluster"),
                                       (recovery, "spectral_cluster")], None, None),
        ("spectral.leave_one_out_cluster", [(recovery, "leave_one_out_cluster")], None, None),
        ("spectral.top_eigenpairs", [(spectral, "top_eigenpairs")], None, eigen_residual),
        ("spectral.kmeans", [(spectral, "kmeans")], None, None),
        ("recovery.OnlineLikelihood.step", [(recovery.OnlineLikelihood, "step")],
         labels_before, labels_after),
        ("recovery.OnlineLikelihoodLearned.step", [(recovery.OnlineLikelihoodLearned, "step")],
         labels_before, labels_after),
        ("recovery.refine_recover", [(harness, "refine_recover"),
                                     (cli, "refine_recover")], None, None),
        ("recovery.MarkovKernel.log_ratio_matrix",
         [(recovery.MarkovKernel, "log_ratio_matrix")], None, None),
        ("metrics.ham_star", [(harness, "ham_star")], None, None),
        ("markov.t_star", [(harness, "t_star")], None, t_star_result),
        ("divergence.lower_bound_error_rate", [(harness, "lower_bound_error_rate")],
         None, None),
        ("divergence.upper_bound_error_rate", [(harness, "upper_bound_error_rate")],
         None, None),
        ("harness.run_trial", [(harness, "run_trial")], None, None),
        ("harness.threshold_grid", [(harness, "threshold_grid")], None, None),
        ("harness.divergence_report", [(harness, "divergence_report")], None, None),
    ]
    for name, owners, before, after in targets:
        for owner, attr in owners:
            tracer.wrap(owner, attr, name, before, after)
    tracer.wrap(cli, "main", lambda args: f"cli.{args[0][0]}")


def layer_metrics(tracer, n_ops):
    """Per-layer metrics of a traced run, keyed by the names listed in
    BENCHMARK.json: ``.s`` is self seconds per op, ``.calls`` calls per op,
    byte and bit counts are per op."""
    totals = tracer.self_times()
    per_op = max(n_ops, 1)

    def seconds(name):
        return totals[name][0] / per_op if name in totals else 0.0

    def calls(name):
        return totals[name][1] / per_op if name in totals else 0.0

    c = tracer.counters
    steps = c["recovery.steps"]
    out = {}
    for name in (
        "sbm.sample_markov_snapshots", "sbm.write_snapshots", "sbm.read_snapshots",
        "spectral.binarize", "spectral.spectral_cluster", "spectral.top_eigenpairs",
        "spectral.kmeans", "spectral.leave_one_out_cluster",
        "recovery.OnlineLikelihood.step", "recovery.OnlineLikelihoodLearned.step",
        "recovery.refine_recover", "recovery.MarkovKernel.log_ratio_matrix",
        "metrics.ham_star", "markov.t_star",
        "divergence.lower_bound_error_rate", "divergence.upper_bound_error_rate",
        "harness.run_trial", "harness.threshold_grid", "harness.divergence_report",
        "cli.generate", "cli.recover", HOOK_SPAN,
    ):
        out[name + ".s"] = seconds(name)
    for name in ("spectral.top_eigenpairs", "recovery.OnlineLikelihood.step",
                 "recovery.OnlineLikelihoodLearned.step", "metrics.ham_star",
                 "markov.t_star"):
        out[name + ".calls"] = calls(name)
    for name in ("sbm.file_bytes", "sbm.tensor_bytes", "sbm.set_bits",
                 "markov.t_star.beyond_scan", "markov.t_star.unbounded"):
        out[name] = c[name] / per_op
    out["spectral.top_eigenpairs.resid_max"] = tracer.maxima["spectral.top_eigenpairs.resid_max"]
    out["recovery.nodes_moved"] = c["recovery.moved_nodes"] / steps if steps else 0.0
    out["recovery.moving_step_frac"] = c["recovery.moving_steps"] / steps if steps else 0.0
    return out
