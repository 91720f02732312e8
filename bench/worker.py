"""Runs one benchmark workload in its own process, so that its set-up time
and peak RSS belong to it alone.  Started by ``run.py``; writes its result
as JSON to ``--result``.

With ``--setup-only`` it stops once the op list is built: ``run.py`` starts
several of these to take the median set-up time.  Each worker times the
host-speed reference kernel (``hostspeed.py``) right after its set-up, so
``run.py`` can correct the set-up time as the ops' times are corrected.
"""

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def run_ops(ops, check, tracer=None, kernel=None, sensitivity=1.0):
    """Closed loop over ``ops``.  An op is a zero-argument callable, or a
    tuple of them run in turn (its stages); the last stage's return value
    is the op's output.  ``kernel()``, when given, times the host-speed
    reference kernel (``hostspeed.kernel_seconds``); it runs before the
    first stage and after every stage, outside the timed regions;
    ``sensitivity`` is handed to ``hostspeed.corrected``.

    Returns per-op wall seconds (every op attempted), per-op seconds at the
    reference host speed (equal to the wall seconds without ``kernel``),
    the kernel times, the checked score of each op that returned, and one
    message per op that raised or failed its check.  Failed ops are never
    retried or dropped."""
    state = {}
    op_seconds, ref_seconds, kernel_s, scores, failures = [], [], [], [], []
    last_kernel = kernel() if kernel else None
    if kernel:
        kernel_s.append(last_kernel)
    for index, op in enumerate(ops):
        wall = ref = 0.0
        output = None
        try:
            for stage in op if isinstance(op, tuple) else (op,):
                start = time.perf_counter()
                try:
                    with tracer.op(index) if tracer else nullcontext():
                        output = stage()
                finally:
                    seconds = time.perf_counter() - start
                    wall += seconds
                    if kernel:
                        after = kernel()
                        kernel_s.append(after)
                        ref += hostspeed.corrected(seconds, last_kernel, after, sensitivity)
                        last_kernel = after
                    else:
                        ref += seconds
            op_seconds.append(wall)
            ref_seconds.append(ref)
            score, problem = check(state, index, output)
            scores.append(score)
            if problem:
                failures.append(problem)
        except Exception as exc:  # the loop must go on: count it, report it
            if len(op_seconds) == index:
                op_seconds.append(wall)
                ref_seconds.append(ref)
            failures.append(f"op {index}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
    return op_seconds, ref_seconds, kernel_s, scores, failures


def summarize(op_seconds, ref_seconds, kernel_s, scores, failures):
    """``ops_per_s`` and ``op_s_p50`` are taken at the reference host speed;
    the ``_wall`` variants are the plain wall-clock figures."""
    completed = len(op_seconds) - len(failures)
    return {
        "attempted": len(op_seconds),
        "failed": len(failures),
        "failures": failures,
        "op_seconds": op_seconds,
        "op_ref_seconds": ref_seconds,
        "kernel_seconds": kernel_s,
        "ops_per_s": completed / sum(ref_seconds) if ref_seconds else 0.0,
        "op_s_p50": statistics.median(ref_seconds) if ref_seconds else 0.0,
        "ops_per_s_wall": completed / sum(op_seconds) if op_seconds else 0.0,
        "op_s_p50_wall": statistics.median(op_seconds) if op_seconds else 0.0,
        "accuracy_mean": statistics.fmean(scores) if scores else 0.0,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    import tsbm

    if Path(tsbm.__file__).resolve().parent != SRC / "tsbm":
        raise SystemExit(f"tsbm imported from {tsbm.__file__}, not from {SRC}")
    from workloads import WORKLOADS, op_count

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    ops = workload.build_ops(
        args.seed, op_count(workload, args.seconds, args.smoke), args.smoke, args.workdir
    )
    result = {"ready_at": time.monotonic(), "setup_kernel_s": hostspeed.kernel_seconds()}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracing import Tracer, install, layer_metrics

            tracer = Tracer()
            install(tracer)
        result.update(summarize(*run_ops(ops, workload.check, tracer,
                                         hostspeed.kernel_seconds, workload.sensitivity)))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["versions"] = {
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        }
        if tracer is not None:
            tracer.restore()
            result["layers"] = layer_metrics(tracer, len(ops))
            spans = Path(args.result).with_suffix(".spans.jsonl")
            tracer.write(spans)
            result["spans"] = str(spans.relative_to(ROOT))
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
