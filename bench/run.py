"""Benchmark for tsbm: seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload online-learn --seed 1 --seconds 20 --trace 0

Run it from the root of a source tree; it imports ``tsbm`` from ``src/``
and nothing else.  Each workload runs in a fresh worker process
(``worker.py``).  ``--trace 0`` prints the end-to-end metrics listed in
BENCHMARK.json; the set-up time is the median over five worker starts.
Times are corrected to a reference host speed (``hostspeed.py``); the
plain wall-clock figures are printed beside them with a ``_wall`` suffix.
``--trace 1`` runs the same ops untraced and then traced, prints the
per-layer metrics of the traced run, and reports the tracing overhead as
the relative difference of the two runs' median op time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
hold the run metadata, the per-op times and any failures.  Spans of a
traced run are written to ``.bench_runs/``.  ``--smoke`` runs every
workload at a tiny size, for the benchmark's own tests.
"""

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_SAMPLES = 5
DEADLINE_S = 170
# Never used while the benchmark was written; show a claimed gain on it too.
HOLDOUT_SEED = 7340177
# One BLAS thread, at most nproc: the matrices are small (n <= 3000), and on
# a 2-core box a second thread was no faster and spread more from op to op.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class WorkerFailed(RuntimeError):
    pass


def _read(path, default=""):
    try:
        return Path(path).read_text()
    except OSError:
        return default


def machine_info():
    cpu_model = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")), "unknown")
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind = _read(f"{index}/level").strip(), _read(f"{index}/type").strip()
        if kind in ("Unified", "Data") and level in ("2", "3"):
            caches[f"L{level}"] = _read(f"{index}/size").strip()
    mem_kb = next(
        (int(line.split()[1]) for line in _read("/proc/meminfo").splitlines()
         if line.startswith("MemTotal:")), 0)
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model, **caches,
            "mem_total_mb": mem_kb // 1024}


def git_commit():
    # the ceiling keeps git from reporting an enclosing repository
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def rounded(values):
    return json.dumps([round(v, 6) for v in values])


def spawn(args, env, outdir, tag, deadline, extra=()):
    """Run one worker to completion; returns its result plus ``setup_s``,
    the time from process start to its first timed op at the reference host
    speed, and ``setup_s_wall``, the same on the wall clock."""
    result = outdir / f"{tag}.json"
    workdir = outdir / f"{tag}.work"
    workdir.mkdir()
    command = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--workdir", str(workdir), "--result", str(result), *extra]
    if args.smoke:
        command.append("--smoke")
    started = time.monotonic()
    try:
        proc = subprocess.run(command, env=env, stdout=subprocess.DEVNULL,
                              timeout=max(deadline - started, 1))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker {tag} passed the {DEADLINE_S} s deadline")
    shutil.rmtree(workdir)
    if proc.returncode != 0:
        raise WorkerFailed(f"worker {tag} exited with {proc.returncode}")
    out = json.loads(result.read_text())
    out["setup_s_wall"] = out["ready_at"] - started
    out["setup_s"] = hostspeed.corrected(out["setup_s_wall"], out["setup_kernel_s"],
                                         out["setup_kernel_s"])
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or refine-loo (see README.md)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "tsbm" / "__init__.py").is_file():
        print(f"error: no tsbm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ, **{var: str(BLAS_THREADS) for var in BLAS_THREAD_VARS})
    outdir = ROOT / ".bench_runs" / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)

    try:
        if args.trace:
            base = spawn(args, env, outdir, "untraced", deadline)
            traced = spawn(args, env, outdir, "traced", deadline, ["--trace", "1"])
            runs = [base, traced]
            metrics = dict(traced["layers"])
            metrics["trace.overhead_frac"] = traced["op_s_p50"] / base["op_s_p50"] - 1.0
            wanted = SPEC["per_layer"]
        else:
            setups = [spawn(args, env, outdir, f"setup{i}", deadline, ["--setup-only"])
                      for i in range(SETUP_SAMPLES - 1)]
            main_run = spawn(args, env, outdir, "main", deadline)
            runs = [main_run]
            metrics = {key: main_run[key] for key in
                       ("ops_per_s", "op_s_p50", "peak_rss_mb", "accuracy_mean")}
            for key in ("setup_s", "setup_s_wall"):
                metrics[key] = statistics.median([s[key] for s in setups + [main_run]])
            metrics["ops_per_s_wall"] = main_run["ops_per_s_wall"]
            metrics["op_s_p50_wall"] = main_run["op_s_p50_wall"]
            wanted = SPEC["end_to_end"]
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "holdout_seed": HOLDOUT_SEED,
        "machine": machine_info(), "versions": runs[-1]["versions"],
        "blas_threads": BLAS_THREADS, "git_commit": git_commit(),
        "src_lines": src_lines(),
    }
    print("meta " + json.dumps(meta))
    for run, tag in zip(runs, ("untraced", "traced") if args.trace else ("main",)):
        print(f"ops {tag}: {run['attempted']} attempted, {run['failed']} failed, "
              f"ops_failed_frac {run['failed'] / max(run['attempted'], 1):.4f}, "
              f"per-op wall seconds {rounded(run['op_seconds'])}, "
              f"at reference speed {rounded(run['op_ref_seconds'])}, "
              f"kernel seconds {rounded(run['kernel_seconds'])}")
        for failure in run["failures"]:
            print(f"failed {tag}: {failure}")
        if "spans" in run:
            print(f"spans {run['spans']}")
    if not args.trace:
        metrics["ops_failed_frac"] = failed / max(attempted, 1)
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    units.update(ops_failed_frac="fraction", setup_s_wall="s", ops_per_s_wall="ops/s",
                 op_s_p50_wall="s")
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
