"""Tests of the benchmark itself, at smoke size.

    python3 -m pytest bench/test_bench.py -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import hostspeed  # noqa: E402
from worker import run_ops, summarize  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_spec_names_workloads_that_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_unknown_workload_is_refused():
    proc = run_bench("--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def test_exact_counters_repeat_for_a_seed():
    def counters():
        proc = run_bench("--workload", "online-learn", "--seed", "5", "--seconds", "1",
                         "--trace", "1", "--smoke")
        metrics = last_json(proc.stdout)["metrics"]
        return {k: metrics[k]["value"] for k in
                ("sbm.set_bits", "recovery.nodes_moved", "recovery.moving_step_frac",
                 "metrics.ham_star.calls")}

    first = counters()
    assert first["sbm.set_bits"] > 0
    assert counters() == first


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", "refine-loo", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def smoke_ops(name, tmp_path, n_ops=2):
    workload = WORKLOADS[name]
    return workload, workload.build_ops(7, n_ops, True, str(tmp_path))


def output_of(op):
    """Runs an op's stages in turn; returns the last one's output."""
    return [stage() for stage in op][-1]


def all_failed(workload, ops):
    outcome = summarize(*run_ops(ops, workload.check))
    assert outcome["attempted"] == len(ops)
    assert outcome["failed"] == len(ops), outcome["failures"]
    return outcome


@pytest.mark.parametrize("name", ["online-learn", "refine-loo"])
def test_trial_checks_fire_on_corrupted_records(name, tmp_path):
    workload, ops = smoke_ops(name, tmp_path)

    def guessed(op):
        record = op()
        n = record.params["n"]
        half = [n // 2] * len(record.ham_stars)
        return dataclasses.replace(record, ham_stars=half,
                                   accuracies=[1 - h / n for h in half])

    def inconsistent(op):
        record = op()
        return dataclasses.replace(record, accuracies=[a - 0.01 for a in record.accuracies])

    all_failed(workload, [lambda op=op: guessed(op) for op in ops])
    all_failed(workload, [lambda op=op: inconsistent(op) for op in ops])


def test_pipeline_check_reads_the_written_labels(tmp_path):
    workload, ops = smoke_ops("scale-pipeline", tmp_path)

    def overwritten(op):
        truth, estimate = output_of(op)
        Path(estimate).write_text("labels " + " ".join("1" for _ in range(200)) + "\n")
        return truth, estimate

    all_failed(workload, [lambda op=op: overwritten(op) for op in ops])


def test_grid_check_compares_ops_and_criterion_04(tmp_path):
    workload, ops = smoke_ops("threshold-grid", tmp_path, n_ops=3)

    def shifted(op):
        grids, t_stars = output_of(op)
        grids[0] = np.where(np.isinf(grids[0]), grids[0], grids[0] + 0.5)
        return grids, t_stars

    def wrong_t_star(op):
        grids, t_stars = output_of(op)
        return grids, {**t_stars, 2.5: 15}

    corrupted = [ops[0], lambda: shifted(ops[1]), lambda: wrong_t_star(ops[2])]
    op_seconds, _, _, scores, failures = run_ops(corrupted, workload.check)
    assert len(op_seconds) == 3 and len(failures) == 2
    assert scores[0] == 1.0 and len(scores) == 2 and scores[1] < 1.0


def test_an_op_that_raises_is_counted_not_retried(tmp_path):
    workload, ops = smoke_ops("refine-loo", tmp_path)
    calls = []

    def boom():
        calls.append(1)
        raise CheckFailed("boom")

    outcome = summarize(*run_ops([ops[0], boom, ops[1]], workload.check))
    assert calls == [1]
    assert (outcome["attempted"], outcome["failed"]) == (3, 1)
    assert len(outcome["op_seconds"]) == 3


def test_stages_are_timed_and_corrected_to_the_reference_speed():
    kernel_times = iter([0.02, 0.04, 0.04, 0.01])
    op_seconds, ref_seconds, kernel_s, scores, failures = run_ops(
        [(lambda: None, lambda: 7), lambda: 8], lambda state, index, out: (out, None),
        kernel=lambda: next(kernel_times))
    assert kernel_s == [0.02, 0.04, 0.04, 0.01] and scores == [7, 8] and not failures
    # a stage's wall time times REF_KERNEL_S over the mean kernel time around it
    ref = hostspeed.REF_KERNEL_S
    assert ref_seconds[1] == pytest.approx(op_seconds[1] * ref / 0.025)
    assert 0 <= ref_seconds[0] <= op_seconds[0] * ref / 0.03 + 1e-12
    assert hostspeed.corrected(2.0, 2 * ref, 2 * ref, 1.4) == pytest.approx(2.0 * 0.5**1.4)
