"""The benchmark's workloads: seeded op lists and output checks.

Every workload is a closed loop with one client: the next op starts when
the previous one returns.  A run is a fixed list of ops derived from the
workload seed alone; its length depends only on ``--seconds`` (divided by
the workload's nominal op cost), never on how fast the machine is, so the
exact counters and ``accuracy_mean`` repeat run after run.

A workload's ``build_ops(seed, n_ops, smoke, workdir)`` returns the ops.
Each op is a zero-argument callable returning the raw program output, or
a tuple of such stages run in turn, the last returning the output; its
``check(state, op_index, output)`` returns ``(score, problem)``: the
fraction of reference values the output reproduced, and a message when the
output misses its bar (else None).  It raises ``CheckFailed`` when the
output is malformed.  Checks run outside the op's timed region.
``accuracy_mean`` is the mean score over ops that returned: for the
recovery workloads it is ``1 - ham_star / N`` of the final labelling.
"""

import math
import os
import random
from dataclasses import dataclass, replace

import numpy as np

from tsbm import cli, harness
from tsbm.markov import ThresholdConvention, chain_from_stationary
from tsbm.metrics import ham_star
from tsbm.sbm import read_labels

# Final-accuracy bar for recovery ops: the bar of acceptance criteria 05/06.
ACCURACY_BAR = 0.95
# Criterion 04: T* (exact convention) for the figure-4 chain pairs.
FIGURE4_T_STAR = {1.5: 13, 2.5: 14, 4.0: 11}


class CheckFailed(Exception):
    """An op's output missed its check."""


@dataclass(frozen=True)
class Workload:
    name: str
    nominal_op_s: float  # op cost used to size a run; sets ops per run only
    build_ops: object  # (seed, n_ops, smoke, workdir) -> list of ops
    check: object  # (state, op index, output) -> (reproduced fraction, problem)
    # Exponent of the host-speed correction (hostspeed.corrected).  1 unless
    # measured otherwise: threshold-grid's interpreted scans over tiny
    # arrays slow more than the reference kernel when the host is busy.
    # Slopes of log op time on log kernel time of 1.2 to 1.6 were measured
    # for it; 1.4 halved the spread of its corrected figures over two sets
    # of ten seeds (0.10-0.12 to 0.05-0.06), while online-learn and
    # scale-pipeline spread least at 1.
    sensitivity: float = 1.0


def op_count(workload, seconds, smoke):
    if smoke:
        return 2
    return max(1, round(seconds / workload.nominal_op_s))


def _op_seeds(seed, n_ops):
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(n_ops)]


# ---------------------------------------------------------------------------
# online-learn and refine-loo: harness.run_trial, one trial index per op
# ---------------------------------------------------------------------------


def _trial_ops(config):
    def build(seed, n_ops, smoke, workdir):
        cfg = replace(config(smoke), seed=seed)
        return [lambda i=i: harness.run_trial(cfg, i) for i in range(n_ops)]
    return build


def _check_trial(state, index, record):
    n = record.params["n"]
    expected_len = record.params["t"] if record.algorithm in harness.ONLINE_ALGORITHMS else 1
    if len(record.ham_stars) != expected_len or len(record.accuracies) != expected_len:
        raise CheckFailed(f"op {index}: {len(record.ham_stars)} scores, want {expected_len}")
    for hs, acc in zip(record.ham_stars, record.accuracies):
        if not 0 <= hs <= n // 2 or acc != 1.0 - hs / n:
            raise CheckFailed(f"op {index}: inconsistent score ham*={hs} accuracy={acc}")
    return _accuracy_bar(index, record.final_accuracy)


def _accuracy_bar(index, acc):
    if acc >= ACCURACY_BAR:
        return acc, None
    return acc, f"op {index}: final accuracy {acc:.4f} < {ACCURACY_BAR}"


def _online_learn_config(smoke):
    # Figure-6 parameter-learning config.  nu1 = 0.03 is the figure's point
    # where spectral init on one snapshot is informative in every trial;
    # at nu1 = 0.035 about half the trials start near 0.5 accuracy and
    # never recover, which would turn the accuracy bar into a coin flip.
    if smoke:
        return harness.ExperimentConfig(
            n=120, k=2, t=6, mu1=0.4, nu1=0.1, p11=0.6, q11=0.3, units="absolute",
            algorithm="online-learn", init="spectral", trials=1)
    return harness.ExperimentConfig(
        n=1000, k=2, t=30, mu1=0.05, nu1=0.03, p11=0.6, q11=0.3, units="absolute",
        algorithm="online-learn", init="spectral", trials=1)


def _refine_loo_config(smoke):
    # Equal persistence keeps the union graph informative, so the accuracy
    # check means something; the default configs sit near 0.55.
    return harness.ExperimentConfig(
        n=40 if smoke else 200, k=2, t=10, mu1=4.0, nu1=1.5, p11=0.5, q11=0.5,
        units="logn", algorithm="refine-loo", trials=1)


# ---------------------------------------------------------------------------
# scale-pipeline: cli generate, then cli recover, through snapshot files
# ---------------------------------------------------------------------------


def _scale_build(seed, n_ops, smoke, workdir):
    # The figure-4 chain persistences at the ROADMAP scale point, with
    # mu1 = 3.0.  At mu1 = 2.5 the block eigenvalue of one snapshot sits in
    # the bulk: spectral init is near 0.5 accuracy and about a quarter of
    # the trials end below the bar at T = 10.  At 3.0 init is near 0.85 and
    # every trial reaches 1.0.
    n, t, mu1 = ("200", "6", "8") if smoke else ("3000", "10", "3.0")
    chain = ["--mu1", mu1, "--nu1", "1.5", "--p11", "0.7", "--q11", "0.3",
             "--units", "logn"]
    graph = os.path.join(workdir, "graph.tsbm")
    truth = graph + ".labels"
    estimate = os.path.join(workdir, "estimate.labels")

    def generate(op_seed):
        for path in (graph, truth, estimate):
            if os.path.exists(path):
                os.remove(path)
        _cli(["generate", "--n", n, "--k", "2", "--t", t, *chain, "--seed", str(op_seed),
              "--out", graph])

    def recover(op_seed):
        _cli(["recover", "--input", graph, "--algorithm", "online", "--init", "spectral",
              "--k", "2", *chain, "--seed", str(op_seed), "--out", estimate])
        return truth, estimate

    # Two stages, so the host-speed kernel also runs between them.
    return [(lambda s=s: generate(s), lambda s=s: recover(s))
            for s in _op_seeds(seed, n_ops)]


def _cli(argv):
    code = cli.main(argv)
    if code != 0:
        raise CheckFailed(f"tsbm {argv[0]} exited with {code}")


def _scale_check(state, index, output):
    truth_path, estimate_path = output
    truth, estimate = read_labels(truth_path), read_labels(estimate_path)
    if estimate.shape != truth.shape or estimate.min(initial=0) < 0 or estimate.max(initial=0) > 1:
        raise CheckFailed(f"op {index}: labels file does not hold {truth.size} labels in 0..1")
    distance, _ = ham_star(estimate, truth)
    return _accuracy_bar(index, 1.0 - distance / truth.size)


# ---------------------------------------------------------------------------
# threshold-grid: the figure-2 T* maps plus the figure-4 divergence reports
# ---------------------------------------------------------------------------


def _grid_build(seed, n_ops, smoke, workdir):
    # The figure-2 bundle is one fixed grid, so the seed does not change the
    # work: this workload's spread across seeds is machine noise alone.
    steps = 5 if smoke else 19
    values = np.linspace(0.05, 0.95, steps)
    n, t = 500, 13
    rho = math.log(n) / n

    first, second = ThresholdConvention

    def op():
        grids = [None] * 6  # ordered by multiplier, then convention

        def grids_for(c, convention):
            for m, mult in enumerate((1.51, 2.5, 4.0)):
                grids[2 * m + c] = harness.threshold_grid(
                    n, 2, mult, 1.5, values, values, convention)

        def second_stage():
            grids_for(1, second)
            t_stars = {
                mult: harness.divergence_report(
                    chain_from_stationary(mult * rho, 0.7),
                    chain_from_stationary(1.5 * rho, 0.3), n, 2, t,
                ).t_star_exact
                for mult in FIGURE4_T_STAR
            }
            return grids, t_stars

        # One stage per threshold convention, so the host-speed kernel also
        # runs mid-op; the short reports end the second stage.
        return (lambda: grids_for(0, first), second_stage)

    return [op() for _ in range(n_ops)]


def _grid_check(state, index, output):
    grids, t_stars = output
    reference = state.setdefault("grids", grids)
    if [g.shape for g in grids] != [g.shape for g in reference]:
        raise CheckFailed(f"op {index}: grid shapes differ from op 0")
    cells = sum(g.size for g in reference)
    differ = sum(int(np.count_nonzero(a != b)) for a, b in zip(reference, grids))
    if differ:
        raise CheckFailed(f"op {index}: {differ} grid cells differ from op 0")
    same_t = sum(t_stars.get(m) == want for m, want in FIGURE4_T_STAR.items())
    score = (cells + same_t) / (cells + len(FIGURE4_T_STAR))
    if same_t != len(FIGURE4_T_STAR):
        return score, f"op {index}: T* exact {t_stars}, want {FIGURE4_T_STAR}"
    return score, None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("online-learn", 2.2, _trial_ops(_online_learn_config), _check_trial),
        Workload("scale-pipeline", 8.0, _scale_build, _scale_check),
        Workload("refine-loo", 1.3, _trial_ops(_refine_loo_config), _check_trial),
        Workload("threshold-grid", 2.6, _grid_build, _grid_check, sensitivity=1.4),
    )
}
