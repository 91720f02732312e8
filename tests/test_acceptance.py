"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a single PASS line on success (run with ``pytest -s`` to see them;
failures surface as ordinary assertion errors).
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from tsbm._rng import counter_uniform, derive_seed
from tsbm.divergence import FiniteDistribution, hellinger_sq, j_quantity, renyi
from tsbm.markov import (
    BinaryMarkovChain,
    ThresholdConvention,
    chain_from_stationary,
    count_paths,
    high_order_bound,
    markov_renyi_exact,
    path_stats,
    sparse_renyi_approx,
    t_star,
)
from tsbm.metrics import confusion_matrix, ham, ham_star, mirkin, rand_index, unique_alignment
from tsbm.recovery import (
    CategoricalKernel,
    OnlineLikelihoodLearned,
    enemy_paths,
    mle_brute_force,
    persistent_components,
    refine_recover,
)
from tsbm.harness import ExperimentConfig, run_experiment, summarize
from tsbm.sbm import sample_categorical_snapshots, sample_labelling, sample_markov_snapshots
from tsbm.spectral import binarize, spectral_cluster

from markov_reference import markov_renyi_brute


def report(number, name, detail):
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({detail})")


def test_criterion_01_divergence_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        cf = BinaryMarkovChain(*rng.uniform(0.01, 0.99, 3))
        cg = BinaryMarkovChain(*rng.uniform(0.01, 0.99, 3))
        for T in range(2, 13):
            for alpha in (0.3, 0.5, 1.5):
                diff = abs(
                    markov_renyi_exact(alpha, cf, cg, T)
                    - markov_renyi_brute(alpha, cf, cg, T)
                )
                worst = max(worst, diff)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 10.0
    report(1, "transfer matrix vs brute force", f"max diff {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_sparse_approximation_guarantee():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    checked = 0
    for rho in (1e-4, 1e-3):
        for T in (5, 10):
            for _ in range(25):
                cf = BinaryMarkovChain(
                    rng.uniform(0, rho), rng.uniform(0, rho), rng.uniform(0, 0.95)
                )
                cg = BinaryMarkovChain(
                    rng.uniform(0, rho), rng.uniform(0, rho), rng.uniform(0, 0.95)
                )
                approx = sparse_renyi_approx(0.5, cf, cg, T)
                exact = markov_renyi_exact(0.5, cf, cg, T)
                assert approx.in_regime
                assert abs(approx.value - exact) <= 92.0 * (rho * T) ** 2
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(2, "sparse closed-form radius", f"{checked} draws, {elapsed:.1f}s")


def test_criterion_03_high_order_bound_dominates():
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    checked = 0
    while checked < 100:
        rho = 10 ** rng.uniform(-4, -2)
        nu1, q01 = rng.uniform(0, rho, 2)
        M = rng.uniform(1.0, 3.0)
        mu1 = nu1 * rng.uniform(0.5, 1.0) * M
        p01 = q01 * rng.uniform(0.5, 1.0) * M
        q11 = rng.uniform(0.05, 0.6)
        p11 = 1 - (1 - q11) * rng.uniform(1 / M, 1.0)
        if p11**1.5 * q11**-0.5 >= 1:
            continue
        cf = BinaryMarkovChain(mu1, p01, p11)
        cg = BinaryMarkovChain(nu1, q01, q11)
        bound = high_order_bound(1.5, cf, cg, 10, M, rho)
        assert markov_renyi_exact(1.5, cf, cg, 10) <= bound
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(3, "order-3/2 bound dominates", f"{checked} draws, {elapsed:.1f}s")


def test_criterion_04_snapshot_threshold_replication():
    start = time.perf_counter()
    n, k = 500, 2
    rho = math.log(n) / n
    targets = {1.5: 13, 2.5: 14, 4.0: 11}
    matching = []
    for convention in (ThresholdConvention.EXACT, ThresholdConvention.I_TILDE):
        values = {}
        for mult, want in targets.items():
            intra = chain_from_stationary(mult * rho, 0.7)
            inter = chain_from_stationary(1.5 * rho, 0.3)
            values[mult] = t_star(intra, inter, n, k, convention)
        if all(abs(values[m] - targets[m]) <= 1 for m in targets):
            matching.append((convention.value, values))
    elapsed = time.perf_counter() - start
    assert matching, "no threshold convention reproduces the reference values"
    assert elapsed < 1.0
    convention, values = matching[0]
    report(
        4,
        "T* replication (13/14/11)",
        f"convention={convention}, values={list(values.values())}, {elapsed:.2f}s",
    )


def test_criterion_05_online_recovery_from_random_guess():
    start = time.perf_counter()
    config = ExperimentConfig(
        n=500, k=2, t=10, mu1=2.5, nu1=1.5, p11=0.7, q11=0.3,
        units="logn", algorithm="online", init="random", trials=20, seed=11,
    )
    mean, _ = summarize(run_experiment(config))
    elapsed = time.perf_counter() - start
    assert mean[9] >= 0.95
    assert mean[9] > mean[1]
    assert elapsed < 180.0
    report(
        5,
        "online recovery from random guess",
        f"mean acc t=2 {mean[1]:.3f} -> t=10 {mean[9]:.3f}, {elapsed:.1f}s",
    )


def test_criterion_06_parameter_learning():
    start = time.perf_counter()
    n, k = 1000, 2
    intra = chain_from_stationary(0.05, 0.6)
    inter = chain_from_stationary(0.03, 0.3)
    successes = 0
    finals = []
    for seed in range(20):
        truth = sample_labelling(n, k, seed=derive_seed(seed, 61))
        arr = sample_markov_snapshots(truth, intra, inter, 30, seed=derive_seed(seed, 62))
        init = truth.copy()
        u = counter_uniform(derive_seed(seed, 63), 0, np.arange(n))
        flip = np.argsort(u)[: n // 4]  # corrupt exactly a quarter of the nodes
        init[flip] = 1 - init[flip]
        assert 1 - ham_star(init, truth)[0] / n >= 0.75
        state = OnlineLikelihoodLearned(arr, init, k)
        final = state.run()
        acc = 1 - ham_star(final, truth)[0] / n
        finals.append(acc)
        successes += acc >= 0.95
    elapsed = time.perf_counter() - start
    assert successes >= 18
    assert elapsed < 300.0
    report(
        6,
        "parameter learning from 75% start",
        f"{successes}/20 runs >= 0.95 (mean {np.mean(finals):.3f}), {elapsed:.0f}s",
    )


def test_criterion_07_baseline_consistency():
    start = time.perf_counter()
    ones = BinaryMarkovChain(1.0, 0.0, 1.0)
    noise = BinaryMarkovChain(0.3, 0.3, 0.3)
    ok_friends = ok_enemies = 0
    for seed in range(20):
        truth = sample_labelling(200, 2, seed=derive_seed(seed, 71))
        arr = sample_markov_snapshots(truth, ones, noise, 20, seed=derive_seed(seed, 72))
        l5, k5 = persistent_components(arr)
        l6, k6 = enemy_paths(arr)
        ok_friends += ham_star(l5, truth)[0] == 0 and k5 == 2
        ok_enemies += ham_star(l6, truth)[0] == 0 and k6 == 2
    elapsed = time.perf_counter() - start
    assert ok_friends == 20
    assert ok_enemies == 20
    assert elapsed < 30.0
    report(7, "baseline exact recovery", f"friends 20/20, enemies 20/20, {elapsed:.1f}s")


def test_criterion_08_baseline_fragility():
    start = time.perf_counter()
    near_static = BinaryMarkovChain(1.0, 0.0, 0.99)
    noise = BinaryMarkovChain(0.3, 0.3, 0.3)
    accs = []
    for seed in range(20):
        truth = sample_labelling(200, 2, seed=derive_seed(seed, 81))
        arr = sample_markov_snapshots(truth, near_static, noise, 20, seed=derive_seed(seed, 82))
        labels, _ = enemy_paths(arr)
        accs.append(1 - ham_star(labels, truth)[0] / 200)
    elapsed = time.perf_counter() - start
    assert np.mean(accs) <= 0.6
    assert elapsed < 30.0
    report(8, "enemy baseline fragility", f"mean acc {np.mean(accs):.3f} <= 0.6, {elapsed:.1f}s")


def test_criterion_09_mle_dominance():
    start = time.perf_counter()
    f = FiniteDistribution([0.2, 0.8])
    g = FiniteDistribution([0.8, 0.2])
    kf, kg = CategoricalKernel(f), CategoricalKernel(g)
    h_mle, h_fast, h_spec = [], [], []
    for seed in range(200):
        truth = sample_labelling(10, 2, seed=derive_seed(seed, 91))
        arr = sample_categorical_snapshots(truth, f, g, seed=derive_seed(seed, 92))
        spectral_seed = derive_seed(seed, 93)
        h_mle.append(ham_star(mle_brute_force(arr, 2, kf, kg), truth)[0])
        h_fast.append(
            ham_star(refine_recover(arr, kf, kg, 2, spectral_seed, mode="fast"), truth)[0]
        )
        h_spec.append(ham_star(spectral_cluster(binarize(arr), 2, spectral_seed), truth)[0])
    elapsed = time.perf_counter() - start
    assert np.mean(h_mle) <= np.mean(h_fast)
    assert np.mean(h_mle) <= np.mean(h_spec)
    assert elapsed < 120.0
    report(
        9,
        "exhaustive MLE dominates",
        f"mean ham* mle {np.mean(h_mle):.3f} <= refine {np.mean(h_fast):.3f}, "
        f"spectral {np.mean(h_spec):.3f}, {elapsed:.0f}s",
    )


def test_criterion_10_metric_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(110)
    # pair-counting identity, exact in integers
    for _ in range(1000):
        n = int(rng.integers(3, 50))
        k = int(rng.integers(2, 6))
        a, b = rng.integers(0, k, n), rng.integers(0, k, n)
        assert mirkin(a, b) == round(n * (n - 1) * (1 - rand_index(a, b)))
    # exhaustive search (K <= 8) equals the assignment optimum
    for _ in range(1000):
        k = int(rng.integers(2, 9))
        a, b = rng.integers(0, k, 50), rng.integers(0, k, 50)
        C = confusion_matrix(a, b)
        rows, cols = linear_sum_assignment(C, maximize=True)
        assert ham_star(a, b)[0] == a.size - C[rows, cols].sum()
    # low-corruption alignments are unique, verified exhaustively
    for _ in range(1000):
        k = int(rng.integers(2, 5))
        n = 60
        truth = (np.arange(n) * k) // n
        noisy = truth.copy()
        idx = rng.choice(n, 3, replace=False)
        noisy[idx] = (noisy[idx] + rng.integers(1, k, 3)) % k
        perm = unique_alignment(noisy, truth)
        assert perm is not None
        achieved = ham(perm[noisy], truth)
        dists = [
            ham(np.array(p)[noisy], truth) for p in itertools.permutations(range(k))
        ]
        assert achieved == min(dists)
        assert sum(1 for d in dists if d == achieved) == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(10, "partition metric identities", f"3x1000 checks, {elapsed:.1f}s")


def test_criterion_11_divergence_calculus():
    start = time.perf_counter()
    rng = np.random.default_rng(111)
    for trial in range(10_000):
        size = int(rng.integers(2, 5))
        f = FiniteDistribution(rng.dirichlet(np.ones(size)))
        g = FiniteDistribution(rng.dirichlet(np.ones(size)))
        half = renyi(0.5, f, g)
        # Hellinger identity
        assert abs(half + 2 * math.log(1 - hellinger_sq(f, g))) <= 1e-10
        # second-moment inequalities when the divergence is small
        if half <= 1.0:
            J = j_quantity(f, g)
            assert J <= 14.0 * half + 1e-8
            assert J <= 8.0 * (math.exp(half / 2) - 1.0) + 1e-8
        if trial % 10 == 0:
            alpha = rng.uniform(0.1, 0.9)
            # skew symmetry
            assert abs(
                (1 - alpha) * renyi(alpha, f, g) - alpha * renyi(1 - alpha, g, f)
            ) <= 1e-10
            # additivity over independent products
            f2 = FiniteDistribution(rng.dirichlet(np.ones(3)))
            g2 = FiniteDistribution(rng.dirichlet(np.ones(3)))
            joint = renyi(alpha, f.product(f2), g.product(g2))
            assert abs(joint - renyi(alpha, f, g) - renyi(alpha, f2, g2)) <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(11, "divergence calculus", f"10000 pairs, {elapsed:.1f}s")


def test_criterion_12_path_count_oracle():
    start = time.perf_counter()
    for T in range(1, 13):
        codes = np.arange(2**T)
        paths = (codes[:, None] >> np.arange(T)[None, :]) & 1
        seen = {}
        for row in paths:
            s = path_stats(row)
            key = (s.on_periods, s.ones, s.first, s.last)
            seen[key] = seen.get(key, 0) + 1
        for j in range(0, (T + 1) // 2 + 2):
            for t in range(0, T + 1):
                for a in (0, 1):
                    for b in (0, 1):
                        assert count_paths(j, t, a, b, T) == seen.get((j, t, a, b), 0)
    elapsed = time.perf_counter() - start
    assert elapsed < 20.0
    report(12, "on-period path counts", f"T = 1..12 exhaustive, {elapsed:.1f}s")
