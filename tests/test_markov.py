"""Unit tests for the markov module."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from divergence_reference import bernoulli
from markov_reference import markov_renyi_brute, path_log_prob, t_star_exact, t_star_scalar
from tsbm.divergence import renyi
from tsbm.harness import threshold_grid
from tsbm.markov import (
    BinaryMarkovChain,
    ThresholdConvention,
    _i_tilde_args,
    _itilde_kernels,
    chain_from_stationary,
    count_paths,
    h11_sq,
    high_order_bound,
    i_tilde_long,
    i_tilde_short,
    markov_hellinger_sq,
    markov_j_quantity,
    markov_renyi_exact,
    path_stats,
    sparse_renyi_approx,
    t_star,
    t_star_cells,
)


_UNIT = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
RAW_CHAIN = st.builds(BinaryMarkovChain, _UNIT, _UNIT, _UNIT)


def random_chain(rng, low=0.01, high=0.99):
    return BinaryMarkovChain(*rng.uniform(low, high, 3))


def first_crossing(crossed, lo, hi):
    """Smallest T in (lo, hi] with ``crossed(T)``, by bisection; None when
    ``crossed(hi)`` fails.  Assumes ``crossed`` is monotone on that range."""
    if not crossed(hi):
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if crossed(mid) else (mid, hi)
    return hi


def streaming_moments(alpha, f, g, T):
    """``(log Z_alpha, J)`` by the step-by-step transfer recursion over plain
    floats; all chain parameters strictly inside (0, 1).  J is the second
    moment of the log ratio under the alpha-weights (used at alpha = 1/2)."""
    mu, nu = f.mu.tolist(), g.mu.tolist()
    P, Q = f.transition.tolist(), g.transition.tolist()
    a = [mu[b] ** alpha * nu[b] ** (1 - alpha) for b in range(2)]
    l_init = [math.log(mu[i]) - math.log(nu[i]) for i in range(2)]
    b1 = [a[i] * l_init[i] for i in range(2)]
    c = [a[i] * l_init[i] ** 2 for i in range(2)]
    log_scale = 0.0
    for _ in range(T - 1):
        new_a, new_b, new_c = [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]
        for i in range(2):
            for j in range(2):
                w = P[i][j] ** alpha * Q[i][j] ** (1 - alpha)
                lr = math.log(P[i][j]) - math.log(Q[i][j])
                new_a[j] += a[i] * w
                new_b[j] += (b1[i] + a[i] * lr) * w
                new_c[j] += (c[i] + 2 * b1[i] * lr + a[i] * lr**2) * w
        s = sum(new_a)
        log_scale += math.log(s)
        a, b1, c = [x / s for x in new_a], [x / s for x in new_b], [x / s for x in new_c]
    return log_scale + math.log(sum(a)), sum(c) / sum(a)


interior = st.floats(0.01, 0.99)
unit = st.floats(0.0, 1.0)
edge_or_unit = st.one_of(st.sampled_from([0.0, 1.0]), unit)  # p11 in {0, 1} too


class TestChainConstruction:
    def test_field_validation(self):
        with pytest.raises(ValueError):
            BinaryMarkovChain(1.2, 0.1, 0.1)

    def test_stationary_example(self):
        c = chain_from_stationary(0.05, 0.6)
        assert c.p01 == pytest.approx(0.05 * 0.4 / 0.95, rel=1e-12)

    def test_stationary_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            pi1 = rng.uniform(0.01, 0.95)
            p11 = rng.uniform(0.0, 1.0)
            try:
                c = chain_from_stationary(pi1, p11)
            except ValueError:
                continue
            pi = np.array([1 - pi1, pi1])
            assert np.abs(pi @ c.transition - pi).max() <= 1e-14

    def test_iid_special_case(self):
        c = chain_from_stationary(0.2, 0.2)
        assert c.p01 == pytest.approx(0.2, abs=1e-15)

    def test_edge_case_example(self):
        c = chain_from_stationary(0.5, 0.99)
        assert c.p01 == pytest.approx(0.01, rel=1e-12)

    def test_infeasible_pair(self):
        with pytest.raises(ValueError):
            chain_from_stationary(0.9, 0.0)


class TestExactDivergence:
    def test_single_snapshot_reduces_to_bernoulli(self):
        cf = BinaryMarkovChain(0.3, 0.2, 0.6)
        cg = BinaryMarkovChain(0.1, 0.15, 0.5)
        want = renyi(0.5, bernoulli(0.3), bernoulli(0.1))
        assert markov_renyi_exact(0.5, cf, cg, 1) == pytest.approx(want, abs=1e-13)

    def test_identical_chains_zero(self):
        c = BinaryMarkovChain(0.3, 0.2, 0.6)
        for T in (1, 5, 40):
            assert markov_renyi_exact(0.5, c, c, T) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.5])
    def test_identical_chains_never_negative_zero(self, alpha):
        # log Z of equal chains is often exactly 0, and 0 / (alpha - 1) is
        # -0.0 for alpha < 1: the divergence must still print as 0, not -0
        for c in (BinaryMarkovChain(0.3, 0.2, 0.6), BinaryMarkovChain(0.5, 0.5, 0.5),
                  BinaryMarkovChain(0.0, 0.3, 0.6)):
            for T in (1, 2, 1000):
                got = markov_renyi_exact(alpha, c, c, T)
                assert math.copysign(1.0, got) == 1.0 and got < 1e-9, (c, T, got)

    @pytest.mark.parametrize("divergence", [markov_renyi_exact, markov_renyi_brute])
    def test_nan_order_rejected(self, divergence):
        cf, cg = BinaryMarkovChain(0.3, 0.2, 0.6), BinaryMarkovChain(0.1, 0.15, 0.5)
        with pytest.raises(ValueError, match="order"):
            divergence(math.nan, cf, cg, 4)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            cf, cg = random_chain(rng), random_chain(rng)
            for T in range(2, 13):
                for alpha in (0.3, 0.5, 1.5):
                    exact = markov_renyi_exact(alpha, cf, cg, T)
                    brute = markov_renyi_brute(alpha, cf, cg, T)
                    assert exact == pytest.approx(brute, abs=1e-10)

    def test_boundary_parameters_match_brute(self):
        # degenerate chains: absorbing state, deterministic starts; with every
        # parameter in {0, 1/2, 1} this covers each support pattern, so the
        # infinite results of the alpha > 1 support check are exercised
        cases = [
            (BinaryMarkovChain(1.0, 0.0, 1.0), BinaryMarkovChain(0.3, 0.3, 0.3)),
            (BinaryMarkovChain(0.0, 0.0, 0.0), BinaryMarkovChain(0.2, 0.1, 0.5)),
            (BinaryMarkovChain(0.5, 0.5, 1.0), BinaryMarkovChain(0.5, 0.5, 0.9)),
            (BinaryMarkovChain(0.4, 0.0, 1.0), BinaryMarkovChain(0.4, 0.1, 0.9)),
        ]
        grid = [BinaryMarkovChain(*p) for p in itertools.product((0.0, 0.5, 1.0), repeat=3)]
        cases += list(itertools.product(grid, grid))
        infinite = 0
        for cf, cg in cases:
            for alpha in (0.3, 0.5, 1.5):
                for T in (1, 2, 3, 4, 6):
                    exact = markov_renyi_exact(alpha, cf, cg, T)
                    brute = markov_renyi_brute(alpha, cf, cg, T)
                    if math.isinf(brute):
                        assert math.isinf(exact), (cf, cg, alpha, T)
                        infinite += 1
                    else:
                        assert abs(exact - brute) <= 1e-10, (cf, cg, alpha, T)
        assert infinite > 0

    def test_reducible_chains_at_long_horizons(self):
        # both chains start on and the off state is never visited, yet its
        # weight R00 = 1 dwarfs R11 = 1e-3: scaling R^(T-1) by its largest
        # entry must not drown the one path that carries the sum
        on, flicker = BinaryMarkovChain(1.0, 0.0, 1.0), BinaryMarkovChain(1.0, 0.0, 1e-6)
        T = 3000
        got = markov_renyi_exact(0.5, on, flicker, T)
        assert got == pytest.approx(2 * (T - 1) * math.log(1e3), rel=1e-12)
        got = markov_renyi_exact(1.5, on, flicker, T)
        assert got == pytest.approx(2 * (T - 1) * math.log(1e3), rel=1e-12)
        # a single path, so J is the square of its log ratio
        half = BinaryMarkovChain(1.0, 0.0, 0.5)
        assert markov_j_quantity(on, half, T) == pytest.approx(
            ((T - 1) * math.log(2)) ** 2, rel=1e-12)
        # equal laws on the all-off path; the unvisited on state has R11 > 1
        f, g = BinaryMarkovChain(0.0, 0.0, 0.5), BinaryMarkovChain(0.0, 0.0, 0.2)
        assert markov_renyi_exact(3.0, f, g, 1000) == 0.0

    @settings(max_examples=25, deadline=None)
    @given(f=st.builds(BinaryMarkovChain, interior, interior, interior),
           g=st.builds(BinaryMarkovChain, interior, interior, interior),
           T=st.integers(1, 5000))
    def test_long_horizons_match_streaming_recursion(self, f, g, T):
        # past the brute-force cap: power-by-squaring against one step at a time
        for alpha in (0.3, 0.5, 1.5):
            log_z, _ = streaming_moments(alpha, f, g, T)
            want = max(log_z / (alpha - 1), 0.0)
            assert markov_renyi_exact(alpha, f, g, T) == pytest.approx(want, rel=1e-9, abs=1e-10)
        _, j = streaming_moments(0.5, f, g, T)
        assert markov_j_quantity(f, g, T) == pytest.approx(j, rel=1e-9)

    @pytest.mark.parametrize("T", [0, -3])
    @pytest.mark.parametrize("path_law", [
        lambda f, g, T: markov_renyi_exact(0.5, f, g, T),
        markov_hellinger_sq,
        markov_j_quantity,
    ], ids=["renyi", "hellinger", "j"])
    def test_rejects_empty_horizon(self, path_law, T):
        f, g = BinaryMarkovChain(0.3, 0.2, 0.6), BinaryMarkovChain(0.1, 0.15, 0.5)
        with pytest.raises(ValueError, match=f"^need at least one snapshot, got T={T}$"):
            path_law(f, g, T)

    def test_equal_chains_at_a_huge_horizon(self):
        # log Z of equal chains rounds above 0, by up to T ulps; its exp overflowed
        c = chain_from_stationary(math.log(500) / 500, 0.99)
        assert markov_hellinger_sq(c, c, 10**30) == 0.0

    @pytest.mark.parametrize("T", [0, -3])
    def test_closed_forms_reject_empty_horizon(self, T):
        f, g = BinaryMarkovChain(0.3, 0.2, 0.6), BinaryMarkovChain(0.1, 0.15, 0.5)
        with pytest.raises(ValueError, match=f"^need at least one snapshot, got T={T}$"):
            sparse_renyi_approx(0.5, f, g, T)
        with pytest.raises(ValueError, match=f"^need at least one snapshot, got T={T}$"):
            i_tilde_short(2.0, 1.0, 0.4, 0.3, 0.2, 0.5, T)

    @settings(max_examples=200, deadline=None)
    @given(f=st.builds(BinaryMarkovChain, unit, unit, edge_or_unit),
           g=st.builds(BinaryMarkovChain, unit, unit, edge_or_unit),
           T=st.integers(1, 5000), extra=st.integers(1, 5000))
    def test_monotone_in_horizon(self, f, g, T, extra):
        # any chain pair, stationary or not: the length-T path law is a
        # marginal of the longer one, so t_star's binary lifting may assume
        # it.  The value 1 - Z rounds by about an ulp of 1 per step of log Z,
        # so equal chains may drift that far below 0.
        a = markov_hellinger_sq(f, g, T)
        for later in (T + 1, T + extra):
            assert markov_hellinger_sq(f, g, later) >= a * (1 - 1e-9) - 1e-15 * later

    def test_hellinger_form(self):
        cf = chain_from_stationary(0.04, 0.7)
        cg = chain_from_stationary(0.03, 0.4)
        d = markov_renyi_exact(0.5, cf, cg, 9)
        assert markov_hellinger_sq(cf, cg, 9) == pytest.approx(1 - math.exp(-d / 2), abs=1e-13)

    def test_brute_force_cap(self):
        c = BinaryMarkovChain(0.3, 0.2, 0.6)
        with pytest.raises(ValueError):
            markov_renyi_brute(0.5, c, c, 21)


class TestJQuantityRecursion:
    def test_matches_brute_enumeration(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            cf, cg = random_chain(rng, 0.05, 0.95), random_chain(rng, 0.05, 0.95)
            for T in (1, 2, 6, 10):
                codes = np.arange(2**T)
                paths = (codes[:, None] >> np.arange(T)[None, :]) & 1
                pf = np.exp(path_log_prob(cf, paths))
                pg = np.exp(path_log_prob(cg, paths))
                w = np.sqrt(pf * pg)
                lr = np.log(pf) - np.log(pg)
                want = float(w @ lr**2 / w.sum())
                assert markov_j_quantity(cf, cg, T) == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("f,g,T", [
        ((0.99, 0.99, 0.010000001), (0.99, 0.99, 0.01), 500),  # log P - log Q cancels
        ((0.99, 0.99, 0.010000001), (0.99, 0.99, 0.01), 5000),
        ((0.5, 0.3, 0.7), (0.5, 0.3, 0.7 + 1e-12), 1000),
        ((0.2, 0.1, 0.6), (0.2 + 1e-9, 0.1, 0.6), 50),
        ((0.3, 0.2, 0.6), (0.1, 0.15, 0.5), 200),
        ((0.04, 0.02, 0.7), (0.03, 0.03, 0.4), 1000),
        ((0.01, 0.004, 0.6), (0.004, 0.004, 0.01), 300),
        ((0.9, 0.8, 0.95), (0.1, 0.2, 0.05), 40),
        ((1.0, 0.0, 0.5), (1.0, 0.0, 0.5000001), 100),  # a single all-on path
        ((0.5, 0.5, 1.0), (0.5, 0.5, 0.999999), 200),  # f never leaves state 1
    ])
    def test_matches_high_precision_recursion(self, f, g, T):
        # the moment recursion over every state path, in 40 digits
        mpmath = pytest.importorskip("mpmath")
        cf, cg = BinaryMarkovChain(*f), BinaryMarkovChain(*g)
        with mpmath.workdps(40):
            def weight_and_log(p, q):
                p, q = mpmath.mpf(float(p)), mpmath.mpf(float(q))
                w = mpmath.sqrt(p * q)
                return w, (mpmath.log(p / q) if w else mpmath.mpf(0))

            a, b, c = [], [], []
            for s in range(2):
                w, lr = weight_and_log(cf.mu[s], cg.mu[s])
                a, b, c = a + [w], b + [w * lr], c + [w * lr**2]
            step = [[weight_and_log(cf.transition[i, j], cg.transition[i, j])
                     for j in range(2)] for i in range(2)]
            for _ in range(T - 1):
                a, b, c = (
                    [sum(a[i] * step[i][j][0] for i in range(2)) for j in range(2)],
                    [sum((b[i] + a[i] * step[i][j][1]) * step[i][j][0] for i in range(2))
                     for j in range(2)],
                    [sum((c[i] + 2 * b[i] * step[i][j][1] + a[i] * step[i][j][1] ** 2)
                         * step[i][j][0] for i in range(2)) for j in range(2)],
                )
            want = float(sum(c) / sum(a))
        assert markov_j_quantity(cf, cg, T) == pytest.approx(want, rel=1e-13, abs=0)


class TestSparseApprox:
    def test_identical_chains(self):
        c = BinaryMarkovChain(0.001, 0.0005, 0.4)
        approx = sparse_renyi_approx(0.5, c, c, 8)
        assert approx.value == pytest.approx(0.0, abs=1e-15)

    def test_iid_multiplex_case(self):
        # h11 = 0 and matched transitions: value ~ T * (sqrt(mu)-sqrt(nu))^2
        u, v, rho = 2.0, 1.0, 1e-4
        cf = BinaryMarkovChain(u * rho, u * rho, u * rho)
        cg = BinaryMarkovChain(v * rho, v * rho, v * rho)
        T = 10
        approx = sparse_renyi_approx(0.5, cf, cg, T)
        want = T * (math.sqrt(u * rho) - math.sqrt(v * rho)) ** 2
        assert approx.value == pytest.approx(want, rel=5e-3)

    def test_guarantee_on_grid(self):
        rng = np.random.default_rng(3)
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
                    assert approx.error_radius == pytest.approx(92 * (approx.rho * T) ** 2)
                    assert abs(approx.value - exact) <= approx.error_radius

    def test_general_order_radius(self):
        c1 = BinaryMarkovChain(1e-4, 1e-4, 0.5)
        c2 = BinaryMarkovChain(5e-5, 2e-4, 0.4)
        approx = sparse_renyi_approx(0.3, c1, c2, 10)
        assert approx.error_radius == pytest.approx(46 * (2e-4 * 10) ** 2 / 0.7)
        exact = markov_renyi_exact(0.3, c1, c2, 10)
        assert abs(approx.value - exact) <= approx.error_radius

    def test_persistent_branch(self):
        # fully persistent on-state uses the degenerate branch
        cf = BinaryMarkovChain(1e-4, 5e-5, 1.0)
        cg = BinaryMarkovChain(2e-4, 8e-5, 1.0)
        approx = sparse_renyi_approx(0.5, cf, cg, 10)
        exact = markov_renyi_exact(0.5, cf, cg, 10)
        assert abs(approx.value - exact) <= approx.error_radius

    def test_out_of_regime_flag(self):
        cf = BinaryMarkovChain(0.05, 0.05, 0.5)
        cg = BinaryMarkovChain(0.03, 0.03, 0.5)
        assert not sparse_renyi_approx(0.5, cf, cg, 10).in_regime

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, math.nan])
    def test_order_outside_zero_one_rejected(self, alpha):
        c = BinaryMarkovChain(0.001, 0.001, 0.2)
        with pytest.raises(ValueError, match=r"^sparse closed form covers orders in \(0, 1\)$"):
            sparse_renyi_approx(alpha, c, c, 5)


class TestHighOrderBound:
    def test_dominates_exact(self):
        rng = np.random.default_rng(4)
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

    def test_identical_chains(self):
        c = BinaryMarkovChain(0.001, 0.001, 0.2)
        bound = high_order_bound(1.5, c, c, 5, 1.0, 0.001)
        assert bound >= 0.0
        assert markov_renyi_exact(1.5, c, c, 5) <= bound

    def test_degenerate_pole(self):
        # bound constant grows without limit as Lambda -> 1
        cf1 = BinaryMarkovChain(0.001, 0.001, 0.90)
        cf2 = BinaryMarkovChain(0.001, 0.001, 0.99)
        cg = BinaryMarkovChain(0.001, 0.001, 0.98)
        b1 = high_order_bound(1.5, cf1, cg, 5, 6.0, 0.001)
        b2 = high_order_bound(1.5, cf2, cg, 5, 6.0, 0.001)
        assert b2 > 10 * b1

    def test_inapplicable_when_lambda_reaches_one(self):
        cf = BinaryMarkovChain(0.001, 0.001, 0.99)
        cg = BinaryMarkovChain(0.001, 0.001, 0.5)
        with pytest.raises(ValueError):
            high_order_bound(1.5, cf, cg, 5, 1.5, 0.001)

    def test_ratio_hypothesis_checked(self):
        cf = BinaryMarkovChain(0.01, 0.001, 0.5)
        cg = BinaryMarkovChain(0.001, 0.001, 0.5)
        with pytest.raises(ValueError):
            high_order_bound(1.5, cf, cg, 5, 2.0, 0.001)

    @pytest.mark.parametrize("alpha,M", [(1.5, math.nan), (math.nan, 1.0)])
    def test_nan_order_or_ratio_bound_rejected(self, alpha, M):
        c = BinaryMarkovChain(0.001, 0.001, 0.2)
        with pytest.raises(ValueError):
            high_order_bound(alpha, c, c, 5, M, 0.001)

    @pytest.mark.parametrize("rho", [0.0, -0.1, 0.51, math.nan])
    def test_rho_outside_zero_half_rejected(self, rho):
        c = BinaryMarkovChain(0.001, 0.001, 0.2)
        with pytest.raises(ValueError, match="^need 0 < rho <= 1/2$"):
            high_order_bound(1.5, c, c, 5, 1.0, rho)

    @pytest.mark.parametrize("cg", [BinaryMarkovChain(0.002, 0.001, 0.2),
                                    BinaryMarkovChain(0.001, 0.002, 0.2)])
    def test_inter_on_probabilities_above_rho_rejected(self, cg):
        with pytest.raises(ValueError, match="^inter-chain on-probabilities exceed rho$"):
            high_order_bound(1.5, cg, cg, 5, 1.0, 0.0015)

    @pytest.mark.parametrize("q11", [0.5, 0.0])
    def test_never_persistent_intra_chain_has_lambda_zero(self, q11):
        # p11 = 0 gives Lambda = 0 whatever q11, though 0^a q11^(1-a) is NaN at q11 = 0
        cf = BinaryMarkovChain(0.001, 0.001, 0.0)
        cg = BinaryMarkovChain(0.001, 0.001, q11)
        x = 2.0**4 * 0.001 * 5  # C rho T with C = M^(2a) / (1 - 0)
        assert high_order_bound(2.0, cf, cg, 5, 2.0, 0.001) == pytest.approx(
            5.0 * x * math.exp(5.0 * x), rel=1e-12)

    def test_never_persistent_inter_chain_is_inapplicable(self):
        # q11 = 0 under p11 > 0: Lambda = p11^a q11^(1-a) is infinite for a > 1
        cf = BinaryMarkovChain(0.001, 0.001, 0.5)
        cg = BinaryMarkovChain(0.001, 0.001, 0.0)
        with pytest.raises(ValueError, match="^bound inapplicable: Lambda = inf >= 1$"):
            high_order_bound(1.5, cf, cg, 5, 2.0, 0.001)


class TestThresholdConstants:
    def test_h11_known_value(self):
        want = 1 - math.sqrt(0.3) * math.sqrt(0.7) / (1 - math.sqrt(0.21))
        assert h11_sq(0.7, 0.3) == pytest.approx(want, rel=1e-12)
        assert h11_sq(1.0, 1.0) == 0.0
        assert h11_sq(0.5, 0.5) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("p11,q11", [(-0.1, 0.5), (0.5, 1.1), (math.nan, 0.5)])
    def test_h11_persistences_outside_unit_interval_rejected(self, p11, q11):
        with pytest.raises(ValueError, match=r"^persistence probabilities must lie in \[0, 1\]$"):
            h11_sq(p11, q11)

    def test_short_form_single_snapshot(self):
        got = i_tilde_short(2.0, 1.0, 0.4, 0.3, 0.2, 0.5, 1)
        assert got == pytest.approx((math.sqrt(2) - 1) ** 2, rel=1e-12)

    def test_short_form_multiplex_case(self):
        u, v, T = 2.0, 1.0, 7
        got = i_tilde_short(u, v, u, v, 0.0, 1.0, T)
        assert got == pytest.approx(T * (math.sqrt(u) - math.sqrt(v)) ** 2, rel=1e-12)

    @pytest.mark.parametrize("gamma", [1e-20, 1e-9, 0.37, 1.0])
    def test_short_form_closed_and_direct_sums_agree(self, gamma):
        # the closed-form geometric sum against a literal term-by-term sum,
        # including gammas small enough that 1 - (1 - gamma)^T cancels
        u, v, p01, q01, h11 = 2.0, 1.5, 0.8, 0.5, 0.18
        per = (math.sqrt(p01) - math.sqrt(q01)) ** 2 + 2 * h11 * math.sqrt(p01 * q01)
        coef = 2 * h11 * (gamma * math.sqrt(u * v) - math.sqrt(p01 * q01))
        for T in (1, 2, 4096, 4097, 5000):
            geo = math.fsum((1 - gamma) ** t for t in range(T - 1))
            want = (math.sqrt(u) - math.sqrt(v)) ** 2 + per * (T - 1) + coef * geo
            got = i_tilde_short(u, v, p01, q01, h11, gamma, T)
            assert got == pytest.approx(want, rel=1e-9), T

    @settings(max_examples=200, deadline=None)
    @given(rates=st.tuples(*[st.floats(0.0, 10.0)] * 4), h11=unit,
           gamma=st.floats(1e-12, 1.0), T=st.integers(1, 10**5), extra=st.integers(1, 10**5))
    def test_short_form_monotone_in_horizon(self, rates, h11, gamma, T, extra):
        # each step adds per + tc (1-gamma)^(T-1) >= 2 h11 sqrt(p01 q01) (1 - (1-gamma)^(T-1))
        a = i_tilde_short(*rates, h11, gamma, T)
        for later in (T + 1, T + extra):
            assert i_tilde_short(*rates, h11, gamma, later) >= a * (1 - 1e-9)

    @pytest.mark.parametrize("position", range(5))
    def test_short_form_nan_rate_rejected(self, position):
        # one NaN in any place; min() over NaN depends on where it sits
        rates = [2.0, 1.0, 0.4, 0.3, 0.2]
        rates[position] = math.nan
        with pytest.raises(ValueError, match="non-negative"):
            i_tilde_short(*rates, 0.5, 3)

    @pytest.mark.parametrize("position", range(3))
    def test_long_form_nan_rate_rejected(self, position):
        rates = [0.4, 0.3, 0.2]
        rates[position] = math.nan
        with pytest.raises(ValueError, match="non-negative"):
            i_tilde_long(*rates)

    def test_gamma_zero_rejected(self):
        with pytest.raises(ValueError):
            i_tilde_short(1.0, 1.0, 1.0, 1.0, 0.1, 0.0, 5)

    def test_constants_equal_the_search_kernel_to_the_bit(self):
        # T* under the itilde convention compares the kernel's value with K,
        # so i_tilde_short must give that value itself: for K = its value
        # the kernel does not cross at T, for the next float down it does.
        # Persistences reach 1 - 10^-6, where the transient decays slowly; a
        # copy of the formula in the math module missed on 8 and 2 of these cells
        rng = np.random.default_rng(47)
        for _ in range(2000):
            n = int(rng.choice([100, 500, 1000, 3000]))
            rho = math.log(n) / n
            persistences = 1 - 10.0 ** -rng.uniform(0, 6, 2)
            persistences = np.where(rng.random(2) < 0.1, rng.integers(0, 2, 2), persistences)
            f, g = (chain_from_stationary(mult * rho, p)
                    for mult, p in zip(rng.uniform(0.1, 5, 2), persistences))
            T = int(rng.integers(1, 123_458))
            cells = (f.mu1, f.p01, f.p11, g.mu1, g.p01, g.p11)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # gamma = 1 included, numpy warns of nothing
                args = _i_tilde_args(f, g, rho)
                short, long = i_tilde_short(*args, T), i_tilde_long(*args[2:5])
            for K, crosses in ((short, False), (np.nextafter(short, -math.inf), True)):
                with np.errstate(all="ignore"):  # as the search runs its kernels
                    _, terms, _, step, _ = _itilde_kernels(cells, rho, K)
                    assert step(terms, [], T)[1] == crosses, (cells, n, T)
            assert long == terms[1], (cells, n)

    def test_long_form_link_persistence_model(self):
        # two-block model with persistence xi and assortativity a
        for xi in (0.2, 0.5):
            for a in (0.3, 0.8):
                p01 = (1 - xi) * (1 + a)
                q01 = (1 - xi) * (1 - a)
                want = 2 * (1 - xi) * (1 - math.sqrt((1 - a) * (1 + a)))
                assert i_tilde_long(p01, q01, 0.0) == pytest.approx(want, rel=1e-12)


class TestTStar:
    @pytest.mark.parametrize(
        "mu_mult,want", [(1.5, 13), (2.5, 14), (4.0, 11)]
    )
    def test_reference_map_values(self, mu_mult, want):
        n, k = 500, 2
        rho = math.log(n) / n
        intra = chain_from_stationary(mu_mult * rho, 0.7)
        inter = chain_from_stationary(1.5 * rho, 0.3)
        assert t_star(intra, inter, n, k, ThresholdConvention.EXACT) == want

    @pytest.mark.parametrize("convention", ["exact", "itilde"])
    @pytest.mark.parametrize("N,K", [(math.nan, 2), (500, math.nan)])
    def test_nan_size_rejected(self, convention, N, K):
        intra, inter = chain_from_stationary(0.02, 0.7), chain_from_stationary(0.01, 0.3)
        with pytest.raises(ValueError, match="at least two"):
            t_star(intra, inter, N, K, convention)

    def test_identical_chains_hit_cap(self):
        c = chain_from_stationary(0.02, 0.5)
        assert t_star(c, c, 500, 2, "exact", t_max=4000) is None
        assert t_star(c, c, 500, 2, "itilde", t_max=4000) is None

    @pytest.mark.parametrize("convention", ["exact", "itilde"])
    def test_zero_horizon_is_unbounded(self, convention):
        # crossed at T = 1, but a search capped at t_max = 0 sees no snapshot
        f, g = chain_from_stationary(0.5, 0.5), chain_from_stationary(0.001, 0.5)
        assert t_star(f, g, 500, 2, convention) == 1
        assert t_star(f, g, 500, 2, convention, t_max=0) is None

    def test_lifting_minimality_past_the_scan(self):
        n, k = 500, 2
        rho = math.log(n) / n
        intra = chain_from_stationary(1.5 * rho / 400, 0.7)
        inter = chain_from_stationary(1.5 * rho / 400, 0.3)
        ts = t_star(intra, inter, n, k, "exact")
        assert ts is not None and ts > 1024
        thr = k * rho
        assert markov_hellinger_sq(intra, inter, ts) >= thr
        assert markov_hellinger_sq(intra, inter, ts - 1) < thr

    @pytest.mark.parametrize(
        "convention,ts,mult,t_low",
        [("exact", 4808, 1.5 / 400, 1025), ("itilde", 2374, 1.5 / 400, 1025),
         ("exact", 13, 1.5, 1), ("itilde", 7, 1.5, 1)],
        ids=["exact-4808", "itilde-2374", "exact-13", "itilde-7"],
    )
    def test_t_max_boundary_past_the_scan(self, convention, ts, mult, t_low):
        # the search may stop exactly at t_max, one short of it, or far below
        # T*; it answers T* only when T* <= t_max.  The sparse pair has
        # T* > 1024, the criterion-04 pair a short T* where the galloping turns
        n = 500
        rho = math.log(n) / n
        intra = chain_from_stationary(mult * rho, 0.7)
        inter = chain_from_stationary(mult * rho, 0.3)
        assert t_star(intra, inter, n, 2, convention) == ts
        for t_max, want in ((t_low, None), (ts - 1, None), (ts, ts), (ts + 1, ts)):
            assert t_star(intra, inter, n, 2, convention, t_max) == want, t_max
        # any integral bound type, as before the lifting read t_max's bits
        for t_max in (np.int64(ts), float(ts), np.int64(4000), 1e6):
            assert t_star(intra, inter, n, 2, convention, t_max) == (ts if t_max >= ts else None)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 10**5),
        k=st.integers(2, 5),
        mults=st.tuples(st.floats(0.01, 5.0), st.floats(0.01, 5.0)),
        log_scale=st.floats(-4.0, -2.0),
        persist=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        t_max=st.integers(1025, 10**6),
    )
    def test_lifting_matches_bisection_reference(self, n, k, mults, log_scale, persist, t_max):
        # sparse stationary pairs, whose T* is mostly > 1024; the reference
        # bisects the whole range with every value computed from scratch
        rho = math.log(n) / n
        f, g = (chain_from_stationary(min(m * rho * 10**log_scale, 0.5), p)
                for m, p in zip(mults, persist))
        gamma = 1.0 - math.sqrt(f.p11 * g.p11) or 1e-300
        args = (f.mu1 / rho, g.mu1 / rho, f.p01 / rho, g.p01 / rho,
                h11_sq(f.p11, g.p11), gamma)
        crossed = {
            "exact": lambda T: markov_hellinger_sq(f, g, T) >= k * rho,
            "itilde": lambda T: i_tilde_short(*args, T) > k,
        }
        for convention, test in crossed.items():
            want = first_crossing(test, 0, t_max)
            assert t_star(f, g, n, k, convention, t_max) == want, convention

    def test_itilde_convention(self):
        n, k = 500, 2
        rho = math.log(n) / n
        intra = chain_from_stationary(1.5 * rho, 0.7)
        inter = chain_from_stationary(1.5 * rho, 0.3)
        assert t_star(intra, inter, n, k, "itilde") == 7

    def test_disjoint_initial_laws_cross_at_once(self):
        off, on = BinaryMarkovChain(0.0, 0.5, 0.5), BinaryMarkovChain(1.0, 0.5, 0.5)
        assert t_star(off, on, 500, 2, "exact") == 1
        assert t_star(on, off, 500, 2, "exact") == 1

    def test_orthogonal_supports_short_of_a_threshold_above_one(self):
        # at N = 2 and K = 3 the threshold K log(N) / N = 1.04 exceeds every
        # squared Hellinger distance; the laws of f (alternating) and g
        # (static) are orthogonal from T = 2, and disjoint initial laws from 1
        f, g = BinaryMarkovChain(0.5, 1.0, 0.0), BinaryMarkovChain(0.35, 0.0, 1.0)
        off, on = BinaryMarkovChain(0.0, 0.5, 0.5), BinaryMarkovChain(1.0, 0.5, 0.5)
        assert markov_hellinger_sq(f, g, 2) == 1.0
        assert t_star(f, g, 2, 2, "exact") == 2
        assert t_star(off, on, 2, 2, "exact") == 1
        for t_max in (2, 1000, 10**6):
            assert t_star(f, g, 2, 3, "exact", t_max) is None
            assert t_star(off, on, 2, 3, "exact", t_max) is None

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 10) | st.integers(2, 10**5),  # small N: thresholds near or above 1
        k=st.integers(2, 5),
        mults=st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 5.0)),
        log_scale=st.floats(-4.0, 0.0),
        persist=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        raw=st.none() | st.tuples(RAW_CHAIN, RAW_CHAIN),
        t_max=st.one_of(st.integers(0, 3000), st.just(10**6)),
    )
    def test_float_search_matches_numpy_reference(self, n, k, mults, log_scale, persist, raw,
                                                  t_max):
        # stationary pairs, or raw chains with edge values 0 and 1; the float
        # rungs may differ from numpy's (fused multiply-adds in BLAS) in the
        # last bits, never in T*
        rho = math.log(n) / n
        f, g = raw or (chain_from_stationary(min(max(m * rho * 10**log_scale, 1e-300), 0.5), p)
                       for m, p in zip(mults, persist))
        assert t_star(f, g, n, k, "exact", t_max) == t_star_exact(f, g, n, k, t_max)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 5000),
        k=st.sampled_from([2, 3, 5]),
        mults=st.tuples(st.floats(1e-4, 5.0), st.floats(1e-4, 5.0)),
        persist=st.tuples(*[st.lists(_UNIT, min_size=1, max_size=4)] * 2),
        t_max=st.sampled_from([0, 1, 2, 3, 7, 13, 100, 10**6]),
    )
    def test_grid_and_one_cell_match_scalar_oracle(self, n, k, mults, persist, t_max):
        # every cell of a grid, infeasible (inf) and uncrossed (None, inf) too,
        # and each feasible cell searched alone, equal the per-cell search
        rho = math.log(n) / n
        assume(max(mults) * rho < 1)
        for convention in ("exact", "itilde"):
            grid = threshold_grid(n, k, *mults, *persist, convention, t_max)
            for (i, p11), (j, q11) in itertools.product(*map(enumerate, persist)):
                try:
                    f = chain_from_stationary(mults[0] * rho, p11)
                    g = chain_from_stationary(mults[1] * rho, q11)
                except ValueError:  # implied p01 > 1
                    assert grid[i, j] == math.inf
                    continue
                want = t_star_scalar(f, g, n, k, convention, t_max)
                assert t_star(f, g, n, k, convention, t_max) == want, convention
                assert grid[i, j] == (math.inf if want is None else math.log10(want))

    def test_float_search_matches_numpy_reference_on_edge_chains(self):
        # every chain with mu1, p01, p11 in {0, 1/2, 1}: rungs with a single
        # nonzero entry, rows zeroed, laws orthogonal at once or later
        # 27 x 27 chain pairs, one array search per (n, k, t_max), and each
        # pair searched alone against its cell of that array
        fields = np.array(list(itertools.product((0.0, 0.5, 1.0), repeat=3)))
        chains = [BinaryMarkovChain(*x) for x in fields.tolist()]
        f = tuple(fields[:, None, c] for c in range(3))  # chain i of f down the rows,
        g = tuple(fields[None, :, c] for c in range(3))  # chain j of g across the columns
        for n, k, t_max in itertools.product((2, 500), (2, 3), (3, 10**6)):
            got = t_star_cells(f, g, n, k, "exact", t_max)
            for (i, cf), (j, cg) in itertools.product(enumerate(chains), repeat=2):
                want = int(got[i, j]) or None
                assert want == t_star_exact(cf, cg, n, k, t_max), (cf, cg)
                assert t_star(cf, cg, n, k, "exact", t_max) == want, (cf, cg)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 5000),
        k=st.sampled_from([2, 3, 5]),
        mults=st.tuples(st.floats(1e-4, 5.0), st.floats(1e-4, 5.0)),
        persist=st.tuples(*[st.sampled_from([0.0, 1.0, 1 - 1e-12]) | st.floats(0.0, 1.0)] * 2),
        raw=st.none() | st.tuples(RAW_CHAIN, RAW_CHAIN),
        t_max=st.sampled_from([0, 1, 2, 3, 7, 13, 100, 10**6, 2**62 + 1]),
    )
    def test_one_cell_equals_its_grid_cell(self, n, k, mults, persist, raw, t_max):
        # a cell searched alone takes its grid cell's steps on floats through
        # the same kernels, so it meets the same floats and the same T*
        rho = math.log(n) / n
        try:
            raw = raw or [chain_from_stationary(m * rho, p) for m, p in zip(mults, persist)]
        except ValueError:  # density of 1 or more, or implied p01 > 1
            assume(False)
        f, g = ((c.mu1, c.p01, c.p11) for c in raw)
        for convention in ("exact", "itilde"):
            want = int(t_star_cells(f, g, n, k, convention, t_max)) or None
            assert t_star(*raw, n, k, convention, t_max) == want, convention

    def test_requires_two_blocks(self):
        c = chain_from_stationary(0.02, 0.5)
        with pytest.raises(ValueError, match="^need at least two blocks, got K=1$"):
            t_star(c, c, 100, 1)

    @pytest.mark.parametrize("n", [1, 0, -5])
    @pytest.mark.parametrize("convention", ["exact", "itilde"])
    def test_requires_two_nodes(self, n, convention):
        f, g = chain_from_stationary(0.02, 0.7), chain_from_stationary(0.01, 0.3)
        with pytest.raises(ValueError, match="two nodes"):
            t_star(f, g, n, 2, convention)

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(2, 10**5),
        k=st.integers(2, 5),
        mults=st.tuples(st.floats(0.01, 5.0), st.floats(0.01, 5.0)),
        persist=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        t_max=st.integers(0, 200),
    )
    def test_scan_matches_per_snapshot_reference(self, n, k, mults, persist, t_max):
        # the search carries its state from span to span; the reference
        # evaluates every T from scratch, so both must stop at the same snapshot
        rho = math.log(n) / n
        f = chain_from_stationary(min(mults[0] * rho, 0.5), persist[0])
        g = chain_from_stationary(min(mults[1] * rho, 0.5), persist[1])
        gamma = 1.0 - math.sqrt(f.p11 * g.p11) or 1e-300
        args = (f.mu1 / rho, g.mu1 / rho, f.p01 / rho, g.p01 / rho,
                h11_sq(f.p11, g.p11), gamma)
        exact = next((T for T in range(1, t_max + 1)
                      if markov_hellinger_sq(f, g, T) >= k * rho), None)
        itilde = next((T for T in range(1, t_max + 1)
                       if i_tilde_short(*args, T) > k), None)
        assert t_star(f, g, n, k, "exact", t_max) == exact
        assert t_star(f, g, n, k, "itilde", t_max) == itilde


    def test_search_past_the_scan_matches_bisection_reference(self):
        # with p01 = 0 the per-snapshot term of i_tilde_short vanishes, so T*
        # moves with every term of its geometric sum: a search that dropped
        # or shifted one term would disagree here.  N sweeps T* across
        # 1024, up to T* > 1024 and T* past t_max.
        f = BinaryMarkovChain(3e-3, 0.0, 0.999)
        g = BinaryMarkovChain(1e-3, 0.0, 0.998)
        past = {"exact": 0, "itilde": 0}
        for n in range(27000, 30000, 60):
            rho = math.log(n) / n
            args = (f.mu1 / rho, g.mu1 / rho, 0.0, 0.0, h11_sq(f.p11, g.p11),
                    1.0 - math.sqrt(f.p11 * g.p11))
            want = {
                "itilde": first_crossing(lambda T: i_tilde_short(*args, T) > 2, 0, 10**5),
                "exact": first_crossing(lambda T: markov_hellinger_sq(f, g, T) >= 2 * rho,
                                        0, 10**5),
            }
            for convention, ts in want.items():
                assert t_star(f, g, n, 2, convention, 10**5) == ts, (n, convention)
                past[convention] += ts is None or 1024 < ts
        assert min(past.values()) >= 10


class TestPathCombinatorics:
    def test_path_stats_identities(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            T = int(rng.integers(1, 14))
            x = rng.integers(0, 2, T)
            s = path_stats(x)
            assert s.on_periods == s.first + s.n01
            assert s.on_periods == s.n10 + s.last
            assert s.ones == s.on_periods + s.n11
            assert s.n00 + s.n01 + s.n10 + s.n11 == T - 1

    @pytest.mark.parametrize("path", [[], [0, 2, 1], [[0, 1], [1, 0]]])
    def test_path_stats_rejects_bad_paths(self, path):
        with pytest.raises(ValueError, match="^path must be a non-empty 0/1 sequence$"):
            path_stats(path)

    @pytest.mark.parametrize("args", [(1, 1, 0, 0, 0), (1, 1, 2, 0, 5), (1, 1, 0, -1, 5)])
    def test_count_paths_rejects_bad_length_or_endpoints(self, args):
        with pytest.raises(ValueError, match="^need T >= 1 and binary endpoints$"):
            count_paths(*args)

    @pytest.mark.parametrize("j,t", [(-1, 2), (1, -1), (-2, -2)])
    def test_count_paths_negative_periods_or_ones_count_none(self, j, t):
        assert count_paths(j, t, 0, 0, 5) == 0

    def test_count_zero_period_path(self):
        assert count_paths(0, 0, 0, 0, 7) == 1
        assert count_paths(0, 1, 0, 0, 7) == 0

    def test_single_period_interior(self):
        assert count_paths(1, 2, 0, 0, 5) == 2  # T - t - 1

    def test_exhaustive_enumeration(self):
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

    def test_counts_reconstruct_total_probability(self):
        # summing closed-form counts times the (j, t, a, b) path weight
        # recovers both the total probability and the Hellinger sum
        cf = BinaryMarkovChain(0.32, 0.21, 0.57)
        cg = BinaryMarkovChain(0.11, 0.36, 0.44)
        for T in (3, 7, 12):
            total_p = 0.0
            total_z = 0.0
            mu, P = cf.mu, cf.transition
            r = np.sqrt(cf.mu * cg.mu)
            R = np.sqrt(cf.transition * cg.transition)
            for j in range(0, T // 2 + 2):
                for t in range(0, T + 1):
                    for a in (0, 1):
                        for b in (0, 1):
                            c = count_paths(j, t, a, b, T)
                            if c == 0:
                                continue
                            n00 = T - 1 - (t + j - a - b)
                            total_p += c * (
                                mu[a] * P[0, 0] ** n00 * P[0, 1] ** (j - a)
                                * P[1, 0] ** (j - b) * P[1, 1] ** (t - j)
                            )
                            total_z += c * (
                                r[a] * R[0, 0] ** n00 * R[0, 1] ** (j - a)
                                * R[1, 0] ** (j - b) * R[1, 1] ** (t - j)
                            )
            assert total_p == pytest.approx(1.0, abs=1e-12)
            want_z = math.exp(-markov_renyi_exact(0.5, cf, cg, T) / 2)
            assert total_z == pytest.approx(want_z, abs=1e-12)
