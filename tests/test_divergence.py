"""Unit tests for the divergence module."""

import math

import numpy as np
import pytest

from divergence_reference import (bernoulli, geometric_mixture, kl, llr_moments, point_mass,
                                  v_kl)
from markov_reference import path_log_prob
from tsbm.divergence import (
    BoundInputs,
    FiniteDistribution,
    hellinger_sq,
    i21_term,
    j_quantity,
    kappa_correction,
    lower_bound_error_rate,
    renyi,
    upper_bound_error_rate,
    upper_bound_terms,
)
from tsbm.harness import divergence_report
from tsbm.markov import BinaryMarkovChain, sparse_renyi_approx

B = bernoulli


def iid_chain(p):
    # snapshots are i.i.d. Ber(p), so a one-snapshot path law is B(p)
    return BinaryMarkovChain(mu1=p, p01=p, p11=p)


def random_pair(rng, size=None):
    n = size or int(rng.integers(2, 7))
    return (
        FiniteDistribution(rng.dirichlet(np.ones(n))),
        FiniteDistribution(rng.dirichlet(np.ones(n))),
    )


class TestFiniteDistribution:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            FiniteDistribution([0.5, -0.1, 0.6])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            FiniteDistribution([0.5, 0.4])

    @pytest.mark.parametrize("probs", [[math.nan, 0.5], [0.5, 0.5, math.nan], [math.nan]])
    def test_rejects_nan(self, probs):
        with pytest.raises(ValueError):
            FiniteDistribution(probs)

    def test_renormalizes_inside_tolerance(self):
        f = FiniteDistribution([0.5, 0.5 + 5e-13])
        assert f.probs.sum() == 1.0

    @pytest.mark.parametrize("probs", [[], [[0.5, 0.5]]])
    def test_rejects_empty_or_two_dimensional(self, probs):
        with pytest.raises(ValueError,
                           match="^distribution needs a 1-d vector with at least one entry$"):
            FiniteDistribution(probs)

    def test_repr_lists_the_probabilities(self):
        assert repr(FiniteDistribution([0.25, 0.75])) == "FiniteDistribution([0.25, 0.75])"

    def test_point_mass_and_product(self):
        f = point_mass(1, 3)
        assert f.probs[1] == 1.0
        fg = B(0.3).product(B(0.6))
        assert len(fg) == 4
        assert abs(fg.probs.sum() - 1.0) < 1e-15


class TestRenyi:
    def test_identical_is_zero(self):
        assert renyi(0.5, B(0.3), B(0.3)) == 0.0

    def test_orthogonal_is_infinite(self):
        assert renyi(0.5, B(1.0), B(0.0)) == math.inf

    def test_half_order_value(self):
        # -2 log(sqrt(0.05) + sqrt(0.45)), evaluated independently
        assert renyi(0.5, B(0.5), B(0.1)) == pytest.approx(0.2231435513, abs=1e-9)

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            renyi(0.5, B(0.5), FiniteDistribution([1 / 3] * 3))

    def test_nan_order_rejected(self):
        with pytest.raises(ValueError, match="order"):
            renyi(math.nan, B(0.5), B(0.1))

    def test_order_one_rejected(self):
        with pytest.raises(ValueError):
            renyi(1.0, B(0.5), B(0.2))

    def test_high_order_zero_denominator(self):
        f = FiniteDistribution([0.5, 0.5, 0.0])
        g = FiniteDistribution([1.0, 0.0, 0.0])
        assert renyi(1.5, f, g) == math.inf
        assert renyi(0.5, f, g) < math.inf

    def test_hellinger_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            f, g = random_pair(rng)
            lhs = renyi(0.5, f, g)
            rhs = -2.0 * math.log(1.0 - hellinger_sq(f, g))
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_skew_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            f, g = random_pair(rng)
            a = rng.uniform(0.05, 0.95)
            lhs = (1 - a) * renyi(a, f, g)
            rhs = a * renyi(1 - a, g, f)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_symmetric_pair(self):
        # f = Ber(p), g = Ber(1-p): one-sided divergences agree by symmetry
        f, g = B(0.3), B(0.7)
        assert renyi(0.5, f, g) == pytest.approx(renyi(0.5, g, f), abs=1e-14)

    def test_monotone_in_order(self):
        rng = np.random.default_rng(2)
        grid = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.5]
        for _ in range(100):
            f, g = random_pair(rng)
            values = [renyi(a, f, g) for a in grid]
            assert all(x <= y + 1e-12 for x, y in zip(values, values[1:]))

    def test_product_additivity(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            f1, g1 = random_pair(rng)
            f2, g2 = random_pair(rng)
            a = rng.uniform(0.05, 0.95)
            lhs = renyi(a, f1.product(f2), g1.product(g2))
            rhs = renyi(a, f1, g1) + renyi(a, f2, g2)
            assert lhs == pytest.approx(rhs, abs=1e-10)


class TestHellinger:
    def test_extremes(self):
        assert hellinger_sq(B(0.4), B(0.4)) == 0.0
        assert hellinger_sq(B(1.0), B(0.0)) == pytest.approx(1.0)

    def test_known_value(self):
        want = 1.0 - math.exp(-0.2231435513 / 2)
        assert hellinger_sq(B(0.5), B(0.1)) == pytest.approx(want, abs=1e-9)


class TestKL:
    def test_identical(self):
        assert kl(B(0.4), B(0.4)) == 0.0
        assert v_kl(B(0.4), B(0.4)) == 0.0

    def test_known_values(self):
        want = 0.5 * math.log(2) + 0.5 * math.log(2 / 3)
        assert kl(B(0.5), B(0.25)) == pytest.approx(want, abs=1e-12)
        assert kl(B(1.0), B(0.5)) == pytest.approx(math.log(2), abs=1e-12)

    def test_support_violation(self):
        assert kl(B(0.5), B(0.0)) == math.inf
        with pytest.raises(ValueError):
            v_kl(B(0.5), B(0.0))

    def test_v_kl_matches_direct(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            f, g = random_pair(rng)
            logr = np.log(f.probs) - np.log(g.probs)
            direct = float(f.probs @ logr**2) - float(f.probs @ logr) ** 2
            assert v_kl(f, g) == pytest.approx(direct, abs=1e-12)


class TestBetaRatio:
    # the beta ratio of order 1/2 is computed per chain pair by
    # divergence_report; checked here on one-snapshot (Bernoulli) path laws

    def test_zero_denominator(self):
        report = divergence_report(iid_chain(0.3), iid_chain(0.3), 500, 2, 1, t_max=50)
        assert report.exact == 0.0
        assert report.beta_half == math.inf

    def test_cross_checked_value(self):
        f, g = B(0.5), B(0.1)
        num = 0.5 * (renyi(1.5, f, g) + renyi(1.5, g, f))
        den = 0.5 * (renyi(0.5, f, g) + renyi(0.5, g, f))
        report = divergence_report(iid_chain(0.5), iid_chain(0.1), 500, 2, 1, t_max=50)
        assert report.beta_half == pytest.approx(num / den, rel=1e-12)

    def test_infinite_numerator(self):
        # g never stays on, so the path 11 leaves the support of g's law
        f = BinaryMarkovChain(mu1=0.5, p01=0.5, p11=0.5)
        g = BinaryMarkovChain(mu1=0.5, p01=1.0, p11=0.0)
        report = divergence_report(f, g, 500, 2, 2, t_max=50)
        assert 0.0 < report.exact < math.inf
        assert report.beta_half == math.inf


class TestJQuantity:
    def test_identical_zero(self):
        assert j_quantity(B(0.3), B(0.3)) == 0.0

    def test_second_moment_bounds_bernoulli(self):
        I = renyi(0.5, B(0.5), B(0.1))
        J = j_quantity(B(0.5), B(0.1))
        assert I <= 1.0
        assert J <= 14.0 * I

    def test_exponential_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            f, g = random_pair(rng)
            I = renyi(0.5, f, g)
            assert j_quantity(f, g) <= 8.0 * (math.exp(I / 2) - 1.0) + 1e-8

    def test_orthogonal_raises(self):
        with pytest.raises(ValueError):
            j_quantity(B(1.0), B(0.0))


class TestZeroInflated:
    # the zero-inflated order-1/2 divergence is the leading term that
    # sparse_renyi_approx sums over snapshots

    def test_degenerate(self):
        got = sparse_renyi_approx(0.5, iid_chain(0.01), iid_chain(0.01), 1).value
        assert got == pytest.approx(0.0, abs=1e-15)

    def test_binary_reduction(self):
        p, q = 0.004, 0.001
        got = sparse_renyi_approx(0.5, iid_chain(p), iid_chain(q), 1).value
        assert got == pytest.approx((math.sqrt(p) - math.sqrt(q)) ** 2, rel=1e-12)

    def test_against_exact_on_categoricals(self):
        # the path law over T snapshots is a categorical on 2^T paths
        rng = np.random.default_rng(6)
        for _ in range(400):
            T = int(rng.integers(1, 5))
            rho = 10 ** rng.uniform(-4, -2)
            cf, cg = (
                BinaryMarkovChain(*rng.uniform(0.2, 1.0, 2) * rho, rng.uniform(0, 0.95))
                for _ in range(2)
            )
            paths = (np.arange(2**T)[:, None] >> np.arange(T)) & 1
            f = FiniteDistribution(np.exp(path_log_prob(cf, paths)))
            g = FiniteDistribution(np.exp(path_log_prob(cg, paths)))
            approx = sparse_renyi_approx(0.5, cf, cg, T)
            assert abs(renyi(0.5, f, g) - approx.value) <= approx.error_radius


class TestBounds:
    def test_inputs_validated(self):
        with pytest.raises(ValueError):
            BoundInputs(N=0, K=2, I=0.0, J=0.0)
        with pytest.raises(ValueError):
            BoundInputs(N=10, K=2, I=0.0, J=0.0, eps=0.05, zeta=0.01)
        with pytest.raises(ValueError):
            BoundInputs(N=10, K=2, I=0.0, J=0.0, eps=0.0, zeta=0.2)

    @pytest.mark.parametrize("I,J", [(math.nan, 0.0), (0.0, math.nan)])
    def test_nan_divergence_rejected(self, I, J):
        with pytest.raises(ValueError):
            BoundInputs(N=10, K=2, I=I, J=J)

    def test_lower_bound_at_zero_divergence(self):
        got = lower_bound_error_rate(BoundInputs(N=1000, K=2, I=0.0, J=0.0))
        assert got == pytest.approx(1 / 672 - math.exp(-62.5) / 6, rel=1e-12)

    def test_lower_bound_vacuous_at_large_divergence(self):
        assert lower_bound_error_rate(BoundInputs(N=1000, K=2, I=50.0, J=0.0)) == 0.0

    def test_lower_bound_monotone_in_divergence(self):
        values = [
            lower_bound_error_rate(BoundInputs(N=1000, K=2, I=i, J=0.001))
            for i in np.linspace(0.0, 0.005, 40)
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_i21_conventions_differ_beyond_two_blocks(self):
        assert i21_term(0.5, 0.1, 2, "quadratic") == i21_term(0.5, 0.1, 2, "linear")
        assert i21_term(0.5, 0.1, 3, "quadratic") != i21_term(0.5, 0.1, 3, "linear")

    def test_i21_unknown_convention_rejected(self):
        with pytest.raises(ValueError, match="^unknown convention 'cubic'$"):
            i21_term(0.5, 0.1, 2, "cubic")

    def test_lower_bound_needs_two_blocks(self):
        with pytest.raises(ValueError, match="^lower bound needs at least two blocks$"):
            lower_bound_error_rate(BoundInputs(N=500, K=1, I=0.01, J=0.0))

    def test_upper_bound_vacuous_at_zero(self):
        inputs = BoundInputs(N=500, K=2, I=0.0, J=0.0, eps=0.01, zeta=0.01)
        assert upper_bound_error_rate(inputs) >= 1.0

    def test_upper_bound_terms_sum(self):
        inputs = BoundInputs(
            N=500, K=2, I=4 * math.log(500) / 500, J=0.0, eps=0.01, zeta=0.01
        )
        t1, t2, t3 = upper_bound_terms(inputs)
        assert upper_bound_error_rate(inputs) == pytest.approx(t1 + t2 + t3, rel=1e-12)
        kappa = kappa_correction(500, 2, inputs.I)
        want_t1 = 8 * math.e * math.exp(-(1 - 0.01 - kappa) * 250 * inputs.I)
        assert t1 == pytest.approx(want_t1, rel=1e-12)
        assert t2 == pytest.approx(2.0**500, rel=1e-9)
        assert t3 == pytest.approx(4 * math.exp(-0.01**2 * 250 / 3), rel=1e-12)

    def test_upper_bound_needs_two_blocks(self):
        inputs = BoundInputs(N=500, K=1, I=0.01, J=0.0)
        with pytest.raises(ValueError):
            upper_bound_terms(inputs)
        with pytest.raises(ValueError):
            upper_bound_error_rate(inputs)

    def test_upper_bound_monotone_in_divergence(self):
        values = [
            upper_bound_error_rate(BoundInputs(N=500, K=2, I=i, J=0.0, eps=0.02, zeta=0.04))
            for i in np.linspace(0.05, 0.6, 40)
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestLLRMoments:
    def _homogeneous_setup(self, K, f, g):
        h = geometric_mixture(f, g, 0.5)
        refs = [h, h] + [g] * (K - 2)
        kernel = [[f if k == l else g for l in range(K)] for k in range(K)]
        return kernel, refs

    def test_matches_closed_form(self):
        f, g = B(0.6), B(0.2)
        for K in (2, 3, 5):
            kernel, refs = self._homogeneous_setup(K, f, g)
            general = llr_moments(np.full(K, 1 / K), kernel, refs, subset=[0, 1])
            I = renyi(0.5, f, g)
            closed = (I / K, i21_term(I, j_quantity(f, g), K), 0.0)
            assert general == pytest.approx(closed, abs=1e-12)

    def test_i22_vanishes_for_uniform_homogeneous(self):
        f, g = B(0.7), B(0.3)
        kernel, refs = self._homogeneous_setup(4, f, g)
        _, _, i22 = llr_moments(np.full(4, 0.25), kernel, refs, subset=[0, 1])
        assert i22 == pytest.approx(0.0, abs=1e-14)

    def test_identical_kernels_zero_mean(self):
        g = B(0.3)
        kernel = [[g, g], [g, g]]
        i1, _, _ = llr_moments([0.5, 0.5], kernel, [g, g])
        assert i1 == 0.0

    def test_general_instance_against_direct_sum(self):
        # non-homogeneous two-block instance, brute-force summation oracle
        rng = np.random.default_rng(7)
        kernel = [[None] * 2 for _ in range(2)]
        for k in range(2):
            for l in range(k, 2):
                d = FiniteDistribution(rng.dirichlet(np.ones(4)))
                kernel[k][l] = kernel[l][k] = d
        refs = [FiniteDistribution(rng.dirichlet(np.ones(4))) for _ in range(2)]
        alpha = np.array([0.4, 0.6])
        i1, i21, i22 = llr_moments(alpha, kernel, refs)

        a_star = alpha / alpha.sum()
        d = [[kl(refs[l], kernel[k][l]) for l in range(2)] for k in range(2)]
        v = [[v_kl(refs[l], kernel[k][l]) for l in range(2)] for k in range(2)]
        want_i1 = sum(a_star[k] * alpha[l] * d[k][l] for k in range(2) for l in range(2))
        A = [sum(alpha[l] * d[k][l] for l in range(2)) for k in range(2)]
        Bk = [
            sum(alpha[l] * d[k][l] ** 2 for l in range(2)) - A[k] ** 2 for k in range(2)
        ]
        want_i21 = sum(
            a_star[k] * alpha[l] * v[k][l] for k in range(2) for l in range(2)
        ) + sum(a_star[k] * Bk[k] for k in range(2))
        want_i22 = sum(a_star[k] * A[k] ** 2 for k in range(2)) - want_i1**2
        assert i1 == pytest.approx(want_i1, abs=1e-12)
        assert i21 == pytest.approx(want_i21, abs=1e-12)
        assert i22 == pytest.approx(want_i22, abs=1e-12)
