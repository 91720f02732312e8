"""Unit tests for partition metrics and alignment."""

import itertools

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from tsbm.metrics import (
    accuracy,
    confusion_matrix,
    ham,
    ham_star,
    mirkin,
    rand_index,
    unique_alignment,
)


class TestLabellings:
    @pytest.mark.parametrize("s1,s2", [([[0, 1]], [0, 1]), ([0, 1], 1)])
    def test_rejects_labellings_not_one_dimensional(self, s1, s2):
        with pytest.raises(ValueError, match="^labelling must be one-dimensional$"):
            ham(s1, s2)

    @pytest.mark.parametrize("s1,s2", [([0, -1], [0, 1]), ([0, 1], [-3, 1])])
    def test_rejects_negative_labels(self, s1, s2):
        with pytest.raises(ValueError, match="^labels must be non-negative$"):
            ham(s1, s2)


class TestHam:
    def test_counts_disagreements(self):
        assert ham([0, 1, 1, 0], [0, 1, 0, 0]) == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ham([0, 1], [0, 1, 1])


class TestHamStar:
    def test_worked_example(self):
        d, _ = ham_star([0, 0, 1, 1], [0, 1, 1, 1])
        assert d == 1

    def test_permuted_labelling_is_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            K = int(rng.integers(2, 6))
            s = rng.integers(0, K, 60)
            perm = rng.permutation(K)
            d, found = ham_star(perm[s], s)
            assert d == 0
            assert ham(found[perm[s]], s) == 0

    def test_never_exceeds_plain_ham(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a = rng.integers(0, 4, 30)
            b = rng.integers(0, 4, 30)
            assert ham_star(a, b)[0] <= ham(a, b)

    def test_returned_permutation_achieves_distance(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a = rng.integers(0, 5, 40)
            b = rng.integers(0, 5, 40)
            d, perm = ham_star(a, b)
            assert ham(perm[a], b) == d

    def test_assignment_equals_exhaustive(self):
        # K up to 8 takes the permutation scan, K = 9 the assignment
        rng = np.random.default_rng(3)
        for K in [int(k) for k in rng.integers(2, 9, 300)] + [9] * 5:
            a = rng.integers(0, K, 50)
            b = rng.integers(0, K, 50)
            C = confusion_matrix(a, b)
            rows, cols = linear_sum_assignment(C, maximize=True)
            d, perm = ham_star(a, b)
            assert d == a.size - C[rows, cols].sum()
            assert ham(perm[a], b) == d

    def test_double_relabeling_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            K = int(rng.integers(2, 6))
            a = rng.integers(0, K, 40)
            b = rng.integers(0, K, 40)
            p1, p2 = rng.permutation(K), rng.permutation(K)
            assert ham_star(a, b)[0] == ham_star(p1[a], p2[b])[0]

    def test_pseudometric_properties(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            K = int(rng.integers(2, 5))
            a, b, c = (rng.integers(0, K, 30) for _ in range(3))
            dab, dba = ham_star(a, b)[0], ham_star(b, a)[0]
            assert dab == dba
            assert ham_star(a, c)[0] <= dab + ham_star(b, c)[0]


class TestMirkinRand:
    def test_identical(self):
        s = np.array([0, 1, 0, 2])
        assert mirkin(s, s) == 0
        assert rand_index(s, s) == 1.0

    def test_worked_example(self):
        assert mirkin([0, 0, 1], [0, 1, 1]) == 4

    @pytest.mark.parametrize("s", [[], [3]])
    def test_rand_index_of_fewer_than_two_nodes_is_one(self, s):
        # no pair to disagree on
        assert rand_index(s, s) == 1.0

    def test_rand_identity(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            N = int(rng.integers(3, 60))
            K = int(rng.integers(2, 6))
            a = rng.integers(0, K, N)
            b = rng.integers(0, K, N)
            assert mirkin(a, b) == round(N * (N - 1) * (1 - rand_index(a, b)))

    def test_matches_pair_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            N = int(rng.integers(3, 25))
            a = rng.integers(0, 3, N)
            b = rng.integers(0, 3, N)
            direct = 0
            for i, j in itertools.combinations(range(N), 2):
                direct += int((a[i] == a[j]) != (b[i] == b[j]))
            assert mirkin(a, b) == 2 * direct

    def test_pair_set_edge_bound(self):
        # |E(s1) \ E(s2)| >= max(Nmin - d, Nmin/3 - Nmax/6) * d with d = ham*
        rng = np.random.default_rng(8)
        for _ in range(200):
            K = int(rng.integers(2, 4))
            N = int(rng.integers(3 * K, 60))
            a = (np.arange(N) * K) // N
            b = a.copy()
            flips = rng.integers(0, max(N // 6, 1))
            idx = rng.choice(N, flips, replace=False) if flips else []
            b[idx] = rng.integers(0, K, len(idx))
            d = ham_star(a, b)[0]
            C = confusion_matrix(a, b)
            n1 = C.sum(axis=1)
            e1_minus_e2 = int((n1 * (n1 - 1) // 2).sum() - (C * (C - 1) // 2).sum())
            nmin = int(n1.min())
            nmax = int(C.sum(axis=0).max())
            lower = max(nmin - d, nmin / 3 - nmax / 6) * d
            assert e1_minus_e2 >= lower - 1e-9


class TestUniqueAlignment:
    def test_identity_case(self):
        s = np.array([0, 1, 1, 0, 2, 2])
        perm = unique_alignment(s, s)
        assert np.array_equal(perm, np.arange(3))

    def test_small_corruption_recovered_and_unique(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            truth = np.repeat([0, 1], 50)
            noisy = truth.copy()
            idx = rng.choice(100, 5, replace=False)
            noisy[idx] = 1 - noisy[idx]
            shuffle = rng.permutation(2)
            s1 = shuffle[noisy]
            perm = unique_alignment(s1, truth)
            assert perm is not None
            d = ham(perm[s1], truth)
            # exhaustive check: unique minimiser below half block size
            dists = [ham(np.array(p)[s1], truth) for p in itertools.permutations(range(2))]
            assert d == min(dists)
            assert sum(1 for x in dists if x == d) == 1

    def test_adversarial_mixing_returns_none(self):
        s1 = np.repeat([0, 1], 50)
        s2 = np.tile([0, 1], 50)
        assert unique_alignment(s1, s2) is None

    def test_distinct_argmax_too_far_returns_none(self):
        # the row maxima pick distinct blocks, but 2 disagreements are not
        # below half the smallest block (3)
        assert unique_alignment([0, 0, 0, 1, 1, 1], [0, 0, 1, 1, 1, 0]) is None


class TestAccuracy:
    def test_perfect(self):
        assert accuracy([0, 1, 0], [1, 0, 1]) == 1.0

    def test_random_guess_baseline(self):
        rng = np.random.default_rng(10)
        truth = rng.integers(0, 2, 10_000)
        guess = rng.integers(0, 2, 10_000)
        assert 0.5 <= accuracy(truth, guess) <= 0.52

    def test_length_checked_before_empty_truth(self):
        assert accuracy([], []) == 1.0
        with pytest.raises(ValueError, match="length mismatch"):
            accuracy([], [0, 1, 0])
        with pytest.raises(ValueError, match="length mismatch"):
            accuracy([0, 1], [0, 1, 0])
