"""Unit tests for the spectral clustering pipeline."""

import math

import numpy as np
import pytest

from tsbm.markov import chain_from_stationary
from tsbm.metrics import accuracy, ham_star
from tsbm.sbm import sample_labelling, sample_markov_snapshots
from tsbm import spectral
from tsbm.spectral import (
    EigenConvergenceError,
    SpectralConfig,
    binarize,
    kmeans,
    leave_one_out_cluster,
    spectral_cluster,
    top_eigenpairs,
    trim_high_degree,
)


def planted_adjacency(n, p, q, seed):
    rng = np.random.default_rng(seed)
    truth = sample_labelling(n, 2, seed=seed)
    u = rng.random((n, n))
    u = np.triu(u, 1)
    u = u + u.T
    same = truth[:, None] == truth[None, :]
    adj = (u < np.where(same, p, q)).astype(np.uint8)
    np.fill_diagonal(adj, 0)
    return truth, adj


class TestBinarize:
    def test_all_zero(self):
        assert binarize(np.zeros((3, 5, 5))).sum() == 0

    def test_any_nonzero_pattern(self):
        data = np.zeros((3, 4, 4), dtype=np.uint8)
        data[1, 0, 1] = data[1, 1, 0] = 1
        adj = binarize(data)
        assert adj[0, 1] == 1 and adj[1, 0] == 1
        assert adj.sum() == 2

    def test_binarized_density_matches_closed_form(self):
        n, T = 300, 12
        intra = chain_from_stationary(0.03, 0.6)
        inter = chain_from_stationary(0.01, 0.3)
        densities = []
        for seed in range(30):
            labels = sample_labelling(n, 2, seed=seed)
            arr = sample_markov_snapshots(labels, intra, inter, T, seed=900 + seed)
            iu, ju = np.triu_indices(n, 1)
            same = labels[iu] == labels[ju]
            densities.append(binarize(arr)[iu, ju][same].mean())
        predicted = 1 - (1 - intra.mu1) * (1 - intra.p01) ** (T - 1)
        m = np.mean(densities)
        se = np.std(densities, ddof=1) / math.sqrt(len(densities))
        assert abs(m - predicted) <= 3 * se + 1e-9


class TestEigensolver:
    def test_residual_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(6, 50))
            a = rng.standard_normal((n, n))
            a = (a + a.T) / 2
            vals, vecs = top_eigenpairs(a, 3, rng=rng)
            norm = np.linalg.norm(a, 2)
            for m in range(3):
                assert np.linalg.norm(a @ vecs[:, m] - vals[m] * vecs[:, m]) <= 1e-6 * norm

    def test_matches_dense_solver_by_magnitude(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(5, 40))
            a = rng.standard_normal((n, n))
            a = (a + a.T) / 2
            vals, _ = top_eigenpairs(a, 3, rng=rng)
            ref = np.linalg.eigvalsh(a)
            ref = ref[np.argsort(-np.abs(ref))][:3]
            assert np.allclose(np.sort(np.abs(vals))[::-1], np.abs(ref), atol=1e-6)

    def test_sign_tie(self):
        # bipartite block: eigenvalues +2 and -2 have equal magnitude
        a = np.zeros((4, 4))
        a[:2, 2:] = 1
        a[2:, :2] = 1
        vals, _ = top_eigenpairs(a, 2, rng=np.random.default_rng(2))
        assert sorted(np.round(vals, 9).tolist()) == [-2.0, 2.0]

    def test_repeated_eigenvalue(self):
        a = np.zeros((40, 40))
        a[:20, :20] = 1
        a[20:, 20:] = 1
        np.fill_diagonal(a, 0)
        vals, vecs = top_eigenpairs(a, 2, rng=np.random.default_rng(3))
        assert np.allclose(vals, [19.0, 19.0], atol=1e-7)
        assert abs(float(vecs[:, 0] @ vecs[:, 1])) < 1e-8

    def test_zero_matrix(self):
        vals, _ = top_eigenpairs(np.zeros((7, 7)), 2)
        assert np.allclose(vals, 0.0)

    def test_dense_fallback_when_k_near_n(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 3, 4):
            a = rng.standard_normal((n, n))
            a = (a + a.T) / 2
            for k in range(max(n - 1, 1), n + 1):
                vals, vecs = top_eigenpairs(a, k, rng=rng)
                ref = np.linalg.eigvalsh(a)
                assert np.allclose(np.abs(vals), np.sort(np.abs(ref))[::-1][:k])
                assert np.allclose(a @ vecs, vecs * vals)

    def test_rng_advances_by_k_start_vectors(self):
        # k-means reads the same rng next, so its stream must not depend on
        # which solver path ran
        a = np.zeros((30, 30))
        a[:15, :15] = 1
        for k, matrix in ((2, a), (3, a), (2, np.zeros((30, 30))), (29, a)):
            rng, ref = np.random.default_rng(6), np.random.default_rng(6)
            top_eigenpairs(matrix, k, rng=rng)
            ref.standard_normal((k, 30))
            assert rng.random() == ref.random()

    def test_no_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(spectral, "_EIG_MAX_ITER", 1)
        a = np.random.default_rng(7).standard_normal((300, 300))
        with pytest.raises(EigenConvergenceError):
            top_eigenpairs(a + a.T, 6)


class TestKMeans:
    def test_separated_clusters(self):
        rng = np.random.default_rng(4)
        x = np.concatenate([rng.normal(0, 0.05, (30, 2)), rng.normal(1, 0.05, (20, 2))])
        labels = kmeans(x, 2, rng=np.random.default_rng(5))
        assert ham_star(labels, np.array([0] * 30 + [1] * 20))[0] == 0

    def test_more_clusters_than_distinct_points(self):
        x = np.zeros((6, 2))
        x[3:] = 1.0
        labels = kmeans(x, 3, rng=np.random.default_rng(6))
        assert labels.shape == (6,)


class TestTrim:
    def test_never_trims_at_reference_densities(self):
        n = 400
        truth, adj = planted_adjacency(n, 10 * math.log(n) / n, math.log(n) / n, 0)
        _, keep = trim_high_degree(adj, 2, 40.0)
        assert keep.sum() >= 0.95 * n

    def test_trims_hub(self):
        adj = np.zeros((50, 50))
        adj[0, 1:] = 1
        adj[1:, 0] = 1
        adj[5, 6] = adj[6, 5] = 1
        trimmed, keep = trim_high_degree(adj, 1, 2.0)
        assert not keep[0]
        assert trimmed[0].sum() == 0


class TestSpectralCluster:
    def test_disjoint_cliques_exact(self):
        a = np.zeros((100, 100), dtype=np.uint8)
        a[:50, :50] = 1
        a[50:, 50:] = 1
        np.fill_diagonal(a, 0)
        truth = np.repeat([0, 1], 50)
        labels = spectral_cluster(a, SpectralConfig(K=2, seed=3))
        assert accuracy(truth, labels) == 1.0

    def test_empty_graph_no_crash(self):
        labels = spectral_cluster(np.zeros((20, 20)), SpectralConfig(K=2, seed=0))
        assert labels.shape == (20,)

    def test_planted_partition_accuracy(self):
        n = 500
        p, q = 10 * math.log(n) / n, math.log(n) / n
        accs = [
            accuracy(*reversed((spectral_cluster(adj, SpectralConfig(K=2, seed=s)), truth)))
            for s, (truth, adj) in (
                (s, planted_adjacency(n, p, q, s)) for s in range(20)
            )
        ]
        assert np.mean(accs) >= 0.95

    def test_node_relabeling_invariance_on_cliques(self):
        a = np.zeros((60, 60), dtype=np.uint8)
        a[:30, :30] = 1
        a[30:, 30:] = 1
        np.fill_diagonal(a, 0)
        truth = np.repeat([0, 1], 30)
        perm = np.random.default_rng(7).permutation(60)
        permuted = a[np.ix_(perm, perm)]
        cfg = SpectralConfig(K=2, seed=11)
        base = spectral_cluster(a, cfg)
        moved = spectral_cluster(permuted, cfg)
        assert ham_star(base, truth)[0] == 0
        assert ham_star(moved, truth[perm])[0] == 0


class TestLeaveOneOut:
    def test_deterministic_per_node(self):
        truth, adj = planted_adjacency(120, 0.4, 0.05, 1)
        cfg = SpectralConfig(K=2, seed=5)
        a = leave_one_out_cluster(adj, 7, cfg)
        b = leave_one_out_cluster(adj, 7, cfg)
        assert np.array_equal(a, b)

    def test_clique_case_exact(self):
        a = np.zeros((30, 30), dtype=np.uint8)
        a[:15, :15] = 1
        a[15:, 15:] = 1
        np.fill_diagonal(a, 0)
        truth = np.repeat([0, 1], 15)
        cfg = SpectralConfig(K=2, seed=2)
        for i in (0, 14, 29):
            partial = leave_one_out_cluster(a, i, cfg)
            rest = truth[np.arange(30) != i]
            assert ham_star(partial, rest)[0] == 0

    def test_cross_run_agreement(self):
        n = 500
        truth, adj = planted_adjacency(n, 10 * math.log(n) / n, math.log(n) / n, 3)
        cfg = SpectralConfig(K=2, seed=9)
        li = leave_one_out_cluster(adj, 3, cfg)
        lj = leave_one_out_cluster(adj, 9, cfg)
        full_i = np.empty(n, dtype=int)
        full_i[np.arange(n) != 3] = li
        full_j = np.empty(n, dtype=int)
        full_j[np.arange(n) != 9] = lj
        common = np.ones(n, dtype=bool)
        common[[3, 9]] = False
        d, _ = ham_star(full_i[common], full_j[common])
        assert 1 - d / common.sum() >= 0.9

    def test_needs_three_nodes(self):
        with pytest.raises(ValueError):
            leave_one_out_cluster(np.zeros((2, 2)), 0, SpectralConfig(K=1))
