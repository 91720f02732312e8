"""Unit tests for the spectral clustering pipeline."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tsbm import harness
from tsbm.markov import chain_from_stationary
from tsbm.metrics import accuracy, ham_star
from tsbm.sbm import SnapshotArray, sample_labelling, sample_markov_snapshots
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


@st.composite
def _zero_one_graphs(draw):
    """Symmetric 0/1 matrices without self-loops; some have hub nodes
    joined to every other node, so that trimming fires."""
    n = draw(st.integers(3, 40))
    upper = np.triu(draw(arrays(np.bool_, (n, n))), 1)
    adj = upper | upper.T
    for hub in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        adj[hub, :] = adj[:, hub] = True
        adj[hub, hub] = False
    return adj


class TestBinarize:
    def test_all_zero(self):
        assert binarize(SnapshotArray.from_dense(np.zeros((3, 5, 5), dtype=np.uint8))).sum() == 0

    def test_any_nonzero_pattern(self):
        data = np.zeros((3, 4, 4), dtype=np.uint8)
        data[1, 0, 1] = data[1, 1, 0] = 1
        adj = binarize(SnapshotArray.from_dense(data))
        assert adj[0, 1] == 1 and adj[1, 0] == 1
        assert adj.sum() == 2
        assert binarize(SnapshotArray.from_dense(data), t=0).sum() == 0

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

    def test_repeat_calls_agree_when_lanczos_breaks_down(self):
        # a star has three distinct eigenvalues, so ARPACK's Lanczos basis
        # breaks down and it asks for fresh random vectors, which must not
        # come from OS entropy
        a = np.zeros((40, 40), dtype=np.uint8)
        a[0, 1:] = a[1:, 0] = 1
        runs = [top_eigenpairs(a, 3, rng=np.random.default_rng(8)) for _ in range(3)]
        for vals, vecs in runs[1:]:
            assert vals.tobytes() == runs[0][0].tobytes()
            assert vecs.tobytes() == runs[0][1].tobytes()

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

    @pytest.mark.parametrize("dtype", [np.int8, np.int64, np.float32, np.float64])
    def test_signed_weights_count_by_magnitude(self, dtype):
        adj = np.zeros((50, 50), dtype=dtype)
        adj[0, 1:] = adj[1:, 0] = -1
        adj[5, 6] = adj[6, 5] = 1
        trimmed, keep = trim_high_degree(adj, 1, 2.0)
        assert keep.tolist() == [False] + [True] * 49
        assert trimmed.dtype == dtype and not trimmed[0].any() and trimmed[5, 6] == 1


class TestInputDtype:
    @settings(max_examples=150, deadline=None)
    @given(graph=_zero_one_graphs(), K=st.integers(1, 3),
           trim_factor=st.sampled_from([0.5, 1.0, 2.0, 40.0]), seed=st.integers(0, 2**32 - 1))
    def test_results_do_not_depend_on_input_dtype(self, graph, K, trim_factor, seed):
        results = []
        for dtype in (np.uint8, np.bool_, np.int64, np.float64):
            adj = graph.astype(dtype)
            trimmed, keep = trim_high_degree(adj, K, trim_factor)
            assert trimmed.dtype == dtype
            vals, vecs = top_eigenpairs(trimmed, K, rng=np.random.default_rng(seed))
            labels = spectral_cluster(adj, SpectralConfig(K=K, trim_factor=trim_factor,
                                                          seed=seed))
            results.append((keep, vals, vecs, labels))
        for got in results[1:]:
            for want, have in zip(results[0], got):
                assert want.dtype == have.dtype and want.tobytes() == have.tobytes()

    def test_snapshot_clustering_peaks_below_one_byte_per_pair(self):
        # only the CSR values become float64: a dense float64 copy alone
        # would take 8 N^2 bytes
        n = 3000
        intra, inter = harness.chains_in_units(n, 3.0, 1.5, 0.7, 0.3)
        arr = sample_markov_snapshots(sample_labelling(n, 2, seed=1), intra, inter, 1, seed=2)
        adj = binarize(arr, t=0)
        tracemalloc.start()
        try:
            labels = spectral_cluster(adj, SpectralConfig(K=2, seed=0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert labels.shape == (n,)
        assert peak < n * n


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

    def test_more_clusters_than_nodes_rejected(self):
        with pytest.raises(ValueError, match="need 1 <= K <= N"):
            spectral_cluster(np.zeros((3, 3), dtype=np.uint8), SpectralConfig(K=4))

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

    def test_more_clusters_than_minor_nodes_rejected(self):
        with pytest.raises(ValueError, match="need 1 <= K <= N"):
            leave_one_out_cluster(np.zeros((3, 3)), 0, SpectralConfig(K=3))
