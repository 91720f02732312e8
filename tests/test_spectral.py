"""Unit tests for the spectral clustering pipeline."""

import hashlib
import math
import pickle
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.sparse import csr_array, csr_matrix

import dense_reference as dense_ref
import spectral_reference as spectral_ref
from dense_reference import from_dense
from test_recovery import _pattern_arrays
from test_sbm import _scale_sample
from test_tracer_wraps import _tracing
from tsbm import harness
from tsbm._rng import derive_seed
from tsbm.markov import chain_from_stationary
from tsbm.metrics import accuracy, ham_star
from tsbm.sbm import SnapshotArray, sample_labelling, sample_markov_snapshots
from tsbm import spectral
from tsbm.spectral import (
    EigenConvergenceError,
    Graph,
    SquaredOperator,
    aggregate,
    binarize,
    kmeans,
    leave_one_out_cluster,
    spectral_cluster,
    squared,
    top_eigenpairs,
    trim_high_degree,
)


def _graph(x):
    """A dense matrix as the spectral functions take it: scipy's float64 CSR
    form, a ``Graph``."""
    return Graph(x, dtype=np.float64)


def planted_adjacency(n, p, q, seed):
    rng = np.random.default_rng(seed)
    truth = sample_labelling(n, 2, seed=seed)
    u = rng.random((n, n))
    u = np.triu(u, 1)
    u = u + u.T
    same = truth[:, None] == truth[None, :]
    adj = (u < np.where(same, p, q)).astype(np.uint8)
    np.fill_diagonal(adj, 0)
    return truth, _graph(adj)


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


@st.composite
def _embeddings(draw):
    """Point sets of 1 to 10 columns, drawn from a pool of at most as many
    distinct points as rows: they often hold duplicates, and k-means given
    more clusters than distinct points must reseed empty ones."""
    n = draw(st.integers(1, 40))
    dims = draw(st.integers(1, 10))
    pool = draw(arrays(np.float64, (draw(st.integers(1, n)), dims),
                       elements=st.floats(-10, 10, allow_nan=False)))
    rows = draw(arrays(np.int64, n, elements=st.integers(0, len(pool) - 1)))
    return pool[rows]


class TestBinarize:
    def test_all_zero(self):
        assert binarize(from_dense(np.zeros((3, 5, 5), dtype=np.uint8))).sum() == 0

    def test_any_nonzero_pattern(self):
        data = np.zeros((3, 4, 4), dtype=np.uint8)
        data[1, 0, 1] = data[1, 1, 0] = 1
        adj = binarize(from_dense(data))
        assert adj[0, 1] == 1 and adj[1, 0] == 1
        assert adj.sum() == 2
        assert binarize(from_dense(data), t=0).sum() == 0
        with pytest.raises(IndexError):
            binarize(from_dense(data), t=3)

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
            vals, vecs = top_eigenpairs(_graph(a), 3, rng=rng)
            norm = np.linalg.norm(a, 2)
            for m in range(3):
                assert np.linalg.norm(a @ vecs[:, m] - vals[m] * vecs[:, m]) <= 1e-6 * norm

    def test_matches_dense_solver_by_magnitude(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(5, 40))
            a = rng.standard_normal((n, n))
            a = (a + a.T) / 2
            vals, _ = top_eigenpairs(_graph(a), 3, rng=rng)
            ref = np.linalg.eigvalsh(a)
            ref = ref[np.argsort(-np.abs(ref))][:3]
            assert np.allclose(np.sort(np.abs(vals))[::-1], np.abs(ref), atol=1e-6)

    def test_sign_tie(self):
        # bipartite block: eigenvalues +2 and -2 have equal magnitude
        a = np.zeros((4, 4))
        a[:2, 2:] = 1
        a[2:, :2] = 1
        vals, _ = top_eigenpairs(_graph(a), 2, rng=np.random.default_rng(2))
        assert sorted(np.round(vals, 9).tolist()) == [-2.0, 2.0]

    def test_repeated_eigenvalue(self):
        a = np.zeros((40, 40))
        a[:20, :20] = 1
        a[20:, 20:] = 1
        np.fill_diagonal(a, 0)
        vals, vecs = top_eigenpairs(_graph(a), 2, rng=np.random.default_rng(3))
        assert np.allclose(vals, [19.0, 19.0], atol=1e-7)
        assert abs(float(vecs[:, 0] @ vecs[:, 1])) < 1e-8

    def test_k_outside_one_to_n_rejected(self):
        for k in (0, 6):
            with pytest.raises(ValueError, match="need 1 <= k <= n"):
                top_eigenpairs(_graph(np.eye(5)), k)

    def test_zero_matrix(self):
        vals, _ = top_eigenpairs(_graph(np.zeros((7, 7))), 2)
        assert np.allclose(vals, 0.0)

    @pytest.mark.parametrize("dtype", [np.uint8, np.float64])
    def test_zero_matrix_gives_what_eigh_gives(self, dtype):
        # an edgeless matrix skips eigh: its pairs by magnitude, to the byte
        # and in its column-major layout
        for n in range(3, 25):
            for k in range(1, n - 1):
                a = np.zeros((n, n), dtype=dtype)
                vals, vecs = top_eigenpairs(_graph(a), k)
                want_vals, want_vecs = np.linalg.eigh(a.astype(np.float64))
                order = np.argsort(-np.abs(want_vals), kind="stable")[:k]
                want_vecs = want_vecs[:, order]
                assert vals.tobytes() == want_vals[order].tobytes()
                assert vecs.tobytes() == want_vecs.tobytes()
                assert vecs.flags.f_contiguous == want_vecs.flags.f_contiguous

    def test_zero_matrix_makes_no_dense_copy(self):
        # eigh would take two float64 n x n matrices, 144 MB here
        n = 3000
        a = _graph(np.zeros((n, n), dtype=np.uint8))
        tracemalloc.start()
        try:
            top_eigenpairs(a, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n

    def test_dense_fallback_when_k_near_n(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 3, 4):
            a = rng.standard_normal((n, n))
            a = (a + a.T) / 2
            for k in range(max(n - 1, 1), n + 1):
                vals, vecs = top_eigenpairs(_graph(a), k, rng=rng)
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
            top_eigenpairs(_graph(matrix), k, rng=rng)
            ref.standard_normal((k, 30))
            assert rng.random() == ref.random()

    def test_repeat_calls_agree_when_lanczos_breaks_down(self):
        # a star has three distinct eigenvalues, so ARPACK's Lanczos basis
        # breaks down and it asks for fresh random vectors, which must not
        # come from OS entropy
        a = np.zeros((40, 40), dtype=np.uint8)
        a[0, 1:] = a[1:, 0] = 1
        runs = [top_eigenpairs(_graph(a), 3, rng=np.random.default_rng(8)) for _ in range(3)]
        for vals, vecs in runs[1:]:
            assert vals.tobytes() == runs[0][0].tobytes()
            assert vecs.tobytes() == runs[0][1].tobytes()

    def test_no_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(spectral, "_EIG_MAX_ITER", 1)
        a = np.random.default_rng(7).standard_normal((300, 300))
        with pytest.raises(EigenConvergenceError):
            top_eigenpairs(_graph(a + a.T), 6)

    def test_convergence_error_survives_pickling(self):
        # experiment --jobs sends a worker's exception back to the parent pickled
        want = EigenConvergenceError("eigensolver did not converge in 7 iterations")
        err = pickle.loads(pickle.dumps(want))
        assert (type(err), str(err)) == (EigenConvergenceError, str(want))


def _assert_same_csr(got, want):
    # index values alike (their width does not enter ARPACK's products), data to the bit
    assert got.shape == want.shape
    assert np.array_equal(got.indptr, want.indptr) and np.array_equal(got.indices, want.indices)
    assert got.data.dtype == want.data.dtype and got.data.tobytes() == want.data.tobytes()


# n, then sorted distinct pair codes of an n x n matrix, below or above its
# diagonal (``recovery``'s complement graph sets both)
_codes = st.integers(1, 300).flatmap(lambda n: st.tuples(
    st.just(n), st.sets(st.integers(0, n * n - 1), max_size=60).map(
        lambda c: np.array(sorted(c), dtype=np.int64))))


class TestCsrLayout:
    """``_csr`` lays out sorted, distinct pair codes as scipy's COO
    conversion of the same entries does: ``indptr``, ``indices`` and
    ``data`` alike in values and dtype.  ``spectral``'s graphs, ``squared``'s
    stack and ``recovery``'s baseline graphs all rely on this one layout.
    The reference is ``csr_matrix``, which picks the index width from the
    size; ``csr_array`` keeps the int64 of ``np.divmod``."""

    @settings(max_examples=300, deadline=None)
    @given(case=_codes, dtype=st.sampled_from([np.bool_, np.float64]), data=st.data())
    @example(case=(1, np.zeros(0, dtype=np.int64)), dtype=np.float64, data=None)
    @example(case=(1, np.zeros(1, dtype=np.int64)), dtype=np.bool_, data=None)
    @example(case=(7, np.zeros(0, dtype=np.int64)), dtype=np.bool_, data=None)
    def test_matches_the_coo_conversion(self, case, dtype, data):
        n, codes = case
        values = (np.ones(codes.size, dtype=dtype) if data is None
                  else data.draw(arrays(dtype, codes.size)))
        got = spectral._csr(n, codes, values)
        want = csr_matrix((values, np.divmod(codes, n)), shape=(n, n))
        assert type(got) is csr_array and got.shape == (n, n)
        for field in ("indptr", "indices", "data"):
            have, expected = getattr(got, field), getattr(want, field)
            assert have.dtype == expected.dtype, field
            assert have.tobytes() == expected.tobytes(), field


# 0/1 arrays and arrays with symbols up to 3, from empty to full
_snapshot_arrays = st.sampled_from([1, 3]).flatmap(lambda top: _pattern_arrays(top, max_t=4))


class TestGraphs:
    """Each graph, trimmed or not, and each leave-one-out minor is scipy's
    CSR form of its dense matrix: the same ``indptr``, ``indices`` and
    ``data``, so ARPACK gets the matrix that a scan of the dense one gave."""

    @settings(max_examples=200, deadline=None)
    @given(arr=_snapshot_arrays, K=st.integers(1, 3), factor=st.sampled_from([0.5, 1.0, 40.0]))
    def test_graphs_are_the_csr_form_of_their_dense_matrices(self, arr, K, factor):
        x = dense_ref.dense_tensor(arr)
        wants = [(binarize(arr), (x != 0).any(axis=0))]
        wants += [(binarize(arr, t), x[t] != 0) for t in range(arr.T)]
        wants += [(harness.spectral_matrix(arr, "spectral-aggregate"),
                   dense_ref.spectral_matrix(arr, "spectral-aggregate"))]
        for graph, want in wants:
            assert type(graph) is Graph
            _assert_same_csr(graph, spectral_ref.dense_to_csr(want))
            with mock.patch.object(spectral, "_TRIM_FACTOR", factor):
                trimmed = trim_high_degree(graph, K)
            want, keep = spectral_ref.trim_high_degree(want, K, factor)
            assert type(trimmed) is Graph and (trimmed is graph) == keep.all()
            _assert_same_csr(trimmed, spectral_ref.dense_to_csr(want))

    def test_aggregate_sums_symbols_past_int64(self):
        # pair (0, 1) holds symbol 2^62 in three snapshots: an int64 sum
        # wraps to -4.61e18, and float64 holds 3 * 2^62 exactly
        arr = SnapshotArray([1, 10, 19], 3, 3, values=[2**62] * 3)
        weight = aggregate(arr)[0, 1]
        assert weight > 0 and abs(weight - 3 * 2.0**62) <= 3 * math.ulp(3 * 2.0**62)

    @settings(max_examples=100, deadline=None)
    @given(arr=_snapshot_arrays, data=st.data(), factor=st.sampled_from([0.5, 40.0]))
    def test_eigensolver_gets_graphs_whose_array_is_the_dense_matrix(self, arr, data, factor):
        # the benchmark's eigen-residual hook reads top_eigenpairs' matrix
        # through np.asarray; a leave-one-out minor is a slice, then trimmed
        seen, solve = [], spectral.top_eigenpairs
        graph, dense = binarize(arr), (dense_ref.dense_tensor(arr) != 0).any(axis=0)
        with mock.patch.object(spectral, "_TRIM_FACTOR", factor), \
                mock.patch.object(spectral, "top_eigenpairs",
                                  lambda A, *a, **kw: seen.append(A) or solve(A, *a, **kw)):
            spectral_cluster(graph, 1, 0)
            wants = [spectral_ref.trim_high_degree(dense, 1, factor)[0]]
            if arr.N >= 3:
                i = data.draw(st.integers(0, arr.N - 1))
                leave_one_out_cluster(graph, i, 1, 0)
                keep = np.arange(arr.N) != i
                wants.append(spectral_ref.trim_high_degree(dense[np.ix_(keep, keep)], 1,
                                                           factor)[0])
        assert len(seen) == len(wants)
        for got, want in zip(seen, wants):
            assert type(got) is Graph
            _assert_same_csr(got, spectral_ref.dense_to_csr(want))
            assert np.asarray(got, dtype=np.float64).tobytes() == want.tobytes()


class TestSquaredOperator:
    """``squared`` keeps ``S^T S - D`` as products with the stacked
    snapshots ``S``: its dense form, trimmed or not, is the dense matrix to
    the bit (every entry an integer), and its products agree to rounding."""

    @settings(max_examples=200, deadline=None)
    @given(arr=_snapshot_arrays, K=st.integers(1, 3), factor=st.sampled_from([0.5, 1.0, 40.0]),
           data=st.data())
    def test_operator_is_the_dense_matrix(self, arr, K, factor, data):
        want = dense_ref.spectral_matrix(arr, "spectral-squared")
        op = squared(arr)
        assert type(op) is SquaredOperator and op.shape == want.shape
        assert np.asarray(op).tobytes() == want.tobytes()
        # S is scipy's CSR of the weighted snapshots stacked, and d its column
        # sums: each row's layout sets the summation order of every product
        stacked = dense_ref.dense_tensor(arr).reshape(arr.T * arr.N, arr.N)
        _assert_same_csr(op.stacked, spectral_ref.dense_to_csr(stacked))
        degrees = stacked.sum(axis=0).astype(np.float64)
        assert op.d.tobytes() == degrees.tobytes()
        v = data.draw(arrays(np.float64, arr.N, elements=st.floats(-1e3, 1e3)))
        # S^T S = want + D, so these bound the magnitudes of every term summed
        scale = (np.abs(want) + 2 * np.diag(degrees)) @ np.abs(v)
        assert (np.abs(op @ v - want @ v) <= 4 * np.finfo(np.float64).eps * scale).all()
        with mock.patch.object(spectral, "_TRIM_FACTOR", factor):
            trimmed = trim_high_degree(op, K)
        want, keep = spectral_ref.trim_high_degree(want, K, factor)
        assert type(trimmed) is SquaredOperator and (trimmed is op) == keep.all()
        assert np.asarray(trimmed).tobytes() == want.tobytes()
        _assert_same_csr(trimmed.stacked, spectral_ref.dense_to_csr(stacked * keep))
        assert trimmed.d.tobytes() == (degrees * keep).tobytes()

    def test_matchings_square_to_zero_without_arpack(self):
        # each snapshot is a matching, so A_t A_t = D_t: S holds entries, but
        # S^T S - D is zero, and ARPACK must not run on it
        op = squared(SnapshotArray([1, 15, 44, 58], 6, 2))
        assert op.stacked.nnz == 8 and not np.asarray(op).any()
        with mock.patch.object(spectral, "eigsh", side_effect=AssertionError("eigsh ran")):
            vals, vecs = top_eigenpairs(op, 2)
            labels = spectral_cluster(op, 2, 0)
        assert vals.tobytes() == np.zeros(2).tobytes()
        assert vecs.tobytes() == np.eye(6, 2).tobytes() and vecs.flags.f_contiguous
        assert labels.tolist() == [0, 1, 0, 0, 0, 0]

    def test_no_snapshots_square_to_zero(self):
        # files and the sampler refuse T = 0, but a hand-built array of no
        # snapshots has an empty union graph and a zero squared operator
        arr = SnapshotArray([], 6, 0)
        op = squared(arr)
        assert op.stacked.shape == (0, 6) and not np.asarray(op).any()
        labels = spectral_cluster(op, 2, 0)
        assert labels.tolist() == spectral_cluster(binarize(arr), 2, 0).tolist()


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

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), x=_embeddings(), seed=st.integers(0, 2**32 - 1))
    def test_matches_gather_and_mean_reference(self, data, x, seed):
        k = data.draw(st.integers(1, len(x)))
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        labels = kmeans(x, k, rng=rng)
        want = spectral_ref.kmeans(x, k, rng=ref_rng)
        assert labels.dtype == want.dtype and np.array_equal(labels, want)
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("dims", [1, 2, 5])
    def test_empty_clusters_match_reference(self, dims):
        # three distinct points and five clusters: every iteration reseeds
        x = np.repeat(np.arange(3.0)[:, None] * np.ones(dims), [4, 3, 2], axis=0)
        for seed in range(20):
            labels = kmeans(x, 5, rng=np.random.default_rng(seed))
            want = spectral_ref.kmeans(x, 5, rng=np.random.default_rng(seed))
            assert np.array_equal(labels, want)

    def test_single_column_keeps_pairwise_means(self):
        # numpy's masked mean sums one column pairwise, a bincount row by
        # row; on this lattice the last bit of a centre decides a tie, and
        # bincount centres give other labels than the reference
        x = np.array([5, 1, 4, 9, 7, 3, 7, 3, 6, 10, 4, 9, 7, 0])[:, None] * 0.1
        want = spectral_ref.kmeans(x, 2, restarts=1, rng=np.random.default_rng(610937920))
        with mock.patch.object(spectral, "_KMEANS_RESTARTS", 1):
            labels = kmeans(x, 2, rng=np.random.default_rng(610937920))
        assert np.array_equal(labels, want)
        sizes = np.bincount(want, minlength=2)
        sums = np.bincount(want, weights=x[:, 0], minlength=2) / sizes
        means = np.array([x[want == c].mean(axis=0)[0] for c in range(2)])
        assert (sums != means).any()

    def test_peak_stays_below_one_k_n_d_temporary(self):
        # distances one centre at a time hold (n, d) arrays: 0.55 MB traced
        # here, where a (k, n, d) array of differences alone is 1.5 MB and
        # the loop that built it peaked at 2.8 MB
        rng = np.random.default_rng(0)
        n, k = 3000, 8
        x = rng.normal(0, 3, (k, k))[rng.integers(0, k, n)] + rng.normal(0, 1, (n, k))
        tracemalloc.start()
        try:
            labels = kmeans(np.asfortranarray(x), k, rng=np.random.default_rng(1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert labels.shape == (n,)
        assert peak < k * n * k * 8

    @pytest.mark.parametrize("kwargs", [dict(k=0)])
    def test_counts_below_one_rejected(self, kwargs):
        with pytest.raises(ValueError, match=f"^need at least one cluster, got K={kwargs['k']}$"):
            kmeans(np.zeros((4, 2)), **kwargs)


class TestTrim:
    def test_never_trims_at_reference_densities(self):
        n = 400
        truth, adj = planted_adjacency(n, 10 * math.log(n) / n, math.log(n) / n, 0)
        want, keep = spectral_ref.trim_high_degree(adj.toarray(), 2, spectral._TRIM_FACTOR)
        assert keep.sum() >= 0.95 * n
        assert np.array_equal(trim_high_degree(adj, 2).toarray(), want)

    def test_trims_hub(self):
        # mean degree 2, so the hub's 99 exceed 40 * K * 2
        adj = np.zeros((100, 100))
        adj[0, 1:] = 1
        adj[1:, 0] = 1
        adj[5, 6] = adj[6, 5] = 1
        _, keep = spectral_ref.trim_high_degree(adj, 1, spectral._TRIM_FACTOR)
        trimmed = trim_high_degree(_graph(adj), 1)
        assert not keep[0]
        assert trimmed[0].sum() == 0 and trimmed[5, 6] == 1

    @pytest.mark.parametrize("dtype", [np.int8, np.int64, np.float32, np.float64])
    def test_signed_weights_count_by_magnitude(self, dtype):
        adj = np.zeros((100, 100), dtype=dtype)
        adj[0, 1:] = adj[1:, 0] = -1
        adj[5, 6] = adj[6, 5] = 1
        _, keep = spectral_ref.trim_high_degree(adj, 1, spectral._TRIM_FACTOR)
        trimmed = trim_high_degree(_graph(adj), 1)
        assert keep.tolist() == [False] + [True] * 99
        dense = trimmed.toarray()
        assert trimmed.dtype == np.float64 and not dense[0].any() and dense[5, 6] == 1


class TestInputDtype:
    @settings(max_examples=150, deadline=None)
    @given(graph=_zero_one_graphs(), K=st.integers(1, 3),
           trim_factor=st.sampled_from([0.5, 1.0, 2.0, 40.0]), seed=st.integers(0, 2**32 - 1))
    def test_results_do_not_depend_on_input_dtype(self, graph, K, trim_factor, seed):
        # small factors make the hubs of these small graphs trim
        results = []
        for dtype in (np.uint8, np.bool_, np.int64, np.float64):
            adj = _graph(graph.astype(dtype))
            with mock.patch.object(spectral, "_TRIM_FACTOR", trim_factor):
                trimmed = trim_high_degree(adj, K)
                assert type(trimmed) is Graph and trimmed.dtype == np.float64
                vals, vecs = top_eigenpairs(trimmed, K, rng=np.random.default_rng(seed))
                labels = spectral_cluster(adj, K, seed)
            results.append((trimmed.toarray(), vals, vecs, labels))
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
            labels = spectral_cluster(adj, 2, 0)
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
        labels = spectral_cluster(_graph(a), 2, 3)
        assert accuracy(truth, labels) == 1.0

    def test_empty_graph_no_crash(self):
        labels = spectral_cluster(_graph(np.zeros((20, 20))), 2, 0)
        assert labels.shape == (20,)

    def test_more_clusters_than_nodes_rejected(self):
        with pytest.raises(ValueError, match="need 1 <= K <= N"):
            spectral_cluster(_graph(np.zeros((3, 3), dtype=np.uint8)), 4)

    @pytest.mark.parametrize("K", [0, -1])
    def test_fewer_than_one_cluster_rejected(self, K):
        with pytest.raises(ValueError, match="need 1 <= K <= N"):
            spectral_cluster(_graph(np.zeros((3, 3), dtype=np.uint8)), K)

    def test_planted_partition_accuracy(self):
        n = 500
        p, q = 10 * math.log(n) / n, math.log(n) / n
        accs = [
            accuracy(*reversed((spectral_cluster(adj, 2, s), truth)))
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
        base = spectral_cluster(_graph(a), 2, 11)
        moved = spectral_cluster(_graph(permuted), 2, 11)
        assert ham_star(base, truth)[0] == 0
        assert ham_star(moved, truth[perm])[0] == 0


class TestLeaveOneOut:
    def test_deterministic_per_node(self):
        truth, adj = planted_adjacency(120, 0.4, 0.05, 1)
        a = leave_one_out_cluster(adj, 7, 2, 5)
        b = leave_one_out_cluster(adj, 7, 2, 5)
        assert np.array_equal(a, b)

    def test_clique_case_exact(self):
        a = np.zeros((30, 30), dtype=np.uint8)
        a[:15, :15] = 1
        a[15:, 15:] = 1
        np.fill_diagonal(a, 0)
        truth = np.repeat([0, 1], 15)
        for i in (0, 14, 29):
            partial = leave_one_out_cluster(_graph(a), i, 2, 2)
            rest = truth[np.arange(30) != i]
            assert ham_star(partial, rest)[0] == 0

    def test_cross_run_agreement(self):
        n = 500
        truth, adj = planted_adjacency(n, 10 * math.log(n) / n, math.log(n) / n, 3)
        li = leave_one_out_cluster(adj, 3, 2, 9)
        lj = leave_one_out_cluster(adj, 9, 2, 9)
        full_i = np.empty(n, dtype=int)
        full_i[np.arange(n) != 3] = li
        full_j = np.empty(n, dtype=int)
        full_j[np.arange(n) != 9] = lj
        common = np.ones(n, dtype=bool)
        common[[3, 9]] = False
        d, _ = ham_star(full_i[common], full_j[common])
        assert 1 - d / common.sum() >= 0.9

    @pytest.mark.parametrize("i", [-1, 5])
    def test_node_index_must_name_a_node(self, i):
        with pytest.raises(ValueError, match=f"^node index {i} outside 0..4$"):
            leave_one_out_cluster(_graph(np.ones((5, 5)) - np.eye(5)), i, 2)

    def test_needs_three_nodes(self):
        with pytest.raises(ValueError):
            leave_one_out_cluster(_graph(np.zeros((2, 2))), 0, 1)

    def test_more_clusters_than_minor_nodes_rejected(self):
        with pytest.raises(ValueError, match="need 1 <= K <= N"):
            leave_one_out_cluster(_graph(np.zeros((3, 3))), 0, 3)


# sha256 of the int64 labels of the online algorithms' spectral start on
# snapshot 0, recorded before its CSR scan and k-means centres were
# rewritten: seeded output must not move
_START_DIGESTS = {
    (3000, 1): "c2961cd6bdde124cd818c9adcfa8584aad9dcad9690b4d76954b7ad11bd6d5fa",
    (3000, 2): "2ed194fdcd1ce3076c7582c3e00207bb0f28701d8d69950b76c42036fe66b94b",
    (1000, 1): "d1fa806b39cc40975a1be3a6ffc8f4f7d67a163e5c19f5b919dbed9f5d34c5ae",
    (1000, 2): "047d2458a20169ed7502a9923385c489c18265159f1806f2d5853dc49275f9cf",
}


@pytest.mark.parametrize("N, seed", sorted(_START_DIGESTS))
def test_spectral_start_digests(N, seed):
    # the scale-pipeline chain at N = 3000 and the figure-6 chain at
    # N = 1000, seeded as `tsbm generate` and `run_trial` seed them
    if N == 3000:
        intra, inter = harness.chains_in_units(3000, 3.0, 1.5, 0.7, 0.3)
    else:
        intra, inter = harness.chains_in_units(1000, 0.05, 0.03, 0.6, 0.3, "absolute")
    truth = sample_labelling(N, 2, seed=derive_seed(seed, 1))
    arr = sample_markov_snapshots(truth, intra, inter, 1, seed=derive_seed(seed, 2))
    labels = spectral_cluster(binarize(arr, t=0), 2, derive_seed(seed, 4))
    assert hashlib.sha256(labels.tobytes()).hexdigest() == _START_DIGESTS[N, seed]


@pytest.mark.parametrize("graph", ["start", "spectral-union", "spectral-aggregate",
                                   "spectral-squared", "refine"])
def test_spectral_init_stays_below_n_squared_bytes(graph):
    # N = 3000, T = 10: the online start on snapshot 0, the spectral
    # algorithms and refine (whose start clusters the union), graph built
    # and clustered.  Dense graphs alone took 9 MB (uint8) to 72 MB
    # (float64): traced peaks were 10.8 to 252.6 MB.  On the scale chain a
    # snapshot's square holds about N d^2 entries at mean degree d near 18,
    # millions of them, so the squared graph is gated at constant degree.
    n = 3000
    units = ("inv_n", 4.0, 2.0) if graph == "spectral-squared" else ("logn", 3.0, 1.5)
    intra, inter = harness.chains_in_units(n, *units[1:], 0.7, 0.3, units[0])
    arr = sample_markov_snapshots(sample_labelling(n, 2, seed=1), intra, inter, 10, seed=2)
    tracemalloc.start()
    try:
        if graph == "start":
            labels = spectral_cluster(binarize(arr, t=0), 2, 0)
        else:
            labels, _ = harness.recover(arr, graph, 2, 0, chains=(intra, inter))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert labels.shape == (n,)
    assert peak < n * n


def test_squared_start_on_the_scale_chain_stays_below_40_mib():
    # N = 3000, T = 10 on the scale chain, where the snapshots' squares hold
    # millions of entries: forming S^T S peaked at 155.3 MiB traced, and
    # products with the stacked snapshots at about 21 MiB
    n = 3000
    intra, inter = harness.chains_in_units(n, 3.0, 1.5, 0.7, 0.3, "logn")
    arr = sample_markov_snapshots(sample_labelling(n, 2, seed=1), intra, inter, 10, seed=2)
    tracemalloc.start()
    try:
        labels, _ = harness.recover(arr, "spectral-squared", 2, 0, chains=(intra, inter))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert labels.shape == (n,)
    assert peak < 40 * 2**20


def test_squared_build_on_the_scale_chain_stays_below_230_mib():
    # N = 30000, T = 10 (3.48 million entries): stacking the snapshots through
    # COO coordinates and scipy's duplicate sum traced 268.1 MiB; each
    # snapshot's symmetric CSR, stacked, 166.8 MiB
    arr = _scale_sample(30000, 10)
    tracemalloc.start()
    try:
        op = squared(arr)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert op.stacked.nnz == 2 * arr.data.size
    assert peak < 230 * 2**20


@pytest.mark.parametrize("algorithm", ["spectral-union", "spectral-aggregate",
                                       "spectral-squared", "refine"])
def test_eigen_residual_hook_sees_every_graph(algorithm):
    # the benchmark's tracer densifies top_eigenpairs' matrix through
    # np.asarray and checks the returned pairs against it
    tracing = _tracing()
    tracer = tracing.Tracer()
    intra, inter = harness.chains_in_units(300, 3.0, 1.5, 0.7, 0.3)
    arr = sample_markov_snapshots(sample_labelling(300, 2, seed=3), intra, inter, 5, seed=4)
    try:
        tracing.install(tracer)
        labels, _ = harness.recover(arr, algorithm, 2, 5, chains=(intra, inter))
    finally:
        tracer.restore()
    assert labels.shape == (300,)
    assert "spectral.top_eigenpairs" in {span[0] for span in tracer.spans}
    resid = tracer.maxima["spectral.top_eigenpairs.resid_max"]
    assert math.isfinite(resid) and resid < 1e-6
