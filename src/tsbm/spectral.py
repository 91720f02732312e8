"""Adjacency spectral clustering: degree trimming, top-K eigenpairs by
ARPACK through scipy's ``eigsh``, and seeded k-means on the eigen embedding.

Used as the coarse initial clustering of the recovery algorithms; also
accepts weighted symmetric matrices (aggregate graphs and similar).  The
dense input reaches ARPACK as a CSR matrix built by a scan of blocks of
rows, so no N x N mask is made, and each Lloyd iteration of k-means takes
its centres from one weighted ``bincount`` per column.
"""

import inspect

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from ._rng import derive_seed


# the degree trim's factor (see trim_high_degree); k-means restarts and Lloyd
# iterations per restart
_TRIM_FACTOR = 40.0
_KMEANS_RESTARTS = 8
_KMEANS_ITERS = 100
# ARPACK's relative residual tolerance and its cap on Lanczos restarts
_EIG_TOL = 1e-8
_EIG_MAX_ITER = 1000
# entries per block of rows in the dense-to-CSR scan: the block's mask is
# about 1 MB where a whole-matrix one would take N^2 bytes
_SCAN_BLOCK = 1 << 20
# ARPACK asks for a fresh random vector when Lanczos breaks down (few
# distinct eigenvalues, as on star-like or very small graphs).  scipy versions
# that draw it in Python take ``rng`` and use OS entropy without it, which
# would make seeded results vary from run to run.
_ARPACK_RNG = {"rng": 0} if "rng" in inspect.signature(eigsh).parameters else {}


class EigenConvergenceError(RuntimeError):
    """Raised when the iterative eigensolver fails to converge."""


def binarize(array, t=None):
    """0/1 uint8 adjacency matrix of a SnapshotArray, marking node pairs with
    any nonzero interaction over all snapshots, or over snapshot ``t`` alone
    when given (IndexError unless ``0 <= t < T``); each of the array's upper
    indices ``i*N + j`` is scattered into it with its mirror ``j*N + i``."""
    n = array.N
    out = np.zeros(n * n, dtype=np.uint8)
    x = array.data % (n * n) if t is None else array.snapshot(t)
    out[x] = out[x % n * n + x // n] = 1
    return out.reshape(n, n)


def trim_high_degree(adj, K):
    """Zero out rows/columns of nodes whose degree exceeds ``_TRIM_FACTOR * K
    * mean_degree``.  Returns (matrix, kept_mask); the matrix keeps the
    input's dtype and is the input itself when no node is trimmed, so a 0/1
    uint8 matrix never becomes an N x N float array."""
    a = np.asarray(adj)
    if a.dtype.kind in "bu" and a.itemsize <= 4:
        # integer sums: every float64 partial sum is an integer below 2^53, so the same bits
        deg = a.sum(axis=1, dtype=np.int64).astype(np.float64)
    else:  # float64 sums; only signed entries need abs
        deg = (np.abs(a, dtype=np.float64) if a.dtype.kind in "if" else a).sum(
            axis=1, dtype=np.float64)
    keep = deg <= _TRIM_FACTOR * K * deg.mean()
    if keep.all():
        return a, keep
    out = a.copy()
    out[~keep, :] = 0
    out[:, ~keep] = 0
    return out, keep


def _dense_to_csr(A):
    """``csr_matrix(A, dtype=np.float64)`` of a dense n x n matrix, with the
    same ``indptr``, ``indices`` and ``data``: the nonzeros are found block
    by block of about ``_SCAN_BLOCK`` entries as flat indices ``i*n + j``,
    and one ``searchsorted`` of the row starts gives ``indptr``."""
    n = A.shape[0]
    rows = max(1, _SCAN_BLOCK // n)
    flat, values = [], []
    for r in range(0, n, rows):
        block = A[r:r + rows].reshape(-1)
        hit = np.flatnonzero(block != 0)
        flat.append(hit + r * n)
        values.append(block[hit])
    flat = np.concatenate(flat)
    indptr = np.searchsorted(flat, np.arange(0, n * n + 1, n))
    data = np.concatenate(values).astype(np.float64)
    return csr_matrix((data, flat % n, indptr), shape=(n, n))


def top_eigenpairs(A, k, rng=None):
    """Top-``k`` eigenpairs of a symmetric matrix by magnitude, largest
    first; pairs of equal magnitude keep ascending value order.

    ARPACK (``scipy.sparse.linalg.eigsh``) runs on the CSR form, which a
    scan of blocks of rows of about 1 MB builds from the dense ``A``: it
    equals ``csr_matrix(A, dtype=np.float64)`` without a whole-matrix
    ``nonzero``.  Dense ``eigh`` covers what ARPACK cannot: ``k >= n - 1``.
    An all-zero matrix gives what ``eigh`` would, zeros and the first ``k``
    unit vectors, without it.  Raises ValueError unless ``1 <= k <= n``, and
    EigenConvergenceError when ARPACK does not converge.  ``A`` may have
    any numeric dtype: only the CSR values are made float64, and a dense
    float64 copy is made only for the ``eigh`` fallback.
    """
    A = np.asarray(A)
    n = A.shape[0]
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    rng = rng or np.random.default_rng(0)
    # draw k start vectors though ARPACK takes one: k-means reads this rng
    # next, and seeded outputs rely on it advancing by exactly k * n normals
    v0 = rng.standard_normal((k, n))[0]
    if k >= n - 1:
        vals, vecs = np.linalg.eigh(np.asarray(A, dtype=np.float64))
    elif (sparse := _dense_to_csr(A)).nnz == 0:  # eigh's result and layout, without eigh
        return np.zeros(k), np.eye(n, k, order="F")
    else:
        try:
            vals, vecs = eigsh(sparse, k, which="LM", v0=v0, tol=_EIG_TOL,
                               maxiter=_EIG_MAX_ITER, **_ARPACK_RNG)
        except ArpackNoConvergence as exc:
            raise EigenConvergenceError(
                f"eigensolver did not converge in {_EIG_MAX_ITER} iterations") from exc
    order = np.argsort(-np.abs(vals), kind="stable")[:k]
    return vals[order], vecs[:, order]


def _kmeans_pp_init(X, k, rng):
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = ((X - centers[0]) ** 2).sum(axis=1)
    for m in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[m] = X[rng.integers(n)]
            continue
        centers[m] = X[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((X - centers[m]) ** 2).sum(axis=1))
    return centers


def kmeans(X, k, rng=None):
    """Seeded k-means with ++-style init; best of ``_KMEANS_RESTARTS`` runs
    by inertia, each of at most ``_KMEANS_ITERS`` Lloyd iterations.

    While every cluster has a point, an iteration's centres are one
    weighted ``bincount`` per column over the cluster sizes: the row-by-row
    sums that ``X[labels == c].mean(axis=0)`` makes on two or more columns.
    Otherwise, and for a single column (whose ``mean`` sums pairwise), each
    centre is that ``mean``, and an empty cluster is reseeded at the point
    farthest from its centre.  A run that cycles through (centres, labels)
    states, as reseeding can, stops at the state its last iteration would
    reach.  Raises ValueError unless ``k >= 1``."""
    if not k >= 1:
        raise ValueError(f"need at least one cluster, got K={k}")
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    rng = rng or np.random.default_rng(0)
    if k == 1:
        return np.zeros(n, dtype=np.int64)
    best_labels, best_inertia = None, np.inf
    for _ in range(_KMEANS_RESTARTS):
        centers = _kmeans_pp_init(X, k, rng)
        labels = np.zeros(n, dtype=np.int64)
        seen, it, stop = {}, 0, _KMEANS_ITERS
        while it < stop:
            # squared distances, a row per centre; a running minimum over the
            # rows keeps the first nearest centre (strict <), as argmin would
            d2 = ((X[None, :, :] - centers[:, None, :]) ** 2).sum(axis=2)
            mind2, new_labels = d2[0].copy(), np.zeros(n, dtype=np.int64)
            for c in range(1, k):
                new_labels[d2[c] < mind2] = c
                np.minimum(mind2, d2[c], out=mind2)
            sizes = np.bincount(new_labels, minlength=k)
            if X.shape[1] > 1 and sizes.all():
                for d in range(X.shape[1]):
                    centers[:, d] = np.bincount(new_labels, weights=X[:, d], minlength=k)
                centers /= sizes[:, None]
            else:
                for c in range(k):
                    mask = new_labels == c
                    if mask.any():
                        centers[c] = X[mask].mean(axis=0)
                    else:
                        far = int(np.argmax(mind2))
                        centers[c] = X[far]
                        new_labels[far] = c
                        mind2[far] = 0.0
            if np.array_equal(new_labels, labels):
                labels = new_labels
                break
            labels = new_labels
            # the loop draws nothing, so a repeated (centres, labels) state
            # starts a cycle: stop at the state the last iteration would reach.
            # Both make the state: the next labels follow from these centres,
            # but the fixpoint test compares them with these labels, so a key
            # on centres alone could place the stop one step off.
            key = labels.tobytes() + centers.tobytes()
            if key in seen:
                stop = it + 1 + (stop - 1 - it) % (it - seen[key])
            seen[key] = it
            it += 1
        inertia = float(((X - centers[labels]) ** 2).sum())
        if inertia < best_inertia:
            best_inertia, best_labels = inertia, labels.copy()
    return best_labels


def _cluster(adj, K, seed, stream):
    if not 1 <= K <= len(adj):
        raise ValueError(f"need 1 <= K <= N, got K={K}, N={len(adj)}")
    rng = np.random.default_rng(derive_seed(seed, stream))
    trimmed, _ = trim_high_degree(adj, K)
    _, vecs = top_eigenpairs(trimmed, K, rng=rng)
    return kmeans(vecs, K, rng=rng)


def spectral_cluster(adj, K, seed=0):
    """Cluster nodes of a symmetric (weighted) adjacency matrix into ``K``
    blocks: trim, embed on the top-K eigenvectors, then k-means the
    embedding rows, drawing from substream 0 of ``seed``."""
    return _cluster(adj, K, seed, 0)


def leave_one_out_cluster(adj, i, K, seed=0):
    """Spectral clustering of the minor with row/column ``i`` removed;
    deterministic given (seed, i).  Returns labels on the remaining nodes
    in their original order."""
    adj = np.asarray(adj)
    n = adj.shape[0]
    if n < 3:
        raise ValueError("need at least three nodes")
    if not 0 <= i < n:
        raise ValueError("node index out of range")
    keep = np.arange(n) != i
    return _cluster(adj[np.ix_(keep, keep)], K, seed, i + 1)
