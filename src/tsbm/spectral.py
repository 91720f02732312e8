"""Adjacency spectral clustering: its graphs, degree trimming, top-K
eigenpairs by ARPACK through scipy's ``eigsh``, and seeded k-means.

Used as the coarse initial clustering of the recovery algorithms.  Every
graph is a symmetric float64 CSR ``Graph`` from ``_symmetric``, of
``sbm._entry_slots``' pairs (``binarize``, ``aggregate``) or of one snapshot;
``squared`` stacks the snapshots' graphs as ``S`` for the ``SquaredOperator``
``S^T S - D``, ``D`` being S's column sums.  ARPACK needs only products, so
no N x N product is made; ``np.asarray(graph)`` is the one dense conversion,
and no library code makes it.  Each Lloyd iteration of k-means takes its
centres from one weighted ``bincount`` per column.
"""

import inspect

import numpy as np
from scipy.sparse import csr_array, vstack
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from ._rng import derive_seed
from .sbm import _entry_slots


# the degree trim's factor (see trim_high_degree); k-means restarts and Lloyd
# iterations per restart
_TRIM_FACTOR = 40.0
_KMEANS_RESTARTS = 8
_KMEANS_ITERS = 100
# ARPACK's relative residual tolerance and its cap on Lanczos restarts
_EIG_TOL = 1e-8
_EIG_MAX_ITER = 1000
# ARPACK asks for a fresh random vector when Lanczos breaks down (few
# distinct eigenvalues, as on star-like or very small graphs).  scipy versions
# that draw it in Python take ``rng`` and use OS entropy without it, which
# would make seeded results vary from run to run.
_ARPACK_RNG = {"rng": 0} if "rng" in inspect.signature(eigsh).parameters else {}


class EigenConvergenceError(RuntimeError):
    """Raised when the iterative eigensolver fails to converge."""


class Graph(csr_array):
    """A symmetric float64 CSR matrix in canonical form (sorted column
    indices, no explicit zeros); slicing and sparse arithmetic keep the
    class.  ``np.asarray(graph)`` gives the dense matrix for the eigen-residual
    hook of ``bench/tracing.py``; no library code makes it, and scipy's block
    constructors (``vstack``, ``bmat``) fail on it, trying it as dense."""

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.toarray(), dtype=dtype)


class SquaredOperator(LinearOperator):
    """``S^T S - diag(d)``, ``d`` the column sums of the CSR ``S``, as ``v -> S^T (S v) - d v``:
    symmetric float64, non-negative for integer symbols; ``np.asarray`` as for a ``Graph``."""

    def __init__(self, stacked):
        super().__init__(np.float64, (stacked.shape[1],) * 2)
        self.stacked, self._transposed = stacked, stacked.T  # not one per product
        self.d = self._transposed @ np.ones(stacked.shape[0])

    def _matmat(self, x):
        return self._transposed @ (self.stacked @ x) - self.d[:, None] * x

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self @ np.eye(self.shape[0]), dtype=dtype)


def _symmetric(n, pairs, weights):
    """The n x n Graph with ``weights`` at the upper entries ``pairs``
    (distinct flat indices ``i*n + j``, ``i < j``, increasing) and at their
    mirrors: a canonical sum, which stores each entry once."""
    index = np.int32 if max(n, 2 * pairs.size) < 2**31 else np.int64  # as scipy would pick
    rows = np.searchsorted(pairs, np.arange(0, n * n + 1, n)).astype(index)  # the upper indptr
    upper = Graph((np.asarray(weights, dtype=np.float64), (pairs % n).astype(index), rows),
                  shape=(n, n))
    return upper + upper.T


def binarize(array, t=None):
    """The 0/1 union graph of a SnapshotArray as a float64 ``Graph``:
    node pairs with any nonzero interaction over all snapshots (the pairs
    of ``_entry_slots``), or over snapshot ``t`` alone when given
    (IndexError unless ``0 <= t < T``), with their mirrors."""
    pairs = _entry_slots(array)[0] if t is None else array.snapshot(t)
    return _symmetric(array.N, pairs, np.ones(pairs.size))


def aggregate(array):
    """The sum of the snapshots as a float64 ``Graph``: each pair's count
    of snapshots that set it, each weighted by its symbol in ``values``,
    tallied over ``_entry_slots``' slots in float64."""
    pairs, slots = _entry_slots(array)[:2]
    weights = np.bincount(slots, weights=array.values, minlength=pairs.size)
    del slots  # freed before the graph is built
    return _symmetric(array.N, pairs, weights)


def squared(array):
    """The sum of ``A_t A_t - D_t`` over the snapshots as the ``SquaredOperator``
    of ``S``, the snapshots' ``_symmetric`` graphs (weighted by ``values``) stacked."""
    blocks = [csr_array((0, array.N))]  # so that T = 0 gives the zero operator
    for t in range(array.T):
        lo, hi = array.span(t)
        w = np.ones(hi - lo) if array.values is None else array.values[lo:hi]
        blocks.append(csr_array(_symmetric(array.N, array.snapshot(t), w)))  # plain CSR: see Graph
    return SquaredOperator(vstack(blocks, format="csr"))


def _degrees(graph):
    """Row sums of ``abs(graph)``, or of a ``SquaredOperator``: its entries are non-negative."""
    if isinstance(graph, SquaredOperator):
        return graph @ np.ones(graph.shape[0])
    return abs(graph).sum(axis=1)


def trim_high_degree(graph, K):
    """The graph without the entries of the rows and columns of nodes whose
    degree (sum of absolute weights) exceeds ``_TRIM_FACTOR * K *
    mean_degree``: the input itself when no node is trimmed.  Of ``S`` only the
    columns go: ``P (S^T S - D) P`` is the operator of ``S P``."""
    deg = _degrees(graph)
    keep = deg <= _TRIM_FACTOR * K * deg.mean()
    if keep.all():
        return graph
    square = isinstance(graph, SquaredOperator)
    m = graph.stacked if square else graph
    hit = keep[m.indices] if square else np.repeat(keep, np.diff(m.indptr)) & keep[m.indices]
    before = np.zeros(hit.size + 1, dtype=m.indptr.dtype)  # kept entries ahead of each
    np.cumsum(hit, out=before[1:])
    m = type(m)((m.data[hit], m.indices[hit], before[m.indptr]), shape=m.shape)
    return SquaredOperator(m) if square else m


def top_eigenpairs(A, k, rng=None):
    """Top-``k`` eigenpairs of a symmetric graph by magnitude, largest
    first; pairs of equal magnitude keep ascending value order.

    ARPACK (``scipy.sparse.linalg.eigsh``) runs on products with the graph.
    Dense ``eigh`` covers what ARPACK cannot: ``k >= n - 1``.  An all-zero graph
    gives what ``eigh`` would, zeros and the first ``k`` unit vectors,
    without it.  Raises ValueError unless ``1 <= k <= n``, and
    EigenConvergenceError when ARPACK does not converge.
    """
    n = A.shape[0]
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    rng = rng or np.random.default_rng(0)
    # draw k start vectors though ARPACK takes one: k-means reads this rng
    # next, and seeded outputs rely on it advancing by exactly k * n normals
    v0 = rng.standard_normal((k, n))[0]
    if k >= n - 1:
        vals, vecs = np.linalg.eigh(A @ np.eye(n))
    elif not _degrees(A).any():  # all zero: eigh's result and layout, without eigh
        return np.zeros(k), np.eye(n, k, order="F")
    else:
        try:
            vals, vecs = eigsh(A, k, which="LM", v0=v0, tol=_EIG_TOL,
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
    farthest from its centre.  Raises ValueError unless ``k >= 1``."""
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
        for _ in range(_KMEANS_ITERS):
            # squared distances one centre at a time; a running minimum keeps
            # the first nearest centre (strict <), as argmin would
            mind2, new_labels = ((X - centers[0]) ** 2).sum(axis=1), np.zeros(n, dtype=np.int64)
            for c in range(1, k):
                d2 = ((X - centers[c]) ** 2).sum(axis=1)
                new_labels[d2 < mind2] = c
                np.minimum(mind2, d2, out=mind2)
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
        inertia = float(((X - centers[labels]) ** 2).sum())
        if inertia < best_inertia:
            best_inertia, best_labels = inertia, labels.copy()
    return best_labels


def _cluster(graph, K, seed, stream):
    if not 1 <= K <= graph.shape[0]:
        raise ValueError(f"need 1 <= K <= N, got K={K}, N={graph.shape[0]}")
    rng = np.random.default_rng(derive_seed(seed, stream))
    _, vecs = top_eigenpairs(trim_high_degree(graph, K), K, rng=rng)
    return kmeans(vecs, K, rng=rng)


def spectral_cluster(graph, K, seed=0):
    """Cluster the nodes of a symmetric (weighted) graph into ``K`` blocks:
    trim, embed on the top-K eigenvectors, then k-means the embedding rows,
    drawing from substream 0 of ``seed``."""
    return _cluster(graph, K, seed, 0)


def leave_one_out_cluster(graph, i, K, seed=0):
    """Spectral clustering of the minor with row/column ``i`` removed;
    deterministic given (seed, i).  Returns labels on the remaining nodes
    in their original order.  The minor is a CSR slice of the ``Graph``."""
    n = graph.shape[0]
    if n < 3:
        raise ValueError("need at least three nodes")
    if not 0 <= i < n:
        raise ValueError(f"node index {i} outside 0..{n - 1}")
    keep = np.flatnonzero(np.arange(n) != i)
    return _cluster(graph[keep][:, keep], K, seed, i + 1)
