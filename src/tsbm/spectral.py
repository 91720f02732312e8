"""Adjacency spectral clustering: degree trimming, top-K eigenpairs by
ARPACK through scipy's ``eigsh``, and seeded k-means on the eigen embedding.

Used as the coarse initial clustering of the recovery algorithms; also
accepts weighted symmetric matrices (aggregate graphs and similar).
"""

import inspect
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from ._rng import derive_seed
from .sbm import SnapshotArray

__all__ = [
    "SpectralConfig",
    "EigenConvergenceError",
    "binarize",
    "top_eigenpairs",
    "kmeans",
    "spectral_cluster",
    "leave_one_out_cluster",
]


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

    def __init__(self, iterations, residual):
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            f"eigensolver did not converge in {iterations} iterations "
            f"(residual {residual:.3e})"
        )


@dataclass(frozen=True)
class SpectralConfig:
    """Tuning knobs for the spectral pipeline.

    Nodes of degree above ``trim_factor * K * mean_degree`` are zeroed out
    before the eigendecomposition.
    """

    K: int
    trim_factor: float = 40.0
    kmeans_restarts: int = 8
    kmeans_iters: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("need at least one cluster")
        if self.trim_factor <= 0:
            raise ValueError("trim factor must be positive")


def binarize(array, t=None):
    """0/1 adjacency matrix marking node pairs with any nonzero interaction,
    over all snapshots, or over snapshot ``t`` alone when given.

    Accepts a SnapshotArray (its indices are scattered straight into the
    matrix), a (T, N, N) tensor, or a single (N, N) matrix.
    """
    if isinstance(array, SnapshotArray):
        n = array.N
        out = np.zeros(n * n, dtype=np.uint8)
        out[array.data % (n * n) if t is None else array.snapshot(t)] = 1
        return out.reshape(n, n)
    data = np.asarray(array)
    if t is not None:
        data = data[t]
    if data.ndim == 2:
        return (data != 0).astype(np.uint8)
    return (data != 0).any(axis=0).astype(np.uint8)


def trim_high_degree(adj, K, trim_factor):
    """Zero out rows/columns of nodes whose degree exceeds the threshold
    ``trim_factor * K * mean_degree``.  Returns (matrix, kept_mask); the
    matrix keeps the input's dtype and is the input itself when no node is
    trimmed, so a 0/1 uint8 matrix never becomes an N x N float array."""
    a = np.asarray(adj)
    # degrees are float64 sums either way; only signed entries need abs
    deg = (np.abs(a, dtype=np.float64) if a.dtype.kind in "if" else a).sum(
        axis=1, dtype=np.float64)
    threshold = trim_factor * K * deg.mean()
    keep = deg <= threshold
    if keep.all():
        return a, keep
    out = a.copy()
    out[~keep, :] = 0
    out[:, ~keep] = 0
    return out, keep


def top_eigenpairs(A, k, rng=None):
    """Top-``k`` eigenpairs of a symmetric matrix by magnitude, largest
    first; pairs of equal magnitude keep ascending value order.

    ARPACK (``scipy.sparse.linalg.eigsh``) runs on the CSR form; dense
    ``eigh`` covers what ARPACK cannot (``k >= n - 1``, an all-zero
    matrix).  Raises EigenConvergenceError when ARPACK does not converge.
    ``A`` may have any numeric dtype: only the CSR values are made float64,
    and a dense float64 copy is made only for the ``eigh`` fallback.
    """
    A = np.asarray(A)
    n = A.shape[0]
    rng = rng or np.random.default_rng(0)
    # draw k start vectors though ARPACK takes one: k-means reads this rng
    # next, and seeded outputs rely on it advancing by exactly k * n normals
    v0 = rng.standard_normal((k, n))[0]
    sparse = csr_matrix(A, dtype=np.float64)
    if k >= n - 1 or sparse.nnz == 0:
        vals, vecs = np.linalg.eigh(np.asarray(A, dtype=np.float64))
    else:
        try:
            vals, vecs = eigsh(sparse, k, which="LM", v0=v0, tol=_EIG_TOL,
                               maxiter=_EIG_MAX_ITER, **_ARPACK_RNG)
        except ArpackNoConvergence as exc:
            raise EigenConvergenceError(_EIG_MAX_ITER, math.inf) from exc
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


def kmeans(X, k, restarts=8, iters=100, rng=None):
    """Seeded k-means with ++-style init; best of ``restarts`` by inertia.
    Empty clusters are reseeded at the point farthest from its center."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    rng = rng or np.random.default_rng(0)
    if k == 1:
        return np.zeros(n, dtype=np.int64)
    best_labels, best_inertia = None, np.inf
    for _ in range(max(restarts, 1)):
        centers = _kmeans_pp_init(X, k, rng)
        labels = np.zeros(n, dtype=np.int64)
        for _ in range(iters):
            d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            new_labels = d2.argmin(axis=1)
            mind2 = d2[np.arange(n), new_labels]
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


def _cluster(adj, config, stream):
    if config.K > len(adj):
        raise ValueError("need 1 <= K <= N")
    rng = np.random.default_rng(derive_seed(config.seed, stream))
    trimmed, _ = trim_high_degree(adj, config.K, config.trim_factor)
    _, vecs = top_eigenpairs(trimmed, config.K, rng=rng)
    return kmeans(
        vecs, config.K, restarts=config.kmeans_restarts, iters=config.kmeans_iters, rng=rng
    )


def spectral_cluster(adj, config):
    """Cluster nodes of a symmetric (weighted) adjacency matrix: trim, embed
    on the top-K eigenvectors, then k-means the embedding rows."""
    return _cluster(adj, config, 0)


def leave_one_out_cluster(adj, i, config):
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
    return _cluster(adj[np.ix_(keep, keep)], config, i + 1)
