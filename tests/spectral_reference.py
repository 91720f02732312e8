"""Direct references for the spectral pipeline.

The library builds each graph as a CSR matrix from a SnapshotArray's
entries, trims it by masking its entries, and ``kmeans`` takes its centres
from weighted bincounts; the functions here take scipy's CSR form of the
dense matrices, trim them densely and gather each cluster's mean, as the
library once did, and the tests require equal results.
"""

import numpy as np
from scipy.sparse import csr_matrix

from tsbm.spectral import _kmeans_pp_init


def dense_to_csr(A):
    """scipy's own CSR form of a dense matrix, values made float64."""
    return csr_matrix(np.asarray(A), dtype=np.float64)


def trim_high_degree(A, K, factor):
    """The dense trim: zero the rows and columns of nodes whose sum of
    absolute weights exceeds ``factor * K`` times the mean; returns
    (float64 matrix, kept mask)."""
    out = np.array(A, dtype=np.float64)
    deg = np.abs(out).sum(axis=1)
    keep = deg <= factor * K * deg.mean()
    out[~keep, :] = 0
    out[:, ~keep] = 0
    return out, keep


def kmeans(X, k, restarts=8, iters=100, rng=None):
    """Seeded k-means whose centres are the boolean gather and ``mean`` of
    each cluster; an empty cluster is reseeded at the point farthest from
    its centre."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    rng = rng or np.random.default_rng(0)
    if k == 1:
        return np.zeros(n, dtype=np.int64)
    best_labels, best_inertia = None, np.inf
    for _ in range(restarts):
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
