"""Dense references for the sparse library code.

The library reads snapshot arrays only through their sorted indices.  The
functions here rebuild the ``T x N x N`` tensor and run each algorithm the
direct way, on dense matrices, as the library once did; the tests require
the sparse code to match them.
"""

import math

import numpy as np

from tsbm.recovery import (
    LOG_RATIO_SATURATION,
    _pair_transitions,
    _sat_log_ratio,
    connected_components,
)
from tsbm.sbm import SnapshotArray


def dense_tensor(array):
    """The symmetric ``(T, N, N)`` tensor of a SnapshotArray, its upper
    entries mirrored: uint8 without ``values``, else int64."""
    dtype = np.uint8 if array.values is None else np.int64
    out = np.zeros(array.T * array.N * array.N, dtype=dtype)
    out[array.data] = 1 if array.values is None else array.values
    out = out.reshape(array.T, array.N, array.N)
    return out | out.transpose(0, 2, 1)


def from_dense(x, labels=None):
    """The SnapshotArray of a symmetric ``(T, N, N)`` tensor of non-negative
    codes with zero diagonal: the inverse of ``dense_tensor``."""
    x = np.asarray(x)
    if x.ndim != 3 or x.shape[1] != x.shape[2]:
        raise ValueError("data must have shape (T, N, N)")
    if x.min(initial=0) < 0:
        raise ValueError("symbols must be non-negative")
    # only the upper triangle is kept: a lower one that differs would be lost
    if (x != x.transpose(0, 2, 1)).any() or np.diagonal(x, axis1=1, axis2=2).any():
        raise ValueError("data must be symmetric with a zero diagonal")
    data = np.flatnonzero(np.triu(x, 1))
    values = x.reshape(-1)[data] if x.max(initial=0) > 1 else None
    return SnapshotArray(data, x.shape[1], x.shape[0], values=values, labels=labels)


# ---------------------------------------------------------------------------
# Kernels, refinement and the offline baselines
# ---------------------------------------------------------------------------


def markov_log_ratio(array, f, g):
    """``log f/g`` of every pair's whole pattern under chains ``f`` and
    ``g``, summed over the snapshots and clipped once at the end, with zero
    diagonal; and the largest magnitude each pair's sum reaches on the way,
    which shows where a clip after every snapshot would differ."""
    x = dense_tensor(array)
    l_init = _sat_log_ratio(f.mu, g.mu)
    l_step = _sat_log_ratio(f.transition, g.transition).ravel()
    out = l_init[x[0]]
    peak = np.abs(out)
    for t in range(1, x.shape[0]):
        out = out + l_step[2 * x[t - 1] + x[t]]
        peak = np.maximum(peak, np.abs(out))
    out = np.clip(out, -LOG_RATIO_SATURATION, LOG_RATIO_SATURATION)
    np.fill_diagonal(out, 0.0)
    return out, peak


def categorical_log_ratio(array, f, g):
    """``log f/g`` of every pair's symbol in a single snapshot."""
    out = _sat_log_ratio(f.probs, g.probs)[dense_tensor(array)[0]]
    np.fill_diagonal(out, 0.0)
    return out


def _one_hot(labels, K):
    out = np.zeros((labels.size, K))
    out[np.arange(labels.size), labels] = 1.0
    return out


def block_scores(R, labels, K):
    """Each node's summed ratio with the other nodes of each block."""
    return R @ _one_hot(labels, K)


def transition_rates(array, P, Q):
    """``transition_rate_clustering`` on the dense ``(2, 2, N, N)`` tensor of
    per-pair transition counts."""
    data = dense_tensor(array)
    n = data.shape[1]
    prev, cur = data[:-1], data[1:]
    counts = np.empty((2, 2, n, n))
    for a in (0, 1):
        for b in (0, 1):
            counts[a, b] = ((prev == a) & (cur == b)).sum(axis=0)
    link = np.zeros((n, n), dtype=bool)
    for a in (0, 1):
        n_a = counts[a, 0] + counts[a, 1]
        with np.errstate(invalid="ignore", divide="ignore"):
            for b in (0, 1):
                est = counts[a, b] / n_a
                close = np.abs(est - P[a, b]) <= 0.5 * abs(P[a, b] - Q[a, b])
                link |= (n_a > 0) & np.where(np.isnan(est), False, close)
    np.fill_diagonal(link, False)
    return connected_components(link)


def persistent(array):
    """``persistent_components`` on the dense intersection of the snapshots."""
    data = dense_tensor(array)
    n = data.shape[1]
    always = (data != 0).all(axis=0)
    np.fill_diagonal(always, False)
    comp_labels, n_comp = connected_components(always)
    sizes = np.bincount(comp_labels, minlength=n_comp)
    big = np.nonzero(sizes > math.sqrt(n))[0]
    out = np.zeros(n, dtype=np.int64)
    for rank, c in enumerate(big[np.argsort(-sizes[big], kind="stable")]):
        out[comp_labels == c] = rank
    return out, int(big.size)


def enemies(array):
    """``enemy_paths`` by the integer matrix square of the enemy graph."""
    data = dense_tensor(array)
    union = (data != 0).any(axis=0)
    enemy = union & ~(data != 0).all(axis=0)
    np.fill_diagonal(enemy, False)
    two_path = (enemy.astype(np.int64) @ enemy.astype(np.int64)) > 0
    np.fill_diagonal(two_path, False)
    return connected_components(two_path)


def spectral_matrix(array, algorithm):
    """The aggregate or bias-adjusted squared matrix, summed over dense
    snapshots."""
    data = dense_tensor(array)
    if algorithm == "spectral-aggregate":
        return data.sum(axis=0).astype(np.float64)
    out = np.zeros(data.shape[1:], dtype=np.float64)
    for t in range(data.shape[0]):
        a = data[t].astype(np.float64)
        out += a @ a - np.diag(a.sum(axis=1))
    return out


# ---------------------------------------------------------------------------
# The online step with a dense N x N matrix M; the sparse state must match
# it (M bit for bit, labels up to near-ties of the dense scores).
# ---------------------------------------------------------------------------


def _relabel_sweep(M, labels, K, synchronous=True):
    """One relabeling pass: each node moves to the block maximising its
    accumulated log-likelihood ratio sum.  Ties keep the current label,
    then fall to the lowest index.  Synchronous sweeps score every node
    against the labelling frozen at entry; the asynchronous variant reads
    in-place updates in node order."""
    n = labels.size
    if synchronous:
        L = M @ _one_hot(labels, K)
        best = L.argmax(axis=1).astype(np.int64)
        keep = L[np.arange(n), labels] >= L[np.arange(n), best]
        return np.where(keep, labels, best)
    out = labels.copy()
    for i in range(n):
        scores = M[i] @ _one_hot(out, K)
        best = int(np.argmax(scores))
        if scores[out[i]] < scores[best]:
            out[i] = best
    return out


class _DenseOnline:
    """Reference for OnlineLikelihood: the dense ``M`` and sweep."""

    def __init__(self, first_snapshot, init_labels, intra, inter, K, synchronous=True):
        x = np.asarray(first_snapshot)
        self.K = K
        self.synchronous = synchronous
        self.labels = np.asarray(init_labels, dtype=np.int64).copy()
        l_init = _sat_log_ratio(intra.mu, inter.mu)
        self._delta = _sat_log_ratio(intra.transition, inter.transition).ravel()
        self.M = l_init[x].astype(np.float64)
        np.fill_diagonal(self.M, 0.0)
        self._prev = x.copy()
        self.t = 1

    def step(self, snapshot):
        x = np.asarray(snapshot)
        delta = self._delta[2 * self._prev + x]
        np.fill_diagonal(delta, 0.0)
        self.M += delta
        np.clip(self.M, -LOG_RATIO_SATURATION, LOG_RATIO_SATURATION, out=self.M)
        self.labels = _relabel_sweep(self.M, self.labels, self.K, self.synchronous)
        self._prev = x.copy()
        self.t += 1


class _DenseLearned:
    """Reference learner: a dense ``(4, N, N)`` counter and pooled sums over
    upper-triangle gathers, the direct form of the sparse counter and
    pooled estimator."""

    def __init__(self, first_snapshot, init_labels, K, synchronous=True):
        x = np.asarray(first_snapshot)
        n = x.shape[0]
        self.K, self.synchronous = K, synchronous
        self.labels = np.asarray(init_labels, dtype=np.int64).copy()
        self._iu = np.triu_indices(n, k=1)
        same = self.labels[self._iu[0]] == self.labels[self._iu[1]]
        vals = x[self._iu]
        mu1 = float(vals[same].mean()) if same.any() else 0.5
        nu1 = float(vals[~same].mean()) if (~same).any() else 0.5
        self.P_hat = np.array([[1 - mu1, mu1]] * 2)
        self.Q_hat = np.array([[1 - nu1, nu1]] * 2)
        l_init = _sat_log_ratio(np.array([1 - mu1, mu1]), np.array([1 - nu1, nu1]))
        self.M = l_init[x].astype(np.float64)
        np.fill_diagonal(self.M, 0.0)
        self.counts = np.zeros((4, n, n), dtype=np.uint32)
        self._prev = x.copy()
        self.t = 1

    def step(self, snapshot):
        x = np.asarray(snapshot)
        idx = 2 * self._prev + x
        delta = _sat_log_ratio(self.P_hat, self.Q_hat).ravel()[idx]
        np.fill_diagonal(delta, 0.0)
        self.M += delta
        np.clip(self.M, -LOG_RATIO_SATURATION, LOG_RATIO_SATURATION, out=self.M)
        self.labels = _relabel_sweep(self.M, self.labels, self.K, self.synchronous)
        for ab in range(4):
            self.counts[ab] += idx == ab
        self._prev = x.copy()
        self.t += 1
        self._reestimate()

    def _reestimate(self):
        iu = self._iu
        same = self.labels[iu[0]] == self.labels[iu[1]]
        for a in (0, 1):
            n_a1 = self.counts[2 * a + 1][iu].astype(np.int64)
            n_a = self.counts[2 * a][iu] + n_a1
            for pairs, est in ((same, self.P_hat), (~same, self.Q_hat)):
                total = int(n_a[pairs].sum())
                if total:
                    p = int(n_a1[pairs].sum()) / total
                    est[a] = (1 - p, p)


# ---------------------------------------------------------------------------
# The learner's re-estimation from scratch: every pair summed on every step.
# ---------------------------------------------------------------------------


def seen_transitions(state):
    """The per-pair transition counts that ``transition_rate_clustering``
    derives, over the snapshots an online learner has taken: the pairs set
    so far (flat ``i*N + j``, increasing) with their ``n_1``, ``n_01`` and
    ``n_11``."""
    array, t = state.array, state.t
    seen = array.data[array.data < t * array.N * array.N]
    return _pair_transitions(SnapshotArray(seen, array.N, t))


def reestimate_from_scratch(state, P_hat, Q_hat):
    """``OnlineLikelihoodLearned`` re-estimation after a step, from every
    pair's counts (``seen_transitions``): ``n_1``, ``n_01`` and ``n_11``
    summed over the active pairs of each class (0 across, 1 within) under
    ``state.labels``, and ``n_0`` as the active pairs' ``t - 1 - n_1`` plus
    ``t - 1`` for each pair never set.  ``P_hat`` and ``Q_hat`` are the
    estimates before the step, kept where a class has not visited a state;
    returns the new pair and the ``(3, 2)`` sums of ``n_1``, ``n_01`` and
    ``n_11``."""
    labels, t = state.labels, state.t
    P_hat, Q_hat = P_hat.copy(), Q_hat.copy()
    pairs, *counts = seen_transitions(state)
    rows, cols = np.divmod(pairs, labels.size)
    same = labels[rows] == labels[cols]
    n1, n01, n11 = (np.bincount(same, weights=c, minlength=2).astype(np.int64)
                    for c in counts)
    sizes = np.bincount(labels)
    same_pairs = int((sizes * (sizes - 1) // 2).sum())
    quiet = np.array((labels.size * (labels.size - 1) // 2 - same_pairs, same_pairs))
    quiet -= np.bincount(same, minlength=2)
    n0 = np.bincount(same, weights=(t - 1) - counts[0],
                     minlength=2).astype(np.int64) + quiet * (t - 1)
    for a, n_a, n_a1 in ((0, n0, n01), (1, n1, n11)):
        for s, est in ((1, P_hat), (0, Q_hat)):
            if n_a[s]:
                p = int(n_a1[s]) / int(n_a[s])
                est[a] = (1 - p, p)
    return P_hat, Q_hat, np.array([n1, n01, n11])
