"""Community recovery algorithms on snapshot arrays.

Offline: spectral initialisation with likelihood refinement (optionally the
leave-one-out variant with a consensus step), and an exhaustive maximum
likelihood oracle for tiny instances.  Online: cumulative log-likelihood
relabeling with known or estimated chain parameters.  Baselines: empirical
transition-rate similarity, persistent-interaction components, and shared
change-point (enemy) two-path components.

Log-likelihood ratios are saturated at +-700 so boundary parameters (for
example a fully persistent intra chain) degrade gracefully.
"""

import math

import numpy as np
from scipy.sparse import csgraph, csr_matrix

from .spectral import SpectralConfig, binarize, spectral_cluster, leave_one_out_cluster

__all__ = [
    "LOG_RATIO_SATURATION",
    "MarkovKernel",
    "CategoricalKernel",
    "refine_recover",
    "OnlineLikelihood",
    "OnlineLikelihoodLearned",
    "transition_rate_clustering",
    "persistent_components",
    "enemy_paths",
    "mle_brute_force",
    "connected_components",
]

LOG_RATIO_SATURATION = 700.0


def _sat_log_ratio(p, q, sat=LOG_RATIO_SATURATION):
    """log(p/q) clipped to [-sat, sat]; 0/0 counts as a zero ratio."""
    p, q = np.asarray(p, dtype=np.float64), np.asarray(q, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(p) - np.log(q)
    out = np.where((p == 0) & (q == 0), 0.0, out)
    return np.clip(out, -sat, sat)


class MarkovKernel:
    """Pair-pattern likelihood of a binary Markov chain, vectorised over a
    snapshot tensor."""

    def __init__(self, chain):
        self.chain = chain

    def log_ratio_matrix(self, array, other):
        """Matrix of ``log f/g`` per node pair, ``f`` this kernel's law and
        ``g`` the other's; diagonal entries are zero."""
        x = np.asarray(getattr(array, "data", array))
        f, g = self.chain, other.chain
        l_init = _sat_log_ratio(f.mu, g.mu)
        l_step = _sat_log_ratio(f.transition, g.transition).ravel()
        out = l_init[x[0]]
        for t in range(1, x.shape[0]):
            out = out + l_step[2 * x[t - 1] + x[t]]
        out = np.clip(out, -LOG_RATIO_SATURATION, LOG_RATIO_SATURATION)
        np.fill_diagonal(out, 0.0)
        return out


class CategoricalKernel:
    """Symbol likelihood of a finite distribution over one snapshot."""

    def __init__(self, dist):
        self.dist = dist

    def log_ratio_matrix(self, array, other):
        x = np.asarray(getattr(array, "data", array))
        if x.shape[0] != 1:
            raise ValueError("categorical kernel expects a single snapshot")
        lr = _sat_log_ratio(self.dist.probs, other.dist.probs)
        out = lr[x[0]]
        np.fill_diagonal(out, 0.0)
        return out


def _one_hot(labels, K):
    out = np.zeros((labels.size, K))
    out[np.arange(labels.size), labels] = 1.0
    return out


def _argmax_rows(L):
    """Row argmax with lowest-index tie break."""
    return L.argmax(axis=1).astype(np.int64)


def refine_recover(array, kernel_f, kernel_g, K, config=None, mode="fast"):
    """Spectral initialisation plus node-wise likelihood refinement.

    ``mode='fast'`` runs one global spectral clustering and one refinement
    sweep.  ``mode='loo'`` runs one leave-one-out spectral clustering per
    node, refines each node against its own clustering, and aligns the
    per-node labellings by maximal block overlap against the first one.
    """
    if K == 1:
        return np.zeros(array.N if hasattr(array, "N") else array.shape[1], dtype=np.int64)
    config = config or SpectralConfig(K=K)
    if config.K != K:
        raise ValueError("config.K disagrees with K")
    adj = binarize(array)
    N = adj.shape[0]
    R = kernel_f.log_ratio_matrix(array, kernel_g)

    if mode == "fast":
        init = spectral_cluster(adj, config)
        return _argmax_rows(R @ _one_hot(init, K))
    if mode != "loo":
        raise ValueError(f"unknown mode {mode!r}")

    per_node = np.empty((N, N), dtype=np.int64)  # per_node[i] = labelling from run i
    for i in range(N):
        partial = leave_one_out_cluster(adj, i, config)
        full = np.empty(N, dtype=np.int64)
        full[np.arange(N) != i] = partial
        h = np.zeros(K)
        others = np.arange(N) != i
        for k in range(K):
            h[k] = R[i, others & (full == k)].sum() if N > 1 else 0.0
        full[i] = int(np.argmax(h))
        per_node[i] = full
    final = np.empty(N, dtype=np.int64)
    base = per_node[0]
    final[0] = base[0]
    for i in range(1, N):
        own = per_node[i] == per_node[i][i]
        overlap = np.array([(own & (base == l)).sum() for l in range(K)])
        final[i] = int(np.argmax(overlap))
    return final


# ---------------------------------------------------------------------------
# Online likelihood clustering
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
        best = _argmax_rows(L)
        keep = L[np.arange(n), labels] >= L[np.arange(n), best]
        return np.where(keep, labels, best)
    out = labels.copy()
    for i in range(n):
        scores = M[i] @ _one_hot(out, K)
        best = int(np.argmax(scores))
        if scores[out[i]] < scores[best]:
            out[i] = best
    return out


class OnlineLikelihood:
    """Online clustering under known Markov interaction parameters.

    Maintains the cumulative pairwise log-likelihood ratio matrix ``M`` and
    the current labelling; each snapshot adds one of four precomputed
    increments per pair and triggers one relabeling sweep.
    """

    def __init__(self, first_snapshot, init_labels, intra, inter, K, synchronous=True):
        x = np.asarray(first_snapshot)
        self.K = K
        self.intra, self.inter = intra, inter
        self.synchronous = synchronous
        self.labels = np.asarray(init_labels, dtype=np.int64).copy()
        l_init = _sat_log_ratio(intra.mu, inter.mu)
        self._delta = _sat_log_ratio(intra.transition, inter.transition).ravel()
        self.M = l_init[x].astype(np.float64)
        np.fill_diagonal(self.M, 0.0)
        self._prev = x.copy()
        self.t = 1

    def step(self, snapshot):
        """Consume one snapshot: update ``M`` and run a relabeling sweep."""
        x = np.asarray(snapshot)
        delta = self._delta[2 * self._prev + x]
        np.fill_diagonal(delta, 0.0)
        self.M += delta
        np.clip(self.M, -LOG_RATIO_SATURATION, LOG_RATIO_SATURATION, out=self.M)
        self.labels = _relabel_sweep(self.M, self.labels, self.K, self.synchronous)
        self._prev = x.copy()
        self.t += 1
        return self

    def run(self, array, record=None):
        """Feed snapshots 2..T of an array; optionally record per-step
        labellings through ``record(t, labels)``."""
        data = np.asarray(getattr(array, "data", array))
        if record is not None:
            record(1, self.labels)
        for t in range(1, data.shape[0]):
            self.step(data[t])
            if record is not None:
                record(self.t, self.labels)
        return self.labels


class OnlineLikelihoodLearned:
    """Online clustering with interaction parameters estimated on the fly.

    Initial laws are estimated from the first snapshot under the initial
    labelling; transition matrices start from the i.i.d. guess implied by
    those laws and are re-estimated from per-pair transition counts averaged
    within (and across) the predicted blocks.  Pairs that have not yet
    visited a state are left out of the averages.

    ``counts[2a + b]`` packs each pair's ``a -> b`` transition count over
    the pairs ``i < j`` in row-major order.  Re-estimation bins pairs by
    visit count ``m = n_a`` and block relation, sums their ``n_a1`` per bin
    as ``hits_m`` and takes the mean of ``n_a1 / n_a`` as
    ``fsum(hits_m / m) / pairs`` over ``m >= 1``.
    """

    def __init__(self, first_snapshot, init_labels, K, refresh_every=1, synchronous=True):
        x = np.asarray(first_snapshot)
        n = x.shape[0]
        self.K = K
        self.synchronous = synchronous
        self.refresh_every = refresh_every
        self.labels = np.asarray(init_labels, dtype=np.int64).copy()
        iu = np.triu_indices(n, k=1)
        self._flat = iu[0] * n + iu[1]  # packed pair -> flat index into an n x n snapshot
        self._same_labels = None
        same = self._same_block()
        vals = x.ravel().take(self._flat)
        self.mu1_hat = float(vals[same].mean()) if same.any() else 0.5
        self.nu1_hat = float(vals[~same].mean()) if (~same).any() else 0.5
        self.P_hat = np.array([[1 - self.mu1_hat, self.mu1_hat]] * 2)
        self.Q_hat = np.array([[1 - self.nu1_hat, self.nu1_hat]] * 2)
        l_init = _sat_log_ratio(
            np.array([1 - self.mu1_hat, self.mu1_hat]),
            np.array([1 - self.nu1_hat, self.nu1_hat]),
        )
        self.M = l_init[x].astype(np.float64)
        np.fill_diagonal(self.M, 0.0)
        self.counts = np.zeros((4, self._flat.size), dtype=np.uint32)  # index 2a + b
        self._prev = x.copy()
        self._prev_packed = vals
        self.t = 1

    def _same_block(self):
        """Packed mask of same-block pairs, recomputed only when labels move."""
        if not np.array_equal(self.labels, self._same_labels):
            self._same_labels = self.labels.copy()
            self._same = (self.labels[:, None] == self.labels).ravel().take(self._flat)
        return self._same

    def step(self, snapshot):
        x = np.asarray(snapshot)
        delta = _sat_log_ratio(self.P_hat, self.Q_hat).ravel()[2 * self._prev + x]
        np.fill_diagonal(delta, 0.0)
        self.M += delta
        np.clip(self.M, -LOG_RATIO_SATURATION, LOG_RATIO_SATURATION, out=self.M)
        self.labels = _relabel_sweep(self.M, self.labels, self.K, self.synchronous)
        packed = x.ravel().take(self._flat)
        idx = 2 * self._prev_packed + packed
        for ab in range(4):
            self.counts[ab] += idx == ab
        self._prev = x.copy()
        self._prev_packed = packed
        self.t += 1
        if (self.t - 1) % self.refresh_every == 0:
            self._reestimate()
        return self

    def _reestimate(self):
        same = self._same_block()
        m = np.arange(1, self.t, dtype=np.float64)
        for a in (0, 1):
            n_a1 = self.counts[2 * a + 1]
            key = 2 * (self.counts[2 * a] + n_a1) + same  # bin 2m + same; m = n_a < t
            pairs = np.bincount(key, minlength=2 * self.t).reshape(-1, 2)[1:]
            hits = np.bincount(key, weights=n_a1, minlength=2 * self.t).reshape(-1, 2)[1:]
            for s, est in ((1, self.P_hat), (0, self.Q_hat)):
                total = int(pairs[:, s].sum())
                if total:
                    p = math.fsum(hits[:, s] / m) / total
                    est[a] = (1 - p, p)

    run = OnlineLikelihood.run


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------


def connected_components(adj_bool):
    """Labels and count of connected components of a boolean adjacency
    matrix; components are numbered in order of their smallest node."""
    count, labels = csgraph.connected_components(
        csr_matrix(np.asarray(adj_bool, dtype=bool)), directed=False
    )
    return labels.astype(np.int64), int(count)


def transition_rate_clustering(array, P, Q):
    """Cluster by comparing per-pair empirical transition rates against the
    known matrices: a pair is linked when some empirical entry is at least
    twice as close to ``P`` as the gap between ``P`` and ``Q``.

    Returns ``(labels, K_hat)`` with blocks the connected components of the
    similarity graph.  Requires ``P != Q`` and at least two snapshots.
    """
    P, Q = np.asarray(P, dtype=np.float64), np.asarray(Q, dtype=np.float64)
    if np.allclose(P, Q):
        raise ValueError("P = Q: transition rates carry no block information")
    data = np.asarray(getattr(array, "data", array))
    if data.shape[0] < 2:
        raise ValueError("need at least two snapshots")
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


def persistent_components(array):
    """Blocks as the large connected components of the always-interacting
    graph (the intersection of all snapshots).

    Components larger than ``sqrt(N)`` become blocks; remaining nodes fall
    to block 0.  ``K_hat = 0`` flags that no component passed the size bar.
    """
    data = np.asarray(getattr(array, "data", array))
    n = data.shape[1]
    persistent = (data != 0).all(axis=0)
    np.fill_diagonal(persistent, False)
    comp_labels, n_comp = connected_components(persistent)
    sizes = np.bincount(comp_labels, minlength=n_comp)
    big = np.nonzero(sizes > math.sqrt(n))[0]
    k_hat = big.size
    out = np.zeros(n, dtype=np.int64)
    order = big[np.argsort(-sizes[big], kind="stable")]
    for rank, c in enumerate(order):
        out[comp_labels == c] = rank
    return out, int(k_hat)


def enemy_paths(array):
    """Blocks as components of the two-step enemy graph.

    Enemies are pairs whose interaction pattern changes at least once;
    sharing an enemy links two nodes.  Intended for two blocks with static
    intra-block patterns.
    """
    data = np.asarray(getattr(array, "data", array))
    n = data.shape[1]
    union = (data != 0).any(axis=0)
    inter = (data != 0).all(axis=0)
    enemies = union & ~inter
    np.fill_diagonal(enemies, False)
    two_path = (enemies.astype(np.int64) @ enemies.astype(np.int64)) > 0
    np.fill_diagonal(two_path, False)
    return connected_components(two_path)


# ---------------------------------------------------------------------------
# Exhaustive maximum likelihood oracle
# ---------------------------------------------------------------------------


def mle_brute_force(array, K, kernel_f, kernel_g, budget=10**6):
    """Exhaustive maximiser of the block-model log likelihood over all
    ``K^N`` labellings; ties resolve to the lexicographically smallest.
    Only feasible at toy sizes (``K^N`` capped by ``budget``)."""
    data = np.asarray(getattr(array, "data", array))
    n = data.shape[1]
    total = K**n
    if total > budget:
        raise ValueError(f"K^N = {total} exceeds budget {budget}")
    R = kernel_f.log_ratio_matrix(array, kernel_g)
    powers = K ** np.arange(n - 1, -1, -1, dtype=np.int64)
    best_score = -math.inf
    best_code = 0
    chunk = 1 << 14
    for start in range(0, total, chunk):
        codes = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = (codes[:, None] // powers[None, :]) % K
        same = digits[:, :, None] == digits[:, None, :]
        scores = 0.5 * (same * R[None, :, :]).sum(axis=(1, 2))
        m = int(np.argmax(scores))
        if scores[m] > best_score:
            best_score = float(scores[m])
            best_code = int(codes[m])
    return ((best_code // powers) % K).astype(np.int64)
