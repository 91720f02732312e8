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
    """Pair-pattern likelihood of a binary Markov chain, vectorised over the
    dense form of a snapshot array."""

    def __init__(self, chain):
        self.chain = chain

    def log_ratio_matrix(self, array, other):
        """Matrix of ``log f/g`` per node pair, ``f`` this kernel's law and
        ``g`` the other's; diagonal entries are zero."""
        if array.values is not None:
            raise ValueError(f"Markov kernel needs 0/1 snapshots, got symbol {array.values.max()}")
        x = array.dense()
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
        x = array.dense()
        if x.shape[0] != 1:
            raise ValueError("categorical kernel expects a single snapshot")
        lr = _sat_log_ratio(self.dist.probs, other.dist.probs)
        if x.max(initial=0) >= lr.size:
            raise ValueError(f"symbol {x.max()} outside the {lr.size}-symbol alphabet")
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
        return np.zeros(array.N, dtype=np.int64)
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


class _PairLogRatio:
    """The cumulative pairwise log-likelihood ratio matrix ``M`` of the
    online algorithms, stored sparsely.

    Every pair that has never interacted holds the same value, ``base``.
    Pairs that have interacted (``keys``: sorted flat indices ``i*N + j``,
    ``i < j``, split into ``rows`` and ``cols``) hold explicit ``vals``;
    ``on`` marks the pairs set in the latest snapshot.  Each step adds the
    increment of every pair's transition and clips, with the same float
    operations a dense ``M`` would take, so ``dense()`` is bit-identical to
    it.  With ``count``, it also keeps each active pair's counts of the
    transitions ``0 -> 1``, ``1 -> 0`` and ``1 -> 1`` (``counts[:, 2a + b -
    1]``); its ``0 -> 0`` transitions are the rest of the steps taken.
    """

    def __init__(self, n, first, l_init, count=False):
        self.n = n
        self._set_keys(self._upper(first))
        self.base = float(l_init[0])
        self.vals = np.full(self.keys.size, l_init[1], dtype=np.float64)
        self.on = np.ones(self.keys.size, dtype=bool)
        self.counts = np.zeros((self.keys.size, 3), dtype=np.uint32) if count else None

    def _upper(self, snapshot):
        x = np.asarray(snapshot, dtype=np.int64)
        return x[x // self.n < x % self.n]

    def _set_keys(self, keys):
        self.keys = keys
        self.rows, self.cols = np.divmod(keys, self.n)

    def add(self, snapshot, increments):
        """Consume the next snapshot (sorted ``i*N + j`` indices): add
        ``increments[2a + b]`` to each pair moving from state a to b."""
        x = self._upper(snapshot)
        pos = np.searchsorted(self.keys, x)
        fresh = np.ones(x.size, dtype=bool)
        inside = pos < self.keys.size
        fresh[inside] = self.keys[pos[inside]] != x[inside]
        if fresh.any():  # first interactions: these pairs leave the base
            at = pos[fresh]
            slots = at + np.arange(at.size)  # the new pairs' places
            kept = np.arange(self.keys.size) + np.cumsum(
                np.bincount(at, minlength=self.keys.size + 1))[:-1]

            def grown(old, new):
                out = np.empty((old.shape[0] + at.size,) + old.shape[1:], dtype=old.dtype)
                out[slots] = new
                out[kept] = old
                return out

            self._set_keys(grown(self.keys, x[fresh]))
            self.vals = grown(self.vals, self.base)
            self.on = grown(self.on, False)
            if self.counts is not None:
                self.counts = grown(self.counts, 0)
        cur = np.zeros(self.keys.size, dtype=bool)
        cur[pos + np.cumsum(fresh) - fresh] = True  # x's places after the insertions
        move = 2 * self.on + cur
        self.vals += increments[move]
        np.clip(self.vals, -LOG_RATIO_SATURATION, LOG_RATIO_SATURATION, out=self.vals)
        self.base = min(max(self.base + increments[0], -LOG_RATIO_SATURATION),
                        LOG_RATIO_SATURATION)
        if self.counts is not None:
            moved = np.flatnonzero(move)
            self.counts[moved, move[moved] - 1] += 1
        self.on = cur

    def sweep(self, labels, K, synchronous=True):
        """One relabeling pass: each node moves to the block maximising its
        summed log-likelihood ratio.  Ties keep the current label, then fall
        to the lowest index.  Synchronous sweeps score every node against
        the labelling frozen at entry; the asynchronous variant reads
        in-place updates in node order.  Costs O(active pairs + N K)."""
        n = labels.size
        if synchronous:
            others = np.tile(np.bincount(labels, minlength=K), n)
            others[np.arange(n) * K + labels] -= 1
            summed = np.zeros(n * K)
            for rows, cols in ((self.rows, self.cols), (self.cols, self.rows)):
                key = rows * K + labels[cols]
                others -= np.bincount(key, minlength=n * K)
                summed += np.bincount(key, weights=self.vals, minlength=n * K)
            L = (self.base * others + summed).reshape(n, K)
            best = _argmax_rows(L)
            keep = L[np.arange(n), labels] >= L[np.arange(n), best]
            return np.where(keep, labels, best)
        rows = np.concatenate((self.rows, self.cols))  # both orientations
        order = np.argsort(rows, kind="stable")
        cols = np.concatenate((self.cols, self.rows))[order]
        vals = np.concatenate((self.vals, self.vals))[order]
        bounds = np.searchsorted(rows[order], np.arange(n + 1)).tolist()
        out = labels.copy()
        sizes = np.bincount(out, minlength=K)
        for i in range(n):
            lo, hi = bounds[i], bounds[i + 1]
            near = out[cols[lo:hi]]
            others = sizes - np.bincount(near, minlength=K)
            others[out[i]] -= 1
            scores = self.base * others + np.bincount(near, weights=vals[lo:hi], minlength=K)
            best = int(np.argmax(scores))
            if scores[out[i]] < scores[best]:
                sizes[out[i]] -= 1
                sizes[best] += 1
                out[i] = best
        return out

    def dense(self):
        """``M`` as a dense ``N x N`` matrix with zero diagonal."""
        M = np.full((self.n, self.n), self.base)
        M[self.rows, self.cols] = self.vals
        M[self.cols, self.rows] = self.vals
        np.fill_diagonal(M, 0.0)
        return M


class OnlineLikelihood:
    """Online clustering under known Markov interaction parameters.

    Maintains the cumulative pairwise log-likelihood ratio matrix (sparse,
    in ``ratio``; ``ratio.dense()`` gives ``M``) and the current labelling.
    Snapshots are sorted flat indices ``i*N + j`` of their set bits, as
    ``SnapshotArray.snapshot(t)`` returns; each adds one of four
    precomputed increments per pair and triggers one relabeling sweep.
    """

    def __init__(self, first_snapshot, init_labels, intra, inter, K, synchronous=True):
        self.K = K
        self.intra, self.inter = intra, inter
        self.synchronous = synchronous
        self.labels = np.asarray(init_labels, dtype=np.int64).copy()
        self._delta = _sat_log_ratio(intra.transition, inter.transition).ravel()
        l_init = _sat_log_ratio(intra.mu, inter.mu)
        self.ratio = _PairLogRatio(self.labels.size, first_snapshot, l_init)
        self.t = 1

    def step(self, snapshot):
        """Consume one snapshot: update ``M`` and run a relabeling sweep."""
        self.ratio.add(snapshot, self._delta)
        self.labels = self.ratio.sweep(self.labels, self.K, self.synchronous)
        self.t += 1
        return self

    def run(self, array, record=None):
        """Feed snapshots 2..T of a SnapshotArray; optionally record per-step
        labellings through ``record(t, labels)``."""
        if record is not None:
            record(1, self.labels)
        for t in range(1, array.T):
            self.step(array.snapshot(t))
            if record is not None:
                record(self.t, self.labels)
        return self.labels


class OnlineLikelihoodLearned:
    """Online clustering with interaction parameters estimated on the fly.

    Initial laws are estimated from the first snapshot under the initial
    labelling; transition matrices start from the i.i.d. guess implied by
    those laws and are re-estimated after every step from per-pair transition
    counts averaged within (and across) the predicted blocks.  Pairs that
    have not yet visited a state are left out of the averages.

    ``ratio.counts`` holds the transition counts of the pairs that have
    interacted; every other pair has made ``t - 1`` transitions ``0 -> 0``
    and is counted in closed form.  Re-estimation bins pairs by visit count
    ``m = n_a`` and block relation, sums their ``n_a1`` per bin as
    ``hits_m`` and takes the mean of ``n_a1 / n_a`` as
    ``fsum(hits_m / m) / pairs`` over ``m >= 1``.
    """

    def __init__(self, first_snapshot, init_labels, K, synchronous=True):
        self.K = K
        self.synchronous = synchronous
        self.labels = np.asarray(init_labels, dtype=np.int64).copy()
        n = self.labels.size
        x = np.asarray(first_snapshot, dtype=np.int64)
        same_pairs, pairs = self._pair_totals()
        rows, cols = np.divmod(x, n)
        upper = rows < cols
        ones = int(upper.sum())
        ones_same = int((self.labels[rows[upper]] == self.labels[cols[upper]]).sum())
        self.mu1_hat = ones_same / same_pairs if same_pairs else 0.5
        self.nu1_hat = (ones - ones_same) / (pairs - same_pairs) if pairs > same_pairs else 0.5
        self.P_hat = np.array([[1 - self.mu1_hat, self.mu1_hat]] * 2)
        self.Q_hat = np.array([[1 - self.nu1_hat, self.nu1_hat]] * 2)
        l_init = _sat_log_ratio(
            np.array([1 - self.mu1_hat, self.mu1_hat]),
            np.array([1 - self.nu1_hat, self.nu1_hat]),
        )
        self.ratio = _PairLogRatio(n, x, l_init, count=True)
        self.t = 1

    def _pair_totals(self):
        """Same-block pairs and all pairs ``i < j`` under the labels."""
        sizes = np.bincount(self.labels).astype(np.int64)
        n = self.labels.size
        return int((sizes * (sizes - 1) // 2).sum()), n * (n - 1) // 2

    def step(self, snapshot):
        self.ratio.add(snapshot, _sat_log_ratio(self.P_hat, self.Q_hat).ravel())
        self.labels = self.ratio.sweep(self.labels, self.K, self.synchronous)
        self.t += 1
        self._reestimate()
        return self

    def _reestimate(self):
        t, ratio = self.t, self.ratio
        same = self.labels[ratio.rows] == self.labels[ratio.cols]
        # pairs that never interacted: n_0 = t - 1 and n_01 = 0, bin m = t - 1
        same_pairs, pairs = self._pair_totals()
        active_same = int(same.sum())
        quiet = (pairs - same_pairs - (same.size - active_same), same_pairs - active_same)
        m = np.arange(1, t, dtype=np.float64)
        n01, n10, n11 = ratio.counts.T
        n1 = n10 + n11
        for a, n_a, n_a1 in ((0, (t - 1) - n1, n01), (1, n1, n11)):
            key = 2 * n_a + same  # bin 2m + same; m = n_a < t
            binned = np.bincount(key, minlength=2 * t).reshape(-1, 2)[1:]
            hits = np.bincount(key, weights=n_a1, minlength=2 * t).reshape(-1, 2)[1:]
            if a == 0:
                binned[t - 2] += quiet
            for s, est in ((1, self.P_hat), (0, self.Q_hat)):
                total = int(binned[:, s].sum())
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
    data = array.dense()
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
    data = array.dense()
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
    data = array.dense()
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
    data = array.dense()
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
