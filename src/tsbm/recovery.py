"""Community recovery algorithms on snapshot arrays.  Each reads the node
pairs' interaction patterns from the array's sorted indices, whose pairs
``sbm._entry_slots`` finds; one sparse per-pair accumulator,
``_PairLogRatio``, serves every likelihood.

Offline: spectral initialisation with likelihood refinement (optionally the
leave-one-out variant with a consensus step), and an exhaustive maximum
likelihood oracle for tiny instances.  Online: cumulative log-likelihood
relabeling with known or estimated chain parameters.  Baselines: empirical
transition-rate similarity, persistent-interaction components, and shared
change-point (enemy) two-path components.

Log-likelihood ratios are saturated at +-700 after every snapshot, so
boundary parameters (for example a fully persistent intra chain) degrade
gracefully.
"""

import math

import numpy as np
from scipy.sparse import bmat

from .markov import BinaryMarkovChain
from .sbm import _SLOT_CHUNK, _entry_slots
from .spectral import _csr, binarize, spectral_cluster, leave_one_out_cluster

LOG_RATIO_SATURATION = 700.0
_MLE_BUDGET = 10**6  # labellings that mle_brute_force may enumerate


def _sat_log_ratio(p, q):
    """log(p/q) clipped to the saturation bound; 0/0 counts as a zero ratio."""
    p, q = np.asarray(p, dtype=np.float64), np.asarray(q, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(p) - np.log(q)
    out = np.where((p == 0) & (q == 0), 0.0, out)
    return np.clip(out, -LOG_RATIO_SATURATION, LOG_RATIO_SATURATION)


def _require_binary(array, name):
    """Reject an array holding a symbol above 1 (it then carries ``values``)."""
    if array.values is not None:
        raise ValueError(f"{name} needs 0/1 snapshots, got symbol {array.values.max()}")


# The near-tie tolerance's floor per unit of score scale: 35 times the bound
# ``_PairLogRatio._tolerance`` derives at N = 1000 after 30 rounds.
_TIE_TOL = 1e-9
# In-place sweeps rescore the rows after a move in chunks of 8, 16, 32, ...:
# 8 rows cost about what one does, and r quiet rows take O(log r) chunks.
_FIRST_CHUNK, _CHUNK_GROWTH = 8, 2


def _chunks(size):
    """``range(size)`` as slices of at most ``_SLOT_CHUNK``."""
    return [slice(lo, min(lo + _SLOT_CHUNK, size)) for lo in range(0, size, _SLOT_CHUNK)]


def _block_keys(ends, K, labels, partners):
    """``ends * K + labels[partners]`` in int64; chunked intp gathers (int32: 3x slower)."""
    key = np.multiply(ends, K, dtype=np.int64)
    for at in _chunks(key.size):
        key[at] += labels[partners[at].astype(np.intp)]
    return key


class _PairLogRatio:
    """A pairwise log-likelihood ratio accumulated over snapshots (the
    online ``M``, the kernels' whole-pattern ratio), stored sparsely.

    It lists every pair the array sets, from the start, in increasing ``i*N
    + j`` order (``_entry_slots``' pairs: a pair's slot is its place), with
    ``vals`` and ends ``rows``, ``cols`` (``i < j``; int32 while N < 2^31,
    widened before any product); ``ends`` are those of the pairs the latest
    snapshot sets.  Every other pair holds ``base``, and so does a listed
    pair until a snapshot sets it, bit for bit: both take the same float
    operations a dense ``M`` would, so ``dense()`` is bit-identical to it.

    Sweeps read kept block sums: ``_sums[i, k]`` sums the offsets ``vals -
    base`` of node i's listed partners in block k under ``_under``, the
    last sweep's labels; ``add`` updates them, a clip or a synchronous
    move drops them.  Passes over every pair add a chunk at a time into a
    zeroed array (``np.add.at``, one ``bincount``'s bits), so no temporary
    follows the pairs.
    """

    def __init__(self, array, l_init):
        """A pair holding symbol ``s`` in ``array``'s first snapshot starts
        at ``l_init[s]``: 1 in a binary array, its entry of ``values`` (where
        snapshot 0 leads) in a categorical one."""
        n = self.n = array.N
        self.array, (pairs, self.slots, self.stay, self.leaves) = array, _entry_slots(array)
        ends = np.int32 if n < 2**31 else np.int64  # widened before * N
        self.rows, self.cols = np.empty(pairs.size, ends), np.empty(pairs.size, ends)
        for at in _chunks(pairs.size):
            rows = pairs[at] // n  # one floor division: np.divmod took 4x as long
            self.rows[at], self.cols[at] = rows, pairs[at] - rows * n
        del pairs
        self.base = float(l_init[0])
        self.vals = np.full(self.rows.size, self.base)
        self._peak = float(np.abs(l_init).max())  # a bound on |vals| and |base|
        self._sums = self._under = self._incidence = None  # built on first use
        hi = array.span(0)[1]
        codes = np.ones(hi, dtype=np.int64) if array.values is None else array.values[:hi]
        self.vals[self.slots[:hi]] = l_init[codes]

    def add(self, t, increments):
        """Consume snapshot ``t``, the one after the last taken: add
        ``increments[2a + b]`` to each pair moving from state a to b, in one
        scalar add over the listed pairs and O(pairs set + N K); the clip
        runs once the running bound ``_peak`` passes it, and drops the kept
        sums, so the next sweep rebuilds them."""
        (a, b), (lo, hi) = self.array.span(t - 1), self.array.span(t)
        gone = self.slots[a:b][np.flatnonzero(self.leaves[a:b])]  # mask: 3x slower
        touched = np.concatenate((gone, self.slots[lo:hi]), dtype=np.intp)  # leavers first
        delta = np.concatenate((np.full(gone.size, increments[2]),
                                increments[1 + 2 * self.stay[lo:hi]]))
        vals, quiet = self.vals, increments[0]
        old = vals[touched]
        vals += quiet
        vals[touched] = old + delta
        delta -= quiet  # each offset's change, to rounding
        r, c = self.rows[touched], self.cols[touched]
        self.ends = r[gone.size:], c[gone.size:]  # snapshot t's
        del old, touched  # temporaries go as soon as used
        self.base = min(max(self.base + quiet, -LOG_RATIO_SATURATION), LOG_RATIO_SATURATION)
        self._peak += np.abs(increments).max()
        if self._peak > LOG_RATIO_SATURATION:
            self._peak, self._sums = LOG_RATIO_SATURATION, None
            np.clip(vals, -LOG_RATIO_SATURATION, LOG_RATIO_SATURATION, out=vals)
        if self._sums is not None:
            for ends, partners in ((r, c), (c, r)):
                np.add.at(self._sums.reshape(-1),
                          _block_keys(ends, self._sums.shape[1], self._under, partners), delta)
            self._age += 1

    def scores(self, labels, K, nodes=None):
        """The ``N x K`` matrix of each node's summed ratio with the other
        nodes of each block under ``labels``, in O(pairs + N K); or rows
        ``nodes`` alone, bit for bit (the same float operations on the same
        pairs in pair order), in O(N + their degrees)."""
        chunks = [(at, at) for at in _chunks(self.vals.size)] if nodes is None else [
            self._incident(nodes)]
        nodes = np.arange(labels.size) if nodes is None else nodes
        h = len(nodes)
        slot = np.zeros(self.n, dtype=np.int64)
        slot[nodes] = np.arange(h)
        others = np.tile(np.bincount(labels, minlength=K), h)
        others[np.arange(h) * K + labels[nodes]] -= 1
        summed = np.zeros(h * K)
        for e, (ends, partners) in enumerate(((self.rows, self.cols), (self.cols, self.rows))):
            for at in chunks:
                key = _block_keys(slot[ends[at[e]]], K, labels, partners[at[e]])
                np.subtract.at(others, key, 1)
                np.add.at(summed, key, self.vals[at[e]])
        return (self.base * others + summed).reshape(h, K)

    def _incident(self, nodes):
        """The places of the pairs with their row end in ``nodes`` (ranges: rows
        are sorted), then of those with their col end (an argsort of ``cols``,
        built in O(pairs log) on first use: an in-place move, either sweep's
        near tie or refine-loo's row), each node's in pair order."""
        if self._incidence is None:  # node ids searched in the ends' dtype: no cast of the ends
            order = np.argsort(self.cols, kind="stable")
            self._incidence = order, *(np.searchsorted(e, np.arange(self.n + 1, dtype=e.dtype))
                                       for e in (self.rows, self.cols[order]))
        order, row_ptr, col_ptr = self._incidence
        return (np.concatenate([np.arange(row_ptr[i], row_ptr[i + 1]) for i in nodes]),
                np.concatenate([order[col_ptr[i]:col_ptr[i + 1]] for i in nodes]))

    def _block_sums(self, labels, K):
        """The kept sums under ``labels``, rebuilt in O(pairs) if stale."""
        if self._sums is None or self._sums.shape[1] != K or np.any(labels != self._under):
            sums = np.zeros(self.n * K)
            for at in _chunks(self.vals.size):  # a pair at base (as any not yet set) adds 0
                apart = at.start + np.flatnonzero(self.vals[at] != self.base)
                r, c, offsets = self.rows[apart], self.cols[apart], self.vals[apart] - self.base
                for ends, partners in ((r, c), (c, r)):
                    np.add.at(sums, _block_keys(ends, K, labels, partners), offsets)
            self._sums, self._under, self._age = sums.reshape(self.n, K), labels.copy(), 0
        return self._sums

    def _tolerance(self):
        """The lead of a node's best block below which the kept sums may rank
        its blocks otherwise than ``scores``, one bound for every node.  With
        u = eps / 2, n_i node i's degree in the store (< N), ``_peak`` P and
        B = (|base| + P) N >= |base| N + P n_i, an entry errs, to first order,
        by at most (n_i + 3) u B in ``scores`` (n_i values summed in turn),
        2 (n_i + 1) u B in a rebuilt sum (n_i offsets of at most 2P),
        2 (n_i + 4) u B per round of updates since (``_age`` a: n_i changes,
        each offset drifting 2 u P in the scalar add) and 3 u B forming the
        score: by (2a + 3)(n_i + 5) u B <= eps (a + 2) (N + 4) B in all.
        Twice that, doubled for second-order terms, and at least
        ``_TIE_TOL B``."""
        bound = 4 * np.finfo(np.float64).eps * (self._age + 2) * (self.n + 4)
        return max(_TIE_TOL, bound) * (abs(self.base) + self._peak) * self.n

    def sweep(self, labels, K, synchronous=True):
        """One relabeling pass: each node moves to the block maximising its
        summed log-likelihood ratio.  Ties keep the current label, then fall
        to the lowest index.  Nodes are scored from the kept sums, and those
        within ``_tolerance`` of a tie from their exact rows, so the labels
        are those that ``scores`` gives, tie for tie.  Synchronous sweeps
        score every node against the labelling frozen at entry, in O(N K)
        when the sums are current; a move drops them.  In-place sweeps read
        updates in node order: a move updates its partners' sums, and the
        sweep rescores forward from it in growing chunks, so m moves cost
        O(N K + m K log N) plus the movers' degrees and the incidence."""
        n, sums, sizes = labels.size, self._block_sums(labels, K), np.bincount(labels, minlength=K)
        self._age += not synchronous  # in-place moves are one more round of updates
        out, start, tol = labels.copy(), 0, self._tolerance()
        chunk = n if synchronous else _FIRST_CHUNK
        while start < n:
            stop = min(start + chunk, n)
            own = out[start:stop]
            L = self.base * (sizes - (own[:, None] == np.arange(K))) + sums[start:stop]
            if K > 1:
                top = np.sort(L, axis=1)
                near = np.flatnonzero(top[:, -1] - top[:, -2] <= tol)
                if near.size:  # rescored from the exact rows
                    L[near] = self.scores(out, K, start + near)
            best = L.argmax(axis=1)  # ties go to the lowest block
            at = np.arange(own.size)
            new = np.where(L[at, own] < L[at, best], best, own)
            movers = np.flatnonzero(new != own)
            if synchronous:
                if movers.size:  # the kept sums were taken under the old labels
                    self._sums = None
                return new
            if movers.size == 0:
                start, chunk = stop, chunk * _CHUNK_GROWTH
                continue
            v, b = start + movers[0], new[movers[0]]
            rows, cols = self._incident([v])
            partners = np.concatenate((self.cols[rows], self.rows[cols]))
            offsets = self.vals[np.concatenate((rows, cols))] - self.base
            sums[partners, out[v]] -= offsets
            sums[partners, b] += offsets
            sizes[[out[v], b]] += (-1, 1)
            out[v] = b
            start, chunk = v + 1, _FIRST_CHUNK
        self._under = out.copy()
        return out

    def dense(self):
        """``M`` as a dense ``N x N`` matrix with zero diagonal."""
        M = np.full((self.n, self.n), self.base)
        M[self.rows, self.cols] = self.vals
        M[self.cols, self.rows] = self.vals
        np.fill_diagonal(M, 0.0)
        return M


class MarkovKernel:
    """Pair-pattern likelihood of a binary Markov chain."""

    def __init__(self, chain):
        self.chain = chain

    def log_ratio_matrix(self, array, other):
        """``log f/g`` of each node pair's whole pattern, ``f`` this kernel's
        law and ``g`` the other's, as a ``_PairLogRatio`` (``dense()`` gives
        the matrix, with zero diagonal).  The snapshots are replayed as the
        online ``M`` takes them, clipped after each one."""
        _require_binary(array, "Markov kernel")
        f, g = self.chain, other.chain
        ratio = _PairLogRatio(array, _sat_log_ratio(f.mu, g.mu))
        increments = _sat_log_ratio(f.transition, g.transition).ravel()
        for t in range(1, array.T):
            ratio.add(t, increments)
        return ratio


class CategoricalKernel:
    """Symbol likelihood of a finite distribution over one snapshot."""

    def __init__(self, dist):
        self.dist = dist

    def log_ratio_matrix(self, array, other):
        if array.T != 1:
            raise ValueError("categorical kernel expects a single snapshot")
        lr = _sat_log_ratio(self.dist.probs, other.dist.probs)
        top = array.values.max() if array.values is not None else int(array.data.size > 0)
        if top >= lr.size:
            raise ValueError(f"symbol {top} outside the {lr.size}-symbol alphabet")
        return _PairLogRatio(array, lr)


def refine_recover(array, kernel_f, kernel_g, K, seed=0, mode="fast"):
    """Seeded spectral initialisation plus node-wise likelihood refinement.

    ``mode='fast'`` runs one global spectral clustering and one refinement
    sweep.  ``mode='loo'`` runs one leave-one-out spectral clustering per
    node (on the minor of the other N - 1 nodes, so it needs K <= N - 1),
    gives the node its best block against that clustering (its row of
    ``scores``, from its own pairs in O(N + degree)), and aligns the
    per-node labellings by maximal block overlap against the first one, in
    O(N) per node.
    """
    if mode not in ("fast", "loo"):
        raise ValueError(f"unknown mode {mode!r}")
    if K == 1:
        return np.zeros(array.N, dtype=np.int64)
    if mode == "loo" and K > array.N - 1:
        raise ValueError(f"leave-one-out refinement needs K <= N - 1: each minor has "
                         f"{array.N - 1} nodes, got K = {K}")
    if mode == "fast":  # the union graph is gone before the ratio is built
        start = spectral_cluster(binarize(array), K, seed)
        return kernel_f.log_ratio_matrix(array, kernel_g).scores(start, K).argmax(axis=1)

    adj, N = binarize(array), array.N
    R = kernel_f.log_ratio_matrix(array, kernel_g)
    out = np.empty(N, dtype=np.int64)
    for i in range(N):
        full = np.zeros(N, dtype=np.int64)  # run i's labels; its own entry is not scored
        full[np.arange(N) != i] = leave_one_out_cluster(adj, i, K, seed)
        full[i] = int(np.argmax(R.scores(full, K, [i])[0]))
        if i == 0:
            run0 = full
        out[i] = np.bincount(run0[full == full[i]], minlength=K).argmax()
    return out


# ---------------------------------------------------------------------------
# Online likelihood clustering
# ---------------------------------------------------------------------------


class OnlineLikelihood:
    """Online clustering under known Markov interaction parameters.

    Maintains the cumulative pairwise log-likelihood ratio matrix (sparse,
    in ``ratio``; ``ratio.dense()`` gives ``M``) and the current labelling
    over the snapshots of one binary SnapshotArray, of which it has taken
    the first ``t``.  Each snapshot adds one of the four increments ``log
    P_hat / Q_hat`` (intra over inter transitions) per pair and triggers one
    relabeling sweep: a scalar add over the listed pairs plus O(pairs set +
    N K) while no node moves.  The learner's ``step`` runs the same body,
    then re-estimates; neither class's ``step`` calls the other's.
    """

    def __init__(self, array, init_labels, intra, inter, K, synchronous=True):
        _require_binary(array, "online recovery")
        self.array = array
        self.K = K
        self.synchronous = synchronous
        self.labels = _start_labels(init_labels, array.N, K)
        self.P_hat, self.Q_hat = intra.transition, inter.transition
        self.ratio = _PairLogRatio(array, _sat_log_ratio(intra.mu, inter.mu))
        self.t = 1

    def step(self):
        """Consume snapshot ``t`` (0-based; IndexError past the last): update
        ``M``, then run a relabeling sweep."""
        return self._step()

    def _step(self):
        self.ratio.add(self.t, _sat_log_ratio(self.P_hat, self.Q_hat).ravel())
        self.labels = self.ratio.sweep(self.labels, self.K, self.synchronous)
        self.t += 1
        return self

    def run(self, record=None):
        """Consume the snapshots not yet taken; optionally record the
        labelling at entry and after each step through ``record(t,
        labels)``."""
        if record is not None:
            record(self.t, self.labels)
        while self.t < self.array.T:
            self.step()
            if record is not None:
                record(self.t, self.labels)
        return self.labels


def _start_labels(init_labels, N, K):
    """A checked int64 copy of ``init_labels``: one label in ``0 .. K - 1`` per node."""
    labels = np.array(init_labels, dtype=np.int64)
    if labels.shape != (N,):
        raise ValueError(f"need {N} start labels, got shape {labels.shape}")
    if (outside := labels[(labels < 0) | (labels >= K)]).size:
        raise ValueError(f"start label {outside[0]} outside 0..{K - 1} for K={K}")
    return labels


def _pair_totals(labels):
    """Same-block pairs and all pairs ``i < j`` under ``labels``."""
    sizes = np.bincount(labels).astype(np.int64)
    n = labels.size
    return int((sizes * (sizes - 1) // 2).sum()), n * (n - 1) // 2


def _tally(same, stay):
    """``np.bincount(2 * stay + same, minlength=4).reshape(2, 2)`` for bool
    arrays of one length, from three ``count_nonzero`` calls: several times
    faster."""
    both, ones, stays = (np.count_nonzero(x) for x in (same & stay, same, stay))
    return np.array(((same.size - ones - stays + both, ones - both), (stays - both, both)))


class OnlineLikelihoodLearned(OnlineLikelihood):
    """Online clustering with interaction parameters estimated on the fly.

    Initial laws are estimated from the first snapshot under the initial
    labelling; the run starts from the i.i.d. chains of those laws, and
    ``step`` re-estimates its transition matrices after each sweep by maximum
    likelihood, pooling the transitions of all pairs within (and across)
    the predicted blocks: ``p_a1 = sum n_a1 / sum n_a`` (Anderson & Goodman,
    1957).  A class that has not yet visited state ``a`` keeps its row.

    ``_pooled[c, s]`` counts transitions ``c`` of the pairs of class ``s``
    (0 across, 1 within) from the entries: ``n_1`` are those before
    snapshot ``t - 1``, ``n_01`` and ``n_11`` the later ones that do not or
    do stay (``ratio.stay``); ``n_0`` follows, as each pair has made ``t -
    1`` transitions.  While the labels stay, a step counts the entries of
    its two snapshots, in O(pairs set); after a sweep that moved a node,
    every entry so far, a chunk at a time, each classed through its pair's
    ends in the store.  Being integers, the sums equal those taken afresh.
    """

    def __init__(self, array, init_labels, K, synchronous=True):
        labels = _start_labels(init_labels, array.N, K)
        same0 = np.equal(*(labels[e] for e in np.divmod(array.snapshot(0), array.N)))
        ones_same, ones = np.count_nonzero(same0), same0.size
        same, pairs = _pair_totals(labels)
        mu1 = self.mu1_hat = ones_same / same if same else 0.5
        nu1 = self.nu1_hat = (ones - ones_same) / (pairs - same) if pairs > same else 0.5
        super().__init__(array, labels, BinaryMarkovChain(mu1, mu1, mu1),
                         BinaryMarkovChain(nu1, nu1, nu1), K, synchronous)
        self._pooled_under = None  # the labels the sums were taken under

    def step(self):
        """Consume snapshot ``t`` as the known-parameter step does, then
        re-estimate ``P_hat`` and ``Q_hat`` from the transitions seen."""
        self._step()._reestimate()
        return self

    def _reestimate(self):
        ratio, labels, (lo, hi) = self.ratio, self.labels, self.array.span(self.t - 1)
        same = np.equal(*(labels[e.astype(np.intp)] for e in ratio.ends))  # snapshot t - 1's
        into = _tally(same, ratio.stay[lo:hi])  # rows 0 -> 1, then 1 -> 1
        if np.array_equal(labels, self._pooled_under):
            self._pooled[0] += self._last  # snapshot t - 2's
        else:  # every entry before snapshot t - 1 again, a chunk at a time
            self._pooled, self._pooled_under = np.zeros((3, 2), dtype=np.int64), labels.copy()
            for e in _chunks(lo):
                at = ratio.slots[e].astype(np.intp)
                was = np.equal(*(labels[x[at].astype(np.intp)] for x in (ratio.rows, ratio.cols)))
                later = max(self.array.span(1)[0] - e.start, 0)
                ones = np.count_nonzero(was)
                self._pooled[0] += was.size - ones, ones
                self._pooled[1:] += _tally(was[later:], ratio.stay[e][later:])
        self._pooled[1:] += into
        self._last = into.sum(axis=0)
        n1, n01, n11 = self._pooled
        same_pairs, pairs = _pair_totals(labels)
        n0 = np.array((pairs - same_pairs, same_pairs)) * (self.t - 1) - n1
        for a, n_a, n_a1 in ((0, n0, n01), (1, n1, n11)):
            for s, est in ((1, self.P_hat), (0, self.Q_hat)):
                if n_a[s]:
                    p = n_a1[s] / n_a[s]
                    est[a] = (1 - p, p)


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------


def connected_components(adj):
    """Labels and count of connected components of a symmetric adjacency
    matrix, sparse (or dense, which ``csgraph`` converts itself); components
    are numbered in order of their smallest node.  The first call imports
    ``scipy.sparse.csgraph``."""
    from scipy.sparse import csgraph

    count, labels = csgraph.connected_components(adj, directed=False)
    return labels.astype(np.int64), int(count)


def transition_rate_clustering(array, P, Q):
    """Cluster by comparing per-pair empirical transition rates against the
    known matrices: a pair is linked when some empirical entry is at least
    twice as close to ``P`` as the gap between ``P`` and ``Q``.

    Returns ``(labels, K_hat)`` with blocks the connected components of the
    similarity graph.  Requires ``P != Q`` and at least two snapshots.  The
    pairs that never interact share one decision: ``T - 1`` steps ``0 -> 0``.
    The components come from a ``spectral._csr`` graph in O(N + active pairs).
    """
    P, Q = np.asarray(P, dtype=np.float64), np.asarray(Q, dtype=np.float64)
    if np.allclose(P, Q):
        raise ValueError("P = Q: transition rates carry no block information")
    _require_binary(array, "transition-rate clustering")
    if array.T < 2:
        raise ValueError(f"need at least two snapshots, got T={array.T}")
    pairs, n1, n01, n11 = _pair_transitions(array)
    # counts[2a + b] per active pair, then one column for the pairs never set
    counts = np.zeros((4, pairs.size + 1))
    counts[1:, :-1] = n01, n1 - n11, n11
    counts[0] = (array.T - 1) - counts[1:].sum(axis=0)
    linked = np.zeros(counts.shape[1], dtype=bool)
    with np.errstate(invalid="ignore"):  # 0 / 0 where no step starts in a: NaN, never close
        for a, b in np.ndindex(2, 2):
            n_a = counts[2 * a] + counts[2 * a + 1]
            linked |= np.abs(counts[2 * a + b] / n_a - P[a, b]) <= 0.5 * abs(P[a, b] - Q[a, b])
    n = array.N
    codes = pairs[linked[:-1] != linked[-1]]  # the active pairs deciding against the rest
    if linked[-1]:
        # the complement of the sparse graph H of these pairs: a node v of
        # least H-degree links to every node but its H-neighbours S, so the
        # rows of v and of S (|S| <= 2 |H| / N) span the same components
        i, j = np.divmod(codes, n)
        v = int(np.bincount(np.concatenate((i, j)), minlength=n).argmin())
        src = np.sort(np.concatenate(([v], j[i == v], i[j == v])))  # so the codes increase
        slot = np.full(n, -1)
        slot[src] = np.arange(src.size)
        rows = np.ones((src.size, n), dtype=bool)
        for a, b in ((i, j), (j, i)):
            mine = slot[a] >= 0
            rows[slot[a[mine]], b[mine]] = False
        at, j = np.nonzero(rows)
        codes = src[at] * n + j
    return connected_components(_csr(n, codes, np.ones(codes.size, dtype=bool)))


def _pair_transitions(array):
    """The pairs ``array`` sets (``_entry_slots``) and their transition
    counts ``n_1``, ``n_01`` and ``n_11``, counted from the entries."""
    pairs, slots, stay, _ = _entry_slots(array)
    first, last = array.span(0)[1], array.span(array.T - 1)[0]
    later, stay = slots[first:], stay[first:]
    return pairs, *(np.bincount(s, minlength=pairs.size)
                    for s in (slots[:last], later[~stay], later[stay]))


def _pair_graph(array, keep):
    """The upper bool CSR (``spectral._csr``) of the pairs whose number of
    snapshots set passes ``keep``; pairs never set are left out."""
    pairs, slots, *_ = _entry_slots(array)
    pairs = pairs[keep(np.bincount(slots, minlength=pairs.size))]
    return _csr(array.N, pairs, np.ones(pairs.size, dtype=bool))


def persistent_components(array):
    """Blocks as the large connected components of the always-interacting
    graph (the intersection of all snapshots).

    Components larger than ``sqrt(N)`` become blocks; remaining nodes fall
    to block 0.  ``K_hat = 0`` flags that no component passed the size bar.
    """
    comp_labels, n_comp = connected_components(_pair_graph(array, lambda t: t == array.T))
    sizes = np.bincount(comp_labels, minlength=n_comp)
    big = np.nonzero(sizes > math.sqrt(array.N))[0]
    rank = np.zeros(n_comp, dtype=np.int64)  # block of each component, by size
    rank[big[np.argsort(-sizes[big], kind="stable")]] = np.arange(big.size)
    return rank[comp_labels], int(big.size)


def enemy_paths(array):
    """Blocks as components of the two-step enemy graph.

    Enemies are pairs whose interaction pattern changes at least once;
    sharing an enemy links two nodes.  Intended for two blocks with static
    intra-block patterns.  Those components are the ones of the first
    copies in the bipartite double cover of the enemy graph (an even walk).
    """
    G = _pair_graph(array, lambda t: t < array.T)
    labels, _ = connected_components(bmat([[None, G], [G, None]]))
    labels = labels[:array.N]  # the first copies' components are numbered first
    return labels, int(labels.max()) + 1


# ---------------------------------------------------------------------------
# Exhaustive maximum likelihood oracle
# ---------------------------------------------------------------------------


def mle_brute_force(array, K, kernel_f, kernel_g):
    """Exhaustive maximiser of the block-model log likelihood over all
    ``K^N`` labellings; ties resolve to the lexicographically smallest.
    Only feasible at toy sizes (``K^N`` capped at ``_MLE_BUDGET``, checked
    without forming ``K^N``); K = 1 gives the one labelling at any N."""
    if K < 1:
        raise ValueError(f"need at least one cluster, got K={K}")
    n = array.N
    if K == 1:
        return np.zeros(n, dtype=np.int64)
    total = K ** min(n, _MLE_BUDGET.bit_length())  # past that exponent, 2^e alone is over
    if total > _MLE_BUDGET:
        raise ValueError(f"mle enumerates K^N labellings, more than its budget of "
                         f"{_MLE_BUDGET} at K={K}, N={n}")
    R = kernel_f.log_ratio_matrix(array, kernel_g).dense()
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
