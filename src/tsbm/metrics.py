"""Partition-comparison metrics: Hamming and permutation-minimal Hamming
error, Mirkin / Rand pair-counting distances, and optimal label alignment.

Labellings are integer arrays with values in ``{0, ..., K-1}``.
"""

import itertools
from functools import lru_cache

import numpy as np


def _labellings(s1, s2):
    """Both labellings as int64 arrays, checked to be one-dimensional,
    non-negative and of one length."""
    s1, s2 = np.asarray(s1, dtype=np.int64), np.asarray(s2, dtype=np.int64)
    if s1.ndim != 1 or s2.ndim != 1:
        raise ValueError("labelling must be one-dimensional")
    if min(s1.min(initial=0), s2.min(initial=0)) < 0:
        raise ValueError("labels must be non-negative")
    if s1.size != s2.size:
        raise ValueError(f"length mismatch: {s1.size} vs {s2.size}")
    return s1, s2


def confusion_matrix(s1, s2):
    """Counts ``C[k, l] = #{i : s1[i] = k, s2[i] = l}``, K x K for labels below K."""
    s1, s2 = _labellings(s1, s2)
    K = int(max(s1.max(initial=-1), s2.max(initial=-1))) + 1
    return np.bincount(s1 * K + s2, minlength=K * K).reshape(K, K)


@lru_cache(maxsize=16)
def _all_permutations(K):
    return np.array(list(itertools.permutations(range(K))), dtype=np.int64)


def ham(s1, s2):
    """Number of positions where the two labellings disagree."""
    s1, s2 = _labellings(s1, s2)
    return int((s1 != s2).sum())


def ham_star(s1, s2):
    """Hamming distance minimised over relabelings of ``s1``.

    Returns ``(distance, perm)`` where ``perm[k]`` is the new value given to
    label ``k``, so that ``ham(perm[s1], s2) == distance``.  Up to K = 8 it
    scans every permutation in lexicographic order, so ties resolve to the
    lowest-index permutation; beyond, it solves the assignment problem by
    ``scipy.optimize``, which it imports on that first call.
    """
    s1, s2 = _labellings(s1, s2)
    C = confusion_matrix(s1, s2)
    K = C.shape[0]
    N = s1.size
    if K <= 8:
        perms = _all_permutations(K)
        agree = C[np.arange(K)[None, :], perms].sum(axis=1)
        best = int(np.argmax(agree))  # first max = lexicographically lowest
        return N - int(agree[best]), perms[best].copy()
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(C, maximize=True)
    perm = np.empty(K, dtype=np.int64)
    perm[rows] = cols
    return N - int(C[rows, cols].sum()), perm


def mirkin(s1, s2):
    """Pair-counting distance: twice the symmetric difference of the
    within-block pair sets E1 and E2, counted from the block intersections
    in O(N + K^2)."""
    C = confusion_matrix(s1, s2)  # which checks the labellings
    e1, e2, both = (int((c * (c - 1) // 2).sum()) for c in (C.sum(axis=1), C.sum(axis=0), C))
    return 2 * (e1 + e2 - 2 * both)


def rand_index(s1, s2):
    """Rand index, related by ``mirkin = N(N-1)(1 - rand_index)``."""
    s1, s2 = _labellings(s1, s2)
    n = s1.size
    if n < 2:
        return 1.0
    return 1.0 - mirkin(s1, s2) / (n * (n - 1))


def unique_alignment(s1, s2):
    """The provably unique relabeling of ``s1`` matching ``s2``, when one
    exists.

    If some permutation ``rho`` achieves ``ham(rho[s1], s2)`` below half the
    smallest block size of ``s1``, that permutation is unique and equals
    ``rho[k] = argmax_l #{i: s1[i]=k, s2[i]=l}``; it is returned.  Otherwise
    returns None.
    """
    s1, s2 = _labellings(s1, s2)
    C = confusion_matrix(s1, s2)
    sizes = C.sum(axis=1)
    n_min = int(sizes[sizes > 0].min()) if (sizes > 0).any() else 0
    rho = np.argmax(C, axis=1)
    if len(set(rho.tolist())) != C.shape[0]:
        return None  # argmax rows collide: no dominant alignment
    distance = s1.size - int(C[np.arange(C.shape[0]), rho].sum())
    if distance < 0.5 * n_min:
        return rho
    return None


def accuracy(s_true, s_hat):
    """Fraction of correctly labelled nodes up to block relabeling."""
    s_true, s_hat = _labellings(s_true, s_hat)
    if s_true.size == 0:
        return 1.0
    d, _ = ham_star(s_hat, s_true)
    return 1.0 - d / s_true.size
