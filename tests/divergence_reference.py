"""The general log-likelihood-ratio moment terms of the lower-bound
construction: an independent reference for the closed form that
``tsbm.divergence.i21_term`` evaluates.

``llr_moments`` sums the per-pair KL divergences and their variances against
arbitrary reference distributions; on the uniform homogeneous model with the
geometric-mean reference it must reduce to ``(I / K, i21_term(I, J, K), 0)``.
"""

import math

import numpy as np

from tsbm.divergence import FiniteDistribution, _check_pair


def bernoulli(p):
    """Two-point distribution with mass ``p`` on symbol 1."""
    if not 0 <= p <= 1:
        raise ValueError("bernoulli parameter outside [0, 1]")
    return FiniteDistribution([1.0 - p, p])


def point_mass(symbol, size):
    """The distribution on ``{0, ..., size-1}`` that puts all mass on ``symbol``."""
    probs = np.zeros(size)
    probs[symbol] = 1.0
    return FiniteDistribution(probs)


def kl(f, g):
    """Kullback-Leibler divergence; inf when supp(f) is not inside supp(g)."""
    _check_pair(f, g)
    p, q = f.probs, g.probs
    fpos = p > 0
    if np.any(fpos & (q == 0)):
        return math.inf
    pp, qq = p[fpos], q[fpos]
    return max(float(pp @ (np.log(pp) - np.log(qq))), 0.0)


def v_kl(f, g):
    """Variance of ``log(f/g)`` under ``f``; raises where KL is infinite."""
    _check_pair(f, g)
    p, q = f.probs, g.probs
    fpos = p > 0
    if np.any(fpos & (q == 0)):
        raise ValueError("support of f not contained in support of g")
    pp = p[fpos]
    logr = np.log(pp) - np.log(q[fpos])
    mean = float(pp @ logr)
    return max(float(pp @ logr**2) - mean * mean, 0.0)


def geometric_mixture(f, g, a):
    """Normalised geometric mean ``f^a g^(1-a) / Z``; requires overlap."""
    _check_pair(f, g)
    if not 0 < a < 1:
        raise ValueError("exponent must lie strictly between 0 and 1")
    w = f.probs**a * g.probs ** (1.0 - a)
    total = w.sum()
    if total == 0:
        raise ValueError("orthogonal supports")
    return FiniteDistribution(w / total)


def llr_moments(alpha, kernel, refs, subset=None):
    """Moment terms (mean, variance, across-block variance) of the per-pair
    log-likelihood ratio against reference distributions.

    Parameters
    ----------
    alpha : sequence of float
        Block weights, a probability vector over ``[K]``.
    kernel : K x K nested sequence of FiniteDistribution
        Interaction distribution for each ordered block pair (symmetric).
    refs : sequence of FiniteDistribution
        Reference distribution for each block.
    subset : iterable of int, optional
        Restriction of the outer block index; defaults to all blocks.

    Returns
    -------
    (I1, I21, I22) : tuple of float
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    K = alpha.size
    if subset is None:
        subset = range(K)
    subset = sorted(set(subset))
    a_sub = alpha[subset].sum()
    if a_sub <= 0:
        raise ValueError("subset carries no weight")
    alpha_star = np.zeros(K)
    for k in subset:
        alpha_star[k] = alpha[k] / a_sub

    d = np.zeros((K, K))  # d[k, l] = KL(refs[l] || kernel[k][l])
    v = np.zeros((K, K))
    for k in subset:
        for l in range(K):
            d[k, l] = kl(refs[l], kernel[k][l])
            v[k, l] = v_kl(refs[l], kernel[k][l])

    A = d @ alpha  # A[k] = sum_l alpha_l d[k, l]
    B = (d**2) @ alpha - A**2
    I1 = float(alpha_star @ A)
    I21 = float(alpha_star @ (v @ alpha)) + float(alpha_star @ B)
    I22 = float(alpha_star @ A**2) - I1 * I1
    return I1, I21, max(I22, 0.0)
