"""Information divergences between finite distributions and the error-rate
bound formulas built from them.

All sums of the form ``sum f(x)^a g(x)^(1-a)`` are evaluated in the log
domain with a max-factored log-sum-exp so that divergences of order 1e-5
keep at least eight significant digits.  Conventions: ``0 * log(0/y) = 0``;
a point with ``f(x) > 0, g(x) = 0`` contributes nothing for orders below 1
and makes the divergence infinite for orders above 1.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

__all__ = [
    "FiniteDistribution",
    "renyi",
    "renyi_symmetric",
    "hellinger_sq",
    "kl",
    "v_kl",
    "beta_ratio",
    "j_quantity",
    "zero_inflated_renyi_half",
    "geometric_mixture",
    "BoundInputs",
    "kappa_correction",
    "i21_term",
    "lower_bound_error_rate",
    "upper_bound_error_rate",
    "llr_moments",
    "homogeneous_llr_moments",
]

_NORM_TOL = 1e-12


class FiniteDistribution:
    """Probability vector over a finite alphabet ``{0, ..., n-1}``.

    Entries must be non-negative and sum to one within 1e-12; inputs inside
    the tolerance are renormalized exactly, anything else is rejected.
    """

    __slots__ = ("probs",)

    def __init__(self, probs):
        p = np.asarray(probs, dtype=np.float64)
        if p.ndim != 1 or p.size < 1:
            raise ValueError("distribution needs a 1-d vector with at least one entry")
        if not np.all(p >= 0):  # written so that NaN fails
            raise ValueError("probability entry negative or NaN")
        total = p.sum()
        if not abs(total - 1.0) <= _NORM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        self.probs = p / total
        self.probs.flags.writeable = False

    def __len__(self):
        return self.probs.size

    def __repr__(self):
        return f"FiniteDistribution({self.probs.tolist()})"

    @property
    def support(self):
        return self.probs > 0

    @classmethod
    def bernoulli(cls, p):
        """Two-point distribution with mass ``p`` on symbol 1."""
        if not 0 <= p <= 1:
            raise ValueError("bernoulli parameter outside [0, 1]")
        return cls([1.0 - p, p])

    @classmethod
    def point_mass(cls, symbol, size):
        probs = np.zeros(size)
        probs[symbol] = 1.0
        return cls(probs)

    def product(self, other):
        """Distribution of an independent pair, alphabet = cartesian product."""
        return FiniteDistribution(np.outer(self.probs, other.probs).ravel())


def _check_pair(f, g):
    if len(f) != len(g):
        raise ValueError(f"alphabet mismatch: {len(f)} vs {len(g)}")


def renyi(alpha, f, g):
    """Renyi divergence of order ``alpha`` (> 0, != 1); may return inf."""
    if not (alpha > 0 and alpha != 1):  # NaN fails it
        raise ValueError("order must be positive and different from 1")
    _check_pair(f, g)
    p, q = f.probs, g.probs
    if np.array_equal(p, q):
        return 0.0
    fpos = p > 0
    if alpha > 1 and np.any(fpos & (q == 0)):
        return math.inf
    joint = fpos & (q > 0)
    if not joint.any():
        # orthogonal supports; only reachable for alpha < 1
        return math.inf
    with np.errstate(divide="ignore"):
        log_terms = alpha * np.log(p[joint]) + (1.0 - alpha) * np.log(q[joint])
    value = logsumexp(log_terms) / (alpha - 1.0)
    return max(value, 0.0)


def renyi_symmetric(alpha, f, g):
    """Symmetrised divergence: mean of the two one-sided orders."""
    return 0.5 * (renyi(alpha, f, g) + renyi(alpha, g, f))


def hellinger_sq(f, g):
    """Squared Hellinger distance, in [0, 1].

    Satisfies ``renyi(1/2, f, g) == -2 log(1 - hellinger_sq(f, g))`` exactly.
    """
    _check_pair(f, g)
    d = np.sqrt(f.probs) - np.sqrt(g.probs)
    return min(0.5 * float(d @ d), 1.0)


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


def beta_ratio(r, f, g):
    """Ratio of symmetric divergences of orders ``1+r`` and ``r``.

    Undefined (raises) when the denominator vanishes; an infinite numerator
    over a positive denominator yields inf.
    """
    if not 0 < r <= 1:
        raise ValueError("r must lie in (0, 1]")
    denom = renyi_symmetric(r, f, g)
    if denom == 0.0:
        raise ValueError("denominator divergence is zero; ratio undefined")
    num = renyi_symmetric(1.0 + r, f, g)
    if math.isinf(num):
        return math.inf
    return num / denom


def j_quantity(f, g):
    """Normalised second moment of the log ratio under the geometric-mean
    weights: ``Z^-1 sum sqrt(fg) log^2(f/g)`` with ``Z = sum sqrt(fg)``."""
    _check_pair(f, g)
    p, q = f.probs, g.probs
    joint = (p > 0) & (q > 0)
    if not joint.any():
        raise ValueError("orthogonal supports: normalising constant is zero")
    w = np.sqrt(p[joint] * q[joint])
    logr = np.log(p[joint]) - np.log(q[joint])
    return float(w @ logr**2) / float(w.sum())


def zero_inflated_renyi_half(p, q, hel_sq_tilde):
    """Leading term of the order-1/2 divergence between two zero-inflated
    distributions with presence probabilities ``p, q`` and conditional
    squared Hellinger distance ``hel_sq_tilde``.

    Valid up to O(rho^2) when ``p, q = O(rho)`` with ``rho << 1``.
    """
    if not (0 <= p <= 1 and 0 <= q <= 1):
        raise ValueError("presence probabilities must lie in [0, 1]")
    if not 0 <= hel_sq_tilde <= 1:
        raise ValueError("hel_sq_tilde must lie in [0, 1]")
    return (math.sqrt(p) - math.sqrt(q)) ** 2 + 2.0 * math.sqrt(p * q) * hel_sq_tilde


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


# ---------------------------------------------------------------------------
# Minimax error-rate bound evaluators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundInputs:
    """Inputs shared by the error-rate bound evaluators."""

    N: int
    K: int
    I: float
    J: float
    eps: float = 0.0
    zeta: float = 0.0

    def __post_init__(self):
        if self.N < 1 or self.K < 1:
            raise ValueError("N and K must be at least 1")
        if not (self.I >= 0 and self.J >= 0):
            raise ValueError("divergence quantities must be non-negative numbers")
        if not (0 <= self.eps <= self.zeta <= 1 / 21):
            raise ValueError("need 0 <= eps <= zeta <= 1/21")


def i21_term(I, J, K, convention="quadratic"):
    """Variance-like quantity entering the lower bound exponent.

    The two printed forms of this quantity disagree (one is linear in the
    divergence, the other quadratic); both are exposed and neither is
    silently preferred.
    """
    if convention == "quadratic":
        lead = I * I
    elif convention == "linear":
        lead = I
    else:
        raise ValueError(f"unknown convention {convention!r}")
    return (0.5 - 1.0 / K) * lead / K + 0.5 * J / K


def lower_bound_error_rate(inputs, convention="quadratic"):
    """Lower bound on the minimum average classification error rate,
    clamped below at zero for reporting."""
    N, K = inputs.N, inputs.K
    if K < 2:
        raise ValueError("lower bound needs at least two blocks")
    i21 = i21_term(inputs.I, inputs.J, K, convention)
    main = (1.0 / 84.0) * K**-3 * math.exp(-N * inputs.I / K - math.sqrt(8.0 * N * i21))
    slack = math.exp(-N / (8.0 * K)) / 6.0
    return max(main - slack, 0.0)


def kappa_correction(N, K, I):
    """Correction entering the first exponent of the upper bound."""
    return 56.0 * max(K * K * math.exp(-N * I / (8.0 * K)), K / N)


def _exp_clipped(x):
    # avoid float overflow; the bound is vacuous (>1) long before this
    return math.inf if x > 700 else math.exp(x)


def upper_bound_error_rate(inputs):
    """Three-term upper bound on the average ML classification error rate,
    with :func:`kappa_correction` on the same inputs in the first exponent.
    The sum may exceed 1, in which case the bound is vacuous.
    """
    return sum(upper_bound_terms(inputs))


def upper_bound_terms(inputs):
    """The three summands of :func:`upper_bound_error_rate`, separately."""
    N, K, I = inputs.N, inputs.K, inputs.I
    if K < 2:
        raise ValueError("upper bound needs at least two blocks")
    kappa = kappa_correction(N, K, I)
    return (
        8.0 * math.e * (K - 1) * _exp_clipped(-(1.0 - inputs.zeta - kappa) * N * I / K),
        _exp_clipped(
            N * math.log(K) - 0.25 * (inputs.zeta / (K - 1) - inputs.eps) * (N / K) ** 2 * I
        ),
        2.0 * K * _exp_clipped(-inputs.eps**2 * N / (3.0 * K)),
    )


# ---------------------------------------------------------------------------
# Log-likelihood-ratio moment terms of the lower-bound construction
# ---------------------------------------------------------------------------


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


def homogeneous_llr_moments(K, f, g, convention="quadratic"):
    """Closed-form moment terms for the uniform homogeneous model with the
    optimal reference choice (geometric-mean distribution on a two-block
    subset, inter-block distribution elsewhere).

    Returns ``(I/K, i21_term(I, J, K), 0)`` with ``I`` the order-1/2
    divergence and ``J`` the matching second-moment quantity.
    """
    if K < 2:
        raise ValueError("need at least two blocks")
    I = renyi(0.5, f, g)
    J = j_quantity(f, g)
    return I / K, i21_term(I, J, K, convention), 0.0
