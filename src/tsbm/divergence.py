"""Information divergences between finite distributions and the error-rate
bound formulas built from them.

All sums of the form ``sum f(x)^a g(x)^(1-a)`` are evaluated in the log
domain with a max-factored log-sum-exp so that divergences of order 1e-5
keep at least eight significant digits.  A point with ``f(x) > 0, g(x) = 0``
contributes nothing for orders below 1 and makes the divergence infinite for
orders above 1.
"""

import math
from dataclasses import dataclass

import numpy as np

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
            raise ValueError(f"probabilities sum to {float(total)!r}, not 1")
        self.probs = p / total
        self.probs.flags.writeable = False

    def __len__(self):
        return self.probs.size

    def __repr__(self):
        return f"FiniteDistribution({self.probs.tolist()})"

    def product(self, other):
        """Distribution of an independent pair, alphabet = cartesian product."""
        return FiniteDistribution(np.outer(self.probs, other.probs).ravel())


def _check_pair(f, g):
    if len(f) != len(g):
        raise ValueError(f"alphabet mismatch: {len(f)} vs {len(g)}")


def renyi(alpha, f, g):
    """Renyi divergence of order ``alpha`` (> 0, != 1); may return inf.
    Its first call imports ``scipy.special`` for ``logsumexp``."""
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
    from scipy.special import logsumexp

    value = logsumexp(log_terms) / (alpha - 1.0)
    return max(value, 0.0)


def hellinger_sq(f, g):
    """Squared Hellinger distance, in [0, 1].

    Satisfies ``renyi(1/2, f, g) == -2 log(1 - hellinger_sq(f, g))`` exactly.
    """
    _check_pair(f, g)
    d = np.sqrt(f.probs) - np.sqrt(g.probs)
    return min(0.5 * float(d @ d), 1.0)


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

