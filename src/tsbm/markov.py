"""Binary Markov interaction chains: path-law divergences (exact, by one
transfer-matrix engine in O(log T), a lazy squaring ladder plus a fold;
brute-force enumeration; sparse closed forms), threshold constants, one
search for the snapshot threshold T* (its exact form on plain floats, no
numpy), and on-period path combinatorics.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import logsumexp

__all__ = [
    "BinaryMarkovChain",
    "chain_from_stationary",
    "markov_renyi_exact",
    "markov_renyi_brute",
    "markov_j_quantity",
    "markov_hellinger_sq",
    "SparseApprox",
    "sparse_renyi_approx",
    "high_order_bound",
    "h11_sq",
    "i_tilde_short",
    "i_tilde_long",
    "ThresholdConvention",
    "t_star",
    "PathStats",
    "path_stats",
    "count_paths",
]


@dataclass(frozen=True)
class BinaryMarkovChain:
    """A chain on {0, 1}: initial law ``(1-mu1, mu1)`` and transition
    probabilities into state 1 from state 0 (``p01``) and state 1 (``p11``)."""

    mu1: float
    p01: float
    p11: float

    def __post_init__(self):
        for name in ("mu1", "p01", "p11"):
            x = getattr(self, name)
            if not 0.0 <= x <= 1.0:
                raise ValueError(f"{name}={x!r} outside [0, 1]")

    @property
    def mu(self):
        return np.array([1.0 - self.mu1, self.mu1])

    @property
    def transition(self):
        return np.array([[1.0 - self.p01, self.p01], [1.0 - self.p11, self.p11]])

    def path_log_prob(self, paths):
        """Log probability of each row of a (m, T) 0/1 array; -inf allowed."""
        x = np.asarray(paths, dtype=np.int64)
        if x.ndim == 1:
            x = x[None, :]
        with np.errstate(divide="ignore"):
            log_mu = np.log(self.mu)
            log_p = np.log(self.transition).ravel()  # index 2*a + b
        out = log_mu[x[:, 0]]
        for t in range(1, x.shape[1]):
            out = out + log_p[2 * x[:, t - 1] + x[:, t]]
        return out


def chain_from_stationary(pi1, p11):
    """Chain started from its stationary law ``(1-pi1, pi1)`` with the given
    persistence ``p11``; infeasible pairs (implied p01 > 1) are rejected."""
    if not 0 < pi1 < 1:
        raise ValueError("stationary probability must lie strictly in (0, 1)")
    p01 = pi1 * (1.0 - p11) / (1.0 - pi1)
    if p01 > 1.0 + 1e-15:
        raise ValueError(f"no stationary chain: implied p01={p01:.6g} > 1")
    return BinaryMarkovChain(mu1=pi1, p01=min(p01, 1.0), p11=p11)


# ---------------------------------------------------------------------------
# Exact path-law divergences via the transfer matrix
# ---------------------------------------------------------------------------


def _geometric_weights(alpha, chain_f, chain_g):
    """Initial weights ``r_b`` and transfer matrix ``R_ab`` of elementwise
    weighted geometric means.  For ``alpha > 1`` an entry with positive
    numerator over a zero denominator is flagged as infinite."""
    mu, nu = chain_f.mu, chain_g.mu
    P, Q = chain_f.transition, chain_g.transition
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(mu > 0, mu**alpha * nu ** (1.0 - alpha), 0.0)
        R = np.where(P > 0, P**alpha * Q ** (1.0 - alpha), 0.0)
    r_inf = (mu > 0) & (nu == 0) if alpha > 1 else np.zeros(2, dtype=bool)
    R_inf = (P > 0) & (Q == 0) if alpha > 1 else np.zeros((2, 2), dtype=bool)
    r = np.where(r_inf, 0.0, r)
    R = np.where(R_inf, 0.0, R)
    # zero the rows of states no weighted path visits, so that rescaling a
    # power of R by its largest entry cannot drown the states that matter
    R = np.where(((r > 0) | (r @ R > 0))[:, None], R, 0.0)
    return r, R, r_inf, R_inf


def _half_weights(f, g):
    """``_geometric_weights(0.5, f, g)``'s ``r`` and ``R`` as plain floats, bit for bit."""
    sqrt = math.sqrt
    r = (sqrt(1.0 - f.mu1) * sqrt(1.0 - g.mu1), sqrt(f.mu1) * sqrt(g.mu1))
    R = [sqrt(1.0 - f.p01) * sqrt(1.0 - g.p01), sqrt(f.p01) * sqrt(g.p01),
         sqrt(1.0 - f.p11) * sqrt(1.0 - g.p11), sqrt(f.p11) * sqrt(g.p11)]
    for a in (0, 1):  # the row zeroing of _geometric_weights
        if not (r[a] > 0 or r[0] * R[a] + r[1] * R[2 + a] > 0):
            R[2 * a] = R[2 * a + 1] = 0.0
    return r, R


def _squaring_ladder(R):
    """The rungs ``(R^(2^k) / c_k, log c_k)`` for k = 0, 1, ..., made lazily:
    rung 0 is ``R`` itself, each later rung the square of the one before,
    rescaled by its largest absolute entry.  After a rung vanishes, every
    later rung is zero with scale -inf."""
    base, scale = R, 0.0
    while True:
        yield base, scale
        base = base @ base
        s = np.abs(base).max()
        base, scale = (base / s, 2 * scale + math.log(s)) if s else (base, -math.inf)


def _log_path_sum(r, R, T):
    """``r R^(T-1)`` as ``(z, log_scale)`` with ``r R^(T-1) = z exp(log_scale)``:
    a fold over the squaring ladder's rungs that the bits of ``T - 1``
    select, in O(log T) products.  Every product is rescaled by its largest
    absolute entry; ``z`` is zero when the product vanishes."""
    if T < 1:
        raise ValueError("need at least one snapshot")
    acc, acc_scale = np.eye(len(R)), 0.0
    for k, (rung, scale) in zip(range((T - 1).bit_length()), _squaring_ladder(R)):
        if (T - 1) >> k & 1:
            acc = acc @ rung
            acc_scale += scale
            s = np.abs(acc).max()
            if s == 0.0:
                return np.zeros_like(r), -math.inf
            acc_scale += math.log(s)
            acc /= s
    return r @ acc, acc_scale


def _log_total(r, R, T):
    """log of ``r R^(T-1) 1`` for non-negative weights; -inf when it vanishes."""
    z, log_scale = _log_path_sum(r, R, T)
    total = z.sum()
    return log_scale + math.log(total) if total > 0 else -math.inf


def _log_hellinger_sum(alpha, chain_f, chain_g, T):
    """log of ``Z = sum over paths of f^alpha g^(1-alpha)``: -inf on
    orthogonal supports, +inf when a path of positive f-mass meets g = 0.

    The rows of a transition matrix sum to one, so every path f can reach
    extends to any length: Z is infinite exactly when a state f reaches
    within T - 1 steps leaves by an infinite entry.  The sets of states a
    two-state chain reaches repeat within three steps.
    """
    r, R, r_inf, R_inf = _geometric_weights(alpha, chain_f, chain_g)
    log_z = _log_total(r, R, T)
    reach, hit = (r > 0) | r_inf, r_inf.any()
    for _ in range(min(T - 1, 3)):
        hit = hit or (reach[:, None] & R_inf).any()
        reach = (reach[:, None] & ((R > 0) | R_inf)).any(axis=0)
    return math.inf if hit else log_z


def markov_renyi_exact(alpha, chain_f, chain_g, T):
    """Renyi divergence of order ``alpha`` between the length-``T`` path laws
    of two binary chains, via the transfer matrix in O(log T)."""
    if alpha <= 0 or alpha == 1:
        raise ValueError("order must be positive and different from 1")
    log_z = _log_hellinger_sum(alpha, chain_f, chain_g, T)
    if math.isinf(log_z):
        return math.inf  # orthogonal supports, or (alpha > 1) g = 0 under f
    return max(log_z / (alpha - 1.0), 0.0)


def markov_renyi_brute(alpha, chain_f, chain_g, T):
    """Literal sum over all 2^T paths; test oracle, T capped at 20."""
    if T > 20:
        raise ValueError("brute-force enumeration capped at T = 20")
    if T < 1:
        raise ValueError("need at least one snapshot")
    if alpha <= 0 or alpha == 1:
        raise ValueError("order must be positive and different from 1")
    codes = np.arange(2**T, dtype=np.int64)
    paths = (codes[:, None] >> np.arange(T)[None, :]) & 1
    lf = chain_f.path_log_prob(paths)
    lg = chain_g.path_log_prob(paths)
    keep = lf > -math.inf  # zero-probability paths contribute nothing
    lf, lg = lf[keep], lg[keep]
    if lf.size == 0:
        return math.inf
    if alpha > 1 and np.any(np.isinf(lg)):
        return math.inf
    with np.errstate(invalid="ignore"):
        log_terms = alpha * lf + (1.0 - alpha) * lg
    finite = log_terms > -math.inf
    if not finite.any():
        return math.inf
    log_z = logsumexp(log_terms[finite])
    return max(log_z / (alpha - 1.0), 0.0)


def markov_hellinger_sq(chain_f, chain_g, T):
    """Squared Hellinger distance between path laws: ``1 - Z_{1/2}``,
    clamped at 0 (``log Z`` of equal chains rounds to just above 0)."""
    return max(1.0 - math.exp(_log_hellinger_sum(0.5, chain_f, chain_g, T)), 0.0)


def _log_ratio(p, q):
    """``log(p / q)``; for close ``p`` and ``q``, ``log1p`` of their exact
    difference over ``q``, where ``log p - log q`` would cancel."""
    return np.where(np.abs(p - q) < q / 2, np.log1p((p - q) / q), np.log(p / q))


def markov_j_quantity(chain_f, chain_g, T):
    """Second moment of the path log-likelihood ratio under the normalised
    geometric-mean path weights, in O(log T).

    The log ratio ``L`` is additive over steps, so the weights and their
    first and second moments ``(a, b, c)`` advance together by the block
    transfer matrix ``[[R, R L, R L^2], [0, R, 2 R L], [0, 0, R]]``.
    """
    r, R, *_ = _geometric_weights(0.5, chain_f, chain_g)
    mu, nu = chain_f.mu, chain_g.mu
    P, Q = chain_f.transition, chain_g.transition
    with np.errstate(divide="ignore", invalid="ignore"):
        l_init = np.where(r > 0, _log_ratio(mu, nu), 0.0)
        l_step = np.where(R > 0, _log_ratio(P, Q), 0.0)
    zero = np.zeros((2, 2))
    M = np.block([
        [R, R * l_step, R * l_step**2],
        [zero, R, 2.0 * R * l_step],
        [zero, zero, R],
    ])
    z, _ = _log_path_sum(np.concatenate([r, r * l_init, r * l_init**2]), M, T)
    a = z[:2].sum()
    if a == 0.0:
        raise ValueError("orthogonal path laws: weights vanished")
    return float(z[4:].sum() / a)


# ---------------------------------------------------------------------------
# Sparse-regime closed forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SparseApprox:
    """Sparse-regime divergence approximation with its guaranteed radius."""

    value: float
    error_radius: float
    rho: float
    in_regime: bool  # rho * T <= 0.01, where the radius guarantee holds


def sparse_renyi_approx(alpha, chain_f, chain_g, T):
    """Closed-form approximation of the order-``alpha`` path divergence for
    sparse chains (all on-probabilities at most rho, rho * T small).

    The guaranteed radius is ``46 (rho T)^2 / (1 - alpha)``; outside the
    validity regime the value is still computed and flagged.
    """
    if not 0 < alpha < 1:
        raise ValueError("sparse closed form covers orders in (0, 1)")
    if T < 1:
        raise ValueError("need at least one snapshot")
    mu1, nu1 = chain_f.mu1, chain_g.mu1
    p01, q01 = chain_f.p01, chain_g.p01
    p11, q11 = chain_f.p11, chain_g.p11
    rho = max(mu1, nu1, p01, q01)

    r1 = mu1**alpha * nu1 ** (1.0 - alpha)
    r1_hat = alpha * mu1 + (1.0 - alpha) * nu1
    R01 = p01**alpha * q01 ** (1.0 - alpha)
    R01_hat = alpha * p01 + (1.0 - alpha) * q01
    R11 = p11**alpha * q11 ** (1.0 - alpha)
    R10 = (1.0 - p11) ** alpha * (1.0 - q11) ** (1.0 - alpha)

    if R11 < 1.0:
        w = R10 / (1.0 - R11)
        geo = (1.0 - R11 ** (T - 1)) / (1.0 - R11)  # sum_{t=2}^{T} R11^(t-2)
        j_sum = (T - 1) * (R01_hat - R01) + (1.0 - w) * (
            (T - 1) * R01 + (r1 * (1.0 - R11) - R01) * geo
        )
    else:
        j_sum = (T - 1) * (R01_hat - R01)

    value = (r1_hat - r1 + j_sum) / (1.0 - alpha)
    radius = 46.0 * (rho * T) ** 2 / (1.0 - alpha)
    return SparseApprox(value=value, error_radius=radius, rho=rho, in_regime=rho * T <= 0.01)


def high_order_bound(alpha, chain_f, chain_g, T, M, rho):
    """Upper bound on the order-``alpha`` (> 1) path divergence for sparse
    dominated chains: ``(2a+1)/(a-1) * C rho T exp(5 C rho T)`` with
    ``C = M^(2a) / (1 - Lambda)`` and ``Lambda = p11^a q11^(1-a)``.

    Raises when the domination or sparsity hypotheses fail, or when
    ``Lambda >= 1`` (the bound degenerates).
    """
    if alpha <= 1:
        raise ValueError("high-order bound needs alpha > 1")
    if M < 1:
        raise ValueError("ratio bound M must be at least 1")
    if not 0 < rho <= 0.5:
        raise ValueError("need 0 < rho <= 1/2")
    if chain_g.mu1 > rho or chain_g.p01 > rho:
        raise ValueError("inter-chain on-probabilities exceed rho")
    tol = 1e-12
    pairs = (
        (chain_f.mu1, chain_g.mu1, "mu1"),
        (chain_f.p01, chain_g.p01, "p01"),
        (1.0 - chain_f.p11, 1.0 - chain_g.p11, "p10"),
    )
    for num, den, name in pairs:
        if num > M * den + tol:
            raise ValueError(f"ratio bound violated for {name}: {num:.3g} > {M} * {den:.3g}")
    p11, q11 = chain_f.p11, chain_g.p11
    if p11 == 0.0:
        lam = 0.0
    elif q11 == 0.0:
        lam = math.inf
    else:
        lam = p11**alpha * q11 ** (1.0 - alpha)
    if lam >= 1.0:
        raise ValueError(f"bound inapplicable: Lambda = {lam:.6g} >= 1")
    c = M ** (2.0 * alpha) / (1.0 - lam)
    x = c * rho * T
    if 5.0 * x > 700.0:
        return math.inf
    return (2.0 * alpha + 1.0) / (alpha - 1.0) * x * math.exp(5.0 * x)


# ---------------------------------------------------------------------------
# Threshold constants and the snapshot threshold T*
# ---------------------------------------------------------------------------


def h11_sq(p11, q11):
    """Squared Hellinger distance between the geometric on-period lengths:
    ``1 - sqrt(1-p11) sqrt(1-q11) / (1 - sqrt(p11 q11))``."""
    if not (0 <= p11 <= 1 and 0 <= q11 <= 1):
        raise ValueError("persistence probabilities must lie in [0, 1]")
    if p11 == 1.0 and q11 == 1.0:
        return 0.0  # identical degenerate on-periods
    return 1.0 - math.sqrt((1.0 - p11) * (1.0 - q11)) / (1.0 - math.sqrt(p11 * q11))


def _i_tilde_terms(u, v, p01, q01, h11_sq_value, gamma):
    """``(base, per, transient_coef)`` of ``i_tilde_short``, validated."""
    if min(u, v, p01, q01, h11_sq_value) < 0:
        raise ValueError("rate arguments must be non-negative")
    if not 0 < gamma <= 1:
        raise ValueError("gamma must lie in (0, 1]")
    base = (math.sqrt(u) - math.sqrt(v)) ** 2
    per = i_tilde_long(p01, q01, h11_sq_value)
    transient_coef = 2.0 * h11_sq_value * (gamma * math.sqrt(u * v) - math.sqrt(p01 * q01))
    return base, per, transient_coef


def i_tilde_short(u, v, p01, q01, h11_sq_value, gamma, T):
    """Threshold constant for a bounded horizon: first-snapshot term, a
    per-snapshot term, and a geometrically damped transient.

    All rate arguments are densities expressed in units of the sparsity
    scale; ``gamma`` is the effective spectral gap, in (0, 1].
    """
    base, per, transient_coef = _i_tilde_terms(u, v, p01, q01, h11_sq_value, gamma)
    if T < 1:
        raise ValueError("need at least one snapshot")
    return base + per * (T - 1) + transient_coef * _geo_sum(gamma, T)


def _geo_sum(gamma, T):
    """``sum_{t < T-1} (1 - gamma)^t`` in closed form; gamma in (0, 1]."""
    if gamma == 1.0:
        return 1.0 if T > 1 else 0.0
    return -math.expm1((T - 1) * math.log1p(-gamma)) / gamma


def i_tilde_long(p01, q01, h11_sq_value):
    """Per-snapshot threshold constant for a long horizon (initial states
    forgotten): ``(sqrt(p01)-sqrt(q01))^2 + 2 h11^2 sqrt(p01 q01)``."""
    if min(p01, q01, h11_sq_value) < 0:
        raise ValueError("rate arguments must be non-negative")
    return (math.sqrt(p01) - math.sqrt(q01)) ** 2 + 2.0 * h11_sq_value * math.sqrt(p01 * q01)


class ThresholdConvention(Enum):
    """How the strong-consistency threshold is checked when searching T*.

    EXACT thresholds the exact squared Hellinger distance of the path laws
    at ``K log N / N`` (this scale reproduces the reference threshold maps);
    I_TILDE thresholds the sparse closed-form constant at ``K``.
    """

    EXACT = "exact"
    I_TILDE = "itilde"


def _i_tilde_args(chain_f, chain_g, rho):
    """``i_tilde_short`` arguments, all but T, for a chain pair at scale ``rho``."""
    gamma = 1.0 - math.sqrt(chain_f.p11 * chain_g.p11)
    if gamma == 0.0:
        gamma = 1e-300  # both persistences equal to one: fully static
    return (
        chain_f.mu1 / rho,
        chain_g.mu1 / rho,
        chain_f.p01 / rho,
        chain_g.p01 / rho,
        h11_sq(chain_f.p11, chain_g.p11),
        gamma,
    )


def t_star(chain_f, chain_g, N, K, convention=ThresholdConvention.EXACT, t_max=10**6):
    """Smallest number of snapshots at which the interaction divergence
    crosses the strong-consistency threshold; None if ``t_max`` is hit.

    One search serves both conventions.  From T = 1 it tries spans of 2^k
    snapshots, growing k while each span leaves the threshold uncrossed,
    then shrinking it, and takes every span that leaves it uncrossed.  The
    exact convention runs on plain floats: its state, two floats, moves by
    the rungs of the order-1/2 weights' squaring ladder, each rung the last
    squared as a 2 x 2 matrix and rescaled by its largest entry; the itilde
    convention evaluates ``i_tilde_short``'s closed form at the span's end.
    A search costs O(log T*) rungs and four-product spans.
    """
    if K < 2:
        raise ValueError("need at least two blocks")
    if N < 2:
        raise ValueError(f"need at least two nodes, got N={N}")
    if isinstance(convention, str):
        convention = ThresholdConvention(convention)
    rho = math.log(N) / N
    t_max = int(t_max)  # a float or numpy integer bound counts whole snapshots

    if convention is ThresholdConvention.EXACT:
        threshold = K * rho
        # built once per search; alpha = 1/2 gives finite weights
        r, R = _half_weights(chain_f, chain_g)
        z0 = z1 = log_scale = 0.0  # r R^(T-1) = (z0, z1) exp(log_scale)
        rungs = [(R, 0.0)]  # (R^(2^k) / c_k, log c_k), as _squaring_ladder

        def moves(y0, y1, scale):  # uncrossed at (y0, y1) exp(log_scale + scale)? go there
            nonlocal z0, z1, log_scale
            s = y0 + y1
            # orthogonal supports (s = 0) sit at distance 1, short of a threshold above 1
            log_total = log_scale + scale + math.log(s) if s else -math.inf
            if 1.0 - math.exp(min(log_total, 0.0)) >= threshold:
                return False
            z0, z1, log_scale = (y0 / s, y1 / s, log_total) if s else (0.0, 0.0, -math.inf)
            return True

        crossed_at_1 = not moves(*r, 0.0)

        def below(T, k):  # uncrossed at T + 2^k? then the state moves there
            if k == len(rungs):  # square the last rung [[a, b], [c, d]]
                (a, b, c, d), scale = rungs[-1]
                sq = [a * a + b * c, a * b + b * d, c * a + d * c, c * b + d * d]
                s = max(sq)  # the weights are non-negative
                rungs.append(([x / s for x in sq], 2 * scale + math.log(s)) if s
                             else (sq, -math.inf))
            (a, b, c, d), scale = rungs[k]
            return moves(z0 * a + z1 * c, z0 * b + z1 * d, scale)
    else:
        threshold = float(K)
        args = _i_tilde_args(chain_f, chain_g, rho)
        base, per, transient_coef = _i_tilde_terms(*args)
        gamma = args[-1]

        def crossed(T):  # i_tilde_short(*args, T) > threshold, bit for bit
            return base + per * (T - 1) + transient_coef * _geo_sum(gamma, T) > threshold

        crossed_at_1 = crossed(1)

        def below(T, k):
            return not crossed(T + (1 << k))

    if t_max < 1:
        return None
    if crossed_at_1:
        return 1
    # binary lifting; relies on the divergence being nondecreasing in T for
    # every chain pair: the exact length-T path law is a marginal of the
    # length-(T+1) one, and an itilde step adds per + transient_coef
    # (1-gamma)^(T-1) >= 2 h11^2 sqrt(p01 q01) (1 - (1-gamma)^(T-1)) >= 0
    T, k = 1, 0  # T is known not crossed; the next span tried is 2^k
    while T + (1 << k) <= t_max and below(T, k):
        T += 1 << k
        k += 1
    # the last uncrossed T <= t_max is now below T + 2^k: add its bits
    for k in reversed(range(k)):
        if T + (1 << k) <= t_max and below(T, k):
            T += 1 << k
    return T + 1 if T < t_max else None


# ---------------------------------------------------------------------------
# Path statistics and on-period counting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PathStats:
    """Summary of a binary path sufficient to determine its probability."""

    ones: int
    on_periods: int
    first: int
    last: int
    n00: int
    n01: int
    n10: int
    n11: int


def path_stats(path):
    """Transition counts, endpoints, ones and on-period count of a path."""
    x = np.asarray(path, dtype=np.int64)
    if x.ndim != 1 or x.size < 1 or np.any((x != 0) & (x != 1)):
        raise ValueError("path must be a non-empty 0/1 sequence")
    prev, cur = x[:-1], x[1:]
    n01 = int(((prev == 0) & (cur == 1)).sum())
    n10 = int(((prev == 1) & (cur == 0)).sum())
    n11 = int(((prev == 1) & (cur == 1)).sum())
    n00 = int(x.size - 1 - n01 - n10 - n11)
    return PathStats(
        ones=int(x.sum()),
        on_periods=int(x[0]) + n01,
        first=int(x[0]),
        last=int(x[-1]),
        n00=n00,
        n01=n01,
        n10=n10,
        n11=n11,
    )


def _comb0(n, k):
    return math.comb(n, k) if 0 <= k <= n else 0


def count_paths(j, t, a, b, T):
    """Number of binary paths of length ``T`` with ``j`` on-periods, ``t``
    ones, first bit ``a`` and last bit ``b``; zero when no such path exists.
    """
    if T < 1 or a not in (0, 1) or b not in (0, 1):
        raise ValueError("need T >= 1 and binary endpoints")
    if j < 0 or t < 0:
        return 0
    if j == 0:
        return 1 if (t == 0 and a == 0 and b == 0) else 0
    if t < j:
        return 0
    if j == 1:
        if (a, b) == (0, 0):
            return T - t - 1 if 1 <= t <= T - 2 else 0
        if (a, b) in ((0, 1), (1, 0)):
            return 1 if 1 <= t <= T - 1 else 0
        return 1 if t == T else 0
    return _comb0(t - 1, j - 1) * _comb0(T - t - 1, j - a - b)
