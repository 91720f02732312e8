"""Binary Markov interaction chains: path-law divergences (exact, in
O(log T) by one transfer-matrix engine on plain floats, a walk by the rungs
of a lazily squared ladder that the T* search shares; sparse closed
forms), threshold constants, one search for the snapshot threshold T*, and
on-period path combinatorics.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


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


def _law(chain):
    """``(mu_0, mu_1, P_00, P_01, P_10, P_11)`` of a chain, as plain floats."""
    return (1.0 - chain.mu1, chain.mu1, 1.0 - chain.p01, chain.p01, 1.0 - chain.p11, chain.p11)


def _geometric_weights(alpha, chain_f, chain_g):
    """Initial weights ``r`` and transfer matrix ``R = [R00, R01, R10, R11]``
    of elementwise geometric means ``x^alpha y^(1-alpha)``, and the flags of
    these six entries that are infinite (alpha > 1, x > 0 = y; weighted 0)."""
    if alpha == 0.5:  # math.sqrt, as numpy's power takes; x ** 0.5 can round otherwise
        sqrt, f, g = math.sqrt, chain_f, chain_g
        w = [sqrt(1.0 - f.mu1) * sqrt(1.0 - g.mu1), sqrt(f.mu1) * sqrt(g.mu1),
             sqrt(1.0 - f.p01) * sqrt(1.0 - g.p01), sqrt(f.p01) * sqrt(g.p01),
             sqrt(1.0 - f.p11) * sqrt(1.0 - g.p11), sqrt(f.p11) * sqrt(g.p11)]
        inf = (False,) * 6
    else:
        pairs = list(zip(_law(chain_f), _law(chain_g)))
        w = [x**alpha * y ** (1.0 - alpha) if x > 0 and y > 0 else 0.0 for x, y in pairs]
        inf = [alpha > 1 and x > 0 and y == 0 for x, y in pairs]
    r, R = w[:2], w[2:]
    # zero the rows of states no weighted path visits, so that rescaling a
    # power of R by its largest entry cannot drown the states that matter
    for a in (0, 1):
        if not (r[a] > 0 or r[0] * R[a] + r[1] * R[2 + a] > 0):
            R[2 * a] = R[2 * a + 1] = 0.0
    return r, R, inf


class _Jet(tuple):
    """``a + b e + c e^2 / 2`` with ``e^3 = 0``, held as ``(a, b, c)``: a path
    weight with the first and second moments of the log ratio it carries.
    Jets multiply as ``(aa', ab' + ba', ac' + 2bb' + ca')``, so a 2 x 2
    matrix of jets is J's block transfer matrix ``[[A, B, C], [0, A, 2B],
    [0, 0, A]]`` entry by entry.  A jet scales, tests and logs by its weight."""

    __slots__ = ()

    def __add__(self, other):
        return _Jet(x + y for x, y in zip(self, other))

    def __mul__(self, other):
        (a, b, c), (x, y, z) = self, other
        return _Jet((a * x, a * y + b * x, a * z + 2.0 * b * y + c * x))

    def __truediv__(self, other):
        return _Jet(x / other[0] for x in self)

    def __float__(self):
        return self[0]

    def __bool__(self):
        return self[0] != 0.0


def _walk(r, R, threshold=math.inf):
    """A walk along the row ``r R^(T-1)`` (floats or ``_Jet``s) from T = 1:
    ``state = [z, log Z]``, ``r R^(T-1) = z Z`` with ``z`` summing to one (or
    zero, log Z = -inf), and ``move(k)``, which takes T to T + 2^k by rung k,
    ``R^(2^k)`` rescaled by its largest entry, unless 1 - Z would reach
    ``threshold`` (T*'s test), and says whether it moved.  Rungs are squared
    as needed and kept; after one vanishes, the rest are zero, scale -inf."""
    rungs = [(R, 0.0)]
    s = r[0] + r[1]
    state = [(r[0] / s, r[1] / s), math.log(s)] if s else [(r[0], r[1]), -math.inf]

    def move(k):
        while len(rungs) <= k:  # square the last rung [[a, b], [c, d]]
            (a, b, c, d), scale = rungs[-1]
            sq = [a * a + b * c, a * b + b * d, c * a + d * c, c * b + d * d]
            s = max(sq)  # the weights are non-negative
            rungs.append(([x / s for x in sq], 2 * scale + math.log(s)) if s else (sq, -math.inf))
        (a, b, c, d), scale = rungs[k]
        (z0, z1), log_scale = state
        y0, y1 = z0 * a + z1 * c, z0 * b + z1 * d
        s = y0 + y1
        log_total = log_scale + scale + math.log(s) if s else -math.inf
        if 1.0 - math.exp(min(log_total, 0.0)) >= threshold:
            return False
        state[:] = ((y0 / s, y1 / s) if s else (y0, y1)), log_total
        return True

    return state, move


def _log_path_sum(r, R, T):
    """``r R^(T-1)`` as ``_walk``'s state ``[z, log Z]``, by the rungs that
    the bits of ``T - 1`` select: O(log T) products."""
    if T < 1:
        raise ValueError("need at least one snapshot")
    state, move = _walk(r, R)
    for k in range((T - 1).bit_length()):
        if (T - 1) >> k & 1:
            move(k)
    return state


def _log_hellinger_sum(alpha, chain_f, chain_g, T):
    """log of ``Z = sum over paths of f^alpha g^(1-alpha)``: -inf on
    orthogonal supports, +inf when a path of positive f-mass meets g = 0.
    Every path f can reach extends to any length, so Z is infinite exactly
    when a state f reaches within T - 1 steps leaves by an infinite entry;
    the sets of states a two-state chain reaches repeat within three steps."""
    r, R, inf = _geometric_weights(alpha, chain_f, chain_g)
    log_z = _log_path_sum(r, R, T)[1]
    edge = [x > 0 or i for x, i in zip(r + R, inf)]  # the entries a path may take
    reach, hit = edge[:2], any(inf[:2])
    for _ in range(min(T - 1, 3)):
        hit = hit or any(reach[a >> 1] and inf[2 + a] for a in range(4))
        reach = [reach[0] and edge[2 + b] or reach[1] and edge[4 + b] for b in (0, 1)]
    return math.inf if hit else log_z


def markov_renyi_exact(alpha, chain_f, chain_g, T):
    """Renyi divergence of order ``alpha`` between the length-``T`` path laws
    of two binary chains, via the transfer matrix in O(log T)."""
    if not (alpha > 0 and alpha != 1):  # NaN fails it
        raise ValueError("order must be positive and different from 1")
    log_z = _log_hellinger_sum(alpha, chain_f, chain_g, T)
    if math.isinf(log_z):
        return math.inf  # orthogonal supports, or (alpha > 1) g = 0 under f
    return max(0.0, log_z / (alpha - 1.0))  # 0.0 first: max(-0.0, 0.0) is -0.0


def markov_hellinger_sq(chain_f, chain_g, T):
    """Squared Hellinger distance between path laws: ``1 - Z_{1/2}``,
    clamped at 0 (``log Z`` of equal chains rounds to just above 0)."""
    return max(1.0 - math.exp(_log_hellinger_sum(0.5, chain_f, chain_g, T)), 0.0)


def markov_j_quantity(chain_f, chain_g, T):
    """Second moment of the path log-likelihood ratio under the normalised
    geometric-mean path weights, in O(log T): ``L`` is additive over steps,
    so the weights and their first and second moments advance together by
    ``[[R, R L, R L^2], [0, R, 2 R L], [0, 0, R]]``, which is ``R`` with
    ``_Jet`` entries."""
    r, R, _ = _geometric_weights(0.5, chain_f, chain_g)
    jets = []
    for w, p, q in zip(r + R, _law(chain_f), _law(chain_g)):
        # log(p / q); for close p and q, log1p of their exact difference over q
        l = (math.log1p((p - q) / q) if abs(p - q) < q / 2 else math.log(p / q)) if w else 0.0
        jets.append(_Jet((w, w * l, w * l * l)))
    (z0, z1), _ = _log_path_sum(jets[:2], jets[2:], T)
    a, _, c = z0 + z1
    if a == 0.0:
        raise ValueError("orthogonal path laws: weights vanished")
    return c / a


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
    if not alpha > 1:
        raise ValueError("high-order bound needs alpha > 1")
    if not M >= 1:
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
    if not all(x >= 0 for x in (u, v, p01, q01, h11_sq_value)):  # each, so NaN fails
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
    if not all(x >= 0 for x in (p01, q01, h11_sq_value)):  # each, so NaN fails
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
    exact convention is the path-sum engine's ``_walk`` on the order-1/2
    weights: its state, two floats, moves by the rungs of their squaring
    ladder, each rung the last squared as a 2 x 2 matrix and rescaled by its
    largest entry; the itilde convention evaluates ``i_tilde_short``'s
    closed form at the span's end.  A search costs O(log T*) rungs and
    four-product moves.
    """
    if not K >= 2:  # NaN fails this and the next check
        raise ValueError("need at least two blocks")
    if not N >= 2:
        raise ValueError(f"need at least two nodes, got N={N}")
    if isinstance(convention, str):
        convention = ThresholdConvention(convention)
    rho = math.log(N) / N
    t_max = int(t_max)  # a float or numpy integer bound counts whole snapshots

    if convention is ThresholdConvention.EXACT:
        threshold = K * rho
        r, R, _ = _geometric_weights(0.5, chain_f, chain_g)  # finite at alpha = 1/2
        # below(k): uncrossed at T + 2^k? then the walk moves there; orthogonal
        # supports (log Z = -inf) sit at 1 - Z = 1, short of a threshold above 1
        state, below = _walk(r, R, threshold)
        crossed_at_1 = 1.0 - math.exp(min(state[1], 0.0)) >= threshold
    else:
        threshold = float(K)
        args = _i_tilde_args(chain_f, chain_g, rho)
        base, per, transient_coef = _i_tilde_terms(*args)
        gamma = args[-1]

        def crossed(T):  # i_tilde_short(*args, T) > threshold, bit for bit
            return base + per * (T - 1) + transient_coef * _geo_sum(gamma, T) > threshold

        crossed_at_1 = crossed(1)

        def below(k):  # reads the search's T, set below
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
    while T + (1 << k) <= t_max and below(k):
        T += 1 << k
        k += 1
    # the last uncrossed T <= t_max is now below T + 2^k: add its bits
    for k in reversed(range(k)):
        if T + (1 << k) <= t_max and below(k):
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
