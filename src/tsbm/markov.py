"""Binary Markov interaction chains: path-law divergences (exact, in
O(log T) by one transfer-matrix engine on plain floats that folds a lazily
squared ladder of rungs over the bits of T - 1; sparse closed forms),
threshold constants, one search for the snapshot threshold T* whose kernels
run the same rungs, or the closed form, on arrays for a whole grid or on
floats for one cell, and on-period path combinatorics.  The threshold
constants evaluate the itilde kernels' own elementwise terms, so each equals
the search's value to the bit.
"""

import math
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter

import numpy as np

_fields = attrgetter("mu1", "p01", "p11")  # a chain's fields: astuple deep-copies


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
    p01, infeasible = _stationary_p01(pi1, p11)
    if infeasible:
        raise ValueError(f"no stationary chain: implied p01={p01:.6g} > 1")
    return BinaryMarkovChain(mu1=pi1, p01=min(p01, 1.0), p11=p11)


def _stationary_p01(pi1, p11):
    """The p01 that keeps ``(1-pi1, pi1)`` stationary under persistence
    ``p11`` (floats or arrays), and whether it exceeds 1 beyond rounding."""
    p01 = pi1 * (1.0 - p11) / (1.0 - pi1)
    return p01, p01 > 1.0 + 1e-15


# ---------------------------------------------------------------------------
# Exact path-law divergences via the transfer matrix
# ---------------------------------------------------------------------------


def _law(mu1, p01, p11):
    """``(mu_0, mu_1, P_00, P_01, P_10, P_11)`` of a chain, as floats or arrays."""
    return (1.0 - mu1, mu1, 1.0 - p01, p01, 1.0 - p11, p11)


def _geometric_weights(alpha, chain_f, chain_g):
    """Initial weights ``r`` and transfer matrix ``R = [R00, R01, R10, R11]``
    of elementwise geometric means ``x^alpha y^(1-alpha)``, and the flags of
    these six entries that are infinite (alpha > 1, x > 0 = y; weighted 0)."""
    pairs = list(zip(_law(*_fields(chain_f)), _law(*_fields(chain_g))))
    if alpha == 0.5:  # math.sqrt, as numpy's power takes; x ** 0.5 can round otherwise
        w, inf = [math.sqrt(x) * math.sqrt(y) for x, y in pairs], (False,) * 6
    else:
        w = [x**alpha * y ** (1.0 - alpha) if x > 0 and y > 0 else 0.0 for x, y in pairs]
        inf = [alpha > 1 and x > 0 and y == 0 for x, y in pairs]
    return w[:2], _visited_rows(w[:2], w[2:]), inf


def _visited_rows(r, R):
    """``R`` (floats or arrays) with the rows of states no weighted path visits
    zeroed, lest rescaling a power of R by its largest entry drown the rest."""
    for a in (0, 1):
        live = (r[a] > 0) | (r[0] * R[a] + r[1] * R[2 + a] > 0)
        R[2 * a:2 * a + 2] = [x * live for x in R[2 * a:2 * a + 2]]
    return R


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


def _log_path_sum(r, R, T):
    """``r R^(T-1) = z Z`` (floats or ``_Jet``s) as ``[z, log Z]``, ``z``
    summing to one (or zero, log Z = -inf), by the rungs that the bits of
    ``T - 1`` select: O(log T) products.  Rung k is ``R^(2^k)`` rescaled by
    its largest entry, rung k - 1 squared; after one vanishes, the rest are
    zero, scale -inf.  ``t_star_cells`` runs the same rungs on arrays."""
    if T < 1:
        raise ValueError(f"need at least one snapshot, got T={T}")
    s = r[0] + r[1]
    log_z = math.log(s) if s else -math.inf
    z0, z1 = (r[0] / s, r[1] / s) if s else r
    (a, b, c, d), scale = R, 0.0
    for k in range((T - 1).bit_length()):
        if k:  # square the last rung [[a, b], [c, d]]
            sq = [a * a + b * c, a * b + b * d, c * a + d * c, c * b + d * d]
            s = max(sq)  # the weights are non-negative
            scale = 2 * scale + math.log(s) if s else -math.inf
            a, b, c, d = [x / s for x in sq] if s else sq
        if (T - 1) >> k & 1:
            y0, y1 = z0 * a + z1 * c, z0 * b + z1 * d
            s = y0 + y1
            log_z = log_z + scale + math.log(s) if s else -math.inf
            z0, z1 = (y0 / s, y1 / s) if s else (y0, y1)
    return [(z0, z1), log_z]


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
    """Squared Hellinger distance between path laws: ``1 - Z_{1/2}``, with
    ``log Z`` clamped at 0 (for equal chains it rounds up, by up to T ulps)."""
    return 1.0 - math.exp(min(_log_hellinger_sum(0.5, chain_f, chain_g, T), 0.0))


def markov_j_quantity(chain_f, chain_g, T):
    """Second moment of the path log-likelihood ratio under the normalised
    geometric-mean path weights, in O(log T): ``L`` is additive over steps,
    so the weights and their first and second moments advance together by
    ``[[R, R L, R L^2], [0, R, 2 R L], [0, 0, R]]``, which is ``R`` with
    ``_Jet`` entries."""
    r, R, _ = _geometric_weights(0.5, chain_f, chain_g)
    jets = []
    for w, p, q in zip(r + R, _law(*_fields(chain_f)), _law(*_fields(chain_g))):
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
        raise ValueError(f"need at least one snapshot, got T={T}")
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


def _h11_and_gap(p11, q11):
    """``h11_sq`` and the gap ``1 - sqrt(p11 q11)``, elementwise (0 and 1e-300 if both are 1)."""
    root = np.sqrt(p11 * q11)
    gamma = np.maximum(1.0 - root, 1e-300)
    return np.where(root == 1.0, 0.0, 1.0 - np.sqrt((1.0 - p11) * (1.0 - q11)) / gamma), gamma


def _itilde_terms(u, v, p01, q01, h11, gamma):
    """``i_tilde_short``'s terms, elementwise: first-snapshot, per-snapshot
    (``i_tilde_long``), transient coefficient, gamma and ``log(1 - gamma)``."""
    base, mixed = np.sqrt(u) - np.sqrt(v), np.sqrt(p01) - np.sqrt(q01)
    per = mixed * mixed + 2.0 * h11 * np.sqrt(p01 * q01)
    coef = 2.0 * h11 * (gamma * np.sqrt(u * v) - np.sqrt(p01 * q01))
    # log(1 - gamma) > -38 where gamma < 1; at 1, -1000 makes the transient's sum T > 1
    return [base * base, per, coef, gamma, np.maximum(np.log1p(-gamma), -1000.0)]


def _itilde_at(terms, T):
    """``i_tilde_short`` at ``T`` from its terms, its geometric sum in closed form."""
    base, per, coef, gamma, log1p = terms
    return base + per * (T - 1) + coef * (-np.expm1((T - 1) * log1p) / gamma)


def h11_sq(p11, q11):
    """Squared Hellinger distance between the geometric on-period lengths:
    ``1 - sqrt(1-p11) sqrt(1-q11) / (1 - sqrt(p11 q11))``."""
    if not (0 <= p11 <= 1 and 0 <= q11 <= 1):
        raise ValueError("persistence probabilities must lie in [0, 1]")
    return float(_h11_and_gap(p11, q11)[0])


def i_tilde_short(u, v, p01, q01, h11_sq_value, gamma, T):
    """Threshold constant for a bounded horizon: first-snapshot term, a
    per-snapshot term, and a geometrically damped transient.

    All rate arguments are densities expressed in units of the sparsity
    scale; ``gamma`` is the effective spectral gap, in (0, 1].
    """
    if not all(x >= 0 for x in (u, v, p01, q01, h11_sq_value)):  # each, so NaN fails
        raise ValueError("rate arguments must be non-negative")
    if not 0 < gamma <= 1:
        raise ValueError("gamma must lie in (0, 1]")
    if T < 1:
        raise ValueError(f"need at least one snapshot, got T={T}")
    with np.errstate(all="ignore"):  # log1p(-1) at gamma = 1; infinite rates give NaN
        return float(_itilde_at(_itilde_terms(u, v, p01, q01, h11_sq_value, gamma), T))


def i_tilde_long(p01, q01, h11_sq_value):
    """Per-snapshot threshold constant for a long horizon (initial states
    forgotten): ``(sqrt(p01)-sqrt(q01))^2 + 2 h11^2 sqrt(p01 q01)``."""
    if not all(x >= 0 for x in (p01, q01, h11_sq_value)):  # each, so NaN fails
        raise ValueError("rate arguments must be non-negative")
    with np.errstate(all="ignore"):  # the short form's per-snapshot term, from any start
        return float(_itilde_terms(0.0, 0.0, p01, q01, h11_sq_value, 1.0)[1])


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
    return (chain_f.mu1 / rho, chain_g.mu1 / rho, chain_f.p01 / rho, chain_g.p01 / rho,
            *map(float, _h11_and_gap(chain_f.p11, chain_g.p11)))


def t_star(chain_f, chain_g, N, K, convention=ThresholdConvention.EXACT, t_max=10**6):
    """Smallest number of snapshots at which the interaction divergence
    crosses the strong-consistency threshold; None if ``t_max`` is hit.
    ``t_star_cells``' search on one cell, in floats (``_lift_one``)."""
    kernels, rho, t_max = _search(N, K, convention, t_max)
    with np.errstate(all="ignore"):
        return _lift_one(*kernels(_fields(chain_f) + _fields(chain_g), rho, K), t_max) or None


def _search(N, K, convention, t_max):
    """The kernels of ``convention``, rho, and ``t_max`` in whole snapshots (2^62 at most)."""
    if not K >= 2:  # NaN fails this and the next check
        raise ValueError(f"need at least two blocks, got K={K}")
    if not N >= 2:
        raise ValueError(f"need at least two nodes, got N={N}")
    exact = ThresholdConvention(convention) is ThresholdConvention.EXACT
    return _exact_kernels if exact else _itilde_kernels, math.log(N) / N, min(int(t_max), 1 << 62)


_CELLS_PER_PASS = 1 << 14  # bounds the search's temporaries, whatever the grid


def t_star_cells(f, g, N, K, convention=ThresholdConvention.EXACT, t_max=10**6):
    """``t_star`` for every cell of chain pairs given as arrays: ``f`` and
    ``g`` are ``(mu1, p01, p11)`` tuples of arrays that broadcast together.
    Returns T* as int64 in their broadcast shape, 0 where ``t_max`` (2^62 at
    most) is hit, by binary lifting in lockstep (``_lift``).  Both divergences
    grow with T: the length-T path law is a marginal of the length-(T+1)
    one, and an itilde step adds per + transient_coef (1-gamma)^(T-1) >= 0."""
    kernels, rho, t_max = _search(N, K, convention, t_max)
    shape = np.broadcast_shapes(*map(np.shape, f + g))
    out = np.zeros(math.prod(shape), np.int64)
    for lo in range(0, out.size if t_max >= 1 else 0, _CELLS_PER_PASS):
        cells = [np.broadcast_to(np.asarray(x, float), shape).flat[lo:lo + _CELLS_PER_PASS]
                 for x in f + g]
        with np.errstate(all="ignore"):
            out[lo:lo + _CELLS_PER_PASS] = _lift(*kernels(cells, rho, K), t_max)
    return out.reshape(shape)


def _lift(crossed_at_1, state, rung, step, square, t_max):
    """T* of each cell of the kernels' arrays, 0 past ``t_max``.  Phase one
    tries the span 2^k at step k for every cell still growing (each at T =
    2^k), phase two each span 2^k from the top down for the cells that grew
    past step k; a cell takes every span that leaves it uncrossed."""
    T = np.ones(crossed_at_1.size, np.int64)  # each cell's last T known uncrossed
    i, levels = np.flatnonzero(~crossed_at_1), []
    rung = [x[i] for x in rung]  # each array holds the cells i, as below reads them

    def below(i, T, rung):  # which of the cells i stay uncrossed at T; those move there
        moved, crossed = step([x[i] for x in state], rung, T)
        for x, y in zip(state, moved):
            x[i[~crossed]] = y[~crossed]
        return ~crossed

    while i.size and 2 << len(levels) <= t_max:
        rung = square(rung) if levels else rung
        ok = below(i, 2 << len(levels), rung)
        i, rung = i[ok], [x[ok] for x in rung]
        T[i] = 2 << len(levels)
        levels.append((i, rung))  # the cells that grew past this step, and its rung
    for k, (i, rung) in reversed(list(enumerate(levels))):
        fit = T[i] + (1 << k) <= t_max
        i, rung = i[fit], [x[fit] for x in rung]
        T[i[below(i, T[i] + (1 << k), rung)]] += 1 << k
    return np.where(crossed_at_1, 1, np.where(T < t_max, T + 1, 0))


def _lift_one(crossed_at_1, state, rung, step, square, t_max):
    """``_lift`` on one cell of floats: the same steps through the same
    kernels; phase one stops at the first crossing."""
    if crossed_at_1:
        return int(t_max >= 1)
    T, rungs = 1, []
    while 2 << len(rungs) <= t_max:
        rung = square(rung) if rungs else rung
        moved, crossed = step(state, rung, 2 << len(rungs))
        if crossed:
            break
        state[:len(moved)], T = moved, 2 << len(rungs)
        rungs.append(rung)
    for k in reversed(range(len(rungs))):
        if T + (1 << k) <= t_max:
            moved, crossed = step(state, rungs[k], T + (1 << k))
            if not crossed:
                state[:len(moved)], T = moved, T + (1 << k)
    return T + 1 if T < t_max else 0


# The kernels take floats or arrays alike: a cell searched alone meets its grid cell's floats.
# numpy's exp, log, log1p and expm1 on Python floats equal its array loops on all of 40-60,000
# inputs each (math's miss on 0.1-4%); a numpy float's ** 2 missed x * x on 50 of 60,000.
def _rescaled(v, s):
    """``v[:-1]`` over ``s`` where ``s > 0`` (else all 0), and ``v[-1] + log s``."""
    positive = s + (s == 0)  # s or 1
    return [x / positive for x in v[:-1]] + [v[-1] + np.log(s)]


def _exact_kernels(cells, rho, K):
    """``_lift``'s arguments but ``t_max``, exact convention: state ``[z0, z1,
    log Z]`` and rung ``[a, b, c, d, log scale]`` of the order-1/2 weights."""
    r0, r1, *R = (np.sqrt(x) * np.sqrt(y) for x, y in zip(_law(*cells[:3]), _law(*cells[3:])))
    R = _visited_rows([r0, r1], R)
    state = _rescaled([r0, r1, 0.0], r0 + r1)

    def crossed(log_z):  # orthogonal supports, log Z = -inf: 1 - Z = 1, short of K rho > 1
        return 1.0 - np.exp(log_z) >= K * rho  # log Z > 0 by rounding (inf too): uncrossed

    def step(state, rung, T):  # the state moved by the rung, to T, and crossed there?
        (z0, z1, log_z), (a, b, c, d, scale) = state, rung
        y = [z0 * a + z1 * c, z0 * b + z1 * d]
        y = _rescaled(y + [log_z + scale], y[0] + y[1])
        return y, crossed(y[2])

    def square(rung):  # [[a, b], [c, d]] squared, rescaled by its largest entry
        a, b, c, d, scale = rung
        sq = [a * a + b * c, a * b + b * d, c * a + d * c, c * b + d * d]
        return _rescaled(sq + [2 * scale], np.maximum(*map(np.maximum, sq[:2], sq[2:])))

    return crossed(state[2]), state, R + [np.zeros_like(r0)], step, square


def _itilde_kernels(cells, rho, K):
    """``_lift``'s arguments but ``t_max``, itilde convention: the terms of
    ``i_tilde_short`` at ``_i_tilde_args``' arguments, and no rung."""
    mu1, nu1, p01, q01 = (x / rho for x in (cells[0], cells[3], cells[1], cells[4]))
    terms = _itilde_terms(mu1, nu1, p01, q01, *_h11_and_gap(cells[2], cells[5]))

    def step(terms, rung, T):  # no move; i_tilde_short > K at T?
        return [], _itilde_at(terms, T) > float(K)

    return step(terms, [], 1)[1], terms, [], step, lambda rung: rung


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
