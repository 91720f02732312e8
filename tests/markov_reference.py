"""Independent references for ``tsbm.markov``: the path-sum engine on numpy
arrays, the scalar T* search, and the literal sum over paths.

``geometric_weights`` and ``squaring_ladder`` are the numpy weights and
squaring ladder that ``tsbm.markov`` used before its engine moved to plain
floats; ``t_star_exact`` walks those rungs by ``t_star``'s galloping search.
The tests require the library's float weights to match these (bit for bit
at order 1/2, within a few ulps elsewhere) and both searches to give the
same T*.  ``t_star_scalar`` is the per-cell search, both conventions, that
the library ran before its search took all cells of a grid at once: the
oracle for ``t_star_cells``, cell by cell.  ``markov_renyi_brute`` is the
literal sum over all paths, the oracle for both engines at small T, from
each path's ``path_log_prob``.
"""

import math

import numpy as np
from scipy.special import logsumexp

from tsbm.markov import ThresholdConvention, _geometric_weights, _i_tilde_args, i_tilde_short


def path_log_prob(chain, paths):
    """Log probability under ``chain`` of each row of a (m, T) 0/1 array;
    -inf allowed."""
    x = np.asarray(paths, dtype=np.int64)
    if x.ndim == 1:
        x = x[None, :]
    with np.errstate(divide="ignore"):
        log_mu = np.log(chain.mu)
        log_p = np.log(chain.transition).ravel()  # index 2*a + b
    out = log_mu[x[:, 0]]
    for t in range(1, x.shape[1]):
        out = out + log_p[2 * x[:, t - 1] + x[:, t]]
    return out


def geometric_weights(alpha, chain_f, chain_g):
    """Initial weights ``r_b`` and transfer matrix ``R_ab`` of elementwise
    weighted geometric means, with the masks of infinite entries.  For
    ``alpha > 1`` an entry with positive numerator over a zero denominator
    is flagged as infinite and its weight zeroed."""
    mu, nu = chain_f.mu, chain_g.mu
    P, Q = chain_f.transition, chain_g.transition
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(mu > 0, mu**alpha * nu ** (1.0 - alpha), 0.0)
        R = np.where(P > 0, P**alpha * Q ** (1.0 - alpha), 0.0)
    r_inf = (mu > 0) & (nu == 0) if alpha > 1 else np.zeros(2, dtype=bool)
    R_inf = (P > 0) & (Q == 0) if alpha > 1 else np.zeros((2, 2), dtype=bool)
    r = np.where(r_inf, 0.0, r)
    R = np.where(R_inf, 0.0, R)
    # zero the rows of states no weighted path visits
    R = np.where(((r > 0) | (r @ R > 0))[:, None], R, 0.0)
    return r, R, r_inf, R_inf


def squaring_ladder(R):
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


def t_star_exact(chain_f, chain_g, N, K, t_max=10**6):
    """``t_star(chain_f, chain_g, N, K, "exact", t_max)`` on numpy weights
    and rungs."""
    threshold = K * math.log(N) / N
    r, R, *_ = geometric_weights(0.5, chain_f, chain_g)
    state = [0.0, 0.0, 0.0]  # r R^(T-1) = (z0, z1) exp(log_scale)
    ladder, rungs = squaring_ladder(R), []

    def moves(y0, y1, scale):  # uncrossed at (y0, y1) exp(log_scale + scale)? go there
        s = y0 + y1
        if s == 0.0:  # orthogonal supports: distance 1
            if threshold <= 1.0:
                return False
            state[:] = 0.0, 0.0, -math.inf
            return True
        log_total = state[2] + scale + math.log(s)
        if 1.0 - math.exp(min(log_total, 0.0)) >= threshold:
            return False
        state[:] = y0 / s, y1 / s, log_total
        return True

    def below(k):  # uncrossed 2^k snapshots on? then the state moves there
        if k == len(rungs):
            rung, scale = next(ladder)
            rungs.append((rung.tolist(), scale))
        ((a00, a01), (a10, a11)), scale = rungs[k]
        z0, z1 = state[0], state[1]
        return moves(z0 * a00 + z1 * a10, z0 * a01 + z1 * a11, scale)

    t_max = int(t_max)
    if t_max < 1:
        return None
    if not moves(*r.tolist(), 0.0):
        return 1
    T, k = 1, 0
    while T + (1 << k) <= t_max and below(k):
        T += 1 << k
        k += 1
    for k in reversed(range(k)):
        if T + (1 << k) <= t_max and below(k):
            T += 1 << k
    return T + 1 if T < t_max else None


def t_star_scalar(chain_f, chain_g, N, K, convention="exact", t_max=10**6):
    """``t_star`` one cell at a time.  From T = 1 it tries spans of 2^k
    snapshots, growing k while each span leaves the threshold uncrossed,
    then shrinking it, and takes every span that leaves it uncrossed.  The
    exact convention moves ``r R^(T-1) = z Z``, two floats and log Z, by the
    rungs of the order-1/2 weights' squaring ladder, each the last squared
    as a 2 x 2 matrix and rescaled by its largest entry; the itilde
    convention evaluates ``i_tilde_short`` at the span's end."""
    if not K >= 2:
        raise ValueError("need at least two blocks")
    if not N >= 2:
        raise ValueError(f"need at least two nodes, got N={N}")
    rho = math.log(N) / N
    t_max = int(t_max)
    if ThresholdConvention(convention) is ThresholdConvention.EXACT:
        threshold = K * rho
        r, R, _ = _geometric_weights(0.5, chain_f, chain_g)
        rungs = [(R, 0.0)]
        s = r[0] + r[1]
        state = [(r[0] / s, r[1] / s), math.log(s)] if s else [(r[0], r[1]), -math.inf]
        crossed_at_1 = 1.0 - math.exp(min(state[1], 0.0)) >= threshold

        def below(k):  # uncrossed at T + 2^k? then the state moves there
            while len(rungs) <= k:
                (a, b, c, d), scale = rungs[-1]
                sq = [a * a + b * c, a * b + b * d, c * a + d * c, c * b + d * d]
                s = max(sq)
                rungs.append(([x / s for x in sq], 2 * scale + math.log(s)) if s
                             else (sq, -math.inf))
            (a, b, c, d), scale = rungs[k]
            (z0, z1), log_scale = state
            y0, y1 = z0 * a + z1 * c, z0 * b + z1 * d
            s = y0 + y1
            log_total = log_scale + scale + math.log(s) if s else -math.inf
            if 1.0 - math.exp(min(log_total, 0.0)) >= threshold:
                return False
            state[:] = ((y0 / s, y1 / s) if s else (y0, y1)), log_total
            return True
    else:
        threshold = float(K)
        args = _i_tilde_args(chain_f, chain_g, rho)
        crossed_at_1 = i_tilde_short(*args, 1) > threshold

        def below(k):  # reads the search's T, set below
            return not i_tilde_short(*args, T + (1 << k)) > threshold

    if t_max < 1:
        return None
    if crossed_at_1:
        return 1
    T, k = 1, 0
    while T + (1 << k) <= t_max and below(k):
        T += 1 << k
        k += 1
    for k in reversed(range(k)):
        if T + (1 << k) <= t_max and below(k):
            T += 1 << k
    return T + 1 if T < t_max else None


def markov_renyi_brute(alpha, chain_f, chain_g, T):
    """Literal sum over all 2^T paths; test oracle, T capped at 20."""
    if T > 20:
        raise ValueError("brute-force enumeration capped at T = 20")
    if T < 1:
        raise ValueError("need at least one snapshot")
    if not (alpha > 0 and alpha != 1):  # NaN fails it
        raise ValueError("order must be positive and different from 1")
    codes = np.arange(2**T, dtype=np.int64)
    paths = (codes[:, None] >> np.arange(T)[None, :]) & 1
    lf = path_log_prob(chain_f, paths)
    lg = path_log_prob(chain_g, paths)
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
    return max(0.0, log_z / (alpha - 1.0))
