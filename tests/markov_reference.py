"""The exact T* search on numpy arrays, as the library once ran it.

``t_star`` runs its exact search on plain floats: the order-1/2 weights
come from ``math.sqrt`` and each rung of the squaring ladder is a 4-float
squaring.  The reference here builds the same weights with
``_geometric_weights`` and the rungs with ``_squaring_ladder``, both on
2 x 2 numpy arrays, and walks them by the same galloping search; the tests
require both to give the same T*.
"""

import math

from tsbm.markov import _geometric_weights, _squaring_ladder


def t_star_exact(chain_f, chain_g, N, K, t_max=10**6):
    """``t_star(chain_f, chain_g, N, K, "exact", t_max)`` on numpy weights
    and rungs."""
    threshold = K * math.log(N) / N
    r, R, *_ = _geometric_weights(0.5, chain_f, chain_g)
    state = [0.0, 0.0, 0.0]  # r R^(T-1) = (z0, z1) exp(log_scale)
    ladder, rungs = _squaring_ladder(R), []

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
