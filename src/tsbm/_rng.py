"""Counter-based uniform random numbers with per-stream substreams.

Every variate is a pure function of (seed, stream, step), so generation is
order-independent and safe to parallelise: drawing stream 7 before stream 3
yields bit-identical values.  The mixer is the SplitMix64 finalizer applied
in a chained fashion over the three words.  A caller that draws many steps,
or many counters, of the same stream hashes it once with ``stream_key``.
"""

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_INV53 = 1.0 / float(np.uint64(1) << np.uint64(53))


def _mix64(x):
    """SplitMix64 avalanche finalizer, elementwise on uint64 values; a uint64
    ndarray is mixed in place (uint64 arithmetic is modular by design)."""
    x = np.asarray(x)
    tmp = np.empty_like(x)
    x ^= np.right_shift(x, np.uint64(30), out=tmp)
    x *= _MIX1
    x ^= np.right_shift(x, np.uint64(27), out=tmp)
    x *= _MIX2
    x ^= np.right_shift(x, np.uint64(31), out=tmp)
    return x


def stream_key(seed, stream):
    """The step-independent half of ``counter_uniform``'s hash.

    A caller that draws many steps of the same streams hashes them once
    here and finishes each step with ``step_uniform``.
    """
    s = np.array(seed & 0xFFFFFFFFFFFFFFFF, dtype=np.uint64)
    s += _GOLDEN
    key = np.array(stream, dtype=np.uint64)  # the one copy, hashed in place
    key += _GOLDEN
    key *= _MIX1
    key ^= _mix64(s)
    return _mix64(key)[()]  # a scalar for a scalar stream


def step_uniform(key, step):
    """Finish ``stream_key`` output into the uniforms of ``step``."""
    with np.errstate(over="ignore"):
        h = _mix64(key ^ (np.asarray(step, dtype=np.uint64) + _GOLDEN) * _MIX2)
    return (h >> np.uint64(11)).astype(np.float64) * _INV53


def counter_uniform(seed, stream, step):
    """Uniform variates in [0, 1) keyed by (seed, stream, step).

    ``stream`` and ``step`` may be integers or integer arrays; they broadcast
    against each other.  The same key always returns the same value.
    """
    return step_uniform(stream_key(seed, stream), step)


def derive_seed(master_seed, index):
    """Derive an independent 63-bit integer seed for substream ``index``."""
    return int(stream_key(master_seed, index) >> np.uint64(1))
