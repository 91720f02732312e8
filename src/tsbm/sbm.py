"""Synthetic data generation for homogeneous block models with pluggable
pair-interaction laws, plus the line-oriented ``tsbm`` snapshot file format.

Pair patterns are drawn from counter-based substreams keyed by
``(seed, i, j)``, so generation order (serial, parallel, chunked) never
changes the output.  The Markov sampler walks the pairs in fixed-size
chunks, hashing each pair's stream key once for all T steps, and writes
only set bits into the tensor.

The reader parses edges into integer arrays and validates them before it
allocates one ``T x N x N`` tensor: uint8, or int64 only when some symbol
exceeds 1.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._rng import counter_uniform, step_uniform, stream_key

__all__ = [
    "SnapshotArray",
    "SnapshotFormatError",
    "MalformedHeaderError",
    "DuplicateEdgeError",
    "IndexRangeError",
    "sample_labelling",
    "balanced_labelling",
    "sample_markov_snapshots",
    "sample_categorical_snapshots",
    "write_snapshots",
    "read_snapshots",
    "write_labels",
    "read_labels",
]


class SnapshotFormatError(ValueError):
    """Base error for malformed snapshot files."""


class MalformedHeaderError(SnapshotFormatError):
    pass


class DuplicateEdgeError(SnapshotFormatError):
    pass


class IndexRangeError(SnapshotFormatError):
    pass


@dataclass
class SnapshotArray:
    """Symmetric ``T x N x N`` interaction tensor with zero diagonal.

    Entries are non-negative integers: 0/1 bits for temporal graphs, symbol
    codes for categorical interactions (where ``T`` is typically 1).
    """

    data: np.ndarray
    labels: Optional[np.ndarray] = None

    def __post_init__(self):
        a = np.asarray(self.data)
        if a.ndim != 3 or a.shape[1] != a.shape[2]:
            raise ValueError("data must have shape (T, N, N)")
        self.data = a
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (a.shape[1],):
                raise ValueError("labels length must match node count")

    @property
    def T(self):
        return self.data.shape[0]

    @property
    def N(self):
        return self.data.shape[1]

    def validate(self):
        """Check symmetry and zero diagonal; raises on violation."""
        for t in range(self.T):
            m = self.data[t]
            if not np.array_equal(m, m.T):
                raise ValueError(f"snapshot {t + 1} is not symmetric")
            if np.any(np.diagonal(m) != 0):
                raise ValueError(f"snapshot {t + 1} has a nonzero diagonal")
        return self


def sample_labelling(N, K, weights=None, seed=0):
    """I.i.d. block labels in ``{0, ..., K-1}``: uniform by default or from
    the given weight vector.  Deterministic given the seed."""
    if K < 1 or K > N:
        raise ValueError("need 1 <= K <= N")
    u = counter_uniform(seed, 0, np.arange(N))
    if weights is None:
        return np.minimum((u * K).astype(np.int64), K - 1)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (K,) or np.any(w < 0) or w.sum() <= 0:
        raise ValueError("degenerate weight vector")
    cdf = np.cumsum(w / w.sum())
    return np.minimum(np.searchsorted(cdf, u, side="right"), K - 1).astype(np.int64)


def balanced_labelling(N, K):
    """Deterministic labelling with block sizes as equal as possible."""
    if K < 1 or K > N:
        raise ValueError("need 1 <= K <= N")
    return (np.arange(N) * K // N).astype(np.int64)


def _pair_index(N):
    iu, ju = np.triu_indices(N, k=1)
    return iu, ju, iu.astype(np.uint64) * np.uint64(N) + ju.astype(np.uint64)


# Pairs per sampler chunk: small enough that a chunk's per-pair arrays stay
# in cache across all T steps.  Any value gives the same output.
_CHUNK_PAIRS = 1 << 15


def sample_markov_snapshots(labels, intra, inter, T, seed=0):
    """Markov interaction snapshots: each unordered pair's T-bit pattern is
    an independent chain, ``intra`` within blocks and ``inter`` across.

    Pairs are walked in fixed-size chunks in row-major ``i < j`` order; each
    chunk runs through all T steps and writes only its set bits.
    """
    if T < 1:
        raise ValueError("need at least one snapshot")
    labels = np.asarray(labels, dtype=np.int64)
    N = labels.size
    out = np.zeros((T, N, N), dtype=np.uint8)
    flat = out.reshape(-1)
    # pairs (i, i+1), ..., (i, N-1) are numbered from row_start[i] on
    row_start = np.arange(N) * (2 * N - np.arange(N) - 1) // 2
    n_pairs = N * (N - 1) // 2
    for lo in range(0, n_pairs, _CHUNK_PAIRS):
        p = np.arange(lo, min(lo + _CHUNK_PAIRS, n_pairs))
        i = np.searchsorted(row_start, p, side="right") - 1
        j = p - row_start[i] + i + 1
        upper, lower = i * N + j, j * N + i  # upper is also the stream id
        key = stream_key(seed, upper)
        same = labels[i] == labels[j]
        p01 = np.where(same, intra.p01, inter.p01)
        p11 = np.where(same, intra.p11, inter.p11)
        threshold = np.where(same, intra.mu1, inter.mu1)
        for t in range(T):
            cur = step_uniform(key, t) < threshold
            threshold = np.where(cur, p11, p01)
            on = np.flatnonzero(cur)
            flat[t * N * N + upper[on]] = 1
            flat[t * N * N + lower[on]] = 1
    return SnapshotArray(out, labels=labels)


def sample_categorical_snapshots(labels, f, g, seed=0):
    """One snapshot of i.i.d. categorical interactions: symbol law ``f``
    within blocks, ``g`` across.  Alphabets must match."""
    if len(f) != len(g):
        raise ValueError(f"alphabet mismatch: {len(f)} vs {len(g)}")
    labels = np.asarray(labels, dtype=np.int64)
    N = labels.size
    iu, ju, streams = _pair_index(N)
    same = labels[iu] == labels[ju]
    u = counter_uniform(seed, streams, 0)
    sym_f = np.searchsorted(np.cumsum(f.probs), u, side="right")
    sym_g = np.searchsorted(np.cumsum(g.probs), u, side="right")
    sym = np.where(same, sym_f, sym_g).astype(np.int64)
    sym = np.minimum(sym, len(f) - 1)
    out = np.zeros((1, N, N), dtype=np.int64)
    out[0, iu, ju] = sym
    out[0, ju, iu] = sym
    return SnapshotArray(out, labels=labels)


# ---------------------------------------------------------------------------
# File format: line-oriented, diff-able, sparse-friendly
#
#   # comment
#   tsbm 1 N T
#   labels l1 ... lN          (optional; 1-based block labels)
#   e t i j                   (set bit: 1-based t, 0-based i < j)
#   e t i j v                 (general symbol 1 <= v <= 2^63 - 1)
# ---------------------------------------------------------------------------

_MAGIC = "tsbm"
_VERSION = "1"
_INT64_MAX = int(np.iinfo(np.int64).max)


def write_snapshots(path, array, labels=None):
    """Write an array (and optional labels line) in ``tsbm`` format."""
    if labels is None:
        labels = array.labels
    data = array.data
    T, N = array.T, array.N
    with open(path, "w") as fh:
        fh.write(f"{_MAGIC} {_VERSION} {N} {T}\n")
        if labels is not None:
            fh.write("labels " + " ".join(str(int(l) + 1) for l in labels) + "\n")
        for t in range(T):
            snap = data[t].reshape(-1)
            idx = np.flatnonzero(snap)
            iu, ju = np.divmod(idx, N)
            upper = iu < ju
            iu, ju, vals = iu[upper], ju[upper], snap[idx[upper]]
            e = f"e {t + 1} "
            fh.write("".join([
                f"{e}{i} {j}\n" if v == 1 else f"{e}{i} {j} {v}\n"
                for i, j, v in zip(iu.tolist(), ju.tolist(), vals.tolist())
            ]))


def read_snapshots(path):
    """Read a ``tsbm`` file; the result round-trips bit-exactly.

    Edges are validated as arrays before the tensor is allocated, and an
    invalid file reports its first offending line.  The tensor is uint8
    unless some value exceeds 1, in which case it is int64.
    """
    header = None
    labels = None
    lines, columns = [], ([], [], [], [])  # t, i, j, v of each edge line
    ts, iss, js, vs = columns
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            tokens = raw.split()
            if not tokens or tokens[0].startswith("#"):
                continue
            if header is None:
                line = raw.strip()
                if len(tokens) != 4 or tokens[0] != _MAGIC or tokens[1] != _VERSION:
                    raise MalformedHeaderError(f"line {lineno}: bad header {line!r}")
                try:
                    N, T = int(tokens[2]), int(tokens[3])
                except ValueError:
                    raise MalformedHeaderError(f"line {lineno}: bad header {line!r}")
                if N < 1 or T < 1:
                    raise MalformedHeaderError(f"line {lineno}: bad dimensions {line!r}")
                header = (N, T)
                continue
            if tokens[0] == "e":
                if len(tokens) not in (4, 5):
                    raise MalformedHeaderError(f"line {lineno}: bad edge line {raw.strip()!r}")
                try:
                    t, i, j = int(tokens[1]), int(tokens[2]), int(tokens[3])
                    v = int(tokens[4]) if len(tokens) == 5 else 1
                except ValueError:
                    raise MalformedHeaderError(f"line {lineno}: bad edge line {raw.strip()!r}")
                lines.append(lineno)
                ts.append(t)
                iss.append(i)
                js.append(j)
                vs.append(v)
                continue
            if tokens[0] == "labels":
                if labels is not None:
                    raise MalformedHeaderError(f"line {lineno}: second labels record")
                if len(tokens) != header[0] + 1:
                    raise MalformedHeaderError(
                        f"line {lineno}: labels line needs {header[0]} entries"
                    )
                labels = _parse_labels(lineno, tokens[1:])
                continue
            raise MalformedHeaderError(f"line {lineno}: unknown record {tokens[0]!r}")
    if header is None:
        raise MalformedHeaderError("missing header line")
    N, T = header
    t, i, j, v = (_column(c) for c in columns)
    repeated = _repeats(t, i, j)
    bad = (t < 1) | (t > T) | (i < 0) | (i >= j) | (j >= N) | repeated
    bad = bad | (v < 1) | (v > _INT64_MAX)
    if bad.any():
        k = int(np.argmax(bad))
        raise _edge_error(lines[k], ts[k], iss[k], js[k], vs[k], repeated[k], N, T)
    dtype = np.int64 if (v > 1).any() else np.uint8
    data = np.zeros((T, N, N), dtype=dtype)
    flat = data.reshape(-1)
    offset = (t - 1) * (N * N)
    v = v.astype(dtype)
    flat[offset + i * N + j] = v
    flat[offset + j * N + i] = v
    return SnapshotArray(data, labels=labels)


def _column(values):
    try:  # values beyond int64 make an object column, which compares exactly
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _repeats(t, i, j):
    """Mask of edges whose ``(t, i, j)`` appeared on an earlier line."""
    order = np.lexsort((j, i, t))  # stable, so equal keys stay in file order
    t, i, j = t[order], i[order], j[order]
    repeated = np.zeros(order.size, dtype=bool)
    repeated[order[1:]] = (t[1:] == t[:-1]) & (i[1:] == i[:-1]) & (j[1:] == j[:-1])
    return repeated


def _edge_error(lineno, t, i, j, v, repeated, N, T):
    """The error for an invalid edge, checks taken in a fixed order."""
    if not 1 <= t <= T:
        return IndexRangeError(f"line {lineno}: snapshot index {t} outside 1..{T}")
    if i == j:
        return IndexRangeError(f"line {lineno}: self-loop on node {i}")
    if not (0 <= i < j < N):
        return IndexRangeError(f"line {lineno}: need 0 <= i < j < N, got {i}, {j}")
    if repeated:
        return DuplicateEdgeError(f"line {lineno}: duplicate edge {t} {i} {j}")
    if v == 0:
        return IndexRangeError(f"line {lineno}: explicit zero value")
    return IndexRangeError(f"line {lineno}: symbol {v} outside 1..{_INT64_MAX}")


def write_labels(path, labels):
    """Write a sidecar file holding a single 1-based ``labels`` line."""
    with open(path, "w") as fh:
        fh.write("labels " + " ".join(str(int(l) + 1) for l in labels) + "\n")


def read_labels(path):
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            tokens = raw.split()
            if not tokens or tokens[0].startswith("#"):
                continue
            if tokens[0] != "labels":
                raise MalformedHeaderError(
                    f"line {lineno}: expected a labels line, got {tokens[0]!r}"
                )
            return _parse_labels(lineno, tokens[1:])
    raise MalformedHeaderError("missing labels line")


def _parse_labels(lineno, tokens):
    """0-based int64 labels from the 1-based tokens of a ``labels`` record."""
    values = []
    for x in tokens:
        try:
            v = int(x)
        except ValueError:
            raise MalformedHeaderError(f"line {lineno}: label {x!r} is not an integer")
        if not 1 <= v <= _INT64_MAX:
            raise IndexRangeError(f"line {lineno}: label {v} outside 1..{_INT64_MAX}")
        values.append(v)
    return np.array(values, dtype=np.int64) - 1
