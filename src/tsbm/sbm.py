"""Synthetic data generation for homogeneous block models with pluggable
pair-interaction laws, plus the line-oriented ``tsbm`` snapshot file format.

Snapshot arrays are stored sparsely: the sorted flat indices of the nonzero
entries of the symmetric ``T x N x N`` tensor, both orientations of each
pair, plus their symbols when some symbol exceeds 1.  Memory follows the
number of interactions, not ``T N^2``; ``SnapshotArray.dense()`` rebuilds
the tensor for the consumers that still want it.

Pair patterns are drawn from counter-based substreams keyed by
``(seed, i, j)``, so generation order (serial, parallel, chunked) never
changes the output.  The Markov sampler walks the pairs in fixed-size
chunks, hashing each pair's stream key once for all T steps, and keeps
only the indices of set bits.

The reader takes the file in blocks of whole lines.  Byte masks pick out
the ``e t i j`` lines spelled with plain ASCII decimals, and numpy parses
all their numbers at once; the few other lines (header, labels, comments,
``e t i j v``, other spellings that ``int`` accepts) go through per-line
code, which would read the bulk lines the same way.  The edges are then
validated and sorted as arrays; nothing of the header's size is allocated.
The writer formats each block of edge lines as one byte matrix of digits.
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
    """Symmetric ``T x N x N`` interaction tensor with zero diagonal, held
    as the sorted flat indices ``t*N*N + i*N + j`` of its nonzero entries.

    Both orientations of each pair are listed, so ``data`` equals
    ``np.flatnonzero(self.dense())``.  Entries are 0/1 bits for temporal
    graphs; for categorical interactions (where ``T`` is typically 1),
    ``values`` holds the symbol code of each listed entry, and it is None
    when every nonzero symbol is 1.
    """

    data: np.ndarray
    N: int
    T: int
    values: Optional[np.ndarray] = None
    labels: Optional[np.ndarray] = None

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.int64)
        if self.data.ndim != 1:
            raise ValueError("data must be a 1-D array of flat indices")
        if self.values is not None:
            self.values = np.asarray(self.values, dtype=np.int64)
            if self.values.shape != self.data.shape:
                raise ValueError("values must match data in length")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.N,):
                raise ValueError("labels length must match node count")

    @classmethod
    def from_dense(cls, x, labels=None):
        """The sparse form of a ``(T, N, N)`` tensor of non-negative codes."""
        x = np.asarray(x)
        if x.ndim != 3 or x.shape[1] != x.shape[2]:
            raise ValueError("data must have shape (T, N, N)")
        if x.min(initial=0) < 0:
            raise ValueError("symbols must be non-negative")
        data = np.flatnonzero(x)
        values = x.reshape(-1)[data] if x.max(initial=0) > 1 else None
        return cls(data, x.shape[1], x.shape[0], values=values, labels=labels)

    def dense(self):
        """The ``(T, N, N)`` tensor: uint8 without ``values``, else int64."""
        dtype = np.uint8 if self.values is None else np.int64
        out = np.zeros(self.T * self.N * self.N, dtype=dtype)
        out[self.data] = 1 if self.values is None else self.values
        return out.reshape(self.T, self.N, self.N)

    def snapshot(self, t):
        """Sorted flat indices ``i*N + j`` of the nonzero entries of snapshot
        ``t`` (0-based)."""
        size = self.N * self.N
        lo, hi = np.searchsorted(self.data, (t * size, (t + 1) * size))
        return self.data[lo:hi] - t * size

    def validate(self):
        """Check index order and range, symmetry and zero diagonal; raises
        on violation."""
        data, size = self.data, self.N * self.N
        if data.size and (data[0] < 0 or data[-1] >= self.T * size):
            raise ValueError("index outside the T x N x N tensor")
        if (np.diff(data) <= 0).any():
            raise ValueError("indices must be strictly increasing")
        t, rest = np.divmod(data, size)
        i, j = np.divmod(rest, self.N)
        if (i == j).any():
            raise ValueError(f"snapshot {t[np.argmax(i == j)] + 1} has a nonzero diagonal")
        mirror = t * size + j * self.N + i
        order = np.argsort(mirror)
        bad = mirror[order] != data
        if self.values is not None:
            bad |= self.values[order] != self.values
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(f"snapshot {min(data[k], mirror[order][k]) // size + 1} "
                             "is not symmetric")
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
    chunk runs through all T steps and keeps the indices of its set bits.
    """
    if T < 1:
        raise ValueError("need at least one snapshot")
    labels = np.asarray(labels, dtype=np.int64)
    N = labels.size
    size = N * N
    found = []  # flat indices of set bits, both orientations
    # pairs (i, i+1), ..., (i, N-1) are numbered from row_start[i] on
    row_start = np.arange(N + 1) * (2 * N - np.arange(N + 1) - 1) // 2
    n_pairs = N * (N - 1) // 2
    for lo in range(0, n_pairs, _CHUNK_PAIRS):
        hi = min(lo + _CHUNK_PAIRS, n_pairs)
        first, last = np.searchsorted(row_start, (lo, hi - 1), side="right") - 1
        i = np.repeat(np.arange(first, last + 1),
                      np.diff(np.clip(row_start[first:last + 2], lo, hi)))
        j = np.arange(lo, hi) - row_start[i] + i + 1
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
            found += [t * size + upper[on], t * size + lower[on]]
    data = np.concatenate(found) if found else np.empty(0, dtype=np.int64)
    data.sort()
    return SnapshotArray(data, N, T, labels=labels)


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
    on = np.flatnonzero(sym)
    data, values = _both_orientations(iu[on] * N + ju[on], ju[on] * N + iu[on], sym[on])
    return SnapshotArray(data, N, 1, values=values, labels=labels)


def _both_orientations(upper, lower, v):
    """Sorted flat indices of the entries ``upper`` and of their mirror
    images ``lower``, and their symbols ``v`` in that order, or None when no
    symbol exceeds 1."""
    keys = np.concatenate((upper, lower))
    if not (v > 1).any():
        keys.sort()  # in place: freeing an unsorted copy raised the peak RSS of a recovery
        return keys, None
    order = np.argsort(keys)
    return keys[order], np.concatenate((v, v))[order]


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
# Reader and writer work in blocks: _BLOCK characters of text, or _BLOCK / 8
# edge lines.  Whole-file temporaries raised the peak RSS of a recovery run
# after them: malloc kept their freed memory and served later arrays from it.
_BLOCK = 1 << 16


def write_snapshots(path, array, labels=None):
    """Write an array (and optional labels line) in ``tsbm`` format.  Each
    block of edge lines is a uint8 matrix of right-aligned digits, with zero
    padding that is then dropped; a symbol of 1 is left out."""
    if labels is None:
        labels = array.labels
    N = array.N
    t, rest = np.divmod(array.data, N * N)
    i, j = np.divmod(rest, N)
    upper = i < j  # sorted indices list the upper entries in (t, i, j) order
    columns = [t[upper] + 1, i[upper], j[upper]]
    if array.values is not None:
        columns.append(array.values[upper])
    with open(path, "w") as fh:
        fh.write(f"{_MAGIC} {_VERSION} {N} {array.T}\n")
        if labels is not None:
            fh.write("labels " + " ".join(str(int(l) + 1) for l in labels) + "\n")
        for lo in range(0, upper.sum(), _BLOCK // 8):
            block = [c[lo:lo + _BLOCK // 8] for c in columns]
            parts = [np.full((block[0].size, 1), ord("e"), dtype=np.uint8)]
            for x in block:
                powers = 10 ** np.arange(len(str(x.max())) - 1, -1, -1)
                digits = (x[:, None] // powers % 10 + ord("0")).astype(np.uint8)
                digits[:, :-1][x[:, None] < powers[:-1]] = 0
                parts += [np.full_like(parts[0], ord(" ")), digits]
            if array.values is not None:
                parts[-2][block[3] == 1] = parts[-1][block[3] == 1] = 0
            lines = np.hstack(parts + [np.full_like(parts[0], ord("\n"))])
            fh.write(lines[lines != 0].tobytes().decode())


def read_snapshots(path):
    """Read a ``tsbm`` file; the result round-trips bit-exactly.

    In each block of whole lines, byte masks find the plain ``e t i j``
    lines, parsed at once; the others are parsed one by one.  Edges are
    validated as arrays; an invalid file reports its first offending line.
    Memory follows the number of edges, whatever the header's dimensions;
    ``values`` is kept only when some symbol exceeds 1."""
    header = labels = None
    found, other = [], []  # line, t, i, j (, v) of the bulk and of the other edge lines
    first = 1  # number of the block's first line
    with open(path) as fh:  # universal newlines: CRLF and lone CR end lines too
        for chunk in iter(lambda: fh.read(_BLOCK) + fh.readline(), ""):  # whole lines
            block = (chunk if chunk.endswith("\n") else chunk + "\n").encode()
            starts, ends, bulk, rows = _bulk_edges(block)
            found.append((first + np.flatnonzero(bulk), *rows.T))
            todo = ~bulk
            todo[np.argmax(bulk)] = True  # the first bulk line, in case it precedes the header
            todo = [c[todo].tolist() for c in (np.arange(bulk.size), starts, ends, bulk)]
            for k, start, end, parsed in zip(*todo):
                if header is None or not parsed:
                    raw = block[start:end].decode()
                    header, labels = _parse_line(first + k, raw, header, labels, other)
            first += ends.size
    if header is None:
        raise MalformedHeaderError("missing header line")
    N, T = header
    found = [np.concatenate(c) for c in zip(*found)]  # frees the per-block arrays
    edges = found + [np.broadcast_to(np.int64(1), found[0].size)]
    if other:  # merge the other edge lines in, in file order
        try:  # values beyond int64 make object columns, which compare exactly
            other = [np.array(c, dtype=np.int64) for c in zip(*other)]
        except OverflowError:
            other = [np.array(c, dtype=object) for c in zip(*other)]
        edges = [np.concatenate(c) for c in zip(edges, other)]
        order = np.argsort(edges[0], kind="stable")
        edges = [c[order] for c in edges]
    lines, t, i, j, v = edges
    ok = (t >= 1) & (t <= T) & (i >= 0) & (i < j) & (j < N)
    keep = slice(None) if ok.all() else ok  # a view when every edge is in range
    t, i, j = (c[keep].astype(np.int64, copy=False) for c in (t, i, j))
    key = ((t - 1) * N + i) * N + j  # flat index of the upper entry
    repeated = np.zeros(ok.size, dtype=bool)
    if (key[1:] <= key[:-1]).any():  # keys strictly increase in files this module writes
        order = np.argsort(key, kind="stable")  # equal keys stay in file order
        repeated[np.flatnonzero(ok)[order[1:]]] = key[order[1:]] == key[order[:-1]]
    bad = ~ok | repeated | (v < 1) | (v > _INT64_MAX)
    if bad.any():
        k = int(np.argmax(bad))
        raise _edge_error(*(int(c[k]) for c in edges), repeated[k], N, T)
    data, values = _both_orientations(key, key + (j - i) * (N - 1), v.astype(np.int64, copy=False))
    return SnapshotArray(data, N, T, values=values, labels=labels)


def _parse_line(lineno, raw, header, labels, other):
    """Parse one line outside the bulk grammar: returns the header and the
    labels, and appends an edge line's ``(lineno, t, i, j, v)`` to ``other``."""
    tokens = raw.split()
    if not tokens or tokens[0].startswith("#"):
        return header, labels
    if header is None:
        line = raw.strip()
        if len(tokens) != 4 or tokens[0] != _MAGIC or tokens[1] != _VERSION:
            raise MalformedHeaderError(f"line {lineno}: bad header {line!r}")
        try:
            N, T = int(tokens[2]), int(tokens[3])
        except ValueError:
            raise MalformedHeaderError(f"line {lineno}: bad header {line!r}")
        if N < 1 or T < 1 or T * N * N - 1 > _INT64_MAX:
            raise MalformedHeaderError(f"line {lineno}: bad dimensions {line!r}")
        return (N, T), labels
    if tokens[0] == "e":
        if len(tokens) not in (4, 5):
            raise MalformedHeaderError(f"line {lineno}: bad edge line {raw.strip()!r}")
        try:
            other.append((lineno, int(tokens[1]), int(tokens[2]), int(tokens[3]),
                          int(tokens[4]) if len(tokens) == 5 else 1))
        except ValueError:
            raise MalformedHeaderError(f"line {lineno}: bad edge line {raw.strip()!r}")
        return header, labels
    if tokens[0] == "labels":
        if labels is not None:
            raise MalformedHeaderError(f"line {lineno}: second labels record")
        if len(tokens) != header[0] + 1:
            raise MalformedHeaderError(f"line {lineno}: labels line needs {header[0]} entries")
        return header, _parse_labels(lineno, tokens[1:])
    raise MalformedHeaderError(f"line {lineno}: unknown record {tokens[0]!r}")


def _bulk_edges(block):
    """Start and end (newline) offsets of the lines of ``block``, the mask
    of its bulk lines, and their numbers as an (n, 3) int64 array.  A bulk
    line is ``e`` and three numbers ``-?[0-9]+``, separated (and perhaps
    followed) by spaces or tabs, in at most 24 bytes, so no number exceeds
    18 digits; ``str.split`` and ``int`` read it alike."""
    buf = np.frombuffer(block, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    starts = np.concatenate(([0], ends[:-1] + 1))
    digit = (buf - np.uint8(ord("0"))) < 10
    sep = (buf == ord(" ")) | (buf == ord("\t"))
    minus = buf == ord("-")
    # 1 per number start, 4 per byte outside the grammar or '-' not between a
    # separator and a digit: a bulk line, whose only such byte is its 'e', sums to 7
    score = (~(digit | sep | minus | (buf == ord("\n")))).view(np.uint8) * np.uint8(4)
    score[1:] += minus[1:] | (digit[1:] & sep[:-1])
    score[1:-1] += np.uint8(4) * (minus[1:-1] & ~(sep[:-2] & digit[2:]))
    bulk = ((np.add.reduceat(score, starts, dtype=np.uint8) == 7) & (ends - starts <= 24)
            & (buf[starts] == ord("e")) & sep[np.minimum(starts + 1, buf.size - 1)])
    text = np.where(np.repeat(bulk, ends - starts + 1) & (digit | minus), buf, np.uint8(32))
    rows = np.fromstring(text, dtype=np.int64, sep=" ") if bulk.any() else np.empty(0, np.int64)
    return starts, ends, bulk, rows.reshape(-1, 3)


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
