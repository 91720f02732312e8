"""Synthetic data generation for homogeneous block models with pluggable
pair-interaction laws, plus the line-oriented ``tsbm`` snapshot file format.

Snapshot arrays are stored sparsely: the sorted flat indices of the nonzero
upper-triangle entries (``i < j``) of the symmetric ``T x N x N`` tensor,
each unordered pair once, as in the file format, plus their symbols when
some symbol exceeds 1.  Memory follows the number of interactions, not
``T N^2``, and no consumer rebuilds the dense tensor.  One sort of the
indices by pair, then snapshot (``_entry_slots``), finds the distinct
pairs an array sets, each entry's slot among them, and whether it stays
or leaves: the union and aggregate graphs of ``spectral`` and every pair
consumer of ``recovery`` read it, and nothing else finds them.

The Markov sampler's work follows the set bits, not the N(N-1)/2 pairs:
it skips geometric gaps over the pair numbers and thins each hit to its
class's rate (Batagelj and Brandes, Phys. Rev. E, 2005).  Its draws are
keyed by (seed, block of pairs, step), the categorical sampler's by (seed,
pair), so generation order never changes the output.  A block gives one
array per step, in pair order, so one join, step by step, sorts them all.

The reader parses the lines up to the first edge line one by one: comments,
blanks, the header and labels.  It takes the rest in blocks of whole lines,
each parsed whole by numpy if spelled as the writer spells it, symbols or
not (bytes operations tell), else line by line with ``str.split`` and
``int``, as the header was.  Each block, bulk or per-line, is checked and
folded once, when it ends: one int64 flat index per edge, sorted only if the
file lists them out of order; nothing of the header's size is allocated.
The writer spells each block of edge lines at once from a table of
four-digit groups, in memory following the edges, once ``SnapshotArray.validate``
passes: the one rule for what a file holds, which the reader's checks also apply.
"""

import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._rng import counter_uniform, derive_seed, step_uniform, stream_key


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
    as the sorted flat indices ``t*N*N + i*N + j``, ``i < j``, of its
    nonzero entries.

    Each unordered pair is listed once, by its upper entry, so ``data`` is
    ``np.flatnonzero(np.triu(x, 1))`` of the dense tensor ``x``.  Entries
    are 0/1 bits for temporal graphs; for categorical interactions (where
    ``T`` is typically 1), ``values`` holds the symbol code of each listed
    entry, and it is None when every nonzero symbol is 1.
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

    def span(self, t):
        """The bounds ``(lo, hi)`` of snapshot ``t``'s entries (0-based) in
        ``data``.  Raises IndexError unless ``0 <= t < T``, and TypeError
        for a ``t`` that is not an integer."""
        t = operator.index(t)
        if not 0 <= t < self.T:
            raise IndexError(f"snapshot {t} outside 0..{self.T - 1}")
        size = self.N * self.N
        lo, hi = np.searchsorted(self.data, (t * size, (t + 1) * size))
        return int(lo), int(hi)

    def snapshot(self, t):
        """Sorted flat indices ``i*N + j``, ``i < j``, of the nonzero entries
        of snapshot ``t``: those within ``span(t)``, which raises as it says."""
        lo, hi = self.span(t)
        return self.data[lo:hi] - t * self.N * self.N

    def validate(self):
        """Check what a ``tsbm`` file holds, ``_BLOCK / 8`` indices at a time:
        indices strictly increasing and inside the tensor, each of an upper
        entry (``i < j``), and symbols of at least 1.  Raises ValueError
        naming the first violation, else returns self."""
        data, N, size, step = self.data, self.N, self.N * self.N, _BLOCK // 8
        for lo in range(0, data.size, step):
            x = data[lo:lo + step]
            if (x[1:] <= x[:-1]).any() or lo and x[0] <= data[lo - 1]:
                raise ValueError("indices must be strictly increasing")
            if x[0] < 0 or x[-1] >= self.T * size:  # the block is sorted
                raise ValueError("index outside the T x N x N tensor")
            t = x // size  # floor division by a scalar: 5x faster than np.divmod
            x = x - t * size
            i = x // N
            if (i >= x - i * N).any():
                k = int(np.argmax(i >= x - i * N))
                raise ValueError(f"snapshot {t[k] + 1} lists entry ({i[k]}, {x[k] - i[k] * N}), "
                                 "not i < j")
        if self.values is not None and self.values.min(initial=1) < 1:
            raise ValueError("symbols must be at least 1")
        return self


# _entry_slots, and the recovery passes over all pairs, take their arrays in
# chunks of this many, so no temporary of those steps follows the entries.
_SLOT_CHUNK = 1 << 14


def _entry_slots(array):
    """The distinct pairs ``i*N + j`` the array sets, increasing; and per
    entry of ``data``, the int32 slot of its pair, and whether it stays (is
    set in the snapshot before) or leaves (is not set in the one after).
    One sort of ``pair * (T + 1) + t`` puts each entry right before its
    pair's next, one above it unless it leaves.  The keys sort in place,
    each carrying its entry's index in its low bits where int64 has room,
    else beside an ``argsort``.  Memory follows the entries, not T: the
    keys are built and the pairs compacted in place, chunk by chunk, so that
    about two words per entry are held at once, beside chunk-sized temporaries."""
    size, T, n = int(array.N) ** 2, int(array.T), array.data.size
    shift = n.bit_length()
    packed = (size * (T + 1)) << shift <= 2**63
    key = np.empty(n, np.int64)
    for lo in range(0, n, _SLOT_CHUNK):
        x = array.data[lo:lo + _SLOT_CHUNK]
        snap = x // size
        x = (x - snap * size) * (T + 1) + snap
        key[lo:lo + x.size] = x << shift | np.arange(lo, lo + x.size) if packed else x
    if packed:
        key.sort()
        order = np.empty(n, np.int32 if n < 2**31 else np.int64)
        np.bitwise_and(key, (1 << shift) - 1, out=order, casting="unsafe")
        key >>= shift
    else:
        order = np.argsort(key)
        key.sort()
    stay, leaves, first = (np.full(n, v) for v in (False, True, True))
    for lo in range(0, n - 1, _SLOT_CHUNK):
        hi = min(lo + _SLOT_CHUNK, n - 1)
        at = order[lo:hi + 1].astype(np.intp)  # int32 indices scatter 1.6x slower
        step = key[lo + 1:hi + 1] - key[lo:hi] == 1
        stay[at[1:]], leaves[at[:-1]] = step, ~step
    key //= T + 1
    np.not_equal(key[1:], key[:-1], out=first[1:])
    p = 0
    for lo in range(0, n, _SLOT_CHUNK):  # pairs land at or before their chunk (masks: 3x slower)
        got = key[lo:lo + _SLOT_CHUNK][np.flatnonzero(first[lo:lo + _SLOT_CHUNK])]
        key[p:p + got.size] = got
        p += got.size
    key.resize(p, refcheck=False)  # the slices above are gone
    slots, ranks = np.empty(n, np.int32), [-1]
    for lo in range(0, n, _SLOT_CHUNK):  # each rank goes on from the last chunk's
        ranks = np.cumsum(first[lo:lo + _SLOT_CHUNK], dtype=np.int32) + ranks[-1]
        slots[order[lo:lo + _SLOT_CHUNK].astype(np.intp)] = ranks
    return key, slots, stay, leaves


def sample_labelling(N, K, seed=0):
    """I.i.d. uniform block labels in ``{0, ..., K-1}``.  Deterministic
    given the seed."""
    if K < 1 or K > N:
        raise ValueError(f"need 1 <= K <= N, got K={K}, N={N}")
    u = counter_uniform(seed, 0, np.arange(N))
    return np.minimum((u * K).astype(np.int64), K - 1)


def balanced_labelling(N, K):
    """Deterministic labelling with block sizes as equal as possible."""
    if K < 1 or K > N:
        raise ValueError(f"need 1 <= K <= N, got K={K}, N={N}")
    return (np.arange(N) * K // N).astype(np.int64)


# Pairs per sampler block.  A block draws all T steps of its pairs from its
# own counter streams, so blocks can be drawn in any order; the size is part
# of the key, and large enough that per-block numpy calls cost little.
_BLOCK_PAIRS = 1 << 20


def sample_markov_snapshots(labels, intra, inter, T, seed=0):
    """Markov interaction snapshots: each unordered pair's T-bit pattern is
    an independent chain, ``intra`` within blocks and ``inter`` across.
    Pairs are numbered in row-major ``i < j`` order and drawn in blocks of
    ``_BLOCK_PAIRS`` pair numbers."""
    if T < 1:
        raise ValueError(f"need at least one snapshot, got T={T}")
    labels = np.asarray(labels, dtype=np.int64)
    N = labels.size
    n_pairs = N * (N - 1) // 2
    # pairs (i, i+1), ..., (i, N-1) are numbered from row_start[i] on
    row_start = np.arange(N + 1) * (2 * N - np.arange(N + 1) - 1) // 2
    steps = [_block_snapshots(labels, row_start, (inter, intra), T, seed, lo,
                              min(lo + _BLOCK_PAIRS, n_pairs))
             for lo in range(0, n_pairs, _BLOCK_PAIRS)]
    # each block's steps are in pair order: joined step by step, they are sorted
    data = [block[t] for t in range(T) for block in steps]
    return SnapshotArray(np.concatenate([np.empty(0, dtype=np.int64), *data]), N, T, labels=labels)


def _block_snapshots(labels, row_start, chains, T, seed, lo, hi):
    """Per snapshot t, the flat indices ``t*N*N + i*N + j`` of the set bits
    of pairs ``lo .. hi - 1``, increasing: a list of T arrays; ``chains`` is
    (across, within) blocks.

    Snapshot 0 skips over the pairs at the larger ``mu1`` and thins each hit
    to its class's.  At each later step a pair on stays on with its class's
    ``p11``; all pairs are skipped over at the larger ``p01``, and each hit
    is thinned to its class's and dropped if on, so each pair off turns on
    at exactly its own rate; the pairs kept on and the fresh ones are merged
    in pair order.  Step t draws from the counters of ``(derive_seed(seed, block),
    t)``: counter p is the stay draw of the block's pair p, counters
    ``_BLOCK_PAIRS + 2k`` and ``+ 2k + 1`` the k-th hit's gap and thinning.
    """
    N, n = labels.size, hi - lo
    keys = stream_key(derive_seed(seed, lo // _BLOCK_PAIRS), np.arange(T))
    rates = np.array([[c.mu1, c.p01] for c in chains])
    stay = np.array([c.p11 for c in chains])
    was = np.zeros(n, dtype=bool)  # on at the previous step
    # of each pair on, in pair order: 2 * its position in the block + its class, and i*N + j
    on = flat = np.empty(0, dtype=np.int64)
    part = []
    for t, key in enumerate(keys):
        rate = rates[:, min(t, 1)]  # mu1, then p01
        hit = _skip(key, rate.max(), n)
        pair = lo + hit
        i = np.searchsorted(row_start[1:], pair, side="right")
        j = pair - row_start[i] + i + 1
        cls = (labels[i] == labels[j]).astype(np.int64)
        thin = step_uniform(key, _BLOCK_PAIRS + 2 * np.arange(hit.size) + 1)
        # integer indices: boolean-mask indexing was 3-5x slower on these arrays
        fresh = np.flatnonzero((thin < rate[cls] / rate.max()) & ~was[hit])
        pos = on >> 1
        keep = step_uniform(key, pos) < stay[on & 1]
        was[pos] = keep
        was[hit[fresh]] = True
        kept = np.flatnonzero(keep)
        on = np.concatenate((on[kept], (2 * hit + cls)[fresh]))
        flat = np.concatenate((flat[kept], (i * N + j)[fresh]))
        order = np.argsort(on, kind="stable")  # merges the kept and the fresh, each in pair order
        on, flat = on[order], flat[order]
        part.append(t * N * N + flat)
    return part


def _skip(key, rate, n):
    """Ascending positions in ``0 .. n - 1`` of the successes of n
    independent Bernoulli(rate) trials.  The gaps between successes are
    geometric, each by inversion ``floor(log(u) / log1p(-rate)) + 1`` from
    a uniform u in (0, 1]: the k-th from counter ``_BLOCK_PAIRS + 2k`` of
    ``key``."""
    if rate <= 0:
        return np.empty(0, dtype=np.int64)
    if rate >= 1:
        return np.arange(n)
    log_q = np.log1p(-rate)
    found, last, k = [], -1, 0
    while last < n:
        # about 2 sd more gaps than the hits expected; n - last gaps always pass the end
        expect = (n - 1 - last) * rate
        m = min(n - last, int(expect + 2 * expect**0.5) + 1)
        u = 1.0 - step_uniform(key, _BLOCK_PAIRS + 2 * np.arange(k, k + m))
        with np.errstate(over="ignore"):  # gaps past the end only need to stay there
            gap = np.minimum(np.floor(np.log(u) / log_q) + 1, n + 1)
        found.append(last + np.cumsum(gap.astype(np.int64)))
        last, k = found[-1][-1], k + m
    pos = np.concatenate(found)
    return pos[:np.searchsorted(pos, n)]


def sample_categorical_snapshots(labels, f, g, seed=0):
    """One snapshot of i.i.d. categorical interactions: symbol law ``f``
    within blocks, ``g`` across.  Alphabets must match."""
    if len(f) != len(g):
        raise ValueError(f"alphabet mismatch: {len(f)} vs {len(g)}")
    labels = np.asarray(labels, dtype=np.int64)
    N = labels.size
    iu, ju = np.triu_indices(N, k=1)
    same = labels[iu] == labels[ju]
    key = iu * N + ju  # sorted
    u = counter_uniform(seed, key, 0)
    sym_f, sym_g = (np.searchsorted(np.cumsum(d.probs), u, side="right") for d in (f, g))
    sym = np.minimum(np.where(same, sym_f, sym_g), len(f) - 1).astype(np.int64)
    on = np.flatnonzero(sym)
    values = sym[on] if (sym > 1).any() else None
    return SnapshotArray(key[on], N, 1, values=values, labels=labels)


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
# edge lines; the reader parses a block at once only if the writer spelled
# it.  Whole-file temporaries raised the peak RSS of a recovery run after
# them: malloc kept their freed memory and served later arrays from it.
_BLOCK = 1 << 16
# _GROUPS[g] spells g < 10^4 right-aligned in 4 bytes, 0 bytes (which writers
# drop) for its leading zeros: all four for 0.  OR-ing _FILL into a group with
# digits above it restores its zeros, and _LAST into a number's last spells 0.
# Built from bytes: int64 temporaries raised every process's peak RSS by 1 MB.
_GROUPS = np.meshgrid(*[np.frombuffer(b"0123456789", dtype=np.uint8)] * 4, indexing="ij")
_GROUPS = np.stack(_GROUPS, -1).reshape(-1, 4)  # "0000" to "9999"
_GROUPS[np.logical_and.accumulate(_GROUPS == ord("0"), axis=1)] = 0
_GROUPS = _GROUPS.view(np.uint32)[:, 0]
_FILL, _LAST = np.frombuffer(b"0000\0\0\0" b"0", dtype=np.uint32)


def _dimensions_ok(N, T):
    """Whether a file's header may give ``N`` nodes and ``T`` snapshots: at
    least one of each, and every flat index ``t*N*N + i*N + j`` an int64."""
    return N >= 1 and T >= 1 and T * N * N - 1 <= _INT64_MAX


def _spell(x, top):
    """The non-negative int64 numbers ``x`` as uint32 columns of digit
    groups, most significant first, as many as ``top`` (at least ``x.max()``)
    takes.  Each is gathered from ``_GROUPS``; a group past the first costs
    one floor division by 10^4, and there is no other division."""
    groups, last = [], _LAST
    for _ in range((len(str(top)) - 1) // 4):
        high = x // 10**4
        groups.insert(0, _GROUPS[x - high * 10**4] | np.where(high > 0, _FILL, last))
        x, last = high, np.uint32(0)
    return [_GROUPS[x] | last] + groups


def _lines(n, parts):
    """The text of n lines, each the concatenation of ``parts``: bytes, the
    same in every line, or arrays of one item per line, each item's bytes in
    place (4 of a ``_spell`` group).  0 bytes are dropped."""
    template = b"".join(p if isinstance(p, bytes) else bytes(p.itemsize) for p in parts)
    text, offset = bytearray(template) * n, 0
    for p in parts:
        if n and not isinstance(p, bytes):  # a strided view of the item's place in every line
            np.ndarray(n, p.dtype, text, offset, (len(template),))[:] = p
        offset += len(p) if isinstance(p, bytes) else p.itemsize
    return text.translate(None, b"\0")


def _labels_line(labels):
    """The 1-based ``labels`` record of 0-based labels, as bytes."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and not 0 <= labels.min() <= labels.max() < _INT64_MAX:
        raise ValueError(f"labels must lie in 0..{_INT64_MAX - 1}")
    spelled = _spell(labels + 1, labels.max(initial=0) + 1)
    return b"labels " + _lines(labels.size, [*spelled, b" "])[:-1] + b"\n"


def write_snapshots(path, array):
    """Write an array (and its labels line, if any) in ``tsbm`` format.  Each
    block of indices is decoded alone, by floor division, and its edge lines
    spelled at once; symbols 1 are left out.  Raises ValueError, before the
    file is opened, on what ``read_snapshots`` would refuse to read back or
    would read in another order: dimensions its header may not give,
    whatever ``array.validate()`` refuses, or a label outside 0 .. 2^63 - 2."""
    N, T = array.N, array.T
    if not _dimensions_ok(N, T):
        raise ValueError(f"bad dimensions N={N}, T={T}")
    data, values = array.validate().data, array.values
    head = f"{_MAGIC} {_VERSION} {N} {T}\n".encode()
    if array.labels is not None:
        head += _labels_line(array.labels)
    step, top = _BLOCK // 8, 1 if values is None else values.max(initial=1)
    with open(path, "wb") as fh:
        fh.write(head)
        for lo in range(0, data.size, step):
            x = data[lo:lo + step]
            t = x // (N * N)  # floor division by a scalar: 5x faster than np.divmod
            x = x - t * (N * N)
            i = x // N
            parts = [b"e ", *_spell(t + 1, T), b" ", *_spell(i, N - 1), b" ",
                     *_spell(x - i * N, N - 1)]
            if values is not None:
                shown = values[lo:lo + step] > 1
                parts += [np.uint8(ord(" ")) * shown,
                          *(g * shown for g in _spell(values[lo:lo + step], top))]
            fh.write(_lines(x.size, parts + [b"\n"]))


def read_snapshots(path):
    """Read a ``tsbm`` file; the result round-trips bit-exactly.

    The lines before the first edge line after the header are parsed one by
    one.  That edge line is a block alone, and blocks of whole lines follow:
    each is parsed at once if the writer spelled it, else line by line into
    ``(line, t, i, j, v)`` columns, its lines kept as a range, as a bulk
    block's are, when every line of the block is an edge line.  Either way
    the block's edges are range-checked and folded into flat keys, one
    int64 each, when it ends; the keys are joined once, then the symbols of
    the blocks that list one above 1.  A malformed record raises at once,
    wherever it stands; else line numbers are rebuilt to name the first line
    whose edge is out of range, a self-loop, repeated or of a bad symbol.
    Memory follows the number of edges, whatever the header's dimensions;
    ``values`` is kept only when some symbol exceeds 1."""
    header, labels, first = None, None, 1  # first: the number of the next line
    # per block of valid edges: flat keys, symbols (None: all 1) and lines, a
    # range or an array; keys and symbols start with an empty entry to join
    keys, symbols, spans = [np.empty(0, dtype=np.int64)], [None], []
    rejected = []  # the (lines, t, i, j, v) columns of each block with an invalid edge
    with open(path) as fh:  # universal newlines: CRLF and lone CR end lines too
        chunk = fh.readline()
        while chunk and (header is None or not chunk.lstrip().startswith("e")):
            header, labels = _parse_line(first, chunk, header, labels, None)  # no edge line comes
            chunk, first = fh.readline(), first + 1
        if header is None:
            raise MalformedHeaderError("missing header line")
        N, T = header
        while chunk:  # the first edge line after the header alone, then whole lines
            chunk += "" if chunk.endswith("\n") else "\n"
            if (rows := _bulk_edges(chunk.encode())) is not None:
                lines, first = range(first, first + len(rows)), first + len(rows)
                t, i, j, v = [*rows.T, np.ones(1, dtype=np.int64)][:4]  # symbol 1 if none listed
            else:
                rows, start = [], first
                for raw in chunk.split("\n")[:-1]:
                    header, labels = _parse_line(first, raw, header, labels, rows)
                    first += 1
                rows = list(zip(*rows)) or [()] * 5  # the block's columns
                try:  # numbers beyond int64 make object columns, which compare exactly
                    lines, t, i, j, v = (np.array(c, dtype=np.int64) for c in rows)
                except OverflowError:  # and never pass the checks
                    lines, t, i, j, v = (np.array(c, dtype=object) for c in rows)
                if len(lines) == first - start:  # every line an edge: a range, as in bulk
                    lines = range(start, first)
            if (_in_range(t, i, j, N, T).all()
                    and 1 <= v.min(initial=1) and v.max(initial=1) <= _INT64_MAX):
                keys.append(((t - 1) * N + i) * N + j)
                symbols.append(v.copy() if v.max(initial=1) > 1 else None)
                spans.append(lines)
            else:  # the block's edges, kept as columns to name the first offence
                rejected.append((lines, t, i, j, np.broadcast_to(v, t.shape)))
            del rows, t, i, j, v  # frees this block before the join
            chunk = fh.read(_BLOCK) + fh.readline()
    sizes, key, values = [k.size for k in keys], np.concatenate(keys), None
    del keys  # frees the per-block keys before the symbols join
    if any(v is not None for v in symbols):
        values = np.concatenate([np.ones(n, dtype=np.int64) if v is None else v
                                 for n, v in zip(sizes, symbols)])
    del symbols
    order = np.argsort(key) if (key[1:] <= key[:-1]).any() else slice(None)
    data = key[order]  # keys strictly increase in files this module writes: a view
    if rejected or (data[1:] == data[:-1]).any():
        raise _first_offence(key, values, spans, rejected, N, T)
    values = None if values is None else values[order]
    return SnapshotArray(data, N, T, values=values, labels=labels)


def _in_range(t, i, j, N, T):
    """Whether each edge ``t i j`` names an upper entry of the tensor."""
    return (t >= 1) & (t <= T) & (i >= 0) & (i < j) & (j < N)


def _first_offence(key, values, spans, rejected, N, T):
    """The error of the first invalid edge line, by line number, given
    ``read_snapshots``' keys, their symbols (None: all 1), the lines of their
    blocks, each a range or an array, and the ``(lines, t, i, j, v)`` columns
    of each block with an invalid edge, its lines given alike.  An edge in
    range is repeated if an earlier line holds its key."""
    lines = np.concatenate(spans + [r[0] for r in rejected])
    t, rest = np.divmod(key, N * N)
    i, j = np.divmod(rest, N)
    edges = [t + 1, i, j, np.ones_like(key) if values is None else values]
    edges = [lines, *map(np.concatenate, zip(edges, *(r[1:] for r in rejected)))]
    order = np.argsort(edges[0])
    edges = [c[order] for c in edges]  # file order
    lines, t, i, j, v = edges
    ok = _in_range(t, i, j, N, T)
    t, i, j = (c[ok].astype(np.int64) for c in (t, i, j))
    key = ((t - 1) * N + i) * N + j
    order = np.argsort(key, kind="stable")  # equal keys stay in file order
    repeated = np.zeros(ok.size, dtype=bool)
    repeated[np.flatnonzero(ok)[order[1:]]] = key[order[1:]] == key[order[:-1]]
    k = int(np.argmax(~ok | repeated | (v < 1) | (v > _INT64_MAX)))
    return _edge_error(*(int(c[k]) for c in edges), repeated[k], N, T)


def _parse_line(lineno, raw, header, labels, edges):
    """Parse one line with ``str.split`` and ``int``: returns the header and the
    labels, and appends an edge line's ``(lineno, t, i, j, v)`` to ``edges``."""
    tokens = raw.split()
    if not tokens or tokens[0].startswith("#"):
        return header, labels
    if header is None:
        try:  # the magic, the version and two numbers: any other count fails the unpacking
            N, T = map(int, tokens[2:]) if tokens[:2] == [_MAGIC, _VERSION] else ()
        except ValueError:
            raise MalformedHeaderError(f"line {lineno}: bad header {raw.strip()!r}")
        if not _dimensions_ok(N, T):
            raise MalformedHeaderError(f"line {lineno}: bad dimensions {raw.strip()!r}")
        return (N, T), labels
    if tokens[0] == "e":
        if len(tokens) not in (4, 5):
            raise MalformedHeaderError(f"line {lineno}: bad edge line {raw.strip()!r}")
        try:
            edges.append((lineno, int(tokens[1]), int(tokens[2]), int(tokens[3]),
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
    """The (n, 3) or (n, 4) numbers of the n lines of ``block`` if the
    writer spelled them, else None."""
    ends = np.flatnonzero(np.frombuffer(block, dtype=np.uint8) == ord("\n"))
    return _plain_rows(block, np.concatenate(([0], ends[:-1] + 1)), ends)


def _plain_rows(block, starts, ends):
    """The numbers of ``block``'s n lines if the writer spelled each: ``e``
    and three or four runs of digits, each after a single space.  Digits
    deleted, each line is ``e``, 3 or 4 spaces and LF; each 2nd byte is SP
    (not ``3e 1 0 1``, ``e1 0 1 2``); one number per space (not ``e  1 2``);
    at most 18 bytes and 2 per space, so no number exceeds 18 digits.  Returns
    (n, 3) rows, or (n, 4) with symbol 1 where a line lists none; else None."""
    buf, rest = np.frombuffer(block, dtype=np.uint8), block.translate(None, b"0123456789")
    k = np.full(ends.size, 3)  # the spaces of each line
    if rest != b"e   \n" * ends.size:  # a symbol, or a line the writer did not spell
        rest = np.frombuffer(rest, dtype=np.uint8)
        lf = np.flatnonzero(rest == ord("\n"))
        k = np.diff(lf, prepend=-1) - 2
        if (((k != 3) & (k != 4)).any() or (rest[lf - k - 1] != ord("e")).any()
                or np.count_nonzero(rest == ord(" ")) != k.sum()):
            return None
    if (ends - starts > 18 + 2 * k).any() or (buf[starts + 1] != ord(" ")).any():
        return None
    nums = np.fromstring(block.translate(bytes.maketrans(b"e", b" ")), dtype=np.int64, sep=" ")
    if nums.size != k.sum():
        return None
    if nums.size == 3 * k.size:
        return nums.reshape(-1, 3)
    first = np.cumsum(k) - k  # each line's first number
    rows = np.append(nums, 1)[first[:, None] + np.arange(4)]
    rows[k == 3, 3] = 1  # not the next line's first number, or the 1 appended
    return rows


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
    line = _labels_line(labels)
    with open(path, "wb") as fh:
        fh.write(line)


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
