"""Unit tests for data generation and snapshot file I/O."""

import hashlib
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import chi2

from tsbm import harness, sbm
from tsbm._rng import counter_uniform, step_uniform
from tsbm.divergence import FiniteDistribution
from tsbm.markov import BinaryMarkovChain, chain_from_stationary
from tsbm.recovery import OnlineLikelihoodLearned
from tsbm.sbm import (
    DuplicateEdgeError,
    IndexRangeError,
    MalformedHeaderError,
    SnapshotArray,
    SnapshotFormatError,
    balanced_labelling,
    read_labels,
    read_snapshots,
    sample_categorical_snapshots,
    sample_labelling,
    sample_markov_snapshots,
    write_labels,
    write_snapshots,
)

from dense_reference import dense_tensor, from_dense
from divergence_reference import point_mass


class TestSampleLabelling:
    def test_single_block(self):
        assert set(sample_labelling(20, 1, seed=0).tolist()) == {0}

    def test_deterministic(self):
        a = sample_labelling(1000, 3, seed=5)
        b = sample_labelling(1000, 3, seed=5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, sample_labelling(1000, 3, seed=6))

    def test_block_size_concentration(self):
        n = 100_000
        hits = 0
        for seed in range(100):
            lab = sample_labelling(n, 2, seed=seed)
            if abs(int((lab == 0).sum()) - n // 2) <= 4 * math.sqrt(n):
                hits += 1
        assert hits >= 99

    def test_balanced(self):
        lab = balanced_labelling(10, 3)
        assert np.bincount(lab).tolist() in ([4, 3, 3], [3, 3, 4], [3, 4, 3])

    @pytest.mark.parametrize("K", [0, -1, 11])
    def test_balanced_needs_k_from_one_to_n(self, K):
        with pytest.raises(ValueError, match=f"^need 1 <= K <= N, got K={K}, N=10$"):
            balanced_labelling(10, K)


class TestMarkovSampling:
    def test_symmetry_zero_diagonal(self):
        ch = BinaryMarkovChain(0.4, 0.3, 0.6)
        arr = sample_markov_snapshots(sample_labelling(30, 2, seed=0), ch, ch, 5, seed=1)
        arr.validate()

    def test_seed_determinism(self):
        ch = BinaryMarkovChain(0.4, 0.3, 0.6)
        lab = sample_labelling(25, 2, seed=0)
        a = sample_markov_snapshots(lab, ch, ch, 6, seed=9)
        b = sample_markov_snapshots(lab, ch, ch, 6, seed=9)
        assert np.array_equal(dense_tensor(a), dense_tensor(b))

    def test_transition_frequencies(self):
        ch = BinaryMarkovChain(0.4, 0.3, 0.6)
        arr = sample_markov_snapshots(sample_labelling(100, 2, seed=2), ch, ch, 100, seed=7)
        x = dense_tensor(arr)
        prev, cur = x[:-1], x[1:]
        p01_hat = ((prev == 0) & (cur == 1)).sum() / (prev == 0).sum()
        p11_hat = ((prev == 1) & (cur == 1)).sum() / (prev == 1).sum()
        assert abs(p01_hat - 0.3) <= 0.02
        assert abs(p11_hat - 0.6) <= 0.02

    @pytest.mark.parametrize("T", [0, -1])
    def test_needs_a_snapshot(self, T):
        ch = BinaryMarkovChain(0.3, 0.2, 0.6)
        with pytest.raises(ValueError, match=f"^need at least one snapshot, got T={T}$"):
            sample_markov_snapshots(np.zeros(4, dtype=int), ch, ch, T)

    def test_all_zero_chain(self):
        silent = BinaryMarkovChain(0.0, 0.0, 0.5)
        noisy = BinaryMarkovChain(0.5, 0.5, 0.5)
        lab = np.array([0] * 10 + [1] * 10)
        arr = sample_markov_snapshots(lab, silent, noisy, 8, seed=3)
        intra_block = dense_tensor(arr)[:, :10, :10]
        assert intra_block.sum() == 0
        assert dense_tensor(arr).sum() > 0

    def test_stationary_marginal(self):
        st = chain_from_stationary(0.25, 0.7)
        arr = sample_markov_snapshots(sample_labelling(80, 2, seed=3), st, st, 50, seed=11)
        iu, ju = np.triu_indices(80, 1)
        vals = dense_tensor(arr)[:, iu, ju]
        per_snapshot = vals.mean(axis=1)
        se = 3 * math.sqrt(0.25 * 0.75 / vals.shape[1])
        # averaged over snapshots; allow serial correlation slack
        assert abs(per_snapshot.mean() - 0.25) <= 3 * se

    def test_pair_independence(self):
        ch = BinaryMarkovChain(0.4, 0.3, 0.6)
        lab = sample_labelling(18, 2, seed=6)
        arr = sample_markov_snapshots(lab, ch, ch, 2000, seed=13)
        iu, ju = np.triu_indices(18, 1)
        pats = dense_tensor(arr)[:, iu, ju].astype(float)
        corr = np.corrcoef(pats.T)
        off = corr[np.triu_indices(corr.shape[0], 1)]
        assert off.size > 10_000
        assert np.abs(off).mean() <= 0.05
        assert abs(off.mean()) <= 0.005


def _reference_markov(labels, intra, inter, T, seed):
    """One literal ``counter_uniform`` draw per (pair, snapshot)."""
    N = labels.size
    out = np.zeros((T, N, N), dtype=np.uint8)
    for i in range(N):
        for j in range(i + 1, N):
            chain = intra if labels[i] == labels[j] else inter
            bit = counter_uniform(seed, i * N + j, 0) < chain.mu1
            out[0, i, j] = out[0, j, i] = bit
            for t in range(1, T):
                bit = counter_uniform(seed, i * N + j, t) < (chain.p11 if bit else chain.p01)
                out[t, i, j] = out[t, j, i] = bit
    return out


# The law tests below compare pattern counts with chi-square statistics at
# level _ALPHA each; the seeds are fixed, so a run is reproducible, and a
# correct sampler fails one of the 20 statistics with probability below 0.2 %.
_ALPHA = 1e-4

_LAW_CHAINS = {
    # the figure-6 chain: densities of a few percent, as in the paper's regime
    "sparse": (BinaryMarkovChain(0.05, 0.05 * 0.4 / 0.95, 0.6),
               BinaryMarkovChain(0.03, 0.03 * 0.7 / 0.97, 0.3)),
    "dense": (BinaryMarkovChain(0.4, 0.3, 0.6), BinaryMarkovChain(0.2, 0.1, 0.5)),
    # p01 = 0 within blocks, p11 = 1 across: some patterns have probability 0
    "boundary": (BinaryMarkovChain(0.3, 0.0, 0.8), BinaryMarkovChain(0.6, 0.25, 1.0)),
}


def _pattern_counts(x, labels, start, width):
    """Counts of the bit patterns ``x[start:start + width]`` of the pairs
    ``i < j`` of a dense ``(T, N, N)`` tensor, row 0 across blocks and row 1
    within; a pattern's column is its bits read as a binary number."""
    iu, ju = np.triu_indices(labels.size, 1)
    same = (labels[iu] == labels[ju]).astype(np.int64)
    code = sum(x[start + k, iu, ju].astype(np.int64) << (width - 1 - k) for k in range(width))
    return np.bincount(same << width | code, minlength=2 << width).reshape(2, -1)


def _pattern_law(chain, start, width):
    """Probabilities of the patterns that ``_pattern_counts`` counts."""
    mu = chain.mu @ np.linalg.matrix_power(chain.transition, start)
    bits = (np.arange(1 << width)[:, None] >> np.arange(width - 1, -1, -1)) & 1
    return mu[bits[:, 0]] * np.prod(chain.transition[bits[:, :-1], bits[:, 1:]], axis=1)


class TestSamplerLaw:
    # each pair contributes one pattern to each statistic, so the counts are
    # multinomial: the 3-step window opens at snapshot 0, the 2-step window
    # covers the last two of T = 4 snapshots
    WINDOWS = ((0, 3), (2, 2))

    @pytest.mark.parametrize("name", sorted(_LAW_CHAINS))
    def test_pattern_frequencies_follow_the_chain(self, name):
        intra, inter = _LAW_CHAINS[name]
        counts = {w: 0 for w in self.WINDOWS}
        for seed in range(4):
            labels = sample_labelling(200, 2, seed=seed)
            x = dense_tensor(sample_markov_snapshots(labels, intra, inter, 4, seed=seed))
            for start, width in self.WINDOWS:
                counts[start, width] += _pattern_counts(x, labels, start, width)
        for (start, width), table in counts.items():
            for observed, chain in zip(table, (inter, intra)):
                law = _pattern_law(chain, start, width)
                assert observed[law == 0].sum() == 0  # impossible patterns never occur
                expected = observed.sum() * law[law > 0]
                stat = (((observed[law > 0] - expected) ** 2) / expected).sum()
                bound = chi2.isf(_ALPHA, (law > 0).sum() - 1)
                assert stat <= bound, (name, start, width, observed)

    @pytest.mark.parametrize("name", ["dense", "boundary"])
    def test_pattern_frequencies_match_the_per_pair_reference(self, name):
        intra, inter = _LAW_CHAINS[name]
        got = want = 0
        for seed in range(24):
            labels = sample_labelling(30, 2, seed=seed)
            x = dense_tensor(sample_markov_snapshots(labels, intra, inter, 4, seed=seed))
            y = _reference_markov(labels, intra, inter, 4, seed + 1000)
            got = got + np.concatenate([_pattern_counts(x, labels, *w) for w in self.WINDOWS], 1)
            want = want + np.concatenate([_pattern_counts(y, labels, *w) for w in self.WINDOWS], 1)
        for cls in (0, 1):
            columns = np.split(np.stack((got[cls], want[cls])), [8], axis=1)  # per window
            for table in columns:
                table = table[:, table.sum(0) > 0]
                expected = np.outer(table.sum(1), table.sum(0)) / table.sum()
                stat = (((table - expected) ** 2) / expected).sum()
                assert stat <= chi2.isf(_ALPHA, table.shape[1] - 1), (name, cls, table)

    @settings(max_examples=150, deadline=None)
    @given(
        rates=st.lists(st.one_of(st.sampled_from([0.0, 1.0]),
                                 st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
                       min_size=3, max_size=3),
        N=st.one_of(st.sampled_from([0, 1, 2]), st.integers(3, 12)),
        T=st.integers(1, 4),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_boundary_chains_give_valid_arrays(self, rates, N, T, seed):
        chain = BinaryMarkovChain(*rates)
        arr = sample_markov_snapshots(np.zeros(N, dtype=np.int64), chain, chain, T, seed=seed)
        assert (arr.N, arr.T, arr.values) == (N, T, None)
        arr.validate()
        x = dense_tensor(arr).astype(bool)
        pair = ~np.eye(N, dtype=bool)
        if chain.mu1 in (0.0, 1.0):
            assert (x[0][pair] == bool(chain.mu1)).all()
        for was, rate in ((False, chain.p01), (True, chain.p11)):
            if rate in (0.0, 1.0):  # a certain transition is taken by every pair
                assert (x[1:][(x[:-1] == was) & pair] == bool(rate)).all()


# sha256 of sample_markov_snapshots(...).data with each index's mirror
# merged in, recorded from the skip sampler in blocks of 2^20 pairs when the
# array listed both orientations; they pin its draws, not its law
_SCALE_DIGESTS = {
    (3000, 10): "74efe5d0f98414ef77e02b7282a260162f1ecf5b771ae5b82fcc07e31e582419",
    (1000, 30): "4438d925b4123b430081faa350347b7f927fa0ff15dda802f308012151da4124",
    # recorded with the blocks joined through per-block searchsorted cuts
    (30000, 10): "82f6a13f7d47e503fef7255d889244999a3262a7c247e4225251841c55686956",
}


def _scale_sample(N, T):
    """The scale chain at N=3000, T=10 (the benchmark's scale point) or
    N=30000, T=10; or the figure-6 online-learn config at N=1000, T=30."""
    if N != 1000:
        intra, inter = harness.chains_in_units(N, 3.0, 1.5, 0.7, 0.3)
    else:
        intra, inter = harness.chains_in_units(1000, 0.05, 0.03, 0.6, 0.3, "absolute")
    return sample_markov_snapshots(sample_labelling(N, 2, seed=1), intra, inter, T, seed=2)


class TestChunkedSampler:
    @pytest.mark.parametrize("N, T", sorted(_SCALE_DIGESTS))
    def test_scale_point_digests(self, N, T):
        # 5 blocks, 1 and 430 (at N=3000 four start mid-row and the last
        # is short; at N=30000 most do), at sizes the per-pair reference
        # cannot reach
        data = _scale_sample(N, T).data
        t, rest = np.divmod(data, N * N)
        both = np.sort(np.concatenate((data, t * N * N + rest % N * N + rest // N)))
        assert hashlib.sha256(both.tobytes()).hexdigest() == _SCALE_DIGESTS[N, T]

    def test_sampler_peak_memory_at_the_figure_6_config(self):
        # 600k set-bit indices (4.8 MB) and their sorted concatenation set a
        # floor near 9.6 MB; the sampler peaks at 11.4 MB.
        tracemalloc.start()
        try:
            arr = _scale_sample(1000, 30)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert arr.data.size == 600687
        assert peak <= 13e6

    def test_learner_peak_memory_at_the_figure_6_config(self):
        # the pair store is allocated once over the 243k pairs the array
        # ever sets, at 48 bytes each with the sorted pairs and their place
        # map; the learner peaks near 18 MB.  A place kept for each of the
        # 600k set bits pushed it to 33.7 MB.
        arr = _scale_sample(1000, 30)
        tracemalloc.start()
        try:
            OnlineLikelihoodLearned(arr, arr.labels, 2).run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24e6

    def test_blocks_drawn_in_reverse_order_give_the_same_data(self):
        intra, inter = chain_from_stationary(0.3, 0.6), chain_from_stationary(0.1, 0.4)
        labels = sample_labelling(41, 3, seed=8)
        n_pairs = 41 * 40 // 2
        row_start = np.arange(42) * (2 * 41 - np.arange(42) - 1) // 2
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sbm, "_BLOCK_PAIRS", 7)  # 118 blocks, most starting and ending mid-row
            want = sample_markov_snapshots(labels, intra, inter, 3, seed=12)
            got = [np.concatenate(sbm._block_snapshots(labels, row_start, (inter, intra), 3,
                                                       12, lo, min(lo + 7, n_pairs)))
                   for lo in reversed(range(0, n_pairs, 7))]
        assert np.array_equal(np.sort(np.concatenate(got)), want.data)

    @settings(max_examples=200, deadline=None)
    @given(rate=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
           n=st.integers(0, 60), key=st.integers(0, 2**64 - 1))
    @example(rate=0.3, n=50, key=127)  # these two need a second round
    @example(rate=0.02, n=60, key=145)
    def test_skip_matches_drawing_every_gap(self, rate, n, key):
        # _skip draws its gaps in rounds of a little more than the expected
        # number; n + 1 gaps always pass the end, so draw them all at once
        key = np.uint64(key)
        u = 1.0 - step_uniform(key, sbm._BLOCK_PAIRS + 2 * np.arange(n + 1))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            gap = np.minimum(np.floor(np.log(u) / np.log1p(-rate)) + 1, n + 1)
        pos = np.cumsum(gap.astype(np.int64)) - 1
        want = np.empty(0, dtype=np.int64) if rate == 0 else pos[pos < n]
        assert np.array_equal(sbm._skip(key, rate, n), want)


class TestCategoricalSampling:
    def test_point_mass(self):
        f = point_mass(0, 3)
        lab = sample_labelling(20, 2, seed=0)
        arr = sample_categorical_snapshots(lab, f, f, seed=1)
        assert dense_tensor(arr).sum() == 0

    def test_single_block_uses_intra(self):
        f = FiniteDistribution([0.0, 1.0])
        g = FiniteDistribution([1.0, 0.0])
        lab = np.zeros(12, dtype=np.int64)
        arr = sample_categorical_snapshots(lab, f, g, seed=2)
        iu, ju = np.triu_indices(12, 1)
        assert (dense_tensor(arr)[0, iu, ju] == 1).all()

    def test_symbol_frequencies(self):
        f = FiniteDistribution([0.5, 0.3, 0.2])
        g = FiniteDistribution([0.2, 0.3, 0.5])
        lab = sample_labelling(200, 2, seed=4)
        arr = sample_categorical_snapshots(lab, f, g, seed=5)
        iu, ju = np.triu_indices(200, 1)
        same = lab[iu] == lab[ju]
        vals = dense_tensor(arr)[0, iu, ju]
        for dist, mask in ((f, same), (g, ~same)):
            m = int(mask.sum())
            for sym, p in enumerate(dist.probs):
                freq = (vals[mask] == sym).mean()
                assert abs(freq - p) <= 3 * math.sqrt(p * (1 - p) / m) + 1e-12

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            sample_categorical_snapshots(
                np.zeros(5, dtype=int),
                FiniteDistribution([1.0]),
                FiniteDistribution([0.5, 0.5]),
            )


class TestSnapshotFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        ch = chain_from_stationary(0.1, 0.6)
        arr = sample_markov_snapshots(sample_labelling(40, 2, seed=1), ch, ch, 7, seed=2)
        path = tmp_path / "x.tsbm"
        write_snapshots(path, arr)
        back = read_snapshots(path)
        assert np.array_equal(dense_tensor(back), dense_tensor(arr))
        assert np.array_equal(back.labels, arr.labels)
        # writing the parsed array again reproduces the file byte for byte
        path2 = tmp_path / "y.tsbm"
        write_snapshots(path2, back)
        assert path.read_bytes() == path2.read_bytes()

    def test_categorical_round_trip(self, tmp_path):
        f = FiniteDistribution([0.3, 0.4, 0.3])
        g = FiniteDistribution([0.6, 0.2, 0.2])
        arr = sample_categorical_snapshots(sample_labelling(25, 2, seed=3), f, g, seed=4)
        path = tmp_path / "c.tsbm"
        write_snapshots(path, arr)
        assert np.array_equal(dense_tensor(read_snapshots(path)), dense_tensor(arr))

    def test_empty_graph(self, tmp_path):
        path = tmp_path / "e.tsbm"
        path.write_text("# empty graph\ntsbm 1 5 3\n")
        arr = read_snapshots(path)
        assert arr.N == 5 and arr.T == 3
        assert dense_tensor(arr).sum() == 0

    def test_line_count(self, tmp_path):
        ch = chain_from_stationary(0.2, 0.5)
        arr = sample_markov_snapshots(sample_labelling(20, 2, seed=5), ch, ch, 4, seed=6)
        path = tmp_path / "n.tsbm"
        write_snapshots(path, arr)
        bits = sum(int(np.triu(dense_tensor(arr)[t], 1).sum()) for t in range(arr.T))
        lines = path.read_text().splitlines()
        assert len(lines) == 2 + bits  # header + labels + one line per bit

    @pytest.mark.parametrize(
        "content,error",
        [
            ("tsbm 2 3 1\n", MalformedHeaderError),
            ("tsbm 1 x 1\n", MalformedHeaderError),
            ("bogus\n", MalformedHeaderError),
            ("", MalformedHeaderError),
            ("tsbm 1 8 2\ne 2 7 7\n", IndexRangeError),
            ("tsbm 1 8 2\ne 1 5 3\n", IndexRangeError),
            ("tsbm 1 8 2\ne 1 0 9\n", IndexRangeError),
            ("tsbm 1 8 2\ne 3 0 1\n", IndexRangeError),
            ("tsbm 1 8 2\ne 1 0 1\ne 1 0 1\n", DuplicateEdgeError),
            ("tsbm 1 8 2\ne 99999999999999999999 0 1\n", IndexRangeError),
            ("tsbm 1 8 2\ne 1 5 3\nbogus\n", MalformedHeaderError),
            ("tsbm 1 3 1\ne 1 0 1 -3\n", IndexRangeError),
            ("tsbm 1 3 1\ne 1 0 1 99999999999999999999\n", IndexRangeError),
            ("tsbm 1 3 1\nlabels 1 2 99999999999999999999\n", IndexRangeError),
            ("tsbm 1 3 1\nlabels 1 x 2\n", MalformedHeaderError),
            ("tsbm 1 3 1\nlabels 1 2 1\nlabels 2 2 2\n", MalformedHeaderError),
        ],
    )
    def test_rejects_malformed(self, tmp_path, content, error):
        path = tmp_path / "bad.tsbm"
        path.write_text(content)
        with pytest.raises(error):
            read_snapshots(path)

    def test_oversized_header_reads_without_allocation(self, tmp_path):
        # memory follows the edges, not the 10^17 entries the header spans
        path = tmp_path / "huge.tsbm"
        path.write_text("tsbm 1 10000000 1000\n")
        arr = read_snapshots(path)
        assert (arr.N, arr.T, arr.data.size, arr.values) == (10**7, 1000, 0, None)

    def test_header_beyond_the_index_range(self, tmp_path):
        path = tmp_path / "huge.tsbm"
        path.write_text("tsbm 1 4000000000 1\n")
        with pytest.raises(MalformedHeaderError, match="^line 1: bad dimensions"):
            read_snapshots(path)

    def test_labels_sidecar(self, tmp_path):
        labels = np.array([0, 2, 1, 1])
        path = tmp_path / "l.labels"
        write_labels(path, labels)
        assert path.read_text() == "labels 1 3 2 2\n"
        assert np.array_equal(read_labels(path), labels)

    @pytest.mark.parametrize("array", [
        SnapshotArray([1, 5], 3, 2, labels=[0, -1, 1]),  # would be written "labels 1 0 2"
        SnapshotArray([1, 5], 3, 2, labels=[0, 2**63 - 1, 1]),  # its 1-based label passes int64
        SnapshotArray([1, 5], 3, 2, values=[2, 0]),  # an explicit zero symbol
        SnapshotArray([1, 5], 3, 2, values=[-4, 2]),
        SnapshotArray([1, 18], 3, 2),  # snapshot 3 of 2
        SnapshotArray([-1, 5], 3, 2),
    ])
    def test_writer_refuses_what_the_reader_refuses(self, tmp_path, array):
        # refused before the file is opened: no partial file is left
        with pytest.raises(ValueError):
            write_snapshots(tmp_path / "bad.tsbm", array)
        if array.labels is not None:
            with pytest.raises(ValueError, match="^labels must lie in"):
                write_labels(tmp_path / "bad.labels", array.labels)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("N,T", [(0, 1), (3, 0), (2**32, 1)])
    def test_writer_refuses_dimensions_the_reader_refuses(self, tmp_path, N, T):
        # no node, no snapshot, or a flat index T*N*N - 1 beyond int64
        head = tmp_path / "head.tsbm"
        head.write_text(f"tsbm 1 {N} {T}\n")
        with pytest.raises(MalformedHeaderError, match="bad dimensions"):
            read_snapshots(head)
        path = tmp_path / "bad.tsbm"
        with pytest.raises(ValueError, match=f"^bad dimensions N={N}, T={T}$"):
            write_snapshots(path, SnapshotArray(np.empty(0, dtype=np.int64), N, T))
        assert not path.exists()

    @pytest.mark.parametrize("data,message", [
        ([1, 9], r"snapshot 1 lists entry \(2, 1\), not i < j"),  # a lower entry
        ([1, 21], r"snapshot 2 lists entry \(1, 1\), not i < j"),  # a diagonal entry
        ([1, 6, 6], "strictly increasing"),  # a repeated index
        ([6, 1], "strictly increasing"),  # indices out of order
    ], ids=["lower", "diagonal", "repeated", "unsorted"])
    def test_writer_refuses_what_the_reader_reads_otherwise(self, tmp_path, data, message):
        # the reader refuses each file's edge line (or, unsorted, reorders
        # it): the writer refuses the array before it creates the file
        path = tmp_path / "bad.tsbm"
        with pytest.raises(ValueError, match=message):
            write_snapshots(path, SnapshotArray(data, 4, 2))
        assert not path.exists()

    @pytest.mark.parametrize("fault", ["repeated", "swapped", "lower"])
    def test_validate_checks_every_block_and_their_joins(self, fault):
        # validate takes 8192 indices at a time: faults where the first two
        # blocks join, and in the last block, are found
        data = np.flatnonzero(np.triu(np.ones((200, 200), dtype=bool), 1))[:10000]
        SnapshotArray(data, 200, 1).validate()
        if fault == "repeated":
            data[8192] = data[8191]
        elif fault == "swapped":
            data[[8191, 8192]] = data[[8192, 8191]]
        else:
            data[-1] = 199 * 200 + 198
        message = r"entry \(199, 198\), not i < j" if fault == "lower" else "strictly increasing"
        with pytest.raises(ValueError, match=message):
            SnapshotArray(data, 200, 1).validate()

    @pytest.mark.parametrize("sampled", ["markov", "categorical"])
    def test_sampled_arrays_written_and_read_back_unchanged(self, tmp_path, sampled):
        labels = sample_labelling(60, 3, seed=7)
        if sampled == "markov":
            ch = chain_from_stationary(0.15, 0.6)
            arr = sample_markov_snapshots(labels, ch, chain_from_stationary(0.05, 0.3), 5, seed=8)
        else:
            f, g = FiniteDistribution([0.4, 0.3, 0.3]), FiniteDistribution([0.7, 0.2, 0.1])
            arr = sample_categorical_snapshots(labels, f, g, seed=9)
        write_snapshots(tmp_path / "s.tsbm", arr)
        back = read_snapshots(tmp_path / "s.tsbm")
        assert (back.N, back.T) == (arr.N, arr.T)
        for name in ("data", "values", "labels"):
            want, got = getattr(arr, name), getattr(back, name)
            assert (got is None) if want is None else np.array_equal(got, want)

    @pytest.mark.parametrize(
        "record,error",
        [
            ("labels 1 x 2", MalformedHeaderError),
            ("labels 1 0 2", IndexRangeError),
            ("labels 1 2 99999999999999999999", IndexRangeError),
            ("bogus 1 2", MalformedHeaderError),
        ],
    )
    def test_labels_sidecar_rejects_malformed(self, tmp_path, record, error):
        path = tmp_path / "l.labels"
        path.write_text(f"# truth\n{record}\n")
        with pytest.raises(error, match="^line 2: "):
            read_labels(path)

    @pytest.mark.parametrize("text", ["", "# truth\n\n"])
    def test_labels_sidecar_without_labels_line(self, tmp_path, text):
        path = tmp_path / "l.labels"
        path.write_text(text)
        with pytest.raises(MalformedHeaderError, match="^missing labels line$"):
            read_labels(path)

    @pytest.mark.parametrize("record", ["labels 1 2", "labels 1 2 1 2"])
    def test_labels_record_needs_one_label_per_node(self, tmp_path, record):
        path = tmp_path / "g.tsbm"
        path.write_text(f"tsbm 1 3 1\n{record}\n")
        with pytest.raises(MalformedHeaderError, match="^line 2: labels line needs 3 entries$"):
            read_snapshots(path)


@st.composite
def _symmetric_arrays(draw, max_symbol):
    T, N = draw(st.integers(1, 4)), draw(st.integers(1, 7))
    upper = np.triu(draw(arrays(np.int64, (T, N, N), elements=st.integers(0, max_symbol))), 1)
    return upper + upper.transpose(0, 2, 1)


@st.composite
def _edge_files(draw):
    """Header sizes plus edge lines, mostly in range and from a small key
    space, so that duplicates, explicit zeros and symbols outside the int64
    range are common."""
    N, T = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    value = st.sampled_from([None, None, 1, 2, 0, -3, 2**63 - 1, 2**63, 10**20])
    comment = st.booleans()
    wild = st.tuples(st.integers(-1, T + 1), st.integers(-1, N + 1),
                     st.integers(-1, N + 1), value, comment)
    pairs = [(i, j) for i in range(N) for j in range(i + 1, N)]
    if pairs:
        valid = st.builds(lambda t, ij, v, c: (t, *ij, v, c), st.integers(1, T),
                          st.sampled_from(pairs), value, comment)
        wild = st.one_of(valid, valid, valid, wild)
    return N, T, draw(st.lists(wild, max_size=12))


def _first_error(N, T, edges):
    """Class and message of the first bad edge, checked line by line."""
    seen = set()
    for lineno, t, i, j, v in edges:
        if not 1 <= t <= T:
            return IndexRangeError, f"line {lineno}: snapshot index {t} outside 1..{T}"
        if i == j:
            return IndexRangeError, f"line {lineno}: self-loop on node {i}"
        if not (0 <= i < j < N):
            return IndexRangeError, f"line {lineno}: need 0 <= i < j < N, got {i}, {j}"
        if (t, i, j) in seen:
            return DuplicateEdgeError, f"line {lineno}: duplicate edge {t} {i} {j}"
        seen.add((t, i, j))
        if v == 0:
            return IndexRangeError, f"line {lineno}: explicit zero value"
        if not 1 <= v <= 2**63 - 1:
            return IndexRangeError, f"line {lineno}: symbol {v} outside 1..{2**63 - 1}"
    return None


class TestSnapshotFileProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        data=st.one_of(_symmetric_arrays(1), _symmetric_arrays(4)),
        with_labels=st.booleans(),
    )
    def test_round_trip_and_rewrite(self, tmp_path_factory, data, with_labels):
        tmp = tmp_path_factory.mktemp("rt")
        labels = np.arange(data.shape[1]) % 3 if with_labels else None
        write_snapshots(tmp / "a.tsbm", from_dense(data, labels=labels))
        back = read_snapshots(tmp / "a.tsbm")
        assert dense_tensor(back).dtype == (np.int64 if data.max(initial=0) > 1 else np.uint8)
        assert np.array_equal(dense_tensor(back), data)
        assert np.array_equal(back.labels, labels) if with_labels else back.labels is None
        write_snapshots(tmp / "b.tsbm", back)
        assert (tmp / "a.tsbm").read_bytes() == (tmp / "b.tsbm").read_bytes()

    @settings(max_examples=100, deadline=None)
    @given(file=_edge_files())
    def test_reports_first_offending_line(self, tmp_path_factory, file):
        N, T, edges = file
        lines, parsed = [f"tsbm 1 {N} {T}"], []
        for t, i, j, v, comment in edges:
            if comment:
                lines.append("# comment")
            lines.append(f"e {t} {i} {j}" + ("" if v is None else f" {v}"))
            parsed.append((len(lines), t, i, j, 1 if v is None else v))
        path = tmp_path_factory.mktemp("bad") / "f.tsbm"
        path.write_text("\n".join(lines) + "\n")
        expected = _first_error(N, T, parsed)
        if expected is None:
            back = read_snapshots(path)
            want = np.zeros((T, N, N), dtype=np.int64)
            for _, t, i, j, v in parsed:
                want[t - 1, i, j] = want[t - 1, j, i] = v
            assert dense_tensor(back).dtype == (np.int64 if want.max() > 1 else np.uint8)
            assert np.array_equal(dense_tensor(back), want)
        else:
            error, message = expected
            with pytest.raises(SnapshotFormatError) as exc:
                read_snapshots(path)
            assert type(exc.value) is error
            assert str(exc.value) == message


# ---------------------------------------------------------------------------
# The per-line reader and writer that the bulk ones replaced, kept as
# references: the bulk reader must accept and reject exactly the same files,
# with the same arrays and the same errors, and the writer must write the
# same bytes.
# ---------------------------------------------------------------------------


def _reference_write_snapshots(path, array, labels=None):
    if labels is None:
        labels = array.labels
    N = array.N
    t, rest = np.divmod(array.data, N * N)
    i, j = np.divmod(rest, N)
    rows = zip((t + 1).tolist(), i.tolist(), j.tolist())
    with open(path, "w") as fh:
        fh.write(f"tsbm 1 {N} {array.T}\n")
        if labels is not None:
            fh.write("labels " + " ".join(str(int(l) + 1) for l in labels) + "\n")
        if array.values is None:
            fh.write("".join([f"e {a} {b} {c}\n" for a, b, c in rows]))
        else:
            fh.write("".join([
                f"e {a} {b} {c}\n" if v == 1 else f"e {a} {b} {c} {v}\n"
                for (a, b, c), v in zip(rows, array.values.tolist())
            ]))


def _reference_column(values):
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _reference_read_snapshots(path):
    header = None
    labels = None
    lines, columns = [], ([], [], [], [])
    ts, iss, js, vs = columns
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            tokens = raw.split()
            if not tokens or tokens[0].startswith("#"):
                continue
            if header is None:
                line = raw.strip()
                if len(tokens) != 4 or tokens[0] != "tsbm" or tokens[1] != "1":
                    raise MalformedHeaderError(f"line {lineno}: bad header {line!r}")
                try:
                    N, T = int(tokens[2]), int(tokens[3])
                except ValueError:
                    raise MalformedHeaderError(f"line {lineno}: bad header {line!r}")
                if N < 1 or T < 1 or T * N * N - 1 > 2**63 - 1:
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
                labels = sbm._parse_labels(lineno, tokens[1:])
                continue
            raise MalformedHeaderError(f"line {lineno}: unknown record {tokens[0]!r}")
    if header is None:
        raise MalformedHeaderError("missing header line")
    N, T = header
    t, i, j, v = (_reference_column(c) for c in columns)
    order = np.lexsort((j, i, t))
    st_, si, sj = t[order], i[order], j[order]
    repeated = np.zeros(order.size, dtype=bool)
    repeated[order[1:]] = (st_[1:] == st_[:-1]) & (si[1:] == si[:-1]) & (sj[1:] == sj[:-1])
    bad = (t < 1) | (t > T) | (i < 0) | (i >= j) | (j >= N) | repeated
    bad = bad | (v < 1) | (v > 2**63 - 1)
    if bad.any():
        k = int(np.argmax(bad))
        raise sbm._edge_error(lines[k], ts[k], iss[k], js[k], vs[k], repeated[k], N, T)
    t, i, j, v = (c.astype(np.int64) for c in (t, i, j, v))
    keys = (t - 1) * N * N + i * N + j
    if not (v > 1).any():
        return SnapshotArray(np.sort(keys), N, T, labels=labels)
    order = np.argsort(keys)
    return SnapshotArray(keys[order], N, T, values=v[order], labels=labels)


# Edge lines beside the writer's, each read as the per-line reference reads
# it.  The last seven pass a test that deletes the digits and compares the
# rest with the writer's spelling: the rest of ``_plain_rows`` must refuse
# the first six, and read the last, at the 24-byte limit, as the reference.
_EDGE_SPELLINGS = [
    "e 1 0 -", "e 1 --1 2", "e 1 0 1-", "e -1 0 1", "e 1 -0 1", "e 1 0 -1", "e1 0 1 2",
    "e-1 0 1 2", "ee 1 0 1", " e 1 0 1", "e\t1\t0\t1\t", "e 1 0 1 ", "e 1 0 1e",
    "e 1 0 1\x0b", "e 1 0 1\xa0", "e 1 0 \u0663", "e 1 0 1_0", "e 1 0 +1", "e 01 00 011",
    "e 1 0 0000000000000000001", "e 1 0 9999999999999999999", "e 1 0 999999999999999999",
    "e 1 0 -999999999999999999", "e 1 0 1 1", "e 1 0 1 0", "e 1 0", "e 1 0 1 # note",
    "3e 1 0 1", "e 1 0 1\n3e 1 0 1", "e1 0 1 2\ne  1 2", "e  1 2", "e 1 0 ",
    "e 1 0 1000000000000000000", "e 1 0 100000000000000000",
]
# Edge lines with a symbol column, or spaced as if they had one, beside the
# writer's: ``_plain_rows`` must read the writer's (up to 18-digit symbols)
# as the reference does, and refuse the rest, which a count of spaces and
# numbers per block alone would let through.
_SYMBOL_SPELLINGS = [
    "e 2 4 5 6", "e 2 4 5 1", "e 2 4 5 0", "e 2 4 5 999999999999999999",
    "e 2 4 5 9999999999999999999", "e 2 4 5 1000000000000000000", "2 e 4 5", "2 e 4 5 6",
    "e 2 4 5 6 7", "e 2 4 5  6", "e 2 4 5 6 ", "e 2 4 5 6\ne 2 4", "e 2 4 5 \ne 2 4 6 7",
    "e2 4 5 6 7\ne  4 6", "e 2 4 5 6\n3e 2 4 6", "e 2 4 5 6\ne 2 4 5",
]
_STYLES = ["plain"] * 6 + ["zeros", "plus", "underscore", "arabic", "fullwidth"]
_JUNK = ["x", "1e3", "--1", "1-", "_1", "-", "+", "0x1", "1.0", "\x00"]
_WILD = [-1, 0, 7, 10**18, -(10**18), 10**19, 2**63 - 1, 2**63, 10**25]


def _spell(value, style, zeros=1):
    """``value`` as a token that ``int()`` reads back, in the given style."""
    sign, text = ("-" if value < 0 else ""), str(abs(value))
    if style == "zeros":
        text = "0" * zeros + text
    elif style == "plus":
        sign = sign or "+"
    elif style == "underscore" and len(text) > 1:
        text = text[0] + "_" + text[1:]
    elif style in ("arabic", "fullwidth"):
        zero = "\u0660" if style == "arabic" else "\uff10"
        text = "".join(chr(ord(zero) + int(c)) for c in text)
    return sign + text


@st.composite
def _messy_files(draw):
    """The text of a small ``tsbm`` file that mixes the writer's own lines
    with every spelling the per-line reader accepts: runs of spaces and
    tabs, other whitespace, CRLF and lone-CR line ends, comments, blank
    lines, 5-token edge lines, leading zeros, '+', '_', non-ASCII digits and
    no final newline.  Faults are injected at a rate drawn per file: junk
    tokens, negative, 19-digit and wider numbers, out-of-range and repeated
    edges, wrong token counts, bad headers and labels records, unknown
    records, and edge lines before the header."""
    N, T = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    rate = draw(st.sampled_from([0, 0, 0, 2, 8, 25]))  # percent, per fault point

    def fault():
        return draw(st.integers(0, 99)) < rate

    def token(value, plain=False):
        if fault():
            return draw(st.sampled_from(_JUNK + [str(w) for w in _WILD]))
        style = "plain" if plain else draw(st.sampled_from(_STYLES))
        return _spell(value, style, draw(st.integers(1, 20)))

    def record(*tokens, plain=False):  # plain: spelled as the writer spells it
        pad = st.just("") if plain else st.sampled_from([""] * 8 + [" ", "\t", "  "])
        sep = st.just(" ") if plain else st.sampled_from(
            [" "] * 6 + ["  ", "\t", " \t", "\x0b", "\x0c", "\x1f", "\xa0", "\u2003"])
        text = tokens[0] + "".join(draw(sep) + x for x in tokens[1:])
        return draw(pad) + text + draw(pad)

    keys = [(t, i, j) for t in range(1, T + 1) for i in range(N) for j in range(i + 1, N)]
    edges = draw(st.lists(st.sampled_from(keys), unique=True, max_size=12)) if keys else []

    def edge(key):
        if fault() and edges:
            key = draw(st.sampled_from(edges))  # a repeat
        plain = draw(st.integers(0, 2)) > 0
        numbers = [token(x, plain) for x in key]
        if draw(st.integers(0, 7)) == 0:
            numbers.append(token(draw(st.sampled_from([1, 2, 3, 2**63 - 1])), plain))
        if fault():
            numbers = numbers[:draw(st.integers(0, 4))] + ["1"] * draw(st.integers(0, 2))
        return record("e", *numbers, plain=plain)

    def header():
        tokens = ["tsbm", "1", token(N), token(T)]
        if fault():
            tokens[draw(st.integers(0, 1))] = "2"
        return record(*tokens[:3 if fault() else 4])

    def labels():
        size = N - 1 if fault() else N
        return record("labels", *[token(draw(st.integers(1, 2))) for _ in range(size)])

    def other():
        kind = draw(st.sampled_from(["comment", "blank", "labels", "unknown"]))
        if kind == "comment":
            return draw(st.sampled_from(["#", "# note", "  #e 1 0 1", "#\tx"]))
        if kind == "blank":
            return draw(st.sampled_from(["", " ", "\t \t"]))
        if kind == "labels" and fault():  # a second labels record
            return labels()
        if kind == "unknown" and fault():
            return record(draw(st.sampled_from(["x", "E", "ee", "tsbm"])), "1", "0", "1")
        return "# kept"

    lines = draw(st.lists(st.sampled_from(["", "# lead"]), max_size=2))
    if fault():
        lines.append(edge(keys[0] if keys else (1, 0, 1)))
    if not fault():
        lines.append(header())
    if draw(st.booleans()):
        lines.append(labels())
    for key in edges:
        lines += [edge(key)] + ([other()] if draw(st.integers(0, 3)) == 0 else [])
    ends = [draw(st.sampled_from(["\n"] * 6 + ["\r\n", "\r"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    return text[:-1] if text and draw(st.booleans()) else text


def _outcome(read, path):
    """What a reader makes of a file: the array's fields, or the error."""
    try:
        a = read(path)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)
    as_list = (lambda x: None if x is None else x.tolist())
    return a.N, a.T, a.data.tolist(), as_list(a.values), as_list(a.labels)


@st.composite
def _sparse_arrays(draw):
    """Arrays with multi-digit snapshot and node numbers and symbols up to
    the int64 limit."""
    T, N = draw(st.integers(1, 12)), draw(st.integers(2, 120))
    symbol = st.sampled_from([1, 1, 1, 2, 10, 2**63 - 1]) if draw(st.booleans()) else st.just(1)
    x = np.zeros((T, N, N), dtype=np.int64)
    entries = st.tuples(st.integers(0, T - 1), st.integers(0, N - 1), st.integers(0, N - 1),
                        symbol)
    for t, i, j, v in draw(st.lists(entries, max_size=40)):
        if i != j:
            x[t, i, j] = x[t, j, i] = v
    return x


_GROUP_EDGES = [9, 10, 9999, 10000, 10001]  # one digit group more or less


@st.composite
def _wide_arrays(draw):
    """Arrays built from flat indices, not a dense tensor, so that N reaches
    about 10^6 and T 10^5: N - 1 and T near digit-group edges, node numbers
    often 0 or N - 1, symbols up to the int64 limit, labels from K >= 10."""
    digits = st.integers(1, 6).flatmap(lambda d: st.integers(10 ** (d - 1), 10**d))
    N = 1 + draw(st.sampled_from(_GROUP_EDGES) | digits)
    T = draw(st.sampled_from(_GROUP_EDGES) | digits.filter(lambda t: t <= 10**5))
    node = st.one_of(st.sampled_from([0, N - 1]), st.integers(0, N - 1))
    edges = draw(st.lists(st.tuples(st.sampled_from([0, T - 1]) | st.integers(0, T - 1),
                                    node, node), max_size=30))
    data = sorted({t * N * N + min(i, j) * N + max(i, j) for t, i, j in edges if i != j})
    values = None
    if draw(st.booleans()):
        symbol = st.sampled_from([1, 1, 9, 10, 9999, 10000, 10**8, 2**63 - 1])
        values = draw(st.lists(symbol | st.integers(1, 2**63 - 1), min_size=len(data),
                               max_size=len(data)))
    labels = None
    if draw(st.booleans()):
        K = draw(st.sampled_from([10, 11] + _GROUP_EDGES[2:] + [10**6, 2**62]))
        labels = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(0, K, N)
        labels[-1] = K - 1
    return SnapshotArray(data, N, T, values=values, labels=labels)


class TestBulkReaderWriter:
    @settings(max_examples=400, deadline=None)
    @given(text=_messy_files(), block=st.sampled_from([1, 5, 64, sbm._BLOCK]))
    def test_reader_matches_per_line_reference(self, tmp_path_factory, text, block):
        path = tmp_path_factory.mktemp("messy") / "f.tsbm"
        path.write_bytes(text.encode())
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sbm, "_BLOCK", block)  # any block size reads alike
            got = _outcome(read_snapshots, path)
        assert got == _outcome(_reference_read_snapshots, path)

    @pytest.mark.parametrize("line", _EDGE_SPELLINGS)
    def test_reader_matches_per_line_reference_on_edge_spellings(self, tmp_path, line):
        path = tmp_path / "f.tsbm"
        path.write_bytes(f"tsbm 1 12 2\ne 1 2 3\n{line}\ne 2 3 4\n".encode())
        assert _outcome(read_snapshots, path) == _outcome(_reference_read_snapshots, path)

    @pytest.mark.parametrize("line", _SYMBOL_SPELLINGS)
    def test_reader_matches_per_line_reference_on_symbol_spellings(self, tmp_path, line):
        # the line(s) and the last share a block after the first edge line's
        path = tmp_path / "f.tsbm"
        path.write_bytes(f"tsbm 1 12 2\ne 1 2 3\n{line}\ne 2 3 4\n".encode())
        assert _outcome(read_snapshots, path) == _outcome(_reference_read_snapshots, path)

    @pytest.mark.parametrize("line", _EDGE_SPELLINGS)
    def test_reader_matches_per_line_reference_on_edge_spellings_in_a_block_alone(
            self, tmp_path, line):
        # the same file, read at the first block size that gives the line(s)
        # a block of their own after the header's: the block that a test of
        # the writer's spelling must refuse, or parse as the reference does
        text = f"tsbm 1 12 2\ne 1 2 3\n{line}\ne 2 3 4\n"
        path = tmp_path / "f.tsbm"
        path.write_bytes(text.encode())
        blocks, bulk_edges = [], sbm._bulk_edges

        def spy(block):
            blocks.append(block)
            return bulk_edges(block)

        for size in range(1, len(text)):
            blocks.clear()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(sbm, "_BLOCK", size)
                mp.setattr(sbm, "_bulk_edges", spy)
                got = _outcome(read_snapshots, path)
            if f"{line}\n".encode() in blocks[1:]:
                break
        assert f"{line}\n".encode() in blocks[1:]
        assert got == _outcome(_reference_read_snapshots, path)

    @pytest.mark.parametrize("text, want", [
        ("tsbm 1 3 1\n e 1 0 1\n", (3, 1, [1], None, None)),
        ("tsbm 1 3 1\n\te 1 0 1\n  e 1 1 2 5\nlabels 1 2 2\n", (3, 1, [1, 5], [1, 5], [0, 1, 1])),
        ("tsbm 1 3 1\n e 1 0 1\ne 1 0 2\n", (3, 1, [1, 2], None, None)),
    ])
    def test_reader_keeps_indented_edge_lines_after_the_header(self, tmp_path, text, want):
        # no line starts with "e": the edge lines come before any block
        path = tmp_path / "f.tsbm"
        path.write_bytes(text.encode())
        assert _outcome(read_snapshots, path) == want
        assert _outcome(_reference_read_snapshots, path) == want

    @staticmethod
    def _read_spying(path, block):
        """What ``read_snapshots`` makes of ``path`` at block size ``block``,
        and whether ``_plain_rows`` read each block after the header's."""
        plain, plain_rows = [], sbm._plain_rows

        def spy(block, starts, ends):
            rows = plain_rows(block, starts, ends)
            plain.append(rows is not None)
            return rows

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sbm, "_BLOCK", block)
            mp.setattr(sbm, "_plain_rows", spy)
            return _outcome(read_snapshots, path), plain

    def test_symbol_beyond_int64_in_a_per_line_block_after_bulk_blocks(self, tmp_path):
        lines = [f"e 1 {i} {i + 1}" for i in range(40)] + ["e\t2\t0\t1\t9223372036854775808"]
        path = tmp_path / "f.tsbm"
        path.write_bytes(("tsbm 1 50 2\n" + "\n".join(lines) + "\n").encode())
        got, plain = self._read_spying(path, 64)
        assert plain[:4] == [True] * 4 and plain[-1] is False
        assert got == (IndexRangeError, f"line 42: symbol {2**63} outside 1..{2**63 - 1}")
        assert got == _outcome(_reference_read_snapshots, path)

    def test_per_line_offence_after_a_duplicate_in_a_bulk_block(self, tmp_path):
        # the bulk block holding the repeat passes its own checks; the later
        # per-line block fails them, and the error still names line 4
        lines = ["e 1 2 3", "e 1 2 4", "e 1 2 3"] + [f"e 2 {i} {i + 1}" for i in range(40)]
        path = tmp_path / "f.tsbm"
        path.write_bytes(("tsbm 1 50 2\n" + "\n".join(lines + ["e\t1\t5\t5"]) + "\n").encode())
        got, plain = self._read_spying(path, 64)
        assert plain[:2] == [True, True] and plain[-1] is False
        assert got == (DuplicateEdgeError, "line 4: duplicate edge 1 2 3")
        assert got == _outcome(_reference_read_snapshots, path)

    @settings(max_examples=100, deadline=None)
    @given(x=st.one_of(_symmetric_arrays(1), _symmetric_arrays(4), _sparse_arrays()),
           with_labels=st.booleans(), block=st.sampled_from([8, 24, sbm._BLOCK]))
    def test_writer_matches_per_line_reference(self, tmp_path_factory, x, with_labels, block):
        tmp = tmp_path_factory.mktemp("w")
        labels = np.arange(x.shape[1]) % 3 if with_labels else None
        arr = from_dense(x, labels=labels)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sbm, "_BLOCK", block)  # 1 and 3 edge lines per block, or the default
            write_snapshots(tmp / "a.tsbm", arr)
        _reference_write_snapshots(tmp / "b.tsbm", arr)
        assert (tmp / "a.tsbm").read_bytes() == (tmp / "b.tsbm").read_bytes()
        assert _outcome(read_snapshots, tmp / "a.tsbm") == _outcome(
            _reference_read_snapshots, tmp / "a.tsbm")

    @settings(max_examples=100, deadline=None)
    @given(arr=_wide_arrays(), block=st.sampled_from([8, 24, sbm._BLOCK]))
    def test_writer_matches_per_line_reference_on_wide_numbers(self, tmp_path_factory, arr,
                                                               block):
        tmp = tmp_path_factory.mktemp("w")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sbm, "_BLOCK", block)
            write_snapshots(tmp / "a.tsbm", arr)
        _reference_write_snapshots(tmp / "b.tsbm", arr)
        assert (tmp / "a.tsbm").read_bytes() == (tmp / "b.tsbm").read_bytes()
        back = read_snapshots(tmp / "a.tsbm")
        assert back.data.tolist() == arr.data.tolist()
        want = arr.values if arr.values is not None and (arr.values > 1).any() else None
        assert (back.values is None) == (want is None)
        assert want is None or back.values.tolist() == want.tolist()
        assert (back.labels is None) == (arr.labels is None)
        assert arr.labels is None or back.labels.tolist() == arr.labels.tolist()

    @pytest.mark.parametrize("values", [None, [2**63 - 1, 1, 10**4]])
    def test_writer_memory_follows_the_edges(self, tmp_path, values):
        # a header-size tensor of 10^17 entries with three set bits: no
        # temporary of the writer grows with N or T
        N, T = 10**7, 1000
        data = [1, (500 * N + 12345) * N + N - 1, ((T - 1) * N + N - 2) * N + N - 1]
        arr = SnapshotArray(data, N, T, values=values)
        tracemalloc.start()
        try:
            write_snapshots(tmp_path / "huge.tsbm", arr)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        back = read_snapshots(tmp_path / "huge.tsbm")
        assert (back.N, back.T, back.data.tolist()) == (N, T, data)
        assert (back.values is None) == (values is None)
        assert values is None or back.values.tolist() == values
        assert peak <= 1e6

    def test_reader_peak_memory_at_the_scale_point(self, tmp_path):
        # The benchmark's scale point: N=3000, T=10, about 270k edge lines
        # (3.6 MB).  The per-line reference reader peaks at 55 MB on this
        # file; the bulk reader must not buy its speed with memory.
        arr = _scale_sample(3000, 10)
        path = tmp_path / "scale.tsbm"
        write_snapshots(path, arr)
        tracemalloc.start()
        try:
            back = read_snapshots(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.data, arr.data) and back.values is None
        assert peak <= 48e6

    def test_reader_peak_per_edge_at_the_scale_point(self, tmp_path):
        # each block's edges fold into one int64 key each, joined once: the
        # reader peaks near 16 bytes per edge.  Keeping each edge's line
        # number and three columns until the end took about 64.
        arr = _scale_sample(3000, 10)
        path = tmp_path / "scale.tsbm"
        write_snapshots(path, arr)
        tracemalloc.start()
        try:
            back = read_snapshots(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.data, arr.data) and back.values is None
        assert peak <= 24 * arr.data.size

    def test_every_writer_block_is_plain_at_the_scale_point(self, tmp_path):
        # the header is read before the blocks, so every block is parsed at
        # once: a writer change that leaves the plain spelling fails here
        arr = _scale_sample(3000, 10)
        write_snapshots(tmp_path / "scale.tsbm", arr)
        plain, plain_rows = [], sbm._plain_rows

        def spy(block, starts, ends):
            rows = plain_rows(block, starts, ends)
            plain.append(rows is not None)
            return rows

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sbm, "_plain_rows", spy)
            back = read_snapshots(tmp_path / "scale.tsbm")
        assert np.array_equal(back.data, arr.data)
        assert len(plain) > 50 and all(plain)

    def test_writer_symbol_file_is_read_in_bulk_at_the_scale_point(self, tmp_path):
        # the scale point's edges with symbols 1, 2 and 3: the writer mixes
        # 4- and 5-token lines in every block, and every block is still read
        # at once.  Reading each 5-token line alone peaked near 195 bytes per
        # edge, and every line of such a block alone near 283.
        arr = _scale_sample(3000, 10)
        arr = SnapshotArray(arr.data, 3000, 10, values=1 + arr.data % 3, labels=arr.labels)
        path = tmp_path / "symbols.tsbm"
        write_snapshots(path, arr)
        plain, plain_rows = [], sbm._plain_rows

        def spy(block, starts, ends):
            rows = plain_rows(block, starts, ends)
            plain.append(rows is not None)
            return rows

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sbm, "_plain_rows", spy)
            read_snapshots(path)
        assert len(plain) > 50 and all(plain)
        tracemalloc.start()
        try:
            back = read_snapshots(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.data, arr.data) and np.array_equal(back.values, arr.values)
        assert np.array_equal(back.labels, arr.labels)
        assert peak <= 32 * arr.data.size

    def test_tab_separated_copy_reads_line_by_line_at_the_scale_point(self, tmp_path):
        # the same file with tabs for spaces: no block is the writer's, so
        # every edge line goes through str.split and int, to the same array
        arr = _scale_sample(3000, 10)
        write_snapshots(tmp_path / "scale.tsbm", arr)
        text = (tmp_path / "scale.tsbm").read_bytes()
        (tmp_path / "tabs.tsbm").write_bytes(text.replace(b" ", b"\t"))
        plain, plain_rows = [], sbm._plain_rows

        def spy(block, starts, ends):
            rows = plain_rows(block, starts, ends)
            plain.append(rows is not None)
            return rows

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sbm, "_plain_rows", spy)
            back = read_snapshots(tmp_path / "tabs.tsbm")
        assert np.array_equal(back.data, arr.data) and back.values is None
        assert np.array_equal(back.labels, arr.labels)
        assert len(plain) > 50 and not any(plain)

    def test_tab_separated_copy_peak_per_edge_at_the_scale_point(self, tmp_path):
        # each block read line by line folds its edges into keys when it
        # ends, as a bulk block does: about 25 bytes per edge, the line
        # numbers kept beside the keys.  Holding every such edge as a Python
        # tuple until the end of the file peaked near 283.
        arr = _scale_sample(3000, 10)
        write_snapshots(tmp_path / "scale.tsbm", arr)
        text = (tmp_path / "scale.tsbm").read_bytes()
        (tmp_path / "tabs.tsbm").write_bytes(text.replace(b" ", b"\t"))
        tracemalloc.start()
        try:
            back = read_snapshots(tmp_path / "tabs.tsbm")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        want = read_snapshots(tmp_path / "scale.tsbm")
        assert (back.N, back.T, back.values, want.values) == (3000, 10, None, None)
        assert np.array_equal(back.data, want.data) and np.array_equal(back.data, arr.data)
        assert np.array_equal(back.labels, want.labels)
        assert peak <= 32 * arr.data.size

    def test_tab_separated_copy_keeps_its_lines_as_ranges(self, tmp_path):
        # a per-line block whose edge lines are consecutive keeps them as a
        # range, as a bulk block does: the writer's spelling peaks at 16.2
        # traced bytes per edge, and one int64 line number per edge more
        # took a tab-separated copy to 24.8
        arr = _scale_sample(3000, 10)
        write_snapshots(tmp_path / "scale.tsbm", arr)
        text = (tmp_path / "scale.tsbm").read_bytes()
        (tmp_path / "tabs.tsbm").write_bytes(text.replace(b" ", b"\t"))
        tracemalloc.start()
        try:
            back = read_snapshots(tmp_path / "tabs.tsbm")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.data, arr.data)
        assert peak <= 18 * arr.data.size

    def test_writer_peak_memory_at_the_scale_point(self, tmp_path):
        # Decoding all 541k indices before formatting peaked at 25.1 MB;
        # decoding them block by block peaks near 2 MB.
        arr = _scale_sample(3000, 10)
        tracemalloc.start()
        try:
            write_snapshots(tmp_path / "scale.tsbm", arr)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(read_snapshots(tmp_path / "scale.tsbm").data, arr.data)
        assert peak <= 12e6


class TestSnapshotArray:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            from_dense(np.zeros((3, 4, 5)))
        with pytest.raises(ValueError):
            SnapshotArray(np.zeros((3, 4, 4)), 4, 3)

    def test_values_and_labels_lengths_checked(self):
        with pytest.raises(ValueError, match="^values must match data in length$"):
            SnapshotArray(np.array([1, 2]), 4, 1, values=np.array([2]))
        with pytest.raises(ValueError, match="^labels length must match node count$"):
            SnapshotArray(np.array([1, 2]), 4, 1, labels=np.zeros(3))

    def test_validate_catches_asymmetry(self):
        data = np.zeros((1, 4, 4), dtype=np.uint8)
        data[0, 1, 2] = 1
        with pytest.raises(ValueError):
            from_dense(data).validate()

    def test_validate_catches_diagonal_order_and_values(self):
        with pytest.raises(ValueError, match=r"entry \(1, 1\), not i < j"):
            SnapshotArray(np.array([5]), 4, 1).validate()
        with pytest.raises(ValueError, match="strictly increasing"):
            SnapshotArray(np.array([4, 1]), 4, 1).validate()
        with pytest.raises(ValueError, match="outside"):
            SnapshotArray(np.array([1, 4, 16]), 4, 1).validate()
        with pytest.raises(ValueError, match=r"snapshot 1 lists entry \(1, 0\), not i < j"):
            SnapshotArray(np.array([1, 4]), 4, 1, values=np.array([2, 3])).validate()

    @settings(max_examples=60, deadline=None)
    @given(x=st.one_of(
        _symmetric_arrays(1), _symmetric_arrays(4),
        arrays(np.uint8, st.tuples(st.integers(1, 3), st.shared(st.integers(0, 5), key="n"),
                                   st.shared(st.integers(0, 5), key="n")),
               elements=st.integers(0, 3)),
    ))
    def test_dense_round_trip(self, x):
        upper = np.triu(x, 1)
        if not np.array_equal(x, upper + upper.transpose(0, 2, 1)):
            with pytest.raises(ValueError, match="symmetric with a zero diagonal"):
                from_dense(x)
            return
        arr = from_dense(x)
        assert np.array_equal(arr.data, np.flatnonzero(upper))
        assert np.array_equal(dense_tensor(arr), x)
        assert dense_tensor(arr).dtype == (np.int64 if x.max(initial=0) > 1 else np.uint8)
        for t in range(arr.T):
            assert np.array_equal(arr.snapshot(t), np.flatnonzero(upper[t]))

    def test_snapshot_index_must_name_a_snapshot(self):
        data = np.zeros((3, 4, 4), dtype=np.uint8)
        data[2, 0, 1] = data[2, 1, 0] = 1
        arr = from_dense(data)
        assert arr.snapshot(np.int64(2)).tolist() == [1]
        for t in (3, -1):
            with pytest.raises(IndexError, match=r"snapshot -?\d outside 0\.\.2"):
                arr.snapshot(t)
        with pytest.raises(TypeError):
            arr.snapshot(1.5)

    def test_sampler_matches_the_dense_form(self):
        ch = chain_from_stationary(0.2, 0.6)
        arr = sample_markov_snapshots(sample_labelling(30, 2, seed=1), ch, ch, 4, seed=2)
        arr.validate()
        assert np.array_equal(arr.data, np.flatnonzero(np.triu(dense_tensor(arr), 1)))
        assert np.array_equal(from_dense(dense_tensor(arr)).data, arr.data)
