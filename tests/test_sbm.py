"""Unit tests for data generation and snapshot file I/O."""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tsbm import sbm
from tsbm._rng import counter_uniform
from tsbm.divergence import FiniteDistribution
from tsbm.markov import BinaryMarkovChain, chain_from_stationary
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

    def test_degenerate_weight_on_first_block(self):
        assert set(sample_labelling(50, 2, weights=[1, 0], seed=1).tolist()) == {0}

    def test_bad_weights(self):
        with pytest.raises(ValueError):
            sample_labelling(10, 2, weights=[0.0, 0.0])
        with pytest.raises(ValueError):
            sample_labelling(10, 2, weights=[1.0, -0.5])

    def test_balanced(self):
        lab = balanced_labelling(10, 3)
        assert np.bincount(lab).tolist() in ([4, 3, 3], [3, 3, 4], [3, 4, 3])


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
        assert np.array_equal(a.dense(), b.dense())

    def test_transition_frequencies(self):
        ch = BinaryMarkovChain(0.4, 0.3, 0.6)
        arr = sample_markov_snapshots(sample_labelling(100, 2, seed=2), ch, ch, 100, seed=7)
        x = arr.dense()
        prev, cur = x[:-1], x[1:]
        p01_hat = ((prev == 0) & (cur == 1)).sum() / (prev == 0).sum()
        p11_hat = ((prev == 1) & (cur == 1)).sum() / (prev == 1).sum()
        assert abs(p01_hat - 0.3) <= 0.02
        assert abs(p11_hat - 0.6) <= 0.02

    def test_all_zero_chain(self):
        silent = BinaryMarkovChain(0.0, 0.0, 0.5)
        noisy = BinaryMarkovChain(0.5, 0.5, 0.5)
        lab = np.array([0] * 10 + [1] * 10)
        arr = sample_markov_snapshots(lab, silent, noisy, 8, seed=3)
        intra_block = arr.dense()[:, :10, :10]
        assert intra_block.sum() == 0
        assert arr.dense().sum() > 0

    def test_stationary_marginal(self):
        st = chain_from_stationary(0.25, 0.7)
        arr = sample_markov_snapshots(sample_labelling(80, 2, seed=3), st, st, 50, seed=11)
        iu, ju = np.triu_indices(80, 1)
        vals = arr.dense()[:, iu, ju]
        per_snapshot = vals.mean(axis=1)
        se = 3 * math.sqrt(0.25 * 0.75 / vals.shape[1])
        # averaged over snapshots; allow serial correlation slack
        assert abs(per_snapshot.mean() - 0.25) <= 3 * se

    def test_pair_independence(self):
        ch = BinaryMarkovChain(0.4, 0.3, 0.6)
        lab = sample_labelling(18, 2, seed=6)
        arr = sample_markov_snapshots(lab, ch, ch, 2000, seed=13)
        iu, ju = np.triu_indices(18, 1)
        pats = arr.dense()[:, iu, ju].astype(float)
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


_probability = st.floats(0.0, 1.0)
_chains = st.builds(BinaryMarkovChain, _probability, _probability, _probability)


class TestChunkedSampler:
    @settings(max_examples=60, deadline=None)
    @given(
        labels=st.lists(st.integers(0, 2), max_size=11).map(np.array),
        intra=_chains,
        inter=_chains,
        T=st.integers(1, 4),
        seed=st.integers(0, 2**64 - 1),
        chunk=st.sampled_from([1, 2, 5, 7, 64, 1 << 15]),
    )
    def test_matches_per_pair_reference(self, labels, intra, inter, T, seed, chunk):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sbm, "_CHUNK_PAIRS", chunk)
            got = sample_markov_snapshots(labels, intra, inter, T, seed=seed)
        want = _reference_markov(labels, intra, inter, T, seed)
        assert got.dense().dtype == np.uint8 and got.values is None
        assert np.array_equal(got.dense(), want)
        assert np.array_equal(got.data, np.flatnonzero(want))


class TestCategoricalSampling:
    def test_point_mass(self):
        f = FiniteDistribution.point_mass(0, 3)
        lab = sample_labelling(20, 2, seed=0)
        arr = sample_categorical_snapshots(lab, f, f, seed=1)
        assert arr.dense().sum() == 0

    def test_single_block_uses_intra(self):
        f = FiniteDistribution([0.0, 1.0])
        g = FiniteDistribution([1.0, 0.0])
        lab = np.zeros(12, dtype=np.int64)
        arr = sample_categorical_snapshots(lab, f, g, seed=2)
        iu, ju = np.triu_indices(12, 1)
        assert (arr.dense()[0, iu, ju] == 1).all()

    def test_symbol_frequencies(self):
        f = FiniteDistribution([0.5, 0.3, 0.2])
        g = FiniteDistribution([0.2, 0.3, 0.5])
        lab = sample_labelling(200, 2, seed=4)
        arr = sample_categorical_snapshots(lab, f, g, seed=5)
        iu, ju = np.triu_indices(200, 1)
        same = lab[iu] == lab[ju]
        vals = arr.dense()[0, iu, ju]
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
        assert np.array_equal(back.dense(), arr.dense())
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
        assert np.array_equal(read_snapshots(path).dense(), arr.dense())

    def test_empty_graph(self, tmp_path):
        path = tmp_path / "e.tsbm"
        path.write_text("# empty graph\ntsbm 1 5 3\n")
        arr = read_snapshots(path)
        assert arr.N == 5 and arr.T == 3
        assert arr.dense().sum() == 0

    def test_line_count(self, tmp_path):
        ch = chain_from_stationary(0.2, 0.5)
        arr = sample_markov_snapshots(sample_labelling(20, 2, seed=5), ch, ch, 4, seed=6)
        path = tmp_path / "n.tsbm"
        write_snapshots(path, arr)
        bits = sum(int(np.triu(arr.dense()[t], 1).sum()) for t in range(arr.T))
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
        write_snapshots(tmp / "a.tsbm", SnapshotArray.from_dense(data, labels=labels))
        back = read_snapshots(tmp / "a.tsbm")
        assert back.dense().dtype == (np.int64 if data.max(initial=0) > 1 else np.uint8)
        assert np.array_equal(back.dense(), data)
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
            assert back.dense().dtype == (np.int64 if want.max() > 1 else np.uint8)
            assert np.array_equal(back.dense(), want)
        else:
            error, message = expected
            with pytest.raises(SnapshotFormatError) as exc:
                read_snapshots(path)
            assert type(exc.value) is error
            assert str(exc.value) == message


class TestSnapshotArray:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SnapshotArray.from_dense(np.zeros((3, 4, 5)))
        with pytest.raises(ValueError):
            SnapshotArray(np.zeros((3, 4, 4)), 4, 3)

    def test_validate_catches_asymmetry(self):
        data = np.zeros((1, 4, 4), dtype=np.uint8)
        data[0, 1, 2] = 1
        with pytest.raises(ValueError):
            SnapshotArray.from_dense(data).validate()

    def test_validate_catches_diagonal_order_and_values(self):
        with pytest.raises(ValueError, match="nonzero diagonal"):
            SnapshotArray(np.array([5]), 4, 1).validate()
        with pytest.raises(ValueError, match="strictly increasing"):
            SnapshotArray(np.array([4, 1]), 4, 1).validate()
        with pytest.raises(ValueError, match="outside"):
            SnapshotArray(np.array([1, 4, 16]), 4, 1).validate()
        with pytest.raises(ValueError, match="snapshot 1 is not symmetric"):
            SnapshotArray(np.array([1, 4]), 4, 1, values=np.array([2, 3])).validate()

    @settings(max_examples=60, deadline=None)
    @given(x=st.one_of(
        _symmetric_arrays(1), _symmetric_arrays(4),
        arrays(np.uint8, st.tuples(st.integers(1, 3), st.shared(st.integers(0, 5), key="n"),
                                   st.shared(st.integers(0, 5), key="n")),
               elements=st.integers(0, 3)),
    ))
    def test_dense_round_trip(self, x):
        arr = SnapshotArray.from_dense(x)
        assert np.array_equal(arr.data, np.flatnonzero(x))
        assert np.array_equal(arr.dense(), x)
        assert arr.dense().dtype == (np.int64 if x.max(initial=0) > 1 else np.uint8)
        for t in range(arr.T):
            assert np.array_equal(arr.snapshot(t), np.flatnonzero(x[t]))

    def test_sampler_matches_the_dense_form(self):
        ch = chain_from_stationary(0.2, 0.6)
        arr = sample_markov_snapshots(sample_labelling(30, 2, seed=1), ch, ch, 4, seed=2)
        arr.validate()
        assert np.array_equal(arr.data, np.flatnonzero(arr.dense()))
        assert np.array_equal(SnapshotArray.from_dense(arr.dense()).data, arr.data)
