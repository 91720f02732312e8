"""Unit tests for the recovery algorithms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tsbm.divergence import FiniteDistribution
from tsbm.markov import BinaryMarkovChain, chain_from_stationary
from tsbm.metrics import accuracy, ham_star
from tsbm.recovery import (
    LOG_RATIO_SATURATION,
    CategoricalKernel,
    MarkovKernel,
    OnlineLikelihood,
    OnlineLikelihoodLearned,
    connected_components,
    enemy_paths,
    mle_brute_force,
    persistent_components,
    refine_recover,
    transition_rate_clustering,
    _sat_log_ratio,
)
from tsbm.harness import chains_in_units
from tsbm.sbm import (
    SnapshotArray,
    sample_categorical_snapshots,
    sample_labelling,
    sample_markov_snapshots,
)
from tsbm.spectral import SpectralConfig
from tsbm._rng import derive_seed


INTRA = chain_from_stationary(0.35, 0.6)
INTER = chain_from_stationary(0.08, 0.3)


def markov_instance(n, t, seed, intra=INTRA, inter=INTER):
    labels = sample_labelling(n, 2, seed=derive_seed(seed, 1))
    arr = sample_markov_snapshots(labels, intra, inter, t, seed=derive_seed(seed, 2))
    return labels, arr


class TestKernels:
    def test_markov_log_ratio_matches_path_probs(self):
        labels, arr = markov_instance(25, 6, 0)
        ratio = MarkovKernel(INTRA).log_ratio_matrix(arr, MarkovKernel(INTER))
        iu, ju = np.triu_indices(25, 1)
        pats = arr.dense()[:, iu, ju].T
        want = INTRA.path_log_prob(pats) - INTER.path_log_prob(pats)
        assert np.allclose(ratio[iu, ju], want, atol=1e-10)
        assert np.allclose(ratio, ratio.T)
        assert np.all(np.diagonal(ratio) == 0)

    def test_saturation_on_boundary_parameters(self):
        static = BinaryMarkovChain(1.0, 0.0, 1.0)
        noisy = BinaryMarkovChain(0.5, 0.5, 0.5)
        labels, arr = markov_instance(20, 5, 1, intra=static, inter=noisy)
        ratio = MarkovKernel(static).log_ratio_matrix(arr, MarkovKernel(noisy))
        assert np.isfinite(ratio).all()
        assert np.abs(ratio).max() <= 700.0

    def test_categorical_kernel(self):
        f = FiniteDistribution([0.2, 0.8])
        g = FiniteDistribution([0.7, 0.3])
        labels = sample_labelling(15, 2, seed=2)
        arr = sample_categorical_snapshots(labels, f, g, seed=3)
        ratio = CategoricalKernel(f).log_ratio_matrix(arr, CategoricalKernel(g))
        lr = np.log(f.probs) - np.log(g.probs)
        iu, ju = np.triu_indices(15, 1)
        assert np.allclose(ratio[iu, ju], lr[arr.dense()[0, iu, ju]])


class TestRefineRecover:
    def test_noiseless_separable(self):
        ones = BinaryMarkovChain(1.0, 0.0, 1.0)
        zeros = BinaryMarkovChain(0.0, 0.0, 0.0)
        labels = sample_labelling(40, 2, seed=3)
        arr = sample_markov_snapshots(labels, ones, zeros, 4, seed=4)
        for mode in ("fast", "loo"):
            got = refine_recover(
                arr, MarkovKernel(ones), MarkovKernel(zeros), 2,
                SpectralConfig(K=2, seed=0), mode=mode,
            )
            assert accuracy(labels, got) == 1.0

    def test_single_block(self):
        labels, arr = markov_instance(12, 3, 4)
        got = refine_recover(arr, MarkovKernel(INTRA), MarkovKernel(INTER), 1)
        assert np.array_equal(got, np.zeros(12, dtype=np.int64))

    def test_loo_mode_strong_signal(self):
        for seed in range(3):
            labels, arr = markov_instance(60, 6, 10 + seed)
            got = refine_recover(
                arr, MarkovKernel(INTRA), MarkovKernel(INTER), 2,
                SpectralConfig(K=2, seed=seed), mode="loo",
            )
            assert accuracy(labels, got) == 1.0

    def test_refinement_does_not_hurt_on_average(self):
        from tsbm.spectral import binarize, spectral_cluster

        n = 500
        rho = math.log(n) / n
        intra = chain_from_stationary(4.0 * rho, 0.7)
        inter = chain_from_stationary(1.5 * rho, 0.3)
        init_acc, refined_acc = [], []
        for seed in range(20):
            labels = sample_labelling(n, 2, seed=1000 + seed)
            arr = sample_markov_snapshots(labels, intra, inter, 8, seed=2000 + seed)
            cfg = SpectralConfig(K=2, seed=seed)
            init_acc.append(accuracy(labels, spectral_cluster(binarize(arr), cfg)))
            refined_acc.append(
                accuracy(
                    labels,
                    refine_recover(
                        arr, MarkovKernel(intra), MarkovKernel(inter), 2, cfg, mode="fast"
                    ),
                )
            )
        assert np.mean(refined_acc) >= np.mean(init_acc)


class TestOnlineLikelihood:
    def test_zero_information_keeps_labels(self):
        ch = BinaryMarkovChain(0.3, 0.2, 0.6)
        labels, arr = markov_instance(30, 6, 5, intra=ch, inter=ch)
        init = sample_labelling(30, 2, seed=77)
        state = OnlineLikelihood(arr.snapshot(0), init, ch, ch, 2)
        state.run(arr)
        assert np.abs(state.ratio.dense()).max() == 0.0
        assert np.array_equal(state.labels, init)

    def test_truth_init_is_stable_under_strong_signal(self):
        labels, arr = markov_instance(60, 8, 6)
        state = OnlineLikelihood(arr.snapshot(0), labels, INTRA, INTER, 2)
        state.run(arr)
        assert np.array_equal(state.labels, labels)

    def test_replay_purity(self):
        labels, arr = markov_instance(40, 7, 7)
        init = sample_labelling(40, 2, seed=9)
        m_hist, l_hist = [], []
        for _ in range(2):
            state = OnlineLikelihood(arr.snapshot(0), init, INTRA, INTER, 2)
            ms, ls = [state.ratio.dense()], [state.labels.copy()]
            for t in range(1, arr.T):
                state.step(arr.snapshot(t))
                ms.append(state.ratio.dense())
                ls.append(state.labels.copy())
            m_hist.append(ms)
            l_hist.append(ls)
        for a, b in zip(*m_hist):
            assert np.array_equal(a, b)
        for a, b in zip(*l_hist):
            assert np.array_equal(a, b)

    def test_matrix_invariants_preserved(self):
        labels, arr = markov_instance(30, 6, 8)
        state = OnlineLikelihood(arr.snapshot(0), labels, INTRA, INTER, 2)
        for t in range(1, arr.T):
            state.step(arr.snapshot(t))
            M = state.ratio.dense()
            assert np.array_equal(M, M.T)
            assert np.all(np.diagonal(M) == 0.0)

    def test_cumulative_matrix_equals_full_pattern_ratio(self):
        # after consuming all snapshots, M is the per-pair log ratio of the
        # whole pattern, so each decision equals the single-node estimator
        labels, arr = markov_instance(35, 9, 9)
        state = OnlineLikelihood(arr.snapshot(0), labels, INTRA, INTER, 2)
        state.run(arr)
        want = MarkovKernel(INTRA).log_ratio_matrix(arr, MarkovKernel(INTER))
        assert np.allclose(state.ratio.dense(), want, atol=1e-9)

    def test_async_variant_runs(self):
        labels, arr = markov_instance(30, 6, 10)
        init = sample_labelling(30, 2, seed=11)
        state = OnlineLikelihood(arr.snapshot(0), init, INTRA, INTER, 2, synchronous=False)
        state.run(arr)
        assert accuracy(labels, state.labels) >= 0.9


class TestOnlineLikelihoodLearned:
    def test_transition_counter_hand_example(self):
        n = 4
        pattern = [0, 0, 1, 1, 0]
        data = np.zeros((5, n, n), dtype=np.uint8)
        for t, bit in enumerate(pattern):
            data[t, 0, 1] = data[t, 1, 0] = bit
        state = OnlineLikelihoodLearned(np.flatnonzero(data[0]), np.array([0, 0, 1, 1]), 2)
        for t in range(1, 5):
            state.step(np.flatnonzero(data[t]))
        packed = _packed_counts(state)
        counts = {ab: int(packed[ab][0]) for ab in range(4)}  # pair (0, 1) packs first
        assert counts == {0: 1, 1: 1, 2: 1, 3: 1}  # 00, 01, 10, 11
        n0 = counts[0] + counts[1]
        n1 = counts[2] + counts[3]
        assert counts[1] / n0 == 0.5 and counts[2] / n1 == 0.5

    def test_counter_total_invariant(self):
        labels, arr = markov_instance(25, 8, 12)
        state = OnlineLikelihoodLearned(arr.snapshot(0), labels, 2)
        for t in range(1, arr.T):
            state.step(arr.snapshot(t))
            packed = _packed_counts(state)
            totals = sum(packed[ab] for ab in range(4))
            assert totals.shape == (25 * 24 // 2,)
            assert (totals == state.t - 1).all()

    def test_estimates_converge_with_oracle_init(self):
        intra = BinaryMarkovChain(0.45, 0.25, 0.65)
        inter = BinaryMarkovChain(0.30, 0.40, 0.20)
        errors = []
        for seed in range(3):
            labels = sample_labelling(100, 2, seed=seed)
            arr = sample_markov_snapshots(labels, intra, inter, 200, seed=100 + seed)
            state = OnlineLikelihoodLearned(arr.snapshot(0), labels, 2)
            state.run(arr)
            assert accuracy(labels, state.labels) >= 0.99
            errors.append(
                max(
                    np.abs(state.P_hat - intra.transition).max(),
                    np.abs(state.Q_hat - inter.transition).max(),
                )
            )
        assert max(errors) <= 0.02

    def test_refresh_knob(self):
        labels, arr = markov_instance(30, 8, 13)
        state = OnlineLikelihoodLearned(arr.snapshot(0), labels, 2, refresh_every=4)
        p_first = state.P_hat.copy()
        state.step(arr.snapshot(1))
        assert np.array_equal(state.P_hat, p_first)  # no refresh yet


# ---------------------------------------------------------------------------
# Dense references: the online step with a dense N x N matrix M, as the
# library computed it before the sparse state; the sparse state must match
# them (M bit for bit, labels up to near-ties of the dense scores).
# ---------------------------------------------------------------------------


def _one_hot(labels, K):
    out = np.zeros((labels.size, K))
    out[np.arange(labels.size), labels] = 1.0
    return out


def _relabel_sweep(M, labels, K, synchronous=True):
    """One relabeling pass: each node moves to the block maximising its
    accumulated log-likelihood ratio sum.  Ties keep the current label,
    then fall to the lowest index.  Synchronous sweeps score every node
    against the labelling frozen at entry; the asynchronous variant reads
    in-place updates in node order."""
    n = labels.size
    if synchronous:
        L = M @ _one_hot(labels, K)
        best = L.argmax(axis=1).astype(np.int64)
        keep = L[np.arange(n), labels] >= L[np.arange(n), best]
        return np.where(keep, labels, best)
    out = labels.copy()
    for i in range(n):
        scores = M[i] @ _one_hot(out, K)
        best = int(np.argmax(scores))
        if scores[out[i]] < scores[best]:
            out[i] = best
    return out


class _DenseOnline:
    """Reference for OnlineLikelihood: the dense ``M`` and sweep."""

    def __init__(self, first_snapshot, init_labels, intra, inter, K, synchronous=True):
        x = np.asarray(first_snapshot)
        self.K = K
        self.synchronous = synchronous
        self.labels = np.asarray(init_labels, dtype=np.int64).copy()
        l_init = _sat_log_ratio(intra.mu, inter.mu)
        self._delta = _sat_log_ratio(intra.transition, inter.transition).ravel()
        self.M = l_init[x].astype(np.float64)
        np.fill_diagonal(self.M, 0.0)
        self._prev = x.copy()
        self.t = 1

    def step(self, snapshot):
        x = np.asarray(snapshot)
        delta = self._delta[2 * self._prev + x]
        np.fill_diagonal(delta, 0.0)
        self.M += delta
        np.clip(self.M, -LOG_RATIO_SATURATION, LOG_RATIO_SATURATION, out=self.M)
        self.labels = _relabel_sweep(self.M, self.labels, self.K, self.synchronous)
        self._prev = x.copy()
        self.t += 1


class _DenseLearned:
    """Reference learner: a dense ``(4, N, N)`` counter and masked means
    over upper-triangle gathers, the direct form of the sparse counter and
    binned estimator."""

    def __init__(self, first_snapshot, init_labels, K, refresh_every=1, synchronous=True):
        x = np.asarray(first_snapshot)
        n = x.shape[0]
        self.K, self.refresh_every, self.synchronous = K, refresh_every, synchronous
        self.labels = np.asarray(init_labels, dtype=np.int64).copy()
        self._iu = np.triu_indices(n, k=1)
        same = self.labels[self._iu[0]] == self.labels[self._iu[1]]
        vals = x[self._iu]
        mu1 = float(vals[same].mean()) if same.any() else 0.5
        nu1 = float(vals[~same].mean()) if (~same).any() else 0.5
        self.P_hat = np.array([[1 - mu1, mu1]] * 2)
        self.Q_hat = np.array([[1 - nu1, nu1]] * 2)
        l_init = _sat_log_ratio(np.array([1 - mu1, mu1]), np.array([1 - nu1, nu1]))
        self.M = l_init[x].astype(np.float64)
        np.fill_diagonal(self.M, 0.0)
        self.counts = np.zeros((4, n, n), dtype=np.uint32)
        self._prev = x.copy()
        self.t = 1

    def step(self, snapshot):
        x = np.asarray(snapshot)
        idx = 2 * self._prev + x
        delta = _sat_log_ratio(self.P_hat, self.Q_hat).ravel()[idx]
        np.fill_diagonal(delta, 0.0)
        self.M += delta
        np.clip(self.M, -LOG_RATIO_SATURATION, LOG_RATIO_SATURATION, out=self.M)
        self.labels = _relabel_sweep(self.M, self.labels, self.K, self.synchronous)
        for ab in range(4):
            self.counts[ab] += idx == ab
        self._prev = x.copy()
        self.t += 1
        if (self.t - 1) % self.refresh_every == 0:
            self._reestimate()

    def _reestimate(self):
        iu = self._iu
        same = self.labels[iu[0]] == self.labels[iu[1]]
        for a in (0, 1):
            n_a = (self.counts[2 * a] + self.counts[2 * a + 1])[iu].astype(np.float64)
            n_a1 = self.counts[2 * a + 1][iu].astype(np.float64)
            with np.errstate(invalid="ignore", divide="ignore"):
                ratio = n_a1 / n_a
            ok = n_a > 0
            if (ok & same).any():
                p = float(ratio[ok & same].mean())
                self.P_hat[a] = (1 - p, p)
            if (ok & ~same).any():
                q = float(ratio[ok & ~same].mean())
                self.Q_hat[a] = (1 - q, q)


def _packed_counts(state):
    """A learner's transition counts as a ``(4, P)`` array over the pairs
    ``i < j`` in row-major order; pairs that never interacted have made
    ``t - 1`` transitions 0 -> 0."""
    n = state.labels.size
    iu, ju = np.triu_indices(n, k=1)
    out = np.zeros((4, iu.size), dtype=np.uint32)
    out[0] = state.t - 1
    active = np.searchsorted(iu * n + ju, state.ratio.keys)
    out[1:, active] = state.ratio.counts.T
    out[0, active] -= state.ratio.counts.sum(axis=1, dtype=np.uint32)
    return out


def _check_sweep(M, before, got, K, synchronous):
    """Replays the dense sweep of ``M`` from ``before`` and requires ``got``
    to take the dense decision at every node, except where the scores of
    the two choices tie to 1e-12 of the node's absolute row sum of ``M``;
    there the replay follows ``got``.  Returns the number of such nodes."""
    out = before.copy()
    frozen = M @ _one_hot(before, K)
    ties = 0
    for i in range(before.size):
        scores = frozen[i] if synchronous else M[i] @ _one_hot(out, K)
        best = int(np.argmax(scores))
        want = out[i] if scores[out[i]] >= scores[best] else best
        if got[i] != want:
            gap = abs(scores[got[i]] - scores[want])
            assert gap <= 1e-12 * np.abs(M[i]).sum(), (i, scores, got[i], want)
            ties += 1
        out[i] = got[i]
    return ties


_chain_probability = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
_any_chain = st.builds(BinaryMarkovChain, _chain_probability, _chain_probability,
                       _chain_probability)


@st.composite
def _online_runs(draw):
    """Random symmetric binary snapshots, labels, K and sweep mode."""
    n, T, K = draw(st.integers(2, 40)), draw(st.integers(1, 8)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.05, 0.3, 0.8]))
    upper = np.triu(rng.random((T, n, n)) < density, 1).astype(np.uint8)
    labels = rng.integers(0, K, n)
    return upper + upper.transpose(0, 2, 1), labels, K, draw(st.booleans())


class TestSparseOnlineMatchesDense:
    @settings(max_examples=120, deadline=None)
    @given(run=_online_runs(), intra=_any_chain, inter=_any_chain,
           learned=st.booleans(), refresh=st.integers(1, 3))
    def test_bit_identical_M_and_labels(self, run, intra, inter, learned, refresh):
        # the reference is resynced to the sparse labels (and estimates)
        # before each step, so one near-tie cannot fork the two runs
        data, labels, K, synchronous = run
        if learned:
            state = OnlineLikelihoodLearned(np.flatnonzero(data[0]), labels, K,
                                            refresh_every=refresh, synchronous=synchronous)
            ref = _DenseLearned(data[0], labels, K, refresh_every=refresh,
                                synchronous=synchronous)
            assert np.array_equal(state.P_hat, ref.P_hat)
            assert np.array_equal(state.Q_hat, ref.Q_hat)
        else:
            state = OnlineLikelihood(np.flatnonzero(data[0]), labels, intra, inter, K,
                                     synchronous=synchronous)
            ref = _DenseOnline(data[0], labels, intra, inter, K, synchronous=synchronous)
        assert np.array_equal(state.ratio.dense(), ref.M)
        for t in range(1, data.shape[0]):
            before = state.labels.copy()
            ref.labels = before.copy()
            if learned:
                ref.P_hat, ref.Q_hat = state.P_hat.copy(), state.Q_hat.copy()
            state.step(np.flatnonzero(data[t]))
            ref.step(data[t])
            assert np.array_equal(state.ratio.dense(), ref.M)
            if _check_sweep(ref.M, before, state.labels, K, synchronous) == 0:
                assert np.array_equal(state.labels, ref.labels)
            if learned:
                iu = np.triu_indices(data.shape[1], 1)
                assert np.array_equal(_packed_counts(state), ref.counts[:, iu[0], iu[1]])
                if np.array_equal(state.labels, ref.labels):
                    assert np.abs(state.P_hat - ref.P_hat).max() <= 1e-14
                    assert np.abs(state.Q_hat - ref.Q_hat).max() <= 1e-14

    @pytest.mark.parametrize("n,seed", [(300, 0), (1000, 1), (3000, 2)])
    def test_scale_pipeline_chain_labels_identical(self, n, seed):
        # the benchmark's scale-pipeline chain, from a random start, with no
        # resyncing: every step's labels and M equal the dense run's
        intra, inter = chains_in_units(n, 3.0, 1.5, 0.7, 0.3)
        _, arr = markov_instance(n, 10, 70 + seed, intra=intra, inter=inter)
        init = sample_labelling(n, 2, seed=80 + seed)
        state = OnlineLikelihood(arr.snapshot(0), init, intra, inter, 2)
        dense = arr.dense()
        ref = _DenseOnline(dense[0], init, intra, inter, 2)
        moved = 0
        for t in range(1, arr.T):
            before = state.labels
            state.step(arr.snapshot(t))
            ref.step(dense[t])
            moved += int((state.labels != before).sum())
            assert np.array_equal(state.labels, ref.labels)
            assert np.array_equal(state.ratio.dense(), ref.M)
        assert moved > 0


@st.composite
def _binary_runs(draw):
    """Symmetric binary snapshots with a random labelling and refresh period."""
    n, T = draw(st.integers(1, 9)), draw(st.integers(2, 12))
    bits = np.triu(draw(arrays(np.uint8, (T, n, n), elements=st.integers(0, 1))), 1)
    labels = draw(arrays(np.int64, n, elements=st.integers(0, 1)))
    return bits + bits.transpose(0, 2, 1), labels, draw(st.integers(1, 4))


class TestPackedCounts:
    @settings(max_examples=150, deadline=None)
    @given(run=_binary_runs())
    def test_estimates_match_dense_reference(self, run):
        # each step starts the reference from the sparse learner's M, labels
        # and estimates, so one differently broken tie cannot fork the two
        # runs; the counts accumulate independently on both sides
        data, labels, refresh = run
        state = OnlineLikelihoodLearned(np.flatnonzero(data[0]), labels, 2,
                                        refresh_every=refresh)
        ref = _DenseLearned(data[0], labels, 2, refresh_every=refresh)
        assert np.array_equal(state.P_hat, ref.P_hat) and np.array_equal(state.Q_hat, ref.Q_hat)
        iu = np.triu_indices(data.shape[1], 1)
        for t in range(1, data.shape[0]):
            ref.M, ref.labels = state.ratio.dense(), state.labels.copy()
            ref.P_hat, ref.Q_hat = state.P_hat.copy(), state.Q_hat.copy()
            state.step(np.flatnonzero(data[t]))
            ref.step(data[t])
            assert np.array_equal(state.labels, ref.labels)
            assert np.array_equal(_packed_counts(state), ref.counts[:, iu[0], iu[1]])
            assert np.abs(state.P_hat - ref.P_hat).max() <= 1e-14
            assert np.abs(state.Q_hat - ref.Q_hat).max() <= 1e-14

    @pytest.mark.parametrize("n,seed", [(60, 0), (150, 1), (300, 2)])
    def test_labels_match_dense_reference(self, n, seed):
        intra = chain_from_stationary(0.1, 0.6)
        inter = chain_from_stationary(0.06, 0.3)
        labels, arr = markov_instance(n, 15, 40 + seed, intra=intra, inter=inter)
        init = sample_labelling(n, 2, seed=50 + seed)
        state = OnlineLikelihoodLearned(arr.snapshot(0), init, 2)
        dense = arr.dense()
        ref = _DenseLearned(dense[0], init, 2)
        moved = 0
        for t in range(1, arr.T):
            before = state.labels
            state.step(arr.snapshot(t))
            ref.step(dense[t])
            moved += int((state.labels != before).sum())
            assert np.array_equal(state.labels, ref.labels)
            assert np.abs(state.P_hat - ref.P_hat).max() <= 1e-14
            assert np.abs(state.Q_hat - ref.Q_hat).max() <= 1e-14
        assert moved > 0  # the labels changed, so the block relations were redone


class TestTransitionRates:
    def test_requires_distinct_matrices(self):
        arr = sample_markov_snapshots(np.zeros(4, dtype=int), INTRA, INTRA, 5, seed=0)
        with pytest.raises(ValueError):
            transition_rate_clustering(arr, INTRA.transition, INTRA.transition)

    def test_needs_two_snapshots(self):
        arr = sample_markov_snapshots(np.zeros(4, dtype=int), INTRA, INTER, 1, seed=0)
        with pytest.raises(ValueError):
            transition_rate_clustering(arr, INTRA.transition, INTER.transition)

    def test_long_horizon_exact(self):
        intra = BinaryMarkovChain(0.5, 0.2, 0.8)
        inter = BinaryMarkovChain(0.5, 0.6, 0.3)
        for seed in range(20):
            labels = sample_labelling(8, 2, seed=seed)
            arr = sample_markov_snapshots(labels, intra, inter, 2000, seed=50 + seed)
            got, k_hat = transition_rate_clustering(arr, intra.transition, inter.transition)
            assert k_hat == labels.max() + 1
            assert accuracy(labels, got) == 1.0

    def test_single_node(self):
        arr = sample_markov_snapshots(np.zeros(1, dtype=int), INTRA, INTER, 5, seed=0)
        labels, k_hat = transition_rate_clustering(arr, INTRA.transition, INTER.transition)
        assert k_hat == 1 and labels.tolist() == [0]


class TestPersistentComponents:
    def test_all_zero_array(self):
        data = np.zeros((4, 10, 10), dtype=np.uint8)
        labels, k_hat = persistent_components(SnapshotArray.from_dense(data))
        assert k_hat == 0
        assert set(labels.tolist()) == {0}

    def test_static_intra_instance(self):
        ones = BinaryMarkovChain(1.0, 0.0, 1.0)
        noise = BinaryMarkovChain(0.3, 0.3, 0.3)
        for seed in range(5):
            labels = sample_labelling(200, 2, seed=seed)
            arr = sample_markov_snapshots(labels, ones, noise, 20, seed=seed + 5)
            got, k_hat = persistent_components(arr)
            assert k_hat == 2
            assert accuracy(labels, got) == 1.0

    def test_permutation_equivariance(self):
        ones = BinaryMarkovChain(1.0, 0.0, 1.0)
        noise = BinaryMarkovChain(0.3, 0.3, 0.3)
        labels = sample_labelling(50, 2, seed=1)
        arr = sample_markov_snapshots(labels, ones, noise, 10, seed=2)
        perm = np.random.default_rng(3).permutation(50)
        moved = SnapshotArray.from_dense(arr.dense()[:, perm][:, :, perm])
        base, _ = persistent_components(arr)
        shuffled, _ = persistent_components(moved)
        assert ham_star(shuffled, base[perm])[0] == 0


class TestEnemyPaths:
    def test_static_data_gives_singletons(self):
        data = np.zeros((5, 8, 8), dtype=np.uint8)
        data[:, 0, 1] = data[:, 1, 0] = 1  # constant pattern, never an enemy
        labels, k_hat = enemy_paths(SnapshotArray.from_dense(data))
        assert k_hat == 8

    def test_recovers_two_blocks(self):
        ones = BinaryMarkovChain(1.0, 0.0, 1.0)
        noise = BinaryMarkovChain(0.3, 0.3, 0.3)
        for seed in range(5):
            labels = sample_labelling(200, 2, seed=seed)
            arr = sample_markov_snapshots(labels, ones, noise, 20, seed=seed + 9)
            got, k_hat = enemy_paths(arr)
            assert k_hat == 2
            assert accuracy(labels, got) == 1.0

    def test_near_static_intra_fails(self):
        near = BinaryMarkovChain(1.0, 0.0, 0.99)
        noise = BinaryMarkovChain(0.3, 0.3, 0.3)
        accs = []
        for seed in range(10):
            labels = sample_labelling(200, 2, seed=seed)
            arr = sample_markov_snapshots(labels, near, noise, 20, seed=seed + 31)
            got, _ = enemy_paths(arr)
            accs.append(accuracy(labels, got))
        assert np.mean(accs) <= 0.6

    def test_permutation_equivariance(self):
        ones = BinaryMarkovChain(1.0, 0.0, 1.0)
        noise = BinaryMarkovChain(0.3, 0.3, 0.3)
        labels = sample_labelling(60, 2, seed=4)
        arr = sample_markov_snapshots(labels, ones, noise, 12, seed=5)
        perm = np.random.default_rng(6).permutation(60)
        moved = SnapshotArray.from_dense(arr.dense()[:, perm][:, :, perm])
        base, _ = enemy_paths(arr)
        shuffled, _ = enemy_paths(moved)
        assert ham_star(shuffled, base[perm])[0] == 0


def _dfs_components(adj_bool):
    """Reference: depth-first components numbered by smallest node."""
    a = np.asarray(adj_bool, dtype=bool)
    n = a.shape[0]
    labels = np.full(n, -1, dtype=np.int64)
    comp = 0
    for start in range(n):
        if labels[start] >= 0:
            continue
        stack = [start]
        labels[start] = comp
        while stack:
            v = stack.pop()
            nbrs = np.nonzero(a[v] & (labels < 0))[0]
            labels[nbrs] = comp
            stack.extend(nbrs.tolist())
        comp += 1
    return labels, comp


class TestConnectedComponents:
    def test_path_graph(self):
        a = np.zeros((4, 4), dtype=bool)
        a[0, 1] = a[1, 0] = a[2, 3] = a[3, 2] = True
        labels, count = connected_components(a)
        assert count == 2
        assert labels.tolist() == [0, 0, 1, 1]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 40), st.floats(0.0, 0.3), st.integers(0, 2**32 - 1))
    def test_matches_dfs_reference(self, n, density, seed):
        # symmetric with self-loops; low densities leave isolated nodes
        upper = np.triu(np.random.default_rng(seed).random((n, n)) < density)
        adj = upper | upper.T
        labels, count = connected_components(adj)
        ref_labels, ref_count = _dfs_components(adj)
        assert labels.dtype == np.int64
        assert type(count) is int
        assert count == ref_count
        assert labels.tolist() == ref_labels.tolist()


class TestMLE:
    def test_noiseless(self):
        ones = BinaryMarkovChain(1.0, 0.0, 1.0)
        zeros = BinaryMarkovChain(0.0, 0.0, 0.0)
        labels = sample_labelling(10, 2, seed=3)
        arr = sample_markov_snapshots(labels, ones, zeros, 3, seed=4)
        got = mle_brute_force(arr, 2, MarkovKernel(ones), MarkovKernel(zeros))
        assert accuracy(labels, got) == 1.0

    def test_budget(self):
        labels, arr = markov_instance(25, 3, 20)
        with pytest.raises(ValueError):
            mle_brute_force(arr, 2, MarkovKernel(INTRA), MarkovKernel(INTER))

    def test_likelihood_at_least_truth(self):
        f = FiniteDistribution([0.3, 0.7])
        g = FiniteDistribution([0.7, 0.3])
        kf, kg = CategoricalKernel(f), CategoricalKernel(g)
        for seed in range(20):
            labels = sample_labelling(9, 2, seed=seed)
            arr = sample_categorical_snapshots(labels, f, g, seed=seed + 50)
            got = mle_brute_force(arr, 2, kf, kg)
            ratio = kf.log_ratio_matrix(arr, kg)

            def loglik(s):
                same = s[:, None] == s[None, :]
                return 0.5 * float((same * ratio).sum())

            assert loglik(got) >= loglik(labels) - 1e-9

    def test_lexicographic_tie_break(self):
        # all-zero log ratios: every labelling ties, the smallest code wins
        data = SnapshotArray.from_dense(np.zeros((1, 3, 3), dtype=np.uint8))
        f = FiniteDistribution([1.0])
        got = mle_brute_force(data, 2, CategoricalKernel(f), CategoricalKernel(f))
        assert got.tolist() == [0, 0, 0]


class TestStrongSignalGates:
    def test_refine_above_threshold_regime(self):
        # well-separated chains with fifteen snapshots: near-perfect recovery
        n = 500
        rho = math.log(n) / n
        intra = chain_from_stationary(4.0 * rho, 0.7)
        inter = chain_from_stationary(1.5 * rho, 0.3)
        accs = []
        for seed in range(20):
            labels = sample_labelling(n, 2, seed=3000 + seed)
            arr = sample_markov_snapshots(labels, intra, inter, 15, seed=4000 + seed)
            got = refine_recover(
                arr, MarkovKernel(intra), MarkovKernel(inter), 2,
                SpectralConfig(K=2, seed=seed), mode="fast",
            )
            accs.append(accuracy(labels, got))
        assert np.mean(accs) >= 0.99

    def test_inplace_sweeps_solve_static_boundary(self):
        # when one law is deterministic, synchronous sweeps can enter a
        # mirror-flip two-cycle; in-place sweeps escape it
        intra = chain_from_stationary(0.05, 1.0)
        inter = chain_from_stationary(0.04, 0.3)
        finals = []
        for seed in range(4):
            labels = sample_labelling(500, 2, seed=derive_seed(seed, 1))
            arr = sample_markov_snapshots(labels, intra, inter, 30, seed=derive_seed(seed, 2))
            from tsbm.spectral import binarize, spectral_cluster

            init = spectral_cluster(binarize(arr, t=0), SpectralConfig(K=2, seed=seed))
            state = OnlineLikelihood(arr.snapshot(0), init, intra, inter, 2, synchronous=False)
            state.run(arr)
            finals.append(accuracy(labels, state.labels))
        assert np.mean(finals) >= 0.95


class TestTransitionRateEdgeEvidence:
    def test_unvisited_state_contributes_no_edge(self):
        # the pair 0-1 never leaves state 1, so the (a=0, *) entries carry
        # no evidence and row 1 alone decides; P and Q differ only there
        data = np.zeros((6, 3, 3), dtype=np.uint8)
        data[:, 0, 1] = data[:, 1, 0] = 1
        P = np.array([[0.5, 0.5], [0.05, 0.95]])
        Q = np.array([[0.5, 0.5], [0.95, 0.05]])
        labels, k_hat = transition_rate_clustering(SnapshotArray.from_dense(data), P, Q)
        assert labels[0] == labels[1]  # empirical row 1 matches P exactly
        assert k_hat == 2  # node 2 isolated
