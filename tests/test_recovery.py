"""Unit tests for the recovery algorithms."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tsbm import recovery
from tsbm.divergence import FiniteDistribution
from tsbm.markov import BinaryMarkovChain, chain_from_stationary
from tsbm.metrics import accuracy, ham_star
from tsbm.recovery import (
    LOG_RATIO_SATURATION,
    CategoricalKernel,
    MarkovKernel,
    OnlineLikelihood,
    OnlineLikelihoodLearned,
    _PairLogRatio,
    _entry_slots,
    _sat_log_ratio,
    _tally,
    connected_components,
    enemy_paths,
    mle_brute_force,
    persistent_components,
    refine_recover,
    transition_rate_clustering,
)
from tsbm.harness import chains_in_units, figure_bundle, recover, sample_instance, spectral_matrix
from tsbm.sbm import (
    SnapshotArray,
    sample_categorical_snapshots,
    sample_labelling,
    sample_markov_snapshots,
)
from tsbm.spectral import binarize, leave_one_out_cluster, spectral_cluster
from tsbm._rng import derive_seed

import dense_reference as dense_ref
from dense_reference import _DenseLearned, _DenseOnline, _one_hot, dense_tensor, from_dense
from markov_reference import path_log_prob


INTRA = chain_from_stationary(0.35, 0.6)
INTER = chain_from_stationary(0.08, 0.3)


def markov_instance(n, t, seed, intra=INTRA, inter=INTER):
    labels = sample_labelling(n, 2, seed=derive_seed(seed, 1))
    arr = sample_markov_snapshots(labels, intra, inter, t, seed=derive_seed(seed, 2))
    return labels, arr


class TestKernels:
    def test_markov_log_ratio_matches_path_probs(self):
        labels, arr = markov_instance(25, 6, 0)
        ratio = MarkovKernel(INTRA).log_ratio_matrix(arr, MarkovKernel(INTER)).dense()
        iu, ju = np.triu_indices(25, 1)
        pats = dense_tensor(arr)[:, iu, ju].T
        want = path_log_prob(INTRA, pats) - path_log_prob(INTER, pats)
        assert np.allclose(ratio[iu, ju], want, atol=1e-10)
        assert np.allclose(ratio, ratio.T)
        assert np.all(np.diagonal(ratio) == 0)

    def test_saturation_on_boundary_parameters(self):
        static = BinaryMarkovChain(1.0, 0.0, 1.0)
        noisy = BinaryMarkovChain(0.5, 0.5, 0.5)
        labels, arr = markov_instance(20, 5, 1, intra=static, inter=noisy)
        ratio = MarkovKernel(static).log_ratio_matrix(arr, MarkovKernel(noisy)).dense()
        assert np.isfinite(ratio).all()
        assert np.abs(ratio).max() <= 700.0

    def test_categorical_kernel(self):
        f = FiniteDistribution([0.2, 0.8])
        g = FiniteDistribution([0.7, 0.3])
        labels = sample_labelling(15, 2, seed=2)
        arr = sample_categorical_snapshots(labels, f, g, seed=3)
        ratio = CategoricalKernel(f).log_ratio_matrix(arr, CategoricalKernel(g)).dense()
        lr = np.log(f.probs) - np.log(g.probs)
        iu, ju = np.triu_indices(15, 1)
        assert np.allclose(ratio[iu, ju], lr[dense_tensor(arr)[0, iu, ju]])

    def test_categorical_kernel_needs_one_snapshot(self):
        f = CategoricalKernel(FiniteDistribution([0.5, 0.5]))
        _, arr = markov_instance(10, 2, 0)
        with pytest.raises(ValueError, match="^categorical kernel expects a single snapshot$"):
            f.log_ratio_matrix(arr, f)


class TestRefineRecover:
    def test_noiseless_separable(self):
        ones = BinaryMarkovChain(1.0, 0.0, 1.0)
        zeros = BinaryMarkovChain(0.0, 0.0, 0.0)
        labels = sample_labelling(40, 2, seed=3)
        arr = sample_markov_snapshots(labels, ones, zeros, 4, seed=4)
        for mode in ("fast", "loo"):
            got = refine_recover(
                arr, MarkovKernel(ones), MarkovKernel(zeros), 2,
                0, mode=mode,
            )
            assert accuracy(labels, got) == 1.0

    def test_single_block(self):
        labels, arr = markov_instance(12, 3, 4)
        got = refine_recover(arr, MarkovKernel(INTRA), MarkovKernel(INTER), 1)
        assert np.array_equal(got, np.zeros(12, dtype=np.int64))

    @pytest.mark.parametrize("K", [1, 2])
    def test_unknown_mode_rejected(self, K):
        # at K = 1 too, where no mode runs
        labels, arr = markov_instance(12, 3, 4)
        with pytest.raises(ValueError, match="^unknown mode 'slow'$"):
            refine_recover(arr, MarkovKernel(INTRA), MarkovKernel(INTER), K, mode="slow")

    def test_loo_mode_strong_signal(self):
        for seed in range(3):
            labels, arr = markov_instance(60, 6, 10 + seed)
            got = refine_recover(
                arr, MarkovKernel(INTRA), MarkovKernel(INTER), 2,
                seed, mode="loo",
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
            init_acc.append(accuracy(labels, spectral_cluster(binarize(arr), 2, seed)))
            refined_acc.append(
                accuracy(
                    labels,
                    refine_recover(
                        arr, MarkovKernel(intra), MarkovKernel(inter), 2, seed, mode="fast"
                    ),
                )
            )
        assert np.mean(refined_acc) >= np.mean(init_acc)


class TestOnlineLikelihood:
    def test_zero_information_keeps_labels(self):
        ch = BinaryMarkovChain(0.3, 0.2, 0.6)
        labels, arr = markov_instance(30, 6, 5, intra=ch, inter=ch)
        init = sample_labelling(30, 2, seed=77)
        state = OnlineLikelihood(arr, init, ch, ch, 2)
        state.run()
        assert np.abs(state.ratio.dense()).max() == 0.0
        assert np.array_equal(state.labels, init)

    def test_truth_init_is_stable_under_strong_signal(self):
        labels, arr = markov_instance(60, 8, 6)
        state = OnlineLikelihood(arr, labels, INTRA, INTER, 2)
        state.run()
        assert np.array_equal(state.labels, labels)

    def test_replay_purity(self):
        labels, arr = markov_instance(40, 7, 7)
        init = sample_labelling(40, 2, seed=9)
        m_hist, l_hist = [], []
        for _ in range(2):
            state = OnlineLikelihood(arr, init, INTRA, INTER, 2)
            ms, ls = [state.ratio.dense()], [state.labels.copy()]
            for t in range(1, arr.T):
                state.step()
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
        state = OnlineLikelihood(arr, labels, INTRA, INTER, 2)
        for t in range(1, arr.T):
            state.step()
            M = state.ratio.dense()
            assert np.array_equal(M, M.T)
            assert np.all(np.diagonal(M) == 0.0)

    def test_cumulative_matrix_equals_full_pattern_ratio(self):
        # after consuming all snapshots, M is the per-pair log ratio of the
        # whole pattern, so each decision equals the single-node estimator
        labels, arr = markov_instance(35, 9, 9)
        state = OnlineLikelihood(arr, labels, INTRA, INTER, 2)
        state.run()
        want = MarkovKernel(INTRA).log_ratio_matrix(arr, MarkovKernel(INTER)).dense()
        assert np.allclose(state.ratio.dense(), want, atol=1e-9)

    def test_async_variant_runs(self):
        labels, arr = markov_instance(30, 6, 10)
        init = sample_labelling(30, 2, seed=11)
        state = OnlineLikelihood(arr, init, INTRA, INTER, 2, synchronous=False)
        state.run()
        assert accuracy(labels, state.labels) >= 0.9

    def test_step_past_last_snapshot_raises(self):
        _, arr = markov_instance(20, 3, 12)
        state = OnlineLikelihood(arr, np.zeros(20, dtype=np.int64), INTRA, INTER, 2)
        state.run()
        with pytest.raises(IndexError, match="snapshot 3 outside"):
            state.step()
        assert state.t == arr.T

    @pytest.mark.parametrize("learned", [False, True])
    def test_symbol_above_one_refused_when_built(self, learned):
        # the symbol sits in the second snapshot, which no run has reached
        data = np.zeros((2, 4, 4), dtype=np.int64)
        data[1, 0, 1] = data[1, 1, 0] = 2
        arr, init = from_dense(data), np.array([0, 0, 1, 1])
        with pytest.raises(ValueError, match="needs 0/1 snapshots, got symbol 2"):
            if learned:
                OnlineLikelihoodLearned(arr, init, 2)
            else:
                OnlineLikelihood(arr, init, INTRA, INTER, 2)

    @pytest.mark.parametrize("learned", [False, True])
    def test_run_resumes_after_steps(self, learned):
        labels, arr = markov_instance(30, 6, 13)
        init = sample_labelling(30, 2, seed=14)

        def fresh():
            if learned:
                return OnlineLikelihoodLearned(arr, init, 2)
            return OnlineLikelihood(arr, init, INTRA, INTER, 2)

        whole, seen = [], []
        fresh().run(lambda t, got: whole.append((t, got.copy())))
        state = fresh()
        for _ in range(2):
            seen.append((state.t, state.labels.copy()))
            state.step()
        assert state.t == 3
        state.run(lambda t, got: seen.append((t, got.copy())))
        assert [t for t, _ in seen] == [t for t, _ in whole] == list(range(1, arr.T + 1))
        for (_, a), (_, b) in zip(seen, whole):
            assert np.array_equal(a, b)
        assert not np.array_equal(whole[0][1], whole[-1][1])  # the run moved labels


class TestStartLabels:
    @pytest.mark.parametrize("algorithm", ["online", "online-learn"])
    def test_recover_refuses_a_truth_start_of_more_blocks(self, algorithm):
        _, arr = markov_instance(60, 4, 3)
        truth = np.arange(60) % 3  # three blocks, two asked for
        spy = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(recovery, "_PairLogRatio", lambda *a: spy.append(a))
            with pytest.raises(ValueError, match="^start label 2 outside 0..1 for K=2$"):
                recover(arr, algorithm, 2, 0, chains=(INTRA, INTER), init="truth", truth=truth)
        assert spy == []  # refused before the store is built

    @pytest.mark.parametrize("make", [
        lambda arr, init, K: OnlineLikelihood(arr, init, INTRA, INTER, K),
        lambda arr, init, K: OnlineLikelihoodLearned(arr, init, K),
    ], ids=["online", "online-learn"])
    @pytest.mark.parametrize("init, K, message", [
        ([0, 1, 0, 1, 1, 3], 3, "^start label 3 outside 0..2 for K=3$"),
        ([0, -1, 0, 1, 2, 0], 3, "^start label -1 outside 0..2 for K=3$"),
        ([0, 1, 0, 1, 0, 1], 1, "^start label 1 outside 0..0 for K=1$"),
        ([0, 1, 0, 1, 0], 2, r"^need 6 start labels, got shape \(5,\)$"),
        ([[0, 1, 0, 1, 0, 1]], 2, r"^need 6 start labels, got shape \(1, 6\)$"),
    ])
    def test_start_labels_outside_the_blocks_refused(self, make, init, K, message):
        _, arr = markov_instance(6, 3, 1)
        with pytest.raises(ValueError, match=message):
            make(arr, np.array(init), K)

    def test_start_labels_are_copied(self):
        labels, arr = markov_instance(20, 3, 2)
        init = labels.copy()
        for state in (OnlineLikelihood(arr, init, INTRA, INTER, 2),
                      OnlineLikelihoodLearned(arr, init, 2)):
            state.labels[:] = 1 - state.labels
            assert np.array_equal(init, labels)


class TestOnlineLikelihoodLearned:
    def test_transition_counter_hand_example(self):
        n = 4
        pattern = [0, 0, 1, 1, 0]
        data = np.zeros((5, n, n), dtype=np.uint8)
        for t, bit in enumerate(pattern):
            data[t, 0, 1] = data[t, 1, 0] = bit
        state = OnlineLikelihoodLearned(from_dense(data), np.array([0, 0, 1, 1]), 2)
        for t in range(1, 5):
            state.step()
        packed = _packed_counts(state)
        counts = {ab: int(packed[ab][0]) for ab in range(4)}  # pair (0, 1) packs first
        assert counts == {0: 1, 1: 1, 2: 1, 3: 1}  # 00, 01, 10, 11
        n0 = counts[0] + counts[1]
        n1 = counts[2] + counts[3]
        assert counts[1] / n0 == 0.5 and counts[2] / n1 == 0.5

    def test_counter_total_invariant(self):
        labels, arr = markov_instance(25, 8, 12)
        state = OnlineLikelihoodLearned(arr, labels, 2)
        for t in range(1, arr.T):
            state.step()
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
            state = OnlineLikelihoodLearned(arr, labels, 2)
            state.run()
            assert accuracy(labels, state.labels) >= 0.99
            errors.append(
                max(
                    np.abs(state.P_hat - intra.transition).max(),
                    np.abs(state.Q_hat - inter.transition).max(),
                )
            )
        assert max(errors) <= 0.02

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pooled_estimates_from_true_labels(self, seed):
        # the figure-6 chains at nu1 = 0.03; averaging per-pair ratios
        # instead of pooling the counts reads p11 near 0.43, q11 near 0.19
        intra, inter = chains_in_units(1000, 0.05, 0.03, 0.6, 0.3, units="absolute")
        labels, arr = markov_instance(1000, 30, seed, intra=intra, inter=inter)
        state = OnlineLikelihoodLearned(arr, labels, 2)
        state.run()
        assert abs(state.P_hat[1, 1] - 0.6) <= 0.05
        assert abs(state.Q_hat[1, 1] - 0.3) <= 0.05

    def test_traced_peaks_stay_below_four_times_the_array(self):
        # per-entry arrays kept beside ``data`` (a place per entry, or the
        # sort that gives it) can outgrow the array itself: at the figure-6
        # config, building the learner and running it each stay below 4x
        # the bytes of ``data``
        intra, inter = chains_in_units(1000, 0.05, 0.03, 0.6, 0.3, units="absolute")
        _, arr = markov_instance(1000, 30, 0, intra=intra, inter=inter)
        init = sample_labelling(1000, 2, seed=5)
        tracemalloc.start()
        try:
            state = OnlineLikelihoodLearned(arr, init, 2)
            built = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            state.run()
            ran = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert built < 4 * arr.data.nbytes, built / arr.data.nbytes
        assert ran < 4 * arr.data.nbytes, ran / arr.data.nbytes

    def test_each_class_steps_through_its_own_step(self, monkeypatch):
        # a tracer wraps each class's ``step`` by name: the learner's is its
        # own, and a learned run never goes through the known-parameter one
        assert OnlineLikelihoodLearned.step is not OnlineLikelihood.step
        labels, arr = markov_instance(30, 5, 3)
        calls, step = [], OnlineLikelihood.step

        def spy(state):
            calls.append(type(state))
            return step(state)

        monkeypatch.setattr(OnlineLikelihood, "step", spy)
        OnlineLikelihoodLearned(arr, labels, 2).run()
        assert calls == []
        OnlineLikelihood(arr, labels, INTRA, INTER, 2).run()
        assert calls == [OnlineLikelihood] * (arr.T - 1)

    def test_figure6_stall_from_spectral_start(self):
        """Documents a known failure, not a wanted behaviour: trial 0 of the
        figure-6 config at nu1 = 0.04 starts from a spectral labelling whose
        blocks mix the truth's, estimates a denser inter chain than intra
        one, and ends with P_hat and Q_hat equal, so no sweep moves it on.
        A fix of the online start may invert this test."""
        _, configs = figure_bundle(6)
        config = next(c for c in configs if c.name == "fig6_nu0.04_online-learn")
        trial_seed = derive_seed(config.seed, 0)
        truth = sample_labelling(config.n, config.k, seed=derive_seed(trial_seed, 1))
        arr = sample_markov_snapshots(truth, *config.chains(), config.t,
                                      seed=derive_seed(trial_seed, 2))
        start = spectral_cluster(binarize(arr, t=0), config.k, derive_seed(trial_seed, 4))
        state = OnlineLikelihoodLearned(arr, start, config.k)
        state.run()
        assert accuracy(truth, state.labels) < 0.6
        assert np.abs(state.P_hat - state.Q_hat).max() <= 0.01
        assert state.mu1_hat < state.nu1_hat


def _packed_counts(state):
    """The transition counts of the snapshots a learner has taken, as
    ``transition_rate_clustering`` derives them, as a ``(4, P)`` array over
    the pairs ``i < j`` in row-major order; pairs that never interacted
    have made ``t - 1`` transitions 0 -> 0."""
    n = state.labels.size
    iu, ju = np.triu_indices(n, k=1)
    out = np.zeros((4, iu.size), dtype=np.int64)
    out[0] = state.t - 1
    pairs, n1, n01, n11 = dense_ref.seen_transitions(state)
    active = np.searchsorted(iu * n + ju, pairs)
    out[1:, active] = n01, n1 - n11, n11
    out[0, active] -= n1 + n01
    return out


def _check_sweep(M, before, got, K, synchronous):
    """Replays the dense sweep of ``M`` from ``before`` and requires ``got``
    to take the dense decision at every node, except where the scores of
    the two choices tie to 1e-12 of the node's absolute row sum of ``M``;
    there the replay follows ``got``.  A zero row has no rounding, so its
    ties follow the rule exactly.  Returns the number of such nodes."""
    out = before.copy()
    frozen = M @ _one_hot(before, K)
    ties = 0
    for i in range(before.size):
        scores = frozen[i] if synchronous else M[i] @ _one_hot(out, K)
        best = int(np.argmax(scores))
        want = out[i] if scores[out[i]] >= scores[best] else best
        if got[i] != want:
            gap = abs(scores[got[i]] - scores[want])
            assert gap < 1e-12 * np.abs(M[i]).sum(), (i, scores, got[i], want)
            ties += 1
        out[i] = got[i]
    return ties


_chain_probability = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
_any_chain = st.builds(BinaryMarkovChain, _chain_probability, _chain_probability,
                       _chain_probability)


@st.composite
def _online_runs(draw, max_t=8):
    """Random symmetric binary snapshots, labels, K and sweep mode."""
    n, T, K = draw(st.integers(2, 40)), draw(st.integers(1, max_t)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.05, 0.3, 0.8]))
    upper = np.triu(rng.random((T, n, n)) < density, 1).astype(np.uint8)
    labels = rng.integers(0, K, n)
    return upper + upper.transpose(0, 2, 1), labels, K, draw(st.booleans())


class TestSparseOnlineMatchesDense:
    @settings(max_examples=120, deadline=None)
    @given(run=_online_runs(), intra=_any_chain, inter=_any_chain,
           learned=st.booleans())
    def test_bit_identical_M_and_labels(self, run, intra, inter, learned):
        # the reference is resynced to the sparse labels (and estimates)
        # before each step, so one near-tie cannot fork the two runs
        data, labels, K, synchronous = run
        if learned:
            state = OnlineLikelihoodLearned(from_dense(data), labels, K,
                                            synchronous=synchronous)
            ref = _DenseLearned(data[0], labels, K, synchronous=synchronous)
            assert np.array_equal(state.P_hat, ref.P_hat)
            assert np.array_equal(state.Q_hat, ref.Q_hat)
        else:
            state = OnlineLikelihood(from_dense(data), labels, intra, inter, K,
                                     synchronous=synchronous)
            ref = _DenseOnline(data[0], labels, intra, inter, K, synchronous=synchronous)
        assert np.array_equal(state.ratio.dense(), ref.M)
        for t in range(1, data.shape[0]):
            before = state.labels.copy()
            ref.labels = before.copy()
            if learned:
                ref.P_hat, ref.Q_hat = state.P_hat.copy(), state.Q_hat.copy()
            state.step()
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
        state = OnlineLikelihood(arr, init, intra, inter, 2)
        dense = dense_tensor(arr)
        ref = _DenseOnline(dense[0], init, intra, inter, 2)
        moved = 0
        for t in range(1, arr.T):
            before = state.labels
            state.step()
            ref.step(dense[t])
            moved += int((state.labels != before).sum())
            assert np.array_equal(state.labels, ref.labels)
            assert np.array_equal(state.ratio.dense(), ref.M)
        assert moved > 0

    @pytest.mark.parametrize("learned", [False, True])
    def test_store_in_pair_order(self, learned):
        # pairs first set late with keys below the early ones', and pairs
        # that turn off and on again: from construction on, the store lists
        # every pair the array sets, once and increasing, and after every
        # step M and the counts equal the dense run's
        n = 6
        sets = [[(3, 4), (4, 5)], [(0, 1), (4, 5)], [(0, 2), (1, 5), (3, 4)], [],
                [(0, 1), (2, 3), (3, 4)]]
        data = np.zeros((len(sets), n, n), dtype=np.uint8)
        for t, pairs in enumerate(sets):
            for i, j in pairs:
                data[t, i, j] = data[t, j, i] = 1
        labels = np.array([0, 0, 0, 1, 1, 1])
        arr = from_dense(data)
        if learned:
            state, ref = OnlineLikelihoodLearned(arr, labels, 2), _DenseLearned(data[0], labels, 2)
        else:
            intra, inter = chain_from_stationary(0.4, 0.7), chain_from_stationary(0.2, 0.3)
            state = OnlineLikelihood(arr, labels, intra, inter, 2)
            ref = _DenseOnline(data[0], labels, intra, inter, 2)
        iu = np.triu_indices(n, 1)
        every = sorted({i * n + j for pairs in sets for i, j in pairs})
        for t in range(len(sets)):
            if t:
                ref.labels = state.labels.copy()
                if learned:
                    ref.P_hat, ref.Q_hat = state.P_hat.copy(), state.Q_hat.copy()
                state.step()
                ref.step(data[t])
            ratio = state.ratio
            assert (ratio.rows * n + ratio.cols).tolist() == every
            assert (ratio.rows < ratio.cols).all()
            assert np.array_equal(ratio.dense(), ref.M)
            if learned:
                assert np.array_equal(_packed_counts(state), ref.counts[:, iu[0], iu[1]])


@st.composite
def _binary_runs(draw):
    """Symmetric binary snapshots with a random labelling."""
    n, T = draw(st.integers(1, 9)), draw(st.integers(2, 12))
    bits = np.triu(draw(arrays(np.uint8, (T, n, n), elements=st.integers(0, 1))), 1)
    labels = draw(arrays(np.int64, n, elements=st.integers(0, 1)))
    return bits + bits.transpose(0, 2, 1), labels


class TestPackedCounts:
    @settings(max_examples=150, deadline=None)
    @given(run=_binary_runs())
    def test_estimates_match_dense_reference(self, run):
        # each step starts the reference from the sparse learner's M, labels
        # and estimates, so one differently broken tie cannot fork the two
        # runs; the counts accumulate independently on both sides.  A node
        # whose two scores tie to rounding may take either label; the
        # reference then re-estimates under the sparse labels.
        data, labels = run
        state = OnlineLikelihoodLearned(from_dense(data), labels, 2)
        ref = _DenseLearned(data[0], labels, 2)
        assert np.array_equal(state.P_hat, ref.P_hat) and np.array_equal(state.Q_hat, ref.Q_hat)
        iu = np.triu_indices(data.shape[1], 1)
        for t in range(1, data.shape[0]):
            before, estimates = state.labels.copy(), (state.P_hat.copy(), state.Q_hat.copy())
            ref.M, ref.labels = state.ratio.dense(), before.copy()
            ref.P_hat, ref.Q_hat = (e.copy() for e in estimates)
            state.step()
            ref.step(data[t])
            if _check_sweep(ref.M, before, state.labels, 2, synchronous=True):
                ref.labels = state.labels.copy()
                ref.P_hat, ref.Q_hat = estimates
                ref._reestimate()
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
        state = OnlineLikelihoodLearned(arr, init, 2)
        dense = dense_tensor(arr)
        ref = _DenseLearned(dense[0], init, 2)
        moved = 0
        for t in range(1, arr.T):
            before = state.labels
            state.step()
            ref.step(dense[t])
            moved += int((state.labels != before).sum())
            assert np.array_equal(state.labels, ref.labels)
            assert np.abs(state.P_hat - ref.P_hat).max() <= 1e-14
            assert np.abs(state.Q_hat - ref.Q_hat).max() <= 1e-14
        assert moved > 0  # the labels changed, so the block relations were redone


@st.composite
def _learner_runs(draw):
    """Snapshots for the learner from N = 2 up: each one empty, complete,
    random, or set on exactly the pairs never set before (all fresh);
    random labels over K blocks, and either sweep."""
    n, T, K = draw(st.sampled_from([2, 3, 6, 14])), draw(st.integers(2, 10)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    seen = np.zeros((n, n), dtype=bool)
    data = np.zeros((T, n, n), dtype=np.uint8)
    for t in range(T):
        kind = draw(st.sampled_from(["empty", "complete", "random", "fresh"]))
        if kind == "random":
            upper = rng.random((n, n)) < draw(st.sampled_from([0.1, 0.3, 0.6]))
        else:
            upper = {"empty": np.zeros_like(seen), "complete": np.ones_like(seen),
                     "fresh": ~seen}[kind]
        upper = np.triu(upper, 1)
        seen |= upper
        data[t] = upper | upper.T
    return data, rng.integers(0, K, n), K, draw(st.booleans())


class TestPooledReestimation:
    @settings(max_examples=200, deadline=None)
    @given(run=_learner_runs())
    def test_matches_reestimation_from_scratch(self, run):
        # the pooled sums, updated in O(pairs set) or taken again after a
        # label move, equal those of summing every pair afresh, and so give
        # bit for bit the same estimates
        data, labels, K, synchronous = run
        state = OnlineLikelihoodLearned(from_dense(data), labels, K,
                                        synchronous=synchronous)
        iu = np.triu_indices(data.shape[1], 1)
        counts = np.zeros((4, iu[0].size), dtype=np.uint32)
        for t in range(1, data.shape[0]):
            estimates = state.P_hat.copy(), state.Q_hat.copy()
            state.step()
            P_hat, Q_hat, pooled = dense_ref.reestimate_from_scratch(state, *estimates)
            assert np.array_equal(state._pooled, pooled)
            assert state.P_hat.tobytes() == P_hat.tobytes()
            assert state.Q_hat.tobytes() == Q_hat.tobytes()
            counts[2 * data[t - 1][iu] + data[t][iu], np.arange(iu[0].size)] += 1
            assert np.array_equal(_packed_counts(state), counts)

    @settings(max_examples=200, deadline=None)
    @given(flags=arrays(np.bool_, st.tuples(st.integers(0, 300), st.just(2))))
    def test_tally_equals_bincount(self, flags):
        # the learner's three-count table of (stay, same) against the bincount
        # it replaces, empty arrays included
        same, stay = flags.T
        want = np.bincount(2 * stay + same, minlength=4).reshape(2, 2)
        got = _tally(same, stay)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def _slots_by_dict(array):
    """``_entry_slots`` in plain Python: each entry's pair ranked among the
    distinct pairs, whether the dict of each pair's last snapshot holds the
    snapshot before, and whether the set of all entries lacks the pair in
    the snapshot after."""
    size = array.N * array.N
    entries = set(array.data.tolist())
    pairs = sorted({e % size for e in entries})
    rank = {pair: k for k, pair in enumerate(pairs)}
    last, slots, stay, per_snapshot = {}, [], [], [0] * array.T
    for e in array.data.tolist():
        t, pair = divmod(e, size)
        slots.append(rank[pair])
        stay.append(last.get(pair) == t - 1)
        last[pair] = t
        per_snapshot[t] += 1
    leaves = [e + size not in entries for e in array.data.tolist()]
    return pairs, slots, stay, leaves, [0, *itertools.accumulate(per_snapshot)]


def _from_upper(upper):
    upper = np.triu(np.asarray(upper, dtype=np.uint8), 1)
    return from_dense(upper + upper.transpose(0, 2, 1))


@st.composite
def _slot_arrays(draw):
    """Arrays from N = 2 and T = 1 up, each snapshot empty, complete or
    random, and pair (0, 1) set in every snapshot or not."""
    n, T = draw(st.integers(2, 7)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = [draw(st.sampled_from([0.0, 0.2, 0.5, 1.0])) for _ in range(T)]
    upper = rng.random((T, n, n)) < np.array(density)[:, None, None]
    upper[:, 0, 1] |= draw(st.booleans())
    return _from_upper(upper)


_NO_BIT = _from_upper(np.zeros((3, 4, 4)))


def _from_entries(N, T, entries):
    """The array that sets the given ``(t, i, j)`` entries, i < j."""
    return SnapshotArray(sorted(t * N * N + i * N + j for t, i, j in entries), N, T)


# four or five entries take 3 index bits: keys pair * (T + 1) + t then fill int64
# exactly at N = 2^20, T = 2^20 - 1, and pass it at N = 2^25, T = 4000
_TALL = _from_entries(2**20, 2**20 - 1, [(0, 2**20 - 2, 2**20 - 1), (2**20 - 3, 0, 1),
                                         (2**20 - 2, 0, 1), (2**20 - 2, 2**20 - 2, 2**20 - 1)])
_WIDE = _from_entries(2**25, 4000, [(0, 0, 1), (1, 0, 1), (3999, 2**25 - 2, 2**25 - 1),
                                    (3998, 2**25 - 2, 2**25 - 1), (7, 5, 9)])


class TestEntrySlots:
    @settings(max_examples=200, deadline=None)
    @given(arr=_slot_arrays())
    @example(arr=_from_upper([[[0, 1], [0, 0]]]))  # N = 2, T = 1
    @example(arr=_NO_BIT)
    @example(arr=_from_upper([[[0, 1, 1], [0, 0, 1], [0, 0, 0]], np.zeros((3, 3)),
                              [[0, 1, 0], [0, 0, 1], [0, 0, 0]]]))  # an empty middle snapshot
    @example(arr=_from_upper(np.ones((4, 3, 3))))  # every pair set in every snapshot
    @example(arr=_TALL)  # indices packed into the keys' low bits up to the int64 limit
    @example(arr=_WIDE)  # past it: the argsort fallback
    def test_matches_dict_reference(self, arr):
        pairs, slots, stay, leaves = _entry_slots(arr)
        assert slots.dtype == np.int32 and slots.shape == stay.shape == arr.data.shape
        assert leaves.dtype == bool and leaves.shape == arr.data.shape
        *want, bounds = _slots_by_dict(arr)
        assert [pairs.tolist(), slots.tolist(), stay.tolist(), leaves.tolist()] == want
        # every snapshot; of _TALL's million, those with entries, the ones before and the last
        ts = range(arr.T) if arr.T <= 4000 else sorted(
            {arr.T - 1} | {max(t - d, 0) for t in (arr.data // arr.N**2).tolist() for d in (0, 1)})
        assert [arr.span(t) for t in ts] == [(bounds[t], bounds[t + 1]) for t in ts]

    @pytest.mark.parametrize("build", [
        lambda a: transition_rate_clustering(a, INTRA.transition, INTER.transition),
        persistent_components,
        enemy_paths,
        lambda a: OnlineLikelihood(a, np.array([0, 1, 0]), INTRA, INTER, 2),
        lambda a: OnlineLikelihoodLearned(a, np.array([0, 1, 0]), 2),
    ], ids=["rates", "friends", "enemies", "online", "online-learn"])
    def test_memory_follows_the_entries_not_the_header_T(self, build):
        # two entries, in snapshots 0 and 5 of ten million
        arr = SnapshotArray([1, 47], 3, 10**7)
        tracemalloc.start()
        try:
            build(arr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6, peak

    def test_traced_peak_below_three_words_per_entry(self):
        # the figure-6 config's 600k entries.  The pair key built with no
        # snap * size temporary, the indices packed and neighbours compared
        # in chunks, and an int32 order keep the peak near 2.7 words per
        # entry.  Whole-array temporaries took 3.5.
        intra, inter = chains_in_units(1000, 0.05, 0.03, 0.6, 0.3, "absolute")
        arr = sample_markov_snapshots(sample_labelling(1000, 2, seed=1), intra, inter, 30,
                                      seed=2)
        tracemalloc.start()
        try:
            slots = _entry_slots(arr)[1]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert slots.size == arr.data.size == 600687
        assert peak <= 3 * arr.data.nbytes

    def test_online_learners_and_rates_run_without_a_set_bit(self):
        labels = np.array([0, 1, 0, 1])
        known = OnlineLikelihood(_NO_BIT, labels, INTRA, INTER, 2)
        learned = OnlineLikelihoodLearned(_NO_BIT, labels, 2)
        known.run()
        learned.run()
        assert known.t == learned.t == _NO_BIT.T and learned.ratio.vals.size == 0
        assert learned._pooled.tolist() == [[0, 0]] * 3
        got = transition_rate_clustering(_NO_BIT, INTRA.transition, INTER.transition)
        want = dense_ref.transition_rates(_NO_BIT, INTRA.transition, INTER.transition)
        assert got[0].tolist() == want[0].tolist() and got[1] == want[1]


@pytest.fixture(scope="module")
def figure6_trial0():
    """Trial 0 of the benchmark's figure-6 online-learn config (seed 1):
    599,289 entries over 243,036 pairs, and its spectral start."""
    seed = derive_seed(1, 0)
    intra, inter = chains_in_units(1000, 0.05, 0.03, 0.6, 0.3, "absolute")
    _, arr = sample_instance(1000, 2, 30, intra, inter, seed, False)
    return arr, spectral_cluster(binarize(arr, t=0), 2, derive_seed(seed, 4))


class TestStoreBytes:
    """The online store's traced memory at the figure-6 config.  Each bound
    was fixed before the code it bounds landed, measured with numpy 2.4."""

    def test_entry_slots_peak_at_most_two_words_per_entry(self, figure6_trial0):
        # 21.6 bytes per entry with the pairs gathered beside the live keys;
        # 15.7 with the pairs compacted in place
        arr = figure6_trial0[0]
        tracemalloc.start()
        try:
            pairs = _entry_slots(arr)[0]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (arr.data.size, pairs.size) == (599289, 243036)
        assert peak <= 2 * arr.data.nbytes, peak / arr.data.size

    def test_store_and_step_bytes(self, figure6_trial0):
        # held after construction: 44.8 bytes per pair with int64 ends,
        # 35.9 with int32 ends and a place per pair, 30.9 with the pairs'
        # slots as their places; a step's peak above what it starts with:
        # 2,759,624 bytes with int64 temporaries, 1.23 MB with int32 ones,
        # 1.02 MB with the slots as places
        arr, start = figure6_trial0
        tracemalloc.start()
        try:
            state = OnlineLikelihoodLearned(arr, start, 2)
            held, peaks = tracemalloc.get_traced_memory()[0], []
            while state.t < arr.T:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                state.step()
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        assert state.ratio.rows.dtype == state.ratio.cols.dtype == np.int32
        assert held / state.ratio.vals.size <= 32.0, held / state.ratio.vals.size
        assert max(peaks) <= 2_759_624 / 2, max(peaks)

    def test_recount_after_a_move_bytes(self, figure6_trial0):
        # after a sweep that moved a node the learner counts every entry so
        # far again: 5.32 MB above what it holds through whole-length
        # gathers, bounded here at a quarter of that
        arr, start = figure6_trial0
        state = OnlineLikelihoodLearned(arr, start, 2)
        state.run()
        state.labels[0] ^= 1
        tracemalloc.start()
        try:
            state._reestimate()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.3e6, peak

    def test_incidence_bytes(self, figure6_trial0):
        # the in-place sweeps' incidence held 16 bytes per pair with an
        # argsort of the rows too, which the store keeps sorted; now a
        # node's row places are a range and only cols is argsorted
        ratio = _PairLogRatio(figure6_trial0[0], np.array([-0.5, 1.25]))
        tracemalloc.start()
        try:
            ratio._incident([0])
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        pairs, pointers = ratio.vals.size, 2 * 8 * (ratio.n + 1)
        assert held <= 8 * pairs + pointers + 1024, held / pairs
        for v in (0, 1, 500, 999):  # each node's places, in pair order
            rows, cols = ratio._incident([v])
            assert np.array_equal(rows, np.flatnonzero(ratio.rows == v))
            assert np.array_equal(cols, np.flatnonzero(ratio.cols == v))

    @pytest.mark.parametrize("learned", [False, True])
    def test_int32_ends_past_46341_nodes(self, learned):
        # at N = 70,000, i * N passes int32 from i = 30,679: the ends are
        # widened before any product with N
        n = 70_000
        arr = _from_entries(n, 4, [(0, 1, 69_999), (0, 46_341, 46_342), (1, 50_000, 69_998),
                                   (1, 46_341, 46_342), (2, 0, 2), (2, 69_998, 69_999),
                                   (3, 1, 69_999), (3, 46_341, 46_342)])
        labels = np.arange(n) % 2
        state = (OnlineLikelihoodLearned(arr, labels, 2) if learned
                 else OnlineLikelihood(arr, labels, INTRA, INTER, 2, synchronous=False))
        state.run()
        ratio = state.ratio
        assert ratio.rows.dtype == ratio.cols.dtype == np.int32
        assert np.array_equal(ratio.rows.astype(np.int64) * n + ratio.cols, _entry_slots(arr)[0])
        assert [e.tolist() for e in ratio.ends] == [[1, 46_341], [69_999, 46_342]]
        if learned:
            pooled = dense_ref.reestimate_from_scratch(state, state.P_hat, state.Q_hat)[2]
            assert np.array_equal(state._pooled, pooled)


@st.composite
def _pattern_arrays(draw, max_symbol=1, min_t=1, max_t=6, min_n=1):
    """Random symmetric snapshot arrays, symbols 1..max_symbol, with
    densities from empty to full."""
    n, T = draw(st.integers(min_n, 11)), draw(st.integers(min_t, max_t))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.1, 0.4, 0.8, 1.0]))
    sym = rng.integers(1, max_symbol + 1, (T, n, n)) * (rng.random((T, n, n)) < density)
    upper = np.triu(sym, 1)
    return from_dense(upper + upper.transpose(0, 2, 1))


def _chains_with_p11(p11):
    return st.builds(BinaryMarkovChain, _chain_probability, _chain_probability, st.just(p11))


_distributions = st.integers(0, 2**32 - 1).map(
    lambda seed: FiniteDistribution(np.random.default_rng(seed).dirichlet(np.ones(4))))


class TestSparseConsumersMatchDense:
    """Each consumer of the pair patterns against its dense reference."""

    @settings(max_examples=150, deadline=None)
    @given(arr=_pattern_arrays(), f=_any_chain, g=_any_chain)
    def test_markov_kernel(self, arr, f, g):
        # equal to the dense sum wherever no partial sum passes the clip,
        # and to the online M everywhere
        got = MarkovKernel(f).log_ratio_matrix(arr, MarkovKernel(g)).dense()
        want, peak = dense_ref.markov_log_ratio(arr, f, g)
        calm = peak <= LOG_RATIO_SATURATION
        assert np.array_equal(got[calm], want[calm])
        assert np.abs(got).max(initial=0) <= LOG_RATIO_SATURATION
        state = OnlineLikelihood(arr, np.zeros(arr.N, dtype=np.int64), f, g, 1)
        state.run()
        assert np.array_equal(state.ratio.dense(), got)

    @settings(max_examples=150, deadline=None)
    @given(arr=st.one_of(_pattern_arrays(), _pattern_arrays(max_symbol=3)),
           f=st.one_of(_any_chain, _chains_with_p11(1.0)),
           g=st.one_of(_any_chain, _chains_with_p11(0.0)), d=_distributions, e=_distributions)
    def test_pairs_not_yet_set_hold_base(self, arr, f, g, d, e):
        # the store lists every pair from the start: one that no snapshot so
        # far has set takes the same scalar add and clip as base, so holds
        # it bit for bit, through the clips of p11 = 1 against q11 = 0 too
        l_init = _sat_log_ratio(f.mu, g.mu) if arr.values is None else _sat_log_ratio(d.probs,
                                                                                      e.probs)
        ratio = _PairLogRatio(arr, l_init)
        pairs = ratio.rows.astype(np.int64) * arr.N + ratio.cols
        for t in range(arr.T):
            if t:
                ratio.add(t, _sat_log_ratio(f.transition, g.transition).ravel())
            unset = ~np.isin(pairs, arr.data[:arr.span(t)[1]] % arr.N**2)
            assert ratio.vals[unset].tobytes() == np.full(unset.sum(), ratio.base).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(arr=_pattern_arrays(max_symbol=3, max_t=1),
           f=_distributions, g=_distributions)
    def test_categorical_kernel(self, arr, f, g):
        got = CategoricalKernel(f).log_ratio_matrix(arr, CategoricalKernel(g)).dense()
        assert np.array_equal(got, dense_ref.categorical_log_ratio(arr, f, g))

    @pytest.mark.parametrize("p01,q01,quiet_link", [(0.05, 0.8, True), (0.5, 0.3, False)])
    @settings(max_examples=60, deadline=None)
    @given(arr=_pattern_arrays(min_t=2), p11=st.floats(0.0, 1.0), q11=st.floats(0.0, 1.0))
    def test_transition_rates(self, arr, p01, q01, quiet_link, p11, q11):
        # the pairs never set (T - 1 steps 0 -> 0) link exactly when Q01 >> P01
        P = np.array([[1 - p01, p01], [1 - p11, p11]])
        Q = np.array([[1 - q01, q01], [1 - q11, q11]])
        assert (p01 <= 0.5 * abs(p01 - q01)) == quiet_link
        labels, k_hat = transition_rate_clustering(arr, P, Q)
        want, want_k = dense_ref.transition_rates(arr, P, Q)
        assert labels.tolist() == want.tolist() and k_hat == want_k

    @settings(max_examples=150, deadline=None)
    @given(arr=_pattern_arrays(max_symbol=3))
    def test_friends_and_enemies(self, arr):
        for got, want in ((persistent_components(arr), dense_ref.persistent(arr)),
                          (enemy_paths(arr), dense_ref.enemies(arr))):
            assert got[0].dtype == np.int64 and type(got[1]) is int
            assert got[0].tolist() == want[0].tolist() and got[1] == want[1]

    @pytest.mark.parametrize("algorithm", ["spectral-aggregate", "spectral-squared"])
    @settings(max_examples=100, deadline=None)
    @given(arr=_pattern_arrays(max_symbol=3))
    def test_spectral_matrices(self, arr, algorithm):
        got = spectral_matrix(arr, algorithm)
        want = dense_ref.spectral_matrix(arr, algorithm)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert np.asarray(got).tobytes() == want.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(arr=_pattern_arrays(min_n=4), f=_any_chain, g=_any_chain, K=st.integers(2, 3),
           seed=st.integers(0, 100))
    def test_refine_labels(self, arr, f, g, K, seed):
        # the dense argmax, except where block scores tie up to rounding
        got = refine_recover(arr, MarkovKernel(f), MarkovKernel(g), K, seed)
        R = MarkovKernel(f).log_ratio_matrix(arr, MarkovKernel(g)).dense()
        L = dense_ref.block_scores(R, spectral_cluster(binarize(arr), K, seed), K)
        near = L.max(axis=1) - np.sort(L, axis=1)[:, -2] <= 1e-12 * np.abs(R).sum(axis=1)
        assert np.array_equal(got[~near], L.argmax(axis=1)[~near])
        rows = np.flatnonzero(near)
        assert (L[rows].max(axis=1) - L[rows, got[rows]] <= 1e-12 * np.abs(R[rows]).sum(axis=1)).all()

    @settings(max_examples=60, deadline=None)
    @given(arr=_pattern_arrays(min_n=4), f=_any_chain, g=_any_chain, K=st.integers(2, 3),
           seed=st.integers(0, 100))
    def test_refine_loo_labels(self, arr, f, g, K, seed):
        # node i takes the dense argmax of its own row against its
        # leave-one-out clustering (any choice within rounding of the best),
        # then every labelling is aligned on run 0's
        got = refine_recover(arr, MarkovKernel(f), MarkovKernel(g), K, seed, mode="loo")
        R = MarkovKernel(f).log_ratio_matrix(arr, MarkovKernel(g)).dense()
        adj, n = binarize(arr), arr.N
        runs, choices = [], []
        for i in range(n):
            full = np.zeros(n, dtype=np.int64)
            full[np.arange(n) != i] = leave_one_out_cluster(adj, i, K, seed)
            h = dense_ref.block_scores(R, full, K)[i]
            runs.append(full)
            choices.append(np.flatnonzero(h.max() - h <= 1e-12 * np.abs(R[i]).sum()))

        def aligned(i, c, base):
            own = np.where(np.arange(n) == i, c, runs[i]) == c
            return int(np.argmax([(own & (base == l)).sum() for l in range(K)]))

        def consistent(c0):
            base = np.where(np.arange(n) == 0, c0, runs[0])
            return got[0] == c0 and all(
                got[i] in {aligned(i, c, base) for c in choices[i]} for i in range(1, n))

        assert any(consistent(c0) for c0 in choices[0])


def _inplace_sweep_by_node(ratio, labels, K):
    """The asynchronous sweep one node at a time: node i reads its row of
    ``ratio.scores`` under the labels moved so far and takes its strict
    best block, ties keeping its label."""
    out = labels.copy()
    for i in range(out.size):
        scores = ratio.scores(out, K)[i]
        best = int(np.argmax(scores))
        if scores[out[i]] < scores[best]:
            out[i] = best
    return out


def _refine_loo_by_matrix(arr, f, g, K, seed):
    """``refine_recover(mode='loo')`` with every run's labels kept in an
    N x N array and the consensus taken as ``own @ onehot(run 0)``."""
    R = MarkovKernel(f).log_ratio_matrix(arr, MarkovKernel(g))
    adj, n = binarize(arr), arr.N
    per_node = np.zeros((n, n), dtype=np.int64)  # run i's labels
    for i in range(n):
        full = per_node[i]
        full[np.arange(n) != i] = leave_one_out_cluster(adj, i, K, seed)
        full[i] = int(np.argmax(R.scores(full, K)[i]))
    own = per_node == per_node.diagonal()[:, None]  # each run's block of its own node
    return (own.astype(np.int64) @ _one_hot(per_node[0], K).astype(np.int64)).argmax(axis=1)


# an intra law that never leaves state 1 (p11 = 1), so the ratios saturate
_static_chain = st.builds(BinaryMarkovChain, _chain_probability, _chain_probability,
                          st.just(1.0))


class TestOneScorer:
    """The in-place sweep and refine-loo read rows of ``scores`` exactly as
    the node-by-node loops they replace."""

    @settings(max_examples=150, deadline=None)
    @given(run=_online_runs(), intra=st.one_of(_any_chain, _static_chain), inter=_any_chain,
           learned=st.booleans())
    def test_inplace_sweep_matches_node_loop(self, run, intra, inter, learned):
        data, labels, K, _ = run
        if learned:
            state = OnlineLikelihoodLearned(from_dense(data), labels, K,
                                            synchronous=False)
        else:
            state = OnlineLikelihood(from_dense(data), labels, intra, inter, K,
                                     synchronous=False)
        got = state.ratio.sweep(labels, K, synchronous=False)
        assert got.dtype == np.int64
        assert got.tobytes() == _inplace_sweep_by_node(state.ratio, labels, K).tobytes()
        for t in range(1, data.shape[0]):
            before = state.labels.copy()
            state.step()
            want = _inplace_sweep_by_node(state.ratio, before, K)
            assert state.labels.tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(arr=_pattern_arrays(min_n=4), f=st.one_of(_any_chain, _static_chain), g=_any_chain,
           K=st.integers(2, 3), seed=st.integers(0, 100))
    def test_refine_loo_matches_matrix_consensus(self, arr, f, g, K, seed):
        got = refine_recover(arr, MarkovKernel(f), MarkovKernel(g), K, seed, mode="loo")
        want = _refine_loo_by_matrix(arr, f, g, K, seed)
        assert got.dtype == np.int64 and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n,K", [(3, 3), (4, 4), (4, 5)])
    def test_refine_loo_needs_k_below_n(self, monkeypatch, n, K):
        # each minor has N - 1 nodes; the check comes before any clustering
        def fail(*args):
            raise AssertionError("clustered")

        monkeypatch.setattr("tsbm.recovery.leave_one_out_cluster", fail)
        labels, arr = markov_instance(n, 3, 0)
        with pytest.raises(ValueError, match=f"each minor has {n - 1} nodes, got K = {K}"):
            refine_recover(arr, MarkovKernel(INTRA), MarkovKernel(INTER), K, mode="loo")


def _exact_block_sums(ratio):
    """The kept sums ``ratio._sums`` in real arithmetic, correctly rounded:
    each node's offsets ``vals - base``, summed by its partner's block under
    the labels the sums are kept under."""
    labels, K = ratio._under, ratio._sums.shape[1]
    terms = {}
    for ends, partners in ((ratio.rows, ratio.cols), (ratio.cols, ratio.rows)):
        for i, j, v in zip(ends.tolist(), partners.tolist(), ratio.vals.tolist()):
            terms.setdefault((i, labels[j]), []).extend((v, -ratio.base))
    out = np.zeros((ratio.n, K))
    for (i, k), values in terms.items():
        out[i, k] = math.fsum(values)
    return out


def _sweep_by_scores(ratio, labels, K):
    """The synchronous sweep read from ``ratio.scores``: strict best block,
    ties keeping the label."""
    L = ratio.scores(labels, K)
    best, at = L.argmax(axis=1), np.arange(labels.size)
    return np.where(L[at, labels] < L[at, best], best, labels)


def _labels_per_step(figure, name):
    """Trial 0 of a built-in figure's config: its labels at entry and after
    each step."""
    config = next(c for c in figure_bundle(figure)[1] if c.name == name)
    seed, chains = derive_seed(config.seed, 0), config.chains()
    _, array = sample_instance(config.n, config.k, config.t, *chains, seed, config.balanced)
    seen = []
    recover(array, config.algorithm, config.k, seed, chains=chains, init=config.init,
            synchronous=config.synchronous, record=lambda t, x: seen.append(x.tolist()))
    return seen


def _dropping(ratio, t, increments, add=_PairLogRatio.add):
    """``_PairLogRatio.add`` that drops the kept sums after every snapshot."""
    add(ratio, t, increments)
    ratio._sums = None


class TestKeptBlockSums:
    """Sweeps score from block sums kept across steps, and settle near-ties
    from exact rows."""

    @settings(max_examples=100, deadline=None)
    @given(run=_online_runs(max_t=40), intra=st.one_of(_any_chain, _static_chain),
           inter=_any_chain, learned=st.booleans())
    def test_within_the_tie_tolerance(self, run, intra, inter, learned):
        # after every step, the kept sums (updated by the step, or rebuilt
        # by its sweep) lie within a thousandth of a per-node tolerance of
        # their exact values: the sweep's factor times |base| N + P n_i, n_i
        # the node's degree in the store, a bound no looser than the sweep's
        # one for all nodes, (|base| + P) N
        data, labels, K, synchronous = run
        array = from_dense(data)
        if learned:
            state = OnlineLikelihoodLearned(array, labels, K, synchronous=synchronous)
        else:
            state = OnlineLikelihood(array, labels, intra, inter, K, synchronous=synchronous)
        for t in range(1, data.shape[0]):
            state.step()
            ratio = state.ratio
            if ratio._sums is None:  # dropped at the saturation
                ratio._block_sums(state.labels, K)
            error = np.abs(ratio._sums - _exact_block_sums(ratio))
            bound = 4 * np.finfo(np.float64).eps * (ratio._age + 2) * (ratio.n + 4)
            degree = np.bincount(np.concatenate((ratio.rows, ratio.cols)), minlength=ratio.n)
            per_node = max(recovery._TIE_TOL, bound) * (abs(ratio.base) * ratio.n
                                                        + ratio._peak * degree)
            assert (per_node <= ratio._tolerance()).all()
            assert (error <= 1e-3 * per_node[:, None]).all()

    def test_exact_tie_with_rounded_sums_apart(self, monkeypatch):
        # node 0's partners hold -70, 350 and 70 in its block and 350 in
        # block 1: a tie in real arithmetic, so node 0 keeps its label.  The
        # sums of their offsets from base = -0.7 round apart and would move
        # it; the sweep rescores it from its exact row instead
        n = 5
        data = np.zeros((1, n, n), dtype=np.uint8)
        data[0, 0, 1:] = data[0, 1:, 0] = 1
        ratio = MarkovKernel(INTRA).log_ratio_matrix(from_dense(data),
                                                     MarkovKernel(INTER))
        ratio.vals[:] = -70.0, 350.0, 70.0, 350.0  # pairs (0, 1) ... (0, 4)
        ratio.base, ratio._peak = -0.7, 350.0
        labels = np.array([0, 0, 0, 0, 1])
        kept = ratio.base * np.array([3, 1]) + ratio._block_sums(labels, 2)[0]
        exact = ratio.scores(labels, 2)[0]
        assert kept[0] < kept[1] and exact[0] == exact[1]
        rescored, scores = [], ratio.scores

        def spy(labels, K, nodes=None):
            rescored.append(range(n) if nodes is None else list(nodes))
            return scores(labels, K, nodes)

        monkeypatch.setattr(ratio, "scores", spy)
        got = ratio.sweep(labels, 2)  # rows alone, as the in-place sweep asks
        assert isinstance(rescored[0], list) and 0 in rescored[0] and got[0] == 0
        assert got.tobytes() == _sweep_by_scores(ratio, labels, 2).tobytes()
        rescored.clear()
        got = ratio.sweep(labels, 2, synchronous=False)
        assert 0 in rescored[0] and got[0] == 0
        assert got.tobytes() == _inplace_sweep_by_node(ratio, labels, 2).tobytes()

    def test_clips_drop_the_sums_at_figure_7(self, monkeypatch):
        # fig7b_p1.0_online's static intra chain saturates the ratios, so
        # every add from the first on clips, and each clip drops the sums
        # that the last in-place sweep left (the first add finds none yet).
        # Every step's labels are those of a run that drops them after
        # every add
        seen, add = [], _PairLogRatio.add

        def watched(ratio, t, increments):
            clips = ratio._peak + np.abs(increments).max() > LOG_RATIO_SATURATION
            held = ratio._sums is not None
            add(ratio, t, increments)
            seen.append((clips, held, ratio._sums is None))

        monkeypatch.setattr(_PairLogRatio, "add", watched)
        kept = _labels_per_step(7, "fig7b_p1.0_online")
        assert seen == [(True, t > 0, True) for t in range(29)]
        monkeypatch.setattr(_PairLogRatio, "add", _dropping)
        assert _labels_per_step(7, "fig7b_p1.0_online") == kept

    def test_a_synchronous_move_drops_the_sums(self, monkeypatch):
        # the sums were taken under the labels the sweep was given, so a
        # synchronous sweep that moves a node drops them, and the next add
        # patches none; sums a sweep left in place are patched
        _, arr = markov_instance(40, 4, 0)
        state = OnlineLikelihood(arr, sample_labelling(40, 2, seed=9), INTRA, INTER, 2)
        keyed, block_keys = [], recovery._block_keys

        def spy(*args):
            keyed.append(args)
            return block_keys(*args)

        monkeypatch.setattr(recovery, "_block_keys", spy)
        increments = _sat_log_ratio(INTRA.transition, INTER.transition).ravel()
        before = state.labels.copy()
        state.step()
        assert (state.labels != before).any() and state.ratio._sums is None
        keyed.clear()
        state.ratio.add(2, increments)
        assert keyed == []
        state.ratio._block_sums(state.labels, 2)
        keyed.clear()
        state.ratio.add(3, increments)
        assert keyed

    def test_synchronous_moves_drop_the_sums_at_figure_6(self, monkeypatch):
        # the benchmark's figure-6 learner sweeps synchronously: a sweep
        # leaves sums exactly when it moves no node, and every step's labels
        # are those of a run that drops the sums after every add
        dropped, sweep = [], _PairLogRatio.sweep

        def watched(ratio, labels, K, synchronous=True):
            out = sweep(ratio, labels, K, synchronous)
            dropped.append(ratio._sums is None)
            return out

        monkeypatch.setattr(_PairLogRatio, "sweep", watched)
        kept = _labels_per_step(6, "fig6_nu0.03_online-learn")
        moved = [a != b for a, b in zip(kept, kept[1:])]
        assert dropped == moved and any(moved)
        monkeypatch.setattr(_PairLogRatio, "add", _dropping)
        assert _labels_per_step(6, "fig6_nu0.03_online-learn") == kept

    def test_inplace_sweeps_across_chunks_equal_the_node_loop(self):
        # N = 300 from a random start on the scale chain, K = 3: the moves
        # fall in many chunks, and each step's labels equal the node-by-node
        # sweep's from the same labels, with no resync between steps
        n, K = 300, 3
        intra, inter = chains_in_units(n, 3.0, 1.5, 0.7, 0.3)
        truth = sample_labelling(n, K, seed=5)
        arr = sample_markov_snapshots(truth, intra, inter, 8, seed=6)
        state = OnlineLikelihood(arr, sample_labelling(n, K, seed=7), intra, inter, K,
                                 synchronous=False)
        moved = 0
        for t in range(1, arr.T):
            before = state.labels.copy()
            state.step()
            assert state.labels.tobytes() == _inplace_sweep_by_node(state.ratio, before,
                                                                    K).tobytes()
            moved += int((state.labels != before).sum())
        assert moved > 50


def _tie_instance():
    """Blocks {0, 1, 2} and {3, 4, 5, 6}, in 4 snapshots; node 6 never
    interacts.  In whichever block node 6 sits with one node more than the
    other, its two block scores are exactly equal."""
    n, t = 7, 4
    within = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    steps = [within, within[:4] + [(2, 3)], within[1:], within]
    data = sorted(s * n * n + i * n + j for s, pairs in enumerate(steps) for i, j in pairs)
    return np.array([0, 0, 0, 1, 1, 1, 1]), SnapshotArray(data, n, t)


class TestSweepTieRule:
    # per-step labels of recover(..., "online"): a node whose own block ties
    # with another keeps its own.  Truth starts tie node 6 in block 1 at
    # every step; from the random start, the in-place sweep ties it in
    # block 0, and the synchronous one moves it, then ties it in block 1.
    TRUTH = [[0, 0, 0, 1, 1, 1, 1]] * 4
    RANDOM = [0, 0, 0, 0, 0, 1, 0]
    PINNED = {
        (True, "truth"): TRUTH,
        (False, "truth"): TRUTH,
        (True, "random"): [RANDOM] + [[0, 0, 0, 1, 1, 1, 1]] * 3,
        (False, "random"): [RANDOM] + [[0, 0, 0, 1, 1, 1, 0]] * 3,
    }

    @pytest.mark.parametrize("synchronous,init", sorted(PINNED))
    def test_ties_keep_the_own_block(self, synchronous, init):
        truth, arr = _tie_instance()
        chains = chain_from_stationary(0.5, 0.7), chain_from_stationary(0.1, 0.3)
        seen = []
        recover(arr, "online", 2, 0, chains=chains, init=init, truth=truth,
                synchronous=synchronous, record=lambda t, labels: seen.append(labels.tolist()))
        assert seen == self.PINNED[synchronous, init]


class TestTransitionRates:
    def test_requires_distinct_matrices(self):
        arr = sample_markov_snapshots(np.zeros(4, dtype=int), INTRA, INTRA, 5, seed=0)
        with pytest.raises(ValueError):
            transition_rate_clustering(arr, INTRA.transition, INTRA.transition)

    def test_needs_two_snapshots(self):
        arr = sample_markov_snapshots(np.zeros(4, dtype=int), INTRA, INTER, 1, seed=0)
        with pytest.raises(ValueError, match="^need at least two snapshots, got T=1$"):
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
        labels, k_hat = persistent_components(from_dense(data))
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
        moved = from_dense(dense_tensor(arr)[:, perm][:, :, perm])
        base, _ = persistent_components(arr)
        shuffled, _ = persistent_components(moved)
        assert ham_star(shuffled, base[perm])[0] == 0


class TestEnemyPaths:
    def test_static_data_gives_singletons(self):
        data = np.zeros((5, 8, 8), dtype=np.uint8)
        data[:, 0, 1] = data[:, 1, 0] = 1  # constant pattern, never an enemy
        labels, k_hat = enemy_paths(from_dense(data))
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
        moved = from_dense(dense_tensor(arr)[:, perm][:, :, perm])
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
            ratio = kf.log_ratio_matrix(arr, kg).dense()

            def loglik(s):
                same = s[:, None] == s[None, :]
                return 0.5 * float((same * ratio).sum())

            assert loglik(got) >= loglik(labels) - 1e-9

    def test_lexicographic_tie_break(self):
        # all-zero log ratios: every labelling ties, the smallest code wins
        data = from_dense(np.zeros((1, 3, 3), dtype=np.uint8))
        f = FiniteDistribution([1.0])
        got = mle_brute_force(data, 2, CategoricalKernel(f), CategoricalKernel(f))
        assert got.tolist() == [0, 0, 0]

    @pytest.mark.parametrize("K", [0, -1])
    def test_counts_below_one_rejected(self, K):
        data = from_dense(np.zeros((1, 4, 4), dtype=np.uint8))
        f = CategoricalKernel(FiniteDistribution([1.0]))
        with pytest.raises(ValueError, match=f"^need at least one cluster, got K={K}$"):
            mle_brute_force(data, K, f, f)

    def test_budget_admits_exactly_k_to_the_n(self):
        # 10^6 labellings, the whole budget
        data = from_dense(np.zeros((1, 6, 6), dtype=np.uint8))
        f = CategoricalKernel(FiniteDistribution([1.0]))
        assert mle_brute_force(data, 10, f, f).tolist() == [0] * 6

    @pytest.mark.parametrize("K, N", [(10, 7), (2, 20), (2, 20_000), (10**30, 3)])
    def test_over_budget_refused_naming_k_and_n(self, K, N):
        data = SnapshotArray(np.zeros(0, dtype=np.int64), N, 1)
        f = CategoricalKernel(FiniteDistribution([1.0]))
        with pytest.raises(ValueError, match=rf"^mle enumerates K\^N labellings, more than its "
                           rf"budget of 1000000 at K={K}, N={N}$"):
            mle_brute_force(data, K, f, f)

    def test_one_cluster_builds_no_ratio(self):
        class NoRatio:
            def log_ratio_matrix(self, array, other):
                raise AssertionError("the one labelling needs no ratio")

        data = SnapshotArray(np.zeros(0, dtype=np.int64), 100_000, 1)
        got = mle_brute_force(data, 1, NoRatio(), NoRatio())
        assert got.dtype == np.int64 and got.shape == (100_000,) and not got.any()


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
                seed, mode="fast",
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

            init = spectral_cluster(binarize(arr, t=0), 2, seed)
            state = OnlineLikelihood(arr, init, intra, inter, 2, synchronous=False)
            state.run()
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
        labels, k_hat = transition_rate_clustering(from_dense(data), P, Q)
        assert labels[0] == labels[1]  # empirical row 1 matches P exactly
        assert k_hat == 2  # node 2 isolated
