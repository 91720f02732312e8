"""Tests for the experiment harness and the command line interface."""

import contextlib
import inspect
import io
import json
import math
import os
import re
import resource
import shutil
import subprocess
import sys
import time
import traceback
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import ArpackNoConvergence

import tsbm
from tsbm import harness, spectral
from tsbm.cli import main
from tsbm.harness import (
    ExperimentConfig,
    config_from_dict,
    divergence_report,
    figure_bundle,
    parse_config_text,
    records_to_csv,
    recover,
    run_experiment,
    run_trial,
    spectral_matrix,
    summarize,
    threshold_grid,
)
from tsbm._rng import derive_seed
from tsbm.markov import chain_from_stationary, t_star
from tsbm.sbm import read_labels, read_snapshots
from tsbm.spectral import spectral_cluster

from dense_reference import from_dense


SMALL = ExperimentConfig(
    n=100, k=2, t=6, mu1=4.0, nu1=1.0, p11=0.7, q11=0.3,
    units="logn", algorithm="online", init="random", trials=4, seed=3,
)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(trials=0)
        with pytest.raises(ValueError):
            ExperimentConfig(algorithm="nope")
        with pytest.raises(ValueError):
            ExperimentConfig(units="parsecs")

    def test_infeasible_chain_rejected_before_trials(self):
        with pytest.raises(ValueError):
            ExperimentConfig(mu1=0.9, p11=0.0, units="absolute")

    def test_density_units(self):
        cfg = ExperimentConfig(n=500, mu1=2.0, nu1=1.0, units="logn")
        intra, _ = cfg.chains()
        assert intra.mu1 == pytest.approx(2.0 * math.log(500) / 500)
        cfg = ExperimentConfig(n=500, mu1=2.0, nu1=1.0, units="inv_n")
        intra, _ = cfg.chains()
        assert intra.mu1 == pytest.approx(2.0 / 500)


class TestConfigFile:
    def test_parse_nested(self):
        text = """
        # an experiment
        [model]
        n = 200
        mu1 = 2.5
        balanced = true
        [run]
        algorithm = online
        trials = 7
        """
        parsed = parse_config_text(text)
        assert parsed == {"n": 200, "mu1": 2.5, "balanced": True, "algorithm": "online",
                          "trials": 7}

    def test_bad_line(self):
        with pytest.raises(ValueError):
            parse_config_text("not a key value line")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            config_from_dict({"frobnicate": 1})


class TestTrials:
    def test_online_record_lengths(self):
        rec = run_trial(SMALL, 0)
        assert len(rec.accuracies) == SMALL.t
        assert len(rec.ham_stars) == SMALL.t
        assert all(0.0 <= a <= 1.0 for a in rec.accuracies)

    def test_offline_record_length(self):
        cfg = ExperimentConfig(
            n=60, k=2, t=4, mu1=6.0, nu1=1.0, algorithm="refine", trials=2, seed=0
        )
        rec = run_trial(cfg, 0)
        assert len(rec.accuracies) == 1

    def test_trial_determinism(self):
        a = run_trial(SMALL, 1)
        b = run_trial(SMALL, 1)
        assert a.accuracies == b.accuracies
        assert a.seed == b.seed

    def test_parallel_equals_serial(self):
        serial = records_to_csv(run_experiment(SMALL, jobs=1), SMALL, deterministic=True)
        parallel = records_to_csv(run_experiment(SMALL, jobs=3), SMALL, deterministic=True)
        assert serial == parallel

    @pytest.mark.parametrize("cpus, pools", [(64, [4]), (3, [3]), (1, [])])
    def test_pool_capped_at_trials_and_cpus(self, monkeypatch, cpus, pools):
        # a recorder stands in for the pool, so no worker is ever started
        seen = []

        class SerialPool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        capped = records_to_csv(run_experiment(SMALL, jobs=100000), SMALL, deterministic=True)
        assert seen == pools
        assert capped == records_to_csv(run_experiment(SMALL), SMALL, deterministic=True)

    def test_summaries(self):
        records = run_experiment(SMALL)
        mean, sem = summarize(records)
        assert mean.shape == (SMALL.t,)
        assert (sem >= 0).all()

    def test_csv_shape_and_echo(self):
        records = run_experiment(SMALL)
        text = records_to_csv(records, SMALL, deterministic=True)
        lines = text.strip().splitlines()
        header = [l for l in lines if l.startswith("#")]
        rows = [l for l in lines if not l.startswith("#")]
        assert any("algorithm = online" in h for h in header)
        assert rows[0] == "trial,t,algorithm,accuracy,ham_star,seconds"
        assert len(rows) == 1 + SMALL.trials * SMALL.t

    def test_timestamp_suppressed(self):
        records = run_experiment(SMALL)
        with_ts = records_to_csv(records, SMALL, deterministic=False)
        without = records_to_csv(records, SMALL, deterministic=True)
        assert "generated" in with_ts
        assert "generated" not in without


class TestReports:
    def test_divergence_report_fields(self):
        intra = chain_from_stationary(1.5 * math.log(500) / 500, 0.7)
        inter = chain_from_stationary(1.5 * math.log(500) / 500, 0.3)
        report = divergence_report(intra, inter, 500, 2, 13)
        assert report.t_star_exact == 13
        assert report.t_star_itilde == 7
        assert report.hellinger_sq == pytest.approx(1 - math.exp(-report.exact / 2))
        assert report.approx_radius == pytest.approx(92 * (report.rho * 13) ** 2)
        assert report.lower_bound_quadratic >= 0.0
        text = report.to_text()
        assert "T* (exact convention)" in text
        d = report.to_dict()
        assert d["n"] == 500

    def test_threshold_grid_diagonal_infinite(self):
        values = [0.3, 0.5, 0.7]
        grid = threshold_grid(500, 2, 1.5, 1.5, values, values, t_max=4000)
        for i in range(3):
            assert math.isinf(grid[i, i])  # identical chains on the diagonal
        assert np.isfinite(grid[0, 2])

    def test_threshold_grid_monotone_along_ray(self):
        # moving away from the diagonal never increases T*
        values = [0.3, 0.5, 0.7, 0.9]
        grid = threshold_grid(500, 2, 1.5, 1.5, [0.3], values, t_max=10**5)
        finite = grid[0, 1:]
        assert all(a >= b for a, b in zip(finite, finite[1:]))

    def test_threshold_grid_infeasible_cell_is_inf(self):
        # density 3 log(10)/10 = 0.69: p11 = 0.1 implies p01 > 1, p11 = 0.9 does not
        grid = threshold_grid(10, 2, 3.0, 1.0, [0.1, 0.9], [0.3])
        assert math.isinf(grid[0, 0])
        rho = math.log(10) / 10
        want = t_star(chain_from_stationary(3.0 * rho, 0.9),
                      chain_from_stationary(rho, 0.3), 10, 2)
        assert grid[1, 0] == math.log10(want)

    def test_threshold_grid_infeasible_row_and_column_are_inf(self):
        # densities 3 and 2.5 log(10)/10 = 0.69 and 0.58: p11 = 0.1 and
        # q11 = 0.1 imply p01 > 1, so row 0 and column 0 are infeasible
        p11_values, q11_values = [0.1, 0.9], [0.1, 0.5, 0.9]
        grid = threshold_grid(10, 2, 3.0, 2.5, p11_values, q11_values)
        rho = math.log(10) / 10
        with pytest.raises(ValueError):
            chain_from_stationary(3.0 * rho, 0.1)
        with pytest.raises(ValueError):
            chain_from_stationary(2.5 * rho, 0.1)
        assert np.isinf(grid[0]).all() and np.isinf(grid[:, 0]).all()
        for i, p11 in enumerate(p11_values[1:], 1):
            for j, q11 in enumerate(q11_values[1:], 1):
                ts = t_star(chain_from_stationary(3.0 * rho, p11),
                            chain_from_stationary(2.5 * rho, q11), 10, 2)
                assert grid[i, j] == math.log10(ts)

    def test_threshold_grid_memory_does_not_grow_with_the_search(self):
        # the search takes 2^14 cells a pass: one pass, a 128 x 128 grid of
        # this figure-2 map, traced 8.4 MB, so a 401 x 401 grid may add only
        # its 8-byte T* and log10 T* per cell, 2.6 MB.  In one pass it traced
        # 81 MB.
        values = np.linspace(0.05, 0.95, 401)
        tracemalloc.start()
        try:
            grid = threshold_grid(500, 2, 1.51, 1.5, values, values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid.shape == (401, 401) and np.isfinite(grid[0, -1])
        assert peak < 12e6, f"{peak / 1e6:.1f} MB"

    @pytest.mark.parametrize(
        "args,match",
        [
            ((1, 2, 2.5, 1.5, [0.3], [0.5]), "two nodes"),
            ((0, 2, 2.5, 1.5, [0.3], [0.5]), "two nodes"),
            ((500, 2, 0.0, 1.5, [0.3], [0.5]), "mu1"),
            ((500, 2, 2.5, 200.0, [0.3], [0.5]), "nu1"),
            ((500, 2, 2.5, 1.5, [-0.5, 0.3], [0.5]), "p11"),
            ((500, 2, 2.5, 1.5, [0.3], [0.5, float("nan")]), "q11"),
        ],
    )
    def test_threshold_grid_rejects_bad_inputs(self, args, match):
        with pytest.raises(ValueError, match=match):
            threshold_grid(*args)


class TestFigureBundles:
    def test_figure_4_structure(self):
        kind, configs = figure_bundle(4, trials=2)
        assert kind == "experiments"
        assert len(configs) == 6  # three densities x two initialisations
        inits = {c.init for c in configs}
        assert inits == {"spectral", "random"}

    def test_figure_2_structure(self):
        kind, panels = figure_bundle(2)
        assert kind == "threshold-grid"
        assert len(panels) == 3

    def test_figure_7_has_online_and_baselines(self):
        _, configs = figure_bundle(7, trials=1)
        algs = {c.algorithm for c in configs}
        assert "online" in algs and "spectral-squared" in algs and "enemies" in algs

    def test_remaining_figures_construct(self):
        _, grid3 = figure_bundle(3, trials=1)
        assert len(grid3) == 3 * 9 * 9
        _, panels5 = figure_bundle(5, trials=1)
        assert {c.units for c in panels5} == {"inv_n"}
        _, panels6 = figure_bundle(6, trials=1)
        assert len(panels6) == 6
        assert {c.algorithm for c in panels6} == {"online", "online-learn"}

    def test_unknown_figure(self):
        with pytest.raises(ValueError):
            figure_bundle(99)

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError, match="need at least one trial"):
            figure_bundle(5, trials=0)


class TestRecover:
    @pytest.mark.parametrize("algorithm", ["online", "rates", "refine", "refine-loo", "mle"])
    def test_needs_chain_pair(self, algorithm):
        array = from_dense(np.zeros((2, 4, 4), dtype=np.uint8))
        with pytest.raises(ValueError, match="needs the chain pair"):
            recover(array, algorithm, 2, 0)

    @pytest.mark.parametrize("k", [0, -1])
    @pytest.mark.parametrize("algorithm", harness.ALGORITHMS)
    def test_fewer_than_one_cluster_rejected(self, algorithm, k):
        array = from_dense(np.zeros((2, 4, 4), dtype=np.uint8))
        with pytest.raises(ValueError, match=f"^need at least one cluster, got K={k}$"):
            recover(array, algorithm, k, 0, chains=SMALL.chains())

    def test_unknown_algorithm(self):
        array = from_dense(np.zeros((1, 4, 4), dtype=np.uint8))
        with pytest.raises(ValueError, match="unknown algorithm"):
            recover(array, "louvain", 2, 0)

    @pytest.mark.parametrize("algorithm", ["online", "online-learn"])
    def test_init_refused_unless_known(self, algorithm):
        # a typo must not run the random start in its place
        array = from_dense(np.zeros((2, 4, 4), dtype=np.uint8))
        with pytest.raises(ValueError, match="unknown init 'spectal'"):
            recover(array, algorithm, 2, 0, chains=SMALL.chains(), init="spectal")
        with pytest.raises(ValueError, match="unknown init 'spectal'"):
            ExperimentConfig(algorithm=algorithm, init="spectal")

    @pytest.mark.parametrize("algorithm", ["online", "online-learn"])
    def test_truth_init_needs_the_truth(self, algorithm):
        array = from_dense(np.zeros((2, 4, 4), dtype=np.uint8))
        with pytest.raises(ValueError, match="init 'truth' needs the true labels"):
            recover(array, algorithm, 2, 0, chains=SMALL.chains(), init="truth")
        labels, _ = recover(array, algorithm, 2, 0, chains=SMALL.chains(), init="truth",
                            truth=np.array([0, 1, 0, 1]))
        assert labels.shape == (4,)

    def test_experiment_init_choices_are_the_harness_inits(self, capsys):
        for init in harness.INITS:
            assert ExperimentConfig(init=init).init == init
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--init", "spectal"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'spectal'" in err
        assert all(repr(init) in err.split("choose from")[1] for init in harness.INITS)


class TestSpectralMatrix:
    def test_builders_match_their_dense_definitions(self):
        rng = np.random.default_rng(0)
        upper = np.triu(rng.random((3, 6, 6)) < 0.5, 1).astype(np.uint8)
        data = upper + upper.transpose(0, 2, 1)
        arr = from_dense(data)
        union = (data != 0).any(axis=0).astype(np.uint8)
        squared = sum(a @ a - np.diag(a.sum(axis=1)) for a in data.astype(np.float64))
        for algorithm, want in (("spectral", union), ("spectral-union", union),
                                ("spectral-aggregate", data.sum(axis=0)),
                                ("spectral-squared", squared)):
            assert np.array_equal(spectral_matrix(arr, algorithm), want), algorithm
        with pytest.raises(ValueError):
            spectral_matrix(arr, "online")


class TestCLI:
    @pytest.mark.parametrize("n", ["0", "1"])
    def test_experiment_absolute_units_need_two_nodes(self, capsys, n):
        # every unit needs two nodes, and the message names N, whatever the units
        rc = main(["experiment", "--n", n, "--units", "absolute", "--mu1", "0.1", "--nu1",
                   "0.05", "--p11", "0.7", "--q11", "0.3", "--trials", "1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: need at least two nodes, got N={n}\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv,err", [
        ([], "mu1=2.5 (logn, density 0.804719) with p11=0.7: no stationary chain: "
             "implied p01=1.23625 > 1"),
        (["--mu1", "0.5", "--nu1", "3", "--q11", "0.2"],
         "nu1=3 (logn, density 0.965663) with q11=0.2: no stationary chain: "
         "implied p01=22.4983 > 1"),
    ], ids=["intra", "inter"])
    def test_infeasible_chain_names_its_keys(self, capsys, argv, err):
        # at N = 5 the default mu1 = 2.5 (log N / N units) with p11 = 0.7
        # implies p01 > 1; the line names the chain's keys, units and density
        assert main(["experiment", "--n", "5", "--trials", "1", *argv]) == 1
        assert capsys.readouterr().err == f"error: {err}\n"

    def test_generate_recover_round_trip(self, tmp_path, capsys):
        out = tmp_path / "demo.tsbm"
        rc = main([
            "generate", "--n", "80", "--k", "2", "--t", "8",
            "--mu1", "5", "--nu1", "1", "--p11", "0.7", "--q11", "0.3",
            "--seed", "4", "--out", str(out),
        ])
        assert rc == 0
        arr = read_snapshots(out)
        arr.validate()
        assert arr.N == 80 and arr.T == 8
        sidecar = read_labels(str(out) + ".labels")
        assert np.array_equal(sidecar, arr.labels)

        est = tmp_path / "est.labels"
        rc = main([
            "recover", "--input", str(out), "--algorithm", "online", "--k", "2",
            "--mu1", "5", "--nu1", "1", "--p11", "0.7", "--q11", "0.3",
            "--truth", str(out) + ".labels", "--out", str(est), "--seed", "1",
        ])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "accuracy" in printed
        value = float(printed.strip().split()[-1])
        assert len(printed.strip().split()[-1].split(".")[-1]) == 4  # 4 decimals
        assert value >= 0.9
        assert read_labels(est).shape == (80,)

    def test_recover_missing_params_usage_error(self, tmp_path):
        out = tmp_path / "d.tsbm"
        main([
            "generate", "--n", "30", "--k", "2", "--t", "4",
            "--mu1", "5", "--nu1", "1", "--p11", "0.7", "--q11", "0.3",
            "--out", str(out),
        ])
        with pytest.raises(SystemExit) as exc:
            main(["recover", "--input", str(out), "--algorithm", "online"])
        assert exc.value.code == 2

    def test_eigensolver_failure_exits_one(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "d.tsbm"
        assert main(["generate", "--n", "40", "--k", "2", "--t", "3", "--mu1", "5",
                     "--nu1", "1", "--p11", "0.7", "--q11", "0.3", "--out", str(out)]) == 0
        capsys.readouterr()

        def no_convergence(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((40, 0)))

        monkeypatch.setattr(spectral, "eigsh", no_convergence)
        assert main(["recover", "--input", str(out), "--algorithm", "spectral", "--k", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: eigensolver did not converge") and err.count("\n") == 1

    @pytest.mark.parametrize("algorithm", ["online", "rates"])
    def test_recover_categorical_params_cannot_drive_chains(self, tmp_path, capsys, algorithm):
        out = tmp_path / "d.tsbm"
        out.write_text("tsbm 1 4 2\ne 1 0 1\n")
        with pytest.raises(SystemExit) as exc:
            main(["recover", "--input", str(out), "--algorithm", algorithm,
                  "--f", "0.5,0.5", "--g", "0.9,0.1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--mu1/--nu1/--p11/--q11" in err

    @pytest.mark.parametrize(
        "algorithm", ["spectral-union", "spectral-aggregate", "spectral-squared"]
    )
    def test_recover_spectral_variants(self, tmp_path, capsys, algorithm):
        graph, est = tmp_path / "g.tsbm", tmp_path / "est.labels"
        main(["generate", "--n", "60", "--k", "2", "--t", "5", "--mu1", "5", "--nu1", "1",
              "--p11", "0.7", "--q11", "0.3", "--seed", "3", "--out", str(graph)])
        rc = main(["recover", "--input", str(graph), "--algorithm", algorithm, "--k", "2",
                   "--seed", "4", "--out", str(est)])
        assert rc == 0
        assert capsys.readouterr().err == ""
        want = spectral_cluster(spectral_matrix(read_snapshots(graph), algorithm), 2,
                                derive_seed(4, 4))
        assert np.array_equal(read_labels(est), want)

    @pytest.mark.parametrize("algorithm", ["rates", "friends", "enemies", "spectral"])
    def test_recover_reports_estimated_blocks(self, tmp_path, capsys, algorithm):
        # the baselines choose their own block count and print it
        chain = ["--mu1", "5", "--nu1", "1", "--p11", "0.7", "--q11", "0.3"]
        graph = tmp_path / "g.tsbm"
        main(["generate", "--n", "30", "--k", "2", "--t", "4", "--seed", "2",
              "--out", str(graph)] + chain)
        capsys.readouterr()
        assert main(["recover", "--input", str(graph), "--algorithm", algorithm] + chain) == 0
        out = capsys.readouterr().out.splitlines()
        reported = [line for line in out if line.startswith("estimated blocks: ")]
        assert len(reported) == (algorithm != "spectral")

    @pytest.mark.parametrize("algorithm", ["refine", "refine-loo", "mle"])
    @pytest.mark.parametrize("graph,params", [
        ("tsbm 1 4 2\ne 1 0 1 3\ne 2 0 1 2\ne 1 2 3\n",
         ["--mu1", "0.5", "--nu1", "0.3", "--p11", "0.5", "--q11", "0.3", "--units", "absolute"]),
        ("tsbm 1 4 1\ne 1 0 1 3\ne 1 2 3\n", ["--f", "0.5,0.5", "--g", "0.7,0.3"]),
    ], ids=["markov", "categorical"])
    def test_recover_kernel_rejects_foreign_symbol(self, tmp_path, capsys, algorithm, graph,
                                                   params):
        # symbol 3 is outside both the binary Markov chain and the 2-symbol alphabet
        path = tmp_path / "g.tsbm"
        path.write_text(graph)
        rc = main(["recover", "--input", str(path), "--algorithm", algorithm] + params)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "symbol 3" in err

    @pytest.mark.parametrize("algorithm", ["online", "online-learn", "rates"])
    def test_recover_markov_algorithms_reject_symbols_above_one(self, tmp_path, capsys,
                                                                algorithm):
        path = tmp_path / "g.tsbm"
        path.write_text("tsbm 1 4 2\ne 1 0 1 3\ne 2 0 1 2\ne 1 2 3\n")
        rc = main(["recover", "--input", str(path), "--algorithm", algorithm, "--mu1", "0.5",
                   "--nu1", "0.3", "--p11", "0.5", "--q11", "0.3", "--units", "absolute"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "needs 0/1 snapshots, got symbol 3" in err

    def test_recover_alphabet_mismatch_names_the_flags(self, tmp_path, capsys):
        path = tmp_path / "g.tsbm"
        path.write_text("tsbm 1 4 1\ne 1 0 1 2\n")
        with pytest.raises(SystemExit) as exc:
            main(["recover", "--input", str(path), "--algorithm", "refine",
                  "--f", "0.5,0.5", "--g", "0.2,0.3,0.5"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            "error: --f and --g need alphabets of one size, got 2 and 3 symbols\n")

    def test_recover_random_init_needs_k_at_most_n(self, tmp_path, capsys):
        path = tmp_path / "g.tsbm"
        path.write_text("tsbm 1 3 2\ne 1 0 1\n")
        rc = main(["recover", "--input", str(path), "--algorithm", "online-learn",
                   "--init", "random", "--k", "4"])
        assert rc == 1
        assert capsys.readouterr().err == "error: need 1 <= K <= N, got K=4, N=3\n"

    @pytest.mark.parametrize("algorithm", [
        ["spectral"],
        ["online", "--mu1", "3", "--nu1", "1.5", "--p11", "0.7", "--q11", "0.3"],
    ])
    def test_recover_spectral_needs_k_at_most_n(self, tmp_path, capsys, algorithm):
        path = tmp_path / "g.tsbm"
        path.write_text("tsbm 1 30 2\ne 1 0 1\ne 2 3 4\n")
        rc = main(["recover", "--input", str(path), "--algorithm", *algorithm, "--k", "31",
                   "--out", str(tmp_path / "est.labels")])
        assert rc == 1
        assert capsys.readouterr().err == "error: need 1 <= K <= N, got K=31, N=30\n"
        assert not (tmp_path / "est.labels").exists()

    @pytest.mark.parametrize("t", ["0", "-2"])
    @pytest.mark.parametrize("command", [
        ["divergence"],
        ["generate", "--n", "10", "--k", "2", "--out", "g.tsbm"],
        ["experiment", "--n", "10", "--k", "2", "--trials", "1", "--algorithm", "online"],
    ], ids=["divergence", "generate", "experiment"])
    def test_commands_need_a_snapshot(self, tmp_path, capsys, monkeypatch, command, t):
        monkeypatch.chdir(tmp_path)
        rc = main([*command, "--t", t, "--mu1", "3", "--nu1", "1.5", "--p11", "0.7",
                   "--q11", "0.3"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: need at least one snapshot, got T={t}\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command", [
        ["threshold", "--mu1", "3", "--nu1", "1.5", "--grid-steps", "3"],
        ["threshold", "--mu1", "3", "--nu1", "1.5", "--p11", "0.7", "--q11", "0.3"],
        ["divergence", "--t", "5", "--mu1", "3", "--nu1", "1.5", "--p11", "0.7", "--q11", "0.3"],
    ], ids=["threshold-grid", "threshold", "divergence"])
    def test_commands_need_two_blocks(self, capsys, command):
        assert main([*command, "--k", "1"]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: need at least two blocks, got K=1\n")

    def test_generate_needs_k_at_most_n(self, tmp_path, capsys):
        rc = main(["generate", "--n", "60", "--k", "61", "--t", "3", "--mu1", "5", "--nu1",
                   "1", "--p11", "0.7", "--q11", "0.3", "--out", str(tmp_path / "g.tsbm")])
        assert rc == 1
        assert capsys.readouterr().err == "error: need 1 <= K <= N, got K=61, N=60\n"

    def test_generate_names_sizes_past_int64_indices_or_memory(self, tmp_path, capsys,
                                                               monkeypatch):
        argv = ["generate", "--k", "2", "--mu1", "3", "--nu1", "1.5", "--p11", "0.7", "--q11",
                "0.3", "--out", str(tmp_path / "g.tsbm")]
        assert main([*argv, "--n", "3037000500", "--t", "1"]) == 1
        assert capsys.readouterr().err == (
            "error: --n 3037000500 and --t 1 give flat indices beyond int64\n")

        def out_of_memory(*args):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr(harness, "sample_instance", out_of_memory)
        assert main([*argv, "--n", "10", "--t", str(10**12)]) == 1
        assert capsys.readouterr().err == (
            "error: --n 10 and --t 1000000000000 take more memory than this process has: "
            "Unable to allocate 7.28 TiB\n")
        assert os.listdir(tmp_path) == []

    def test_package_runs_the_command_line(self):
        import tsbm.__main__

        assert tsbm.__main__.main is main

    @pytest.mark.parametrize("k", ["0", "-1"])
    @pytest.mark.parametrize("algorithm", harness.ALGORITHMS)
    def test_recover_needs_at_least_one_cluster(self, tmp_path, capsys, algorithm, k):
        path = tmp_path / "g.tsbm"
        path.write_text("tsbm 1 30 2\ne 1 0 1\ne 2 3 4\n")
        rc = main(["recover", "--input", str(path), "--algorithm", algorithm, "--k", k,
                   "--mu1", "3", "--nu1", "1.5", "--p11", "0.7", "--q11", "0.3"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: need at least one cluster, got K={k}\n"

    def test_recover_mle_refuses_a_huge_header_by_k_and_n(self, tmp_path, capsys):
        # K^N at N = 20,000 has 6,021 digits, over Python's limit for
        # formatting an int; the budget check neither forms nor formats it
        path = tmp_path / "g.tsbm"
        path.write_text("tsbm 1 20000 10\n")
        start = time.perf_counter()
        rc = main(["recover", "--input", str(path), "--algorithm", "mle", "--mu1", "3",
                   "--nu1", "1.5", "--p11", "0.7", "--q11", "0.3"])
        assert time.perf_counter() - start < 1.0
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: mle enumerates K^N labellings, more than its budget of 1000000 "
            "at K=2, N=20000\n")

    def test_recover_large_sparse_file_in_small_memory(self, tmp_path, capsys):
        # N = 50,000 and T = 5 would be a 12.5 GB dense tensor; the sparse
        # reader and online step need memory for the edges and O(N K) only
        import tracemalloc

        rng = np.random.default_rng(0)
        lines = ["tsbm 1 50000 5"]
        for t in range(1, 6):
            pairs = {tuple(sorted(p)) for p in rng.integers(0, 50000, (80, 2)) if p[0] != p[1]}
            lines += [f"e {t} {i} {j}" for i, j in sorted(pairs)]
        graph = tmp_path / "big.tsbm"
        graph.write_text("\n".join(lines) + "\n")
        tracemalloc.start()
        try:
            rc = main(["recover", "--input", str(graph), "--algorithm", "online",
                       "--init", "random", "--k", "2", "--mu1", "3", "--nu1", "1.5",
                       "--p11", "0.7", "--q11", "0.3", "--out", str(tmp_path / "est.labels")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < 64 * 2**20
        assert read_labels(tmp_path / "est.labels").shape == (50000,)

    def test_recover_header_beyond_memory_exit_code(self, tmp_path):
        # the spectral graph of a 10^8-node header takes O(N) memory, several
        # GB; in a child under a 1 GB address-space limit numpy refuses its
        # first such array up front, and the command exits 1 with one line
        path = tmp_path / "huge.tsbm"
        path.write_text("tsbm 1 100000000 100\n")
        src = os.path.dirname(os.path.dirname(tsbm.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "tsbm", "recover", "--input", str(path), "--algorithm",
             "spectral"], env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            timeout=120, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30,) * 2))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("algorithm,blocks", [("friends", 0), ("enemies", 10**6)])
    def test_recover_header_only_file_at_n_million(self, tmp_path, capsys, algorithm, blocks):
        # the pair-count baselines allocate O(N + edges), never N x N
        path = tmp_path / "empty.tsbm"
        path.write_text("tsbm 1 1000000 1000\n")
        rc = main(["recover", "--input", str(path), "--algorithm", algorithm])
        assert rc == 0
        assert capsys.readouterr().out == f"estimated blocks: {blocks}\n"

    @pytest.mark.parametrize("symbol", ["-3", "99999999999999999999"])
    def test_recover_symbol_out_of_range_exit_code(self, tmp_path, capsys, symbol):
        path = tmp_path / "bad.tsbm"
        path.write_text(f"tsbm 1 3 1\ne 1 0 1 {symbol}\n")
        rc = main(["recover", "--input", str(path), "--algorithm", "friends"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 2: ") and err.count("\n") == 1

    @pytest.mark.parametrize("record", ["labels 1 2 99999999999999999999", "labels 1 x 2"])
    def test_recover_bad_labels_exit_code(self, tmp_path, capsys, record):
        path = tmp_path / "bad.tsbm"
        path.write_text(f"tsbm 1 3 1\n{record}\n")
        rc = main(["recover", "--input", str(path), "--algorithm", "friends"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 2: ") and err.count("\n") == 1

    def test_recover_nan_probability_exit_code(self, tmp_path, capsys):
        path = tmp_path / "g.tsbm"
        path.write_text("tsbm 1 4 1\ne 1 0 1\ne 1 2 3\n")
        rc = main(["recover", "--input", str(path), "--algorithm", "refine",
                   "--f", "nan,0.5", "--g", "0.9,0.1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("flag,text,reason", [
        ("--f", ",,", "could not convert string to float: ''"),
        ("--f", "0.2,0.2", "probabilities sum to 0.4, not 1"),
        ("--f", "0.5,nan", "probability entry negative or NaN"),
        ("--g", "0.3", "probabilities sum to 0.3, not 1"),
    ])
    def test_recover_bad_distribution_names_the_flag(self, tmp_path, capsys, flag, text,
                                                     reason):
        path = tmp_path / "g.tsbm"
        path.write_text("tsbm 1 4 1\ne 1 0 1\ne 1 2 3\n")
        dists = {"--f": "0.5,0.5", "--g": "0.9,0.1", flag: text}
        rc = main(["recover", "--input", str(path), "--algorithm", "refine",
                   *(x for item in dists.items() for x in item)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {flag} {text!r}: {reason}\n"

    def test_recover_duplicate_labels_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.tsbm"
        path.write_text("tsbm 1 3 1\nlabels 1 2 1\nlabels 2 2 2\n")
        rc = main(["recover", "--input", str(path), "--algorithm", "friends"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 3: ") and err.count("\n") == 1

    def test_recover_empty_truth_exit_code(self, tmp_path, capsys):
        path, truth = tmp_path / "g.tsbm", tmp_path / "t.labels"
        path.write_text("tsbm 1 3 1\ne 1 0 1\n")
        truth.write_text("labels\n")
        rc = main(["recover", "--input", str(path), "--algorithm", "friends",
                   "--truth", str(truth)])
        assert rc == 1
        captured = capsys.readouterr()
        assert "accuracy" not in captured.out
        assert captured.err == f"error: --truth {truth} gives 0 labels for 3 nodes\n"

    @pytest.mark.parametrize("text,reason", [
        ("tsbm 1 4 1\ne 1 0 1\n", "line 1: expected a labels line, got 'tsbm'"),
        ("labels 1 x 2 1\n", "line 1: label 'x' is not an integer"),
    ], ids=["snapshot-file", "non-integer-label"])
    def test_recover_bad_truth_names_flag_and_file(self, tmp_path, capsys, text, reason):
        # the truth file's format errors name --truth and the file, since
        # --input is a file with a line 1 too
        path, truth = tmp_path / "g.tsbm", tmp_path / "t.labels"
        path.write_text("tsbm 1 4 1\ne 1 0 1\n")
        truth.write_text(text)
        rc = main(["recover", "--input", str(path), "--algorithm", "friends",
                   "--truth", str(truth)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --truth {truth}: {reason}\n"

    def test_recover_checks_truth_length_before_recovering(self, tmp_path, capsys,
                                                            monkeypatch):
        # a wrong-length --truth is refused before the recovery runs, in a
        # line naming the flag, the file and both counts
        path, truth = tmp_path / "g.tsbm", tmp_path / "t.labels"
        path.write_text("tsbm 1 10 1\ne 1 0 1\n")
        truth.write_text("labels 1 2 1\n")

        def recover(*args, **kwargs):
            raise AssertionError("recovery ran")

        monkeypatch.setattr(harness, "recover", recover)
        rc = main(["recover", "--input", str(path), "--algorithm", "friends",
                   "--truth", str(truth)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --truth {truth} gives 3 labels for 10 nodes\n"

    @pytest.mark.parametrize(
        "extra",
        [
            ["--n", "1"],
            ["--n", "0", "--p11", "0.7", "--q11", "0.3"],
            ["--mu1", "0"],
            ["--p11", "1.5", "--q11", "0.3"],
            ["--q11", "nan", "--p11", "0.7"],
        ],
    )
    def test_threshold_bad_inputs_exit_code(self, capsys, extra):
        rc = main(["threshold", "--mu1", "2.5", "--nu1", "1.5", "--grid-steps", "3"] + extra)
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        if extra[0] in ("--p11", "--q11"):
            # a bad persistence is named by its flag, not by the p01 it implies
            assert captured.err.startswith(f"error: {extra[0][2:]}={extra[1]} ")

    @pytest.mark.parametrize("extra", [
        ["--p11", "0.7"],
        ["--q11", "0.3"],
        ["--grid-steps", "0"],
        ["--grid-steps", "-2"],
        ["--t-max", "0"],
        ["--p11", "0.7", "--q11", "0.3", "--t-max", "-3"],
        ["--grid-min", "-0.5"],
        ["--grid-max", "1.5"],
    ])
    def test_threshold_usage_error(self, capsys, extra):
        # a lone --p11 or --q11 would silently print the whole grid, no grid
        # step would print a header-only CSV, and no snapshot would print inf
        with pytest.raises(SystemExit) as exc:
            main(["threshold", "--mu1", "2.5", "--nu1", "1.5"] + extra)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("flag, value, shown", [
        ("--grid-min", "-1", "-1"), ("--grid-max", "inf", "inf"), ("--grid-max", "nan", "nan"),
    ])
    def test_threshold_grid_ends_are_named_by_their_flag(self, capsys, flag, value, shown):
        with pytest.raises(SystemExit) as exc:
            main(["threshold", "--mu1", "2.5", "--nu1", "1.5", flag, value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag} must lie in [0, 1], got {shown}\n"

    @pytest.mark.parametrize("t_max", ["0", "-3"])
    def test_divergence_t_max_usage_error(self, capsys, t_max):
        with pytest.raises(SystemExit) as exc:
            main(["divergence", "--t", "5", "--mu1", "1.5", "--nu1", "1.5", "--p11", "0.7",
                  "--q11", "0.3", "--t-max", t_max])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --t-max must be at least 1, got {t_max}\n"

    def test_python_m_runs_cli(self):
        src = os.path.dirname(os.path.dirname(tsbm.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-m", "tsbm", "--help"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0 and proc.stdout.startswith("usage: tsbm")

    def test_runtime_failure_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "missing.tsbm"
        rc = main([
            "recover", "--input", str(missing), "--algorithm", "friends",
        ])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_divergence_report_and_json(self, tmp_path, capsys):
        json_out = tmp_path / "report.json"
        rc = main([
            "divergence", "--n", "500", "--k", "2", "--t", "13",
            "--mu1", "1.5", "--nu1", "1.5", "--p11", "0.7", "--q11", "0.3",
            "--json", str(json_out),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "T* (exact convention)" in out and "13" in out
        blob = json.loads(json_out.read_text())
        assert blob["t_star_exact"] == 13
        # boundary behaviour: the squared Hellinger divergence crosses the
        # threshold at T = 13 and not at T = 12
        intra = chain_from_stationary(1.5 * math.log(500) / 500, 0.7)
        inter = chain_from_stationary(1.5 * math.log(500) / 500, 0.3)
        r12 = divergence_report(intra, inter, 500, 2, 12)
        thr = 2 * math.log(500) / 500
        assert r12.hellinger_sq < thr <= blob["hellinger_sq"]

    def test_divergence_report_long_horizon(self, capsys):
        # every path-law sum is O(log T), so a million snapshots stay quick
        start = time.perf_counter()
        rc = main([
            "divergence", "--t", "1000000",
            "--mu1", "4", "--nu1", "1.5", "--p11", "0.7", "--q11", "0.3",
        ])
        assert rc == 0
        assert time.perf_counter() - start < 5.0
        assert "T* (exact convention)" in capsys.readouterr().out

    def test_threshold_single_and_grid(self, tmp_path, capsys):
        rc = main([
            "threshold", "--n", "500", "--k", "2",
            "--mu1", "4.0", "--nu1", "1.5", "--p11", "0.7", "--q11", "0.3",
        ])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "11"
        grid_out = tmp_path / "grid.csv"
        rc = main([
            "threshold", "--n", "200", "--k", "2", "--mu1", "2.0", "--nu1", "2.0",
            "--grid-min", "0.3", "--grid-max", "0.7", "--grid-steps", "3",
            "--t-max", "2000", "--out", str(grid_out),
        ])
        assert rc == 0
        lines = grid_out.read_text().strip().splitlines()
        assert lines[0] == "p11,q11,log10_tstar"
        assert len(lines) == 1 + 9
        assert any(line.endswith("inf") for line in lines[1:])  # diagonal cells

    def test_experiment_deterministic_csv(self, tmp_path):
        args = [
            "experiment", "--n", "60", "--k", "2", "--t", "5",
            "--mu1", "5", "--nu1", "1", "--p11", "0.7", "--q11", "0.3",
            "--algorithm", "online", "--init", "random",
            "--trials", "3", "--seed", "2", "--deterministic",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2), "--jobs", "2"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_experiment_config_file(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "[model]\nn = 50\nk = 2\nt = 4\nmu1 = 5\nnu1 = 1\np11 = 0.7\nq11 = 0.3\n"
            "[run]\nalgorithm = online\ninit = random\ntrials = 2\nseed = 1\n"
        )
        out = tmp_path / "exp.csv"
        rc = main([
            "experiment", "--config", str(cfg), "--deterministic", "--out", str(out)
        ])
        assert rc == 0
        text = out.read_text()
        assert "# n = 50" in text
        # CLI flags override file values
        rc = main([
            "experiment", "--config", str(cfg), "--trials", "1",
            "--deterministic", "--out", str(out),
        ])
        assert rc == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(rows) == 1 + 4  # header + one trial of four snapshots
        # --units overrides the file too, even when it names the default
        cfg.write_text(cfg.read_text().replace("[run]\n", "units = absolute\n[run]\n"))
        rc = main([
            "experiment", "--config", str(cfg), "--units", "logn", "--trials", "1",
            "--deterministic", "--out", str(out),
        ])
        assert rc == 0
        assert "# units = logn" in out.read_text()

    @pytest.mark.parametrize("key,value,shown", [
        ("n", "60", "60"), ("k", "3", "3"), ("t", "4", "4"), ("mu1", "3", "3.0"),
        ("nu1", "1", "1.0"), ("p11", "0.6", "0.6"), ("q11", "0.2", "0.2"),
        ("units", "inv_n", "inv_n"), ("algorithm", "rates", "rates"),
        ("init", "spectral", "spectral"), ("balanced", None, "True"), ("trials", "2", "2"),
        ("seed", "3", "3"),
    ])
    def test_experiment_flag_alone_reaches_the_config(self, tmp_path, key, value, shown):
        # each config flag, the others left at ExperimentConfig's defaults
        out = tmp_path / "exp.csv"
        flag = ["--" + key] if value is None else ["--" + key, value]
        assert main(["experiment", *flag, "--deterministic", "--out", str(out)]) == 0
        assert f"# {key} = {shown}\n" in out.read_text()

    @pytest.mark.parametrize("text,line", [
        ("[model]\nn = 60\n[run]\nalgorithm = friends\nn = 80\n", 5),
        ("[model]\nn = 60\nk = 2\nn = 80\n", 4),
    ])
    def test_experiment_config_key_set_twice_exit_code(self, tmp_path, capsys, text, line):
        # the sections are flattened into one config, so a second value
        # would silently replace the first
        cfg, out = tmp_path / "exp.cfg", tmp_path / "exp.csv"
        cfg.write_text(text)
        rc = main(["experiment", "--config", str(cfg), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: line {line}: 'n' already set on line 2\n"
        assert not out.exists()

    @pytest.mark.parametrize("line,value", [
        ("n = abc", "'abc'"), ("trials = 1.5", "'1.5'"), ("k = 2.5", "'2.5'"),
        ("balanced = no", "'no'"), ("synchronous = maybe", "'maybe'"), ("seed = 1e3", "'1e3'"),
        ("t = true", "'true'"), ("mu1 = false", "'false'"), ("mu1 = much", "'much'"),
        ("balanced = 1", "'1'"),
    ])
    def test_experiment_config_value_of_the_wrong_type_exit_code(self, tmp_path, capsys, line,
                                                                 value):
        cfg, out = tmp_path / "exp.cfg", tmp_path / "exp.csv"
        cfg.write_text(f"[run]\n{line}\n")
        rc = main(["experiment", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1 and "Traceback" not in err and len(err.splitlines()) == 1
        assert err.startswith(f"error: config key {line.split()[0]!r}") and value in err
        assert not out.exists()

    def test_experiment_config_file_and_flags_give_the_same_csv(self, tmp_path):
        # an integer-valued float from the file is stored as the flag's float
        cfg, a, b = tmp_path / "exp.cfg", tmp_path / "a.csv", tmp_path / "b.csv"
        cfg.write_text("n = 40\nt = 3\nmu1 = 3\nnu1 = 1\np11 = 1\ntrials = 1\n")
        assert main(["experiment", "--config", str(cfg), "--deterministic", "--out", str(a)]) == 0
        flags = ["--n", "40", "--t", "3", "--mu1", "3", "--nu1", "1", "--p11", "1",
                 "--trials", "1"]
        assert main(["experiment", *flags, "--deterministic", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert "# mu1 = 3.0\n" in a.read_text()
        # a str field keeps the file's text, digits or not
        cfg.write_text(cfg.read_text() + "name = 2024\n")
        assert main(["experiment", "--config", str(cfg), "--deterministic", "--out", str(a)]) == 0
        assert "# name = 2024\n" in a.read_text()

    def test_experiment_config_checks_python_values(self):
        assert ExperimentConfig(mu1=3, trials=np.int64(2)).mu1 == 3.0
        assert type(ExperimentConfig(mu1=3).mu1) is float
        for bad in (dict(n=True), dict(n=40.0), dict(balanced=1), dict(name=2024)):
            with pytest.raises(ValueError, match=f"config key {next(iter(bad))!r} needs"):
                ExperimentConfig(**bad)

    def test_replicate_figure_four_bundle(self, tmp_path):
        out_dir = tmp_path / "fig4"
        rc = main([
            "replicate-figure", "--figure", "4", "--out", str(out_dir),
            "--trials", "1", "--deterministic",
        ])
        assert rc == 0
        files = sorted(os.listdir(out_dir))
        assert len(files) == 6
        assert any("random" in f for f in files) and any("spectral" in f for f in files)

    def test_replicate_figure_zero_trials_exit_code(self, tmp_path, capsys):
        # 0 is not "use the figure's default"; it fails before any trial runs
        out_dir = tmp_path / "fig5"
        rc = main(["replicate-figure", "--figure", "5", "--out", str(out_dir), "--trials", "0"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == "error: need at least one trial\n"
        assert captured.out == "" and not out_dir.exists()

    @pytest.mark.parametrize("command,jobs", [
        (["experiment", "--n", "20", "--trials", "2"], "0"),
        (["experiment", "--n", "20", "--trials", "2"], "-3"),
        (["replicate-figure", "--figure", "2"], "0"),
        (["replicate-figure", "--figure", "5", "--trials", "1"], "-1"),
    ])
    def test_jobs_below_one_usage_error(self, tmp_path, capsys, command, jobs):
        # no worker count below one means "serial"; the run never starts
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(command + ["--out", str(out), "--jobs", jobs])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --jobs must be at least 1, got {jobs}\n"
        assert not out.exists()

    def test_refine_loo_needs_k_below_n(self, tmp_path, capsys):
        # each leave-one-out minor holds N - 1 = 2 nodes, too few for K = 3
        out = tmp_path / "out.csv"
        rc = main(["experiment", "--n", "3", "--k", "3", "--t", "2", "--mu1", "0.5",
                   "--nu1", "0.2", "--p11", "0.7", "--q11", "0.3", "--units", "absolute",
                   "--algorithm", "refine-loo", "--trials", "1", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: leave-one-out refinement needs K <= N - 1: each minor has 2 nodes, "
            "got K = 3\n")
        assert not out.exists()


# The child's own peak RSS in KB.  Its ru_maxrss would not do: Linux
# carries the peak of the process that spawned it through exec, so a long
# pytest run's peak would show up as the child's.
CHILD_PEAK_KB = ("rss = next(int(line.split()[1]) for line in open('/proc/self/status')\n"
                 "           if line.startswith('VmHWM:'))\n")


def _run_child(code, timeout):
    """Standard output of ``code`` run by a fresh interpreter on this
    ``src``; a failed run shows its return code and the end of its stderr."""
    src = os.path.dirname(os.path.dirname(tsbm.__file__))
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, f"exit {proc.returncode}: {proc.stderr[-2000:]}"
    return proc.stdout


# scipy packages that only ham_star at K > 8, renyi and the component
# baselines use; each is imported by its caller on first use
FIRST_USE_MODULES = ("scipy.optimize", "scipy.special", "scipy.sparse.csgraph")


def test_commands_leave_first_use_modules_unimported(tmp_path):
    # the commands and a figure load none of them, and each first use
    # loads its module and gives what this process computes
    path = str(tmp_path / "g.tsbm")
    chain = ["--mu1", "5", "--nu1", "1", "--p11", "1", "--q11", "0.1"]  # two persistent blocks
    commands = [
        ["generate", "--n", "60", "--k", "2", "--t", "4", *chain, "--out", path],
        ["recover", "--input", path, "--algorithm", "online", *chain,
         "--truth", path + ".labels"],
        ["threshold", "--mu1", "3", "--nu1", "1", "--grid-steps", "1"],
        ["divergence", "--t", "4", *chain],
        ["replicate-figure", "--figure", "2", "--out", str(tmp_path)],
    ]
    rng = np.random.default_rng(5)
    s1, s2 = rng.integers(0, 9, 200), rng.integers(0, 9, 200)
    s1[0] = 8  # nine labels: the assignment branch
    f, g = [0.5, 0.3, 0.2], [0.2, 0.2, 0.6]
    code = (
        "import contextlib, io, json, sys\n"
        "from tsbm.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(argv) for argv in {commands!r}]\n"
        f"before = [m for m in {FIRST_USE_MODULES!r} if m in sys.modules]\n"
        "from tsbm.divergence import FiniteDistribution, renyi\n"
        "from tsbm.metrics import ham_star\n"
        "from tsbm.recovery import persistent_components\n"
        "from tsbm.sbm import read_snapshots\n"
        f"d, perm = ham_star({s1.tolist()}, {s2.tolist()})\n"
        f"r = renyi(0.5, FiniteDistribution({f}), FiniteDistribution({g}))\n"
        f"labels, k_hat = persistent_components(read_snapshots({path!r}))\n"
        f"after = [m for m in {FIRST_USE_MODULES!r} if m in sys.modules]\n"
        "print(json.dumps([codes, before, after, d, perm.tolist(), r.hex(),\n"
        "                  labels.tolist(), k_hat]))\n"
    )
    codes, before, after, d, perm, r, labels, k_hat = json.loads(_run_child(code, 120))
    assert codes == [0] * len(commands)
    assert before == []
    assert after == list(FIRST_USE_MODULES)
    from tsbm.divergence import FiniteDistribution, renyi
    from tsbm.metrics import ham_star
    from tsbm.recovery import persistent_components

    want_d, want_perm = ham_star(s1, s2)
    assert (d, perm) == (want_d, want_perm.tolist())
    assert r == renyi(0.5, FiniteDistribution(f), FiniteDistribution(g)).hex()
    want_labels, want_k = persistent_components(read_snapshots(path))
    assert (labels, k_hat) == (want_labels.tolist(), want_k)
    assert k_hat == 2


@pytest.mark.slow
@pytest.mark.parametrize("algorithm", ["online", "online-learn"])
def test_online_trial_at_n_20000(algorithm):
    # spectral init on binarize's CSR graph and the sparse online step
    # keep an N=20,000, T=30 trial far below the 3.2 GB of one dense
    # float64 N x N matrix; a subprocess gives the trial its own peak RSS.
    # The learner is gated on memory alone, as the offline trials below
    # are: its estimates are checked against references at small N.
    code = (
        "import time\n"
        "from tsbm import harness\n"
        "from tsbm.harness import ExperimentConfig, run_trial\n"
        "sample, spent = harness.sample_markov_snapshots, []\n"
        "def timed(*args, **kwargs):\n"
        "    start = time.perf_counter()\n"
        "    out = sample(*args, **kwargs)\n"
        "    spent.append(time.perf_counter() - start)\n"
        "    return out\n"
        "harness.sample_markov_snapshots = timed\n"
        "config = ExperimentConfig(n=20000, t=30, mu1=3.0, nu1=1.5, units='logn',\n"
        f"                          algorithm={algorithm!r}, init='spectral', trials=1)\n"
        "record = run_trial(config, 0)\n"
        + CHILD_PEAK_KB +
        "print(record.final_accuracy, record.seconds, sum(spent), rss)\n"
    )
    start = time.perf_counter()
    accuracy, seconds, sampling, rss_kb = map(float, _run_child(code, 1800).split())
    print(f"N=20000 T=30 {algorithm} trial: accuracy {accuracy}, "
          f"{time.perf_counter() - start:.1f} s in all, {sampling:.1f} s sampling, "
          f"{seconds:.1f} s recovering, peak RSS {rss_kb / 1024:.0f} MB")
    if algorithm == "online":
        assert accuracy >= 0.95
    assert rss_kb < 2 * 2**20


@pytest.mark.slow
@pytest.mark.parametrize("algorithm", ["refine", "rates", "friends", "enemies"])
def test_offline_trial_at_n_20000(algorithm):
    # these read the pair patterns from the sparse indices, so an N=20,000,
    # T=30 trial stays far below the 12 GB of the dense T x N x N tensor;
    # they score near 0.5 in this regime, so only memory is gated
    code = (
        "from tsbm.harness import ExperimentConfig, run_trial\n"
        "config = ExperimentConfig(n=20000, t=30, mu1=3.0, nu1=1.5, units='logn',\n"
        f"                          algorithm={algorithm!r}, trials=1)\n"
        "record = run_trial(config, 0)\n"
        + CHILD_PEAK_KB +
        "print(record.final_accuracy, record.seconds, rss)\n"
    )
    start = time.perf_counter()
    accuracy, seconds, rss_kb = map(float, _run_child(code, 1800).split())
    print(f"N=20000 T=30 {algorithm} trial: accuracy {accuracy}, "
          f"{time.perf_counter() - start:.1f} s in all, {seconds:.1f} s recovering, "
          f"peak RSS {rss_kb / 1024:.0f} MB")
    assert rss_kb < 2 * 2**20


@pytest.mark.slow
def test_cli_online_at_n_100000_from_a_random_start(tmp_path):
    # the scale chain at N = 100,000, T = 10 through a 13 M-edge file: the
    # reader keeps one int64 key per edge, and the child peaked at 911 MB
    # when it kept line numbers and three columns per edge
    path = str(tmp_path / "big.tsbm")
    chain = ["--mu1", "3", "--nu1", "1.5", "--p11", "0.7", "--q11", "0.3"]
    code = (
        "from tsbm.cli import main\n"
        f"assert main(['generate', '--n', '100000', '--k', '2', '--t', '10', *{chain!r},\n"
        f"             '--out', {path!r}]) == 0\n"
        f"assert main(['recover', '--input', {path!r}, '--algorithm', 'online',\n"
        f"             '--init', 'random', *{chain!r}, '--truth', {path + '.labels'!r}]) == 0\n"
        + CHILD_PEAK_KB +
        "print(rss)\n"
    )
    start = time.perf_counter()
    out = _run_child(code, 1800).split("\n")
    accuracy = float(next(line for line in out if line.startswith("accuracy ")).split()[1])
    rss_kb = int(out[-2])
    print(f"N=100000 T=10 generate and online recover: accuracy {accuracy}, "
          f"{time.perf_counter() - start:.1f} s, peak RSS {rss_kb / 1024:.0f} MB")
    assert accuracy >= 0.95
    assert rss_kb < 800 * 2**10


@pytest.mark.slow
def test_cli_online_at_n_100000_from_the_spectral_start(tmp_path):
    # the default start clusters snapshot 0 as a CSR graph built from its
    # entries; binarize's dense N x N matrix asked 9.31 GiB here
    path = str(tmp_path / "big.tsbm")
    chain = ["--mu1", "3", "--nu1", "1.5", "--p11", "0.7", "--q11", "0.3"]
    code = (
        "from tsbm.cli import main\n"
        f"assert main(['generate', '--n', '100000', '--k', '2', '--t', '10', *{chain!r},\n"
        f"             '--out', {path!r}]) == 0\n"
        f"assert main(['recover', '--input', {path!r}, '--algorithm', 'online', *{chain!r},\n"
        f"             '--truth', {path + '.labels'!r}]) == 0\n"
        + CHILD_PEAK_KB +
        "print(rss)\n"
    )
    start = time.perf_counter()
    out = _run_child(code, 1800).split("\n")
    accuracy = float(next(line for line in out if line.startswith("accuracy ")).split()[1])
    rss_kb = int(out[-2])
    print(f"N=100000 T=10 generate and online recover from the spectral start: accuracy "
          f"{accuracy}, {time.perf_counter() - start:.1f} s, peak RSS {rss_kb / 1024:.0f} MB")
    assert accuracy >= 0.95
    assert rss_kb < 2 * 2**20


@pytest.fixture(scope="module")
def scale_file(tmp_path_factory):
    """``tsbm generate --seed 1`` on the scale chain at N = 100,000, T = 10."""
    path = str(tmp_path_factory.mktemp("scale") / "big.tsbm")
    chain = ["--mu1", "3", "--nu1", "1.5", "--p11", "0.7", "--q11", "0.3"]
    _run_child("from tsbm.cli import main\n"
               f"assert main(['generate', '--n', '100000', '--k', '2', '--t', '10', *{chain!r},\n"
               f"             '--seed', '1', '--out', {path!r}]) == 0\n", 600)
    return path


@pytest.mark.slow
@pytest.mark.parametrize("algorithm", ["spectral-union", "spectral-aggregate", "spectral-squared"])
def test_cli_union_and_aggregate_graphs_at_n_100000(scale_file, algorithm):
    # each recover runs in a fresh child under a 4 GB address-space limit
    # and must exit 0 within 60 s.  On a 2-vCPU VM spectral-union took 37 s
    # when np.unique found its pairs, 10 s of them in building the graph,
    # and 32 s since; spectral-aggregate takes about 5 s.  spectral-squared
    # exited 1 after 18.7 s asking 3.47 GiB when it formed S^T S; products
    # with the stacked snapshots take about 7 s.  The union graph sees no
    # blocks on this chain (0.50), the other two score 0.99 or more
    src = os.path.dirname(os.path.dirname(tsbm.__file__))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "tsbm", "recover", "--input", scale_file, "--algorithm", algorithm],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (4 << 30,) * 2))
    assert proc.returncode == 0, f"exit {proc.returncode}: {proc.stderr[-2000:]}"
    accuracy = float(proc.stdout.split()[-1])
    print(f"N=100000 T=10 recover --algorithm {algorithm}: {accuracy} accuracy, "
          f"{time.perf_counter() - start:.1f} s")
    if algorithm != "spectral-union":
        assert accuracy >= 0.95


def test_rates_with_linked_quiet_pairs_stays_sparse():
    # at mu1 = 1.5, nu1 = 3 the pairs never set link (Q01 > 3 P01), so the
    # components come from the complement of the non-linked active pairs;
    # an N x N link mask took this N = 3000, T = 10 trial to 358 MB maxrss
    code = (
        "from tsbm.harness import ExperimentConfig, run_trial\n"
        "config = ExperimentConfig(n=3000, t=10, mu1=1.5, nu1=3.0, p11=0.7, q11=0.3,\n"
        "                          units='logn', algorithm='rates', trials=1)\n"
        "run_trial(config, 0)\n"
        + CHILD_PEAK_KB +
        "print(rss)\n"
    )
    assert int(_run_child(code, 600)) < 200 * 2**10


# Values for the numeric flags of ``threshold`` and ``divergence``: valid,
# boundary and invalid, as a user might type them.
_INT_VALUES = ["0", "-1", "1", "2", "3", "500", "nan", "inf", "x", "1.5", "1e3", str(10**30),
               str(2**63), "-" + str(10**30)]
_FLOAT_VALUES = ["0", "-1", "0.05", "0.3", "0.5", "0.7", "0.95", "1", "1.5", "3", "nan", "inf",
                 "-inf", "x", "1e308", "1e-300", "1e400", str(10**30)]
_GRID_STEPS = ["-1", "0", "1", "2", "19", "25", "nan", "x", "1.5"]  # at most 25 cells a side


def _flag(name, values, required=False):
    given_ = st.sampled_from(values).map(lambda v: [name, v])
    return given_ if required else st.one_of(st.just([]), given_)


def _argv(command):
    common = [_flag("--n", _INT_VALUES), _flag("--k", _INT_VALUES), _flag("--t-max", _INT_VALUES),
              _flag("--mu1", _FLOAT_VALUES, True), _flag("--nu1", _FLOAT_VALUES, True)]
    if command == "threshold":
        rest = [_flag("--p11", _FLOAT_VALUES), _flag("--q11", _FLOAT_VALUES),
                _flag("--grid-min", _FLOAT_VALUES), _flag("--grid-max", _FLOAT_VALUES),
                _flag("--grid-steps", _GRID_STEPS), _flag("--convention", ["exact", "itilde"])]
    else:
        rest = [_flag("--t", _INT_VALUES, True), _flag("--p11", _FLOAT_VALUES, True),
                _flag("--q11", _FLOAT_VALUES, True), _flag("--units", list(harness.UNITS))]
    return st.tuples(*common, *rest).map(lambda parts: [command, *sum(parts, [])])


def _run_main(argv):
    # main in-process: its exit code, stdout, stderr (with the traceback of
    # an exception it let through) and warning messages
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc = None
            err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


def _assert_clean(argv, rc, out, err, caught):
    # an exit code of 0, 1 or 2, no traceback and no warning, and on failure
    # one error line (argparse's usage lines may precede it)
    assert rc in (0, 1, 2), (argv, rc, err)
    assert "Traceback" not in err and not caught, (argv, err, caught)
    if rc == 0:
        assert err == "" and out, argv
    else:
        lines = err.splitlines()
        assert err.count("error:") == 1 and "error:" in lines[-1], (argv, err)
        assert rc == 2 or len(lines) == 1, (argv, err)


def _assert_clean_exit(argv):
    _assert_clean(argv, *_run_main(argv))


def _limited_mains(argvs, cwd):
    # ``_run_main`` on each command line in turn, in one child under a 1 GB
    # address-space limit, so that a huge allocation fails there
    src = os.path.dirname(os.path.dirname(tsbm.__file__))
    code = ("import contextlib, io, json, sys, traceback, warnings\n"
            "from tsbm.cli import main\n" + inspect.getsource(_run_main)
            + "json.dump([_run_main(argv) for argv in json.load(sys.stdin)], sys.stdout)\n")
    proc = subprocess.run(
        [sys.executable, "-c", code], input=json.dumps(argvs), cwd=cwd,
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30,) * 2))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# ``recover``'s file: N = 20 nodes, T = 4 snapshots, two blocks
_RECOVER_N = 20
_RECOVER_CHAIN = ["--mu1", "0.3", "--nu1", "0.1", "--p11", "0.7", "--q11", "0.3",
                  "--units", "absolute"]
_K_VALUES = ["0", "1", "2", "3", str(_RECOVER_N - 1), str(_RECOVER_N), str(_RECOVER_N + 1),
             "-1", str(10**30), "x", "nan"]


@pytest.fixture(scope="module")
def recover_file(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("recover") / "g.tsbm")
    assert main(["generate", "--n", str(_RECOVER_N), "--k", "2", "--t", "4", *_RECOVER_CHAIN,
                 "--seed", "3", "--out", path]) == 0
    return path


def _recover_argv(path):
    # the chain flags are the file's own or drawn one by one; --truth is the
    # sidecar, so accuracy lines are printed too
    chain = st.one_of(st.just(_RECOVER_CHAIN), st.tuples(
        _flag("--mu1", _FLOAT_VALUES), _flag("--nu1", _FLOAT_VALUES),
        _flag("--p11", _FLOAT_VALUES), _flag("--q11", _FLOAT_VALUES),
        _flag("--units", list(harness.UNITS))).map(lambda parts: sum(parts, [])))
    return st.tuples(
        st.sampled_from(harness.ALGORITHMS).map(lambda a: ["--algorithm", a]),
        _flag("--k", _K_VALUES), _flag("--init", ["spectral", "random", "spectal"]),
        _flag("--seed", _INT_VALUES), chain,
        st.sampled_from([[], ["--truth", path + ".labels"]]),
    ).map(lambda parts: ["recover", "--input", path, *sum(parts, [])])


# ``generate``'s sizes: valid draws keep N <= 50 and T <= 20, and each huge
# size is run alone in a child (``_HUGE_GENERATE``)
_GEN_N = ["0", "-1", "1", "2", "3", "50", "nan", "x", "1.5", "1e3"]
_GEN_K = ["0", "-1", "1", "2", "3", "50", "51", str(10**30), "x", "1.5"]
_GEN_T = ["0", "-1", "1", "2", "20", "x", "1.5", "nan"]


def _generate_argv(out):
    return st.tuples(
        _flag("--n", _GEN_N, True), _flag("--k", _GEN_K, True), _flag("--t", _GEN_T, True),
        _flag("--mu1", _FLOAT_VALUES, True), _flag("--nu1", _FLOAT_VALUES, True),
        _flag("--p11", _FLOAT_VALUES, True), _flag("--q11", _FLOAT_VALUES, True),
        _flag("--units", list(harness.UNITS)), _flag("--seed", _INT_VALUES),
        st.sampled_from([[], ["--balanced"]]),
    ).map(lambda parts: ["generate", *sum(parts, []), "--out", out])


# too large to hold, then too large to index (3037000500^2 > 2^63 > 3037000499^2)
_HUGE_GENERATE = [["--n", "10", "--t", str(10**12)], ["--n", str(10**9), "--t", "1"],
                  ["--n", "3037000499", "--t", "1"], ["--n", "3037000500", "--t", "1"],
                  ["--n", "10", "--t", str(10**30)], ["--n", str(10**30), "--t", "3"]]


def _limited_cli(argv, cwd):
    # the command line in a child under a 1 GB address-space limit
    src = os.path.dirname(os.path.dirname(tsbm.__file__))
    return subprocess.run(
        [sys.executable, "-m", "tsbm", *argv], cwd=cwd, env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30,) * 2))


# ``experiment``'s flags: --n, --t and --trials are always given, so valid
# draws keep N <= 50, T <= 20, trials <= 3 and --jobs <= 2; each huge size
# runs alone in a child (``_HUGE_EXPERIMENT``).  Half the draws take every
# flag from its valid and boundary values, the rest mix in invalid ones.
_EXP_VALID = {"--n": ["2", "3", "20", "50"], "--k": ["1", "2", "3", "50"],
              "--t": ["1", "2", "20"], "--mu1": ["0.05", "0.3", "1", "3"],
              "--nu1": ["0.05", "0.1", "1", "1.5"], "--p11": ["0", "0.3", "0.7", "1"],
              "--q11": ["0", "0.3", "0.7", "1"], "--units": list(harness.UNITS),
              "--algorithm": list(harness.ALGORITHMS), "--init": list(harness.INITS),
              "--trials": ["1", "3"], "--seed": ["0", "7", str(2**63), str(10**30)],
              "--jobs": ["1", "2"]}
_EXP_INVALID = {"--n": ["0", "-1", "1", "nan", "x", "1.5", "1e3"], "--k": ["0", "-1", "x", "1.5"],
                "--t": ["0", "-1", "x", "1.5"], "--mu1": _FLOAT_VALUES, "--nu1": _FLOAT_VALUES,
                "--p11": _FLOAT_VALUES, "--q11": _FLOAT_VALUES, "--units": ["furlongs"],
                "--algorithm": ["spectal"], "--init": ["spectal"],
                "--trials": ["0", "-1", "nan", "x", "1.5"], "--seed": _INT_VALUES,
                "--jobs": ["0", "-1", "x", "1.5"]}
_JOBS = _EXP_VALID["--jobs"] + _EXP_INVALID["--jobs"]
_TRIALS = _EXP_VALID["--trials"] + _EXP_INVALID["--trials"]


def _experiment_argv():
    # no --out: the CSV goes to stdout
    def flags(values):
        return st.tuples(*(_flag(name, values[name], name in ("--n", "--t", "--trials"))
                           for name in _EXP_VALID))

    mixed = {name: _EXP_VALID[name] + _EXP_INVALID[name] for name in _EXP_VALID}
    return st.tuples(st.one_of(flags(_EXP_VALID), flags(mixed)),
                     st.sampled_from([[], ["--balanced"]]),
                     st.sampled_from([[], ["--deterministic"]])).map(
        lambda parts: ["experiment", *sum(parts[0], []), *parts[1], *parts[2]])


def _figure_argv(out):
    # figures 3-7 run 100 to 1,000 nodes, so they are drawn only with a
    # trial count that is refused before any trial runs; figure 2's
    # threshold grids run whole, and a third of the draws are valid for it
    def flags(figures, trials, seeds, jobs, refused=False):
        return st.tuples(_flag("--figure", figures, True), _flag("--trials", trials, refused),
                         _flag("--seed", seeds), _flag("--jobs", jobs),
                         st.sampled_from([[], ["--deterministic"]]))

    seeds = ["0", "7", str(10**30)]
    return st.one_of(
        flags(["2"], _EXP_VALID["--trials"], seeds, _EXP_VALID["--jobs"]),
        flags(["2", "8", "x"], _TRIALS, seeds + ["-1", "x"], _JOBS),
        flags(["3", "4", "5", "6", "7"], _EXP_INVALID["--trials"], seeds, _EXP_VALID["--jobs"],
              refused=True),
    ).map(lambda parts: ["replicate-figure", *sum(parts, []), "--out", out])


# a small valid config file; a draw replaces some values by wrong types or
# huge values that are refused before anything is allocated, inserts
# duplicated, unknown or malformed lines, and may add bytes that are not UTF-8
_CONFIG_BASE = dict(n="20", k="2", t="3", mu1="0.3", nu1="0.1", p11="0.7", q11="0.3",
                    units="absolute", algorithm="online", trials="1")
_CONFIG_VALUES = dict(
    n=["abc", "1.5", "", "-1", "3037000500", str(10**30)], t=["x", "0", "99999999999999999999"],
    k=["2.5", "0", str(10**30)], mu1=["much", "nan", "1e400", "true"], p11=["1.5", "-0"],
    trials=["1.5", "0", str(10**30)], units=["furlongs", "'logn'"], algorithm=["spectal", "3"],
    init=["truth", "spectral", "spectal"], balanced=["maybe", "1", "true"],
    seed=["1e3", "-5", str(10**30)], synchronous=["no", "false"], name=["a b", "2024"])
_CONFIG_LINES = ["n = 40", "trials = 2", "nodes = 20", "colour = blue", "n 20", "[run",
                 "= 3", "t =", "# a comment", "[section]"]


@st.composite
def _config_bytes(draw):
    values = dict(_CONFIG_BASE)
    for key in draw(st.lists(st.sampled_from(sorted(_CONFIG_VALUES)), max_size=2)):
        values[key] = draw(st.sampled_from(_CONFIG_VALUES[key]))
    lines = [f"{key} = {value}" for key, value in values.items()]
    for line in draw(st.lists(st.sampled_from(_CONFIG_LINES), max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    data = "\n".join(lines).encode() + b"\n"
    if draw(st.sampled_from([False, False, False, True])):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80\x80"])) + data[at:]
    return data


# each exits 1 naming its flags or file: too large to hold, too large to
# index, or a trial count no list can hold
_HUGE_EXPERIMENT = [
    (["--n", "20", "--t", str(10**12), "--trials", "1"],
     "--n 20, --t 1000000000000 and --trials 1 take more memory than this process has: "),
    (["--n", str(10**9), "--trials", "1"], "--n 1000000000 gives flat indices beyond int64"),
    (["--n", "3037000499", "--t", "1", "--trials", "1"],
     "--n 3037000499, --t 1 and --trials 1 take more memory than this process has: "),
    (["--n", "20", "--trials", str(10**11)],
     "--n 20 and --trials 100000000000 take more memory than this process has"),
    (["--n", "20", "--trials", str(10**30), "--jobs", "2"],
     f"--n 20 and --trials {10**30} take more memory than this process has"),
    (["--config", "t.cfg"], "--config t.cfg gives flat indices beyond int64"),
    (["--config", "trials.cfg"], "--config trials.cfg takes more memory than this process has"),
]


# Every integer flag of every command gets integers past the float range,
# one at a time, beside valid values for the rest; --t gets sizes around
# int64 with --n 2.  A seed is taken mod 2^64, so any integer runs.
_PAST_FLOAT = [str(10**309), str(10**400), str(-10**400)]
_NEAR_INT64 = [str(2**60), str(2**61), str(2**62), str(2**63)]
_LOW_CHAIN = ["--mu1", "1", "--nu1", "0.5", "--p11", "0.7", "--q11", "0.3"]  # valid from N = 2
_INT_FLAGS = [  # a valid command line, and the integer flags drawn on it
    (["generate", "--n", "20", "--k", "2", "--t", "3", *_LOW_CHAIN, "--out", "g.tsbm"],
     ["--n", "--k", "--t", "--seed"]),
    (["divergence", "--t", "3", *_LOW_CHAIN], ["--n", "--k", "--t", "--t-max"]),
    (["threshold", *_LOW_CHAIN], ["--n", "--k", "--t-max"]),
    (["threshold", *_LOW_CHAIN[:4], "--grid-steps", "3"],
     ["--n", "--k", "--t-max", "--grid-steps"]),
    (["recover", "--input", "r.tsbm", "--algorithm", "online", *_RECOVER_CHAIN],
     ["--k", "--seed"]),
    (["experiment", "--n", "20", "--t", "3", "--trials", "1", *_LOW_CHAIN],
     ["--n", "--k", "--t", "--trials", "--seed", "--jobs"]),
    (["replicate-figure", "--figure", "2", "--out", "figure"],
     ["--figure", "--trials", "--seed", "--jobs"]),
]


def _set(argv, flag, value):
    # argv with ``flag`` given ``value``, in place of its own if it has one
    if flag not in argv:
        return [*argv, flag, value]
    at = argv.index(flag) + 1
    return [*argv[:at], value, *argv[at + 1:]]


@st.composite
def _mutated_lines(draw, lines):
    # a snapshot file's lines, each ending in a newline, cut mid-line, with
    # a line duplicated, two lines swapped, a token replaced, or a short
    # labels line (the second)
    lines = list(lines)
    kind = draw(st.sampled_from(["truncate", "duplicate", "swap", "token", "labels"]))
    at = draw(st.integers(0, len(lines) - 1))
    if kind == "truncate":
        return "".join(lines[:at]) + lines[at][:draw(st.integers(1, len(lines[at]) - 2))]
    if kind == "duplicate":
        lines.insert(at, lines[at])
    elif kind == "swap":
        other = draw(st.integers(0, len(lines) - 1).filter(lambda i: i != at))
        lines[at], lines[other] = lines[other], lines[at]
    elif kind == "token":
        tokens = lines[at].split()
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(
            st.sampled_from(["1e3", "x", str(10**20)]))
        lines[at] = " ".join(tokens) + "\n"
    else:
        lines[1] = " ".join(lines[1].split()[:draw(st.integers(1, _RECOVER_N))]) + "\n"
    return "".join(lines)


class TestCLIFlagValues:
    @settings(max_examples=250, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(argv=st.sampled_from(["threshold", "divergence"]).flatmap(_argv))
    @example(argv=["threshold", "--mu1", "3", "--nu1", "1.5", "--grid-max", "inf"])
    @example(argv=["divergence", "--t", str(10**30), "--mu1", "1", "--nu1", "1", "--p11",
                   "0.99", "--q11", "0.99"])
    def test_numeric_flags_exit_cleanly(self, argv):
        _assert_clean_exit(argv)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_recover_flags_exit_cleanly(self, recover_file, data):
        # every algorithm, the four spectral ones included, at K from 0 to
        # beyond N, under each start, seed and chain
        _assert_clean_exit(data.draw(_recover_argv(recover_file)))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_generate_flags_exit_cleanly(self, tmp_path_factory, data):
        out = str(tmp_path_factory.getbasetemp() / "generated.tsbm")
        _assert_clean_exit(data.draw(_generate_argv(out)))

    @pytest.mark.parametrize("sizes", _HUGE_GENERATE, ids=lambda sizes: "x".join(sizes[1::2]))
    def test_generate_huge_sizes_name_their_flags(self, tmp_path, sizes):
        # in a child under a 1 GB address-space limit: a size past what the
        # process can hold or a file can index ends in one line naming it
        src = os.path.dirname(os.path.dirname(tsbm.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "tsbm", "generate", *sizes, "--k", "2", "--mu1", "3",
             "--nu1", "1.5", "--p11", "0.7", "--q11", "0.3", "--out", str(tmp_path / "g.tsbm")],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30,) * 2))
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error: --n ") and proc.stderr.count("\n") == 1
        assert f"--t {sizes[3]}" in proc.stderr
        assert not (tmp_path / "g.tsbm").exists()

    @settings(max_examples=120, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(argv=_experiment_argv())
    @example(argv=["experiment", "--n", "20", "--t", "2", "--trials", "3", "--jobs", "2",
                   "--algorithm", "spectral-squared", "--deterministic"])
    def test_experiment_flags_exit_cleanly(self, argv):
        _assert_clean_exit(argv)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_replicate_figure_flags_exit_cleanly(self, tmp_path_factory, data):
        out = str(tmp_path_factory.getbasetemp() / "figure")
        _assert_clean_exit(data.draw(_figure_argv(out)))

    @settings(max_examples=120, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(text=_config_bytes(), flags=st.sampled_from([[], ["--trials", "2"], ["--n", "3"],
                                                        ["--jobs", "2"], ["--deterministic"]]))
    @example(text=b"\xffn = 5\n", flags=[])
    @example(text=b"t = 99999999999999999999\n", flags=[])
    @example(text=f"n = {10**30}\nt = 0\n".encode(), flags=[])
    def test_experiment_config_files_exit_cleanly(self, tmp_path_factory, text, flags):
        cfg = tmp_path_factory.getbasetemp() / "mutated.cfg"
        cfg.write_bytes(text)
        _assert_clean_exit(["experiment", "--config", str(cfg), *flags])

    def test_experiment_config_read_errors_name_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"\xffn = 5\n")
        assert main(["experiment", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            f"error: --config {cfg}: 'utf-8' codec can't decode byte 0xff in position 0: "
            "invalid start byte\n")
        assert main(["experiment", "--config", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: --config {tmp_path}: ")

    @pytest.mark.parametrize("argv,want", _HUGE_EXPERIMENT,
                             ids=[" ".join(argv) for argv, _ in _HUGE_EXPERIMENT])
    def test_experiment_huge_sizes_name_their_flags(self, tmp_path, argv, want):
        (tmp_path / "t.cfg").write_text("n = 20\nt = 99999999999999999999\n")
        (tmp_path / "trials.cfg").write_text("n = 20\ntrials = 100000000000\n")
        proc = _limited_cli(["experiment", *argv, "--out", "exp.csv"], tmp_path)
        assert proc.returncode == 1 and proc.stderr.startswith(f"error: {want}"), proc.stderr
        assert proc.stderr.count("\n") == 1
        assert not (tmp_path / "exp.csv").exists()

    def test_integers_past_float_range_name_their_flag(self, tmp_path, recover_file):
        # each exits 1 or 2 with one line naming its flag, key or file, a
        # seed exits 0, and --n 2 with a T near int64 exits cleanly, naming
        # --t if it fails
        shutil.copy(recover_file, tmp_path / "r.tsbm")
        drawn = [(argv, flag, value) for argv, flags in _INT_FLAGS for flag in flags
                 for value in _PAST_FLOAT]
        drawn += [(_set(argv, "--n", "2"), "--t", value) for argv, _ in _INT_FLAGS
                  if argv[0] in ("generate", "divergence", "experiment") for value in _NEAR_INT64]
        named = {}
        for key in ("n", "k", "t", "trials", "seed"):
            for value in _PAST_FLOAT:
                cfg = f"{key}{len(named)}.cfg"
                (tmp_path / cfg).write_text("".join(
                    f"{k} = {v}\n" for k, v in dict(_CONFIG_BASE, **{key: value}).items()))
                named[cfg] = key
        argvs = [_set(argv, flag, value) for argv, flag, value in drawn]
        argvs += [["experiment", "--config", cfg] for cfg in named]
        results = _limited_mains(argvs, tmp_path)
        assert len(results) == len(argvs)
        for (argv, flag, value), (rc, out, err, caught) in zip(drawn, results):
            _assert_clean(_set(argv, flag, value), rc, out, err, caught)
            if value in _NEAR_INT64:
                assert rc == 0 or flag in err.splitlines()[-1], (argv, value, err)
            elif flag == "--seed":
                assert rc == 0, (argv, err)
            else:
                assert rc in (1, 2) and flag in err.splitlines()[-1], (argv, flag, err)
        for (cfg, key), (rc, out, err, caught) in zip(named.items(), results[len(drawn):]):
            _assert_clean(cfg, rc, out, err, caught)
            if key == "seed":
                assert rc == 0, (cfg, err)
            else:
                assert rc == 1 and err.startswith(f"error: --config {cfg}: {key} "), (cfg, err)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
    @given(data=st.data(), algorithm=st.sampled_from(["online", "spectral", "friends"]))
    def test_recover_on_mutated_files_names_the_line(self, recover_file, tmp_path_factory,
                                                     data, algorithm):
        # a clean exit, and a failure's one line names a line of the file
        with open(recover_file) as fh:
            text = data.draw(_mutated_lines(fh.readlines()))
        path = tmp_path_factory.getbasetemp() / "mutated.tsbm"
        path.write_text(text)
        argv = ["recover", "--input", str(path), "--algorithm", algorithm, *_RECOVER_CHAIN]
        rc, out, err, caught = _run_main(argv)
        _assert_clean(argv, rc, out, err, caught)
        assert rc == 0 or re.match(r"error: line \d+: ", err), (argv, err)

    def test_recover_on_a_huge_header_names_the_line_or_file(self, tmp_path, recover_file):
        # N = 10^8 in the header: the labels line is short of it, or with
        # no line after the header the start runs out of memory
        with open(recover_file) as fh:
            body = fh.readlines()[1:]
        (tmp_path / "labelled.tsbm").write_text("tsbm 1 100000000 4\n" + "".join(body))
        (tmp_path / "bare.tsbm").write_text("tsbm 1 100000000 4\n")
        argvs = [["recover", "--input", name, "--algorithm", algorithm, *_RECOVER_CHAIN]
                 for name in ("labelled.tsbm", "bare.tsbm")
                 for algorithm in ("online", "spectral", "friends")]
        results = _limited_mains(argvs, tmp_path)
        assert len(results) == len(argvs)
        for argv, (rc, out, err, caught) in zip(argvs, results):
            _assert_clean(argv, rc, out, err, caught)
            if argv[2] == "labelled.tsbm":
                assert err == "error: line 2: labels line needs 100000000 entries\n", err
            else:
                assert rc == 1 and err.startswith(
                    "error: --input bare.tsbm takes more memory than this process has"), err

    def test_replicate_figure_huge_trials_names_the_flag(self, tmp_path):
        proc = _limited_cli(["replicate-figure", "--figure", "3", "--trials", str(10**11),
                             "--out", "figure"], tmp_path)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == ("error: --trials 100000000000 takes more memory than this "
                               "process has\n")
        assert os.listdir(tmp_path / "figure") == []


class TestSeedDerivationContract:
    def test_trial_reproducible_from_derived_seeds(self):
        # a trial is a pure function of (config.seed, trial): rebuilding the
        # data and algorithm from the documented derivation chain matches
        from tsbm._rng import counter_uniform, derive_seed
        from tsbm.metrics import ham_star
        from tsbm.recovery import OnlineLikelihood
        from tsbm.sbm import sample_labelling, sample_markov_snapshots

        rec = run_trial(SMALL, 2)
        trial_seed = derive_seed(SMALL.seed, 2)
        intra, inter = SMALL.chains()
        truth = sample_labelling(SMALL.n, SMALL.k, seed=derive_seed(trial_seed, 1))
        arr = sample_markov_snapshots(truth, intra, inter, SMALL.t, seed=derive_seed(trial_seed, 2))
        u = counter_uniform(derive_seed(trial_seed, 3), 0, np.arange(SMALL.n))
        init = np.minimum((u * SMALL.k).astype(np.int64), SMALL.k - 1)
        state = OnlineLikelihood(arr, init, intra, inter, SMALL.k)
        final = state.run()
        assert rec.ham_stars[-1] == ham_star(final, truth)[0]


class TestFigureShapedGates:
    def test_online_meets_baselines_on_static_intra_point(self):
        methods = (
            "online",
            "spectral-union",
            "spectral-aggregate",
            "spectral-squared",
            "friends",
            "enemies",
        )
        finals = {}
        for alg in methods:
            cfg = ExperimentConfig(
                n=300, k=2, t=20, mu1=0.05, nu1=0.04, p11=1.0, q11=0.5,
                units="absolute", algorithm=alg,
                init="spectral" if alg == "online" else "random",
                synchronous=alg != "online", trials=4, seed=5,
            )
            finals[alg] = np.mean([r.final_accuracy for r in run_experiment(cfg)])
        assert all(finals["online"] >= v - 1e-12 for v in finals.values())
        assert finals["online"] >= 0.95

    def test_constant_degree_accuracy_grows_with_horizon(self):
        cfg = ExperimentConfig(
            n=500, k=2, t=100, mu1=2.5, nu1=1.5, p11=0.6, q11=0.3,
            units="inv_n", algorithm="online", init="random", trials=6, seed=3,
        )
        mean, _ = summarize(run_experiment(cfg))
        assert mean[99] >= 0.9
        assert mean[99] > mean[9]
