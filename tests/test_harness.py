"""Tests for the experiment harness and the command line interface."""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import tsbm
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
from tsbm.sbm import SnapshotArray, read_labels, read_snapshots
from tsbm.spectral import SpectralConfig, spectral_cluster


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
        assert parsed["model"]["n"] == 200
        assert parsed["model"]["balanced"] is True
        assert parsed["run"]["algorithm"] == "online"

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


class TestRecover:
    @pytest.mark.parametrize("algorithm", ["online", "rates", "refine", "refine-loo", "mle"])
    def test_needs_chain_pair(self, algorithm):
        array = SnapshotArray.from_dense(np.zeros((2, 4, 4), dtype=np.uint8))
        with pytest.raises(ValueError, match="needs the chain pair"):
            recover(array, algorithm, 2, 0)

    def test_unknown_algorithm(self):
        array = SnapshotArray.from_dense(np.zeros((1, 4, 4), dtype=np.uint8))
        with pytest.raises(ValueError, match="unknown algorithm"):
            recover(array, "louvain", 2, 0)


class TestSpectralMatrix:
    def test_builders_match_their_dense_definitions(self):
        rng = np.random.default_rng(0)
        upper = np.triu(rng.random((3, 6, 6)) < 0.5, 1).astype(np.uint8)
        data = upper + upper.transpose(0, 2, 1)
        arr = SnapshotArray.from_dense(data)
        union = (data != 0).any(axis=0).astype(np.uint8)
        squared = sum(a @ a - np.diag(a.sum(axis=1)) for a in data.astype(np.float64))
        for algorithm, want in (("spectral", union), ("spectral-union", union),
                                ("spectral-aggregate", data.sum(axis=0)),
                                ("spectral-squared", squared)):
            assert np.array_equal(spectral_matrix(arr, algorithm), want), algorithm
        with pytest.raises(ValueError):
            spectral_matrix(arr, "online")


class TestCLI:
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
        config = SpectralConfig(K=2, seed=derive_seed(4, 4))
        want = spectral_cluster(spectral_matrix(read_snapshots(graph), algorithm), config)
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
        assert capsys.readouterr().err == "error: need 1 <= K <= N\n"

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
        assert capsys.readouterr().err == "error: need 1 <= K <= N\n"
        assert not (tmp_path / "est.labels").exists()

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

    def test_recover_header_beyond_memory_exit_code(self, tmp_path, capsys):
        # numpy refuses this 88 PiB request up front and touches no memory
        path = tmp_path / "huge.tsbm"
        path.write_text("tsbm 1 10000000 1000\n")
        rc = main(["recover", "--input", str(path), "--algorithm", "friends"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

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
        assert captured.err == "error: length mismatch: 0 vs 3\n"

    @pytest.mark.parametrize(
        "extra",
        [
            ["--n", "1"],
            ["--n", "0", "--p11", "0.7", "--q11", "0.3"],
            ["--grid-min", "-0.5"],
            ["--grid-max", "1.5"],
            ["--mu1", "0"],
        ],
    )
    def test_threshold_bad_inputs_exit_code(self, capsys, extra):
        rc = main(["threshold", "--mu1", "2.5", "--nu1", "1.5", "--grid-steps", "3"] + extra)
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

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


@pytest.mark.slow
def test_online_trial_at_n_20000():
    # spectral init on binarize's uint8 matrix and the sparse online step
    # keep an N=20,000, T=30 trial far below the 3.2 GB of one dense
    # float64 N x N matrix; a subprocess gives the trial its own peak RSS
    src = os.path.dirname(os.path.dirname(tsbm.__file__))
    code = (
        "import resource\n"
        "from tsbm.harness import ExperimentConfig, run_trial\n"
        "config = ExperimentConfig(n=20000, t=30, mu1=3.0, nu1=1.5, units='logn',\n"
        "                          algorithm='online', init='spectral', trials=1)\n"
        "record = run_trial(config, 0)\n"
        "rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(record.final_accuracy, record.seconds, rss)\n"
    )
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=1800, check=True)
    accuracy, seconds, rss_kb = map(float, proc.stdout.split())
    print(f"N=20000 T=30 online trial: accuracy {accuracy}, {time.perf_counter() - start:.1f} s "
          f"in all, {seconds:.1f} s recovering, maxrss {rss_kb / 1024:.0f} MB")
    assert accuracy >= 0.95
    assert rss_kb < 2 * 2**20


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
        state = OnlineLikelihood(arr.snapshot(0), init, intra, inter, SMALL.k)
        final = state.run(arr)
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
