"""Command line interface.

Subcommands: ``generate``, ``divergence``, ``threshold``, ``recover``,
``experiment``, ``replicate-figure``.  Exit codes: 0 on success, 1 on
runtime failure, 2 on usage errors.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import harness
from ._rng import derive_seed
from .divergence import FiniteDistribution
from .markov import ThresholdConvention, t_star
from .metrics import accuracy
from .recovery import CategoricalKernel
from .sbm import (
    read_labels,
    read_snapshots,
    sample_labelling,
    balanced_labelling,
    sample_markov_snapshots,
    write_labels,
    write_snapshots,
)

# unused here, but bench/tracing.py wraps them on this module, so they stay importable
from .recovery import refine_recover  # noqa: F401
from .spectral import binarize, spectral_cluster  # noqa: F401


def _add_chain_args(p, required=False):
    p.add_argument("--mu1", type=float, required=required, help="intra stationary density")
    p.add_argument("--nu1", type=float, required=required, help="inter stationary density")
    p.add_argument("--p11", type=float, required=required, help="intra persistence")
    p.add_argument("--q11", type=float, required=required, help="inter persistence")
    p.add_argument(
        "--units",
        choices=harness.UNITS,
        default="logn",
        help="how mu1/nu1 scale with N (default: multiples of log N / N)",
    )


def _chains(args, n):
    return harness.chains_in_units(n, args.mu1, args.nu1, args.p11, args.q11, args.units)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tsbm",
        description="Temporal stochastic block models: generation, divergence "
        "calculus, recovery algorithms, and experiment harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="sample a Markov block model to a snapshot file")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--t", type=int, required=True)
    _add_chain_args(g, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--balanced", action="store_true", help="equal block sizes")
    g.add_argument("--out", required=True, help="snapshot file path")
    g.add_argument("--labels-out", help="labels sidecar path (default: OUT.labels)")

    d = sub.add_parser("divergence", help="divergence and threshold report")
    d.add_argument("--n", type=int, default=500)
    d.add_argument("--k", type=int, default=2)
    d.add_argument("--t", type=int, required=True, help="snapshot horizon")
    _add_chain_args(d, required=True)
    d.add_argument("--t-max", type=int, default=10**6)
    d.add_argument("--json", dest="json_out", help="also write the report as JSON")

    th = sub.add_parser("threshold", help="T* for one configuration or a grid")
    th.add_argument("--n", type=int, default=500)
    th.add_argument("--k", type=int, default=2)
    th.add_argument("--mu1", type=float, required=True)
    th.add_argument("--nu1", type=float, required=True)
    th.add_argument("--p11", type=float)
    th.add_argument("--q11", type=float)
    th.add_argument("--grid-min", type=float, default=0.05)
    th.add_argument("--grid-max", type=float, default=0.95)
    th.add_argument("--grid-steps", type=int, default=19)
    th.add_argument("--convention", choices=("exact", "itilde"), default="exact")
    th.add_argument("--t-max", type=int, default=10**6)
    th.add_argument("--out", help="CSV output path (default: stdout)")

    r = sub.add_parser("recover", help="run a recovery algorithm on a snapshot file")
    r.add_argument("--input", required=True)
    r.add_argument("--algorithm", required=True, choices=harness.ALGORITHMS)
    r.add_argument("--k", type=int, default=2)
    _add_chain_args(r)
    r.add_argument("--f", help="comma-separated intra symbol probabilities")
    r.add_argument("--g", help="comma-separated inter symbol probabilities")
    r.add_argument("--init", choices=("spectral", "random"), default="spectral")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--truth", help="labels sidecar with ground truth")
    r.add_argument("--out", help="write the estimated labels here")

    e = sub.add_parser("experiment", help="run seeded trials and emit CSV")
    e.add_argument("--config", help="experiment config file")
    e.add_argument("--n", type=int)
    e.add_argument("--k", type=int)
    e.add_argument("--t", type=int)
    _add_chain_args(e)
    e.add_argument("--algorithm", choices=harness.ALGORITHMS)
    e.add_argument("--init", choices=("spectral", "random", "truth"))
    e.add_argument("--balanced", action="store_true", default=None)
    e.add_argument("--trials", type=int)
    e.add_argument("--seed", type=int)
    e.add_argument("--jobs", type=int, default=1)
    e.add_argument("--deterministic", action="store_true")
    e.add_argument("--out", help="CSV output path (default: stdout)")

    f = sub.add_parser("replicate-figure", help="emit the CSV bundle behind a figure")
    f.add_argument("--figure", type=int, required=True, choices=(2, 3, 4, 5, 6, 7))
    f.add_argument("--out", required=True, help="output directory")
    f.add_argument("--trials", type=int, help="override per-experiment trial count")
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--jobs", type=int, default=1)
    f.add_argument("--deterministic", action="store_true")

    return parser


def _cmd_generate(args):
    intra, inter = _chains(args, args.n)
    if args.balanced:
        labels = balanced_labelling(args.n, args.k)
    else:
        labels = sample_labelling(args.n, args.k, seed=derive_seed(args.seed, 1))
    array = sample_markov_snapshots(labels, intra, inter, args.t, seed=derive_seed(args.seed, 2))
    write_snapshots(args.out, array, labels=None)
    write_labels(args.labels_out or args.out + ".labels", labels)
    print(f"wrote {args.out} (N={args.n}, T={args.t})")
    return 0


def _cmd_divergence(args):
    intra, inter = _chains(args, args.n)
    report = harness.divergence_report(intra, inter, args.n, args.k, args.t, args.t_max)
    sys.stdout.write(report.to_text())
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, default=str)
    return 0


def _cmd_threshold(args):
    conv = ThresholdConvention(args.convention)
    if args.p11 is not None and args.q11 is not None:
        intra, inter = harness.chains_in_units(args.n, args.mu1, args.nu1, args.p11, args.q11)
        ts = t_star(intra, inter, args.n, args.k, conv, args.t_max)
        print("inf" if ts is None else ts)
        return 0
    values = np.linspace(args.grid_min, args.grid_max, args.grid_steps)
    grid = harness.threshold_grid(
        args.n, args.k, args.mu1, args.nu1, values, values, conv, args.t_max
    )
    text = harness.threshold_grid_csv(grid, values, values)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _parse_dist(text):
    return FiniteDistribution([float(x) for x in text.split(",")])


def _cmd_recover(parser, args):
    has_markov = None not in (args.mu1, args.nu1, args.p11, args.q11)
    has_categorical = args.f is not None and args.g is not None
    if args.algorithm in harness.MARKOV_ALGORITHMS and not has_markov:
        parser.exit(2, f"error: algorithm {args.algorithm!r} needs Markov chain "
                    "parameters (--mu1/--nu1/--p11/--q11)\n")
    if args.algorithm in harness.KERNEL_ALGORITHMS and not (has_markov or has_categorical):
        parser.exit(2, f"error: algorithm {args.algorithm!r} needs interaction parameters "
                    "(--mu1/--nu1/--p11/--q11 or --f/--g)\n")
    array = read_snapshots(args.input)
    chains = _chains(args, array.N) if has_markov else None
    kernels = None
    if has_categorical and args.algorithm in harness.KERNEL_ALGORITHMS:
        kernels = CategoricalKernel(_parse_dist(args.f)), CategoricalKernel(_parse_dist(args.g))
    labels, k_hat = harness.recover(array, args.algorithm, args.k, args.seed, chains=chains,
                                    kernels=kernels, init=args.init)
    if k_hat is not None:
        print(f"estimated blocks: {k_hat}")

    truth = None
    if args.truth:
        truth = read_labels(args.truth)
    elif array.labels is not None:
        truth = array.labels
    if truth is not None:
        print(f"accuracy {accuracy(truth, labels):.4f}")
    if args.out:
        write_labels(args.out, labels)
    return 0


def _cmd_experiment(args):
    values = {}
    if args.config:
        with open(args.config) as fh:
            parsed = harness.parse_config_text(fh.read())
        for section in parsed.values():
            values.update(section)
    for key in ("n", "k", "t", "mu1", "nu1", "p11", "q11", "algorithm", "init",
                "trials", "seed", "balanced"):
        cli_value = getattr(args, key, None)
        if cli_value is not None:
            values[key] = cli_value
    if args.units != "logn" or "units" not in values:
        values["units"] = args.units
    config = harness.config_from_dict(values)
    records = harness.run_experiment(config, jobs=args.jobs)
    text = harness.records_to_csv(records, config, deterministic=args.deterministic)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_replicate_figure(args):
    os.makedirs(args.out, exist_ok=True)
    kind, payload = harness.figure_bundle(args.figure, trials=args.trials, seed=args.seed)
    if kind == "threshold-grid":
        for name, grid_args in payload:
            grid = harness.threshold_grid(**grid_args)
            path = os.path.join(args.out, name + ".csv")
            with open(path, "w") as fh:
                fh.write(harness.threshold_grid_csv(
                    grid, grid_args["p11_values"], grid_args["q11_values"]))
            print(f"wrote {path}")
        return 0
    for config in payload:
        records = harness.run_experiment(config, jobs=args.jobs)
        path = os.path.join(args.out, config.name + ".csv")
        with open(path, "w") as fh:
            fh.write(
                harness.records_to_csv(records, config, deterministic=args.deterministic)
            )
        print(f"wrote {path}")
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "divergence":
            return _cmd_divergence(args)
        if args.command == "threshold":
            return _cmd_threshold(args)
        if args.command == "recover":
            return _cmd_recover(parser, args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        if args.command == "replicate-figure":
            return _cmd_replicate_figure(args)
        parser.error(f"unknown command {args.command!r}")
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
