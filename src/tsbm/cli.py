"""Command line interface.

Subcommands: ``generate``, ``divergence``, ``threshold``, ``recover``,
``experiment``, ``replicate-figure``.  Exit codes: 0 on success, 1 on
runtime failure, 2 on usage errors; out of memory, 1 naming the size flags.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import harness
from .divergence import FiniteDistribution
from .markov import ThresholdConvention, t_star
from .metrics import accuracy
from .recovery import CategoricalKernel
from .sbm import read_labels, read_snapshots, write_labels, write_snapshots
from .spectral import EigenConvergenceError

# unused here, but bench/tracing.py wraps them on this module, so they stay importable
from .recovery import refine_recover  # noqa: F401
from .sbm import sample_markov_snapshots  # noqa: F401
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
    g.set_defaults(run=_cmd_generate, sizes=("n", "t"))  # the flags that size its work

    d = sub.add_parser("divergence", help="divergence and threshold report")
    d.add_argument("--n", type=int, default=500)
    d.add_argument("--k", type=int, default=2)
    d.add_argument("--t", type=int, required=True, help="snapshot horizon")
    _add_chain_args(d, required=True)
    d.add_argument("--t-max", type=int, default=10**6)
    d.add_argument("--json", dest="json_out", help="also write the report as JSON")
    d.set_defaults(run=_cmd_divergence, sizes=())

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
    th.set_defaults(run=_cmd_threshold, sizes=("grid_steps",))

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
    r.set_defaults(run=_cmd_recover, sizes=("input",))

    e = sub.add_parser("experiment", help="run seeded trials and emit CSV")
    e.add_argument("--config", help="experiment config file")
    e.add_argument("--n", type=int)
    e.add_argument("--k", type=int)
    e.add_argument("--t", type=int)
    _add_chain_args(e)
    # units: the file's, else the default
    e.set_defaults(run=_cmd_experiment, units=None, sizes=("config", "n", "t", "trials"))
    e.add_argument("--algorithm", choices=harness.ALGORITHMS)
    e.add_argument("--init", choices=harness.INITS)
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
    f.set_defaults(run=_cmd_replicate_figure, sizes=("trials",))

    return parser


def _write_text(text, path):
    """Write ``text`` to the file ``path``, or to stdout when it is empty."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _sizes(args, verb, keys=None):
    """The flags ``keys`` (by default the command's ``sizes``) that were given,
    and ``verb`` agreeing with them: '--n 10 and --t 5 take'."""
    *rest, last = [f"--{key.replace('_', '-')} {getattr(args, key)}" for key in keys or args.sizes
                   if getattr(args, key, None) is not None] or [f"tsbm {args.command}"]
    return f"{', '.join(rest)} and {last} {verb}" if rest else f"{last} {verb}s"


def _check_flat_indices(args, n, t):
    if max(t, 1) * n * n > 2**63:  # int64 flat indices t*N*N + i*N + j; T < 1 fails later
        raise ValueError(f"{_sizes(args, 'give', ('config', 'n', 't'))} flat indices beyond int64")


def _cmd_generate(parser, args):
    _check_flat_indices(args, args.n, args.t)
    labels, array = harness.sample_instance(args.n, args.k, args.t, *_chains(args, args.n),
                                            args.seed, args.balanced)
    write_snapshots(args.out, array)
    write_labels(args.labels_out or args.out + ".labels", labels)
    print(f"wrote {args.out} (N={args.n}, T={args.t})")
    return 0


def _cmd_divergence(parser, args):
    intra, inter = _chains(args, args.n)
    report = harness.divergence_report(intra, inter, args.n, args.k, args.t, args.t_max)
    sys.stdout.write(report.to_text())
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, default=str)
    return 0


def _cmd_threshold(parser, args):
    if (args.p11 is None) != (args.q11 is None):
        parser.exit(2, "error: give both --p11 and --q11 for one value, or neither for the grid\n")
    if args.grid_steps < 1:
        parser.exit(2, f"error: --grid-steps must be at least 1, got {args.grid_steps}\n")
    for flag, end in (("--grid-min", args.grid_min), ("--grid-max", args.grid_max)):
        if not 0 <= end <= 1:  # NaN too, and before linspace meets inf
            parser.exit(2, f"error: {flag} must lie in [0, 1], got {end:g}\n")
    conv = ThresholdConvention(args.convention)
    if args.p11 is not None:
        intra, inter = harness.chains_in_units(args.n, args.mu1, args.nu1, args.p11, args.q11)
        ts = t_star(intra, inter, args.n, args.k, conv, args.t_max)
        print("inf" if ts is None else ts)
        return 0
    values = np.linspace(args.grid_min, args.grid_max, args.grid_steps)
    grid = harness.threshold_grid(
        args.n, args.k, args.mu1, args.nu1, values, values, conv, args.t_max
    )
    text = harness.threshold_grid_csv(grid, values, values)
    _write_text(text, args.out)
    return 0


def _parse_dist(flag, text):
    try:
        return FiniteDistribution([float(x) for x in text.split(",")])
    except ValueError as exc:  # the message names neither the flag nor its text
        raise ValueError(f"{flag} {text!r}: {exc}") from None


def _cmd_recover(parser, args):
    has_markov = None not in (args.mu1, args.nu1, args.p11, args.q11)
    has_categorical = args.f is not None and args.g is not None
    if args.algorithm in harness.MARKOV_ALGORITHMS and not has_markov:
        parser.exit(2, f"error: algorithm {args.algorithm!r} needs Markov chain "
                    "parameters (--mu1/--nu1/--p11/--q11)\n")
    if args.algorithm in harness.KERNEL_ALGORITHMS and not (has_markov or has_categorical):
        parser.exit(2, f"error: algorithm {args.algorithm!r} needs interaction parameters "
                    "(--mu1/--nu1/--p11/--q11 or --f/--g)\n")
    kernels = None
    if has_categorical and args.algorithm in harness.KERNEL_ALGORITHMS:
        f, g = _parse_dist("--f", args.f), _parse_dist("--g", args.g)
        if len(f) != len(g):
            parser.exit(2, f"error: --f and --g need alphabets of one size, got {len(f)} "
                        f"and {len(g)} symbols\n")
        kernels = CategoricalKernel(f), CategoricalKernel(g)
    array = read_snapshots(args.input)
    truth = array.labels
    if args.truth:
        try:
            truth = read_labels(args.truth)
        except ValueError as exc:  # a format error names a line, not the file
            raise ValueError(f"--truth {args.truth}: {exc}") from None
        if truth.size != array.N:
            raise ValueError(f"--truth {args.truth} gives {truth.size} labels for "
                             f"{array.N} nodes")
    chains = _chains(args, array.N) if has_markov else None
    labels, k_hat = harness.recover(array, args.algorithm, args.k, args.seed, chains=chains,
                                    kernels=kernels, init=args.init)
    if k_hat is not None:
        print(f"estimated blocks: {k_hat}")
    if truth is not None:
        print(f"accuracy {accuracy(truth, labels):.4f}")
    if args.out:
        write_labels(args.out, labels)
    return 0


def _cmd_experiment(parser, args):
    values = {}
    if args.config:
        try:
            with open(args.config) as fh:
                values = harness.parse_config_text(fh.read())
        except (OSError, UnicodeError) as exc:  # a decoding error names no file
            raise ValueError(f"--config {args.config}: {exc}") from None
    for key in harness.ExperimentConfig.__dataclass_fields__:
        if getattr(args, key, None) is not None:
            values[key] = getattr(args, key)
    config = harness.config_from_dict(values)
    _check_flat_indices(args, config.n, config.t)
    records = harness.run_experiment(config, jobs=args.jobs)
    text = harness.records_to_csv(records, config, deterministic=args.deterministic)
    _write_text(text, args.out)
    return 0


def _cmd_replicate_figure(parser, args):
    kind, payload = harness.figure_bundle(args.figure, trials=args.trials, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    if kind == "threshold-grid":
        for name, grid_args in payload:
            grid = harness.threshold_grid(**grid_args)
            path = os.path.join(args.out, name + ".csv")
            _write_text(harness.threshold_grid_csv(
                grid, grid_args["p11_values"], grid_args["q11_values"]), path)
            print(f"wrote {path}")
        return 0
    for config in payload:
        records = harness.run_experiment(config, jobs=args.jobs)
        path = os.path.join(args.out, config.name + ".csv")
        _write_text(harness.records_to_csv(records, config, deterministic=args.deterministic),
                    path)
        print(f"wrote {path}")
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "t_max", 1) < 1:  # threshold and divergence: no snapshot to search
        parser.exit(2, f"error: --t-max must be at least 1, got {args.t_max}\n")
    if getattr(args, "jobs", 1) < 1:  # experiment and replicate-figure
        parser.exit(2, f"error: --jobs must be at least 1, got {args.jobs}\n")
    try:
        return args.run(parser, args)
    except MemoryError as exc:  # numpy's message names no flag, and Python's is empty
        print(f"error: {_sizes(args, 'take')} more memory than this process has"
              + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 1
    except (ValueError, OSError, EigenConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
