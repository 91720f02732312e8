"""Golden outputs: seeded CLI runs must reproduce committed files byte for byte.

Each case is a list of ``tsbm`` command lines, or of callables that write
an input file into ``{dir}``; ``{out}`` stands for the output path and
``{dir}`` for a temporary directory.  A change that moves seeded
output on purpose regenerates the files with ``python tests/test_golden.py``
and says why in CHANGES.md.
"""

import json
import os
import sys
from dataclasses import asdict

import pytest

from tsbm.cli import main
from tsbm.divergence import FiniteDistribution
from tsbm.harness import ALGORITHMS, figure_bundle
from tsbm.sbm import sample_categorical_snapshots, sample_labelling, write_snapshots

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

_CHAIN = ["--mu1", "4.0", "--nu1", "1.0", "--p11", "0.7", "--q11", "0.3"]


def _experiment(algorithm):
    if algorithm == "mle":
        size = ["--n", "12", "--mu1", "0.3", "--nu1", "0.1", "--p11", "0.7",
                "--q11", "0.3", "--units", "absolute"]
    else:
        size = ["--n", "40"] + _CHAIN
    return ["experiment", "--k", "2", "--t", "5", "--trials", "2", "--seed", "1",
            "--algorithm", algorithm, "--init", "spectral", "--deterministic",
            "--out", "{out}"] + size


def _recover(algorithm, *extra):
    """Generate a graph, then recover it; chain flags go to both steps."""
    chain = _CHAIN
    size = ["--n", "40"]
    if algorithm == "mle":
        chain = ["--mu1", "0.3", "--nu1", "0.1", "--p11", "0.7", "--q11", "0.3",
                 "--units", "absolute"]
        size = ["--n", "12"]
    return [
        ["generate", "--k", "2", "--t", "5", "--seed", "1",
         "--out", "{dir}/graph.tsbm"] + size + chain,
        ["recover", "--input", "{dir}/graph.tsbm", "--algorithm", algorithm,
         "--k", "2", "--seed", "1", "--out", "{out}"] + chain + list(extra),
    ]


_F, _G = "0.5,0.3,0.2", "0.2,0.3,0.5"


def _categorical_graph(directory):
    """One snapshot of three symbols, N=40, with its labels line."""
    f, g = (FiniteDistribution([float(x) for x in p.split(",")]) for p in (_F, _G))
    labels = sample_labelling(40, 2, seed=1)
    write_snapshots(os.path.join(directory, "graph.tsbm"),
                    sample_categorical_snapshots(labels, f, g, seed=2))


CASES = {f"experiment_{alg}.csv": [_experiment(alg)] for alg in ALGORITHMS}
CASES.update({f"recover_{alg}.labels": _recover(alg) for alg in ALGORITHMS})
for _alg in ("online", "online-learn"):
    CASES[f"recover_{_alg}-random.labels"] = _recover(_alg, "--init", "random")
CASES["recover_refine-categorical.labels"] = [
    _categorical_graph,
    ["recover", "--input", "{dir}/graph.tsbm", "--algorithm", "refine", "--k", "2",
     "--seed", "1", "--f", _F, "--g", _G, "--out", "{out}"],
]
# default 19x19 grid at N=500: holds cells past the linear scan and capped cells
for _conv in ("exact", "itilde"):
    CASES[f"threshold_{_conv}.csv"] = [
        ["threshold", "--mu1", "1.51", "--nu1", "1.5", "--convention", _conv,
         "--out", "{out}"],
    ]
# the figure-2 bundle writes one grid per multiplier under these names
for _mult in ("1.51", "2.50", "4.00"):
    CASES[f"fig2_mu{_mult}.csv"] = [["replicate-figure", "--figure", "2", "--out", "{dir}"]]


def _produce(name, directory):
    out = os.path.join(directory, name)
    for argv in CASES[name]:
        if callable(argv):
            argv(directory)
            continue
        rc = main([a.format(out=out, dir=directory) for a in argv])
        assert rc == 0, (name, argv)
    with open(out, "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name, tmp_path):
    with open(os.path.join(GOLDEN, name), "rb") as fh:
        expected = fh.read()
    assert _produce(name, str(tmp_path)) == expected


BUNDLES = "figure_bundles.jsonl"
# figure_bundle calls pinned by BUNDLES: default trial counts and an override
_BUNDLE_CALLS = {"default": {}, "trials=3,seed=11": {"trials": 3, "seed": 11}}


def _bundle_lines():
    """One JSON line per config of figures 3-7, for each of _BUNDLE_CALLS."""
    lines = []
    for call, kwargs in _BUNDLE_CALLS.items():
        for figure in range(3, 8):
            kind, configs = figure_bundle(figure, **kwargs)
            assert kind == "experiments"
            lines += [json.dumps({"call": call, "figure": figure, **asdict(c)}, sort_keys=True)
                      for c in configs]
    return "\n".join(lines) + "\n"


def test_figure_bundles_match_golden():
    with open(os.path.join(GOLDEN, BUNDLES)) as fh:
        expected = fh.read()
    assert _bundle_lines() == expected


if __name__ == "__main__":
    # regenerate every golden file from the current code
    import tempfile

    os.makedirs(GOLDEN, exist_ok=True)
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            data = _produce(name, tmp)
        with open(os.path.join(GOLDEN, name), "wb") as fh:
            fh.write(data)
        print(f"wrote {name}", file=sys.stderr)
    with open(os.path.join(GOLDEN, BUNDLES), "w") as fh:
        fh.write(_bundle_lines())
    print(f"wrote {BUNDLES}", file=sys.stderr)
