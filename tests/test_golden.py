"""Golden outputs: seeded CLI runs must reproduce committed files byte for byte.

Each case is a list of ``tsbm`` command lines, or of callables that write
an input file into ``{dir}``; ``{out}`` stands for the output path and
``{dir}`` for a temporary directory.  A change that moves seeded
output on purpose regenerates the files with ``python tests/test_golden.py``
and says why in CHANGES.md.  The same script rewrites the sha256 digests of
the figure CSVs (``figure_digests.json``), one per config of figures 3-7.
"""

import contextlib
import hashlib
import json
import os
import sys
from dataclasses import asdict

import pytest

from tsbm.cli import main
from tsbm.divergence import FiniteDistribution
from tsbm.harness import ALGORITHMS, figure_bundle, records_to_csv, run_experiment
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
# default 19x19 grid at N=500: holds cells with T* > 1024 and capped cells
for _conv in ("exact", "itilde"):
    CASES[f"threshold_{_conv}.csv"] = [
        ["threshold", "--mu1", "1.51", "--nu1", "1.5", "--convention", _conv,
         "--out", "{out}"],
    ]
# the figure-2 bundle writes one grid per multiplier under these names
for _mult in ("1.51", "2.50", "4.00"):
    CASES[f"fig2_mu{_mult}.csv"] = [["replicate-figure", "--figure", "2", "--out", "{dir}"]]


def _printed(name, argv):
    """A step that runs ``tsbm argv`` and saves what it prints as ``{dir}/name``."""
    def run(directory):
        with open(os.path.join(directory, name), "w") as fh, contextlib.redirect_stdout(fh):
            assert main(argv) == 0, argv
    return run


# the whole report, text and JSON: figure 4's chain pair at its T* (logn
# units), figure 6's at nu1 = 0.04 (absolute) and a sparse pair at K = 3
# whose T* both conventions cap (inv_n)
_REPORTS = {
    "fig4_mu1.5_t13": ["--n", "500", "--t", "13", "--mu1", "1.5", "--nu1", "1.5",
                       "--p11", "0.7", "--q11", "0.3"],
    "fig6_nu0.04_t30": ["--n", "1000", "--t", "30", "--mu1", "0.05", "--nu1", "0.04",
                        "--p11", "0.6", "--q11", "0.3", "--units", "absolute"],
    "sparse_k3_capped": ["--n", "100", "--k", "3", "--t", "5", "--mu1", "0.15", "--nu1", "0.1",
                         "--p11", "0.4", "--q11", "0.3", "--units", "inv_n", "--t-max", "50"],
}
for _name, _args in _REPORTS.items():
    CASES[f"divergence_{_name}.txt"] = [_printed(f"divergence_{_name}.txt",
                                                 ["divergence", *_args])]
    CASES[f"divergence_{_name}.json"] = [["divergence", *_args, "--json", "{out}"]]


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


# sha256 of the nine figure-7 ``online`` deterministic CSVs at two trials
# each (the figure runs twenty): in-place sweeps from a spectral start at
# N = 500, T = 30, the only figure-scale asynchronous output pinned
FIG7_ONLINE_SHA256 = {
    "fig7a_q0.3_online": "575752484ccf7594d922f4377cf2eb53a04990f57390c8083f2e1cb6e8fd4894",
    "fig7a_q0.5_online": "cf256d91f2ca59fd1965ed6ee5a7acd47a27584d5d7314f0b351d4aff0177ca4",
    "fig7a_q0.7_online": "402a229aa5a9d7fce5848c7a48fc81466211891e2232e4a23a195b29aa591c99",
    "fig7a_q0.9_online": "21b1a9be0b1d9211ef965a8154868aefda630491fbaa6ccbb1d483fd32b3ba75",
    "fig7b_p0.5_online": "b21e6db915dc659aa1c076edff8aba656b4191eb0827de3f29ff62d6388d5d5f",
    "fig7b_p0.7_online": "00a9a925b2ae1f67da53be351ce216b23f106346a2a02ad3d4a242ba38d6c7fd",
    "fig7b_p0.9_online": "4f1c57dfde24e3a4f99205bb25f19af4e30d2c19e2839d2485dbe3656a12670b",
    "fig7b_p0.99_online": "14b46ed176461a740b3dc7ff2025b06f2eba795a4734cbea5c6a3539ff0d3166",
    "fig7b_p1.0_online": "8eb76aec043b00f57ec1ec7c9b187142f20bfd7ce2b4be350662c39463968c30",
}
_FIG7_ONLINE = {c.name: c for c in figure_bundle(7, trials=2)[1] if c.algorithm == "online"}


@pytest.mark.parametrize("name", sorted(FIG7_ONLINE_SHA256))
def test_figure7_online_csv_digest(name):
    config = _FIG7_ONLINE[name]
    text = records_to_csv(run_experiment(config), config, deterministic=True)
    assert hashlib.sha256(text.encode()).hexdigest() == FIG7_ONLINE_SHA256[name]


# sha256 of every CSV that ``replicate-figure --figure F --trials 1
# --deterministic`` writes for F in 3..7, keyed by config name: one digest
# per file, so a failure names the config
FIGURE_DIGESTS = "figure_digests.json"
_FIGURE_CONFIGS = {c.name: c for figure in range(3, 8)
                   for c in figure_bundle(figure, trials=1)[1]}


def _figure_digest(name):
    config = _FIGURE_CONFIGS[name]
    text = records_to_csv(run_experiment(config), config, deterministic=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def figure_digests():
    with open(os.path.join(GOLDEN, FIGURE_DIGESTS)) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(_FIGURE_CONFIGS))
def test_figure_csv_digest(name, figure_digests):
    assert _figure_digest(name) == figure_digests[name]


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
    with open(os.path.join(GOLDEN, FIGURE_DIGESTS), "w") as fh:
        json.dump({name: _figure_digest(name) for name in sorted(_FIGURE_CONFIGS)}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {FIGURE_DIGESTS}", file=sys.stderr)
