"""Golden outputs: seeded CLI runs must reproduce committed files byte for byte.

Each case is one ``tsbm`` command line; ``{out}`` stands for the output
path and ``{dir}`` for a temporary directory.  A change that moves seeded
output on purpose regenerates the files with ``python tests/test_golden.py``
and says why in CHANGES.md.
"""

import os
import sys

import pytest

from tsbm.cli import main
from tsbm.harness import ALGORITHMS

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


CASES = {f"experiment_{alg}.csv": [_experiment(alg)] for alg in ALGORITHMS}
CASES["recover_refine-loo.labels"] = [
    ["generate", "--n", "40", "--k", "2", "--t", "5", "--seed", "1",
     "--out", "{dir}/graph.tsbm"] + _CHAIN,
    ["recover", "--input", "{dir}/graph.tsbm", "--algorithm", "refine-loo",
     "--k", "2", "--seed", "1", "--out", "{out}"] + _CHAIN,
]
# default 19x19 grid at N=500: holds cells past the linear scan and capped cells
for _conv in ("exact", "itilde"):
    CASES[f"threshold_{_conv}.csv"] = [
        ["threshold", "--mu1", "1.51", "--nu1", "1.5", "--convention", _conv,
         "--out", "{out}"],
    ]


def _produce(name, directory):
    out = os.path.join(directory, name)
    for argv in CASES[name]:
        rc = main([a.format(out=out, dir=directory) for a in argv])
        assert rc == 0, (name, argv)
    with open(out, "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name, tmp_path):
    with open(os.path.join(GOLDEN, name), "rb") as fh:
        expected = fh.read()
    assert _produce(name, str(tmp_path)) == expected


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
