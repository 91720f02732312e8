"""Pinned outputs of the transfer-matrix engine and of the T* search.

``markov_pinned.json`` holds exact values (as ``float.hex``) of the Renyi,
Hellinger and J path sums on a fixed set of chain pairs; a refactor of the
engine must reproduce them bit for bit.  The T* grids are pinned by the
sha1 of their bytes.  A change that moves either on purpose regenerates
the file with ``python tests/test_markov_pinned.py`` and says why in
CHANGES.md.

The engine runs on plain Python floats, so the values do not depend on the
BLAS kernel numpy loads; a test reruns the engine cases under OpenBLAS's
``OPENBLAS_CORETYPE=Prescott`` kernels (no fused multiply-adds) to keep it so.
"""

import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from markov_reference import geometric_weights
from tsbm.harness import threshold_grid
from tsbm.markov import (
    BinaryMarkovChain,
    _geometric_weights,
    chain_from_stationary,
    markov_hellinger_sq,
    markov_j_quantity,
    markov_renyi_exact,
)

PINNED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "markov_pinned.json")
HORIZONS = (1, 2, 1000, 123457)
QUANTITIES = {
    "renyi_0.3": lambda f, g, T: markov_renyi_exact(0.3, f, g, T),
    "renyi_0.5": lambda f, g, T: markov_renyi_exact(0.5, f, g, T),
    "renyi_1.5": lambda f, g, T: markov_renyi_exact(1.5, f, g, T),
    "hellinger_sq": markov_hellinger_sq,
    "j_quantity": markov_j_quantity,
}


def _chain_pairs():
    """About twenty pairs: the figure-4 and figure-2 chains, sparse pairs
    whose T* > 1024, boundary chains (static states,
    zero initial mass, infinite order-1.5 entries, disjoint laws), and
    seeded random pairs."""
    n = 500
    rho = math.log(n) / n
    pairs = [(chain_from_stationary(m * rho, 0.7), chain_from_stationary(1.5 * rho, 0.3))
             for m in (1.5, 2.5, 4.0)]
    pairs += [
        (chain_from_stationary(1.51 * rho, 0.95), chain_from_stationary(1.5 * rho, 0.05)),
        (chain_from_stationary(1.5 * rho / 400, 0.7), chain_from_stationary(1.5 * rho / 400, 0.3)),
        (BinaryMarkovChain(3e-3, 0.0, 0.999), BinaryMarkovChain(1e-3, 0.0, 0.998)),
        (BinaryMarkovChain(0.99, 0.99, 0.010000001), BinaryMarkovChain(0.99, 0.99, 0.01)),
        (chain_from_stationary(0.02, 0.5), chain_from_stationary(0.02, 0.5)),
        (BinaryMarkovChain(0.3, 0.2, 1.0), BinaryMarkovChain(0.3, 0.2, 0.9)),
        (BinaryMarkovChain(0.3, 0.2, 0.9), BinaryMarkovChain(0.3, 0.2, 1.0)),
        (BinaryMarkovChain(0.0, 0.3, 0.6), BinaryMarkovChain(0.5, 0.3, 0.6)),
        (BinaryMarkovChain(0.0, 0.5, 0.5), BinaryMarkovChain(1.0, 0.5, 0.5)),
        (BinaryMarkovChain(0.5, 0.0, 1.0), BinaryMarkovChain(0.5, 1.0, 0.0)),
    ]
    rng = np.random.default_rng(20261018)
    for scale in (1.0, 1.0, 1.0, 1e-2, 1e-2, 1e-4, 1e-4):
        mu, p01, p11 = rng.uniform(0.0, 1.0, (3, 2))
        pairs.append(tuple(BinaryMarkovChain(scale * mu[c], scale * p01[c], p11[c])
                           for c in (0, 1)))
    return pairs


def _value(name, f, g, T):
    """``float.hex`` of the quantity, or None where it raises."""
    try:
        return float(QUANTITIES[name](f, g, T)).hex()
    except ValueError:
        return None


def _table(pairs):
    return {name: [[_value(name, f, g, T) for T in HORIZONS] for f, g in pairs]
            for name in QUANTITIES}


def _load():
    with open(PINNED) as fh:
        blob = json.load(fh)
    pairs = [tuple(BinaryMarkovChain(*(float.fromhex(x) for x in chain)) for chain in pair)
             for pair in blob["pairs"]]
    return blob, pairs


@pytest.mark.parametrize("name", sorted(QUANTITIES))
def test_engine_values_bit_identical(name):
    blob, pairs = _load()
    assert blob["horizons"] == list(HORIZONS)
    got = [[_value(name, f, g, T) for T in HORIZONS] for f, g in pairs]
    assert got == blob["values"][name]


def _uses_openblas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return "openblas" in str(blas.get("name", "")).lower()


@pytest.mark.skipif(not _uses_openblas(), reason="numpy does not use OpenBLAS")
def test_engine_values_without_fma_kernels():
    # the pins hold on OpenBLAS's Prescott kernels, whose products do not
    # fuse multiply-adds: no path sum goes through the BLAS
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott")
    here = os.path.dirname(os.path.abspath(__file__))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{os.path.abspath(__file__)}::test_engine_values_bit_identical"],
        cwd=os.path.dirname(here), env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]


@pytest.mark.parametrize("alpha,ulps", [(0.5, 0), (0.3, 4), (1.5, 4)])
def test_float_weights_match_numpy_reference(alpha, ulps):
    # the float weights against numpy's, on the boundary chains too: zero
    # initial mass, p01 = 0, p11 = 1, disjoint laws.  At order 1/2 both take
    # square roots, bit for bit; elsewhere numpy's power may round otherwise
    for pair in _chain_pairs():
        for f, g in (pair, pair[::-1]):
            r, R, inf = _geometric_weights(alpha, f, g)
            want_r, want_R, r_inf, R_inf = geometric_weights(alpha, f, g)
            for got, want in zip(r + R, want_r.tolist() + want_R.ravel().tolist()):
                assert (got.hex() == want.hex() if ulps == 0
                        else abs(got - want) <= ulps * math.ulp(want)), (f, g, got, want)
            assert list(inf) == r_inf.tolist() + R_inf.ravel().tolist()


# sha1 of the bytes of threshold_grid(n, 2, mult, 1.5, v, v, convention),
# v = linspace(0.05, 0.95, 19): the figure-2 grid at three N and four
# multipliers; the mu1 = 1.51 grids hold cells with T* > 1024 and cells
# that reach t_max.
GRID_SHA1 = {
    (500, 1.2, "exact"): "4c31b56a5af1f3f1d1643994807d1e794c31ae06",
    (500, 1.2, "itilde"): "bcd66c3d90daf31f4d9a6017c323064b4bfe8229",
    (500, 1.51, "exact"): "5820892525c5370cef1929edffe613d9187826dc",
    (500, 1.51, "itilde"): "22838d450ff1f4df691db323ed0b6969eb42dcd1",
    (500, 2.5, "exact"): "50cc9f30a202761b7d021e0ad1bcd2bba72caed0",
    (500, 2.5, "itilde"): "973c51f1eefa6a9efd04cd77a2387c022e67a07d",
    (500, 4.0, "exact"): "3a38f6d8506a32b29f10f8e0b1eae490cef639c8",
    (500, 4.0, "itilde"): "097fb4b19bb40b0f4ad68467768fbcd7d0c410f9",
    (2000, 1.2, "exact"): "0edc1a255644edfe5c9378b677013d90a34dd730",
    (2000, 1.2, "itilde"): "dd6f0cc9068287f140da471373d95cdd273b46af",
    (2000, 1.51, "exact"): "2ee57ba6fcfddcff2afdcb7dcb714c709dafb63d",
    (2000, 1.51, "itilde"): "3017fc9180d4ad2f345ecaaa914a70b1bedf4fc2",
    (2000, 2.5, "exact"): "997f244038b4d6d3c9b9da1af4c4698daca612d5",
    (2000, 2.5, "itilde"): "ebb6942925925d167e5175c3993112192385d489",
    (2000, 4.0, "exact"): "94f7323717e62457f7d7704528b5f3b6d5340e7f",
    (2000, 4.0, "itilde"): "cb2b971deb8db9100bf22ea454c5e5e6ff96cd86",
    (30000, 1.2, "exact"): "9252ac874559d326d19392f3b4ed705c8d23ea75",
    (30000, 1.2, "itilde"): "883323b7adcd9247d3078a8ed17f53d5238093d7",
    (30000, 1.51, "exact"): "322a43717228e0d0414a6cda37992fe1831d1cf1",
    (30000, 1.51, "itilde"): "b86d98e722059ad5948da6b9c943d99011612f47",
    (30000, 2.5, "exact"): "4e2a5078ed9b9fde7929820320d459c99175ecad",
    (30000, 2.5, "itilde"): "60524a6a2199ff011f73bd326d746a93dc3062da",
    (30000, 4.0, "exact"): "47806182d79d4c71717661f8e60dd12e6ca5ab24",
    (30000, 4.0, "itilde"): "5051f48cb47f6a200efefd95e3031c9fb67588cb",
}


@pytest.mark.parametrize("n,mult,convention", sorted(GRID_SHA1))
def test_t_star_grid_digest(n, mult, convention):
    values = np.linspace(0.05, 0.95, 19)
    grid = threshold_grid(n, 2, mult, 1.5, values, values, convention)
    assert hashlib.sha1(grid.tobytes()).hexdigest() == GRID_SHA1[n, mult, convention]


if __name__ == "__main__":
    pairs = _chain_pairs()
    blob = {
        "horizons": list(HORIZONS),
        "pairs": [[[float(c.mu1).hex(), float(c.p01).hex(), float(c.p11).hex()] for c in pair]
                  for pair in pairs],
        "values": _table(pairs),
    }
    with open(PINNED, "w") as fh:
        json.dump(blob, fh, indent=1)
        fh.write("\n")
