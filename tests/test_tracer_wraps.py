"""The benchmark tracer's wrap table against the library names it wraps.

``bench/tracing.py`` swaps named module and class attributes of ``tsbm`` for
timing wrappers, so removing or renaming one of them breaks the benchmark.
This test catches that in the tier-1 suite, and runs the wrappers and their
hooks on real calls, so that a changed signature which breaks a hook fails
here too.  ROADMAP item 3 step B, which moves tracing into the library,
deletes this test together with the table.
"""

import importlib.util
import math
from pathlib import Path

from tsbm import harness
from tsbm.recovery import MarkovKernel, refine_recover
from tsbm.sbm import sample_labelling, sample_markov_snapshots

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_install_then_restore_puts_every_original_back():
    tracing = _tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)  # a missing name raises here
        wrapped = list(tracer._saved)  # (owner, attribute, original)
        for owner, attr, original in wrapped:
            assert getattr(owner, attr).__wrapped__ is original, (owner, attr)
    finally:
        tracer.restore()
    assert len(wrapped) > 20
    for owner, attr, original in wrapped:
        assert getattr(owner, attr) is original, (owner, attr)


def test_wrappers_and_hooks_run_on_real_calls():
    tracing = _tracing()
    tracer = tracing.Tracer()
    intra, inter = harness.chains_in_units(60, 6.0, 1.0, 0.7, 0.3)
    try:
        tracing.install(tracer)
        truth = sample_labelling(60, 2, seed=1)
        array = sample_markov_snapshots(truth, intra, inter, 4, seed=2)
        labels, _ = harness.recover(array, "online", 2, 3, chains=(intra, inter))
        assert labels.shape == (60,)
        small = sample_markov_snapshots(sample_labelling(12, 2, seed=4), intra, inter, 5, seed=5)
        labels = refine_recover(small, MarkovKernel(intra), MarkovKernel(inter), 2, 6,
                                mode="loo")
        assert labels.shape == (12,)
    finally:
        tracer.restore()
    names = {span[0] for span in tracer.spans}
    for name in ("spectral.spectral_cluster", "spectral.top_eigenpairs", "spectral.kmeans",
                 "spectral.leave_one_out_cluster", "recovery.OnlineLikelihood.step"):
        assert name in names, name
    resid = tracer.maxima["spectral.top_eigenpairs.resid_max"]
    assert math.isfinite(resid) and resid < 1e-6
