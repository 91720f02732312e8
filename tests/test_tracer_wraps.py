"""The benchmark tracer's wrap table against the library names it wraps.

``bench/tracing.py`` swaps named module and class attributes of ``tsbm`` for
timing wrappers, so removing or renaming one of them breaks the benchmark.
This test catches that in the tier-1 suite.  ROADMAP item 3 step B, which
moves tracing into the library, deletes this test together with the table.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_install_then_restore_puts_every_original_back():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
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
