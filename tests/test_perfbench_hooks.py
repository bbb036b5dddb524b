"""The benchmark's tracer finds every layer it wraps in the package.

`perfbench/tracing.py` binds its hooks by name (`owner.__dict__[attr]`), so
renaming or moving a wrapped function or method breaks the traced benchmark
run without failing any other test.  Building a `Tracer` resolves every hook.
"""

from pathlib import Path

from tnbpa import base, engine
from tnbpa.normalization import standardize
from tnbpa.oracle import GenParams, random_system

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_hooks_resolve_and_count(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    std = standardize(random_system(GenParams(constants=64, norm_cap=4, seed=42)))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        engine.compute_bisimilarity_base(std)
    finally:
        tracer.uninstall()
    counts = tracer.counter_block()
    assert counts["engine.candidates"] > 0
    # The partial base inherits the wrapped method, so the `base.dcmp` layer
    # sees decompositions over both bases.
    assert engine._PartialBase.dcmp is base.DecompositionBase.dcmp
    # Every lpftest call decomposes its tail over the old base, and every
    # call that passes step 1 decomposes it over the partial base too.
    lpftests = counts["engine.lpftest.calls"]
    assert counts["base.dcmp.calls"] >= 2 * lpftests - counts.get("engine.reject_step1", 0)
