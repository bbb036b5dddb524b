"""The benchmark's tracer finds every layer it wraps in the package, and
every hook it runs reads what it expects.

`perfbench/tracing.py` binds its hooks by name (`owner.__dict__[attr]`), so
renaming or moving a wrapped function or method breaks the traced benchmark
run without failing any other test.  Building a `Tracer` resolves every hook;
an exhaustive run and a corpus trial under it run every one of them.
"""

from conftest import ROOT
from tnbpa import base, engine, oracle
from tnbpa.normalization import standardize
from tnbpa.oracle import GenParams, random_system

PERFBENCH = ROOT / "perfbench"


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


def test_every_hook_runs_on_an_exhaustive_run_and_a_corpus_trial(monkeypatch):
    # The `engine.exhaustive` label reads `engine.CandidateMode`; the closure,
    # replay and trial hooks read `SilentClosure.states`, `Distinction.size()`
    # and `TrialReport.to_json()`.  Corpus trial 0 of the `oracle-differential`
    # workload replays eleven certificates and skips none.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    std = standardize(random_system(GenParams(constants=64, norm_cap=4, seed=42)))
    corpus = workloads.OracleDifferential
    tracer = tracing.Tracer()
    tracer.install()
    try:
        engine.compute_bisimilarity_base(std, engine.CandidateMode.EXHAUSTIVE)
        oracle.differential_trial(corpus.params(0), corpus.k_max, confirm_k=corpus.confirm_k)
    finally:
        tracer.uninstall()
    counts = tracer.counter_block()
    assert counts["engine.exhaustive.calls"] > 0
    found = {k: v for k, v in counts.items() if k.startswith("oracle.")}
    assert found.pop("oracle.certificates_skipped") == 0
    layers = {name + ".calls" for _, _, name, _ in tracing.TARGETS if name.startswith("oracle.")}
    hooks = {"oracle.closure_states_max", "oracle.certificate_nodes", "oracle.certificates_replayed"}
    assert found.keys() == layers | hooks
    assert all(v > 0 for v in found.values())
