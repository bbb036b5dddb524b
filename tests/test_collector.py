"""The decision and the differential trial run with CPython's cyclic
collector paused.

`parse_system`, `standardize`, `compute_bisimilarity_base`,
`differential_trial`, strategy extraction and replay switch the collector
off for their duration and put back the state it had, on return and on each
way they raise; one table checks every entry point with the collector on and
off.  Pausing is sound only because none of them makes reference cycles:
reference counting frees all they drop, which `gc.collect() == 0` after them
shows, on the decision grid here and on the session's run of the acceptance
corpus, whose trials extract and replay every certificate.  A trial drops
its game context inside the pause, so the strategy DAG dies before the
collector is back on, and the collection that the pause's allocations start
does not scan it.
"""

import gc

import pytest

from conftest import EX1_TEXT, chain_text
from tnbpa import engine, oracle
from tnbpa.engine import CandidateMode, compute_bisimilarity_base, trace_to_json
from tnbpa.model import ParseError, parse_system, serialize_system
from tnbpa.normalization import EngineInternalError, NotTotallyNormedError, standardize
from tnbpa.oracle import (
    Distinction,
    GameContext,
    GenParams,
    ReplayError,
    StateGuardExceeded,
    differential_trial,
    random_system,
    replay_distinction,
)

ABC = "constants: A B C\nA -a-> eps\nB -b-> eps\nC -a-> B\nC -tau-> A B\n"


def _parse(monkeypatch):
    return (lambda: parse_system(ABC), lambda: parse_system("constants: A\nA -a-> B\n"), ParseError)


def _standardize(monkeypatch):
    good, unnormed = parse_system(ABC), parse_system("constants: A\nA -a-> A\n")
    return (lambda: standardize(good), lambda: standardize(unnormed), NotTotallyNormedError)


def _base(monkeypatch):
    std = standardize(parse_system(ABC))

    def failing_pass(*args):
        raise EngineInternalError("a pass failed")

    def failing_run():
        monkeypatch.setattr(engine, "refine", failing_pass)
        compute_bisimilarity_base(std)

    return (lambda: compute_bisimilarity_base(std), failing_run, EngineInternalError)


def _trial(monkeypatch):
    # GenParams rejects invalid knobs before a trial starts, so the raise
    # path is a refuted pair whose extraction yields no certificate.
    def failing_run():
        monkeypatch.setattr(oracle.GameContext, "find_distinction", lambda self, p, q, k_max: None)
        differential_trial(GenParams(constants=5), k_max=8, pairs_per_trial=5)

    return (
        lambda: differential_trial(GenParams(constants=4, seed=2), k_max=8, pairs_per_trial=4),
        failing_run,
        AssertionError,
    )


def _extract(monkeypatch):
    std = standardize(parse_system(EX1_TEXT))
    x, y = std.parse_process("X"), std.parse_process("Y")

    def guarded_run():
        monkeypatch.setattr(oracle, "NODE_LIMIT", 0)
        GameContext(std).find_distinction(x, y, 16)

    return (lambda: GameContext(std).find_distinction(x, y, 16), guarded_run, StateGuardExceeded)


def _deep_extract(monkeypatch):
    # The norm-doubling chain of the CLI's deep recursion test: the descent
    # refuting X11 against X10 runs out of stack.
    std = standardize(parse_system(chain_text("doubling", 14)))

    def extract(left, right):
        return GameContext(std).find_distinction(std.parse_process(left), std.parse_process(right), 4)

    return (lambda: extract("X2", "X1"), lambda: extract("X11", "X10"), RecursionError)


def _replay(monkeypatch):
    std = standardize(parse_system(EX1_TEXT))
    d = GameContext(std).find_distinction(std.parse_process("X"), std.parse_process("Y"), 16)
    tampered = Distinction(d.left, d.right, d.side, d.action, d.target, ())
    return (lambda: replay_distinction(std, d), lambda: replay_distinction(std, tampered), ReplayError)


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize(
    "entry",
    [_parse, _standardize, _base, _trial, _extract, _deep_extract, _replay],
    ids=["parse", "standardize", "base", "trial", "extract", "deep-extract", "replay"],
)
def test_each_paused_entry_point_restores_the_collector_state(entry, enabled, monkeypatch):
    returns, raises, error = entry(monkeypatch)
    if not enabled:
        gc.disable()
    try:
        returns()
        assert gc.isenabled() is enabled
        with pytest.raises(error):
            raises()
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


# Random systems at n 4..1024 and the four chain families.  The exhaustive
# mode runs up to n = 256: at n = 1024 it takes seconds per system.
GRID = [
    (serialize_system(random_system(GenParams(constants=n, norm_cap=cap, seed=n + cap))), n <= 256)
    for n in (4, 16, 64, 256, 1024)
    for cap in (1, 4, 8)
]
CHAINS = [(chain_text(family, 8), True) for family in ("doubling", "clone", "composite-root", "ladder")]
BAD_INPUTS = [
    "constants: A\nA -a-> B\n",
    "constants: A eps\n",
    "constants: A\nA -a- eps\n",
    "constants: A\nA -a-> A eps\n",
    "constants: A B\nA -a-> eps\nB -a-> B\n",
    "constants: A\nA -a-> eps\nA -tau-> eps\n",
]


def _decide(text: str, exhaustive: bool) -> None:
    std = standardize(parse_system(text))
    for mode in CandidateMode if exhaustive else [CandidateMode.PRUNED]:
        _, trace = compute_bisimilarity_base(std, mode)
        trace_to_json(std, trace)


def _reject(text: str) -> None:
    try:
        standardize(parse_system(text))
    except (ParseError, NotTotallyNormedError):
        return
    raise AssertionError(f"accepted {text!r}")


def test_the_decision_leaves_no_cyclic_garbage():
    cyclic = []
    gc.collect()
    gc.disable()
    try:
        for text, exhaustive in GRID + CHAINS:
            _decide(text, exhaustive)
            if gc.collect():
                cyclic.append(text.splitlines()[0][:40])
        for text in BAD_INPUTS:
            _reject(text)
            if gc.collect():
                cyclic.append(text)
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert cyclic == []


def _collections_during(call, *args):
    """call(*args) and the generations of the collections that ran during
    it, with the collector enabled and its counts reset first."""
    started = []

    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        return call(*args), started
    finally:
        gc.callbacks.remove(count)


def test_deciding_a_large_system_runs_no_collection_while_paused():
    # Unpaused, the three stages ran 302 young collections, 26 middle ones
    # and one full one on this system.  Paused, no collection runs inside a
    # stage; the counts it piled up start at most one young collection once
    # the collector is back on (CPython 3.11 runs it as the block exits).
    text = serialize_system(random_system(GenParams(constants=4096, norm_cap=4, seed=42)))
    assert gc.isenabled()
    sys, parse_runs = _collections_during(parse_system, text)
    std, standardize_runs = _collections_during(standardize, sys)
    _, base_runs = _collections_during(compute_bisimilarity_base, std)
    for runs in (parse_runs, standardize_runs, base_runs):
        assert runs in ([], [0])


def test_a_trial_frees_its_game_while_the_collector_is_off(monkeypatch):
    # At the context's death the collector is still off and has run no
    # collection since the trial started, so the strategy DAG it held was
    # never scanned.
    seen = []
    collections = []

    def record(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    monkeypatch.setattr(
        oracle.GameContext, "__del__", lambda self: seen.append((gc.isenabled(), len(collections))),
        raising=False,
    )
    gc.collect()
    assert gc.isenabled()
    gc.callbacks.append(record)
    try:
        report = differential_trial(GenParams(constants=4, seed=2), k_max=8, pairs_per_trial=4)
    finally:
        gc.callbacks.remove(record)
    assert any(p.certificate == "replayed" for p in report.pairs)
    assert seen == [(False, 0)]


def test_corpus_trials_leave_no_cyclic_garbage(corpus_run):
    # The premise of pausing the collector for a whole trial, on all 105
    # trials of the acceptance corpus: one collection after them finds
    # nothing.
    _, cyclic = corpus_run
    assert cyclic == 0
