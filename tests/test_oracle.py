import concurrent.futures
import errno
import random
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tnbpa.base import initial_base
from tnbpa import engine
from tnbpa.engine import CandidateMode, compute_bisimilarity_base
from tnbpa.model import TAU, format_process, is_silent, parse_system, serialize_system
from tnbpa import oracle
from tnbpa.normalization import check_totally_normed, compute_norms, standardize, view
from tnbpa.oracle import (
    DefenderReply,
    Distinction,
    GameContext,
    GenParams,
    GuardExceeded,
    NORM_BUDGET,
    ReplayError,
    StateGuardExceeded,
    TrialReport,
    differential_run,
    differential_trial,
    distinction_to_json,
    random_system,
    replay_distinction,
    sample_dcmp_equal_pair,
    silent_closure_dec,
    summarize,
    verify_base_generators,
)

from conftest import SYSTEMS, TWO_CYCLE, ReferenceGameContext, chain_text, strategy_table


def test_closure_without_silent_rules():
    v = view(parse_system("constants: P\nP -a-> eps\n"))
    assert silent_closure_dec(v, (0,)).states == ((0,),)


def test_closure_example_one(ex1_std):
    x = ex1_std.parse_process("X")
    xp = ex1_std.parse_process("X'")
    assert silent_closure_dec(ex1_std, x).states == (x, xp)

    xy = ex1_std.parse_process("X Y")
    assert silent_closure_dec(ex1_std, xy).states == (xy, ex1_std.parse_process("X' Y"))


def test_closure_lists_states_in_bfs_order():
    # Depth-first order would list W, two silent steps away, before Z.
    v = view(parse_system(
        "constants: X Y Z W\nX -tau-> Y\nX -tau-> Z\nY -tau-> W\n"
        "X -a-> eps\nY -a-> eps\nZ -a-> eps\nW -a-> eps\n"
    ))
    assert silent_closure_dec(v, (0,)).states == ((0,), (1,), (2,), (3,))


def test_closure_skips_increasing_silent_steps(sysb_std):
    # Y -tau-> X raises the norm, so it is not a decreasing step.
    y = sysb_std.parse_process("Y")
    assert silent_closure_dec(sysb_std, y).states == (y,)


def test_closure_handles_uncontracted_cycles():
    v = view(parse_system(TWO_CYCLE))
    closure = silent_closure_dec(v, (0,))
    assert set(closure.states) == {(0,), (1,)}


def test_closure_guard(ex1_std, monkeypatch):
    monkeypatch.setattr(oracle, "CLOSURE_LIMIT", 1)
    with pytest.raises(GuardExceeded, match="silent closure of .* exceeded 1 states"):
        silent_closure_dec(ex1_std, ex1_std.parse_process("X"))


def test_memo_guard(ex1_std, monkeypatch):
    monkeypatch.setattr(oracle, "MEMO_LIMIT", 1)
    ctx = GameContext(ex1_std)
    x, y = ex1_std.parse_process("X"), ex1_std.parse_process("Y")
    with pytest.raises(StateGuardExceeded, match="memo exceeded 1 entries"):
        ctx.related(x, y, 16)


def test_node_guard_skips_only_the_certificate(monkeypatch):
    # Extraction trips the node guard, but the level search that confirms
    # the engine's verdict is unaffected, so the pair stays confirmed.
    params = GenParams(constants=6, seed=500)
    before = differential_trial(params, 12, pairs_per_trial=10)
    monkeypatch.setattr(oracle, "NODE_LIMIT", 0)
    after = differential_trial(params, 12, pairs_per_trial=10)
    confirmed = [p for p in before.pairs if p.oracle == "confirmed"]
    assert confirmed and all(p.certificate == "replayed" for p in confirmed)
    assert [(p.oracle, p.level) for p in after.pairs] == [(p.oracle, p.level) for p in before.pairs]
    assert all(p.certificate == "skipped" for p in after.pairs if p.oracle == "confirmed")
    assert after.errors == []


def test_related_reflexive(ex1_std):
    ctx = GameContext(ex1_std)
    rng = random.Random(5)
    for _ in range(20):
        p = tuple(rng.randrange(ex1_std.n) for _ in range(rng.randint(0, 4)))
        for k in (0, 1, 4, 16):
            assert ctx.related(p, p, k)


def test_example_one_pair_fails_at_small_level(ex1_std):
    ctx = GameContext(ex1_std)
    x, y = ex1_std.parse_process("X"), ex1_std.parse_process("Y")
    level = ctx.refutation_level(x, y, 16)
    assert level is not None and level <= 4
    xp, yp = ex1_std.parse_process("X'"), ex1_std.parse_process("Y'")
    assert ctx.related(xp, yp, 16)


def test_anti_monotone_in_rounds():
    rng = random.Random(6)
    for seed in range(6):
        std = standardize(random_system(GenParams(constants=6, silent_prob=0.35, seed=seed)))
        ctx = GameContext(std, norm_budget=20)
        for _ in range(30):
            p = tuple(rng.randrange(std.n) for _ in range(rng.randint(0, 3)))
            q = tuple(rng.randrange(std.n) for _ in range(rng.randint(0, 3)))
            for k in range(5):
                if ctx.related(p, q, k + 1):
                    assert ctx.related(p, q, k)


def test_find_distinction_example_one(ex1_std):
    ctx = GameContext(ex1_std)
    x, y = ex1_std.parse_process("X"), ex1_std.parse_process("Y")
    d = ctx.find_distinction(x, y, 16)
    assert d is not None
    replay_distinction(ex1_std, d)
    assert ctx.find_distinction(x, x, 16) is None


def test_no_distinction_for_sysb_pairs(sysb_std):
    ctx = GameContext(sysb_std)
    a, b = sysb_std.parse_process("A"), sysb_std.parse_process("B")
    assert ctx.find_distinction(a, b, 16) is None
    ay, by = sysb_std.parse_process("A Y"), sysb_std.parse_process("B Y")
    assert ctx.find_distinction(ay, by, 16) is None


def test_norm_descent_certificate(ex1_std):
    ctx = GameContext(ex1_std)
    x = ex1_std.parse_process("X")
    xx = ex1_std.parse_process("X X")
    d = ctx.find_distinction(x, xx, 16)
    assert d is not None
    replay_distinction(ex1_std, d)


def test_norm_descent_on_silent_witness(sysb_std):
    # A's norm witness is visible; craft a pair whose descent crosses silent
    # steps by comparing X (norm 2) against a norm-1 process.
    ctx = GameContext(sysb_std)
    d = ctx.find_distinction(sysb_std.parse_process("X"), sysb_std.parse_process("B"), 16)
    assert d is not None
    replay_distinction(sysb_std, d)


@pytest.mark.parametrize("n, level, nodes", [(6, 3, 3), (10, 5, 5), (16, 8, 8)])
def test_ladder_is_refuted_at_a_level_that_grows_with_n(n, level, nodes):
    # The difference at the top travels down one rung per refinement pass
    # and one game level per rung, deeper than the acceptance corpus goes.
    std = standardize(parse_system(chain_text("ladder", n)))
    a, b = std.parse_process("A0"), std.parse_process("B0")
    base, trace = compute_bisimilarity_base(std)
    assert len(trace) == n // 2 + 1
    assert engine.check_equivalence(std, a, b, base=base).kind is engine.VerdictKind.NOT_BISIMILAR
    ctx = GameContext(std)
    assert ctx.refutation_level(a, b, 16) == level
    d = ctx.find_distinction(a, b, 16)
    assert d is not None and d.size() == nodes
    replay_distinction(std, d)


def test_distinctions_replay_across_fuzz_systems():
    rng = random.Random(9)
    replayed = 0
    for seed in range(8):
        std = standardize(random_system(GenParams(constants=6, silent_prob=0.3, seed=seed)))
        ctx = GameContext(std, norm_budget=20)
        for _ in range(15):
            p = tuple(rng.randrange(std.n) for _ in range(rng.randint(0, 3)))
            q = tuple(rng.randrange(std.n) for _ in range(rng.randint(0, 3)))
            d = ctx.find_distinction(p, q, 10)
            if d is not None:
                replay_distinction(std, d)
                replayed += 1
    assert replayed > 20  # the sample is not vacuous


def test_replay_rejects_tampered_certificates(ex1_std):
    ctx = GameContext(ex1_std)
    x, y = ex1_std.parse_process("X"), ex1_std.parse_process("Y")
    d = ctx.find_distinction(x, y, 16)

    wrong_action = Distinction(d.left, d.right, d.side, "zzz", d.target, d.replies)
    with pytest.raises(ReplayError, match="not available"):
        replay_distinction(ex1_std, wrong_action)

    if d.replies:
        dropped = Distinction(d.left, d.right, d.side, d.action, d.target, d.replies[1:])
        with pytest.raises(ReplayError, match="mismatch"):
            replay_distinction(ex1_std, dropped)

    # claiming a leaf where the defender can still answer
    b_move = Distinction(y, y, "left", "b", (), ())
    with pytest.raises(ReplayError, match="mismatch"):
        replay_distinction(ex1_std, b_move)


def test_replay_rejects_cycles(ex1_std):
    # A self-referential node whose continuation pair is legal (the attacker
    # re-challenges the intermediate) would let the defender play forever.
    xp = ex1_std.parse_process("X'")
    node = Distinction(xp, xp, "left", "a", (), ())
    node.replies = (DefenderReply("move", xp, (), node),)
    with pytest.raises(ReplayError, match="cycle"):
        replay_distinction(ex1_std, node)


# X is attacked along its witness step; Y answers it in two ways, so the
# root lists two replies.
TWO_REPLIES = """\
constants: X Y Z W
X -a-> eps
Y -a-> Z
Y -a-> W
Z -a-> eps
W -b-> eps
"""


def _two_reply_certificate():
    v = view(parse_system(TWO_REPLIES))
    d = GameContext(v).find_distinction((0,), (1,), 4)
    assert d is not None and len(d.replies) == 2
    return v, d


def test_replay_rejects_an_illegal_continuation():
    # Each reply continues at the position the other reply leads to.
    v, d = _two_reply_certificate()
    first, second = d.replies
    swapped = (
        DefenderReply(first.kind, first.intermediate, first.result, second.child),
        DefenderReply(second.kind, second.intermediate, second.result, first.child),
    )
    tampered = Distinction(d.left, d.right, d.side, d.action, d.target, swapped)
    with pytest.raises(ReplayError, match=r"^continuation \(\(\), \(3,\)\) is not a legal game position$"):
        replay_distinction(v, tampered)


def test_replay_rejects_a_reply_listed_twice():
    v, d = _two_reply_certificate()
    doubled = Distinction(d.left, d.right, d.side, d.action, d.target, d.replies + d.replies[:1])
    with pytest.raises(ReplayError, match="mismatch"):
        replay_distinction(v, doubled)


def test_replay_accepts_replies_in_any_order():
    v, d = _two_reply_certificate()
    replay_distinction(v, Distinction(d.left, d.right, d.side, d.action, d.target, d.replies[::-1]))


def test_replay_computes_one_closure_per_defender(monkeypatch):
    # On this system's certificate, 16 nodes share 8 defenders.
    std = standardize(random_system(GenParams(constants=6, seed=29)))
    d = GameContext(std, norm_budget=20).find_distinction((1,), (3,), 8)
    defenders = {n.right if n.side == "left" else n.left for n in d.nodes()}
    assert len(defenders) < d.size()
    calls = []

    def counting(view, p):
        calls.append(p)
        return silent_closure_dec(view, p)

    monkeypatch.setattr(oracle, "silent_closure_dec", counting)
    replay_distinction(std, d)
    assert sorted(calls) == sorted(defenders)


def _silent_steps(std, p):
    return [r.rhs + p[1:] for r in std.dec[p[0]] if is_silent(r.label)]


def _two_step_silent_walks(std, max_walks=60):
    tails = [()] + [(t,) for t in range(min(2, std.n))]
    walks = []
    for c in range(std.n):
        for tail in tails:
            start = (c,) + tail
            for mid in _silent_steps(std, start):
                for end in _silent_steps(std, mid):
                    walks.append((start, mid, end))
                    if len(walks) >= max_walks:
                        return walks
    return walks


def test_silent_walk_intermediates_stay_undistinguished():
    # Whenever the endpoints of a two-step silent decreasing walk are
    # undistinguished, the intermediate state is undistinguished at the same
    # level (the walk's silent steps are all state-preserving then).
    chain = standardize(parse_system(
        "constants: A B C D E\n"
        "B -a-> eps\n"
        "C -tau-> B\nC -a-> eps\n"
        "D -tau-> C\nD -a-> eps\n"
        "E -tau-> D\nE -a-> eps\n"
        "A -b-> eps\n"
    ))
    systems = [chain]
    for seed in range(20):
        systems.append(standardize(random_system(
            GenParams(constants=6, silent_prob=0.6, extra_rules=3, seed=seed)
        )))
    checked = 0
    for std in systems:
        ctx = GameContext(std, norm_budget=20)
        for start, mid, end in _two_step_silent_walks(std):
            if ctx.find_distinction(start, end, 8) is None:
                checked += 1
                assert ctx.find_distinction(start, mid, 8) is None
    assert checked > 5


def test_refute_raises_on_a_pair_the_level_does_not_refute(ex1_std):
    # X is related to itself at every level: a norm-equal pair cannot fail
    # at level 0, and at level 1 every move of either side is matched.
    ctx = GameContext(ex1_std)
    x = ex1_std.parse_process("X")
    n = ex1_std.norm_of(x)
    with pytest.raises(AssertionError, match="^norm-equal pair cannot fail at level 0$"):
        ctx._refute(x, x, 0, n, n)
    with pytest.raises(AssertionError, match="^approximant failed but every transition is matched$"):
        ctx._refute(x, x, 1, n, n)


def test_refute_raises_when_the_attacked_move_is_answered(ex1_std, monkeypatch):
    # A mutant that attacks with the mover's first move, X -b-> eps, which
    # the defender, X itself, answers.
    def first_move(self, relate, mover, defender):
        return self.view.transitions(mover)[0]

    monkeypatch.setattr(GameContext, "_unanswered", first_move)
    x = ex1_std.parse_process("X")
    n = ex1_std.norm_of(x)
    with pytest.raises(AssertionError, match="^attacked move has an answered reply$"):
        GameContext(ex1_std)._refute(x, x, 1, n, n)


def _generator_check(std, base, k_max, samples):
    return verify_base_generators(GameContext(std, norm_budget=NORM_BUDGET), base, k_max, samples)


def _refuted(std, attacked):
    """The attacked pairs that carry a certificate, by name."""
    return [(format_process(std.sys, p), format_process(std.sys, q)) for p, q, d in attacked if d is not None]


def test_verify_base_generators_clean(ex1_std, sysb_std):
    for std in (ex1_std, sysb_std):
        base, _ = compute_bisimilarity_base(std)
        attacked = _generator_check(std, base, 16, 25)
        assert _refuted(std, attacked) == []
        # The equations first, in constant order, then the 25 samples.
        equations = [((i,), base.equations[i].ids) for i in sorted(base.equations)]
        assert equations
        assert [(p, q) for p, q, _ in attacked[: len(equations)]] == equations
        assert len(attacked) == len(equations) + 25


def test_verify_base_generators_catches_corruption(ex1_std):
    from tnbpa.base import DecompositionBase

    corrupted = DecompositionBase(
        4,
        [0, 2],
        {1: (0,), 3: (2,)},
        ex1_std.norms,
    )
    attacked = _generator_check(ex1_std, corrupted, 8, 0)
    assert _refuted(ex1_std, attacked) == [("Y", "X")]
    replay_distinction(ex1_std, next(d for _, _, d in attacked if d is not None))


def test_verify_initial_base_fails(ex1_std):
    attacked = _generator_check(ex1_std, initial_base(ex1_std), 8, 0)
    assert ("X", "X'") in _refuted(ex1_std, attacked)
    for _, _, d in attacked:
        if d is not None:
            replay_distinction(ex1_std, d)


def test_sample_dcmp_equal_pairs_are_dcmp_equal(sysb_std):
    base, _ = compute_bisimilarity_base(sysb_std)
    rng = random.Random(14)
    for _ in range(50):
        p, q = sample_dcmp_equal_pair(sysb_std, base, rng)
        assert base.equivalent(p, q)

    empty = standardize(parse_system(""))
    base, _ = compute_bisimilarity_base(empty)
    assert sample_dcmp_equal_pair(empty, base, rng) == ((), ())


def test_oracle_names_load_on_first_use():
    import tnbpa

    assert tnbpa.GenParams is GenParams


def test_random_system_is_totally_normed_and_deterministic():
    params = GenParams(constants=7, silent_prob=0.4, seed=123)
    a = random_system(params)
    b = random_system(params)
    assert check_totally_normed(a, compute_norms(a)) == []
    assert serialize_system(a) == serialize_system(b)
    assert serialize_system(a) != serialize_system(random_system(GenParams(constants=7, silent_prob=0.4, seed=124)))


def test_random_system_honours_knobs():
    realtime = random_system(GenParams(constants=6, silent_prob=0.0, seed=5))
    assert not any(is_silent(r.label) for r in realtime.rules)

    for seed in range(10):
        sys = random_system(GenParams(constants=6, norm_cap=3, seed=seed))
        table = compute_norms(sys)
        assert max(table.values) <= 3

    unit = random_system(GenParams(constants=10, norm_cap=1, seed=2))
    assert set(compute_norms(unit).values) == {1}


def test_differential_run_smoke():
    trials = differential_run(GenParams(constants=6, seed=500), trials=5, k_max=12, pairs_per_trial=10)
    summary = summarize(trials, 12)
    assert summary["ok"]
    assert summary["pairs_checked"] == 50
    assert all(t.mode_agree for t in trials)
    assert summary["refutations"] == 0


def test_differential_run_parallel_matches_serial():
    params = GenParams(constants=5, seed=700)
    serial = differential_run(params, trials=2, k_max=8, pairs_per_trial=5, jobs=1)
    parallel = differential_run(params, trials=2, k_max=8, pairs_per_trial=5, jobs=2)
    assert [t.to_json() for t in serial] == [t.to_json() for t in parallel]


def test_differential_run_starts_at_most_one_worker_per_trial(monkeypatch):
    # A stand-in pool that records its worker count and maps in this
    # process, so no worker process starts however large `jobs` is.
    requested = []

    class SerialPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    params = GenParams(constants=5, seed=700)
    pooled = differential_run(params, trials=2, k_max=8, pairs_per_trial=5, jobs=5000)
    serial = differential_run(params, trials=2, k_max=8, pairs_per_trial=5, jobs=1)
    assert requested == [2]
    assert [t.to_json() for t in pooled] == [t.to_json() for t in serial]


def test_a_worker_pool_that_cannot_start_is_a_resource_guard(monkeypatch):
    # As when fork fails with EAGAIN; `cli.main` would take a bare OSError
    # for a broken standard output.
    class RefusedPool:
        def __init__(self, max_workers):
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RefusedPool)
    message = r"^cannot run 2 worker processes: Resource temporarily unavailable$"
    with pytest.raises(GuardExceeded, match=message):
        differential_run(GenParams(constants=3, seed=1), trials=2, k_max=8, pairs_per_trial=2, jobs=3)


def test_an_uncontracted_silent_loop_keeps_a_well_founded_norm_descent():
    # Each constant's lowest-index decreasing rule is its silent step into
    # the other, so a norm descent along those never ends.  `view` keeps the
    # norm fixpoint's witnesses, which reach eps.
    system = parse_system((SYSTEMS / "silent-cycle.bpa").read_text())
    v = view(system)
    assert [v.dec[c][0].label for c in range(v.n)] == [TAU, TAU]
    assert v.witness == compute_norms(system).witness
    d = GameContext(v).find_distinction((system.ids["A"],), (), 8)
    assert d is not None
    replay_distinction(v, d)


def test_mode_mismatch_fails_the_report():
    # A mode mismatch alone fails the summary, and `fuzz` exits 1 on it.
    trial = TrialReport(
        seed=0, constants=1, rules=1, realtime=True, iterations=1, primes=1,
        mode_agree=False, generator_ok=True, generator_failures=0, realtime_divergences=0,
    )
    summary = summarize([trial], 8)
    assert summary["ok"] is False
    assert summary["mode_mismatches"] == 1


def test_differential_catches_mutated_engine(skip_lpftest_steps):
    # Dropping the increasing-transition step must surface somewhere across a
    # small batch: either a generator failure or an oracle refutation.
    skip_lpftest_steps(3)
    trials = differential_run(
        GenParams(constants=6, silent_prob=0.5, seed=900),
        trials=10,
        k_max=12,
        pairs_per_trial=10,
    )
    summary = summarize(trials, 12)
    assert (not summary["ok"]) or summary["refutations"] > 0


def test_trial_records_an_oracle_guard(monkeypatch):
    # Every constant of this system is prime, so the generator checks
    # compare equal processes only and never fill the memo; with no room in
    # it, each norm-equal pair of distinct processes trips the guard.
    params = GenParams(constants=5, composite_prob=0.0, seed=0)
    base, _ = compute_bisimilarity_base(standardize(random_system(params)))
    assert not base.equations
    monkeypatch.setattr(oracle, "MEMO_LIMIT", 0)
    report = differential_trial(params, k_max=8, pairs_per_trial=10)
    assert report.generator_ok
    guarded = [p for p in report.pairs if p.oracle == "guard"]
    assert guarded and len(report.errors) == len(guarded)
    assert all(e.startswith("oracle guard on ") for e in report.errors)
    assert all(p in report.flagged for p in guarded)


def test_trial_records_an_oracle_guard_in_the_generator_check(monkeypatch):
    # This base has equations, so the generator check fills the memo; the
    # trial reports the guard, fails the check it could not complete and
    # still checks its pairs.
    monkeypatch.setattr(oracle, "MEMO_LIMIT", 0)
    report = differential_trial(GenParams(constants=6, seed=2), k_max=8, pairs_per_trial=5)
    assert report.errors == ["oracle guard in generator check: approximant memo exceeded 0 entries"]
    assert not report.generator_ok and report.generator_failures == 0
    assert len(report.pairs) == 5


def test_trial_records_an_exhaustive_mode_failure(monkeypatch):
    # Exhaustive mode tests every candidate, so a candidate listed twice is
    # accepted twice and refine raises; the trial reports it, as it does for
    # pruned mode, instead of letting the run die.
    generate = engine.candidates_for

    def doubled(partial, i):
        got = generate(partial, i)
        return got * 2 if partial.mode is CandidateMode.EXHAUSTIVE else got

    monkeypatch.setattr(engine, "candidates_for", doubled)
    report = differential_trial(GenParams(constants=6, seed=500), k_max=8, pairs_per_trial=2)
    assert "two candidates accepted" in report.engine_error
    assert report.mode_agree is None


def test_distinction_json_shape(ex1_std):
    ctx = GameContext(ex1_std)
    d = ctx.find_distinction(ex1_std.parse_process("X"), ex1_std.parse_process("Y"), 16)
    payload = distinction_to_json(ex1_std, d)
    assert payload["root"] == 0
    assert len(payload["nodes"]) == d.size()
    for node in payload["nodes"]:
        for reply in node["replies"]:
            assert 0 <= reply["child"] < len(payload["nodes"])


def test_deep_strategies_size_and_serialize(ex1_std):
    # A chain of nodes deeper than the interpreter's recursion limit: size()
    # and the JSON rendering walk it without recursing.
    depth = sys.getrecursionlimit() + 100
    x = ex1_std.parse_process("X")
    node = Distinction(x, (), "left", "a", (), ())
    for _ in range(depth - 1):
        node = Distinction(x, x, "left", "a", (), (DefenderReply("move", x, (), node),))
    assert node.size() == depth
    nodes = distinction_to_json(ex1_std, node)["nodes"]
    assert len(nodes) == depth
    assert [n["replies"][0]["child"] for n in nodes[:-1]] == list(range(1, depth))
    assert nodes[-1]["replies"] == []


def _extract_both(std, pairs, k_max):
    """Extract certificates for the pairs under both builders and return
    the two strategy tables, each with the outcome of every extraction."""
    tables = []
    for ctx in (GameContext(std, norm_budget=NORM_BUDGET), ReferenceGameContext(std, norm_budget=NORM_BUDGET)):
        outcomes = []
        for p, q in pairs:
            try:
                outcomes.append(ctx.find_distinction(p, q, k_max) is not None)
            except GuardExceeded as exc:
                outcomes.append(type(exc).__name__)
        tables.append((outcomes, strategy_table(ctx)))
    return tables


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    constants=st.integers(2, 7),
    silent_prob=st.floats(0.0, 0.45),
    data=st.data(),
)
def test_builders_leave_the_reference_strategy_table(seed, constants, silent_prob, data):
    # The norm-carrying builder over head-derived closures builds the same
    # nodes, in the same order, as the reference extractor.
    std = standardize(random_system(GenParams(constants=constants, silent_prob=silent_prob, seed=seed)))
    process = st.lists(st.integers(0, std.n - 1), max_size=3).map(tuple)
    pairs = data.draw(st.lists(st.tuples(process, process), min_size=1, max_size=4))
    new, ref = _extract_both(std, pairs, 10)
    assert new == ref


@given(n=st.integers(0, 8))
def test_builders_agree_on_power_descents(sysb_std, ex1_std, n):
    # A^n against A^(n+1) is a pure norm descent; A and X have silent
    # steps, so their defenders' closures have two states.
    for std, name in ((sysb_std, "A"), (ex1_std, "X")):
        a = std.parse_process(name)
        new, ref = _extract_both(std, [(a * n, a * (n + 1))], 16)
        assert new == ref and new[0] == [True]
        assert len(new[1]) > n


def test_long_descent_extracts_and_replays_at_the_default_recursion_limit(sysb_std):
    # The builder spends one frame per norm unit of a descent: under pytest
    # n = 954 is the deepest that fits the default limit of 1000, and a
    # builder that spent three frames per unit stopped at n = 329.
    a = sysb_std.parse_process("A")
    d = GameContext(sysb_std, norm_budget=NORM_BUDGET).find_distinction(a * 800, a * 801, 16)
    assert d is not None and d.size() > 800
    replay_distinction(sysb_std, d)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), constants=st.integers(2, 8), data=st.data())
def test_head_derived_closure_matches_the_bfs(seed, constants, data):
    std = standardize(random_system(GenParams(constants=constants, silent_prob=0.45, seed=seed)))
    heads = [c for c in range(std.n) if len(silent_closure_dec(std, (c,)).states) > 1]
    assume(heads)
    head = data.draw(st.sampled_from(heads))
    tail = data.draw(st.lists(st.integers(0, std.n - 1), min_size=1, max_size=3).map(tuple))
    p = (head, *tail)
    ctx = GameContext(std)
    assert ctx.closure(p) == silent_closure_dec(std, p).states
    assert ctx.closure((head,)) == silent_closure_dec(std, (head,)).states
    assert ctx.closure(()) == ((),)
    # The cache holds each constant's closure only; longer ones are derived.
    assert all(type(key) is int for key in ctx._closures)
