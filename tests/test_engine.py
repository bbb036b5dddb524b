import random
import sys

import pytest

from conftest import (
    ONE_CONSTANT,
    _candidates_unfiltered,
    _lpftest_skipping,
    _norm_strings,
    base_as_names,
    chain_text,
    names_of,
    partial_pass,
    refine_over_split_base,
)
from tnbpa import engine
from tnbpa.base import DecompositionBase, initial_base
from tnbpa.engine import (
    CandidateMode,
    EngineInternalError,
    VerdictKind,
    candidates_for,
    check_equivalence,
    compute_bisimilarity_base,
    lpftest,
    pass_bases,
    refine,
    select_decreasing_rules,
    trace_to_json,
)
from tnbpa.model import is_silent, parse_system
from tnbpa.normalization import standardize
from tnbpa.oracle import (
    NORM_BUDGET,
    GameContext,
    GenParams,
    lpftest_realtime,
    random_system,
    realtime_divergences,
    replay_distinction,
    verify_base_generators,
)
from tnbpa.strings import NormedString


def test_select_decreasing_rules_tie_break(ex1_std):
    fixed = select_decreasing_rules(ex1_std)
    x = ex1_std.sys.ids["X"]
    # X has decreasing rules b->eps, tau->X', a->eps; visible first, then 'a' < 'b'.
    assert fixed[x].label == "a" and fixed[x].rhs == ()
    yp = ex1_std.sys.ids["Y'"]
    assert fixed[yp].label == "a"  # single decreasing rule is picked
    assert select_decreasing_rules(ex1_std) == fixed  # pure function


def test_first_iteration_candidates_sysb(sysb_std):
    # B settled prime, and Y, as iteration 1 decides.
    partial = partial_pass(sysb_std, initial_base(sysb_std), [0, 1])
    a = sysb_std.sys.ids["A"]
    cands = candidates_for(partial, a)
    # lpf is B; Y is a new prime between lpf and A.  A's fixed rule A -a-> eps
    # is matched by B -a-> eps and Y -a-> eps, but neither head has A's
    # signature: A also moves silently to B, which B and Y cannot match.  So
    # the only candidate is that move's target B, left to `lpftest`.
    assert [([sysb_std.sys.name(c) for c in d], res) for d, res in cands] == [(["B"], None)]


def test_candidate_skipped_without_norm_boundary():
    # M's fixed decreasing rule rewrites to Z of norm 2; testing head Z needs
    # a suffix of norm 1 inside the one-constant string Z, which has no cut.
    # Z's own rule Z -a-> P does not match M -a-> Z either: P is no prefix of Z.
    std = standardize(parse_system("constants: P Z M\nP -a-> eps\nZ -a-> P\nM -a-> Z\n"))
    base = DecompositionBase(3, [0, 1], {2: (1, 0)}, std.norms)
    partial = partial_pass(std, base, [0, 1])
    m = std.sys.ids["M"]
    assert list(candidates_for(partial, m)) == []


def test_exhaustive_enumeration_is_lexicographic():
    std = standardize(parse_system(
        "constants: B Y N\nB -a-> eps\nY -b-> eps\nN -a-> Y\n"
    ))
    names = [[std.sys.name(c) for c in ids] for ids in _norm_strings([0, 1], std.norms, 2)]
    assert names == [["B", "B"], ["B", "Y"], ["Y", "B"], ["Y", "Y"]]


def test_exhaustive_candidates_end_in_a_suffix_of_the_fixed_rule():
    # N's fixed rule N -a-> Y leaves s = Y.  A candidate j . t passes step 2
    # only if t is a suffix of s, so of the four prime strings of norm 2 the
    # exhaustive mode keeps B Y and Y Y.  M's silent rule preserves the norm:
    # s = B Y, whose in-place candidate is the one with head B.
    std = standardize(parse_system(
        "constants: B Y N M\nB -a-> eps\nY -b-> eps\nN -a-> Y\nM -tau-> B Y\n"
    ))
    partial = partial_pass(std, initial_base(std), [0, 1], mode=CandidateMode.EXHAUSTIVE)
    for name, expected in [("N", [["B", "Y"], ["Y", "Y"]]), ("M", [["B", "Y"], ["Y", "Y"]])]:
        i = std.sys.ids[name]
        cands = candidates_for(partial, i)
        # Exhaustive mode leaves every candidate to `lpftest`.
        assert [([std.sys.name(c) for c in d], res) for d, res in cands] == \
            [(names, None) for names in expected]


def test_exhaustive_passes_file_no_signatures(recorded_run):
    # Exhaustive candidates are read from norms alone, so its partial bases
    # need no signature index.  A mode given by its value is the same mode.
    std = standardize(random_system(GenParams(constants=32, norm_cap=4, seed=5)))
    runs = []
    for mode in [*CandidateMode, *(m.value for m in CandidateMode)]:
        final, trace, partials = recorded_run(std, mode)
        runs.append(pass_bases(std, trace))
        assert runs[-1][-1] == final
        filed = [bool(p._by_signature or p._cut_lengths) for p in partials]
        assert len(filed) == len(trace) > 1
        assert all(filed) if mode == CandidateMode.PRUNED else not any(filed)
    assert all(bases == runs[0] for bases in runs)


def test_lpftest_sysb_accepts_a_equals_b_at_step_four(sysb_std):
    partial = partial_pass(sysb_std, initial_base(sysb_std), [0, 1])  # B prime, Y prime
    a = sysb_std.sys.ids["A"]
    delta = (0,)  # B
    res = lpftest(partial, a, delta)
    # A's silent decreasing step lands exactly on B, so the early accept fires.
    assert res.accepted and res.step == 4


def test_lpftest_example_one_rejects_y_equals_x_at_step_five(ex1_std):
    # X' prime, Y' = X', and X became prime earlier in the pass.
    partial = partial_pass(ex1_std, initial_base(ex1_std), [0, 2], {1: (0,)})
    y = ex1_std.sys.ids["Y"]
    delta = (2,)  # X
    res = lpftest(partial, y, delta)
    # X's a->eps has no decreasing answer from Y with the same decomposition.
    assert not res.accepted and res.step == 5


def test_partial_base_rejects_unsettled_lookup(ex1_std):
    partial = partial_pass(ex1_std, initial_base(ex1_std), [])
    repr(partial)
    with pytest.raises(EngineInternalError, match="unsettled"):
        partial.dcmp((3,))


def test_refine_is_identity_on_final_base(ex1_std):
    fixed = select_decreasing_rules(ex1_std)
    final, _ = compute_bisimilarity_base(ex1_std)
    again, record = refine(ex1_std, final, fixed)
    assert again == final
    assert all(c.equation is not None for c in record.constants)


def test_final_base_example_one(ex1_std):
    base, trace = compute_bisimilarity_base(ex1_std)
    primes, equations = base_as_names(ex1_std, base)
    assert primes == {"X'", "X", "Y"}
    assert equations == {"Y'": ("X'",)}
    assert len(trace) == 2


def test_final_base_sysb(sysb_std):
    base, trace = compute_bisimilarity_base(sysb_std)
    primes, equations = base_as_names(sysb_std, base)
    assert primes == {"B", "Y"}
    assert equations == {"A": ("B",), "X": ("B", "Y")}


def test_single_constant_converges_immediately():
    std = standardize(parse_system(ONE_CONSTANT))
    base, trace = compute_bisimilarity_base(std)
    assert base == initial_base(std)
    assert len(trace) == 1


def test_iteration_bound_and_monotone_primes():
    for seed in range(30):
        std = standardize(random_system(GenParams(constants=8, silent_prob=0.35, seed=seed)))
        base, trace = compute_bisimilarity_base(std)
        assert len(trace) <= std.n
        bases = pass_bases(std, trace)
        for before, after in zip(bases, bases[1:]):
            assert before.primes <= after.primes


def test_refinement_shrinks_the_congruence():
    rng = random.Random(21)
    for seed in range(8):
        std = standardize(random_system(GenParams(constants=7, silent_prob=0.3, seed=seed)))
        _, trace = compute_bisimilarity_base(std)
        bases = pass_bases(std, trace)
        for before, after in zip(bases, bases[1:]):
            for _ in range(40):
                p = tuple(rng.randrange(std.n) for _ in range(rng.randint(0, 3)))
                q = tuple(rng.randrange(std.n) for _ in range(rng.randint(0, 3)))
                if after.equivalent(p, q):
                    assert before.equivalent(p, q)


def test_prime_set_equality_implies_base_equality():
    for seed in range(10):
        std = standardize(random_system(GenParams(constants=7, silent_prob=0.3, seed=seed)))
        _, trace = compute_bisimilarity_base(std)
        bases = pass_bases(std, trace)
        for b1, b2 in zip(bases, bases[1:]):
            if b1.primes == b2.primes:
                assert b1 == b2


def test_pass_bases_follow_the_run(ex1_std):
    final, trace = compute_bisimilarity_base(ex1_std)
    bases = pass_bases(ex1_std, trace)
    assert bases[0] == initial_base(ex1_std)
    assert bases[-1] == final
    assert [names_of(ex1_std, sorted(b.primes)) for b in bases[1:]] == \
        [rec["primes_after"] for rec in trace_to_json(ex1_std, trace)]


def test_realtime_audit_counts_divergent_decisions(skip_lpftest_steps):
    # Without step 5 the engine accepts Q = P, which the transcription's
    # step 4 rejects: one divergence, on the realtime system.  Exhaustive mode
    # puts every candidate through `lpftest`; pruned mode accepts by
    # signature and never shows P to it.
    std = standardize(parse_system("constants: P Q\nP -a-> eps\nP -b-> eps\nQ -a-> eps\n"))
    assert std.is_realtime
    skip_lpftest_steps(5)
    _, trace = compute_bisimilarity_base(std, CandidateMode.EXHAUSTIVE)
    assert realtime_divergences(std, trace) == 1


def test_realtime_comparison_requires_silent_free(ex1_std):
    _, trace = compute_bisimilarity_base(ex1_std)
    with pytest.raises(ValueError, match="silent"):
        realtime_divergences(ex1_std, trace)


def test_lpftest_matches_realtime_directly():
    std = standardize(parse_system(
        "constants: B Y N\nB -a-> eps\nY -b-> eps\nN -a-> Y\nN -a-> B\n"
    ))
    base = initial_base(std)
    partial = partial_pass(std, base, [0, 1])
    n = std.sys.ids["N"]
    for delta in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        assert lpftest(partial, n, delta).accepted == \
            lpftest_realtime(std, base, partial, n, delta).accepted


def test_equations_satisfy_branching_expansion():
    # Every equation of a final base passes one full game round in which
    # relatedness is decomposition equality and silent matching sequences are
    # enumerated exactly.
    for seed in range(10):
        std = standardize(random_system(GenParams(constants=7, silent_prob=0.35, seed=seed)))
        base, _ = compute_bisimilarity_base(std)
        relate = base.equivalent
        ctx = GameContext(std)
        for i, rhs in base.equations.items():
            assert ctx.expansion_holds(relate, (i,), rhs.ids)


def test_signature_keeps_heads_apart_that_the_old_base_separates():
    # R turns prime (its old lpf Q has no a-move) and has S's moves, but
    # old(R) = Q while old(S) = P: `lpftest` rejects S = R at step 1, so the
    # signature lookup, which finds R for S, must compare old(R) on the hit.
    # Over a base that refinement produced, the moves alone imply step 1.
    std, new = refine_over_split_base()
    assert base_as_names(std, new) == ({"P", "Q", "R"}, {"S": ("P",)})


def test_lpftest_step_one_rejects_old_base_mismatch(ex1_std):
    final, _ = compute_bisimilarity_base(ex1_std)
    partial = partial_pass(ex1_std, final, [0])
    yp = ex1_std.sys.ids["Y'"]
    delta = (ex1_std.sys.ids["X"],)
    res = lpftest(partial, yp, delta)
    assert not res.accepted and res.step == 1


def test_skipping_step_five_accepts_asymmetric_candidate(skip_lpftest_steps):
    # P has an extra b-move that Q cannot match; only step 5 notices, and the
    # oracle refutes the wrong equation the mutated engine then produces.  In
    # exhaustive mode, where `lpftest` sees every candidate.
    std = standardize(parse_system("constants: P Q\nP -a-> eps\nP -b-> eps\nQ -a-> eps\n"))
    good, _ = compute_bisimilarity_base(std)
    assert good.equations == {}
    skip_lpftest_steps()  # skipping nothing must reproduce the engine
    assert compute_bisimilarity_base(std, CandidateMode.EXHAUSTIVE)[0] == good
    skip_lpftest_steps(5)
    bad, _ = compute_bisimilarity_base(std, CandidateMode.EXHAUSTIVE)
    q = std.sys.ids["Q"]
    assert q in bad.equations
    attacked = verify_base_generators(GameContext(std, norm_budget=NORM_BUDGET), bad, 4, 0)
    assert any(d is not None for _, _, d in attacked)


def test_mutated_engine_is_caught_by_the_oracle(sysb_std, skip_lpftest_steps):
    # Skipping the increasing-transition check wrongly merges Y with B; the
    # oracle refutes the resulting base with a replayable certificate.  In
    # exhaustive mode, where `lpftest` sees every candidate.
    good, _ = compute_bisimilarity_base(sysb_std)
    skip_lpftest_steps(3)
    bad, _ = compute_bisimilarity_base(sysb_std, CandidateMode.EXHAUSTIVE)
    assert good != bad
    attacked = verify_base_generators(GameContext(sysb_std, norm_budget=NORM_BUDGET), bad, 8, 5)
    assert any(d is not None for _, _, d in attacked)
    # The equations are attacked first.
    assert any(d is not None for _, _, d in attacked[: len(bad.equations)])
    for _, _, d in attacked:
        if d is not None:
            replay_distinction(sysb_std, d)


def test_trace_records_candidate_steps(ex1_std):
    _, trace = compute_bisimilarity_base(ex1_std)
    first = trace[0]
    y = ex1_std.sys.ids["Y"]
    rec = next(c for c in first.constants if c.constant == y)
    assert rec.equation is None
    # Y's silent move Y -tau-> Y' lands on X' (Y' = X' in this pass), so X'
    # is Y's one in-place candidate; it has no b-move and fails step 2.  X,
    # which matches Y's fixed rule Y -b-> eps, is not listed: X has no silent
    # move, so its signature is not Y's.
    assert [(names_of(ex1_std, cand.delta), cand.step) for cand in rec.candidates] == [(["X'"], 2)]


def test_empty_system():
    std = standardize(parse_system("constants:\n"))
    base, trace = compute_bisimilarity_base(std)
    assert base.primes == frozenset() and trace == []
    assert check_equivalence(std, (), (), base=base).kind is VerdictKind.BISIMILAR


def test_verdict_is_two_valued():
    kinds = {k.value for k in VerdictKind}
    assert kinds == {"bisimilar", "not-bisimilar"}


def test_lpftest_agrees_with_whole_word_reference(monkeypatch):
    # Every candidate of every pass, in both modes, gets the result of the
    # form of the test that decomposes every move whole (the conftest mutant
    # with no step skipped).
    reference = _lpftest_skipping(frozenset())
    tested = engine.lpftest
    steps = set()

    def both(partial, i, delta):
        got = tested(partial, i, delta)
        assert got == reference(partial, i, delta)
        steps.add((got.accepted, got.step))
        return got

    monkeypatch.setattr(engine, "lpftest", both)
    for seed in range(40):
        params = GenParams(
            constants=8 + seed % 5,
            silent_prob=0.15 * (seed % 4),
            norm_cap=1 + seed % 8,
            composite_prob=0.4,
            seed=seed,
        )
        std = standardize(random_system(params))
        for mode in CandidateMode:
            compute_bisimilarity_base(std, mode)
    # Every outcome occurred, so every step was compared at least once.
    assert steps == {(False, 1), (False, 2), (False, 3), (True, 4), (False, 5), (False, 6), (True, 7)}


# In pass 2, C3 becomes prime.  C5's lpf is the old prime C4, whose rule
# C4 -tau-> C3 matches C5's fixed rule C5 -tau-> C3 C1 only when C3 is
# decomposed over the new base: over the old one C3 = C1.
OLD_LPF_TEXT = """\
constants: C1 C2 C3 C4 C5
C1 -a-> eps
C1 -a-> C4 C4 C2
C1 -a-> C1
C2 -a-> eps
C3 -a-> C1 C1 C1
C3 -a-> C2
C3 -a-> eps
C4 -a-> C1 C1
C4 -tau-> C3
C5 -a-> C1 C1 C1
C5 -tau-> C3 C1
"""


def test_pruned_mode_leaves_out_only_rejected_candidates(monkeypatch):
    # The candidates pruned mode could generate are the norm-matching ones
    # headed by the previous leftmost prime factor or a new prime above it,
    # plus the targets of the constant's silent decreasing moves.  Each one
    # pruned mode leaves out is rejected by the reference test; each one it
    # accepts by signature gets the reference's result, accepted at step 7;
    # only in-place targets are left to `lpftest`.
    reference = _lpftest_skipping(frozenset())
    generate = engine.candidates_for
    seen = {"dropped": 0, "keyed": 0, "early": 0}

    def checked(partial, i):
        got = generate(partial, i)
        in_place = {partial.dcmp(r.rhs) for r in partial.std.dec[i] if is_silent(r.label)}
        possible = {*_candidates_unfiltered(partial, i), *in_place}
        for ids in possible - dict(got).keys():
            seen["dropped"] += 1
            assert not reference(partial, i, ids).accepted
        for ids, res in got:
            if res is None:
                assert ids in in_place
                seen["early"] += reference(partial, i, ids).step == 4
            else:
                seen["keyed"] += 1
                assert reference(partial, i, ids) == res == engine.CandidateOutcome(ids, True, 7)
        return got

    monkeypatch.setattr(engine, "candidates_for", checked)
    systems = [parse_system(OLD_LPF_TEXT)]
    for seed in range(40):
        systems.append(random_system(GenParams(
            constants=10 + seed % 7 * 3,
            silent_prob=0.15 * (seed % 4),
            norm_cap=1 + seed % 8,
            composite_prob=0.4,
            seed=seed,
        )))
    for system in systems:
        compute_bisimilarity_base(standardize(system))
    # Candidates were dropped, accepted by signature, and accepted at step 4
    # (a silent move onto the candidate, which only `lpftest` may decide).
    assert seen["dropped"] > 0 and seen["keyed"] > 0 and seen["early"] > 0


def test_refinement_builds_one_string_per_equation(monkeypatch):
    # Candidates and decompositions are id tuples: a run wraps in a
    # NormedString only the initial base's n - 1 equations and each equation
    # a pass accepts, never a candidate, in either mode.  Exhaustive mode
    # tests over ten candidates per equation; pruned mode, which accepts by
    # signature, barely more than one.
    std = standardize(random_system(GenParams(constants=512, norm_cap=4, seed=42)))
    counts = {"init": 0, "inside": 0, "split": 0}
    depth = [0]
    init, split = NormedString.__init__, NormedString.split_at_norm

    def counting_init(self, ids, norms):
        counts["init"] += 1
        counts["inside"] += depth[0] > 0
        init(self, ids, norms)

    def counting_split(self, h):
        counts["split"] += 1
        return split(self, h)

    def guarded(fn):
        def wrapper(*args):
            depth[0] += 1
            try:
                return fn(*args)
            finally:
                depth[0] -= 1
        return wrapper

    # Every base an lpftest call reads, once each: keyed by id, and kept
    # alive here, so an id is never reused.
    bases = {}
    tested = engine.lpftest

    def recording(partial, i, delta):
        bases[id(partial.old)], bases[id(partial)] = partial.old, partial
        return tested(partial, i, delta)

    monkeypatch.setattr(NormedString, "__init__", counting_init)
    monkeypatch.setattr(NormedString, "split_at_norm", counting_split)
    monkeypatch.setattr(engine, "candidates_for", guarded(engine.candidates_for))
    monkeypatch.setattr(engine, "lpftest", guarded(recording))
    for mode in CandidateMode:
        counts["init"] = 0
        _, trace = compute_bisimilarity_base(std, mode)
        candidates = sum(len(c.candidates) for rec in trace for c in rec.constants)
        accepted = sum(c.equation is not None for rec in trace for c in rec.constants)
        if mode is CandidateMode.EXHAUSTIVE:
            assert candidates > 10 * accepted
        assert counts["init"] == (std.n - 1) + accepted == 1476
    assert counts["inside"] == 0
    assert counts["split"] == 0
    # The memos are keyed by single constants and rule right-hand sides only,
    # never by a candidate's tail, so they stay within n + |rules| entries.
    keys = {(c,) for c in range(std.n)} | {r.rhs for r in std.sys.rules}
    assert all(b._memo.keys() <= keys for b in bases.values())


def test_doubling_and_clone_chains_at_n12():
    # The two norm-blowup families of the benchmark, at n = 12.  Norms grow
    # as 2^i, so the factor table holds exponentially long entries.
    n = 12
    std = standardize(parse_system(chain_text("doubling", n)))
    base, trace = compute_bisimilarity_base(std)
    assert len(trace) == 2 and len(base.primes) == n
    x = [std.sys.ids[f"X{i}"] for i in range(n)]
    for i in range(1, n):
        assert check_equivalence(std, (x[i],), (x[i - 1], x[i - 1]), base=base).kind is \
            VerdictKind.NOT_BISIMILAR

    std = standardize(parse_system(chain_text("clone", n)))
    base, trace = compute_bisimilarity_base(std)
    y = [std.sys.ids[f"Y{i}"] for i in range(n)]
    assert len(trace) == 1 and base.primes == {y[0]}
    for i in range(1, n):
        assert base.equations[y[i]].ids == (y[0],) * 2 ** i
        assert check_equivalence(std, (y[i],), (y[i - 1], y[i - 1]), base=base).kind is \
            VerdictKind.BISIMILAR
    assert len(base.equations[y[n - 1]].ids) == 2048


def _traced_base(std):
    """compute_bisimilarity_base(std) and the number of Python trace events
    (calls, lines, returns) it ran."""
    events = 0

    def tracer(frame, event, arg):
        nonlocal events
        events += 1
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        result = compute_bisimilarity_base(std)
    finally:
        sys.settrace(previous)
    return events, result


def test_interpreter_work_on_the_chains_grows_slowly():
    # From n = 12 to n = 18 the words grow 64-fold.  Summing norms,
    # validating equations and decomposing prime strings run in C, so the
    # interpreter's work must not follow the words' length.
    for family in ("doubling", "clone"):
        small, _ = _traced_base(standardize(parse_system(chain_text(family, 12))))
        std = standardize(parse_system(chain_text(family, 18)))
        large, (base, _) = _traced_base(std)
        assert large < 2 * small, (family, small, large)
    y = [std.sys.ids[f"Y{i}"] for i in range(18)]
    assert base.primes == {y[0]}
    for i in range(1, 18):
        assert base.equations[y[i]].ids == (y[0],) * 2 ** i


@pytest.mark.parametrize("n", [40, 64, 128])
def test_chains_far_past_explicit_words(n):
    # Norms near 2^n: both candidate modes agree, Xi and X(i-1) X(i-1) differ
    # in norm, and Yi is Y(i-1) Y(i-1).
    for family, letter, bisimilar in (("doubling", "X", False), ("clone", "Y", True)):
        std = standardize(parse_system(chain_text(family, n)))
        base, _ = compute_bisimilarity_base(std)
        exhaustive, _ = compute_bisimilarity_base(std, CandidateMode.EXHAUSTIVE)
        assert base == exhaustive
        c = [std.sys.ids[f"{letter}{i}"] for i in range(n)]
        want = VerdictKind.BISIMILAR if bisimilar else VerdictKind.NOT_BISIMILAR
        for i in range(1, n):
            assert check_equivalence(std, (c[i],), (c[i - 1], c[i - 1]), base=base).kind is want
        if bisimilar:
            assert base.equations[c[n - 1]].word == (-1, c[0], 2 ** (n - 1))


def test_composite_root_chain_at_n8():
    # Wi ~ (P Q)^(2^i), so W0 ~ P Q and Wi ~ W(i-1) W(i-1); W1 W0 falls short
    # of W2's norm.
    std = standardize(parse_system(chain_text("composite-root", 8)))
    base, _ = compute_bisimilarity_base(std)
    for left, right, want in (
        ("W1", "P Q P Q", VerdictKind.BISIMILAR),
        ("W3", "W2 W2", VerdictKind.BISIMILAR),
        ("W7", "W6 W6", VerdictKind.BISIMILAR),
        ("W2", "W1 W0", VerdictKind.NOT_BISIMILAR),
    ):
        p, q = std.parse_process(left), std.parse_process(right)
        assert check_equivalence(std, p, q, base=base).kind is want, (left, right)
