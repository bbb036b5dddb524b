"""Pruned and exhaustive candidate modes must build the same bases.

Exhaustive mode heads candidates with every settled prime, finds their tails
from norms alone and tests each one, so a disagreement points at the pruned
head set (the paper's lemma) or at the signature index that accepts pruned
candidates without a test.  Exhaustive mode's own cut, to the prime strings
that can pass step 2, is checked against the full enumeration of prime
strings kept in `conftest`.
"""

import pytest

from conftest import SYSB_TEXT, _candidates_enumerated, missed_clones
from test_acceptance import corpus_params
from test_engine import refine_over_split_base
from tnbpa import engine
from tnbpa.engine import (
    CandidateMode,
    EngineInternalError,
    _PartialBase,
    _signature,
    _strip,
    candidates_for,
    compute_bisimilarity_base,
    pass_bases,
)
from tnbpa.model import parse_system
from tnbpa.normalization import standardize
from tnbpa.oracle import GenParams, random_system

# Systems well above the acceptance corpus (n <= 8, caps <= 5), where an old
# leftmost prime factor whose decreasing rule reaches a constant made prime in
# the same pass is common.
WIDE_GRID = [
    GenParams(constants=n, norm_cap=cap, silent_prob=sp, seed=seed)
    for n in (16, 32, 64)
    for cap in (2, 5, 8)
    for sp in (0.0, 0.3)
    for seed in range(10)
]


def _mode_mismatches(grid):
    """The parameters whose pruned and exhaustive final bases differ.

    Both modes test every candidate, so a second acceptance for one constant
    raises instead of passing unnoticed.
    """
    for params in grid:
        std = standardize(random_system(params))
        pruned, _ = compute_bisimilarity_base(std)
        exhaustive, _ = compute_bisimilarity_base(std, CandidateMode.EXHAUSTIVE)
        if pruned != exhaustive:
            yield params


def test_modes_agree_on_the_wide_grid():
    assert list(_mode_mismatches(WIDE_GRID)) == []


def test_modes_go_through_the_same_bases():
    # Every pass's base, not only the final one, and in both modes the trace
    # replays to the base the run returned.  The generated system is
    # `gen --constants 64 --norm-cap 8 --seed 34`, where enumerating every
    # prime string of a constant's norm would test 406,725 candidates for C15.
    for sys in (parse_system(SYSB_TEXT), random_system(GenParams(constants=64, norm_cap=8, seed=34))):
        std = standardize(sys)
        runs = [compute_bisimilarity_base(std, mode) for mode in CandidateMode]
        pruned, exhaustive = (pass_bases(std, trace) for _, trace in runs)
        assert pruned == exhaustive
        for (final, _), bases in zip(runs, (pruned, exhaustive)):
            assert bases[-1] == final


@pytest.mark.parametrize("mode", list(CandidateMode))
def test_move_table_is_exact(monkeypatch, mode):
    # A pass caches each constant's moves while constants above it are still
    # unsettled; after the pass every entry must still be the moves decomposed
    # over the old base and over the base the pass produced.
    partials = []

    class Recording(_PartialBase):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            partials.append(self)

    monkeypatch.setattr(engine, "_PartialBase", Recording)
    cached = 0
    for params in WIDE_GRID[::9]:
        std = standardize(random_system(params))
        partials.clear()
        _, trace = compute_bisimilarity_base(std, mode)
        bases = pass_bases(std, trace)
        assert len(partials) == len(trace)
        for p, new in zip(partials, bases[1:]):
            filled = set(p._moves)
            if mode is CandidateMode.PRUNED:
                assert filled == set(range(std.n))
            cached += len(filled)
            for j in filled:
                assert p.moves(j) == (
                    [(r.label, new.dcmp(r.rhs)) for r in std.dec_rules(j)],
                    [(r.label, p.old.dcmp(r.rhs)) for r in std.inc_rules(j)],
                )
    assert cached > 0


# Mutants of the signature lookup, by the name in `engine` they replace.  Each
# makes pruned mode miss or invent equations: a hit whose old(j) is not
# compared (step 1 always passes) or a key without the increasing moves lets
# a head through that `lpftest` would reject, a tail stripped one id short
# finds the wrong heads, and without its in-place targets a constant loses
# the equations accepted at step 4.
KEY_MUTANTS = {
    "old-word-dropped": ("_step_one", lambda base, i, head, old_tail: True),
    "increasing-dropped": ("_signature", lambda dec, inc: _signature(dec, ())),
    "tail-one-short": ("_strip", lambda word, tail: _strip(word, tail[1:])),
    "in-place-dropped": (
        "candidates_for",
        lambda partial, i: [
            (delta, res)
            for delta, res in candidates_for(partial, i)
            if res is not None or partial.mode is CandidateMode.EXHAUSTIVE
        ],
    ),
}


def _first_catch(grid):
    """The first check that fails on the grid: the modes disagree, a planted
    clone is missed, or a constant accepts two candidates."""
    for params in grid:
        try:
            if next(_mode_mismatches([params]), None) is not None:
                return "mode agreement"
            if missed_clones(params):
                return "planted clones"
        except EngineInternalError as exc:
            assert "two candidates accepted" in str(exc)
            return "two acceptances"
    return None


@pytest.mark.parametrize("mutant, caught_by", [
    pytest.param("increasing-dropped", "mode agreement", id="increasing-dropped"),
    pytest.param("tail-one-short", "mode agreement", id="tail-one-short"),
    pytest.param("in-place-dropped", "mode agreement", id="in-place-dropped"),
])
def test_wide_grid_catches_a_key_mutant(monkeypatch, mutant, caught_by):
    name, replacement = KEY_MUTANTS[mutant]
    monkeypatch.setattr(engine, name, replacement)
    assert _first_catch(WIDE_GRID) == caught_by


def test_split_old_base_catches_the_old_word_mutant(monkeypatch):
    # Over the bases refinement produces, matching moves imply matching old
    # decompositions, so no generated system shows this mutant; the
    # hand-built base of `refine_over_split_base` does.
    name, replacement = KEY_MUTANTS["old-word-dropped"]
    monkeypatch.setattr(engine, name, replacement)
    with pytest.raises(EngineInternalError, match="two candidates accepted"):
        refine_over_split_base()


def _passes(trace):
    return [
        (rec.primes_after, [(c.constant, c.equation) for c in rec.constants])
        for rec in trace
    ]


def test_exhaustive_mode_matches_the_full_enumeration(monkeypatch):
    # Every pass gives the same primes and equations when exhaustive mode
    # tests every prime string of the constant's norm, and the strings it
    # does test are exactly those whose tail is a suffix of s, the fixed
    # rule's decomposition, in the enumeration's lexicographic order.
    systems = [standardize(random_system(p)) for p in corpus_params()]
    systems += [
        standardize(random_system(GenParams(constants=16, norm_cap=5, seed=seed)))
        for seed in range(10)
    ]
    expected = [
        _passes(compute_bisimilarity_base(std, CandidateMode.EXHAUSTIVE)[1]) for std in systems
    ]

    cut = engine.candidates_for

    def enumerated(partial, i):
        full = _candidates_enumerated(partial, i)
        s = partial.dcmp_memo(partial.fixed[i].rhs)

        def tail_is_suffix_of_s(ids):
            return len(ids) - 1 <= len(s) and s[len(s) - (len(ids) - 1):] == ids[1:]

        tested = cut(partial, i)
        assert tested == [(d, None) for d in full if tail_is_suffix_of_s(d)]
        return [(d, None) for d in full]

    monkeypatch.setattr(engine, "candidates_for", enumerated)
    for std, passes in zip(systems, expected):
        _, trace = compute_bisimilarity_base(std, CandidateMode.EXHAUSTIVE)
        assert _passes(trace) == passes
