"""Pruned and exhaustive candidate modes must build the same bases.

Exhaustive mode heads candidates with every settled prime and finds their
tails from norms alone, so a disagreement points at the pruned head set (the
paper's lemma) or at the step-2 head index that serves it.  Exhaustive mode's
own cut, to the prime strings that can pass step 2, is checked against the
full enumeration of prime strings kept in `conftest`.
"""

from conftest import _candidates_enumerated
from test_acceptance import corpus_params
from tnbpa import engine
from tnbpa.engine import CandidateMode, compute_bisimilarity_base
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


def test_wide_grid_catches_a_head_index_over_the_old_base(monkeypatch):
    # The mutant indexes each old prime by its decreasing rules decomposed over
    # the old base instead of the new one, so pruned mode misses heads whose
    # rule matches only over the new base (see `OLD_LPF_TEXT` in
    # test_engine.py).  No system of the acceptance corpus shows it.
    old = {}
    refine = engine.refine

    def recording(std, base, fixed, mode=CandidateMode.PRUNED):
        old["base"] = base
        return refine(std, base, fixed, mode)

    class OldBaseIndex(engine._PartialBase):
        # Shadows `dcmp_memo` with the old base's only while an old prime is
        # indexed; the partial base's own memo is left untouched.
        def settle_prime(self, j, dec_rules):
            if j in old["base"].primes:
                self.dcmp_memo = old["base"].dcmp_memo
            super().settle_prime(j, dec_rules)
            self.__dict__.pop("dcmp_memo", None)

    monkeypatch.setattr(engine, "refine", recording)
    monkeypatch.setattr(engine, "_PartialBase", OldBaseIndex)
    assert next(_mode_mismatches(WIDE_GRID), None) is not None


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

    def enumerated(std, base, partial, i, fixed, mode):
        full = _candidates_enumerated(std, base, partial, i, fixed)
        s = partial.dcmp_memo(fixed[i].rhs)

        def tail_is_suffix_of_s(ids):
            return len(ids) - 1 <= len(s) and s[len(s) - (len(ids) - 1):] == ids[1:]

        tested = cut(std, base, partial, i, fixed, mode)
        assert tested == [d for d in full if tail_is_suffix_of_s(d)]
        return full

    monkeypatch.setattr(engine, "candidates_for", enumerated)
    for std, passes in zip(systems, expected):
        _, trace = compute_bisimilarity_base(std, CandidateMode.EXHAUSTIVE)
        assert _passes(trace) == passes
