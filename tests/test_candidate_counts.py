"""Gates on how many candidates the engine tests, read from its own trace.

These take no timings: the counts repeat exactly on any host, so a change
that makes a pass test more candidates fails here even where wall time is
too noisy to show it.  The systems use the generator settings of the
benchmark's engine-random workload at a fixed seed.
"""

from functools import cache

import pytest

from tnbpa import engine
from tnbpa.engine import CandidateMode, compute_bisimilarity_base
from tnbpa.model import is_silent
from tnbpa.normalization import standardize
from tnbpa.oracle import GenParams, random_system

SEED = 42

# The largest ratio of total candidates per doubling of n on the random
# family below, measured when pruned mode began to accept candidates by
# their signature: 2.529 at cap 4, n = 64 -> 128 (about 2 elsewhere).  Tighten
# it when a change prunes further; never raise it to get a pass.
MAX_RATIO_PER_DOUBLING = 2.53

# The largest ratio of candidates per pass (a run's total over its passes)
# per doubling of n beyond n = 2048 at cap 4, measured when this gate was
# added: 1.945 from 2048 to 4096 and 2.007 from 4096 to 8192.  The whole-run
# ratio from 2048 to 4096 reads 2.59, because a fourth pass appears; per pass
# the count stays linear in n.  Tighten it when a change prunes further;
# never raise it to get a pass.
MAX_PER_PASS_RATIO_PER_DOUBLING = 2.01

# The same for exhaustive mode at cap 4, measured when it began to head
# candidates with every settled prime and cut their tails from the fixed
# rule's decomposition: 4.557, n = 64 -> 128.  A ratio near 4 is quadratic
# growth; the enumeration of every prime string it replaced tested 1,333,220
# candidates at n = 64 alone.
MAX_EXHAUSTIVE_RATIO_PER_DOUBLING = 4.56


def family_params(n: int, cap: int) -> GenParams:
    return GenParams(
        constants=n, max_rhs_len=3, alphabet=2, silent_prob=0.3,
        norm_cap=cap, extra_rules=2, composite_prob=0.4, seed=SEED,
    )


@cache
def pass_counts(
    n: int, cap: int, mode: CandidateMode = CandidateMode.PRUNED
) -> tuple[tuple[int, int], ...]:
    """Candidates tested and accepted in each pass of a run."""
    _, trace = compute_bisimilarity_base(standardize(random_system(family_params(n, cap))), mode)
    tested = ([cand for c in rec.constants for cand in c.candidates] for rec in trace)
    return tuple((len(cands), sum(cand.accepted for cand in cands)) for cands in tested)


def candidate_counts(
    n: int, cap: int, mode: CandidateMode = CandidateMode.PRUNED
) -> tuple[int, int]:
    """Total candidates tested and accepted over a whole run."""
    passes = pass_counts(n, cap, mode)
    return sum(tested for tested, _ in passes), sum(accepted for _, accepted in passes)


def test_candidate_totals_at_n512_cap4():
    assert candidate_counts(512, 4) == (1_096, 1_039)


def test_candidate_totals_at_n1024_and_n2048_cap4():
    assert candidate_counts(1024, 4) == (2_193, 2_050)
    assert candidate_counts(2048, 4) == (4_522, 4_222)


def test_pruned_mode_tests_only_in_place_targets(monkeypatch):
    # Every other pruned candidate is accepted by its signature: of the 1,096
    # at n = 512, 1,005 are, and `lpftest` sees only the targets of silent
    # decreasing moves, 34 of them accepted at step 4.
    in_place = []
    test = engine.lpftest

    def recording(partial, i, delta):
        targets = {partial.dcmp(r.rhs) for r in partial.std.dec[i] if is_silent(r.label)}
        in_place.append(delta in targets)
        return test(partial, i, delta)

    monkeypatch.setattr(engine, "lpftest", recording)
    compute_bisimilarity_base(standardize(random_system(family_params(512, 4))))
    assert len(in_place) == 91 and all(in_place)


@pytest.mark.parametrize("cap", [1, 4, 8])
def test_candidates_per_doubling_of_n(cap):
    totals = [candidate_counts(n, cap)[0] for n in (64, 128, 256, 512)]
    ratios = [b / a for a, b in zip(totals, totals[1:])]
    assert max(ratios) <= MAX_RATIO_PER_DOUBLING, (totals, ratios)


def test_exhaustive_candidates_per_doubling_of_n():
    exhaustive = [candidate_counts(n, 4, CandidateMode.EXHAUSTIVE) for n in (64, 128, 256, 512)]
    assert exhaustive[-1] == (119_740, 1_039)
    totals = [tested for tested, _ in exhaustive]
    ratios = [b / a for a, b in zip(totals, totals[1:])]
    assert max(ratios) <= MAX_EXHAUSTIVE_RATIO_PER_DOUBLING, (totals, ratios)


def test_candidates_per_pass_per_doubling_of_n_beyond_2048():
    passes = {n: [tested for tested, _ in pass_counts(n, 4)] for n in (2048, 4096, 8192)}
    assert passes[4096] == [3_925, 2_617, 2_592, 2_592]
    assert passes[8192] == [8_068, 5_198, 5_135, 5_135]
    per_pass = [sum(counts) / len(counts) for counts in passes.values()]
    ratios = [b / a for a, b in zip(per_pass, per_pass[1:])]
    assert max(ratios) <= MAX_PER_PASS_RATIO_PER_DOUBLING, (passes, ratios)
