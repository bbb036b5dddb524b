"""Exhaustive sweep over every small two-constant system.

Unlike sampled fuzzing, this enumerates the whole structure space for a
fixed rule pool: each constant takes one or two rules with labels a, b, tau
and right-hand sides from {eps, P, Q, P Q}.  Every totally normed system is
pushed through both candidate modes and cross-checked against the game
oracle on four process pairs.
"""

from conftest import small_systems
from tnbpa.engine import CandidateMode, compute_bisimilarity_base
from tnbpa.normalization import check_totally_normed, compute_norms, standardize
from tnbpa.oracle import GameContext

PAIR_TEXTS = [("P", "Q"), ("P", "P Q"), ("Q", "Q Q"), ("P Q", "Q P")]


def test_every_small_system_agrees_with_the_oracle():
    systems = checked_pairs = 0
    for sys in small_systems():
        if check_totally_normed(sys, compute_norms(sys)):
            continue
        systems += 1
        std = standardize(sys)
        base, _ = compute_bisimilarity_base(std)
        exhaustive, _ = compute_bisimilarity_base(std, CandidateMode.EXHAUSTIVE)
        assert base == exhaustive
        ctx = GameContext(std, norm_budget=16)
        for lt, rt in PAIR_TEXTS:
            p, q = std.parse_process(lt), std.parse_process(rt)
            level = ctx.refutation_level(p, q, 14)
            if base.equivalent(p, q):
                assert level is None, (lt, rt, level)
            else:
                assert level is not None, (lt, rt)
            checked_pairs += 1
    assert systems > 1000
    assert checked_pairs == 4 * systems
