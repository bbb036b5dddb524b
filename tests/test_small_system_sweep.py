"""Exhaustive sweep over every small two-constant system.

Unlike sampled fuzzing, this enumerates the whole structure space for a
fixed rule pool: each constant takes one or two rules with labels a, b, tau
and right-hand sides from {eps, P, Q, P Q}.  Every totally normed system is
pushed through both candidate modes and cross-checked against the game
oracle on four process pairs.
"""

import itertools

from tnbpa.engine import CandidateMode, compute_bisimilarity_base
from tnbpa.model import BpaSystem, Rule, TAU
from tnbpa.normalization import check_totally_normed, compute_norms, standardize
from tnbpa.oracle import GameContext

RHS = [(), (0,), (1,), (0, 1)]
LABELS = ["a", "b", TAU]
POOL = [(lab, rhs) for lab in LABELS for rhs in RHS if not (lab == TAU and rhs == ())]
PAIR_TEXTS = [("P", "Q"), ("P", "P Q"), ("Q", "Q Q"), ("P Q", "Q P")]


def _rule_sets():
    for count in (1, 2):
        yield from itertools.combinations(POOL, count)


def small_systems():
    """Every system of the sweep, totally normed or not."""
    for rules_p in _rule_sets():
        for rules_q in _rule_sets():
            rules = [Rule(0, lab, rhs) for lab, rhs in rules_p]
            rules += [Rule(1, lab, rhs) for lab, rhs in rules_q]
            yield BpaSystem(["P", "Q"], rules)


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
