"""Partition refinement over decomposition bases.

Starting from the norm-equality base, each pass rebuilds the equations bottom
up against the previous base and the partially built new base.  A pass is one
`_PartialBase`, which holds the previous base, the fixed decreasing rules and
the candidate mode, and reads every constant's one-step moves from one table,
`_PartialBase.moves`: the decreasing moves decomposed over the new base, the
increasing ones over the old base.  A six-step single-transition test,
`lpftest`, compares a constant's moves with a candidate's as sets.  For a
candidate that is not the target of one of the constant's silent decreasing
moves, its steps 2, 3, 5 and 6 say together that the constant's moves, with
the candidate's tail stripped, equal the moves of the candidate's head.  So
the default pruned mode files every prime under those moves, its signature,
looks most candidates up instead of testing them, and does about one lookup
per constant (`candidates_for`).  Constants with no accepted candidate become
prime; the run stops when a pass adds no prime.  A pass records only its
decisions; its base is built from the previous base and the record
(`_base_after`), in the run and when a trace is replayed, and the trace's
pass numbers and prime lists are derived when it is rendered.

An exhaustive candidate mode keeps every head instead: all settled primes,
each followed by the suffix of the fixed rule's decomposition that gives the
constant's norm, found from norms alone, and tests every candidate.  Step 2
rejects every other prime string, so the mode stays polynomial; it exists to
validate the pruned candidate set and the signature index.

Every word here is a canonical word of `strings`, read only through its
operations, so set membership and signature lookups compare words as tuples,
and words of any width cost what their runs cost.

`_signature`, `_strip`, `_step_one`, `candidates_for` and `lpftest` are hook
points: the mutation tests and the benchmark's tracer replace them by name
in this module.  The pass calls them through the module's globals, never
inlined and never bound to a local name.
"""

from __future__ import annotations

import enum
from itertools import accumulate
from typing import Iterable, NamedTuple

from .base import DecompositionBase, InvalidBaseError, initial_base
from .model import TAU, Process, Rule, is_silent
from .normalization import EngineInternalError, StandardSystem
from .strings import drop, expand, head, join, order_key, suffix_of_norm, width
from .strings import strip as _strip


class CandidateMode(str, enum.Enum):
    PRUNED = "pruned"
    EXHAUSTIVE = "exhaustive"


class VerdictKind(str, enum.Enum):
    BISIMILAR = "bisimilar"
    NOT_BISIMILAR = "not-bisimilar"


# Indexed by bisimilarity: reading an enum member off its class costs about
# as much as a short query's decompositions.
_KINDS = (VerdictKind.NOT_BISIMILAR, VerdictKind.BISIMILAR)


class Verdict:
    """The engine's decision, with the final base as evidence."""

    # A plain class with slots: every query builds one.
    __slots__ = ("kind", "base")

    def __init__(self, kind: VerdictKind, *, base: DecompositionBase):
        self.kind = kind
        self.base = base


def select_decreasing_rules(std: StandardSystem) -> tuple[Rule, ...]:
    """Fix one decreasing rule per constant (silent is allowed).

    Deterministic tie-break: visible before silent, then action name, then the
    right-hand side as an id sequence.  Every constant has one: `standardize`
    classifies the rules with `classify_rules`, which checks it.
    """
    key = lambda r: (is_silent(r.label), r.label, r.rhs)
    return tuple(min(std.dec_rules(i), key=key) for i in range(std.n))


class _PartialBase(DecompositionBase):
    """One refinement pass: the bottom-up profile of the next base.

    The pass holds its inputs: the previous base `old`, the fixed decreasing
    rules and the candidate mode.  While constant i is being treated, every
    constant below i is settled: either marked prime or given its new
    equation, which only the factor table keeps.  Decomposing anything that
    mentions an unsettled constant is a bug (it would contradict the index
    discipline of decreasing rules).  Only the settle methods fill the factor
    table, so `dcmp` raises on it, and a memo entry, stored only once its
    constants are settled, stays exact to the end of the pass.

    `moves(j)` is the pass's move table: j's decreasing moves over this base
    and its increasing moves over the previous one, `old`.  Every reader of
    a constant's rules in the pass reads them there.  In pruned mode
    `settle_prime` files each prime under its moves, its signature.  old(j)
    is no part of the key: it can be exponentially long, so hits compare it.
    Exhaustive mode never reads the index, so it files nothing.
    """

    __slots__ = ("std", "old", "fixed", "mode", "_moves", "_by_signature", "_cut_lengths")

    def __init__(
        self,
        std: StandardSystem,
        old: DecompositionBase,
        fixed: tuple[Rule, ...],
        mode: CandidateMode = CandidateMode.PRUNED,
    ):
        self.n = std.n
        self.norms = std.norms
        self.std = std
        self.old = old
        self.fixed = fixed
        self.mode = CandidateMode(mode)
        self.primes: set[int] = set()
        self._memo = {}
        self._factors = {}
        self._moves: dict[int, tuple[list, list]] = {}
        # signature -> the primes filed under it.
        self._by_signature: dict[tuple, list[int]] = {}
        # label -> the lengths of the decreasing rules' decompositions under it.
        self._cut_lengths: dict[str, set[int]] = {}

    def moves(self, j: int) -> tuple[list, list]:
        """j's moves: the (label, new(beta)) of its decreasing rules and the
        (label, old(gamma)) of its increasing rules.

        Cached for the pass, and exact for the same reason as the memo: a
        decreasing rule of j mentions only constants below j, all settled
        before anyone asks for j's moves.
        """
        got = self._moves.get(j)
        if got is None:
            old, new = self.old.dcmp_memo, self.dcmp_memo
            got = self._moves[j] = (
                [(r.label, new(r.rhs)) for r in self.std.dec_rules(j)],
                [(r.label, old(r.rhs)) for r in self.std.inc_rules(j)],
            )
        return got

    def settle_prime(self, j: int) -> None:
        """Mark j prime and, in pruned mode, file it under its signature."""
        self.primes.add(j)
        self._factors[j] = (j,)
        if self.mode is CandidateMode.EXHAUSTIVE:
            return
        dec, inc = self.moves(j)
        self._by_signature.setdefault(_signature(dec, inc), []).append(j)
        for label, beta in dec:
            self._cut_lengths.setdefault(label, set()).add(width(beta))

    def settle_equation(self, i: int, ids: Process) -> None:
        """Give i the equation i = ids, a string of settled primes."""
        self._factors[i] = ids


def _signature(dec: Iterable, inc: Iterable) -> tuple:
    """The key `_PartialBase` files a prime under and a candidate looks up."""
    return frozenset(dec), frozenset(inc)


def _stripped(moves: list, tail: Process) -> list | None:
    """moves with tail stripped from every target; None as soon as one
    target does not end with it."""
    out = []
    for label, w in moves:
        w = _strip(w, tail)
        if w is None:
            return None
        out.append((label, w))
    return out


class TestResult(NamedTuple):
    accepted: bool
    step: int  # accepting step (4 early, 7 full) or the step that rejected


def _step_one(base: DecompositionBase, i: int, j: int, old_tail: tuple[int, ...]) -> bool:
    """Step 1 of `lpftest` for j . tail: old(i) == old(j) . old(tail)."""
    return base.dcmp_memo((i,)) == join(base.dcmp_memo((j,)), old_tail)


def lpftest(partial: _PartialBase, i: int, delta: Process) -> TestResult:
    """Single-transition test deciding whether delta decomposes constant i.

    i's moves come from the move table; delta's are its head's moves with
    delta's tail appended, decomposed over the same base (dcmp is a
    homomorphism).  With in_place the silent move onto delta, the steps in
    order: (1) old-base decompositions agree; (2) every decreasing move of i
    but in_place is one of delta's; (3) every increasing move of i is one of
    delta's; (4) in_place is a move of i: accept; (5) and (6) every
    decreasing, then increasing move of delta is one of i's; (7) accept.
    Without in_place, steps 2, 3, 5 and 6 say that i's moves with the tail
    stripped are the head's, the lookup of `candidates_for`.

    delta is a word from `candidates_for`: a non-empty string of settled
    primes of the partial base.  The old base is `partial.old`.
    """
    base = partial.old
    j, d_tail = head(delta), drop(delta, 1)
    old_tail = base.dcmp(d_tail)
    if not _step_one(base, i, j, old_tail):
        return TestResult(False, 1)

    new_tail = partial.dcmp(d_tail)
    own_dec, own_inc = map(set, partial.moves(i))
    head_dec, head_inc = partial.moves(j)
    delta_dec = {(label, join(beta, new_tail)) for label, beta in head_dec}
    in_place = (TAU, delta)
    if not own_dec - {in_place} <= delta_dec:
        return TestResult(False, 2)
    delta_inc = {(label, join(gamma, old_tail)) for label, gamma in head_inc}
    if not own_inc <= delta_inc:
        return TestResult(False, 3)
    if in_place in own_dec:
        return TestResult(True, 4)
    if not delta_dec <= own_dec:
        return TestResult(False, 5)
    if not delta_inc <= own_inc:
        return TestResult(False, 6)
    return TestResult(True, 7)


def lpftest_realtime(
    std: StandardSystem,
    base: DecompositionBase,
    partial: DecompositionBase,
    i: int,
    delta: Process,
) -> TestResult:
    """Literal transcription of the five-step test for silent-free systems.

    Kept independent of `lpftest` so the two can be compared per candidate on
    realtime inputs (`realtime_divergences`); with no silent rules the
    general test must take exactly these decisions.
    """
    if not delta or base.dcmp((i,)) != base.dcmp(delta):
        return TestResult(False, 1)

    j, d_tail = head(delta), drop(delta, 1)
    delta_dec = [(r.label, join(r.rhs, d_tail)) for r in std.dec_rules(j)]
    delta_inc = [(r.label, join(r.rhs, d_tail)) for r in std.inc_rules(j)]

    for r in std.dec_rules(i):
        da = partial.dcmp(r.rhs)
        if not any(lab == r.label and da == partial.dcmp(beta) for lab, beta in delta_dec):
            return TestResult(False, 2)

    for r in std.inc_rules(i):
        da = base.dcmp(r.rhs)
        if not any(lab == r.label and da == base.dcmp(beta) for lab, beta in delta_inc):
            return TestResult(False, 3)

    for lab, beta in delta_dec:
        db = partial.dcmp(beta)
        if not any(r.label == lab and partial.dcmp(r.rhs) == db for r in std.dec_rules(i)):
            return TestResult(False, 4)

    for lab, beta in delta_inc:
        db = base.dcmp(beta)
        if not any(r.label == lab and base.dcmp(r.rhs) == db for r in std.inc_rules(i)):
            return TestResult(False, 5)

    return TestResult(True, 6)


def candidates_for(partial: _PartialBase, i: int) -> list[tuple[Process, TestResult | None]]:
    """Candidate decompositions of constant i in the pass `partial`,
    ascending, each with its test result when known already and None when
    `lpftest` must decide it.

    Let s be the decomposition of i's fixed decreasing rule (a, rhs) over the
    new base.  Step 2 of `lpftest` must match that rule: a candidate j . t
    passes only when j has a decreasing rule (a, beta) with
    dcmp(beta) . t == s, or when the rule is silent and the candidate is s
    itself.

    Pruned: the head j is the previous leftmost prime factor k or a new prime
    above it.  Unless j . t is the target of one of i's silent decreasing
    moves, `lpftest` accepts it exactly when old(i) is old(j) . old(t) and
    j's decreasing and increasing moves, each with t appended, are i's.  So
    for each cut t, s past the length of a decreasing rule labelled a,
    i's moves with t (and old(t)) stripped are looked up in the pass's
    signature index, and each hit that passes step 1 is accepted as at step 7
    without a test.  Only the in-place targets are left to `lpftest`.
    Exhaustive: every settled prime j is a head, with t the suffix of s of
    norm norm(i) - norm(j) when s has a cut there; a silent rule preserves
    the norm, so s itself is the candidate, with head(s).  It reads norms
    only, not the index, leaves out only the prime strings of the constant's
    norm that step 2 rejects, and leaves every candidate to `lpftest`.
    """
    std, base, rule = partial.std, partial.old, partial.fixed[i]
    s = partial.dcmp_memo(rule.rhs)
    if partial.mode is CandidateMode.EXHAUSTIVE:
        norms = std.norms
        tails = ((j, suffix_of_norm(s, norms[i] - norms[j], norms)) for j in sorted(partial.primes))
        return [(join((j,), t), None) for j, t in tails if t is not None]

    k = base.lpf(i)
    old_primes = base.primes
    dec, inc = partial.moves(i)
    found: dict[Process, TestResult | None] = {}
    for label, alpha in dec:
        if is_silent(label):
            j = head(alpha)
            if j == k or j > k and j not in old_primes:
                found[alpha] = None
    by_signature = partial._by_signature
    for at in partial._cut_lengths.get(rule.label, ()):
        t = drop(s, at)
        if t is None:
            continue
        dec_t = _stripped(dec, t)
        if dec_t is None:
            continue
        old_t = base.dcmp(t)
        inc_t = _stripped(inc, old_t)
        if inc_t is None:
            continue
        for j in by_signature.get(_signature(dec_t, inc_t), ()):
            # An admissible head: k, or a new prime above it.
            if (j == k or j > k and j not in old_primes) and _step_one(base, i, j, old_t):
                found.setdefault(join((j,), t), TestResult(True, 7))
    if len(found) > 1:
        return sorted(found.items(), key=lambda item: order_key(item[0]))
    return list(found.items())


class CandidateOutcome(NamedTuple):
    delta: Process
    accepted: bool
    step: int


class ConstantOutcome(NamedTuple):
    constant: int
    equation: Process | None  # None: the constant became prime
    candidates: list[CandidateOutcome]


class IterationRecord(NamedTuple):
    """What one pass decided for each constant that was not prime before it."""
    constants: list[ConstantOutcome]


def refine(
    std: StandardSystem,
    base: DecompositionBase,
    fixed: tuple[Rule, ...],
    mode: CandidateMode = CandidateMode.PRUNED,
) -> tuple[DecompositionBase, IterationRecord]:
    """One refinement pass: rebuild all equations bottom-up against `base`.

    The pass is one `_PartialBase`, built here once.  Primes of the previous
    base stay prime.  Candidates left undecided by `candidates_for` are
    tested, and a second acceptance raises: two accepted equations would
    contradict unique decomposition.  The new base is built from `base` and
    the pass's record by `_base_after`, as `pass_bases` builds it.
    """
    partial = _PartialBase(std, base, fixed, mode)
    outcomes: list[ConstantOutcome] = []

    for i in range(std.n):
        if i in base.primes:
            partial.settle_prime(i)
            continue
        accepted: Process | None = None
        records: list[CandidateOutcome] = []
        for delta, res in candidates_for(partial, i):
            if res is None:
                res = lpftest(partial, i, delta)
            records.append(CandidateOutcome(delta, res.accepted, res.step))
            if res.accepted:
                if accepted is not None:
                    raise EngineInternalError(
                        f"two candidates accepted for {std.sys.name(i)}: "
                        f"unique decomposition violated"
                    )
                accepted = delta
        if accepted is not None:
            partial.settle_equation(i, accepted)
        else:
            partial.settle_prime(i)
        outcomes.append(ConstantOutcome(i, accepted, records))

    record = IterationRecord(outcomes)
    return _base_after(std, base, record), record


def _base_after(
    std: StandardSystem, old: DecompositionBase, record: IterationRecord
) -> DecompositionBase:
    """The base a pass built from `old`; an invalid one is an engine bug, not bad input."""
    primes = old.primes.union(c.constant for c in record.constants if c.equation is None)
    equations = {c.constant: c.equation for c in record.constants if c.equation is not None}
    try:
        return DecompositionBase(std.n, primes, equations, std.norms)
    except InvalidBaseError as exc:
        raise EngineInternalError(f"a refinement pass built an invalid base: {exc}") from exc


def compute_bisimilarity_base(
    std: StandardSystem,
    mode: CandidateMode = CandidateMode.PRUNED,
) -> tuple[DecompositionBase, list[IterationRecord]]:
    """Iterate refinement from the norm-equality base until the primes freeze.

    Convergence takes at most n passes: every non-final pass adds a prime.
    On the final pass the whole base must be unchanged, not just the prime
    set; that is asserted rather than trusted.
    """
    fixed = select_decreasing_rules(std)
    current = initial_base(std)
    trace: list[IterationRecord] = []
    if std.n == 0:
        return current, trace
    for _ in range(std.n):
        refined, record = refine(std, current, fixed, mode)
        trace.append(record)
        if refined.primes == current.primes:
            if refined != current:
                raise EngineInternalError(
                    "prime set stabilized but equations changed"
                )
            return refined, trace
        current = refined
    raise EngineInternalError(f"no fixpoint within {std.n} refinement passes")


def pass_bases(std: StandardSystem, trace: list[IterationRecord]) -> list[DecompositionBase]:
    """The bases a run went through: the initial base, then one per pass."""
    fold = accumulate(trace, lambda old, rec: _base_after(std, old, rec), initial=initial_base(std))
    return list(fold)


def realtime_divergences(std: StandardSystem, trace: list[IterationRecord]) -> int:
    """Count the recorded decisions `lpftest_realtime` would have taken otherwise.

    Each candidate of a pass is re-tested against that pass's old base and
    the base it produced.  The latter stands in exactly for the partial base
    the engine used: deciding constant i reads only constants below i, which
    were settled before i and kept their values to the end of the pass.
    """
    if not std.is_realtime:
        raise ValueError("realtime comparison requested on a system with silent rules")
    bases = pass_bases(std, trace)
    divergences = 0
    for rec, old, new in zip(trace, bases, bases[1:]):
        for c in rec.constants:
            for cand in c.candidates:
                if lpftest_realtime(std, old, new, c.constant, cand.delta).accepted != cand.accepted:
                    divergences += 1
    return divergences


def check_equivalence(
    std: StandardSystem,
    p1: Process,
    p2: Process,
    *,
    base: DecompositionBase,
) -> Verdict:
    """Decide branching bisimilarity of two processes over `std`.

    `base` is the final base of `compute_bisimilarity_base(std)`.  Two
    processes are bisimilar exactly when their decompositions under it
    coincide; the base is attached to the verdict as evidence.
    """
    return Verdict(_KINDS[base.equivalent(p1, p2)], base=base)


def trace_to_json(std: StandardSystem, trace: list[IterationRecord]) -> list[dict]:
    """The trace as JSON; each pass's number and prime lists are derived."""
    name = std.sys.name

    def render(ids: Process) -> list[str]:
        return [name(c) for c in expand(ids)]

    out = []
    primes = sorted(initial_base(std).primes)
    for number, rec in enumerate(trace, 1):
        new = [c.constant for c in rec.constants if c.equation is None]
        before, primes = primes, sorted(primes + new)
        out.append(
            {
                "iteration": number,
                "primes_before": render(before),
                "primes_after": render(primes),
                "new_primes": render(new),
                "constants": [
                    {
                        "constant": name(c.constant),
                        "outcome": "prime" if c.equation is None else "equation",
                        "equation": render(c.equation) if c.equation is not None else None,
                        "candidates": [
                            {
                                "delta": render(cand.delta),
                                "accepted": cand.accepted,
                                "step": cand.step,
                            }
                            for cand in c.candidates
                        ],
                    }
                    for c in rec.constants
                ],
            }
        )
    return out
