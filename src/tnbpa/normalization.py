"""Norm computation and the standard form of totally normed BPA systems.

The norm of a constant is the least number of visible actions on any path to
the empty process; silent steps cost nothing.  A system is totally normed when
every constant has a finite norm and no silent rule erases (``X -tau-> eps``).

Standardization contracts silent norm-preserving loops and renumbers the
constants so that norms are non-decreasing and every decreasing rule of
constant ``i`` rewrites into constants with index strictly below ``i``.  That
index discipline is what lets the refinement engine settle constants bottom-up.
"""

from __future__ import annotations

import heapq
import math
from functools import cached_property
from typing import Iterator, NamedTuple

from .model import (
    BpaSystem,
    Process,
    Rule,
    _cyclic_gc_paused,
    is_silent,
    parse_process,
    transitions_of,
)

UNNORMED = math.inf


class EngineInternalError(AssertionError):
    """An internal consistency check failed; indicates a bug, not bad input."""


# The oracle raises the next three.  They live here so that the command line
# can catch them without importing the oracle.


class GuardExceeded(RuntimeError):
    pass


class StateGuardExceeded(GuardExceeded):
    pass


class InvalidParamsError(ValueError):
    """A generator parameter is outside its range."""


class NotTotallyNormedError(ValueError):
    """The input system is outside the totally normed fragment."""

    def __init__(self, violations: list[str]):
        super().__init__("system is not totally normed:\n  " + "\n  ".join(violations))


class NormTable(NamedTuple):
    """Per-constant norms plus, for each normed constant, a witness rule.

    ``values[c]`` is ``UNNORMED`` (``math.inf``) when ``c`` cannot reach eps.
    ``witness[c]`` is a rule of ``c`` realizing the minimum, or None when
    ``c`` is unnormed; following witness rules from any process terminates,
    because a constant's witness rule only mentions constants that were
    settled strictly earlier by the fixpoint computation.
    """

    values: tuple[int | float, ...]
    witness: tuple[Rule | None, ...]


def compute_norms(sys: BpaSystem) -> NormTable:
    """Least fixpoint of norm(X) = min over rules of cost(label) + norm(rhs).

    Label-correcting worklist in Dijkstra order: a rule becomes ready once all
    of its right-hand-side occurrences are settled, and rule values dominate
    every antecedent (costs are non-negative), so the first pop per constant
    is optimal.
    """
    n = sys.n
    occurrences: list[list[int]] = [[] for _ in range(n)]
    pending = [len(r.rhs) for r in sys.rules]
    acc = [0] * len(sys.rules)
    heap: list[tuple[int, int, int]] = []

    for ri, r in enumerate(sys.rules):
        for c in r.rhs:
            occurrences[c].append(ri)
        if not r.rhs:
            heapq.heappush(heap, (0 if is_silent(r.label) else 1, r.lhs, ri))

    values: list[int | float] = [UNNORMED] * n
    witness: list[Rule | None] = [None] * n
    settled = [False] * n
    while heap:
        v, x, ri = heapq.heappop(heap)
        if settled[x]:
            continue
        settled[x] = True
        values[x] = v
        witness[x] = sys.rules[ri]
        for rj in occurrences[x]:
            acc[rj] += v
            pending[rj] -= 1
            if pending[rj] == 0:
                r = sys.rules[rj]
                if not settled[r.lhs]:
                    cost = 0 if is_silent(r.label) else 1
                    heapq.heappush(heap, (cost + acc[rj], r.lhs, rj))
    return NormTable(tuple(values), tuple(witness))


def check_totally_normed(sys: BpaSystem, norms: NormTable) -> list[str]:
    """Empty list when totally normed; otherwise one message per violation."""
    violations = []
    for name, value in zip(sys.names, norms.values):
        if value == UNNORMED:
            violations.append(f"constant {name} is unnormed (no path to eps)")
    for r in sys.rules:
        if is_silent(r.label) and not r.rhs:
            violations.append(f"silent erasing rule {sys.name(r.lhs)} -tau-> eps is forbidden")
    return violations


RuleTable = tuple[tuple[Rule, ...], ...]  # per constant, a tuple of its rules


def classify_rules(sys: BpaSystem, values: tuple[int, ...]) -> tuple[RuleTable, RuleTable]:
    """Each constant's decreasing and increasing rules, in rule order.

    A rule is decreasing when a visible step drops the norm by exactly one or
    a silent step preserves it.  The loop also checks that `values` are the
    system's exact least fixpoint: no rule's value is below its left-hand
    norm, and every constant has a decreasing rule (its norm witness).
    """
    dec, inc = [], []
    for lhs in range(sys.n):
        norm, down, up = values[lhs], [], []
        for r in sys.rules_of(lhs):
            _, label, rhs = r
            # norm(lhs) minus the rule's value: negative for an increasing rule.
            drop = norm if is_silent(label) else norm - 1
            for c in rhs:
                drop -= values[c]
            if drop > 0:
                raise EngineInternalError(f"contraction changed the norm of {sys.name(lhs)}")
            (up if drop else down).append(r)
        if not down:
            raise EngineInternalError(f"constant {sys.name(lhs)} has no decreasing rule (norm bug)")
        dec.append(tuple(down))
        inc.append(tuple(up))
    return tuple(dec), tuple(inc)


def _silent_successors(sys: BpaSystem, norms: NormTable) -> list[list[int]]:
    # Only rules X -tau-> Y with a single, norm-equal constant can take part
    # in silent norm-preserving loops: silent rules never erase, so a longer
    # right-hand side can never shrink back to a single constant.
    succ: list[list[int]] = [[] for _ in range(sys.n)]
    for r in sys.rules:
        if is_silent(r.label) and len(r.rhs) == 1 and norms.values[r.lhs] == norms.values[r.rhs[0]]:
            succ[r.lhs].append(r.rhs[0])
    return succ


def _components(succ: list[list[int]]) -> list[list[int]]:
    """Strongly connected components of a digraph, sinks first.

    Tarjan's algorithm (1972) with an explicit stack, so long silent chains
    cannot exhaust the interpreter's recursion limit.  A component is emitted
    only after every component reachable from it.
    """
    index = [-1] * len(succ)
    low = [0] * len(succ)
    on_stack = [False] * len(succ)
    stack: list[int] = []
    out: list[list[int]] = []
    visited = 0

    def enter(v: int) -> tuple[int, Iterator[int]]:
        nonlocal visited
        index[v] = low[v] = visited
        visited += 1
        stack.append(v)
        on_stack[v] = True
        return v, iter(succ[v])

    for root in range(len(succ)):
        if index[root] >= 0:
            continue
        work = [enter(root)]
        while work:
            v, edges = work[-1]
            for w in edges:
                if index[w] < 0:
                    work.append(enter(w))
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    component = []
                    while not component or component[-1] != v:
                        w = stack.pop()
                        on_stack[w] = False
                        component.append(w)
                    out.append(component)
    return out


def contract_loops(sys: BpaSystem, norms: NormTable) -> tuple[list[int], list[int]]:
    """Representatives and chain depths of the silent norm-preserving graph.

    The graph has an edge X -> Y for every unary silent rule ``X -tau-> Y``
    with norm(X) = norm(Y); its cycles are the loops that standardization
    collapses.  One Tarjan pass yields the components sinks first, so a single
    walk over them gives every constant its representative, the member of its
    component with the smallest declaration index, and its depth, the longest
    path below it once every component is collapsed to one node.
    """
    succ = _silent_successors(sys, norms)
    rep = list(range(sys.n))
    depth = [0] * sys.n
    for scc in _components(succ):
        keep = min(scc)
        for v in scc:
            rep[v] = keep
        below = 0
        for v in scc:
            for w in succ[v]:
                if rep[w] != keep and depth[w] >= below:
                    below = depth[w] + 1
        for v in scc:
            depth[v] = below
    return rep, depth


class SystemView:
    """A totally normed system with its norms, rule classes and norm witnesses.

    This is the surface both the refinement engine and the game oracle work
    against.  `view` builds it on a system as given, for the oracle;
    `standardize` builds it on the standard form, for the engine.  Each table
    is read directly: ``dec[c]`` and ``inc[c]`` are c's decreasing and
    increasing rules from `classify_rules`, ``witness[c]`` is c's norm witness
    rule, and ``ids`` maps each name a user may write to a constant of `sys`.
    """

    def __init__(
        self,
        sys: BpaSystem,
        norms: tuple[int, ...],
        dec: RuleTable,
        inc: RuleTable,
        witness: tuple[Rule, ...],
        ids: dict[str, int],
    ):
        self.sys = sys
        self.norms = norms
        self.dec = dec
        self.inc = inc
        self.witness = witness
        self.ids = ids

    @property
    def n(self) -> int:
        return self.sys.n

    def norm_of(self, p: Process) -> int:
        # A plain loop: on CPython 3.11, whose specialized tuple indexing it
        # uses, it sums the oracle's processes about twice as fast as
        # `sum(...)` over a generator or over `map(norms.__getitem__, p)`.
        norms = self.norms
        total = 0
        for c in p:
            total += norms[c]
        return total

    def transitions(self, p: Process) -> list[tuple[str, Process]]:
        return transitions_of(self.sys, p)

    def parse_process(self, text: str) -> Process:
        """Parse 'eps' or whitespace-separated names, each looked up in ``ids``."""
        return parse_process(text, self.ids)

    @cached_property
    def rhs_norms_by_label(self) -> tuple[dict[str, tuple[tuple[Process, int], ...]], ...]:
        """Per constant and label, the (rhs, norm of rhs) of its rules, in
        rule order: X's `label` moves from X.w go to each rhs.w, whose norm
        is that rhs norm plus w's."""
        index: list[dict[str, list[tuple[Process, int]]]] = [{} for _ in range(self.n)]
        for r in self.sys.rules:
            index[r.lhs].setdefault(r.label, []).append((r.rhs, self.norm_of(r.rhs)))
        return tuple({label: tuple(pairs) for label, pairs in by.items()} for by in index)

    @cached_property
    def witness_steps(self) -> tuple[tuple[str, Process, int], ...]:
        """Per constant, the (label, rhs, norm(rhs) - norm(constant)) of its
        norm witness rule: following it changes a process's norm by that delta."""
        return tuple((r.label, r.rhs, self.norm_of(r.rhs) - self.norms[r.lhs]) for r in self.witness)

    @cached_property
    def is_realtime(self) -> bool:
        return not any(is_silent(r.label) for r in self.sys.rules)


def _checked_norms(sys: BpaSystem) -> NormTable:
    """The norms of a system; raises NotTotallyNormedError outside the fragment."""
    table = compute_norms(sys)
    violations = check_totally_normed(sys, table)
    if violations:
        raise NotTotallyNormedError(violations)
    return table


def view(sys: BpaSystem) -> SystemView:
    """The system as given, with its own names; raises NotTotallyNormedError
    outside the fragment."""
    table = _checked_norms(sys)
    return SystemView(sys, table.values, *classify_rules(sys, table.values), table.witness, sys.ids)


def standardize(sys: BpaSystem) -> SystemView:
    """Contract loops and renumber constants into standard order, in one pass.

    `contract_loops` maps every constant to its representative and gives the
    representatives' silent-chain depths.  The representatives are sorted by
    (norm, depth, declaration index), which extends the required precedence
    to a total order: lower norm first, and the target of a silent decreasing
    chain before its source.  One substitution, original id to standard id,
    builds the standard system; silent self rules are dropped, and
    `BpaSystem` drops the duplicates.  In the result, constant ids double as
    standard indices, and ``ids`` sends every original name to its
    representative's standard id.

    The norms are computed once, on the original system: every constant must
    have its representative's norm, and the standard system takes those.
    `classify_rules` splits its rules by class and checks that the norms are
    its exact least fixpoint; every decreasing rule must then stay below its
    constant's index.  A constant's witness is its lowest-index decreasing
    rule, the one `compute_norms` picks in a standard system.  The cyclic
    collector is paused while it runs (`_cyclic_gc_paused`).
    """
    with _cyclic_gc_paused():
        table = _checked_norms(sys)
        rep, depth = contract_loops(sys, table)
        values = table.values
        for c in range(sys.n):
            if values[rep[c]] != values[c]:
                raise EngineInternalError(f"contraction changed the norm of {sys.name(c)}")
        order = sorted((c for c in range(sys.n) if rep[c] == c), key=lambda c: (values[c], depth[c], c))
        std_id = [0] * sys.n
        for new, old in enumerate(order):
            std_id[old] = new
        sub = [std_id[r] for r in rep]

        rules = []
        for lhs, label, rhs in sys.rules:
            lhs = sub[lhs]
            rhs = tuple([sub[c] for c in rhs])
            if rhs != (lhs,) or not is_silent(label):
                rules.append(Rule(lhs, label, rhs))
        std_sys = BpaSystem([sys.name(c) for c in order], rules)

        norms = tuple([values[c] for c in order])
        dec, inc = classify_rules(std_sys, norms)
        for i, rules in enumerate(dec):
            for r in rules:
                if r.rhs and max(r.rhs) >= i:
                    name = std_sys.name(i)
                    raise EngineInternalError(f"decreasing rule of {name} escapes its index prefix")

        witness = tuple([rs[0] for rs in dec])
        return SystemView(std_sys, norms, dec, inc, witness, dict(zip(sys.names, sub)))
