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

import enum
import heapq
import math
from functools import cached_property
from typing import Iterator, NamedTuple

from .model import (
    BpaSystem,
    Process,
    Rule,
    is_silent,
    parse_process_text,
    transitions_of,
)

UNNORMED = math.inf


class EngineInternalError(AssertionError):
    """An internal consistency check failed; indicates a bug, not bad input."""


# The oracle raises the next four.  They live here so that the command line
# can catch them without importing the oracle.


class GuardExceeded(RuntimeError):
    pass


class ClosureGuardExceeded(GuardExceeded):
    pass


class StateGuardExceeded(GuardExceeded):
    pass


class InvalidParamsError(ValueError):
    """A generator parameter is outside its range."""


class NotTotallyNormedError(ValueError):
    """The input system is outside the totally normed fragment."""

    def __init__(self, violations: list[str]):
        super().__init__("system is not totally normed:\n  " + "\n  ".join(violations))


class RuleClass(enum.Enum):
    DECREASING = "decreasing"
    INCREASING = "increasing"


class NormTable(NamedTuple):
    """Per-constant norms plus, for each normed constant, a witness rule.

    ``values[c]`` is ``UNNORMED`` (``math.inf``) when ``c`` cannot reach eps.
    ``witness[c]`` is the index of a rule realizing the minimum; following
    witness rules from any process terminates, because a constant's witness
    rule only mentions constants that were settled strictly earlier by the
    fixpoint computation.
    """

    values: tuple[int | float, ...]
    witness: tuple[int | None, ...]


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
    witness: list[int | None] = [None] * n
    settled = [False] * n
    while heap:
        v, x, ri = heapq.heappop(heap)
        if settled[x]:
            continue
        settled[x] = True
        values[x] = v
        witness[x] = ri
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
    for c in sys.constants:
        if norms.values[c.id] == UNNORMED:
            violations.append(f"constant {c.name} is unnormed (no path to eps)")
    for r in sys.rules:
        if is_silent(r.label) and not r.rhs:
            violations.append(f"silent erasing rule {sys.name(r.lhs)} -tau-> eps is forbidden")
    return violations


def classify_rules(sys: BpaSystem, norms: NormTable) -> tuple[RuleClass, ...]:
    """Classify every rule as decreasing or increasing.

    A rule is decreasing when a visible step drops the norm by exactly one or
    a silent step preserves it.  Every constant must end up with at least one
    decreasing rule (its norm witness); anything else indicates a norm bug.
    The norms must be finite, as both callers' are: `view` checks them, and
    `standardize` compares them with checked ones.
    """
    values = norms.values
    classes = []
    has_dec = [False] * sys.n
    for r in sys.rules:
        # A plain loop, as in `SystemView.norm_of`.
        drop = values[r.lhs]
        for c in r.rhs:
            drop -= values[c]
        dec = drop == 0 if is_silent(r.label) else drop == 1
        classes.append(RuleClass.DECREASING if dec else RuleClass.INCREASING)
        has_dec[r.lhs] = has_dec[r.lhs] or dec
    for c in sys.constants:
        if not has_dec[c.id]:
            raise EngineInternalError(f"constant {c.name} has no decreasing rule (norm bug)")
    return tuple(classes)


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
    """A totally normed system with its norms and per-rule classification.

    This is the surface both the refinement engine and the game oracle work
    against.  It does not require the standard ordering, so the oracle can run
    on systems that were never contracted or renumbered.
    """

    def __init__(
        self,
        sys: BpaSystem,
        norms: tuple[int, ...],
        classes: tuple[RuleClass, ...],
        witness: tuple[int, ...],
    ):
        self.sys = sys
        self.norms = norms
        self.classes = classes
        self.witness = witness

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

    @cached_property
    def _rules_by_class(self) -> tuple[tuple[tuple[Rule, ...], ...], tuple[tuple[Rule, ...], ...]]:
        dec: list[list[Rule]] = [[] for _ in range(self.n)]
        inc: list[list[Rule]] = [[] for _ in range(self.n)]
        for ri, r in enumerate(self.sys.rules):
            (dec if self.classes[ri] is RuleClass.DECREASING else inc)[r.lhs].append(r)
        return tuple(tuple(rs) for rs in dec), tuple(tuple(rs) for rs in inc)

    def dec_rules(self, cid: int) -> tuple[Rule, ...]:
        return self._rules_by_class[0][cid]

    def inc_rules(self, cid: int) -> tuple[Rule, ...]:
        return self._rules_by_class[1][cid]

    def transitions(self, p: Process) -> list[tuple[str, Process]]:
        return transitions_of(self.sys, p)

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
        rules = [self.sys.rules[ri] for ri in self.witness]
        return tuple((r.label, r.rhs, self.norm_of(r.rhs) - self.norms[r.lhs]) for r in rules)

    def silent_dec_transitions(self, p: Process) -> list[Process]:
        if not p:
            return []
        tail = p[1:]
        return [r.rhs + tail for r in self.dec_rules(p[0]) if is_silent(r.label)]

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
    """Build a SystemView; raises NotTotallyNormedError outside the fragment."""
    table = _checked_norms(sys)
    classes = classify_rules(sys, table)
    norms = tuple(int(v) for v in table.values)
    return SystemView(sys, norms, classes, tuple(table.witness))


class StandardSystem(SystemView):
    """A contracted system reindexed into standard order.

    Constant ids double as standard indices: norms are non-decreasing in id,
    and every decreasing rule of constant ``i`` has its right-hand side in
    constants with id below ``i``.  ``name_map`` sends every original name to
    the name of its (possibly contracted) representative.
    """

    def __init__(
        self,
        sys: BpaSystem,
        norms: tuple[int, ...],
        classes: tuple[RuleClass, ...],
        witness: tuple[int, ...],
        name_map: dict[str, str],
    ):
        super().__init__(sys, norms, classes, witness)
        self.name_map = name_map

    @cached_property
    def _id_of_original_name(self) -> dict[str, int]:
        return {name: self.sys.constant_id(rep) for name, rep in self.name_map.items()}

    def parse_process(self, text: str) -> Process:
        """Parse a process over the original names, mapping through contraction."""
        return parse_process_text(text, self._id_of_original_name)


def standardize(sys: BpaSystem) -> StandardSystem:
    """Contract loops and renumber constants into standard order, in one pass.

    `contract_loops` maps every constant to its representative and gives the
    representatives' silent-chain depths.  The representatives are sorted by
    (norm, depth, declaration index), which extends the required precedence
    to a total order: lower norm first, and the target of a silent decreasing
    chain before its source.  One substitution, original id to standard id,
    builds the standard system; silent self rules are dropped, and
    `BpaSystem` drops the duplicates.  Its norms, computed afresh, must equal
    the original ones of every constant they stand for; the same computation
    gives the standard system its own witness rules.
    """
    table = _checked_norms(sys)
    rep, depth = contract_loops(sys, table)
    values = table.values
    order = sorted((c for c in range(sys.n) if rep[c] == c), key=lambda c: (values[c], depth[c], c))
    std_id = [0] * sys.n
    for new, old in enumerate(order):
        std_id[old] = new
    sub = [std_id[r] for r in rep]

    rules = []
    for r in sys.rules:
        lhs = sub[r.lhs]
        rhs = tuple(sub[c] for c in r.rhs)
        if is_silent(r.label) and rhs == (lhs,):
            continue
        rules.append(Rule(lhs, r.label, rhs))
    std_sys = BpaSystem([sys.name(c) for c in order], rules)

    std_table = compute_norms(std_sys)
    for c in range(sys.n):
        if std_table.values[sub[c]] != values[c]:
            raise EngineInternalError(f"contraction changed the norm of {sys.name(c)}")
    norms = tuple(int(v) for v in std_table.values)
    classes = classify_rules(std_sys, std_table)

    for ri, r in enumerate(std_sys.rules):
        if classes[ri] is RuleClass.DECREASING and any(c >= r.lhs for c in r.rhs):
            raise EngineInternalError(
                f"decreasing rule of {std_sys.name(r.lhs)} escapes its index prefix"
            )

    name_map = {sys.name(c): sys.name(rep[c]) for c in range(sys.n)}
    return StandardSystem(std_sys, norms, classes, tuple(std_table.witness), name_map)
