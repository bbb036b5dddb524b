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
        self.violations = violations
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

    def norm_of(self, p: Process) -> int | float:
        values = self.values
        total = 0
        for c in p:
            total += values[c]
        return total

    def all_finite(self) -> bool:
        return all(v != UNNORMED for v in self.values)


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
    """
    if not norms.all_finite():
        raise ValueError("rule classification requires finite norms")
    classes = []
    has_dec = [False] * sys.n
    for r in sys.rules:
        drop = norms.values[r.lhs] - norms.norm_of(r.rhs)
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


def _chain_depths(succ: list[list[int]]) -> list[int]:
    """Longest path below each node of an acyclic digraph.

    Components come sinks first, so every successor's depth is final before
    its sources read it.  A component that is not a single node without a
    self-edge is a cycle, which contraction should have removed.
    """
    depth = [0] * len(succ)
    for scc in _components(succ):
        v = scc[0]
        if len(scc) > 1 or v in succ[v]:
            raise EngineInternalError("silent loop survived contraction")
        depth[v] = max((depth[w] + 1 for w in succ[v]), default=0)
    return depth


def contract_loops(sys: BpaSystem, norms: NormTable) -> tuple[BpaSystem, dict[str, str]]:
    """Collapse silent norm-preserving cycles onto one representative each.

    The representative of every strongly connected component of the unary
    silent-decreasing graph is its member with the smallest declaration index.
    All occurrences are substituted, then self rules ``X -tau-> X`` and
    duplicates are dropped.  Returns the contracted system and the map from
    every original name to its representative's name.
    """
    rep = list(range(sys.n))
    for scc in _components(_silent_successors(sys, norms)):
        keep = min(scc)
        for member in scc:
            rep[member] = keep

    survivors = sorted(set(rep))
    new_id = {old: i for i, old in enumerate(survivors)}
    names = [sys.name(old) for old in survivors]

    rules = []
    for r in sys.rules:
        lhs = new_id[rep[r.lhs]]
        rhs = tuple(new_id[rep[c]] for c in r.rhs)
        if is_silent(r.label) and rhs == (lhs,):
            continue
        rules.append(Rule(lhs, r.label, rhs))

    name_map = {sys.name(c.id): sys.name(rep[c.id]) for c in sys.constants}
    return BpaSystem(names, rules), name_map


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
    def _rhs_by_label(self) -> tuple[dict[str, tuple[Process, ...]], ...]:
        index: list[dict[str, list[Process]]] = [{} for _ in range(self.n)]
        for r in self.sys.rules:
            index[r.lhs].setdefault(r.label, []).append(r.rhs)
        return tuple({label: tuple(rhss) for label, rhss in by.items()} for by in index)

    def moves(self, p: Process, label: str) -> list[Process]:
        """The targets of p's transitions labelled `label`, in rule order."""
        if not p:
            return []
        tail = p[1:]
        return [rhs + tail for rhs in self._rhs_by_label[p[0]].get(label, ())]

    def silent_dec_transitions(self, p: Process) -> list[Process]:
        if not p:
            return []
        tail = p[1:]
        return [r.rhs + tail for r in self.dec_rules(p[0]) if is_silent(r.label)]

    @cached_property
    def is_realtime(self) -> bool:
        return not any(is_silent(r.label) for r in self.sys.rules)


def view(sys: BpaSystem) -> SystemView:
    """Build a SystemView; raises NotTotallyNormedError outside the fragment."""
    table = compute_norms(sys)
    violations = check_totally_normed(sys, table)
    if violations:
        raise NotTotallyNormedError(violations)
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
    """Contract loops and renumber constants into standard order.

    The order sorts by (norm, silent-chain depth, declaration index); depth is
    the longest chain of unary silent norm-preserving rules below a constant,
    which makes the order a total extension of the required precedence: lower
    norm first, and the target of a silent decreasing chain before its source.
    """
    table = compute_norms(sys)
    violations = check_totally_normed(sys, table)
    if violations:
        raise NotTotallyNormedError(violations)

    contracted, name_map = contract_loops(sys, table)
    table2 = compute_norms(contracted)
    if check_totally_normed(contracted, table2):
        raise EngineInternalError("contraction broke total normedness")
    for c in contracted.constants:
        if table2.values[c.id] != table.values[sys.constant_id(c.name)]:
            raise EngineInternalError(f"contraction changed the norm of {c.name}")

    depth = _chain_depths(_silent_successors(contracted, table2))
    order = sorted(range(contracted.n), key=lambda c: (table2.values[c], depth[c], c))
    new_id = {old: new for new, old in enumerate(order)}
    names = [contracted.name(old) for old in order]
    rules = [
        Rule(new_id[r.lhs], r.label, tuple(new_id[c] for c in r.rhs))
        for r in contracted.rules
    ]
    std_sys = BpaSystem(names, rules)

    table3 = compute_norms(std_sys)
    norms = tuple(int(v) for v in table3.values)
    classes = classify_rules(std_sys, table3)

    if any(norms[i - 1] > norms[i] for i in range(1, std_sys.n)):
        raise EngineInternalError("standard order is not sorted by norm")
    for ri, r in enumerate(std_sys.rules):
        if is_silent(r.label) and r.rhs == (r.lhs,):
            raise EngineInternalError(f"silent self rule of {std_sys.name(r.lhs)} survived contraction")
        if classes[ri] is RuleClass.DECREASING and any(c >= r.lhs for c in r.rhs):
            raise EngineInternalError(
                f"decreasing rule of {std_sys.name(r.lhs)} escapes its index prefix"
            )

    return StandardSystem(std_sys, norms, classes, tuple(table3.witness), name_map)
