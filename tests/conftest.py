"""Shared fixtures: the two worked systems and independent test oracles."""

import heapq
from bisect import bisect_left
from itertools import accumulate

import pytest

from tnbpa import engine
from tnbpa.model import BpaSystem, Rule, format_process, is_silent, parse_system, transitions_of
from tnbpa.normalization import (
    EngineInternalError,
    NotTotallyNormedError,
    RuleClass,
    StandardSystem,
    _components,
    _silent_successors,
    check_totally_normed,
    classify_rules,
    compute_norms,
    standardize,
)
from tnbpa import oracle
from tnbpa.oracle import (
    DefenderReply,
    Distinction,
    GameContext,
    StateGuardExceeded,
    random_system,
    silent_closure_dec,
)

# The two-process system where every action matches yet the silent step on
# one side is a genuine change of state.
EX1_TEXT = """\
constants: X X' Y Y'
X -b-> eps
X -tau-> X'
X' -a-> eps
X -a-> eps
Y -b-> eps
Y -tau-> Y'
Y' -a-> eps
"""

# A pair of norm-1 constants related through a state-preserving silent step,
# plus a norm-2 constant that decomposes as a product.
SYSB_TEXT = """\
constants: A B X Y
X -a-> Y
Y -a-> eps
Y -tau-> X
A -a-> eps
A -tau-> B
B -a-> eps
"""


@pytest.fixture(scope="session")
def ex1_sys() -> BpaSystem:
    return parse_system(EX1_TEXT)


@pytest.fixture(scope="session")
def ex1_std(ex1_sys):
    return standardize(ex1_sys)


@pytest.fixture(scope="session")
def sysb_sys() -> BpaSystem:
    return parse_system(SYSB_TEXT)


@pytest.fixture(scope="session")
def sysb_std(sysb_sys):
    return standardize(sysb_sys)


def brute_force_norm(sys: BpaSystem, cid: int, cap: int = 10_000) -> float:
    """Independent norm oracle: Dijkstra over process strings.

    Visible steps cost one, silent steps cost zero; the value is the cheapest
    path from the single-constant process to eps.  Exponential in the worst
    case, fine at fixture scale.
    """
    start = (cid,)
    dist = {start: 0}
    heap = [(0, start)]
    popped = 0
    while heap:
        d, p = heapq.heappop(heap)
        popped += 1
        assert popped < cap, "brute-force norm oracle exhausted its budget"
        if p == ():
            return d
        if d > dist.get(p, float("inf")):
            continue
        for label, q in transitions_of(sys, p):
            nd = d + (0 if is_silent(label) else 1)
            if nd < dist.get(q, float("inf")):
                dist[q] = nd
                heapq.heappush(heap, (nd, q))
    return float("inf")


def naive_norm_values(sys: BpaSystem) -> list[float]:
    """Second independent norm oracle: plain rounds of Bellman relaxation.

    No worklist, no priorities; just sweep every rule until nothing improves.
    Converges because each value only ever decreases and is bounded below.
    """
    values = [float("inf")] * sys.n
    changed = True
    while changed:
        changed = False
        for r in sys.rules:
            cand = (0 if is_silent(r.label) else 1) + sum(values[c] for c in r.rhs)
            if cand < values[r.lhs]:
                values[r.lhs] = cand
                changed = True
    return values


def _reference_chain_depths(succ: list[list[int]]) -> list[int]:
    depth = [0] * len(succ)
    for scc in _components(succ):
        v = scc[0]
        if len(scc) > 1 or v in succ[v]:
            raise EngineInternalError("silent loop survived contraction")
        depth[v] = max((depth[w] + 1 for w in succ[v]), default=0)
    return depth


def _reference_contract_loops(sys: BpaSystem, norms) -> tuple[BpaSystem, dict[str, str]]:
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


def reference_standardize(sys: BpaSystem) -> StandardSystem:
    """The two-pass standardization that `standardize` replaced, kept as the
    reference its standard forms are compared against.

    It builds the contracted system first, then renumbers it by (norm, chain
    depth, index) with the depths from a second Tarjan run, which also
    rejects any loop that survived contraction.
    """
    table = compute_norms(sys)
    violations = check_totally_normed(sys, table)
    if violations:
        raise NotTotallyNormedError(violations)

    contracted, name_map = _reference_contract_loops(sys, table)
    table2 = compute_norms(contracted)
    if check_totally_normed(contracted, table2):
        raise EngineInternalError("contraction broke total normedness")
    for c in contracted.constants:
        if table2.values[c.id] != table.values[sys.constant_id(c.name)]:
            raise EngineInternalError(f"contraction changed the norm of {c.name}")

    depth = _reference_chain_depths(_silent_successors(contracted, table2))
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


def reference_dcmp(base, p: tuple[int, ...]) -> tuple[int, ...]:
    """The one-factor-per-constant loop that `DecompositionBase.dcmp` ran on
    every word before it returned prime strings whole, kept as the reference
    its decompositions and its unsettled-constant errors are compared against.
    """
    factors = base._factors
    try:
        if len(p) == 1:
            return factors[p[0]]
        out: list[int] = []
        for c in p:
            out += factors[c]
    except KeyError as exc:
        raise EngineInternalError(
            f"decomposition demanded for unsettled constant {exc.args[0]}"
        ) from None
    return tuple(out)


def names_of(std, ids) -> list[str]:
    return [std.sys.name(c) for c in ids]


def base_as_names(std, base) -> tuple[set[str], dict[str, tuple[str, ...]]]:
    """Render a decomposition base with constant names for readable asserts."""
    primes = {std.sys.name(i) for i in base.primes}
    equations = {
        std.sys.name(i): tuple(std.sys.name(c) for c in rhs.ids)
        for i, rhs in base.equations.items()
    }
    return primes, equations


def planted_clones(sys: BpaSystem) -> list[tuple[int, int, tuple[int, ...]]]:
    """(clone, head, tail) for every constant whose rule set is an earlier
    constant's rule set with one tail appended to every right-hand side.

    Such a clone and the process head . tail have the same transitions, so
    they are bisimilar whatever the rest of the system does.  Read from the
    rules alone, not from the generator that planted them; the shortest tail
    wins.
    """
    earliest: dict[frozenset, int] = {}
    found = []
    for k in range(sys.n):
        rules = [(r.label, r.rhs) for r in sys.rules_of(k)]
        for cut in range(min((len(rhs) for _, rhs in rules), default=-1) + 1):
            tails = {rhs[len(rhs) - cut:] for _, rhs in rules}
            head = earliest.get(frozenset((lab, rhs[:len(rhs) - cut]) for lab, rhs in rules))
            if len(tails) == 1 and head is not None:
                found.append((k, head, tails.pop()))
                break
        earliest.setdefault(frozenset(rules), k)
    return found


def missed_clones(params) -> list[tuple[int, int, tuple[int, ...]]]:
    """The planted clones of the generated system that the final base does
    not relate to head . tail."""
    sys = random_system(params)
    std = standardize(sys)
    base, _ = engine.compute_bisimilarity_base(std)

    def ids(process):
        return std.parse_process(format_process(sys, process))

    return [
        (clone, head, tail)
        for clone, head, tail in planted_clones(sys)
        if not base.equivalent(ids((clone,)), ids((head, *tail)))
    ]


def _lpftest_skipping(steps: frozenset[int]):
    """A mutant of `engine.lpftest` that leaves out the given steps.

    The body takes `engine.lpftest`'s steps in order, with every move
    decomposed whole through `dcmp`, never split at delta's head or read from
    a memo; a skipped step neither rejects nor accepts, so the candidate falls
    through to the next one.  Skipping nothing gives the reference
    `engine.lpftest` is compared against.
    """

    def mutant(partial, i, delta):
        std, base = partial.std, partial.old
        if 1 not in steps:
            if not delta or base.dcmp((i,)) != base.dcmp(delta):
                return engine.TestResult(False, 1)
        d_tail = delta[1:]
        delta_dec = [(r.label, r.rhs + d_tail) for r in std.dec_rules(delta[0])]
        delta_inc = [(r.label, r.rhs + d_tail) for r in std.inc_rules(delta[0])]
        dnew, dold = partial.dcmp, base.dcmp
        if 2 not in steps:
            for r in std.dec_rules(i):
                da = dnew(r.rhs)
                if is_silent(r.label) and da == delta:
                    continue
                if not any(lab == r.label and da == dnew(beta) for lab, beta in delta_dec):
                    return engine.TestResult(False, 2)
        if 3 not in steps:
            for r in std.inc_rules(i):
                da = dold(r.rhs)
                if not any(lab == r.label and da == dold(beta) for lab, beta in delta_inc):
                    return engine.TestResult(False, 3)
        if 4 not in steps:
            if any(is_silent(r.label) and dnew(r.rhs) == delta for r in std.dec_rules(i)):
                return engine.TestResult(True, 4)
        if 5 not in steps:
            for lab, beta in delta_dec:
                db = dnew(beta)
                if not any(r.label == lab and dnew(r.rhs) == db for r in std.dec_rules(i)):
                    return engine.TestResult(False, 5)
        if 6 not in steps:
            for lab, beta in delta_inc:
                db = dold(beta)
                if not any(r.label == lab and dold(r.rhs) == db for r in std.inc_rules(i)):
                    return engine.TestResult(False, 6)
        return engine.TestResult(True, 7)

    return mutant


def _candidates_unfiltered(partial, i):
    """The pruned candidate set before heads were matched against the fixed rule.

    The previous leftmost prime factor and every new prime strictly between
    it and i, each extended with the norm-matching suffix of the fixed
    decreasing rule's decomposition; heads without a suffix boundary are
    skipped.  Every candidate of this list that `engine.candidates_for`
    leaves out must be rejected by the reference test.
    """
    std = partial.std
    s = partial.dcmp_memo(partial.fixed[i].rhs)
    prefix = list(accumulate((std.norms[c] for c in s), initial=0))
    k = partial.old.lpf(i)
    heads = [k]
    heads += [j for j in range(k + 1, i) if j in partial.primes and j not in partial.old.primes]
    out = []
    for j in heads:
        if std.norms[j] > std.norms[i]:
            continue
        cut = prefix[-1] - (std.norms[i] - std.norms[j])
        at = bisect_left(prefix, cut)
        if prefix[at] != cut:
            continue
        out.append((j, *s[at:]))
    return out


def _norm_strings(alphabet, norms, total):
    """Every string over `alphabet` with norm `total`, in lexicographic order.

    Depth-first over the id-sorted alphabet yields lexicographic order; all
    results have the exact target norm, so none is a prefix of another.  The
    count is exponential in `total`.
    """
    prefix = []

    def rec(remaining):
        if remaining == 0:
            yield tuple(prefix)
            return
        for a in alphabet:
            if norms[a] <= remaining:
                prefix.append(a)
                yield from rec(remaining - norms[a])
                prefix.pop()

    return rec(total)


def _candidates_enumerated(partial, i):
    """Every prime string of constant i's norm: the exhaustive candidate set
    before it was cut down to the strings that can pass step 2."""
    return list(_norm_strings(sorted(partial.primes), partial.norms, partial.norms[i]))


@pytest.fixture
def skip_lpftest_steps(monkeypatch):
    """Call with step numbers to run the engine on a mutant that skips them."""

    def install(*steps: int) -> None:
        monkeypatch.setattr(engine, "lpftest", _lpftest_skipping(frozenset(steps)))

    return install


class ReferenceGameContext(GameContext):
    """The game context with the one-builder extractor and the per-process
    closures that `_refute`, `_descend` and the head-derived closures
    replaced, kept as the reference their strategy tables are compared
    against.  `NODE_LIMIT` is read from the oracle module, so a test that
    patches it there patches both builders.
    """

    def closure(self, p):
        hit = self._closures.get(p)
        if hit is None:
            hit = silent_closure_dec(self.view, p)
            self._closures[p] = hit
        return hit

    def _refute(self, p, q, k):
        view = self.view
        np_, nq = view.norm_of(p), view.norm_of(q)
        if np_ != nq:
            k = None
        key = (p, q, k)
        hit = self._strategies.get(key)
        if hit is not None:
            return hit
        if k is None:
            km1 = None
            if np_ == nq:
                raise AssertionError("norm descent on a norm-equal pair")
            side = "left" if p and (not q or np_ < nq) else "right"
            att = p if side == "left" else q
            # The norm fixpoint's witness rule of the head; witness rules form
            # a well-founded descent even on systems never standardized.
            r = view.sys.rules[view.witness[att[0]]]
            label, t = r.label, r.rhs + att[1:]
        elif k < 1:
            raise AssertionError("norm-equal pair cannot fail at level 0")
        else:
            km1 = k - 1
            relate = lambda a, b: self.related(a, b, km1)
            for side, att, dfd in (("left", p, q), ("right", q, p)):
                move = self._unanswered(relate, att, dfd)
                if move is not None:
                    label, t = move
                    break
            else:
                raise AssertionError("approximant failed but every transition is matched")

        left = side == "left"
        att, dfd = (p, q) if left else (q, p)
        replies = []
        if is_silent(label):
            nxt = (t, dfd) if left else (dfd, t)
            replies.append(DefenderReply("stay", None, None, self._refute(*nxt, km1)))
        for mid in self.closure(dfd).states:
            for res in view.moves(mid, label):
                if k is not None and not relate(att, mid):
                    nxt = (att, mid) if left else (mid, att)
                elif k is None or not relate(t, res):
                    nxt = (t, res) if left else (res, t)
                else:
                    raise AssertionError("witness transition has an answered reply")
                replies.append(DefenderReply("move", mid, res, self._refute(*nxt, km1)))
        node = self._strategies[key] = Distinction(p, q, side, label, t, tuple(replies))
        if len(self._strategies) > oracle.NODE_LIMIT:
            raise StateGuardExceeded(f"strategy extraction exceeded {oracle.NODE_LIMIT} nodes")
        return node


def strategy_table(ctx):
    """A context's strategy table as plain data, in insertion order: each
    key with its node's side, action, target and replies, a reply's child
    given by its position in the table."""
    index = {id(node): i for i, node in enumerate(ctx._strategies.values())}
    return [
        (
            key,
            node.side,
            node.action,
            node.target,
            [(r.kind, r.intermediate, r.result, index[id(r.child)]) for r in node.replies],
        )
        for key, node in ctx._strategies.items()
    ]
