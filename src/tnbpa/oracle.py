"""Independent ground truth for the refinement engine.

Three ingredients: exact silent-decreasing closures (finite in a totally
normed system because silent norm-preserving steps never shorten a process
and lengths are bounded by norms); stratified rounds of the branching
bisimulation game, whose failure at a finite level soundly refutes
bisimilarity; and replayable attacker strategy trees extracted from a failing
level, machine-checked against nothing but the transition semantics.

A bounded search that finds no distinction proves nothing and is always
reported as such.  The module also houses the random system generator and the
differential harness that cross-checks the engine against the game.
"""

from __future__ import annotations

import dataclasses
import gc
import random
from bisect import bisect_right, insort
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

from .base import DecompositionBase
from .model import TAU, BpaSystem, Process, Rule, format_process, is_silent
from .normalization import (
    ClosureGuardExceeded,
    GuardExceeded,
    InvalidParamsError,
    StateGuardExceeded,
    SystemView,
    standardize,
)
from . import engine as _engine
from .strings import expand

# Resource guards: exceeding one raises a GuardExceeded.  The guard errors
# and InvalidParamsError are defined in `normalization` and re-exported here.
CLOSURE_LIMIT = 10_000
MEMO_LIMIT = 400_000
NODE_LIMIT = 200_000
# Generator checks assume pairs above this norm related (see `GameContext`);
# a differential trial's generator check samples this many pairs.
NORM_BUDGET = 24
GENERATOR_SAMPLES = 10


class ReplayError(AssertionError):
    """A distinction certificate failed to replay against the semantics."""


# ---------------------------------------------------------------------------
# silent closures


@dataclass(frozen=True, slots=True)
class SilentClosure:
    """All processes reachable by silent decreasing steps, in BFS order."""

    states: tuple[Process, ...]


def silent_closure_dec(view: SystemView, p: Process) -> SilentClosure:
    """Exact BFS closure under silent norm-preserving steps.

    The guard is a tripwire, not a truncation: exceeding it raises, because a
    closure this large indicates a generator or normalization bug.
    """
    seen = {p}
    order = [p]
    for q in order:
        for succ in view.silent_dec_transitions(q):
            if succ not in seen:
                seen.add(succ)
                order.append(succ)
                if len(order) > CLOSURE_LIMIT:
                    raise ClosureGuardExceeded(
                        f"silent closure of {p} exceeded {CLOSURE_LIMIT} states"
                    )
    return SilentClosure(tuple(order))


@contextmanager
def _cyclic_gc_paused():
    """Switch CPython's cyclic collector off for the block, then back to the
    state it had before, on every exit path.  Strategy extraction and replay
    run under it; `GameContext` says why that is sound."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# stratified game rounds


@dataclass(slots=True)
class DefenderReply:
    kind: str  # "stay" | "move"
    intermediate: Process | None
    result: Process | None
    child: "Distinction"


@dataclass(slots=True)
class Distinction:
    """A node of an attacker strategy.

    The attacker moves `side`'s process with `action` to `target`; every
    legal defender reply is listed with the continuation the attacker picks.
    A node with a visible action and no replies is a winning leaf: the
    defender cannot match at all.  Extraction shares equal subgames, so the
    strategy is a DAG; replay rejects cycles, which keeps sharing sound.
    """

    left: Process
    right: Process
    side: str  # "left" | "right"
    action: str
    target: Process
    replies: tuple[DefenderReply, ...]

    def nodes(self) -> list[Distinction]:
        """The distinct nodes reachable from this one, in depth-first preorder."""
        seen: set[int] = set()
        order: list[Distinction] = []
        stack = [self]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            order.append(node)
            stack.extend(r.child for r in reversed(node.replies))
        return order

    def size(self) -> int:
        return len(self.nodes())


class GameContext:
    """Memoized stratified rounds of the branching game over one system.

    Level 0 relates exactly the norm-equal pairs, so every level is
    norm-preserving; level k demands one more round of matching in which
    defender replies run through exact silent-decreasing closures, which a
    context caches per constant only.  Failure at any finite level refutes
    bisimilarity; success at a bound proves nothing.

    `norm_budget`, when set, treats pairs whose norm exceeds it as related
    without exploring them.  That only coarsens the levels, so refutations
    stay sound and extracted certificates still replay; it bounds the blowup
    that norm-increasing rules otherwise cause (each round can pump the pairs
    higher).  Searches that return nothing are honest either way: they never
    claim bisimilarity.

    Extraction has one builder, `_refute`, which carries each pair's norms
    and keys its node by the level at which the pair fails, or by None for
    a norm descent.  It files the nodes in one table, `_strategies`, whose
    size `NODE_LIMIT` bounds: the budget is one per context, shared by
    every certificate extracted in it, so once one certificate fills it
    every later extraction that adds a node is skipped.

    Extraction and replay pause CPython's cyclic collector.  That is sound:
    a strategy DAG builds every child before its parent, so it holds no
    reference cycles, and neither pass makes any other cycle, so reference
    counting frees all they drop.  Left running, the collector rescans the
    whole growing DAG at every full collection.
    """

    def __init__(self, view: SystemView, *, norm_budget: int | None = None):
        self.view = view
        self.norm_budget = norm_budget
        self._closures: dict[int, tuple[Process, ...]] = {}
        self._memo: dict[tuple[Process, Process, int], bool] = {}
        self._strategies: dict[tuple[Process, Process, int | None], Distinction] = {}

    def closure(self, p: Process) -> tuple[Process, ...]:
        """p's silent closure states.  Silent steps rewrite the head and never
        erase it, so the closure of X.w is X's with w appended, in the same
        BFS order: only single constants run the BFS, cached by constant id.
        The empty process is its own closure."""
        if not p:
            return (p,)
        head = self._closures.get(p[0])
        if head is None:
            head = self._closures[p[0]] = silent_closure_dec(self.view, p[:1]).states
        if len(p) == 1:
            return head
        if len(head) == 1:
            return (p,)
        tail = p[1:]
        return (p, *[s + tail for s in head[1:]])

    def related(self, p: Process, q: Process, k: int) -> bool:
        # Shared suffixes cancel exactly at every level: silent steps never
        # erase, so play over "alpha tail" vs "beta tail" projects onto play
        # over "alpha" vs "beta" and back.  Stripping them collapses the
        # pumped pairs that otherwise blow up the memo table.
        common = 0
        limit = min(len(p), len(q))
        while common < limit and p[-1 - common] == q[-1 - common]:
            common += 1
        if common:
            p, q = p[: len(p) - common], q[: len(q) - common]
        if p == q:
            return True
        norm = self.view.norm_of(p)
        if norm != self.view.norm_of(q):
            return False
        if k <= 0:
            return True
        if self.norm_budget is not None and norm > self.norm_budget:
            return True
        # Shared prefixes are sound one way only: play on "head tail1" vs
        # "head tail2" can mirror the head move-for-move without spending
        # rounds, so related tails imply related wholes.  Failing tails imply
        # nothing (cancelling a prefix may cost rounds), so fall through.
        if p[0] == q[0]:
            common = 1
            limit = min(len(p), len(q))
            while common < limit and p[common] == q[common]:
                common += 1
            if self.related(p[common:], q[common:], k):
                return True
        key = (p, q, k) if p <= q else (q, p, k)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if len(self._memo) >= MEMO_LIMIT:
            raise StateGuardExceeded(f"approximant memo exceeded {MEMO_LIMIT} entries")
        relate = lambda a, b: self.related(a, b, k - 1)
        res = self.expansion_holds(relate, p, q)
        self._memo[key] = res
        return res

    def expansion_holds(
        self, relate: Callable[[Process, Process], bool], p: Process, q: Process
    ) -> bool:
        """One full round of the branching game with a given relatedness.

        Every move of either process must be matched: a silent move vacuously
        (successor related to the opponent) or by a closure-then-action reply
        whose pre-action state is related to the mover's source and whose
        post-action state is related to the mover's target.
        """
        return self._unanswered(relate, p, q) is None and self._unanswered(
            lambda b, a: relate(a, b), q, p
        ) is None

    def _unanswered(self, relate, mover: Process, defender: Process) -> tuple[str, Process] | None:
        """The first move of `mover` that `defender` cannot match, or None."""
        for label, t in self.view.transitions(mover):
            if is_silent(label) and relate(t, defender):
                continue
            if not self._has_reply(relate, mover, t, label, defender):
                return label, t
        return None

    def _has_reply(self, relate, mover, target, label, defender) -> bool:
        # `related` recurses through this frame, and CPython 3.11 unmaps a
        # frame-stack chunk each time a return crosses the chunk's start, so
        # this frame's size moves where that happens.  As written (9 locals,
        # a stack of 6) the 105-trial corpus under `perfbench/run.py` took
        # 120k page faults on a 2-CPU VM with Python 3.11.7; a frame two
        # slots larger took 150k, and its median trial ran 14% slower.
        for mid in self.closure(defender):
            if not relate(mover, mid):
                continue
            for res, _ in self.view.rhs_norms_by_label[mid[0]].get(label, ()):
                res += mid[1:]
                if relate(target, res):
                    return True
        return False

    # -- certificate extraction ------------------------------------------

    def find_distinction(self, p: Process, q: Process, k_max: int) -> Distinction | None:
        """A replayable attacker strategy refuting p ~ q, or None at the bound."""
        with _cyclic_gc_paused():
            k = self.refutation_level(p, q, k_max)
            if k is None:
                return None
            return self._refute(p, q, k, self.view.norm_of(p), self.view.norm_of(q))

    def refutation_level(self, p: Process, q: Process, k_max: int) -> int | None:
        """The least level at which p and q fail to be related, or None when
        they are related at k_max."""
        if self.related(p, q, k_max):
            return None
        k = 0
        while self.related(p, q, k):
            k += 1
        return k

    def _refute(self, p: Process, q: Process, k: int | None, np_: int, nq: int) -> Distinction:
        """Attacker strategy for a pair not related at level k, whose norms
        are np_ and nq.

        A norm-unequal pair is not related at any level, so its node carries
        no level (k is None in the key) and is shared across levels.  The
        side of smaller norm, or the other one when it is empty, follows its
        head's norm-witness rule; witness rules form a well-founded descent
        even on systems never standardized.  Every defender reply keeps the
        norms unequal and continues at the post-action pair.  Once one side
        is empty the other descends, and its first visible witness step
        cannot be answered.

        A norm-equal pair is attacked with the first move the other side
        cannot match at level k - 1, and each reply continues at a pair the
        reply leaves unrelated.

        Every defender reply is listed, in the order replay enumerates them:
        the stay reply to a silent move, then each matching move from the
        defender's closure.  The norms are carried, not recomputed: a reply
        from closure state mid changes the defender's norm by the reply
        rule's rhs norm minus the norm of mid's head (silent closure steps
        preserve the norm).
        """
        if np_ != nq:
            k = None
        key = (p, q, k)
        hit = self._strategies.get(key)
        if hit is not None:
            return hit
        view = self.view
        if k is None:
            left = bool(p) and (not q or np_ < nq)
            att, dfd = (p, q) if left else (q, p)
            label, rhs, delta = view.witness_steps[att[0]]
            t = rhs + att[1:]
            n_t = (np_ if left else nq) + delta
            km1 = None
        elif k < 1:
            raise AssertionError("norm-equal pair cannot fail at level 0")
        else:
            km1 = k - 1
            relate = lambda a, b: self.related(a, b, km1)
            for left, att, dfd in ((True, p, q), (False, q, p)):
                move = self._unanswered(relate, att, dfd)
                if move is not None:
                    label, t = move
                    break
            else:
                raise AssertionError("approximant failed but every transition is matched")
            n_t = view.norm_of(t)

        states = self.closure(dfd) if dfd else ()
        n_att, n_dfd = (np_, nq) if left else (nq, np_)
        refute = self._refute
        replies: list[DefenderReply] = []
        if is_silent(label):
            child = refute(t, dfd, km1, n_t, n_dfd) if left else refute(dfd, t, km1, n_dfd, n_t)
            replies.append(DefenderReply("stay", None, None, child))
        norms, by_label = view.norms, view.rhs_norms_by_label
        for mid in states:
            tail, rest = mid[1:], n_dfd - norms[mid[0]]
            for beta, n_beta in by_label[mid[0]].get(label, ()):
                res = beta + tail
                if k is not None and not relate(att, mid):
                    child = refute(att, mid, km1, n_att, n_dfd) if left else refute(mid, att, km1, n_dfd, n_att)
                elif k is None or not relate(t, res):
                    n_res = rest + n_beta
                    child = refute(t, res, km1, n_t, n_res) if left else refute(res, t, km1, n_res, n_t)
                else:
                    raise AssertionError("attacked move has an answered reply")
                replies.append(DefenderReply("move", mid, res, child))
        side = "left" if left else "right"
        node = self._strategies[key] = Distinction(p, q, side, label, t, tuple(replies))
        if len(self._strategies) > NODE_LIMIT:
            raise StateGuardExceeded(f"strategy extraction exceeded {NODE_LIMIT} nodes")
        return node


# ---------------------------------------------------------------------------
# certificate replay


def replay_distinction(view: SystemView, d: Distinction) -> None:
    """Machine-check a distinction against the transition semantics alone.

    Verifies that the attacked transition exists, that the certificate covers
    every legal defender option (and nothing else), that each continuation
    pair is one the rules of the game allow, and that leaves really are stuck
    defender positions.  The strategy may share subgames; a cycle would let
    the defender survive forever, so cycles are rejected, after which one
    check per distinct node covers every play.  Replies are compared with the
    options as multisets.  Each defender's closure is computed once per call,
    by this function's own BFS.  Raises ReplayError otherwise.
    """
    with _cyclic_gc_paused():
        _replay_node(view, d, set(), set(), {})


def _replay_node(
    view: SystemView,
    node: Distinction,
    verified: set[int],
    on_path: set[int],
    closures: dict[Process, tuple[Process, ...]],
) -> None:
    """`replay_distinction`'s check of one node and, depth first, the nodes
    below it.  A module-level function, not a closure over the call's
    tables: a nested function that calls itself forms a reference cycle,
    which would keep its closure table alive until the cyclic collector ran.
    """
    if id(node) in on_path:
        raise ReplayError("strategy contains a cycle; the defender could play it forever")
    if id(node) in verified:
        return
    on_path.add(id(node))

    att, dfd = (node.left, node.right) if node.side == "left" else (node.right, node.left)
    if (node.action, node.target) not in view.transitions(att):
        raise ReplayError(f"attacked transition {node.action} not available from {att}")

    options: list[tuple[str, Process | None, Process | None]] = []
    if is_silent(node.action):
        options.append(("stay", None, None))
    states = closures.get(dfd)
    if states is None:
        states = closures[dfd] = silent_closure_dec(view, dfd).states
    for mid in states:
        for lab, res in view.transitions(mid):
            if lab == node.action:
                options.append(("move", mid, res))

    listed = [(r.kind, r.intermediate, r.result) for r in node.replies]
    if listed != options:
        want, got = Counter(options), Counter(listed)
        if want != got:
            missing = list((want - got).elements())
            extra = list((got - want).elements())
            raise ReplayError(f"defender options mismatch: missing={missing} extra={extra}")

    for r in node.replies:
        child_pair = (r.child.left, r.child.right)
        if r.kind == "stay":
            legal = [(node.target, node.right) if node.side == "left" else (node.left, node.target)]
        elif node.side == "left":
            legal = [(node.left, r.intermediate), (node.target, r.result)]
        else:
            legal = [(r.intermediate, node.right), (r.result, node.target)]
        if child_pair not in legal:
            raise ReplayError(f"continuation {child_pair} is not a legal game position")
        _replay_node(view, r.child, verified, on_path, closures)

    on_path.discard(id(node))
    verified.add(id(node))


def distinction_to_json(view: SystemView, d: Distinction) -> dict:
    """Render a strategy as a node table with child indices (subgames shared)."""
    sys = view.sys
    nodes = d.nodes()
    index = {id(n): i for i, n in enumerate(nodes)}
    return {
        "root": 0,
        "nodes": [
            {
                "left": format_process(sys, n.left),
                "right": format_process(sys, n.right),
                "side": n.side,
                "action": n.action,
                "target": format_process(sys, n.target),
                "replies": [
                    {
                        "kind": r.kind,
                        "intermediate": (
                            None if r.intermediate is None else format_process(sys, r.intermediate)
                        ),
                        "result": None if r.result is None else format_process(sys, r.result),
                        "child": index[id(r.child)],
                    }
                    for r in n.replies
                ],
            }
            for n in nodes
        ],
    }


# ---------------------------------------------------------------------------
# base verification


@dataclass
class GeneratorCheck:
    kind: str  # "equation" | "sample"
    subject: str
    ok: bool
    distinction: Distinction | None = None


@dataclass
class GeneratorReport:
    checks: list[GeneratorCheck]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> list[GeneratorCheck]:
        return [c for c in self.checks if not c.ok]


def verify_base_generators(
    std,
    base: DecompositionBase,
    k_max: int = 16,
    sample_budget: int = 50,
    seed: int = 0,
    ctx: GameContext | None = None,
) -> GeneratorReport:
    """Attack a base's generators with the game oracle.

    Checks, in order: no equation pair can be distinguished up to k_max, and
    a sample of decomposition-equal process pairs is likewise
    undistinguished.  Failures carry replayable certificates; a clean report
    is strong evidence, not a proof.
    """
    if ctx is None:
        ctx = GameContext(std, norm_budget=NORM_BUDGET)
    name = std.sys.name
    checks: list[GeneratorCheck] = []

    for i in sorted(base.equations):
        rhs = base.equations[i]
        d = ctx.find_distinction((i,), rhs.ids, k_max)
        checks.append(
            GeneratorCheck(
                "equation",
                f"{name(i)} = {format_process(std.sys, rhs.ids)}",
                ok=d is None,
                distinction=d,
            )
        )

    rng = random.Random(seed)
    for _ in range(sample_budget):
        p, q = sample_dcmp_equal_pair(std, base, rng)
        d = ctx.find_distinction(p, q, k_max)
        checks.append(
            GeneratorCheck(
                "sample",
                f"{format_process(std.sys, p)} vs {format_process(std.sys, q)}",
                ok=d is None,
                distinction=d,
            )
        )

    return GeneratorReport(checks)


def _fold_composites(base: DecompositionBase, ids: Sequence[int], rng: random.Random) -> Process:
    cur = list(ids)
    composites = sorted(base.equations)
    if not composites:
        return tuple(cur)
    for _ in range(4):
        x = rng.choice(composites)
        pat = base.equations[x].ids
        width = len(pat)
        spots = [j for j in range(len(cur) - width + 1) if tuple(cur[j : j + width]) == pat]
        if not spots:
            continue
        j = rng.choice(spots)
        cur[j : j + width] = [x]
    return tuple(cur)


def sample_dcmp_equal_pair(std, base: DecompositionBase, rng: random.Random) -> tuple[Process, Process]:
    """Two processes with equal decompositions: independent refoldings of one."""
    if std.n == 0:
        return (), ()
    seed_proc = tuple(rng.randrange(std.n) for _ in range(rng.randint(0, 3)))
    prime_form = expand(base.dcmp(seed_proc))
    return (
        _fold_composites(base, prime_form, rng),
        _fold_composites(base, prime_form, rng),
    )


# ---------------------------------------------------------------------------
# random systems


@dataclass(frozen=True)
class GenParams:
    """Knobs for the random tnBPA generator; output is a pure function of these.

    `composite_prob` is the chance a constant is built as an exact clone of a
    product of earlier constants; without planted clones almost every random
    constant is prime and the decomposition machinery sits idle.
    """

    constants: int = 6
    max_rhs_len: int = 3
    alphabet: int = 2
    silent_prob: float = 0.3
    norm_cap: int = 4
    extra_rules: int = 2
    composite_prob: float = 0.35
    seed: int = 0

    def __post_init__(self) -> None:
        # A silent extra rule has a non-empty right-hand side, hence the
        # minimum of 1 for max_rhs_len.
        minima = {"constants": 1, "max_rhs_len": 1, "alphabet": 1, "norm_cap": 1, "extra_rules": 0}
        for name, low in minima.items():
            if getattr(self, name) < low:
                raise InvalidParamsError(f"{name} must be at least {low}, got {getattr(self, name)}")
        for name in ("silent_prob", "composite_prob"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise InvalidParamsError(f"{name} must lie in [0, 1], got {getattr(self, name)}")


def _action_names(count: int) -> list[str]:
    letters = "abcdefghijklmnopqrstuvwxyz"
    return [letters[i] if i < 26 else f"a{i}" for i in range(count)]


def random_system(params: GenParams) -> BpaSystem:
    """Generate a totally normed system, deterministically in the seed.

    Constants are built in rounds.  A clone constant copies the rule set of an
    earlier head with a fixed tail appended, so it is bisimilar to that product
    by construction.  Every other constant receives one visible rule whose
    right-hand side uses only earlier constants within the norm budget, which
    bounds every norm by the cap and rules out unnormed constants; silent
    extras are biased toward norm-preserving single-constant chains.  Extra
    rules may point anywhere; silent ones never erase.  A norm cap of 1
    forces unit norms.
    """
    rng = random.Random(params.seed)
    actions = _action_names(params.alphabet)
    names = [f"C{i + 1}" for i in range(params.constants)]
    provisional = [0] * params.constants
    rules: list[Rule] = []
    rules_of: list[list[Rule]] = [[] for _ in range(params.constants)]
    # The finished constants (the ids below k) by provisional norm, in id
    # order.  `levels` holds the norms that occur, ascending, and
    # `with_norm[v]` the ids of norm v.  A budget admits the ids of norm at
    # most its level, the largest level within it: all of them at the top
    # level, else the list `at_most` keeps for that level from its first
    # read on.  So memory goes per level a budget reads, not per unit of cap.
    levels: list[int] = []
    with_norm: dict[int, list[int]] = {}
    at_most: dict[int, list[int]] = {}

    def add(rule: Rule) -> None:
        rules.append(rule)
        rules_of[rule.lhs].append(rule)

    def finish(k: int) -> None:
        v = provisional[k]
        if v in with_norm:
            with_norm[v].append(k)
        else:
            insort(levels, v)
            with_norm[v] = [k]
        for level, ids in at_most.items():
            if v <= level:
                ids.append(k)

    def options(k: int, budget: int) -> Sequence[int]:
        t = bisect_right(levels, budget)
        if t == len(levels):
            return range(k)
        level = levels[t - 1] if t else 0
        if level not in at_most:
            at_most[level] = [j for j in range(k) if provisional[j] <= level]
        return at_most[level]

    def draw(k: int, budget: int, most: int) -> list[int]:
        # Up to `most` constants below k whose norms fit the budget together.
        picked: list[int] = []
        for _ in range(rng.randint(0, most)):
            ids = options(k, budget)
            if not ids:
                break
            j = rng.choice(ids)
            picked.append(j)
            budget -= provisional[j]
        return picked

    for k in range(params.constants):
        if k > 0 and rng.random() < params.composite_prob:
            head = rng.randrange(k)
            if len(rules_of[head]) <= 10:
                tail = draw(k, params.norm_cap - provisional[head], params.max_rhs_len - 1)
                for r in rules_of[head]:
                    add(Rule(k, r.label, r.rhs + tuple(tail)))
                provisional[k] = provisional[head] + sum(provisional[j] for j in tail)
                finish(k)
                continue

        rhs = draw(k, params.norm_cap - 1, params.max_rhs_len)
        add(Rule(k, rng.choice(actions), tuple(rhs)))
        provisional[k] = 1 + sum(provisional[j] for j in rhs)

        for _ in range(rng.randint(0, params.extra_rules)):
            silent = rng.random() < params.silent_prob
            if silent:
                peers = with_norm.get(provisional[k])
                if peers and rng.random() < 0.5:
                    extra_rhs: tuple[int, ...] = (rng.choice(peers),)
                else:
                    length = rng.randint(1, params.max_rhs_len)
                    extra_rhs = tuple(rng.randrange(params.constants) for _ in range(length))
                label = TAU
            else:
                length = rng.randint(0, params.max_rhs_len)
                extra_rhs = tuple(rng.randrange(params.constants) for _ in range(length))
                label = rng.choice(actions)
            add(Rule(k, label, extra_rhs))
        finish(k)

    return BpaSystem(names, rules)


# ---------------------------------------------------------------------------
# differential harness


@dataclass
class PairCheck:
    left: Process
    right: Process
    engine: str  # "bisimilar" | "not-bisimilar"
    oracle: str  # "confirmed" | "none-found" | "refuted" | "guard"
    level: int | None = None
    confirmed_at: int | None = None
    certificate: str | None = None  # "replayed" | "skipped" (extraction over budget)


@dataclass
class TrialReport:
    seed: int
    constants: int
    rules: int
    realtime: bool
    iterations: int = 0
    primes: int = 0
    mode_agree: bool | None = None
    generator_ok: bool = False
    generator_failures: int = 0
    realtime_divergences: int | None = None
    engine_error: str | None = None
    pairs: list[PairCheck] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def refutations(self) -> int:
        return sum(1 for p in self.pairs if p.oracle == "refuted")

    @property
    def flagged(self) -> list[PairCheck]:
        return [
            p
            for p in self.pairs
            if p.engine == "not-bisimilar" and p.oracle in ("none-found", "guard")
        ]

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "constants": self.constants,
            "rules": self.rules,
            "realtime": self.realtime,
            "iterations": self.iterations,
            "primes": self.primes,
            "mode_agree": self.mode_agree,
            "generator_ok": self.generator_ok,
            "generator_failures": self.generator_failures,
            "realtime_divergences": self.realtime_divergences,
            "refutations": self.refutations,
            "flagged": len(self.flagged),
            "pairs_checked": len(self.pairs),
            "certificates_replayed": sum(1 for p in self.pairs if p.certificate == "replayed"),
            "certificates_skipped": sum(1 for p in self.pairs if p.certificate == "skipped"),
            "engine_error": self.engine_error,
            "errors": self.errors,
        }


@dataclass
class DifferentialReport:
    trials: list[TrialReport]
    k_max: int

    @property
    def pairs_checked(self) -> int:
        return sum(len(t.pairs) for t in self.trials)

    @property
    def refutations(self) -> int:
        return sum(t.refutations for t in self.trials)

    @property
    def not_bisimilar_pairs(self) -> int:
        return sum(
            1 for t in self.trials for p in t.pairs if p.engine == "not-bisimilar"
        )

    @property
    def flagged(self) -> list[PairCheck]:
        return [p for t in self.trials for p in t.flagged]

    @property
    def flag_rate(self) -> float:
        total = self.not_bisimilar_pairs
        return len(self.flagged) / total if total else 0.0

    @property
    def ok(self) -> bool:
        return (
            self.refutations == 0
            and all(t.generator_ok for t in self.trials)
            and all(t.engine_error is None for t in self.trials)
            and all(t.mode_agree is not False for t in self.trials)
        )

    def to_json(self) -> dict:
        return {
            "trials": len(self.trials),
            "k_max": self.k_max,
            "pairs_checked": self.pairs_checked,
            "refutations": self.refutations,
            "not_bisimilar_pairs": self.not_bisimilar_pairs,
            "flagged": len(self.flagged),
            "flag_rate": self.flag_rate,
            "mode_mismatches": sum(1 for t in self.trials if t.mode_agree is False),
            "generator_failures": sum(t.generator_failures for t in self.trials),
            "realtime_divergences": sum(t.realtime_divergences or 0 for t in self.trials),
            "errors": sum(len(t.errors) for t in self.trials),
            "ok": self.ok,
        }


def _sample_pairs(std, rng: random.Random, count: int) -> list[tuple[Process, Process]]:
    """Random pairs of norm at most 12, biased toward norm-equal (the hard case)."""
    n = std.n
    pool: list[Process] = [(i,) for i in range(n)]
    for _ in range(4 * count):
        length = rng.randint(0, 3)
        pool.append(tuple(rng.randrange(n) for _ in range(length)))
    pool = [p for p in pool if std.norm_of(p) <= 12]
    buckets: dict[int, list[Process]] = {}
    for p in pool:
        buckets.setdefault(std.norm_of(p), []).append(p)
    rich = [b for b in buckets.values() if len(b) >= 2]
    pairs = []
    for _ in range(count):
        if rich and rng.random() < 0.85:
            bucket = rng.choice(rich)
            pairs.append((rng.choice(bucket), rng.choice(bucket)))
        else:
            pairs.append((rng.choice(pool), rng.choice(pool)))
    return pairs


def differential_trial(
    params: GenParams,
    k_max: int = 16,
    pairs_per_trial: int = 20,
    *,
    confirm_k: int | None = 24,
) -> TrialReport:
    """Generate one system and cross-check the engine against the oracle."""
    sys = random_system(params)
    std = standardize(sys)

    try:
        base, trace = _engine.compute_bisimilarity_base(std)
        base_ex, _ = _engine.compute_bisimilarity_base(std, _engine.CandidateMode.EXHAUSTIVE)
    except AssertionError as exc:
        # A fuzz harness records engine failures, in either candidate mode,
        # instead of dying on them; a non-empty engine_error fails the whole
        # report.
        return TrialReport(
            seed=params.seed,
            constants=std.n,
            rules=len(std.sys.rules),
            realtime=std.is_realtime,
            engine_error=str(exc),
        )
    divergences = _engine.realtime_divergences(std, trace) if std.is_realtime else None

    errors: list[str] = []
    ctx = GameContext(std, norm_budget=NORM_BUDGET)
    gen_report = verify_base_generators(
        std, base, k_max=k_max, sample_budget=GENERATOR_SAMPLES, seed=params.seed, ctx=ctx
    )

    report = TrialReport(
        seed=params.seed,
        constants=std.n,
        rules=len(std.sys.rules),
        realtime=std.is_realtime,
        iterations=len(trace),
        primes=len(base.primes),
        mode_agree=base == base_ex,
        generator_ok=gen_report.ok,
        generator_failures=len(gen_report.failures),
        realtime_divergences=divergences,
        errors=errors,
    )

    def try_certificate(p: Process, q: Process, bound: int) -> str:
        # A certificate is evidence over and above the sound level verdict;
        # extraction can exceed the node budget on wildly pumping systems, in
        # which case only the certificate is skipped, not the confirmation.
        try:
            d = ctx.find_distinction(p, q, bound)
            if d is None:
                raise AssertionError(f"refuted pair {p} vs {q} yielded no distinction")
            replay_distinction(std, d)
            return "replayed"
        except StateGuardExceeded:
            return "skipped"

    rng = random.Random(f"pairs-{params.seed}")
    for p, q in _sample_pairs(std, rng, pairs_per_trial):
        engine_verdict = "bisimilar" if base.equivalent(p, q) else "not-bisimilar"
        oracle_verdict = "none-found"
        level: int | None = None
        confirmed_at: int | None = None
        certificate: str | None = None
        try:
            level = ctx.refutation_level(p, q, k_max)
            if level is not None:
                oracle_verdict = "refuted" if engine_verdict == "bisimilar" else "confirmed"
                certificate = try_certificate(p, q, k_max)
            elif engine_verdict == "not-bisimilar" and confirm_k and confirm_k > k_max:
                confirmed_at = ctx.refutation_level(p, q, confirm_k)
                if confirmed_at is not None:
                    certificate = try_certificate(p, q, confirm_k)
        except GuardExceeded as exc:
            oracle_verdict = "guard"
            errors.append(f"oracle guard on {p} vs {q}: {exc}")
        report.pairs.append(
            PairCheck(p, q, engine_verdict, oracle_verdict, level, confirmed_at, certificate)
        )
    return report


def differential_run(
    params: GenParams,
    trials: int,
    k_max: int = 16,
    *,
    pairs_per_trial: int = 20,
    jobs: int = 1,
) -> DifferentialReport:
    """Run independent trials with derived seeds; optionally in parallel."""
    trial = partial(differential_trial, k_max=k_max, pairs_per_trial=pairs_per_trial)
    trial_params = [dataclasses.replace(params, seed=params.seed + t) for t in range(trials)]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(trial, trial_params))
    else:
        reports = list(map(trial, trial_params))
    return DifferentialReport(reports, k_max)
