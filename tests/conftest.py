"""Shared inputs and fixtures: the worked systems, the named families, the
generated grids and corpora, the session's corpus run, the command-line
runner, the pass builders and independent test oracles.  Every input and
mechanism more than one test reads is defined here once."""

import gc
import heapq
import io
import json
from bisect import bisect_left
from contextlib import redirect_stderr, redirect_stdout
from itertools import accumulate, combinations
from pathlib import Path
from typing import NamedTuple

import pytest

from tnbpa import engine
from tnbpa.base import DecompositionBase
from tnbpa.cli import main
from tnbpa.model import TAU, BpaSystem, Rule, format_process, is_silent, parse_system, transitions_of
from tnbpa.normalization import (
    EngineInternalError,
    NotTotallyNormedError,
    SystemView,
    _components,
    _silent_successors,
    check_totally_normed,
    compute_norms,
    standardize,
)
from tnbpa import oracle
from tnbpa.strings import canonical, expand
from tnbpa.oracle import (
    DefenderReply,
    Distinction,
    GameContext,
    GenParams,
    StateGuardExceeded,
    TrialReport,
    differential_trial,
    random_system,
    silent_closure_dec,
)

ROOT = Path(__file__).resolve().parent.parent
SYSTEMS = ROOT / "systems"

# The worked systems.  Example one: two processes where every action
# matches, yet the silent step on one side is a genuine change of state.
# System B: a pair of norm-1 constants related through a state-preserving
# silent step, plus a norm-2 constant that decomposes as a product.
EX1_FILE, SYSB_FILE = str(SYSTEMS / "ex1.bpa"), str(SYSTEMS / "sys-b.bpa")
EX1_TEXT, SYSB_TEXT = Path(EX1_FILE).read_text(), Path(SYSB_FILE).read_text()


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


def chain_text(family: str, n: int) -> str:
    """A named family as system text, with n constants (composite-root: n + 2).

    doubling: Xi -a-> X(i-1) X(i-1) and Xi -b-> X(i-1) X(i-1), every Xi prime.
    clone: Yi copies Y(i-1)'s rules with Y(i-1) appended, so Yi = Y0^(2^i).
    composite-root: the clone chain over a composite root, P -a-> eps,
    Q -b-> eps and Wi -a-> Q W0 ... W(i-1), so Wi ~ (P Q)^(2^i), a word of
    2^(i+1) runs.  Norms grow as 2^i on all three.
    unit-step: W0 -a-> eps and Wi -a-> W(i-1), so Wi = W0^(i+1); norms grow
    as i, and every word is one run.
    ladder: pairs Ak, Bk of norm 1 with -a-> eps, Ak -c-> A(k+1) A(k+1) and
    Bk -c-> B(k+1) B(k+1) below the top, and a top pair that differs on -d->
    against -e->; the difference travels down one rung per refinement pass.
    """
    if family == "doubling":
        names = [f"X{i}" for i in range(n)]
        lines = ["X0 -a-> eps"]
        for i in range(1, n):
            lines += [f"X{i} -a-> X{i - 1} X{i - 1}", f"X{i} -b-> X{i - 1} X{i - 1}"]
    elif family == "clone":
        names = [f"Y{i}" for i in range(n)]
        rules = [("a", ""), ("b", "")]
        lines = [f"Y0 -{label}-> eps" for label, _ in rules]
        for i in range(1, n):
            rules = [(label, f"{rhs} Y{i - 1}".strip()) for label, rhs in rules]
            lines += [f"Y{i} -{label}-> {rhs}" for label, rhs in rules]
    elif family == "composite-root":
        names = ["P", "Q", *(f"W{i}" for i in range(n))]
        lines = ["P -a-> eps", "Q -b-> eps"]
        lines += [f"W{i} -a-> {' '.join(['Q', *names[2:2 + i]])}" for i in range(n)]
    elif family == "unit-step":
        names = [f"W{i}" for i in range(n)]
        lines = ["W0 -a-> eps", *(f"W{i} -a-> W{i - 1}" for i in range(1, n))]
    elif family == "ladder":
        top = n // 2 - 1
        names = [f"{s}{k}" for k in range(top + 1) for s in "AB"]
        lines = []
        for k in range(top + 1):
            for s in "AB":
                lines.append(f"{s}{k} -a-> eps")
                if k < top:
                    lines.append(f"{s}{k} -c-> {s}{k + 1} {s}{k + 1}")
        lines += [f"A{top} -d-> eps", f"B{top} -e-> eps"]
    else:
        raise ValueError(f"unknown family {family!r}")
    return f"constants: {' '.join(names)}\n" + "\n".join(lines) + "\n"


# Criterion 9's planted silent cycle: X -> Y -> Z -> X collapses into X, and
# W mentions all three.
THREE_CYCLE = (
    "constants: X Y Z W\n"
    "X -tau-> Y\nY -tau-> Z\nZ -tau-> X\n"
    "X -a-> eps\nY -a-> eps\nZ -a-> eps\n"
    "W -b-> X Y Z\n"
)

# The smallest silent cycle, which contraction collapses into X.
TWO_CYCLE = "constants: X Y\nX -tau-> Y\nY -tau-> X\nX -a-> eps\nY -a-> eps\n"

# One constant with one visible step.
ONE_CONSTANT = "constants: K\nK -a-> eps\n"

# P, R and S have the same moves, and Q has another.  The hand-built old base
# of `refine_over_split_base` is no refinement iterate: it puts R under Q and
# S under P.
SPLIT_TEXT = "constants: P Q R S\nP -a-> eps\nQ -b-> eps\nR -a-> eps\nS -a-> eps\n"


def refine_over_split_base():
    std = standardize(parse_system(SPLIT_TEXT))
    p, q, r, s = (std.sys.ids[name] for name in "PQRS")
    base = DecompositionBase(std.n, [p, q], {r: (q,), s: (p,)}, std.norms)
    return std, engine.refine(std, base, engine.select_decreasing_rules(std))[0]


def run_cli(argv, expect=None):
    """`tnbpa argv` in process: (exit code, standard output, standard error)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    if expect is not None:
        assert code == expect, f"exit {code}, stderr: {err.getvalue()}"
    return code, out.getvalue(), err.getvalue()


def write_system(directory: Path, text: str) -> str:
    """text written as the system file of a directory; the file's path."""
    path = directory / "system.bpa"
    path.write_text(text)
    return str(path)


def engine_random_params(n: int, cap: int, seed: int) -> GenParams:
    """The generator settings of the benchmark's engine-random workload."""
    return GenParams(
        constants=n, max_rhs_len=3, alphabet=2, silent_prob=0.3,
        norm_cap=cap, extra_rules=2, composite_prob=0.4, seed=seed,
    )


# The acceptance corpus is cross-checked against the game oracle at K_MAX
# rounds, and its flagged pairs are re-examined at CONFIRM_K.
K_MAX = 16
CONFIRM_K = 24


def corpus_params() -> list[GenParams]:
    """The acceptance corpus: 105 systems with constants <= 8, norms <= 5,
    silent-action rates from 0 to 0.45."""
    silent_levels = (0.0, 0.15, 0.3, 0.45)
    out = []
    for t in range(105):
        out.append(
            GenParams(
                constants=3 + t % 6,            # 3..8
                max_rhs_len=2 + t % 2,
                alphabet=1 + t % 3,
                silent_prob=silent_levels[t % 4],
                norm_cap=2 + t % 4,             # 2..5
                extra_rules=2,
                composite_prob=0.4,
                seed=10_000 + t,
            )
        )
    return out


@pytest.fixture(scope="session")
def corpus_run() -> tuple[list[TrialReport], int]:
    """The corpus's differential trials, run once with the cyclic collector
    off, and the number of unreachable objects one collection after them
    found."""
    gc.collect()
    gc.disable()
    try:
        trials = [
            differential_trial(p, K_MAX, pairs_per_trial=20, confirm_k=CONFIRM_K)
            for p in corpus_params()
        ]
        return trials, gc.collect()
    finally:
        gc.enable()


@pytest.fixture(scope="session")
def corpus_trials(corpus_run) -> list[TrialReport]:
    return corpus_run[0]


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


class GridRun(NamedTuple):
    """A generated system, its standard form and its final bases in pruned
    and exhaustive mode."""

    params: GenParams
    sys: BpaSystem
    std: SystemView
    pruned: DecompositionBase
    exhaustive: DecompositionBase


def grid_run(params: GenParams) -> GridRun:
    """The system params generate, decided in both modes.  Both modes test
    every candidate, so a second acceptance for one constant raises instead
    of passing unnoticed."""
    sys = random_system(params)
    std = standardize(sys)
    pruned, _ = engine.compute_bisimilarity_base(std)
    exhaustive, _ = engine.compute_bisimilarity_base(std, engine.CandidateMode.EXHAUSTIVE)
    return GridRun(params, sys, std, pruned, exhaustive)


@pytest.fixture(scope="session")
def wide_grid() -> list[GridRun]:
    """The wide grid, generated, standardized and decided once; a test that
    patches the engine makes its own runs."""
    return [grid_run(params) for params in WIDE_GRID]


# The generator sweep: about 200 parameter sets, each with the sha256 of
# `serialize_system(random_system(params))` (tests/test_generator_sweep.py).
SWEEP = json.loads(Path(__file__).with_name("generator_sweep.json").read_text())


def sweep_params(entry: dict) -> GenParams:
    return GenParams(**{k: v for k, v in entry.items() if k != "sha256"})


# The small-system rule pool: labels a, b and tau, right-hand sides eps, P, Q
# and P Q, with no tau -> eps.
_RHS = [(), (0,), (1,), (0, 1)]
_POOL = [(lab, rhs) for lab in ("a", "b", TAU) for rhs in _RHS if not (lab == TAU and rhs == ())]


def small_systems():
    """Every system over P and Q in which each constant takes one or two
    rules of the pool, totally normed or not."""
    rule_sets = [rules for count in (1, 2) for rules in combinations(_POOL, count)]
    for rules_p in rule_sets:
        for rules_q in rule_sets:
            rules = [Rule(0, lab, rhs) for lab, rhs in rules_p]
            rules += [Rule(1, lab, rhs) for lab, rhs in rules_q]
            yield BpaSystem(["P", "Q"], rules)


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


def _reference_contract_loops(sys: BpaSystem, norms) -> tuple[BpaSystem, dict[str, int]]:
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

    ids = {name: new_id[rep[c]] for c, name in enumerate(sys.names)}
    return BpaSystem(names, rules), ids


def reference_standardize(sys: BpaSystem) -> SystemView:
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

    contracted, contracted_ids = _reference_contract_loops(sys, table)
    table2 = compute_norms(contracted)
    if check_totally_normed(contracted, table2):
        raise EngineInternalError("contraction broke total normedness")
    for c, name in enumerate(contracted.names):
        if table2.values[c] != table.values[sys.ids[name]]:
            raise EngineInternalError(f"contraction changed the norm of {name}")

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

    if any(norms[i - 1] > norms[i] for i in range(1, std_sys.n)):
        raise EngineInternalError("standard order is not sorted by norm")
    # Its own classification, independent of `classify_rules`: a rule is
    # decreasing when its value, the label's cost plus the norm of its
    # right-hand side, equals its left-hand norm.
    dec = [[] for _ in range(std_sys.n)]
    inc = [[] for _ in range(std_sys.n)]
    for r in std_sys.rules:
        if is_silent(r.label) and r.rhs == (r.lhs,):
            raise EngineInternalError(f"silent self rule of {std_sys.name(r.lhs)} survived contraction")
        value = (0 if is_silent(r.label) else 1) + sum(norms[c] for c in r.rhs)
        if value != norms[r.lhs]:
            inc[r.lhs].append(r)
        elif any(c >= r.lhs for c in r.rhs):
            raise EngineInternalError(
                f"decreasing rule of {std_sys.name(r.lhs)} escapes its index prefix"
            )
        else:
            dec[r.lhs].append(r)

    dec_t, inc_t = tuple(map(tuple, dec)), tuple(map(tuple, inc))
    ids = {name: new_id[c] for name, c in contracted_ids.items()}
    return SystemView(std_sys, norms, dec_t, inc_t, table3.witness, ids)


def reference_dcmp(base, p: tuple[int, ...]) -> tuple[int, ...]:
    """The one-factor-per-constant loop that `DecompositionBase.dcmp` ran on
    every word before it returned prime strings whole, kept as the reference
    its decompositions and its unsettled-constant errors are compared against.
    It concatenates expanded factors, and its result is put in canonical word
    form only at the end.
    """
    factors = base._factors
    try:
        if len(p) == 1:
            return factors[p[0]]
        out: list[int] = []
        for c in p:
            out += expand(factors[c])
    except KeyError as exc:
        raise EngineInternalError(
            f"decomposition demanded for unsettled constant {exc.args[0]}"
        ) from None
    return canonical(out)


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


def missed_clones(run: GenParams | GridRun) -> list[tuple[int, int, tuple[int, ...]]]:
    """The planted clones of the generated system that the final pruned base
    does not relate to head . tail; params are generated and decided
    afresh."""
    if isinstance(run, GridRun):
        sys, std, base = run.sys, run.std, run.pruned
    else:
        sys = random_system(run)
        std = standardize(sys)
        base, _ = engine.compute_bisimilarity_base(std)

    def ids(process):
        return std.parse_process(format_process(sys, process))

    return [
        (clone, head, tail)
        for clone, head, tail in planted_clones(sys)
        if not base.equivalent(ids((clone,)), ids((head, *tail)))
    ]


def partial_pass(std, old, primes, equations=None, mode=engine.CandidateMode.PRUNED):
    """A refinement pass over the old base, built by hand: the constants of
    `primes` settled prime and those of `equations` settled by theirs, in
    index order."""
    equations = equations or {}
    partial = engine._PartialBase(std, old, engine.select_decreasing_rules(std), mode)
    for j in sorted({*primes, *equations}):
        if j in equations:
            partial.settle_equation(j, equations[j])
        else:
            partial.settle_prime(j)
    return partial


@pytest.fixture
def recorded_run(monkeypatch):
    """Call with a system and a candidate mode: the run's final base, its
    trace and the partial bases its passes built, in order."""
    partials = []

    class Recording(engine._PartialBase):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            partials.append(self)

    def run(std, mode):
        partials.clear()
        final, trace = engine.compute_bisimilarity_base(std, mode)
        return final, trace, list(partials)

    monkeypatch.setattr(engine, "_PartialBase", Recording)
    return run


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
                return engine.CandidateOutcome(delta, False, 1)
        d_tail = delta[1:]
        delta_dec = [(r.label, r.rhs + d_tail) for r in std.dec[delta[0]]]
        delta_inc = [(r.label, r.rhs + d_tail) for r in std.inc[delta[0]]]
        dnew, dold = partial.dcmp, base.dcmp
        if 2 not in steps:
            for r in std.dec[i]:
                da = dnew(r.rhs)
                if is_silent(r.label) and da == delta:
                    continue
                if not any(lab == r.label and da == dnew(beta) for lab, beta in delta_dec):
                    return engine.CandidateOutcome(delta, False, 2)
        if 3 not in steps:
            for r in std.inc[i]:
                da = dold(r.rhs)
                if not any(lab == r.label and da == dold(beta) for lab, beta in delta_inc):
                    return engine.CandidateOutcome(delta, False, 3)
        if 4 not in steps:
            if any(is_silent(r.label) and dnew(r.rhs) == delta for r in std.dec[i]):
                return engine.CandidateOutcome(delta, True, 4)
        if 5 not in steps:
            for lab, beta in delta_dec:
                db = dnew(beta)
                if not any(r.label == lab and dnew(r.rhs) == db for r in std.dec[i]):
                    return engine.CandidateOutcome(delta, False, 5)
        if 6 not in steps:
            for lab, beta in delta_inc:
                db = dold(beta)
                if not any(r.label == lab and dold(r.rhs) == db for r in std.inc[i]):
                    return engine.CandidateOutcome(delta, False, 6)
        return engine.CandidateOutcome(delta, True, 7)

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
    """The game context with a reference extractor, kept to compare strategy
    tables against: it recomputes every norm, reads moves off `transitions`
    and runs the closure BFS for every process.  `NODE_LIMIT` is read from
    the oracle module, so a test that patches it there patches both
    builders.
    """

    def closure(self, p):
        hit = self._closures.get(p)
        if hit is None:
            hit = silent_closure_dec(self.view, p).states
            self._closures[p] = hit
        return hit

    def _refute(self, p, q, k, *carried_norms):
        # The norms the builder carries are recomputed here.
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
            r = view.witness[att[0]]
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
        for mid in self.closure(dfd):
            for res in [tgt for lab, tgt in view.transitions(mid) if lab == label]:
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
