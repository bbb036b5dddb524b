import ast
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import tnbpa
import tnbpa.normalization as nz
from conftest import (
    EX1_FILE,
    ONE_CONSTANT,
    ROOT,
    SWEEP,
    SYSTEMS,
    TWO_CYCLE,
    brute_force_norm,
    chain_text,
    naive_norm_values,
    reference_standardize,
    small_systems,
    sweep_params,
)
from tnbpa.model import TAU, BpaSystem, ParseError, Rule, is_silent, parse_system, serialize_system
from tnbpa.normalization import (
    NotTotallyNormedError,
    UNNORMED,
    _components,
    check_totally_normed,
    classify_rules,
    compute_norms,
    contract_loops,
    standardize,
    view,
)
from tnbpa.oracle import GameContext, GenParams, random_system


def test_norms_example_one(ex1_sys):
    table = compute_norms(ex1_sys)
    for c in range(ex1_sys.n):
        assert table.values[c] == brute_force_norm(ex1_sys, c) == 1


def test_norms_sysb(sysb_sys):
    table = compute_norms(sysb_sys)
    expected = {"A": 1, "B": 1, "Y": 1, "X": 2}
    for c, name in enumerate(sysb_sys.names):
        assert table.values[c] == brute_force_norm(sysb_sys, c) == expected[name]


def test_norms_agree_with_naive_relaxation_fuzz():
    for seed in range(25):
        sys = random_system(GenParams(constants=7, norm_cap=5, silent_prob=0.4, seed=seed))
        table = compute_norms(sys)
        assert list(table.values) == naive_norm_values(sys)


def test_unnormed_constant():
    sys = parse_system("constants: X\nX -a-> X\n")
    table = compute_norms(sys)
    assert table.values[0] == UNNORMED
    assert table.witness[0] is None
    assert any("unnormed" in v for v in check_totally_normed(sys, table))


def test_totally_normed_ok(ex1_sys):
    assert check_totally_normed(ex1_sys, compute_norms(ex1_sys)) == []


def test_silent_erasing_rule_rejected():
    sys = parse_system("constants: X\nX -a-> eps\nX -tau-> eps\n")
    violations = check_totally_normed(sys, compute_norms(sys))
    assert any("tau-> eps" in v for v in violations)
    with pytest.raises(NotTotallyNormedError):
        standardize(sys)


def test_classification_examples(ex1_sys, sysb_sys):
    dec, _ = classify_rules(ex1_sys, compute_norms(ex1_sys).values)
    x, xp = ex1_sys.ids["X"], ex1_sys.ids["X'"]
    assert Rule(x, TAU, (xp,)) in dec[x]
    assert Rule(x, "a", ()) in dec[x]

    dec_b, inc_b = classify_rules(sysb_sys, compute_norms(sysb_sys).values)
    y, x = sysb_sys.ids["Y"], sysb_sys.ids["X"]
    assert Rule(y, TAU, (x,)) in inc_b[y]
    assert Rule(y, TAU, (x,)) not in dec_b[y]


def _named_rules(sys: BpaSystem) -> list[tuple[str, str, tuple[str, ...]]]:
    return [(sys.name(r.lhs), r.label, tuple(sys.name(c) for c in r.rhs)) for r in sys.rules]


def test_contract_two_cycle():
    sys = parse_system(TWO_CYCLE)
    std = standardize(sys)
    assert list(std.sys.names) == ["X"]
    assert _named_rules(std.sys) == [("X", "a", ())]
    assert std.ids == {"X": 0, "Y": 0}


def test_contract_three_cycle():
    sys = parse_system(
        "constants: X Y Z\nX -tau-> Y\nY -tau-> Z\nZ -tau-> X\n"
        "X -a-> eps\nY -a-> eps\nZ -b-> eps\n"
    )
    std = standardize(sys)
    assert list(std.sys.names) == ["X"]
    assert std.ids == {"X": 0, "Y": 0, "Z": 0}
    labels = {r.label for r in std.sys.rules}
    assert labels == {"a", "b"}


def test_contract_drops_self_loop():
    sys = parse_system("constants: X\nX -tau-> X\nX -a-> eps\n")
    std = standardize(sys)
    assert _named_rules(std.sys) == [("X", "a", ())]


def test_contract_loop_free_unchanged(ex1_sys):
    # Nothing is contracted: standardization only renumbers.
    std = standardize(ex1_sys)
    assert sorted(std.sys.names) == sorted(ex1_sys.names)
    assert sorted(_named_rules(std.sys)) == sorted(_named_rules(ex1_sys))
    assert all(std.sys.name(i) == orig for orig, i in std.ids.items())


def test_contraction_preserves_behaviour():
    # The collapsed constants were related by silent norm-preserving loops;
    # the game oracle, run on the original uncontracted system, must find no
    # distinction between them at any tested level.
    sys = parse_system(TWO_CYCLE)
    ctx = GameContext(view(sys))
    x, y = (sys.ids["X"],), (sys.ids["Y"],)
    assert ctx.find_distinction(x, y, 12) is None


def test_standard_order_example_one(ex1_std):
    assert list(ex1_std.sys.names) == ["X'", "Y'", "X", "Y"]
    assert ex1_std.norms == (1, 1, 1, 1)


def test_standard_order_sysb(sysb_std):
    assert list(sysb_std.sys.names) == ["B", "Y", "A", "X"]
    assert sysb_std.norms == (1, 1, 1, 2)


def test_realtime_standard_order_preserved():
    text = "constants: P Q R\nP -a-> eps\nQ -a-> P\nR -b-> Q P\n"
    std = standardize(parse_system(text))
    assert list(std.sys.names) == ["P", "Q", "R"]


def test_standardize_idempotent(ex1_sys, sysb_sys):
    for sys in (ex1_sys, sysb_sys):
        std = standardize(sys)
        again = standardize(parse_system(serialize_system(std.sys)))
        assert list(again.sys.names) == list(std.sys.names)
        assert again.norms == std.norms


def test_decreasing_rules_stay_below_their_index():
    # Asserted inside standardize as well; this keeps the property visible.
    for seed in range(30):
        std = standardize(random_system(GenParams(constants=7, silent_prob=0.4, seed=seed)))
        for i in range(std.n):
            assert all(c < i for r in std.dec[i] for c in r.rhs)


def test_norm_additivity():
    rng = random.Random(3)
    for seed in range(10):
        std = standardize(random_system(GenParams(constants=6, seed=seed)))
        for _ in range(20):
            a = tuple(rng.randrange(std.n) for _ in range(rng.randint(0, 4)))
            b = tuple(rng.randrange(std.n) for _ in range(rng.randint(0, 4)))
            assert std.norm_of(a + b) == std.norm_of(a) + std.norm_of(b)


def test_zero_norm_iff_empty():
    rng = random.Random(4)
    for seed in range(10):
        std = standardize(random_system(GenParams(constants=6, seed=seed)))
        assert std.norm_of(()) == 0
        for _ in range(20):
            p = tuple(rng.randrange(std.n) for _ in range(rng.randint(0, 4)))
            assert (std.norm_of(p) == 0) == (p == ())


@st.composite
def views_with_processes(draw):
    params = GenParams(
        constants=draw(st.integers(1, 8)),
        alphabet=draw(st.integers(1, 3)),
        silent_prob=draw(st.sampled_from([0.0, 0.3, 0.6])),
        seed=draw(st.integers(0, 10_000)),
    )
    v = view(random_system(params))
    return v, draw(st.lists(st.integers(0, v.n - 1), max_size=4).map(tuple))


@given(views_with_processes())
def test_moves_and_norms_agree_with_their_definitions(case):
    v, p = case
    actions = {r.label for r in v.sys.rules}
    labels = sorted(actions) + ["absent"]
    assert "absent" not in actions
    for label in labels:
        pairs = v.rhs_norms_by_label[p[0]].get(label, ()) if p else ()
        assert [rhs + p[1:] for rhs, _ in pairs] == [t for lab, t in v.transitions(p) if lab == label]
        assert [n for _, n in pairs] == [v.norm_of(rhs) for rhs, _ in pairs]
    total = sum(v.norms[c] for c in p)
    assert v.norm_of(p) == total


def test_ids_resolve_contracted_processes():
    sys = parse_system(
        "constants: X Y Z\nX -tau-> Y\nY -tau-> X\nX -a-> eps\nY -a-> eps\nZ -b-> X Y\n"
    )
    std = standardize(sys)
    assert std.parse_process("Y Z") == std.parse_process("X Z")


def test_view_parses_every_name_to_its_own_id():
    # The raw view keeps both constants of silent-cycle's loop, which the
    # standard form merges into A: B is id 1 on the view, id 0 on the standard
    # form.
    sys = parse_system((SYSTEMS / "silent-cycle.bpa").read_text())
    v = view(sys)
    assert v.ids is sys.ids
    for cid, name in enumerate(sys.names):
        assert v.parse_process(name) == (cid,)
    assert v.parse_process("B A B") == (1, 0, 1)
    assert v.parse_process("B") == (1,)
    assert standardize(sys).parse_process("B") == (0,)
    with pytest.raises(ParseError, match="unknown constant 'Q'"):
        v.parse_process("A Q")


def test_view_requires_totally_normed():
    with pytest.raises(NotTotallyNormedError):
        view(parse_system("constants: X\nX -a-> X\n"))


def test_norm_witness_rules_are_decreasing():
    for seed in range(10):
        std = standardize(random_system(GenParams(constants=6, silent_prob=0.4, seed=seed)))
        for i in range(std.n):
            assert std.witness[i] in std.dec[i]
            assert std.witness[i].lhs == i


def test_norm_witnesses_descend_to_eps_in_norm_many_visible_steps():
    # The descent `GameContext._refute` takes on systems never standardized:
    # each witness is a rule of its constant whose value is the norm, and
    # rewriting the head by its witness from c reaches eps after exactly
    # norm(c) visible steps.  The step limit turns a witness cycle into a
    # failure instead of a hang.
    normed = 0
    for sys in [*small_systems(), *(random_system(sweep_params(entry)) for entry in SWEEP)]:
        table = compute_norms(sys)
        for c, norm in enumerate(table.values):
            w = table.witness[c]
            if norm == UNNORMED:
                assert w is None
                continue
            normed += 1
            assert w in sys.rules_of(c)
            assert (0 if is_silent(w.label) else 1) + sum(table.values[d] for d in w.rhs) == norm
            stack, visible, steps = [c], 0, 0
            while stack:
                r = table.witness[stack.pop()]
                visible += not is_silent(r.label)
                stack.extend(reversed(r.rhs))
                steps += 1
                assert steps <= 2 * (sys.n + 1) * (norm + 1), (serialize_system(sys), c)
            assert visible == norm, (serialize_system(sys), c)
    assert normed > 10_000


def _standard_forms(wide_grid):
    """The standard forms of the generator sweep, the wide grid and the four
    chain families."""
    for entry in SWEEP:
        yield standardize(random_system(sweep_params(entry)))
    for run in wide_grid:
        yield run.std
    for family in ("doubling", "clone", "composite-root", "ladder"):
        for n in (2, 4, 10):
            yield standardize(parse_system(chain_text(family, n)))


def test_standard_norms_classes_and_witnesses_are_the_standard_systems_own(wide_grid):
    # `standardize` computes norms once, on the original system, and takes
    # each constant's lowest-index decreasing rule as its witness; computed
    # afresh on the standard system, by `compute_norms` in `view`, all three
    # come out the same.
    for std in _standard_forms(wide_grid):
        fresh = view(std.sys)
        assert std.norms == fresh.norms
        assert std.witness == fresh.witness
        assert (std.dec, std.inc) == (fresh.dec, fresh.inc)


@pytest.mark.parametrize("norms, message", [
    pytest.param((5,), "contraction changed the norm of K", id="a-rule-below-its-left-hand-norm"),
    pytest.param((0,), "constant K has no decreasing rule (norm bug)", id="no-decreasing-rule"),
])
def test_standardize_checks_that_the_norms_are_the_least_fixpoint(monkeypatch, norms, message):
    # A norm table that is no fixpoint: K -a-> eps gives K the value 1.  A
    # constant without its representative's norm, and a decreasing rule
    # that leaves its index prefix, are `test_cli`'s
    # `test_standardize_checks_exit_three`.
    monkeypatch.setattr(nz, "compute_norms", lambda sys: nz.NormTable(norms, (0,)))
    with pytest.raises(nz.EngineInternalError) as raised:
        standardize(parse_system(ONE_CONSTANT))
    assert str(raised.value) == message


def test_single_constant_and_empty_systems():
    std1 = standardize(parse_system(ONE_CONSTANT))
    assert std1.norms == (1,)
    std0 = standardize(parse_system("constants:\n"))
    assert std0.n == 0


@st.composite
def digraphs(draw):
    """Successor lists over at most 8 nodes, self-edges and cycles included."""
    n = draw(st.integers(0, 8))
    return [draw(st.lists(st.integers(0, n - 1), max_size=3)) for _ in range(n)]


def _reachable(succ: list[list[int]]) -> list[set[int]]:
    """Nodes reachable from each node in zero or more steps, by plain search."""
    out = []
    for v in range(len(succ)):
        seen, todo = {v}, [v]
        while todo:
            for w in succ[todo.pop()]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        out.append(seen)
    return out


@given(digraphs())
def test_components_are_mutual_reachability_classes_sinks_first(succ):
    reach = _reachable(succ)
    comps = _components(succ)
    expected = {frozenset(w for w in reach[v] if v in reach[w]) for v in range(len(succ))}
    assert {frozenset(c) for c in comps} == expected
    assert sorted(v for c in comps for v in c) == list(range(len(succ)))
    position = {v: k for k, c in enumerate(comps) for v in c}
    for v, ws in enumerate(succ):
        assert all(position[w] <= position[v] for w in ws)


def _silent_graph_system(succ: list[list[int]]) -> BpaSystem:
    """Every node has norm 1, so every edge is a silent norm-preserving rule."""
    rules = [Rule(v, "a", ()) for v in range(len(succ))]
    rules += [Rule(v, TAU, (w,)) for v, ws in enumerate(succ) for w in ws]
    return BpaSystem([f"K{v}" for v in range(len(succ))], rules)


@given(digraphs())
def test_chain_depths_are_longest_paths(succ):
    # Representatives are the least members of mutual-reachability classes,
    # and depths are longest paths once every class is collapsed to a node.
    reach = _reachable(succ)
    cls = [frozenset(w for w in reach[v] if v in reach[w]) for v in range(len(succ))]

    def longest(v: int) -> int:
        return max((1 + longest(w) for u in cls[v] for w in succ[u] if w not in cls[v]), default=0)

    sys = _silent_graph_system(succ)
    rep, depth = contract_loops(sys, compute_norms(sys))
    assert rep == [min(c) for c in cls]
    assert depth == [longest(v) for v in range(len(succ))]


@st.composite
def loop_systems(draw):
    """Dense unary silent edges, one visible rule per constant into lower
    ids (which sets the norms and keeps the system totally normed), and a
    few longer right-hand sides under any label."""
    succ = draw(digraphs())
    n = len(succ)
    rules = []
    for v, ws in enumerate(succ):
        below = draw(st.lists(st.integers(0, v - 1), max_size=2)) if v else []
        rules.append(Rule(v, draw(st.sampled_from("ab")), tuple(below)))
        rules += [Rule(v, TAU, (w,)) for w in ws]
    if n:
        ids = st.integers(0, n - 1)
        long_rules = st.tuples(ids, st.sampled_from(["a", "b", TAU]), st.lists(ids, min_size=2, max_size=3))
        rules += [Rule(v, lab, tuple(rhs)) for v, lab, rhs in draw(st.lists(long_rules, max_size=3))]
    return BpaSystem([f"K{v}" for v in range(n)], rules)


@given(loop_systems())
def test_standard_form_matches_the_two_pass_reference(sys):
    std, ref = standardize(sys), reference_standardize(sys)
    assert std.sys == ref.sys
    assert (std.norms, std.witness) == (ref.norms, ref.witness)
    for i in range(std.n):
        assert (std.dec[i], std.inc[i]) == (ref.dec[i], ref.inc[i])
    assert std.ids == ref.ids

    assert all(std.norms[i - 1] <= std.norms[i] for i in range(1, std.n))
    for i in range(std.n):
        assert all(c < i for r in std.dec[i] for c in r.rhs)
    original = compute_norms(sys).values
    assert std.ids.keys() == set(sys.names)
    for c, name in enumerate(sys.names):
        assert std.norms[std.ids[name]] == original[c]


def test_standardize_runs_tarjan_once_and_builds_one_system(monkeypatch):
    # One norm computation, on the original system: the standard system's
    # norms are checked as its least fixpoint instead of computed again.
    calls = {"components": 0, "norms": 0, "systems": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)

        return wrapper

    class CountedSystem(BpaSystem):
        def __init__(self, names, rules):
            calls["systems"] += 1
            super().__init__(names, rules)

    sys = parse_system(
        "constants: X Y Z\nX -tau-> Y\nY -tau-> X\nZ -tau-> X\nX -a-> eps\nY -a-> eps\nZ -b-> eps\n"
    )
    monkeypatch.setattr(nz, "_components", counted("components", nz._components))
    monkeypatch.setattr(nz, "compute_norms", counted("norms", nz.compute_norms))
    monkeypatch.setattr(nz, "BpaSystem", CountedSystem)
    std = standardize(sys)
    assert list(std.sys.names) == ["X", "Z"]
    assert calls == {"components": 1, "norms": 1, "systems": 1}


LONG = 5_000


def test_standardize_long_silent_chain():
    # C(i) -tau-> C(i-1) down to C0 -a-> eps, declared in reverse, so only the
    # chain depth puts C0 first.
    names = [f"C{i}" for i in reversed(range(LONG))]
    ids = {name: k for k, name in enumerate(names)}
    rules = [Rule(ids["C0"], "a", ())]
    rules += [Rule(ids[f"C{i}"], TAU, (ids[f"C{i - 1}"],)) for i in range(1, LONG)]
    std = standardize(BpaSystem(names, rules))
    assert list(std.sys.names) == [f"C{i}" for i in range(LONG)]
    # Closed into one silent cycle, the chain contracts onto the constant
    # declared first.
    cycle = standardize(BpaSystem(names, rules + [Rule(ids["C0"], TAU, (ids[f"C{LONG - 1}"],))]))
    assert list(cycle.sys.names) == [f"C{LONG - 1}"]
    assert set(cycle.ids.values()) == {0}


def test_standardize_long_silent_cycle():
    names = [f"C{i}" for i in range(LONG)]
    rules = [Rule(0, "a", ())] + [Rule(i, TAU, ((i + 1) % LONG,)) for i in range(LONG)]
    std = standardize(BpaSystem(names, rules))
    assert list(std.sys.names) == ["C0"]
    assert set(std.ids.values()) == {0}


def _python(code: str, *flags: str) -> str:
    # A minimal environment, so that only the code decides what is imported,
    # but a run that asked for no bytecode writes none here either.
    env = {"PYTHONPATH": str(ROOT / "src")}
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    done = subprocess.run(
        [sys.executable, *flags, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout.strip()


def test_import_needs_no_networkx():
    code = "import sys, tnbpa, tnbpa.cli; print('networkx' in sys.modules)"
    assert _python(code) == "False"


def test_import_loads_only_the_decision_pipeline():
    code = """
import sys, tnbpa
print(sorted(m for m in ("tnbpa.oracle", "tnbpa.cli", "dataclasses", "inspect") if m in sys.modules))
from tnbpa import GenParams, random_system
print(random_system(GenParams(constants=3, seed=1)).n, "tnbpa.oracle" in sys.modules)
"""
    assert _python(code).splitlines() == ["[]", "3 True"]


def test_import_adds_only_these_standard_modules():
    # What an interpreter loads at startup depends on its version and its
    # site packages, so the other standard modules the package uses are
    # imported first; `import tnbpa` must then add exactly the pinned ones
    # that are not loaded yet (gc comes with the collector pause).
    code = """
import sys
import contextlib, enum, functools, itertools, math, operator, re, typing
pinned = {"__future__", "_heapq", "gc", "heapq"}
before = set(sys.modules)
import tnbpa
added = {m for m in set(sys.modules) - before if not m.startswith("tnbpa")}
print(added == pinned - before, sorted(added ^ (pinned - before)))
"""
    assert _python(code) == "True []"
    assert _python(code, "-S") == "True []"


def test_decision_commands_leave_the_oracle_unloaded():
    code = f"""
import contextlib, io, sys
from tnbpa.cli import main
codes = []
for argv in (["check", {EX1_FILE!r}, "--left", "X", "--right", "Y"], ["base", {EX1_FILE!r}],
             ["norms", {EX1_FILE!r}], ["standardize", {EX1_FILE!r}]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(codes, "tnbpa.oracle" in sys.modules)
"""
    assert _python(code) == "[1, 0, 0, 0] False"


def test_invariant_checks_survive_python_o():
    # With contraction disabled a silent 2-cycle reaches the standard order,
    # where its decreasing rule escapes the index prefix, and a wrong norm
    # table leaves a constant without a decreasing rule.
    code = f"""
from tnbpa import normalization as nz
from tnbpa.model import parse_system

def outcome(call):
    try:
        call()
    except nz.EngineInternalError as exc:
        return "raised: " + str(exc)
    return "passed"

nz.contract_loops = lambda sys, norms: (list(range(sys.n)), [0] * sys.n)
cycle = parse_system("constants: A B\\nA -tau-> B\\nB -tau-> A\\nA -a-> eps\\n")
single = parse_system({ONE_CONSTANT!r})
print(__debug__)
print(outcome(lambda: nz.standardize(cycle)))
print(outcome(lambda: nz.classify_rules(single, (0,))))
"""
    assert _python(code, "-O").splitlines() == [
        "False",
        "raised: decreasing rule of A escapes its index prefix",
        "raised: constant K has no decreasing rule (norm bug)",
    ]


def test_classify_rules_finds_a_constant_without_a_decreasing_rule():
    # Norms that are no fixpoint: K's one rule has the value 1, above K's
    # norm 0, so it is increasing.
    single = parse_system(ONE_CONSTANT)
    with pytest.raises(nz.EngineInternalError, match=r"^constant K has no decreasing rule \(norm bug\)$"):
        classify_rules(single, (0,))


def test_classify_rules_finds_a_rule_below_its_left_hand_norm():
    # Norms that are no fixpoint: K's one rule has the value 1, below K's norm 5.
    single = parse_system(ONE_CONSTANT)
    with pytest.raises(nz.EngineInternalError, match=r"^contraction changed the norm of K$"):
        classify_rules(single, (5,))


def test_no_assert_statements_in_the_package():
    # `python -O` strips assert statements, so invariant checks must raise.
    package = Path(tnbpa.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
