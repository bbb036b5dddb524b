import ast
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import tnbpa
import tnbpa.normalization as nz
from conftest import brute_force_norm, naive_norm_values, reference_standardize
from tnbpa.model import TAU, BpaSystem, Rule, parse_process, parse_system, serialize_system
from tnbpa.normalization import (
    NotTotallyNormedError,
    RuleClass,
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
    for c in ex1_sys.constants:
        assert table.values[c.id] == brute_force_norm(ex1_sys, c.id) == 1


def test_norms_sysb(sysb_sys):
    table = compute_norms(sysb_sys)
    expected = {"A": 1, "B": 1, "Y": 1, "X": 2}
    for c in sysb_sys.constants:
        assert table.values[c.id] == brute_force_norm(sysb_sys, c.id) == expected[c.name]


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
    classes = classify_rules(ex1_sys, compute_norms(ex1_sys))
    by_rule = {(ex1_sys.name(r.lhs), r.label, r.rhs): c for r, c in zip(ex1_sys.rules, classes)}
    xp = (ex1_sys.constant_id("X'"),)
    assert by_rule[("X", "tau", xp)] is RuleClass.DECREASING
    assert by_rule[("X", "a", ())] is RuleClass.DECREASING

    classes_b = classify_rules(sysb_sys, compute_norms(sysb_sys))
    x = (sysb_sys.constant_id("X"),)
    by_rule_b = {(sysb_sys.name(r.lhs), r.label, r.rhs): c for r, c in zip(sysb_sys.rules, classes_b)}
    assert by_rule_b[("Y", "tau", x)] is RuleClass.INCREASING


def _named_rules(sys: BpaSystem) -> list[tuple[str, str, tuple[str, ...]]]:
    return [(sys.name(r.lhs), r.label, tuple(sys.name(c) for c in r.rhs)) for r in sys.rules]


def test_contract_two_cycle():
    sys = parse_system("constants: X Y\nX -tau-> Y\nY -tau-> X\nX -a-> eps\nY -a-> eps\n")
    std = standardize(sys)
    assert [c.name for c in std.sys.constants] == ["X"]
    assert _named_rules(std.sys) == [("X", "a", ())]
    assert std.name_map == {"X": "X", "Y": "X"}


def test_contract_three_cycle():
    sys = parse_system(
        "constants: X Y Z\nX -tau-> Y\nY -tau-> Z\nZ -tau-> X\n"
        "X -a-> eps\nY -a-> eps\nZ -b-> eps\n"
    )
    std = standardize(sys)
    assert [c.name for c in std.sys.constants] == ["X"]
    assert set(std.name_map.values()) == {"X"}
    labels = {r.label for r in std.sys.rules}
    assert labels == {"a", "b"}


def test_contract_drops_self_loop():
    sys = parse_system("constants: X\nX -tau-> X\nX -a-> eps\n")
    std = standardize(sys)
    assert _named_rules(std.sys) == [("X", "a", ())]


def test_contract_loop_free_unchanged(ex1_sys):
    # Nothing is contracted: standardization only renumbers.
    std = standardize(ex1_sys)
    assert sorted(c.name for c in std.sys.constants) == sorted(c.name for c in ex1_sys.constants)
    assert sorted(_named_rules(std.sys)) == sorted(_named_rules(ex1_sys))
    assert all(orig == rep for orig, rep in std.name_map.items())


def test_contraction_preserves_behaviour():
    # The collapsed constants were related by silent norm-preserving loops;
    # the game oracle, run on the original uncontracted system, must find no
    # distinction between them at any tested level.
    sys = parse_system("constants: X Y\nX -tau-> Y\nY -tau-> X\nX -a-> eps\nY -a-> eps\n")
    ctx = GameContext(view(sys))
    x, y = (sys.constant_id("X"),), (sys.constant_id("Y"),)
    assert ctx.find_distinction(x, y, 12) is None


def test_standard_order_example_one(ex1_std):
    assert [c.name for c in ex1_std.sys.constants] == ["X'", "Y'", "X", "Y"]
    assert ex1_std.norms == (1, 1, 1, 1)


def test_standard_order_sysb(sysb_std):
    assert [c.name for c in sysb_std.sys.constants] == ["B", "Y", "A", "X"]
    assert sysb_std.norms == (1, 1, 1, 2)


def test_realtime_standard_order_preserved():
    text = "constants: P Q R\nP -a-> eps\nQ -a-> P\nR -b-> Q P\n"
    std = standardize(parse_system(text))
    assert [c.name for c in std.sys.constants] == ["P", "Q", "R"]


def test_standardize_idempotent(ex1_sys, sysb_sys):
    for sys in (ex1_sys, sysb_sys):
        std = standardize(sys)
        again = standardize(parse_system(serialize_system(std.sys)))
        assert [c.name for c in again.sys.constants] == [c.name for c in std.sys.constants]
        assert again.norms == std.norms


def test_decreasing_rules_stay_below_their_index():
    # Asserted inside standardize as well; this keeps the property visible.
    for seed in range(30):
        std = standardize(random_system(GenParams(constants=7, silent_prob=0.4, seed=seed)))
        for ri, r in enumerate(std.sys.rules):
            if std.classes[ri] is RuleClass.DECREASING:
                assert all(c < r.lhs for c in r.rhs)


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


def test_name_map_resolves_contracted_processes():
    sys = parse_system(
        "constants: X Y Z\nX -tau-> Y\nY -tau-> X\nX -a-> eps\nY -a-> eps\nZ -b-> X Y\n"
    )
    std = standardize(sys)
    assert std.parse_process("Y Z") == std.parse_process("X Z")


def test_view_requires_totally_normed():
    with pytest.raises(NotTotallyNormedError):
        view(parse_system("constants: X\nX -a-> X\n"))


def test_norm_witness_rules_are_decreasing():
    for seed in range(10):
        std = standardize(random_system(GenParams(constants=6, silent_prob=0.4, seed=seed)))
        for i in range(std.n):
            assert std.classes[std.witness[i]] is RuleClass.DECREASING
            assert std.sys.rules[std.witness[i]].lhs == i


def test_single_constant_and_empty_systems():
    std1 = standardize(parse_system("constants: K\nK -a-> eps\n"))
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
    assert (std.norms, std.classes, std.witness) == (ref.norms, ref.classes, ref.witness)
    assert std.name_map == ref.name_map

    assert all(std.norms[i - 1] <= std.norms[i] for i in range(1, std.n))
    for ri, r in enumerate(std.sys.rules):
        if std.classes[ri] is RuleClass.DECREASING:
            assert all(c < r.lhs for c in r.rhs)
    original = compute_norms(sys).values
    assert std.name_map.keys() == {c.name for c in sys.constants}
    for c in sys.constants:
        assert std.norms[std.sys.constant_id(std.name_map[c.name])] == original[c.id]


def test_standardize_runs_tarjan_once_and_builds_one_system(monkeypatch):
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
    assert [c.name for c in std.sys.constants] == ["X", "Z"]
    assert calls == {"components": 1, "norms": 2, "systems": 1}


LONG = 5_000


def test_standardize_long_silent_chain():
    # C(i) -tau-> C(i-1) down to C0 -a-> eps, declared in reverse, so only the
    # chain depth puts C0 first.
    names = [f"C{i}" for i in reversed(range(LONG))]
    ids = {name: k for k, name in enumerate(names)}
    rules = [Rule(ids["C0"], "a", ())]
    rules += [Rule(ids[f"C{i}"], TAU, (ids[f"C{i - 1}"],)) for i in range(1, LONG)]
    std = standardize(BpaSystem(names, rules))
    assert [c.name for c in std.sys.constants] == [f"C{i}" for i in range(LONG)]
    # Closed into one silent cycle, the chain contracts onto the constant
    # declared first.
    cycle = standardize(BpaSystem(names, rules + [Rule(ids["C0"], TAU, (ids[f"C{LONG - 1}"],))]))
    assert [c.name for c in cycle.sys.constants] == [f"C{LONG - 1}"]
    assert set(cycle.name_map.values()) == {f"C{LONG - 1}"}


def test_standardize_long_silent_cycle():
    names = [f"C{i}" for i in range(LONG)]
    rules = [Rule(0, "a", ())] + [Rule(i, TAU, ((i + 1) % LONG,)) for i in range(LONG)]
    std = standardize(BpaSystem(names, rules))
    assert [c.name for c in std.sys.constants] == ["C0"]
    assert set(std.name_map.values()) == {"C0"}


def _python(code: str, *flags: str) -> str:
    src = Path(tnbpa.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, *flags, "-c", code],
        env={"PYTHONPATH": str(src)},
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


def test_decision_commands_leave_the_oracle_unloaded():
    ex1 = Path(__file__).resolve().parents[1] / "systems" / "ex1.bpa"
    code = f"""
import contextlib, io, sys
from tnbpa.cli import main
codes = []
for argv in (["check", {str(ex1)!r}, "--left", "X", "--right", "Y"], ["base", {str(ex1)!r}],
             ["norms", {str(ex1)!r}], ["standardize", {str(ex1)!r}]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(codes, "tnbpa.oracle" in sys.modules)
"""
    assert _python(code) == "[1, 0, 0, 0] False"


def test_invariant_checks_survive_python_o():
    # With contraction disabled a silent 2-cycle reaches the standard order,
    # where its decreasing rule escapes the index prefix, and a wrong norm
    # table leaves a constant without a decreasing rule.
    code = """
from tnbpa import normalization as nz
from tnbpa.model import parse_system

def outcome(call):
    try:
        call()
    except nz.EngineInternalError as exc:
        return f"raised: {exc}"
    return "passed"

nz.contract_loops = lambda sys, norms: (list(range(sys.n)), [0] * sys.n)
cycle = parse_system("constants: A B\\nA -tau-> B\\nB -tau-> A\\nA -a-> eps\\n")
single = parse_system("constants: K\\nK -a-> eps\\n")
print(__debug__)
print(outcome(lambda: nz.standardize(cycle)))
print(outcome(lambda: nz.classify_rules(single, nz.NormTable((5,), (0,)))))
"""
    assert _python(code, "-O").splitlines() == [
        "False",
        "raised: decreasing rule of A escapes its index prefix",
        "raised: constant K has no decreasing rule (norm bug)",
    ]


def test_classify_rules_finds_a_constant_without_a_decreasing_rule():
    # A norm table that is no fixpoint: K's one rule drops the norm from 5.
    single = parse_system("constants: K\nK -a-> eps\n")
    with pytest.raises(nz.EngineInternalError, match=r"^constant K has no decreasing rule \(norm bug\)$"):
        classify_rules(single, nz.NormTable((5,), (0,)))


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
