import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import SYSB_TEXT
from tnbpa.model import (
    TAU,
    BpaSystem,
    ParseError,
    Rule,
    format_process,
    parse_process,
    parse_system,
    serialize_system,
    transitions_of,
)
from tnbpa.oracle import GenParams, random_system


def test_parse_example_system(ex1_sys):
    assert [c.name for c in ex1_sys.constants] == ["X", "X'", "Y", "Y'"]
    assert len(ex1_sys.rules) == 7
    assert {r.label for r in ex1_sys.rules} == {"a", "b", "tau"}


def test_duplicate_rules_collapse():
    sys = parse_system("constants: X\nX -a-> eps\nX -a-> eps\n")
    assert len(sys.rules) == 1


def test_vacuous_rule_set_parses():
    sys = parse_system("constants: X\n")
    assert sys.n == 1 and sys.rules == ()


def test_constant_names_are_unique_and_looked_up(ex1_sys):
    with pytest.raises(ValueError, match="^duplicate constant 'A'$"):
        BpaSystem(["A", "A"], [])
    assert ex1_sys.constant_id("Y") == 2
    with pytest.raises(KeyError, match="unknown constant 'Q'"):
        ex1_sys.constant_id("Q")


@pytest.mark.parametrize(
    "rules",
    [
        [Rule(1, "a", (-1,)), Rule(-1, "b", ())],
        [Rule(0, "a", (2,))],
        [Rule(2, "a", ())],
    ],
)
def test_rules_must_name_declared_constant_ids(rules):
    # A negative id would index from the end of the constant table.
    with pytest.raises(ValueError, match="undeclared constant id"):
        BpaSystem(["A", "B"], rules)


def test_out_of_range_rhs_id_names_its_rule():
    with pytest.raises(ValueError) as err:
        BpaSystem(["A", "B"], [Rule(1, "b", ()), Rule(0, "a", (1, 2))])
    assert str(err.value) == "rule Rule(lhs=0, label='a', rhs=(1, 2)) references an undeclared constant id"


def test_rule_before_declaration():
    with pytest.raises(ParseError):
        parse_system("X -a-> eps\nconstants: X\n")


@pytest.mark.parametrize("name", ["tau", "eps"])
def test_reserved_constant_names(name):
    with pytest.raises(ParseError, match="reserved"):
        parse_system(f"constants: {name}\n")


@pytest.mark.parametrize(
    "text, message, line, column",
    [
        ("constants: X\n  Q -a-> eps\n", "undeclared constant 'Q'", 2, 3),
        ("constants: X\nX -a->  X X\tY\n", "undeclared constant 'Y'", 2, 13),
        ("constants: X\n\nconstants: Y  tau\n", "'tau' is reserved", 3, 15),
        ("constants: X\nconstants: Y 9X\n", "invalid constant name '9X'", 2, 14),
        ("constants: X\n9X -a-> eps\n", "invalid constant name '9X'", 2, 1),
        ("constants: X X' X\n", "constant 'X' declared twice", 1, 17),
        ("constants: X\nX X ->a-> eps\n", "malformed action arrow 'X'", 2, 3),
        ("constants: X\n   X -a->  # comment\n", "expected rule", 2, 4),
        ("constants: X\nX -a-> X eps\n", "'eps' must stand alone", 2, 10),
        ("constants: X\nX -a-> eps eps\n", "'eps' must stand alone", 2, 8),
        ("constants: X\nX -a-> X Y\n", "undeclared constant 'Y'", 2, 10),
        ("constants: X\nQ -a-> eps\n", "undeclared constant 'Q'", 2, 1),
        ("constants: X\nX ->a-> eps\n", "malformed action arrow '->a->'", 2, 3),
        ("constants: X\nX -a-> eps X\n", "'eps' must stand alone", 2, 8),
        ("constants: X\nX -a->\n", "expected rule", 2, 1),
    ],
)
def test_parse_error_positions(text, message, line, column):
    with pytest.raises(ParseError, match=message) as exc:
        parse_system(text)
    assert (exc.value.line, exc.value.column) == (line, column)
    assert str(exc.value).startswith(f"line {line}, column {column}: ")


def test_comments_and_blank_lines():
    sys = parse_system("# whole line\nconstants: X  # trailing\n\nX -a-> eps\n")
    assert sys.n == 1 and len(sys.rules) == 1


def test_serialize_round_trip(ex1_sys, sysb_sys):
    for sys in (ex1_sys, sysb_sys):
        assert parse_system(serialize_system(sys)) == sys
    assert ex1_sys.__eq__("X") is NotImplemented and ex1_sys != "X"


def test_serialize_empty_rules():
    sys = parse_system("constants: X Y\n")
    assert serialize_system(sys) == "constants: X Y\n"


def test_serialize_round_trip_fuzz():
    for seed in range(25):
        sys = random_system(GenParams(constants=6, seed=seed))
        assert parse_system(serialize_system(sys)) == sys


_IDENT = st.from_regex(r"[A-Za-z_][A-Za-z0-9_']{0,3}", fullmatch=True)


@st.composite
def systems(draw):
    """Any well-formed system: names the format allows, visible and silent
    labels, rules in any order, duplicates included."""
    names = draw(st.lists(_IDENT.filter(lambda s: s not in (TAU, "eps")), max_size=6, unique=True))
    if not names:
        return BpaSystem([], [])
    ids = st.integers(0, len(names) - 1)
    labels = st.one_of(st.just(TAU), _IDENT)
    rule = st.builds(Rule, ids, labels, st.lists(ids, max_size=3).map(tuple))
    return BpaSystem(names, draw(st.lists(rule, max_size=12)))


@given(systems())
def test_serialize_round_trip_property(sys):
    assert parse_system(serialize_system(sys)) == sys


def test_parse_process(ex1_sys):
    assert parse_process("eps", ex1_sys) == ()
    x, y = ex1_sys.constant_id("X"), ex1_sys.constant_id("Y")
    assert parse_process("X Y", ex1_sys) == (x, y)
    with pytest.raises(ParseError, match="unknown constant 'Q'"):
        parse_process("X Q", ex1_sys)
    with pytest.raises(ParseError):
        parse_process("", ex1_sys)


def test_format_process(ex1_sys):
    assert format_process(ex1_sys, ()) == "eps"
    assert format_process(ex1_sys, parse_process("X Y'", ex1_sys)) == "X Y'"


def test_empty_process_has_no_transitions(ex1_sys):
    assert transitions_of(ex1_sys, ()) == []


def test_transitions_example_one(ex1_sys):
    # X's three rules fire in rule order, each dragging the Y suffix along.
    p = parse_process("X Y", ex1_sys)
    y = parse_process("Y", ex1_sys)
    xp_y = parse_process("X' Y", ex1_sys)
    assert transitions_of(ex1_sys, p) == [("b", y), ("tau", xp_y), ("a", y)]


def test_transitions_sysb(sysb_sys):
    p = parse_process("B Y", sysb_sys)
    assert transitions_of(sysb_sys, p) == [("a", parse_process("Y", sysb_sys))]


def test_head_locality_property():
    rng = random.Random(7)
    for seed in range(10):
        sys = random_system(GenParams(constants=6, seed=seed))
        for _ in range(20):
            head = rng.randrange(sys.n)
            gamma = tuple(rng.randrange(sys.n) for _ in range(rng.randint(0, 4)))
            lifted = [(label, rhs + gamma) for label, rhs in transitions_of(sys, (head,))]
            assert transitions_of(sys, (head,) + gamma) == lifted


def test_epsilon_identity():
    sys = parse_system(SYSB_TEXT)
    p = parse_process("X Y", sys)
    assert transitions_of(sys, p + ()) == transitions_of(sys, p)
    assert () + p == p
