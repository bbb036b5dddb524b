import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ONE_CONSTANT, base_as_names, partial_pass, reference_dcmp
from tnbpa.base import (
    DecompositionBase,
    InvalidBaseError,
    base_to_json,
    initial_base,
    render_base,
)
from tnbpa.engine import (
    CandidateMode,
    EngineInternalError,
    compute_bisimilarity_base,
)
from tnbpa.model import parse_system
from tnbpa.normalization import standardize
from tnbpa.oracle import GenParams, random_system


def test_initial_base_example_one(ex1_std):
    primes, equations = base_as_names(ex1_std, initial_base(ex1_std))
    assert primes == {"X'"}
    assert equations == {"Y'": ("X'",), "X": ("X'",), "Y": ("X'",)}


def test_initial_base_sysb(sysb_std):
    primes, equations = base_as_names(sysb_std, initial_base(sysb_std))
    assert primes == {"B"}
    assert equations == {"Y": ("B",), "A": ("B",), "X": ("B", "B")}


def test_initial_base_single_constant():
    std = standardize(parse_system(ONE_CONSTANT))
    base = initial_base(std)
    assert base.primes == {0} and base.equations == {}


def test_dcmp_examples(sysb_std):
    base = initial_base(sysb_std)
    assert base.dcmp(()) == ()
    xy = sysb_std.parse_process("X Y")
    assert [sysb_std.sys.name(c) for c in base.dcmp(xy)] == ["B", "B", "B"]
    assert base.dcmp((0,)) == (0,)  # prime maps to itself


def test_initial_equivalence_is_norm_equality(sysb_std):
    base = initial_base(sysb_std)
    rng = random.Random(11)
    for _ in range(200):
        p = tuple(rng.randrange(sysb_std.n) for _ in range(rng.randint(0, 4)))
        q = tuple(rng.randrange(sysb_std.n) for _ in range(rng.randint(0, 4)))
        assert base.equivalent(p, q) == (sysb_std.norm_of(p) == sysb_std.norm_of(q))


def test_equivalent_reflexive(ex1_std):
    base = initial_base(ex1_std)
    rng = random.Random(12)
    for _ in range(50):
        p = tuple(rng.randrange(ex1_std.n) for _ in range(rng.randint(0, 4)))
        assert base.equivalent(p, p)


def test_lpf(sysb_std):
    init = initial_base(sysb_std)
    assert init.lpf(0) == 0  # prime is its own factor
    for i in range(1, sysb_std.n):
        assert init.lpf(i) == 0
    final, _ = compute_bisimilarity_base(sysb_std)
    x = sysb_std.sys.ids["X"]
    assert sysb_std.sys.name(final.lpf(x)) == "B"


def test_base_equality(ex1_std):
    b1 = initial_base(ex1_std)
    b2 = initial_base(ex1_std)
    assert b1 == b2
    changed = DecompositionBase(
        ex1_std.n,
        b1.primes | {1},
        {i: rhs.ids for i, rhs in b1.equations.items() if i != 1},
        ex1_std.norms,
    )
    assert b1 != changed
    assert b1.__eq__(b1.primes) is NotImplemented and b1 != b1.primes


def test_validation_rejects_malformed_bases(ex1_std):
    norms = ex1_std.norms
    one = (0,)
    with pytest.raises(InvalidBaseError, match="both prime and composite"):
        DecompositionBase(4, [0, 1], {1: one, 2: one, 3: one}, norms)
    with pytest.raises(InvalidBaseError, match="every constant"):
        DecompositionBase(4, [0], {1: one, 2: one}, norms)
    with pytest.raises(InvalidBaseError, match="always prime"):
        DecompositionBase(4, [1], {0: one, 2: one, 3: one}, norms)
    with pytest.raises(InvalidBaseError, match="norm-preserving"):
        DecompositionBase(4, [0], {1: (0, 0), 2: one, 3: one}, norms)
    with pytest.raises(InvalidBaseError, match="non-prime"):
        DecompositionBase(4, [0], {1: one, 2: (1,), 3: one}, norms)
    with pytest.raises(InvalidBaseError, match=">="):
        DecompositionBase(
            4, [0, 3], {1: (3,), 2: one}, norms
        )


def test_validation_names_the_first_offender_of_a_long_word():
    # Two offenders near the end of a 4,096-id word, the later one smaller,
    # so a check over distinct or sorted ids would name the other one.
    norms = (1, 1, 1, 1, 1, 4096)
    word = (0,) * 4090 + (4, 1, 1, 2, 1, 1)
    with pytest.raises(InvalidBaseError) as exc:
        DecompositionBase(6, [0, 1, 3], {2: (0,), 4: (1,), 5: word}, norms)
    assert str(exc.value) == "equation for constant 5 mentions non-prime 4"

    norms = (1, 1, 4096, 1, 1)
    word = (0,) * 4090 + (4, 1, 1, 3, 1, 1)
    with pytest.raises(InvalidBaseError) as exc:
        DecompositionBase(5, [0, 1, 3, 4], {2: word}, norms)
    assert str(exc.value) == "equation for constant 2 mentions index 4 >= 2"


def _dcmp_outcome(dcmp, base, p):
    try:
        return dcmp(base, p)
    except EngineInternalError as exc:
        return f"raised: {exc}"


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), constants=st.integers(1, 10), data=st.data())
def test_dcmp_matches_the_per_constant_loop(seed, constants, data):
    # Over a final base and over a pass's partial base with only a prefix of
    # the constants settled: prime strings come back whole, and a word with
    # an unsettled constant names the same constant as the loop does.
    std = standardize(random_system(GenParams(constants=constants, seed=seed)))
    final, _ = compute_bisimilarity_base(std)
    mode = data.draw(st.sampled_from(CandidateMode))
    settled = range(data.draw(st.integers(0, std.n)))
    primes = [j for j in settled if j in final.primes]
    equations = {j: final.equations[j].ids for j in settled if j not in final.primes}
    partial = partial_pass(std, initial_base(std), primes, equations, mode)
    for base in (final, partial):
        words = st.lists(st.integers(0, std.n - 1), max_size=12)
        if base.primes:
            words |= st.lists(st.sampled_from(sorted(base.primes)), max_size=80)
        for p in data.draw(st.lists(words.map(tuple), min_size=1, max_size=6)):
            assert _dcmp_outcome(DecompositionBase.dcmp, base, p) == \
                _dcmp_outcome(reference_dcmp, base, p)


def test_dcmp_idempotent_and_congruent():
    rng = random.Random(13)
    for seed in range(8):
        std = standardize(random_system(GenParams(constants=6, seed=seed)))
        base, _ = compute_bisimilarity_base(std)
        for _ in range(25):
            p = tuple(rng.randrange(std.n) for _ in range(rng.randint(0, 4)))
            d = base.dcmp(p)
            assert base.dcmp(d) == d
            q = tuple(rng.randrange(std.n) for _ in range(rng.randint(0, 4)))
            g = tuple(rng.randrange(std.n) for _ in range(rng.randint(0, 3)))
            if base.equivalent(p, q):
                assert base.equivalent(g + p, g + q)
                assert base.equivalent(p + g, q + g)
                assert std.norm_of(p) == std.norm_of(q)


def test_structural_form_of_prime_rules():
    # No decreasing step of a prime decomposes back onto the prime; its
    # decomposition stays strictly below the prime's index.
    for seed in range(10):
        std = standardize(random_system(GenParams(constants=7, silent_prob=0.4, seed=seed)))
        base, _ = compute_bisimilarity_base(std)
        for i in sorted(base.primes):
            for r in std.dec[i]:
                d = base.dcmp(r.rhs)
                assert d != (i,)
                assert all(c < i for c in d)


def test_render_base(ex1_std):
    base, _ = compute_bisimilarity_base(ex1_std)
    assert render_base(ex1_std, base).splitlines() == [
        "prime X'",
        "Y' = X'",
        "prime X",
        "prime Y",
    ]


def test_base_to_json(sysb_std):
    base, _ = compute_bisimilarity_base(sysb_std)
    assert base_to_json(sysb_std, base) == {
        "primes": ["B", "Y"],
        "equations": {"A": ["B"], "X": ["B", "Y"]},
    }
