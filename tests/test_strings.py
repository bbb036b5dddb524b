import random
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_dcmp
from tnbpa import strings
from tnbpa.base import DecompositionBase
from tnbpa.normalization import GuardExceeded
from tnbpa.strings import (
    LONG,
    NormedString,
    canonical,
    drop,
    expand,
    head,
    join,
    order_key,
    strip,
    suffix_of_norm,
    width,
)

NORMS = (1, 2, 3)


def ns(*ids):
    return NormedString(tuple(ids), NORMS)


def test_split_unit_norms():
    s = ns(0, 0, 0)
    assert s.split_at_norm(2) == (ns(0), ns(0, 0))


def test_split_no_boundary():
    assert ns(1).split_at_norm(1) is None  # constant of norm 2, no interior cut


def test_split_extremes():
    s = ns(0, 1)
    assert s.split_at_norm(0) == (s, ns())
    assert s.split_at_norm(s.norm) == (ns(), s)


def test_split_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        ns(0).split_at_norm(2)
    with pytest.raises(ValueError):
        ns(0).split_at_norm(-1)


def test_split_concat_inverse():
    rng = random.Random(1)
    for _ in range(200):
        s = ns(*(rng.randrange(len(NORMS)) for _ in range(rng.randint(0, 6))))
        h = rng.randint(0, s.norm)
        split = s.split_at_norm(h)
        if split is None:
            # no constant boundary lands exactly on norm(s) - h
            assert (s.norm - h) not in accumulate((NORMS[c] for c in s.ids), initial=0)
        else:
            prefix, suffix = split
            assert prefix.ids + suffix.ids == s.ids
            assert suffix.norm == h
            assert prefix.norm + suffix.norm == s.norm


def test_equality_oracle():
    rng = random.Random(2)
    for _ in range(200):
        a = tuple(rng.randrange(len(NORMS)) for _ in range(rng.randint(0, 4)))
        b = tuple(rng.randrange(len(NORMS)) for _ in range(rng.randint(0, 4)))
        assert (ns(*a) == ns(*b)) == (a == b)


def test_unequal_norm_fast_path():
    assert ns(0) != ns(1)
    assert ns(0, 1).__eq__((0, 1)) is NotImplemented and ns(0, 1) != (0, 1)


def test_norm_and_length():
    assert ns().norm == 0
    assert ns().ids == ()
    assert ns(2).norm == NORMS[2]
    rng = random.Random(3)
    for _ in range(50):
        ids = tuple(rng.randrange(len(NORMS)) for _ in range(rng.randint(0, 6)))
        s = NormedString(ids, NORMS)
        assert s.norm == sum(NORMS[c] for c in ids)
        assert s.ids == ids


@given(norms=st.lists(st.integers(1, 1 << 40), min_size=1, max_size=6).map(tuple), data=st.data())
def test_norm_is_the_sum_over_the_ids(norms, data):
    # Empty, single, single-run and mixed words take different paths.
    c = st.integers(0, len(norms) - 1)
    words = (
        st.just(())
        | c.map(lambda x: (x,))
        | st.tuples(c, st.integers(2, 5000)).map(lambda t: (t[0],) * t[1])
        | st.lists(c, min_size=2, max_size=60).map(tuple)
    )
    ids = data.draw(words)
    s = NormedString(ids, norms)
    assert s.norm == sum(norms[c] for c in ids)
    assert NormedString(list(ids), norms) == s


class CountingNorms(tuple):
    """A norm table that counts the comparisons made against it."""

    calls = 0

    def __eq__(self, other):
        CountingNorms.calls += 1
        return tuple.__eq__(self, other)

    __hash__ = tuple.__hash__


def test_shared_norm_table_is_not_compared(monkeypatch):
    # A base's equations share the system's norm table, and comparing two
    # bases compares every equation: comparing the table each time is O(n)
    # per equation.
    monkeypatch.setattr(CountingNorms, "calls", 0)
    norms = CountingNorms(NORMS)
    assert NormedString((0, 1), norms) == NormedString((0, 1), norms)
    assert CountingNorms.calls == 0
    # Distinct but equal tables still make equal strings.
    assert NormedString((0, 1), norms) == NormedString((0, 1), CountingNorms(NORMS))
    assert NormedString((0, 1), norms) != NormedString((0, 1), (1, 2, 3, 4))


# Runs whose lengths straddle the width at which words switch to run form.
_RUN_LENGTHS = st.sampled_from([1, 2, 3, LONG - 2, LONG - 1, LONG, LONG + 1, 3 * LONG]) | st.integers(1, 2 * LONG)


def _plain_words(ids: int = 3):
    runs = st.lists(st.tuples(st.integers(0, ids - 1), _RUN_LENGTHS), max_size=5)
    return runs.map(lambda rs: tuple(c for c, k in rs for _ in range(k)))


@settings(max_examples=300, deadline=None)
@given(a=_plain_words(), b=_plain_words(), m=st.integers(0, 4 * LONG), h=st.integers(-1, 12 * LONG))
def test_word_operations_match_plain_tuples(a, b, m, h):
    # Every operation on canonical words against the same operation on the
    # plain id tuples they stand for.
    norms = (1, 2, 3)
    ca, cb, cab = canonical(a), canonical(b), canonical(a + b)
    for plain, word in ((a, ca), (b, cb), (a + b, cab)):
        assert (word[:1] == (-1,)) == (len(plain) >= LONG)
        assert expand(word) == plain and width(word) == len(plain)
        assert canonical(word) == word
    assert (ca == cb) == (a == b)
    if a == b:
        assert hash(ca) == hash(cb)
    assert join(ca, cb) == cab
    assert strip(cab, cb) == ca
    assert strip(ca, cb) == (canonical(a[: len(a) - len(b)]) if a[len(a) - len(b):] == b else None)
    assert drop(ca, m) == (canonical(a[m:]) if m <= len(a) else None)
    if a:
        assert head(ca) == a[0]
    suffix = next((a[at:] for at in range(len(a) + 1) if sum(norms[c] for c in a[at:]) == h), None)
    assert suffix_of_norm(ca, h, norms) == (None if suffix is None else canonical(suffix))
    assert NormedString(a, norms) == NormedString(ca, norms)
    assert NormedString(ca, norms).norm == sum(norms[c] for c in a)


@settings(max_examples=100, deadline=None)
@given(words=st.lists(_plain_words(), max_size=8))
def test_order_key_sorts_words_as_their_ids(words):
    assert sorted(words) == [expand(w) for w in sorted(map(canonical, words), key=order_key)]


@settings(max_examples=100, deadline=None)
@given(factors=st.lists(_plain_words(2).filter(bool), min_size=2, max_size=2), p=_plain_words(4))
def test_dcmp_of_wide_words_matches_the_expanded_loop(factors, p):
    # Primes 0 and 1, composites 2 and 3 over them; p mixes all four, and
    # both p and the factors may be plain or runs.
    norms = (1, 2, *(sum((1, 2)[c] for c in f) for f in factors))
    base = DecompositionBase(4, [0, 1], {2: factors[0], 3: factors[1]}, norms)
    want = canonical(tuple(c for c in p for c in ((c,) if c < 2 else factors[c - 2])))
    assert base.dcmp(p) == base.dcmp(canonical(p)) == reference_dcmp(base, p) == want
    assert base.equivalent(p, expand(want))


def test_repeating_a_word_of_many_runs_trips_the_guard_first():
    # (X0 X1)^(2^40) has 2^41 runs: run form cannot compress it.
    base = DecompositionBase(3, [0, 1], {2: (0, 1)}, (1, 1, 2))
    assert base.dcmp((-1, 2, LONG)) == (-1, *(0, 1, 1, 1) * LONG)
    with pytest.raises(GuardExceeded, match="runs exceeds the limit"):
        base.dcmp((-1, 2, 1 << 40))
    assert base.dcmp((-1, 0, 1 << 40)) == (-1, 0, 1 << 40)


def test_expansion_guard_is_read_at_call_time(monkeypatch):
    wide = NormedString((-1, 0, 100), NORMS)
    assert wide.ids == (0,) * 100 and wide.norm == 100
    monkeypatch.setattr(strings, "EXPAND_LIMIT", 99)
    with pytest.raises(GuardExceeded, match="a word of 100 ids"):
        wide.ids
    assert NormedString((-1, 0, 1 << 80), NORMS).norm == 1 << 80
