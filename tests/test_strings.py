import random
from itertools import accumulate

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tnbpa.strings import NormedString

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
