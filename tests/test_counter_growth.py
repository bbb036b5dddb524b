"""A growth gate on deterministic counters, one row per family and counter.

Time gates cannot resolve a 10% change on a shared host; counters read the
same on every run and under every hash seed.  Per doubling of n, each
counter may grow at most x2.5, where quadratic growth reads x4:

- moves: the move-table entries a run computes (misses in
  `_PartialBase.moves`);
- outcomes: the `ConstantOutcome`s its trace keeps;
- stored: the word entries that all of its bases store, the initial base
  and every pass's base.

Rows that fail on the code today are strict expected failures, each naming
the ROADMAP item that mends it.  The ladder's stored entries are not gated:
each of its n/2 pass bases stores n entries, and a run needs them all.
"""

import functools

import pytest

from conftest import chain_text
from tnbpa import engine
from tnbpa.model import parse_system
from tnbpa.normalization import standardize

GROWTH = 2.5

SIZES = {
    "doubling": (16, 32, 64, 128),
    "clone": (16, 32, 64, 128),
    "composite-root": (6, 12),
    "ladder": (32, 64, 128, 256),
}


def _known_failure(reason: str):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)


KNOWN_FAILURES = {
    ("composite-root", "stored"):
        _known_failure("ROADMAP item 5: Wi's run-form word holds 2^(i+1) runs"),
    ("ladder", "moves"):
        _known_failure("ROADMAP item 12: every pass recomputes every constant's moves"),
    ("ladder", "outcomes"):
        _known_failure("ROADMAP item 17: every pass records every constant not yet prime"),
}

ROWS = [
    pytest.param(
        family, counter, marks=KNOWN_FAILURES.get((family, counter), ()), id=f"{family}-{counter}"
    )
    for family in SIZES
    for counter in ("moves", "outcomes", "stored")
    if (family, counter) != ("ladder", "stored")
]


@functools.cache
def _counters(family: str) -> list[dict[str, int]]:
    """The three counters of a run at each of the family's sizes."""
    original = engine._PartialBase.moves
    computed = 0

    def counting(self, j):
        nonlocal computed
        computed += j not in self._moves
        return original(self, j)

    rows = []
    engine._PartialBase.moves = counting
    try:
        for n in SIZES[family]:
            std = standardize(parse_system(chain_text(family, n)))
            computed = 0
            _, trace = engine.compute_bisimilarity_base(std)
            bases = engine.pass_bases(std, trace)
            rows.append({
                "moves": computed,
                "outcomes": sum(len(rec.constants) for rec in trace),
                "stored": sum(len(w) for b in bases for w in b._factors.values()),
            })
    finally:
        engine._PartialBase.moves = original
    return rows


@pytest.mark.parametrize("family, counter", ROWS)
def test_counters_per_doubling_of_n(family, counter):
    values = [row[counter] for row in _counters(family)]
    for small, large in zip(values, values[1:]):
        assert large <= GROWTH * small, (family, counter, SIZES[family], values)
