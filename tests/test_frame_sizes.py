"""Frame sizes of the game oracle's recursion chain and of a differential trial.

Under CPython 3.11 the oracle's times depend on the sizes of the frames its
recursion runs through, not only on the work done: CHANGES.md's FOUND lines
on frame sizes record two slots more in `_has_reply` costing up to 14% on the
benchmark's `oracle-differential` workload, and `tests/stack_sweep.py` shows
the decision and the corpus moving with the stack depth alone.  A change to
one of these frames is then a change to the benchmark, so it must be made on
purpose: this test pins, for each function and every code object nested in
it, `(co_nlocals, len(co_cellvars), len(co_freevars), co_stacksize)`.  Other
versions lay frames out differently, so it runs on CPython 3.11 only.
"""

import inspect
import sys

import pytest

from tnbpa import oracle

pytestmark = pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="frame sizes are pinned for CPython 3.11",
)

G = oracle.GameContext

# function -> {qualified name: (locals, cells, free variables, stack size)}
# for the function's code and each code object nested in it.
FRAMES = {
    G.related: {
        "GameContext.related": (11, 2, 0, 6),
        "GameContext.related.<locals>.<lambda>": (2, 0, 2, 6),
    },
    G.expansion_holds: {
        "GameContext.expansion_holds": (4, 1, 0, 5),
        "GameContext.expansion_holds.<locals>.<lambda>": (2, 0, 1, 4),
    },
    G._unanswered: {"GameContext._unanswered": (6, 0, 0, 8)},
    G._has_reply: {"GameContext._has_reply": (9, 0, 0, 6)},
    G._refute: {
        "GameContext._refute": (36, 2, 0, 10),
        "GameContext._refute.<locals>.<lambda>": (2, 0, 2, 5),
    },
    G.find_distinction: {"GameContext.find_distinction": (5, 0, 0, 10)},
    G.refutation_level: {"GameContext.refutation_level": (5, 0, 0, 5)},
    G.closure: {
        "GameContext.closure": (3, 1, 0, 6),
        "GameContext.closure.<locals>.<listcomp>": (2, 0, 1, 4),
    },
    oracle.silent_closure_dec: {
        "silent_closure_dec": (6, 1, 0, 9),
        "silent_closure_dec.<locals>.<listcomp>": (2, 0, 1, 6),
    },
    oracle.replay_distinction: {"replay_distinction": (2, 0, 0, 8)},
    oracle._replay_node: {
        "_replay_node": (20, 0, 0, 8),
        "_replay_node.<locals>.<listcomp>": (2, 0, 0, 5),
    },
    oracle.differential_trial: {
        "differential_trial": (25, 2, 0, 14),
        "differential_trial.<locals>.try_certificate": (4, 0, 2, 7),
    },
}


def _frames(code):
    """Name and frame size of `code` and of every code object nested in it."""
    yield code.co_qualname, (
        code.co_nlocals,
        len(code.co_cellvars),
        len(code.co_freevars),
        code.co_stacksize,
    )
    for const in code.co_consts:
        if inspect.iscode(const):
            yield from _frames(const)


@pytest.mark.parametrize("function", list(FRAMES), ids=lambda f: f.__qualname__)
def test_oracle_frame_sizes_are_unchanged(function):
    assert dict(_frames(function.__code__)) == FRAMES[function]
