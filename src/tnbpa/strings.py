"""Words, and the normed strings a decomposition base stores.

A word is a sequence of constant ids.  Every word the engine handles (a
candidate, a `dcmp` result, a move's target, a base equation) has one
canonical form, so that tuple equality and hashing are word equality:

- a word narrower than `LONG` ids is its plain id tuple;
- a wider word is ``(-1, c1, k1, c2, k2, ...)``: the marker -1, then its
  maximal runs, id ``c_r`` repeated ``k_r`` times.

Words on the norm-doubling chains are exponentially wide in the number of
constants (the initial base stores ``X_0^(2^n - 1)`` for the top constant),
but they are single runs, so run form stores each in three entries and no
operation here ever expands one.  Only `expand` does, for rendering, and it
raises `GuardExceeded` on a word wider than `EXPAND_LIMIT` ids.  A word that
is no product of few runs, such as ``(X_0 X_1)^k``, stays as large as its run
count; straight-line programs would compress it too (ROADMAP item 5).

Only this module knows the form: the base and the engine use its operations
and test no word's form (`dcmp` only compares a prime string's length with
`LONG`), so another encoding is a change here alone.  A wide word holds an
entry that is no id.  Short words stay plain, so that the usual work stays
tuple operations in C.  Any plain id tuple is accepted; results are canonical.
"""

from __future__ import annotations

from itertools import chain, groupby, repeat
from operator import mul

from .model import Process
from .normalization import GuardExceeded

# Width from which a word is stored as its runs.
LONG = 64
# The widest word `expand` builds, and the most runs a repeated factor may
# make.  Read at call time, so a test can lower it.
EXPAND_LIMIT = 1 << 24

_RUNS = -1


def runs(w: Process) -> list[int]:
    """The maximal runs of w, flat: [c1, k1, c2, k2, ...]."""
    if w and w[0] < 0:
        return list(w[1:])
    out: list[int] = []
    for c, run in groupby(w):
        out += (c, len(list(run)))
    return out


def _from_runs(flat: list[int]) -> Process:
    """The canonical word of the maximal runs `flat`."""
    counts = flat[1::2]
    if sum(counts) >= LONG:
        return (_RUNS, *flat)
    return tuple(chain.from_iterable(map(repeat, flat[::2], counts)))


def _push(flat: list[int], c: int, k: int) -> None:
    """Append c^k to the runs `flat`, merging with a last run of c."""
    if flat and flat[-2] == c:
        flat[-1] += k
    else:
        flat += (c, k)


def canonical(ids) -> Process:
    """The canonical form of an id sequence or of a word."""
    ids = tuple(ids)
    if len(ids) < LONG or ids[0] < 0:
        return ids
    return (_RUNS, *runs(ids))


def power(c: int, k: int) -> Process:
    """The word c^k."""
    return (c,) * k if k < LONG else (_RUNS, c, k)


def width(w: Process) -> int:
    """The number of ids in w."""
    return sum(w[2::2]) if w and w[0] < 0 else len(w)


def head(w: Process) -> int:
    """The first id of a non-empty word."""
    return w[1] if w[0] < 0 else w[0]


def ids_in(w: Process) -> Process:
    """The ids that occur in w, each at least once."""
    return w[1::2] if w and w[0] < 0 else w


def join(a: Process, b: Process) -> Process:
    """The word a . b."""
    w = a + b
    if len(w) < LONG and _RUNS not in w:
        return w
    flat, tail = runs(a), runs(b)
    if tail:
        _push(flat, tail[0], tail[1])
        flat += tail[2:]
    return _from_runs(flat)


def drop(w: Process, m: int) -> Process | None:
    """w without its first m ids; None when w has fewer than m."""
    if not w or w[0] >= 0:
        return w[m:] if m <= len(w) else None
    flat = w[1:]
    at = 0
    while at < len(flat) and m >= flat[at + 1]:
        m -= flat[at + 1]
        at += 2
    if at == len(flat):
        return () if m == 0 else None
    rest = list(flat[at:])
    rest[1] -= m
    return _from_runs(rest)


def strip(w: Process, tail: Process) -> Process | None:
    """w without its suffix tail, or None when w does not end with it."""
    if w and w[0] < 0:
        return _strip_runs(w, tail)
    cut = len(w) - len(tail)
    return w[:cut] if cut >= 0 and w[cut:] == tail else None


def _strip_runs(w: Process, tail: Process) -> Process | None:
    # Every run of tail but its first is one of w's last runs; the first may
    # be the end of a longer run of w.
    flat, cut = w[1:], runs(tail)
    if not cut:
        return w
    at = len(flat) - len(cut)
    if at < 0 or flat[at] != cut[0] or flat[at + 1] < cut[1] or flat[at + 2:] != tuple(cut[2:]):
        return None
    rest = list(flat[:at])
    if flat[at + 1] > cut[1]:
        rest += (cut[0], flat[at + 1] - cut[1])
    return _from_runs(rest)


def suffix_of_norm(w: Process, h: int, norms: tuple[int, ...]) -> Process | None:
    """The suffix of w of norm h, or None when no id boundary has that norm.

    Every id has norm at least one, so the boundary, if any, is unique.
    """
    if h <= 0:
        return () if h == 0 else None
    if not w or w[0] >= 0:
        at = len(w)
        while h > 0 and at:
            at -= 1
            h -= norms[w[at]]
        return w[at:] if h == 0 else None
    flat = w[1:]
    at = len(flat)
    while at:
        at -= 2
        c = flat[at]
        k = flat[at + 1]
        if norms[c] * k >= h:
            q, r = divmod(h, norms[c])
            return None if r else _from_runs([c, q, *flat[at + 2:]])
        h -= norms[c] * k
    return None


def substitute(p: Process, factors) -> Process:
    """p with every id c replaced by the non-empty word factors[c].

    The one substitution routine, behind `DecompositionBase.dcmp`.  Plain
    words concatenate as tuples; otherwise a single-run factor repeated k
    times is one run, and any other is copied run by run after a guard on
    the run count.  The first missing factor in word order raises KeyError.
    """
    if not p or p[0] >= 0:
        out: list[int] = []
        for c in p:
            f = factors[c]
            if f[0] < 0:
                break
            out += f
        else:
            return tuple(out) if len(out) < LONG else canonical(out)
    flat: list[int] = []
    pr = runs(p)
    for at in range(0, len(pr), 2):
        k = pr[at + 1]
        f = runs(factors[pr[at]])
        if len(f) == 2:
            _push(flat, f[0], f[1] * k)
            continue
        total = len(flat) // 2 + len(f) // 2 * k
        if total > EXPAND_LIMIT:
            raise GuardExceeded(f"a word of {total} runs exceeds the limit of {EXPAND_LIMIT}")
        for _ in range(k):
            _push(flat, f[0], f[1])
            flat += f[2:]
    return _from_runs(flat)


def expand(w: Process) -> Process:
    """w as a plain id tuple; `GuardExceeded` when wider than `EXPAND_LIMIT`."""
    if not w or w[0] >= 0:
        return w
    n = width(w)
    if n > EXPAND_LIMIT:
        raise GuardExceeded(f"a word of {n} ids is wider than the limit of {EXPAND_LIMIT}")
    return tuple(chain.from_iterable(map(repeat, w[1::2], w[2::2])))


def order_key(w: Process) -> list[tuple[int, int, int]]:
    """A sort key under which words order as their id tuples.

    Two words part at their first differing run.  With the same id there,
    the shorter run is smaller exactly when the id after it is smaller (or
    the word ends), so a run followed by a larger id keys on minus its count.
    """
    flat = runs(w)
    key = []
    for at in range(0, len(flat), 2):
        c, k = flat[at], flat[at + 1]
        if at + 2 < len(flat) and flat[at + 2] > c:
            key.append((c, 1, -k))
        else:
            key.append((c, 0, k))
    return key


class NormedString:
    """An immutable word over a fixed norm table, with its norm.

    `word` is the canonical form; `ids` expands it.
    """

    __slots__ = ("word", "norms", "norm")

    def __init__(self, ids, norms: tuple[int, ...]):
        self.word = w = canonical(ids)
        self.norms = norms
        if w and w[0] < 0:
            self.norm = sum(map(mul, map(norms.__getitem__, w[1::2]), w[2::2]))
        else:
            self.norm = sum(map(norms.__getitem__, w))

    @property
    def ids(self) -> Process:
        return expand(self.word)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NormedString):
            return NotImplemented
        if self.norm != other.norm:
            return False
        # A base's equations share one table: comparing it is O(n) per call.
        return self.word == other.word and (self.norms is other.norms or self.norms == other.norms)

    def split_at_norm(self, h: int) -> tuple["NormedString", "NormedString"] | None:
        """Split into (prefix, suffix) with norm(suffix) == h.

        Returns None when no constant boundary falls exactly at that norm;
        raises ValueError when h is outside [0, norm].
        """
        if not 0 <= h <= self.norm:
            raise ValueError(f"suffix norm {h} out of range [0, {self.norm}]")
        suffix = suffix_of_norm(self.word, h, self.norms)
        if suffix is None:
            return None
        return NormedString(strip(self.word, suffix), self.norms), NormedString(suffix, self.norms)
