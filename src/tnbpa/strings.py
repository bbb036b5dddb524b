"""Normed strings: the equations a decomposition base stores.

Every word the engine handles (a candidate, any `dcmp` result) is a plain
tuple of constant ids.  A base wraps each equation's right-hand side in a
`NormedString`, which adds the norm table and the total norm, computed once,
so the base can check that the equation is norm-preserving.  Exact sequences
can be exponentially long in the number of constants: at n = 16 the initial
base of the norm-doubling chain stores 2^16 - 1 ids for its top constant.  So
the norm is summed in C, not one interpreter step per id; a single run such
as ``X_0^k``, the form of every initial-base equation, is one multiplication.
The memory stays exponential: a compressed representation (ROADMAP item 5)
would replace the tuples.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from operator import itemgetter

from .model import Process


class NormedString:
    """An immutable sequence of constant ids over a fixed norm table."""

    __slots__ = ("ids", "norms", "norm")

    def __init__(self, ids: Process, norms: tuple[int, ...]):
        self.ids = ids = tuple(ids)
        self.norms = norms
        if not ids:
            self.norm = 0
        elif ids.count(ids[0]) == len(ids):  # a single run, like X_0^k
            self.norm = norms[ids[0]] * len(ids)
        else:
            self.norm = sum(itemgetter(*ids)(norms))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NormedString):
            return NotImplemented
        if self.norm != other.norm:
            return False
        # A base's equations share one table: comparing it is O(n) per call.
        return self.ids == other.ids and (self.norms is other.norms or self.norms == other.norms)

    def __repr__(self) -> str:
        return f"NormedString({self.ids!r}, norm={self.norm})"

    def split_at_norm(self, h: int) -> tuple["NormedString", "NormedString"] | None:
        """Split into (prefix, suffix) with norm(suffix) == h.

        Returns None when no constant boundary falls exactly at that norm;
        raises ValueError when h is outside [0, norm].  Every constant has norm
        at least one, so the prefix sums are strictly increasing and the
        boundary, if any, is unique.
        """
        if not 0 <= h <= self.norm:
            raise ValueError(f"suffix norm {h} out of range [0, {self.norm}]")
        target = self.norm - h
        prefix = list(accumulate((self.norms[c] for c in self.ids), initial=0))
        j = bisect_left(prefix, target)
        if prefix[j] != target:
            return None
        return NormedString(self.ids[:j], self.norms), NormedString(self.ids[j:], self.norms)
