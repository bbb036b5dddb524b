"""Normed strings: constant sequences with O(log n) norm-boundary splitting.

Decomposition bases store their equations as normed strings, and candidate
decompositions are handed around as normed strings.  The representation is an
exact sequence with a cached prefix sum of norms; splitting binary-searches
the prefix sums.  Inside a refinement pass the engine compares plain id tuples
instead (`engine.lpftest`) and cuts candidate tails from its own prefix sums.
Exact sequences can be exponentially long in the number of constants: at
n = 16 the initial base of the norm-doubling chain stores 2^16 - 1 ids for its
top constant.  A compressed representation (ROADMAP item 5) would replace both.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from typing import Callable, Iterator

from .model import Process


class NormedString:
    """An immutable sequence of constant ids over a fixed norm table.

    Norm boundaries are unique because every constant has norm at least one,
    so the prefix sums are strictly increasing.
    """

    __slots__ = ("ids", "norms", "_prefix")

    def __init__(self, ids: Process, norms: tuple[int, ...]):
        self.ids = tuple(ids)
        self.norms = norms
        # _prefix[k] is the norm of the first k constants; strictly increasing.
        self._prefix = (0, *accumulate(norms[c] for c in self.ids))

    @property
    def norm(self) -> int:
        return self._prefix[-1]

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[int]:
        return iter(self.ids)

    def __bool__(self) -> bool:
        return bool(self.ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NormedString):
            return NotImplemented
        if self.norm != other.norm:
            return False
        return self.ids == other.ids and self.norms == other.norms

    def __hash__(self) -> int:
        return hash(self.ids)

    def __repr__(self) -> str:
        return f"NormedString({self.ids!r}, norm={self.norm})"

    def concat(self, other: "NormedString") -> "NormedString":
        if self.norms is not other.norms and self.norms != other.norms:
            raise ValueError("cannot concatenate strings over different norm tables")
        return NormedString(self.ids + other.ids, self.norms)

    def split_at_norm(self, h: int) -> tuple["NormedString", "NormedString"] | None:
        """Split into (prefix, suffix) with norm(suffix) == h.

        Returns None when no constant boundary falls exactly at that norm;
        raises ValueError when h is outside [0, norm].
        """
        if not 0 <= h <= self.norm:
            raise ValueError(f"suffix norm {h} out of range [0, {self.norm}]")
        target = self.norm - h
        j = bisect_left(self._prefix, target)
        if self._prefix[j] != target:
            return None
        return NormedString(self.ids[:j], self.norms), NormedString(self.ids[j:], self.norms)

    def to_text(self, name_of: Callable[[int], str]) -> str:
        return " ".join(name_of(c) for c in self.ids) if self.ids else "eps"

