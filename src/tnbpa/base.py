"""Decomposition bases: prime sets plus norm-preserving equations.

A base splits the constants into primes and composites and equips every
composite ``X_i`` with an equation ``X_i = alpha`` over strictly smaller
primes.  The congruence it generates relates two processes exactly when their
prime decompositions coincide, so equivalence checking reduces to string
equality after the homomorphic ``dcmp`` map.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .model import Process, format_process
from .normalization import EngineInternalError, StandardSystem
from .strings import NormedString


class InvalidBaseError(ValueError):
    pass


class DecompositionBase:
    """An immutable base (primes, equations) over a standard system.

    Equations come in as id tuples and are kept as `NormedString`s.  `dcmp`
    reads one factor per constant: ``(c,)`` for a prime, and for a composite
    its right-hand side, which is stored in prime form already.
    """

    __slots__ = ("n", "primes", "equations", "norms", "_memo", "_factors")

    def __init__(
        self,
        n: int,
        primes: Iterable[int],
        equations: Mapping[int, Process],
        norms: tuple[int, ...],
    ):
        self.n = n
        self.primes = frozenset(primes)
        self.equations = {i: NormedString(ids, norms) for i, ids in equations.items()}
        self.norms = norms
        self._memo: dict[Process, tuple[int, ...]] = {}
        self._validate()
        self._factors = {c: (c,) for c in self.primes}
        self._factors.update((i, rhs.ids) for i, rhs in self.equations.items())

    def _validate(self) -> None:
        if self.primes & self.equations.keys():
            raise InvalidBaseError("a constant cannot be both prime and composite")
        if self.primes | self.equations.keys() != set(range(self.n)):
            raise InvalidBaseError("every constant must be prime or have an equation")
        if self.n and 0 not in self.primes:
            raise InvalidBaseError("the first constant is always prime")
        for i, rhs in self.equations.items():
            if rhs.norm != self.norms[i]:
                raise InvalidBaseError(f"equation for constant {i} is not norm-preserving")
            distinct = set(rhs.ids)
            if distinct <= self.primes and max(distinct, default=-1) < i:
                continue
            # The ordered pass names the first offender in the word.
            for c in rhs.ids:
                if c not in self.primes:
                    raise InvalidBaseError(f"equation for constant {i} mentions non-prime {c}")
                if c >= i:
                    raise InvalidBaseError(f"equation for constant {i} mentions index {c} >= {i}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DecompositionBase):
            return NotImplemented
        return self.n == other.n and self.primes == other.primes and self.equations == other.equations

    def __hash__(self) -> int:
        return hash((self.n, self.primes))

    def __repr__(self) -> str:
        return f"DecompositionBase(primes={sorted(self.primes)}, composites={sorted(self.equations)})"

    def dcmp(self, p: Process) -> tuple[int, ...]:
        """The prime decomposition of p as an id tuple.

        A string of primes is its own decomposition and comes back as it is,
        after one subset check in C: the words of the norm-doubling chains
        are exponentially long, and the loop costs an interpreter step per
        constant.  Any other word concatenates its constants' factors; an
        unsettled constant is never prime, so it still raises.
        """
        factors = self._factors
        try:
            if len(p) == 1:  # the entry itself, not a copy
                return factors[p[0]]
            if self.primes.issuperset(p):
                return p
            out: list[int] = []
            for c in p:
                out += factors[c]
        except KeyError as exc:
            raise EngineInternalError(
                f"decomposition demanded for unsettled constant {exc.args[0]}"
            ) from None
        return tuple(out)

    def dcmp_memo(self, p: Process) -> tuple[int, ...]:
        """Memoized `dcmp` of a single constant or a rule right-hand side.

        Pass nothing else: those keys number at most n + |rules|, which bounds
        the memo, while a candidate's tail can be exponentially long.  An entry
        is stored only once every constant in its key is settled (an unsettled
        one raises), and a settled constant never changes, so it stays exact.
        """
        got = self._memo.get(p)
        if got is None:
            got = self._memo[p] = self.dcmp(p)
        return got

    def equivalent(self, p1: Process, p2: Process) -> bool:
        return self.dcmp(p1) == self.dcmp(p2)

    def lpf(self, cid: int) -> int:
        """Leftmost prime factor of a constant; the constant itself if prime."""
        return self._factors[cid][0]


def initial_base(std: StandardSystem) -> DecompositionBase:
    """The norm-equality congruence: X_i = X_1 ** norm(X_i) for every i > 0."""
    equations = {i: (0,) * std.norms[i] for i in range(1, std.n)}
    return DecompositionBase(std.n, [0] if std.n else [], equations, std.norms)


def render_base(std: StandardSystem, base: DecompositionBase) -> str:
    """One line per constant in index order: 'prime X' or 'X = Y Z Z'."""
    lines = []
    for i in range(std.n):
        name = std.sys.name(i)
        if i in base.primes:
            lines.append(f"prime {name}")
        else:
            lines.append(f"{name} = {format_process(std.sys, base.equations[i].ids)}")
    return "\n".join(lines)


def base_to_json(std: StandardSystem, base: DecompositionBase) -> dict:
    return {
        "primes": [std.sys.name(i) for i in sorted(base.primes)],
        "equations": {
            std.sys.name(i): [std.sys.name(c) for c in base.equations[i].ids]
            for i in sorted(base.equations)
        },
    }
