"""Totally normed BPA systems: constants, rewrite rules, head-rewriting semantics.

A system is a finite set of named process constants plus Greibach-style rules
``X -l-> rhs``.  Processes are finite sequences of constants; the only
transitions of a non-empty process rewrite its head constant.  The silent
action is spelled ``tau`` in the file format and is reserved; ``eps`` denotes
the empty process.

Systems are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping, NamedTuple, Sequence

TAU = "tau"

#: A process is a tuple of constant ids; the empty tuple is the empty process.
Process = tuple[int, ...]

EPSILON: Process = ()

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_']*\Z")
_ARROW = re.compile(r"-([A-Za-z_][A-Za-z0-9_']*)->\Z")

_RESERVED_NAMES = frozenset({TAU, "eps", "constants:"})


class ParseError(ValueError):
    """Syntax or reference error in a system/process document."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            where = f"line {line}" + (f", column {column}" if column is not None else "")
            message = f"{where}: {message}"
        super().__init__(message)


def is_silent(label: str) -> bool:
    return label == TAU


class Constant(NamedTuple):
    """A process constant; ids are dense and follow declaration order."""

    id: int
    name: str


class Rule(NamedTuple):
    """A transition rule ``lhs -label-> rhs``."""

    lhs: int
    label: str
    rhs: Process


class BpaSystem:
    """An immutable BPA system: constant table and rule list.

    Duplicate rules are collapsed at construction (the rule collection is a
    set conceptually); the surviving rule order is first-occurrence order.
    """

    def __init__(self, names: Sequence[str], rules: Iterable[Rule]):
        constants = tuple(Constant(i, n) for i, n in enumerate(names))
        by_name: dict[str, int] = {}
        for c in constants:
            if c.name in by_name:
                raise ValueError(f"duplicate constant {c.name!r}")
            by_name[c.name] = c.id

        n = len(constants)
        kept = tuple(dict.fromkeys(rules))
        # Range-check every id at once; only a failure looks for the rule to name.
        ids = [r.lhs for r in kept]
        for r in kept:
            ids += r.rhs
        if ids and (min(ids) < 0 or max(ids) >= n):
            for r in kept:
                if not 0 <= r.lhs < n or any(not 0 <= c < n for c in r.rhs):
                    raise ValueError(f"rule {r} references an undeclared constant id")

        self.constants: tuple[Constant, ...] = constants
        self.rules: tuple[Rule, ...] = kept
        self._by_name = by_name
        rules_of: list[list[Rule]] = [[] for _ in constants]
        for r in self.rules:
            rules_of[r.lhs].append(r)
        self._rules_of = tuple(tuple(rs) for rs in rules_of)

    @property
    def n(self) -> int:
        return len(self.constants)

    def constant_id(self, name: str) -> int:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"unknown constant {name!r}") from None

    def name(self, cid: int) -> str:
        return self.constants[cid].name

    def rules_of(self, cid: int) -> tuple[Rule, ...]:
        return self._rules_of[cid]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BpaSystem):
            return NotImplemented
        return self.constants == other.constants and self.rules == other.rules


def _column(line: str, toks: list[str], k: int) -> int:
    """The 1-based column of toks[k], the k-th whitespace-separated token of line."""
    col = 0
    for tok in toks[:k]:
        col = line.index(tok, col) + len(tok)
    return line.index(toks[k], col) + 1


def parse_system(text: str) -> BpaSystem:
    """Parse the line-oriented system format (``#`` starts a comment).

    Constants must be declared on ``constants:`` lines before any rule that
    uses them.  ``tau`` and ``eps`` are reserved and cannot name constants.
    """
    names: list[str] = []
    index: dict[str, int] = {}
    rules: list[Rule] = []

    # Both read the line being parsed.  A column is worked out only for the
    # token that fails.
    def fail(message: str, k: int) -> ParseError:
        return ParseError(message, lineno, _column(line, toks, k))

    def resolve(k: int) -> int:
        try:
            return index[toks[k]]
        except KeyError:
            raise fail(f"undeclared constant {toks[k]!r}", k) from None

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0]
        toks = line.split()
        if not toks:
            continue
        head = toks[0]
        if head == "constants:":
            for k in range(1, len(toks)):
                name = toks[k]
                if name in _RESERVED_NAMES:
                    raise fail(f"{name!r} is reserved and cannot name a constant", k)
                if not _IDENT.match(name):
                    raise fail(f"invalid constant name {name!r}", k)
                if name in index:
                    raise fail(f"constant {name!r} declared twice", k)
                index[name] = len(names)
                names.append(name)
            continue

        if len(toks) < 3:
            raise fail("expected rule of the form '<name> -<action>-> <rhs>'", 0)
        if not _IDENT.match(head):
            raise fail(f"invalid constant name {head!r}", 0)
        lhs = resolve(0)
        m = _ARROW.match(toks[1])
        if not m:
            raise fail(f"malformed action arrow {toks[1]!r}", 1)
        if len(toks) == 3 and toks[2] == "eps":
            rhs: Process = EPSILON
        else:
            ids = []
            for k in range(2, len(toks)):
                if toks[k] == "eps":
                    raise fail("'eps' must stand alone as a rule right-hand side", k)
                ids.append(resolve(k))
            rhs = tuple(ids)
        rules.append(Rule(lhs, m.group(1), rhs))

    return BpaSystem(names, rules)


def serialize_system(sys: BpaSystem) -> str:
    """Render a system in the file format; round-trips through parse_system."""
    lines = ["constants: " + " ".join(c.name for c in sys.constants)]
    for r in sys.rules:
        rhs = " ".join(sys.name(c) for c in r.rhs) if r.rhs else "eps"
        lines.append(f"{sys.name(r.lhs)} -{r.label}-> {rhs}")
    return "\n".join(lines) + "\n"


def parse_process_text(text: str, ids: Mapping[str, int]) -> Process:
    """Parse 'eps' or whitespace-separated names, each looked up in `ids`."""
    toks = text.split()
    if not toks:
        raise ParseError("empty process text (use 'eps' for the empty process)")
    if toks == ["eps"]:
        return EPSILON
    out = []
    for tok in toks:
        if tok == "eps":
            raise ParseError("'eps' must stand alone in a process")
        if tok not in ids:
            raise ParseError(f"unknown constant {tok!r}")
        out.append(ids[tok])
    return tuple(out)


def parse_process(text: str, sys: BpaSystem) -> Process:
    """Parse 'eps' or whitespace-separated constant names against `sys`."""
    return parse_process_text(text, sys._by_name)


def format_process(sys: BpaSystem, p: Process) -> str:
    return " ".join(sys.name(c) for c in p) if p else "eps"


def transitions_of(sys: BpaSystem, p: Process) -> list[tuple[str, Process]]:
    """All transitions of `p`: the head constant's rules with the tail appended.

    The empty process has no transitions.  Results follow rule order.
    """
    if not p:
        return []
    tail = p[1:]
    return [(r.label, r.rhs + tail) for r in sys.rules_of(p[0])]
