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
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

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


@dataclass(frozen=True)
class Constant:
    """A process constant; ids are dense and follow declaration order."""

    id: int
    name: str


@dataclass(frozen=True)
class Rule:
    """A transition rule ``lhs -label-> rhs``."""

    lhs: int
    label: str
    rhs: Process


class BpaSystem:
    """An immutable BPA system: constant table, action set, rule list.

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

        seen: set[Rule] = set()
        kept: list[Rule] = []
        for r in rules:
            if r.lhs >= len(constants) or any(c >= len(constants) for c in r.rhs):
                raise ValueError(f"rule {r} references an undeclared constant id")
            if r not in seen:
                seen.add(r)
                kept.append(r)

        self.constants: tuple[Constant, ...] = constants
        self.rules: tuple[Rule, ...] = tuple(kept)
        self.actions: frozenset[str] = frozenset(r.label for r in self.rules)
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

    def __hash__(self) -> int:
        return hash((self.constants, self.rules))

    def __repr__(self) -> str:
        return f"BpaSystem({len(self.constants)} constants, {len(self.rules)} rules)"


def _tokens_with_columns(line: str) -> list[tuple[str, int]]:
    out = []
    col = 0
    for tok in line.split():
        col = line.index(tok, col)
        out.append((tok, col + 1))
        col += len(tok)
    return out


def parse_system(text: str) -> BpaSystem:
    """Parse the line-oriented system format (``#`` starts a comment).

    Constants must be declared on ``constants:`` lines before any rule that
    uses them.  ``tau`` and ``eps`` are reserved and cannot name constants.
    """
    names: list[str] = []
    index: dict[str, int] = {}
    rules: list[Rule] = []

    def resolve(name: str, lineno: int, col: int) -> int:
        if name not in index:
            raise ParseError(f"undeclared constant {name!r}", lineno, col)
        return index[name]

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0]
        toks = _tokens_with_columns(line)
        if not toks:
            continue
        head, head_col = toks[0]
        if head == "constants:":
            for name, col in toks[1:]:
                if name in _RESERVED_NAMES:
                    raise ParseError(f"{name!r} is reserved and cannot name a constant", lineno, col)
                if not _IDENT.match(name):
                    raise ParseError(f"invalid constant name {name!r}", lineno, col)
                if name in index:
                    raise ParseError(f"constant {name!r} declared twice", lineno, col)
                index[name] = len(names)
                names.append(name)
            continue

        if len(toks) < 3:
            raise ParseError("expected rule of the form '<name> -<action>-> <rhs>'", lineno, head_col)
        if not _IDENT.match(head):
            raise ParseError(f"invalid constant name {head!r}", lineno, head_col)
        lhs = resolve(head, lineno, head_col)
        arrow, arrow_col = toks[1]
        m = _ARROW.match(arrow)
        if not m:
            raise ParseError(f"malformed action arrow {arrow!r}", lineno, arrow_col)
        label = m.group(1)
        rhs_toks = toks[2:]
        if len(rhs_toks) == 1 and rhs_toks[0][0] == "eps":
            rhs: Process = EPSILON
        else:
            ids = []
            for name, col in rhs_toks:
                if name == "eps":
                    raise ParseError("'eps' must stand alone as a rule right-hand side", lineno, col)
                ids.append(resolve(name, lineno, col))
            rhs = tuple(ids)
        rules.append(Rule(lhs, label, rhs))

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
