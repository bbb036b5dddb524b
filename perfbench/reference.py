"""Independent references for the benchmark's correctness gate.

Nothing here imports tnbpa.  The rule text is read by a minimal parser of its
own, norms come from plain Bellman sweeps, and planted clones are found by
comparing rule lists, so a verdict the engine gets wrong cannot be confirmed by
the engine's own code.
"""

from __future__ import annotations

import math

Rules = dict[str, list[tuple[str, tuple[str, ...]]]]


def read_rules(text: str) -> tuple[list[str], Rules]:
    """Constant names in declaration order and each constant's rules in text order."""
    names: list[str] = []
    rules: Rules = {}
    for raw in text.splitlines():
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        if toks[0] == "constants:":
            names += toks[1:]
            rules.update((name, []) for name in toks[1:])
            continue
        lhs, arrow, *rhs = toks
        label = arrow[1:-2]
        rules[lhs].append((label, () if rhs == ["eps"] else tuple(rhs)))
    return names, rules


def norms(names: list[str], rules: Rules) -> dict[str, int]:
    """Least number of visible actions to the empty process, by relaxation sweeps."""
    value = {name: math.inf for name in names}
    changed = True
    while changed:
        changed = False
        for lhs in names:
            for label, rhs in rules[lhs]:
                cost = (label != "tau") + sum(value[c] for c in rhs)
                if cost < value[lhs]:
                    value[lhs] = cost
                    changed = True
    return {name: int(v) for name, v in value.items()}


def planted_clones(names: list[str], rules: Rules) -> list[tuple[str, str, tuple[str, ...]]]:
    """(clone, head, tail) for every constant whose rule set is another constant's
    rule set with one fixed tail appended to every right-hand side.

    Such a clone and the process ``head tail`` have the same transitions, so
    they are bisimilar whatever the rest of the system does.  The shortest tail
    wins, then the first-declared head.
    """
    by_rules: dict[frozenset, list[str]] = {}
    for name in names:
        by_rules.setdefault(frozenset(rules[name]), []).append(name)
    found = []
    for k in names:
        if not rules[k]:
            continue
        for t in range(min(len(rhs) for _, rhs in rules[k]) + 1):
            tails = {rhs[len(rhs) - t:] for _, rhs in rules[k]}
            if len(tails) != 1:
                continue
            stripped = frozenset((label, rhs[: len(rhs) - t]) for label, rhs in rules[k])
            heads = [h for h in by_rules.get(stripped, ()) if h != k]
            if heads:
                found.append((k, heads[0], tails.pop()))
                break
    return found
