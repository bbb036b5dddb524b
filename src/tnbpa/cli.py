"""Command-line front end.

Exit codes are part of the contract: 0 bisimilar / success, 1 not bisimilar or
refutation found, 2 input error (a file named on the command line that cannot
be read or written included), 3 internal assertion failure, exhausted
resource guard (the interpreter's recursion limit and memory included) or a
standard output that failed before all output was written.  Output is
deterministic for fixed inputs and flags (no timestamps in machine formats).

The game oracle is imported only by the commands that run it (`check
--verify`, `gen`, `oracle`, `fuzz`), so the decision commands start without it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys as _sys
from pathlib import Path

from . import engine
from .base import base_to_json, render_base
from .model import (
    BpaSystem,
    ParseError,
    format_process,
    parse_system,
    serialize_system,
)
from .normalization import (
    GuardExceeded,
    InvalidParamsError,
    NotTotallyNormedError,
    UNNORMED,
    check_totally_normed,
    compute_norms,
    standardize,
    view,
)
from .strings import expand

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


class UnwritablePathError(ValueError):
    """A file named on the command line cannot be written."""


def _load_system(path: str) -> BpaSystem:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return parse_system(text)


def _write_file(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise UnwritablePathError(f"cannot write {path}: {exc}") from exc


def _dump_trace(std, trace, path: str) -> None:
    _write_file(path, json.dumps(engine.trace_to_json(std, trace), indent=2) + "\n")


def cmd_check(args) -> int:
    sys = _load_system(args.file)
    std = standardize(sys)
    left = std.parse_process(args.left)
    right = std.parse_process(args.right)
    base, trace = engine.compute_bisimilarity_base(std)
    if args.trace:
        _dump_trace(std, trace, args.trace)
    verdict = engine.check_equivalence(std, left, right, base=base)
    bisimilar = verdict.kind is engine.VerdictKind.BISIMILAR

    verification = None
    if args.verify:
        from . import oracle

        # Exploration is bounded: pairs pumped beyond this norm are assumed
        # related, which keeps refutations sound and the search finite.
        budget = max([std.norm_of(left), std.norm_of(right), *std.norms, 0]) + 16
        ctx = oracle.GameContext(std, norm_budget=budget)
        attacked = oracle.verify_base_generators(ctx, base, args.k)
        failures = sum(1 for _, _, d in attacked if d is not None)
        distinction = ctx.find_distinction(left, right, args.k)
        if distinction is not None:
            oracle.replay_distinction(std, distinction)
        if bisimilar and distinction is not None:
            print(
                json.dumps(oracle.distinction_to_json(std, distinction), indent=2),
                file=_sys.stderr,
            )
            raise AssertionError(
                f"oracle refutes the engine's bisimilar verdict for "
                f"{args.left!r} vs {args.right!r}"
            )
        if failures:
            raise AssertionError(f"{failures} generator check(s) failed on the final base")
        verification = {
            "generator_checks": len(attacked),
            "generator_failures": failures,
            "oracle": (
                "confirmed"
                if distinction is not None
                else f"no distinction found up to k={args.k}"
            ),
            "distinction": (
                oracle.distinction_to_json(std, distinction) if distinction is not None else None
            ),
        }

    dl = expand(base.dcmp(left))
    dr = expand(base.dcmp(right))
    if args.json:
        payload = {
            "verdict": verdict.kind.value,
            "left": args.left,
            "right": args.right,
            "dcmp_left": [std.sys.name(c) for c in dl],
            "dcmp_right": [std.sys.name(c) for c in dr],
            "iterations": len(trace),
            "base": base_to_json(std, base),
        }
        if verification is not None:
            payload["verification"] = verification
        print(json.dumps(payload, indent=2))
    else:
        print(f"verdict: {verdict.kind.value}")
        print(f"dcmp(left)  = {format_process(std.sys, dl)}")
        print(f"dcmp(right) = {format_process(std.sys, dr)}")
        if verification is not None:
            print(f"verification: generator checks ok; oracle {verification['oracle']}")
    return EXIT_OK if bisimilar else EXIT_REFUTED


def cmd_base(args) -> int:
    sys = _load_system(args.file)
    std = standardize(sys)
    final, trace = engine.compute_bisimilarity_base(std)
    if args.trace:
        _dump_trace(std, trace, args.trace)
    if args.json:
        payload = {"final": base_to_json(std, final), "iterations": len(trace)}
        if args.iterations:
            payload["trace"] = engine.trace_to_json(std, trace)
        print(json.dumps(payload, indent=2))
    else:
        if args.iterations:
            initial, *after = engine.pass_bases(std, trace)
            print("== initial base ==")
            print(render_base(std, initial))
            for number, snapshot in enumerate(after, 1):
                print(f"== after iteration {number} ==")
                print(render_base(std, snapshot))
        print(render_base(std, final))
    return EXIT_OK


def cmd_norms(args) -> int:
    sys = _load_system(args.file)
    table = compute_norms(sys)
    if args.json:
        print(
            json.dumps(
                {
                    name: (None if v == UNNORMED else int(v))
                    for name, v in zip(sys.names, table.values)
                },
                indent=2,
            )
        )
    else:
        for name, v in zip(sys.names, table.values):
            print(f"{name} {'inf' if v == UNNORMED else int(v)}")
    violations = check_totally_normed(sys, table)
    for violation in violations:
        print(f"warning: {violation}", file=_sys.stderr)
    return EXIT_OK


def cmd_standardize(args) -> int:
    sys = _load_system(args.file)
    std = standardize(sys)
    out = serialize_system(std.sys)
    out += "# standard order (index, constant, norm, merged originals):\n"
    merged: list[list[str]] = [[] for _ in range(std.n)]
    for orig, i in std.ids.items():
        merged[i].append(orig)
    for i, (name, norm) in enumerate(zip(std.sys.names, std.norms)):
        out += f"#   {i + 1}. {name} norm={norm} <- {' '.join(sorted(merged[i]))}\n"
    print(out, end="")
    return EXIT_OK


def _gen_params(args):
    """GenParams from the generator flags given; the others keep its defaults."""
    from dataclasses import fields

    from .oracle import GenParams

    given = vars(args)
    return GenParams(**{f.name: given[f.name] for f in fields(GenParams) if f.name in given})


def cmd_gen(args) -> int:
    from . import oracle

    text = serialize_system(oracle.random_system(_gen_params(args)))
    if args.output:
        _write_file(args.output, text)
    else:
        print(text, end="")
    return EXIT_OK


def cmd_oracle(args) -> int:
    from . import oracle

    sys = _load_system(args.file)
    sem = view(sys)
    left = sem.parse_process(args.left)
    right = sem.parse_process(args.right)
    distinction = oracle.GameContext(sem).find_distinction(left, right, args.k)
    if distinction is None:
        if args.json:
            print(json.dumps({"result": "no-distinction-found", "k": args.k}))
        else:
            print(f"no distinction found up to k={args.k} (not a bisimilarity proof)")
        return EXIT_OK
    oracle.replay_distinction(sem, distinction)
    if args.json:
        print(
            json.dumps(
                {
                    "result": "distinction",
                    "k": args.k,
                    "size": distinction.size(),
                    "strategy": oracle.distinction_to_json(sem, distinction),
                },
                indent=2,
            )
        )
    else:
        print(
            f"distinction found (strategy tree of {distinction.size()} nodes); "
            f"attacker opens with {distinction.side} "
            f"-{distinction.action}-> {format_process(sys, distinction.target)}"
        )
    return EXIT_REFUTED


def cmd_fuzz(args) -> int:
    from . import oracle

    trials = oracle.differential_run(
        _gen_params(args),
        args.trials,
        args.k,
        pairs_per_trial=args.pairs,
        jobs=args.jobs,
    )
    for trial in trials:
        print(json.dumps(trial.to_json()))
    summary = oracle.summarize(trials, args.k)
    print(json.dumps({"summary": summary}))
    return EXIT_OK if summary["ok"] else EXIT_REFUTED


def _add_gen_flags(p: argparse.ArgumentParser) -> None:
    # A flag left out sets nothing, so GenParams holds the only defaults.
    p.add_argument("--constants", type=int, default=argparse.SUPPRESS)
    p.add_argument("--max-rhs-len", type=int, default=argparse.SUPPRESS)
    p.add_argument("--alphabet", type=int, default=argparse.SUPPRESS)
    p.add_argument("--silent-prob", type=float, default=argparse.SUPPRESS)
    p.add_argument("--norm-cap", type=int, default=argparse.SUPPRESS)
    p.add_argument("--extra-rules", type=int, default=argparse.SUPPRESS)
    p.add_argument("--composite-prob", type=float, default=argparse.SUPPRESS)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tnbpa",
        description="Branching bisimilarity on totally normed BPA systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide whether two processes are bisimilar")
    p.add_argument("file")
    p.add_argument("--left", required=True, help="process, e.g. \"X Y\" or eps")
    p.add_argument("--right", required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--verify", action="store_true", help="cross-check with the game oracle")
    p.add_argument("--k", type=int, default=16, help="oracle round bound for --verify")
    p.add_argument("--trace", metavar="PATH", help="write the refinement trace as JSON")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("base", help="print the final decomposition base")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.add_argument("--iterations", action="store_true", help="also print per-iteration bases")
    p.add_argument("--trace", metavar="PATH", help="write the refinement trace as JSON")
    p.set_defaults(func=cmd_base)

    p = sub.add_parser("norms", help="print the norm table")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_norms)

    p = sub.add_parser("standardize", help="print the standard-ordered system")
    p.add_argument("file")
    p.set_defaults(func=cmd_standardize)

    p = sub.add_parser("gen", help="generate a random totally normed system")
    _add_gen_flags(p)
    p.add_argument("-o", "--output", metavar="FILE")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("oracle", help="search for a replayable distinction")
    p.add_argument("file")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--k", type=int, default=16)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("fuzz", help="differential run: engine vs oracle on random systems")
    _add_gen_flags(p)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--pairs", type=int, default=20, help="process pairs per trial")
    p.add_argument("--k", type=int, default=16)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_fuzz)

    return parser


# The least value of each numeric flag that counts something; a subcommand
# is checked only on the flags it defines.
_FLAG_MINIMUM = {"k": 1, "trials": 1, "pairs": 1, "jobs": 1}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    for dest, low in _FLAG_MINIMUM.items():
        value = getattr(args, dest, None)
        if value is not None and value < low:
            flag = "--" + dest.replace("_", "-")
            print(f"error: {flag} must be at least {low}, got {value}", file=_sys.stderr)
            return EXIT_INPUT
    try:
        code = args.func(args)
        _sys.stdout.flush()
        return code
    except OSError as exc:
        # Files named on the command line raise UnwritablePathError and worker
        # pools GuardExceeded, so this is standard output.  The final flush
        # then writes what is left to nowhere.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, _sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write standard output: {exc.strerror or exc}", file=_sys.stderr)
        return EXIT_INTERNAL
    except (ParseError, NotTotallyNormedError, InvalidParamsError, UnwritablePathError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_INPUT
    except (GuardExceeded, RecursionError, MemoryError) as exc:
        print(f"resource guard: {str(exc) or 'out of memory'}", file=_sys.stderr)
        return EXIT_INTERNAL
    except AssertionError as exc:
        print(f"internal error: {exc}", file=_sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
