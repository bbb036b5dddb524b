"""The benchmark's workloads: inputs made from a seed, one timed op, its checks.

An op is one system decided (parse, standardize, base, a batch of queries) or
one differential trial.  Each workload class also fixes `nominal_cycle_s`, the
op time of one cycle on a 2-CPU Xeon virtual machine, used only to turn
``--seconds`` into a cycle count, and `passes`, how often the run repeats its
op list.  Inputs are built and outputs are checked outside the
timed region.  The program calls go through module attributes, so the tracer's
wrappers see them; input generation and the references use functions bound at
import, which the tracer does not touch.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from tnbpa import engine, model, normalization, oracle
from tnbpa.base import render_base
from tnbpa.engine import check_equivalence as _check_equivalence
from tnbpa.engine import compute_bisimilarity_base as _compute_base
from tnbpa.model import serialize_system
from tnbpa.normalization import standardize as _standardize
from tnbpa.oracle import GenParams
from tnbpa.oracle import random_system as _random_system

import reference

DIGESTS_PATH = Path(__file__).with_name("digests.json")

# Query = (left process text, right process text, expected to be bisimilar)
Query = tuple[str, str, bool]


@dataclass
class Outcome:
    seconds: float
    query_seconds: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    digest: str | None = None


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def _decide(text: str, queries: list[Query], out: Outcome):
    """The timed op on one system; each query is also timed on its own."""
    std = normalization.standardize(model.parse_system(text))
    b, _ = engine.compute_bisimilarity_base(std)
    verdicts = []
    for left, right, _ in queries:
        p, q = std.parse_process(left), std.parse_process(right)
        t0 = time.perf_counter()
        verdict = engine.check_equivalence(std, p, q, base=b)
        out.query_seconds.append(time.perf_counter() - t0)
        verdicts.append(verdict.kind is engine.VerdictKind.BISIMILAR)
    return std, b, verdicts


def _check_decided(inputs: tuple[str, list[Query]], raw, out: Outcome) -> None:
    std, b, verdicts = raw
    for (left, right, expected), got in zip(inputs[1], verdicts, strict=True):
        if got != expected:
            want = "bisimilar" if expected else "not bisimilar"
            out.problems.append(f"{left} vs {right}: expected {want}")
    out.digest = _digest(render_base(std, b))


def _shuffled_cycles(workload, seed: int, cycles: int) -> list[list[str]]:
    """Every key of the workload once per cycle, in a seeded order."""
    rng = random.Random(f"{workload.name}-{seed}")
    out = []
    for _ in range(cycles):
        keys = workload.all_keys()
        rng.shuffle(keys)
        out.append(keys)
    return out


class EngineRandom:
    """Random systems from the criterion-10 generator knobs at n 128..512."""

    name = "engine-random"
    nominal_cycle_s = 3.5
    passes = 1
    combos = [(n, cap) for n in (128, 256, 512) for cap in (1, 4, 8)]
    # Every seed draws its systems from this pool, so every final base has a
    # digest recorded at the seed commit.
    pool = range(1, 33)

    @staticmethod
    def params(n: int, cap: int, s: int) -> GenParams:
        return GenParams(
            constants=n, max_rhs_len=3, alphabet=2, silent_prob=0.3,
            norm_cap=cap, extra_rules=2, composite_prob=0.4, seed=s,
        )

    def all_keys(self) -> list[str]:
        return [f"n{n}-cap{cap}-s{s}" for n, cap in self.combos for s in self.pool]

    def schedule(self, seed: int, cycles: int) -> list[list[str]]:
        rng = random.Random(f"{self.name}-{seed}")
        draws = {combo: rng.sample(self.pool, len(self.pool)) for combo in self.combos}
        out = []
        for c in range(cycles):
            order = list(self.combos)
            rng.shuffle(order)
            out.append([f"n{n}-cap{cap}-s{draws[n, cap][c % len(self.pool)]}" for n, cap in order])
        return out

    def prepare(self, key: str, rng: random.Random) -> tuple[str, list[Query]]:
        n, cap, s = (int(part[i:]) for part, i in zip(key.split("-"), (1, 3, 1)))
        text = serialize_system(_random_system(self.params(n, cap, s)))
        names, rules = reference.read_rules(text)
        queries: list[Query] = [
            (k, " ".join((h, *tail)), True) for k, h, tail in reference.planted_clones(names, rules)
        ]
        norm = reference.norms(names, rules)
        pick = random.Random(key)
        unequal: list[Query] = []
        while len(unequal) < max(len(queries), 50):
            p = pick.choices(names, k=pick.randint(1, 3))
            q = pick.choices(names, k=pick.randint(1, 3))
            if sum(norm[c] for c in p) != sum(norm[c] for c in q):
                unequal.append((" ".join(p), " ".join(q), False))
        return text, queries + unequal

    execute = staticmethod(lambda inputs, out: _decide(*inputs, out))
    check = staticmethod(_check_decided)


def doubling_chain(n: int) -> list[str]:
    lines = ["X0 -a-> eps"]
    for i in range(1, n):
        lines += [f"X{i} -a-> X{i - 1} X{i - 1}", f"X{i} -b-> X{i - 1} X{i - 1}"]
    return lines


def clone_chain(n: int) -> list[str]:
    # Yi copies Y(i-1)'s rules with Y(i-1) appended, so dcmp(Yi) = Y0^(2^i).
    rules = [("a", ""), ("b", "")]
    lines = [f"Y0 -{label}-> eps" for label, _ in rules]
    for i in range(1, n):
        rules = [(label, f"{rhs} Y{i - 1}".strip()) for label, rhs in rules]
        lines += [f"Y{i} -{label}-> {rhs}" for label, rhs in rules]
    return lines


class NormBlowup:
    """Exponential norms: the doubling chain and the clone chain, n 12..16."""

    name = "norm-blowup"
    nominal_cycle_s = 0.5
    passes = 3
    families = {"doubling": ("X", doubling_chain), "clone": ("Y", clone_chain)}
    sizes = range(12, 17)

    def all_keys(self) -> list[str]:
        return [f"{family}-n{n}" for family in self.families for n in self.sizes]

    schedule = _shuffled_cycles

    def prepare(self, key: str, rng: random.Random) -> tuple[str, list[Query]]:
        family, size = key.split("-n")
        n = int(size)
        letter, build = self.families[family]
        # The seed shuffles declaration and rule order; neither changes a norm,
        # the standard order or the base.
        names = [f"{letter}{i}" for i in range(n)]
        rng.shuffle(names)
        lines = build(n)
        rng.shuffle(lines)
        text = "\n".join(["constants: " + " ".join(names), *lines]) + "\n"
        names, rules = reference.read_rules(text)
        if family == "clone":
            queries = [(k, " ".join((h, *tail)), True) for k, h, tail in reference.planted_clones(names, rules)]
        else:
            norm = reference.norms(names, rules)
            queries = []
            for i in range(1, n):
                assert norm[f"X{i}"] != 2 * norm[f"X{i - 1}"]
                queries.append((f"X{i}", f"X{i - 1} X{i - 1}", False))
        assert len(queries) == n - 1, f"{key}: expected {n - 1} chain queries"
        return text, queries

    execute = staticmethod(lambda inputs, out: _decide(*inputs, out))
    check = staticmethod(_check_decided)


class OracleDifferential:
    """Differential trials on the acceptance corpus's parameter schedule."""

    name = "oracle-differential"
    nominal_cycle_s = 6.0
    passes = 3
    k_max = 16
    confirm_k = 24
    trials = 105

    @staticmethod
    def params(t: int) -> GenParams:
        # The acceptance corpus: constants 3..8, norm cap 2..5, silent 0..0.45.
        return GenParams(
            constants=3 + t % 6,
            max_rhs_len=2 + t % 2,
            alphabet=1 + t % 3,
            silent_prob=(0.0, 0.15, 0.3, 0.45)[t % 4],
            norm_cap=2 + t % 4,
            extra_rules=2,
            composite_prob=0.4,
            seed=10_000 + t,
        )

    def all_keys(self) -> list[str]:
        return [f"t{t}" for t in range(self.trials)]

    # Every seed runs the whole corpus each cycle, in its own order: one trial
    # in 420 takes 5.6 s, so a corpus drawn per seed would swing the cycle time
    # fivefold between seeds.
    schedule = _shuffled_cycles

    def prepare(self, key: str, rng: random.Random) -> GenParams:
        return self.params(int(key[1:]))

    def execute(self, params: GenParams, out: Outcome):
        return oracle.differential_trial(
            params, self.k_max, pairs_per_trial=20, confirm_k=self.confirm_k
        )

    def check(self, params: GenParams, report, out: Outcome) -> None:
        summary = report.to_json()
        if summary["engine_error"] is not None:
            out.problems.append(f"engine error: {summary['engine_error']}")
        if summary["refutations"]:
            out.problems.append(f"{summary['refutations']} engine verdicts refuted by the oracle")
        if not summary["generator_ok"]:
            out.problems.append("generator check failed")
        if summary["mode_agree"] is not True:
            out.problems.append(f"pruned and exhaustive bases: mode_agree={summary['mode_agree']}")
        pairs = [[p.left, p.right, p.engine, p.oracle, p.level, p.confirmed_at, p.certificate]
                 for p in report.pairs]
        out.digest = _digest(json.dumps([summary, pairs], sort_keys=True))
        # The read path beside the base build, timed against this trial's
        # system outside the op, so that every workload reports it.
        std = _standardize(_random_system(params))
        b, _ = _compute_base(std)
        for p in report.pairs:
            t0 = time.perf_counter()
            _check_equivalence(std, p.left, p.right, base=b)
            out.query_seconds.append(time.perf_counter() - t0)


WORKLOADS = {w.name: w for w in (EngineRandom(), NormBlowup(), OracleDifferential())}


def load_digests() -> dict[str, dict[str, str]]:
    return json.loads(DIGESTS_PATH.read_text())


def run_op(workload, key: str, rng: random.Random, digests: dict[str, str] | None, tracer=None) -> Outcome:
    """Build one op's inputs, collect garbage, run the op and check it.

    An exception or a missed reference makes a failed op, never an abort.
    Without a digest table the output digest is only computed.  When a tracer
    is given it is installed for the timed part only.
    """
    out = Outcome(0.0)
    try:
        inputs = workload.prepare(key, rng)
    except Exception as exc:  # the run goes on; the op counts as failed
        out.problems.append(f"inputs: {type(exc).__name__}: {exc}")
        return out
    gc.collect()
    t0 = time.perf_counter()
    try:
        if tracer is None:
            raw = workload.execute(inputs, out)
        else:
            tracer.install()
            try:
                with tracer.span("op"):
                    raw = workload.execute(inputs, out)
            finally:
                tracer.uninstall()
        out.seconds = time.perf_counter() - t0
        workload.check(inputs, raw, out)
    except Exception as exc:  # the run goes on; the op counts as failed
        out.seconds = out.seconds or time.perf_counter() - t0
        out.problems.append(f"{type(exc).__name__}: {exc}")
        return out
    if digests is None:
        return out
    want = digests.get(key)
    if want is None:
        out.problems.append("no digest recorded for this op")
    elif out.digest != want:
        out.problems.append(f"digest {out.digest} differs from the recorded {want}")
    return out
