"""tnbpa benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload engine-random --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from ``src/``.
The run times a fixed list of whole cycles of ops, sized from ``--seconds``,
one or more times over, so a given ``--seconds`` always times the same ops and
percentiles stay comparable between commits.  ``--trace 0`` prints the
end-to-end metrics, scaled to a reference host speed (hostspeed.py),
``--trace 1`` the per-layer ones; see README.md.  The last
line of standard output is one JSON object.  Exit code 2 means the run could
not start.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 7
SETUP_EVERY_S = 4.0
TAIL_BEYOND = 10


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def cold_import_s(package: str, path: Path) -> float:
    """Wall time of one import of `package` from `path` in a fresh interpreter."""
    code = (
        "import importlib, sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "m = importlib.import_module(sys.argv[2]); print(time.perf_counter() - t); print(m.__file__)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(path), package],
        capture_output=True, text=True, timeout=60, cwd=ROOT,
    )
    if done.returncode != 0:
        fail(f"cold import of {package} failed:\n{done.stderr}")
    seconds, where = done.stdout.split("\n")[:2]
    if not Path(where).resolve().is_relative_to(path / package):
        fail(f"imported {package} from {where}, not from {path}")
    return float(seconds)


def measure_setup() -> float:
    """Median of a burst of cold imports of tnbpa."""
    return statistics.median(cold_import_s("tnbpa", SRC) for _ in range(SETUP_REPEATS))


class ColdImports:
    """Cold imports of tnbpa spread over the run, one per `SETUP_EVERY_S` of
    op time, each followed by one of `tnbpa_frozen` as its host probe.

    The host's slow spells last seconds, so a burst of imports at the start
    lands in one spell, and a run's median moved by up to 1.7x between runs.
    An import and its probe, a fraction of a second apart, mostly share a
    spell, so their ratio holds still.
    """

    def __init__(self) -> None:
        self.pairs: list[tuple[float, float]] = []
        self.busy_s = 0.0
        self.sample()

    def sample(self) -> None:
        self.pairs.append((cold_import_s("tnbpa", SRC), cold_import_s("tnbpa_frozen", HERE)))

    def keep_up(self, op_seconds: float) -> None:
        self.busy_s += op_seconds
        while self.busy_s >= SETUP_EVERY_S * len(self.pairs):
            self.sample()

    def setup_s(self, reference_s: float) -> tuple[float, float]:
        """The median import time at the reference speed (`reference_s` per
        probe import), and as timed."""
        while len(self.pairs) < SETUP_REPEATS:
            self.sample()
        ratio = statistics.median(t / frozen for t, frozen in self.pairs)
        return ratio * reference_s, statistics.median(t for t, _ in self.pairs)


def tail(values: list[float]) -> tuple[float, int]:
    """The highest whole percentile with at least ten values beyond it (nearest rank)."""
    ordered = sorted(values)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= TAIL_BEYOND:
            return ordered[rank - 1], p
    return ordered[-1], 100


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(best, executions, setup: tuple[float, float], probe, fastest_of_passes: bool) -> tuple[dict, str]:
    """The metrics, op and query times at the probe's reference speed; the
    summary also shows them as timed."""
    times = [o.seconds for o in best]
    queries = [s for o in best for s in o.query_seconds]
    tail_s, p = tail(times)
    failed = sum(1 for o in executions if o.problems)
    timed = {
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "query_p50_us": (statistics.median(queries) * 1e6 if queries else 0.0, "us"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup[1], "s"),
    }
    scale = probe.scale(fastest_of_passes)
    factor = {"ops_per_s": 1 / scale, "peak_rss_mb": 1.0, "setup_s": setup[0] / setup[1]}
    metrics = {name: metric(value * factor.get(name, scale), unit) for name, (value, unit) in timed.items()}
    lines = [f"  {name:<14} {m['value']:12.4f} {m['unit']:<5} (timed {timed[name][0]:.4f})"
             for name, m in metrics.items()]
    lines[1] += f"   (p{p} of {len(times)} ops)"
    lines[3] += f"   ({len(queries)} queries)"
    lines.append(f"  {'error_rate':<14} {failed / len(executions):12.4f} ratio"
                 f"   ({failed} of {len(executions)} executions failed)")
    lines.append(f"  host probe {'p10' if fastest_of_passes else 'mean'} "
                 f"{probe.statistic(fastest_of_passes) * 1e3:.3f} ms of {len(probe.samples)} "
                 f"samples; op and query times scaled by {scale:.4f}")
    return metrics, "\n".join(lines)


# Per-layer metrics: (name, unit, source, layer or counter)
#   incl / self: mean ms per traced op; count: counter over the first cycle;
#   peak: most memory (MB) one call allocated in the first cycle.
LAYER_METRICS = [
    ("engine.refine_ms", "ms", "self", "engine.refine"),
    ("engine.candidates_for_ms", "ms", "incl", "engine.candidates_for"),
    ("engine.lpftest_ms", "ms", "incl", "engine.lpftest"),
    ("engine.lpftest_calls", "count", "count", "engine.lpftest.calls"),
    ("engine.passes", "count", "count", "engine.passes"),
    ("engine.candidates", "count", "count", "engine.candidates"),
    ("engine.accepted", "count", "count", "engine.accepted"),
    ("engine.reject_step1", "count", "count", "engine.reject_step1"),
    ("engine.reject_step2", "count", "count", "engine.reject_step2"),
    ("engine.reject_step3", "count", "count", "engine.reject_step3"),
    ("engine.reject_step5", "count", "count", "engine.reject_step5"),
    ("engine.reject_step6", "count", "count", "engine.reject_step6"),
    ("engine.accept_step4", "count", "count", "engine.accept_step4"),
    ("engine.accept_step7", "count", "count", "engine.accept_step7"),
    ("engine.refine_peak_mb", "MB", "peak", "engine.refine"),
    ("engine.query_ms", "ms", "incl", "engine.query"),
    ("engine.exhaustive_ms", "ms", "incl", "engine.exhaustive"),
    ("strings.constructions", "count", "count", "strings.init.calls"),
    ("strings.split_calls", "count", "count", "strings.split.calls"),
    ("strings.init_ms", "ms", "incl", "strings.init"),
    ("base.initial_base_ms", "ms", "incl", "base.initial_base"),
    ("base.initial_base_peak_mb", "MB", "peak", "base.initial_base"),
    ("base.dcmp_calls", "count", "count", "base.dcmp.calls"),
    ("base.dcmp_ms", "ms", "incl", "base.dcmp"),
    ("base.equation_ids_total", "count", "count", "base.equation_ids_total"),
    ("normalization.compute_norms_ms", "ms", "incl", "normalization.compute_norms"),
    ("normalization.contract_loops_ms", "ms", "incl", "normalization.contract_loops"),
    ("normalization.classify_rules_ms", "ms", "incl", "normalization.classify_rules"),
    ("normalization.standardize_ms", "ms", "self", "normalization.standardize"),
    ("model.parse_ms", "ms", "incl", "model.parse"),
    ("oracle.closure_calls", "count", "count", "oracle.closure.calls"),
    ("oracle.closure_ms", "ms", "incl", "oracle.closure"),
    ("oracle.closure_states_max", "count", "count", "oracle.closure_states_max"),
    ("oracle.expansions", "count", "count", "oracle.expansion.calls"),
    ("oracle.level_ms", "ms", "incl", "oracle.level"),
    ("oracle.extract_ms", "ms", "incl", "oracle.extract"),
    ("oracle.certificate_nodes", "count", "count", "oracle.certificate_nodes"),
    ("oracle.replay_ms", "ms", "incl", "oracle.replay"),
    ("oracle.verify_generators_ms", "ms", "incl", "oracle.verify_generators"),
    ("oracle.certificates_replayed", "count", "count", "oracle.certificates_replayed"),
    ("oracle.certificates_skipped", "count", "count", "oracle.certificates_skipped"),
    ("oracle.generate_ms", "ms", "incl", "oracle.generate"),
]


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(tracer, counters: dict, traced_ops: int, pairs: list[tuple[float, float]]) -> dict:
    sources = {"incl": tracer.incl_s, "self": tracer.self_s}
    metrics = {}
    for name, unit, source, key in LAYER_METRICS:
        if source == "count":
            value = counters.get(key, 0)
        elif source == "peak":
            value = tracer.peaks.get(key, 0.0)
        else:
            value = sources[source].get(key, 0.0) * 1e3 / traced_ops
        metrics[name] = metric(value, unit)
    c = lambda key: counters.get(key, 0)
    replayed, skipped = c("oracle.certificates_replayed"), c("oracle.certificates_skipped")
    metrics["engine.useful_ratio"] = metric(ratio(c("engine.accepted"), c("engine.candidates")), "ratio")
    metrics["oracle.replayed_ratio"] = metric(ratio(replayed, replayed + skipped), "ratio")
    untraced = sum(u for u, _ in pairs)
    traced = sum(t for _, t in pairs)
    metrics["trace.overhead_ms"] = metric(statistics.median(t - u for u, t in pairs) * 1e3, "ms")
    metrics["trace.overhead_pct"] = metric(100 * ratio(traced - untraced, untraced), "%")
    return metrics


def op_rng(seed: int, cycle: int, key: str) -> random.Random:
    return random.Random(f"{seed}-{cycle}-{key}")


def run_untraced(workload, seed: int, cycles: int, digests: dict, probe, imports) -> tuple[list, list]:
    """Every execution, and per op the best of its passes.

    The op list runs `workload.passes` times in the same order, so the
    executions of one op lie a whole pass apart.  An op's time, and each of its
    query times, is the fastest of its executions: contention from other
    tenants of a shared host comes in spells of seconds that slow an op by up
    to 1.9x, and rarely covers every pass.  Between ops the host
    probe and the cold imports take their samples.
    """
    from workloads import Outcome, run_op

    ops = [(c, key) for c, keys in enumerate(workload.schedule(seed, cycles)) for key in keys]
    passes = []
    for _ in range(workload.passes):
        executions = []
        for c, key in ops:
            executions.append(run_op(workload, key, op_rng(seed, c, key), digests))
            probe.keep_up(executions[-1].seconds)
            imports.keep_up(executions[-1].seconds)
        passes.append(executions)
    best = [
        Outcome(
            min(e.seconds for e in runs),
            [min(q) for q in zip(*(e.query_seconds for e in runs))],
            [p for e in runs for p in e.problems],
        )
        for runs in zip(*passes)
    ]
    return [e for runs in passes for e in runs], best


def run_traced(workload, seed: int, cycles: int, digests: dict):
    """The first cycle traced with memory peaks on, for counters and peaks;
    then a quarter as many cycles as the untraced run, each op run untraced and
    traced in turn, for layer timings and the tracing overhead."""
    from tracing import Tracer
    from workloads import run_op

    tracer = Tracer()
    outcomes = []
    schedule = workload.schedule(seed, 1 + max(1, cycles // 4))
    tracer.memory = True
    for key in schedule[0]:
        tracer.op += 1
        outcomes.append(run_op(workload, key, op_rng(seed, 0, key), digests, tracer))
    tracer.memory = False
    counters = tracer.counter_block()
    tracer.reset_timings()
    pairs = []
    for c, keys in enumerate(schedule[1:], 1):
        for key in keys:
            plain = run_op(workload, key, op_rng(seed, c, key), digests)
            tracer.op += 1
            traced = run_op(workload, key, op_rng(seed, c, key), digests, tracer)
            outcomes += [plain, traced]
            pairs.append((plain.seconds, traced.seconds))
    metrics = per_layer(tracer, counters, len(pairs), pairs)
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{workload.name}-seed{seed}.json"
    trace_file.write_text(json.dumps({
        "workload": workload.name,
        "seed": seed,
        "ops": [{"op": i, "key": key, "memory_traced": i < len(schedule[0])}
                for i, key in enumerate(schedule[0] + [k for keys in schedule[1:] for k in keys])],
        "counters": counters,
        "spans": [{"name": n, "start": s, "end": e, "parent": p, "op": o} for n, s, e, p, o in tracer.spans],
    }) + "\n")
    return outcomes, metrics, counters, trace_file


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "tnbpa" / "__init__.py").is_file():
        fail(f"no tnbpa sources under {SRC}; run from a source checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS, load_digests

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    digests = load_digests()[workload.name]
    cycles = max(1, round(args.seconds / (workload.passes * workload.nominal_cycle_s)))

    started = time.perf_counter()
    if args.trace:
        outcomes, metrics, counters, trace_file = run_traced(workload, args.seed, cycles, digests)
        print(f"counters {json.dumps(counters, sort_keys=True)}")
        print(f"spans written to {trace_file.relative_to(ROOT)}")
        for name, m in sorted(metrics.items()):
            print(f"  {name:<34} {m['value']:14.4f} {m['unit']}")
    else:
        from hostspeed import IMPORT_REFERENCE_S, Probe

        probe, imports = Probe(workload), ColdImports()
        outcomes, best = run_untraced(workload, args.seed, cycles, digests, probe, imports)
        metrics, summary = end_to_end(best, outcomes, imports.setup_s(IMPORT_REFERENCE_S), probe,
                                      workload.passes > 1)
        print(summary)
    failed = [o for o in outcomes if o.problems]
    for o in failed[:20]:
        print("failed op: " + "; ".join(o.problems[:3]), file=sys.stderr)
    print(f"{workload.name} seed {args.seed}: {len(outcomes)} executions, {len(failed)} failed, "
          f"{time.perf_counter() - started:.1f} s", file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
