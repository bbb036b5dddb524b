"""Re-measure the roadmap's baseline table through the benchmark's tracer.

    python3 perfbench/roadmap_table.py

Rows: random systems at norm cap 4, seed 42, n = 256 / 512 / 1024; the
norm-doubling chain at n = 14 / 16 / 18; a 30-trial fuzz run at n = 8; a cold
``tnbpa check systems/ex1.bpa``.  Times are medians of three untraced runs;
counts come from one traced run.  The n = 512 row doubles as a spot check of
the counting code: its candidate and per-step counts must equal the ones
profiled by hand at the seed commit, else the script exits 1.  A change that
prunes candidates moves them on purpose.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from tnbpa import engine, model, normalization, oracle  # noqa: E402
from tnbpa.model import serialize_system  # noqa: E402
from run import measure_setup  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import EngineRandom, doubling_chain  # noqa: E402

SPOT_CHECK = {
    "engine.candidates": 49_552,
    "engine.accepted": 1_039,
    "engine.reject_step1": 6_782,
    "engine.reject_step2": 31_034,
    "engine.reject_step3": 5_165,
    "engine.reject_step5": 2_044,
    "engine.reject_step6": 3_488,
}


def median_time(fn, repeats: int = 3) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def traced(fn) -> dict:
    tracer = Tracer()
    tracer.install()
    try:
        fn()
    finally:
        tracer.uninstall()
    return tracer.counter_block()


def decide(text: str) -> None:
    engine.compute_bisimilarity_base(normalization.standardize(model.parse_system(text)))


def main() -> int:
    rows = []
    wrong = []
    for n in (256, 512, 1024):
        sys_ = model.parse_system(serialize_system(oracle.random_system(EngineRandom.params(n, 4, 42))))
        std_s = median_time(lambda: normalization.standardize(sys_))
        std = normalization.standardize(sys_)
        refine_s = median_time(lambda: engine.compute_bisimilarity_base(std))
        c = traced(lambda: engine.compute_bisimilarity_base(std))
        rows.append(f"| random cap 4, n = {n} | refine {refine_s:.2f} s; standardize {std_s * 1e3:.0f} ms; "
                    f"{c['engine.candidates']:,} candidates; {c['engine.passes']} passes |")
        if n == 512:
            wrong = [f"{k}: counted {c.get(k, 0)}, reference {v}" for k, v in SPOT_CHECK.items() if c.get(k, 0) != v]
    for n in (14, 16, 18):
        text = "\n".join([f"constants: {' '.join(f'X{i}' for i in range(n))}", *doubling_chain(n)]) + "\n"
        seconds = median_time(lambda: decide(text))
        tracemalloc.start()
        decide(text)
        peak = tracemalloc.get_traced_memory()[1] / (1 << 20)
        tracemalloc.stop()
        rows.append(f"| doubling chain, n = {n} | {seconds:.3f} s; peak {peak:.1f} MB |")
    fuzz = lambda: oracle.differential_run(oracle.GenParams(constants=8), 30)
    rows.append(f"| 30-trial fuzz, n = 8 | {median_time(fuzz):.2f} s |")
    cmd = [sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); from tnbpa.cli import main; main(sys.argv[1:])",
           "check", "systems/ex1.bpa", "--left", "X", "--right", "Y"]
    check_s = median_time(lambda: subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=60), 5)
    rows.append(f"| `tnbpa check`, cold | {check_s:.2f} s wall; `import tnbpa` {measure_setup():.2f} s |")
    print("| Workload | Measured |\n|---|---|\n" + "\n".join(rows))
    for line in wrong:
        print(line, file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
