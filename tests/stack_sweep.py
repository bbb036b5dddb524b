"""Op times and minor page faults of the decision and the oracle at each stack depth.

    PYTHONPATH=src python tests/stack_sweep.py

Pytest does not collect this script.  It takes its inputs from the
benchmark's own workload classes in `perfbench/workloads.py`, so it runs
what the benchmark runs.  Each offset of 0 to 17 runs in a fresh
interpreter, which calls the ops from under that many padding frames of
about 1 KB each, so the ops' own frames start that much deeper in CPython's
frame stack.  Two op sets run at every offset:

- engine-random: parse, standardize and the base of the `engine-random`
  workload's systems (n 128..512, cap 1, 4, 8), the first four seeds of its
  pool;
- corpus: the `oracle-differential` workload's trials, the 105-trial
  acceptance corpus at its k and confirmation k.

For each set it prints the median op time and the minor page faults
(`ru_minflt`) the set took.  Under CPython 3.11 both move with the depth
alone, so a timing change of a few percent in the oracle can be a frame
that moved rather than work that changed.
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

OFFSETS = range(18)  # padding frames
POOL_SEEDS = 4  # engine-random pool seeds per (n, cap)
PAD_LOCALS = 120  # 8 bytes a slot: a padding frame of about 1 KB


def _padding_function():
    names = " = ".join(f"v{i}" for i in range(PAD_LOCALS))
    source = (
        "def pad(depth, run):\n"
        f"    {names} = depth\n"
        "    return pad(depth - 1, run) if depth else run()\n"
    )
    scope: dict = {}
    exec(source, scope)
    return scope["pad"]


def _timed(ops: list) -> dict:
    """The median op time in ms and the minor page faults of all the ops."""
    times = []
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for op in ops:
        t0 = time.perf_counter()
        op()
        times.append(time.perf_counter() - t0)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return {"median_ms": statistics.median(times) * 1e3, "minflt": faults}


def run_offset(offset: int) -> dict:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import EngineRandom, OracleDifferential

    from tnbpa.engine import compute_bisimilarity_base
    from tnbpa.model import parse_system, serialize_system
    from tnbpa.normalization import standardize
    from tnbpa.oracle import differential_trial, random_system

    er, od = EngineRandom(), OracleDifferential()
    texts = [
        serialize_system(random_system(er.params(n, cap, s)))
        for n, cap in er.combos
        for s in er.pool[:POOL_SEEDS]
    ]

    def decide(text: str):
        return lambda: compute_bisimilarity_base(standardize(parse_system(text)))

    def trial(t: int):
        params = od.params(t)
        return lambda: differential_trial(params, od.k_max, pairs_per_trial=20, confirm_k=od.confirm_k)

    pad = _padding_function()
    return {
        "offset": offset,
        "engine-random": pad(offset, lambda: _timed([decide(t) for t in texts])),
        "corpus": pad(offset, lambda: _timed([trial(t) for t in range(od.trials)])),
    }


def main(argv: list[str]) -> int:
    if argv:  # one offset, in the fresh interpreter the sweep started
        print(json.dumps(run_offset(int(argv[0]))))
        return 0
    print(f"{'offset':>6} {'engine-random ms':>17} {'minflt':>8} {'corpus ms':>10} {'minflt':>8}")
    for offset in OFFSETS:
        done = subprocess.run(
            [sys.executable, __file__, str(offset)], capture_output=True, text=True, check=True
        )
        row = json.loads(done.stdout)
        er, co = row["engine-random"], row["corpus"]
        print(f"{offset:>6} {er['median_ms']:>17.2f} {er['minflt']:>8} {co['median_ms']:>10.2f} {co['minflt']:>8}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
