"""A fixed task that tracks how fast the shared host runs right now.

The host's speed drifts.  It switches between a fast and a slow mode, the
slow one about 1.7 times slower, within seconds, and the share of time it
spends slow changes from minute to minute; CPU time equals wall time and
steal time stays near 0 meanwhile.  So two runs of one commit differ by more
than a real change would.  A run therefore interleaves samples of a fixed
task with its ops and scales its op and query times by ``REFERENCE_MS /`` a
statistic of the samples that sees the host as those times do:

- where each op time is the fastest of its passes, a whole pass apart, the
  times show mostly the fast mode, and so does the samples' tenth percentile;
- where each op runs once, its time averages the modes over its length, and
  so does the samples' mean, as the samples are spread over the run.

The task is one small op of the same workload, run on `tnbpa_frozen`, a copy
of the package as it stood when the benchmark was defined.  It does the same
kind of work as the ops, so contention slows both alike, and a change to
``src/`` cannot move it.  The garbage collector is off while a sample runs, so
the heap the program under test leaves behind is not walked.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Callable

from tnbpa_frozen import engine, model, normalization, oracle

# Each task's statistic (above), rounded, on a 2-CPU Xeon virtual machine in
# one of the host's fast periods.
REFERENCE_MS = {"engine-random": 22.0, "norm-blowup": 12.0, "oracle-differential": 10.0}
# A cold import of tnbpa_frozen on the same machine, rounded; `setup_s` is
# reported as the cold import of tnbpa over it, times this.
IMPORT_REFERENCE_S = 0.18
# Samples are taken until they add up to this share of the op time so far.
SHARE = 0.1


def _decide(text: str) -> None:
    std = normalization.standardize(model.parse_system(text))
    engine.compute_bisimilarity_base(std)


def task(workload) -> Callable[[], None]:
    """One fixed small op of `workload`, on the frozen package."""
    if workload.name == "engine-random":
        text = model.serialize_system(oracle.random_system(workload.params(64, 4, 1)))
        return lambda: _decide(text)
    if workload.name == "norm-blowup":
        texts = []
        for letter, build in workload.families.values():
            names = " ".join(f"{letter}{i}" for i in range(13))
            texts.append("\n".join([f"constants: {names}", *build(13)]) + "\n")
        return lambda: [_decide(text) for text in texts]
    trials = [workload.params(t) for t in (0, 5)]
    return lambda: [
        oracle.differential_trial(p, workload.k_max, pairs_per_trial=20, confirm_k=workload.confirm_k)
        for p in trials
    ]


class Probe:
    def __init__(self, workload) -> None:
        self.reference_s = REFERENCE_MS[workload.name] / 1e3
        self.task = task(workload)
        self.samples: list[float] = []
        self.sampled_s = 0.0
        self.busy_s = 0.0
        self.task()  # warm-up, not kept

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self.task()
            seconds = time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        self.samples.append(seconds)
        self.sampled_s += seconds

    def keep_up(self, op_seconds: float) -> None:
        """Count one op's time and sample until the share is reached."""
        self.busy_s += op_seconds
        while self.sampled_s < SHARE * self.busy_s:
            self.sample()

    def scale(self, fastest_of_passes: bool) -> float:
        """The factor that turns this run's times into reference-speed times."""
        return self.reference_s / self.statistic(fastest_of_passes)

    def statistic(self, fastest_of_passes: bool) -> float:
        if fastest_of_passes:
            return statistics.quantiles(self.samples, n=10)[0]
        return statistics.mean(self.samples)
