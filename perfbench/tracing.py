"""Per-layer spans and counters, recorded from outside the tnbpa package.

`Tracer.install` swaps public functions and methods of the package for
wrappers that time each call; `uninstall` puts the originals back.  A function
is replaced in every tnbpa module that imported it by name, so calls between
modules are seen too.  Nothing under ``src/`` changes.

Each call is a frame on one stack.  On exit its duration is added to the
layer's inclusive time (outermost call of that name only, so recursion is not
counted twice) and, minus the time of the wrapped calls inside it, to the
layer's self time.  Calls of the coarse layers are also kept as spans (name,
start, end, parent span, op id) and written out at the end; the hot calls
(strings, ``dcmp``, ``lpftest``, closures, queries) are aggregated in place, as
one span each would cost more memory than the work they measure.

Counters are kept apart from timings: they depend only on the inputs, so two
runs over the same ops give byte-identical counter blocks.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable

from tnbpa import base, engine, model, normalization, oracle, strings

MB = 1 << 20

# (owner, attribute, layer name, keep individual spans)
TARGETS = [
    (model, "parse_system", "model.parse", True),
    (normalization, "standardize", "normalization.standardize", True),
    (normalization, "compute_norms", "normalization.compute_norms", True),
    (normalization, "contract_loops", "normalization.contract_loops", True),
    (normalization, "classify_rules", "normalization.classify_rules", True),
    (strings.NormedString, "__init__", "strings.init", False),
    (strings.NormedString, "split_at_norm", "strings.split", False),
    (base, "initial_base", "base.initial_base", True),
    (base.DecompositionBase, "dcmp", "base.dcmp", False),
    (engine, "compute_bisimilarity_base", "engine.base", True),
    (engine, "refine", "engine.refine", True),
    (engine, "candidates_for", "engine.candidates_for", False),
    (engine, "lpftest", "engine.lpftest", False),
    (engine, "check_equivalence", "engine.query", False),
    (oracle, "random_system", "oracle.generate", True),
    (oracle, "silent_closure_dec", "oracle.closure", False),
    (oracle.GameContext, "expansion_holds", "oracle.expansion", False),
    (oracle.GameContext, "refutation_level", "oracle.level", True),
    (oracle.GameContext, "find_distinction", "oracle.extract", True),
    (oracle, "replay_distinction", "oracle.replay", True),
    (oracle, "verify_base_generators", "oracle.verify_generators", True),
    (oracle, "differential_trial", "oracle.trial", True),
]

# Layers whose calls run under tracemalloc while `Tracer.memory` is set; the
# peak is the most memory one call allocated.  tracemalloc slows these calls
# about sevenfold, so it stays off everywhere else.
PEAK_LAYERS = ("engine.refine", "base.initial_base")


def _equation_ids(b) -> int:
    return sum(len(rhs.ids) for rhs in b.equations.values())


class Tracer:
    """Frames, spans, counters and memory peaks of the wrapped calls."""

    def __init__(self) -> None:
        self.op = -1
        self.memory = False
        self.stack: list[list] = []  # [name, start, child seconds, span index]
        self.current_span = -1
        self.depth: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self.peaks: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.reset_timings()
        self._patches = self._build_patches()

    def reset_timings(self) -> None:
        self.incl_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)

    # -- frames --------------------------------------------------------------

    def enter(self, name: str, keep: bool) -> list:
        index = -1
        if keep:
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, self.current_span, self.op))
            self.current_span = index
        self.depth[name] += 1
        frame = [name, time.perf_counter(), 0.0, index]
        self.stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        name, start, child, index = frame
        self.stack.pop()
        duration = end - start
        self.self_s[name] += duration - child
        self.counts[name + ".calls"] += 1
        self.depth[name] -= 1
        if not self.depth[name]:
            self.incl_s[name] += duration
        if self.stack:
            self.stack[-1][2] += duration
        if index >= 0:
            parent = self.spans[index][3]
            self.spans[index] = (name, start, end, parent, self.op)
            self.current_span = parent

    @contextmanager
    def span(self, name: str):
        frame = self.enter(name, True)
        try:
            yield
        finally:
            self.exit(frame)

    # -- patching ------------------------------------------------------------

    def _wrap(self, fn: Callable, name: str, keep: bool) -> Callable:
        enter, exit_ = self.enter, self.exit
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        peak = name in PEAK_LAYERS
        if name == "engine.base":
            def wrapper(*args, **kwargs):
                mode = args[1] if len(args) > 1 else kwargs.get("mode", engine.CandidateMode.PRUNED)
                label = "engine.exhaustive" if mode is engine.CandidateMode.EXHAUSTIVE else name
                frame = enter(label, keep)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_(frame)
            return wrapper

        def wrapper(*args, **kwargs):
            measure = peak and self.memory
            if measure:
                tracemalloc.start()
            frame = enter(name, keep)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(frame)
                if measure:
                    grown = tracemalloc.get_traced_memory()[1] / MB
                    tracemalloc.stop()
                    self.peaks[name] = max(self.peaks[name], grown)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _build_patches(self) -> list[tuple[object, str, Callable, Callable]]:
        modules = [m for n, m in sys.modules.items() if n == "tnbpa" or n.startswith("tnbpa.")]
        patches = []
        for owner, attr, name, keep in TARGETS:
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, name, keep)
            if isinstance(owner, type):
                patches.append((owner, attr, original, wrapper))
                continue
            for module in modules:
                for alias, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, alias, original, wrapper))
        return patches

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- counters read from returned values ----------------------------------

    def _after_engine_refine(self, args, result) -> None:
        new_base, record = result
        c = self.counts
        c["engine.passes"] += 1
        c["base.equation_ids_total"] += _equation_ids(new_base)
        for outcome in record.constants:
            for cand in outcome.candidates:
                c["engine.candidates"] += 1
                if cand.accepted:
                    c["engine.accepted"] += 1
                    c[f"engine.accept_step{cand.step}"] += 1
                else:
                    c[f"engine.reject_step{cand.step}"] += 1

    def _after_base_initial_base(self, args, result) -> None:
        self.counts["base.equation_ids_total"] += _equation_ids(result)

    def _after_oracle_closure(self, args, result) -> None:
        self.maxima["oracle.closure_states_max"] = max(
            self.maxima["oracle.closure_states_max"], len(result.states)
        )

    def _after_oracle_replay(self, args, result) -> None:
        self.counts["oracle.certificate_nodes"] += args[1].size()

    def _after_oracle_trial(self, args, result) -> None:
        summary = result.to_json()
        self.counts["oracle.certificates_replayed"] += summary["certificates_replayed"]
        self.counts["oracle.certificates_skipped"] += summary["certificates_skipped"]

    def counter_block(self) -> dict[str, int]:
        return dict(sorted({**self.counts, **self.maxima}.items()))

