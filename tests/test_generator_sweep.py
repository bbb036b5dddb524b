"""Byte-level pins of the random generator's output.

`generator_sweep.json` holds about 200 parameter sets, each with the sha256
of ``serialize_system(random_system(params))``.  The sweep covers n from 1 to
256, norm caps 1, 2, 4, 8 and 10^9, silent and composite probabilities from
0 to 1, 0 to 3 extra rules and alphabets of 1 to 3 actions.  The digests were
recorded with the generator that rebuilt its option lists for every pick, so
a change to how the generator finds its options must leave every one of them
in place.  Many tests and every benchmark input are drawn from this
generator, so a moved digest moves their inputs too.
"""

import hashlib
import json
import tracemalloc
from pathlib import Path

from tnbpa.model import serialize_system
from tnbpa.normalization import check_totally_normed, compute_norms
from tnbpa.oracle import GenParams, random_system

SWEEP = json.loads(Path(__file__).with_name("generator_sweep.json").read_text())


def _params(entry: dict) -> GenParams:
    return GenParams(**{k: v for k, v in entry.items() if k != "sha256"})


def test_the_sweep_covers_its_ranges():
    params = [_params(entry) for entry in SWEEP]
    assert len(params) == 200
    assert {p.constants for p in params} >= {1, 256}
    assert {p.norm_cap for p in params} == {1, 2, 4, 8, 10**9}
    assert {p.extra_rules for p in params} == {0, 1, 2, 3}
    assert {p.alphabet for p in params} == {1, 2, 3}
    for knob in ("silent_prob", "composite_prob"):
        assert {0.0, 1.0} <= {getattr(p, knob) for p in params}


def test_generator_output_is_unchanged_on_the_sweep():
    # The generator builds totally normed systems without checking; this
    # checks every one of the sweep.
    moved, not_totally_normed = [], []
    for entry in SWEEP:
        sys = random_system(_params(entry))
        if hashlib.sha256(serialize_system(sys).encode()).hexdigest() != entry["sha256"]:
            moved.append(entry["seed"])
        if check_totally_normed(sys, compute_norms(sys)):
            not_totally_normed.append(entry["seed"])
    assert moved == []
    assert not_totally_normed == []


def _peak_bytes(params: GenParams) -> int:
    tracemalloc.start()
    try:
        random_system(params)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_generator_memory_does_not_grow_with_the_cap():
    # The generator keeps its option lists per norm that a budget reads, so a
    # huge cap, with a distinct norm for almost every constant, costs about
    # what cap 4 costs.  Lists kept for every norm that occurs would take
    # about three times as much at n = 1024.
    huge, small = (
        _peak_bytes(GenParams(constants=1024, norm_cap=cap, seed=42)) for cap in (10**9, 4)
    )
    assert huge < 1.5 * small
