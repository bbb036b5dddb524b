"""Byte-level pins of the engine's decisions.

Each case runs ``tnbpa base FILE --json --iterations --trace T`` and compares
the sha256 of standard output and of the trace file with digests recorded
from the engine that built every decomposition as a `NormedString`.  The
output holds every candidate tested, its step and every pass's base, so an
engine speedup that changes any decision, or the order candidates are tried
in, fails here.  The random cases also depend on `random_system`'s output for
their parameters.  A change that means to alter a trace updates the digests
in the same commit and says why.
"""

import hashlib
import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from tnbpa.cli import main
from tnbpa.model import serialize_system
from tnbpa.oracle import GenParams, random_system

SYSTEMS_DIR = Path(__file__).resolve().parents[1] / "systems"

# Random systems spanning silent-free to silent-heavy, unit to large norms.
RANDOM_CASES = {
    "rand-n24-cap1-s0": GenParams(constants=24, norm_cap=1, silent_prob=0.0, composite_prob=0.4, seed=3),
    "rand-n24-cap4-s30": GenParams(constants=24, norm_cap=4, silent_prob=0.3, composite_prob=0.4, seed=5),
    "rand-n32-cap8-s45": GenParams(constants=32, norm_cap=8, silent_prob=0.45, composite_prob=0.4, seed=8),
    "rand-n40-cap4-s15": GenParams(constants=40, norm_cap=4, silent_prob=0.15, composite_prob=0.5, seed=13),
    "rand-n48-cap2-s30": GenParams(constants=48, norm_cap=2, silent_prob=0.3, composite_prob=0.4, seed=21),
    "rand-n64-cap8-s0": GenParams(constants=64, norm_cap=8, silent_prob=0.0, composite_prob=0.4, seed=34),
}

# name -> (sha256 of stdout, sha256 of the --trace file)
PINNED = {
    "ex1.bpa": (
        "aca2f39c0e64d082f0600a389699b12432b70ec69da23907d25bcea9bf99e10a",
        "d16dd7ca6bc28a2f6f1a464365e3030cf4c6907ba4ed576e1e166b79e89aec54",
    ),
    "sys-b.bpa": (
        "3fb463d9e9e0ed54c47a45fa33ff05120ec676b80ce94c338d53d45f0e36b573",
        "c85c6aac77948e8324d5c11abb2083564fa79fcd9065f8c684799a82941ab5f9",
    ),
    "rand-n24-cap1-s0": (
        "f50405a8a94105d4d6aa026ace1e255dde1d18099b477e74cb7f3e5aa5ba3c48",
        "bfcedb02dc1c9554b81070efc048185dd7cbaebbbb35e87e5b31868db0a28bd3",
    ),
    "rand-n24-cap4-s30": (
        "5390e195889205225f6d8843055c9d296c58ff78fb98f69946fc761a5f8b4528",
        "8b0edaabede7a2e451cf8b1c98f2c54b889de3457711f95da389b4e69217899d",
    ),
    "rand-n32-cap8-s45": (
        "5dc3e96db565d9e3ccdd6d78a8f648f21770dd0ae57e02ccec44896fd7975cc1",
        "7e1d735b841045e284c8fe5583fcbfbac6f75c16aaf7dd681fef1b43018a5668",
    ),
    "rand-n40-cap4-s15": (
        "566303f526e7aab62032c4f29cc7bf835545e82f575f413ddeb8176ba4d58ac4",
        "0eb4b50e6bbea4e84d068b50b15414fd612ea1728a7b0ecfc7cca5d988c184f7",
    ),
    "rand-n48-cap2-s30": (
        "e443d76607a87954d7e434a24137f0eb631874a97bbe3cfd42cc05738cdb905c",
        "9982b9bb2648a2ef5757704e5d74d0b8f3170b64d3d979476b3d17b70805d172",
    ),
    "rand-n64-cap8-s0": (
        "e10b23b4f74bea630e7695c7ac8b0397a74ca395830d858d9807df759440c9b5",
        "637c9bc68dd826770b6f7a0288469aaa430c7bed3791e9d4b4b5d5eb29826394",
    ),
}


def _sha(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


def base_digests(system_file: Path, trace_file: Path) -> tuple[str, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["base", str(system_file), "--json", "--iterations", "--trace", str(trace_file)])
    assert code == 0, f"tnbpa base exited {code} on {system_file}"
    return _sha(out.getvalue()), _sha(trace_file.read_text())


def case_file(name: str, tmp_path: Path) -> Path:
    if name in RANDOM_CASES:
        path = tmp_path / f"{name}.bpa"
        path.write_text(serialize_system(random_system(RANDOM_CASES[name])))
        return path
    return SYSTEMS_DIR / name


CASES = sorted(p.name for p in SYSTEMS_DIR.glob("*.bpa")) + list(RANDOM_CASES)


def test_every_case_is_pinned():
    assert sorted(PINNED) == sorted(CASES)


@pytest.mark.parametrize("name", CASES)
def test_base_output_and_trace_are_unchanged(name, tmp_path):
    got = base_digests(case_file(name, tmp_path), tmp_path / "trace.json")
    assert got == PINNED[name]
