"""Byte-level pins of the engine's decisions.

Each case runs ``tnbpa base FILE --json --iterations --trace T`` and
``tnbpa base FILE --iterations`` and compares the sha256 of both standard
outputs and of the trace file with recorded digests.  The JSON output and the
trace hold every candidate tested and its step, so an engine change that
alters any decision, or which candidates are tried and in what order, fails
here.  The plain-text output holds only the base after each pass: its digest
was recorded before candidates were matched against the fixed decreasing rule
and must not move under a change that only prunes candidates.  The random
cases also depend on `random_system`'s output for their parameters.  A change
that means to alter a trace updates the digests in the same commit and says
why.
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

# name -> sha256 of (--json --iterations stdout, the --trace file, plain-text
# --iterations stdout)
PINNED = {
    "ex1.bpa": (
        "47139e383c9959fc093c8828d690666fc9f850dd8ea2989b8c07d0d3471820b9",
        "da9bc34c68af17c9277777c782613a7547a9096250a8d88d18f5dc5739835972",
        "4ceaa7158a3aa3b2d36791ed8d516192c146e080ad3338a319104d813197bdb9",
    ),
    "sys-b.bpa": (
        "3fb463d9e9e0ed54c47a45fa33ff05120ec676b80ce94c338d53d45f0e36b573",
        "c85c6aac77948e8324d5c11abb2083564fa79fcd9065f8c684799a82941ab5f9",
        "9c9f48e4d11ebf6c739ad239d518281109d01214c8981abaa84f1275f20e52ff",
    ),
    "rand-n24-cap1-s0": (
        "359768b45f5e3f1bca68fb5635900f6e296d0720a20dcd47c788e3f5130824f0",
        "aa5b5448aa20c3cb813c6da82d7ffcda9c53f5c81c5aa64d67b067a253b22664",
        "31e4155805d50f0293100fe91608697929ba932e64ce825dbc5427d2780db6ff",
    ),
    "rand-n24-cap4-s30": (
        "2575460caea97555d91d6e4ec11b3031867cc8e9dbaae920bd009cee1ee702f0",
        "e22416a9138767eb36f911559f812836ee723a9ba170f3b0b9d02ecd4da90d1f",
        "0235a895bf1b497a6d0404abf3ee42d524434b64d840ccf4ffe34663f7ee105e",
    ),
    "rand-n32-cap8-s45": (
        "130fdf7172823d186572540d46c3c3ca90b1c1406248ef881088f7f72cb1db71",
        "0d376658aed25818428cf5b26d9ce988353a28b1661c6040f9564769bb72fd48",
        "c9d9a813506a7428f7acd9c33e1c48e729a77194861ed8b76ba8d297142a33ad",
    ),
    "rand-n40-cap4-s15": (
        "a0580b6112faee0ccbef957b076b4c0625bf9c3acf81d07b17ee6a3dccdd7f55",
        "cff15ca7017bf87aed6a6611f351edf8a41859246dea17e274567d20740a6b43",
        "ccf70f7f2ba93d006edfe77d02a38259806b6f9a8eb02f64e8739847ef3bfa89",
    ),
    "rand-n48-cap2-s30": (
        "36925a178472dba0f661de1db0ded31c8e00a78ddbf09dfe3b6b2a2fc8ae1fbd",
        "3c929b80f467c205a7ea268a89d4cc736d0dae3169e047e9e710763d1a3faed5",
        "163ff060bed498ca3c31d8af3cfee8d35e04c66873a71065e2b593a39012fff4",
    ),
    "rand-n64-cap8-s0": (
        "95141d4710160d1b1704ce0170aa66b5fb75b50ff629e4cd8f52b2c919a4274b",
        "79c711f7ac1474f19b8a64348b137dd1ace88bb66e76e2ac62d30694941b9951",
        "fe075435a7c0ca003cfa5159633f1094f59e0af6d62a21b7bd375b103226213d",
    ),
}


def _sha(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


def _base_stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["base", *argv])
    assert code == 0, f"tnbpa base exited {code} on {argv[0]}"
    return out.getvalue()


def base_digests(system_file: Path, trace_file: Path) -> tuple[str, str, str]:
    json_out = _base_stdout([str(system_file), "--json", "--iterations", "--trace", str(trace_file)])
    text_out = _base_stdout([str(system_file), "--iterations"])
    return _sha(json_out), _sha(trace_file.read_text()), _sha(text_out)


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
