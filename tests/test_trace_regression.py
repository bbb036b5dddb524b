"""Byte-level pins of the engine's decisions.

Each case runs ``tnbpa base FILE --json --iterations --trace T`` and
``tnbpa base FILE --iterations`` and compares the sha256 of both standard
outputs and of the trace file with recorded digests.  The JSON output and the
trace hold every candidate tested and its step, so an engine change that
alters any decision, or which candidates are tried and in what order, fails
here.  The plain-text output holds only the base after each pass: its digest
was recorded before candidates were matched against the fixed decreasing rule
and must not move under a change that only prunes candidates.  The JSON and
trace digests last moved when pruned mode began to accept candidates by their
signature, so that its traces list only accepted and in-place candidates.  The random
cases also depend on `random_system`'s output for their parameters.  A change
that means to alter a trace updates the digests in the same commit and says
why.

``tnbpa standardize FILE`` is pinned the same way, on every system file and on
a planted three-cycle: its comment lines list, for each standard constant, the
original names merged into it.
"""

import hashlib
from pathlib import Path

import pytest

from conftest import SYSTEMS, THREE_CYCLE, chain_text, engine_random_params, run_cli, write_system
from tnbpa.model import serialize_system
from tnbpa.oracle import GenParams, random_system

# Random systems spanning silent-free to silent-heavy, unit to large norms.
RANDOM_CASES = {
    "rand-n24-cap1-s0": GenParams(constants=24, norm_cap=1, silent_prob=0.0, composite_prob=0.4, seed=3),
    "rand-n24-cap4-s30": GenParams(constants=24, norm_cap=4, silent_prob=0.3, composite_prob=0.4, seed=5),
    "rand-n32-cap8-s45": GenParams(constants=32, norm_cap=8, silent_prob=0.45, composite_prob=0.4, seed=8),
    "rand-n40-cap4-s15": GenParams(constants=40, norm_cap=4, silent_prob=0.15, composite_prob=0.5, seed=13),
    "rand-n48-cap2-s30": GenParams(constants=48, norm_cap=2, silent_prob=0.3, composite_prob=0.4, seed=21),
    "rand-n64-cap8-s0": GenParams(constants=64, norm_cap=8, silent_prob=0.0, composite_prob=0.4, seed=34),
    # The benchmark's engine-random settings, where cuts of several lengths
    # and signatures shared by several primes occur.
    "rand-n256-cap4-s30": engine_random_params(256, 4, 55),
    "rand-n512-cap8-s30": engine_random_params(512, 8, 89),
}

# The norm-blowup families: at n = 6 every word is narrower than 64 ids, at
# n = 10 the top words are 512 and 1,023 ids wide.
CHAIN_CASES = {f"{family}-n{n}": (family, n) for family in ("doubling", "clone") for n in (6, 10)}

# name -> sha256 of (--json --iterations stdout, the --trace file, plain-text
# --iterations stdout)
PINNED = {
    "ex1.bpa": (
        "f592075f7af5e20cf01e32c2887822dead0d69f7fe8ca2dbd0a74836a20f823b",
        "da0f68579f59c8fc033b4d36bb072ef7932adf3983801253cd3a1fcd0869b099",
        "4ceaa7158a3aa3b2d36791ed8d516192c146e080ad3338a319104d813197bdb9",
    ),
    "sys-b.bpa": (
        "f6b2ec7fd3d21f3d116b7d5fcc85979f3c49d2d7c3cb97ee5f65be2ef1ea99b6",
        "cdeae69cd92ceaae43805e3b14b223ef7e4c4b7761afffe422e9a924483844df",
        "9c9f48e4d11ebf6c739ad239d518281109d01214c8981abaa84f1275f20e52ff",
    ),
    "silent-cycle.bpa": (
        "3786eec9d485d5f3ebde9144b6506c9ce3d5362d42ee17e9308a5391b6d1d916",
        "72ad857b2d612506b7a0e1e4720a96eb893a4c7b873dae691acaa848806cef60",
        "38de31fae087b8d7d5f0baaa4bfb07e84dc261c2ec9f40684bcae8f9b802f096",
    ),
    "rand-n24-cap1-s0": (
        "534ee36b68aa4ada0cbafd47f60af9ab73c48624610f0b1d676869810204cb63",
        "e851382ad5cd783a1c54b4551d328b0f6d4ce7ac69dabac766158e9a57729d35",
        "31e4155805d50f0293100fe91608697929ba932e64ce825dbc5427d2780db6ff",
    ),
    "rand-n24-cap4-s30": (
        "9b8c1550a3c5b9f15fbb893adf45ed819124728b0b76d7a9787b9faaa5c05f2f",
        "334b9eefce231effed54d7ffcef66294f3a690ee6cdd43a4a13abf65553bd443",
        "0235a895bf1b497a6d0404abf3ee42d524434b64d840ccf4ffe34663f7ee105e",
    ),
    "rand-n32-cap8-s45": (
        "e4a539d3cf7c14ffac1f3a44e254f36edc97b312d014534a95d0e9c56965dbce",
        "192055be857b261d8bb63f89af110ce0bbacb80bb8a9afdbd93eda3790e48b7a",
        "c9d9a813506a7428f7acd9c33e1c48e729a77194861ed8b76ba8d297142a33ad",
    ),
    "rand-n40-cap4-s15": (
        "a326cac8df357660c9b16c0a3cd853941dec96bce3423bb1c55a51ca24b681e6",
        "dea3f017efb4b713abd764319897ea3005509429bff1346a24c0d2647f5ab969",
        "ccf70f7f2ba93d006edfe77d02a38259806b6f9a8eb02f64e8739847ef3bfa89",
    ),
    "rand-n48-cap2-s30": (
        "d5d0bf29e8be395b57eaab70a4acf5eedc07fc3006a584e6ff9079efad9daf76",
        "ab576272000bfc32fc023b3d82d1d367ac543cde161c81fb45ade0bf6eca4c3d",
        "163ff060bed498ca3c31d8af3cfee8d35e04c66873a71065e2b593a39012fff4",
    ),
    "rand-n64-cap8-s0": (
        "baf5451fb4bd6c88268d89b87a744af23bbbf7368d0c696e17eba3594d22b8b7",
        "79046dc54806d2fd2760cd3c01b984fd51ffc759eaf287c02fed97f7a1e07a9f",
        "fe075435a7c0ca003cfa5159633f1094f59e0af6d62a21b7bd375b103226213d",
    ),
    "rand-n256-cap4-s30": (
        "2689508dc95fc440efeae5fcabb2996a60eb5e8d13805c709d9d8706f20ac4a4",
        "675924fb894290a9a7819b34cde51290f461cc1380ae53b2672ea8f7afa20cd0",
        "eeba3b3bd84501024c4b0afed4451c47266734203f26b4f6a04a588e1491b4c5",
    ),
    "rand-n512-cap8-s30": (
        "2e7af29ef49c304f610c9416ed50c863f222ffd3be932055f68c3cb60988d18f",
        "61d4a03a444de7beb30b268819da2fb0a063b42e9433959105da2207dd6af8fa",
        "00d14b1c186ebd9c30315b537b383cdd89e010ae147567f802eead60183123cc",
    ),
    "doubling-n6": (
        "fa9c5a8abf37ccee375596e74511ae7b6055410e81c9580a7a3e61e56110d38e",
        "84fcc898ea5c3a0752f24f09f9914f3d70d8370e2a8e95ffeec5082653dd276a",
        "1ef48590427c51fca173d5530ce995751dc16aba4b460a58ac6c307a53b6f1f6",
    ),
    "doubling-n10": (
        "1d22323ddd6fad596545b38090c3b9580c60e736418d79df26afadf128d435d2",
        "8f493301722f9f4253367ad2d3f3edd92531e9ce3ae5940a8c71f2ae13c5294b",
        "308b5043edebab77a597a30074305f5c67b322e0ac141fc74740dd9233e4ab46",
    ),
    "clone-n6": (
        "d77269d7d6e4633567cfbce8b48c62719b2325ddb517d396b3d841597435eb5a",
        "3fe0ab191f940a61ac65d847bdf69e6764ab1e068136faef0e834de809ebc7fb",
        "554d92a3890a7db547aa7b73b9482f36bfc1b6ba4762be8702fca5c459bb8211",
    ),
    "clone-n10": (
        "e03cd324d4eb94539f507e4d42bc0af00d0b8912bb7e7f478d430fdaab96a2dd",
        "9fa65b58dcdfa14c2aaf186eb4795171cbc33b1eeab6c220030683d7a62f552c",
        "82de49f11322186be5ad82534b610f0917d9bd9a244fbb0696201c9e4273077d",
    ),
}

# name -> sha256 of `standardize` stdout
STANDARDIZE_PINNED = {
    "ex1.bpa": "2ac31458c0fdf13d6733adc292c32a464d2526ce56faf9ed89902604764901f4",
    "silent-cycle.bpa": "33cbbc54f057700fa238114f74a2f0e640cc710969a0816a88c66e3ea53d5835",
    "sys-b.bpa": "58062d770189c5d7b3acbcb6f4405419383effceade0efcc1169d223c28ea1ea",
    "three-cycle": "14f09fd3ee99f900042bdc7d3b6551861e381799283c1ca909f1ac914d776399",
}


def _sha(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


def base_digests(system_file: Path, trace_file: Path) -> tuple[str, str, str]:
    argv = ["base", str(system_file), "--iterations"]
    _, json_out, _ = run_cli([*argv, "--json", "--trace", str(trace_file)], expect=0)
    _, text_out, _ = run_cli(argv, expect=0)
    return _sha(json_out), _sha(trace_file.read_text()), _sha(text_out)


def case_file(name: str, tmp_path: Path) -> str:
    if name in RANDOM_CASES:
        return write_system(tmp_path, serialize_system(random_system(RANDOM_CASES[name])))
    if name in CHAIN_CASES:
        return write_system(tmp_path, chain_text(*CHAIN_CASES[name]))
    return str(SYSTEMS / name)


CASES = sorted(p.name for p in SYSTEMS.glob("*.bpa")) + list(RANDOM_CASES) + list(CHAIN_CASES)


def test_every_case_is_pinned():
    assert sorted(PINNED) == sorted(CASES)


@pytest.mark.parametrize("name", CASES)
def test_base_output_and_trace_are_unchanged(name, tmp_path):
    got = base_digests(case_file(name, tmp_path), tmp_path / "trace.json")
    assert got == PINNED[name]


STANDARDIZE_CASES = sorted(p.name for p in SYSTEMS.glob("*.bpa")) + ["three-cycle"]


def test_every_standardize_case_is_pinned():
    assert sorted(STANDARDIZE_PINNED) == sorted(STANDARDIZE_CASES)


@pytest.mark.parametrize("name", STANDARDIZE_CASES)
def test_standardize_output_is_unchanged(name, tmp_path):
    path = write_system(tmp_path, THREE_CYCLE) if name == "three-cycle" else str(SYSTEMS / name)
    _, out, _ = run_cli(["standardize", path], expect=0)
    assert _sha(out) == STANDARDIZE_PINNED[name]
