"""Byte-level pins of the command line's machine output: the one table,
which `test_trace_regression.py` and `test_oracle_output_regression.py` check.

`PINS` maps each pinned command to its exit code and the sha256 of its
standard output; a ``--trace`` row also holds the sha256 of the trace file.
In each command a system name stands where the file path goes: a
`systems/` file, a named random case, a chain family at a size
(``doubling-n6``) or the three-cycle (`system_file`).

- ``base --iterations``: the base after each pass.  Its digests were recorded
  before candidates were matched against the fixed decreasing rule, and must
  not move under a change that only prunes candidates.
- ``base --iterations --json --trace``: every candidate tested and its step,
  so an engine change that alters any decision, or which candidates are tried
  and in what order, fails here.  These digests last moved when pruned mode
  began to accept candidates by their signature, so that its traces list
  only accepted and in-place candidates.
- ``standardize``: its comment lines list, for each standard constant, the
  original names merged into it.
- ``oracle --json``: the strategy lists every node and defender reply in
  extraction order, with shared subgames numbered once, so a change to which
  move the attacker picks, which continuation it takes, the order of the
  replies or the node numbering fails here.  The rows cover norm-equal pairs
  refuted through a silent move, by the defender or by the attacker,
  norm-unequal pairs (the norm descent, on the doubling chain over several
  levels), pairs with no distinction, and a raw constant that the standard
  form merges away.
- ``check --verify``: the generator check's report, in text and JSON, for a
  refuted pair, a pair with no distinction found, a bisimilar pair and a
  pair against the empty process.  Two plain ``check`` rows name the two
  original constants of silent-cycle's contracted loop, which the standard
  form reads as one constant.
- ``fuzz``: level searches, generator checks and certificate replays over 20
  random systems each.  One more fuzz run starves the level memo, so its
  trials report guards and its summary fails.

The random cases also depend on `random_system`'s output for their
parameters.  A change that means to alter this output updates the digests in
the same commit and says why.
"""

import hashlib
from pathlib import Path

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


def system_file(name: str, directory: Path) -> str:
    """The file a pin's system name stands for; generated systems are
    written into `directory`.  The norm-blowup chains are named by family
    and size: at n = 6 every word is narrower than 64 ids, at n = 10 the top
    words are 512 and 1,023 ids wide."""
    if name.endswith(".bpa"):
        return str(SYSTEMS / name)
    if name == "three-cycle":
        return write_system(directory, THREE_CYCLE)
    if name in RANDOM_CASES:
        return write_system(directory, serialize_system(random_system(RANDOM_CASES[name])))
    family, n = name.rsplit("-n", 1)
    return write_system(directory, chain_text(family, int(n)))


BASE = ("--iterations",)
BASE_TRACE = ("--iterations", "--json", "--trace")
VERIFY = ("--verify", "--k", "8")


def check(system: str, left: str, right: str, *flags: str) -> tuple[str, ...]:
    return ("check", system, "--left", left, "--right", right, *flags)


# command, with a system name for its file -> (exit code, sha256 of standard
# output[, sha256 of the --trace file])
PINS = {
    ("base", "ex1.bpa", *BASE_TRACE): (
        0, "f592075f7af5e20cf01e32c2887822dead0d69f7fe8ca2dbd0a74836a20f823b",
        "da0f68579f59c8fc033b4d36bb072ef7932adf3983801253cd3a1fcd0869b099",
    ),
    ("base", "ex1.bpa", *BASE): (0, "4ceaa7158a3aa3b2d36791ed8d516192c146e080ad3338a319104d813197bdb9"),
    ("base", "sys-b.bpa", *BASE_TRACE): (
        0, "f6b2ec7fd3d21f3d116b7d5fcc85979f3c49d2d7c3cb97ee5f65be2ef1ea99b6",
        "cdeae69cd92ceaae43805e3b14b223ef7e4c4b7761afffe422e9a924483844df",
    ),
    ("base", "sys-b.bpa", *BASE): (0, "9c9f48e4d11ebf6c739ad239d518281109d01214c8981abaa84f1275f20e52ff"),
    ("base", "silent-cycle.bpa", *BASE_TRACE): (
        0, "3786eec9d485d5f3ebde9144b6506c9ce3d5362d42ee17e9308a5391b6d1d916",
        "72ad857b2d612506b7a0e1e4720a96eb893a4c7b873dae691acaa848806cef60",
    ),
    ("base", "silent-cycle.bpa", *BASE): (0, "38de31fae087b8d7d5f0baaa4bfb07e84dc261c2ec9f40684bcae8f9b802f096"),
    ("base", "rand-n24-cap1-s0", *BASE_TRACE): (
        0, "534ee36b68aa4ada0cbafd47f60af9ab73c48624610f0b1d676869810204cb63",
        "e851382ad5cd783a1c54b4551d328b0f6d4ce7ac69dabac766158e9a57729d35",
    ),
    ("base", "rand-n24-cap1-s0", *BASE): (0, "31e4155805d50f0293100fe91608697929ba932e64ce825dbc5427d2780db6ff"),
    ("base", "rand-n24-cap4-s30", *BASE_TRACE): (
        0, "9b8c1550a3c5b9f15fbb893adf45ed819124728b0b76d7a9787b9faaa5c05f2f",
        "334b9eefce231effed54d7ffcef66294f3a690ee6cdd43a4a13abf65553bd443",
    ),
    ("base", "rand-n24-cap4-s30", *BASE): (0, "0235a895bf1b497a6d0404abf3ee42d524434b64d840ccf4ffe34663f7ee105e"),
    ("base", "rand-n32-cap8-s45", *BASE_TRACE): (
        0, "e4a539d3cf7c14ffac1f3a44e254f36edc97b312d014534a95d0e9c56965dbce",
        "192055be857b261d8bb63f89af110ce0bbacb80bb8a9afdbd93eda3790e48b7a",
    ),
    ("base", "rand-n32-cap8-s45", *BASE): (0, "c9d9a813506a7428f7acd9c33e1c48e729a77194861ed8b76ba8d297142a33ad"),
    ("base", "rand-n40-cap4-s15", *BASE_TRACE): (
        0, "a326cac8df357660c9b16c0a3cd853941dec96bce3423bb1c55a51ca24b681e6",
        "dea3f017efb4b713abd764319897ea3005509429bff1346a24c0d2647f5ab969",
    ),
    ("base", "rand-n40-cap4-s15", *BASE): (0, "ccf70f7f2ba93d006edfe77d02a38259806b6f9a8eb02f64e8739847ef3bfa89"),
    ("base", "rand-n48-cap2-s30", *BASE_TRACE): (
        0, "d5d0bf29e8be395b57eaab70a4acf5eedc07fc3006a584e6ff9079efad9daf76",
        "ab576272000bfc32fc023b3d82d1d367ac543cde161c81fb45ade0bf6eca4c3d",
    ),
    ("base", "rand-n48-cap2-s30", *BASE): (0, "163ff060bed498ca3c31d8af3cfee8d35e04c66873a71065e2b593a39012fff4"),
    ("base", "rand-n64-cap8-s0", *BASE_TRACE): (
        0, "baf5451fb4bd6c88268d89b87a744af23bbbf7368d0c696e17eba3594d22b8b7",
        "79046dc54806d2fd2760cd3c01b984fd51ffc759eaf287c02fed97f7a1e07a9f",
    ),
    ("base", "rand-n64-cap8-s0", *BASE): (0, "fe075435a7c0ca003cfa5159633f1094f59e0af6d62a21b7bd375b103226213d"),
    ("base", "rand-n256-cap4-s30", *BASE_TRACE): (
        0, "2689508dc95fc440efeae5fcabb2996a60eb5e8d13805c709d9d8706f20ac4a4",
        "675924fb894290a9a7819b34cde51290f461cc1380ae53b2672ea8f7afa20cd0",
    ),
    ("base", "rand-n256-cap4-s30", *BASE): (0, "eeba3b3bd84501024c4b0afed4451c47266734203f26b4f6a04a588e1491b4c5"),
    ("base", "rand-n512-cap8-s30", *BASE_TRACE): (
        0, "2e7af29ef49c304f610c9416ed50c863f222ffd3be932055f68c3cb60988d18f",
        "61d4a03a444de7beb30b268819da2fb0a063b42e9433959105da2207dd6af8fa",
    ),
    ("base", "rand-n512-cap8-s30", *BASE): (0, "00d14b1c186ebd9c30315b537b383cdd89e010ae147567f802eead60183123cc"),
    ("base", "doubling-n6", *BASE_TRACE): (
        0, "fa9c5a8abf37ccee375596e74511ae7b6055410e81c9580a7a3e61e56110d38e",
        "84fcc898ea5c3a0752f24f09f9914f3d70d8370e2a8e95ffeec5082653dd276a",
    ),
    ("base", "doubling-n6", *BASE): (0, "1ef48590427c51fca173d5530ce995751dc16aba4b460a58ac6c307a53b6f1f6"),
    ("base", "doubling-n10", *BASE_TRACE): (
        0, "1d22323ddd6fad596545b38090c3b9580c60e736418d79df26afadf128d435d2",
        "8f493301722f9f4253367ad2d3f3edd92531e9ce3ae5940a8c71f2ae13c5294b",
    ),
    ("base", "doubling-n10", *BASE): (0, "308b5043edebab77a597a30074305f5c67b322e0ac141fc74740dd9233e4ab46"),
    ("base", "clone-n6", *BASE_TRACE): (
        0, "d77269d7d6e4633567cfbce8b48c62719b2325ddb517d396b3d841597435eb5a",
        "3fe0ab191f940a61ac65d847bdf69e6764ab1e068136faef0e834de809ebc7fb",
    ),
    ("base", "clone-n6", *BASE): (0, "554d92a3890a7db547aa7b73b9482f36bfc1b6ba4762be8702fca5c459bb8211"),
    ("base", "clone-n10", *BASE_TRACE): (
        0, "e03cd324d4eb94539f507e4d42bc0af00d0b8912bb7e7f478d430fdaab96a2dd",
        "9fa65b58dcdfa14c2aaf186eb4795171cbc33b1eeab6c220030683d7a62f552c",
    ),
    ("base", "clone-n10", *BASE): (0, "82de49f11322186be5ad82534b610f0917d9bd9a244fbb0696201c9e4273077d"),
    ("standardize", "ex1.bpa"): (0, "2ac31458c0fdf13d6733adc292c32a464d2526ce56faf9ed89902604764901f4"),
    ("standardize", "silent-cycle.bpa"): (0, "33cbbc54f057700fa238114f74a2f0e640cc710969a0816a88c66e3ea53d5835"),
    ("standardize", "sys-b.bpa"): (0, "58062d770189c5d7b3acbcb6f4405419383effceade0efcc1169d223c28ea1ea"),
    ("standardize", "three-cycle"): (0, "14f09fd3ee99f900042bdc7d3b6551861e381799283c1ca909f1ac914d776399"),
    # norm-equal: Y's only reply runs through its silent step to Y', and the
    # attacker continues at the pre-action pair
    ("oracle", "ex1.bpa", "X", "Y", "--json"): (1, "58871b11bf3a307c9ba16984526e3073702fdb029288321db4718e2f53a114a0"),
    ("oracle", "ex1.bpa", "X Y'", "Y X'", "--json"): (1, "8dae9b4103901a5dcaecd8b235f68e5938eaf49bc8b1cee9a46d06940d6c776d"),
    # norm-unequal: the norm descent
    ("oracle", "ex1.bpa", "X", "X X", "--json"): (1, "671d02c14a47e141b51b4a6124a1e01e7a483563f6fa1a48765564504a51e54c"),
    ("oracle", "sys-b.bpa", "X", "B", "--json"): (1, "9942fbe52a1a23485a720f6d33b8ccdeb917d9406cf46c10da8b8fa82e34b977"),
    ("oracle", "doubling-n6", "X4", "X3", "--json"): (1, "875e9a9a78214a80d05f3717c5d7965ae6b89b4e30e061ef0bd5452b68b7c89d"),
    ("oracle", "doubling-n6", "X3", "X2 X2", "--json"): (1, "7f7e1edff6980e7dbea642fa10f9930763ed717d55e3eff7c9c2550a9d90da47"),
    # norm-equal: the attacker moves silently, so the defender may stay
    ("oracle", "sys-b.bpa", "Y", "A", "--json"): (1, "cb245d8b6ec5a48c487a65b76939350aeb708e681ad63eaa32327bab1beaea3c"),
    ("oracle", "sys-b.bpa", "X", "A B", "--json"): (1, "3afc1ea3753574099463b27775de861982bc1c89c3530d9d5e8ce2ffaf0ebdba"),
    ("oracle", "sys-b.bpa", "Y X", "X Y", "--json"): (1, "ee3a2b424d8247656d912862c0c890b1cac35f8bcef3578bd836746d69991c8f"),
    # no distinction up to the bound
    ("oracle", "ex1.bpa", "X'", "Y'", "--json"): (0, "75785c02e13aad2576c0a08c85c816f4da21b138918b4f02cc932a75b4fc3485"),
    ("oracle", "sys-b.bpa", "A", "B", "--json"): (0, "75785c02e13aad2576c0a08c85c816f4da21b138918b4f02cc932a75b4fc3485"),
    # B is a raw constant: the oracle runs on the uncontracted system
    ("oracle", "silent-cycle.bpa", "B", "eps", "--json"): (1, "f60519b240efdb6d9f008ec803ccd55cab19b7e3c39b2dfcbfedf6cc68c951f0"),
    check("ex1.bpa", "X", "Y", *VERIFY): (1, "a7d5d4f55f864b6531682751452fede6c1208d37ad0a78d5a5412bd08dd64c93"),
    check("ex1.bpa", "X", "Y", *VERIFY, "--json"): (1, "c593407d2eba609343f073b547d9893fc4b67845b4ead4f3cbc64926f8cc76e8"),
    check("ex1.bpa", "X'", "Y'", *VERIFY): (0, "01e263c1fd871fe4939201f37ea4c2ed14e943b6e1805b138b6a907d3a173215"),
    check("ex1.bpa", "X'", "Y'", *VERIFY, "--json"): (0, "b7ca8784f9a4177dcdc731063506e747240b150ecd33892ab9815d7ff0edd83f"),
    check("sys-b.bpa", "A", "B", *VERIFY): (0, "03052a0176ab82a90f0d17b1c3fe78200cd7102c3036afd60dcce3d6bae86076"),
    check("sys-b.bpa", "A", "B", *VERIFY, "--json"): (0, "9ddf4ca898a7d85fe4e2ffe4533ba62b496e0c31ef771b1d291be526df4bfef2"),
    check("silent-cycle.bpa", "A", "eps", *VERIFY): (1, "cc5c7c62585c56b812a6a76bcc32e58f74be23f3a3d6ee9fd046ce8a7d7db1d4"),
    check("silent-cycle.bpa", "A", "eps", *VERIFY, "--json"): (1, "70b9bc15692d61754f5688339e835635fb9985afbb6575adc57e9c1207b94995"),
    # A and B are merged into A by the standard form
    check("silent-cycle.bpa", "A", "B", "--json"): (0, "90684ce47c8c948ebda7178eac20d5b2a608d1b5943c1a1b5784f8ea2c4470f4"),
    check("silent-cycle.bpa", "B A", "A B", "--json"): (0, "c2243898337e781b2825a687305a259cc5125f02f943b6764c844323b10ee51b"),
    ("fuzz", "--seed", "0", "--trials", "20"): (0, "03b70169cc42906efa43ca2c2e75bab53532db0e1c4762605bce4361b63ad6e1"),
    ("fuzz", "--seed", "5", "--trials", "20", "--silent-prob", "0"): (
        0, "cd16e422efad1d866734932fd21fb283eb6842d7c938c61557179dec5e692d73",
    ),
}


def pinned_output(command: tuple[str, ...], directory: Path) -> tuple:
    """`tnbpa command` with its system name resolved to a file in
    `directory`: the exit code, the sha256 of standard output and, when the
    command ends in ``--trace``, the sha256 of the trace file."""
    argv = list(command)
    if argv[0] != "fuzz":
        argv[1] = system_file(argv[1], directory)
    trace = directory / "trace.json"
    traced = argv[-1] == "--trace"
    if traced:
        argv.append(str(trace))
    code, out, _ = run_cli(argv)
    texts = [out, trace.read_text()] if traced else [out]
    return (code, *(hashlib.sha256(text.encode()).hexdigest() for text in texts))
