"""Byte-level pins of the game oracle's machine output.

Each case runs ``tnbpa oracle FILE LEFT RIGHT --json``, ``tnbpa check ...
--verify`` or ``tnbpa fuzz`` and compares the exit code and the sha256 of
standard output with recorded digests.  The strategy JSON lists every node
and defender reply in extraction order, with shared subgames numbered once,
so a change to which move the attacker picks, which continuation it takes,
the order of the replies or the node numbering fails here.  The fuzz lines summarise level searches, generator
checks and certificate replays over 20 random systems each; one more fuzz
case starves the level memo, so its trials report guards and its summary
fails.  The check cases pin the generator check's report, in text and JSON,
for a refuted pair, a pair with no distinction found, a bisimilar pair and a
pair against the empty process.  Two more check cases name the two original
constants of silent-cycle's contracted loop, which the standard form reads as
one constant, and one oracle case names a raw constant that the standard form
merges away.

The oracle cases cover norm-equal pairs refuted through a silent move, by
the defender or by the attacker, norm-unequal pairs (the norm descent, on the
doubling chain over several levels), and pairs with no distinction.  A change
that means to alter this output updates the digests in the same commit and
says why.
"""

import hashlib

import pytest

from conftest import SYSTEMS, chain_text, run_cli, write_system
from tnbpa import oracle

# (system, left, right) -> (exit code, sha256 of `oracle --json` stdout)
ORACLE_CASES = {
    # norm-equal: Y's only reply runs through its silent step to Y', and the
    # attacker continues at the pre-action pair
    ("ex1.bpa", "X", "Y"): (1, "58871b11bf3a307c9ba16984526e3073702fdb029288321db4718e2f53a114a0"),
    ("ex1.bpa", "X Y'", "Y X'"): (1, "8dae9b4103901a5dcaecd8b235f68e5938eaf49bc8b1cee9a46d06940d6c776d"),
    # norm-unequal: the norm descent
    ("ex1.bpa", "X", "X X"): (1, "671d02c14a47e141b51b4a6124a1e01e7a483563f6fa1a48765564504a51e54c"),
    ("sys-b.bpa", "X", "B"): (1, "9942fbe52a1a23485a720f6d33b8ccdeb917d9406cf46c10da8b8fa82e34b977"),
    ("doubling", "X4", "X3"): (1, "875e9a9a78214a80d05f3717c5d7965ae6b89b4e30e061ef0bd5452b68b7c89d"),
    ("doubling", "X3", "X2 X2"): (1, "7f7e1edff6980e7dbea642fa10f9930763ed717d55e3eff7c9c2550a9d90da47"),
    # norm-equal: the attacker moves silently, so the defender may stay
    ("sys-b.bpa", "Y", "A"): (1, "cb245d8b6ec5a48c487a65b76939350aeb708e681ad63eaa32327bab1beaea3c"),
    ("sys-b.bpa", "X", "A B"): (1, "3afc1ea3753574099463b27775de861982bc1c89c3530d9d5e8ce2ffaf0ebdba"),
    ("sys-b.bpa", "Y X", "X Y"): (1, "ee3a2b424d8247656d912862c0c890b1cac35f8bcef3578bd836746d69991c8f"),
    # no distinction up to the bound
    ("ex1.bpa", "X'", "Y'"): (0, "75785c02e13aad2576c0a08c85c816f4da21b138918b4f02cc932a75b4fc3485"),
    ("sys-b.bpa", "A", "B"): (0, "75785c02e13aad2576c0a08c85c816f4da21b138918b4f02cc932a75b4fc3485"),
    # B is a raw constant: the oracle runs on the uncontracted system
    ("silent-cycle.bpa", "B", "eps"): (1, "f60519b240efdb6d9f008ec803ccd55cab19b7e3c39b2dfcbfedf6cc68c951f0"),
}

# (left, right) -> (exit code, sha256 of `check silent-cycle.bpa --json`
# stdout); A and B are merged into A by the standard form
CONTRACTED_CHECK_CASES = {
    ("A", "B"): (0, "90684ce47c8c948ebda7178eac20d5b2a608d1b5943c1a1b5784f8ea2c4470f4"),
    ("B A", "A B"): (0, "c2243898337e781b2825a687305a259cc5125f02f943b6764c844323b10ee51b"),
}

# (system, left, right, output flags) -> (exit code, sha256 of
# `check --verify --k 8` stdout)
CHECK_VERIFY_CASES = {
    ("ex1.bpa", "X", "Y", ()): (1, "a7d5d4f55f864b6531682751452fede6c1208d37ad0a78d5a5412bd08dd64c93"),
    ("ex1.bpa", "X", "Y", ("--json",)): (1, "c593407d2eba609343f073b547d9893fc4b67845b4ead4f3cbc64926f8cc76e8"),
    ("ex1.bpa", "X'", "Y'", ()): (0, "01e263c1fd871fe4939201f37ea4c2ed14e943b6e1805b138b6a907d3a173215"),
    ("ex1.bpa", "X'", "Y'", ("--json",)): (0, "b7ca8784f9a4177dcdc731063506e747240b150ecd33892ab9815d7ff0edd83f"),
    ("sys-b.bpa", "A", "B", ()): (0, "03052a0176ab82a90f0d17b1c3fe78200cd7102c3036afd60dcce3d6bae86076"),
    ("sys-b.bpa", "A", "B", ("--json",)): (0, "9ddf4ca898a7d85fe4e2ffe4533ba62b496e0c31ef771b1d291be526df4bfef2"),
    ("silent-cycle.bpa", "A", "eps", ()): (1, "cc5c7c62585c56b812a6a76bcc32e58f74be23f3a3d6ee9fd046ce8a7d7db1d4"),
    ("silent-cycle.bpa", "A", "eps", ("--json",)): (1, "70b9bc15692d61754f5688339e835635fb9985afbb6575adc57e9c1207b94995"),
}

# fuzz arguments -> (exit code, sha256 of stdout)
FUZZ_CASES = {
    ("--seed", "0", "--trials", "20"): (0, "03b70169cc42906efa43ca2c2e75bab53532db0e1c4762605bce4361b63ad6e1"),
    ("--seed", "5", "--trials", "20", "--silent-prob", "0"): (0, "cd16e422efad1d866734932fd21fb283eb6842d7c938c61557179dec5e692d73"),
}


def _digest(argv: list[str]) -> tuple[int, str]:
    """The exit code and the sha256 of standard output."""
    code, out, _ = run_cli(argv)
    return code, hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("case", list(ORACLE_CASES), ids=" ".join)
def test_oracle_json_is_unchanged(case, tmp_path):
    system, left, right = case
    if system == "doubling":
        path = write_system(tmp_path, chain_text("doubling", 6))
    else:
        path = str(SYSTEMS / system)
    assert _digest(["oracle", path, left, right, "--json"]) == ORACLE_CASES[case]


@pytest.mark.parametrize("args", list(FUZZ_CASES), ids=" ".join)
def test_fuzz_output_is_unchanged(args):
    assert _digest(["fuzz", *args]) == FUZZ_CASES[args]


@pytest.mark.parametrize("case", list(CHECK_VERIFY_CASES), ids=lambda c: " ".join((*c[:3], *c[3])))
def test_check_verify_output_is_unchanged(case):
    system, left, right, flags = case
    argv = ["check", str(SYSTEMS / system), "--left", left, "--right", right, "--verify", "--k", "8", *flags]
    assert _digest(argv) == CHECK_VERIFY_CASES[case]


@pytest.mark.parametrize("case", list(CONTRACTED_CHECK_CASES), ids=" / ".join)
def test_check_on_contracted_names_is_unchanged(case):
    left, right = case
    argv = ["check", str(SYSTEMS / "silent-cycle.bpa"), "--left", left, "--right", right, "--json"]
    assert _digest(argv) == CONTRACTED_CHECK_CASES[case]


def test_failing_fuzz_summary_is_unchanged(monkeypatch):
    # With no room in the level memo, every game that needs the memo trips
    # its guard, in the generator checks and in the pair loops: 11
    # not-bisimilar pairs are flagged, 24 guards are recorded and the summary
    # reads "ok": false, so fuzz exits 1.
    monkeypatch.setattr(oracle, "MEMO_LIMIT", 0)
    assert _digest(["fuzz", "--trials", "6", "--pairs", "8"]) == (
        1,
        "5244e196b340611b6fde493a530e2601541bcca806bd79e84ee2026035ba288f",
    )
