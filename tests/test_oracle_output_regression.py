"""Byte-level pins of the game oracle's machine output.

Each case runs ``tnbpa oracle FILE LEFT RIGHT --json`` or ``tnbpa fuzz`` and
compares the exit code and the sha256 of standard output with recorded
digests.  The strategy JSON lists every node and defender reply in extraction
order, with shared subgames numbered once, so a change to which move the
attacker picks, which continuation it takes, the order of the replies or the
node numbering fails here.  The fuzz lines summarise level searches, generator
checks and certificate replays over 20 random systems each.

The oracle cases cover norm-equal pairs refuted through a silent move, by
the defender or by the attacker, norm-unequal pairs (the norm descent, on the
doubling chain over several levels), and pairs with no distinction.  A change
that means to alter this output updates the digests in the same commit and
says why.
"""

import hashlib
import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from conftest import chain_text
from tnbpa.cli import main

SYSTEMS_DIR = Path(__file__).resolve().parents[1] / "systems"


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
}

# fuzz arguments -> (exit code, sha256 of stdout)
FUZZ_CASES = {
    ("--seed", "0", "--trials", "20"): (0, "03b70169cc42906efa43ca2c2e75bab53532db0e1c4762605bce4361b63ad6e1"),
    ("--seed", "5", "--trials", "20", "--silent-prob", "0"): (0, "cd16e422efad1d866734932fd21fb283eb6842d7c938c61557179dec5e692d73"),
}


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("case", list(ORACLE_CASES), ids=" ".join)
def test_oracle_json_is_unchanged(case, tmp_path):
    system, left, right = case
    if system == "doubling":
        path = tmp_path / "doubling.bpa"
        path.write_text(chain_text("doubling", 6))
    else:
        path = SYSTEMS_DIR / system
    assert _run(["oracle", str(path), left, right, "--json"]) == ORACLE_CASES[case]


@pytest.mark.parametrize("args", list(FUZZ_CASES), ids=" ".join)
def test_fuzz_output_is_unchanged(args):
    assert _run(["fuzz", *args]) == FUZZ_CASES[args]
