"""The ``oracle``, ``check`` and ``fuzz`` rows of the pin table
(`output_pins`), and one fuzz run that starves the level memo."""

import pytest

from output_pins import PINS, pinned_output
from tnbpa import oracle


def _rows(kind: str, verify: bool | None = None) -> list[tuple[str, ...]]:
    return [c for c in PINS if c[0] == kind and (verify is None or ("--verify" in c) == verify)]


# A chain is named by its family alone: ``doubling X4 X3``.
@pytest.mark.parametrize("command", _rows("oracle"), ids=lambda c: " ".join((c[1].split("-n")[0], *c[2:4])))
def test_oracle_json_is_unchanged(command, tmp_path):
    assert pinned_output(command, tmp_path) == PINS[command]


@pytest.mark.parametrize("command", _rows("fuzz"), ids=lambda c: " ".join(c[1:]))
def test_fuzz_output_is_unchanged(command, tmp_path):
    assert pinned_output(command, tmp_path) == PINS[command]


# (command, system, "--left", left, "--right", right, --verify --k 8, flags)
@pytest.mark.parametrize("command", _rows("check", verify=True), ids=lambda c: " ".join((c[1], c[3], c[5], *c[9:])))
def test_check_verify_output_is_unchanged(command, tmp_path):
    assert pinned_output(command, tmp_path) == PINS[command]


@pytest.mark.parametrize("command", _rows("check", verify=False), ids=lambda c: f"{c[3]} / {c[5]}")
def test_check_on_contracted_names_is_unchanged(command, tmp_path):
    assert pinned_output(command, tmp_path) == PINS[command]


def test_failing_fuzz_summary_is_unchanged(monkeypatch, tmp_path):
    # With no room in the level memo, every game that needs the memo trips
    # its guard, in the generator checks and in the pair loops: 11
    # not-bisimilar pairs are flagged, 24 guards are recorded and the summary
    # reads "ok": false, so fuzz exits 1.
    monkeypatch.setattr(oracle, "MEMO_LIMIT", 0)
    assert pinned_output(("fuzz", "--trials", "6", "--pairs", "8"), tmp_path) == (
        1,
        "5244e196b340611b6fde493a530e2601541bcca806bd79e84ee2026035ba288f",
    )
