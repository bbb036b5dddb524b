"""The ``base`` and ``standardize`` rows of the pin table (`output_pins`).
Each ``base`` case checks its ``--iterations --json --trace`` and its
``--iterations`` row."""

import pytest

from conftest import SYSTEMS
from output_pins import BASE, BASE_TRACE, PINS, RANDOM_CASES, pinned_output

SYSTEM_FILES = sorted(path.name for path in SYSTEMS.glob("*.bpa"))
CHAIN_CASES = [f"{family}-n{n}" for family in ("doubling", "clone") for n in (6, 10)]
CASES = SYSTEM_FILES + list(RANDOM_CASES) + CHAIN_CASES
STANDARDIZE_CASES = SYSTEM_FILES + ["three-cycle"]


def _pinned_systems(kind: str) -> list[str]:
    return sorted({command[1] for command in PINS if command[0] == kind})


def test_every_case_is_pinned():
    assert _pinned_systems("base") == sorted(CASES)
    for name in CASES:
        assert ("base", name, *BASE) in PINS and ("base", name, *BASE_TRACE) in PINS


@pytest.mark.parametrize("name", CASES)
def test_base_output_and_trace_are_unchanged(name, tmp_path):
    for flags in (BASE_TRACE, BASE):
        command = ("base", name, *flags)
        assert pinned_output(command, tmp_path) == PINS[command]


def test_every_standardize_case_is_pinned():
    assert _pinned_systems("standardize") == sorted(STANDARDIZE_CASES)


@pytest.mark.parametrize("name", STANDARDIZE_CASES)
def test_standardize_output_is_unchanged(name, tmp_path):
    command = ("standardize", name)
    assert pinned_output(command, tmp_path) == PINS[command]
