"""Branching bisimilarity on totally normed BPA systems.

Partition refinement over decomposition bases decides the equivalence in
polynomial time; an independent game oracle refutes, certifies refutations,
and stress-tests the engine.
"""

from .base import DecompositionBase, initial_base
from .engine import (
    CandidateMode,
    Verdict,
    VerdictKind,
    check_equivalence,
    compute_bisimilarity_base,
)
from .model import BpaSystem, ParseError, parse_process, parse_system, serialize_system
from .normalization import (
    NotTotallyNormedError,
    SystemView,
    compute_norms,
    standardize,
    view,
)
from .strings import NormedString

__version__ = "0.1.0"

# The game oracle is a cross-check, not part of the decision procedure, so it
# is imported on first use of one of its names (PEP 562).
_ORACLE_NAMES = frozenset({
    "Distinction",
    "GenParams",
    "differential_run",
    "random_system",
    "replay_distinction",
    "summarize",
    "verify_base_generators",
})


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BpaSystem",
    "CandidateMode",
    "DecompositionBase",
    "Distinction",
    "GenParams",
    "NormedString",
    "NotTotallyNormedError",
    "ParseError",
    "SystemView",
    "Verdict",
    "VerdictKind",
    "check_equivalence",
    "compute_bisimilarity_base",
    "compute_norms",
    "differential_run",
    "initial_base",
    "parse_process",
    "parse_system",
    "random_system",
    "replay_distinction",
    "serialize_system",
    "standardize",
    "summarize",
    "verify_base_generators",
    "view",
]
