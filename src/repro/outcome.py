"""Per-file outcomes and the one exception → error mapping.

One bad file must never abort a batch, a serve micro-batch or a scan
shard.  Every step that analyses a single file and may fail on it —
feature extraction in the batch engine and both parse stages of the
rules-only triage — turns the exception into a :class:`DetectionError`
through :func:`detection_error`.  Scan records store the error kind and
message, so they are spelled in this one place.

This module sits below ``repro.rules``, ``repro.features`` and
``repro.detector`` and imports none of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.rules.findings import Finding

#: Recursion messages: a parse (or a walk over its tree) ran out of stack,
#: or the lexer did while building the token stream.
RECURSION_AST = "AST nesting exceeds the recursion limit"
RECURSION_TOKENS = "token stream exceeds the recursion limit"


@dataclass(frozen=True)
class DetectionError:
    """Why one file of a batch could not be classified."""

    #: "oversize" | "parse" | "recursion" | "budget" | "internal";
    #: "budget" is the deob run's counted work budget.
    kind: str
    message: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"


#: The error of a file whose deob run tripped ``Budget.max_work``.
DEOB_WORK_BUDGET = DetectionError("budget", "deob run exceeded its work budget")


def detection_error(
    error: Exception, recursion_message: str = RECURSION_AST
) -> DetectionError:
    """The per-file error for an exception raised while analysing one file."""
    if isinstance(error, RecursionError):
        return DetectionError("recursion", recursion_message)
    if isinstance(error, (SyntaxError, ValueError)):  # ParseError / LexerError
        return DetectionError("parse", str(error) or type(error).__name__)
    return DetectionError("internal", f"{type(error).__name__}: {error}")


@dataclass
class FileOutcome:
    """One file's feature extraction: both vectors and evidence, or an error.

    ``vector1``/``vector2`` are the level-1 and level-2 feature vectors,
    ``findings`` the signature-engine evidence computed in the same pass.
    ``df_available`` is False when the data-flow pass hit its pair cap, and
    ``flow_timeout`` is True when any flow analysis degraded.  A failed
    file carries only ``error``.
    """

    vector1: np.ndarray | None = None
    vector2: np.ndarray | None = None
    df_available: bool = False
    flow_timeout: bool = False
    findings: list[Finding] = field(default_factory=list)
    error: DetectionError | None = None

    @property
    def ok(self) -> bool:
        return self.error is None
