"""Deobfuscation engine: an invertible pass pipeline over the AST.

The transformers in :mod:`repro.transform` apply the ten monitored
techniques; this package applies their inverses as a fixpoint-driven
pass pipeline (DESIGN.md §11) and re-emits normalized source through the
codegen.  The headline loop is *normalize-then-reclassify*: run the
passes, re-classify the normal form, and measure how much of the
obfuscation evidence survived.

Public surface:

- :class:`DeobEngine` / :func:`deobfuscate` — the driver,
- :class:`Budget` — counted safety limits (node count, work, iterations, eval depth),
- :class:`DeobResult` / :class:`DeobReport` — normalized source + what
  happened,
- :func:`default_passes` — the standard pipeline, in schedule order,
- :mod:`repro.deob.score` — transform → deob → re-classify round-trip
  evaluation.
"""

from repro.deob.base import Budget, DeobPass, PassContext, PassResult
from repro.deob.engine import (
    REMOVAL_THRESHOLD,
    DeobEngine,
    DeobReport,
    DeobResult,
    PassStats,
    default_passes,
    deobfuscate,
)

__all__ = [
    "REMOVAL_THRESHOLD",
    "Budget",
    "DeobEngine",
    "DeobPass",
    "DeobReport",
    "DeobResult",
    "PassContext",
    "PassResult",
    "PassStats",
    "default_passes",
    "deobfuscate",
]
