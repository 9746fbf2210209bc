"""Round-trip scoring: ``repro.transform`` → deob → re-classify.

The ROADMAP's evaluation loop for the deobfuscation engine: apply each
monitored technique to clean corpus scripts, normalize with the
:class:`~repro.deob.engine.DeobEngine`, and re-classify both sides.
Reported per technique:

- **removal rate** — fraction of samples whose per-technique confidence
  drops below the threshold after deob,
- **confidence lift** — mean drop in that confidence,
- **reparse rate** — fraction of normalized outputs that re-parse and
  regenerate to the identical text (the normal form is stable).

``classify_fn`` maps a source string to per-technique confidences, so
the same harness scores the rules engine (model-free, deterministic) or
a trained detector.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.deob.engine import REMOVAL_THRESHOLD, DeobEngine
from repro.js.codegen import generate
from repro.js.parser import parse
from repro.rules.engine import RuleEngine, default_engine
from repro.rules.findings import max_confidence_by_technique
from repro.transform.base import TECHNIQUES, Technique, get_transformer

ClassifyFn = Callable[[str], dict[str, float]]


def rules_classifier(rules: RuleEngine | None = None) -> ClassifyFn:
    """Model-free confidences from the static signature engine."""
    engine = rules if rules is not None else default_engine()

    def classify(source: str) -> dict[str, float]:
        try:
            findings = engine.analyze_source(source, data_flow=False)
        except Exception:
            return {}
        return max_confidence_by_technique(findings)

    return classify


@dataclass
class TechniqueRoundTrip:
    """Round-trip outcome for one technique over the corpus."""

    technique: str
    samples: int = 0
    removed: int = 0  #: confidence dropped below threshold after deob
    reparsed: int = 0  #: normalized source re-parses to a stable normal form
    confidence_before: list[float] = field(default_factory=list)
    confidence_after: list[float] = field(default_factory=list)

    @property
    def removal_rate(self) -> float:
        return self.removed / self.samples if self.samples else 0.0

    @property
    def reparse_rate(self) -> float:
        return self.reparsed / self.samples if self.samples else 0.0

    @property
    def mean_lift(self) -> float:
        """Mean confidence drop (positive = evidence removed)."""
        if not self.confidence_before:
            return 0.0
        drops = [
            before - after
            for before, after in zip(self.confidence_before, self.confidence_after)
        ]
        return sum(drops) / len(drops)

    def to_json(self) -> dict[str, Any]:
        return {
            "technique": self.technique,
            "samples": self.samples,
            "removal_rate": round(self.removal_rate, 4),
            "reparse_rate": round(self.reparse_rate, 4),
            "mean_confidence_lift": round(self.mean_lift, 4),
        }


@dataclass
class RoundTripReport:
    """Per-technique round-trip results plus corpus-level aggregates."""

    techniques: dict[str, TechniqueRoundTrip] = field(default_factory=dict)

    @property
    def mean_removal_rate(self) -> float:
        rates = [entry.removal_rate for entry in self.techniques.values()]
        return sum(rates) / len(rates) if rates else 0.0

    def to_json(self) -> dict[str, Any]:
        return {
            "mean_removal_rate": round(self.mean_removal_rate, 4),
            "techniques": {
                name: entry.to_json() for name, entry in sorted(self.techniques.items())
            },
        }


def _stable_normal_form(normalized: str) -> bool:
    try:
        return generate(parse(normalized)) == normalized
    except Exception:
        return False


def round_trip(
    corpus: Iterable[str],
    classify_fn: ClassifyFn | None = None,
    engine: DeobEngine | None = None,
    techniques: Iterable[Technique] | None = None,
    threshold: float = REMOVAL_THRESHOLD,
    seed: int = 1312,
) -> RoundTripReport:
    """Transform every corpus script with every technique, deob, re-classify."""
    classify = classify_fn if classify_fn is not None else rules_classifier()
    deob_engine = engine if engine is not None else DeobEngine()
    chosen = list(techniques) if techniques is not None else list(TECHNIQUES)
    report = RoundTripReport(
        techniques={technique.value: TechniqueRoundTrip(technique.value) for technique in chosen}
    )
    rng = random.Random(seed)
    for source in corpus:
        for technique in chosen:
            entry = report.techniques[technique.value]
            transformer = get_transformer(technique)
            try:
                transformed = transformer.transform(source, random.Random(rng.randrange(2**32)))
            except Exception:
                continue
            result = deob_engine.run(transformed)
            entry.samples += 1
            before = classify(transformed).get(technique.value, 0.0)
            after = classify(result.source).get(technique.value, 0.0)
            entry.confidence_before.append(before)
            entry.confidence_after.append(after)
            if before >= threshold and after < threshold:
                entry.removed += 1
            if _stable_normal_form(result.source):
                entry.reparsed += 1
    return report
