"""Verdicts depend on the source alone, never on how fast the host is.

The analysis layers (lexer, parser, scope, CFG, DFG, interproc, rules,
features, deob) bound their work by counted caps.  These tests run the
same inputs under a clock that reads 100x the real elapsed time — a host
a hundred times slower — and require byte-identical verdicts, normal
forms and scan records.
"""

from __future__ import annotations

import contextlib
import json
import random
import time

import pytest

from repro.corpus.generator import ProgramGenerator, generate_corpus
from repro.scan import ResultStore, ScanConfig, ScanCoordinator
from repro.transform import TransformationPipeline
from repro.transform.base import get_transformer
from repro.transform.global_array import GlobalArrayObfuscator

#: how many times faster than real time the patched clocks run
SLOWDOWN = 100

TECHNIQUE_STACKS = [
    (),
    ("minification_simple",),
    ("string_obfuscation",),
    ("control_flow_flattening",),
    ("dead_code_injection", "identifier_obfuscation"),
    ("global_array", "minification_advanced"),
]


def _scripts() -> list[str]:
    """Generated scripts under the technique stacks, plus decoder shapes
    (string tables behind self-memoizing, base64 and RC4 decoders) that
    send the rule engine into the interprocedural pass."""
    rng = random.Random(19)
    scripts = []
    for index, source in enumerate(generate_corpus(12, seed=1919, min_bytes=1500)):
        stack = TECHNIQUE_STACKS[index % len(TECHNIQUE_STACKS)]
        scripts.append(TransformationPipeline(list(stack)).transform(source, rng))
    base = generate_corpus(1, seed=23, min_bytes=3000)[0]
    for encoding, decoder in (("none", "selfref"), ("base64", "selfref"), ("rc4", None)):
        obfuscator = GlobalArrayObfuscator(encoding=encoding, rotate=True, decoder=decoder)
        scripts.append(obfuscator.transform(base, random.Random(5)))
    return scripts


def _bundle(min_bytes: int = 100_000) -> str:
    """A minified concatenation of generated programs, at least 100 KB."""
    generator = ProgramGenerator(77)
    parts: list[str] = []
    while sum(map(len, parts)) < 2 * min_bytes:
        parts.append(generator.generate_program())
    bundle = get_transformer("minification_simple").transform("\n".join(parts), random.Random(7))
    assert len(bundle) >= min_bytes
    return bundle


@pytest.fixture(scope="module")
def scripts() -> list[str]:
    return _scripts()


@pytest.fixture(scope="module")
def bundle() -> str:
    return _bundle()


@contextlib.contextmanager
def slow_clock(monkeypatch):
    """``time.monotonic``/``time.perf_counter`` report 100x the real time
    elapsed since entry."""

    def scaled(real):
        origin = real()
        return lambda: origin + (real() - origin) * SLOWDOWN

    with monkeypatch.context() as patch:
        for name in ("monotonic", "perf_counter"):
            patch.setattr(time, name, scaled(getattr(time, name)))
        yield


def _verdict(result) -> tuple:
    """Everything a verdict says, in a comparable, order-stable form."""
    return (
        result.error.kind if result.error is not None else None,
        tuple(sorted(result.level1)),
        result.transformed,
        tuple(result.techniques),
        tuple(finding.rule_id for finding in result.findings),
        result.flow_timeout,
    )


def _classify(detector, sources, deob=False):
    engine = detector.batch_engine(cache_size=0)
    return engine.classify(sources, deob=deob).results


def test_classify_verdicts_ignore_the_clock(trained_detector, scripts, bundle, monkeypatch):
    sources = scripts + [bundle]
    real = [_verdict(result) for result in _classify(trained_detector, sources)]
    with slow_clock(monkeypatch):
        slow = [_verdict(result) for result in _classify(trained_detector, sources)]
    assert all(verdict[0] is None for verdict in real)
    for index, (fast, slowed) in enumerate(zip(real, slow)):
        assert fast == slowed, f"input {index}: {fast} != {slowed} under a 100x clock"


def test_rules_only_scan_records_ignore_the_clock(tmp_path, scripts, bundle, monkeypatch):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for index, source in enumerate(scripts + [bundle]):
        (corpus / f"{index:02d}.js").write_text(source)

    def scan(store: str) -> dict[str, str]:
        ScanCoordinator(ScanConfig(roots=[str(corpus)], store=store)).run()
        records = ResultStore(store)
        return {sha: json.dumps(records.get(sha), sort_keys=True) for sha in records.iter_hashes()}

    real = scan(str(tmp_path / "real"))
    with slow_clock(monkeypatch):
        slow = scan(str(tmp_path / "slow"))
    assert len(real) == len(scripts) + 1
    assert real == slow


def test_deob_verdicts_ignore_the_clock(trained_detector, scripts, bundle, monkeypatch):
    """Deob's budgets count work as well: under a 100x clock every verdict
    and normal form, the bundle's included, is the unhurried run's."""
    sources = scripts + [bundle]
    real = _classify(trained_detector, sources, deob=True)
    with slow_clock(monkeypatch):
        slow = _classify(trained_detector, sources, deob=True)
    assert all(result.error is None for result in real)
    for index, (fast, slowed) in enumerate(zip(real, slow)):
        assert _verdict(slowed) == _verdict(fast), f"input {index} under a 100x clock"
        assert slowed.deob.source == fast.deob.source
