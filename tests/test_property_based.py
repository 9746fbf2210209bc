"""Property-based tests (hypothesis) on core invariants.

- parse/generate round-trip stability over generated programs,
- lexer totality and span invariants over generated programs,
- transformation outputs always re-parse,
- ML invariants: binning monotonicity, probability ranges, top-k monotone
  behaviour of the metrics.
"""

import random

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.corpus.generator import ProgramGenerator
from repro.js.ast_nodes import to_dict
from repro.js.codegen import generate
from repro.js.lexer import tokenize
from repro.js.parser import parse
from repro.js.tokens import TokenType
from repro.ml.binning import Binner
from repro.ml.forest import RandomForestClassifier
from repro.ml.metrics import thresholded_top_k, top_k_correct
from repro.transform import TECHNIQUES, get_transformer

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _strip(data):
    if isinstance(data, dict):
        return {k: _strip(v) for k, v in data.items() if k not in ("start", "end", "raw")}
    if isinstance(data, list):
        return [_strip(item) for item in data]
    return data


@st.composite
def generated_program(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return ProgramGenerator(seed).generate_program()


class TestFrontEndProperties:
    @_SETTINGS
    @given(generated_program())
    def test_roundtrip_pretty(self, source):
        ast = parse(source)
        regenerated = generate(ast)
        assert _strip(to_dict(parse(regenerated))) == _strip(to_dict(ast))

    @_SETTINGS
    @given(generated_program())
    def test_roundtrip_compact(self, source):
        ast = parse(source)
        compact = generate(ast, compact=True)
        assert _strip(to_dict(parse(compact))) == _strip(to_dict(ast))

    @_SETTINGS
    @given(generated_program())
    def test_token_spans_are_ordered_and_in_bounds(self, source):
        tokens = tokenize(source, include_comments=True)
        previous_end = 0
        for token in tokens:
            if token.type is TokenType.EOF:
                continue
            assert 0 <= token.start < token.end <= len(source)
            assert token.start >= previous_end
            assert source[token.start : token.end] == token.value
            previous_end = token.end

    @_SETTINGS
    @given(generated_program())
    def test_idempotent_pretty_printing(self, source):
        once = generate(parse(source))
        twice = generate(parse(once))
        assert once == twice


class TestTransformProperties:
    @_SETTINGS
    @given(
        generated_program(),
        st.sampled_from([t for t in TECHNIQUES if t.value != "no_alphanumeric"]),
        st.integers(min_value=0, max_value=1_000),
    )
    def test_transform_output_reparses(self, source, technique, seed):
        out = get_transformer(technique).transform(source, random.Random(seed))
        parse(out)

    @_SETTINGS
    @given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), min_size=1, max_size=20))
    def test_jsfuck_spell_is_pure_symbols(self, text):
        from repro.transform.no_alphanumeric import JSFuckEncoder

        expression = JSFuckEncoder().spell(text)
        assert set(expression) <= set("[]()!+")
        parse(expression + ";")

    @_SETTINGS
    @given(st.integers(min_value=0, max_value=500))
    def test_jsfuck_numbers_parse(self, value):
        from repro.transform.no_alphanumeric import _number

        parse(_number(value) + ";")

    @_SETTINGS
    @given(generated_program(), st.integers(min_value=0, max_value=1_000))
    def test_renaming_preserves_node_count(self, source, seed):
        from repro.js.visitor import count_nodes
        from repro.transform.renaming import rename_hex

        program = parse(source)
        before_types = [n.type for n in __import__("repro.js.visitor", fromlist=["walk"]).walk(program)]
        renamed, _ = rename_hex(program, random.Random(seed))
        after = parse(generate(renamed))
        assert count_nodes(after) >= len(before_types) - 2  # shorthand expansion may add keys


class TestMLProperties:
    @_SETTINGS
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_binner_values_within_bins(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(40, 3))
        binner = Binner(max_bins=8)
        binned = binner.fit_transform(X)
        assert (binned < np.array(binner.n_bins_)).all()

    @_SETTINGS
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_forest_probabilities_bounded(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(60, 4))
        y = (X[:, 0] > 0).astype(int)
        if y.sum() in (0, len(y)):
            return
        forest = RandomForestClassifier(n_estimators=4, random_state=seed % 1000)
        proba = forest.fit(X, y).predict_proba(X)
        assert ((proba >= 0) & (proba <= 1)).all()

    @_SETTINGS
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_thresholded_topk_never_exceeds_k(self, seed):
        rng = np.random.default_rng(seed)
        proba = rng.random((20, 10))
        for k in (1, 3, 5):
            prediction = thresholded_top_k(proba, k=k, threshold=0.1)
            assert (prediction.sum(axis=1) <= k).all()

    @_SETTINGS
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_higher_threshold_predicts_fewer(self, seed):
        rng = np.random.default_rng(seed)
        proba = rng.random((20, 10))
        low = thresholded_top_k(proba, k=10, threshold=0.1).sum()
        high = thresholded_top_k(proba, k=10, threshold=0.5).sum()
        assert high <= low

    @_SETTINGS
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_topk_correct_subset_relation(self, seed):
        # If top-(k+1) is correct, top-k is correct too (prefix property).
        rng = np.random.default_rng(seed)
        proba = rng.random((15, 6))
        truth = (rng.random((15, 6)) > 0.4).astype(int)
        previous = None
        for k in range(6, 0, -1):
            correct = top_k_correct(truth, proba, k)
            if previous is not None:
                assert (previous <= correct).all()
            previous = correct
