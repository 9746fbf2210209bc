"""Tests for the configurable transformer options (obfuscator.io-style)."""

import random

import pytest

from repro.js.parser import parse
from repro.js.visitor import find_all
from repro.transform.dead_code import DeadCodeInjector
from repro.transform.global_array import GlobalArrayObfuscator, extract_strings_to_array
from repro.transform.string_obfuscation import StringObfuscator

SOURCE = 'var greeting = "hello there"; var topic = "world peace"; log(greeting, topic, "extra text");'


class TestGlobalArrayOptions:
    def test_base64_encoding_uses_atob(self, rng):
        out = GlobalArrayObfuscator(encoding="base64", rotate=False).transform(SOURCE, rng)
        parse(out)
        assert "atob" in out
        assert "hello there" not in out

    def test_base64_payload_decodable(self, rng):
        import base64

        program, _ = extract_strings_to_array(parse(SOURCE), rng, encoding="base64")
        arrays = find_all(program, "ArrayExpression")
        stored = [el.value for el in arrays[0].elements]
        decoded = {base64.b64decode(s).decode() for s in stored}
        assert "hello there" in decoded

    def test_rotation_adds_rotator(self, rng):
        out = GlobalArrayObfuscator(encoding="none", rotate=True).transform(SOURCE, rng)
        parse(out)
        assert "push" in out and "shift" in out

    def test_rotation_changes_static_order(self):
        rng_a, rng_b = random.Random(5), random.Random(5)
        plain, _ = extract_strings_to_array(parse(SOURCE), rng_a, rotate=False)
        rotated, _ = extract_strings_to_array(parse(SOURCE), rng_b, rotate=True)
        order_plain = [e.value for e in find_all(plain, "ArrayExpression")[0].elements]
        order_rotated = [e.value for e in find_all(rotated, "ArrayExpression")[0].elements]
        assert sorted(order_plain) == sorted(order_rotated)
        assert order_plain != order_rotated

    def test_unknown_encoding_raises(self, rng):
        with pytest.raises(ValueError):
            extract_strings_to_array(parse(SOURCE), rng, encoding="rot13")

    def test_default_randomises_configuration(self):
        outputs = {
            GlobalArrayObfuscator().transform(SOURCE, random.Random(seed))[:50]
            for seed in range(8)
        }
        assert len(outputs) > 1


class TestStringObfuscationOptions:
    def test_method_restriction_charcode(self, rng):
        out = StringObfuscator(methods=("charcode",)).transform(SOURCE, rng)
        parse(out)
        assert "fromCharCode" in out
        assert "reverse" not in out

    def test_method_restriction_hex(self, rng):
        out = StringObfuscator(methods=("hex",)).transform(SOURCE, rng)
        assert "\\x68" in out  # 'h'

    def test_method_restriction_reverse(self, rng):
        out = StringObfuscator(methods=("reverse",)).transform(SOURCE, rng)
        assert "reverse" in out and "ereht olleh" in out

    def test_probability_zero_no_change(self, rng):
        out = StringObfuscator(probability=0.0).transform(SOURCE, rng)
        assert "hello there" in out

    def test_min_length_spares_short_strings(self, rng):
        source = 'var a = "x"; var b = "long enough string"; f(a, b);'
        out = StringObfuscator(min_length=5).transform(source, rng)
        assert '"x"' in out

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError):
            StringObfuscator(methods=("rot13",))


class TestDeadCodeOptions:
    def test_density_bounds_validated(self):
        with pytest.raises(ValueError):
            DeadCodeInjector(density=1.5)

    def test_higher_density_more_statements(self):
        sparse = DeadCodeInjector(density=0.05).transform(SOURCE, random.Random(4))
        dense = DeadCodeInjector(density=0.95).transform(SOURCE, random.Random(4))
        assert len(parse(dense).body) >= len(parse(sparse).body)
