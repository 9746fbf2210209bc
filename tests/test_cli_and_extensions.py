"""Tests for the CLI, feature importances, and the unmonitored technique."""

import random

import numpy as np
import pytest

from repro.js.parser import parse
from repro.js.visitor import find_all
from repro.ml.forest import RandomForestClassifier
from repro.transform.field_reference import (
    FieldReferenceObfuscator,
    obfuscate_field_references,
)


class TestFeatureImportances:
    def test_importances_sum_to_one(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 6))
        y = (X[:, 2] > 0).astype(int)
        forest = RandomForestClassifier(n_estimators=6, random_state=1).fit(X, y)
        importances = forest.feature_importances_
        assert importances.shape == (6,)
        assert importances.sum() == pytest.approx(1.0, abs=1e-6)

    def test_informative_feature_ranked_first(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(300, 5))
        y = (X[:, 3] > 0).astype(int)
        forest = RandomForestClassifier(
            n_estimators=10, random_state=2, max_features=None
        ).fit(X, y)
        assert int(np.argmax(forest.feature_importances_)) == 3

    def test_importances_nonnegative(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(100, 4))
        y = (X.sum(axis=1) > 0).astype(int)
        forest = RandomForestClassifier(n_estimators=4, random_state=3).fit(X, y)
        assert (forest.feature_importances_ >= 0).all()


class TestFieldReferenceObfuscation:
    def test_rewrites_dot_access(self, rng):
        program = parse("use(config.endpoint, window.location.href);")
        # config.endpoint, window.location, (window.location).href
        program, count = obfuscate_field_references(program, rng)
        assert count == 3
        members = find_all(program, "MemberExpression")
        assert all(m.computed for m in members)

    def test_output_reparses(self, sample_source, rng):
        out = FieldReferenceObfuscator().transform(sample_source, rng)
        parse(out)
        assert '["' in out

    def test_probability_zero_keeps_code(self, rng):
        program = parse("a.b.c;")
        assert obfuscate_field_references(program, rng, probability=0.0)[1] == 0

    def test_not_in_registry(self):
        from repro.transform import registry

        names = {t.name for t in registry().values()}
        assert "obfuscated_field_reference" not in names

    def test_level1_flags_unmonitored_technique(self, trained_detector, regular_corpus, rng):
        """§V-A: level 1 recognizes transformations it was not trained on.

        Field-reference obfuscation alone is subtle; combined with the
        formatting footprint it rides on in the wild (compacted output) the
        detector should flag a majority.
        """
        transformed = []
        for source in regular_corpus[:6]:
            from repro.transform import get_transformer

            compact = get_transformer("minification_simple").transform(source, rng)
            transformed.append(FieldReferenceObfuscator().transform(compact, rng))
        flags = trained_detector.level1.is_transformed(transformed)
        assert flags.mean() >= 0.5


class TestCLI:
    def test_transform_command(self, tmp_path, capsys):
        from repro.__main__ import main

        script = tmp_path / "input.js"
        script.write_text("function add(a, b) { return a + b; } add(1, 2);")
        code = main(
            ["transform", str(script), "--technique", "minification_simple"]
        )
        assert code == 0
        out = capsys.readouterr().out
        parse(out)
        assert "\n" not in out.strip()

    def test_transform_multiple_techniques(self, tmp_path, capsys):
        from repro.__main__ import main

        script = tmp_path / "input.js"
        script.write_text("var message = 'hello'; console.log(message);")
        code = main(
            [
                "transform",
                str(script),
                "--technique",
                "minification_simple",
                "--technique",
                "identifier_obfuscation",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "_0x" in out

    def test_train_and_classify_roundtrip(self, tmp_path, capsys, monkeypatch, regular_corpus):
        from repro import __main__ as cli

        # Avoid a minutes-long real training run: patch the trainer to the
        # session fixture via a tiny stub save.
        class _Stub:
            def __init__(self, detector):
                self.detector = detector

        model_path = tmp_path / "model.pkl"

        def fake_train(args):
            from repro.detector.pipeline import TransformationDetector

            detector = TransformationDetector(n_estimators=4, random_state=0)
            detector.train(n_regular=8, seed=1)
            detector.save(model_path)
            return 0

        monkeypatch.setattr(cli, "_cmd_train", fake_train)
        assert cli.main(["train", "--out", str(model_path)]) == 0

        target = tmp_path / "check.js"
        target.write_text(regular_corpus[0])
        code = cli.main(["classify", "--model", str(model_path), str(target)])
        assert code == 0
        assert "check.js" in capsys.readouterr().out

    def test_classify_rejects_tiny_file(self, tmp_path, capsys, monkeypatch):
        from repro import __main__ as cli
        from repro.detector.pipeline import TransformationDetector

        monkeypatch.setattr(
            cli, "_load_or_train", lambda _path: TransformationDetector()
        )
        target = tmp_path / "tiny.js"
        target.write_text("x();")
        assert cli.main(["classify", "--model", "ignored", str(target)]) == 0
        assert "rejected" in capsys.readouterr().out

    def test_classify_missing_file_exit_code(self, monkeypatch, capsys):
        from repro import __main__ as cli
        from repro.detector.pipeline import TransformationDetector

        monkeypatch.setattr(
            cli, "_load_or_train", lambda _path: TransformationDetector()
        )
        assert cli.main(["classify", "--model", "ignored", "/nonexistent.js"]) == 1

    def test_classify_unparseable_admitted_file(
        self, tmp_path, capsys, monkeypatch, trained_detector, regular_corpus
    ):
        """A file that slips past admission but fails to parse must produce a
        one-line diagnostic and exit code 1 — not a traceback — while its
        batch neighbors still classify."""
        from repro import __main__ as cli

        monkeypatch.setattr(cli, "_load_or_train", lambda _path: trained_detector)
        monkeypatch.setattr(cli, "admit", lambda _source: True)
        good = tmp_path / "good.js"
        good.write_text(regular_corpus[0])
        bad = tmp_path / "bad.js"
        bad.write_text("function (((")
        code = cli.main(["classify", "--model", "ignored", str(good), str(bad)])
        captured = capsys.readouterr()
        assert code == 1
        assert "good.js" in captured.out
        # Errors share the uniform `name: verdict` stdout shape so piped
        # output keeps one line per file.
        bad_lines = [line for line in captured.out.splitlines() if "bad.js" in line]
        assert bad_lines and "error [parse]" in bad_lines[0]

    def test_classify_k_threshold_workers_flags(
        self, tmp_path, capsys, monkeypatch, trained_detector, regular_corpus
    ):
        from repro import __main__ as cli

        monkeypatch.setattr(cli, "_load_or_train", lambda _path: trained_detector)
        target = tmp_path / "check.js"
        target.write_text(regular_corpus[0])
        code = cli.main(
            [
                "classify",
                "--model",
                "ignored",
                "--k",
                "2",
                "--threshold",
                "0.25",
                "--workers",
                "1",
                str(target),
            ]
        )
        assert code == 0
        assert "check.js" in capsys.readouterr().out
