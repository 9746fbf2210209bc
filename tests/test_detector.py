"""End-to-end detector tests (uses the session-scoped trained detector)."""

import random

import numpy as np
import pytest

from repro.corpus.generator import generate_corpus
from repro.detector import (
    LEVEL1_LABELS,
    LEVEL2_LABELS,
    TransformationDetector,
    level1_labels_for,
    level1_vector,
    level2_vector,
)
from repro.detector.level2 import DEFAULT_K, DEFAULT_THRESHOLD
from repro.transform.base import TECHNIQUES, Technique, get_transformer


class TestLabels:
    def test_level1_vocabulary(self):
        assert LEVEL1_LABELS == ("regular", "minified", "obfuscated")

    def test_level2_vocabulary_matches_techniques(self):
        assert LEVEL2_LABELS == tuple(t.value for t in TECHNIQUES)
        assert len(LEVEL2_LABELS) == 10

    def test_minified_mapping(self):
        assert level1_labels_for({Technique.MINIFICATION_SIMPLE}) == {"minified"}

    def test_obfuscated_mapping(self):
        assert level1_labels_for({Technique.STRING_OBFUSCATION}) == {"obfuscated"}

    def test_both_labels(self):
        labels = level1_labels_for(
            {Technique.SELF_DEFENDING, Technique.MINIFICATION_SIMPLE}
        )
        assert labels == {"minified", "obfuscated"}

    def test_empty_is_regular(self):
        assert level1_labels_for(set()) == {"regular"}

    def test_level1_vector(self):
        assert level1_vector({"regular"}).tolist() == [1, 0, 0]
        assert level1_vector({"minified", "obfuscated"}).tolist() == [0, 1, 1]

    def test_level2_vector(self):
        vector = level2_vector({Technique.GLOBAL_ARRAY, "minification_simple"})
        assert vector.sum() == 2
        assert vector[LEVEL2_LABELS.index("global_array")] == 1


class TestTrainingData:
    def test_build_creates_all_variants(self, training_data):
        assert set(training_data.variants) == set(TECHNIQUES)
        for pool in training_data.variants.values():
            assert len(pool) == len(training_data.regular)

    def test_variant_labels_from_transformer(self, training_data):
        for technique, pool in training_data.variants.items():
            transformer = get_transformer(technique)
            assert all(labels == transformer.labels for _src, labels in pool)

    def test_level1_set_balanced(self, training_data):
        rng = random.Random(1)
        labeled = training_data.level1_set(8, rng)
        regular_rows = (labeled.Y[:, 0] == 1).sum()
        assert regular_rows == 8
        assert labeled.Y.shape[1] == 3

    def test_level2_set_shape(self, training_data):
        rng = random.Random(2)
        labeled = training_data.level2_set(4, rng)
        assert len(labeled.sources) == 4 * 10
        assert labeled.Y.shape == (40, 10)

    def test_exclusion(self, training_data):
        rng = random.Random(3)
        exclude = set(range(len(training_data.regular) - 4))
        labeled = training_data.level2_set(100, rng, exclude=exclude)
        assert len(labeled.sources) == 4 * 10  # only 4 indices available


class TestLevel1(object):
    def test_regular_detection(self, trained_detector, regular_corpus):
        labels = trained_detector.level1.predict_labels(regular_corpus)
        accuracy = sum(1 for ls in labels if ls == {"regular"}) / len(labels)
        assert accuracy >= 0.8

    def test_minified_detection(self, trained_detector, regular_corpus, rng):
        minified = [
            get_transformer("minification_simple").transform(src, rng)
            for src in regular_corpus[:6]
        ]
        flags = trained_detector.level1.is_transformed(minified)
        assert flags.mean() >= 0.8

    def test_obfuscated_detection(self, trained_detector, regular_corpus, rng):
        obfuscated = [
            get_transformer("global_array").transform(src, rng)
            for src in regular_corpus[:6]
        ]
        labels = trained_detector.level1.predict_labels(obfuscated)
        hits = sum(1 for ls in labels if "obfuscated" in ls)
        assert hits >= 4

    def test_proba_shape(self, trained_detector, regular_corpus):
        proba = trained_detector.level1.predict_proba(regular_corpus[:3])
        assert proba.shape == (3, 3)

    def test_unfitted_raises(self):
        from repro.detector.level1 import Level1Detector

        with pytest.raises(RuntimeError):
            Level1Detector().predict_labels(["var x = 1;"])

    def test_labels_never_empty(self, trained_detector, regular_corpus):
        for labels in trained_detector.level1.predict_labels(regular_corpus[:4]):
            assert labels


class TestLevel2:
    def test_technique_recognition_top1(self, trained_detector, regular_corpus, rng):
        hits = 0
        total = 0
        for technique in (
            "minification_simple",
            "identifier_obfuscation",
            "control_flow_flattening",
            "no_alphanumeric",
        ):
            transformer = get_transformer(technique)
            sources = [transformer.transform(s, rng) for s in regular_corpus[:3]]
            proba = trained_detector.level2.predict_proba(sources)
            for row in proba:
                top1 = LEVEL2_LABELS[int(np.argmax(row))]
                total += 1
                if Technique(top1) in transformer.labels:
                    hits += 1
        assert hits / total >= 0.7

    def test_thresholded_topk_interface(self, trained_detector, regular_corpus, rng):
        minified = get_transformer("minification_simple").transform(
            regular_corpus[0], rng
        )
        results = trained_detector.level2.predict_techniques([minified])
        assert len(results) == 1
        for name, probability in results[0]:
            assert name in LEVEL2_LABELS
            assert probability >= DEFAULT_THRESHOLD
        assert len(results[0]) <= DEFAULT_K

    def test_defaults_match_paper(self):
        assert DEFAULT_THRESHOLD == 0.10
        assert DEFAULT_K == 4

    def test_unfitted_raises(self):
        from repro.detector.level2 import Level2Detector

        with pytest.raises(RuntimeError):
            Level2Detector().predict_proba(["var x = 1;"])


class TestPipelineFacade:
    def test_classify_regular(self, trained_detector, regular_corpus):
        result = trained_detector.classify(regular_corpus[0])
        assert result.transformed in (True, False)
        if not result.transformed:
            assert result.techniques == []

    def test_classify_transformed(self, trained_detector, regular_corpus, rng):
        out = get_transformer("minification_simple").transform(regular_corpus[1], rng)
        result = trained_detector.classify(out)
        assert result.transformed
        assert result.techniques

    def test_classify_many_order(self, trained_detector, regular_corpus, rng):
        minified = get_transformer("minification_simple").transform(
            regular_corpus[2], rng
        )
        engine = trained_detector.batch_engine()
        results = engine.classify([regular_corpus[0], minified])
        assert len(results) == 2
        assert results[1].transformed

    def test_str_rendering(self, trained_detector, regular_corpus):
        result = trained_detector.classify(regular_corpus[3])
        assert isinstance(str(result), str)

    def test_save_load_roundtrip(self, trained_detector, tmp_path, regular_corpus):
        path = tmp_path / "detector.pkl"
        trained_detector.save(path)
        loaded = TransformationDetector.load(path)
        original = trained_detector.level1.predict_proba(regular_corpus[:2])
        restored = loaded.level1.predict_proba(regular_corpus[:2])
        assert np.allclose(original, restored)

    def test_load_wrong_type_raises(self, tmp_path):
        import pickle

        from repro.detector.pipeline import ModelFormatError

        path = tmp_path / "bogus.pkl"
        path.write_bytes(pickle.dumps({"not": "a detector"}))
        with pytest.raises(ModelFormatError):
            TransformationDetector.load(path)

    def test_load_rejects_format_version_mismatch(self, trained_detector, tmp_path):
        import pickle

        from repro.detector.pipeline import MODEL_FORMAT_VERSION, ModelFormatError

        path = tmp_path / "detector.pkl"
        trained_detector.save(path)
        payload = pickle.loads(path.read_bytes())
        assert payload["format_version"] == MODEL_FORMAT_VERSION
        payload["format_version"] = MODEL_FORMAT_VERSION + 1
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(ModelFormatError, match="format version"):
            TransformationDetector.load(path)

    def test_load_rejects_feature_dim_mismatch(self, trained_detector, tmp_path):
        import pickle

        from repro.detector.pipeline import ModelFormatError

        path = tmp_path / "detector.pkl"
        trained_detector.save(path)
        payload = pickle.loads(path.read_bytes())
        payload["level2_features"] = payload["level2_features"] + 7
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(ModelFormatError, match="feature spaces have diverged"):
            TransformationDetector.load(path)

    def test_load_accepts_legacy_bare_pickle(self, trained_detector, tmp_path):
        import pickle

        path = tmp_path / "legacy.pkl"
        path.write_bytes(pickle.dumps(trained_detector))
        loaded = TransformationDetector.load(path)
        assert isinstance(loaded, TransformationDetector)


class TestGeneralization:
    def test_packer_detected_as_transformed(self, trained_detector, regular_corpus, rng):
        from repro.transform.packer import pack

        packed = [pack(src, rng) for src in regular_corpus[:5]]
        flags = trained_detector.level1.is_transformed(packed)
        assert flags.mean() >= 0.6  # held-out tool still flagged

    def test_fresh_regular_not_flagged(self, trained_detector):
        fresh = generate_corpus(6, seed=31337)
        flags = trained_detector.level1.is_transformed(fresh)
        assert flags.mean() <= 0.35
