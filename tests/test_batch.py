"""Batch inference engine: single-pass, parallel, fault-isolated, cached."""

import numpy as np
import pytest

from repro.detector.batch import BatchInferenceEngine, DetectionError
from repro.features.extractor import FeatureExtractor, PairedFeatureExtractor
from repro.transform import get_transformer


@pytest.fixture(scope="module")
def mixed_sources(regular_corpus) -> list[str]:
    """Seeded corpus: regular + minified + obfuscated scripts."""
    import random

    corpus = regular_corpus
    rng = random.Random(0xBA7C4)
    minified = [
        get_transformer("minification_simple").transform(s, rng) for s in corpus[:3]
    ]
    obfuscated = [
        get_transformer("global_array").transform(s, rng) for s in corpus[3:5]
    ]
    return corpus[:4] + minified + obfuscated


class TestPairedExtractor:
    def test_matches_per_level_extraction(self, trained_detector, mixed_sources):
        paired = PairedFeatureExtractor(
            trained_detector.level1.extractor, trained_detector.level2.extractor
        )
        for source in mixed_sources[:3]:
            outcome = paired.extract_pair(source)
            extract1 = trained_detector.level1.extractor.extract
            extract2 = trained_detector.level2.extractor.extract
            assert np.array_equal(outcome.vector1, extract1(source))
            assert np.array_equal(outcome.vector2, extract2(source))
            assert outcome.ok
            assert outcome.df_available is True
            assert outcome.flow_timeout is False
            assert isinstance(outcome.findings, list)

    def test_distinct_ngram_dims_supported(self, sample_source):
        paired = PairedFeatureExtractor(
            FeatureExtractor(level=1, ngram_dims=64),
            FeatureExtractor(level=2, ngram_dims=128),
        )
        outcome = paired.extract_pair(sample_source)
        assert outcome.vector1.shape[0] == paired.level1.n_features
        assert outcome.vector2.shape[0] == paired.level2.n_features


class TestSinglePass:
    def test_classify_many_parses_each_source_exactly_once(
        self, trained_detector, mixed_sources, monkeypatch
    ):
        """Regression: level 2 must not re-parse level-1-flagged sources."""
        import repro.js.parser as parser_mod

        calls = {"n": 0}
        original = parser_mod.Parser.parse_program

        def counting(self):
            calls["n"] += 1
            return original(self)

        monkeypatch.setattr(parser_mod.Parser, "parse_program", counting)
        results = trained_detector.batch_engine().classify(mixed_sources)
        # At least one transformed file means the old double-parse path
        # would have counted strictly more than len(mixed_sources).
        assert any(r.transformed for r in results)
        assert calls["n"] == len(mixed_sources)

    def test_cached_reclassification_parses_nothing(
        self, trained_detector, mixed_sources, monkeypatch
    ):
        import repro.js.parser as parser_mod

        engine = trained_detector.batch_engine(n_workers=1)
        engine.classify(mixed_sources)  # warm the cache

        def boom(self):
            raise AssertionError("cache hit should not parse")

        monkeypatch.setattr(parser_mod.Parser, "parse_program", boom)
        result = engine.classify(mixed_sources)
        assert result.stats.cache_hits == len(mixed_sources)


class TestParallelEquivalence:
    def test_parallel_features_bit_identical(self, trained_detector, mixed_sources):
        serial = trained_detector.batch_engine(n_workers=1, cache_size=0)
        parallel = trained_detector.batch_engine(n_workers=2, cache_size=0)
        fs = serial.extract(mixed_sources)
        fp = parallel.extract(mixed_sources)
        assert fs.ok_indices == fp.ok_indices
        assert np.array_equal(fs.X1, fp.X1)
        assert np.array_equal(fs.X2, fp.X2)

    def test_parallel_labels_match_serial(self, trained_detector, mixed_sources):
        serial = trained_detector.batch_engine(n_workers=1).classify(mixed_sources)
        parallel = trained_detector.batch_engine(n_workers=2).classify(mixed_sources)
        assert len(serial) == len(parallel)
        for a, b in zip(serial, parallel):
            assert a.level1 == b.level1
            assert a.transformed == b.transformed
            assert a.techniques == b.techniques

    def test_pool_deob_bit_identical_to_serial(self, trained_detector, mixed_sources):
        """Deob in the process-pool workers must match the inference-thread path.

        ``wall_time_ms`` is the only report field allowed to differ — it
        measures the host, not the normalization.
        """
        serial = trained_detector.batch_engine(n_workers=1, cache_size=0)
        parallel = trained_detector.batch_engine(n_workers=2, cache_size=0)
        rs = serial.classify(mixed_sources, deob=True)
        rp = parallel.classify(mixed_sources, deob=True)
        assert rs.stats.deob_files == rp.stats.deob_files == len(mixed_sources)
        for a, b in zip(rs.results, rp.results):
            assert a.deob is not None and b.deob is not None
            assert a.deob.source == b.deob.source
            assert a.deob.changed == b.deob.changed
            report_a = a.deob.report.to_json()
            report_b = b.deob.report.to_json()
            report_a.pop("wall_time_ms")
            report_b.pop("wall_time_ms")
            assert report_a == report_b
            assert a.level1 == b.level1
            assert a.techniques == b.techniques

    def test_custom_rule_engine_keeps_serial_deob(self, trained_detector):
        """Pool workers rebuild the default catalog; a custom engine must
        not silently swap to it — those batches stay on the serial path."""
        from repro.rules.engine import RuleEngine

        engine = BatchInferenceEngine(
            trained_detector, n_workers=2, rule_engine=RuleEngine()
        )
        assert engine._default_rules is False
        sources = ["var x = 1;", "var y = 2;"]
        batch = engine.classify(sources, deob=True)
        assert batch.stats.deob_files == len(sources)


class TestFaultIsolation:
    @pytest.fixture()
    def faulty_batch(self, mixed_sources):
        oversize = "var x = 1; " * (200 * 1024)  # > 2 MB
        return (
            [mixed_sources[0], "function ((("]
            + [mixed_sources[1], oversize]
            + [mixed_sources[2]]
        )

    def test_batch_completes_with_per_file_errors(self, trained_detector, faulty_batch):
        result = trained_detector.batch_engine().classify(faulty_batch)
        assert len(result) == 5
        assert result[1].error is not None and result[1].error.kind == "parse"
        assert result[3].error is not None and result[3].error.kind == "oversize"
        assert not result[1].transformed and result[1].techniques == []
        assert result.stats.errors == 2
        assert result.stats.ok == 3

    def test_neighbors_unaffected_by_faults(self, trained_detector, faulty_batch):
        healthy = [faulty_batch[0], faulty_batch[2], faulty_batch[4]]
        alone = trained_detector.batch_engine().classify(healthy)
        interleaved = trained_detector.batch_engine().classify(faulty_batch)
        surviving = [interleaved[0], interleaved[2], interleaved[4]]
        for a, b in zip(alone, surviving):
            assert a.level1 == b.level1
            assert a.transformed == b.transformed
            assert a.techniques == b.techniques

    def test_faults_isolated_across_workers(self, trained_detector, faulty_batch):
        result = trained_detector.batch_engine(n_workers=2).classify(faulty_batch)
        assert [i for i, r in enumerate(result.results) if r.error] == [1, 3]
        assert all(r.ok for i, r in enumerate(result.results) if i not in (1, 3))

    @pytest.mark.parametrize("fault", ["parse", "recursion", "internal"])
    def test_error_kind_same_under_every_triage_mode(
        self, trained_detector, monkeypatch, fault
    ):
        """Extraction and both triage parse stages map exceptions alike.

        Each source carries ``eval`` so that rules-only triage parses it.
        """
        import repro.flows.graph as graph
        import repro.rules.context as context

        source = {
            "parse": "eval(x);\nfunction (((",
            "recursion": "eval(x);\nvar a = " + "{a:\n" * 3000 + "1" + "}\n" * 3000 + ";",
            "internal": "eval(x);\nvar a = 1;",
        }[fault]
        if fault == "internal":

            def boom(program):
                raise RuntimeError("injected")

            monkeypatch.setattr(graph, "analyze_scopes", boom)
            monkeypatch.setattr(context, "analyze_scopes", boom)
        errors = []
        for mode in ("off", "prefilter", "only"):
            engine = BatchInferenceEngine(trained_detector, cache_size=0, triage=mode)
            errors.append(engine.classify([source])[0].error)
        assert errors[0] is not None and errors[0].kind == fault
        assert errors[1] == errors[0] and errors[2] == errors[0]

    def test_error_str_rendering(self):
        error = DetectionError(kind="parse", message="bad token")
        assert "parse" in str(error) and "bad token" in str(error)


class TestCache:
    def test_in_batch_duplicates_hit_cache(self, trained_detector, mixed_sources):
        engine = trained_detector.batch_engine(n_workers=1)
        batch = [mixed_sources[0]] * 3 + [mixed_sources[1]]
        result = engine.classify(batch)
        assert result.stats.cache_hits == 2
        assert str(result[0]) == str(result[1]) == str(result[2])

    def test_cross_batch_cache_and_eviction(self, trained_detector, mixed_sources):
        engine = trained_detector.batch_engine(n_workers=1, cache_size=2)
        engine.classify(mixed_sources[:2])
        second = engine.classify(mixed_sources[:2])
        assert second.stats.cache_hits == 2
        engine.classify(mixed_sources[2:5])  # evicts the first two
        third = engine.classify(mixed_sources[:2])
        assert third.stats.cache_hits == 0

    def test_cache_size_zero_disables_caching(self, trained_detector, mixed_sources):
        engine = trained_detector.batch_engine(n_workers=1, cache_size=0)
        engine.classify([mixed_sources[0]])
        again = engine.classify([mixed_sources[0]])
        assert again.stats.cache_hits == 0


class TestEmptyAndStats:
    def test_empty_extract_matrix(self):
        extractor = FeatureExtractor(level=2)
        matrix = extractor.extract_matrix([])
        assert matrix.shape == (0, extractor.n_features)

    def test_empty_batch(self, trained_detector):
        result = trained_detector.batch_engine().classify([])
        assert result.results == []
        assert result.stats.files == 0 and result.stats.errors == 0

    def test_stats_shape(self, trained_detector, mixed_sources):
        result = trained_detector.batch_engine().classify(mixed_sources[:3])
        stats = result.stats
        assert stats.files == 3
        assert stats.ok + stats.errors == 3
        assert stats.wall_time > 0
        assert "3 files" in str(stats)


class TestEngineConstruction:
    def test_engine_shares_detector_extractors(self, trained_detector):
        engine = BatchInferenceEngine(trained_detector)
        assert engine.paired.level1 is trained_detector.level1.extractor
        assert engine.paired.level2 is trained_detector.level2.extractor

    def test_n_workers_floor(self, trained_detector):
        assert BatchInferenceEngine(trained_detector, n_workers=0).n_workers == 1
