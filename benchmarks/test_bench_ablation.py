"""Ablation benchmarks for the design choices DESIGN.md calls out.

- classifier chain vs. independent binary relevance (§III-D3),
- n-grams + hand-picked features vs. n-grams alone,
- data-flow features on vs. off (the CF-only fallback past the DFG pair cap),
- threshold sweep around the paper's 10% operating point.
"""

import random

from repro.detector.level2 import Level2Detector
from repro.ml.metrics import exact_match_accuracy, thresholded_top_k, wrong_and_missing


def _level2_sets(context):
    # Ablations retrain several detectors, so cap the per-technique sizes
    # independently of the session scale to keep the suite laptop-sized.
    rng = random.Random(5)
    train = context.training_data.level2_set(
        min(12, max(6, len(context.training_data.regular) // 2)), rng
    )
    test = context.training_data.level2_set(
        min(8, max(4, len(context.training_data.regular) // 4)), rng
    )
    return train, test


def test_chain_vs_binary_relevance(benchmark, context):
    train, test = _level2_sets(context)

    def run():
        results = {}
        for use_chain in (True, False):
            detector = Level2Detector(
                n_estimators=10, random_state=3, use_chain=use_chain
            )
            detector.fit(train.sources, train.Y)
            prediction = (detector.predict_proba(test.sources) >= 0.5).astype(int)
            results["chain" if use_chain else "independent"] = exact_match_accuracy(
                test.Y, prediction
            )
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nexact-match: chain={results['chain']:.2%} "
          f"independent={results['independent']:.2%}")
    # Paper §III-D3: the chain performed best on validation.  At bench
    # scale we require the chain not to be materially worse.
    assert results["chain"] >= results["independent"] - 0.10


def test_ngrams_alone_vs_full_features(benchmark, context):
    train, test = _level2_sets(context)

    def run():
        results = {}
        for name, ngram_dims, keep_static in (("full", 128, True), ("ngrams_only", 128, False)):
            detector = Level2Detector(n_estimators=10, random_state=4, ngram_dims=ngram_dims)
            X_train = detector.extractor.extract_matrix(train.sources)
            X_test = detector.extractor.extract_matrix(test.sources)
            if not keep_static:
                X_train = X_train[:, :ngram_dims]
                X_test = X_test[:, :ngram_dims]
            detector.fit_features(X_train, train.Y)
            prediction = (detector.predict_proba_features(X_test) >= 0.5).astype(int)
            results[name] = exact_match_accuracy(test.Y, prediction)
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nexact-match: full={results['full']:.2%} ngrams-only={results['ngrams_only']:.2%}")
    # Hand-picked features should help (or at least not hurt much).
    assert results["full"] >= results["ngrams_only"] - 0.05


def test_data_flow_ablation(benchmark, context, monkeypatch):
    import repro.flows.dfg as dfg

    train, test = _level2_sets(context)

    def run():
        results = {}
        for name, pair_cap in (("with_df", dfg.MAX_DATA_FLOW_PAIRS), ("cf_only", 0)):
            with monkeypatch.context() as patch:
                # A pair cap of 0 sends every file with a def→use edge
                # down the CF-only fallback.
                patch.setattr(dfg, "MAX_DATA_FLOW_PAIRS", pair_cap)
                detector = Level2Detector(n_estimators=10, random_state=5)
                detector.fit(train.sources, train.Y)
                prediction = (detector.predict_proba(test.sources) >= 0.5).astype(int)
            results[name] = exact_match_accuracy(test.Y, prediction)
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nexact-match: with-DF={results['with_df']:.2%} CF-only={results['cf_only']:.2%}")
    # The CF-only fallback must stay usable (paper keeps analysing after
    # the 2-minute timeout, here the DFG pair cap).
    assert results["cf_only"] >= 0.3


def test_threshold_sweep(benchmark, context):
    """Reproduce the trade-off that led the paper to pick 10%."""
    from repro.experiments import accuracy

    ts2 = accuracy.run_test_set_2(context)

    def run():
        rows = []
        for threshold in (0.02, 0.05, 0.10, 0.25, 0.50):
            prediction = thresholded_top_k(ts2["proba"], k=7, threshold=threshold)
            wrong, missing = wrong_and_missing(ts2["Y"], prediction)
            rows.append({"threshold": threshold, "wrong": wrong, "missing": missing})
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    for row in rows:
        print(f"  threshold={row['threshold']:.2f} wrong={row['wrong']:.2f} "
              f"missing={row['missing']:.2f}")
    wrongs = [row["wrong"] for row in rows]
    missings = [row["missing"] for row in rows]
    # Raising the threshold trades wrong labels for missing labels.
    assert wrongs == sorted(wrongs, reverse=True)
    assert missings == sorted(missings)
