#!/usr/bin/env python3
"""Scan a directory of .js files and report transformation techniques.

The measurement-study workflow of §IV, pointed at your own files: every
admissible script (512 B – 2 MB, real code per the paper's filters) is
classified by level 1, and transformed files get a level-2 technique
report with the 10%-thresholded Top-4 rule.

Run:  python examples/scan_directory.py [directory] [n_workers]

Without an argument the example generates a demo directory containing a
mix of regular, minified and obfuscated files first.  ``n_workers``
(default 2) fans feature extraction out across a process pool.
"""

import os
import random
import sys
import tempfile
from pathlib import Path

from repro import TransformationDetector
from repro.corpus.filters import admit
from repro.corpus.generator import generate_corpus
from repro.transform import get_transformer


def build_demo_directory() -> Path:
    directory = Path(tempfile.mkdtemp(prefix="repro_scan_demo_"))
    rng = random.Random(1)
    scripts = generate_corpus(6, seed=123)
    for index, source in enumerate(scripts[:3]):
        (directory / f"regular_{index}.js").write_text(source)
    (directory / "bundle.min.js").write_text(
        get_transformer("minification_simple").transform(scripts[3], rng)
    )
    (directory / "vendor.min.js").write_text(
        get_transformer("minification_advanced").transform(scripts[4], rng)
    )
    (directory / "tracker.js").write_text(
        get_transformer("global_array").transform(scripts[5], rng)
    )
    return directory


def main() -> None:
    if len(sys.argv) > 1:
        directory = Path(sys.argv[1])
    else:
        directory = build_demo_directory()
        print(f"(no directory given; built demo corpus in {directory})")

    print("Training detector ...")
    detector = TransformationDetector(n_estimators=12, random_state=0)
    detector.train(n_regular=30, seed=0)

    files = sorted(directory.glob("**/*.js"))
    if not files:
        print(f"no .js files under {directory}")
        return
    print(f"\nScanning {len(files)} file(s) under {directory}\n")
    admitted: list[Path] = []
    sources: list[str] = []
    for path in files:
        source = path.read_text(errors="replace")
        if not admit(source):
            print(f"{path.name:>20}: skipped (fails the paper's admission filters)")
            continue
        admitted.append(path)
        sources.append(source)
    # One pass through the batch engine: each file is parsed once, feature
    # extraction fans out across n_workers processes, and unreadable files
    # come back as per-file errors instead of crashing the scan.
    n_workers = int(sys.argv[2]) if len(sys.argv) > 2 else min(2, os.cpu_count() or 1)
    results = detector.batch_engine(n_workers=n_workers).classify(sources).results
    n_transformed = 0
    for path, result in zip(admitted, results):
        n_transformed += int(result.transformed)
        print(f"{path.name:>20}: {result}")
    print(f"\n[batch] {len(results)} files with {n_workers} worker(s)")
    print(f"\n{n_transformed}/{len(files)} files transformed "
          f"(paper: 68.60% for Alexa Top 10k, 8.7% for npm)")


if __name__ == "__main__":
    main()
