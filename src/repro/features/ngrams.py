"""AST 4-gram features (§III-B).

A window of length four moves over the pre-order sequence of syntactic
units (AST node types), retaining local structure: *"moving a window of
length four over the list of syntactic units extracted enables to retain
information about the code original syntactic structure."*

The n-gram space is hashed into a fixed number of dimensions so every file
maps into the same vector space regardless of which n-grams it contains.
"""

from __future__ import annotations

import zlib
from collections import Counter

import numpy as np

from repro.js.ast_nodes import Node, iter_child_nodes


def ast_unit_sequence(program: Node) -> list[str]:
    """Pre-order sequence of node types (the paper's syntactic units)."""
    sequence: list[str] = []
    stack = [program]
    while stack:
        node = stack.pop()
        sequence.append(node.type)
        children = list(iter_child_nodes(node))
        stack.extend(reversed(children))
    return sequence


def ast_ngram_vector(
    program: Node,
    n: int = 4,
    n_dims: int = 512,
    max_units: int = 200_000,
) -> np.ndarray:
    """Hashed, frequency-normalised n-gram vector of length ``n_dims``.

    ``max_units`` caps the traversal on pathological inputs (multi-megabyte
    machine-generated files) — the prefix is representative since n-gram
    frequencies stabilise quickly.
    """
    sequence = ast_unit_sequence(program)
    return _hashed_ngrams(sequence, n, n_dims, max_units)


def hashed_ngram_vector(
    sequence: list[str],
    n: int = 4,
    n_dims: int = 512,
    max_units: int = 200_000,
) -> np.ndarray:
    """Hashed n-gram vector over a precomputed unit sequence.

    Lets callers holding a :class:`repro.js.flat.FlatIndex` reuse its
    pre-order type-name array instead of re-walking the tree."""
    return _hashed_ngrams(sequence, n, n_dims, max_units)


#: ``(n, n_dims) -> {gram tuple -> bucket}``.  The universe of AST-type
#: n-grams is small (node types, not identifiers), so the crc32 bucketing
#: is memoized process-wide; the cap bounds the cache on pathological
#: inputs with unusually many distinct grams.
_BUCKET_CACHE: dict[tuple[int, int], dict[tuple[str, ...], int]] = {}
_BUCKET_CACHE_MAX = 1 << 16


def _hashed_ngrams(
    sequence: list[str], n: int, n_dims: int, max_units: int
) -> np.ndarray:
    if len(sequence) > max_units:
        sequence = sequence[:max_units]
    vector = np.zeros(n_dims, dtype=np.float64)
    if len(sequence) < n:
        return vector
    if n == 4:
        grams = zip(sequence, sequence[1:], sequence[2:], sequence[3:])
    else:
        grams = zip(*(sequence[i:] for i in range(n)))
    # Count each distinct gram once, then hash per distinct gram.  Bucket
    # sums stay exact (small integers in float64), so the result is
    # bit-identical to per-occurrence accumulation.
    counts = Counter(grams)
    cache = _BUCKET_CACHE.setdefault((n, n_dims), {})
    cache_get = cache.get
    caching = len(cache) < _BUCKET_CACHE_MAX
    crc32 = zlib.crc32
    for gram, count in counts.items():
        bucket = cache_get(gram)
        if bucket is None:
            bucket = crc32("\x00".join(gram).encode("utf-8")) % n_dims
            if caching:
                cache[gram] = bucket
        vector[bucket] += count
    total = vector.sum()
    if total > 0:
        vector /= total
    return vector
