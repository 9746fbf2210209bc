"""Crawl-scale sharded scanning pipeline (`repro scan`).

The paper's headline contribution is a measurement study over ~20M
scripts crawled from live pages.  This package is that measurement leg
at production scale: a manifest-driven, sharded, resumable scanner that
survives millions of files, crashes, and re-runs.

Layers (see DESIGN.md §12):

- :mod:`repro.scan.manifest` — streaming ingestion of scan units from
  directories, tarballs (no disk extraction), and crawled HTML pages,
  each unit keyed by content SHA-256 with a provenance record;
- :mod:`repro.scan.store` — content-addressed result store (directory
  sharded on hash prefix, atomic per-object writes) that makes re-scans
  incremental and crashed runs resumable;
- :mod:`repro.scan.worker` — per-process engine setup plus shard
  processing with append-only JSONL shard logs and checkpoint records;
- :mod:`repro.scan.coordinator` — manifest sharding and work-stealing
  dispatch across a process pool;
- :mod:`repro.scan.merge` — deterministic fold of store records into
  the corpus-prevalence report the longitudinal analysis consumes.

Scan progress is counted in a :class:`repro.obs.MetricsRegistry`, the same
leaf-module registry ``serve`` uses; a lint gate keeps this package from
ever importing the serving layer.
"""

from repro.scan.coordinator import ScanConfig, ScanCoordinator, ScanStats
from repro.scan.manifest import ExternalRef, IngestError, ScanUnit, iter_ingest
from repro.scan.merge import merge_scan, write_report
from repro.scan.store import ResultStore

__all__ = [
    "ExternalRef",
    "IngestError",
    "ResultStore",
    "ScanConfig",
    "ScanCoordinator",
    "ScanStats",
    "ScanUnit",
    "iter_ingest",
    "merge_scan",
    "write_report",
]
