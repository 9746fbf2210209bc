"""Crawl-scale scan pipeline: manifest, store, workers, coordinator, merge."""

from __future__ import annotations

import io
import json
import os
import tarfile
from pathlib import Path

import pytest

from repro.scan import (
    ResultStore,
    ScanConfig,
    ScanCoordinator,
    iter_ingest,
    merge_scan,
    write_report,
)
from repro.obs import MetricsRegistry
from repro.scan.manifest import iter_directory, iter_tarball
from repro.scan.worker import ShardTask, ShardWorker, WorkerConfig, build_record


def _write_corpus(root: Path, n: int = 6, prefix: str = "f") -> list[Path]:
    """Deterministic minified-shaped files (decided at the text stage)."""
    paths = []
    root.mkdir(parents=True, exist_ok=True)
    for index in range(n):
        path = root / f"{prefix}{index}.js"
        path.write_text(
            f"var a{index}=1;function b{index}(c){{return c?c+{index}:0}};" * 24
        )
        paths.append(path)
    return paths


def _events(iterable):
    units, externals, errors = [], [], []
    for kind, payload in iterable:
        {"unit": units, "external": externals, "error": errors}[kind].append(payload)
    return units, externals, errors


# -- manifest / ingestion ------------------------------------------------------


class TestIngestion:
    def test_directory_units_are_sorted_and_content_addressed(self, tmp_path):
        _write_corpus(tmp_path / "corpus", 3)
        units, _, errors = _events(iter_directory(tmp_path / "corpus"))
        assert [unit.origin for unit in units] == ["f0.js", "f1.js", "f2.js"]
        assert not errors
        assert all(len(unit.sha256) == 64 for unit in units)
        assert all(unit.kind == "file" for unit in units)
        assert len({unit.sha256 for unit in units}) == 3

    def test_symlink_loop_terminates_and_units_appear_once(self, tmp_path):
        corpus = tmp_path / "corpus"
        _write_corpus(corpus / "sub", 2)
        (corpus / "loop").symlink_to(corpus)
        (corpus / "sub" / "back").symlink_to(corpus / "sub")
        units, _, errors = _events(iter_directory(corpus))
        assert len(units) == 2  # each real file ingested exactly once
        assert not errors

    def test_unreadable_file_becomes_error_record(self, tmp_path):
        corpus = tmp_path / "corpus"
        _write_corpus(corpus, 1)
        (corpus / "broken.js").symlink_to(corpus / "does-not-exist.js")
        units, _, errors = _events(iter_directory(corpus))
        assert len(units) == 1
        assert [error.kind for error in errors] == ["unreadable"]
        assert errors[0].origin == "broken.js"

    def test_non_utf8_becomes_decode_error_record(self, tmp_path):
        corpus = tmp_path / "corpus"
        _write_corpus(corpus, 1)
        (corpus / "binary.js").write_bytes(b"\xff\xfe\x00\x01 not text")
        units, _, errors = _events(iter_directory(corpus))
        assert len(units) == 1
        assert [error.kind for error in errors] == ["decode"]
        assert "UTF-8" in errors[0].message

    def test_oversize_file_is_recorded_not_read(self, tmp_path):
        corpus = tmp_path / "corpus"
        big = corpus
        big.mkdir()
        (corpus / "big.js").write_text("x = 1;" * 100)
        units, _, errors = _events(iter_directory(corpus, max_bytes=64))
        assert not units
        assert [error.kind for error in errors] == ["oversize"]

    def test_html_page_yields_provenance_tagged_units(self, tmp_path):
        page = tmp_path / "page.html"
        page.write_text(
            "<html><body onload=\"boot()\">"
            "<script>function boot(){if(1){go()}}</script>"
            "<script src='https://cdn.example/app.js'></script>"
            "<div onclick='handle(2)'>x</div>"
            "<script type='application/json'>{\"k\":1}</script>"
            "</body></html>"
        )
        units, externals, errors = _events(iter_ingest([page]))
        kinds = sorted(unit.kind for unit in units)
        assert kinds == ["event_handler", "event_handler", "inline_script"]
        details = {unit.detail for unit in units}
        assert any(detail.startswith("body@onload") for detail in details)
        assert any(detail.startswith("div@onclick") for detail in details)
        assert [external.url for external in externals] == [
            "https://cdn.example/app.js"
        ]
        assert externals[0].detail == "script[1]"
        assert not errors

    def test_tarball_streams_js_and_html_members(self, tmp_path):
        archive = tmp_path / "bundle.tar.gz"
        with tarfile.open(archive, "w:gz") as tar:
            for name, data in [
                ("lib/a.js", b"function tarred(x){while(x<3){x++}return x}"),
                ("pages/p.html", b"<script>function inTar(){return 1}</script>"),
                ("skip/readme.txt", b"not javascript"),
                ("bad/bin.js", b"\xff\xfe binary"),
            ]:
                info = tarfile.TarInfo(name)
                info.size = len(data)
                tar.addfile(info, io.BytesIO(data))
        units, _, errors = _events(iter_tarball(archive, "bundle.tar.gz"))
        origins = sorted(unit.origin for unit in units)
        assert origins == ["bundle.tar.gz!lib/a.js", "bundle.tar.gz!pages/p.html"]
        assert {unit.kind for unit in units} == {"tar_member", "inline_script"}
        assert [error.kind for error in errors] == ["decode"]

    def test_corrupt_tarball_is_one_error_record(self, tmp_path):
        archive = tmp_path / "junk.tar"
        archive.write_bytes(b"this is not a tar archive at all" * 20)
        units, _, errors = _events(iter_tarball(archive, "junk.tar"))
        assert not units
        assert [error.kind for error in errors] == ["tar"]

    def test_missing_root_is_error_record(self, tmp_path):
        units, _, errors = _events(iter_ingest([tmp_path / "nope"]))
        assert not units
        assert [error.kind for error in errors] == ["missing"]


# -- content-addressed store ---------------------------------------------------


class TestResultStore:
    def test_put_get_roundtrip_sharded_layout(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        sha = "ab" + "0" * 62
        store.put(sha, {"sha256": sha, "ok": True, "engine_key": "k"})
        assert store.path_for(sha).parent.name == "ab"
        assert store.get(sha) == {"sha256": sha, "ok": True, "engine_key": "k"}
        assert store.has(sha)
        assert store.has(sha, engine_key="k")
        assert not store.has(sha, engine_key="other")

    def test_corrupt_object_reads_as_absent(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        sha = "cd" + "1" * 62
        store.put(sha, {"ok": True})
        store.path_for(sha).write_text("{torn")
        assert store.get(sha) is None
        assert not store.has(sha, engine_key="k")

    def test_no_temp_droppings_after_puts(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        for index in range(8):
            sha = f"{index:02x}" + "2" * 62
            store.put(sha, {"index": index})
        leftovers = [
            path for path in (tmp_path / "store").rglob("*") if ".tmp." in path.name
        ]
        assert not leftovers
        assert len(list(store.iter_hashes())) == 8

    def test_run_dirs_increment(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        assert store.next_run_dir().name == "run-0001"
        assert store.next_run_dir().name == "run-0002"


# -- shard worker --------------------------------------------------------------


class TestShardWorker:
    def _task(self, tmp_path, units):
        return ShardTask(
            index=0, units=tuple(units), log_path=str(tmp_path / "shard.jsonl")
        )

    def _units(self, tmp_path, n=3):
        corpus = tmp_path / "corpus"
        _write_corpus(corpus, n)
        units, _, _ = _events(iter_directory(corpus))
        return units

    def test_rules_only_worker_persists_engine_keyed_records(self, tmp_path):
        config = WorkerConfig(store_root=str(tmp_path / "store"), checkpoint_every=2)
        worker = ShardWorker(config)
        units = self._units(tmp_path)
        outcome = worker.process(self._task(tmp_path, units))
        assert outcome.ok == 3 and outcome.errors == 0
        store = ResultStore(tmp_path / "store")
        for unit in units:
            record = store.get(unit.sha256)
            assert record["engine_key"] == config.engine_key
            assert record["ok"] is True
            assert record["level1"] == ["minified"]
            assert "fingerprint" in record
            assert "wall" not in json.dumps(record)  # deterministic records

    def test_unparseable_unit_isolated_as_error_record(self, tmp_path):
        corpus = tmp_path / "corpus"
        _write_corpus(corpus, 1)
        # signature vocabulary ("eval") forces the deep triage stage,
        # where the broken syntax surfaces as a per-unit parse error
        (corpus / "broken.js").write_text("eval( [ } broken")
        units, _, _ = _events(iter_directory(corpus))
        worker = ShardWorker(WorkerConfig(store_root=str(tmp_path / "store")))
        outcome = worker.process(self._task(tmp_path, units))
        assert outcome.ok == 1 and outcome.errors == 1
        assert set(outcome.error_kinds) == {"parse"}
        store = ResultStore(tmp_path / "store")
        broken = next(unit for unit in units if unit.origin == "broken.js")
        record = store.get(broken.sha256)
        assert record["ok"] is False
        assert record["error"]["kind"] == "parse"

    def test_shard_log_carries_checkpoints_and_done_marker(self, tmp_path):
        config = WorkerConfig(store_root=str(tmp_path / "store"), checkpoint_every=2)
        worker = ShardWorker(config)
        units = self._units(tmp_path, 5)
        worker.process(self._task(tmp_path, units))
        lines = [
            json.loads(line)
            for line in Path(tmp_path / "shard.jsonl").read_text().splitlines()
        ]
        types = [line["type"] for line in lines]
        assert types.count("result") == 5
        assert types.count("checkpoint") == 2  # after units 2 and 4
        assert types[-1] == "shard_done"
        checkpoint = next(line for line in lines if line["type"] == "checkpoint")
        assert checkpoint["total"] == 5

    def test_engine_key_distinguishes_configurations(self, tmp_path):
        base = WorkerConfig(store_root="s")
        assert base.engine_key == WorkerConfig(store_root="other").engine_key
        assert base.engine_key != WorkerConfig(store_root="s", deob=True).engine_key
        assert base.engine_key != WorkerConfig(store_root="s", threshold=0.4).engine_key
        assert (
            base.engine_key
            != WorkerConfig(store_root="s", model_path="m.pkl", model_digest="x").engine_key
        )

    def test_build_record_compacts_findings(self, tmp_path):
        worker = ShardWorker(WorkerConfig(store_root=str(tmp_path / "store")))
        units = self._units(tmp_path, 1)
        batch = worker.engine.classify([units[0].source])
        record = build_record(units[0], batch.results[0], "key", None)
        assert record["findings"]
        assert set(record["findings"][0]) == {"rule_id", "technique", "confidence"}
        assert "fingerprint" not in record


# -- coordinator ---------------------------------------------------------------


def _scan(tmp_path, corpus, **overrides) -> tuple:
    defaults = dict(
        roots=[str(corpus)],
        store=str(tmp_path / "store"),
        shard_size=4,
        fingerprint=False,
    )
    defaults.update(overrides)
    config = ScanConfig(**defaults)
    metrics = MetricsRegistry()
    return ScanCoordinator(config, metrics=metrics).run(), metrics


class TestCoordinator:
    def test_end_to_end_counts_and_store_contents(self, tmp_path):
        corpus = tmp_path / "corpus"
        paths = _write_corpus(corpus, 6)
        (corpus / "dup.js").write_text(paths[0].read_text())
        stats, metrics = _scan(tmp_path, corpus)
        assert stats.units_seen == 7
        assert stats.unique == 6
        assert stats.duplicates == 1
        assert stats.scanned == 6
        assert stats.ok == 6
        assert stats.shards == 2  # 6 units / shard_size 4
        assert metrics.counter("scan_units_scanned_total") == 6
        assert metrics.counter("scan_shards_done_total") == 2
        assert len(list(ResultStore(tmp_path / "store").iter_hashes())) == 6

    def test_incremental_rescan_skips_everything(self, tmp_path):
        corpus = tmp_path / "corpus"
        _write_corpus(corpus, 6)
        first, _ = _scan(tmp_path, corpus)
        second, metrics = _scan(tmp_path, corpus)
        assert first.scanned == 6
        assert second.scanned == 0
        assert second.skipped_store == 6
        assert second.skip_rate == 1.0
        assert metrics.counter("scan_store_hits_total") == 6

    def test_changed_engine_invalidates_store_hits(self, tmp_path):
        corpus = tmp_path / "corpus"
        _write_corpus(corpus, 4)
        _scan(tmp_path, corpus)
        rescanned, _ = _scan(tmp_path, corpus, threshold=0.42)
        assert rescanned.skipped_store == 0
        assert rescanned.scanned == 4  # new engine key re-scans everything

    def test_no_incremental_rescans(self, tmp_path):
        corpus = tmp_path / "corpus"
        _write_corpus(corpus, 4)
        _scan(tmp_path, corpus)
        forced, _ = _scan(tmp_path, corpus, incremental=False)
        assert forced.scanned == 4 and forced.skipped_store == 0

    def test_pool_workers_match_serial_store(self, tmp_path):
        corpus = tmp_path / "corpus"
        _write_corpus(corpus, 10)
        serial, _ = _scan(tmp_path, corpus, store=str(tmp_path / "serial"))
        pooled, _ = _scan(
            tmp_path, corpus, store=str(tmp_path / "pooled"), n_workers=2, shard_size=3
        )
        assert serial.scanned == pooled.scanned == 10
        a = ResultStore(tmp_path / "serial")
        b = ResultStore(tmp_path / "pooled")
        hashes_a = list(a.iter_hashes())
        assert hashes_a == list(b.iter_hashes())
        assert all(a.get(sha) == b.get(sha) for sha in hashes_a)

    def test_ingest_errors_do_not_abort_the_scan(self, tmp_path):
        corpus = tmp_path / "corpus"
        _write_corpus(corpus, 2)
        (corpus / "binary.js").write_bytes(b"\xff\xfe\x00")
        (corpus / "broken.js").symlink_to(corpus / "gone.js")
        stats, _ = _scan(tmp_path, corpus)
        assert stats.scanned == 2
        assert stats.ingest_errors == 2

    def test_on_shard_callback_failures_are_swallowed(self, tmp_path):
        corpus = tmp_path / "corpus"
        _write_corpus(corpus, 3)

        def explode(outcome, metrics):
            raise RuntimeError("observer bug")

        stats, _ = _scan(tmp_path, corpus, on_shard=explode)
        assert stats.scanned == 3


# -- merge ---------------------------------------------------------------------


class TestMerge:
    def test_merge_report_shape_and_determinism(self, tmp_path):
        corpus = tmp_path / "corpus"
        paths = _write_corpus(corpus, 5)
        (corpus / "dup.js").write_text(paths[0].read_text())
        (corpus / "binary.js").write_bytes(b"\xff\xfe\x00")
        _scan(tmp_path, corpus, fingerprint=True)
        store = ResultStore(tmp_path / "store")
        report = merge_scan(store)
        assert report["units"]["total"] == 6
        assert report["units"]["unique"] == 5
        assert report["units"]["duplicates"] == 1
        assert report["ingest_errors"] == {"decode": 1}
        assert report["classification"]["ok"] == 5
        assert report["classification"]["level1"] == {"minified": 5}
        assert report["by_kind"] == {"file": 6}
        # identical input, identical bytes — twice
        first = write_report(report, tmp_path / "r1.json").read_bytes()
        second = write_report(merge_scan(store), tmp_path / "r2.json").read_bytes()
        assert first == second

    def test_waves_recovered_from_persisted_fingerprints(self, tmp_path):
        corpus = tmp_path / "corpus"
        # five structurally identical scripts with re-rolled identifiers
        corpus.mkdir()
        for index in range(5):
            (corpus / f"wave{index}.js").write_text(
                f"var q{index}=2;function w{index}(e){{return e?e+2:0}};" * 24
            )
        (corpus / "other.js").write_text(
            "function lonely(a,b){while(a<b){a+=2};return a}"
        )
        _scan(tmp_path, corpus, fingerprint=True)
        report = merge_scan(ResultStore(tmp_path / "store"))
        assert report["waves"]["n_waves"] == 1
        assert report["waves"]["largest_wave"] == 5

    def test_merge_counts_missing_records(self, tmp_path):
        corpus = tmp_path / "corpus"
        _write_corpus(corpus, 3)
        _scan(tmp_path, corpus)
        store = ResultStore(tmp_path / "store")
        victim = next(store.iter_hashes())
        os.unlink(store.path_for(victim))
        report = merge_scan(store)
        assert report["units"]["missing_records"] == 1
        assert report["classification"]["ok"] == 2


# -- CLI -----------------------------------------------------------------------


class TestScanCli:
    def test_scan_and_merge_via_main(self, tmp_path, capsys):
        from repro.__main__ import main

        corpus = tmp_path / "corpus"
        _write_corpus(corpus, 4)
        store = tmp_path / "store"
        stats_path = tmp_path / "stats.json"
        code = main(
            [
                "scan",
                str(corpus),
                "--store",
                str(store),
                "--rules-only",
                "--no-fingerprint",
                "--merge",
                "--stats-out",
                str(stats_path),
            ]
        )
        assert code == 0
        stats = json.loads(stats_path.read_text())
        assert stats["scanned"] == 4 and stats["ok"] == 4
        report = json.loads((store / "report.json").read_text())
        assert report["classification"]["ok"] == 4

    def test_merge_only_mode(self, tmp_path):
        from repro.__main__ import main

        corpus = tmp_path / "corpus"
        _write_corpus(corpus, 3)
        store = tmp_path / "store"
        assert main(["scan", str(corpus), "--store", str(store), "--rules-only"]) == 0
        report_path = tmp_path / "merged.json"
        code = main(
            ["scan", "--store", str(store), "--merge", "--report", str(report_path)]
        )
        assert code == 0
        assert json.loads(report_path.read_text())["units"]["unique"] == 3

    def test_no_roots_no_merge_is_usage_error(self, tmp_path):
        from repro.__main__ import main

        assert main(["scan", "--store", str(tmp_path / "store")]) == 2


# -- scan/serve isolation ------------------------------------------------------


def test_scan_package_never_imports_serve():
    """Workers must stay importable without the serving layer (lint gate)."""
    import re

    import repro.scan.manifest

    import_re = re.compile(r"^\s*(from|import)\s+repro\.serve", re.MULTILINE)
    source_dir = Path(repro.scan.manifest.__file__).parent
    checked = 0
    for path in source_dir.glob("*.py"):
        assert not import_re.search(path.read_text()), (
            f"{path} imports the serve layer"
        )
        checked += 1
    assert checked >= 6  # all scan modules were actually checked
