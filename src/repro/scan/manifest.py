"""Streaming manifest ingestion: directories, tarballs, crawled HTML.

Ingestion is a generator of *events* rather than a materialized list —
a crawl-scale manifest does not fit in memory, so the coordinator
consumes the stream, dedupes on content hash, and dispatches shards as
they fill.  Three event kinds flow out of :func:`iter_ingest`:

``("unit", ScanUnit)``
    One scannable piece of JavaScript, keyed by the SHA-256 of its
    source text, with a provenance record (container, kind, detail).
``("external", ExternalRef)``
    A ``<script src=...>`` URL found in a crawled page: provenance for
    the fetch frontier, no code to scan.
``("error", IngestError)``
    A structured per-file failure record — unreadable files, non-UTF-8
    bytes, oversize inputs, tar extraction errors.  Ingestion *never*
    aborts a walk on a bad file; it records and moves on.

Robustness rules (the wild is hostile):

- symlinked directories are followed but a (device, inode) visited set
  breaks symlink loops — each real directory is walked at most once;
- unreadable files (permissions, broken symlinks, vanished-during-walk)
  become ``unreadable`` error records;
- bytes that do not decode as UTF-8 become ``decode`` error records
  instead of mojibake scan units;
- members larger than the paper's 2 MB admission bound become
  ``oversize`` records without ever being read fully into memory.

Tarballs are streamed with stdlib :mod:`tarfile` — members are read
through ``extractfile`` and never extracted to disk.
"""

from __future__ import annotations

import hashlib
import os
import tarfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.corpus.filters import MAX_BYTES
from repro.corpus.html_extract import extract_units

#: file suffixes treated as JavaScript sources.
JS_SUFFIXES = frozenset({".js", ".mjs", ".cjs"})

#: file suffixes treated as crawled HTML pages.
HTML_SUFFIXES = frozenset({".html", ".htm"})

#: file suffixes treated as tar archives (streamed, never extracted).
TAR_SUFFIXES = (".tar", ".tar.gz", ".tgz", ".tar.bz2", ".tar.xz")


@dataclass(frozen=True)
class ScanUnit:
    """One scannable script, content-addressed and provenance-tagged."""

    sha256: str
    source: str
    origin: str  #: container path, e.g. "corpus/a.js" or "bundle.tgz!lib/x.js"
    kind: str  #: "file" | "tar_member" | "inline_script" | "event_handler"
    detail: str = ""  #: within-container locator, e.g. "script[2]"
    size: int = 0  #: UTF-8 byte length of ``source``

    def provenance(self) -> dict:
        """JSON-ready manifest line for this unit."""
        return {
            "type": "unit",
            "sha256": self.sha256,
            "origin": self.origin,
            "kind": self.kind,
            "detail": self.detail,
            "bytes": self.size,
        }


@dataclass(frozen=True)
class ExternalRef:
    """A ``<script src=...>`` URL: crawl-frontier provenance, no code."""

    url: str
    origin: str
    detail: str = ""

    def provenance(self) -> dict:
        return {
            "type": "external",
            "url": self.url,
            "origin": self.origin,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class IngestError:
    """Structured per-file ingestion failure (the walk never aborts)."""

    origin: str
    kind: str  #: "unreadable" | "decode" | "oversize" | "tar" | "missing"
    message: str

    def provenance(self) -> dict:
        return {
            "type": "error",
            "origin": self.origin,
            "kind": self.kind,
            "message": self.message,
        }


#: one ingestion event: ("unit", ScanUnit) | ("external", ExternalRef)
#: | ("error", IngestError)
Event = tuple


def sha256_text(source: str) -> str:
    """Content key for a scan unit (matches the batch engine's cache key)."""
    return hashlib.sha256(source.encode("utf-8", errors="replace")).hexdigest()


def _unit(source: str, origin: str, kind: str, detail: str = "") -> ScanUnit:
    return ScanUnit(
        sha256=sha256_text(source),
        source=source,
        origin=origin,
        kind=kind,
        detail=detail,
        size=len(source.encode("utf-8", errors="replace")),
    )


def _decode(data: bytes, origin: str) -> tuple[str | None, IngestError | None]:
    """Strict UTF-8 decode; failures become structured error records."""
    try:
        return data.decode("utf-8"), None
    except UnicodeDecodeError as error:
        return None, IngestError(
            origin=origin,
            kind="decode",
            message=f"not valid UTF-8 at byte {error.start}",
        )


def iter_html_text(
    html: str, origin: str, max_bytes: int = MAX_BYTES
) -> Iterator[Event]:
    """Events for one crawled HTML document (already decoded)."""
    page = extract_units(html)
    for unit in page.units:
        kind = "inline_script" if unit.kind == "inline" else "event_handler"
        scan_unit = _unit(unit.code, origin, kind, unit.detail)
        if scan_unit.size > max_bytes:
            yield (
                "error",
                IngestError(
                    origin=f"{origin}#{unit.detail}",
                    kind="oversize",
                    message=f"{scan_unit.size} bytes exceeds limit of {max_bytes}",
                ),
            )
            continue
        yield ("unit", scan_unit)
    for external in page.external:
        yield ("external", ExternalRef(external.url, origin, external.detail))


def iter_file(path: Path, origin: str, max_bytes: int = MAX_BYTES) -> Iterator[Event]:
    """Events for one on-disk file (JS source or HTML page)."""
    try:
        size = path.stat().st_size
    except OSError as error:
        yield ("error", IngestError(origin, "unreadable", str(error)))
        return
    if size > max_bytes:
        yield (
            "error",
            IngestError(
                origin, "oversize", f"{size} bytes exceeds limit of {max_bytes}"
            ),
        )
        return
    try:
        data = path.read_bytes()
    except OSError as error:
        yield ("error", IngestError(origin, "unreadable", str(error)))
        return
    text, error = _decode(data, origin)
    if error is not None:
        yield ("error", error)
        return
    assert text is not None
    if path.suffix.lower() in HTML_SUFFIXES:
        yield from iter_html_text(text, origin, max_bytes)
    else:
        yield ("unit", _unit(text, origin, "file"))


def iter_tarball(path: Path, origin: str, max_bytes: int = MAX_BYTES) -> Iterator[Event]:
    """Events for every JS/HTML member of a tar archive, streamed.

    Members are read through ``extractfile`` — nothing touches the disk.
    Per-member failures (corrupt entries, oversize members, non-UTF-8
    payloads) become error records; a corrupt archive header ends the
    archive with a single ``tar`` error record.
    """
    try:
        archive = tarfile.open(path, mode="r:*")
    except (tarfile.TarError, OSError) as error:
        yield ("error", IngestError(origin, "tar", str(error)))
        return
    with archive:
        try:
            members = iter(archive)
            while True:
                try:
                    member = next(members)
                except StopIteration:
                    break
                if not member.isfile():
                    continue
                name = member.name
                suffix = Path(name).suffix.lower()
                if suffix not in JS_SUFFIXES and suffix not in HTML_SUFFIXES:
                    continue
                member_origin = f"{origin}!{name}"
                if member.size > max_bytes:
                    yield (
                        "error",
                        IngestError(
                            member_origin,
                            "oversize",
                            f"{member.size} bytes exceeds limit of {max_bytes}",
                        ),
                    )
                    continue
                try:
                    handle = archive.extractfile(member)
                    data = handle.read() if handle is not None else None
                except (tarfile.TarError, OSError) as error:
                    yield ("error", IngestError(member_origin, "tar", str(error)))
                    continue
                if data is None:
                    yield (
                        "error",
                        IngestError(member_origin, "tar", "member has no data"),
                    )
                    continue
                text, error = _decode(data, member_origin)
                if error is not None:
                    yield ("error", error)
                    continue
                assert text is not None
                if suffix in HTML_SUFFIXES:
                    yield from iter_html_text(text, member_origin, max_bytes)
                else:
                    yield ("unit", _unit(text, member_origin, "tar_member"))
        except tarfile.TarError as error:  # corrupt archive mid-stream
            yield ("error", IngestError(origin, "tar", str(error)))


def _is_tarball(name: str) -> bool:
    lowered = name.lower()
    return lowered.endswith(TAR_SUFFIXES)


def iter_directory(root: Path, max_bytes: int = MAX_BYTES) -> Iterator[Event]:
    """Events for every scannable file under ``root`` (symlink-loop safe).

    Symlinked directories are followed, but each real directory —
    identified by ``(st_dev, st_ino)`` — is visited at most once, so
    cyclic symlinks terminate instead of recursing forever.  Entries are
    walked in sorted order and origins are recorded relative to
    ``root``, so the manifest (and everything derived from it) is
    deterministic for a given corpus.
    """
    visited: set[tuple[int, int]] = set()

    def _origin(path: Path) -> str:
        return os.path.relpath(path, root)

    def _walk(directory: Path) -> Iterator[Event]:
        try:
            stat = os.stat(directory)
        except OSError as error:
            yield ("error", IngestError(_origin(directory), "unreadable", str(error)))
            return
        key = (stat.st_dev, stat.st_ino)
        if key in visited:
            return
        visited.add(key)
        try:
            with os.scandir(directory) as scandir:
                entries = sorted(scandir, key=lambda entry: entry.name)
        except OSError as error:
            yield ("error", IngestError(_origin(directory), "unreadable", str(error)))
            return
        for entry in entries:
            path = Path(entry.path)
            origin = _origin(path)
            try:
                is_dir = entry.is_dir()  # follows symlinks
            except OSError as error:
                yield ("error", IngestError(origin, "unreadable", str(error)))
                continue
            if is_dir:
                yield from _walk(path)
                continue
            suffix = path.suffix.lower()
            if _is_tarball(entry.name):
                yield from iter_tarball(path, origin, max_bytes)
            elif suffix in JS_SUFFIXES or suffix in HTML_SUFFIXES:
                yield from iter_file(path, origin, max_bytes)

    yield from _walk(root)


def iter_ingest(roots: list[str | Path], max_bytes: int = MAX_BYTES) -> Iterator[Event]:
    """Events for a mixed list of roots: dirs, tarballs, HTML, JS files."""
    for root in roots:
        path = Path(root)
        if path.is_dir():
            yield from iter_directory(path, max_bytes=max_bytes)
        elif path.is_file():
            if _is_tarball(path.name):
                yield from iter_tarball(path, str(path), max_bytes)
            else:
                yield from iter_file(path, str(path), max_bytes)
        else:
            yield (
                "error",
                IngestError(str(path), "missing", "no such file or directory"),
            )
