"""Seeded benchmark inputs: every workload's sources come from ``--seed`` alone.

The program under test only ever sees the generated sources.  Sizes and
per-category counts are fixed; the seed varies the content (names,
literals, statement mix, planted technique mixes), so two seeds give
different files of comparable cost.  ``run.py`` pins ``PYTHONHASHSEED``
before anything here runs, because ``MaliciousGenerator`` seeds itself
from ``hash((seed, origin))``.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import math
import random
import tarfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from repro.corpus.datasets import _ALEXA_WEIGHTS, _NPM_WEIGHTS
from repro.corpus.generator import ProgramGenerator
from repro.corpus.malicious import MaliciousGenerator
from repro.experiments.table1 import PAPER_COUNTS
from repro.js.parser import parse
from repro.transform import TECHNIQUES, Technique, TransformationPipeline, get_transformer


@dataclass(frozen=True)
class Input:
    """One benchmark file with its planted ground truth."""

    name: str
    source: str
    #: planted transformed-vs-regular label of the verdict's subject
    transformed: bool
    #: planted technique labels (deob-obfuscated: what deob should remove)
    techniques: frozenset = field(default_factory=frozenset)
    deob: bool = False


def digest_inputs(inputs: list[Input]) -> str:
    digest = hashlib.sha256()
    for item in inputs:
        header = f"{item.name}\0{int(item.transformed)}\0{sorted(item.techniques)}\0{int(item.deob)}\0"
        digest.update(header.encode())
        digest.update(item.source.encode("utf-8", errors="replace"))
        digest.update(b"\0")
    return digest.hexdigest()


def _size_ranks(drawn: list, size=len, spread: int = 3) -> list:
    """One in ``spread`` of the drawn items, at evenly spaced size ranks.

    Order statistics of a large draw are steady, so the size profile of the
    result (and the cost it implies) barely moves with the seed.
    """
    return sorted(drawn, key=size)[spread // 2 :: spread]


def _pool(generator: ProgramGenerator, count: int, spread: int = 3) -> list[str]:
    """``count`` generator programs at evenly spaced size ranks."""
    return _size_ranks([generator.generate_program() for _ in range(spread * count)], spread=spread)


def _stride(count: int) -> int:
    """A step coprime to ``count``: ``(i * step) % count`` visits every slot
    once, spreading sorted sizes evenly over a list of mixes."""
    return next(step for step in (7, 11, 13, 17) if math.gcd(step, count) == 1)


def _quotas(weights, count: int) -> list[tuple]:
    """Largest-remainder apportionment of ``count`` scripts over weighted mixes."""
    total = sum(weight for _mix, weight in weights)
    exact = [count * weight / total for _mix, weight in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(len(exact)), key=lambda i: int(exact[i]) - exact[i])
    for i in by_remainder[: count - sum(counts)]:
        counts[i] += 1
    return [mix for (mix, _weight), n in zip(weights, counts) for _ in range(n)]


#: script-level transformed shares the paper measured (§IV-B): Alexa, npm
ALEXA_SHARE, NPM_SHARE = 0.686, 0.087


def web_scripts(tag: str, seed: int, count: int, weights, share: float, spread: int = 3) -> list[Input]:
    """Crawl-shaped scripts with ``alexa_top``/``npm_top``'s technique tables.

    Unlike ``alexa_top``/``npm_top``, which draw each script's transformation
    at random, the mixes here come in fixed quotas at the paper's transformed
    share and are laid over a fixed size profile: the seed changes the
    programs, not the mix, so the cost of a run does not swing with it.
    """
    rng = random.Random(f"{tag}:{seed}")
    programs = _pool(ProgramGenerator(rng.randrange(1 << 30)), count, spread)
    transformed = round(count * share)
    mixes = [()] * (count - transformed) + _quotas(weights, transformed)
    stride = _stride(count)
    scripts = []
    for index, program in enumerate(programs):
        pipeline = TransformationPipeline(mixes[(index * stride) % count])
        source = pipeline.transform(program, rng)
        scripts.append(Input(f"{tag}/{index:03d}.js", source, bool(pipeline.labels), pipeline.labels))
    return scripts


def _bundle(generator: ProgramGenerator, target_bytes: int) -> str:
    parts: list[str] = []
    size = 0
    while size < target_bytes:
        part = generator.generate_program()
        parts.append(part)
        size += len(part) + 1
    return "\n".join(parts)


# -- classify-mix --------------------------------------------------------------

#: scripts in the mix besides the bundles, apportioned over the paper's
#: Table I corpora (Alexa, npm, DNC, Hynek, BSI) in proportion to their sizes
MIX_SCRIPTS = 120
#: Table I corpus -> (input name prefix, Alexa/npm technique table or malware origin)
_TABLE_I = {
    "Alexa Top 10k": ("alexa", _ALEXA_WEIGHTS),
    "npm Top 10k": ("npm", _NPM_WEIGHTS),
    "DNC": ("dnc", "dnc"),
    "Hynek": ("hynek", "hynek"),
    "BSI": ("bsi", "bsi"),
}
#: pre-minification bundle sizes, a chosen shape (no size distribution is
#: available): geometric steps inside the paper's 512 B - 2 MB filter;
#: minified they land at roughly half
BUNDLE_BYTES = (40_000, 100_000, 200_000, 400_000)
#: scripts and samples are taken at evenly spaced size ranks of this many
#: times as many draws: with 3x, the malware corpora's median size moved
#: by up to 6x between seeds (MaliciousGenerator emits clone waves)
MIX_SPREAD = 8


def table_i_counts(total: int) -> dict[str, int]:
    """Largest-remainder apportionment of ``total`` over Table I's corpus sizes."""
    weights = [(name, PAPER_COUNTS[name]) for name in _TABLE_I]
    return dict(Counter(_quotas(weights, total)))


def classify_mix(seed: int) -> list[Input]:
    """Web-crawl mix: Table I's corpora in proportion, plus minified bundles."""
    inputs: list[Input] = []
    for corpus, count in table_i_counts(MIX_SCRIPTS).items():
        tag, source = _TABLE_I[corpus]
        if tag in ("alexa", "npm"):
            share = ALEXA_SHARE if tag == "alexa" else NPM_SHARE
            inputs += web_scripts(tag, seed, count, source, share, MIX_SPREAD)
            continue
        drawn = MaliciousGenerator(source, seed=seed).generate(MIX_SPREAD * count)
        samples = _size_ranks(drawn, size=lambda sample: len(sample.source), spread=MIX_SPREAD)
        for index, sample in enumerate(samples):
            inputs.append(
                Input(f"{tag}/{index:03d}.js", sample.source, sample.transformed, sample.techniques)
            )
    rng = random.Random(f"bundles:{seed}")
    generator = ProgramGenerator(rng.randrange(1 << 30))
    for index, size in enumerate(BUNDLE_BYTES):
        technique = (Technique.MINIFICATION_SIMPLE, Technique.MINIFICATION_ADVANCED)[index % 2]
        bundle = get_transformer(technique).transform(_bundle(generator, size), rng)
        inputs.append(Input(f"bundle/{index}.min.js", bundle, True, frozenset({technique})))
    return inputs


# -- deob-obfuscated -------------------------------------------------------------

SINGLES_PER_TECHNIQUE = 3
#: JSFuck is terminal in a pipeline (a pair's labels collapse to it), so the
#: stacked pairs come from the other nine; every one of them is in two pairs.
_STACKABLE = tuple(t for t in TECHNIQUES if t is not Technique.NO_ALPHANUMERIC)
PAIRS = tuple((t, _STACKABLE[(i + 3) % len(_STACKABLE)]) for i, t in enumerate(_STACKABLE))
#: JSFuck output size band (bytes); deob time grows with it (~40 us/byte)
JSFUCK_BAND = (23_000, 27_000)
#: payload length range (characters) searched for the band; the
#: transformer itself encodes at most 128
JSFUCK_PAYLOAD = (15, 45)


def _jsfuck(generator: ProgramGenerator, rng: random.Random) -> str:
    """A JSFuck input in the size band whose payload is a whole program.

    The JSFuck transformer cuts its minified input at 128 characters and,
    when no cut parses, encodes an unparseable prefix that deob cannot
    turn back into a program.  Here the payload is a run of whole
    statements of a minified generator program that parses on its own,
    so every input is a valid script carrying a valid payload.
    """
    minifier = get_transformer(Technique.MINIFICATION_SIMPLE)
    encoder = get_transformer(Technique.NO_ALPHANUMERIC)
    while True:
        minified = minifier.transform(generator.generate_program(), rng)
        bounds = [0] + [i + 1 for i, char in enumerate(minified) if char in ";}"]
        for start in bounds:
            for end in bounds:
                if not JSFUCK_PAYLOAD[0] <= end - start <= JSFUCK_PAYLOAD[1]:
                    continue
                try:
                    parse(minified[start:end])
                except (SyntaxError, ValueError):
                    continue
                source = encoder.transform(minified[start:end], rng)
                if JSFUCK_BAND[0] <= len(source) <= JSFUCK_BAND[1]:
                    return source


def deob_obfuscated(seed: int) -> list[Input]:
    """Every technique in equal shares, plus stacked pairs.

    Bases sit at evenly spaced size ranks of the smaller half of a draw of
    generator programs (deob is the slowest layer; this keeps three passes
    within a run), spread over the techniques by a fixed stride.
    """
    rng = random.Random(f"deob:{seed}")
    generator = ProgramGenerator(rng.randrange(1 << 30))
    mixes = [(t,) for t in TECHNIQUES for _ in range(SINGLES_PER_TECHNIQUE)] + list(PAIRS)
    bases = _pool(generator, 2 * len(mixes), MIX_SPREAD)[: len(mixes)]
    stride = _stride(len(mixes))
    inputs = []
    for index, mix in enumerate(mixes):
        pipeline = TransformationPipeline(mix)
        if mix == (Technique.NO_ALPHANUMERIC,):
            source = _jsfuck(generator, rng)
        else:
            source = pipeline.transform(bases[(index * stride) % len(mixes)], rng)
        names = "+".join(t.value for t in mix)
        # The normal form should read as the regular program it came from.
        inputs.append(
            Input(f"deob/{index:02d}-{names}.js", source, False, pipeline.labels, deob=True)
        )
    return inputs


# -- pathological ------------------------------------------------------------------

PATHOLOGICAL_SIZES = (1000, 2000, 4000)
DEPTH_PROBE = 50_000
FAMILIES = ("concat", "ones", "member", "nested", "wide", "functions")


def _family(name: str, n: int, rng: random.Random) -> str:
    ident = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(6))
    if name == "concat":
        pieces = (f'"{rng.choice("abcdefghijklmnopqrstuvwxyz")}{rng.randrange(10)}"' for _ in range(n))
        return f"var {ident} = " + " + ".join(pieces) + ";\n"
    if name == "ones":
        return f"var {ident} = " + "+".join("1" for _ in range(n)) + ";\n"
    if name == "member":
        return f"var {ident} = {ident}_root" + f".{ident[:2]}" * n + ";\n"
    if name == "nested":
        return f"var {ident} = " + "[" * n + str(rng.randrange(100)) + "]" * n + ";\n"
    if name == "wide":
        items = (f'"{ident}{rng.randrange(1 << 20):x}"' for _ in range(n))
        return f"var {ident} = [" + ",".join(items) + "];\n"
    if name == "functions":
        return "".join(
            f"function {ident}{i}(a){{return a+{rng.randrange(100)};}}\n" for i in range(n)
        )
    raise ValueError(name)


def pathological(seed: int) -> list[Input]:
    """Six shape families at 1k/2k/4k elements plus the 5e4 depth probes.

    None of these went through a transformation tool, so each is planted
    regular.  The depth probes are valid scripts the pipeline currently
    rejects (recursion); they stay in as counted failures.
    """
    rng = random.Random(f"pathological:{seed}")
    inputs = [
        Input(f"{family}/{n}.js", _family(family, n, rng), False)
        for family in FAMILIES
        for n in PATHOLOGICAL_SIZES
    ]
    member = _family("member", DEPTH_PROBE, rng)
    inputs.append(Input(f"probe/member/{DEPTH_PROBE}.js", member, False))
    inputs.append(Input(f"probe/member/{DEPTH_PROBE}.deob.js", member, False, deob=True))
    inputs.append(Input(f"probe/nested/{DEPTH_PROBE}.js", _family("nested", DEPTH_PROBE, rng), False))
    return inputs


# -- crawl-scan ------------------------------------------------------------------------

_HANDLER_TEMPLATES = (
    "track('{w}', {n}); return false;",
    "toggle('{w}-panel')",
    "this.className = '{w}'",
    "window.location.href = '/{w}/{n}'",
    "showTab({n})",
    "validate(this.form, '{w}')",
)
_WORDS = ("menu", "cart", "search", "login", "news", "promo", "video", "share")


@dataclass
class Crawl:
    """A generated crawl: relative path -> bytes, plus planted unit labels."""

    files: dict[str, bytes]
    #: content sha256 -> planted transformed label for every scan unit
    labels: dict[str, bool]
    units: int  #: unit events ingestion should produce (duplicates included)
    unique: int
    external_refs: int

    @property
    def digest(self) -> str:
        digest = hashlib.sha256()
        for path in sorted(self.files):
            digest.update(path.encode() + b"\0" + self.files[path] + b"\0")
        return digest.hexdigest()

    def write(self, root: Path) -> None:
        for relative, data in self.files.items():
            path = root / relative
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)


def _sha(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8", errors="replace")).hexdigest()


def crawl(seed: int, sites: int = 40) -> Crawl:
    """Loose files, HTML pages (inline, on* handlers, src refs), one tarball.

    About 15% of unit events repeat content already seen elsewhere
    (mirrored vendor files and a shared inline snippet), as crawls do.
    """
    rng = random.Random(f"crawl:{seed}")
    web = web_scripts("crawl-alexa", seed, sites * 5, _ALEXA_WEIGHTS, ALEXA_SHARE)
    packages = web_scripts("crawl-npm", seed, 80, _NPM_WEIGHTS, NPM_SHARE)
    samples = [
        sample
        for origin in ("dnc", "hynek", "bsi")
        for sample in _size_ranks(
            MaliciousGenerator(origin, seed=seed).generate(MIX_SPREAD * 8),
            size=lambda sample: len(sample.source),
            spread=MIX_SPREAD,
        )
    ]
    files: dict[str, bytes] = {}
    labels: dict[str, bool] = {}
    events: list[str] = []
    externals = 0

    def unit(source: str, transformed: bool) -> None:
        labels.setdefault(_sha(source), transformed)
        events.append(_sha(source))

    shared = web[0]
    for site in range(sites):
        scripts = web[site * 5 : site * 5 + 5]
        inline = [scripts[0], scripts[1]] + ([shared] if site % 3 == 0 else [])
        handlers = [
            rng.choice(_HANDLER_TEMPLATES).format(w=rng.choice(_WORDS), n=rng.randrange(1000))
            for _ in range(2)
        ]
        body = [f"<!doctype html>\n<html><head><title>site {site}</title>"]
        for ref in range(1 + site % 2):
            body.append(f'<script src="https://cdn{ref}.example.com/{rng.choice(_WORDS)}.{site}.js"></script>')
            externals += 1
        for script in inline:
            body.append(f"<script>\n{script.source}\n</script>")
            unit(script.source.strip(), script.transformed)  # extraction strips bodies
        body.append("</head><body>")
        for index, handler in enumerate(handlers):
            tag = ("button", "a")[index % 2]
            event = ("onclick", "onmouseover")[index % 2]
            body.append(f'<{tag} {event}="{handler}">{rng.choice(_WORDS)}</{tag}>')
            unit(handler, False)
        body.append("</body></html>\n")
        files[f"sites/site{site:03d}/index.html"] = "\n".join(body).encode()
        for index, script in enumerate(scripts[2:]):
            files[f"sites/site{site:03d}/static/app{index}.js"] = script.source.encode()
            unit(script.source, script.transformed)
        if site % 3 != 2:  # mirrored vendor copy: duplicate content
            files[f"mirror/site{site:03d}/app0.js"] = scripts[2].source.encode()
            unit(scripts[2].source, scripts[2].transformed)
    for index, sample in enumerate(samples):
        files[f"samples/{index:03d}.js"] = sample.source.encode()
        unit(sample.source, sample.transformed)

    tar_bytes = io.BytesIO()
    # mtime=0: no wall-clock time in the gzip header, so the digest is seed-only
    with gzip.GzipFile(fileobj=tar_bytes, mode="wb", compresslevel=1, mtime=0) as packed, \
            tarfile.open(fileobj=packed, mode="w") as archive:
        for index, script in enumerate(packages):
            data = script.source.encode()
            info = tarfile.TarInfo(f"package/lib/mod{index:03d}.js")
            info.size = len(data)
            info.mtime = 0
            archive.addfile(info, io.BytesIO(data))
            unit(script.source, script.transformed)
    files["packages.tgz"] = tar_bytes.getvalue()
    return Crawl(files, labels, len(events), len(set(events)), externals)


def workload_inputs(workload: str, seed: int) -> list[Input]:
    return {
        "classify-mix": classify_mix,
        "deob-obfuscated": deob_obfuscated,
        "pathological": pathological,
    }[workload](seed)
