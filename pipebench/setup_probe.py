"""One set-up probe in a fresh interpreter.

Set-up is what a user pays before the first verdict: imports, model load,
engine construction and the first call (for crawl-scan: a one-file scan
into a fresh store).  The probe prints one JSON line: its set-up time in
seconds and, measured in the same process right after it, three times of
the benchmark's reference work (``gauge.py``), from which the caller
scales the set-up time to the reference speed.  Usage::

    python3 pipebench/setup_probe.py <workload> <model-or-empty> <work-dir>
"""

from time import perf_counter

START = perf_counter()

import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

#: a fixed small script, so set-up time does not depend on the seed
PROBE_SOURCE = """
function total(items) {
  var sum = 0;
  for (var i = 0; i < items.length; i++) {
    sum += items[i].price * items[i].count;
  }
  return sum;
}
document.getElementById("total").textContent = String(total([{price: 2, count: 3}]));
"""


def main(workload: str, model: str, work: str) -> float:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    if workload == "crawl-scan":
        from repro.scan import ScanConfig, ScanCoordinator

        root = Path(work) / f"probe-{os.getpid()}"
        (root / "crawl").mkdir(parents=True)
        (root / "crawl" / "app.js").write_text(PROBE_SOURCE)
        try:
            config = ScanConfig(roots=[str(root / "crawl")], store=str(root / "store"), n_workers=1)
            stats = ScanCoordinator(config).run()
            elapsed = perf_counter() - START
        finally:
            shutil.rmtree(root)
        if stats.scanned != 1 or stats.errors:
            raise SystemExit(f"probe scan went wrong: {stats}")
        return elapsed
    from repro.detector.pipeline import TransformationDetector

    engine = TransformationDetector.load(model).batch_engine(cache_size=0)
    result = engine.classify([PROBE_SOURCE], deob=workload == "deob-obfuscated")[0]
    elapsed = perf_counter() - START
    if not result.ok:
        raise SystemExit(f"probe classify went wrong: {result.error}")
    return elapsed


if __name__ == "__main__":
    import json

    setup_s = main(*sys.argv[1:4])
    from gauge import SpeedGauge  # after the measurement: it imports modules of its own

    gauge = SpeedGauge()
    for _ in range(3):
        gauge.sample()
    print(json.dumps({"setup_s": setup_s, "reference_ns": gauge.durations}))
