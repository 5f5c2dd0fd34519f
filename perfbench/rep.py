"""One repetition of a workload grid, in a fresh process.

Run as ``python3 perfbench/rep.py '<json spec>'`` by `run.py`; the spec holds
the grid items, whether to trace, the CLOCK_MONOTONIC time at which the
parent started this process, and a scratch directory for report files.
Prints one JSON object as its last line of standard output:

- ``setup_s``: from process start until monocurve is imported and the field
  is set, with the speed probe's own time left out; ``setup_work``: the same
  in calibration units (below);
- ``wall_s``, ``work``, ``cpu_self_s``, ``cpu_children_s``: the grid items
  summed, with the speed probe's own time left out; children are the pool
  workers, reaped when each suite shuts its pool down;
- ``rss_self_kb``, ``rss_children_kb``: ``ru_maxrss`` of this process and of
  its largest reaped worker;
- ``items``: per grid item its wall seconds ``s``, calibration units
  ``work`` and CPU seconds ``cpu_s`` (with its workers), its report's
  SHA-256 over ``to_json(include_timing=False)``, case totals, and the
  error if it raised;
- ``layers``: the tracer's per-layer metrics when tracing, else null.

The speed of a shared machine drifts by tens of percent over seconds to
minutes.  So while an item runs, `SpeedProbe` times a fixed chunk of
pure-Python work (`chunk`) every `PROBE_INTERVAL_S`, and divides each stretch
of wall time by the chunk time sampled at its end.  The sum, ``work``, is
the item's time in chunks: it stays put when the machine as a whole slows
down, and grows when the program does more or slower work.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import signal
import sys
import time
import traceback
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _canonical_sha(report_dict: dict) -> str:
    """SHA-256 of the report as `to_json(include_timing=False)` writes it."""
    summary = dict(report_dict["summary"])
    summary.pop("millis", None)
    canonical = dict(report_dict, summary=summary)
    text = json.dumps(canonical, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


PROBE_INTERVAL_S = 0.1
# Set-up lasts about 0.1 s, so it is sampled more often.
SETUP_PROBE_INTERVAL_S = 0.025


def _calibration_kernel():
    """Fixed pure-Python work of the kinds monocurve does (exponent tuples,
    packed ints, dict updates, Fraction sums); it touches no monocurve code,
    so its time moves only with the machine."""
    table = {}
    acc = Fraction(0)
    for i in range(1, 300):
        exps = (i % 7, i % 5, i % 3, i % 2)
        packed = (exps[0] << 24) | (exps[1] << 16) | (exps[2] << 8) | exps[3]
        table[exps] = table.get(exps, 0) + (packed & 0xFF)
        acc += Fraction(i % 11 + 1, i % 13 + 1)
    return len(table), acc


def chunk() -> float:
    """Seconds of one calibration chunk: four rounds of the kernel, with the
    cyclic collector paused so that the program's heap does not weigh on it."""
    enabled = gc.isenabled()
    gc.disable()
    t = time.perf_counter()
    for _ in range(4):
        _calibration_kernel()
    elapsed = time.perf_counter() - t
    if enabled:
        gc.enable()
    return elapsed


class SpeedProbe:
    """Samples the machine's speed from a SIGALRM handler while code runs.

    Every `PROBE_INTERVAL_S` of wall time the handler times one `chunk`;
    ``work`` adds the stretch of wall time since the previous sample divided
    by that chunk time.  The wall and CPU seconds spent in the chunks are
    kept apart so that the caller can subtract them from what it measured.
    The handler touches no monocurve state, so results are unchanged."""

    def __init__(self):
        self.work = self.probe_s = self.probe_cpu_s = 0.0
        self._mark = None
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, *_):
        if self._mark is None:  # a signal still pending after stop()
            return
        t, cpu = time.perf_counter(), time.process_time()
        c = chunk()
        self.work += (t - self._mark) / c
        self.probe_s += c
        self.probe_cpu_s += time.process_time() - cpu
        self._mark = time.perf_counter()

    def start(self, interval: float = PROBE_INTERVAL_S) -> None:
        self.work = self.probe_s = self.probe_cpu_s = 0.0
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def stop(self) -> tuple:
        """Stop sampling and return the wall and CPU seconds spent in chunks
        so far; one last sample then closes the last stretch."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        spent = self.probe_s, self.probe_cpu_s
        self._sample()
        self._mark = None
        return spent


def _report_entry(report_dict: dict) -> dict:
    s = report_dict["summary"]
    return {"sha256": _canonical_sha(report_dict), "total": s["total"], "passed": s["passed"]}


def _run_item(item: dict, out_path: str) -> dict:
    import monocurve.cli
    import monocurve.verify

    if item["call"] == "cli":
        # looked up at call time, so a tracer's wrapper is what runs
        code = monocurve.cli.main(item["args"] + ["--out", out_path])
        if code not in (0, 1):
            raise RuntimeError("monocurve verify exited %d" % code)
        with open(out_path) as fh:
            report_dict = json.load(fh)
        os.remove(out_path)
    else:
        fn = getattr(monocurve.verify, item["call"])
        report_dict = fn(*item["args"], **item["kwargs"]).to_dict()
    return _report_entry(report_dict)


def _usage():
    ru_self = resource.getrusage(resource.RUSAGE_SELF)
    ru_kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru_self, ru_kids


def _cpu(ru) -> float:
    return ru.ru_utime + ru.ru_stime


def run(spec: dict) -> dict:
    # the interpreter's start and this file's imports, scaled by one chunk
    # timed right after; the imports of monocurve are sampled as they run
    pre_s = time.clock_gettime(time.CLOCK_MONOTONIC) - spec["t_spawn"]
    pre_work = pre_s / chunk()
    probe = SpeedProbe()
    t = time.perf_counter()
    probe.start(SETUP_PROBE_INTERVAL_S)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import monocurve  # noqa: F401  (the whole package, as a user's import)
    import monocurve.cli
    from monocurve.scalars import field_from_spec, set_active_field

    set_active_field(field_from_spec("rational"))
    end = time.perf_counter()
    spent_s, _ = probe.stop()
    setup_s = pre_s + end - t - spent_s
    setup_work = pre_work + probe.work

    tracer = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    out_path = os.path.join(spec["out_dir"], "report-%d.json" % os.getpid())
    items = []
    wall_s = work = cpu_self_s = cpu_children_s = 0.0
    for item in spec["items"]:
        self0, kids0 = _usage()
        t = time.perf_counter()
        probe.start()
        try:
            entry = _run_item(item, out_path)
            entry["error"] = None
        except Exception:  # a suite that raises is a failed item, not a failed run
            entry = {"sha256": None, "total": 0, "passed": 0,
                     "error": traceback.format_exc(limit=3)}
        end = time.perf_counter()
        self1, kids1 = _usage()
        spent_s, spent_cpu_s = probe.stop()
        entry["id"] = item["id"]
        entry["s"] = end - t - spent_s
        entry["work"] = probe.work
        cpu_self = _cpu(self1) - _cpu(self0) - spent_cpu_s
        cpu_children = _cpu(kids1) - _cpu(kids0)
        entry["cpu_s"] = cpu_self + cpu_children
        items.append(entry)
        wall_s += entry["s"]
        work += entry["work"]
        cpu_self_s += cpu_self
        cpu_children_s += cpu_children
    self1, kids1 = _usage()

    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.metrics()
        if spec.get("spans_path"):
            tracer.write_spans(spec["spans_path"])

    return {
        "setup_s": setup_s,
        "setup_work": setup_work,
        "wall_s": wall_s,
        "work": work,
        "cpu_self_s": cpu_self_s,
        "cpu_children_s": cpu_children_s,
        "rss_self_kb": self1.ru_maxrss,
        "rss_children_kb": kids1.ru_maxrss,
        "items": items,
        "layers": layers,
    }


if __name__ == "__main__":
    result = run(json.loads(sys.argv[1]))
    sys.stdout.write("\n" + json.dumps(result) + "\n")
