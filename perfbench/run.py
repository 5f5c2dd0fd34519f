"""monocurve benchmark: time to an all-pass verdict over fixed (d, n) grids.

    python3 perfbench/run.py --workload monomial --seed 1 --seconds 50 --trace 0

Run from the repository root.  Each repetition of a workload runs in a
fresh process (`rep.py`), so the caches start cold as in a user's
`monocurve verify`.  A new repetition starts while the time used plus half
a median repetition is within ``--seconds``, so a run lasts about
``--seconds``; every metric is the median over its repetitions.  A traced
run makes at least two pairs, so that its counts can be compared.
Six set-up-only processes before each repetition add samples to
``setup_s``.

Times are reported in reference seconds.  The speed of a shared machine
drifts by tens of percent, so each repetition samples it while it runs
(`rep.SpeedProbe`) and counts its time in calibration chunks; a time is
that count times `CHUNK_REF_S`, the chunk's seconds on the reference
machine.  The unscaled medians are printed alongside.

Every repetition is checked: each grid item's report must pass all its
cases and hash, as ``to_json(include_timing=False)``, to the SHA-256 in
``digests.json``.  A case counts as failed if it does not pass, if its suite
raised, or if its report's digest differs; a repetition still running
`DEADLINE_S` into the measurement is killed and all its cases fail.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` pairs each untraced repetition with a traced one (`tracer.py`)
and prints the per-layer metrics plus the tracing overhead.  Human-readable
lines come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit status is 0
whenever that line is printed, failed checks included (``correct`` is then
false), and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES_PER_UNIT = 6
# A workload's processes must all end by this many seconds after its
# measurement starts, so that a run, which may last --seconds plus one
# repetition, exits within 180 s.
DEADLINE_S = 165
# Seconds of one calibration chunk (`rep.chunk`) on the reference machine,
# a 2-vCPU Xeon at 2.0 GHz under Python 3.11.7 (see README).  Times are
# reported as calibration units times this, i.e. in seconds at its speed.
CHUNK_REF_S = 0.004


class BenchError(Exception):
    pass


class RepTimeout(Exception):
    pass


def spawn(spec: dict, deadline: float) -> dict:
    """Run one repetition in a fresh interpreter and return its result.

    The interpreter and any pool workers it starts form a process group;
    if it is still running at `deadline` (time.monotonic) the group is
    killed and reaped, and `RepTimeout` raised."""
    spec = dict(spec, t_spawn=time.clock_gettime(time.CLOCK_MONOTONIC))
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "rep.py"), json.dumps(spec)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(0.1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RepTimeout() from None
    if proc.returncode != 0:
        raise BenchError("repetition exited %d:\n%s" % (proc.returncode, stderr[-2000:]))
    return json.loads(stdout.strip().splitlines()[-1])


def grade(rep: dict, record: dict) -> tuple[int, int]:
    """(attempted, failed) cases of one repetition against the recorded digests."""
    attempted = failed = 0
    for item in rep["items"]:
        expected = record[item["id"]]
        attempted += expected["cases"]
        if item["error"] is not None or item["sha256"] != expected["sha256"]:
            failed += expected["cases"]
        else:
            failed += item["total"] - item["passed"]
    return attempted, failed


def end_to_end(plain: list, probes: list) -> dict:
    """Median and samples of each end-to-end metric, and the median of the
    unscaled samples.  Times are in reference seconds: calibration units
    times `CHUNK_REF_S`."""
    def ref(work):
        return work * CHUNK_REF_S

    per_rep = {
        "setup_s": [(ref(r["setup_work"]), r["setup_s"]) for r in probes + plain],
        "wall_s": [(ref(r["work"]), r["wall_s"]) for r in plain],
        # CPU seconds at each item's own speed (its work per wall second)
        "cpu_s": [(sum(ref(i["work"]) / i["s"] * i["cpu_s"] for i in r["items"]),
                   sum(i["cpu_s"] for i in r["items"])) for r in plain],
        "cases_per_s": [(r["attempted"] / ref(r["work"]), r["attempted"] / r["wall_s"])
                        for r in plain],
        "slowest_suite_s": [max((ref(i["work"]), i["s"]) for i in r["items"]) for r in plain],
        "peak_rss_mb": [(max(r["rss_self_kb"], r["rss_children_kb"]) / 1024,) * 2 for r in plain],
    }
    out = {}
    for name, pairs in per_rep.items():
        values, raw = [p[0] for p in pairs], [p[1] for p in pairs]
        out[name] = (statistics.median(values), values, statistics.median(raw))
    return out


def per_layer(plain: list, traced: list) -> tuple[dict, list]:
    """Medians of timed metrics, in reference seconds at each traced
    repetition's own speed; counts must repeat exactly across traced runs."""
    problems = []
    out = {}
    if not traced:
        return out, problems
    for name in traced[0]["layers"]:
        if name.endswith("_s") or name.endswith(".s"):
            out[name] = statistics.median(r["layers"][name] * r["work"] / r["wall_s"] * CHUNK_REF_S
                                          for r in traced)
            continue
        values = [r["layers"][name] for r in traced]
        if name.endswith("_ratio"):
            out[name] = statistics.median(values)
            continue
        if len(set(values)) != 1:
            problems.append("count %s differs between traced runs: %s" % (name, values))
        out[name] = values[0]
    wall = statistics.median(r["work"] for r in plain) * CHUNK_REF_S
    traced_wall = statistics.median(r["work"] for r in traced) * CHUNK_REF_S
    out["trace.overhead_s"] = traced_wall - wall
    out["trace.overhead_ratio"] = (traced_wall - wall) / wall
    for p, t in zip(plain, traced):
        if [i["sha256"] for i in p["items"]] != [i["sha256"] for i in t["items"]]:
            problems.append("traced reports differ from untraced ones")
    return out, problems


def _killed(items: list, started: float, plain: list) -> dict:
    """Stand-in for a repetition killed at the deadline: its cases all count
    as failed, and its elapsed time, at the speed of the last repetition
    that finished, is a lower bound for its wall, CPU and slowest-item
    times."""
    elapsed = time.monotonic() - started
    speed = plain[-1]["wall_s"] / plain[-1]["work"] if plain else CHUNK_REF_S
    work = elapsed / speed
    kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"setup_s": elapsed, "setup_work": work, "wall_s": elapsed, "work": work,
            "rss_self_kb": kb, "rss_children_kb": kb, "layers": None,
            "killed": [item["id"] for item in items],
            "items": [{"id": "killed", "s": elapsed, "work": work, "cpu_s": elapsed}]}


def measure(workload: str, seed: int, seconds: float, trace: bool, record: dict) -> dict:
    os.makedirs(OUT, exist_ok=True)
    base = {"items": WORKLOADS[workload](seed), "trace": False, "out_dir": OUT,
            "spans_path": None}
    probes, plain, traced, unit_s = [], [], [], []
    problems = []
    start = time.monotonic()
    deadline = start + DEADLINE_S

    def timed_spawn(spec):
        nonlocal started
        started = time.monotonic()
        return spawn(spec, deadline)

    started = start
    try:
        while (len(unit_s) < 1 + trace
               or time.monotonic() - start + statistics.median(unit_s) / 2 <= seconds):
            t = time.monotonic()
            probes += [timed_spawn(dict(base, items=[])) for _ in range(SETUP_PROBES_PER_UNIT)]
            plain.append(timed_spawn(base))
            if trace:
                spans = os.path.join(OUT, "%s.spans.jsonl" % workload)
                traced.append(timed_spawn(dict(base, trace=True, spans_path=spans)))
            unit_s.append(time.monotonic() - t)
    except RepTimeout:
        problems.append("a repetition was still running %d s into the measurement and was "
                        "killed; its cases count as failed" % DEADLINE_S)
        killed = _killed(base["items"], started, plain)
        if trace and len(traced) < len(plain):
            traced.append(killed)
        else:
            plain.append(killed)
    attempted = failed = 0
    for rep in plain + traced:
        if "killed" in rep:
            a = f = sum(record[i]["cases"] for i in rep["killed"])
        else:
            a, f = grade(rep, record)
        rep["attempted"] = a
        attempted += a
        failed += f
    result = {"workload": workload, "seed": seed, "runs": len(plain),
              "attempted": attempted, "failed": failed, "problems": problems,
              "e2e": end_to_end(plain, probes), "layers": None}
    if trace:
        result["layers"], found = per_layer(plain, [r for r in traced if "killed" not in r])
        result["problems"] += found
    return result


def report(result: dict, spec: dict, trace: bool) -> dict:
    """Print the human-readable block; return the metrics for the JSON line."""
    w = result["workload"]
    print("workload %s  seed %d  %d repetition(s), each in a fresh process"
          % (w, result["seed"], result["runs"]))
    metrics = {}
    if not trace:
        for m in spec["end_to_end"]:
            value, samples, raw = result["e2e"][m["name"]]
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print("  %-16s %12.4f %-5s median of %d, range %.4f .. %.4f; unscaled %.4f"
                  % (m["name"], value, m["unit"], len(samples), min(samples), max(samples),
                     raw))
        ratio = result["failed"] / result["attempted"]
        print("  %-16s %12.4f %-5s %d failed of %d attempted cases"
              % ("fail_ratio", ratio, "ratio", result["failed"], result["attempted"]))
    else:
        for m in spec["per_layer"]:
            value = result["layers"].get(m["name"], 0)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print("  %-40s %14.4f %s" % (m["name"], value, m["unit"]))
    for problem in result["problems"]:
        print("  CHECK FAILED: " + problem)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "monocurve", "__init__.py")):
            raise BenchError("no monocurve sources under %s" % os.path.join(ROOT, "src"))
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        with open(os.path.join(HERE, "digests.json")) as fh:
            record = json.load(fh)
        names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        results = [measure(w, args.seed, args.seconds, bool(args.trace), record) for w in names]
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    metrics = {}
    for result in results:
        block = report(result, spec, bool(args.trace))
        if len(results) > 1:
            block = {"%s.%s" % (result["workload"], k): v for k, v in block.items()}
        metrics.update(block)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and not any(r["problems"] for r in results)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
