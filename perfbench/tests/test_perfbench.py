"""Tests of the benchmark itself, on grids small enough to run in seconds.

    python3 -m pytest -q perfbench/tests

Each repetition runs in a fresh process, as the benchmark runs it.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import rep  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads as W  # noqa: E402

TINY = [
    W.cli_verify("regseq", 4, 3),
    W.cli_verify("length", 4, 4),
    W.cli_verify("socle", 3),
    W.leading(4, 3),
    W.leading(4, 2, k=1),
    W.sanity(4, 3, seed=1),
]


def _spawn(items, trace=False):
    os.makedirs(run.OUT, exist_ok=True)
    return run.spawn({"items": items, "trace": trace, "out_dir": run.OUT, "spans_path": None},
                     time.monotonic() + 120)


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_digest_is_sha256_of_report_without_timing():
    from monocurve import verify

    report = verify.check_length_formula(3, 3)
    want = hashlib.sha256(report.to_json(include_timing=False).encode()).hexdigest()
    assert rep._canonical_sha(report.to_dict()) == want
    # the command line writes the report with timing; the digest drops it
    assert rep._canonical_sha(json.loads(report.to_json())) == want


def test_traced_reports_equal_untraced_and_counts_repeat():
    plain = _spawn(TINY)
    first, second = _spawn(TINY, trace=True), _spawn(TINY, trace=True)
    shas = [[i["sha256"] for i in r["items"]] for r in (plain, first, second)]
    assert None not in shas[0]
    assert shas[0] == shas[1] == shas[2]
    assert plain["layers"] is None
    counts = [{k: v for k, v in r["layers"].items()
               if not (k.endswith(".s") or k.endswith("_s") or k.endswith("_ratio"))}
              for r in (first, second)]
    assert counts[0] == counts[1]
    for key in ("ideals.minimal_generators.calls", "ideals.minimal_generators.monomials_in",
                "groebner.normal_form.calls", "groebner.normal_form.zero",
                "curve.mono_I.misses", "order.leading_term.calls", "poly.mul.calls"):
        assert counts[0][key] > 0, key
    assert first["layers"]["cli.self_s"] > 0


def test_tracer_restores_every_patched_name():
    import monocurve.groebner
    import monocurve.ideals
    import monocurve.verify

    before = (monocurve.groebner.normal_form, monocurve.verify.mono_I,
              monocurve.ideals.MonomialIdeal.__dict__["contains"])
    t = tracer.Tracer()
    t.install()
    assert monocurve.groebner.normal_form is not before[0]
    t.uninstall()
    after = (monocurve.groebner.normal_form, monocurve.verify.mono_I,
             monocurve.ideals.MonomialIdeal.__dict__["contains"])
    assert after == before


def test_self_time_subtracts_children():
    t = tracer.Tracer()
    # parent 0..100 with children 10..30 and 40..90; the child 40..90 has 50..60
    t.spans = [(-1, "a", 0, 100), (0, "b", 10, 30), (0, "b", 40, 90), (2, "c", 50, 60)]
    assert t.self_times() == {"a": (1, 30), "b": (2, 60), "c": (1, 10)}


def test_cache_hits_stay_in_the_callers_self_time():
    t = tracer.Tracer()

    @functools.lru_cache(maxsize=None)
    def build(n):
        return types.SimpleNamespace(gens=tuple(range(n)))

    cached = t._cached("curve.mono_I", build)
    t._timed("verify.x.d1", lambda: [cached(3) for _ in range(4)])()
    assert (t.counts["curve.mono_I.misses"], t.counts["curve.mono_I.hits"]) == (1, 3)
    assert t.counts["curve.mono_I.gens"] == 3
    st = t.self_times()
    assert st["curve.mono_I"][0] == 1
    # self times add up to the outermost span: no time is credited to nothing
    _, _, start, end = t.spans[0]
    assert sum(ns for _, ns in st.values()) == end - start


def test_pool_accounting_on_tiny_grid():
    jobs = min(2, os.cpu_count() or 1)  # never more workers than cores
    items = [W.cli_verify("regseq", 4, 3, jobs), W.cli_verify("leading", 4, 3, jobs)]
    result = _spawn(items)
    assert all(i["error"] is None and i["passed"] == i["total"] for i in result["items"])
    result["attempted"] = sum(i["total"] for i in result["items"])
    e2e = run.end_to_end([result], [])
    cpu = [i["cpu_s"] for i in result["items"]]
    assert sum(cpu) == pytest.approx(result["cpu_self_s"] + result["cpu_children_s"])
    assert e2e["cpu_s"][2] == sum(cpu)
    assert e2e["peak_rss_mb"][0] == max(result["rss_self_kb"], result["rss_children_kb"]) / 1024
    assert result["cpu_self_s"] > 0
    if jobs > 1:
        # the workers were reaped when each suite shut its pool down
        assert result["cpu_children_s"] > 0
        assert result["rss_children_kb"] > 0


def test_speed_probe_leaves_its_own_time_out():
    probe = rep.SpeedProbe()
    t = time.perf_counter()
    probe.start()
    while time.perf_counter() - t < 0.55:
        pass
    end = time.perf_counter()
    spent, spent_cpu = probe.stop()
    # about five samples of a few ms each, taken out of the 0.55 s
    assert 0 < spent < 0.25 * (end - t)
    assert 0 < spent_cpu < 0.25 * (end - t)
    # the loop ran at the speed the chunks saw: work is wall time in chunks
    c = statistics.median(rep.chunk() for _ in range(9))
    assert 0.5 < probe.work * c / (end - t - spent) < 2


def test_killed_repetition_counts_every_case_as_failed(monkeypatch):
    monkeypatch.setattr(run, "DEADLINE_S", 0.5)
    monkeypatch.setitem(W.WORKLOADS, "groebner", lambda seed: [W.leading(5, 5)])
    record = {"leading d5 n5": {"sha256": "x", "cases": 5}}
    result = run.measure("groebner", 0, 0.1, False, record)
    assert result["failed"] == result["attempted"] == 5
    assert result["problems"]
    assert result["e2e"]["wall_s"][0] > 0


def test_grade_counts_failed_raised_and_wrong_digest_cases():
    record = {"a": {"sha256": "x", "cases": 3}, "b": {"sha256": "y", "cases": 4},
              "c": {"sha256": "z", "cases": 5}, "d": {"sha256": "w", "cases": 2}}
    items = [
        {"id": "a", "sha256": "x", "total": 3, "passed": 3, "error": None},
        {"id": "b", "sha256": None, "total": 0, "passed": 0, "error": "Traceback"},
        {"id": "c", "sha256": "other", "total": 5, "passed": 5, "error": None},
        {"id": "d", "sha256": "w", "total": 2, "passed": 1, "error": None},
    ]
    assert run.grade({"items": items}, record) == (14, 10)


def _verify_label(item):
    if item["call"] != "cli":
        import monocurve.verify

        fn = getattr(monocurve.verify, item["call"])
        return tracer._verify_label(fn)(item["args"], item["kwargs"])
    argv = item["args"]
    return "verify.%s.d%s" % (argv[argv.index("--suite") + 1], argv[argv.index("--d") + 1])


def test_benchmark_json_names_every_metric_and_digest():
    spec = _benchmark_json()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(W.WORKLOADS)
    with open(os.path.join(BENCH, "digests.json")) as fh:
        record = json.load(fh)
    labels = set()
    for name, make in W.WORKLOADS.items():
        for seed in range(12):
            for item in make(seed):
                assert item["id"] in record, (name, seed, item["id"])
                labels.add(_verify_label(item) + ".s")
    per_layer = {m["name"] for m in spec["per_layer"]}
    t = tracer.Tracer()
    fixed = {k for k in t.metrics() if not k.startswith("verify.")}
    fixed |= {"trace.overhead_s", "trace.overhead_ratio"}
    assert per_layer == fixed | labels


def test_fails_without_the_program():
    bare = os.path.join(run.OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "groebner", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace, monkeypatch):
    spec = _benchmark_json()
    monkeypatch.setitem(W.WORKLOADS, "groebner", lambda seed: [W.leading(3, 3)])
    result = run.measure("groebner", 0, 0.1, bool(trace), {"leading d3 n3": {
        "sha256": _spawn([W.leading(3, 3)])["items"][0]["sha256"], "cases": 3}})
    metrics = run.report(result, spec, bool(trace))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(metrics) == [m["name"] for m in wanted]
    assert all(isinstance(v["value"], (int, float)) for v in metrics.values())
    assert result["failed"] == 0 and not result["problems"]
