"""Self-tests of the benchmark harness.  Run: python3 -m pytest bench -q"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import probe  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_self_times_subtract_nested_children():
    trace = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.inner", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
    ]
    assert spans.self_times(trace) == [3.0, 2.0, 1.0, 4.0]


def test_self_times_merge_overlapping_and_clip_children():
    trace = [
        ("root", 0.0, 10.0, -1),
        ("x", 1.0, 5.0, 0),
        ("y", 4.0, 6.0, 0),
        ("z", 9.0, 12.0, 0),
    ]
    # children cover [1, 6] and [9, 10] of the root's interval
    assert spans.self_times(trace)[0] == pytest.approx(4.0)


def _site_objects():
    out = []
    for module_name, attr, _ in spans.PATCH_SITES:
        owner = importlib.import_module(module_name)
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
            out.append(owner.__dict__[attr])
        else:
            out.append(getattr(owner, attr))
    return out


def test_traced_run_records_spans_and_restores_every_original():
    import shiftlab

    before = _site_objects()
    S = shiftlab.UniformHypergraph.from_edges(4, 2, [(1, 2), (2, 3)])
    ctx = shiftlab.make_field_context(0, shiftlab.Backend.RANDOMIZED, seed=424242)
    w = shiftlab.Permutation.longest(4)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert _site_objects() != before
        start = time.perf_counter()
        first = shiftlab.partial_shift(S, w, ctx)
        second = shiftlab.partial_shift(S, w, ctx)
        wall = time.perf_counter() - start
    finally:
        tracer.restore()
    assert _site_objects() == before
    assert all(a is b for a, b in zip(_site_objects(), before))
    assert first == second

    m = spans.layer_metrics(tracer, wall, 0.0)
    assert set(m) == set(spans.LAYER_UNITS)
    assert m["shiftcore.partial_shift.calls"] == 2
    assert m["shiftcore.partial_shift.distinct"] == 1
    assert m["shiftcore.exterior_shift_profile.calls"] == 1  # the second call is a cache hit
    assert m["field.offer.calls"] > 0
    assert 0 < m["field.offer.pivot_ratio"] <= 1
    assert m["shiftcore.partial_shift.miss_p50_ms"] > 0
    assert 0.5 < m["trace.self_coverage"] <= 1.0


def _comparable(inputs: dict, workdir: Path) -> dict:
    """Inputs with file contents in place of paths under ``workdir``."""

    def content(value):
        if isinstance(value, (str, Path)) and str(value).startswith(str(workdir)):
            return Path(value).read_text(encoding="utf-8")
        return value

    out = {}
    for key, value in inputs.items():
        out[key] = [content(v) for v in value] if isinstance(value, list) else content(value)
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_inputs_are_deterministic_per_seed(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    made = []
    for seed, sub in ((7, "a"), (7, "b"), (8, "c")):
        d = tmp_path / sub
        d.mkdir()
        made.append(_comparable(workload.prepare(seed, d), d))
    assert made[0] == made[1]
    assert made[0] != made[2]


def test_random_complexes_follow_the_seed():
    from shiftlab.topology import random_complexes

    assert random_complexes(5, seed=3) == random_complexes(5, seed=3)
    assert random_complexes(5, seed=3) != random_complexes(5, seed=4)


def test_oracle_check_fails_on_a_broken_cell():
    import shiftlab

    oracle = workloads.WORKLOADS["oracle-symbolic"]
    T = shiftlab.UniformHypergraph.from_edges(6, 3, [(1, 2, 3)])
    U = shiftlab.UniformHypergraph.from_edges(6, 3, [(1, 2, 4)])
    cells = [T] * workloads.ORACLE_CELLS
    broken = list(cells)
    broken[100] = U
    good = dict(oracle.checks({"symbolic": cells, "randomized": list(cells)}))
    bad = dict(oracle.checks({"symbolic": cells, "randomized": broken}))
    assert good["symbolic equals randomized"] and not bad["symbolic equals randomized"]
    assert not bad["symbolic digest"]


def test_scan_check_fails_on_a_violation():
    scan = workloads.WORKLOADS["scan-char2"]
    report = {
        "char": 2,
        "complexes": [
            {"facets": [[1, 2, 3]], "betti": [1, 0, 0], "permutations_checked": 720,
             "violations": [], "preserving": []}
        ] + [
            {"facets": [[1, 2, 3]], "betti": [1, 0, 0], "permutations_checked": 120,
             "violations": [], "preserving": []}
        ] * workloads.SCAN_RANDOM,
        "graphs": [
            {"n": n, "k": k, "m": m, "nodes": 1, "edges": 0, "acyclic": True, "cycle": []}
            for n, k, m in workloads.SCAN_GRAPHS
        ],
    }
    assert all(ok for _, ok in scan.checks({"code": 0, "stdout": json.dumps(report)}))
    report["complexes"][3]["violations"] = [{"permutation": [2, 1, 3, 4, 5]}]
    outcome = dict(scan.checks({"code": 0, "stdout": json.dumps(report)}))
    assert not outcome["no monotonicity violations"]
    assert not dict(scan.checks({"code": 3, "stdout": ""}))["scan exit code"]


def test_summary_counts_a_failed_check_and_a_digest_mismatch():
    def rec(ok, digest):
        return {"wall_s": 2.0, "probe_s": 0.001, "cells": 10, "peak_rss_mb": 30.0,
                "digest": digest, "checks": [("a", True), ("b", ok)]}

    setups = [{"setup_s": s, "setup_raw_s": 2 * s} for s in (0.2, 0.3, 0.25)]
    samples = {"untraced": [rec(True, "x"), rec(False, "y")], "traced": [], "setups": setups}
    metrics, figures, failures, outcomes = run.summarize(samples, trace=False)
    assert outcomes.count(False) == 2
    assert "b" in failures and "output identical across instances of the seed" in failures
    assert set(metrics) == set(run.END_TO_END_UNITS)
    want = 2.0 * probe.PROBE_REFERENCE_S / 0.001
    assert metrics["wall_ref_s"] == {"value": pytest.approx(want), "unit": "s"}
    assert metrics["setup_s"]["value"] == 0.25
    assert figures["setup_raw_s"]["value"] == 0.5
    assert figures["cells_per_s"]["value"] == 5.0
    assert figures["failed_ratio"]["value"] == 0.4


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "closure-char0", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_benchmark_json_lists_exactly_the_reported_metrics():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


def test_probe_time_is_taken_out_of_enclosing_spans():
    tracer = spans.Tracer()

    def work():
        start = time.perf_counter()
        while time.perf_counter() - start < 0.002:
            pass
        tracer.add_probe(start, start + 0.001)  # as if the probe had fired here
        return True

    outer = tracer.wrap("shiftcore.partial_shift", lambda: tracer.wrap("field.offer", work)())
    start = time.perf_counter()
    outer()
    wall = time.perf_counter() - start
    trace = tracer.spans()
    assert [s[0] for s in trace] == ["shiftcore.partial_shift", "field.offer", spans.PROBE_SPAN]
    assert trace[2][3] == 1  # the probe sits under the innermost running span
    m = spans.layer_metrics(tracer, wall, 0.0)
    offer_duration = trace[1][2] - trace[1][1]
    assert m["field.offer.s"] == pytest.approx(offer_duration - 0.001)
    assert m["shiftcore.partial_shift.s"] == pytest.approx(trace[0][2] - trace[0][1] - 0.001)
    assert 0.5 < m["trace.self_coverage"] <= 1.0
