"""Tests of the benchmark itself: metric lists, tracer patching, traced runs.

Run from the repository root with ``python3 -m pytest -q bench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from itertools import islice
from pathlib import Path

import pytest

import run

run.load_library()

import sumsetlab as sl  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tracer_patches_every_binding_and_restores_it():
    original = sl.systems.apply_set
    orbits = sys.modules["sumsetlab.orbits"]  # the package's `orbits` is systems.orbits
    with tracing.Tracer():
        assert sl.systems.apply_set is not original
        assert sl.systems.apply_set.__wrapped__ is original
        for namespace in (sl, sl.verify, sl.magnification, orbits):
            assert namespace.apply_set is sl.systems.apply_set
        assert sl.orbits is sl.systems.orbits
        assert hasattr(sl.cli.main, "__wrapped__")
    for namespace in (sl, sl.systems, sl.verify, sl.magnification, orbits):
        assert namespace.apply_set is original
    assert not hasattr(sl.cli.main, "__wrapped__")


def test_nested_calls_fold_into_the_outer_span():
    tracer = tracing.Tracer()
    with tracer:
        sl.regular_system(sl.make_group([6]))            # regular_system -> make_system
        sl.iterated_sumset(sl.finite_set(sl.make_group([8]), [0, 1]), 4)
    assert tracer.layers["systems.build"].calls == 1
    assert tracer.layers["groups.sumset"].calls == 1
    for stats in tracer.layers.values():
        assert 0 <= stats.self_s <= stats.total_s + 1e-9


def _passes(workload, ops):
    _, plain = run.run_pass(workload, ops)
    tracer = tracing.Tracer()
    with tracer:
        _, traced = run.run_pass(workload, ops)
    return plain, traced, tracer


@pytest.fixture(params=sorted(workloads.WORKLOADS))
def traced_run(request, tmp_path):
    cls = workloads.WORKLOADS[request.param]
    workload = cls(7, tmp_path)
    workload.setup()
    count = {"campaign": 6, "flow": 6, "enum": 15, "line": 10}[request.param]
    ops = list(islice(workload.ops(), count)) + workload.probes()[:1]
    return workload, ops, *_passes(workload, ops)


def test_traced_outputs_and_digests_equal_untraced(traced_run):
    workload, ops, plain, traced, _ = traced_run
    for a, b in zip(plain, traced):
        assert run._same(a, b)
    with_output = [i for i, (a, b) in enumerate(zip(plain, traced))
                   if a.error is None and b.error is None]
    assert with_output
    keep = [plain[i] for i in with_output], [traced[i] for i in with_output]
    assert (workloads.digest(workload, keep[0], len(keep[0]))
            == workloads.digest(workload, keep[1], len(keep[1])))
    _, problems = run.check_records(workload, plain)
    assert not problems


def test_span_counts_equal_counts_from_results(traced_run):
    workload, ops, _, traced, tracer = traced_run
    calls = {name: stats.calls for name, stats in tracer.layers.items()}
    kinds = Counter(op.kind for op in ops)
    ok = [rec for rec in traced if rec.error is None]
    if workload.name == "campaign":
        assert calls["cli.main"] == calls["verify.campaign"] == len(ops)
        for check in sl.CHECK_NAMES:
            assert calls[f"verify.{check}"] == workload.instances * len(ops)
    elif workload.name == "flow":
        results = [json.loads(rec.output.stdout.splitlines()[-1]) for rec in ok]
        assert calls["cli.main"] == calls["magnification.flow"] == len(ops)
        assert calls["systems.build"] == len(ops)
        assert tracer.counts["magnification.flow.cuts"] == sum(r["iterations"] for r in results)
        assert tracer.counts["magnification.flow.edges"] == sum(r["edges"] for r in results)
    elif workload.name == "enum":
        results = [json.loads(rec.output) for rec in ok if rec.op.kind != "prop13"]
        assert calls["magnification.enum"] == kinds["oracle"] + kinds["delta"]
        assert calls["verify.prop13"] == kinds["prop13"]
        assert tracer.counts["magnification.enum.subsets"] == sum(r["iterations"]
                                                                  for r in results)
    else:
        assert calls["zline.zsumset"] == kinds["zsumset"] + kinds["correspond"]
        assert calls["orbits.correspond"] == kinds["correspond"]
        assert calls["spectral.transform"] == kinds["equidist"] + kinds["weyl"]
        windows = [tracing.zsumset_window(*op.args) for op in ops if op.kind == "zsumset"]
        windows += [tracing.zsumset_window(sl.finite(op.args[1]), op.args[0])
                    for op in ops if op.kind == "correspond"]
        assert tracer.counts["zline.zsumset.window_points"] == sum(windows)
        states = sum(sl.orbit_closure(op.args[0]).states_total
                     for op in ops if op.kind == "correspond")
        assert tracer.counts["orbits.closure.states"] == states


def test_failed_ops_rank_above_every_success():
    seconds = [0.001, 0.002, 0.003, 0.5]
    assert run.latency_ms(seconds, set(), 0.5) == pytest.approx(2.0)
    assert run.latency_ms(seconds, {0}, 0.9) == pytest.approx(500.0)
    assert run.latency_ms(seconds, {0}, 0.5) == pytest.approx(3.0)


def test_speed_factors_use_nearby_calibration_blocks():
    blocks = [(0.0, 0.0002), (0.5, 0.0004), (5.0, 0.0001)]
    factors = run.speed_factors([0.0, 0.4, 3.0, 5.0], blocks)
    ref = run.CALIBRATION_REFERENCE_S
    assert factors == pytest.approx([ref / 0.0003, ref / 0.0003, ref / 0.0001, ref / 0.0001])


def test_brute_force_sumset_matches_small_cases():
    A = sl.zdesc([0, 3], 0, 5, (4, [1]), (6, [0, 5]))
    B = sl.zdesc([1], -2, 2, (3, [2]), None)
    P = 12
    lo, hi = A.lo + B.lo - 2 * P, A.hi + B.hi + 2 * P
    want = [any(sl.zcontains(A, a) and sl.zcontains(B, x - a) for a in range(x - 200, x + 201))
            for x in range(lo, hi)]
    assert list(workloads.brute_force_sumset(A, B, P, lo, hi)) == want


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "line", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
