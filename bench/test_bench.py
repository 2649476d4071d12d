"""Tests of the benchmark harness itself (not part of the tier-1 suite).

    python3 -m pytest -q bench/test_bench.py

The smoke runs use tiny inputs for all three workloads, with the tracer off
and on, and take about a minute together.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from calib import REF_SLICE_S, SMOOTH, Calibrator  # noqa: E402
from metrics import DETERMINISTIC, END_TO_END, PER_LAYER, percentile  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, check_selection, make_requests  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd=ROOT, bench=BENCH):
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=cwd, timeout=180)
    return proc


def test_spec_matches_harness():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert set(DETERMINISTIC) <= set(PER_LAYER)


def test_requests_are_seeded_and_mixed():
    a, b = make_requests(5, 1000), make_requests(5, 1000)
    assert a == b
    assert a != make_requests(6, 1000)
    kinds = [r[0] for r in a]
    assert (kinds.count("L"), kinds.count("Int"), kinds.count("S")) == (400, 400, 200)
    pool = {(r[1], r[2], r[3]) for r in a if r[0] != "S"}
    assert pool == {(r[1], r[2], r[3]) for r in make_requests(6, 1000) if r[0] != "S"}
    assert len(pool) == 24
    assert sorted(len(ks) for ks, _, _ in pool) == [1] * 8 + [2] * 8 + [3] * 8
    for _, ks, alphas, t, tau in a:
        if tau is not None:
            assert -0.5 <= tau[0] <= 0.5 and 0.7 <= tau[1] <= 2.0 and 0 <= t <= 2
        assert all(2 <= k <= 5 for k in ks) and len(ks) == len(alphas)
    picked = check_selection(a, 5)
    assert sum(a[j][0] == "S" for j in picked) == 200
    assert sum(a[j][0] == "Int" for j in picked) == 50
    assert sum(a[j][0] == "L" for j in picked) == 3


def test_percentile_nearest_rank():
    xs = list(range(1, 1001))
    assert percentile(xs, 99) == 990
    assert sum(x > percentile(xs, 99) for x in xs) == 10
    assert percentile([3.0], 99) == 3.0


def test_reference_time_follows_local_slice_speed():
    cal = Calibrator()
    # slices every 25 ms: 2 ms each for the first second, then 0.5 ms each
    cal.slices = [(0.025 * i, 2 * REF_SLICE_S if i < 40 else 0.5 * REF_SLICE_S)
                  for i in range(80)]
    ref = cal.to_reference()
    assert ref(0.0, 0.5) == pytest.approx(0.25)  # the host ran at half the reference speed
    assert ref(1.5, 1.9) == pytest.approx(0.8)  # and then at twice
    assert ref(0.0, 1.975) == pytest.approx(ref(0.0, 1.0) + ref(1.0, 1.975))
    assert SMOOTH % 2 == 1


def test_calibrated_clock_leaves_out_slices():
    cal = Calibrator()
    cal.start()
    t0 = cal.clock()
    deadline = time.perf_counter() + 0.3
    while time.perf_counter() < deadline:
        pass
    t1 = cal.clock()
    cal.stop()
    assert len(cal.slices) > 10  # edge slices plus one per INTERVAL_S
    assert cal.spent > 0
    assert t1 - t0 == pytest.approx(0.3 - cal.spent, abs=0.01)


def test_self_time_subtracts_children():
    tr = Tracer()

    def inner():
        time.sleep(0.02)

    wrapped_inner = tr._wrap(inner, "toy.inner", "toy")

    def outer():
        time.sleep(0.01)
        wrapped_inner()
        wrapped_inner()

    tr._wrap(outer, "toy.outer", "toy")()
    s = tr.summary()
    assert s["toy.inner"]["calls"] == 2 and s["toy.outer"]["calls"] == 1
    outer_row = s["toy.outer"]
    assert outer_row["self_s"] == pytest.approx(outer_row["total_s"] - s["toy.inner"]["total_s"])
    assert 0.005 < outer_row["self_s"] < 0.03
    assert tr.ancestors_with("toy.inner", "toy.outer") == 1


def test_tracer_uninstall_restores_bindings():
    sys.path.insert(0, str(ROOT / "src"))
    import eistau
    from eistau import mmv
    from mpmath import mp

    before = (eistau.int_eval, mmv.int_eval, eistau.ExpPoly.__mul__, mp.quad)
    tr = Tracer()
    tr.install(eistau)
    try:
        assert mmv.int_eval is not before[1]
        assert mmv.int_eval.__wrapped__ is before[1]
    finally:
        tr.uninstall()
    assert (eistau.int_eval, mmv.int_eval, eistau.ExpPoly.__mul__, mp.quad) == before


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        assert values["trace.counts_repeat"] == 1.0
        assert abs(values["trace.coverage"] - 1) < 0.05
    else:
        assert all(v > 0 for v in values.values())


def test_refuses_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("eval-stream", 0, cwd=tmp_path, bench=tmp_path / "bench")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
