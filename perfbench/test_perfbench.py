"""Tests of the benchmark itself, in smoke mode: ``python3 -m pytest perfbench``."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import minsurf.engine  # noqa: E402
import minsurf.quadrature  # noqa: E402
import minsurf.specio  # noqa: E402
import minsurf.surface  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def last_line(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["patch", "cli"])
def test_smoke_run_meets_output_contract(workload, trace):
    out = last_line(run_bench("--workload", workload, "--seed", "3",
                              "--seconds", "1", "--trace", str(trace),
                              "--smoke"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert list(out["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])
    if not trace:
        assert all(out["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_declared_workloads_match_the_code():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in BENCH["per_layer"]] == list(tracing.RECORDED)
    assert set(tracing.RECORDED) <= set(tracing.METRICS) | {"trace.overhead_pct"}


def test_counts_repeat_exactly_for_a_seed():
    args = ("--workload", "cli", "--seed", "5", "--seconds", "1",
            "--trace", "1", "--smoke")
    a, b = last_line(run_bench(*args)), last_line(run_bench(*args))
    for name in ("engine.compile.calls", "engine.eval.points",
                 "quadrature.segments", "quadrature.evals_per_segment",
                 "conic.slice.surface_evals"):
        assert a["metrics"][name]["value"] == b["metrics"][name]["value"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run_bench("--workload", "patch", "--seed", "1", "--seconds", "1",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_seed_sets_constants_not_the_mix(tmp_path):
    a = workloads.build("cli", 7, True, str(tmp_path / "a"))
    b = workloads.build("cli", 7, True, str(tmp_path / "b"))
    c = workloads.build("cli", 8, True, str(tmp_path / "c"))
    assert a.ops == b.ops
    assert a.ops != c.ops
    assert [op.kind for op in a.ops] == [op.kind for op in c.ops]


def test_missing_binding_is_absent_not_zero(monkeypatch):
    monkeypatch.delattr(minsurf.engine, "eval_program")
    monkeypatch.delattr(minsurf.quadrature, "eval_program")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.span("op", lambda: None)
    finally:
        tracer.uninstall()
    metrics, absent = tracing.layer_metrics(tracer)
    assert "engine.eval.points" in absent
    assert "eval_program" in absent["engine.eval.points"]
    assert "quadrature.evals_per_segment" in absent
    assert "engine.eval.points" not in metrics
    assert metrics["engine.compile.calls"]["value"] == 0.0
    assert "minsurf.engine:eval_program" in tracer.missing_bindings


def test_repeat_with_different_output_fails(tmp_path):
    wl = workloads.build("patch", 1, True, str(tmp_path))
    checker = run.Checker(wl, workloads)
    op = wl.ops[1]
    out = wl.run(op, 1)
    assert checker.record(1, op, out, None)
    assert checker.record(1, op, out, None)
    other = wl.run(wl.ops[0], 0)
    assert not checker.record(1, op, other, None)
    assert "differs" in checker.failures[-1]


def test_reachable_mask_matches_a_punctured_immerse():
    spec = minsurf.specio.loads(json.dumps(workloads.PUNCTURED_CATENOID))
    for res in (17, 33):
        patch = minsurf.surface.immerse(spec.as_curve(), res=(res, res),
                                        zeta0=spec.base_point)
        want = workloads.reachable_mask(patch.u, patch.v,
                                        workloads.PUNCTURED_BASE)
        assert np.array_equal(patch.valid, want)
        assert not np.all(want)


def test_punctured_mesh_missing_a_reachable_vertex_fails(tmp_path):
    wl = workloads.build("cli", 2, True, str(tmp_path))
    op = wl.ops[0]
    assert op.kind == "punctured" and op.fmt == "ply"
    out = wl.run(op, 0)
    wl.check(op, out)
    mesh = out[0][1]
    with open(mesh, "rb") as fh:
        data = fh.read()
    start = data.index(b"end_header\n") + len(b"end_header\n")
    verts = np.frombuffer(data, "<f8", count=op.res * op.res * 4,
                          offset=start).reshape(op.res, op.res, 4).copy()
    j, k = np.argwhere(workloads.reachable_mask(
        *workloads.MESH_DOMAIN.grid(op.res, op.res), workloads.PUNCTURED_BASE)
        & (np.arange(op.res)[:, None] < op.res // 2))[0]
    verts[j, k] = 0.0
    with open(mesh, "wb") as fh:
        fh.write(data[:start] + verts.tobytes()
                 + data[start + verts.nbytes:])
    with pytest.raises(workloads.CheckFailed, match="left unwritten"):
        wl.check(op, out)


def test_defect_tolerance_follows_h_squared():
    assert workloads.defect_tol(33) == pytest.approx(0.05)
    assert workloads.defect_tol(129) < 4e-3
    assert workloads.defect_tol(257) < 1e-3


def test_traced_run_traces_every_op_as_often_as_not(tmp_path):
    wl = workloads.build("patch", 4, True, str(tmp_path))
    checker = run.Checker(wl, workloads)
    tracer = tracing.Tracer()
    plain, traced = run.measure(wl, checker, 0.0, workloads, tracer)
    assert not tracer.installed
    assert not hasattr(minsurf.engine.eval_program, "__wrapped__")
    assert [len(s) for s in plain.slots] == [len(s) for s in traced.slots]
    assert all(len(s) >= 2 for s in traced.slots)
    assert tracing.span_stats(tracer)["op"]["calls"] == len(traced.times)
    assert not checker.failures
