"""Tests of the benchmark itself, at reduced sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.prepare()

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(name, tmp_path, seed=0):
    wl = workloads.make(name, seed, tmp_path, sizes=workloads.TINY)
    wl.setup()
    return wl


@pytest.mark.parametrize("name", workloads.NAMES)
@pytest.mark.parametrize("seed", [0, 7])
def test_each_workload_runs_correctly_at_tiny_size(name, seed, tmp_path):
    wl = tiny(name, tmp_path, seed)
    runner = run.Runner(wl, lambda out: workloads.gate(out, workloads.load_expected()))
    times = runner.loop(0.0, 2)
    assert all(len(column) == 2 and all(t > 0 for t in column) for column in times)
    assert runner.failed == 0, runner.problems


def test_gate_flags_a_changed_outcome(tmp_path):
    wl = tiny("scenario_suite", tmp_path)
    outcomes = wl.outcomes(wl.op())
    expected = workloads.load_expected()
    assert workloads.gate(outcomes, expected) == []
    key = "suite run timelike_helix_convergence.json"
    # The known failure is an expected outcome; a pass would be a change.
    assert outcomes[key]["exit"] == 1
    changed = {key: dict(outcomes[key], exit=0)}
    assert workloads.gate(changed, expected)
    bumped = dict(outcomes[key])
    bumped["speed_evolution.speed_evolution"] *= 1 + 1e-6
    assert workloads.gate({key: bumped}, expected)
    assert workloads.gate({key: dict(outcomes[key], drift=float("nan"))}, expected)


def test_expected_bounds_respect_the_floors_record_py_sets():
    import record

    for key, rec in workloads.load_expected().items():
        floats = {k for k, v in rec["values"].items() if isinstance(v, float)}
        assert set(rec["tol"]) == floats, key
        for name, tol in rec["tol"].items():
            floor = max(record.ABS_FLOOR, record.REL_FLOOR * abs(rec["values"][name]))
            assert tol >= floor, (key, name, tol)


def test_generic_gate_for_unrecorded_inputs():
    assert workloads.gate({"x": {"a.pass": True, "drift": 1e-6, "exit": 0}}, {}) == []
    assert workloads.gate({"x": {"a.pass": False}}, {})
    assert workloads.gate({"x": {"drift": 2e-3}}, {})


def test_suite_passes_write_identical_bytes(tmp_path):
    wl = tiny("scenario_suite", tmp_path)
    assert wl.after_check(wl.op()) == []
    assert wl.after_check(wl.op()) == []
    third = wl.op()
    next(third[0].rglob("report.json")).write_text("{}")
    assert wl.after_check(third)


def test_phase_is_zero_for_the_default_seed():
    assert workloads.phase(0) == 0.0
    assert 0.0 < workloads.phase(1) < 2 * 3.141592653589793


def test_metric_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    layer = {**tracing.PER_OP_UNITS, **run.TRACE_EXTRA_UNITS}
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == layer


@pytest.mark.parametrize("name", workloads.NAMES)
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path):
    wl = tiny(name, tmp_path)
    runner = run.Runner(wl, lambda out: workloads.gate(out, workloads.load_expected()))
    record = {}
    metrics = run.untraced_run(runner, 0.0, 0.5, record)
    assert {k: u for k, (_, u) in metrics.items()} == run.END_TO_END_UNITS
    assert all(v > 0 for v, _ in metrics.values())
    assert record["named"]["op_fail_ratio"] == 0.0
    assert len(record["named"]) == 2


def test_timed_setup_repeats_import_and_setup(tmp_path):
    wl = workloads.make("evolve_small", 0, tmp_path, sizes=workloads.TINY)
    record = {}
    assert run.timed_setup(wl, record) > 0
    assert len(record["setup_import_s"]) == len(record["setup_cpu_s"]) == run.SETUP_REPS
    assert len(record["setup_import_refs"]) == len(record["setup_refs"]) == run.SETUP_REPS + 1
    assert all(t > 0 for t in record["setup_import_s"] + record["setup_import_refs"])


def traced(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "ROOT", tmp_path)
    wl = tiny(name, tmp_path)
    runner = run.Runner(wl, lambda out: workloads.gate(out, workloads.load_expected()))
    record = {"seed": 0}
    metrics = run.traced_run(runner, 0.0, record)
    return runner, metrics, record


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_run_reports_every_layer_metric(name, tmp_path, monkeypatch):
    before = tracing.snapshot()
    runner, metrics, _ = traced(name, tmp_path, monkeypatch)
    assert runner.problems == []
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert all(v >= 0 or k == "tracing.op_s_delta" for k, (v, _) in metrics.items())
    assert tracing.not_restored(before) == []
    assert all(now is before[k] for k, now in tracing.snapshot().items())
    if name.startswith("evolve"):
        steps = workloads.TINY[name]["steps"]
        assert metrics["flowsim.stage_rebuilds"][0] == 4 * steps + 1
        assert metrics["verify.check_curvature_pde.total_s"][0] == 0.0
    if name == "scenario_suite":
        assert metrics["cli.output_bytes"][0] > 0
        assert metrics["cli.convergence.parallelism"][0] > 0
        assert metrics["verify.peak_alloc_mb"][0] > 0


def test_self_times_are_nonnegative_and_bounded_by_parents(tmp_path):
    wl = tiny("scenario_suite", tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wl.op()
    finally:
        tracer.uninstall()
    spans, _ = tracer.take()
    assert spans
    selfs = tracing.self_times(spans)
    by_id = {sp.id: sp for sp in spans}
    for sp in spans:
        assert -1e-9 <= selfs[sp.id] <= sp.end - sp.start + 1e-9
        parent = by_id.get(sp.parent)
        if parent is not None:
            assert selfs[sp.id] <= parent.end - parent.start + 1e-9
            assert parent.start <= sp.start and sp.end <= parent.end


class Raising:
    name = "raising"
    min_ops = 1
    calibrated = True

    def op(self, timed):
        return timed(self.boom)

    def boom(self):
        raise FloatingPointError("boom")


def test_failed_operations_are_counted_and_names_restored(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "ROOT", tmp_path)
    before = tracing.snapshot()
    runner = run.Runner(Raising(), lambda out: [])
    run.traced_run(runner, 0.0, {"seed": 0})
    assert runner.attempted == 2 and runner.failed == 2
    assert "FloatingPointError" in runner.problems[0]
    assert tracing.not_restored(before) == []


def test_covered_merges_overlapping_intervals():
    assert tracing._covered([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == pytest.approx(3.0)
    assert tracing._covered([]) == 0.0


def test_fails_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        BENCHMARK["command"] + ["--workload", "evolve_small", "--seed", "0", "--seconds", "1",
                                "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


class Sleeping:
    name = "sleeping"
    min_ops = 2
    calibrated = False

    def op(self, timed):
        return timed(time.sleep, 0.1)

    def outcomes(self, result):
        return {}


def test_operations_are_timed_in_cpu_seconds():
    # Time spent off the CPU (here, asleep) is wall time but not CPU time.
    wall, cpu, _ = run.Runner(Sleeping(), lambda out: []).loop(0.0, 2)
    assert all(w >= 0.1 for w in wall)
    assert all(c < 0.05 for c in cpu)


@pytest.mark.parametrize("name", ["evolve_small", "scenario_suite"])
def test_times_scale_with_the_kernel(name, tmp_path, monkeypatch):
    wl = tiny(name, tmp_path)
    runner = run.Runner(wl, lambda out: [])
    monkeypatch.setattr(run, "reference_seconds", lambda: 2 * run.REF_NOMINAL_S)
    _, cpu, scaled = runner.loop(0.0, 2)
    if wl.calibrated:
        assert scaled == pytest.approx([c / 2 for c in cpu])
        # One kernel time before the first piece of a loop, one after each.
        assert runner.refs == [2 * run.REF_NOMINAL_S] * 3
    else:
        assert scaled == cpu and runner.refs == []
