"""``run`` and ``convergence`` stream: ``cli.execute`` hands each state that
``evolve`` accepts to the checks and the timeseries as it arrives, and keeps
a window of states, not the trajectory.  These tests hold the streamed
reports to the whole-trajectory ones, the failure paths to their exit codes,
stderr lines and written files, and ``execute``'s memory to a bound that
does not grow with the step count beyond the timeseries numbers."""

import dataclasses
import json
import tracemalloc
from pathlib import Path

import pytest

from curveflow import cli, curvekit, verify
from curveflow.cli import EXIT_NUMERICAL, build_curve_spec, build_flow, bundled_scenario_path, execute, main
from curveflow.curvekit import sample
from curveflow.errors import CurveFlowError
from curveflow.flowsim import evolve, initial_state

CHECKED = [
    path.name
    for path in sorted(bundled_scenario_path("circle_zero_flow.json").parent.glob("*.json"))
    if json.loads(path.read_text()).get("checks")
]
# the n = 4 curve with a timelike V4 under f2, f3 and f4 (as ``tests/test_verify.py``'s TIMELIKE_V4_FLOWS)
TIMELIKE_V4 = {
    "name": "timelike_v4",
    "curve": {"components": ["cosh(u)", "sinh(u)", "cos(2*u)", "sin(2*u)"], "domain": [0, 2], "samples": 64},
    "flow": {"mode": "inextensible", "speeds": ["0.1*sin(s)", "0.05*cos(s)", "0.05"]},
    "integrator": {"dt": 1e-3, "steps": 10},
    "checks": list(verify.CHECKS),
}
# F7's explicit flow on the circle, which is not inextensible
F7_SPEEDS = ["0", "0.1*sin(s)", "0"]


def _doc(name):
    return json.loads(bundled_scenario_path(name).read_text())


def _trajectory(doc):
    """``evolve``'s whole trajectory on the inputs ``execute`` builds."""
    flow = build_flow(doc)
    state = initial_state(sample(build_curve_spec(doc)), flow)
    return evolve(state, flow, doc["integrator"]["dt"], doc["integrator"]["steps"])


def _texts(reports):
    return [json.dumps(r.to_json_dict()) for r in reports]


def _whole(doc, traj):
    tolerances = doc.get("tolerances", {})
    return [verify.run_check(name, traj, tolerances.get(name)) for name in doc["checks"]]


def _plant_flips(state, step):
    """The state with frame vectors negated as ``tests/test_verify.py``'s
    flip tests plant them: V_2 over an eighth of the samples at step 5, the
    last vector over three samples from step 9 on, zeroed there at step 13."""
    m, N = state.frenet.frame.shape[0], state.frenet.frame.shape[2]
    plants = [(1, slice(N // 8, N // 4), -1.0)] if step == 5 else []
    if step >= 9:
        plants.append((m - 1, slice(N // 2, N // 2 + 3), 0.0 if step == 13 else -1.0))
    if not plants:
        return state
    frame = state.frenet.frame.copy()
    for i, samples, factor in plants:
        frame[i, :, samples] *= factor
    return dataclasses.replace(state, frenet=dataclasses.replace(state.frenet, frame=frame))


def test_execute_feeds_each_check_through_its_checks_entry(monkeypatch):
    # a run passes each block of BLOCK_STATES states to ``CHECKS[name]`` with its
    # own check as ``into``, and the rest with ``end``, so whatever wraps a
    # ``CHECKS`` entry (the benchmark's tracer) sees all of a check's work
    doc = _doc("circle_inextensible_sine.json")
    calls = []
    for name, check in list(verify.CHECKS.items()):
        def recorded(traj, tolerance=None, into=None, end=True, name=name, check=check):
            calls.append((name, len(traj.states), isinstance(into, verify.ACCUMULATORS[name]), end))
            return check(traj, tolerance, into, end)

        monkeypatch.setitem(verify.CHECKS, name, recorded)
    _, reports = execute(doc)
    full, rest = divmod(doc["integrator"]["steps"] + 1, verify.BLOCK_STATES)
    for name in doc["checks"]:
        fed = [call[1:] for call in calls if call[0] == name]
        assert fed == [(verify.BLOCK_STATES, True, False)] * full + [(rest, True, True)], name
    assert _texts(reports) == _texts(_whole(doc, _trajectory(doc)))


@pytest.mark.parametrize("name", CHECKED + ["timelike_v4"])
def test_streamed_reports_equal_the_reports_of_the_whole_trajectory(name):
    # every report byte of ``execute``, which feeds the checks a block at a time,
    # is that of run_check on evolve's trajectory of the same inputs
    doc = TIMELIKE_V4 if name == "timelike_v4" else _doc(name)
    run, reports = execute(doc)
    assert _texts(reports) == _texts(_whole(doc, _trajectory(doc)))
    assert run.steps == doc["integrator"]["steps"] + 1


def test_streamed_reports_equal_the_whole_trajectory_reports_with_frame_flips(monkeypatch):
    # the circle with frame flips planted in the states ``execute`` streams, and
    # in the same states of evolve's trajectory: the flip alignment carries
    # across blocks and feeds alike
    doc = _doc("circle_inextensible_sine.json")
    add = cli.Run.add

    def planted(run, state):
        add(run, _plant_flips(state, run.steps))

    monkeypatch.setattr(cli.Run, "add", planted)
    _, reports = execute(doc)
    traj = _trajectory(doc)
    flipped = dataclasses.replace(traj, states=[_plant_flips(st, step) for step, st in enumerate(traj.states)])
    assert _texts(reports) == _texts(_whole(doc, flipped))
    assert all(r.details["frame_flips"] > 0 for r in reports if r.identity != "iff_condition")


def _fed(name, traj, at_once):
    """The report of a check fed the trajectory whole or a state at a time, or
    the type and message of its error."""
    check = verify.ACCUMULATORS[name](traj.dt, traj.flow)
    try:
        for states in [traj.states] if at_once else [[st] for st in traj.states]:
            check.feed(states)
        return json.dumps(check.finish().to_json_dict())
    except CurveFlowError as err:
        return type(err).__name__, str(err)


@pytest.mark.parametrize("case", ["circle", "flips", "timelike_v4", "domain_error", "signature", "f7", "short"])
def test_states_fed_one_at_a_time_give_the_reports_of_the_whole_trajectory(case):
    # also where a check raises: a jet DomainError at state 12 or a frame
    # signature change at state 11 (the first error of the walk, held until
    # finish), NotInextensible, and InsufficientStates
    doc = _doc("circle_inextensible_sine.json")
    doc["curve"]["samples"], doc["integrator"]["steps"] = 64, 20
    if case == "timelike_v4":
        doc = TIMELIKE_V4
    if case == "f7":
        doc["flow"] = {"mode": "explicit", "speeds": F7_SPEEDS}
    if case == "short":
        doc["integrator"]["steps"] = 1
    traj = _trajectory(doc)
    if case == "flips":
        traj = dataclasses.replace(traj, states=[_plant_flips(st, step) for step, st in enumerate(traj.states)])
    if case == "domain_error":
        traj = dataclasses.replace(traj, flow=build_flow({**doc, "flow": {
            "mode": "inextensible", "speeds": [f"sin(s)/(t - {traj.states[12].t!r})", "0"]}}))
    if case == "signature":
        st = traj.states[11]
        states = list(traj.states)
        states[11] = dataclasses.replace(st, frenet=dataclasses.replace(st.frenet, signs=-st.frenet.signs))
        traj = dataclasses.replace(traj, states=states)
    outcomes = {name: (_fed(name, traj, True), _fed(name, traj, False)) for name in verify.CHECKS}
    for name, (whole, one_by_one) in outcomes.items():
        assert whole == one_by_one, name
    errors = {name: whole[0] for name, (whole, _) in outcomes.items() if isinstance(whole, tuple)}
    expected = {
        "domain_error": {"frame_evolution": "DomainError", "curvature_pde": "DomainError"},
        "signature": {name: "CurveFlowError" for name in ("speed_evolution", "psi_antisymmetry", "frame_evolution",
                                                          "curvature_pde")},
        "f7": {"frame_evolution": "NotInextensible", "curvature_pde": "NotInextensible"},
        "short": {name: "InsufficientStates" for name in ("speed_evolution", "psi_antisymmetry", "frame_evolution",
                                                          "curvature_pde")},
    }.get(case, {})
    assert errors == expected


def _written(out: Path) -> set:
    return {str(p.relative_to(out)) for p in out.rglob("*")} if out.exists() else set()


@pytest.mark.parametrize(
    "case, stderr, written",
    [
        # F7's flow: the walk runs as the states come, and the gap raises at finish
        ("f7", "numerical breakdown: flow violates the inextensibility condition by 1.000e-01"
         " (tolerance 1.000e-02)\n", set()),
        # a frame breakdown at the second stage: the accepted state's row stays
        ("frame_breakdown", "numerical breakdown: frame breakdown: causal sign of frame vector 2 flips at"
         " sample 1 (at t=0.0005)\n", {"timeseries.csv"}),
        ("one_step", "numerical breakdown: need at least 3 states, trajectory has 2\n", set()),
    ],
)
def test_failure_paths_keep_their_exit_code_stderr_and_files(case, stderr, written, tmp_path, capsys, monkeypatch):
    doc = _doc("circle_rigid_rotation.json")
    doc["curve"]["samples"] = 64
    del doc["output"]
    if case == "f7":
        doc["flow"], doc["checks"] = {"mode": "explicit", "speeds": F7_SPEEDS}, ["frame_evolution"]
        doc["integrator"] = {"dt": 1e-3, "steps": 20}
    if case == "frame_breakdown":
        doc["flow"]["speeds"] = ["0", "0", "2e6*t*sin(2*s)"]
        doc["integrator"] = {"dt": 1e-3, "steps": 3}
    if case == "one_step":
        doc["checks"], doc["integrator"] = ["curvature_pde"], {"dt": 1e-3, "steps": 1}
    walked = []
    walk = verify._Window._walk
    monkeypatch.setattr(verify._Window, "_walk", lambda w, block, size: walked.append(size) or walk(w, block, size))
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == EXIT_NUMERICAL
    assert capsys.readouterr().err == stderr
    assert _written(out) == written
    if case == "f7":
        assert walked == [8, 8]  # the full blocks, walked as their states came; the gap raises first at finish
    if case == "frame_breakdown":
        assert (out / "timeseries.csv").read_text().splitlines()[1].split(",")[:2] == ["0", "0"]


def test_spec_is_validated_once_per_execute_and_per_ladder_level(tmp_path, monkeypatch):
    calls = []
    validate = curvekit.CurveSpec.validate
    monkeypatch.setattr(curvekit.CurveSpec, "validate", lambda spec: calls.append(spec.samples) or validate(spec))
    execute(_doc("circle_inextensible_sine.json"))
    assert calls == [256]
    calls.clear()
    scenario = str(bundled_scenario_path("timelike_helix_convergence.json"))
    main(["convergence", scenario, "--levels", "3", "--out", str(tmp_path)])
    assert calls == [32, 64, 128]


# Bytes a step's timeseries row takes beyond the states: its six float64
# numbers, 48 bytes, in an array that grows by about 1/16 at a time
STEP_BYTES = 56
# execute's peak at N = 64, n = 3, in frames of (3, 3, 64) floats: the
# checks' buffers, the window's states, the RK stages evolve holds
PEAK_FRAMES = 160


def _execute_peak(doc) -> int:
    execute(doc)  # caches and imports first
    tracemalloc.start()
    try:
        execute(doc)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_memory_does_not_grow_with_the_step_count_beyond_its_timeseries():
    # all five checks on the circle at N = 64: 300 more steps may add their
    # timeseries numbers and nothing else (the trajectory took 12 KB a step)
    doc = _doc("circle_inextensible_sine.json")
    doc["curve"]["samples"] = 64
    at = {}
    for steps in (100, 400):
        at[steps] = _execute_peak({**doc, "integrator": {**doc["integrator"], "steps": steps}})
    frame_bytes = 3 * 3 * 64 * 8
    assert at[400] <= at[100] + 300 * STEP_BYTES, (at[100], at[400])
    assert at[400] < PEAK_FRAMES * frame_bytes, at[400] / frame_bytes
