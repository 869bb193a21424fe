import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import curveflow
from conftest import catalog_curve, catalog_flow
from curveflow import catalog, cli
from curveflow.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    TIMESERIES_HEADER,
    _schema,
    build_curve_spec,
    build_flow,
    bundled_scenario_path,
    load_scenario,
    main,
)
from curveflow.curvekit import SampledCurve, sample, seam_mismatch
from curveflow.errors import ConfigError, FrameBreakdown, NullCurveError
from curveflow.exprjet import parse
from curveflow.flowsim import FlowSpec, evolve, initial_state


def scenario_doc(name):
    return json.loads(bundled_scenario_path(name).read_text())


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_run_normal_shrink(tmp_path):
    out = tmp_path / "out"
    rc = main(["run", str(bundled_scenario_path("circle_normal_shrink.json")), "--out", str(out)])
    assert rc == EXIT_OK
    lines = (out / "timeseries.csv").read_text().splitlines()
    assert lines[0] == TIMESERIES_HEADER
    assert len(lines) == 102  # header + steps 0..100
    final = lines[-1].split(",")
    drift = float(final[3])
    assert drift == pytest.approx(0.1 * 2 * 3.141592653589793, rel=1e-3)
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is True
    assert {c["identity"] for c in report["checks"]} == {"speed_evolution", "iff_condition"}


def test_run_zero_flow_deterministic(tmp_path):
    scn = str(bundled_scenario_path("circle_zero_flow.json"))
    blobs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["run", scn, "--out", str(out)]) == EXIT_OK
        blobs.append(
            ((out / "timeseries.csv").read_bytes(), (out / "report.json").read_bytes())
        )
    assert blobs[0] == blobs[1]


def test_report_validates_against_schema(tmp_path):
    out = tmp_path / "out"
    assert main(["run", str(bundled_scenario_path("circle_zero_flow.json")), "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    jsonschema.validate(report, _schema("report.schema.json"))


def test_every_bundled_scenario_validates():
    for name in (
        "circle_rigid_rotation.json",
        "circle_normal_shrink.json",
        "circle_inextensible_sine.json",
        "circle_zero_flow.json",
        "timelike_helix_twist.json",
        "timelike_helix_convergence.json",
        "spacelike_helix_twist.json",
        "hyperbola_wave.json",
        "line_translate.json",
    ):
        doc = load_scenario(bundled_scenario_path(name))
        assert doc["name"]


def test_readme_scenario_example_loads(tmp_path):
    # the "Scenario files" section of the README documents the format by example
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Scenario files\n", 1)[1]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme_example.json"
    path.write_text(example, encoding="utf-8")
    assert load_scenario(path)["name"] == "circle_rigid_rotation"


def test_run_helix_bundle(tmp_path):
    out = tmp_path / "out"
    rc = main(["run", str(bundled_scenario_path("timelike_helix_twist.json")), "--out", str(out)])
    assert rc == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is True


def test_run_summary_prints_worst_gated_residual(tmp_path, capsys):
    # the ungated classical curvature reading is about 1e5 times larger here
    out = tmp_path / "out"
    rc = main(["run", str(bundled_scenario_path("hyperbola_wave.json")), "--out", str(out)])
    assert rc == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    expected = [
        f"PASS {c['identity']} (max residual "
        f"{max(c['residuals'][0][g] for g in c['gated']):.3e})"
        for c in report["checks"]
    ]
    assert capsys.readouterr().out.splitlines() == expected


def test_run_reports_a_nan_residual_as_nan(tmp_path, capsys, monkeypatch):
    # one NaN sample in one state: the check fails, the report holds NaN and
    # the summary line prints it rather than the largest finite residual
    from curveflow import verify

    real = verify.CHECKS["speed_evolution"]

    def planted(traj, tolerance=None):
        traj.states[2].f1_s[5] = float("nan")
        return real(traj, tolerance)

    monkeypatch.setitem(verify.CHECKS, "speed_evolution", planted)
    out = tmp_path / "out"
    rc = main(["run", str(bundled_scenario_path("circle_zero_flow.json")), "--out", str(out)])
    assert rc == EXIT_CHECK_FAILED
    assert "FAIL speed_evolution (max residual nan)" in capsys.readouterr().out.splitlines()
    report = json.loads((out / "report.json").read_text())
    assert math.isnan(report["checks"][0]["residuals"][0]["speed_evolution"])
    assert report["pass"] is False


def test_run_line_bundle(tmp_path):
    out = tmp_path / "out"
    rc = main(["run", str(bundled_scenario_path("line_translate.json")), "--out", str(out)])
    assert rc == EXIT_OK


def test_unknown_check_name_exits_config(tmp_path, capsys):
    doc = scenario_doc("circle_zero_flow.json")
    doc["checks"] = ["foo"]
    rc = main(["run", write_scenario(tmp_path, doc), "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    assert "checks" in capsys.readouterr().err


def test_schema_violation_names_field(tmp_path, capsys):
    doc = scenario_doc("circle_zero_flow.json")
    del doc["integrator"]
    rc = main(["run", write_scenario(tmp_path, doc), "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    doc = scenario_doc("circle_zero_flow.json")
    doc["curve"]["samples"] = 4
    rc = main(["run", write_scenario(tmp_path, doc), "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    assert "curve.samples" in capsys.readouterr().err
    # settings a scenario no longer has: n is the component count, dt the
    # only step, run writes every output, --out alone names their directory,
    # a synthesized f1 starts at 0 on the first sample, and a flow has no label
    for section, key, value in ((None, "dimension", 3), ("integrator", "t_horizon", 0.016),
                                ("output", "formats", ["csv", "json"]),
                                ("output", "directory", str(tmp_path / "d")),
                                ("flow", "f1_at_0", 0.3), ("flow", "name", "no motion")):
        doc = scenario_doc("circle_zero_flow.json")
        (doc.setdefault(section, {}) if section else doc)[key] = value
        rc = main(["run", write_scenario(tmp_path, doc), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"'{key}' was unexpected" in err


@pytest.mark.parametrize("samples", [10**15, 10**20])
@pytest.mark.parametrize("command", [["run"], ["frenet"], ["convergence", "--levels", "2"]])
def test_unallocatable_sample_count_is_a_config_error(tmp_path, capsys, command, samples):
    # numpy refuses both counts at once, without allocating: 10**15 samples
    # by MemoryError, 10**20 as past its index range by ValueError
    doc = scenario_doc("circle_inextensible_sine.json")
    doc["curve"]["samples"] = samples
    argv = command[:1] + [write_scenario(tmp_path, doc)] + command[1:]
    assert main(argv + ["--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: curve.samples: {samples} samples cannot be allocated: ")
    assert err.count("\n") == 1


def test_tolerance_subset_of_default_keys_loads(tmp_path):
    doc = scenario_doc("circle_zero_flow.json")
    doc["tolerances"] = {"iff_condition": {"drift": 1.0}, "speed_evolution": 2}
    assert load_scenario(write_scenario(tmp_path, doc))["tolerances"] == doc["tolerances"]


def test_speed_count_mismatch(tmp_path, capsys):
    doc = scenario_doc("circle_zero_flow.json")
    doc["flow"]["speeds"] = ["0", "0"]
    rc = main(["run", write_scenario(tmp_path, doc), "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    assert "flow.speeds" in capsys.readouterr().err


def test_bad_expression_reported(tmp_path, capsys):
    doc = scenario_doc("circle_zero_flow.json")
    doc["curve"]["components"] = ["0", "cos(u", "sin(u)"]
    rc = main(["run", write_scenario(tmp_path, doc), "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    assert "curve.components" in capsys.readouterr().err


def test_missing_scenario_file(tmp_path):
    rc = main(["run", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG


@pytest.mark.parametrize("command", [["run"], ["frenet"], ["convergence", "--levels", "2"]])
def test_unreadable_scenario_path_is_a_config_error(tmp_path, capsys, command):
    # a directory is no scenario file: exit 2 with the path, not a traceback
    assert main(command[:1] + [str(tmp_path)] + command[1:]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: cannot read scenario file {tmp_path}: Is a directory\n"
    )


@pytest.mark.parametrize("command", ["run", "frenet"])
@pytest.mark.parametrize("below", [False, True])
def test_unwritable_output_directory_is_a_config_error(tmp_path, capsys, command, below):
    # --out names a file, or a directory below one: exit 2 with the path, not a traceback
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker / "sub" if below else blocker
    name = "timeseries.csv" if command == "run" else "frenet.json"
    reason = "Not a directory" if below else "File exists"
    scn = str(bundled_scenario_path("circle_zero_flow.json"))
    assert main([command, scn, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: cannot write {out / name}: {reason}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["blocker"]


def test_output_files_get_the_mode_of_a_plain_open(tmp_path):
    doc = scenario_doc("circle_zero_flow.json")
    doc["output"] = {"frames_at": [0, 8]}
    scn = write_scenario(tmp_path, doc)
    out = tmp_path / "o"
    umask = os.umask(0o022)
    try:
        assert main(["run", scn, "--out", str(out)]) == EXIT_OK
        assert main(["frenet", scn, "--out", str(out)]) == EXIT_OK
        with open(out / "plain", "w"):
            pass
    finally:
        os.umask(umask)
    want = (out / "plain").stat().st_mode
    assert want & 0o777 == 0o644
    names = ["frames_0.json", "frames_8.json", "frenet.json", "plain", "report.json", "timeseries.csv"]
    assert sorted(p.name for p in out.iterdir()) == names  # no temporary file is left
    for name in names:
        assert (out / name).stat().st_mode == want, name


def test_check_failure_gives_exit_one(tmp_path):
    doc = scenario_doc("circle_normal_shrink.json")
    # demand a drift the shrinking circle cannot satisfy while the
    # pointwise side stays large: the biconditional breaks
    doc["tolerances"] = {"iff_condition": {"pointwise": 1e-9, "drift": 10.0}}
    rc = main(["run", write_scenario(tmp_path, doc), "--out", str(tmp_path / "o")])
    assert rc == EXIT_CHECK_FAILED
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["pass"] is False


def test_numerical_breakdown_gives_exit_three(tmp_path, capsys):
    # (integrator, step column, t column) of the accepted states, which the
    # partial timeseries still holds
    cases = [
        ({"dt": 0.7, "steps": 2}, ["0"], ["0"]),
        ({"dt": 0.3, "steps": 4}, ["0", "1", "2"], ["0", "0.3", "0.6"]),
    ]
    for i, (integrator, steps, times) in enumerate(cases):
        doc = scenario_doc("circle_normal_shrink.json")
        doc["integrator"] = integrator
        out = tmp_path / f"o{i}"
        rc = main(["run", write_scenario(tmp_path, doc), "--out", str(out)])
        assert rc == EXIT_NUMERICAL
        assert "breakdown" in capsys.readouterr().err
        lines = (out / "timeseries.csv").read_text().splitlines()
        assert lines[0] == TIMESERIES_HEADER
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == steps
        assert [r[1] for r in rows] == times


def test_failed_first_rebuild_writes_no_timeseries(tmp_path, capsys, monkeypatch):
    # evolve rebuilds its first state from the points; when that fails no
    # state was accepted, so there is no row to write
    def null_tangent(cls, *args, **kwargs):
        raise NullCurveError("tangent is null at sample 0")

    monkeypatch.setattr(SampledCurve, "from_points", classmethod(null_tangent))
    scn = str(bundled_scenario_path("circle_normal_shrink.json"))
    assert main(["run", scn, "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL
    assert "breakdown" in capsys.readouterr().err
    assert not (tmp_path / "o" / "timeseries.csv").exists()


def test_frame_breakdown_in_evolve_keeps_time_and_partial_timeseries(tmp_path, capsys):
    # 2e6*t*sin(2*s) along the timelike binormal: at the second stage
    # (t = dt/2) the rebuilt frame's second vector changes causal sign
    doc = scenario_doc("circle_rigid_rotation.json")
    doc["curve"]["samples"] = 64
    doc["flow"]["speeds"] = ["0", "0", "2e6*t*sin(2*s)"]
    doc["integrator"] = {"dt": 1e-3, "steps": 3}
    del doc["output"]
    scn = write_scenario(tmp_path, doc)
    assert main(["run", scn, "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err == (
        "numerical breakdown: frame breakdown: causal sign of frame vector 2 flips at sample 1"
        " (at t=0.0005)\n"
    )
    lines = (tmp_path / "o" / "timeseries.csv").read_text().splitlines()
    assert lines[0] == TIMESERIES_HEADER
    assert [line.split(",")[:2] for line in lines[1:]] == [["0", "0"]]

    flow = build_flow(doc)
    with pytest.raises(FrameBreakdown) as exc:
        evolve(initial_state(sample(build_curve_spec(doc)), flow), flow, 1e-3, 3)
    assert exc.value.t == 0.0005
    assert len(exc.value.trajectory.states) == 1
    assert (exc.value.index, exc.value.sample) == (2, 1)


@pytest.mark.parametrize(
    "scenario, speeds, integrator, err, rows",
    [
        ("circle_rigid_rotation.json", ["0", "sqrt(0.002 - t)", "0"], {"dt": 1e-3, "steps": 5},
         "sqrt of a negative value in jet arithmetic (at t=0.0025)",
         [["0", "0"], ["1", "0.001"], ["2", "0.002"]]),
        ("line_translate.json", ["1", "0", "0.1*t"], {"dt": 1e-3, "steps": 3},
         "flow drives frame direction 2..3 but only 1 frame vectors exist: speed f3 is 5e-05 "
         "at sample 0 (s=0) (at t=0.0005)",
         [["0", "0"]]),
    ],
    ids=["speed_domain", "missing_frame_direction"],
)
def test_stage_failure_keeps_partial_timeseries(tmp_path, capsys, scenario, speeds, integrator,
                                                err, rows):
    doc = scenario_doc(scenario)
    doc["curve"]["samples"] = 64
    doc["flow"]["speeds"] = speeds
    doc["integrator"] = integrator
    doc.pop("output", None)
    scn = write_scenario(tmp_path, doc)
    assert main(["run", scn, "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL
    assert capsys.readouterr().err == f"numerical breakdown: {err}\n"
    lines = (tmp_path / "o" / "timeseries.csv").read_text().splitlines()
    assert lines[0] == TIMESERIES_HEADER
    assert [line.split(",")[:2] for line in lines[1:]] == rows


def test_a_nan_speed_along_a_missing_frame_direction_is_a_numerical_breakdown(tmp_path, capsys):
    # 0 * exp(1000 s) turns NaN where exp overflows, along V_2, which the
    # line does not have: the run stops before it evolves, not with NaN
    # frames and every check passing.  The suite turns a RuntimeWarning into
    # an error, so this also shows the overflow prints no numpy warning.
    doc = scenario_doc("line_translate.json")
    doc["flow"]["speeds"] = ["1", "0*exp(1000*s)", "0"]
    doc["output"] = {"frames_at": [0]}
    code = main(["run", write_scenario(tmp_path, doc), "--out", str(tmp_path / "o")])
    assert code == EXIT_NUMERICAL
    assert capsys.readouterr().err == (
        "numerical breakdown: flow drives frame direction 2..3 but only 1 frame vectors exist: "
        "speed f2 is nan at sample 45 (s=0.714286)\n"
    )
    assert not (tmp_path / "o" / "frames_0.json").exists()


def test_frames_dump(tmp_path):
    doc = scenario_doc("circle_zero_flow.json")
    doc["output"] = {"frames_at": [0, 8]}
    rc = main(["run", write_scenario(tmp_path, doc), "--out", str(tmp_path / "o")])
    assert rc == EXIT_OK
    for step in (0, 8):
        frame = json.loads((tmp_path / "o" / f"frames_{step}.json").read_text())
        assert frame["step"] == step
        assert len(frame["points"]) == 64
        assert len(frame["frame"]) == 3
        assert frame["signs"] == [1, 1, -1]


def test_frames_step_out_of_range(tmp_path, capsys):
    doc = scenario_doc("circle_zero_flow.json")
    doc["output"] = {"frames_at": [0, 99]}
    rc = main(["run", write_scenario(tmp_path, doc), "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    assert "frames_at" in capsys.readouterr().err
    # rejected while loading: nothing is evolved or written
    assert not (tmp_path / "o").exists()


def test_convergence_levels_validation(tmp_path):
    scn = str(bundled_scenario_path("timelike_helix_convergence.json"))
    assert main(["convergence", scn, "--levels", "1", "--out", str(tmp_path)]) == EXIT_CONFIG


def test_convergence_emits_orders(tmp_path):
    scn = str(bundled_scenario_path("timelike_helix_convergence.json"))
    out = tmp_path / "conv"
    rc = main(["convergence", scn, "--levels", "3", "--out", str(out)])
    assert rc == EXIT_OK
    lines = (out / "convergence.csv").read_text().splitlines()
    assert lines[0] == "identity,residual,level,samples,dt,value,fitted_order"
    rows = [line.split(",") for line in lines[1:]]
    identities = {r[0] for r in rows}
    assert identities == {"speed_evolution", "frame_evolution", "curvature_pde"}
    for r in rows:
        if r[0] == "speed_evolution" and r[1] == "speed_evolution":
            assert 1.5 <= float(r[6]) <= 2.5
    report = json.loads((out / "report.json").read_text())
    jsonschema.validate(report, _schema("report.schema.json"))


def test_convergence_zero_flow_orders_na(tmp_path):
    scn = str(bundled_scenario_path("circle_zero_flow.json"))
    out = tmp_path / "conv0"
    rc = main(["convergence", scn, "--levels", "2", "--out", str(out)])
    assert rc == EXIT_OK
    rows = (out / "convergence.csv").read_text().splitlines()[1:]
    assert rows and all(r.split(",")[6] == "n/a" for r in rows)


def test_convergence_deterministic(tmp_path):
    scn = str(bundled_scenario_path("circle_zero_flow.json"))
    blobs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["convergence", scn, "--levels", "2", "--out", str(out)]) == EXIT_OK
        blobs.append(
            ((out / "convergence.csv").read_bytes(), (out / "report.json").read_bytes())
        )
    assert blobs[0] == blobs[1]


def _unstable_steps(doc):
    doc["integrator"] = {"dt": 0.7, "steps": 2}


def _no_checks(doc):
    del doc["checks"]


def _no_time_step(doc):
    doc["integrator"] = {"steps": 4}


def _fourth_component(doc):
    doc["curve"]["components"].append("0")


def _setting(value, *keys):
    def edit(doc):
        target = doc
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value

    return edit


SINE = "circle_inextensible_sine.json"
IFF_KEYS = "an object with keys from ['drift', 'pointwise']"


def _dt_literal_1e400(doc):
    # json.dumps cannot write an overflowing literal; hand back the text.
    return json.dumps(doc).replace('"dt": 0.001', '"dt": 1e400')


@pytest.mark.parametrize(
    "command, scenario, edit, code, stderr",
    [
        # The curve sizes its frame: a scenario that states the size names the key.
        (["frenet"], "line_translate.json", _setting(1, "integrator", "frame_vectors"), EXIT_CONFIG,
         "config error: integrator: Additional properties are not allowed ('frame_vectors' was unexpected)\n"),
        (["convergence", "--levels", "2"], "circle_normal_shrink.json", _unstable_steps,
         EXIT_NUMERICAL, "numerical breakdown: "),
        (["convergence", "--levels", "1"], "timelike_helix_convergence.json", None,
         EXIT_CONFIG, "config error: --levels must be >= 2\n"),
        (["convergence", "--levels", "2"], "circle_zero_flow.json", _no_checks,
         EXIT_CONFIG, "config error: scenario requests no checks\n"),
        (["convergence", "--levels", "2"], "circle_zero_flow.json", _no_time_step,
         EXIT_CONFIG, "config error: integrator: 'dt' is a required property\n"),
        # n is the number of curve components, and the speed count follows it
        (["run"], "circle_zero_flow.json", _fourth_component, EXIT_CONFIG,
         "config error: flow.speeds: explicit flow needs 4 speeds for dimension 4, got 3\n"),
        # Non-finite scenario numbers: rejected while loading, or where a
        # constant expression is evaluated.
        (["run"], SINE, _setting(float("inf"), "curve", "domain", 1), EXIT_CONFIG,
         "config error: {path}: number Infinity is not finite\n"),
        (["run"], SINE, _setting(10**400, "curve", "domain", 1), EXIT_CONFIG,
         "config error: {path}: number 10000000000"),
        (["run"], SINE, _setting("exp(1000)", "curve", "domain", 1), EXIT_CONFIG,
         "config error: curve.domain[1]: evaluates to inf, not a finite number\n"),
        (["run"], SINE, _setting("1/0", "curve", "domain", 1), EXIT_CONFIG,
         "config error: curve.domain[1]: division by zero"),
        (["run"], SINE, _setting("sqrt(-1)", "curve", "domain", 1), EXIT_CONFIG,
         "config error: curve.domain[1]: sqrt of a negative value"),
        (["run"], SINE, _setting(float("inf"), "integrator", "dt"), EXIT_CONFIG,
         "config error: {path}: number Infinity is not finite\n"),
        (["run"], SINE, _setting(float("nan"), "integrator", "dt"), EXIT_CONFIG,
         "config error: {path}: number NaN is not finite\n"),
        (["run"], SINE, _dt_literal_1e400, EXIT_CONFIG,
         "config error: {path}: number 1e400 is not finite\n"),
        (["run"], SINE, _setting(float("nan"), "curve", "domain", 0), EXIT_CONFIG,
         "config error: {path}: number NaN is not finite\n"),
        # Expressions past the parser's bounds: configuration errors, not a
        # RecursionError or an endless power.
        (["run"], SINE, _setting(["(" * 200 + "sin(s)" + ")" * 200, "0"], "flow", "speeds"),
         EXIT_CONFIG, "config error: flow.speeds: bad expression: expression nests deeper"),
        (["run"], SINE, _setting(["-" * 1000 + "sin(s)", "0"], "flow", "speeds"),
         EXIT_CONFIG, "config error: flow.speeds: bad expression: expression nests deeper"),
        (["run"], SINE, _setting(["sin(" * 300 + "s" + ")" * 300, "0"], "flow", "speeds"),
         EXIT_CONFIG, "config error: flow.speeds: bad expression: expression nests deeper"),
        (["run"], SINE, _setting(["0", "cos(u)^9^9^9", "sin(u)"], "curve", "components"),
         EXIT_CONFIG, "config error: curve.components: bad expression: exponent exceeds 1000"),
        # Below 48 samples the stencil rebuild of the circle at t0 misses the
        # compatibility tolerance that the jet-built initial state meets.
        (["run"], SINE, _setting(32, "curve", "samples"), EXIT_NUMERICAL,
         "numerical breakdown: compatibility integral of the curve rebuilt from N=32 samples"),
        # A tolerance has the shape of its default, checked before evolving.
        (["run"], "circle_zero_flow.json",
         _setting({"speed_evolution": {"x": 1e-3}}, "tolerances"), EXIT_CONFIG,
         "config error: tolerances.speed_evolution: must be a number\n"),
        (["run"], "circle_zero_flow.json", _setting({"iff_condition": 0.5}, "tolerances"),
         EXIT_CONFIG, f"config error: tolerances.iff_condition: must be {IFF_KEYS}\n"),
        (["run"], "circle_zero_flow.json",
         _setting({"iff_condition": {"drfit": 1.0}}, "tolerances"), EXIT_CONFIG,
         f"config error: tolerances.iff_condition: must be {IFF_KEYS}\n"),
        (["run"], "circle_zero_flow.json", _setting({"nonsense": 1.0}, "tolerances"),
         EXIT_CONFIG, "config error: tolerances: tolerance for unknown identity 'nonsense'\n"),
        (["run"], "circle_zero_flow.json", _setting(4, "integrator", "frame_vectors"),
         EXIT_CONFIG, "config error: integrator: Additional properties are not allowed ('frame_vectors' was unexpected)\n"),
        # A domain end is a constant expression, and the domain runs forward.
        (["run"], SINE, _setting("2*", "curve", "domain", 1), EXIT_CONFIG,
         "config error: curve.domain[1]: bad expression: unexpected end of input (at offset 2)\n"),
        (["run"], SINE, _setting("u", "curve", "domain", 1), EXIT_CONFIG,
         "config error: curve.domain[1]: must be a constant expression\n"),
        (["run"], SINE, _setting([1, 0], "curve", "domain"), EXIT_CONFIG,
         "config error: curve: domain must satisfy u1 > u0, got (1.0, 0.0)\n"),
        (["run"], SINE, _setting(["sin(u)", "0"], "flow", "speeds"), EXIT_CONFIG,
         "config error: flow: speed 2 may only use s and t, found ['u']\n"),
        # Every command reads a scenario with its step, even one that does not evolve.
        (["run"], "circle_zero_flow.json", _no_time_step,
         EXIT_CONFIG, "config error: integrator: 'dt' is a required property\n"),
        (["frenet"], "circle_zero_flow.json", _no_time_step,
         EXIT_CONFIG, "config error: integrator: 'dt' is a required property\n"),
        # A one-vector frame has no second curvature to evolve: found after evolving.
        (["run"], "line_translate.json", _setting(["curvature_pde"], "checks"), EXIT_CONFIG,
         "config error: checks: curvature check needs at least two frame vectors\n"),
    ],
)
def test_exit_codes_per_subcommand(tmp_path, capsys, command, scenario, edit, code, stderr):
    doc = scenario_doc(scenario)
    text = edit(doc) if edit is not None else None
    path = tmp_path / "scenario.json"
    path.write_text(text or json.dumps(doc))
    argv = command[:1] + [str(path)] + command[1:]
    assert main(argv + ["--out", str(tmp_path / "o")]) == code
    assert capsys.readouterr().err.startswith(stderr.format(path=path))


def test_frenet_dump(tmp_path):
    scn = str(bundled_scenario_path("timelike_helix_twist.json"))
    out = tmp_path / "fr"
    assert main(["frenet", scn, "--out", str(out)]) == EXIT_OK
    dump = json.loads((out / "frenet.json").read_text())
    assert dump["signs"] == [-1, 1, 1]
    assert dump["causal_character"] == "timelike"
    assert dump["curvatures"][0][10] == pytest.approx(1.0, abs=1e-9)
    assert dump["curvatures"][1][10] == pytest.approx(2**0.5, abs=1e-9)
    assert len(dump["stencil_curvatures"]) == 2


def test_frenet_dump_of_a_line_has_one_vector(tmp_path):
    # the shipped line states no frame size: its frame is one vector long
    out = tmp_path / "fr"
    assert main(["frenet", str(bundled_scenario_path("line_translate.json")), "--out", str(out)]) == EXIT_OK
    dump = json.loads((out / "frenet.json").read_text())
    assert dump["signs"] == [1] and dump["curvatures"] == [] and dump["completed_last"] is False
    assert dump["frenet_residual_max"] < 1e-14


W5 = ["0", "cos(u)", "sin(u)", "cos(2*u)/2", "sin(2*u)/2"]


@pytest.mark.parametrize("f3, code, stderr", [
    # L = 2 sqrt(2) pi, so sin(s) jumps at the seam
    ("0.05*sin(s)", EXIT_CONFIG,
     "config error: flow.speeds: speed f3 does not close up on the closed curve: its s-derivative "
     "of order 0 is 0.0 at s = 0 and 0.0256644198578"),
    ("0.05*sin(s/sqrt(2))", EXIT_OK, ""),
    # exp overflows at s = L only: a NaN end does not close up
    ("0*exp(1000*s)", EXIT_CONFIG,
     "config error: flow.speeds: speed f3 does not close up on the closed curve: its s-derivative "
     "of order 0 is 0.0 at s = 0 and nan at s = L"),
], ids=["seam", "periodic", "nan"])
def test_a_speed_with_a_seam_on_a_closed_curve_is_a_config_error(tmp_path, capsys, f3, code, stderr):
    doc = {"name": "w5", "curve": {"components": W5, "domain": [0, "2*pi"], "topology": "closed", "samples": 64},
           "flow": {"mode": "inextensible", "speeds": ["0", f3, "0", "0"]},
           "integrator": {"dt": 1e-5, "steps": 2}, "checks": ["curvature_pde"]}
    assert main(["run", write_scenario(tmp_path, doc), "--out", str(tmp_path / "o")]) == code
    assert capsys.readouterr().err.startswith(stderr)


# on the unit circle, L = 2 pi: sin(s/2) meets at the seam and its slope does
# not; BUMP and its slope meet, its second derivative does not
BUMP = "s^2*(2*pi - s)^3"


@pytest.mark.parametrize("index, speed, order", [
    (0, "sin(s/2)", 1), (0, BUMP, None),  # f1 and f3 to their first derivative
    (2, "sin(s/2)", 1), (2, BUMP, None),
    (1, "sin(s/2)", 1), (1, BUMP, 2),  # f2 to its second
])
def test_seam_check_reads_each_speed_to_the_order_the_checks_read(index, speed, order):
    # curvekit.seam_mismatch decides, to the order cli._check_seam reads
    curve = sample(catalog_curve("circle", 64))
    reads = 2 if index == 1 else 1
    mismatch = seam_mismatch(parse(speed), "s", (0.0, curve.total_length), reads, {"t": 0.0})
    assert (mismatch and mismatch[0]) == order
    speeds = ["0", "0", "0"]
    speeds[index] = speed
    if order is None:
        cli._check_seam(FlowSpec.explicit(speeds), curve)
        return
    with pytest.raises(ConfigError, match=f"speed f{index + 1} does not close up .* of order {order} "):
        cli._check_seam(FlowSpec.explicit(speeds), curve)


def test_list_catalog(capsys):
    assert main(["list-catalog"]) == EXIT_OK
    text = capsys.readouterr().out
    for token in ("circle", "timelike_helix", "rigid_rotation", "speed_evolution",
                  "circle_rigid_rotation.json"):
        assert token in text


def test_catalog_flows_are_built_by_the_scenario_loader(monkeypatch):
    docs = []
    monkeypatch.setattr(cli, "build_flow", lambda doc: docs.append(doc) or build_flow(doc))
    for name, entry in sorted(catalog.FLOWS.items()):
        speeds = entry["speeds"](3)
        explicit = entry["mode"] == "explicit"
        assert catalog_flow(name, 3) == (
            FlowSpec.explicit(speeds) if explicit else FlowSpec.inextensible(speeds)
        )
        assert docs[-1] == {"curve": {"components": ["0"] * 3},
                            "flow": {"mode": entry["mode"], "speeds": speeds}}
    assert len(docs) == len(catalog.FLOWS)


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "curveflow.cli", "list-catalog"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "bundled scenarios:" in proc.stdout


def test_cli_import_leaves_scipy_out():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, curveflow.cli; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_runs_from_a_tree_imported_under_another_name(tmp_path):
    # The bundled schemas and scenarios are found through the package the
    # module belongs to, not through the name "curveflow", which may be
    # missing or belong to another copy.
    shutil.copytree(Path(curveflow.__file__).parent, tmp_path / "cfalias")
    script = (
        "import sys\n"
        "sys.modules['curveflow'] = None  # import curveflow fails\n"
        "import cfalias.cli\n"
        "sys.exit(cfalias.cli.main(['run', sys.argv[1], '--out', sys.argv[2]]))\n"
    )
    scenario = bundled_scenario_path("circle_zero_flow.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-c", script, str(scenario), str(tmp_path / "out")],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert (tmp_path / "out" / "report.json").is_file()


def test_load_scenario_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_scenario(path)


# ``exp(1000*u)``'s derivatives overflow while the curve is sampled, before
# anything evolves.  The suite turns a RuntimeWarning into an error, so this
# also holds that sampling prints no numpy warning.
@pytest.mark.parametrize("command", [["run"], ["frenet"], ["convergence", "--levels", "2"]])
def test_overflowing_curve_is_a_numerical_breakdown(tmp_path, capsys, command):
    doc = scenario_doc("line_translate.json")
    doc["curve"]["components"] = ["0", "exp(1000*u)", "0"]
    argv = command[:1] + [write_scenario(tmp_path, doc)] + command[1:]
    assert main(argv + ["--out", str(tmp_path / "o")]) == EXIT_NUMERICAL
    # 1000^3 exp(1000 u) first overflows at sample 44 of 64 on [0, 1]
    assert capsys.readouterr().err == (
        "numerical breakdown: curve evaluation produced non-finite values: "
        "component 2 at sample 44 (u=0.698413)\n"
    )


# ``exp(600*u)``'s values and derivatives are finite, but the tangent's squared
# norm overflows: along a spacelike axis q and |X|^2 are both inf, which the
# null test alone reads as a null tangent; along both the timelike and a
# spacelike axis q is -inf + inf = NaN.  The suite turns a RuntimeWarning into
# an error, so this also holds that the overflow prints no numpy warning.
@pytest.mark.parametrize("command", [["run"], ["frenet"]])
def test_overflowing_tangent_norm_is_a_non_finite_curve(tmp_path, capsys, command):
    for components in (["0", "exp(600*u)", "0"], ["exp(600*u)", "2*exp(600*u)", "0"]):
        doc = scenario_doc("line_translate.json")
        doc["curve"]["components"] = components
        argv = command + [write_scenario(tmp_path, doc), "--out", str(tmp_path / "o")]
        assert main(argv) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err == (
            "numerical breakdown: tangent's squared norm is not finite at sample 37 (u=0.587302)\n"
        )
        assert "null" not in err


def test_overflowing_closed_curve_is_named_after_its_endpoint_check(tmp_path, capsys):
    # exp(1000*2*pi) overflows at the far end only: the ends do not match, and
    # the scenario is rejected before anything is sampled
    doc = scenario_doc("circle_zero_flow.json")
    doc["curve"]["components"] = ["0", "cos(u)", "sin(u) + exp(1000*u)"]
    argv = ["frenet", write_scenario(tmp_path, doc), "--out", str(tmp_path)]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: curve: closed curve component 3 does not close up: its u-derivative "
        "of order 0 is 1.0 at u = 0.0 and inf at u = 6.283185307179586\n"
    )


@pytest.mark.parametrize("command", [["run"], ["frenet"], ["convergence", "--levels", "2"]])
def test_a_closed_curve_whose_tangent_jumps_at_the_seam_is_a_config_error(tmp_path, capsys, command):
    # the points meet at u = 2 pi and the u-derivatives 1 +- 0.1 pi do not:
    # unchecked, the seam reads as a flow residual (run) or a frame residual (frenet)
    doc = scenario_doc("circle_zero_flow.json")
    doc["curve"]["components"] = ["0", "cos(u)", "sin(u) + 0.05*u*(2*pi - u)"]
    doc["flow"]["speeds"] = ["0", "0.01", "0"]
    argv = command + [write_scenario(tmp_path, doc), "--out", str(tmp_path / "o")]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: curve: closed curve component 3 does not close up: its u-derivative "
        "of order 1 is 1.3141592653589793 at u = 0.0 and 0.6858407346410207 at u = 6.283185307179586\n"
    )
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name", ["scenario.schema.json", "report.schema.json"])
def test_bundled_schemas_satisfy_their_metaschema(name):
    # load_scenario builds its validator once and does not re-check the schema.
    schema = _schema(name)
    jsonschema.validators.validator_for(schema).check_schema(schema)


_SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e300, -1e300]
_SHAPES = hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=3)
_TEXT = st.text(st.one_of(st.characters(), st.sampled_from("\x00\x1f\x7f\"\\é名\u2028\U0001f600")), max_size=6)
_LEAVES = st.one_of(
    hnp.arrays(np.float64, _SHAPES, elements=st.one_of(st.floats(), st.sampled_from(_SPECIAL_FLOATS))),
    hnp.arrays(np.float64, _SHAPES, elements=st.floats(allow_nan=False, allow_infinity=False)),
    hnp.arrays(np.int64, _SHAPES),
    st.booleans(),
    st.none(),
    st.integers(),
    st.floats(),
    _TEXT,
)


def _as_lists(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: _as_lists(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_as_lists(v) for v in obj]
    return obj


@settings(max_examples=300, deadline=None)
@given(st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=8,
))
def test_json_text_equals_json_dumps_of_the_lists(obj):
    assert cli._json_text(obj) == json.dumps(_as_lists(obj), indent=2, sort_keys=True) + "\n"
