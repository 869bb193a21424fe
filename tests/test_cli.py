import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import curveflow
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
from curveflow.curvekit import SampledCurve, sample
from curveflow.errors import ConfigError, FrameBreakdown, NullCurveError
from curveflow.flowsim import evolve, initial_state


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


def test_numerical_breakdown_respects_output_formats(tmp_path, capsys):
    doc = scenario_doc("circle_normal_shrink.json")
    doc["integrator"] = {"dt": 0.7, "steps": 2}
    doc["output"] = {"formats": ["json"]}
    out = tmp_path / "jsononly"
    assert main(["run", write_scenario(tmp_path, doc), "--out", str(out)]) == EXIT_NUMERICAL
    assert "breakdown" in capsys.readouterr().err
    assert not (out / "timeseries.csv").exists()


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
        ("line_translate.json", ["1", "0", "0.1*t"],
         {"dt": 1e-3, "steps": 3, "frame_vectors": 1},
         "flow drives frame direction 2..3 but only 1 frame vectors exist (at t=0.0005)",
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
    del doc["output"]
    scn = write_scenario(tmp_path, doc)
    assert main(["run", scn, "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL
    assert capsys.readouterr().err == f"numerical breakdown: {err}\n"
    lines = (tmp_path / "o" / "timeseries.csv").read_text().splitlines()
    assert lines[0] == TIMESERIES_HEADER
    assert [line.split(",")[:2] for line in lines[1:]] == rows


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


def _without_frame_vectors(doc):
    del doc["integrator"]["frame_vectors"]


def _unstable_steps(doc):
    doc["integrator"] = {"dt": 0.7, "steps": 2}


def _no_checks(doc):
    del doc["checks"]


def _no_time_step(doc):
    doc["integrator"] = {"steps": 4}


def _past_horizon(doc):
    doc["integrator"] = {"dt": 0.01, "steps": 8, "t_horizon": 0.016}


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
        (["frenet"], "line_translate.json", _without_frame_vectors, EXIT_NUMERICAL,
         "numerical breakdown: "),
        (["convergence", "--levels", "2"], "circle_normal_shrink.json", _unstable_steps,
         EXIT_NUMERICAL, "numerical breakdown: "),
        (["convergence", "--levels", "1"], "timelike_helix_convergence.json", None,
         EXIT_CONFIG, "config error: --levels must be >= 2\n"),
        (["convergence", "--levels", "2"], "circle_zero_flow.json", _no_checks,
         EXIT_CONFIG, "config error: scenario requests no checks\n"),
        (["convergence", "--levels", "2"], "circle_zero_flow.json", _no_time_step,
         EXIT_CONFIG, "config error: convergence needs integrator.dt or t_horizon\n"),
        (["run"], "circle_zero_flow.json", _past_horizon, EXIT_CONFIG,
         "config error: integrator.t_horizon: dt*steps = 0.08 exceeds the time horizon 0.016\n"),
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
        (["run"], SINE, _setting(float("nan"), "flow", "f1_at_0"), EXIT_CONFIG,
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


def test_list_catalog(capsys):
    assert main(["list-catalog"]) == EXIT_OK
    text = capsys.readouterr().out
    for token in ("circle", "timelike_helix", "rigid_rotation", "speed_evolution",
                  "circle_rigid_rotation.json"):
        assert token in text


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


def test_output_formats_filter(tmp_path):
    doc = scenario_doc("circle_zero_flow.json")
    doc["output"] = {"formats": ["json"]}
    out = tmp_path / "jsononly"
    assert main(["run", write_scenario(tmp_path, doc), "--out", str(out)]) == EXIT_OK
    assert not (out / "timeseries.csv").exists()
    assert (out / "report.json").exists()


@pytest.mark.parametrize("overshoot, accepted", [(0.5e-12, True), (2e-12, False)])
def test_loader_owns_the_horizon_rule(tmp_path, capsys, overshoot, accepted):
    # evolve takes no horizon: the loader alone holds dt*steps to t_horizon,
    # allowing rounding
    horizon, steps = 0.016, 8
    dt = horizon * (1 + overshoot) / steps
    doc = scenario_doc("circle_zero_flow.json")
    doc["integrator"] = {"dt": dt, "steps": steps, "t_horizon": horizon}
    path = write_scenario(tmp_path, doc)
    out = tmp_path / "o"
    code = main(["run", path, "--out", str(out)])
    if accepted:
        assert code == EXIT_OK
        assert len((out / "timeseries.csv").read_text().splitlines()) == 1 + steps + 1
        assert load_scenario(path)["integrator"]["t_horizon"] == horizon
    else:
        assert code == EXIT_CONFIG
        message = "integrator.t_horizon: dt*steps = 0.016 exceeds the time horizon 0.016"
        assert capsys.readouterr().err == f"config error: {message}\n"
        with pytest.raises(ConfigError) as err:
            load_scenario(path)
        assert str(err.value) == message
        assert not out.exists()


# ``exp(1000*u)`` overflows while the curve is sampled, before anything evolves.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", [["run"], ["frenet"], ["convergence", "--levels", "2"]])
def test_overflowing_curve_is_a_numerical_breakdown(tmp_path, capsys, command):
    doc = scenario_doc("line_translate.json")
    doc["curve"]["components"] = ["0", "exp(1000*u)", "0"]
    argv = command[:1] + [write_scenario(tmp_path, doc)] + command[1:]
    assert main(argv + ["--out", str(tmp_path / "o")]) == EXIT_NUMERICAL
    assert capsys.readouterr().err == (
        "numerical breakdown: curve evaluation produced non-finite values\n"
    )


@pytest.mark.parametrize("name", ["scenario.schema.json", "report.schema.json"])
def test_bundled_schemas_satisfy_their_metaschema(name):
    # load_scenario builds its validator once and does not re-check the schema.
    schema = _schema(name)
    jsonschema.validators.validator_for(schema).check_schema(schema)


def test_dt_from_horizon(tmp_path):
    doc = scenario_doc("circle_zero_flow.json")
    doc["integrator"] = {"steps": 8, "t_horizon": 0.016}
    out = tmp_path / "o"
    assert main(["run", write_scenario(tmp_path, doc), "--out", str(out)]) == EXIT_OK
    rows = (out / "timeseries.csv").read_text().splitlines()[1:]
    assert float(rows[1].split(",")[1]) == pytest.approx(0.002)


def test_dt_heuristic_when_unset(tmp_path):
    doc = scenario_doc("circle_zero_flow.json")
    doc["integrator"] = {"steps": 4}
    out = tmp_path / "o"
    assert main(["run", write_scenario(tmp_path, doc), "--out", str(out)]) == EXIT_OK
    rows = (out / "timeseries.csv").read_text().splitlines()[1:]
    # zero flow: dt = 0.1 * min arc spacing
    assert float(rows[1].split(",")[1]) == pytest.approx(0.1 * 2 * 3.141592653589793 / 64, rel=1e-6)


def test_output_directory_from_scenario(tmp_path, monkeypatch):
    doc = scenario_doc("circle_zero_flow.json")
    doc["output"] = {"directory": str(tmp_path / "from_scenario")}
    assert main(["run", write_scenario(tmp_path, doc)]) == EXIT_OK
    assert (tmp_path / "from_scenario" / "timeseries.csv").exists()
