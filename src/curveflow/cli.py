"""Scenario-driven command line front end.

Subcommands:

* ``run``          evolve a scenario, emit timeseries.csv, optional frame
                   dumps, and report.json for the requested checks.
* ``convergence``  rerun a scenario at (N, dt), (2N, dt/2), ... with the
                   step count doubled per level (fixed time horizon) and
                   emit convergence.csv with fitted orders.
* ``frenet``       frame/curvature dump of the scenario's curve, no
                   evolution.
* ``list-catalog`` bundled curves, flows and example scenarios.

Exit codes: 0 all requested checks pass, 1 a check failed, 2 usage or
configuration error, 3 numerical breakdown in the curve or its evolution.

Outputs are written atomically (temp file + rename) and are byte-identical
across reruns of the same scenario: nothing here depends on wall clock or
iteration order of hash maps.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from importlib import resources
from pathlib import Path

from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for
import numpy as np

from . import catalog
from .curvekit import CurveSpec, SampledCurve, sample
from .errors import ConfigError, CurveFlowError, EvolutionError, ParseError
from .exprjet import eval_scalar, parse, variables
from .flowsim import FlowSpec, Trajectory, default_dt, evolve, initial_state
from .frenet import FrenetData, frenet_apparatus, frenet_residuals, stencil_curvatures
from .verify import CHECKS, VerificationReport, _tol, merge_reports

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

TIMESERIES_HEADER = "step,t,total_arclength,arclength_drift,min_v,max_v,max_k1"


# --------------------------------------------------------------------------
# Scenario loading


def _schema(name: str) -> dict:
    text = resources.files(__package__).joinpath("schemas", name).read_text(encoding="utf-8")
    return json.loads(text)


@functools.cache
def _validator(name: str):
    """Validator of a bundled schema, built once; the tests check the schema itself."""
    schema = _schema(name)
    return validator_for(schema)(schema)


def load_scenario(path: str | Path) -> dict:
    """Read and schema-validate a scenario file."""
    p = Path(path)
    try:
        doc = json.loads(
            p.read_text(encoding="utf-8"),
            parse_int=lambda text: _finite_number(text, int),
            parse_float=_finite_number,
            parse_constant=_finite_number,
        )
    except OSError as exc:  # missing, a directory, unreadable
        raise ConfigError(f"cannot read scenario file {p}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"not valid JSON: {exc}", field=str(p)) from exc
    except ValueError as exc:
        raise ConfigError(str(exc), field=str(p)) from exc
    # the error jsonschema.validate would raise
    error = best_match(_validator("scenario.schema.json").iter_errors(doc))
    if error is not None:
        where = ".".join(str(k) for k in error.absolute_path) or "(document)"
        raise ConfigError(error.message, field=where) from error
    _cross_validate(doc)
    return doc


def _finite_number(text: str, kind=float):
    """JSON number hook: NaN, Infinity and literals that overflow a double
    (such as 1e400) are rejected, so every scenario number is finite."""
    if not math.isfinite(float(text)):
        raise ValueError(f"number {text} is not finite")
    return kind(text)


def _const_value(raw, field: str) -> float:
    if isinstance(raw, (int, float)):
        return float(raw)
    try:
        expr = parse(raw)
    except ParseError as exc:
        raise ConfigError(f"bad expression: {exc}", field=field) from exc
    if variables(expr):
        raise ConfigError("must be a constant expression", field=field)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite values end below
            value = float(eval_scalar(expr))
    except CurveFlowError as exc:
        raise ConfigError(str(exc), field=field) from exc
    if not math.isfinite(value):
        raise ConfigError(f"evaluates to {value}, not a finite number", field=field)
    return value


def _cross_validate(doc: dict) -> None:
    n = doc["dimension"]
    comps = doc["curve"]["components"]
    if len(comps) != n:
        raise ConfigError(
            f"{len(comps)} components for dimension {n}", field="curve.components"
        )
    speeds = doc["flow"]["speeds"]
    mode = doc["flow"]["mode"]
    want = n if mode == "explicit" else n - 1
    if len(speeds) != want:
        raise ConfigError(
            f"{mode} flow needs {want} speeds for dimension {n}, got {len(speeds)}",
            field="flow.speeds",
        )
    for name in doc.get("checks", []):
        if name not in CHECKS:
            raise ConfigError(
                f"unknown identity {name!r}; known: {sorted(CHECKS)}", field="checks"
            )
    for name, value in doc.get("tolerances", {}).items():
        if name not in CHECKS:
            raise ConfigError(
                f"tolerance for unknown identity {name!r}", field="tolerances"
            )
        _tol(name, value)  # raises ConfigError unless it has its default's shape
    fv = doc["integrator"].get("frame_vectors")
    if fv is not None and fv > n:
        raise ConfigError(
            f"frame_vectors {fv} exceeds dimension {n}", field="integrator.frame_vectors"
        )
    # The only horizon check: a dt of t_horizon / steps meets it by
    # construction, and convergence scales dt and steps by powers of two.
    steps = doc["integrator"]["steps"]
    dt = doc["integrator"].get("dt")
    horizon = doc["integrator"].get("t_horizon")
    if dt is not None and horizon is not None and dt * steps > horizon * (1 + 1e-12):
        raise ConfigError(
            f"dt*steps = {dt * steps:.6g} exceeds the time horizon {horizon:.6g}",
            field="integrator.t_horizon",
        )
    for step in doc.get("output", {}).get("frames_at", []):
        if step > steps:
            raise ConfigError(f"frame step {step} outside [0, {steps}]", field="output.frames_at")


def _scenario_dt(integ: dict, steps: int) -> float | None:
    """integrator.dt, else t_horizon / steps; None when it gives neither."""
    if "dt" in integ:
        return integ["dt"]
    horizon = integ.get("t_horizon")
    return None if horizon is None else horizon / steps


def build_curve_spec(doc: dict, samples_override: int | None = None) -> CurveSpec:
    cur = doc["curve"]
    domain = tuple(
        _const_value(v, f"curve.domain[{i}]") for i, v in enumerate(cur["domain"])
    )
    try:
        spec = CurveSpec.from_strings(
            cur["components"],
            domain,
            cur.get("topology", "open"),
            samples_override or cur.get("samples", 256),
        )
        spec.validate()
    except ParseError as exc:
        raise ConfigError(f"bad expression: {exc}", field="curve.components") from exc
    except (ValueError, CurveFlowError) as exc:
        raise ConfigError(str(exc), field="curve") from exc
    try:  # the stack ``sample`` fills, untouched; numpy refuses what it cannot allocate
        np.empty((spec.dimension + 1, spec.dimension, spec.samples))
    except (MemoryError, ValueError) as exc:
        message = f"{spec.samples} samples cannot be allocated: {exc}"
        raise ConfigError(message, field="curve.samples") from exc
    return spec


def build_flow(doc: dict) -> FlowSpec:
    fl = doc["flow"]
    try:
        if fl["mode"] == "explicit":
            flow = FlowSpec.explicit(fl["speeds"])
        else:
            flow = FlowSpec.inextensible(fl["speeds"], f1_at_0=fl.get("f1_at_0", 0.0))
        flow.validate(doc["dimension"])
    except ParseError as exc:
        raise ConfigError(f"bad expression: {exc}", field="flow.speeds") from exc
    except ValueError as exc:
        raise ConfigError(str(exc), field="flow") from exc
    return flow


def execute(
    doc: dict,
    samples: int | None = None,
    dt: float | None = None,
    steps: int | None = None,
) -> tuple[Trajectory, list[VerificationReport]]:
    """Evolve a scenario (optionally at overridden resolution) and run its checks.

    The step is ``dt`` if given, else integrator.dt, else t_horizon / steps,
    else ``default_dt`` of the initial state."""
    spec = build_curve_spec(doc, samples)
    flow = build_flow(doc)
    integ = doc["integrator"]
    steps = steps or integ["steps"]
    curve = sample(spec)
    state0 = initial_state(curve, flow, integ.get("frame_vectors"))
    if dt is None:
        dt = _scenario_dt(integ, steps) or default_dt(state0)
    traj = evolve(state0, flow, dt, steps)
    tolerances = doc.get("tolerances", {})
    reports = [
        CHECKS[name](traj, tolerances.get(name)) for name in doc.get("checks", [])
    ]
    return traj, reports


# --------------------------------------------------------------------------
# Output files


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _fmt(x: float) -> str:
    return f"{x:.15g}"


def write_timeseries(traj: Trajectory, out_dir: Path) -> Path:
    lines = [TIMESERIES_HEADER]
    baseline = traj.states[0].curve.total_length
    drift = 0.0
    for step, st in enumerate(traj.states):
        c, fd = st.curve, st.frenet
        drift = max(drift, abs(c.total_length - baseline))
        max_k1 = float(np.max(np.abs(fd.curvatures[0]))) if fd.num_vectors >= 2 else 0.0
        lines.append(
            ",".join(
                [
                    str(step),
                    _fmt(st.t),
                    _fmt(c.total_length),
                    _fmt(drift),
                    _fmt(float(np.min(c.speeds))),
                    _fmt(float(np.max(c.speeds))),
                    _fmt(max_k1),
                ]
            )
        )
    path = out_dir / "timeseries.csv"
    _write_text(path, "\n".join(lines) + "\n")
    return path


def _curve_payload(curve: SampledCurve, fd: FrenetData) -> dict:
    """JSON keys of a curve and its frame, sample-first: points (N, n), frame (m, N, n)."""
    return {
        "points": curve.points.T.tolist(),
        "arclength": curve.s.tolist(),
        "speeds": curve.speeds.tolist(),
        "total_arclength": curve.total_length,
        "frame": np.swapaxes(fd.frame, 1, 2).tolist(),
        "signs": fd.signs.tolist(),
        "curvatures": fd.curvatures.tolist(),
    }


def write_frames(traj: Trajectory, steps: list[int], out_dir: Path) -> list[Path]:
    paths = []
    for step in steps:
        st = traj.states[step]  # the loader keeps every step within [0, steps]
        payload = {
            "step": step,
            "t": st.t,
            "speed_values": st.f_values.tolist(),
            **_curve_payload(st.curve, st.frenet),
        }
        path = out_dir / f"frames_{step}.json"
        _write_text(path, _json_text(payload))
        paths.append(path)
    return paths


def write_report(name: str, reports: list[VerificationReport], out_dir: Path) -> None:
    payload = {
        "scenario": name,
        "checks": [r.to_json_dict() for r in reports],
        "pass": all(r.passed for r in reports),
    }
    _write_text(out_dir / "report.json", _json_text(payload))


# --------------------------------------------------------------------------
# Subcommands


def _out_dir(args, doc: dict) -> Path:
    """``--out``, else the scenario's ``output.directory``, else the cwd."""
    return Path(args.out or doc.get("output", {}).get("directory", "."))


def cmd_run(args) -> int:
    doc = load_scenario(args.scenario)
    output = doc.get("output", {})
    out_dir = _out_dir(args, doc)
    formats = output.get("formats", ["csv", "json"])
    try:
        traj, reports = execute(doc)
    except EvolutionError as exc:
        if "csv" in formats and exc.trajectory is not None and exc.trajectory.states:
            write_timeseries(exc.trajectory, out_dir)
        raise

    if "csv" in formats:
        write_timeseries(traj, out_dir)
    frames_at = output.get("frames_at", [])
    if frames_at and "json" in formats:
        write_frames(traj, frames_at, out_dir)
    if reports:
        if "json" in formats:
            write_report(doc["name"], reports, out_dir)
        for r in reports:
            row = r.residuals[-1]
            worst = float(np.max([row[g] for g in r.gated], initial=0.0))  # NaN stays NaN
            print(f"{'PASS' if r.passed else 'FAIL'} {r.identity} (max residual {worst:.3e})")
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED


def cmd_convergence(args) -> int:
    if args.levels < 2:
        raise ConfigError("--levels must be >= 2")
    doc = load_scenario(args.scenario)
    if not doc.get("checks"):
        raise ConfigError("scenario requests no checks")
    out_dir = _out_dir(args, doc)
    base_steps = doc["integrator"]["steps"]
    base_dt = _scenario_dt(doc["integrator"], base_steps)
    if base_dt is None:
        raise ConfigError("convergence needs integrator.dt or t_horizon")
    base_n = build_curve_spec(doc).samples

    per_level = [
        execute(doc, samples=base_n * 2**l, dt=base_dt / 2**l, steps=base_steps * 2**l)[1]
        for l in range(args.levels)
    ]
    merged = [
        merge_reports([per_level[l][i] for l in range(args.levels)])
        for i in range(len(per_level[0]))
    ]
    lines = ["identity,residual,level,samples,dt,value,fitted_order"]
    for rep in merged:
        orders = rep.orders
        for name in sorted(rep.residuals[-1]):
            order = orders.get(name)
            order_text = "n/a" if order is None else _fmt(order)
            for l, ((n_s, dt_l), row) in enumerate(zip(rep.resolutions, rep.residuals)):
                lines.append(
                    ",".join(
                        [rep.identity, name, str(l), str(n_s), _fmt(dt_l), _fmt(row[name]), order_text]
                    )
                )
    _write_text(out_dir / "convergence.csv", "\n".join(lines) + "\n")
    write_report(doc["name"], merged, out_dir)
    for rep in merged:
        shown = {k: v for k, v in rep.orders.items() if k in rep.gated}
        print(f"{'PASS' if rep.passed else 'FAIL'} {rep.identity} orders="
              f"{ {k: ('n/a' if v is None else round(v, 2)) for k, v in shown.items()} }")
    return EXIT_OK if all(r.passed for r in merged) else EXIT_CHECK_FAILED


def cmd_frenet(args) -> int:
    doc = load_scenario(args.scenario)
    curve = sample(build_curve_spec(doc))
    fd = frenet_apparatus(curve, doc["integrator"].get("frame_vectors"))
    out_dir = _out_dir(args, doc)
    residuals = frenet_residuals(curve, fd)
    payload = {
        "scenario": doc["name"],
        "dimension": curve.n,
        "samples": curve.samples,
        "topology": "closed" if curve.closed else "open",
        "causal_character": curve.char.value,
        "quadrature": curve.quadrature,
        "completed_last": fd.completed_last,
        **_curve_payload(curve, fd),
        "stencil_curvatures": stencil_curvatures(curve, fd).tolist(),
        "frenet_residual_max": float(residuals.max()),
    }
    _write_text(out_dir / "frenet.json", _json_text(payload))
    print(f"frenet apparatus written for {doc['name']} "
          f"(signs {fd.signs.tolist()}, max residual {residuals.max():.3e})")
    return EXIT_OK


def cmd_list_catalog(_args) -> int:
    print("curves:")
    for name, info in sorted(catalog.CURVES.items()):
        comps = ", ".join(info["components"])
        print(f"  {name:16s} E_1^{len(info['components'])} {info['topology']:6s} "
              f"({comps}) on [{info['domain'][0]:.6g}, {info['domain'][1]:.6g}]  - {info['summary']}")
    print("flows:")
    for name, info in sorted(catalog.FLOWS.items()):
        print(f"  {name:20s} {info['mode']:12s} - {info['summary']}")
    print("bundled scenarios:")
    base = resources.files(__package__).joinpath("scenarios")
    for entry in sorted(p.name for p in base.iterdir() if p.name.endswith(".json")):
        print(f"  {entry}")
    print("identities:")
    for name in sorted(CHECKS):
        print(f"  {name}")
    return EXIT_OK


def bundled_scenario_path(name: str) -> Path:
    """Filesystem path of a bundled scenario (for tests and docs)."""
    return Path(str(resources.files(__package__).joinpath("scenarios", name)))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="curveflow",
        description="Simulate and verify frame-decomposed flows of non-null curves "
        "under an index-1 metric.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="evolve a scenario and run its checks")
    p_run.add_argument("scenario", help="scenario JSON file")
    p_run.add_argument("--out", help="output directory (default: scenario's or cwd)")
    p_run.set_defaults(func=cmd_run)

    p_conv = sub.add_parser("convergence", help="rerun at refined resolutions and fit orders")
    p_conv.add_argument("scenario")
    p_conv.add_argument("--levels", type=int, required=True, help="number of refinement levels (>= 2)")
    p_conv.add_argument("--out")
    p_conv.set_defaults(func=cmd_convergence)

    p_fre = sub.add_parser("frenet", help="dump the frame apparatus of the scenario's curve")
    p_fre.add_argument("scenario")
    p_fre.add_argument("--out")
    p_fre.set_defaults(func=cmd_frenet)

    p_list = sub.add_parser("list-catalog", help="list bundled curves, flows and scenarios")
    p_list.set_defaults(func=cmd_list_catalog)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CurveFlowError as exc:
        print(f"numerical breakdown: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
