"""Scenario-driven command line front end.

Subcommands:

* ``run``          evolve a scenario, emit timeseries.csv (the accepted
                   steps also when evolution breaks down), the frame dumps
                   of ``output.frames_at``, and report.json for the
                   requested checks.
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

``run`` and ``convergence`` stream: ``execute`` hands every state that
``evolve`` accepts to the timeseries as it arrives, and each block of
states to the requested checks through ``verify.CHECKS`` (``Run``), so
they hold a window of states, the ``frames_at`` states and the six
timeseries numbers of each step, never the trajectory.  ``evolve`` called
on its own still returns every state.

A scenario states each fact once: its dimension n is the number of curve
components, and ``integrator.dt``, which every scenario sets, is its step.
"""

from __future__ import annotations

import argparse
from array import array
import functools
import json
import math
import os
import sys
from importlib import resources
from pathlib import Path

from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for
import numpy as np

from . import catalog
from .curvekit import CurveSpec, SampledCurve, seam_mismatch
from .errors import ConfigError, CurveFlowError, EvolutionError, ParseError
from .exprjet import eval_scalar, parse, variables
from .flowsim import FlowSpec, SimState, Trajectory, evolve, initial_state, k1_terms
from .frenet import FrenetData, frenet_apparatus, frenet_residuals, stencil_curvatures
from .verify import ACCUMULATORS, BLOCK_STATES, CHECKS, VerificationReport, _tol, merge_reports

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

TIMESERIES_HEADER = "step,t,total_arclength,arclength_drift,min_v,max_v,max_k1"
DEFAULT_SAMPLES = 256  # curve.samples when a scenario leaves it out


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


def _dimension(doc: dict) -> int:
    """n of a scenario's E_1^n: the number of its curve components."""
    return len(doc["curve"]["components"])


def _cross_validate(doc: dict) -> None:
    n = _dimension(doc)
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
    steps = doc["integrator"]["steps"]
    for step in doc.get("output", {}).get("frames_at", []):
        if step > steps:
            raise ConfigError(f"frame step {step} outside [0, {steps}]", field="output.frames_at")


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
            samples_override or cur.get("samples", DEFAULT_SAMPLES),
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
            flow = FlowSpec.inextensible(fl["speeds"])
        flow.validate(_dimension(doc))
    except ParseError as exc:
        raise ConfigError(f"bad expression: {exc}", field="flow.speeds") from exc
    except ValueError as exc:
        raise ConfigError(str(exc), field="flow") from exc
    return flow


def _check_seam(flow: FlowSpec, curve: SampledCurve) -> None:
    """Each given speed closes up on a closed curve at t = 0, to the s-derivatives the checks read."""
    ends = (0.0, curve.total_length)
    for i, expr in enumerate(flow.speeds if curve.closed else ()):
        if mismatch := expr is not None and seam_mismatch(expr, "s", ends, 2 if i == 1 else 1, {"t": 0.0}):
            order, a, b = mismatch
            raise ConfigError(
                f"speed f{i + 1} does not close up on the closed curve: its s-derivative "
                f"of order {order} is {a!r} at s = 0 and {b!r} at s = L = {curve.total_length!r}",
                field="flow.speeds",
            )


class Run:
    """What ``execute`` keeps of an evolution, which ``evolve`` hands each
    accepted state as it comes (its ``into``): the state gives the six
    numbers of its ``timeseries.csv`` row (``series``, ``steps`` rows), and
    only the states of ``output.frames_at`` stay (``states``, by step in
    ``frames``).  Every BLOCK_STATES states go to each requested check
    (``checks``, in the scenario's order) through ``CHECKS``, and ``feed``
    with ``end`` gives the rest and returns the reports.  So a run holds the
    states the checks' window still needs, not its trajectory."""

    def __init__(self, doc: dict, flow: FlowSpec):
        self.dt, self.flow, tolerances = doc["integrator"]["dt"], flow, doc.get("tolerances", {})
        self.checks = [(name, ACCUMULATORS[name](self.dt, flow, tolerances.get(name))) for name in doc.get("checks", [])]
        self.frames_at = doc.get("output", {}).get("frames_at", [])
        self.frames: dict[int, SimState] = {}
        self.series, self.steps, self.drift, self.block = array("d"), 0, 0.0, []

    @property
    def states(self) -> list[SimState]:
        """The states kept, those of ``output.frames_at``."""
        return list(self.frames.values())

    def add(self, state: SimState) -> None:
        step, c, k1 = self.steps, state.curve, k1_terms(state.frenet)[1]
        if not step:
            self.baseline = c.total_length
        if step in self.frames_at:
            self.frames[step] = state
        self.drift = max(self.drift, abs(c.total_length - self.baseline))
        max_k1 = 0.0 if k1 is None else float(np.max(np.abs(k1)))
        self.series.extend((state.t, c.total_length, self.drift, float(np.min(c.speeds)), float(np.max(c.speeds)), max_k1))
        self.steps += 1
        self.block.append(state)
        if len(self.block) == BLOCK_STATES:
            self.feed()

    def feed(self, end: bool = False) -> list:
        """Hands the states since the last call to every check; at the
        ``end``, their reports, or the first check's error in the
        scenario's order."""
        block = Trajectory(self.block, self.dt, self.flow)
        self.block = []
        return [CHECKS[name](block, into=check, end=end) for name, check in self.checks]


def execute(doc: dict) -> tuple[Run, list[VerificationReport]]:
    """Evolve a scenario at its curve.samples by its integrator.dt and
    steps, and run its checks on each block of states as it is accepted
    (``Run``).  Evolution errors come first, then the checks' in the
    scenario's order."""
    spec = build_curve_spec(doc)
    flow = build_flow(doc)
    integ = doc["integrator"]
    curve = SampledCurve.from_spec(spec)  # ``build_curve_spec`` validated it
    _check_seam(flow, curve)
    with np.errstate(over="ignore", invalid="ignore"):  # once, not per stage; errors name non-finite values
        run = evolve(initial_state(curve, flow), flow, integ["dt"], integ["steps"], into=Run(doc, flow))
        reports = run.feed(end=True)
    return run, reports


# --------------------------------------------------------------------------
# Output files


def _write_text(path: Path, text: str) -> None:
    """Write ``text`` to a new file beside ``path`` and rename it there.  The
    file is made by a plain ``open``, so it gets 0o666 less the umask; a path
    that cannot be written is a ConfigError."""
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "x", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _json_text(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` and a newline, where
    ``obj`` may hold ndarrays (written as their ``tolist()``) and its dict
    keys are strings.  ``indent`` keeps json off its C encoder, one Python
    call per float; a finite float64 array is written from one
    ``repr(a.tolist())`` instead, reshaped by ``str.replace``: both print
    floats with ``float.__repr__``, and no float text holds ``[``, ``]``
    or ``", "``.  Everything else goes through ``json.dumps``."""
    return _json_value(obj, "\n") + "\n"


def _json_value(obj, pad: str) -> str:
    """JSON text of ``obj`` at the indent whose newline is ``pad``."""
    if isinstance(obj, np.ndarray):
        if obj.dtype == np.float64 and obj.ndim and obj.size and np.isfinite(obj).all():
            return _float_array_text(obj, pad)
        obj = obj.tolist()
    try:  # no ndarray inside: json's own text, each line moved to this indent
        return json.dumps(obj, indent=2, sort_keys=True).replace("\n", pad)
    except TypeError:  # json cannot write an ndarray: each item on its own
        if not isinstance(obj, (dict, list, tuple)):
            raise
    inner = pad + "  "
    if isinstance(obj, dict):
        items = sorted(obj.items())
        return "{" + ",".join(f"{inner}{json.dumps(k)}: {_json_value(v, inner)}" for k, v in items) + pad + "}"
    return "[" + ",".join(inner + _json_value(v, inner) for v in obj) + pad + "]"


def _float_array_text(a: np.ndarray, pad: str) -> str:
    """``json.dumps`` layout of a non-empty float64 array's nested lists.
    Between two items of the list at depth d - m, ``repr`` writes m closing
    brackets, ``", "`` and m opening ones; json puts each bracket on its own
    line."""
    d = a.ndim
    line = [pad + "  " * j for j in range(d + 1)]  # line[j]: the indent of depth j + 1's items
    closes, opens = [""], [""]  # closes[m], opens[m]: the runs of m brackets
    for m in range(1, d + 1):
        closes.append(closes[-1] + line[d - m] + "]")
        opens.append(line[d - m] + "[" + opens[-1])
    text = repr(a.tolist())[d:-d]
    for m in range(d - 1, -1, -1):  # longest runs first, so no shorter one matches inside one
        text = text.replace("]" * m + ", " + "[" * m, closes[m] + "," + opens[m] + line[d])
    return "[" + opens[d - 1] + line[d] + text + closes[d]


def _fmt(x: float) -> str:
    return f"{x:.15g}"


def write_timeseries(run: Run, out_dir: Path) -> Path:
    values = run.series
    rows = [",".join([str(step), *map(_fmt, values[6 * step : 6 * step + 6])]) for step in range(run.steps)]
    path = out_dir / "timeseries.csv"
    _write_text(path, "\n".join([TIMESERIES_HEADER, *rows]) + "\n")
    return path


def _curve_payload(curve: SampledCurve, fd: FrenetData) -> dict:
    """JSON keys of a curve and its frame, sample-first: points (N, n), frame (m, N, n)."""
    return {
        "points": curve.points.T,
        "arclength": curve.s,
        "speeds": curve.speeds,
        "total_arclength": curve.total_length,
        "frame": np.swapaxes(fd.frame, 1, 2),
        "signs": fd.signs,
        "curvatures": fd.curvatures,
    }


def write_frames(run: Run, out_dir: Path) -> list[Path]:
    paths = []
    for step in run.frames_at:
        st = run.frames[step]  # the loader keeps every step within [0, steps]
        payload = {
            "step": step,
            "t": st.t,
            "speed_values": st.f_values,
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


def cmd_run(args) -> int:
    doc = load_scenario(args.scenario)
    try:
        run, reports = execute(doc)
    except EvolutionError as exc:  # its trajectory is the Run, with the accepted steps' rows
        if exc.trajectory.steps:
            write_timeseries(exc.trajectory, args.out)
        raise

    write_timeseries(run, args.out)
    write_frames(run, args.out)
    if reports:
        write_report(doc["name"], reports, args.out)
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
    curve, integ = doc["curve"], doc["integrator"]
    base_n = curve.get("samples", DEFAULT_SAMPLES)

    per_level = []
    for l in range(args.levels):  # level l: 2**l times the samples and steps, dt / 2**l
        level = {"curve": {**curve, "samples": base_n * 2**l},
                 "integrator": {**integ, "dt": integ["dt"] / 2**l, "steps": integ["steps"] * 2**l}}
        per_level.append(execute({**doc, **level})[1])
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
    _write_text(args.out / "convergence.csv", "\n".join(lines) + "\n")
    write_report(doc["name"], merged, args.out)
    for rep in merged:
        shown = {k: v for k, v in rep.orders.items() if k in rep.gated}
        print(f"{'PASS' if rep.passed else 'FAIL'} {rep.identity} orders="
              f"{ {k: ('n/a' if v is None else round(v, 2)) for k, v in shown.items()} }")
    return EXIT_OK if all(r.passed for r in merged) else EXIT_CHECK_FAILED


def cmd_frenet(args) -> int:
    doc = load_scenario(args.scenario)
    curve = SampledCurve.from_spec(build_curve_spec(doc))
    fd = frenet_apparatus(curve)
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
        "stencil_curvatures": stencil_curvatures(curve, fd),
        "frenet_residual_max": float(residuals.max()),
    }
    _write_text(args.out / "frenet.json", _json_text(payload))
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
    p_run.add_argument("--out", type=Path, default=Path("."), help="output directory (default: cwd)")
    p_run.set_defaults(func=cmd_run)

    p_conv = sub.add_parser("convergence", help="rerun at refined resolutions and fit orders")
    p_conv.add_argument("scenario")
    p_conv.add_argument("--levels", type=int, required=True, help="number of refinement levels (>= 2)")
    p_conv.add_argument("--out", type=Path, default=Path("."))
    p_conv.set_defaults(func=cmd_convergence)

    p_fre = sub.add_parser("frenet", help="dump the frame apparatus of the scenario's curve")
    p_fre.add_argument("scenario")
    p_fre.add_argument("--out", type=Path, default=Path("."))
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
