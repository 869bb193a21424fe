"""The four benchmark workloads and the correctness gate on their outputs.

Each workload has ``setup`` (inputs; timed as set-up), ``op`` (one timed
operation) and ``outcomes`` (what the operation produced, as flat
name -> value records keyed by the exact inputs that produced them).
``gate`` compares outcomes with the records in ``expected.json``; inputs
that were never recorded (another seed, a reduced size) get the generic
gate instead: every pass flag true, every exit code 0, drift within
``DRIFT_TOL``.

The package is driven only through its public calls: ``cli.build_curve_spec``,
``cli.build_flow``, ``sample``, ``initial_state``, ``evolve``,
``arclength_drift``, ``run_check`` and ``cli.main``.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import hashlib
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import curveflow

# The iff_condition check's arclength-drift tolerance.
DRIFT_TOL = 1e-3

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

SCENARIOS = Path(curveflow.__file__).parent / "scenarios"
EXPECTED_PATH = Path(__file__).with_name("expected.json")


def phase(seed: int) -> float:
    """Phase of the normal speed sin(s + phase) in the circle workloads.

    Seed 0 gives phase 0, the bundled circle_inextensible_sine flow."""
    return 2.0 * math.pi * ((seed * GOLDEN) % 1.0)


def load_doc(name: str) -> dict:
    return json.loads((SCENARIOS / name).read_text(encoding="utf-8"))


def scenario_inputs(doc: dict, samples: int | None = None, normal: str | None = None):
    """(initial state, flow) of a scenario document, built as ``cli.execute``
    builds them; ``normal`` replaces the first higher speed."""
    from curveflow import cli

    if normal is not None:
        doc = copy.deepcopy(doc)
        doc["flow"]["speeds"][0] = normal
    flow = cli.build_flow(doc)
    curve = curveflow.sample(cli.build_curve_spec(doc, samples))
    return curveflow.initial_state(curve, flow, doc["integrator"].get("frame_vectors")), flow


def circle_inputs(samples: int, phi: float):
    normal = "sin(s)" if phi == 0.0 else f"sin(s + {phi!r})"
    return scenario_inputs(load_doc("circle_inextensible_sine.json"), samples, normal)


def _nudge(dt: float, ulps: int) -> float:
    """dt moved by ``ulps`` units in the last place (record.py's rounding
    probe; 0 leaves dt unchanged)."""
    for _ in range(abs(ulps)):
        dt = math.nextafter(dt, math.inf if ulps > 0 else -math.inf)
    return dt


def _trajectory_outcome(traj) -> dict:
    return {
        "states": len(traj.states),
        "final_arclength": float(traj.states[-1].curve.total_length),
        "drift": curveflow.arclength_drift(traj),
    }


def _report_outcome(report) -> dict:
    out = {f"{report.identity}.pass": bool(report.passed)}
    for name, value in report.residuals[0].items():
        out[f"{report.identity}.{name}"] = float(value)
    return out


# --------------------------------------------------------------------------
# Workloads
#
# ``op(timed)`` runs one operation, passing each piece of its work through
# ``timed(fn, *args)``, which calls ``fn(*args)``: the runner's ``timed``
# also times the piece (``run.Runner``).


def _untimed(fn, *args):
    return fn(*args)


class EvolveWorkload:
    """One RK4 ``evolve`` call over the whole horizon per operation."""

    min_ops = 3
    calibrated = True  # see run.Runner

    def __init__(self, name, seed, samples, dt, steps, ulps=0):
        self.name = name
        self.phi = phase(seed)
        self.samples = samples
        self.dt = _nudge(dt, ulps)
        self.steps = steps
        self.key = f"evolve circle N={samples} dt={dt!r} steps={steps} phi={self.phi!r}"

    def setup(self) -> None:
        self.state, self.flow = circle_inputs(self.samples, self.phi)

    def op(self, timed=_untimed):
        return timed(curveflow.evolve, self.state, self.flow, self.dt, self.steps)

    def outcomes(self, traj) -> dict:
        return {self.key: _trajectory_outcome(traj)}

    def rates(self, op_s: float) -> dict:
        return {"steps_per_s": self.steps / op_s}


class VerifyWorkload:
    """The five checks, replayed on trajectories built during set-up."""

    min_ops = 3
    calibrated = True

    # Open and timelike, so the sign-carrying and interior-margin branches
    # of the checks run; the seed does not change it.
    HELIX = "timelike_helix_twist.json"

    def __init__(self, name, seed, circle, ulps=0):
        self.name = name
        self.phi = phase(seed)
        self.circle = circle
        self.ulps = ulps
        n, dt, steps = circle["samples"], circle["dt"], circle["steps"]
        self.keys = (
            f"verify circle N={n} dt={dt!r} steps={steps} phi={self.phi!r}",
            f"verify {self.HELIX}",
        )

    def setup(self) -> None:
        c = self.circle
        state, flow = circle_inputs(c["samples"], self.phi)
        circle_traj = curveflow.evolve(state, flow, _nudge(c["dt"], self.ulps), c["steps"])
        doc = load_doc(self.HELIX)
        state, flow = scenario_inputs(doc)
        integ = doc["integrator"]
        helix_traj = curveflow.evolve(state, flow, _nudge(integ["dt"], self.ulps), integ["steps"])
        tol = doc.get("tolerances", {})
        self.cases = ((circle_traj, {}), (helix_traj, tol))

    def op(self, timed=_untimed):
        return timed(self._checks)

    def _checks(self):
        return [
            [curveflow.run_check(name, traj, tol.get(name)) for name in curveflow.CHECKS]
            for traj, tol in self.cases
        ]

    def outcomes(self, per_traj) -> dict:
        out = {}
        for key, reports, (traj, _) in zip(self.keys, per_traj, self.cases):
            values = _trajectory_outcome(traj)
            for rep in reports:
                values.update(_report_outcome(rep))
            out[key] = values
        return out

    def rates(self, op_s: float) -> dict:
        states = sum(len(traj.states) for traj, _ in self.cases)
        return {"verify_states_per_s": states / op_s}


class SuiteWorkload:
    """``curveflow run`` on every bundled scenario, then the convergence
    ladders, in-process through ``cli.main``.  The inputs are the bundled
    scenario files as they are, whatever the seed."""

    min_ops = 2  # consecutive passes must write identical bytes
    # Not calibrated: a pass spends 7 of its 12 CPU seconds in one command,
    # and a kernel time on either side of it does not tell the speed that
    # command ran at.  In five runs, op_s scaled command by command spread
    # 0.14 (IQR/median) against 0.05 unscaled, as its CPU time held steady
    # while kernel times next to it jumped between 7 and 10.5 ms.
    calibrated = False

    def __init__(self, name, seed, workdir, runs, convergences, ulps=0):
        self.name = name
        self.workdir = Path(workdir)
        self.runs = runs
        self.convergences = convergences
        self.ulps = ulps
        self._passes = 0
        self._last_hashes = None

    def _scenario(self, name: str) -> Path:
        if not self.ulps:
            return SCENARIOS / name
        doc = load_doc(name)
        doc["integrator"]["dt"] = _nudge(doc["integrator"]["dt"], self.ulps)
        path = self.workdir / "scenarios" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    def _commands(self):
        for name in self.runs:
            yield f"run {name}", ["run", str(self._scenario(name))]
        for name, levels in self.convergences:
            yield (
                f"convergence {name} levels={levels}",
                ["convergence", str(self._scenario(name)), "--levels", str(levels)],
            )

    def setup(self) -> None:
        from curveflow import cli

        out = Path(tempfile.mkdtemp(prefix="setup-", dir=self.workdir))
        for name in sorted(set(self.runs) | {n for n, _ in self.convergences}):
            rc = _quiet(cli.main, ["frenet", str(self._scenario(name)), "--out", str(out / name)])
            if rc != 0:
                raise RuntimeError(f"frenet {name} exited {rc}")
        shutil.rmtree(out)

    def op(self, timed=_untimed):
        from curveflow import cli

        self._passes += 1
        pass_dir = self.workdir / f"pass{self._passes}"
        codes = {}
        for i, (label, argv) in enumerate(self._commands()):
            out = pass_dir / f"{i:02d}"
            codes[label] = (out, timed(_quiet, cli.main, argv + ["--out", str(out)]))
        return pass_dir, codes

    def outcomes(self, result) -> dict:
        _, codes = result
        out = {}
        for label, (out_dir, rc) in codes.items():
            values = {"exit": rc}
            report = out_dir / "report.json"
            if report.exists():
                doc = json.loads(report.read_text(encoding="utf-8"))
                values["pass"] = doc["pass"]
                for chk in doc["checks"]:
                    values[f"{chk['identity']}.pass"] = chk["pass"]
                    multi = len(chk["residuals"]) > 1
                    for level, row in enumerate(chk["residuals"]):
                        for name, value in row.items():
                            suffix = f".L{level}" if multi else ""
                            values[f"{chk['identity']}.{name}{suffix}"] = float(value)
                    for name, order in chk["order"].items():
                        if multi:
                            values[f"{chk['identity']}.{name}.order"] = order
            series = out_dir / "timeseries.csv"
            if series.exists():
                with series.open(newline="", encoding="utf-8") as handle:
                    last = list(csv.DictReader(handle))[-1]
                values["final_arclength"] = float(last["total_arclength"])
                values["drift"] = float(last["arclength_drift"])
            out[f"suite {label}"] = values
        return out

    def rates(self, op_s: float) -> dict:
        return {"suite_s": op_s}

    def after_check(self, result) -> list[str]:
        """Compare this pass's output bytes with the previous pass's, then
        drop the previous pass's files."""
        pass_dir, _ = result
        hashes = {
            str(p.relative_to(pass_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(pass_dir.rglob("*"))
            if p.is_file()
        }
        problems = []
        if self._last_hashes is not None:
            if hashes != self._last_hashes:
                differ = sorted(
                    k for k in set(hashes) | set(self._last_hashes)
                    if hashes.get(k) != self._last_hashes.get(k)
                )
                problems.append(f"outputs differ from the previous pass: {differ}")
            shutil.rmtree(self.workdir / f"pass{self._passes - 1}", ignore_errors=True)
        self._last_hashes = hashes
        return problems


def _quiet(fn, argv) -> int:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return fn(argv)


ALL_RUNS = tuple(sorted(p.name for p in SCENARIOS.glob("*.json")))

FULL = {
    # Fixed per-stage rebuild cost dominates at small N.
    "evolve_small": {"samples": 256, "dt": 1e-3, "steps": 250},
    # Array passes, copies and the kept SimStates dominate at large N.
    "evolve_large": {"samples": 4096, "dt": 1e-3, "steps": 120},
    "verify_replay": {"circle": {"samples": 256, "dt": 1e-3, "steps": 250}},
    "scenario_suite": {
        "runs": ALL_RUNS,
        "convergences": (
            ("timelike_helix_convergence.json", 4),
            ("circle_inextensible_sine.json", 2),
        ),
    },
}

# Reduced sizes for the benchmark's own tests.
TINY = {
    "evolve_small": {"samples": 128, "dt": 1e-3, "steps": 4},
    "evolve_large": {"samples": 256, "dt": 1e-3, "steps": 3},
    "verify_replay": {"circle": {"samples": 128, "dt": 1e-3, "steps": 6}},
    "scenario_suite": {
        "runs": ("circle_zero_flow.json", "timelike_helix_convergence.json"),
        "convergences": (("timelike_helix_convergence.json", 2),),
    },
}

NAMES = tuple(FULL)


def make(name: str, seed: int, workdir: Path, sizes: dict = FULL, ulps: int = 0):
    params = sizes[name]
    if name in ("evolve_small", "evolve_large"):
        return EvolveWorkload(name, seed, ulps=ulps, **params)
    if name == "verify_replay":
        return VerifyWorkload(name, seed, ulps=ulps, **params)
    if name == "scenario_suite":
        return SuiteWorkload(name, seed, workdir, ulps=ulps, **params)
    raise KeyError(name)


# --------------------------------------------------------------------------
# Correctness gate


def load_expected() -> dict:
    if not EXPECTED_PATH.exists():
        return {}
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def gate(outcomes: dict, expected: dict) -> list[str]:
    """Problems with one operation's outcomes; empty when it is correct."""
    problems = []
    for key, values in outcomes.items():
        for name, v in values.items():
            if _is_number(v) and not math.isfinite(v):
                problems.append(f"{key}: {name} is not finite ({v!r})")
        record = expected.get(key)
        if record is None:
            problems += _generic_gate(key, values)
            continue
        want, tol = record["values"], record["tol"]
        if set(values) != set(want):
            problems.append(f"{key}: outcome names differ from the record "
                            f"{sorted(set(values) ^ set(want))}")
        for name in sorted(set(values) & set(want)):
            v, w = values[name], want[name]
            if isinstance(w, float) and _is_number(v):
                if not abs(v - w) <= tol[name]:
                    problems.append(f"{key}: {name} = {v!r}, recorded {w!r} ± {tol[name]:.3g}")
            elif v != w or type(v) is not type(w):
                problems.append(f"{key}: {name} = {v!r}, recorded {w!r}")
    return problems


def _generic_gate(key: str, values: dict) -> list[str]:
    problems = []
    for name, v in values.items():
        if name.endswith("pass") and v is not True:
            problems.append(f"{key}: {name} is {v!r}")
        elif name == "exit" and v != 0:
            problems.append(f"{key}: exit code {v}")
        elif name.endswith("drift") and not v <= DRIFT_TOL:
            problems.append(f"{key}: {name} = {v!r} exceeds {DRIFT_TOL}")
    return problems
