"""Write the command-line outputs of every bundled scenario to one directory.

Usage: ``python tools/cli_outputs.py <out_dir>``

Runs ``curveflow.cli.main`` in-process for ``run`` and ``frenet`` on every
bundled scenario and for the two ``convergence`` ladders, each into its own
subdirectory ``<out_dir>/<command>/<scenario stem>/``, and ``list-catalog``
into ``<out_dir>/list-catalog/``.  Each failing command of ``ERRORS`` runs
on an edited copy of a bundled scenario into ``<out_dir>/errors/<case>/``,
and ``run`` and ``frenet`` run on the n = 4 copy ``V4_EDITS`` into
``<out_dir>/<command>/timelike_v4/`` and on the n = 5 copy ``W5_EDITS``
into ``<out_dir>/<command>/w5_v3/``.
Beside the files the command writes go its ``stdout.txt``, ``stderr.txt``
and ``exit_code.txt``, and beside each ``frenet.json``, which keeps only
their maximum, the per-sample ``frenet_residuals`` as exact text
(``frenet_residuals.txt``), so a change of their rounding shows.

The ``cli`` module promises byte-identical outputs across reruns, so two
runs of this script, or one on each side of a refactor, compare with
``diff -r``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from importlib import resources
from pathlib import Path

from ab_pairs import TIMELIKE_V4  # this script's directory is first on sys.path
from curveflow.cli import build_curve_spec, bundled_scenario_path, load_scenario, main
from curveflow.curvekit import sample
from curveflow.frenet import frenet_apparatus, frenet_residuals

LADDERS = (
    ("timelike_helix_convergence.json", 4),
    ("circle_inextensible_sine.json", 2),
)

# (case, command, bundled scenario, {key path: value set there}): scenarios
# the loader or the curve sampler rejects, each with its message on stderr.
# CI runs this script on the base tree too, so a case must exit through
# ``main`` there as well, not in a traceback.
ERRORS = (
    ("tolerance_number", "run", "circle_zero_flow.json",
     {("tolerances",): {"speed_evolution": {"x": 1e-3}}}),
    ("tolerance_keys", "run", "circle_zero_flow.json",
     {("tolerances",): {"iff_condition": {"drfit": 1.0}}}),
    ("frame_step_past_steps", "run", "circle_zero_flow.json", {("output",): {"frames_at": [0, 99]}}),
    ("null_curve", "frenet", "line_translate.json", {("curve", "components"): ["u", "u", "0"]}),
)

# The curve, flow and steps of ab_pairs' n = 4 flow put in the open helix's
# scenario, its frames dumped at the first and last step: four-component
# points and a (4, N, 4) frame whose last vector is timelike, which no
# bundled scenario writes.
V4_EDITS = {
    ("name",): "timelike_v4",
    ("curve",): TIMELIKE_V4["curve"],
    ("flow",): TIMELIKE_V4["flow"],
    ("integrator",): TIMELIKE_V4["integrator"],
    ("output",): {"frames_at": [0, TIMELIKE_V4["integrator"]["steps"]]},
}

# The closed W-curve in E1^5 (L = 2 sqrt(2) pi) under a periodic speed along
# V_3, its frames dumped at the first and last step: a frame whose timelike
# V_5 is completed from the metric cofactors, which no other case writes.
W5_EDITS = {
    ("name",): "w5_v3",
    ("curve",): {"components": ["0", "cos(u)", "sin(u)", "cos(2*u)/2", "sin(2*u)/2"],
                 "domain": [0, "2*pi"], "topology": "closed", "samples": 64},
    ("flow",): {"mode": "inextensible", "speeds": ["0", "0.05*sin(s/sqrt(2))", "0", "0"]},
    ("integrator",): {"dt": 1e-4, "steps": 10},
    ("output",): {"frames_at": [0, 10]},
}


def commands() -> list[tuple[str, str | None, list[str]]]:
    """(command, scenario file name or None, extra arguments) of every run."""
    base = resources.files("curveflow").joinpath("scenarios")
    names = sorted(p.name for p in base.iterdir() if p.name.endswith(".json"))
    runs = [("run", name, []) for name in names]
    runs += [("frenet", name, []) for name in names]
    runs += [("convergence", name, ["--levels", str(levels)]) for name, levels in LADDERS]
    runs.append(("list-catalog", None, []))
    return runs


def edited_scenario(name: str, edits: dict) -> dict:
    """The bundled scenario ``name`` with each value of ``edits`` set at its key path."""
    doc = json.loads(bundled_scenario_path(name).read_text(encoding="utf-8"))
    for keys, value in edits.items():
        target = doc
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
    return doc


def record(command: str, scenario: Path | None, extra: list[str], out_dir: Path) -> int:
    """Run one command into ``out_dir`` and store its stdout, stderr and exit
    code, and after a ``frenet`` that succeeds its residuals."""
    argv = [command]
    if scenario is not None:
        argv += [str(scenario), *extra, "--out", str(out_dir)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "stdout.txt").write_text(stdout.getvalue(), encoding="utf-8")
    (out_dir / "stderr.txt").write_text(stderr.getvalue(), encoding="utf-8")
    (out_dir / "exit_code.txt").write_text(f"{code}\n", encoding="utf-8")
    if command == "frenet" and code == 0:
        write_frenet_residuals(scenario, out_dir)
    return code


def write_frenet_residuals(scenario: Path, out_dir: Path) -> None:
    """The scenario's ``frenet_residuals`` as ``frenet`` forms them, one line
    per frame vector of ``float.hex`` samples."""
    doc = load_scenario(scenario)
    curve = sample(build_curve_spec(doc))
    residuals = frenet_residuals(curve, frenet_apparatus(curve))
    text = "".join(" ".join(float(x).hex() for x in row) + "\n" for row in residuals)
    (out_dir / "frenet_residuals.txt").write_text(text, encoding="utf-8")


def write_all(root: Path) -> None:
    for command, scenario, extra in commands():
        stem = Path(scenario).stem if scenario else ""
        path = bundled_scenario_path(scenario) if scenario else None
        code = record(command, path, extra, root / command / stem)
        print(command, scenario or "", *extra, f"exit {code}")
    with tempfile.TemporaryDirectory() as scratch:
        def edited(case: str, scenario: str, edits: dict) -> Path:
            path = Path(scratch) / f"{case}.json"
            path.write_text(json.dumps(edited_scenario(scenario, edits)), encoding="utf-8")
            return path

        for case, scenario, edits in (("timelike_v4", "timelike_helix_twist.json", V4_EDITS),
                                      ("w5_v3", "circle_inextensible_sine.json", W5_EDITS)):
            path = edited(case, scenario, edits)
            for command in ("run", "frenet"):
                code = record(command, path, [], root / command / case)
                print(command, case, f"exit {code}")
        for case, command, scenario, edits in ERRORS:
            code = record(command, edited(case, scenario, edits), [], root / "errors" / case)
            print("errors", case, command, f"exit {code}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tools/cli_outputs.py <out_dir>")
    write_all(Path(sys.argv[1]))
