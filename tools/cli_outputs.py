"""Write the command-line outputs of every bundled scenario to one directory.

Usage: ``python tools/cli_outputs.py <out_dir>``

Runs ``curveflow.cli.main`` in-process for ``run`` and ``frenet`` on every
bundled scenario and for the two ``convergence`` ladders, each into its own
subdirectory ``<out_dir>/<command>/<scenario stem>/``, and ``list-catalog``
into ``<out_dir>/list-catalog/``.  Each failing command of ``ERRORS`` runs
on an edited copy of a bundled scenario into ``<out_dir>/errors/<case>/``.
Beside the files the command writes go its ``stdout.txt``, ``stderr.txt``
and ``exit_code.txt``.

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

from curveflow.cli import bundled_scenario_path, main

LADDERS = (
    ("timelike_helix_convergence.json", 4),
    ("circle_inextensible_sine.json", 2),
)

# (case, command, bundled scenario, key path, value set there): scenarios the
# loader or the curve sampler rejects, each with its message on stderr.  CI
# runs this script on the base tree too, so a case must exit through ``main``
# there as well, not in a traceback.
ERRORS = (
    ("tolerance_number", "run", "circle_zero_flow.json", ("tolerances",),
     {"speed_evolution": {"x": 1e-3}}),
    ("tolerance_keys", "run", "circle_zero_flow.json", ("tolerances",),
     {"iff_condition": {"drfit": 1.0}}),
    ("horizon_overshoot", "run", "circle_zero_flow.json", ("integrator",),
     {"dt": 0.01, "steps": 8, "t_horizon": 0.016}),
    ("frame_step_past_steps", "run", "circle_zero_flow.json", ("output",), {"frames_at": [0, 99]}),
    ("null_curve", "frenet", "line_translate.json", ("curve", "components"), ["u", "u", "0"]),
)


def commands() -> list[tuple[str, str | None, list[str]]]:
    """(command, scenario file name or None, extra arguments) of every run."""
    base = resources.files("curveflow").joinpath("scenarios")
    names = sorted(p.name for p in base.iterdir() if p.name.endswith(".json"))
    runs = [("run", name, []) for name in names]
    runs += [("frenet", name, []) for name in names]
    runs += [("convergence", name, ["--levels", str(levels)]) for name, levels in LADDERS]
    runs.append(("list-catalog", None, []))
    return runs


def edited_scenario(name: str, keys: tuple[str, ...], value) -> dict:
    """The bundled scenario ``name`` with ``value`` set at the key path ``keys``."""
    doc = json.loads(bundled_scenario_path(name).read_text(encoding="utf-8"))
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    return doc


def record(command: str, scenario: Path | None, extra: list[str], out_dir: Path) -> int:
    """Run one command into ``out_dir`` and store its stdout, stderr and exit code."""
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
    return code


def write_all(root: Path) -> None:
    for command, scenario, extra in commands():
        stem = Path(scenario).stem if scenario else ""
        path = bundled_scenario_path(scenario) if scenario else None
        code = record(command, path, extra, root / command / stem)
        print(command, scenario or "", *extra, f"exit {code}")
    with tempfile.TemporaryDirectory() as scratch:
        for case, command, scenario, keys, value in ERRORS:
            path = Path(scratch) / f"{case}.json"
            path.write_text(json.dumps(edited_scenario(scenario, keys, value)), encoding="utf-8")
            code = record(command, path, [], root / "errors" / case)
            print("errors", case, command, f"exit {code}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tools/cli_outputs.py <out_dir>")
    write_all(Path(sys.argv[1]))
