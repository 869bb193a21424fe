"""Time two source trees of curveflow against each other in one process.

Usage::

    python tools/ab_pairs.py BASE_SRC CHANGE_SRC [--op verify|evolve|run]
        [--pairs 20] [--samples 256] [--steps 250]

``BASE_SRC`` and ``CHANGE_SRC`` are directories that hold a ``curveflow``
package (the ``src`` directory of a checkout).  Each tree is imported under
its own package name, so both live in this one interpreter, and their
operations alternate: pair i runs base then change when i is even, change
then base when it is odd.  Machine speed drifts over seconds to minutes,
so timing the two trees in separate processes minutes apart can mislead;
alternating them in one process exposes both to the same drift.

Operations, timed in CPU seconds of this process:

* ``verify``: the five checks (``run_check`` for every ``CHECKS`` name) on
  a closed circle trajectory under ``sin(s)`` at ``--samples`` points over
  ``--steps`` steps of 1e-3, and on the bundled ``timelike_helix_twist``
  scenario, as perfbench's ``verify_replay`` does; then on an n = 4 curve
  with a timelike V4 under f2, f3 and f4 (``TIMELIKE_V4``), whose k3
  readings and several-j frame readings no bundled scenario forms; and on
  the circle's first states with frame flips planted (``with_flips``), so
  the checks' flip alignment runs too, up to a zero product that clears a
  flip.  Each tree checks the trajectories its own ``evolve`` built, with
  the same flips planted.
* ``evolve``: one ``evolve`` call of that circle flow.  The comparison
  also covers the ``TIMELIKE_V4`` trajectory, evolved once per tree before
  timing: a non-planar frame, not completed, with a timelike last vector.
* ``run``: ``cli.execute`` on every bundled scenario of the tree, each
  read once before timing: the in-process path of perfbench's
  ``scenario_suite`` without its output files and convergence ladders.
  ``--samples`` and ``--steps`` do not apply.

Each tree reads its scenarios with its own ``cli.load_scenario``.  A tree
whose ``cli`` still finds its bundled files through the name ``curveflow``
needs that name importable (``PYTHONPATH=src``).

It prints the median of each side, the median pairwise change, the pairs
the change won, each side's median minor page faults per operation, and
whether the two trees' results were equal: every report's JSON text for
``verify`` and ``run`` (``report_text``: keys in the report's own order, so
a change that only reorders residuals is a change), and for ``evolve`` and
``run`` the bytes of every array each kept state holds (``state_bytes``).
For ``verify`` it also prints one line per ``CHECKS`` name with each side's
median CPU seconds of that check over both trajectories.  For ``evolve`` it
prints the MiB of the distinct arrays each side's trajectory keeps, the
figure perfbench reports as ``flowsim.trajectory_mb``.  Beside the times it
prints each side's Python-level and C-level calls made by the tree's own
code, counted after warm-up by ``tests/callcount.py``'s ``package_calls``,
the count the tests' call budgets pin: per check over one ``verify``
operation, and for ``evolve`` per RK stage rebuild (``_build_state`` of
``SampledCurve.from_points``) of the circle's initial state.  Counts are
deterministic, so they show a change of a few calls that the times cannot
resolve.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tests")]
from callcount import package_calls  # the count the tests' call budgets pin
from tracing import trajectory_bytes  # the count behind perfbench's flowsim.trajectory_mb

CIRCLE = "circle_inextensible_sine.json"
HELIX = "timelike_helix_twist.json"
# tests/test_verify.py's timelike-V4 curve (signs +, +, +, -) under its f2, f3, f4 flow
TIMELIKE_V4 = {
    "curve": {"components": ["cosh(u)", "sinh(u)", "cos(2*u)", "sin(2*u)"], "domain": [0, 2], "samples": 64},
    "flow": {"mode": "inextensible", "speeds": ["0.1*sin(s)", "0.05*cos(s)", "0.05"]},
    "integrator": {"dt": 1e-3, "steps": 10},
}


def load_tree(src: Path, alias: str):
    """The ``curveflow`` package under ``src``, imported as ``alias``."""
    package = src / "curveflow"
    spec = importlib.util.spec_from_file_location(
        alias, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    importlib.import_module(f"{alias}.cli")
    return module


def scenario_inputs(cf, src: Path, name: str, samples: int | None = None):
    """(initial state, flow, integrator, doc) of a bundled scenario, built as
    ``cli.execute`` builds them; the file is read from ``src``."""
    return doc_inputs(cf, cf.cli.load_scenario(src / "curveflow" / "scenarios" / name), samples)


def doc_inputs(cf, doc: dict, samples: int | None = None):
    """(initial state, flow, integrator, doc) of a scenario document."""
    flow = cf.cli.build_flow(doc)
    curve = cf.sample(cf.cli.build_curve_spec(doc, samples))
    integ = doc["integrator"]
    return cf.initial_state(curve, flow), flow, integ, doc


def evolve_doc(cf, inputs):
    """The trajectory of ``doc_inputs`` or ``scenario_inputs``, over its integrator's steps."""
    state, flow, integ, _ = inputs
    return cf.evolve(state, flow, integ["dt"], integ["steps"])


def with_flips(traj, states: int = 20):
    """The first ``states`` states of traj, with frame vectors planted as
    ``tests/test_verify.py`` plants them: V_2 negated over an eighth of the
    samples in state 5, and the last vector negated over three samples in
    every state from 9 on, so a block of states is entered flipped while its
    own products show no flip, then zeroed there in state 13, whose zero
    products clear the flip the chain carries."""
    kept = list(traj.states[:states])
    m, N = kept[0].frenet.num_vectors, kept[0].curve.samples
    last = (m - 1, slice(N // 2, N // 2 + 3))
    plants = [(5, (1, slice(N // 8, N // 4)), -1.0)] + [(step, last, -1.0) for step in range(9, len(kept))]
    for step, (i, samples), factor in plants + [(13, last, 0.0)]:
        st = kept[step]
        frame = st.frenet.frame.copy()
        frame[i, :, samples] *= factor
        kept[step] = dataclasses.replace(st, frenet=dataclasses.replace(st.frenet, frame=frame))
    return dataclasses.replace(traj, states=kept)


class Side:
    """One tree: its inputs, built once, and its timed operation."""

    def __init__(self, src: Path, alias: str, op: str, samples: int, steps: int):
        self.cf = cf = load_tree(src, alias)
        self.op = op
        if op == "run":
            paths = sorted((src / "curveflow" / "scenarios").glob("*.json"))
            self.docs = [cf.cli.load_scenario(path) for path in paths]
            self.run = self.scenarios
            return
        state, flow, _, _ = scenario_inputs(cf, src, CIRCLE, samples)
        self.circle = (state, flow, 1e-3, steps)
        if op == "evolve":
            self.v4_bytes = [state_bytes(st) for st in evolve_doc(cf, doc_inputs(cf, TIMELIKE_V4)).states]
            self.run = self.evolve
            return
        circle = cf.evolve(*self.circle)
        cases = [(circle, {})]
        for inputs in (scenario_inputs(cf, src, HELIX), doc_inputs(cf, TIMELIKE_V4)):
            cases.append((evolve_doc(cf, inputs), inputs[3].get("tolerances", {})))
        cases.append((with_flips(circle), {}))
        self.cases = cases
        self.run = self.verify

    def verify(self):
        reports = []
        self.check_seconds = dict.fromkeys(self.cf.CHECKS, 0.0)  # this operation's, per check
        for traj, tol in self.cases:
            for name in self.cf.CHECKS:
                start = time.process_time()
                reports.append(self.cf.run_check(name, traj, tol.get(name)))
                self.check_seconds[name] += time.process_time() - start
        return lambda: [report_text(r) for r in reports]

    def scenarios(self):
        runs = [self.cf.cli.execute(doc) for doc in self.docs]
        return lambda: [
            ([state_bytes(st) for st in traj.states], [report_text(r) for r in reports])
            for traj, reports in runs
        ]

    def evolve(self):
        traj = self.cf.evolve(*self.circle)

        def digest():
            self.trajectory_mib = trajectory_bytes(traj) / 2**20
            return [state_bytes(st) for st in traj.states] + self.v4_bytes

        return digest

    def calls(self) -> dict[str, tuple[int, int]]:
        """(Python-level, C-level) calls the tree's code makes: per check over
        every case for ``verify``, in one stage rebuild for ``evolve``."""
        package = Path(self.cf.__file__).parent
        if self.op == "verify":
            return {
                name: package_calls(lambda: [self.cf.run_check(name, traj, tol.get(name)) for traj, tol in self.cases],
                                    package)
                for name in self.cf.CHECKS
            }
        if self.op == "evolve":
            state, flow = self.circle[:2]
            c, m = state.curve, state.frenet.num_vectors

            def stage():
                curve = self.cf.SampledCurve.from_points(c.points, c.grid, c.closed, m)
                self.cf.flowsim._build_state(curve, flow, m, state.t)

            return {"per stage": package_calls(stage, package)}
        return {}

    def timed(self):
        """(CPU seconds of one operation, the minor page faults it took, its
        result in comparable form); the result is put in that form after the
        clock stops."""
        faults = minor_faults()
        start = time.process_time()
        digest = self.run()
        took = time.process_time() - start
        faults = minor_faults() - faults
        return took, faults, digest()


def report_text(report) -> str:
    """A report as JSON text with every dict in its insertion order: the
    order of residuals, orders and gated names is part of the result."""
    return json.dumps(report.to_json_dict())


def state_bytes(st) -> bytes:
    """Every value a kept state holds, as bytes: its time, points, frame,
    signs, curvatures, speeds f, df1/ds, metric speeds, arclength table and
    total length.  Several of them (k2, s, f1_s) do not feed the points."""
    c, fd = st.curve, st.frenet
    arrays = (c.points, fd.frame, fd.signs, fd.curvatures, st.f_values, st.f1_s, c.speeds, c.s)
    return b"".join([repr((st.t, c.total_length)).encode(), *(a.tobytes() for a in arrays)])


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="source directory holding the base curveflow")
    parser.add_argument("change", type=Path, help="source directory holding the changed curveflow")
    parser.add_argument("--op", choices=("verify", "evolve", "run"), default="verify")
    parser.add_argument("--pairs", type=int, default=20)
    parser.add_argument("--samples", type=int, default=256)
    parser.add_argument("--steps", type=int, default=250)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    base = Side(args.base, "curveflow_base", args.op, args.samples, args.steps)
    change = Side(args.change, "curveflow_change", args.op, args.samples, args.steps)
    base.timed(), change.timed()  # warm both before timing and counting
    calls = {id(side): side.calls() for side in (base, change)}

    times = {id(base): [], id(change): []}
    faults = {id(base): [], id(change): []}
    checks = {id(base): [], id(change): []}
    equal = True
    for i in range(args.pairs):
        order = (base, change) if i % 2 == 0 else (change, base)
        results = {}
        for side in order:
            took, took_faults, results[id(side)] = side.timed()
            times[id(side)].append(took)
            faults[id(side)].append(took_faults)
            if args.op == "verify":
                checks[id(side)].append(side.check_seconds)
        equal = equal and results[id(base)] == results[id(change)]

    a, b = times[id(base)], times[id(change)]
    diffs = [(y - x) / x for x, y in zip(a, b)]
    won = sum(y < x for x, y in zip(a, b))
    print(f"op {args.op}: {args.pairs} pairs, CPU seconds per operation")
    print(f"base   median {statistics.median(a):.4f} s (range {min(a):.4f}-{max(a):.4f})")
    print(f"change median {statistics.median(b):.4f} s (range {min(b):.4f}-{max(b):.4f})")
    print(f"median pairwise change {100 * statistics.median(diffs):+.1f}%, change faster in {won}/{args.pairs} pairs")
    print(f"minor faults per operation (median): base {statistics.median(faults[id(base)]):.0f} "
          f"change {statistics.median(faults[id(change)]):.0f}")
    if args.op == "verify":
        for name in base.cf.CHECKS:
            x, y = (statistics.median(c[name] for c in checks[id(side)]) for side in (base, change))
            print(f"check {name}: base {x:.4f} s change {y:.4f} s")
    if args.op == "evolve":
        print(f"trajectory MiB: base {base.trajectory_mib:.3f} change {change.trajectory_mib:.3f}")
    for name, (x, y) in calls[id(base)].items():
        z, w = calls[id(change)][name]
        print(f"calls {name}: base {x}/{y} change {z}/{w} (Python-level/C-level)")
    print(f"results equal: {equal}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
