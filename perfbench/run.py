"""curveflow benchmark runner.

    python3 perfbench/run.py --workload evolve_small --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory and nothing is installed.  With ``--trace 0`` the run
measures the end-to-end metrics, timed in CPU seconds of this process and
scaled to a nominal machine speed (see ``Runner``); with ``--trace 1`` it
measures the same operations untraced and traced (half the time each) and
reports the per-layer metrics plus the tracing overhead.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
the full record (environment, every metric, every failure) goes to
``.benchout/<workload>-seed<seed>-trace<0|1>.json`` and the spans of the
first traced operation of the latest traced run to
``.benchout/<workload>-spans.csv``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".benchout"

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPS = 7
# What the workloads import, and the third-party modules those load.
PACKAGE_MODULES = ("curveflow", "curveflow.cli")
DEPENDENCIES = ("numpy", "scipy.integrate", "jsonschema")
# Nominal CPU seconds of one ``reference_seconds`` kernel: its median on the
# machine the benchmark was defined on (2 vCPU Intel Xeon VM at 2.1 GHz,
# Python 3.11.7, numpy 2.4.6, scipy 1.17.1).
REF_NOMINAL_S = 0.0105
MIB = 2.0**20

END_TO_END_UNITS = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MiB"}
# Traced-run metrics besides the per-operation layer split.
TRACE_EXTRA_UNITS = {"verify.peak_alloc_mb": "MiB", "tracing.op_s_delta": "s"}


class SetupError(Exception):
    """The checkout cannot be benchmarked (no package source)."""


def prepare() -> None:
    """Pin native thread pools to one thread and put ``src`` first on the
    import path.  Must run before numpy is imported."""
    if not (SRC / "curveflow" / "__init__.py").is_file():
        raise SetupError(f"no curveflow package under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # The convergence pool runs at its default size, as users run it.
    os.environ.pop("CURVEFLOW_THREADS", None)
    sys.path.insert(0, str(SRC))
    import curveflow

    if Path(curveflow.__file__).resolve().parent != SRC / "curveflow":
        raise SetupError(f"imported curveflow from {curveflow.__file__}, not {SRC}")


def import_seconds(reps: int) -> tuple[list[float], list[float]]:
    """CPU seconds the package's import takes in a fresh interpreter,
    ``reps`` times, and the kernel times around them there.

    The import is timed once the third-party dependencies are loaded: their
    import is not the package's work, and its time varies far more than the
    package's own.  Each repetition drops the package's modules and imports
    it anew.  The kernel runs in that interpreter because it may run on
    another CPU, at another speed, than this one."""
    code = (
        "import importlib, sys, time\n"
        f"for m in {list(DEPENDENCIES)!r}: importlib.import_module(m)\n"
        f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
        "from run import reference_seconds\n"
        "print(repr(reference_seconds()))\n"
        f"for _ in range({reps}):\n"
        "    for m in [m for m in sys.modules if m.split('.')[0] == 'curveflow']:\n"
        "        del sys.modules[m]\n"
        "    t = time.process_time()\n"
        f"    for m in {list(PACKAGE_MODULES)!r}: importlib.import_module(m)\n"
        "    took = time.process_time() - t\n"
        "    print(repr(took), repr(reference_seconds()))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=120, check=True,
    )
    first, *rows = done.stdout.strip().splitlines()
    cpus = [float(row.split()[0]) for row in rows]
    refs = [float(first)] + [float(row.split()[1]) for row in rows]
    return cpus, refs


def environment() -> dict:
    import numpy
    import scipy

    model = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
        "CURVEFLOW_THREADS": os.environ.get("CURVEFLOW_THREADS"),
    }


def reference_seconds() -> float:
    """Median CPU seconds of five runs of a fixed calibration kernel: numpy
    ufuncs, a gradient, a row norm and scipy's cumulative Simpson rule on
    arrays of 256 points, the calls the operations make most.

    The machine the benchmark was defined on switches, every few seconds,
    between two speeds about 1.5x apart, in CPU seconds too.  The kernel
    switches with it: in one run ``evolve_small`` operations took 1.40 CPU
    seconds next to kernel times of 10.5 ms and 0.93 next to 6.5 ms.  So
    each set-up, and each piece of an operation of a calibrated workload, is
    timed between two runs of this kernel and scaled to the nominal machine
    speed by their mean (``timed_setup``, ``Runner``).  A switch lasts
    seconds or less, so the kernel times on either side of a piece that runs
    for longer do not tell the speed it ran at (see ``SuiteWorkload``)."""
    import numpy as np
    from scipy.integrate import cumulative_simpson

    s = np.linspace(0.0, 2.0 * np.pi, 256)
    points = np.stack([np.cos(s), np.sin(s), s], axis=1)
    runs = []
    for _ in range(5):
        start = time.process_time()
        for _ in range(40):
            y = np.sin(s) * np.cos(s)
            cumulative_simpson(y, x=s, initial=0.0)
            np.gradient(y, s)
            np.linalg.norm(points, axis=1)
        runs.append(time.process_time() - start)
    return statistics.median(runs)


class Runner:
    """Runs one workload's operations, times them and applies the
    correctness gate.

    An operation passes each piece of its work through ``timed``, which
    adds to the operation's totals the piece's wall seconds, CPU seconds
    and scaled CPU seconds.  CPU seconds count every thread of this process
    and leave out the time it waits for a CPU that another process or guest
    holds, which on the shared machine the benchmark was defined on (2
    vCPUs) made wall times of the same code spread by 20-30% between runs.
    A single-threaded operation takes as many CPU seconds as wall seconds on
    an idle machine; the convergence pool of ``scenario_suite`` overlaps its
    levels little (its CPU seconds exceeded its wall seconds by under 5%).

    For a calibrated workload ``timed`` runs the calibration kernel after
    the piece (and before it, when no kernel ran since the loop started)
    and scales the piece's CPU seconds to the nominal machine speed by the
    mean of the kernel times on either side; the kernel times of the
    latest loop are in ``refs``.  Otherwise scaled CPU seconds are CPU
    seconds."""

    def __init__(self, workload, gate):
        self.workload = workload
        self.gate = gate
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.refs: list[float] = []
        self._totals = [0.0, 0.0, 0.0]

    def timed(self, fn, *args):
        calibrated = self.workload.calibrated
        if calibrated and not self.refs:
            self.refs.append(reference_seconds())
        wall, cpu = time.perf_counter(), time.process_time()
        result = fn(*args)
        cpu = time.process_time() - cpu
        wall = time.perf_counter() - wall
        scale = 1.0
        if calibrated:
            self.refs.append(reference_seconds())
            scale = 2.0 * REF_NOMINAL_S / (self.refs[-2] + self.refs[-1])
        for k, v in enumerate((wall, cpu, cpu * scale)):
            self._totals[k] += v
        return result

    def one(self):
        """Run, time and gate one operation; returns its (wall, CPU, scaled
        CPU) seconds, or None when it raised."""
        wl = self.workload
        self.attempted += 1
        self._totals = [0.0, 0.0, 0.0]
        seconds = None
        try:
            result = wl.op(self.timed)
            seconds = tuple(self._totals)
            problems = self.gate(wl.outcomes(result))
            if hasattr(wl, "after_check"):
                problems += wl.after_check(result)
        except Exception as exc:  # an operation that raises is a failed one
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.fail(problems)
        return seconds

    def fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.problems.append(f"op {self.attempted}: " + "; ".join(problems))

    def loop(self, seconds: float, min_ops: int, on_op=None):
        """Run operations for ``seconds`` (at least ``min_ops``); returns the
        wall, CPU and scaled CPU seconds of each completed one."""
        times = ([], [], [])
        self.refs = []
        start = time.perf_counter()
        ops = 0
        while ops < min_ops or time.perf_counter() - start < seconds:
            ops += 1
            took = self.one()
            if on_op is not None:
                on_op()
            if took is not None:
                for column, value in zip(times, took):
                    column.append(value)
        return times


def median(values) -> float:
    return statistics.median(values) if values else float("nan")


def traced_run(runner: Runner, seconds: float, record: dict) -> dict:
    """Half the time untraced, half traced (at least one operation each),
    then per-layer medians over the traced operations."""
    import tracing

    untraced_wall, untraced_cpu, untraced = runner.loop(seconds / 2, 1)
    tracer = tracing.Tracer()
    per_op = []
    first_spans = []

    def summarize():
        spans, values = tracer.take()
        if not first_spans:
            first_spans.extend(spans)
        per_op.append(tracing.layer_metrics(tracing.Summary(spans), values))

    before = tracing.snapshot()
    tracer.install()
    try:
        traced_wall, traced_cpu, traced = runner.loop(seconds / 2, 1, on_op=summarize)
        if any(op[f"verify.check_{name}.total_s"] > 0
               for op in per_op for name in tracing.CHECK_NAMES):
            # One more, untimed operation for allocation peaks, with the
            # convergence pool serialized so check peaks do not overlap.
            tracer.measure_alloc = True
            os.environ["CURVEFLOW_THREADS"] = "1"
            try:
                runner.one()
            finally:
                os.environ.pop("CURVEFLOW_THREADS", None)
                tracer.measure_alloc = False
            tracer.take()
    finally:
        tracer.uninstall()
    left = tracing.not_restored(before)
    if left:
        runner.problems.append(f"names not restored after tracing: {left}")

    metrics = {name: median([op[name] for op in per_op]) for name in tracing.PER_OP_UNITS}
    metrics["verify.peak_alloc_mb"] = max(tracer.alloc_peaks.values(), default=0.0) / MIB
    metrics["tracing.op_s_delta"] = median(traced) - median(untraced)
    record["untraced_op_s"] = {"wall": untraced_wall, "cpu": untraced_cpu, "scaled": untraced}
    record["traced_op_s"] = {"wall": traced_wall, "cpu": traced_cpu, "scaled": traced}
    record["verify_peak_alloc_mb_by_check"] = {
        k: v / MIB for k, v in sorted(tracer.alloc_peaks.items())
    }
    spans_path = OUT / f"{runner.workload.name}-spans.csv"
    write_spans(spans_path, first_spans)
    record["spans_file"] = str(spans_path.relative_to(ROOT))
    units = {**tracing.PER_OP_UNITS, **TRACE_EXTRA_UNITS}
    return {name: (metrics[name], unit) for name, unit in units.items()}


def write_spans(path: Path, spans) -> None:
    t0 = min((sp.start for sp in spans), default=0.0)
    lines = ["id,name,start_s,end_s,parent,thread"]
    for sp in sorted(spans, key=lambda s: s.start):
        parent = "" if sp.parent is None else str(sp.parent)
        lines.append(
            f"{sp.id},{sp.name},{sp.start - t0:.9f},{sp.end - t0:.9f},{parent},{sp.thread}"
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def untraced_run(runner: Runner, seconds: float, setup_s: float, record) -> dict:
    wall, cpu, scaled = runner.loop(seconds, runner.workload.min_ops)
    op_s = median(scaled)
    record["op_wall_s"] = wall
    record["op_cpu_s"] = cpu
    record["op_scaled_s"] = scaled
    record["op_refs"] = runner.refs
    record["op_wall_median_s"] = median(wall)
    record["named"] = {
        **runner.workload.rates(op_s),
        "op_fail_ratio": runner.failed / runner.attempted,
    }
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {"setup_s": setup_s, "op_s": op_s, "peak_rss_mb": peak}
    return {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def timed_setup(wl, record: dict) -> float:
    """Median over ``SETUP_REPS`` set-ups, each after a fresh import of the
    package, in CPU seconds; each import and each set-up is scaled by the
    mean of the kernel times on either side of it, in the process it ran
    in."""
    imports, import_refs = import_seconds(SETUP_REPS)
    refs = [reference_seconds()]
    cpus = []
    for _ in imports:
        start = time.process_time()
        wl.setup()
        cpus.append(time.process_time() - start)
        refs.append(reference_seconds())
    record["setup_import_s"] = imports
    record["setup_import_refs"] = import_refs
    record["setup_cpu_s"] = cpus
    record["setup_refs"] = refs
    return median([
        2.0 * REF_NOMINAL_S * (i / (import_refs[k] + import_refs[k + 1])
                               + c / (refs[k] + refs[k + 1]))
        for k, (i, c) in enumerate(zip(imports, cpus))
    ])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        prepare()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; known: {workloads.NAMES}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        return run(args, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workloads, workdir: Path) -> int:
    wl = workloads.make(args.workload, args.seed, workdir)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "phase": workloads.phase(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
    }
    expected = workloads.load_expected()
    runner = Runner(wl, lambda outcomes: workloads.gate(outcomes, expected))
    if args.trace:
        wl.setup()
        metrics = traced_run(runner, args.seconds, record)
    else:
        metrics = untraced_run(runner, args.seconds, timed_setup(wl, record), record)

    record["attempted"] = runner.attempted
    record["failed"] = runner.failed
    record["problems"] = runner.problems
    # A metric no operation produced (every one raised) is reported as null.
    record["metrics"] = {
        k: {"value": None if v != v else v, "unit": u} for k, (v, u) in metrics.items()
    }
    result_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:>16.6g} {unit}")
    for name, value in record.get("named", {}).items():
        print(f"{name:45s} {value:>16.6g}")
    for problem in runner.problems[:10]:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
