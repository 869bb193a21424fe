"""Spans and counts recorded around the calls one curveflow module makes
into the next.

Nothing here edits the package source: ``Tracer.install`` replaces module
attributes (and one class attribute and the ``verify.CHECKS`` entries)
with timing wrappers, and ``Tracer.uninstall`` puts every original object
back.  Each wrapper records one span ``(id, name, start, end, parent,
thread)``; a span opened on a thread with no open span of its own (the
``convergence`` level pool) takes the innermost open span of the
installing thread as its parent, so level work nests under the command
that started it.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
import tracemalloc
from collections import defaultdict


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "thread")

    def __init__(self, id_, name, start, parent, thread):
        self.id = id_
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self.values: dict[str, float] = defaultdict(float)
        self.alloc_peaks: dict[str, float] = {}
        self.measure_alloc = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner_stack: list[Span] = []
        self._next_id = 0
        self._originals: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        else:
            parent = self._owner_stack[-1].id if self._owner_stack else None
        with self._lock:
            id_ = self._next_id
            self._next_id += 1
        span = Span(id_, name, time.perf_counter(), parent, threading.get_ident())
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def add(self, name: str, amount: float) -> None:
        with self._lock:
            self.values[name] += amount

    def take(self) -> tuple[list[Span], dict[str, float]]:
        """Hand over (and forget) everything recorded since the last take."""
        spans, values = self.spans, dict(self.values)
        self.spans = []
        self.values.clear()
        return spans, values

    def wrap(self, fn, name: str, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def _wrap_check(self, fn, name: str):
        traced = self.wrap(fn, name)

        @functools.wraps(fn)
        def check(*args, **kwargs):
            if not self.measure_alloc:
                return traced(*args, **kwargs)
            # Checks run one at a time while allocations are measured (the
            # caller serializes the convergence pool for that pass).
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                result = fn(*args, **kwargs)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            self.alloc_peaks[name] = max(self.alloc_peaks.get(name, 0.0), peak)
            return result

        return check

    # -- install / uninstall ---------------------------------------------

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer is already installed")
        self._owner_stack = self._stack()
        for owner, key, _, span_name, after in _slots():
            original = _get(owner, key)
            if isinstance(original, classmethod):
                wrapped = classmethod(self.wrap(original.__func__, span_name))
            elif isinstance(owner, dict):
                wrapped = self._wrap_check(original, span_name)
            else:
                wrapped = self.wrap(original, span_name, after)
            self._originals.append((owner, key, original))
            _set(owner, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._originals):
            _set(owner, key, original)
        self._originals.clear()


def _count_trajectory_bytes(tracer: Tracer, _args, traj) -> None:
    tracer.add("trajectory_bytes", trajectory_bytes(traj))


def _count_output_bytes(tracer: Tracer, args, _result) -> None:
    tracer.add("output_bytes", len(args[1].encode("utf-8")))


# (module, attribute, span name, hook run on the result): the names through
# which one layer calls the next.  Several names may share a span name;
# ``Summary.outer_total`` does not count a span nested in one of the same
# name twice.
TARGETS = (
    ("curveflow", "evolve", "flowsim.evolve", _count_trajectory_bytes),
    ("curveflow.cli", "evolve", "flowsim.evolve", _count_trajectory_bytes),
    ("curveflow.flowsim", "evaluate_speeds", "flowsim.evaluate_speeds", None),
    ("curveflow.flowsim", "solve_inextensible_f1", "flowsim.solve_inextensible_f1", None),
    ("curveflow.flowsim", "velocity", "flowsim.velocity", None),
    ("curveflow.flowsim", "frenet_apparatus", "frenet.frenet_apparatus", None),
    ("curveflow.curvekit", "cumulative_simpson", "curvekit.quadrature", None),
    ("curveflow.curvekit", "cumulative_trapezoid", "curvekit.quadrature", None),
    ("curveflow.minkowski", "inner_many", "minkowski.inner_many", None),
    ("curveflow.frenet", "inner_many", "minkowski.inner_many", None),
    ("curveflow.verify", "inner_many", "minkowski.inner_many", None),
    ("curveflow.exprjet", "eval_jet", "exprjet.eval_jet", None),
    ("curveflow.cli", "load_scenario", "cli.load_scenario", None),
    ("curveflow.cli", "execute", "cli.execute", None),
    ("curveflow.cli", "cmd_convergence", "cli.convergence", None),
    ("curveflow.cli", "write_timeseries", "cli.write_outputs", None),
    ("curveflow.cli", "write_frames", "cli.write_outputs", None),
    ("curveflow.cli", "write_report", "cli.write_outputs", None),
    ("curveflow.cli", "_write_text", "cli.write_outputs", _count_output_bytes),
)
FROM_POINTS = "curvekit.from_points"


def _slots():
    """(owner, key, qualified name, span name, result hook) of every name the
    tracer replaces: module attributes, ``SampledCurve.from_points`` and the
    ``verify.CHECKS`` entries."""
    for module_name, attr, span_name, after in TARGETS:
        yield importlib.import_module(module_name), attr, f"{module_name}.{attr}", span_name, after
    cls = importlib.import_module("curveflow.curvekit").SampledCurve
    yield cls, "from_points", "curveflow.curvekit.SampledCurve.from_points", FROM_POINTS, None
    checks = importlib.import_module("curveflow.verify").CHECKS
    for key in list(checks):
        yield checks, key, f"curveflow.verify.CHECKS[{key!r}]", f"verify.check_{key}", None


def _get(owner, key):
    if isinstance(owner, dict):
        return owner[key]
    if isinstance(owner, type):
        return owner.__dict__[key]  # the classmethod object, not a bound method
    return getattr(owner, key)


def _set(owner, key, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


def snapshot() -> dict[str, object]:
    """Qualified name -> the object it holds now, for every wrapped name."""
    return {name: _get(owner, key) for owner, key, name, _, _ in _slots()}


def not_restored(before: dict[str, object]) -> list[str]:
    """Wrapped names that no longer hold the object ``before`` recorded."""
    now = snapshot()
    return [name for name, obj in before.items() if now.get(name) is not obj]


def trajectory_bytes(traj) -> int:
    """Bytes of the distinct numpy arrays a Trajectory's states hold."""
    seen = {}
    for st in traj.states:
        c, fd = st.curve, st.frenet
        for arr in (c.grid, c.derivs, c.speeds, c.s, fd.frame, fd.signs, fd.curvatures,
                    st.f_values, st.f1_s):
            seen[id(arr)] = arr.nbytes
    return sum(seen.values())


# --------------------------------------------------------------------------
# Summaries of one operation's spans


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the part its child spans cover."""
    children = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append(sp)
    out = {}
    for sp in spans:
        kids = [(max(k.start, sp.start), min(k.end, sp.end)) for k in children.get(sp.id, ())]
        kids = [(a, b) for a, b in kids if b > a]
        out[sp.id] = (sp.end - sp.start) - _covered(kids)
    return out


class Summary:
    """Per-name call counts, total and self time of one operation's spans."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.by_id = {sp.id: sp for sp in spans}
        self.self_s = self_times(spans)
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_total = defaultdict(float)
        for sp in spans:
            self.calls[sp.name] += 1
            self.total[sp.name] += sp.end - sp.start
            self.self_total[sp.name] += self.self_s[sp.id]

    def has_ancestor(self, sp: Span, name: str) -> bool:
        parent = self.by_id.get(sp.parent)
        while parent is not None:
            if parent.name == name:
                return True
            parent = self.by_id.get(parent.parent)
        return False

    def outer_total(self, name: str) -> float:
        """Time in spans of ``name`` not nested inside another such span."""
        return sum(
            (sp.end - sp.start
             for sp in self.spans
             if sp.name == name and not self.has_ancestor(sp, name)),
            0.0,
        )

    def count_under(self, name: str, ancestor: str) -> int:
        return sum(1 for sp in self.spans if sp.name == name and self.has_ancestor(sp, ancestor))

    def parallelism(self, parent_name: str, child_name: str) -> float:
        """Summed child busy time over the children's wall extent, added up
        over every span of ``parent_name``; 0 when there are none."""
        busy = wall = 0.0
        for sp in self.spans:
            if sp.name != parent_name:
                continue
            kids = [k for k in self.spans if k.parent == sp.id and k.name == child_name]
            if not kids:
                continue
            busy += sum(k.end - k.start for k in kids)
            wall += max(k.end for k in kids) - min(k.start for k in kids)
        return busy / wall if wall > 0 else 0.0


# --------------------------------------------------------------------------
# Per-layer metrics of one operation

CHECK_NAMES = (
    "speed_evolution", "iff_condition", "psi_antisymmetry", "frame_evolution", "curvature_pde",
)

PER_OP_UNITS = {
    "flowsim.stage_rebuilds": "count",
    "flowsim.stage_us": "us",
    "flowsim.evolve.self_s": "s",
    "flowsim.evaluate_speeds.self_s": "s",
    "flowsim.solve_inextensible_f1.total_s": "s",
    "flowsim.velocity.total_s": "s",
    "flowsim.trajectory_mb": "MiB",
    "curvekit.from_points.calls": "count",
    "curvekit.from_points.self_s": "s",
    "curvekit.quadrature.calls": "count",
    "curvekit.quadrature.total_s": "s",
    "frenet.frenet_apparatus.calls": "count",
    "frenet.frenet_apparatus.self_s": "s",
    "minkowski.inner_many.calls": "count",
    "minkowski.inner_many.calls_per_stage": "calls/stage",
    "minkowski.inner_many.total_s": "s",
    "exprjet.eval_jet.calls": "count",
    "exprjet.eval_jet.total_s": "s",
    **{f"verify.check_{name}.total_s": "s" for name in CHECK_NAMES},
    "cli.load_scenario.total_s": "s",
    "cli.execute.total_s": "s",
    "cli.write_outputs.total_s": "s",
    "cli.output_bytes": "bytes",
    "cli.convergence.parallelism": "ratio",
}


def layer_metrics(s: Summary, values: dict) -> dict[str, float]:
    """Every PER_OP_UNITS metric of one operation (0 where a layer did no work)."""
    stages = s.count_under(FROM_POINTS, "flowsim.evolve")
    out = {
        "flowsim.stage_rebuilds": stages,
        "flowsim.stage_us": 1e6 * s.total["flowsim.evolve"] / stages if stages else 0.0,
        "flowsim.evolve.self_s": s.self_total["flowsim.evolve"],
        "flowsim.evaluate_speeds.self_s": s.self_total["flowsim.evaluate_speeds"],
        "flowsim.solve_inextensible_f1.total_s": s.total["flowsim.solve_inextensible_f1"],
        "flowsim.velocity.total_s": s.total["flowsim.velocity"],
        "flowsim.trajectory_mb": values.get("trajectory_bytes", 0) / 2.0**20,
        "curvekit.from_points.calls": s.calls[FROM_POINTS],
        "curvekit.from_points.self_s": s.self_total[FROM_POINTS],
        "curvekit.quadrature.calls": s.calls["curvekit.quadrature"],
        "curvekit.quadrature.total_s": s.total["curvekit.quadrature"],
        "frenet.frenet_apparatus.calls": s.calls["frenet.frenet_apparatus"],
        "frenet.frenet_apparatus.self_s": s.self_total["frenet.frenet_apparatus"],
        "minkowski.inner_many.calls": s.calls["minkowski.inner_many"],
        "minkowski.inner_many.calls_per_stage": (
            s.count_under("minkowski.inner_many", "flowsim.evolve") / stages if stages else 0.0
        ),
        "minkowski.inner_many.total_s": s.total["minkowski.inner_many"],
        "exprjet.eval_jet.calls": s.calls["exprjet.eval_jet"],
        "exprjet.eval_jet.total_s": s.total["exprjet.eval_jet"],
        "cli.load_scenario.total_s": s.total["cli.load_scenario"],
        "cli.execute.total_s": s.total["cli.execute"],
        "cli.write_outputs.total_s": s.outer_total("cli.write_outputs"),
        "cli.output_bytes": int(values.get("output_bytes", 0)),
        "cli.convergence.parallelism": s.parallelism("cli.convergence", "cli.execute"),
    }
    for name in CHECK_NAMES:
        out[f"verify.check_{name}.total_s"] = s.total[f"verify.check_{name}"]
    return out
