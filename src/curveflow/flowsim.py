"""Frame-decomposed curve flows and their explicit time integration.

A flow moves every curve point with velocity sum_i f_i V_i, where the f_i
are scalar speeds along the moving frame.  Speeds are expressions in the
current arclength coordinate s and time t; alternatively the tangential
speed f_1 can be synthesized from f_2..f_n so the flow preserves
arclength, by integrating df_1/ds = e0 e1 f_2 k_1 along the curve.

Evolution is classic RK4 with the frame (and arclength coordinate, and
any synthesized tangential speed) recomputed at every stage.  Stage
curves are rebuilt from raw points, so their derivatives come from
difference stencils rather than jets; the error budget is O(dt^4 + N^-2).
Open curves evolve with free endpoints.  Points and velocities are
component-major (n, N) grids, as everywhere in the package (see
``curvekit``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import exprjet
from .curvekit import SampledCurve, cumulative_integral, loop_integral
from .errors import (
    CurveFlowError,
    EvolutionError,
    FrameBreakdown,
    IncompatibleClosedFlow,
    MixedCausalityError,
    NonFiniteCurveError,
    NonGenericCurveError,
    NullCurveDeveloped,
    NullCurveError,
    StabilityError,
    UnresolvedClosedFlow,
)
from .exprjet import Expr
from .frenet import FrenetData, frenet_apparatus

COMPAT_RTOL = 1e-6
MAX_STEP_LENGTH_CHANGE = 0.5


@dataclass(frozen=True)
class FlowSpec:
    """Scalar speeds of a flow, one per frame direction, as expressions in
    (s, t).

    The flow is inextensible exactly when the tangential entry
    ``speeds[0]`` is None: f_1 is then synthesized at every evaluation
    from f_2 and the initial value ``f1_at_0`` at the curve's first
    sample.  Every other entry is an expression.
    """

    speeds: tuple[Expr | None, ...]
    f1_at_0: float = 0.0

    @classmethod
    def explicit(cls, speeds) -> "FlowSpec":
        return cls(tuple(_parse_speed(f) for f in speeds))

    @classmethod
    def inextensible(cls, higher_speeds, f1_at_0: float = 0.0) -> "FlowSpec":
        return cls((None,) + tuple(_parse_speed(f) for f in higher_speeds), f1_at_0)

    def validate(self, dimension: int) -> None:
        if len(self.speeds) != dimension:
            raise ValueError(
                f"flow carries {len(self.speeds)} speeds but the curve has dimension {dimension}"
            )
        for i, f in enumerate(self.speeds):
            if f is None and i != 0:
                raise ValueError(f"speed {i + 1} is missing")
            extra = set() if f is None else exprjet.variables(f) - {"s", "t"}
            if extra:
                raise ValueError(f"speed {i + 1} may only use s and t, found {sorted(extra)}")


def _parse_speed(f) -> Expr:
    return exprjet.parse(f) if isinstance(f, str) else f


@dataclass(frozen=True)
class SimState:
    """One snapshot of an evolving curve.

    ``f_values[i]`` is the grid of f_{i+1}; ``f1_s`` holds the df_1/ds
    values consistent with how f_1 was produced (jet derivative of an
    explicit expression, or the defining right-hand side when f_1 was
    synthesized).  In a state ``evolve`` keeps, ``curve`` holds its points
    only (``deriv_order`` 0), since the frame has been built from its
    derivatives already; ``initial_state`` keeps the whole stack.
    """

    t: float
    curve: SampledCurve
    frenet: FrenetData
    f_values: np.ndarray  # (n, N)
    f1_s: np.ndarray  # (N,)


@dataclass
class Trajectory:
    """States at uniformly spaced times.  Those ``evolve`` builds hold curves
    with their points only (see ``evolve``)."""

    states: list[SimState]
    dt: float
    flow: FlowSpec


def solve_inextensible_f1(c: SampledCurve, rhs: np.ndarray, f1_at_0: float) -> np.ndarray:
    """Integrate df_1/ds = rhs from the curve's first sample, where rhs is
    ``inextensibility_rhs``, e0 e1 f_2 k_1.

    For closed curves the loop integral of the right-hand side must vanish
    (within COMPAT_RTOL times the total arclength), otherwise no periodic
    f_1 exists and IncompatibleClosedFlow is raised.
    """
    integrand = rhs * c.speeds  # ds = v du
    if c.closed:
        residual = loop_integral(integrand, c)
        tol = COMPAT_RTOL * c.total_length
        if abs(residual) > tol:
            raise IncompatibleClosedFlow(residual, tol)
    return f1_at_0 + cumulative_integral(integrand, c.h, c.quadrature)


def inextensibility_rhs(c: SampledCurve, fd: FrenetData, f2_values: np.ndarray) -> np.ndarray:
    """The constraint right-hand side e0 e1 f_2 k_1 on the grid."""
    if fd.num_vectors < 2:
        return np.zeros(c.samples)
    return float(fd.signs[0] * fd.signs[1]) * np.asarray(f2_values) * fd.curvatures[0]


def evaluate_speeds(
    flow: FlowSpec, c: SampledCurve, fd: FrenetData, t: float
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate all scalar speeds at (s_i, t); returns (f_values, f1_s)."""
    n = len(flow.speeds)
    N = c.samples
    f = np.zeros((n, N))
    inextensible = flow.speeds[0] is None
    f1_s = None if inextensible else np.zeros(N)  # synthesized below
    env = {"t": t}
    # a jet's rows broadcast against the grid: a constant's are one wide
    for i, expr in enumerate(flow.speeds):
        if expr is None:
            continue
        if i == 0:
            jet = exprjet.eval_jet(expr, "s", c.s, 1, env)
            f[0] = jet.coeffs[0]
            # copied: a row view would keep the jet's whole block in the state
            f1_s[:] = jet.coeffs[1]
        else:
            f[i] = exprjet.eval_jet(expr, "s", c.s, 0, env).coeffs[0]
    if inextensible:
        f1_s = inextensibility_rhs(c, fd, f[1])
        f[0] = solve_inextensible_f1(c, f1_s, flow.f1_at_0)
    m = fd.num_vectors
    if m < n and np.max(np.abs(f[m:])) > 0.0:
        raise CurveFlowError(
            f"flow drives frame direction {m + 1}..{n} but only {m} frame vectors exist"
        )
    return f, f1_s


def velocity(state: SimState) -> np.ndarray:
    """Pointwise flow velocity sum_i f_i V_i, shape (n, N)."""
    m = state.frenet.num_vectors
    # allocated before the products, so the kept result does not land above
    # their freed block (see ``curvekit.cumulative_simpson`` on heap layout)
    out = np.empty_like(state.curve.points)
    terms = state.f_values[:m, None] * state.frenet.frame
    # a reduce over the leading axis adds whole (n, N) terms in order:
    # ((0 + f_1 V_1) + f_2 V_2) + ..., signed zeros as a loop from +0.0 gives
    return np.add.reduce(terms, axis=0, initial=0.0, out=out)


def dv_dt_rhs(state: SimState) -> np.ndarray:
    """Predicted time derivative of the speed: df1/du - e0 e1 f2 v k1.

    On spacelike curves this equals the classical form
    e0 df1/du - e1 f2 v k1; on timelike curves the two differ by the
    overall sign e0 because <a_u, a_u> is -v^2 there, and only this form
    matches the measured dv/dt.  Both are reported by the speed-evolution
    check; this function returns the one that holds.
    """
    c = state.curve
    fd = state.frenet
    out = c.speeds * state.f1_s
    if fd.num_vectors >= 2:
        e0e1 = float(fd.signs[0] * fd.signs[1])
        out = out - e0e1 * state.f_values[1] * c.speeds * fd.curvatures[0]
    return out


def initial_state(
    curve: SampledCurve, flow: FlowSpec, frame_vectors: int | None = None
) -> SimState:
    """Assemble the state at t = 0 (frame, speeds) for a flow on a curve."""
    flow.validate(curve.n)
    return _build_state(curve, flow, frame_vectors, 0.0)


def _build_state(
    curve: SampledCurve, flow: FlowSpec, frame_vectors: int | None, t: float
) -> SimState:
    """Frame, then speeds: the one way a state is assembled from a curve."""
    fd = frenet_apparatus(curve, frame_vectors)
    f, f1_s = evaluate_speeds(flow, curve, fd, t)
    return SimState(t=t, curve=curve, frenet=fd, f_values=f, f1_s=f1_s)


def default_dt(state: SimState) -> float:
    """Step heuristic: a tenth of the smallest arc spacing over the speed scale."""
    ds_min = float(np.min(state.curve.speeds)) * state.curve.h
    fmax = float(np.max(np.abs(state.f_values))) if state.f_values.size else 0.0
    return 0.1 * ds_min / max(1.0, fmax)


def evolve(
    initial: SimState,
    flow: FlowSpec,
    dt: float,
    steps: int,
) -> Trajectory:
    """Advance the curve by explicit RK4, rebuilding the frame per stage.
    A scenario's time horizon is checked by its loader, ``cli._cross_validate``.

    Every failure ends in an EvolutionError carrying its time ``t`` and the
    partial trajectory: NullCurveDeveloped if the tangent turns null,
    FrameBreakdown if the frame breaks down, StabilityError if the curve goes
    non-finite or changes total arclength by more than 50% in a step,
    UnresolvedClosedFlow if a closed curve rebuilt from points fails the
    compatibility test, and a plain EvolutionError for any other error of
    this package (a degenerate curve, a speed leaving its domain).

    Every state the trajectory keeps, the initial one included, holds a
    curve with its points only (``deriv_order`` 0): the stencil derivatives
    are read once, by the frame, while the state is built, and keeping them
    took 31% of a trajectory's bytes at N=4096, n=3.  The kept points are
    the RK combination array itself, with no copy.  Each stage's full state
    is held for two more stages, so the allocator recycles its memory
    instead of returning it to the kernel (see the comment on ``held``).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    m = initial.frenet.num_vectors
    grid = initial.curve.grid
    closed = initial.curve.closed
    traj = Trajectory(states=[], dt=dt, flow=flow)

    def stage_state(points: np.ndarray, t: float) -> SimState:
        try:
            return _build_state(SampledCurve.from_points(points, grid, closed, m), flow, m, t)
        except (NullCurveError, MixedCausalityError) as exc:
            # a causal sign change along u means the tangent crossed the null cone
            raise NullCurveDeveloped(str(exc), t=t, trajectory=traj) from exc
        except NonFiniteCurveError as exc:
            raise StabilityError(str(exc), t=t, trajectory=traj) from exc
        except NonGenericCurveError as exc:
            raise FrameBreakdown(str(exc), exc.index, exc.sample, t=t, trajectory=traj) from exc
        except IncompatibleClosedFlow as exc:
            raise UnresolvedClosedFlow(
                exc.residual, exc.tolerance, grid.shape[0], t=t, trajectory=traj
            ) from exc
        except CurveFlowError as exc:
            # a degenerate curve, a speed leaving its domain, a flow along a
            # frame direction that does not exist
            raise EvolutionError(str(exc), t=t, trajectory=traj) from exc

    # A stage's state, internal or accepted, is freed only once the next two
    # stages have their states and velocities, so the allocator hands its
    # blocks on instead of returning them.  Freed as soon as its velocity is
    # read, they sit at the heap top, where glibc trims them and the next
    # stage faults them back in: a 10-step N=4096 run then took 4x the pages
    # its trajectory keeps.  Holding only the last stage took 2.1x (10 steps)
    # and 2.0x (120 steps) once kept states gave up their stencil rows;
    # holding two takes 1.6x and 1.1x.
    held = (None, None)

    def stage_velocity(points: np.ndarray, t: float) -> np.ndarray:
        nonlocal held
        stage = stage_state(points, t)
        k = velocity(stage)
        held = (held[1], stage)
        return k

    def kept_state(points: np.ndarray, t: float) -> SimState:
        # ``points`` is what the full stack's row 0 copied, byte for byte
        nonlocal held
        stage = stage_state(points, t)
        held = (held[1], stage)
        return replace(stage, curve=replace(stage.curve, derivs=points[None]))

    # Every state in the trajectory, the first one included, is rebuilt by
    # the stencil derivative estimator: mixing jet-exact and stencil speeds
    # would bias arclength comparisons by O(h^2).  The initial points are
    # copied, so the first kept state does not pin the caller's stack.
    state = kept_state(initial.curve.points.copy(), initial.t)
    traj.states.append(state)
    for step in range(steps):
        # times count steps from the start, so rounding does not accumulate
        t_mid, t_end = initial.t + (step + 0.5) * dt, initial.t + (step + 1) * dt
        p = state.curve.points
        k1 = velocity(state)
        k2 = stage_velocity(p + 0.5 * dt * k1, t_mid)
        k3 = stage_velocity(p + 0.5 * dt * k2, t_mid)
        k4 = stage_velocity(p + dt * k3, t_end)
        new_state = kept_state(p + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), t_end)
        old_len = state.curve.total_length
        new_len = new_state.curve.total_length
        if abs(new_len - old_len) > MAX_STEP_LENGTH_CHANGE * old_len:
            raise StabilityError(
                f"total arclength jumped from {old_len:.6g} to {new_len:.6g} in one step",
                t=t_end,
                trajectory=traj,
            )
        traj.states.append(new_state)
        state = new_state
    return traj


def arclength_drift(traj: Trajectory) -> float:
    """max_t |L(t) - L(0)| over the trajectory, as a running maximum, so
    it holds no table of lengths.  A NaN length anywhere reads NaN."""
    if not traj.states:
        raise ValueError("trajectory is empty")
    first = traj.states[0].curve.total_length
    drift = 0.0
    for st in traj.states:
        gap = abs(st.curve.total_length - first)
        if gap > drift or gap != gap:  # a NaN drift stays: nothing compares above it
            drift = gap
    return float(drift)

