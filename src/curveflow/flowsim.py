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

from dataclasses import dataclass

import numpy as np

from . import exprjet
from .curvekit import SampledCurve, cumulative_integral, loop_integral
from .errors import (
    CurveFlowError,
    EvolutionError,
    IncompatibleClosedFlow,
    MixedCausalityError,
    NullCurveDeveloped,
    NullCurveError,
    StabilityError,
    UnresolvedClosedFlow,
)
from .exprjet import Expr
from .frenet import FrenetData, frenet_apparatus

EXPLICIT = "explicit"
INEXTENSIBLE = "inextensible"

COMPAT_RTOL = 1e-6
MAX_STEP_LENGTH_CHANGE = 0.5


@dataclass(frozen=True)
class FlowSpec:
    """Scalar speeds of a flow, one per frame direction.

    In ``explicit`` mode all n speeds are expressions in (s, t).  In
    ``inextensible`` mode the tangential entry is None and is synthesized
    at every evaluation from the remaining speeds and the initial value
    ``f1_at_0`` at the curve's first sample.
    """

    mode: str
    speeds: tuple[Expr | None, ...]
    f1_at_0: float = 0.0
    name: str = ""

    @classmethod
    def explicit(cls, speeds, name: str = "") -> "FlowSpec":
        return cls(EXPLICIT, tuple(_parse_speed(f) for f in speeds), name=name)

    @classmethod
    def inextensible(cls, higher_speeds, f1_at_0: float = 0.0, name: str = "") -> "FlowSpec":
        speeds = (None,) + tuple(_parse_speed(f) for f in higher_speeds)
        return cls(INEXTENSIBLE, speeds, f1_at_0=f1_at_0, name=name)

    def validate(self, dimension: int) -> None:
        if self.mode not in (EXPLICIT, INEXTENSIBLE):
            raise ValueError(f"unknown flow mode {self.mode!r}")
        if len(self.speeds) != dimension:
            raise ValueError(
                f"flow carries {len(self.speeds)} speeds but the curve has dimension {dimension}"
            )
        for i, f in enumerate(self.speeds):
            if f is None:
                if self.mode == EXPLICIT or i != 0:
                    raise ValueError(f"speed {i + 1} is missing")
                continue
            extra = exprjet.variables(f) - {"s", "t"}
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
    synthesized).
    """

    t: float
    curve: SampledCurve
    frenet: FrenetData
    f_values: np.ndarray  # (n, N)
    f1_s: np.ndarray  # (N,)


@dataclass
class Trajectory:
    """States at uniformly spaced times."""

    states: list[SimState]
    dt: float
    flow: FlowSpec

    def __len__(self) -> int:
        return len(self.states)

    @property
    def times(self) -> np.ndarray:
        return np.array([st.t for st in self.states])


def solve_inextensible_f1(
    c: SampledCurve,
    fd: FrenetData,
    f2_values: np.ndarray,
    f1_at_0: float,
    *,
    rhs: np.ndarray | None = None,
) -> np.ndarray:
    """Integrate df_1/ds = e0 e1 f_2 k_1 from the curve's first sample.

    For closed curves the loop integral of the right-hand side must vanish
    (within COMPAT_RTOL times the total arclength), otherwise no periodic
    f_1 exists and IncompatibleClosedFlow is raised.  A caller that already
    holds ``inextensibility_rhs(c, fd, f2_values)`` passes it as ``rhs``.
    """
    if rhs is None:
        rhs = inextensibility_rhs(c, fd, f2_values)
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
    f1_s = None if flow.mode == INEXTENSIBLE else np.zeros(N)  # synthesized below
    env = {"t": t}
    for i, expr in enumerate(flow.speeds):
        if expr is None:
            continue
        if i == 0:
            jet = exprjet.eval_jet(expr, "s", c.s, 1, env)
            f[0] = jet.coeffs[0]
            f1_s = jet.coeffs[1]
        else:
            f[i] = exprjet.eval_jet(expr, "s", c.s, 0, env).coeffs[0]
    if flow.mode == INEXTENSIBLE:
        f1_s = inextensibility_rhs(c, fd, f[1])
        f[0] = solve_inextensible_f1(c, fd, f[1], flow.f1_at_0, rhs=f1_s)
    m = fd.num_vectors
    if m < n and np.max(np.abs(f[m:])) > 0.0:
        raise CurveFlowError(
            f"flow drives frame direction {m + 1}..{n} but only {m} frame vectors exist"
        )
    return f, f1_s


def velocity(state: SimState) -> np.ndarray:
    """Pointwise flow velocity sum_i f_i V_i, shape (n, N)."""
    m = state.frenet.num_vectors
    out = np.zeros_like(state.curve.points)
    term = np.empty_like(out)
    for i in range(m):
        out += np.multiply(state.f_values[i], state.frenet.frame[i], out=term)
    return out


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


def check_horizon(t0: float, dt: float, steps: int, t_horizon: float | None) -> None:
    """Raise ValueError if t0 + dt*steps passes ``t_horizon`` (if any) by more than rounding."""
    if t_horizon is not None and t0 + dt * steps > t_horizon * (1 + 1e-12):
        raise ValueError(f"dt*steps = {dt * steps:.6g} exceeds the time horizon {t_horizon:.6g}")


def evolve(
    initial: SimState,
    flow: FlowSpec,
    dt: float,
    steps: int,
    t_horizon: float | None = None,
) -> Trajectory:
    """Advance the curve by explicit RK4, rebuilding the frame per stage.

    Stops with an EvolutionError carrying the partial trajectory if the
    tangent turns null (NullCurveDeveloped), the curve loses genericity,
    goes non-finite, or changes total arclength by more than 50% in a step,
    or if a closed curve rebuilt from points fails the compatibility test
    (UnresolvedClosedFlow).

    Each internal RK stage's state is held until the next stage's state and
    velocity exist, so the allocator recycles its memory instead of
    returning it to the kernel (see the comment on ``stage_velocity``).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    check_horizon(initial.t, dt, steps, t_horizon)
    m = initial.frenet.num_vectors
    grid = initial.curve.grid
    closed = initial.curve.closed
    traj = Trajectory(states=[], dt=dt, flow=flow)

    def stage_state(points: np.ndarray, t: float) -> SimState:
        try:
            c = SampledCurve.from_points(points, grid, closed, m)
        except (NullCurveError, MixedCausalityError) as exc:
            # a causal sign change along u means the tangent crossed the null cone
            raise NullCurveDeveloped(str(exc), t=t, trajectory=traj) from exc
        except ValueError as exc:
            raise StabilityError(str(exc), t=t, trajectory=traj) from exc
        except CurveFlowError as exc:
            # Degeneracy mid-flight; genericity failures in frenet_apparatus
            # below propagate unwrapped.
            raise EvolutionError(str(exc), t=t, trajectory=traj) from exc
        try:
            return _build_state(c, flow, m, t)
        except IncompatibleClosedFlow as exc:
            raise UnresolvedClosedFlow(
                exc.residual, exc.tolerance, c.samples, t=t, trajectory=traj
            ) from exc

    # An internal stage's state is freed only once the next stage's state and
    # velocity exist, so the allocator hands its blocks on to the stage after.
    # Freed as soon as its velocity is read, they sit at the heap top, where
    # glibc trims them and the next stage faults them back in: a 10-step
    # N=4096 run takes 4x the pages its trajectory keeps, against 1.3-1.5x.
    # Freed before the next velocity array exists, they are split by it: 1.6-2x.
    held = None

    def stage_velocity(points: np.ndarray, t: float) -> np.ndarray:
        nonlocal held
        stage = stage_state(points, t)
        k = velocity(stage)
        held = stage
        return k

    # Every state in the trajectory, the first one included, is rebuilt by
    # the stencil derivative estimator: mixing jet-exact and stencil speeds
    # would bias arclength comparisons by O(h^2).
    state = stage_state(initial.curve.points, initial.t)
    traj.states.append(state)
    for step in range(steps):
        # times count steps from the start, so rounding does not accumulate
        t_mid, t_end = initial.t + (step + 0.5) * dt, initial.t + (step + 1) * dt
        p = state.curve.points
        k1 = velocity(state)
        k2 = stage_velocity(p + 0.5 * dt * k1, t_mid)
        k3 = stage_velocity(p + 0.5 * dt * k2, t_mid)
        k4 = stage_velocity(p + dt * k3, t_end)
        new_points = p + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        new_state = stage_state(new_points, t_end)
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
    """max_t |L(t) - L(0)| over the trajectory."""
    if not traj.states:
        raise ValueError("trajectory is empty")
    lengths = np.array([st.curve.total_length for st in traj.states])
    return float(np.max(np.abs(lengths - lengths[0])))

