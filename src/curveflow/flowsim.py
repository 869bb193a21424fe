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

``evolve`` hands each accepted state to one sink as it is accepted, and by
default that sink is a Trajectory that keeps every state.  ``cli``'s
``run`` and ``convergence`` pass one that feeds the timeseries and, a
block of states at a time, the checks instead, so they hold a window of
states, not the trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    from f_2, starting at 0 on the curve's first sample.  Every other entry
    is an expression.
    """

    speeds: tuple[Expr | None, ...]

    @classmethod
    def explicit(cls, speeds) -> "FlowSpec":
        return cls(tuple(_parse_speed(f) for f in speeds))

    @classmethod
    def inextensible(cls, higher_speeds) -> "FlowSpec":
        return cls((None,) + tuple(_parse_speed(f) for f in higher_speeds))

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

    def add(self, state: SimState) -> None:
        """Keeps the next accepted state: ``evolve``'s default ``into``."""
        self.states.append(state)


def solve_inextensible_f1(c: SampledCurve, rhs: np.ndarray) -> np.ndarray:
    """Integrate df_1/ds = rhs from 0 at the curve's first sample, where rhs
    is ``inextensibility_rhs``, e0 e1 f_2 k_1.

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
    f1 = cumulative_integral(integrand, c.h, c.quadrature)
    # a trapezoid table keeps scipy's -0.0 sums, where a Simpson table's +0.0
    # start clears them; adding +0.0 clears them on either rule
    f1 += 0.0
    return f1


def k1_terms(fd: FrenetData) -> tuple[float, np.ndarray | None]:
    """e0 e1 and k_1 as the rules below take them: (1.0, None) with one
    frame vector, which has no k_1."""
    if fd.num_vectors < 2:
        return 1.0, None
    return float(fd.signs[0] * fd.signs[1]), fd.curvatures[0]


def stacked_rule_terms(states: list[SimState]) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The e0 e1, f_2 and k_1 arguments of the rules below, stacked over states
    of one frame size: e0 e1 as a (b, 1) column, f_2 and k_1 as (b, N) rows,
    k_1 None with one frame vector, as in ``k1_terms``."""
    f2 = np.array([st.f_values[1] for st in states])
    if states[0].frenet.num_vectors < 2:
        return np.ones((len(states), 1)), f2, None
    e0e1 = np.array([[float(st.frenet.signs[0] * st.frenet.signs[1])] for st in states])
    return e0e1, f2, np.array([st.frenet.curvatures[0] for st in states])


def inextensibility_rhs(e0e1: float, f2: np.ndarray, k1: np.ndarray | None) -> np.ndarray:
    """The constraint right-hand side e0 e1 f_2 k_1, as (e0e1 * f_2) * k_1, on
    (N,) or (b, N) rows, e0e1 a float or a (b, 1) column; zero rows without
    k_1 (None).  The package's one copy of the product: see ``speed_rate``."""
    if k1 is None:
        return np.zeros(f2.shape)
    return e0e1 * f2 * k1


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
        e0e1, k1 = k1_terms(fd)
        f1_s = inextensibility_rhs(e0e1, f[1], k1)
        f[0] = solve_inextensible_f1(c, f1_s)
    m = fd.num_vectors
    if m < n and f[m:].any():  # a NaN is nonzero too
        i, k = np.argwhere(f[m:])[0] + (m, 0)
        raise CurveFlowError(
            f"flow drives frame direction {m + 1}..{n} but only {m} frame vectors exist: "
            f"speed f{i + 1} is {float(f[i, k])!r} at sample {k} (s={c.s[k]:.6g})"
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


def speed_rate(
    v: np.ndarray, f1_s: np.ndarray, e0e1: float, f2: np.ndarray, k1: np.ndarray | None
) -> np.ndarray:
    """``dv_dt_rhs``'s rule v f1_s - e0 e1 f2 v k1 (f1_s = df1/ds) on (N,) or
    (b, N) rows, as v * f1_s minus ``inextensibility_rhs`` of f_2 v: e0e1 is
    +-1, so scaling by it first is exact, and x - (+0.0) is x without k_1."""
    return v * f1_s - inextensibility_rhs(e0e1, f2 * v, k1)


def dv_dt_rhs(state: SimState) -> np.ndarray:
    """Predicted time derivative of the speed: df1/du - e0 e1 f2 v k1.

    On spacelike curves this equals the classical form
    e0 df1/du - e1 f2 v k1; on timelike curves the two differ by the
    overall sign e0 because <a_u, a_u> is -v^2 there, and only this form
    matches the measured dv/dt.  Both are reported by the speed-evolution
    check; this function returns the one that holds.
    """
    e0e1, k1 = k1_terms(state.frenet)
    return speed_rate(state.curve.speeds, state.f1_s, e0e1, state.f_values[1], k1)


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


def evolve(initial: SimState, flow: FlowSpec, dt: float, steps: int, into=None):
    """Advance the curve by explicit RK4, rebuilding the frame per stage.
    A scenario's time horizon is checked by its loader, ``cli._cross_validate``.

    Each accepted state, the initial one first, goes to ``into.add`` as it
    is accepted, and ``into`` is returned: by default a new Trajectory,
    which keeps every state (``cli.Run`` feeds the checks instead).

    Every failure ends in an EvolutionError carrying its time ``t`` and, as
    its ``trajectory``, ``into`` with the states accepted so far:
    NullCurveDeveloped if the tangent turns null,
    FrameBreakdown if the frame breaks down, StabilityError if the curve goes
    non-finite or changes total arclength by more than 50% in a step,
    UnresolvedClosedFlow if a closed curve rebuilt from points fails the
    compatibility test (with the integral from every other sample, which
    tells an under-resolved N from a flow that lost its periodic f1), and a
    plain EvolutionError for any other error of this package (a degenerate
    curve, a speed leaving its domain).

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
    traj = Trajectory(states=[], dt=dt, flow=flow) if into is None else into

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
                exc.residual, exc.tolerance, grid.shape[0], coarse_loop_integral(points, t), t=t, trajectory=traj
            ) from exc
        except CurveFlowError as exc:
            # a degenerate curve, a speed leaving its domain, a flow along a
            # frame direction that does not exist
            raise EvolutionError(str(exc), t=t, trajectory=traj) from exc

    def coarse_loop_integral(points: np.ndarray, t: float) -> float | None:
        """The compatibility integral of the stage points rebuilt from every
        other sample; None when N is odd or that rebuild fails otherwise."""
        if grid.shape[0] % 2:
            return None
        try:
            st = _build_state(SampledCurve.from_points(points[:, ::2], grid[::2], closed, m), flow, m, t)
        except IncompatibleClosedFlow as exc:
            return exc.residual
        except CurveFlowError:
            return None
        return loop_integral(st.f1_s * st.curve.speeds, st.curve)  # as solve_inextensible_f1 forms it

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
        # built directly: two ``dataclasses.replace`` calls took twice as
        # long (9.5 against 4.3 us at N=256)
        c = stage.curve
        curve = SampledCurve(
            c.grid, c.h, c.closed, points[None], c.speeds, c.s, c.total_length, c.char
        )
        return SimState(t, curve, stage.frenet, stage.f_values, stage.f1_s)

    # Every state in the trajectory, the first one included, is rebuilt by
    # the stencil derivative estimator: mixing jet-exact and stencil speeds
    # would bias arclength comparisons by O(h^2).  The initial points are
    # copied, so the first kept state does not pin the caller's stack.
    state = kept_state(initial.curve.points.copy(), initial.t)
    traj.add(state)
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
        traj.add(new_state)
        state = new_state
    return traj


def arclength_drift(traj: Trajectory) -> float:
    """max_t |L(t) - L(0)| over the trajectory (``running_drift``)."""
    if not traj.states:
        raise ValueError("trajectory is empty")
    return running_drift(traj.states, traj.states[0].curve.total_length)


def running_drift(states: list[SimState], first: float, drift: float = 0.0) -> float:
    """The larger of ``drift`` and max |L - first| over the states, as a
    running maximum, so it holds no table of lengths.  A NaN length anywhere
    reads NaN, and a NaN ``drift`` stays."""
    for st in states:
        gap = abs(st.curve.total_length - first)
        if gap > drift or gap != gap:  # a NaN drift stays: nothing compares above it
            drift = gap
    return float(drift)
