import dataclasses
import math
import platform
import subprocess
import sys

import numpy as np
import pytest

from curveflow import catalog, exprjet, flowsim
from curveflow.curvekit import sample
from curveflow.errors import (
    EvolutionError,
    FrameBreakdown,
    IncompatibleClosedFlow,
    NonFiniteCurveError,
    NullCurveDeveloped,
    StabilityError,
    UnresolvedClosedFlow,
)
from curveflow.flowsim import (
    FlowSpec,
    arclength_drift,
    default_dt,
    dv_dt_rhs,
    evaluate_speeds,
    evolve,
    inextensibility_rhs,
    initial_state,
    solve_inextensible_f1,
    velocity,
)
from curveflow.frenet import frenet_apparatus
from conftest import random_explicit_flow

TWO_PI = 2.0 * math.pi


def test_flow_spec_validation():
    flow = FlowSpec.explicit(["1", "0", "0"])
    flow.validate(3)
    with pytest.raises(ValueError):
        flow.validate(2)
    with pytest.raises(ValueError):
        FlowSpec.explicit(["sin(q)"]).validate(1)


def _solve_f1(c, f2, f1_at_0):
    return solve_inextensible_f1(c, inextensibility_rhs(c, frenet_apparatus(c), f2), f1_at_0)


def test_solve_f1_zero_normal_speed(circle_256):
    f1 = _solve_f1(circle_256, np.zeros(256), 0.25)
    assert np.allclose(f1, 0.25)


def test_solve_f1_straight_line_any_f2():
    c = sample(catalog.curve("line2", 64))  # completed frame, k1 = 0
    f1 = _solve_f1(c, np.sin(3.0 * c.s) + 2.0, 0.7)
    assert np.allclose(f1, 0.7)


def test_solve_f1_circle_sine(circle_256):
    f1 = _solve_f1(circle_256, np.sin(circle_256.s), 0.0)
    assert np.max(np.abs(f1 - (1.0 - np.cos(circle_256.s)))) < 1e-6


def test_solve_f1_incompatible_loop(circle_256):
    with pytest.raises(IncompatibleClosedFlow) as err:
        _solve_f1(circle_256, np.ones(256), 0.0)
    assert err.value.residual == pytest.approx(TWO_PI, rel=1e-6)


def test_evaluate_speeds_forms_the_f1_rhs_once(monkeypatch):
    # one evolve step builds five states (the rebuilt initial state, three
    # internal RK stages and the end state), each forming the constraint
    # right-hand side once and handing that very array to the f1 solver
    c = sample(catalog.curve("circle", 64))
    sine = catalog.flow("inextensible_sine", 3)
    st = initial_state(c, sine)
    ref = evolve(st, sine, 1e-3, 1)
    formed, integrated = [], []
    rhs, solve = flowsim.inextensibility_rhs, flowsim.solve_inextensible_f1

    def counted_rhs(*args):
        formed.append(rhs(*args))
        return formed[-1]

    def counted_solve(c, rhs, f1_at_0):
        integrated.append(rhs)
        return solve(c, rhs, f1_at_0)

    monkeypatch.setattr(flowsim, "inextensibility_rhs", counted_rhs)
    monkeypatch.setattr(flowsim, "solve_inextensible_f1", counted_solve)
    traj = evolve(st, sine, 1e-3, 1)
    assert len(formed) == 5
    assert all(a is b for a, b in zip(formed, integrated, strict=True))
    for ours, theirs in zip(traj.states, ref.states, strict=True):
        assert ours.f_values.tobytes() == theirs.f_values.tobytes()
        assert ours.f1_s.tobytes() == theirs.f1_s.tobytes()


def test_dv_dt_rhs_examples(circle_256):
    # synthesized profile makes the rate vanish identically
    sine = catalog.flow("inextensible_sine", 3)
    st = initial_state(circle_256, sine)
    assert np.max(np.abs(dv_dt_rhs(st))) < 1e-5

    shrink = catalog.flow("normal_shrink", 3)
    st2 = initial_state(circle_256, shrink)
    assert np.max(np.abs(dv_dt_rhs(st2) + 1.0)) < 1e-9

    zero = catalog.flow("zero", 3)
    st3 = initial_state(circle_256, zero)
    assert np.max(np.abs(dv_dt_rhs(st3))) == 0.0


def test_velocity_is_frame_combination(circle_256):
    flow = catalog.flow("rigid_rotation", 3)
    st = initial_state(circle_256, flow)
    w = velocity(st)
    p = circle_256.points
    expected = np.stack([np.zeros(256), -p[2], p[1] - 1.0])
    assert np.max(np.abs(w - expected)) < 1e-12


def _velocity_by_terms(state):
    """sum_i f_i V_i as a loop from +0.0 adding one product at a time."""
    out = np.zeros_like(state.curve.points)
    for i in range(state.frenet.num_vectors):
        out += state.f_values[i] * state.frenet.frame[i]
    return out


@pytest.mark.parametrize("frame_vectors", [3, 1])
def test_velocity_matches_the_term_loop_bit_for_bit(frame_vectors):
    # m = n, and m < n as in line_translate (its rows past m are zero speeds)
    c = sample(catalog.curve("line3" if frame_vectors == 1 else "circle", 64))
    st = initial_state(c, FlowSpec.explicit(["sin(s)", "0", "0"]), frame_vectors)
    rng = np.random.default_rng(frame_vectors)
    shape = st.frenet.frame.shape
    frame = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 6, shape)
    f = rng.standard_normal(st.f_values.shape)
    # products of +-0.0 on every combination of signs, summed across terms
    frame[:, :, :8] = [0.0, -0.0, 0.0, -0.0, 1.0, -1.0, 0.0, -0.0]
    f[:, :8] = [0.0, -0.0, -1.0, 1.0, -0.0, 0.0, -0.0, -0.0]
    st = dataclasses.replace(st, frenet=dataclasses.replace(st.frenet, frame=frame), f_values=f)
    assert velocity(st).tobytes() == _velocity_by_terms(st).tobytes()
    # columns 2..6 sum only -0.0 products, which read +0.0 from a +0.0 start
    assert velocity(st)[:, :8].tobytes() == np.zeros((3, 8)).tobytes()


def _speeds_by_jets(flow, c, fd, t):
    """``evaluate_speeds`` with every speed, constants too, evaluated as a jet."""
    f, f1_s = np.zeros((len(flow.speeds), c.samples)), np.zeros(c.samples)
    for i, expr in enumerate(flow.speeds):
        if expr is not None:
            jet = exprjet.eval_jet(expr, "s", c.s, 1 if i == 0 else 0, {"t": t})
            f[i] = jet.coeffs[0]
            if i == 0:
                f1_s[:] = jet.coeffs[1]
    if flow.speeds[0] is None:
        f1_s = inextensibility_rhs(c, fd, f[1])
        f[0] = solve_inextensible_f1(c, f1_s, flow.f1_at_0)
    return f, f1_s


@pytest.mark.parametrize("flow", [
    FlowSpec.explicit(["2.5", "0", "-1.5"]),
    FlowSpec.explicit(["0", "sin(s)", "1e-300"]),
    FlowSpec.explicit([exprjet.Lit(-0.0), "t*s", "3"]),
    FlowSpec.inextensible(["1", "0"], f1_at_0=0.25),
    FlowSpec.inextensible(["0.5", "-(1-t)^2*s"]),
])
def test_constant_speeds_match_the_jet_path_bit_for_bit(flow):
    c = sample(catalog.curve("timelike_helix", 64))  # open: f2 = const is compatible
    fd = frenet_apparatus(c)
    for t in (0.0, 0.3):
        f, f1_s = evaluate_speeds(flow, c, fd, t)
        ref_f, ref_f1_s = _speeds_by_jets(flow, c, fd, t)
        assert f.tobytes() == ref_f.tobytes()
        assert f1_s.tobytes() == ref_f1_s.tobytes()


def test_evolve_translates_line():
    c = sample(catalog.curve("line3", 64))
    flow = catalog.flow("tangent_translate", 3)
    st = initial_state(c, flow, frame_vectors=1)
    traj = evolve(st, flow, 1e-3, 1000)
    moved = traj.states[-1].curve.points - traj.states[0].curve.points
    assert np.max(np.abs(moved - np.array([[0.0], [1.0], [0.0]]))) < 1e-12
    assert arclength_drift(traj) < 1e-9


def test_evolve_rigid_rotation_preserves_length(rigid_traj_short):
    assert arclength_drift(rigid_traj_short) < 1e-6


def test_evolve_shrink_rate(shrink_traj):
    drift = arclength_drift(shrink_traj)
    assert abs(drift / 0.1 - TWO_PI) < 1e-3
    # exact solution: L(t) = 2*pi*(1 - t)
    lengths = np.array([s.curve.total_length for s in shrink_traj.states])
    times = np.array([s.t for s in shrink_traj.states])
    assert np.max(np.abs(lengths - TWO_PI * (1.0 - times))) < 1e-4


def test_evolve_synthesized_flow_reruns_solver_each_stage(sine_traj_short):
    # the synthesized profile stays consistent: pointwise rate stays ~0
    for st in sine_traj_short.states[:: len(sine_traj_short.states) // 4]:
        assert np.max(np.abs(dv_dt_rhs(st))) < 1e-5


def test_trajectory_bookkeeping(rigid_traj_short):
    assert len(rigid_traj_short.states) == 101
    times = [st.t for st in rigid_traj_short.states]
    assert np.allclose(np.diff(times), 1e-3)
    k1 = rigid_traj_short.states[0].frenet.curvatures[0]
    assert float(np.max(np.abs(k1))) == pytest.approx(1.0, abs=1e-6)


def test_state_times_do_not_drift():
    # step i sits at exactly i * dt; summing dt step by step reads
    # 0.0720000000000001 at step 72
    dt = 1e-3
    curve = sample(catalog.curve("circle", 16))
    flow = catalog.flow("zero", curve.n)
    traj = evolve(initial_state(curve, flow), flow, dt, 250)
    assert [st.t for st in traj.states] == [i * dt for i in range(251)]


def test_timestep_refinement_at_least_fourth_order():
    c = sample(catalog.curve("circle", 128))
    flow = catalog.flow("rigid_rotation", 3)
    drifts = []
    for dt in (0.2, 0.1, 0.05):
        st = initial_state(c, flow)
        traj = evolve(st, flow, dt, int(round(0.8 / dt)))
        drifts.append(arclength_drift(traj))
    for a, b in zip(drifts, drifts[1:]):
        assert a / b > 8.0, drifts


def test_speed_law_on_random_explicit_flows():
    # the measured dv/dt must track the predicted rate on generic curves
    from curveflow.verify import check_speed_evolution

    for curve_name, n_s, dt, steps in (
        ("timelike_helix", 128, 5e-4, 8),
        ("hyperbola", 128, 1e-3, 20),
    ):
        c = sample(catalog.curve(curve_name, n_s))
        for seed in (1, 2):
            flow = random_explicit_flow(c.n, seed)
            traj = evolve(initial_state(c, flow), flow, dt, steps)
            r = check_speed_evolution(traj).residuals[0]["speed_evolution"]
            assert r < 5e-3, (curve_name, seed, r)


def _names_its_time_once(exc):
    """The message of an EvolutionError ends in its time, written once."""
    text = str(exc)
    return text.count("t=") == 1 and text.endswith(f" (at t={exc.t:.6g})")


def test_evolve_incompatible_flow_raises(circle_256):
    flow = FlowSpec.inextensible(["1", "0"])
    with pytest.raises(IncompatibleClosedFlow):
        initial_state(circle_256, flow)


def test_evolve_develops_null_tangent():
    # Contracting the speed of a timelike curve drives the tangent null; at the
    # default tolerance it crosses the cone between samples first, which ends
    # in the same named error.
    c = sample(catalog.curve("hyperbola", 64))
    flow = FlowSpec.explicit(["0", "-3"])
    st = initial_state(c, flow)
    with pytest.raises(NullCurveDeveloped) as err:
        evolve(st, flow, 2e-3, 3000)
    assert err.value.trajectory is not None
    assert 0 < len(err.value.trajectory.states) < 3001


def test_evolve_stability_guard(circle_256):
    flow = catalog.flow("normal_shrink", 3)
    st = initial_state(circle_256, flow)
    with pytest.raises(StabilityError) as err:
        evolve(st, flow, 0.7, 2)  # one step shrinks the circle by 70%
    assert err.value.trajectory is not None
    assert _names_its_time_once(err.value)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_evolve_turns_a_non_finite_stage_into_a_stability_error(circle_256):
    # exp(750) overflows at the first midpoint, so the next stage's points are not finite
    flow = FlowSpec.explicit(["0", "exp(1000*t)", "0"])
    st = initial_state(circle_256, flow)
    with pytest.raises(StabilityError) as err:
        evolve(st, flow, 1.5, 1)
    assert str(err.value) == "curve evaluation produced non-finite values (at t=0.75)"
    assert isinstance(err.value.__cause__, NonFiniteCurveError)
    assert len(err.value.trajectory.states) == 1


def test_evolve_names_an_unresolved_closed_flow():
    # The jet-built initial state passes the compatibility test at N=32, but
    # the stencil rebuild of the same points at t0 misses it (2.03e-5 against
    # a tolerance of 6.28e-6): a discrete residual, not a missing periodic f1.
    c = sample(catalog.curve("circle", 32))
    flow = catalog.flow("inextensible_sine", 3)
    st = initial_state(c, flow)
    with pytest.raises(UnresolvedClosedFlow) as err:
        evolve(st, flow, 1e-3, 10)
    assert err.value.t == 0.0
    assert len(err.value.trajectory.states) == 0
    assert err.value.samples == 32
    assert err.value.residual > err.value.tolerance
    assert "N=32" in str(err.value)


@pytest.mark.parametrize(
    "flow, error",
    [
        # Speeds that vanish at t = 0 leave the second stage's points at the
        # initial ones; the third stage, built at t0 + dt/2 from the second
        # stage's velocity, tilts the circle's tangent (slope 2 at the peaks)
        # across the light cone along the timelike binormal.
        (FlowSpec.explicit(["0", "0", "4e6*t*sin(2*s)"]), NullCurveDeveloped),
        # f2 = sin(s) + t is compatible at t = 0 only: at t0 + dt/2 the loop
        # integral of k f2 ds is 2 pi t = 3.1e-3, far above its tolerance.
        (FlowSpec.inextensible(["sin(s) + t", "0"]), UnresolvedClosedFlow),
        # Half that binormal speed tilts the third stage less: its frame
        # vector V_2 changes causal sign while the tangent stays spacelike.
        (FlowSpec.explicit(["0", "0", "2e6*t*sin(2*s)"]), FrameBreakdown),
    ],
    ids=["null_tangent", "closed_compatibility", "frame_breakdown"],
)
def test_internal_stage_failure_is_raised_from_that_stage(flow, error):
    # Every internal RK stage runs every validation: the error carries the
    # stage time t0 + dt/2, not the next accepted time t0 + dt.
    c = sample(catalog.curve("circle", 64))
    dt = 1e-3
    with pytest.raises(error) as err:
        evolve(initial_state(c, flow), flow, dt, 3)
    assert err.value.t == 0.5 * dt
    assert len(err.value.trajectory.states) == 1  # the initial state only
    assert _names_its_time_once(err.value)


@pytest.mark.parametrize(
    "curve, speeds, frame_vectors, steps, t, times, message",
    [
        # sqrt(0.002 - t) leaves its domain at the stage t = 0.0025
        ("circle", ["0", "sqrt(0.002 - t)", "0"], None, 5, 0.0025, [0.0, 0.001, 0.002],
         "sqrt of a negative value"),
        # the third speed turns on at the first internal stage, t = dt/2,
        # along a direction a one-vector frame does not have
        ("line3", ["1", "0", "0.1*t"], 1, 3, 0.0005, [0.0], "flow drives frame direction"),
    ],
    ids=["speed_domain", "missing_frame_direction"],
)
def test_any_stage_failure_is_an_evolution_error(curve, speeds, frame_vectors, steps, t, times,
                                                 message):
    c = sample(catalog.curve(curve, 64))
    flow = FlowSpec.explicit(speeds)
    with pytest.raises(EvolutionError, match=message) as err:
        evolve(initial_state(c, flow, frame_vectors), flow, 1e-3, steps)
    assert type(err.value) is EvolutionError
    assert err.value.t == t
    assert [st.t for st in err.value.trajectory.states] == times
    assert _names_its_time_once(err.value)


def _distinct_bytes(state):
    """Bytes of the memory blocks a state's own arrays keep alive: each array
    is followed to the array that owns its data.  The grid, which every
    state shares, and the signs are left out."""

    def owner(a):
        while isinstance(a.base, np.ndarray):
            a = a.base
        return a

    c, fd = state.curve, state.frenet
    arrays = (c.derivs, c.speeds, c.s, fd.frame, fd.curvatures, state.f_values, state.f1_s)
    return sum({id(a): a.nbytes for a in map(owner, arrays)}.values())


def test_kept_states_hold_points_not_the_derivative_stack():
    # points (n), frame (m n), curvatures (m - 1), speeds, s, f_values (n)
    # and f1_s: 8 N (2n + m n + m + 2) bytes, 160 N for n = m = 3.  Keeping
    # the stencil rows of ``derivs`` (232 N) or a row view of a speed's jet
    # (one N more) fails.
    N, n, m = 256, 3, 3
    c = sample(catalog.curve("circle", N))
    flow = catalog.flow("inextensible_sine", 3)
    states = evolve(initial_state(c, flow), flow, 1e-3, 5).states
    flow = FlowSpec.explicit(["0", "sqrt(0.002 - t)", "0"])
    with pytest.raises(EvolutionError) as err:
        evolve(initial_state(c, flow), flow, 1e-3, 5)
    partial = err.value.trajectory.states
    assert len(states) == 6 and len(partial) == 3
    for st in states + partial:
        assert st.curve.deriv_order == 0
        assert _distinct_bytes(st) == 8 * N * (2 * n + m * n + m + 2)


# Run in a fresh interpreter: glibc raises its trim threshold whenever it
# frees a block it had mapped on its own, so after other tests in this
# process the trimming this bounds no longer happens.
_FAULT_PROBE = """
import resource
import numpy as np
from curveflow import catalog, flowsim
from curveflow.curvekit import sample

c = sample(catalog.curve("circle", 4096))
flow = catalog.flow("inextensible_sine", 3)
st = flowsim.initial_state(c, flow)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
traj = flowsim.evolve(st, flow, 1e-3, 10)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
held = {id(v): v for state in traj.states for obj in (state, state.curve, state.frenet)
        for v in vars(obj).values() if isinstance(v, np.ndarray)}
print(faults, sum(a.nbytes for a in held.values()) / resource.getpagesize())
"""


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="bounds the page faults of glibc's allocator"
)
def test_evolve_recycles_stage_memory():
    # An internal RK stage state freed as soon as its velocity is read is
    # trimmed off the heap and faulted back in: 4.1 times the pages the
    # trajectory's arrays hold, where recycled blocks took 1.59 times over 5
    # fresh runs of the probe (1.56 before velocity formed its terms in one
    # (m, n, N) product; earlier runs read 1.51-1.89: the ratio moves with
    # the environment, not only with the code).
    proc = subprocess.run([sys.executable, "-c", _FAULT_PROBE], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    faults, pages = map(float, proc.stdout.split())
    assert faults <= 2 * pages, (faults, pages)


def test_evolve_argument_validation(circle_256):
    flow = catalog.flow("zero", 3)
    st = initial_state(circle_256, flow)
    with pytest.raises(ValueError):
        evolve(st, flow, -1e-3, 10)
    with pytest.raises(ValueError):
        evolve(st, flow, 1e-3, 0)
    with pytest.raises(TypeError):  # the horizon is the scenario loader's to check
        evolve(st, flow, 1e-3, 10, t_horizon=5e-3)


def test_truncated_frame_rejects_active_higher_speeds():
    c = sample(catalog.curve("line3", 64))
    flow = FlowSpec.explicit(["1", "1", "0"])
    with pytest.raises(Exception, match="frame"):
        initial_state(c, flow, frame_vectors=1)


def test_default_dt_scales_with_speed(circle_256):
    slow = initial_state(circle_256, catalog.flow("zero", 3))
    fast = initial_state(circle_256, FlowSpec.explicit(["10", "0", "0"]))
    assert default_dt(slow) == pytest.approx(0.1 * circle_256.h, rel=1e-6)
    assert default_dt(fast) == pytest.approx(0.01 * circle_256.h, rel=1e-6)


def test_evaluate_speeds_time_dependence(circle_256):
    fd = frenet_apparatus(circle_256)
    flow = FlowSpec.explicit(["t*s", "0", "0"])
    f0, f1s0 = evaluate_speeds(flow, circle_256, fd, 0.0)
    f2, f1s2 = evaluate_speeds(flow, circle_256, fd, 2.0)
    assert np.max(np.abs(f0[0])) == 0.0
    assert np.allclose(f2[0], 2.0 * circle_256.s)
    assert np.allclose(f1s2, 2.0)


def test_arclength_drift_single_state(circle_256):
    from curveflow.flowsim import Trajectory

    flow = catalog.flow("zero", 3)
    st = initial_state(circle_256, flow)
    traj = Trajectory(states=[st], dt=1.0, flow=flow)
    assert arclength_drift(traj) == 0.0


def test_arclength_drift_is_the_maximum_over_the_length_table(shrink_traj):
    # the running maximum reads the number the whole table of lengths gives,
    # and a NaN length anywhere, the first included, reads NaN
    lengths = np.array([st.curve.total_length for st in shrink_traj.states])
    assert arclength_drift(shrink_traj) == float(np.max(np.abs(lengths - lengths[0])))
    for step in (0, 50, len(shrink_traj.states) - 1):
        states = list(shrink_traj.states)
        curve = dataclasses.replace(states[step].curve, total_length=float("nan"))
        states[step] = dataclasses.replace(states[step], curve=curve)
        assert np.isnan(arclength_drift(dataclasses.replace(shrink_traj, states=states)))
