"""Closed-form solutions of three bundled circle scenarios, checked at every step.

The unit circle X(u) = (0, cos u, sin u) evolves exactly under:

- ``circle_rigid_rotation.json``, explicit speeds f1 = 1 - cos s, f2 = sin s:
  f1 V1 + f2 V2 = (0, -sin s, cos s - 1) = J (X - C), the unit-rate rotation
  about C = (x2, x3) = (1, 0).  A rigid motion keeps s, so the point of
  sample u is C + R(t) (X(u, 0) - C), and k1 = 1.
- ``circle_inextensible_sine.json``, f2 = sin s with f1 synthesized from
  df1/ds = e0 e1 f2 k1 = sin s and f1(0) = 0: f1 = 1 - cos s, the same
  rotation.  On the explicit case that f1 check would be tautological.
- ``circle_normal_shrink.json``, f2 = 1: the circle of radius 1 - t, with
  k1 = 1 / (1 - t).

The reference is built from the rotation formula alone, not from the package.
Each bound is at most twice the value measured at N = 128 and 256 with the
scenario's own dt and steps; the two grids also fix the convergence factors.

One open curve moves non-rigidly: the shrinking timelike coil
X(u, t) = (sqrt(1 + r^2) u, r cos u, r sin u), r = 1 - t, on [0, 2 pi].  It
keeps unit speed, so it is inextensible; k1 = r and k2 = sqrt(1 + r^2), and
its speeds are f2 = 1 and f3 = -r^2 s / sqrt(1 + r^2) with f1 synthesized.
It runs the generic open frame path (no completed vector, one-sided end
stencils) that the circles do not.  Over the middle third of the curve,
max over t of |k1 - r| reads 6.60e-3, 1.63e-3, 4.05e-4 and 1.01e-4 at
N = 64, 128, 256 and 512 (T = 0.1, dt = 2.5e-3 * 64 / N): second order.
|k2 - sqrt(1 + r^2)| reads 7.00e-3, 1.73e-3, 4.29e-4 and 1.55e-4, so its
last factor falls from about 4 to 2.77.  The ends do not converge, and are
not bounded here: in k1 at the final state the first eighth of the curve
stays at 5.3e-2 for N >= 128 and the second eighth at 7.3e-3, and the last
eighth, maximized over t, at 1.6e-1 to 2.1e-1 (see ROADMAP, F8).

One closed curve moves non-rigidly in E_1^5: the Clifford flow
X(u, t) = (0, cos θ cos u, cos θ sin u, ½ sin θ cos 2u, ½ sin θ sin 2u),
θ = π/4 + t, on [0, 2π).  |X_u| = 1 at every t, so s = u stays fixed and the
flow is inextensible.  V1..V4 are spacelike and V5 is the completed timelike
axis (signs +, +, +, +, -); f1 = f2 = f3 = f5 = 0 and
f4 = sqrt(3 sin 2t + 5) / (2 sqrt 2).  ``test_clifford_flow_is_the_sympy_derivation``
derives these and the curvatures from the Gram determinants of the
u-derivatives of X.  Over every state and sample the curvature error reads
2.02e-2 and 4.92e-3 at N = 32 and 64 (T = 0.1, dt = 2.5e-3 * 64 / N), and the
point error 1.06e-3 and 2.62e-4: second order.  It is the only n = 5 run
under evolution, with a completed timelike last vector that moves.  On a
ladder over N = 16, 32 and 64 every reading of the five checks that is not
exactly zero falls at second order (fitted orders 1.94 to 2.47), the
failing ``speed_evolution`` and ``iff_condition`` drift among them: their
misses are discretization error.

Its open twin X = (sqrt(1 + 2 r^2) u, r cos u, r sin u, (r/2) cos 2u,
(r/2) sin 2u), r = 1 - t, on [0, 2 pi], is timelike and inextensible too,
but its one-sided end closures are O(1) wrong (ROADMAP F2), and ``evolve``
ends in ``NullCurveDeveloped`` long before T = 0.1: a strict xfail until
ROADMAP item 2 mends the ends.
"""

import functools
import json
import math

import numpy as np
import pytest
import sympy as sp

from curveflow import verify
from curveflow.cli import build_curve_spec, build_flow, bundled_scenario_path
from curveflow.curvekit import CLOSED, OPEN, CurveSpec, sample
from curveflow.errors import NullCurveDeveloped
from curveflow.flowsim import FlowSpec, evolve, initial_state

ROTATIONS = ["circle_rigid_rotation.json", "circle_inextensible_sine.json"]
# N -> bound on max |X - X_exact| and on max |k1 - 1| over every step and sample
POINTS_BOUND = {128: 5.9e-7, 256: 3.7e-8}
K1_BOUND = {128: 6.4e-5, 256: 1.58e-5}
F1_BOUND = {128: 6.9e-7, 256: 4.3e-8}


def _evolve(name, samples):
    """The whole trajectory of a bundled scenario at ``samples`` points, from
    the inputs ``cli.execute`` builds."""
    doc = json.loads(bundled_scenario_path(name).read_text())
    doc["curve"]["samples"] = samples
    flow = build_flow(doc)
    state = initial_state(sample(build_curve_spec(doc)), flow)
    return evolve(state, flow, doc["integrator"]["dt"], doc["integrator"]["steps"])


def _rotation_errors(traj):
    """max over states of |X - X_exact| and |k1 - 1|."""
    p0 = traj.states[0].curve.points
    y, z = p0[1] - 1.0, p0[2]  # X(u, 0) - C
    points = k1 = 0.0
    for st in traj.states:
        c, s = np.cos(st.t), np.sin(st.t)
        exact = np.array([p0[0], 1.0 + c * y - s * z, s * y + c * z])
        points = max(points, np.max(np.abs(st.curve.points - exact)))
        k1 = max(k1, np.max(np.abs(st.frenet.curvatures[0] - 1.0)))
    return points, k1


@pytest.mark.parametrize("name", ROTATIONS)
def test_rotation_about_one_zero_at_every_step(name):
    errors = {n: _rotation_errors(_evolve(name, n)) for n in (128, 256)}
    for n, (points, k1) in errors.items():
        assert points < POINTS_BOUND[n], (n, points)
        assert k1 < K1_BOUND[n], (n, k1)
    # measured: the points fall 15.9x, k1 4.0x (rigid) and 4.2x (sine)
    assert errors[128][0] > 12.0 * errors[256][0]
    assert errors[128][1] > 3.5 * errors[256][1]


@pytest.mark.parametrize("n", [128, 256])
def test_synthesized_f1_is_one_minus_cos_s(n):
    traj = _evolve("circle_inextensible_sine.json", n)
    err = max(np.max(np.abs(st.f_values[0] - (1.0 - np.cos(st.curve.s)))) for st in traj.states)
    assert err < F1_BOUND[n]


@pytest.mark.parametrize("n", [128, 256])
def test_normal_shrink_radius_and_curvature(n):
    # measured: k1 within 2.6e-12 (N=128) and 7.4e-12 (N=256), the radius
    # within 5.2e-15: the circle stays a circle, so only rounding remains
    traj = _evolve("circle_normal_shrink.json", n)
    for st in traj.states:
        radius = np.hypot(st.curve.points[1], st.curve.points[2])
        assert np.max(np.abs(radius - (1.0 - st.t))) < 1.0e-14
        assert np.max(np.abs(st.frenet.curvatures[0] - 1.0 / (1.0 - st.t))) < 1.4e-11


COIL = ["sqrt(2)*u", "cos(u)", "sin(u)"]
COIL_SPEEDS = ["1", "-(1-t)^2*s/sqrt(1+(1-t)^2)"]
# N -> (k1, k2) error over the middle third, twice the measured value
COIL_BOUND = {64: (1.32e-2, 1.40e-2), 128: (3.3e-3, 3.5e-3), 256: (8.1e-4, 8.6e-4),
              512: (2.0e-4, 3.1e-4)}


def _coil_errors(samples):
    """max over states of the middle-third |k1 - r| and |k2 - sqrt(1 + r^2)|."""
    spec = CurveSpec.from_strings(COIL, (0.0, 2.0 * math.pi), OPEN, samples)
    flow = FlowSpec.inextensible(COIL_SPEEDS)
    dt = 2.5e-3 * 64 / samples
    traj = evolve(initial_state(sample(spec), flow), flow, dt, round(0.1 / dt))
    middle = slice(samples // 3, 2 * samples // 3)
    k1 = k2 = 0.0
    for st in traj.states:
        r = 1.0 - st.t
        k = st.frenet.curvatures[:, middle]
        k1 = max(k1, float(np.max(np.abs(k[0] - r))))
        k2 = max(k2, float(np.max(np.abs(k[1] - math.sqrt(1.0 + r * r)))))
    return k1, k2


def test_shrinking_timelike_coil_curvatures_converge_at_second_order():
    errors = {n: _coil_errors(n) for n in COIL_BOUND}
    for n, (k1, k2) in errors.items():
        assert k1 < COIL_BOUND[n][0], (n, k1)
        assert k2 < COIL_BOUND[n][1], (n, k2)
    for coarse, fine in ((64, 128), (128, 256), (256, 512)):
        assert errors[coarse][0] > 3.5 * errors[fine][0], errors
        # k2's last factor is 2.77: its middle third meets the ends' error first
        assert errors[coarse][1] > (3.5 if fine < 512 else 2.5) * errors[fine][1], errors


CLIFFORD = ["0", "cos(pi/4)*cos(u)", "cos(pi/4)*sin(u)", "sin(pi/4)*cos(2*u)/2", "sin(pi/4)*sin(2*u)/2"]
CLIFFORD_F4 = "sqrt(3*sin(2*t)+5)/(2*sqrt(2))"
# N -> (curvature, point) error bound over every state and sample, twice the measured value
CLIFFORD_BOUND = {32: (4.0e-2, 2.12e-3), 64: (9.8e-3, 5.2e-4)}


def _clifford_closed_form(u, t):
    """The points X(u, t), the speed f4 and the curvatures k1..k4 of the Clifford flow."""
    theta, sin2t = math.pi / 4 + t, np.sin(2.0 * t)
    points = [0.0 * u, np.cos(theta) * np.cos(u), np.cos(theta) * np.sin(u),
              np.sin(theta) * np.cos(2.0 * u) / 2.0, np.sin(theta) * np.sin(2.0 * u) / 2.0]
    f4 = np.sqrt(3.0 * sin2t + 5.0) / (2.0 * math.sqrt(2.0))
    k = [np.sqrt(6.0 * sin2t + 10.0) / 2.0,
         3.0 * np.sqrt(np.cos(4.0 * t) + 1.0) / (2.0 * np.sqrt(3.0 * sin2t + 5.0)),
         2.0 * math.sqrt(2.0) / np.sqrt(3.0 * sin2t + 5.0),
         0.0 * t]
    return points, f4, k


def test_clifford_flow_is_the_sympy_derivation():
    # With D_i the Gram determinant of the first i u-derivatives of X
    # (D_0 = 1), a unit-speed curve has k_i = sqrt(D_{i-1} D_{i+1}) / D_i.
    # X_t is orthogonal to the first three derivatives and to the time axis,
    # so f1 = f2 = f3 = f5 = 0, and f4 = <X_t, V4> is |X_t| with the sign of
    # <X_t, d^4X/du^4>.  Each closed form is compared with the derivation on
    # a grid of (u, t).
    u, t = sp.symbols("u t", real=True)
    theta = sp.pi / 4 + t
    X = sp.Matrix([0, sp.cos(theta) * sp.cos(u), sp.cos(theta) * sp.sin(u),
                   sp.sin(theta) * sp.cos(2 * u) / 2, sp.sin(theta) * sp.sin(2 * u) / 2])
    G = sp.diag(-1, 1, 1, 1, 1)

    def inner(a, b):
        return (a.T * G * b)[0]

    D = [X.diff(u, j) for j in range(1, 6)]
    Xt = X.diff(t)
    gram = [sp.Integer(1)] + [
        sp.Matrix(i, i, lambda a, b: inner(D[a], D[b])).det(method="berkowitz") for i in range(1, 6)
    ]
    derived = {
        "speed^2": inner(D[0], D[0]),
        "f1..f3": [inner(Xt, d) for d in D[:3]],
        "f5": Xt[0],
        "f4^2": inner(Xt, Xt),
        "sign f4": inner(Xt, D[3]),
        "k1..k3": [sp.sqrt(gram[i - 1] * gram[i + 1]) / gram[i] for i in range(1, 4)],
        "D5/D4": gram[5] / gram[4],
    }
    U, T = np.meshgrid(np.linspace(0.0, 2.0 * math.pi, 13), np.linspace(0.0, 0.1, 5))
    at = {}
    for name, expr in derived.items():
        values = sp.lambdify((u, t), expr, "numpy")(U, T)
        at[name] = np.array([np.broadcast_to(v, U.shape) for v in values] if isinstance(expr, list)
                            else np.broadcast_to(values, U.shape))
    _, f4, k = _clifford_closed_form(U, T)
    np.testing.assert_allclose(at["speed^2"], 1.0, rtol=0, atol=1e-15)  # s = u: inextensible
    np.testing.assert_allclose(at["f1..f3"], 0.0, rtol=0, atol=1e-15)
    np.testing.assert_array_equal(at["f5"], 0.0)
    np.testing.assert_allclose(np.sqrt(at["f4^2"]), f4, rtol=1e-14)
    assert np.all(at["sign f4"] > 1.0)
    np.testing.assert_allclose(at["k1..k3"], k[:3], rtol=1e-13)
    # the fifth derivative lies in the span of the first four (X spans four
    # axes), so D_5 = 0 and k4 = 0
    np.testing.assert_allclose(at["D5/D4"], 0.0, rtol=0, atol=1e-11)


@functools.cache
def _clifford(samples):
    spec = CurveSpec.from_strings(CLIFFORD, (0.0, 2.0 * math.pi), CLOSED, samples)
    flow = FlowSpec.explicit(["0", "0", "0", CLIFFORD_F4, "0"])
    state = initial_state(sample(spec), flow)
    assert state.frenet.signs.tolist() == [1, 1, 1, 1, -1] and state.frenet.completed_last
    dt = 2.5e-3 * 64 / samples
    return evolve(state, flow, dt, round(0.1 / dt))


def _clifford_errors(traj):
    """max over states and samples of the curvature and the point error."""
    k_err = points_err = 0.0
    for st in traj.states:
        points, _, k = _clifford_closed_form(st.curve.grid, st.t)
        k_err = max(k_err, max(float(np.max(np.abs(st.frenet.curvatures[i] - k[i]))) for i in range(4)))
        points_err = max(points_err, float(np.max(np.abs(st.curve.points - np.array(points)))))
    return k_err, points_err


def test_clifford_flow_in_e15_converges_at_second_order():
    errors = {n: _clifford_errors(_clifford(n)) for n in CLIFFORD_BOUND}
    for n, (k_err, points_err) in errors.items():
        assert k_err < CLIFFORD_BOUND[n][0], (n, k_err)
        assert points_err < CLIFFORD_BOUND[n][1], (n, points_err)
    # measured: both fall 4.1x
    assert errors[32][0] > 3.5 * errors[64][0], errors
    assert errors[32][1] > 3.5 * errors[64][1], errors


@pytest.mark.parametrize("samples", sorted(CLIFFORD_BOUND))
def test_clifford_flow_blocks_of_states_give_the_reports_of_single_states(samples, monkeypatch):
    # the m = 5 frame through the checks' block paths (flip tests, jets,
    # gaps and rows per block of states) against blocks of one state
    traj = _clifford(samples)
    reports = []
    for blocks in (verify.BLOCK_STATES, 1):
        monkeypatch.setattr(verify, "BLOCK_STATES", blocks)
        reports.append([json.dumps(check(traj).to_json_dict()) for check in verify.CHECKS.values()])
    assert reports[0] == reports[1]


# readings that read exactly 0 at every level: f1 = f2 = 0, and V5 is the fixed time axis with k4 = 0
CLIFFORD_ZEROS = {"pointwise", "v1_coefficient_last", "k4_psi_metric", "k4_psi_classical"}


def test_clifford_flow_checks_converge_at_second_order():
    # the five checks on a ladder over N = 16, 32, 64 (dt = 2.5e-3 * 64 / N,
    # T = 0.1): every reading but the exact zeros has a fitted order of at
    # least 1.8 (measured 1.94 to 2.47), including speed_evolution and the
    # iff drift, which miss their default tolerances at every level
    for name, check in verify.CHECKS.items():
        merged = verify.merge_reports([check(_clifford(n)) for n in (16, 32, 64)])
        for reading, order in merged.orders.items():
            if reading in CLIFFORD_ZEROS:
                assert order is None and all(row[reading] == 0.0 for row in merged.residuals), reading
            else:
                assert order >= 1.8, (name, reading, order)


TWIN = ["sqrt(3)*u", "cos(u)", "sin(u)", "cos(2*u)/2", "sin(2*u)/2"]
TWIN_SPEEDS = ["2/sqrt(5)", "-10*(1-t)^2*s/sqrt(25*(1-t)^2+17)", "3*sqrt(5)/10",
               "-6*(1-t)^2*s/sqrt(50*(1-t)^4+59*(1-t)^2+17)"]


def _twin_points_error(samples):
    """max over states of the middle-third |X - X_exact| of the open twin."""
    spec = CurveSpec.from_strings(TWIN, (0.0, 2.0 * math.pi), OPEN, samples)
    flow = FlowSpec.inextensible(TWIN_SPEEDS)
    dt = 2.5e-3 * 64 / samples
    traj = evolve(initial_state(sample(spec), flow), flow, dt, round(0.1 / dt))
    middle = slice(samples // 3, 2 * samples // 3)
    err = 0.0
    for st in traj.states:
        u, r = st.curve.grid[middle], 1.0 - st.t
        exact = np.array([math.sqrt(1.0 + 2.0 * r * r) * u, r * np.cos(u), r * np.sin(u),
                          r * np.cos(2.0 * u) / 2.0, r * np.sin(2.0 * u) / 2.0])
        err = max(err, float(np.max(np.abs(st.curve.points[:, middle] - exact))))
    return err


@pytest.mark.xfail(
    strict=True,
    raises=NullCurveDeveloped,
    reason="ROADMAP item 2: the open ends' one-sided closures are O(1) wrong (F2); evolve ends in "
    "NullCurveDeveloped at t = 0.06 (N=64) and 0.0175 (N=128)",
)
def test_open_clifford_twin_converges_at_second_order():
    errors = {n: _twin_points_error(n) for n in (64, 128)}
    assert errors[64] > 3.5 * errors[128], errors
