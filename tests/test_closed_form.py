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
"""

import json

import numpy as np
import pytest

from curveflow.cli import bundled_scenario_path, execute

ROTATIONS = ["circle_rigid_rotation.json", "circle_inextensible_sine.json"]
# N -> bound on max |X - X_exact| and on max |k1 - 1| over every step and sample
POINTS_BOUND = {128: 5.9e-7, 256: 3.7e-8}
K1_BOUND = {128: 6.4e-5, 256: 1.58e-5}
F1_BOUND = {128: 6.9e-7, 256: 4.3e-8}


def _evolve(name, samples):
    doc = json.loads(bundled_scenario_path(name).read_text())
    doc["checks"] = []
    return execute(doc, samples=samples)[0]


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
