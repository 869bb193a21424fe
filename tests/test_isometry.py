"""Invariance of evolved trajectories under isometries of index-1 3-space.

A boost in the (x1, x2) plane followed by a rotation in the (x2, x3) plane
keeps the metric, the orientation and the time orientation.  Such a map L,
written into the component strings of a catalog curve, must leave every
scalar of the evolution unchanged and carry the points along:

- the frame's causal signs, exactly;
- curvatures, speeds, the arclength table s and the flow speeds f_values;
- the points, which must equal L applied to the untransformed run's points.

Both runs use the same grid, stencils and flow, so they differ by rounding
only.  Each bound is 10 times the worst relative difference (max |a - b| /
max |b|) measured over this test's examples and an 81-point grid of
rapidities in [-0.5, 0.5] and angles in [-pi, pi]; the timelike helix sets
every worst value.  The oracle shares no code with the package: the
isometry is built here and enters only through the curve's text.
"""

import functools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from curveflow import catalog
from curveflow.curvekit import CurveSpec, sample
from curveflow.flowsim import evolve, initial_state
from conftest import catalog_flow

N, STEPS, DT = 64, 5, 1e-3
CURVES = ["circle", "timelike_helix"]
# quantity -> bound on the relative difference (measured worst in comments)
BOUNDS = {
    "curvatures": 9.2e-11,  # 9.2e-12
    "speeds": 3.9e-12,  # 3.9e-13
    "s": 2.0e-14,  # 2.0e-15
    "f_values": 6.4e-14,  # 6.3e-15
    "points": 6.1e-15,  # 6.0e-16
}


def isometry(rapidity: float, angle: float) -> np.ndarray:
    """Rotation in (x2, x3) after a boost in (x1, x2), x1 being time."""
    ch, sh = math.cosh(rapidity), math.sinh(rapidity)
    c, s = math.cos(angle), math.sin(angle)
    boost = np.array([[ch, sh, 0.0], [sh, ch, 0.0], [0.0, 0.0, 1.0]])
    rotation = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    return rotation @ boost


def run(name: str, L: np.ndarray | None = None):
    entry = catalog.CURVES[name]
    comps = entry["components"]
    if L is not None:
        comps = [" + ".join(f"({float(L[j, k])!r})*({comps[k]})" for k in range(3))
                 for j in range(3)]
    spec = CurveSpec.from_strings(comps, entry["domain"], entry["topology"], N)
    flow = catalog_flow("inextensible_sine", 3)
    return evolve(initial_state(sample(spec), flow), flow, DT, STEPS)


@functools.cache
def reference(name: str):
    return run(name)


def _relative(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def differences(name: str, rapidity: float, angle: float) -> dict[str, float]:
    """Worst relative difference of each quantity over the trajectory."""
    L = isometry(rapidity, angle)
    moved = run(name, L)
    ref = reference(name)
    assert len(moved.states) == len(ref.states) == STEPS + 1
    worst = dict.fromkeys(BOUNDS, 0.0)
    for a, b in zip(moved.states, ref.states):
        assert a.frenet.signs.tolist() == b.frenet.signs.tolist()
        for key, x, y in (
            ("curvatures", a.frenet.curvatures, b.frenet.curvatures),
            ("speeds", a.curve.speeds, b.curve.speeds),
            ("s", a.curve.s, b.curve.s),
            ("f_values", a.f_values, b.f_values),
            ("points", a.curve.points, L @ b.curve.points),
        ):
            worst[key] = max(worst[key], _relative(x, y))
    return worst


@settings(derandomize=True, deadline=None)
@given(
    name=st.sampled_from(CURVES),
    rapidity=st.floats(-0.5, 0.5),
    angle=st.floats(-math.pi, math.pi),
)
def test_evolution_is_invariant_under_isometries(name, rapidity, angle):
    worst = differences(name, rapidity, angle)
    assert all(worst[key] <= bound for key, bound in BOUNDS.items()), worst
