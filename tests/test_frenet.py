import math

import numpy as np
import pytest

from curveflow import catalog
from curveflow.curvekit import OPEN, CurveSpec, sample
from curveflow.errors import NonGenericCurveError
from curveflow.flowsim import FlowSpec, evolve, initial_state
from curveflow.frenet import (
    _complete_frame,
    frenet_apparatus,
    frenet_residuals,
    orthonormality_residual,
    stencil_curvatures,
)

SQRT2 = math.sqrt(2.0)

# every causal flavor at low dimension, plus a generic 4-frame curve
CATALOG = {
    "circle": lambda n: catalog.curve("circle", n),
    "hyperbola": lambda n: catalog.curve("hyperbola", n),
    "timelike_helix": lambda n: catalog.curve("timelike_helix", n),
    "spacelike_helix": lambda n: catalog.curve("spacelike_helix", n),
    "w_curve4": lambda n: CurveSpec.from_strings(
        ("cosh(u)", "sinh(u)", "cos(2*u)", "sin(2*u)"), (0.0, 2.0), OPEN, n
    ),
    # the catalog timelike helix inside the hyperplane x4 = 0 of E1^4
    "timelike_helix4": lambda n: CurveSpec.from_strings(
        ("sqrt(2)*u", "cos(u)", "sin(u)", "0"), (0.0, 2.0 * math.pi), OPEN, n
    ),
}


def apparatus(name, samples):
    c = sample(CATALOG[name](samples))
    return c, frenet_apparatus(c)


def test_circle_completion_path():
    c, fd = apparatus("circle", 256)
    assert fd.completed_last
    assert fd.signs.tolist() == [1, 1, -1]
    u = c.grid
    assert np.max(np.abs(fd.frame[0] - np.stack([0 * u, -np.sin(u), np.cos(u)]))) < 1e-12
    assert np.max(np.abs(fd.frame[1] - np.stack([0 * u, -np.cos(u), -np.sin(u)]))) < 1e-12
    assert np.max(np.abs(fd.frame[2] - np.array([[1.0], [0.0], [0.0]]))) < 1e-12
    assert np.max(np.abs(fd.curvatures[0] - 1.0)) < 1e-9
    assert np.max(np.abs(fd.curvatures[1])) == 0.0


def test_hyperbola_values():
    c, fd = apparatus("hyperbola", 256)
    assert fd.signs.tolist() == [-1, 1]
    u = c.grid
    assert np.max(np.abs(fd.frame[0] - np.stack([np.cosh(u), np.sinh(u)]))) < 1e-9
    assert np.max(np.abs(fd.frame[1] - np.stack([np.sinh(u), np.cosh(u)]))) < 1e-9
    assert np.max(np.abs(fd.curvatures[0] - 1.0)) < 1e-9


def test_timelike_helix_values():
    _, fd = apparatus("timelike_helix", 512)
    assert fd.signs.tolist() == [-1, 1, 1]
    assert np.max(np.abs(fd.curvatures[0] - 1.0)) < 1e-9
    assert np.max(np.abs(fd.curvatures[1] - SQRT2)) < 1e-9


def test_spacelike_helix_values():
    _, fd = apparatus("spacelike_helix", 512)
    assert fd.signs.tolist() == [1, 1, -1]
    assert np.max(np.abs(fd.curvatures[0] - SQRT2)) < 1e-9
    assert np.max(np.abs(fd.curvatures[1] - 1.0)) < 1e-9


def test_stencil_curvatures_second_order():
    c, fd = apparatus("timelike_helix", 512)
    sk = stencil_curvatures(c, fd)
    assert np.max(np.abs(sk[0] - 1.0)) < 5e-4
    assert np.max(np.abs(sk[1] - SQRT2)) < 5e-4


@pytest.mark.parametrize("name", sorted(CATALOG))
@pytest.mark.parametrize("samples", [128, 256, 512])
def test_orthonormality_and_signature(name, samples):
    _, fd = apparatus(name, samples)
    assert orthonormality_residual(fd) < 1e-8
    assert int(np.count_nonzero(fd.signs == -1)) == 1


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_curvature_positivity(name):
    _, fd = apparatus(name, 256)
    m = fd.num_vectors
    for i in range(m - 2):
        assert np.all(fd.curvatures[i] > 0)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_frenet_residual_second_order(name):
    worst = []
    for samples in (128, 256, 512):
        c, fd = apparatus(name, samples)
        worst.append(frenet_residuals(c, fd).max())
    assert worst[-1] < 1e-3
    for a, b in zip(worst, worst[1:]):
        assert 3.0 < a / b < 5.5, worst


def test_helix_residual_reference():
    c, fd = apparatus("timelike_helix", 512)
    assert frenet_residuals(c, fd).max() < 3e-4


def test_line_in_plane_completes_with_zero_curvature():
    c = sample(catalog.curve("line2", 64))
    fd = frenet_apparatus(c)
    assert fd.completed_last
    assert fd.signs.tolist() == [1, -1]
    assert np.max(np.abs(fd.curvatures[0])) == 0.0


def test_line_needs_clamped_frame_in_three_space():
    c = sample(catalog.curve("line3", 64))
    with pytest.raises(NonGenericCurveError) as err:
        frenet_apparatus(c)
    assert err.value.index == 2  # breakdown before the last vector: no completion
    fd = frenet_apparatus(c, num_vectors=1)
    assert fd.num_vectors == 1
    assert np.max(frenet_residuals(c, fd)) < 1e-14


def test_null_residual_is_non_generic():
    # curve in a degenerate plane: the orthogonalization residual is null
    c = sample(CurveSpec.from_strings(
        ("u/sqrt(2)", "u/sqrt(2)", "sin(u)"), (0.3, 1.0), OPEN, 64
    ))
    with pytest.raises(NonGenericCurveError) as err:
        frenet_apparatus(c)
    assert err.value.index == 2


def test_null_second_derivative_is_non_generic():
    # <a'', a''> = -1 + 1 = 0 identically for this curve
    c = sample(CurveSpec.from_strings(
        ("cosh(u)", "sinh(u)", "cos(u)", "sin(u)"), (0.0, 2.0), OPEN, 64
    ))
    with pytest.raises(NonGenericCurveError):
        frenet_apparatus(c)


def test_w_curve_constant_curvatures():
    _, fd = apparatus("w_curve4", 256)
    assert fd.signs.tolist() == [1, 1, 1, -1]
    for k in fd.curvatures:
        assert np.max(k) - np.min(k) < 1e-9


def test_num_vectors_validation(circle_256):
    with pytest.raises(ValueError):
        frenet_apparatus(circle_256, num_vectors=0)
    with pytest.raises(ValueError):
        frenet_apparatus(circle_256, num_vectors=4)


def orientation(fd):
    """Per-sample determinant of the frame basis, by LU (np.linalg.det)."""
    return np.linalg.det(np.transpose(fd.frame, (2, 0, 1)))


def test_hyperplane_curve_in_four_space_completes_positively():
    _, fd = apparatus("timelike_helix4", 128)
    assert fd.completed_last
    assert fd.signs.tolist() == [-1, 1, 1, 1]
    assert np.all(orientation(fd) > 0)
    assert np.max(np.abs(fd.frame[3][:3])) == 0.0
    assert np.max(np.abs(np.abs(fd.frame[3][3]) - 1.0)) < 1e-12
    assert np.max(np.abs(fd.curvatures[1] - SQRT2)) < 1e-9
    assert np.max(np.abs(fd.curvatures[2])) == 0.0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_completion_is_positively_oriented_on_random_partial_frames(n):
    # The completion picks its orientation from the sign identity
    # det[V_1..V_{n-1}, z] = (-1)^n <z, z>; np.linalg.det is the oracle.
    rng = np.random.default_rng(40 + n)
    checked = 0
    for _ in range(150):
        partial = rng.standard_normal((n - 1, n, 1))
        try:
            z, sign = _complete_frame(partial)
        except NonGenericCurveError:
            continue  # complement (numerically) null: no unit completion exists
        basis = np.concatenate([partial[:, :, 0], z.T], axis=0)
        assert np.linalg.det(basis) > 0
        q = float(z[:, 0] @ (np.r_[-1.0, np.ones(n - 1)] * z[:, 0]))
        assert sign == (1 if q > 0 else -1)
        assert abs(abs(q) - 1.0) < 1e-9
        checked += 1
    assert checked > 140


def test_completed_frame_stays_positive_under_evolution_in_four_space():
    curve = sample(CATALOG["timelike_helix4"](64))
    flow = FlowSpec.inextensible(["0.05", "0", "0"])
    traj = evolve(initial_state(curve, flow), flow, 1e-3, 5)
    for st in traj.states:
        assert st.frenet.completed_last
        assert np.all(orientation(st.frenet) > 0)
        assert np.max(np.abs(st.curve.points[3])) == 0.0
