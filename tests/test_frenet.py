import math

import numpy as np
import pytest

from curveflow import catalog, frenet
from curveflow.curvekit import OPEN, CurveSpec, SampledCurve, sample
from curveflow.errors import NonGenericCurveError
from curveflow.flowsim import FlowSpec, evolve, initial_state
from curveflow.frenet import (
    _complete_frame,
    frenet_apparatus,
    frenet_residuals,
    stencil_curvatures,
)
from curveflow.minkowski import CausalCharacter, dot_many, inner_many
from conftest import orthonormality_residual

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


def _gram_schmidt_reference(c, m):
    """Plain index-1 Gram-Schmidt with e_j <w, V_j> V_j projections and
    curvatures |w_{i+1}| / (|w_1| |w_i|): the reference the package's
    orthogonalization must match bit for bit."""
    frame, signs, norms = [], [], []
    for i in range(1, m + 1):
        w = c.derivs[i].copy()
        for j in range(i - 1):
            w -= signs[j] * inner_many(w, frame[j]) * frame[j]
        q = inner_many(w, w)
        norms.append(np.sqrt(np.abs(q)))
        frame.append(w / norms[-1])
        signs.append(1 if q[0] > 0 else -1)
    curvatures = [norms[i] / (norms[0] * norms[i - 1]) for i in range(1, m)]
    return np.stack(frame), signs, np.stack(curvatures)


@pytest.mark.parametrize("name", ["timelike_helix", "spacelike_helix", "w_curve4", "hyperbola"])
def test_orthogonalization_matches_the_reference_bit_for_bit(name):
    # The timelike helix projects on a timelike V_1 (e_0 = -1).
    jet = sample(CATALOG[name](64))
    for c in (jet, SampledCurve.from_points(jet.points, jet.grid, jet.closed, jet.n)):
        fd = frenet_apparatus(c)
        frame, signs, curvatures = _gram_schmidt_reference(c, c.n)
        assert fd.frame.tobytes() == frame.tobytes()
        assert fd.signs.tolist() == signs
        assert fd.curvatures.tobytes() == curvatures.tobytes()


def test_three_space_completion_is_the_metric_cross_product_bit_for_bit():
    # np.cross of the rows g*V_j, normalized and oriented as documented.
    rng = np.random.default_rng(9)
    g = np.array([-1.0, 1.0, 1.0])
    for _ in range(200):
        partial = rng.standard_normal((2, 3, 1)) * 10.0 ** rng.integers(-3, 3, (2, 3, 1))
        partial[rng.random(partial.shape) < 0.2] = rng.choice([0.0, -0.0])
        z = np.cross(g * partial[0, :, 0], g * partial[1, :, 0])[:, None]
        q = inner_many(z, z)
        if not abs(q[0]) > 1e-7 * float(z[:, 0] @ z[:, 0]):
            continue  # null complement, rejected by its own test
        z = z / np.sqrt(np.abs(q))
        if q[0] > 0:  # (-1)^3 q < 0: negatively oriented
            z = -z
        ours, sign = _complete_frame(partial)
        assert ours.tobytes() == z.tobytes()
        assert sign == (1 if q[0] > 0 else -1)


def test_completed_frame_stays_positive_under_evolution_in_four_space():
    curve = sample(CATALOG["timelike_helix4"](64))
    flow = FlowSpec.inextensible(["0.05", "0", "0"])
    traj = evolve(initial_state(curve, flow), flow, 1e-3, 5)
    for st in traj.states:
        assert st.frenet.completed_last
        assert np.all(orientation(st.frenet) > 0)
        assert np.max(np.abs(st.curve.points[3])) == 0.0


# --------------------------------------------------------------------------
# Every breakdown ``frenet_apparatus`` and ``_complete_frame`` detect, with the
# frame vector (``index``) and the sample it is named at.  The curves hold
# hand-set derivative vectors, so each breakdown sits where it was put.

E0, E1, E2 = np.eye(3)  # E0 is timelike
SAMPLES = 8


def curve_from_derivs(*columns):
    """A SampledCurve whose derivs[i] is ``columns[i - 1]``, an (n,) vector for
    every sample or a {sample: vector} override of a constant (n,) vector."""
    rows = []
    for col in columns:
        base, overrides = col if isinstance(col, tuple) else (col, {})
        row = np.repeat(np.asarray(base, dtype=float)[:, None], SAMPLES, axis=1)
        for k, vec in overrides.items():
            row[:, k] = vec
        rows.append(row)
    derivs = np.stack([np.zeros_like(rows[0])] + rows)
    grid = np.arange(SAMPLES, dtype=float)
    return SampledCurve(
        grid=grid, h=1.0, closed=False, derivs=derivs, speeds=np.ones(SAMPLES), s=grid,
        total_length=SAMPLES - 1.0, char=CausalCharacter.SPACELIKE,
    )


def breakdown(curve, num_vectors=None):
    with pytest.raises(NonGenericCurveError) as err:
        frenet_apparatus(curve, num_vectors)
    return err.value


@pytest.mark.parametrize(
    "second",
    [
        2.0 * E1,  # parallel to the tangent: w_2 = 0
        E0 + E2,  # orthogonal to the tangent but null: <w_2, w_2> = 0
        # w_2 = 1e-3 E2 is small only next to |derivs[2]| = 1e6, not next to
        # the unit tangent: the threshold is read from derivs[2]
        1e6 * E1 + 1e-3 * E2,
    ],
    ids=["zero", "null", "relatively_small"],
)
def test_small_residual_names_its_vector_and_sample(second):
    err = breakdown(curve_from_derivs(E1, (E2, {5: second}), E0))
    assert (err.index, err.sample) == (2, 5)
    assert "vanishes or is null" in str(err)


def test_small_last_residual_at_some_samples_is_not_completed():
    # Only a residual that vanishes at every sample is completed.
    err = breakdown(curve_from_derivs(E1, E2, (E0, {6: E1 + E2})))
    assert (err.index, err.sample) == (3, 6)
    assert "vanishes or is null" in str(err)


@pytest.mark.parametrize(
    "columns, index",
    [
        (((E1, {4: E0, 5: E0}), E2, E0), 1),  # the tangent turns timelike
        ((E1, (E2, {4: E0, 5: E0, 6: E0, 7: E0}), E0), 2),  # the normal does
    ],
    ids=["tangent", "normal"],
)
def test_frame_vector_sign_flip_names_its_vector_and_sample(columns, index):
    err = breakdown(curve_from_derivs(*columns), num_vectors=2)
    assert (err.index, err.sample) == (index, 4)
    assert "flips" in str(err)


def test_small_residual_is_named_before_a_sign_flip():
    # w_2 flips from spacelike to timelike at sample 3 and vanishes at
    # sample 6: the small residual is the error, at its own sample.
    second = (E2, {3: E0, 4: E0, 5: E0, 6: 3.0 * E1, 7: E0})
    err = breakdown(curve_from_derivs(E1, second, E0))
    assert (err.index, err.sample) == (2, 6)
    assert "vanishes or is null" in str(err)


def partial_frames(*pairs):
    """(2, 3, N) partial frames: sample k holds ``pairs[k]``."""
    return np.stack([np.stack(pair) for pair in pairs], axis=-1)


def test_completion_rejects_a_null_complement():
    # The plane of E1 and the null E0 + E2 is degenerate; its metric
    # complement E0 + E2 is null.
    partial = partial_frames(*[(E1, E2)] * 5, (E1, E0 + E2), (E1, E2))
    with pytest.raises(NonGenericCurveError) as err:
        _complete_frame(partial)
    assert (err.value.index, err.value.sample) == (3, 5)
    assert "null" in str(err.value)


def test_completion_sign_flip_names_its_sample():
    # The complement of (E0, E2) is the spacelike E1, that of (E1, E2) the
    # timelike E0.
    partial = partial_frames(*[(E0, E2)] * 4, *[(E1, E2)] * 3)
    with pytest.raises(NonGenericCurveError) as err:
        _complete_frame(partial)
    assert (err.value.index, err.value.sample) == (3, 4)
    assert "completion flips" in str(err.value)


def _two_time_inner(X, Y):
    """-x1*y1 - x2*y2 + x3*y3: an index-2 product in three dimensions."""
    P = X * Y
    return P[..., 2, :] - P[..., 0, :] - P[..., 1, :]


@pytest.mark.parametrize(
    "inner, num_vectors, negatives",
    [(dot_many, 3, 0), (_two_time_inner, 2, 2)],
    ids=["no_timelike_vector", "two_timelike_vectors"],
)
def test_signature_must_be_index_one(monkeypatch, inner, num_vectors, negatives):
    # Under the index-1 product no frame has another signature, so the
    # orthogonalization runs with a different product.
    monkeypatch.setattr(frenet, "inner_many", inner)
    err = breakdown(curve_from_derivs(E0, E1, E2), num_vectors)
    assert (err.index, err.sample) == (num_vectors, 0)
    assert f"({negatives} timelike vectors)" in str(err)
