import math
import tracemalloc

import numpy as np
import pytest

from curveflow import frenet, minkowski
from curveflow.curvekit import CLOSED, OPEN, CurveSpec, SampledCurve, d_ds, sample
from curveflow.errors import NonGenericCurveError
from curveflow.flowsim import FlowSpec, evolve, initial_state
from curveflow.frenet import (
    _complete_frame,
    frenet_apparatus,
    frenet_residuals,
    stencil_curvatures,
)
from curveflow.minkowski import CausalCharacter, dot_many, inner_many
from conftest import catalog_curve, orthonormality_residual

SQRT2 = math.sqrt(2.0)

# every causal flavor at low dimension, plus a generic 4-frame curve
CATALOG = {
    "circle": lambda n: catalog_curve("circle", n),
    "hyperbola": lambda n: catalog_curve("hyperbola", n),
    "timelike_helix": lambda n: catalog_curve("timelike_helix", n),
    "spacelike_helix": lambda n: catalog_curve("spacelike_helix", n),
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


def _looped_stencil_curvatures(c, fd):
    """``stencil_curvatures`` with one d_ds call per frame vector."""
    out = np.empty((fd.num_vectors - 1, c.samples))
    for i in range(1, fd.num_vectors):
        out[i - 1] = fd.signs[i] * inner_many(d_ds(fd.frame[i - 1], c), fd.frame[i])
    return out


def _looped_frenet_residuals(c, fd):
    """``frenet_residuals`` with one d_ds call and right-hand side per vector."""
    m, k, e, V = fd.num_vectors, fd.curvatures, fd.signs, fd.frame
    out = np.empty((m, c.samples))
    for i in range(1, m + 1):
        dv = d_ds(V[i - 1], c)
        rhs = np.zeros_like(dv)
        if i > 1:
            rhs -= (e[i - 2] * e[i - 1]) * k[i - 2] * V[i - 2]
        if i < m:
            rhs += k[i - 1] * V[i]
        r = dv - rhs
        out[i - 1] = np.sqrt(dot_many(r, r))
    return out


# the completed V3 of the circle and V2 of line2, the clamped m = 1 frame of
# line3, both helices and the n = 2 hyperbola, at an even and an odd N
@pytest.mark.parametrize("name, vectors", [
    ("circle", None), ("line2", None), ("line3", 1),
    ("timelike_helix", None), ("spacelike_helix", None), ("hyperbola", None),
])
@pytest.mark.parametrize("samples", [64, 257])
def test_frame_stack_is_differentiated_once_bit_for_bit(monkeypatch, name, vectors, samples):
    c = sample(catalog_curve(name, samples))
    fd = frenet_apparatus(c, vectors)
    calls = []
    monkeypatch.setattr(frenet, "d_ds", lambda f, curve: calls.append(f.shape) or d_ds(f, curve))
    for stacked, looped in ((stencil_curvatures, _looped_stencil_curvatures),
                            (frenet_residuals, _looped_frenet_residuals)):
        calls.clear()
        got, want = stacked(c, fd), looped(c, fd)
        assert len(calls) == 1
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_line_in_plane_completes_with_zero_curvature():
    c = sample(catalog_curve("line2", 64))
    fd = frenet_apparatus(c)
    assert fd.completed_last
    assert fd.signs.tolist() == [1, -1]
    assert np.max(np.abs(fd.curvatures[0])) == 0.0


def test_line_needs_clamped_frame_in_three_space():
    # w_2 is zero at every sample, so the line sizes its frame to one vector
    c = sample(catalog_curve("line3", 64))
    fd = frenet_apparatus(c)
    assert fd.num_vectors == 1 and fd.signs.tolist() == [1] and fd.curvatures.shape == (0, 64)
    assert not fd.completed_last
    assert np.max(frenet_residuals(c, fd)) < 1e-14
    # an explicit size is built exactly: three vectors break down at w_2
    with pytest.raises(NonGenericCurveError) as err:
        frenet_apparatus(c, 3)
    assert (err.value.index, err.value.sample) == (2, 0)


def test_circle_in_four_space_sizes_its_frame_to_two_vectors():
    # (0, cos u, sin u, 0) in E1^4: w_3, the third derivative less its V_1
    # part, is zero at every sample, before the last vector
    c = sample(CurveSpec.from_strings(("0", "cos(u)", "sin(u)", "0"), (0.0, 2.0 * math.pi), CLOSED, 64))
    fd = frenet_apparatus(c)
    assert fd.num_vectors == 2 and fd.signs.tolist() == [1, 1] and not fd.completed_last
    assert fd.curvatures.shape == (1, 64)
    assert np.max(np.abs(fd.curvatures[0] - 1.0)) < 1e-12
    # the frame two vectors asked for gives, bit for bit
    asked = frenet_apparatus(c, 2)
    assert fd.frame.tobytes() == asked.frame.tobytes()
    assert fd.curvatures.tobytes() == asked.curvatures.tobytes()


def test_null_residual_is_non_generic():
    # curve in a degenerate plane: the orthogonalization residual is null
    c = sample(CurveSpec.from_strings(
        ("u/sqrt(2)", "u/sqrt(2)", "sin(u)"), (0.3, 1.0), OPEN, 64
    ))
    with pytest.raises(NonGenericCurveError) as err:
        frenet_apparatus(c)
    # w_2 is null at every sample but not zero: it does not end the frame
    assert (err.value.index, err.value.sample) == (2, 0)


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


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
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


def test_completion_keeps_two_levels_of_minors():
    # at n = 8 the expansion forms 246 minors in six levels; the buffer holds
    # the widest odd and the widest even level, 126 rows, and the peak stays
    # below 160 (263 with every level kept)
    n, N = 8, 4096
    partial = np.eye(n)[: n - 1, :, None] + 1e-3 * np.random.default_rng(8).standard_normal((n - 1, n, N))
    tracemalloc.start()
    try:
        _complete_frame(partial)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 160 * N * 8


def _det_cofactors(partial):
    """z_k = (-1)^k det(g*V without column k) of an (n-1, n, N) partial
    frame, by LU (np.linalg.det): a reference that shares no code with the
    completion's Laplace expansion."""
    n = partial.shape[1]
    rows = np.transpose(partial * np.r_[-1.0, np.ones(n - 1)][:, None], (2, 0, 1))
    return np.stack([(-1.0) ** k * np.linalg.det(np.delete(rows, k, axis=2)) for k in range(n)])


@pytest.mark.parametrize("n", [2, 4, 5, 6, 7, 8])
def test_completion_is_the_determinant_cofactor_vector(n):
    # n = 3 is pinned bit for bit to the cross product below.  Elsewhere the
    # completion has the direction of the LU cofactors to 1e-14 relative
    # (each scaled to Euclidean length 1, which the metric normalization,
    # ill-conditioned near the light cone, does not enter) and the
    # orientation the determinant of the basis gives them.
    rng = np.random.default_rng(60 + n)
    checked = 0
    for _ in range(100):
        partial = rng.standard_normal((n - 1, n, 1))
        try:
            z, _ = _complete_frame(partial)
        except NonGenericCurveError:
            continue
        ref = _det_cofactors(partial)
        if np.linalg.det(np.concatenate([partial[:, :, 0], ref.T])) < 0:
            ref = -ref
        assert np.max(np.abs(z / np.linalg.norm(z) - ref / np.linalg.norm(ref))) <= 1e-14
        checked += 1
    assert checked > 90


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_completion_of_a_hyperplane_frame_is_its_axis_exactly(n):
    # rows with a zero column j: every cofactor but z_j multiplies or adds
    # only zeros, so it reads 0.0 exactly, and the completion is +-E_j
    rng = np.random.default_rng(80 + n)
    for j in range(n):
        partial = rng.standard_normal((n - 1, n, 16))
        partial[:, j] = 0.0
        z, sign = _complete_frame(partial)
        assert np.all(np.delete(z, j, axis=0) == 0.0)
        assert np.all(np.abs(z[j]) == 1.0)
        assert sign == (-1 if j == 0 else 1)
        assert np.all(np.linalg.det(np.concatenate([partial, z[None]]).transpose(2, 0, 1)) > 0)


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


# (components, topology, frame vectors): with the catalog curves below, open
# timelike and spacelike curves for n = 2..6, and closed ones for n = 3..6.
# A closed non-null curve is spacelike (a timelike curve's time coordinate is
# monotone) and does not exist in E1^2; none of these closes generic in all
# n directions, so they build fewer vectors.
GENERIC_FRAMES = {
    "timelike4": (("3*u", "cos(u)", "sin(u)", "0.5*cos(2*u)"), OPEN, 4),
    "timelike5": (("3*u", "cos(u)", "sin(u)", "0.5*cos(2*u)", "0.5*sin(2*u)"), OPEN, 5),
    "timelike6": (
        ("3*u", "cos(u)", "sin(u)", "0.5*cos(2*u)", "0.5*sin(2*u)", "0.3*cos(3*u)"), OPEN, 6
    ),
    "spacelike2": (("cosh(u)", "sinh(u)"), OPEN, 2),
    "spacelike5": (("cosh(u)", "sinh(u)", "cos(2*u)", "sin(2*u)", "u"), OPEN, 5),
    "spacelike6": (
        ("cosh(u)", "sinh(u)", "cos(2*u)", "sin(2*u)", "0.5*cos(3*u)", "0.5*sin(3*u)"), OPEN, 6
    ),
    "closed3": (("0.01*sin(u)", "cos(u)", "sin(u)"), CLOSED, 2),
    "closed4": (  # a trefoil knot
        ("0.1*sin(u)", "(2 + 0.3*cos(3*u))*cos(2*u)", "(2 + 0.3*cos(3*u))*sin(2*u)",
         "0.3*sin(3*u)"), CLOSED, 3,
    ),
    "closed5": (("0.01*sin(u)", "cos(u)", "sin(u)", "0.5*cos(2*u)", "0.5*sin(2*u)"), CLOSED, 4),
    "closed6": (
        ("0.01*sin(u)", "cos(u)", "sin(u)", "0.5*cos(2*u)", "0.5*sin(2*u)", "0.3*cos(3*u)"),
        CLOSED, 4,
    ),
}


@pytest.mark.parametrize(
    "name", ["timelike_helix", "spacelike_helix", "w_curve4", "hyperbola", *GENERIC_FRAMES]
)
def test_orthogonalization_matches_the_reference_bit_for_bit(name):
    # The timelike helix projects on a timelike V_1 (e_0 = -1).  The first
    # product is the one the curve's null test formed (``take_tangent_q``), on
    # jets and on the stencils every evolution stage rebuilds alike.
    if name in CATALOG:
        spec, m = CATALOG[name](64), None
    else:
        components, topology, m = GENERIC_FRAMES[name]
        domain = (0.0, 2.0 * math.pi) if topology == CLOSED else (0.0, 2.0)
        spec = CurveSpec.from_strings(components, domain, topology, 64)
    jet = sample(spec)
    m = jet.n if m is None else m
    for c in (jet, SampledCurve.from_points(jet.points, jet.grid, jet.closed, m)):
        fd = frenet_apparatus(c, m)
        frame, signs, curvatures = _gram_schmidt_reference(c, m)
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


def partial_frames(n, *pairs):
    """(n-1, n, N) partial frames: sample k holds ``pairs[k]``, two vectors
    of E1^3 taken into E1^n, and the unit vectors E3..E_{n-1}."""
    rest = list(np.eye(n)[3:])
    return np.stack([np.stack([np.r_[v, np.zeros(n - 3)] for v in pair] + rest) for pair in pairs], axis=-1)


def test_completion_rejects_a_null_complement():
    # The plane of E1 and the null E0 + E2 is degenerate; its metric
    # complement E0 + E2 is null, in E1^5 beside E3 and E4 too.
    for n in (3, 5):
        partial = partial_frames(n, *[(E1, E2)] * 5, (E1, E0 + E2), (E1, E2))
        with pytest.raises(NonGenericCurveError) as err:
            _complete_frame(partial)
        assert (err.value.index, err.value.sample) == (n, 5)
        assert "null" in str(err.value)


def test_completion_sign_flip_names_its_sample():
    # The complement of (E0, E2) is the spacelike E1, that of (E1, E2) the
    # timelike E0, in E1^3 and in E1^5.
    for n in (3, 5):
        partial = partial_frames(n, *[(E0, E2)] * 4, *[(E1, E2)] * 3)
        with pytest.raises(NonGenericCurveError) as err:
            _complete_frame(partial)
        assert (err.value.index, err.value.sample) == (n, 4)
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
    # orthogonalization runs with a different product, the tangent's
    # (``SampledCurve.take_tangent_q``, formed by ``minkowski``) included.
    monkeypatch.setattr(frenet, "inner_many", inner)
    monkeypatch.setattr(minkowski, "inner_many", inner)
    err = breakdown(curve_from_derivs(E0, E1, E2), num_vectors)
    assert (err.index, err.sample) == (num_vectors, 0)
    assert f"({negatives} timelike vectors)" in str(err)
