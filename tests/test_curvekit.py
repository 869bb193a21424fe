import math

import numpy as np
import pytest
from scipy import integrate
from scipy.integrate import quad

from curveflow import curvekit
from curveflow.curvekit import (
    CLOSED,
    OPEN,
    CurveSpec,
    SampledCurve,
    cumulative_simpson,
    cumulative_trapezoid,
    d_ds,
    d_du,
    d_du4,
    sample,
)
from curveflow.errors import (
    DegenerateCurveError,
    DimensionMismatch,
    MixedCausalityError,
    NonFiniteCurveError,
    NullCurveError,
)
from curveflow.minkowski import CausalCharacter

TWO_PI = 2.0 * math.pi


def spec(components, domain, topology=OPEN, samples=128):
    return CurveSpec.from_strings(components, domain, topology, samples)


def test_sample_circle_spacelike():
    c = sample(spec(("0", "cos(u)", "sin(u)"), (0, TWO_PI), CLOSED, 256))
    assert c.char is CausalCharacter.SPACELIKE
    assert c.samples == 256 and c.n == 3


def test_sample_hyperbola_timelike():
    c = sample(spec(("sinh(u)", "cosh(u)"), (-1, 1), OPEN, 128))
    assert c.char is CausalCharacter.TIMELIKE


def test_sample_null_curve_rejected():
    with pytest.raises(NullCurveError):
        sample(spec(("u", "u", "0"), (0, 1)))


def test_sample_mixed_causality_rejected():
    # tangent (2u, 1) flips character at u = 0.5; the grid hops over the
    # null point so the mixed-character error (not the null one) fires
    with pytest.raises(MixedCausalityError):
        sample(spec(("u^2", "u"), (0.41, 0.61), OPEN, 16))


def test_sample_degenerate_speed_rejected():
    with pytest.raises(DegenerateCurveError):
        sample(spec(("0", "u^3", "0"), (-1, 1), OPEN, 17))


def test_closed_requires_matching_endpoints():
    with pytest.raises(ValueError):
        sample(spec(("0", "u", "0"), (0, 1), CLOSED))


def test_minimum_samples():
    with pytest.raises(ValueError):
        sample(spec(("0", "cos(u)", "sin(u)"), (0, TWO_PI), CLOSED, 8))


def test_dimension_mismatch():
    # the dimension is the number of components, and a curve needs two or more
    assert CurveSpec.from_strings(("0", "u"), (0, 1)).dimension == 2
    single = CurveSpec.from_strings(("u",), (0, 1))
    assert single.dimension == 1
    with pytest.raises(DimensionMismatch, match="at least 2 components, got 1"):
        single.validate()
    with pytest.raises(DimensionMismatch):
        sample(single)


def test_component_variable_restriction():
    with pytest.raises(ValueError):
        sample(spec(("0", "cos(t)", "sin(u)"), (0, TWO_PI), CLOSED))


def test_speed_examples(circle_256):
    assert circle_256.speeds[0] == pytest.approx(1.0, abs=1e-12)
    assert circle_256.speeds[100] == pytest.approx(1.0, abs=1e-12)
    c2 = sample(spec(("2*u", "0", "0"), (0, 1)))
    assert all(c2.speeds[i] == pytest.approx(2.0) for i in (0, 64, 127))
    c3 = sample(spec(("0", "cos(2*u)", "sin(2*u)"), (0, math.pi), CLOSED))
    assert c3.speeds[5] == pytest.approx(2.0, abs=1e-12)


def test_arclength_examples(circle_256):
    assert circle_256.s[0] == 0.0
    assert circle_256.total_length == pytest.approx(TWO_PI, abs=1e-8)
    c2 = sample(spec(("2*u", "0", "0"), (0, 1)))
    assert c2.total_length == pytest.approx(2.0, abs=1e-10)


def test_arclength_monotone(hyperbola_256):
    s = hyperbola_256.s.tolist()
    assert all(b >= a for a, b in zip(s, s[1:]))


def test_d_ds_constant_is_zero(circle_256):
    out = d_ds(np.ones(circle_256.samples), circle_256)
    assert np.max(np.abs(out)) < 1e-14


def test_d_ds_of_arclength_is_one(hyperbola_256):
    # open curve: s is a smooth non-periodic grid function
    out = d_ds(hyperbola_256.s, hyperbola_256)
    assert np.max(np.abs(out - 1.0)) < 1e-4


def test_d_ds_sin_on_circle(circle_256):
    out = d_ds(np.sin(circle_256.s), circle_256)
    assert np.max(np.abs(out - np.cos(circle_256.s))) < 5e-4


def test_d_ds_second_order():
    errs = []
    for n in (128, 256, 512):
        c = sample(spec(("sinh(u)", "cosh(u)"), (-1, 1), OPEN, n))
        errs.append(np.max(np.abs(d_ds(np.sin(c.s), c) - np.cos(c.s))))
    for a, b in zip(errs, errs[1:]):
        assert 3.0 < a / b < 5.5


def test_d_ds_linear(hyperbola_256):
    rng = np.random.default_rng(5)
    f, g = rng.standard_normal((2, hyperbola_256.samples))
    lhs = d_ds(2.5 * f - 1.5 * g, hyperbola_256)
    rhs = 2.5 * d_ds(f, hyperbola_256) - 1.5 * d_ds(g, hyperbola_256)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_d_ds_vector_valued(circle_256):
    out = d_ds(circle_256.points, circle_256)
    expected = np.stack([np.zeros(256), -np.sin(circle_256.grid), np.cos(circle_256.grid)])
    assert np.max(np.abs(out - expected)) < 2e-4


def test_d_ds_checks_the_sample_axis(circle_256):
    # vectors are (n, N); an (N, n) array of the old layout fails loudly
    assert d_ds(circle_256.points, circle_256).shape == (3, 256)
    with pytest.raises(ValueError, match="samples"):
        d_ds(circle_256.points.T, circle_256)


def test_simpson_convergence_sixteenfold():
    # Non-unit-speed reparametrizations of the catalog geometries on
    # windows where the speed is not periodic, so composite Simpson shows
    # its clean fourth-order signature.
    arc = lambda n: spec(
        ("0", "cos(u + 0.2*sin(2*u))", "sin(u + 0.2*sin(2*u))"), (0.0, 2.7), OPEN, n
    )
    hyp = lambda n: spec(
        ("sinh(u + 0.2*sin(2*u))", "cosh(u + 0.2*sin(2*u))"), (-1.0, 1.0), OPEN, n
    )
    for build, length in (
        (arc, quad(lambda u: 1 + 0.4 * np.cos(2 * u), 0, 2.7, epsabs=1e-14)[0]),
        (hyp, quad(lambda u: abs(1 + 0.4 * np.cos(2 * u)), -1, 1, epsabs=1e-14)[0]),
    ):
        errs = [abs(sample(build(n)).total_length - length) for n in (65, 129, 257)]
        for a, b in zip(errs, errs[1:]):
            assert 10.0 < a / b < 22.0, errs


def test_quadrature_rule_recorded(circle_256):
    assert circle_256.quadrature == "simpson"
    odd_closed = sample(spec(("0", "cos(u)", "sin(u)"), (0, TWO_PI), CLOSED, 127))
    assert odd_closed.quadrature == "trapezoid"
    assert odd_closed.total_length == pytest.approx(TWO_PI, abs=1e-8)


def test_reparametrization_invariance():
    c1 = sample(spec(("0", "cos(u)", "sin(u)"), (0, TWO_PI), CLOSED, 256))
    c2 = sample(spec(("0", "cos(2*u)", "sin(2*u)"), (0, math.pi), CLOSED, 256))
    assert abs(c1.total_length - c2.total_length) < 1e-8


def test_from_points_matches_jet_sampling(circle_256):
    c = SampledCurve.from_points(circle_256.points, circle_256.grid, True, 3)
    assert c.char is CausalCharacter.SPACELIKE
    # fourth-order metric tangents: speed and length agree to ~h^4
    assert np.max(np.abs(c.speeds - 1.0)) < 1e-7
    assert abs(c.total_length - TWO_PI) < 1e-6


def test_from_points_rejects_non_finite(circle_256):
    pts = circle_256.points.copy()
    pts[1, 5] = np.inf
    with pytest.raises(NonFiniteCurveError, match="non-finite values"):
        SampledCurve.from_points(pts, circle_256.grid, True, 2)


def test_d_du4_fourth_order():
    errs = []
    for n in (64, 128, 256):
        x = np.linspace(0.0, 1.5, n)
        h = x[1] - x[0]
        err = np.max(np.abs(d_du4(np.sin(x), h, False) - np.cos(x)))
        errs.append(err)
    for a, b in zip(errs, errs[1:]):
        assert 12.0 < a / b < 20.0


def _padded_stencils(f, h, closed):
    """The two d/du stencils written as plain padded differences: the reference
    the package's kernels must match bit for bit."""
    if closed:
        p1 = np.concatenate([f[..., -1:], f, f[..., :1]], axis=-1)
        p2 = np.concatenate([f[..., -2:], f, f[..., :2]], axis=-1)
        return ((p1[..., 2:] - p1[..., :-2]) / (2.0 * h),
                (-p2[..., 4:] + 8.0 * p2[..., 3:-1] - 8.0 * p2[..., 1:-3] + p2[..., :-4]) / (12.0 * h))
    d2 = np.empty_like(f)
    d2[..., 1:-1] = (f[..., 2:] - f[..., :-2]) / (2.0 * h)
    d2[..., 0] = (-3.0 * f[..., 0] + 4.0 * f[..., 1] - f[..., 2]) / (2.0 * h)
    d2[..., -1] = (3.0 * f[..., -1] - 4.0 * f[..., -2] + f[..., -3]) / (2.0 * h)
    d4 = np.empty_like(f)
    d4[..., 2:-2] = (-f[..., 4:] + 8.0 * f[..., 3:-1] - 8.0 * f[..., 1:-3] + f[..., :-4]) / (12.0 * h)
    f0, f1, f2, f3, f4 = (f[..., j] for j in range(5))
    d4[..., 0] = (-25.0 * f0 + 48.0 * f1 - 36.0 * f2 + 16.0 * f3 - 3.0 * f4) / (12.0 * h)
    d4[..., 1] = (-3.0 * f0 - 10.0 * f1 + 18.0 * f2 - 6.0 * f3 + f4) / (12.0 * h)
    g0, g1, g2, g3, g4 = (f[..., -1 - j] for j in range(5))
    d4[..., -1] = (25.0 * g0 - 48.0 * g1 + 36.0 * g2 - 16.0 * g3 + 3.0 * g4) / (12.0 * h)
    d4[..., -2] = (3.0 * g0 + 10.0 * g1 - 18.0 * g2 + 6.0 * g3 - g4) / (12.0 * h)
    return d2, d4


@pytest.mark.parametrize("closed", [True, False])
def test_stencils_match_plain_padded_differences_bit_for_bit(closed):
    rng = np.random.default_rng(7 if closed else 8)
    f = rng.standard_normal((3, 40)) * 10.0 ** rng.integers(-8, 8, (3, 40))
    f[rng.random(f.shape) < 0.2] = 0.0
    f[rng.random(f.shape) < 0.2] = -0.0
    h = 0.1
    for values in (f, f[0], f[:, ::2]):
        ref2, ref4 = _padded_stencils(values, h, closed)
        assert d_du(values, h, closed).tobytes() == ref2.tobytes()
        assert d_du4(values, h, closed).tobytes() == ref4.tobytes()


@pytest.mark.parametrize("fixture", ["circle_256", "hyperbola_256"])
def test_from_points_chains_the_reference_stencil(request, fixture):
    jet = request.getfixturevalue(fixture)
    c = SampledCurve.from_points(jet.points, jet.grid, jet.closed, jet.n)
    ref = jet.points
    for m in range(1, jet.n + 1):
        ref = _padded_stencils(ref, c.h, c.closed)[0]
        assert c.derivs[m].tobytes() == ref.tobytes()


# scipy is the oracle for the cumulative rules: the package carries the same
# equal-interval arithmetic in numpy, so the tables must agree bit for bit.
@pytest.mark.parametrize("n", [3, 4, 5, 16, 17, 256, 257])
def test_cumulative_rules_match_scipy_exactly(n):
    rng = np.random.default_rng(1000 + n)
    y = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
    h = float(rng.uniform(1e-3, 1.0))
    simpson = cumulative_simpson(y, h)
    trapezoid = cumulative_trapezoid(y, h)
    ref_simpson = integrate.cumulative_simpson(y, dx=h, initial=0.0)
    ref_trapezoid = integrate.cumulative_trapezoid(y, dx=h, initial=0.0)
    assert np.array_equal(simpson, ref_simpson)
    assert np.array_equal(trapezoid, ref_trapezoid)
    # signed zeros too, since they reach the written outputs
    assert simpson.tobytes() == ref_simpson.tobytes()
    assert trapezoid.tobytes() == ref_trapezoid.tobytes()


def test_cumulative_rules_keep_scipy_signed_zeros():
    y = np.full(9, -0.0)
    for ours, ref in ((cumulative_simpson, integrate.cumulative_simpson),
                      (cumulative_trapezoid, integrate.cumulative_trapezoid)):
        assert ours(y, 0.5).tobytes() == ref(y, dx=0.5, initial=0.0).tobytes()


def test_simpson_weights_are_shared_and_read_only():
    w = curvekit._simpson_weights(9)
    assert w is curvekit._simpson_weights(9)
    assert not w.flags.writeable
    assert w.tolist() == [1.0, 4.0, 2.0, 4.0, 2.0, 4.0, 2.0, 4.0, 1.0]
    y = np.random.default_rng(2).standard_normal(8)  # one period; the wrap sample is appended
    assert curvekit._period_integral(y, 0.25, "simpson") == pytest.approx(
        integrate.simpson(np.append(y, y[0]), dx=0.25), rel=1e-13
    )


@pytest.mark.parametrize("shape", [(16,), (17,), (3, 256), (4, 33)])
def test_closed_stencils_match_roll_reference(shape):
    f = np.random.default_rng(7).standard_normal(shape)
    h = 0.37

    def roll(k):
        return np.roll(f, k, axis=-1)

    ref2 = (roll(-1) - roll(1)) / (2.0 * h)
    ref4 = (-roll(-2) + 8.0 * roll(-1) - 8.0 * roll(1) + roll(2)) / (12.0 * h)
    assert np.array_equal(d_du(f, h, True), ref2)
    assert np.array_equal(d_du4(f, h, True), ref4)


def _stencil_input(shape, seed):
    """Wide exponents, signed zeros, and neighbouring rows of opposite sign
    near 1e300, so each seam of the flat buffer sees both extremes."""
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
    f[rng.random(shape) < 0.1] = 0.0
    f[rng.random(shape) < 0.1] = -0.0
    if len(shape) > 1:
        rows = f.reshape(-1, shape[-1])
        rows[::2, :3] = rows[::2, -3:] = 1e300 * (1.0 + rng.random(3))
        rows[1::2, :3] = rows[1::2, -3:] = -1e300 * (1.0 + rng.random(3))
    return f


@pytest.mark.parametrize("closed", [True, False])
@pytest.mark.parametrize("shape", [(40,), (3, 40), (4, 4, 40)])
def test_flat_stencils_match_the_row_formulas_bit_for_bit(shape, closed):
    f = _stencil_input(shape, 31 + len(shape) + 10 * closed)
    h = 0.1
    # every input layout: contiguous, a strided view, a transposed copy's transpose
    for values in (f, np.concatenate([f, f], axis=-1)[..., ::2], np.asfortranarray(f)):
        ref2, ref4 = _padded_stencils(np.array(values), h, closed)
        with np.errstate(all="raise"):  # the row-by-row formulas raise nothing here
            d2, d4 = d_du(values, h, closed), d_du4(values, h, closed)
            into = d_du(values, h, closed, np.empty(shape))
        assert d2.shape == d4.shape == shape
        assert d2.tobytes() == into.tobytes() == ref2.tobytes()
        assert d4.tobytes() == ref4.tobytes()


def test_d_du_rejects_an_out_it_cannot_fill_in_place():
    # a non-contiguous out would be reshaped into a copy, so the result
    # would never reach it; a contiguous out of another shape would be
    # filled in the wrong order
    f = np.random.default_rng(5).standard_normal((3, 32))
    for out in (np.empty((32, 3)).T, np.empty((3, 64))[:, ::2], np.empty((32, 3))):
        with pytest.raises(ValueError, match="C-contiguous"):
            d_du(f, 0.1, True, out)
