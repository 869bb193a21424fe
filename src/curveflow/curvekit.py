"""Discretized curves: sampling, speed, arclength, and the d/ds operator.

A curve is defined by one expression per component on a uniform grid in
the parameter u.  Sampling evaluates jets of every component so that
derivatives up to the ambient dimension are exact to rounding; curves that
arise from time evolution instead carry stencil-differentiated derivatives
(see ``SampledCurve.from_points``).

Vectors are stored component-major: a grid of vectors is (n, N), with the
sample axis last, and a scalar grid function is (N,).

Derivatives with respect to arclength s use d/ds = (1/v) d/du with
second-order central differences along the sample axis, wrapping
periodically for closed curves and falling back to one-sided second-order
stencils at open endpoints.

The stencils run on the flat C-contiguous buffer of a stack of rows: one
ufunc pass over ``f.reshape(-1)`` forms the central differences of every
row at once, since a 2-D slice along the last axis costs numpy about three
times a contiguous one.  The samples at each row's ends then hold
differences across the seam between two rows; the closed or one-sided end
formulas overwrite them before the result is scaled or returned.  Inputs
are made contiguous (a copy only when they are not), and an ``out`` array
must be C-contiguous, since reshaping any other would write into a copy.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import exprjet, minkowski
from .errors import (
    DegenerateCurveError,
    DimensionMismatch,
    MixedCausalityError,
    NonFiniteCurveError,
    NullCurveError,
)
from .exprjet import Expr
from .minkowski import CausalCharacter

CLOSED = "closed"
OPEN = "open"

ENDPOINT_MATCH_TOL = 1e-9
MIN_SAMPLES = 16


@dataclass(frozen=True)
class CurveSpec:
    """Expression-backed curve definition on [u0, u1]."""

    components: tuple[Expr, ...]
    domain: tuple[float, float]
    topology: str = OPEN
    samples: int = 256

    @classmethod
    def from_strings(cls, components, domain, topology=OPEN, samples=256) -> "CurveSpec":
        exprs = tuple(exprjet.parse(c) for c in components)
        return cls(exprs, (float(domain[0]), float(domain[1])), topology, samples)

    @property
    def dimension(self) -> int:
        return len(self.components)

    def validate(self) -> None:
        if self.dimension < 2:
            raise DimensionMismatch(f"a curve needs at least 2 components, got {self.dimension}")
        if self.samples < MIN_SAMPLES:
            raise ValueError(f"samples must be >= {MIN_SAMPLES}, got {self.samples}")
        if self.topology not in (CLOSED, OPEN):
            raise ValueError(f"topology must be {CLOSED!r} or {OPEN!r}")
        u0, u1 = self.domain
        if not u1 > u0:
            raise ValueError(f"domain must satisfy u1 > u0, got {self.domain}")
        for c in self.components:
            extra = exprjet.variables(c) - {"u"}
            if extra:
                raise ValueError(f"curve components may only use 'u', found {sorted(extra)}")
        if self.topology == CLOSED:
            for j, c in enumerate(self.components):
                a = exprjet.eval_scalar(c, u=u0)
                b = exprjet.eval_scalar(c, u=u1)
                if abs(a - b) > ENDPOINT_MATCH_TOL * max(1.0, abs(a), abs(b)):
                    raise ValueError(
                        f"closed curve component {j} does not match at the endpoints "
                        f"({a!r} vs {b!r})"
                    )


@dataclass(frozen=True)
class SampledCurve:
    """Curve evaluated on a uniform grid, with cached speed and arclength.

    ``derivs[m]`` is the (n, N) array of m-th u-derivative vectors; index 0
    holds the points themselves.  Every tangent is non-null at ``DEFAULT_NULL_TOL``
    (``minkowski.null_test``) and of causal character ``char``.  The curves
    of the states ``flowsim.evolve`` keeps hold their points only
    (``deriv_order`` 0): the stencil rows were read by the frame when the
    state was built, and nothing reads them after.
    """

    grid: np.ndarray
    h: float
    closed: bool
    derivs: np.ndarray  # (order+1, n, N)
    speeds: np.ndarray  # (N,)
    s: np.ndarray  # (N,) arclength from sample 0
    total_length: float
    char: CausalCharacter

    @property
    def n(self) -> int:
        return self.derivs.shape[1]

    @property
    def samples(self) -> int:
        return self.derivs.shape[2]

    @property
    def points(self) -> np.ndarray:
        return self.derivs[0]

    @property
    def deriv_order(self) -> int:
        return self.derivs.shape[0] - 1

    @property
    def quadrature(self) -> str:
        """The arclength rule, ``"simpson"`` or ``"trapezoid"`` (``_quadrature``)."""
        return _quadrature(self.samples, self.closed)

    @classmethod
    def from_points(
        cls,
        points: np.ndarray,
        grid: np.ndarray,
        closed: bool,
        deriv_order: int,
    ) -> "SampledCurve":
        """Build a curve from raw (n, N) sample points, differentiating by stencils.

        The stencil speed carries a systematic relative bias of order h^2
        (a sinc-like factor), so stencil-backed lengths must only ever be
        compared with other stencil-backed lengths; evolution therefore
        rebuilds its initial state through this path.
        """
        points = np.asarray(points, dtype=float)
        h = float(grid[1] - grid[0])
        derivs = np.empty((deriv_order + 1,) + points.shape)
        derivs[0] = points
        for m in range(1, deriv_order + 1):
            d_du(derivs[m - 1], h, closed, derivs[m])
        return cls._finish(grid, h, closed, derivs, d_du4(derivs[0], h, closed))

    @classmethod
    def _finish(cls, grid, h, closed, derivs, tangents) -> "SampledCurve":
        # count_nonzero is the cheapest numpy reduction of a mask; these
        # validations run on every stage of an evolution
        if np.count_nonzero(np.isfinite(derivs)) != derivs.size:
            raise NonFiniteCurveError("curve evaluation produced non-finite values")
        _, euclid, null_mask, timelike = minkowski.null_test(derivs[1])
        if np.count_nonzero(null_mask):
            idx = int(np.argmax(null_mask))
            raise NullCurveError(f"tangent is null at sample {idx} (u={grid[idx]:.6g})")
        if 0 < np.count_nonzero(timelike) < timelike.size:
            raise MixedCausalityError("tangent causal character varies along the curve")
        char = CausalCharacter.TIMELIKE if timelike[0] else CausalCharacter.SPACELIKE
        # Speed and arclength come from ``tangents``: the exact derivative
        # for a sampled spec, a fourth-order stencil for raw points, since the
        # second-order stencil speed is biased by ~h^2/6, which would make
        # periodic flow speeds not close up around closed curves (a seam in
        # the velocity field at the wrap).
        speeds = minkowski.norm_many(tangents)
        # no name holds the floor: an array kept alive until the tables below
        # are built raised the peak RSS of a 120-step N=4096 evolve by 0.7 MiB
        if np.count_nonzero(
            speeds <= minkowski.DEFAULT_NULL_TOL * np.sqrt(np.maximum(1.0, euclid))
        ):
            idx = int(np.argmin(speeds))
            raise DegenerateCurveError(f"speed vanishes at sample {idx} (u={grid[idx]:.6g})")
        s, total = _arclength_tables(speeds, h, closed)
        return cls(
            grid=grid,
            h=h,
            closed=closed,
            derivs=derivs,
            speeds=speeds,
            s=s,
            total_length=total,
            char=char,
        )


def sample(spec: CurveSpec) -> SampledCurve:
    """Evaluate a CurveSpec on its grid with jet-exact derivatives."""
    spec.validate()
    u0, u1 = spec.domain
    N = spec.samples
    n = spec.dimension
    if spec.topology == CLOSED:
        h = (u1 - u0) / N
        grid = u0 + h * np.arange(N)
    else:
        grid = np.linspace(u0, u1, N)
        h = float(grid[1] - grid[0])
    derivs = np.empty((n + 1, n, N))
    for j, comp in enumerate(spec.components):
        jet = exprjet.eval_jet(comp, "u", grid, n)
        for m in range(n + 1):
            derivs[m, j] = jet.derivative(m)
    return SampledCurve._finish(grid, h, spec.topology == CLOSED, derivs, derivs[1])


# --------------------------------------------------------------------------
# Difference stencils (second order; a fourth-order variant for the verifier)


def d_du(values: np.ndarray, h: float, closed: bool, out: np.ndarray | None = None) -> np.ndarray:
    """Second-order d/du of a grid function along its last (sample) axis,
    written into ``out`` if given, which must be C-contiguous and must not
    overlap ``values``.  Every sample is a difference divided by 2h."""
    f = np.ascontiguousarray(values, dtype=float)
    if out is None:
        out = np.empty_like(f)
    elif out.shape != f.shape or not out.flags.c_contiguous:
        raise ValueError("d_du writes only into a C-contiguous out array of the input's shape")
    # one pass over the rows laid end to end; the seam samples are overwritten
    np.subtract(f.reshape(-1)[2:], f.reshape(-1)[:-2], out=out.reshape(-1)[1:-1])
    if closed:
        out[..., 0] = f[..., 1] - f[..., -1]
        out[..., -1] = f[..., 0] - f[..., -2]
    else:
        out[..., 0] = -3.0 * f[..., 0] + 4.0 * f[..., 1] - f[..., 2]
        out[..., -1] = 3.0 * f[..., -1] - 4.0 * f[..., -2] + f[..., -3]
    out /= 2.0 * h
    return out


def d_du4(values: np.ndarray, h: float, closed: bool) -> np.ndarray:
    """Fourth-order d/du along the last axis, used where the verifier needs a
    sharper instrument.  A closed grid's result is an (..., N) view of a
    buffer padded by four samples per row."""
    f = np.ascontiguousarray(values, dtype=float)
    if closed:
        padded = np.concatenate([f[..., -2:], f, f[..., :2]], axis=-1)
        out = np.empty_like(padded)
        # the last four samples of each padded row straddle a seam; the view drops them
        _central4(padded.reshape(-1), h, out.reshape(-1)[:-4])
        return out[..., : f.shape[-1]]
    out = np.empty_like(f)
    _central4(f.reshape(-1), h, out.reshape(-1)[2:-2])
    f0, f1, f2, f3, f4 = (f[..., j] for j in range(5))
    out[..., 0] = (-25.0 * f0 + 48.0 * f1 - 36.0 * f2 + 16.0 * f3 - 3.0 * f4) / (12.0 * h)
    out[..., 1] = (-3.0 * f0 - 10.0 * f1 + 18.0 * f2 - 6.0 * f3 + f4) / (12.0 * h)
    g0, g1, g2, g3, g4 = (f[..., -1 - j] for j in range(5))
    out[..., -1] = (25.0 * g0 - 48.0 * g1 + 36.0 * g2 - 16.0 * g3 + 3.0 * g4) / (12.0 * h)
    out[..., -2] = (3.0 * g0 + 10.0 * g1 - 18.0 * g2 + 6.0 * g3 - g4) / (12.0 * h)
    return out


def _central4(f: np.ndarray, h: float, out: np.ndarray) -> None:
    """Five-point central difference centred on samples 2..len-3 of the flat
    ``f``, written into the len-4 samples of ``out``."""
    # (8 f3 - f4 - 8 f1 + f0) / 12h, left to right; 8 f3 - f4 is -f4 + 8 f3
    # bit for bit, since IEEE addition commutes exactly.
    np.multiply(f[3:-1], 8.0, out=out)
    out -= f[4:]
    out -= 8.0 * f[1:-3]
    out += f[:-4]
    out /= 12.0 * h


def d_ds(values: np.ndarray, c: SampledCurve) -> np.ndarray:
    """Arclength derivative (1/v) d/du of a grid function on the curve, along
    its last (sample) axis."""
    f = np.asarray(values, dtype=float)
    if f.shape[-1] != c.samples:
        raise ValueError(
            f"grid function has {f.shape[-1]} samples on its last axis, curve has {c.samples}"
        )
    return d_du(f, c.h, c.closed) / c.speeds


# --------------------------------------------------------------------------
# Quadrature
#
# The cumulative rules are scipy's ``cumulative_simpson`` and
# ``cumulative_trapezoid`` (equal intervals, ``initial=0``) written in numpy:
# the same arithmetic in the same order, so the tables match scipy's bit for
# bit, without its per-call validation and array-API dispatch.


def cumulative_simpson(y: np.ndarray, dx: float) -> np.ndarray:
    """Cumulative Simpson integral of ``y`` from sample 0 (scipy's rule).

    Each interval's integral comes from the parabola through it and one
    neighbour, h/3 (5 f_a/4 + 2 f_b - f_c/4) with f_a at the near end of the
    interval: even intervals look right, odd ones and the last look left.
    ``y`` holds three samples or more, as every curve does (``MIN_SAMPLES``).
    """
    y = np.asarray(y, dtype=float)
    c = dx / 3
    # near = 5 f/4, far = f/4 and mid = 2 f are formed only where they are
    # read: at the even samples i and at the odd samples i+1 between them.
    # From samples i, i+1, i+2: c*(near[i] + mid[i+1] - far[i+2]) integrates
    # [u_i, u_i+1] and c*(near[i+2] + mid[i+1] - far[i]) integrates
    # [u_i+1, u_i+2]; the last interval always looks left.
    # The table is allocated before the temporaries and summed in place: a
    # kept table allocated after them lands above their freed blocks, which
    # raised the peak RSS of a 120-step N=4096 evolve by 0.35 MiB.
    parts = np.empty(y.shape[0])
    even = y[::2]
    near, far, mid = 5 * even / 4, even / 4, 2 * y[1:-1:2]
    parts[0] = 0.0  # also turns a -0.0 sum into +0.0, as scipy's "+ initial" does
    for out, a, b in ((parts[1:-1:2], near[:-1], far[1:]), (parts[2::2], near[1:], far[:-1])):
        np.add(a, mid, out=out)
        out -= b
        out *= c
    # the last interval in Python floats: the same IEEE operations as on
    # numpy scalars, without their per-operation overhead
    y3, y2, y1 = y[-3:].tolist()
    parts[-1] = c * (5 * y1 / 4 + 2 * y2 - y3 / 4)
    return np.cumsum(parts, out=parts)


def cumulative_trapezoid(y: np.ndarray, dx: float) -> np.ndarray:
    """Cumulative trapezoid integral of ``y`` from sample 0 (scipy's rule)."""
    y = np.asarray(y, dtype=float)
    out = np.zeros(y.shape[0])
    np.cumsum(dx * (y[1:] + y[:-1]) / 2.0, out=out[1:])
    return out


def _quadrature(n_points: int, closed: bool) -> str:
    # Full-period composite Simpson on a closed curve needs an even number
    # of intervals, which equals the sample count once the wrap is appended.
    return "trapezoid" if closed and n_points % 2 else "simpson"


def _arclength_tables(speeds: np.ndarray, h: float, closed: bool):
    rule = _quadrature(speeds.shape[0], closed)
    s = cumulative_integral(speeds, h, rule)
    if closed:
        total = _period_integral(speeds, h, rule)
    else:
        total = float(s[-1])
    return s, total


def _period_integral(values: np.ndarray, h: float, rule: str) -> float:
    """Integral of a closed grid function over its full period: the wrap
    sample is appended, N + 1 points, so ``"simpson"`` (N even) always has
    an even interval count."""
    wrapped = np.concatenate([values, values[:1]])
    if rule == "simpson":
        return float(wrapped @ _simpson_weights(wrapped.shape[0])) * h / 3.0
    return float(np.trapezoid(wrapped, dx=h))


# Memoized like ``minkowski.metric_signs``: each stage integrates twice on the
# same grid.  Read-only, as it is shared.
@functools.cache
def _simpson_weights(n_points: int) -> np.ndarray:
    """Composite Simpson weights 1, 4, 2, 4, ..., 2, 4, 1 (read-only)."""
    w = np.ones(n_points)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w.setflags(write=False)
    return w


def cumulative_integral(values: np.ndarray, h: float, rule: str) -> np.ndarray:
    """Cumulative integral of a grid function from sample 0, matching the
    curve's quadrature rule."""
    if rule == "simpson":
        return cumulative_simpson(values, h)
    return cumulative_trapezoid(values, h)


def loop_integral(values: np.ndarray, c: SampledCurve) -> float:
    """Integral of a grid function over the full period of a closed curve."""
    if not c.closed:
        raise ValueError("loop_integral requires a closed curve")
    return _period_integral(values, c.h, c.quadrature)
