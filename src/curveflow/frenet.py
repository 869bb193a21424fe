"""Moving frames along non-null curves under the index-1 metric.

The frame comes from Gram-Schmidt orthogonalization of the curve's
derivative vectors with the indefinite inner product.  Curvatures are
extracted two ways:

* ``FrenetData.curvatures`` uses the residual-norm ratios of the
  orthogonalization itself, k_i = |w_{i+1}| / (v |w_i|).  On jet-sampled
  curves these are exact to rounding, and everything downstream (flow
  synthesis, verification) consumes them.
* ``stencil_curvatures`` projects the stencil derivative of each frame
  vector onto its successor, k_i = e_i <dV_i/ds, V_{i+1}>.  This exercises
  the same operator the flow verifier uses and carries its second-order
  error; it is reported alongside the exact values.

Frame vectors are stored like the curve's vectors (see ``curvekit``): the
frame is an (m, n, N) stack, each vector a component-major (n, N) grid.

If the curve lies in a hyperplane, the final orthogonalization residual
vanishes.  When that happens for exactly the last vector and the metric
complement of the partial frame is one-dimensional and non-null, the frame
is completed with the unique unit vector that makes the basis positively
oriented (and the last curvature is zero).  Any other breakdown raises
NonGenericCurveError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvekit import SampledCurve, d_ds
from .errors import NonGenericCurveError
from .minkowski import dot_many, inner_many, metric_signs, self_products

GENERIC_RTOL = 1e-7


@dataclass(frozen=True)
class FrenetData:
    """Per-sample frame vectors, causal signs, and curvatures.

    ``frame[i]`` is the (n, N) grid of the (i+1)-th frame vector;
    ``signs[i]`` its constant causal sign; ``curvatures[i]`` the grid of
    the (i+1)-th curvature.
    """

    frame: np.ndarray  # (m, n, N)
    signs: np.ndarray  # (m,) of +-1
    curvatures: np.ndarray  # (m-1, N)
    completed_last: bool = False

    @property
    def num_vectors(self) -> int:
        return self.frame.shape[0]


def frenet_apparatus(c: SampledCurve, num_vectors: int | None = None) -> FrenetData:
    """Orthogonalize the curve's derivative vectors into a moving frame.

    ``num_vectors`` may be lowered below the ambient dimension for curves
    that are straight (or otherwise non-generic) in the trailing
    directions; by default the full frame is built.  e_0 agrees with
    ``c.char``, since ``SampledCurve`` classified the same w_1 = derivs[1].
    """
    n = c.n
    m = n if num_vectors is None else int(num_vectors)
    if not 1 <= m <= n:
        raise ValueError(f"num_vectors must be in [1, {n}], got {m}")
    if c.deriv_order < m:
        raise ValueError(f"curve carries derivatives up to order {c.deriv_order}, need {m}")

    N = c.samples
    frame = np.empty((m, n, N))
    signs = np.empty(m, dtype=int)
    resid_norms = np.empty((m, N))
    completed = False
    # |w_i| is small below GENERIC_RTOL times the Euclidean norm of derivs[i]
    derivs = c.derivs[1:m + 1]
    thresholds = np.sqrt(dot_many(derivs, derivs))
    np.maximum(1e-300, thresholds, out=thresholds)
    thresholds *= GENERIC_RTOL

    for i in range(1, m + 1):
        # nothing is subtracted for i = 1, so the tangent rows need no copy
        w = c.derivs[i] if i == 1 else c.derivs[i].copy()
        for j in range(i - 1):
            # e_j is +-1, so w - e_j <w, V_j> V_j is w -+ <w, V_j> V_j bit for bit
            step = np.subtract if signs[j] > 0 else np.add
            step(w, inner_many(w, frame[j]) * frame[j], out=w)
        q = inner_many(w, w)
        nw = np.sqrt(np.abs(q), out=resid_norms[i - 1])
        small = nw <= thresholds[i - 1]
        positive = q > 0
        # one reduction for both tests; a small residual is named first
        bad = small | (positive != positive[0])
        if bad.any():
            if i == m == n and small.all():
                frame[i - 1], signs[i - 1] = _complete_frame(frame[:i - 1])
                resid_norms[i - 1] = 0.0
                completed = True
                break
            if small.any():
                k = int(np.argmax(small))
                raise NonGenericCurveError(
                    f"orthogonalization residual {i} vanishes or is null at sample {k} "
                    f"(|w|={nw[k]:.3e}); the curve is not generic in {n} dimensions",
                    index=i,
                    sample=k,
                )
            k = int(np.argmax(bad))
            raise NonGenericCurveError(
                f"causal sign of frame vector {i} flips at sample {k}", index=i, sample=k
            )
        np.divide(w, nw, out=frame[i - 1])
        signs[i - 1] = 1 if positive[0] else -1

    negatives = int(np.count_nonzero(signs == -1))
    if negatives > 1 or (m == n and negatives != 1):
        raise NonGenericCurveError(
            f"frame signature is not index-1 ({negatives} timelike vectors)", index=m, sample=0
        )

    # k_i = |w_{i+1}| / (v |w_i|), with v taken from the orthogonalization
    # data itself (|w_1|): on stencil-backed curves the common stencil bias
    # of the |w| factors then cancels instead of leaking into k.
    # Formed in the array the state keeps, with no temporary allocated
    # before it (see ``curvekit.cumulative_simpson`` on heap layout).
    curvatures = np.empty((m - 1, N))
    np.multiply(resid_norms[0], resid_norms[:-1], out=curvatures)
    np.divide(resid_norms[1:], curvatures, out=curvatures)
    return FrenetData(frame=frame, signs=signs, curvatures=curvatures, completed_last=completed)


def _complete_frame(partial: np.ndarray):
    """Unit metric-orthogonal completion of an (n-1, n, N) partial frame.

    Returns the completing (n, N) grid of vectors and its causal sign; the
    sign of each vector is fixed by requiring a positively oriented basis.
    """
    m1, n, N = partial.shape
    # Generalized cross product of the constraint rows g*V_j, since
    # <V_j, z> = (g*V_j) . z (cofactor expansion).
    if n == 3:
        # np.cross of a = g*V_1 and b = g*V_2 written out.  g negates row 0,
        # and negation is exact, so a_2 b_0 - a_0 b_2 = x_0 y_2 - x_2 y_0 and
        # a_0 b_1 - a_1 b_0 = x_1 y_0 - x_0 y_1 bit for bit (x = V_1, y = V_2).
        x, y = partial
        z = np.empty((3, N))
        for k, (i, j) in enumerate(((1, 2), (0, 2), (1, 0))):
            np.subtract(x[i] * y[j], x[j] * y[i], out=z[k])
    else:
        rows = np.transpose(partial * metric_signs(n)[:, None], (2, 0, 1))  # (N, n-1, n)
        z = np.empty((n, N))
        for k in range(n):
            minor = np.delete(rows, k, axis=2)
            z[k] = (-1.0) ** k * np.linalg.det(minor)
    q, euclid = self_products(z)
    size = np.abs(q)
    bad = size <= GENERIC_RTOL * np.maximum(1e-300, euclid)
    if bad.any():
        k = int(np.argmax(bad))
        raise NonGenericCurveError(
            f"orthogonal complement is null at sample {k}; no unit completion exists",
            index=n,
            sample=k,
        )
    z /= np.sqrt(size)
    # det[V_1..V_{n-1}, z] = (-1)^n <z, z> for the cofactor vector z, so the
    # basis is positively oriented exactly where (-1)^n q > 0; z is negated
    # where (-1)^n q < 0, that is where q > 0 for odd n and q < 0 for even n.
    positive = q > 0
    np.negative(z, out=z, where=positive if n % 2 else q < 0)
    flips = positive != positive[0]
    if flips.any():
        k = int(np.argmax(flips))
        raise NonGenericCurveError(
            f"causal sign of the completion flips at sample {k}", index=n, sample=k
        )
    return z, 1 if positive[0] else -1


def stencil_curvatures(c: SampledCurve, fd: FrenetData) -> np.ndarray:
    """Curvatures k_i = e_i <dV_i/ds, V_{i+1}> via the difference operator."""
    m = fd.num_vectors
    out = np.empty((m - 1, c.samples))
    for i in range(1, m):
        dv = d_ds(fd.frame[i - 1], c)
        out[i - 1] = fd.signs[i] * inner_many(dv, fd.frame[i])
    return out


def frenet_residuals(c: SampledCurve, fd: FrenetData) -> np.ndarray:
    """Per-sample Euclidean norms of dV_i/ds minus the frame-system RHS.

    RHS_1 = k_1 V_2; RHS_i = -e_{i-2} e_{i-1} k_{i-1} V_{i-1} + k_i V_{i+1}
    for 1 < i < m; RHS_m keeps only the first term.  Returns an (m, N)
    array.
    """
    m = fd.num_vectors
    k = fd.curvatures
    e = fd.signs
    V = fd.frame
    out = np.empty((m, c.samples))
    for i in range(1, m + 1):
        dv = d_ds(V[i - 1], c)
        rhs = np.zeros_like(dv)
        if i == 1:
            if m >= 2:
                rhs += k[0] * V[1]
        else:
            rhs -= (e[i - 2] * e[i - 1]) * k[i - 2] * V[i - 2]
            if i < m:
                rhs += k[i - 1] * V[i]
        r = dv - rhs
        out[i - 1] = np.sqrt(dot_many(r, r))
    return out


def orthonormality_residual(fd: FrenetData) -> float:
    """max |<V_i, V_j> - e_{i-1} delta_ij| over samples and index pairs."""
    m = fd.num_vectors
    worst = 0.0
    for i in range(m):
        for j in range(i, m):
            g = inner_many(fd.frame[i], fd.frame[j])
            target = float(fd.signs[i]) if i == j else 0.0
            worst = max(worst, float(np.max(np.abs(g - target))))
    return worst
