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
from .minkowski import dot_many, inner_many, metric_signs

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

    for i in range(1, m + 1):
        # nothing is subtracted for i = 1, so the tangent rows need no copy
        w = c.derivs[i] if i == 1 else c.derivs[i].copy()
        for j in range(i - 1):
            w -= signs[j] * inner_many(w, frame[j]) * frame[j]
        q = inner_many(w, w)
        nw = np.sqrt(np.abs(q))
        scale = np.sqrt(dot_many(c.derivs[i], c.derivs[i]))
        small = nw <= GENERIC_RTOL * np.maximum(1e-300, scale)
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
        positive = q > 0
        flips = positive != positive[0]
        if flips.any():
            k = int(np.argmax(flips))
            raise NonGenericCurveError(
                f"causal sign of frame vector {i} flips at sample {k}", index=i, sample=k
            )
        np.divide(w, nw, out=frame[i - 1])
        signs[i - 1] = 1 if positive[0] else -1
        resid_norms[i - 1] = nw

    negatives = int(np.count_nonzero(signs == -1))
    if negatives > 1 or (m == n and negatives != 1):
        raise NonGenericCurveError(
            f"frame signature is not index-1 ({negatives} timelike vectors)", index=m, sample=0
        )

    # k_i = |w_{i+1}| / (v |w_i|), with v taken from the orthogonalization
    # data itself (|w_1|): on stencil-backed curves the common stencil bias
    # of the |w| factors then cancels instead of leaking into k.
    curvatures = np.empty((m - 1, N))
    for i in range(1, m):
        curvatures[i - 1] = resid_norms[i] / (resid_norms[0] * resid_norms[i - 1])
    return FrenetData(frame=frame, signs=signs, curvatures=curvatures, completed_last=completed)


def _complete_frame(partial: np.ndarray):
    """Unit metric-orthogonal completion of an (n-1, n, N) partial frame.

    Returns the completing (n, N) grid of vectors and its causal sign; the
    sign of each vector is fixed by requiring a positively oriented basis.
    """
    m1, n, N = partial.shape
    g = metric_signs(n)[:, None]
    # Generalized cross product of the constraint rows g*V_j, since
    # <V_j, z> = (g*V_j) . z (cofactor expansion).
    if n == 3:
        # np.cross written out: its axis handling cost more than the products.
        a, b = partial[0] * g, partial[1] * g
        z = np.empty((3, N))
        z[0] = a[1] * b[2] - a[2] * b[1]
        z[1] = a[2] * b[0] - a[0] * b[2]
        z[2] = a[0] * b[1] - a[1] * b[0]
    else:
        rows = np.transpose(partial * g, (2, 0, 1))  # (N, n-1, n) for det
        z = np.empty((n, N))
        for k in range(n):
            minor = np.delete(rows, k, axis=2)
            z[k] = (-1.0) ** k * np.linalg.det(minor)
    q = inner_many(z, z)
    euclid = dot_many(z, z)
    bad = np.abs(q) <= GENERIC_RTOL * np.maximum(1e-300, euclid)
    if bad.any():
        k = int(np.argmax(bad))
        raise NonGenericCurveError(
            f"orthogonal complement is null at sample {k}; no unit completion exists",
            index=n,
            sample=k,
        )
    z /= np.sqrt(np.abs(q))
    # det[V_1..V_{n-1}, z] = (-1)^n <z, z> for the cofactor vector z, so the
    # basis is positively oriented exactly where (-1)^n q > 0.
    np.negative(z, out=z, where=(-1.0) ** n * q < 0)
    positive = q > 0
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
