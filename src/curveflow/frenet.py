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

The curve sets the frame's size.  In a hyperplane the last residual of
the orthogonalization vanishes and, where the metric complement of the
partial frame is non-null, the unit vector that orients the basis
positively completes the frame (its last curvature is zero).  An earlier
residual that is zero at every sample (a line, a circle in n >= 4) ends
the frame before it.  Any other breakdown raises NonGenericCurveError.

The completion is the vector of metric cofactors of the partial frame,
formed by one Laplace expansion for every n (``_cofactor_plan``) from
products and sums only: at n = 3 it is the written-out metric cross
product, bit for bit, and at n = 2 the entries of V_1 swapped.  A
projector completion, I - sum_j e_j V_j (g V_j)^T, costs less at large n
but does not keep the n = 3 bits, so it is not used.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .curvekit import SampledCurve, d_ds
from .errors import NonGenericCurveError
from .minkowski import dot_many, inner_many, self_products

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

    By default the curve sizes the frame: a residual w_i whose Euclidean
    norm is small at every sample ends it at i - 1 vectors.  An explicit
    ``num_vectors`` builds exactly that many.  e_0 agrees with ``c.char``,
    since ``SampledCurve`` classified the same w_1 = derivs[1].
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
        # the derivative rows are only read: the first projection writes a
        # new w, the later ones update it in place
        w = c.derivs[i]
        for j in range(i - 1):
            # e_j is +-1, so w - e_j <w, V_j> V_j is w -+ <w, V_j> V_j bit for bit
            step = np.subtract if signs[j] > 0 else np.add
            w = step(w, inner_many(w, frame[j]) * frame[j], out=w if j else None)
        # w_1 is the tangent, whose product the curve's null test formed
        q = inner_many(w, w) if i > 1 else c.take_tangent_q()
        nw = np.sqrt(np.abs(q), out=resid_norms[i - 1])
        small = nw <= thresholds[i - 1]
        # two counts (count_nonzero is numpy's cheapest reduction) test both
        # conditions: no small residual, and q > 0 at every sample or at none;
        # a vanishing last residual completes the frame, whose sign no count
        # reads, and an earlier zero (not null) one ends an unsized frame
        n_small = np.count_nonzero(small)
        if n_small == N and i == n:
            frame[i - 1], signs[i - 1] = _complete_frame(frame[:i - 1])
            resid_norms[i - 1] = 0.0
            completed = True
            break
        if n_small == N and num_vectors is None and np.all(np.sqrt(dot_many(w, w)) <= thresholds[i - 1]):
            m = i - 1
            frame, signs, resid_norms = frame[:m], signs[:m], resid_norms[:m]
            break
        n_positive = np.count_nonzero(q > 0)
        if n_small or 0 < n_positive < N:
            if n_small:  # named before a sign flip
                k = int(np.argmax(small))
                raise NonGenericCurveError(
                    f"orthogonalization residual {i} vanishes or is null at sample {k} "
                    f"(|w|={nw[k]:.3e}); the curve is not generic in {n} dimensions",
                    index=i,
                    sample=k,
                )
            k = _first_flip(q > 0)
            raise NonGenericCurveError(
                f"causal sign of frame vector {i} flips at sample {k}", index=i, sample=k
            )
        np.divide(w, nw, out=frame[i - 1])
        signs[i - 1] = 1 if n_positive else -1

    negatives = signs.tolist().count(-1)
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
    # the cofactors z_k of the rows g*V_j, so <V_j, z> = 0: products and sums
    levels, count = _cofactor_plan(n)
    z, buffer = partial[0, ::-1], np.empty((count, N))
    for r, (rows, level) in enumerate(levels, 1):
        row, minors, z = partial[r], z, buffer[rows]
        for out, (c, i, rest) in zip(z, level):
            np.multiply(row[c], minors[i], out=out)
            for op, c, i in rest:
                op(out, row[c] * minors[i], out=out)
    q, euclid = self_products(z)
    size = np.abs(q)
    bad = size <= GENERIC_RTOL * np.maximum(1e-300, euclid)
    if np.count_nonzero(bad):
        k = int(np.argmax(bad))
        raise NonGenericCurveError(
            f"orthogonal complement is null at sample {k}; no unit completion exists",
            index=n,
            sample=k,
        )
    z = z / np.sqrt(size)  # at n = 2, z is a view of V_1
    n_positive = np.count_nonzero(q > 0)
    if 0 < n_positive < N:
        k = _first_flip(q > 0)
        raise NonGenericCurveError(
            f"causal sign of the completion flips at sample {k}", index=n, sample=k
        )
    # det[V_1..V_{n-1}, z] = (-1)^n <z, z> for the cofactor vector z, so the
    # basis is positively oriented exactly where (-1)^n q > 0.  q is not zero
    # (that is ``bad``) and has one sign along the curve, so z is negated
    # everywhere or nowhere: where q > 0 for odd n and where q < 0 for even n.
    if (n_positive > 0) == (n % 2 == 1):
        np.negative(z, out=z)
    return z, 1 if n_positive else -1


@functools.cache
def _cofactor_plan(n: int):
    """The Laplace expansion of the n cofactors of n - 1 rows of length n,
    as (levels, count).

    Level 0's minors are the entries of row 0.  Level r, for r = 1..n-2,
    expands every minor of rows 0..r over r + 1 columns along row r, into
    the rows ``rows`` of one (count, N) buffer: odd levels from its start,
    even ones from its end, so a level overwrites only minors that no level
    reads any more (126 rows at n = 8, of 246 minors).  A minor (c, i, rest) is
    row[c] * minors[i], then op(out, row[c] * minors[i]) in place for each
    (op, c, i) of rest, where ``minors`` are level r - 1's.  Each level,
    level 0 too, lists its column sets in reverse lexicographic order, so
    the last level's k-th set leaves out column k: its minors are the
    cofactors z_k = (-1)^k det(g*V without column k), in the order of k.
    g negates column 0, which every cofactor but z_0 holds once in each
    term, so that sign and (-1)^k are folded into the term signs.  Every
    sum starts with a positive term, so no product is negated.  At n = 3
    this is z_k = x_i y_j - x_j y_i, the metric cross product of the rows x
    and y; at n = 2 level 0 is the last, and z is row 0 reversed.
    """
    columns, levels, widths = [(c,) for c in reversed(range(n))], [], [0, 0]  # even, odd levels
    for r in range(1, n - 1):
        below, columns = columns, list(itertools.combinations(range(n), r + 1))[::-1]
        level = []
        for k, cols in enumerate(columns):
            # the sign of term 0: (-1)^r, at the last level times (-1)^k and g's -1
            sign = (-1) ** (r + k) * (-1 if k else 1) if r == n - 2 else (-1) ** r
            (_, c, i), *rest = sorted(  # (negative, column, minor below) per term t
                (sign * (-1) ** t < 0, c, below.index(cols[:t] + cols[t + 1:])) for t, c in enumerate(cols))
            level.append((c, i, tuple((np.subtract if neg else np.add, c, i) for neg, c, i in rest)))
        widths[r % 2] = max(widths[r % 2], len(level))
        levels.append((slice(0, len(level)) if r % 2 else slice(-len(level), None), tuple(level)))
    return tuple(levels), sum(widths)


def _first_flip(positive: np.ndarray) -> int:
    """The first sample whose sign differs from sample 0's."""
    return int(np.argmax(positive != positive[0]))


def stencil_curvatures(c: SampledCurve, fd: FrenetData) -> np.ndarray:
    """Curvatures k_i = e_i <dV_i/ds, V_{i+1}> via the difference operator."""
    dv = d_ds(fd.frame[:-1], c)
    return fd.signs[1:, None] * inner_many(dv, fd.frame[1:])


def frenet_residuals(c: SampledCurve, fd: FrenetData) -> np.ndarray:
    """Per-sample Euclidean norms of dV_i/ds minus the frame-system RHS.

    RHS_1 = k_1 V_2; RHS_i = -e_{i-2} e_{i-1} k_{i-1} V_{i-1} + k_i V_{i+1}
    for 1 < i < m; RHS_m keeps only the first term.  Returns an (m, N)
    array.
    """
    k = fd.curvatures
    e = fd.signs
    V = fd.frame
    dv = d_ds(V, c)
    # zeros, minus the first term, plus the second: the rounding of one vector at a time
    rhs = np.zeros_like(dv)
    rhs[1:] -= ((e[:-1] * e[1:])[:, None] * k)[:, None] * V[:-1]
    rhs[:-1] += k[:, None] * V[1:]
    r = dv - rhs
    return np.sqrt(dot_many(r, r))
