"""Index-1 metric kernel: inner product, norm, causal classification.

Vectors live in flat n-space whose first coordinate is the timelike axis,
so the inner product of X and Y is -x1*y1 + x2*y2 + ... + xn*yn.  The
"many" variants take (..., n, N) stacks: the component axis is axis -2 and
the sample axis, which is contiguous, is axis -1.  They skip per-call
validation (they are the hot path for sampled curves).  The scalar calls
accept plain sequences or numpy arrays, validate them, then pass an (n, 1)
view to the batched kernels, so both give the same numbers.

The component sums (``inner_many`` and its Euclidean twin ``dot_many``) add
the products x_i*y_i in the order numpy's ``einsum("...i,...i->...")`` does
on x86-64 over (..., N, n) rows, which these kernels replaced: a two-lane
accumulator that starts at +0.0, lane 0 taking the even components and
lane 1 the odd ones (each full block of 8 components in the order 6, 4, 2, 0
and 7, 5, 3, 1, the rest in order), then lane 0 + lane 1.  The order is
pinned so that every output stayed byte-identical across the rewrite, signed
zeros included.  Written out with one ufunc call per component row, each
call runs over N contiguous samples.
"""

from __future__ import annotations

import enum
import functools

import numpy as np

from .errors import DimensionMismatch

DEFAULT_NULL_TOL = 1e-9


class CausalCharacter(enum.Enum):
    SPACELIKE = "spacelike"
    TIMELIKE = "timelike"
    NULL = "null"


# Memoized: the kernels below are called several times per evolution stage,
# and building the vector cost more than using it.  Read-only, as it is shared.
@functools.cache
def metric_signs(n: int) -> np.ndarray:
    """Diagonal of the metric: (-1, +1, ..., +1) of length n (read-only)."""
    if n < 2:
        raise DimensionMismatch(f"dimension must be >= 2, got {n}")
    g = np.ones(n)
    g[0] = -1.0
    g.setflags(write=False)
    return g


def as_vector(x) -> np.ndarray:
    """Validate and return a finite float vector of dimension >= 2."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.shape[0] < 2:
        raise DimensionMismatch(f"expected a 1-d vector of dimension >= 2, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector components must be finite")
    return v


def inner(x, y) -> float:
    """Indefinite inner product -x1*y1 + sum_{i>=2} xi*yi."""
    xv = as_vector(x)
    yv = as_vector(y)
    if xv.shape[0] != yv.shape[0]:
        raise DimensionMismatch(f"dimensions differ: {xv.shape[0]} vs {yv.shape[0]}")
    return float(inner_many(xv[:, None], yv[:, None])[0])


def inner_many(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Inner product over axis -2 of two (..., n, N) stacks.  No validation."""
    return _row_sum(X * Y, negate_first=True)


def dot_many(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Euclidean dot product over axis -2 of two (..., n, N) stacks.  No validation."""
    return _row_sum(X * Y, negate_first=False)


@functools.cache
def _lanes(n: int, negate_first: bool):
    """einsum's summation plan for n components (see the module docstring).

    Lane 0 is a tuple of (ufunc, component) steps, with ``np.subtract`` for a
    negated component 0; lane 1 is a tuple of components.
    """
    if n < 2:
        raise DimensionMismatch(f"dimension must be >= 2, got {n}")
    blocked = n - n % 8
    lane0, lane1 = [], []
    for b in range(0, blocked, 8):
        lane0 += [b + 6, b + 4, b + 2, b]
        lane1 += [b + 7, b + 5, b + 3, b + 1]
    lane0 += range(blocked, n, 2)
    lane1 += range(blocked + 1, n, 2)
    steps = tuple((np.subtract if negate_first and k == 0 else np.add, k) for k in lane0)
    return steps, tuple(lane1)


def _row_sum(P: np.ndarray, negate_first: bool) -> np.ndarray:
    """Sum P over axis -2 in einsum's order, component 0 negated if asked."""
    lane0, lane1 = _lanes(P.shape[-2], negate_first)
    # Lane 0 starts from +0.0, so it is never -0.0 and neither is the sum, as
    # with einsum; lane 1 need not, since +0.0 + -0.0 is +0.0.
    even = 0.0
    for op, k in lane0:
        even = op(even, P[..., k, :])
    odd = P[..., lane1[0], :]
    for k in lane1[1:]:
        odd = odd + P[..., k, :]
    return even + odd


def norm(x) -> float:
    """sqrt(|<X,X>|); zero exactly when X is null or zero."""
    return float(norm_many(as_vector(x)[:, None])[0])


def norm_many(X: np.ndarray) -> np.ndarray:
    """sqrt(|<X,X>|) over axis -2 of an (..., n, N) stack."""
    return np.sqrt(np.abs(inner_many(X, X)))


def causal_character(x, tol: float = DEFAULT_NULL_TOL) -> CausalCharacter:
    """Classify a vector (see ``null_test``); the zero vector is spacelike, never null."""
    if tol < 0:
        raise ValueError("tol must be >= 0")
    return causal_character_many(as_vector(x)[:, None], tol)[0]


def null_test(X: np.ndarray, tol: float = DEFAULT_NULL_TOL):
    """The relative null test over axis -2 of an (..., n, N) stack: returns
    q = <X,X>, the Euclidean |X|^2, and the masks null, |q| <= tol*max(1, |X|^2)
    with X not zero, and timelike, q < -tol*max(1, |X|^2)."""
    q = inner_many(X, X)
    euclid = dot_many(X, X)
    thresh = tol * np.maximum(1.0, euclid)
    return q, euclid, (np.abs(q) <= thresh) & (euclid > 0), q < -thresh


def causal_character_many(X: np.ndarray, tol: float = DEFAULT_NULL_TOL) -> np.ndarray:
    """Classification over axis -2 of an (..., n, N) stack; returns an object
    array of CausalCharacter."""
    _, _, null, timelike = null_test(X, tol)
    out = np.full(null.shape, CausalCharacter.SPACELIKE, dtype=object)
    out[timelike] = CausalCharacter.TIMELIKE
    out[null] = CausalCharacter.NULL
    return out
