"""Index-1 metric kernel: inner product, norm, causal classification.

Vectors live in flat n-space whose first coordinate is the timelike axis,
so the inner product of X and Y is -x1*y1 + x2*y2 + ... + xn*yn.  The
"many" variants are vectorized over a leading sample axis and skip
per-call validation (they are the hot path for sampled curves).  The
scalar calls accept plain sequences or numpy arrays, validate them, then
delegate to the batched kernels, so both give the same numbers.
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
    return float(inner_many(xv, yv))


def inner_many(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Row-wise inner product of two (..., n) stacks.  No validation."""
    g = metric_signs(X.shape[-1])
    return np.einsum("...i,...i->...", X, g * Y)


def norm(x) -> float:
    """sqrt(|<X,X>|); zero exactly when X is null or zero."""
    return float(norm_many(as_vector(x)))


def norm_many(X: np.ndarray) -> np.ndarray:
    return np.sqrt(np.abs(inner_many(X, X)))


def causal_character(x, tol: float = DEFAULT_NULL_TOL) -> CausalCharacter:
    """Classify a vector as spacelike, timelike or null.

    The null test is relative: |<X,X>| <= tol * max(1, sum xi^2).  The zero
    vector is spacelike by convention, never null.
    """
    if tol < 0:
        raise ValueError("tol must be >= 0")
    return causal_character_many(as_vector(x), tol).item()


def causal_character_many(X: np.ndarray, tol: float = DEFAULT_NULL_TOL) -> np.ndarray:
    """Vectorized classification; returns an object array of CausalCharacter."""
    q = inner_many(X, X)
    euclid = np.einsum("...i,...i->...", X, X)
    thresh = tol * np.maximum(1.0, euclid)
    out = np.full(q.shape, CausalCharacter.SPACELIKE, dtype=object)
    out[q < -thresh] = CausalCharacter.TIMELIKE
    out[(np.abs(q) <= thresh) & (euclid > 0)] = CausalCharacter.NULL
    return out

