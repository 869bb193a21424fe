"""Index-1 metric kernel: batched inner product, norm and null test.

Vectors live in flat n-space whose first coordinate is the timelike axis,
so the inner product of X and Y is -x1*y1 + x2*y2 + ... + xn*yn.  Every
kernel takes (..., n, N) stacks: the component axis is axis -2 and the
sample axis, which is contiguous, is axis -1.  They skip per-call
validation (they are the hot path for sampled curves).  One vector x is the
(n, 1) column ``x[:, None]``: ``inner_many(x[:, None], y[:, None])[0]``.

The component sums (``inner_many`` and its Euclidean twin ``dot_many``) add
the products x_i*y_i in the order numpy's ``einsum("...i,...i->...")`` does
on x86-64 over (..., N, n) rows, which these kernels replaced: a two-lane
accumulator that starts at +0.0, lane 0 taking the even components and
lane 1 the odd ones (each full block of 8 components in the order 6, 4, 2, 0
and 7, 5, 3, 1, the rest in order), then lane 0 + lane 1.  The order is
pinned so that every output stayed byte-identical across the rewrite, signed
zeros included.  Written out with one ufunc call per component row, each
call runs over N contiguous samples, accumulating in place.

``null_test`` forms the products x_i*x_i once and sums them twice, into
<X,X> and |X|^2; ``self_products`` returns that pair for other callers.
Each sum is bitwise the one ``inner_many(X, X)`` or ``dot_many(X, X)``
gives.
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


def metric_signs(n: int) -> np.ndarray:
    """Diagonal of the metric: (-1, +1, ..., +1) of length n."""
    if n < 2:
        raise DimensionMismatch(f"dimension must be >= 2, got {n}")
    g = np.ones(n)
    g[0] = -1.0
    return g


def inner_many(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Inner product over axis -2 of two (..., n, N) stacks.  No validation."""
    return row_sum(X * Y, negate_first=True)


def dot_many(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Euclidean dot product over axis -2 of two (..., n, N) stacks.  No validation."""
    return row_sum(X * Y, negate_first=False)


@functools.cache
def _lanes(n: int, negate_first: bool):
    """einsum's summation plan for n components (see the module docstring).

    Lane 0 is its first (ufunc, row) step and a tuple of the other steps,
    with ``np.subtract`` for a negated component 0; lane 1 is a tuple of
    rows.  A row is the index of one component row of an (..., n, N) stack.
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
    rows = [(Ellipsis, k, slice(None)) for k in range(n)]
    steps = tuple((np.subtract if negate_first and k == 0 else np.add, rows[k]) for k in lane0)
    return steps[0], steps[1:], tuple(rows[k] for k in lane1)


def self_products(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """<X,X> and the Euclidean |X|^2 over axis -2 of an (..., n, N) stack, from
    one product X*X.  No validation."""
    P = X * X
    return row_sum(P, negate_first=True), row_sum(P, negate_first=False)


def row_sum(P: np.ndarray, negate_first: bool) -> np.ndarray:
    """Sum P over axis -2 in einsum's order, component 0 negated if asked.

    P is only read, so one product can feed several sums, and a caller may
    form the products X*Y into a buffer of its own: ``row_sum(P, True)`` is
    then ``inner_many(X, Y)`` bit for bit.
    """
    (op, row), rest, lane1 = _lanes(P.shape[-2], negate_first)
    # Lane 0 starts from +0.0, so it is never -0.0 and neither is the sum, as
    # with einsum; lane 1 need not, since +0.0 + -0.0 is +0.0.
    even = op(0.0, P[row])
    for op, row in rest:
        op(even, P[row], out=even)
    if len(lane1) == 1:
        return np.add(even, P[lane1[0]], out=even)
    odd = P[lane1[0]] + P[lane1[1]]
    for row in lane1[2:]:
        np.add(odd, P[row], out=odd)
    return np.add(even, odd, out=even)


def norm_many(X: np.ndarray) -> np.ndarray:
    """sqrt(|<X,X>|) over axis -2 of an (..., n, N) stack."""
    return np.sqrt(np.abs(inner_many(X, X)))


def null_test(X: np.ndarray):
    """The relative null test over axis -2 of an (..., n, N) stack: returns
    q = <X,X>, the Euclidean |X|^2, and the masks far, |q| > tol*max(1, |X|^2),
    and timelike, q < -tol*max(1, |X|^2), for tol = DEFAULT_NULL_TOL.

    A vector that is not far is null unless it is zero (``null_mask``).  One
    count of ``far`` passes a stack with no vector near the light cone, so
    the null mask need be formed only when that count falls short.  A NaN q
    (-inf + inf, from overflowing squares) is not far, so it is null:
    nothing shows it to be safely away from the light cone."""
    q, euclid = self_products(X)
    thresh = DEFAULT_NULL_TOL * np.maximum(1.0, euclid)
    return q, euclid, np.abs(q) > thresh, q < -thresh


def null_mask(far: np.ndarray, euclid: np.ndarray) -> np.ndarray:
    """The null vectors of a ``null_test``: not far from the light cone and
    not zero (a zero vector is neither null nor timelike)."""
    return ~far & (euclid > 0)
