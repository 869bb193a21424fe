import itertools
import platform
import re
from pathlib import Path

import numpy as np
import pytest

import curveflow
from curveflow.errors import DimensionMismatch
from curveflow.minkowski import (
    DEFAULT_NULL_TOL,
    dot_many,
    inner_many,
    metric_signs,
    norm_many,
    null_mask,
    null_test,
    self_products,
)


def _columns(*vectors):
    """Vectors as the columns of one (n, N) stack."""
    return np.array(vectors, dtype=float).T


def test_inner_examples():
    X = _columns((1, 0, 0), (0, 1, 0), (3, 1, 2))
    Y = _columns((1, 0, 0), (0, 0, 1), (1, 4, 0))
    assert inner_many(X, Y).tolist() == [-1.0, 0.0, 1.0]
    # one vector is an (n, 1) column
    assert inner_many(X[:, 2:], Y[:, 2:]).tolist() == [1.0]


def test_norm_examples():
    assert norm_many(_columns((1, 0), (1, 1), (2, 0))).tolist() == [1.0, 0.0, 2.0]
    assert norm_many(_columns((2, 0, 0))).tolist() == [2.0]


def test_causal_character_examples():
    # timelike, null, timelike, spacelike, and a NaN q (-inf + inf), read as null
    with np.errstate(over="ignore", invalid="ignore"):
        _, euclid, far, timelike = null_test(
            _columns((1, 0, 0), (1, 1, 0), (2, 1, 1), (1, 2, 0), (1e200, 1e200, 0))
        )
    assert far.tolist() == [True, False, True, True, False]
    assert null_mask(far, euclid).tolist() == [False, True, False, False, True]
    assert timelike.tolist() == [True, False, True, False, False]


def test_zero_vector_is_spacelike_not_null():
    for zero in (0.0, -0.0):
        q, euclid, far, timelike = null_test(np.full((3, 1), zero))
        null = null_mask(far, euclid)
        assert (q[0], euclid[0], far[0], null[0], timelike[0]) == (0.0, 0.0, False, False, False)


def test_null_test_is_relative():
    # |<X,X>| = 2e5 * 1e-7 = 0.02, far above DEFAULT_NULL_TOL, but the
    # Euclidean scale is huge
    q, euclid, far, timelike = null_test(_columns((1e4, 1e4 + 1e-7)))
    assert abs(q[0]) > 1e6 * DEFAULT_NULL_TOL
    assert abs(q[0]) <= DEFAULT_NULL_TOL * euclid[0]
    assert far.tolist() == [False] and timelike.tolist() == [False]
    assert null_mask(far, euclid).tolist() == [True]


def test_dimension_mismatch():
    for kernel in (norm_many, lambda X: null_test(X)[0]):
        with pytest.raises(DimensionMismatch):
            kernel(np.ones((1, 4)))
    with pytest.raises(DimensionMismatch):
        metric_signs(1)


@pytest.mark.parametrize("n", range(2, 9))
def test_signature_on_basis(n):
    basis = np.eye(n)
    for i in range(n):
        for j in range(n):
            expected = (-1.0 if i == 0 else 1.0) if i == j else 0.0
            assert inner_many(basis[:, i:i + 1], basis[:, j:j + 1]).tolist() == [expected]
    assert metric_signs(n)[0] == -1 and np.all(metric_signs(n)[1:] == 1)


def test_norm_squared_matches_inner():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((5, 500))
    q = np.abs(inner_many(X, X))
    assert np.allclose(norm_many(X) ** 2, q, rtol=1e-12, atol=1e-300)


# The component sums replaced np.einsum over (..., N, n) rows and must add in
# its order, so that outputs written before and after agree byte for byte;
# tobytes() also tells -0.0 from 0.0, which np.array_equal does not.  einsum
# fuses multiply and add on some other architectures, so the order is pinned
# for x86-64 only.
x86_64_only = pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"),
    reason="the einsum summation order is pinned on x86-64",
)


def _rows(X):
    """An (..., n, N) stack as the contiguous (..., N, n) rows einsum summed."""
    return np.ascontiguousarray(np.swapaxes(X, -1, -2))


def _einsum_inner(X, Y):
    return np.einsum("...i,...i->...", _rows(X), metric_signs(X.shape[-2]) * _rows(Y))


def _einsum_dot(X, Y):
    return np.einsum("...i,...i->...", _rows(X), _rows(Y))


def _assert_same_bytes(X, Y):
    for ours, ref in ((inner_many, _einsum_inner), (dot_many, _einsum_dot)):
        a, b = ours(X, Y), ref(X, Y)
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()


# n = 8 and up exercise einsum's blocks of eight components.
@x86_64_only
@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 13])
def test_row_sums_match_einsum_bytes(n):
    rng = np.random.default_rng(50 + n)
    m, N = 3, 66
    # Magnitudes spread over 16 decades, so the order of the additions shows.
    F = rng.standard_normal((m, n, N)) * 10.0 ** rng.integers(-8, 8, (m, n, N))
    G = rng.standard_normal((m, n, N)) * 10.0 ** rng.integers(-8, 8, (m, n, N))
    _assert_same_bytes(F[0], G[0])  # (n, N)
    _assert_same_bytes(F[0], F[0])
    _assert_same_bytes(F, G)  # (m, n, N)
    _assert_same_bytes(F[None], G[:, None])  # (1, m, n, N) x (m, 1, n, N)
    _assert_same_bytes(F[..., ::2], G[..., 1::2])  # strided views
    _assert_same_bytes(F[0, :, ::3], G[1, :, ::3])
    _assert_same_bytes(_rows(F[0]).T, G[2])  # transposed view of (N, n) rows
    _assert_same_bytes(F[0, :, :1], G[0, :, :1])  # one vector


@x86_64_only
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_row_sums_match_einsum_signed_zeros(n):
    rows = np.array(list(itertools.product([0.0, -0.0, 1.0, -1.0, 2.5], repeat=n)))
    shuffled = rows[np.random.default_rng(n).permutation(rows.shape[0])]
    for Y in (rows, shuffled, rows[::-1], np.ones_like(rows), -np.ones_like(rows)):
        _assert_same_bytes(rows.T, Y.T)
    X = rows[:40].T
    _assert_same_bytes(X.T[:, :, None], X[None])  # every pair: (40, n, 1) x (1, n, 40)


# n = 8 and up run the blocks of eight components in ``_lanes``.
@pytest.mark.parametrize("n", range(2, 11))
def test_null_test_shares_one_product_bit_for_bit(n):
    rng = np.random.default_rng(70 + n)
    N = 200
    X = rng.standard_normal((n, N)) * 10.0 ** rng.integers(-8, 8, (n, N))
    X[rng.random((n, N)) < 0.3] = 0.0
    X[rng.random((n, N)) < 0.3] = -0.0
    X[:, 0], X[:, 1] = 0.0, -0.0  # an all-zero vector of each sign
    for V in (X, X[None].repeat(2, axis=0), X[:, ::3]):
        q, euclid, _, _ = null_test(V)
        for ours, ref in ((q, inner_many(V, V)), (euclid, dot_many(V, V))):
            assert ours.shape == ref.shape
            assert ours.tobytes() == ref.tobytes()
        for ours, ref in zip(self_products(V), (q, euclid)):
            assert ours.tobytes() == ref.tobytes()


def test_no_einsum_left_in_package():
    package = Path(curveflow.__file__).parent
    calls = re.compile(r"\b(np|numpy)\.einsum\b")
    found = [p.name for p in sorted(package.rglob("*.py")) if calls.search(p.read_text())]
    assert found == []
