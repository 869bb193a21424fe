import itertools
import platform
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curveflow
from curveflow.errors import DimensionMismatch
from curveflow.minkowski import (
    CausalCharacter,
    causal_character,
    causal_character_many,
    dot_many,
    inner,
    inner_many,
    metric_signs,
    norm,
    norm_many,
    null_test,
    self_products,
)


def test_inner_examples():
    assert inner((1, 0, 0), (1, 0, 0)) == -1.0
    assert inner((0, 1, 0), (0, 0, 1)) == 0.0
    assert inner((3, 1, 2), (1, 4, 0)) == pytest.approx(1.0)


def test_norm_examples():
    assert norm((1, 0)) == 1.0
    assert norm((1, 1)) == 0.0
    assert norm((2, 0, 0)) == 2.0


def test_causal_character_examples():
    assert causal_character((1, 0)) is CausalCharacter.TIMELIKE
    assert causal_character((1, 1)) is CausalCharacter.NULL
    assert causal_character((2, 1, 1)) is CausalCharacter.TIMELIKE
    assert causal_character((1, 2)) is CausalCharacter.SPACELIKE


def test_zero_vector_is_spacelike_not_null():
    assert causal_character((0.0, 0.0, 0.0)) is CausalCharacter.SPACELIKE


def test_null_test_is_relative():
    # |<X,X>| = 2e5 * 1e-7 = 0.02 but the Euclidean scale is huge
    x = (1e4, 1e4 + 1e-7)
    assert causal_character(x, tol=1e-9) is CausalCharacter.NULL
    assert causal_character(x, tol=0.0) is CausalCharacter.SPACELIKE


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        inner((1, 0), (1, 0, 0))
    with pytest.raises(DimensionMismatch):
        norm((1.0,))


def test_rejects_non_finite():
    with pytest.raises(ValueError):
        inner((1, np.nan), (1, 0))


def test_negative_tol_rejected():
    with pytest.raises(ValueError):
        causal_character((1, 0), tol=-1.0)


@pytest.mark.parametrize("n", range(2, 9))
def test_signature_on_basis(n):
    basis = np.eye(n)
    for i in range(n):
        for j in range(n):
            expected = (-1.0 if i == 0 else 1.0) if i == j else 0.0
            assert inner(basis[i], basis[j]) == expected
    assert metric_signs(n)[0] == -1 and np.all(metric_signs(n)[1:] == 1)


@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=50, deadline=None)
def test_bilinearity_and_symmetry(n, seed):
    rng = np.random.default_rng(seed)
    x, y, z = rng.standard_normal((3, n))
    a, b = rng.standard_normal(2)
    lhs = inner(a * x + b * z, y)
    rhs = a * inner(x, y) + b * inner(z, y)
    scale = max(1.0, abs(lhs), abs(rhs))
    assert abs(lhs - rhs) <= 1e-12 * scale
    assert inner(x, y) == inner(y, x)


def test_norm_squared_matches_inner():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((5, 500))
    q = np.abs(inner_many(X, X))
    assert np.allclose(norm_many(X) ** 2, q, rtol=1e-12, atol=1e-300)


def test_vectorized_classification_agrees_with_scalar():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((4, 200))
    X[:, 0] = 0.0
    X[:, 1] = (1.0, 1.0, 0.0, 0.0)
    many = causal_character_many(X)
    for i in range(X.shape[1]):
        assert many[i] is causal_character(X[:, i])


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
