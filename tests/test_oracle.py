"""Symbolic oracle for the right-hand sides in ``curveflow.verify``.

The frame equations are derived here from scratch with sympy, keeping the
causal signs e_0..e_{n-1} symbolic.  With the frame metric G = diag(e):

- V_s = K V, where K has the curvatures k_i on its superdiagonal and the
  rest of the tridiagonal from G K + K^T G = 0;
- a_t = sum_i f_i V_i and s does not move, so dV_1/dt = sum_j c_j V_j with
  c = f_s + K^T f, and inextensibility is c_1 = 0;
- V_t = Psi V, with first row c and the other rows from G Psi + Psi^T G = 0;
- V_st = V_ts gives K_t = Psi_s + [Psi, K].

The coded functions take the same fields on a grid, with exact
s-derivatives, and must agree to 1e-12 relative for every sign pattern.
"""

import itertools

import numpy as np
import pytest
import sympy as sp

from curveflow.verify import curvature_rates, k1_rate, tangent_rate_coefficients

s = sp.Symbol("s")
GRID = np.linspace(0.0, 2.0, 41)
RTOL = 1e-12


def _antisymmetric(upper: sp.Matrix, G: sp.Matrix) -> sp.Matrix:
    """The A with the strictly upper triangle of ``upper`` and G A + A^T G = 0."""
    A = upper - G.inv() * upper.T * G
    assert (G * A + A.T * G).applyfunc(sp.simplify) == sp.zeros(*A.shape)
    return A


def _superdiagonal(entries) -> sp.Matrix:
    n = len(entries) + 1
    return sp.Matrix(n, n, lambda i, j: entries[i] if j == i + 1 else 0)


def _derive(n: int) -> dict:
    e = sp.symbols(f"e0:{n}")
    G = sp.diag(*e)
    k = [sp.Function(f"k{i}")(s) for i in range(1, n)]
    f = [sp.Function(f"f{i}")(s) for i in range(1, n + 1)]
    K = _antisymmetric(_superdiagonal(k), G)
    fv = sp.Matrix(f)
    c = fv.diff(s) + K.T * fv

    # Psi: first row c, generic higher rows; c_1 sits on the zero diagonal,
    # which is inextensibility, so f_1' is eliminated through c_1 = 0.
    upper = sp.zeros(n, n)
    for j in range(1, n):
        upper[0, j] = c[j]
        for i in range(1, j):
            upper[i, j] = sp.Function(f"w{i}{j}")(s)
    Psi = _antisymmetric(upper, G)
    f1_s = sp.solve(c[0], f[0].diff(s))[0]
    k1_t = (Psi.diff(s) + Psi * K - K * Psi)[0, 1].subs(f[0].diff(s), f1_s)
    assert not any(str(a.func).startswith("w") for a in k1_t.atoms(sp.Function))

    # The psi of the checks is psi_kj = <dV_j/dt, V_k>, antisymmetric, and the
    # V_k coefficient of dV_j/dt is e_{k-1} psi_kj, so Psi = psi^T G.
    p_upper = sp.Matrix(n, n, lambda a, b: sp.Function(f"p{a}{b}")(s) if a < b else 0)
    psi = p_upper - p_upper.T
    Psi_p = psi.T * G
    rates = Psi_p.diff(s) + Psi_p * K - K * Psi_p
    return {
        "e": e,
        "k": k,
        "f": f,
        "c": list(c[1:]),
        "k1_t": k1_t,
        "psi": psi,
        "k_t": [rates[i, i + 1] for i in range(n - 1)],
    }


def _random_field(rng) -> sp.Expr:
    a, b, w, phase = (round(float(x), 3) for x in rng.uniform(0.3, 1.5, 4))
    return a + b * sp.sin(w * s + phase)


class _Grid:
    """Random smooth fields for every unknown function, evaluated with exact
    s-derivatives on GRID."""

    def __init__(self, functions, seed):
        rng = np.random.default_rng(seed)
        self.exprs = {fn: _random_field(rng) for fn in functions}

    def compile(self, expr, e=()):
        """expr on GRID as a function of the signs e."""
        fn = sp.lambdify((s, *e), expr.subs(self.exprs).doit(), "numpy")
        return lambda *signs: np.broadcast_to(np.asarray(fn(GRID, *signs), float), GRID.shape)

    def values(self, expr):
        return self.compile(expr)()


def _padded(rows, size):
    out = np.zeros((size, GRID.size))
    out[1 : len(rows) + 1] = rows
    return out


def _close(coded, oracle):
    scale = max(float(np.max(np.abs(oracle))), 1.0)
    np.testing.assert_allclose(coded, oracle, rtol=RTOL, atol=RTOL * scale)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_frame_right_hand_sides_match_symbolic_derivation(n):
    d = _derive(n)
    psi_entries = sorted(d["psi"].atoms(sp.Function), key=str)
    grid = _Grid(d["k"] + d["f"] + psi_entries, seed=n)
    size = n + 3
    k = _padded([grid.values(x) for x in d["k"]], size)
    ks = _padded([grid.values(x.diff(s)) for x in d["k"]], size)
    f = _padded([grid.values(x) for x in d["f"]], size)
    fs = _padded([grid.values(x.diff(s)) for x in d["f"]], size)
    fss = _padded([grid.values(x.diff(s, 2)) for x in d["f"]], size)
    psi = np.zeros((n + 2, n + 2, GRID.size))
    dpsi = np.zeros_like(psi)
    for a, b in itertools.product(range(n), repeat=2):
        psi[a + 1, b + 1] = grid.values(d["psi"][a, b])
        dpsi[a + 1, b + 1] = grid.values(d["psi"][a, b].diff(s))
    c_oracle = [grid.compile(x, d["e"]) for x in d["c"]]
    k1_oracle = grid.compile(d["k1_t"], d["e"])
    k_t_oracle = [grid.compile(x, d["e"]) for x in d["k_t"]]

    for signs in itertools.product((1.0, -1.0), repeat=n):
        e = np.ones(size)
        e[:n] = signs
        c = tangent_rate_coefficients(e, k, f, fs, n)
        _close(c, np.array([fn(*signs) for fn in c_oracle]))
        _close(k1_rate(e, k, ks, f, fs, fss), k1_oracle(*signs))
        metric, _ = curvature_rates(e, k, psi, dpsi, n)
        _close(metric, np.array([fn(*signs) for fn in k_t_oracle]))
    # the classical reading is the positive-definite equation: with every
    # e_i = +1 it is the same dk_i/dt
    _, classical = curvature_rates(np.ones(size), k, psi, dpsi, n)
    _close(classical, np.array([fn(*[1.0] * n) for fn in k_t_oracle]))
