import gc
import json
import math
import operator
from importlib import resources

import numpy as np
import pytest
import sympy

from curveflow import catalog
from curveflow.errors import DomainError, ParseError, UnboundVariable
from curveflow.exprjet import (
    MAX_DEPTH,
    BinOp,
    Call,
    Jet,
    Lit,
    Neg,
    Pow,
    Var,
    eval_jet,
    eval_scalar,
    parse,
    variables,
)


def test_parse_examples():
    assert parse("sin(u)") == Call("sin", Var("u"))
    assert parse("1 - cos(s)") == BinOp("-", Lit(1.0), Call("cos", Var("s")))
    assert eval_scalar(parse("2*u + u^3"), u=2.0) == pytest.approx(12.0)


def test_precedence():
    # ^ binds above unary minus, which binds above * and /
    assert parse("-u^2") == Neg(Pow(Var("u"), 2))
    assert parse("2*u^3") == BinOp("*", Lit(2.0), Pow(Var("u"), 3))
    assert parse("-u*v") == BinOp("*", Neg(Var("u")), Var("v"))
    assert parse("1 - 2 - 3") == BinOp("-", BinOp("-", Lit(1.0), Lit(2.0)), Lit(3.0))
    assert parse("u^2^3") == Pow(Var("u"), 8)  # right-assoc exponent chain
    assert parse("u^-2") == Pow(Var("u"), -2)


def test_constants_and_whitespace():
    assert parse(" pi ") == Lit(math.pi)
    assert eval_scalar(parse("cos(pi)")) == pytest.approx(-1.0)


@pytest.mark.parametrize(
    "text,offset",
    [
        ("2 +", 3),
        ("sin(u", 5),
        ("u^x", 2),
        ("(1+2", 4),
        ("1 @ 2", 2),
        ("foo(u)", 0),
        ("1 2", 2),
        # one level past MAX_DEPTH (100): offset of the construct that opens it
        ("(" * 101 + "u" + ")" * 101, 100),
        ("-" * 1000 + "u", 100),
        ("sin(" * 300 + "u" + ")" * 300, 400),
        ("+".join(["u"] * 102), 201),
        ("u" + "^1" * 101, 201),
        # exponent chains stay integers within MAX_EXPONENT (1000)
        ("u^9^9^9", 4),
        ("u^1001", 2),
        ("u^2^10", 2),
        ("u^2^-1", 2),
        ("u^0^-1", 2),
    ],
)
def test_parse_errors_carry_offsets(text, offset):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.offset == offset


@pytest.mark.parametrize(
    "text",
    [
        "(" * MAX_DEPTH + "u" + ")" * MAX_DEPTH,
        "-" * MAX_DEPTH + "u",
        "sin(" * MAX_DEPTH + "u" + ")" * MAX_DEPTH,
        "+".join(["u"] * (MAX_DEPTH + 1)),
        "u" + "^1" * MAX_DEPTH,
        "-(" * (MAX_DEPTH // 2) + "u" + ")" * (MAX_DEPTH // 2),
    ],
)
def test_nesting_at_the_depth_limit_parses_and_evaluates(text):
    expr = parse(text)
    assert variables(expr) == {"u"}
    assert np.isfinite(eval_jet(expr, "u", np.linspace(0.1, 0.9, 5), 2).coeffs).all()


def test_eval_jet_polynomial():
    jet = eval_jet(parse("u^2"), "u", 3.0, 2)
    assert np.allclose(jet.coeffs, [9.0, 6.0, 1.0])


def test_eval_jet_sin_maclaurin():
    jet = eval_jet(parse("sin(u)"), "u", 0.0, 3)
    assert np.allclose(jet.coeffs, [0.0, 1.0, 0.0, -1.0 / 6.0], atol=1e-15)


def test_eval_jet_matches_central_difference():
    expr = parse("sinh(u)")
    jet = eval_jet(expr, "u", 0.7, 1)
    h = 1e-5
    fd = (eval_scalar(expr, u=0.7 + h) - eval_scalar(expr, u=0.7 - h)) / (2 * h)
    assert jet.derivative(1) == pytest.approx(fd, abs=1e-9)


def test_eval_jet_leaves_no_reference_cycles():
    # garbage that only the cyclic collector frees piles up between its runs
    expr, s = parse("sin(s)+2*s"), np.linspace(0.0, 1.0, 16)
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            eval_jet(expr, "s", s, 1)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("fn", ["sin", "cos", "sinh", "cosh"])
def test_trig_pair_jets(fn):
    s = np.linspace(-3.0, 3.0, 101)
    expr = parse(f"{fn}(0.7*s - 0.2)")
    u = 0.7 * s - 0.2
    value = getattr(np, fn)(u)
    # order 0 is the plain numpy value, byte for byte
    assert eval_jet(expr, "s", s, 0).coeffs.tobytes() == value[None].tobytes()
    # d/du cycles sin -> cos -> -sin and sinh <-> cosh
    cycle = {
        "sin": [np.sin, np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x)],
        "cos": [np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x), np.sin],
        "sinh": [np.sinh, np.cosh] * 2,
        "cosh": [np.cosh, np.sinh] * 2,
    }[fn]
    for order in (1, 2, 3):
        jet = eval_jet(expr, "s", s, order)
        assert jet.coeffs[0].tobytes() == value.tobytes()
        for j in range(1, order + 1):
            exact = 0.7**j * cycle[j](u)
            assert np.max(np.abs(jet.derivative(j) - exact)) <= 1e-14 * np.max(np.abs(value))


def _textbook_recurrence(u, heads, sources):
    """Taylor coefficients of y_i(u) with y_i' = +/- u' y_src, the plain way:
    zero-initialized accumulators, a new array for every operation."""
    K = u.shape[0]
    du = [j * u[j] for j in range(1, K)]
    ys = np.zeros((len(heads),) + u.shape)
    for i, head in enumerate(heads):
        ys[i, 0] = head(u[0])
    for k in range(1, K):
        for i, (src, op) in enumerate(sources):
            acc = np.zeros_like(ys[i, 0])
            for j in range(1, k + 1):
                acc = op(acc, du[j - 1] * ys[src, k - j])
            ys[i, k] = acc / k
    return ys


TEXTBOOK = {
    "sin": ((np.sin, np.cos), ((1, operator.add), (0, operator.sub)), 0),
    "cos": ((np.sin, np.cos), ((1, operator.add), (0, operator.sub)), 1),
    "sinh": ((np.sinh, np.cosh), ((1, operator.add), (0, operator.add)), 0),
    "cosh": ((np.sinh, np.cosh), ((1, operator.add), (0, operator.add)), 1),
    "exp": ((np.exp,), ((0, operator.add),), 0),
}


@pytest.mark.parametrize("fn", sorted(TEXTBOOK))
@pytest.mark.parametrize("shape", [(), (5,), (3, 4)], ids=["scalar", "row", "grid"])
def test_function_jets_match_the_textbook_recurrence_bit_for_bit(fn, shape):
    heads, sources, which = TEXTBOOK[fn]
    rng = np.random.default_rng(7)
    for order in range(8):
        u = rng.normal(size=(order + 1,) + shape)
        # signed zeros in the value and in every coefficient
        flat = u.reshape(order + 1, -1)
        flat[:, 0], flat[:, -1] = 0.0, -0.0
        got = getattr(Jet(u), fn)().coeffs
        want = _textbook_recurrence(u, heads, sources)[which]
        assert got.shape == want.shape
        assert np.array_equal(got, want), (fn, order)
        assert np.array_equal(np.signbit(got), np.signbit(want)), (fn, order)


def test_derivative_into_out_matches_the_returned_value():
    jet = eval_jet(parse("sin(s) * exp(-s)"), "s", np.linspace(-1.0, 1.0, 9), 4)
    out = np.empty(9)
    for j in range(5):
        assert jet.derivative(j, out=out) is out
        assert out.tobytes() == jet.derivative(j).tobytes()


def test_eval_jet_env_and_unbound():
    expr = parse("sin(s) * cos(t)")
    jet = eval_jet(expr, "s", 0.3, 1, {"t": 0.5})
    assert jet.coeffs[0] == pytest.approx(math.sin(0.3) * math.cos(0.5))
    with pytest.raises(UnboundVariable):
        eval_jet(expr, "s", 0.3, 1)


def test_eval_scalar_binds_every_variable():
    # "_" is an ordinary name, and so is the alphabetically first one
    assert eval_scalar(parse("2*_ + a"), _=1.5, a=1.0) == 4.0
    assert eval_scalar(parse("u*v"), u=np.array([1.0, 2.0]), v=3.0).tolist() == [3.0, 6.0]
    # the result takes the broadcast shape of env, constants included
    assert eval_scalar(parse("2"), u=np.array([1.0, 2.0])).tolist() == [2.0, 2.0]
    assert eval_scalar(parse("u*v"), u=np.zeros(2), v=np.ones((3, 1))).shape == (3, 2)
    with pytest.raises(UnboundVariable):
        eval_scalar(parse("u*v"), u=1.0)


def test_eval_jet_vectorized_grid():
    grid = np.linspace(0.0, 2.0, 17)
    jet = eval_jet(parse("u*sin(u)"), "u", grid, 2)
    assert np.allclose(jet.coeffs[0], grid * np.sin(grid))
    assert np.allclose(jet.derivative(1), np.sin(grid) + grid * np.cos(grid))
    assert np.allclose(jet.derivative(2), 2 * np.cos(grid) - grid * np.sin(grid))


def _random_expr(rng, depth=0):
    """(tree, text) of a random expression: the text parenthesizes every
    operand, so it reads as the tree with no precedence rule."""
    # literals are non-negative, as the parser produces (a leading minus
    # becomes a Neg node); negativity enters through Neg
    roll = rng.integers(0, 8 if depth < 3 else 2)
    if roll == 0:
        value = round(float(rng.uniform(0, 3)), 3)
        return Lit(value), repr(value)
    if roll == 1:
        return Var("u"), "u"
    if roll == 2:
        arg, text = _random_expr(rng, depth + 1)
        return Neg(arg), f"-({text})"
    if roll == 3:
        (base, text), p = _random_expr(rng, depth + 1), int(rng.integers(0, 4))
        return Pow(base, p), f"({text})^{p}"
    if roll == 4:
        fn = ("sin", "cos", "sinh", "cosh", "exp")[rng.integers(0, 5)]
        arg, text = _random_expr(rng, depth + 1)
        return Call(fn, arg), f"{fn}({text})"
    op = "+-*"[rng.integers(0, 3)]
    (left, lt), (right, rt) = _random_expr(rng, depth + 1), _random_expr(rng, depth + 1)
    return BinOp(op, left, right), f"({lt}) {op} ({rt})"


@pytest.mark.parametrize("seed", range(40))
def test_print_parse_round_trip(seed):
    # the text that the sympy oracle below also reads parses to its tree
    expr, text = _random_expr(np.random.default_rng(seed))
    assert parse(text) == expr


@pytest.mark.parametrize("seed", range(12))
def test_jet_derivatives_match_sympy(seed):
    """Independent oracle: symbolic differentiation of random expressions."""
    rng = np.random.default_rng(100 + seed)
    _, text = _random_expr(rng)
    u = sympy.Symbol("u")
    sym = sympy.sympify(text.replace("^", "**"))
    point = 0.37
    jet = eval_jet(parse(text), "u", point, 4)
    for order in range(5):
        expected = float(sympy.diff(sym, u, order).subs(u, point))
        got = float(jet.derivative(order))
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_product_rule_consistency(seed):
    rng = np.random.default_rng(200 + seed)
    _, f = _random_expr(rng)
    _, g = _random_expr(rng)
    at = 0.81
    prod = eval_jet(parse(f"({f}) * ({g})"), "u", at, 5)
    via_jets = eval_jet(parse(f), "u", at, 5) * eval_jet(parse(g), "u", at, 5)
    scale = np.maximum(1.0, np.abs(prod.coeffs))
    assert np.all(np.abs(prod.coeffs - via_jets.coeffs) <= 1e-12 * scale)


def test_division_and_sqrt_jets():
    jet = eval_jet(parse("1 / (1 + u^2)"), "u", 0.5, 3)
    u = sympy.Symbol("u")
    sym = 1 / (1 + u**2)
    for order in range(4):
        expected = float(sympy.diff(sym, u, order).subs(u, 0.5))
        assert float(jet.derivative(order)) == pytest.approx(expected, rel=1e-12)
    jet = eval_jet(parse("sqrt(1 + u)"), "u", 0.2, 3)
    sym = sympy.sqrt(1 + u)
    for order in range(4):
        expected = float(sympy.diff(sym, u, order).subs(u, 0.2))
        assert float(jet.derivative(order)) == pytest.approx(expected, rel=1e-12)


def test_domain_errors():
    with pytest.raises(DomainError):
        eval_jet(parse("1/u"), "u", 0.0, 1)
    with pytest.raises(DomainError):
        eval_jet(parse("sqrt(u)"), "u", -1.0, 0)
    with pytest.raises(DomainError):
        eval_jet(parse("sqrt(u)"), "u", 0.0, 1)  # not differentiable at 0
    # order-0 sqrt at exactly zero is fine
    assert eval_jet(parse("sqrt(u)"), "u", 0.0, 0).coeffs[0] == 0.0


def test_negative_and_zero_powers():
    jet = eval_jet(parse("u^-2"), "u", 2.0, 2)
    assert np.allclose(jet.coeffs, [0.25, -0.25, 3.0 / 16.0])
    jet0 = eval_jet(parse("u^0"), "u", 5.0, 2)
    assert np.allclose(jet0.coeffs, [1.0, 0.0, 0.0])


def test_variables():
    assert variables(parse("sin(s)*cos(t) + 1")) == frozenset({"s", "t"})
    assert variables(parse("2 + pi")) == frozenset()


# --------------------------------------------------------------------------
# Constants broadcast: a jet of a subtree free of the jet variable is one
# wide (or the shape of the bound value), and broadcasting must give every
# grid node the bytes of the plain evaluation, which builds each constant at
# the point's full shape.


def _full_constant(value, order, shape) -> Jet:
    c = np.zeros((order + 1,) + shape)
    c[0] = value
    return Jet(c)


def _full_shape_jet(node, var, point, order, env) -> Jet:
    """Reference evaluator: every literal and bound variable is an
    (order + 1, *point.shape) jet, and integer powers multiply by such a one."""
    def rec(child):
        return _full_shape_jet(child, var, point, order, env)

    if isinstance(node, Lit):
        return _full_constant(node.value, order, point.shape)
    if isinstance(node, Var):
        if node.name == var:
            return Jet.variable(point, order)
        return _full_constant(env[node.name], order, point.shape)
    if isinstance(node, Neg):
        return -rec(node.arg)
    if isinstance(node, BinOp):
        ops = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
        return ops[node.op](rec(node.left), rec(node.right))
    if isinstance(node, Pow):
        base, p = rec(node.base), node.exponent
        if p < 0:
            base, p = _full_constant(1.0, order, point.shape) / base, -p
        result = _full_constant(1.0, order, point.shape)
        while p > 0:
            if p & 1:
                result = result * base
            base = base * base
            p >>= 1
        return result
    return getattr(rec(node.arg), node.fn)()


def _bundled_expressions() -> list[str]:
    """Every curve component and speed of the catalog and the bundled scenarios."""
    texts = set()
    for entry in catalog.CURVES.values():
        texts.update(entry["components"])
    for entry in catalog.FLOWS.values():
        texts.update(entry["speeds"](4))
    for path in resources.files("curveflow").joinpath("scenarios").iterdir():
        if path.name.endswith(".json"):
            doc = json.loads(path.read_text())
            texts.update(doc["curve"]["components"] + doc["flow"]["speeds"])
    return sorted(texts)


CONSTANT_CASES = _bundled_expressions() + [
    "-1.5",
    "2*pi",
    "2*sin(s)",
    "sin(1)*s",
    "(1-t)^2",
    "-(1-t)^2*s/sqrt(1+(1-t)^2)",  # the shrinking coil's f3
    "sin(s)/(t - 0.3)",
    "(2 + t)^-2 * sin(s)",
]


def _layouts():
    """(point, t) pairs: an (N,) grid with a scalar time, and a (b, N) stack
    with a (b, 1) column of times; signed zeros in both."""
    s = np.linspace(-1.0, 2.0 * math.pi, 29)
    s[:2] = -0.0, 0.0
    stack = s + np.array([[0.0], [0.5], [-0.25]])
    stack[:, :2] = -0.0, 0.0
    for t in (0.0, -0.0, 1.0, 0.7):
        yield s, t
    yield stack, np.array([[-0.0], [1.0], [0.7]])


@pytest.mark.parametrize("text", CONSTANT_CASES)
def test_constant_jets_broadcast_to_the_full_shape_evaluation(text):
    expr = parse(text)
    var = "u" if "u" in variables(expr) else "s"
    for point, t in _layouts():
        for order in range(3):
            got = eval_jet(expr, var, point, order, {"t": t})
            want = _full_shape_jet(expr, var, point, order, {"t": t})
            assert want.coeffs.shape == (order + 1,) + point.shape
            for j in range(order + 1):
                d = np.broadcast_to(got.derivative(j), point.shape)
                assert d.tobytes() == want.derivative(j).tobytes(), (text, order, j)
                assert np.array_equal(np.signbit(d), np.signbit(want.derivative(j)))


def test_a_constant_jet_is_one_wide():
    # the constant subtree (1-t)^2 is computed once, not per grid node
    s = np.linspace(0.0, 1.0, 64)
    assert eval_jet(parse("(1-t)^2"), "s", s, 2, {"t": 0.5}).coeffs.shape == (3, 1)
    t = np.array([[0.0], [0.5]])
    assert eval_jet(parse("(1-t)^2"), "s", s + t, 2, {"t": t}).coeffs.shape == (3, 2, 1)
    assert eval_jet(parse("2*pi"), "s", s + t, 1, {"t": t}).coeffs.shape == (2, 1, 1)
