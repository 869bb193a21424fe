"""Small expression language with truncated-Taylor (jet) evaluation.

Curve components and flow speeds are written as text like ``"sqrt(2)*u"``
or ``"1 - cos(s)"``.  ``parse`` turns text into an immutable AST and
``eval_jet`` evaluates it carrying derivatives up to a requested order, so
high-order curve derivatives are exact to rounding instead of suffering
finite-difference noise.

Grammar (whitespace-insensitive)::

    expr     = term , { ("+" | "-") , term } ;
    term     = unary , { ("*" | "/") , unary } ;
    unary    = "-" , unary | power ;
    power    = atom , [ "^" , exponent ] ;
    exponent = [ "-" ] , integer , [ "^" , exponent ] ;   (right associative)
    atom     = number | name | name , "(" , expr , ")" | "(" , expr , ")" ;

Precedence is ``^`` above unary minus above ``*``/``/`` above ``+``/``-``;
the binary operators associate left, ``^`` right.  Exponents must be
integer literals.  Known functions: sin, cos, sinh, cosh, exp, sqrt; the
name ``pi`` is a constant.  Nesting deeper than MAX_DEPTH levels, and an
exponent chain that is not an integer of magnitude at most MAX_EXPONENT,
are ParseErrors.

A Jet of order K stores the K+1 Taylor coefficients of a scalar function
at a point: ``coeffs[j]`` is the j-th derivative divided by j!.  The
coefficients may be numpy arrays, in which case one Jet carries the
expansion at every grid node simultaneously.

``eval_jet``'s coefficients broadcast against the point: a literal or a
bound variable such as ``t`` is a jet of its own shape with unit grid axes,
so a subtree free of the jet variable is computed once and broadcasts where
it meets the grid, with every element's arithmetic that of a full grid.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DomainError, ParseError, UnboundVariable

FUNCTIONS = ("sin", "cos", "sinh", "cosh", "exp", "sqrt")
CONSTANTS = {"pi": math.pi}


# --------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Lit:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expr"


Expr = Union[Lit, Var, Neg, BinOp, Pow, Call]


def variables(e: Expr) -> frozenset[str]:
    """Free variable names of an expression."""
    if isinstance(e, Lit):
        return frozenset()
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Neg):
        return variables(e.arg)
    if isinstance(e, BinOp):
        return variables(e.left) | variables(e.right)
    if isinstance(e, Pow):
        return variables(e.base)
    if isinstance(e, Call):
        return variables(e.arg)
    raise TypeError(f"not an expression node: {e!r}")


# --------------------------------------------------------------------------
# Parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.lastgroup is None:
            # Trailing whitespace matches zero-width with no group.
            if text[pos:].strip() == "":
                break
            bad = pos + len(text[pos:]) - len(text[pos:].lstrip())
            raise ParseError(f"unexpected character {text[bad]!r}", bad)
        tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


# Nesting past MAX_DEPTH levels is a ParseError: well below it, the parser
# and the recursive walks over the tree (variables, eval_jet) stay clear of
# Python's recursion limit.  Exponents are bounded by MAX_EXPONENT.
MAX_DEPTH = 100
MAX_EXPONENT = 1000


class _Parser:
    """Recursive descent.  Each parse method returns (node, height): the
    levels of nesting inside the node, where a group, a call, a unary minus,
    a power and a binary operator each add one."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0  # levels open around the current token

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}, found {text!r}" if text else f"expected {op!r}", pos)
        return self.advance()

    def level(self, height: int, pos: int) -> int:
        """``height``, once the deepest leaf below it is within MAX_DEPTH."""
        if self.depth + height > MAX_DEPTH:
            raise ParseError(f"expression nests deeper than {MAX_DEPTH} levels", pos)
        return height

    def nested(self, parse_inner, pos: int):
        """``parse_inner()`` one level deeper; checked on the way down, so the
        parser's own recursion is bounded too."""
        self.depth += 1
        self.level(0, pos)
        result = parse_inner()
        self.depth -= 1
        return result

    def parse(self) -> Expr:
        e, _ = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {text!r}", pos)
        return e

    def expr(self) -> tuple[Expr, int]:
        return self.chain("+-", self.term)

    def term(self) -> tuple[Expr, int]:
        return self.chain("*/", self.unary)

    def chain(self, ops: str, operand) -> tuple[Expr, int]:
        # Left associative: each operator puts everything before it a level
        # deeper.
        node, height = operand()
        while True:
            kind, text, pos = self.peek()
            if kind != "op" or text not in ops:
                return node, height
            self.advance()
            rhs, rhs_height = operand()
            node = BinOp(text, node, rhs)
            height = self.level(max(height, rhs_height) + 1, pos)

    def unary(self) -> tuple[Expr, int]:
        kind, text, pos = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            arg, height = self.nested(self.unary, pos)
            return Neg(arg), height + 1
        return self.power()

    def power(self) -> tuple[Expr, int]:
        base, height = self.atom()
        kind, text, pos = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            exponent = self.nested(self.exponent, pos)
            return Pow(base, exponent), self.level(height + 1, pos)
        return base, height

    def exponent(self) -> int:
        # Integer literal, optionally negated; '^' chains associate right.
        sign = 1
        kind, text, pos = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            sign = -1
            kind, text, pos = self.peek()
        if kind != "num" or not re.fullmatch(r"\d+", text):
            raise ParseError("exponent must be an integer literal", pos)
        self.advance()
        value = int(text)
        kind, text, op_pos = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            inner = self.nested(self.exponent, op_pos)
            if inner < 0 and value != 1:
                raise ParseError("exponent chain is not an integer", pos)
            # Decide before forming the power, which can be astronomically
            # large: value**inner >= 2**inner, past the cap at this inner.
            if value > 1 and inner >= MAX_EXPONENT.bit_length():
                raise ParseError(f"exponent exceeds {MAX_EXPONENT}", pos)
            value **= max(inner, 0)
        if value > MAX_EXPONENT:
            raise ParseError(f"exponent exceeds {MAX_EXPONENT}", pos)
        return sign * value

    def atom(self) -> tuple[Expr, int]:
        kind, text, pos = self.advance()
        if kind == "num":
            return Lit(float(text)), 0
        if kind == "name":
            if text in CONSTANTS:
                return Lit(CONSTANTS[text]), 0
            nkind, ntext, _ = self.peek()
            if nkind == "op" and ntext == "(":
                if text not in FUNCTIONS:
                    raise ParseError(f"unknown function {text!r}", pos)
                self.advance()
                arg, height = self.nested(self.group, pos)
                return Call(text, arg), height + 1
            return Var(text), 0
        if kind == "op" and text == "(":
            e, height = self.nested(self.group, pos)
            return e, height + 1
        raise ParseError(f"unexpected {text!r}" if text else "unexpected end of input", pos)

    def group(self) -> tuple[Expr, int]:
        inner = self.expr()
        self.expect_op(")")
        return inner


def parse(text: str) -> Expr:
    """Parse expression text into an AST; raises ParseError with an offset."""
    return _Parser(text).parse()


# --------------------------------------------------------------------------
# Jets


class Jet:
    """Truncated Taylor expansion: coeffs[j] = (d^j f / dx^j) / j!.

    Coefficients are stored as a numpy array whose leading axis is the
    Taylor index; trailing axes (if any) are broadcast grid shape.
    Arithmetic truncates at the common order.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = np.asarray(coeffs, dtype=float)

    @property
    def order(self) -> int:
        return self.coeffs.shape[0] - 1

    @classmethod
    def constant(cls, value, order: int, ndim: int = 0) -> "Jet":
        """``value`` over zero derivatives, padded with unit axes to ``ndim`` grid axes."""
        value = np.asarray(value, dtype=float)
        c = np.zeros((order + 1,) + (1,) * (ndim - value.ndim) + value.shape)
        c[0] = value
        return cls(c)

    @classmethod
    def variable(cls, value, order: int) -> "Jet":
        value = np.asarray(value, dtype=float)
        c = np.zeros((order + 1,) + value.shape)
        c[0] = value
        if order >= 1:
            c[1] = 1.0
        return cls(c)

    def derivative(self, j: int, out=None):
        """j-th derivative value (coefficient times j!), written into ``out``
        if given."""
        return np.multiply(self.coeffs[j], math.factorial(j), out=out)

    # -- arithmetic --------------------------------------------------------

    def __neg__(self) -> "Jet":
        return Jet(-self.coeffs)

    def __add__(self, other: "Jet") -> "Jet":
        return Jet(self.coeffs + other.coeffs)

    def __sub__(self, other: "Jet") -> "Jet":
        return Jet(self.coeffs - other.coeffs)

    def __mul__(self, other: "Jet") -> "Jet":
        a, b = self.coeffs, other.coeffs
        K = a.shape[0]
        out = np.zeros(np.broadcast_shapes(a.shape, b.shape))
        for k in range(K):
            for j in range(k + 1):
                out[k] = out[k] + a[j] * b[k - j]
        return Jet(out)

    def __truediv__(self, other: "Jet") -> "Jet":
        a, b = self.coeffs, other.coeffs
        if np.any(b[0] == 0.0):
            raise DomainError("division by zero in jet arithmetic")
        K = a.shape[0]
        out = np.zeros(np.broadcast_shapes(a.shape, b.shape))
        for k in range(K):
            acc = a[k] + np.zeros_like(out[k])
            for j in range(k):
                acc = acc - out[j] * b[k - j]
            out[k] = acc / b[0]
        return Jet(out)

    def powi(self, p: int) -> "Jet":
        """Integer power by repeated squaring; negative p via reciprocal."""
        grid_ndim = self.coeffs.ndim - 1
        if p < 0:
            return (Jet.constant(1.0, self.order, grid_ndim) / self).powi(-p)
        result = Jet.constant(1.0, self.order, grid_ndim)
        base = self
        while p > 0:
            if p & 1:
                result = result * base
            base = base * base
            p >>= 1
        return result

    # -- elementary functions ----------------------------------------------
    # Standard Taylor recurrences: with u the argument jet and k f_k the
    # coefficient of x^(k-1) in f', each rule convolves u' with the result.

    def _recurrence(self, heads, sources) -> np.ndarray:
        """Coefficients ys[i] of y_i with y_i(u0) = heads[i](u0) and
        y_i' = +/- u' * y_src, where (src, op) = sources[i] and op
        (np.add or np.subtract) gives the sign.

        Each coefficient is (0.0 op p_1 op p_2 ... op p_k) / k over the
        products p_j = (j u_j) y_src,k-j, summed in place in its row of
        ``ys``: the arithmetic of the textbook recurrence.  The sum starts
        from +0.0, not from p_1, because 0.0 + (-0.0) is +0.0."""
        u = self.coeffs
        K = u.shape[0]
        ys = np.empty((len(heads),) + u.shape)
        # ys[i, k, ...] is a view even for scalar jets, so out= can take it
        for i, head in enumerate(heads):
            head(u[0], out=ys[i, 0, ...])
        # j * u_j is shared by every y_i; each sum still runs over j = 1..k.
        du = [j * u[j] for j in range(1, K)]
        term = np.empty(u.shape[1:])
        for k in range(1, K):
            for i, (src, op) in enumerate(sources):
                acc = ys[i, k, ...]
                np.multiply(du[0], ys[src, k - 1], out=acc)
                op(0.0, acc, out=acc)
                for j in range(2, k + 1):
                    op(acc, np.multiply(du[j - 1], ys[src, k - j], out=term), out=acc)
                np.divide(acc, k, out=acc)
        return ys

    def _pair(self, f, g, g_op, which: int) -> "Jet":
        """f(u) (which = 0) or g(u) (which = 1) for a pair with f' = g and
        g' = +/- f, the sign given by ``g_op``.  At order 0 only the value
        asked for is computed."""
        if self.order == 0:
            return Jet((f, g)[which](self.coeffs))
        return Jet(self._recurrence((f, g), ((1, np.add), (0, g_op)))[which])

    def sin(self) -> "Jet":
        return self._pair(np.sin, np.cos, np.subtract, 0)

    def cos(self) -> "Jet":
        return self._pair(np.sin, np.cos, np.subtract, 1)

    def sinh(self) -> "Jet":
        return self._pair(np.sinh, np.cosh, np.add, 0)

    def cosh(self) -> "Jet":
        return self._pair(np.sinh, np.cosh, np.add, 1)

    def exp(self) -> "Jet":
        return Jet(self._recurrence((np.exp,), ((0, np.add),))[0])

    def sqrt(self) -> "Jet":
        u = self.coeffs
        if np.any(u[0] < 0.0):
            raise DomainError("sqrt of a negative value in jet arithmetic")
        if u.shape[0] > 1 and np.any(u[0] == 0.0):
            raise DomainError("sqrt is not differentiable at zero")
        K = u.shape[0]
        s = np.zeros_like(u + 0.0)
        s[0] = np.sqrt(u[0])
        for k in range(1, K):
            acc = u[k] + np.zeros_like(s[0])
            for j in range(1, k):
                acc = acc - s[j] * s[k - j]
            s[k] = acc / (2.0 * s[0])
        return Jet(s)


_CALL_TABLE = {name: getattr(Jet, name) for name in FUNCTIONS}


def eval_jet(e: Expr, var: str, point, order: int, env: dict | None = None) -> Jet:
    """Evaluate an expression as a jet in ``var`` around ``point``.

    ``point`` may be a scalar or an array (one expansion per grid node).
    Other free variables take the values in ``env``.  The coefficients
    broadcast against ``point``: those of ``"2"`` on an (N,) grid are (order + 1, 1).
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    return _eval(e, var, np.asarray(point, dtype=float), order, env or {})


# A module-level function, not a closure in eval_jet: a closure that calls
# itself is a reference cycle, left for the cyclic collector on every call.
def _eval(node: Expr, var: str, point: np.ndarray, order: int, env: dict) -> Jet:
    if isinstance(node, Lit):
        return Jet.constant(node.value, order, point.ndim)
    if isinstance(node, Var):
        if node.name == var:
            return Jet.variable(point, order)
        if node.name in env:
            return Jet.constant(env[node.name], order, point.ndim)
        raise UnboundVariable(f"variable {node.name!r} is not bound")
    if isinstance(node, Neg):
        return -_eval(node.arg, var, point, order, env)
    if isinstance(node, BinOp):
        lhs = _eval(node.left, var, point, order, env)
        rhs = _eval(node.right, var, point, order, env)
        if node.op == "+":
            return lhs + rhs
        if node.op == "-":
            return lhs - rhs
        if node.op == "*":
            return lhs * rhs
        return lhs / rhs
    if isinstance(node, Pow):
        return _eval(node.base, var, point, order, env).powi(node.exponent)
    if isinstance(node, Call):
        return _CALL_TABLE[node.fn](_eval(node.arg, var, point, order, env))
    raise TypeError(f"not an expression node: {node!r}")


def eval_scalar(e: Expr, **env):
    """Plain value of an expression, in the broadcast shape of the ``env`` values."""
    # No expression can name the variable "", so every name is looked up in env.
    shape = np.broadcast_shapes(*(np.shape(v) for v in env.values()))
    out = np.broadcast_to(eval_jet(e, "", np.zeros(shape), 0, env).coeffs[0], shape)
    return float(out) if out.ndim == 0 else out.copy()
