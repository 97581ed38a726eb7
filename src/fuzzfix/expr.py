"""Small expression language for user-defined real functions.

Grammar (whitespace insignificant)::

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := "-" factor | atom ("^" factor)?
    atom   := number | ident | ident "(" expr ("," expr)* ")" | "(" expr ")"

Binary "+,-,*,/" are left associative, "^" is right associative and binds
tighter than unary minus, so ``-x^2`` means ``-(x^2)``.  Numbers are decimal
with optional fraction and exponent.  The only callables are ``min``, ``max``
(two or more arguments), ``abs``, ``sqrt`` and ``exp``.

There is one evaluator, ``eval_on_arrays`` (``eval_expr`` is its scalar form).
It is total over the reals with explicit domain errors (division by zero, sqrt
of a negative, non-finite result) instead of NaN propagation.

Every real function fuzzfix calls follows one convention, whether it comes
from an expression (``expr_function``) or from library code: maps,
memberships, crisp metrics, gauges (delta, delta3, densities, phi and psi
evaluators) and the dynamic-programming functions take NumPy arrays and
broadcast their arguments.  A check that indexes a gauge's values broadcasts
them to its sample shape, so a gauge that returns a constant works too.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InputError

_FUNCTIONS = ("min", "max", "abs", "sqrt", "exp")
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


class ParseError(InputError):
    """Syntax error with the byte offset and what was expected there."""

    def __init__(self, message: str, position: int, expected: tuple[str, ...] = ()):
        super().__init__(f"{message} at offset {position}")
        self.position = position
        self.expected = expected


class EvalError(ArithmeticError):
    """Domain error during evaluation (unbound variable, div by zero, ...)."""


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple["Expr", ...]


Expr = Num | Var | Neg | BinOp | Call


@dataclass(frozen=True)
class _Token:
    kind: str  # num | ident | op | eof
    text: str
    position: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            stripped = text[pos:].lstrip()
            at = len(text) - len(stripped)
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        if match.lastgroup == "num":
            tokens.append(_Token("num", match.group("num"), match.start("num")))
        elif match.lastgroup == "ident":
            tokens.append(_Token("ident", match.group("ident"), match.start("ident")))
        else:
            tokens.append(_Token("op", match.group("op"), match.start("op")))
        pos = match.end()
    tokens.append(_Token("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.current
        if tok.kind != "op" or tok.text != op:
            raise ParseError(
                f"expected {op!r}, found {tok.text or 'end of input'!r}",
                tok.position,
                expected=(op,),
            )
        self.advance()

    def expr(self) -> Expr:
        node = self.term()
        while self.current.kind == "op" and self.current.text in "+-":
            op = self.advance().text
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.current.kind == "op" and self.current.text in "*/":
            op = self.advance().text
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> Expr:
        if self.current.kind == "op" and self.current.text == "-":
            self.advance()
            return Neg(self.factor())
        node = self.atom()
        if self.current.kind == "op" and self.current.text == "^":
            self.advance()
            return BinOp("^", node, self.factor())
        return node

    def atom(self) -> Expr:
        tok = self.current
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "ident":
            self.advance()
            if self.current.kind == "op" and self.current.text == "(":
                return self.call(tok)
            return Var(tok.text)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(
            f"expected a number, name or '(', found {tok.text or 'end of input'!r}",
            tok.position,
            expected=("number", "identifier", "("),
        )

    def call(self, name_tok: _Token) -> Expr:
        name = name_tok.text
        if name not in _FUNCTIONS:
            raise ParseError(f"unknown function {name!r}", name_tok.position)
        self.expect_op("(")
        args = [self.expr()]
        while self.current.kind == "op" and self.current.text == ",":
            self.advance()
            args.append(self.expr())
        self.expect_op(")")
        if name in ("abs", "sqrt", "exp") and len(args) != 1:
            raise ParseError(
                f"{name} expects 1 argument, got {len(args)}", name_tok.position
            )
        if name in ("min", "max") and len(args) < 2:
            raise ParseError(
                f"{name} expects at least 2 arguments, got {len(args)}",
                name_tok.position,
            )
        return Call(name, tuple(args))


def parse(text: str) -> Expr:
    """Parse ``text`` into an expression tree.

    Raises ParseError (with ``.position`` and ``.expected``) on bad syntax
    or an unknown function name.
    """
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(_tokenize(text))
    node = parser.expr()
    tok = parser.current
    if tok.kind != "eof":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.position)
    return node


def variables(e: Expr) -> frozenset[str]:
    """Names of all variables occurring in ``e``."""
    match e:
        case Num():
            return frozenset()
        case Var(name):
            return frozenset((name,))
        case Neg(operand):
            return variables(operand)
        case BinOp(_, left, right):
            return variables(left) | variables(right)
        case Call(_, args):
            return frozenset().union(*map(variables, args))
    raise TypeError(f"not an expression node: {e!r}")


def eval_expr(e: Expr, binding: dict[str, float]) -> float:
    """Evaluate ``e`` at one point: ``eval_on_arrays`` on scalars, with its
    EvalErrors (unbound variable, zero divisor, non-finite result, ...)."""
    return float(eval_on_arrays(e, **binding))


def eval_on_arrays(e: Expr, /, **arrays) -> np.ndarray:
    """Vectorized evaluation over numpy arrays; the one evaluator.

    Binding values may be scalars or broadcastable arrays; the result is a
    read-only array of their common broadcast shape.  It raises EvalError if
    any element meets a zero divisor, sqrt of a negative, an invalid power,
    an exp argument of 700 or more, or a non-finite result.
    """
    bound = {k: np.asarray(v, dtype=float) for k, v in arrays.items()}
    shapes = {a.shape for a in bound.values()}
    shape = shapes.pop() if len(shapes) == 1 else np.broadcast_shapes(*shapes)
    with np.errstate(all="ignore"):
        result = np.asarray(_eval_array(e, bound), dtype=float)
    if result.shape == shape:
        result = result.view()
        result.flags.writeable = False
    else:
        result = np.broadcast_to(result, shape)
    if not np.isfinite(result).all():
        raise EvalError("non-finite result in array evaluation")
    return result


_ARITHMETIC = {"+": np.add, "-": np.subtract, "*": np.multiply}


def _eval_array(e: Expr, bound: dict[str, np.ndarray]):
    match e:
        case Num(value):
            return value
        case Var(name):
            try:
                return bound[name]
            except KeyError:
                raise EvalError(f"unbound variable {name!r}") from None
        case Neg(operand):
            return -np.asarray(_eval_array(operand, bound))
        case BinOp(op, left, right):
            a = _eval_array(left, bound)
            b = _eval_array(right, bound)
            if op in _ARITHMETIC:
                return _ARITHMETIC[op](a, b)
            if op == "/":
                if np.equal(b, 0.0).any():
                    raise EvalError("division by zero")
                return np.divide(a, b)
            out = np.power(a, b)
            if (~np.isfinite(out) & np.isfinite(a) & np.isfinite(b)).any():
                raise EvalError("invalid power")
            return out
        case Call(name, args):
            vals = [np.asarray(_eval_array(a, bound), dtype=float) for a in args]
            if name in ("min", "max"):
                return functools.reduce(np.minimum if name == "min" else np.maximum, vals)
            if name == "abs":
                return np.abs(vals[0])
            if name == "sqrt":
                if (vals[0] < 0.0).any():
                    raise EvalError(f"sqrt of negative {np.min(vals[0])}")
                return np.sqrt(vals[0])
            if not (vals[0] < 700.0).all():
                raise EvalError(f"exp overflow at {np.max(vals[0])}")
            return np.exp(vals[0])
    raise TypeError(f"not an expression node: {e!r}")


def expr_function(e: Expr, names: tuple[str, ...]) -> Callable[..., np.ndarray]:
    """``e`` as a function of the positional arguments ``names``, evaluated
    with ``eval_on_arrays``."""
    return lambda *vals: eval_on_arrays(e, **dict(zip(names, vals)))


def on_check_grid(what: str, fn: Callable[..., np.ndarray], *args) -> np.ndarray:
    """``fn(*args)`` as a float array of the arguments' broadcast shape, for a
    check made where a component is built; an EvalError becomes an
    InputError that names ``what``."""
    shape = np.broadcast_shapes(*(np.shape(arg) for arg in args))
    try:
        return np.broadcast_to(np.asarray(fn(*args), dtype=float), shape)
    except EvalError as exc:
        raise InputError(f"{what} cannot be evaluated on its check grid: {exc}") from None
