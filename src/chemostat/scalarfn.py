"""Scalar functions of the substrate with exact first derivatives.

A :class:`ScalarFn` is an immutable, evaluable function of ``S``. Five
shapes cover everything the model layer needs: saturating (Michaelis-Menten
style) rate laws, polynomials, quotients and differences of other scalar
functions, and parsed expression trees.

Each shape's ``__call__`` is the reference evaluation. Each shape also
writes itself as straight-line Python source (:class:`Source`), either the
value alone, which the model layer compiles into one fused right-hand side,
or the value with its exact d/dS, which ``eval_dual`` compiles once per
function object.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import expr
from .expr import EvalError

# d/dS of ``a op b`` from the values and slopes of a and b, as forward-mode
# dual-number arithmetic computes it
_SLOPE_RULES = {"+": "{ad} + {bd}", "-": "{ad} - {bd}",
                "*": "{av} * {bd} + {ad} * {bv}",
                "/": "({ad} * {bv} - {av} * {bd}) / ({bv} * {bv})"}

# The substrate as a (value, slope) term.
_VAR = ("S", "1.0")


class Source:
    """Python source of one generated function, built statement by statement.

    Shapes append one statement per evaluation in the order their
    ``__call__`` performs it, so the compiled function does the same
    floating-point operations in the same order and raises the same errors.
    A term is a ``(value, slope)`` pair of names; the slope is ``None`` when
    only values are emitted.
    """

    def __init__(self):
        self.lines: list[str] = []
        self.env: dict = {"EvalError": EvalError}

    def bind(self, value) -> str:
        """A name under which the generated code reads ``value``."""
        name = f"c{len(self.env)}"
        self.env[name] = value
        return name

    def assign(self, expression: str) -> str:
        """Evaluate ``expression`` into a fresh local and return its name."""
        name = f"v{len(self.lines)}"
        self.lines.append(f"{name} = {expression}")
        return name

    def check(self, condition: str, message: str) -> None:
        """Raise ``EvalError(message, S)`` where ``condition`` holds."""
        self.lines.append(f"if {condition}: raise EvalError({message!r}, S)")

    def binary(self, op: str, a: tuple, b: tuple) -> tuple:
        """The term ``a op b``: its value, then its slope if ``a`` has one."""
        (av, ad), (bv, bd) = a, b
        v = self.assign(f"{av} {op} {bv}")
        if ad is None:
            return v, None
        return v, self.assign(_SLOPE_RULES[op].format(av=av, ad=ad, bv=bv, bd=bd))

    def compile(self, signature: str):
        """Compile the statements as ``def f(<signature>)`` and return it."""
        body = "".join(f"    {line}\n" for line in self.lines)
        code = compile(f"def f({signature}):\n{body}", "<generated>", "exec")
        exec(code, self.env)
        return self.env["f"]


class ScalarFn:
    """Base class; subclasses implement ``__call__`` (the reference value at
    ``S``), ``emit``, ``scaled`` and an ``eval_dual`` that calls
    ``_with_slope``."""

    def eval_dual(self, S: float) -> tuple[float, float]:
        """Return ``(value, d/dS)`` at ``S``."""
        raise NotImplementedError

    def scaled(self, input_scale: float, output_scale: float) -> "ScalarFn":
        """Return the function ``S -> output_scale * self(input_scale * S)``."""
        raise NotImplementedError

    def emit(self, src: Source, slopes: bool = False) -> tuple:
        """Append the evaluation at ``S`` to ``src``; return the result's
        term, whose slope is ``None`` unless ``slopes``."""
        raise NotImplementedError

    @functools.cached_property
    def _with_slope(self):
        """``S -> (value, d/dS)``, compiled from :meth:`emit` on first use."""
        src = Source()
        v, d = self.emit(src, slopes=True)
        src.lines.append(f"return {v}, {d}")
        return src.compile("S")


@dataclass(frozen=True)
class MonodFn(ScalarFn):
    """Saturating rate law ``a*S / (b + S)``."""

    a: float
    b: float

    def __call__(self, S: float) -> float:
        return self.a * S / (self.b + S)

    def emit(self, src: Source, slopes: bool = False) -> tuple:
        a, b = src.bind(self.a), src.bind(self.b)
        if not slopes:
            return src.assign(f"{a} * S / ({b} + S)"), None
        return src.binary("/", src.binary("*", _VAR, (a, "0.0")),
                          src.binary("+", _VAR, (b, "0.0")))

    def eval_dual(self, S: float) -> tuple[float, float]:
        return self._with_slope(S)

    def scaled(self, input_scale: float, output_scale: float) -> "MonodFn":
        return MonodFn(self.a * output_scale, self.b / input_scale)


@dataclass(frozen=True)
class PolyFn(ScalarFn):
    """Polynomial with ascending coefficients: ``c0 + c1*S + c2*S^2 + ...``"""

    coeffs: tuple[float, ...]

    def __call__(self, S: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * S + c
        return acc

    def emit(self, src: Source, slopes: bool = False) -> tuple:
        if slopes:
            acc = ("0.0", "0.0")
            for c in reversed(self.coeffs):
                acc = src.binary("+", src.binary("*", acc, _VAR), (src.bind(c), "0.0"))
            return acc
        acc = "0.0"
        for c in reversed(self.coeffs):
            acc = f"({acc} * S + {src.bind(c)})"
        return src.assign(acc), None

    def eval_dual(self, S: float) -> tuple[float, float]:
        return self._with_slope(S)

    def scaled(self, input_scale: float, output_scale: float) -> "PolyFn":
        return PolyFn(tuple(
            c * output_scale * input_scale ** k for k, c in enumerate(self.coeffs)
        ))


@dataclass(frozen=True)
class QuotientFn(ScalarFn):
    num: ScalarFn
    den: ScalarFn

    def __call__(self, S: float) -> float:
        d = self.den(S)
        if d == 0.0:
            raise EvalError("division by zero in quotient", S)
        return self.num(S) / d

    def emit(self, src: Source, slopes: bool = False) -> tuple:
        d = self.den.emit(src, slopes)
        src.check(f"{d[0]} == 0.0", "division by zero in quotient")
        return src.binary("/", self.num.emit(src, slopes), d)

    def eval_dual(self, S: float) -> tuple[float, float]:
        return self._with_slope(S)

    def scaled(self, input_scale: float, output_scale: float) -> "QuotientFn":
        return QuotientFn(self.num.scaled(input_scale, output_scale),
                          self.den.scaled(input_scale, 1.0))


@dataclass(frozen=True)
class DifferenceFn(ScalarFn):
    left: ScalarFn
    right: ScalarFn

    def __call__(self, S: float) -> float:
        return self.left(S) - self.right(S)

    def emit(self, src: Source, slopes: bool = False) -> tuple:
        left = self.left.emit(src, slopes)
        return src.binary("-", left, self.right.emit(src, slopes))

    def eval_dual(self, S: float) -> tuple[float, float]:
        return self._with_slope(S)

    def scaled(self, input_scale: float, output_scale: float) -> "DifferenceFn":
        return DifferenceFn(self.left.scaled(input_scale, output_scale),
                            self.right.scaled(input_scale, output_scale))


@dataclass(frozen=True)
class ExprFn(ScalarFn):
    """A parsed expression tree of ``S``."""

    ast: expr.Node

    @classmethod
    def from_text(cls, text: str, constants: dict[str, float] | None = None) -> "ExprFn":
        return cls(expr.parse(text, constants))

    def __call__(self, S: float) -> float:
        return expr.eval_value(self.ast, S)

    def emit(self, src: Source, slopes: bool = False) -> tuple:
        return expr.emit(self.ast, src, slopes)

    def eval_dual(self, S: float) -> tuple[float, float]:
        return self._with_slope(S)

    def scaled(self, input_scale: float, output_scale: float) -> "ExprFn":
        ast = self.ast
        if input_scale != 1.0:
            ast = _substitute_scaled_var(ast, input_scale)
        if output_scale != 1.0:
            ast = expr.Bin("*", expr._const_node(output_scale), ast)
        return ExprFn(ast)

    def text(self) -> str:
        return expr.to_text(self.ast)


def _substitute_scaled_var(node: expr.Node, scale: float) -> expr.Node:
    if isinstance(node, expr.Var):
        return expr.Bin("*", expr._const_node(scale), expr.Var())
    if isinstance(node, expr.Neg):
        return expr.Neg(_substitute_scaled_var(node.arg, scale))
    if isinstance(node, expr.Bin):
        return expr.Bin(node.op, _substitute_scaled_var(node.left, scale),
                        _substitute_scaled_var(node.right, scale))
    if isinstance(node, expr.Call):
        return expr.Call(node.name, _substitute_scaled_var(node.arg, scale))
    return node


def as_scalar_fn(x, constants: dict[str, float] | None = None) -> ScalarFn:
    """Coerce a number, expression text, or ScalarFn to a ScalarFn."""
    if isinstance(x, ScalarFn):
        return x
    if isinstance(x, (int, float)):
        return PolyFn((float(x),))
    if isinstance(x, str):
        return ExprFn.from_text(x, constants)
    raise TypeError(f"cannot interpret {x!r} as a scalar function")
