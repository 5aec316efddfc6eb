"""Scalar functions of the substrate with exact first derivatives.

A :class:`ScalarFn` is an immutable, evaluable function of ``S`` that also
propagates d/dS through dual numbers. Four concrete shapes cover everything
the model layer needs: saturating (Michaelis-Menten style) rate laws,
polynomials, quotients and differences of other scalar functions, and parsed
expression trees.

Each shape can also write itself as straight-line Python source
(:class:`Source`), which the model layer compiles into one fused
right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import expr
from .expr import Dual, EvalError


class Source:
    """Python source of one generated function, built statement by statement.

    Shapes append one statement per evaluation in the order their
    ``__call__`` performs it, so the compiled function does the same
    floating-point operations in the same order and raises the same errors.
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

    def compile(self, signature: str):
        """Compile the statements as ``def f(<signature>)`` and return it."""
        body = "".join(f"    {line}\n" for line in self.lines)
        code = compile(f"def f({signature}):\n{body}", "<generated>", "exec")
        exec(code, self.env)
        return self.env["f"]


class ScalarFn:
    """Base class; subclasses implement ``__call__``, ``eval_dual``, ``scaled``."""

    def __call__(self, S: float) -> float:
        raise NotImplementedError

    def eval_dual(self, S: float) -> tuple[float, float]:
        """Return ``(value, d/dS)`` at ``S``."""
        raise NotImplementedError

    def scaled(self, input_scale: float, output_scale: float) -> "ScalarFn":
        """Return the function ``S -> output_scale * self(input_scale * S)``."""
        raise NotImplementedError

    def emit(self, src: Source) -> str:
        """Append the evaluation at ``S`` to ``src``; return the result's name.

        The default calls the function as it is; shapes with a closed form
        write it inline.
        """
        return src.assign(f"{src.bind(self)}(S)")


@dataclass(frozen=True)
class MonodFn(ScalarFn):
    """Saturating rate law ``a*S / (b + S)``."""

    a: float
    b: float

    def __call__(self, S: float) -> float:
        return self.a * S / (self.b + S)

    def emit(self, src: Source) -> str:
        return src.assign(f"{src.bind(self.a)} * S / ({src.bind(self.b)} + S)")

    def eval_dual(self, S: float) -> tuple[float, float]:
        s = Dual(S, 1.0)
        r = (s * self.a) / (s + self.b)
        return r.v, r.d

    def scaled(self, input_scale: float, output_scale: float) -> "MonodFn":
        if input_scale == 1.0 and output_scale == 1.0:
            return self
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

    def emit(self, src: Source) -> str:
        acc = "0.0"
        for c in reversed(self.coeffs):
            acc = f"({acc} * S + {src.bind(c)})"
        return src.assign(acc)

    def eval_dual(self, S: float) -> tuple[float, float]:
        s = Dual(S, 1.0)
        acc = Dual(0.0)
        for c in reversed(self.coeffs):
            acc = acc * s + c
        return acc.v, acc.d

    def scaled(self, input_scale: float, output_scale: float) -> "PolyFn":
        if input_scale == 1.0 and output_scale == 1.0:
            return self
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

    def emit(self, src: Source) -> str:
        d = self.den.emit(src)
        src.lines.append(f"if {d} == 0.0: "
                         "raise EvalError('division by zero in quotient', S)")
        return src.assign(f"{self.num.emit(src)} / {d}")

    def eval_dual(self, S: float) -> tuple[float, float]:
        dv, dd = self.den.eval_dual(S)
        if dv == 0.0:
            raise EvalError("division by zero in quotient", S)
        r = Dual(*self.num.eval_dual(S)) / Dual(dv, dd)
        return r.v, r.d

    def scaled(self, input_scale: float, output_scale: float) -> "QuotientFn":
        if input_scale == 1.0 and output_scale == 1.0:
            return self
        return QuotientFn(self.num.scaled(input_scale, output_scale),
                          self.den.scaled(input_scale, 1.0))


@dataclass(frozen=True)
class DifferenceFn(ScalarFn):
    left: ScalarFn
    right: ScalarFn

    def __call__(self, S: float) -> float:
        return self.left(S) - self.right(S)

    def emit(self, src: Source) -> str:
        left = self.left.emit(src)
        return src.assign(f"{left} - {self.right.emit(src)}")

    def eval_dual(self, S: float) -> tuple[float, float]:
        lv, ld = self.left.eval_dual(S)
        rv, rd = self.right.eval_dual(S)
        return lv - rv, ld - rd

    def scaled(self, input_scale: float, output_scale: float) -> "DifferenceFn":
        if input_scale == 1.0 and output_scale == 1.0:
            return self
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

    def eval_dual(self, S: float) -> tuple[float, float]:
        return expr.eval_dual(self.ast, S)

    def scaled(self, input_scale: float, output_scale: float) -> "ExprFn":
        if input_scale == 1.0 and output_scale == 1.0:
            return self
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


def constant(value: float) -> PolyFn:
    return PolyFn((float(value),))


def as_scalar_fn(x, constants: dict[str, float] | None = None) -> ScalarFn:
    """Coerce a number, expression text, or ScalarFn to a ScalarFn."""
    if isinstance(x, ScalarFn):
        return x
    if isinstance(x, (int, float)):
        return constant(x)
    if isinstance(x, str):
        return ExprFn.from_text(x, constants)
    raise TypeError(f"cannot interpret {x!r} as a scalar function")
