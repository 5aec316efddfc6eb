"""Parsing and evaluation of substrate-dependent expressions.

Expressions are real functions of the single variable ``S``. The grammar,
from loosest to tightest binding, is ``+ -`` < ``* /`` < unary ``-`` < ``^``,
with ``^`` right-associative and the rest left-associative. ``exp``, ``ln``
and ``sqrt`` are built in; any other identifier must be bound to a numeric
constant at parse time. Exponents must not depend on ``S``.

:func:`eval_value` walks the tree to evaluate it. :func:`emit` writes the
same evaluation as Python source, optionally with an exact d/dS next to
every value; ``scalarfn.ExprFn`` compiles that source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class ExprError(ValueError):
    """Base class for expression parsing and evaluation failures."""


class ParseError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownIdentifierError(ParseError):
    pass


class EvalError(ExprError):
    """Evaluation failed at a specific substrate value."""

    def __init__(self, message: str, S: float):
        super().__init__(f"{message} (at S={S!r})")
        self.S = S


# ---------------------------------------------------------------------------
# AST

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    """The substrate variable ``S``."""


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    name: str  # one of FUNCTIONS
    arg: "Node"


Node = Num | Var | Neg | Bin | Call

# name -> the function it calls
FUNCTIONS = {"exp": math.exp, "ln": math.log, "sqrt": math.sqrt}


def contains_var(node: Node) -> bool:
    if isinstance(node, Var):
        return True
    if isinstance(node, Neg):
        return contains_var(node.arg)
    if isinstance(node, Bin):
        return contains_var(node.left) or contains_var(node.right)
    if isinstance(node, Call):
        return contains_var(node.arg)
    return False


def _const_node(value: float) -> Node:
    # Keep literals non-negative so printing round-trips through the parser,
    # which only ever produces unsigned Num leaves.
    v = float(value)
    if v < 0.0:
        return Neg(Num(-v))
    return Num(v)


# ---------------------------------------------------------------------------
# Tokenizer

_OPS = "+-*/^()"


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lit = text[i:j]
            try:
                float(lit)
            except ValueError:
                raise ParseError(f"malformed number {lit!r}", i) from None
            tokens.append(("num", lit, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


# ---------------------------------------------------------------------------
# Parser (recursive descent)

class _Parser:
    def __init__(self, text: str, constants: dict[str, float]):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.constants = constants

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, text, at = self.take()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}, found {text or 'end of input'!r}", at)

    def parse(self) -> Node:
        node = self.expr()
        kind, text, at = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing {text!r}", at)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.take()
                node = Bin(text, node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.take()
                node = Bin(text, node, self.unary())
            else:
                return node

    def unary(self) -> Node:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.take()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        kind, text, at = self.peek()
        if kind == "op" and text == "^":
            self.take()
            expo = self.unary()  # right-associative, may carry a unary minus
            if contains_var(expo):
                raise ParseError("exponent must not depend on S", at)
            return Bin("^", base, expo)
        return base

    def atom(self) -> Node:
        kind, text, at = self.take()
        if kind == "num":
            return Num(float(text))
        if kind == "ident":
            if text in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(text, arg)
            if text == "S":
                return Var()
            if text in self.constants:
                return _const_node(self.constants[text])
            raise UnknownIdentifierError(f"unknown identifier {text!r}", at)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected {text or 'end of input'!r}", at)


def parse(text: str, constants: dict[str, float] | None = None) -> Node:
    """Parse ``text`` into an AST, binding ``constants`` as numeric literals."""
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    return _Parser(text, dict(constants or {})).parse()


# ---------------------------------------------------------------------------
# Printing

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def to_text(node: Node, _context: int = 0) -> str:
    """Render an AST as text; ``parse(to_text(ast))`` reproduces ``ast``."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return "S"
    if isinstance(node, Call):
        return f"{node.name}({to_text(node.arg)})"
    if isinstance(node, Neg):
        inner = to_text(node.arg, _PREC["neg"] + 1)
        text = f"-{inner}"
        return f"({text})" if _context > _PREC["neg"] else text
    if isinstance(node, Bin):
        prec = _PREC[node.op]
        if node.op == "^":
            # left operand must outrank ^ itself; the exponent re-parses as a
            # unary expression, so it only needs to outrank * and /
            left = to_text(node.left, prec + 1)
            right = to_text(node.right, _PREC["neg"])
        else:
            left = to_text(node.left, prec)
            right = to_text(node.right, prec + 1)
        text = f"{left}{node.op}{right}"
        return f"({text})" if _context > prec else text
    raise TypeError(f"not an AST node: {node!r}")


# ---------------------------------------------------------------------------
# Evaluation

def eval_value(node: Node, S: float) -> float:
    """Evaluate the expression at ``S`` (value only, no derivative)."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return S
    if isinstance(node, Neg):
        return -eval_value(node.arg, S)
    if isinstance(node, Bin):
        a = eval_value(node.left, S)
        if node.op == "^":
            return _pow_value(a, eval_value(node.right, S), S)
        b = eval_value(node.right, S)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if b == 0.0:
            raise EvalError("division by zero", S)
        return a / b
    if isinstance(node, Call):
        a = eval_value(node.arg, S)
        if node.name == "exp":
            return math.exp(a)
        if node.name == "ln":
            if a <= 0.0:
                raise EvalError("ln of non-positive value", S)
            return math.log(a)
        if a < 0.0:
            raise EvalError("sqrt of negative value", S)
        return math.sqrt(a)
    raise TypeError(f"not an AST node: {node!r}")


def _pow_value(base: float, expo: float, S: float) -> float:
    if float(expo).is_integer():
        e = int(expo)
        if base == 0.0 and e < 0:
            raise EvalError("zero raised to a negative power", S)
        return base ** e
    if base <= 0.0:
        raise EvalError("non-integer power of a non-positive base", S)
    return base ** expo


def _pow_slope(base: float, slope: float, expo: float) -> float:
    """d/dS of ``base ** expo`` from the base's value and slope."""
    if expo == 0.0:
        return 0.0
    if float(expo).is_integer():
        e = int(expo)
        if base == 0.0:
            # the power is 0 for e >= 1; its slope is non-trivial only for e == 1
            return slope if e == 1 else 0.0
        return expo * base ** (e - 1) * slope
    return expo * base ** (expo - 1.0) * slope


def emit(node: Node, src, slopes: bool = False) -> tuple:
    """Append the evaluation of ``node`` to ``src``, a ``scalarfn.Source``,
    and return the result's ``(value, slope)`` term (slope ``None`` unless
    ``slopes``). Values follow :func:`eval_value`, errors included; slopes
    follow the dual-number rules, whose ``sqrt`` at a zero argument is
    ``+0.0`` with slope 0 or ``inf``."""
    if isinstance(node, Num):
        return src.bind(node.value), ("0.0" if slopes else None)
    if isinstance(node, Var):
        return "S", ("1.0" if slopes else None)
    if isinstance(node, Neg):
        v, d = emit(node.arg, src, slopes)
        return src.assign(f"-{v}"), (src.assign(f"-{d}") if slopes else None)
    if isinstance(node, Bin):
        a = emit(node.left, src, slopes)
        if node.op == "^":
            expo, _ = emit(node.right, src)
            v = src.assign(f"{src.bind(_pow_value)}({a[0]}, {expo}, S)")
            if not slopes:
                return v, None
            return v, src.assign(f"{src.bind(_pow_slope)}({a[0]}, {a[1]}, {expo})")
        b = emit(node.right, src, slopes)
        if node.op == "/":
            src.check(f"{b[0]} == 0.0", "division by zero")
        return src.binary(node.op, a, b)
    if isinstance(node, Call):
        a, d = emit(node.arg, src, slopes)
        fn = src.bind(FUNCTIONS[node.name])
        if node.name == "exp":
            v = src.assign(f"{fn}({a})")
            return v, (src.assign(f"{d} * {v}") if slopes else None)
        if node.name == "ln":
            src.check(f"{a} <= 0.0", "ln of non-positive value")
            return src.assign(f"{fn}({a})"), (src.assign(f"{d} / {a}") if slopes else None)
        src.check(f"{a} < 0.0", "sqrt of negative value")
        if not slopes:
            return src.assign(f"{fn}({a})"), None
        v = src.assign(f"{fn}({a}) if {a} != 0.0 else 0.0")
        return v, src.assign(f"0.5 * {d} / {v} if {a} != 0.0 "
                             f"else 0.0 if {d} == 0.0 else {src.bind(math.inf)}")
    raise TypeError(f"not an AST node: {node!r}")
