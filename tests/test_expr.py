import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chemostat import expr
from chemostat.scalarfn import ExprFn
from conftest import central_diff


def val(text, S, constants=None):
    return expr.eval_value(expr.parse(text, constants), S)


class TestParse:
    def test_identity(self):
        assert val("S", 0.3) == 0.3

    def test_bound_constants(self):
        node = expr.parse("a*S/(b+S)", {"a": 2, "b": 0.58})
        assert expr.eval_value(node, 0.58) == pytest.approx(1.0, abs=1e-15)

    def test_quadratic_yield_value(self):
        assert val("1+46*S^2", 0.5) == pytest.approx(12.5, abs=1e-15)

    def test_precedence(self):
        assert val("1+2*3", 0.0) == 7.0
        assert val("(1+2)*3", 0.0) == 9.0
        assert val("2^3^2", 0.0) == 512.0  # right-associative
        assert val("8/4/2", 0.0) == 1.0    # left-associative
        assert val("1-2-3", 0.0) == -4.0
        assert val("-S^2", 2.0) == -4.0    # ^ binds tighter than unary -
        assert val("2*-3", 0.0) == -6.0
        assert val("S^-2", 2.0) == 0.25

    def test_whitespace_ignored(self):
        assert val(" 1 + 2\t*\nS ", 2.0) == 5.0

    def test_scientific_notation(self):
        assert val("1e-3 + 2E2", 0.0) == pytest.approx(200.001)

    def test_syntax_error_carries_position(self):
        with pytest.raises(expr.ParseError) as err:
            expr.parse("1+*2")
        assert err.value.position == 2

    def test_unknown_identifier(self):
        with pytest.raises(expr.UnknownIdentifierError):
            expr.parse("k*S")

    def test_empty(self):
        with pytest.raises(expr.ParseError):
            expr.parse("   ")

    def test_trailing_garbage(self):
        with pytest.raises(expr.ParseError):
            expr.parse("1+2 3")

    def test_variable_exponent_rejected(self):
        with pytest.raises(expr.ParseError):
            expr.parse("2^S")
        with pytest.raises(expr.ParseError):
            expr.parse("S^(1+S)")

    def test_negative_constant_binding_round_trips(self):
        node = expr.parse("k+S", {"k": -2.0})
        assert expr.parse(expr.to_text(node)) == node


class TestEvalDual:
    def test_square(self):
        assert ExprFn(expr.parse("S^2")).eval_dual(3.0) == (9.0, 6.0)

    def test_saturating_quotient(self):
        v, d = ExprFn(expr.parse("S/(0.1+S)")).eval_dual(0.1)
        assert v == pytest.approx(0.5, abs=1e-12)
        assert d == pytest.approx(2.5, abs=1e-12)

    def test_exp_at_zero(self):
        assert ExprFn(expr.parse("exp(S)")).eval_dual(0.0) == (1.0, 1.0)

    def test_ln_sqrt(self):
        v, d = ExprFn(expr.parse("ln(S)")).eval_dual(2.0)
        assert (v, d) == (math.log(2.0), 0.5)
        v, d = ExprFn(expr.parse("sqrt(S)")).eval_dual(4.0)
        assert (v, d) == (2.0, 0.25)

    def test_division_by_zero_carries_S(self):
        with pytest.raises(expr.EvalError) as err:
            ExprFn(expr.parse("1/(S-0.5)")).eval_dual(0.5)
        assert err.value.S == 0.5

    def test_ln_of_nonpositive(self):
        with pytest.raises(expr.EvalError):
            ExprFn(expr.parse("ln(S-1)")).eval_dual(0.5)

    def test_sqrt_of_negative(self):
        with pytest.raises(expr.EvalError):
            ExprFn(expr.parse("sqrt(S-1)")).eval_dual(0.5)

    def test_fractional_power_of_negative_base(self):
        with pytest.raises(expr.EvalError):
            ExprFn(expr.parse("(S-1)^0.5")).eval_dual(0.5)

    def test_integer_power_of_negative_base(self):
        v, d = ExprFn(expr.parse("(S-1)^3")).eval_dual(0.5)
        assert v == pytest.approx(-0.125)
        assert d == pytest.approx(0.75)


# ---------------------------------------------------------------------------
# Property tests

_numbers = st.floats(min_value=0.1, max_value=4.0, allow_nan=False,
                     allow_infinity=False).map(lambda v: round(v, 3))

_leaves = st.one_of(st.builds(expr.Num, _numbers), st.just(expr.Var()))


def _extend(children):
    return st.one_of(
        st.builds(expr.Neg, children),
        *[st.builds(lambda l, r, op=op: expr.Bin(op, l, r), children, children)
          for op in "+-*/"],
        st.builds(lambda b, e: expr.Bin("^", b, expr.Num(float(e))),
                  children, st.integers(min_value=2, max_value=3)),
        st.builds(lambda a: expr.Call("exp", a), children),
        st.builds(lambda a: expr.Call("ln", expr.Bin("+", expr.Num(0.5), a)),
                  children),
    )


_asts = st.recursive(_leaves, _extend, max_leaves=14)


@settings(max_examples=150, deadline=None)
@given(_asts)
def test_print_parse_round_trip(ast):
    assert expr.parse(expr.to_text(ast)) == ast


@settings(max_examples=100, deadline=None)
@given(_asts, st.integers(min_value=0, max_value=10 ** 6), st.booleans())
def test_unbalanced_parens_rejected(ast, pos, opening):
    text = expr.to_text(ast)
    k = pos % (len(text) + 1)
    broken = text[:k] + ("(" if opening else ")") + text[k:]
    with pytest.raises(expr.ParseError):
        expr.parse(broken)


@settings(max_examples=150, deadline=None)
@given(_asts, st.floats(min_value=0.02, max_value=0.98))
# S / (S - 0.102) just below its pole, where the third derivative is ~1e8
@example(expr.Bin("/", expr.Var(), expr.Bin("-", expr.Var(), expr.Num(0.102))),
         0.09375)
def test_dual_matches_central_difference(ast, S):
    h = 1e-5
    try:
        v, d = ExprFn(ast).eval_dual(S)
        vals = [expr.eval_value(ast, S + k * h) for k in (-2, -1, 1, 2)]
    except (expr.EvalError, OverflowError):
        assume(False)
    # skip ill-conditioned samples where the finite difference itself is noisy
    assume(all(abs(x) < 1e6 for x in vals + [v, d]))
    curvature = abs(vals[3] - 2 * v + vals[0])
    assume(curvature < 1e3)
    # fourth-order central stencil: the second-order one's h^2 f'''/6
    # truncation error alone exceeds the tolerance near a pole
    fd2 = (vals[2] - vals[1]) / (2 * h)
    fd = (8 * (vals[2] - vals[1]) - (vals[3] - vals[0])) / (12 * h)
    # the stencils' disagreement estimates fd2's truncation error; where it is
    # large, h is not small next to the distance to a pole and fd is unreliable
    assume(abs(fd2 - fd) <= 1e-4 * max(1.0, abs(fd)))
    assert abs(d - fd) <= 1e-6 * max(1.0, abs(d))
