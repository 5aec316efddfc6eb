"""Generated code against the hand-written evaluation it reproduces: the
compiled right-hand side against the per-ScalarFn loop, and the values of
the compiled slope path against ``ScalarFn.__call__``."""

import math
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chemostat import expr, vector_field
from chemostat.model import Species
from chemostat.scalarfn import (DifferenceFn, ExprFn, MonodFn, PolyFn,
                                QuotientFn)


def reference_vector_field(model):
    """The right-hand side as one call per ScalarFn, kept as the reference."""
    growth = [sp.growth for sp in model.species]
    uptake = [sp.uptake for sp in model.species]
    d, s0 = model.dilution, model.inflow

    def rhs(t, y):
        S = y[0]
        out = [d * (s0 - S)]
        acc = 0.0
        for f, p, x in zip(growth, uptake, y[1:]):
            acc += p(S) * x
            out.append(f(S) * x)
        out[0] -= acc
        return out

    return rhs


def bare_model(dilution, inflow, species):
    # Random shapes rarely pass ChemostatModel's validation (uptake(0) = 0,
    # growth(0) < 0); vector_field reads only these fields.
    return SimpleNamespace(dilution=dilution, inflow=inflow,
                           species=tuple(species), n_species=len(species))


def outcome(fn, *args):
    """Bit patterns of the result, or the type and text of the error."""
    try:
        return [float.hex(v) for v in fn(*args)]
    except (ArithmeticError, ValueError) as e:
        return type(e), str(e)


_nums = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False).map(
    lambda v: round(v, 2))
_leaves = st.one_of(st.builds(expr.Num, _nums), st.just(expr.Var()))


def _extend(children):
    return st.one_of(
        st.builds(expr.Neg, children),
        *[st.builds(lambda l, r, op=op: expr.Bin(op, l, r), children, children)
          for op in "+-*/"],
        st.builds(lambda b, e: expr.Bin("^", b, expr.Num(e)), children,
                  st.sampled_from([2.0, 3.0, -1.0, 0.5, 1.5])),
        *[st.builds(lambda a, name=name: expr.Call(name, a), children)
          for name in expr.FUNCTIONS],
    )


_exprs = st.builds(ExprFn, st.recursive(_leaves, _extend, max_leaves=6))
_shapes = st.recursive(
    st.one_of(st.builds(MonodFn, _nums, _nums),
              st.builds(lambda cs: PolyFn(tuple(cs)), st.lists(_nums, max_size=4)),
              _exprs),
    lambda children: st.one_of(st.builds(QuotientFn, children, children),
                               st.builds(DifferenceFn, children, children)),
    max_leaves=4)
_species = st.builds(lambda g, u: Species("s", g, u), _shapes, _shapes)
_models = st.builds(bare_model, st.floats(0.1, 3.0), st.floats(0.1, 3.0),
                    st.lists(_species, min_size=1, max_size=3))
_substrate = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 0.5]),
                       st.floats(min_value=-2.0, max_value=2.0))


@settings(max_examples=300, deadline=None)
@given(_models, _substrate, st.lists(st.floats(0.0, 5.0), min_size=3, max_size=3))
# a zero denominator inside a quotient must raise EvalError on both paths
@example(bare_model(1.0, 1.0, [Species("s", MonodFn(1.0, 0.5),
                                       QuotientFn(MonodFn(1.0, 0.5), PolyFn(())))]),
         0.3, [0.1, 0.2, 0.3])
def test_matches_reference_bit_for_bit(model, S, xs):
    y = [S] + xs[:model.n_species]
    assert outcome(vector_field(model), 0.0, y) == outcome(
        reference_vector_field(model), 0.0, y)


@pytest.mark.parametrize("n_extra", [-1, 1])
def test_wrong_state_length_raises(fig_two_species, n_extra):
    y = [0.3, 0.1, 0.2] + [0.4] * max(n_extra, 0)
    if n_extra < 0:
        y = y[:n_extra]
    with pytest.raises(ValueError):
        vector_field(fig_two_species)(0.0, y)


def value_or_error(fn, S):
    try:
        v = fn(S)
    except (ArithmeticError, ValueError) as e:
        return type(e), str(e)
    return "nan" if math.isnan(v) else v


@settings(max_examples=300, deadline=None)
@given(_shapes, _substrate)
# the slope path returns +0.0 for sqrt(-0.0), which equals the value -0.0
@example(ExprFn(expr.Call("sqrt", expr.Var())), -0.0)
def test_slope_path_value_matches_call(fn, S):
    expected = value_or_error(fn, S)
    got = value_or_error(lambda s: fn.eval_dual(s)[0], S)
    if got != expected:
        # only the slope's own arithmetic may fail where the value does not:
        # a quotient's squared denominator can underflow to zero, and a
        # power's base ** (e - 1) can overflow, for example at S = 1e-200
        assert isinstance(got, tuple), (expected, got)
        assert got[0] in (ZeroDivisionError, OverflowError), (expected, got)
