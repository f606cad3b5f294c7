"""Property suites over generated expressions.  Each suite runs at least
100 cases; the whole module is budgeted well under a minute."""

import math

from hypothesis import given, settings, strategies as st

from symred.expr import (
    DomainFault, Jet, Num, Var, eval_numeric, func, pow_, simplify,
    diff_partial,
)
from symred.jets import JetSpace, total_derivative
from symred.parser import ParseError, SymbolContext, parse_expression, \
    print_expression

JS = JetSpace(("x1", "x2"), {"u": ("x1", "x2")})
CTX = SymbolContext(independent=("x1", "x2"),
                    params=("C",),
                    dependents={"u": ("x1", "x2")},
                    functions=("F",))

X1, X2 = Var("x1"), Var("x2")


def leaves():
    return st.sampled_from([
        X1, X2, Jet("u"), Jet("u", (("x1", 1),)), Jet("u", (("x2", 1),)),
        Num(0), Num(1), Num(2), Num(-3), Num(1) / Num(2),
    ])


@st.composite
def exprs(draw, depth=3):
    if depth == 0:
        return draw(leaves())
    kind = draw(st.integers(0, 5))
    if kind <= 1:
        return draw(leaves())
    a = draw(exprs(depth=depth - 1))
    b = draw(exprs(depth=depth - 1))
    if kind == 2:
        return a + b
    if kind == 3:
        return a * b
    if kind == 4:
        return pow_(a, Num(draw(st.integers(1, 3))))
    return func(draw(st.sampled_from(["sin", "cos", "exp"])), a)


def sample_points():
    return st.fixed_dictionaries({
        X1: st.floats(-1.5, 1.5),
        X2: st.floats(-1.5, 1.5),
        Jet("u"): st.floats(-1.5, 1.5),
        Jet("u", (("x1", 1),)): st.floats(-1.5, 1.5),
        Jet("u", (("x2", 1),)): st.floats(-1.5, 1.5),
    })


@settings(max_examples=120, deadline=None)
@given(exprs())
def test_simplify_idempotent(e):
    s = simplify(e)
    assert simplify(s) == s


@settings(max_examples=300, deadline=None)
@given(exprs(depth=4))
def test_constructors_build_normalized_trees(e):
    # why the library never re-normalizes a tree it built
    assert simplify(e) == e


@settings(max_examples=120, deadline=None)
@given(exprs(), sample_points())
def test_simplify_preserves_value(e, pt):
    try:
        a = eval_numeric(e, pt)
        b = eval_numeric(simplify(e), pt)
    except (DomainFault, OverflowError):
        return
    if not (math.isfinite(a) and math.isfinite(b)):
        return
    assert abs(a - b) <= 1e-9 * (1.0 + abs(a))


@settings(max_examples=120, deadline=None)
@given(exprs(), st.sampled_from([X1, X2]), sample_points())
def test_diff_matches_finite_differences(e, v, pt):
    d = diff_partial(e, v)
    h = 1e-6
    up = dict(pt)
    dn = dict(pt)
    up[v] = pt[v] + h
    dn[v] = pt[v] - h
    try:
        fd = (eval_numeric(e, up) - eval_numeric(e, dn)) / (2 * h)
        an = eval_numeric(d, pt)
    except (DomainFault, OverflowError):
        return
    if not (math.isfinite(fd) and math.isfinite(an)):
        return
    scale = max(1.0, abs(an), abs(fd))
    if scale > 1e4:
        return  # steep regions overwhelm the FD stencil
    assert abs(an - fd) <= 1e-6 * scale * 10


@settings(max_examples=120, deadline=None)
@given(exprs(), sample_points())
def test_total_derivatives_commute(e, pt):
    d12 = total_derivative(total_derivative(e, "x1", JS), "x2", JS)
    d21 = total_derivative(total_derivative(e, "x2", JS), "x1", JS)
    full = dict(pt)
    for j in (Jet("u", (("x1", 2),)), Jet("u", (("x2", 2),)),
              Jet("u", (("x1", 1), ("x2", 1))),
              Jet("u", (("x1", 2), ("x2", 1))),
              Jet("u", (("x1", 1), ("x2", 2))),
              Jet("u", (("x1", 3),)), Jet("u", (("x2", 3),))):
        full[j] = 0.7
    try:
        a = eval_numeric(d12, full)
        b = eval_numeric(d21, full)
    except (DomainFault, OverflowError):
        return
    if not (math.isfinite(a) and math.isfinite(b)):
        return
    assert abs(a - b) <= 1e-8 * (1.0 + abs(a))


@settings(max_examples=120, deadline=None)
@given(exprs(depth=2), exprs(depth=2), sample_points())
def test_total_derivative_leibniz(e1, e2, pt):
    lhs = total_derivative(e1 * e2, "x1", JS)
    rhs = total_derivative(e1, "x1", JS) * e2 + \
        e1 * total_derivative(e2, "x1", JS)
    full = dict(pt)
    full[Jet("u", (("x1", 2),))] = 0.3
    full[Jet("u", (("x1", 1), ("x2", 1)))] = 0.4
    try:
        a = eval_numeric(lhs, full)
        b = eval_numeric(rhs, full)
    except (DomainFault, OverflowError):
        return
    if not (math.isfinite(a) and math.isfinite(b)):
        return
    assert abs(a - b) <= 1e-8 * (1.0 + abs(a))


@settings(max_examples=150, deadline=None)
@given(exprs())
def test_parser_round_trip(e):
    printed = print_expression(e)
    assert parse_expression(printed, CTX) == e


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="x12uC+-*/^()[], .FsinexpoqrtX\t", max_size=40))
def test_parser_fuzz_no_panic(text):
    try:
        parse_expression(text, CTX)
    except ParseError:
        pass  # rejection is fine; crashing is not
