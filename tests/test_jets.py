import pytest

from symred.expr import Jet, Num, Param, Var, ZERO, func, mul, pow_, simplify
from symred.jets import (
    CanonicalOperator, InsufficientProlongationOrder, JetSpace, VectorField,
    apply_operator, prolong, total_derivative, total_derivative_multi,
)
from symred.zerotest import is_zero

JS = JetSpace(("x1", "x2"), {"v1": ("x1", "x2"), "v2": ("x1", "x2")})


def jet(dep, *vars_):
    return JS.jet(dep, *vars_)


def test_total_derivative_of_coordinate():
    assert total_derivative(Var("x1"), "x1", JS) == Num(1)
    assert total_derivative(Var("x2"), "x1", JS) == ZERO


def test_total_derivative_of_dependent():
    assert total_derivative(Jet("v1"), "x1", JS) == jet("v1", "x1")


def test_total_derivative_chain_rule():
    e = func("sin", Jet("v1"))
    d = total_derivative(e, "x2", JS)
    assert is_zero(d - func("cos", Jet("v1")) * jet("v1", "x2")).is_zero


def test_total_derivatives_commute():
    e = pow_(Jet("v1"), Num(2)) * Var("x1") + func("exp", jet("v2", "x2"))
    d12 = total_derivative(total_derivative(e, "x1", JS), "x2", JS)
    d21 = total_derivative(total_derivative(e, "x2", JS), "x1", JS)
    assert is_zero(d12 - d21).is_zero


def test_total_derivative_multi():
    e = Jet("v1") * Var("x2")
    a = total_derivative_multi(e, (("x1", 1), ("x2", 1)), JS)
    b = total_derivative(total_derivative(e, "x1", JS), "x2", JS)
    assert is_zero(a - b).is_zero


def test_invariant_chain_derivative():
    # w is an invariant coordinate: D_x2 phi(w) = phi'(w) * dw/dx2, with
    # the chain stored on the jet space
    js = JetSpace(("x1", "x2", "w"), {"phi1": ("w",)},
                  ).with_chains({"w": {"x2": Num(1), "x1": ZERO}})
    d = total_derivative(Jet("phi1"), "x2", js)
    assert d == Jet("phi1", (("w", 1),))
    assert total_derivative(Jet("phi1"), "x1", js) == ZERO


def scaling_field():
    return VectorField(
        xi={"x1": Num(2) * Var("x1"), "x2": Var("x2")},
        eta={"v2": Jet("v2")},
        name="D")


def test_prolongation_first_order_oracle():
    # classical formula: coeff(v2_{x1}) = D_x1(eta) - v2_{x1} D_x1(xi1)
    #                                   - v2_{x2} D_x1(xi2) = -v2_{x1}
    pf = prolong(scaling_field(), 1, JS)
    c1 = simplify(pf.coefficient(jet("v2", "x1")))
    assert is_zero(c1 + jet("v2", "x1")).is_zero
    c2 = simplify(pf.coefficient(jet("v2", "x2")))
    assert is_zero(c2).is_zero


def test_prolongation_order_cap():
    pf = prolong(scaling_field(), 1, JS)
    with pytest.raises(InsufficientProlongationOrder):
        apply_operator(pf, jet("v2", "x1", "x1"))


def test_apply_operator_point_field():
    pf = prolong(scaling_field(), 1, JS)
    # apply to x1*v2: xi1 * v2 + x1 * eta = 2 x1 v2 + x1 v2 = 3 x1 v2
    out = apply_operator(pf, Var("x1") * Jet("v2"))
    assert is_zero(out - Num(3) * Var("x1") * Jet("v2")).is_zero


def test_canonical_operator_coefficients_are_total_derivatives():
    js = JetSpace(("x1", "x2"), {"u": ("x1", "x2")})
    q = CanonicalOperator({"u": pow_(js.jet("u", "x1"), Num(2))})
    out = apply_operator(prolong(q.field(), 3, js), js.jet("u", "x2"))
    want = total_derivative(pow_(js.jet("u", "x1"), Num(2)), "x2", js)
    assert is_zero(out - want).is_zero


def test_canonical_max_order():
    js = JetSpace(("x1",), {"u": ("x1",)})
    q = CanonicalOperator({"u": js.jet("u", "x1", "x1")})
    assert q.max_order() == 2


def test_vector_field_scaled_and_combined():
    d = scaling_field()
    half = d.scaled(Num(1) / Num(2))
    assert is_zero(half.xi["x1"] - Var("x1")).is_zero
    diff = d - d
    assert not diff.xi and not diff.eta  # zero components are dropped
