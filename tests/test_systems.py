import pytest

from symred.expr import Jet, Num, Var, pow_
from symred.jets import JetSpace
from symred.systems import (
    ConflictingConstraints, EquationSystem, restrict_to_manifold,
)
from symred.zerotest import Constraint, is_zero

JS1 = JetSpace(("x1",), {"u": ("x1",)})
JS2 = JetSpace(("x1", "x2"), {"u": ("x1", "x2")})


def ode():
    u11 = JS1.jet("u", "x1", "x1")
    u1 = JS1.jet("u", "x1")
    return EquationSystem(JS1, [(u11, -pow_(u1, Num(2)))], name="ode")


def test_system_rejects_duplicate_leads():
    u1 = JS1.jet("u", "x1")
    with pytest.raises(ConflictingConstraints):
        EquationSystem(JS1, [(u1, Num(1)), (u1, Num(2))])


def test_system_rejects_self_referential_rhs():
    u1 = JS1.jet("u", "x1")
    with pytest.raises(ValueError):
        EquationSystem(JS1, [(u1, u1 + Num(1))])


def test_system_order():
    assert ode().order == 2


def test_restrict_rewrites_lead_jet():
    u11 = JS1.jet("u", "x1", "x1")
    u1 = JS1.jet("u", "x1")
    out = restrict_to_manifold(u11 + pow_(u1, Num(2)), ode())
    assert is_zero(out).is_zero


def test_restrict_uses_differential_consequences():
    # on u'' = -u'^2: u''' = D(-u'^2) = -2 u' u'' = 2 u'^3
    u111 = JS1.jet("u", "x1", "x1", "x1")
    u1 = JS1.jet("u", "x1")
    out = restrict_to_manifold(u111, ode())
    assert is_zero(out - Num(2) * pow_(u1, Num(3))).is_zero


def test_restrict_mixed_jet_prefers_highest_order_rule():
    u1 = JS2.jet("u", "x1")
    sys_ = EquationSystem(JS2, [(u1, Jet("u") * Var("x2"))])
    u12 = JS2.jet("u", "x1", "x2")
    # u_{x1 x2} = D_{x2}(u x2) = u_{x2} x2 + u
    want = JS2.jet("u", "x2") * Var("x2") + Jet("u")
    out = restrict_to_manifold(u12, sys_)
    assert is_zero(out - want).is_zero


def test_restrict_with_extra_rules():
    u1 = JS2.jet("u", "x1")
    u2 = JS2.jet("u", "x2")
    sys_ = EquationSystem(JS2, [(u1, Num(1))])
    out = restrict_to_manifold(u1 + u2, sys_, extra=((u2, Num(3)),))
    assert is_zero(out - Num(4)).is_zero


def test_residual_exprs_vanish_on_manifold():
    s = ode()
    for lhs, rhs in s.equations:
        assert is_zero(restrict_to_manifold(lhs - rhs, s)).is_zero
