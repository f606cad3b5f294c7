from fractions import Fraction

import pytest

from symred.checks import (
    check_classical, check_conditional, check_lie_backlund,
    invariant_surface_conditions, novelty_diagnostic,
)
from symred.expr import Jet, Num, Var, ZERO, opaque, pow_
from symred.jets import CanonicalOperator, JetSpace, VectorField
from symred.systems import EquationSystem

JS = JetSpace(("x1", "x2"), {"u": ("x1", "x2")})


def heat_like():
    # u_{x2} = u_{x1,x1}
    return EquationSystem(JS, [(JS.jet("u", "x2"),
                                JS.jet("u", "x1", "x1"))], name="heat")


def test_classical_translation_passes():
    vf = VectorField({"x1": Num(1)}, {}, name="T1")
    assert check_classical(vf, heat_like()).passed


def test_classical_scaling_passes():
    # x1 -> s x1, x2 -> s^2 x2 leaves u_{x2} = u_{x1,x1} invariant
    vf = VectorField({"x1": Var("x1"), "x2": Num(2) * Var("x2")}, {})
    assert check_classical(vf, heat_like()).passed


def test_classical_broken_scaling_fails():
    vf = VectorField({"x1": Var("x1"), "x2": Var("x2")}, {})
    rep = check_classical(vf, heat_like())
    assert rep.verdict == "fail"
    assert rep.witness is not None


def test_report_carries_seed_and_tolerances():
    vf = VectorField({"x1": Num(1)}, {}, name="T1")
    rep = check_classical(vf, heat_like(), seed=7)
    assert rep.seed == 7
    assert {"abs": rep.tol_abs, "rel": rep.tol_rel} == {"abs": 1e-9, "rel": 1e-9}


def test_invariant_surface_conditions_shape():
    vf = VectorField({"x1": Num(2), "x2": Num(1)}, {"u": Jet("u")})
    isc = invariant_surface_conditions(vf, JS)
    # solved along the first nonzero xi: u_{x1} = (u - 1*u_{x2})/2
    assert len(isc) == 1


def test_conditional_passes_where_classical_fails():
    # Q = d/dx2 + u d/du is conditionally invariant for u_{x2} = u
    # (surface condition coincides with the equation) regardless of x1
    js = JetSpace(("x1", "x2"), {"u": ("x1", "x2")})
    sys_ = EquationSystem(js, [(js.jet("u", "x2"), Jet("u") * Var("x1"))])
    q = VectorField({"x2": Num(1)}, {"u": Jet("u") * Var("x1")})
    assert check_conditional(q, sys_).passed


def test_lie_backlund_of_defining_ode_passes():
    js = JetSpace(("x1", "x2"), {"u": ("x1", "x2")})
    ode = EquationSystem(js, [(js.jet("u", "x1", "x1"),
                               -pow_(js.jet("u", "x1"), Num(2)))])
    q = CanonicalOperator({"u": js.jet("u", "x1", "x2") /
                           pow_(js.jet("u", "x1"), Num(2))})
    assert check_lie_backlund(q, ode).passed


def test_lie_backlund_mutant_fails():
    js = JetSpace(("x1", "x2"), {"u": ("x1", "x2")})
    ode = EquationSystem(js, [(js.jet("u", "x1", "x1"),
                               -pow_(js.jet("u", "x1"), Num(2)))])
    q = CanonicalOperator({"u": opaque("F", Jet("u") + js.jet("u", "x1"))})
    assert check_lie_backlund(q, ode).verdict == "fail"


def translations():
    return [VectorField({"x1": Num(1)}, {}, name="X1"),
            VectorField({"x2": Num(1)}, {}, name="X2")]


def family_gradient_zero():
    return [VectorField({"x1": Num(1)}, {}, name="Q1"),
            VectorField({"x2": Num(1)}, {}, name="Q2")]


def test_novelty_diagnostic_true_on_dimension_count():
    # constraint family u_{x1} = 0, u_{x2} = 0: general solution has one
    # constant (t = 1); the two translations form an invariance algebra,
    # so s = 2 >= t + 1 and the diagnostic concludes true
    diag = novelty_diagnostic(translations(), family_gradient_zero(), t=1, js=JS)
    assert diag.s == 2 and diag.t == 1
    assert diag.conclusion is True


def test_novelty_diagnostic_false_when_invariance_fails():
    bad = VectorField({"x1": Num(1)}, {"u": Var("x1")}, name="bad")
    diag = novelty_diagnostic([translations()[0], bad],
                              family_gradient_zero(), t=1, js=JS)
    assert diag.conclusion is False
    verdicts = dict((n, v.verdict) for n, v in diag.verdicts)
    assert verdicts["bad"] == "fail"


def test_novelty_diagnostic_false_when_count_short():
    diag = novelty_diagnostic([translations()[0]], family_gradient_zero(),
                              t=1, js=JS)
    assert diag.conclusion is False


def test_novelty_diagnostic_deterministic_across_seeds():
    outs = [novelty_diagnostic(translations(), family_gradient_zero(), t=1,
                               js=JS, seed=s).conclusion for s in range(5)]
    assert outs == [True] * 5


def test_novelty_diagnostic_records_assumption():
    diag = novelty_diagnostic(translations(), family_gradient_zero(), t=1, js=JS)
    assert any("involutivity" in a for a in diag.assumptions)


def _qcond(bundles, scale_xi_only: bool):
    # sg_deformed:Qcond (xi x3 = 1) scaled by 8/7: all of it, a
    # conditional symmetry again, or only xi x3, a mutant
    b = bundles["sg_deformed"]
    entry = b.operators["Qcond"]
    c = Num(Fraction(8, 7))
    vf = entry.operator
    if scale_xi_only:
        vf = VectorField({k: c * v for k, v in vf.xi.items()}, vf.eta)
    else:
        vf = vf.scaled(c)
    return vf, b.equations[entry.on]


def test_conditional_solves_along_a_nonunit_constant_xi(bundles):
    vf, target = _qcond(bundles, scale_xi_only=False)
    assert vf.xi["x3"] == Num(Fraction(8, 7))
    for seed in (0, 1):
        assert check_conditional(vf, target, seed=seed).verdict == "pass"


def test_conditional_with_scaled_xi_only_gets_a_verdict(bundles):
    vf, target = _qcond(bundles, scale_xi_only=True)
    assert check_conditional(vf, target).verdict in ("pass", "fail")


def test_invariant_surface_conditions_divide_by_the_pivot():
    vf = VectorField({"x1": Num(2), "x2": Num(1)}, {"u": Jet("u")})
    [(lhs, rhs)] = invariant_surface_conditions(vf, JS)
    assert lhs == JS.jet("u", "x1")
    assert rhs == (Jet("u") - JS.jet("u", "x2")) / Num(2)


def test_invariant_surface_conditions_need_a_constant_xi():
    vf = VectorField({"x1": Var("x2")}, {"u": Jet("u")})
    with pytest.raises(ValueError, match="constant nonzero xi"):
        invariant_surface_conditions(vf, JS)
