from dataclasses import replace

import pytest

from symred.expr import (
    Jet, Num, Param, Var, ZERO, func, opaque, pow_, simplify,
)
from symred.jets import JetSpace
from symred.reduce import (
    Ansatz, BacklundRelation, OverdeterminedSpec, ansatz_derivatives,
    check_overdetermined, derive_reduction, systems_equivalent,
    verify_backlund, verify_reduction,
)
from symred.systems import EquationSystem, restrict_to_manifold
from symred.zerotest import Constraint, Result, is_zero

JS = JetSpace(("x1", "x2"), {"u": ("x1", "x2")})


def log_ansatz():
    # u = ln(x1 + phi1(x2)) + phi2(x2)
    rhs = func("ln", Var("x1") + Jet("phi1")) + Jet("phi2")
    return Ansatz(js=JS, targets=[(Jet("u"), rhs)],
                  phis={"phi1": ("x2",), "phi2": ("x2",)},
                  positive=True,
                  constraints=(Constraint(Var("x1") + Jet("phi1"), ">"),),
                  name="logAnsatz")


def wave_equation():
    # u_{x1,x2} = u_{x1}^2 F(u + ln u_{x1})
    u1 = JS.jet("u", "x1")
    rhs = pow_(u1, Num(2)) * opaque("F", Jet("u") + func("ln", u1))
    return EquationSystem(JS, [(JS.jet("u", "x1", "x2"), rhs)],
                          (Constraint(u1, ">"),), name="wave")


def reduced_candidate(sign=-1):
    js = JetSpace(("x1", "x2"), {"u": ("x1", "x2"), "phi1": ("x2",),
                                 "phi2": ("x2",)})
    rhs = Num(sign) * opaque("F", Jet("phi2"))
    return EquationSystem(js, [(js.jet("phi1", "x2"), rhs)], name="cand")


def test_ansatz_derivatives_explicit():
    frame = ansatz_derivatives(log_ansatz())
    u1 = frame.system and restrict_to_manifold(JS.jet("u", "x1"), frame.system)
    want = pow_(Var("x1") + Jet("phi1"), Num(-1))
    assert is_zero(u1 - want, frame.constraints).is_zero


def test_ansatz_derivatives_trivial_invariant():
    # u = phi1(w), w = x1: all x2-derivatives vanish
    js = JetSpace(("x1", "x2"), {"u": ("x1", "x2")})
    a = Ansatz(js=js, targets=[(Jet("u"), Jet("phi1"))],
               phis={"phi1": ("w",)}, invariants={"w": Var("x1")})
    frame = ansatz_derivatives(a)
    u2 = restrict_to_manifold(js.jet("u", "x2"), frame.system)
    assert is_zero(u2).is_zero


def test_ansatz_derivatives_implicit_invariant():
    # v2 = x1 phi2(w), w = C v2 + x2  =>  v2_{x2} = x1 phi2'/(1 - C x1 phi2')
    js = JetSpace(("x1", "x2"), {"v2": ("x1", "x2")})
    a = Ansatz(js=js, targets=[(Jet("v2"), Var("x1") * Jet("phi2"))],
               phis={"phi2": ("w",)},
               invariants={"w": Param("C") * Jet("v2") + Var("x2")})
    frame = ansatz_derivatives(a)
    v22 = restrict_to_manifold(js.jet("v2", "x2"), frame.system)
    p2w = Jet("phi2", (("w", 1),))
    det = Num(1) - Param("C") * Var("x1") * p2w
    want = Var("x1") * p2w / det
    assert is_zero(v22 - want, frame.constraints).is_zero
    # the solvability determinant is attached as a domain constraint
    assert any(c.rel == "!=" for c in frame.constraints)


def test_verify_reduction_pass():
    rep = verify_reduction(log_ansatz(), wave_equation(), reduced_candidate())
    assert rep.passed


def test_verify_reduction_sign_flip_fails():
    rep = verify_reduction(log_ansatz(), wave_equation(), reduced_candidate(+1))
    assert rep.verdict == "fail"


def test_derive_reduction_recovers_candidate():
    out = derive_reduction(log_ansatz(), wave_equation())
    assert not isinstance(out, Result)
    assert len(out.equations) <= 2  # never more equations than unknowns
    eq = systems_equivalent(out, reduced_candidate())
    assert eq.passed


def test_derived_system_verifies_back():
    out = derive_reduction(log_ansatz(), wave_equation())
    rep = verify_reduction(log_ansatz(), wave_equation(), out)
    assert rep.passed


def test_derive_reduction_degenerate_ansatz_fails():
    # u = x1 phi1(x2) leaves a bare x1-dependent coefficient with no
    # unknown-function derivative to absorb it
    js = JetSpace(("x1", "x2"), {"u": ("x1", "x2")})
    rhs = pow_(func("exp", js.jet("u", "x1")) - Param("C"), Num(-1))
    eq = EquationSystem(js, [(js.jet("u", "x2", "x2"), rhs)],
                        (Constraint(func("exp", js.jet("u", "x1")) - Param("C"),
                                    "!="),))
    a = Ansatz(js=js, targets=[(Jet("u"), Var("x1") * Jet("phi1"))],
               phis={"phi1": ("x2",)})
    out = derive_reduction(a, eq)
    assert isinstance(out, Result)
    assert out.detail


def test_systems_equivalent_detects_difference():
    eq = systems_equivalent(reduced_candidate(-1), reduced_candidate(+1))
    assert eq.verdict == "fail"


def test_backlund_identity_relations_pass():
    js = JetSpace(("x1", "x2"), {"u": ("x1", "x2"), "w": ("x1", "x2")})
    sg_u = EquationSystem(js, [(js.jet("u", "x1", "x2"), func("sin", Jet("u")))])
    sg_w = EquationSystem(js, [(js.jet("w", "x1", "x2"), func("sin", Jet("w")))])
    # u = w pins the integration constant; the derivative relations then
    # follow as rewrite consequences
    bt = BacklundRelation(
        js=js,
        relations=((Jet("u"), Jet("w")),
                   (js.jet("u", "x1"), js.jet("w", "x1")),
                   (js.jet("u", "x2"), js.jet("w", "x2"))),
        source=sg_w, target=sg_u)
    assert verify_backlund(bt).passed


def test_backlund_scaled_relations_fail():
    js = JetSpace(("x1", "x2"), {"u": ("x1", "x2"), "w": ("x1", "x2")})
    sg_u = EquationSystem(js, [(js.jet("u", "x1", "x2"), func("sin", Jet("u")))])
    sg_w = EquationSystem(js, [(js.jet("w", "x1", "x2"), func("sin", Jet("w")))])
    bt = BacklundRelation(
        js=js,
        relations=((js.jet("u", "x1"), Num(2) * js.jet("w", "x1")),
                   (js.jet("u", "x2"), js.jet("w", "x2"))),
        source=sg_w, target=sg_u)
    assert verify_backlund(bt).verdict == "fail"


def overdetermined_js():
    return JetSpace(("x1", "x2"), {"u": ("x1", "x2")})


def test_overdetermined_trivial_incompatible():
    js = overdetermined_js()
    pair = [(js.jet("u", "x1"), Var("x2")), (js.jet("u", "x2"), ZERO)]
    rep = check_overdetermined(OverdeterminedSpec("pair", tuple(pair)), js)
    assert rep.verdict == "fail"
    # the first draw, from the default box 0.2 .. 2 at seed 0
    assert rep.witness["x2"] == 1.7199593327450866
    assert rep.witness["u[x1]"] == pytest.approx(1.7199593327450866, rel=1e-12)
    assert rep.parts[0].points_tested == 1


def test_overdetermined_condition_with_no_tested_point_is_inconclusive():
    # the incompatible pair above, asked for no points: nothing was tested,
    # so nothing may pass
    js = overdetermined_js()
    pair = [(js.jet("u", "x1"), Var("x2")), (js.jet("u", "x2"), ZERO)]
    rep = check_overdetermined(OverdeterminedSpec("pair", tuple(pair), n=0), js)
    assert rep.verdict == "inconclusive"
    assert rep.parts[0].points_tested == 0


def test_overdetermined_seed_stream_pinned(bundles):
    # exact counts and witness of the bundled pair at seed 0; a change to
    # the draw order or the budget accounting shows here
    b = bundles["eq2"]
    spec = b.overdetermined["pairAfter5"]

    def run(pair):
        return check_overdetermined(replace(spec, assignments=pair), b.space,
                                    seed=0)

    rep = run(spec.assignments)
    assert [(p.verdict, p.points_tested) for p in rep.parts] == \
        [("zero", 32)]
    (l1, r1), (l2, r2) = spec.assignments
    rep = run(((l1, r1), (l2, Num(-1) * r2)))
    assert rep.verdict == "fail"
    assert rep.parts[0].points_tested == 1
    witness = dict(rep.witness)
    solved = {k: witness.pop(k) for k in ("u[x1]", "u[x2]")}
    assert witness == {"C": 0.7066531109150289, "C1": 2.636931604410454,
                       "alpha": 0.920571580830845, "x1": 0.888375125439445,
                       "x2": 0.5112747213686085}
    assert solved == pytest.approx({"u[x1]": 1.297077256155803,
                                    "u[x2]": -0.4279949454274665}, rel=1e-9)


def test_overdetermined_separated_compatible():
    js = overdetermined_js()
    pair = [(js.jet("u", "x1"), opaque("f", Var("x1"))),
            (js.jet("u", "x2"), opaque("g", Var("x2")))]
    rep = check_overdetermined(OverdeterminedSpec("pair", tuple(pair)), js)
    assert rep.passed


def test_overdetermined_gradient_of_product():
    js = overdetermined_js()
    pair = [(js.jet("u", "x1"), Var("x2") * func("cos", Var("x1") * Var("x2"))),
            (js.jet("u", "x2"), Var("x1") * func("cos", Var("x1") * Var("x2")))]
    rep = check_overdetermined(OverdeterminedSpec("pair", tuple(pair)), js)
    assert rep.passed
