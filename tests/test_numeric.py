import math

import pytest

from symred.expr import (
    Jet, Num, Param, ParameterBinding, Var, func, opaque, pow_,
)
from symred.jets import JetSpace
from symred.numeric import (
    NoConvergence, SamplePlan, SolutionForm, newton_system, quadrature,
    quadrature_instance, residual_explicit, residual_implicit, solve_implicit,
)
from symred.systems import EquationSystem
from symred.zerotest import Constraint

x = Var("x")


def simpson(f, a, b, n=4096):
    h = (b - a) / n
    s = f(a) + f(b)
    for i in range(1, n):
        s += f(a + i * h) * (4 if i % 2 else 2)
    return s * h / 3


def test_quadrature_matches_simpson_oracle():
    v, err = quadrature(func("exp", -pow_(x, Num(2))), x, 0.0, 2.0)
    want = simpson(lambda t: math.exp(-t * t), 0.0, 2.0)
    assert v == pytest.approx(want, abs=1e-9)
    assert err < 1e-9


def test_quadrature_known_value():
    v, _ = quadrature(func("sin", x), x, 0.0, math.pi)
    assert v == pytest.approx(2.0, abs=1e-10)


def test_quadrature_callable_integrand():
    v, _ = quadrature(lambda t: t * t, a=0.0, b=3.0)
    assert v == pytest.approx(9.0, abs=1e-10)


def test_quadrature_instance_is_antiderivative():
    inst = quadrature_instance(math.cos, 0.0)
    b = ParameterBinding({}, {"I": inst})
    assert inst(0, 1.2) == pytest.approx(math.sin(1.2), abs=1e-9)
    # first derivative is the integrand itself
    assert inst(1, 1.2) == pytest.approx(math.cos(1.2), abs=1e-7)


def test_solve_implicit_newton():
    # x = cos(x) has the Dolittle fixed point near 0.739
    res = x - func("cos", x)
    v = solve_implicit(res, x, {}, guess=0.5)
    assert v == pytest.approx(0.7390851332151607, abs=1e-10)


def test_solve_implicit_bisection_fallback():
    # flat far from the root: bracket carries the solve
    res = func("arctan", Num(50) * (x - Num(2)))
    v = solve_implicit(res, x, {}, bracket=(-10.0, 10.0))
    assert v == pytest.approx(2.0, abs=1e-8)


def test_solve_implicit_no_root_raises():
    with pytest.raises(NoConvergence):
        solve_implicit(pow_(x, Num(2)) + Num(1), x, {}, guess=1.0,
                       bracket=(-5.0, 5.0))


def test_newton_system_2d():
    y = Var("y")
    rs = [pow_(x, Num(2)) + pow_(y, Num(2)) - Num(25), x - y - Num(1)]
    out = newton_system(rs, [x, y], {}, guesses=[3.0, 3.0])
    assert out[0] == pytest.approx(4.0, abs=1e-9)
    assert out[1] == pytest.approx(3.0, abs=1e-9)


def decay_system():
    js = JetSpace(("t",), {"u": ("t",)})
    return js, EquationSystem(js, [(js.jet("u", "t"), -Jet("u"))], name="decay")


def test_residual_explicit_exact_solution():
    js, sys_ = decay_system()
    sol = SolutionForm(kind="explicit",
                       explicit=(("u", func("exp", -Var("t"))),), dep="u")
    rep = residual_explicit(sol, sys_, SamplePlan(box={"t": (0.0, 2.0)}, n=32))
    assert rep.verdict != "inconclusive"
    assert rep.witness_value < 1e-12


def test_residual_explicit_wrong_solution():
    js, sys_ = decay_system()
    sol = SolutionForm(kind="explicit",
                       explicit=(("u", func("exp", Var("t"))),), dep="u")
    rep = residual_explicit(sol, sys_, SamplePlan(box={"t": (0.0, 2.0)}, n=32))
    assert rep.witness_value > 1e-2


def test_residual_implicit_on_explicit_form():
    # the finite-difference path accepts explicit forms too
    js, sys_ = decay_system()
    sol = SolutionForm(kind="explicit",
                       explicit=(("u", func("exp", -Var("t"))),), dep="u")
    rep = residual_implicit(sol, sys_,
                            SamplePlan(box={"t": (0.0, 2.0)}, n=16, h=1e-5))
    assert rep.verdict != "inconclusive"
    assert rep.witness_value < 1e-6


def test_residual_implicit_relation_form():
    # u defined by ln(u) + t = 0, i.e. u = exp(-t)
    js, sys_ = decay_system()
    sol = SolutionForm(kind="implicit",
                       relations=((Jet("u"), func("ln", Jet("u")) + Var("t"),
                                   0.5, (1e-6, 10.0)),),
                       dep="u")
    rep = residual_implicit(sol, sys_,
                            SamplePlan(box={"t": (0.0, 2.0)}, n=16, h=1e-4))
    assert rep.verdict != "inconclusive"
    assert rep.witness_value < 1e-5


def test_report_tracks_skips():
    js, sys_ = decay_system()
    sol = SolutionForm(kind="explicit",
                       explicit=(("u", func("ln", -Var("t"))),), dep="u")
    rep = residual_explicit(sol, sys_, SamplePlan(box={"t": (0.5, 2.0)}, n=16))
    assert rep.verdict == "inconclusive"  # every point faults on ln of a negative


def test_explicit_report_counts_pinned(bundles):
    b = bundles["eq4"]
    spec = b.solutions["eq5"]
    sys_ = b.system(spec.of)
    form = spec.make_form(sys_.js.dependents)
    rep = residual_explicit(form, sys_, spec.make_plan(seed=3),
                            spec.make_binding())
    assert (rep.points_tested + rep.points_skipped, rep.points_skipped) == (64, 0)
    # the solution's constraint fails for w < -ln 2: on a widened box
    # draws are rejected and the budget of 100 runs out at 60 points
    plan = SamplePlan(box={"w": (-3.0, 2.0)}, n=64, seed=3, retry_budget=100)
    rep = residual_explicit(form, sys_, plan, spec.make_binding())
    assert (rep.points_tested + rep.points_skipped, rep.points_skipped) == (60, 0)


def test_grid_plan_point_count():
    js, sys_ = decay_system()
    sol = SolutionForm(kind="explicit",
                       explicit=(("u", func("exp", -Var("t"))),), dep="u")
    rep = residual_explicit(sol, sys_,
                            SamplePlan(box={"t": (0.0, 2.0)}, grid=(7,)))
    assert rep.points_tested + rep.points_skipped == 7
