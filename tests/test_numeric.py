import gc
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from symred.expr import (
    Jet, Num, Param, ParameterBinding, Var, func, opaque, pow_, substitute,
)
from symred.jets import JetSpace
from symred import numeric, zerotest
from symred.numeric import (
    NoConvergence, SolutionSpec, newton_system, quadrature,
    quadrature_instance, residual_explicit, residual_fd, residual_implicit,
    solve_implicit,
)
from symred.systems import EquationSystem
from symred.zerotest import Constraint

import reference_kernel

x = Var("x")


def simpson(f, a, b, n=4096):
    h = (b - a) / n
    s = f(a) + f(b)
    for i in range(1, n):
        s += f(a + i * h) * (4 if i % 2 else 2)
    return s * h / 3


def test_quadrature_matches_simpson_oracle():
    v, err = quadrature(lambda t: math.exp(-t * t), 0.0, 2.0)
    want = simpson(lambda t: math.exp(-t * t), 0.0, 2.0)
    assert v == pytest.approx(want, abs=1e-9)
    assert err < 1e-9


def test_quadrature_known_value():
    v, _ = quadrature(math.sin, 0.0, math.pi)
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


def test_quadrature_integrand_sees_the_bound_function_not_itself():
    # F is bound to sin, and a quadrature also named F integrates
    # F(cos(s)): in the integrand F is the bound sin
    s = Var("s")
    spec = SolutionSpec("q", fn_binds={"F": ("sin",)}, quadratures={
        "F": ("s", opaque("F", func("cos", s), 0), 0.0)})
    F = spec.make_binding().functions["F"]
    want, _ = quadrature(lambda t: math.sin(math.cos(t)), a=0.0, b=1.0)
    assert F(0, 1.0) == pytest.approx(want, abs=1e-10)


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
    sol = SolutionSpec("exact", explicit=[("u", func("exp", -Var("t")))],
                       dep="u", box={"t": (0.0, 2.0)}, n=32)
    rep = residual_explicit(sol, sys_)
    assert rep.verdict != "inconclusive"
    assert rep.witness_value < 1e-12


def test_residual_explicit_wrong_solution():
    js, sys_ = decay_system()
    sol = SolutionSpec("wrong", explicit=[("u", func("exp", Var("t")))],
                       dep="u", box={"t": (0.0, 2.0)}, n=32)
    rep = residual_explicit(sol, sys_)
    assert rep.witness_value > 1e-2


def test_residual_implicit_on_explicit_form():
    # the finite-difference path accepts explicit solutions too
    js, sys_ = decay_system()
    sol = SolutionSpec("exact", explicit=[("u", func("exp", -Var("t")))],
                       dep="u", box={"t": (0.0, 2.0)}, n=16, h=1e-5)
    rep = residual_fd(sol, sys_)
    assert rep.verdict != "inconclusive"
    assert rep.witness_value < 1e-6


def test_residual_implicit_relation_form():
    # u defined by ln(u) + t = 0, i.e. u = exp(-t)
    js, sys_ = decay_system()
    sol = SolutionSpec("log", kind="implicit",
                       relations=[("u", func("ln", Jet("u")) + Var("t"))],
                       guesses={"u": 0.5}, brackets={"u": (1e-6, 10.0)},
                       dep="u", box={"t": (0.0, 2.0)}, n=16, h=1e-4)
    rep = residual_implicit(sol, sys_)
    assert rep.verdict != "inconclusive"
    assert rep.witness_value < 1e-5


def test_report_tracks_skips():
    js, sys_ = decay_system()
    sol = SolutionSpec("outside", explicit=[("u", func("ln", -Var("t")))],
                       dep="u", box={"t": (0.5, 2.0)}, n=16)
    rep = residual_explicit(sol, sys_)
    assert rep.verdict == "inconclusive"  # every point faults on ln of a negative


def test_explicit_report_counts_pinned(bundles, monkeypatch):
    b = bundles["eq4"]
    spec = b.solutions["eq5"]
    sys_ = b.system(spec.of)
    rep = residual_explicit(spec, sys_, 3)
    assert (rep.points_tested + rep.points_skipped, rep.points_skipped) == (64, 0)
    # the solution's constraint fails for w < -ln 2: on a widened box
    # draws are rejected and the budget of 100 runs out at 60 points
    monkeypatch.setattr(zerotest, "RETRY_BUDGET", 100)
    rep = residual_explicit(replace(spec, box={"w": (-3.0, 2.0)}), sys_, 3)
    assert (rep.points_tested + rep.points_skipped, rep.points_skipped) == (60, 0)


def test_a_solution_check_without_tol_takes_the_specs_own(bundles):
    b = bundles["ode32"]
    spec = b.solutions["eq38"]
    assert (spec.of, spec.tol) == ("eq35", 1e-8)
    rep = residual_explicit(spec, b.system(spec.of))
    assert rep.passed
    assert (rep.tol_abs, rep.tol_rel) == (1e-8, 0.0)


def test_grid_plan_point_count():
    js, sys_ = decay_system()
    sol = SolutionSpec("exact", explicit=[("u", func("exp", -Var("t")))],
                       dep="u", box={"t": (0.0, 2.0)}, grid=(7,))
    rep = residual_explicit(sol, sys_)
    assert rep.points_tested + rep.points_skipped == 7


# -- exact implicit-function derivatives against the finite-difference
# oracle ------------------------------------------------------------------

XT = JetSpace(("x", "t"), {"u": ("x", "t")})
XT_JETS = [(), ("x",), ("t",), ("x", "x"), ("x", "t"), ("t", "t")]
# |jet - OFFSET| keeps the sign of a jet that is smaller than OFFSET
OFFSET = Num(1000)


def _both_paths(sol, jet_vars, box, steps=(1e-3, 5e-4)):
    """|jet - OFFSET| at the box's centre by the exact path, then by
    finite differences with each step."""
    sys_ = EquationSystem(XT, [(XT.jet("u", *jet_vars), OFFSET)])
    out = []
    for residual, h in [(residual_implicit, 0.0)] + \
            [(residual_fd, h) for h in steps]:
        rep = residual(replace(sol, box=box, grid=(1, 1), h=h), sys_)
        assert rep.points_skipped == 0
        out.append(rep.witness_value)
    return out


def _random_chain(seed: int, two: bool) -> SolutionSpec:
    """A chain whose relations are increasing in their unknowns (slope at
    least 1 - |k| > 0), so each has one root."""
    rng = random.Random(seed)
    c = [Num(Fraction(rng.randint(-9, 9), rng.randint(1, 9))) for _ in range(6)]
    k = [Num(Fraction(rng.randint(-4, 4), 5)) for _ in range(2)]
    X, T = Var("x"), Var("t")
    u = Jet("u")
    s = Param("s")
    if two:
        r1 = s + k[0] * func("sin", s) - c[0] * X * T - c[1] * func("exp", c[2] * X)
        r2 = u + k[1] * func("sin", u + s) - c[3] * s * X - c[4] * T \
            - c[5] * func("cos", s * T)
        rel = [("s", r1), ("u", r2)]
    else:
        r = u + k[0] * func("sin", u) - c[0] * X * T - c[1] * func("exp", c[2] * X) \
            - c[3] * func("cos", c[4] * T + c[5] * X)
        rel = [("u", r)]
    return SolutionSpec("chain", kind="implicit", relations=rel, dep="u",
                        brackets={name: (-50.0, 50.0) for name, _ in rel})


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("two", (False, True))
def test_exact_derivatives_match_finite_differences(seed, two):
    sol = _random_chain(seed, two)
    rng = random.Random(100 + seed)
    x0, t0 = rng.uniform(-1, 1), rng.uniform(0.2, 1)
    box = {"x": (x0, x0), "t": (t0, t0)}
    for jet_vars in XT_JETS:
        exact, fd_h, fd_half = _both_paths(sol, jet_vars, box)
        # central differences err by C h^2, so the error at step h/2 is
        # a third of the change from h to h/2; the floor is rounding
        # (about 1e-16 |u| / h^2 for a second derivative)
        assert abs(exact - fd_half) <= abs(fd_h - fd_half) + 1e-6, jet_vars


def test_exact_path_on_eq6_matches_finite_differences(bundles):
    b = bundles["eq6"]
    sys_ = b.system("eq6")
    for name in ("implicitTheta", "thetaFlipped"):
        spec = b.solutions[name]
        exact = residual_implicit(spec, sys_, 0, tol=spec.tol)
        fd = residual_fd(spec, sys_, 0, tol=spec.tol)
        assert exact.provenance == "implicit-exact"
        assert fd.provenance == "finite-difference"
        assert (exact.verdict, exact.points_skipped) == \
            (fd.verdict, fd.points_skipped)
        # h = 1e-4: finite differences are good to about 1e-6 here
        assert exact.witness_value == pytest.approx(fd.witness_value, abs=1e-6)
        if name == "implicitTheta":
            # the true solution's residual is rounding only
            assert exact.witness_value < 1e-12


def test_exact_path_has_no_order_limit():
    # u = exp(x + t) solves u_t = u_xxx
    sys_ = EquationSystem(XT, [(XT.jet("u", "t"), XT.jet("u", "x", "x", "x"))])
    u = Jet("u")
    sol = SolutionSpec("exp", kind="implicit", dep="u",
                       relations=[("u", u - func("exp", Var("x") + Var("t")))],
                       guesses={"u": 1.0}, brackets={"u": (1e-6, 50.0)},
                       box={"x": (0.0, 1.0), "t": (0.0, 1.0)}, n=16)
    rep = residual_implicit(sol, sys_)
    assert rep.verdict == "pass" and rep.points_skipped == 0
    assert rep.witness_value < 1e-12
    with pytest.raises(ValueError, match="order <= 2"):
        residual_fd(sol, sys_)


def test_singular_relation_point_is_skipped():
    # (x - 1/2)(u - exp(t)) = 0 is solved by u = exp(t), but dR/du
    # vanishes on the grid point x = 1/2, where every u is a root
    sys_ = EquationSystem(XT, [(XT.jet("u", "t"), Jet("u"))])
    u = Jet("u")
    rel = (Var("x") - Num(Fraction(1, 2))) * (u - func("exp", Var("t")))
    sol = SolutionSpec("singular", kind="implicit", dep="u",
                       relations=[("u", rel)], guesses={"u": 0.5},
                       box={"x": (0.0, 1.0), "t": (0.0, 1.0)}, grid=(5, 1))
    rep = residual_implicit(sol, sys_)
    assert (rep.points_tested, rep.points_skipped) == (4, 1)
    assert rep.verdict == "pass" and rep.witness_value < 1e-12


def test_exact_path_leaves_no_reference_cycles(bundles):
    # the derivative trees of a call are freed by reference counting,
    # not left for the cyclic collector
    b = bundles["eq6"]
    sys_ = b.system("eq6")
    spec = b.solutions["implicitTheta"]

    def garbage(residual):
        gc.collect()
        gc.disable()
        try:
            residual(spec, sys_)
            return gc.collect()
        finally:
            gc.enable()

    assert garbage(residual_implicit) <= garbage(residual_fd)


# -- the chain derivatives from the prolongation layer against the
# chain rule they replaced ------------------------------------------------

def _third_order_chain():
    """u[t] = u[x,x,t] + u[x]*u[t,t] with the chain s*exp(s) = x - C*t,
    u^3 + u = s*x + t: an auxiliary unknown and mixed third-order jets."""
    X, T, C, s, u = Var("x"), Var("t"), Param("C"), Param("s"), Jet("u")
    sys_ = EquationSystem(XT, [(XT.jet("u", "t"),
                                XT.jet("u", "x", "x", "t")
                                + XT.jet("u", "x") * XT.jet("u", "t", "t"))])
    sol = SolutionSpec(
        "chain3", kind="implicit", dep="u", binds={"C": 0.5},
        relations=[("s", s * func("exp", s) - X + C * T),
                   ("u", pow_(u, Num(3)) + u - s * X - T)],
        guesses={"s": 0.5, "u": 0.5},
        brackets={"s": (-1.0, 3.0), "u": (-5.0, 5.0)},
        box={"x": (0.0, 2.0), "t": (0.0, 1.0)}, n=32)
    return sol, sys_


def _chains(bundles):
    eq6 = bundles["eq6"]
    return [(eq6.solutions[name], eq6.system("eq6"))
            for name in ("implicitTheta", "thetaFlipped")] + \
        [_third_order_chain()]


def _old_route(relations, indices, base):
    """The chain rule oracle in ``_chain_jets``'s place: the relations
    kept as they are, and the oracle's denominators and steps."""
    return (relations, *reference_kernel.chain_jets(relations, indices))


def test_chain_jets_equal_the_chain_rule_oracle(bundles):
    for spec, sys_ in _chains(bundles):
        _, _, _, relations, dens, steps = numeric._implicit_build(spec, sys_)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(numeric, "_chain_jets", _old_route)
            _, _, _, old, ref_dens, ref_steps = \
                numeric._implicit_build(spec, sys_)
        rename = {u: Jet(u.name + "#") for u, *_ in old
                  if isinstance(u, Param)}
        assert relations == [(rename.get(u, u), substitute(r, rename), *rest)
                             for u, r, *rest in old]
        assert dens == [substitute(d, rename) for d in ref_dens]
        assert len(steps) == len(ref_steps) > 0
        for (sym, e, i), (ref_sym, ref_e, ref_i) in zip(steps, ref_steps):
            assert (sym, i) == (ref_sym, ref_i)
            assert e == substitute(ref_e, rename), sym


def test_residual_implicit_equals_the_chain_rule_oracle(bundles):
    for spec, sys_ in _chains(bundles):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(numeric, "_chain_jets", _old_route)
            old = replace(spec)
            want = [residual_implicit(old, sys_, seed) for seed in range(4)]
        new = replace(spec)
        got = [residual_implicit(new, sys_, seed) for seed in range(4)]
        assert got == want
        assert all(r.points_tested > 0 for r in got)
