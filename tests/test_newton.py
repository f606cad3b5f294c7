"""Differential tests of the one Newton solver, ``numeric.newton_system``,
against the two solvers it replaced (kept in ``reference_newton.py``):
scalar solves repeat the old scalar solver bit for bit, small systems
agree with the old numpy solver, and the pivoted linear solve agrees
with exact rational elimination."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import reference_newton
from symred import numeric
from symred.expr import (
    DomainFault, Num, Var, diff_partial, eval_numeric, func, pow_, rational,
)
from symred.numeric import NoConvergence, _gauss_solve, newton_system, solve_implicit

X, Y, Z = Var("x"), Var("y"), Var("z")


def _leaves():
    return st.one_of(
        st.just(X),
        st.builds(rational, st.integers(-9, 9), st.integers(1, 4)))


@st.composite
def scalar_exprs(draw, depth=3):
    """Random expressions in x with every function the evaluator
    domain-checks, so solves run into stalls, domain faults and
    brackets."""
    if depth == 0:
        return draw(_leaves())
    kind = draw(st.integers(0, 6))
    if kind <= 1:
        return draw(_leaves())
    a = draw(scalar_exprs(depth=depth - 1))
    if kind == 2:
        return a + draw(scalar_exprs(depth=depth - 1))
    if kind == 3:
        return a * draw(scalar_exprs(depth=depth - 1))
    if kind == 4:
        return pow_(a, Num(draw(st.sampled_from([-1, 2, 3]))))
    if kind == 5:
        return pow_(a, rational(1, 2))
    return func(draw(st.sampled_from(["sin", "cos", "exp", "ln", "arctan"])), a)


def _outcome(solve, counter, *args):
    """(value or exception class, residual evaluations) of one solve."""
    counter[0] = 0
    try:
        out = solve(*args)
    except (NoConvergence, DomainFault, OverflowError, ZeroDivisionError) as exc:
        out = type(exc)
    return out, counter[0]


def _scalar_case(res, guess, bracket):
    """Both scalar solvers on one relation, counting residual
    evaluations."""
    count = [0]

    def counted(*args, **kw):
        count[0] += 1
        return eval_numeric(*args, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numeric, "eval_numeric", counted)
        mp.setattr(reference_newton, "eval_numeric", counted)
        want = _outcome(reference_newton.solve_implicit, count, res, X, {},
                        None, guess, bracket)
        got = _outcome(solve_implicit, count, res, X, {}, None, guess,
                       bracket)
    # bit-identical value (or the same exception) after the same number
    # of residual evaluations
    assert got == want


@settings(max_examples=300, deadline=None)
@given(scalar_exprs(), st.builds(rational, st.integers(-20, 20), st.integers(1, 4)),
       st.floats(-4.0, 4.0))
def test_scalar_solves_repeat_the_old_solver(e, c, guess):
    _scalar_case(e - c, guess, None)


@settings(max_examples=300, deadline=None)
@given(scalar_exprs(), st.builds(rational, st.integers(-20, 20), st.integers(1, 4)),
       st.floats(-4.0, 4.0), st.floats(-6.0, 0.0), st.floats(0.0, 6.0))
def test_bracketed_scalar_solves_repeat_the_old_solver(e, c, guess, lo,
                                                        hi):
    _scalar_case(e - c, guess, (lo, hi))


def test_scalar_paths_are_exercised():
    # Newton, the bisection fallback, the midpoint restart, a stall
    # without a bracket, and a bracket that only a sign-changing step
    # records (no bracket is given for sqrt(x) - 1 from 4.0), each
    # against the old solver
    _scalar_case(X - func("cos", X), 0.5, None)
    _scalar_case(func("arctan", Num(50) * (X - Num(2))), 0.0,
                 (-10.0, 10.0))
    _scalar_case(func("ln", X) - Num(1), -1.0, (0.5, 5.0))
    _scalar_case(pow_(X, Num(2)) + Num(1), 0.0, None)
    _scalar_case(pow_(X, rational(1, 2)) - Num(1), 4.0, None)


@st.composite
def small_systems(draw):
    """Diagonally dominant linear part plus a small smooth nonlinearity:
    well conditioned, with a root near the guesses."""
    k = draw(st.integers(2, 3))
    unknowns = [X, Y, Z][:k]
    residuals = []
    for i in range(k):
        coeffs = [draw(st.integers(-3, 3)) for _ in range(k)]
        coeffs[i] = draw(st.sampled_from([-1, 1])) * (
            sum(abs(c) for j, c in enumerate(coeffs) if j != i) +
            draw(st.integers(1, 4)))
        r = Num(draw(st.integers(-5, 5)))
        for c, u in zip(coeffs, unknowns):
            r = r + Num(c) * u
        wiggle = rational(draw(st.integers(-3, 3)), 10)
        r = r + wiggle * func(draw(st.sampled_from(["sin", "cos", "arctan"])),
                              unknowns[(i + 1) % k])
        residuals.append(r)
    guesses = [draw(st.floats(-2.0, 2.0)) for _ in range(k)]
    return residuals, unknowns, guesses


@settings(max_examples=200, deadline=None)
@given(small_systems())
def test_small_systems_agree_with_the_numpy_solver(system):
    pytest.importorskip("numpy")
    residuals, unknowns, guesses = system
    try:
        want = reference_newton.newton_system(residuals, unknowns, {},
                                              guesses=guesses)
    except NoConvergence:
        with pytest.raises(NoConvergence):
            newton_system(residuals, unknowns, {}, guesses=guesses)
        return
    got = newton_system(residuals, unknowns, {}, guesses=guesses)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda k: st.tuples(
    st.lists(st.lists(st.integers(-9, 9), min_size=k, max_size=k),
             min_size=k, max_size=k),
    st.lists(st.integers(-9, 9), min_size=k, max_size=k))))
def test_pivoted_solve_agrees_with_exact_elimination(case):
    a, b = case
    k = len(b)
    exact = _gauss_solve([[Fraction(v) for v in row] for row in a],
                         [Fraction(v) for v in b])
    floats = _gauss_solve([[float(v) for v in row] for row in a],
                          [float(v) for v in b])
    if exact is None:
        # exactly singular; the float solve either sees a zero pivot or
        # returns something, but never divides by zero
        return
    assert all(sum(a[i][j] * exact[j] for j in range(k)) == b[i]
               for i in range(k))
    assert floats is not None
    scale = max(1.0, max(abs(float(v)) for v in exact))
    # a nonsingular integer matrix with entries up to 9 and size up to 4
    # has |det| >= 1 and 3x3 minors up to 4374, so its condition number
    # is below 1e6 and the pivoted elimination error below about 1e-8
    for f, e in zip(floats, exact):
        assert abs(f - float(e)) <= 1e-6 * scale


@pytest.mark.parametrize("pivot", [0.0, math.inf, math.nan])
def test_zero_or_non_finite_pivot_gives_none(pivot):
    assert _gauss_solve([[pivot]], [1.0]) is None
    assert _gauss_solve([[pivot, 0.0], [0.0, pivot]], [1.0, 1.0]) is None


def test_singular_jacobian_raises_no_convergence():
    # y enters no residual: its Jacobian column is exactly zero
    with pytest.raises(NoConvergence):
        newton_system([X - Num(1), X - Num(2)], [X, Y], {})
    with pytest.raises(NoConvergence):
        solve_implicit(pow_(X, Num(2)) + Num(1), X, {}, guess=0.0)


# -- exact Jacobians against central differences ------------------------------
# Newton on exact derivative expressions must find the root central
# differences find.  A root is only pinned to about NEWTON_TOL/|g'|, so
# the scalar comparison is made at simple roots (|g'| >= 1e-3).  It starts
# both paths next to the root the central path found from the drawn
# guess: from the guess itself, on an oscillating relation, a difference
# in the last bits of one step can carry the two paths to different
# roots, both correct.

def _converged(solve):
    """The root a solve returns, or None when it raises."""
    try:
        return solve()
    except (NoConvergence, DomainFault, OverflowError, ZeroDivisionError):
        return None


@settings(max_examples=200, deadline=None)
@given(small_systems())
def test_exact_jacobian_systems_agree_with_central_differences(system):
    residuals, unknowns, guesses = system
    jacobian = [[diff_partial(r, u) for u in unknowns] for r in residuals]
    central = _converged(lambda: newton_system(residuals, unknowns, {},
                                               guesses=guesses))
    exact = _converged(lambda: newton_system(residuals, unknowns, {},
                                             guesses=guesses,
                                             jacobian=jacobian))
    if central is not None:
        assert exact == pytest.approx(central, rel=1e-9, abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(scalar_exprs(), st.builds(rational, st.integers(-20, 20), st.integers(1, 4)),
       st.floats(-4.0, 4.0))
def test_exact_derivative_scalar_solves_agree_with_central_differences(
        e, c, guess):
    res = e - c
    derivative = diff_partial(res, X)
    root = _converged(lambda: solve_implicit(res, X, {}, guess=guess))
    if root is None:
        return
    slope = _converged(lambda: abs(eval_numeric(derivative, {X: root})))
    if slope is None or slope < 1e-3:
        return
    start = root + 1e-6 * (1.0 + abs(root))
    central = _converged(lambda: solve_implicit(res, X, {}, guess=start))
    exact = _converged(lambda: solve_implicit(res, X, {}, guess=start,
                                              derivative=derivative))
    if central is not None:
        assert exact == pytest.approx(central, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("residuals, unknowns, guesses", [
    ([X - func("cos", X)], [X], [0.5]),
    ([pow_(X, Num(2)) + pow_(Y, Num(2)) - Num(25), X * Y - Num(12)], [X, Y],
     [2.5, 4.5]),
])
def test_exact_jacobian_takes_the_central_steps(residuals, unknowns, guesses):
    # both converge quadratically, so they take the same number of Newton
    # steps to the same root; the exact path evaluates the Jacobian once
    # per step instead of 2k residual vectors
    jacobian = [[diff_partial(r, u) for u in unknowns] for r in residuals]
    seen = []

    def recorded(e, *args, **kw):
        seen.append(e)
        return eval_numeric(e, *args, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numeric, "eval_numeric", recorded)
        central = newton_system(residuals, unknowns, {}, guesses=guesses)
        central_calls = [e is residuals[0] for e in seen].count(True)
        seen.clear()
        exact = newton_system(residuals, unknowns, {}, guesses=guesses,
                              jacobian=jacobian)
    k = len(unknowns)
    steps = [e is jacobian[0][0] for e in seen].count(True)
    # no step is halved here: the central path evaluates the guess, then
    # 2k stencil points and one trial per step
    assert central_calls == 1 + (2 * k + 1) * steps
    assert [e is residuals[0] for e in seen].count(True) == 1 + steps
    assert exact == pytest.approx(central, rel=1e-12)


def test_a_bracket_needs_one_unknown():
    with pytest.raises(ValueError):
        newton_system([X - Y, X + Y], [X, Y], {}, bracket=(0.0, 1.0))
