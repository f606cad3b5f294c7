"""Invariance criteria: classical, conditional, Lie-Backlund, and the
classical-invariance novelty diagnostic."""

from __future__ import annotations

from dataclasses import dataclass, field

from .expr import Jet, Num, ZERO, add, mul, pow_
from .jets import CanonicalOperator, JetSpace, VectorField, apply_operator, prolong
from .systems import EquationSystem, restrict_to_manifold
from .zerotest import Result, check_seed, combine, is_zero


def check_classical(vf: VectorField, sys: EquationSystem, seed: int = 0,
                    extra=(), tol_abs: float = 1e-9, tol_rel: float = 1e-9,
                    binding=None) -> Result:
    """Apply the prolonged field to each equation, restrict to the
    manifold (with consequences), zero-test.  Pass iff all residuals
    vanish."""
    order = max(sys.order, 1)
    pf = prolong(vf, order, sys.js)
    results = []
    for i, (lhs, rhs) in enumerate(sys.equations):
        res = apply_operator(pf, lhs - rhs)
        res = restrict_to_manifold(res, sys, extra=extra)
        zr = is_zero(res, sys.constraints, seed=check_seed(seed, i),
                     tol_abs=tol_abs, tol_rel=tol_rel, binding=binding)
        results.append((f"equation {i}", zr))
    return combine(results, seed, tol_abs, tol_rel)


def invariant_surface_conditions(vf: VectorField, js: JetSpace):
    """Solved-form invariant-surface conditions of a point operator.

    Requires one independent variable whose xi component is the
    constant 1 (the promoted-coordinate convention); the condition for
    each dependent u is  u_{that var} = eta - sum over other xi * u_j.
    """
    pivot = None
    for xj, xij in vf.xi.items():
        if xij == Num(1):
            pivot = xj
            break
    if pivot is None:
        raise ValueError("operator has no unit xi component to solve along")
    extras = []
    for dep, args in js.dependents.items():
        if pivot not in args:
            continue
        rhs = vf.eta.get(dep, ZERO)
        for xj, xij in vf.xi.items():
            if xj == pivot:
                continue
            rhs = add(rhs, mul(Num(-1), xij, Jet(dep, ((xj, 1),))))
        extras.append((Jet(dep, ((pivot, 1),)), rhs))
    return extras


def check_conditional(vf: VectorField, sys: EquationSystem, seed: int = 0,
                      tol_abs: float = 1e-9, tol_rel: float = 1e-9,
                      binding=None) -> Result:
    """As check_classical, but the manifold also carries the operator's
    own invariant-surface conditions and their consequences."""
    extras = invariant_surface_conditions(vf, sys.js)
    return check_classical(vf, sys, seed=seed, extra=extras,
                           tol_abs=tol_abs, tol_rel=tol_rel, binding=binding)


def check_lie_backlund(op: CanonicalOperator, ode: EquationSystem, seed: int = 0,
                       tol_abs: float = 1e-9, tol_rel: float = 1e-9,
                       binding=None) -> Result:
    """Lie-Backlund invariance of a single solved-form ODE, restricted to
    the ODE manifold including mixed-variable differential consequences."""
    if len(ode.equations) != 1:
        raise ValueError("check_lie_backlund expects a single equation")
    lhs, rhs = ode.equations[0]
    if len(lhs.index) != 1:
        raise ValueError("leading coordinate must be a pure derivative in one variable")
    res = apply_operator(op, lhs - rhs, js=ode.js)
    res = restrict_to_manifold(res, ode)
    zr = is_zero(res, ode.constraints, seed=check_seed(seed, 0),
                 tol_abs=tol_abs, tol_rel=tol_rel, binding=binding)
    return combine([("equation 0", zr)], seed, tol_abs, tol_rel)


@dataclass
class NoveltyDiagnostic:
    """Dimension-count test: if the quasilinear constraint system built
    from the conditional family is invariant under an s-dimensional
    symmetry algebra of the equation and s >= t+1 (t = constants in the
    reduced general solution), the conditionally invariant solution is
    an invariant solution in the classical Lie sense."""

    s: int
    t: int
    verdicts: list = field(default_factory=list)  # (operator name, Result)
    conclusion: bool = False
    assumptions: tuple = (
        "involutivity of the constraint family is assumed, not verified",
    )


def constraint_system(family, js: JetSpace, constraints=()) -> EquationSystem:
    """Quasilinear first-order system  xi_aj u_{x_j} = eta_a  from a
    family of point operators, put in solved form along a constant
    pivot xi."""
    equations = []
    for q in family:
        pivot = None
        for xj, xij in q.xi.items():
            if isinstance(xij, Num) and xij.value != 0:
                pivot = (xj, xij)
                break
        if pivot is None:
            raise ValueError(
                f"family operator {q.name or q!r} has no constant nonzero xi to solve along")
        xp, cp = pivot
        for dep in js.dependents:
            rhs = q.eta.get(dep, ZERO)
            for xj, xij in q.xi.items():
                if xj == xp:
                    continue
                rhs = add(rhs, mul(Num(-1), xij, Jet(dep, ((xj, 1),))))
            equations.append((Jet(dep, ((xp, 1),)), mul(pow_(cp, Num(-1)), rhs)))
    return EquationSystem(js, equations, tuple(constraints), name="constraint system")


def novelty_diagnostic(algebra, family, t: int, js: JetSpace, seed: int = 0,
                       constraints=(), binding=None) -> NoveltyDiagnostic:
    """Run the classical invariance check of each algebra operator
    against the family's constraint system and report the dimension
    count conclusion."""
    s = len(algebra)
    diag = NoveltyDiagnostic(s=s, t=t)
    if s == 0:
        return diag
    csys = constraint_system(family, js, constraints)
    for i, op in enumerate(algebra):
        rep = check_classical(op, csys, seed=check_seed(seed, 100 + i),
                              binding=binding)
        diag.verdicts.append((op.name or f"operator {i}", rep))
    diag.conclusion = s >= t + 1 and all(rep.passed for _, rep in diag.verdicts)
    return diag
