"""Invariance criteria: classical, conditional, Lie-Backlund (the
classical check of the evolutionary field), and the classical-invariance
novelty diagnostic."""

from __future__ import annotations

from dataclasses import dataclass, field

from .expr import Jet, Num, ZERO, add, mul, pow_
from .jets import CanonicalOperator, JetSpace, VectorField, apply_operator, prolong
from .systems import EquationSystem, restrict_to_manifold
from .zerotest import Result, check_parts, check_seed


def check_classical(vf: VectorField, sys: EquationSystem, seed: int = 0,
                    extra=(), tol_abs: float = 1e-9,
                    tol_rel: float = 1e-9) -> Result:
    """Apply the prolonged field to each equation, restrict to the
    manifold (with consequences), zero-test.  Pass iff all residuals
    vanish."""
    pf = prolong(vf, max(sys.order, 1), sys.js)
    parts = ((f"equation {i}",
              restrict_to_manifold(apply_operator(pf, lhs - rhs), sys,
                                   extra=extra))
             for i, (lhs, rhs) in enumerate(sys.equations))
    return check_parts(parts, sys.constraints, seed, tol_abs, tol_rel)


def _constant_pivot(vf: VectorField):
    """The first xi component that is a nonzero constant, as
    (variable, Num), or None."""
    for xj, xij in vf.xi.items():
        if isinstance(xij, Num) and xij.value != 0:
            return xj, xij
    return None


def _solved_along(vf: VectorField, dep: str, pivot) -> tuple:
    """``xi_j u_j = eta`` for one dependent u, solved for u along the
    pivot (variable, constant c):  u_p = (eta - sum over other xi_j
    u_j) / c."""
    xp, cp = pivot
    rhs = vf.eta.get(dep, ZERO)
    for xj, xij in vf.xi.items():
        if xj != xp:
            rhs = add(rhs, mul(Num(-1), xij, Jet(dep, ((xj, 1),))))
    return Jet(dep, ((xp, 1),)), mul(pow_(cp, Num(-1)), rhs)


def invariant_surface_conditions(vf: VectorField, js: JetSpace):
    """Solved-form invariant-surface conditions of a point operator,
    along its first constant nonzero xi component.  A conditional
    symmetry is defined only up to a nonvanishing multiplier (Zhdanov,
    Tsyfra & Popovych, J. Math. Anal. Appl. 238, 1999), so dividing by
    that constant is the standard normalisation."""
    pivot = _constant_pivot(vf)
    if pivot is None:
        raise ValueError(
            "operator has no constant nonzero xi component to solve along")
    return [_solved_along(vf, dep, pivot)
            for dep, args in js.dependents.items() if pivot[0] in args]


def check_conditional(vf: VectorField, sys: EquationSystem, seed: int = 0,
                      tol_abs: float = 1e-9, tol_rel: float = 1e-9) -> Result:
    """As check_classical, but the manifold also carries the operator's
    own invariant-surface conditions and their consequences."""
    extras = invariant_surface_conditions(vf, sys.js)
    return check_classical(vf, sys, seed=seed, extra=extras,
                           tol_abs=tol_abs, tol_rel=tol_rel)


def check_lie_backlund(op: CanonicalOperator, ode: EquationSystem, seed: int = 0,
                       tol_abs: float = 1e-9, tol_rel: float = 1e-9) -> Result:
    """Lie-Backlund invariance of a single solved-form ODE: the classical
    check of the operator's evolutionary field U d/du, restricted to the
    ODE manifold including mixed-variable differential consequences."""
    if len(ode.equations) != 1:
        raise ValueError("check_lie_backlund expects a single equation")
    lhs, _ = ode.equations[0]
    if len(lhs.index) != 1:
        raise ValueError("leading coordinate must be a pure derivative in one variable")
    return check_classical(op.field(), ode, seed=seed, tol_abs=tol_abs,
                           tol_rel=tol_rel)


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
        pivot = _constant_pivot(q)
        if pivot is None:
            raise ValueError(
                f"family operator {q.name or q!r} has no constant nonzero xi to solve along")
        equations.extend(_solved_along(q, dep, pivot) for dep in js.dependents)
    return EquationSystem(js, equations, tuple(constraints), name="constraint system")


def novelty_diagnostic(algebra, family, t: int, js: JetSpace, seed: int = 0,
                       constraints=()) -> NoveltyDiagnostic:
    """Run the classical invariance check of each algebra operator
    against the family's constraint system and report the dimension
    count conclusion."""
    s = len(algebra)
    diag = NoveltyDiagnostic(s=s, t=t)
    if s == 0:
        return diag
    csys = constraint_system(family, js, constraints)
    for i, op in enumerate(algebra):
        rep = check_classical(op, csys, seed=check_seed(seed, 100 + i))
        diag.verdicts.append((op.name or f"operator {i}", rep))
    diag.conclusion = s >= t + 1 and all(rep.passed for _, rep in diag.verdicts)
    return diag
