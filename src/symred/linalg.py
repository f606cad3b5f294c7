"""Tiny symbolic linear solver for the implicit-ansatz and
overdetermined-compatibility machinery.

Systems here are a handful of equations linear in a handful of unknown
symbols; coefficients are arbitrary expressions.  Elimination divides
by pivots, which therefore become mandatory nonvanishing domain
constraints downstream.
"""

from __future__ import annotations

from .expr import (
    Expr, ExprError, Num, ZERO, add, diff_partial, mul, pow_, substitute,
)


class SingularImplicitSystem(ExprError):
    pass


def _row(eq: Expr, unknowns):
    coeffs = [diff_partial(eq, u) for u in unknowns]
    const = substitute(eq, {u: ZERO for u in unknowns})
    # linearity check: coefficients may not contain the unknowns
    for c in coeffs:
        if substitute(c, {u: ZERO for u in unknowns}) != c:
            raise ValueError("system is not linear in the unknowns")
    return coeffs, const


def gaussian_eliminate(eqs, unknowns):
    """Solve ``eqs == 0`` for ``unknowns`` (linear).

    Returns (solution dict, leftover residual expressions, pivot list).
    Leftovers are the constants of rows that eliminated to zero
    coefficients: the system's compatibility conditions.  A structurally
    zero pivot column with no usable row leaves that unknown unsolved
    and raises SingularImplicitSystem.
    """
    rows = [_row(e, unknowns) for e in eqs]
    n = len(unknowns)
    pivots = []
    pivot_rows = [None] * n
    free = list(range(len(rows)))
    for col in range(n):
        pick = None
        for ri in free:
            if rows[ri][0][col] != ZERO:
                pick = ri
                break
        if pick is None:
            continue
        free.remove(pick)
        pivot_rows[col] = pick
        pc = rows[pick][0][col]
        pivots.append(pc)
        inv = pow_(pc, Num(-1))
        for ri in list(free):
            c = rows[ri][0][col]
            if c == ZERO:
                continue
            factor = mul(Num(-1), c, inv)
            rows[ri] = (
                [add(rc, mul(factor, pr)) for rc, pr in zip(rows[ri][0], rows[pick][0])],
                add(rows[ri][1], mul(factor, rows[pick][1])),
            )
    unsolved = [unknowns[c] for c in range(n) if pivot_rows[c] is None]
    if unsolved:
        raise SingularImplicitSystem(f"cannot solve for {unsolved!r}")
    # back substitution
    solution: dict = {}
    for col in reversed(range(n)):
        ri = pivot_rows[col]
        coeffs, const = rows[ri]
        rhs = mul(Num(-1), const)
        for c2 in range(col + 1, n):
            if coeffs[c2] != ZERO:
                rhs = add(rhs, mul(Num(-1), coeffs[c2], solution[unknowns[c2]]))
        solution[unknowns[col]] = mul(rhs, pow_(coeffs[col], Num(-1)))
    leftovers = []
    for ri in free:
        coeffs, const = rows[ri]
        # substitute the solution back through any remaining coefficients
        r = const
        for c2 in range(n):
            if coeffs[c2] != ZERO:
                r = add(r, mul(coeffs[c2], solution[unknowns[c2]]))
        if r != ZERO:
            leftovers.append(r)
    return solution, leftovers, pivots
