"""Equation systems in solved form and normal-form rewriting on their
solution manifolds."""

from __future__ import annotations

from dataclasses import dataclass

from .expr import (
    Expr, ExprError, IterationCapExceeded, Jet, atoms, contains, substitute,
)
from .jets import JetSpace, total_derivative_multi


class ConflictingConstraints(ExprError):
    pass


@dataclass(frozen=True)
class EquationSystem:
    """Equations ``leading jet coordinate = right-hand side`` plus the
    domain constraints under which they are meant."""

    js: JetSpace
    equations: tuple  # of (Jet, Expr)
    constraints: tuple = ()
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "equations", tuple(self.equations))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        leads = [lhs for lhs, _ in self.equations]
        if len(set(leads)) != len(leads):
            raise ConflictingConstraints("leading coordinates must be pairwise distinct")
        for lhs, rhs in self.equations:
            if contains(rhs, lhs):
                raise ValueError(f"right side of {lhs!r} contains its own leading coordinate")

    @property
    def order(self) -> int:
        orders = [lhs.order for lhs, _ in self.equations]
        orders += [a.order for _, rhs in self.equations
                   for a in atoms(rhs, Jet)]
        return max(orders, default=0)


def _divides(lead: Jet, jet: Jet) -> bool:
    if lead.dep != jet.dep:
        return False
    have = dict(jet.index)
    return all(have.get(v, 0) >= c for v, c in lead.index)


def _quotient(lead: Jet, jet: Jet):
    have = dict(jet.index)
    for v, c in lead.index:
        have[v] -= c
    return tuple((v, c) for v, c in have.items() if c)


# bounds of manifold rewriting: substitution rounds, and the jet order a
# rewritten coordinate may reach
REWRITE_ROUNDS = 64
ORDER_CAP = 8


def restrict_to_manifold(e: Expr, sys: EquationSystem, extra=()) -> Expr:
    """Exhaustively rewrite leading coordinates and all their
    total-derivative consequences until nothing rewritable remains.

    ``extra`` supplies additional solved-form pairs (invariant-surface
    conditions and the like); they may not clash with the system's own
    leading coordinates.
    """
    rules = {}
    for lhs, rhs in list(sys.equations) + list(extra):
        if lhs in rules and rules[lhs] != rhs:
            raise ConflictingConstraints(f"conflicting rules for {lhs!r}")
        rules[lhs] = rhs

    js = sys.js
    for _ in range(REWRITE_ROUNDS):
        batch = {}
        for a in atoms(e, Jet):
            best = None
            for lead in rules:
                if _divides(lead, a):
                    if best is None or lead.order > best.order or \
                            (lead.order == best.order and (lead.dep, lead.index) <
                             (best.dep, best.index)):
                        best = lead
            if best is None:
                continue
            if a.order > ORDER_CAP:
                raise IterationCapExceeded(
                    f"manifold rewriting exceeded order cap {ORDER_CAP} at {a!r}")
            batch[a] = total_derivative_multi(rules[best], _quotient(best, a), js)
        if not batch:
            return e
        e = substitute(e, batch)
    raise IterationCapExceeded("manifold rewriting did not terminate")
