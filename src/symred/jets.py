"""Jet spaces, total derivatives, and prolongation of symmetry operators.

A point field is prolonged by the standard recursion; a canonical
(Lie-Backlund) operator by the same recursion, as its evolutionary
field U d/du with xi = 0."""

from __future__ import annotations

from dataclasses import dataclass, field

from .expr import (
    Expr, ExprError, Jet, Num, Var, ZERO, add, atoms, diff_partial, mul,
)


class InsufficientProlongationOrder(ExprError):
    pass


@dataclass(frozen=True)
class JetSpace:
    """Declaration of variables.

    ``independent``: ordered base variables x_j.
    ``dependents``: dependent variable -> the variables it is a function
    of.  Arguments may be base variables or invariant variables; the
    latter get their base-variable derivatives from ``chains``.
    ``chains``: invariant variable -> {base variable: D_x of it}.
    """

    independent: tuple
    dependents: dict
    chains: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "independent", tuple(self.independent))
        object.__setattr__(self, "dependents",
                           {d: tuple(a) for d, a in dict(self.dependents).items()})

    def jet(self, dep: str, *vars_: str) -> Jet:
        if dep not in self.dependents:
            raise KeyError(f"undeclared dependent variable {dep!r}")
        idx: dict = {}
        for v in vars_:
            idx[v] = idx.get(v, 0) + 1
        return Jet(dep, tuple(idx.items()))

    def with_chains(self, chains: dict) -> "JetSpace":
        merged = dict(self.chains)
        merged.update(chains)
        return JetSpace(self.independent, self.dependents, merged)

    def with_dependents(self, extra: dict) -> "JetSpace":
        deps = dict(self.dependents)
        deps.update({d: tuple(a) for d, a in extra.items()})
        return JetSpace(self.independent, deps, dict(self.chains))


def total_derivative(e: Expr, x: str, js: JetSpace,
                     memos: dict | None = None) -> Expr:
    """D_x e on jet space: the explicit x-slot plus the chain through
    every jet coordinate (and through invariant-variable chains).

    Each partial derivative is taken by ``diff_partial``; ``memos``, a
    caller-owned ``{variable: {node: derivative}}``, is passed on to it,
    so that the partials of trees that share subtrees with ``e`` are
    reused.  Without it each partial derivative has its own memo."""
    parts = [diff_partial(e, Var(x), memos)]
    for w, chain in js.chains.items():
        dw = chain.get(x, ZERO)
        if dw != ZERO and Var(w) != Var(x):
            d = diff_partial(e, Var(w), memos)
            if d != ZERO:
                parts.append(mul(d, dw))
    for a in atoms(e, Jet):
        args = js.dependents.get(a.dep)
        if args is None:
            continue
        coeff = diff_partial(e, a, memos)
        if coeff == ZERO:
            continue
        for v in args:
            if v == x:
                parts.append(mul(coeff, a.lift(v)))
            elif v in js.chains:
                dw = js.chains[v].get(x, ZERO)
                if dw != ZERO:
                    parts.append(mul(coeff, a.lift(v), dw))
    return add(*parts)


def total_derivative_multi(e: Expr, index, js: JetSpace) -> Expr:
    """Apply D^J for a multi-index given as (var, count) pairs."""
    for v, c in sorted(index):
        for _ in range(c):
            e = total_derivative(e, v, js)
    return e


@dataclass(frozen=True)
class VectorField:
    """Point symmetry generator with xi components over the independent
    variables and eta components over the dependents.  Missing entries
    are zero."""

    xi: dict
    eta: dict
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "xi", {k: v for k, v in self.xi.items() if v != ZERO})
        object.__setattr__(self, "eta", {k: v for k, v in self.eta.items() if v != ZERO})

    def scaled(self, c) -> "VectorField":
        return VectorField({k: mul(c, v) for k, v in self.xi.items()},
                           {k: mul(c, v) for k, v in self.eta.items()})

    def __add__(self, other: "VectorField") -> "VectorField":
        xi = dict(self.xi)
        for k, v in other.xi.items():
            xi[k] = add(xi.get(k, ZERO), v)
        eta = dict(self.eta)
        for k, v in other.eta.items():
            eta[k] = add(eta.get(k, ZERO), v)
        return VectorField(xi, eta)

    def __sub__(self, other: "VectorField") -> "VectorField":
        return self + other.scaled(Num(-1))


@dataclass(frozen=True)
class CanonicalOperator:
    """Lie-Backlund operator in canonical form: characteristic U per
    dependent variable, no xi part.  Its prolongation is that of the
    evolutionary point field U d/du (:meth:`field`)."""

    characteristics: dict
    name: str = ""

    def __post_init__(self):
        if not any(v != ZERO for v in self.characteristics.values()):
            raise ValueError("canonical operator needs a nonzero characteristic")

    def field(self) -> VectorField:
        """The evolutionary field: xi = 0, eta = the characteristics."""
        return VectorField({}, self.characteristics, name=self.name)

    def max_order(self) -> int:
        return max((a.order for u in self.characteristics.values()
                    for a in atoms(u, Jet)), default=0)


class ProlongedField:
    """Prolongation of a point field; coefficients computed lazily via
    the standard recursion and cached.

    Coefficient J+x is D_x of coefficient J less the xi terms (Olver,
    Applications of Lie Groups to Differential Equations, Thm. 2.36), so
    consecutive coefficients share most of their subtrees.  The field
    owns one derivative memo, ``{variable: {node: derivative}}``, that
    every total derivative it takes passes to ``diff_partial``: a shared
    subtree is differentiated once per variable for the field's
    lifetime.  The memo lives and dies with the field."""

    def __init__(self, vf: VectorField, order: int, js: JetSpace):
        if order < 1:
            raise ValueError("prolongation order must be >= 1")
        self.vf = vf
        self.order = order
        self.js = js
        self._cache: dict = {}
        self._memos: dict = {}

    def coefficient(self, jet: Jet) -> Expr:
        key = (jet.dep, jet.index)
        if key in self._cache:
            return self._cache[key]
        if jet.order == 0:
            val = self.vf.eta.get(jet.dep, ZERO)
        else:
            v = jet.index[0][0]
            base = dict(jet.index)
            base[v] -= 1
            lower = Jet(jet.dep, tuple(base.items()))
            val = total_derivative(self.coefficient(lower), v, self.js,
                                   self._memos)
            for xj, xij in self.vf.xi.items():
                dxi = total_derivative(xij, v, self.js, self._memos)
                if dxi != ZERO:
                    val = add(val, mul(Num(-1), lower.lift(xj), dxi))
        self._cache[key] = val
        return val


def prolong(vf: VectorField, order: int, js: JetSpace) -> ProlongedField:
    return ProlongedField(vf, order, js)


def apply_operator(pf: ProlongedField, e: Expr) -> Expr:
    """Lie derivative of ``e`` along a prolonged point field.  A
    canonical operator U d/du is applied as its evolutionary field,
    ``prolong(op.field(), order, js)``: its coefficients are D_J U
    (Olver, Applications of Lie Groups to Differential Equations,
    Sec. 5.1)."""
    if not isinstance(pf, ProlongedField):
        raise TypeError(type(pf))
    hosted = [a for a in atoms(e, Jet) if a.dep in pf.js.dependents]
    if any(a.order > pf.order for a in hosted):
        raise InsufficientProlongationOrder(
            f"expression has order {max(a.order for a in hosted)}, "
            f"prolongation only goes to {pf.order}")
    parts = []
    for xj, xij in pf.vf.xi.items():
        d = diff_partial(e, Var(xj))
        if d != ZERO:
            parts.append(mul(xij, d))
    for a in sorted(hosted, key=lambda j: (j.dep, j.index)):
        d = diff_partial(e, a)
        if d != ZERO:
            parts.append(mul(pf.coefficient(a), d))
    return add(*parts)
