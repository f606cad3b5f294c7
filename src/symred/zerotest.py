"""Probabilistic zero testing.

Symbolic normalization is best-effort, so identity checking falls back
to seeded random evaluation: simplify first, and if the result is not
the literal 0, sample points inside the declared domain constraints and
compare against a mixed absolute/relative tolerance.  Opaque function
symbols are instantiated per sample point as random polynomials with an
exact derivative chain, so identities that hold for arbitrary smooth F
survive while structural mutants are caught.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .expr import (
    DomainFault, Expr, Jet, Num, Param, ParameterBinding, OpaqueInstance,
    atoms, eval_with_scale, opaque_names, simplify,
)

ZERO_VERDICT = "zero"
NONZERO = "nonzero"
INCONCLUSIVE = "inconclusive"

_REL_OPS = {
    "!=": lambda v: v != 0.0,
    ">": lambda v: v > 0.0,
    ">=": lambda v: v >= 0.0,
    "<": lambda v: v < 0.0,
    "<=": lambda v: v <= 0.0,
}


@dataclass(frozen=True)
class Constraint:
    """Domain constraint ``expr REL 0`` with REL in {!=, >, >=, <, <=}."""

    expr: Expr
    rel: str

    def __post_init__(self):
        if self.rel not in _REL_OPS:
            raise ValueError(f"unknown relation {self.rel!r}")

    def holds(self, point, binding) -> bool:
        v, _ = eval_with_scale(self.expr, point, binding)
        if self.rel == "!=" and abs(v) < 1e-6:
            return False  # keep samples away from near-singular sets
        return _REL_OPS[self.rel](v)


@dataclass
class ZeroResult:
    verdict: str
    provenance: str = "symbolic"  # "symbolic" | "probabilistic"
    witness: dict | None = None
    witness_value: float = 0.0
    points_tested: int = 0
    residual: Expr | None = None

    @property
    def is_zero(self) -> bool:
        return self.verdict == ZERO_VERDICT


def _random_opaque(rng: random.Random) -> OpaqueInstance:
    coeffs = [rng.uniform(-1.5, 1.5) for _ in range(5)]
    return OpaqueInstance.from_polynomial(coeffs)


def check_seed(seed: int, i: int) -> int:
    """Seed of the i-th residual of a check: each residual owns its own
    stream, so results do not depend on the order of the residuals."""
    return (seed * 1000003 + i) & 0x7FFFFFFF


def sample_point(symbols, constraints, rng: random.Random,
                 binding: ParameterBinding, box=None, retry_budget: int = 1024,
                 default_box=(-2.0, 2.0)):
    """One in-domain random point, or None when the budget runs out.

    Each draw takes one ``rng.uniform`` per symbol, in order, from the
    symbol's ``box`` entry (keyed by name) or ``default_box``.  A draw is
    rejected when a constraint fails or raises DomainFault; an
    UnboundSymbol propagates.  Returns (point, draws_used)."""
    box = box or {}
    for attempt in range(1, retry_budget + 1):
        point = {}
        for s in symbols:
            lo, hi = box.get(_sym_name(s), default_box)
            point[s] = rng.uniform(lo, hi)
        try:
            if all(c.holds(point, binding) for c in constraints):
                return point, attempt
        except DomainFault:
            continue
    return None, retry_budget


def _sym_name(s) -> str:
    if isinstance(s, Jet):
        if not s.index:
            return s.dep
        return s.dep + "[" + ",".join(v for v, c in s.index for _ in range(c)) + "]"
    return s.name


def free_numeric_symbols(e: Expr, binding: ParameterBinding):
    """Atoms that still need a sampled value under the given binding."""
    out = []
    for a in sorted(atoms(e), key=_sym_name):
        if isinstance(a, Param) and a.name in binding.params:
            continue
        out.append(a)
    return out


def is_zero(e: Expr, constraints=(), seed: int = 0, n: int = 64,
            tol_abs: float = 1e-9, tol_rel: float = 1e-9,
            retry_budget: int = 1024, binding: ParameterBinding | None = None,
            box=None) -> ZeroResult:
    """Decide whether ``e`` vanishes identically on the constrained domain."""
    binding = binding or ParameterBinding()
    e = simplify(e)
    if isinstance(e, Num):
        if e.value == 0:
            return ZeroResult(ZERO_VERDICT, "symbolic", residual=e)
        return ZeroResult(NONZERO, "symbolic", witness={}, witness_value=float(e.value),
                          residual=e)

    rng = random.Random(seed)
    unbound_fns = sorted(set(opaque_names(e)) - set(binding.functions))
    for c in constraints:
        unbound_fns = sorted(set(unbound_fns) | (set(opaque_names(c.expr)) - set(binding.functions)))
    symbols = free_numeric_symbols(e, binding)
    for c in constraints:
        for a in free_numeric_symbols(c.expr, binding):
            if a not in symbols:
                symbols.append(a)
    symbols.sort(key=_sym_name)

    draws_left = retry_budget
    tested = 0
    while tested < n:
        if draws_left <= 0:
            return ZeroResult(INCONCLUSIVE, "probabilistic", points_tested=tested,
                              residual=e)
        b = binding
        if unbound_fns:
            b = binding.extended(functions={f: _random_opaque(rng) for f in unbound_fns})
        point, used = sample_point(symbols, constraints, rng, b, box, draws_left)
        draws_left -= used
        if point is None:
            return ZeroResult(INCONCLUSIVE, "probabilistic", points_tested=tested,
                              residual=e)
        try:
            val, scale = eval_with_scale(e, point, b)
        except DomainFault:
            draws_left -= 1
            continue
        tested += 1
        if abs(val) > tol_abs + tol_rel * scale:
            return ZeroResult(NONZERO, "probabilistic",
                              witness={_sym_name(k): v for k, v in point.items()},
                              witness_value=val, points_tested=tested, residual=e)
    return ZeroResult(ZERO_VERDICT, "probabilistic", points_tested=tested, residual=e)
