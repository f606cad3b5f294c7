"""Probabilistic zero testing.

Symbolic normalization is best-effort, so identity checking falls back
to seeded random evaluation: if the normalized expression is not the
literal 0, sample points inside the declared domain constraints and
compare against one tolerance, absolute and relative.  Opaque function
symbols are instantiated per sample point as random polynomials with an
exact derivative chain, so identities that hold for arbitrary smooth F
survive while structural mutants are caught.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from .expr import (
    DomainFault, Expr, Num, Param, ParameterBinding, OpaqueInstance,
    atoms, eval_numeric, eval_with_scale, opaque_names,
)
from .parser import print_expression

ZERO_VERDICT = "zero"
NONZERO = "nonzero"
INCONCLUSIVE = "inconclusive"

# a zero test's points, and its seeded draws, rejected ones included
SAMPLES = 64
RETRY_BUDGET = 1024
# the tolerance of every zero test and check that is given none
TOL = 1e-9

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
        v = eval_numeric(self.expr, point, binding)
        if self.rel == "!=" and abs(v) < 1e-6:
            return False  # keep samples away from near-singular sets
        return _REL_OPS[self.rel](v)


PASS = "pass"
FAIL = "fail"


def within_tol(value: float, tol: float, scale: float = 0.0) -> bool:
    """The one pass rule of every check: |value| <= tol + tol*scale."""
    return abs(value) <= tol + tol * scale


@dataclass
class Result:
    """The verdict of one zero-test, check or solution, and what it rests
    on; every verdict function of symred returns one.

    A zero-test says zero/nonzero/inconclusive; a check says
    pass/fail/inconclusive over its labelled ``parts`` (see ``combine``);
    a runtime fault reported as a row says ``error``.  ``witness_value``
    is the residual at ``witness``, the part residual of largest
    magnitude for a check, or the largest |residual| over a solution's
    points.  The point counts belong to a zero-test or a solution (a
    check's are in its parts).  ``seed`` and the tolerances are the ones
    the verdict was computed with."""

    verdict: str
    # symbolic/probabilistic; numeric (explicit solution), implicit-exact
    # (implicit solution), finite-difference (solution under --fd)
    provenance: str = "symbolic"
    witness: dict | None = None
    witness_value: float = 0.0
    points_tested: int = 0
    points_skipped: int = 0
    seed: int = 0
    tol_abs: float = TOL
    tol_rel: float = TOL
    label: str = ""
    parts: tuple = ()
    detail: str = ""

    @property
    def is_zero(self) -> bool:
        return self.verdict == ZERO_VERDICT

    @property
    def passed(self) -> bool:
        return self.verdict == PASS


def combine(labelled, seed: int, tol: float) -> Result:
    """One check's result from its (label, zero-test result) pairs: fail
    if any part is nonzero (the first one gives the witness), else
    inconclusive if any part is, else pass."""
    parts = tuple(replace(r, label=label) for label, r in labelled)
    failing = [r for r in parts if r.verdict == NONZERO]
    if failing:
        verdict = FAIL
    elif any(r.verdict == INCONCLUSIVE for r in parts):
        verdict = INCONCLUSIVE
    else:
        verdict = PASS
    probabilistic = any(r.provenance == "probabilistic" for r in parts)
    return Result(verdict, "probabilistic" if probabilistic else "symbolic",
                  witness=failing[0].witness if failing else None,
                  witness_value=max((r.witness_value for r in parts), key=abs,
                                    default=0.0),
                  seed=seed, tol_abs=tol, tol_rel=tol, parts=parts)


def kept_build(builds: dict, key: tuple, make):
    """``make()`` for the objects of ``key``, made on the first call and
    kept in ``builds``, an entry's ``{ids of key: (key, build)}``.  The
    entry holds the objects, so their identities are not reused while
    the build is kept.  A ``make`` that raises keeps nothing, and a
    ``dataclasses.replace`` copy of the entry starts with no builds."""
    ident = tuple(map(id, key))
    hit = builds.get(ident)
    if hit is None:
        hit = builds[ident] = (key, make())
    return hit[1]


def check_seed(seed: int, i: int) -> int:
    """Seed of the i-th residual of a check: each residual owns its own
    stream, so results do not depend on the order of the residuals."""
    return (seed * 1000003 + i) & 0x7FFFFFFF


def sample_point(symbols, constraints, rng: random.Random,
                 binding: ParameterBinding, box=None,
                 retry_budget: int = RETRY_BUDGET,
                 default_box=(-2.0, 2.0)):
    """One in-domain random point, or None when the budget runs out.

    Each draw takes one ``rng.uniform`` per symbol, in order, from the
    symbol's ``box`` entry (keyed by its printed name, looked up once per
    call) or ``default_box``.  A draw is rejected when a constraint fails
    or raises DomainFault; an UnboundSymbol propagates.  Returns (point,
    draws_used)."""
    if box:
        ranges = [(s, *box.get(print_expression(s), default_box)) for s in symbols]
    else:
        ranges = [(s, *default_box) for s in symbols]
    uniform = rng.uniform
    for attempt in range(1, retry_budget + 1):
        point = {s: uniform(lo, hi) for s, lo, hi in ranges}
        try:
            if all(c.holds(point, binding) for c in constraints):
                return point, attempt
        except DomainFault:
            continue
    return None, retry_budget


def free_numeric_symbols(e: Expr, binding: ParameterBinding):
    """Atoms that still need a sampled value under the given binding."""
    out = []
    for a in sorted(atoms(e), key=print_expression):
        if isinstance(a, Param) and a.name in binding.params:
            continue
        out.append(a)
    return out


def draws(symbols, constraints, rng: random.Random,
          binding: ParameterBinding, box=None, budget: int | None = None,
          default_box=(-2.0, 2.0), opaque=()):
    """The one seeded point source: (point, binding) pairs drawn by
    ``sample_point`` within ``budget`` draws (default RETRY_BUDGET), each
    binding giving the names in ``opaque`` fresh random polynomial
    stand-ins, drawn before the point."""
    budget = RETRY_BUDGET if budget is None else budget
    while budget > 0:
        b = binding
        if opaque:
            b = binding.extended(functions={f: OpaqueInstance.from_polynomial(
                [rng.uniform(-1.5, 1.5) for _ in range(5)]) for f in opaque})
        point, used = sample_point(symbols, constraints, rng, b, box, budget,
                                   default_box)
        budget -= used
        if point is None:
            return
        yield point, b


def zero_test(e: Expr, points, n: int, seed: int, tol: float) -> Result:
    """The one zero-test loop over (point, binding) pairs, pulled only
    while fewer than ``n`` points are tested; a point where ``e`` raises
    DomainFault is skipped.  Nonzero at the first point out of tolerance,
    zero once ``max(n, 1)`` points pass, else inconclusive."""
    tested = 0
    points = iter(points)
    while tested < n:
        point, binding = next(points, (None, None))
        if point is None:
            break
        try:
            val, scale = eval_with_scale(e, point, binding)
        except DomainFault:
            continue
        tested += 1
        if not within_tol(val, tol, scale):
            return Result(NONZERO, "probabilistic",
                          witness={print_expression(k): v for k, v in point.items()},
                          witness_value=val, points_tested=tested, seed=seed,
                          tol_abs=tol, tol_rel=tol)
    verdict = ZERO_VERDICT if tested >= max(n, 1) else INCONCLUSIVE
    return Result(verdict, "probabilistic", points_tested=tested, seed=seed,
                  tol_abs=tol, tol_rel=tol)


def is_zero(e: Expr, constraints=(), seed: int = 0, tol: float = TOL,
            binding: ParameterBinding | None = None, box=None) -> Result:
    """Decide whether ``e`` vanishes identically on the constrained domain:
    zero once SAMPLES in-domain points pass, inconclusive when
    RETRY_BUDGET draws do not find them.

    ``e`` must be normalized, as every tree built by the constructors
    (``add``, ``mul``, ``pow_``, ...) or the parser is; pass a hand-built
    tree through ``simplify`` first."""
    binding = binding or ParameterBinding()
    if isinstance(e, Num):
        if e.value == 0:
            return Result(ZERO_VERDICT, seed=seed, tol_abs=tol, tol_rel=tol)
        return Result(NONZERO, witness={}, witness_value=float(e.value),
                      seed=seed, tol_abs=tol, tol_rel=tol)

    exprs = [e] + [c.expr for c in constraints]
    unbound_fns = sorted(set().union(*map(opaque_names, exprs))
                         - set(binding.functions))
    symbols = sorted(dict.fromkeys(
        a for x in exprs for a in free_numeric_symbols(x, binding)),
        key=print_expression)
    points = draws(symbols, constraints, random.Random(seed), binding, box,
                   opaque=unbound_fns)
    return zero_test(e, points, SAMPLES, seed, tol)


def check_parts(labelled, constraints, seed: int, tol: float) -> Result:
    """One check's result from its (label, residual) parts: part i is
    zero-tested on its own stream ``check_seed(seed, i)`` and the results
    are combined.  ``labelled`` may be a generator; part i+1 is then
    built only after part i has been tested."""
    return combine(((label, is_zero(r, constraints, seed=check_seed(seed, i),
                                    tol=tol))
                    for i, (label, r) in enumerate(labelled)),
                   seed, tol)
