"""Probabilistic zero testing.

Symbolic normalization is best-effort, so identity checking falls back
to seeded random evaluation: if the normalized expression is not the
literal 0, sample points inside the declared domain constraints and
compare against a mixed absolute/relative tolerance.  Opaque function
symbols are instantiated per sample point as random polynomials with an
exact derivative chain, so identities that hold for arbitrary smooth F
survive while structural mutants are caught.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from .expr import (
    DomainFault, Expr, Jet, Num, Param, ParameterBinding, OpaqueInstance,
    atoms, eval_with_scale, opaque_names,
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


PASS = "pass"
FAIL = "fail"


def within_tol(value: float, tol_abs: float, tol_rel: float,
               scale: float = 0.0) -> bool:
    """The one pass rule of every check: |value| <= tol_abs + tol_rel*scale."""
    return abs(value) <= tol_abs + tol_rel * scale


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
    tol_abs: float = 1e-9
    tol_rel: float = 1e-9
    label: str = ""
    parts: tuple = ()
    detail: str = ""

    @property
    def is_zero(self) -> bool:
        return self.verdict == ZERO_VERDICT

    @property
    def passed(self) -> bool:
        return self.verdict == PASS


def combine(labelled, seed: int, tol_abs: float, tol_rel: float) -> Result:
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
                  seed=seed, tol_abs=tol_abs, tol_rel=tol_rel, parts=parts)


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
    symbol's ``box`` entry (keyed by name, looked up once per call) or
    ``default_box``.  A draw is rejected when a constraint fails or
    raises DomainFault; an UnboundSymbol propagates.  Returns (point,
    draws_used)."""
    if box:
        ranges = [(s, *box.get(_sym_name(s), default_box)) for s in symbols]
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
            box=None) -> Result:
    """Decide whether ``e`` vanishes identically on the constrained domain.

    ``e`` must be normalized, as every tree built by the constructors
    (``add``, ``mul``, ``pow_``, ...) or the parser is; pass a hand-built
    tree through ``simplify`` first."""
    binding = binding or ParameterBinding()
    tested = 0

    def result(verdict, provenance="probabilistic", **kw) -> Result:
        return Result(verdict, provenance, points_tested=tested, seed=seed,
                      tol_abs=tol_abs, tol_rel=tol_rel, **kw)

    if isinstance(e, Num):
        if e.value == 0:
            return result(ZERO_VERDICT, "symbolic")
        return result(NONZERO, "symbolic", witness={},
                      witness_value=float(e.value))

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
    while tested < n:
        if draws_left <= 0:
            return result(INCONCLUSIVE)
        b = binding
        if unbound_fns:
            b = binding.extended(functions={f: _random_opaque(rng) for f in unbound_fns})
        point, used = sample_point(symbols, constraints, rng, b, box, draws_left)
        draws_left -= used
        if point is None:
            return result(INCONCLUSIVE)
        try:
            val, scale = eval_with_scale(e, point, b)
        except DomainFault:
            draws_left -= 1
            continue
        tested += 1
        if not within_tol(val, tol_abs, tol_rel, scale):
            return result(NONZERO,
                          witness={_sym_name(k): v for k, v in point.items()},
                          witness_value=val)
    return result(ZERO_VERDICT)
