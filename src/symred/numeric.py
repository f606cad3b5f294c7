"""Floating-point validation of exact solutions: adaptive quadrature,
one damped Newton solver (with a bisection safeguard for one unknown)
for implicit relations and small systems, and PDE residuals via exact
symbolic derivatives (of an implicit chain, by the implicit function
theorem) or finite differences."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import product

from .expr import (
    DomainFault, Expr, ExprError, Jet, OpaqueInstance, ParameterBinding,
    Var, add, atoms, diff_partial, eval_numeric, mul,
)
from .systems import EquationSystem, restrict_to_manifold
from .zerotest import (
    FAIL, INCONCLUSIVE, PASS, Constraint, Result, sample_point, within_tol,
)

# pass thresholds on the largest |residual| when a solution names none
DEFAULT_EXPLICIT_TOL = 1e-9
DEFAULT_IMPLICIT_TOL = 1e-4


class NoConvergence(ExprError):
    def __init__(self, message: str, last=None, residual: float = math.nan):
        super().__init__(message)
        self.last = last
        self.residual = residual


class ToleranceNotMet(ExprError):
    pass


# ---------------------------------------------------------------------------
# adaptive Gauss-Kronrod quadrature (7-15 pair)

_GK_NODES = (
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
)
_GK_WEIGHTS_K = (
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
)
_GK_WEIGHTS_G = (
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
)


def _gk15(f, a: float, b: float):
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fc = f(c)
    kron = _GK_WEIGHTS_K[7] * fc
    gauss = _GK_WEIGHTS_G[3] * fc
    for i in range(7):
        x = h * _GK_NODES[i]
        f1, f2 = f(c - x), f(c + x)
        kron += _GK_WEIGHTS_K[i] * (f1 + f2)
        if i % 2 == 1:
            gauss += _GK_WEIGHTS_G[i // 2] * (f1 + f2)
    kron *= h
    gauss *= h
    err = (200.0 * abs(kron - gauss)) ** 1.5 if kron != gauss else 0.0
    return kron, min(err, abs(kron - gauss) * 200.0 or err)


def quadrature(integrand, var=None, a: float = 0.0, b: float = 1.0,
               binding: ParameterBinding | None = None,
               tol_abs: float = 1e-10, max_intervals: int = 2 ** 14):
    """Adaptive Gauss-Kronrod integration of an Expr (in ``var``) or a
    plain callable over [a, b].  Returns (value, error estimate)."""
    if callable(integrand) and not isinstance(integrand, Expr):
        f = integrand
    else:
        v = Var(var) if isinstance(var, str) else var

        def f(x, _e=integrand, _v=v, _b=binding):
            return eval_numeric(_e, {_v: x}, _b)

    if a == b:
        return 0.0, 0.0
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
    stack = [(a, b)]
    total, total_err = 0.0, 0.0
    used = 0
    while stack:
        lo, hi = stack.pop()
        val, err = _gk15(f, lo, hi)
        if err <= tol_abs * (hi - lo) / (b - a) or used >= max_intervals:
            total += val
            total_err += err
            used += 1
        else:
            mid = 0.5 * (lo + hi)
            stack.extend([(lo, mid), (mid, hi)])
            used += 1
    if total_err > tol_abs * 10:
        raise ToleranceNotMet(f"quadrature error estimate {total_err:g}")
    return sign * total, total_err


def quadrature_instance(integrand_fn, lower: float = 0.0,
                        tol_abs: float = 1e-12) -> OpaqueInstance:
    """Opaque-function instance x -> integral of ``integrand_fn`` from
    ``lower`` to x, with the integrand as its exact derivative.  Values
    are cached per upper limit (stencil evaluation re-queries nearby
    points)."""
    cache: dict = {}

    def value(x: float) -> float:
        if x not in cache:
            cache[x], _ = quadrature(integrand_fn, a=lower, b=x, tol_abs=tol_abs)
        return cache[x]

    return OpaqueInstance(value, integrand_fn)


# ---------------------------------------------------------------------------
# implicit solves: one damped Newton iteration for scalar and small systems

# a solve succeeds once the largest |residual| is below NEWTON_TOL
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 100


def _gauss_solve(a, b):
    """x with ``a x = b`` by Gaussian elimination with partial pivoting
    (overwriting the row lists ``a`` and ``b``), or None when a pivot is
    zero or not finite."""
    k = len(b)
    for i in range(k):
        piv = max(range(i, k), key=lambda r: abs(a[r][i]))
        if a[piv][i] == 0 or not math.isfinite(a[piv][i]):
            return None
        a[i], a[piv], b[i], b[piv] = a[piv], a[i], b[piv], b[i]
        for r in range(i + 1, k):
            m = a[r][i] / a[i][i]
            for c in range(i + 1, k):
                a[r][c] -= m * a[i][c]
            b[r] -= m * b[i]
    x = [0.0] * k
    for i in reversed(range(k)):
        s = b[i]
        for c in range(i + 1, k):
            s -= a[i][c] * x[c]
        x[i] = s / a[i][i]
    return x


def newton_system(residuals, unknowns, point, binding: ParameterBinding | None = None,
                  guesses=None, bracket=None):
    """Solve ``residuals == 0`` for ``unknowns`` (parallel lists) from
    ``guesses`` (default 0.1 each); returns the list of values.

    Damped Newton: a central-difference Jacobian (step 1e-7*(1+|v|)),
    the step from :func:`_gauss_solve`, halved up to 40 times until the
    largest |residual| drops.  With one unknown, a sign change of the
    residual is kept as a bracket: ``bracket`` (lo, hi) seeds it once
    both ends are checked (a guess out of domain then restarts from its
    midpoint), and a Newton step that changes sign replaces it.  When
    Newton stalls (out of domain, singular Jacobian, no descent), 200
    bisection steps on the bracket take over.  Raises NoConvergence;
    a DomainFault at a bisection point propagates."""
    binding = binding or ParameterBinding()
    k = len(unknowns)
    p = dict(point)

    def g(vs):
        p.update(zip(unknowns, vs))
        return [eval_numeric(r, p, binding) for r in residuals]

    lo_hi = None  # (a, residual at a, b) with a sign change on [a, b]
    if bracket is not None:
        a, b = bracket
        try:
            fa, fb = g([a])[0], g([b])[0]
            if fa == 0.0:
                return [a]
            if fb == 0.0:
                return [b]
            if fa * fb < 0:
                lo_hi = (a, fa, b)
        except DomainFault:
            pass

    vals = list(guesses) if guesses is not None else [0.1] * k
    try:
        gv = g(vals)
    except DomainFault:
        if lo_hi is None:
            raise NoConvergence("initial guess out of domain", vals)
        vals = [0.5 * (lo_hi[0] + lo_hi[2])]
        gv = g(vals)

    for it in range(NEWTON_MAX_ITER + 1):
        nrm = max(map(abs, gv))
        if nrm < NEWTON_TOL:
            return vals
        if it == NEWTON_MAX_ITER:
            raise NoConvergence("iteration limit reached", vals, nrm)
        jac = [[0.0] * k for _ in range(k)]
        try:
            for j in range(k):
                h = 1e-7 * (1.0 + abs(vals[j]))
                up, dn = list(vals), list(vals)
                up[j] += h
                dn[j] -= h
                for i, (u, d) in enumerate(zip(g(up), g(dn))):
                    jac[i][j] = (u - d) / (2 * h)
            step = _gauss_solve(jac, list(gv))
        except DomainFault:
            step = None
        for _ in range(0 if step is None else 40):
            trial = [v - s for v, s in zip(vals, step)]
            try:
                gt = g(trial)
            except DomainFault:
                gt = [math.inf]
            nt = max(map(abs, gt))
            if nt < nrm or nt < NEWTON_TOL:
                if k == 1 and (gv[0] > 0) != (gt[0] > 0):
                    lo_hi = (vals[0], gv[0], trial[0])
                vals, gv = trial, gt
                break
            step = [s * 0.5 for s in step]
        else:
            if lo_hi is None:
                raise NoConvergence("Newton stalled without a bracket", vals, nrm)
            a, fa, b = lo_hi
            for _ in range(200):
                m = 0.5 * (a + b)
                fm = g([m])[0]
                if abs(fm) < NEWTON_TOL:
                    return [m]
                if (fa > 0) != (fm > 0):
                    b = m
                else:
                    a, fa = m, fm
            raise NoConvergence("bisection did not converge", [0.5 * (a + b)], fm)


def solve_implicit(res: Expr, unknown, point, binding: ParameterBinding | None = None,
                   guess: float = 0.0, bracket=None) -> float:
    """The root of the scalar relation ``res == 0`` in ``unknown``: a
    one-unknown :func:`newton_system` solve."""
    return newton_system([res], [unknown], point, binding, [guess], bracket)[0]


# ---------------------------------------------------------------------------
# solution forms and their residuals

@dataclass(frozen=True)
class SolutionForm:
    """Closed-form solution to be validated numerically.

    kind "explicit": ``explicit`` maps dependent-variable name to an
    expression in the base variables (possibly through quadrature-backed
    opaque symbols supplied by the binding).
    kind "implicit": ``relations`` is an ordered list of
    (unknown symbol, residual Expr) solved sequentially at each point;
    the last unknown is the dependent value itself.
    """

    kind: str  # "explicit" | "implicit"
    explicit: tuple = ()  # ((dep name, Expr), ...)
    relations: tuple = ()  # ((symbol Expr, residual Expr, guess, bracket), ...)
    dep: str = ""
    constraints: tuple = ()
    name: str = ""


@dataclass
class SamplePlan:
    box: dict = field(default_factory=dict)  # var name -> (lo, hi)
    n: int = 64
    seed: int = 0
    retry_budget: int = 1024
    h: float = 1e-4
    grid: tuple = ()  # optional (nx, ny, ...) regular grid instead of random


def _solution_result(worst: float, skipped: int, total: int, seed: int,
                     tol: float, provenance: str) -> Result:
    """Inconclusive when nothing was tested or more than a fifth of the
    points were skipped; else pass iff the largest |residual| is within
    ``tol``."""
    if total == 0 or skipped > 0.2 * total:
        verdict = INCONCLUSIVE
    else:
        verdict = PASS if within_tol(worst, tol, 0.0) else FAIL
    return Result(verdict, provenance, witness_value=worst,
                  points_tested=total - skipped, points_skipped=skipped,
                  seed=seed, tol_abs=tol, tol_rel=0.0,
                  detail=f"skipped {skipped}/{total} sample points")


def _plan_points(plan: SamplePlan, vars_, constraints=(), binding=None):
    """Deterministic sample points: a regular grid when requested, else
    seeded uniform draws filtered by the constraints."""
    binding = binding or ParameterBinding()
    if plan.grid:
        axes = []
        for v, cnt in zip(vars_, plan.grid):
            lo, hi = plan.box[v.name]
            axes.append([lo + (hi - lo) * (i + 0.5) / cnt for i in range(cnt)])
        pts = [{}]
        for v, axis in zip(vars_, axes):
            nxt = []
            for p in pts:
                for x in axis:
                    q = dict(p)
                    q[v] = x
                    nxt.append(q)
            pts = nxt
        return pts
    rng = random.Random(plan.seed)
    pts = []
    budget = plan.retry_budget
    while len(pts) < plan.n:
        p, used = sample_point(vars_, constraints, rng, binding, plan.box, budget)
        budget -= used
        if p is None:
            break
        pts.append(p)
    return pts


def residual_explicit(sol: SolutionForm, eq: EquationSystem, plan: SamplePlan,
                      binding: ParameterBinding | None = None,
                      tol: float | None = None) -> Result:
    """Substitute exact symbolic derivatives of an explicit solution into
    each equation and evaluate at the plan's points; pass iff the largest
    |residual| is at most ``tol`` (None: DEFAULT_EXPLICIT_TOL)."""
    if sol.kind != "explicit":
        raise ValueError("residual_explicit needs an explicit solution form")
    binding = binding or ParameterBinding()
    rules = [(Jet(dep), expr) for dep, expr in sol.explicit]
    sub_sys = EquationSystem(eq.js, rules, name="solution")
    residuals = [restrict_to_manifold(lhs - rhs, sub_sys) for lhs, rhs in eq.equations]

    vars_ = [Var(x) for x in eq.js.independent]
    # domain constraints are meant on the solution manifold: rewrite any
    # jet coordinates they mention through the solution first
    constraints = tuple(
        Constraint(restrict_to_manifold(c.expr, sub_sys), c.rel)
        for c in tuple(eq.constraints) + tuple(sol.constraints))
    pts = _plan_points(plan, vars_, constraints, binding)
    skipped = 0
    worst = 0.0
    for p in pts:
        try:
            vals = [eval_numeric(r, p, binding) for r in residuals]
        except DomainFault:
            skipped += 1
            continue
        m = max(abs(v) for v in vals)
        worst = max(worst, m)
    return _solution_result(
        worst, skipped, len(pts), plan.seed,
        DEFAULT_EXPLICIT_TOL if tol is None else tol, "numeric")


def _solve_chain(sol: SolutionForm, point, binding) -> dict:
    """The base point with every relation's unknown solved, in order."""
    p = dict(point)
    for unknown, res, guess, bracket in sol.relations:
        p[unknown] = solve_implicit(res, unknown, p, binding, guess, bracket)
    return p


def _solve_solution_at(sol: SolutionForm, point, binding) -> float:
    """Value of the solution's dependent variable at a base point."""
    if sol.kind == "explicit":
        expr = dict(sol.explicit)[sol.dep]
        return eval_numeric(expr, point, binding)
    return _solve_chain(sol, point, binding)[sol.relations[-1][0]]


def _fd_stencil_1d(order: int, h: float):
    """Offsets/weights of the central difference for one variable."""
    if order == 0:
        return ((0, 1.0),)
    if order == 1:
        return ((-1, -0.5 / h), (1, 0.5 / h))
    if order == 2:
        c = 1.0 / (12.0 * h * h)
        return ((-2, -c), (-1, 16 * c), (0, -30 * c), (1, 16 * c), (2, -c))
    raise ValueError("finite differences implemented up to second order")


def residual_fd(sol: SolutionForm, eq: EquationSystem, plan: SamplePlan,
                binding: ParameterBinding | None = None,
                tol: float | None = None) -> Result:
    """Evaluate the equation residual with derivatives formed by central
    finite differences on values of the (implicitly defined) solution;
    pass iff the largest |residual| is at most ``tol`` (None:
    DEFAULT_IMPLICIT_TOL).  It shares no derivative code with
    :func:`residual_implicit`, and is kept as its independent oracle."""
    binding = binding or ParameterBinding()
    if len(eq.equations) != 1:
        raise ValueError("residual_implicit checks a single equation")
    lhs, rhs = eq.equations[0]
    dep = lhs.dep
    residual = lhs - rhs
    jets = sorted((a for a in atoms(residual, Jet) if a.dep == dep),
                  key=lambda j: (j.order, j.index))
    if any(j.order > 2 for j in jets):
        raise ValueError("residual_implicit supports equations of order <= 2")

    base_vars = [Var(x) for x in eq.js.independent]
    # constraints mentioning jet coordinates cannot guide point sampling
    # here (derivative values only exist after the solve); rely on
    # DomainFault skips for those
    samplable = tuple(c for c in tuple(eq.constraints) + tuple(sol.constraints)
                      if not atoms(c.expr, Jet))
    pts = _plan_points(plan, base_vars, samplable, binding)
    h = plan.h
    skipped = 0
    worst = 0.0
    for p in pts:
        cache: dict = {}

        def value_at(offsets) -> float:
            if offsets not in cache:
                q = {v: p[v] + off * h for v, off in zip(base_vars, offsets)}
                q.update({v: p[v] for v in base_vars if v not in q})
                cache[offsets] = _solve_solution_at(sol, q, binding)
            return cache[offsets]

        try:
            env = dict(p)
            for j in jets:
                idx = dict(j.index)
                stencils = [_fd_stencil_1d(idx.get(v.name, 0), h) for v in base_vars]
                total = 0.0
                combos = [((), 1.0)]
                for st in stencils:
                    combos = [(offs + (o,), wgt * w) for offs, wgt in combos
                              for o, w in st]
                for offs, wgt in combos:
                    total += wgt * value_at(offs)
                env[j] = total
            val = eval_numeric(residual, env, binding)
        except (NoConvergence, DomainFault):
            skipped += 1
            continue
        worst = max(worst, abs(val))
    return _solution_result(
        worst, skipped, len(pts), plan.seed,
        DEFAULT_IMPLICIT_TOL if tol is None else tol, "finite-difference")


def _sub_indices(index: tuple) -> set:
    """Every multi-index at or below ``index`` (a Jet index), () included."""
    names = [v for v, _ in index]
    return {tuple((v, c) for v, c in zip(names, counts) if c)
            for counts in product(*(range(c + 1) for _, c in index))}


def _chain_derivative(e: Expr, v: str, families: dict, memos: dict) -> Expr:
    """D_v e along an implicit chain: the partial in ``v`` plus, for each
    unknown or unknown derivative S in ``e``, dE/dS times S lifted by
    ``v``.  ``families`` maps each unknown to its family name."""
    names = set(families.values())
    parts = [diff_partial(e, Var(v), memos)]
    for a in atoms(e):
        fam = families.get(a)
        if fam is not None:
            lifted = Jet(fam, ((v, 1),))
        elif isinstance(a, Jet) and a.dep in names:
            lifted = a.lift(v)
        else:
            continue
        parts.append(mul(diff_partial(e, a, memos), lifted))
    return add(*parts)


def _chain_jets(relations, indices):
    """The implicit-function derivatives of a relation chain, built once.

    For relation ``R_i(x, s_1..s_i)`` and each multi-index a in
    ``indices`` (closed under taking sub-indices), ``E_ia = D^a R_i`` is
    affine in ``S_ia``, the a-derivative of ``s_i``, with coefficient
    ``dR_i/ds_i``, so ``S_ia = -E_ia|_{S_ia=0} / (dR_i/ds_i)`` (Krantz &
    Parks, The Implicit Function Theorem, 2002).  Returns the
    denominators ``[dR_i/ds_i]`` and the steps ``(S_ia, E_ia, i)`` for
    every nonempty a, in an order they can be evaluated in: by |a|, and
    by i within each a."""
    memos: dict = {}
    # the dependent name of each unknown's derivative symbols: a declared
    # dependent keeps its own jets; an auxiliary unknown (a Param) gets a
    # name the .prob parser cannot produce
    families = {u: u.dep if isinstance(u, Jet) else u.name + "#"
                for u, *_ in relations}
    dens = [diff_partial(res, unknown, memos) for unknown, res, *_ in relations]
    built = {((), i): rel[1] for i, rel in enumerate(relations)}
    steps = []
    for a in sorted(indices, key=lambda a: (sum(c for _, c in a), a))[1:]:
        # a is the first variable's derivative of its parent index
        (v, c), rest = a[0], a[1:]
        lower = ((v, c - 1),) + rest if c > 1 else rest
        for i, (unknown, *_) in enumerate(relations):
            e = built[a, i] = _chain_derivative(built[lower, i], v, families,
                                                memos)
            steps.append((Jet(families[unknown], a), e, i))
    return dens, steps


def residual_implicit(sol: SolutionForm, eq: EquationSystem, plan: SamplePlan,
                      binding: ParameterBinding | None = None,
                      tol: float | None = None) -> Result:
    """Evaluate the equation residual on exact derivatives of the
    implicitly defined solution: one chain solve per point gives the
    unknowns, and the implicit function theorem (:func:`_chain_jets`)
    gives every derivative the equation needs, of any order.  A point
    where a relation is singular in its unknown is skipped.  Pass iff
    the largest |residual| is at most ``tol`` (None:
    DEFAULT_IMPLICIT_TOL)."""
    if sol.kind != "implicit":
        raise ValueError("residual_implicit needs an implicit solution form")
    binding = binding or ParameterBinding()
    if len(eq.equations) != 1:
        raise ValueError("residual_implicit checks a single equation")
    lhs, rhs = eq.equations[0]
    residual = lhs - rhs
    indices = {()}
    for j in atoms(residual, Jet):
        if j.dep == lhs.dep:
            indices |= _sub_indices(j.index)
    dens, steps = _chain_jets(sol.relations, indices)

    base_vars = [Var(x) for x in eq.js.independent]
    # as in residual_fd: constraints on jet coordinates cannot guide
    # point sampling, and rely on DomainFault skips
    samplable = tuple(c for c in tuple(eq.constraints) + tuple(sol.constraints)
                      if not atoms(c.expr, Jet))
    pts = _plan_points(plan, base_vars, samplable, binding)
    skipped = 0
    worst = 0.0
    for p in pts:
        try:
            env = _solve_chain(sol, p, binding)
            den = [eval_numeric(d, env, binding) for d in dens]
            if 0.0 in den:
                raise DomainFault("relation is singular in its unknown")
            for sym, e, i in steps:
                env[sym] = 0.0
                env[sym] = -eval_numeric(e, env, binding) / den[i]
            val = eval_numeric(residual, env, binding)
        except (NoConvergence, DomainFault):
            skipped += 1
            continue
        worst = max(worst, abs(val))
    return _solution_result(
        worst, skipped, len(pts), plan.seed,
        DEFAULT_IMPLICIT_TOL if tol is None else tol, "implicit-exact")
