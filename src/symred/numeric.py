"""Floating-point validation of exact solutions: the solution record
``SolutionSpec`` and its residual checks ``residual_*(spec, eq, seed=0,
tol=None)``, adaptive quadrature, one damped Newton loop
(``newton_system``, for any number of unknowns, with a bisection
safeguard for one) for implicit relations and small systems, and PDE
residuals via exact symbolic derivatives (of an implicit chain, by the
implicit function theorem) or finite differences.

The Newton loop takes an exact Jacobian where the caller has one: the
implicit path solves each relation on its exact dR/ds, and the
overdetermined check of ``reduce`` on its relations' exact Jacobian.
The finite-difference path (``residual_fd``, the CLI's ``--fd``) runs
the same loop on central differences, as the independent oracle.  The
symbolic part of each residual check is built once per spec and system
and kept on the spec (``kept_build``), so later seeds only sample and
evaluate."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import islice, product

from .expr import (
    DomainFault, Expr, ExprError, Jet, OpaqueInstance, Param,
    ParameterBinding, Var, add, atoms, diff_partial, eval_numeric, mul,
)
from .systems import EquationSystem, restrict_to_manifold
from .zerotest import (
    FAIL, INCONCLUSIVE, PASS, Constraint, Result, draws, kept_build,
    within_tol,
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


# subintervals after which quadrature accepts every estimate it has
MAX_INTERVALS = 2 ** 14
# error bound of every integral behind a quadrature-defined function
INSTANCE_TOL = 1e-12


def quadrature(integrand, a: float = 0.0, b: float = 1.0,
               tol_abs: float = 1e-10):
    """Adaptive Gauss-Kronrod integration of the callable ``integrand``
    over [a, b].  Returns (value, error estimate)."""
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
        val, err = _gk15(integrand, lo, hi)
        if err <= tol_abs * (hi - lo) / (b - a) or used >= MAX_INTERVALS:
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


def quadrature_instance(integrand_fn, lower: float = 0.0) -> OpaqueInstance:
    """Opaque-function instance x -> integral of ``integrand_fn`` from
    ``lower`` to x, with the integrand as its exact derivative.  Values
    are cached per upper limit (stencil evaluation re-queries nearby
    points)."""
    cache: dict = {}

    def value(x: float) -> float:
        if x not in cache:
            cache[x], _ = quadrature(integrand_fn, a=lower, b=x,
                                     tol_abs=INSTANCE_TOL)
        return cache[x]

    return OpaqueInstance(value, integrand_fn)


# ---------------------------------------------------------------------------
# implicit solves: one damped Newton loop for scalar and small systems

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
                  guesses=None, bracket=None, jacobian=None):
    """Solve ``residuals == 0`` for ``unknowns`` (parallel lists) from
    ``guesses`` (default 0.1 each); returns the list of values.

    The one damped Newton loop, for any number of unknowns: the Jacobian
    is ``jacobian`` when given, a matrix of expressions with
    ``jacobian[i][j]`` the exact derivative of ``residuals[i]`` in
    ``unknowns[j]``, evaluated at each iterate; else central differences
    (step 1e-7*(1+|v|)).  The step comes from :func:`_gauss_solve` and
    is halved up to 40 times until the largest |residual| drops.  With
    one unknown, a sign change of the residual is kept as a bracket:
    ``bracket`` (lo, hi) seeds it once both ends are checked (a guess
    out of domain then restarts from its midpoint), and a Newton step
    that changes sign replaces it.  When Newton stalls (out of domain,
    singular Jacobian, no descent), 200 bisection steps on the bracket
    take over.  A bracket with more than one unknown is a ValueError.
    Raises NoConvergence; a DomainFault at a bisection point
    propagates."""
    binding = binding or ParameterBinding()
    k = len(unknowns)
    if bracket is not None and k != 1:
        raise ValueError("a bracket needs exactly one unknown")
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
        try:
            if jacobian is None:
                jac = [[0.0] * k for _ in range(k)]
                for j in range(k):
                    h = 1e-7 * (1.0 + abs(vals[j]))
                    up, dn = list(vals), list(vals)
                    up[j] += h
                    dn[j] -= h
                    for i, (u, d) in enumerate(zip(g(up), g(dn))):
                        jac[i][j] = (u - d) / (2 * h)
            else:
                p.update(zip(unknowns, vals))
                jac = [[eval_numeric(d, p, binding) for d in row]
                       for row in jacobian]
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
                   guess: float = 0.0, bracket=None,
                   derivative: Expr | None = None) -> float:
    """The root of the scalar relation ``res == 0`` in ``unknown``: a
    one-unknown :func:`newton_system` solve, on ``derivative`` (the exact
    d res/d unknown) when given, else on central differences."""
    jacobian = None if derivative is None else [[derivative]]
    return newton_system([res], [unknown], point, binding, [guess], bracket,
                         jacobian)[0]


# ---------------------------------------------------------------------------
# solutions and their residuals

@dataclass
class SolutionSpec:
    """A closed-form solution and how to validate it numerically: the
    one record the loader fills and every residual check reads.

    kind "explicit": ``explicit`` maps a dependent's name to an
    expression in the base variables (possibly through quadrature-backed
    opaque functions).  kind "implicit": ``relations`` is an ordered list
    of (unknown name, residual Expr) solved in turn at each point; the
    last unknown is the dependent itself.  Sample points are a regular
    ``grid`` over ``box`` when one is given, else ``n`` seeded draws."""

    name: str
    kind: str = "explicit"
    of: str = ""
    explicit: list = field(default_factory=list)  # (dep name, Expr)
    relations: list = field(default_factory=list)  # (unknown name, residual Expr)
    guesses: dict = field(default_factory=dict)
    brackets: dict = field(default_factory=dict)
    dep: str = ""
    constraints: list = field(default_factory=list)
    binds: dict = field(default_factory=dict)       # param -> float
    fn_binds: dict = field(default_factory=dict)    # function -> ("sin"|"cos"|"exp",) | ("const", c)
    quadratures: dict = field(default_factory=dict)  # name -> (var, integrand Expr, lower)
    box: dict = field(default_factory=dict)
    grid: tuple = ()
    h: float = 1e-4
    n: int = 64
    seed: int | None = None   # the bundle's seed key; None when unset
    tol: float | None = None
    expect: str = "pass"
    aux: list = field(default_factory=list)  # auxiliary scalar unknowns
    # the symbolic part of a residual check, per system checked against
    _builds: dict = field(default_factory=dict, init=False, compare=False,
                          repr=False)

    def make_binding(self) -> ParameterBinding:
        """The bound parameters and functions, and each quadrature as a
        function.  An integrand sees the bound functions and no
        quadrature: one named like a bound function reads that function
        in its integrand, not itself."""
        functions = {}
        for fname, spec in self.fn_binds.items():
            if spec[0] in _DERIVATIVES:
                functions[fname] = OpaqueInstance(*_DERIVATIVES[spec[0]])
            elif spec[0] == "const":
                functions[fname] = OpaqueInstance.constant(spec[1])
            else:
                raise ValueError(f"unknown function binding {spec!r}")
        bound = ParameterBinding(self.binds, functions)
        quadratures = {}
        for qname, (var, integrand, lower) in self.quadratures.items():

            def integrand_fn(t, _e=integrand, _v=Var(var)):
                return eval_numeric(_e, {_v: t}, bound)

            quadratures[qname] = quadrature_instance(integrand_fn, lower)
        return bound.extended(functions=quadratures)


# the first 8 derivatives of each bindable builtin, by their cycles
_DERIVATIVES = {"sin": (math.sin, math.cos, lambda x: -math.sin(x),
                        lambda x: -math.cos(x)) * 2,
                "cos": (math.cos, lambda x: -math.sin(x),
                        lambda x: -math.cos(x), math.sin) * 2,
                "exp": (math.exp,) * 8}


def _relations(spec: SolutionSpec, eq: EquationSystem) -> list:
    """(unknown, residual, guess, bracket) for each relation, in order:
    an unknown that is a dependent of ``eq`` is a Jet, any other a
    Param."""
    deps = eq.js.dependents
    return [(Jet(u) if u in deps else Param(u), res, spec.guesses.get(u, 0.0),
             spec.brackets.get(u)) for u, res in spec.relations]


def _check_points(pts, residual_at, seed: int, tol: float,
                  provenance: str) -> Result:
    """The one sample-point loop of every solution check: ``residual_at``
    gives the largest |residual| at a point, and a point where it raises
    NoConvergence or DomainFault is skipped.  Inconclusive when nothing
    was tested or more than a fifth of the points were skipped; else
    pass iff the largest |residual| is within ``tol``."""
    skipped = 0
    worst = 0.0
    for p in pts:
        try:
            worst = max(worst, residual_at(p))
        except (NoConvergence, DomainFault):
            skipped += 1
    total = len(pts)
    if total == 0 or skipped > 0.2 * total:
        verdict = INCONCLUSIVE
    else:
        verdict = PASS if within_tol(worst, tol, 0.0) else FAIL
    return Result(verdict, provenance, witness_value=worst,
                  points_tested=total - skipped, points_skipped=skipped,
                  seed=seed, tol_abs=tol, tol_rel=0.0,
                  detail=f"skipped {skipped}/{total} sample points")


def _sample_points(spec: SolutionSpec, vars_, seed: int, constraints,
                   binding) -> list:
    """Deterministic sample points: the spec's regular grid when it has
    one, else seeded uniform draws filtered by the constraints, at most
    RETRY_BUDGET draws in all.  A grid without one count and one box
    range per variable is a ValueError."""
    if spec.grid:
        names = [v.name for v in vars_]
        if len(spec.grid) != len(names):
            raise ValueError(f"grid needs one count per variable of {names}")
        axes = []
        for name, cnt in zip(names, spec.grid):
            if name not in spec.box:
                raise ValueError(f"grid needs a box range for {name}")
            lo, hi = spec.box[name]
            axes.append([lo + (hi - lo) * (i + 0.5) / cnt for i in range(cnt)])
        return [dict(zip(vars_, xs)) for xs in product(*axes)]
    return [p for p, _ in islice(draws(vars_, constraints, random.Random(seed),
                                       binding, spec.box), spec.n)]


def _explicit_build(spec: SolutionSpec, eq: EquationSystem):
    """The equations' residuals restricted to the solution, and the
    domain constraints with any jet coordinates rewritten through it
    (they are meant on the solution manifold)."""
    rules = [(Jet(dep), expr) for dep, expr in spec.explicit]
    sub_sys = EquationSystem(eq.js, rules, name="solution")
    residuals = [restrict_to_manifold(lhs - rhs, sub_sys) for lhs, rhs in eq.equations]
    constraints = tuple(
        Constraint(restrict_to_manifold(c.expr, sub_sys), c.rel)
        for c in tuple(eq.constraints) + tuple(spec.constraints))
    return residuals, constraints


def residual_explicit(spec: SolutionSpec, eq: EquationSystem, seed: int = 0,
                      tol: float | None = None) -> Result:
    """Substitute exact symbolic derivatives of an explicit solution into
    each equation and evaluate at its sample points (drawn with
    ``seed``); pass iff the largest |residual| is at most ``tol`` (None:
    DEFAULT_EXPLICIT_TOL).  The substitution is made once per system and
    kept on the spec."""
    if spec.kind != "explicit":
        raise ValueError("residual_explicit needs an explicit solution")
    binding = spec.make_binding()
    residuals, constraints = kept_build(spec._builds, (eq,),
                                        lambda: _explicit_build(spec, eq))
    vars_ = [Var(x) for x in eq.js.independent]
    return _check_points(
        _sample_points(spec, vars_, seed, constraints, binding),
        lambda p: max(abs(eval_numeric(r, p, binding)) for r in residuals),
        seed, DEFAULT_EXPLICIT_TOL if tol is None else tol, "numeric")


def _solve_chain(relations, point, binding, dens=None) -> dict:
    """The base point with every relation's unknown solved, in order:
    Newton on the exact ``dens[i]`` = dR_i/ds_i when given, else on
    central differences."""
    p = dict(point)
    for i, (unknown, res, guess, bracket) in enumerate(relations):
        p[unknown] = solve_implicit(res, unknown, p, binding, guess, bracket,
                                    None if dens is None else dens[i])
    return p


def _solve_solution_at(spec: SolutionSpec, relations, point, binding) -> float:
    """Value of the solution's dependent variable at a base point."""
    if spec.kind == "explicit":
        expr = dict(spec.explicit)[spec.dep]
        return eval_numeric(expr, point, binding)
    return _solve_chain(relations, point, binding)[relations[-1][0]]


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


def _one_equation(fn: str, spec: SolutionSpec, eq: EquationSystem,
                  max_order: int | None = None):
    """The residual of ``eq``'s single equation, the jets of its
    dependent in it (by order), the base variables, and the constraints
    that can guide point sampling.
    More than one equation, or a jet above ``max_order``, is a
    ValueError naming ``fn``.
    Constraints that mention jet coordinates cannot guide point sampling
    (derivative values only exist after the solve); those points rely on
    DomainFault skips."""
    if len(eq.equations) != 1:
        raise ValueError(f"{fn} checks a single equation")
    lhs, rhs = eq.equations[0]
    residual = lhs - rhs
    jets = sorted((a for a in atoms(residual, Jet) if a.dep == lhs.dep),
                  key=lambda j: (j.order, j.index))
    if max_order is not None and any(j.order > max_order for j in jets):
        raise ValueError(f"{fn} supports equations of order <= {max_order}")
    base_vars = [Var(x) for x in eq.js.independent]
    samplable = tuple(c for c in tuple(eq.constraints) + tuple(spec.constraints)
                      if not atoms(c.expr, Jet))
    return residual, jets, base_vars, samplable


def residual_fd(spec: SolutionSpec, eq: EquationSystem, seed: int = 0,
                tol: float | None = None) -> Result:
    """Evaluate the equation residual with derivatives formed by central
    finite differences on values of the (implicitly defined) solution;
    pass iff the largest |residual| is at most ``tol`` (None:
    DEFAULT_IMPLICIT_TOL).  It shares no derivative code with
    :func:`residual_implicit`, and is kept as its independent oracle."""
    binding = spec.make_binding()
    residual, jets, base_vars, samplable = _one_equation(
        "residual_fd", spec, eq, max_order=2)
    pts = _sample_points(spec, base_vars, seed, samplable, binding)
    relations = _relations(spec, eq)
    h = spec.h

    def residual_at(p) -> float:
        cache: dict = {}

        def value_at(offsets) -> float:
            if offsets not in cache:
                q = {v: p[v] + off * h for v, off in zip(base_vars, offsets)}
                q.update({v: p[v] for v in base_vars if v not in q})
                cache[offsets] = _solve_solution_at(spec, relations, q,
                                                    binding)
            return cache[offsets]

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
        return abs(eval_numeric(residual, env, binding))

    return _check_points(pts, residual_at, seed,
                         DEFAULT_IMPLICIT_TOL if tol is None else tol,
                         "finite-difference")


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


def _implicit_build(spec: SolutionSpec, eq: EquationSystem):
    """The symbolic part of :func:`residual_implicit`: the equation's
    residual, the base variables, the constraints that guide sampling,
    the relations, and :func:`_chain_jets` for every multi-index the
    equation's jets need (sub-indices included)."""
    residual, jets, base_vars, samplable = _one_equation(
        "residual_implicit", spec, eq)
    indices = {()}
    for j in jets:
        indices |= _sub_indices(j.index)
    relations = _relations(spec, eq)
    return (residual, base_vars, samplable, relations,
            *_chain_jets(relations, indices))


def residual_implicit(spec: SolutionSpec, eq: EquationSystem, seed: int = 0,
                      tol: float | None = None) -> Result:
    """Evaluate the equation residual on exact derivatives of the
    implicitly defined solution: one chain solve per point gives the
    unknowns, by Newton on the exact dR_i/ds_i, and the implicit function
    theorem (:func:`_chain_jets`) gives every derivative the equation
    needs, of any order.  The derivatives are built once per system and
    kept on the spec.  A point where a relation is singular in its
    unknown is skipped.  Pass iff the largest |residual| is at most
    ``tol`` (None: DEFAULT_IMPLICIT_TOL)."""
    if spec.kind != "implicit":
        raise ValueError("residual_implicit needs an implicit solution")
    binding = spec.make_binding()
    residual, base_vars, samplable, relations, dens, steps = kept_build(
        spec._builds, (eq,), lambda: _implicit_build(spec, eq))
    pts = _sample_points(spec, base_vars, seed, samplable, binding)

    def residual_at(p) -> float:
        env = _solve_chain(relations, p, binding, dens)
        den = [eval_numeric(d, env, binding) for d in dens]
        if 0.0 in den:
            raise DomainFault("relation is singular in its unknown")
        for sym, e, i in steps:
            env[sym] = 0.0
            env[sym] = -eval_numeric(e, env, binding) / den[i]
        return abs(eval_numeric(residual, env, binding))

    return _check_points(pts, residual_at, seed,
                         DEFAULT_IMPLICIT_TOL if tol is None else tol,
                         "implicit-exact")
