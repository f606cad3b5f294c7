"""Ansatz substitution: verifying and deriving reduced systems, checking
transformation compatibility between equations, and testing overdetermined
first-order pairs for compatibility.

An ansatz assigns expressions (in invariant variables and unknown
functions of them) to jet coordinates of the original dependents.  When
an invariant variable is defined implicitly, its base-variable
derivatives are obtained by solving the linear chain system; the pivot
determinants of that solve become mandatory domain constraints.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from .expr import (
    Add, DomainFault, Expr, Jet, Mul, Num, ONE, Param, ParameterBinding, Var,
    ZERO, add, atoms, diff_partial, expand, mul, substitute,
)
from .jets import JetSpace, total_derivative
from .linalg import SingularImplicitSystem, gaussian_eliminate
from .numeric import NoConvergence, newton_system
from .parser import print_expression
from .rewrites import (
    assume_positive, expand_trig, reduce_even_cosines, sqrt_pythagoras, touches,
)
from .systems import EquationSystem, restrict_to_manifold
from .zerotest import (
    FAIL, NONZERO, TOL, ZERO_VERDICT, Constraint, Result, check_parts,
    check_seed, combine, draws, free_numeric_symbols, is_zero, kept_build,
    zero_test,
)


@dataclass(frozen=True)
class Ansatz:
    """Substitution rules for jet coordinates of the original dependents.

    ``targets``: (Jet, Expr) pairs; the expressions live in the base
    variables, the invariant variables, and the unknown functions.
    ``phis``: unknown function name -> argument variables.
    ``invariants``: invariant variable -> defining expression (in base
    variables and original dependents); the definition may be implicit
    through the targets.
    ``positive``/``nonneg``: opt-in branch assumptions used when a
    reduced system is derived (logarithm splitting and choosing the
    nonnegative square root of 1 - sin^2).
    """

    js: JetSpace
    targets: tuple
    phis: dict
    invariants: dict = field(default_factory=dict)
    constraints: tuple = ()
    positive: bool = False
    nonneg: tuple = ()
    name: str = ""
    # the seed-independent work of the checks, by key: the frame (),
    # derive_reduction's solved equations and its system per outcome
    # (original,), verify_reduction's restricted residuals (original,
    # candidate)
    _builds: dict = field(default_factory=dict, init=False, compare=False,
                          repr=False)

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(self.targets))
        object.__setattr__(self, "phis",
                           {p: tuple(a) for p, a in dict(self.phis).items()})
        object.__setattr__(self, "invariants", dict(self.invariants))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        object.__setattr__(self, "nonneg", tuple(self.nonneg))


@dataclass(frozen=True)
class AnsatzFrame:
    """An ansatz resolved on the extended jet space: the unknown
    functions are dependents, implicit invariant variables carry their
    solved chain rules, and the targets form a rewriting system."""

    js: JetSpace
    system: EquationSystem
    constraints: tuple


def ansatz_derivatives(a: Ansatz) -> AnsatzFrame:
    """Resolve an ansatz: extend the jet space with the unknown
    functions, solve the chain system for implicit invariant variables,
    and package the targets as a solved-form rewriting system.

    Raises SingularImplicitSystem when the chain system cannot be
    solved; each pivot of the solve is returned as a nonvanishing
    constraint.
    """
    full_js = a.js.with_dependents(a.phis)
    constraints = list(a.constraints)
    chains: dict = {w: {} for w in a.invariants}
    if a.invariants:
        order0 = {lhs: rhs for lhs, rhs in a.targets}
        defs = {w: substitute(d, order0) for w, d in a.invariants.items()}
        ws = sorted(defs)
        pivot_seen = set()
        for x in full_js.independent:
            holders = {w: Param(f"_D_{w}_{x}") for w in ws}
            tmp_js = full_js.with_chains({w: {x: holders[w]} for w in ws})
            eqs = [holders[w] - total_derivative(defs[w], x, tmp_js) for w in ws]
            solution, _, pivots = gaussian_eliminate(eqs, [holders[w] for w in ws])
            for w in ws:
                chains[w][x] = solution[holders[w]]
            for p in pivots:
                if not isinstance(p, Num) and p not in pivot_seen:
                    pivot_seen.add(p)
                    constraints.append(Constraint(p, "!="))
        full_js = full_js.with_chains(chains)
    system = EquationSystem(full_js, a.targets, name=a.name or "ansatz")
    return AnsatzFrame(full_js, system, tuple(constraints))


def _frame(a: Ansatz) -> AnsatzFrame:
    """The ansatz's frame, resolved once and kept on the ansatz."""
    return kept_build(a._builds, (), lambda: ansatz_derivatives(a))


def _compat_residuals(rules, js: JetSpace):
    """Cross-derivative compatibility residuals among first-order rules
    (Jet, Expr) of the same dependent: D_j R_i - D_i R_j."""
    by_dep: dict = {}
    for lhs, rhs in rules:
        if lhs.order == 1 and len(lhs.index) == 1:
            by_dep.setdefault(lhs.dep, []).append((lhs.index[0][0], rhs))
    out = []
    for dep in sorted(by_dep):
        for (xi, ri), (xj, rj) in itertools.combinations(sorted(by_dep[dep]), 2):
            r = total_derivative(ri, xj, js) - total_derivative(rj, xi, js)
            out.append((f"compatibility {dep} ({xi},{xj})", r))
    return out


def verify_reduction(a: Ansatz, original: EquationSystem,
                     candidate: EquationSystem, seed: int = 0,
                     tol: float = TOL) -> Result:
    """Check that the ansatz maps solutions of the candidate reduced
    system to solutions of the original: substitute the ansatz into each
    original equation (and into the targets' own cross-derivative
    compatibility), restrict to the candidate manifold, zero-test.  The
    restricted residuals are built once per (original, candidate) and
    kept on the ansatz."""
    constraints, parts = kept_build(
        a._builds, (original, candidate),
        lambda: _reduction_parts(a, original, candidate))
    return check_parts(parts, constraints, seed, tol)


def _reduction_parts(a: Ansatz, original: EquationSystem,
                     candidate: EquationSystem):
    """The constraints and labelled residuals that verify_reduction
    zero-tests."""
    frame = _frame(a)
    cand = EquationSystem(frame.js, candidate.equations, candidate.constraints,
                          candidate.name)
    constraints = tuple(original.constraints) + frame.constraints + \
        tuple(candidate.constraints)
    labelled = [(f"equation {i}", lhs - rhs)
                for i, (lhs, rhs) in enumerate(original.equations)]
    labelled += _compat_residuals(a.targets, frame.js)
    return constraints, [
        (label, restrict_to_manifold(restrict_to_manifold(r, frame.system), cand))
        for label, r in labelled]


def _coefficient_split(r: Expr, elim):
    """Write an expanded sum as  sum_k key_k * coeff_k  where the keys
    collect every factor involving the eliminable symbols.  The keys are
    assumed functionally independent, so each coefficient must vanish."""
    groups: dict = {}
    terms = r.terms if isinstance(r, Add) else (r,)
    for t in terms:
        factors = t.factors if isinstance(t, Mul) else (t,)
        hot = [f for f in factors if touches(f, elim)]
        cold = [f for f in factors if not touches(f, elim)]
        key = mul(*hot) if hot else ONE
        groups.setdefault(key, []).append(mul(*cold) if cold else ONE)
    return {k: add(*v) for k, v in groups.items()}


def derive_reduction(a: Ansatz, original: EquationSystem, seed: int = 0,
                     tol: float = TOL):
    """Derive the reduced system the ansatz imposes on its unknown
    functions, or explain why none exists.

    The substituted residuals are separated by the symbols the reduction
    must eliminate (leftover base variables and bare original
    dependents); each coefficient becomes one equation, solved linearly
    for its highest unknown-function derivative.  Returns an
    EquationSystem on success, and otherwise a failing Result whose
    ``detail`` gives the reason.  The tolerance applies where two
    separated equations for the same derivative are compared.  The
    separation, the solved equations and the system of each outcome are
    made once per original and kept on the ansatz; only that comparison
    takes the seed.
    """
    def failure(reason: str) -> Result:
        return Result(FAIL, detail=reason, seed=seed, tol_abs=tol, tol_rel=tol)

    solved, systems = kept_build(a._builds, (original,),
                                 lambda: (_derivation(a, original), {}))
    if isinstance(solved, str):
        return failure(solved)
    frame = _frame(a)

    # dedupe repeated equations (the same relation often arrives from
    # several coefficients); conflicting right sides are a failure
    kept_eqs: dict = {}
    kept_pivots: list = []
    for i, (lead, rhs, pivot) in enumerate(solved):
        if lead in kept_eqs:
            if kept_eqs[lead] == rhs:
                continue
            zr = is_zero(kept_eqs[lead] - rhs, frame.constraints,
                         seed=check_seed(seed, 500 + i), tol=tol)
            if zr.is_zero:
                continue
            return failure(
                "inconsistent: two separated equations force different values "
                f"for {lead!r}")
        kept_eqs[lead] = rhs
        if not isinstance(pivot, Num) and \
                all(c.expr != pivot for c in kept_pivots):
            kept_pivots.append(Constraint(pivot, "!="))

    if not kept_eqs:
        return failure("the ansatz produced no equations")
    if len(kept_eqs) > len(a.phis):
        return failure(
            f"{len(kept_eqs)} independent reduced equations for "
            f"{len(a.phis)} unknown functions")

    equations = sorted(kept_eqs.items(), key=lambda kv: (kv[0].dep, kv[0].index))
    outcome = (tuple(equations), frame.constraints + tuple(kept_pivots))
    if outcome not in systems:  # every seed reaching it gets one object
        systems[outcome] = EquationSystem(
            frame.js, *outcome,
            name=(a.name + " reduced") if a.name else "reduced")
    return systems[outcome]


def _derivation(a: Ansatz, original: EquationSystem):
    """derive_reduction's seed-independent half: the equations (lead,
    rhs, pivot) solved from the separated coefficients, or the reason
    there are none."""
    try:
        frame = _frame(a)
    except SingularImplicitSystem as exc:
        return f"implicit invariant chain is singular: {exc}"

    kept = set(a.invariants)
    for args in a.phis.values():
        kept.update(args)
    elim_vars = {x for x in a.js.independent if x not in kept}
    orig_deps = set(a.js.dependents)

    def eliminated(r):
        """The symbols of ``r`` to separate on: the base variables the
        ansatz eliminates and the jets of the original dependents."""
        return {s for s in atoms(r)
                if (isinstance(s, Var) and s.name in elim_vars) or
                (isinstance(s, Jet) and s.dep in orig_deps)}

    residuals = [lhs - rhs for lhs, rhs in original.equations]
    residuals += [r for _, r in _compat_residuals(a.targets, frame.js)]

    solved: list = []  # (lead, rhs, pivot)
    for r in residuals:
        r = restrict_to_manifold(r, frame.system)
        if a.positive:
            r = assume_positive(r)
        elim = eliminated(r)
        r = sqrt_pythagoras(r, a.nonneg)
        r = expand(expand_trig(r, elim))
        # even cosine powers only appear once products are distributed,
        # and reducing them introduces new products, so alternate
        for _ in range(8):
            nxt = expand(reduce_even_cosines(r, elim))
            if nxt == r:
                break
            r = nxt
        elim = eliminated(r)
        for _, coeff in sorted(_coefficient_split(r, elim).items(),
                                 key=lambda kv: repr(kv[0])):
            if coeff == ZERO:
                continue
            if isinstance(coeff, Num):
                return "inconsistent: a separated coefficient is a nonzero constant"
            phi_jets = [s for s in atoms(coeff, Jet) if s.dep in a.phis]
            deriv_jets = [s for s in phi_jets if s.order >= 1]
            if not deriv_jets:
                return ("a separated term has no unknown-function derivative "
                        "to match (degenerate ansatz)")
            lead = max(deriv_jets, key=lambda j: (j.order, j.dep, j.index))
            try:
                solution, _, (pivot,) = gaussian_eliminate([coeff], [lead])
            except (ValueError, SingularImplicitSystem):
                return ("cannot solve a separated equation linearly for its "
                        "highest unknown-function derivative")
            solved.append((lead, solution[lead], pivot))
    return solved


def systems_equivalent(s1: EquationSystem, s2: EquationSystem, seed: int = 0,
                       constraints=(), tol: float = TOL) -> Result:
    """Same leading coordinates and identical right sides on the shared
    constraint domain."""
    e1, e2 = dict(s1.equations), dict(s2.equations)
    if set(e1) != set(e2):
        missing = set(e1) ^ set(e2)
        zr = Result(NONZERO, witness={
            "leads": sorted(print_expression(j) for j in missing)})
        return combine([("leading coordinates differ", zr)], seed, tol)
    cs = tuple(constraints) + tuple(s1.constraints) + tuple(s2.constraints)
    parts = ((print_expression(lead), e1[lead] - e2[lead])
             for lead in sorted(e1, key=lambda j: (j.dep, j.index)))
    return check_parts(parts, cs, seed, tol)


# ---------------------------------------------------------------------------
# transformations between equations

@dataclass(frozen=True)
class BacklundRelation:
    """First-order relations expressing derivatives of a new dependent
    through an old one, claimed to map solutions of ``source`` (an
    equation for the old dependent) to solutions of ``target``."""

    js: JetSpace
    relations: tuple  # ((Jet, Expr), ...)
    source: EquationSystem
    target: EquationSystem
    constraints: tuple = ()
    name: str = ""
    # verify_backlund's constraints and restricted residuals (key ())
    _builds: dict = field(default_factory=dict, init=False, compare=False,
                          repr=False)


def verify_backlund(bt: BacklundRelation, seed: int = 0,
                    tol: float = TOL) -> Result:
    """Pass iff, modulo the source equation and the relations themselves,
    (a) the relations are cross-derivative compatible and (b) the target
    equation's residual vanishes.  The restricted residuals are built
    once and kept on the relation."""
    constraints, parts = kept_build(bt._builds, (),
                                    lambda: _backlund_parts(bt))
    return check_parts(parts, constraints, seed, tol)


def _backlund_parts(bt: BacklundRelation):
    """The constraints and labelled residuals that verify_backlund
    zero-tests."""
    source = EquationSystem(bt.js, bt.source.equations, bt.source.constraints,
                            bt.source.name)
    constraints = tuple(bt.constraints) + tuple(source.constraints) + \
        tuple(bt.target.constraints)
    labelled = _compat_residuals(bt.relations, bt.js)
    for i, (lhs, rhs) in enumerate(bt.target.equations):
        labelled.append((f"target equation {i}", lhs - rhs))
    return constraints, [
        (label, restrict_to_manifold(r, source, extra=bt.relations))
        for label, r in labelled]


# ---------------------------------------------------------------------------
# overdetermined first-order pairs

# parameters of a pair's relations are sampled like its base variables
_NO_BINDING = ParameterBinding()
# random restarts of the Newton solve for a point's first derivatives
NEWTON_RESTARTS = 8
# seeded draws per compatibility condition, rejected ones included
PAIR_DRAWS = 256


@dataclass
class OverdeterminedSpec:
    """An overdetermined pair of first-order relations: ``assignments``
    (Jet, Expr) give first derivatives of one dependent, ``constraints``
    and ``box`` guide the sampling of the base point, and ``n`` points
    must pass per compatibility condition."""

    name: str
    assignments: tuple
    constraints: tuple = ()
    box: dict = field(default_factory=dict)
    n: int = 32
    expect: str = "pass"
    # the symbolic part of check_overdetermined, per jet space
    _builds: dict = field(default_factory=dict, init=False, compare=False,
                          repr=False)


@dataclass(frozen=True)
class _PairBuild:
    """What :func:`check_overdetermined` derives from a pair once: the
    assigned jets, the residuals ``lhs - rhs`` and their exact Jacobian
    in the assigned jets (for the Newton solve of the first
    derivatives), and each nonzero leftover of the elimination with the
    free symbols sampled for it."""

    unknowns: list
    residuals: list
    jacobian: list
    leftovers: list   # (leftover, free symbols)


def _pair_build(assignments, js: JetSpace) -> _PairBuild:
    """Eliminate the second-derivative jets from the differentiated
    relations; the leftover rows are the compatibility conditions."""
    deps = {lhs.dep for lhs, _ in assignments}
    if len(deps) != 1:
        raise ValueError("assignments must concern a single dependent variable")
    args = js.dependents[deps.pop()]

    seconds = sorted({lhs.lift(x) for lhs, _ in assignments for x in args},
                     key=lambda j: j.index)
    eqs = []
    for lhs, rhs in assignments:
        for x in args:
            eqs.append(lhs.lift(x) - total_derivative(rhs, x, js))
    _, leftovers, _ = gaussian_eliminate(eqs, seconds)

    first_jets = [j for j, _ in assignments]
    kept = []
    for lo in leftovers:
        if lo == ZERO:
            continue
        free = [s for s in free_numeric_symbols(lo, _NO_BINDING)
                if s not in first_jets]
        for _, rhs in assignments:
            for s in free_numeric_symbols(rhs, _NO_BINDING):
                if s not in first_jets and s not in free:
                    free.append(s)
        kept.append((lo, free))
    residuals = [lhs - rhs for lhs, rhs in assignments]
    memos: dict = {}
    jacobian = [[diff_partial(r, j, memos) for j in first_jets]
                for r in residuals]
    return _PairBuild(first_jets, residuals, jacobian, kept)


def _solved_points(pair: _PairBuild, points, rng):
    """The (point, binding) pairs of ``points`` with the assigned
    first-derivative jets solved in.  The assignments may be implicit
    (right sides containing the jets themselves), so each is a small
    Newton solve, on the exact Jacobian, with NEWTON_RESTARTS random
    restarts; a point that none of them solves is dropped."""
    for point, binding in points:
        for _ in range(NEWTON_RESTARTS):
            guesses = [rng.uniform(-2.0, 2.0) for _ in pair.unknowns]
            try:
                vals = newton_system(pair.residuals, pair.unknowns, point,
                                     binding, guesses=guesses,
                                     jacobian=pair.jacobian)
            except (NoConvergence, DomainFault):
                continue
            point.update(zip(pair.unknowns, vals))
            yield point, binding
            break


def check_overdetermined(spec: OverdeterminedSpec, js: JetSpace, seed: int = 0,
                         tol: float = TOL) -> Result:
    """Compatibility of an overdetermined pair of first-order relations
    for one dependent variable.

    The second-derivative jets are eliminated symbolically from the
    differentiated relations; the leftover rows of that elimination are
    the compatibility conditions, which are then tested numerically on
    the solution manifold (base point sampled from the spec's box and
    constraints, first derivatives solved from the relations at each
    point).  A condition with fewer than ``spec.n`` tested points, or
    none, is inconclusive.  The elimination is made once per jet space
    and kept on the spec."""
    pair = kept_build(spec._builds, (js,),
                      lambda: _pair_build(spec.assignments, js))
    if not pair.leftovers:
        return combine([("compatibility", Result(ZERO_VERDICT))], seed, tol)

    results = []
    for i, (lo, free) in enumerate(pair.leftovers):
        rng = random.Random(check_seed(seed, i))
        points = draws(free, spec.constraints, rng, _NO_BINDING, spec.box,
                       PAIR_DRAWS, (0.2, 2.0))
        results.append((f"compatibility condition {i}",
                        zero_test(lo, _solved_points(pair, points, rng),
                                  spec.n, check_seed(seed, i), tol)))
    return combine(results, seed, tol)
