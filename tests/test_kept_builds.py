"""Each entry's symbolic work is built once and reused across seeds.

A solution keeps, per system it is checked against, what its residual
check derives without a seed: the chain derivatives of an implicit
solution, the restricted residuals of an explicit one.  An
overdetermined pair keeps, per jet space, its elimination and the
Jacobian of its relations.  An ansatz keeps its frame, its restricted
residuals per (original, candidate) and its solved reduced equations
per original; a Bäcklund relation keeps its restricted residuals.  These
tests count the symbolic calls of each check across seeds and compare
every kept result with a fresh copy of the entry, so a build reused
where it does not belong (another system, a changed copy, another seed
or tolerance) shows as a wrong verdict or a missing build."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from symred import cli, numeric, reduce
from symred.expr import Add, Jet, Num, Var, add, rational
from symred.jets import JetSpace
from symred.numeric import residual_explicit, residual_implicit
from symred.reduce import (
    Ansatz, check_overdetermined, derive_reduction, systems_equivalent,
    verify_backlund, verify_reduction,
)
from symred.systems import EquationSystem

SEEDS = range(5)


class Calls:
    """Counts calls of ``module.name`` while installed."""

    def __init__(self, mp, module, name):
        self.n = 0
        fn = getattr(module, name)

        def counted(*args, **kw):
            self.n += 1
            return fn(*args, **kw)

        mp.setattr(module, name, counted)

    def take(self) -> int:
        n, self.n = self.n, 0
        return n


def _copy_system(s: EquationSystem) -> EquationSystem:
    return EquationSystem(s.js, s.equations, s.constraints, s.name)


def _copy_space(js: JetSpace) -> JetSpace:
    return JetSpace(js.independent, js.dependents, js.chains)


# each case: (check, the entry's system, a fresh copy of the entry, the
# module and function of the symbolic work that must run once per system)
def _implicit(bundles):
    b = bundles["eq6"]
    return (residual_implicit, b.system("eq6"),
            replace(b.solutions["implicitTheta"]), numeric, "diff_partial")


def _explicit(bundles):
    b = bundles["ode32"]
    return (residual_explicit, b.system("eq35"), replace(b.solutions["eq38"]),
            numeric, "restrict_to_manifold")


def _pair(bundles):
    b = bundles["eq2"]

    def check(spec, js, seed):
        return check_overdetermined(spec, js, seed=seed)

    return (check, b.space, replace(b.overdetermined["pairAfter5"]), reduce,
            "gaussian_eliminate")


def _reduction(bundles):
    b = bundles["eq3"]
    entry = b.ansatzes["ansatz4"]

    def check(a, original, seed):
        return verify_reduction(a, original, b.reduced[entry.candidate],
                                seed=seed)

    return (check, b.equations[entry.original], replace(entry.ansatz), reduce,
            "restrict_to_manifold")


def _derivation(bname, aname):
    """The derivation row of ``bname:aname``, as the paper suite runs it:
    the derived system is tested against the bundled candidate."""
    def case(bundles):
        b = bundles[bname]
        entry = b.ansatzes[aname]

        def check(a, original, seed):
            out = derive_reduction(a, original, seed=seed)
            if isinstance(out, EquationSystem):
                out = systems_equivalent(out, b.reduced[entry.candidate],
                                         seed=seed,
                                         constraints=b.param_constraints)
            return out

        return (check, b.equations[entry.original], replace(entry.ansatz),
                reduce, "restrict_to_manifold")

    return case


def _backlund(bundles):
    def check(bt, _, seed):
        return verify_backlund(bt, seed=seed)

    return (check, None, replace(bundles["sg_deformed"].backlunds["eq18"].relation),
            reduce, "restrict_to_manifold")


CASES = {"eq6:implicitTheta": _implicit, "ode32:eq38": _explicit,
         "eq2:pairAfter5": _pair, "eq3:ansatz4->eq4": _reduction,
         "ode32:logAnsatz:derive": _derivation("ode32", "logAnsatz"),
         "sg_deformed:eq16:derive": _derivation("sg_deformed", "eq16"),
         "sg_deformed:eq18": _backlund}
# the entries built per system checked against (a Bäcklund relation
# names its own equations)
PER_SYSTEM = sorted(k for k in CASES if k != "sg_deformed:eq18")


@pytest.fixture(params=sorted(CASES))
def case(request, bundles):
    return CASES[request.param](bundles)


@pytest.fixture(params=PER_SYSTEM)
def system_case(request, bundles):
    return CASES[request.param](bundles)


def test_symbolic_work_runs_in_the_first_call_only(case):
    check, system, spec, module, name = case
    with pytest.MonkeyPatch.context() as mp:
        calls = Calls(mp, module, name)
        counts = []
        for seed in SEEDS:
            assert check(spec, system, seed).verdict == "pass"
            counts.append(calls.take())
    assert counts[0] > 0
    assert counts[1:] == [0] * (len(SEEDS) - 1)


def test_kept_results_equal_a_fresh_copy(case):
    check, system, spec, *_ = case
    for seed in SEEDS:
        assert check(spec, system, seed) == check(replace(spec), system, seed)


def test_one_build_per_system(system_case):
    check, system, spec, module, name = system_case
    other = (_copy_space if isinstance(system, JetSpace) else _copy_system)(system)
    with pytest.MonkeyPatch.context() as mp:
        calls = Calls(mp, module, name)
        counts = []
        for s in (system, other, system, other):
            check(spec, s, 0)
            counts.append(calls.take())
    assert counts[0] > 0 and counts[1] > 0
    assert counts[2:] == [0, 0]
    assert check(spec, other, 0) == check(replace(spec), system, 0)


def test_a_changed_copy_gets_its_own_build(bundles):
    # the original is built and passes first; each copy with one relation
    # changed must fail on its own build, and the original still pass
    eq6, eq2, ode32 = bundles["eq6"], bundles["eq2"], bundles["ode32"]
    sys6, sys35 = eq6.system("eq6"), ode32.system("eq35")

    theta = replace(eq6.solutions["implicitTheta"])
    flipped = replace(theta, relations=[
        eq6.solutions["thetaFlipped"].relations[0], theta.relations[1]])
    explicit = replace(ode32.solutions["eq38"])
    (dep, u), = explicit.explicit
    doubled = replace(explicit, explicit=[(dep, Num(2) * u)])
    pair = replace(eq2.overdetermined["pairAfter5"])
    (l1, r1), (l2, r2) = pair.assignments
    negated = replace(pair, assignments=((l1, r1), (l2, Num(-1) * r2)))

    runs = [
        (lambda s: residual_implicit(s, sys6), theta, flipped),
        (lambda s: residual_explicit(s, sys35), explicit, doubled),
        (lambda s: check_overdetermined(s, eq2.space), pair, negated),
    ]
    for check, spec, changed in runs:
        assert check(spec).verdict == "pass"
        assert check(changed).verdict == "fail"
        assert check(spec).verdict == "pass"
        assert check(changed).verdict == "fail"


def _scaled(e):
    """``e`` with its first term scaled by 8/7."""
    if isinstance(e, Add):
        return add(rational(8, 7) * e.terms[0], *e.terms[1:])
    return rational(8, 7) * e


@pytest.mark.parametrize("name", ["eq3:ansatz4->eq4", "ode32:logAnsatz:derive",
                                  "sg_deformed:eq16:derive", "sg_deformed:eq18"])
def test_a_scaled_copy_gets_its_own_build(bundles, name):
    # the original is built and passes first; a copy with one term of its
    # first target or relation scaled by 8/7 must fail on its own build,
    # and the original still pass
    check, system, entry, *_ = CASES[name](bundles)
    field = "targets" if isinstance(entry, Ansatz) else "relations"
    (lhs, rhs), *rest = getattr(entry, field)
    changed = replace(entry, **{field: ((lhs, _scaled(rhs)), *rest)})
    for seed in SEEDS:
        assert check(entry, system, seed).verdict == "pass"
        assert check(changed, system, seed).verdict == "fail"


GOLDEN = Path(__file__).parent / "data" / "paper_suite_seed0-4.jsonl"


def _suite_rows(bundles, seed, tol=None):
    return [json.dumps(row, sort_keys=True)
            for b in bundles for row in cli.run_suite(b, seed, tol)]


def test_builds_depend_on_no_seed():
    # the golden file holds the rows of seeds 0..4 in order, 25 per seed;
    # bundles first checked at another seed must give the same rows
    golden = GOLDEN.read_text(encoding="utf-8").splitlines()
    per_seed = len(golden) // len(SEEDS)
    bundles = cli.bundled_problems()
    for seed in (3, 0, 4, 1, 2):
        want = golden[seed * per_seed:(seed + 1) * per_seed]
        assert _suite_rows(bundles, seed) == want, seed


def test_builds_depend_on_no_tolerance():
    bundles = cli.bundled_problems()
    _suite_rows(bundles, 0)
    assert _suite_rows(bundles, 0, tol=1e-3) == \
        _suite_rows(cli.bundled_problems(), 0, tol=1e-3)


def _rows(check, case, kind, *args):
    """The rows of ``check(*args)`` at seeds 0..2, without their seeds."""
    rows = []
    for seed in range(3):
        row = cli._row(case, kind, cli._call(check, seed, None, *args))
        assert row.pop("seed") == seed
        rows.append(row)
    return rows


def test_a_build_that_raises_keeps_nothing(bundles):
    # a relation for the source equation's leading coordinate clashes
    # with the source itself: an error row at every seed, never a pass
    bt = replace(bundles["sg_deformed"].backlunds["eq18"].relation)
    (lead, rhs), = bt.source.equations
    clashing = replace(bt, relations=bt.relations + ((lead, rhs + Num(1)),))
    first, *rest = _rows(verify_backlund, "clash", "backlund", clashing)
    assert first["verdict"] == "error"
    assert "ConflictingConstraints" in first["detail"]
    assert rest == [first, first]
    assert clashing._builds == {}
    # u = w with w = u: the chain system for w's derivatives is singular
    js = JetSpace(("x1", "x2"), {"u": ("x1", "x2")})
    a = Ansatz(js=js, targets=[(Jet("u"), Var("w"))], phis={"phi1": ("w",)},
               invariants={"w": Jet("u")})
    eq = EquationSystem(js, [(js.jet("u", "x1", "x2"), Num(0))])
    first, *rest = _rows(derive_reduction, "singular", "derivation", a, eq)
    assert first["verdict"] == "fail"
    assert first["detail"].startswith("implicit invariant chain is singular")
    assert rest == [first, first]
