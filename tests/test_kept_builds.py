"""Each entry's symbolic work is built once and reused across seeds.

A solution keeps, per system it is checked against, what its residual
check derives without a seed: the chain derivatives of an implicit
solution, the restricted residuals of an explicit one.  An
overdetermined pair keeps, per jet space, its elimination and the
Jacobian of its relations.  These tests count the symbolic calls of each
check across seeds and compare every kept result with a fresh copy of
the entry, so a build reused where it does not belong (another system,
a changed copy) shows as a wrong verdict or a missing build."""

from dataclasses import replace

import pytest

from symred import numeric, reduce
from symred.expr import Num
from symred.jets import JetSpace
from symred.numeric import residual_explicit, residual_implicit
from symred.reduce import check_overdetermined
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


CASES = {"eq6:implicitTheta": _implicit, "ode32:eq38": _explicit,
         "eq2:pairAfter5": _pair}


@pytest.fixture(params=sorted(CASES))
def case(request, bundles):
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


def test_one_build_per_system(case):
    check, system, spec, module, name = case
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
