"""Acceptance gate: the ten headline criteria, each at its stated
tolerance and time budget."""

import random
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from symred.checks import (
    check_classical, check_conditional, check_lie_backlund, novelty_diagnostic,
)
from symred.expr import Num, Var
from symred.jets import JetSpace, VectorField
from symred.numeric import residual_explicit, residual_implicit
from symred.reduce import (
    check_overdetermined, derive_reduction, systems_equivalent,
    verify_backlund, verify_reduction,
)
from symred.zerotest import Result


def timed(budget):
    class _Timer:
        def __enter__(self):
            self.t0 = time.perf_counter()
            return self

        def __exit__(self, *exc):
            self.elapsed = time.perf_counter() - self.t0
            assert self.elapsed < budget, \
                f"budget {budget}s exceeded: {self.elapsed:.2f}s"
    return _Timer()


def test_criterion_1_classical_symmetry(bundles):
    b = bundles["eq3"]
    with timed(1.0):
        rep = check_classical(b.operators["halfQminusD"].operator,
                              b.equations["sys3"], seed=0)
    assert rep.passed
    assert abs(rep.witness_value) < 1e-9


def test_criterion_2_conditional_symmetry(bundles):
    b = bundles["sg_deformed"]
    sys_ = b.equations["sys89"]
    with timed(1.0):
        rep = check_conditional(b.operators["Qcond"].operator, sys_, seed=0)
    assert rep.passed
    with timed(1.0):
        bad = check_conditional(b.operators["QcondPerturbed"].operator,
                                sys_, seed=0)
    assert bad.verdict == "fail"
    assert bad.witness is not None  # numeric witness point


def test_criterion_3_lie_backlund_symmetry(bundles):
    b = bundles["ode32"]
    ode = b.equations["ode32"]
    with timed(2.0):
        assert check_lie_backlund(b.operators["Q1"].operator, ode).passed
        assert check_lie_backlund(b.operators["Q2"].operator, ode).passed
        rep = check_lie_backlund(b.operators["Qmutant"].operator, ode)
    assert rep.verdict == "fail"


REDUCTION_CASES = [
    ("eq3", "ansatz4", "sys3", "eq4"),
    ("sg_deformed", "eq16", "eq7", "eq17"),
    ("ode32", "logAnsatz", "eq35", "eq36"),
]


@pytest.mark.parametrize("bname,aname,oname,cname", REDUCTION_CASES)
def test_criterion_4_verify_reduction(bundles, bname, aname, oname, cname):
    b = bundles[bname]
    with timed(5.0):
        rep = verify_reduction(b.ansatzes[aname].ansatz, b.equations[oname],
                               b.reduced[cname], seed=0)
    assert rep.passed


@pytest.mark.parametrize("bname,aname,oname,cname", REDUCTION_CASES[1:])
def test_criterion_4_derive_reduction(bundles, bname, aname, oname, cname):
    b = bundles[bname]
    with timed(5.0):
        out = derive_reduction(b.ansatzes[aname].ansatz, b.equations[oname],
                               seed=0)
        assert not isinstance(out, Result)
        # cross-verify both directions: the derived system supports the
        # original through the ansatz, and is algebraically equivalent to
        # the bundled candidate
        back = verify_reduction(b.ansatzes[aname].ansatz, b.equations[oname],
                                out, seed=0)
        eq = systems_equivalent(out, b.reduced[cname], seed=0,
                                constraints=b.param_constraints)
    assert back.passed
    assert eq.passed


def test_criterion_5_explicit_solutions(bundles):
    b4 = bundles["eq4"]
    spec = b4.solutions["eq5"]
    sys_ = b4.system(spec.of)
    rng = random.Random(0)
    for _ in range(8):
        binds = {"alpha": rng.uniform(0.5, 1.5), "C1": rng.uniform(1.5, 3.0)}
        rep = residual_explicit(replace(spec, binds=binds), sys_)
        assert rep.verdict != "inconclusive"
        assert rep.points_tested >= 64
        assert rep.witness_value < 1e-9, binds

    ode = bundles["ode32"]
    for name, tol in (("eq38", 1e-8), ("constantF", 1e-12)):
        spec = ode.solutions[name]
        sys_ = ode.system(spec.of)
        rep = residual_explicit(spec, sys_)
        assert rep.verdict != "inconclusive"
        assert rep.witness_value < tol


def test_criterion_6_implicit_solution(bundles):
    b = bundles["eq6"]
    sys_ = b.system("eq6")

    def run(name):
        spec = b.solutions[name]
        assert spec.h == 1e-4 and spec.grid == (5, 5)
        return residual_implicit(spec, sys_)

    good = run("implicitTheta")
    assert good.verdict != "inconclusive"
    assert good.points_skipped <= 0.2 * (good.points_tested + good.points_skipped)
    assert good.witness_value < 1e-4
    flipped = run("thetaFlipped")
    assert flipped.witness_value >= 1e3 * 1e-4


def test_criterion_7_backlund(bundles):
    b = bundles["sg_deformed"]
    with timed(2.0):
        assert verify_backlund(b.backlunds["eq18"].relation, seed=0).passed
        rep = verify_backlund(b.backlunds["eq18doubled"].relation, seed=0)
    assert rep.verdict == "fail"


def test_criterion_8_overdetermined_pair(bundles):
    b = bundles["eq2"]
    spec = b.overdetermined["pairAfter5"]
    rep = check_overdetermined(spec, b.space, seed=0)
    assert rep.passed


def _translations():
    return [VectorField({"x1": Num(1)}, {}, name="X1"),
            VectorField({"x2": Num(1)}, {}, name="X2")]


def test_criterion_9_novelty_diagnostic():
    js = JetSpace(("x1", "x2"), {"u": ("x1", "x2")})
    family = [VectorField({"x1": Num(1)}, {}, name="Q1"),
              VectorField({"x2": Num(1)}, {}, name="Q2")]
    # s = 2 operators, t = 1 constant in the reduced general solution
    for seed in range(5):
        diag = novelty_diagnostic(_translations(), family, t=1, js=js,
                                  seed=seed)
        assert diag.s == diag.t + 1
        assert diag.conclusion is True
    bad = VectorField({"x1": Num(1)}, {"u": Var("x1")}, name="bad")
    for seed in range(5):
        diag = novelty_diagnostic([_translations()[0], bad], family, t=1,
                                  js=js, seed=seed)
        assert diag.conclusion is False


def test_criterion_10_property_suites():
    target = Path(__file__).with_name("test_properties.py")
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", str(target), "-q", "-p",
         "no:cacheprovider"],
        capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 60.0
