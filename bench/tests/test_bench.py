"""Tests of the benchmark itself:  python3 -m pytest bench/tests"""

import importlib.util
import json
import subprocess
import sys
import types
from fractions import Fraction

import pytest

import tracing
import workloads
from worker import VERDICT_FUNCTIONS, RowTimer
from symred.cli import run_suite
from symred.problems import parse_problem


def run_rows(bundle_name, text, seed):
    """symred's rows for one block, shaped like the worker's."""
    records = run_suite(parse_problem(text, name=bundle_name), seed)
    return [[r["case"], r["verdict"], r["residual_max"]] for r in records]


# -- reproducible inputs ------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_repeat_for_a_seed(name):
    make = workloads.WORKLOADS[name]
    a, b = make(7), make(7)
    assert (a.bundles, a.blocks, repr(a.expected)) == (b.bundles, b.blocks, repr(b.expected))
    c = make(8)
    assert (a.bundles, a.blocks) != (c.bundles, c.blocks)


def test_screen_has_a_fixed_share_of_failing_candidates():
    for seed in (0, 1, 2):
        cases = workloads.operator_screen(seed).expected["screen"]
        assert len(cases) == workloads.SCREEN_CANDIDATES
        assert sum(c.verdict == "fail" for _, c in cases) == workloads.SCREEN_FAILING


def test_paper_suite_cases_match_the_bundles():
    wl = workloads.paper_suite(0)
    assert sorted({b for b, _ in wl.blocks}) == sorted(wl.expected)
    assert wl.rows_per_round() == 5 * 25
    fails = [c for cases in wl.expected.values() for c, e in cases if e.verdict == "fail"]
    assert "eq6:thetaFlipped" in fails and "ode32:Qmutant" in fails


# -- each check rejects a flipped expectation --------------------------------

def test_paper_suite_check_rejects_a_flipped_expect():
    wl = workloads.paper_suite(0)
    text = (workloads.DATA / "ode32.prob").read_text(encoding="utf-8")
    rows = run_rows("ode32", text, 0)
    assert workloads.check_block(wl, "ode32", rows) == []
    flipped = text.replace("expect fail", "expect pass", 1)
    wl.expected["ode32"] = workloads.suite_cases("ode32", flipped)
    bad = workloads.check_block(wl, "ode32", rows)
    assert len(bad) == 1 and "ode32:Qmutant" in bad[0]


def test_paper_suite_check_rejects_a_residual_over_tolerance():
    wl = workloads.paper_suite(0)
    text = (workloads.DATA / "eq4.prob").read_text(encoding="utf-8")
    rows = run_rows("eq4", text, 0)
    assert workloads.check_block(wl, "eq4", rows) == []
    rows[0][2] = 1e-3
    bad = workloads.check_block(wl, "eq4", rows)
    assert len(bad) == 1 and "residual_max" in bad[0]


def test_paper_suite_check_rejects_a_missing_row():
    wl = workloads.paper_suite(0)
    text = (workloads.DATA / "eq4.prob").read_text(encoding="utf-8")
    rows = run_rows("eq4", text, 0)
    assert workloads.check_block(wl, "eq4", rows[:-1]) != []


def test_superposition_criterion():
    m = 3
    true = {(3, 0): Fraction(2), (2, 0): Fraction(-1, 3), (0, 1): Fraction(12)}
    assert workloads.solves_linear(true, m)
    assert not workloads.solves_linear({**true, (0, 1): Fraction(13)}, m)
    # u^4 + 4!*u*t: f_t = 24u, f_uuu = 24u
    assert workloads.solves_linear({(4, 0): Fraction(1), (1, 1): Fraction(24)}, m)


def test_ladder_check_rejects_a_flipped_expectation(monkeypatch):
    monkeypatch.setattr(workloads, "LADDER_ORDERS", range(2, 4))
    wl = workloads.prolong_ladder(3)
    (name, text), = wl.bundles
    rows = run_rows(name, text, 3)
    assert [r[1] for r in rows] == ["pass", "fail", "pass", "fail"]
    assert workloads.check_block(wl, name, rows) == []
    case, exp = wl.expected[name][2]
    wl.expected[name][2] = (case, workloads.Case("fail"))
    bad = workloads.check_block(wl, name, rows)
    assert len(bad) == 1 and "ladder:true3" in bad[0]


def test_screen_check_rejects_a_flipped_expectation(monkeypatch):
    monkeypatch.setattr(workloads, "SCREEN_CANDIDATES", 6)
    monkeypatch.setattr(workloads, "SCREEN_FAILING", 4)
    wl = workloads.operator_screen(5)
    (name, text), = wl.bundles
    rows = run_rows(name, text, 5)
    assert workloads.check_block(wl, name, rows) == []
    case, exp = wl.expected[name][0]
    wl.expected[name][0] = (case, workloads.Case("pass" if exp.verdict == "fail" else "fail"))
    bad = workloads.check_block(wl, name, rows)
    assert len(bad) == 1 and case in bad[0]


def test_screen_refuses_facts_that_do_not_separate_the_fields(monkeypatch):
    facts = workloads.load_facts()
    facts["screen"]["symmetry"]["N"] = True
    monkeypatch.setattr(workloads, "load_facts", lambda: facts)
    with pytest.raises(workloads.OracleError):
        workloads.operator_screen(0)


@pytest.mark.skipif(importlib.util.find_spec("sympy") is None, reason="needs sympy")
def test_facts_match_a_fresh_sympy_derivation():
    derive = workloads.HERE / "derive.py"
    done = subprocess.run([sys.executable, str(derive), "--check"], timeout=300)
    assert done.returncode == 0
    facts = json.loads(workloads.FACTS.read_text(encoding="utf-8"))
    assert facts["screen"]["symmetry"] == {"D": True, "Q": True, "N": False}


# -- row timing and tracing ---------------------------------------------------

def test_equivalence_call_joins_the_derivation_row():
    cli = types.SimpleNamespace(**{n: (lambda *a, **k: None) for n in VERDICT_FUNCTIONS})
    timer = RowTimer(cli)
    cli.check_classical()
    cli.derive_reduction()
    cli.systems_equivalent()
    cli.derive_reduction()
    assert len(timer.rows(0)) == 3


def test_residual_sizes_count_tree_and_distinct_nodes():
    from symred.expr import Var, add, func

    s = add(Var("x"), Var("y"))
    e = add(func("sin", s), func("cos", s))
    tree, unique = tracing.residual_sizes([e])
    assert (tree, unique) == (9, 6)
    assert tracing.residual_sizes([e, e]) == (18, 12)
