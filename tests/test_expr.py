import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from symred.expr import (
    Add, DomainFault, Jet, Mul, Num, Opaque, OpaqueInstance, Param,
    ParameterBinding, Pow, UnboundSymbol, Var, ZERO, ONE, add, atoms,
    diff_partial, eval_numeric, expand, func, mul, opaque, pow_, simplify,
    substitute,
)
from symred.numeric import SolutionSpec
from symred.parser import SymbolContext, parse_expression

x = Var("x")
y = Var("y")


def test_add_flattens_and_collects():
    e = add(x, x, Num(2), Num(3))
    assert e == add(mul(Num(2), x), Num(5))


def test_add_drops_zero_terms():
    assert add(x, ZERO) == x
    assert add(ZERO, ZERO) == ZERO


def test_mul_collects_powers():
    assert mul(x, x) == pow_(x, Num(2))
    assert mul(x, pow_(x, Num(-1))) == ONE


def test_mul_zero_annihilates():
    assert mul(x, ZERO, y) == ZERO


def test_pow_integer_exponents_fold():
    assert pow_(Num(2), Num(10)) == Num(1024)
    assert pow_(x, Num(1)) == x
    assert pow_(x, Num(0)) == ONE


def test_pow_zero_base():
    assert pow_(ZERO, Num(3)) == ZERO
    # 0^0 is taken to be 1 by convention
    assert pow_(ZERO, ZERO) == ONE


def test_pow_keeps_huge_constant_powers_symbolic():
    # folding 3^(10^8) exactly would not finish, so the parse runs in a
    # child process with a time limit
    code = ("from symred.parser import SymbolContext, parse_expression\n"
            "print(parse_expression('3^(10^8)', SymbolContext()))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src")] +
        [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "3^100000000"
    ctx = SymbolContext()
    assert parse_expression("2^10", ctx) == Num(1024)
    assert parse_expression("(2/3)^-3", ctx) == Num(Fraction(27, 8))
    assert pow_(Num(-1), Num(10 ** 8 + 1)) == Num(-1)
    assert pow_(ONE, Num(10 ** 9)) == ONE
    assert pow_(ZERO, Num(10 ** 9)) == ZERO
    assert isinstance(pow_(Num(2), Num(10 ** 8)), Pow)


def test_num_keeps_exact_rationals():
    third = Num(Fraction(1, 3))
    assert add(third, third, third) == ONE


def test_known_function_values():
    assert eval_numeric(func("sin", ZERO)) == pytest.approx(0.0)
    assert eval_numeric(func("ln", ONE)) == pytest.approx(0.0)
    assert eval_numeric(func("exp", ZERO)) == pytest.approx(1.0)


def test_odd_function_sign_is_canonical_when_both_signs_lead_negative():
    # -2*x + 3*y and its negation -3*y + 2*x both lead with a negative
    # term.  Every way of writing the argument must give one Func
    # argument, and rebuilding a result from its parts must give it back.
    a = add(mul(Num(-2), x), mul(Num(3), y))
    b = add(mul(Num(2), x), mul(Num(-3), y))
    forms = (a, b, Mul((Num(-1), a)), Mul((Num(-1), b)))
    for name in ("sin", "cos"):
        args = set()
        for arg in forms:
            r = func(name, arg)
            if isinstance(r, Mul):
                assert mul(r.factors[0], func(name, r.factors[1].arg)) == r
                args.add(r.factors[1].arg)
            else:
                assert func(name, r.arg) == r
                args.add(r.arg)
        assert len(args) == 1


def test_exp_ln_composition_preserved():
    # exp(ln x) is kept structurally: the composition carries the x > 0
    # domain restriction, which folding would silently drop
    e = simplify(func("exp", func("ln", x)))
    assert e == func("exp", func("ln", x))
    assert eval_numeric(e, {x: 2.5}) == pytest.approx(2.5)


def test_jet_order_and_lift():
    u1 = Jet("u", (("x1", 1),))
    u12 = u1.lift("x2")
    assert u12 == Jet("u", (("x1", 1), ("x2", 1)))
    assert u12.order == 2
    assert Jet("u").order == 0


def test_jet_index_is_sorted():
    a = Jet("u", (("x2", 1), ("x1", 1)))
    b = Jet("u", (("x1", 1), ("x2", 1)))
    assert a == b


def test_diff_polynomial():
    e = pow_(x, Num(3)) + Num(2) * x
    assert simplify(diff_partial(e, x)) == \
        simplify(Num(3) * pow_(x, Num(2)) + Num(2))


def test_diff_chain_rule():
    e = func("sin", pow_(x, Num(2)))
    d = simplify(diff_partial(e, x))
    assert d == simplify(Num(2) * x * func("cos", pow_(x, Num(2))))


def test_diff_quotient():
    e = x / (x + Num(1))
    d = simplify(diff_partial(e, x))
    # d = 1/(x+1) - x/(x+1)^2 = 1/(x+1)^2
    val = eval_numeric(d, {x: 2.0})
    assert val == pytest.approx(1.0 / 9.0)

def test_diff_opaque_raises_order():
    e = opaque("F", x)
    d = simplify(diff_partial(e, x))
    assert d == opaque("F", x, order=1)


def test_diff_wrt_absent_symbol_is_zero():
    assert diff_partial(func("exp", y), x) == ZERO


def test_expand_distributes():
    e = expand((x + y) * (x - y))
    assert simplify(expand(e - (pow_(x, Num(2)) - pow_(y, Num(2))))) == ZERO


def test_expand_multiplies_out_integer_powers_of_sums():
    # x*x folds back to x^2, so a power is multiplied out term by term
    assert expand(pow_(x + y, Num(2))) == \
        add(pow_(x, Num(2)), mul(Num(2), x, y), pow_(y, Num(2)))
    assert expand(pow_(x - Num(1), Num(3))) == \
        add(pow_(x, Num(3)), mul(Num(-3), pow_(x, Num(2))), mul(Num(3), x),
            Num(-1))


def test_substitute_jet():
    u1 = Jet("u", (("x1", 1),))
    e = pow_(u1, Num(2)) + u1
    out = substitute(e, {u1: x})
    assert out == pow_(x, Num(2)) + x


def test_atoms_by_kind():
    e = x * Param("C") + Jet("u", (("x1", 1),))
    assert atoms(e, Var) == {x}
    assert atoms(e, Param) == {Param("C")}
    assert atoms(e, Jet) == {Jet("u", (("x1", 1),))}


def test_eval_numeric_basic():
    e = func("sin", x) + pow_(y, Num(2))
    v = eval_numeric(e, {x: 0.5, y: 2.0})
    assert v == pytest.approx(math.sin(0.5) + 4.0)


def test_eval_numeric_unbound_raises():
    with pytest.raises(UnboundSymbol):
        eval_numeric(x + y, {x: 1.0})


def test_eval_numeric_domain_fault():
    with pytest.raises(DomainFault):
        eval_numeric(func("ln", x), {x: -1.0})


def test_eval_numeric_param_binding():
    b = ParameterBinding({"C": 2.5})
    assert eval_numeric(Param("C") * x, {x: 2.0}, b) == pytest.approx(5.0)


def test_opaque_instance_polynomial():
    inst = OpaqueInstance.from_polynomial([1.0, 0.0, 3.0])  # 1 + 3 x^2
    b = ParameterBinding({}, {"F": inst})
    e = opaque("F", x, order=1)  # F'(x) = 6 x
    assert eval_numeric(e, {x: 2.0}, b) == pytest.approx(12.0)


def test_opaque_instance_sin_derivative_cycle():
    spec = SolutionSpec("s", fn_binds={"F": ("sin",)})
    inst = spec.make_binding().functions["F"]
    assert inst(0, 0.3) == pytest.approx(math.sin(0.3))
    assert inst(1, 0.3) == pytest.approx(math.cos(0.3))
    assert inst(4, 0.3) == pytest.approx(math.sin(0.3))
    assert inst(6, 0.3) == pytest.approx(-math.sin(0.3))
    assert inst(7, 0.3) == pytest.approx(-math.cos(0.3))
    with pytest.raises(UnboundSymbol):
        inst(8, 0.3)


def test_opaque_instance_constant_answers_every_order():
    spec = SolutionSpec("s", fn_binds={"F": ("const", 2.0)})
    inst = spec.make_binding().functions["F"]
    assert inst(0, 0.3) == 2.0
    assert inst(7, 0.3) == 0.0


def test_operator_overloads_build_exprs():
    e = (x + 1) * (y - 2) / x ** 2
    assert isinstance(e, (Add, Mul, Pow, Opaque)) or e is not None
    v = eval_numeric(e, {x: 2.0, y: 5.0})
    assert v == pytest.approx(3 * 3 / 4)


def test_simplify_idempotent_on_samples():
    samples = [
        (x + y) ** 2 / (x - y),
        func("sin", x) * func("cos", y) - func("exp", x + y),
        pow_(x, Num(Fraction(1, 2))) * pow_(x, Num(Fraction(3, 2))),
    ]
    for e in samples:
        s = simplify(e)
        assert simplify(s) == s
