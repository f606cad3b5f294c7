import pytest

from symred.expr import Jet, Num, Param, Var, func, mul, opaque, pow_
from symred.parser import (
    ParseError, SymbolContext, UndeclaredSymbol, parse_equation,
    parse_expression, print_equation, print_expression,
)

CTX = SymbolContext(
    independent=("x1", "x2", "w"),
    params=("C", "alpha"),
    dependents={"u": ("x1", "x2"), "phi1": ("w",)},
    functions=("F",),
)


def P(text):
    return parse_expression(text, CTX)


def test_precedence_mul_over_add():
    assert P("x1 + x2*C") == Var("x1") + Var("x2") * Param("C")


def test_precedence_pow_over_mul():
    assert P("2*x1^3") == Num(2) * pow_(Var("x1"), Num(3))


def test_pow_right_associative():
    assert P("x1^2^3") == pow_(Var("x1"), pow_(Num(2), Num(3)))


def test_unary_minus():
    assert P("-x1^2") == -pow_(Var("x1"), Num(2))
    assert P("(-x1)^2") == pow_(-Var("x1"), Num(2))


def test_division_groups_left():
    e = P("x1/x2/C")
    v = P("x1 * x2^(-1) * C^(-1)")
    assert e == v


def test_jet_coordinates():
    assert P("u[x1,x2]") == Jet("u", (("x1", 1), ("x2", 1)))
    assert P("u[x1,x1]") == Jet("u", (("x1", 2),))


def test_builtin_call():
    assert P("sin(x1 + x2)") == func("sin", Var("x1") + Var("x2"))


def test_opaque_call_and_primes():
    assert P("F(x1)") == opaque("F", Var("x1"))
    assert P("F''(x1)") == opaque("F", Var("x1"), order=2)


def test_dependent_application_is_order_zero_jet():
    assert P("phi1(w)") == Jet("phi1")


def test_equation_solved_form():
    lhs, rhs = parse_equation("u[x1,x2] = C*u[x1]", CTX)
    assert lhs == Jet("u", (("x1", 1), ("x2", 1)))
    assert rhs == Param("C") * Jet("u", (("x1", 1),))


def test_equation_lhs_must_be_jet():
    with pytest.raises(ParseError):
        parse_equation("x1 + u = 0", CTX)


def test_undeclared_symbol_rejected():
    with pytest.raises(UndeclaredSymbol):
        P("x1 + bogus")


def test_unbalanced_parens_rejected():
    with pytest.raises(ParseError):
        P("(x1 + x2")


def test_empty_input_rejected():
    with pytest.raises(ParseError):
        P("")


def test_error_carries_position():
    try:
        parse_expression("x1 * * x2", CTX, line=7)
    except ParseError as e:
        assert e.line == 7
    else:
        pytest.fail("expected a ParseError")


GOLDEN = [
    "x1 + x2",
    "2*x1 - x2^2",
    "u[x1,x2]",
    "C*u[x1] + sin(u)",
    "1/(exp(u[x1]) - C)",
    "sqrt(1 - C^2*u[x2]^2)",
    "F(u + ln(u[x1]))",
    "alpha*(x2 + C*u[x2])",
    "phi1[w]",
    "-x1*phi1(w)^2",
]


@pytest.mark.parametrize("text", GOLDEN)
def test_print_parse_round_trip(text):
    e = P(text)
    printed = print_expression(e)
    assert parse_expression(printed, CTX) == e


def test_integers_past_the_int_to_str_limit_print_in_full():
    # the kernel folds integers of more than 4300 digits, Python's
    # int-to-str limit
    assert print_expression(Num(10 ** 4400)) == "1" + "0" * 4400
    assert print_expression(Num(-(10 ** 9000) + 7)) == "-" + "9" * 8999 + "3"


def test_print_equation_round_trips():
    lhs, rhs = parse_equation("u[x2,x2] = 1/(exp(u[x1]) - C)", CTX)
    text = print_equation(lhs, rhs)
    assert parse_equation(text, CTX) == (lhs, rhs)


def test_sqrt_is_half_power():
    assert P("sqrt(x1)") == pow_(Var("x1"), Num(1) / Num(2))
