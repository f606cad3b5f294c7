"""Opt-in rewrites that are not part of default normalization because
they are domain- or branch-sensitive.

``assume_positive`` splits logarithms; ``sqrt_pythagoras`` collapses
sqrt(1 - sin^2/cos^2) under an explicitly asserted branch sign;
``expand_trig`` expands sin/cos/exp of sums so that a chosen set of
symbols can be separated out (used by the reduction deriver).
"""

from __future__ import annotations

from .expr import (
    Add, Expr, Func, Mul, Num, ONE, Pow, ZERO, add, atoms, children,
    func, mul, pow_, rebuild,
)


def assume_positive(e: Expr) -> Expr:
    """ln(a*b) -> ln a + ln b and ln(a^r) -> r*ln a, valid when all the
    pieces are positive.  Applied bottom-up to a fixed point."""
    kids = children(e)
    if kids:
        e = rebuild(e, (assume_positive(k) for k in kids))
    if isinstance(e, Func) and e.name == "ln":
        a = e.arg
        if isinstance(a, Mul):
            return add(*(assume_positive(func("ln", f)) for f in a.factors))
        if isinstance(a, Pow):
            return mul(a.exp, assume_positive(func("ln", a.base)))
        if isinstance(a, Num) and a.value == 1:
            return ZERO
    return e


def _pythagorean_square(base: Expr):
    """Match 1 - sin(t)^2 -> cos(t)^2 and 1 - cos(t)^2 -> sin(t)^2."""
    if not isinstance(base, Add):
        return None
    for name, other in (("sin", "cos"), ("cos", "sin")):
        for t in base.terms:
            if isinstance(t, Mul) and len(t.factors) == 2 and t.factors[0] == Num(-1):
                sq = t.factors[1]
                if isinstance(sq, Pow) and sq.exp == Num(2) and \
                        isinstance(sq.base, Func) and sq.base.name == name:
                    theta = sq.base.arg
                    if base == add(ONE, mul(Num(-1), pow_(func(name, theta), 2))):
                        return pow_(func(other, theta), 2)
    return None


def sqrt_pythagoras(e: Expr, nonneg=()) -> Expr:
    """Rewrite sqrt(1 - sin^2 t) to cos t (and the cos/sin twin) when the
    replacement is in the asserted-nonnegative list."""
    kids = children(e)
    if kids:
        e = rebuild(e, (sqrt_pythagoras(k, nonneg) for k in kids))
    if isinstance(e, Pow) and isinstance(e.exp, Num) and e.exp.value.denominator == 2:
        sq = _pythagorean_square(e.base)
        if sq is not None:
            root = sq.base  # cos t or sin t
            if root in nonneg:
                return pow_(root, mul(Num(2), e.exp))
    return e


def touches(e: Expr, symbols) -> bool:
    """Whether ``e`` contains any of the given symbols."""
    return bool(atoms(e) & symbols)


def _split_sum(arg: Expr, symbols):
    if not isinstance(arg, Add):
        return (arg, ZERO) if touches(arg, symbols) else (ZERO, arg)
    hot = [t for t in arg.terms if touches(t, symbols)]
    cold = [t for t in arg.terms if not touches(t, symbols)]
    return add(*hot) if hot else ZERO, add(*cold) if cold else ZERO


def expand_trig(e: Expr, symbols) -> Expr:
    """Expand sin/cos/exp whose argument mixes the given symbols with
    anything else, so the two groups can be separated."""
    symbols = set(symbols)
    kids = children(e)
    if kids:
        e = rebuild(e, (expand_trig(k, symbols) for k in kids))
    if isinstance(e, Func) and e.name in ("sin", "cos", "exp"):
        hot, cold = _split_sum(e.arg, symbols)
        if hot != ZERO and cold != ZERO:
            if e.name == "exp":
                return mul(Func("exp", hot), Func("exp", cold))
            s_h, c_h = func("sin", hot), func("cos", hot)
            s_c, c_c = func("sin", cold), func("cos", cold)
            if e.name == "sin":
                return add(mul(s_h, c_c), mul(c_h, s_c))
            return add(mul(c_h, c_c), mul(Num(-1), s_h, s_c))
    return e


def reduce_even_cosines(e: Expr, symbols) -> Expr:
    """Replace cos(t)^2 by 1 - sin(t)^2 whenever t touches the given
    symbols, to a fixed point.  Normalizes the polynomial ring in
    {sin t, cos t} to cos-degree <= 1 before coefficient splitting."""
    symbols = set(symbols)

    def step(x: Expr) -> Expr:
        kids = children(x)
        if kids:
            x = rebuild(x, (step(k) for k in kids))
        if isinstance(x, Pow) and isinstance(x.exp, Num) and \
                x.exp.value.denominator == 1 and x.exp.value >= 2 and \
                isinstance(x.base, Func) and x.base.name == "cos" and \
                touches(x.base.arg, symbols):
            n = int(x.exp.value)
            rest = pow_(x.base, Num(n % 2))
            squares = pow_(add(ONE, mul(Num(-1), pow_(func("sin", x.base.arg), 2))),
                           Num(n // 2))
            return mul(rest, squares)
        return x

    for _ in range(8):
        nxt = step(e)
        if nxt == e:
            return e
        e = nxt
    return e
