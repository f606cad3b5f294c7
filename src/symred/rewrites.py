"""Opt-in rewrites that are not part of default normalization because
they are domain- or branch-sensitive.

``assume_positive`` splits logarithms; ``sqrt_pythagoras`` collapses
sqrt(1 - sin^2/cos^2) under an explicitly asserted branch sign;
``expand_trig`` expands sin/cos/exp of sums so that a chosen set of
symbols can be separated out (used by the reduction deriver).
"""

from __future__ import annotations

from .expr import (
    Add, Expr, Func, Mul, Num, ONE, Pow, ZERO, add, fold, func, mul, pow_,
    rewrite,
)


def assume_positive(e: Expr) -> Expr:
    """ln(a*b) -> ln a + ln b and ln(a^r) -> r*ln a, valid when all the
    pieces are positive.  Applied bottom-up to a fixed point."""
    def post(x: Expr) -> Expr:
        if isinstance(x, Func) and x.name == "ln":
            a = x.arg
            if isinstance(a, Mul):
                return add(*(assume_positive(func("ln", f)) for f in a.factors))
            if isinstance(a, Pow):
                return mul(a.exp, assume_positive(func("ln", a.base)))
            if isinstance(a, Num) and a.value == 1:
                return ZERO
        return x

    return rewrite(e, post)


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
    def post(x: Expr) -> Expr:
        if isinstance(x, Pow) and isinstance(x.exp, Num) and x.exp.value.denominator == 2:
            sq = _pythagorean_square(x.base)
            if sq is not None:
                root = sq.base  # cos t or sin t
                if root in nonneg:
                    return pow_(root, mul(Num(2), x.exp))
        return x

    return rewrite(e, post)


def touches(e: Expr, symbols, memo: dict | None = None) -> bool:
    """Whether ``e`` contains any of the given symbols.  ``memo``, a
    caller-owned ``{node: bool}``, keeps each node's answer, so a walk
    that asks about many overlapping trees tests each node once."""
    return fold(e, lambda n, kids: n in symbols or any(kids),
                {} if memo is None else memo)


def _split_sum(arg: Expr, symbols, memo: dict | None = None):
    if not isinstance(arg, Add):
        return (arg, ZERO) if touches(arg, symbols, memo) else (ZERO, arg)
    hot = [t for t in arg.terms if touches(t, symbols, memo)]
    cold = [t for t in arg.terms if not touches(t, symbols, memo)]
    return add(*hot) if hot else ZERO, add(*cold) if cold else ZERO


def expand_trig(e: Expr, symbols) -> Expr:
    """Expand sin/cos/exp whose argument mixes the given symbols with
    anything else, so the two groups can be separated."""
    symbols = set(symbols)
    hot_memo: dict = {}

    def post(x: Expr) -> Expr:
        if isinstance(x, Func) and x.name in ("sin", "cos", "exp"):
            hot, cold = _split_sum(x.arg, symbols, hot_memo)
            if hot != ZERO and cold != ZERO:
                if x.name == "exp":
                    return mul(Func("exp", hot), Func("exp", cold))
                s_h, c_h = func("sin", hot), func("cos", hot)
                s_c, c_c = func("sin", cold), func("cos", cold)
                if x.name == "sin":
                    return add(mul(s_h, c_c), mul(c_h, s_c))
                return add(mul(c_h, c_c), mul(Num(-1), s_h, s_c))
        return x

    return rewrite(e, post)


def reduce_even_cosines(e: Expr, symbols) -> Expr:
    """Replace cos(t)^2 by 1 - sin(t)^2 whenever t touches the given
    symbols, to a fixed point.  Normalizes the polynomial ring in
    {sin t, cos t} to cos-degree <= 1 before coefficient splitting."""
    symbols = set(symbols)
    hot_memo: dict = {}
    matched = False

    def post(x: Expr) -> Expr:
        nonlocal matched
        if isinstance(x, Pow) and isinstance(x.exp, Num) and \
                x.exp.value.denominator == 1 and x.exp.value >= 2 and \
                isinstance(x.base, Func) and x.base.name == "cos" and \
                touches(x.base.arg, symbols, hot_memo):
            matched = True
            n = int(x.exp.value)
            rest = pow_(x.base, Num(n % 2))
            squares = pow_(add(ONE, mul(Num(-1), pow_(func("sin", x.base.arg), 2))),
                           Num(n // 2))
            return mul(rest, squares)
        return x

    # a later pass that matches nothing gives its input back: the fixed
    # point, found without == (which recurses once per level).  The first
    # may renormalise raw nodes into a match.  One memo per pass.
    for i in range(8):
        matched = False
        hot_memo.clear()
        e = rewrite(e, post)
        if not matched and i:
            break
    return e
