"""Expression text grammar and round-trip printer.

Precedence, loosest to tightest: ``+ -``, then ``* /``, then unary
minus, then ``^`` (right associative).  Derivatives are written with
brackets (``u[x1,x2]``, order-insensitive), function application with
parentheses (``sin(x)``, ``F'(u)``), and unknown functions of declared
invariant variables as ``phi1(w)`` / ``phi1[w]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .expr import (
    Add, BUILTIN_FUNCTIONS, Expr, ExprError, Func, HALF, Jet, Mul, Num,
    Opaque, Param, Pow, Var, add, func, mul, opaque, pow_,
)


class ParseError(ExprError):
    def __init__(self, message: str, line: int = 1, col: int = 0):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class UndeclaredSymbol(ParseError):
    pass


@dataclass
class SymbolContext:
    """Declared names the parser resolves against."""

    independent: tuple = ()
    params: tuple = ()
    dependents: dict = field(default_factory=dict)  # name -> argument vars
    functions: tuple = ()  # opaque function symbols


# ---------------------------------------------------------------------------
# tokenizer

_OPS = set("+-*/^=(),[]")


@dataclass
class _Token:
    kind: str  # "num" | "name" | "op" | "end"
    text: str
    line: int
    col: int
    value: Fraction | None = None
    primes: int = 0


def tokenize(src: str, line: int = 1):
    toks = []
    i, col = 0, 1
    n = len(src)
    while i < n:
        c = src[i]
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c == "#":
            while i < n and src[i] != "\n":
                i += 1
            continue
        start_col = col
        if c.isdigit() or (c == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (src[j].isdigit() or (src[j] == "." and not seen_dot)):
                if src[j] == ".":
                    seen_dot = True
                j += 1
            text = src[i:j]
            try:
                value = Fraction(text)
            except ValueError:
                raise ParseError(f"bad number {text!r}", line, start_col)
            toks.append(_Token("num", text, line, start_col, value=value))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            name = src[i:j]
            primes = 0
            while j < n and src[j] == "'":
                primes += 1
                j += 1
            toks.append(_Token("name", name, line, start_col, primes=primes))
            col += j - i
            i = j
            continue
        if c in _OPS:
            toks.append(_Token("op", c, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, start_col)
    toks.append(_Token("end", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# Pratt parser

_LBP = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}
_UNARY_BP = 15  # between mul and pow: -x^2 == -(x^2), -x+y == (-x)+y


class _Parser:
    def __init__(self, tokens, ctx: SymbolContext):
        self.toks = tokens
        self.pos = 0
        self.ctx = ctx

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def next(self) -> _Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, text: str) -> _Token:
        t = self.next()
        if t.kind == "end" or t.text != text:
            raise ParseError(f"expected {text!r}, got {t.text or 'end of input'!r}",
                             t.line, t.col)
        return t

    def parse(self, rbp: int = 0) -> Expr:
        left = self.nud(self.next())
        while True:
            t = self.peek()
            if t.kind != "op" or t.text not in _LBP or _LBP[t.text] <= rbp:
                break
            self.next()
            left = self.led(t, left)
        return left

    def nud(self, t: _Token) -> Expr:
        if t.kind == "num":
            return Num(t.value)
        if t.kind == "op" and t.text == "(":
            e = self.parse(0)
            self.expect(")")
            return e
        if t.kind == "op" and t.text == "-":
            return mul(Num(-1), self.parse(_UNARY_BP))
        if t.kind == "op" and t.text == "+":
            return self.parse(_UNARY_BP)
        if t.kind == "name":
            return self.name_atom(t)
        raise ParseError(f"unexpected token {t.text or 'end of input'!r}", t.line, t.col)

    def led(self, t: _Token, left: Expr) -> Expr:
        if t.text == "+":
            return add(left, self.parse(10))
        if t.text == "-":
            return add(left, mul(Num(-1), self.parse(10)))
        if t.text == "*":
            return mul(left, self.parse(20))
        if t.text == "/":
            return mul(left, pow_(self.parse(20), Num(-1)))
        if t.text == "^":
            return pow_(left, self.parse(29))  # right associative
        raise ParseError(f"unexpected operator {t.text!r}", t.line, t.col)

    def name_atom(self, t: _Token) -> Expr:
        name = t.text
        nxt = self.peek()
        if nxt.kind == "op" and nxt.text == "[":
            self.next()
            vars_ = []
            while True:
                v = self.next()
                if v.kind != "name":
                    raise ParseError("expected variable name in derivative index",
                                     v.line, v.col)
                vars_.append(v.text)
                sep = self.next()
                if sep.text == "]":
                    break
                if sep.text != ",":
                    raise ParseError("expected ',' or ']' in derivative index",
                                     sep.line, sep.col)
            return self.make_jet(name, vars_, t)
        if nxt.kind == "op" and nxt.text == "(":
            self.next()
            arg = self.parse(0)
            self.expect(")")
            return self.make_call(name, t.primes, arg, t)
        if t.primes:
            raise ParseError(f"{name!r} with primes must be applied to an argument",
                             t.line, t.col)
        return self.make_symbol(name, t)

    def make_symbol(self, name: str, t: _Token) -> Expr:
        if name in self.ctx.independent:
            return Var(name)
        if name in self.ctx.params:
            return Param(name)
        if name in self.ctx.dependents:
            return Jet(name)
        raise UndeclaredSymbol(f"undeclared symbol {name!r}", t.line, t.col)

    def make_jet(self, name: str, vars_: list, t: _Token) -> Expr:
        args = self.ctx.dependents.get(name)
        if args is None:
            raise UndeclaredSymbol(f"{name!r} is not a dependent variable", t.line, t.col)
        for v in vars_:
            if v not in args:
                raise UndeclaredSymbol(
                    f"{name!r} does not depend on {v!r}", t.line, t.col)
        idx: dict = {}
        for v in vars_:
            idx[v] = idx.get(v, 0) + 1
        return Jet(name, tuple(idx.items()))

    def make_call(self, name: str, primes: int, arg: Expr, t: _Token) -> Expr:
        if name == "sqrt" or name in BUILTIN_FUNCTIONS:
            if primes:
                raise ParseError(f"builtin {name!r} takes no primes", t.line, t.col)
            return func(name, arg)
        if name in self.ctx.functions:
            return opaque(name, arg, primes)
        if name in self.ctx.dependents:
            # phi1(w): order-0 jet written in application form
            args = self.ctx.dependents[name]
            if primes:
                raise ParseError(
                    f"write derivatives of {name!r} as {name}[{','.join(args)}]",
                    t.line, t.col)
            if not (isinstance(arg, Var) and arg.name in args) and \
                    not (len(args) == 1 and isinstance(arg, Var)):
                raise ParseError(
                    f"{name!r} must be applied to its declared argument", t.line, t.col)
            return Jet(name)
        raise UndeclaredSymbol(f"undeclared function {name!r}", t.line, t.col)


def parse_expression(text: str, ctx: SymbolContext, line: int = 1) -> Expr:
    p = _Parser(tokenize(text, line), ctx)
    try:
        e = p.parse(0)
    except RecursionError:
        # the parser descends once per nesting level
        raise ParseError("expression nested too deeply", line) from None
    t = p.peek()
    if t.kind != "end":
        raise ParseError(f"trailing input {t.text!r}", t.line, t.col)
    return e


def parse_equation(text: str, ctx: SymbolContext, line: int = 1):
    """``lhs = rhs`` with a jet coordinate on the left (solved form)."""
    if "=" not in text:
        raise ParseError("equation needs '='", line, 0)
    lhs_text, rhs_text = text.split("=", 1)
    lhs = parse_expression(lhs_text, ctx, line)
    rhs = parse_expression(rhs_text, ctx, line)
    if not isinstance(lhs, Jet):
        raise ParseError("left side must be a single jet coordinate (solved form)", line, 0)
    return lhs, rhs


# ---------------------------------------------------------------------------
# printer

def _p_int(n: int) -> str:
    """``str(n)`` for any integer the kernel folds: in chunks of 4000
    digits past Python's int-to-str limit (4300 digits by default)."""
    if n < 0:
        return "-" + _p_int(-n)
    if n.bit_length() <= 14000:  # at most 4215 digits
        return str(n)
    hi, lo = divmod(n, 10 ** 4000)
    return _p_int(hi) + str(lo).zfill(4000)


def _p_num(v: Fraction) -> str:
    if v.denominator == 1:
        return _p_int(v.numerator)
    return f"{_p_int(v.numerator)}/{_p_int(v.denominator)}"


def _needs_sign(e: Expr) -> bool:
    if isinstance(e, Num):
        return e.value < 0
    if isinstance(e, Mul) and isinstance(e.factors[0], Num):
        return e.factors[0].value < 0
    return False


def _negate(e: Expr) -> Expr:
    return mul(Num(-1), e)


def _print(e: Expr, bp: int) -> str:
    if isinstance(e, Num):
        s = _p_num(e.value)
        inner = _UNARY_BP if e.value < 0 else (20 if e.value.denominator != 1 else 100)
        return f"({s})" if inner <= bp else s
    if isinstance(e, (Var, Param)):
        return e.name
    if isinstance(e, Jet):
        if not e.index:
            return e.dep
        vars_ = [v for v, c in e.index for _ in range(c)]
        return f"{e.dep}[{','.join(vars_)}]"
    if isinstance(e, Func):
        return f"{e.name}({_print(e.arg, 0)})"
    if isinstance(e, Opaque):
        return e.name + "'" * e.order + "(" + _print(e.arg, 0) + ")"
    if isinstance(e, Pow):
        if e.exp == HALF:
            return f"sqrt({_print(e.base, 0)})"
        base = _print(e.base, 30)
        if isinstance(e.exp, Num) and e.exp.value.denominator == 1 and e.exp.value >= 0:
            exp = _p_num(e.exp.value)
        elif isinstance(e.exp, (Var, Param)):
            exp = e.exp.name
        else:
            exp = f"({_print(e.exp, 0)})"
        s = f"{base}^{exp}"
        return f"({s})" if 30 <= bp else s
    if isinstance(e, Mul):
        factors = list(e.factors)
        sign = ""
        if isinstance(factors[0], Num) and factors[0].value < 0:
            sign = "-"
            factors[0] = Num(-factors[0].value)
            if factors[0].value == 1:
                factors = factors[1:]
        s = sign + "*".join(_print(f, 20 - 1) for f in factors)
        limit = _UNARY_BP if sign else 20
        return f"({s})" if limit <= bp else s
    if isinstance(e, Add):
        parts = [_print(e.terms[0], 10 - 1)]
        for t in e.terms[1:]:
            if _needs_sign(t):
                parts.append(" - " + _print(_negate(t), 10))
            else:
                parts.append(" + " + _print(t, 10))
        s = "".join(parts)
        return f"({s})" if 10 <= bp else s
    raise TypeError(type(e))


def print_expression(e: Expr) -> str:
    return _print(e, 0)


def print_equation(lhs: Expr, rhs: Expr) -> str:
    return f"{print_expression(lhs)} = {print_expression(rhs)}"
