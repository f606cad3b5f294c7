"""Immutable symbolic expression kernel.

Every expression is normalized on construction: sums and products are
flattened and sorted under a fixed total order, numeric constants are
folded exactly (Fraction arithmetic), like terms are collected, and
same-base powers in a product are merged.  No domain-unsafe rewriting
happens by default: ``exp(ln(x))`` stays as written, ``ln(a*b)`` is never
split.  Opt-in rewrites live in :mod:`symred.rewrites`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Iterable, Mapping


class ExprError(Exception):
    pass


class UnboundSymbol(ExprError):
    pass


class DomainFault(ExprError):
    """Numeric evaluation left the real domain (ln of non-positive,
    sqrt of negative, division by zero, or a NaN/Inf intermediate)."""


class IterationCapExceeded(ExprError):
    pass


BUILTIN_FUNCTIONS = ("sin", "cos", "tan", "arctan", "exp", "ln", "abs")

_KIND_NUM = 0
_KIND_VAR = 1
_KIND_PARAM = 2
_KIND_JET = 3
_KIND_FUNC = 4
_KIND_OPAQUE = 5
_KIND_POW = 6
_KIND_MUL = 7
_KIND_ADD = 8


class Expr:
    """Base class; all nodes are immutable and hashable.

    Nodes are slotted.  Besides its fields, a node has three cache
    slots, set with ``object.__setattr__`` and unset until first use:
    ``_hash``, its hash, computed the first time it is asked for;
    ``_key``, its :func:`sort_key`, which holds its children's keys; and
    ``_tape``, the tape numeric evaluation runs, built the first
    time the node is evaluated.  All three live as long as the node
    does.  Pickling keeps only the fields.
    """

    __slots__ = ("_hash", "_tape", "_key")

    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return add(self, mul(NUM_MINUS_ONE, _coerce(other)))

    def __rsub__(self, other):
        return add(_coerce(other), mul(NUM_MINUS_ONE, self))

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        return mul(self, pow_(_coerce(other), NUM_MINUS_ONE))

    def __rtruediv__(self, other):
        return mul(_coerce(other), pow_(self, NUM_MINUS_ONE))

    def __pow__(self, other):
        return pow_(self, _coerce(other))

    def __neg__(self):
        return mul(NUM_MINUS_ONE, self)

    def __repr__(self):  # debug aid; the parser module owns pretty printing
        from . import parser

        return parser.print_expression(self)


def _hash_once(cls):
    """Make a node class store the dataclass field hash on the node the
    first time it is computed.  The value is still the field hash, so
    sets of nodes iterate in the same order as with the plain dataclass
    hash."""
    field_hash = cls.__hash__

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = field_hash(self)
            object.__setattr__(self, "_hash", h)
            return h

    cls.__hash__ = __hash__
    return cls


@_hash_once
@dataclass(frozen=True, repr=False, slots=True)
class Num(Expr):
    value: Fraction

    def __post_init__(self):
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))


@_hash_once
@dataclass(frozen=True, repr=False, slots=True)
class Var(Expr):
    """Independent variable (also used for invariant variables)."""

    name: str


@_hash_once
@dataclass(frozen=True, repr=False, slots=True)
class Param(Expr):
    name: str


@_hash_once
@dataclass(frozen=True, repr=False, slots=True)
class Jet(Expr):
    """Jet coordinate: dependent variable with a derivative multi-index.

    ``index`` is a sorted tuple of (variable name, count>0) pairs; the
    empty tuple denotes the dependent variable itself.  Mixed partials
    are identified automatically by this representation.
    """

    dep: str
    index: tuple = ()

    def __post_init__(self):
        idx = tuple(sorted((v, int(c)) for v, c in self.index if c))
        if any(c < 0 for _, c in idx):
            raise ValueError("negative derivative count")
        object.__setattr__(self, "index", idx)

    @property
    def order(self) -> int:
        return sum(c for _, c in self.index)

    def lift(self, var: str, by: int = 1) -> "Jet":
        d = dict(self.index)
        d[var] = d.get(var, 0) + by
        return Jet(self.dep, tuple(d.items()))


@_hash_once
@dataclass(frozen=True, repr=False, slots=True)
class Add(Expr):
    terms: tuple


@_hash_once
@dataclass(frozen=True, repr=False, slots=True)
class Mul(Expr):
    factors: tuple


@_hash_once
@dataclass(frozen=True, repr=False, slots=True)
class Pow(Expr):
    base: Expr
    exp: Expr


@_hash_once
@dataclass(frozen=True, repr=False, slots=True)
class Func(Expr):
    """Builtin unary function application (sqrt normalizes to Pow ^1/2)."""

    name: str
    arg: Expr


@_hash_once
@dataclass(frozen=True, repr=False, slots=True)
class Opaque(Expr):
    """Opaque function symbol applied to one argument.

    ``order`` counts formal derivatives: F is order 0, F' order 1, ...
    """

    name: str
    arg: Expr
    order: int = 0


# The coefficient of every term that has none of its own.  ``add`` and
# ``mul`` test for it by identity before any Fraction comparison.
_UNIT = Fraction(1)

ZERO = Num(Fraction(0))
ONE = Num(_UNIT)
NUM_MINUS_ONE = Num(Fraction(-1))
HALF = Num(Fraction(1, 2))


def _coerce(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, Fraction)):
        return Num(Fraction(v))
    raise TypeError(f"cannot coerce {v!r} to Expr")


def integer(n) -> Num:
    return Num(Fraction(n))


def rational(p, q) -> Num:
    return Num(Fraction(p, q))


# ---------------------------------------------------------------------------
# total order on nodes

def sort_key(e: Expr):
    """The node's place in the total order.  Computed once per node and
    then read from its ``_key`` slot; a parent's key holds its
    children's key tuples."""
    try:
        return e._key
    except AttributeError:
        pass
    if isinstance(e, Num):
        key = (_KIND_NUM, e.value)
    elif isinstance(e, Var):
        key = (_KIND_VAR, e.name)
    elif isinstance(e, Param):
        key = (_KIND_PARAM, e.name)
    elif isinstance(e, Jet):
        key = (_KIND_JET, e.dep, e.index)
    elif isinstance(e, Func):
        key = (_KIND_FUNC, e.name, sort_key(e.arg))
    elif isinstance(e, Opaque):
        key = (_KIND_OPAQUE, e.name, e.order, sort_key(e.arg))
    elif isinstance(e, Pow):
        key = (_KIND_POW, sort_key(e.base), sort_key(e.exp))
    elif isinstance(e, Mul):
        key = (_KIND_MUL, tuple(map(sort_key, e.factors)))
    elif isinstance(e, Add):
        key = (_KIND_ADD, tuple(map(sort_key, e.terms)))
    else:
        raise TypeError(type(e))
    object.__setattr__(e, "_key", key)
    return key


# ---------------------------------------------------------------------------
# normalizing constructors

def _split_coeff(term: Expr):
    """term -> (rational coefficient, non-numeric rest or None)."""
    if isinstance(term, Num):
        return term.value, None
    if isinstance(term, Mul) and isinstance(term.factors[0], Num):
        rest = term.factors[1:]
        if not rest:  # an unnormalized one-factor product of a number
            return term.factors[0].value, None
        rest_e = rest[0] if len(rest) == 1 else Mul(rest)
        return term.factors[0].value, rest_e
    return _UNIT, term


def add(*terms) -> Expr:
    flat = []
    for t in terms:
        t = _coerce(t)
        if isinstance(t, Add):
            flat.extend(t.terms)
        else:
            flat.append(t)
    # a term's first coefficient is stored as it is; Fractions are added
    # only when a second like term comes
    const = None
    by_rest: dict = {}
    for t in flat:
        c, rest = _split_coeff(t)
        if rest is None:
            const = c if const is None else const + c
        else:
            prev = by_rest.get(rest)
            by_rest[rest] = c if prev is None else prev + c
    out = []
    for rest, c in by_rest.items():
        if c is _UNIT:
            out.append(rest)
        elif c:
            out.append(rest if c == 1 else mul(Num(c), rest))
    out.sort(key=sort_key)
    if const:
        out.insert(0, Num(const))
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    return Add(tuple(out))


def _split_power(f: Expr):
    if isinstance(f, Pow):
        return f.base, f.exp
    return f, ONE


def mul(*factors) -> Expr:
    flat = []
    for f in factors:
        f = _coerce(f)
        if isinstance(f, Mul):
            flat.extend(f.factors)
        else:
            flat.append(f)
    coeff = _UNIT
    by_base: dict = {}
    for f in flat:
        if isinstance(f, Num):
            coeff = f.value if coeff is _UNIT else coeff * f.value
            continue
        base, exp = _split_power(f)
        exps = by_base.get(base)
        if exps is None:
            by_base[base] = [exp]
        else:
            exps.append(exp)
    if not coeff:
        return ZERO
    out = []
    redo = False
    for base, exps in by_base.items():
        # a lone factor to the power 1 is the factor itself
        p = base if len(exps) == 1 and exps[0] is ONE else \
            pow_(base, add(*exps))
        if isinstance(p, Num):
            coeff = p.value if coeff is _UNIT else coeff * p.value
        elif isinstance(p, Mul):
            # pow_ distributed an integer exponent over a product; the new
            # factors may merge with other bases, so renormalize once more
            redo = True
            out.append(p)
        else:
            out.append(p)
    if not coeff:
        return ZERO
    if redo:
        return mul(Num(coeff), *out)
    out.sort(key=sort_key)
    if coeff is not _UNIT and coeff != 1:
        out.insert(0, Num(coeff))
    if not out:
        return ONE
    if len(out) == 1:
        return out[0]
    return Mul(tuple(out))


# An integer power of a rational folds exactly only while this bounds
# the bits of its numerator and denominator; larger powers (3^(10^8) in
# an input bundle) stay symbolic instead of taking unbounded time and
# memory.
MAX_FOLD_BITS = 65536


def _folds(b: Fraction, n: int) -> bool:
    if abs(b) == 1 or b == 0:
        return True
    return abs(n) * max(b.numerator.bit_length(), b.denominator.bit_length()) \
        <= MAX_FOLD_BITS


def pow_(base, exp) -> Expr:
    base = _coerce(base)
    exp = _coerce(exp)
    if isinstance(exp, Num):
        if exp.value == 0:
            return ONE
        if exp.value == 1:
            return base
        if isinstance(base, Num):
            if exp.value.denominator == 1:
                n = int(exp.value)
                if base.value == 0 and n < 0:
                    return Pow(base, exp)  # kept symbolic; eval faults
                if _folds(base.value, n):
                    return Num(base.value ** n)
            if base.value == 1:
                return ONE
            if base.value == 0 and exp.value > 0:
                return ZERO
        if exp.value.denominator == 1:
            # integer exponents distribute safely over products and
            # compose with inner powers
            if isinstance(base, Mul):
                return mul(*(pow_(f, exp) for f in base.factors))
            if isinstance(base, Pow):
                return pow_(base.base, mul(base.exp, exp))
    if isinstance(base, Num) and base.value == 1:
        return ONE
    return Pow(base, exp)


_ODD_FUNCTIONS = ("sin", "tan", "arctan")


def _leads_negative(t: Expr) -> bool:
    """A negative number, or a product with a negative coefficient."""
    if isinstance(t, Mul):
        t = t.factors[0]
    return isinstance(t, Num) and t.value < 0


def _extract_negation(e: Expr):
    """Canonical sign of an argument: negative numbers, products with a
    negative coefficient, and sums whose leading term is negative."""
    if isinstance(e, Num) and e.value < 0:
        return True, Num(-e.value)
    if isinstance(e, Mul) and _leads_negative(e):
        pos = mul(NUM_MINUS_ONE, e)
        if isinstance(pos, Add):
            # -(sum): the sum itself may carry the canonical sign
            neg, canon = _extract_negation(pos)
            return not neg, canon
        return True, pos
    if isinstance(e, Add) and _leads_negative(e.terms[0]):
        # negate term-by-term so the result is again a plain sum;
        # wrapping in Mul(-1, ...) would re-trigger extraction
        flipped = add(*(mul(NUM_MINUS_ONE, t) for t in e.terms))
        # when both signs lead with a negative term, the one with the
        # smaller sort key is canonical, so that e and -e agree
        if isinstance(flipped, Add) and _leads_negative(flipped.terms[0]) \
                and sort_key(e) < sort_key(flipped):
            return False, e
        return True, flipped
    return False, e


def func(name: str, arg) -> Expr:
    arg = _coerce(arg)
    if name == "sqrt":
        return pow_(arg, HALF)
    if name not in BUILTIN_FUNCTIONS:
        raise ValueError(f"unknown builtin function {name!r}")
    if name in _ODD_FUNCTIONS or name in ("cos", "abs"):
        neg, arg = _extract_negation(arg)
        if neg and name in _ODD_FUNCTIONS:
            return mul(NUM_MINUS_ONE, Func(name, arg))
    return Func(name, arg)


def opaque(name: str, arg, order: int = 0) -> Expr:
    return Opaque(name, _coerce(arg), order)


# ---------------------------------------------------------------------------
# traversal helpers

def children(e: Expr) -> tuple:
    if isinstance(e, Add):
        return e.terms
    if isinstance(e, Mul):
        return e.factors
    if isinstance(e, Pow):
        return (e.base, e.exp)
    if isinstance(e, (Func, Opaque)):
        return (e.arg,)
    return ()


def rebuild(e: Expr, kids: Iterable[Expr]) -> Expr:
    kids = tuple(kids)
    if isinstance(e, Add):
        return add(*kids)
    if isinstance(e, Mul):
        return mul(*kids)
    if isinstance(e, Pow):
        return pow_(*kids)
    if isinstance(e, Func):
        return func(e.name, kids[0])
    if isinstance(e, Opaque):
        return Opaque(e.name, kids[0], e.order)
    return e


def subexpressions(e: Expr):
    """Every node of ``e``, a subtree shared by several parents once.
    Nodes are told apart by identity, so the walk hashes nothing."""
    seen = {id(e)}
    stack = [e]
    while stack:
        n = stack.pop()
        yield n
        for k in children(n):
            if id(k) not in seen:
                seen.add(id(k))
                stack.append(k)


def atoms(e: Expr, kind=None) -> set:
    """All Var/Param/Jet leaves (optionally filtered by class)."""
    return {n for n in subexpressions(e) if isinstance(n, (Var, Param, Jet))
            and (kind is None or isinstance(n, kind))}


def opaque_names(e: Expr) -> set:
    return {n.name for n in subexpressions(e) if isinstance(n, Opaque)}


def contains(e: Expr, sub: Expr) -> bool:
    return any(n == sub for n in subexpressions(e))


# ---------------------------------------------------------------------------
# core operations

def simplify(e: Expr) -> Expr:
    """Rebuild bottom-up through the normalizing constructors.

    Construction already normalizes, so this is idempotent by design;
    it exists as the explicit entry point for externally built trees.
    """
    kids = children(e)
    if not kids:
        return e
    return rebuild(e, (simplify(k) for k in kids))


def expand(e: Expr) -> Expr:
    """Distribute products over sums and expand positive integer powers
    of sums.  Used by the reduction spliter; not part of normalization."""
    kids = children(e)
    if kids:
        e = rebuild(e, (expand(k) for k in kids))
    if isinstance(e, Pow) and isinstance(e.exp, Num) and \
            e.exp.value.denominator == 1 and e.exp.value > 1 and \
            isinstance(e.base, Add):
        n = int(e.exp.value)
        out = ONE
        for _ in range(n):
            out = expand(mul(out, e.base))
        return out
    if isinstance(e, Mul):
        sums = [f for f in e.factors if isinstance(f, Add)]
        if sums:
            first = sums[0]
            rest = list(e.factors)
            rest.remove(first)
            return expand(add(*(mul(t, *rest) for t in first.terms)))
    return e


_DIFF_TABLE: dict = {}


def _fill_diff_table():
    _DIFF_TABLE["sin"] = lambda a: func("cos", a)
    _DIFF_TABLE["cos"] = lambda a: mul(NUM_MINUS_ONE, func("sin", a))
    _DIFF_TABLE["tan"] = lambda a: add(ONE, pow_(func("tan", a), 2))
    _DIFF_TABLE["arctan"] = lambda a: pow_(add(ONE, pow_(a, 2)), NUM_MINUS_ONE)
    _DIFF_TABLE["exp"] = lambda a: Func("exp", a)
    _DIFF_TABLE["ln"] = lambda a: pow_(a, NUM_MINUS_ONE)
    _DIFF_TABLE["abs"] = lambda a: mul(a, pow_(func("abs", a), NUM_MINUS_ONE))


_fill_diff_table()


def diff_partial(e: Expr, v: Expr, memos: dict | None = None) -> Expr:
    """Exact partial derivative treating every jet coordinate as an
    independent symbol.  ``v`` must be a Var, Param, or Jet.

    The derivative of each non-leaf node is memoised, keyed by node, so a
    subtree shared within ``e`` is differentiated once.  Without
    ``memos`` the memo lasts one call.  ``memos`` is a caller-owned
    ``{variable: {node: derivative}}``; the memo for ``v`` is taken from
    it and stays in it, so later calls by ``v`` on trees that share
    subtrees with ``e`` reuse their derivatives for as long as the caller
    keeps the dict."""
    if not isinstance(v, (Var, Param, Jet)):
        raise TypeError("differentiation variable must be Var, Param or Jet")
    if memos is None:
        return _diff(e, v, {})
    memo = memos.get(v)
    if memo is None:
        memo = memos[v] = {}
    return _diff(e, v, memo)


def _diff(e: Expr, v: Expr, memo: dict) -> Expr:
    if isinstance(e, (Num, Var, Param, Jet)):
        return ONE if e == v else ZERO
    d = memo.get(e)
    if d is not None:
        return d
    if isinstance(e, Add):
        d = add(*(_diff(t, v, memo) for t in e.terms))
    elif isinstance(e, Mul):
        parts = []
        fs = e.factors
        for i, f in enumerate(fs):
            df = _diff(f, v, memo)
            if df is ZERO or df == ZERO:
                continue
            parts.append(mul(df, *(g for j, g in enumerate(fs) if j != i)))
        d = add(*parts) if parts else ZERO
    elif isinstance(e, Pow):
        db = _diff(e.base, v, memo)
        de = _diff(e.exp, v, memo)
        parts = []
        if db != ZERO:
            parts.append(mul(e.exp, pow_(e.base, add(e.exp, NUM_MINUS_ONE)), db))
        if de != ZERO:
            parts.append(mul(pow_(e.base, e.exp), func("ln", e.base), de))
        d = add(*parts) if parts else ZERO
    elif isinstance(e, Func):
        da = _diff(e.arg, v, memo)
        d = ZERO if da == ZERO else mul(_DIFF_TABLE[e.name](e.arg), da)
    elif isinstance(e, Opaque):
        da = _diff(e.arg, v, memo)
        d = ZERO if da == ZERO else mul(Opaque(e.name, e.arg, e.order + 1), da)
    else:
        raise TypeError(type(e))
    memo[e] = d
    return d


def substitute(e: Expr, rules: Mapping[Expr, Expr]) -> Expr:
    """Simultaneous substitution, rebuilt through the normalizing
    constructors.

    Rules are keyed by whole subexpressions (usually atoms); a rule's
    replacement is not rescanned.  The rebuilt form of each node is
    memoised, keyed by node, for the length of one call, so a subtree
    shared within ``e`` is rebuilt once.
    """
    return _subst(e, dict(rules)) if rules else e


def _subst(e: Expr, memo: dict) -> Expr:
    """``memo`` starts as the rules and gains each rebuilt node."""
    out = memo.get(e)
    if out is not None:
        return out
    kids = children(e)
    if not kids:
        return e
    out = memo[e] = rebuild(e, (_subst(k, memo) for k in kids))
    return out


# ---------------------------------------------------------------------------
# numeric evaluation

class OpaqueInstance:
    """Concrete evaluable stand-in for an opaque function symbol.

    Holds callables per derivative order.  Missing orders raise
    UnboundSymbol at evaluation time.
    """

    def __init__(self, *derivs: Callable[[float], float]):
        self.derivs = list(derivs)

    def __call__(self, order: int, x: float) -> float:
        if order >= len(self.derivs) or self.derivs[order] is None:
            raise UnboundSymbol(f"opaque function derivative order {order} unbound")
        return self.derivs[order](x)

    @classmethod
    def constant(cls, c: float, depth: int = 6) -> "OpaqueInstance":
        fns = [lambda x, c=c: c] + [(lambda x: 0.0) for _ in range(depth)]
        return cls(*fns)

    @classmethod
    def from_polynomial(cls, coeffs, depth: int = 6) -> "OpaqueInstance":
        """Polynomial sum c_i x^i with exact derivative chain."""
        fns = []
        cur = list(coeffs)
        for _ in range(depth + 1):
            fns.append(lambda x, cs=tuple(cur): sum(c * x ** i for i, c in enumerate(cs)))
            cur = [i * c for i, c in enumerate(cur)][1:] or [0.0]
        return cls(*fns)

    @classmethod
    def sin(cls) -> "OpaqueInstance":
        return cls(math.sin, math.cos,
                   lambda x: -math.sin(x), lambda x: -math.cos(x),
                   math.sin, math.cos)


class ParameterBinding:
    """Numeric values for parameters plus concrete instances for opaque
    function symbols."""

    def __init__(self, params: Mapping[str, float] | None = None,
                 functions: Mapping[str, OpaqueInstance] | None = None):
        self.params = dict(params or {})
        self.functions = dict(functions or {})

    def extended(self, params=None, functions=None) -> "ParameterBinding":
        p = dict(self.params)
        p.update(params or {})
        f = dict(self.functions)
        f.update(functions or {})
        return ParameterBinding(p, f)


_MATH_TABLE = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "arctan": math.atan,
    "exp": math.exp,
    "abs": abs,
}


_NO_BINDING = ParameterBinding()
_ABSENT = object()

# tape entries are (op, slot, a, b, c); operands a, b name earlier slots
# unless noted
_MUL = 0      # a: getter of the factor values
_ADD = 1      # a: getter of the term values
_LEAF = 2     # a: the Var or Jet, looked up in the point
_POW = 3      # c: the exponent as an int when it is an integer Num
_FUNC = 4     # b: the builtin's name
_LN = 5
_PARAM = 6    # a: the Param
_OPAQUE = 7   # b: the function's name, c: the derivative order
_NUM = 8      # a: the Fraction


def eval_numeric(e: Expr, point: Mapping[Expr, float] | None = None,
                 binding: ParameterBinding | None = None) -> float:
    """IEEE double evaluation.  NaN/Inf and out-of-domain arguments raise
    DomainFault; unknown symbols raise UnboundSymbol."""
    return _run_tape(e, point, binding)[-1]


def eval_with_scale(e: Expr, point: Mapping[Expr, float] | None = None,
                    binding: ParameterBinding | None = None):
    """Evaluate and also report the largest |subterm| encountered, used
    for relative tolerance in the zero test.

    Each unique subexpression is evaluated once, in the order in which a
    left-to-right walk of the tree first finishes it.  Value, scale and
    the first fault raised are therefore those of a walk that visits
    every node, shared subtrees as often as they occur."""
    vals = _run_tape(e, point, binding)
    return vals[-1], max(map(abs, vals))


def _run_tape(e: Expr, point, binding) -> list:
    """The value of every slot of ``e``'s tape (built on first use), the
    root's last; the one evaluation loop behind :func:`eval_numeric` and
    :func:`eval_with_scale`."""
    point = point or {}
    binding = binding or _NO_BINDING
    try:
        ops, consts = e._tape
    except AttributeError:
        ops, consts = tape = _compile(e)
        object.__setattr__(e, "_tape", tape)
    vals = list(consts)
    isfinite = math.isfinite
    for op, i, a, b, c in ops:
        if op == _MUL:
            v = 1.0
            for f in a(vals):
                v *= f
        elif op == _ADD:
            v = sum(a(vals))
        elif op == _LEAF:
            v = point.get(a, _ABSENT)
            if v is _ABSENT:
                raise UnboundSymbol(f"unbound symbol {a!r}")
            v = float(v)
        elif op == _POW:
            base = vals[a]
            x = vals[b]
            if base == 0.0 and x < 0:
                raise DomainFault("division by zero")
            if base < 0.0:
                if c is None:
                    raise DomainFault("negative base under fractional power")
                v = base ** c
            else:
                try:
                    v = base ** x
                except OverflowError as exc:
                    raise DomainFault("overflow in power") from exc
        elif op == _FUNC:
            try:
                v = _MATH_TABLE[b](vals[a])
            except (ValueError, OverflowError) as exc:
                raise DomainFault(str(exc)) from exc
        elif op == _LN:
            v = vals[a]
            if v <= 0.0:
                raise DomainFault("ln of non-positive value")
            v = math.log(v)
        elif op == _PARAM:
            v = point.get(a, _ABSENT)
            if v is _ABSENT:
                v = binding.params.get(a.name, _ABSENT)
                if v is _ABSENT:
                    raise UnboundSymbol(f"unbound parameter {a.name}")
            v = float(v)
        elif op == _OPAQUE:
            inst = binding.functions.get(b)
            if inst is None:
                raise UnboundSymbol(f"opaque function {b!r} unbound")
            try:
                v = float(inst(c, vals[a]))
            except (ValueError, OverflowError) as exc:
                raise DomainFault(str(exc)) from exc
        else:  # _NUM whose value overflows a float: raises here, in order
            v = float(a)
        if not isfinite(v):
            raise DomainFault("non-finite intermediate value")
        vals[i] = v
    return vals


def _compile(e: Expr):
    """The tape of ``e``: its unique nodes in postorder, each after its
    operands, in the order a recursive left-to-right walk first finishes
    them.  Returns the entries for every node that is not a constant,
    and the initial slot values with the constants filled in."""
    slots: dict = {}
    consts: list = []
    ops: list = []
    stack = [e]
    while stack:
        n = stack[-1]
        if n in slots:
            stack.pop()
            continue
        pending = [k for k in children(n) if k not in slots]
        if pending:
            stack.extend(reversed(pending))
            continue
        stack.pop()
        i = slots[n] = len(consts)
        consts.append(0.0)
        if isinstance(n, Num):
            try:
                consts[i] = float(n.value)
                continue
            except OverflowError:
                ops.append((_NUM, i, n.value, None, None))
        elif isinstance(n, (Var, Jet)):
            ops.append((_LEAF, i, n, None, None))
        elif isinstance(n, Param):
            ops.append((_PARAM, i, n, None, None))
        elif isinstance(n, (Add, Mul)):
            getter = _getter(tuple(slots[k] for k in children(n)))
            ops.append((_ADD if isinstance(n, Add) else _MUL, i, getter,
                        None, None))
        elif isinstance(n, Pow):
            k = None
            if isinstance(n.exp, Num) and n.exp.value.denominator == 1:
                k = int(n.exp.value)
            ops.append((_POW, i, slots[n.base], slots[n.exp], k))
        elif isinstance(n, Func):
            if n.name == "ln":
                ops.append((_LN, i, slots[n.arg], None, None))
            else:
                ops.append((_FUNC, i, slots[n.arg], n.name, None))
        elif isinstance(n, Opaque):
            ops.append((_OPAQUE, i, slots[n.arg], n.name, n.order))
        else:
            raise TypeError(type(n))
    return tuple(ops), tuple(consts)


def _getter(idx: tuple):
    """Callable that returns the values at ``idx`` as a tuple."""
    if len(idx) >= 2:
        return itemgetter(*idx)
    return lambda vals: tuple(vals[j] for j in idx)
