"""The kernel functions that ``symred.expr`` used before it stored each
node's sort key on the node, memoised ``diff_partial`` and
``substitute`` over shared subtrees, walked each distinct node once in
``subexpressions``, ``atoms`` and ``opaque_names``, and skipped Fraction
arithmetic on unit coefficients in ``add`` and ``mul``.  They walk every
node of the tree, shared subtrees as often as they occur, and are kept
only as the reference that the fast paths are tested against.

``simplify``, ``expand``, ``assume_positive``, ``sqrt_pythagoras``,
``expand_trig`` and ``reduce_even_cosines`` are the recursive walkers of
``symred.expr`` and ``symred.rewrites`` before every rebuilding walk
went through the one memoised postorder walk ``symred.expr.fold``.  They
rewrite a shared subtree once per occurrence and recurse once per tree
level; their matches build through the ``add`` and ``mul`` above.

``_CanonicalApplier`` and ``apply_canonical`` are the canonical-operator
path of ``symred.jets.apply_operator`` before a canonical operator was
applied as its prolonged evolutionary field: each coefficient D_J U is
``total_derivative_multi`` of the characteristic.  Here they build
through the reference walkers above."""

from fractions import Fraction

from symred.expr import (
    _DIFF_TABLE, _KIND_ADD, _KIND_FUNC, _KIND_JET, _KIND_MUL, _KIND_NUM,
    _KIND_OPAQUE, _KIND_PARAM, _KIND_POW, _KIND_VAR, NUM_MINUS_ONE, ONE,
    ZERO, Add, Expr, Func, Jet, Mul, Num, Opaque, Param, Pow, Var, _coerce,
    _split_power, children, func, pow_, rebuild,
)
from symred.jets import CanonicalOperator, JetSpace, total_derivative_multi
from symred.rewrites import _pythagorean_square, _split_sum, touches


def sort_key(e):
    if isinstance(e, Num):
        return (_KIND_NUM, e.value)
    if isinstance(e, Var):
        return (_KIND_VAR, e.name)
    if isinstance(e, Param):
        return (_KIND_PARAM, e.name)
    if isinstance(e, Jet):
        return (_KIND_JET, e.dep, e.index)
    if isinstance(e, Func):
        return (_KIND_FUNC, e.name, sort_key(e.arg))
    if isinstance(e, Opaque):
        return (_KIND_OPAQUE, e.name, e.order, sort_key(e.arg))
    if isinstance(e, Pow):
        return (_KIND_POW, sort_key(e.base), sort_key(e.exp))
    if isinstance(e, Mul):
        return (_KIND_MUL, tuple(sort_key(f) for f in e.factors))
    if isinstance(e, Add):
        return (_KIND_ADD, tuple(sort_key(t) for t in e.terms))
    raise TypeError(type(e))


def _split_coeff(term):
    """term -> (rational coefficient, non-numeric rest or None)."""
    if isinstance(term, Num):
        return term.value, None
    if isinstance(term, Mul) and isinstance(term.factors[0], Num):
        rest = term.factors[1:]
        if not rest:  # an unnormalized one-factor product of a number
            return term.factors[0].value, None
        rest_e = rest[0] if len(rest) == 1 else Mul(rest)
        return term.factors[0].value, rest_e
    return Fraction(1), term


def add(*terms):
    flat = []
    for t in terms:
        t = _coerce(t)
        if isinstance(t, Add):
            flat.extend(t.terms)
        else:
            flat.append(t)
    const = Fraction(0)
    by_rest: dict = {}
    order: list = []
    for t in flat:
        c, rest = _split_coeff(t)
        if rest is None:
            const += c
        else:
            if rest not in by_rest:
                by_rest[rest] = Fraction(0)
                order.append(rest)
            by_rest[rest] += c
    out = []
    for rest in order:
        c = by_rest[rest]
        if c == 0:
            continue
        out.append(rest if c == 1 else mul(Num(c), rest))
    out.sort(key=sort_key)
    if const != 0:
        out.insert(0, Num(const))
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    return Add(tuple(out))


def mul(*factors):
    flat = []
    for f in factors:
        f = _coerce(f)
        if isinstance(f, Mul):
            flat.extend(f.factors)
        else:
            flat.append(f)
    coeff = Fraction(1)
    by_base: dict = {}
    order: list = []
    for f in flat:
        if isinstance(f, Num):
            coeff *= f.value
            continue
        base, exp = _split_power(f)
        if base not in by_base:
            by_base[base] = []
            order.append(base)
        by_base[base].append(exp)
    if coeff == 0:
        return ZERO
    out = []
    redo = False
    for base in order:
        p = pow_(base, add(*by_base[base]))
        if isinstance(p, Num):
            coeff *= p.value
        elif isinstance(p, Mul):
            # pow_ distributed an integer exponent over a product; the new
            # factors may merge with other bases, so renormalize once more
            redo = True
            out.append(p)
        else:
            out.append(p)
    if coeff == 0:
        return ZERO
    if redo:
        return mul(Num(coeff), *out)
    out.sort(key=sort_key)
    if coeff != 1:
        out.insert(0, Num(coeff))
    if not out:
        return ONE
    if len(out) == 1:
        return out[0]
    return Mul(tuple(out))


def diff_partial(e, v):
    if not isinstance(v, (Var, Param, Jet)):
        raise TypeError("differentiation variable must be Var, Param or Jet")
    return _diff(e, v)


def _diff(e, v):
    if e == v:
        return ONE
    if isinstance(e, (Num, Var, Param, Jet)):
        return ZERO
    if isinstance(e, Add):
        return add(*(_diff(t, v) for t in e.terms))
    if isinstance(e, Mul):
        parts = []
        fs = e.factors
        for i, f in enumerate(fs):
            df = _diff(f, v)
            if df is ZERO or df == ZERO:
                continue
            parts.append(mul(df, *(g for j, g in enumerate(fs) if j != i)))
        return add(*parts) if parts else ZERO
    if isinstance(e, Pow):
        db = _diff(e.base, v)
        de = _diff(e.exp, v)
        parts = []
        if db != ZERO:
            parts.append(mul(e.exp, pow_(e.base, add(e.exp, NUM_MINUS_ONE)), db))
        if de != ZERO:
            parts.append(mul(pow_(e.base, e.exp), func("ln", e.base), de))
        return add(*parts) if parts else ZERO
    if isinstance(e, Func):
        da = _diff(e.arg, v)
        if da == ZERO:
            return ZERO
        return mul(_DIFF_TABLE[e.name](e.arg), da)
    if isinstance(e, Opaque):
        da = _diff(e.arg, v)
        if da == ZERO:
            return ZERO
        return mul(Opaque(e.name, e.arg, e.order + 1), da)
    raise TypeError(type(e))


def substitute(e, rules):
    return _subst(e, rules) if rules else e


def _subst(e, rules):
    hit = rules.get(e)
    if hit is not None:
        return hit
    kids = children(e)
    if not kids:
        return e
    return rebuild(e, (_subst(k, rules) for k in kids))


def atoms(e, kind=None):
    out = set()
    stack = [e]
    while stack:
        n = stack.pop()
        if isinstance(n, (Var, Param, Jet)):
            if kind is None or isinstance(n, kind):
                out.add(n)
        else:
            stack.extend(children(n))
    return out


def opaque_names(e):
    out = set()
    stack = [e]
    while stack:
        n = stack.pop()
        if isinstance(n, Opaque):
            out.add(n.name)
        stack.extend(children(n))
    return out


def subexpressions(e):
    stack = [e]
    while stack:
        n = stack.pop()
        yield n
        stack.extend(children(n))


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
        out = ONE
        for _ in range(int(e.exp.value)):
            # term by term: mul(out, base) folds back into a power of base
            terms = out.terms if isinstance(out, Add) else (out,)
            out = add(*(expand(mul(t, b)) for t in terms for b in e.base.terms))
        return out
    if isinstance(e, Mul):
        sums = [f for f in e.factors if isinstance(f, Add)]
        if sums:
            first = sums[0]
            rest = list(e.factors)
            rest.remove(first)
            return expand(add(*(mul(t, *rest) for t in first.terms)))
    return e


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


class _CanonicalApplier:
    def __init__(self, op: CanonicalOperator, js: JetSpace):
        self.op = op
        self.js = js
        self._cache: dict = {}

    def coefficient(self, jet: Jet) -> Expr:
        key = (jet.dep, jet.index)
        if key not in self._cache:
            u = self.op.characteristics.get(jet.dep, ZERO)
            self._cache[key] = total_derivative_multi(u, jet.index, self.js)
        return self._cache[key]


def apply_canonical(pf, e, js=None):
    if isinstance(pf, CanonicalOperator):
        if js is None:
            raise ValueError("canonical operators need an explicit jet space")
        applier = _CanonicalApplier(pf, js)
        parts = []
        for a in sorted(atoms(e, Jet), key=lambda j: (j.dep, j.index)):
            if a.dep not in pf.characteristics:
                continue
            d = diff_partial(e, a)
            if d != ZERO:
                parts.append(mul(applier.coefficient(a), d))
        return add(*parts)
    raise TypeError(type(pf))
