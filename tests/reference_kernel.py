"""The kernel functions that ``symred.expr`` used before it stored each
node's sort key on the node, memoised ``diff_partial`` and
``substitute`` over shared subtrees, and walked each distinct node once
in ``subexpressions``, ``atoms`` and ``opaque_names``.  They walk every
node of the tree, shared subtrees as often as they occur, and are kept
only as the reference that the fast paths are tested against."""

from symred.expr import (
    _DIFF_TABLE, _KIND_ADD, _KIND_FUNC, _KIND_JET, _KIND_MUL, _KIND_NUM,
    _KIND_OPAQUE, _KIND_PARAM, _KIND_POW, _KIND_VAR, NUM_MINUS_ONE, ONE,
    ZERO, Add, Func, Jet, Mul, Num, Opaque, Param, Pow, Var, add, children,
    func, mul, pow_, rebuild,
)


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
