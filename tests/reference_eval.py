"""The recursive tree-walking evaluator that ``symred.expr`` used before
it evaluated a tape of unique nodes.  It visits every node of the tree,
shared subtrees as often as they occur, and is kept only as the
reference that the tape evaluator is tested against."""

import math

from symred.expr import (
    _MATH_TABLE, Add, DomainFault, Func, Jet, Mul, Num, Opaque, Param,
    ParameterBinding, Pow, UnboundSymbol, Var,
)


def eval_with_scale(e, point=None, binding=None):
    point = point or {}
    binding = binding or ParameterBinding()
    scale = [0.0]
    val = _eval(e, point, binding, scale)
    return val, scale[0]


def _note(scale, v: float) -> float:
    if not math.isfinite(v):
        raise DomainFault("non-finite intermediate value")
    a = abs(v)
    if a > scale[0]:
        scale[0] = a
    return v


def _eval(e, point, binding, scale) -> float:
    if isinstance(e, Num):
        return _note(scale, float(e.value))
    if isinstance(e, (Var, Jet)):
        if e in point:
            return _note(scale, float(point[e]))
        raise UnboundSymbol(f"unbound symbol {e!r}")
    if isinstance(e, Param):
        if e in point:
            return _note(scale, float(point[e]))
        if e.name in binding.params:
            return _note(scale, float(binding.params[e.name]))
        raise UnboundSymbol(f"unbound parameter {e.name}")
    if isinstance(e, Add):
        return _note(scale, sum(_eval(t, point, binding, scale) for t in e.terms))
    if isinstance(e, Mul):
        out = 1.0
        for f in e.factors:
            out *= _eval(f, point, binding, scale)
        return _note(scale, out)
    if isinstance(e, Pow):
        b = _eval(e.base, point, binding, scale)
        x = _eval(e.exp, point, binding, scale)
        if b == 0.0 and x < 0:
            raise DomainFault("division by zero")
        if b < 0.0:
            if isinstance(e.exp, Num) and e.exp.value.denominator == 1:
                return _note(scale, b ** int(e.exp.value))
            raise DomainFault("negative base under fractional power")
        try:
            return _note(scale, b ** x)
        except OverflowError as exc:
            raise DomainFault("overflow in power") from exc
    if isinstance(e, Func):
        a = _eval(e.arg, point, binding, scale)
        if e.name == "ln":
            if a <= 0.0:
                raise DomainFault("ln of non-positive value")
            return _note(scale, math.log(a))
        try:
            return _note(scale, _MATH_TABLE[e.name](a))
        except (ValueError, OverflowError) as exc:
            raise DomainFault(str(exc)) from exc
    if isinstance(e, Opaque):
        a = _eval(e.arg, point, binding, scale)
        inst = binding.functions.get(e.name)
        if inst is None:
            raise UnboundSymbol(f"opaque function {e.name!r} unbound")
        try:
            return _note(scale, float(inst(e.order, a)))
        except (ValueError, OverflowError) as exc:
            raise DomainFault(str(exc)) from exc
    raise TypeError(type(e))
