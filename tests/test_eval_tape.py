"""The fast kernel paths against the recursive walkers they replaced:
the tape evaluator, the sort key each node stores on itself,
``diff_partial``/``substitute`` memoised over shared subtrees (for one
call, or for the life of a prolonged field), ``add``/``mul`` without
Fraction arithmetic on unit coefficients, and the walks that visit a
shared subtree once.  Also the hash each node stores on itself."""

import math
import pickle
from dataclasses import fields
from fractions import Fraction
from itertools import product

from hypothesis import given, settings, strategies as st

from symred import expr
from symred.expr import (
    _UNIT, ZERO, Add, DomainFault, Func, Jet, Mul, Num, Opaque,
    OpaqueInstance, Param, ParameterBinding, Pow, Var, _split_coeff, add,
    atoms, contains, diff_partial, eval_numeric, eval_with_scale, func, mul,
    opaque, opaque_names, pow_, sort_key, subexpressions, substitute,
)
from symred.jets import JetSpace, VectorField, prolong, total_derivative
from symred.parser import print_expression

import reference_eval
import reference_kernel

X1, X2, Z = Var("x1"), Var("x2"), Var("z")          # z is never bound
U, UX = Jet("u"), Jet("u", (("x1", 1),))
C, D, E = Param("C"), Param("D"), Param("E")         # E is never bound

LEAVES = (X1, X2, Z, U, UX, C, D, E, Num(0), Num(1), Num(-3),
          Num(Fraction(1, 2)), Num(Fraction(7, 3)), Num(10 ** 400))
# |exponent| <= 2 keeps folded constants small over eight steps
EXPONENTS = (Num(2), Num(-1), Num(Fraction(1, 2)), Num(Fraction(-1, 2)),
             Num(Fraction(1, 3)))
FUNCS = ("sin", "cos", "tan", "arctan", "exp", "ln", "abs")

# F has derivative orders 0..1 only, H raises from math, G is unbound
BINDING = ParameterBinding(
    {"C": 1.25},
    {"F": OpaqueInstance.from_polynomial([0.5, -1.0, 2.0], depth=1),
     "H": OpaqueInstance(math.sqrt, math.exp)})

VALUES = st.one_of(st.floats(-3.0, 3.0),
                   st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e300, -1e300]))


@st.composite
def recipes(draw):
    """Build steps over a growing pool, so later nodes reuse earlier ones
    and the expression shares subtrees.  Each step either normalizes
    (``add``, ``mul``, ...) or builds the raw node."""
    pool = draw(st.lists(st.sampled_from(range(len(LEAVES))), min_size=1,
                         max_size=4))
    steps = []
    size = len(pool)
    for _ in range(draw(st.integers(1, 8))):
        pick = st.integers(0, size - 1)
        kind = draw(st.sampled_from(("add", "mul", "pow", "func", "opaque")))
        raw = draw(st.booleans())
        if kind in ("add", "mul"):
            args = tuple(draw(st.lists(pick, min_size=1, max_size=3)))
        elif kind == "pow":
            exp = draw(st.one_of(st.sampled_from(EXPONENTS), pick))
            args = (draw(pick), exp)
        elif kind == "func":
            args = (draw(st.sampled_from(FUNCS)), draw(pick))
        else:
            args = (draw(st.sampled_from("FGH")), draw(pick),
                    draw(st.integers(0, 2)))
        steps.append((kind, raw, args))
        size += 1
    return pool, steps


def build(recipe):
    """Fresh nodes for a recipe; building twice gives equal, distinct
    trees."""
    leaf_ids, steps = recipe
    pool = [_fresh(LEAVES[i]) for i in leaf_ids]
    for kind, raw, args in steps:
        if kind in ("add", "mul"):
            kids = [pool[i] for i in args]
            if raw:
                node = (Add if kind == "add" else Mul)(tuple(kids))
            else:
                node = (add if kind == "add" else mul)(*kids)
        elif kind == "pow":
            base, exp = args
            if isinstance(exp, Num):
                node = (Pow if raw else pow_)(pool[base], _fresh(exp))
            else:
                # A pool constant can be huge (10**400, or folded).  A later
                # add/mul over this node folds base**exp exactly, which for
                # such an exponent never finishes, so it is capped at 2.
                x = pool[exp]
                if isinstance(x, Num) and abs(x.value) > 2:
                    x = Num(2)
                node = Pow(pool[base], x)
        elif kind == "func":
            node = (Func if raw else func)(args[0], pool[args[1]])
        else:
            name, i, order = args
            node = (Opaque if raw else opaque)(name, pool[i], order)
        pool.append(node)
    return pool[-1]


def _fresh(leaf):
    if isinstance(leaf, Jet):
        return Jet(leaf.dep, leaf.index)
    if isinstance(leaf, Num):
        return Num(leaf.value)
    return type(leaf)(leaf.name)


def _outcome(evaluate, e, point):
    try:
        return evaluate(e, point, BINDING)
    except Exception as exc:  # compared by class below
        return type(exc)


@settings(max_examples=400, deadline=None)
@given(recipes(), st.lists(st.tuples(VALUES, VALUES, VALUES, VALUES, VALUES,
                                     st.booleans()),
                           min_size=1, max_size=3))
def test_tape_matches_reference_walker(recipe, draws):
    e = build(recipe)
    for x1, x2, u, ux, d, bind_d in draws:
        point = {X1: x1, X2: x2, U: u, UX: ux}
        if bind_d:
            point[D] = d
        want = _outcome(reference_eval.eval_with_scale, e, point)
        got = _outcome(eval_with_scale, e, point)
        if isinstance(want, type):
            assert got is want
            continue
        assert isinstance(got, tuple)
        (wv, ws), (gv, gs) = want, got
        assert gv == wv and gs == ws
        assert math.copysign(1.0, gv) == math.copysign(1.0, wv)


@settings(max_examples=300, deadline=None)
@given(recipes(), st.tuples(VALUES, VALUES, VALUES, VALUES, VALUES,
                            st.booleans()))
def test_eval_numeric_is_the_value_of_eval_with_scale(recipe, draw):
    # one tape loop behind both; eval_numeric just takes no scale
    e = build(recipe)
    x1, x2, u, ux, d, bind_d = draw
    point = {X1: x1, X2: x2, U: u, UX: ux}
    if bind_d:
        point[D] = d
    want = _outcome(eval_with_scale, e, point)
    got = _outcome(eval_numeric, e, point)
    if isinstance(want, type):
        assert got is want
        return
    assert got == want[0]
    assert math.copysign(1.0, got) == math.copysign(1.0, want[0])


def test_shared_subtree_fault_order():
    # ln(x1) is shared; it faults before the unbound z is reached
    shared = func("ln", X1)
    e = Add((Mul((shared, shared)), shared, Z))
    assert _outcome(reference_eval.eval_with_scale, e, {X1: -1.0}) is \
        DomainFault
    assert _outcome(eval_with_scale, e, {X1: -1.0}) is DomainFault
    # the sum starts from the integer 0, so -0.0 + -0.0 is +0.0
    neg_zero = Mul((Num(-1), X1))
    val, scale = eval_with_scale(Add((neg_zero, neg_zero)), {X1: 0.0})
    assert math.copysign(1.0, val) == 1.0 and scale == 1.0


def test_tape_is_built_once_and_reused():
    e = add(mul(X1, X2), func("sin", mul(X1, X2)))
    assert eval_numeric(e, {X1: 1.0, X2: 2.0}) == 2.0 + math.sin(2.0)
    tape = e._tape
    eval_numeric(e, {X1: 0.5, X2: 2.0})
    assert e._tape is tape
    # x1*x2 is one slot although it occurs twice
    _, consts = tape
    assert len(consts) == len(set(subexpressions(e)))


@settings(max_examples=200, deadline=None)
@given(recipes())
def test_cached_hash_is_the_field_hash(recipe):
    e = build(recipe)
    for n in subexpressions(e):
        assert hash(n) == hash(tuple(getattr(n, f.name) for f in fields(n)))
        assert n._hash == hash(n)


@settings(max_examples=200, deadline=None)
@given(recipes())
def test_independently_built_nodes_hash_and_compare_equal(recipe):
    a = build(recipe)
    hash(a)                     # fill a's caches before b exists
    b = build(recipe)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_pickled_node_drops_its_caches():
    e = add(mul(X1, func("sin", X2)), Param("C"))
    eval_numeric(e, {X1: 1.0, X2: 2.0}, BINDING)
    hash(e)
    sort_key(e)
    assert all(hasattr(e, c) for c in ("_hash", "_tape", "_key"))
    back = pickle.loads(pickle.dumps(e))
    assert back == e
    for n in subexpressions(back):
        assert not any(hasattr(n, c) for c in ("_hash", "_tape", "_key"))
    assert eval_numeric(back, {X1: 1.0, X2: 2.0}, BINDING) == \
        eval_numeric(e, {X1: 1.0, X2: 2.0}, BINDING)


def test_sort_key_is_computed_once_and_reused():
    prod = mul(X1, X2)
    sine = func("sin", prod)
    e = add(prod, sine)
    assert not hasattr(e, "_key")      # add sorts the terms, not the sum
    key = sort_key(e)
    assert e._key is key and sort_key(e) is key
    # the key holds the children's cached keys, not copies of them
    assert all(k is sort_key(t) for k, t in zip(key[1], e.terms))
    assert sort_key(sine)[2] is sort_key(prod)
    assert key == reference_kernel.sort_key(e)


@settings(max_examples=200, deadline=None)
@given(recipes())
def test_cached_sort_key_matches_reference(recipe):
    a = build(recipe)
    for n in subexpressions(a):        # fill a's caches before b exists
        sort_key(n)
    b = build(recipe)
    want = reference_kernel.sort_key(b)
    assert sort_key(a) == want and sort_key(b) == want
    for n in subexpressions(b):
        assert n._key == reference_kernel.sort_key(n)


def _result(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # compared by class below
        return type(exc)


@settings(max_examples=200, deadline=None)
@given(recipes())
def test_memoised_diff_matches_reference(recipe):
    e = build(recipe)
    for v in (X1, X2, Z, U, UX, C, D, E):
        want = _result(reference_kernel.diff_partial, e, v)
        got = _result(diff_partial, build(recipe), _fresh(v))
        assert got == want


@settings(max_examples=200, deadline=None)
@given(recipes(), recipes(),
       st.lists(st.sampled_from((X1, X2, Z, U, UX, C, D, E)), unique=True,
                max_size=4),
       st.integers(0, 10 ** 6))
def test_memoised_substitute_matches_reference(recipe, other, leaves, pick):
    e = build(recipe)
    # atoms map to nodes of another shared tree; one rule may name a
    # whole subexpression of e
    subs = list(subexpressions(build(other)))
    rules = {v: subs[(pick + i) % len(subs)] for i, v in enumerate(leaves)}
    inner = list(subexpressions(e))
    rules[inner[pick % len(inner)]] = Num(Fraction(5, 2))
    want = _result(reference_kernel.substitute, e, rules)
    got = _result(substitute, build(recipe), rules)
    assert got == want


@settings(max_examples=200, deadline=None)
@given(recipes())
def test_unique_node_walks_match_reference(recipe):
    e = build(recipe)
    nodes = list(subexpressions(e))
    assert len({id(n) for n in nodes}) == len(nodes)
    assert set(nodes) == set(reference_kernel.subexpressions(e))
    for kind in (None, Jet, (Var, Param)):
        assert atoms(e, kind) == reference_kernel.atoms(e, kind)
    assert opaque_names(e) == reference_kernel.opaque_names(e)
    for sub in nodes + [_fresh(leaf) for leaf in LEAVES]:
        assert contains(e, sub) == \
            any(n == sub for n in reference_kernel.subexpressions(e))


def test_walks_visit_a_shared_subtree_once():
    # a raw sum of a node with itself, nested 40 deep: 2**40 sin(x1)
    # leaves as a tree, 42 node objects.  (The asserts compare plain
    # values, so that a failure does not print the tree.)
    e = func("sin", X1)
    for _ in range(40):
        e = Add((e, e))
    visited = len(list(subexpressions(e)))
    found = (atoms(e), opaque_names(e), contains(e, X1), contains(e, X2))
    assert visited == 42
    assert found == ({X1}, set(), True, False)


def _same_node(got, want):
    """``==``, printed form and sort key of a fast result against the
    reference's (or the same exception class)."""
    if isinstance(want, type):
        assert got is want
        return
    assert got == want
    assert print_expression(got) == print_expression(want)
    assert sort_key(got) == reference_kernel.sort_key(want)


@settings(max_examples=300, deadline=None)
@given(recipes(), st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=5))
def test_unit_coefficient_fast_path_matches_reference(recipe, picks):
    # the pool holds the raw and normalised nodes of a shared tree, and
    # the int-valued Num(-1) and Num(1) that jets, linalg and the parser
    # build, never the module's own constants
    nodes = list(subexpressions(build(recipe))) + [Num(-1), Num(1), Num(0)]
    args = [nodes[p % len(nodes)] for p in picks]
    for fast, ref in ((add, reference_kernel.add),
                      (mul, reference_kernel.mul)):
        _same_node(_result(fast, *args), _result(ref, *args))
    # a - b, as Expr.__sub__ builds it
    a, b = args[0], args[-1]
    _same_node(_result(lambda: add(a, mul(Num(-1), b))),
               _result(lambda: reference_kernel.add(
                   a, reference_kernel.mul(Num(-1), b))))
    for n in nodes:
        c, rest = _split_coeff(n)
        assert (c, rest) == reference_kernel._split_coeff(n)
        assert type(c) is Fraction
        if rest is n:
            assert c is _UNIT


def test_unit_coefficient_edge_cases():
    x, y = Var("x1"), Var("x2")
    s = add(x, y, mul(x, y))
    assert s == Add((x, y, Mul((x, y))))
    assert _split_coeff(x)[0] is _UNIT
    # a coefficient of 1 built from an int still leaves no unit factor
    assert mul(Num(1), x) == x and add(Mul((Num(1), x)), Num(0)) == x
    assert add(x, mul(Num(-1), x)) == ZERO


JS_U = JetSpace(("x1", "x2"), {"u": ("x1", "x2")})


def _jets_up_to(js, dep, order):
    out = []
    for k in range(order + 1):
        for idx in product(js.independent, repeat=k):
            j = js.jet(dep, *idx)
            if j not in out:
                out.append(j)
    return out


def _coefficient_per_call(vf, jet, js):
    """The prolongation recursion of ``ProlongedField.coefficient`` with
    a fresh memo for every partial derivative."""
    if jet.order == 0:
        return vf.eta.get(jet.dep, ZERO)
    v = jet.index[0][0]
    base = dict(jet.index)
    base[v] -= 1
    lower = Jet(jet.dep, tuple(base.items()))
    val = total_derivative(_coefficient_per_call(vf, lower, js), v, js)
    for xj, xij in vf.xi.items():
        dxi = total_derivative(xij, v, js)
        if dxi != ZERO:
            val = add(val, mul(Num(-1), lower.lift(xj), dxi))
    return val


@settings(max_examples=60, deadline=None)
@given(recipes(), recipes())
def test_field_memo_matches_per_call_memos(xi_recipe, eta_recipe):
    vf = VectorField({"x1": build(xi_recipe)}, {"u": build(eta_recipe)})
    pf = prolong(vf, 2, JS_U)
    for j in _jets_up_to(JS_U, "u", 2):
        assert pf.coefficient(j) == _coefficient_per_call(vf, j, JS_U)


def test_field_memo_matches_per_call_memos_to_order_six():
    x, t, u, w = Var("x"), Var("t"), Jet("u"), Var("w")
    js = JetSpace(("x", "t"), {"u": ("x", "t")}, chains={"w": {"x": t}})
    fields_ = [
        # the ladder's f(u, t) d/dx
        VectorField({"x": add(mul(Num(Fraction(3, 2)), pow_(u, 3)),
                              mul(Num(-2), pow_(u, 2)), mul(Num(9), t))}, {}),
        VectorField({"x": mul(x, t), "t": func("sin", u)},
                    {"u": add(opaque("F", u), mul(w, u))}),
    ]
    for vf in fields_:
        pf = prolong(vf, 6, js)
        jets = [js.jet("u", *["x"] * k) for k in range(7)] + \
            [js.jet("u", "x", "x", "t"), js.jet("u", "t", "x", "t", "x")]
        for j in jets:
            assert pf.coefficient(j) == _coefficient_per_call(vf, j, js)


def test_shared_subtree_is_differentiated_once_per_field(monkeypatch):
    # D_x^k sin(u) holds sin(u) and cos(u) in every coefficient from the
    # second on; each is differentiated by u once per field, and again by
    # a second field
    calls = []
    for name in ("sin", "cos"):
        rule = expr._DIFF_TABLE[name]
        monkeypatch.setitem(
            expr._DIFF_TABLE, name,
            lambda a, name=name, rule=rule: calls.append((name, a)) or rule(a))
    js = JetSpace(("x",), {"u": ("x",)})
    vf = VectorField({}, {"u": func("sin", Jet("u"))})
    for round_ in (1, 2):
        pf = prolong(vf, 5, js)
        for k in range(6):
            pf.coefficient(js.jet("u", *["x"] * k))
        assert sorted(calls) == sorted([("cos", Jet("u")),
                                        ("sin", Jet("u"))] * round_)
    # without the field's memo each total derivative differentiates them
    # again
    calls.clear()
    for k in range(1, 6):
        _coefficient_per_call(vf, js.jet("u", *["x"] * k), js)
    assert len(calls) > 2


def test_caller_memos_are_kept_per_variable():
    x1, x2 = Var("x1"), Var("x2")
    e = func("sin", mul(x1, x2))
    memos = {}
    assert diff_partial(e, x1, memos) == reference_kernel.diff_partial(e, x1)
    assert diff_partial(e, x2, memos) == reference_kernel.diff_partial(e, x2)
    assert set(memos) == {x1, x2}
    assert memos[x1][e] == reference_kernel.diff_partial(e, x1)
    assert diff_partial(e, Var("z"), memos) == ZERO
