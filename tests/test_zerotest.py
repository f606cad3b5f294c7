import random
from fractions import Fraction
from itertools import product

import pytest

from symred.expr import (
    Jet, Num, Param, ParameterBinding, UnboundSymbol, Var, func, opaque, pow_,
)
from symred.zerotest import (
    Constraint, Result, check_parts, check_seed, combine, is_zero,
    sample_point,
)

x = Var("x")
y = Var("y")


def test_literal_zero_is_symbolic():
    r = is_zero(x - x)
    assert r.is_zero
    assert r.provenance == "symbolic"


def test_pythagorean_identity_numeric():
    e = func("sin", x) ** 2 + func("cos", x) ** 2 - Num(1)
    r = is_zero(e, seed=0)
    assert r.is_zero
    assert r.points_tested >= 64


def test_nonzero_reports_witness():
    e = func("sin", x) - x
    r = is_zero(e, seed=0)
    assert not r.is_zero
    assert r.witness is not None
    assert abs(r.witness_value) > 1e-9


def test_jets_sampled_as_free_coordinates():
    u1 = Jet("u", (("x1", 1),))
    r = is_zero(u1 * (u1 + 1) - pow_(u1, Num(2)) - u1)
    assert r.is_zero
    r = is_zero(u1 - Num(1), seed=0)
    assert not r.is_zero


def test_constraint_shapes_domain():
    # x - |x| is zero exactly on x >= 0
    e = x - func("abs", x)
    assert is_zero(e, (Constraint(x, ">="),), seed=0).is_zero
    assert not is_zero(e, (Constraint(x, "<"),), seed=1).is_zero


def test_nonequality_constraint_avoids_pole():
    c = Param("C")
    e = (func("exp", x) - c) / (func("exp", x) - c) - Num(1)
    r = is_zero(e, (Constraint(func("exp", x) - c, "!="),), seed=0)
    assert r.is_zero


def test_opaque_identity_holds_for_random_instances():
    f = opaque("F", x)
    e = f * (f + 1) - pow_(f, Num(2)) - f
    assert is_zero(e, seed=0).is_zero


def test_opaque_nonidentity_detected():
    # F(x) = F'(x) only for exponentials; random polynomial instances refute it
    e = opaque("F", x) - opaque("F", x, order=1)
    assert not is_zero(e, seed=0).is_zero


def test_unbound_function_draw_order_pinned():
    # each point draws the stand-ins of F first, then the point itself
    e = opaque("F", x) * y - opaque("F", x, order=1)
    r = is_zero(e, (Constraint(x - Num(1), ">"),), seed=3)
    assert (r.verdict, r.points_tested) == ("nonzero", 1)
    assert r.witness == {"x": 1.34987632838584, "y": -0.9625839426879694}
    assert r.witness_value == -5.169464136305082


def test_stand_ins_answer_every_derivative_order():
    # a random stand-in is a degree-4 polynomial: its 7th derivative is 0
    d7 = opaque("F", x, order=7)
    assert is_zero(d7 * x + d7, seed=0).verdict == "zero"


def test_binding_pins_parameters():
    c = Param("C")
    e = c - Num(2)
    assert is_zero(e, binding=ParameterBinding({"C": 2.0})).is_zero
    assert not is_zero(e, binding=ParameterBinding({"C": 3.0})).is_zero


def test_inconclusive_when_domain_is_empty():
    cs = (Constraint(x, ">"), Constraint(x, "<"))
    r = is_zero(x, cs, seed=0)
    assert r.verdict == "inconclusive"


def test_a_draw_that_faults_at_evaluation_costs_one_draw():
    # ln faults on the draws with x < 41/25, about 9 in 10 of the
    # default box; 1024 draws find the 64 points, 512 would not
    a = x - Num(Fraction(41, 25))
    e = func("exp", func("ln", a)) - a
    for seed in range(6):
        r = is_zero(e, seed=seed)
        assert (r.verdict, r.points_tested) == ("zero", 64)


def test_box_override():
    # ln is defined on the overridden positive box
    e = func("ln", x) - func("ln", x)
    r = is_zero(e, seed=0, box={"x": (0.5, 1.5)})
    assert r.is_zero


def test_tolerance_scales_with_magnitude():
    big = Num(10) ** 12
    e = (x + big) - big - x
    assert is_zero(e, seed=0).is_zero


def test_sample_point_seed_stream():
    # every seeded verdict rests on this stream: one uniform per symbol,
    # in the given order, from the symbol's box or the default box; a
    # rejected draw still counts against the budget
    c = (Constraint(y - Num(1), ">"),)
    box = {"x": (0.5, 1.5)}
    for kw, default_box in (({}, (-2.0, 2.0)),
                            ({"default_box": (0.2, 2.0)}, (0.2, 2.0))):
        rng = random.Random(7)
        point, used = sample_point([x, y], c, rng, ParameterBinding(), box, **kw)
        ref = random.Random(7)
        draws = 0
        while True:
            draws += 1
            want = {x: ref.uniform(0.5, 1.5), y: ref.uniform(*default_box)}
            if want[y] > 1:
                break
        assert draws > 1
        assert (point, used) == (want, draws)
        assert rng.random() == ref.random()


def test_sample_point_rejects_domain_faults_propagates_unbound():
    # ln faults on the whole box: every draw is rejected, none is fatal,
    # and the budget runs out after exactly that many draws
    faulty = (Constraint(func("ln", x), ">"),)
    rng = random.Random(0)
    point, used = sample_point([x], faulty, rng, ParameterBinding(),
                               {"x": (-2.0, -1.0)}, retry_budget=5)
    assert (point, used) == (None, 5)
    ref = random.Random(0)
    for _ in range(5):
        ref.uniform(-2.0, -1.0)
    assert rng.random() == ref.random()
    # an unbound parameter is a fault of the input, not of the draw
    unbound = (Constraint(x - Param("k"), ">"),)
    with pytest.raises(UnboundSymbol):
        sample_point([x], unbound, random.Random(0), ParameterBinding())


def test_combine_labels_parts_and_takes_the_first_failing_witness():
    parts = [("a", Result("zero", "symbolic")),
             ("b", Result("nonzero", "probabilistic", witness={"x": 1.0},
                          witness_value=0.5, points_tested=3)),
             ("c", Result("nonzero", "probabilistic", witness={"x": 2.0},
                          witness_value=-0.75, points_tested=1)),
             ("d", Result("inconclusive", "probabilistic", points_tested=2))]
    rep = combine(parts, seed=4, tol=1e-6)
    assert [(p.label, p.verdict) for p in rep.parts] == \
        [("a", "zero"), ("b", "nonzero"), ("c", "nonzero"),
         ("d", "inconclusive")]
    assert rep.verdict == "fail" and not rep.passed
    assert rep.witness == {"x": 1.0}
    assert rep.witness_value == -0.75  # largest in magnitude
    assert rep.provenance == "probabilistic"
    assert (rep.seed, rep.tol_abs, rep.tol_rel) == (4, 1e-6, 1e-6)
    assert combine(parts[3:], 0, 1e-9).verdict == "inconclusive"
    only_zero = combine(parts[:1], 0, 1e-9)
    assert only_zero.passed and only_zero.provenance == "symbolic"


def test_check_parts_is_combine_over_seeded_zero_tests():
    # every check zero-tests part i on stream check_seed(seed, i)
    cs = (Constraint(x - Num(1), "!="),)
    residuals = [("zero", x - x),
                 ("identity", func("sin", x) ** 2 + func("cos", x) ** 2 - Num(1)),
                 ("nonzero", func("sin", x) - x),
                 ("undefined everywhere", func("ln", -x * x - Num(1)))]
    for seed, tol in product((0, 3), (1e-9, 1e-6)):
        got = check_parts(iter(residuals), cs, seed, tol)
        want = combine([(label, is_zero(r, cs, seed=check_seed(seed, i),
                                        tol=tol))
                        for i, (label, r) in enumerate(residuals)],
                       seed, tol)
        assert got == want
        assert [p.verdict for p in got.parts] == \
            ["zero", "zero", "nonzero", "inconclusive"]
