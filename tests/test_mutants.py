"""Mutation analysis of the operator rows (DeMillo, Lipton & Sayward,
"Hints on test data selection", IEEE Computer 11(4), 1978): a check
that passed everything would still pass every bundled operator that
should pass, so each such operator gets failing twins.  Each mutant
scales one part of the operator by 8/7 and must get ``fail``.

- A point operator (``VectorField``): one xi or eta component.
- A canonical operator whose characteristic is an opaque function: one
  term of its argument (ode32's ``Q2``, ``F(u + ln(u[x1]))``).  Scaling
  the whole characteristic is not a valid mutant: ``(8/7)*F(...)`` is a
  symmetry whenever ``F(...)`` is.  ``Q1`` (``u[x1,x2]/u[x1]^2``) has no
  such argument, and no mutant covers it here.

Adding 1 instead of scaling is not a valid mutant either: a translation
added to a symmetry of an autonomous equation is still a symmetry."""

from dataclasses import replace
from fractions import Fraction

import pytest

from symred import cli
from symred.expr import Add, Num, Opaque, add, mul, opaque
from symred.jets import CanonicalOperator, VectorField

SCALE = Num(Fraction(8, 7))


def _point_mutants(vf: VectorField):
    for part in ("xi", "eta"):
        for key, comp in getattr(vf, part).items():
            comps = {**getattr(vf, part), key: mul(SCALE, comp)}
            yield f"{part} {key}", replace(vf, **{part: comps})


def _canonical_mutants(op: CanonicalOperator):
    for dep, char in op.characteristics.items():
        if not (isinstance(char, Opaque) and isinstance(char.arg, Add)):
            continue
        terms = char.arg.terms
        for i, term in enumerate(terms):
            arg = add(*terms[:i], mul(SCALE, term), *terms[i + 1:])
            chars = {**op.characteristics,
                     dep: opaque(char.name, arg, char.order)}
            yield f"char {dep} term {i}", replace(op, characteristics=chars)


def mutants(bundles) -> list:
    """(bundle, operator entry, label, mutated entry) for every passing
    bundled operator."""
    out = []
    for name in sorted(bundles):
        bundle = bundles[name]
        for entry in bundle.operators.values():
            if entry.expect != "pass":
                continue
            op = entry.operator
            gen = (_point_mutants(op) if isinstance(op, VectorField)
                   else _canonical_mutants(op))
            out += [(bundle, entry, label, replace(entry, operator=m))
                    for label, m in gen]
    return out


def test_mutants_cover_every_point_component_and_q2(bundles):
    found = mutants(bundles)
    point = [m for m in found if isinstance(m[1].operator, VectorField)]
    canonical = [(b.name, e.name, label) for b, e, label, _ in found
                 if isinstance(e.operator, CanonicalOperator)]
    assert len({(b.name, e.name) for b, e, _, _ in point}) == 7
    assert len(point) == 23
    assert canonical == [("ode32", "Q2", "char u term 0"),
                         ("ode32", "Q2", "char u term 1")]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_operator_mutant_fails(bundles, seed):
    for bundle, _, label, mutant in mutants(bundles):
        row = cli._run_operator(bundle, mutant, seed, None)
        assert row["verdict"] == "fail", (row["case"], label, row)
