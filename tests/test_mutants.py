"""Mutation analysis of the bundled rows (DeMillo, Lipton & Sayward,
"Hints on test data selection", IEEE Computer 11(4), 1978): a check
that passed everything would still pass every bundled entry that should
pass, so each such entry gets failing twins.  Each mutant scales one
part of the entry by 8/7, and every row it produces must get ``fail``.

- A point operator (``VectorField``): one xi or eta component.
- A canonical operator whose characteristic is an opaque function: one
  term of its argument (ode32's ``Q2``, ``F(u + ln(u[x1]))``).  Scaling
  the whole characteristic is not a valid mutant: ``(8/7)*F(...)`` is a
  symmetry whenever ``F(...)`` is.  ``Q1`` (``u[x1,x2]/u[x1]^2``) has no
  such argument, and no mutant covers it here.
- An ansatz that names a candidate reduced system: one top-level term of
  a right side of the candidate, or of the ansatz's targets.  Its rows
  are the reduction row and, where the entry has ``derive``, the
  derivation row.
- An explicit solution, a Bäcklund pair or an overdetermined pair: one
  top-level term of a right side.  ``constantF``'s ``cos(x2)`` term is
  left out: with F = 1, eq35 reads u[x1,x2] = u[x1]^2, and adding any
  function of x2 to a solution u keeps it a solution, so that mutant is
  equivalent.
- An implicit solution: one top-level term of a relation's residual
  ``lhs - rhs``.  The root each relation solves for moves, so these rows
  drive the bracketed Newton solve on roots away from the true ones.

Adding 1 instead of scaling is not a valid mutant either: a translation
added to a symmetry of an autonomous equation is still a symmetry."""

from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from symred import cli
from symred.expr import Add, Num, Opaque, add, mul, opaque
from symred.jets import CanonicalOperator, VectorField
from symred.parser import print_expression

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


# (case, label) of the mutants that are equivalent to their original
EQUIVALENT = {("ode32:constantF", "u term cos(x2)")}


def _scaled_terms(pairs):
    """(label, pairs) for each top-level term of each right side of the
    (lhs, rhs) pairs, with that one term scaled."""
    pairs = tuple(pairs)
    for k, (lhs, rhs) in enumerate(pairs):
        terms = rhs.terms if isinstance(rhs, Add) else (rhs,)
        for i, term in enumerate(terms):
            new = add(*terms[:i], mul(SCALE, term), *terms[i + 1:])
            yield (f"{lhs} term {print_expression(term)}",
                   pairs[:k] + ((lhs, new),) + pairs[k + 1:])


def _only(bundle, kind: str, entry, **changes):
    """The bundle with one entry of ``kind`` and none other, so that
    ``run_suite`` gives exactly that entry's rows."""
    empty = dict(operators={}, ansatzes={}, solutions={}, backlunds={},
                 overdetermined={})
    return replace(bundle, **{**empty, kind: {entry.name: entry}, **changes})


def row_mutants(bundles) -> list:
    """(case, label, one-entry bundle) for every mutant of a passing
    ansatz with a candidate, solution, Bäcklund pair or overdetermined
    pair."""
    out = []
    for name in sorted(bundles):
        b = bundles[name]
        for e in b.ansatzes.values():
            if e.expect != "pass" or not e.candidate:
                continue
            cand = b.reduced[e.candidate]
            for label, eqs in _scaled_terms(cand.equations):
                reduced = {**b.reduced,
                           e.candidate: replace(cand, equations=eqs)}
                out.append((f"{name}:{e.candidate}", label,
                            _only(b, "ansatzes", e, reduced=reduced)))
            for label, targets in _scaled_terms(e.ansatz.targets):
                m = replace(e, ansatz=replace(e.ansatz, targets=targets))
                out.append((f"{name}:{e.name}", label, _only(b, "ansatzes", m)))
        for spec in b.solutions.values():
            if spec.expect != "pass":
                continue
            part = "explicit" if spec.kind == "explicit" else "relations"
            for label, pairs in _scaled_terms(getattr(spec, part)):
                m = replace(spec, **{part: list(pairs)})
                out.append((f"{name}:{spec.name}", label,
                            _only(b, "solutions", m)))
        for e in b.backlunds.values():
            if e.expect != "pass":
                continue
            for label, relations in _scaled_terms(e.relation.relations):
                m = replace(e, relation=replace(e.relation,
                                                relations=relations))
                out.append((f"{name}:{e.name}", label,
                            _only(b, "backlunds", m)))
        for spec in b.overdetermined.values():
            if spec.expect != "pass":
                continue
            for label, assignments in _scaled_terms(spec.assignments):
                m = replace(spec, assignments=assignments)
                out.append((f"{name}:{spec.name}", label,
                            _only(b, "overdetermined", m)))
    return [m for m in out if m[:2] not in EQUIVALENT]


def test_row_mutants_cover_every_right_side_term(bundles):
    counts = Counter(case for case, _, _ in row_mutants(bundles))
    assert counts == {
        "eq2:pairAfter5": 2, "eq3:ansatz4": 3, "eq3:eq4": 3, "eq4:eq5": 2,
        "eq6:implicitTheta": 4, "ode32:constantF": 1, "ode32:eq36": 1,
        "ode32:eq38": 2, "ode32:logAnsatz": 2, "sg_deformed:eq16": 3,
        "sg_deformed:eq17": 2, "sg_deformed:eq18": 3,
    }


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_row_mutant_fails(bundles, seed):
    rows = 0
    for case, label, bundle in row_mutants(bundles):
        out = cli.run_suite(bundle, seed)
        assert out and all(r["verdict"] == "fail" for r in out), \
            (case, label, out)
        rows += len(out)
    assert rows == 36  # 28 mutants, 8 of them with a derivation row too
