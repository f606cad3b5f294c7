import pytest

from symred.expr import Jet, Num, Param, Var, func
from symred.parser import ParseError, UndeclaredSymbol, print_equation
from symred.problems import (
    DuplicateName, MalformedSection, parse_problem,
)

MINI = """
# minimal single-equation bundle
[space]
independent x1 x2
dependent u(x1,x2)

[params]
C
alpha != 0

[equation heat]
u[x2] = C*u[x1,x1]
constraint u > 0
"""


def test_minimal_bundle_parses():
    b = parse_problem(MINI, name="mini")
    assert b.name == "mini"
    assert b.space.independent == ("x1", "x2")
    assert set(b.params) == {"C", "alpha"}
    sys_ = b.equations["heat"]
    assert len(sys_.equations) == 1
    lhs, rhs = sys_.equations[0]
    assert lhs == Jet("u", (("x2", 1),))
    assert rhs == Param("C") * Jet("u", (("x1", 2),))


def test_param_constraints_attach_to_equations():
    b = parse_problem(MINI)
    rels = sorted(c.rel for c in b.equations["heat"].constraints)
    assert rels == ["!=", ">"]


def test_golden_equation_print():
    # the printer output for the bundled grammar is pinned
    b = parse_problem(MINI)
    lhs, rhs = b.equations["heat"].equations[0]
    assert print_equation(lhs, rhs) == "u[x2] = C*u[x1,x1]"


def test_missing_space_section_rejected():
    with pytest.raises(MalformedSection):
        parse_problem("[equation e]\nu[x1] = 0\n")


def test_duplicate_names_rejected():
    text = MINI + "\n[equation heat]\nu[x1] = 0\n"
    with pytest.raises(DuplicateName):
        parse_problem(text)


def test_undeclared_symbol_rejected():
    text = MINI.replace("C*u[x1,x1]", "B*u[x1,x1]")
    with pytest.raises(UndeclaredSymbol):
        parse_problem(text)


def test_unknown_section_kind_rejected():
    with pytest.raises(MalformedSection):
        parse_problem(MINI + "\n[mystery m]\nfoo\n")


def test_error_reports_line_number():
    bad = MINI + "\n[equation broken]\nu[x1] = sin(\n"
    with pytest.raises(Exception) as exc:
        parse_problem(bad)
    assert getattr(exc.value, "line", None) is not None


@pytest.mark.parametrize("section, bad", [
    ("[reduced r]", "unknown phi"),
    ("[reduced r]", "unknown"),
    ("[solution s]", "bracket u 0 .. 1"),
    ("[solution s]", "guess u 0.5"),
    ("[solution s]", "grid 5 x"),
    ("[solution s]", "n many"),
    ("[solution s]", "seed 1.5"),
    ("[solution s]", "bind F = const"),
    ("[solution s]", "quadrature I(s) from 0"),
    ("[overdetermined o]", "box x1 0 .. 1"),
    ("[overdetermined o]", "n many"),
])
def test_malformed_line_is_a_parse_error_naming_it(section, bad):
    head = MINI.replace("[params]\n", "[params]\nfunction F\n") + \
        f"\n{section}\n"
    body = {"[reduced r]": "phi[x1] = 0\n",
            "[solution s]": "kind explicit\nof heat\nu = x1\n",
            "[overdetermined o]": "u[x1] = u\n"}[section]
    text = head + bad + "\n" + body
    with pytest.raises(ParseError) as exc:
        parse_problem(text)
    assert exc.value.line == head.count("\n") + 1


def test_comments_and_blank_lines_ignored():
    spaced = MINI.replace("[params]", "# a comment\n\n[params]")
    b = parse_problem(spaced)
    assert "heat" in b.equations


def test_promote_adds_coordinate():
    text = """
[space]
independent x1
dependent u(x1)
dependent v(x1,x3)
promote u -> x3

[equation e]
v[x3] = v[x1]
"""
    b = parse_problem(text)
    assert "x3" in b.space.independent
    assert b.promotions == {"u": "x3"}


def test_where_clause_declares_invariant():
    text = """
[space]
independent x1 x2
dependent u(x1,x2)

[equation e]
u[x1] = u

[ansatz a]
u = phi1(w)
where w = x1 + x2
unknown phi1(w)
original e
"""
    b = parse_problem(text)
    a = b.ansatzes["a"].ansatz
    assert "w" in a.invariants
    assert a.invariants["w"] == Var("x1") + Var("x2")


def test_solution_spec_binding_and_plan():
    text = MINI + """
[solution s]
kind explicit
of heat
u = exp(x2)*sin(x1)
bind C = -1
box x1 = 0 .. 1
box x2 = 0 .. 1
n 16
seed 3
tol 1e-10
"""
    b = parse_problem(text)
    spec = b.solutions["s"]
    binding = spec.make_binding()
    plan = spec.make_plan()
    assert plan.n == 16 and plan.seed == 3
    assert spec.tol == 1e-10
    form = spec.make_form(b.space.dependents)
    assert form.kind == "explicit" and form.dep == "u"


def test_solution_must_reference_known_system():
    text = MINI + "\n[solution s]\nkind explicit\nof nowhere\nu = x1\n"
    with pytest.raises(UndeclaredSymbol):
        parse_problem(text)


def test_expect_marker_validation():
    text = MINI.replace("[equation heat]",
                        "[operator bad]\ntype point\non heat\nexpect maybe\n"
                        "xi x1 = 1\n\n[equation heat]")
    with pytest.raises(Exception):
        parse_problem(text)


def test_bundled_files_load(bundles):
    assert set(bundles) == {"eq2", "eq3", "eq4", "eq6", "ode32", "sg_deformed"}
    for b in bundles.values():
        assert b.space.independent


def test_bundled_cross_references_resolve(bundles):
    for b in bundles.values():
        for entry in b.operators.values():
            assert entry.on in b.equations
        for entry in b.ansatzes.values():
            if entry.original:
                assert entry.original in b.equations
            if entry.candidate:
                assert entry.candidate in b.reduced
        for spec in b.solutions.values():
            b.system(spec.of)


def test_golden_bundle_shapes(bundles):
    assert set(bundles["eq3"].operators) == {"D", "Q", "halfQminusD"}
    assert set(bundles["eq4"].solutions) == {"eq5"}
    assert set(bundles["eq6"].solutions) == {"implicitTheta", "thetaFlipped"}
    assert set(bundles["sg_deformed"].backlunds) == {"eq18", "eq18doubled"}
    assert set(bundles["eq2"].overdetermined) == {"pairAfter5"}
    assert bundles["ode32"].ansatzes["logAnsatz"].derive is True
    assert bundles["eq3"].ansatzes["ansatz4"].derive is False
