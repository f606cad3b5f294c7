from importlib import resources

import pytest

from symred.expr import Jet, Num, Param, Var, func
from symred.parser import ParseError, UndeclaredSymbol, print_equation
from symred.problems import (
    DuplicateName, MalformedSection, parse_problem,
)

import reference_problems
from test_golden import LADDER_BUNDLE

BUNDLED = ("eq2", "eq3", "eq4", "eq6", "ode32", "sg_deformed")

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
    ("[solution s]", "grid 0 5"),
    ("[solution s]", "grid -2 5"),
    ("[solution s]", "tol nan"),
    ("[solution s]", "tol -1"),
    ("[solution s]", "tol inf"),
    ("[solution s]", "n many"),
    ("[solution s]", "n 0"),
    ("[solution s]", "seed 1.5"),
    ("[solution s]", "h 0"),
    ("[solution s]", "h -0.0001"),
    # a relation that uses an unknown a later relation solves
    ("[solution s]",
     "relation u : u = theta\nrelation theta : theta = x1\nunknown theta"),
    ("[solution s]", "bind F = const"),
    ("[solution s]", "quadrature I(s) from 0"),
    ("[overdetermined o]", "box x1 0 .. 1"),
    ("[overdetermined o]", "n many"),
    ("[overdetermined o]", "n 0"),
    ("[operator o]", "mode conditonal"),
    ("[params]", "2k != 0"),
    ("[params]", "!= 0"),
])
def test_malformed_line_is_a_parse_error_naming_it(section, bad):
    head = MINI.replace("[params]\n", "[params]\nfunction F\n") + \
        f"\n{section}\n"
    body = {"[reduced r]": "phi[x1] = 0\n",
            "[solution s]": "kind explicit\nof heat\nu = x1\n",
            "[overdetermined o]": "u[x1] = u\n",
            "[operator o]": "type point\non heat\nxi x1 = 1\n",
            "[params]": "D\n"}[section]
    text = head + bad + "\n" + body
    with pytest.raises(ParseError) as exc:
        parse_problem(text)
    assert exc.value.line == head.count("\n") + 1


def test_param_constraint_needs_no_spaces():
    spaced = parse_problem(MINI)
    tight = parse_problem(MINI.replace("alpha != 0", "alpha!=0"))
    assert tight == spaced
    assert tight.params == ("C", "alpha")
    assert [c.rel for c in tight.param_constraints] == ["!="]
    for bad in ("!= 0", "2alpha > 0"):
        with pytest.raises(MalformedSection) as exc:
            parse_problem(MINI.replace("alpha != 0", bad))
        assert exc.value.line == MINI.splitlines().index("alpha != 0") + 1


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


def test_space_lines_are_read_in_file_order():
    text = ("[space]\nindependent x1\ndependent u(x1)\npromote u -> x3\n"
            "independent x2\n")
    assert parse_problem(text).space.independent == ("x1", "x3", "x2")
    with pytest.raises(UndeclaredSymbol) as exc:
        parse_problem("[space]\nindependent x1\npromote u -> x3\n"
                      "dependent u(x1)\n")
    assert exc.value.line == 3


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
    assert spec.make_binding().params == {"C": -1.0}
    assert spec.n == 16 and spec.seed == 3
    assert spec.tol == 1e-10
    assert spec.kind == "explicit" and spec.dep == "u"


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


def test_mode_lb_on_a_point_operator_is_rejected_at_its_mode_line():
    text = MINI + "\n[operator shift]\ntype point\nmode lb\nxi x1 = 1\n"
    mode_line = text.split("\n").index("mode lb") + 1
    with pytest.raises(MalformedSection, match="type canonical") as exc:
        parse_problem(text)
    assert exc.value.line == mode_line


def test_second_space_section_rejected():
    text = MINI + "\n[space]\nindependent x3\n"
    headers = [i for i, line in enumerate(text.split("\n"), 1)
               if line == "[space]"]
    with pytest.raises(MalformedSection) as exc:
        parse_problem(text)
    assert exc.value.line == headers[1]


# -- the reader against the one it replaced ----------------------------------

def _outcome(parse, text):
    """The bundle, or the class and line of the error."""
    try:
        return parse(text, name="b")
    except Exception as exc:  # compared by class and line below
        return type(exc), getattr(exc, "line", None)


def _bundled_text(name):
    return (resources.files("symred") / "data" / f"{name}.prob").read_text(
        encoding="utf-8")


@pytest.mark.parametrize("text", [_bundled_text(n) for n in BUNDLED] +
                         [MINI, LADDER_BUNDLE])
def test_reader_builds_the_reference_bundle(text):
    got = parse_problem(text, name="b")
    assert got == reference_problems.parse_problem(text, name="b")


def _mutations(line):
    """Single-line edits: delete the line, drop its first '=' or '(',
    keep only its first word, prefix a bogus key."""
    yield []
    for ch in "=(":
        if ch in line:
            yield [line.replace(ch, "", 1)]
    if line.split():
        yield [line.split()[0]]
    yield ["bogus " + line]


def _bad_mode(line):
    words = line.split()
    return words[:1] == ["mode"] and \
        words[1:] not in (["classical"], ["conditional"], ["lb"])


@pytest.mark.parametrize("name", BUNDLED)
def test_reader_fails_like_the_reference_on_mutated_lines(name):
    """Every edit of every line gives the reference's bundle, or an error
    of its class at its line.  The reader mends three faults of the
    reference; only the first can arise from these edits, and it is
    checked on its own terms: a ``mode`` line without one of the three
    modes, which the reference took as the default, is a MalformedSection
    at that line.  (The other two: a second [space] section, which the
    reference merged into the first, is an error; an operator without an
    ``on`` line still parses, and the CLI refuses to check it.)"""
    lines = _bundled_text(name).split("\n")
    for i, line in enumerate(lines):
        for new in _mutations(line):
            text = "\n".join(lines[:i] + new + lines[i + 1:])
            want = _outcome(reference_problems.parse_problem, text)
            got = _outcome(parse_problem, text)
            if new and _bad_mode(new[0]):
                assert not isinstance(want, tuple)
                assert got == (MalformedSection, i + 1)
            else:
                assert got == want, (i + 1, new)
