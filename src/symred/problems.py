"""Problem bundles: the line-oriented ``.prob`` format tying together a
jet-space declaration, parameters, equations, operators, ansaetze,
candidate reduced systems, solutions, transformation pairs, and
overdetermined pairs.  The grammar is documented in docs/format.md and
frozen by golden-file tests.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from .jets import CanonicalOperator, JetSpace, VectorField
from .numeric import SolutionSpec  # the solution record, re-exported here
from .parser import (
    ParseError, SymbolContext, UndeclaredSymbol, parse_equation,
    parse_expression,
)
# the overdetermined pair record, re-exported here
from .reduce import Ansatz, BacklundRelation, OverdeterminedSpec
from .systems import EquationSystem
from .zerotest import Constraint


class MalformedSection(ParseError):
    pass


class DuplicateName(ParseError):
    pass


_REL_TOKENS = ("!=", ">=", "<=", ">", "<")
_NAME = re.compile(r"[^\W\d]\w*")   # an identifier, as the parser reads one


@dataclass
class OperatorEntry:
    name: str
    operator: object  # VectorField | CanonicalOperator
    mode: str = ""    # "classical" | "conditional" | "lb" (advisory default)
    on: str = ""      # equation the check targets
    expect: str = "pass"


@dataclass
class AnsatzEntry:
    name: str
    ansatz: Ansatz
    original: str = ""
    candidate: str = ""
    derive: bool = False  # whether derive_reduction is expected to succeed
    expect: str = "pass"


@dataclass
class BacklundEntry:
    name: str
    relation: BacklundRelation
    expect: str = "pass"


@dataclass
class ProblemBundle:
    space: JetSpace
    invariants: tuple = ()
    promotions: dict = field(default_factory=dict)
    params: tuple = ()
    functions: tuple = ()
    param_constraints: tuple = ()
    equations: dict = field(default_factory=dict)
    operators: dict = field(default_factory=dict)   # name -> OperatorEntry
    ansatzes: dict = field(default_factory=dict)    # name -> AnsatzEntry
    reduced: dict = field(default_factory=dict)     # name -> EquationSystem
    solutions: dict = field(default_factory=dict)   # name -> SolutionSpec
    backlunds: dict = field(default_factory=dict)   # name -> BacklundEntry
    overdetermined: dict = field(default_factory=dict)
    name: str = ""

    def system(self, name: str) -> EquationSystem:
        if name in self.equations:
            return self.equations[name]
        if name in self.reduced:
            return self.reduced[name]
        raise KeyError(name)


# ---------------------------------------------------------------------------
# the reader

# The key words of each section kind.  A line of a section that starts
# with none of them is an expression line, except in [space] and
# [operator], which take key lines only.
_KEYS = {
    "space": ("independent", "dependent", "promote", "invariant"),
    "params": ("function",),
    "equation": ("constraint",),
    "reduced": ("constraint", "unknown"),
    "operator": ("type", "xi", "eta", "char", "mode", "on", "expect"),
    "ansatz": ("unknown", "where", "constraint", "nonneg", "assume",
               "original", "candidate", "derive", "expect"),
    "solution": ("kind", "of", "unknown", "bind", "box", "bracket", "guess",
                 "grid", "h", "n", "seed", "tol", "expect", "constraint",
                 "relation", "quadrature"),
    "backlund": ("source", "target", "constraint", "expect"),
    "overdetermined": ("constraint", "box", "n", "expect"),
}
_KEYS_ONLY = ("space", "operator")

MODES = ("classical", "conditional", "lb")


def _split_sections(text: str):
    sections = []
    current = None
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise MalformedSection("unterminated section header", ln)
            head = line[1:-1].split()
            if not head:
                raise MalformedSection("empty section header", ln)
            current = (head, ln, [])
            sections.append(current)
        else:
            if current is None:
                raise MalformedSection("content before the first section", ln)
            current[2].append((ln, line))
    if not sections:
        raise MalformedSection("empty problem file: a [space] section is mandatory")
    return sections


def _number(text: str, ln: int, kind=float):
    """``text`` as a ``kind`` (float or int); a ParseError naming line
    ``ln`` if it is not one."""
    try:
        return kind(text.strip())
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ParseError(f"expected {noun}, got {text.strip()!r}", ln)


def _integer(text: str, ln: int) -> int:
    return _number(text, ln, int)


def _count(text: str, ln: int) -> int:
    """A sample count: an integer of at least 1."""
    n = _integer(text, ln)
    if n < 1:
        raise ParseError(f"expected a count of at least 1, got {n}", ln)
    return n


def _range(text: str, ln: int):
    if ".." not in text:
        raise ParseError("range needs 'lo .. hi'", ln)
    lo, hi = text.split("..", 1)
    return _number(lo, ln), _number(hi, ln)


def _one_name(text: str, ln: int, key: str) -> str:
    names = text.split()
    if len(names) != 1:
        raise MalformedSection(f"{key} declares one name", ln)
    return names[0]


def _declaration(text: str, ln: int, key: str):
    """``phi1(w1, w2)`` -> ("phi1", ("w1", "w2"))."""
    decl = "".join(text.split())
    if "(" not in decl or not decl.endswith(")"):
        raise MalformedSection(
            f"{key} declaration must look like name(arg, ...)", ln)
    name, args = decl[:-1].split("(", 1)
    return name, tuple(a for a in args.split(",") if a)


def _constraint(text: str, ctx: SymbolContext, ln: int) -> Constraint:
    for rel in _REL_TOKENS:
        if rel in text:
            lhs, rhs = text.split(rel, 1)
            e = parse_expression(lhs, ctx, ln) - parse_expression(rhs, ctx, ln)
            return Constraint(e, rel)
    raise ParseError("constraint needs a relation (!=, >=, <=, >, <)", ln)


def _choice(key: str, choices: tuple, fault=MalformedSection):
    """A check for a ``key`` line whose value must be one of ``choices``."""
    def check(text: str, ln: int) -> str:
        value = text.strip()
        if value not in choices:
            raise fault(f"{key} takes " + " or ".join(map(repr, choices)), ln)
        return value
    return check


class _Section:
    """The lines of one section, read the same way for every kind.  A
    line that starts with one of the kind's keys is filed as
    ``(ln, rest)`` under that key; any other line is filed whole, as
    ``(ln, line)``, under ``None``.  Each list keeps file order."""

    def __init__(self, kind: str, lines):
        self.lines: dict = {}
        for ln, line in lines:
            parts = line.split(None, 1)
            key = parts[0]
            if key in _KEYS[kind]:
                rest = parts[1] if len(parts) > 1 else ""
            elif kind in _KEYS_ONLY:
                raise MalformedSection(f"unknown [{kind}] key {key!r}", ln)
            else:
                key, rest = None, line
            self.lines.setdefault(key, []).append((ln, rest))

    def get(self, key=None) -> list:
        return self.lines.get(key, [])

    def in_order(self, *keys) -> list:
        """``(ln, key, rest)`` for the lines under ``keys``, in file order."""
        return sorted((ln, key, rest) for key in keys
                      for ln, rest in self.get(key))

    def last(self, key: str, check=None, default=""):
        """The value of the last ``key`` line, every one passed through
        ``check(rest, ln)`` (or stripped); ``default`` without one."""
        value = default
        for ln, rest in self.get(key):
            value = check(rest, ln) if check else rest.strip()
        return value

    def expect(self) -> str:
        return self.last("expect", _choice("expect", ("pass", "fail"),
                                           ParseError), "pass")

    def named(self, key: str, form: str):
        """``(ln, name, value)`` for each ``key name = value`` line."""
        for ln, rest in self.get(key):
            name, eq, value = rest.partition("=")
            if not eq:
                raise ParseError(f"{key} needs '{form}'", ln)
            yield ln, name.strip(), value

    def ranges(self, key: str) -> dict:
        return {name: _range(value, ln)
                for ln, name, value in self.named(key, "var = lo .. hi")}

    def unknowns(self) -> dict:
        return dict(_declaration(rest, ln, "unknown")
                    for ln, rest in self.get("unknown"))

    def constraints(self, ctx: SymbolContext) -> list:
        return [_constraint(rest, ctx, ln) for ln, rest in self.get("constraint")]

    def equations(self, ctx: SymbolContext) -> list:
        return [parse_equation(line, ctx, ln) for ln, line in self.get()]


class _Loader:
    def __init__(self, text: str, name: str = ""):
        self.sections = _split_sections(text)
        self.bundle_name = name
        self.independent: list = []
        self.dependents: dict = {}
        self.invariants: list = []
        self.promotions: dict = {}
        self.params: list = []
        self.functions: list = []
        self.param_constraints: list = []
        self.seen_names: set = set()

    def context(self, independent=(), dependents=None, params=(),
                functions=()) -> SymbolContext:
        """The file's symbols, with a section's own added to them."""
        return SymbolContext(
            independent=tuple(self.independent) + tuple(self.invariants) +
            tuple(independent),
            params=tuple(self.params) + tuple(params),
            dependents={**self.dependents, **(dependents or {})},
            functions=tuple(self.functions) + tuple(functions))

    def claim(self, name: str, ln: int):
        if name in self.seen_names:
            raise DuplicateName(f"name {name!r} is already defined", ln)
        self.seen_names.add(name)

    def load(self) -> ProblemBundle:
        spaces = [(ln, lines) for head, ln, lines in self.sections
                  if head[0] == "space"]
        if not spaces:
            raise MalformedSection("a [space] section is mandatory",
                                   self.sections[0][1])
        if len(spaces) > 1:
            raise MalformedSection("only one [space] section is allowed",
                                   spaces[1][0])
        ln, lines = spaces[0]
        self._space(_Section("space", lines), ln)
        for head, ln, lines in self.sections:
            if head[0] == "params":
                self._params(_Section("params", lines))
        if not self.independent:
            raise MalformedSection("[space] declares no independent variables",
                                   self.sections[0][1])

        space = JetSpace(tuple(self.independent), dict(self.dependents))
        bundle = ProblemBundle(space=space, invariants=tuple(self.invariants),
                               promotions=dict(self.promotions),
                               params=tuple(self.params),
                               functions=tuple(self.functions),
                               param_constraints=tuple(self.param_constraints),
                               name=self.bundle_name)
        handlers = {
            "equation": self._equation,
            "operator": self._operator,
            "ansatz": self._ansatz,
            "reduced": lambda *a: self._equation(*a, reduced=True),
            "solution": self._solution,
            "backlund": self._backlund,
            "overdetermined": self._overdetermined,
        }
        for head, ln, lines in self.sections:
            kind = head[0]
            if kind in ("space", "params"):
                continue
            if kind not in handlers:
                raise MalformedSection(f"unknown section kind {kind!r}", ln)
            if len(head) != 2:
                raise MalformedSection(f"[{kind}] needs exactly one name", ln)
            self.claim(head[1], ln)
            handlers[kind](bundle, head[1], _Section(kind, lines), ln)
        return bundle

    # -- declarations -------------------------------------------------------

    def _space(self, sec, hln):
        for ln, key, rest in sec.in_order(*_KEYS["space"]):
            if key == "independent":
                if not rest:
                    raise MalformedSection("independent needs variable names", ln)
                self.independent.extend(rest.split())
            elif key == "dependent":
                name, args = _declaration(rest, ln, key)
                self.dependents[name] = args
            elif key == "promote":
                # "promote u -> x3": treat the dependent u as an extra
                # formally independent coordinate named x3
                if "->" not in rest:
                    raise MalformedSection("promote needs 'dep -> var'", ln)
                dep, var = (p.strip() for p in rest.split("->", 1))
                if dep not in self.dependents:
                    raise UndeclaredSymbol(f"cannot promote undeclared {dep!r}", ln)
                self.promotions[dep] = var
                if var not in self.independent:
                    self.independent.append(var)
            else:
                self.invariants.append(_one_name(rest, ln, key))
        for dep, args in self.dependents.items():
            for a in args:
                if a not in self.independent and a not in self.invariants:
                    raise UndeclaredSymbol(
                        f"dependent {dep!r} uses undeclared argument {a!r}", hln)

    def _params(self, sec):
        self.functions += [_one_name(rest, ln, "function")
                           for ln, rest in sec.get("function")]
        for ln, line in sec.get():
            # a name, then optionally a constraint on it: the whole line,
            # "k != 0" or "k!=0"
            name = _NAME.match(line)
            if name is None:
                raise MalformedSection(
                    "a [params] line starts with the parameter's name", ln)
            name = name.group()
            self.params.append(name)
            if line[len(name):].strip():
                ctx = SymbolContext(params=tuple(self.params))
                self.param_constraints.append(_constraint(line, ctx, ln))

    # -- named sections -----------------------------------------------------

    def _equation(self, bundle, name, sec, hln, reduced=False):
        """[equation] and [reduced]: a reduced system declares its own
        unknowns, and the parameter constraints attach to equations only."""
        phis = sec.unknowns()
        ctx = self.context(dependents=phis)
        equations = sec.equations(ctx)
        constraints = sec.constraints(ctx)
        if not equations:
            kind = "reduced" if reduced else "equation"
            raise MalformedSection(f"[{kind} {name}] has no equations", hln)
        if not reduced:
            constraints += self.param_constraints
        js = JetSpace(tuple(self.independent) + tuple(self.invariants),
                      {**self.dependents, **phis})
        systems = bundle.reduced if reduced else bundle.equations
        systems[name] = EquationSystem(js, equations, constraints, name=name)

    def _operator(self, bundle, name, sec, hln):
        ctx = self.context()
        parts = {}
        for key, known, what in (
                ("xi", self.independent, "xi component for unknown variable"),
                ("eta", self.dependents, "eta component for unknown dependent"),
                ("char", self.dependents, "characteristic for unknown dependent")):
            parts[key] = {}
            for ln, target, text in sec.named(key, "name = expression"):
                expr = parse_expression(text, ctx, ln)
                if target not in known:
                    raise UndeclaredSymbol(f"{what} {target!r}", ln)
                parts[key][target] = expr
        mode = sec.last("mode", _choice("mode", MODES))
        expect = sec.expect()
        otype = sec.last("type", default=None)
        if otype == "point":
            if mode == "lb":
                raise MalformedSection("mode lb needs type canonical",
                                       sec.get("mode")[-1][0])
            op = VectorField(parts["xi"], parts["eta"], name=name)
        elif otype == "canonical":
            op = CanonicalOperator(parts["char"], name=name)
        else:
            raise MalformedSection(
                f"[operator {name}] needs 'type point' or 'type canonical'", hln)
        on = sec.last("on")
        if on and on not in bundle.equations:
            raise UndeclaredSymbol(f"operator {name!r} targets unknown equation "
                                   f"{on!r}", hln)
        bundle.operators[name] = OperatorEntry(name, op, mode=mode, on=on,
                                               expect=expect)

    def _ansatz(self, bundle, name, sec, hln):
        phis = sec.unknowns()
        positive = bool(sec.last("assume", _choice("assume", ("positive",))))
        expect = sec.expect()
        wheres = list(sec.named("where", "w = expression"))
        local = [w for _, w, _ in wheres if w not in self.invariants]
        for pname, args in phis.items():
            for a in args:
                if a not in self.independent and a not in self.invariants and \
                        a not in local:
                    raise UndeclaredSymbol(
                        f"unknown {pname!r} uses undeclared argument {a!r}", hln)
        ctx = self.context(independent=local, dependents=phis)
        invariants = {w: parse_expression(text, ctx, ln)
                      for ln, w, text in wheres}
        targets = sec.equations(ctx)
        constraints = sec.constraints(ctx)
        nonneg = [parse_expression(rest, ctx, ln) for ln, rest in sec.get("nonneg")]
        if not targets:
            raise MalformedSection(f"[ansatz {name}] assigns nothing", hln)
        if not phis:
            raise MalformedSection(f"[ansatz {name}] declares no unknowns", hln)
        ansatz = Ansatz(js=bundle.space, targets=targets, phis=phis,
                        invariants=invariants,
                        constraints=tuple(constraints + self.param_constraints),
                        positive=positive, nonneg=tuple(nonneg), name=name)
        original = sec.last("original")
        if original and original not in bundle.equations:
            raise UndeclaredSymbol(f"ansatz {name!r} references unknown equation "
                                   f"{original!r}", hln)
        bundle.ansatzes[name] = AnsatzEntry(
            name, ansatz, original=original, candidate=sec.last("candidate"),
            derive=bool(sec.get("derive")), expect=expect)

    def _solution(self, bundle, name, sec, hln):
        spec = SolutionSpec(name=name, of=sec.last("of"),
                            aux=[rest.strip() for _, rest in sec.get("unknown")])
        spec.kind = sec.last("kind", _choice("kind", ("explicit", "implicit")),
                             spec.kind)
        for ln, bname, value in sec.named("bind", "name = value"):
            how = value.split() or [""]
            if bname not in self.functions:
                spec.binds[bname] = _number(value, ln)
            elif how[0] == "const":
                spec.fn_binds[bname] = ("const", _number(" ".join(how[1:]), ln))
            elif how[0] in ("sin", "cos", "exp"):
                spec.fn_binds[bname] = (how[0],)
            else:
                raise ParseError(
                    "function binding must be sin, cos, exp, or const", ln)
        spec.box = sec.ranges("box")
        spec.brackets = sec.ranges("bracket")
        spec.guesses = {v: _number(value, ln)
                        for ln, v, value in sec.named("guess", "var = value")}
        spec.grid = sec.last(
            "grid", lambda text, ln: tuple(_integer(p, ln) for p in text.split()),
            spec.grid)
        spec.h = sec.last("h", _number, spec.h)
        spec.n = sec.last("n", _count, spec.n)
        spec.seed = sec.last("seed", _integer, spec.seed)
        spec.tol = sec.last("tol", _number, spec.tol)
        spec.expect = sec.expect()
        if not spec.of or spec.of not in bundle.equations and \
                spec.of not in bundle.reduced:
            raise UndeclaredSymbol(
                f"[solution {name}] must reference a defined system with 'of'", hln)
        target = bundle.system(spec.of)
        quad_names = [rest.split("(", 1)[0].strip()
                      for _, rest in sec.get("quadrature")]
        ctx = self.context(dependents=target.js.dependents, params=spec.aux,
                           functions=quad_names)
        # in file order, so that the first faulty line is the one named
        for ln, key, rest in sec.in_order("constraint", "quadrature",
                                          "relation", None):
            if key == "constraint":
                spec.constraints.append(_constraint(rest, ctx, ln))
            elif key == "quadrature":
                # "quadrature I(s) = <integrand in s> from <lower>"
                head, eq, expr_text = rest.partition("=")
                head = head.replace(" ", "")
                if not eq or "(" not in head or not head.endswith(")"):
                    raise MalformedSection(
                        "quadrature declaration must look like I(s) = ...", ln)
                qname, qvar = head[:-1].split("(", 1)
                lower = 0.0
                if " from " in expr_text:
                    expr_text, lower_text = expr_text.rsplit(" from ", 1)
                    lower = _number(lower_text, ln)
                qctx = SymbolContext(independent=(qvar,),
                                     params=tuple(self.params),
                                     functions=tuple(self.functions))
                spec.quadratures[qname] = (qvar, parse_expression(expr_text, qctx, ln),
                                           lower)
            elif key == "relation":
                # "relation theta : lhs = rhs" -> residual lhs - rhs
                if ":" not in rest:
                    raise ParseError("relation needs 'unknown : lhs = rhs'", ln)
                uname, eq_text = (p.strip() for p in rest.split(":", 1))
                if "=" not in eq_text:
                    raise ParseError("relation needs an equation after ':'", ln)
                lt, rt = eq_text.split("=", 1)
                res = parse_expression(lt, ctx, ln) - parse_expression(rt, ctx, ln)
                if uname not in spec.aux and uname not in target.js.dependents:
                    raise UndeclaredSymbol(
                        f"relation unknown {uname!r} is not declared", ln)
                spec.relations.append((uname, res))
            else:
                lhs, rhs = parse_equation(rest, ctx, ln)
                if lhs.index:
                    raise ParseError(
                        "explicit solutions assign the dependent itself", ln)
                spec.explicit.append((lhs.dep, rhs))
        if spec.kind == "explicit":
            if not spec.explicit:
                raise MalformedSection(f"[solution {name}] assigns nothing", hln)
            spec.dep = spec.explicit[0][0]
        else:
            if not spec.relations:
                raise MalformedSection(f"[solution {name}] has no relations", hln)
            last = spec.relations[-1][0]
            if last not in target.js.dependents:
                raise MalformedSection(
                    "the last relation must solve for the dependent variable", hln)
            spec.dep = last
        bundle.solutions[name] = spec

    def _backlund(self, bundle, name, sec, hln):
        ctx = self.context()
        expect = sec.expect()
        relations = sec.equations(ctx)
        constraints = sec.constraints(ctx)
        source, target = sec.last("source"), sec.last("target")
        for ref in (source, target):
            if ref not in bundle.equations:
                raise UndeclaredSymbol(
                    f"[backlund {name}] references unknown equation {ref!r}", hln)
        if not relations:
            raise MalformedSection(f"[backlund {name}] has no relations", hln)
        rel = BacklundRelation(js=bundle.space, relations=tuple(relations),
                               source=bundle.equations[source],
                               target=bundle.equations[target],
                               constraints=tuple(constraints +
                                                 self.param_constraints),
                               name=name)
        bundle.backlunds[name] = BacklundEntry(name, rel, expect=expect)

    def _overdetermined(self, bundle, name, sec, hln):
        ctx = self.context()
        constraints = sec.constraints(ctx)
        box = sec.ranges("box")
        n = sec.last("n", _count, 32)
        expect = sec.expect()
        assignments = sec.equations(ctx)
        if not assignments:
            raise MalformedSection(f"[overdetermined {name}] has no assignments", hln)
        bundle.overdetermined[name] = OverdeterminedSpec(
            name, tuple(assignments),
            tuple(constraints + self.param_constraints), box, n, expect)


def parse_problem(text: str, name: str = "") -> ProblemBundle:
    """Parse a ``.prob`` bundle; raises ParseError subclasses
    (MalformedSection, DuplicateName, UndeclaredSymbol) on bad input."""
    bundle = _Loader(text, name).load()
    # cross-reference validation deferred until everything is defined
    for entry in bundle.ansatzes.values():
        if entry.candidate and entry.candidate not in bundle.reduced:
            raise UndeclaredSymbol(
                f"ansatz {entry.name!r} names unknown candidate "
                f"{entry.candidate!r}", 0)
    return bundle


def load_problem(path) -> ProblemBundle:
    p = Path(path)
    return parse_problem(p.read_text(encoding="utf-8"), name=p.stem)
