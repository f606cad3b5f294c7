"""The ``.prob`` reader that ``symred.problems`` had before one key-line
reader served every section: seven hand-written key loops, each with
its own copy of the shared helpers.  It is kept verbatim, building
symred's own record classes, only as the reference the new reader is
tested against."""

from __future__ import annotations

from symred.jets import CanonicalOperator, JetSpace, VectorField
from symred.parser import (
    ParseError, SymbolContext, UndeclaredSymbol, parse_equation,
    parse_expression,
)
from symred.problems import (
    AnsatzEntry, BacklundEntry, DuplicateName, MalformedSection,
    OperatorEntry, OverdeterminedSpec, ProblemBundle, SolutionSpec,
)
from symred.reduce import Ansatz, BacklundRelation
from symred.systems import EquationSystem
from symred.zerotest import Constraint

_REL_TOKENS = ("!=", ">=", "<=", ">", "<")


# ---------------------------------------------------------------------------

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


def _parse_float(text: str, ln: int, kind=float):
    """``text`` as a ``kind`` (float or int); a ParseError naming line
    ``ln`` if it is not one."""
    try:
        return kind(text.strip())
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ParseError(f"expected {noun}, got {text.strip()!r}", ln)


def _parse_range(text: str, ln: int):
    if ".." not in text:
        raise ParseError("range needs 'lo .. hi'", ln)
    lo, hi = text.split("..", 1)
    return _parse_float(lo, ln), _parse_float(hi, ln)


def _parse_unknown(decl: str, ln: int):
    """``phi1(w1, w2)`` -> ("phi1", ("w1", "w2"))."""
    decl = decl.replace(" ", "")
    if "(" not in decl or not decl.endswith(")"):
        raise MalformedSection("unknown declaration must look like phi1(w)", ln)
    pname, args = decl[:-1].split("(", 1)
    return pname, tuple(a for a in args.split(",") if a)


def _parse_constraint(text: str, ctx: SymbolContext, ln: int) -> Constraint:
    for rel in _REL_TOKENS:
        if rel in text:
            lhs, rhs = text.split(rel, 1)
            e = parse_expression(lhs, ctx, ln) - parse_expression(rhs, ctx, ln)
            return Constraint(e, rel)
    raise ParseError("constraint needs a relation (!=, >=, <=, >, <)", ln)


def _expect(value: str, ln: int) -> str:
    value = value.strip()
    if value not in ("pass", "fail"):
        raise ParseError("expect takes 'pass' or 'fail'", ln)
    return value


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

    def base_ctx(self) -> SymbolContext:
        return SymbolContext(
            independent=tuple(self.independent) + tuple(self.invariants),
            params=tuple(self.params),
            dependents=dict(self.dependents),
            functions=tuple(self.functions))

    def claim(self, name: str, ln: int):
        if name in self.seen_names:
            raise DuplicateName(f"name {name!r} is already defined", ln)
        self.seen_names.add(name)

    def load(self) -> ProblemBundle:
        heads = [s[0][0] for s in self.sections]
        if "space" not in heads:
            raise MalformedSection("a [space] section is mandatory",
                                   self.sections[0][1])
        for head, ln, lines in self.sections:
            if head[0] == "space":
                self._space(lines, ln)
        for head, ln, lines in self.sections:
            if head[0] == "params":
                self._params(lines)
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
            "reduced": self._reduced,
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
            handlers[kind](bundle, head[1], lines, ln)
        return bundle

    # -- declarations -------------------------------------------------------

    def _space(self, lines, hln):
        for ln, line in lines:
            parts = line.split()
            key = parts[0]
            if key == "independent":
                if len(parts) < 2:
                    raise MalformedSection("independent needs variable names", ln)
                self.independent.extend(parts[1:])
            elif key == "dependent":
                decl = "".join(parts[1:])
                if "(" not in decl or not decl.endswith(")"):
                    raise MalformedSection(
                        "dependent declaration must look like u(x1,x2)", ln)
                name, args = decl[:-1].split("(", 1)
                self.dependents[name] = tuple(a for a in args.split(",") if a)
            elif key == "promote":
                # "promote u -> x3": treat the dependent u as an extra
                # formally independent coordinate named x3
                rest = line[len("promote"):].strip()
                if "->" not in rest:
                    raise MalformedSection("promote needs 'dep -> var'", ln)
                dep, var = (p.strip() for p in rest.split("->", 1))
                if dep not in self.dependents:
                    raise UndeclaredSymbol(f"cannot promote undeclared {dep!r}", ln)
                self.promotions[dep] = var
                if var not in self.independent:
                    self.independent.append(var)
            elif key == "invariant":
                if len(parts) != 2:
                    raise MalformedSection("invariant declares one name", ln)
                self.invariants.append(parts[1])
            else:
                raise MalformedSection(f"unknown [space] key {key!r}", ln)
        for dep, args in self.dependents.items():
            for a in args:
                if a not in self.independent and a not in self.invariants:
                    raise UndeclaredSymbol(
                        f"dependent {dep!r} uses undeclared argument {a!r}", hln)

    def _params(self, lines):
        for ln, line in lines:
            parts = line.split()
            if parts[0] == "function":
                if len(parts) != 2:
                    raise MalformedSection("function declares one name", ln)
                self.functions.append(parts[1])
                continue
            name = parts[0]
            self.params.append(name)
            rest = line[len(name):].strip()
            if rest:
                ctx = SymbolContext(params=tuple(self.params))
                self.param_constraints.append(_parse_constraint(line, ctx, ln))

    # -- named sections -----------------------------------------------------

    def _equation(self, bundle, name, lines, hln):
        ctx = self.base_ctx()
        equations, constraints = [], []
        for ln, line in lines:
            if line.startswith("constraint "):
                constraints.append(_parse_constraint(line[len("constraint"):],
                                                     ctx, ln))
            else:
                equations.append(parse_equation(line, ctx, ln))
        if not equations:
            raise MalformedSection(f"[equation {name}] has no equations", hln)
        js = JetSpace(tuple(self.independent) + tuple(self.invariants),
                      dict(self.dependents))
        bundle.equations[name] = EquationSystem(
            js, equations, tuple(constraints) + tuple(self.param_constraints),
            name=name)

    def _operator(self, bundle, name, lines, hln):
        ctx = self.base_ctx()
        otype = None
        xi, eta, char = {}, {}, {}
        mode, on, expect = "", "", "pass"
        for ln, line in lines:
            parts = line.split(None, 1)
            key = parts[0]
            rest = parts[1] if len(parts) > 1 else ""
            if key == "type":
                otype = rest.strip()
            elif key in ("xi", "eta", "char"):
                if "=" not in rest:
                    raise ParseError(f"{key} line needs 'name = expression'", ln)
                target, expr_text = rest.split("=", 1)
                target = target.strip()
                expr = parse_expression(expr_text, ctx, ln)
                if key == "xi":
                    if target not in self.independent:
                        raise UndeclaredSymbol(
                            f"xi component for unknown variable {target!r}", ln)
                    xi[target] = expr
                elif key == "eta":
                    if target not in self.dependents:
                        raise UndeclaredSymbol(
                            f"eta component for unknown dependent {target!r}", ln)
                    eta[target] = expr
                else:
                    if target not in self.dependents:
                        raise UndeclaredSymbol(
                            f"characteristic for unknown dependent {target!r}", ln)
                    char[target] = expr
            elif key == "mode":
                mode = rest.strip()
            elif key == "on":
                on = rest.strip()
            elif key == "expect":
                expect = _expect(rest, ln)
            else:
                raise MalformedSection(f"unknown [operator] key {key!r}", ln)
        if otype == "point":
            op = VectorField(xi, eta, name=name)
        elif otype == "canonical":
            op = CanonicalOperator(char, name=name)
        else:
            raise MalformedSection(
                f"[operator {name}] needs 'type point' or 'type canonical'", hln)
        if on and on not in bundle.equations:
            raise UndeclaredSymbol(f"operator {name!r} targets unknown equation "
                                   f"{on!r}", hln)
        bundle.operators[name] = OperatorEntry(name, op, mode=mode, on=on,
                                               expect=expect)

    def _ansatz(self, bundle, name, lines, hln):
        phis: dict = {}
        invariants: dict = {}
        where_lines, target_lines, constraint_lines, nonneg_lines = [], [], [], []
        positive = False
        derive = False
        original, candidate, expect = "", "", "pass"
        for ln, line in lines:
            parts = line.split(None, 1)
            key = parts[0]
            rest = parts[1] if len(parts) > 1 else ""
            if key == "unknown":
                pname, args = _parse_unknown(rest, ln)
                phis[pname] = args
            elif key == "where":
                where_lines.append((ln, rest))
            elif key == "constraint":
                constraint_lines.append((ln, rest))
            elif key == "nonneg":
                nonneg_lines.append((ln, rest))
            elif key == "assume":
                if rest.strip() != "positive":
                    raise MalformedSection("only 'assume positive' is supported", ln)
                positive = True
            elif key == "original":
                original = rest.strip()
            elif key == "candidate":
                candidate = rest.strip()
            elif key == "derive":
                derive = True
            elif key == "expect":
                expect = _expect(rest, ln)
            else:
                target_lines.append((ln, line))
        local_invariants = []
        for ln, rest in where_lines:
            if "=" not in rest:
                raise ParseError("where clause needs 'w = expression'", ln)
            wname = rest.split("=", 1)[0].strip()
            local_invariants.append(wname)
        for pname, args in phis.items():
            for a in args:
                if a not in self.independent and a not in self.invariants and \
                        a not in local_invariants:
                    raise UndeclaredSymbol(
                        f"unknown {pname!r} uses undeclared argument {a!r}", hln)
        ctx = SymbolContext(
            independent=tuple(self.independent) + tuple(self.invariants) +
            tuple(w for w in local_invariants if w not in self.invariants),
            params=tuple(self.params),
            dependents={**self.dependents, **phis},
            functions=tuple(self.functions))
        for ln, rest in where_lines:
            wname, expr_text = rest.split("=", 1)
            invariants[wname.strip()] = parse_expression(expr_text, ctx, ln)
        targets = [parse_equation(line, ctx, ln) for ln, line in target_lines]
        constraints = [_parse_constraint(rest, ctx, ln)
                       for ln, rest in constraint_lines]
        nonneg = [parse_expression(rest, ctx, ln) for ln, rest in nonneg_lines]
        if not targets:
            raise MalformedSection(f"[ansatz {name}] assigns nothing", hln)
        if not phis:
            raise MalformedSection(f"[ansatz {name}] declares no unknowns", hln)
        js = JetSpace(tuple(self.independent), dict(self.dependents))
        ansatz = Ansatz(js=js, targets=targets, phis=phis, invariants=invariants,
                        constraints=tuple(constraints) +
                        tuple(self.param_constraints),
                        positive=positive, nonneg=tuple(nonneg), name=name)
        if original and original not in bundle.equations:
            raise UndeclaredSymbol(f"ansatz {name!r} references unknown equation "
                                   f"{original!r}", hln)
        bundle.ansatzes[name] = AnsatzEntry(name, ansatz, original=original,
                                            candidate=candidate, derive=derive,
                                            expect=expect)

    def _reduced(self, bundle, name, lines, hln):
        phis: dict = {}
        eq_lines, constraint_lines = [], []
        for ln, line in lines:
            parts = line.split(None, 1)
            rest = parts[1] if len(parts) > 1 else ""
            if parts[0] == "unknown":
                pname, args = _parse_unknown(rest, ln)
                phis[pname] = args
            elif parts[0] == "constraint":
                constraint_lines.append((ln, rest))
            else:
                eq_lines.append((ln, line))
        ctx = SymbolContext(
            independent=tuple(self.independent) + tuple(self.invariants),
            params=tuple(self.params),
            dependents={**self.dependents, **phis},
            functions=tuple(self.functions))
        equations = [parse_equation(line, ctx, ln) for ln, line in eq_lines]
        constraints = [_parse_constraint(rest, ctx, ln)
                       for ln, rest in constraint_lines]
        if not equations:
            raise MalformedSection(f"[reduced {name}] has no equations", hln)
        js = JetSpace(tuple(self.independent) + tuple(self.invariants),
                      {**self.dependents, **phis})
        bundle.reduced[name] = EquationSystem(js, equations, tuple(constraints),
                                              name=name)

    def _solution(self, bundle, name, lines, hln):
        spec = SolutionSpec(name=name)
        deferred = []
        for ln, line in lines:
            parts = line.split(None, 1)
            key = parts[0]
            rest = parts[1] if len(parts) > 1 else ""
            if key == "kind":
                if rest.strip() not in ("explicit", "implicit"):
                    raise MalformedSection("kind is 'explicit' or 'implicit'", ln)
                spec.kind = rest.strip()
            elif key == "of":
                spec.of = rest.strip()
            elif key == "unknown":
                spec.aux.append(rest.strip())
            elif key == "bind":
                if "=" not in rest:
                    raise ParseError("bind needs 'name = value'", ln)
                bname, val = (p.strip() for p in rest.split("=", 1))
                if bname in self.functions:
                    vp = val.split() or [""]
                    if vp[0] == "const":
                        spec.fn_binds[bname] = ("const",
                                                _parse_float(" ".join(vp[1:]), ln))
                    elif vp[0] in ("sin", "cos", "exp"):
                        spec.fn_binds[bname] = (vp[0],)
                    else:
                        raise ParseError(
                            f"function binding must be sin, cos, exp, or const", ln)
                else:
                    spec.binds[bname] = _parse_float(val, ln)
            elif key in ("box", "bracket", "guess"):
                form = "value" if key == "guess" else "lo .. hi"
                if "=" not in rest:
                    raise ParseError(f"{key} needs 'var = {form}'", ln)
                vname, val = (p.strip() for p in rest.split("=", 1))
                if key == "guess":
                    spec.guesses[vname] = _parse_float(val, ln)
                else:
                    ranges = spec.box if key == "box" else spec.brackets
                    ranges[vname] = _parse_range(val, ln)
            elif key == "grid":
                spec.grid = tuple(_parse_float(p, ln, int) for p in rest.split())
            elif key == "h":
                spec.h = _parse_float(rest, ln)
            elif key == "n":
                spec.n = _parse_float(rest, ln, int)
            elif key == "seed":
                spec.seed = _parse_float(rest, ln, int)
            elif key == "tol":
                spec.tol = _parse_float(rest, ln)
            elif key == "expect":
                spec.expect = _expect(rest, ln)
            elif key in ("constraint", "relation", "quadrature"):
                deferred.append((ln, key, rest))
            else:
                deferred.append((ln, "expr", line))
        if not spec.of or spec.of not in bundle.equations and \
                spec.of not in bundle.reduced:
            raise UndeclaredSymbol(
                f"[solution {name}] must reference a defined system with 'of'", hln)
        target = bundle.system(spec.of)
        quad_names = [rest.split("(", 1)[0].strip()
                      for ln, key, rest in deferred if key == "quadrature"]
        ctx = SymbolContext(
            independent=tuple(target.js.independent),
            params=tuple(self.params) + tuple(spec.aux),
            dependents=dict(target.js.dependents),
            functions=tuple(self.functions) + tuple(quad_names))
        for ln, key, rest in deferred:
            if key == "constraint":
                spec.constraints.append(_parse_constraint(rest, ctx, ln))
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
                    lower = _parse_float(lower_text, ln)
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

    def _backlund(self, bundle, name, lines, hln):
        ctx = self.base_ctx()
        source = target = ""
        relations, constraints = [], []
        expect = "pass"
        for ln, line in lines:
            parts = line.split(None, 1)
            key = parts[0]
            rest = parts[1] if len(parts) > 1 else ""
            if key == "source":
                source = rest.strip()
            elif key == "target":
                target = rest.strip()
            elif key == "constraint":
                constraints.append(_parse_constraint(rest, ctx, ln))
            elif key == "expect":
                expect = _expect(rest, ln)
            else:
                relations.append(parse_equation(line, ctx, ln))
        for ref in (source, target):
            if ref not in bundle.equations:
                raise UndeclaredSymbol(
                    f"[backlund {name}] references unknown equation {ref!r}", hln)
        if not relations:
            raise MalformedSection(f"[backlund {name}] has no relations", hln)
        js = JetSpace(tuple(self.independent), dict(self.dependents))
        rel = BacklundRelation(js=js, relations=tuple(relations),
                               source=bundle.equations[source],
                               target=bundle.equations[target],
                               constraints=tuple(constraints) +
                               tuple(self.param_constraints),
                               name=name)
        bundle.backlunds[name] = BacklundEntry(name, rel, expect=expect)

    def _overdetermined(self, bundle, name, lines, hln):
        ctx = self.base_ctx()
        assignments, constraints = [], []
        box = {}
        n = 32
        expect = "pass"
        for ln, line in lines:
            parts = line.split(None, 1)
            key = parts[0]
            rest = parts[1] if len(parts) > 1 else ""
            if key == "constraint":
                constraints.append(_parse_constraint(rest, ctx, ln))
            elif key == "box":
                if "=" not in rest:
                    raise ParseError("box needs 'var = lo .. hi'", ln)
                vname, rng = rest.split("=", 1)
                box[vname.strip()] = _parse_range(rng, ln)
            elif key == "n":
                n = _parse_float(rest, ln, int)
            elif key == "expect":
                expect = _expect(rest, ln)
            else:
                assignments.append(parse_equation(line, ctx, ln))
        if not assignments:
            raise MalformedSection(f"[overdetermined {name}] has no assignments", hln)
        bundle.overdetermined[name] = OverdeterminedSpec(
            name, tuple(assignments),
            tuple(constraints) + tuple(self.param_constraints), box, n, expect)


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
