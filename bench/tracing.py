"""Spans and counters at the boundaries of symred's modules.

The tracer wraps public functions from outside: each wrapper replaces
the function in every ``symred`` module that holds a reference to it,
because modules import by name (``zerotest``, ``numeric`` and ``reduce``
each hold their own ``eval_with_scale``).  A span records name, start,
end, parent span and row id.  A call that re-enters the function of the
innermost open span (recursion, or ``eval_numeric`` calling
``eval_with_scale``) opens no span: it is part of that span.  Spans stay
in memory until the run ends.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from collections import Counter
from time import perf_counter

# (span name, module, attribute); "Class.method" wraps a method.
SPANNED = (
    ("problems.parse", "symred.problems", "parse_problem"),
    ("jets.apply_operator", "symred.jets", "apply_operator"),
    ("jets.total_derivative", "symred.jets", "total_derivative"),
    ("jets.prolong_coeff", "symred.jets", "ProlongedField.coefficient"),
    ("systems.restrict", "symred.systems", "restrict_to_manifold"),
    ("expr.simplify", "symred.expr", "simplify"),
    ("expr.diff_partial", "symred.expr", "diff_partial"),
    ("expr.substitute", "symred.expr", "substitute"),
    ("expr.eval", "symred.expr", "eval_with_scale"),
    ("expr.eval", "symred.expr", "eval_numeric"),
    ("zerotest.is_zero", "symred.zerotest", "is_zero"),
    ("checks.classical", "symred.checks", "check_classical"),
    ("checks.conditional", "symred.checks", "check_conditional"),
    ("checks.lie_backlund", "symred.checks", "check_lie_backlund"),
    ("reduce.verify_reduction", "symred.reduce", "verify_reduction"),
    ("reduce.derive_reduction", "symred.reduce", "derive_reduction"),
    ("reduce.systems_equivalent", "symred.reduce", "systems_equivalent"),
    ("reduce.verify_backlund", "symred.reduce", "verify_backlund"),
    ("reduce.overdetermined", "symred.reduce", "check_overdetermined"),
    ("reduce.ansatz_derivatives", "symred.reduce", "ansatz_derivatives"),
    ("linalg.eliminate", "symred.linalg", "gaussian_eliminate"),
    ("numeric.newton", "symred.numeric", "newton_system"),
    ("numeric.solve_implicit", "symred.numeric", "solve_implicit"),
    ("numeric.residual_implicit", "symred.numeric", "residual_implicit"),
    ("numeric.residual_explicit", "symred.numeric", "residual_explicit"),
    ("numeric.quadrature", "symred.numeric", "quadrature"),
)

# counted without a span: called per sample draw, too often to time
COUNTED = (
    ("zerotest.sample_point", "symred.zerotest", "sample_point"),
    ("zerotest.constraint_check", "symred.zerotest", "Constraint.holds"),
)


def replace_everywhere(modname: str, attr: str, wrap) -> None:
    """Install ``wrap(original)`` wherever symred modules look it up."""
    mod = sys.modules[modname]
    owner, _, name = attr.rpartition(".")
    if owner:
        cls = getattr(mod, owner)
        setattr(cls, name, wrap(cls.__dict__[name]))
        return
    orig = getattr(mod, name)
    new = wrap(orig)
    for m in list(sys.modules.values()):
        mname = getattr(m, "__name__", "")
        if mname != "symred" and not mname.startswith("symred."):
            continue
        for key in [k for k, v in vars(m).items() if v is orig]:
            setattr(m, key, new)


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.kind = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.row = array("i")
        self.stack: list = []          # open spans: (index, name id)
        self.current_row = -1
        self.counts: Counter = Counter()
        self.raised: Counter = Counter()
        self.residuals: list = []      # expressions handed to is_zero
        self.zero_results: list = []   # (provenance, points_tested)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def spanned(self, name: str, fn, observe=None):
        nid = self._id(name)
        kind, start, end, parent, row = (self.kind, self.start, self.end,
                                         self.parent, self.row)
        stack = self.stack
        raised = self.raised

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][1] == nid:
                return fn(*args, **kwargs)
            i = len(kind)
            kind.append(nid)
            parent.append(stack[-1][0] if stack else -1)
            row.append(self.current_row)
            end.append(0.0)
            stack.append((i, nid))
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            except Exception:
                end[i] = perf_counter()
                stack.pop()
                raised[name] += 1
                raise
            end[i] = perf_counter()
            stack.pop()
            if observe is not None:
                observe(args, out)
            return out

        return wrapper

    def counted(self, name: str, fn, observe=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            out = fn(*args, **kwargs)
            if observe is not None:
                observe(args, out)
            return out

        return wrapper

    def _observe_is_zero(self, args, result):
        self.residuals.append(args[0])
        self.zero_results.append((result.provenance, result.points_tested))

    def _observe_sample_point(self, args, result):
        point, draws = result
        self.counts["zerotest.draws"] += draws
        self.counts["zerotest.accepted"] += point is not None

    def install(self) -> None:
        import symred  # noqa: F401  (loads every module the wrappers patch)
        import symred.cli  # noqa: F401
        observers = {"zerotest.is_zero": self._observe_is_zero,
                     "zerotest.sample_point": self._observe_sample_point}
        for name, modname, attr in SPANNED:
            replace_everywhere(modname, attr, lambda fn, n=name: self.spanned(
                n, fn, observers.get(n)))
        for name, modname, attr in COUNTED:
            replace_everywhere(modname, attr, lambda fn, n=name: self.counted(
                n, fn, observers.get(n)))

    # -- results -------------------------------------------------------------

    def write(self, path) -> None:
        """One span per line: id, name, start_us, end_us, parent, row."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tstart_us\tend_us\tparent\trow\n")
            t0 = self.start[0] if self.start else 0.0
            for i in range(len(self.kind)):
                fh.write(f"{i}\t{self.names[self.kind[i]]}\t"
                         f"{(self.start[i] - t0) * 1e6:.1f}\t"
                         f"{(self.end[i] - t0) * 1e6:.1f}\t"
                         f"{self.parent[i]}\t{self.row[i]}\n")

    def layer_metrics(self, rounds: int) -> dict:
        """Per-layer metrics: problems.* per set-up (parse time inclusive),
        the rest per round and measured over rows only."""
        n = len(self.kind)
        kind, parent = self.kind, self.parent
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += dur[i]
        k = len(self.names)
        calls = [0] * k
        incl = [0.0] * k
        self_t = [0.0] * k
        parse_id = self._ids.get("problems.parse")
        for i in range(n):
            # set-up (row -1) counts only towards problems.*
            if self.row[i] < 0 and kind[i] != parse_id:
                continue
            calls[kind[i]] += 1
            incl[kind[i]] += dur[i]
            self_t[kind[i]] += dur[i] - child[i]

        # evaluations inside the nearest enclosing Newton / implicit solve
        nearest = {}
        eid = self._ids.get("expr.eval", -2)
        for outer in ("numeric.newton", "numeric.solve_implicit"):
            oid = self._ids.get(outer, -2)
            anc = array("i", [-1]) * n
            evals = 0
            for i in range(n):
                p = parent[i]
                anc[i] = i if kind[i] == oid else (anc[p] if p >= 0 else -1)
                if kind[i] == eid and anc[i] >= 0:
                    evals += 1
            nearest[outer] = evals

        def get(name, table):
            i = self._ids.get(name)
            return table[i] if i is not None else 0

        def ms(name):
            return get(name, self_t) * 1e3 / rounds

        def ms_incl(name):
            return get(name, incl) * 1e3 / rounds

        def per_round(name):
            return get(name, calls) / rounds

        def ratio(a, b):
            return a / b if b else 0.0

        tree, unique = residual_sizes(self.residuals)
        newton = get("numeric.newton", calls)
        solves = get("numeric.solve_implicit", calls)
        evals = get("expr.eval", calls)
        draws = self.counts["zerotest.draws"]
        return {
            "problems.parse_ms": get("problems.parse", incl) * 1e3,
            "problems.bundles_parsed": get("problems.parse", calls),
            "jets.apply_operator_ms": ms("jets.apply_operator"),
            "jets.apply_operator_calls": per_round("jets.apply_operator"),
            "jets.total_derivative_ms": ms("jets.total_derivative"),
            "jets.total_derivative_calls": per_round("jets.total_derivative"),
            "jets.prolong_coeff_ms": ms("jets.prolong_coeff"),
            "jets.prolong_coeff_calls": per_round("jets.prolong_coeff"),
            "systems.restrict_ms": ms("systems.restrict"),
            "systems.restrict_calls": per_round("systems.restrict"),
            "systems.residual_nodes": tree / rounds,
            "systems.residual_unique_nodes": unique / rounds,
            "expr.simplify_ms": ms("expr.simplify"),
            "expr.simplify_calls": per_round("expr.simplify"),
            "expr.diff_partial_ms": ms("expr.diff_partial"),
            "expr.diff_partial_calls": per_round("expr.diff_partial"),
            "expr.substitute_ms": ms("expr.substitute"),
            "expr.substitute_calls": per_round("expr.substitute"),
            "expr.eval_ms": ms("expr.eval"),
            "expr.eval_calls": per_round("expr.eval"),
            "expr.eval_us": ratio(get("expr.eval", self_t) * 1e6, evals),
            "zerotest.is_zero_ms": ms("zerotest.is_zero"),
            "zerotest.is_zero_calls": per_round("zerotest.is_zero"),
            "zerotest.symbolic_verdicts":
                sum(p == "symbolic" for p, _ in self.zero_results) / rounds,
            "zerotest.points_tested":
                sum(t for _, t in self.zero_results) / rounds,
            "zerotest.draws": draws / rounds,
            "zerotest.accept_ratio": ratio(self.counts["zerotest.accepted"], draws),
            "zerotest.constraint_checks":
                self.counts["zerotest.constraint_check"] / rounds,
            "checks.classical_ms": ms_incl("checks.classical"),
            "checks.classical_calls": per_round("checks.classical"),
            "checks.conditional_ms": ms_incl("checks.conditional"),
            "checks.conditional_calls": per_round("checks.conditional"),
            "checks.lie_backlund_ms": ms_incl("checks.lie_backlund"),
            "checks.lie_backlund_calls": per_round("checks.lie_backlund"),
            "reduce.verify_reduction_ms": ms_incl("reduce.verify_reduction"),
            "reduce.derive_reduction_ms": ms_incl("reduce.derive_reduction"),
            "reduce.systems_equivalent_ms": ms_incl("reduce.systems_equivalent"),
            "reduce.verify_backlund_ms": ms_incl("reduce.verify_backlund"),
            "reduce.overdetermined_ms": ms_incl("reduce.overdetermined"),
            "reduce.ansatz_derivatives_ms": ms("reduce.ansatz_derivatives"),
            "linalg.eliminate_ms": ms("linalg.eliminate"),
            "linalg.eliminate_calls": per_round("linalg.eliminate"),
            "numeric.newton_ms": ms("numeric.newton"),
            "numeric.newton_calls": per_round("numeric.newton"),
            "numeric.newton_converged_ratio":
                ratio(newton - self.raised["numeric.newton"], newton),
            "numeric.newton_evals_per_call":
                ratio(nearest["numeric.newton"], newton),
            "numeric.solve_implicit_ms": ms("numeric.solve_implicit"),
            "numeric.solve_implicit_calls": per_round("numeric.solve_implicit"),
            "numeric.solve_implicit_evals_per_call":
                ratio(nearest["numeric.solve_implicit"], solves),
            "numeric.residual_implicit_ms": ms("numeric.residual_implicit"),
            "numeric.residual_explicit_ms": ms("numeric.residual_explicit"),
            "numeric.quadrature_ms": ms("numeric.quadrature"),
            "numeric.quadrature_calls": per_round("numeric.quadrature"),
        }


def residual_sizes(exprs) -> tuple:
    """Summed tree-node and distinct-node counts of the expressions."""
    from symred.expr import Expr, children

    size: dict = {}       # id(node) -> tree nodes at and below the node
    canon: dict = {}      # id(node) -> structural class
    classes: dict = {}    # structural key -> class
    tree = unique = 0
    for root in exprs:
        for node in _postorder(root, size, children):
            kids = children(node)
            size[id(node)] = 1 + sum(size[id(k)] for k in kids)
            leaf = tuple(v for v in (getattr(node, f) for f in node.__dataclass_fields__)
                         if not (isinstance(v, Expr) or (
                             isinstance(v, tuple) and v and isinstance(v[0], Expr))))
            key = (type(node).__name__, leaf, tuple(canon[id(k)] for k in kids))
            canon[id(node)] = classes.setdefault(key, len(classes))
        tree += size[id(root)]
        unique += len(_reachable(root, canon, children))
    return tree, unique


def _postorder(root, known, children) -> list:
    """Nodes under ``root`` not in ``known``, children first, each once."""
    out, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            out.append(node)
            continue
        if id(node) in known or id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        stack.extend((k, False) for k in children(node))
    return out


def _reachable(root, canon, children) -> set:
    """Structural classes of the nodes under ``root``."""
    out, seen, stack = set(), set(), [root]
    while stack:
        n = stack.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        out.add(canon[id(n)])
        stack.extend(children(n))
    return out
