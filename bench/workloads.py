"""Seeded inputs of the three workloads and the facts each verdict is
checked against.  Nothing here imports symred: the expected verdicts
come from the bundles' own ``expect`` lines, from the superposition
principle, and from sympy-derived facts in ``data/facts.json``.

A workload is a list of bundle texts plus a list of blocks; a block is
one ``symred.cli.run_suite(bundle, seed)`` call, and one round runs
every block once.  ``Expected`` lists, per block, the cases symred must
report and the verdict each must get.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
DATA = HERE.parent / "src" / "symred" / "data"
FACTS = HERE / "data" / "facts.json"

PAPER_SEEDS = range(5)          # symred seeds 0..4, the paper's claim set
LADDER_ORDERS = range(2, 7)
SCREEN_CANDIDATES = 300
SCREEN_FAILING = 210            # 70% carry a multiple of the non-symmetry N

# tolerances `symred.cli` applies to a [solution] without a `tol` line
DEFAULT_SOLUTION_TOL = {"explicit": 1e-9, "implicit": 1e-4}


class OracleError(Exception):
    """A fact the verdicts are checked against could not be established."""


@dataclass
class Case:
    verdict: str                # the verdict symred must return
    tol: float | None = None    # solution rows: residual_max must stay below it


@dataclass
class Workload:
    bundles: list | None        # [(name, text)]; None means symred's bundled set
    blocks: list                # [(bundle name, symred seed)], one round
    expected: dict = field(default_factory=dict)  # bundle name -> [(case, Case)]

    def rows_per_round(self) -> int:
        return sum(len(self.expected[b]) for b, _ in self.blocks)


# ---------------------------------------------------------------------------
# .prob scanning, independent of symred's parser

def sections(text: str):
    """[(kind, name, [(key, rest)])] of a bundle text."""
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            head = line[1:-1].split()
            out.append((head[0], head[1] if len(head) > 1 else "", []))
        elif out:
            key, _, rest = line.partition(" ")
            out[-1][2].append((key, rest.strip()))
    return out


def suite_cases(bundle: str, text: str) -> list:
    """The rows ``symred.cli.run_suite`` reports for a bundle, in order,
    with the verdict each entry declares through ``expect``."""
    by_kind: dict = {}
    for kind, name, lines in sections(text):
        keys = dict(lines)
        by_kind.setdefault(kind, []).append((name, keys))
    rows = []

    def expect(keys):
        return keys.get("expect", "pass")

    for name, keys in by_kind.get("operator", []):
        rows.append((f"{bundle}:{name}", Case(expect(keys))))
    for name, keys in by_kind.get("ansatz", []):
        if "original" not in keys:
            continue
        if "candidate" in keys:
            rows.append((f"{bundle}:{name}->{keys['candidate']}", Case(expect(keys))))
            if "derive" in keys:
                rows.append((f"{bundle}:{name}:derive", Case(expect(keys))))
        else:
            rows.append((f"{bundle}:{name}:derive", Case(expect(keys))))
    for name, keys in by_kind.get("solution", []):
        kind = keys.get("kind", "explicit")
        tol = float(keys["tol"]) if "tol" in keys else DEFAULT_SOLUTION_TOL[kind]
        rows.append((f"{bundle}:{name}", Case(expect(keys), tol)))
    for kind in ("backlund", "overdetermined"):
        for name, keys in by_kind.get(kind, []):
            rows.append((f"{bundle}:{name}", Case(expect(keys))))
    return rows


def load_facts() -> dict:
    return json.loads(FACTS.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# paper-suite

def paper_suite(seed: int) -> Workload:
    """symred's six bundled case studies over symred seeds 0..4.  The
    inputs do not depend on ``seed``; it only shuffles the order of the
    (bundle, seed) blocks within a round."""
    texts = {p.stem: p.read_text(encoding="utf-8")
             for p in sorted(DATA.glob("*.prob"))}
    if not texts:
        raise OracleError(f"no bundled case studies under {DATA}")
    blocks = [(b, s) for s in PAPER_SEEDS for b in texts]
    random.Random(seed).shuffle(blocks)
    expected = {b: suite_cases(b, t) for b, t in texts.items()}
    return Workload(None, blocks, expected)


# ---------------------------------------------------------------------------
# prolong-ladder

def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([k for k in range(-9, 10) if k]), rng.randint(1, 9))


def _poly_text(poly: dict) -> str:
    """{(i, j): c} -> c*u^i*t^j summed, in .prob syntax."""
    terms = []
    for (i, j), c in sorted(poly.items(), reverse=True):
        if c == 0:
            continue
        factors = [f"({c})"]
        if i:
            factors.append(f"u^{i}" if i > 1 else "u")
        if j:
            factors.append(f"t^{j}" if j > 1 else "t")
        terms.append("*".join(factors))
    return " + ".join(terms) or "0"


def solves_linear(poly: dict, m: int) -> bool:
    """Does f(u, t) solve f_t = d^m f / du^m?  Exact polynomial algebra."""
    lhs: dict = {}
    rhs: dict = {}
    for (i, j), c in poly.items():
        if j:
            lhs[(i, j - 1)] = lhs.get((i, j - 1), 0) + c * j
        if i >= m:
            k = (i - m, j)
            rhs[k] = rhs.get(k, 0) + c * Fraction(math.perm(i, m))
    keys = set(lhs) | set(rhs)
    return all(lhs.get(k, 0) == rhs.get(k, 0) for k in keys)


def prolong_ladder(seed: int) -> Workload:
    """Point fields f(u,t)d/dx on the hodograph images of x_t = x_{u^m},
    m = 2..6.  By superposition f(u,t)d/dx is a symmetry iff f solves
    the linear equation.  Per rung: f = a*u^m + b*u^(m-1) + a*m!*t (a
    solution) and its mutant with the t coefficient moved by d != 0."""
    rng = random.Random(seed)
    ladder = load_facts()["ladder"]
    parts = ["[space]\nindependent x t\ndependent u(x,t)\n"]
    cases = []
    for m in LADDER_ORDERS:
        a, b, d = _rational(rng), _rational(rng), _rational(rng)
        true = {(m, 0): a, (m - 1, 0): b, (0, 1): a * math.factorial(m)}
        mutant = dict(true)
        mutant[(0, 1)] += d
        parts.append(f"[equation eq{m}]\nu[t] = {ladder[str(m)]}\n"
                     "constraint u[x] != 0\n")
        for name, poly in ((f"true{m}", true), (f"mutant{m}", mutant)):
            verdict = "pass" if solves_linear(poly, m) else "fail"
            parts.append(f"[operator {name}]\ntype point\non eq{m}\n"
                         f"expect {verdict}\nxi x = {_poly_text(poly)}\n")
            cases.append((f"ladder:{name}", Case(verdict)))
    text = "\n".join(parts)
    return Workload([("ladder", text)], [("ladder", seed)], {"ladder": cases})


# ---------------------------------------------------------------------------
# operator-screen

def eq2_sys3_header() -> str:
    """[space], [params] and [equation sys3] of the bundled eq2, checked
    against the system the sympy facts were derived for."""
    text = (DATA / "eq2.prob").read_text(encoding="utf-8")
    facts = load_facts()["screen"]
    keep = []
    for kind, name, lines in sections(text):
        if kind in ("space", "params") or (kind, name) == ("equation", "sys3"):
            body = [f"{k} {r}".strip() for k, r in lines]
            if (kind, name) == ("equation", "sys3") and body != facts["sys3"]:
                raise OracleError("eq2's sys3 differs from the system in "
                                  "data/facts.json; run bench/derive.py")
            keep.append(f"[{kind}{' ' + name if name else ''}]\n" + "\n".join(body) + "\n")
    return "\n".join(keep)


def operator_screen(seed: int) -> Workload:
    """Candidates a*D + b*Q (+ c*N) against sys3 of eq2.  D and Q are
    symmetries and N is not (sympy, data/facts.json).  The classical
    determining equations are linear in the field, so a candidate is a
    symmetry iff c == 0."""
    facts = load_facts()["screen"]
    sym = facts["symmetry"]
    if not (sym.get("D") and sym.get("Q")) or sym.get("N", True):
        raise OracleError("data/facts.json does not establish D, Q as "
                          "symmetries and N as a non-symmetry")
    fields = facts["fields"]
    rng = random.Random(seed)
    failing = [True] * SCREEN_FAILING + [False] * (SCREEN_CANDIDATES - SCREEN_FAILING)
    rng.shuffle(failing)
    parts = [eq2_sys3_header()]
    cases = []
    for i, carries_n in enumerate(failing):
        coeffs = {"D": _rational(rng), "Q": _rational(rng),
                  "N": _rational(rng) if carries_n else Fraction(0)}
        comps: dict = {}
        for fname, c in coeffs.items():
            if c == 0:
                continue
            for slot, expr in fields[fname].items():
                comps.setdefault(slot, []).append(f"({c})*({expr})")
        verdict = "pass" if coeffs["N"] == 0 else "fail"
        lines = [f"[operator cand{i}]", "type point", "on sys3", f"expect {verdict}"]
        lines += [f"{slot} = {' + '.join(terms)}" for slot, terms in sorted(comps.items())]
        parts.append("\n".join(lines) + "\n")
        cases.append((f"screen:cand{i}", Case(verdict)))
    return Workload([("screen", "\n".join(parts))], [("screen", seed)],
                    {"screen": cases})


WORKLOADS = {
    "paper-suite": paper_suite,
    "prolong-ladder": prolong_ladder,
    "operator-screen": operator_screen,
}


# ---------------------------------------------------------------------------
# checking

def check_block(wl: Workload, bundle: str, rows: list) -> list:
    """Mismatches between one block's rows and the expected cases; each
    row starts with case, verdict, residual_max."""
    want = wl.expected[bundle]
    got = [r[0] for r in rows]
    if got != [c for c, _ in want]:
        return [f"{bundle}: {len(got)} rows {got[:3]}..., expected "
                f"{len(want)} rows {[c for c, _ in want[:3]]}..."]
    bad = []
    for (case, exp), (_, verdict, residual, *_) in zip(want, rows):
        if verdict != exp.verdict:
            bad.append(f"{case}: verdict {verdict}, expected {exp.verdict}")
        elif exp.tol is not None and exp.verdict == "pass" and not residual < exp.tol:
            bad.append(f"{case}: residual_max {residual} not below {exp.tol}")
    return bad
