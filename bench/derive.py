"""Derive the facts the benchmark checks symred against, with sympy and
without symred, and write them to ``bench/data/facts.json``.

    python3 bench/derive.py           # rewrite bench/data/facts.json
    python3 bench/derive.py --check   # exit 1 if the file is out of date

Two sets of facts are derived:

* ``ladder``: the hodograph images u_t = F(u_x, ..., u_{x^m}) of the
  linear equations x_t = d^m x / du^m for m = 2..6.  With x = X(u, t)
  one has u_x = 1/X_u and u_t = -X_t/X_u, so X_t = X_{u^m} becomes
  u_t = -u_x * (u_x^{-1} D_x)^{m-1} (u_x^{-1}).
* ``screen``: the first prolongations of the point fields D, Q and N
  applied to the system ``sys3`` of the bundled ``eq2`` case study and
  restricted to its solution manifold.  D and Q give zero (symmetries);
  N gives a nonzero residual (not a symmetry).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import sympy as sp

HERE = Path(__file__).resolve().parent
FACTS = HERE / "data" / "facts.json"
EQ2 = HERE.parent / "src" / "symred" / "data" / "eq2.prob"

LADDER_ORDERS = range(2, 7)

# point fields on (x1, x2; v1, v2), as xi/eta component expressions
SCREEN_FIELDS = {
    "D": {"xi x1": "2*x1", "xi x2": "x2", "eta v2": "v2"},
    "Q": {"xi x2": "x2 + 2*C*v2", "eta v1": "2", "eta v2": "-v2"},
    "N": {"eta v1": "x1"},
}


def _to_prob(e) -> str:
    """sympy expression in symbols U1, U2, ... -> .prob text in u[x], u[x,x], ..."""
    text = sp.sstr(e).replace("**", "^")
    return re.sub(r"U(\d+)",
                  lambda m: "u[" + ",".join(["x"] * int(m.group(1))) + "]", text)


def hodograph_rhs(m: int) -> str:
    x, t = sp.symbols("x t")
    u = sp.Function("u")(x, t)
    ux = sp.diff(u, x)
    w = 1 / ux
    for _ in range(m - 1):
        w = sp.diff(w, x) / ux
    rhs = -ux * w
    for k in range(m, 0, -1):
        rhs = rhs.subs(sp.diff(u, x, k), sp.Symbol(f"U{k}"))
    return _to_prob(sp.factor(sp.cancel(rhs)))


def sys3_lines(text: str) -> list[str]:
    """The equation lines of ``[equation sys3]`` in a bundle text."""
    out, inside = [], False
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            inside = line == "[equation sys3]"
            continue
        if inside:
            out.append(line)
    return out


def _sympify(text: str, names: dict):
    text = re.sub(r"(\w+)\[([\w,]+)\]",
                  lambda m: m.group(1) + "_" + m.group(2).replace(",", "_"), text)
    return sp.sympify(text.replace("^", "**"), locals=names)


def screen_residuals(lines: list[str]) -> dict:
    """pr(V)(Delta) on the manifold of the first-order system, per field."""
    xs = ("x1", "x2")
    deps = ("v1", "v2")
    names = {s: sp.Symbol(s) for s in xs + deps + ("C",)}
    jets = {(d, x): sp.Symbol(f"{d}_{x}") for d in deps for x in xs}
    names.update({f"{d}_{x}": s for (d, x), s in jets.items()})
    names["exp"] = sp.exp
    eqs, solved = [], {}
    for line in lines:
        if line.startswith("constraint"):
            continue
        lhs, rhs = line.split("=", 1)
        lhs_e, rhs_e = _sympify(lhs, names), _sympify(rhs, names)
        eqs.append(lhs_e - rhs_e)
        solved[lhs_e] = rhs_e

    def total(f, x):
        return sp.diff(f, names[x]) + sum(jets[(d, x)] * sp.diff(f, names[d])
                                          for d in deps)

    out = {}
    for fname, comps in SCREEN_FIELDS.items():
        xi = {x: _sympify(comps.get(f"xi {x}", "0"), names) for x in xs}
        eta = {d: _sympify(comps.get(f"eta {d}", "0"), names) for d in deps}
        eta1 = {(d, x): total(eta[d], x) - sum(jets[(d, y)] * total(xi[y], x)
                                               for y in xs)
                for d in deps for x in xs}
        residuals = []
        for delta in eqs:
            r = sum(xi[x] * sp.diff(delta, names[x]) for x in xs)
            r += sum(eta[d] * sp.diff(delta, names[d]) for d in deps)
            r += sum(eta1[k] * sp.diff(delta, jets[k]) for k in jets)
            residuals.append(sp.simplify(r.subs(solved)))
        out[fname] = residuals
    return out


def derive() -> dict:
    lines = sys3_lines(EQ2.read_text(encoding="utf-8"))
    residuals = screen_residuals(lines)
    return {
        "ladder": {str(m): hodograph_rhs(m) for m in LADDER_ORDERS},
        "screen": {
            "sys3": lines,
            "fields": SCREEN_FIELDS,
            "symmetry": {f: all(r == 0 for r in rs) for f, rs in residuals.items()},
            "residuals": {f: [sp.sstr(r) for r in rs] for f, rs in residuals.items()},
        },
    }


def render(facts: dict) -> str:
    return json.dumps(facts, indent=1, sort_keys=True) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--check", action="store_true",
                    help="compare with the stored file instead of writing it")
    args = ap.parse_args(argv)
    text = render(derive())
    if args.check:
        if FACTS.read_text(encoding="utf-8") != text:
            print(f"{FACTS} is out of date; run python3 bench/derive.py",
                  file=sys.stderr)
            return 1
        return 0
    FACTS.parent.mkdir(exist_ok=True)
    FACTS.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
