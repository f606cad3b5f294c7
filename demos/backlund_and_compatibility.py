"""Transformation pairs and overdetermined compatibility.

Verifies the first-order relation pair carrying solutions of the
sine-Gordon equation to the deformed wave equation, its broken mutant,
and the formal compatibility of an overdetermined first-derivative pair
arising from a travelling-profile solution.
"""

from importlib import resources

from symred.problems import parse_problem
from symred.reduce import check_overdetermined, verify_backlund


def load(name):
    text = (resources.files("symred") / "data" / f"{name}.prob").read_text()
    return parse_problem(text, name=name)


def main():
    sg = load("sg_deformed")
    print("transformation pairs against the sine-Gordon source")
    for name in ("eq18", "eq18doubled"):
        rep = verify_backlund(sg.backlunds[name].relation)
        print(f"  {name:15s} -> {rep.verdict}")
        for part in rep.parts:
            print(f"    {part.label:30s} {part.verdict}")

    eq2 = load("eq2")
    spec = eq2.overdetermined["pairAfter5"]
    rep = check_overdetermined(spec, eq2.space)
    print(f"overdetermined pair for the potential: {rep.verdict}")


if __name__ == "__main__":
    main()
