"""Ansatz reduction, both directions.

Takes the derivative ansatz for the deformed wave equation and the
logarithmic ansatz for the equation with an arbitrary function,
derives the reduced systems constructively, and cross-checks them
against the bundled candidates.  Also shows the implicit-invariant
ansatz, which is verified against its candidate without derivation.
"""

from importlib import resources

from symred.parser import print_equation
from symred.problems import parse_problem
from symred.reduce import derive_reduction, systems_equivalent, \
    verify_reduction
from symred.zerotest import Result


def load(name):
    text = (resources.files("symred") / "data" / f"{name}.prob").read_text()
    return parse_problem(text, name=name)


def run_case(bundle, ansatz_name):
    entry = bundle.ansatzes[ansatz_name]
    original = bundle.equations[entry.original]
    print(f"{bundle.name}: ansatz {ansatz_name} on {entry.original}")

    rep = verify_reduction(entry.ansatz, original,
                           bundle.reduced[entry.candidate])
    print(f"  verify against {entry.candidate}: {rep.verdict}")

    if not entry.derive:
        return
    out = derive_reduction(entry.ansatz, original)
    if isinstance(out, Result):
        print(f"  derivation failed: {out.detail}")
        return
    print("  derived system:")
    for lhs, rhs in out.equations:
        print(f"    {print_equation(lhs, rhs)}")
    eq = systems_equivalent(out, bundle.reduced[entry.candidate],
                            constraints=bundle.param_constraints)
    print(f"  equivalent to {entry.candidate}: {eq.verdict}")


def main():
    run_case(load("sg_deformed"), "eq16")
    run_case(load("ode32"), "logAnsatz")
    run_case(load("eq3"), "ansatz4")

    # a degenerate profile: the leftover bare coordinate cannot be
    # absorbed by any unknown-function derivative
    eq2 = load("eq2")
    entry = eq2.ansatzes["degenerate"]
    out = derive_reduction(entry.ansatz, eq2.equations[entry.original])
    assert isinstance(out, Result)
    print(f"eq2: ansatz degenerate -> Failure ({out.detail})")


if __name__ == "__main__":
    main()
