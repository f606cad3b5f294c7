"""Numeric validation of closed-form solutions.

Three flavours: an explicit two-parameter solution of the reduced
ordinary system, a quadrature-backed solution whose primitive has no
elementary form, and an implicit two-relation solution validated with
exact implicit-function derivatives after one chain of scalar solves
per point.
"""

from importlib import resources

from symred.numeric import residual_explicit, residual_implicit
from symred.problems import parse_problem


def load(name):
    text = (resources.files("symred") / "data" / f"{name}.prob").read_text()
    return parse_problem(text, name=name)


def run(bundle, sname):
    spec = bundle.solutions[sname]
    sys_ = bundle.system(spec.of)
    residual = residual_implicit if spec.kind == "implicit" else residual_explicit
    # seed 0, as none of these solutions pins one; each is checked at
    # its own tol
    rep = residual(spec, sys_, 0)
    total = rep.points_tested + rep.points_skipped
    print(f"  {bundle.name}:{sname:15s} max residual {rep.witness_value:.3g} "
          f"(tol {rep.tol_abs:g}, {rep.points_tested}/{total} points) "
          f"-> {rep.verdict}")


def main():
    print("explicit solution of the reduced ordinary system")
    run(load("eq4"), "eq5")

    print("quadrature-backed and exact-identity instances")
    ode = load("ode32")
    run(ode, "eq38")       # F = sin, primitive computed by quadrature
    run(ode, "constantF")  # F = 1, the residual is an exact identity

    print("implicit two-relation solution, exact implicit-function derivatives")
    eq6 = load("eq6")
    run(eq6, "implicitTheta")
    run(eq6, "thetaFlipped")  # negative control: wrong sign, large residual


if __name__ == "__main__":
    main()
