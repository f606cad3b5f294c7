"""Golden files.  The whole paper suite, pinned: ``symred paper-suite
--seed 0..4 --format json-lines`` must reproduce
``data/paper_suite_seed0-4.jsonl`` byte for byte.  A change that means to
alter a row regenerates the file with that command and says which rows
changed and why.  The finite-difference oracle path is pinned the same
way: ``symred paper-suite --seed 0..4 --fd --format json-lines`` must
reproduce ``data/paper_suite_fd_seed0-4.jsonl`` (its ``eq4:eq5`` rows
are ``error``: that solution is a system, and ``residual_fd`` checks a
single equation).  The symbolic path of prolongation and restriction is
pinned as printed trees in ``data/ladder_restricted_m4_m5.txt``."""

from pathlib import Path

from symred.cli import main
from symred.jets import apply_operator, prolong
from symred.parser import print_expression
from symred.problems import parse_problem
from symred.systems import restrict_to_manifold

GOLDEN = Path(__file__).parent / "data" / "paper_suite_seed0-4.jsonl"
GOLDEN_FD = Path(__file__).parent / "data" / "paper_suite_fd_seed0-4.jsonl"


def test_paper_suite_output_matches_golden_file(capsys):
    code = main(["paper-suite", "--seed", "0..4", "--format", "json-lines"])
    out = capsys.readouterr().out
    assert code == 0
    want = GOLDEN.read_text(encoding="utf-8")
    assert out.count("\n") == want.count("\n") == 125
    assert out == want


def test_paper_suite_fd_output_matches_golden_file(capsys):
    code = main(["paper-suite", "--seed", "0..4", "--fd",
                 "--format", "json-lines"])
    out = capsys.readouterr().out
    assert code == 4  # the five eq4:eq5 error rows
    want = GOLDEN_FD.read_text(encoding="utf-8")
    assert out.count("\n") == want.count("\n") == 125
    assert out == want


# The symbolic path the bench's prolong-ladder rows take, pinned as
# trees: the point field f(u,t)d/dx, prolonged to order m, applied to the
# residual of the hodograph image of x_t = x_{u^m} and restricted to that
# equation's manifold.  f is a solution of f_t = f_{u^m} (the true field,
# whose restriction vanishes, though the kernel does not normalise it to
# 0) or its mutant (t coefficient moved by 7/3).
# After an intended change to the printed form, regenerate with
#   PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \
#     import test_golden as g; g.LADDER.write_text(g.ladder_text())"
LADDER = Path(__file__).parent / "data" / "ladder_restricted_m4_m5.txt"

LADDER_BUNDLE = """\
[space]
independent x t
dependent u(x,t)

[equation eq4]
u[t] = (u[x]^2*u[x,x,x,x] - 10*u[x]*u[x,x]*u[x,x,x] + 15*u[x,x]^3)/u[x]^6
constraint u[x] != 0

[equation eq5]
u[t] = (u[x]^3*u[x,x,x,x,x] - 15*u[x]^2*u[x,x]*u[x,x,x,x] - 10*u[x]^2*u[x,x,x]^2 + 105*u[x]*u[x,x]^2*u[x,x,x] - 105*u[x,x]^4)/u[x]^8
constraint u[x] != 0

[operator true4]
type point
xi x = (3/2)*u^4 + (-2/5)*u^3 + 36*t

[operator mutant4]
type point
xi x = (3/2)*u^4 + (-2/5)*u^3 + (115/3)*t

[operator true5]
type point
xi x = (3/2)*u^5 + (-2/5)*u^4 + 180*t

[operator mutant5]
type point
xi x = (3/2)*u^5 + (-2/5)*u^4 + (547/3)*t
"""


def ladder_text() -> str:
    bundle = parse_problem(LADDER_BUNDLE, name="ladder")
    out = []
    for m in (4, 5):
        eq = bundle.equations[f"eq{m}"]
        [(lhs, rhs)] = eq.equations
        for name in (f"true{m}", f"mutant{m}"):
            pf = prolong(bundle.operators[name].operator, m, eq.js)
            res = restrict_to_manifold(apply_operator(pf, lhs - rhs), eq)
            out.append(f"{name}: {print_expression(res)}\n")
    return "".join(out)


def test_restricted_ladder_residuals_match_golden_file():
    assert ladder_text() == LADDER.read_text(encoding="utf-8")
