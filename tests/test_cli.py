import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from symred import cli
from symred.cli import UsageFault, main, run_suite
from symred.problems import load_problem

DATA = resources.files("symred") / "data"


def path(name):
    return str(DATA / f"{name}.prob")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_pass_exit_zero(capsys):
    code, out, _ = run(capsys, "check", path("eq3"), "--operator", "halfQminusD")
    assert code == 0
    assert "pass" in out


def test_check_unknown_operator_exit_three(capsys):
    code, _, err = run(capsys, "check", path("eq3"), "--operator", "bogus")
    assert code == 3
    assert "unknown operator" in err


def test_check_missing_bundle_exit_three(capsys):
    code, _, err = run(capsys, "check", "/nonexistent.prob")
    assert code == 3


def test_check_failing_operator_exit_one(capsys):
    code, out, _ = run(capsys, "check", path("sg_deformed"),
                       "--operator", "QcondPerturbed", "--mode", "conditional")
    assert code == 1


def test_reproducibility_header_present(capsys):
    _, out, _ = run(capsys, "check", path("eq3"), "--seed", "5")
    first = out.splitlines()[0]
    assert first.startswith("#") and "seeds=5" in first
    assert "tol" in first


def test_every_text_line_carries_seed_and_tolerances(capsys):
    _, out, _ = run(capsys, "check", path("eq3"))
    rows = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert rows
    for ln in rows:
        assert "seed=" in ln and "tol_abs=" in ln and "tol_rel=" in ln


def test_reduce_verify_candidate(capsys):
    code, _, _ = run(capsys, "reduce", path("ode32"), "--ansatz", "logAnsatz",
                     "--candidate", "eq36")
    assert code == 0


def test_reduce_derive_prints_system(capsys):
    code, out, _ = run(capsys, "reduce", path("sg_deformed"),
                       "--ansatz", "eq16")
    assert code == 0
    assert "phi1[x1] = phi2" in out
    assert "phi2[x2] = sin(phi1)" in out


def test_reduce_degenerate_exit_one(capsys):
    code, out, _ = run(capsys, "reduce", path("eq2"), "--ansatz", "degenerate")
    assert code == 1
    assert "no unknown-function derivative" in out


def test_reduce_without_ansatz_exit_three(capsys):
    code, _, err = run(capsys, "reduce", path("eq2"))
    assert code == 3


def test_verify_solution(capsys):
    code, out, _ = run(capsys, "verify", path("eq4"), "--solution", "eq5")
    assert code == 0
    assert "residual_max" in out


def test_verify_backlund(capsys):
    code, _, _ = run(capsys, "verify", path("sg_deformed"),
                     "--backlund", "eq18")
    assert code == 0


def test_verify_solution_fd_flag(capsys):
    code, out, _ = run(capsys, "verify", path("eq6"),
                       "--solution", "implicitTheta", "--fd")
    assert code == 0
    assert "finite-difference" in out


def test_verify_unknown_solution_exit_three(capsys):
    code, _, err = run(capsys, "verify", path("eq4"), "--solution", "nope")
    assert code == 3


def test_paper_suite_all_rows_match(capsys):
    code, out, _ = run(capsys, "paper-suite", "--format", "json-lines")
    assert code == 0
    rows = [json.loads(ln) for ln in out.splitlines() if ln.strip()]
    assert len(rows) >= 20
    assert all(r["ok"] for r in rows)


def test_json_lines_schema(capsys):
    _, out, _ = run(capsys, "check", path("eq3"), "--format", "json-lines")
    for ln in out.splitlines():
        r = json.loads(ln)
        for key in ("case", "kind", "verdict", "residual_max", "seed",
                    "tolerances", "provenance"):
            assert key in r
        assert set(r["tolerances"]) == {"abs", "rel"}


def test_seed_range_stability(capsys):
    code, out, _ = run(capsys, "check", path("eq3"), "--seed", "0..3",
                       "--format", "json-lines")
    assert code == 0
    rows = [json.loads(ln) for ln in out.splitlines()]
    assert {r["seed"] for r in rows} == {0, 1, 2, 3}
    assert len({r["verdict"] for r in rows}) == 1


def test_env_seed_override(capsys, monkeypatch):
    monkeypatch.setenv("SYMRED_SEED", "9")
    _, out, _ = run(capsys, "check", path("eq3"), "--operator", "D",
                    "--format", "json-lines")
    assert json.loads(out.splitlines()[0])["seed"] == 9


def test_tol_override_recorded(capsys):
    _, out, _ = run(capsys, "check", path("eq3"), "--operator", "D",
                    "--tol", "1e-6", "--format", "json-lines")
    r = json.loads(out.splitlines()[0])
    assert r["tolerances"] == {"abs": 1e-6, "rel": 1e-6}


def test_usage_error_exit_three(capsys):
    assert main(["frobnicate"]) == 3


def test_solution_seed_key_pins_the_seed(capsys, tmp_path):
    text = (DATA / "eq4.prob").read_text(encoding="utf-8")
    assert "[solution eq5]\n" in text
    pinned = tmp_path / "eq4.prob"
    pinned.write_text(text.replace("[solution eq5]\n",
                                   "[solution eq5]\nseed 5\n"),
                      encoding="utf-8")
    _, out, _ = run(capsys, "verify", str(pinned), "--solution", "eq5",
                    "--format", "json-lines")
    row = json.loads(out)
    _, out, _ = run(capsys, "verify", path("eq4"), "--solution", "eq5",
                    "--seed", "5", "--format", "json-lines")
    want = json.loads(out)
    assert row["seed"] == 5
    assert row["residual_max"] == want["residual_max"]
    # without the key the CLI seed applies
    _, out, _ = run(capsys, "verify", path("eq4"), "--solution", "eq5",
                    "--seed", "2", "--format", "json-lines")
    assert json.loads(out)["seed"] == 2


def test_paper_suite_fd_reports_error_row_and_runs_the_rest(capsys):
    _, plain, _ = run(capsys, "paper-suite", "--format", "json-lines")
    code, out, err = run(capsys, "paper-suite", "--fd",
                         "--format", "json-lines")
    assert code == 4
    rows = [json.loads(ln) for ln in out.splitlines()]
    assert [r["case"] for r in rows] == \
        [json.loads(ln)["case"] for ln in plain.splitlines()]
    errors = [r for r in rows if r["verdict"] == "error"]
    assert [r["case"] for r in errors] == ["eq4:eq5"]
    assert "single equation" in errors[0]["detail"]


def test_closed_pipe_exits_quietly():
    read_end, write_end = os.pipe()
    os.close(read_end)          # no reader: the first write fails
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src")] +
        [p for p in [env.get("PYTHONPATH")] if p])
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "symred.cli", "paper-suite",
             "--seed", "0..2"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True,
            timeout=120)
    finally:
        os.close(write_end)
    assert proc.stderr == ""
    assert proc.returncode == 1


def test_derive_row_reports_tol_zero_as_given(capsys):
    code, out, _ = run(capsys, "reduce", path("sg_deformed"), "--ansatz", "eq16",
                       "--tol", "0", "--format", "json-lines")
    assert code == 0
    row = json.loads(out.splitlines()[-1])
    assert row["case"] == "sg_deformed:eq16:derive"
    assert row["verdict"] == "pass"
    assert row["tolerances"] == {"abs": 0.0, "rel": 0.0}


def test_paper_suite_tol_reaches_every_row(capsys):
    _, out, _ = run(capsys, "paper-suite", "--tol", "1e-7",
                    "--format", "json-lines")
    rows = [json.loads(ln) for ln in out.splitlines()]
    derive = {r["case"]: r for r in rows if r["case"].endswith(":derive")}
    for case in ("ode32:logAnsatz:derive", "sg_deformed:eq16:derive"):
        assert derive[case]["kind"] == "system-equivalence"
        assert derive[case]["tolerances"] == {"abs": 1e-7, "rel": 1e-7}
    assert all(r["tolerances"]["abs"] == 1e-7 for r in rows)


def test_residual_exactly_at_tolerance_passes(capsys):
    # F = 1 makes the residual an exact identity: 0 <= 0 passes, as in
    # every zero-test
    code, out, _ = run(capsys, "verify", path("ode32"), "--solution",
                       "constantF", "--tol", "0", "--format", "json-lines")
    row = json.loads(out)
    assert row["residual_max"] == 0.0
    assert row["tolerances"] == {"abs": 0.0, "rel": 0.0}
    assert row["verdict"] == "pass"
    assert code == 0


def test_empty_seed_range_is_a_usage_fault(capsys):
    code, out, err = run(capsys, "paper-suite", "--seed", "3..1")
    assert code == 3
    assert out == ""
    assert "empty seed range" in err


@pytest.mark.parametrize("text", ["abc", "1..x", "1..2..3", ""])
def test_malformed_seed_is_a_usage_fault_naming_the_flag(capsys, text):
    code, out, err = run(capsys, "paper-suite", "--seed", text)
    assert code == 3
    assert out == ""
    assert "--seed" in err and repr(text) in err
    assert "invalid literal" not in err


def test_error_rows_carry_the_tolerances_their_check_would_use(capsys,
                                                                 tmp_path):
    # a solution row: the path's default tolerance, relative 0
    _, out, _ = run(capsys, "verify", path("eq4"), "--solution", "eq5",
                    "--fd", "--format", "json-lines")
    row = json.loads(out)
    assert row["verdict"] == "error"
    assert row["tolerances"] == {"abs": 1e-4, "rel": 0.0}
    # a check row: the zero-test default for both
    bundle = tmp_path / "two_deps.prob"
    bundle.write_text("[space]\nindependent x t\ndependent u(x,t)\n"
                      "dependent v(x,t)\n\n[overdetermined pair]\n"
                      "u[x] = v\nv[t] = u\n", encoding="utf-8")
    [row] = run_suite(load_problem(bundle), seed=0)
    assert row["verdict"] == "error"
    assert "single dependent" in row["detail"]
    assert row["tolerances"] == {"abs": 1e-9, "rel": 1e-9}


def test_operator_without_target_is_a_usage_fault(capsys, tmp_path):
    # parsing it stays legal; checking it names the operator
    bundle = tmp_path / "b.prob"
    bundle.write_text("[space]\nindependent x t\ndependent u(x,t)\n\n"
                      "[equation heat]\nu[t] = u[x,x]\n\n"
                      "[operator shift]\ntype point\nxi x = 1\n",
                      encoding="utf-8")
    code, out, err = run(capsys, "check", str(bundle))
    assert code == 3
    assert "'shift'" in err and "Traceback" not in err
    with pytest.raises(UsageFault, match="'shift'"):
        run_suite(load_problem(bundle), seed=0)


@pytest.mark.parametrize("section, argv", [
    ("[operator shift]\ntype point\nxi x = 1\n", ["check"]),
    ("[ansatz travel]\nunknown phi(z)\nwhere z = x - t\nu = phi\n",
     ["reduce", "--ansatz", "travel"]),
])
def test_entry_usage_fault_leaves_stdout_empty(capsys, tmp_path, section,
                                               argv):
    # an operator without 'on', an ansatz without 'original': found
    # before the header is printed, as a bad --seed is
    bundle = tmp_path / "b.prob"
    bundle.write_text("[space]\nindependent x t\ndependent u(x,t)\n\n"
                      "[equation heat]\nu[t] = u[x,x]\n\n" + section,
                      encoding="utf-8")
    code, out, err = run(capsys, argv[0], str(bundle), *argv[1:])
    assert code == 3
    assert out == ""
    assert "names no" in err and "Traceback" not in err


def test_mode_lb_on_a_point_operator_is_a_usage_fault(capsys):
    code, out, err = run(capsys, "check", path("eq3"), "--operator",
                         "halfQminusD", "--mode", "lb")
    assert code == 3
    assert out == ""
    assert "'halfQminusD'" in err and "canonical" in err
    assert "Traceback" not in err


def test_float_overflow_is_an_error_row_and_the_rest_runs(capsys, tmp_path):
    bundle = tmp_path / "b.prob"
    bundle.write_text("[space]\nindependent x t\ndependent u(x,t)\n\n"
                      "[equation heat]\nu[t] = u[x,x]\n\n"
                      "[operator shift]\ntype point\non heat\nxi x = 1\n\n"
                      "[operator huge]\ntype point\non heat\n"
                      "eta u = 10^400*u + sin(u)\n", encoding="utf-8")
    code, out, err = run(capsys, "check", str(bundle), "--format",
                         "json-lines")
    assert code == 4
    rows = {row["case"]: row for row in map(json.loads, out.splitlines())}
    assert rows["b:shift"]["verdict"] == "pass"
    assert rows["b:huge"]["verdict"] == "error"
    assert rows["b:huge"]["detail"] == \
        "OverflowError: integer division result too large for a float"
    assert "Traceback" not in err


def test_deeply_nested_expression_is_a_parse_error(capsys, tmp_path):
    # at least one parser frame per nesting level: past the recursion
    # limit whatever it is set to
    depth = sys.getrecursionlimit()
    bundle = tmp_path / "deep.prob"
    bundle.write_text("[space]\nindependent x t\ndependent u(x,t)\n\n"
                      "[equation heat]\nu[t] = u[x,x]\n\n"
                      "[operator deep]\ntype point\non heat\n"
                      "eta u = " + "sin(" * depth + "u" + ")" * depth + "\n",
                      encoding="utf-8")
    code, out, err = run(capsys, "check", str(bundle))
    assert code == 3
    assert out == ""
    assert "parse error: expression nested too deeply (line 11" in err
    assert "Traceback" not in err


def test_recursion_error_is_an_error_row_and_the_rest_runs(capsys, tmp_path,
                                                          monkeypatch):
    # a real tree deep enough to overflow takes minutes to check, so the
    # check of one operator is made to raise instead
    check = cli.check_classical

    def overflowing(op, eq, **kw):
        if op.name == "deep":
            raise RecursionError("maximum recursion depth exceeded")
        return check(op, eq, **kw)

    monkeypatch.setattr(cli, "check_classical", overflowing)
    bundle = tmp_path / "b.prob"
    bundle.write_text("[space]\nindependent x t\ndependent u(x,t)\n\n"
                      "[equation heat]\nu[t] = u[x,x]\n\n"
                      "[operator deep]\ntype point\non heat\nxi t = 1\n\n"
                      "[operator shift]\ntype point\non heat\nxi x = 1\n",
                      encoding="utf-8")
    code, out, err = run(capsys, "check", str(bundle), "--format",
                         "json-lines")
    assert code == 4
    rows = {row["case"]: row for row in map(json.loads, out.splitlines())}
    assert rows["b:shift"]["verdict"] == "pass"
    assert rows["b:deep"]["verdict"] == "error"
    assert rows["b:deep"]["detail"] == \
        "RecursionError: maximum recursion depth exceeded"
    assert "Traceback" not in err


@pytest.mark.parametrize("grid, boxes, message", [
    ("grid 3 3", "box x = 0 .. 1\n", "grid needs a box range for t"),
    ("grid 3", "box x = 0 .. 1\nbox t = 0 .. 1\n",
     "grid needs one count per variable of ['x', 't']"),
])
def test_grid_without_a_range_per_variable_is_an_error_row(capsys, tmp_path,
                                                           grid, boxes,
                                                           message):
    bundle = tmp_path / "b.prob"
    bundle.write_text("[space]\nindependent x t\ndependent u(x,t)\n\n"
                      "[equation heat]\nu[t] = u[x,x]\n\n"
                      "[solution gridded]\nkind explicit\nof heat\nu = x\n"
                      f"{boxes}{grid}\n\n"
                      "[solution drawn]\nkind explicit\nof heat\n"
                      "u = x + 2*t\nn 8\nexpect fail\n", encoding="utf-8")
    code, out, err = run(capsys, "verify", str(bundle), "--solution",
                         "gridded", "--format", "json-lines")
    assert code == 4
    row = json.loads(out)
    assert row["verdict"] == "error"
    assert row["detail"] == f"ValueError: {message}"
    assert "Traceback" not in err
    # the entry after it still runs
    rows = {row["case"]: row for row in run_suite(load_problem(bundle), 0)}
    assert rows["b:gridded"]["verdict"] == "error"
    assert rows["b:drawn"]["verdict"] == "fail"
    assert rows["b:drawn"]["ok"] is True


def test_derived_system_with_a_huge_constant_prints(capsys, tmp_path):
    # (10^400)^11 folds to an integer of 4401 digits, past Python's
    # int-to-str limit
    bundle = tmp_path / "b.prob"
    bundle.write_text("[space]\nindependent x t\ndependent u(x,t)\n\n"
                      "[equation heat]\nu[t] = (10^400)^11*u[x,x]\n\n"
                      "[ansatz travel]\nu = phi\nwhere z = x - t\n"
                      "unknown phi(z)\noriginal heat\n", encoding="utf-8")
    code, out, err = run(capsys, "reduce", str(bundle), "--ansatz", "travel")
    assert code == 0
    assert "phi[z,z] = -1/1" + "0" * 4400 + "*phi[z]\n" in out
    assert err == ""


def test_singular_invariant_chain_is_an_error_row_and_the_rest_runs(
        capsys, tmp_path):
    # u = w with w = u: the chain system for w's derivatives is singular
    bundle = tmp_path / "b.prob"
    bundle.write_text("[space]\nindependent x t\ndependent u(x,t)\n\n"
                      "[equation heat]\nu[t] = u[x,x]\n\n"
                      "[ansatz loop]\nu = w\nwhere w = u\nunknown phi(w)\n"
                      "original heat\ncandidate tw\n\n"
                      "[ansatz travel]\nu = phi\nwhere z = x - t\n"
                      "unknown phi(z)\noriginal heat\ncandidate tw\n\n"
                      "[reduced tw]\nunknown phi(z)\nphi[z,z] = -phi[z]\n",
                      encoding="utf-8")
    code, out, err = run(capsys, "reduce", str(bundle), "--ansatz", "loop",
                         "--candidate", "tw", "--format", "json-lines")
    assert code == 4
    row = json.loads(out)
    assert row["verdict"] == "error"
    assert row["detail"] == \
        "SingularImplicitSystem: cannot solve for [_D_w_x]"
    assert "Traceback" not in err
    # the entry after it still runs
    rows = {row["case"]: row for row in run_suite(load_problem(bundle), 0)}
    assert rows["b:loop->tw"]["verdict"] == "error"
    assert rows["b:travel->tw"]["verdict"] == "pass"
