"""Command-line driver: ``symred {check|reduce|verify|paper-suite}``.

Exit codes: 0 all checks pass, 1 any failure, 2 inconclusive,
3 usage or parse errors, 4 a check stopped on a runtime error.  A
runtime error (``ExprError``, ``ValueError``, ``OverflowError`` or
``RecursionError``) while checking one entry becomes that entry's row,
with verdict ``error`` and the message in ``detail``; the other entries
still run.

Every verdict function returns one ``zerotest.Result`` record, and
``_row`` turns it into the entry's row: ``verdict``; ``residual_max``,
the |residual| the verdict rests on (``witness_value``); ``seed`` and
``tolerances`` {abs, rel}, the ones the verdict was computed with;
``provenance``; ``case`` and ``kind``, which this module supplies.  Two
keys are optional: ``expect`` with ``ok`` (whether the verdict matches
it) when the entry declares an expectation, and ``detail`` when the
record has one (a derivation's failure reason, a solution's skipped
points, a runtime error).  Text output prints one line per row;
``--format json-lines`` prints each row as a JSON object with sorted
keys.

Every verdict takes one tolerance: ``--tol`` (finite, >= 0) when given,
else ``zerotest.TOL`` for a check, reported as abs and rel, and
``numeric.solution_tol`` for a solution, reported as abs with rel 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import resources
from pathlib import Path

from .checks import check_classical, check_conditional, check_lie_backlund
from .expr import ExprError
from .jets import CanonicalOperator
from .parser import ParseError, print_equation
from .problems import MODES, ProblemBundle, load_problem, parse_problem
from .reduce import (
    check_overdetermined, derive_reduction, systems_equivalent,
    verify_backlund, verify_reduction,
)
from .numeric import (
    residual_explicit, residual_fd, residual_implicit, solution_tol,
)
from .systems import EquationSystem
from .zerotest import PASS, TOL, Result

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3
EXIT_ERROR = 4

# runtime faults of one entry's check, reported as that entry's row
ENTRY_FAULTS = (ExprError, ValueError, OverflowError, RecursionError)


class UsageFault(Exception):
    pass


def _row(case: str, kind: str, rec: Result, expect: str = "") -> dict:
    row = {
        "case": case,
        "kind": kind,
        "verdict": rec.verdict,
        "residual_max": abs(rec.witness_value),
        "seed": rec.seed,
        "tolerances": {"abs": rec.tol_abs, "rel": rec.tol_rel},
        "provenance": rec.provenance,
    }
    if expect:
        row["expect"] = expect
        row["ok"] = (rec.verdict == expect)
    if rec.detail:
        row["detail"] = rec.detail
    return row


def _fault(exc: Exception, seed: int, tol: float, rel: float) -> Result:
    """An ``error`` record carrying the tolerances the check would have
    used: ``tol``, and ``rel`` as the relative one."""
    return Result("error", "none", seed=seed, tol_abs=tol, tol_rel=rel,
                  detail=f"{type(exc).__name__}: {exc}")


def _call(check, seed: int, tol: float | None, *args, **kw) -> Result:
    """``check(*args, seed=seed, tol=tol, **kw)``, with ``tol`` None
    meaning TOL; a runtime fault becomes an ``error`` record."""
    tol = TOL if tol is None else tol
    try:
        return check(*args, seed=seed, tol=tol, **kw)
    except ENTRY_FAULTS as exc:
        return _fault(exc, seed, tol, tol)


def _operator_check(bundle: ProblemBundle, entry, mode: str = ""):
    """The equation an operator is checked on, the row kind and the check
    function under ``mode`` (the operator's own when empty).  A
    UsageFault without an equation, or for mode lb on a point operator.
    The subcommands call it before they print anything."""
    if not entry.on:
        raise UsageFault(f"operator {entry.name!r} names no equation to check "
                         f"(an 'on' line)")
    target = bundle.equations[entry.on]
    mode = mode or entry.mode
    if isinstance(entry.operator, CanonicalOperator):
        return target, "lie-backlund", check_lie_backlund
    if mode == "lb":
        raise UsageFault(f"mode lb needs a canonical operator; {entry.name!r} "
                         f"is a point operator")
    if mode == "conditional":
        return target, "conditional", check_conditional
    return target, "classical", check_classical


def _original(bundle: ProblemBundle, entry, candidate: str = ""):
    """The equation an ansatz reduces, and the candidate reduced system
    (None if not named); a UsageFault if either is missing."""
    if not entry.original:
        raise UsageFault(f"ansatz {entry.name!r} names no original equation")
    if candidate and candidate not in bundle.reduced:
        raise UsageFault(f"unknown reduced system {candidate!r}")
    return (bundle.equations[entry.original],
            bundle.reduced[candidate] if candidate else None)


def _run_operator(bundle: ProblemBundle, entry, seed: int,
                  tol: float | None, mode: str = "", expect: str = "") -> dict:
    target, kind, check = _operator_check(bundle, entry, mode)
    rec = _call(check, seed, tol, entry.operator, target)
    return _row(f"{bundle.name}:{entry.name}", kind, rec, expect)


def _run_reduce(bundle: ProblemBundle, entry, candidate: str, seed: int,
                tol: float | None, expect: str = "", stream=None) -> dict:
    original, reduced = _original(bundle, entry, candidate)
    if candidate:
        rec = _call(verify_reduction, seed, tol, entry.ansatz, original,
                    reduced)
        return _row(f"{bundle.name}:{entry.name}->{candidate}", "reduction",
                    rec, expect)
    out = _call(derive_reduction, seed, tol, entry.ansatz, original)
    if isinstance(out, EquationSystem):
        if stream is not None:
            for lhs, rhs in out.equations:
                print(print_equation(lhs, rhs), file=stream)
        t = TOL if tol is None else tol
        out = Result(PASS, seed=seed, tol_abs=t, tol_rel=t)
    return _row(f"{bundle.name}:{entry.name}:derive", "derivation", out,
                expect)


def _run_derive_cross(bundle: ProblemBundle, entry, seed: int,
                      tol: float | None, expect: str = "") -> dict:
    """Derive the reduced system and test two-way equivalence against the
    bundled candidate."""
    out = _call(derive_reduction, seed, tol, entry.ansatz,
                bundle.equations[entry.original])
    kind = "derivation"
    if isinstance(out, EquationSystem):
        kind = "system-equivalence"
        out = _call(systems_equivalent, seed, tol, out,
                    bundle.reduced[entry.candidate],
                    constraints=bundle.param_constraints)
    return _row(f"{bundle.name}:{entry.name}:derive", kind, out, expect)


def _run_solution(bundle: ProblemBundle, spec, seed: int, tol: float | None,
                  fd: bool = False, expect: str = "") -> dict:
    """The solution's row: the spec's ``seed`` key, when set, pins the
    seed in place of ``seed``, and ``tol`` None means the spec's own
    (``numeric.solution_tol``)."""
    sys_ = bundle.system(spec.of)
    if spec.seed is not None:
        seed = spec.seed
    if fd:
        residual = residual_fd
    elif spec.kind == "implicit":
        residual = residual_implicit
    else:
        residual = residual_explicit
    try:
        rec = residual(spec, sys_, seed, tol=tol)
    except ENTRY_FAULTS as exc:
        rec = _fault(exc, seed, solution_tol(spec, fd, tol), 0.0)
    return _row(f"{bundle.name}:{spec.name}", "solution", rec, expect)


def _run_backlund(bundle: ProblemBundle, entry, seed: int,
                  tol: float | None, expect: str = "") -> dict:
    rec = _call(verify_backlund, seed, tol, entry.relation)
    return _row(f"{bundle.name}:{entry.name}", "backlund", rec, expect)


def _run_overdetermined(bundle: ProblemBundle, spec, seed: int,
                        tol: float | None, expect: str = "") -> dict:
    rec = _call(check_overdetermined, seed, tol, spec, bundle.space)
    return _row(f"{bundle.name}:{spec.name}", "overdetermined", rec, expect)


# -- output -----------------------------------------------------------------

def _emit(records, fmt: str, stream) -> None:
    if fmt == "json-lines":
        for rec in records:
            print(json.dumps(rec, sort_keys=True), file=stream)
        return
    for rec in records:
        tols = rec["tolerances"]
        line = (f"{rec['verdict']:12s} {rec['case']:40s} kind={rec['kind']} "
                f"residual_max={rec['residual_max']:.3g} seed={rec['seed']} "
                f"tol_abs={tols['abs']:g} tol_rel={tols['rel']:g} "
                f"provenance={rec['provenance']}")
        if "expect" in rec:
            line += f" expect={rec['expect']} {'ok' if rec['ok'] else 'MISMATCH'}"
        if rec.get("detail"):
            line += f" ({rec['detail']})"
        print(line, file=stream)


def _exit_code(records, honor_expect: bool = False) -> int:
    verdicts = []
    for rec in records:
        v = rec["verdict"]
        if honor_expect and "expect" in rec and \
                v not in ("inconclusive", "error"):
            v = "pass" if rec["ok"] else "fail"
        verdicts.append(v)
    if any(v == "error" for v in verdicts):
        return EXIT_ERROR
    if any(v == "fail" for v in verdicts):
        return EXIT_FAIL
    if any(v == "inconclusive" for v in verdicts):
        return EXIT_INCONCLUSIVE
    return EXIT_PASS


def _parse_seeds(text: str):
    lo, sep, hi = text.partition("..")
    try:
        lo = int(lo)
        hi = int(hi) if sep else lo
    except ValueError:
        raise UsageFault(f"--seed takes N or LO..HI, not {text!r}") from None
    if lo > hi:
        raise UsageFault(f"empty seed range {text!r}")
    return list(range(lo, hi + 1))


def _header(seeds, tol, fmt: str, stream) -> None:
    if fmt != "text":
        return
    tol_note = f"tol-override={tol:g}" if tol is not None else "tol=defaults"
    print(f"# seeds={','.join(str(s) for s in seeds)} {tol_note}", file=stream)


def _load(path: str) -> ProblemBundle:
    p = Path(path)
    if not p.exists():
        raise UsageFault(f"no such bundle: {path}")
    return load_problem(p)


def bundled_problems() -> list[ProblemBundle]:
    """The case-study bundles shipped inside the package, in deterministic
    name order."""
    root = resources.files("symred") / "data"
    out = []
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".prob"):
            out.append(parse_problem(entry.read_text(encoding="utf-8"),
                                     name=entry.name[:-5]))
    return out


def run_suite(bundle: ProblemBundle, seed: int, tol: float | None = None,
              fd: bool = False) -> list[dict]:
    """Run every entry of a bundle against its declared expectation."""
    records = []
    for entry in bundle.operators.values():
        records.append(_run_operator(bundle, entry, seed, tol,
                                     expect=entry.expect))
    for entry in bundle.ansatzes.values():
        if not entry.original:
            continue
        records.append(_run_reduce(bundle, entry, entry.candidate, seed,
                                   tol, expect=entry.expect))
        if entry.candidate and entry.derive:
            records.append(_run_derive_cross(bundle, entry, seed, tol,
                                             expect=entry.expect))
    for spec in bundle.solutions.values():
        records.append(_run_solution(bundle, spec, seed, tol, fd=fd,
                                     expect=spec.expect))
    for entry in bundle.backlunds.values():
        records.append(_run_backlund(bundle, entry, seed, tol,
                                     expect=entry.expect))
    for spec in bundle.overdetermined.values():
        records.append(_run_overdetermined(bundle, spec, seed, tol,
                                           expect=spec.expect))
    return records


# -- subcommands --------------------------------------------------------------

def _drive(args, jobs, honor_expect: bool = False) -> int:
    """Run every job at every seed of ``--seed`` and print the header and
    the rows; ``job(seed)`` returns its rows at that seed.  Returns the
    exit code."""
    seeds = _parse_seeds(args.seed)
    if args.tol is not None and not 0 <= args.tol < float("inf"):
        raise UsageFault(f"--tol takes a finite number >= 0, not {args.tol}")
    _header(seeds, args.tol, args.format, sys.stdout)
    records = [row for seed in seeds for job in jobs for row in job(seed)]
    _emit(records, args.format, sys.stdout)
    return _exit_code(records, honor_expect)


def cmd_check(args) -> int:
    bundle = _load(args.bundle)
    names = args.operator or list(bundle.operators)
    for n in names:
        if n not in bundle.operators:
            raise UsageFault(f"unknown operator {n!r}")
        _operator_check(bundle, bundle.operators[n], args.mode)
    return _drive(args, [
        lambda seed, e=bundle.operators[n]: [
            _run_operator(bundle, e, seed, args.tol, mode=args.mode)]
        for n in names])


def cmd_reduce(args) -> int:
    bundle = _load(args.bundle)
    if not args.ansatz:
        raise UsageFault("reduce needs --ansatz")
    if args.ansatz not in bundle.ansatzes:
        raise UsageFault(f"unknown ansatz {args.ansatz!r}")
    entry = bundle.ansatzes[args.ansatz]
    _original(bundle, entry, args.candidate)
    return _drive(args, [lambda seed: [
        _run_reduce(bundle, entry, args.candidate, seed, args.tol,
                    stream=sys.stdout)]])


def cmd_verify(args) -> int:
    bundle = _load(args.bundle)
    if args.solution and args.solution not in bundle.solutions:
        raise UsageFault(f"unknown solution {args.solution!r}")
    if args.backlund and args.backlund not in bundle.backlunds:
        raise UsageFault(f"unknown transformation {args.backlund!r}")
    if not (args.solution or args.backlund):
        raise UsageFault("verify needs --solution or --backlund")
    jobs = []
    if args.solution:
        spec = bundle.solutions[args.solution]
        jobs.append(lambda seed: [_run_solution(bundle, spec, seed, args.tol,
                                                fd=args.fd)])
    if args.backlund:
        entry = bundle.backlunds[args.backlund]
        jobs.append(lambda seed: [_run_backlund(bundle, entry, seed,
                                                args.tol)])
    return _drive(args, jobs)


def cmd_paper_suite(args) -> int:
    return _drive(args, [
        lambda seed, b=b: run_suite(b, seed, args.tol, fd=args.fd)
        for b in bundled_problems()], honor_expect=True)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="symred",
        description="Symmetry checks, reductions, and solution validation "
                    "for problem bundles in the .prob format.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, with_bundle=True):
        if with_bundle:
            p.add_argument("bundle", help="path to a .prob bundle")
        p.add_argument("--seed", default=os.environ.get("SYMRED_SEED", "0"),
                       help="RNG seed, or an inclusive range 'a..b'")
        p.add_argument("--tol", type=float, default=None,
                       help="override the tolerance for every check")
        p.add_argument("--format", choices=("text", "json-lines"),
                       default="text")

    p = sub.add_parser("check", help="invariance checks for named operators")
    common(p)
    p.add_argument("--operator", action="append",
                   help="operator name (repeatable; default: all)")
    p.add_argument("--mode", choices=MODES,
                   default="", help="override the check mode")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("reduce", help="verify or derive a reduced system")
    common(p)
    p.add_argument("--ansatz", required=False, default="")
    p.add_argument("--candidate", default="",
                   help="reduced system to verify against; omit to derive")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("verify",
                       help="validate a solution or a transformation pair")
    common(p)
    p.add_argument("--solution", default="")
    p.add_argument("--backlund", default="")
    p.add_argument("--fd", action="store_true",
                   help="force the finite-difference residual path")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("paper-suite",
                       help="run every bundled case study against its "
                            "expected verdict")
    common(p, with_bundle=False)
    p.add_argument("--fd", action="store_true")
    p.set_defaults(fn=cmd_paper_suite)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed the pipe early (``| head``).  Python flushes
        # stdout again at exit; point it at devnull so that flush cannot
        # fail too, and exit 1 without a traceback, as the Python docs
        # recommend.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_FAIL
    except ParseError as e:
        print(f"symred: parse error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (UsageFault, ExprError, ValueError) as e:
        print(f"symred: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
