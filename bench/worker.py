"""One symred process of the benchmark; started by run.py.

Reads a job (JSON) on stdin, imports symred, parses every bundle of the
workload, prints ``ready``, and, unless the job only measures set-up,
runs rounds of ``symred.cli.run_suite`` calls until the job's seconds
have passed.  It then prints one JSON line with every row's verdict,
start, end and time in verdict calls, and the peak resident memory.

A row is one call from ``symred.cli`` into a verdict function; thin
timers replace those functions in the ``cli`` namespace.  ``cli``
derives a reduced system and then tests it for equivalence as one row,
so a ``systems_equivalent`` call joins the ``derive_reduction`` row
before it.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

VERDICT_FUNCTIONS = (
    "check_classical", "check_conditional", "check_lie_backlund",
    "verify_reduction", "derive_reduction", "systems_equivalent",
    "verify_backlund", "check_overdetermined",
    "residual_explicit", "residual_implicit",
)


class RowTimer:
    """Start and end of every call from cli into a verdict function."""

    def __init__(self, cli, tracer=None):
        self.calls: list = []       # (function name, start, end)
        self.tracer = tracer
        for name in VERDICT_FUNCTIONS:
            setattr(cli, name, self._timed(name, getattr(cli, name)))

    def _timed(self, name, fn):
        calls = self.calls
        tracer = self.tracer

        def timed(*args, **kwargs):
            if tracer is not None:
                tracer.current_row = len(calls)
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            calls.append((name, t0, time.perf_counter()))
            return out

        return timed

    def rows(self, first: int) -> list:
        """(start, end, seconds in verdict calls) per row among calls[first:]."""
        out = []
        prev = ""
        for name, t0, t1 in self.calls[first:]:
            if name == "systems_equivalent" and prev == "derive_reduction":
                s, _, busy = out[-1]
                out[-1] = (s, t1, busy + (t1 - t0))
            else:
                out.append((t0, t1, t1 - t0))
            prev = name
        return out


def main() -> int:
    job = json.loads(sys.stdin.read())
    import symred
    import symred.cli as cli
    import symred.problems as problems

    src = Path(job["src"]).resolve()
    if Path(symred.__file__).resolve().parent != src / "symred":
        print(f"worker: symred imported from {symred.__file__}, not {src}",
              file=sys.stderr)
        return 2

    tracer = None
    if job["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    if job["bundles"] is None:
        bundles = {b.name: b for b in cli.bundled_problems()}
    else:
        bundles = {name: problems.parse_problem(text, name=name)
                   for name, text in job["bundles"]}
    print("ready", flush=True)
    if job["setup_only"]:
        return 0

    timer = RowTimer(cli, tracer)
    rounds = []
    errors = []
    t_begin = time.perf_counter()
    while True:
        blocks = []
        for bi, (name, seed) in enumerate(job["blocks"]):
            first = len(timer.calls)
            try:
                records = cli.run_suite(bundles[name], seed)
            except Exception as exc:  # one faulty block must not end the run
                traceback.print_exc(file=sys.stderr)
                errors.append([len(rounds), bi, f"{type(exc).__name__}: {exc}"])
                blocks.append(None)
                continue
            rows = timer.rows(first)
            if len(rows) != len(records):
                raise RuntimeError(f"{len(records)} records but {len(rows)} "
                                   f"timed verdict calls in block {name}")
            blocks.append([[r["case"], r["verdict"], r["residual_max"], t0, t1, busy]
                           for r, (t0, t1, busy) in zip(records, rows)])
        rounds.append(blocks)
        if time.perf_counter() - t_begin >= job["seconds"]:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = {"rounds": rounds, "errors": errors, "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        out["layers"] = tracer.layer_metrics(len(rounds))
        if job["spans_path"]:
            tracer.write(job["spans_path"])
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
