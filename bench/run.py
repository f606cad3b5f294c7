"""symred benchmark.

    python3 bench/run.py --workload paper-suite --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; symred is imported from
``src/``.  Workloads (see README.md): ``paper-suite``,
``prolong-ladder``, ``operator-screen``.  One closed-loop caller runs
verdict rows back to back, in whole rounds, until ``--seconds`` have
passed.  Every verdict is checked against facts established apart from
symred.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 8          # set-up-only processes, besides the measuring one
DEADLINE_S = 170.0         # the whole run, set-ups and checks included

# one process, one BLAS thread, a fixed string-hash seed
WORKER_ENV = {
    "PYTHONPATH": str(SRC),
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(Exception):
    pass


def run_worker(job: dict, deadline: float) -> tuple:
    """Start one worker, hand it the job, and return (seconds from start
    until it reported ready, its result; None for a set-up-only job)."""
    env = dict(os.environ)
    env.update(WORKER_ENV)
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            env=env, text=True)
    # the reads below block; a worker still running at the deadline is killed
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        try:
            proc.stdin.write(json.dumps(job))
            proc.stdin.close()
        except OSError as exc:
            raise BenchError(f"worker did not take the job: {exc}") from exc
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        if line.strip() != "ready":
            raise BenchError("worker failed during set-up")
        rest = proc.stdout.read()
        code = proc.wait()
        if code != 0:
            raise BenchError(f"worker exited with code {code}")
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if job["setup_only"]:
        return setup_s, None
    if not rest.strip():
        raise BenchError("worker returned no result")
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def make_job(wl, seconds: float, trace: bool, setup_only: bool,
             spans_path: str = "") -> dict:
    return {"src": str(SRC), "bundles": wl.bundles, "blocks": wl.blocks,
            "seconds": seconds, "trace": trace, "setup_only": setup_only,
            "spans_path": spans_path}


def judge(wl, result: dict) -> tuple:
    """(attempted, failed, mismatches, row seconds, round wall seconds).
    Row seconds are keyed by the row's place in the round, so that each
    key holds one operation's times over the rounds."""
    attempted = failed = 0
    mismatches, walls = [], []
    row_s: dict = {}
    per_round = wl.rows_per_round()
    for blocks in result["rounds"]:
        starts, ends = [], []
        attempted += per_round
        for bi, ((bundle, _), rows) in enumerate(zip(wl.blocks, blocks)):
            if rows is None:
                failed += len(wl.expected[bundle])
                continue
            mismatches += workloads.check_block(wl, bundle, rows)
            for ri, (_, _, _, t0, t1, busy) in enumerate(rows):
                starts.append(t0)
                ends.append(t1)
                row_s.setdefault((bi, ri), []).append(busy)
        if starts:
            walls.append(max(ends) - min(starts))
    for rnd, block, message in result["errors"]:
        print(f"error in round {rnd}, block {wl.blocks[block]}: {message}",
              file=sys.stderr)
    return attempted, failed, mismatches, row_s, walls


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="symred benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "symred" / "__init__.py").is_file():
        print(f"bench: no symred sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed)
    except (workloads.OracleError, OSError, ValueError) as exc:
        print(f"bench: cannot build the workload: {exc}", file=sys.stderr)
        return 2

    try:
        if args.trace:
            # an untraced third of the time, then a traced remainder
            plain_s = args.seconds / 3
            _, plain = run_worker(make_job(wl, plain_s, False, False), deadline)
            OUT.mkdir(exist_ok=True)
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
            _, traced = run_worker(make_job(wl, args.seconds - plain_s, True, False,
                                            str(spans)), deadline)
            results = [plain, traced]
        else:
            setups = [run_worker(make_job(wl, 0, False, True), deadline)[0]
                      for _ in range(SETUP_REPEATS)]
            setup_s, main_result = run_worker(make_job(wl, args.seconds, False, False),
                                              deadline)
            setups.append(setup_s)
            results = [main_result]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    attempted = failed = 0
    mismatches = []
    judged = []
    for res in results:
        a, f, bad, row_s, walls = judge(wl, res)
        attempted += a
        failed += f
        mismatches += bad
        judged.append((row_s, walls))
    for line in mismatches[:20]:
        print(f"bench: wrong verdict: {line}", file=sys.stderr)

    if args.trace:
        layers = dict(results[1]["layers"])
        plain_wall = statistics.median(judged[0][1])
        traced_wall = statistics.median(judged[1][1])
        layers["trace.untraced_wall_s"] = plain_wall
        layers["trace.traced_wall_s"] = traced_wall
        layers["trace.overhead_s"] = traced_wall - plain_wall
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layers.items()}
    else:
        row_s, walls = judged[0]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            # the middle row, each row taken at its median over the rounds
            "row_p50_ms": {"value": statistics.median(
                statistics.median(t) for t in row_s.values()) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": results[0]["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": not mismatches, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def unit_of(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_us"):
        return "us"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_per_call"):
        return "evals/call"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
