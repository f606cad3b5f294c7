"""What the benchmark in ``bench/`` needs of symred, checked without
running it.  ``bench/worker.py`` times one row per call from
``symred.cli`` into a verdict function it wraps by name, and
``bench/tracing.py`` wraps functions it looks up by module and name.  A
verdict reached through another name, or a renamed function, breaks
every benchmark run; these tests fail first.  Both files are loaded
read-only and left as they are."""

import importlib
import types
from pathlib import Path

import symred.cli as cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str):
    """``bench/<name>.py`` as a module, compiled from its text, so that no
    bytecode cache is written under ``bench/``."""
    path = BENCH / f"{name}.py"
    mod = types.ModuleType(f"bench_{name}")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"),
         mod.__dict__)
    return mod


def test_worker_times_one_row_per_record():
    worker = _load("worker")
    saved = {name: getattr(cli, name) for name in worker.VERDICT_FUNCTIONS}
    try:
        timer = worker.RowTimer(cli)
        for bundle in cli.bundled_problems():
            first = len(timer.calls)
            records = cli.run_suite(bundle, 0)
            assert len(timer.rows(first)) == len(records), bundle.name
    finally:
        for name, fn in saved.items():
            setattr(cli, name, fn)


def test_traced_functions_resolve():
    tracing = _load("tracing")
    for _, modname, attr in tracing.SPANNED + tracing.COUNTED:
        obj = importlib.import_module(modname)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (modname, attr)
