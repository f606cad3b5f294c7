"""The demos, pinned: each ``demos/NAME.py``, run as a script, must print
``data/demos/NAME.txt`` byte for byte and exit 0.  A change that means to
alter a demo's output regenerates its file with
``PYTHONPATH=src python demos/NAME.py > tests/data/demos/NAME.txt`` and
says which lines changed and why."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import symred

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).parent / "data" / "demos"


def test_every_demo_has_a_golden_file():
    assert [d.stem for d in DEMOS] == sorted(g.stem for g in GOLDEN.glob("*.txt"))
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_output_matches_golden_file(demo):
    # the symred under test, whether installed or on PYTHONPATH
    src = str(Path(symred.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == (GOLDEN / f"{demo.stem}.txt").read_text(
        encoding="utf-8")
