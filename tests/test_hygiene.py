"""Repository hygiene: no unused imports in the library, and the library
runs without numpy."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import symred

SRC = Path(symred.__file__).parent


def _unused_imports(path: Path) -> list:
    """Names a module imports and never reads (``a.b`` reads ``a``)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{path.name}:{ln} {name}" for name, ln in imported.items()
                  if name not in read)


def test_no_unused_imports_in_library():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue  # re-exports
        unused += _unused_imports(path)
    assert unused == []


def test_unused_import_scan_sees_an_unused_name(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("import os\nfrom math import pi, tau\nprint(tau)\n")
    assert _unused_imports(mod) == ["mod.py:1 os", "mod.py:2 pi"]


def test_paper_suite_runs_without_numpy():
    code = ("import sys\n"
            "sys.modules['numpy'] = None\n"
            "from symred.cli import main\n"
            "sys.exit(main(['paper-suite', '--seed', '0']))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
