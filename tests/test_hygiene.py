"""Repository hygiene: no unused imports, no imports of another module's
private names and no unread module-level definitions in the library, one
walk that rebuilds trees, one point source and one zero-test loop, and
the library runs without numpy."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import symred

SRC = Path(symred.__file__).parent


def _unused_imports(path: Path) -> list:
    """Names a module imports and never reads (``a.b`` reads ``a``); a
    name that is only assigned to is not read."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
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
    # a dataclass module whose records are gone; assigning is not reading
    mod.write_text("from dataclasses import dataclass, field\nfield = 3\n")
    assert _unused_imports(mod) == ["mod.py:1 dataclass", "mod.py:1 field"]


def _private_imports(path: Path) -> list:
    """``_``-prefixed names a module imports from another module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted(f"{path.name}:{node.lineno} {alias.name}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"
                  for alias in node.names if alias.name.startswith("_"))


def test_no_module_imports_another_modules_private_name():
    private = []
    for path in sorted(SRC.glob("*.py")):
        private += _private_imports(path)
    assert private == []


def test_private_import_scan_sees_a_private_name(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("from __future__ import annotations\n"
                   "from .a import b, _c\nimport _d\n"
                   "from .e import (\n    f, _g,\n)\n")
    assert _private_imports(mod) == ["mod.py:2 _c", "mod.py:4 _g"]


def _definitions(path: Path) -> dict:
    """Module-level functions, classes and assigned names of a module,
    name -> line (dunder names left out)."""
    out = {}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            out[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for t in targets:
                out.update((n.id, node.lineno) for n in ast.walk(t)
                           if isinstance(n, ast.Name))
    return {n: ln for n, ln in out.items() if not n.startswith("__")}


def _reads(paths) -> set:
    """Every name the files read, as a name or as an attribute (an import
    alone is not a read)."""
    out = set()
    for path in paths:
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                out.add(n.id)
            elif isinstance(n, ast.Attribute):
                out.add(n.attr)
    return out


def _unread_definitions(modules, readers) -> list:
    read = _reads(readers)
    return sorted(f"{path.name}:{ln} {name}" for path in modules
                  for name, ln in _definitions(path).items()
                  if name not in read)


def test_every_library_definition_is_read():
    modules = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    tests = sorted(Path(__file__).parent.glob("*.py"))
    assert _unread_definitions(modules, list(SRC.glob("*.py")) + tests) == []


def test_unread_definition_scan_sees_an_unread_name(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("A = 1\nB, C = 2, 3\n__all__ = []\n"
                   "def f():\n    return A\n"
                   "def g():\n    pass\n"
                   "class K:\n    pass\n")
    user = tmp_path / "user.py"
    user.write_text("from mod import g, K\nimport mod\nmod.f()\nprint(C)\n")
    assert _unread_definitions([mod], [mod, user]) == \
        ["mod.py:2 B", "mod.py:6 g", "mod.py:8 K"]


def _callers(path: Path, name: str) -> list:
    """(file, line, module-level definition) of every call of ``name``;
    a call in a nested function or lambda counts for the definition
    around it, one outside any for ``<module>``."""
    out = []
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        where = getattr(top, "name", "<module>")
        for n in ast.walk(top):
            if isinstance(n, ast.Call) and name in (
                    getattr(n.func, "id", None), getattr(n.func, "attr", None)):
                out.append((path.name, n.lineno, where))
    return out


def _library_callers(name: str) -> set:
    return {(f, where) for path in sorted(SRC.glob("*.py"))
            for f, _, where in _callers(path, name)}


def test_only_the_walk_driver_calls_rebuild():
    # every rebuilding walk is expr.rewrite (or fold with rebuild as its
    # combine), so trees are rebuilt by one memoised postorder walk
    assert _library_callers("rebuild") == {("expr.py", "rewrite")}


def test_one_point_source_and_one_zero_test_loop():
    # every seeded point is drawn by zerotest.draws, and every sampled
    # zero test evaluates its points in zerotest.zero_test
    assert _library_callers("sample_point") == {("zerotest.py", "draws")}
    assert _library_callers("eval_with_scale") == \
        {("zerotest.py", "zero_test")}


def test_rebuild_scan_sees_a_call(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("from .expr import rebuild, fold\n"
                   "from . import expr\n"
                   "def walk(e):\n"
                   "    return fold(e, lambda n, k: rebuild(n, k), {})\n"
                   "class K:\n"
                   "    def m(self, e):\n"
                   "        return expr.rebuild(e, ())\n"
                   "def ok(e):\n"
                   "    return fold(e, rebuild, {})\n"
                   "rebuild(None, ())\n")
    assert _callers(mod, "rebuild") == \
        [("mod.py", 4, "walk"), ("mod.py", 7, "K"), ("mod.py", 10, "<module>")]
    assert _callers(mod, "fold") == \
        [("mod.py", 4, "walk"), ("mod.py", 9, "ok")]
    assert _callers(mod, "sample_point") == []


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
