"""``src/repro`` stands alone: the test oracles are never production code.

The comparison engines live under ``tests/oracles``.  No module of the
package may import them (or anything else under ``tests``), and the whole
package must import in a fresh interpreter that cannot see ``tests/``.
"""

from __future__ import annotations

import ast
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parents[2]
SRC = REPO / "src"
FORBIDDEN = {"oracles", "tests"}


def _imported_roots(path: pathlib.Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.lineno, node.module.split(".")[0]


def test_no_src_module_imports_the_oracles():
    modules = sorted((SRC / "repro").rglob("*.py"))
    assert len(modules) > 40
    offenders = [
        f"{path.relative_to(REPO)}:{line} imports {root}"
        for path in modules
        for line, root in _imported_roots(path)
        if root in FORBIDDEN
    ]
    assert not offenders, offenders


_IMPORT_EVERYTHING = """
import importlib, importlib.util, pathlib, pkgutil, sys
src, tests = sys.argv[1], pathlib.Path(sys.argv[2])
sys.path[:] = [src] + [
    p for p in sys.path
    if p and not pathlib.Path(p).resolve().is_relative_to(tests)
]
assert importlib.util.find_spec("oracles") is None, "tests/ is importable"
import repro
names = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]
for name in names:
    importlib.import_module(name)
leaked = sorted(m for m in sys.modules if m.split(".")[0] in {"oracles", "tests"})
assert not leaked, leaked
print(len(names))
"""


def test_repro_imports_without_tests_on_sys_path(tmp_path):
    completed = subprocess.run(
        [sys.executable, "-c", _IMPORT_EVERYTHING, str(SRC), str(REPO / "tests")],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert int(completed.stdout.split()[-1]) > 40
