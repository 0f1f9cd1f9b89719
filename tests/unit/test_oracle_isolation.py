"""``src/repro`` stands alone: the test oracles are never production code.

The comparison engines live under ``tests/oracles``.  No module of the
package may import them (or anything else under ``tests``), and the whole
package must import in a fresh interpreter that cannot see ``tests/``.  The
reverse holds too: reference formulations and the label-addressed send and
inbox surface live only under ``tests/oracles``, never in the package.
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


#: Reference-only helpers that live in ``tests/oracles`` (besides every
#: ``_reference_*`` function).
REFERENCE_HELPERS = {"_dijkstra", "_bfs_order_from", "_heap_tree", "heap_tree"}
#: The label-addressed send and inbox surface; ``oracles.transport`` lowers
#: it to token planes.
SIMULATOR_SURFACE = {
    "local_send_batch",
    "global_send_batch",
    "global_send_batch_ids",
    "local_send_batch_ids",
    "local_send",
    "local_broadcast",
    "global_send",
    "global_send_to_node",
    "local_inbox",
    "global_inbox",
    "inbox",
}


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


def test_reference_formulations_and_the_tuple_surface_live_in_the_oracles():
    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        where = path.relative_to(REPO)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                node.name.startswith("_reference_") or node.name in REFERENCE_HELPERS
            ):
                offenders.append(f"{where}:{node.lineno} defines {node.name}")
            if isinstance(node, ast.ClassDef) and node.name == "HybridSimulator":
                offenders.extend(
                    f"{where}:{item.lineno} HybridSimulator.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and item.name in SIMULATOR_SURFACE
                )
    assert not offenders, offenders
