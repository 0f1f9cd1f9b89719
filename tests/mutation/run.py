"""Run the mutant catalogue and write a kill matrix.

Usage::

    python tests/mutation/run.py [--repo DIR] [--catalogue FILE] [--out FILE]

For every mutant the repository (``--repo``, default: this checkout) is
copied to a temporary directory, the mutant's snippet is replaced there, and
its test selection runs with ``python -m pytest``.  A mutant is *killed* when
a selected test fails, *survived* when the selection passes, and an *error*
when the snippet does not occur exactly once or pytest cannot run the
selection.  Before any mutant, the union of the selections must pass on an
unmutated copy.  The kill matrix — per mutant the status, the failing test
ids and the run time — is printed and written to ``--out`` as JSON.  The exit
status is non-zero if any mutant survived or errored.  The environment is
passed through to pytest; no network and no extra package is needed.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parents[2]
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")
FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)


def load_catalogue(path: Path) -> List[Dict[str, object]]:
    spec = importlib.util.spec_from_file_location("mutant_catalogue", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def run_selection(copy: Path, selection: Sequence[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *selection],
        cwd=copy,
        env=env,
        capture_output=True,
        text=True,
    )


def run_mutant(repo: Path, mutant: Dict[str, object]) -> Dict[str, object]:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutant-") as scratch:
        copy = Path(scratch) / "repo"
        shutil.copytree(repo, copy, ignore=IGNORED)
        target = copy / str(mutant["file"])
        source = target.read_text()
        occurrences = source.count(str(mutant["snippet"]))
        if occurrences != 1:
            status, killed_by, detail = "error", [], f"snippet occurs {occurrences} times"
        else:
            target.write_text(source.replace(str(mutant["snippet"]), str(mutant["replacement"])))
            result = run_selection(copy, mutant["selection"])
            killed_by = sorted(set(FAILED.findall(result.stdout)))
            detail = result.stdout.strip().splitlines()[-1] if result.stdout.strip() else ""
            if result.returncode == 0:
                status = "survived"
            elif result.returncode == 1:
                status = "killed"
            else:
                status, detail = "error", f"pytest exit {result.returncode}: {detail}"
    return {
        "name": mutant["name"],
        "file": mutant["file"],
        "status": status,
        "killed_by": killed_by,
        "detail": detail,
        "selection": list(mutant["selection"]),
        "seconds": round(time.perf_counter() - start, 1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", type=Path, default=ROOT)
    parser.add_argument("--catalogue", type=Path, default=Path(__file__).with_name("catalogue.py"))
    parser.add_argument("--out", type=Path, default=None, help="kill-matrix JSON path")
    args = parser.parse_args(argv)
    repo = args.repo.resolve()
    mutants = load_catalogue(args.catalogue)

    selection = sorted({path for m in mutants for path in m["selection"]})
    with tempfile.TemporaryDirectory(prefix="mutant-baseline-") as scratch:
        copy = Path(scratch) / "repo"
        shutil.copytree(repo, copy, ignore=IGNORED)
        baseline = run_selection(copy, selection)
    if baseline.returncode != 0:
        print(baseline.stdout[-4000:], baseline.stderr[-2000:])
        print("the unmutated selection does not pass; no kill matrix", file=sys.stderr)
        return 2

    rows = []
    for mutant in mutants:
        row = run_mutant(repo, mutant)
        rows.append(row)
        print(
            f"{row['status']:9} {row['name']}: {len(row['killed_by'])} failing "
            f"({row['seconds']} s) {row['detail']}",
            flush=True,
        )
    matrix = {
        "repo": str(repo),
        "env": {k: v for k, v in os.environ.items() if k.startswith("REPRO_")},
        "mutants": rows,
    }
    if args.out is not None:
        args.out.write_text(json.dumps(matrix, indent=2) + "\n")
    bad = [row["name"] for row in rows if row["status"] != "killed"]
    if bad:
        print(f"not killed: {', '.join(bad)}", file=sys.stderr)
        return 1
    print(f"all {len(rows)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
