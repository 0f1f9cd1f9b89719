"""The mutant catalogue stays applicable to the source it mutates.

Every snippet must occur exactly once in its file and nowhere else in
``src/`` — a refactor that rewrites mutated code fails here until the
catalogue (``tests/mutation/catalogue.py``) follows it.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from catalogue import MUTANTS

ROOT = Path(__file__).resolve().parents[2]
SOURCES = {path: path.read_text() for path in (ROOT / "src").rglob("*.py")}


def test_names_are_unique():
    names = [mutant["name"] for mutant in MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant["name"])
def test_snippet_occurs_exactly_once_in_src(mutant):
    snippet = mutant["snippet"]
    assert snippet != mutant["replacement"]
    assert str(mutant["file"]).startswith("src/")
    counts = {path: text.count(snippet) for path, text in SOURCES.items() if snippet in text}
    assert counts == {ROOT / mutant["file"]: 1}
    for path in mutant["selection"]:
        assert (ROOT / path).is_file(), path
