"""The mutant list of ``tests/mutants.py`` stays applicable: each
mutant's old text occurs exactly once in ``src/``, so a refactor that
moves or rewrites that code fails here instead of silently leaving a
mutant that no longer mutates anything.  The kill run itself is the
script's, not this suite's."""

import importlib.util
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "mutants", Path(__file__).resolve().parent / "mutants.py")
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m[3])
def test_mutant_old_text_occurs_once_in_src(mutant):
    name, old, new, _ = mutant
    assert old != new
    assert (mutants.SRC / name).read_text().count(old) == 1
    assert mutants.occurrences(old) == 1
