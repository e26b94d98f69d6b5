"""tools/mutants.py's mutation matrix stays applicable: every mutant's
source text occurs exactly once in its file and the mutated file parses, so
each mutant is the fault it names, and every test a mutant names is collected."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import load_tool

mutants = load_tool("mutants")
ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=[m.reason.split(":")[0] for m in mutants.MUTANTS])
def test_every_mutant_applies_once_and_parses(mutant):
    text = (ROOT / mutant.path).read_text(encoding="utf-8")
    assert text.count(mutant.source) == 1
    assert mutant.replacement != mutant.source and mutant.reason
    ast.parse(mutants.apply(text, mutant))


def test_apply_refuses_a_source_that_is_not_there_once():
    mutant = mutants.Mutant("f.py", "x = 1", "x = 2", "a fault", "tests/test_f.py::test_f")
    assert mutants.apply("y = 0\nx = 1\n", mutant) == "y = 0\nx = 2\n"
    for text in ("y = 0\n", "x = 1\nx = 1\n"):
        with pytest.raises(ValueError, match="occurs"):
            mutants.apply(text, mutant)


def test_every_named_test_is_collected():
    named = sorted({m.test for m in mutants.MUTANTS})
    done = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *named],
                          cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, capture_output=True, text=True)
    assert sorted(set(done.stdout.splitlines()) & set(named)) == named, done.stdout + done.stderr
