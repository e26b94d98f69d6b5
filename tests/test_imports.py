"""The library and its tests import only the standard library, numpy,
pytest and the repository's own modules."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = sorted((ROOT / "tests").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "pytest", "attnlab"} | {p.stem for p in TESTS}


def imported_modules(path):
    """Top-level names of the absolute imports in one file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_only_stdlib_numpy_pytest_and_own_modules():
    sources = sorted((ROOT / "src" / "attnlab").glob("*.py")) + TESTS
    assert len(sources) > len(TESTS)
    foreign = {str(p.relative_to(ROOT)): sorted(set(imported_modules(p)) - ALLOWED) for p in sources}
    assert {path: names for path, names in foreign.items() if names} == {}
