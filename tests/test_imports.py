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


# Each library module imports only modules of a lower layer.
LAYERS = {"util": 0, "errors": 0, "dataset": 1, "graph": 2, "svm": 3, "attention": 4, "analysis": 5,
          "experiments": 6, "cli": 7}


def own_modules_imported(path):
    """attnlab modules one file imports, at any depth of its syntax tree."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["attnlab" if node.level else "", node.module]))
            names = [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for parts in (name.split(".") for name in names):
            if parts[0] == "attnlab" and len(parts) > 1:
                yield parts[1]


def test_library_modules_import_only_lower_layers():
    modules = sorted(p for p in (ROOT / "src" / "attnlab").glob("*.py") if p.stem != "__init__")
    assert {p.stem for p in modules} == set(LAYERS)
    upward = {p.stem: sorted(m for m in set(own_modules_imported(p)) if LAYERS[m] >= LAYERS[p.stem])
              for p in modules}
    assert {name: found for name, found in upward.items() if found} == {}
