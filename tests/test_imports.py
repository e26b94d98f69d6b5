"""The library and its tests import only the standard library, numpy,
pytest and the repository's own modules; library modules import only lower
layers; and every public name the library defines is read by the library."""

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


def unread_public_names(package):
    """Public top-level names ("module.name") of the package's modules that
    no module of the package reads: by a bare name in its own module, a name
    imported with ``from .module import name``, or ``module.name`` after
    ``from . import module``."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in sorted(package.glob("*.py"))}
    defined, read = set(), set()
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined |= {(mod, name) for name in names if not name.startswith("_")}
        imported = {}  # local name -> (module, name), or (module, None) for a module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    source = (node.module, alias.name) if node.module else (alias.name, None)
                    imported[alias.asname or alias.name] = source
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(imported.get(node.id, (mod, node.id)))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                source = imported.get(node.value.id)
                if source is not None and source[1] is None:
                    read.add((source[0], node.attr))
    return {f"{mod}.{name}" for mod, name in defined - read}


# The console script of pyproject.toml's [project.scripts].
ENTRY_POINTS = {"cli.main"}
# Public names no library code reads yet.
UNREAD_ALLOWED: set[str] = set()


def test_every_public_library_name_has_a_reader_in_the_library():
    unread = unread_public_names(ROOT / "src" / "attnlab") - ENTRY_POINTS
    assert unread == UNREAD_ALLOWED, f"unread: {sorted(unread - UNREAD_ALLOWED)}, read: {sorted(UNREAD_ALLOWED - unread)}"


def test_unread_name_scanner_reports_an_unread_name(tmp_path):
    (tmp_path / "a.py").write_text(
        "CONST = 1\n\n\ndef used():\n    return _private()\n\n\n"
        "def unused():\n    return 0\n\n\ndef _private():\n    return 2\n",
        encoding="utf-8",
    )
    (tmp_path / "b.py").write_text(
        "from . import a\nfrom .a import used as use\n\n\ndef run():\n    return use() + a.CONST\n",
        encoding="utf-8",
    )
    assert unread_public_names(tmp_path) == {"a.unused", "b.run"}
