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


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_reads(path) -> list[str]:
    """Each read of a private attnlab name in one file, as "module._name":
    an attribute of an attnlab module that the file imported (``att._pack``,
    ``attnlab.svm._essential``, or in the package ``from . import svm``),
    a private name imported from one (``from .graph import _levels``), a
    string naming one in a setattr, getattr, delattr or hasattr call, after
    such a module (``monkeypatch.setattr(att, "_loss_and_grad", ...)``) or
    as a dotted path (``"attnlab.attention._pack"``), and a string naming
    one in a tuple or list that holds such a module, after the nearest one
    before it (``("descent", att, "_pack", wrapper)``)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    modules, found = {}, []  # local name -> attnlab module, "" for the package
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "attnlab":
                    modules[alias.asname or "attnlab"] = ".".join(parts[1:]) if alias.asname else ""
        elif isinstance(node, ast.ImportFrom) and (node.level == 1 or (node.level == 0
                                                                        and node.module.split(".")[0] == "attnlab")):
            sub = node.module.split(".")[1 - node.level:] if node.module else []
            for alias in node.names:
                if not sub:
                    modules[alias.asname or alias.name] = alias.name
                elif _private(alias.name):
                    found.append(f"{sub[0]}.{alias.name}")

    def module_of(expr):
        if isinstance(expr, ast.Name):
            return modules.get(expr.id)
        if isinstance(expr, ast.Attribute) and module_of(expr.value) == "":
            return expr.attr
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr) and module_of(node.value) is not None:
            found.append(f"{module_of(node.value) or 'attnlab'}.{node.attr}")
        elif isinstance(node, (ast.Tuple, ast.List)):
            module = None
            for elt in node.elts:
                if module_of(elt) is not None:
                    module = module_of(elt) or "attnlab"
                elif module and isinstance(elt, ast.Constant) and isinstance(elt.value, str) and _private(elt.value):
                    found.append(f"{module}.{elt.value}")
        elif isinstance(node, ast.Call):
            name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
            if name not in ("setattr", "getattr", "delattr", "hasattr"):
                continue
            args = node.args
            for i, arg in enumerate(args):
                if not (isinstance(arg, ast.Constant) and isinstance(arg.value, str)):
                    continue
                parts = arg.value.split(".")
                if i > 0 and module_of(args[i - 1]) is not None and _private(arg.value):
                    found.append(f"{module_of(args[i - 1]) or 'attnlab'}.{arg.value}")
                elif parts[0] == "attnlab" and any(map(_private, parts)):
                    found.append(".".join(parts[1:]))
    return found


# The one adapter between the tests and the private entry points of the
# kernel and of the experiments' trial builds, and the certificate tests,
# which must read internals.
ADAPTER = "helpers.py"
ADAPTED = {"attention._pack", "attention._loss_and_grad", "experiments._KINDS"}
CERTIFICATES = "test_internals.py"


def test_only_the_adapter_and_the_certificate_tests_read_private_names():
    reads = {p.name: private_reads(p) for p in TESTS if p.name not in (ADAPTER, CERTIFICATES)}
    assert {name: found for name, found in reads.items() if found} == {}
    assert set(private_reads(ROOT / "tests" / ADAPTER)) == ADAPTED


def test_private_read_scanner_catches_attributes_imports_and_strings(tmp_path):
    (tmp_path / "test_a.py").write_text(
        "import attnlab.svm\n"
        "from attnlab import attention as att, experiments\n"
        "from attnlab.graph import _closure, build_tpgs\n\n\n"
        "def test_reads(monkeypatch, other):\n"
        "    att.grad(att.__doc__, experiments.run_trials, other._hidden)\n"
        "    att._pack([])\n"
        "    attnlab.svm._essential(None)\n"
        "    monkeypatch.setattr(experiments, \"_trial_worker\", None)\n"
        "    monkeypatch.setattr(att, \"grad\", getattr(att, \"_one\"))\n"
        "    monkeypatch.setattr(\"attnlab.attention._loss_and_grad\", None)\n"
        "    monkeypatch.setattr(other, \"_hidden\", None)\n"
        "    rows = [(\"kkt\", svm, \"solve_graph_svm\"), (\"descent\", att, \"_scores\", None), (\"_x\", other)]\n",
        encoding="utf-8",
    )
    (tmp_path / "test_b.py").write_text(
        "from attnlab import svm\n\n\ndef test_public():\n    return svm.solve_graph_svm, svm.__name__\n",
        encoding="utf-8",
    )
    assert sorted(private_reads(tmp_path / "test_a.py")) == [
        "attention._loss_and_grad", "attention._one", "attention._pack", "attention._scores", "experiments._trial_worker",
        "graph._closure", "svm._essential"]
    assert private_reads(tmp_path / "test_b.py") == []


# The private names a library module reads from another, each with its
# reason; every other cross-module read goes through a public name.
LIBRARY_PRIVATE_READS = {
    "svm.py": {
        "graph._levels": "the d >= K construction reads each node's priority level off the closures that "
                         "graph computed, by the one longest-path rule",
        "graph._product": "the presolve's transitive reduction takes its boolean products as graph's closure "
                          "does, the clipped float32 matmul",
    },
}


def test_no_library_module_reads_another_modules_private_name():
    reads = {p.name: set(private_reads(p)) for p in sorted((ROOT / "src" / "attnlab").glob("*.py"))}
    assert {name: found for name, found in reads.items() if found} == \
        {name: set(allowed) for name, allowed in LIBRARY_PRIVATE_READS.items()}


def test_private_read_scanner_reads_relative_imports(tmp_path):
    (tmp_path / "svm.py").write_text(
        "from . import attention\nfrom .graph import Graph, _levels\n\n\n"
        "def solve(graph):\n    return attention._pack(graph._nodes), _levels, Graph\n",
        encoding="utf-8",
    )
    assert sorted(private_reads(tmp_path / "svm.py")) == ["attention._pack", "graph._levels"]
