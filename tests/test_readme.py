"""README.md's Library quick start and CLI walk-through run as written."""

import re
import shlex
from pathlib import Path

from attnlab import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_library_quick_start_runs():
    blocks = _blocks("python")
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_cli_walk_through_runs(tmp_path, monkeypatch):
    # The sh block that starts at gen-data: each command, continuation lines
    # joined and comments dropped, exits 0 in a fresh directory.
    (block,) = [b for b in _blocks("sh") if "attnlab gen-data" in b]
    commands = [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()]
    commands = [argv for argv in commands if argv]
    assert [argv[:2] for argv in commands] == [["attnlab", name] for name in
                                               ("gen-data", "build-graph", "solve-svm", "train", "analyze")]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv[1:]) == 0, argv


ROW_WORDS = 80


def test_each_module_row_states_its_contract_in_at_most_80_words():
    # One row per library module in "What's inside", each a short
    # statement of what the module computes and guarantees; mechanism
    # lives in docstrings.
    rows = re.findall(r"^\| `attnlab\.(\w+)` \|(.*)\|$", README.read_text(encoding="utf-8"), re.M)
    modules = {p.stem for p in (README.parent / "src" / "attnlab").glob("*.py")} - {"__init__", "errors", "util"}
    assert {name for name, _ in rows} == modules
    # The words of a row: its module's name and its text.
    assert {name: n for name, text in rows if (n := 1 + len(text.split())) > ROW_WORDS} == {}
