"""Artifact equivalence between the working tree and a git revision.

    python tools/equiv.py BASE [--smoke]

Checks BASE out of the local repository (``git archive``, no network) into
a temporary directory, then runs the same commands on both trees, each with
its own ``src`` on PYTHONPATH:

- every ``attnlab exp`` at ``--seed 0``, run twice;
- ``selftest --seed 0`` and ``--seed 1``;
- ``gen-data``, ``build-graph``, ``solve-svm``, ``train`` and ``analyze``
  on a generated dataset;
- ``tools/verdicts.py`` from the working tree, which writes the graph-SVM
  verdicts (status, sweeps, kept rows and ``W_svm``) on its corpus of
  instances, so a status that changes reads DIFFERENT.

Each command's stdout, stderr and exit code are kept beside its files.
Every file is then compared across the trees and reported on one line:
``identical``, ``numeric`` (only numbers differ; the largest relative
difference is given, with where it sits: its line, its CSV column or the
JSON key before it, and both values) or ``DIFFERENT`` (text, layout or file
set differ).  A rollup line per top-level directory (``exp/<name>``,
``selftest``, ``tools``, ``verdicts``) follows: its counts of each verdict,
its largest relative difference and the file and place it sits in, and
whether every ``.exit`` file in it is identical.
A changed ``.exit`` file, an exit code, reads DIFFERENT.  Within each
tree, an experiment's two runs must write byte-identical files.  The exit
status is 1 on a DIFFERENT file or a mismatch between two runs, else 0.
Every command line is one that BASE's CLI accepts too.

``--smoke`` runs two trials of each experiment with short training, and
the verdict corpus without its 600 draws, so CI can run it against HEAD in
about a minute.  ``train``'s ``wall_ms``, a wall-clock time, is dropped
before comparing.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

EXPERIMENTS = ("acyclic-global", "cyclic-global", "feasibility", "large-k", "local-ce", "local-squared",
               "rate-check", "reg-path", "scc-count")

# --smoke: two trials, and overrides that keep each experiment short.  The
# global runs store 21 records, more than one scoring of RECORD_CHUNK takes
# and not a multiple of it, so a full chunk and a shorter last one both
# reach the compared bytes (tests/test_equiv.py holds this).  The local-*
# runs take 1,000 steps: both seed-0 trials stop at GRAD_FLOOR by step 650,
# so the zero step of a trial that stops moving beside one that still moves
# reaches them too (tests/test_attention.py holds this).
SMOKE_SETS = {
    "acyclic-global": ["iters=200"],
    "cyclic-global": ["iters=200"],
    "feasibility": ["iters=200", "d_grid=[2,4]"],
    "large-k": ["iters=50", "record_every=10"],
    "local-ce": ["iters=1000"],
    "local-squared": ["iters=1000"],
    "rate-check": ["iters=1000"],
    "reg-path": ["r_count=3"],
    "scc-count": ["n_grid=[32,256]"],
}

GEN = ["gen-data", "--K", "6", "--d", "8", "--n", "6", "--T", "4", "--seed", "0", "--out", "data.json"]
TOOLS = (
    ("gen-data", GEN),
    ("build-graph", ["build-graph", "--data", "data.json", "--out", "graphs.json", "--dot", "graphs.dot"]),
    ("solve-svm", ["solve-svm", "--data", "data.json", "--out", "svm.json"]),
    ("train", ["train", "--data", "data.json", "--eta", "0.01", "--iters", "1000", "--normalized",
               "--seed", "0", "--trace", "trace.csv", "--summary", "train.json"]),
    ("analyze", ["analyze", "--trace", "trace.csv", "--out", "report.json"]),
)

JSON_KEY = re.compile(r'"([^"\\]*)"\s*:')
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|-?\binf\b|\bnan\b|-?Infinity|NaN)")


CLI = ["-m", "attnlab.cli"]
RUNS = ("run1", "run2")  # each experiment's two runs, which must write the same bytes


def run(tree: Path, cwd: Path, name: str, args: list[str], program: list[str] = CLI) -> None:
    """One Python program, by default the attnlab CLI, in cwd with tree's
    src on the path; its stdout, stderr and exit code go to name.stdout,
    name.stderr and name.exit there."""
    cwd.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    done = subprocess.run([sys.executable, *program, *args], cwd=cwd, env=env,
                          capture_output=True, text=True)
    (cwd / f"{name}.stdout").write_text(done.stdout)
    (cwd / f"{name}.stderr").write_text(done.stderr)
    (cwd / f"{name}.exit").write_text(f"{done.returncode}\n")


def run_all(tree: Path, out: Path, smoke: bool) -> None:
    for name in EXPERIMENTS:
        extra = ["--trials", "2"] + [a for kv in SMOKE_SETS[name] for a in ("--set", kv)] if smoke else []
        for k in RUNS:
            run(tree, out / "exp" / name / k, "exp", ["exp", name, "--seed", "0", "--out", ".", *extra])
    for seed in (0, 1):
        run(tree, out / "selftest", f"seed{seed}", ["selftest", "--seed", str(seed)])
    for name, args in TOOLS:
        run(tree, out / "tools", name, args)
    run(tree, out / "verdicts", "verdicts", ["verdicts.json", *(["--smoke"] if smoke else [])],
        program=[str(ROOT / "tools" / "verdicts.py")])
    summary = out / "tools" / "train.json"
    if summary.exists():
        payload = json.loads(summary.read_text())
        payload.pop("wall_ms", None)
        summary.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def files(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def compare(a: bytes, b: bytes) -> tuple[str, float, str]:
    """('identical', 0, ''), ('numeric', max relative difference, where it
    sits (`locate`)) when only the numbers differ, or ('DIFFERENT', nan,
    '')."""
    if a == b:
        return "identical", 0.0, ""
    try:
        pa, pb = NUMBER.split(a.decode()), NUMBER.split(b.decode())
    except UnicodeDecodeError:
        return "DIFFERENT", math.nan, ""
    # split with one group alternates text and number: numbers at odd indices.
    if len(pa) != len(pb) or pa[0::2] != pb[0::2]:
        return "DIFFERENT", math.nan, ""
    worst, at = 0.0, None
    for i in range(1, len(pa), 2):
        u, v = float(pa[i].replace("Infinity", "inf")), float(pb[i].replace("Infinity", "inf"))
        if u == v or (math.isnan(u) and math.isnan(v)):
            continue
        if not (math.isfinite(u) and math.isfinite(v)):
            return "DIFFERENT", math.nan, ""
        rel = abs(u - v) / max(abs(u), abs(v))
        if rel > worst:
            worst, at = rel, i
    return "numeric", worst, "" if at is None else locate(pa, pb, at)


def locate(pa: list[str], pb: list[str], i: int) -> str:
    """Where number i of two `NUMBER.split` texts of one layout sits, and
    both its values: its line, then the CSV column its cell is in (a file
    whose first line has a comma) or else the last JSON key before it."""
    before = "".join(pa[:i])
    line = before.count("\n") + 1
    header = "".join(pa).split("\n", 1)[0].split(",")
    place = f"line {line}"
    if len(header) > 1 and line > 1:
        column = before[before.rfind("\n") + 1:].count(",")
        place += f", column {header[column] if column < len(header) else column}"
    elif keys := JSON_KEY.findall(before):
        place += f", key {keys[-1]}"
    return f"{place}: {pa[i]} -> {pb[i]}"


def compare_trees(base: Path, work: Path) -> dict[str, tuple[str, float, str]]:
    """`compare`'s verdict on every file of either output tree, by relative
    path.  A file missing from one tree is DIFFERENT, and so is a changed
    .exit file: an exit code is not a measurement that may move."""
    verdicts = {}
    for rel in sorted(files(base) | files(work)):
        pa, pb = base / rel, work / rel
        if pa.is_file() and pb.is_file():
            verdicts[rel] = compare(pa.read_bytes(), pb.read_bytes())
        else:
            verdicts[rel] = ("DIFFERENT", math.nan, "")
        if rel.endswith(".exit") and verdicts[rel][0] == "numeric":
            verdicts[rel] = ("DIFFERENT", math.nan, "")
    return verdicts


def rollup(verdicts: dict[str, tuple[str, float, str]]) -> list[str]:
    """One line per top-level directory of the outputs, an experiment's
    being exp/<name>: the count of each verdict, the largest relative
    difference of its numeric files with the file and place it sits in,
    and whether every .exit file in it is identical."""
    groups: dict[str, list[tuple[str, str, float, str]]] = {}
    for rel, (verdict, rel_diff, where) in verdicts.items():
        parts = rel.split("/")
        groups.setdefault("/".join(parts[:2]) if parts[0] == "exp" else parts[0], []).append(
            (rel, verdict, rel_diff, where))
    lines = []
    for name, rows in sorted(groups.items()):
        counts = collections.Counter(verdict for _, verdict, _, _ in rows)
        numeric = [(rel_diff, rel, where) for rel, verdict, rel_diff, where in rows if verdict == "numeric"]
        worst, rel, where = max(numeric, default=(0.0, "", ""))
        exits = all(verdict == "identical" for rel, verdict, _, _ in rows if rel.endswith(".exit"))
        at = f" at {rel} {where}" if worst else ""
        lines.append(f"ROLLUP     {name}: {counts['identical']} identical, {counts['numeric']} numeric, "
                     f"{counts['DIFFERENT']} DIFFERENT, max rel diff {worst:.2e}{at}, "
                     f"every .exit {'identical' if exits else 'NOT identical'}")
    return lines


def run_mismatches(out: Path) -> list[str]:
    """Experiment files whose two runs differ in any byte."""
    bad = []
    for name in EXPERIMENTS:
        r1, r2 = (out / "exp" / name / k for k in RUNS)
        for rel in sorted(files(r1) | files(r2)):
            p1, p2 = r1 / rel, r2 / rel
            if not (p1.is_file() and p2.is_file() and p1.read_bytes() == p2.read_bytes()):
                bad.append(f"exp/{name}/{rel}")
    return bad


def checkout(rev: str, dest: Path) -> None:
    """The files of rev, from the local repository."""
    dest.mkdir()
    archive = dest.parent / "base.tar"
    subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", "--output", str(archive), rev],
                   capture_output=True, check=True)
    subprocess.run(["tar", "-xf", str(archive), "-C", str(dest)], capture_output=True, check=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", help="git revision to compare the working tree against")
    parser.add_argument("--smoke", action="store_true", help="two short trials per experiment")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="attnlab-equiv-") as tmp:
        tmp = Path(tmp)
        base = tmp / "base"
        try:
            checkout(args.base, base)
        except subprocess.CalledProcessError as exc:
            print(f"cannot check out {args.base}: {exc.stderr.decode().strip()}", file=sys.stderr)
            return 2
        outs = {"base": tmp / "out-base", "work": tmp / "out-work"}
        run_all(base, outs["base"], args.smoke)
        run_all(ROOT, outs["work"], args.smoke)

        verdicts = compare_trees(outs["base"], outs["work"])
        counts = collections.Counter(verdict for verdict, _, _ in verdicts.values())
        for rel, (verdict, rel_diff, where) in verdicts.items():
            note = f"  max rel diff {rel_diff:.2e}" + (f" at {where}" if where else "") if verdict == "numeric" else ""
            note += "" if (outs["base"] / rel).is_file() else "  (only in the working tree)"
            note += "" if (outs["work"] / rel).is_file() else f"  (only in {args.base})"
            print(f"{verdict:<10} {rel}{note}")
        for line in rollup(verdicts):
            print(line)
        mismatches = {tree: run_mismatches(out) for tree, out in outs.items()}
        for tree, bad in mismatches.items():
            for rel in bad:
                print(f"RERUN      {tree}: {rel} differs between two runs")
    print(f"{counts['identical']} identical, {counts['numeric']} numeric, {counts['DIFFERENT']} different; "
          f"two runs: {sum(map(len, mismatches.values()))} mismatched files")
    return 1 if counts["DIFFERENT"] or any(mismatches.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
