"""The mutation matrix: every listed mutant of attnlab must fail Tier-1.

    python tools/mutants.py

Each entry of MUTANTS names a library file, a piece of its source text that
occurs in it exactly once, the text that replaces it and the fault that
makes.  The script copies the working tree's src/ and tests/, with the
files the tests read (tools/, perfbench/, README.md and pyproject.toml's
pytest settings), into a temporary directory and runs Tier-1 there once
as it is, which must pass.  Then, one mutant at a time, it applies the
mutant to a fresh copy of the file and runs Tier-1 with -x, less
tests/test_mutants.py.  A mutant that fails a test is killed; one that
passes every test survived.  It prints one verdict a line and exits 1 if
any mutant survived, 2 if the unmutated suite failed.
tests/test_mutants.py checks that every source text still occurs exactly
once, so the list cannot rot silently.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "tools", "perfbench", "README.md", "pyproject.toml")


class Mutant(NamedTuple):
    path: str         # relative to the repository root
    source: str       # occurs exactly once in the file
    replacement: str
    reason: str       # the fault it makes


MUTANTS = [
    Mutant("src/attnlab/attention.py",
           "            g[still], gn[still] = 0.0, 1.0",
           "            gn[still] = 1.0",
           "no zero g for a stopped trial: a frozen or floored trial keeps stepping"),
    Mutant("src/attnlab/attention.py",
           "            still = ~(alive & (gn > floor)) if config.normalized else ~alive",
           "            still = ~alive",
           "no floor in the stop mask: a floored trial under normalized GD steps along rounding noise"),
    Mutant("src/attnlab/attention.py",
           "out=np.full(np.shape(dot), np.nan), where=norm != 0.0)",
           "out=np.full(np.shape(dot), np.nan))",
           "correlation without its where: a zero norm divides 0 by 0"),
    Mutant("src/attnlab/attention.py",
           "    np.vecdot(h, ones, out=edge[..., 0])",
           "    np.matmul(h.reshape(-1, h.shape[-1]), ones, out=edge.reshape(-1))",
           "row sums by a 2-D gemv: a stacked trial loses the bits of its own pack"),
    Mutant("src/attnlab/attention.py",
           "np.empty(trials), packed.n * GRAD_FLOOR",
           "np.empty(trials), GRAD_FLOOR",
           "the floor test without n: the summed gradient is held to the mean's floor"),
    Mutant("src/attnlab/attention.py",
           "            np.divide(gn, packed.n, out=cols[\"grad_norm\"][:, row])",
           "            np.copyto(cols[\"grad_norm\"][:, row], gn)",
           "grad_norm without /n: the trace records the summed gradient's norm"),
    Mutant("src/attnlab/attention.py",
           "            np.add(self.coef[-1], self.off, out=self.square)",
           "            np.copyto(self.square, self.coef[-1])",
           "dist_fin without W_fin's off-S_fin part"),
    Mutant("src/attnlab/attention.py",
           "        for i, s in enumerate(ds.samples):\n            by_len.setdefault(s.T, []).append(i)",
           "        for i, s in sorted(enumerate(ds.samples), key=lambda item: item[1].label):\n"
           "            by_len.setdefault(s.T, []).append(i)",
           "samples ordered by label id: a relabeled vocabulary sums in another order"),
    Mutant("src/attnlab/attention.py",
           "    offset = np.full(toks.shape, -np.inf)",
           "    offset = np.zeros(toks.shape)",
           "W_fin's pad rows at offset 0: they carry softmax mass"),
    Mutant("src/attnlab/attention.py",
           "    toks = np.repeat(labels[:, None], max(map(len, split.positions)), axis=1)",
           "    toks = np.zeros((len(samples), max(map(len, split.positions))), dtype=int)",
           "W_fin's pad rows repeat token 0, not the label: they add feature distance"),
    Mutant("src/attnlab/attention.py",
           "            gap = float(g @ z) + radius * math.hypot(*g)",
           "            gap = float(g @ z) + math.hypot(*z) * math.hypot(*g)",
           "a ball point's gap taken at ||z|| in place of the radius"),
    Mutant("src/attnlab/attention.py",
           "    lip = max(_lipschitz(g) for g in groups) * (1.0 + slack)",
           "    lip = 0.5 * max(_lipschitz(g) for g in groups) * (1.0 + slack)",
           "half of lip: the ||W|| certificate vouches for scores past SCORE_BOUND"),
    Mutant("src/attnlab/attention.py",
           "        w_bound = (w_bound + (config.eta if config.normalized else plain_scale * top)) * grow",
           "        w_bound = w_bound * grow",
           "the ||W|| bound does not grow with a step"),
    Mutant("src/attnlab/attention.py",
           "            stored[n:] = 0.0",
           "            stored[n:] = stored[n:]",
           "no zero fill: a scoring's unused slots keep old W's"),
    Mutant("src/attnlab/attention.py",
           "            if b not in failures or (tau, rank) < failures[b][0]:",
           "            if b not in failures:",
           "no (step, rank) order in fail: the first failure found stands, not the earliest"),
    Mutant("src/attnlab/attention.py",
           "if i // trials == k}, step, 1)",
           "if i // trials == k}, step, 2.5)",
           "loss_bar ranked after the gradient: at one step a gradient failure stands over loss_bar's error"),
    Mutant("src/attnlab/attention.py",
           "    for b, exc in bar_errors.items():\n        errors.setdefault(b, exc)\n",
           "",
           "loss_bar's errors dropped: a trial whose loss_bar underflows trains on with loss_bar 0"),
    Mutant("src/attnlab/attention.py",
           "                if kind == LOG:\n                    u = _guarded(u, None, errors)",
           "                if kind == LOG and not grad:\n                    u = _guarded(u, None, errors)",
           "a step skips the log underflow guard: training steps along a gradient of a zero label mass"),
    Mutant("src/attnlab/svm.py",
           "min_ineq >= 1.0 - PRIMAL_TOL and kkt_residual <= KKT_TOL:",
           "kkt_residual <= KKT_TOL:",
           "the graph-SVM margin check dropped: a W below the unit margin reads SOLVED"),
    Mutant("src/attnlab/svm.py",
           "    if farkas <= FARKAS_TOL:",
           "    if farkas <= 1e3 * FARKAS_TOL:",
           "the Farkas test 1000x looser: a nearly infeasible set reads INFEASIBLE"),
    Mutant("src/attnlab/svm.py",
           "    stationarity -= (eq_basis @ stationarity) @ eq_basis\n",
           "",
           "stationarity not taken modulo the equality span: a cyclic optimum fails its KKT check"),
    Mutant("src/attnlab/svm.py",
           "        cover[idx, :p, :p] = s & ~_product(s, s)",
           "        cover[idx, :p, :p] = s",
           "a presolve that keeps pairs outside the transitive reduction"),
    Mutant("src/attnlab/graph.py",
           "                if tok != src:",
           "                if tok > src:",
           "TPG edges only toward larger token ids"),
    Mutant("src/attnlab/dataset.py",
           "            if _argmax_margin(c, e_table.e) >= ARGMAX_MARGIN:",
           "            if True:",
           "an argmax head built without its margin check"),
    Mutant("src/attnlab/experiments.py",
           "        if self.workers != 1:",
           "        if False:",
           "a config accepts any worker count, though no pool runs them"),
    Mutant("src/attnlab/experiments.py",
           "    return _trial_worker((kind, jobs))",
           "    return _trial_worker((kind, jobs[::-1]))[::-1]",
           "run_trials runs its jobs in reverse order"),
    Mutant("src/attnlab/experiments.py",
           'violations.append(f"mean dist_local {dl:.4f} > mean dist_global {dg:.4f}")',
           "pass",
           "local-* drops its dist_local > dist_global violation"),
    Mutant("src/attnlab/experiments.py",
           'violations.append(f"rate bound violated by {worst:.3e}")',
           "pass",
           "rate-check drops its rate-bound violation"),
    Mutant("src/attnlab/experiments.py",
           'violations.append(f"acyclic trial {t}: corr decreased at radius index {j + 1}")',
           "pass",
           "reg-path drops its corr-decrease violation"),
    Mutant("src/attnlab/experiments.py",
           'violations.append(f"acyclic trial {t}: final corr {corr[-1]:.4f}")',
           "pass",
           "reg-path drops its final-corr violation"),
    Mutant("src/attnlab/experiments.py",
           'violations.append(f"cyclic trial {t}: final fin-distance {dv:.4f}")',
           "pass",
           "reg-path drops its final-distance violation"),
]


def apply(text: str, mutant: Mutant) -> str:
    """text with the mutant's source replaced; its source must occur once."""
    if text.count(mutant.source) != 1:
        raise ValueError(f"{mutant.path}: the source of {mutant.reason!r} occurs {text.count(mutant.source)} times")
    return text.replace(mutant.source, mutant.replacement)


def tier1(tree: Path) -> tuple[bool, str]:
    """Tier-1 with -x in a copied tree: whether it passed, and the first
    failing test's line."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    # tests/test_mutants.py would fail on any mutant, whose source it no
    # longer finds, so it is left out of every run.
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           "--ignore", "tests/test_mutants.py"], cwd=tree, env=env, capture_output=True, text=True)
    failed = next((line for line in done.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))), "")
    return done.returncode == 0, failed


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="attnlab-mutants-") as tmp:
        tree = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, tree / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, tree / name)
        start = time.perf_counter()
        passed, failed = tier1(tree)
        if not passed:
            print(f"the unmutated suite fails: {failed}")
            return 2
        survivors = 0
        for mutant in MUTANTS:
            path = tree / mutant.path
            original = path.read_text(encoding="utf-8")
            path.write_text(apply(original, mutant), encoding="utf-8")
            try:
                passed, failed = tier1(tree)
            finally:
                path.write_text(original, encoding="utf-8")
            survivors += passed
            print(f"{'SURVIVED' if passed else 'killed  '}  {mutant.reason}" + ("" if passed else f"  [{failed}]"),
                  flush=True)
        print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed in {time.perf_counter() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
