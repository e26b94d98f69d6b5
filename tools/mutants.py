"""The mutation matrix: every listed mutant of attnlab must fail Tier-1.

    python tools/mutants.py

Each entry of MUTANTS names a library file, a piece of its source text that
occurs in it exactly once, the text that replaces it, the fault that makes
and a Tier-1 test that the fault fails.  The script copies the working
tree's src/ and tests/, with the files the tests read (tools/, perfbench/,
README.md and pyproject.toml's pytest settings), into a temporary directory
and runs there Tier-1, then each named test alone, all of which must pass.
Then, one mutant at a time, it applies the mutant to a fresh copy of the
file and runs its named test; only if that passes, Tier-1 with -x, less
tests/test_mutants.py.  A mutant that fails a test is killed; one that
passes every test survived.  It prints one verdict a line and exits 1 if
any mutant survived, 2 if the unmutated tree failed.  tests/test_mutants.py
checks that every source text still occurs exactly once and every named
test is collected, so the list cannot rot silently.
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
    test: str         # a Tier-1 test id that the fault fails, run first


# Library file -> its mutants, each a (source, replacement, reason, test) row.
BY_FILE = {
    "src/attnlab/attention.py": [
        ("            g[still], gn[still] = 0.0, 1.0",
         "            gn[still] = 1.0",
         "no zero g for a stopped trial: a frozen or floored trial keeps stepping",
         "tests/test_attention.py::TestTrainBlock::test_non_finite_gradients_fail_only_their_trials"),
        ("            still = ~(alive & (gn > floor)) if config.normalized else ~alive",
         "            still = ~alive",
         "no floor in the stop mask: a floored trial under normalized GD steps along rounding noise",
         "tests/test_attention.py::TestTrainGd::test_all_label_dataset_never_moves"),
        ("out=np.full(np.shape(dot), np.nan), where=norm != 0.0)",
         "out=np.full(np.shape(dot), np.nan))",
         "correlation without its where: a zero norm divides 0 by 0",
         "tests/test_acceptance.py::test_criterion_01_cyclic_global_convergence"),
        ("    np.vecdot(h, ones, out=edge[..., 0])",
         "    np.matmul(h.reshape(-1, h.shape[-1]), ones, out=edge.reshape(-1))",
         "row sums by a 2-D gemv: a stacked trial loses the bits of its own pack",
         "tests/test_attention.py::TestRowSums::test_a_trials_rows_sum_as_alone[8]"),
        ("np.empty(trials), packed.n * GRAD_FLOOR",
         "np.empty(trials), GRAD_FLOOR",
         "the floor test without n: the summed gradient is held to the mean's floor",
         "tests/test_attention.py::TestTrainBlock::test_frozen_and_floored_trials_train_as_alone[local-squared]"),
        ("            np.divide(gn, packed.n, out=cols[\"grad_norm\"][:, row])",
         "            np.copyto(cols[\"grad_norm\"][:, row], gn)",
         "grad_norm without /n: the trace records the summed gradient's norm",
         "tests/test_attention.py::TestTrainBlock::test_a_trial_that_fails_mid_chunk_keeps_the_others_bits"),
        ("            np.add(self.coef[-1], self.off, out=self.square)",
         "            np.copyto(self.square, self.coef[-1])",
         "dist_fin without W_fin's off-S_fin part",
         "tests/test_attention.py::TestStackRefs::test_dist_fin_is_each_trials_distance"),
        ("        for i, s in enumerate(ds.samples):\n            by_len.setdefault(s.T, []).append(i)",
         "        for i, s in sorted(enumerate(ds.samples), key=lambda item: item[1].label):\n"
         "            by_len.setdefault(s.T, []).append(i)",
         "samples ordered by label id: a relabeled vocabulary sums in another order",
         "tests/test_metamorphic.py::test_relabeling_keeps_every_trained_bit[plain]"),
        ("    offset = np.full(toks.shape, -np.inf)",
         "    offset = np.zeros(toks.shape)",
         "W_fin's pad rows at offset 0: they carry softmax mass",
         "tests/test_acceptance.py::test_criterion_12_regularization_path"),
        ("    toks = np.repeat(labels[:, None], max(map(len, split.positions)), axis=1)",
         "    toks = np.zeros((len(samples), max(map(len, split.positions))), dtype=int)",
         "W_fin's pad rows repeat token 0, not the label: they add feature distance",
         "tests/test_attention.py::TestWfinOracles::test_certificate_rederived_sample_by_sample[refs-low-2]"),
        ("            gap = float(g @ z) + radius * math.hypot(*g)",
         "            gap = float(g @ z) + math.hypot(*z) * math.hypot(*g)",
         "a ball point's gap taken at ||z|| in place of the radius",
         "tests/test_acceptance.py::test_criterion_12_regularization_path"),
        ("    lip = max(_lipschitz(g) for g in groups) * (1.0 + slack)",
         "    lip = 0.5 * max(_lipschitz(g) for g in groups) * (1.0 + slack)",
         "half of lip: the ||W|| certificate vouches for scores past SCORE_BOUND",
         "tests/test_attention.py::TestScoreCertificate::test_a_run_past_the_bound_is_certified_once_below_it"),
        ("        w_bound = (w_bound + (config.eta if config.normalized else plain_scale * top)) * grow",
         "        w_bound = w_bound * grow",
         "the ||W|| bound does not grow with a step",
         "tests/test_attention.py::TestScoreCertificate::test_a_certified_call_is_within_the_bound"),
        ("            stored[n:] = 0.0",
         "            stored[n:] = stored[n:]",
         "no zero fill: a scoring's unused slots keep old W's",
         "tests/test_attention.py::TestTrainBlock::test_frozen_and_floored_trials_train_as_alone[plain-failed]"),
        ("            if b not in failures or (tau, rank) < failures[b][0]:",
         "            if b not in failures:",
         "no (step, rank) order in fail: the first failure found stands, not the earliest",
         "tests/test_attention.py::TestTrainBlock::test_a_loss_failure_precedes_a_later_gradient_failure"),
        ("if i // trials == k}, step, 1)",
         "if i // trials == k}, step, 2.5)",
         "loss_bar ranked after the gradient: at one step a gradient failure stands over loss_bar's error",
         "tests/test_attention.py::TestTrainBlock::test_failures_at_one_record_step_keep_their_order[True]"),
        ("    for b, exc in bar_errors.items():\n        errors.setdefault(b, exc)\n",
         "",
         "loss_bar's errors dropped: a trial whose loss_bar underflows trains on with loss_bar 0",
         "tests/test_attention.py::TestTrainBlock::test_a_loss_bar_underflow_fails_its_trial"),
        ("                if kind == LOG:\n                    u = _guarded(u, None, errors)",
         "                if kind == LOG and not grad:\n                    u = _guarded(u, None, errors)",
         "a step skips the log underflow guard: training steps along a gradient of a zero label mass",
         "tests/test_attention.py::TestLoss::test_log_domain_guard"),
    ],
    "src/attnlab/svm.py": [
        ("min_ineq >= 1.0 - PRIMAL_TOL and kkt_residual <= KKT_TOL:",
         "kkt_residual <= KKT_TOL:",
         "the graph-SVM margin check dropped: a W below the unit margin reads SOLVED",
         "tests/test_svm.py::TestPresolve::test_checks_read_every_row"),
        ("    if farkas <= FARKAS_TOL:",
         "    if farkas <= 1e3 * FARKAS_TOL:",
         "the Farkas test 1000x looser: a nearly infeasible set reads INFEASIBLE",
         "tests/test_svm.py::TestPresolve::test_verdicts_match_the_unreduced_solve[pinned-1052]"),
        ("    stationarity -= (eq_basis @ stationarity) @ eq_basis\n",
         "",
         "stationarity not taken modulo the equality span: a cyclic optimum fails its KKT check",
         "tests/test_acceptance.py::test_criterion_01_cyclic_global_convergence"),
        ("        cover[idx, :p, :p] = s & ~_product(s, s)",
         "        cover[idx, :p, :p] = s",
         "a presolve that keeps pairs outside the transitive reduction",
         "tests/test_svm.py::TestPresolve::test_kept_rows_are_the_transitive_reduction"),
        ("                fast = s * ILL_CONDITIONED >= factor.diag[j] and zb < 1.0",
         "                fast = zb < 1.0",
         "no Schur-complement test in the NNLS: the updates add a nearly dependent index",
         "tests/test_svm.py::TestNnls::test_lu_step_for_a_nearly_dependent_index"),
        ("                    enters = z[-1] > 0",
         "                    enters = True",
         "a staged index enters whatever weight LU gives it",
         "tests/test_svm.py::TestNnls::test_staged_index_without_a_positive_weight_is_skipped"),
        ("  # degenerate: j lies in the span of P\n                    enters = False",
         "  # degenerate: j lies in the span of P\n                    raise",
         "a singular staged block raises out of the NNLS",
         "tests/test_svm.py::TestNnls::test_singular_staged_block_is_skipped"),
        ("            iters += 1\n            refactor(z)\n",
         "            iters += 1\n",
         "a failed final check goes on from the refuted factor",
         "tests/test_svm.py::TestNnls::test_failed_final_check_refactors"),
        ("            self.dinv[:p] = np.inf",
         "            self.dinv[:p] = 0.0",
         "a block Cholesky refuses leaves dinv 0: the stale factor is trusted",
         "tests/test_svm.py::TestNnls::test_cholesky_refusal_untrusts_the_factor"),
        ("            if iters >= cap:",
         "            if iters > cap:",
         "the NNLS's inner cap one solve late",
         "tests/test_svm.py::TestNnls::test_inner_cap"),
        ("    while iters < cap:",
         "    while iters <= cap:",
         "the NNLS's outer cap one solve late",
         "tests/test_svm.py::TestNnls::test_outer_cap"),
    ],
    "src/attnlab/graph.py": [
        ("                if tok != src:",
         "                if tok > src:",
         "TPG edges only toward larger token ids",
         "tests/test_acceptance.py::test_criterion_01_cyclic_global_convergence"),
    ],
    "src/attnlab/dataset.py": [
        ("            if _argmax_margin(c, e_table.e) >= ARGMAX_MARGIN:",
         "            if True:",
         "an argmax head built without its margin check",
         "tests/test_dataset.py::TestHeads::test_argmax_unreachable_after_64_draws"),
    ],
    "src/attnlab/experiments.py": [
        ("        if self.workers != 1:",
         "        if False:",
         "a config accepts any worker count, though no pool runs them",
         "tests/test_cli.py::TestExitCodes::test_nonpositive_workers_is_config_error"),
        ("    return _trial_worker(kind, jobs)",
         "    return _trial_worker(kind, jobs[::-1])[::-1]",
         "run_trials runs its jobs in reverse order",
         "tests/test_analysis.py::TestBlockPlan::test_jobs_reach_the_worker_in_planned_blocks[global]"),
        ('violations.append(f"mean dist_local {dl:.4f} > mean dist_global {dg:.4f}")',
         "pass",
         "local-* drops its dist_local > dist_global violation",
         "tests/test_cli.py::TestThresholdViolations::test_local_dist_above_global_is_a_violation"),
        ('violations.append(f"rate bound violated by {worst:.3e}")',
         "pass",
         "rate-check drops its rate-bound violation",
         "tests/test_cli.py::TestThresholdViolations::test_a_gap_above_the_rate_bound_is_a_violation"),
        ('violations.append(f"acyclic trial {t}: corr decreased at radius index {j + 1}")',
         "pass",
         "reg-path drops its corr-decrease violation",
         "tests/test_cli.py::TestThresholdViolations::test_a_reg_path_corr_decrease_is_a_violation"),
        ('violations.append(f"acyclic trial {t}: final corr {corr[-1]:.4f}")',
         "pass",
         "reg-path drops its final-corr violation",
         "tests/test_cli.py::TestThresholdViolations::test_a_reg_path_final_corr_below_its_threshold_is_a_violation"),
        ('violations.append(f"cyclic trial {t}: final fin-distance {dv:.4f}")',
         "pass",
         "reg-path drops its final-distance violation",
         "tests/test_cli.py::TestThresholdViolations::test_a_reg_path_final_distance_above_its_threshold_is_a_violation"),
        ("/ (2 * step)\n    return g\n",
         "/ (2 * step)\n    return attention.grad(w, ds, kind)\n",
         "fd_grad returns the analytic gradient: the gradient check compares it with itself",
         "tests/test_cli.py::TestSelftest::test_canary_fails_property[gradient_check-flipped_grad]"),
        ("            violations += 1",
         "            pass",
         "descent_violations never counts a violation",
         "tests/test_cli.py::TestSelftest::test_canary_fails_property[descent-tripled_grad]"),
        ("            bad += 1",
         "            pass",
         "chord_violations never counts a violation",
         "tests/test_cli.py::TestSelftest::test_canary_fails_property[convexity_chords-negated_loss]"),
        ("    return float(np.linalg.norm(stationarity)), eq, margin",
         "    return 0.0, eq, margin",
         "kkt_terms reads stationarity as 0: a W that is not its multipliers' combination passes",
         "tests/test_cli.py::TestSelftest::test_canary_fails_property[kkt-svm_scaled_above_margin]"),
        ("svm.solve_graph_svm(cons).w - svm.solve_per_last_token(cons).w",
         "svm.solve_graph_svm(cons).w - svm.solve_graph_svm(cons).w",
         "per_token_gap compares the joint W_svm with itself",
         "tests/test_cli.py::TestSelftest::test_canary_fails_property[per_token_reduction-per_token_skipping_last]"),
    ],
}
MUTANTS = [Mutant(path, *row) for path, rows in BY_FILE.items() for row in rows]


def apply(text: str, mutant: Mutant) -> str:
    """text with the mutant's source replaced; its source must occur once."""
    if text.count(mutant.source) != 1:
        raise ValueError(f"{mutant.path}: the source of {mutant.reason!r} occurs {text.count(mutant.source)} times")
    return text.replace(mutant.source, mutant.replacement)


def pytest(tree: Path, *args: str) -> tuple[bool, str]:
    """pytest -x in a copied tree on the given tests, by default Tier-1 less
    tests/test_mutants.py (which no mutated source passes): whether it
    passed, and the first failing test's line."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *(args or ("--ignore", "tests/test_mutants.py"))],
                          cwd=tree, env=env, capture_output=True, text=True)
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
        for args in [(), *dict.fromkeys((m.test,) for m in MUTANTS)]:
            passed, failed = pytest(tree, *args)
            if not passed:
                print(f"the unmutated tree fails {' '.join(args) or 'Tier-1'}: {failed}")
                return 2
        survivors = 0
        for mutant in MUTANTS:
            path = tree / mutant.path
            original = path.read_text(encoding="utf-8")
            path.write_text(apply(original, mutant), encoding="utf-8")
            try:
                passed, failed = pytest(tree, mutant.test)
                if passed:
                    passed, failed = pytest(tree)
            finally:
                path.write_text(original, encoding="utf-8")
            survivors += passed
            print(f"{'SURVIVED' if passed else 'killed  '}  {mutant.reason}" + ("" if passed else f"  [{failed}]"),
                  flush=True)
        print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed in {time.perf_counter() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
