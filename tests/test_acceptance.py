"""Acceptance suite: one test per criterion, tolerances pinned.

Each test prints a single PASS/FAIL line (run with -s to watch).  Thresholds
match the scaled benchmarks exactly; nothing is deferred to calibration.

Criteria 03, 04, 06, 08 and 09 call the measure a selftest property calls
(`experiments.descent_violations`, `chord_violations`, `kkt_terms`,
`per_token_gap`, `fd_grad`), each at its own draws, counts and tolerance.
"""

import numpy as np
import pytest

from attnlab import attention as att, dataset as dsm, experiments, graph as gm, svm
from attnlab.util import seeded_rng

from helpers import (
    active_set_oracle,
    einsum_grad,
    extended,
    forbid_the_solver,
    generator_rows,
    partition_by_mutual_reachability,
    random_tpg,
    tiny_instance,
)

def _report(num, name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}: {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _exp(tmp_path, name, seed, trials=0, **overrides):
    config = experiments.ExperimentConfig(
        name=name,
        params=overrides,
        thresholds={},
        seed=seed,
        trials=trials,
        output_dir=str(tmp_path / name),
    )
    return experiments.run_experiment(config)


def test_criterion_01_cyclic_global_convergence(tmp_path):
    code, summary = _exp(tmp_path, "cyclic-global", seed=0, trials=20)
    ok = code == 0 and summary["mean_corr"] >= 0.95 and summary["mean_dist"] <= 0.05
    _report(1, "cyclic global convergence", ok,
            f"mean corr {summary['mean_corr']:.4f} (>= 0.95), "
            f"mean dist {summary['mean_dist']:.4f} (<= 0.05), 20 seeds")


def test_criterion_02_acyclic_convergence(tmp_path):
    code, summary = _exp(tmp_path, "acyclic-global", seed=0, trials=20)
    ok = code == 0 and summary["mean_corr"] >= 0.97
    _report(2, "acyclic convergence", ok,
            f"mean corr {summary['mean_corr']:.4f} (>= 0.97), 20 seeds")


def test_criterion_03_descent_lemma():
    steps = 500
    violations = sum(experiments.descent_violations(tiny_instance(seed, K=5, d=6, n=4, T=4), steps)
                     for seed in range(20))
    _report(3, "descent lemma", violations == 0,
            f"{violations} violations over 20 instances x {steps} steps at eta = 1/L")


def test_criterion_04_convexity(cyclic_pipeline):
    ds = cyclic_pipeline.dataset
    rng = seeded_rng(4)
    chord_bad = experiments.chord_violations(ds, rng, 1000, (0.02, 0.98))
    # Strict convexity on S_fin: well-separated pairs have a real chord gap.
    fin = cyclic_pipeline.s_fin
    assert fin.dim >= 1
    min_gap = np.inf
    for _ in range(50):
        c1 = rng.standard_normal(fin.dim)
        c2 = rng.standard_normal(fin.dim)
        w1 = np.tensordot(c1, fin.basis, axes=1)
        w2 = np.tensordot(c2, fin.basis, axes=1)
        if np.linalg.norm(w1 - w2) < 0.1:
            continue
        mid = att.loss(0.5 * (w1 + w2), ds, att.LOG)
        gap = 0.5 * att.loss(w1, ds, att.LOG) + 0.5 * att.loss(w2, ds, att.LOG) - mid
        min_gap = min(min_gap, gap)
    ok = chord_bad == 0 and min_gap >= 1e-8
    _report(4, "convexity", ok,
            f"{chord_bad} chord violations over 1000 triples; "
            f"min strict gap {min_gap:.2e} (>= 1e-8)")


def test_criterion_05_negative_correlation():
    rng = seeded_rng(5)
    checked = 0
    worst = -np.inf
    seed = 0
    while checked < 200:
        ds = tiny_instance(seed := seed + 1, K=5, d=6, n=4, T=4)
        pipe = experiments.build_pipeline(ds)
        if pipe.solution.norm == 0:
            continue
        for _ in range(20):
            w = 2.0 * rng.standard_normal((ds.d, ds.d))
            val = float(np.sum(att.grad(w, ds, att.LOG) * pipe.w_svm))
            worst = max(worst, val)
            checked += 1
    _report(5, "negative correlation", worst < 0.0,
            f"max <grad, W_svm> = {worst:.3e} over {checked} random W (< 0)")


def test_criterion_06_svm_correctness():
    n_solved = 0
    worst_kkt = 0.0
    worst_eq = 0.0
    worst_ineq = np.inf
    worst_orth = 0.0
    oracle_checked = 0
    worst_oracle_norm = 0.0
    worst_oracle_cons = 0.0
    for seed in range(200):
        ds = tiny_instance(seed, K=4, d=4 + seed % 3, n=3, T=3)
        cons = experiments.Pipeline(ds).constraints
        sol = svm.solve_graph_svm(cons)
        if cons.n_constraints == 0:
            continue
        assert sol.status is svm.SolveStatus.SOLVED
        n_solved += 1
        stationarity, eq, margin = experiments.kkt_terms(cons, sol)
        worst_kkt, worst_eq, worst_ineq = max(worst_kkt, stationarity), max(worst_eq, eq), min(worst_ineq, margin)
        fin = svm.fin_subspace(cons)
        if fin.dim:
            worst_orth = max(
                worst_orth,
                float(np.max(np.abs(fin.basis.reshape(fin.dim, -1) @ sol.w.ravel()))),
            )
        if cons.n_constraints <= 20:
            e = ds.embedding.e
            eq_vecs = generator_rows(cons.equalities, e)
            in_vecs = generator_rows(cons.inequalities, e)
            w_oracle = active_set_oracle(eq_vecs, in_vecs).reshape(ds.d, ds.d)
            worst_oracle_norm = max(
                worst_oracle_norm, abs(sol.norm - float(np.linalg.norm(w_oracle)))
            )
            worst_oracle_cons = max(
                worst_oracle_cons, float(np.max(np.abs(np.vstack([eq_vecs, in_vecs]) @ (sol.w - w_oracle).ravel())))
            )
            oracle_checked += 1
    ok = (
        worst_kkt <= 1e-5
        and worst_eq <= 1e-6
        and worst_ineq >= 1 - 1e-6
        and worst_orth <= 1e-8
        and worst_oracle_norm <= 1e-5
        and worst_oracle_cons <= 1e-5
        and oracle_checked >= 100
    )
    _report(6, "svm correctness", ok,
            f"{n_solved} instances solved; kkt {worst_kkt:.1e} (<= 1e-5), "
            f"eq {worst_eq:.1e}, ineq {worst_ineq:.6f}, orth {worst_orth:.1e} (<= 1e-8); "
            f"oracle on {oracle_checked}: |norm diff| {worst_oracle_norm:.1e}, "
            f"|cons diff| {worst_oracle_cons:.1e} (<= 1e-5)")


def test_criterion_07_feasibility(tmp_path, monkeypatch):
    certified = 0
    with monkeypatch.context() as patch:
        # Every verdict counted is the d >= K construction's own.
        forbid_the_solver(patch)
        for seed in range(100):
            K = 3 + seed % 4
            d = K + seed % 3
            ds = tiny_instance(seed + 700, K=K, d=d, n=4, T=4)
            pipe = experiments.Pipeline(ds)
            cons, result = pipe.constraints, pipe.feasibility
            if result.status is svm.SolveStatus.SOLVED:
                e = ds.embedding.e
                eq_ok = all(abs((e[i] - e[j]) @ result.w @ e[k]) <= 1e-6 for i, j, k in cons.equalities)
                in_ok = all((e[i] - e[j]) @ result.w @ e[k] >= 1 - 1e-6 for i, j, k in cons.inequalities)
                certified += eq_ok and in_ok
    code, summary = _exp(tmp_path, "feasibility", seed=0, trials=3, d_grid=[2, 4, 8])
    at_k = summary["proportion_at_K"]
    ok = certified == 100 and code == 0 and abs(at_k - 1.0) <= 0.02
    _report(7, "feasibility", ok,
            f"certificates verified {certified}/100; sweep proportion at d=K "
            f"{at_k:.4f} (1.0 +- 0.02)")


def test_criterion_08_per_token_reduction():
    worst = 0.0
    for seed in range(50):
        K = 5 + seed % 3
        table = dsm.make_embeddings(K, K + seed % 2, dsm.ORTHONORMAL, seed=seed)
        head = dsm.make_head(table, dsm.TIED)
        ds = dsm.gen_dataset(table, head, n=4, T=4, mode="cyclic", seed=seed)
        worst = max(worst, experiments.per_token_gap(ds))
    _report(8, "per-last-token reduction", worst <= 1e-6,
            f"max |W_joint - sum_k W_k| = {worst:.2e} over 50 orthonormal instances (<= 1e-6)")


def test_criterion_09_gradient_correctness():
    rng = seeded_rng(9)
    worst_fd = 0.0
    for case in range(50):
        kind = [att.LOG, att.SQUARED, att.CROSS_ENTROPY][case % 3]
        # The log loss needs nonnegative scores, which the tied head gives.
        head_kind = dsm.TIED if (case % 2 == 0 or kind == att.LOG) else dsm.GENERAL_ARGMAX
        ds = tiny_instance(case, K=3, d=4, n=3, T=3, head_kind=head_kind)
        w = 0.7 * rng.standard_normal((4, 4))
        fd = experiments.fd_grad(w, ds, kind)
        worst_fd = max(worst_fd, float(np.linalg.norm(att.grad(w, ds, kind) - fd) / max(np.linalg.norm(fd), 1e-10)))
    worst_paths = 0.0
    for seed in range(20):
        ds = tiny_instance(seed + 900, K=4, d=5, n=4, T=4, head_kind=dsm.TIED)
        w = rng.standard_normal((5, 5))
        general = einsum_grad(w.astype(np.longdouble), extended([ds]), att.LOG, reduced_log=False)  # long double
        worst_paths = max(worst_paths, float(np.max(np.abs(att.grad(w, ds, att.LOG) - general))))
    ok = worst_fd < 1e-5 and worst_paths <= 1e-12
    _report(9, "gradient correctness", ok,
            f"max FD rel err {worst_fd:.2e} (< 1e-5) over 50 cases; "
            f"reduced vs general {worst_paths:.2e} (<= 1e-12)")


def test_criterion_10_scc_oracle():
    rng = seeded_rng(10)
    mismatches = 0
    for _ in range(500):
        n_nodes = int(rng.integers(1, 13))
        g = random_tpg(rng, n_nodes, float(rng.uniform(0.03, 0.6)))
        got = sorted(sorted(c) for c in gm.decompose_all({0: g})[0].components)
        want = sorted(sorted(c) for c in partition_by_mutual_reachability(g.nodes, g.edge_list()))
        mismatches += got != want
    _report(10, "scc oracle", mismatches == 0,
            f"{mismatches} partition mismatches over 500 graphs <= 12 nodes")


def test_criterion_11_rate_bound(tmp_path):
    # The default block of 8 draws.  At least one must have a nonzero W_fin,
    # so that the bound's finite-component terms are exercised.
    code, summary = _exp(tmp_path, "rate-check", seed=0)
    rows = np.loadtxt(tmp_path / "rate-check" / "aggregate.csv", delimiter=",", skiprows=1, ndmin=2)
    draws = summary["draws"]
    ok = (
        code == 0
        and len(draws) == 8
        and sorted(set(rows[:, 0])) == list(range(8))
        and bool(np.all(rows[:, 2] <= rows[:, 3]))
        and summary["nonzero_w_fin_draws"] >= 1
    )
    _report(11, "rate bound", ok,
            f"max(gap - bound) = {summary['max_gap_minus_bound']:.3e} (<= 0), max gap/bound "
            f"{summary['max_gap_over_bound']:.3f}, over {len(rows)} recorded taus up to 1e5 of {len(draws)} draws "
            f"at eta {summary['eta']!r}; {summary['nonzero_w_fin_draws']} draws with a nonzero W_fin (>= 1); "
            f"xi {min(d['xi'] for d in draws):.3f}..{max(d['xi'] for d in draws):.3f}")


def test_criterion_12_regularization_path(tmp_path):
    code, summary = _exp(tmp_path, "reg-path", seed=0, trials=5)
    ok = (
        code == 0
        and summary["mean_final_corr_acyclic"] >= 0.95
        and summary["mean_final_dist_cyclic"] <= 0.1
        and not summary["violations"]
    )
    _report(12, "regularization path", ok,
            f"acyclic final corr {summary['mean_final_corr_acyclic']:.4f} (>= 0.95, "
            f"monotone after 3 radii); cyclic final fin-dist "
            f"{summary['mean_final_dist_cyclic']:.2e} (<= 0.1)")


def test_criterion_13_zero_svm_stasis():
    worst_drift = 0.0
    for seed in range(3):
        ds = experiments.single_scc_dataset(seed=seed)
        pipe = experiments.build_pipeline(ds)
        assert pipe.solution.norm == 0.0
        eta = 1.0 / att.lipschitz_log(ds)
        rng = seeded_rng(13, seed)
        w0 = 0.5 * rng.standard_normal((ds.d, ds.d))
        perp0 = pipe.s_fin.project_out(w0)
        w = w0.copy()
        for tau in range(1, 1501):
            w = w - eta * att.grad(w, ds, att.LOG)
            if tau % 100 == 0:
                drift = float(np.linalg.norm(pipe.s_fin.project_out(w) - perp0))
                worst_drift = max(worst_drift, drift)
    _report(13, "zero-svm stasis", worst_drift <= 1e-9,
            f"max perp drift {worst_drift:.2e} across training (<= 1e-9), 3 datasets")


def test_criterion_14_local_convergence(tmp_path):
    code, summary = _exp(tmp_path, "local-squared", seed=0, trials=20)
    cl, cg = summary["mean_corr_local"], summary["mean_corr_global"]
    dl, dg = summary["mean_dist_local"], summary["mean_dist_global"]
    ok = code == 0 and cl >= cg and dl <= dg
    _report(14, "local convergence (ordinal)", ok,
            f"mean corr local {cl:.4f} >= global {cg:.4f}; "
            f"mean dist local {dl:.4f} <= global {dg:.4f}; 20 trials")


def test_large_k_masked_path(tmp_path):
    # Not a numbered criterion: the headless large-K path (label-position
    # mass in the packed kernel) must be exercised at K = 1000 with the
    # scaled correlation threshold.
    code, summary = _exp(tmp_path, "large-k", seed=0, trials=1)
    ok = code == 0 and summary["mean_corr"] >= 0.95
    _report(0, "large-K masked scoring", ok,
            f"corr {summary['mean_corr']:.4f} (>= 0.95) at K=1000, d=32, masked path")


@pytest.mark.parametrize("seed", [41, 110, 112, 123])
def test_large_k_budget_clears_former_misses(tmp_path, seed):
    # These four seeds read 0.942-0.950 at the former 4000-step budget; the
    # default 8000 steps must carry each over the unchanged 0.95 threshold.
    code, summary = _exp(tmp_path, "large-k", seed=seed, trials=1)
    ok = code == 0 and summary["mean_corr"] >= 0.95
    _report(0, f"large-K budget, seed {seed}", ok,
            f"corr {summary['mean_corr']:.4f} (>= 0.95) at the default "
            f"{experiments.EXPERIMENTS['large-k'].params['iters']} steps")
