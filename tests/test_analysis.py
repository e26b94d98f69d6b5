"""Correlation, rate bound, pseudo-graphs, reports, and the two sweep experiments."""

import numpy as np
import pytest

from attnlab import analysis, attention as att, dataset as dsm, experiments, graph as gm
from attnlab.errors import NoConvergence, NonFiniteLoss, ZeroMatrix
from attnlab.util import seeded_rng

from helpers import tiny_instance


def sweep_rows(name, seed, trials, **params):
    """Aggregate rows of a sweep experiment, one dict per grid point."""
    cfg = experiments.ExperimentConfig(name, params, {}, seed, trials).resolved()
    result = experiments.EXPERIMENTS[name].runner(cfg)
    return [dict(zip(result.aggregate_header, row)) for row in result.aggregate_rows]


class TestCorrelation:
    def test_self_correlation_is_one(self, cyclic_pipeline):
        w = cyclic_pipeline.w_svm
        assert abs(att.correlation(w, w) - 1.0) <= 1e-12

    def test_negation_is_minus_one(self, cyclic_pipeline):
        w = cyclic_pipeline.w_svm
        assert abs(att.correlation(-w, w) + 1.0) <= 1e-12

    def test_fin_basis_orthogonal_to_svm(self, cyclic_pipeline):
        pipe = cyclic_pipeline
        for b in pipe.s_fin.basis:
            assert abs(att.correlation(b, pipe.w_svm)) <= 1e-8

    def test_zero_matrix_raises(self):
        # A zero matrix has no direction, so the cosine is NaN.
        assert np.isnan(att.correlation(np.zeros((3, 3)), np.eye(3)))
        assert np.isnan(att.correlation(np.eye(3), np.zeros((3, 3))))


class TestRateBound:
    def test_infinite_margin_leaves_only_t_over_tau(self):
        inputs = analysis.RateBoundInputs(xi=np.inf, e_max=1.0, w_fin_norm=0.0, t_max=4)
        for tau in (1, 10, 1000):
            assert abs(analysis.rate_bound(inputs, tau, 0.5) - 4.0 / tau) <= 1e-15

    def test_monotone_decreasing_for_large_tau(self):
        inputs = analysis.RateBoundInputs(xi=0.4, e_max=1.0, w_fin_norm=1.5, t_max=4)
        taus = np.unique(np.geomspace(100, 1_000_000, 200).astype(int))
        vals = [analysis.rate_bound(inputs, int(t), 0.25) for t in taus]
        assert all(vals[j + 1] <= vals[j] for j in range(len(vals) - 1))

    def test_xi_at_least_inverse_svm_norm(self, cyclic_pipeline):
        pipe = cyclic_pipeline
        xi = analysis.margin_xi(pipe.dataset, pipe.sets, pipe.w_svm)
        assert xi >= 1.0 / pipe.solution.norm - 1e-9

    def test_xi_requires_nonzero_svm(self, cyclic_pipeline):
        with pytest.raises(ZeroMatrix):
            analysis.margin_xi(cyclic_pipeline.dataset, cyclic_pipeline.sets,
                               np.zeros((8, 8)))


class TestPseudoTpgs:
    def test_zero_weights_keep_every_token(self):
        ds = tiny_instance(21, K=4, d=5, n=4, T=4)
        pseudo = analysis.pseudo_tpgs(np.zeros((5, 5)), ds)
        # Uniform probabilities retain all positions: complete distinct-pair
        # edge sets per sample.
        for s in ds.samples:
            g = pseudo[s.last_token]
            toks = set(s.tokens)
            for a in toks:
                for b in toks:
                    if a != b:
                        assert g.has_edge(a, b)

    def test_label_selecting_weights_reproduce_label_edges(self, cyclic_pipeline):
        # A direction that saturates on the label tokens yields edges from
        # the label to everything else, exactly like the dataset graphs.
        pipe = cyclic_pipeline
        w = 50.0 * pipe.w_svm + pipe.w_fin
        pseudo = analysis.pseudo_tpgs(w, pipe.dataset)
        for i, s in enumerate(pipe.dataset.samples):
            g = pseudo[s.last_token]
            for t in pipe.sets.r[i]:
                for tok in set(s.tokens):
                    if tok != s.tokens[t]:
                        assert g.has_edge(s.tokens[t], tok)

    def test_tiny_threshold_consistent_with_dataset_relations(self, acyclic_pipeline):
        # On a separable acyclic instance, a converged direction keeps only
        # the label, so pseudo relations embed in the dataset's TPG edges.
        pipe = acyclic_pipeline
        w = 60.0 * pipe.w_svm
        pseudo = analysis.pseudo_tpgs(w, pipe.dataset, eps=1e-6)
        for s in pipe.dataset.samples:
            g_ps = pseudo[s.last_token]
            g_ds = pipe.tpgs[s.last_token]
            for i, j in g_ps.edge_list():
                assert g_ds.has_edge(i, j)

    def test_every_sample_keeps_at_least_one_token(self):
        ds = tiny_instance(22, K=5, d=5, n=5, T=4)
        rng = seeded_rng(22)
        pseudo = analysis.pseudo_tpgs(8.0 * rng.standard_normal((5, 5)), ds, eps=0.9)
        for s in ds.samples:
            assert s.last_token in pseudo
            assert len(pseudo[s.last_token].nodes) >= 1


class TestConvergenceReport:
    def test_all_zero_gradient_reports_null_corr(self):
        table = dsm.make_embeddings(3, 3, dsm.ORTHONORMAL, seed=0)
        head = dsm.make_head(table, dsm.TIED)
        ds = dsm.Dataset(embedding=table, head=head,
                         samples=(dsm.Sample(tokens=(1, 1, 1), label=1),))
        cfg = att.TrainConfig(eta=0.1, iters=20, record_every=10)
        trace = att.train_gd(ds, cfg)
        report = analysis.convergence_report(trace)
        assert report["final_corr"] is None
        assert report["mean_corr"] is None
        assert report["final_loss"] == 0.0

    def test_benchmark_fields(self, cyclic_pipeline):
        pipe = cyclic_pipeline
        cfg = att.TrainConfig(eta=0.01, iters=1500, normalized=True, record_every=100)
        trace = att.train_gd(pipe.dataset, cfg, refs=pipe.refs())
        inf_val = att.loss_inf(pipe.split, pipe.w_fin)
        report = analysis.convergence_report(trace, loss_inf=inf_val)
        assert report["final_corr"] > 0.9
        assert report["final_dist"] < 0.1
        assert report["loss_gap"] >= -1e-12
        assert report["norm_slope"] > 0


class TestSccCountExperiment:
    def test_trivial_single_token_sequences(self):
        rows = sweep_rows("scc-count", K=4, d=4, T=1, n_grid=[1], trials=10, seed=0)
        # T = 1: one singleton graph per distinct last token; with n = 1
        # exactly one graph exists.
        assert rows[0]["mean"] == 1.0

    def test_dense_data_collapses_to_one_scc_per_graph(self):
        rows = sweep_rows("scc-count", K=3, d=3, T=3, n_grid=[300], trials=5, seed=1)
        # Every ordered pair co-occurs eventually: one SCC per graph, and all
        # K = 3 last tokens appear.
        assert rows[0]["mean"] == 3.0

    def test_qualitative_collapse(self):
        # Past the small-n ramp-up the count falls toward one SCC per graph.
        rows = sweep_rows("scc-count", K=5, d=5, T=3, n_grid=[16, 64, 256], trials=10, seed=2)
        means = [r["mean"] for r in rows]
        assert means[-1] <= means[1] <= means[0]
        assert means[-1] <= 5.0 + 1.0


class TestFeasibilityExperiment:
    def test_retention_counting_matches_direct_recount(self):
        rows = sweep_rows(
            "feasibility", K=4, T=3, n=3, d_grid=[4], trials=1, seed=5, eta=0.01, iters=400, eps=1e-3
        )
        # Re-run the identical pipeline to recount retention directly.
        table = dsm.make_embeddings(4, 4, dsm.UNIT_SPHERE, seed=5 * 99991 + 31 * 4 + 0)
        ds = dsm.gen_dataset(table, None, n=3, T=3, mode="cyclic", seed=5 + 4)
        tpgs = gm.build_tpgs(ds)
        sets = dsm.index_sets(ds, tpgs)
        cfg = att.TrainConfig(eta=0.01, iters=400, normalized=True, record_every=400)
        trace = att.train_gd(ds, cfg)
        props = []
        for i, s in enumerate(ds.samples):
            x, xbar = att.embed_sample(ds, s)
            probs, _ = att.forward(x, trace.w_final, xbar)
            kept = sum(1 for t in sets.r[i] if probs[t] >= 1e-3)
            props.append(kept / len(sets.r[i]))
        assert abs(rows[0]["proportion"] - float(np.mean(props))) <= 1e-12

    def test_full_dimension_retains_everything(self):
        rows = sweep_rows(
            "feasibility", K=6, T=4, n=8, d_grid=[6], trials=3, seed=9, iters=4000
        )
        assert abs(rows[0]["proportion"] - 1.0) <= 0.02


class TestSweepFanOut:
    # One _trial_worker call per (grid point, trial): 3 trials each.
    @pytest.mark.parametrize("name, params, calls", [
        ("scc-count", dict(K=4, d=4, T=3, n_grid=[4, 8]), 2 * 3),
        ("feasibility", dict(K=4, T=3, n=3, iters=50, d_grid=[2, 3, 4]), 3 * 3),
    ], ids=["scc-count", "feasibility"])
    def test_one_worker_call_per_trial(self, monkeypatch, name, params, calls):
        seen = []
        worker = experiments._trial_worker

        def counting(args):
            seen.append(args)
            return worker(args)

        monkeypatch.setattr(experiments, "_trial_worker", counting)
        sweep_rows(name, seed=0, trials=3, **params)
        assert len(seen) == calls


class TestGlobalBlocks:
    PARAMS = dict(K=6, d=8, n=6, T=4, eta=0.01, iters=20, mode="cyclic", head="tied", record_every=5)

    def test_first_error_in_trial_order_is_raised(self, monkeypatch):
        # Trial 3's pipeline fails to build and trial 1's loss is infinite
        # from the start; run one by one, trial 1 would raise first.
        jobs = experiments.seeded_jobs(self.PARAMS, 0, 5)
        build, kernel = experiments.build_pipeline, att._loss_and_grad

        def failing_build(ds):
            if ds.seed == jobs[3][1]:
                raise NoConvergence("trial 3 has no pipeline")
            return build(ds)

        def infinite_trial_1(w, packed, kind, reduced_log, need_grad=True, need_loss=True):
            value, g, errors = kernel(w, packed, kind, reduced_log, need_grad, need_loss)
            if need_grad and need_loss:  # a record step of the training pack, not a loss_bar split pack
                value = value.copy()
                value[1] = np.inf
            return value, g, errors

        monkeypatch.setattr(experiments, "build_pipeline", failing_build)
        with pytest.raises(NoConvergence, match="trial 3"):
            experiments.run_trials("global", jobs[2:], workers=1)
        monkeypatch.setattr(att, "_loss_and_grad", infinite_trial_1)
        with pytest.raises(NonFiniteLoss, match="loss became non-finite at iteration 0"):
            experiments.run_trials("global", jobs, workers=1)


class TestLocalWfinStatus:
    def test_certified_pseudo_split_has_a_distance(self):
        (row,) = sweep_rows("local-squared", seed=0, trials=1)
        assert row["wfin_status"] == "certified"
        assert np.isfinite(row["dist_local"])

    def test_uncertified_pseudo_split_has_no_distance(self):
        # After 50 steps the pseudo graphs merge the labels into SCCs whose
        # reduced loss only reaches its infimum at infinity.
        for row in sweep_rows("local-squared", seed=0, trials=2, iters=50):
            assert row["wfin_status"] == "uncertified"
            assert np.isnan(row["dist_local"])
