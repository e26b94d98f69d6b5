"""Correlation, rate bound, pseudo-graphs, reports, and the two sweep experiments."""

import numpy as np
import pytest

from attnlab import analysis, attention as att, dataset as dsm, experiments, graph as gm
from attnlab.errors import ZeroMatrix
from attnlab.util import seeded_rng

from helpers import KINDS, gd_jobs, hand_run_refs, pseudo_tpgs_loop, spelled, sweep_rows, tiny_instance, trial_build
from test_internals import (
    BlockPlan as TestBlockPlan,
    GdBlocksCertificates,
    GlobalBlocks as TestGlobalBlocks,
    SweepFanOut as TestSweepFanOut,
)


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

    def test_two_matrices_give_a_float_and_no_reference_nan(self):
        w = seeded_rng(30).standard_normal((4, 4))
        assert type(att.correlation(w, w[::-1])) is float
        assert np.isnan(att.correlation(w, None)) and np.isnan(att.correlation(np.stack([w, w]), None))

    @pytest.mark.parametrize("d", [2, 4, 7, 8, 16, 32])
    def test_a_stack_holds_each_pair_bit_for_bit(self, d):
        # An (n, B) stack of W's against B references, with zero W's and a
        # zero reference among them, and the stack against one broadcast
        # reference: each entry is the bits of its two-matrix call, and
        # that call is np.sum(W * R) over the two np.linalg.norm values.
        rng = seeded_rng(31 + d)
        w = rng.standard_normal((5, 3, d, d)) * rng.uniform(1e-3, 1e3, (5, 3, 1, 1))
        ref = rng.standard_normal((3, d, d))
        w[1, 2] = 0.0
        w[3] = 0.0
        ref[1] = 0.0
        for refs in (ref, ref[0]):
            got = att.correlation(w, refs)
            assert got.shape == (5, 3)
            pairs = [[att.correlation(w[k, b], np.broadcast_to(refs, ref.shape)[b]) for b in range(3)]
                     for k in range(5)]
            assert got.tobytes() == np.array(pairs).tobytes()
        for k in range(5):
            for b in range(3):
                wk, r = w[k, b], ref[b]
                if wk.any() and r.any():
                    assert att.correlation(wk, r) == float(np.sum(wk * r) / (np.linalg.norm(wk) * np.linalg.norm(r)))
                else:
                    assert np.isnan(att.correlation(wk, r))


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
                        assert b in g.edges[a]

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
                        assert tok in g.edges[s.tokens[t]]

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
                assert j in g_ds.edges.get(i, ())

    def test_graphs_match_the_edge_loop(self):
        rng = seeded_rng(23)
        for seed in range(30):
            K, d, T = (int(v) for v in rng.integers(3, 8, size=3))
            ds = tiny_instance(seed, K=K, d=d, n=int(rng.integers(1, 10)), T=T, head_kind="none")
            w = float(rng.uniform(0.5, 20.0)) * rng.standard_normal((d, d))
            eps = float(10.0 ** rng.uniform(-4.0, np.log10(0.9)))
            assert analysis.pseudo_tpgs(w, ds, eps=eps) == pseudo_tpgs_loop(w, ds, eps)

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
        tseed = experiments.trial_seed(5, 0)
        table = dsm.make_embeddings(4, 4, dsm.UNIT_SPHERE, seed=tseed)
        ds = dsm.gen_dataset(table, None, n=3, T=3, mode="cyclic", seed=tseed)
        sets = dsm.index_sets(ds, gm.decompose_all(gm.build_tpgs(ds)))
        cfg = att.TrainConfig(eta=0.01, iters=400, normalized=True, record_every=400)
        trace = att.train_gd(ds, cfg)
        props = []
        for i, s in enumerate(ds.samples):
            x = ds.embedding.e[list(s.tokens)]
            probs, _ = att.forward(x, trace.w_final, x[-1])
            kept = sum(1 for t in sets.r[i] if probs[t] >= 1e-3)
            props.append(kept / len(sets.r[i]))
        assert abs(rows[0]["proportion"] - float(np.mean(props))) <= 1e-12

    def test_full_dimension_retains_everything(self):
        rows = sweep_rows(
            "feasibility", K=6, T=4, n=8, d_grid=[6], trials=3, seed=9, iters=4000
        )
        assert abs(rows[0]["proportion"] - 1.0) <= 0.02


class TestSeedRule:
    # Consecutive grid points, where seeds that add the grid value to the
    # run's seed would give a seed-1 trial the draw of a seed-0 trial.
    @pytest.mark.parametrize("name, grid, params", [
        ("feasibility", [2, 3], dict(K=6, T=4, n=6, iters=10)),
        ("scc-count", [8, 9], dict(K=6, d=6, T=4)),
    ], ids=["feasibility", "scc-count"])
    def test_runs_at_two_seeds_share_no_token_sequence(self, monkeypatch, name, grid, params):
        gen, drawn = experiments.gen_dataset, {}

        def recording(*args, seed, **kwargs):
            ds = gen(*args, seed=seed, **kwargs)
            drawn[run_seed].append((seed, [s.tokens for s in ds.samples]))
            return ds

        monkeypatch.setattr(experiments, "gen_dataset", recording)
        key = "d_grid" if name == "feasibility" else "n_grid"
        for run_seed in (0, 1):
            drawn[run_seed] = []
            sweep_rows(name, run_seed, 2, **params, **{key: grid})
            # Trial t draws from trial_seed(seed, t) at every grid point.
            assert [seed for seed, _ in drawn[run_seed]] == [experiments.trial_seed(run_seed, t)
                                                             for _ in grid for t in range(2)]
        for _, a in drawn[0]:
            for _, b in drawn[1]:
                m = min(len(a), len(b))  # gen_dataset draws sample by sample, so a shared seed shares a prefix
                assert a[:m] != b[:m]


class TestGdBlocks(GdBlocksCertificates):
    @pytest.mark.parametrize("kind", KINDS)
    def test_block_equals_trials_alone(self, kind):
        # Equal bits in every result, trace column, radius and count.
        jobs = gd_jobs(kind)
        block = experiments.run_trials(kind, jobs)
        alone = [r for job in jobs for r in experiments.run_trials(kind, [job])]
        assert spelled(block) == spelled(alone)

    def test_block_of_mixed_training_configs_is_rejected(self):
        (params, seed), (_, other) = gd_jobs("global")[:2]
        with pytest.raises(ValueError, match="one training config"):
            experiments.run_trials("global", [(params, seed), ({**params, "iters": 30}, other)])


class TestLocalReferences:
    @pytest.mark.parametrize("overrides", [{}, {"n": 8}])
    def test_pipeline_on_pseudo_graphs_equals_the_hand_run_chain(self, overrides):
        # Every trial of local-squared, seed 0.  At its defaults the pseudo
        # graphs give the dataset's own W_svm in every trial; at n = 8 some
        # do not, so a pipeline that ignored its graphs would show there.
        cfg = experiments.ExperimentConfig("local-squared", overrides, {}, 0).resolved()
        built = [trial_build("local", params, seed)
                 for params, seed in experiments.seeded_jobs(cfg.params, cfg.seed, cfg.trials)]
        traces = att.train_block([b[0] for b in built], built[0][1], [b[2] for b in built])
        moved = 0
        for (ds, _, refs, _), trace in zip(built, traces):
            pseudo = analysis.pseudo_tpgs(trace.w_final, ds, eps=cfg.params["eps"])
            local = experiments.Pipeline(ds, pseudo)
            sol, s_fin, fin = hand_run_refs(ds, pseudo)
            assert local.solution.status is sol.status and local.fin_result.status is fin.status
            assert local.w_svm.tobytes() == sol.w.tobytes()
            assert local.s_fin.basis.tobytes() == s_fin.basis.tobytes()
            assert local.w_fin.tobytes() == fin.w.tobytes()
            moved += local.w_svm.tobytes() != refs.w_svm.tobytes()
        assert moved > 0 or not overrides

    def test_the_global_summary_reads_the_traces_last_record(self):
        # dist_global and corr_global take W_final's distance and cosine by
        # the trace's own formulas, so they are its last dist_fin and
        # corr_svm, bit for bit.  Trials 4, 5 and 6 of local-squared at seed
        # 3 have S_fin of dims 1, 2 and 0; at trial 5 the old form,
        # ||project(W) - W_fin||, reads other bits.
        cfg = experiments.ExperimentConfig("local-squared", {"iters": 300}, {}, 3).resolved()
        jobs = list(experiments.seeded_jobs(cfg.params, cfg.seed, cfg.trials))[4:7]
        for row in experiments.run_trials("local", jobs):
            iters, *columns = row["trace"]
            trace = dict(zip(att.TrainTrace.csv_header()[1:], columns))
            assert np.float64(row["dist_global"]).tobytes() == trace["dist_fin"][-1].tobytes()
            assert np.float64(row["corr_global"]).tobytes() == trace["corr_svm"][-1].tobytes()
        assert [trial_build("local", *job)[2].s_fin.dim for job in jobs] == [1, 2, 0]


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
