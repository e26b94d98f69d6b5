"""Correlation, rate bound, pseudo-graphs, reports, and the two sweep experiments."""

import numpy as np
import pytest

from attnlab import analysis, attention as att, dataset as dsm, experiments, graph as gm
from attnlab.errors import NoConvergence, NonFiniteLoss, ZeroMatrix
from attnlab.util import seeded_rng

from helpers import hand_run_refs, pseudo_tpgs_loop, tiny_instance


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
        table = dsm.make_embeddings(4, 4, dsm.UNIT_SPHERE, seed=5 * 99991 + 31 * 4 + 0)
        ds = dsm.gen_dataset(table, None, n=3, T=3, mode="cyclic", seed=5 + 4)
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


class TestSweepFanOut:
    # One _trial_worker call per (grid point, trial): 3 trials each.
    @pytest.mark.parametrize("name, params, calls", [
        ("scc-count", dict(K=4, d=4, T=3, n_grid=[4, 8]), 2 * 3),
    ], ids=["scc-count"])
    def test_one_worker_call_per_trial(self, monkeypatch, name, params, calls):
        seen = []
        worker = experiments._trial_worker

        def counting(args):
            seen.append(args)
            return worker(args)

        monkeypatch.setattr(experiments, "_trial_worker", counting)
        sweep_rows(name, seed=0, trials=3, **params)
        assert len(seen) == calls

    def test_feasibility_trains_in_one_block(self, monkeypatch):
        # All 3 x 3 (grid point, trial) jobs reach one train_block call,
        # whatever their d, and none goes through _trial_worker.
        blocks, workers = [], []
        train_block, worker = att.train_block, experiments._trial_worker

        def counting_block(datasets, *args, **kwargs):
            blocks.append(sorted(ds.d for ds in datasets))
            return train_block(datasets, *args, **kwargs)

        monkeypatch.setattr(att, "train_block", counting_block)
        monkeypatch.setattr(experiments, "_trial_worker", lambda args: workers.append(args) or worker(args))
        sweep_rows("feasibility", seed=0, trials=3, K=4, T=3, n=3, iters=50, d_grid=[2, 3, 4])
        assert blocks == [[2, 2, 2, 3, 3, 3, 4, 4, 4]]
        assert workers == []


class TestGlobalBlocks:
    PARAMS = {**experiments.EXPERIMENTS["cyclic-global"].params, "iters": 20, "record_every": 5}

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
            value, bar, g, errors = kernel(w, packed, kind, reduced_log, need_grad, need_loss)
            if need_loss:  # a record step of training
                value = value.copy()
                value[1] = np.inf
            return value, bar, g, errors

        monkeypatch.setattr(experiments, "build_pipeline", failing_build)
        with pytest.raises(NoConvergence, match="trial 3"):
            experiments.run_trials("global", jobs[2:], workers=1)
        monkeypatch.setattr(att, "_loss_and_grad", infinite_trial_1)
        with pytest.raises(NonFiniteLoss, match="loss became non-finite at iteration 0"):
            experiments.run_trials("global", jobs, workers=1)


def _gd_jobs(kind):
    """Five or six small jobs of a GD trial kind; feasibility mixes two d."""
    if kind == "global":
        return experiments.seeded_jobs(TestGlobalBlocks.PARAMS, 0, 5)
    if kind == "local":
        return experiments.seeded_jobs({**experiments.EXPERIMENTS["local-squared"].params, "iters": 20}, 0, 5)
    params = dict(K=4, T=3, n=4, eta=0.05, iters=20, eps=None)
    return [({**params, "d": d}, (31 * d + t, 7 * t + d)) for d in (2, 4) for t in range(3)]


def _data_seed(job):
    """The seed its trial draws its dataset from."""
    return job[1][1] if isinstance(job[1], tuple) else job[1]


class TestGdBlocks:
    @pytest.mark.parametrize("kind", ["global", "local", "feasibility"])
    def test_block_equals_trials_alone(self, kind):
        # repr spells every float exactly, NaN included, so equal reprs are
        # equal bits in every result, trace row and retained proportion.
        jobs = _gd_jobs(kind)
        block = experiments.run_trials(kind, jobs, workers=1)
        alone = [r for job in jobs for r in experiments.run_trials(kind, [job], workers=1)]
        assert repr(block) == repr(alone)

    @pytest.mark.parametrize("kind", ["global", "local", "feasibility"])
    @pytest.mark.parametrize("failure", ["training", "finish"])
    def test_first_error_in_trial_order_is_raised(self, monkeypatch, kind, failure):
        # Trial 3's dataset fails to build and trial 1 fails in training or
        # in its finish; run one by one, trial 1 would raise first.
        jobs = _gd_jobs(kind)
        bad_build, bad_trial = _data_seed(jobs[3]), _data_seed(jobs[1])
        gen, train_block = experiments.gen_dataset, att.train_block
        build, finish = experiments._GD_KINDS[kind]

        def failing_gen(*args, seed, **kwargs):
            if seed == bad_build:
                raise NoConvergence("trial 3 has no dataset")
            return gen(*args, seed=seed, **kwargs)

        def failing_training(datasets, *args, **kwargs):
            out = train_block(datasets, *args, **kwargs)
            return [NonFiniteLoss("trial 1 diverged") if ds.seed == bad_trial else r for ds, r in zip(datasets, out)]

        def failing_finish(built, trace):
            if built[0].seed == bad_trial:
                raise NoConvergence("trial 1 did not finish")
            return finish(built, trace)

        monkeypatch.setattr(experiments, "gen_dataset", failing_gen)
        if failure == "training":
            monkeypatch.setattr(att, "train_block", failing_training)
        else:
            monkeypatch.setitem(experiments._GD_KINDS, kind, (build, failing_finish))
        with pytest.raises(NoConvergence, match="trial 3"):
            experiments.run_trials(kind, jobs[2:], workers=1)
        with pytest.raises((NoConvergence, NonFiniteLoss), match="trial 1"):
            experiments.run_trials(kind, jobs, workers=1)

    def test_block_of_mixed_training_configs_is_rejected(self):
        (params, seed), (_, other) = _gd_jobs("global")[:2]
        with pytest.raises(ValueError, match="one training config"):
            experiments.run_trials("global", [(params, seed), ({**params, "iters": 30}, other)], workers=1)


class TestLocalReferences:
    @pytest.mark.parametrize("overrides", [{}, {"n": 8}])
    def test_pipeline_on_pseudo_graphs_equals_the_hand_run_chain(self, overrides):
        # Every trial of local-squared, seed 0.  At its defaults the pseudo
        # graphs give the dataset's own W_svm in every trial; at n = 8 some
        # do not, so a pipeline that ignored its graphs would show there.
        cfg = experiments.ExperimentConfig("local-squared", overrides, {}, 0).resolved()
        build, _ = experiments._GD_KINDS["local"]
        built = [build(params, seed) for params, seed in experiments.seeded_jobs(cfg.params, cfg.seed, cfg.trials)]
        traces = att.train_block([b[0] for b in built], built[0][1], [b[2] for b in built])
        moved = 0
        for (ds, _, _, (pipe, eps)), trace in zip(built, traces):
            pseudo = analysis.pseudo_tpgs(trace.w_final, ds, eps=eps)
            local = experiments.Pipeline(ds, pseudo)
            sol, s_fin, fin = hand_run_refs(ds, pseudo)
            assert local.solution.status is sol.status and local.fin_result.status is fin.status
            assert local.w_svm.tobytes() == sol.w.tobytes()
            assert local.s_fin.basis.tobytes() == s_fin.basis.tobytes()
            assert local.w_fin.tobytes() == fin.w.tobytes()
            moved += local.w_svm.tobytes() != pipe.w_svm.tobytes()
        assert moved > 0 or not overrides


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
