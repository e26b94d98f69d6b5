"""Constraint assembly, subspaces, the min-norm solver, and feasibility."""

import collections
import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from attnlab import attention, cli, experiments
from attnlab import dataset as dsm
from attnlab import graph as gm
from attnlab import svm
from attnlab.errors import NoConvergence, NotOrthonormal
from attnlab.experiments import Pipeline, build_pipeline
from attnlab.util import seeded_rng

from helpers import (
    assert_certified,
    classify_pair,
    constraints_from_edges,
    forbid_the_solver,
    load_tool,
    nnls_gram_oracle,
    projected_inequalities,
    random_tpg,
    tiny_instance,
)
from test_internals import GramCertificates, NnlsCertificates, Presolve as TestPresolve


# The solver's verdict corpus is defined in tools/verdicts.py.
verdicts = load_tool("verdicts")


def _constraints_for(ds):
    tpgs = gm.build_tpgs(ds)
    decomps = gm.decompose_all(tpgs)
    return svm.build_constraints(tpgs, decomps, ds.embedding), tpgs, decomps


def _manual_graph(nodes, edges, last_token=0):
    return gm.TokenPriorityGraph(
        last_token=last_token,
        nodes=frozenset(nodes),
        edges={i: frozenset(j for a, j in edges if a == i) for i in nodes if any(a == i for a, _ in edges)},
    )


class TestBuildConstraints:
    def test_chain_closure(self):
        g = _manual_graph({1, 2, 3}, [(1, 2), (2, 3)], last_token=0)
        table = dsm.make_embeddings(4, 4, dsm.ORTHONORMAL, seed=0)
        cons = svm.build_constraints({0: g}, gm.decompose_all({0: g}), table)
        assert cons.equalities.shape == (0, 3)
        assert cons.inequalities.tolist() == [[1, 2, 0], [1, 3, 0], [2, 3, 0]]

    def test_two_node_scc(self):
        g = _manual_graph({1, 2}, [(1, 2), (2, 1)], last_token=5)
        table = dsm.make_embeddings(6, 6, dsm.ORTHONORMAL, seed=0)
        cons = svm.build_constraints({5: g}, gm.decompose_all({5: g}), table)
        assert cons.equalities.tolist() == [[1, 2, 5]]
        assert cons.inequalities.shape == (0, 3)

    def test_mixed_graph_counts_match_pair_oracle(self):
        for seed in range(10):
            ds = tiny_instance(seed + 20, K=5, d=6, n=5, T=4)
            cons, tpgs, _ = _constraints_for(ds)
            want_eq, want_ineq = set(), set()
            for k, g in tpgs.items():
                nodes = sorted(g.nodes)
                for i in nodes:
                    for j in nodes:
                        if i >= j:
                            continue
                        cls = classify_pair(g.nodes, g.edge_list(), i, j)
                        if cls == "same":
                            want_eq.add((i, j, k))
                        elif cls == "ij":
                            want_ineq.add((i, j, k))
                        elif cls == "ji":
                            want_ineq.add((j, i, k))
            assert set(map(tuple, cons.equalities.tolist())) == want_eq
            assert set(map(tuple, cons.inequalities.tolist())) == want_ineq


    def test_random_tpgs_match_pair_oracle(self):
        rng = seeded_rng(41)
        table = dsm.make_embeddings(14, 4, dsm.UNIT_SPHERE, seed=0)
        for _ in range(40):
            last = rng.choice(14, size=int(rng.integers(1, 4)), replace=False)
            tpgs = {int(k): random_tpg(rng, int(rng.integers(2, 14)), float(rng.uniform(0.05, 0.4)), int(k))
                    for k in last}
            want_eq, want_ineq = [], []
            for k in sorted(tpgs):
                g = tpgs[k]
                nodes = sorted(g.nodes)
                for a, i in enumerate(nodes):
                    for j in nodes[a + 1:]:
                        cls = classify_pair(g.nodes, g.edge_list(), i, j)
                        if cls == "same":
                            want_eq.append((i, j, k))
                        elif cls != "none":
                            want_ineq.append((i, j, k) if cls == "ij" else (j, i, k))
            cons = svm.build_constraints(tpgs, gm.decompose_all(tpgs), table)
            assert list(map(tuple, cons.equalities.tolist())) == want_eq
            assert list(map(tuple, cons.inequalities.tolist())) == sorted(want_ineq, key=lambda t: (t[2], t[0], t[1]))


class TestSubspaces:
    def test_empty_span_has_dim_zero(self):
        table = dsm.make_embeddings(3, 3, dsm.ORTHONORMAL, seed=0)
        sub = svm.span((), table)
        assert sub.dim == 0
        np.testing.assert_array_equal(sub.project(np.ones((3, 3))), np.zeros((3, 3)))

    def test_single_triple_orthonormal(self):
        table = dsm.make_embeddings(4, 4, dsm.ORTHONORMAL, seed=1)
        sub = svm.span(((0, 1, 2),), table)
        assert sub.dim == 1
        want = np.outer(table.e[0] - table.e[1], table.e[2]) / np.sqrt(2.0)
        # Basis is defined up to sign.
        err = min(
            np.linalg.norm(sub.basis[0] - want),
            np.linalg.norm(sub.basis[0] + want),
        )
        assert err < 1e-12

    def test_dim_matches_svd_rank(self):
        rng = seeded_rng(9)
        table = dsm.make_embeddings(5, 6, dsm.UNIT_SPHERE, seed=9)
        for _ in range(20):
            m = int(rng.integers(1, 9))
            triples = []
            for _ in range(m):
                i, j = rng.choice(5, size=2, replace=False)
                k = int(rng.integers(0, 5))
                triples.append((int(i), int(j), k))
            sub = svm.span(tuple(triples), table)
            gens = np.array([svm.constraint_matrix(t, table.e).ravel() for t in triples])
            rank = int(np.sum(np.linalg.svd(gens, compute_uv=False) > 1e-10))
            assert sub.dim == rank

    def test_projection_idempotent_on_basis(self):
        ds = tiny_instance(41, K=4, d=5, n=5, T=4)
        cons, tpgs, _ = _constraints_for(ds)
        sub = svm.active_subspace(tpgs, ds.embedding)
        for b in sub.basis:
            assert np.linalg.norm(sub.project(b) - b) <= 1e-12

    def test_pythagoras(self):
        rng = seeded_rng(10)
        ds = tiny_instance(42, K=4, d=5, n=5, T=4)
        cons, tpgs, _ = _constraints_for(ds)
        sub = svm.fin_subspace(cons)
        for _ in range(20):
            w = rng.standard_normal((5, 5))
            p = sub.project(w)
            total = np.linalg.norm(p) ** 2 + np.linalg.norm(w - p) ** 2
            assert abs(total - np.linalg.norm(w) ** 2) <= 1e-10

    def test_basis_orthonormal(self):
        ds = tiny_instance(43, K=5, d=6, n=6, T=4)
        cons, tpgs, _ = _constraints_for(ds)
        for sub in (svm.fin_subspace(cons), svm.active_subspace(tpgs, ds.embedding)):
            if sub.dim == 0:
                continue
            flat = sub.basis.reshape(sub.dim, -1)
            gram = flat @ flat.T
            assert np.max(np.abs(gram - np.eye(sub.dim))) <= 1e-10

    def test_svm_dim_is_active_minus_fin(self):
        def rank(gens):
            return int(np.sum(np.linalg.svd(gens, compute_uv=False) > 1e-10)) if len(gens) else 0

        for seed in range(10):
            ds = tiny_instance(seed + 60, K=5, d=6, n=6, T=4)
            cons, tpgs, _ = _constraints_for(ds)
            e = ds.embedding.e
            active = [svm.constraint_matrix((i, j, k), e).ravel()
                      for k in sorted(tpgs) for i, j in tpgs[k].edge_list()]
            fin = [svm.constraint_matrix(t, e).ravel() for t in cons.equalities]
            # Same-SCC pairs are sums of edge generators: S_fin lies in S_active.
            assert rank(np.array(active + fin)) == rank(np.array(active))
            s_fin = svm.fin_subspace(cons)
            s_active = svm.active_subspace(tpgs, ds.embedding)
            s_svm = svm.svm_subspace(s_active, s_fin)
            assert s_svm.dim == s_active.dim - s_fin.dim


# Pipeline stage -> (module, builder) and the stages it reads.
STAGES = {
    "tpgs": ((gm, "build_tpgs"), ()),
    "decomps": ((gm, "decompose_all"), ("tpgs",)),
    "sets": ((experiments, "index_sets"), ("decomps",)),
    "constraints": ((svm, "build_constraints"), ("tpgs", "decomps")),
    "solution": ((svm, "solve_graph_svm"), ("constraints",)),
    "s_fin": ((svm, "fin_subspace"), ("constraints",)),
    "split": ((gm, "cyclic_split"), ("sets",)),
    "fin_result": ((attention, "train_wfin"), ("split", "s_fin")),
    "s_active": ((svm, "active_subspace"), ("tpgs",)),
    "s_svm": ((svm, "svm_subspace"), ("s_active", "s_fin")),
}


def _reads(stage):
    """The stage and every stage it depends on."""
    return {stage}.union(*(_reads(dep) for dep in STAGES[stage][1]))


class TestLazyPipeline:
    @pytest.fixture()
    def builds(self, monkeypatch):
        """Names of the stages built, one entry per builder call."""
        calls = []
        for stage, ((module, name), _) in STAGES.items():
            fn = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, _stage=stage, _fn=fn: calls.append(_stage) or _fn(*a))
        return calls

    @pytest.mark.parametrize("stage", sorted(STAGES))
    def test_each_stage_built_once_when_read(self, builds, stage):
        pipe = Pipeline(tiny_instance(44, K=5, d=6, n=6, T=4))
        assert builds == []
        first = getattr(pipe, stage)
        assert sorted(builds) == sorted(_reads(stage))
        assert getattr(pipe, stage) is first
        for other in STAGES:
            getattr(pipe, other)
        assert sorted(builds) == sorted(STAGES)

    def test_given_graphs_are_not_rebuilt(self, builds):
        ds = tiny_instance(44, K=5, d=6, n=6, T=4)
        tpgs = gm.build_tpgs(ds)
        builds.clear()
        pipe = Pipeline(ds, tpgs)
        assert pipe.tpgs is tpgs and pipe.solution.status is svm.SolveStatus.SOLVED
        assert "tpgs" not in builds

    def test_build_pipeline_solves_w_svm_and_w_fin_in_its_call(self, builds):
        pipe = build_pipeline(tiny_instance(44, K=5, d=6, n=6, T=4))
        assert sorted(builds) == sorted(_reads("solution") | _reads("fin_result"))
        pipe.refs()
        assert "s_active" not in builds and len(builds) == len(set(builds))

    def test_solve_svm_builds_no_split_and_no_w_fin(self, builds, tmp_path):
        data = tmp_path / "ds.json"
        assert cli.main(["gen-data", "--K", "5", "--d", "6", "--n", "6", "--T", "4", "--seed", "3",
                         "--out", str(data)]) == 0
        assert cli.main(["solve-svm", "--data", str(data), "--out", str(tmp_path / "svm.json")]) == 0
        assert sorted(builds) == sorted(_reads("solution") | _reads("s_svm"))
        assert "split" not in builds and "fin_result" not in builds

    def test_active_and_svm_subspaces_built_on_first_read(self, monkeypatch):
        originals = {name: getattr(svm, name) for name in ("active_subspace", "svm_subspace")}

        def unexpected(*args):
            raise AssertionError("built eagerly")

        for name in originals:
            monkeypatch.setattr(svm, name, unexpected)
        pipe = build_pipeline(tiny_instance(44, K=5, d=6, n=6, T=4))

        calls = []
        for name, fn in originals.items():
            monkeypatch.setattr(svm, name, lambda *a, _name=name, _fn=fn: calls.append(_name) or _fn(*a))
        first = pipe.s_svm
        assert sorted(calls) == ["active_subspace", "svm_subspace"]
        assert pipe.s_svm is first
        assert pipe.s_active.dim >= first.dim
        assert len(calls) == 2


def _random_instance_constraints(seed, K=4, d=5, n=3, T=3):
    ds = tiny_instance(seed, K=K, d=d, n=n, T=T)
    cons, tpgs, decomps = _constraints_for(ds)
    return ds, cons, tpgs, decomps


class TestSolver:
    def test_empty_constraints_zero_solution(self):
        table = dsm.make_embeddings(3, 3, dsm.ORTHONORMAL, seed=0)
        cons = constraints_from_edges(table, {})
        sol = svm.solve_graph_svm(cons)
        assert sol.status is svm.SolveStatus.SOLVED
        assert sol.norm == 0.0

    def test_single_halfspace_closed_form(self):
        table = dsm.make_embeddings(4, 4, dsm.ORTHONORMAL, seed=2)
        cons = constraints_from_edges(table, {2: [(0, 1)]})
        assert cons.inequalities.tolist() == [[0, 1, 2]]
        sol = svm.solve_graph_svm(cons)
        want = np.outer(table.e[0] - table.e[1], table.e[2]) / 2.0
        np.testing.assert_allclose(sol.w, want, atol=1e-9)
        assert abs(sol.norm - 1.0 / np.sqrt(2.0)) < 1e-9

    def test_kkt_residuals_across_corpus(self):
        for seed in range(25):
            ds, cons, _, _ = _random_instance_constraints(seed + 100, K=5, d=6, n=4, T=4)
            sol = svm.solve_graph_svm(cons)
            if cons.n_constraints == 0:
                continue
            assert sol.status is svm.SolveStatus.SOLVED
            assert sol.residuals["kkt_residual"] <= svm.KKT_TOL
            assert sol.residuals["max_eq_violation"] <= 1e-6
            assert sol.residuals["min_ineq_margin"] >= 1 - 1e-6
            assert np.all(sol.ineq_multipliers >= 0)

    def test_single_scc_everywhere_gives_zero(self):
        # Every token of every sample shares the label's SCC: no inequalities.
        table = dsm.make_embeddings(3, 4, dsm.UNIT_SPHERE, seed=3)
        ds = dsm.Dataset(
            embedding=table,
            head=None,
            samples=(
                dsm.Sample(tokens=(0, 1, 2), label=0),
                dsm.Sample(tokens=(1, 0, 2), label=1),
                dsm.Sample(tokens=(2, 0, 2), label=2),
            ),
        )
        cons, _, _ = _constraints_for(ds)
        assert cons.inequalities.shape == (0, 3)
        sol = svm.solve_graph_svm(cons)
        assert sol.norm == 0.0

    def test_ill_conditioned_feasible_instance_is_solved(self):
        # Feasible but ill-conditioned (||W_svm|| ~ 147 at unit margin): the
        # kind of instance an early-stopping heuristic misreads as infeasible.
        table = dsm.make_embeddings(8, 4, dsm.UNIT_SPHERE, seed=0)
        ds = dsm.gen_dataset(table, None, n=16, T=6, mode="cyclic", seed=0)
        cons, _, _ = _constraints_for(ds)
        sol = svm.solve_graph_svm(cons)
        assert sol.status is svm.SolveStatus.SOLVED
        assert abs(sol.norm - 147.17) <= 0.01
        assert_certified(cons, sol)

    def test_every_verdict_is_certified(self):
        rng = seeded_rng(31)
        shapes = [(20, 10, 40, 8)] + [
            (int(k), int(rng.integers(2, 11)), int(rng.integers(4, 41)), int(rng.integers(3, 9)))
            for k in rng.integers(4, 21, size=39)
        ]
        seen = {status: 0 for status in svm.SolveStatus}
        for index, (K, d, n, T) in enumerate(shapes):
            table = dsm.make_embeddings(K, d, dsm.UNIT_SPHERE, seed=index)
            ds = dsm.gen_dataset(table, None, n=n, T=T, mode="cyclic", seed=index)
            cons, _, _ = _constraints_for(ds)
            sol = svm.solve_graph_svm(cons)
            assert_certified(cons, sol)
            seen[sol.status] += 1
        assert seen[svm.SolveStatus.SOLVED] >= 5 and seen[svm.SolveStatus.INFEASIBLE] >= 5
        assert sum(d < K for K, d, _, _ in shapes) >= 20

    def test_draw_corpus_verdicts(self):
        # The 600 seeded draws of tools/verdicts.py: the SOLVED / INFEASIBLE
        # split is pinned, and every verdict carries its certificate.
        seen = {status: 0 for status in svm.SolveStatus}
        for shape in verdicts.draws():
            cons = _pinned(*shape)
            sol = svm.solve_graph_svm(cons)
            seen[sol.status] += 1
            assert_certified(cons, sol)
        assert seen == {svm.SolveStatus.SOLVED: 388, svm.SolveStatus.INFEASIBLE: 212, svm.SolveStatus.MAX_ITER: 0}

    def test_w_svm_orthogonal_to_fin(self, cyclic_pipeline):
        pipe = cyclic_pipeline
        assert experiments.fin_overlap(pipe.s_fin, pipe.w_svm) <= 1e-8
        assert np.linalg.norm(pipe.s_fin.project(pipe.w_svm)) <= 1e-8

    def test_w_svm_in_svm_subspace(self, cyclic_pipeline):
        pipe = cyclic_pipeline
        resid = np.linalg.norm(pipe.w_svm - pipe.s_svm.project(pipe.w_svm))
        assert resid <= 1e-7



# A headless cyclic instance drawn with one seed for table and data.
_pinned = verdicts.constraints


class TestNnls(NnlsCertificates):
    def test_refs_sweeps_do_not_grow(self):
        # The benchmark's `refs` corpus took 934 passive-set solves with an
        # updated inverse; the orthogonal factor takes 933.
        assert sum(svm.solve_graph_svm(_pinned(*verdicts.refs_shape(i))).residuals["sweeps"] for i in range(8)) <= 934

    def test_singular_entering_set_is_skipped_not_raised(self):
        # (10, 4, 19, 5), seed 1036: a nearly dependent passive set, on
        # which the final check's exact solve refutes the updates.
        cons = _pinned(10, 4, 19, 5, seed=1036)
        sol = svm.solve_graph_svm(cons)
        assert sol.status is svm.SolveStatus.INFEASIBLE
        assert_certified(cons, sol)

    @pytest.mark.parametrize("K,d,n,T,seed", [(11, 4, 17, 4, 1052), (11, 4, 17, 4, 1280), (7, 4, 14, 6, 1086)])
    def test_undecided_instances_fail_a_check_not_the_cap(self, K, d, n, T, seed):
        # At d < K these converge with ||p|| between the Farkas and the
        # primal regime; MAX_ITER is the only status they may keep unverified.
        cons = _pinned(K, d, n, T, seed)
        sol = svm.solve_graph_svm(cons)
        if sol.status is svm.SolveStatus.MAX_ITER:
            assert sol.residuals["converged"] is True
            assert sol.residuals["sweeps"] < 3 * len(cons.inequalities)
        else:
            assert_certified(cons, sol)

    def test_every_solution_reports_convergence(self):
        table = dsm.make_embeddings(4, 4, dsm.ORTHONORMAL, seed=4)
        # No constraint, one inequality, and an SCC {0, 1} above a sink 3.
        for edges in ({}, {2: [(0, 1)]}, {2: [(0, 1), (1, 0), (0, 3)]}):
            cons = constraints_from_edges(table, edges)
            for sol in (svm.solve_graph_svm(cons), svm.solve_per_last_token(cons)):
                assert sol.residuals["converged"] is True


_UNREDUCED_CASES = verdicts.instances(smoke=True)


def _fresh_refs_shape(i):
    """Draw i of the `refs` shapes from a stream outside the benchmark's
    corpus and warm-up seeds."""
    return (*((20, 20, 60, 8), (20, 10, 40, 8))[i % 2], int(np.random.SeedSequence([25, i]).generate_state(1)[0]))


class TestFreshRefsDraws:
    """`solve_graph_svm` on fresh draws of the `refs` shapes: each verdict
    carries its certificate, and its nearest point p of the constraints'
    convex hull is the one the per-step LU NNLS of
    `helpers.nnls_gram_oracle` finds on the dense projected rows."""

    @pytest.mark.parametrize("i", range(12))
    def test_certified_and_nearest_point_matches_the_oracle(self, i):
        # Not the benchmark's warm-up seed nor one of its corpus seeds.
        corpus = {int(np.random.SeedSequence(e).generate_state(1)[0]) for e in ([0], *([0, j] for j in range(8)))}
        assert _fresh_refs_shape(i)[-1] not in corpus
        cons = _pinned(*_fresh_refs_shape(i))
        sol = svm.solve_graph_svm(cons)
        assert_certified(cons, sol)
        a = projected_inequalities(cons)
        u, _, converged = nnls_gram_oracle(a @ a.T + 1.0)
        assert converged
        want = a.T @ (u / u.sum())
        if sol.status is svm.SolveStatus.INFEASIBLE:
            assert np.linalg.norm(want) <= svm.FARKAS_TOL
        else:
            p = sol.w.ravel() / sol.norm**2
            assert np.linalg.norm(p - want) <= 1e-12 * np.linalg.norm(want)


class TestGram(GramCertificates):
    # The solve's traced peak, in units of the m x m Gram matrix's 8 m^2
    # bytes.  With the passive rows in blocks of 64 that are never copied,
    # it was 0.340-0.351 at the large-k defaults (m = 971-982, seeds 0-2),
    # 0.271 with twice the samples (m = 1944, seed 0) and 0.334 at seed 28,
    # whose passive set ends at 129 rows, just past a power of two; there
    # the presolve set the peak, 0.409, while it padded every graph to the
    # largest (`test_a_large_graph_pads_no_other`).  Buffers that doubled
    # peaked at 0.522-0.547 on all of these, and the dense Gram solve at 1.49.
    PEAK_GRAMS = 0.75

    @pytest.mark.parametrize("n,seed", [(16, 0), (16, 1), (16, 2), (32, 0), (16, 28)],
                             ids=["0", "1", "2", "twice-m", "past-128"])
    def test_large_k_solve_peak_memory(self, n, seed):
        cons = _pinned(1000, 32, n, 64, seed)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            sol = svm.solve_graph_svm(cons)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        m = sol.residuals["essential"]
        assert m > (1800 if n == 32 else 900)
        if seed == 28:
            assert np.count_nonzero(sol.ineq_multipliers) == 129
        assert peak <= self.PEAK_GRAMS * 8 * m * m


def _pinned_pipeline(K, d, n, T, seed):
    """The pipeline of the `_pinned` instance."""
    table = dsm.make_embeddings(K, d, dsm.UNIT_SPHERE, seed=seed)
    return Pipeline(dsm.gen_dataset(table, None, n=n, T=T, mode="cyclic", seed=seed))


class TestFeasibility:
    def test_certificate_for_full_rank_instances(self, monkeypatch):
        forbid_the_solver(monkeypatch)
        for seed in range(20):
            K = 3 + seed % 3
            d = K + seed % 4
            ds = tiny_instance(seed + 200, K=K, d=d, n=4, T=4)
            pipe = Pipeline(ds)
            cons, result = pipe.constraints, pipe.feasibility
            assert result.status is svm.SolveStatus.SOLVED and not len(result.ineq_multipliers)
            assert sorted(result.residuals) == ["max_eq_violation", "min_ineq_margin"]
            w = result.w
            e = ds.embedding.e
            for i, j, k in cons.equalities:
                assert abs((e[i] - e[j]) @ w @ e[k]) <= 1e-6
            for i, j, k in cons.inequalities:
                assert (e[i] - e[j]) @ w @ e[k] >= 1 - 1e-6

    def test_infeasible_verdict_raises_no_warning(self):
        # (K, d, n, T) = (7, 4, 14, 6), seed 1048, headless, cyclic: the NNLS
        # ratio step used to divide at every passive index and warned
        # "divide by zero" here on its way to this same certificate.
        table = dsm.make_embeddings(7, 4, dsm.UNIT_SPHERE, seed=1048)
        cons, _, _ = _constraints_for(dsm.gen_dataset(table, None, n=14, T=6, mode="cyclic", seed=1048))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = svm.solve_graph_svm(cons)
        assert sol.status is svm.SolveStatus.INFEASIBLE
        assert_certified(cons, sol)

    @pytest.mark.parametrize("kind,K,d", [(dsm.ORTHONORMAL, 4, 4), (dsm.UNIT_SPHERE, 6, 3)],
                             ids=["construction", "solver"])
    def test_no_constraints_is_solved_at_zero(self, kind, K, d):
        cons = constraints_from_edges(dsm.make_embeddings(K, d, kind, seed=0), {})
        assert cons.n_constraints == 0 and cons.embedding.full_row_rank == (d >= K)
        result = svm.explicit_solution(cons)
        assert (result is None) == (d < K)
        for sol in filter(None, (result, svm.solve_graph_svm(cons))):
            assert sol.status is svm.SolveStatus.SOLVED and not sol.w.any()

    @staticmethod
    def _assert_the_solver_verdict(cons, result):
        sol = svm.solve_graph_svm(cons)
        assert result.status is sol.status and result.residuals == sol.residuals
        assert result.w.tobytes() == sol.w.tobytes()
        assert result.ineq_multipliers.tobytes() == sol.ineq_multipliers.tobytes()

    @pytest.mark.parametrize("seed", [1052, 1086, 1280])
    def test_an_undecided_solve_is_not_a_refutation(self, seed):
        # d < K: the pipeline's own solve decides, and here it ends
        # MAX_ITER, which refutes nothing.
        pipe = _pinned_pipeline(*_UNREDUCED_CASES[f"pinned-{seed}"])
        result = pipe.feasibility
        assert result is pipe.solution and result.status is svm.SolveStatus.MAX_ITER
        self._assert_the_solver_verdict(pipe.constraints, result)
        sweeps = result.residuals["sweeps"]
        with pytest.raises(NoConvergence, match=f"feasibility check returned max_iter .*sweeps {sweeps}"):
            result.require("feasibility check")

    @pytest.mark.parametrize("seed", [1036, 1251])
    def test_a_refutation_keeps_its_farkas_weights(self, seed):
        pipe = _pinned_pipeline(*_UNREDUCED_CASES[f"pinned-{seed}"])
        result = pipe.feasibility
        assert result is pipe.solution and result.status is svm.SolveStatus.INFEASIBLE
        self._assert_the_solver_verdict(pipe.constraints, result)
        assert_certified(pipe.constraints, result)


class TestStatusPropagation:
    def test_refs_refuse_an_unsolved_w_svm(self):
        table = dsm.make_embeddings(6, 2, dsm.UNIT_SPHERE, seed=1)
        pipe = build_pipeline(dsm.gen_dataset(table, None, n=4, T=4, mode="cyclic", seed=1))
        assert pipe.solution.status is svm.SolveStatus.INFEASIBLE
        with pytest.raises(NoConvergence, match="infeasible"):
            pipe.refs()


class TestBenchmarkContract:
    """perfbench/tracing.py counts solves off what `solve_graph_svm`
    returns, so a `Solution` that stopped carrying what it reads fails
    here, not only in the benchmark's smoke run."""

    @pytest.mark.parametrize("name,status", [("refs-0", svm.SolveStatus.SOLVED),
                                             ("pinned-1036", svm.SolveStatus.INFEASIBLE)])
    def test_count_solve_reads_the_solution(self, name, status):
        tracing = load_tool("tracing", "perfbench")
        sol = svm.solve_graph_svm(_pinned(*_UNREDUCED_CASES[name]))
        assert sol.status is status and sol.residuals["sweeps"] > 0
        counts = collections.defaultdict(int)
        tracing._count_solve(counts, (), {}, sol)
        assert dict(counts) == {"svm.sweeps": sol.residuals["sweeps"], "svm.solves": 1,
                                "svm.solved": int(status is svm.SolveStatus.SOLVED)}


class TestPerLastToken:
    def test_rejects_non_orthonormal(self):
        ds = tiny_instance(5, K=4, d=5, n=3, T=3)
        cons, _, _ = _constraints_for(ds)
        with pytest.raises(NotOrthonormal):
            svm.solve_per_last_token(cons)

    def _orthonormal_instance(self, seed, K=6, d=6, n=4, T=4):
        table = dsm.make_embeddings(K, d, dsm.ORTHONORMAL, seed=seed)
        head = dsm.make_head(table, dsm.TIED)
        ds = dsm.gen_dataset(table, head, n=n, T=T, mode="cyclic", seed=seed)
        cons, tpgs, decomps = _constraints_for(ds)
        return ds, cons

    def test_sum_matches_joint_solve(self):
        for seed in range(10):
            ds, cons = self._orthonormal_instance(seed + 300)
            joint = svm.solve_graph_svm(cons)
            split = svm.solve_per_last_token(cons)
            assert np.linalg.norm(joint.w - split.w) <= 1e-6

    def test_single_last_token_identical(self):
        ds, cons = self._orthonormal_instance(301, n=3)
        k = cons.last_tokens[0]
        sub = cons.restrict_to_last_token(k)
        joint = svm.solve_graph_svm(sub)
        split = svm.solve_per_last_token(sub)
        np.testing.assert_allclose(joint.w, split.w, atol=1e-9)

    def test_per_k_solutions_mutually_orthogonal(self):
        ds, cons = self._orthonormal_instance(302, K=6, d=6, n=5, T=4)
        parts = {
            k: svm.solve_graph_svm(cons.restrict_to_last_token(k)).w
            for k in cons.last_tokens
        }
        keys = list(parts)
        for a in range(len(keys)):
            for b in range(a + 1, len(keys)):
                assert abs(np.sum(parts[keys[a]] * parts[keys[b]])) <= 1e-10


class TestChangeOfBasis:
    def test_token_coordinate_solution_maps_back(self):
        # E with orthonormal rows inside R^d: solving over one-hot tokens and
        # conjugating by E reproduces the embedded solution.
        K, d = 4, 6
        table = dsm.make_embeddings(K, d, dsm.ORTHONORMAL, seed=6)
        head = dsm.make_head(table, dsm.TIED)
        ds = dsm.gen_dataset(table, head, n=4, T=3, mode="cyclic", seed=6)
        cons, tpgs, decomps = _constraints_for(ds)

        onehot = dsm.EmbeddingTable(e=np.eye(K), kind=dsm.ORTHONORMAL, rank=K)
        cons_tok = dataclasses.replace(cons, embedding=onehot)
        sol_embedded = svm.solve_graph_svm(cons)
        sol_token = svm.solve_graph_svm(cons_tok)
        mapped = table.e.T @ sol_token.w @ table.e
        assert np.linalg.norm(mapped - sol_embedded.w) <= 1e-6
