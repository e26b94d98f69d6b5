"""Embedding tables, heads, generators, index sets, and dataset I/O."""

import json

import numpy as np
import pytest

from attnlab import analysis, attention, experiments
from attnlab import dataset as dsm
from attnlab import graph as gm
from attnlab.errors import ArgmaxUnreachable, GraphMismatch, InvalidDims, RankDeficient, SchemaViolation

from helpers import classify_pair, index_sets_oracle, partition_by_mutual_reachability, tiny_instance, trial_build


class TestEmbeddings:
    def test_orthonormal_rows_are_identity_gram(self):
        table = dsm.make_embeddings(3, 3, dsm.ORTHONORMAL, seed=0)
        np.testing.assert_allclose(table.e @ table.e.T, np.eye(3), atol=1e-10)

    def test_orthonormal_various_shapes(self):
        for K, d in [(2, 5), (4, 4), (7, 12)]:
            table = dsm.make_embeddings(K, d, dsm.ORTHONORMAL, seed=3)
            np.testing.assert_allclose(table.e @ table.e.T, np.eye(K), atol=1e-10)
            assert table.full_row_rank

    def test_orthonormal_needs_k_le_d(self):
        with pytest.raises(InvalidDims):
            dsm.make_embeddings(5, 3, dsm.ORTHONORMAL, seed=0)

    def test_unit_sphere_single_row(self):
        table = dsm.make_embeddings(1, 4, dsm.UNIT_SPHERE, seed=7)
        assert table.e.shape == (1, 4)
        assert abs(np.linalg.norm(table.e[0]) - 1.0) < 1e-12

    def test_unit_sphere_rows_unit_norm(self):
        table = dsm.make_embeddings(10, 6, dsm.UNIT_SPHERE, seed=2)
        np.testing.assert_allclose(np.linalg.norm(table.e, axis=1), 1.0, atol=1e-12)

    def test_unit_sphere_full_rank_over_seeds(self):
        # Independent SVD oracle on every draw.
        for seed in range(100):
            table = dsm.make_embeddings(8, 8, dsm.UNIT_SPHERE, seed=seed)
            sv = np.linalg.svd(table.e, compute_uv=False)
            assert np.sum(sv > 1e-10) == 8

    def test_deterministic_per_seed(self):
        a = dsm.make_embeddings(5, 7, dsm.UNIT_SPHERE, seed=42)
        b = dsm.make_embeddings(5, 7, dsm.UNIT_SPHERE, seed=42)
        c = dsm.make_embeddings(5, 7, dsm.UNIT_SPHERE, seed=43)
        np.testing.assert_array_equal(a.e, b.e)
        assert not np.array_equal(a.e, c.e)

    def test_e_max_matches_exhaustive_row_norms(self):
        table = dsm.make_embeddings(6, 5, dsm.UNIT_SPHERE, seed=9)
        exhaustive = max(float(np.linalg.norm(row)) for row in table.e)
        assert abs(table.e_max - exhaustive) < 1e-14


class TestHeads:
    def test_tied_head_equals_e_for_orthonormal(self):
        table = dsm.make_embeddings(4, 6, dsm.ORTHONORMAL, seed=1)
        head = dsm.make_head(table, dsm.TIED)
        np.testing.assert_allclose(head.c, table.e, atol=1e-12)

    def test_tied_head_defining_equation(self):
        table = dsm.make_embeddings(5, 7, dsm.UNIT_SPHERE, seed=4)
        head = dsm.make_head(table, dsm.TIED)
        err = np.max(np.abs(head.c @ table.e.T - np.eye(5)))
        assert err <= 1e-10

    def test_tied_head_rejects_rank_deficient(self):
        table = dsm.make_embeddings(6, 3, dsm.UNIT_SPHERE, seed=0)
        assert not table.full_row_rank
        with pytest.raises(RankDeficient):
            dsm.make_head(table, dsm.TIED)

    def test_general_argmax_head(self):
        table = dsm.make_embeddings(4, 4, dsm.UNIT_SPHERE, seed=8)
        head = dsm.make_head(table, dsm.GENERAL_ARGMAX, noise=0.1, seed=8)
        scores = head.c @ table.e.T
        # Exhaustive check over all (y, k) pairs.
        for y in range(4):
            for k in range(4):
                if k != y:
                    assert scores[y, y] > scores[y, k] + 1e-6

    def test_general_argmax_unit_rows(self):
        table = dsm.make_embeddings(5, 5, dsm.UNIT_SPHERE, seed=8)
        head = dsm.make_head(table, dsm.GENERAL_ARGMAX, noise=0.2, seed=8, unit_rows=True)
        np.testing.assert_allclose(np.linalg.norm(head.c, axis=1), 1.0, atol=1e-12)
        scores = head.c @ table.e.T
        assert np.all(np.argmax(scores, axis=1) == np.arange(5))

    def test_argmax_unreachable_after_64_draws(self):
        # Overwhelming noise makes the per-row argmax essentially uniform, so
        # all 64 attempts fail for a vocabulary this large.
        table = dsm.make_embeddings(8, 8, dsm.UNIT_SPHERE, seed=1)
        with pytest.raises(ArgmaxUnreachable):
            dsm.make_head(table, dsm.GENERAL_ARGMAX, noise=1e6, seed=0)


class TestGeneration:
    def test_cyclic_labels_realizable(self):
        ds = tiny_instance(3, K=6, d=6, n=20, T=4, mode="cyclic")
        assert all(s.realizable for s in ds.samples)

    def test_acyclic_mode_yields_acyclic_tpgs(self):
        for seed in range(100):
            ds = tiny_instance(seed, K=5, d=5, n=5, T=4, mode="acyclic", head_kind="none")
            for g in gm.build_tpgs(ds).values():
                assert all(len(c) == 1 for c in partition_by_mutual_reachability(g.nodes, g.edge_list()))

    def test_generation_deterministic(self):
        a = tiny_instance(12, K=6, d=6, n=6, T=4)
        b = tiny_instance(12, K=6, d=6, n=6, T=4)
        assert a.samples == b.samples

    def test_token_range(self):
        ds = tiny_instance(0, K=3, d=4, n=10, T=5)
        assert all(0 <= t < 3 for s in ds.samples for t in s.tokens)


class TestIndexSets:
    def test_all_label_sample(self):
        table = dsm.make_embeddings(3, 3, dsm.ORTHONORMAL, seed=0)
        ds = dsm.Dataset(
            embedding=table,
            head=dsm.make_head(table, dsm.TIED),
            samples=(dsm.Sample(tokens=(1, 1, 1), label=1),),
        )
        tpgs = gm.build_tpgs(ds)
        sets = dsm.index_sets(ds, gm.decompose_all(tpgs))
        assert sets.o[0] == (0, 1, 2)
        assert sets.r[0] == (0, 1, 2)
        assert sets.rbar[0] == ()

    def test_acyclic_dataset_r_equals_o(self):
        ds = tiny_instance(5, K=5, d=5, n=6, T=4, mode="acyclic")
        sets = dsm.index_sets(ds, gm.decompose_all(gm.build_tpgs(ds)))
        assert sets.r == sets.o

    def test_mixed_sample_matches_reachability_oracle(self):
        for seed in range(20):
            ds = tiny_instance(seed, K=5, d=6, n=6, T=5)
            tpgs = gm.build_tpgs(ds)
            sets = dsm.index_sets(ds, gm.decompose_all(tpgs))
            for i, s in enumerate(ds.samples):
                g = tpgs[s.last_token]
                for t, tok in enumerate(s.tokens):
                    if tok == s.label:
                        expect_r = True
                    else:
                        expect_r = classify_pair(g.nodes, g.edge_list(), tok, s.label) == "same"
                    assert (t in sets.r[i]) == expect_r
                    assert (t in sets.o[i]) == (tok == s.label)

    def test_refs_draws_match_a_position_oracle(self):
        for i in range(8):
            K, d, n, T = ((20, 20, 60, 8), (20, 10, 40, 8))[i % 2]
            seed = int(np.random.SeedSequence([0, i]).generate_state(1)[0])
            table = dsm.make_embeddings(K, d, dsm.UNIT_SPHERE, seed=seed)
            ds = dsm.gen_dataset(table, None, n=n, T=T, mode="cyclic", seed=seed)
            tpgs = gm.build_tpgs(ds)
            assert dsm.index_sets(ds, gm.decompose_all(tpgs)) == index_sets_oracle(ds, tpgs)

    def test_pseudo_graphs_match_a_position_oracle(self):
        # Three local-squared trials after 50 steps: their pseudo graphs
        # merge labels into SCCs that the dataset's own graphs keep apart.
        cfg = experiments.ExperimentConfig("local-squared", {"iters": 50}, {}, 0).resolved()
        built = [trial_build("local", params, seed) for params, seed in experiments.seeded_jobs(cfg.params, cfg.seed, 3)]
        traces = attention.train_block([b[0] for b in built], built[0][1], [b[2] for b in built])
        moved = 0
        for (ds, *_), trace in zip(built, traces):
            pseudo = analysis.pseudo_tpgs(trace.w_final, ds, eps=cfg.params["eps"])
            sets = dsm.index_sets(ds, gm.decompose_all(pseudo))
            assert sets == index_sets_oracle(ds, pseudo)
            moved += sets != dsm.index_sets(ds, gm.decompose_all(gm.build_tpgs(ds)))
        assert moved > 0

    def test_label_off_its_pseudo_graph_keeps_only_its_own_positions(self):
        # Sample 0's label 3 is not among its tokens and no source names it,
        # so it is no node of the graph of last token 2.
        table = dsm.make_embeddings(4, 4, dsm.ORTHONORMAL, seed=0)
        ds = dsm.Dataset(embedding=table, head=None, samples=(
            dsm.Sample(tokens=(0, 1, 2), label=3),
            dsm.Sample(tokens=(1, 0, 2), label=1),
        ))
        pseudo = gm.build_tpgs(ds, sources=[(0, 1), (1,)])
        assert 3 not in pseudo[2].nodes
        sets = dsm.index_sets(ds, gm.decompose_all(pseudo))
        assert sets == index_sets_oracle(ds, pseudo)
        assert sets.o == ((), (0,)) and sets.r == ((), (0, 1)) and sets.rbar == ((0, 1, 2), (2,))

    def test_graph_mismatch_raises(self):
        ds = tiny_instance(7, K=5, d=6, n=4, T=4)
        tpgs = gm.build_tpgs(ds)
        missing = {k: g for k, g in tpgs.items() if k != ds.samples[0].last_token}
        with pytest.raises(GraphMismatch):
            dsm.index_sets(ds, gm.decompose_all(missing))

    def test_rbar_tokens_strictly_dominated(self):
        ds = tiny_instance(2, K=5, d=6, n=8, T=4)
        tpgs = gm.build_tpgs(ds)
        sets = dsm.index_sets(ds, gm.decompose_all(tpgs))
        for i, s in enumerate(ds.samples):
            g = tpgs[s.last_token]
            for t in sets.rbar[i]:
                assert classify_pair(g.nodes, g.edge_list(), s.label, s.tokens[t]) == "ij"

    def test_tied_score_vector_property(self):
        # gamma = X c_y must be exactly one-hot on label positions.
        for seed in range(100):
            kind = dsm.UNIT_SPHERE if seed % 2 else dsm.ORTHONORMAL
            table = dsm.make_embeddings(4, 5, kind, seed=seed)
            head = dsm.make_head(table, dsm.TIED)
            ds = dsm.gen_dataset(table, head, n=3, T=4, mode="cyclic", seed=seed)
            for s in ds.samples:
                x = table.e[list(s.tokens)]
                gamma = x @ head.c[s.label]
                want = np.array([1.0 if t == s.label else 0.0 for t in s.tokens])
                np.testing.assert_allclose(gamma, want, atol=1e-10)


class TestDatasetIO:
    def test_roundtrip(self, tmp_path):
        ds = tiny_instance(6, K=5, d=6, n=5, T=4)
        path = tmp_path / "ds.json"
        dsm.save_dataset(ds, str(path))
        back = dsm.load_dataset(str(path))
        assert back.samples == ds.samples
        np.testing.assert_array_equal(back.embedding.e, ds.embedding.e)
        np.testing.assert_array_equal(back.head.c, ds.head.c)
        assert back.seed == ds.seed and back.embedding.kind == ds.embedding.kind

    def test_roundtrip_headless(self, tmp_path):
        ds = tiny_instance(6, K=5, d=3, n=4, T=3, head_kind="none")
        path = tmp_path / "ds.json"
        dsm.save_dataset(ds, str(path))
        back = dsm.load_dataset(str(path))
        assert back.head is None
        assert back.samples == ds.samples

    def test_bad_token_id_names_sample(self, tmp_path):
        ds = tiny_instance(1, K=3, d=4, n=2, T=3)
        path = tmp_path / "ds.json"
        dsm.save_dataset(ds, str(path))
        raw = json.loads(path.read_text())
        raw["samples"][1]["tokens"][0] = 99
        path.write_text(json.dumps(raw))
        with pytest.raises(SchemaViolation, match=r"samples\[1\].tokens\[0\]"):
            dsm.load_dataset(str(path))

    def test_nonrealizable_sample_flagged(self, tmp_path):
        ds = tiny_instance(1, K=4, d=4, n=2, T=3)
        path = tmp_path / "ds.json"
        dsm.save_dataset(ds, str(path))
        raw = json.loads(path.read_text())
        raw["samples"][0]["label"] = next(
            k for k in range(4) if k not in raw["samples"][0]["tokens"]
        )
        path.write_text(json.dumps(raw))
        with pytest.warns(UserWarning, match="non-realizable"):
            back = dsm.load_dataset(str(path))
        assert back.n_unrealizable == 1
        assert not back.samples[0].realizable

    @pytest.mark.parametrize("field, where", [
        ("K", "^K:"),
        ("d", "^d:"),
        ("token", r"^samples\[0\]\.tokens\[1\]:"),
        ("label", r"^samples\[0\]\.label:"),
    ], ids=["K", "d", "token", "label"])
    def test_json_booleans_are_not_ints(self, tmp_path, field, where):
        ds = tiny_instance(1, K=3, d=4, n=2, T=3)
        path = tmp_path / "ds.json"
        dsm.save_dataset(ds, str(path))
        raw = json.loads(path.read_text())
        if field == "token":
            raw["samples"][0]["tokens"][1] = True
        elif field == "label":
            raw["samples"][0]["label"] = False
        else:
            raw[field] = True
        path.write_text(json.dumps(raw))
        with pytest.raises(SchemaViolation, match=where):
            dsm.load_dataset(str(path))

    @pytest.mark.parametrize("field, where", [
        ("nan_embedding", "^embeddings:"),
        ("inf_head", r"^head\.C:"),
        ("long_row", r"^embeddings\[1\]:"),
        ("orthonormal_row", r"^embeddings\[0\]:"),
        ("float_seed", "^seed:"),
    ], ids=["nan_embedding", "inf_head", "long_row", "orthonormal_row", "float_seed"])
    def test_values_checked_at_load(self, tmp_path, field, where):
        ds = tiny_instance(1, K=4, d=4, n=2, T=3)
        path = tmp_path / "ds.json"
        dsm.save_dataset(ds, str(path))
        raw = json.loads(path.read_text())
        if field == "nan_embedding":
            raw["embeddings"][2][0] = float("nan")
        elif field == "inf_head":
            raw["head"]["C"][0][1] = float("inf")
        elif field == "long_row":
            raw["embeddings"][1] = [3.0, 0.0, 0.0, 0.0]
        elif field == "orthonormal_row":
            # Off unit norm by 1e-8, past the 1e-9 load tolerance.
            raw["kind"] = dsm.ORTHONORMAL
            raw["embeddings"][0] = [v * (1 + 1e-8) for v in raw["embeddings"][0]]
        else:
            raw["seed"] = 1.7
        path.write_text(json.dumps(raw))
        with pytest.raises(SchemaViolation, match=where):
            dsm.load_dataset(str(path))

    @pytest.mark.parametrize("field, row, value, where", [
        ("embeddings", 1, [1.0], r"^embeddings\[1\]:"),
        ("embeddings", 2, ["a", 0.0, 0.0, 1.0], r"^embeddings\[2\]:"),
        ("embeddings", 1, [True, False, False, False], r"^embeddings\[1\]:"),
        ("embeddings", 0, 1.0, r"^embeddings\[0\]:"),
        ("C", 1, [1.0, 0.0], r"^head\.C\[1\]:"),
        ("C", 0, [True, False, False, False], r"^head\.C\[0\]:"),
    ], ids=["ragged_embedding", "string_embedding", "bool_embedding", "scalar_row",
            "ragged_head", "bool_head"])
    def test_matrix_rows_named_at_load(self, tmp_path, field, row, value, where):
        # Booleans would load as 1.0 / 0.0 and pass the unit-norm check.
        ds = tiny_instance(1, K=4, d=4, n=2, T=3)
        path = tmp_path / "ds.json"
        dsm.save_dataset(ds, str(path))
        raw = json.loads(path.read_text())
        (raw["head"] if field == "C" else raw)[field][row] = value
        path.write_text(json.dumps(raw))
        with pytest.raises(SchemaViolation, match=where):
            dsm.load_dataset(str(path))

    def test_missing_embedding_row_names_field(self, tmp_path):
        ds = tiny_instance(1, K=4, d=4, n=2, T=3)
        path = tmp_path / "ds.json"
        dsm.save_dataset(ds, str(path))
        raw = json.loads(path.read_text())
        del raw["embeddings"][3]
        path.write_text(json.dumps(raw))
        with pytest.raises(SchemaViolation, match=r"^embeddings: expected shape \(4, 4\)"):
            dsm.load_dataset(str(path))
