"""Graph construction, SCC decomposition and its reachability, priority
levels, and the cyclic split.  Pair relations are read off the dense
reachability closure of tests/helpers.py, which shares no code with the
library's Tarjan pass."""

import pytest

from attnlab import dataset as dsm
from attnlab import graph as gm
from attnlab.errors import SchemaViolation
from attnlab.util import seeded_rng

from helpers import classify_pair, partition_by_mutual_reachability, random_tpg, tiny_instance


def _dataset_from_samples(K, samples, d=None, seed=0):
    table = dsm.make_embeddings(K, d or K, dsm.ORTHONORMAL, seed=seed)
    return dsm.Dataset(
        embedding=table,
        head=dsm.make_head(table, dsm.TIED),
        samples=tuple(dsm.Sample(tokens=tuple(t), label=y) for t, y in samples),
    )


class TestBuildTpgs:
    def test_single_sample_edges(self):
        ds = _dataset_from_samples(4, [((1, 2, 3), 1)])
        tpgs = gm.build_tpgs(ds)
        assert set(tpgs) == {3}
        assert sorted(tpgs[3].edge_list()) == [(1, 2), (1, 3)]

    def test_self_loops_dropped(self):
        ds = _dataset_from_samples(3, [((2, 2), 2)])
        tpgs = gm.build_tpgs(ds)
        assert tpgs[2].nodes == frozenset({2})
        assert tpgs[2].edge_list() == []

    def test_two_opposing_samples_make_a_cycle(self):
        ds = _dataset_from_samples(4, [((1, 2, 3), 1), ((2, 1, 3), 2)])
        g = gm.build_tpgs(ds)[3]
        assert 2 in g.edges[1] and 1 in g.edges[2]
        decomp = gm.scc(g)
        assert decomp.comp_of[1] == decomp.comp_of[2]


class TestScc:
    def test_isolated_node(self):
        g = gm.TokenPriorityGraph(last_token=0, nodes=frozenset({5}), edges={})
        decomp = gm.scc(g)
        assert decomp.components == (frozenset({5}),)
        assert decomp.topo_levels[0] == 1

    def test_two_cycle(self):
        g = gm.TokenPriorityGraph(
            last_token=0,
            nodes=frozenset({1, 2}),
            edges={1: frozenset({2}), 2: frozenset({1})},
        )
        decomp = gm.scc(g)
        assert decomp.components == (frozenset({1, 2}),)

    def test_matches_reachability_oracle_on_random_graphs(self):
        rng = seeded_rng(77)
        for _ in range(500):
            n_nodes = int(rng.integers(1, 13))
            g = random_tpg(rng, n_nodes, float(rng.uniform(0.03, 0.6)))
            decomp = gm.scc(g)
            got = sorted(sorted(c) for c in decomp.components)
            want = sorted(sorted(c) for c in partition_by_mutual_reachability(g.nodes, g.edge_list()))
            assert got == want

    def test_partition_property(self):
        rng = seeded_rng(3)
        for _ in range(50):
            g = random_tpg(rng, int(rng.integers(2, 11)), 0.3)
            decomp = gm.scc(g)
            assert sum(len(c) for c in decomp.components) == len(g.nodes)
            assert set().union(*decomp.components) == set(g.nodes)

    def test_condensation_is_acyclic(self):
        # Kahn's algorithm on the reachability relation, which is acyclic
        # exactly when the condensation is, must consume every component.
        rng = seeded_rng(4)
        for _ in range(50):
            g = random_tpg(rng, int(rng.integers(2, 11)), 0.4)
            decomp = gm.scc(g)
            indeg = {c: 0 for c in range(decomp.n_components)}
            for c, outs in decomp.reachable.items():
                for s in outs:
                    indeg[s] += 1
            queue = [c for c, deg in indeg.items() if deg == 0]
            seen = 0
            while queue:
                c = queue.pop()
                seen += 1
                for s in decomp.reachable[c]:
                    indeg[s] -= 1
                    if indeg[s] == 0:
                        queue.append(s)
            assert seen == decomp.n_components

    def test_edge_levels_consistent(self):
        rng = seeded_rng(5)
        for _ in range(50):
            g = random_tpg(rng, int(rng.integers(2, 11)), 0.35)
            decomp = gm.scc(g)
            for i, j in g.edge_list():
                ci, cj = decomp.comp_of[i], decomp.comp_of[j]
                if ci == cj:
                    assert decomp.topo_levels[ci] == decomp.topo_levels[cj]
                else:
                    assert decomp.topo_levels[ci] > decomp.topo_levels[cj]


def _pair(decomp, i, j):
    """'same', 'ij', 'ji' or 'none' from the decomposition's components and
    reachable sets, in the vocabulary of helpers.classify_pair."""
    ci, cj = decomp.comp_of[i], decomp.comp_of[j]
    if ci == cj:
        return "same"
    if cj in decomp.reachable[ci]:
        return "ij"
    if ci in decomp.reachable[cj]:
        return "ji"
    return "none"


class TestRelation:
    def _chain(self):
        return gm.TokenPriorityGraph(
            last_token=0,
            nodes=frozenset({1, 2, 3}),
            edges={1: frozenset({2}), 2: frozenset({3})},
        )

    def test_chain_is_transitively_strict(self):
        decomp = gm.scc(self._chain())
        assert _pair(decomp, 1, 3) == "ij"
        assert _pair(decomp, 3, 1) == "ji"

    def test_isolated_nodes_unrelated(self):
        g = gm.TokenPriorityGraph(last_token=0, nodes=frozenset({4, 7}), edges={})
        decomp = gm.scc(g)
        assert _pair(decomp, 4, 7) == "none"

    def test_trichotomy(self):
        # Reachability is strict between components: no component reaches
        # itself, and no two reach each other.
        rng = seeded_rng(6)
        for _ in range(60):
            g = random_tpg(rng, int(rng.integers(2, 10)), 0.35)
            decomp = gm.scc(g)
            for c, down in decomp.reachable.items():
                assert c not in down
                assert all(c not in decomp.reachable[s] for s in down)
            nodes = sorted(g.nodes)
            for i in nodes:
                for j in nodes:
                    if i != j:
                        assert _pair(decomp, i, j) == classify_pair(g.nodes, g.edge_list(), i, j)


class TestIsAcyclic:
    def test_acyclic_dataset(self):
        ds = tiny_instance(9, K=5, d=5, n=5, T=4, mode="acyclic")
        for g in gm.build_tpgs(ds).values():
            assert all(len(c) == 1 for c in partition_by_mutual_reachability(g.nodes, g.edge_list()))
            assert all(len(c) == 1 for c in gm.scc(g).components)

    def test_two_cycle_not_acyclic(self):
        ds = _dataset_from_samples(4, [((1, 2, 3), 1), ((2, 1, 3), 2)])
        g = gm.build_tpgs(ds)[3]
        assert frozenset({1, 2}) in partition_by_mutual_reachability(g.nodes, g.edge_list())
        assert frozenset({1, 2}) in gm.scc(g).components


class TestPriorityAssignment:
    def test_chain_levels(self):
        g = gm.TokenPriorityGraph(
            last_token=0,
            nodes=frozenset({1, 2, 3}),
            edges={1: frozenset({2}), 2: frozenset({3})},
        )
        m = gm.priority_assignment(gm.scc(g))
        assert m == {1: 3, 2: 2, 3: 1}

    def test_single_scc_constant(self):
        g = gm.TokenPriorityGraph(
            last_token=0,
            nodes=frozenset({0, 1, 2, 3}),
            edges={0: frozenset({1}), 1: frozenset({2}), 2: frozenset({3}), 3: frozenset({0})},
        )
        m = gm.priority_assignment(gm.scc(g))
        assert len(set(m.values())) == 1

    def test_constraints_hold_on_random_graphs(self):
        rng = seeded_rng(8)
        for _ in range(60):
            g = random_tpg(rng, int(rng.integers(2, 10)), 0.3)
            decomp = gm.scc(g)
            m = gm.priority_assignment(decomp)
            nodes = sorted(g.nodes)
            for i in nodes:
                for j in nodes:
                    if i == j:
                        continue
                    rel = classify_pair(g.nodes, g.edge_list(), i, j)
                    if rel == "ij":
                        assert m[i] > m[j]
                    elif rel == "same":
                        assert m[i] == m[j]


def _sets(ds):
    return dsm.index_sets(ds, gm.decompose_all(gm.build_tpgs(ds)))


class TestCyclicSplit:
    def test_acyclic_gives_empty_subdataset(self):
        ds = tiny_instance(10, K=5, d=5, n=6, T=4, mode="acyclic")
        split = gm.cyclic_split(ds, _sets(ds))
        assert split.empty
        assert split.idx_i == () and split.positions == ()
        assert split.dataset is ds

    def test_everything_in_one_scc_keeps_dataset(self):
        # Mutually cyclic labels over a shared context: nothing is removed.
        ds = _dataset_from_samples(3, [((0, 1, 2), 0), ((1, 0, 2), 1), ((2, 0, 2), 2)])
        split = gm.cyclic_split(ds, _sets(ds))
        assert split.idx_i == (0, 1, 2)
        assert split.positions == ((0, 1, 2),) * 3

    def test_keep_rule_matches_relation_oracle(self):
        for seed in range(15):
            ds = tiny_instance(seed + 50, K=5, d=6, n=6, T=5)
            tpgs = gm.build_tpgs(ds)
            decomps = gm.decompose_all(tpgs)
            split = gm.cyclic_split(ds, dsm.index_sets(ds, decomps))
            kept = dict(zip(split.idx_i, split.positions))
            for i, s in enumerate(ds.samples):
                g = tpgs[s.last_token]
                expected = [
                    tok
                    for tok in s.tokens
                    if tok == s.label or classify_pair(g.nodes, g.edge_list(), s.label, tok) == "same"
                ]
                strict_extra = [t for t in expected if t != s.label]
                if strict_extra:
                    assert i in kept
                    assert [s.tokens[t] for t in kept[i]] == expected
                else:
                    assert i not in kept

    def test_non_realizable_sample_is_rejected(self):
        # samples[2] has label 3 outside its tokens: its loss is -log 0, which
        # the split used to file under the saturated samples.
        table = dsm.make_embeddings(4, 4, dsm.UNIT_SPHERE, seed=0)
        ds = dsm.Dataset(embedding=table, head=dsm.make_head(table, dsm.TIED), samples=(
            dsm.Sample(tokens=(0, 1, 2), label=0), dsm.Sample(tokens=(1, 0, 2), label=1),
            dsm.Sample(tokens=(2, 1, 2), label=3), dsm.Sample(tokens=(0, 2, 1), label=2)))
        with pytest.raises(SchemaViolation, match=r"samples\[2\]"):
            gm.cyclic_split(ds, _sets(ds))

    def test_removed_positions_are_strictly_dominated(self):
        ds = tiny_instance(31, K=4, d=5, n=8, T=6)
        tpgs = gm.build_tpgs(ds)
        decomps = gm.decompose_all(tpgs)
        sets = dsm.index_sets(ds, decomps)
        split = gm.cyclic_split(ds, sets)
        for i in range(ds.n):
            s = ds.samples[i]
            g = tpgs[s.last_token]
            for t in range(s.T):
                removed = t in sets.rbar[i]
                rel = classify_pair(g.nodes, g.edge_list(), s.label, s.tokens[t]) if s.tokens[t] != s.label else None
                assert removed == (rel == "ij")


class TestExports:
    def test_dict_and_dot_exports(self):
        ds = tiny_instance(2, K=4, d=4, n=4, T=3)
        tpgs = gm.build_tpgs(ds)
        desc = gm.graphs_as_dict(tpgs, gm.decompose_all(tpgs))
        for key, entry in desc.items():
            assert entry["last_token"] == int(key)
            assert sum(len(c) for c in entry["components"]) == len(entry["nodes"])
        dot = gm.graphs_as_dot(tpgs)
        assert dot.startswith("digraph") and "->" in dot
