"""Graph construction, SCC decomposition and its reachability, priority
levels, and the cyclic split.  Components, levels and pair relations are
checked against tests/helpers.py, whose depth-first search from each node
shares no code with the library's batched closure."""

import numpy as np
import pytest

from attnlab import dataset as dsm
from attnlab import graph as gm
from attnlab.errors import SchemaViolation
from attnlab.util import seeded_rng

from helpers import (
    classify_pair,
    longest_path_levels,
    partition_by_mutual_reachability,
    random_tpg,
    reachability_matrix,
    tiny_instance,
)


def _decompose(g):
    """The decomposition of one graph, through the library's entry point."""
    return gm.decompose_all({g.last_token: g})[g.last_token]


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
        decomp = _decompose(g)
        assert decomp.comp_of[1] == decomp.comp_of[2]


class TestScc:
    def test_isolated_node(self):
        g = gm.TokenPriorityGraph(last_token=0, nodes=frozenset({5}), edges={})
        decomp = _decompose(g)
        assert decomp.components == (frozenset({5}),)
        assert gm.priority_assignment(decomp) == {5: 1}

    def test_two_cycle(self):
        g = gm.TokenPriorityGraph(
            last_token=0,
            nodes=frozenset({1, 2}),
            edges={1: frozenset({2}), 2: frozenset({1})},
        )
        decomp = _decompose(g)
        assert decomp.components == (frozenset({1, 2}),)

    def test_matches_reachability_oracle_on_random_graphs(self):
        rng = seeded_rng(77)
        for _ in range(500):
            n_nodes = int(rng.integers(1, 13))
            g = random_tpg(rng, n_nodes, float(rng.uniform(0.03, 0.6)))
            decomp = _decompose(g)
            got = sorted(sorted(c) for c in decomp.components)
            want = sorted(sorted(c) for c in partition_by_mutual_reachability(g.nodes, g.edge_list()))
            assert got == want

    def test_partition_property(self):
        rng = seeded_rng(3)
        for _ in range(50):
            g = random_tpg(rng, int(rng.integers(2, 11)), 0.3)
            decomp = _decompose(g)
            assert sum(len(c) for c in decomp.components) == len(g.nodes)
            assert set().union(*decomp.components) == set(g.nodes)

    def test_condensation_is_acyclic(self):
        # Kahn's algorithm on the graph's edges between components must
        # consume every component: no cycle crosses two of them.
        rng = seeded_rng(4)
        for _ in range(50):
            g = random_tpg(rng, int(rng.integers(2, 11)), 0.4)
            decomp = _decompose(g)
            succ = {c: set() for c in range(decomp.n_components)}
            for i, j in g.edge_list():
                if decomp.comp_of[i] != decomp.comp_of[j]:
                    succ[decomp.comp_of[i]].add(decomp.comp_of[j])
            indeg = {c: 0 for c in succ}
            for outs in succ.values():
                for s in outs:
                    indeg[s] += 1
            queue = [c for c, deg in indeg.items() if deg == 0]
            seen = 0
            while queue:
                c = queue.pop()
                seen += 1
                for s in succ[c]:
                    indeg[s] -= 1
                    if indeg[s] == 0:
                        queue.append(s)
            assert seen == decomp.n_components

    def test_edge_levels_consistent(self):
        rng = seeded_rng(5)
        for _ in range(50):
            g = random_tpg(rng, int(rng.integers(2, 11)), 0.35)
            decomp = _decompose(g)
            level = gm.priority_assignment(decomp)
            for i, j in g.edge_list():
                if decomp.comp_of[i] == decomp.comp_of[j]:
                    assert level[i] == level[j]
                else:
                    assert level[i] > level[j]

    def test_components_by_level_then_smallest_member(self):
        # Two chains 0 -> 1 and 2 -> 3: the sinks {1} and {3} first, then
        # {0} and {2}, not the order of a depth-first pass.
        g = gm.TokenPriorityGraph(last_token=0, nodes=frozenset(range(4)),
                                  edges={0: frozenset({1}), 2: frozenset({3})})
        decomp = _decompose(g)
        assert decomp.components == (frozenset({1}), frozenset({3}), frozenset({0}), frozenset({2}))
        assert decomp.comp_of == {1: 0, 3: 1, 0: 2, 2: 3}

    def test_padded_stack_matches_oracles(self):
        # One call over graphs of 1 to 64 nodes: each is padded to the
        # largest with isolated nodes, which must not leak into its result.
        rng = seeded_rng(9)
        table = dsm.make_embeddings(1000, 32, dsm.UNIT_SPHERE, seed=0)
        tpgs = dict(gm.build_tpgs(dsm.gen_dataset(table, None, n=16, T=64, mode="cyclic", seed=0)))
        tpgs[1000] = gm.TokenPriorityGraph(last_token=1000, nodes=frozenset({7}), edges={})
        tpgs[1001] = gm.TokenPriorityGraph(last_token=1001, nodes=frozenset({3, 9}), edges={9: frozenset({3})})
        tpgs[1002] = gm.TokenPriorityGraph(last_token=1002, nodes=frozenset({0, 4, 5}), edges={})
        for k in range(1003, 1006):
            tpgs[k] = random_tpg(rng, int(rng.integers(18, 23)), 0.12, k)
        tpgs[1006] = random_tpg(rng, 64, 0.03, 1006)
        sizes = sorted(len(g.nodes) for g in tpgs.values())
        assert sizes[0] == 1 and sizes[1] == 2 and sizes[-1] == 64
        decomps = gm.decompose_all(tpgs)
        assert list(decomps) == list(tpgs)
        for k, g in tpgs.items():
            decomp, nodes = decomps[k], sorted(g.nodes)
            pos = {v: a for a, v in enumerate(nodes)}
            reach = reachability_matrix(len(nodes), [(pos[i], pos[j]) for i, j in g.edge_list()])
            assert decomp.nodes == tuple(nodes)
            assert (decomp.closure == (reach | np.eye(len(nodes), dtype=bool))).all()
            assert set(decomp.components) == set(partition_by_mutual_reachability(g.nodes, g.edge_list()))
            level = gm.priority_assignment(decomp)
            assert level == longest_path_levels(g.nodes, g.edge_list())
            assert [(level[min(c)], min(c)) for c in decomp.components] == sorted(
                (level[min(c)], min(c)) for c in decomp.components)


def _pair(decomp, i, j):
    """'same', 'ij', 'ji' or 'none' from the decomposition's closure, in the
    vocabulary of helpers.classify_pair."""
    a, b = decomp.nodes.index(i), decomp.nodes.index(j)
    fwd, bwd = decomp.closure[a, b], decomp.closure[b, a]
    if fwd and bwd:
        return "same"
    return "ij" if fwd else "ji" if bwd else "none"


class TestRelation:
    def _chain(self):
        return gm.TokenPriorityGraph(
            last_token=0,
            nodes=frozenset({1, 2, 3}),
            edges={1: frozenset({2}), 2: frozenset({3})},
        )

    def test_chain_is_transitively_strict(self):
        decomp = _decompose(self._chain())
        assert _pair(decomp, 1, 3) == "ij"
        assert _pair(decomp, 3, 1) == "ji"

    def test_isolated_nodes_unrelated(self):
        g = gm.TokenPriorityGraph(last_token=0, nodes=frozenset({4, 7}), edges={})
        decomp = _decompose(g)
        assert _pair(decomp, 4, 7) == "none"

    def test_trichotomy(self):
        # Two nodes are in one component exactly when each reaches the
        # other, and every pair relation matches the oracle.
        rng = seeded_rng(6)
        for _ in range(60):
            g = random_tpg(rng, int(rng.integers(2, 10)), 0.35)
            decomp = _decompose(g)
            nodes = sorted(g.nodes)
            for i in nodes:
                for j in nodes:
                    if i != j:
                        assert (_pair(decomp, i, j) == "same") == (decomp.comp_of[i] == decomp.comp_of[j])
                        assert _pair(decomp, i, j) == classify_pair(g.nodes, g.edge_list(), i, j)


class TestIsAcyclic:
    def test_acyclic_dataset(self):
        ds = tiny_instance(9, K=5, d=5, n=5, T=4, mode="acyclic")
        for g in gm.build_tpgs(ds).values():
            assert all(len(c) == 1 for c in partition_by_mutual_reachability(g.nodes, g.edge_list()))
            assert all(len(c) == 1 for c in _decompose(g).components)

    def test_two_cycle_not_acyclic(self):
        ds = _dataset_from_samples(4, [((1, 2, 3), 1), ((2, 1, 3), 2)])
        g = gm.build_tpgs(ds)[3]
        assert frozenset({1, 2}) in partition_by_mutual_reachability(g.nodes, g.edge_list())
        assert frozenset({1, 2}) in _decompose(g).components


class TestPriorityAssignment:
    def test_chain_levels(self):
        g = gm.TokenPriorityGraph(
            last_token=0,
            nodes=frozenset({1, 2, 3}),
            edges={1: frozenset({2}), 2: frozenset({3})},
        )
        m = gm.priority_assignment(_decompose(g))
        assert m == {1: 3, 2: 2, 3: 1}

    def test_single_scc_constant(self):
        g = gm.TokenPriorityGraph(
            last_token=0,
            nodes=frozenset({0, 1, 2, 3}),
            edges={0: frozenset({1}), 1: frozenset({2}), 2: frozenset({3}), 3: frozenset({0})},
        )
        m = gm.priority_assignment(_decompose(g))
        assert len(set(m.values())) == 1

    def test_constraints_hold_on_random_graphs(self):
        rng = seeded_rng(8)
        for _ in range(60):
            g = random_tpg(rng, int(rng.integers(2, 10)), 0.3)
            decomp = _decompose(g)
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
