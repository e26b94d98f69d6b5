"""Token-priority graphs, SCC decomposition, pair relations, cyclic split.

One directed graph per distinct last token: every sample whose sequence ends
with token k contributes edges label -> x for each distinct input token x of
the sample (self-loops dropped); pseudo graphs put the tokens trained
attention retains in the label's place.  Strongly connected components of
these graphs carry the priority structure everything downstream consumes.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

from .dataset import Dataset, IndexSets, Sample
from .errors import SchemaViolation, UnknownNode


class PairRelation(Enum):
    STRICT_PRIORITY = "strict_priority"  # i reaches j, j does not reach i
    SAME_SCC = "same_scc"                # mutually reachable
    UNRELATED = "unrelated"


@dataclass(frozen=True)
class TokenPriorityGraph:
    last_token: int
    nodes: frozenset[int]
    edges: dict[int, frozenset[int]]  # adjacency sets, no self-loops

    def has_edge(self, i: int, j: int) -> bool:
        return j in self.edges.get(i, frozenset())

    def edge_list(self) -> list[tuple[int, int]]:
        return sorted((i, j) for i, outs in self.edges.items() for j in outs)


@dataclass(frozen=True)
class SccDecomposition:
    """Components, their condensation DAG, and longest-path priority levels."""

    components: tuple[frozenset[int], ...]
    comp_of: dict[int, int]
    condensation: dict[int, frozenset[int]]  # component index -> successor set
    topo_levels: dict[int, int]              # component index -> level, sinks = 1
    reachable: dict[int, frozenset[int]]     # component index -> strict descendants

    @property
    def n_components(self) -> int:
        return len(self.components)

    def all_singletons(self) -> bool:
        return all(len(c) == 1 for c in self.components)


def build_tpgs(
    dataset: Dataset, sources: Sequence[Sequence[int]] | None = None
) -> dict[int, TokenPriorityGraph]:
    """Construct the per-last-token graphs of a dataset.

    Each of sample i's source tokens ``sources[i]`` (by default its label)
    gets an edge to every other distinct token of the sample.  The last
    token itself appears in the sequence, so label -> last_token is among
    the edges whenever they differ.
    """
    nodes: dict[int, set[int]] = {}
    edges: dict[int, dict[int, set[int]]] = {}
    for i, s in enumerate(dataset.samples):
        srcs = (s.label,) if sources is None else sources[i]
        k = s.last_token
        node_set = nodes.setdefault(k, set())
        adj = edges.setdefault(k, {})
        node_set.update(s.tokens)
        node_set.update(srcs)
        for src in srcs:
            for tok in set(s.tokens):
                if tok != src:
                    adj.setdefault(src, set()).add(tok)
    return {
        k: TokenPriorityGraph(
            last_token=k,
            nodes=frozenset(nodes[k]),
            edges={i: frozenset(outs) for i, outs in edges[k].items()},
        )
        for k in nodes
    }


def scc(graph: TokenPriorityGraph) -> SccDecomposition:
    """Tarjan's single-pass SCC (iterative), plus condensation and levels."""
    index: dict[int, int] = {}
    lowlink: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    components: list[frozenset[int]] = []
    comp_of: dict[int, int] = {}
    counter = 0

    for root in sorted(graph.nodes):
        if root in index:
            continue
        # Explicit DFS stack of (node, iterator position over sorted successors).
        work = [(root, 0)]
        while work:
            node, pos = work.pop()
            if pos == 0:
                index[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            succs = sorted(graph.edges.get(node, ()))
            advanced = False
            for nxt_pos in range(pos, len(succs)):
                child = succs[nxt_pos]
                if child not in index:
                    work.append((node, nxt_pos + 1))
                    work.append((child, 0))
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index[child])
            if advanced:
                continue
            if lowlink[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    comp_of[w] = len(components)
                    if w == node:
                        break
                components.append(frozenset(comp))
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])

    n_comp = len(components)
    successors: list[set[int]] = [set() for _ in range(n_comp)]
    for i, outs in graph.edges.items():
        ci = comp_of[i]
        for j in outs:
            cj = comp_of[j]
            if ci != cj:
                successors[ci].add(cj)

    # Tarjan emits components in reverse topological order: every edge goes
    # from a later component to an earlier one, so a single left-to-right pass
    # computes longest-path levels (sinks = 1) and strict-descendant sets.
    levels: dict[int, int] = {}
    reach: dict[int, frozenset[int]] = {}
    for c in range(n_comp):
        succ = successors[c]
        levels[c] = 1 + max((levels[s] for s in succ), default=0)
        down: set[int] = set()
        for s in succ:
            down.add(s)
            down.update(reach[s])
        reach[c] = frozenset(down)

    return SccDecomposition(
        components=tuple(components),
        comp_of=comp_of,
        condensation={c: frozenset(successors[c]) for c in range(n_comp)},
        topo_levels=levels,
        reachable=reach,
    )


def decompose_all(tpgs: dict[int, TokenPriorityGraph]) -> dict[int, SccDecomposition]:
    return {k: scc(g) for k, g in tpgs.items()}


def relation(decomp: SccDecomposition, i: int, j: int) -> PairRelation:
    """Relation between two distinct nodes, by condensation reachability."""
    if i == j:
        raise UnknownNode(f"relation is defined for distinct nodes, got i=j={i}")
    if i not in decomp.comp_of:
        raise UnknownNode(f"node {i} not in decomposition")
    if j not in decomp.comp_of:
        raise UnknownNode(f"node {j} not in decomposition")
    ci, cj = decomp.comp_of[i], decomp.comp_of[j]
    if ci == cj:
        return PairRelation.SAME_SCC
    if cj in decomp.reachable[ci]:
        return PairRelation.STRICT_PRIORITY
    return PairRelation.UNRELATED


def is_acyclic(tpgs: dict[int, TokenPriorityGraph]) -> bool:
    """True iff every SCC of every graph is a singleton (vacuously true)."""
    return all(scc(g).all_singletons() for g in tpgs.values())


def priority_assignment(decomp: SccDecomposition) -> dict[int, int]:
    """Integer priorities: constant on SCCs, strictly decreasing along edges."""
    return {node: decomp.topo_levels[c] for node, c in decomp.comp_of.items()}


@dataclass(frozen=True)
class CyclicSplit:
    """Dataset reduced to label-SCC tokens, with the inducing sample indices.

    ``subdataset`` holds only the samples whose reduced sequence gains
    something beyond the label occurrences (indices ``idx_i``); the rest
    (``idx_ibar``) reach the trivial per-sample optimum and are dropped.
    ``n_total`` keeps the original sample count for loss normalization.

    Dropping positions can remove the original last token, but attention is
    still queried against it, so ``queries`` keeps each reduced sample's
    original query token ID.
    """

    subdataset: Dataset
    idx_i: tuple[int, ...]
    idx_ibar: tuple[int, ...]
    n_total: int
    queries: tuple[int, ...]

    @property
    def empty(self) -> bool:
        return len(self.idx_i) == 0


def cyclic_split(dataset: Dataset, sets: IndexSets) -> CyclicSplit:
    """Reduce every sample to its label-SCC positions ``sets.r`` and split
    the indices.

    Every sample must be realizable: one whose label is missing from its
    tokens has loss -log 0, not the saturated l(1) the split assumes, and
    raises SchemaViolation naming it.
    """
    for i, s in enumerate(dataset.samples):
        if not s.realizable:
            raise SchemaViolation(
                f"samples[{i}]: label {s.label} is not among its tokens {list(s.tokens)}; "
                "the cyclic split needs realizable samples"
            )
    idx_i, idx_ibar, reduced, queries = [], [], [], []
    for i, s in enumerate(dataset.samples):
        r_i, o_i = sets.r[i], sets.o[i]
        if set(r_i) - set(o_i):
            idx_i.append(i)
            reduced.append(Sample(tokens=tuple(s.tokens[t] for t in r_i), label=s.label))
            queries.append(s.last_token)
        else:
            idx_ibar.append(i)
    sub = Dataset(
        embedding=dataset.embedding,
        head=dataset.head,
        samples=tuple(reduced),
        seed=0,
    )
    return CyclicSplit(
        subdataset=sub,
        idx_i=tuple(idx_i),
        idx_ibar=tuple(idx_ibar),
        n_total=dataset.n,
        queries=tuple(queries),
    )


def graphs_as_dict(tpgs: dict[int, TokenPriorityGraph], decomps: dict[int, SccDecomposition]) -> dict:
    """JSON-ready description: nodes, edges, SCC membership, levels per graph."""
    out = {}
    for k in sorted(tpgs):
        g, d = tpgs[k], decomps[k]
        out[str(k)] = {
            "last_token": k,
            "nodes": sorted(g.nodes),
            "edges": [list(e) for e in g.edge_list()],
            "components": [sorted(c) for c in d.components],
            "levels": {str(node): lvl for node, lvl in sorted(priority_assignment(d).items())},
        }
    return out


def graphs_as_dot(tpgs: dict[int, TokenPriorityGraph]) -> str:
    """DOT export, one cluster per last-token graph."""
    lines = ["digraph tpg {"]
    for k in sorted(tpgs):
        g = tpgs[k]
        lines.append(f"  subgraph cluster_{k} {{")
        lines.append(f'    label="last token {k}";')
        for node in sorted(g.nodes):
            lines.append(f'    "{k}:{node}" [label="{node}"];')
        for i, j in g.edge_list():
            lines.append(f'    "{k}:{i}" -> "{k}:{j}";')
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
