"""Token-priority graphs, SCC decomposition, priority levels, cyclic split.

One directed graph per distinct last token: every sample whose sequence ends
with token k contributes edges label -> x for each distinct input token x of
the sample (self-loops dropped); pseudo graphs put the tokens trained
attention retains in the label's place.  Strongly connected components of
these graphs carry the priority structure everything downstream consumes.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .dataset import Dataset, IndexSets
from .errors import SchemaViolation


@dataclass(frozen=True)
class TokenPriorityGraph:
    last_token: int
    nodes: frozenset[int]
    edges: dict[int, frozenset[int]]  # adjacency sets, no self-loops

    def edge_list(self) -> list[tuple[int, int]]:
        return sorted((i, j) for i, outs in self.edges.items() for j in outs)


@dataclass(frozen=True)
class SccDecomposition:
    """Components, their longest-path priority levels and reachability."""

    components: tuple[frozenset[int], ...]
    comp_of: dict[int, int]
    topo_levels: dict[int, int]              # component index -> level, sinks = 1
    reachable: dict[int, frozenset[int]]     # component index -> strict descendants

    @property
    def n_components(self) -> int:
        return len(self.components)


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
    """Tarjan's single-pass SCC (iterative), plus levels and reachability
    on the condensation."""
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
        topo_levels=levels,
        reachable=reach,
    )


def decompose_all(tpgs: dict[int, TokenPriorityGraph]) -> dict[int, SccDecomposition]:
    return {k: scc(g) for k, g in tpgs.items()}


def priority_assignment(decomp: SccDecomposition) -> dict[int, int]:
    """Integer priorities: constant on SCCs, strictly decreasing along edges."""
    return {node: decomp.topo_levels[c] for node, c in decomp.comp_of.items()}


@dataclass(frozen=True)
class CyclicSplit:
    """The cyclic split of ``dataset``, kept as positions on its own samples.

    Sample ``idx_i[j]`` keeps only its label-SCC positions ``positions[j]``
    (``sets.r``, label occurrences included) and is still queried against
    its own last token; the loss normalizes by the full ``dataset.n``.  The
    samples left out gain nothing beyond their label occurrences and reach
    the trivial per-sample optimum.
    """

    dataset: Dataset
    idx_i: tuple[int, ...]
    positions: tuple[tuple[int, ...], ...]

    @property
    def empty(self) -> bool:
        return len(self.idx_i) == 0


def cyclic_split(dataset: Dataset, sets: IndexSets) -> CyclicSplit:
    """The samples whose label-SCC positions ``sets.r`` hold a token other
    than the label, with those positions.

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
    held = [i for i in range(dataset.n) if set(sets.r[i]) - set(sets.o[i])]
    return CyclicSplit(dataset=dataset, idx_i=tuple(held), positions=tuple(sets.r[i] for i in held))


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
