"""Token-priority graphs, SCC decomposition, priority levels, cyclic split.

One directed graph per distinct last token: every sample whose sequence ends
with token k contributes edges label -> x for each distinct input token x of
the sample (self-loops dropped); pseudo graphs put the tokens trained
attention retains in the label's place.  Strongly connected components of
these graphs carry the priority structure everything downstream consumes.
All of it is read off one batched reflexive-transitive closure (`_closure`),
which the SVM's presolve and feasibility certificate share.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, IndexSets
from .errors import SchemaViolation


@dataclass(frozen=True)
class TokenPriorityGraph:
    last_token: int
    nodes: frozenset[int]
    edges: dict[int, frozenset[int]]  # adjacency sets, no self-loops

    def edge_list(self) -> list[tuple[int, int]]:
        return sorted((i, j) for i, outs in self.edges.items() for j in outs)


@dataclass(frozen=True, eq=False)
class SccDecomposition:
    """One graph's reflexive-transitive closure R over its sorted nodes, and
    what `decompose_all` reads off it per node: its component (a class of R
    and R^T) and that component's longest-path priority level on the
    condensation, sinks = 1.

    Components are numbered by (level ascending, smallest member).
    """

    nodes: tuple[int, ...]
    closure: np.ndarray  # (n, n) bool: closure[a, b] iff nodes[b] is reachable from nodes[a]
    comp: np.ndarray     # (n,) each node's component index
    levels: np.ndarray   # (n,) each node's level

    @functools.cached_property
    def comp_of(self) -> dict[int, int]:
        return dict(zip(self.nodes, self.comp.tolist()))

    @functools.cached_property
    def components(self) -> tuple[frozenset[int], ...]:
        members: list[list[int]] = [[] for _ in range(self.n_components)]
        for node, c in self.comp_of.items():
            members[c].append(node)
        return tuple(map(frozenset, members))

    @property
    def n_components(self) -> int:
        return int(self.comp.max(initial=-1)) + 1


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


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Boolean matrix product of two stacks, as a clipped float32 matmul:
    each entry counts at most N paths, exact in float32.  A square converts
    its stack once."""
    fa = a.astype(np.float32)
    return np.matmul(fa, fa if b is a else b.astype(np.float32)) > 0.5


def _closure(adj: np.ndarray) -> np.ndarray:
    """The reflexive-transitive closure of each matrix of a (G, N, N)
    boolean stack, by repeated squaring: about log2 N products."""
    reach = adj | np.eye(adj.shape[-1], dtype=bool)
    while True:
        squared = _product(reach, reach)
        if np.array_equal(squared, reach):
            return reach
        reach = squared


def _levels(reach: np.ndarray) -> np.ndarray:
    """Longest-path levels (sinks = 1) of the condensation, per node, for a
    stack of closures: 1 + the largest level strictly below, iterated from
    1 until fixed, one pass per level."""
    strict = reach & ~np.swapaxes(reach, -1, -2)
    level = np.ones(reach.shape[:-1], dtype=np.intp)
    while True:
        below = np.where(strict, level[..., None, :], 0).max(axis=-1, initial=0)
        if np.array_equal(below + 1, level):
            return level
        level = below + 1


def decompose_all(tpgs: dict[int, TokenPriorityGraph]) -> dict[int, SccDecomposition]:
    """Every graph's decomposition from one closure of their stacked
    adjacency matrices, each over its own sorted nodes and padded to the
    largest graph with isolated nodes.
    """
    nodes = {k: sorted(g.nodes) for k, g in tpgs.items()}
    n = max(map(len, nodes.values()), default=0)
    at, src, dst = [], [], []
    for x, (k, g) in enumerate(tpgs.items()):
        pos = {v: a for a, v in enumerate(nodes[k])}
        for i, outs in g.edges.items():
            at += [x] * len(outs)
            src += [pos[i]] * len(outs)
            dst += [pos[j] for j in outs]
    adj = np.zeros((len(tpgs), n, n), dtype=bool)
    adj[at, src, dst] = True
    reach = _closure(adj)
    levels = _levels(reach)
    # A component's members share its level and its smallest member, so its
    # index counts the graph's components with a smaller (level, smallest member).
    head = (reach & np.swapaxes(reach, 1, 2)).argmax(axis=2)
    key = levels * n + head
    first = (head == np.arange(n)) & (np.arange(n) < np.array([len(v) for v in nodes.values()])[:, None])
    comp = ((key[:, None, :] < key[:, :, None]) & first[:, None, :]).sum(axis=2)
    for a in (reach, comp, levels):
        a.setflags(write=False)
    return {
        k: SccDecomposition(tuple(v), reach[x, : len(v), : len(v)], comp[x, : len(v)], levels[x, : len(v)])
        for x, (k, v) in enumerate(nodes.items())
    }


def priority_assignment(decomp: SccDecomposition) -> dict[int, int]:
    """Integer priorities: constant on SCCs, strictly decreasing along edges."""
    return dict(zip(decomp.nodes, decomp.levels.tolist()))


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
