"""Test oracles, deliberately independent of the library's own code paths.

Reachability goes through a depth-first search from each node, the QP oracle
enumerates active sets exhaustively, the graph SVM's presolve is checked
against a transitive reduction read off those closures and its verdicts
against an unreduced dense solve, its Gram rows against the dense
d^2-wide projected rows (and its NNLS reads a dense Gram matrix through
`DenseGramRows`), gradients come from central finite
differences on the loss alone, W_fin comes from plain gradient descent, the
packed loss and gradient have an einsum form beside the library's matmul
kernel, normalized-GD trajectories come from a long-double loop over that
form, a ball minimizer's first-order terms from that gradient and a
cancellation-free loss in long double, the top label-relative score
(`top_score`) from the embedding table row by row, the record diagnostics corr_svm and
dist_fin from their definitions in long double, the cyclic-subdataset loss
and gradient from each held sample's label-SCC rows read one by one from
the embedding table, CSV bytes come
from a cell-by-cell formatter, pseudo graphs come from their own edge loop,
the pseudo-graph references from the stage calls made one by one, and index
sets position by position from each graph's mutual-reachability partition.
Hand-written constraint sets go through the library's own graph chain
(`constraints_from_edges`), since a constraint set is the graphs' closures.  
This module is also the one adapter between the tests and the kernel's
private entry points: only it, beside test_internals.py, may read a private
attnlab name (tests/test_imports.py holds that), and it reads three,
`attention._pack`, `_loss_and_grad` and `experiments._KINDS`.  The kernel
does one job a call, a step (the gradient) or a scoring (the losses and
loss_bar).  `loss` is the loss of one dataset, `kernel` a step and a
scoring of the packed kernel on a block of trials, `extended` a pack in
long double for the einsum oracles, `trial_build` a trial built by its
experiment's own build (`_KINDS`), so the experiment blocks train what the
experiments train, and `edit_finish` a trial kind whose finished results
pass through an edit, so a test can drive an experiment to a threshold
violation.  `load_tool` imports a script of tools/ or perfbench/.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np

from attnlab import attention, dataset as dsm, experiments, graph as gm, svm


def load_tool(name: str, folder: str = "tools"):
    """The module <folder>/<name>.py of the repository, imported from its
    file and registered as <folder>.<name>, where a dataclass looks it up."""
    spec = importlib.util.spec_from_file_location(f"{folder}.{name}",
                                                  Path(__file__).resolve().parent.parent / folder / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def reachability_matrix(n_nodes: int, edges) -> np.ndarray:
    """Boolean closure: reach[i, j] iff a directed path i -> j exists, by a
    depth-first search over adjacency sets from each node."""
    succ = [set() for _ in range(n_nodes)]
    for i, j in edges:
        succ[i].add(j)
    reach = np.zeros((n_nodes, n_nodes), dtype=bool)
    for src in range(n_nodes):
        stack = list(succ[src])
        while stack:
            v = stack.pop()
            if not reach[src, v]:
                reach[src, v] = True
                stack.extend(succ[v])
    return reach


def partition_by_mutual_reachability(nodes, edges):
    """Groups of mutually reachable nodes, via the dense closure."""
    nodes = sorted(nodes)
    pos = {v: i for i, v in enumerate(nodes)}
    reach = reachability_matrix(len(nodes), [(pos[i], pos[j]) for i, j in edges])
    same = reach & reach.T
    np.fill_diagonal(same, True)
    groups = []
    seen = set()
    for i, v in enumerate(nodes):
        if v in seen:
            continue
        group = frozenset(nodes[j] for j in np.flatnonzero(same[i]))
        seen |= group
        groups.append(group)
    return groups


def classify_pair(nodes, edges, i, j):
    """'same', 'ij', 'ji', or 'none' from the reachability closure."""
    nodes = sorted(nodes)
    pos = {v: k for k, v in enumerate(nodes)}
    reach = reachability_matrix(len(nodes), [(pos[a], pos[b]) for a, b in edges])
    fwd, bwd = reach[pos[i], pos[j]], reach[pos[j], pos[i]]
    if fwd and bwd:
        return "same"
    if fwd:
        return "ij"
    if bwd:
        return "ji"
    return "none"


def longest_path_levels(nodes, edges):
    """Node -> the number of components on the longest path of the
    condensation that starts at its component (sinks = 1), by a memoized
    recursion over the strict order of the reachability closure."""
    nodes = sorted(nodes)
    pos = {v: k for k, v in enumerate(nodes)}
    reach = reachability_matrix(len(nodes), [(pos[i], pos[j]) for i, j in edges])
    below = reach & ~reach.T
    memo = {}

    def level(a):
        if a not in memo:
            memo[a] = 1 + max((level(b) for b in np.flatnonzero(below[a])), default=0)
        return memo[a]

    return {v: level(pos[v]) for v in nodes}


def index_sets_oracle(ds: dsm.Dataset, tpgs: dict) -> dsm.IndexSets:
    """o, r and rbar position by position: a position is in r when its token
    is the label or lies in the label's group of
    `partition_by_mutual_reachability`; a label that is not a node of its
    graph has no group."""
    groups = {k: partition_by_mutual_reachability(g.nodes, g.edge_list()) for k, g in tpgs.items()}
    o, r, rbar = [], [], []
    for s in ds.samples:
        group = next((c for c in groups[s.last_token] if s.label in c), frozenset())
        o.append(tuple(t for t, tok in enumerate(s.tokens) if tok == s.label))
        r.append(tuple(t for t, tok in enumerate(s.tokens) if tok == s.label or tok in group))
        rbar.append(tuple(t for t in range(len(s.tokens)) if t not in r[-1]))
    return dsm.IndexSets(o=tuple(o), r=tuple(r), rbar=tuple(rbar))


def constraints_from_edges(embedding: dsm.EmbeddingTable, edges: dict) -> svm.ConstraintSet:
    """The constraint set of hand-written graphs, last token k -> its edges
    (i, j) with their ends as its nodes, built by `graph.decompose_all` and
    `svm.build_constraints`."""
    tpgs = {
        k: gm.TokenPriorityGraph(
            last_token=k,
            nodes=frozenset(v for edge in es for v in edge),
            edges={i: frozenset(j for a, j in es if a == i) for i, _ in es},
        )
        for k, es in edges.items()
    }
    return svm.build_constraints(tpgs, gm.decompose_all(tpgs) if tpgs else {}, embedding)


def random_tpg(rng, n_nodes: int, density: float, last_token: int = 0) -> gm.TokenPriorityGraph:
    adj = rng.random((n_nodes, n_nodes)) < density
    np.fill_diagonal(adj, False)
    return gm.TokenPriorityGraph(
        last_token=last_token,
        nodes=frozenset(range(n_nodes)),
        edges={
            i: frozenset(int(j) for j in np.flatnonzero(adj[i]))
            for i in range(n_nodes)
            if adj[i].any()
        },
    )


def active_set_oracle(eq_vecs: np.ndarray, ineq_vecs: np.ndarray, margin: float = 1.0,
                      tol: float = 1e-7) -> np.ndarray:
    """Exhaustive active-set search for min ||w|| s.t. Bw = 0, Aw >= margin.

    Every subset of inequalities is treated as active (= margin), the
    minimum-norm solution of the resulting linear system is formed through
    the Gram matrix, and the best candidate feasible for all constraints
    wins.  Exponential in the inequality count; meant for tiny instances.
    """
    m_eq, m_in = len(eq_vecs), len(ineq_vecs)
    dim = (eq_vecs.shape[1] if m_eq else ineq_vecs.shape[1]) if (m_eq or m_in) else 0
    if m_in == 0:
        return np.zeros(dim)
    stacked = np.vstack([eq_vecs, ineq_vecs]) if m_eq else ineq_vecs
    gram = stacked @ stacked.T
    best_norm2, best_w = np.inf, None
    eq_rows = list(range(m_eq))
    for mask in range(2 ** m_in):
        sel = [m_eq + i for i in range(m_in) if (mask >> i) & 1]
        rows = eq_rows + sel
        targets = np.concatenate([np.zeros(m_eq), np.full(len(sel), margin)])
        if rows:
            h = gram[np.ix_(rows, rows)]
            alpha = np.linalg.pinv(h, rcond=1e-12) @ targets
            values = gram[:, rows] @ alpha
            norm2 = float(alpha @ h @ alpha)
        else:
            alpha = np.zeros(0)
            values = np.zeros(m_eq + m_in)
            norm2 = 0.0
        if m_eq and np.max(np.abs(values[:m_eq])) > tol:
            continue
        if np.min(values[m_eq:]) < margin - tol:
            continue
        if norm2 < best_norm2:
            best_norm2 = norm2
            best_w = stacked[rows].T @ alpha if rows else np.zeros(dim)
    if best_w is None:
        raise AssertionError("oracle found no feasible active set")
    return best_w


class DenseGramRows:
    """A row source for `svm._nnls_gram` backed by a dense Gram matrix:
    row j is a copy of gram[j]."""

    def __init__(self, gram: np.ndarray):
        self.gram = gram
        self.m = len(gram)
        self.diag = gram.diagonal().copy()

    def write(self, j: int, out: np.ndarray) -> None:
        out[:] = self.gram[j]


def nnls_gram_oracle(gram: np.ndarray) -> tuple[np.ndarray, int, bool]:
    """Lawson-Hanson NNLS in Gram form with a fresh LU solve of the passive
    block at every step: min ||E u - f|| over u >= 0 for gram = E^T E and
    E^T f = 1.  Returns (u, passive-set solves, converged); the cap is 3m."""
    m = len(gram)
    cap = 3 * m
    tol = 10.0 * m * np.finfo(float).eps * float(gram.diagonal().max())
    u = np.zeros(m)
    passive = np.zeros(m, dtype=bool)
    grad = np.ones(m)
    iters = 0

    def solve():
        nonlocal iters
        iters += 1
        idx = np.flatnonzero(passive)
        return idx, np.linalg.solve(gram[np.ix_(idx, idx)], np.ones(len(idx)))

    while iters < cap:
        grad[passive] = -np.inf
        j = int(np.argmax(grad))
        if grad[j] <= tol:
            return u, iters, True
        passive[j] = True
        idx, z = solve()
        if z[np.searchsorted(idx, j)] <= 0:
            passive[j] = False
            grad[j] = 0.0
            continue
        while np.any(z <= 0):
            if iters >= cap:
                return u, iters, False
            cur = u[idx]
            neg = z <= 0
            ratio = np.full(len(z), np.inf)
            ratio[neg] = cur[neg] / (cur[neg] - z[neg])
            k = int(np.argmin(ratio))
            cur += ratio[k] * (z - cur)
            cur[k] = 0.0
            drop = cur <= 0.0
            u[idx] = np.where(drop, 0.0, cur)
            passive[idx[drop]] = False
            idx, z = solve()
        u[idx] = z
        grad = 1.0 - gram @ u
    return u, iters, False


def transitive_reduction_rows(equalities, inequalities) -> list[int]:
    """Indices of the inequalities that the transitive reduction keeps, one
    per class pair, the first in the set's order.

    Per last token, nodes are merged into classes by the closure of the
    equalities taken both ways, and a class pair (A, C) stays unless some
    class B is reachable from A and reaches C in the closure of the class
    pairs.  Meant for class relations without cycles.
    """
    equalities = np.asarray(equalities, dtype=int).reshape(-1, 3).tolist()
    inequalities = np.asarray(inequalities, dtype=int).reshape(-1, 3).tolist()
    keep = []
    for k in sorted({t[2] for t in equalities + inequalities}):
        eqs = [(i, j) for i, j, kk in equalities if kk == k]
        rows = [(a, i, j) for a, (i, j, kk) in enumerate(inequalities) if kk == k]
        nodes = sorted({v for i, j in eqs for v in (i, j)} | {v for _, i, j in rows for v in (i, j)})
        pos = {v: x for x, v in enumerate(nodes)}
        same = reachability_matrix(len(nodes), [(pos[i], pos[j]) for i, j in eqs] + [(pos[j], pos[i]) for i, j in eqs])
        np.fill_diagonal(same, True)
        cls = {v: int(np.argmax(same[pos[v]])) for v in nodes}  # the smallest member
        first = {}
        for a, i, j in rows:
            first.setdefault((cls[i], cls[j]), a)
        reach = reachability_matrix(len(nodes), list(first))
        keep += [a for (hi, lo), a in first.items() if not np.any(reach[hi] & reach[:, lo])]
    return sorted(keep)


def dense_svm_oracle(equalities, inequalities, e: np.ndarray, primal_tol: float, farkas_tol: float,
                     kkt_tol: float) -> tuple[str, np.ndarray, np.ndarray]:
    """The graph-SVM verdict over every inequality, unreduced.

    The rows are projected off the equality span by least squares, the NNLS
    of `nnls_gram_oracle` runs on their Gram matrix plus one, and the
    verdict follows from the textbook checks: a convex combination of the
    projected rows within farkas_tol of 0 is a Farkas certificate
    ("infeasible"), and otherwise W = p / ||p||^2 is "solved" when the NNLS
    converged and W meets every equality, margin and stationarity tolerance.
    Anything else is "max_iter".  Returns (status, W, multipliers).
    """
    a = generator_rows(inequalities, e)
    b = generator_rows(equalities, e)
    a_proj = a
    if len(b):
        coef, *_ = np.linalg.lstsq(b.T, a.T, rcond=None)
        a_proj = a - (b.T @ coef).T
    u, _, converged = nnls_gram_oracle(a_proj @ a_proj.T + 1.0)
    c = u / u.sum()
    p = a_proj.T @ c
    farkas = float(np.linalg.norm(p))
    d = e.shape[1]
    if farkas <= farkas_tol:
        return ("infeasible" if converged else "max_iter"), np.zeros((d, d)), c
    w, lam = p / farkas**2, c / farkas**2
    solved = (
        converged
        and np.max(np.abs(b @ w), initial=0.0) <= primal_tol
        and np.min(a @ w) >= 1.0 - primal_tol
        and distance_to_row_span(w - lam @ a, b) <= kkt_tol
    )
    return ("solved" if solved else "max_iter"), w.reshape(d, d), lam


def generator_rows(triples, e: np.ndarray) -> np.ndarray:
    """One flattened (e_i - e_j) e_k^T per triple, by direct outer products."""
    d = e.shape[1]
    return np.array([np.outer(e[i] - e[j], e[k]).ravel() for i, j, k in triples]).reshape(-1, d * d)


def projected_inequalities(cons: svm.ConstraintSet) -> np.ndarray:
    """The dense projected-Gram oracle's rows: each inequality's
    `generator_rows` row, d^2 wide, less its projection on `eq_basis`.
    Their Gram matrix plus one, on the kept rows, is the matrix the solver
    builds from the generators' factors."""
    a = generator_rows(cons.inequalities, cons.embedding.e)
    return a - (a @ cons.eq_basis.T) @ cons.eq_basis


def distance_to_row_span(v: np.ndarray, rows: np.ndarray) -> float:
    """Euclidean distance from v to the span of the rows, by least squares."""
    if len(rows) == 0:
        return float(np.linalg.norm(v))
    coef, *_ = np.linalg.lstsq(rows.T, v, rcond=None)
    return float(np.linalg.norm(v - rows.T @ coef))


def assert_certified(cons, sol):
    """Check a solver verdict by direct arithmetic on the triples: KKT
    conditions for SOLVED, a Farkas certificate for INFEASIBLE."""
    a = generator_rows(cons.inequalities, cons.embedding.e)
    b = generator_rows(cons.equalities, cons.embedding.e)
    if sol.status is svm.SolveStatus.INFEASIBLE:
        # Convex weights whose combination of the A_a lies in the equality
        # span: no W meets every margin.
        c = sol.ineq_multipliers
        assert np.all(c >= 0) and abs(np.sum(c) - 1.0) <= 1e-12
        assert distance_to_row_span(c @ a, b) <= 1e-9
        assert sol.norm == 0.0
        return
    assert sol.status is svm.SolveStatus.SOLVED
    w = sol.w.ravel()
    lam = sol.ineq_multipliers
    margins = a @ w
    assert np.max(np.abs(b @ w), initial=0.0) <= 1e-6
    assert np.min(margins, initial=np.inf) >= 1 - 1e-6
    assert np.all(lam >= 0)
    # W = sum lam_a A~_a: W is orthogonal to the equality span (checked
    # above) and differs from sum lam_a A_a by an element of it.
    assert distance_to_row_span(w - lam @ a, b) <= 1e-6 * max(1.0, float(np.linalg.norm(w)))
    assert np.all(np.abs(margins[lam > 0] - 1.0) <= 1e-6)


def forbid_the_solver(monkeypatch) -> None:
    """Make `svm.solve_graph_svm` raise, so that a verdict of
    `experiments.Pipeline.feasibility` comes from its d >= K construction
    alone."""
    def forbidden(constraints):
        raise AssertionError("the feasibility check called the solver")

    monkeypatch.setattr(svm, "solve_graph_svm", forbidden)


def fd_grad(w: np.ndarray, ds: dsm.Dataset, kind: str, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of the loss, entry by entry."""
    g = np.zeros_like(w)
    for a in range(w.shape[0]):
        for b in range(w.shape[1]):
            wp, wm = w.copy(), w.copy()
            wp[a, b] += step
            wm[a, b] -= step
            g[a, b] = (loss(wp, ds, kind) - loss(wm, ds, kind)) / (2 * step)
    return g


def loss(w: np.ndarray, ds: dsm.Dataset, kind: str = attention.LOG) -> float:
    """The loss of one dataset at w, from one scoring of the library's
    kernel."""
    total, _, _, errors = attention._loss_and_grad(w[None], attention._pack([ds]), kind, grad=False)
    if errors:
        raise errors[0]
    return float(total[0])


def kernel(w: np.ndarray, datasets, kind: str, splits=None, score: bool = True) -> tuple:
    """The packed kernel on a block of trials at w (B, d, d), datasets of one
    structure, each with its own cyclic split or None: a step, then with
    ``score`` a scoring, on one pack.  Returns per-trial losses (B,) and
    loss_bar (B,), each None without ``score``, the gradients summed over
    the samples (B, d, d), a copy, and {trial: exception}, the step's
    errors before the scoring's.  Every call packs afresh."""
    packed = attention._pack(datasets, splits)
    _, _, g, errors = attention._loss_and_grad(w, packed, kind, grad=True)
    total = bar = None
    g = g.copy()
    if score:
        total, bar, _, scored = attention._loss_and_grad(w, packed, kind, grad=False)
        for b, exc in scored.items():
            errors.setdefault(b, exc)
    return total, bar, g, errors


def csv_oracle(header, rows) -> bytes:
    """CSV bytes formatted cell by cell: a float (Python or numpy) as
    repr(float(x)), NaN as an empty cell, anything else through str."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, (float, np.floating)):
                cells.append("" if np.isnan(cell) else repr(float(cell)))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    return "".join(line + "\n" for line in lines).encode("utf-8")


def held_rows(split: gm.CyclicSplit, dtype=np.float64) -> tuple:
    """The held samples of a cyclic split, read one by one from the
    embedding table in dtype: rows x (m, T, d) at each sample's label-SCC
    positions, padded to the longest, a mask of the real rows, a mask of the
    label rows, e_y (m, d), the sample's own last-token embedding xbar
    (m, d) and the labels (m,)."""
    ds, e = split.dataset, split.dataset.embedding.e.astype(dtype)
    m, t_max = len(split.idx_i), max(len(pos) for pos in split.positions)
    x, ey, xbar = np.zeros((m, t_max, ds.d), dtype), np.zeros((m, ds.d), dtype), np.zeros((m, ds.d), dtype)
    real, at_label, labels = np.zeros((m, t_max), bool), np.zeros((m, t_max), bool), np.zeros(m, np.int64)
    for j, (i, positions) in enumerate(zip(split.idx_i, split.positions)):
        s = ds.samples[i]
        toks = [s.tokens[t] for t in positions]
        x[j, :len(toks)] = e[toks]
        real[j, :len(toks)] = True
        at_label[j, :len(toks)] = [tok == s.label for tok in toks]
        ey[j], xbar[j], labels[j] = e[s.label], e[s.last_token], s.label
    return x, real, at_label, ey, xbar, labels


def _split_probs(w: np.ndarray, rows: tuple) -> np.ndarray:
    """Each held sample's softmax of x_t^T W xbar over its real rows."""
    x, real, _, _, xbar, _ = rows
    h = np.where(real, np.einsum("mtd,md->mt", x, np.einsum("de,me->md", w, xbar)), -np.inf)
    ex = np.exp(h - np.max(h, axis=1, keepdims=True))
    return ex / np.sum(ex, axis=1, keepdims=True)


def split_loss(w: np.ndarray, split: gm.CyclicSplit, kind: str) -> float:
    """The cyclic-subdataset loss in the precision of w: each held sample's
    softmax over its label-SCC positions against its own last token, scored
    by the label-position mass u (-log u, or (1 - u)^2), or through the
    dataset's head for cross-entropy, summed and divided by the dataset's n."""
    rows = held_rows(split, w.dtype)
    x, _, at_label, _, _, labels = rows
    s = _split_probs(w, rows)
    if kind == attention.CROSS_ENTROPY:
        logits = np.einsum("mt,mtd,kd->mk", s, x, split.dataset.head.c.astype(w.dtype))
        top = np.max(logits, axis=1)
        losses = top + np.log(np.sum(np.exp(logits - top[:, None]), axis=1)) - logits[np.arange(len(labels)), labels]
    else:
        u = np.sum(s * at_label, axis=1)
        losses = -np.log(u) if kind == attention.LOG else (1.0 - u) ** 2
    return np.sum(losses) / split.dataset.n


def split_log_grad(w: np.ndarray, split: gm.CyclicSplit, rows=None) -> np.ndarray:
    """Gradient of the cyclic-subdataset log loss in the precision of w,
    (1/n) sum_i sum_t s_t (x_t - e_y) xbar^T over each held sample's
    label-SCC positions; rows from `held_rows`, read when not given."""
    rows = held_rows(split, w.dtype) if rows is None else rows
    x, _, _, ey, xbar, _ = rows
    return np.einsum("mt,mtd,me->de", _split_probs(w, rows), x - ey[:, None, :], xbar) / split.dataset.n


def wfin_projected_grad(split: gm.CyclicSplit, s_fin, w: np.ndarray, rows=None) -> np.ndarray:
    """Gradient of the cyclic-subdataset log loss at w, projected onto S_fin."""
    return s_fin.project(split_log_grad(w, split, rows))


def _einsum_probs(x: np.ndarray, xbar: np.ndarray, w: np.ndarray) -> np.ndarray:
    return attention.softmax(np.einsum("gtd,gd->gt", x, np.einsum("de,ge->gd", w, xbar)))


def _einsum_head_scores(x: np.ndarray, omask: np.ndarray, labels: np.ndarray, packed) -> np.ndarray:
    """Per-position score weights: label indicator when tied, else X c_y."""
    if packed.tied:
        return omask.astype(np.float64)
    return np.einsum("gtd,gd->gt", x, packed.c[0][labels])


def einsum_loss(w: np.ndarray, packed, kind: str) -> float:
    """The loss of a one-trial pack written with einsum contractions, one
    group at a time, in the precision of w."""
    total = 0.0
    for g in packed.groups:
        x, xbar, labels = g.x[0], g.xbar[0], g.labels[0]
        s = _einsum_probs(x, xbar, w)
        if kind == attention.CROSS_ENTROPY:
            logits = np.einsum("gt,gtd->gd", s, x) @ packed.c[0].T
            shifted = logits - np.max(logits, axis=1, keepdims=True)
            logz = np.log(np.sum(np.exp(shifted), axis=1))
            total += np.sum(logz - shifted[np.arange(len(labels)), labels])
        else:
            u = np.sum(s * _einsum_head_scores(x, g.omask[0], labels, packed), axis=1)
            total += np.sum(attention.loss_value(kind, u))
    return total / packed.n


def einsum_grad(w: np.ndarray, packed, kind: str, reduced_log: bool) -> np.ndarray:
    """The gradient of a one-trial pack written with einsum contractions, in
    the precision of w: the reduced tied-log form when reduced_log, else the
    softmax chain rule."""
    grad = np.zeros((packed.d, packed.d), dtype=w.dtype)
    for g in packed.groups:
        x, xbar, labels, omask = g.x[0], g.xbar[0], g.labels[0], g.omask[0]
        s = _einsum_probs(x, xbar, w)
        if kind == attention.CROSS_ENTROPY:
            c = packed.c[0]
            p = attention.softmax(np.einsum("gt,gtd->gd", s, x) @ c.T)
            p[np.arange(len(labels)), labels] -= 1.0
            back = np.einsum("gtd,gd->gt", x, p @ c)
            dh = s * (back - np.sum(s * back, axis=1, keepdims=True))
            vec = np.einsum("gtd,gt->gd", x, dh)
        elif kind == attention.LOG and packed.tied and reduced_log:
            ey = x[np.arange(len(x)), np.argmax(omask, axis=1)]  # read at a label position
            vec = np.einsum("gtd,gt->gd", x - ey[:, None, :], s * ~omask)
        else:
            gamma = _einsum_head_scores(x, omask, labels, packed)
            u = np.sum(s * gamma, axis=1)
            vec = attention.loss_deriv(kind, u)[:, None] * np.einsum("gtd,gt->gd", x, s * (gamma - u[:, None]))
        grad += np.einsum("gd,ge->de", vec, xbar)
    return grad / packed.n


def extended(datasets, splits=None):
    """The pack of datasets with its arrays in long double, so an einsum
    oracle's own rounding stays far below the kernel's."""
    packed, ld = attention._pack(datasets, splits), np.longdouble
    groups = tuple(dataclasses.replace(g, x=g.x.astype(ld), dx=g.dx.astype(ld), xbar=g.xbar.astype(ld))
                   for g in packed.groups)
    return dataclasses.replace(packed, groups=groups, c=None if packed.c is None else packed.c.astype(ld))


def gd_oracle(dataset: dsm.Dataset, config) -> np.ndarray:
    """W after config.iters normalized GD steps on the tied log loss, each
    along `einsum_grad`'s reduced form in long double and skipped when the
    gradient norm is at most GRAD_FLOOR."""
    packed = extended([dataset])
    w = config.initial_w(dataset.d).astype(np.longdouble)
    for _ in range(config.iters):
        g = einsum_grad(w, packed, attention.LOG, reduced_log=True)
        gn = np.sqrt(np.sum(g * g))
        if gn > attention.GRAD_FLOOR:
            w = w - config.eta * g / gn
    return w


def straight_train_gd(dataset: dsm.Dataset, config, refs) -> tuple[np.ndarray, np.ndarray]:
    """One trial's GD loop written plainly: the kernel on one trial, a
    step for the gradient g summed over the n samples at every step, and
    at record steps a scoring for the loss and loss_bar, then
    np.linalg.norm, attention.correlation and MatrixSubspace.distance.
    The trace's grad_norm is ||g|| / n, and a step subtracts
    (eta / ||g||) g when ||g|| > n GRAD_FLOOR under normalized GD, else
    (eta / n) g.  Returns the trace rows as a float array, and the final W."""
    packed = attention._pack([dataset], splits=[refs.split])
    n = packed.n
    w = config.initial_w(dataset.d)
    rows = []
    for tau in range(config.iters + 1):
        _, _, g, errors = attention._loss_and_grad(w[None], packed, config.loss, grad=True)
        if errors:
            raise errors[0]
        gn = np.linalg.norm(g[0])
        if tau % config.record_every == 0 or tau == config.iters:
            loss, loss_bar, _, errors = attention._loss_and_grad(w[None], packed, config.loss, grad=False)
            if errors:
                raise errors[0]
            dist = np.nan
            if refs.s_fin is not None and refs.w_fin is not None:
                dist = refs.s_fin.distance(w, refs.w_fin)
            rows.append((tau, loss[0], loss_bar[0], float(gn / n), float(np.linalg.norm(w)),
                         attention.correlation(w, refs.w_svm), dist))
        if tau == config.iters:
            break
        if config.normalized:
            if gn > n * attention.GRAD_FLOOR:
                w = w - (config.eta / gn) * g[0]
        else:
            w = w - (config.eta / n) * g[0]
    return np.array(rows, dtype=np.float64), w


def ball_oracle(w: np.ndarray, ds: dsm.Dataset, radius: float) -> dict:
    """The first-order terms of min f(W) over ||W|| <= radius at w, for the
    tied log loss, in long double: ``norm`` ||W||, the full d x d gradient
    g (`einsum_grad`'s reduced form) and its ``grad_norm``, the ``loss`` f
    written free of cancellation as (1/n) sum_i log1p(sum of e^{h_t} over
    sample i's non-label positions / |O_i|) with the label-relative scores
    h, the multiplier ``lam`` = -<g, W> / ||W||^2, the KKT residual ``kkt``
    = ||g + lam W|| and the relative Frank-Wolfe ``gap``
    (<g, W> + radius ||g||) / f."""
    ld = np.longdouble
    w = np.asarray(w, dtype=ld)
    g = einsum_grad(w, extended([ds]), attention.LOG, reduced_log=True)
    every = gm.CyclicSplit(ds, tuple(range(ds.n)), tuple(tuple(range(s.T)) for s in ds.samples))
    x, real, at_label, ey, xbar, _ = held_rows(every, ld)
    h = np.einsum("mtd,de,me->mt", x - ey[:, None, :], w, xbar)
    off_label = np.sum(np.where(real & ~at_label, np.exp(np.where(real, h, 0)), 0), axis=1)
    loss = np.sum(np.log1p(off_label / np.sum(at_label, axis=1))) / ds.n
    norm, grad_norm, dot = np.sqrt(np.sum(w * w)), np.sqrt(np.sum(g * g)), np.sum(g * w)
    lam = -dot / (norm * norm)
    return {"norm": norm, "grad_norm": grad_norm, "loss": loss, "lam": lam,
            "kkt": np.sqrt(np.sum((g + lam * w) ** 2)), "gap": (dot + radius * grad_norm) / loss}


def corr_oracle(w: np.ndarray, w_svm) -> float:
    """<W, W_svm> / (||W|| ||W_svm||) in long double; NaN without W_svm or
    when either matrix is zero."""
    if w_svm is None:
        return np.nan
    w, w_svm = np.asarray(w, dtype=np.longdouble), np.asarray(w_svm, dtype=np.longdouble)
    norms = np.sqrt(np.sum(w * w)) * np.sqrt(np.sum(w_svm * w_svm))
    return np.nan if norms == 0.0 else np.sum(w * w_svm) / norms


def dist_fin_oracle(w: np.ndarray, s_fin, w_fin) -> float:
    """||B^T (B vec W) - vec W_fin|| in long double, the rows of B the
    flattened orthonormal basis of S_fin; NaN without S_fin or W_fin."""
    if s_fin is None or w_fin is None:
        return np.nan
    w, w_fin = (np.asarray(a, dtype=np.longdouble).reshape(-1) for a in (w, w_fin))
    b = np.asarray(s_fin.basis, dtype=np.longdouble).reshape(s_fin.dim, len(w))
    gap = b.T @ (b @ w) - w_fin
    return np.sqrt(np.sum(gap * gap))


def wfin_gd_oracle(split: gm.CyclicSplit, s_fin, init_w=None, grad_tol: float = 1e-9,
                   max_iters: int = 1_000_000) -> np.ndarray:
    """W_fin by projected gradient descent at step 1/L-bar from init_w (zero
    by default), stopped when the projected gradient norm drops below
    grad_tol; L-bar = 2 e_max^4 sqrt(T-bar) |I| / n is the smoothness of the
    reduced loss."""
    d = split.dataset.d
    if split.empty:
        return np.zeros((d, d))
    t_bar = max(len(pos) for pos in split.positions)
    step = split.dataset.n / (2.0 * split.dataset.embedding.e_max**4 * np.sqrt(t_bar) * len(split.idx_i))
    rows = held_rows(split)
    w = np.zeros((d, d)) if init_w is None else init_w.copy()
    for _ in range(max_iters):
        g = wfin_projected_grad(split, s_fin, w, rows)
        if np.linalg.norm(g) < grad_tol:
            return w
        w = w - step * g
    raise AssertionError(f"GD oracle hit {max_iters} iterations")


def tiny_instance(seed: int, K: int = 4, d: int = 5, n: int = 3, T: int = 3,
                  mode: str = "cyclic", head_kind: str = dsm.TIED, noise: float = 0.1) -> dsm.Dataset:
    table = dsm.make_embeddings(K, d, dsm.UNIT_SPHERE, seed=seed)
    head = None if head_kind == "none" else dsm.make_head(table, head_kind, noise=noise, seed=seed)
    return dsm.gen_dataset(table, head, n=n, T=T, mode=mode, seed=seed)


def straight_line_loss(w: np.ndarray, ds: dsm.Dataset, kind: str) -> float:
    """Term-by-term re-implementation of the training objective."""
    total = 0.0
    e = ds.embedding.e
    for s in ds.samples:
        x = e[list(s.tokens)]
        logits = x @ w @ x[-1]
        ex = np.exp(logits - logits.max())
        probs = ex / ex.sum()
        if kind == "ce":
            class_logits = ds.head.c @ (x.T @ probs)
            zs = np.exp(class_logits - class_logits.max())
            total += -np.log(zs[s.label] / zs.sum())
            continue
        if ds.head is not None:
            score = float(ds.head.c[s.label] @ (x.T @ probs))
        else:
            score = float(sum(p for p, tok in zip(probs, s.tokens) if tok == s.label))
        if kind == "log":
            total += -np.log(score)
        elif kind == "squared":
            total += (1.0 - score) ** 2
        else:
            raise ValueError(kind)
    return total / ds.n


def pseudo_tpgs_loop(w: np.ndarray, ds: dsm.Dataset, eps: float) -> dict:
    """Pseudo graphs by their own loop: each sample's positions with softmax
    probability >= eps (else its argmax position) emit edges to every other
    distinct token of the sample."""
    e = ds.embedding.e
    nodes, edges = {}, {}
    for s in ds.samples:
        x = e[list(s.tokens)]
        logits = x @ w @ x[-1]
        probs = np.exp(logits - logits.max())
        probs /= probs.sum()
        retained = [t for t in range(s.T) if probs[t] >= eps] or [int(np.argmax(probs))]
        k = s.last_token
        nodes.setdefault(k, set()).update(s.tokens)
        adj = edges.setdefault(k, {})
        for t1 in retained:
            for tok2 in set(s.tokens):
                if tok2 != s.tokens[t1]:
                    adj.setdefault(s.tokens[t1], set()).add(tok2)
    return {
        k: gm.TokenPriorityGraph(last_token=k, nodes=frozenset(nodes[k]),
                                 edges={i: frozenset(v) for i, v in edges[k].items()})
        for k in nodes
    }


def hand_run_refs(ds: dsm.Dataset, tpgs: dict) -> tuple:
    """W_svm's solution, S_fin and W_fin's result of graphs tpgs over ds,
    each stage called by hand in the order of the chain."""
    decomps = gm.decompose_all(tpgs)
    cons = svm.build_constraints(tpgs, decomps, ds.embedding)
    sol = svm.solve_graph_svm(cons)
    s_fin = svm.fin_subspace(cons)
    split = gm.cyclic_split(ds, dsm.index_sets(ds, decomps))
    return sol, s_fin, attention.train_wfin(split, s_fin)


def top_score(w: np.ndarray, ds: dsm.Dataset) -> float:
    """The largest label-relative score (x_t - e_y)^T W xbar over every
    position of every sample, read one sample at a time from the embedding
    table: the score the kernel's SCORE_BOUND tests, as its softmax is that
    of x_t^T W xbar."""
    e = ds.embedding.e
    return max(float(np.max((e[list(s.tokens)] - e[s.label]) @ (w @ e[s.last_token]))) for s in ds.samples)


def split_top_score(w: np.ndarray, split: gm.CyclicSplit) -> float:
    """`top_score` over the label-SCC positions of the split's held samples."""
    x, real, _, ey, xbar, _ = held_rows(split)
    return float(np.max(np.einsum("mtd,de,me->mt", x - ey[:, None, :], w, xbar)[real]))


# (K, d, n, T, head) of the cyclic-global defaults, large-k, a local-* general
# head and the smaller refs corpus instance.
SHAPES = {
    "desk": (6, 8, 6, 4, dsm.TIED),
    "large-K": (1000, 32, 16, 64, None),
    "local": (8, 8, 4, 6, dsm.GENERAL_ARGMAX),
    "refs": (20, 10, 40, 8, None),
}


def shape_dataset(name: str, seed: int = 0) -> dsm.Dataset:
    """A cyclic draw of one of SHAPES; a head has rows of unit norm."""
    K, d, n, T, head_kind = SHAPES[name]
    table = dsm.make_embeddings(K, d, dsm.UNIT_SPHERE, seed=seed)
    head = None if head_kind is None else dsm.make_head(table, head_kind, noise=0.1, seed=seed, unit_rows=True)
    return dsm.gen_dataset(table, head, n=n, T=T, mode="cyclic", seed=seed)


def last_tokens(ds: dsm.Dataset, lengths) -> dsm.Dataset:
    """ds with sample i cut to its last lengths[i] tokens."""
    samples = tuple(dsm.Sample(tokens=s.tokens[-t:], label=s.label) for s, t in zip(ds.samples, lengths))
    return dataclasses.replace(ds, samples=samples)


def split_and_fin(ds: dsm.Dataset) -> tuple:
    """The cyclic split of ds and its S_fin."""
    tpgs = gm.build_tpgs(ds)
    decomps = gm.decompose_all(tpgs)
    s_fin = svm.fin_subspace(svm.build_constraints(tpgs, decomps, ds.embedding))
    return gm.cyclic_split(ds, dsm.index_sets(ds, decomps)), s_fin


def refs_instance(i: int) -> dsm.Dataset:
    """Instance i of the (20, 20, 60, 8) / (20, 10, 40, 8) cyclic corpus
    that the refs benchmark workload runs."""
    K, d, n, T = ((20, 20, 60, 8), (20, 10, 40, 8))[i % 2]
    seed = int(np.random.SeedSequence([0, i]).generate_state(1)[0])
    table = dsm.make_embeddings(K, d, dsm.UNIT_SPHERE, seed=seed)
    return dsm.gen_dataset(table, None, n=n, T=T, mode="cyclic", seed=seed)


def assert_wfin_certified(res) -> None:
    """A CERTIFIED W_fin whose bound meets WFIN_REL_BOUND."""
    assert res.status is attention.WfinStatus.CERTIFIED
    assert res.residuals["bound"] <= attention.WFIN_REL_BOUND * max(1.0, np.linalg.norm(res.w))


def trace_bytes(trace) -> list:
    """Every array of a TrainTrace but its wall times, as bytes."""
    return [getattr(trace, f.name).tobytes() for f in dataclasses.fields(trace) if f.name != "t_ms"]


def block_trials() -> tuple:
    """Seven tied-head (K, d, n, T) = (3, 4, 3, 3) trials, one group
    structure: a nonzero W_svm with a one-dimensional S_fin, a zero W_svm
    (NaN corr_svm) with a two-dimensional S_fin, an empty split, a gradient
    that stays exactly zero (under GRAD_FLOOR), the single-SCC dataset, and
    two more cyclic draws.  Returns the datasets, their TrainRefs and their
    pipelines."""
    def drawn(seed):
        table = dsm.make_embeddings(3, 4, dsm.UNIT_SPHERE, seed=seed)
        return dsm.gen_dataset(table, dsm.make_head(table, dsm.TIED), n=3, T=3, mode="cyclic", seed=seed)

    table = dsm.make_embeddings(3, 4, dsm.UNIT_SPHERE, seed=5)
    all_label = dsm.Dataset(embedding=table, head=dsm.make_head(table, dsm.TIED),
                            samples=tuple(dsm.Sample(tokens=(k, k, k), label=k) for k in range(3)))
    datasets = [drawn(0), drawn(1), drawn(2), all_label, experiments.single_scc_dataset(seed=3), drawn(22), drawn(13)]
    pipes = [experiments.build_pipeline(ds) for ds in datasets]
    return datasets, [p.refs() for p in pipes], pipes


def trial_build(kind: str, params: dict, tseed: int) -> tuple:
    """One trial of an experiment kind as its experiment builds it: the
    dataset, its TrainConfig (None for reg-path and scc-count), its
    TrainRefs (None without a pipeline) and the kind's own state."""
    return experiments._KINDS[kind].build(params, tseed)


def edit_finish(monkeypatch, kind: str, edit) -> None:
    """Every trial of a kind finishes as before, then its result dict
    passes through edit, until the monkeypatch is undone."""
    entry = experiments._KINDS[kind]
    edited = entry._replace(finish=lambda built, trace: edit(entry.finish(built, trace)))
    monkeypatch.setitem(experiments._KINDS, kind, edited)


def _experiment_kind(name: str) -> str:
    """The trial kind of an experiment."""
    if name in ("cyclic-global", "acyclic-global", "large-k"):
        return "global"
    return "local" if name.startswith("local-") else name


def experiment_block(name: str, trials: int, seed: int = 0, **overrides) -> tuple:
    """The first trials of an experiment's block at a seed, its parameters
    overridden: the datasets, the shared TrainConfig and each trial's
    TrainRefs (None without a pipeline)."""
    params = {**experiments.EXPERIMENTS[name].params, **overrides}
    jobs = (experiments.rate_check_jobs if name == "rate-check" else experiments.seeded_jobs)(params, seed, trials)
    built = [trial_build(_experiment_kind(name), *job) for job in jobs]
    return [b[0] for b in built], built[0][1], [b[2] for b in built]


def log_or_local_block(kind: str) -> tuple:
    """The block trials and their TrainRefs for the log loss; otherwise five
    local-* trials of one structure at n = 8, two of which hold a split of
    2 of their 8 samples and three an empty split."""
    if kind == attention.LOG:
        return block_trials()[:2]
    datasets, _, refs = experiment_block("local-squared", 5, loss=kind, n=8)
    return datasets, refs


# Small cyclic-global parameters for blocks of trials.
GLOBAL_PARAMS = {**experiments.EXPERIMENTS["cyclic-global"].params, "iters": 20, "record_every": 5}


# The trial kinds of the experiments.
KINDS = ["global", "local", "feasibility", "rate-check", "reg-path", "scc-count"]


def gd_jobs(kind: str) -> list:
    """Three to six small jobs of a trial kind, each with its seed;
    feasibility mixes two d, scc-count two n and reg-path the acyclic and
    the cyclic leg."""
    if kind == "global":
        return experiments.seeded_jobs(GLOBAL_PARAMS, 0, 5)
    if kind == "local":
        return experiments.seeded_jobs({**experiments.EXPERIMENTS["local-squared"].params, "iters": 20}, 0, 5)
    if kind == "rate-check":  # the jobs carry their shared eta
        return experiments.rate_check_jobs({**experiments.EXPERIMENTS["rate-check"].params, "iters": 200}, 0, 3)
    if kind == "reg-path":
        p = {**experiments.EXPERIMENTS["reg-path"].params, "r_count": 3}
        cyc = {**p, "mode": "cyclic", "K": p["cyc_K"], "d": p["cyc_d"], "n": p["cyc_n"], "T": p["cyc_T"]}
        return experiments.seeded_jobs({**p, "mode": "acyclic"}, 0, 2) + experiments.seeded_jobs(cyc, 0, 4)[2:]
    if kind == "scc-count":
        return [job for n in (4, 16) for job in experiments.seeded_jobs(dict(K=4, d=4, T=3, n=n), 0, 2)]
    params = dict(K=4, T=3, n=4, eta=0.05, iters=20, eps=None)
    return [job for d in (2, 4) for job in experiments.seeded_jobs({**params, "d": d}, 0, 3)]


def draw_key(job) -> tuple:
    """What tells a job's dataset from the others of `gd_jobs`: a trial's
    seed is the same at every grid point."""
    params, seed = job
    return params["d"], seed


def sweep_rows(name: str, seed: int, trials: int, **params) -> list:
    """Aggregate rows of a sweep experiment, one dict per grid point."""
    cfg = experiments.ExperimentConfig(name, params, {}, seed, trials).resolved()
    result = experiments.EXPERIMENTS[name].runner(cfg)
    return [dict(zip(result.aggregate, row)) for row in zip(*result.aggregate.values())]


def spelled(value) -> str:
    """repr of a value with each array as its dtype and list: repr spells
    every float exactly, NaN included, so equal strings are equal bits."""
    def lists(v):
        if isinstance(v, np.ndarray):
            return v.dtype.str, v.tolist()
        if isinstance(v, dict):
            return {k: lists(x) for k, x in v.items()}
        return [lists(x) for x in v] if isinstance(v, (list, tuple)) else v

    return repr(lists(value))
