"""Graph-SVM assembly and solving over d x d attention matrices.

The constraint set is each last token's graph closure R over its sorted
nodes: a same-SCC pair (R and R^T) is an equality and a strict-priority pair
(R and not R^T) a unit-margin inequality, each on the matrix
(e_i - e_j) e_k^T of its triple (i, j, k).  The solver minimizes the
Frobenius norm subject to those constraints exactly, by an active-set NNLS
after eliminating the equalities; an INFEASIBLE verdict carries convex
weights whose combination of the inequality matrices lies in the equality
span (a Farkas certificate).

Before the NNLS, an exact presolve drops the inequalities that others imply:
per last token, those tied to an earlier one through the equalities (same two
SCCs) and those outside the transitive reduction of the SCC order, whose
margin is a sum of kept margins.  Both are read off the same closures, as is
the feasibility certificate's priority levels.  The feasible set, and so W,
is unchanged; every inequality is still checked.

Every subspace basis (S_fin, S_active, S_svm and the equality span the
solver eliminates) comes from one routine: the right singular vectors of the
stacked, flattened generators whose singular value exceeds BASIS_CUTOFF.
S_fin and the solver share one such basis per constraint set
(`ConstraintSet.eq_basis`).
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .dataset import EmbeddingTable
from .errors import NotOrthonormal
from .graph import SccDecomposition, TokenPriorityGraph, _levels, _product
from .util import frozen

BASIS_CUTOFF = 1e-10
PRIMAL_TOL = 1e-6
FARKAS_TOL = 1e-9
KKT_TOL = 1e-5
# Past this 1 / sin^2 angle between a column of the NNLS passive set and
# the span of the others, the set is solved by LU, not by the updated inverse.
ILL_CONDITIONED = 1e6


class SolveStatus(Enum):
    SOLVED = "solved"
    INFEASIBLE = "infeasible"
    MAX_ITER = "max_iter"


@dataclass(frozen=True, eq=False)
class ConstraintSet:
    """The graphs' closures, one per last token, and the embedding their
    constraints refer to.

    Graph x is last token ``last_tokens[x]`` (ascending) with closure
    ``closures[x]`` over its sorted nodes ``nodes[x]``, padded to the largest
    graph with isolated nodes (node -1).  Only graphs with at least one pair
    are held.  ``equalities`` and ``inequalities`` are (m, 3) arrays of
    triples (i, j, k) read off the closures in (k, i, j) order: the upper
    triangle of R and R^T, and R and not R^T (higher-priority side first).
    """

    last_tokens: np.ndarray  # (G,) intp
    nodes: np.ndarray        # (G, N) intp
    closures: np.ndarray     # (G, N, N) bool
    embedding: EmbeddingTable

    @functools.cached_property
    def _at(self) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """(graph, row, column) in the closure stack of each equality and of
        each inequality."""
        reach = self.closures
        back = np.swapaxes(reach, 1, 2)
        return np.nonzero(np.triu(reach & back, 1)), np.nonzero(reach & ~back)

    def _read(self, g: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        t = np.stack([self.nodes[g, a], self.nodes[g, b], self.last_tokens[g]], axis=1)
        t.setflags(write=False)
        return t

    @functools.cached_property
    def equalities(self) -> np.ndarray:
        return self._read(*self._at[0])

    @functools.cached_property
    def inequalities(self) -> np.ndarray:
        return self._read(*self._at[1])

    @property
    def n_constraints(self) -> int:
        return len(self.equalities) + len(self.inequalities)

    def restrict_to_last_token(self, k: int) -> "ConstraintSet":
        x = int(np.searchsorted(self.last_tokens, k))
        at = slice(x, x + np.count_nonzero(self.last_tokens[x : x + 1] == k))
        return ConstraintSet(self.last_tokens[at], self.nodes[at], self.closures[at], self.embedding)

    @functools.cached_property
    def eq_basis(self) -> np.ndarray:
        """Orthonormal basis of the equality span, rows flattened to d * d:
        S_fin's basis and the span the solver eliminates, computed once."""
        return frozen(_orth(_generators(self.equalities, self.embedding.e)))


def constraint_matrix(triple: Sequence[int], e: np.ndarray) -> np.ndarray:
    i, j, k = triple
    return np.outer(e[i] - e[j], e[k])


def build_constraints(
    tpgs: dict[int, TokenPriorityGraph],
    decomps: dict[int, SccDecomposition],
    embedding: EmbeddingTable,
) -> ConstraintSet:
    """The closures of the graphs that have a pair, stacked in last-token
    order: one inequality per strict-priority ordered pair, one equality
    per unordered same-SCC pair, so transitive pairs generate their own
    inequalities."""
    # A reflexive closure holds a pair when it has more entries than nodes.
    held = [k for k in sorted(tpgs) if decomps[k].closure.sum() > len(decomps[k].nodes)]
    n = max((len(decomps[k].nodes) for k in held), default=0)
    nodes = np.full((len(held), n), -1, dtype=np.intp)
    closures = np.tile(np.eye(n, dtype=bool), (len(held), 1, 1))
    for x, k in enumerate(held):
        m = len(decomps[k].nodes)
        nodes[x, :m] = decomps[k].nodes
        closures[x, :m, :m] = decomps[k].closure
    last_tokens = np.array(held, dtype=np.intp)
    for a in (last_tokens, nodes, closures):
        a.setflags(write=False)
    return ConstraintSet(last_tokens, nodes, closures, embedding)


@dataclass(frozen=True)
class MatrixSubspace:
    """Orthonormal basis of a subspace of d x d matrices."""

    basis: np.ndarray  # (dim, d, d); dim may be 0
    d: int

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def project(self, w: np.ndarray) -> np.ndarray:
        if self.dim == 0:
            return np.zeros_like(w)
        flat = self.basis.reshape(self.dim, -1)
        coef = flat @ w.ravel()
        return (coef @ flat).reshape(w.shape)

    def project_out(self, w: np.ndarray) -> np.ndarray:
        return w - self.project(w)


def _generators(t: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Flattened (e_i - e_j) e_k^T rows of an (m, 3) triple array, shape (m, d * d)."""
    d = e.shape[1]
    return ((e[t[:, 0]] - e[t[:, 1]])[:, :, None] * e[t[:, 2]][:, None, :]).reshape(-1, d * d)


def _values(t: np.ndarray, e: np.ndarray, w: np.ndarray) -> np.ndarray:
    """<(e_i - e_j) e_k^T, W> = (e_i - e_j)^T W e_k for each triple row."""
    return np.einsum("ad,ad->a", (e[t[:, 0]] - e[t[:, 1]]) @ w, e[t[:, 2]])


def _combination(t: np.ndarray, e: np.ndarray, c: np.ndarray) -> np.ndarray:
    """sum_a c_a (e_i - e_j) e_k^T over the triple rows, flattened."""
    return (((e[t[:, 0]] - e[t[:, 1]]).T * c) @ e[t[:, 2]]).ravel()


def _gram(t: np.ndarray, e: np.ndarray, eq_basis: np.ndarray) -> np.ndarray:
    """The NNLS Gram matrix of the triple rows t: the Gram of their
    generators projected off the span of eq_basis, plus one.

    Each generator is delta e_k^T with delta = e_i - e_j, so the Gram is
    (D D^T) o (Q Q^T) - C C^T + 1, where D has rows delta, Q rows e_k and
    C the coordinates on eq_basis, <B_l, delta e_k^T> = delta^T (B_l e_k).
    The rows are taken in runs that share a last token k (they need not be
    sorted by it).  A run's rows of C are its rows of D times the vectors
    B_l e_k, and its rows of the Gram are one product [D, C] [t D, -C]^T
    written in place, where t = Q e_k scales each row of D.  Every array but
    the Gram matrix is O(m (d + q)) for q basis rows.
    """
    m, d = len(t), e.shape[1]
    basis = eq_basis.reshape(-1, d, d)
    delta = e[t[:, 0]] - e[t[:, 1]]
    last = e[t[:, 2]]
    cuts = (np.flatnonzero(t[1:, 2] != t[:-1, 2]) + 1).tolist()
    runs = list(zip([0, *cuts], [*cuts, m]))
    left = np.empty((m, d + len(basis)))  # rows [delta, C]
    left[:, :d] = delta
    if len(basis):
        for lo, hi in runs:
            left[lo:hi, d:] = delta[lo:hi] @ (basis @ last[lo]).T
    right = -left  # rows [t_k delta, -C], the first d columns set per run
    gram = np.empty((m, m))
    for lo, hi in runs:
        right[:, :d] = delta * (last @ last[lo])[:, None]
        np.matmul(left[lo:hi], right.T, out=gram[lo:hi])
    gram += 1.0
    return gram


def _orth(vectors: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the row span: the right singular vectors whose
    singular value exceeds BASIS_CUTOFF."""
    _, sv, vt = np.linalg.svd(vectors, full_matrices=False)
    return vt[: int(np.sum(sv > BASIS_CUTOFF))]


def _subspace(vectors: np.ndarray, d: int) -> MatrixSubspace:
    return MatrixSubspace(basis=frozen(_orth(vectors).reshape(-1, d, d)), d=d)


def span(triples: Sequence[Sequence[int]], embedding: EmbeddingTable) -> MatrixSubspace:
    """Orthonormalized span of the difference-outer-product generators of
    the triples (i, j, k)."""
    t = np.asarray(triples, dtype=np.intp).reshape(-1, 3)
    return _subspace(_generators(t, embedding.e), embedding.d)


def fin_subspace(constraints: ConstraintSet) -> MatrixSubspace:
    """Cyclic subspace: span over same-SCC pairs (`ConstraintSet.eq_basis`)."""
    d = constraints.embedding.d
    return MatrixSubspace(basis=constraints.eq_basis.reshape(-1, d, d), d=d)


def active_subspace(tpgs: dict[int, TokenPriorityGraph], embedding: EmbeddingTable) -> MatrixSubspace:
    """Span over direct edges; equals the span over all reachable pairs."""
    triples = tuple(
        (i, j, k) for k in sorted(tpgs) for i, j in tpgs[k].edge_list()
    )
    return span(triples, embedding)


def svm_subspace(active: MatrixSubspace, fin: MatrixSubspace) -> MatrixSubspace:
    """Orthogonal complement of the cyclic subspace inside the active one."""
    a = active.basis.reshape(active.dim, active.d * active.d)
    f = fin.basis.reshape(fin.dim, fin.d * fin.d)
    return _subspace(a - (a @ f.T) @ f, active.d)


@dataclass(frozen=True)
class SvmSolution:
    w: np.ndarray
    status: SolveStatus
    ineq_multipliers: np.ndarray
    residuals: dict = field(default_factory=dict)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.w))


def _empty_solution(d: int) -> SvmSolution:
    return SvmSolution(
        w=frozen(np.zeros((d, d))),
        status=SolveStatus.SOLVED,
        ineq_multipliers=np.zeros(0),
        residuals={"max_eq_violation": 0.0, "min_ineq_margin": np.inf, "kkt_residual": 0.0, "sweeps": 0,
                   "converged": True, "essential": 0},
    )


class _PassiveInverse:
    """The passive-set solve of Lawson-Hanson NNLS in Gram form, kept
    current as indices enter and leave the passive set P: the inverse of
    the block gram[P, P], the passive rows gram[P] and the solution
    z = gram[P, P]^-1 1.

    Each lives in a buffer of the passive set's size that doubles when
    full, never m x m.  An entering index borders the inverse through its
    Schur complement and a leaving one is a rank-one downdate, O(p^2) each,
    with z following in O(p); the dual gradient 1 - gram u then takes the p
    passive rows, O(p m).

    ``trusted`` says the updates are good to working accuracy: P is not
    nearly dependent (no diag(inv)_i gram_ii, which is 1 / sin^2 of the
    angle between column i of E and the span of the others, above
    ILL_CONDITIONED) and the last residual 1 - gram[P, P] z was within
    tolerance.  While it is False the updates are skipped and the caller
    solves P by LU and refactors.
    """

    def __init__(self, gram: np.ndarray):
        self.gram = gram
        self.diag = gram.diagonal().copy()
        self.p = 0
        size = min(len(gram), 64)
        self.order = np.empty(size, dtype=np.intp)  # order[:p] = P, in the order of the factor
        self.sol = np.empty(size)                   # sol[:p] = z
        self.rows = np.empty((size, len(gram)))     # rows[:p] = gram[P]
        self.inv = np.empty((size, size))           # inv[:p, :p] = gram[P, P]^-1
        self.trusted = True

    @property
    def idx(self) -> np.ndarray:
        return self.order[: self.p]

    def z(self) -> np.ndarray:
        return self.sol[: self.p].copy()

    def grad(self) -> np.ndarray:
        """1 - gram u for u = z on P and 0 elsewhere."""
        return 1.0 - self.sol[: self.p] @ self.rows[: self.p]

    def schur(self, j: int) -> tuple[np.ndarray, float]:
        """h = gram[P, P]^-1 gram[P, j] and the Schur complement of j; the
        weight of j once it enters is (1 - sum(h)) / s."""
        p = self.p
        b = self.rows[:p, j]
        h = self.inv[:p, :p] @ b
        return h, float(self.diag[j] - b @ h)

    def add(self, j: int, h: np.ndarray, s: float) -> None:
        """Border the factor with index j, given `schur(j)`."""
        p = self.p
        if p == len(self.inv):
            self._grow()
        hs = h / s
        zj = (1.0 - h.sum()) / s
        self.inv[:p, :p] += np.einsum("i,j->ij", h, hs)
        self.inv[:p, p] = self.inv[p, :p] = -hs
        self.inv[p, p] = 1.0 / s
        self.sol[:p] -= zj * h
        self.sol[p] = zj
        self.rows[p] = self.gram[j]
        self.order[p] = j
        self.p += 1

    def drop(self, pos: int) -> None:
        """Remove the index at position pos: swap it to the end, then
        downdate the factor by its last row and column."""
        q = self.p - 1
        inv, sol = self.inv, self.sol
        if pos != q:
            self.rows[pos] = self.rows[q]
            self.order[pos] = self.order[q]
            if self.trusted:
                inv[[pos, q], : q + 1] = inv[[q, pos], : q + 1]
                inv[: q + 1, [pos, q]] = inv[: q + 1, [q, pos]]
                sol[[pos, q]] = sol[[q, pos]]
        if self.trusted:
            col = inv[:q, q] / inv[q, q]
            inv[:q, :q] -= np.einsum("i,j->ij", col, inv[q, :q])
            sol[:q] -= sol[q] * col
        self.p = q

    def check(self, grad: np.ndarray, tol: float) -> bool:
        """Whether the factor can be kept: P is not nearly dependent and
        the residual of z, grad on P, is within tol."""
        idx = self.idx
        spread = self.inv.diagonal()[: self.p] * self.diag[idx]
        self.trusted = self.p == 0 or bool(spread.max() <= ILL_CONDITIONED and np.abs(grad[idx]).max() <= tol)
        return self.trusted

    def reset(self, idx: np.ndarray, z: np.ndarray) -> None:
        """Refactor from scratch on the index set idx, in that order, whose
        solution z the caller has solved for."""
        p = len(idx)
        while p > len(self.inv):
            self._grow()
        self.p = p
        self.order[:p] = idx
        self.sol[:p] = z
        self.rows[:p] = self.gram[idx]
        self.inv[:p, :p] = np.linalg.inv(self.gram[np.ix_(idx, idx)])

    def _grow(self) -> None:
        size, p = min(2 * len(self.inv), len(self.gram)), self.p
        order, sol = np.empty(size, dtype=np.intp), np.empty(size)
        rows, inv = np.empty((size, len(self.gram))), np.empty((size, size))
        order[:p], sol[:p], rows[:p], inv[:p, :p] = self.order[:p], self.sol[:p], self.rows[:p], self.inv[:p, :p]
        self.order, self.sol, self.rows, self.inv = order, sol, rows, inv


def _nnls_gram(gram: np.ndarray) -> tuple[np.ndarray, int, bool]:
    """Lawson-Hanson NNLS, min ||E u - f|| over u >= 0, in Gram form.

    Only gram = E^T E is needed, with E^T f = 1 (the all-ones vector), so
    the dual gradient is 1 - gram u.  The passive-set solve is updated as
    indices enter and leave (`_PassiveInverse`), so a step costs O(p m)
    rather than a fresh O(p^3) solve and an O(m^2) product.  Where the
    updates cannot be trusted (an entering index whose Schur complement is
    below 1 / ILL_CONDITIONED of its diagonal, a nearly dependent P, or a
    residual above tol) a step is the textbook one, an LU solve of
    gram[P, P], and the factor is rebuilt from scratch.  An entering index
    that is non-improving (its new weight is not positive) or degenerate
    (the LU solve finds P with it singular) is skipped until u moves.

    Convergence is decided on an exact solve, never on the updates: the
    final passive set is solved afresh by LU, np.linalg.solve(gram[P, P], 1),
    and accepted only when every weight is positive and 1 - gram u <= tol
    off P, over the full Gram matrix.  A set that fails is refactored, and
    the iteration goes on from that solve.

    Returns (u, iterations, converged), where an iteration is one
    passive-set solve (by the updates or by LU; the accepted check is not
    counted) and the cap is 3m.
    """
    m = len(gram)
    cap = 3 * m
    tol = 10.0 * m * np.finfo(float).eps * float(gram.diagonal().max())
    u = np.zeros(m)
    grad = np.ones(m)
    factor = _PassiveInverse(gram)
    iters = 0

    def exact(idx: np.ndarray) -> np.ndarray:
        return np.linalg.solve(gram[np.ix_(idx, idx)], np.ones(len(idx)))

    def refactor(idx: np.ndarray, z: np.ndarray) -> np.ndarray:
        factor.reset(idx, z)
        g = factor.grad()
        factor.check(g, tol)
        return g

    def solve() -> tuple[np.ndarray, np.ndarray]:
        nonlocal iters
        iters += 1
        if factor.trusted:
            g = factor.grad()
            if factor.check(g, tol):
                return factor.z(), g
        idx = np.sort(factor.idx)
        z = exact(idx)
        return z, refactor(idx, z)

    while iters < cap:
        grad[factor.idx] = -np.inf
        j = int(grad.argmax())
        if grad[j] <= tol:
            idx = np.sort(factor.idx)
            z = exact(idx)
            full = np.zeros(m)
            full[idx] = z
            grad = 1.0 - gram @ full
            grad[idx] = -np.inf
            if np.all(z > 0) and not (grad > tol).any():
                return full, iters, True
            # The updates misled the iteration: go on from the exact solve.
            iters += 1
            refactor(idx, z)
        else:
            fast = factor.trusted
            if fast:
                h, s = factor.schur(j)
                fast = s * ILL_CONDITIONED >= factor.diag[j]
                if fast and h.sum() >= 1.0:
                    # The weight of j, (1 - sum(h)) / s, would not be
                    # positive: skip it until u moves.
                    iters += 1
                    grad[j] = 0.0
                    continue
            if fast:
                factor.add(j, h, s)
                z, grad = solve()
            else:
                iters += 1
                idx = np.sort(np.append(factor.idx, j))
                try:
                    z = exact(idx)
                except np.linalg.LinAlgError:  # degenerate: j lies in the span of P
                    z = np.zeros(len(idx))
                if z[np.searchsorted(idx, j)] <= 0:
                    grad[j] = 0.0
                    continue
                grad = refactor(idx, z)
        while (z <= 0).any():
            if iters >= cap:
                return u, iters, False
            # Step from u toward z until the first passive weight hits zero.
            cur = u[factor.idx]
            neg = z <= 0
            ratio = np.full(len(z), np.inf)
            ratio[neg] = cur[neg] / (cur[neg] - z[neg])
            k = int(np.argmin(ratio))
            cur += ratio[k] * (z - cur)
            cur[k] = 0.0
            drop = cur <= 0.0
            u[factor.idx] = np.where(drop, 0.0, cur)
            for pos in np.flatnonzero(drop)[::-1]:
                factor.drop(int(pos))
            z, grad = solve()
        u[factor.idx] = z
    return u, iters, False


def _essential(constraints: ConstraintSet) -> np.ndarray:
    """Indices, ascending, of the inequalities that no others imply.

    Works per last token on its closure R, whose classes R and R^T are the
    graph's SCCs.  Two inequalities between the same two SCCs have
    generators that differ by an equality generator, so only the first in
    the set's order is kept, and only when its SCC pair (A, C) is in the
    transitive reduction R_s and not R_s R_s, R_s being R without its SCC
    blocks (Aho, Garey & Ullman 1972).  Modulo the equality span, a dropped
    pair's generator is the sum of those along a path of kept pairs, so its
    margin is at least 2.
    """
    reach = constraints.closures
    g, a, b = constraints._at[1]
    same = reach & np.swapaxes(reach, 1, 2)
    strict = reach & ~same
    cover = strict & ~_product(strict, strict)
    head = same.argmax(axis=2)  # each node's SCC, by its smallest member
    n = reach.shape[1]
    _, first = np.unique((g * n + head[g, a]) * n + head[g, b], return_index=True)
    return np.sort(first[cover[g[first], a[first], b[first]]])


def solve_graph_svm(constraints: ConstraintSet) -> SvmSolution:
    """Min-Frobenius-norm W subject to the constraint set, over its embedding.

    A presolve (`_essential`) first drops the inequalities that others imply:
    per last token, all but one between the same two SCCs, and those outside
    the transitive reduction of the SCC order, both read off the closures
    the constraint set holds.  The feasible set is unchanged, so W is too.
    The Gram matrix, the NNLS, p and the Farkas test below see the kept rows
    only; the primal, margin and KKT checks run over every inequality.

    Equalities are eliminated by projecting every kept inequality matrix
    onto the orthogonal complement of their span (the optimum lives there).
    The remaining least-distance program, min ||W|| s.t. <A~_a, W> >= 1, is
    solved exactly as the NNLS min ||E u - e_{D+1}||, u >= 0, with
    E = [A~^T; 1^T] (Lawson & Hanson, ch. 23).  With s = sum(u) and the
    convex weights c = u / s, the point p = A~^T c is the nearest point of
    the constraints' convex hull to the origin.  If ||p|| <= FARKAS_TOL the
    weights are a Farkas certificate (a convex combination of the A_a lying
    in the equality span) and the status is INFEASIBLE with W = 0;
    otherwise W = p / ||p||^2.  ``ineq_multipliers`` has one entry per
    inequality, 0 on every dropped one.

    No generator is written out as a d^2-wide row.  The Gram matrix of the
    m kept rows comes from their d-dimensional factors (`_gram`), since
    <(e_i - e_j) e_k^T, (e_i' - e_j') e_k'^T> = ((e_i - e_j) . (e_i' - e_j'))
    (e_k . e_k'), less the products of their coordinates on the q rows of
    the equality basis.  That takes O(m^2 (d + q)) flops, where d^2-wide
    rows took O(m^2 d^2), and every array besides the m x m Gram matrix and
    the NNLS's buffers is O(m (d + q)).  p is the passive rows' combination
    as one d x d matrix, projected afterwards.

    ``residuals["essential"]`` counts the rows the NNLS saw,
    ``residuals["sweeps"]`` its passive-set solves, and
    ``residuals["converged"]`` is True when its exact optimality check
    passed: a MAX_ITER with ``converged`` True failed the primal or KKT
    check on an optimal NNLS point, one with False hit the 3m cap.
    """
    d = constraints.embedding.d
    e = constraints.embedding.e
    if not len(constraints.inequalities):
        return _empty_solution(d)

    eq_basis = constraints.eq_basis
    ineq = constraints.inequalities
    eq = constraints.equalities
    keep = _essential(constraints)
    gram = _gram(ineq[keep], e, eq_basis)
    u, iters, converged = _nnls_gram(gram)
    del gram
    passive = keep[u > 0]
    weights = np.zeros(len(ineq))
    weights[keep] = u / u.sum()
    p = _combination(ineq[passive], e, weights[passive])
    p -= (eq_basis @ p) @ eq_basis
    farkas = float(np.linalg.norm(p))
    counts = {"sweeps": iters, "converged": converged, "essential": len(keep)}
    if farkas <= FARKAS_TOL:
        return SvmSolution(
            w=frozen(np.zeros((d, d))),
            status=SolveStatus.INFEASIBLE if converged else SolveStatus.MAX_ITER,
            ineq_multipliers=weights,
            residuals={"farkas_residual": farkas, **counts},
        )

    # At the NNLS optimum 1 - s = s ||p||^2, so lambda = u / (1 - s) is
    # computed without the cancellation in 1 - s.
    lam = (1.0 / farkas**2) * weights
    w_flat = p / farkas**2
    w = w_flat.reshape(d, d)

    # Stationarity up to the equality span: the part of W - A^T lambda that
    # no choice of equality multipliers can cancel.
    stationarity = w_flat - _combination(ineq, e, lam)
    stationarity -= (eq_basis @ stationarity) @ eq_basis
    kkt_residual = float(np.linalg.norm(stationarity))

    max_eq = float(np.max(np.abs(_values(eq, e, w)), initial=0.0))
    min_ineq = float(np.min(_values(ineq, e, w)))
    status = SolveStatus.MAX_ITER
    if converged and max_eq <= PRIMAL_TOL and min_ineq >= 1.0 - PRIMAL_TOL and kkt_residual <= KKT_TOL:
        status = SolveStatus.SOLVED

    return SvmSolution(
        w=frozen(w),
        status=status,
        ineq_multipliers=lam,
        residuals={
            "max_eq_violation": max_eq,
            "min_ineq_margin": min_ineq,
            "kkt_residual": kkt_residual,
            **counts,
        },
    )


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    certificate: Optional[np.ndarray]
    source: str
    detail: str = ""


def check_feasibility(constraints: ConstraintSet) -> FeasibilityResult:
    """Certify feasibility for full-row-rank embeddings by explicit
    construction; otherwise report what the solver finds."""
    emb = constraints.embedding
    if constraints.n_constraints == 0:
        return FeasibilityResult(True, np.zeros((emb.d, emb.d)), "certificate", "no constraints")
    if emb.full_row_rank:
        # W^bar[i, k] is node i's priority level in the graph of last token
        # k, read off its closure: every inequality's priority gap is >= 1.
        levels = _levels(constraints.closures)
        x, a = np.nonzero(constraints.nodes >= 0)
        wbar = np.zeros((emb.K, emb.K))
        wbar[constraints.nodes[x, a], constraints.last_tokens[x]] = levels[x, a]
        ebar = np.linalg.solve(emb.e @ emb.e.T, emb.e)  # Ebar E^T = I
        w = ebar.T @ wbar @ ebar
        ineq, eq = constraints.inequalities, constraints.equalities
        if len(ineq):
            g, a, b = constraints._at[1]
            w = w / int(np.min(levels[g, a] - levels[g, b]))
        # Verify against the actual embedding arithmetic.
        max_eq = float(np.max(np.abs(_values(eq, emb.e, w)), initial=0.0))
        min_ineq = float(np.min(_values(ineq, emb.e, w), initial=np.inf))
        if max_eq <= PRIMAL_TOL and min_ineq >= 1.0 - PRIMAL_TOL:
            return FeasibilityResult(True, frozen(w), "certificate",
                                     f"max_eq={max_eq:.2e}, min_ineq={min_ineq:.6f}")
    return _solver_fallback(constraints)


def _solver_fallback(constraints: ConstraintSet) -> FeasibilityResult:
    sol = solve_graph_svm(constraints)
    if sol.status is SolveStatus.SOLVED:
        return FeasibilityResult(True, sol.w, "solver", "solver found a feasible point")
    return FeasibilityResult(False, None, "solver", f"solver status: {sol.status.value}")


def solve_per_last_token(constraints: ConstraintSet) -> SvmSolution:
    """Solve one subproblem per last token and sum; valid for orthonormal
    embeddings, where each partial solution's row space is span(e_k)."""
    emb = constraints.embedding
    if not emb.is_orthonormal():
        raise NotOrthonormal("per-last-token decomposition requires orthonormal embeddings")
    d = emb.d
    total = np.zeros((d, d))
    statuses = []
    sweeps = essential = 0
    converged = True
    for k in constraints.last_tokens:
        sub = constraints.restrict_to_last_token(k)
        sol = solve_graph_svm(sub)
        statuses.append(sol.status)
        sweeps += sol.residuals["sweeps"]
        essential += sol.residuals["essential"]
        converged = converged and sol.residuals["converged"]
        wk = sol.w
        # Row space check: W_k must vanish off span(e_k).
        row_residual = np.linalg.norm(wk - np.outer(wk @ emb.e[k], emb.e[k]))
        if row_residual > 1e-8:
            raise NotOrthonormal(f"subproblem k={k} left span(e_k): residual {row_residual:.2e}")
        total += wk
    worst = next((st for st in (SolveStatus.INFEASIBLE, SolveStatus.MAX_ITER) if st in statuses), SolveStatus.SOLVED)
    return SvmSolution(
        w=frozen(total),
        status=worst,
        ineq_multipliers=np.zeros(0),
        residuals={"sweeps": sweeps, "converged": converged, "essential": essential, "per_k": len(statuses)},
    )
