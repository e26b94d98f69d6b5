"""Graph-SVM assembly and solving over d x d attention matrices.

The constraint set is each last token's graph closure R over its sorted
nodes: a same-SCC pair (R and R^T) is an equality and a strict-priority pair
(R and not R^T) a unit-margin inequality, each on the matrix
(e_i - e_j) e_k^T of its triple (i, j, k).  The solver minimizes the
Frobenius norm subject to those constraints exactly, by an active-set NNLS
after eliminating the equalities; an INFEASIBLE verdict carries convex
weights whose combination of the inequality matrices lies in the equality
span (a Farkas certificate).  The NNLS keeps an orthogonal factor of its
passive set, never an inverse (`_PassiveFactor`).

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
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .dataset import EmbeddingTable
from .errors import NoConvergence, NotOrthonormal
from .graph import SccDecomposition, TokenPriorityGraph, _levels, _product
from .util import frozen

BASIS_CUTOFF = 1e-10
PRIMAL_TOL = 1e-6
FARKAS_TOL = 1e-9
KKT_TOL = 1e-5
# Past this 1 / sin^2 angle between a column of the NNLS passive set and
# the span of the others, the set is solved by LU, not by the updated
# orthogonal factor.
ILL_CONDITIONED = 1e6
# The NNLS stores its passive rows in blocks of this many, so a growing
# passive set takes one more block and copies no row.
ROW_BLOCK = 64


class SolveStatus(Enum):
    SOLVED = "solved"
    INFEASIBLE = "infeasible"
    MAX_ITER = "max_iter"


class WfinStatus(Enum):
    CERTIFIED = "certified"
    UNCERTIFIED = "uncertified"


@dataclass(frozen=True)
class Solution:
    """A solver's verdict: W, its status, and the residuals behind it.

    SOLVED and CERTIFIED are decided: `require` passes them and raises
    NoConvergence on any other status.  The residual keys, per solver:

    - `solve_graph_svm`: ``sweeps`` (the NNLS's passive-set solves),
      ``converged`` (its exact optimality check passed) and ``essential``
      (the rows it saw), always; with them ``farkas_residual`` (||p||)
      where p is a Farkas certificate (INFEASIBLE, or MAX_ITER if the NNLS
      hit its cap), else ``max_eq_violation``, ``min_ineq_margin`` and
      ``kkt_residual`` of W (SOLVED, or MAX_ITER if a check failed).
      ``ineq_multipliers`` has one entry per inequality: the Farkas weights
      in the first case, the KKT multipliers in the second;
    - `solve_per_last_token`: ``sweeps``, ``converged`` and ``essential``
      over its subproblems and their count ``per_k``; no multipliers;
    - `explicit_solution`: the construction's ``max_eq_violation`` and
      ``min_ineq_margin``, SOLVED with no multipliers;
    - `attention.train_wfin`: ``iterations`` (Newton steps),
      ``grad_norm`` and ``mu`` (the smallest Hessian eigenvalue) of the
      reduced loss at w in S_fin coordinates, and ``bound``, with
      ||w - W_fin||_F <= bound when CERTIFIED; no multipliers;
    - `attention.reg_path`, per ball: ``radius``, ``iterations`` (Newton
      steps) and ``gap``, with f(w) - min f <= gap f(w) on it; no multipliers.
    """

    w: np.ndarray
    status: SolveStatus | WfinStatus
    residuals: dict
    ineq_multipliers: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.w))

    def require(self, what: str) -> "Solution":
        """This solution if its status is decided; otherwise NoConvergence
        naming what returned which status, with the residuals."""
        if self.status in (SolveStatus.SOLVED, WfinStatus.CERTIFIED):
            return self
        shown = ", ".join(f"{k} {v:.3e}" if isinstance(v, float) else f"{k} {v}" for k, v in self.residuals.items())
        raise NoConvergence(f"{what} returned {self.status.value} ({shown})")


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

    def anchor(self, target: np.ndarray) -> tuple[np.ndarray, float]:
        """target's coordinates z in the basis, z_k = B_k . target, and the
        square of its distance from the subspace, ||target - sum_k z_k B_k||^2."""
        flat, target = self.basis.reshape(self.dim, self.d * self.d), target.reshape(-1)
        z = flat @ target
        rest = target - z @ flat
        return z, float(rest @ rest)

    def distance(self, w: np.ndarray, target: np.ndarray) -> float:
        """||project(w) - target||.  The basis is orthonormal, so its square
        is sum_k (B_k . w - z_k)^2 plus off, with z and off those of
        `anchor` (target).  Each B_k . w is a dot product of its own on
        contiguous rows (a strided one sums in another order) and the sum
        runs in order of k, the bits of each trial of the trace's dist_fin
        (`attention._StackRefs`).  Like project, it rounds at the scale of
        ||w||, so its relative error is about eps ||w|| over the
        distance."""
        z, off = self.anchor(target)
        w, total = np.ascontiguousarray(w.reshape(-1)), 0.0
        for row, z_k in zip(np.ascontiguousarray(self.basis.reshape(self.dim, self.d * self.d)), z):
            c = np.vecdot(row, w) - z_k
            total += c * c
        return float(np.sqrt(total + off))


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


class _GramRows:
    """The rows of the NNLS Gram matrix of the triple rows t, each formed
    when it is read: the Gram of their generators projected off the span of
    eq_basis, plus one.

    Each generator is delta e_k^T with delta = e_i - e_j, so row j is
    (D delta_j) o (Q e_k) - C c_j + 1, where D has rows delta, Q rows e_k
    and C the coordinates on eq_basis, <B_l, delta e_k^T> = delta^T (B_l e_k).
    The products t = Q e_k are held once per last token k, and C is
    computed in runs of rows that share a last token (they need not be
    sorted by it): a run's rows of C are its rows of D times the vectors
    B_l e_k.  `write` forms a row in O(m (d + q)) for q basis rows,
    ``diag`` holds the diagonal, and the source holds O(m (d + q + r)) for
    r last tokens.
    """

    def __init__(self, t: np.ndarray, e: np.ndarray, eq_basis: np.ndarray):
        m, d = len(t), e.shape[1]
        basis = eq_basis.reshape(-1, d, d)
        q = len(basis)
        last = e[t[:, 2]]
        self.m = m
        self.delta = e[t[:, 0]] - e[t[:, 1]]
        tokens, self.token = np.unique(t[:, 2], return_inverse=True)
        self.products = e[tokens] @ last.T  # products[token[j]] = Q e_k for row j's k
        # Rows [C, 1] and [-C, 1], so that coords @ signed[j] = 1 - C c_j.
        self.coords = np.ones((m, q + 1))
        if q:
            cuts = (np.flatnonzero(t[1:, 2] != t[:-1, 2]) + 1).tolist()
            for lo, hi in zip([0, *cuts], [*cuts, m]):
                self.coords[lo:hi, :q] = self.delta[lo:hi] @ (basis @ last[lo]).T
        self.signed = -self.coords
        self.signed[:, q] = 1.0
        self.diag = np.vecdot(self.delta, self.delta) * np.vecdot(last, last) + np.vecdot(self.coords, self.signed)

    def write(self, j: int, out: np.ndarray) -> None:
        """Row j of the Gram matrix, into out."""
        self.delta.dot(self.delta[j], out)
        out *= self.products[self.token[j]]
        out += self.coords.dot(self.signed[j])


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


def _top(x: np.ndarray) -> float:
    """x.max() of a non-empty x, NaN if it holds one, read through argmax:
    a ufunc reduction's fixed cost is several times a short argmax's."""
    return x[x.argmax()]


class _PassiveFactor:
    """The passive-set solve of Lawson-Hanson NNLS in Gram form, kept
    current as indices enter and leave the passive set P by an orthogonal
    factor of P's generators E_P (Lawson & Hanson, ch. 24; Golub & Van
    Loan, "Updating matrix factorizations"): a p x p matrix M with
    M gram[P, P] M^T = I, so E_P M^T is an orthonormal basis of their span,
    which is never formed.  gram[P, P]^-1 = M^T M, and the factor keeps the
    solution z = gram[P, P]^-1 1 and dinv = diag(gram[P, P]^-1), the
    squared column norms of M.

    A Gram row is formed from the row source (`_GramRows`) when its index
    enters, and the block, the LU solves and the dual gradient are read off
    the stored rows, so the solve never holds an m x m array.  The rows are
    stored in blocks of ROW_BLOCK: a passive set that outgrows them takes
    one more block, and no row is ever copied to grow.  With the source
    that is O(p m + m (d + q + r)) memory.

    An entering index j costs two gemvs and O(p): w = M gram[P, j], its
    Schur complement s = gram_jj - |w|^2, and a new row of M,
    -(M^T w)^T / sqrt(s) with 1 / sqrt(s) on the diagonal.  A leaving index
    costs one Householder reflection, O(p^2): it maps the index's column
    of M onto the last row, which is dropped, and the last column takes
    the index's place.  The reflection keeps column norms, so dinv and z
    follow from the dropped row in O(p).  The dual gradient 1 - gram u then
    takes the p passive rows, O(p m).

    ``trusted`` says the updates are good to working accuracy: P is not
    nearly dependent (no dinv_i gram_ii, which is 1 / sin^2 of the angle
    between column i of E and the span of the others, above
    ILL_CONDITIONED) and the last residual 1 - gram[P, P] z was within
    tolerance.  While it is False the updates are skipped and the caller
    solves P by LU and refactors.
    """

    def __init__(self, source: _GramRows):
        self.source = source
        self.diag = source.diag
        self.p = 0
        self.block = min(source.m, ROW_BLOCK)
        self.blocks: list[np.ndarray] = []          # row i of gram[P] is blocks[i // block][i % block]
        self.order = np.empty(0, dtype=np.intp)     # order[:p] = P, the columns of M
        self.sol = np.empty(0)                      # sol[:p] = z
        self.dinv = np.empty(0)                     # dinv[:p] = diag(gram[P, P]^-1)
        self.mat = np.empty((0, 0))                 # mat[:p, :p] = M
        self._grow()
        self.trusted = True

    @property
    def idx(self) -> np.ndarray:
        return self.order[: self.p]

    def z(self) -> np.ndarray:
        return self.sol[: self.p].copy()

    def grad(self, z: Optional[np.ndarray] = None) -> np.ndarray:
        """1 - gram u for u = z on the first len(z) stored indices and 0
        elsewhere; z defaults to the factor's solution on P."""
        z = self.sol[: self.p] if z is None else z
        n, size = len(z), self.block
        g = 1.0 - z[:size] @ self.blocks[0][:n]
        for b in range(1, -(-n // size)):
            g -= z[b * size : (b + 1) * size] @ self.blocks[b][: n - b * size]
        return g

    def _row(self, i: int) -> np.ndarray:
        b, r = divmod(i, self.block)
        return self.blocks[b][r]

    def _gather(self, n: int, cols: np.ndarray) -> np.ndarray:
        """gram[order[:n], cols], read off the first n stored rows."""
        size = self.block
        if n <= size:
            return self.blocks[0][:n, cols]
        return np.concatenate([self.blocks[b][: n - b * size, cols] for b in range(-(-n // size))])

    def schur(self, j: int) -> tuple[np.ndarray, float, float]:
        """w = M gram[P, j], the Schur complement s = gram_jj - |w|^2 of j,
        and 1^T gram[P, P]^-1 gram[P, j] = z . gram[P, j]: the weight of j
        once it enters is (1 - z . gram[P, j]) / s."""
        p = self.p
        b = self._gather(p, j)
        w = self.mat[:p, :p] @ b
        return w, float(self.diag[j] - w @ w), float(self.sol[:p] @ b)

    def stage(self, j: int) -> None:
        """Form row j in the slot after P, where `exact` and `add` read it."""
        if self.p == len(self.order):
            self._grow()
        self.source.write(j, self._row(self.p))
        self.order[self.p] = j

    def add(self, j: int, w: np.ndarray, s: float, zb: float) -> None:
        """Append index j to the factor, given `schur(j)`."""
        self.stage(j)
        p, mat = self.p, self.mat
        row = mat[p, :p]
        np.matmul(w, mat[:p, :p], out=row)  # h = M^T w = gram[P, P]^-1 gram[P, j]
        mat[:p, p] = 0.0
        zj = (1.0 - zb) / s
        self.sol[:p] -= zj * row
        self.sol[p] = zj
        mat[p, p] = 1.0 / math.sqrt(s)
        row *= -mat[p, p]
        self.dinv[:p] += row * row
        self.dinv[p] = 1.0 / s
        self.p += 1

    def drop(self, pos: int) -> None:
        """Remove the index at position pos: reflect its column of M onto
        the last row, drop that row, and move the last column into pos."""
        q = self.p - 1
        if self.trusted:
            mat, sol, dinv = self.mat, self.sol, self.dinv
            # H = I - v v^T / (|c| |v_q|) with v = c + sign(c_q) |c| e_q maps
            # the column c onto rho e_q, rho = -sign(c_q) |c|; the sign
            # avoids cancellation in v_q.
            v = mat[: q + 1, pos].copy()
            norm = math.sqrt(v @ v)
            v[q] += math.copysign(norm, v[q])
            rho = -math.copysign(norm, v[q])
            t = v @ mat[: q + 1, : q + 1]
            t /= norm * abs(v[q])
            r = mat[q, : q + 1] - v[q] * t  # the last row of H M, dropped
            mat[:q, : q + 1] -= np.multiply.outer(v[:q], t)
            # gram[P, P]^-1 = (H M)^T (H M) loses r^T r, so z, its product
            # with 1, loses r (r . (H M 1)) = r z_pos / rho.
            sol[: q + 1] -= (sol[pos] / rho) * r
            r *= r
            dinv[: q + 1] -= r
            mat[:q, pos] = mat[:q, q]
            sol[pos], dinv[pos] = sol[q], dinv[q]
        self._row(pos)[:] = self._row(q)
        self.order[pos] = self.order[q]
        self.p = q

    def check(self, grad: np.ndarray, tol: float) -> bool:
        """Whether the factor can be kept: P is not nearly dependent and
        the residual of z, grad on P, is within tol."""
        idx = self.idx
        self.trusted = self.p == 0 or bool(
            _top(self.dinv[: self.p] * self.diag[idx]) <= ILL_CONDITIONED and _top(np.abs(grad[idx])) <= tol)
        return self.trusted

    def exact(self, n: int) -> np.ndarray:
        """The LU solve of the first n stored indices (P, or P and a staged
        index): z = np.linalg.solve(gram[idx, idx], 1) for idx = order[:n]
        in ascending order, returned in the stored order.  The factor is
        unchanged."""
        pos = np.argsort(self.order[:n])
        z = np.empty(n)
        z[pos] = np.linalg.solve(self._gather(n, self.order[pos])[pos], np.ones(n))
        return z

    def reset(self, z: np.ndarray) -> None:
        """Refactor from scratch on the first len(z) stored indices, whose
        solution z `exact` solved for: M = L^-1 for the Cholesky factor L of
        gram[P, P].  Where Cholesky finds the block not positive definite,
        dinv is left infinite, so `check` does not trust the factor."""
        p = len(z)
        self.p = p
        self.sol[:p] = z
        try:
            mat = np.linalg.inv(np.linalg.cholesky(self._gather(p, self.order[:p])))
        except np.linalg.LinAlgError:
            self.dinv[:p] = np.inf
            return
        self.mat[:p, :p] = mat
        self.dinv[:p] = np.vecdot(mat.T, mat.T)

    def _grow(self) -> None:
        """One more block of rows; the per-index arrays grow with it."""
        size, p = len(self.order) + self.block, self.p
        self.blocks.append(np.empty((self.block, self.source.m)))
        order, sol, dinv, mat = np.empty(size, dtype=np.intp), np.empty(size), np.empty(size), np.empty((size, size))
        order[:p], sol[:p], dinv[:p], mat[:p, :p] = self.order[:p], self.sol[:p], self.dinv[:p], self.mat[:p, :p]
        self.order, self.sol, self.dinv, self.mat = order, sol, dinv, mat


def _nnls_gram(source: _GramRows) -> tuple[np.ndarray, int, bool]:
    """Lawson-Hanson NNLS, min ||E u - f|| over u >= 0, in Gram form.

    Only gram = E^T E is needed, with E^T f = 1 (the all-ones vector), so
    the dual gradient is 1 - gram u, and u is 0 off the passive set P, so
    only the rows gram[P] are read, each formed when its index enters.  The
    passive-set solve is kept by an orthogonal factor of P's generators
    (`_PassiveFactor`), which holds those rows.  Where the updates cannot
    be trusted (an entering index whose Schur complement is below
    1 / ILL_CONDITIONED of its diagonal or whose weight would not be
    positive, a nearly dependent P, or a residual above tol) a step is the
    textbook one, an LU solve of gram[P, P], and the factor is rebuilt from
    scratch.  An entering index that the LU solve gives no positive weight,
    or finds P with it singular, is skipped until u moves.

    Convergence is decided on an exact solve, never on the updates: the
    final passive set is solved afresh by LU, np.linalg.solve(gram[P, P], 1),
    and accepted only when every weight is positive and
    1 - gram u = 1 - z gram[P] <= tol off P.  A set that fails is
    refactored, and the iteration goes on from that solve.

    Each fallback branch has a test in tests/test_internals.py's
    NnlsCertificates that fails if the branch stops running:

    - the LU step: test_lu_step_for_a_nearly_dependent_index;
    - its skip of an index with a weight <= 0 or a singular P:
      test_staged_index_without_a_positive_weight_is_skipped and
      test_singular_staged_block_is_skipped;
    - the final check's refactor: test_failed_final_check_refactors;
    - Cholesky's refusal in `_PassiveFactor.reset`:
      test_cholesky_refusal_untrusts_the_factor;
    - the 3m cap: test_inner_cap and test_outer_cap.

    Returns (u, iterations, converged); an iteration is one passive-set
    solve, by the updates or by LU, and the accepted check is not counted.
    """
    m = source.m
    cap = 3 * m
    tol = 10.0 * m * np.finfo(float).eps * float(source.diag.max())
    u = np.zeros(m)
    grad = np.ones(m)
    factor = _PassiveFactor(source)
    iters = 0

    def refactor(z: np.ndarray) -> np.ndarray:
        factor.reset(z)
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
        z = factor.exact(factor.p)
        return z, refactor(z)

    while iters < cap:
        if not factor.trusted:
            # A trusted factor's residual on P is within tol, so no passive
            # index can be the pivot, and the mask is needed only here.
            grad[factor.idx] = -np.inf
        j = int(grad.argmax())
        if grad[j] <= tol:
            z = factor.exact(factor.p)
            grad = factor.grad(z)
            grad[factor.idx] = -np.inf
            if np.all(z > 0) and not (grad > tol).any():
                full = np.zeros(m)
                full[factor.idx] = z
                return full, iters, True
            # The updates misled the iteration: go on from the exact solve.
            iters += 1
            refactor(z)
        else:
            fast = factor.trusted
            if fast:
                w, s, zb = factor.schur(j)
                # Its weight (1 - zb) / s must be positive too; else LU decides.
                fast = s * ILL_CONDITIONED >= factor.diag[j] and zb < 1.0
            if fast:
                factor.add(j, w, s, zb)
                z, grad = solve()
            else:
                iters += 1
                factor.stage(j)
                try:
                    z = factor.exact(factor.p + 1)
                    enters = z[-1] > 0  # j is the staged index
                except np.linalg.LinAlgError:  # degenerate: j lies in the span of P
                    enters = False
                if not enters:
                    grad[j] = 0.0
                    continue
                grad = refactor(z)
        while len(z) and z[z.argmin()] <= 0:  # (z <= 0).any(), read as `_top` reads a max
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


# The smallest node count of a presolve bucket (`_essential`).  A graph
# padded to 64 nodes adds at most 16 KB to a float32 operand of the product,
# while each bucket costs about ten numpy calls: with buckets from 8 nodes up,
# the presolve of a refs-corpus instance (graphs of 6-19 nodes) took 117 us
# against 47 us for one product (timeit, one BLAS thread).
BUCKET_NODES = 64


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

    The products R_s R_s are taken in buckets of graphs that share a
    power-of-two ceiling of their node counts, at least BUCKET_NODES, each
    cut to that size: one large graph does not pad every other to its
    size, and a stack of equal-size graphs is still one product.
    """
    reach = constraints.closures
    g, a, b = constraints._at[1]
    same = reach & np.swapaxes(reach, 1, 2)
    strict = reach & ~same
    cover = np.zeros_like(strict)
    n = reach.shape[1]
    nodes = np.count_nonzero(constraints.nodes >= 0, axis=1).tolist()
    size = np.array([min(n, max(BUCKET_NODES, 1 << (m - 1).bit_length())) for m in nodes])
    for p in set(size.tolist()):
        idx = np.flatnonzero(size == p)
        s = strict[idx, :p, :p]
        cover[idx, :p, :p] = s & ~_product(s, s)
    head = same.argmax(axis=2)  # each node's SCC, by its smallest member
    _, first = np.unique((g * n + head[g, a]) * n + head[g, b], return_index=True)
    return np.sort(first[cover[g[first], a[first], b[first]]])


def solve_graph_svm(constraints: ConstraintSet) -> Solution:
    """Min-Frobenius-norm W subject to the constraint set, over its embedding.

    A presolve (`_essential`) first drops the inequalities that others imply:
    per last token, all but one between the same two SCCs, and those outside
    the transitive reduction of the SCC order, both read off the closures
    the constraint set holds.  The feasible set is unchanged, so W is too.
    The Gram rows, the NNLS, p and the Farkas test below see the kept rows
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

    No generator is written out as a d^2-wide row, and no m x m Gram matrix
    is formed: a Gram row is formed from the generators' d-dimensional
    factors (`_GramRows`) when its index enters the NNLS's passive set.  p
    is the passive rows' combination as one d x d matrix, projected
    afterwards.

    The status is SOLVED when the NNLS converged and W passes the primal,
    margin and KKT checks, INFEASIBLE on a converged Farkas certificate,
    and MAX_ITER otherwise: a MAX_ITER with ``residuals["converged"]`` True
    failed a check on an optimal NNLS point, one with False hit the 3m
    cap.  `Solution` lists the residuals.  With no inequality, W = 0 is
    SOLVED.
    """
    d = constraints.embedding.d
    e = constraints.embedding.e
    if not len(constraints.inequalities):
        return Solution(frozen(np.zeros((d, d))), SolveStatus.SOLVED, {
            "max_eq_violation": 0.0, "min_ineq_margin": np.inf, "kkt_residual": 0.0, "sweeps": 0,
            "converged": True, "essential": 0})

    eq_basis = constraints.eq_basis
    ineq = constraints.inequalities
    eq = constraints.equalities
    keep = _essential(constraints)
    u, iters, converged = _nnls_gram(_GramRows(ineq[keep], e, eq_basis))
    passive = keep[u > 0]
    weights = np.zeros(len(ineq))
    weights[keep] = u / u.sum()
    p = _combination(ineq[passive], e, weights[passive])
    p -= (eq_basis @ p) @ eq_basis
    farkas = float(np.linalg.norm(p))
    counts = {"sweeps": iters, "converged": converged, "essential": len(keep)}
    if farkas <= FARKAS_TOL:
        return Solution(
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

    return Solution(
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


def explicit_solution(constraints: ConstraintSet) -> Optional[Solution]:
    """The paper's explicit feasible W for a full-row-rank embedding
    (d >= K), checked against the embedding arithmetic: SOLVED with a
    feasible W, not the min-norm one, and no multipliers.  None at d < K or
    when the check fails; the graph-SVM solve then decides
    (`experiments.Pipeline.feasibility`)."""
    emb = constraints.embedding
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
            return Solution(frozen(w), SolveStatus.SOLVED, {"max_eq_violation": max_eq, "min_ineq_margin": min_ineq})
    return None


def solve_per_last_token(constraints: ConstraintSet) -> Solution:
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
    return Solution(
        w=frozen(total),
        status=worst,
        residuals={"sweeps": sweeps, "converged": converged, "essential": essential, "per_k": len(statuses)},
    )
