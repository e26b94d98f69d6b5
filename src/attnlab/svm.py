"""Graph-SVM assembly and solving over d x d attention matrices.

Constraints are triples (i, j, k): the matrix (e_i - e_j) e_k^T paired with
either an equality (same-SCC pair) or a unit-margin inequality (strict
priority pair).  The solver minimizes the Frobenius norm subject to those
constraints exactly, by an active-set NNLS after eliminating the equalities;
an INFEASIBLE verdict carries convex weights whose combination of the
inequality matrices lies in the equality span (a Farkas certificate).

Every subspace basis (S_fin, S_active, S_svm and the equality span the
solver eliminates) comes from one routine: the right singular vectors of the
stacked, flattened generators whose singular value exceeds BASIS_CUTOFF.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .dataset import EmbeddingTable
from .errors import NotOrthonormal
from .graph import PairRelation, SccDecomposition, TokenPriorityGraph, priority_assignment, relation, scc
from .util import frozen

BASIS_CUTOFF = 1e-10
PRIMAL_TOL = 1e-6
FARKAS_TOL = 1e-9
KKT_TOL = 1e-5

Triple = tuple[int, int, int]


class SolveStatus(Enum):
    SOLVED = "solved"
    INFEASIBLE = "infeasible"
    MAX_ITER = "max_iter"


@dataclass(frozen=True)
class ConstraintSet:
    """Equality and inequality triples plus the embedding they refer to."""

    equalities: tuple[Triple, ...]
    inequalities: tuple[Triple, ...]
    embedding: EmbeddingTable

    @property
    def n_constraints(self) -> int:
        return len(self.equalities) + len(self.inequalities)

    def restrict_to_last_token(self, k: int) -> "ConstraintSet":
        return ConstraintSet(
            equalities=tuple(t for t in self.equalities if t[2] == k),
            inequalities=tuple(t for t in self.inequalities if t[2] == k),
            embedding=self.embedding,
        )

    @property
    def last_tokens(self) -> tuple[int, ...]:
        return tuple(sorted({t[2] for t in self.equalities + self.inequalities}))


def constraint_matrix(triple: Triple, e: np.ndarray) -> np.ndarray:
    i, j, k = triple
    return np.outer(e[i] - e[j], e[k])


def build_constraints(
    tpgs: dict[int, TokenPriorityGraph],
    decomps: dict[int, SccDecomposition],
    embedding: EmbeddingTable,
) -> ConstraintSet:
    """One inequality per strict-priority ordered pair (higher-priority side
    first), one equality per unordered same-SCC pair, per graph.

    Priority is reachability on the condensation, so transitive pairs
    generate their own inequalities.  Ordering is (k, i, j) throughout.
    """
    eqs: list[Triple] = []
    ineqs: list[Triple] = []
    for k in sorted(tpgs):
        nodes = sorted(tpgs[k].nodes)
        decomp = decomps[k]
        for a_idx, i in enumerate(nodes):
            for j in nodes[a_idx + 1 :]:
                rel = relation(decomp, i, j)
                if rel is PairRelation.SAME_SCC:
                    eqs.append((i, j, k))
                elif rel is PairRelation.STRICT_PRIORITY:
                    ineqs.append((i, j, k))
                elif relation(decomp, j, i) is PairRelation.STRICT_PRIORITY:
                    ineqs.append((j, i, k))
    eqs.sort(key=lambda t: (t[2], t[0], t[1]))
    ineqs.sort(key=lambda t: (t[2], t[0], t[1]))
    return ConstraintSet(equalities=tuple(eqs), inequalities=tuple(ineqs), embedding=embedding)


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


def _generators(triples: tuple[Triple, ...], e: np.ndarray) -> np.ndarray:
    """Flattened (e_i - e_j) e_k^T rows, shape (len(triples), d * d)."""
    t = np.array(triples, dtype=np.intp).reshape(-1, 3)
    d = e.shape[1]
    return ((e[t[:, 0]] - e[t[:, 1]])[:, :, None] * e[t[:, 2]][:, None, :]).reshape(-1, d * d)


def _orth(vectors: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the row span: the right singular vectors whose
    singular value exceeds BASIS_CUTOFF."""
    _, sv, vt = np.linalg.svd(vectors, full_matrices=False)
    return vt[: int(np.sum(sv > BASIS_CUTOFF))]


def _subspace(vectors: np.ndarray, d: int) -> MatrixSubspace:
    return MatrixSubspace(basis=frozen(_orth(vectors).reshape(-1, d, d)), d=d)


def span(triples: tuple[Triple, ...], embedding: EmbeddingTable) -> MatrixSubspace:
    """Orthonormalized span of the difference-outer-product generators."""
    return _subspace(_generators(triples, embedding.e), embedding.d)


def fin_subspace(constraints: ConstraintSet) -> MatrixSubspace:
    """Cyclic subspace: span over same-SCC pairs."""
    return span(constraints.equalities, constraints.embedding)


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
        residuals={"max_eq_violation": 0.0, "min_ineq_margin": np.inf, "kkt_residual": 0.0, "sweeps": 0},
    )


def _nnls_gram(gram: np.ndarray) -> tuple[np.ndarray, int, bool]:
    """Lawson-Hanson NNLS, min ||E u - f|| over u >= 0, in Gram form.

    Only gram = E^T E is needed, with E^T f = 1 (the all-ones vector), so
    the dual gradient is 1 - gram u.  Returns (u, iterations, converged),
    where an iteration is one passive-set solve and the cap is 3m.
    """
    m = len(gram)
    cap = 3 * m
    tol = 10.0 * m * np.finfo(float).eps * float(gram.diagonal().max())
    u = np.zeros(m)
    passive = np.zeros(m, dtype=bool)
    grad = np.ones(m)
    iters = 0

    def solve() -> tuple[np.ndarray, np.ndarray]:
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
            # Rounding let a non-improving index in; skip it until u moves.
            passive[j] = False
            grad[j] = 0.0
            continue
        while np.any(z <= 0):
            if iters >= cap:
                return u, iters, False
            # Step from u toward z until the first passive weight hits zero.
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


def solve_graph_svm(constraints: ConstraintSet) -> SvmSolution:
    """Min-Frobenius-norm W subject to the constraint set, over its embedding.

    Equalities are eliminated by projecting every inequality matrix onto the
    orthogonal complement of their span (the optimum lives there).  The
    remaining least-distance program, min ||W|| s.t. <A~_a, W> >= 1, is
    solved exactly as the NNLS min ||E u - e_{D+1}||, u >= 0, with
    E = [A~^T; 1^T] (Lawson & Hanson, ch. 23).  With s = sum(u) and the
    convex weights c = u / s, the point p = A~^T c is the nearest point of
    the constraints' convex hull to the origin.  If ||p|| <= FARKAS_TOL the
    weights are a Farkas certificate (a convex combination of the A_a lying
    in the equality span) and the status is INFEASIBLE with W = 0;
    otherwise W = p / ||p||^2.
    """
    d = constraints.embedding.d
    e = constraints.embedding.e

    eq_vecs = _generators(constraints.equalities, e)
    if not constraints.inequalities:
        return _empty_solution(d)

    eq_basis = _orth(eq_vecs)
    a_proj = _generators(constraints.inequalities, e)
    a_proj -= (a_proj @ eq_basis.T) @ eq_basis

    gram = a_proj @ a_proj.T
    gram += 1.0
    u, iters, converged = _nnls_gram(gram)
    weights = u / u.sum()
    p = a_proj.T @ weights
    del gram, a_proj  # the checks below regenerate A; keep one m x d^2 array alive
    farkas = float(np.linalg.norm(p))
    if farkas <= FARKAS_TOL:
        return SvmSolution(
            w=frozen(np.zeros((d, d))),
            status=SolveStatus.INFEASIBLE if converged else SolveStatus.MAX_ITER,
            ineq_multipliers=weights,
            residuals={"farkas_residual": farkas, "sweeps": iters},
        )

    # At the NNLS optimum 1 - s = s ||p||^2, so lambda = u / (1 - s) is
    # computed without the cancellation in 1 - s.
    lam = (1.0 / farkas**2) * weights
    w_flat = p / farkas**2
    w = w_flat.reshape(d, d)
    a_vecs = _generators(constraints.inequalities, e)

    # Stationarity up to the equality span: the part of W - A^T lambda that
    # no choice of equality multipliers can cancel.
    stationarity = w_flat - a_vecs.T @ lam
    stationarity -= (eq_basis @ stationarity) @ eq_basis
    kkt_residual = float(np.linalg.norm(stationarity))

    eq_vals = eq_vecs @ w_flat
    ineq_vals = a_vecs @ w_flat
    max_eq = float(np.max(np.abs(eq_vals))) if len(eq_vals) else 0.0
    min_ineq = float(np.min(ineq_vals))
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
            "sweeps": iters,
        },
    )


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    certificate: Optional[np.ndarray]
    source: str
    detail: str = ""


def _priority_levels(constraints: ConstraintSet, k: int) -> dict[int, int]:
    """Integer priorities for one last token, from the triples alone.

    The graph is rebuilt with each equality as a two-way edge and each
    inequality as a one-way edge, so its SCCs are the merged equality
    classes.  A contradictory inequality lands inside one SCC, where its
    priority gap is zero.
    """
    sub = constraints.restrict_to_last_token(k)
    edges: dict[int, set[int]] = {}
    for i, j, _ in sub.equalities:
        edges.setdefault(i, set()).add(j)
        edges.setdefault(j, set()).add(i)
    for i, j, _ in sub.inequalities:
        edges.setdefault(i, set()).add(j)
    nodes = frozenset(v for i, j, _ in sub.equalities + sub.inequalities for v in (i, j))
    g = TokenPriorityGraph(last_token=k, nodes=nodes, edges={i: frozenset(o) for i, o in edges.items()})
    return priority_assignment(scc(g))


def check_feasibility(constraints: ConstraintSet) -> FeasibilityResult:
    """Certify feasibility for full-row-rank embeddings by explicit
    construction; otherwise report what the solver finds."""
    emb = constraints.embedding
    if constraints.n_constraints == 0:
        return FeasibilityResult(True, np.zeros((emb.d, emb.d)), "certificate", "no constraints")
    if emb.full_row_rank:
        wbar = np.zeros((emb.K, emb.K))
        for k in constraints.last_tokens:
            for node, m in _priority_levels(constraints, k).items():
                wbar[node, k] = float(m)
        ebar = np.linalg.solve(emb.e @ emb.e.T, emb.e)  # Ebar E^T = I
        w = ebar.T @ wbar @ ebar
        gaps = [
            float(wbar[i, k] - wbar[j, k]) for i, j, k in constraints.inequalities
        ]
        if gaps:
            g = min(gaps)
            if g <= 0:
                return _solver_fallback(constraints)
            w = w / g
        # Verify against the actual embedding arithmetic.
        max_eq = max(
            (abs(float((emb.e[i] - emb.e[j]) @ w @ emb.e[k])) for i, j, k in constraints.equalities),
            default=0.0,
        )
        min_ineq = min(
            (float((emb.e[i] - emb.e[j]) @ w @ emb.e[k]) for i, j, k in constraints.inequalities),
            default=np.inf,
        )
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
    sweeps = 0
    for k in constraints.last_tokens:
        sub = constraints.restrict_to_last_token(k)
        sol = solve_graph_svm(sub)
        statuses.append(sol.status)
        sweeps += sol.residuals.get("sweeps", 0)
        wk = sol.w
        # Row space check: W_k must vanish off span(e_k).
        row_residual = np.linalg.norm(wk - np.outer(wk @ emb.e[k], emb.e[k]))
        if row_residual > 1e-8:
            raise NotOrthonormal(f"subproblem k={k} left span(e_k): residual {row_residual:.2e}")
        total += wk
    worst = SolveStatus.SOLVED
    for st in statuses:
        if st is SolveStatus.INFEASIBLE:
            worst = SolveStatus.INFEASIBLE
            break
        if st is SolveStatus.MAX_ITER:
            worst = SolveStatus.MAX_ITER
    return SvmSolution(
        w=frozen(total),
        status=worst,
        ineq_multipliers=np.zeros(0),
        residuals={"sweeps": sweeps, "per_k": len(statuses)},
    )
