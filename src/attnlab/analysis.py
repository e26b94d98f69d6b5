"""Convergence diagnostics, rate-bound evaluation, and pseudo-graphs.

Everything here is a pure function over trained weights, traces, and the
solved references.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import attention, graph
from .dataset import Dataset, IndexSets
from .errors import ZeroMatrix


@dataclass(frozen=True)
class RateBoundInputs:
    """Quantities entering the optimality-gap bound for plain GD from zero."""

    xi: float          # minimal normalized margin separating R_i from Rbar_i
    e_max: float
    w_fin_norm: float
    t_max: int


def margin_xi(dataset: Dataset, sets: IndexSets, w_svm: np.ndarray) -> float:
    """xi = min over samples and (t in R_i, t' in Rbar_i) of the normalized
    margin (x_t - x_t')^T W_svm xbar / ||W_svm||; +inf when nothing is
    suppressed anywhere."""
    nrm = float(np.linalg.norm(w_svm))
    if nrm == 0.0:
        raise ZeroMatrix("xi undefined for a zero SVM solution")
    best = np.inf
    e = dataset.embedding.e
    for i, s in enumerate(dataset.samples):
        if not sets.rbar[i]:
            continue
        x = e[list(s.tokens)]
        vals = x @ w_svm @ x[-1]
        lo = min(vals[t] for t in sets.r[i])
        hi = max(vals[t] for t in sets.rbar[i])
        best = min(best, (lo - hi) / nrm)
    return float(best)


def rate_bound_inputs(
    dataset: Dataset,
    sets: IndexSets,
    w_svm: np.ndarray,
    w_fin: np.ndarray,
) -> RateBoundInputs:
    return RateBoundInputs(
        xi=margin_xi(dataset, sets, w_svm),
        e_max=dataset.embedding.e_max,
        w_fin_norm=float(np.linalg.norm(w_fin)),
        t_max=dataset.t_max,
    )


def rate_bound(inputs: RateBoundInputs, tau: int, eta: float) -> float:
    """Optimality-gap bound at iteration tau for plain GD with zero init and
    constant step size eta."""
    if tau < 1:
        raise ValueError("the bound is defined for tau >= 1")
    eta_sum = float(eta) * tau
    term1 = inputs.t_max * np.exp(2.0 * inputs.w_fin_norm * inputs.e_max**2) / tau
    log_part = 0.0 if np.isinf(inputs.xi) else np.log(tau) ** 2 / inputs.xi**2
    term2 = (inputs.w_fin_norm**2 + log_part) / (2.0 * eta_sum)
    return float(term1 + term2)


def pseudo_tpgs(w_gd: np.ndarray, dataset: Dataset, eps: float = 1e-3) -> dict[int, graph.TokenPriorityGraph]:
    """Graphs rebuilt from the tokens the trained weights actually retain.

    For each sample, the token at every position with softmax probability
    >= eps, the threshold standing in for exact positivity, is a source of
    `graph.build_tpgs`: it emits edges to every other distinct token of the
    sequence, in the graph of the sample's last token.  If no position
    clears the threshold the argmax position is kept, so every graph is
    nonempty.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    e = dataset.embedding.e
    sources = []
    for s in dataset.samples:
        x = e[list(s.tokens)]
        probs, _ = attention.forward(x, w_gd, x[-1])
        retained = [t for t in range(s.T) if probs[t] >= eps]
        if not retained:
            retained = [int(np.argmax(probs))]
        sources.append([s.tokens[t] for t in retained])
    return graph.build_tpgs(dataset, sources)


def convergence_report(trace: attention.TrainTrace, loss_inf: Optional[float] = None) -> dict:
    """Summary record of a training trace; undefined fields come out None."""
    finite_corr = trace.corr_svm[np.isfinite(trace.corr_svm)]
    final_corr = float(trace.corr_svm[-1]) if np.isfinite(trace.corr_svm[-1]) else None
    final_dist = float(trace.dist_fin[-1]) if np.isfinite(trace.dist_fin[-1]) else None
    increases = int(np.sum(np.diff(trace.loss) > 1e-12))
    half = len(trace.iters) // 2
    if len(trace.iters) - half >= 2:
        slope = float(np.polyfit(trace.iters[half:], trace.w_norm[half:], 1)[0])
    else:
        slope = None
    return {
        "final_corr": final_corr,
        "mean_corr": float(np.mean(finite_corr)) if len(finite_corr) else None,
        "final_dist": final_dist,
        "final_loss": float(trace.loss[-1]),
        "final_loss_bar": float(trace.loss_bar[-1]) if np.isfinite(trace.loss_bar[-1]) else None,
        "loss_gap": (float(trace.loss[-1]) - loss_inf) if loss_inf is not None else None,
        "loss_inf": loss_inf,
        "descent_violations": increases,
        "norm_slope": slope,
        "final_grad_norm": float(trace.grad_norm[-1]),
        "final_w_norm": float(trace.w_norm[-1]),
        "iters": int(trace.iters[-1]),
        "records": int(len(trace.iters)),
    }
