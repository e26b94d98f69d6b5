"""Single-layer attention: forward pass, losses, gradients, and trainers.

The model scores a sequence X (rows are token embeddings) against its last
token xbar through softmax(X W xbar) and composes the output as X^T probs.
Losses read that output through the classifier head; under a tied head the
per-sample score collapses to the total softmax mass on label occurrences,
which is the path the log-loss theory lives on.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .dataset import Dataset, Sample
from .errors import DomainError, NonFiniteLoss
from .graph import CyclicSplit
from .svm import MatrixSubspace
from .util import frozen, seeded_rng

LOG = "log"
SQUARED = "squared"
CROSS_ENTROPY = "ce"

LOG_GUARD = 1e-300
GRAD_FLOOR = 1e-14


def loss_value(kind: str, u: np.ndarray) -> np.ndarray:
    if kind == LOG:
        if np.any(u <= LOG_GUARD):
            raise DomainError(f"log-loss argument underflow: min score {np.min(u):.3e}")
        return -np.log(u)
    if kind == SQUARED:
        return (1.0 - u) ** 2
    raise ValueError(f"scalar loss value undefined for kind {kind!r}")


def loss_deriv(kind: str, u: np.ndarray) -> np.ndarray:
    if kind == LOG:
        if np.any(u <= LOG_GUARD):
            raise DomainError(f"log-loss argument underflow: min score {np.min(u):.3e}")
        return -1.0 / u
    if kind == SQUARED:
        return -2.0 * (1.0 - u)
    raise ValueError(f"scalar loss derivative undefined for kind {kind!r}")


def softmax(h: np.ndarray) -> np.ndarray:
    shifted = h - np.max(h, axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / np.sum(ex, axis=-1, keepdims=True)


def embed_sample(dataset: Dataset, sample: Sample) -> tuple[np.ndarray, np.ndarray]:
    e = dataset.embedding.e
    x = e[list(sample.tokens)]
    return x, x[-1]


def forward(x: np.ndarray, w: np.ndarray, xbar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Softmax attention probabilities over positions and the composed output."""
    probs = softmax(x @ w @ xbar)
    return probs, x.T @ probs


@dataclass(frozen=True)
class _Group:
    """Samples of equal length batched into dense arrays."""

    idx: np.ndarray      # original sample indices
    x: np.ndarray        # (g, T, d)
    xbar: np.ndarray     # (g, d)
    labels: np.ndarray   # (g,)
    omask: np.ndarray    # (g, T) True where token == label
    gamma: np.ndarray    # (g, T) score weights: omask when tied, else head scores X c_y


@dataclass(frozen=True)
class _Packed:
    groups: tuple[_Group, ...]
    n: int               # loss denominator (may exceed the packed sample count)
    d: int
    e: np.ndarray
    c: Optional[np.ndarray]
    tied: bool           # scores are label-position mass


def _pack(
    dataset: Dataset,
    n_total: Optional[int] = None,
    queries: Optional[tuple[int, ...]] = None,
    force_tied: bool = False,
) -> _Packed:
    """Batch samples of equal length.

    ``queries`` overrides the query token per sample (reduced sequences whose
    original last token was dropped still score against it).  ``force_tied``
    ignores the stored head and aggregates label-position mass, which is the
    scoring the cyclic-subdataset theory is stated in.
    """
    e = dataset.embedding.e
    c = dataset.head.c if dataset.head is not None and not force_tied else None
    tied = c is None or dataset.tied_head()
    by_len: dict[int, list[int]] = {}
    for i, s in enumerate(dataset.samples):
        by_len.setdefault(s.T, []).append(i)
    groups = []
    for t_len in sorted(by_len):
        idx = np.array(by_len[t_len])
        toks = np.array([dataset.samples[i].tokens for i in idx])
        labels = np.array([dataset.samples[i].label for i in idx])
        x = e[toks]
        if queries is None:
            xbar = x[:, -1, :].copy()
        else:
            xbar = e[np.array([queries[i] for i in idx])]
        omask = toks == labels[:, None]
        groups.append(
            _Group(
                idx=idx,
                x=x,
                xbar=xbar,
                labels=labels,
                omask=omask,
                gamma=omask.astype(np.float64) if tied else np.einsum("gtd,gd->gt", x, c[labels]),
            )
        )
    return _Packed(
        groups=tuple(groups),
        n=n_total if n_total is not None else dataset.n,
        d=dataset.d,
        e=e,
        c=c,
        tied=tied,
    )


def _loss_and_grad(w: np.ndarray, packed: _Packed, kind: str, reduced_log: bool) -> tuple[float, np.ndarray]:
    """Loss and gradient from one softmax per length group.

    ``reduced_log`` takes the tied log loss through its reduced form;
    otherwise the generic softmax-chain formula applies.
    """
    total, grad = 0.0, np.zeros((packed.d, packed.d))
    for g in packed.groups:
        s = softmax(np.matmul(g.x, (g.xbar @ w.T)[:, :, None])[:, :, 0])
        if kind == CROSS_ENTROPY:
            if packed.c is None:
                raise ValueError("cross-entropy loss requires a classifier head")
            rows = np.arange(len(g.labels))
            logits = np.matmul(s[:, None, :], g.x)[:, 0] @ packed.c.T
            shifted = logits - np.max(logits, axis=1, keepdims=True)
            ex = np.exp(shifted)
            z = np.sum(ex, axis=1)
            total += float(np.sum(np.log(z) - shifted[rows, g.labels]))
            p = ex / z[:, None]
            p[rows, g.labels] -= 1.0
            back = np.matmul(g.x, (p @ packed.c)[:, :, None])[:, :, 0]  # dL/ds
            dh = s * (back - np.sum(s * back, axis=1, keepdims=True))
            vec = np.matmul(dh[:, None, :], g.x)[:, 0]
        else:
            u = np.sum(s * g.gamma, axis=1)
            total += float(np.sum(loss_value(kind, u)))
            if kind == LOG and packed.tied and reduced_log:
                # Tied log loss: (1/n) sum_i sum_{t not in O_i} s_t (x_t - e_y) xbar^T.
                # The derivation divides by the label mass, which loss_value
                # has just guarded.
                sbar = s * (~g.omask)
                vec = np.matmul(sbar[:, None, :], g.x)[:, 0] - np.sum(sbar, axis=1)[:, None] * packed.e[g.labels]
            else:
                v = s * (g.gamma - u[:, None])
                vec = loss_deriv(kind, u)[:, None] * np.matmul(v[:, None, :], g.x)[:, 0]
        grad += vec.T @ g.xbar
    return total / packed.n, grad / packed.n


def loss(w: np.ndarray, dataset: Dataset, kind: str = LOG) -> float:
    return _loss_and_grad(w, _pack(dataset), kind, reduced_log=True)[0]


def grad(w: np.ndarray, dataset: Dataset, kind: str = LOG) -> np.ndarray:
    """Analytical gradient; uses the reduced tied-head form for the log loss."""
    return _loss_and_grad(w, _pack(dataset), kind, reduced_log=True)[1]


def grad_general(w: np.ndarray, dataset: Dataset, kind: str = LOG) -> np.ndarray:
    """Gradient via the generic softmax-chain formula, for cross-checking."""
    return _loss_and_grad(w, _pack(dataset), kind, reduced_log=False)[1]


def lipschitz_log(dataset: Dataset) -> float:
    """Gradient Lipschitz constant of the tied log loss: 2 e_max^4 sqrt(T_max)."""
    return 2.0 * dataset.embedding.e_max**4 * float(np.sqrt(dataset.t_max))


def lipschitz_general(dataset: Dataset, m0: float, m1: float) -> float:
    """Generic smoothness bound from head norms and spectral sequence norms."""
    if dataset.head is None:
        raise ValueError("general Lipschitz bound requires a classifier head")
    total = 0.0
    for s in dataset.samples:
        x, xbar = embed_sample(dataset, s)
        cy = np.linalg.norm(dataset.head.c[s.label])
        xs = np.linalg.norm(x, ord=2)
        xb = np.linalg.norm(xbar)
        a_i = cy * xb**2 * xs**3
        b_i = m0 * cy * xs + 3.0 * m1
        total += a_i * b_i
    return total / dataset.n


@dataclass(frozen=True)
class TrainConfig:
    eta: float
    iters: int
    normalized: bool = False
    init: str = "zero"           # "zero" | "gauss"
    init_scale: float = 1.0
    init_seed: int = 0
    loss: str = LOG
    record_every: int = 10

    def __post_init__(self):
        if not (np.isfinite(self.eta) and self.eta > 0):
            raise ValueError(f"eta must be a finite number > 0, got {self.eta}")
        if self.iters < 0:
            raise ValueError(f"iters must be >= 0, got {self.iters}")
        if self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")

    def initial_w(self, d: int) -> np.ndarray:
        if self.init == "zero":
            return np.zeros((d, d))
        if self.init == "gauss":
            rng = seeded_rng(self.init_seed, 4)
            return self.init_scale * rng.standard_normal((d, d))
        raise ValueError(f"unknown init {self.init!r}")


@dataclass(frozen=True)
class TrainRefs:
    """Reference objects for per-iteration diagnostics; all optional."""

    w_svm: Optional[np.ndarray] = None
    s_fin: Optional[MatrixSubspace] = None
    w_fin: Optional[np.ndarray] = None
    split: Optional[CyclicSplit] = None


@dataclass
class TrainTrace:
    iters: np.ndarray
    loss: np.ndarray
    loss_bar: np.ndarray
    grad_norm: np.ndarray
    w_norm: np.ndarray
    corr_svm: np.ndarray
    dist_fin: np.ndarray
    t_ms: np.ndarray
    w_final: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))

    def rows(self):
        for j in range(len(self.iters)):
            yield (
                int(self.iters[j]),
                self.loss[j],
                self.loss_bar[j],
                self.grad_norm[j],
                self.w_norm[j],
                self.corr_svm[j],
                self.dist_fin[j],
            )

    @staticmethod
    def csv_header() -> tuple[str, ...]:
        return ("iter", "loss", "loss_bar", "grad_norm", "w_norm", "corr_svm", "dist_fin")


def correlation(w: np.ndarray, ref: Optional[np.ndarray]) -> float:
    """Frobenius cosine between two matrices; NaN when the reference is
    absent or either matrix is zero."""
    if ref is None:
        return np.nan
    nw, nr = np.linalg.norm(w), np.linalg.norm(ref)
    if nw == 0.0 or nr == 0.0:
        return np.nan
    return float(np.sum(w * ref) / (nw * nr))


def train_gd(dataset: Dataset, config: TrainConfig, refs: Optional[TrainRefs] = None) -> TrainTrace:
    """Gradient descent (plain or Frobenius-normalized) with diagnostics.

    Diagnostics that need references (corr_svm, dist_fin, loss_bar) are NaN
    when the reference is absent.
    """
    refs = refs or TrainRefs()
    if not config.normalized and config.loss == LOG and dataset.tied_head():
        lip = lipschitz_log(dataset)
        if config.eta > 1.0 / lip:
            warnings.warn(
                f"step size {config.eta} exceeds 1/L = {1.0 / lip:.4g}; "
                "plain GD descent is not guaranteed",
                stacklevel=2,
            )
    packed = _pack(dataset)
    split_packed = None
    if refs.split is not None and not refs.split.empty:
        split_packed = _pack(
            refs.split.subdataset,
            n_total=refs.split.n_total,
            queries=refs.split.queries,
            force_tied=config.loss != CROSS_ENTROPY,
        )
    w = config.initial_w(dataset.d)
    rec: dict[str, list[float]] = {k: [] for k in ("iters", "loss", "loss_bar", "grad_norm", "w_norm", "corr_svm", "dist_fin", "t_ms")}
    t0 = time.perf_counter()

    def record(tau: int, cur_loss: float, g: np.ndarray) -> None:
        if not np.isfinite(cur_loss):
            raise NonFiniteLoss(f"loss became non-finite at iteration {tau}", trace=_finish(rec, w))
        rec["iters"].append(tau)
        rec["loss"].append(cur_loss)
        if split_packed is not None:
            rec["loss_bar"].append(_loss_and_grad(w, split_packed, config.loss, reduced_log=True)[0])
        elif refs.split is not None:
            rec["loss_bar"].append(0.0)
        else:
            rec["loss_bar"].append(np.nan)
        rec["grad_norm"].append(float(np.linalg.norm(g)))
        rec["w_norm"].append(float(np.linalg.norm(w)))
        rec["corr_svm"].append(correlation(w, refs.w_svm))
        if refs.s_fin is not None and refs.w_fin is not None:
            rec["dist_fin"].append(float(np.linalg.norm(refs.s_fin.project(w) - refs.w_fin)))
        else:
            rec["dist_fin"].append(np.nan)
        rec["t_ms"].append((time.perf_counter() - t0) * 1e3)

    for tau in range(config.iters + 1):
        cur_loss, g = _loss_and_grad(w, packed, config.loss, reduced_log=True)
        if not np.all(np.isfinite(g)):
            raise NonFiniteLoss(f"gradient became non-finite at iteration {tau}", trace=_finish(rec, w))
        if tau % config.record_every == 0 or tau == config.iters:
            record(tau, cur_loss, g)
        if tau == config.iters:
            break
        if config.normalized:
            gn = np.linalg.norm(g)
            # Below the floor the computed gradient is rounding noise; a
            # unit-length step along it would random-walk the direction.
            if gn > GRAD_FLOOR:
                w = w - config.eta * g / gn
        else:
            w = w - config.eta * g
    return _finish(rec, w)


def _finish(rec: dict, w: np.ndarray) -> TrainTrace:
    return TrainTrace(
        iters=np.array(rec["iters"], dtype=np.int64),
        loss=np.array(rec["loss"]),
        loss_bar=np.array(rec["loss_bar"]),
        grad_norm=np.array(rec["grad_norm"]),
        w_norm=np.array(rec["w_norm"]),
        corr_svm=np.array(rec["corr_svm"]),
        dist_fin=np.array(rec["dist_fin"]),
        t_ms=np.array(rec["t_ms"]),
        w_final=w.copy(),
    )


WFIN_DECREMENT_TOL = 1e-30  # lambda^2 / 2 at which a step is rounding-sized
WFIN_REL_BOUND = 1e-9       # certified bound, relative to max(1, ||W_fin||)
NEWTON_MAX_ITERS = 50       # safety net only: the certificate sets the status
ARMIJO_ALPHA = 0.25
ARMIJO_BETA = 0.5
ARMIJO_MIN_STEP = 1e-12


class WfinStatus(Enum):
    CERTIFIED = "certified"
    UNCERTIFIED = "uncertified"


@dataclass(frozen=True)
class WfinResult:
    """W_fin with its certificate: ||w - W_fin||_F <= bound when CERTIFIED.

    ``grad_norm`` and ``mu`` are the gradient norm and the smallest Hessian
    eigenvalue of the reduced loss at ``w``, in S_fin coordinates.
    """

    w: np.ndarray
    status: WfinStatus
    iterations: int
    grad_norm: float
    mu: float
    bound: float


def _fin_features(split: CyclicSplit, s_fin: MatrixSubspace) -> tuple[list, int]:
    """Per length group, dphi[g, t, j] = (x_t - e_y)^T B_j xbar_g, and n_total.

    Every label position holds e_y, so with h = dphi z the loss of a sample
    is log sum_t e^{h_t} - log |O|.  Measuring features from the label keeps
    the gradient sum_t s_t dphi_t free of cancellation as the label mass
    saturates.
    """
    packed = _pack(split.subdataset, n_total=split.n_total, queries=split.queries,
                   force_tied=True)
    feats = []
    for g in packed.groups:
        if not np.all(np.any(g.omask, axis=1)):
            raise DomainError("cyclic split holds a sample whose label is not among its tokens")
        bx = np.matmul(s_fin.basis, g.xbar.T).transpose(2, 1, 0)  # (g, d, m): B_j xbar_g
        feats.append(np.matmul(g.x - packed.e[g.labels][:, None, :], bx))
    return feats, packed.n


def _fin_terms(feats: list, z: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, list]:
    """Gradient E_s[dphi] and Hessian Cov_s(dphi) of the reduced loss,
    averaged over n, with the softmax of each group."""
    m = len(z)
    grad, hess, probs = np.zeros(m), np.zeros((m, m)), []
    for dphi in feats:
        s = softmax(dphi @ z)
        mean = np.matmul(s[:, None, :], dphi)[:, 0]
        psi = (dphi - mean[:, None, :]).reshape(-1, m)
        grad += np.sum(mean, axis=0)
        hess += (psi * s.reshape(-1, 1)).T @ psi
        probs.append(s)
    return grad / n, hess / n, probs


def _fin_change(feats: list, probs: list, dz: np.ndarray, n: int) -> float:
    """f(z + dz) - f(z) = mean of log sum_t s_t e^{dh_t}, in a form that keeps
    relative accuracy when the step is tiny."""
    total = 0.0
    for dphi, s in zip(feats, probs):
        dh = dphi @ dz
        top = np.max(dh, axis=1)
        total += float(np.sum(top + np.log1p(np.sum(s * np.expm1(dh - top[:, None]), axis=1))))
    return total / n


def _hessian_lipschitz(feats: list, n: int) -> float:
    """M = (1/n) sum_i R_i^3, R_i the largest distance between two of sample
    i's feature rows: |third central moment| <= R^3 bounds each sample's
    Hessian change, so ||H(z) - H(z')|| <= M ||z - z'||."""
    total = 0.0
    for dphi in feats:
        r = np.zeros(len(dphi))
        for t in range(dphi.shape[1]):
            r = np.maximum(r, np.max(np.linalg.norm(dphi - dphi[:, t:t + 1], axis=2), axis=1))
        total += float(np.sum(r**3))
    return total / n


def train_wfin(split: CyclicSplit, s_fin: MatrixSubspace) -> WfinResult:
    """Finite component: minimize the cyclic-subdataset log loss over S_fin.

    Damped Newton over the coordinates z of S_fin's orthonormal basis
    (W = sum_j z_j B_j), where the loss is strictly convex: Cholesky steps,
    Armijo backtracking, and a stop when the Newton decrement lambda^2 / 2
    reaches WFIN_DECREMENT_TOL or a full step no longer lowers lambda^2 (the
    rounding floor).  The result is CERTIFIED when 8 M ||g|| <= mu^2, with M
    the Hessian's Lipschitz constant: then H >= mu/2 on the ball of radius
    bound = 4 ||g|| / mu around z, so W_fin lies in it; the bound must also
    be at most WFIN_REL_BOUND * max(1, ||W||).  An empty split or S_fin
    gives W = 0, certified.
    """
    d = split.subdataset.d
    if split.empty or s_fin.dim == 0:
        return WfinResult(w=frozen(np.zeros((d, d))), status=WfinStatus.CERTIFIED,
                          iterations=0, grad_norm=0.0, mu=np.inf, bound=0.0)
    feats, n = _fin_features(split, s_fin)
    z = np.zeros(s_fin.dim)
    lam2_prev, full_step, iterations = np.inf, False, 0
    while True:
        g, h, probs = _fin_terms(feats, z, n)
        try:
            chol = np.linalg.cholesky(h)
        except np.linalg.LinAlgError:
            break  # H not positive definite: mu <= 0 fails the certificate
        y = np.linalg.solve(chol, g)
        lam2 = float(y @ y)
        if (lam2 / 2.0 <= WFIN_DECREMENT_TOL or (full_step and lam2 >= lam2_prev)
                or iterations == NEWTON_MAX_ITERS):
            break
        dz = -np.linalg.solve(chol.T, y)
        t = 1.0
        while t >= ARMIJO_MIN_STEP and _fin_change(feats, probs, t * dz, n) > -ARMIJO_ALPHA * t * lam2:
            t *= ARMIJO_BETA
        if t < ARMIJO_MIN_STEP:
            break  # no decrease left to find
        z = z + t * dz
        lam2_prev, full_step = lam2, t == 1.0
        iterations += 1
    grad_norm = float(np.linalg.norm(g))
    mu = float(np.linalg.eigvalsh(h)[0])
    bound = 4.0 * grad_norm / mu if mu > 0.0 else np.inf
    certified = (
        mu > 0.0
        and 8.0 * _hessian_lipschitz(feats, n) * grad_norm <= mu * mu
        and bound <= WFIN_REL_BOUND * max(1.0, float(np.linalg.norm(z)))
    )
    return WfinResult(
        w=frozen(np.tensordot(z, s_fin.basis, axes=1)),
        status=WfinStatus.CERTIFIED if certified else WfinStatus.UNCERTIFIED,
        iterations=iterations,
        grad_norm=grad_norm,
        mu=mu,
        bound=bound,
    )


def loss_bar(w: np.ndarray, split: CyclicSplit) -> float:
    """Cyclic-subdataset log loss, normalized by the full dataset size and
    scored tied-style (label-position mass) as in the theory."""
    if split.empty:
        return 0.0
    packed = _pack(split.subdataset, n_total=split.n_total, queries=split.queries, force_tied=True)
    return _loss_and_grad(w, packed, LOG, reduced_log=True)[0]


def loss_inf(split: CyclicSplit, w_fin: np.ndarray) -> float:
    """Infimum of the full log loss: saturated samples contribute
    -log 1 = 0 each, so only the cyclic subdataset's loss at W_fin remains."""
    return loss_bar(w_fin, split)


@dataclass(frozen=True)
class RegPathPoint:
    radius: float
    w: np.ndarray

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.w))


REG_PATH_MAP_TOL = 1e-7  # projected-gradient mapping norm at which a radius is done


def _projected_gd(packed: _Packed, w0: np.ndarray, radius: float, eta: float, max_iters: int) -> np.ndarray:
    w = w0.copy()
    nrm = np.linalg.norm(w)
    if nrm > radius:
        w *= radius / nrm
    for _ in range(max_iters):
        g = _loss_and_grad(w, packed, LOG, reduced_log=True)[1]
        w_new = w - eta * g
        nrm = np.linalg.norm(w_new)
        if nrm > radius:
            w_new *= radius / nrm
        gap = float(np.linalg.norm(w - w_new)) / eta
        w = w_new
        if gap < REG_PATH_MAP_TOL:
            break
    return w


def reg_path(dataset: Dataset, radii: list[float], config: TrainConfig) -> list[RegPathPoint]:
    """Minimizers of the log loss over balls of increasing radius.

    The loss must be convex (log loss on a tied or absent head), so one
    projected-GD run per radius finds the minimizer; each run starts from
    the previous solution rescaled to the new ball.
    """
    if not radii:
        raise ValueError("radii must list at least one radius")
    if list(radii) != sorted(radii):
        raise ValueError("radii must be increasing")
    if config.loss != LOG:
        raise ValueError(f"reg_path needs the log loss, got {config.loss!r}")
    packed = _pack(dataset)
    if not packed.tied:
        raise ValueError("reg_path needs a tied or absent head; under a general head the log loss is not convex")
    points: list[RegPathPoint] = []
    w = np.zeros((dataset.d, dataset.d))
    for radius in radii:
        nrm = np.linalg.norm(w)
        if nrm > 0.0:
            w = w * (radius / nrm)
        w = _projected_gd(packed, w, radius, config.eta, config.iters)
        points.append(RegPathPoint(radius=float(radius), w=frozen(w)))
    return points
