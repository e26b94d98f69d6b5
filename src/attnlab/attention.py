"""Single-layer attention: forward pass, losses, gradients, and trainers.

The model scores a sequence X (rows are token embeddings) against its last
token xbar through softmax(X W xbar) and composes the output as X^T probs.
Losses read that output through the classifier head; under a tied head the
per-sample score collapses to the total softmax mass on label occurrences,
which is the path the log-loss theory lives on.  The packed kernel scores
the label-relative rows x_t - e_y instead of x_t: each sample's scores
shift by the constant e_y^T W xbar, so the softmax is the same.  A label
occurrence then scores exactly 0, which anchors its row's softmax: the row
needs no max shift while its scores stay at most SCORE_BOUND.
"""

from __future__ import annotations

import time
import warnings
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .dataset import Dataset
from .errors import DomainError, NonFiniteLoss
from .graph import CyclicSplit
from .svm import MatrixSubspace
from .util import frozen, seeded_rng

LOG = "log"
SQUARED = "squared"
CROSS_ENTROPY = "ce"

LOG_GUARD = 1e-300
GRAD_FLOOR = 1e-14

# A row that holds a label position scores 0 there, so its max is at least 0
# and its softmax denominator Sigma at least 1.  With no score above
# SCORE_BOUND, exp cannot overflow and Sigma <= T e^SCORE_BOUND, so the label
# mass u >= 1/Sigma stays above LOG_GUARD whenever T e^SCORE_BOUND <
# 1/LOG_GUARD: e^600 is about 3.8e260, so for any T below 2.6e39.  Such a row
# takes exp, row sum and divide with no shift, and its log guard cannot fire.
SCORE_BOUND = 600.0


def loss_value(kind: str, u: np.ndarray) -> np.ndarray:
    if kind == LOG:
        if (u <= LOG_GUARD).any():
            raise _underflow(u)
        return -np.log(u)
    if kind == SQUARED:
        return (1.0 - u) ** 2
    raise ValueError(f"scalar loss value undefined for kind {kind!r}")


def loss_deriv(kind: str, u: np.ndarray) -> np.ndarray:
    if kind == LOG:
        if (u <= LOG_GUARD).any():
            raise _underflow(u)
        return -1.0 / u
    if kind == SQUARED:
        return -2.0 * (1.0 - u)
    raise ValueError(f"scalar loss derivative undefined for kind {kind!r}")


def softmax(h: np.ndarray) -> np.ndarray:
    return _softmax_in_place(h.copy(), np.empty_like(h[..., :1]))


def _softmax_in_place(h: np.ndarray, edge: np.ndarray, only: Optional[np.ndarray] = None) -> np.ndarray:
    """h overwritten with its softmax over the last axis, each row shifted
    by its max first; edge (..., 1) holds the shift, then the row's sum.
    With a (B,) mask ``only`` over a (B, g, T) h, the rows of the trials it
    leaves out are shifted by 0.0 instead, which keeps every bit."""
    np.maximum.reduce(h, axis=-1, keepdims=True, out=edge)
    if only is not None:
        edge[~only] = 0.0
    np.subtract(h, edge, out=h)
    return _exp_normalized(h, edge)


def _exp_normalized(h: np.ndarray, edge: np.ndarray) -> np.ndarray:
    """h overwritten with exp(h) over its row sums, which edge (..., 1) holds."""
    np.exp(h, out=h)
    np.add.reduce(h, axis=-1, keepdims=True, out=edge)
    np.divide(h, edge, out=h)
    return h


def forward(x: np.ndarray, w: np.ndarray, xbar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Softmax attention probabilities over positions and the composed output."""
    probs = softmax(x @ w @ xbar)
    return probs, x.T @ probs


@dataclass(frozen=True)
class _SplitRows:
    """The rows of a group whose samples their trial's cyclic split holds."""

    rows: np.ndarray    # (m,) flat index into the group's (B * g) samples
    trials: np.ndarray  # (m,) the trial of each row
    keep: np.ndarray    # (m, T) True on the sample's label-SCC positions


class _Scratch:
    """A group's kernel intermediates, rewritten by every kernel call on its
    pack, and the matmul views of them, made once: a view costs about as
    much as a ufunc call on these small arrays."""

    def __init__(self, b: int, g: int, t: int, d: int):
        self.q = np.empty((b, g, d))     # xbar W^T
        self.h = np.empty((b, g, t))     # scores, then their softmax s
        self.edge = np.empty((b, g, 1))  # each row's shift, then its sum
        self.u = np.empty((b, g))        # label masses
        self.v = np.empty((b, g, t))     # s * (gamma - u)
        self.vec = np.empty((b, g, d))   # the gradient's rows before xbar
        self.q_col, self.h_col, self.s_row = self.q[..., None], self.h[..., None], self.h[..., None, :]
        self.v_row, self.vec_row, self.vec_t = self.v[..., None, :], self.vec[..., None, :], self.vec.mT


@dataclass(frozen=True)
class _Group:
    """The g samples of one length of each of the pack's B trials, stacked
    into dense arrays.

    Scores are label-relative: dx = x - e_y is zero on label positions, and
    the softmax of dx W xbar is that of x W xbar, since each sample's scores
    shift by the constant e_y^T W xbar.  A trial is anchored when each of
    its rows, and each split row's label-SCC positions, hold a label
    position: its rows' scores then peak at 0 or above (see SCORE_BOUND).
    """

    x: np.ndarray          # (B, g, T, d)
    dx: np.ndarray         # (B, g, T, d) x - e_y
    xbar: np.ndarray       # (B, g, d)
    labels: np.ndarray     # (B, g)
    omask: np.ndarray      # (B, g, T) True where token == label
    gamma: np.ndarray      # (B, g, T) score weights: omask when tied, else head scores X c_y
    split: Optional[_SplitRows]  # the rows loss_bar scores; None for none
    anchored: np.ndarray   # (B,) True for the anchored trials
    all_anchored: bool     # every trial anchored
    scratch: _Scratch


@dataclass(frozen=True)
class _Packed:
    groups: tuple[_Group, ...]
    n: np.ndarray            # (B,) loss denominators (may exceed the packed sample count)
    n_mats: np.ndarray       # n as (B, 1, 1), the gradient's divisor
    d: int
    c: Optional[np.ndarray]  # (B, K, d)
    tied: bool               # scores are label-position mass
    splits: np.ndarray       # (B,) True for the trials whose cyclic split the pack holds
    grad: np.ndarray         # (B, d, d) the kernel's gradient, rewritten by every call
    part: np.ndarray         # (B, d, d) scratch for a later group's gradient term

    @property
    def trials(self) -> int:
        return len(self.n)


def _structure(dataset: Dataset) -> tuple:
    """Table and head shapes, head use, and the sample count at each
    sequence length.  Datasets that share all of it pack and train in
    lock-step."""
    headed = dataset.head is not None
    lengths = sorted(Counter(s.T for s in dataset.samples).items())
    return dataset.K, dataset.d, headed, not headed or dataset.tied_head(), tuple(lengths)


def _pack(datasets: Sequence[Dataset], splits: Optional[Sequence[Optional[CyclicSplit]]] = None) -> _Packed:
    """Stack datasets of one `_structure`, or raise ValueError, into one
    group per sequence length, in ascending order, each with a leading axis
    over the trials.

    Each trial's groups hold the rows a pack of that trial alone holds, so
    the kernel's values are bit for bit the same.  Each sample is stored
    with its label-relative rows dx = x - e_y beside x, and the groups and
    the pack hold the kernel's scratch arrays.

    ``splits`` holds each dataset's own cyclic split, or None; the groups
    then mark the samples each split holds and their label-SCC positions,
    which the kernel's loss_bar scores.  A split of another dataset raises
    ValueError.
    """
    if len({_structure(ds) for ds in datasets}) != 1:
        raise ValueError("stacked datasets must share table and head shapes, head use "
                         "and the sample count at each length")
    splits = [None] * len(datasets) if splits is None else splits
    first = datasets[0]
    headed = first.head is not None
    tied = not headed or first.tied_head()
    per_trial = []
    for ds, split in zip(datasets, splits):
        if split is not None and split.dataset.samples != ds.samples:
            raise ValueError("a cyclic split of another dataset does not fit this one")
        e = ds.embedding.e
        c = ds.head.c if headed else None
        kept = {} if split is None else dict(zip(split.idx_i, split.positions))
        by_len: dict[int, list[int]] = {}
        for i, s in enumerate(ds.samples):
            by_len.setdefault(s.T, []).append(i)
        groups = []
        for t_len in sorted(by_len):
            idx = by_len[t_len]
            toks = np.array([ds.samples[i].tokens for i in idx])
            labels = np.array([ds.samples[i].label for i in idx])
            x = e[toks]
            xbar = x[:, -1, :].copy()
            omask = toks == labels[:, None]
            gamma = omask.astype(np.float64) if tied else np.einsum("gtd,gd->gt", x, c[labels])
            held = np.zeros(toks.shape, dtype=bool)  # the label-SCC positions of the split's samples
            for r, i in enumerate(idx):
                held[r, list(kept.get(i, ()))] = True
            anchored = np.all(omask.any(axis=1) & ((held & omask).any(axis=1) | ~held.any(axis=1)))
            groups.append((x, x - e[labels][:, None, :], xbar, labels, omask, gamma, held, anchored))
        per_trial.append(groups)
    groups = []
    for trial_groups in zip(*per_trial):
        *arrays, held, anchored = map(_stack, zip(*trial_groups))
        groups.append(_Group(*arrays, split=_split_rows(held), anchored=anchored, all_anchored=bool(anchored.all()),
                             scratch=_Scratch(*arrays[0].shape)))
    n = np.array([ds.n for ds in datasets], dtype=np.float64)
    return _Packed(
        groups=tuple(groups),
        n=n,
        n_mats=n[:, None, None],
        d=first.d,
        c=_stack([ds.head.c for ds in datasets]) if headed else None,
        tied=tied,
        splits=np.array([s is not None for s in splits]),
        grad=np.empty((len(n), first.d, first.d)),
        part=np.empty((len(n), first.d, first.d)),
    )


def _split_rows(held: np.ndarray) -> Optional[_SplitRows]:
    """The split rows of a group from its (B, g, T) mask of the split
    samples' label-SCC positions; None for none."""
    flat = held.reshape(-1, held.shape[-1])
    rows = np.flatnonzero(flat.any(axis=1))
    if not len(rows):
        return None
    return _SplitRows(rows=rows, trials=rows // held.shape[1], keep=flat[rows])


def _stack(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Arrays stacked on a new leading axis; a lone array is not copied."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _underflow(u: np.ndarray) -> DomainError:
    return DomainError(f"log-loss argument underflow: min score {np.min(u):.3e}")


def _loss_and_grad(
    w: np.ndarray, packed: _Packed, kind: str, reduced_log: bool, need_grad: bool = True,
    need_loss: bool = True,
) -> tuple[Optional[np.ndarray], Optional[np.ndarray], Optional[np.ndarray], dict[int, Exception]]:
    """Per-trial losses (B,), cyclic-split losses loss_bar (B,) and
    gradients (B, d, d) at w (B, d, d), from one softmax per group and matmul
    contractions only.

    The scores are the label-relative dx W xbar.  Every trial's values are
    bit for bit those of a pack of that trial alone.  ``reduced_log``
    takes the tied log loss through its reduced form, the gradient
    sum_t s_t (x_t - e_y) xbar^T, whose terms vanish on label positions;
    otherwise the generic softmax-chain formula applies.

    loss_bar comes from the same scores: each split sample's softmax is
    taken over its label-SCC positions alone and scored tied-style, or
    through the head for cross-entropy, then normalized like the loss.  It
    is 0 for an empty split and NaN for a trial without one.

    A group whose trials are all anchored, with no score above SCORE_BOUND,
    takes both softmaxes without a max shift; otherwise the trials that
    fail either test are shifted by their row maxima, each trial as its own
    pack would be (`_shift`).  Without a shift the label mass of a tied log
    loss stays above LOG_GUARD, so a call without the loss on the reduced
    form then skips the label mass and its guard.

    Without ``need_grad`` the gradient is None and its contractions are
    skipped; without ``need_loss`` the losses and loss_bar are None and
    their terms are skipped, but the log-loss underflow guard still runs
    wherever it can fire, so the errors are those of a call with the loss.
    An error in one trial's data does not stop the others: it comes back in
    {trial: exception}, and that trial's values are meaningless.

    The gradient is the pack's own array, valid until the next call on the
    pack.  The intermediates live in its groups' scratch, so a tied log-loss
    call without the loss writes only arrays that `_pack` allocated.
    """
    trials, errors = packed.trials, {}
    if kind == CROSS_ENTROPY and packed.c is None:
        errors = {b: ValueError("cross-entropy loss requires a classifier head") for b in range(trials)}
        total = np.full(trials, np.nan) if need_loss else None
        return total, total, np.zeros_like(w) if need_grad else None, errors
    total = np.zeros(trials) if need_loss else None
    bar = np.where(packed.splits, 0.0, np.nan) if need_loss else None
    bar_errors: dict[int, Exception] = {}
    grad = packed.grad if need_grad else None
    reduced = kind == LOG and packed.tied and reduced_log
    for g in packed.groups:
        sc = g.scratch
        h = _scores(w, g)
        shift = _shift(h, g)
        if need_loss and g.split is not None:
            bar += _split_loss(h, g, packed, kind, bar_errors, shift)
        s = _exp_normalized(h, sc.edge) if shift is None else _softmax_in_place(h, sc.edge, shift)
        if kind == CROSS_ENTROPY:
            label, c = g.labels[..., None], packed.c
            logits = np.matmul(np.matmul(s[..., None, :], g.x)[..., 0, :], c.mT)
            shifted = logits - logits.max(axis=-1, keepdims=True)
            ex = np.exp(shifted)
            z = ex.sum(axis=-1)
            if need_loss:
                total += (np.log(z) - np.take_along_axis(shifted, label, -1)[..., 0]).sum(axis=-1)
            if not need_grad:
                continue
            p = ex / z[..., None]
            np.put_along_axis(p, label, np.take_along_axis(p, label, -1) - 1.0, -1)
            back = np.matmul(g.x, np.matmul(p, c)[..., None])[..., 0]  # dL/ds
            dh = s * (back - (s * back).sum(axis=-1, keepdims=True))
            np.matmul(dh[..., None, :], g.x, out=sc.vec_row)
        else:
            if need_loss or not reduced or shift is not None:
                u = np.vecdot(s, g.gamma, out=sc.u)
                if kind == LOG:
                    u = _guarded(u, None, errors)
                if need_loss:
                    total += loss_value(kind, u).sum(axis=-1)
            if not need_grad:
                continue
            if reduced:
                np.matmul(sc.s_row, g.dx, out=sc.vec_row)
            else:
                v = np.subtract(g.gamma, u[..., None], out=sc.v)
                np.multiply(s, v, out=v)
                np.matmul(sc.v_row, g.x, out=sc.vec_row)
                np.multiply(sc.vec_row, loss_deriv(kind, u)[..., None, None], out=sc.vec_row)
        if g is packed.groups[0]:
            np.matmul(sc.vec_t, g.xbar, out=grad)
        else:
            grad += np.matmul(sc.vec_t, g.xbar, out=packed.part)
    for b, exc in bar_errors.items():
        errors.setdefault(b, exc)
    if total is not None:
        total /= packed.n
        bar /= packed.n
    if grad is not None:
        np.divide(grad, packed.n_mats, out=grad)
    return total, bar, grad, errors


def _scores(w: np.ndarray, g: _Group) -> np.ndarray:
    """Label-relative scores dx W xbar (B, g, T) of a group at its trials'
    w, in the group's scratch."""
    sc = g.scratch
    np.matmul(g.xbar, w.mT, out=sc.q)
    np.matmul(g.dx, sc.q_col, out=sc.h_col)
    return sc.h


def _shift(h: np.ndarray, g: _Group) -> Optional[np.ndarray]:
    """None when no row of the group's scores h needs a max shift: every
    trial is anchored and no score passes SCORE_BOUND (a NaN fails).  Else
    the (B,) mask of the trials that fail either test, which is the verdict
    each trial's own pack gives it."""
    if g.all_anchored and np.maximum.reduce(h, axis=None) <= SCORE_BOUND:
        return None
    return ~(g.anchored & (np.maximum.reduce(h, axis=(1, 2)) <= SCORE_BOUND))


def _guarded(u: np.ndarray, ids: Optional[np.ndarray], errors: dict[int, Exception]) -> np.ndarray:
    """Label masses u (B, g), with the rows of every trial that holds one at
    or below LOG_GUARD set to 1 and that trial's underflow in errors."""
    if np.minimum.reduce(u, axis=None) > LOG_GUARD:
        return u
    low = (u <= LOG_GUARD).any(axis=-1)
    for b in np.flatnonzero(low):
        errors.setdefault(int(b if ids is None else ids[b]), _underflow(u[b]))
    return np.where(low[:, None], 1.0, u)


def _split_loss(h: np.ndarray, g: _Group, packed: _Packed, kind: str, errors: dict[int, Exception],
                shift: Optional[np.ndarray]) -> np.ndarray:
    """Per-trial sums (B,) of the cyclic-split losses of a group's split
    rows, from their scores h restricted to the label-SCC positions.  The
    rows of the trials in ``shift`` (`_shift`) are shifted by their max
    over those positions, which hold the label's 0; no row when None."""
    rows = g.split
    hs = h.reshape(-1, h.shape[-1])[rows.rows]
    if shift is not None:
        top = np.max(hs, axis=-1, where=rows.keep, initial=-np.inf, keepdims=True)
        top[~shift[rows.trials]] = 0.0
        hs -= top
    ex = np.exp(hs, out=np.zeros_like(hs), where=rows.keep)
    s = ex / ex.sum(axis=-1, keepdims=True)
    if kind == CROSS_ENTROPY:
        x = g.x.reshape(-1, *g.x.shape[-2:])[rows.rows]
        logits = np.matmul(packed.c[rows.trials], np.matmul(s[:, None, :], x).mT)[..., 0]
        shifted = logits - logits.max(axis=-1, keepdims=True)
        label = g.labels.reshape(-1)[rows.rows, None]
        losses = np.log(np.exp(shifted).sum(axis=-1)) - np.take_along_axis(shifted, label, -1)[:, 0]
    else:
        u = np.vecdot(s, g.omask.reshape(-1, h.shape[-1])[rows.rows])
        if kind == LOG:
            u = _guarded(u[:, None], rows.trials, errors)[:, 0]
        losses = loss_value(kind, u)
    return np.bincount(rows.trials, weights=losses, minlength=packed.trials)


def _one(w: np.ndarray, packed: _Packed, kind: str, need_grad: bool = True,
         reduced_log: bool = True, need_loss: bool = True) -> tuple[Optional[float], Optional[np.ndarray]]:
    """Loss and gradient of a one-trial pack at a (d, d) w, each None when
    not asked for; raises the trial's error.  The gradient is a copy, so
    it outlives the next call on the pack."""
    total, _, grad, errors = _loss_and_grad(w[None], packed, kind, reduced_log, need_grad, need_loss)
    if errors:
        raise errors[0]
    return None if total is None else float(total[0]), None if grad is None else grad[0].copy()


def grad(w: np.ndarray, dataset: Dataset, kind: str = LOG) -> np.ndarray:
    """Analytical gradient; uses the reduced tied-head form for the log loss."""
    return _one(w, _pack([dataset]), kind, need_loss=False)[1]


def lipschitz_log(dataset: Dataset) -> float:
    """Gradient Lipschitz constant of the tied log loss: 2 e_max^4 sqrt(T_max)."""
    return 2.0 * dataset.embedding.e_max**4 * float(np.sqrt(dataset.t_max))


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
        """One tuple of Python values per record, in `csv_header` order."""
        return zip(self.iters.tolist(), *(getattr(self, name).tolist() for name in _COLUMNS))

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
    when the reference is absent.  This is `train_block` on one dataset.
    """
    out = train_block([dataset], config, [refs])[0]
    if isinstance(out, Exception):
        raise out
    return out


def train_block(
    datasets: Sequence[Dataset], config: TrainConfig, refs: Optional[Sequence[Optional[TrainRefs]]] = None
) -> list[TrainTrace | Exception]:
    """`train_gd` on every dataset, in lock-step.

    Datasets of one `_structure` step together, one kernel call per step
    for all of them, and each keeps its own normalized step, GRAD_FLOOR test
    and records: its trace is bit for bit the one `train_gd` gives it alone.
    A trial that fails stops there while the others go on; its entry in the
    returned list is the exception `train_gd` would raise, in place of its
    TrainTrace.
    """
    refs = [r or TrainRefs() for r in (refs or [None] * len(datasets))]
    if not config.normalized and config.loss == LOG:
        for lip in [lipschitz_log(ds) for ds in datasets if ds.tied_head()]:
            if config.eta > 1.0 / lip:
                warnings.warn(
                    f"step size {config.eta} exceeds 1/L = {1.0 / lip:.4g}; "
                    "plain GD descent is not guaranteed",
                    stacklevel=3,
                )
    out: list[TrainTrace | Exception] = [None] * len(datasets)
    for members in _index_groups(_structure(ds) for ds in datasets):
        results = _train_stack([datasets[i] for i in members], config, [refs[i] for i in members])
        for i, res in zip(members, results):
            out[i] = res
    return out


def _index_groups(keys) -> list[list[int]]:
    """Positions of equal keys, grouped in order of first appearance; a None
    key joins no group."""
    groups: dict = {}
    for i, key in enumerate(keys):
        if key is not None:
            groups.setdefault(key, []).append(i)
    return list(groups.values())


def _norms(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of each trial's matrix: sqrt of a dot product, the
    same bits np.linalg.norm gives for one matrix."""
    flat = a.reshape(len(a), -1)
    return np.sqrt(np.vecdot(flat, flat))


class _StackRefs:
    """The references of a stack of trials for the record-step diagnostics
    corr_svm and dist_fin, each stacked over the trials that have it;
    loss_bar comes from the training kernel."""

    def __init__(self, refs: list[TrainRefs], d: int):
        self.d = d
        self.w_svm = _stack([np.zeros((d, d)) if r.w_svm is None else r.w_svm for r in refs])
        self.svm_norm = np.array([0.0 if r.w_svm is None else np.linalg.norm(r.w_svm) for r in refs])
        self.fins = [
            (np.array(ids), _stack([refs[b].s_fin.basis.reshape(-1, d * d) for b in ids]),
             _stack([refs[b].w_fin for b in ids]))
            for ids in _index_groups(r.s_fin.dim if r.s_fin is not None and r.w_fin is not None else None
                                     for r in refs)
        ]

    def corr_svm(self, w: np.ndarray, w_norm: np.ndarray) -> np.ndarray:
        """`correlation` with W_svm, trial by trial."""
        return np.divide(np.sum(w * self.w_svm, axis=(1, 2)), w_norm * self.svm_norm,
                         out=np.full(len(w), np.nan), where=(w_norm != 0.0) & (self.svm_norm != 0.0))

    def dist_fin(self, w: np.ndarray) -> np.ndarray:
        """||project_S_fin(W) - W_fin||, by the matmuls of `MatrixSubspace.project`."""
        out = np.full(len(w), np.nan)
        for ids, flat, w_fin in self.fins:
            proj = np.zeros((len(ids), self.d, self.d))
            if flat.shape[1]:
                coef = np.matmul(flat, w[ids].reshape(len(ids), -1, 1))
                proj = np.matmul(coef.mT, flat).reshape(proj.shape)
            out[ids] = _norms(proj - w_fin)
        return out


_COLUMNS = ("loss", "loss_bar", "grad_norm", "w_norm", "corr_svm", "dist_fin")


def _train_stack(datasets: list[Dataset], config: TrainConfig, refs: list[TrainRefs]) -> list[TrainTrace | Exception]:
    """`train_block` on datasets of one structure.  A failed trial is frozen:
    its w stops moving and its later values are ignored, and the steps end
    once no trial is left."""
    trials, d = len(datasets), datasets[0].d
    packed, stack_refs = _pack(datasets, splits=[r.split for r in refs]), _StackRefs(refs, d)
    taus = [t for t in range(config.iters + 1) if t % config.record_every == 0 or t == config.iters]
    cols = {name: np.full((len(taus), trials), np.nan) for name in _COLUMNS}
    t_ms = np.zeros(len(taus))
    recorded = np.zeros(trials, dtype=np.int64)  # rows each trial holds
    alive, all_alive, outcome = np.ones(trials, dtype=bool), True, [None] * trials
    w = np.stack([config.initial_w(d) for _ in range(trials)])

    def finish(b: int) -> TrainTrace:
        rows = recorded[b]
        return TrainTrace(
            iters=np.array(taus[:rows], dtype=np.int64),
            **{name: cols[name][:rows, b].copy() for name in _COLUMNS},
            t_ms=t_ms[:rows].copy(),
            w_final=w[b].copy(),
        )

    def fail(errors: dict[int, Exception]) -> None:
        nonlocal all_alive
        for b, exc in errors.items():
            if alive[b]:
                alive[b], outcome[b], all_alive = False, exc, False

    def non_finite(what: str, tau: int, bad: np.ndarray) -> dict[int, Exception]:
        return {int(b): NonFiniteLoss(f"{what} became non-finite at iteration {tau}", trace=finish(b))
                for b in np.flatnonzero(alive & bad)}

    t0 = time.perf_counter()
    row = 0
    for tau in range(config.iters + 1):
        record = row < len(taus) and taus[row] == tau
        cur_loss, loss_bar, g, errors = _loss_and_grad(w, packed, config.loss, reduced_log=True, need_loss=record)
        if errors:
            fail(errors)
        gn = _norms(g)
        # Every norm finite and above the floor; a NaN fails both tests.
        clean = np.minimum.reduce(gn) > GRAD_FLOOR and np.maximum.reduce(gn) < np.inf
        if not clean and not np.isfinite(gn).all():
            fail(non_finite("gradient", tau, ~np.isfinite(g).all(axis=(1, 2))))
        if record:
            fail(non_finite("loss", tau, ~np.isfinite(cur_loss)))
            w_norm = _norms(w)
            values = (cur_loss, loss_bar, gn, w_norm, stack_refs.corr_svm(w, w_norm), stack_refs.dist_fin(w))
            for name, value in zip(_COLUMNS, values):
                cols[name][row] = value
            t_ms[row] = (time.perf_counter() - t0) * 1e3
            row += 1
            recorded[alive] = row
        # Once every trial has failed, no later step changes what is returned.
        if tau == config.iters or not (all_alive or alive.any()):
            break
        # g is the pack's array until the next kernel call, so the steps
        # may overwrite it.  Below the floor the computed gradient is
        # rounding noise; a unit-length step along it would random-walk the
        # direction.
        if config.normalized and clean and all_alive:
            np.multiply(config.eta, g, out=g)
            np.divide(g, gn[:, None, None], out=g)
            np.subtract(w, g, out=w)
        elif config.normalized:
            move = gn > GRAD_FLOOR
            if not all_alive:
                move &= alive
            w[move] = w[move] - config.eta * g[move] / gn[move, None, None]
        elif all_alive:
            np.multiply(config.eta, g, out=g)
            np.subtract(w, g, out=w)
        else:
            w[alive] = w[alive] - config.eta * g[alive]
    return [finish(b) if alive[b] else outcome[b] for b in range(trials)]


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
    """Per group of held samples with equal label-SCC position counts,
    dphi[g, t, j] = dx_t^T B_j xbar_g over the label-relative rows
    dx = x - e_y at those positions, and the dataset's n.

    dx is zero on label positions, so with h = dphi z the loss of a sample
    is log sum_t e^{h_t} - log |O|, and these are the scores the GD kernel
    takes on the split's positions.  Measuring features from the label keeps
    the gradient sum_t s_t dphi_t free of cancellation as the label mass
    saturates.
    """
    ds, e = split.dataset, split.dataset.embedding.e
    by_len: dict[int, list[tuple]] = {}
    for i, positions in zip(split.idx_i, split.positions):
        s = ds.samples[i]
        by_len.setdefault(len(positions), []).append(([s.tokens[t] for t in positions], s.label, s.last_token))
    feats = []
    for t_len in sorted(by_len):
        toks, labels, queries = map(np.array, zip(*by_len[t_len]))
        if not np.all(np.any(toks == labels[:, None], axis=1)):
            raise DomainError("cyclic split holds a sample whose label is not among its positions")
        bx = np.matmul(s_fin.basis, e[queries].T).transpose(2, 1, 0)  # (g, d, m): B_j xbar_g
        feats.append(np.matmul(e[toks] - e[labels][:, None, :], bx))
    return feats, ds.n


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
    """Finite component: minimize the log loss of the cyclic split over S_fin.

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
    d = split.dataset.d
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
    """Log loss of the cyclic split: each held sample's softmax over its
    label-SCC positions against its own last token, scored tied-style
    whatever the head, as in the theory, and normalized by the full dataset
    size.  Only the split rows of the dataset's own pack are scored."""
    if split.empty:
        return 0.0
    packed, errors, total = _pack([split.dataset], splits=[split]), {}, 0.0
    for g in packed.groups:
        if g.split is not None:
            h = _scores(w[None], g)
            total += _split_loss(h, g, packed, LOG, errors, _shift(h, g))
    if errors:
        raise errors[0]
    return float(total[0] / packed.n[0])


def loss_inf(split: CyclicSplit, w_fin: np.ndarray) -> float:
    """Infimum of the full log loss: saturated samples contribute
    -log 1 = 0 each, so only the cyclic split's loss at W_fin remains."""
    return loss_bar(w_fin, split)


@dataclass(frozen=True)
class RegPathPoint:
    radius: float
    w: np.ndarray


REG_PATH_MAP_TOL = 1e-7  # projected-gradient mapping norm at which a radius is done


def _projected_gd(packed: _Packed, w0: np.ndarray, radius: float, eta: float, max_iters: int) -> np.ndarray:
    w = w0.copy()
    nrm = np.linalg.norm(w)
    if nrm > radius:
        w *= radius / nrm
    for _ in range(max_iters):
        g = _one(w, packed, LOG, need_loss=False)[1]
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
    bad = [float(r) for r in radii if not (np.isfinite(r) and r > 0)]
    if bad:
        raise ValueError(f"radii must be finite and > 0, got {bad[0]}")
    if list(radii) != sorted(radii):
        raise ValueError("radii must be increasing")
    if config.loss != LOG:
        raise ValueError(f"reg_path needs the log loss, got {config.loss!r}")
    packed = _pack([dataset])
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
