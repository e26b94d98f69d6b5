"""Single-layer attention: forward pass, losses, gradients, and trainers.

The model scores a sequence X (rows are token embeddings) against its last
token xbar through softmax(X W xbar) and composes the output as X^T probs.
Losses read that output through the classifier head; under a tied head the
per-sample score collapses to the total softmax mass on label occurrences,
which is the path the log-loss theory lives on.  The packed kernel scores
the label-relative rows x_t - e_y instead of x_t: each sample's scores
shift by the constant e_y^T W xbar, so the softmax is the same.  A label
occurrence then scores exactly 0, which anchors its row's softmax: the row
needs no max shift while its scores stay at most SCORE_BOUND.  A training
loop certifies that from a bound on ||W||_F (`_train_stack`) and skips the
reduction over the scores.

The scores are linear in W: h_t = phi_t . vec(W), phi_t = vec(dx_t xbar^T),
and the tied log gradient is sum_t s_t phi_t / n; the kernel returns the
sum over the samples and leaves the 1/n to its caller.  Each length group
of a pack takes one of two contractions, by its shape (`_features`).  The
feature form keeps phi, (B, g T, d^2), and makes two batched gemvs per
trial: phi_b vec(W_b) for the scores and s_b phi_b for the gradient.  The
per-sample form scores dx (W xbar) and takes the gradient's rows s dx before
xbar, one gemv per sample each.  The feature form does T d^2 multiply-adds
a sample against T d + d^2, so a group takes it while the difference is at
most the two calls a sample it saves, CALL_MACS multiply-adds each.
"""

from __future__ import annotations

import math
import time
import warnings
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .dataset import Dataset
from .errors import DomainError, NonFiniteLoss
from .graph import CyclicSplit
from .svm import MatrixSubspace, Solution, WfinStatus
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

# The multiply-adds that the fixed cost of one small BLAS call buys, which
# decides a group's form (`_features`).  A batched gemv on in-cache operands
# costs about 60-100 ns a call plus 0.13-0.2 ns a multiply-add (numpy 2.4.6,
# OpenBLAS on one thread, a 2-core x86-64 machine), so a call is worth 300 to
# 700 of them.  On the kernel without the loss, 20 trials of 6 samples, the
# feature form was 6% faster at d = 10, T = 6 (440 extra multiply-adds a
# sample) and 9% slower at d = 12, T = 6 (648); two calls at 256 each put the
# crossover between them.  It also bounds the features' memory: T d^2 <=
# T d + d^2 + 512 floats a sample.
CALL_MACS = 256


def loss_value(kind: str, u: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """The loss of each label mass u, into ``out`` when given."""
    if kind == LOG:
        if (u <= LOG_GUARD).any():
            raise _underflow(u)
        return np.negative(np.log(u, out=out), out=out)
    if kind == SQUARED:
        return np.square(np.subtract(1.0, u, out=out), out=out)
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
    return _softmax_in_place(h.copy(), np.empty_like(h[..., :1]), np.ones(h.shape[-1]))


def _softmax_in_place(h: np.ndarray, edge: np.ndarray, ones: np.ndarray,
                      only: Optional[np.ndarray] = None) -> np.ndarray:
    """h overwritten with its softmax over the last axis, each row shifted
    by its max first; edge (..., 1) holds the shift, then the row's sum.
    With a mask ``only`` over the trials of a (..., B, g, T) h, (B,) or
    (..., B), the rows of the trials it leaves out are shifted by 0.0
    instead, which keeps every bit."""
    np.maximum.reduce(h, axis=-1, keepdims=True, out=edge)
    if only is not None:
        np.copyto(edge, 0.0, where=~only[..., None, None])
    np.subtract(h, edge, out=h)
    return _exp_normalized(h, edge, ones)


def _exp_normalized(h: np.ndarray, edge: np.ndarray, ones: np.ndarray) -> np.ndarray:
    """h overwritten with exp(h) over its row sums, which edge (..., 1)
    holds; ``ones`` as `_sum_rows` takes it."""
    np.exp(h, out=h)
    _sum_rows(h, edge, ones)
    np.divide(h, edge, out=h)
    return h


def _sum_rows(h: np.ndarray, edge: np.ndarray, ones: np.ndarray) -> None:
    """edge (..., 1) overwritten with the sums of h's rows, the one way a
    softmax sums them: one BLAS dot product a row with ``ones``, a ones
    vector of h's row length, which a caller makes once (np.ones costs
    more than the sums of a small block).  Any order of summing T
    nonnegative terms has the same (T - 1) u relative error bound.  A dot
    product sums its row alone, where a gemv over many rows sums a row by
    a path that depends on its place among them (OpenBLAS 0.3.31, rows of
    8 or more), so a stacked trial would lose the bits of its own pack."""
    np.vecdot(h, ones, out=edge[..., 0])


def forward(x: np.ndarray, w: np.ndarray, xbar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Softmax attention probabilities over positions and the composed output."""
    probs = softmax(x @ w @ xbar)
    return probs, x.T @ probs


@dataclass(frozen=True)
class _SplitRows:
    """The rows of a group whose samples their trial's cyclic split holds,
    and the scratch `_split_loss` rewrites on every call, with a leading
    record axis in a `_records_pack`."""

    rows: np.ndarray    # (m,) flat index into the group's (B * g) samples
    trials: np.ndarray  # (m,) the trial of each row
    keep: np.ndarray    # (m, T) True on the sample's label-SCC positions
    label: np.ndarray   # (m, T) 1.0 on label positions, else 0.0
    ids: np.ndarray     # ([n *] m,) each scored row's flat index into the kernel's trials: trials, or k B + trials
    hs: np.ndarray      # ([n,] m, T) the rows' scores, then their softmax
    ex: np.ndarray      # ([n,] m, T) exp of the scores on keep; 0.0 off it, never written
    edge: np.ndarray    # ([n,] m, 1) each row's sum of ex
    u: np.ndarray       # ([n,] m) the rows' label masses


class _Scratch:
    """A group's kernel intermediates, rewritten by every kernel call on its
    pack, and the matmul views of them, made once: a view costs about as
    much as a ufunc call on these small arrays.  ``lead`` is the trials'
    shape, (B,), or (n, B) for n records of each (`_records_pack`), which
    takes no gradient.  q = xbar W^T exists only for a group in the
    per-sample form (`_features`)."""

    def __init__(self, lead: tuple, g: int, t: int, d: int, features: bool, grad: bool = True):
        self.q = None if features else np.empty(lead + (g, d))  # xbar W^T
        self.h = np.empty(lead + (g, t))     # scores, then their softmax s
        self.edge = np.empty(lead + (g, 1))  # each row's shift, then its sum
        self.ones = np.ones(t)               # the row sums' operand (`_sum_rows`), also the split rows'
        self.u = np.empty(lead + (g,))       # label masses; without the gradient, then their losses
        self.loss = np.empty(lead + (g,)) if grad else None  # their losses
        self.q_col = None if features else self.q[..., None]
        self.h_col, self.h_flat = self.h[..., None], self.h.reshape(lead + (g * t, 1))
        if grad:
            self.v = np.empty(lead + (g, t))     # s * (gamma - u)
            self.vec = np.empty(lead + (g, d))   # the gradient's rows before xbar
            self.s_row, self.s_flat = self.h[..., None, :], self.h.reshape(lead + (1, g * t))
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

    A group in the feature form (`_features`) also holds phi, each row
    vec(dx_t xbar^T) as d^2 exact products; its scores are phi vec(W) and
    its reduced log gradient s phi, one gemv per trial each.  Otherwise phi
    is None, and the scores and the gradient's rows take one gemv per
    sample.
    """

    x: np.ndarray          # (B, g, T, d)
    dx: np.ndarray         # (B, g, T, d) x - e_y
    xbar: np.ndarray       # (B, g, d)
    phi: Optional[np.ndarray]  # (B, g * T, d * d) vec(dx_t xbar^T) in the feature form, else None
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
    n: float                 # every trial's sample count, the loss denominator: one `_structure` fixes it
    d: int
    c: Optional[np.ndarray]  # (B, K, d)
    tied: bool               # scores are label-position mass
    splits: np.ndarray       # (B,) True for the trials whose cyclic split the pack holds
    grad: np.ndarray         # (B, d, d) the kernel's gradient, rewritten by every call
    part: np.ndarray         # (B, d, d) scratch for a later group's gradient term
    grad_flat: np.ndarray    # (B, 1, d * d) views of both, for the feature form's row product
    part_flat: np.ndarray
    lip: float               # |h_t| <= lip ||W||_F for every computed score (`_lipschitz`), rounded up by slack
    slack: float             # relative rounding slack of the ||W|| certificate (`_train_stack`)
    lead: tuple              # the kernel's trials: (B,), or (n, B) in a `_records_pack`

    @property
    def trials(self) -> int:
        return len(self.splits)


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
    with its label-relative rows dx = x - e_y beside x, a group in the
    feature form (`_features`) also with its rows' phi, and the groups and
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
        x, dx, xbar, labels, omask, gamma, held, anchored = map(_stack, zip(*trial_groups))
        b, g, t, d = x.shape
        phi = (dx[..., :, None] * xbar[:, :, None, None, :]).reshape(b, g * t, d * d) if _features(t, d) else None
        groups.append(_Group(x, dx, xbar, phi, labels, omask, gamma, split=_split_rows(held, omask),
                             anchored=anchored, all_anchored=bool(anchored.all()),
                             scratch=_Scratch((b,), g, t, d, phi is not None)))
    grad, part = np.empty((len(datasets), first.d, first.d)), np.empty((len(datasets), first.d, first.d))
    slack = (first.d * first.d + 8) * float(np.finfo(np.float64).eps)
    lip = max(_lipschitz(g) for g in groups) * (1.0 + slack)
    return _Packed(
        groups=tuple(groups),
        n=float(first.n),
        d=first.d,
        c=_stack([ds.head.c for ds in datasets]) if headed else None,
        tied=tied,
        splits=np.array([s is not None for s in splits]),
        grad=grad,
        part=part,
        grad_flat=grad.reshape(len(grad), 1, -1),
        part_flat=part.reshape(len(part), 1, -1),
        # A gradient term sums at most n rows of size lip; past overflow
        # nothing is certified (inf times a zero bound is NaN).
        lip=lip if math.isfinite(lip * first.n) else math.inf,
        slack=slack,
        lead=(len(datasets),),
    )


def _lipschitz(g: _Group) -> float:
    """The scores' Lipschitz constant in ||W||_F of a group: h_t =
    phi_t . vec(W), so |h_t| <= ||phi_t|| ||W||_F, and ||phi_t|| =
    ||dx_t|| ||xbar||; the largest ||phi_t|| in the feature form, else the
    largest ||dx_t|| ||xbar||, both of the stored rows."""
    if g.phi is not None:
        return float(np.sqrt(np.max(np.vecdot(g.phi, g.phi))))
    return float(np.max(np.linalg.norm(g.dx, axis=-1) * np.linalg.norm(g.xbar, axis=-1)[..., None]))


def _features(t: int, d: int) -> bool:
    """Whether a group of length t at dimension d takes the feature form:
    its extra multiply-adds per sample, t d^2 against t d + d^2, are at
    most the two BLAS calls per sample it saves (CALL_MACS each).  The
    cyclic-global, acyclic-global, local-*, feasibility, rate-check and
    reg-path shapes take it; large-k and the refs benchmark shapes do not."""
    return t * d * d - (t * d + d * d) <= 2 * CALL_MACS


def _split_rows(held: np.ndarray, omask: np.ndarray) -> Optional[_SplitRows]:
    """The split rows of a group from its (B, g, T) mask of the split
    samples' label-SCC positions and its label mask; None for none."""
    flat = held.reshape(-1, held.shape[-1])
    rows = np.flatnonzero(flat.any(axis=1))
    if not len(rows):
        return None
    trials = rows // held.shape[1]
    return _split_scratch(rows, trials, flat[rows], omask.reshape(flat.shape)[rows].astype(np.float64), (), trials)


def _split_scratch(rows: np.ndarray, trials: np.ndarray, keep: np.ndarray, label: np.ndarray, lead: tuple,
                   ids: np.ndarray) -> _SplitRows:
    """Split rows with fresh scratch for ``lead`` = () or (n,) records."""
    return _SplitRows(rows=rows, trials=trials, keep=keep, label=label, ids=ids, hs=np.empty(lead + keep.shape),
                      ex=np.zeros(lead + keep.shape), edge=np.empty(lead + (len(rows), 1)),
                      u=np.empty(lead + (len(rows),)))


def _records_pack(packed: _Packed, n: int) -> _Packed:
    """The pack that scores n records of each of a pack's B trials at once,
    w (n, B, d, d), without the gradient: the trial of record k and trial b
    is k B + b.  Its groups share every per-trial array of the pack (phi,
    x, dx, xbar, the masks and the split rows, broadcast over the record
    axis by the kernel's matmuls and ufuncs; the labels as a (1, B, g)
    view, for cross-entropy's index); only the scratch grows with n.  The
    kernel gives each record the bits of its trial alone."""
    b, d = packed.trials, packed.d
    groups = []
    for g in packed.groups:
        rows = g.split
        split = None if rows is None else _split_scratch(
            rows.rows, rows.trials, rows.keep, rows.label, (n,), (np.arange(n)[:, None] * b + rows.trials).ravel())
        groups.append(replace(g, labels=g.labels[None], split=split, scratch=_Scratch(
            (n, b), g.labels.shape[1], g.omask.shape[2], d, g.phi is not None, grad=False)))
    return replace(packed, groups=tuple(groups), lead=(n, b))


def _stack(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Arrays stacked on a new leading axis; a lone array is not copied."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _underflow(u: np.ndarray) -> DomainError:
    return DomainError(f"log-loss argument underflow: min score {np.min(u):.3e}")


def _loss_and_grad(
    w: np.ndarray, packed: _Packed, kind: str, reduced_log: bool, need_grad: bool = True,
    need_loss: bool = True, bounded: bool = False,
) -> tuple[Optional[np.ndarray], Optional[np.ndarray], Optional[np.ndarray], dict[int, Exception]]:
    """Per-trial losses (B,), cyclic-split losses loss_bar (B,) and
    gradients (B, d, d) at w (B, d, d), from one softmax per group and matmul
    contractions only.  On a `_records_pack` w is (n, B, d, d), n records of
    each trial, and the losses and loss_bar are (n, B).  The gradient is
    the sum of the samples' terms, n times the loss's gradient: each
    caller scales it once, `_one` by 1/n and a training step by its own
    scale (`_train_stack`).  Every softmax sums its rows through
    `_sum_rows`.

    The scores are the label-relative dx W xbar.  Every trial's values are
    bit for bit those of a pack of that trial alone.  ``reduced_log``
    takes the tied log loss through its reduced form, the gradient
    sum_t s_t (x_t - e_y) xbar^T, whose terms vanish on label positions;
    otherwise the generic softmax-chain formula applies.  A group in the
    feature form scores through one gemv per trial, phi_b vec(W_b), and
    writes the reduced gradient s_b phi_b straight into the pack's
    gradient; the squared and cross-entropy chains, and every group in
    the per-sample form, take their rows from x or dx per sample and
    contract them with xbar (`_Group`, `_features`).

    loss_bar comes from the same scores: each split sample's softmax is
    taken over its label-SCC positions alone and scored tied-style, or
    through the head for cross-entropy, then normalized like the loss.  It
    is 0 for an empty split and NaN for a trial without one.

    A group whose trials are all anchored, with no score above SCORE_BOUND,
    takes both softmaxes without a max shift; otherwise the trials that
    fail either test are shifted by their row maxima, each trial as its own
    pack would be (`_shift`).  ``bounded`` is the caller's certificate that
    no score passes SCORE_BOUND (`_train_stack`): the test then reads the
    anchoring alone, with no reduction over the scores.  Without a shift
    the label mass of a tied log loss stays above LOG_GUARD, so a call
    without the loss on the reduced form then skips the label mass and its
    guard.

    Without ``need_grad`` the gradient is None and its contractions are
    skipped; without ``need_loss`` the losses and loss_bar are None and
    their terms are skipped, but the log-loss underflow guard still runs
    wherever it can fire, so the errors are those of a call with the loss.
    An error in one trial's data does not stop the others: it comes back in
    {trial: exception}, and that trial's values are meaningless; on a
    `_records_pack` the key of record k of trial b is k B + b.

    The gradient is the pack's own array, valid until the next call on the
    pack.  The intermediates live in its groups' scratch, and the split
    rows' in their `_SplitRows`, so a tied log-loss call without the loss
    writes only arrays that `_pack` allocated, and one with it adds only
    arrays of one entry per trial or per sample.
    """
    lead, errors = packed.lead, {}
    if kind == CROSS_ENTROPY and packed.c is None:
        errors = {b: ValueError("cross-entropy loss requires a classifier head") for b in range(math.prod(lead))}
        total = np.full(lead, np.nan) if need_loss else None
        if need_grad:
            packed.grad.fill(0.0)
        return total, total, packed.grad if need_grad else None, errors
    total = np.zeros(lead) if need_loss else None
    bar = np.where(np.broadcast_to(packed.splits, lead), 0.0, np.nan) if need_loss else None
    bar_errors: dict[int, Exception] = {}
    grad = packed.grad if need_grad else None
    reduced = kind == LOG and packed.tied and reduced_log
    for g in packed.groups:
        sc = g.scratch
        h = _scores(w, g)
        shift = _shift(h, g, bounded)
        if need_loss and g.split is not None:
            bar += _split_loss(h, g, packed, kind, bar_errors, shift)
        s = _exp_normalized(h, sc.edge, sc.ones) if shift is None else _softmax_in_place(h, sc.edge, sc.ones, shift)
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
                    total += np.add.reduce(loss_value(kind, u, out=sc.loss if need_grad else u), axis=-1)
            if not need_grad:
                continue
            if not reduced:
                v = np.subtract(g.gamma, u[..., None], out=sc.v)
                np.multiply(s, v, out=v)
                np.matmul(sc.v_row, g.x, out=sc.vec_row)
                np.multiply(sc.vec_row, loss_deriv(kind, u)[..., None, None], out=sc.vec_row)
            elif g.phi is None:
                np.matmul(sc.s_row, g.dx, out=sc.vec_row)
        first = g is packed.groups[0]
        if reduced and g.phi is not None:
            np.matmul(sc.s_flat, g.phi, out=packed.grad_flat if first else packed.part_flat)
        else:
            np.matmul(sc.vec_t, g.xbar, out=grad if first else packed.part)
        if not first:
            grad += packed.part
    for b, exc in bar_errors.items():
        errors.setdefault(b, exc)
    if total is not None:
        total /= packed.n
        bar /= packed.n
    return total, bar, grad, errors


def _scores(w: np.ndarray, g: _Group) -> np.ndarray:
    """Label-relative scores dx W xbar (..., B, g, T) of a group at its
    trials' w (..., B, d, d), in the group's scratch."""
    sc = g.scratch
    if g.phi is not None:
        np.matmul(g.phi, w.reshape(w.shape[:-2] + (-1, 1)), out=sc.h_flat)
    else:
        np.matmul(g.xbar, w.mT, out=sc.q)
        np.matmul(g.dx, sc.q_col, out=sc.h_col)
    return sc.h


def _shift(h: np.ndarray, g: _Group, bounded: bool = False) -> Optional[np.ndarray]:
    """None when no row of the group's scores h needs a max shift: every
    trial is anchored and no score passes SCORE_BOUND (a NaN fails), which
    ``bounded`` certifies without reading h.  Else the mask of the trials
    that fail either test, (B,) or h's (..., B), which is the verdict each
    trial's own pack gives it."""
    if g.all_anchored and (bounded or np.maximum.reduce(h, axis=None) <= SCORE_BOUND):
        return None
    return ~(g.anchored & (bounded or np.maximum.reduce(h, axis=(-2, -1)) <= SCORE_BOUND))


def _guarded(u: np.ndarray, ids: Optional[np.ndarray], errors: dict[int, Exception]) -> np.ndarray:
    """Label masses u (..., g), with the rows of every trial that holds one
    at or below LOG_GUARD set to 1 and that trial's underflow in errors,
    under the flat index of its row of u, or that index's entry of ids."""
    if np.minimum.reduce(u, axis=None) > LOG_GUARD:
        return u
    low = (u <= LOG_GUARD).any(axis=-1)
    rows = u.reshape(-1, u.shape[-1])
    for b in np.flatnonzero(low):
        errors.setdefault(int(b if ids is None else ids[b]), _underflow(rows[b]))
    return np.where(low[..., None], 1.0, u)


def _split_loss(h: np.ndarray, g: _Group, packed: _Packed, kind: str, errors: dict[int, Exception],
                shift: Optional[np.ndarray]) -> np.ndarray:
    """Per-trial sums, h's (..., B), of the cyclic-split losses of a
    group's split rows, from their scores h (..., B, g, T) restricted to
    the label-SCC positions.  The rows of the trials in ``shift``
    (`_shift`) are shifted by their max over those positions, which hold
    the label's 0; no row when None."""
    rows, lead, t = g.split, h.shape[:-2], h.shape[-1]
    hs = np.take(h.reshape(lead[:-1] + (-1, t)), rows.rows, axis=-2, out=rows.hs)
    if shift is not None:
        top = np.max(hs, axis=-1, where=rows.keep, initial=-np.inf, keepdims=True)
        np.copyto(top, 0.0, where=~shift[..., rows.trials, None])
        hs -= top
    ex = np.exp(hs, out=rows.ex, where=rows.keep)
    _sum_rows(ex, rows.edge, g.scratch.ones)
    s = np.divide(ex, rows.edge, out=hs)
    if kind == CROSS_ENTROPY:
        x = g.x.reshape(-1, *g.x.shape[-2:])[rows.rows]
        logits = np.matmul(packed.c[rows.trials], np.matmul(s[..., None, :], x).mT)[..., 0]
        shifted = logits - logits.max(axis=-1, keepdims=True)
        label = np.broadcast_to(g.labels.reshape(-1)[rows.rows, None], shifted.shape[:-1] + (1,))
        losses = np.log(np.exp(shifted).sum(axis=-1)) - np.take_along_axis(shifted, label, -1)[..., 0]
    else:
        u = np.vecdot(s, rows.label, out=rows.u)
        if kind == LOG:
            u = _guarded(u[..., None], rows.ids, errors)[..., 0]
        losses = loss_value(kind, u, out=u)
    return np.bincount(rows.ids, weights=losses.reshape(-1), minlength=math.prod(lead)).reshape(lead)


def _one(w: np.ndarray, packed: _Packed, kind: str, need_grad: bool = True,
         reduced_log: bool = True, need_loss: bool = True) -> tuple[Optional[float], Optional[np.ndarray]]:
    """Loss and gradient of a one-trial pack at a (d, d) w, each None when
    not asked for; raises the trial's error.  The gradient is the kernel's
    sum divided by n, a new array, so it outlives the next call on the
    pack."""
    total, _, grad, errors = _loss_and_grad(w[None], packed, kind, reduced_log, need_grad, need_loss)
    if errors:
        raise errors[0]
    return None if total is None else float(total[0]), None if grad is None else grad[0] / packed.n


def grad(w: np.ndarray, dataset: Dataset, kind: str = LOG) -> np.ndarray:
    """Analytical gradient; uses the reduced tied-head form for the log loss.
    A new array: the kernel's own gradient is rewritten by its next call."""
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
        if self.init not in ("zero", "gauss"):
            raise ValueError(f"unknown init {self.init!r}")
        if self.loss not in (LOG, SQUARED, CROSS_ENTROPY):
            raise ValueError(f"unknown loss {self.loss!r}; choose {LOG!r}, {SQUARED!r} or {CROSS_ENTROPY!r}")
        if not np.isfinite(self.init_scale):
            raise ValueError(f"init_scale must be a finite number, got {self.init_scale}")

    def initial_w(self, d: int) -> np.ndarray:
        if self.init == "zero":
            return np.zeros((d, d))
        return self.init_scale * seeded_rng(self.init_seed, 4).standard_normal((d, d))


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

    def columns(self) -> tuple[np.ndarray, ...]:
        """The record arrays in `csv_header` order."""
        return (self.iters, *(getattr(self, name) for name in _COLUMNS))

    @staticmethod
    def csv_header() -> tuple[str, ...]:
        return ("iter", "loss", "loss_bar", "grad_norm", "w_norm", "corr_svm", "dist_fin")


def correlation(w: np.ndarray, ref: Optional[np.ndarray]) -> float | np.ndarray:
    """Frobenius cosine over the last two axes, broadcast over the others: a
    float for two matrices, else an array; NaN when the reference is absent
    or either norm is zero.  The trace's corr_svm is `_cosine` on its
    stored records, each the bits of its pair alone."""
    if ref is None:
        return np.nan
    corr = _cosine(w, ref, _norms(w), _norms(ref))
    return float(corr) if corr.ndim == 0 else corr


def _cosine(w: np.ndarray, ref: np.ndarray, w_norm: np.ndarray, ref_norm: np.ndarray) -> np.ndarray:
    """`correlation` from the Frobenius norms of w and ref (`_norms`),
    which a caller that holds them passes; NaN where either is zero."""
    dot, norm = np.add.reduce(w * ref, axis=(-2, -1)), w_norm * ref_norm
    return np.divide(dot, norm, out=np.full(np.shape(dot), np.nan), where=norm != 0.0)


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
    """Positions of equal keys, grouped in order of first appearance."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def _norms(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a (..., d, d) stack: sqrt of a dot
    product, the same bits np.linalg.norm gives for one matrix."""
    flat = a.reshape(a.shape[:-2] + (-1,))
    return np.sqrt(np.vecdot(flat, flat))


class _StackRefs:
    """The references of a stack of trials for the trace diagnostics
    corr_svm and dist_fin of n records of every trial at once, w (n, B, d,
    d): W_svm stacked over the trials, zero where absent, so that
    `_cosine` reads NaN there, and its norms; and the S_fin bases in one
    stack, each padded with zero rows to the largest dim m, with the
    buffers of dist_fin.  loss_bar comes from the kernel
    (`_records_pack`).  dist_fin is the stack's own array, valid until its
    next call."""

    def __init__(self, refs: list[TrainRefs], d: int, n: int):
        self.w_svm = _stack([np.zeros((d, d)) if r.w_svm is None else r.w_svm for r in refs])
        self.svm_norm = _norms(self.w_svm)
        held = [r.s_fin is not None and r.w_fin is not None for r in refs]
        m = max((r.s_fin.dim for r, has in zip(refs, held) if has), default=0)
        # Per trial: its basis rows and `MatrixSubspace.anchor` (W_fin), the
        # coordinates z of W_fin and the square of its distance from S_fin;
        # zero rows and z past its dim, and NaN without S_fin or W_fin.
        flat, self.z = np.zeros((len(refs), m, d * d)), np.zeros((m, 1, len(refs)))
        self.off = np.full(len(refs), np.nan)
        for b in np.flatnonzero(held):
            s_fin = refs[b].s_fin
            z, self.off[b] = s_fin.anchor(refs[b].w_fin)
            flat[b, :s_fin.dim], self.z[:s_fin.dim, 0, b] = s_fin.basis.reshape(-1, d * d), z
        self.rows = flat.transpose(1, 0, 2)[:, None]  # (m, 1, B, d^2)
        self.coef, self.square = np.empty((m, n, len(refs))), np.tile(self.off, (n, 1))
        self.dist = np.empty((n, len(refs)))

    def dist_fin(self, w: np.ndarray) -> np.ndarray:
        """(n, B) ||project_S_fin(W) - W_fin||, each the bits of
        `MatrixSubspace.distance`: sqrt(sum_k (B_k . W - z_k)^2 + off),
        each coefficient a dot product of its own and the sum over k a
        running one, so a zero pad row changes no bit."""
        if len(self.coef):
            np.vecdot(self.rows, w.reshape(w.shape[:2] + (-1,)), out=self.coef)
            np.subtract(self.coef, self.z, out=self.coef)
            np.square(self.coef, out=self.coef)
            np.add.accumulate(self.coef, axis=0, out=self.coef)
            np.add(self.coef[-1], self.off, out=self.square)
        return np.sqrt(self.square, out=self.dist)


_COLUMNS = ("loss", "loss_bar", "grad_norm", "w_norm", "corr_svm", "dist_fin")


class _Failure(NamedTuple):
    """How a trial of `_train_stack` failed."""

    at: tuple          # (step, rank): of two failures, the smaller stands
    error: Exception
    rows: int          # the rows its trace keeps
    w: np.ndarray      # W at that step
    reach: int         # the stored rows a scoring must score for it


# The records whose W a training loop stores between two scorings of their
# diagnostics.  It sets how many per-call costs a record shares, and the
# memory of the stored W's and the scoring scratch; it changes no value.
RECORD_CHUNK = 8


def _train_stack(datasets: list[Dataset], config: TrainConfig, refs: list[TrainRefs]) -> list[TrainTrace | Exception]:
    """`train_block` on datasets of one structure.  A failed trial is frozen:
    its w stops moving and its later values are ignored, and the steps end
    once no trial is left.  The kernel's gradient g is a sum over the n
    samples, and every trial takes the same update, W -= c g, with one
    scale c a trial: eta / ||g|| under normalized GD, eta / n under plain
    GD.  The trace's grad_norm is ||g|| / n, the loss's gradient norm, and
    the floor test compares ||g|| with n GRAD_FLOOR.  A frozen trial, and
    under normalized GD one whose gradient norm is at or below the floor,
    takes the update as a zero step, g = 0 with ||g|| = 1, once the record
    step has read its g.

    A record step keeps what the loop itself needs, the gradient norms and
    the W norms, and a copy of W.  Each time RECORD_CHUNK of them are
    stored, and once after the last step, one kernel call (`_records_pack`),
    `_StackRefs.dist_fin` and `_cosine` score them all: the loss, loss_bar,
    corr_svm and dist_fin columns, each record's values the bits of its
    trial alone.  corr_svm divides by the record's w_norm and the stack's
    ||W_svm||, the bits `correlation` computes.  Every scoring takes all
    RECORD_CHUNK slots: those past its records hold W = 0, finite under
    every loss, and their values and errors are dropped.
    A failure that only the loss finds, a loss_bar `DomainError` or a
    non-finite loss, fails its trial at that record: the trace keeps the
    rows before it and W of that step, and the steps the trial took since
    are thrown away.  Of two failures of a trial, the one at the earlier
    step stands; at one step the kernel's errors come first, then
    loss_bar's, a non-finite gradient and a non-finite loss, the order of a
    step that computes them all.  A scoring skips the records that no
    trial's trace keeps.

    The loop carries ``w_bound`` >= ||W_b||_F for every trial b, frozen
    ones too: the largest norm at each measurement, plus eta per normalized
    step and (eta / n) max ||g|| per plain one.  Each of the three, and the
    pack's lip, is rounded up by the pack's slack, (d^2 + 8) eps, more than
    the relative rounding error of a computed norm, score or step.  A norm
    or a score is a d^2-term dot product, or two d-term ones, and a few
    roundings around it.  A step's computed norm exceeds the bound's
    increment by less than (d^2 + 4) u, u = eps / 2: ||g|| takes d^2 + 1
    roundings, eta / ||g|| (normalized) or the increment's product
    (eta / n) ||g|| (plain) one, c g one and the subtraction from W one.
    The norms are measured at each record step, which keeps them, and once
    more when the bound first passes its reach after a measurement; a
    measurement that leaves it out of reach waits for the next record
    step, so `feasibility`, which records only at its first and last step,
    is certified on every step.  While lip w_bound <= SCORE_BOUND no computed score
    passes SCORE_BOUND, so the kernel skips its reduction over the scores
    (``bounded``).  On the reduced tied log form the gradient is then a
    sum of n rows of norm at most lip under a finite softmax, and the pack
    certifies lip n finite, so it is finite and a normalized step skips the
    test for an infinite gradient norm (a finite gradient whose norm
    overflows takes the same zero step either way).  Both skipped tests
    would have given the same verdict, so every bit is the same.

    The loop owns its buffers: the gradient norms, written through a flat
    view of the pack's gradient, the per-trial scales, W's norms and the
    (trials, records) columns, whose rows are the traces' arrays.  Neither
    a plain step nor a record step allocates a stack-sized array of its
    own; numpy's broadcasting divide and scale still take an iterator
    buffer the size of their output."""
    trials, d = len(datasets), datasets[0].d
    packed = _pack(datasets, splits=[r.split for r in refs])
    grow = 1.0 + packed.slack
    finite_grad = config.normalized and config.loss == LOG and packed.tied  # may skip the infinity test
    # The kernel returns packed.grad; its norms and W's are written through
    # flat views, and a normalized step scales it by c's (B, 1, 1) view.
    g_flat, gn, floor = packed.grad.reshape(trials, -1), np.empty(trials), packed.n * GRAD_FLOOR
    scale, w_norm = np.empty(trials), np.empty(trials)
    scale_col, plain_scale = scale[:, None, None], config.eta / packed.n
    taus = [t for t in range(config.iters + 1) if t % config.record_every == 0 or t == config.iters]
    # Each trial's row of a column is its trace's array, a view.
    cols = {name: np.full((trials, len(taus)), np.nan) for name in _COLUMNS}
    iters, t_ms = np.array(taus, dtype=np.int64), np.zeros(len(taus))
    # The W of each record since the last scoring, and the scratch that scores them.
    stored = np.empty((min(RECORD_CHUNK, len(taus)), trials, d, d))
    records, stack_refs = _records_pack(packed, len(stored)), _StackRefs(refs, d, len(stored))
    failures: dict[int, _Failure] = {}
    alive, all_alive = np.ones(trials, dtype=bool), True
    w = np.stack([config.initial_w(d) for _ in range(trials)])
    w_flat = w.reshape(trials, -1)

    def measure(out: np.ndarray) -> float:
        """Every trial's ||W|| into out, and the bound they give; a NaN norm certifies nothing."""
        np.sqrt(np.vecdot(w_flat, w_flat, out=out), out=out)
        return float(out[out.argmax()]) * grow

    def finish(b: int) -> TrainTrace:
        rows, w_b = (row, w[b]) if alive[b] else (failures[b].rows, failures[b].w)
        return TrainTrace(
            iters=iters[:rows],
            **{name: cols[name][b, :rows] for name in _COLUMNS},
            t_ms=t_ms[:rows],
            w_final=w_b.copy(),
        )

    def fail(found: dict[int, Exception], tau: int, rank: int, r: int, ws: np.ndarray) -> None:
        """Fail each trial of found at step tau, unless it failed earlier
        (`_train_stack`), keeping its rows before r and its W in ws."""
        nonlocal all_alive
        for b, exc in found.items():
            if b not in failures or (tau, rank) < failures[b].at:
                # A failing gradient at a record step yields to loss_bar's error there.
                reach = r + (rank == 2 and r < len(taus) and taus[r] == tau)
                failures[b] = _Failure((tau, rank), exc, r, ws[b].copy(), reach)
                alive[b] = all_alive = False

    def non_finite(what: str, tau: int, bad: np.ndarray) -> dict[int, Exception]:
        return {int(b): NonFiniteLoss(f"{what} became non-finite at iteration {tau}") for b in np.flatnonzero(bad)}

    def score() -> None:
        """Score the stored records that a trace keeps: all of them while a
        trial is alive, else those each failure needs.  The slots past them
        hold W = 0, whose values and errors are dropped."""
        nonlocal scored, stored_bounded
        reach = row if all_alive or alive.any() else min(row, max(f.reach for f in failures.values()))
        n = reach - scored
        if n > 0:
            stored[n:] = 0.0
            loss, bar, _, errors = _loss_and_grad(stored, records, config.loss, reduced_log=True, need_grad=False,
                                                  need_loss=True, bounded=stored_bounded)
            kept, loss = slice(scored, reach), loss[:n]
            cols["loss"][:, kept], cols["loss_bar"][:, kept] = loss.T, bar[:n].T
            cols["dist_fin"][:, kept] = stack_refs.dist_fin(stored)[:n].T
            cols["corr_svm"][:, kept] = _cosine(stored[:n], stack_refs.w_svm, cols["w_norm"][:, kept].T,
                                                stack_refs.svm_norm).T
            finite = np.isfinite(loss)
            if errors or not finite.all():
                for k, r in enumerate(range(scored, reach)):
                    found = {i - k * trials: exc for i, exc in errors.items() if i // trials == k}
                    fail(found, taus[r], 1, r, stored[k])
                    fail(non_finite("loss", taus[r], ~finite[k]), taus[r], 3, r, stored[k])
        scored, stored_bounded = row, True

    t0, row, scored, remeasure, stored_bounded, w_bound = time.perf_counter(), 0, 0, True, True, math.inf
    for tau in range(config.iters + 1):
        record = row < len(taus) and taus[row] == tau
        bounded = packed.lip * w_bound <= SCORE_BOUND
        if record or (remeasure and not bounded):
            w_bound = measure(cols["w_norm"][:, row] if record else w_norm)
            bounded = remeasure = packed.lip * w_bound <= SCORE_BOUND
        _, _, g, errors = _loss_and_grad(w, packed, config.loss, reduced_log=True, need_loss=False, bounded=bounded)
        if errors:
            fail(errors, tau, 0, row, w)
        np.sqrt(np.vecdot(g_flat, g_flat, out=gn), out=gn)
        # Every norm finite and above the floor; a NaN fails both tests.
        # Read through argmin and argmax, as `svm._top` reads a max.
        top = None if bounded and finite_grad else float(gn[gn.argmax()])
        clean = gn[gn.argmin()] > floor and (top is None or top < np.inf)
        if not clean and not np.isfinite(gn).all():
            fail(non_finite("gradient", tau, alive & ~np.isfinite(g).all(axis=(1, 2))), tau, 2, row, w)
        if record:
            np.divide(gn, packed.n, out=cols["grad_norm"][:, row])
            stored[row - scored] = w
            stored_bounded &= bounded
            t_ms[row] = (time.perf_counter() - t0) * 1e3
            row += 1
            if row - scored == len(stored):
                score()
        # Once every trial has failed, no later step changes what is returned.
        if tau == config.iters or not (all_alive or alive.any()):
            break
        # g is the pack's array until the next kernel call, so the step may
        # overwrite it.  A trial that stops moving takes a zero step, g = 0
        # with ||g|| = 1: a failed trial, or under normalized GD one at or
        # below the floor, where the computed gradient is rounding noise and
        # a unit-length step along it would random-walk the direction.
        if not all_alive or (config.normalized and not clean):
            still = ~(alive & (gn > floor)) if config.normalized else ~alive
            g[still], gn[still] = 0.0, 1.0
        if config.normalized:
            np.divide(config.eta, gn, out=scale)
        np.multiply(g, scale_col if config.normalized else plain_scale, out=g)
        np.subtract(w, g, out=w)
        w_bound = (w_bound + (config.eta if config.normalized else plain_scale * top)) * grow
    score()
    records = stack_refs = stored = None  # freed before the traces are built
    for b, failure in failures.items():
        if isinstance(failure.error, NonFiniteLoss):
            failure.error.trace = finish(b)
    return [finish(b) if alive[b] else failures[b].error for b in range(trials)]


WFIN_DECREMENT_TOL = 1e-30  # lambda^2 / 2 at which a step is rounding-sized
WFIN_REL_BOUND = 1e-9       # certified bound, relative to max(1, ||W_fin||)
BALL_REL_GAP = 1e-9         # certified Frank-Wolfe gap of a ball minimizer, relative to its loss
NEWTON_MAX_ITERS = 50       # safety net only: the certificate sets the status
ARMIJO_ALPHA = 0.25
ARMIJO_BETA = 0.5
ARMIJO_MIN_STEP = 1e-12


def _fin_features(split: CyclicSplit, basis: MatrixSubspace) -> tuple[np.ndarray, np.ndarray, int]:
    """One stack over the held samples, padded to the longest:
    dphi[g, t, j] = dx_t^T B_j xbar_g over the label-relative rows
    dx = x - e_y at sample g's held positions, B_j the basis's matrices
    (S_fin's for W_fin), the score offset (0 on those rows, -inf on the pad
    rows, so a pad row carries no softmax mass) and the dataset's n.

    dx is zero on label positions, so with h = dphi z + offset the loss of a
    sample is log sum_t e^{h_t} - log |O|, and these are the scores the GD
    kernel takes on the split's positions.  Measuring features from the
    label keeps the gradient sum_t s_t dphi_t free of cancellation as the
    label mass saturates.  A pad row repeats the label, so its features are
    zero, as a label row's are.
    """
    ds, e = split.dataset, split.dataset.embedding.e
    samples = [ds.samples[i] for i in split.idx_i]
    labels = np.array([s.label for s in samples])
    toks = np.repeat(labels[:, None], max(map(len, split.positions)), axis=1)
    offset = np.full(toks.shape, -np.inf)
    for j, (s, positions) in enumerate(zip(samples, split.positions)):
        row = [s.tokens[t] for t in positions]
        if s.label not in row:
            raise DomainError("cyclic split holds a sample whose label is not among its positions")
        toks[j, :len(row)] = row
        offset[j, :len(row)] = 0.0
    queries = np.array([s.last_token for s in samples])
    bx = np.matmul(basis.basis, e[queries].T).transpose(2, 1, 0)  # (g, d, m): B_j xbar_g
    return np.matmul(e[toks] - e[labels][:, None, :], bx), offset, ds.n


def _fin_terms(dphi: np.ndarray, offset: np.ndarray, z: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """Gradient E_s[dphi] and Hessian Cov_s(dphi) of the reduced loss,
    averaged over n, with each held sample's softmax s (zero on pad rows)."""
    s = softmax(dphi @ z + offset)
    mean = np.matmul(s[:, None, :], dphi)
    psi = (dphi - mean).reshape(-1, len(z))
    return np.sum(mean, axis=(0, 1)) / n, (psi * s.reshape(-1, 1)).T @ psi / n, s


def _fin_change(dphi: np.ndarray, offset: np.ndarray, s: np.ndarray, dz: np.ndarray, n: int) -> float:
    """f(z + dz) - f(z) = mean of log1p(sum_t s_t expm1(dh_t)), accurate for
    any step or saturation, as a label row has dh = 0; scores that overflow
    give +inf or NaN, which fail every descent test."""
    dh = dphi @ dz + offset
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.sum(np.log1p(np.sum(s * np.expm1(dh), axis=1)))) / n


def _newton(dphi: np.ndarray, offset: np.ndarray, n: int, z: np.ndarray,
            radius: Optional[float] = None) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, float]:
    """Damped Newton on a feature stack's reduced loss f from z: unconstrained
    (`train_wfin`) when radius is None, else over ||z|| <= radius, where a
    step that leaves the ball gives way to `_ball_point`.  Returns z, g and H
    there, the steps and, on a ball, the relative Frank-Wolfe gap
    (<g, z> + radius ||g||) / f(z) >= (f(z) - min f) / f(z), which stops it
    at BALL_REL_GAP; f = mean of -log1p(-mass off the label rows, whose
    features are zero), accurate as the loss saturates."""
    lam2_prev, full_step, iterations, gap = np.inf, False, 0, np.nan
    while True:
        g, h, probs = _fin_terms(dphi, offset, z, n)
        if radius is not None:
            loss = -float(np.sum(np.log1p(-np.sum(probs, axis=1, where=dphi.any(axis=2))))) / n
            gap = float(g @ z) + radius * math.hypot(*g)  # hypot: g^2 may underflow
            gap = gap / loss if gap else 0.0  # no gap: g = 0, or f = 0 and so g = 0
            if gap <= BALL_REL_GAP:
                break
            # Curvature below H's rounding is noise: a saturated direction's is
            # below the ~1e-17 that S_fin rows' features leak into S_svm's.
            h = h + np.finfo(float).eps * np.trace(h) * np.eye(len(z))
        try:
            chol = np.linalg.cholesky(h)
        except np.linalg.LinAlgError:
            break  # H not positive definite: neither result is certified
        y = np.linalg.solve(chol, g)
        lam2 = float(y @ y)
        if (radius is None and (lam2 / 2.0 <= WFIN_DECREMENT_TOL or (full_step and lam2 >= lam2_prev))
                or iterations == NEWTON_MAX_ITERS):
            break
        dz = -np.linalg.solve(chol.T, y)
        if radius is not None and np.linalg.norm(z + dz) > radius:
            dz = _ball_point(h, g - h @ z, radius) - z
            lam2 = -float(g @ dz)
        t = 1.0
        while t >= ARMIJO_MIN_STEP and not _fin_change(dphi, offset, probs, t * dz, n) <= -ARMIJO_ALPHA * t * lam2:
            t *= ARMIJO_BETA
        if t < ARMIJO_MIN_STEP:
            break  # no decrease left to find
        z = z + t * dz
        lam2_prev, full_step = lam2, t == 1.0
        iterations += 1
    return z, g, h, iterations, gap


def _ball_point(h: np.ndarray, b: np.ndarray, radius: float) -> np.ndarray:
    """argmin b.y + y.H y / 2 over ||y|| <= radius when on the sphere:
    y = -(H + lam I)^-1 b, lam from Newton on 1/||y(lam)|| = 1/radius (More
    and Sorensen 1983), which rises from 0 until lam stops rising; y is then
    rescaled onto the sphere."""
    lam = 0.0
    for _ in range(NEWTON_MAX_ITERS):
        chol = np.linalg.cholesky(h + lam * np.eye(len(b)))
        y = -np.linalg.solve(chol.T, np.linalg.solve(chol, b))
        norm = math.hypot(*y)
        step = (norm / math.hypot(*np.linalg.solve(chol, y))) ** 2 * (norm - radius) / radius
        if not lam + step > lam:
            break
        lam += step
    return y * (radius / norm)


def _hessian_lipschitz(dphi: np.ndarray, n: int) -> float:
    """M = (1/n) sum_i R_i^3, R_i the largest distance between two of sample
    i's feature rows: |third central moment| <= R^3 bounds each sample's
    Hessian change, so ||H(z) - H(z')|| <= M ||z - z'||.  Pad rows are zero,
    as the label row is, so they add no distance."""
    r = np.max(np.linalg.norm(dphi[:, :, None] - dphi[:, None], axis=3), axis=(1, 2))
    return float(np.sum(r**3)) / n


def train_wfin(split: CyclicSplit, s_fin: MatrixSubspace) -> Solution:
    """Finite component: minimize the log loss of the cyclic split over S_fin.

    Damped Newton (`_newton`) over the coordinates z of S_fin's orthonormal
    basis (W = sum_j z_j B_j), where the loss is strictly convex.  Every held
    sample sits in one feature stack padded to the longest (`_fin_features`),
    so each gradient, Hessian, trial step and the certificate's Hessian
    Lipschitz bound is one softmax, gemm or pairwise-distance pass over it,
    with no loop over position counts.  Cholesky
    steps, Armijo backtracking, and a stop when the Newton decrement
    lambda^2 / 2 reaches WFIN_DECREMENT_TOL or a full step no longer lowers
    lambda^2 (the rounding floor).  The result is CERTIFIED when
    8 M ||g|| <= mu^2, with M the Hessian's Lipschitz constant: then
    H >= mu/2 on the ball of radius bound = 4 ||g|| / mu around z, so W_fin
    lies in it; the bound must also be at most
    WFIN_REL_BOUND * max(1, ||W||).  Else it is UNCERTIFIED.  An
    empty split or S_fin gives W = 0, certified.  The residuals are the
    Newton ``iterations``, ``grad_norm`` = ||g|| and ``mu``, the smallest
    eigenvalue of H, both at the returned z, and ``bound`` (infinite when
    mu <= 0).
    """
    d = split.dataset.d
    if split.empty or s_fin.dim == 0:
        return Solution(frozen(np.zeros((d, d))), WfinStatus.CERTIFIED,
                        {"iterations": 0, "grad_norm": 0.0, "mu": np.inf, "bound": 0.0})
    dphi, offset, n = _fin_features(split, s_fin)
    z, g, h, iterations, _ = _newton(dphi, offset, n, np.zeros(s_fin.dim))
    grad_norm = float(np.linalg.norm(g))
    mu = float(np.linalg.eigvalsh(h)[0])
    bound = 4.0 * grad_norm / mu if mu > 0.0 else np.inf
    certified = (
        mu > 0.0
        and 8.0 * _hessian_lipschitz(dphi, n) * grad_norm <= mu * mu
        and bound <= WFIN_REL_BOUND * max(1.0, float(np.linalg.norm(z)))
    )
    return Solution(
        w=frozen(np.tensordot(z, s_fin.basis, axes=1)),
        status=WfinStatus.CERTIFIED if certified else WfinStatus.UNCERTIFIED,
        residuals={"iterations": iterations, "grad_norm": grad_norm, "mu": mu, "bound": bound},
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
    return float(total[0] / packed.n)


def loss_inf(split: CyclicSplit, w_fin: np.ndarray) -> float:
    """Infimum of the full log loss: saturated samples contribute
    -log 1 = 0 each, so only the cyclic split's loss at W_fin remains."""
    return loss_bar(w_fin, split)


def reg_path(dataset: Dataset, radii: Sequence[float], s_fin: MatrixSubspace,
             s_svm: MatrixSubspace) -> list[Solution]:
    """Minimizers of the log loss (head tied or absent: convex) over balls
    ||W|| <= r of increasing radii: Solutions, CERTIFIED at a relative
    Frank-Wolfe gap of at most BALL_REL_GAP, with ``radius``, Newton
    ``iterations`` and ``gap``.  Each feature row is a TPG edge generator,
    so each minimizer lies in S_active; `_newton` solves each ball over its
    basis S_fin then S_svm, from the last minimizer.  The gap certifies the
    loss: on a cyclic dataset the S_svm part stops growing once its loss
    share falls below BALL_REL_GAP."""
    if not radii:
        raise ValueError("radii must list at least one radius")
    bad = [float(r) for r in radii if not (np.isfinite(r) and r > 0)]
    if bad:
        raise ValueError(f"radii must be finite and > 0, got {bad[0]}")
    if list(radii) != sorted(radii):
        raise ValueError("radii must be increasing")
    if not (dataset.head is None or dataset.tied_head()):
        raise ValueError("reg_path needs a tied or absent head; under a general head the log loss is not convex")
    basis = np.concatenate([s_fin.basis, s_svm.basis])
    every = CyclicSplit(dataset, tuple(range(dataset.n)), tuple(tuple(range(s.T)) for s in dataset.samples))
    dphi, offset, n = _fin_features(every, MatrixSubspace(basis, dataset.d))
    z, points = np.zeros(len(basis)), []
    for radius in map(float, radii):
        # Start on the new sphere along the last minimizer when that lowers
        # the loss, as it does when the last one lies on its own sphere.
        norm = float(np.linalg.norm(z))
        if norm and _fin_change(dphi, offset, _fin_terms(dphi, offset, z, n)[2], z * (radius / norm - 1.0), n) < 0.0:
            z = z * (radius / norm)
        z, _, _, iterations, gap = _newton(dphi, offset, n, z, radius)
        points.append(Solution(frozen(np.tensordot(z, basis, axes=1)),
                               WfinStatus.CERTIFIED if gap <= BALL_REL_GAP else WfinStatus.UNCERTIFIED,
                               {"radius": radius, "iterations": iterations, "gap": gap}))
    return points
