"""Certificate tests: the checks that must read attnlab's internals.

Every other test module reaches the library through its public names and
the adapters of helpers.py (tests/test_imports.py holds that), so a change
of the kernel or the trainer that keeps their contracts rewrites none of
them.  The checks here cannot keep to the public seam, and each class says
why in its docstring: the ||W|| score certificate, the order in which
deferred failures land, the allocation bounds, the bits of a row sum,
`_StackRefs`, the feature-form rule, `_fin_features`, the NNLS passive
factor, the presolve and its closure count, and the trial blocks.  A
refactor of those internals may rewrite this module and no other.

A class without the Test prefix is collected in the module that binds it,
under the id the suite has always reported for it: test_attention.py
collects `RowSums` as `TestRowSums`, and its `TestTrainBlock` takes the
certificate tests of `TrainBlockCertificates` as a base class.  A new
certificate test is a Test class of its own here.
"""

import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest

from attnlab import attention as att
from attnlab import dataset as dsm
from attnlab import experiments
from attnlab import graph as gm
from attnlab import svm
from attnlab.errors import DomainError, NonFiniteLoss, NoConvergence
from attnlab.experiments import build_pipeline
from attnlab.util import seeded_rng

from helpers import (
    KINDS,
    assert_certified,
    assert_wfin_certified,
    block_trials,
    constraints_from_edges,
    dense_svm_oracle,
    DenseGramRows,
    dist_fin_oracle,
    draw_key,
    einsum_grad,
    einsum_loss,
    experiment_block,
    extended,
    gd_jobs,
    generator_rows,
    held_rows,
    last_tokens,
    log_or_local_block,
    load_tool,
    nnls_gram_oracle,
    projected_inequalities,
    random_tpg,
    refs_instance,
    shape_dataset,
    spelled,
    split_and_fin,
    split_log_grad,
    split_loss,
    straight_train_gd,
    sweep_rows,
    tiny_instance,
    trace_bytes,
    transitive_reduction_rows,
)

LONG_DOUBLE = pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                                 reason="the oracle needs an extended-precision long double")


# ---------------------------------------------------------------------------
# The kernel
# ---------------------------------------------------------------------------


def _random_blocks(rng, headed, draws=9):
    """Blocks of one to three datasets of a random (K, d, n, T), each
    sample cut to length T, T - 1 or T - 2 while it keeps a label
    occurrence, with each dataset's cyclic split.  Draws take turns: every
    length in the feature form, every one in the per-sample form, and T - 2
    in the feature form but T not.  The trials of a block share tokens and
    draw their own unit-sphere embeddings, and a random classifier head
    when headed."""
    wanted = (lambda d, T: att._features(T, d), lambda d, T: not att._features(T - 2, d),
              lambda d, T: att._features(T - 2, d) and not att._features(T, d))
    blocks = []
    for i in range(draws):
        while True:
            K, d, n, T = (int(rng.integers(lo, hi)) for lo, hi in ((4, 13), (2, 21), (3, 13), (3, 11)))
            if wanted[i % 3](d, T):
                break
        seed = int(rng.integers(2**31))
        ds = dsm.gen_dataset(dsm.make_embeddings(K, d, dsm.UNIT_SPHERE, seed=seed), None, n=n, T=T,
                             mode="cyclic", seed=seed)
        last_label = [max(t for t, tok in enumerate(s.tokens) if tok == s.label) for s in ds.samples]
        ds = last_tokens(ds, [max(T - i % 3, T - t) for i, t in enumerate(last_label)])
        datasets = []
        for b in range(int(rng.integers(1, 4))):
            table = dsm.make_embeddings(K, d, dsm.UNIT_SPHERE, seed=seed + b)
            head = dsm.ClassifierHead(c=rng.standard_normal((K, d)), kind=dsm.GENERAL_ARGMAX) if headed else None
            datasets.append(dataclasses.replace(ds, embedding=table, head=head))
        blocks.append((datasets, [split_and_fin(member)[0] for member in datasets]))
    return blocks


class KernelOracleCertificates:
    """The feature-form rule (`_features`) picks one of two contractions per
    length group, which no public entry point reports, so a draw cannot
    be held to both sides of it without reading the pack's groups."""

    @pytest.mark.parametrize("kind", [att.LOG, att.SQUARED, att.CROSS_ENTROPY])
    def test_random_blocks_on_both_sides_of_the_form_rule(self, kind):
        # Seeded draws of (K, d, n, T) whose samples are cut to lengths T,
        # T - 1 and T - 2, so a pack holds several length groups, some of
        # them on each side of the rule.  Each draw is a block of up to
        # three trials that share tokens but not embeddings, stepped and
        # scored at one broadcast w[None]; each trial is held to the
        # long-double oracles of its own pack.
        forms, mixed, held = set(), 0, 0
        for datasets, splits in _random_blocks(seeded_rng(23), kind == att.CROSS_ENTROPY):
            packed = att._pack(datasets, splits)
            features = {g.phi is not None for g in packed.groups}
            forms |= features
            mixed += len(features) == 2
            held += not splits[0].empty
            d = datasets[0].d
            w = 0.5 * seeded_rng(24 + d).standard_normal((d, d))
            w_ext = w.astype(np.longdouble)
            _, _, grad, errors = att._loss_and_grad(w[None], packed, kind, grad=True)
            total, bar, _, scored = att._loss_and_grad(w[None], packed, kind, grad=False)
            assert not errors and not scored
            for b, (ds, split) in enumerate(zip(datasets, splits)):
                own = extended([ds], [split])
                want = einsum_loss(w_ext, own, kind)
                assert abs(total[b] - want) <= 1e-15 * abs(want)
                want = 0.0 if split.empty else split_loss(w_ext, split, kind)
                assert abs(bar[b] - want) <= 1e-15 * want
                for reduced_log in (True, False) if kind == att.LOG else (True,):
                    want = einsum_grad(w_ext, own, kind, reduced_log)  # a mean; the kernel returns the sum
                    assert np.max(np.abs(grad[b] / packed.n - want)) <= 1e-15 * np.max(np.abs(want))
        assert forms == {True, False} and mixed and held

    # The rule's verdict at the (d, T) of the experiments and of the refs
    # benchmark corpus: a drift of CALL_MACS that moves one across shows here.
    @pytest.mark.parametrize("d,T,features", [
        pytest.param(8, 4, True, id="desk"), pytest.param(8, 6, True, id="local"),
        pytest.param(32, 64, False, id="large-K"), pytest.param(10, 8, False, id="refs-10"),
        pytest.param(20, 8, False, id="refs-20")])
    def test_the_form_rule_at_the_experiment_shapes(self, d, T, features):
        assert att._features(T, d) is features


class AnchoredSoftmaxCertificates:
    """Whether a trial's rows are anchored, and the softmax bytes the kernel
    leaves in its scratch, are the pack's own state: no public value tells
    an anchored row from a shifted one when both give the same loss."""

    def test_a_split_row_without_its_label_is_not_anchored(self):
        # Sample 0 is (3, 5, 5, 5) with label 5; a split holding only its
        # first position has no label score 0 to anchor that softmax, so
        # the trial takes the row-max shift and the guard.
        ds = shape_dataset("desk")
        assert ds.samples[0].tokens == (3, 5, 5, 5) and ds.samples[0].label == 5
        hand = gm.CyclicSplit(dataset=ds, idx_i=(0,), positions=((0,),))
        assert att._pack([ds]).groups[0].anchored.tolist() == [True]
        assert att._pack([ds], [hand]).groups[0].anchored.tolist() == [False]
        with pytest.raises(DomainError, match="underflow: min score 0.000e"):
            att.loss_bar(seeded_rng(20).standard_normal((ds.d, ds.d)), hand)

    @pytest.mark.parametrize("mode,shape", [pytest.param("acyclic", (8, 8, 4, 6), id="acyclic"),
                                            pytest.param("cyclic", (1000, 32, 16, 64), id="large-K")])
    def test_label_topped_rows_give_the_shifted_softmax_bytes(self, mode, shape):
        # After 300 normalized steps every row's max is its label's exact 0,
        # so the unshifted softmax is byte for byte the row-max-shifted one.
        K, d, n, T = shape
        table = dsm.make_embeddings(K, d, dsm.UNIT_SPHERE, seed=0)
        ds = dsm.gen_dataset(table, None, n=n, T=T, mode=mode, seed=0)
        w = att.train_gd(ds, att.TrainConfig(eta=0.01, iters=300, normalized=True, record_every=300)).w_final
        packed = att._pack([ds])
        (group,) = packed.groups
        h = att._scores(w[None], group).copy()
        assert np.all(np.max(h, axis=-1) == 0.0) and np.any(h < 0.0)
        att._loss_and_grad(w[None], packed, att.LOG, grad=True)
        assert group.scratch.h.tobytes() == att.softmax(h).tobytes()


U = float(np.finfo(np.float64).eps) / 2  # float64 unit roundoff
ULD = float(np.finfo(np.longdouble).eps) / 2
TINY = float(np.finfo(np.float64).smallest_subnormal)


def _rows(T, rng):
    """Score rows of length T: moderate ones, saturated ones whose first
    score tops the rest by 700 to 760 (their exp terms are subnormal or
    0), and, past T = 1, rows whose later half is -inf, as `_fin_terms`
    pads a short sample."""
    h = 3.0 * rng.standard_normal((40, T))
    saturated = h.copy()
    saturated[:, 0] += rng.uniform(700.0, 760.0, 40)
    rows = [h, saturated]
    if T > 1:
        padded = h.copy()
        padded[:, (T + 1) // 2:] = -np.inf
        rows.append(padded)
    return np.concatenate(rows)


@LONG_DOUBLE
class RowSums:
    """Every softmax sums its rows one way (`_sum_rows`): one BLAS dot
    product with a ones vector a row.  The row sums and the scratch they
    are written to are internal; the bound on them and the bits a stacked
    trial keeps are what every kernel value rests on.  Summing T
    nonnegative terms in any order is within (T - 1) u of their exact sum
    (Blanchard, Higham and Higham 2021), and the softmax's divide adds one
    rounding more."""

    @pytest.mark.parametrize("T", [1, 2, 4, 8, 64])
    def test_row_sums_and_softmax_against_long_double(self, T):
        h = _rows(T, seeded_rng(31, T))
        terms = np.exp(h - np.max(h, axis=-1, keepdims=True))  # the terms the softmax sums, in float64
        exact = np.sum(terms.astype(np.longdouble), axis=-1)
        got, edge = h.copy(), np.empty((len(h), 1))
        att._softmax_in_place(got, edge, np.ones(T))
        assert np.all(np.abs(edge[:, 0] - exact) <= (T - 1) * (U + ULD) * exact)
        want = terms.astype(np.longdouble) / exact[:, None]
        rel = T * U * (1.0 + T * U) + (T - 1) * ULD
        assert np.all(np.abs(got - want) <= rel * want + TINY)  # a subnormal quotient rounds absolutely
        assert att.softmax(h).tobytes() == got.tobytes()
        hl = h.astype(np.longdouble)  # the einsum oracles' precision: the same way, in long double
        terms = np.exp(hl - np.max(hl, axis=-1, keepdims=True))
        want = terms / np.sum(terms, axis=-1, keepdims=True)
        assert np.all(np.abs(att.softmax(hl) - want) <= 2 * T * ULD * want)

    @pytest.mark.parametrize("T", [4, 8, 64])
    def test_a_trials_rows_sum_as_alone(self, T):
        # The sums of 20 trials' rows, stacked, are each trial's own bits:
        # a dot product sums a row alone.  (A gemv over the stacked rows
        # fails this at T = 8 and 64 with OpenBLAS 0.3.31.)
        rng = seeded_rng(32, T)
        h = np.exp(rng.standard_normal((20, 6, T)) * 3)
        edge = np.empty((20, 6, 1))
        att._exp_normalized(np.log(h), edge, np.ones(T))
        for b in range(20):
            own, own_edge = np.log(h[b:b + 1]), np.empty((1, 6, 1))
            att._exp_normalized(own, own_edge, np.ones(T))
            assert own_edge.tobytes() == edge[b:b + 1].tobytes()


class StackRefs:
    """`_StackRefs` scores dist_fin for a padded stack of trials; training
    reads it only through trace columns, where a trial whose S_fin dims
    cross a pairwise sum's order change cannot be set up at will."""

    def test_dist_fin_is_each_trials_distance(self):
        # Seven trials at d = 4 with S_fin of dims 6, 0, 12, 1 and 3, one
        # without S_fin and one without W_fin, on 8 records.  One W_fin lies
        # off its S_fin, as a caller's TrainRefs may.  In one padded stack
        # every trial keeps the bits of its own `MatrixSubspace.distance`:
        # padded to 12, trials of dims 1 to 6 cross the lengths at which a
        # pairwise sum would change its order.  Each is also held to
        # `MatrixSubspace.project` and to a long-double oracle.
        d, n, rng = 4, 8, seeded_rng(33)
        refs = []
        for dim, has_fin in ((6, True), (0, True), (12, True), (1, True), (None, True), (3, False), (3, True)):
            if dim is None:
                refs.append(att.TrainRefs(w_fin=rng.standard_normal((d, d))))
                continue
            basis = np.linalg.qr(rng.standard_normal((d * d, d * d)))[0][:, :dim].T.reshape(dim, d, d)
            s_fin = svm.MatrixSubspace(basis, d)
            w_fin = np.tensordot(rng.standard_normal(dim), basis, axes=1) if dim else np.zeros((d, d))
            if len(refs) == 6:
                w_fin = w_fin + 0.5 * rng.standard_normal((d, d))
            refs.append(att.TrainRefs(s_fin=s_fin, w_fin=w_fin if has_fin else None))
        w = 2.0 * rng.standard_normal((n, len(refs), d, d))
        got = att._StackRefs(refs, d, n).dist_fin(w).copy()
        for b, r in enumerate(refs):
            for k in range(n):
                if r.s_fin is None or r.w_fin is None:
                    assert np.isnan(got[k, b])
                    continue
                assert got[k, b].tobytes() == np.float64(r.s_fin.distance(w[k, b], r.w_fin)).tobytes()
                for want in (np.linalg.norm(r.s_fin.project(w[k, b]) - r.w_fin),
                             dist_fin_oracle(w[k, b], r.s_fin, r.w_fin)):
                    assert abs(got[k, b] - want) <= 1e-12 * want


class Scratch:
    """The kernel hands back its pack's own gradient array; only a pack
    shows that the public `grad` copies it before the next call rewrites
    it."""

    def test_a_returned_gradient_outlives_the_next_call(self):
        ds = shape_dataset("desk")
        w = seeded_rng(17).standard_normal((ds.d, ds.d))
        first = att.grad(w, ds)
        kept = first.tobytes()
        assert att.grad(2.0 * w, ds).tobytes() != kept and first.tobytes() == kept
        packed = att._pack([ds])
        g1 = att._loss_and_grad(w[None], packed, att.LOG, grad=True)[2]
        g2 = att._loss_and_grad(2.0 * w[None], packed, att.LOG, grad=True)[2]
        assert g1 is g2 is packed.grad


class PackStructure:
    """`train_block` groups its datasets by `_structure` before it packs
    them, so a pack's refusal of two structures is out of public reach."""

    def test_datasets_of_two_length_profiles_are_refused(self):
        # One table, head and sample set, cut to two length profiles: only
        # the sample count at each length tells them apart.
        ds = shape_dataset("local")
        short, long = last_tokens(ds, (6, 6, 4, 4)), last_tokens(ds, (6, 6, 6, 4))
        assert att._structure(short)[:4] == att._structure(long)[:4] != att._structure(short)
        with pytest.raises(ValueError, match="sample count at each length"):
            att._pack([short, long])


# ---------------------------------------------------------------------------
# The trainer: deferred failures, through a faulty kernel
# ---------------------------------------------------------------------------


def _faulty_kernel(trial, loss_from=None, grad_from=None, error_at=None, error=None):
    """The kernel with faults in one trial, by step: its loss infinite at
    every record from step loss_from on, its gradient NaN from step
    grad_from on, and error among the errors of its record at step
    error_at.  A training step calls the kernel once for a step; a scoring
    scores n stored records of each trial, w (n, B, d, d), and each
    record's step is the step whose W it holds.  An all-zero
    slot that no step held, a filled one past the records, takes no fault;
    any other W that no step held is a KeyError."""
    kernel, steps = att._loss_and_grad, {}

    def patched(w, packed, kind, grad, bounded=False):
        value, bar, g, errors = kernel(w, packed, kind, grad, bounded)
        if grad:
            tau = steps.setdefault(w.tobytes(), len(steps))
            if grad_from is not None and tau >= grad_from:
                g[trial, 0, 0] = np.nan
        elif w.ndim == 4:
            value, errors = value.copy(), dict(errors)
            for k, w_k in enumerate(w):
                key = w_k.tobytes()
                tau = steps[key] if key in steps or w_k.any() else -1
                if loss_from is not None and tau >= loss_from:
                    value[k, trial] = np.inf
                if tau == error_at:
                    errors[k * w.shape[1] + trial] = error
        return value, bar, g, errors

    return patched


def _infinite_from_step_7(trial):
    """The kernel, with one trial's loss turned infinite at every record
    from step 7 on."""
    return _faulty_kernel(trial, loss_from=7)


def _kernel_calls(monkeypatch):
    """Every call of the kernel from now on, as (grad, a copy of w)."""
    calls, kernel = [], att._loss_and_grad

    def recorded(w, *args, **kwargs):
        calls.append((kwargs["grad"], w.copy()))
        return kernel(w, *args, **kwargs)

    monkeypatch.setattr(att, "_loss_and_grad", recorded)
    return calls


def _assert_steps_and_scorings(calls, iters, taus):
    """Each of the steps 0..iters called the kernel once for a step, and
    the scorings scored the W's of the record steps taus, in order, each
    record after its step.  Every scoring passes all
    min(RECORD_CHUNK, len(taus)) slots, and those past its records hold
    W = 0."""
    steps = [w for grad, w in calls if grad]
    assert len(steps) == iters + 1 and all(w.ndim == 3 for w in steps)
    scored, taken = [], 0
    for grad, w in calls:
        taken += grad
        if not grad:
            assert w.ndim == 4 and len(w) == min(att.RECORD_CHUNK, len(taus))
            n = min(len(w), len(taus) - len(scored))
            assert n > 0 and not w[n:].any()
            scored.extend(w[:n])
            assert all(tau < taken for tau in taus[:len(scored)])
    assert len(scored) == len(taus)
    assert all(got.tobytes() == steps[tau].tobytes() for got, tau in zip(scored, taus))


class TrainGdCertificates:
    """A non-finite loss is found when the stored records are scored, after
    the step that made it; only a kernel faulty at a chosen step can show
    where that failure lands."""

    def test_non_finite_loss_raises_at_its_record_step(self, monkeypatch):
        # The loss turns infinite at step 7, between the records at 5 and 10.
        monkeypatch.setattr(att, "_loss_and_grad", _infinite_from_step_7(trial=0))
        cfg = att.TrainConfig(eta=0.01, iters=20, normalized=True, record_every=5)
        with pytest.raises(NonFiniteLoss, match="loss became non-finite at iteration 10"):
            att.train_gd(shape_dataset("desk"), cfg)


class TestStepZero:
    """A run of no steps still takes step 0 through the kernel and scores
    it once, under every loss and whatever a trial's references hold; only
    the kernel's calls show that."""

    @pytest.mark.parametrize("kind", [att.LOG, att.SQUARED, att.CROSS_ENTROPY])
    def test_step_zero_is_taken_and_scored_once(self, kind, monkeypatch):
        # Trials whose splits hold some or none of their samples, and one
        # trial without references.
        datasets, refs = log_or_local_block(kind)
        datasets, refs = datasets + datasets[:1], refs + [None]
        assert any(0 < len(r.split.idx_i) < ds.n for ds, r in zip(datasets, refs) if r is not None)
        assert any(r.split.empty for r in refs if r is not None)
        cfg = att.TrainConfig(eta=0.01, iters=0, init="gauss", init_scale=0.7, init_seed=18, loss=kind)
        calls = _kernel_calls(monkeypatch)
        att.train_block(datasets, cfg, refs)
        _assert_steps_and_scorings(calls, 0, [0])


class TrainBlockCertificates:
    """The trainer defers the loss to chunked scorings of stored records and
    freezes a failed trial while the others go on.  Which failure stands,
    and which bits every other trial keeps, shows only under faults
    injected at chosen steps through the kernel, and only the kernel's
    calls show that a step reaches it once."""

    def test_each_step_calls_the_kernel_once(self, monkeypatch):
        # A step that bypassed the kernel would escape every fault injected
        # through it; the loss is asked for only when the stored records are
        # scored, and those calls hold the record steps' W's.
        datasets = [shape_dataset("desk", seed) for seed in range(3)]
        cfg = att.TrainConfig(eta=0.01, iters=25, normalized=True, record_every=10)
        calls = _kernel_calls(monkeypatch)
        att.train_block(datasets, cfg)
        _assert_steps_and_scorings(calls, 25, [0, 10, 20, 25])

    def test_failing_trial_raises_as_alone_and_leaves_the_rest(self, monkeypatch):
        datasets = [shape_dataset("desk", seed) for seed in range(4)]
        cfg = att.TrainConfig(eta=0.01, iters=20, normalized=True, record_every=5)
        clean = att.train_block(datasets, cfg)
        alone_kernel, block_kernel = _infinite_from_step_7(trial=0), _infinite_from_step_7(trial=2)
        monkeypatch.setattr(att, "_loss_and_grad", alone_kernel)
        with pytest.raises(NonFiniteLoss) as alone:
            att.train_gd(datasets[2], cfg)
        monkeypatch.setattr(att, "_loss_and_grad", block_kernel)
        block = att.train_block(datasets, cfg)
        assert type(block[2]) is NonFiniteLoss and str(block[2]) == str(alone.value)
        for b in (0, 1, 3):
            assert trace_bytes(block[b]) == trace_bytes(clean[b])

    def test_non_finite_gradients_fail_only_their_trials(self, monkeypatch):
        # Trial 1's gradient holds a NaN from step 7 on, and trial 3's an
        # inf from step 12 on: each alone must fail the GRAD_FLOOR test,
        # which reads the norms through argmin and argmax.
        datasets = [shape_dataset("desk", seed) for seed in range(5)]
        cfg = att.TrainConfig(eta=0.01, iters=20, normalized=True, record_every=5)
        clean = att.train_block(datasets, cfg)
        kernel, calls = att._loss_and_grad, []

        def broken(*args, **kwargs):
            value, bar, g, errors = kernel(*args, **kwargs)
            if g is None:  # a scoring of stored records
                return value, bar, g, errors
            calls.append(None)
            if len(calls) > 7:
                g[1, 0, 0] = np.nan
            if len(calls) > 12:
                g[3, 2, 1] = np.inf
            return value, bar, g, errors

        monkeypatch.setattr(att, "_loss_and_grad", broken)
        block = att.train_block(datasets, cfg)
        for b, tau in ((1, 7), (3, 12)):
            assert type(block[b]) is NonFiniteLoss
            assert str(block[b]) == f"gradient became non-finite at iteration {tau}"
        for b in (0, 2, 4):
            assert trace_bytes(block[b]) == trace_bytes(clean[b])

    def test_a_block_stops_once_every_trial_has_failed(self, monkeypatch):
        # Two tied trials whose one sample lacks its label, one structure:
        # both fail the underflow guard at step 0, so one step and one
        # scoring of its record are all the kernel calls 1,000 steps make,
        # and each trial returns what it returns alone.
        table = dsm.make_embeddings(4, 4, dsm.ORTHONORMAL, seed=0)
        head = dsm.make_head(table, dsm.TIED)
        bad = [dsm.Dataset(embedding=table, head=head, samples=(dsm.Sample(tokens=tokens, label=0),))
               for tokens in ((1, 2, 3), (3, 1, 2))]
        cfg = att.TrainConfig(eta=0.1, iters=1000, normalized=True)
        calls, kernel = [], att._loss_and_grad
        monkeypatch.setattr(att, "_loss_and_grad", lambda *args, **kw: calls.append(1) or kernel(*args, **kw))
        with pytest.raises(DomainError) as alone:
            att.train_gd(bad[0], cfg)
        assert len(calls) == 2
        block = att.train_block(bad, cfg)
        assert len(calls) == 4
        assert [type(b) for b in block] == [DomainError, DomainError]
        assert str(block[0]) == str(block[1]) == str(alone.value) == "log-loss argument underflow: min score 0.000e+00"

    def test_a_failed_last_trial_is_found_by_the_last_scoring(self, monkeypatch):
        # The loss turns infinite at step 7 and fails at the record step 10,
        # found only when the records are scored after the last step, so
        # the trial takes every step and the failure still stands at 10.
        monkeypatch.setattr(att, "_loss_and_grad", _infinite_from_step_7(trial=0))
        calls = _kernel_calls(monkeypatch)
        cfg = att.TrainConfig(eta=0.01, iters=20, normalized=True, record_every=5)
        with pytest.raises(NonFiniteLoss, match="loss became non-finite at iteration 10"):
            att.train_gd(shape_dataset("desk"), cfg)
        _assert_steps_and_scorings(calls, 20, [0, 5, 10, 15, 20])

    def test_a_trial_that_fails_mid_chunk_keeps_the_others_bits(self, monkeypatch):
        # Trial 1's gradient turns NaN at step 13, between the records at 12
        # and 14 of the first chunk: it fails in the loop there, and the
        # other trials keep the bits of their plain loops, in every chunk.
        datasets, refs = block_trials()[:2]
        cfg = att.TrainConfig(eta=0.05, iters=4 * att.RECORD_CHUNK + 1, normalized=True, record_every=2)
        monkeypatch.setattr(att, "_loss_and_grad", _faulty_kernel(1, grad_from=13))
        block = att.train_block(datasets, cfg, refs)
        monkeypatch.undo()
        assert type(block[1]) is NonFiniteLoss and str(block[1]) == "gradient became non-finite at iteration 13"
        for b in (0, 2, 3, 4, 5, 6):
            rows, w_final = straight_train_gd(datasets[b], cfg, refs[b])
            assert np.column_stack(block[b].columns()).astype(np.float64).tobytes() == rows.tobytes()
            assert block[b].w_final.tobytes() == w_final.tobytes()

    @pytest.mark.parametrize("case", ["normalized-failed", "local-squared", "plain-failed"])
    def test_frozen_and_floored_trials_train_as_alone(self, monkeypatch, case):
        # A trial that stops moving takes the common update as a zero step.
        # normalized-failed: the block trials, whose all-label trial 3 stays
        # under GRAD_FLOOR, with trial 1's loss infinite from step 7, found
        # when the first chunk is scored after step 14, so it is frozen from
        # there on.  plain-failed: plain GD with trial 1's gradient NaN from
        # step 13.  local-squared: its two seed-0 trials reach the floor at
        # different steps, so one moves while the other stays put.  Each
        # trace is that of its trial's plain loop, and the failed trial
        # raises what it raises alone under the same fault.
        faults = {}
        if case == "local-squared":
            datasets, cfg, refs = experiment_block("local-squared", 2, iters=1000)
        else:
            datasets, refs = block_trials()[:2]
            normalized = case == "normalized-failed"
            cfg = att.TrainConfig(eta=0.05 if normalized else 0.25, iters=4 * att.RECORD_CHUNK + 1,
                                  normalized=normalized, record_every=2)
            faults = {"loss_from": 7} if normalized else {"grad_from": 13}
            monkeypatch.setattr(att, "_loss_and_grad", _faulty_kernel(1, **faults))
        block = att.train_block(datasets, cfg, refs)
        monkeypatch.undo()
        if case == "local-squared":
            floored = [int(t.iters[np.argmax(t.grad_norm <= att.GRAD_FLOOR)]) for t in block]
            assert floored == [620, 640] and all(np.all(t.grad_norm[t.iters >= f] <= att.GRAD_FLOOR)
                                                 for t, f in zip(block, floored))
        else:
            assert np.all(block[3].grad_norm <= att.GRAD_FLOOR)
            monkeypatch.setattr(att, "_loss_and_grad", _faulty_kernel(0, **faults))
            with pytest.raises(NonFiniteLoss) as alone:
                att.train_gd(datasets[1], cfg, refs[1])
            monkeypatch.undo()
            assert type(block[1]) is NonFiniteLoss and str(block[1]) == str(alone.value)
        for b, trace in enumerate(block):
            if not (faults and b == 1):
                rows, w_final = straight_train_gd(datasets[b], cfg, refs[b])
                assert np.column_stack(trace.columns()).astype(np.float64).tobytes() == rows.tobytes()
                assert trace.w_final.tobytes() == w_final.tobytes()

    @pytest.mark.parametrize("case", ["clean", "failed-early", "all-failed"])
    def test_a_zero_filled_slot_reaches_no_trace_or_exception(self, monkeypatch, case):
        # Every scoring passes RECORD_CHUNK slots, and those past its records
        # hold W = 0.  A kernel that fails every all-zero record, with an
        # error and an infinite loss (a gauss start: no record's W is zero),
        # must leave every trace and failure as it is.  RECORD_CHUNK + 1
        # records, so the last scoring is short; in failed-early trial 1's
        # gradient turns NaN at step 5, before it, and all-failed trains
        # that trial alone, so the last scoring holds only the records
        # before its failure.
        datasets, refs = block_trials()[:2]
        trial = 1
        if case == "all-failed":
            datasets, refs, trial = datasets[1:2], refs[1:2], 0
        if case != "clean":
            monkeypatch.setattr(att, "_loss_and_grad", _faulty_kernel(trial, grad_from=5))
        cfg = att.TrainConfig(eta=0.05, iters=3 * att.RECORD_CHUNK, normalized=True, record_every=3, init="gauss",
                              init_scale=0.5, init_seed=2)
        want = att.train_block(datasets, cfg, refs)
        kernel, zero_slots = att._loss_and_grad, []

        def failing_zeros(w, packed, kind, grad, bounded=False):
            value, bar, g, errors = kernel(w, packed, kind, grad, bounded)
            if w.ndim == 4:
                zero = ~w.any(axis=(1, 2, 3))
                zero_slots.append(int(zero.sum()))
                value, errors = value.copy(), dict(errors)
                value[zero] = np.inf
                errors.update({k * w.shape[1] + b: DomainError("a zero slot") for k in np.flatnonzero(zero)
                               for b in range(w.shape[1])})
            return value, bar, g, errors

        monkeypatch.setattr(att, "_loss_and_grad", failing_zeros)
        got = att.train_block(datasets, cfg, refs)
        assert zero_slots[-1] == att.RECORD_CHUNK - (2 if case == "all-failed" else 1)
        for a, b in zip(got, want):
            assert type(a) is type(b)
            if isinstance(b, Exception):
                assert str(a) == str(b) == "gradient became non-finite at iteration 5"
            else:
                assert trace_bytes(a) == trace_bytes(b)
        assert case == "clean" or isinstance(got[trial], NonFiniteLoss)

    def test_a_loss_failure_found_at_a_full_chunk_stops_its_trial_there(self, monkeypatch):
        # Every step is a record, so the infinite loss from step 7 on is
        # found when the first chunk is scored, after step RECORD_CHUNK - 1,
        # and the trial fails at step 7 while the others keep their bits.
        datasets = [shape_dataset("desk", seed) for seed in range(3)]
        cfg = att.TrainConfig(eta=0.01, iters=3 * att.RECORD_CHUNK, normalized=True, record_every=1)
        clean = att.train_block(datasets, cfg)
        monkeypatch.setattr(att, "_loss_and_grad", _infinite_from_step_7(trial=1))
        calls = _kernel_calls(monkeypatch)
        block = att.train_block(datasets, cfg)
        _assert_steps_and_scorings(calls, cfg.iters, list(range(cfg.iters + 1)))
        monkeypatch.undo()
        assert type(block[1]) is NonFiniteLoss and str(block[1]) == "loss became non-finite at iteration 7"
        for b in (0, 2):
            assert trace_bytes(block[b]) == trace_bytes(clean[b])

    def test_a_loss_failure_precedes_a_later_gradient_failure(self, monkeypatch):
        # Trial 0's loss is infinite from the record at step 10 on, found
        # only when the first chunk is scored after step 35, and its
        # gradient turns NaN at step 20, which the loop sees first: the
        # earlier failure stands.
        cfg = att.TrainConfig(eta=0.01, iters=60, normalized=True, record_every=5)
        monkeypatch.setattr(att, "_loss_and_grad", _faulty_kernel(0, loss_from=10, grad_from=20))
        with pytest.raises(NonFiniteLoss, match="loss became non-finite at iteration 10"):
            att.train_gd(shape_dataset("desk"), cfg)

    @pytest.mark.parametrize("loss_bar_fails", [False, True])
    def test_failures_at_one_record_step_keep_their_order(self, monkeypatch, loss_bar_fails):
        # At the record step 10 the gradient turns NaN, in the loop, and the
        # loss turns infinite or loss_bar fails, in the last scoring.  As in
        # a step that computes them all, loss_bar's error precedes the
        # gradient's, which precedes the loss's.
        cfg = att.TrainConfig(eta=0.01, iters=20, normalized=True, record_every=5)
        error = DomainError("log-loss argument underflow: min score 0.000e+00") if loss_bar_fails else None
        faults = {"error_at": 10, "error": error} if loss_bar_fails else {"loss_from": 10}
        monkeypatch.setattr(att, "_loss_and_grad", _faulty_kernel(0, grad_from=10, **faults))
        with pytest.raises(DomainError if loss_bar_fails else NonFiniteLoss) as exc:
            att.train_gd(shape_dataset("desk"), cfg)
        if loss_bar_fails:
            assert exc.value is error
        else:
            assert str(exc.value) == "gradient became non-finite at iteration 10"


# ---------------------------------------------------------------------------
# The ||W|| score certificate and the allocation bounds
# ---------------------------------------------------------------------------


def _top_row_w(group):
    """The unit W along the group's largest score row, (d, d): its score
    there is lip ||W||, the certificate's bound, exactly in exact arithmetic."""
    d = group.xbar.shape[-1]
    if group.phi is not None:
        norms = np.sqrt(np.vecdot(group.phi, group.phi))
        b, r = np.unravel_index(np.argmax(norms), norms.shape)
        return group.phi[b, r].reshape(d, d) / norms[b, r]
    norms = np.linalg.norm(group.dx, axis=-1) * np.linalg.norm(group.xbar, axis=-1)[..., None]
    b, i, t = np.unravel_index(np.argmax(norms), norms.shape)
    return np.outer(group.dx[b, i, t], group.xbar[b, i]) / norms[b, i, t]


def _certified_and_not(monkeypatch, datasets, cfg, refs=None):
    """`train_block` as it runs, with each kernel call's certificate, then
    with the certificate disabled: an infinite Lipschitz constant."""
    flags, kernel, pack = [], att._loss_and_grad, att._pack
    with monkeypatch.context() as patch:
        patch.setattr(att, "_loss_and_grad", lambda *args, **kw: flags.append(kw["bounded"]) or kernel(*args, **kw))
        certified = att.train_block(datasets, cfg, refs)
        calls = len(flags)
        patch.setattr(att, "_pack", lambda *args, **kw: dataclasses.replace(pack(*args, **kw), lip=np.inf))
        uncertified = att.train_block(datasets, cfg, refs)
    assert not any(flags[calls:])
    for got, want in zip(certified, uncertified):
        assert type(got) is type(want)
        if isinstance(want, Exception):
            assert str(got) == str(want)
        else:
            assert trace_bytes(got) == trace_bytes(want)
    return flags[:calls]


def _mixed_anchoring(kind):
    """Two desk trials and a third whose first sample lacks its label, so
    its rows are not anchored; one structure, tied head.  A W of norm
    about 24 puts the unanchored trial's row maxima far enough from 0 that
    a missing shift shows in the bits."""
    ds = shape_dataset("desk")
    s0 = ds.samples[0]
    cut = dsm.Sample(tokens=tuple((t + 1) % ds.K if t == s0.label else t for t in s0.tokens), label=s0.label)
    datasets = [ds, shape_dataset("desk", 1), dataclasses.replace(ds, samples=(cut, *ds.samples[1:]))]
    assert att._pack(datasets).groups[0].anchored.tolist() == [True, True, False]
    return datasets, att.TrainConfig(eta=0.05, iters=200, normalized=True, init="gauss", init_scale=3.0, loss=kind,
                                     record_every=10), None


class ScoreCertificate:
    """The ||W|| certificate of `_train_stack` skips the kernel's reduction
    over the scores and a normalized step's infinity test; every bit of a
    run must be that of the same run with the certificate disabled, which
    takes a pack whose Lipschitz constant is set to infinity."""

    @pytest.mark.parametrize("case", ["desk", "large-K", "d<K", "rate-check", "mixed-log", "mixed-squared"])
    def test_disabling_the_certificate_changes_no_bit(self, monkeypatch, case):
        if case == "desk":
            datasets, cfg, refs = experiment_block("cyclic-global", 6)
            cfg = dataclasses.replace(cfg, iters=400)
        elif case == "large-K":
            datasets, cfg, refs = experiment_block("large-k", 1)
            cfg = dataclasses.replace(cfg, iters=200, record_every=50)
        elif case == "d<K":
            # feasibility at d = 3: the bound grows past its reach long
            # before the one record after step 0, and ||W||, measured again
            # there, keeps every step certified.
            datasets, cfg, _ = experiment_block("feasibility", 3, d=3, iters=8000)
            refs = None
        elif case == "rate-check":
            datasets, cfg, refs = experiment_block("rate-check", 3, iters=1500)
        else:
            datasets, cfg, refs = _mixed_anchoring(att.LOG if case == "mixed-log" else att.SQUARED)
        assert case != "d<K" or datasets[0].d < datasets[0].K
        flags = _certified_and_not(monkeypatch, datasets, cfg, refs)
        assert all(flags)

    def test_a_run_past_the_bound_is_certified_once_below_it(self, monkeypatch):
        # TestTrainBlock's past-the-bound regime: trial 2 of the block starts
        # with its top score at 1.02 SCORE_BOUND, along its largest row, and
        # the certificate holds once ||W|| has fallen; alone, and in a block.
        datasets, refs, _ = block_trials()
        group = att._pack([datasets[2]]).groups[0]
        w0 = _top_row_w(group) * (1.02 * att.SCORE_BOUND / att._lipschitz(group))
        assert np.max(att._scores(w0[None], group)) > att.SCORE_BOUND
        monkeypatch.setattr(att.TrainConfig, "initial_w", lambda self, d: w0.copy())
        cfg = att.TrainConfig(eta=0.5, iters=300, normalized=True, record_every=7)
        for members in ([2], [1, 2]):
            flags = _certified_and_not(monkeypatch, [datasets[b] for b in members], cfg, [refs[b] for b in members])
            assert not flags[0] and flags[-1]

    def test_a_certified_call_is_within_the_bound(self, monkeypatch):
        # Normalized GD from zero, recorded at steps 0 and 3 only: its first
        # step alone takes lip ||W|| past SCORE_BOUND, between two
        # measurements, so the bound must grow with the step.  Every kernel
        # call the loop certifies has lip ||W_b|| <= SCORE_BOUND.
        datasets = [shape_dataset("desk", seed) for seed in range(3)]
        lip = att._pack(datasets).lip
        certified, kernel = [], att._loss_and_grad

        def recorded(w, packed, *args, **kw):
            if kw["bounded"]:
                certified.append(packed.lip * float(np.max(att._norms(w))))
            return kernel(w, packed, *args, **kw)

        monkeypatch.setattr(att, "_loss_and_grad", recorded)
        cfg = att.TrainConfig(eta=400.0, iters=3, normalized=True, record_every=3, loss=att.SQUARED)
        assert lip * cfg.eta > att.SCORE_BOUND
        att.train_block(datasets, cfg)
        assert certified and max(certified) <= att.SCORE_BOUND

    @pytest.mark.parametrize("name", ["desk", "large-K", "local", "refs"])
    def test_a_certified_w_scores_at_most_the_bound(self, name):
        # W along the largest score row, where the bound is tight, and a
        # random W, scaled so that the certificate's bound sits at 0.999 and
        # 1.001 of SCORE_BOUND: certified below, not above, and certified
        # scores stay at most SCORE_BOUND.
        packed = att._pack([shape_dataset(name)])
        (group,) = packed.groups
        d = group.xbar.shape[-1]
        for tight, w in ((True, _top_row_w(group)), (False, seeded_rng(23).standard_normal((d, d)))):
            for factor in (0.999, 1.001):
                w_s = w * (factor * att.SCORE_BOUND / (packed.lip * np.linalg.norm(w)))
                bound = float(np.sqrt(np.vecdot(w_s.ravel(), w_s.ravel()))) * (1.0 + packed.slack)
                certified = packed.lip * bound <= att.SCORE_BOUND
                top = np.max(att._scores(w_s[None], group))
                assert certified == (factor < 1.0)
                assert not certified or top <= att.SCORE_BOUND
                assert not tight or top > 0.998 * att.SCORE_BOUND


class RecordAllocation:
    """Peak bytes of the kernel's steps and scorings against the scratch a
    pack owns: only the pack's arrays tell a copy from its own buffers.

    Peak bytes (tracemalloc, numpy 2.4.6) of a plain step on the 20 desk
    trials at seed 0 and the large-k trial, twice each the bound: the
    scores of every group, a kernel step, then the
    normalized update, g scaled by eta / ||g|| and subtracted from W.  The
    kernel's softmax divide and the update's product with the (B, 1, 1)
    scales each take an iterator buffer the size of their output, so a copy
    of W or of a reshaped score array shows in the scores' bound, and a
    copy of the desk block's features or gradient in the kernel's."""

    PLAIN_PEAKS = {"cyclic-global": (808, 5040, 11488), "large-k": (808, 9392, 1248)}

    @staticmethod
    def _block(name):
        datasets, _, refs = experiment_block(name, experiments.EXPERIMENTS[name].trials)
        d = datasets[0].d
        w = 0.3 * seeded_rng(21).standard_normal((len(datasets), d, d))
        return datasets, refs, att._pack(datasets, [r.split for r in refs]), w

    @staticmethod
    def _peaks(steps):
        peaks = []
        for step in steps:
            step()  # numpy's first call may allocate caches
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                step()
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        return peaks

    @staticmethod
    def _scratch_bytes(records):
        """The bytes of the arrays a scoring of records owns: the kernel
        scratch of its groups and split rows."""
        arrays = [a for g in records.groups for a in vars(g.scratch).values()]
        arrays += [getattr(g.split, f) for g in records.groups if g.split is not None
                   for f in ("ids", "hs", "ex", "edge", "u")]
        return sum(a.nbytes for a in arrays if isinstance(a, np.ndarray) and a.base is None)

    @pytest.mark.parametrize("name", ["cyclic-global", "large-k"])
    def test_a_scoring_copies_no_stack(self, name):
        # One scoring of RECORD_CHUNK stored records, its kernel scratch made
        # first, takes at most that scratch, the stored W's and the
        # iterator buffer of the softmax's broadcasting divide: a copy of
        # the pack's features or rows per record would pass it.  The
        # references and their dist_fin buffers are made once per training.
        # corr_svm's one stack-sized array is the product w * W_svm, with
        # the iterator buffer numpy gives a broadcasting multiply; its other
        # arrays are per record and trial, far below an eighth of the stack,
        # and a copy of the stack or a tiled W_svm on the desk block is not.
        datasets, refs, packed, w = self._block(name)
        n = att.RECORD_CHUNK
        stored = np.stack([w * (1.0 + 0.1 * k) for k in range(n)])
        stack_refs, made = att._StackRefs(refs, datasets[0].d, n), []

        def scoring():  # as in training, but corr_svm; the values are not read
            records = att._records_pack(packed, n)
            loss, bar, grad, errors = att._loss_and_grad(stored, records, att.LOG, grad=False)
            assert loss.shape == bar.shape == (n, len(datasets)) and grad is None and not errors
            stack_refs.dist_fin(stored)
            made[:] = [records]

        peak, corr, product = self._peaks((scoring, lambda: att.correlation(stored, stack_refs.w_svm),
                                           lambda: stored * stack_refs.w_svm))
        (records,) = made
        bound = self._scratch_bytes(records) + stored.nbytes + max(g.scratch.h.nbytes for g in records.groups)
        assert peak <= bound, (peak, bound)
        assert corr <= product + stored.nbytes // 8, (corr, product)

    @pytest.mark.parametrize("name", list(PLAIN_PEAKS))
    def test_a_plain_step_copies_nothing(self, name):
        datasets, _, packed, w = self._block(name)
        assert all((g.phi is not None) == (name == "cyclic-global") for g in packed.groups)
        g = att._loss_and_grad(w, packed, att.LOG, grad=True)[2]
        scale = (0.01 / np.linalg.norm(g, axis=(1, 2)))[:, None, None]  # eta / ||g||, as `_train_stack` scales
        peaks = self._peaks((lambda: [att._scores(w, group) for group in packed.groups],
                             lambda: att._loss_and_grad(w, packed, att.LOG, grad=True),
                             lambda: np.subtract(w, np.multiply(g, scale, out=g), out=w)))
        assert all(peak <= 2 * bound for peak, bound in zip(peaks, self.PLAIN_PEAKS[name])), peaks


# ---------------------------------------------------------------------------
# W_fin's Newton features and certificate
# ---------------------------------------------------------------------------


class TrainWfinCertificates:
    """W_fin's certificate rests on the Hessian's Lipschitz constant M of
    the feature stack (`_fin_features`, `_hessian_lipschitz`), neither of
    which `train_wfin` returns: the bound is checked on the stack itself,
    and the certificate's need of it by replacing M."""

    def test_hessian_lipschitz_bound_holds(self, cyclic_pipeline):
        # ||H(z) - H(z')||_2 <= M ||z - z'|| on random pairs, far and near.
        dphi, offset, n = att._fin_features(cyclic_pipeline.split, cyclic_pipeline.s_fin)
        lip = att._hessian_lipschitz(dphi, n)
        rng = seeded_rng(20)
        for scale in (3.0, 0.01):
            for _ in range(20):
                z1, z2 = rng.standard_normal((2, cyclic_pipeline.s_fin.dim))
                z2 = z1 + scale * z2
                h1, h2 = att._fin_terms(dphi, offset, z1, n)[1], att._fin_terms(dphi, offset, z2, n)[1]
                assert np.linalg.norm(h1 - h2, 2) <= lip * np.linalg.norm(z1 - z2)

    def test_certificate_needs_the_curvature_condition(self, monkeypatch):
        # M at which 8 M ||g|| is twice mu^2, then half of it.
        split, s_fin = split_and_fin(refs_instance(1))
        res = att.train_wfin(split, s_fin)
        grad_norm, mu = res.residuals["grad_norm"], res.residuals["mu"]
        assert grad_norm > 0.0
        assert_wfin_certified(res)
        for factor, status in ((4.0, att.WfinStatus.UNCERTIFIED), (16.0, att.WfinStatus.CERTIFIED)):
            lip = mu**2 / (factor * grad_norm)
            monkeypatch.setattr(att, "_hessian_lipschitz", lambda dphi, n: lip)
            assert att.train_wfin(split, s_fin).status is status


# (K, d, n, T, head) of the W_fin oracle draws: both refs shapes, the desk
# shape and a d < K shape, four seeds each, fixed before any was solved.
WFIN_SHAPES = {
    "refs-full": (20, 20, 60, 8, None),
    "refs-low": (20, 10, 40, 8, None),
    "desk": (6, 8, 6, 4, dsm.TIED),
    "d<K": (10, 4, 30, 6, None),
}
WFIN_DRAWS = [(name, seed) for name in WFIN_SHAPES for seed in range(4)]


@functools.lru_cache(maxsize=None)
def _wfin_draw(name, seed):
    K, d, n, T, head_kind = WFIN_SHAPES[name]
    table = dsm.make_embeddings(K, d, dsm.UNIT_SPHERE, seed=seed)
    head = None if head_kind is None else dsm.make_head(table, head_kind, noise=0.1, seed=seed, unit_rows=True)
    return experiments.Pipeline(dsm.gen_dataset(table, head, n=n, T=T, mode="cyclic", seed=seed))


def _oracle_features(pipe):
    """(x_t - e_y)^T B_j xbar in long double over each held sample's
    label-SCC positions (padded to the longest), with the mask of real rows."""
    x, real, _, ey, xbar, _ = held_rows(pipe.split, np.longdouble)
    basis = pipe.s_fin.basis.astype(np.longdouble)
    return np.einsum("gtd,jde,ge->gtj", x - ey[:, None, :], basis, xbar), real


@pytest.mark.parametrize("name,seed", WFIN_DRAWS)
class WfinOracles:
    """W_fin's certificate and its padded Newton features against
    per-sample oracles, beyond the selftest's draws: the features, their pad
    rows and the certificate's terms are internal to `train_wfin`."""

    def test_certificate_rederived_sample_by_sample(self, name, seed):
        pipe = _wfin_draw(name, seed)
        assert_wfin_certified(pipe.fin_result)
        if pipe.split.empty:
            np.testing.assert_array_equal(pipe.w_fin, 0.0)
            return
        gn, mu, lip = experiments._wfin_certificate_terms(pipe)
        assert 8.0 * lip * gn <= mu * mu
        assert 4.0 * gn / mu <= att.WFIN_REL_BOUND * max(1.0, np.linalg.norm(pipe.w_fin))
        # Pad rows add no distance: the stack's M is the per-sample one.
        dphi, _, n = att._fin_features(pipe.split, pipe.s_fin)
        assert att._hessian_lipschitz(dphi, n) == pytest.approx(lip, rel=1e-12)

    def test_stack_rows_are_the_label_relative_features(self, name, seed):
        pipe = _wfin_draw(name, seed)
        if pipe.split.empty:
            pytest.skip("empty split: no feature stack; its W_fin = 0 is checked with the certificate")
        dphi, offset, n = att._fin_features(pipe.split, pipe.s_fin)
        oracle, real = _oracle_features(pipe)
        assert n == pipe.dataset.n and dphi.shape == oracle.shape
        np.testing.assert_allclose(dphi[real], oracle[real].astype(float), rtol=0, atol=1e-14)
        np.testing.assert_array_equal(dphi[~real], 0.0)
        np.testing.assert_array_equal(offset, np.where(real, 0.0, -np.inf))

    def test_pad_rows_carry_no_softmax_mass(self, name, seed):
        pipe = _wfin_draw(name, seed)
        if pipe.split.empty:
            pytest.skip("empty split: no feature stack; its W_fin = 0 is checked with the certificate")
        dphi, offset, n = att._fin_features(pipe.split, pipe.s_fin)
        real = held_rows(pipe.split)[1]
        rng = seeded_rng(seed, 31)
        for scale in (1.0, 30.0):
            z = scale * rng.standard_normal(pipe.s_fin.dim)
            g, _, s = att._fin_terms(dphi, offset, z, n)
            np.testing.assert_array_equal(s[~real], 0.0)
            np.testing.assert_allclose(np.sum(s, axis=1), 1.0, rtol=1e-14)
            # The gradient over real rows alone, in S_fin coordinates.
            w = np.tensordot(z, pipe.s_fin.basis, axes=1)
            oracle = pipe.s_fin.basis.reshape(len(z), -1) @ split_log_grad(w, pipe.split).ravel()
            np.testing.assert_allclose(g, oracle, rtol=1e-10, atol=1e-15)


# ---------------------------------------------------------------------------
# The trial blocks
# ---------------------------------------------------------------------------


class SweepFanOut:
    """How many jobs reach one `_trial_worker` call and one `train_block`
    call is the block plan, which no result shows: both are replaced by
    counting ones."""

    def test_feasibility_trains_in_one_block(self, monkeypatch):
        # All 3 x 3 (grid point, trial) jobs reach one _trial_worker call and
        # one train_block call, whatever their d.
        blocks, calls = [], []
        train_block, worker = att.train_block, experiments._trial_worker

        def counting_block(datasets, *args, **kwargs):
            blocks.append(sorted(ds.d for ds in datasets))
            return train_block(datasets, *args, **kwargs)

        monkeypatch.setattr(att, "train_block", counting_block)
        monkeypatch.setattr(experiments, "_trial_worker", lambda *args: calls.append(args) or worker(*args))
        sweep_rows("feasibility", seed=0, trials=3, K=4, T=3, n=3, iters=50, d_grid=[2, 3, 4])
        assert blocks == [[2, 2, 2, 3, 3, 3, 4, 4, 4]]
        assert [(kind, len(jobs)) for kind, jobs in calls] == [("feasibility", 9)]


class GlobalBlocks:
    """A trial that fails in training while an earlier one fails to build:
    the training failure is injected through the kernel, at the record
    scoring that finds it."""

    def test_first_error_in_trial_order_is_raised(self, monkeypatch):
        # Trial 3's pipeline fails to build and trial 1's loss is infinite
        # from the start; run one by one, trial 1 would raise first.
        jobs = gd_jobs("global")
        build, kernel = experiments.build_pipeline, att._loss_and_grad

        def failing_build(ds):
            if ds.seed == jobs[3][1]:
                raise NoConvergence("trial 3 has no pipeline")
            return build(ds)

        def infinite_trial_1(w, packed, kind, grad, bounded=False):
            value, bar, g, errors = kernel(w, packed, kind, grad, bounded)
            if not grad and w.ndim == 4:  # a scoring of training's records, (record, trial)
                value = value.copy()
                value[:, 1] = np.inf
            return value, bar, g, errors

        monkeypatch.setattr(experiments, "build_pipeline", failing_build)
        with pytest.raises(NoConvergence, match="trial 3"):
            experiments.run_trials("global", jobs[2:])
        monkeypatch.setattr(att, "_loss_and_grad", infinite_trial_1)
        with pytest.raises(NonFiniteLoss, match="loss became non-finite at iteration 0"):
            experiments.run_trials("global", jobs)


class GdBlocksCertificates:
    """A failure in a trial's finish is injected by replacing that finish in
    `_KINDS`, the registry `_trial_worker` reads."""

    @pytest.mark.parametrize("kind", ["global", "local", "feasibility"])
    @pytest.mark.parametrize("failure", ["training", "finish"])
    def test_first_error_in_trial_order_is_raised(self, monkeypatch, kind, failure):
        # Trial 3's dataset fails to build and trial 1 fails in training or
        # in its finish; run one by one, trial 1 would raise first.
        jobs = gd_jobs(kind)
        bad_build, bad_trial = draw_key(jobs[3]), draw_key(jobs[1])
        gen, train_block = experiments.gen_dataset, att.train_block
        finish = experiments._KINDS[kind].finish

        def failing_gen(table, *args, seed, **kwargs):
            if (table.d, seed) == bad_build:
                raise NoConvergence("trial 3 has no dataset")
            return gen(table, *args, seed=seed, **kwargs)

        def failing_training(datasets, *args, **kwargs):
            out = train_block(datasets, *args, **kwargs)
            return [NonFiniteLoss("trial 1 diverged") if (ds.d, ds.seed) == bad_trial else r
                    for ds, r in zip(datasets, out)]

        def failing_finish(built, trace):
            if (built[0].d, built[0].seed) == bad_trial:
                raise NoConvergence("trial 1 did not finish")
            return finish(built, trace)

        monkeypatch.setattr(experiments, "gen_dataset", failing_gen)
        if failure == "training":
            monkeypatch.setattr(att, "train_block", failing_training)
        else:
            monkeypatch.setitem(experiments._KINDS, kind, experiments._KINDS[kind]._replace(finish=failing_finish))
        with pytest.raises(NoConvergence, match="trial 3"):
            experiments.run_trials(kind, jobs[2:])
        with pytest.raises((NoConvergence, NonFiniteLoss), match="trial 1"):
            experiments.run_trials(kind, jobs)


class BlockPlan:
    """The block `run_trials` hands to `_trial_worker` is read off a
    recording worker, as the benchmark's tracer reads it."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_jobs_reach_the_worker_in_planned_blocks(self, monkeypatch, kind):
        # Every job, in job order, reaches one _trial_worker call, whose
        # results come back unchanged.
        jobs, plans, worker = gd_jobs(kind), [], experiments._trial_worker

        def recording(*args):
            results = worker(*args)
            plans.append((args, results))
            return results

        monkeypatch.setattr(experiments, "_trial_worker", recording)
        results = experiments.run_trials(kind, jobs)
        assert [args for args, _ in plans] == [(kind, jobs)]
        assert spelled(results) == spelled(plans[0][1])


# ---------------------------------------------------------------------------
# The graph SVM: NNLS factor, Gram rows and presolve
# ---------------------------------------------------------------------------

verdicts = load_tool("verdicts")
_pinned = verdicts.constraints
_UNREDUCED_CASES = verdicts.instances(smoke=True)


def _kept(cons):
    return svm._essential(cons)


def _dense(source, order=None):
    """The Gram matrix of a row source, its rows written in the given order."""
    gram = np.empty((source.m, source.m))
    for j in range(source.m) if order is None else order:
        source.write(int(j), gram[j])
    return gram


class NnlsCertificates:
    """The orthogonal-factor NNLS against the per-step LU Lawson-Hanson of
    `helpers.nnls_gram_oracle`: the same verdict, the same nearest point
    p = A~^T u / sum(u), and a returned u that is the LU solve of its own
    passive set.  The NNLS and its passive factor take a Gram row source,
    which only `_nnls_gram` and `_PassiveFactor` accept, and the factor's
    state after each update is its own."""

    @staticmethod
    def _assert_matches_oracle(a):
        gram = a @ a.T
        gram += 1.0
        u, _, converged = svm._nnls_gram(DenseGramRows(gram))
        want_u, _, want_converged = nnls_gram_oracle(gram)
        assert converged == want_converged
        p, want = a.T @ (u / u.sum()), a.T @ (want_u / want_u.sum())
        if np.linalg.norm(want) <= svm.FARKAS_TOL:
            assert np.linalg.norm(p) <= svm.FARKAS_TOL
        else:
            assert np.linalg.norm(p - want) <= 1e-12 * np.linalg.norm(want)
        if converged:
            idx = np.flatnonzero(u)
            assert np.all(u[idx] > 0)
            assert u[idx].tobytes() == np.linalg.solve(gram[np.ix_(idx, idx)], np.ones(len(idx))).tobytes()

    @staticmethod
    def _assert_tracks_a_fresh_factor(factor, gram):
        # M gram[P, P] M^T = I, and z, dinv and the dual gradient against a
        # fresh LU solve and inverse of the same passive block.
        idx, p = factor.idx, factor.p
        block = gram[np.ix_(idx, idx)]
        mat = factor.mat[:p, :p]
        assert np.linalg.norm(mat @ block @ mat.T - np.eye(p)) <= 1e-10
        z = np.linalg.solve(block, np.ones(p))
        np.testing.assert_allclose(factor.z(), z, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(factor.dinv[:p], np.linalg.inv(block).diagonal(), rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(factor.grad(), 1.0 - z @ gram[idx], rtol=0.0, atol=1e-9)

    def test_updates_track_a_fresh_factor(self):
        # Appending, reflecting out and buffer growth.
        rng = seeded_rng(44)
        a = rng.standard_normal((100, 90)) + 0.3
        gram = a @ a.T + 1.0
        factor = svm._PassiveFactor(DenseGramRows(gram))
        order = [int(j) for j in rng.permutation(100)]
        for j in order[:70]:
            factor.add(j, *factor.schur(j))
        for pos in (5, 0, 67, 31):  # 67 is the last position by then
            factor.drop(pos)
        for j in order[70:75]:
            factor.add(j, *factor.schur(j))
        assert factor.p == 71 and len(factor.order) >= 71
        self._assert_tracks_a_fresh_factor(factor, gram)

    def test_many_updates_track_a_fresh_factor_on_a_rank_deficient_gram(self):
        # 600 seeded adds and drops, no refactor, on a Gram of rank 25 with
        # repeated rows: an index whose Schur complement fails the solver's
        # ILL_CONDITIONED test is not added, as in the solve.  Drops cycle
        # through the first, a middle and the last position.
        rng = seeded_rng(46)
        a = rng.standard_normal((80, 24)) + 0.5
        gram = np.vstack([a, a[:40]]) @ np.vstack([a, a[:40]]).T + 1.0
        factor = svm._PassiveFactor(DenseGramRows(gram))
        adds = drops = skipped = 0
        for step in range(600):
            p = factor.p
            if p < 6 or (p < 24 and rng.random() < 0.55):
                j = int(rng.choice(np.setdiff1d(np.arange(len(gram)), factor.idx)))
                w, s, zb = factor.schur(j)
                if s * svm.ILL_CONDITIONED >= factor.diag[j]:
                    factor.add(j, w, s, zb)
                    adds += 1
                else:
                    skipped += 1
            else:
                factor.drop((0, p // 2, p - 1)[drops % 3])
                drops += 1
            if step % 50 == 49:
                self._assert_tracks_a_fresh_factor(factor, gram)
        assert adds + drops >= 500 and drops >= 200 and skipped >= 10

    def test_random_grams_including_rank_deficient(self):
        rng = seeded_rng(43)
        deficient = 0
        for trial in range(80):
            dim = int(rng.integers(2, 10))
            a = rng.standard_normal((int(rng.integers(2, 4 * dim)), dim)) + rng.choice([0.0, 0.5, 1.5])
            if trial % 4 == 0:
                a = np.vstack([a, a[: len(a) // 2]])  # repeated rows
            deficient += len(a) > dim + 1
            self._assert_matches_oracle(a)
        assert deficient >= 40

    def test_refs_shapes(self):
        for i in range(8):
            self._assert_matches_oracle(projected_inequalities(_pinned(*verdicts.refs_shape(i))))

    def test_near_degenerate_infeasible_instance_keeps_its_certificate(self):
        # (K, d, n, T) = (10, 4, 19, 5), seed 1251: the passive sets grow
        # nearly dependent on the way to a Farkas certificate.
        # Rounding carried over from those sets must not cost extra solves.
        cons = _pinned(10, 4, 19, 5, seed=1251)
        sol = svm.solve_graph_svm(cons)
        assert sol.status is svm.SolveStatus.INFEASIBLE
        assert sol.residuals["farkas_residual"] <= svm.FARKAS_TOL
        assert sol.residuals["converged"] is True
        assert_certified(cons, sol)
        gram = _dense(svm._GramRows(cons.inequalities[_kept(cons)], cons.embedding.e, cons.eq_basis))
        assert sol.residuals["sweeps"] <= nnls_gram_oracle(gram)[1]


class Presolve:
    """The rows the NNLS sees against `helpers.transitive_reduction_rows`,
    and the verdicts on them against the unreduced dense solve of
    `helpers.dense_svm_oracle`.  The solve reports only how many rows the
    presolve keeps; which ones, its peak memory and the closures it reads
    are read off `_essential` and `graph._closure`."""

    def test_kept_rows_are_the_transitive_reduction(self):
        rng = seeded_rng(45)
        table = dsm.make_embeddings(14, 4, dsm.UNIT_SPHERE, seed=0)
        reduced = tied = 0
        for _ in range(40):
            last = rng.choice(14, size=int(rng.integers(1, 4)), replace=False)
            tpgs = {int(k): random_tpg(rng, int(rng.integers(2, 14)), float(rng.uniform(0.05, 0.4)), int(k))
                    for k in last}
            cons = svm.build_constraints(tpgs, gm.decompose_all(tpgs), table)
            if not len(cons.inequalities):
                continue
            want = transitive_reduction_rows(cons.equalities, cons.inequalities)
            assert _kept(cons).tolist() == want
            assert svm.solve_graph_svm(cons).residuals["essential"] == len(want)
            reduced += len(want) < len(cons.inequalities)
            tied += len(cons.equalities) > 0 and len(want) < len(cons.inequalities)
        assert reduced >= 20 and tied >= 10

    @pytest.mark.parametrize("shape", list(_UNREDUCED_CASES.values()), ids=list(_UNREDUCED_CASES))
    def test_kept_rows_are_the_transitive_reduction_at_scale(self, shape):
        cons = _pinned(*shape)
        want = transitive_reduction_rows(cons.equalities, cons.inequalities)
        assert _kept(cons).tolist() == want

    def test_build_pipeline_closes_each_graph_once(self, monkeypatch):
        # The presolve and the feasibility certificate read the closures
        # that decompose_all computed; neither closes a relation again.
        calls = []
        closure = gm._closure

        def counted(adj):
            calls.append(adj.shape)
            return closure(adj)

        # Also under the name a module importing the kernel would call.
        monkeypatch.setattr(gm, "_closure", counted)
        monkeypatch.setattr(svm, "_closure", counted, raising=False)
        pipe = build_pipeline(tiny_instance(44, K=5, d=6, n=6, T=4))
        assert len(pipe.constraints.inequalities) and pipe.solution.residuals["essential"]
        assert pipe.feasibility.status is svm.SolveStatus.SOLVED
        assert len(calls) == 1 and calls[0][0] == len(pipe.tpgs)

    @pytest.mark.parametrize("shape", list(_UNREDUCED_CASES.values()), ids=list(_UNREDUCED_CASES))
    def test_verdicts_match_the_unreduced_solve(self, shape):
        cons = _pinned(*shape)
        sol = svm.solve_graph_svm(cons)
        status, w, _ = dense_svm_oracle(cons.equalities, cons.inequalities, cons.embedding.e,
                                        svm.PRIMAL_TOL, svm.FARKAS_TOL, svm.KKT_TOL)
        assert sol.status.value == status
        kept = _kept(cons)
        dropped = np.setdiff1d(np.arange(len(cons.inequalities)), kept)
        assert sol.residuals["essential"] == len(kept)
        assert len(sol.ineq_multipliers) == len(cons.inequalities)
        assert not sol.ineq_multipliers[dropped].any()
        if sol.status is svm.SolveStatus.SOLVED:
            assert np.linalg.norm(sol.w - w) <= 1e-9 * np.linalg.norm(w)
            rows = generator_rows(cons.inequalities[dropped], cons.embedding.e)
            assert np.min(rows @ sol.w.ravel(), initial=np.inf) >= 1.0 - svm.PRIMAL_TOL
        if sol.status is not svm.SolveStatus.MAX_ITER:
            assert_certified(cons, sol)

    # The presolve's traced peak (tracemalloc, numpy 2.4.6) at the large-k
    # defaults: seed 0 holds 16 graphs of 59-64 nodes, and seed 28 holds 14
    # of 60-64 nodes beside one of 121.  Padded to that one for a single
    # product, the 15 graphs peaked at 3.08 MB.  The bound is twice each.
    PEAKS = {0: 854_460, 28: 1_234_089}

    @pytest.mark.parametrize("seed", list(PEAKS))
    def test_a_large_graph_pads_no_other(self, seed):
        cons = _pinned(1000, 32, 16, 64, seed)
        assert cons.closures.shape == ((15, 121, 121) if seed == 28 else (16, 64, 64))
        assert len(cons.inequalities)  # read off the closures outside the trace
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            kept = svm._essential(cons)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2 * self.PEAKS[seed], peak
        assert kept.tolist() == transitive_reduction_rows(cons.equalities, cons.inequalities)

    def test_checks_read_every_row(self, monkeypatch):
        # A presolve that dropped a row no other implies would not go
        # unseen: the margin check runs over every inequality.
        table = dsm.make_embeddings(5, 5, dsm.ORTHONORMAL, seed=7)
        cons = constraints_from_edges(table, {4: [(0, 1), (2, 3)]})
        assert cons.inequalities.tolist() == [[0, 1, 4], [2, 3, 4]]
        monkeypatch.setattr(svm, "_essential", lambda constraints: np.arange(1))
        sol = svm.solve_graph_svm(cons)
        assert sol.status is svm.SolveStatus.MAX_ITER
        assert sol.residuals["min_ineq_margin"] <= 1e-12


class GramCertificates:
    """The NNLS Gram rows from the generators' factors against the dense
    d^2-wide rows of `helpers.projected_inequalities`: the row source
    (`_GramRows`) never leaves the solve."""

    @staticmethod
    def _assert_matches_dense(cons, rows):
        source = svm._GramRows(cons.inequalities[rows], cons.embedding.e, cons.eq_basis)
        a = projected_inequalities(cons)[rows]
        want = a @ a.T + 1.0
        # Rows in any order: each is formed on its own, as indices enter.
        gram = _dense(source, seeded_rng(0).permutation(len(rows)))
        assert np.abs(gram - want).max() <= 1e-13 * want.diagonal().max()
        assert np.abs(source.diag - want.diagonal()).max() <= 1e-13 * want.diagonal().max()

    @pytest.mark.parametrize("shape", list(_UNREDUCED_CASES.values()), ids=list(_UNREDUCED_CASES))
    def test_matches_the_dense_gram(self, shape):
        cons = _pinned(*shape)
        self._assert_matches_dense(cons, _kept(cons))

    def test_rows_out_of_last_token_order_with_equalities(self):
        # Rows taken with last tokens 4 and 5 alternating, so every row is
        # its own run; the SCCs {0, 2} of token 4 and {1, 3} of token 5 put
        # a coordinate on each token's rows.
        table = dsm.make_embeddings(6, 4, dsm.UNIT_SPHERE, seed=9)
        cons = constraints_from_edges(table, {
            4: [(0, 2), (2, 0), (2, 1), (1, 3)],
            5: [(1, 3), (3, 1), (3, 0), (0, 2)],
        })
        assert cons.equalities.tolist() == [[0, 2, 4], [1, 3, 5]]
        assert cons.inequalities[:, 2].tolist() == [4] * 5 + [5] * 5
        assert len(cons.eq_basis) == 2
        self._assert_matches_dense(cons, np.array([0, 5, 1, 6, 2, 7, 3, 8, 4, 9]))
        self._assert_matches_dense(cons, np.array([9, 1, 0, 5]))
