"""Forward pass, losses, gradients, the log-loss smoothness bound, and trainers."""

import dataclasses
import functools
import tracemalloc
import warnings

import numpy as np
import pytest

from attnlab import attention as att
from attnlab import dataset as dsm
from attnlab import experiments
from attnlab import graph as gm
from attnlab import svm
from attnlab.errors import DomainError, NoConvergence, NonFiniteLoss
from attnlab.experiments import build_pipeline, single_scc_dataset, trial_seed
from attnlab.util import seeded_rng

from helpers import (
    ball_oracle,
    corr_oracle,
    dist_fin_oracle,
    einsum_grad,
    einsum_loss,
    extended,
    fd_grad,
    gd_oracle,
    grad_general,
    held_rows,
    loss,
    split_log_grad,
    split_loss,
    straight_line_loss,
    straight_train_gd,
    tiny_instance,
    wfin_gd_oracle,
    wfin_projected_grad,
)

# (K, d, n, T, head) of the cyclic-global defaults, large-k, a local-* general
# head and the smaller refs corpus instance.
SHAPES = {
    "desk": (6, 8, 6, 4, dsm.TIED),
    "large-K": (1000, 32, 16, 64, None),
    "local": (8, 8, 4, 6, dsm.GENERAL_ARGMAX),
    "refs": (20, 10, 40, 8, None),
}


def _shape_dataset(name, seed=0):
    K, d, n, T, head_kind = SHAPES[name]
    table = dsm.make_embeddings(K, d, dsm.UNIT_SPHERE, seed=seed)
    head = None if head_kind is None else dsm.make_head(table, head_kind, noise=0.1, seed=seed,
                                                        unit_rows=True)
    return dsm.gen_dataset(table, head, n=n, T=T, mode="cyclic", seed=seed)


class TestForward:
    def test_zero_weights_uniform(self):
        ds = tiny_instance(0, T=4)
        x = ds.embedding.e[list(ds.samples[0].tokens)]
        probs, out = att.forward(x, np.zeros((ds.d, ds.d)), x[-1])
        np.testing.assert_allclose(probs, 0.25, atol=1e-12)
        np.testing.assert_allclose(out, x.mean(axis=0), atol=1e-12)

    def test_probs_sum_to_one(self):
        rng = seeded_rng(1)
        ds = tiny_instance(1, T=5)
        for s in ds.samples:
            x = ds.embedding.e[list(s.tokens)]
            probs, _ = att.forward(x, rng.standard_normal((ds.d, ds.d)), x[-1])
            assert abs(probs.sum() - 1.0) <= 1e-12

    def test_shift_invariance(self):
        # W -> W + v xbar^T with X v constant leaves the softmax unchanged.
        rng = seeded_rng(2)
        ds = tiny_instance(2, K=4, d=6, T=4)
        s = ds.samples[0]
        x = ds.embedding.e[list(s.tokens)]
        xbar = x[-1]
        w = rng.standard_normal((6, 6))
        v, *_ = np.linalg.lstsq(x, np.ones(s.T), rcond=None)
        assert np.allclose(x @ v, 1.0, atol=1e-9)
        shifted = w + 3.7 * np.outer(v, xbar)
        p0, _ = att.forward(x, w, xbar)
        p1, _ = att.forward(x, shifted, xbar)
        np.testing.assert_allclose(p0, p1, atol=1e-9)

    def test_saturation_concentrates_on_max(self):
        ds = tiny_instance(3, K=5, d=5, T=4)
        s = ds.samples[0]
        x = ds.embedding.e[list(s.tokens)]
        xbar = x[-1]
        rng = seeded_rng(3)
        w = rng.standard_normal((5, 5))
        logits = x @ w @ xbar
        # Break near-ties before scaling so the argmax is well separated.
        if np.sort(logits)[-1] - np.sort(logits)[-2] < 0.1:
            w += 0.5 * np.outer(x[0] - x[1], xbar)
            logits = x @ w @ xbar
        probs, _ = att.forward(x, 1e3 * w, xbar)
        hot = np.argmax(logits)
        # Closed-form softmax on the scaled logits as the oracle.
        ex = np.exp(1e3 * (logits - logits.max()))
        np.testing.assert_allclose(probs, ex / ex.sum(), atol=1e-12)
        assert probs[hot] >= 1.0 - 1e-6


class TestLoss:
    def test_uniform_single_label_occurrence(self):
        # |O| = 1 among T = 4 tokens at W = 0: loss = log 4.
        table = dsm.make_embeddings(4, 4, dsm.ORTHONORMAL, seed=0)
        head = dsm.make_head(table, dsm.TIED)
        ds = dsm.Dataset(embedding=table, head=head,
                         samples=(dsm.Sample(tokens=(1, 2, 3, 0), label=1),))
        val = loss(np.zeros((4, 4)), ds, att.LOG)
        assert abs(val - np.log(4.0)) <= 1e-12
        # Headless, the label twice among T = 4: label-position mass 1/2.
        ds = dsm.Dataset(embedding=table, head=None,
                         samples=(dsm.Sample(tokens=(2, 3, 2, 1), label=2),))
        val = loss(np.zeros((4, 4)), ds, att.LOG)
        assert abs(val - np.log(2.0)) <= 1e-12

    def test_all_label_tokens_zero_loss(self):
        table = dsm.make_embeddings(3, 3, dsm.ORTHONORMAL, seed=0)
        head = dsm.make_head(table, dsm.TIED)
        ds = dsm.Dataset(embedding=table, head=head,
                         samples=(dsm.Sample(tokens=(2, 2, 2), label=2),))
        assert abs(loss(np.zeros((3, 3)), ds, att.LOG)) <= 1e-12

    @pytest.mark.parametrize("kind,head_kind", [
        (att.LOG, dsm.TIED),
        (att.SQUARED, dsm.GENERAL_ARGMAX),
        (att.CROSS_ENTROPY, dsm.GENERAL_ARGMAX),
        (att.LOG, "none"),
    ])
    def test_matches_straight_line_evaluator(self, kind, head_kind):
        rng = seeded_rng(4)
        for seed in range(8):
            ds = tiny_instance(seed, K=4, d=5, n=4, T=4, head_kind=head_kind)
            w = rng.standard_normal((5, 5))
            got = loss(w, ds, kind)
            want = straight_line_loss(w, ds, kind)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_log_domain_guard(self):
        # A non-realizable sample has zero label mass under a tied head.
        table = dsm.make_embeddings(4, 4, dsm.ORTHONORMAL, seed=0)
        head = dsm.make_head(table, dsm.TIED)
        ds = dsm.Dataset(embedding=table, head=head,
                         samples=(dsm.Sample(tokens=(1, 2, 3), label=0),))
        with pytest.raises(DomainError):
            loss(np.zeros((4, 4)), ds, att.LOG)
        with pytest.raises(DomainError):
            att.grad(np.zeros((4, 4)), ds, att.LOG)
        # The squared loss stays finite and the gradient vanishes.
        assert abs(loss(np.zeros((4, 4)), ds, att.SQUARED) - 1.0) <= 1e-12
        np.testing.assert_allclose(att.grad(np.zeros((4, 4)), ds, att.SQUARED), 0.0, atol=1e-15)


class TestGrad:
    def test_all_label_dataset_zero_gradient(self):
        table = dsm.make_embeddings(3, 3, dsm.ORTHONORMAL, seed=0)
        head = dsm.make_head(table, dsm.TIED)
        ds = dsm.Dataset(embedding=table, head=head,
                         samples=(dsm.Sample(tokens=(1, 1), label=1),))
        rng = seeded_rng(5)
        g = att.grad(rng.standard_normal((3, 3)), ds, att.LOG)
        np.testing.assert_array_equal(g, np.zeros((3, 3)))

    def test_matches_finite_differences(self):
        rng = seeded_rng(6)
        cases = []
        for seed in range(50):
            kind = [att.LOG, att.SQUARED, att.CROSS_ENTROPY][seed % 3]
            # Log scores must stay positive, which the tied head guarantees.
            head_kind = dsm.TIED if (seed % 2 == 0 or kind == att.LOG) else dsm.GENERAL_ARGMAX
            cases.append((seed, kind, head_kind))
        worst = 0.0
        for seed, kind, head_kind in cases:
            ds = tiny_instance(seed, K=3, d=4, n=3, T=3, head_kind=head_kind)
            w = 0.6 * rng.standard_normal((4, 4))
            g = att.grad(w, ds, kind)
            fd = fd_grad(w, ds, kind)
            rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-10)
            worst = max(worst, rel)
        assert worst < 1e-5

    def test_reduced_and_general_log_paths_agree(self):
        rng = seeded_rng(7)
        for seed in range(10):
            ds = tiny_instance(seed + 60, K=4, d=5, n=4, T=4, head_kind=dsm.TIED)
            w = rng.standard_normal((5, 5))
            a = att.grad(w, ds, att.LOG)
            b = grad_general(w, ds, att.LOG)
            assert np.max(np.abs(a - b)) <= 1e-12


# Log scores need a tied or absent head, and cross-entropy needs a head.
ORACLE_CASES = [
    (name, kind)
    for name, (*_, head_kind) in SHAPES.items()
    for kind in (att.LOG, att.SQUARED, att.CROSS_ENTROPY)
    if not (kind == att.LOG and head_kind == dsm.GENERAL_ARGMAX)
    and not (kind == att.CROSS_ENTROPY and head_kind is None)
]


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="the oracle needs an extended-precision long double")
class TestKernelOracle:
    @pytest.mark.parametrize("name,kind", ORACLE_CASES)
    def test_matches_einsum_oracle(self, name, kind):
        # A moderate W, then W scaled so its top score sits just below and
        # just above SCORE_BOUND: the unshifted softmax at its extreme, and
        # the shifted one.  There the squared and cross-entropy gradients
        # cancel (gamma - u, back - E_s[back]) to far below their terms, so
        # only the log gradients are held to the bound at those scales.
        ds = _shape_dataset(name)
        w = 0.5 * seeded_rng(14).standard_normal((ds.d, ds.d))
        top = max(np.max(att._scores(w[None], g)) for g in att._pack([ds]).groups)
        packed = extended(att._pack([ds]))
        for scale in (1.0, 0.999 * att.SCORE_BOUND / top, 1.001 * att.SCORE_BOUND / top):
            w_s = scale * w
            w_ext = w_s.astype(np.longdouble)
            want = einsum_loss(w_ext, packed, kind)
            assert abs(loss(w_s, ds, kind) - want) <= 1e-15 * abs(want)
            if scale != 1.0 and kind != att.LOG:
                continue
            for got, reduced_log in ((att.grad(w_s, ds, kind), True), (grad_general(w_s, ds, kind), False)):
                want = einsum_grad(w_ext, packed, kind, reduced_log)
                assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("name,kind", [("desk", att.LOG), ("local", att.SQUARED), ("local", att.CROSS_ENTROPY)])
    def test_groups_of_several_lengths_sum_into_one_gradient(self, name, kind):
        # Samples cut to lengths T, T - 1 and T - 2, each keeping its last
        # label occurrence: the kernel adds one gradient term per length.
        ds = _shape_dataset(name)
        T = len(ds.samples[0].tokens)
        last_label = [max((t for t, tok in enumerate(s.tokens) if tok == s.label), default=T - 1) for s in ds.samples]
        ds = _last_tokens(ds, [max(T - i % 3, T - t) for i, t in enumerate(last_label)])
        packed = att._pack([ds])
        assert len(packed.groups) > 1
        w = 0.5 * seeded_rng(14).standard_normal((ds.d, ds.d))
        packed = extended(packed)
        w_ext = w.astype(np.longdouble)
        for got, reduced_log in ((att.grad(w, ds, kind), True), (grad_general(w, ds, kind), False)):
            want = einsum_grad(w_ext, packed, kind, reduced_log)
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("kind", [att.LOG, att.SQUARED, att.CROSS_ENTROPY])
    def test_random_blocks_on_both_sides_of_the_form_rule(self, kind):
        # Seeded draws of (K, d, n, T) whose samples are cut to lengths T,
        # T - 1 and T - 2, so a pack holds several length groups, some of
        # them on each side of the rule.  Each draw is a block of up to
        # three trials that share tokens but not embeddings, scored at one
        # broadcast w[None]; each trial is held to the long-double oracles
        # of its own pack.
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
            for reduced_log in (True, False) if kind == att.LOG else (True,):
                total, bar, grad, errors = att._loss_and_grad(w[None], packed, kind, reduced_log)
                assert not errors
                for b, (ds, split) in enumerate(zip(datasets, splits)):
                    own = extended(att._pack([ds], [split]))
                    want = einsum_loss(w_ext, own, kind)
                    assert abs(total[b] - want) <= 1e-15 * abs(want)
                    want = 0.0 if split.empty else split_loss(w_ext, split, kind)
                    assert abs(bar[b] - want) <= 1e-15 * want
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

    @pytest.mark.parametrize("name", ["desk", "large-K"])
    def test_normalized_gd_follows_the_long_double_loop(self, name):
        ds = _shape_dataset(name)
        cfg = att.TrainConfig(eta=0.01, iters=500, normalized=True, record_every=500)
        got = att.train_gd(ds, cfg).w_final
        want = gd_oracle(ds, cfg)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


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
        ds = _last_tokens(ds, [max(T - i % 3, T - t) for i, t in enumerate(last_label)])
        datasets = []
        for b in range(int(rng.integers(1, 4))):
            table = dsm.make_embeddings(K, d, dsm.UNIT_SPHERE, seed=seed + b)
            head = dsm.ClassifierHead(c=rng.standard_normal((K, d)), kind=dsm.GENERAL_ARGMAX) if headed else None
            datasets.append(dataclasses.replace(ds, embedding=table, head=head))
        blocks.append((datasets, [_split_and_fin(member)[0] for member in datasets]))
    return blocks


def _errors(errors):
    return {b: (type(exc), str(exc)) for b, exc in errors.items()}


class TestSkippedLoss:
    # Three trials of one dataset: a moderate W, a W large enough that the
    # softmax puts all mass on one position (the log loss's label mass
    # underflows), and a W in between.
    SCALES = np.array([0.5, 1e5, 3.0])[:, None, None]

    @pytest.mark.parametrize("name", ["desk", "large-K"])
    @pytest.mark.parametrize("kind", [att.LOG, att.SQUARED, att.CROSS_ENTROPY])
    def test_gradient_and_errors_equal_the_full_call(self, name, kind):
        ds = _shape_dataset(name)
        if kind == att.CROSS_ENTROPY and ds.head is None:  # cross-entropy needs a head; K > d rules out make_head
            head = dsm.ClassifierHead(c=seeded_rng(16).standard_normal((ds.K, ds.d)), kind=dsm.GENERAL_ARGMAX)
            ds = dataclasses.replace(ds, head=head)
        packed = att._pack([ds] * 3)
        w = self.SCALES * seeded_rng(15).standard_normal((3, ds.d, ds.d))
        for reduced_log in (True, False):
            full_loss, _, full_grad, full_errors = att._loss_and_grad(w, packed, kind, reduced_log)
            full_grad = full_grad.copy()  # the next call on the pack rewrites its gradient
            loss, loss_bar, grad, errors = att._loss_and_grad(w, packed, kind, reduced_log, need_loss=False)
            assert loss is None and loss_bar is None and np.all(np.isfinite(full_loss[[0, 2]]))
            assert grad.tobytes() == full_grad.tobytes()
            assert _errors(errors) == _errors(full_errors)
            assert sorted(errors) == ([1] if kind == att.LOG else [])
        if kind == att.LOG:
            assert "underflow" in str(errors[1])

    @pytest.mark.parametrize("kind", [att.LOG, att.SQUARED, att.CROSS_ENTROPY])
    def test_each_trial_of_a_mixed_block_equals_its_own_pack(self, kind):
        # The 1e5 trial's scores pass SCORE_BOUND and a fourth trial holds a
        # sample without its label: those two take the row-max shift, the
        # others none, each as in its own pack.
        ds = _shape_dataset("desk")
        split = _split_and_fin(ds)[0]
        s0 = ds.samples[0]
        cut = dsm.Sample(tokens=tuple((t + 1) % ds.K if t == s0.label else t for t in s0.tokens), label=s0.label)
        datasets = [ds] * 3 + [dataclasses.replace(ds, samples=(cut, *ds.samples[1:]))]
        splits = [split] * 3 + [None]
        packed = att._pack(datasets, splits)
        w = np.append(self.SCALES, 0.5)[:, None, None] * seeded_rng(15).standard_normal((4, ds.d, ds.d))
        group = packed.groups[0]
        tops = np.max(att._scores(w, group), axis=(1, 2))
        assert len(packed.groups) == 1 and group.split is not None and not split.empty
        assert list(group.anchored) == [True] * 3 + [False]
        assert list(tops > att.SCORE_BOUND) == [False, True, False, False]
        for reduced_log in (True, False):
            for need_loss in (True, False):
                *block, errors = att._loss_and_grad(w, packed, kind, reduced_log, need_loss=need_loss)
                block = [None if a is None else a.copy() for a in block]
                for b in range(4):
                    own = att._pack([datasets[b]], [splits[b]])
                    *alone, alone_errors = att._loss_and_grad(w[b:b + 1], own, kind, reduced_log,
                                                              need_loss=need_loss)
                    for got, want in zip(block, alone):
                        assert (got is None and want is None) or got[b].tobytes() == want[0].tobytes()
                    assert _errors({0: errors[b]} if b in errors else {}) == _errors(alone_errors)
                assert sorted(errors) == ([1, 3] if kind == att.LOG else [])


class TestAnchoredSoftmax:
    @pytest.mark.parametrize("name", ["desk", "large-K"])
    def test_errors_at_the_bound_need_no_loss(self, name):
        # The top score just below SCORE_BOUND (no shift: the label mass and
        # its guard are skipped without the loss), just above it, and at
        # 1.2 SCORE_BOUND, where the label mass underflows LOG_GUARD.
        ds = _shape_dataset(name)
        w = seeded_rng(15).standard_normal((ds.d, ds.d))
        top = np.max(att._scores(w[None], att._pack([ds]).groups[0]))
        for factor, failing in ((0.999, False), (1.001, False), (1.2, True)):
            w_s = (factor * att.SCORE_BOUND / top) * w
            packed = att._pack([ds])
            with_loss, without = (_errors(att._loss_and_grad(w_s[None], packed, att.LOG, True, need_loss=need_loss)[3])
                                  for need_loss in (True, False))
            assert with_loss == without and sorted(without) == ([0] if failing else [])
            if failing:
                assert without[0][0] is DomainError and "underflow" in without[0][1]

    @pytest.mark.parametrize("kind", [att.LOG, att.SQUARED, att.CROSS_ENTROPY])
    def test_loss_bar_is_its_definition_near_and_past_the_bound(self, kind):
        # The group's top score just below and just above SCORE_BOUND, then
        # the split positions' top score at 1.2 SCORE_BOUND, where an
        # unshifted exp overflows (the log loss's label mass underflows).
        ds = _shape_dataset("desk")
        split = _split_and_fin(ds)[0]
        w = seeded_rng(19).standard_normal((ds.d, ds.d))
        group = att._pack([ds], [split]).groups[0]
        h = att._scores(w[None], group)
        tops = [np.max(h), np.max(h.reshape(-1, h.shape[-1])[group.split.rows][group.split.keep])]
        for factor, on in ((0.999, 0), (1.001, 0), (1.2, 1)):
            if kind == att.LOG and on == 1:
                continue
            w_s = (factor * att.SCORE_BOUND / tops[on]) * w
            got = att._loss_and_grad(w_s[None], att._pack([ds], [split]), kind, True)[1][0]
            want = split_loss(w_s.astype(np.longdouble), split, kind)
            assert abs(got - want) <= 1e-15 * want
            if kind == att.LOG:
                assert abs(att.loss_bar(w_s, split) - want) <= 1e-15 * want

    def test_a_non_realizable_sample_fails_at_step_0(self):
        # A tied log loss whose sample lacks its label: its zero label mass
        # fails the guard at W = 0, as the kernel without the loss reports.
        table = dsm.make_embeddings(4, 4, dsm.ORTHONORMAL, seed=0)
        bad = dsm.Dataset(embedding=table, head=dsm.make_head(table, dsm.TIED),
                          samples=(dsm.Sample(tokens=(1, 2, 3), label=0), dsm.Sample(tokens=(0, 2, 1), label=0)))
        errors = att._loss_and_grad(np.zeros((1, 4, 4)), att._pack([bad]), att.LOG, True, need_loss=False)[3]
        assert list(errors) == [0]
        with pytest.raises(DomainError) as exc:
            att.train_gd(bad, att.TrainConfig(eta=0.1, iters=10, normalized=True))
        assert str(exc.value) == str(errors[0]) == "log-loss argument underflow: min score 0.000e+00"

    def test_a_split_row_without_its_label_is_not_anchored(self):
        # Sample 0 is (3, 5, 5, 5) with label 5; a split holding only its
        # first position has no label score 0 to anchor that softmax, so
        # the trial takes the row-max shift and the guard.
        ds = _shape_dataset("desk")
        assert ds.samples[0].tokens == (3, 5, 5, 5) and ds.samples[0].label == 5
        hand = gm.CyclicSplit(dataset=ds, idx_i=(0,), positions=((0,),))
        assert att._pack([ds]).groups[0].anchored.tolist() == [True]
        assert att._pack([ds], [hand]).groups[0].anchored.tolist() == [False]
        with pytest.raises(DomainError, match="underflow: min score 0.000e"):
            att.loss_bar(seeded_rng(20).standard_normal((ds.d, ds.d)), hand)

    @pytest.mark.parametrize("mode,shape", [pytest.param("acyclic", (8, 8, 4, 6), id="acyclic"),
                                            pytest.param("cyclic", SHAPES["large-K"][:4], id="large-K")])
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
        att._loss_and_grad(w[None], packed, att.LOG, True, need_loss=False)
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


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="the oracle needs an extended-precision long double")
class TestRowSums:
    # Every softmax sums its rows one way (`_sum_rows`): one BLAS dot
    # product with a ones vector a row.  Summing T nonnegative terms in any
    # order is within (T - 1) u of their exact sum (Blanchard, Higham and
    # Higham 2021), and the softmax's divide adds one rounding more.
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


class TestStackRefs:
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


class TestScratch:
    def test_a_returned_gradient_outlives_the_next_call(self):
        # The kernel hands back its pack's own gradient; grad and _one copy it.
        ds = _shape_dataset("desk")
        w = seeded_rng(17).standard_normal((ds.d, ds.d))
        first = att.grad(w, ds)
        kept = first.tobytes()
        assert att.grad(2.0 * w, ds).tobytes() != kept and first.tobytes() == kept
        packed = att._pack([ds])
        first = att._one(w, packed, att.LOG)[1]
        kept = first.tobytes()
        assert att._one(2.0 * w, packed, att.LOG)[1].tobytes() != kept and first.tobytes() == kept
        g1 = att._loss_and_grad(w[None], packed, att.LOG, True)[2]
        g2 = att._loss_and_grad(2.0 * w[None], packed, att.LOG, True)[2]
        assert g1 is g2 is packed.grad


def _last_tokens(ds, lengths):
    """ds with sample i cut to its last lengths[i] tokens."""
    samples = tuple(dsm.Sample(tokens=s.tokens[-t:], label=s.label) for s, t in zip(ds.samples, lengths))
    return dataclasses.replace(ds, samples=samples)


class TestPackStructure:
    def test_datasets_of_two_length_profiles_are_refused(self):
        # One table, head and sample set, cut to two length profiles: only
        # the sample count at each length tells them apart.
        ds = _shape_dataset("local")
        short, long = _last_tokens(ds, (6, 6, 4, 4)), _last_tokens(ds, (6, 6, 6, 4))
        assert att._structure(short)[:4] == att._structure(long)[:4] != att._structure(short)
        with pytest.raises(ValueError, match="sample count at each length"):
            att._pack([short, long])


class TestLipschitz:
    def test_log_constant_direct_values(self):
        ds = tiny_instance(8, K=4, d=4, n=4, T=4)
        assert abs(att.lipschitz_log(ds) - 2.0 * np.sqrt(4.0)) <= 1e-12
        ds1 = tiny_instance(8, K=4, d=4, n=3, T=1)
        assert abs(att.lipschitz_log(ds1) - 2.0) <= 1e-12

    def test_log_constant_bounds_sampled_ratios(self):
        ds = tiny_instance(9, K=4, d=5, n=4, T=4)
        L = att.lipschitz_log(ds)
        rng = seeded_rng(9)
        worst = 0.0
        for _ in range(1000):
            w1 = rng.standard_normal((5, 5))
            w2 = w1 + 0.1 * rng.standard_normal((5, 5))
            num = np.linalg.norm(att.grad(w1, ds, att.LOG) - att.grad(w2, ds, att.LOG))
            den = np.linalg.norm(w1 - w2)
            worst = max(worst, num / den)
        assert worst <= L


def _faulty_kernel(trial, loss_from=None, grad_from=None, error_at=None, error=None):
    """The kernel with faults in one trial, by step: its loss infinite at
    every record from step loss_from on, its gradient NaN from step
    grad_from on, and error among the errors of its record at step
    error_at.  A training step calls the kernel once without the loss; a
    call with the loss scores n stored records of each trial, w (n, B, d,
    d), and each record's step is the step whose W it holds.  An all-zero
    slot that no step held, a filled one past the records, takes no fault;
    any other W that no step held is a KeyError."""
    kernel, steps = att._loss_and_grad, {}

    def patched(w, packed, kind, reduced_log, need_grad=True, need_loss=True, bounded=False):
        value, bar, g, errors = kernel(w, packed, kind, reduced_log, need_grad, need_loss, bounded)
        if not need_loss:
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
    """Every call of the kernel from now on, as (need_loss, a copy of w)."""
    calls, kernel = [], att._loss_and_grad

    def recorded(w, *args, **kwargs):
        calls.append((kwargs["need_loss"], w.copy()))
        return kernel(w, *args, **kwargs)

    monkeypatch.setattr(att, "_loss_and_grad", recorded)
    return calls


def _assert_steps_and_scorings(calls, iters, taus):
    """Each of the steps 0..iters called the kernel once without the loss,
    and the calls with the loss scored the W's of the record steps taus, in
    order, each record after its step.  Every scoring passes all
    min(RECORD_CHUNK, len(taus)) slots, and those past its records hold
    W = 0."""
    steps = [w for need_loss, w in calls if not need_loss]
    assert len(steps) == iters + 1 and all(w.ndim == 3 for w in steps)
    scored, taken = [], 0
    for need_loss, w in calls:
        taken += not need_loss
        if need_loss:
            assert w.ndim == 4 and len(w) == min(att.RECORD_CHUNK, len(taus))
            n = min(len(w), len(taus) - len(scored))
            assert n > 0 and not w[n:].any()
            scored.extend(w[:n])
            assert all(tau < taken for tau in taus[:len(scored)])
    assert len(scored) == len(taus)
    assert all(got.tobytes() == steps[tau].tobytes() for got, tau in zip(scored, taus))


class TestTrainGd:
    def test_descent_with_inverse_lipschitz_step(self):
        ds = tiny_instance(13, K=4, d=5, n=4, T=4)
        eta = 1.0 / att.lipschitz_log(ds)
        w = np.zeros((5, 5))
        for _ in range(300):
            g = att.grad(w, ds, att.LOG)
            new = w - eta * g
            drop = loss(new, ds, att.LOG) - loss(w, ds, att.LOG)
            assert drop <= -(eta / 2.0) * np.linalg.norm(g) ** 2 + 1e-10
            w = new

    def test_all_label_dataset_never_moves(self):
        table = dsm.make_embeddings(3, 3, dsm.ORTHONORMAL, seed=0)
        head = dsm.make_head(table, dsm.TIED)
        ds = dsm.Dataset(embedding=table, head=head,
                         samples=(dsm.Sample(tokens=(1, 1, 1), label=1),))
        cfg = att.TrainConfig(eta=0.1, iters=50, normalized=True, init="gauss",
                              init_scale=0.3, init_seed=1, record_every=10)
        trace = att.train_gd(ds, cfg)
        w0 = cfg.initial_w(3)
        np.testing.assert_array_equal(trace.w_final, w0)

    def test_trace_shapes_and_metrics(self, cyclic_pipeline):
        pipe = cyclic_pipeline
        cfg = att.TrainConfig(eta=0.01, iters=100, normalized=True, record_every=25)
        trace = att.train_gd(pipe.dataset, cfg, refs=pipe.refs())
        assert list(trace.iters) == [0, 25, 50, 75, 100]
        assert np.isnan(trace.corr_svm[0])  # zero init
        assert np.all(np.isfinite(trace.corr_svm[1:]))
        assert np.all(np.isfinite(trace.dist_fin))
        assert np.all(np.isfinite(trace.loss_bar))
        assert trace.w_norm[-1] > 0

    @pytest.mark.parametrize("name,kind", [("desk", att.LOG), ("desk", att.CROSS_ENTROPY),
                                           ("large-K", att.LOG)])
    def test_recorded_loss_is_the_loss_at_that_step(self, name, kind):
        ds = _shape_dataset(name)
        cfg = att.TrainConfig(eta=0.01, iters=20, normalized=True, loss=kind, record_every=1)
        trace = att.train_gd(ds, cfg)
        assert list(trace.iters) == list(range(21))
        for t in range(21):
            w_t = att.train_gd(ds, dataclasses.replace(cfg, iters=t)).w_final
            assert trace.loss[t] == loss(w_t, ds, kind)

    def test_non_finite_loss_raises_at_its_record_step(self, monkeypatch):
        # The loss turns infinite at step 7, between the records at 5 and 10.
        monkeypatch.setattr(att, "_loss_and_grad", _infinite_from_step_7(trial=0))
        cfg = att.TrainConfig(eta=0.01, iters=20, normalized=True, record_every=5)
        with pytest.raises(NonFiniteLoss, match="loss became non-finite at iteration 10") as exc:
            att.train_gd(_shape_dataset("desk"), cfg)
        assert list(exc.value.trace.iters) == [0, 5]
        assert np.all(np.isfinite(exc.value.trace.loss))


def _block_trials():
    """Seven tied-head (K, d, n, T) = (3, 4, 3, 3) trials, one group
    structure: a nonzero W_svm with a one-dimensional S_fin, a zero W_svm
    (NaN corr_svm) with a two-dimensional S_fin, an empty split, a gradient
    that stays exactly zero (under GRAD_FLOOR), the single-SCC dataset, and
    two more cyclic draws."""
    def drawn(seed):
        table = dsm.make_embeddings(3, 4, dsm.UNIT_SPHERE, seed=seed)
        return dsm.gen_dataset(table, dsm.make_head(table, dsm.TIED), n=3, T=3, mode="cyclic", seed=seed)

    table = dsm.make_embeddings(3, 4, dsm.UNIT_SPHERE, seed=5)
    all_label = dsm.Dataset(embedding=table, head=dsm.make_head(table, dsm.TIED),
                            samples=tuple(dsm.Sample(tokens=(k, k, k), label=k) for k in range(3)))
    datasets = [drawn(0), drawn(1), drawn(2), all_label, single_scc_dataset(seed=3), drawn(22), drawn(13)]
    pipes = [build_pipeline(ds) for ds in datasets]
    return datasets, [p.refs() for p in pipes], pipes


def _local_block(kind):
    """Five local-* trials of one structure (general head with unit rows) at
    n = 8, each with its own pipeline's references: two hold a split of 2
    of their 8 samples and three an empty split."""
    params = {**experiments.EXPERIMENTS["local-squared"].params, "loss": kind, "n": 8}
    built = [experiments._local_build(*job) for job in experiments.seeded_jobs(params, 0, 5)]
    return [b[0] for b in built], [b[2] for b in built]


def _trace_bytes(trace):
    return [getattr(trace, f.name).tobytes() for f in dataclasses.fields(trace) if f.name != "t_ms"]


class TestTrainBlock:
    @pytest.mark.parametrize("normalized,eta,init_scale", [
        pytest.param(True, 0.05, None, id="True-0.05"),
        pytest.param(False, 0.25, None, id="False-0.25"),
        # Trial 1 starts with its top score past SCORE_BOUND and falls below
        # it by step 11; trial 2 starts just below it.
        pytest.param(True, 0.5, 205.0, id="past-the-bound"),
    ])
    def test_block_traces_equal_train_gd_bit_for_bit(self, normalized, eta, init_scale):
        datasets, refs, pipes = _block_trials()
        assert len({att._structure(ds) for ds in datasets}) == 1
        assert pipes[0].solution.norm > 0 and pipes[0].s_fin.dim == 1
        assert pipes[1].solution.norm == 0 and pipes[1].s_fin.dim == 2
        assert pipes[2].split.empty
        cfg = att.TrainConfig(eta=eta, iters=300, normalized=normalized, record_every=7)
        if init_scale is not None:
            cfg = dataclasses.replace(cfg, init="gauss", init_scale=init_scale)
        alone = [att.train_gd(ds, cfg, r) for ds, r in zip(datasets, refs)]
        if init_scale is not None:
            group = att._pack(datasets).groups[0]
            start, end = (np.max(att._scores(w[None], group), axis=(1, 2)) for w in (cfg.initial_w(4), alone[1].w_final))
            assert start[1] > att.SCORE_BOUND > end[1] and att.SCORE_BOUND > start[2] > 0.99 * att.SCORE_BOUND
        for trace, ds, r in zip(alone, datasets, refs):
            rows, w_final = straight_train_gd(ds, cfg, r)
            assert np.column_stack(trace.columns()).astype(np.float64).tobytes() == rows.tobytes()
            assert trace.w_final.tobytes() == w_final.tobytes()
        assert np.all(np.isnan(alone[1].corr_svm)) and np.all(np.isfinite(alone[1].dist_fin))
        assert np.all(alone[2].loss_bar == 0.0)
        assert np.all(alone[3].grad_norm <= att.GRAD_FLOOR)
        assert alone[3].w_final.tobytes() == cfg.initial_w(4).tobytes()
        for block in (att.train_block(datasets, cfg, refs),
                      [att.train_block([ds], cfg, [r])[0] for ds, r in zip(datasets, refs)]):
            for got, want in zip(block, alone):
                assert _trace_bytes(got) == _trace_bytes(want)

    @pytest.mark.parametrize("kind", [att.LOG, att.SQUARED, att.CROSS_ENTROPY])
    def test_record_loss_bar_is_its_definition(self, kind, monkeypatch):
        # The block trials (log) and the local-* block each hold samples
        # outside their split; a trial without references reads NaN.
        datasets, refs = _block_trials()[:2] if kind == att.LOG else _local_block(kind)
        datasets, refs = datasets + datasets[:1], refs + [None]
        assert any(0 < len(r.split.idx_i) < ds.n for ds, r in zip(datasets, refs) if r is not None)
        assert any(r.split.empty for r in refs if r is not None)
        cfg = att.TrainConfig(eta=0.01, iters=0, init="gauss", init_scale=0.7, init_seed=18, loss=kind)
        calls = _kernel_calls(monkeypatch)
        traces = att.train_block(datasets, cfg, refs)
        _assert_steps_and_scorings(calls, 0, [0])
        w = cfg.initial_w(datasets[0].d)
        for trace, r in zip(traces, refs):
            got = trace.loss_bar[0]
            if r is None:
                assert np.isnan(got)
            elif r.split.empty:
                assert got == 0.0
            else:
                want = split_loss(w.astype(np.longdouble), r.split, kind)
                assert got > 0.0 and abs(got - want) <= 1e-15 * want

    def test_each_step_calls_the_kernel_once(self, monkeypatch):
        # A step that bypassed the kernel would escape every fault injected
        # through it; the loss is asked for only when the stored records are
        # scored, and those calls hold the record steps' W's.
        datasets = [_shape_dataset("desk", seed) for seed in range(3)]
        cfg = att.TrainConfig(eta=0.01, iters=25, normalized=True, record_every=10)
        calls = _kernel_calls(monkeypatch)
        att.train_block(datasets, cfg)
        _assert_steps_and_scorings(calls, 25, [0, 10, 20, 25])

    @pytest.mark.parametrize("kind", [att.LOG, att.SQUARED, att.CROSS_ENTROPY])
    def test_training_raises_no_floating_point_exception(self, kind):
        # Empty splits, samples outside a split, a trial without references
        # and a cross-entropy head, with every numpy floating-point error
        # and every warning turned into an exception.
        datasets, refs = _block_trials()[:2] if kind == att.LOG else _local_block(kind)
        cfg = att.TrainConfig(eta=0.05, iters=300, normalized=True, record_every=7, loss=kind)
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            traces = att.train_block(datasets + datasets[:1], cfg, refs + [None])
        assert all(isinstance(t, att.TrainTrace) for t in traces)
        assert np.all(np.isfinite(traces[0].loss_bar)) and np.all(np.isnan(traces[-1].loss_bar))

    def test_refuses_a_split_of_another_dataset(self):
        datasets, refs, _ = _block_trials()
        cfg = att.TrainConfig(eta=0.05, iters=3, normalized=True)
        with pytest.raises(ValueError, match="cyclic split of another dataset"):
            att.train_gd(datasets[6], cfg, refs[0])

    def test_mixed_structures_train_as_alone(self):
        datasets = [_shape_dataset("desk"), tiny_instance(3, T=4), _shape_dataset("desk", seed=1)]
        cfg = att.TrainConfig(eta=0.01, iters=40, normalized=True, record_every=10)
        block = att.train_block(datasets, cfg)
        for got, ds in zip(block, datasets):
            assert _trace_bytes(got) == _trace_bytes(att.train_gd(ds, cfg))

    def test_failing_trial_raises_as_alone_and_leaves_the_rest(self, monkeypatch):
        datasets = [_shape_dataset("desk", seed) for seed in range(4)]
        cfg = att.TrainConfig(eta=0.01, iters=20, normalized=True, record_every=5)
        clean = att.train_block(datasets, cfg)
        alone_kernel, block_kernel = _infinite_from_step_7(trial=0), _infinite_from_step_7(trial=2)
        monkeypatch.setattr(att, "_loss_and_grad", alone_kernel)
        with pytest.raises(NonFiniteLoss) as alone:
            att.train_gd(datasets[2], cfg)
        monkeypatch.setattr(att, "_loss_and_grad", block_kernel)
        block = att.train_block(datasets, cfg)
        assert type(block[2]) is NonFiniteLoss and str(block[2]) == str(alone.value)
        assert _trace_bytes(block[2].trace) == _trace_bytes(alone.value.trace)
        for b in (0, 1, 3):
            assert _trace_bytes(block[b]) == _trace_bytes(clean[b])

    def test_non_finite_gradients_fail_only_their_trials(self, monkeypatch):
        # Trial 1's gradient holds a NaN from step 7 on, and trial 3's an
        # inf from step 12 on: each alone must fail the GRAD_FLOOR test,
        # which reads the norms through argmin and argmax.
        datasets = [_shape_dataset("desk", seed) for seed in range(5)]
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
        for b, tau, iters in ((1, 7, [0, 5]), (3, 12, [0, 5, 10])):
            assert type(block[b]) is NonFiniteLoss
            assert str(block[b]) == f"gradient became non-finite at iteration {tau}"
            assert list(block[b].trace.iters) == iters
        for b in (0, 2, 4):
            assert _trace_bytes(block[b]) == _trace_bytes(clean[b])

    def test_log_underflow_fails_only_its_trial(self):
        # A non-realizable sample has zero label mass under a tied head.
        table = dsm.make_embeddings(4, 4, dsm.ORTHONORMAL, seed=0)
        head = dsm.make_head(table, dsm.TIED)
        bad = dsm.Dataset(embedding=table, head=head, samples=(dsm.Sample(tokens=(1, 2, 3), label=0),))
        good = dsm.Dataset(embedding=table, head=head, samples=(dsm.Sample(tokens=(1, 2, 0), label=0),))
        cfg = att.TrainConfig(eta=0.1, iters=10, normalized=True)
        with pytest.raises(DomainError) as alone:
            att.train_gd(bad, cfg)
        block = att.train_block([good, bad], cfg)
        assert type(block[1]) is DomainError and str(block[1]) == str(alone.value)
        assert _trace_bytes(block[0]) == _trace_bytes(att.train_gd(good, cfg))

    def test_a_block_stops_once_every_trial_has_failed(self, monkeypatch):
        # Two tied trials whose one sample lacks its label, one structure:
        # both fail the underflow guard at step 0, so one kernel call is all
        # 1,000 steps make, and each returns what it returns alone.
        table = dsm.make_embeddings(4, 4, dsm.ORTHONORMAL, seed=0)
        head = dsm.make_head(table, dsm.TIED)
        bad = [dsm.Dataset(embedding=table, head=head, samples=(dsm.Sample(tokens=tokens, label=0),))
               for tokens in ((1, 2, 3), (3, 1, 2))]
        cfg = att.TrainConfig(eta=0.1, iters=1000, normalized=True)
        calls, kernel = [], att._loss_and_grad
        monkeypatch.setattr(att, "_loss_and_grad", lambda *args, **kw: calls.append(1) or kernel(*args, **kw))
        with pytest.raises(DomainError) as alone:
            att.train_gd(bad[0], cfg)
        assert len(calls) == 1
        block = att.train_block(bad, cfg)
        assert len(calls) == 2
        assert [type(b) for b in block] == [DomainError, DomainError]
        assert str(block[0]) == str(block[1]) == str(alone.value) == "log-loss argument underflow: min score 0.000e+00"

    def test_a_failed_last_trial_keeps_its_trace(self, monkeypatch):
        # The loss turns infinite at step 7 and fails at the record step 10,
        # found when the records are scored after the last step; the steps
        # taken after step 10 are thrown away.  The trace holds the records
        # up to step 5 and the W of step 10.
        monkeypatch.setattr(att, "_loss_and_grad", _infinite_from_step_7(trial=0))
        calls = _kernel_calls(monkeypatch)
        cfg = att.TrainConfig(eta=0.01, iters=20, normalized=True, record_every=5)
        with pytest.raises(NonFiniteLoss, match="loss became non-finite at iteration 10") as exc:
            att.train_gd(_shape_dataset("desk"), cfg)
        _assert_steps_and_scorings(calls, 20, [0, 5, 10, 15, 20])
        monkeypatch.undo()
        clean = att.train_gd(_shape_dataset("desk"), dataclasses.replace(cfg, iters=5))
        at_fail = att.train_gd(_shape_dataset("desk"), dataclasses.replace(cfg, iters=10))
        got = exc.value.trace
        assert _trace_bytes(dataclasses.replace(got, w_final=clean.w_final)) == _trace_bytes(clean)
        assert got.w_final.tobytes() == at_fail.w_final.tobytes()

    # Record counts at record_every = 3: one record, one chunk less one, one
    # chunk, one chunk plus one, and a last record off the record_every grid
    # after them.
    CHUNK_ITERS = {"one-record": 0, "chunk-minus-one": 3 * (att.RECORD_CHUNK - 2),
                   "one-chunk": 3 * (att.RECORD_CHUNK - 1), "chunk-plus-one": 3 * att.RECORD_CHUNK,
                   "off-grid": 3 * att.RECORD_CHUNK + 1}

    @pytest.mark.parametrize("records", list(CHUNK_ITERS))
    @pytest.mark.parametrize("kind", [att.LOG, att.SQUARED, att.CROSS_ENTROPY])
    def test_chunk_boundaries_keep_the_straight_loop_bits(self, kind, records):
        # The block trials (log) and the local-* block, every record scored
        # in chunks of RECORD_CHUNK, against each trial's plain loop.
        datasets, refs = _block_trials()[:2] if kind == att.LOG else _local_block(kind)
        cfg = att.TrainConfig(eta=0.05, iters=self.CHUNK_ITERS[records], normalized=True, record_every=3, loss=kind)
        block = att.train_block(datasets, cfg, refs)
        for trace, ds, r in zip(block, datasets, refs):
            rows, w_final = straight_train_gd(ds, cfg, r)
            assert len(rows) == {"one-record": 1, "chunk-minus-one": att.RECORD_CHUNK - 1, "one-chunk": att.RECORD_CHUNK,
                                 "chunk-plus-one": att.RECORD_CHUNK + 1, "off-grid": att.RECORD_CHUNK + 2}[records]
            assert np.column_stack(trace.columns()).astype(np.float64).tobytes() == rows.tobytes()
            assert trace.w_final.tobytes() == w_final.tobytes()
        assert records != "off-grid" or list(block[0].iters[-2:]) == [cfg.iters - 1, cfg.iters]

    def test_a_trial_that_fails_mid_chunk_keeps_the_others_bits(self, monkeypatch):
        # Trial 1's gradient turns NaN at step 13, between the records at 12
        # and 14 of the first chunk: it fails in the loop there, keeps the
        # rows up to step 12 and W of step 13, and the other trials keep the
        # bits of their plain loops, in every chunk.
        datasets, refs = _block_trials()[:2]
        cfg = att.TrainConfig(eta=0.05, iters=4 * att.RECORD_CHUNK + 1, normalized=True, record_every=2)
        monkeypatch.setattr(att, "_loss_and_grad", _faulty_kernel(1, grad_from=13))
        block = att.train_block(datasets, cfg, refs)
        monkeypatch.undo()
        assert type(block[1]) is NonFiniteLoss and str(block[1]) == "gradient became non-finite at iteration 13"
        rows, _ = straight_train_gd(datasets[1], dataclasses.replace(cfg, iters=12), refs[1])
        assert np.column_stack(block[1].trace.columns()).astype(np.float64).tobytes() == rows.tobytes()
        w_13 = straight_train_gd(datasets[1], dataclasses.replace(cfg, iters=13), refs[1])[1]
        assert block[1].trace.w_final.tobytes() == w_13.tobytes()
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
        # trace is that of its trial's plain loop, or of its trial alone
        # under the same fault.
        faults = {}
        if case == "local-squared":
            params = {**experiments.EXPERIMENTS["local-squared"].params, "iters": 1000}
            built = [experiments._local_build(*job) for job in experiments.seeded_jobs(params, 0, 2)]
            datasets, cfg, refs = [b[0] for b in built], built[0][1], [b[2] for b in built]
        else:
            datasets, refs = _block_trials()[:2]
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
            assert _trace_bytes(block[1].trace) == _trace_bytes(alone.value.trace)
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
        # that trial alone, so the last scoring reaches only its failure.
        datasets, refs = _block_trials()[:2]
        trial = 1
        if case == "all-failed":
            datasets, refs, trial = datasets[1:2], refs[1:2], 0
        if case != "clean":
            monkeypatch.setattr(att, "_loss_and_grad", _faulty_kernel(trial, grad_from=5))
        cfg = att.TrainConfig(eta=0.05, iters=3 * att.RECORD_CHUNK, normalized=True, record_every=3, init="gauss",
                              init_scale=0.5, init_seed=2)
        want = att.train_block(datasets, cfg, refs)
        kernel, zero_slots = att._loss_and_grad, []

        def failing_zeros(w, packed, kind, reduced_log, need_grad=True, need_loss=True, bounded=False):
            value, bar, g, errors = kernel(w, packed, kind, reduced_log, need_grad, need_loss, bounded)
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
                a, b = a.trace, b.trace
            assert _trace_bytes(a) == _trace_bytes(b)
        assert case == "clean" or isinstance(got[trial], NonFiniteLoss)

    def test_a_loss_failure_found_at_a_full_chunk_stops_its_trial_there(self, monkeypatch):
        # Every step is a record, so the infinite loss from step 7 on is
        # found when the first chunk is scored, after step RECORD_CHUNK - 1:
        # the trial keeps the rows up to step 6 and W of step 7, and the
        # steps it took after step 7 are thrown away.
        datasets = [_shape_dataset("desk", seed) for seed in range(3)]
        cfg = att.TrainConfig(eta=0.01, iters=3 * att.RECORD_CHUNK, normalized=True, record_every=1)
        clean = att.train_block(datasets, cfg)
        monkeypatch.setattr(att, "_loss_and_grad", _infinite_from_step_7(trial=1))
        calls = _kernel_calls(monkeypatch)
        block = att.train_block(datasets, cfg)
        _assert_steps_and_scorings(calls, cfg.iters, list(range(cfg.iters + 1)))
        monkeypatch.undo()
        assert type(block[1]) is NonFiniteLoss and str(block[1]) == "loss became non-finite at iteration 7"
        at_7 = att.train_gd(datasets[1], dataclasses.replace(cfg, iters=7))
        got = block[1].trace
        assert list(got.iters) == list(range(7))
        assert _trace_bytes(got) == _trace_bytes(dataclasses.replace(
            clean[1], **{f: getattr(clean[1], f)[:7] for f in ("iters", *att._COLUMNS)}, w_final=at_7.w_final))
        for b in (0, 2):
            assert _trace_bytes(block[b]) == _trace_bytes(clean[b])

    def test_a_loss_failure_precedes_a_later_gradient_failure(self, monkeypatch):
        # Trial 0's loss is infinite from the record at step 10 on, found
        # only when the first chunk is scored after step 35, and its
        # gradient turns NaN at step 20, which the loop sees first: the
        # earlier failure stands, with its trace and W.
        cfg = att.TrainConfig(eta=0.01, iters=60, normalized=True, record_every=5)
        ds = _shape_dataset("desk")
        monkeypatch.setattr(att, "_loss_and_grad", _faulty_kernel(0, loss_from=10, grad_from=20))
        with pytest.raises(NonFiniteLoss, match="loss became non-finite at iteration 10") as exc:
            att.train_gd(ds, cfg)
        monkeypatch.undo()
        got, at_5, at_10 = exc.value.trace, *(att.train_gd(ds, dataclasses.replace(cfg, iters=t)) for t in (5, 10))
        assert _trace_bytes(dataclasses.replace(got, w_final=at_5.w_final)) == _trace_bytes(at_5)
        assert got.w_final.tobytes() == at_10.w_final.tobytes()

    @pytest.mark.parametrize("loss_bar_fails", [False, True])
    def test_failures_at_one_record_step_keep_their_order(self, monkeypatch, loss_bar_fails):
        # At the record step 10 the gradient turns NaN, in the loop, and the
        # loss turns infinite or loss_bar fails, in the last scoring.  As in
        # a step that computes them all, loss_bar's error precedes the
        # gradient's, which precedes the loss's; so that scoring must reach
        # the record of the failing step.
        cfg = att.TrainConfig(eta=0.01, iters=20, normalized=True, record_every=5)
        error = DomainError("log-loss argument underflow: min score 0.000e+00") if loss_bar_fails else None
        faults = {"error_at": 10, "error": error} if loss_bar_fails else {"loss_from": 10}
        monkeypatch.setattr(att, "_loss_and_grad", _faulty_kernel(0, grad_from=10, **faults))
        with pytest.raises(DomainError if loss_bar_fails else NonFiniteLoss) as exc:
            att.train_gd(_shape_dataset("desk"), cfg)
        if loss_bar_fails:
            assert exc.value is error
        else:
            assert str(exc.value) == "gradient became non-finite at iteration 10"
            assert list(exc.value.trace.iters) == [0, 5]

    def test_recorded_diagnostics_equal_their_definitions(self):
        # The first five desk trials at seed 0 have S_fin dims 0, 2, 1, 1
        # and 0.  Trial 3 trains without its W_svm and a sixth trial, trial
        # 0's dataset, without references.
        datasets, cfg, refs = _experiment_block("cyclic-global", 5)
        assert [r.s_fin.dim for r in refs] == [0, 2, 1, 1, 0]
        refs[3] = dataclasses.replace(refs[3], w_svm=None)
        datasets, refs = datasets + datasets[:1], refs + [None]
        cfg = dataclasses.replace(cfg, iters=60, record_every=10)
        traces = att.train_block(datasets, cfg, refs)
        for row, tau in enumerate(traces[0].iters.tolist()):
            w_at_tau = [t.w_final for t in att.train_block(datasets, dataclasses.replace(cfg, iters=tau), refs)]
            for trace, w, r in zip(traces, w_at_tau, refs):
                r = r or att.TrainRefs()
                for got, want in ((trace.corr_svm[row], corr_oracle(w, r.w_svm)),
                                  (trace.dist_fin[row], dist_fin_oracle(w, r.s_fin, r.w_fin))):
                    assert np.isnan(got) == np.isnan(want)
                    assert np.isnan(got) or abs(got - want) <= 1e-12 * abs(want)
        assert np.isnan(traces[0].corr_svm[0]) and not np.isnan(traces[0].corr_svm[1])  # W = 0 at step 0
        assert np.all(np.isnan(traces[3].corr_svm)) and np.all(np.isnan(traces[5].dist_fin))


def _experiment_block(name, trials):
    """The first trials of an experiment's block at seed 0: datasets, the
    shared TrainConfig and each trial's references."""
    jobs = experiments.seeded_jobs(experiments.EXPERIMENTS[name].params, 0, trials)
    built = [experiments._global_build(*job) for job in jobs]
    return [b[0] for b in built], built[0][1], [b[2] for b in built]


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
            got, want = getattr(got, "trace", None), getattr(want, "trace", None)
        assert (got is None and want is None) or _trace_bytes(got) == _trace_bytes(want)
    return flags[:calls]


def _mixed_anchoring(kind):
    """Two desk trials and a third whose first sample lacks its label, so
    its rows are not anchored; one structure, tied head.  A W of norm
    about 24 puts the unanchored trial's row maxima far enough from 0 that
    a missing shift shows in the bits."""
    ds = _shape_dataset("desk")
    s0 = ds.samples[0]
    cut = dsm.Sample(tokens=tuple((t + 1) % ds.K if t == s0.label else t for t in s0.tokens), label=s0.label)
    datasets = [ds, _shape_dataset("desk", 1), dataclasses.replace(ds, samples=(cut, *ds.samples[1:]))]
    assert att._pack(datasets).groups[0].anchored.tolist() == [True, True, False]
    return datasets, att.TrainConfig(eta=0.05, iters=200, normalized=True, init="gauss", init_scale=3.0, loss=kind,
                                     record_every=10), None


def _rate_check_block(trials):
    params = {**experiments.EXPERIMENTS["rate-check"].params, "iters": 1500}
    built = [experiments._rate_check_build(*job) for job in experiments.rate_check_jobs(params, 0, trials)]
    return [b[0] for b in built], built[0][1], [b[2] for b in built]


class TestScoreCertificate:
    """The ||W|| certificate of `_train_stack` skips the kernel's reduction
    over the scores and a normalized step's infinity test; every bit of a
    run must be that of the same run with the certificate disabled."""

    @pytest.mark.parametrize("case", ["desk", "large-K", "d<K", "rate-check", "mixed-log", "mixed-squared"])
    def test_disabling_the_certificate_changes_no_bit(self, monkeypatch, case):
        if case == "desk":
            datasets, cfg, refs = _experiment_block("cyclic-global", 6)
            cfg = dataclasses.replace(cfg, iters=400)
        elif case == "large-K":
            datasets, cfg, refs = _experiment_block("large-k", 1)
            cfg = dataclasses.replace(cfg, iters=200, record_every=50)
        elif case == "d<K":
            # feasibility at d = 3: the bound grows past its reach long
            # before the one record after step 0, and ||W||, measured again
            # there, keeps every step certified.
            params = {**experiments.EXPERIMENTS["feasibility"].params, "d": 3, "iters": 8000}
            built = [experiments._feasibility_build(*job) for job in experiments.seeded_jobs(params, 0, 3)]
            datasets, cfg, refs = [b[0] for b in built], built[0][1], None
        elif case == "rate-check":
            datasets, cfg, refs = _rate_check_block(3)
        else:
            datasets, cfg, refs = _mixed_anchoring(att.LOG if case == "mixed-log" else att.SQUARED)
        assert case != "d<K" or datasets[0].d < datasets[0].K
        flags = _certified_and_not(monkeypatch, datasets, cfg, refs)
        assert all(flags)

    def test_a_run_past_the_bound_is_certified_once_below_it(self, monkeypatch):
        # TestTrainBlock's past-the-bound regime: trial 2 of the block starts
        # with its top score at 1.02 SCORE_BOUND, along its largest row, and
        # the certificate holds once ||W|| has fallen; alone, and in a block.
        datasets, refs, _ = _block_trials()
        group = att._pack([datasets[2]]).groups[0]
        w0 = _top_row_w(group) * (1.02 * att.SCORE_BOUND / att._lipschitz(group))
        assert np.max(att._scores(w0[None], group)) > att.SCORE_BOUND
        monkeypatch.setattr(att.TrainConfig, "initial_w", lambda self, d: w0.copy())
        cfg = att.TrainConfig(eta=0.5, iters=300, normalized=True, record_every=7)
        for members in ([2], [1, 2]):
            flags = _certified_and_not(monkeypatch, [datasets[b] for b in members], cfg, [refs[b] for b in members])
            assert not flags[0] and flags[-1]

    @pytest.mark.parametrize("name", ["desk", "large-K", "local", "refs"])
    def test_a_certified_w_scores_at_most_the_bound(self, name):
        # W along the largest score row, where the bound is tight, and a
        # random W, scaled so that the certificate's bound sits at 0.999 and
        # 1.001 of SCORE_BOUND: certified below, not above, and certified
        # scores stay at most SCORE_BOUND.
        packed = att._pack([_shape_dataset(name)])
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


class TestRecordAllocation:
    # Peak bytes (tracemalloc, numpy 2.4.6) of a plain step on the 20 desk
    # trials at seed 0 and the large-k trial, twice each the bound: the
    # scores of every group, the kernel call without the loss, then the
    # normalized update, g scaled by eta / ||g|| and subtracted from W.
    # The kernel's softmax divide and the update's product with the
    # (B, 1, 1) scales each take an iterator buffer the size of their
    # output, so a copy of W or of a
    # reshaped score array shows in the scores' bound, and a copy of the
    # desk block's features or gradient in the kernel's.
    PLAIN_PEAKS = {"cyclic-global": (808, 5040, 11488), "large-k": (808, 9392, 1248)}

    @staticmethod
    def _block(name):
        datasets, _, refs = _experiment_block(name, experiments.EXPERIMENTS[name].trials)
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
            loss, bar, grad, errors = att._loss_and_grad(stored, records, att.LOG, True, need_grad=False,
                                                         need_loss=True)
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
        g = att._loss_and_grad(w, packed, att.LOG, True, need_loss=False)[2]
        scale = (0.01 / np.linalg.norm(g, axis=(1, 2)))[:, None, None]  # eta / ||g||, as `_train_stack` scales
        peaks = self._peaks((lambda: [att._scores(w, group) for group in packed.groups],
                             lambda: att._loss_and_grad(w, packed, att.LOG, True, need_loss=False),
                             lambda: np.subtract(w, np.multiply(g, scale, out=g), out=w)))
        assert all(peak <= 2 * bound for peak, bound in zip(peaks, self.PLAIN_PEAKS[name])), peaks


def _split_and_fin(ds):
    tpgs = gm.build_tpgs(ds)
    decomps = gm.decompose_all(tpgs)
    s_fin = svm.fin_subspace(svm.build_constraints(tpgs, decomps, ds.embedding))
    return gm.cyclic_split(ds, dsm.index_sets(ds, decomps)), s_fin


def _refs_instance(i):
    """Instance i of the (20, 20, 60, 8) / (20, 10, 40, 8) cyclic corpus
    that the refs benchmark workload runs."""
    K, d, n, T = ((20, 20, 60, 8), (20, 10, 40, 8))[i % 2]
    seed = int(np.random.SeedSequence([0, i]).generate_state(1)[0])
    table = dsm.make_embeddings(K, d, dsm.UNIT_SPHERE, seed=seed)
    return dsm.gen_dataset(table, None, n=n, T=T, mode="cyclic", seed=seed)


def _assert_certified(res):
    assert res.status is att.WfinStatus.CERTIFIED
    assert res.residuals["bound"] <= att.WFIN_REL_BOUND * max(1.0, np.linalg.norm(res.w))


class TestTrainWfin:
    def test_acyclic_split_gives_zero(self):
        ds = tiny_instance(14, K=5, d=5, n=5, T=4, mode="acyclic")
        res = att.train_wfin(*_split_and_fin(ds))
        np.testing.assert_array_equal(res.w, np.zeros((5, 5)))
        assert res.status is att.WfinStatus.CERTIFIED and res.residuals["iterations"] == 0

    def test_symmetric_two_token_scc_gives_zero(self):
        # Labels 1 and 2 equally often with identical contexts: symmetry
        # forces equal logits, so the minimizer is the zero matrix.
        table = dsm.make_embeddings(3, 3, dsm.ORTHONORMAL, seed=0)
        head = dsm.make_head(table, dsm.TIED)
        ds = dsm.Dataset(embedding=table, head=head,
                         samples=(dsm.Sample(tokens=(1, 2), label=1),
                                  dsm.Sample(tokens=(1, 2), label=2)))
        split, s_fin = _split_and_fin(ds)
        assert not split.empty
        res = att.train_wfin(split, s_fin)
        _assert_certified(res)
        assert np.linalg.norm(res.w) <= 1e-8

    def test_multistart_uniqueness(self, cyclic_pipeline):
        pipe = cyclic_pipeline
        assert not pipe.split.empty
        rng = seeded_rng(15)
        for _ in range(10):
            coefs = rng.standard_normal(pipe.s_fin.dim)
            w0 = np.tensordot(coefs, pipe.s_fin.basis, axes=1)
            w = wfin_gd_oracle(pipe.split, pipe.s_fin, init_w=w0, grad_tol=1e-9)
            assert np.linalg.norm(w - pipe.w_fin) <= 1e-6

    def test_newton_beats_gd_oracle_on_refs_corpus(self):
        for i in range(8):
            split, s_fin = _split_and_fin(_refs_instance(i))
            assert not split.empty
            res = att.train_wfin(split, s_fin)
            _assert_certified(res)
            w_gd = wfin_gd_oracle(split, s_fin, grad_tol=1e-9)
            newton_g = np.linalg.norm(wfin_projected_grad(split, s_fin, res.w))
            gd_g = np.linalg.norm(wfin_projected_grad(split, s_fin, w_gd))
            assert newton_g < gd_g, i
            assert np.linalg.norm(w_gd - res.w) <= 1e-6 * np.linalg.norm(res.w), i

    def test_rounding_floor_split_is_certified(self):
        # cyclic-global trial 2 at seed 0: a dim-1 S_fin whose Newton
        # decrement stops falling at the rounding floor.
        tseed = trial_seed(0, 2)
        table = dsm.make_embeddings(6, 8, dsm.UNIT_SPHERE, seed=tseed)
        ds = dsm.gen_dataset(table, dsm.make_head(table, dsm.TIED), n=6, T=4, mode="cyclic", seed=tseed)
        split, s_fin = _split_and_fin(ds)
        assert s_fin.dim == 1 and not split.empty
        _assert_certified(att.train_wfin(split, s_fin))

    def test_no_finite_minimizer_is_not_certified(self):
        # One sample (0, 1) -> 0 queried against token 1, over the span of
        # (e_1 - e_0) e_1^T: the loss log(1 + exp(sqrt(2) z)) only reaches its
        # infimum as z -> -inf.
        table = dsm.make_embeddings(2, 2, dsm.ORTHONORMAL, seed=0)
        ds = dsm.Dataset(embedding=table, head=None, samples=(dsm.Sample(tokens=(0, 1), label=0),))
        split = gm.CyclicSplit(dataset=ds, idx_i=(0,), positions=((0, 1),))
        e = table.e
        s_fin = svm.MatrixSubspace(basis=(np.outer(e[1] - e[0], e[1]) / np.sqrt(2.0))[None], d=2)
        res = att.train_wfin(split, s_fin)
        assert res.status is att.WfinStatus.UNCERTIFIED
        assert not res.residuals["bound"] <= att.WFIN_REL_BOUND * max(1.0, np.linalg.norm(res.w))

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
        split, s_fin = _split_and_fin(_refs_instance(1))
        res = att.train_wfin(split, s_fin)
        grad_norm, mu = res.residuals["grad_norm"], res.residuals["mu"]
        assert grad_norm > 0.0
        _assert_certified(res)
        for factor, status in ((4.0, att.WfinStatus.UNCERTIFIED), (16.0, att.WfinStatus.CERTIFIED)):
            lip = mu**2 / (factor * grad_norm)
            monkeypatch.setattr(att, "_hessian_lipschitz", lambda dphi, n: lip)
            assert att.train_wfin(split, s_fin).status is status

    def test_build_pipeline_refuses_an_uncertified_w_fin(self, monkeypatch):
        train_wfin = att.train_wfin

        def uncertified(split, s_fin):
            return dataclasses.replace(train_wfin(split, s_fin), status=att.WfinStatus.UNCERTIFIED)

        monkeypatch.setattr(att, "train_wfin", uncertified)
        with pytest.raises(NoConvergence, match="uncertified"):
            build_pipeline(tiny_instance(3))


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
class TestWfinOracles:
    """W_fin's certificate and its padded Newton features against
    per-sample oracles, beyond the selftest's draws."""

    def test_certificate_rederived_sample_by_sample(self, name, seed):
        pipe = _wfin_draw(name, seed)
        _assert_certified(pipe.fin_result)
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


class TestCyclicLosses:
    def test_acyclic_split_trivial(self):
        ds = tiny_instance(16, K=5, d=5, n=5, T=4, mode="acyclic")
        split = gm.cyclic_split(ds, dsm.index_sets(ds, gm.decompose_all(gm.build_tpgs(ds))))
        assert att.loss_bar(np.ones((5, 5)), split) == 0.0
        assert att.loss_inf(split, np.zeros((5, 5))) == 0.0

    def test_loss_bar_scores_label_mass_under_a_general_head(self):
        # The head-scored label mass goes negative here, so the full-sample
        # log loss raises; loss_bar scores only the split's label-position
        # mass and matches the long-double reduced loss.
        datasets, refs = _local_block(att.SQUARED)
        held = [(ds, r.split) for ds, r in zip(datasets, refs) if not r.split.empty]
        assert len(held) == 2
        for ds, split in held:
            w = 3.0 * seeded_rng(21).standard_normal((ds.d, ds.d))
            with pytest.raises(DomainError, match="underflow"):
                att._one(w, att._pack([ds]), att.LOG, need_grad=False)
            want = split_loss(w.astype(np.longdouble), split, att.LOG)
            assert abs(att.loss_bar(w, split) - want) <= 1e-15 * want

    def test_loss_bar_depends_only_on_fin_projection(self, cyclic_pipeline):
        pipe = cyclic_pipeline
        rng = seeded_rng(17)
        for _ in range(10):
            w = rng.standard_normal((8, 8))
            a = att.loss_bar(w, pipe.split)
            b = att.loss_bar(pipe.s_fin.project(w), pipe.split)
            assert abs(a - b) <= 1e-10

    def test_ray_limit_reaches_loss_inf(self, cyclic_pipeline):
        pipe = cyclic_pipeline
        inf_val = att.loss_inf(pipe.split, pipe.w_fin)
        ray = pipe.w_fin + 50.0 * pipe.w_svm
        val = loss(ray, pipe.dataset, att.LOG)
        assert abs(val - inf_val) <= 1e-4
        assert val >= inf_val - 1e-12


class TestRegPath:
    def test_solution_sits_on_boundary(self, cyclic_pipeline):
        pipe = cyclic_pipeline
        points = att.reg_path(pipe.dataset, [0.5, 1.0], pipe.s_fin, pipe.s_svm)
        for p, radius in zip(points, [0.5, 1.0]):
            assert p.status is att.WfinStatus.CERTIFIED and p.residuals["radius"] == radius
            assert abs(np.linalg.norm(p.w) - radius) <= 1e-8

    def test_radii_must_increase(self, cyclic_pipeline):
        with pytest.raises(ValueError, match="increasing"):
            att.reg_path(cyclic_pipeline.dataset, [2.0, 1.0], cyclic_pipeline.s_fin, cyclic_pipeline.s_svm)

    def test_rejects_a_general_head(self):
        # Under a general head the log loss is not convex.
        pipe = build_pipeline(tiny_instance(3, head_kind=dsm.GENERAL_ARGMAX))
        with pytest.raises(ValueError, match="tied or absent head"):
            att.reg_path(pipe.dataset, [1.0, 2.0], pipe.s_fin, pipe.s_svm)

    def test_fin_projection_approaches_w_fin(self, cyclic_pipeline):
        pipe = cyclic_pipeline
        radii = list(np.geomspace(1.0, 200.0, 6))
        points = att.reg_path(pipe.dataset, radii, pipe.s_fin, pipe.s_svm)
        dists = [np.linalg.norm(pipe.s_fin.project(p.w) - pipe.w_fin) for p in points]
        assert dists[-1] <= dists[0]
        assert dists[-1] <= 0.1

    def test_interior_minimizer_is_w_fin(self):
        # One SCC: W_svm = 0 and the loss has its finite minimizer W_fin,
        # on the sphere of the small ball and inside the large one.
        pipe = build_pipeline(single_scc_dataset(seed=3))
        norm = np.linalg.norm(pipe.w_fin)
        small, large = att.reg_path(pipe.dataset, [norm / 4, 100.0], pipe.s_fin, pipe.s_svm)
        assert abs(np.linalg.norm(small.w) - norm / 4) <= 1e-12 * norm
        assert np.linalg.norm(large.w - pipe.w_fin) <= 1e-8 * norm
        for point in (small, large):
            _assert_ball_kkt(point, pipe.dataset)


def _assert_ball_kkt(point, ds):
    """A certified ball point against `ball_oracle`: inside the ball, its
    relative Frank-Wolfe gap, recomputed from the full long-double gradient,
    at most BALL_REL_GAP, and the first-order conditions that gap bounds.
    With a = ||W|| ||g|| + <g, W> and b = (r - ||W||) ||g||, both >= 0, the
    gap is (a + b) / f: on the sphere lam >= 0 up to the gap and
    ||g + lam W||^2 <= 2 a ||g|| / ||W||; inside it ||g|| <= gap f / (r - ||W||)."""
    radius = point.residuals["radius"]
    o = ball_oracle(point.w, ds, radius)
    # The float64 gap's rounding: a few ulps of radius ||g|| over f, where
    # ||g|| <= f max_t ||phi_t|| and ||phi_t|| <= 2 e_max^2.
    rounding = 16 * np.finfo(float).eps * radius * ds.embedding.e_max**2
    assert point.status is att.WfinStatus.CERTIFIED
    assert abs(o["gap"] - point.residuals["gap"]) <= rounding
    assert o["gap"] <= att.BALL_REL_GAP + rounding
    assert o["norm"] <= radius * (1 + 1e-12)
    allowed = (att.BALL_REL_GAP + rounding) * o["loss"]
    if o["norm"] >= radius * (1 - 1e-12):
        assert o["lam"] * o["norm"] ** 2 >= -allowed
        assert o["kkt"] ** 2 <= 2 * allowed * o["grad_norm"] / o["norm"]
    else:
        assert o["grad_norm"] * (radius - o["norm"]) <= allowed


# Two draws of each reg-path leg at its defaults, seed 0: the acyclic leg's
# trials 0 and 1 and the cyclic leg's 0 and 1 (trial indices 5 and 6).
REG_PATH_DRAWS = [("acyclic", 0), ("acyclic", 1), ("cyclic", 5), ("cyclic", 6)]


@pytest.mark.parametrize("mode,trial", REG_PATH_DRAWS)
def test_reg_path_points_meet_the_ball_kkt_conditions(mode, trial):
    p = experiments.EXPERIMENTS["reg-path"].params
    params = {**p, "mode": mode}
    if mode == "cyclic":
        params.update(K=p["cyc_K"], d=p["cyc_d"], n=p["cyc_n"], T=p["cyc_T"])
    ds, _, _, (_, pipe) = experiments._reg_path_build(params, trial_seed(0, trial))
    radii = list(np.geomspace(p["r_min"], p["r_max"], p["r_count"]))
    for point in att.reg_path(ds, radii, pipe.s_fin, pipe.s_svm):
        _assert_ball_kkt(point, ds)


class TestStasisAndNegativeCorrelation:
    def test_zero_svm_perp_component_static(self):
        ds = single_scc_dataset(seed=3)
        pipe = build_pipeline(ds)
        assert pipe.solution.norm == 0.0
        cfg = att.TrainConfig(eta=1.0 / att.lipschitz_log(ds), iters=1500,
                              init="gauss", init_scale=0.5, init_seed=3, record_every=1500)
        w0 = cfg.initial_w(ds.d)
        trace = att.train_gd(ds, cfg)
        drift = np.linalg.norm(
            pipe.s_fin.project_out(trace.w_final) - pipe.s_fin.project_out(w0)
        )
        assert drift <= 1e-9

    def test_gradient_negatively_correlated_with_svm(self, cyclic_pipeline):
        pipe = cyclic_pipeline
        assert pipe.solution.norm > 0
        rng = seeded_rng(19)
        for _ in range(50):
            w = 2.0 * rng.standard_normal((8, 8))
            g = att.grad(w, pipe.dataset, att.LOG)
            assert float(np.sum(g * pipe.w_svm)) < 0

    def test_norm_diverges_along_svm_subspace(self, cyclic_pipeline):
        # The svm-subspace component grows without bound: strictly increasing
        # after warmup, with the total norm far above its starting point.
        pipe = cyclic_pipeline
        w = np.zeros((8, 8))
        svm_norms = []
        for tau in range(1, 2001):
            g = att.grad(w, pipe.dataset, att.LOG)
            w = w - 0.01 * g / np.linalg.norm(g)
            if tau % 100 == 0:
                svm_norms.append(np.linalg.norm(pipe.s_svm.project(w)))
        assert np.all(np.diff(svm_norms) > 0)
        assert np.linalg.norm(w) > 10.0 * (0.0 + 1.0)

    def test_plain_gd_step_size_warning(self, cyclic_pipeline):
        big = 2.0 / att.lipschitz_log(cyclic_pipeline.dataset)
        cfg = att.TrainConfig(eta=big, iters=5, normalized=False, record_every=5)
        with pytest.warns(UserWarning, match="exceeds 1/L"):
            att.train_gd(cyclic_pipeline.dataset, cfg)
