"""Forward pass, losses, gradients, the log-loss smoothness bound, and trainers."""

import dataclasses
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
    einsum_grad,
    einsum_loss,
    extended,
    fd_grad,
    gd_oracle,
    grad_general,
    loss,
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

    @pytest.mark.parametrize("name", ["desk", "large-K"])
    def test_normalized_gd_follows_the_long_double_loop(self, name):
        ds = _shape_dataset(name)
        cfg = att.TrainConfig(eta=0.01, iters=500, normalized=True, record_every=500)
        got = att.train_gd(ds, cfg).w_final
        want = gd_oracle(ds, cfg)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


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


def _infinite_from_step_7(trial):
    """The kernel, with one trial's loss turned infinite from its eighth call
    on, in the calls that compute the loss."""
    fused, calls = att._loss_and_grad, []

    def patched(w, packed, kind, reduced_log, need_grad=True, need_loss=True):
        value, bar, g, errors = fused(w, packed, kind, reduced_log, need_grad, need_loss)
        calls.append(None)
        if len(calls) > 7 and value is not None:
            value = value.copy()
            value[trial] = np.inf
        return value, bar, g, errors

    return patched


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
            assert np.array(list(trace.rows()), dtype=np.float64).tobytes() == rows.tobytes()
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
        calls, kernel = [], att._loss_and_grad
        monkeypatch.setattr(att, "_loss_and_grad", lambda *args, **kw: calls.append(1) or kernel(*args, **kw))
        traces = att.train_block(datasets, cfg, refs)
        assert len(calls) == 1
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
        # through it; the loss is asked for on record steps alone.
        datasets = [_shape_dataset("desk", seed) for seed in range(3)]
        cfg = att.TrainConfig(eta=0.01, iters=25, normalized=True, record_every=10)
        calls, kernel = [], att._loss_and_grad
        monkeypatch.setattr(att, "_loss_and_grad", lambda *args, **kw: calls.append(kw["need_loss"]) or kernel(*args, **kw))
        att.train_block(datasets, cfg)
        assert len(calls) == 26
        assert [tau for tau, record in enumerate(calls) if record] == [0, 10, 20, 25]

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
        # The loss turns infinite at step 7 and fails at the record step 10;
        # the steps after it are not taken.  The trace holds the records up
        # to step 5 and the W of step 10.
        monkeypatch.setattr(att, "_loss_and_grad", _infinite_from_step_7(trial=0))
        calls, kernel = [], att._loss_and_grad
        monkeypatch.setattr(att, "_loss_and_grad", lambda *args, **kw: calls.append(1) or kernel(*args, **kw))
        cfg = att.TrainConfig(eta=0.01, iters=20, normalized=True, record_every=5)
        with pytest.raises(NonFiniteLoss, match="loss became non-finite at iteration 10") as exc:
            att.train_gd(_shape_dataset("desk"), cfg)
        assert len(calls) == 11
        monkeypatch.undo()
        clean = att.train_gd(_shape_dataset("desk"), dataclasses.replace(cfg, iters=5))
        at_fail = att.train_gd(_shape_dataset("desk"), dataclasses.replace(cfg, iters=10))
        got = exc.value.trace
        assert _trace_bytes(dataclasses.replace(got, w_final=clean.w_final)) == _trace_bytes(clean)
        assert got.w_final.tobytes() == at_fail.w_final.tobytes()


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
    assert res.bound <= att.WFIN_REL_BOUND * max(1.0, np.linalg.norm(res.w))


class TestTrainWfin:
    def test_acyclic_split_gives_zero(self):
        ds = tiny_instance(14, K=5, d=5, n=5, T=4, mode="acyclic")
        res = att.train_wfin(*_split_and_fin(ds))
        np.testing.assert_array_equal(res.w, np.zeros((5, 5)))
        assert res.status is att.WfinStatus.CERTIFIED and res.iterations == 0

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
        assert not res.bound <= att.WFIN_REL_BOUND * max(1.0, np.linalg.norm(res.w))

    def test_hessian_lipschitz_bound_holds(self, cyclic_pipeline):
        # ||H(z) - H(z')||_2 <= M ||z - z'|| on random pairs, far and near.
        feats, n = att._fin_features(cyclic_pipeline.split, cyclic_pipeline.s_fin)
        lip = att._hessian_lipschitz(feats, n)
        rng = seeded_rng(20)
        for scale in (3.0, 0.01):
            for _ in range(20):
                z1, z2 = rng.standard_normal((2, cyclic_pipeline.s_fin.dim))
                z2 = z1 + scale * z2
                h1, h2 = att._fin_terms(feats, z1, n)[1], att._fin_terms(feats, z2, n)[1]
                assert np.linalg.norm(h1 - h2, 2) <= lip * np.linalg.norm(z1 - z2)

    def test_certificate_needs_the_curvature_condition(self, monkeypatch):
        # M at which 8 M ||g|| is twice mu^2, then half of it.
        split, s_fin = _split_and_fin(_refs_instance(1))
        res = att.train_wfin(split, s_fin)
        assert res.grad_norm > 0.0
        _assert_certified(res)
        for factor, status in ((4.0, att.WfinStatus.UNCERTIFIED), (16.0, att.WfinStatus.CERTIFIED)):
            lip = res.mu**2 / (factor * res.grad_norm)
            monkeypatch.setattr(att, "_hessian_lipschitz", lambda feats, n: lip)
            assert att.train_wfin(split, s_fin).status is status

    def test_build_pipeline_refuses_an_uncertified_w_fin(self, monkeypatch):
        train_wfin = att.train_wfin

        def uncertified(split, s_fin):
            return dataclasses.replace(train_wfin(split, s_fin), status=att.WfinStatus.UNCERTIFIED)

        monkeypatch.setattr(att, "train_wfin", uncertified)
        with pytest.raises(NoConvergence, match="uncertified"):
            build_pipeline(tiny_instance(3))


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
        cfg = att.TrainConfig(eta=0.2, iters=3000, loss=att.LOG)
        points = att.reg_path(pipe.dataset, [0.5, 1.0], cfg)
        for p in points:
            assert abs(np.linalg.norm(p.w) - p.radius) <= 1e-8

    def test_radii_must_increase(self, cyclic_pipeline):
        cfg = att.TrainConfig(eta=0.2, iters=100)
        with pytest.raises(ValueError):
            att.reg_path(cyclic_pipeline.dataset, [2.0, 1.0], cfg)

    def test_rejects_a_non_convex_loss(self, cyclic_pipeline):
        cfg = att.TrainConfig(eta=0.2, iters=100, loss=att.SQUARED)
        with pytest.raises(ValueError, match="'squared'"):
            att.reg_path(cyclic_pipeline.dataset, [1.0, 2.0], cfg)

    def test_fin_projection_approaches_w_fin(self, cyclic_pipeline):
        pipe = cyclic_pipeline
        cfg = att.TrainConfig(eta=0.2, iters=2000, loss=att.LOG)
        radii = list(np.geomspace(1.0, 200.0, 6))
        points = att.reg_path(pipe.dataset, radii, cfg)
        dists = [np.linalg.norm(pipe.s_fin.project(p.w) - pipe.w_fin) for p in points]
        assert dists[-1] <= dists[0]
        assert dists[-1] <= 0.1


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
