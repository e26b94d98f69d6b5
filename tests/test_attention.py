"""Forward pass, losses, gradients, the log-loss smoothness bound, and trainers.

Every test here reaches attnlab through its public names and the adapters
of helpers.py; the checks that must read the kernel's or the trainer's
internals are written in test_internals.py and collected here under their
ids, as bases of this module's classes or bound to its names.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from attnlab import attention as att
from attnlab import dataset as dsm
from attnlab import experiments
from attnlab import graph as gm
from attnlab import svm
from attnlab.errors import DomainError, NoConvergence
from attnlab.experiments import build_pipeline, single_scc_dataset, trial_seed
from attnlab.util import seeded_rng

from helpers import (
    SHAPES,
    assert_wfin_certified,
    ball_oracle,
    block_trials,
    corr_oracle,
    dist_fin_oracle,
    einsum_grad,
    einsum_loss,
    experiment_block,
    extended,
    gd_oracle,
    kernel,
    last_tokens,
    log_or_local_block,
    refs_instance,
    shape_dataset,
    split_and_fin,
    split_loss,
    split_top_score,
    straight_line_loss,
    straight_train_gd,
    tiny_instance,
    top_score,
    trace_bytes,
    trial_build,
    wfin_gd_oracle,
    wfin_projected_grad,
)
from test_internals import (
    AnchoredSoftmaxCertificates,
    KernelOracleCertificates,
    PackStructure as TestPackStructure,
    RecordAllocation as TestRecordAllocation,
    RowSums as TestRowSums,
    Scratch as TestScratch,
    ScoreCertificate as TestScoreCertificate,
    StackRefs as TestStackRefs,
    TrainBlockCertificates,
    TrainGdCertificates,
    TrainWfinCertificates,
    WfinOracles as TestWfinOracles,
)


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
        val = att.loss(np.zeros((4, 4)), ds, att.LOG)
        assert abs(val - np.log(4.0)) <= 1e-12
        # Headless, the label twice among T = 4: label-position mass 1/2.
        ds = dsm.Dataset(embedding=table, head=None,
                         samples=(dsm.Sample(tokens=(2, 3, 2, 1), label=2),))
        val = att.loss(np.zeros((4, 4)), ds, att.LOG)
        assert abs(val - np.log(2.0)) <= 1e-12

    def test_all_label_tokens_zero_loss(self):
        table = dsm.make_embeddings(3, 3, dsm.ORTHONORMAL, seed=0)
        head = dsm.make_head(table, dsm.TIED)
        ds = dsm.Dataset(embedding=table, head=head,
                         samples=(dsm.Sample(tokens=(2, 2, 2), label=2),))
        assert abs(att.loss(np.zeros((3, 3)), ds, att.LOG)) <= 1e-12

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
            got = att.loss(w, ds, kind)
            want = straight_line_loss(w, ds, kind)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_log_domain_guard(self):
        # A non-realizable sample has zero label mass under a tied head.
        table = dsm.make_embeddings(4, 4, dsm.ORTHONORMAL, seed=0)
        head = dsm.make_head(table, dsm.TIED)
        ds = dsm.Dataset(embedding=table, head=head,
                         samples=(dsm.Sample(tokens=(1, 2, 3), label=0),))
        with pytest.raises(DomainError):
            att.loss(np.zeros((4, 4)), ds, att.LOG)
        with pytest.raises(DomainError):
            att.grad(np.zeros((4, 4)), ds, att.LOG)
        # The squared loss stays finite and the gradient vanishes.
        assert abs(att.loss(np.zeros((4, 4)), ds, att.SQUARED) - 1.0) <= 1e-12
        np.testing.assert_allclose(att.grad(np.zeros((4, 4)), ds, att.SQUARED), 0.0, atol=1e-15)

    def test_cross_entropy_without_a_head_is_refused(self):
        # Cross-entropy reads the classifier head, so a headless dataset is
        # a config error: loss, grad and train_gd raise it, not a value.
        ds = tiny_instance(0, K=4, d=5, n=4, T=4, head_kind="none")
        w = np.zeros((5, 5))
        config = att.TrainConfig(eta=0.1, iters=3, loss=att.CROSS_ENTROPY)
        for call in (lambda: att.loss(w, ds, att.CROSS_ENTROPY), lambda: att.grad(w, ds, att.CROSS_ENTROPY),
                     lambda: att.train_gd(ds, config)):
            with pytest.raises(ValueError, match="cross-entropy loss requires a classifier head"):
                call()

    @pytest.mark.parametrize("evaluate", [att.loss, att.grad], ids=["loss", "grad"])
    def test_an_unknown_kind_is_refused(self, evaluate):
        ds = tiny_instance(0, K=4, d=5, n=4, T=4)
        with pytest.raises(ValueError, match="undefined for kind 'bogus'"):
            evaluate(np.zeros((5, 5)), ds, "bogus")


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
        worst = 0.0
        for seed in range(50):
            kind = [att.LOG, att.SQUARED, att.CROSS_ENTROPY][seed % 3]
            # Log scores must stay positive, which the tied head guarantees.
            head_kind = dsm.TIED if (seed % 2 == 0 or kind == att.LOG) else dsm.GENERAL_ARGMAX
            ds = tiny_instance(seed, K=3, d=4, n=3, T=3, head_kind=head_kind)
            w = 0.6 * rng.standard_normal((4, 4))
            fd = experiments.fd_grad(w, ds, kind)
            worst = max(worst, np.linalg.norm(att.grad(w, ds, kind) - fd) / max(np.linalg.norm(fd), 1e-10))
        assert worst < 1e-5


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
class TestKernelOracle(KernelOracleCertificates):
    @pytest.mark.parametrize("name,kind", ORACLE_CASES)
    def test_matches_einsum_oracle(self, name, kind):
        # A moderate W, then W scaled so its top score sits just below and
        # just above SCORE_BOUND: the unshifted softmax at its extreme, and
        # the shifted one.  There the squared and cross-entropy gradients
        # cancel (gamma - u, back - E_s[back]) to far below their terms, so
        # only the log gradients are held to the bound at those scales.
        ds = shape_dataset(name)
        w = 0.5 * seeded_rng(14).standard_normal((ds.d, ds.d))
        top = top_score(w, ds)
        packed = extended([ds])
        for scale in (1.0, 0.999 * att.SCORE_BOUND / top, 1.001 * att.SCORE_BOUND / top):
            w_s = scale * w
            w_ext = w_s.astype(np.longdouble)
            want = einsum_loss(w_ext, packed, kind)
            assert abs(att.loss(w_s, ds, kind) - want) <= 1e-15 * abs(want)
            if scale != 1.0 and kind != att.LOG:
                continue
            got = att.grad(w_s, ds, kind)
            for reduced_log in (True, False) if kind == att.LOG else (True,):
                want = einsum_grad(w_ext, packed, kind, reduced_log)
                assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("name,kind", [("desk", att.LOG), ("local", att.SQUARED), ("local", att.CROSS_ENTROPY)])
    def test_groups_of_several_lengths_sum_into_one_gradient(self, name, kind):
        # Samples cut to lengths T, T - 1 and T - 2, each keeping its last
        # label occurrence: the kernel adds one gradient term per length.
        ds = shape_dataset(name)
        T = len(ds.samples[0].tokens)
        last_label = [max((t for t, tok in enumerate(s.tokens) if tok == s.label), default=T - 1) for s in ds.samples]
        ds = last_tokens(ds, [max(T - i % 3, T - t) for i, t in enumerate(last_label)])
        assert len({s.T for s in ds.samples}) > 1
        w = 0.5 * seeded_rng(14).standard_normal((ds.d, ds.d))
        packed = extended([ds])
        w_ext = w.astype(np.longdouble)
        got = att.grad(w, ds, kind)
        for reduced_log in (True, False) if kind == att.LOG else (True,):
            want = einsum_grad(w_ext, packed, kind, reduced_log)
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("name", ["desk", "large-K"])
    def test_normalized_gd_follows_the_long_double_loop(self, name):
        ds = shape_dataset(name)
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
        ds = shape_dataset(name)
        if kind == att.CROSS_ENTROPY and ds.head is None:  # cross-entropy needs a head; K > d rules out make_head
            head = dsm.ClassifierHead(c=seeded_rng(16).standard_normal((ds.K, ds.d)), kind=dsm.GENERAL_ARGMAX)
            ds = dataclasses.replace(ds, head=head)
        w = self.SCALES * seeded_rng(15).standard_normal((3, ds.d, ds.d))
        full_loss, _, full_grad, full_errors = kernel(w, [ds] * 3, kind)
        loss, loss_bar, grad, errors = kernel(w, [ds] * 3, kind, score=False)
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
        ds = shape_dataset("desk")
        split = split_and_fin(ds)[0]
        s0 = ds.samples[0]
        cut = dsm.Sample(tokens=tuple((t + 1) % ds.K if t == s0.label else t for t in s0.tokens), label=s0.label)
        datasets = [ds] * 3 + [dataclasses.replace(ds, samples=(cut, *ds.samples[1:]))]
        splits = [split] * 3 + [None]
        w = np.append(self.SCALES, 0.5)[:, None, None] * seeded_rng(15).standard_normal((4, ds.d, ds.d))
        assert len({s.T for s in ds.samples}) == 1 and not split.empty and s0.label not in cut.tokens
        assert [top_score(w[b], datasets[b]) > att.SCORE_BOUND for b in range(4)] == [False, True, False, False]
        for score in (True, False):
            *block, errors = kernel(w, datasets, kind, splits, score=score)
            for b in range(4):
                *alone, alone_errors = kernel(w[b:b + 1], datasets[b:b + 1], kind, splits[b:b + 1], score=score)
                for got, want in zip(block, alone):
                    assert (got is None and want is None) or got[b].tobytes() == want[0].tobytes()
                assert _errors({0: errors[b]} if b in errors else {}) == _errors(alone_errors)
            assert sorted(errors) == ([1, 3] if kind == att.LOG else [])


class TestAnchoredSoftmax(AnchoredSoftmaxCertificates):
    @pytest.mark.parametrize("name", ["desk", "large-K"])
    def test_errors_at_the_bound_need_no_loss(self, name):
        # The top score just below SCORE_BOUND (no shift: the label mass and
        # its guard are skipped in a step), just above it, and at
        # 1.2 SCORE_BOUND, where the label mass underflows LOG_GUARD.
        ds = shape_dataset(name)
        w = seeded_rng(15).standard_normal((ds.d, ds.d))
        top = top_score(w, ds)
        for factor, failing in ((0.999, False), (1.001, False), (1.2, True)):
            w_s = (factor * att.SCORE_BOUND / top) * w
            with_loss, without = (_errors(kernel(w_s[None], [ds], att.LOG, score=score)[3])
                                  for score in (True, False))
            assert with_loss == without and sorted(without) == ([0] if failing else [])
            if failing:
                assert without[0][0] is DomainError and "underflow" in without[0][1]

    @pytest.mark.parametrize("kind", [att.LOG, att.SQUARED, att.CROSS_ENTROPY])
    def test_loss_bar_is_its_definition_near_and_past_the_bound(self, kind):
        # The dataset's top score just below and just above SCORE_BOUND,
        # then the split positions' top score at 1.2 SCORE_BOUND, where an
        # unshifted exp overflows (the log loss's label mass underflows).
        ds = shape_dataset("desk")
        split = split_and_fin(ds)[0]
        w = seeded_rng(19).standard_normal((ds.d, ds.d))
        tops = [top_score(w, ds), split_top_score(w, split)]
        for factor, on in ((0.999, 0), (1.001, 0), (1.2, 1)):
            if kind == att.LOG and on == 1:
                continue
            w_s = (factor * att.SCORE_BOUND / tops[on]) * w
            got = kernel(w_s[None], [ds], kind, [split])[1][0]
            want = split_loss(w_s.astype(np.longdouble), split, kind)
            assert abs(got - want) <= 1e-15 * want
            if kind == att.LOG:
                assert abs(att.loss_bar(w_s, split) - want) <= 1e-15 * want

    def test_a_non_realizable_sample_fails_at_step_0(self):
        # A tied log loss whose sample lacks its label: its zero label mass
        # fails the guard at W = 0, as a kernel step reports.
        table = dsm.make_embeddings(4, 4, dsm.ORTHONORMAL, seed=0)
        bad = dsm.Dataset(embedding=table, head=dsm.make_head(table, dsm.TIED),
                          samples=(dsm.Sample(tokens=(1, 2, 3), label=0), dsm.Sample(tokens=(0, 2, 1), label=0)))
        errors = kernel(np.zeros((1, 4, 4)), [bad], att.LOG, score=False)[3]
        assert list(errors) == [0]
        with pytest.raises(DomainError) as exc:
            att.train_gd(bad, att.TrainConfig(eta=0.1, iters=10, normalized=True))
        assert str(exc.value) == str(errors[0]) == "log-loss argument underflow: min score 0.000e+00"


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


class TestTrainGd(TrainGdCertificates):
    def test_descent_with_inverse_lipschitz_step(self):
        assert experiments.descent_violations(tiny_instance(13, K=4, d=5, n=4, T=4), 300) == 0

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
        ds = shape_dataset(name)
        cfg = att.TrainConfig(eta=0.01, iters=20, normalized=True, loss=kind, record_every=1)
        trace = att.train_gd(ds, cfg)
        assert list(trace.iters) == list(range(21))
        for t in range(21):
            w_t = att.train_gd(ds, dataclasses.replace(cfg, iters=t)).w_final
            assert trace.loss[t] == att.loss(w_t, ds, kind)


class TestTrainBlock(TrainBlockCertificates):
    @pytest.mark.parametrize("normalized,eta,init_scale", [
        pytest.param(True, 0.05, None, id="True-0.05"),
        pytest.param(False, 0.25, None, id="False-0.25"),
        # Trial 1 starts with its top score past SCORE_BOUND and falls below
        # it by step 11; trial 2 starts just below it.
        pytest.param(True, 0.5, 205.0, id="past-the-bound"),
    ])
    def test_block_traces_equal_train_gd_bit_for_bit(self, normalized, eta, init_scale):
        datasets, refs, pipes = block_trials()
        assert len({(ds.K, ds.d, ds.head.kind, tuple(s.T for s in ds.samples)) for ds in datasets}) == 1
        assert pipes[0].solution.norm > 0 and pipes[0].s_fin.dim == 1
        assert pipes[1].solution.norm == 0 and pipes[1].s_fin.dim == 2
        assert pipes[2].split.empty
        cfg = att.TrainConfig(eta=eta, iters=300, normalized=normalized, record_every=7)
        if init_scale is not None:
            cfg = dataclasses.replace(cfg, init="gauss", init_scale=init_scale)
        alone = [att.train_gd(ds, cfg, r) for ds, r in zip(datasets, refs)]
        if init_scale is not None:
            start, end = ([top_score(w, ds) for ds in datasets] for w in (cfg.initial_w(4), alone[1].w_final))
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
                assert trace_bytes(got) == trace_bytes(want)

    @pytest.mark.parametrize("kind", [att.LOG, att.SQUARED, att.CROSS_ENTROPY])
    def test_record_loss_bar_is_its_definition(self, kind):
        # The block trials (log) and the local-* block each hold samples
        # outside their split; a trial without references reads NaN.
        datasets, refs = log_or_local_block(kind)
        datasets, refs = datasets + datasets[:1], refs + [None]
        assert any(0 < len(r.split.idx_i) < ds.n for ds, r in zip(datasets, refs) if r is not None)
        assert any(r.split.empty for r in refs if r is not None)
        cfg = att.TrainConfig(eta=0.01, iters=0, init="gauss", init_scale=0.7, init_seed=18, loss=kind)
        traces = att.train_block(datasets, cfg, refs)
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

    def test_a_loss_bar_underflow_fails_its_trial(self):
        # The desk draw's sample 0 split on one non-label position alone:
        # its split softmax gives the label no mass, so loss_bar's log loss
        # underflows at step 0, where only a scoring looks.  That trial fails
        # with the underflow, and the trial beside it trains as alone.
        ds = shape_dataset("desk")
        s0 = ds.samples[0]
        position = next(i for i, token in enumerate(s0.tokens) if token != s0.label)
        refs = att.TrainRefs(split=gm.CyclicSplit(dataset=ds, idx_i=(0,), positions=((position,),)))
        cfg = att.TrainConfig(eta=0.01, iters=20, normalized=True, record_every=5)
        with pytest.raises(DomainError, match="log-loss argument underflow: min score 0.000e"):
            att.train_gd(ds, cfg, refs)
        failed, alone = att.train_block([ds, ds], cfg, [refs, None])
        assert isinstance(failed, DomainError) and "underflow" in str(failed)
        assert trace_bytes(alone) == trace_bytes(att.train_gd(ds, cfg))

    @pytest.mark.parametrize("kind", [att.LOG, att.SQUARED, att.CROSS_ENTROPY])
    def test_training_raises_no_floating_point_exception(self, kind):
        # Empty splits, samples outside a split, a trial without references
        # and a cross-entropy head, with every numpy floating-point error
        # and every warning turned into an exception.
        datasets, refs = log_or_local_block(kind)
        cfg = att.TrainConfig(eta=0.05, iters=300, normalized=True, record_every=7, loss=kind)
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            traces = att.train_block(datasets + datasets[:1], cfg, refs + [None])
        assert all(isinstance(t, att.TrainTrace) for t in traces)
        assert np.all(np.isfinite(traces[0].loss_bar)) and np.all(np.isnan(traces[-1].loss_bar))

    def test_refuses_a_split_of_another_dataset(self):
        datasets, refs, _ = block_trials()
        cfg = att.TrainConfig(eta=0.05, iters=3, normalized=True)
        with pytest.raises(ValueError, match="cyclic split of another dataset"):
            att.train_gd(datasets[6], cfg, refs[0])

    def test_mixed_structures_train_as_alone(self):
        datasets = [shape_dataset("desk"), tiny_instance(3, T=4), shape_dataset("desk", seed=1)]
        cfg = att.TrainConfig(eta=0.01, iters=40, normalized=True, record_every=10)
        block = att.train_block(datasets, cfg)
        for got, ds in zip(block, datasets):
            assert trace_bytes(got) == trace_bytes(att.train_gd(ds, cfg))

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
        assert trace_bytes(block[0]) == trace_bytes(att.train_gd(good, cfg))

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
        datasets, refs = log_or_local_block(kind)
        cfg = att.TrainConfig(eta=0.05, iters=self.CHUNK_ITERS[records], normalized=True, record_every=3, loss=kind)
        block = att.train_block(datasets, cfg, refs)
        for trace, ds, r in zip(block, datasets, refs):
            rows, w_final = straight_train_gd(ds, cfg, r)
            assert len(rows) == {"one-record": 1, "chunk-minus-one": att.RECORD_CHUNK - 1, "one-chunk": att.RECORD_CHUNK,
                                 "chunk-plus-one": att.RECORD_CHUNK + 1, "off-grid": att.RECORD_CHUNK + 2}[records]
            assert np.column_stack(trace.columns()).astype(np.float64).tobytes() == rows.tobytes()
            assert trace.w_final.tobytes() == w_final.tobytes()
        assert records != "off-grid" or list(block[0].iters[-2:]) == [cfg.iters - 1, cfg.iters]

    def test_recorded_diagnostics_equal_their_definitions(self):
        # The first five desk trials at seed 0 have S_fin dims 0, 2, 1, 1
        # and 0.  Trial 3 trains without its W_svm and a sixth trial, trial
        # 0's dataset, without references.
        datasets, cfg, refs = experiment_block("cyclic-global", 5)
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


class TestTrainWfin(TrainWfinCertificates):
    def test_acyclic_split_gives_zero(self):
        ds = tiny_instance(14, K=5, d=5, n=5, T=4, mode="acyclic")
        res = att.train_wfin(*split_and_fin(ds))
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
        split, s_fin = split_and_fin(ds)
        assert not split.empty
        res = att.train_wfin(split, s_fin)
        assert_wfin_certified(res)
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
            split, s_fin = split_and_fin(refs_instance(i))
            assert not split.empty
            res = att.train_wfin(split, s_fin)
            assert_wfin_certified(res)
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
        split, s_fin = split_and_fin(ds)
        assert s_fin.dim == 1 and not split.empty
        assert_wfin_certified(att.train_wfin(split, s_fin))

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
        datasets, refs = log_or_local_block(att.SQUARED)
        held = [(ds, r.split) for ds, r in zip(datasets, refs) if not r.split.empty]
        assert len(held) == 2
        for ds, split in held:
            w = 3.0 * seeded_rng(21).standard_normal((ds.d, ds.d))
            with pytest.raises(DomainError, match="underflow"):
                att.loss(w, ds, att.LOG)
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
        val = att.loss(ray, pipe.dataset, att.LOG)
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
    ds, _, _, (_, pipe) = trial_build("reg-path", params, trial_seed(0, trial))
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

