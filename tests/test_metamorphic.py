"""Metamorphic checks: the references and the trainer respect the
problem's symmetries.  Every check reaches attnlab through public names.

Relabeling the vocabulary changes nothing.

Permute the token ids, the embedding rows and the tied head's rows
together.  Every score x_t^T W xbar keeps its value, so the references
and every GD iterate stay the same: the solver statuses are equal, the
trained W's and the trace columns computed from them alone (loss,
grad_norm, w_norm, w_final) are equal bit for bit, and corr_svm and
dist_fin, which read W_svm, S_fin and W_fin, agree to 1e-11 relative.
This holds each training step's per-row and per-trial arithmetic
(softmax row sums, gradient sums, the per-trial scale) to the rows'
values, not their order in the vocabulary.

The draws are fixed: six cyclic-global shapes (6, 8, 6, 4) with a tied
head at seeds 40-45, outside the seeds 0-19 that the prototype of this
check used, each relabeled by a permutation from seed 1000 + its seed,
trained by plain GD at 1/L and by normalized GD at eta = 0.01 for 1,000
steps.

Reordering the samples, or taking every sample twice, changes nothing
either, since only means over the samples enter: the statuses are equal,
W_svm, W_fin and S_fin's projector agree to 1e-11 relative, and plain GD's
loss, loss_bar, grad_norm, w_norm and w_final to 1e-12 (corr_svm and
dist_fin, which read the references, to 1e-11).  Rotating the embeddings,
x_k -> Q x_k with Q orthogonal and a tied head's rows with them, keeps
every score x_t^T W xbar under W -> Q W Q^T: the statuses are equal, the
references map by it to 1e-11 relative, and the rotated instance's own
KKT or Farkas certificate holds (`helpers.assert_certified`).  These draws
are fixed too: the desk shape at seeds 60-65 and the headless
(20, 10, 40, 8) refs shape at seeds 60-62, each reordered by a
permutation from seed 2000 + its seed and rotated by a Q from seed
3000 + its seed, and plain GD for 1,000 steps at the smaller 1/L of the
copies (two 1/L may differ in the last bit, and a step above one of them
warns).
"""

import dataclasses

import numpy as np
import pytest

from attnlab import attention as att
from attnlab import dataset as dsm
from attnlab.experiments import build_pipeline
from attnlab.util import seeded_rng

from helpers import assert_certified

SEEDS = range(40, 46)
K, D, N, T = 6, 8, 6, 4
ITERS, RECORD_EVERY = 1000, 10
REL = 1e-11
EXACT = ("loss", "grad_norm", "w_norm")


def _draw(seed):
    table = dsm.make_embeddings(K, D, dsm.UNIT_SPHERE, seed=seed)
    return dsm.gen_dataset(table, dsm.make_head(table, dsm.TIED), n=N, T=T, mode="cyclic", seed=seed)


def _relabeled(ds, perm):
    """ds with token k renamed perm[k]: its embedding row and head row move
    with it, so every sample's rows keep their values."""
    e = np.empty_like(ds.embedding.e)
    e[perm] = ds.embedding.e
    c = np.empty_like(ds.head.c)
    c[perm] = ds.head.c
    samples = tuple(dsm.Sample(tokens=tuple(int(perm[t]) for t in s.tokens), label=int(perm[s.label]))
                    for s in ds.samples)
    return dataclasses.replace(ds, embedding=dataclasses.replace(ds.embedding, e=e),
                               head=dataclasses.replace(ds.head, c=c), samples=samples)


@pytest.fixture(scope="module")
def draws():
    """Per draw: the dataset, its relabeled copy and both pipelines."""
    out = []
    for seed in SEEDS:
        ds = _draw(seed)
        moved = _relabeled(ds, seeded_rng(1000 + seed).permutation(K))
        out.append((ds, moved, build_pipeline(ds), build_pipeline(moved)))
    return out


def _close(a, b, rel=REL):
    """Equal NaN masks, and the finite entries within rel of the larger."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert np.array_equal(np.isnan(a), np.isnan(b))
    ok = ~np.isnan(a)
    assert np.all(np.abs(a[ok] - b[ok]) <= rel * np.fmax(np.abs(a[ok]), np.abs(b[ok])))


def test_the_draws_exercise_both_references(draws):
    # A floor fixed with the draws: some W_svm and some S_fin are nonzero,
    # so corr_svm and dist_fin compare numbers, not NaN or constants.
    assert sum(p.solution.norm > 0 for _, _, p, _ in draws) >= 3
    assert sum(p.s_fin.dim > 0 for _, _, p, _ in draws) >= 1


def test_relabeling_keeps_the_references(draws):
    for _, _, pipe, moved in draws:
        assert pipe.solution.status == moved.solution.status
        assert pipe.fin_result.status == moved.fin_result.status
        assert pipe.s_fin.dim == moved.s_fin.dim
        _close(pipe.w_svm, moved.w_svm)
        _close(pipe.w_fin, moved.w_fin)


@pytest.mark.parametrize("normalized", [False, True], ids=["plain", "normalized"])
def test_relabeling_keeps_every_trained_bit(draws, normalized):
    datasets = [ds for ds, _, _, _ in draws]
    moved = [m for _, m, _, _ in draws]
    # One step size for both copies: 1/L reads only e_max, which a
    # permutation of the rows keeps.
    eta = 0.01 if normalized else min(1.0 / att.lipschitz_log(ds) for ds in datasets + moved)
    cfg = att.TrainConfig(eta=eta, iters=ITERS, normalized=normalized, record_every=RECORD_EVERY)
    base = att.train_block(datasets, cfg, [p.refs() for _, _, p, _ in draws])
    other = att.train_block(moved, cfg, [p.refs() for _, _, _, p in draws])
    for got, want in zip(other, base):
        assert not isinstance(got, Exception) and not isinstance(want, Exception)
        for name in EXACT:
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert got.w_final.tobytes() == want.w_final.tobytes()
        _close(got.corr_svm, want.corr_svm)
        _close(got.dist_fin, want.dist_fin)


COPY_SEEDS = [("desk", seed) for seed in range(60, 66)] + [("refs", seed) for seed in range(60, 63)]
COPY_SHAPES = {"desk": (K, D, N, T, dsm.TIED), "refs": (20, 10, 40, 8, None)}
TRAINED = ("loss", "loss_bar", "grad_norm", "w_norm")
TRAIN_REL = 1e-12


def _copy_draw(shape, seed):
    k, d, n, t, head_kind = COPY_SHAPES[shape]
    table = dsm.make_embeddings(k, d, dsm.UNIT_SPHERE, seed=seed)
    head = None if head_kind is None else dsm.make_head(table, head_kind)
    return dsm.gen_dataset(table, head, n=n, T=t, mode="cyclic", seed=seed)


def _reordered(ds, seed):
    perm = seeded_rng(2000 + seed).permutation(ds.n)
    return dataclasses.replace(ds, samples=tuple(ds.samples[i] for i in perm))


def _duplicated(ds, seed):
    return dataclasses.replace(ds, samples=ds.samples + ds.samples)


def _rotation(d, seed):
    q, r = np.linalg.qr(seeded_rng(3000 + seed).standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def _rotated(ds, q):
    """ds with every embedding row x_k, and a head's rows, mapped to Q x_k."""
    head = None if ds.head is None else dataclasses.replace(ds.head, c=ds.head.c @ q.T)
    return dataclasses.replace(ds, embedding=dataclasses.replace(ds.embedding, e=ds.embedding.e @ q.T), head=head)


def _projector(s_fin):
    flat = s_fin.basis.reshape(s_fin.dim, -1)
    return flat.T @ flat


def _near(a, b, rel=REL):
    """Within rel of the larger Frobenius norm."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert np.linalg.norm(a - b) <= rel * max(np.linalg.norm(a), np.linalg.norm(b)), np.linalg.norm(a - b)


@pytest.fixture(scope="module")
def copies():
    """Per draw: the dataset and its pipeline, then each copy's."""
    out = []
    for shape, seed in COPY_SEEDS:
        ds = _copy_draw(shape, seed)
        out.append({name: (c, build_pipeline(c)) for name, c in (("base", ds), ("reordered", _reordered(ds, seed)),
                                                                 ("duplicated", _duplicated(ds, seed)))})
    return out


def test_the_copied_draws_exercise_both_references(copies):
    pipes = [draw["base"][1] for draw in copies]
    assert sum(p.solution.norm > 0 for p in pipes) >= 3 and sum(p.s_fin.dim > 0 for p in pipes) >= 1


@pytest.mark.parametrize("copy", ["reordered", "duplicated"])
def test_sample_order_and_multiplicity_keep_the_references(copies, copy):
    for draw in copies:
        pipe, other = draw["base"][1], draw[copy][1]
        assert pipe.solution.status == other.solution.status
        assert pipe.fin_result.status == other.fin_result.status
        assert pipe.s_fin.dim == other.s_fin.dim
        _near(pipe.w_svm, other.w_svm)
        _near(pipe.w_fin, other.w_fin)
        if pipe.s_fin.dim:
            _near(_projector(pipe.s_fin), _projector(other.s_fin))


@pytest.mark.parametrize("copy", ["reordered", "duplicated"])
def test_sample_order_and_multiplicity_keep_plain_gd(copies, copy):
    desk = [draw for (shape, _), draw in zip(COPY_SEEDS, copies) if shape == "desk"]
    pairs = [(draw["base"], draw[copy]) for draw in desk]
    eta = min(1.0 / att.lipschitz_log(ds) for pair in pairs for ds, _ in pair)
    cfg = att.TrainConfig(eta=eta, iters=ITERS, record_every=RECORD_EVERY)
    for (ds, pipe), (other, other_pipe) in pairs:
        got, want = att.train_gd(other, cfg, other_pipe.refs()), att.train_gd(ds, cfg, pipe.refs())
        for name in TRAINED:
            _close(getattr(got, name), getattr(want, name), TRAIN_REL)
        _near(got.w_final, want.w_final, TRAIN_REL)
        _close(got.corr_svm, want.corr_svm)
        _close(got.dist_fin, want.dist_fin)


def test_rotation_keeps_the_references_and_their_certificates(copies):
    for (shape, seed), draw in zip(COPY_SEEDS, copies):
        ds, pipe = draw["base"]
        q = _rotation(ds.d, seed)
        moved = build_pipeline(_rotated(ds, q))
        assert moved.solution.status == pipe.solution.status
        assert moved.fin_result.status == pipe.fin_result.status
        assert moved.s_fin.dim == pipe.s_fin.dim
        assert_certified(moved.constraints, moved.solution)
        _near(moved.w_svm, q @ pipe.w_svm @ q.T)
        _near(moved.w_fin, q @ pipe.w_fin @ q.T)

