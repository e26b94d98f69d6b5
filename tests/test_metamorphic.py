"""Metamorphic checks: relabeling the vocabulary changes nothing.

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
"""

import dataclasses

import numpy as np
import pytest

from attnlab import attention as att
from attnlab import dataset as dsm
from attnlab.experiments import build_pipeline
from attnlab.util import seeded_rng

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


def _close(a, b):
    """Equal NaN masks, and the finite entries within REL of the larger."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert np.array_equal(np.isnan(a), np.isnan(b))
    ok = ~np.isnan(a)
    assert np.all(np.abs(a[ok] - b[ok]) <= REL * np.fmax(np.abs(a[ok]), np.abs(b[ok])))


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
