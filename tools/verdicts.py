"""Graph-SVM verdicts on a fixed corpus of instances.

    python tools/verdicts.py OUT [--smoke]

Solves each instance with the attnlab found on the path (PYTHONPATH) and
writes OUT, one JSON object keyed by instance name, holding per instance
its status, its NNLS sweeps, its kept-row count (``essential``) and
``W_svm``.  Every instance is a headless cyclic draw whose embedding table
and data share one seed:

- ``refs-i``, i < 8: the benchmark's ``refs`` corpus, (20, 20, 60, 8) for
  even i and (20, 10, 40, 8) for odd i;
- ``pinned-SEED``: five small instances that stress the solver's
  degenerate and undecided paths;
- ``neardup-SEED``: five draws of `neardup`, a unit-sphere table whose
  first two rows are nearly equal, one for each fallback branch of the NNLS
  that they reach;
- ``large-k-SEED``, seeds 0-2: the ``large-k`` shape (1000, 32, 16, 64);
- ``draw-i``, i < 600 (not with ``--smoke``): shapes drawn from
  ``seeded_rng(2025)`` over K 4-20, d 2-10, n 4-40 and T 3-8, with seed
  100000 + i.

``tools/equiv.py`` runs this script against each tree's ``src`` and
compares the two files: a status that changes reads DIFFERENT, and a move
in ``W_svm`` or the sweeps reads numeric.  The tests read the corpus from
here too.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from attnlab import dataset, graph, svm
from attnlab.util import frozen, seeded_rng

REFS_SHAPES = ((20, 20, 60, 8), (20, 10, 40, 8))
PINNED = (((10, 4, 19, 5), 1036), ((11, 4, 17, 4), 1052), ((7, 4, 14, 6), 1086),
          ((10, 4, 19, 5), 1251), ((11, 4, 17, 4), 1280))
NEARDUP = (2, 129, 852, 1472, 1631)
LARGE_K = (1000, 32, 16, 64)
DRAWS = 600


def refs_shape(i: int) -> tuple[int, int, int, int, int]:
    """(K, d, n, T, seed) of instance i of the benchmark's ``refs`` corpus."""
    return (*REFS_SHAPES[i % 2], int(np.random.SeedSequence([0, i]).generate_state(1)[0]))


def draws(count: int = DRAWS) -> list[tuple[int, int, int, int, int]]:
    """(K, d, n, T, seed) of the first count seeded draws."""
    rng = seeded_rng(2025)
    return [(int(rng.integers(4, 21)), int(rng.integers(2, 11)), int(rng.integers(4, 41)), int(rng.integers(3, 9)),
             100000 + i) for i in range(count)]


def instances(smoke: bool = False) -> dict[str, tuple[int, int, int, int, int]]:
    """Every instance of the corpus by name; ``smoke`` leaves out the draws."""
    named = {f"refs-{i}": refs_shape(i) for i in range(8)}
    named.update({f"pinned-{seed}": (*shape, seed) for shape, seed in PINNED})
    named.update({f"large-k-{seed}": (*LARGE_K, seed) for seed in range(3)})
    if not smoke:
        named.update({f"draw-{i}": shape for i, shape in enumerate(draws())})
    return named


def constraints(K: int, d: int, n: int, T: int, seed: int) -> svm.ConstraintSet:
    """The constraint set of a headless cyclic draw with one seed for the
    table and the data."""
    table = dataset.make_embeddings(K, d, dataset.UNIT_SPHERE, seed=seed)
    return _constraints(dataset.gen_dataset(table, None, n=n, T=T, mode="cyclic", seed=seed))


def _constraints(ds: dataset.Dataset) -> svm.ConstraintSet:
    tpgs = graph.build_tpgs(ds)
    return svm.build_constraints(tpgs, graph.decompose_all(tpgs), ds.embedding)


def neardup(seed: int) -> svm.ConstraintSet:
    """The constraint set of a headless cyclic draw whose unit-sphere table
    has its row 1 within 10^-U(2, 8) of row 0, before both are normalized;
    the shape is drawn too, K 5-15, d 3-6, n 6-59 and T 3-7."""
    rng = np.random.default_rng([2043, 0, seed])
    K, d = int(rng.integers(5, 16)), int(rng.integers(3, 7))
    g = rng.standard_normal((K, d))
    g[1] = g[0] + 10.0 ** -rng.uniform(2, 8) * rng.standard_normal(d)
    e = g / np.linalg.norm(g, axis=1, keepdims=True)
    table = dataset.EmbeddingTable(e=frozen(e), kind=dataset.UNIT_SPHERE,
                                   rank=int(np.linalg.matrix_rank(e, tol=1e-10)))
    ds = dataset.gen_dataset(table, None, n=int(rng.integers(6, 60)), T=int(rng.integers(3, 8)), mode="cyclic",
                             seed=seed)
    return _constraints(ds)


def verdict(sol: svm.Solution) -> dict:
    return {"status": sol.status.value, "sweeps": int(sol.residuals["sweeps"]),
            "essential": int(sol.residuals["essential"]), "w_svm": sol.w.tolist()}


def dumps(result: dict[str, dict]) -> str:
    """The verdicts as JSON, one instance a line."""
    return "{\n" + ",\n".join(f" {json.dumps(name)}: {json.dumps(v)}" for name, v in result.items()) + "\n}\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("out", help="the JSON file to write")
    parser.add_argument("--smoke", action="store_true", help="leave out the 600 draws")
    args = parser.parse_args(argv)
    result = {name: verdict(svm.solve_graph_svm(constraints(*shape)))
              for name, shape in instances(args.smoke).items()}
    result.update({f"neardup-{seed}": verdict(svm.solve_graph_svm(neardup(seed))) for seed in NEARDUP})
    with open(args.out, "w") as fh:
        fh.write(dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
