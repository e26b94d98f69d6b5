"""The three benchmark workloads: inputs from a seed, one measured unit of
work, and the checks that make a fast but wrong unit count as failed.

``desk`` and ``large-k`` call ``experiments.run_experiment`` on the defaults
of ``cyclic-global`` and ``large-k``; ``refs`` calls
``experiments.build_pipeline`` on a fixed corpus of cyclic instances.
README.md in this directory records why each was chosen.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from attnlab import dataset, experiments, svm
from refclock import WallClock

EQ_TOL = 1e-6      # max |<(e_i - e_j) e_k^T, W_svm>| over equality triples
MARGIN_TOL = 1e-6  # min inequality margin must reach 1 - MARGIN_TOL
FIN_TOL = 1e-9     # relative distance of W_fin from S_fin


def derived_seed(*entropy: int) -> int:
    """A 32-bit seed from the benchmark's own stream, independent of
    attnlab's seeding helpers, so a change to the program cannot change
    the benchmark's inputs."""
    return int(np.random.SeedSequence([int(e) for e in entropy]).generate_state(1)[0])


# The warm-up input comes from its own stream, outside every workload's
# inputs, and is the same for every --seed so set-up does the same work.
WARMUP_SEED = derived_seed(0)
# Training steps of the warm-up trial: every code path runs, and a large-k
# set-up stays near 4 s instead of a full 11 s trial.
WARMUP_ITERS = 100


@dataclass
class Unit:
    """Outcome of one measured unit: trials, their time and their checks."""

    trials: int
    seconds: float                 # work time, wall seconds
    ref_seconds: float = 0.0       # work time, reference seconds (refclock.py)
    failed: int = 0
    failures: list[str] = field(default_factory=list)  # failed checks the program reports itself
    wrong: list[str] = field(default_factory=list)     # outputs an independent check rejects
    digest: str = ""
    corr_svm: Optional[float] = None
    dist_fin: Optional[float] = None


class StatusLog:
    """Keeps the status of every graph-SVM solve, so trials whose solver
    gave up count as failed even when nothing else reports it."""

    def __init__(self) -> None:
        self.statuses: list[svm.SolveStatus] = []
        self._original = svm.solve_graph_svm

        def logged(*args, **kwargs):
            out = self._original(*args, **kwargs)
            self.statuses.append(out.status)
            return out

        svm.solve_graph_svm = logged


class ExperimentWorkload:
    """Repeated ``run_experiment`` calls, each on its own derived seed."""

    def __init__(self, name: str, experiment: str, trials: int, seed: int, scratch: str,
                 params: Optional[dict] = None) -> None:
        self.name = name
        self.experiment = experiment
        self.trials = trials
        self.seed = seed
        self.scratch = scratch
        self.params = params or {}
        self.status_log = StatusLog()
        self.clock = WallClock()

    def prepare(self) -> None:
        """Inputs are the experiment configuration and per-call seeds; the
        program generates each trial's dataset itself."""

    def warmup(self) -> str:
        return self._call(WARMUP_SEED, 1, dict(self.params, iters=WARMUP_ITERS)).digest

    def run_unit(self, index: int, tracer=None) -> Unit:
        return self._call(derived_seed(self.seed, 1, index), self.trials, self.params)

    def _call(self, seed: int, trials: int, params: dict) -> Unit:
        out_dir = tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.scratch)
        config = experiments.ExperimentConfig(
            name=self.experiment, params=dict(params), thresholds={}, seed=seed,
            trials=trials, workers=1, output_dir=out_dir,
        )
        del self.status_log.statuses[:]
        try:
            with self.clock.unit() as timed:
                code, summary = experiments.run_experiment(config)
        except Exception as exc:  # a raising trial is a failed trial, not a crash
            shutil.rmtree(out_dir, ignore_errors=True)
            return Unit(trials, timed.work_s, timed.ref_s, failed=trials,
                        failures=[f"raised {exc!r}"])
        unit = Unit(trials, timed.work_s, timed.ref_s, corr_svm=_finite(summary.get("mean_corr")),
                    dist_fin=_finite(summary.get("mean_dist")))
        unsolved = sum(s is not svm.SolveStatus.SOLVED for s in self.status_log.statuses)
        if unsolved:
            unit.failed = unsolved
            unit.failures.append(f"seed {seed}: {unsolved} graph-SVM solves not SOLVED")
        if code != 0 or summary["violations"]:
            unit.failed = trials
            unit.failures.append(f"seed {seed}: exit {code}, violations {summary['violations']}")
        digest = hashlib.sha256()
        for artifact in ("summary.json", "aggregate.csv"):
            with open(os.path.join(out_dir, artifact), "rb") as fh:
                digest.update(fh.read())
        unit.digest = digest.hexdigest()
        shutil.rmtree(out_dir)
        return unit


def _finite(x) -> Optional[float]:
    return float(x) if x is not None and np.isfinite(x) else None


REFS_SHAPES = ((20, 20, 60, 8), (20, 10, 40, 8))  # (K, d, n, T)
REFS_CORPUS = 8
REFS_CORPUS_SEED = 0


class RefsWorkload:
    """``build_pipeline`` over a fixed corpus of cyclic instances that
    alternates a full-row-rank shape and a d < K shape.

    Instance cost spans an order of magnitude between draws, so a corpus
    drawn per seed would spread throughput by 20-30% between seeds; the
    corpus is fixed, kept as drawn, and the seed sets the order it is
    processed in.
    """

    name = "refs"

    def __init__(self, seed: int, shapes=REFS_SHAPES, corpus: int = REFS_CORPUS) -> None:
        self.seed = seed
        self.shapes = shapes
        self.corpus_size = corpus
        self.corpus: list[dataset.Dataset] = []
        self.warm: Optional[dataset.Dataset] = None
        self.clock = WallClock()

    def _instance(self, index: int) -> dataset.Dataset:
        K, d, n, T = self.shapes[index % len(self.shapes)]
        seed = derived_seed(REFS_CORPUS_SEED, index)
        table = dataset.make_embeddings(K, d, dataset.UNIT_SPHERE, seed=seed)
        return dataset.gen_dataset(table, None, n=n, T=T, mode=dataset.CYCLIC, seed=seed)

    def prepare(self) -> None:
        self.corpus = [self._instance(i) for i in range(self.corpus_size)]
        self.warm = self._instance(self.corpus_size)

    def warmup(self) -> str:
        pipe = experiments.build_pipeline(self.warm)
        return hashlib.sha256(_ref_bytes(pipe)).hexdigest()

    def run_unit(self, index: int, tracer=None) -> Unit:
        order = np.random.default_rng([self.seed, index]).permutation(self.corpus_size)
        unit = Unit(trials=self.corpus_size, seconds=0.0)
        refs: dict[int, bytes] = {}
        for i in order:
            if tracer is not None:
                tracer.trial = int(i)
            try:
                with self.clock.unit() as timed:
                    pipe = experiments.build_pipeline(self.corpus[i])
            except Exception as exc:  # a raising instance is a failed trial
                unit.failed += 1
                unit.failures.append(f"instance {i}: raised {exc!r}")
                refs[i] = repr(exc).encode()
                continue
            finally:
                unit.seconds += timed.work_s
                unit.ref_seconds += timed.ref_s
            refs[i] = _ref_bytes(pipe)
            problem = check_refs(pipe)
            if problem:
                unit.failed += 1
                unit.wrong.append(f"instance {i}: {problem}")
            elif pipe.solution.status is not svm.SolveStatus.SOLVED:
                unit.failed += 1
                unit.failures.append(f"instance {i}: {pipe.solution.status.value}")
        if tracer is not None:
            tracer.trial = None
        digest = hashlib.sha256()
        for i in sorted(refs):
            digest.update(refs[i])
        unit.digest = digest.hexdigest()
        return unit


def _ref_bytes(pipe: experiments.Pipeline) -> bytes:
    return np.ascontiguousarray(pipe.w_svm).tobytes() + np.ascontiguousarray(pipe.w_fin).tobytes()


def check_refs(pipe: experiments.Pipeline) -> str:
    """Direct arithmetic on the constraint triples for a SOLVED W_svm, and
    membership of W_fin in S_fin; returns what failed, or ''."""
    problems = []
    if pipe.solution.status is svm.SolveStatus.SOLVED:
        e = pipe.dataset.embedding.e
        w = pipe.w_svm

        def values(triples):
            t = np.array(triples, dtype=np.int64).reshape(-1, 3)
            return np.einsum("ad,de,ae->a", e[t[:, 0]] - e[t[:, 1]], w, e[t[:, 2]])

        eq = values(pipe.constraints.equalities)
        ineq = values(pipe.constraints.inequalities)
        max_eq = float(np.max(np.abs(eq))) if len(eq) else 0.0
        min_ineq = float(np.min(ineq)) if len(ineq) else np.inf
        if max_eq > EQ_TOL:
            problems.append(f"W_svm equality residual {max_eq:.3e}")
        if min_ineq < 1.0 - MARGIN_TOL:
            problems.append(f"W_svm inequality margin {min_ineq:.9f}")
    w_fin = pipe.w_fin
    off = float(np.linalg.norm(w_fin - pipe.s_fin.project(w_fin)))
    if off > FIN_TOL * max(1.0, float(np.linalg.norm(w_fin))):
        problems.append(f"W_fin leaves S_fin by {off:.3e}")
    return "; ".join(problems)


TINY = {
    "desk": dict(iters=200, record_every=50),
    "large-k": dict(K=60, d=8, n=4, T=8, iters=200, record_every=50),
    "refs": dict(shapes=((6, 6, 8, 4), (6, 4, 8, 4)), corpus=2),
}


def make(name: str, seed: int, scratch: str, tiny: bool = False):
    if name == "desk":
        return ExperimentWorkload("desk", "cyclic-global", 2 if tiny else 20, seed, scratch,
                                  TINY["desk"] if tiny else None)
    if name == "large-k":
        return ExperimentWorkload("large-k", "large-k", 1, seed, scratch,
                                  TINY["large-k"] if tiny else None)
    if name == "refs":
        return RefsWorkload(seed, **(TINY["refs"] if tiny else {}))
    raise KeyError(name)
