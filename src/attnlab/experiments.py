"""Named experiment pipelines, artifact writing, the self-test suite and
the measures it shares with the acceptance criteria.

Each experiment resolves a parameter set, runs its trials in one process
(trial t drawing from trial_seed(seed, t)), aggregates, writes a manifest plus
CSV/JSON artifacts, and checks its embedded thresholds.  Threshold
violations surface as a nonzero exit through the CLI.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import analysis, attention, graph, svm
from .dataset import (
    GENERAL_ARGMAX,
    TIED,
    UNIT_SPHERE,
    Dataset,
    IndexSets,
    Sample,
    gen_dataset,
    index_sets,
    make_embeddings,
    make_head,
)
from .errors import NoConvergence
from .util import seeded_rng, write_csv, write_json

VERSION = "0.1.0"


def trial_seed(seed: int, trial: int) -> int:
    """Deterministic per-trial master seed, independent across trials."""
    return int(np.random.SeedSequence([int(seed), int(trial)]).generate_state(1)[0])


class Pipeline:
    """The paper's chain on one dataset: TPGs -> SCCs -> index sets and
    constraints -> W_svm and S_fin -> cyclic split -> W_fin.

    Each stage is built on its first read and kept.  ``tpgs`` defaults to
    the dataset's own graphs; pseudo graphs give the local references.
    """

    def __init__(self, dataset: Dataset, tpgs: dict | None = None) -> None:
        self.dataset = dataset
        if tpgs is not None:
            self.tpgs = tpgs  # fills the stage, so its builder never runs

    @functools.cached_property
    def tpgs(self) -> dict:
        return graph.build_tpgs(self.dataset)

    @functools.cached_property
    def decomps(self) -> dict:
        return graph.decompose_all(self.tpgs)

    @functools.cached_property
    def sets(self) -> IndexSets:
        return index_sets(self.dataset, self.decomps)

    @functools.cached_property
    def constraints(self) -> svm.ConstraintSet:
        return svm.build_constraints(self.tpgs, self.decomps, self.dataset.embedding)

    @functools.cached_property
    def solution(self) -> svm.Solution:
        return svm.solve_graph_svm(self.constraints)

    @functools.cached_property
    def feasibility(self) -> svm.Solution:
        """Feasibility of the constraints: the paper's d >= K construction
        when it checks (`svm.explicit_solution`), else this pipeline's own
        graph-SVM verdict unchanged: MAX_ITER stays undecided, and
        INFEASIBLE keeps its Farkas weights."""
        return svm.explicit_solution(self.constraints) or self.solution

    @functools.cached_property
    def s_fin(self) -> svm.MatrixSubspace:
        return svm.fin_subspace(self.constraints)

    @functools.cached_property
    def split(self) -> graph.CyclicSplit:
        return graph.cyclic_split(self.dataset, self.sets)

    @functools.cached_property
    def fin_result(self) -> svm.Solution:
        return attention.train_wfin(self.split, self.s_fin)

    @functools.cached_property
    def s_active(self) -> svm.MatrixSubspace:
        return svm.active_subspace(self.tpgs, self.dataset.embedding)

    @functools.cached_property
    def s_svm(self) -> svm.MatrixSubspace:
        return svm.svm_subspace(self.s_active, self.s_fin)

    @property
    def w_svm(self) -> np.ndarray:
        return self.solution.w

    @property
    def w_fin(self) -> np.ndarray:
        return self.fin_result.w

    def refs(self) -> attention.TrainRefs:
        """Training references; a W_svm the solver did not certify is never one."""
        solution = self.solution.require("graph-SVM solve")
        return attention.TrainRefs(
            w_svm=self.w_svm if solution.norm > 0 else None,
            s_fin=self.s_fin,
            w_fin=self.w_fin,
            split=self.split,
        )


def build_pipeline(dataset: Dataset) -> Pipeline:
    """A pipeline whose W_svm and W_fin are solved in this call; raises
    NoConvergence unless W_fin is certified: a split built from dataset
    graphs has a finite minimizer."""
    pipe = Pipeline(dataset)
    pipe.solution  # solved inside this call, as W_fin is below
    pipe.fin_result.require("W_fin solve")
    return pipe


def single_scc_dataset(K: int = 3, d: int = 4, seed: int = 0) -> Dataset:
    """Dataset whose only graph is one strongly connected component, so the
    SVM solution is zero and training never leaves S_fin."""
    table = make_embeddings(K, d, UNIT_SPHERE, seed=seed)
    samples = (
        Sample(tokens=(0, 1, 2), label=0),
        Sample(tokens=(1, 0, 2), label=1),
        Sample(tokens=(2, 0, 2), label=2),
    )
    head = make_head(table, TIED) if d >= K else None
    return Dataset(embedding=table, head=head, samples=samples, seed=seed)


# ---------------------------------------------------------------------------
# Trial kinds.  A build returns (dataset, TrainConfig or None, TrainRefs or
# None, state); a finish takes that and the trial's TrainTrace, or None.
# ---------------------------------------------------------------------------


def _pipeline_build(params: dict, ds: Dataset, loss: str) -> tuple:
    """A trial trained against its own pipeline's references, kept as its
    state.  The TrainConfig comes first, so a bad setting stops the run
    before any pipeline is built."""
    cfg = attention.TrainConfig(eta=params["eta"], iters=params["iters"], normalized=params["normalized"],
                                loss=loss, record_every=params["record_every"])
    pipe = build_pipeline(ds)
    return ds, cfg, pipe.refs(), pipe


def _global_build(params: dict, tseed: int) -> tuple:
    """A trial of cyclic-global, acyclic-global or large-k: a tied head when
    ``head`` is "tied" and the table has full row rank, else none."""
    if params["head"] not in (TIED, "none"):
        raise ValueError(f"parameter 'head' must be {TIED!r} or 'none', got {params['head']!r}")
    table = make_embeddings(params["K"], params["d"], UNIT_SPHERE, seed=tseed)
    head = make_head(table, TIED) if params["head"] == TIED and table.full_row_rank else None
    ds = gen_dataset(table, head, n=params["n"], T=params["T"], mode=params["mode"], seed=tseed)
    return _pipeline_build(params, ds, params["loss"])


def _finite_or_none(x) -> Optional[float]:
    return float(x) if np.isfinite(x) else None


def _global_finish(built: tuple, trace: attention.TrainTrace) -> dict:
    """The trace's last record, an undefined value as None, and the loss's infimum."""
    _, _, refs, pipe = built
    return {
        "final_corr": _finite_or_none(trace.corr_svm[-1]),
        "final_dist": _finite_or_none(trace.dist_fin[-1]),
        "final_loss": _finite_or_none(trace.loss[-1]),
        "loss_inf": attention.loss_inf(refs.split, refs.w_fin),
        "w_svm_norm": pipe.solution.norm,
        "trace": trace.columns(),
    }


def _local_build(params: dict, tseed: int) -> tuple:
    """Local-convergence trial: general head, squared or CE loss, pseudo refs.

    Unit head rows keep token scores below one so the squared loss saturates
    instead of settling on a finite score-one mixture.
    """
    table = make_embeddings(params["K"], params["d"], UNIT_SPHERE, seed=tseed)
    head = make_head(table, GENERAL_ARGMAX, noise=params["head_noise"], seed=tseed, unit_rows=True)
    ds = gen_dataset(table, head, n=params["n"], T=params["T"], mode="cyclic", seed=tseed)
    _, cfg, refs, pipe = _pipeline_build(params, ds, params["loss"])
    return ds, cfg, refs, (pipe, params["eps"])


def _local_finish(built: tuple, trace: attention.TrainTrace) -> dict:
    ds, _, _, (pipe, eps) = built
    w_gd = trace.w_final
    local = Pipeline(ds, analysis.pseudo_tpgs(w_gd, ds, eps=eps))
    local.solution.require("pseudo graph-SVM solve")
    # Pseudo splits carry no finite-minimizer guarantee: an uncertified W_fin
    # is recorded as such and gives no distance.
    certified = local.fin_result.status is svm.WfinStatus.CERTIFIED
    return {
        "corr_global": attention.correlation(w_gd, pipe.w_svm),
        "corr_local": attention.correlation(w_gd, local.w_svm),
        "dist_global": pipe.s_fin.distance(w_gd, pipe.w_fin),
        "dist_local": local.s_fin.distance(w_gd, local.w_fin) if certified else np.nan,
        "wfin_status": local.fin_result.status.value,
        "trace": trace.columns(),
    }


def _draw(params: dict, tseed: int, mode: str = "cyclic", tied: bool = False) -> Dataset:
    """A trial's embedding table and dataset, headless or with a tied head."""
    table = make_embeddings(params["K"], params["d"], UNIT_SPHERE, seed=tseed)
    head = make_head(table, TIED) if tied else None
    return gen_dataset(table, head, n=params["n"], T=params["T"], mode=mode, seed=tseed)


def _feasibility_build(params: dict, tseed: int) -> tuple:
    """Per-sample fraction of label-SCC tokens the trained attention retains.

    Trains headless, so d < K is well defined.  The log loss never drives a
    label-SCC token's probability to exact zero, so "retained" means
    clearing a fixed fraction of the uniform share 1/T (eps=None gives
    0.15/T, mirroring the fixed 1e-3 cutoff the full-scale runs use at
    T = 128).  When d is too small to equalize within-SCC logits some of
    that mass collapses and the proportion dips; it reaches 1 at d = K,
    where the graph constraints separate exactly.
    """
    ds = _draw(params, tseed)
    cfg = attention.TrainConfig(eta=params["eta"], iters=params["iters"], normalized=True,
                                record_every=max(1, params["iters"]))
    eps = params["eps"] if params["eps"] is not None else 0.15 / params["T"]
    return ds, cfg, None, (Pipeline(ds).sets, eps)


def _feasibility_finish(built: tuple, trace: attention.TrainTrace) -> dict:
    ds, _, _, (sets, eps) = built
    props = []
    for i, s in enumerate(ds.samples):
        x = ds.embedding.e[list(s.tokens)]
        probs, _ = attention.forward(x, trace.w_final, x[-1])
        props.append(sum(1 for t in sets.r[i] if probs[t] >= eps) / len(sets.r[i]))
    return {"props": props}


def _rate_check_build(params: dict, tseed: int) -> tuple:
    """A tied draw trained by plain GD at its block's eta (`rate_check_jobs`)."""
    built = _pipeline_build(params, _draw(params, tseed, tied=True), attention.LOG)
    if built[3].solution.norm == 0:
        raise ValueError(f"the rate-check draw of seed {tseed} has a zero SVM solution; change the seed")
    return built


def _rate_check_finish(built: tuple, trace: attention.TrainTrace) -> dict:
    """The bound's inputs, and at every recorded tau >= 1 the loss gap above
    loss_inf and the rate bound, as columns."""
    ds, cfg, _, pipe = built
    inf_val = attention.loss_inf(pipe.split, pipe.w_fin)
    inputs = analysis.rate_bound_inputs(ds, pipe.sets, pipe.w_svm, pipe.w_fin)
    checked = trace.iters >= 1
    taus = trace.iters[checked].tolist()
    bound = np.array([analysis.rate_bound(inputs, tau, cfg.eta) for tau in taus], dtype=np.float64)
    draw = {"seed": ds.seed, "xi": inputs.xi, "w_fin_norm": inputs.w_fin_norm, "loss_inf": inf_val}
    return {"draw": draw, "tau": taus, "gap": trace.loss[checked] - inf_val, "bound": bound, "trace": trace.columns()}


def _reg_path_build(params: dict, tseed: int) -> tuple:
    ds = _draw(params, tseed, params["mode"], tied=True)
    pipe = build_pipeline(ds)
    return ds, None, pipe.refs(), (params, pipe)


def _reg_path_finish(built: tuple, trace: None) -> dict:
    ds, _, refs, (params, pipe) = built
    with np.errstate(invalid="ignore"):  # a radius <= 0 gives NaNs, which reg_path refuses
        radii = list(np.geomspace(params["r_min"], params["r_max"], params["r_count"]))
    points = [p.require("ball solve") for p in attention.reg_path(ds, radii, pipe.s_fin, pipe.s_svm)]
    corr = [attention.correlation(p.w, refs.w_svm) for p in points]
    dist = [refs.s_fin.distance(p.w, refs.w_fin) for p in points]
    return {"radii": radii, "corr": corr, "dist": dist, "gap": [p.residuals["gap"] for p in points]}


def _scc_count_build(params: dict, tseed: int) -> tuple:
    return _draw(params, tseed), None, None, None


def _scc_count_finish(built: tuple, trace: None) -> dict:
    """Total SCC count over the graphs of one cyclic dataset of size n."""
    return {"sccs": sum(d.n_components for d in Pipeline(built[0]).decomps.values())}


class _TrialKind(NamedTuple):
    """A trial kind of `run_trials`: every kind, global, local, feasibility,
    rate-check, reg-path and scc-count, has its build and its finish in
    one table, `_KINDS`, which `_trial_worker` reads."""

    build: Callable[[dict, int], tuple]
    finish: Callable[[tuple, attention.TrainTrace | None], dict]


_KINDS: dict[str, _TrialKind] = {
    "global": _TrialKind(_global_build, _global_finish),
    "local": _TrialKind(_local_build, _local_finish),
    "feasibility": _TrialKind(_feasibility_build, _feasibility_finish),
    "rate-check": _TrialKind(_rate_check_build, _rate_check_finish),
    "reg-path": _TrialKind(_reg_path_build, _reg_path_finish),
    "scc-count": _TrialKind(_scc_count_build, _scc_count_finish),
}


def _trial_worker(kind: str, jobs: list[tuple[dict, int]]) -> list[dict]:
    """A block of (params, seed) jobs of one kind: built one by one, trained
    together in one `train_block` call when the builds give a TrainConfig,
    which they must share, and finished one by one.  Raises the first error
    in trial order, as running the trials one by one would."""
    build, finish = _KINDS[kind]
    built, error = [], None
    for params, seed in jobs:
        try:
            built.append(build(params, seed))
        except Exception as exc:  # raised once the trials before it are done
            error = exc
            break
    configs = {b[1] for b in built}
    if len(configs) > 1:
        raise ValueError(f"a block of {kind} trials must share one training config")
    traces = [None] * len(built)
    if configs - {None}:
        traces = attention.train_block([b[0] for b in built], built[0][1], [b[2] for b in built])
    results = []
    for b, trace in zip(built, traces):
        if isinstance(trace, Exception):
            raise trace
        results.append(finish(b, trace))
    if error is not None:
        raise error
    return results


def seeded_jobs(params: dict, seed: int, trials: int) -> list[tuple[dict, int]]:
    """One (params, trial_seed(seed, t)) job per trial."""
    return [(params, trial_seed(seed, t)) for t in range(trials)]


def run_trials(kind: str, jobs: list[tuple[dict, int]]) -> list[dict]:
    """Run one `kind` trial per (params, seed) job, all in one
    `_trial_worker` block; results come back in job order."""
    return _trial_worker(kind, jobs)


# ---------------------------------------------------------------------------
# Experiment registry.
# ---------------------------------------------------------------------------


# The type of a declared default -> what a given value must be, and the
# types it may have (a bool is not an integer, but an integer is a number).
_VALUE_TYPES: dict[type, tuple[str, tuple[type, ...]]] = {
    bool: ("a boolean", (bool,)),
    int: ("an integer", (int,)),
    float: ("a number", (int, float)),
    str: ("a string", (str,)),
    list: ("a list", (list,)),
    type(None): ("a number or null", (int, float, type(None))),
}


@dataclass
class ExperimentConfig:
    name: str
    params: dict
    thresholds: dict
    seed: int = 0
    trials: int = 0  # 0 means: use the experiment default
    workers: int = 1  # kept for callers that pass workers=1; no other count is accepted
    output_dir: str = "out"
    check: bool = True

    def resolved(self) -> "ExperimentConfig":
        if self.trials < 0:
            raise ValueError(f"trials must be >= 0 (0 uses the experiment default), got {self.trials}")
        if self.workers != 1:
            raise ValueError(f"workers must be 1: every experiment runs in one process, "
                             f"and the process pool is removed; got {self.workers}")
        spec = EXPERIMENTS[self.name]
        for kind, given, declared in (("parameter", self.params, spec.params),
                                      ("threshold", self.thresholds, spec.thresholds)):
            unknown = sorted(set(given) - set(declared))
            if unknown:
                raise ValueError(f"{self.name} has no {kind} {', '.join(map(repr, unknown))}; "
                                 f"it declares {', '.join(sorted(declared)) or 'none'}")
            for key, value in given.items():
                # A list's elements are checked against the declared list's first.
                checks = [(repr(key), value, declared[key])]
                if isinstance(value, list) and declared[key]:
                    checks += [(f"{key!r}[{i}]", v, declared[key][0]) for i, v in enumerate(value)]
                for name, v, default in checks:
                    expected, types = _VALUE_TYPES[type(default)]
                    if isinstance(v, bool) != (bool in types) or not isinstance(v, types):
                        raise ValueError(f"{self.name} {kind} {name} must be {expected}, got {v!r}")
        return replace(
            self,
            params={**spec.params, **self.params},
            thresholds={**spec.thresholds, **self.thresholds},
            trials=self.trials if self.trials > 0 else spec.trials,
        )


@dataclass(frozen=True)
class ExperimentSpec:
    params: dict
    thresholds: dict
    trials: int
    runner: Callable


@dataclass
class ExperimentResult:
    """A run's summary, its aggregate.csv as columns by header name, in
    order (`util.write_csv`: a float64 array is a float column, anything
    else is written by str), and each trial's trace."""

    summary: dict
    aggregate: dict
    violations: list[str] = field(default_factory=list)
    traces: dict = field(default_factory=dict)  # trial index -> `TrainTrace.columns()`


def _floats(values) -> np.ndarray:
    """A float column: NaN is written as an empty cell."""
    return np.array(values, dtype=np.float64)


def _mean_std(values: list[float]) -> tuple[float, float]:
    arr = np.array(values, dtype=np.float64)
    finite = arr[np.isfinite(arr)]
    if len(finite) == 0:
        return np.nan, np.nan
    return float(np.mean(finite)), float(np.std(finite))


def _run_global(cfg: ExperimentConfig) -> ExperimentResult:
    results = run_trials("global", seeded_jobs(cfg.params, cfg.seed, cfg.trials))
    corr_mean, corr_std = _mean_std([r["final_corr"] for r in results if r["final_corr"] is not None])
    dist_mean, dist_std = _mean_std([r["final_dist"] for r in results if r["final_dist"] is not None])
    summary = {
        "mean_corr": corr_mean,
        "std_corr": corr_std,
        "mean_dist": dist_mean,
        "std_dist": dist_std,
        "trials": cfg.trials,
    }
    violations = []
    if "min_mean_corr" in cfg.thresholds and not corr_mean >= cfg.thresholds["min_mean_corr"]:
        violations.append(f"mean_corr {corr_mean:.4f} < {cfg.thresholds['min_mean_corr']}")
    if "max_mean_dist" in cfg.thresholds and not dist_mean <= cfg.thresholds["max_mean_dist"]:
        violations.append(f"mean_dist {dist_mean:.4f} > {cfg.thresholds['max_mean_dist']}")
    # An undefined final value is None, and written as such.
    aggregate = {"trial": list(range(len(results))),
                 **{key: [r[key] for r in results] for key in ("final_corr", "final_dist", "final_loss")},
                 **{key: _floats([r[key] for r in results]) for key in ("loss_inf", "w_svm_norm")}}
    return ExperimentResult(
        summary=summary,
        aggregate=aggregate,
        violations=violations,
        traces={t: r["trace"] for t, r in enumerate(results)},
    )


def _run_local(cfg: ExperimentConfig) -> ExperimentResult:
    results = run_trials("local", seeded_jobs(cfg.params, cfg.seed, cfg.trials))
    cg, _ = _mean_std([r["corr_global"] for r in results])
    cl, _ = _mean_std([r["corr_local"] for r in results])
    dg, _ = _mean_std([r["dist_global"] for r in results])
    dl, _ = _mean_std([r["dist_local"] for r in results])
    summary = {
        "mean_corr_global": cg,
        "mean_corr_local": cl,
        "mean_dist_global": dg,
        "mean_dist_local": dl,
        "trials": cfg.trials,
    }
    violations = []
    if cfg.thresholds["local_beats_global"]:
        # A local mean is NaN when no trial has a local value to compare.
        if np.isnan(cl):
            n = sum(np.isnan(r["corr_local"]) for r in results)
            violations.append(f"mean corr_local undefined: {n} of {cfg.trials} trials have a zero pseudo W_svm")
        elif not cl >= cg:
            violations.append(f"mean corr_local {cl:.4f} < mean corr_global {cg:.4f}")
        if np.isnan(dl):
            n = sum(np.isnan(r["dist_local"]) for r in results)
            violations.append(f"mean dist_local undefined: {n} of {cfg.trials} trials have no certified pseudo W_fin")
        elif not dl <= dg:
            violations.append(f"mean dist_local {dl:.4f} > mean dist_global {dg:.4f}")
    aggregate = {"trial": list(range(len(results))),
                 **{key: _floats([r[key] for r in results])
                    for key in ("corr_global", "corr_local", "dist_global", "dist_local")},
                 "wfin_status": [r["wfin_status"] for r in results]}
    return ExperimentResult(
        summary=summary,
        aggregate=aggregate,
        violations=violations,
        traces={t: r["trace"] for t, r in enumerate(results)},
    )


def _grid_trials(cfg: ExperimentConfig, key: str) -> list[list[dict]]:
    """Run one trial per (grid point, trial) in a single `run_trials` call,
    the trial kind being the experiment's name, trial t drawing from
    trial_seed(seed, t) at every grid point; returns the results grouped
    by grid point, each group in trial order."""
    grid, trials = cfg.params[f"{key}_grid"], cfg.trials
    if not grid:
        raise ValueError(f"{key}_grid must list at least one point")
    jobs = [job for g in grid for job in seeded_jobs({**cfg.params, key: g}, cfg.seed, trials)]
    results = run_trials(cfg.name, jobs)
    return [results[i * trials:(i + 1) * trials] for i in range(len(grid))]


def _run_scc_count(cfg: ExperimentConfig) -> ExperimentResult:
    counts = [[r["sccs"] for r in group] for group in _grid_trials(cfg, "n")]
    grid = cfg.params["n_grid"]
    mean = [float(np.mean(c)) for c in counts]
    first, last = mean[0], mean[-1]
    summary = {"first_mean": first, "last_mean": last, "trials": cfg.trials}
    violations = []
    if not last <= first:
        violations.append(f"SCC count did not collapse: first {first:.2f}, last {last:.2f}")
    return ExperimentResult(
        summary=summary,
        aggregate={"n": grid, "mean": _floats(mean), "std": _floats([np.std(c) for c in counts]),
                   "trials": [cfg.trials] * len(grid)},
        violations=violations,
    )


def _run_feasibility(cfg: ExperimentConfig) -> ExperimentResult:
    # Pooled over every sample of every trial, not a mean of trial means.
    props = [[v for r in group for v in r["props"]] for group in _grid_trials(cfg, "d")]
    grid = cfg.params["d_grid"]
    proportion = [float(np.mean(p)) for p in props]
    at_k = next((prop for d, prop in zip(grid, proportion) if d >= cfg.params["K"]), None)
    summary = {"proportion_at_K": at_k, "trials": cfg.trials}
    violations = []
    tol = cfg.thresholds["proportion_tol"]
    if at_k is None or abs(at_k - 1.0) > tol:
        violations.append(f"retention proportion at d=K is {at_k}, expected 1.0 +- {tol}")
    return ExperimentResult(
        summary=summary,
        aggregate={"d": grid, "proportion": _floats(proportion), "std": _floats([np.std(p) for p in props]),
                   "trials": [cfg.trials] * len(grid)},
        violations=violations,
    )


def rate_check_jobs(params: dict, seed: int, trials: int) -> list[tuple[dict, int]]:
    """`seeded_jobs` whose params add plain GD at one eta, the least 1/L of
    the draws: eta <= 1/L, the bound's hypothesis, holds for every draw,
    and any block of draws shares one TrainConfig."""
    eta = min(1.0 / attention.lipschitz_log(_draw(params, tseed, tied=True))
              for _, tseed in seeded_jobs(params, seed, trials))
    return seeded_jobs({**params, "eta": eta, "normalized": False}, seed, trials)


def _run_rate_check(cfg: ExperimentConfig) -> ExperimentResult:
    """The bound at every recorded tau of every draw."""
    jobs = rate_check_jobs(cfg.params, cfg.seed, cfg.trials)
    results = run_trials("rate-check", jobs)
    gap, bound = (np.concatenate([r[key] for r in results]) for key in ("gap", "bound"))
    worst = max([-np.inf] + (gap - bound).tolist())
    draws = [r["draw"] for r in results]
    summary = {"eta": jobs[0][0]["eta"], "max_gap_minus_bound": worst, "checked_taus": len(gap),
               "max_gap_over_bound": max([-np.inf] + (gap / bound).tolist()),
               "nonzero_w_fin_draws": sum(d["w_fin_norm"] > 0 for d in draws), "draws": draws}
    violations = []
    if not worst <= 0.0:
        violations.append(f"rate bound violated by {worst:.3e}")
    return ExperimentResult(
        summary=summary,
        aggregate={"trial": [t for t, r in enumerate(results) for _ in r["tau"]],
                   "tau": [tau for r in results for tau in r["tau"]], "gap": gap, "bound": bound},
        violations=violations,
        traces={t: r["trace"] for t, r in enumerate(results)},
    )


def _run_reg_path(cfg: ExperimentConfig) -> ExperimentResult:
    p = cfg.params
    acyc_params = {**p, "mode": "acyclic"}
    cyc_params = {**p, "mode": "cyclic", "K": p["cyc_K"], "d": p["cyc_d"], "n": p["cyc_n"], "T": p["cyc_T"]}
    jobs = seeded_jobs(acyc_params, cfg.seed, cfg.trials)
    jobs += seeded_jobs(cyc_params, cfg.seed, 2 * cfg.trials)[cfg.trials:]  # trials .. 2 trials - 1
    results = run_trials("reg-path", jobs)
    acyc, cyc = results[:cfg.trials], results[cfg.trials:]

    violations = []
    finals = []
    skip = cfg.thresholds["monotone_after"]
    slack = 1e-9
    for t, r in enumerate(acyc):
        corr = r["corr"]
        finals.append(corr[-1])
        for j in range(skip, len(corr) - 1):
            if not (np.isnan(corr[j]) or np.isnan(corr[j + 1])) and corr[j + 1] < corr[j] - slack:
                violations.append(f"acyclic trial {t}: corr decreased at radius index {j + 1}")
        if not corr[-1] >= cfg.thresholds["min_final_corr"]:
            violations.append(f"acyclic trial {t}: final corr {corr[-1]:.4f}")
    dist_finals = [r["dist"][-1] for r in cyc]
    for t, dv in enumerate(dist_finals):
        if not dv <= cfg.thresholds["max_final_dist"]:
            violations.append(f"cyclic trial {t}: final fin-distance {dv:.4f}")

    mean_final_corr, _ = _mean_std(finals)
    mean_final_dist, _ = _mean_std(dist_finals)
    # One row per (leg, trial, radius); each leg reads one of corr_svm and
    # dist_fin, the other is NaN.
    aggregate = {"mode": [], "trial": [], "radius": [], "corr_svm": [], "dist_fin": [], "gap": []}
    for leg, part, read in (("acyclic", acyc, "corr_svm"), ("cyclic", cyc, "dist_fin")):
        for t, r in enumerate(part):
            k = len(r["radii"])
            aggregate["mode"] += [leg] * k
            aggregate["trial"] += [t] * k
            aggregate["radius"] += r["radii"]
            for column, key in (("corr_svm", "corr"), ("dist_fin", "dist")):
                aggregate[column] += r[key] if column == read else [np.nan] * k
            aggregate["gap"] += r["gap"]
    summary = {
        "mean_final_corr_acyclic": mean_final_corr,
        "mean_final_dist_cyclic": mean_final_dist,
        "max_gap": max(aggregate["gap"]),
        "trials": cfg.trials,
    }
    return ExperimentResult(
        summary=summary,
        aggregate={**aggregate, **{key: _floats(aggregate[key]) for key in ("radius", "corr_svm", "dist_fin", "gap")}},
        violations=violations,
    )


EXPERIMENTS: dict[str, ExperimentSpec] = {
    "cyclic-global": ExperimentSpec(
        params=dict(K=6, d=8, n=6, T=4, eta=0.01, iters=4000, mode="cyclic", head="tied",
                    loss=attention.LOG, normalized=True, record_every=10),
        thresholds={"min_mean_corr": 0.95, "max_mean_dist": 0.05},
        trials=20,
        runner=_run_global,
    ),
    "acyclic-global": ExperimentSpec(
        params=dict(K=8, d=8, n=4, T=6, eta=0.01, iters=4000, mode="acyclic", head="tied",
                    loss=attention.LOG, normalized=True, record_every=10),
        thresholds={"min_mean_corr": 0.97},
        trials=20,
        runner=_run_global,
    ),
    "large-k": ExperimentSpec(
        params=dict(K=1000, d=32, n=16, T=64, eta=0.01, iters=8000, mode="cyclic", head="none",
                    loss=attention.LOG, normalized=True, record_every=100),
        thresholds={"min_mean_corr": 0.95},
        trials=1,
        runner=_run_global,
    ),
    "scc-count": ExperimentSpec(
        # The grid starts past the small-n ramp-up (where graphs are still
        # acquiring nodes) so the collapse toward one SCC per graph is what
        # the table shows.
        params=dict(K=6, d=6, T=3, n_grid=[16, 32, 64, 128, 256, 512]),
        thresholds={},
        trials=20,
        runner=_run_scc_count,
    ),
    "feasibility": ExperimentSpec(
        # n well above K so label SCCs are nontrivial; eps=None means 0.15/T,
        # a fixed fraction of the uniform share 1/T.
        params=dict(K=8, T=6, n=16, d_grid=[2, 3, 4, 6, 8], eta=0.05, iters=12000, eps=None),
        thresholds={"proportion_tol": 0.02},
        trials=5,
        runner=_run_feasibility,
    ),
    "local-squared": ExperimentSpec(
        params=dict(K=8, d=8, n=4, T=6, eta=0.1, iters=4000, loss=attention.SQUARED,
                    head_noise=0.1, normalized=True, record_every=10, eps=1e-3),
        thresholds={"local_beats_global": True},
        trials=20,
        runner=_run_local,
    ),
    "local-ce": ExperimentSpec(
        params=dict(K=8, d=8, n=4, T=6, eta=0.1, iters=4000, loss=attention.CROSS_ENTROPY,
                    head_noise=0.1, normalized=True, record_every=10, eps=1e-3),
        thresholds={"local_beats_global": True},
        trials=20,
        runner=_run_local,
    ),
    "rate-check": ExperimentSpec(
        params=dict(K=6, d=8, n=6, T=4, iters=100_000, record_every=100),
        thresholds={},
        trials=8,
        runner=_run_rate_check,
    ),
    "reg-path": ExperimentSpec(
        # Denser cyclic-leg sequences so most trials carry a nonzero
        # finite component for the distance check.
        params=dict(K=8, d=8, n=4, T=6, r_min=1.0, r_max=1000.0, r_count=8,
                    cyc_K=6, cyc_d=8, cyc_n=8, cyc_T=5),
        thresholds={"min_final_corr": 0.95, "max_final_dist": 0.1, "monotone_after": 3},
        trials=5,
        runner=_run_reg_path,
    ),
}


def run_experiment(config: ExperimentConfig) -> tuple[int, dict]:
    """Execute a named experiment and write its artifacts.

    Returns (exit_code, summary): 0 on success, 3 when an embedded threshold
    is violated and checking is enabled.
    """
    if config.name not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {config.name!r}; choose from {sorted(EXPERIMENTS)}")
    cfg = config.resolved()
    os.makedirs(cfg.output_dir, exist_ok=True)
    manifest = {
        "name": cfg.name,
        "params": cfg.params,
        "thresholds": cfg.thresholds,
        "seed": cfg.seed,
        "trials": cfg.trials,
        "version": VERSION,
    }
    write_json(os.path.join(cfg.output_dir, "manifest.json"), manifest)

    result = EXPERIMENTS[cfg.name].runner(cfg)

    write_csv(os.path.join(cfg.output_dir, "aggregate.csv"), tuple(result.aggregate), tuple(result.aggregate.values()))
    if result.traces:
        trace_dir = os.path.join(cfg.output_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        for t, columns in sorted(result.traces.items()):
            write_csv(os.path.join(trace_dir, f"trial_{t:03d}.csv"), attention.TrainTrace.csv_header(), columns)
    summary = dict(result.summary)
    summary["violations"] = result.violations
    write_json(os.path.join(cfg.output_dir, "summary.json"), summary)
    if result.violations and cfg.check:
        return 3, summary
    return 0, summary


# ---------------------------------------------------------------------------
# Self-test suite: the core property checks at small sizes.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelftestResult:
    name: str
    ok: bool
    detail: str


def _small_instance(seed: int, K: int = 4, d: int = 5, n: int = 3, T: int = 3,
                    head_kind: str = TIED) -> Dataset:
    table = make_embeddings(K, d, UNIT_SPHERE, seed=seed)
    head = make_head(table, head_kind, noise=0.1, seed=seed)
    return gen_dataset(table, head, n=n, T=T, mode="cyclic", seed=seed)


def fd_grad(w: np.ndarray, ds: Dataset, kind: str) -> np.ndarray:
    """Central finite differences of the loss at w, entry by entry, at step 1e-5."""
    g, step = np.zeros_like(w), 1e-5
    for a in range(w.shape[0]):
        for b in range(w.shape[1]):
            wp, wm = w.copy(), w.copy()
            wp[a, b] += step
            wm[a, b] -= step
            g[a, b] = (attention.loss(wp, ds, kind) - attention.loss(wm, ds, kind)) / (2 * step)
    return g


def descent_violations(ds: Dataset, steps: int) -> int:
    """How many of ``steps`` log-loss GD steps from zero at eta = 1/L lower
    the loss by less than the descent lemma's eta/2 ||g||^2 (slack 1e-10)."""
    eta = 1.0 / attention.lipschitz_log(ds)
    w = np.zeros((ds.d, ds.d))
    cur, violations = attention.loss(w, ds, attention.LOG), 0
    for _ in range(steps):
        g = attention.grad(w, ds, attention.LOG)
        w = w - eta * g
        nxt = attention.loss(w, ds, attention.LOG)
        if nxt - cur > -(eta / 2) * np.linalg.norm(g) ** 2 + 1e-10:
            violations += 1
        cur = nxt
    return violations


def chord_violations(ds: Dataset, rng: np.random.Generator, pairs: int, lams: tuple[float, float]) -> int:
    """How many of ``pairs`` standard normal (W1, W2), with lambda uniform in
    ``lams``, break the log loss's chord inequality by more than 1e-9."""
    bad = 0
    for _ in range(pairs):
        w1 = rng.standard_normal((ds.d, ds.d))
        w2 = rng.standard_normal((ds.d, ds.d))
        lam = rng.uniform(*lams)
        lhs = attention.loss(lam * w1 + (1 - lam) * w2, ds, attention.LOG)
        rhs = lam * attention.loss(w1, ds, attention.LOG) + (1 - lam) * attention.loss(w2, ds, attention.LOG)
        if lhs > rhs + 1e-9:
            bad += 1
    return bad


def kkt_terms(cons: svm.ConstraintSet, sol: svm.Solution) -> tuple[float, float, float]:
    """KKT terms of sol recomputed from its W, multipliers and embeddings:
    stationarity modulo the equality span (inf without one multiplier per
    inequality), largest equality violation, smallest inequality margin."""
    e, w = cons.embedding.e, sol.w.ravel()
    eqs = np.array([svm.constraint_matrix(t, e).ravel() for t in cons.equalities]).reshape(-1, w.size)
    ineqs = np.array([svm.constraint_matrix(t, e).ravel() for t in cons.inequalities]).reshape(-1, w.size)
    eq, margin = float(np.max(np.abs(eqs @ w), initial=0.0)), float(np.min(ineqs @ w, initial=np.inf))
    if len(sol.ineq_multipliers) != len(ineqs):
        return np.inf, eq, margin
    stationarity = w - ineqs.T @ sol.ineq_multipliers
    if len(eqs):
        mu, *_ = np.linalg.lstsq(eqs.T, stationarity, rcond=None)
        stationarity -= eqs.T @ mu
    return float(np.linalg.norm(stationarity)), eq, margin


def fin_overlap(fin: svm.MatrixSubspace, w: np.ndarray) -> float:
    """max |<B, W>| over the basis B of S_fin, 0 when S_fin = {0}: W_svm is orthogonal to S_fin."""
    return float(np.max(np.abs(fin.anchor(w)[0]), initial=0.0))


def per_token_gap(ds: Dataset) -> float:
    """||W_svm - sum_k W_k||: the joint graph-SVM solution against the sum
    of the per-last-token ones, which it equals under orthonormal embeddings."""
    cons = Pipeline(ds).constraints
    return float(np.linalg.norm(svm.solve_graph_svm(cons).w - svm.solve_per_last_token(cons).w))


def _wfin_certificate_terms(pipe: Pipeline) -> tuple[float, float, float]:
    """Gradient norm, smallest Hessian eigenvalue and Hessian Lipschitz bound
    M of the reduced log loss at pipe.w_fin, in S_fin coordinates, summed
    sample by sample from the embeddings."""
    split, basis = pipe.split, pipe.s_fin.basis
    m, e = pipe.s_fin.dim, pipe.dataset.embedding.e
    z = basis.reshape(m, -1) @ pipe.w_fin.ravel()
    grad, hess, lip = np.zeros(m), np.zeros((m, m)), 0.0
    for i, positions in zip(split.idx_i, split.positions):
        # Features measured from the label's, so the gradient does not cancel.
        sample = pipe.dataset.samples[i]
        phi = np.array([[(e[sample.tokens[t]] - e[sample.label]) @ b @ e[sample.last_token] for b in basis]
                        for t in positions])
        probs = attention.softmax(phi @ z)
        centered = phi - probs @ phi
        grad += probs @ phi
        hess += centered.T @ (probs[:, None] * centered)
        lip += max(float(np.linalg.norm(a - b)) for a in phi for b in phi) ** 3
    n = pipe.dataset.n
    return float(np.linalg.norm(grad / n)), float(np.linalg.eigvalsh(hess / n)[0]), lip / n


def wfin_certificate(seed: int) -> SelftestResult:
    """Re-derive W_fin's certificate: at every non-empty split of ten small
    cyclic draws, 8 M ||g|| <= mu^2 and 4 ||g|| / mu <= WFIN_REL_BOUND * max(1, ||W_fin||)."""
    checked, failures, worst = 0, [], 0.0
    for j in range(10):
        ds = _small_instance(seed + 400 + j, K=6, d=8, n=8, T=5)
        try:
            pipe = build_pipeline(ds)
        except NoConvergence as exc:
            failures.append(f"draw {j}: {exc}")
            continue
        if pipe.split.empty:
            continue
        checked += 1
        gn, mu, lip = _wfin_certificate_terms(pipe)
        scale = max(1.0, float(np.linalg.norm(pipe.w_fin)))
        bound = 4.0 * gn / mu if mu > 0 else np.inf
        worst = max(worst, bound / scale)
        if not (8.0 * lip * gn <= mu * mu and bound <= attention.WFIN_REL_BOUND * scale):
            failures.append(f"draw {j}: |g| {gn:.2e}, mu {mu:.2e}, M {lip:.2e}")
    ok = checked > 0 and not failures
    detail = f"{checked} splits, max relative bound {worst:.2e}" + (f"; {failures[0]}" if failures else "")
    return SelftestResult(name="wfin_certificate", ok=ok, detail=detail)


def gradient_check(seed: int) -> SelftestResult:
    """Analytic gradient against central finite differences, for each loss."""
    worst = 0.0
    rng = seeded_rng(seed, 10)
    for j, kind in enumerate([attention.LOG, attention.SQUARED, attention.CROSS_ENTROPY]):
        ds = _small_instance(seed + j, head_kind=GENERAL_ARGMAX if kind != attention.LOG else TIED)
        w = 0.5 * rng.standard_normal((ds.d, ds.d))
        fd = fd_grad(w, ds, kind)
        worst = max(worst, float(np.linalg.norm(attention.grad(w, ds, kind) - fd) / max(np.linalg.norm(fd), 1e-12)))
    return SelftestResult("gradient_check", worst < 1e-5, f"max rel err {worst:.2e}")


def descent(seed: int) -> SelftestResult:
    """Descent lemma along 200 gradient steps with eta = 1/L."""
    violations = descent_violations(_small_instance(seed + 11), 200)
    return SelftestResult("descent", violations == 0, f"{violations} violations over 200 steps")


def convexity_chords(seed: int) -> SelftestResult:
    """Chord inequality of the tied log loss at 200 random pairs."""
    bad = chord_violations(_small_instance(seed + 12), seeded_rng(seed, 12), 200, (0.05, 0.95))
    return SelftestResult("convexity_chords", bad == 0, f"{bad} chord violations over 200 draws")


def kkt(seed: int) -> SelftestResult:
    """Primal feasibility and stationarity of W_svm on 20 draws, recomputed
    by `kkt_terms`."""
    worst_kkt, worst_eq, worst_ineq, solved = 0.0, 0.0, np.inf, True
    for j in range(20):
        pipe = Pipeline(_small_instance(seed + 100 + j))
        if pipe.solution.status is not svm.SolveStatus.SOLVED:
            solved = False
            continue
        stationarity, eq, margin = kkt_terms(pipe.constraints, pipe.solution)
        worst_kkt, worst_eq, worst_ineq = max(worst_kkt, stationarity), max(worst_eq, eq), min(worst_ineq, margin)
    ok = solved and worst_kkt <= svm.KKT_TOL and worst_eq <= 1e-6 and worst_ineq >= 1 - 1e-6
    return SelftestResult("kkt", ok, f"kkt {worst_kkt:.2e}, eq {worst_eq:.2e}, ineq margin {worst_ineq:.6f}")


def scc_oracle(seed: int) -> SelftestResult:
    """The library's components against the mutual-reachability partition
    of 60 random graphs, found by a depth-first search from each node."""
    rng = seeded_rng(seed, 13)
    tpgs = {}
    for k in range(60):
        n_nodes = int(rng.integers(2, 10))
        density = rng.uniform(0.05, 0.5)
        adj = rng.random((n_nodes, n_nodes)) < density
        np.fill_diagonal(adj, False)
        tpgs[k] = graph.TokenPriorityGraph(
            last_token=k,
            nodes=frozenset(range(n_nodes)),
            edges={i: frozenset(np.flatnonzero(adj[i]).tolist()) for i in range(n_nodes) if adj[i].any()},
        )
    mismatches = 0
    for g, decomp in zip(tpgs.values(), graph.decompose_all(tpgs).values()):
        reach = {}
        for src in g.nodes:
            seen, stack = {src}, [src]
            while stack:
                new = g.edges.get(stack.pop(), frozenset()) - seen
                seen |= new
                stack += new
            reach[src] = seen
        mismatches += sum((j in reach[i] and i in reach[j]) != (decomp.comp_of[i] == decomp.comp_of[j])
                          for i in g.nodes for j in g.nodes)
    return SelftestResult("scc_oracle", mismatches == 0, f"{mismatches} pair mismatches over 60 graphs")


def orthogonality(seed: int) -> SelftestResult:
    """W_svm is perpendicular to S_fin and lies in S_svm, on 10 draws."""
    worst_dot, worst_memb = 0.0, 0.0
    for j in range(10):
        pipe = Pipeline(_small_instance(seed + 200 + j, K=4, d=4, n=4, T=3))
        if pipe.solution.norm == 0:
            continue
        worst_dot = max(worst_dot, fin_overlap(pipe.s_fin, pipe.w_svm))
        worst_memb = max(worst_memb, float(np.linalg.norm(pipe.w_svm - pipe.s_svm.project(pipe.w_svm))))
    return SelftestResult("orthogonality", worst_dot <= 1e-8 and worst_memb <= 1e-7,
                          f"max |<W,B>| {worst_dot:.2e}, membership residual {worst_memb:.2e}")


def per_token_reduction(seed: int) -> SelftestResult:
    """Under orthonormal embeddings the joint W_svm is the sum of the
    per-last-token solutions, on 5 draws."""
    worst_red = 0.0
    for j in range(5):
        table = make_embeddings(5, 5, "orthonormal", seed=seed + 300 + j)
        ds = gen_dataset(table, make_head(table, TIED), n=4, T=3, mode="cyclic", seed=seed + 300 + j)
        worst_red = max(worst_red, per_token_gap(ds))
    return SelftestResult("per_token_reduction", worst_red <= 1e-6, f"max |W_joint - sum W_k| {worst_red:.2e}")


def zero_svm_stasis(seed: int) -> SelftestResult:
    """On a single-SCC dataset W_svm is zero and training never moves the
    component outside S_fin."""
    ds = single_scc_dataset(seed=seed)
    pipe = Pipeline(ds)
    cfg = attention.TrainConfig(
        eta=1.0 / attention.lipschitz_log(ds), iters=1000, init="gauss", init_scale=0.5,
        init_seed=seed, record_every=100,
    )
    w0 = cfg.initial_w(ds.d)
    trace = attention.train_gd(ds, cfg)
    drift = float(
        np.linalg.norm(pipe.s_fin.project_out(trace.w_final) - pipe.s_fin.project_out(w0))
    )
    return SelftestResult("zero_svm_stasis", pipe.solution.norm == 0.0 and drift <= 1e-9,
                          f"w_svm norm {pipe.solution.norm:.2e}, perp drift {drift:.2e}")


def normalized_step(seed: int) -> SelftestResult:
    """Normalized GD from zero over 50 recorded steps: ||W_1|| = eta, no step
    moves ||W|| by more than eta, and the loss falls over the first 5 steps."""
    ds = _small_instance(seed + 500)
    eta = 0.01
    trace = attention.train_gd(ds, attention.TrainConfig(eta=eta, iters=50, normalized=True, record_every=1))
    first = abs(float(trace.w_norm[1]) - eta)
    widest = float(np.max(np.abs(np.diff(trace.w_norm))))
    falls = bool(np.all(np.diff(trace.loss[:6]) < 0.0))
    return SelftestResult(
        "normalized_step",
        first <= 1e-12 and widest <= eta * (1.0 + 1e-12) and falls,
        f"|W_1| - eta {first:.2e}, max norm change {widest / eta:.6f} eta, "
        f"loss {trace.loss[0]:.6f} -> {trace.loss[5]:.6f} over 5 steps",
    )


# The selftest suite, in report order.  Each property is failed by at least
# one library mutation in tests/test_cli.py.
PROPERTIES: tuple[Callable[[int], SelftestResult], ...] = (
    gradient_check, descent, convexity_chords, kkt, scc_oracle, orthogonality,
    per_token_reduction, zero_svm_stasis, wfin_certificate, normalized_step,
)


def selftest(seed: int) -> list[SelftestResult]:
    """Run every property at small sizes."""
    return [prop(seed) for prop in PROPERTIES]
