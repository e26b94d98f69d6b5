"""Spans recorded from outside the program, around calls into each layer.

The tracer replaces module attributes with timing wrappers while it is
patched and restores the originals afterwards, so an untraced run executes
exactly the library code.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import os
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

from attnlab import analysis, attention, dataset, experiments, graph, svm


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 at the top
    unit: Optional[int]  # measured unit index, None outside the measured loop
    trial: Optional[int]


def _count_sccs(counts, args, kwargs, out):
    counts["graph.sccs"] += sum(d.n_components for d in out.values())


def _count_constraints(counts, args, kwargs, out):
    counts["svm.constraints"] += out.n_constraints


def _count_solve(counts, args, kwargs, out):
    counts["svm.sweeps"] += int(out.residuals.get("sweeps", 0))
    counts["svm.solves"] += 1
    counts["svm.solved"] += out.status is svm.SolveStatus.SOLVED


def _count_fin_dim(counts, args, kwargs, out):
    counts["svm.fin_dim"] += out.dim


def _count_active_dim(counts, args, kwargs, out):
    counts["svm.active_dim"] += out.dim


def _count_steps(counts, args, kwargs, out):
    config = args[1] if len(args) > 1 else kwargs["config"]
    counts["attention.steps"] += config.iters
    counts["attention.t_ms"] += float(out.t_ms[-1]) if len(out.t_ms) else 0.0


def _count_bytes(counts, args, kwargs, out):
    counts["experiments.artifact_bytes"] += os.path.getsize(args[0])


# (module, attribute, span name, counter).  Each entry is a function as
# experiments and build_pipeline reach it: names that experiments imports
# from dataset and util are patched in the experiments namespace.
TRACED: tuple[tuple[object, str, str, Optional[Callable]], ...] = (
    (experiments, "make_embeddings", "dataset.make_embeddings", None),
    (experiments, "make_head", "dataset.make_head", None),
    (experiments, "gen_dataset", "dataset.gen_dataset", None),
    (dataset, "make_embeddings", "dataset.make_embeddings", None),
    (dataset, "gen_dataset", "dataset.gen_dataset", None),
    (graph, "build_tpgs", "graph.build_tpgs", None),
    (graph, "decompose_all", "graph.decompose_all", _count_sccs),
    (graph, "cyclic_split", "graph.cyclic_split", None),
    (svm, "build_constraints", "svm.build_constraints", _count_constraints),
    (svm, "solve_graph_svm", "svm.solve_graph_svm", _count_solve),
    (svm, "fin_subspace", "svm.fin_subspace", _count_fin_dim),
    (svm, "active_subspace", "svm.active_subspace", _count_active_dim),
    (svm, "svm_subspace", "svm.svm_subspace", None),
    (attention, "train_gd", "attention.train_gd", _count_steps),
    (attention, "train_wfin", "attention.train_wfin", None),
    (attention, "loss_inf", "attention.loss_inf", None),
    (analysis, "convergence_report", "analysis.convergence_report", None),
    (experiments, "run_experiment", "experiments.run_experiment", None),
    (experiments, "_trial_worker", "experiments.trial", None),
    (experiments, "build_pipeline", "experiments.build_pipeline", None),
    (experiments, "write_csv", "experiments.write_csv", _count_bytes),
    (experiments, "write_json", "experiments.write_json", _count_bytes),
)

# Per-layer time metric -> the spans whose self times it sums.
LAYER_TIMES = {
    "dataset.gen_s": ("dataset.make_embeddings", "dataset.make_head", "dataset.gen_dataset"),
    "graph.build_tpgs_s": ("graph.build_tpgs",),
    "graph.scc_s": ("graph.decompose_all",),
    "graph.cyclic_split_s": ("graph.cyclic_split",),
    "svm.build_constraints_s": ("svm.build_constraints",),
    "svm.solve_s": ("svm.solve_graph_svm",),
    "svm.fin_subspace_s": ("svm.fin_subspace",),
    "svm.active_subspace_s": ("svm.active_subspace",),
    "svm.svm_subspace_s": ("svm.svm_subspace",),
    "attention.train_gd_s": ("attention.train_gd",),
    "attention.train_wfin_s": ("attention.train_wfin",),
    "attention.loss_inf_s": ("attention.loss_inf",),
    "analysis.report_s": ("analysis.convergence_report",),
    "experiments.build_pipeline_self_s": ("experiments.build_pipeline",),
    "experiments.run_self_s": ("experiments.run_experiment", "experiments.trial"),
    "experiments.artifacts_s": ("experiments.write_csv", "experiments.write_json"),
}


class Tracer:
    """Records spans and counts while patched; a no-op once unpatched."""

    def __init__(self) -> None:
        self.spans: list[Optional[Span]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.unit: Optional[int] = None
        self.trial: Optional[int] = None
        self._stack: list[int] = []
        self._trials = 0
        self._saved: list[tuple[object, str, object]] = []

    def patch(self) -> None:
        for module, attr, name, counter in TRACED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counter))

    def unpatch(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn: Callable, name: str, counter: Optional[Callable]) -> Callable:
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            outer_trial = self.trial
            if name == "experiments.trial":
                self.trial = self._trials
                self._trials += 1
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[idx] = Span(name, start, end, parent, self.unit, self.trial)
                self.trial = outer_trial
            if counter is not None:
                counter(self.counts, args, kwargs, out)
            return out

        return traced

    def self_times(self, unit_only: bool = False) -> dict[str, float]:
        """Span duration minus the durations of its direct children, summed
        by span name; ``unit_only`` keeps spans inside measured units."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out: dict[str, float] = defaultdict(float)
        for k, s in enumerate(self.spans):
            if unit_only and s.unit is None:
                continue
            out[s.name] += (s.end - s.start) - child[k]
        return out

    def as_rows(self) -> list[list]:
        return [[s.name, s.start, s.end, s.parent, s.unit, s.trial] for s in self.spans]
