"""One fresh interpreter of the benchmark.

Roles:
  import   time ``import attnlab.cli`` and exit;
  setup    import, generate the workload's inputs, run the warm-up, report
           ready with the digest of the warm-up's outputs, and exit;
  measure  as setup, then run measured units for ``--seconds`` and report.

Messages go to stdout as single lines that start with ``@@perfbench``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PREFIX = "@@perfbench "


def emit(event: str, **payload) -> None:
    payload["event"] = event
    sys.stdout.write(PREFIX + json.dumps(payload) + "\n")
    sys.stdout.flush()


def import_attnlab():
    sys.path.insert(0, str(SRC))
    import attnlab.cli

    if Path(attnlab.__file__).resolve().parent != SRC / "attnlab":
        raise SystemExit(f"imported attnlab from {attnlab.__file__}, not from {SRC}")
    return attnlab.cli


def blas_facts() -> dict:
    """BLAS library name and version from numpy's build record, and the
    thread count the loaded OpenBLAS reports."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads = int(fn())
                break
    return {"numpy": np.__version__, "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": threads}


def measure(workload, seconds: float, tracer):
    """Units until ``seconds`` have passed (at least one).  With a tracer,
    each unit runs untraced and then traced on the same inputs."""
    plain, traced, unit_counts = [], [], []
    start = perf_counter()
    index = 0
    while index == 0 or perf_counter() - start < seconds:
        plain.append(workload.run_unit(index))
        if tracer is not None:
            tracer.counts.clear()
            tracer.unit = index
            tracer.patch()
            try:
                traced.append(workload.run_unit(index, tracer))
            finally:
                tracer.unpatch()
                tracer.unit = None
            unit_counts.append(dict(tracer.counts))
        index += 1
    return plain, traced, unit_counts


def per_layer(tracer, plain, traced, unit_counts) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced units: self times per trial,
    counts over the first unit, and the tracing overhead."""
    from tracing import LAYER_TIMES

    problems = []
    trials = sum(u.trials for u in traced)
    self_all = tracer.self_times()
    self_units = tracer.self_times(unit_only=True)
    n_gen = sum(1 for s in tracer.spans if s.name == "dataset.gen_dataset")
    out = {}
    for metric, names in LAYER_TIMES.items():
        total = sum(self_all.get(n, 0.0) for n in names)
        if metric == "dataset.gen_s":
            out[metric] = (total / n_gen if n_gen else 0.0, "s")
        else:
            out[metric] = (total / trials, "s")

    first = unit_counts[0]
    for name in ("graph.sccs", "svm.constraints", "svm.sweeps", "svm.fin_dim", "svm.active_dim",
                 "experiments.artifact_bytes"):
        out[name] = (int(first.get(name, 0)), "bytes" if name.endswith("_bytes") else "count")
    solves = first.get("svm.solves", 0)
    out["svm.solved_ratio"] = (first.get("svm.solved", 0) / solves if solves else 0.0, "ratio")

    steps = sum(c.get("attention.steps", 0) for c in unit_counts)
    gd_s = sum(s.end - s.start for s in tracer.spans if s.name == "attention.train_gd")
    in_program_s = sum(c.get("attention.t_ms", 0.0) for c in unit_counts) / 1e3
    out["attention.step_us"] = (gd_s / steps * 1e6 if steps else 0.0, "us")
    if in_program_s > gd_s:
        problems.append(f"train_gd's own t_ms ({in_program_s:.6f} s) exceeds its span ({gd_s:.6f} s)")

    wall = sum(u.seconds for u in traced)
    plain_wall = sum(u.seconds for u in plain)
    self_sum = sum(self_units.values())
    out["trace.wall_s"] = (wall / trials, "s")
    out["trace.unattributed_s"] = ((wall - self_sum) / trials, "s")
    out["trace.overhead_s"] = ((wall - plain_wall) / trials, "s")
    out["trace.overhead_trials_per_s"] = (trials / plain_wall - trials / wall, "trials/s")
    extras = {"in_program_step_us": in_program_s / steps * 1e6 if steps else None,
              "traced_trials": trials, "spans": len(tracer.spans)}
    return {"metrics": out, "extras": extras}, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--role", choices=("import", "setup", "measure"), required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--scratch")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    if args.role == "import":
        start = perf_counter()
        import_attnlab()
        emit("imported", seconds=perf_counter() - start)
        return 0

    import_attnlab()
    import workloads
    from refclock import RefClock, WallClock
    from tracing import Tracer

    clock = RefClock()
    workload = workloads.make(args.workload, args.seed, args.scratch, tiny=args.tiny)
    tracer = Tracer() if args.trace and args.role == "measure" else None
    # Set-up after the imports is timed in reference seconds too, except in
    # a traced run, where a speed sample would land inside the spans.
    with (WallClock() if tracer else clock).unit() as setup:
        if tracer is not None:
            tracer.patch()
        try:
            workload.prepare()
        finally:
            if tracer is not None:
                tracer.unpatch()
        digest = workload.warmup()
    emit("ready", digest=digest, work_s=setup.work_s, ref_s=setup.ref_s,
         sampled_s=setup.sampled_s + clock.init_s, first_ref_second=setup.first_ref_second)
    if args.role == "setup":
        return 0
    if tracer is None:
        workload.clock = clock

    plain, traced, unit_counts = measure(workload, args.seconds, tracer)
    units = plain + traced
    wrong = [w for u in units for w in u.wrong]
    for k, (a, b) in enumerate(zip(plain, traced)):
        if a.digest != b.digest:
            wrong.append(f"unit {k}: traced outputs differ from untraced outputs")
    corr = [u.corr_svm for u in plain if u.corr_svm is not None]
    dist = [u.dist_fin for u in plain if u.dist_fin is not None]
    result = {
        "attempted": sum(u.trials for u in units),
        "failed": sum(u.failed for u in units),
        "wrong": wrong,
        "failures": sorted({f for u in units for f in u.failures}),
        "unit_rates": [u.trials / u.seconds for u in plain],
        "unit_ref_rates": [u.trials / u.ref_seconds for u in plain],
        "unit_digests": [u.digest for u in plain],
        "trials_per_s": sum(u.trials for u in plain) / sum(u.seconds for u in plain),
        "trials_per_ref_s": sum(u.trials for u in plain) / sum(u.ref_seconds for u in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "corr_svm": statistics.fmean(corr) if corr else None,
        "dist_fin": statistics.fmean(dist) if dist else None,
        "facts": blas_facts(),
    }
    if tracer is not None:
        layers, problems = per_layer(tracer, plain, traced, unit_counts)
        result.update(layers)
        result["wrong"] += problems
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "unit", "trial"],
                       "spans": tracer.as_rows()}, fh)
    emit("done", **result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
