"""Command-line entry point.

Exit codes: 0 ok, 2 config error, 3 acceptance violation, 4 numeric failure.
The ATTNLAB_SEED environment variable overrides the default seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from typing import Optional

import numpy as np

from . import analysis, attention, experiments, graph, svm
from .dataset import (
    GENERAL_ARGMAX,
    ORTHONORMAL,
    TIED,
    UNIT_SPHERE,
    gen_dataset,
    load_dataset,
    make_embeddings,
    make_head,
    save_dataset,
)
from .errors import AttnLabError, DomainError, NoConvergence, NonFiniteLoss
from .util import default_seed, read_json, write_csv, write_json

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ACCEPTANCE = 3
EXIT_NUMERIC = 4


def _parse_kv(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"expected key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError:
            out[key] = raw
    return out


def _cmd_gen_data(args) -> int:
    table = make_embeddings(args.K, args.d, args.kind, seed=args.seed)
    head = None
    if args.head != "none":
        head = make_head(table, args.head, noise=args.noise, seed=args.seed)
    ds = gen_dataset(table, head, n=args.n, T=args.T, mode=args.mode, seed=args.seed)
    save_dataset(ds, args.out)
    print(f"wrote {args.out}: K={ds.K} d={ds.d} n={ds.n} T={ds.t_max} mode={args.mode}")
    return EXIT_OK


def _cmd_build_graph(args) -> int:
    pipe = experiments.Pipeline(load_dataset(args.data))
    write_json(args.out, graph.graphs_as_dict(pipe.tpgs, pipe.decomps))
    print(f"wrote {args.out}: {len(pipe.tpgs)} graph(s)")
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(graph.graphs_as_dot(pipe.tpgs))
        print(f"wrote {args.dot}")
    return EXIT_OK


def _cmd_solve_svm(args) -> int:
    pipe = experiments.Pipeline(load_dataset(args.data))
    sol, cons, feasible = pipe.solution, pipe.constraints, pipe.feasibility
    payload = {
        "W": sol.w.tolist(),
        "norm": sol.norm,
        "status": sol.status.value,
        "residuals": sol.residuals,
        "feasibility": {"status": feasible.status.value, "residuals": feasible.residuals},
        "n_equalities": len(cons.equalities),
        "n_inequalities": len(cons.inequalities),
        "subspace_dims": {"fin": pipe.s_fin.dim, "active": pipe.s_active.dim, "svm": pipe.s_svm.dim},
    }
    write_json(args.out, payload)
    print(f"wrote {args.out}: status={sol.status.value} norm={sol.norm:.6f} feasibility={feasible.status.value}")
    return EXIT_OK if sol.status is svm.SolveStatus.SOLVED else EXIT_NUMERIC


def _parse_init(raw: str) -> tuple[str, float]:
    if raw == "zero":
        return "zero", 0.0
    if raw.startswith("gauss:"):
        return "gauss", float(raw.split(":", 1)[1])
    raise ValueError(f"init must be 'zero' or 'gauss:<scale>', got {raw!r}")


def _cmd_train(args) -> int:
    ds = load_dataset(args.data)
    init_kind, init_scale = _parse_init(args.init)
    config = attention.TrainConfig(
        eta=args.eta,
        iters=args.iters,
        normalized=args.normalized,
        init=init_kind,
        init_scale=init_scale,
        init_seed=args.seed,
        loss=args.loss,
        record_every=args.record_every,
    )
    refs = attention.TrainRefs()
    inf_val: Optional[float] = None
    if not args.no_refs:
        pipe = experiments.build_pipeline(ds)
        refs = pipe.refs()
        inf_val = attention.loss_inf(pipe.split, pipe.w_fin)
    t0 = time.perf_counter()
    trace = attention.train_gd(ds, config, refs=refs)
    wall_ms = (time.perf_counter() - t0) * 1e3
    write_csv(args.trace, attention.TrainTrace.csv_header(), trace.columns())
    summary = {
        "final_corr": None if not np.isfinite(trace.corr_svm[-1]) else float(trace.corr_svm[-1]),
        "final_dist": None if not np.isfinite(trace.dist_fin[-1]) else float(trace.dist_fin[-1]),
        "final_loss": float(trace.loss[-1]),
        "loss_inf": inf_val,
        "wall_ms": wall_ms,
    }
    write_json(args.summary, summary)
    print(f"wrote {args.trace} and {args.summary}: final loss {trace.loss[-1]:.6f}")
    return EXIT_OK


def _read_trace(path: str) -> attention.TrainTrace:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    for name in attention.TrainTrace.csv_header():
        if name not in (reader.fieldnames or ()):
            raise ValueError(f"{path}: trace has no {name!r} column")
    if not rows:
        raise ValueError(f"{path}: trace has a header but no rows")
    iters = []
    cols = {name: np.empty(len(rows)) for name in attention.TrainTrace.csv_header() if name != "iter"}
    for line, row in enumerate(rows, start=2):
        if None in row or None in row.values():
            raise ValueError(f"{path}: line {line} does not match the header's "
                             f"{len(reader.fieldnames)} columns")
        try:
            iters.append(np.int64(int(row["iter"])))
        except (ValueError, OverflowError):
            raise ValueError(f"{path}: line {line}: iter {row['iter']!r} is not a 64-bit whole number") from None
        for name, col in cols.items():  # an empty cell is NaN
            try:
                col[line - 2] = np.nan if row[name] == "" else float(row[name])
            except ValueError:
                raise ValueError(f"{path}: line {line}: {name} {row[name]!r} is not a number") from None
    return attention.TrainTrace(iters=np.array(iters, dtype=np.int64), t_ms=np.zeros(len(rows)), **cols)


def _cmd_analyze(args) -> int:
    write_json(args.out, analysis.convergence_report(_read_trace(args.trace)))
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_exp(args) -> int:
    params, thresholds = {}, {}
    seed, trials, out_dir, check = args.seed, args.trials, args.out, not args.no_check
    if args.config:
        loaded = read_json(args.config)
        if not isinstance(loaded, dict):
            raise ValueError(f"{args.config}: a config file holds a JSON object, got {type(loaded).__name__}")
        for key in ("params", "thresholds"):
            if not isinstance(loaded.get(key, {}), dict):
                raise ValueError(f"{args.config}: {key!r} must be a JSON object, got {type(loaded[key]).__name__}")
        for key in ("seed", "trials"):
            if loaded.get(key) is not None and type(loaded[key]) is not int:
                raise ValueError(f"{args.config}: {key!r} must be an integer, got {loaded[key]!r}")
        if loaded.get("name") and loaded["name"] != args.name:
            raise ValueError(f"{args.config}: config file is for {loaded['name']!r}, not {args.name!r}")
        params.update(loaded.get("params", {}))
        thresholds.update(loaded.get("thresholds", {}))
        seed = loaded.get("seed") if seed is None else seed
        trials = trials or loaded.get("trials") or 0  # null is absent, as for "seed"
    params.update(_parse_kv(args.set or []))
    thresholds.update(_parse_kv(args.threshold or []))
    config = experiments.ExperimentConfig(
        name=args.name,
        params=params,
        thresholds=thresholds,
        seed=default_seed() if seed is None else seed,
        trials=trials,
        output_dir=out_dir,
        check=check,
    )
    code, summary = experiments.run_experiment(config)
    status = "ok" if code == EXIT_OK else "VIOLATED"
    print(f"experiment {args.name}: {status}")
    for key, value in sorted(summary.items()):
        if key != "violations":
            print(f"  {key} = {value}")
    for v in summary.get("violations", []):
        print(f"  violation: {v}")
    return code


def _cmd_selftest(args) -> int:
    results = experiments.selftest(seed=args.seed)
    failed = 0
    for r in results:
        mark = "PASS" if r.ok else "FAIL"
        print(f"[{mark}] {r.name}: {r.detail}")
        failed += not r.ok
    print(f"selftest: {len(results) - failed}/{len(results)} properties passed")
    return EXIT_OK if failed == 0 else EXIT_ACCEPTANCE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="attnlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset JSON")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--kind", choices=[ORTHONORMAL, UNIT_SPHERE], default=UNIT_SPHERE)
    p.add_argument("--head", choices=[TIED, GENERAL_ARGMAX, "none"], default=TIED)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--mode", choices=["cyclic", "acyclic"], default="cyclic")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_gen_data)

    p = sub.add_parser("build-graph", help="emit token-priority graphs as JSON (and DOT)")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dot", default=None)
    p.set_defaults(fn=_cmd_build_graph)

    p = sub.add_parser("solve-svm", help="solve the graph SVM for a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_solve_svm)

    p = sub.add_parser("train", help="train attention weights and emit a trace CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--loss", choices=[attention.LOG, attention.SQUARED, attention.CROSS_ENTROPY],
                   default=attention.LOG)
    p.add_argument("--eta", type=float, default=0.01)
    p.add_argument("--iters", type=int, default=1000)
    p.add_argument("--normalized", action="store_true")
    p.add_argument("--init", default="zero", help="'zero' or 'gauss:<scale>'")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--record-every", type=int, default=10)
    p.add_argument("--no-refs", action="store_true", help="skip the SVM/W_fin reference pipeline")
    p.add_argument("--trace", required=True)
    p.add_argument("--summary", required=True)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("analyze", help="summarize a trace CSV into a report JSON")
    p.add_argument("--trace", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("exp", help="run a named experiment")
    p.add_argument("name", choices=sorted(experiments.EXPERIMENTS))
    p.add_argument("--out", default="out")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trials", type=int, default=0)
    p.add_argument("--config", default=None, help="JSON config/manifest; flags override it")
    p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a parameter")
    p.add_argument("--threshold", action="append", metavar="KEY=VALUE", help="override a threshold")
    p.add_argument("--no-check", action="store_true", help="report violations without failing")
    p.set_defaults(fn=_cmd_exp)

    p = sub.add_parser("selftest", help="run the property suite at small sizes")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "seed", None) is None and args.command != "exp":  # exp may read its seed from --config
        args.seed = default_seed()
    try:
        return args.fn(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DomainError, NonFiniteLoss, NoConvergence) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except AttnLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
