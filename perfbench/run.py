"""attnlab benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --summarize

With ``--trace 0`` the last stdout line is a JSON object whose metrics are
the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` they are its
per-layer metrics.  Earlier lines are a readable report, and the full record
(machine facts, quality figures, per-unit rates) goes to
``.perfbench/results/``.  Workers run one at a time with BLAS pinned to one
thread; README.md in this directory describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from worker import PREFIX

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("desk", "large-k", "refs")
SETUP_SAMPLES = 3     # fresh interpreters set up per run; setup_s is their median
IMPORT_SAMPLES = 5    # fresh interpreters timing `import attnlab.cli` in a traced run
CHILD_TIMEOUT = 170.0  # seconds; a run must end within 180
END_TO_END_UNITS = {"trials_per_ref_s": "trials/ref_s", "setup_s": "s", "peak_rss_mb": "MB"}
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "PYTHONHASHSEED": "0"}


class BenchError(RuntimeError):
    pass


def child_env(scratch: Path) -> dict:
    env = dict(os.environ)
    env.update(PINNED)
    env["TMPDIR"] = str(scratch)
    return env


def spawn(args: list[str], env: dict, deadline: float) -> tuple[float, dict]:
    """Run a worker to completion; returns the wall time until it reported
    ready (None if it never did) and its messages by event."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    timer = threading.Timer(max(1.0, deadline - perf_counter()), proc.kill)
    timer.start()
    ready_after, messages = None, {}
    try:
        for line in proc.stdout:
            if not line.startswith(PREFIX):
                sys.stderr.write(line)
                continue
            msg = json.loads(line[len(PREFIX):])
            if msg["event"] == "ready":
                ready_after = perf_counter() - start
            messages[msg["event"]] = msg
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {code}")
    return ready_after, messages


def commit_of(root: Path):
    """HEAD of the checkout when it is itself a git work tree, else None."""
    try:
        top = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root:
        return None
    return lines[1]


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "attnlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine_facts(root: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "commit": commit_of(root),
        "source_sha256": source_digest(root),
        "pinned_env": PINNED,
        "loadavg_start": list(os.getloadavg()),
    }


def run(workload: str, seed: int, seconds: float, trace: int, tiny: bool = False) -> dict:
    """One benchmark run; returns the record written to .perfbench/results."""
    deadline = perf_counter() + CHILD_TIMEOUT
    facts = machine_facts(ROOT)
    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}{'-tiny' if tiny else ''}"
    env = child_env(scratch)
    common = ["--workload", workload, "--seed", str(seed), "--scratch", str(scratch)]
    if tiny:
        common.append("--tiny")
    setups, setups_wall, digests = [], [], []

    def set_up(args):
        """Spawn a worker and time its set-up in reference seconds: the part
        the worker sampled (inputs and warm-up) as it reports it, and the
        part before (start-up and imports) at the speed of its first sample."""
        ready_after, msgs = spawn(args, env, deadline)
        ready = msgs["ready"]
        wall = ready_after - ready["sampled_s"]
        setups_wall.append(wall)
        setups.append((wall - ready["work_s"]) / ready["first_ref_second"] + ready["ref_s"])
        digests.append(ready["digest"])
        return msgs

    try:
        for _ in range(SETUP_SAMPLES - 1 if trace == 0 else 0):
            set_up(["--role", "setup", *common])
        msgs = set_up(["--role", "measure", "--seconds", str(seconds), "--trace", str(trace),
                       "--spans", str(results / f"{stem}-spans.json"), *common])
        done = msgs["done"]
        imports = []
        for _ in range(IMPORT_SAMPLES if trace else 0):
            imports.append(spawn(["--role", "import"], env, deadline)[1]["imported"]["seconds"])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    facts["loadavg_end"] = list(os.getloadavg())
    facts.update(done.pop("facts"))

    wrong = list(done["wrong"])
    if len(set(digests)) != 1:
        wrong.append(f"warm-up outputs differ between fresh interpreters: {digests}")
    if trace == 0:
        metrics = {
            "trials_per_ref_s": done["trials_per_ref_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": done["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in done["metrics"].items()}
        metrics["cli.import_s"] = {"value": statistics.median(imports), "unit": "s"}
    result = {
        "correct": not wrong,
        "attempted": int(done["attempted"]),
        "failed": int(done["failed"]),
        "metrics": metrics,
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "tiny": tiny,
        "result": result, "facts": facts, "wrong": wrong, "failures": done["failures"],
        "setup_samples_s": setups, "setup_wall_samples_s": setups_wall,
        "warmup_digests": digests, "trials_per_s": done["trials_per_s"],
        "unit_rates": done["unit_rates"], "unit_ref_rates": done["unit_ref_rates"],
        "unit_digests": done["unit_digests"],
        "fail_ratio": done["failed"] / done["attempted"],
        "corr_svm": done["corr_svm"], "dist_fin": done["dist_fin"],
        "extras": done.get("extras"),
    }
    with open(results / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    return record


def report(record: dict) -> None:
    """Readable lines ahead of the JSON result line."""
    res, facts = record["result"], record["facts"]
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']} "
          f"measured {record['seconds']} s")
    print(f"machine: nproc {facts['nproc']}, python {facts['python']}, numpy {facts['numpy']}, "
          f"blas {facts['blas']} {facts['blas_version']} x{facts['blas_threads']} threads, "
          f"load {facts['loadavg_start'][0]:.2f} -> {facts['loadavg_end'][0]:.2f}, "
          f"commit {facts['commit'] or 'n/a'}")
    for name, m in res["metrics"].items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(f"  {'wall trials_per_s':36s} {record['trials_per_s']:.6g} trials/s")
    print(f"  {'wall setup_s':36s} {statistics.median(record['setup_wall_samples_s']):.6g} s")
    print(f"  {'fail_ratio':36s} {record['fail_ratio']:.6g} ratio "
          f"({res['failed']}/{res['attempted']} trials)")
    for name, unit in (("corr_svm", "cosine"), ("dist_fin", "Frobenius")):
        value = "n/a" if record[name] is None else f"{record[name]:.6g}"
        print(f"  {name:36s} {value} {unit}")
    if record["trace"] == 1:
        m = res["metrics"]
        wall = m["trace.wall_s"]["value"]
        print(f"  self times sum to {wall - m['trace.unattributed_s']['value']:.6g} s of "
              f"{wall:.6g} s traced wall per trial; tracing overhead {m['trace.overhead_s']['value']:.6g} s")
    for f in record["failures"]:
        print(f"  failed: {f}")
    for w in record["wrong"]:
        print(f"  WRONG: {w}")


def smoke() -> int:
    """Every workload at tiny size, untraced and traced: each metric that
    BENCHMARK.json names must be emitted with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    missing = []
    for workload in WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            record = run(workload, seed=1, seconds=0.1, trace=trace, tiny=True)
            metrics = record["result"]["metrics"]
            for m in spec[group]:
                got = metrics.get(m["name"])
                if got is None or got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
                    missing.append(f"{workload} trace {trace}: {m['name']} [{m['unit']}] got {got}")
            extra = set(metrics) - {m["name"] for m in spec[group]}
            if extra:
                missing.append(f"{workload} trace {trace}: undeclared metrics {sorted(extra)}")
            print(f"smoke {workload} trace {trace}: {len(metrics)} metrics, "
                  f"attempted {record['result']['attempted']}")
    for m in missing:
        print(f"MISSING {m}")
    print("smoke: ok" if not missing else f"smoke: {len(missing)} problems")
    return 0 if not missing else 1


def summarize() -> int:
    """Median and quartiles over the untraced runs recorded so far, per
    workload and end-to-end metric."""
    values: dict[tuple[str, str], list[float]] = {}
    for path in sorted((OUT / "results").glob("*-trace0.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        for name, m in record["result"]["metrics"].items():
            values.setdefault((record["workload"], name), []).append(m["value"])
    for (workload, name), vals in sorted(values.items()):
        if len(vals) < 2:
            print(f"{workload:8s} {name:14s} n={len(vals)} value {vals[0]:.6g}")
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{workload:8s} {name:14s} n={len(vals)} median {med:.6g} "
              f"quartiles {q1:.6g} .. {q3:.6g} (spread {(q3 - q1) / med:.3f} of median)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, all workloads")
    parser.add_argument("--summarize", action="store_true",
                        help="median and quartiles over the runs in .perfbench/results")
    args = parser.parse_args(argv)
    if args.summarize:
        return summarize()
    if not (ROOT / "src" / "attnlab" / "__init__.py").is_file():
        print(f"no attnlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        record = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    report(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
