"""The library names the benchmark's tracer wraps (perfbench/tracing.py):
a name that moves, or a call that stops going through it, silently zeroes
a per-layer metric instead of failing."""

import os

import pytest

from attnlab import experiments

from helpers import load_tool

tracing = load_tool("tracing", "perfbench")


@pytest.mark.parametrize("module,attr", [(m, a) for m, a, _, _ in tracing.TRACED],
                         ids=[name for _, _, name, _ in tracing.TRACED])
def test_every_traced_name_resolves(module, attr):
    assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_every_csv_goes_through_experiments_write_csv(tmp_path, monkeypatch):
    # The tracer counts artifact bytes from the file named by the first
    # argument of each write_csv call (`tracing._count_bytes`).
    paths, write = [], experiments.write_csv

    def recording(*args, **kwargs):
        write(*args, **kwargs)
        paths.append(args[0])

    monkeypatch.setattr(experiments, "write_csv", recording)
    out = tmp_path / "run"
    config = experiments.ExperimentConfig("cyclic-global", {"iters": 30}, {}, seed=0, trials=2, output_dir=str(out))
    experiments.run_experiment(config)
    written = sorted(os.path.relpath(p, out) for p in map(str, out.rglob("*.csv")))
    assert written == ["aggregate.csv", os.path.join("traces", "trial_000.csv"), os.path.join("traces", "trial_001.csv")]
    assert sorted(os.path.relpath(p, out) for p in paths) == written
    assert all(os.path.getsize(p) > 0 for p in paths)
