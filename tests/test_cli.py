"""CLI surface: subcommands, artifacts, determinism, and exit codes."""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from attnlab import analysis, attention, cli, experiments, graph, svm
from attnlab import dataset as dsm
from attnlab.util import write_csv

from helpers import edit_finish


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture()
def dataset_file(tmp_path):
    path = tmp_path / "ds.json"
    assert run_cli("gen-data", "--K", 5, "--d", 6, "--n", 5, "--T", 4,
                   "--seed", 3, "--out", path) == 0
    return path


class TestSubcommands:
    def test_gen_data_roundtrips(self, dataset_file):
        ds = dsm.load_dataset(str(dataset_file))
        assert ds.K == 5 and ds.d == 6 and ds.n == 5

    def test_gen_data_headless_and_acyclic(self, tmp_path):
        path = tmp_path / "a.json"
        assert run_cli("gen-data", "--K", 6, "--d", 3, "--n", 4, "--T", 3,
                       "--head", "none", "--mode", "acyclic", "--seed", 1,
                       "--out", path) == 0
        ds = dsm.load_dataset(str(path))
        assert ds.head is None

    def test_build_graph_json_and_dot(self, dataset_file, tmp_path):
        out = tmp_path / "g.json"
        dot = tmp_path / "g.dot"
        assert run_cli("build-graph", "--data", dataset_file, "--out", out, "--dot", dot) == 0
        desc = json.loads(out.read_text())
        for entry in desc.values():
            assert {"last_token", "nodes", "edges", "components", "levels"} <= set(entry)
        assert dot.read_text().startswith("digraph")

    def test_solve_svm_output(self, dataset_file, tmp_path):
        out = tmp_path / "svm.json"
        assert run_cli("solve-svm", "--data", dataset_file, "--out", out) == 0
        payload = json.loads(out.read_text())
        assert payload["status"] == "solved"
        # d >= K: the feasibility verdict is the paper's construction, checked.
        assert payload["feasibility"]["status"] == "solved"
        assert payload["feasibility"]["residuals"]["min_ineq_margin"] >= 1.0 - svm.PRIMAL_TOL
        assert set(payload["subspace_dims"]) == {"fin", "active", "svm"}
        w = np.array(payload["W"])
        assert abs(float(np.linalg.norm(w)) - payload["norm"]) <= 1e-12

    def test_solve_svm_without_inequalities_writes_strict_json(self, tmp_path):
        # One SCC, so no inequality: the minimum margin over none is +inf,
        # which strict JSON has no token for and which is written as null.
        path, out = tmp_path / "scc.json", tmp_path / "svm.json"
        dsm.save_dataset(experiments.single_scc_dataset(), str(path))
        assert run_cli("solve-svm", "--data", path, "--out", out) == 0

        def refuse(token):
            raise ValueError(f"not JSON: {token}")

        payload = json.loads(out.read_text(), parse_constant=refuse)
        assert payload["n_inequalities"] == 0 and payload["residuals"]["min_ineq_margin"] is None

    def test_train_trace_and_summary(self, dataset_file, tmp_path):
        trace = tmp_path / "trace.csv"
        summary = tmp_path / "summary.json"
        assert run_cli("train", "--data", dataset_file, "--eta", 0.01, "--iters", 200,
                       "--normalized", "--record-every", 50, "--seed", 0,
                       "--trace", trace, "--summary", summary) == 0
        lines = trace.read_text().splitlines()
        assert lines[0] == "iter,loss,loss_bar,grad_norm,w_norm,corr_svm,dist_fin"
        assert len(lines) == 1 + 5  # records at 0, 50, 100, 150, 200
        payload = json.loads(summary.read_text())
        assert {"final_corr", "final_dist", "final_loss", "loss_inf", "wall_ms"} <= set(payload)

    def test_analyze_report(self, dataset_file, tmp_path):
        trace = tmp_path / "trace.csv"
        summary = tmp_path / "summary.json"
        report = tmp_path / "report.json"
        run_cli("train", "--data", dataset_file, "--eta", 0.01, "--iters", 100,
                "--normalized", "--record-every", 20, "--seed", 0,
                "--trace", trace, "--summary", summary)
        assert run_cli("analyze", "--trace", trace, "--out", report) == 0
        rep = json.loads(report.read_text())
        assert rep["records"] == 6
        assert rep["final_loss"] is not None

    def test_analyze_header_only_trace_is_config_error(self, tmp_path, capsys):
        trace = tmp_path / "empty.csv"
        trace.write_text("iter,loss,loss_bar,grad_norm,w_norm,corr_svm,dist_fin\n")
        assert run_cli("analyze", "--trace", trace, "--out", tmp_path / "r.json") == 2
        assert "empty.csv" in capsys.readouterr().err

    def test_analyze_missing_column_is_config_error(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text("iter,loss,loss_bar,grad_norm,w_norm,corr_svm\n0,1.0,,0.5,0.0,\n")
        assert run_cli("analyze", "--trace", trace, "--out", tmp_path / "r.json") == 2
        assert "'dist_fin'" in capsys.readouterr().err

    @pytest.mark.parametrize("cell, line", [("", 3), ("2.5", 4), (str(2**63), 3)],
                             ids=["empty", "fraction", "overflow"])
    def test_analyze_iter_that_is_not_a_whole_number_is_config_error(self, tmp_path, capsys, cell, line):
        trace = tmp_path / "trace.csv"
        iters = ["0", "1", "2"]
        iters[line - 2] = cell
        rows = "".join(f"{it},1.0,,0.5,{t + 1.0},,\n" for t, it in enumerate(iters))
        trace.write_text("iter,loss,loss_bar,grad_norm,w_norm,corr_svm,dist_fin\n" + rows)
        assert run_cli("analyze", "--trace", trace, "--out", tmp_path / "r.json") == 2
        assert f"trace.csv: line {line}: iter {cell!r} is not a 64-bit whole number" in capsys.readouterr().err


    @pytest.mark.parametrize("column", ["loss", "loss_bar", "grad_norm", "w_norm", "corr_svm", "dist_fin"])
    def test_analyze_float_cell_that_is_not_a_number_is_config_error(self, tmp_path, capsys, column):
        # Line 3's cell of the column reads "abc"; line 2's empty cells stay NaN.
        trace = tmp_path / "trace.csv"
        header = "iter,loss,loss_bar,grad_norm,w_norm,corr_svm,dist_fin"
        rows = [dict(zip(header.split(","), ["0", "1.0", "", "0.5", "1.0", "", ""])),
                dict(zip(header.split(","), ["1", "0.9", "0.8", "0.4", "2.0", "0.5", "0.1"]))]
        rows[1][column] = "abc"
        trace.write_text(header + "\n" + "".join(",".join(row.values()) + "\n" for row in rows))
        assert run_cli("analyze", "--trace", trace, "--out", tmp_path / "r.json") == 2
        assert f"trace.csv: line 3: {column} 'abc' is not a number" in capsys.readouterr().err


class TestExperimentCommand:
    def test_exp_writes_artifacts_and_passes(self, tmp_path):
        out = tmp_path / "exp"
        code = run_cli("exp", "cyclic-global", "--out", out, "--seed", 0,
                       "--trials", 2)
        assert code == 0
        assert (out / "manifest.json").exists()
        assert (out / "aggregate.csv").exists()
        assert (out / "summary.json").exists()
        assert (out / "traces" / "trial_000.csv").exists()

    def test_manifest_roundtrip_reproduces_summary(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("exp", "cyclic-global", "--out", a, "--seed", 9, "--trials", 2)
        run_cli("exp", "cyclic-global", "--out", b, "--config", a / "manifest.json")
        sa = json.loads((a / "summary.json").read_text())
        sb = json.loads((b / "summary.json").read_text())
        assert sa == sb
        assert json.loads((b / "manifest.json").read_text())["seed"] == 9

    def test_threshold_override_forces_violation(self, tmp_path):
        code = run_cli("exp", "cyclic-global", "--out", tmp_path / "w", "--seed", 0,
                       "--trials", 2, "--threshold", "min_mean_corr=1.5")
        assert code == 3

    def test_no_check_reports_but_passes(self, tmp_path):
        code = run_cli("exp", "cyclic-global", "--out", tmp_path / "x", "--seed", 0,
                       "--trials", 2, "--threshold", "min_mean_corr=1.5",
                       "--no-check")
        assert code == 0
        summary = json.loads((tmp_path / "x" / "summary.json").read_text())
        assert summary["violations"]

    def test_two_runs_write_the_same_bytes(self, tmp_path):
        # Every experiment, at uneven trial counts (5 trials, 4 feasibility
        # jobs), writes the same files with the same bytes when run twice
        # with one config and seed.
        feasibility = ["--set", "d_grid=[2,4]", "--set", "K=4", "--set", "n=4", "--set", "iters=200"]
        runs = [
            ("scc-count", ["--trials", 3, "--set", "n_grid=[8,16]"]),
            ("feasibility", ["--trials", 2, *feasibility]),
            ("acyclic-global", ["--trials", 4, "--set", "iters=500"]),
            ("large-k", ["--trials", 3, "--set", "K=60", "--set", "d=8", "--set", "n=4",
                         "--set", "T=8", "--set", "iters=200"]),
            ("cyclic-global", ["--trials", 5]),
            ("local-squared", ["--trials", 5, "--set", "iters=200"]),
            ("local-ce", ["--trials", 5, "--set", "iters=200"]),
            ("reg-path", ["--trials", 2, "--set", "r_count=3"]),
        ]
        for k, (name, extra) in enumerate(runs):
            a, b = tmp_path / str(k) / "a", tmp_path / str(k) / "b"
            codes = [run_cli("exp", name, "--out", out, "--seed", 4, *extra) for out in (a, b)]
            assert codes[0] == codes[1], name
            files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
            assert files == sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file()), name
            assert {"aggregate.csv", "summary.json"} <= {str(f) for f in files}, name
            for f in files:
                assert (a / f).read_bytes() == (b / f).read_bytes(), (name, f)


def _flipped_grad(grad):
    return lambda w, ds, kind=attention.LOG: -grad(w, ds, kind)


def _tripled_grad(grad):
    return lambda w, ds, kind=attention.LOG: 3.0 * grad(w, ds, kind)


def _negated_loss(loss):
    return lambda w, ds, kind=attention.LOG: -loss(w, ds, kind)


def _scc_without_first_out_edges(decompose_all):
    # Every graph loses the out-edges of its smallest node.
    def mutated(tpgs):
        return decompose_all({
            k: dataclasses.replace(g, edges={i: o for i, o in g.edges.items() if i != min(g.nodes)})
            for k, g in tpgs.items()
        })
    return mutated


def _svm_shifted_into_s_fin(solve):
    def mutated(constraints, *args, **kwargs):
        sol = solve(constraints, *args, **kwargs)
        s_fin = svm.fin_subspace(constraints)
        if s_fin.dim == 0:
            return sol
        return dataclasses.replace(sol, w=sol.w + 1e-3 * s_fin.basis[0])
    return mutated


def _svm_scaled_below_margin(solve):
    # The solver's residuals are left as reported for the true W_svm.
    def mutated(*args, **kwargs):
        sol = solve(*args, **kwargs)
        return dataclasses.replace(sol, w=0.9 * sol.w)
    return mutated


def _svm_scaled_above_margin(solve):
    # Every margin holds, but W is no longer its multipliers' combination.
    def mutated(*args, **kwargs):
        sol = solve(*args, **kwargs)
        return dataclasses.replace(sol, w=1.1 * sol.w)
    return mutated


def _svm_without_last_inequality(solve):
    # The last graph's closure loses its last strict pair, so the solve
    # sees one inequality fewer.
    def mutated(constraints, *args, **kwargs):
        reach = constraints.closures
        g, a, b = np.argwhere(reach & ~np.swapaxes(reach, 1, 2))[-1]
        closures = reach.copy()
        closures[g, a, b] = False
        return solve(dataclasses.replace(constraints, closures=closures), *args, **kwargs)
    return mutated


def _per_token_skipping_last(solve_per_last_token):
    def mutated(constraints, *args, **kwargs):
        kept = dataclasses.replace(
            constraints,
            last_tokens=constraints.last_tokens[:-1],
            nodes=constraints.nodes[:-1],
            closures=constraints.closures[:-1],
        )
        return solve_per_last_token(kept, *args, **kwargs)
    return mutated


def _wfin_shifted_in_s_fin(train_wfin):
    # W_fin moved by 1e-5 inside S_fin, still labelled certified.
    def mutated(split, s_fin):
        res = train_wfin(split, s_fin)
        if s_fin.dim == 0:
            return res
        return dataclasses.replace(res, w=res.w + 1e-5 * s_fin.basis[0])
    return mutated


def _plain_gd(train_gd):
    def mutated(dataset, config, refs=None):
        return train_gd(dataset, dataclasses.replace(config, normalized=False), refs)
    return mutated


# Mutation canaries: (property, module, attribute, wrapper).  Each row
# replaces one library function with a faulty wrapper around it, and the
# property must then report ok=False.
CANARIES = [
    ("gradient_check", attention, "grad", _flipped_grad),
    ("descent", attention, "grad", _tripled_grad),
    ("convexity_chords", attention, "loss", _negated_loss),
    ("kkt", svm, "solve_graph_svm", _svm_scaled_below_margin),
    ("kkt", svm, "solve_graph_svm", _svm_scaled_above_margin),
    ("kkt", svm, "solve_graph_svm", _svm_without_last_inequality),
    ("scc_oracle", graph, "decompose_all", _scc_without_first_out_edges),
    ("orthogonality", svm, "solve_graph_svm", _svm_shifted_into_s_fin),
    ("per_token_reduction", svm, "solve_per_last_token", _per_token_skipping_last),
    ("zero_svm_stasis", graph, "decompose_all", _scc_without_first_out_edges),
    ("wfin_certificate", attention, "train_wfin", _wfin_shifted_in_s_fin),
    ("normalized_step", attention, "train_gd", _plain_gd),
]


class TestSelftest:
    def test_selftest_passes(self):
        assert run_cli("selftest", "--seed", 0) == 0

    def test_selftest_seed_variation(self, capsys):
        assert run_cli("selftest", "--seed", 1) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 10
        names = [line.split()[1].rstrip(":") for line in out.splitlines() if line.startswith("[PASS]")]
        assert names == [prop.__name__ for prop in experiments.PROPERTIES]

    @pytest.mark.parametrize(
        "prop, module, name, mutate", CANARIES,
        ids=[f"{row[0]}-{row[3].__name__.lstrip('_')}" for row in CANARIES],
    )
    def test_canary_fails_property(self, monkeypatch, prop, module, name, mutate):
        monkeypatch.setattr(module, name, mutate(getattr(module, name)))
        assert not getattr(experiments, prop)(0).ok

    def test_every_property_has_a_canary(self):
        assert {prop.__name__ for prop in experiments.PROPERTIES} <= {row[0] for row in CANARIES}


class TestExitCodes:
    def test_missing_file_is_config_error(self, tmp_path):
        assert run_cli("solve-svm", "--data", tmp_path / "nope.json",
                       "--out", tmp_path / "o.json") == 2

    def test_bad_init_spec_is_config_error(self, dataset_file, tmp_path):
        for spec in ("what", "gauss:nan", "gauss:inf"):
            assert run_cli("train", "--data", dataset_file, "--init", spec,
                           "--trace", tmp_path / "t.csv", "--summary", tmp_path / "s.json") == 2, spec

    def test_numeric_failure_exit(self, tmp_path):
        # Non-realizable sample under a tied head: log loss domain error.
        path = tmp_path / "bad.json"
        table = dsm.make_embeddings(4, 4, dsm.ORTHONORMAL, seed=0)
        head = dsm.make_head(table, dsm.TIED)
        ds = dsm.Dataset(embedding=table, head=head,
                         samples=(dsm.Sample(tokens=(1, 2, 3), label=0),))
        dsm.save_dataset(ds, str(path))
        with pytest.warns(UserWarning):
            code = run_cli("train", "--data", path, "--iters", 10, "--no-refs",
                           "--trace", tmp_path / "t.csv", "--summary", tmp_path / "s.json")
        assert code == 4

    def test_uncertified_w_fin_is_numeric_failure(self, dataset_file, tmp_path, monkeypatch, capsys):
        train_wfin = attention.train_wfin

        def uncertified(split, s_fin):
            return dataclasses.replace(train_wfin(split, s_fin), status=attention.WfinStatus.UNCERTIFIED)

        monkeypatch.setattr(attention, "train_wfin", uncertified)
        assert run_cli("train", "--data", dataset_file, "--iters", 10,
                       "--trace", tmp_path / "t.csv", "--summary", tmp_path / "s.json") == 4
        assert "uncertified" in capsys.readouterr().err

    def test_non_realizable_sample_is_config_error_with_refs(self, tmp_path, capsys):
        path = tmp_path / "unrealizable.json"
        table = dsm.make_embeddings(4, 4, dsm.UNIT_SPHERE, seed=0)
        ds = dsm.Dataset(embedding=table, head=dsm.make_head(table, dsm.TIED), samples=(
            dsm.Sample(tokens=(0, 1, 2), label=0), dsm.Sample(tokens=(1, 0, 2), label=1),
            dsm.Sample(tokens=(2, 1, 2), label=3), dsm.Sample(tokens=(0, 2, 1), label=2)))
        dsm.save_dataset(ds, str(path))
        with pytest.warns(UserWarning, match="non-realizable"):
            code = run_cli("train", "--data", path, "--iters", 10,
                           "--trace", tmp_path / "t.csv", "--summary", tmp_path / "s.json")
        assert code == 2
        assert "samples[2]" in capsys.readouterr().err

    def test_unsolved_pseudo_svm_is_numeric_failure(self, tmp_path, monkeypatch, capsys):
        # The first solve is the dataset's own W_svm; every later one is a
        # pseudo-graph solve that reports an iteration cap.
        solve, calls = svm.solve_graph_svm, []

        def capped_after_first(*args, **kwargs):
            sol = solve(*args, **kwargs)
            calls.append(sol)
            return sol if len(calls) == 1 else dataclasses.replace(sol, status=svm.SolveStatus.MAX_ITER)

        monkeypatch.setattr(svm, "solve_graph_svm", capped_after_first)
        assert run_cli("exp", "local-squared", "--out", tmp_path / "x", "--seed", 0, "--trials", 1,
                       "--set", "iters=50") == 4
        assert "pseudo graph-SVM solve returned max_iter" in capsys.readouterr().err

    def test_undefined_local_means_name_their_trials(self, tmp_path, capsys):
        # After 50 steps both pseudo W_svm are zero and no pseudo W_fin is certified.
        assert run_cli("exp", "local-squared", "--out", tmp_path / "x", "--seed", 0, "--trials", 2,
                       "--set", "iters=50") == 3
        out = capsys.readouterr().out
        assert "mean corr_local undefined: 2 of 2 trials have a zero pseudo W_svm" in out
        assert "mean dist_local undefined: 2 of 2 trials have no certified pseudo W_fin" in out

    def test_unsolved_svm_is_numeric_failure(self, tmp_path):
        path = tmp_path / "infeasible.json"
        table = dsm.make_embeddings(6, 2, dsm.UNIT_SPHERE, seed=1)
        dsm.save_dataset(dsm.gen_dataset(table, None, n=4, T=4, mode="cyclic", seed=1), str(path))
        out = tmp_path / "svm.json"
        assert run_cli("solve-svm", "--data", path, "--out", out) == 4
        payload = json.loads(out.read_text())
        assert payload["status"] == "infeasible"
        assert payload["residuals"]["farkas_residual"] <= 1e-9
        assert payload["residuals"]["converged"] is True
        # d < K: the feasibility verdict is the solver's, unchanged.
        assert payload["feasibility"] == {"status": "infeasible", "residuals": payload["residuals"]}

    def test_solve_svm_solves_once_below_full_rank(self, tmp_path, monkeypatch):
        # d < K: the feasibility verdict is the pipeline's own solve, not a second one.
        path = tmp_path / "ds.json"
        table = dsm.make_embeddings(20, 10, dsm.UNIT_SPHERE, seed=3)
        dsm.save_dataset(dsm.gen_dataset(table, None, n=40, T=8, mode="cyclic", seed=3), str(path))
        calls, solve = [], svm.solve_graph_svm
        monkeypatch.setattr(svm, "solve_graph_svm", lambda cons: calls.append(1) or solve(cons))
        out = tmp_path / "svm.json"
        run_cli("solve-svm", "--data", path, "--out", out)
        payload = json.loads(out.read_text())
        assert len(calls) == 1
        assert payload["feasibility"] == {"status": payload["status"], "residuals": payload["residuals"]}

    def test_non_unit_embedding_row_is_config_error(self, dataset_file, tmp_path, capsys):
        raw = json.loads(dataset_file.read_text())
        raw["embeddings"][1] = [3.0] + [0.0] * (len(raw["embeddings"][1]) - 1)
        dataset_file.write_text(json.dumps(raw))
        assert run_cli("solve-svm", "--data", dataset_file, "--out", tmp_path / "o.json") == 2
        assert "embeddings[1]" in capsys.readouterr().err

    def test_empty_sweep_grid_is_config_error(self, tmp_path, capsys):
        for name, grid in (("scc-count", "n_grid"), ("feasibility", "d_grid")):
            assert run_cli("exp", name, "--out", tmp_path / name, "--trials", 1,
                           "--set", f"{grid}=[]") == 2
            assert grid in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, field", [
        ("--record-every", 0, "record_every"),
        ("--iters", -1, "iters"),
        ("--eta", 0, "eta"),
        ("--eta", "nan", "eta"),
    ])
    def test_bad_train_setting_is_config_error(self, dataset_file, tmp_path, capsys, flag, value, field):
        assert run_cli("train", "--data", dataset_file, "--no-refs", flag, value,
                       "--trace", tmp_path / "t.csv", "--summary", tmp_path / "s.json") == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("name, override, field", [
        ("cyclic-global", "iters=-1", "iters"),
        ("cyclic-global", "record_every=0", "record_every"),
        ("reg-path", "r_count=0", "radii"),
    ])
    def test_bad_experiment_setting_is_config_error(self, tmp_path, capsys, name, override, field):
        assert run_cli("exp", name, "--out", tmp_path / "x", "--seed", 0, "--trials", 1,
                       "--set", override) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("head", ["general_argmax", "tide"])
    def test_unknown_global_head_is_config_error(self, tmp_path, capsys, head):
        # A global experiment builds a tied head or none; any other value
        # stops the run before it trains, where it had trained headless.
        assert run_cli("exp", "cyclic-global", "--out", tmp_path / "x", "--trials", 1,
                       "--set", f"head={head}", "--set", "iters=50") == 2
        assert f"parameter 'head' must be 'tied' or 'none', got '{head}'" in capsys.readouterr().err

    def test_unknown_loss_is_config_error_before_any_pipeline(self, tmp_path, capsys, monkeypatch):
        # TrainConfig refuses the loss itself, before the trial's pipeline
        # is built or a training step runs.
        def no_pipeline(ds):
            raise AssertionError("a pipeline was built")

        monkeypatch.setattr(experiments, "build_pipeline", no_pipeline)
        assert run_cli("exp", "cyclic-global", "--out", tmp_path / "x", "--trials", 2,
                       "--set", "loss=bogus") == 2
        assert "unknown loss 'bogus'; choose 'log', 'squared' or 'ce'" in capsys.readouterr().err

    @pytest.mark.parametrize("name, flag, override, message", [
        ("cyclic-global", "--set", "iters=abc", "parameter 'iters' must be an integer, got 'abc'"),
        ("cyclic-global", "--set", "eta=abc", "parameter 'eta' must be a number, got 'abc'"),
        ("cyclic-global", "--set", "n=abc", "parameter 'n' must be an integer, got 'abc'"),
        ("cyclic-global", "--set", "K=2.5", "parameter 'K' must be an integer, got 2.5"),
        ("cyclic-global", "--set", "normalized=1", "parameter 'normalized' must be a boolean, got 1"),
        ("cyclic-global", "--set", "mode=3", "parameter 'mode' must be a string, got 3"),
        ("scc-count", "--set", "n_grid=16", "parameter 'n_grid' must be a list, got 16"),
        ("feasibility", "--set", "d_grid=[2.5]", "parameter 'd_grid'[0] must be an integer, got 2.5"),
        ("feasibility", "--set", "d_grid=[true]", "parameter 'd_grid'[0] must be an integer, got True"),
        ("feasibility", "--set", "d_grid=[2, true]", "parameter 'd_grid'[1] must be an integer, got True"),
        ("scc-count", "--set", 'n_grid=["a"]', "parameter 'n_grid'[0] must be an integer, got 'a'"),
        ("feasibility", "--set", "eps=abc", "parameter 'eps' must be a number or null, got 'abc'"),
        ("cyclic-global", "--threshold", "min_mean_corr=abc", "threshold 'min_mean_corr' must be a number"),
    ])
    def test_wrongly_typed_value_is_config_error(self, tmp_path, capsys, name, flag, override, message):
        assert run_cli("exp", name, "--out", tmp_path / "x", "--trials", 1, flag, override) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("content, message", [
        ("[1, 2]", "a config file holds a JSON object, got list"),
        ('{"params": [1]}', "'params' must be a JSON object, got list"),
        ('{"thresholds": 0.5}', "'thresholds' must be a JSON object, got float"),
        ('{"trials": "5"}', "'trials' must be an integer, got '5'"),
        ('{"name": "rate-check"}', "config file is for 'rate-check', not 'cyclic-global'"),
    ])
    def test_malformed_config_file_is_config_error(self, tmp_path, capsys, content, message):
        path = tmp_path / "config.json"
        path.write_text(content)
        assert run_cli("exp", "cyclic-global", "--out", tmp_path / "x", "--config", path) == 2
        assert f"{path}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, outputs", [
        (("exp", "cyclic-global"), "--config", ("--out",)),
        (("solve-svm",), "--data", ("--out",)),
        (("build-graph",), "--data", ("--out",)),
        (("train",), "--data", ("--trace", "--summary")),
    ], ids=["exp", "solve-svm", "build-graph", "train"])
    def test_malformed_json_file_is_config_error_naming_it(self, tmp_path, capsys, command, flag, outputs):
        path = tmp_path / "bad.json"
        path.write_text("{bad")
        out = [arg for opt in outputs for arg in (opt, tmp_path / f"out{opt}")]
        assert run_cli(*command, flag, path, *out) == 2
        err = capsys.readouterr().err
        assert f"config error: {path}: Expecting property name enclosed in double quotes: line 1 column 2" in err

    def test_wrongly_typed_config_value_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"params": {"iters": 4000.5}}')
        assert run_cli("exp", "cyclic-global", "--out", tmp_path / "x", "--config", path) == 2
        assert "parameter 'iters' must be an integer, got 4000.5" in capsys.readouterr().err

    def test_null_trials_in_config_file_is_the_default(self, tmp_path):
        # As with "seed": null, a null trial count is absent from the file.
        path = tmp_path / "config.json"
        path.write_text('{"trials": null, "params": {"n_grid": [8]}}')
        assert run_cli("exp", "scc-count", "--out", tmp_path / "x", "--seed", 0,
                       "--config", path) == 0
        manifest = json.loads((tmp_path / "x" / "manifest.json").read_text())
        assert manifest["trials"] == experiments.EXPERIMENTS["scc-count"].trials

    @pytest.mark.parametrize("override", ["eta=0.2", "iters=2000"])
    def test_reg_path_has_no_step_size_or_step_count(self, tmp_path, capsys, override):
        # Each ball is solved by certified Newton, not by a GD run.
        assert run_cli("exp", "reg-path", "--out", tmp_path / "x", "--seed", 0, "--trials", 1,
                       "--set", override) == 2
        assert f"reg-path has no parameter {override.split('=')[0]!r}" in capsys.readouterr().err

    def test_reg_path_seed_1_passes(self, tmp_path):
        # Its acyclic trial 4 stopped at corr 0.9424 under projected GD's
        # step cap; the ball minimizer reads 0.9999.
        out = tmp_path / "x"
        assert run_cli("exp", "reg-path", "--out", out, "--seed", 1) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["max_gap"] <= attention.BALL_REL_GAP and not summary["violations"]

    def test_nonpositive_reg_path_radius_is_config_error(self, tmp_path, capsys):
        assert run_cli("exp", "reg-path", "--out", tmp_path / "x", "--seed", 0, "--trials", 1,
                       "--set", "r_min=-1") == 2
        assert "radii must be finite and > 0" in capsys.readouterr().err

    def test_rate_check_runs_one_draw_per_trial(self, tmp_path):
        # Three draws in one block, trained at the eta computed before the
        # block is built, run twice: equal bytes.
        outs = []
        for run in (1, 2):
            out = tmp_path / f"run{run}"
            assert run_cli("exp", "rate-check", "--out", out, "--seed", 0, "--trials", 3,
                           "--set", "iters=300") == 0
            outs.append({p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()})
        assert outs[0] == outs[1]
        out = tmp_path / "run1"
        assert sorted(p.name for p in (out / "traces").iterdir()) == [f"trial_{t:03d}.csv" for t in range(3)]
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["draws"]) == 3 and summary["checked_taus"] == 3 * 3
        rows = (out / "aggregate.csv").read_text().splitlines()
        assert rows[0] == "trial,tau,gap,bound"
        assert [r.split(",")[0] for r in rows[1:]] == [str(t) for t in range(3) for _ in range(3)]

    def test_rate_check_seed_zero_trains_its_own_draws(self, tmp_path):
        # --seed 0 is a seed like any other: the manifest records it, and
        # draw t, drawn at trial_seed(0, t), trains by plain GD at the least
        # 1/L of the draws.
        out = tmp_path / "x"
        assert run_cli("exp", "rate-check", "--out", out, "--seed", 0, "--trials", 2,
                       "--set", "iters=300") == 0
        assert json.loads((out / "manifest.json").read_text())["seed"] == 0
        summary = json.loads((out / "summary.json").read_text())
        seeds = [experiments.trial_seed(0, t) for t in range(2)]
        assert [draw["seed"] for draw in summary["draws"]] == seeds
        datasets = []
        for seed in seeds:
            table = dsm.make_embeddings(6, 8, dsm.UNIT_SPHERE, seed=seed)
            datasets.append(dsm.gen_dataset(table, dsm.make_head(table, dsm.TIED), n=6, T=4, mode="cyclic",
                                            seed=seed))
        eta = min(1.0 / attention.lipschitz_log(ds) for ds in datasets)
        assert summary["eta"] == eta
        for t, ds in enumerate(datasets):
            cfg = attention.TrainConfig(eta=eta, iters=300, record_every=100)
            trace = attention.train_gd(ds, cfg, refs=experiments.build_pipeline(ds).refs())
            path = tmp_path / f"trace_{t}.csv"
            write_csv(str(path), attention.TrainTrace.csv_header(), trace.columns())
            assert path.read_bytes() == (out / "traces" / f"trial_{t:03d}.csv").read_bytes()

    def test_negative_trials_is_config_error(self, tmp_path, capsys):
        assert run_cli("exp", "cyclic-global", "--out", tmp_path / "x", "--trials", -3) == 2
        assert "trials" in capsys.readouterr().err

    def test_nonpositive_workers_is_config_error(self, tmp_path, capsys):
        # Every experiment runs in one process: the CLI has no --workers,
        # and a config refuses any worker count but 1, naming the removed
        # process pool.
        for workers in (0, -3, 2):
            with pytest.raises(SystemExit) as exc:
                run_cli("exp", "scc-count", "--out", tmp_path / "x", "--trials", 1, "--workers", workers)
            assert exc.value.code == 2 and "unrecognized arguments: --workers" in capsys.readouterr().err
            config = experiments.ExperimentConfig("scc-count", {}, {}, trials=1, workers=workers,
                                                  output_dir=str(tmp_path / "x"))
            with pytest.raises(ValueError, match="process pool is removed"):
                config.resolved()
        assert not (tmp_path / "x").exists()

    def test_rate_check_without_a_nonzero_w_fin_passes(self, tmp_path):
        # The floor on draws with a nonzero W_fin is criterion 11's, not the
        # library's: none of seed 1's eight draws has one, and the run passes.
        out = tmp_path / "x"
        assert run_cli("exp", "rate-check", "--out", out, "--seed", 1, "--set", "iters=200") == 0
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["draws"]) == 8 and summary["nonzero_w_fin_draws"] == 0

    def test_rate_check_eta_is_not_a_parameter(self, tmp_path, capsys):
        # The shared eta is computed from the draws; a given one is refused.
        assert run_cli("exp", "rate-check", "--out", tmp_path / "x", "--set", "eta=0.1") == 2
        assert "rate-check has no parameter 'eta'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_zero_svm_rate_check_is_config_error(self, tmp_path, capsys):
        # One sample of one token has no edges, so W_svm is zero at any
        # seed; the first draw in trial order is named.
        assert run_cli("exp", "rate-check", "--out", tmp_path / "x", "--seed", 5, "--set", "n=1",
                       "--set", "T=1", "--set", "iters=10") == 2
        expected = f"the rate-check draw of seed {experiments.trial_seed(5, 0)} has a zero SVM solution"
        assert expected in capsys.readouterr().err

    @pytest.mark.parametrize("flag, key", [("--set", "eta_typo"), ("--threshold", "impossible")])
    def test_undeclared_key_is_config_error(self, tmp_path, capsys, flag, key):
        assert run_cli("exp", "cyclic-global", "--out", tmp_path / "x", "--trials", 1,
                       flag, f"{key}=5") == 2
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_env_seed_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ATTNLAB_SEED", "123")
        p1 = tmp_path / "e1.json"
        assert run_cli("gen-data", "--K", 4, "--d", 4, "--n", 3, "--T", 3, "--out", p1) == 0
        ds1 = dsm.load_dataset(str(p1))
        assert ds1.seed == 123


class TestThresholdViolations:
    """Each threshold check of an experiment fails its run: exit 3, with
    its violation in summary.json.  A threshold override reaches the
    check where one can; elsewhere the trials' results, or the rate bound,
    are edited to fail it."""

    @staticmethod
    def violations(tmp_path, name, *extra):
        assert run_cli("exp", name, "--out", tmp_path / "x", "--seed", 0, *extra) == 3
        return json.loads((tmp_path / "x" / "summary.json").read_text())["violations"]

    def test_local_dist_above_global_is_a_violation(self, tmp_path, monkeypatch):
        edit_finish(monkeypatch, "local", lambda r: {**r, "dist_local": r["dist_global"] + 1.0})
        found = self.violations(tmp_path, "local-squared", "--trials", 2, "--set", "iters=200")
        assert any(v.startswith("mean dist_local ") and " > mean dist_global " in v for v in found), found

    def test_a_gap_above_the_rate_bound_is_a_violation(self, tmp_path, monkeypatch):
        monkeypatch.setattr(analysis, "rate_bound", lambda inputs, tau, eta: -1.0)
        found = self.violations(tmp_path, "rate-check", "--trials", 2, "--set", "iters=300")
        assert len(found) == 1 and found[0].startswith("rate bound violated by "), found

    def test_a_reg_path_corr_decrease_is_a_violation(self, tmp_path, monkeypatch):
        # The last but one radius's corr lifted above the last one's: a
        # decrease at radius index 7 of 8, past monotone_after = 3.
        def dip(r):
            corr = list(r["corr"])
            corr[-2] = corr[-1] + 0.01
            return {**r, "corr": corr}

        edit_finish(monkeypatch, "reg-path", dip)
        found = self.violations(tmp_path, "reg-path", "--trials", 2)
        assert found == [f"acyclic trial {t}: corr decreased at radius index 7" for t in range(2)]

    def test_a_reg_path_final_corr_below_its_threshold_is_a_violation(self, tmp_path):
        found = self.violations(tmp_path, "reg-path", "--trials", 2, "--threshold", "min_final_corr=1.5")
        assert len(found) == 2 and all(v.startswith(f"acyclic trial {t}: final corr ") for t, v in enumerate(found))

    def test_a_reg_path_final_distance_above_its_threshold_is_a_violation(self, tmp_path):
        found = self.violations(tmp_path, "reg-path", "--trials", 2, "--threshold", "max_final_dist=-1")
        assert len(found) == 2 and all(v.startswith(f"cyclic trial {t}: final fin-distance ")
                                       for t, v in enumerate(found))


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        env = dict(os.environ)
        result = subprocess.run(
            [sys.executable, "-m", "attnlab.cli", "gen-data", "--K", "3", "--d", "3",
             "--n", "2", "--T", "2", "--seed", "1", "--out", str(tmp_path / "m.json")],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0
        assert (tmp_path / "m.json").exists()

    def test_import_loads_no_process_pool(self, tmp_path):
        # The library runs every experiment in one process: neither the
        # import nor a run loads a process pool's modules.
        run = ["exp", "scc-count", "--trials", "2", "--set", "n_grid=[8]", "--out", str(tmp_path)]
        code = (f"import sys, attnlab.cli; attnlab.cli.main({run!r}); "
                "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0 and result.stdout.strip().splitlines()[-1] == "[]"

    def test_argparse_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["exp", "definitely-not-real"])
        assert exc.value.code == 2
