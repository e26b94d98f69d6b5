"""tools/equiv.py's `compare`, the verdict the artifact gate reports for each
file: identical bytes, a numeric move with its largest relative difference
and where it sits, or DIFFERENT; that gate on the graph-SVM verdict files that
tools/verdicts.py writes; its per-directory rollup of two output trees; and
that its --smoke runs cross a full scoring chunk of training records."""

import json
import math

import pytest

from helpers import load_tool


@pytest.fixture(scope="module")
def compare():
    return load_tool("equiv").compare


def test_identical_bytes(compare):
    assert compare(b"iter,loss\n0,0.5\n", b"iter,loss\n0,0.5\n") == ("identical", 0.0, "")
    assert compare(b"\xff\xfe", b"\xff\xfe") == ("identical", 0.0, "")


@pytest.mark.parametrize("a,b,worst", [
    pytest.param(b"0,1.0,2.5\n", b"0,1.1,2.0\n", 0.5 / 2.5, id="largest-of-two"),
    pytest.param(b'{"mean_dist": 0.0017688}\n', b'{"mean_dist": 0.0017255}\n', (0.0017688 - 0.0017255) / 0.0017688,
                 id="json-value"),
    # A sign flip is a relative difference of 2; the larger magnitude is the scale.
    pytest.param(b"x -0.5 y 3\n", b"x 0.5 y 4\n", 2.0, id="sign-flip"),
    pytest.param(b"1e-3,5\n", b"-2e-3,5\n", 0.003 / 0.002, id="sign-flip-exponent"),
    # 0.0 and -0.0 are equal numbers: the files differ, but by nothing.
    pytest.param(b"0.0,nan,inf\n", b"-0.0,nan,inf\n", 0.0, id="signed-zero"),
])
def test_numeric_reports_the_largest_relative_difference(compare, a, b, worst):
    verdict, got, _ = compare(a, b)
    assert verdict == "numeric" and math.isclose(got, worst, rel_tol=1e-12, abs_tol=0.0)


@pytest.mark.parametrize("a,b", [
    pytest.param(b"iter,loss\n0,0.5\n", b"iter;loss\n0;0.5\n", id="layout"),
    pytest.param(b"0,1.5\n", b"0,1.5,2.5\n", id="one-cell-more"),
    pytest.param(b"0,,3\n", b"0,2.5,3\n", id="empty-nan-cell-to-number"),
    pytest.param(b"0,nan,3\n", b"0,2.5,3\n", id="nan-to-number"),
    pytest.param(b"0,inf,3\n", b"0,2.5,3\n", id="inf-to-finite"),
    pytest.param(b'{"bound": Infinity}\n', b'{"bound": 1e308}\n', id="json-infinity-to-finite"),
    pytest.param(b"ok\n", b"\xff\n", id="not-utf8"),
])
def test_different(compare, a, b):
    verdict, worst, where = compare(a, b)
    assert verdict == "DIFFERENT" and math.isnan(worst) and where == ""


@pytest.mark.parametrize("a,b,where", [
    # A trace CSV: the line, the header's name for the cell's column, and
    # both values as written.
    pytest.param(b"iter,loss,dist_fin\n0,0.5,0.25\n10,0.4,0.0050\n", b"iter,loss,dist_fin\n0,0.5,0.25\n10,0.4,0.0055\n",
                 "line 3, column dist_fin: 0.0050 -> 0.0055", id="csv-column"),
    # A summary: the last key before the number, here inside a list of
    # per-trial records, where a near-zero value changed sign.
    pytest.param(b'{\n  "mean": 0.5,\n  "trials": [{"corr": 0.9, "w_fin_gap": -2e-15}]\n}\n',
                 b'{\n  "mean": 0.5,\n  "trials": [{"corr": 0.9, "w_fin_gap": 3e-15}]\n}\n',
                 "line 3, key w_fin_gap: -2e-15 -> 3e-15", id="json-key"),
    # Any other text: the line alone.
    pytest.param(b"trial 3 stopped\nmax grad 1.5e-3\n", b"trial 3 stopped\nmax grad 1.6e-3\n",
                 "line 2: 1.5e-3 -> 1.6e-3", id="text-line"),
    # The largest of several moves is the one located; a signed zero is no move.
    pytest.param(b"a,b\n-0.0,1.0\n2.0,4.0\n", b"a,b\n0.0,1.0\n2.5,4.1\n", "line 3, column a: 2.0 -> 2.5",
                 id="largest-of-several"),
])
def test_numeric_locates_its_largest_difference(compare, a, b, where):
    assert compare(a, b)[0::2] == ("numeric", where)


def test_verdict_files(compare):
    # Two instances' verdicts: a moved W_svm entry reads numeric with its
    # relative difference, and a changed status reads DIFFERENT.
    verdicts = load_tool("verdicts")
    base = {name: verdicts.verdict(verdicts.svm.solve_graph_svm(verdicts.constraints(*shape)))
            for name, shape in list(verdicts.instances(smoke=True).items())[:2]}
    assert all(v["status"] == "solved" for v in base.values())
    moved = {name: {**v, "w_svm": [list(row) for row in v["w_svm"]]} for name, v in base.items()}
    moved["refs-0"]["w_svm"][0][0] *= 1.0 + 1e-13
    verdict, worst, where = compare(verdicts.dumps(base).encode(), verdicts.dumps(moved).encode())
    assert verdict == "numeric" and 0.5e-13 <= worst <= 2e-13 and ", key w_svm: " in where
    moved["refs-1"] = {**moved["refs-1"], "status": "infeasible"}
    verdict, worst, _ = compare(verdicts.dumps(base).encode(), verdicts.dumps(moved).encode())
    assert verdict == "DIFFERENT" and math.isnan(worst)


def test_a_smoke_run_scores_a_full_chunk_and_a_shorter_last_one():
    # A training loop scores its stored records RECORD_CHUNK at a time and
    # once more after its last step; --smoke, which CI's artifact gate
    # runs, must cross both.
    from attnlab import attention, experiments

    counts = {}
    for name, overrides in load_tool("equiv").SMOKE_SETS.items():
        params = {**experiments.EXPERIMENTS[name].params,
                  **{key: json.loads(value) for key, value in (kv.split("=", 1) for kv in overrides)}}
        if "record_every" in params:
            iters, every = params["iters"], params["record_every"]
            counts[name] = len(range(0, iters + 1, every)) + (iters % every != 0)
    assert any(n > attention.RECORD_CHUNK and n % attention.RECORD_CHUNK for n in counts.values()), counts


def _tree(root, files):
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def test_rollup_of_two_trees(tmp_path):
    # One experiment only moves a number, another changes its exit code,
    # the selftest changes text, a tool file exists in one tree only and
    # the verdicts keep their bytes.
    common = {"exp/a/run1/exp.exit": "0\n", "exp/b/run1/exp.exit": "0\n", "selftest/seed0.exit": "0\n",
              "verdicts/verdicts.json": '{"x": 1.5}\n'}
    base = _tree(tmp_path / "base", {**common, "exp/a/run1/summary.json": '{"d": 2.0, "c": 1.0}\n',
                                     "exp/b/run1/aggregate.csv": "0,4.0\n", "selftest/seed0.stdout": "ok\n"})
    work = _tree(tmp_path / "work", {**common, "exp/a/run1/summary.json": '{"d": 2.0, "c": 1.25}\n',
                                     "exp/b/run1/aggregate.csv": "0,5.0\n", "exp/b/run1/exp.exit": "1\n",
                                     "selftest/seed0.stdout": "failed\n", "tools/train.json": "{}\n"})
    equiv = load_tool("equiv")
    verdicts = equiv.compare_trees(base, work)
    assert verdicts["tools/train.json"][0] == "DIFFERENT"
    assert verdicts["exp/a/run1/summary.json"] == ("numeric", 0.2, "line 1, key c: 1.0 -> 1.25")
    assert verdicts["exp/b/run1/exp.exit"][0] == "DIFFERENT"  # an exit code is not a number that may move
    assert equiv.rollup(verdicts) == [
        "ROLLUP     exp/a: 1 identical, 1 numeric, 0 DIFFERENT, max rel diff 2.00e-01 at exp/a/run1/summary.json "
        "line 1, key c: 1.0 -> 1.25, every .exit identical",
        "ROLLUP     exp/b: 0 identical, 1 numeric, 1 DIFFERENT, max rel diff 2.00e-01 at exp/b/run1/aggregate.csv "
        "line 1: 4.0 -> 5.0, every .exit NOT identical",
        "ROLLUP     selftest: 1 identical, 0 numeric, 1 DIFFERENT, max rel diff 0.00e+00, every .exit identical",
        "ROLLUP     tools: 0 identical, 0 numeric, 1 DIFFERENT, max rel diff 0.00e+00, every .exit identical",
        "ROLLUP     verdicts: 1 identical, 0 numeric, 0 DIFFERENT, max rel diff 0.00e+00, every .exit identical",
    ]
