"""Byte-stable CSV output and strict JSON output."""

import json

import numpy as np
import pytest

from attnlab import attention as att
from attnlab.experiments import build_pipeline
from attnlab.util import write_csv, write_json

from helpers import csv_oracle, tiny_instance

SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-16, 1e-05, 0.1, -2.5, 1.0 / 3.0,
           123456789.125, 2.0**53 + 2, 1.7976931348623157e308]


def _written(tmp_path, header, columns) -> bytes:
    path = tmp_path / "out.csv"
    write_csv(str(path), header, columns)
    return path.read_bytes()


def _oracle(header, columns) -> bytes:
    """The oracle's bytes, cell by cell, of the rows the columns hold."""
    return csv_oracle(header, list(zip(*columns)))


class TestWriteCsv:
    def test_python_float_columns_match_the_oracle(self, tmp_path):
        rng = np.random.default_rng(0)
        drawn = rng.standard_normal(len(SPECIAL)) * 10.0 ** rng.integers(-300, 300, len(SPECIAL))
        columns = (np.arange(len(SPECIAL)), np.array(SPECIAL), drawn, np.full(len(SPECIAL), np.nan))
        assert _written(tmp_path, ("i", "a", "b", "c"), columns) == _oracle(("i", "a", "b", "c"), columns)

    def test_mixed_cells_match_the_oracle(self, tmp_path):
        header = ("f64", "np_int", "py_int", "text", "flag", "py_flag")
        n = len(SPECIAL)
        columns = (np.array(SPECIAL), np.arange(n, dtype=np.int64) - 3, list(range(-3, n - 3)),
                   [f"s{j}, q" if j % 2 else "" for j in range(n)], np.arange(n) % 3 == 0,
                   [j % 2 == 0 for j in range(n)])
        assert _written(tmp_path, header, columns) == _oracle(header, columns)

    def test_other_columns_are_written_by_str(self, tmp_path):
        # A float64 array is the one float column; a list of Python floats,
        # None among them, is written item by item through str.
        values = [0.1, None, 1e16, 5e-324]
        assert _written(tmp_path, ("a", "b"), (values, np.array(values, dtype=object))) == (
            b"a,b\n0.1,0.1\nNone,None\n1e+16,1e+16\n5e-324,5e-324\n")

    def test_trace_rows_match_the_oracle(self, tmp_path):
        ds = tiny_instance(3)
        pipe = build_pipeline(ds)
        cfg = att.TrainConfig(eta=0.05, iters=60, normalized=True, record_every=7)
        header = att.TrainTrace.csv_header()
        for refs in (pipe.refs(), None):  # NaN corr_svm at W = 0; all-NaN columns without refs
            columns = att.train_gd(ds, cfg, refs).columns()
            assert _written(tmp_path, header, columns) == _oracle(header, columns)

    def test_header_only_and_ragged_rows(self, tmp_path):
        empty = (np.zeros(0), [])
        assert _written(tmp_path, ("a", "b"), empty) == csv_oracle(("a", "b"), [])
        for columns in ((np.zeros(2), [1]), ([1, 2], np.zeros(1)), (np.zeros(1),)):
            with pytest.raises(ValueError):
                write_csv(str(tmp_path / "ragged.csv"), ("a", "b"), columns)


class TestWriteJson:
    def test_non_finite_floats_are_null(self, tmp_path):
        path = tmp_path / "out.json"
        payload = {"nan": np.nan, "inf": np.inf, "neg": -np.inf, "f32": np.float32(np.inf),
                   "arr": np.array([1.5, np.inf, np.nan]), "ok": 0.25}
        write_json(str(path), payload)

        def refuse(token):
            raise ValueError(f"not JSON: {token}")

        assert json.loads(path.read_text(), parse_constant=refuse) == {
            "nan": None, "inf": None, "neg": None, "f32": None, "arr": [1.5, None, None], "ok": 0.25}
