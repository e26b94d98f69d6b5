"""Byte-stable CSV output."""

import numpy as np
import pytest

from attnlab import attention as att
from attnlab.experiments import build_pipeline
from attnlab.util import write_csv

from helpers import csv_oracle, tiny_instance

SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-16, 0.1, -2.5, 1.0 / 3.0,
           123456789.125, 2.0**53 + 2, 1.7976931348623157e308]


def _written(tmp_path, header, rows) -> bytes:
    path = tmp_path / "out.csv"
    write_csv(str(path), header, rows)
    return path.read_bytes()


class TestWriteCsv:
    def test_python_float_columns_match_the_oracle(self, tmp_path):
        rng = np.random.default_rng(0)
        drawn = (rng.standard_normal(len(SPECIAL)) * 10.0 ** rng.integers(-300, 300, len(SPECIAL))).tolist()
        rows = list(zip(range(len(SPECIAL)), SPECIAL, drawn, [np.nan] * len(SPECIAL)))
        assert _written(tmp_path, ("i", "a", "b", "c"), rows) == csv_oracle(("i", "a", "b", "c"), rows)

    def test_mixed_cells_match_the_oracle(self, tmp_path):
        header = ("py", "f64", "f32", "np_int", "py_int", "text", "flag", "mixed")
        with np.errstate(over="ignore"):  # the largest double is inf in float32
            rows = [
                (x, np.float64(x), np.float32(x), np.int64(j - 3), j - 3, f"s{j}, q" if j % 2 else "", j % 3 == 0,
                 x if j % 2 else np.float64(x))
                for j, x in enumerate(SPECIAL)
            ]
        rows.append((0.1, np.float64(0.1), np.float32(0.1), np.uint8(255), -7, "nan", np.bool_(True), 0.1))
        assert _written(tmp_path, header, rows) == csv_oracle(header, rows)

    def test_trace_rows_match_the_oracle(self, tmp_path):
        ds = tiny_instance(3)
        pipe = build_pipeline(ds)
        cfg = att.TrainConfig(eta=0.05, iters=60, normalized=True, record_every=7)
        header = att.TrainTrace.csv_header()
        for refs in (pipe.refs(), None):  # NaN corr_svm at W = 0; all-NaN columns without refs
            trace = att.train_gd(ds, cfg, refs)
            assert _written(tmp_path, header, trace.rows()) == csv_oracle(header, trace.rows())

    def test_header_only_and_ragged_rows(self, tmp_path):
        assert _written(tmp_path, ("a", "b"), []) == csv_oracle(("a", "b"), [])
        with pytest.raises(ValueError):
            write_csv(str(tmp_path / "ragged.csv"), ("a", "b"), [(1, 2.0), (3,)])
