"""Seeding helpers and deterministic file writers."""

from __future__ import annotations

import json
import os
from typing import Sequence

import numpy as np

ENV_SEED = "ATTNLAB_SEED"


def seeded_rng(seed: int, *branch: int) -> np.random.Generator:
    """One named, splittable generator.

    Every stochastic operation takes an explicit seed; derived streams are
    addressed by integer branch labels so concurrent trials never share state.
    """
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, branch)]))


def default_seed() -> int:
    raw = os.environ.get(ENV_SEED)
    return int(raw) if raw else 0


def _cells(column: Sequence) -> list[str]:
    """The cells of one CSV column.  A float64 array is formatted by one repr
    of its list, which writes each item as its own repr does, NaN as an
    empty cell; any other column item by item through str."""
    if isinstance(column, np.ndarray) and column.dtype == np.float64:
        return repr(column.tolist())[1:-1].replace("nan", "").split(", ") if len(column) else []
    return list(map(str, column.tolist() if isinstance(column, np.ndarray) else column))


def write_csv(path: str, header: Sequence[str], columns: Sequence[Sequence]) -> None:
    """Write a CSV from its columns with byte-stable formatting: a float64
    array in shortest round-trip form (bit-exact on reload) with NaN as an
    empty cell, any other column by str.  Columns of unequal length, or not
    one per header name, raise ValueError."""
    if len(columns) != len(header) or len({len(c) for c in columns}) > 1:
        raise ValueError(f"{path}: a CSV needs one column per header name, all of one length")
    cols = [_cells(c) for c in columns]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join([",".join(header), *map(",".join, zip(*cols))]) + "\n")


def read_json(path: str):
    """The JSON value in a file; a malformed file raises ValueError naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from exc


def write_json(path: str, payload) -> None:
    """Write payload as strict JSON, NaN and +-inf as null.  A non-finite
    value that reaches the encoder unmapped raises ValueError before the
    file is opened."""
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return x if np.isfinite(x) else None
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def frozen(arr: np.ndarray) -> np.ndarray:
    """Return a read-only float64 view-copy; shared values must be immutable."""
    out = np.array(arr, dtype=np.float64, copy=True)
    out.setflags(write=False)
    return out
