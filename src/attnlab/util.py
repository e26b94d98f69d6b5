"""Seeding helpers and deterministic file writers."""

from __future__ import annotations

import json
import os
from typing import Iterable, Sequence

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


def _cell(x) -> str:
    if isinstance(x, (float, np.floating)):
        x = float(x)
        return repr(x) if x == x else ""
    return str(x)


def _column(values: tuple) -> list[str]:
    """The cells of one CSV column.  A column of Python floats is formatted by
    one repr of the list, which writes each item as its own repr does."""
    if all(type(v) is float for v in values):
        return repr(list(values))[1:-1].replace("nan", "").split(", ")
    return [_cell(v) for v in values]


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a CSV with byte-stable formatting: floats in shortest round-trip
    form (bit-exact on reload), NaN as an empty cell, anything else by str.
    Rows of unequal width raise ValueError."""
    cols = [_column(col) for col in zip(*rows, strict=True)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join([",".join(header), *map(",".join, zip(*cols))]) + "\n")


def write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return None if np.isnan(x) else x
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def frozen(arr: np.ndarray) -> np.ndarray:
    """Return a read-only float64 view-copy; shared values must be immutable."""
    out = np.array(arr, dtype=np.float64, copy=True)
    out.setflags(write=False)
    return out
