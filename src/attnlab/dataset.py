"""Token embeddings, classifier heads, synthetic datasets, and token index sets.

Vocabulary entries are integer token IDs in ``range(K)``; a sample is a
sequence of IDs plus a next-token label.  The embedding table maps IDs to
unit-norm rows of ``E``; the classifier head ``C`` reads attention outputs
back into per-token scores.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    ArgmaxUnreachable,
    GraphMismatch,
    InvalidDims,
    RankDeficient,
    SchemaViolation,
)
from .util import frozen, seeded_rng

ORTHONORMAL = "orthonormal"
UNIT_SPHERE = "unit_sphere"
TIED = "tied"
GENERAL_ARGMAX = "general_argmax"

CYCLIC = "cyclic"
ACYCLIC = "acyclic"

RANK_CUTOFF = 1e-10
UNIT_NORM_TOL = 1e-9  # loaded unit_sphere / orthonormal rows
ARGMAX_MARGIN = 1e-6


@dataclass(frozen=True)
class EmbeddingTable:
    """Vocabulary matrix: row k is the d-dimensional embedding of token k."""

    e: np.ndarray
    kind: str
    rank: int

    @property
    def K(self) -> int:
        return self.e.shape[0]

    @property
    def d(self) -> int:
        return self.e.shape[1]

    @property
    def full_row_rank(self) -> bool:
        return self.rank == self.K

    @property
    def e_max(self) -> float:
        """Largest row norm (1 for unit-norm constructions, kept explicit)."""
        return float(np.max(np.linalg.norm(self.e, axis=1)))

    def is_orthonormal(self, tol: float = 1e-10) -> bool:
        gram = self.e @ self.e.T
        return float(np.max(np.abs(gram - np.eye(self.K)))) <= tol


@dataclass(frozen=True)
class ClassifierHead:
    """Fixed linear head: row y scores the attention output for class y."""

    c: np.ndarray
    kind: str

    @property
    def K(self) -> int:
        return self.c.shape[0]


@dataclass(frozen=True)
class Sample:
    tokens: tuple[int, ...]
    label: int

    @property
    def T(self) -> int:
        return len(self.tokens)

    @property
    def last_token(self) -> int:
        return self.tokens[-1]

    @property
    def realizable(self) -> bool:
        return self.label in self.tokens


@dataclass(frozen=True)
class Dataset:
    embedding: EmbeddingTable
    head: Optional[ClassifierHead]
    samples: tuple[Sample, ...]
    seed: int = 0

    @property
    def n(self) -> int:
        return len(self.samples)

    @property
    def K(self) -> int:
        return self.embedding.K

    @property
    def d(self) -> int:
        return self.embedding.d

    @property
    def t_max(self) -> int:
        return max(s.T for s in self.samples)

    @property
    def n_unrealizable(self) -> int:
        return sum(not s.realizable for s in self.samples)

    def tied_head(self) -> bool:
        return self.head is None or self.head.kind == TIED


@dataclass(frozen=True)
class IndexSets:
    """Per-sample token position sets.

    ``o``: positions whose token equals the label; ``r``: those plus positions
    whose token shares the label's SCC in the graph of the sample's last
    token.  ``rbar`` is the complement of ``r`` in ``range(T_i)``.
    """

    o: tuple[tuple[int, ...], ...]
    r: tuple[tuple[int, ...], ...]
    rbar: tuple[tuple[int, ...], ...]


def _rank(e: np.ndarray) -> int:
    sv = np.linalg.svd(e, compute_uv=False)
    return int(np.sum(sv > RANK_CUTOFF))


def make_embeddings(K: int, d: int, kind: str, seed: int) -> EmbeddingTable:
    """Sample a K x d embedding table with unit-norm rows.

    Orthonormal tables orthonormalize Gaussian rows (requires K <= d);
    unit-sphere tables normalize independent Gaussian rows and are resampled
    up to 16 times if the draw is degenerate (rank below min(K, d)).
    """
    if K < 1 or d < 1:
        raise InvalidDims(f"K and d must be positive, got K={K}, d={d}")
    if kind == ORTHONORMAL:
        if K > d:
            raise InvalidDims(f"orthonormal table needs K <= d, got K={K}, d={d}")
        rng = seeded_rng(seed, 0)
        g = rng.standard_normal((d, K))
        q, _ = np.linalg.qr(g)
        e = q[:, :K].T
        return EmbeddingTable(e=frozen(e), kind=ORTHONORMAL, rank=K)
    if kind == UNIT_SPHERE:
        want = min(K, d)
        for attempt in range(16):
            rng = seeded_rng(seed, 1, attempt)
            g = rng.standard_normal((K, d))
            norms = np.linalg.norm(g, axis=1, keepdims=True)
            if np.any(norms == 0.0):
                continue
            e = g / norms
            r = _rank(e)
            if r == want:
                return EmbeddingTable(e=frozen(e), kind=UNIT_SPHERE, rank=r)
        raise RankDeficient(f"unit-sphere draw rank-deficient after 16 resamples (K={K}, d={d})")
    raise InvalidDims(f"unknown embedding kind: {kind!r}")


def tied_head_matrix(e: np.ndarray) -> np.ndarray:
    """Minimum-norm solution of C E^T = I_K (rows live in the row space of E)."""
    gram = e @ e.T
    return np.linalg.solve(gram, e)


def _argmax_margin(c: np.ndarray, e: np.ndarray) -> float:
    scores = c @ e.T  # (K, K): scores[y, k] = c_y . e_k
    diag = np.diag(scores).copy()
    off = scores.copy()
    np.fill_diagonal(off, -np.inf)
    return float(np.min(diag - np.max(off, axis=1)))


def make_head(
    e_table: EmbeddingTable,
    kind: str,
    noise: float = 0.0,
    seed: int = 0,
    unit_rows: bool = False,
) -> ClassifierHead:
    """Build a classifier head for the table.

    Tied heads solve C E^T = I exactly; general heads add Gaussian noise to
    the tied head and resample until every row's argmax over token scores is
    its own class with margin at least 1e-6.

    ``unit_rows`` rescales each general row to unit norm (argmax per row is
    scale invariant).  With unit rows every token score stays strictly below
    1, which keeps bounded losses like the squared loss in their
    saturating (token-selecting) regime.
    """
    if not e_table.full_row_rank:
        raise RankDeficient(
            f"head construction needs full row rank, got rank {e_table.rank} < K={e_table.K}"
        )
    base = tied_head_matrix(e_table.e)
    if kind == TIED:
        return ClassifierHead(c=frozen(base), kind=TIED)
    if kind == GENERAL_ARGMAX:
        for attempt in range(64):
            rng = seeded_rng(seed, 2, attempt)
            c = base + noise * rng.standard_normal(base.shape)
            if unit_rows:
                c = c / np.linalg.norm(c, axis=1, keepdims=True)
            if _argmax_margin(c, e_table.e) >= ARGMAX_MARGIN:
                return ClassifierHead(c=frozen(c), kind=GENERAL_ARGMAX)
        raise ArgmaxUnreachable(f"no argmax head with margin >= {ARGMAX_MARGIN} in 64 draws")
    raise InvalidDims(f"unknown head kind: {kind!r}")


def gen_dataset(
    e_table: EmbeddingTable,
    head: Optional[ClassifierHead],
    n: int,
    T: int,
    mode: str,
    seed: int,
) -> Dataset:
    """Sample n sequences of T i.i.d.-uniform token IDs with realizable labels.

    Cyclic mode labels each sequence with a uniformly chosen position's token.
    Acyclic mode draws one total priority permutation for the whole dataset
    and labels each sequence with its highest-priority token, which makes
    every token-priority graph a DAG.
    """
    if n < 1 or T < 1:
        raise InvalidDims(f"n and T must be positive, got n={n}, T={T}")
    if mode not in (CYCLIC, ACYCLIC):
        raise InvalidDims(f"unknown generation mode: {mode!r}")
    K = e_table.K
    rng = seeded_rng(seed, 3)
    priority = rng.permutation(K) if mode == ACYCLIC else None
    samples = []
    for _ in range(n):
        tokens = rng.integers(0, K, size=T)
        if mode == CYCLIC:
            label = int(tokens[rng.integers(0, T)])
        else:
            label = int(tokens[np.argmax(priority[tokens])])
        samples.append(Sample(tokens=tuple(int(t) for t in tokens), label=label))
    return Dataset(embedding=e_table, head=head, samples=tuple(samples), seed=seed)


def index_sets(dataset: Dataset, decomps: dict) -> IndexSets:
    """Classify each sample's token positions against the SCC decomposition
    of its last-token graph (``decomps`` maps last token -> decomposition)."""
    o, r, rbar = [], [], []
    for i, s in enumerate(dataset.samples):
        if s.last_token not in decomps:
            raise GraphMismatch(f"sample {i}: no graph for last token {s.last_token}")
        comp_of = decomps[s.last_token].comp_of
        label_comp = comp_of.get(s.label)
        o_i, r_i = [], []
        for t, tok in enumerate(s.tokens):
            if tok == s.label:
                o_i.append(t)
                r_i.append(t)
            elif label_comp is not None and comp_of.get(tok) == label_comp:
                r_i.append(t)
        o.append(tuple(o_i))
        r.append(tuple(r_i))
        rbar.append(tuple(t for t in range(s.T) if t not in set(r_i)))
    return IndexSets(o=tuple(o), r=tuple(r), rbar=tuple(rbar))


def save_dataset(dataset: Dataset, path: str) -> None:
    payload = {
        "K": dataset.K,
        "d": dataset.d,
        "kind": dataset.embedding.kind,
        "embeddings": dataset.embedding.e.tolist(),
        "head": None
        if dataset.head is None
        else {"kind": dataset.head.kind, "C": dataset.head.c.tolist()},
        "samples": [{"tokens": list(s.tokens), "label": s.label} for s in dataset.samples],
        "seed": dataset.seed,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def _require(cond: bool, where: str, detail: str) -> None:
    if not cond:
        raise SchemaViolation(f"{where}: {detail}")


def _is_int(value) -> bool:
    """JSON integers only: bool is an int subclass, but true/false are not IDs."""
    return isinstance(value, int) and not isinstance(value, bool)


def _matrix(value, where: str, rows: int, cols: int) -> np.ndarray:
    """A JSON list of ``rows`` rows of ``cols`` numbers; errors name the row."""
    _require(isinstance(value, list) and len(value) == rows, where, f"expected shape ({rows}, {cols})")
    for r, row in enumerate(value):
        _require(
            isinstance(row, list) and len(row) == cols
            and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in row),
            f"{where}[{r}]",
            f"expected {cols} numbers, got {row!r}",
        )
    return np.array(value, dtype=np.float64)


def load_dataset(path: str) -> Dataset:
    """Load a dataset JSON file, validating the schema field by field.

    Non-realizable samples load fine but are flagged: one warning summarizes
    the count, and ``Dataset.n_unrealizable`` reports it.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    for key in ("K", "d", "kind", "embeddings", "head", "samples", "seed"):
        _require(key in raw, key, "missing field")
    K, d = raw["K"], raw["d"]
    _require(_is_int(K) and K >= 1, "K", f"expected positive int, got {K!r}")
    _require(_is_int(d) and d >= 1, "d", f"expected positive int, got {d!r}")
    _require(raw["kind"] in (ORTHONORMAL, UNIT_SPHERE), "kind", f"unknown kind {raw['kind']!r}")
    e = _matrix(raw["embeddings"], "embeddings", K, d)
    _require(np.all(np.isfinite(e)), "embeddings", "expected finite values")
    norms = np.linalg.norm(e, axis=1)
    off = np.flatnonzero(np.abs(norms - 1.0) > UNIT_NORM_TOL)
    if len(off):
        k = int(off[0])
        raise SchemaViolation(f"embeddings[{k}]: {raw['kind']} rows need unit norm, got {float(norms[k])!r}")
    table = EmbeddingTable(e=frozen(e), kind=raw["kind"], rank=_rank(e))
    head = None
    if raw["head"] is not None:
        h = raw["head"]
        _require(isinstance(h, dict) and "kind" in h and "C" in h, "head", "expected {kind, C}")
        _require(h["kind"] in (TIED, GENERAL_ARGMAX), "head.kind", f"unknown kind {h['kind']!r}")
        c = _matrix(h["C"], "head.C", K, d)
        _require(np.all(np.isfinite(c)), "head.C", "expected finite values")
        head = ClassifierHead(c=frozen(c), kind=h["kind"])
    _require(_is_int(raw["seed"]), "seed", f"expected int, got {raw['seed']!r}")
    samples = []
    _require(isinstance(raw["samples"], list) and raw["samples"], "samples", "expected nonempty list")
    for i, s in enumerate(raw["samples"]):
        where = f"samples[{i}]"
        _require(isinstance(s, dict) and "tokens" in s and "label" in s, where, "expected {tokens, label}")
        tokens = s["tokens"]
        _require(isinstance(tokens, list) and tokens, f"{where}.tokens", "expected nonempty list")
        for t, tok in enumerate(tokens):
            _require(
                _is_int(tok) and 0 <= tok < K,
                f"{where}.tokens[{t}]",
                f"expected a token ID in range(0, {K}), got {tok!r}",
            )
        label = s["label"]
        _require(
            _is_int(label) and 0 <= label < K,
            f"{where}.label",
            f"expected a token ID in range(0, {K}), got {label!r}",
        )
        samples.append(Sample(tokens=tuple(tokens), label=label))
    ds = Dataset(embedding=table, head=head, samples=tuple(samples), seed=raw["seed"])
    if ds.n_unrealizable:
        warnings.warn(
            f"{path}: {ds.n_unrealizable} non-realizable sample(s); "
            "kept with realizable=False",
            stacklevel=2,
        )
    return ds
