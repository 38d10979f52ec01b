"""Shared geometry for the matching pipeline.

Everything downstream works on real vectors and two asymmetric embeddings
that turn inner-product comparisons into distance comparisons on the unit
sphere.  For a data point b with ||b|| <= 1 and a query a with ||a|| <= C,

    data_pad(b)  = [b,       sqrt(1 - ||b||^2),   0                    ]
    query_pad(a) = [a / C,   0,                   sqrt(1 - ||a/C||^2)  ]

are both unit vectors in d+2 dimensions and satisfy

    ||query_pad(a) - data_pad(b)||^2 = 2 - (2/C) <a, b>,

so a nearest-neighbor search over padded data points is an argmax search
over inner products.  The identity is exercised directly by the tests.

This module also owns dataset file IO (a tiny CSV dialect and NDJSON) and
the seeded RNG wrapper used for reproducibility everywhere else.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Norm preconditions are enforced with this much slack before erroring.
NORM_SLACK = 1e-9


class DimensionMismatch(ValueError):
    """Operands do not live in the same space."""


class NormBoundError(ValueError):
    """A vector violates the norm precondition of an operation."""


class ParameterError(ValueError):
    """A configuration parameter is outside its documented range."""


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Coerce to a finite 1-d float64 array, optionally checking its length."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionMismatch(f"expected a 1-d vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite entries")
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {v.shape[0]}")
    return v


def inner_product(a, b) -> float:
    """Exact <a, b>; the reference weight for inner-product matchers."""
    a = as_vector(a)
    b = as_vector(b, dim=a.shape[0])
    return float(a @ b)


def distance(a, b) -> float:
    """Exact Euclidean distance ||a - b||."""
    a = as_vector(a)
    b = as_vector(b, dim=a.shape[0])
    return float(np.linalg.norm(a - b))


@dataclass
class PointSet:
    """n points in R^d with a certified norm bound max_i ||x_i|| <= norm_bound."""

    points: np.ndarray
    norm_bound: float = 1.0

    def __post_init__(self) -> None:
        p = np.asarray(self.points, dtype=np.float64)
        if p.ndim != 2:
            raise DimensionMismatch(f"points must be an (n, d) array, got {p.shape}")
        if p.shape[0] == 0:
            raise ParameterError("a point set must contain at least one point")
        if not np.all(np.isfinite(p)):
            raise ValueError("point set has non-finite entries")
        if self.norm_bound <= 0:
            raise ParameterError("norm_bound must be positive")
        norms = np.linalg.norm(p, axis=1)
        worst = float(norms.max())
        if worst > self.norm_bound * (1.0 + NORM_SLACK):
            raise NormBoundError(
                f"point norm {worst:.12g} exceeds bound {self.norm_bound:.12g}"
            )
        self.points = p

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def _padded_tail(sq_norm: float, where: str) -> float:
    # Radicand is clamped at zero: norms a hair above 1 (within slack) are
    # treated as exactly 1 rather than producing NaN.
    if sq_norm > (1.0 + NORM_SLACK) ** 2:
        raise NormBoundError(f"{where}: squared norm {sq_norm:.12g} exceeds 1")
    return math.sqrt(max(0.0, 1.0 - sq_norm))


def transform_data(b) -> np.ndarray:
    """Embed a data point with ||b|| <= 1 as the unit vector [b, pad, 0]."""
    b = as_vector(b)
    sq = float(b @ b)
    tail = _padded_tail(sq, "transform_data")
    return np.concatenate([b, [tail, 0.0]])


def transform_query(a, scale: float = 1.0) -> np.ndarray:
    """Embed a query with ||a|| <= scale as the unit vector [a/scale, 0, pad]."""
    if scale <= 0:
        raise ParameterError("transform scale must be positive")
    a = as_vector(a) / scale
    sq = float(a @ a)
    tail = _padded_tail(sq, "transform_query")
    return np.concatenate([a, [0.0, tail]])


class SeededRng:
    """Deterministic RNG handle: equal seeds give bit-identical streams.

    Thin wrapper over numpy's PCG64 generator.  ``spawn(key)`` derives an
    independent child stream; the (seed, key) -> stream map is stable across
    runs and platforms, which is what the reproducibility tests rely on.
    """

    def __init__(self, seed) -> None:
        if isinstance(seed, np.random.SeedSequence):
            self.seq = seed
        else:
            self.seq = np.random.SeedSequence(seed)
        self.gen = np.random.default_rng(self.seq)

    def spawn(self, key: int) -> "SeededRng":
        return SeededRng(child_seed(self, key))


def child_seed(seed, key: int) -> np.random.SeedSequence:
    """Stable derived seed for sub-structures (one per backing structure)."""
    if isinstance(seed, SeededRng):
        base = seed.seq
    elif isinstance(seed, np.random.SeedSequence):
        base = seed
    else:
        base = np.random.SeedSequence(seed)
    return np.random.SeedSequence(
        entropy=base.entropy, spawn_key=base.spawn_key + (int(key),)
    )


# ---------------------------------------------------------------------------
# Dataset files.  Two interchangeable formats:
#   * CSV: first line "dim=<d>", then one comma-separated vector per line.
#   * NDJSON: one {"v": [...]} object per line.
# Values are written with repr so both round-trip to the same float64 bits.
# ---------------------------------------------------------------------------


def save_csv(path, points: np.ndarray) -> None:
    p = np.asarray(points, dtype=np.float64)
    if p.ndim != 2:
        raise DimensionMismatch("save_csv expects an (n, d) array")
    lines = [f"dim={p.shape[1]}"]
    for row in p:
        lines.append(",".join(repr(float(x)) for x in row))
    Path(path).write_text("\n".join(lines) + "\n")


def load_csv(path) -> np.ndarray:
    text = Path(path).read_text().strip().splitlines()
    if not text or not text[0].startswith("dim="):
        raise ValueError("dataset CSV must start with a dim=<d> header")
    dim = int(text[0][4:])
    rows = []
    for lineno, line in enumerate(text[1:], start=2):
        if not line.strip():
            continue
        vals = [float(tok) for tok in line.split(",")]
        if len(vals) != dim:
            raise DimensionMismatch(f"line {lineno}: expected {dim} values")
        rows.append(vals)
    return np.asarray(rows, dtype=np.float64).reshape(len(rows), dim)


def save_jsonl(path, points: np.ndarray) -> None:
    p = np.asarray(points, dtype=np.float64)
    if p.ndim != 2:
        raise DimensionMismatch("save_jsonl expects an (n, d) array")
    with open(path, "w") as fh:
        for row in p:
            fh.write(json.dumps({"v": [float(x) for x in row]}) + "\n")


def load_jsonl(path) -> np.ndarray:
    rows = []
    dim = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            obj = json.loads(line)
            v = obj["v"]
            if dim is None:
                dim = len(v)
            elif len(v) != dim:
                raise DimensionMismatch(f"line {lineno}: expected {dim} values")
            rows.append(v)
    if dim is None:
        raise ValueError("empty dataset file")
    return np.asarray(rows, dtype=np.float64).reshape(len(rows), dim)
