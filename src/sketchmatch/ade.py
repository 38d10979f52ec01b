"""Dynamic distance estimation from sign-matrix sketches.

Each of m independent groups holds a k x d projection with iid +-1/sqrt(k)
entries.  A vector's sketch is its image under all groups; the distance from
a query q to stored point x_i is estimated per group as the norm of the
sketch difference and then reduced by the median across groups:

    d~_i = median_g ||sketch_g(q) - sketch_g(x_i)||_2.

Within a group the squared norm is preserved up to (1 +- eps) with failure
probability exp(-Theta(k eps^2)); the median then drives the failure
probability of the whole estimate down to delta / n_points per query.  Group
count and width default to

    k = ceil(C_k / eps^2),    m = ceil(C_m * ln(n / delta)) rounded up to odd,

with generous constants C_k = 16, C_m = 9 that callers may tighten.

Every vector (stored, updated, or queried) takes the same path: one float64
matrix-vector product (the sketch map), a division by the bank's `scale`,
the power of two nearest the point set's norm bound, and a cast to float32.
Bit-identical inputs therefore produce bit-identical sketches; a query
equal to a stored point reports distance exactly 0, and updating a point
and rebuilding from scratch with the same seed agree bit for bit.  Only the
stored bank and the query's reduction are float32.  Each stored coordinate
is rounded by about 2^-24 relative, so the error this adds to an estimate
is additive, about 2^-24 (||q|| + ||x_i||), plus a relative error of at
most about k 2^-24 from the float32 sums: a near-duplicate whose distance
is not far above 2^-24 times the norms loses the (1 +- eps) band.  The
division by the power of two is exact and only moves the float32 range to
the data's scale; vectors whose norm exceeds _RANGE times the scale are
rejected, which keeps every squared group norm finite, and distances
below about 2^-63 times the scale lose precision to float32 underflow.

A query costs O(m k (n + d)) time: one sketch product, then one pass over
the bank.  The pass runs over row blocks of at most _CHUNK_BYTES (or of one
row), so the extra memory is O(n m) for the squared group norms plus one
block, never a full (n, m, k) difference tensor.  The median is the middle
order statistic of the squared norms, taken by partition, and only it is
square-rooted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DimensionMismatch, ParameterError, PointSet, SeededRng, as_vector

DEFAULT_C_K = 16.0
DEFAULT_C_M = 9.0
# Bytes of sketch differences held at once while a query reduces the bank.
_CHUNK_BYTES = 1 << 18
# Storage and reduction dtype of the bank; the sketch map stays float64.
_BANK_DTYPE = np.float32
# Largest vector norm, in units of the bank's scale, that may be sketched
# into the bank: a group's squared difference norm stays below
# d (2 _RANGE)^2 < 2^128, float32's limit, for any d below 2^46.
_RANGE = 2.0**40


@dataclass(frozen=True)
class SketchPlan:
    """Sketch geometry: m groups of k rows over dimension d."""

    m: int
    k: int
    d: int
    epsilon: float
    delta: float

    @classmethod
    def derive(
        cls,
        n_points: int,
        d: int,
        epsilon: float,
        delta: float,
        c_k: float = DEFAULT_C_K,
        c_m: float = DEFAULT_C_M,
    ) -> "SketchPlan":
        if not 0.0 < epsilon < 0.1:
            raise ParameterError("epsilon must lie in (0, 0.1)")
        if not 0.0 < delta < 1.0:
            raise ParameterError("delta must lie in (0, 1)")
        if c_k <= 0 or c_m <= 0:
            raise ParameterError("sketch constants must be positive")
        k = math.ceil(c_k / epsilon**2)
        m = math.ceil(c_m * math.log(n_points / delta))
        m = max(1, m)
        if m % 2 == 0:
            m += 1  # odd group count keeps the median a single group's value
        return cls(m=m, k=k, d=d, epsilon=epsilon, delta=delta)


class SketchBank:
    """Sketches of a point set plus the projections that made them."""

    def __init__(self, points: PointSet, plan: SketchPlan, seed) -> None:
        self.plan = plan
        m, k, d = plan.m, plan.k, plan.d
        if points.dim != d:
            raise DimensionMismatch("plan dimension does not match the point set")
        # One stacked (m*k, d) sign matrix; groups are row blocks.
        signs = SeededRng(seed).gen.integers(0, 2, size=(m * k, d), dtype=np.int8)
        self.proj = (signs.astype(np.float64) * 2.0 - 1.0) / math.sqrt(k)
        self.scale = 2.0 ** round(math.log2(points.norm_bound))
        self.sketches = np.empty((points.n, m, k), dtype=_BANK_DTYPE)
        for i, x in enumerate(points.points):
            self.sketches[i] = self._stored(x)

    def _sketch(self, v: np.ndarray) -> np.ndarray:
        # The sketch map: one float64 product per vector, never batched, as
        # a matrix-matrix product may round differently in the last bits.
        return (self.proj @ v).reshape(self.plan.m, self.plan.k)

    def _stored(self, v: np.ndarray) -> np.ndarray:
        # Single canonical path for every vector: identical inputs yield
        # identical sketches, which the zero-distance guarantee relies on.
        # The division by a power of two is exact; the cast rounds.
        norm = float(np.linalg.norm(v))
        if norm > _RANGE * self.scale:
            raise ParameterError(
                f"vector norm {norm:.6g} exceeds {_RANGE:.6g} times the bank's "
                f"scale {self.scale:.6g}"
            )
        return (self._sketch(v) / self.scale).astype(_BANK_DTYPE)

    @property
    def n(self) -> int:
        return self.sketches.shape[0]


def ade_init(
    points: PointSet,
    epsilon: float,
    delta: float,
    seed,
    c_k: float = DEFAULT_C_K,
    c_m: float = DEFAULT_C_M,
) -> SketchBank:
    """Sketch a point set for (1 +- epsilon) distance estimates."""
    plan = SketchPlan.derive(points.n, points.dim, epsilon, delta, c_k=c_k, c_m=c_m)
    return SketchBank(points, plan, seed)


def ade_update(bank: SketchBank, i: int, z) -> None:
    """Replace stored point i by z and re-sketch that row only."""
    if not 0 <= i < bank.n:
        raise IndexError(f"index {i} out of range")
    z = as_vector(z, dim=bank.plan.d)
    bank.sketches[i] = bank._stored(z)


def ade_query(bank: SketchBank, q) -> np.ndarray:
    """Estimated distances from q to every stored point.

    Returns an (n,) float64 array; entry i is the median over groups of the
    sketch difference norm, reduced in the bank's float32 and scaled back.
    Raises ParameterError if ||q|| exceeds _RANGE times the bank's scale.
    Time is O(m k (n + d)); extra memory is O(n m) for the squared group
    norms plus one block of differences, _CHUNK_BYTES or one row of m k
    floats, whichever is larger.
    """
    q = as_vector(q, dim=bank.plan.d)
    q_sk = bank._stored(q)  # (m, k), rounded as stored
    n, m, k = bank.sketches.shape
    rows = min(n, max(1, _CHUNK_BYTES // (m * k * q_sk.itemsize)))
    block = np.empty((rows, m, k), dtype=_BANK_DTYPE)
    sq = np.empty((n, m), dtype=_BANK_DTYPE)
    for a in range(0, n, rows):
        b = min(n, a + rows)
        diff = block[: b - a]
        np.subtract(bank.sketches[a:b], q_sk, out=diff)
        np.einsum("nmk,nmk->nm", diff, diff, out=sq[a:b])
    # m is odd, so the median is the middle order statistic, and sqrt is
    # monotone and correctly rounded: the root of the middle squared norm
    # equals the median of the roots bit for bit.
    sq.partition(m // 2, axis=1)
    return np.sqrt(sq[:, m // 2]).astype(np.float64) * bank.scale
