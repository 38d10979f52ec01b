"""Approximate Max-IP search over unit vectors with sign-hyperplane hashing.

A (c, tau)-Max-IP query over a set P of unit vectors must, whenever some
point has inner product >= tau with the unit query q, return a point p' with
<p', q> >= c * tau; the returned value is always the exact inner product of
the returned point, recomputed on demand.

Each of L tables hashes a vector to K sign bits of random hyperplanes.  Two
unit vectors at angle theta agree on one bit with probability 1 - theta/pi,
hence a pair at the near threshold (inner product tau) collides per table
with p1^K where

    p1 = 1 - arccos(tau) / pi,     p2 = 1 - arccos(c * tau) / pi,

and K = ceil(ln n / ln(1/p2)) suppresses far points to about one stray
collision per table.  The table count is sized from the realized per-table
hit rate, L = ceil(p1^(-K) * ln(1/delta)), which equals the textbook
n^rho * ln(1/delta) when K needs no rounding and otherwise keeps the miss
probability at delta despite the integer K.  rho = ln(1/p1) / ln(1/p2) is
recorded on the params for reference.

Storage layout: per-table signatures live in a sorted base array (probed
with a vectorized per-row binary search) plus a small overlay dict that
absorbs updates; stale entries are filtered against the authoritative
per-point signature memo, and the base is re-sorted once the overlay grows
past rebuild_factor updates' worth of entries.  Theoretical query/space
exponents for other constructions are exposed through maxip_exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .core import NormBoundError, ParameterError, SeededRng, as_vector

DEFAULT_MAX_TABLES = 32768
UNIT_TOL = 1e-6
# Output budget per hashing GEMM chunk, in float32 elements.
_CHUNK_BUDGET = 1 << 24


def maxip_exponent(c: float, tau: float, regime: str = "time") -> float:
    """Query exponent rho: query time scales as n^rho for the given regime.

    "time" and "space" are the exponents of the transformed-space
    constructions optimizing query time and index size; "ann" is the
    classical approximate near-neighbor exponent, which takes its own
    approximation factor c > 1.
    """
    if regime == "ann":
        if c <= 1.0:
            raise ParameterError("ann regime requires c > 1")
        return 1.0 / (2.0 * c * c - 1.0)
    if not 0.0 < c < 1.0 or not 0.0 < tau < 1.0:
        raise ParameterError("time/space regimes require c, tau in (0, 1)")
    if regime == "time":
        denom = 1.0 - 2.0 * c * tau + tau
        if denom <= 0.0:
            raise ParameterError("degenerate parameters: 1 - 2*c*tau + tau <= 0")
        return (1.0 - tau) / denom
    if regime == "space":
        r = (1.0 - tau) / (1.0 - c * tau)
        return 2.0 * r**2 - r**4
    raise ParameterError(f"unknown regime {regime!r}")


@dataclass(frozen=True)
class LshParams:
    c: float
    tau: float
    delta: float
    n: int
    k_bits: int
    n_tables: int
    p1: float
    p2: float
    rho: float

    @classmethod
    def derive(
        cls, n: int, c: float, tau: float, delta: float, max_tables: int
    ) -> "LshParams":
        if not 0.0 < c < 1.0:
            raise ParameterError("c must lie in (0, 1)")
        if not 0.0 < tau < 1.0:
            raise ParameterError("tau must lie in (0, 1)")
        if not 0.0 < delta < 1.0:
            raise ParameterError("delta must lie in (0, 1)")
        if n < 1:
            raise ParameterError("need at least one point")
        if max_tables < 1:
            raise ParameterError("max_tables must be positive")
        p1 = 1.0 - math.acos(tau) / math.pi
        p2 = 1.0 - math.acos(c * tau) / math.pi
        rho = math.log(1.0 / p1) / math.log(1.0 / p2)
        k_bits = max(1, math.ceil(math.log(n) / math.log(1.0 / p2)))
        k_bits = min(k_bits, 62)
        n_tables = math.ceil(p1 ** (-k_bits) * math.log(1.0 / delta))
        n_tables = min(max(1, n_tables), max_tables)
        return cls(
            c=c, tau=tau, delta=delta, n=n,
            k_bits=k_bits, n_tables=n_tables, p1=p1, p2=p2, rho=rho,
        )


@dataclass
class MaxIpResult:
    found: bool
    index: int = -1
    value: float = math.nan


class LshIndex:
    """L sign-hash tables over a fixed-size set of unit vectors."""

    def __init__(
        self,
        points: np.ndarray,
        c: float,
        tau: float,
        delta: float,
        seed,
        max_tables: int = DEFAULT_MAX_TABLES,
        rebuild_factor: int = 64,
    ) -> None:
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.size == 0:
            raise ParameterError("points must be a nonempty (n, d) array")
        self._check_unit(pts)
        self.params = LshParams.derive(pts.shape[0], c, tau, delta, max_tables)
        self.stored = pts.copy()
        self.dim = pts.shape[1]
        self.rng = SeededRng(seed)
        L, K = self.params.n_tables, self.params.k_bits
        planes = self.rng.gen.standard_normal((L * K, self.dim))
        planes /= np.linalg.norm(planes, axis=1, keepdims=True)
        self.planes = planes.astype(np.float32)
        self.sig_dtype = np.uint32 if K <= 32 else np.uint64
        self.rebuild_factor = int(rebuild_factor)
        # Authoritative per-point signatures, one row per table.
        self.cur_sig = self.hash_points(self.stored)
        self.overlay: dict[int, list[int]] = {}
        self._overlay_appends = 0
        self._consolidate()

    @staticmethod
    def _check_unit(pts: np.ndarray) -> None:
        norms = np.linalg.norm(pts, axis=1) if pts.ndim == 2 else [np.linalg.norm(pts)]
        if np.max(np.abs(np.asarray(norms) - 1.0)) > UNIT_TOL:
            raise NormBoundError("maxip operates on unit vectors; apply the transform")

    @property
    def n(self) -> int:
        return self.stored.shape[0]

    # -- hashing ------------------------------------------------------------

    def hash_points(self, pts: np.ndarray) -> np.ndarray:
        """Signatures of the given points: (L, batch) array of K-bit keys."""
        L, K = self.params.n_tables, self.params.k_bits
        x32 = np.ascontiguousarray(pts.T, dtype=np.float32)  # (d, b)
        b = x32.shape[1]
        sig = np.empty((L, b), dtype=self.sig_dtype)
        tables_per_chunk = max(1, _CHUNK_BUDGET // max(K * b, 1))
        for t0 in range(0, L, tables_per_chunk):
            t1 = min(L, t0 + tables_per_chunk)
            block = self.planes[t0 * K : t1 * K] @ x32  # ((t1-t0)*K, b)
            bits = (block > 0).reshape(t1 - t0, K, b)
            acc = np.zeros((t1 - t0, b), dtype=self.sig_dtype)
            for k in range(K):
                acc |= bits[:, k, :].astype(self.sig_dtype) << self.sig_dtype(k)
            sig[t0:t1] = acc
        return sig

    def _hash_one(self, v: np.ndarray) -> np.ndarray:
        return self.hash_points(v[np.newaxis, :])[:, 0]

    # -- bucket bookkeeping ---------------------------------------------------

    def _consolidate(self) -> None:
        # Re-sort every table by current signature; overlay folds into base.
        order = np.argsort(self.cur_sig, axis=1, kind="stable")
        self.base_order = order.astype(np.int32)
        self.base_sig = np.take_along_axis(self.cur_sig, order, axis=1)
        self.overlay.clear()
        self._overlay_appends = 0

    def _overlay_key(self, table: int, sig) -> int:
        return (int(table) << 62) | int(sig)

    def _row_bisect(self, keys: np.ndarray, side: str) -> np.ndarray:
        """Per-table binary search of keys[l] within sorted row l of base_sig."""
        L, n = self.base_sig.shape
        flat = self.base_sig.ravel()
        offsets = np.arange(L, dtype=np.int64) * n
        lo = np.zeros(L, dtype=np.int64)
        hi = np.full(L, n, dtype=np.int64)
        for _ in range(int(n).bit_length() + 1):
            active = lo < hi
            if not active.any():
                break
            mid = (lo + hi) >> 1
            vals = flat[offsets + np.minimum(mid, n - 1)]
            if side == "left":
                go_right = vals < keys
            else:
                go_right = vals <= keys
            go_right &= active
            lo = np.where(go_right, mid + 1, lo)
            hi = np.where(active & ~go_right, mid, hi)
        return lo

    def bucket(self, table: int, sig) -> list[int]:
        """Current members of one bucket (base plus overlay, stale-filtered)."""
        lo = int(np.searchsorted(self.base_sig[table], sig, side="left"))
        hi = int(np.searchsorted(self.base_sig[table], sig, side="right"))
        return self._gather(table, sig, lo, hi, set())

    def _gather(self, table: int, sig, lo: int, hi: int,
                seen: set[int]) -> list[int]:
        """Members of bucket sig in one table that are not in seen yet.

        Reads base_order[table, lo:hi] (the bucket's range in the sorted
        base), then the bucket's overlay entries; an id whose current
        signature in this table is no longer sig is stale and skipped.
        Returned ids are added to seen.
        """
        row = self.cur_sig[table]
        out = []
        for i in chain(self.base_order[table, lo:hi].tolist(),
                       self.overlay.get(self._overlay_key(table, sig), ())):
            if row[i] == sig and i not in seen:
                seen.add(i)
                out.append(i)
        return out

    def logical_buckets(self, table: int) -> dict[int, list[int]]:
        """Canonical view of one table: signature -> sorted point ids."""
        row = self.cur_sig[table]
        buckets: dict[int, list[int]] = {}
        for i, s in enumerate(row.tolist()):
            buckets.setdefault(s, []).append(i)
        return buckets


def maxip_init(
    points,
    c: float,
    tau: float,
    delta: float,
    seed,
    max_tables: int = DEFAULT_MAX_TABLES,
    rebuild_factor: int = 64,
) -> LshIndex:
    """Index unit vectors for (c, tau)-Max-IP queries."""
    return LshIndex(points, c, tau, delta, seed,
                    max_tables=max_tables, rebuild_factor=rebuild_factor)


def maxip_update(index: LshIndex, i: int, new_point) -> None:
    """Replace point i; only tables whose signature changed are touched."""
    if not 0 <= i < index.n:
        raise IndexError(f"index {i} out of range")
    z = as_vector(new_point, dim=index.dim)
    LshIndex._check_unit(z[np.newaxis, :])
    index.stored[i] = z
    new_sig = index._hash_one(z)
    changed = np.nonzero(new_sig != index.cur_sig[:, i])[0]
    index.cur_sig[:, i] = new_sig
    for t in changed.tolist():
        key = index._overlay_key(t, new_sig[t])
        index.overlay.setdefault(key, []).append(i)
    index._overlay_appends += len(changed)
    if index._overlay_appends > index.rebuild_factor * index.params.n_tables:
        index._consolidate()


def maxip_query(index: LshIndex, q, cap: int | None = None) -> MaxIpResult:
    """Probe the query's bucket in every table, best candidate wins.

    Probes tables in order, evaluating exact inner products of candidates;
    stops early once some candidate reaches c * tau (the best candidate seen
    so far is returned) or after examining 10 * L candidates.
    """
    q = as_vector(q, dim=index.dim)
    LshIndex._check_unit(q[np.newaxis, :])
    params = index.params
    threshold = params.c * params.tau
    if cap is None:
        cap = 10 * params.n_tables

    qsig = index._hash_one(q)
    lo = index._row_bisect(qsig, "left")
    hi = index._row_bisect(qsig, "right")
    base_hits = np.nonzero(hi > lo)[0]

    overlay_hits: set[int] = set()
    if index.overlay:
        for t in range(params.n_tables):
            if index._overlay_key(t, qsig[t]) in index.overlay:
                overlay_hits.add(t)

    best_val = -math.inf
    best_idx = -1
    examined = 0
    seen: set[int] = set()
    tables = sorted(set(base_hits.tolist()) | overlay_hits)
    for t in tables:
        cand = index._gather(t, qsig[t], lo[t], hi[t], seen)
        if not cand:
            continue
        vals = index.stored[cand] @ q
        j = int(np.argmax(vals))
        if vals[j] > best_val:
            best_val = float(vals[j])
            best_idx = cand[j]
        examined += len(cand)
        if best_val >= threshold or examined >= cap:
            break

    if best_idx >= 0 and best_val >= threshold:
        return MaxIpResult(found=True, index=best_idx, value=best_val)
    return MaxIpResult(found=False)
