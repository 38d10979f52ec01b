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

Storage layout: per-table signatures live in a sorted base array, probed
for every table at once with one branchless binary search, plus an overlay
that absorbs updates: an append-ordered (k, 3) int64 array of rows
(table, signature, id).  A query gathers all bucket members of all tables
in whole-array steps; stale entries are filtered against the authoritative
per-point signature memo, and the base is re-sorted once the overlay grows
past rebuild_factor updates' worth of entries.  Theoretical query/space
exponents for other constructions are exposed through maxip_exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    # Whether max_tables or the 62-bit signature limit cut the derived L or
    # K; either voids the delta budget, and miss_prob = (1 - p1^K)^L is the
    # per-query miss chance that the built index actually has for a pair at
    # exactly tau.
    capped_tables: bool = False
    capped_bits: bool = False
    miss_prob: float = math.nan

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
        capped_bits = k_bits > 62
        k_bits = min(k_bits, 62)
        n_tables = max(1, math.ceil(p1 ** (-k_bits) * math.log(1.0 / delta)))
        capped_tables = n_tables > max_tables
        n_tables = min(n_tables, max_tables)
        return cls(
            c=c, tau=tau, delta=delta, n=n,
            k_bits=k_bits, n_tables=n_tables, p1=p1, p2=p2, rho=rho,
            capped_tables=capped_tables, capped_bits=capped_bits,
            miss_prob=(1.0 - p1**k_bits) ** n_tables,
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
        self._consolidate()

    @staticmethod
    def _check_unit(pts: np.ndarray) -> None:
        norms = np.linalg.norm(pts, axis=1) if pts.ndim == 2 else [np.linalg.norm(pts)]
        if np.max(np.abs(np.asarray(norms) - 1.0)) > UNIT_TOL:
            raise NormBoundError("maxip operates on unit vectors; apply the transform")

    @property
    def n(self) -> int:
        return self.stored.shape[0]

    @property
    def overlay(self) -> np.ndarray:
        """Rows (table, signature, id) appended since the last re-sort.

        A (k, 3) view of a column-major buffer, so that each column a query
        scans is contiguous.
        """
        return self._overlay_buf[:, : self._overlay_appends].T

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
        self._overlay_buf = np.empty((3, 0), dtype=np.int64)
        self._overlay_appends = 0

    def _append_overlay(self, tables: np.ndarray, sigs: np.ndarray, i: int) -> None:
        k0 = self._overlay_appends
        k1 = k0 + len(tables)
        size = self._overlay_buf.shape[1]
        if k1 > size:
            grown = np.empty((3, max(k1, 2 * size)), dtype=np.int64)
            grown[:, :k0] = self._overlay_buf[:, :k0]
            self._overlay_buf = grown
        cols = self._overlay_buf[:, k0:k1]
        cols[0] = tables
        cols[1] = sigs
        cols[2] = i
        self._overlay_appends = k1

    def _bounds(self, qsig: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Range [lo, hi) of signature qsig[l] within sorted row l of base_sig.

        Equal to per-row np.searchsorted on both sides.  One branchless
        lower-bound search runs over 2L integer keys: qsig for the left side
        and qsig + 1 for the right one.
        """
        L, n = self.base_sig.shape
        flat = self.base_sig.ravel()
        keys = np.concatenate([qsig, qsig]).astype(np.uint64)
        keys[L:] += np.uint64(1)
        # pos is the flat offset of the search window's start in each row.
        row0 = np.tile(np.arange(L, dtype=np.int64) * n, 2)
        pos = row0.copy()
        size = n
        while size > 1:
            half = size >> 1
            pos += (flat[pos + half] < keys) * half
            size -= half
        pos += flat[pos] < keys
        pos -= row0
        return pos[:L], pos[L:]

    def bucket(self, table: int, sig) -> list[int]:
        """Current members of one bucket (base plus overlay, stale-filtered)."""
        L = self.params.n_tables
        key = np.full(L, -1, dtype=np.int64)
        key[table] = sig
        lo = np.zeros(L, dtype=np.int64)
        hi = np.zeros(L, dtype=np.int64)
        lo[table] = np.searchsorted(self.base_sig[table], sig, side="left")
        hi[table] = np.searchsorted(self.base_sig[table], sig, side="right")
        return self._gather(key, lo, hi)[1].tolist()

    def _gather(self, key: np.ndarray, lo: np.ndarray,
                hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Members of bucket key[t] in every table t, in probe order.

        Table t contributes base_order[t, lo[t]:hi[t]] (the bucket's range
        in the sorted base), then its overlay rows with signature key[t] in
        append order; key[t] = -1 matches no overlay row.  An id whose
        current signature in its table is no longer key[t] is stale and
        dropped, and of the rest only each id's first occurrence is kept.
        Returns (tables, ids), grouped by ascending table.
        """
        L, n = self.base_order.shape
        counts = hi - lo
        tab = np.repeat(np.arange(L, dtype=np.int64), counts)
        # Flat base_order offset of each member: row start + lo + rank in range.
        start = np.repeat(np.arange(L, dtype=np.int64) * n + lo
                          - (np.cumsum(counts) - counts), counts)
        ids = self.base_order.ravel()[start + np.arange(len(tab))].astype(np.int64)
        ov = self.overlay
        ov = ov[np.flatnonzero(ov[:, 1] == key[ov[:, 0]])]
        if len(ov):
            # tab is sorted, so a stable sort by table puts each table's
            # overlay members after its base range, in append order.
            tab = np.concatenate([tab, ov[:, 0]])
            order = np.argsort(tab, kind="stable")
            tab, ids = tab[order], np.concatenate([ids, ov[:, 2]])[order]
        fresh = self.cur_sig[tab, ids].astype(np.int64) == key[tab]
        tab, ids = tab[fresh], ids[fresh]
        rank = np.arange(len(ids))
        first = np.full(n, len(ids), dtype=np.int64)
        np.minimum.at(first, ids, rank)
        keep = first[ids] == rank
        return tab[keep], ids[keep]

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
    changed = np.flatnonzero(new_sig != index.cur_sig[:, i])
    index.cur_sig[:, i] = new_sig
    index._append_overlay(changed, new_sig[changed], i)
    if index._overlay_appends > index.rebuild_factor * index.params.n_tables:
        index._consolidate()


def maxip_query(index: LshIndex, q, cap: int | None = None) -> MaxIpResult:
    """Probe the query's bucket in every table, best candidate wins.

    Scores tables in order, evaluating exact inner products of each table's
    new candidates; stops early once some candidate reaches c * tau (the
    best candidate seen so far is returned) or after examining 10 * L
    candidates.
    """
    q = as_vector(q, dim=index.dim)
    LshIndex._check_unit(q[np.newaxis, :])
    params = index.params
    threshold = params.c * params.tau
    if cap is None:
        cap = 10 * params.n_tables

    qsig = index._hash_one(q)
    lo, hi = index._bounds(qsig)
    tab, ids = index._gather(qsig.astype(np.int64), lo, hi)

    best_val = -math.inf
    best_idx = -1
    examined = 0
    # One GEMV per table: BLAS may round a row differently in a larger batch.
    cuts = (np.flatnonzero(tab[1:] != tab[:-1]) + 1).tolist()
    for a, b in zip([0] + cuts, cuts + [len(ids)]):
        if a == b:  # nothing gathered: the one range is (0, 0)
            break
        cand = ids[a:b]
        vals = index.stored[cand] @ q
        j = int(np.argmax(vals))
        if vals[j] > best_val:
            best_val = float(vals[j])
            best_idx = int(cand[j])
        examined += b - a
        if best_val >= threshold or examined >= cap:
            break

    if best_idx >= 0 and best_val >= threshold:
        return MaxIpResult(found=True, index=best_idx, value=best_val)
    return MaxIpResult(found=False)
