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

Storage layout: each table's base is a bucket directory.  base_ids[t]
holds the point ids sorted by the top B bits of their signature (the slot)
and then by id, and base_dir[t] holds the 2^B + 1 slot offsets, so slot v
of table t is base_ids[t, base_dir[t, v] : base_dir[t, v + 1]].  B = min(K,
b), where b is the bit length of n - 1, so a table has fewer than 2n
slots; both arrays use the smallest unsigned dtype that holds their
values.  A probe stage's bucket bounds are two indexed reads of the
directory.  The sorted array moved holds the distinct ids whose signatures
changed since the directory was built; after each table's base range a
query gathers the moved ids whose current signature there is the query's.
A query probes in two stages: it hashes, bounds and gathers the head tables
[0, _HEAD_TABLES) first, in whole-array steps, and scores the gathered
candidates in one pass; it does the same for the other tables only when the
head neither reaches c * tau nor the candidate cap.  The tail's gather
drops the ids the head kept, so the result equals that of one probe over
all L tables.  A stage dedups its candidates in one rank array of n entries,
written and read only at its candidates and the head's, so a query costs
its hashing plus its candidates.  Stale base entries, and base members whose
signature shares only the slot's top B bits with the query's, are filtered
against the authoritative per-point signature memo cur_sig.  maxip_lower,
the index's one write, replaces a point and keeps its signatures, for a
point whose inner product with every query to come can only fall; the
hashed matcher's updates are of that kind, so it never rehashes.
maxip_update is that write plus a rehash; the directory is rebuilt in
place once more than _REBUILD_FACTOR ids have moved.  The hyperplanes are
stored column-major, which suits the GEMV that hashes one vector.  The
theoretical query exponents of other constructions come from maxip_exponent.
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
# Tables in a query's first probe stage; the rest are probed only when these
# give no answer.
_HEAD_TABLES = 128
# The directory is rebuilt once more than _REBUILD_FACTOR ids have moved.
_REBUILD_FACTOR = 64
# A directory build takes tables in blocks whose intp temporaries hold about
# this many elements (one table at least).
_BUILD_BUDGET = 1 << 14


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
    # The exact inner product of the returned point with the query, as
    # np.einsum("ij,j->i") gives it for that row alone: the same whatever
    # other candidates were scored next to it.
    value: float = math.nan
    # Tables whose bucket the query hashed and gathered, and candidates whose
    # inner product it computed.
    tables_hashed: int = 0
    examined: int = 0


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
    ) -> None:
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.size == 0:
            raise ParameterError("points must be a nonempty (n, d) array")
        self._check_unit(pts)
        self.params = LshParams.derive(pts.shape[0], c, tau, delta, max_tables)
        self.stored = pts.copy()
        self.dim = pts.shape[1]
        L, K = self.params.n_tables, self.params.k_bits
        planes = SeededRng(seed).gen.standard_normal((L * K, self.dim))
        # Unit rows, rounded to float32 and stored column-major by one divide.
        self.planes = np.empty(planes.shape, dtype=np.float32, order="F")
        np.divide(planes, np.linalg.norm(planes, axis=1, keepdims=True),
                  out=self.planes, casting="same_kind")
        self.sig_dtype = np.uint32 if K <= 32 else np.uint64
        # Directory layout: the slot of a signature is its top B bits.
        n = self.n
        self._id_bits = (n - 1).bit_length()
        self._slot_bits = min(K, self._id_bits)
        self.base_ids = np.empty((L, n), dtype=np.min_scalar_type(n - 1))
        self.base_dir = np.empty((L, (1 << self._slot_bits) + 1),
                                 dtype=np.min_scalar_type(n))
        # Authoritative per-point signatures, one row per table.
        self.cur_sig = self.hash_points(self.stored)
        self._consolidate()

    @staticmethod
    def _check_unit(pts: np.ndarray) -> None:
        norms = np.linalg.norm(pts, axis=1)
        if np.max(np.abs(norms - 1.0)) > UNIT_TOL:
            raise NormBoundError("maxip operates on unit vectors; apply the transform")

    @property
    def n(self) -> int:
        return self.stored.shape[0]

    # -- hashing ------------------------------------------------------------

    def hash_points(self, pts: np.ndarray, t0: int = 0,
                    t1: int | None = None) -> np.ndarray:
        """Signatures of the given points in tables [t0, t1) (default: all).

        Returns a (t1 - t0, batch) array of K-bit keys; bit k of a key is
        the sign of the table's k-th hyperplane.
        """
        K = self.params.k_bits
        t1 = self.params.n_tables if t1 is None else t1
        x32 = np.ascontiguousarray(pts.T, dtype=np.float32)  # (d, b)
        b = x32.shape[1]
        sig = np.empty((t1 - t0, b), dtype=self.sig_dtype)
        # Exact integer packing: the bits are disjoint, so the sum never carries.
        weights = self.sig_dtype(1) << np.arange(K, dtype=self.sig_dtype)
        tables_per_chunk = max(1, _CHUNK_BUDGET // max(K * b, 1))
        for a in range(t0, t1, tables_per_chunk):
            z = min(t1, a + tables_per_chunk)
            bits = (self.planes[a * K : z * K] @ x32 > 0).reshape(z - a, K, b)
            # einsum casts a uint8 view in buffered blocks, which is fastest
            # for a batch; for one vector an integer copy first is faster.
            bits = bits.astype(self.sig_dtype) if b == 1 else bits.view(np.uint8)
            sig[a - t0 : z - t0] = np.einsum("tkb,k->tb", bits, weights)
        return sig

    # -- bucket bookkeeping ---------------------------------------------------

    def _consolidate(self) -> None:
        """Rebuild every table's directory from cur_sig; moved empties.

        Tables are done in blocks of about _BUILD_BUDGET points or slots, so
        no temporary grows with L.  A block packs keys slot << b | id, sorts
        each row (ids are unique, so this is the stable order by slot),
        writes the ids into base_ids and turns per-slot counts into the
        offsets in base_dir.
        """
        L, n = self.cur_sig.shape
        b, B = self._id_bits, self._slot_bits
        slots = 1 << B
        key_dtype = np.min_scalar_type((1 << (B + b)) - 1)
        ids = np.arange(n, dtype=key_dtype)
        rows = max(1, _BUILD_BUDGET // max(n, slots + 1))
        # Row r's counts sit at r (2^B + 1) + 1 + slot, so a row-wise cumsum
        # of the counts is that row's offsets, led by a zero.
        row_at = np.arange(1, rows * (slots + 1), slots + 1)[:, np.newaxis]
        for a in range(0, L, rows):
            z = min(L, a + rows)
            slot = self.cur_sig[a:z] >> (self.params.k_bits - B)
            key = slot.astype(key_dtype)
            key <<= b
            key |= ids
            key.sort(axis=1)
            np.bitwise_and(key, (1 << b) - 1, out=self.base_ids[a:z],
                           casting="unsafe")
            at = np.add(slot, row_at[: z - a], dtype=np.intp)
            counts = np.bincount(at.ravel(), minlength=(z - a) * (slots + 1))
            np.cumsum(counts.reshape(z - a, slots + 1), axis=1,
                      dtype=self.base_dir.dtype, out=self.base_dir[a:z])
        # Sorted distinct ids whose signatures changed since this build.
        self.moved = np.empty(0, dtype=np.int64)

    def _bounds(self, qsig: np.ndarray, t0: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """Range [lo, hi) of base_ids[t0 + j] holding the slot of qsig[j].

        Two indexed reads of the directory: the offsets of the slot and of
        the one after it.
        """
        d = self.base_dir.shape[1]
        at = np.arange(t0 * d, (t0 + len(qsig)) * d, d)
        at += (qsig >> (self.params.k_bits - self._slot_bits)).astype(np.intp)
        flat = self.base_dir.ravel()
        return flat[at].astype(np.int64), flat[at + 1].astype(np.int64)

    def _gather(self, qsig: np.ndarray, t0: int, earlier: np.ndarray,
                ) -> tuple[np.ndarray, np.ndarray]:
        """Members of bucket qsig[j] in table t = t0 + j, in probe order.

        Table t contributes the base ids of the directory slot of qsig[j],
        in ascending id order, then the moved ids whose current signature
        in t is qsig[j], in ascending order.  An id whose current signature
        in its table is not qsig[j] (stale, or a base member that shares
        only the slot's top bits) is dropped, as is an id in earlier, the
        ids an earlier stage kept; of the rest only each id's first
        occurrence is kept.  One rank array records both: an id's entry is
        its first rank, or -1 for an earlier id.  Returns (tables, ids),
        grouped by ascending table.
        """
        n = self.n
        t1 = t0 + len(qsig)
        lo, hi = self._bounds(qsig, t0)
        counts = hi - lo
        tables = np.arange(t0, t1, dtype=np.int64)
        tab = np.repeat(tables, counts)
        # Flat base_ids offset of each member: row start + lo + rank in range.
        start = np.repeat(tables * n + lo - (np.cumsum(counts) - counts), counts)
        ids = self.base_ids.ravel()[start + np.arange(len(tab))].astype(np.int64)
        if len(self.moved):
            # nonzero lists the matches table by table, ids ascending; tab is
            # sorted, so a stable sort by table puts them after the base range.
            t, j = np.nonzero(self.cur_sig[t0:t1, self.moved] == qsig[:, np.newaxis])
            tab = np.concatenate([tab, t + t0])
            order = np.argsort(tab, kind="stable")
            tab, ids = tab[order], np.concatenate([ids, self.moved[j]])[order]
        fresh = self.cur_sig[tab, ids] == qsig[tab - t0]
        tab, ids = tab[fresh], ids[fresh]
        rank = np.arange(len(ids))
        # Only the entries at ids and earlier are written or read, so the
        # query's work does not grow with n.
        first = np.empty(n, dtype=np.int64)
        first[ids] = len(ids)
        first[earlier] = -1
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


# Index unit vectors for (c, tau)-Max-IP queries.
maxip_init = LshIndex


def maxip_update(index: LshIndex, i: int, new_point) -> None:
    """Replace point i by any unit vector: maxip_lower's write, then a rehash.

    If its signature changed in some table, cur_sig takes the new one and i
    joins index.moved; the directory is rebuilt once more than
    _REBUILD_FACTOR ids have moved.
    """
    maxip_lower(index, i, new_point)
    new_sig = index.hash_points(index.stored[i][np.newaxis, :])[:, 0]
    if np.array_equal(new_sig, index.cur_sig[:, i]):
        return
    index.cur_sig[:, i] = new_sig
    index.moved = np.union1d(index.moved, [i])
    if len(index.moved) > _REBUILD_FACTOR:
        index._consolidate()


def maxip_lower(index: LshIndex, i: int, new_point) -> None:
    """Replace point i by a unit vector and keep every signature it has.

    The index's one write: it checks that i is in range and that new_point
    is a finite unit vector of the index's dimension, then sets stored[i].
    Precondition: for every query q to come, <new_point, q> <= <old, q>,
    where old is the vector it replaces.  Over a chain of such calls, a
    query the current vector meets at tau meets the vector its signatures
    were hashed from at tau too, and sign-hash collision is monotone in the
    inner product, so the kept signatures keep the index's recall at tau;
    candidates are always scored against the current vector.  The hashed
    matcher's updates are of this kind: a weight that only grows lowers
    every transformed inner product.
    """
    if not 0 <= i < index.n:
        raise IndexError(f"index {i} out of range")
    z = as_vector(new_point, dim=index.dim)
    LshIndex._check_unit(z[np.newaxis, :])
    index.stored[i] = z


def maxip_query(index: LshIndex, q, cap: int | None = None) -> MaxIpResult:
    """Probe the query's bucket in every table, best candidate wins.

    Scores tables in order, evaluating exact inner products of each table's
    new candidates; stops early once some candidate reaches c * tau (the
    best candidate seen so far is returned) or after examining 10 * L
    candidates.  The first _HEAD_TABLES tables are hashed and gathered
    first, the others only if scoring the head did not stop; the result is
    the same as for one probe over all tables.  A stage's candidates are
    scored in one pass, one product per row; the scan stops at the end of
    the table holding the first row that reaches c * tau or the cap, and
    the best is the first candidate, in probe order, of the largest value
    up to there.
    """
    q = as_vector(q, dim=index.dim)
    LshIndex._check_unit(q[np.newaxis, :])
    params = index.params
    L = params.n_tables
    threshold = params.c * params.tau
    if cap is None:
        cap = 10 * L

    best_val = -math.inf
    best_idx = -1
    examined = 0
    earlier = np.empty(0, dtype=np.int64)
    for t0, t1 in ((0, min(L, _HEAD_TABLES)), (_HEAD_TABLES, L)):
        if t0 >= t1:
            break
        hashed = t1
        qsig = index.hash_points(q[np.newaxis, :], t0, t1)[:, 0]
        tab, ids = index._gather(qsig, t0, earlier)
        if not len(ids):
            continue
        earlier = ids
        # One product per row: a value does not depend on its row's batch.
        vals = np.einsum("ij,j->i", index.stored[ids], q)
        # The scan stops in the table of the first row that reaches c * tau
        # (earlier stages stayed below it) or whose count reaches the cap,
        # whichever comes first.
        hit = vals >= threshold
        r = int(hit.argmax()) if hit.any() else len(ids)
        r = min(r, max(cap - examined - 1, 0))
        stop = r < len(ids)
        end = int(tab.searchsorted(tab[r], "right")) if stop else len(ids)
        j = int(vals[:end].argmax())
        if vals[j] > best_val:
            best_val = float(vals[j])
            best_idx = int(ids[j])
        examined += end
        if stop:
            break

    if best_idx >= 0 and best_val >= threshold:
        return MaxIpResult(found=True, index=best_idx, value=best_val,
                           tables_hashed=hashed, examined=examined)
    return MaxIpResult(found=False, tables_hashed=hashed, examined=examined)
