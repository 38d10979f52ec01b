"""Tests for the hyperplane-hash Max-IP index.

A query against unit vectors succeeds when it certifies some stored point
with inner product at least c*tau, where points above tau collide with the
query in some table with high probability.  Exactness properties are
absolute: any Found result carries an exactly recomputed inner product that
meets the threshold, so false positives are impossible by construction and
only misses are probabilistic.  Table signatures are memoized; the memo must
agree bitwise with rehashing the stored points after any sequence of
maxip_update calls, and maxip_lower leaves it as it was.
"""

import math
from collections import Counter

import numpy as np
import pytest

from sketchmatch import maxip
from sketchmatch.core import NormBoundError, ParameterError, PointSet, SeededRng, as_vector
from sketchmatch.matching import match_init
from sketchmatch.maxip import (
    _HEAD_TABLES,
    DEFAULT_MAX_TABLES,
    LshIndex,
    LshParams,
    MaxIpResult,
    maxip_exponent,
    maxip_init,
    maxip_lower,
    maxip_query,
    maxip_update,
)


def _unit_rows(rng, n, d):
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _planted(rng, p, ip):
    """A unit vector at inner product ip with the unit vector p."""
    u = rng.standard_normal(len(p))
    u -= (u @ p) * p
    u /= np.linalg.norm(u)
    return ip * p + math.sqrt(1.0 - ip * ip) * u


def _with_planted(rng, n, d, tau):
    """Random unit rows with row 0 replaced by a point at exact ip tau to q."""
    pts = _unit_rows(rng, n, d)
    q = _unit_rows(rng, 1, d)[0]
    pts[0] = _planted(rng, q, tau)
    return pts, q


class TestParams:
    def test_collision_probabilities(self):
        """p1 = 1 - arccos(tau)/pi and p2 = 1 - arccos(c*tau)/pi."""
        p = LshParams.derive(100, c=0.5, tau=0.5, delta=0.1, max_tables=1 << 30)
        assert abs(p.p1 - 2.0 / 3.0) < 1e-12
        assert abs(p.p2 - (1.0 - math.acos(0.25) / math.pi)) < 1e-12
        assert p.p2 < p.p1

    def test_bits_formula(self):
        for n in [2, 10, 1000, 100_000]:
            p = LshParams.derive(n, c=0.8, tau=0.5, delta=0.1, max_tables=1 << 30)
            assert p.k_bits == min(62, max(1, math.ceil(math.log(n) / math.log(1 / p.p2))))

    def test_single_point_gets_one_bit(self):
        p = LshParams.derive(1, c=0.5, tau=0.5, delta=0.1, max_tables=1 << 30)
        assert p.k_bits == 1

    def test_rho_in_unit_interval(self):
        for c, tau in [(0.5, 0.5), (0.9, 0.5), (0.8, 0.3), (0.99, 0.9)]:
            p = LshParams.derive(64, c=c, tau=tau, delta=0.1, max_tables=1 << 30)
            assert 0.0 < p.rho < 1.0

    def test_table_count_calibrated_and_dominates_literal(self):
        """L = ceil(p1^-K * ln(1/delta)), which is >= ceil(n^rho * ln(1/delta)).

        The first form inverts the actual per-table hit probability p1^K, so
        the planted-recovery miss rate lands at delta rather than above it;
        it always dominates the n^rho form because K >= ln n / ln(1/p2).
        """
        for n, c, tau, delta in [
            (100, 0.5, 0.5, 0.1),
            (5000, 0.9, 0.5, 0.1),
            (2000, 0.8, 0.3, 0.05),
        ]:
            p = LshParams.derive(n, c=c, tau=tau, delta=delta, max_tables=1 << 62)
            expect = math.ceil(p.p1 ** (-p.k_bits) * math.log(1.0 / delta))
            assert p.n_tables == expect
            literal = math.ceil(n**p.rho * math.log(1.0 / delta))
            assert p.n_tables >= literal

    def test_table_cap(self):
        p = LshParams.derive(5000, c=0.9, tau=0.5, delta=0.1, max_tables=7)
        assert p.n_tables == 7

    def test_caps_are_reported(self):
        """A capped L or K says so, with the miss chance the index really has."""
        p = LshParams.derive(1024, c=0.8, tau=0.25, delta=0.1 / 1024, max_tables=256)
        assert p.capped_tables and not p.capped_bits
        assert p.n_tables == 256
        assert p.miss_prob == (1.0 - p.p1**p.k_bits) ** 256
        assert abs(p.miss_prob - 0.805) < 5e-4
        assert p.miss_prob > p.delta
        free = LshParams.derive(1024, c=0.8, tau=0.25, delta=0.1 / 1024,
                                max_tables=1 << 30)
        assert not free.capped_tables and free.n_tables == 10881
        assert free.miss_prob <= free.delta
        wide = LshParams.derive(1000, c=0.99, tau=0.99, delta=0.1, max_tables=8)
        assert wide.capped_bits and wide.k_bits == 62

    def test_domain_errors(self):
        good = dict(n=10, c=0.5, tau=0.5, delta=0.1, max_tables=8)
        for field, bad in [
            ("c", 0.0), ("c", 1.0), ("tau", 0.0), ("tau", 1.0),
            ("delta", 0.0), ("delta", 1.0), ("n", 0), ("max_tables", 0),
        ]:
            kw = dict(good)
            kw[field] = bad
            with pytest.raises(ParameterError):
                LshParams.derive(**kw)


class TestExponents:
    def test_frozen_time_values(self):
        assert abs(maxip_exponent(0.25, 0.75, "time") - 0.181818) < 1e-6
        assert abs(maxip_exponent(0.5, 0.5, "time") - 0.5) < 1e-6
        assert abs(maxip_exponent(0.75, 0.25, "time") - 0.857143) < 1e-6

    def test_frozen_ann_value(self):
        assert abs(maxip_exponent(2.0, 0.0, "ann") - 1.0 / 7.0) < 1e-9

    def test_space_regime(self):
        r = (1.0 - 0.5) / (1.0 - 0.25)
        assert abs(maxip_exponent(0.5, 0.5, "space") - (2 * r**2 - r**4)) < 1e-12

    def test_exponents_below_one(self):
        for c, tau in [(0.5, 0.5), (0.9, 0.1), (0.2, 0.8)]:
            assert 0.0 < maxip_exponent(c, tau, "time") < 1.0
            assert 0.0 < maxip_exponent(c, tau, "space") <= 1.0

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            maxip_exponent(1.0, 0.0, "ann")
        with pytest.raises(ParameterError):
            maxip_exponent(1.5, 0.5, "time")
        with pytest.raises(ParameterError):
            maxip_exponent(0.5, 0.5, "sideways")


class TestCollisionModel:
    def test_single_bit_collision_frequency(self):
        """Empirical sign-collision rate tracks 1 - arccos(ip)/pi within 3 sigma."""
        rng = np.random.default_rng(77)
        d, M = 32, 20_000
        for ip in [0.5, 0.4, 0.2]:
            q = _unit_rows(rng, 1, d)[0]
            u = rng.standard_normal(d)
            u -= (u @ q) * q
            u /= np.linalg.norm(u)
            x = ip * q + math.sqrt(1 - ip * ip) * u
            planes = rng.standard_normal((M, d))
            coll = float(np.mean(np.sign(planes @ q) == np.sign(planes @ x)))
            pred = 1.0 - math.acos(ip) / math.pi
            sigma = math.sqrt(pred * (1 - pred) / M)
            assert abs(coll - pred) < 3 * sigma


class TestQueries:
    def test_self_query_found_at_one(self):
        """Querying a stored point certifies it: equal bits hash equally."""
        rng = np.random.default_rng(0)
        pts = _unit_rows(rng, 50, 16)
        idx = maxip_init(pts, c=0.8, tau=0.5, delta=0.1, seed=1)
        for i in [0, 17, 49]:
            r = maxip_query(idx, pts[i])
            assert r.found
            assert abs(r.value - 1.0) < 1e-9

    def test_found_results_are_sound(self):
        """Every Found carries the exact inner product and meets c*tau."""
        rng = np.random.default_rng(1)
        for seed in range(20):
            pts, q = _with_planted(np.random.default_rng(100 + seed), 200, 32, 0.6)
            idx = maxip_init(pts, c=0.8, tau=0.5, delta=0.1, seed=seed)
            r = maxip_query(idx, q)
            if r.found:
                exact = float(idx.stored[r.index] @ q)
                assert abs(r.value - exact) < 1e-12
                assert r.value >= 0.8 * 0.5

    def test_orthogonal_data_certified_fail(self):
        """No point can meet the threshold, so Found is impossible."""
        d = 40
        pts = np.eye(d)[: d - 1]
        q = np.zeros(d)
        q[d - 1] = 1.0
        idx = maxip_init(pts, c=0.5, tau=0.5, delta=0.1, seed=3)
        r = maxip_query(idx, q)
        assert not r.found
        assert r.index == -1

    def test_planted_recovery_rate(self):
        """Miss rate of a tau-correlated planted point stays within 2*delta."""
        c, tau, delta, n, d = 0.8, 0.5, 0.1, 500, 64
        trials, found = 30, 0
        for seed in range(trials):
            pts, q = _with_planted(np.random.default_rng(seed), n, d, tau)
            idx = maxip_init(pts, c=c, tau=tau, delta=delta, seed=seed)
            r = maxip_query(idx, q)
            if r.found:
                assert r.value >= c * tau
                found += 1
        assert found >= math.ceil((1 - 2 * delta) * trials)

    def test_value_is_the_product_of_the_point_alone(self):
        """value equals the per-row product of the returned point computed
        alone, however many candidates were scored next to it."""
        rng = np.random.default_rng(6)
        centres = _unit_rows(rng, 4, 131)
        x = centres[np.arange(200) % 4] + 0.05 * rng.standard_normal((200, 131))
        idx = maxip_init(x / np.linalg.norm(x, axis=1, keepdims=True),
                         c=0.8, tau=0.5, delta=0.1, seed=6)
        crowded = 0
        for k in range(30):
            q = idx.stored[k] + 0.5 * _unit_rows(rng, 1, 131)[0]
            q /= np.linalg.norm(q)
            r = maxip_query(idx, q)
            assert r.found
            assert r.value == np.einsum("ij,j->i", idx.stored[[r.index]], q)[0]
            crowded += r.examined > 1
        assert crowded >= 10

    def test_ties_go_to_the_first_candidate(self):
        """Of equal values the first candidate in probe order wins: of three
        copies of one point, the lowest id, which their slot lists first."""
        rng = np.random.default_rng(7)
        pts = _unit_rows(rng, 40, 16)
        pts[[30, 9]] = pts[21]
        idx = maxip_init(pts, c=0.8, tau=0.9, delta=0.1, seed=7)
        for _ in range(5):
            q = pts[21] + 0.1 * _unit_rows(rng, 1, 16)[0]
            r = maxip_query(idx, q / np.linalg.norm(q))
            assert r.found and r.index == 9

    def test_non_unit_inputs_rejected(self):
        rng = np.random.default_rng(4)
        pts = _unit_rows(rng, 10, 8)
        idx = maxip_init(pts, c=0.5, tau=0.5, delta=0.1, seed=0)
        with pytest.raises(NormBoundError):
            maxip_query(idx, pts[0] * 1.5)
        with pytest.raises(NormBoundError):
            maxip_init(pts * 0.5, c=0.5, tau=0.5, delta=0.1, seed=0)


class TestSignatureBookkeeping:
    def _index(self, seed=0, n=60, d=12):
        rng = np.random.default_rng(seed + 500)
        return maxip_init(
            _unit_rows(rng, n, d), c=0.7, tau=0.5, delta=0.2, seed=seed
        ), rng

    def test_memo_matches_rehash_after_updates(self):
        """cur_sig stays equal to rehashing stored points from scratch."""
        idx, rng = self._index()
        for step in range(25):
            i = int(rng.integers(0, idx.n))
            z = _unit_rows(rng, 1, idx.dim)[0]
            maxip_update(idx, i, z)
        np.testing.assert_array_equal(idx.cur_sig, idx.hash_points(idx.stored))

    def test_logical_buckets_partition_points(self):
        idx, rng = self._index()
        for _ in range(10):
            maxip_update(idx, int(rng.integers(0, idx.n)), _unit_rows(rng, 1, idx.dim)[0])
        for t in range(min(5, idx.params.n_tables)):
            buckets = idx.logical_buckets(t)
            members = sorted(i for ids in buckets.values() for i in ids)
            assert members == list(range(idx.n))

    def test_update_to_identical_point_is_a_no_op(self):
        idx, _ = self._index()
        sig_before = idx.cur_sig.copy()
        maxip_update(idx, 7, idx.stored[7].copy())
        assert len(idx.moved) == 0
        np.testing.assert_array_equal(idx.cur_sig, sig_before)

    def test_moved_ids_and_emptiness(self, monkeypatch):
        """moved holds the distinct ids whose signatures changed, sorted,
        until more than _REBUILD_FACTOR of them trigger a rebuild.

        Updates draw from a few ids, so some id moves twice before a
        rebuild; moved reads empty right after each rebuild, and the
        rebuilt directory is that of the current signatures.
        """
        monkeypatch.setattr(maxip, "_REBUILD_FACTOR", 3)
        rng = np.random.default_rng(8)
        idx = maxip_init(_unit_rows(rng, 40, 10), c=0.7, tau=0.5, delta=0.2,
                         seed=4)
        assert len(idx.moved) == 0 and idx.moved.dtype == np.int64
        want: set[int] = set()
        counts = Counter()
        for _ in range(60):
            i = int(rng.integers(0, 6))
            before = idx.cur_sig[:, i].copy()
            maxip_update(idx, i, _unit_rows(rng, 1, 10)[0])
            if np.array_equal(idx.cur_sig[:, i], before):
                continue
            counts["repeats"] += i in want
            want.add(i)
            if len(want) > maxip._REBUILD_FACTOR:
                assert len(idx.moved) == 0
                _assert_directory(idx)
                want.clear()
                counts["rebuilds"] += 1
            else:
                assert idx.moved.tolist() == sorted(want)
                counts["grown"] += 1
        assert counts["rebuilds"] and counts["grown"] and counts["repeats"], counts

    def test_consolidation_clears_overlay_and_preserves_view(self, monkeypatch):
        """Rebuilds keep the logical view: the last update moves only its own
        id, and each bucket's gather returns exactly its members."""
        monkeypatch.setattr(maxip, "_REBUILD_FACTOR", 1)
        rng = np.random.default_rng(9)
        idx = maxip_init(
            _unit_rows(rng, 40, 10), c=0.7, tau=0.5, delta=0.2, seed=2,
        )
        logical_before = None
        for step in range(200):
            last = int(rng.integers(0, 40))
            maxip_update(idx, last, _unit_rows(rng, 1, 10)[0])
            if step == 198:
                logical_before = [
                    idx.logical_buckets(t) for t in range(idx.params.n_tables)
                ]
        # _REBUILD_FACTOR=1 forces consolidations during the loop above
        assert len(idx.moved) <= maxip._REBUILD_FACTOR
        np.testing.assert_array_equal(idx.cur_sig, idx.hash_points(idx.stored))

        def without_last(buckets):
            view = {s: [i for i in ids if i != last] for s, ids in buckets.items()}
            return {s: ids for s, ids in view.items() if ids}

        none = np.empty(0, dtype=np.int64)
        for t, before in enumerate(logical_before):
            after = idx.logical_buckets(t)
            assert without_last(after) == without_last(before)
            for sig, members in after.items():
                tab, ids = idx._gather(np.array([sig], dtype=idx.sig_dtype), t, none)
                assert np.all(tab == t) and sorted(ids.tolist()) == members

    def test_update_sequence_matches_fresh_build(self):
        """Edited index and fresh index on edited points agree logically."""
        rng = np.random.default_rng(10)
        pts = _unit_rows(rng, 50, 12)
        idx = maxip_init(pts, c=0.7, tau=0.5, delta=0.2, seed=11)
        edited = pts.copy()
        for i in [3, 30, 3, 44]:
            z = _unit_rows(rng, 1, 12)[0]
            maxip_update(idx, i, z)
            edited[i] = z
        fresh = maxip_init(edited, c=0.7, tau=0.5, delta=0.2, seed=11)
        np.testing.assert_array_equal(idx.planes, fresh.planes)
        np.testing.assert_array_equal(idx.cur_sig, fresh.cur_sig)
        for t in range(idx.params.n_tables):
            assert idx.logical_buckets(t) == fresh.logical_buckets(t)

    def test_update_then_query_finds_new_point(self):
        idx, rng = self._index()
        q = _unit_rows(rng, 1, idx.dim)[0]
        maxip_update(idx, 5, q)
        r = maxip_query(idx, q)
        assert r.found and r.index == 5
        assert abs(r.value - 1.0) < 1e-9

    def test_update_bounds_and_norm_checked(self):
        idx, _ = self._index()
        for update in (maxip_update, maxip_lower):
            with pytest.raises(IndexError):
                update(idx, idx.n, np.zeros(idx.dim))
            with pytest.raises(NormBoundError):
                update(idx, 0, np.zeros(idx.dim))

    def test_lower_keeps_signatures(self):
        """maxip_lower writes the row and leaves every signature structure
        bitwise as it was; a point lowered from the query itself to inner
        product 0.9 is still found through its kept signatures, with the
        product of its new row."""
        rng = np.random.default_rng(11)
        pts, q = _with_planted(rng, 60, 32, 1.0)
        idx = maxip_init(pts, c=0.7, tau=0.5, delta=0.2, seed=11)
        kept = [a.copy() for a in (idx.cur_sig, idx.base_ids, idx.base_dir,
                                   idx.moved)]
        new = _planted(rng, q, 0.9)
        maxip_lower(idx, 0, new)
        assert idx.stored[0].tobytes() == new.tobytes()
        for a, b in zip(kept, (idx.cur_sig, idx.base_ids, idx.base_dir, idx.moved)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        # A rehash would have moved the point in some table.
        assert not np.array_equal(idx.hash_points(new[np.newaxis, :])[:, 0],
                                  idx.cur_sig[:, 0])
        r = maxip_query(idx, q)
        assert r.found and r.index == 0
        assert r.value == np.einsum("ij,j->i", idx.stored[[0]], q)[0]
        assert r.value >= idx.params.c * idx.params.tau


def _slots(index, sig):
    """Directory slots of signatures: their top B bits."""
    return sig >> index.sig_dtype(index.params.k_bits - index._slot_bits)


def _reference_candidates(index, qsig):
    """(table, new candidate ids) per table, from a per-table Python loop.

    Base members are read from the directory slot of qsig[t], then every
    moved id in ascending order; tables without a new candidate are left out.
    """
    seen: set[int] = set()
    out = []
    for t, sig_t in enumerate(qsig):
        v = int(_slots(index, sig_t))
        lo, hi = index.base_dir[t, v], index.base_dir[t, v + 1]
        cand = []
        for i in index.base_ids[t, lo:hi].tolist() + index.moved.tolist():
            if index.cur_sig[t, i] == sig_t and i not in seen:
                seen.add(i)
                cand.append(i)
        if cand:
            out.append((t, cand))
    return out


def _gather_all(index, qsig):
    """Members of every table's bucket: the head gather, then the tail's.

    The tail's gather drops the ids the head kept, as in maxip_query, so
    the pair lists each id once.
    """
    L = len(qsig)
    earlier = np.empty(0, dtype=np.int64)
    tabs, idss = [], []
    for t0, t1 in ((0, min(L, _HEAD_TABLES)), (_HEAD_TABLES, L)):
        if t0 >= t1:
            break
        tab, ids = index._gather(qsig[t0:t1], t0, earlier)
        earlier = ids
        tabs.append(tab)
        idss.append(ids)
    return np.concatenate(tabs), np.concatenate(idss)


def _reference_query(index, q, cap=None):
    """maxip_query as the former per-table Python loop, one product per row."""
    q = as_vector(q, dim=index.dim)
    LshIndex._check_unit(q[np.newaxis, :])
    params = index.params
    threshold = params.c * params.tau
    if cap is None:
        cap = 10 * params.n_tables

    best_val = -math.inf
    best_idx = -1
    examined = 0
    qsig = index.hash_points(q[np.newaxis, :])[:, 0]
    for _, cand in _reference_candidates(index, qsig):
        vals = np.einsum("ij,j->i", index.stored[cand], q)
        j = int(np.argmax(vals))
        if vals[j] > best_val:
            best_val = float(vals[j])
            best_idx = cand[j]
        examined += len(cand)
        if best_val >= threshold or examined >= cap:
            break

    if best_idx >= 0 and best_val >= threshold:
        return MaxIpResult(found=True, index=best_idx, value=best_val,
                           examined=examined)
    return MaxIpResult(found=False, examined=examined)


def _assert_same_result(got, want):
    assert (got.found, got.index, got.examined) == (want.found, want.index,
                                                    want.examined)
    assert got.value == want.value or (
        math.isnan(got.value) and math.isnan(want.value))


def _compare_over_update_sequence(idx, rng, factor, move=0.3, near=0.4):
    """Interleave updates with queries; each query must match the reference.

    Each update moves a point by about move, and each near query lies
    about near from a stored point.
    """
    n, d = idx.n, idx.dim
    found = missed = moved_queries = consolidations = 0
    for _ in range(80):
        moved = len(idx.moved)
        i = int(rng.integers(0, n))
        z = idx.stored[i] + move * _unit_rows(rng, 1, d)[0]
        maxip_update(idx, i, z / np.linalg.norm(z))
        consolidations += len(idx.moved) < moved
        q = idx.stored[int(rng.integers(0, n))] + near * _unit_rows(rng, 1, d)[0]
        for q in (q / np.linalg.norm(q), _unit_rows(rng, 1, d)[0]):
            moved_queries += len(idx.moved) > 0
            qsig = idx.hash_points(q[np.newaxis, :])[:, 0]
            tab, ids = _gather_all(idx, qsig)
            assert list(zip(tab.tolist(), ids.tolist())) == [
                (t, i) for t, cand in _reference_candidates(idx, qsig) for i in cand]
            for cap in (None, 50, 3, 0):
                got, want = maxip_query(idx, q, cap), _reference_query(idx, q, cap)
                _assert_same_result(got, want)
                found += got.found
                missed += not got.found
    assert found and missed and moved_queries
    assert consolidations if factor == 1 else not consolidations


class TestQueryMatchesReference:
    @pytest.mark.parametrize("factor", [64, 1])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_same_result_over_update_sequence(self, seed, factor, monkeypatch):
        """The vectorized probe returns the former loop's MaxIpResult.

        Queries near a stored point exit early on a Found; random queries
        mostly miss after scanning every table; caps 50 and 3 stop the scan
        by count, and cap 0 after the first table.  With _REBUILD_FACTOR=1
        the directory is rebuilt every few updates.
        """
        monkeypatch.setattr(maxip, "_REBUILD_FACTOR", factor)
        rng = np.random.default_rng(700 + seed)
        n, d = 60, 12
        idx = maxip_init(_unit_rows(rng, n, d), c=0.9, tau=0.8, delta=0.2,
                         seed=seed)
        _compare_over_update_sequence(idx, rng, factor)

    @pytest.mark.parametrize("factor", [128, 1])
    def test_same_result_with_uint64_signatures(self, factor, monkeypatch):
        """As above for an index with K > 32 bits per signature.

        The unconsolidated case uses 128, more ids than the 80 updates can
        move.
        """
        monkeypatch.setattr(maxip, "_REBUILD_FACTOR", factor)
        rng = np.random.default_rng(710)
        idx = maxip_init(_unit_rows(rng, 150, 12), c=0.95, tau=0.95,
                         delta=0.2, seed=3)
        assert idx.params.k_bits > 32 and idx.sig_dtype == np.uint64
        _compare_over_update_sequence(idx, rng, factor)


def _compare_two_stage(idx, rng):
    """Interleave updates with queries on an index of L >= 3 H tables.

    Each query must match the one-stage reference for cap None, 3 and one
    more than the head's candidate count, which the head alone cannot
    reach.  Queries at inner product just above c * tau with a stored point,
    a random one or the one just updated, collide with it in a late table
    now and then.  Returns counts of how the
    queries ended and of the stages in which a moved id was gathered from
    moved, in a table where its signature changed since the last build.
    """
    n, d, L = idx.n, idx.dim, idx.params.n_tables
    threshold = idx.params.c * idx.params.tau
    ends = Counter()
    built = idx.cur_sig.copy()
    for _ in range(30):
        moved = len(idx.moved)
        i = int(rng.integers(0, n))
        z = idx.stored[i] + 0.3 * _unit_rows(rng, 1, d)[0]
        maxip_update(idx, i, z / np.linalg.norm(z))
        if len(idx.moved) < moved:
            ends["consolidations"] += 1
            built = idx.cur_sig.copy()
        p = idx.stored[int(rng.integers(0, n))]
        for q in (_planted(rng, p, threshold + 0.02), _unit_rows(rng, 1, d)[0],
                  _planted(rng, idx.stored[i], threshold + 0.02)):
            qsig = idx.hash_points(q[np.newaxis, :])[:, 0]
            tab, ids = _gather_all(idx, qsig)
            # Its base entry there holds the build's signature, so it is stale.
            changed = tab[idx.cur_sig[tab, ids] != built[tab, ids]]
            ends["moved in head"] += bool(np.any(changed < _HEAD_TABLES))
            ends["moved in tail"] += bool(np.any(changed >= _HEAD_TABLES))
            head = sum(len(cand) for t, cand in
                       _reference_candidates(idx, qsig) if t < _HEAD_TABLES)
            for cap in (None, 3, head + 1):
                got, want = maxip_query(idx, q, cap), _reference_query(idx, q, cap)
                _assert_same_result(got, want)
                assert got.tables_hashed in (_HEAD_TABLES, L)
                stage = "head" if got.tables_hashed == _HEAD_TABLES else "tail"
                if cap is None:
                    ends["found" if got.found else "missed", stage] += 1
                elif cap == head + 1 and stage == "tail" and got.examined >= cap:
                    ends["cap in tail"] += 1
    return ends


def _many_tables_index(rng, dtype):
    """An index of L >= 3 H tables with K <= 32 (uint32) or K > 32 (uint64)."""
    if dtype == np.uint32:
        idx = maxip_init(_unit_rows(rng, 60, 12), c=0.9, tau=0.7, delta=1e-4,
                         seed=5)
    else:
        idx = maxip_init(_unit_rows(rng, 150, 12), c=0.95, tau=0.95,
                         delta=1e-6, seed=6)
    assert idx.params.n_tables >= 3 * _HEAD_TABLES and idx.sig_dtype == dtype
    return idx


class TestTwoStageProbe:
    @pytest.mark.parametrize("factor", [64, 1])
    @pytest.mark.parametrize("dtype", [np.uint32, np.uint64])
    def test_same_result_as_one_stage_probe(self, dtype, factor, monkeypatch):
        """Head-then-tail probing returns the full probe's MaxIpResult.

        Queries end Found in the head, Found in the tail, missed, and
        stopped by a cap in the tail; both stages gather moved ids, and
        with _REBUILD_FACTOR=1 the directory is rebuilt every few updates.
        """
        monkeypatch.setattr(maxip, "_REBUILD_FACTOR", factor)
        rng = np.random.default_rng(720)
        idx = _many_tables_index(rng, dtype)
        ends = _compare_two_stage(idx, rng)
        for end in [("found", "head"), ("found", "tail"), ("missed", "tail"),
                    "cap in tail", "moved in head", "moved in tail"]:
            assert ends[end], (end, ends)
        assert ends["missed", "head"] == 0
        assert ends["consolidations"] if factor == 1 else not ends["consolidations"]

    @pytest.mark.parametrize("dtype", [np.uint32, np.uint64])
    def test_moved_set_across_stages(self, dtype, monkeypatch):
        """moved holds exactly the ids whose signatures changed, sorted and
        distinct, and the tail gather reads it.

        Far and near moves of a few ids change head and tail tables; with
        _REBUILD_FACTOR=2 the directory is rebuilt once a third id moves,
        and moved reads empty right after each rebuild (the index is then
        the build of the current points).  With every head key bit
        flipped, the updated id is first gathered in the first tail table,
        from moved when its signature there changed.
        """
        monkeypatch.setattr(maxip, "_REBUILD_FACTOR", 2)
        rng = np.random.default_rng(722)
        idx = _many_tables_index(rng, dtype)
        d = idx.dim
        built = idx.cur_sig.copy()
        want: set[int] = set()
        counts = Counter()
        for step in range(40):
            i = int(rng.integers(0, 6))
            z = _unit_rows(rng, 1, d)[0]
            if step % 2:
                z = idx.stored[i] + 0.3 * z
            before = idx.cur_sig[:, i].copy()
            maxip_update(idx, i, z / np.linalg.norm(z))
            if not np.array_equal(idx.cur_sig[:, i], before):
                counts["repeats"] += i in want
                want.add(i)
            if len(want) > maxip._REBUILD_FACTOR:
                assert len(idx.moved) == 0
                np.testing.assert_array_equal(idx.cur_sig, idx.hash_points(idx.stored))
                built = idx.cur_sig.copy()
                want.clear()
                counts["rebuilds"] += 1
            else:
                assert idx.moved.tolist() == sorted(want)
            qsig = idx.cur_sig[:, i].copy()
            qsig[:_HEAD_TABLES] ^= dtype(1)
            tab, ids = _gather_all(idx, qsig)
            assert list(zip(tab.tolist(), ids.tolist())) == [
                (t, j) for t, cand in _reference_candidates(idx, qsig) for j in cand]
            assert tab[np.flatnonzero(ids == i)[0]] == _HEAD_TABLES
            counts["tail from moved"] += bool(
                i in want and idx.cur_sig[_HEAD_TABLES, i] != built[_HEAD_TABLES, i])
        assert counts["rebuilds"] and counts["repeats"] and counts["tail from moved"], counts

    def test_counters(self):
        """A query near a stored point hashes the head only; a miss, every table."""
        rng = np.random.default_rng(721)
        idx = _many_tables_index(rng, np.uint32)
        L = idx.params.n_tables
        near = idx.stored[7] + 0.05 * _unit_rows(rng, 1, idx.dim)[0]
        r = maxip_query(idx, near / np.linalg.norm(near))
        assert r.found and r.tables_hashed == _HEAD_TABLES and r.examined >= 1
        # Orthogonal to every stored point: no candidate can reach c * tau.
        d = 40
        idx = maxip_init(np.eye(d)[: d - 1], c=0.9, tau=0.7, delta=1e-4, seed=3)
        assert idx.params.n_tables > _HEAD_TABLES
        q = np.eye(d)[d - 1]
        r = maxip_query(idx, q)
        assert not r.found and r.tables_hashed == idx.params.n_tables
        qsig = idx.hash_points(q[np.newaxis, :])[:, 0]
        assert r.examined == len(_gather_all(idx, qsig)[1])


class _NumpyAsMaxipSees:
    """numpy as the maxip module sees it, with some functions replaced."""

    def __init__(self, **replaced):
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(np, name)


def _poisoned_empty(shape, dtype=float, order="C"):
    """np.empty whose integer arrays start filled with -7 (cast to dtype)."""
    out = np.empty(shape, dtype=dtype, order=order)
    if np.issubdtype(out.dtype, np.integer):
        out.fill(np.array(-7).astype(out.dtype))
    return out


class TestProbeRecord:
    """A probe stage writes and reads its rank array only at its candidates
    and at the ids the head kept."""

    @pytest.mark.parametrize("layout", ["uint32", "uint64", "truncated"])
    def test_results_do_not_read_unwritten_entries(self, layout, monkeypatch):
        """With every integer np.empty in maxip pre-filled with -7, gathers
        and results still equal the reference's, over updates that keep
        moved ids, for caps None, 50, 3 and 0.

        The uint32 and uint64 indexes have L >= 3 H tables, so queries that
        reach the tail drop the head's ids; every layout has K > B.
        """
        monkeypatch.setattr(maxip, "_REBUILD_FACTOR", 128)
        monkeypatch.setattr(maxip, "np", _NumpyAsMaxipSees(empty=_poisoned_empty))
        rng = np.random.default_rng(750)
        if layout == "truncated":
            idx = _packed_index(rng, layout)
            _compare_over_update_sequence(idx, rng, 128, move=0.02, near=0.02)
        else:
            idx = _many_tables_index(rng, getattr(np, layout))
            assert idx.params.k_bits > idx._slot_bits
            _compare_over_update_sequence(idx, rng, 128)

    def test_miss_query_fills_nothing_of_n_entries(self, monkeypatch):
        """A miss that probes both stages calls np.zeros, np.full and
        np.ones in maxip for fewer than n elements each."""
        d = 40
        idx = maxip_init(np.eye(d)[: d - 1], c=0.9, tau=0.7, delta=1e-4, seed=3)
        L = idx.params.n_tables
        assert L > _HEAD_TABLES
        sizes = []

        def counted(fill):
            def wrapper(*args, **kwargs):
                out = fill(*args, **kwargs)
                sizes.append(out.size)
                return out
            return wrapper

        monkeypatch.setattr(maxip, "np", _NumpyAsMaxipSees(
            **{f: counted(getattr(np, f)) for f in ("zeros", "full", "ones")}))
        r = maxip_query(idx, np.eye(d)[d - 1])
        assert not r.found and r.tables_hashed == L and r.examined > 0
        assert all(s < idx.n for s in sizes), sizes


def _shift_loop_hash(index, pts):
    """The former hash_points: all tables, keys packed by a K-step shift loop."""
    L, K = index.params.n_tables, index.params.k_bits
    x32 = np.ascontiguousarray(pts.T, dtype=np.float32)
    b = x32.shape[1]
    sig = np.empty((L, b), dtype=index.sig_dtype)
    tables_per_chunk = max(1, (1 << 24) // max(K * b, 1))
    for t0 in range(0, L, tables_per_chunk):
        t1 = min(L, t0 + tables_per_chunk)
        bits = (index.planes[t0 * K : t1 * K] @ x32 > 0).reshape(t1 - t0, K, b)
        acc = np.zeros((t1 - t0, b), dtype=index.sig_dtype)
        for k in range(K):
            acc |= bits[:, k, :].astype(index.sig_dtype) << index.sig_dtype(k)
        sig[t0:t1] = acc
    return sig


class TestHashing:
    @pytest.mark.parametrize("dtype", [np.uint32, np.uint64])
    def test_table_ranges_and_packing(self, dtype):
        """A table range hashes to the same rows as all tables, packed as before.

        Covers K <= 32 and K > 32, one vector and a batch.
        """
        rng = np.random.default_rng(730)
        idx = _many_tables_index(rng, dtype)
        L = idx.params.n_tables
        for pts in (idx.stored[:1], _unit_rows(rng, 1, idx.dim), idx.stored):
            full = idx.hash_points(pts)
            assert full.shape == (L, len(pts)) and full.dtype == dtype
            np.testing.assert_array_equal(full, _shift_loop_hash(idx, pts))
            for t0, t1 in [(0, _HEAD_TABLES), (_HEAD_TABLES, L), (5, 17), (L - 1, L)]:
                np.testing.assert_array_equal(idx.hash_points(pts, t0, t1), full[t0:t1])
        np.testing.assert_array_equal(idx.hash_points(idx.stored[3:4])[:, 0],
                                      _shift_loop_hash(idx, idx.stored[3:4])[:, 0])

    @pytest.mark.parametrize("n, dim, clusters, shape", [
        (256, 32, 8, (1809, 10)),  # the hashed-hit benchmark workload
        (96, 128, 0, (534, 8)),  # the hashed-miss benchmark workload
    ])
    def test_build_signatures_unchanged(self, n, dim, clusters, shape):
        """cur_sig at build equals the former shift-loop hash."""
        rng = np.random.default_rng(n)
        if clusters:
            centres = _unit_rows(rng, clusters, dim)
            x = centres[rng.integers(0, clusters, size=n)]
            x = x + 0.25 / math.sqrt(dim) * rng.standard_normal((n, dim))
            offline = x / np.linalg.norm(x, axis=1, keepdims=True)
        else:
            offline = _unit_rows(rng, n, dim)
        m = match_init("FasterInnerProductMatching", PointSet(offline, norm_bound=1.0),
                       epsilon=0.2, tau=0.5, delta=0.1, seed=n)
        idx = m.index
        assert (idx.params.n_tables, idx.params.k_bits) == shape
        np.testing.assert_array_equal(idx.cur_sig, _shift_loop_hash(idx, idx.stored))
        # The base is one uint8 id per (table, point) and 2^B + 1 offsets per
        # table, uint16 when they reach 256; the two set the benchmark's
        # index_bytes.
        L, B = shape[0], idx._slot_bits
        assert B == (n - 1).bit_length() < shape[1]
        assert idx.base_ids.shape == (L, n) and idx.base_ids.dtype == np.uint8
        assert idx.base_dir.shape == (L, (1 << B) + 1)
        assert idx.base_dir.dtype == (np.uint16 if n == 256 else np.uint8)
        assert idx.base_ids.nbytes + idx.base_dir.nbytes == {
            256: 1_392_930, 96: 120_150}[n]
        assert not hasattr(idx, "base_key") and not hasattr(idx, "base_order")


def _assert_bounds_searchsorted(idx, qsig):
    """_bounds agrees with per-row np.searchsorted of the sorted slots."""
    lo, hi = idx._bounds(qsig)
    prefix = np.sort(_slots(idx, idx.cur_sig), axis=1)
    for t in range(idx.params.n_tables):
        v = _slots(idx, qsig[t])
        assert lo[t] == np.searchsorted(prefix[t], v, side="left")
        assert hi[t] == np.searchsorted(prefix[t], v, side="right")
    return lo, hi


class TestBounds:
    @pytest.mark.parametrize("dtype", [np.uint32, np.uint64])
    @pytest.mark.parametrize("n", [1, 64, 37])
    def test_bounds_equal_per_row_searchsorted(self, n, dtype):
        """Both sides agree with np.searchsorted below, above and at duplicates.

        Signatures are drawn from a few values, among them 0 and the
        all-ones signature, so most slots hold runs of points and many are
        empty; the directory is rebuilt from them.  For uint64 the index has
        K > 32 (at n = 1, K = 1, so there the memo is recast to uint64).
        """
        rng = np.random.default_rng(n)
        ctau = 0.5 if dtype == np.uint32 else 0.99
        idx = maxip_init(_unit_rows(rng, n, 6), c=ctau, tau=ctau, delta=0.2, seed=n)
        L, K = idx.params.n_tables, idx.params.k_bits
        assert (K > 32) == (dtype == np.uint64) or n == 1
        top = (1 << K) - 1
        values = np.array([v & top for v in (3, 4, 9, top - 1, top)], dtype=dtype)
        idx.cur_sig = values[rng.integers(0, 5, size=(L, n))]
        idx._consolidate()
        _assert_directory(idx)
        keys = np.array([k & top for k in (0, 2, 3, 4, 5, 9, 10, top - 2,
                                           top - 1, top)], dtype=dtype)
        for qsig in [np.full(L, k, dtype=dtype) for k in keys] + [
            keys[rng.integers(0, len(keys), size=L)] for _ in range(20)
        ]:
            _assert_bounds_searchsorted(idx, qsig)
        _, hi = idx._bounds(np.full(L, top, dtype=dtype))
        assert np.all(hi == n)


def _packed_index(rng, layout):
    """An index with uint32 signatures, uint64 ones, or uint64 ones of
    clustered points (n=64 at c = tau = 0.99: K=62, b=B=6).

    The clustered index's points lie in tight clusters, so in many tables
    some points share a slot but not a full signature.
    """
    if layout == "uint32":
        idx = maxip_init(_unit_rows(rng, 60, 12), c=0.9, tau=0.8, delta=0.2, seed=0)
        shape = (15, 6, 6)
    elif layout == "uint64":
        idx = maxip_init(_unit_rows(rng, 150, 12), c=0.95, tau=0.95, delta=0.2,
                         seed=3)
        shape = (33, 8, 8)
    else:
        centres = _unit_rows(rng, 8, 12)
        x = centres[np.arange(64) % 8] + 0.02 * rng.standard_normal((64, 12))
        idx = maxip_init(x / np.linalg.norm(x, axis=1, keepdims=True),
                         c=0.99, tau=0.99, delta=0.1, seed=7)
        shape = (62, 6, 6)
        assert idx.params.n_tables == 41
    assert (idx.params.k_bits, idx._id_bits, idx._slot_bits) == shape
    assert idx.sig_dtype == (np.uint32 if shape[0] <= 32 else np.uint64)
    assert idx.base_ids.dtype == idx.base_dir.dtype == np.uint8
    return idx


def _assert_directory(idx):
    """Each table's ids are the stable argsort of its slots, offsets 0 to n.

    Holds right after a build or consolidation, when the directory was
    made from the current signatures: within a slot the ids ascend, and
    slot v of table t is base_ids[t, dir[t, v] : dir[t, v + 1]].
    """
    n = idx.n
    slots = _slots(idx, idx.cur_sig)
    ids = idx.base_ids.astype(np.int64)
    np.testing.assert_array_equal(ids, np.argsort(slots, axis=1, kind="stable"))
    held = np.take_along_axis(slots, ids, axis=1)
    same = held[:, 1:] == held[:, :-1]
    assert np.all(held[:, 1:] >= held[:, :-1])
    assert np.all(ids[:, 1:][same] > ids[:, :-1][same])
    offsets = idx.base_dir.astype(np.int64)
    assert np.all(offsets[:, 0] == 0) and np.all(offsets[:, -1] == n)
    everything = np.arange(1 << idx._slot_bits)
    for t in range(idx.params.n_tables):
        np.testing.assert_array_equal(offsets[t, :-1],
                                      np.searchsorted(held[t], everything))


class TestPackedKey:
    """The directory build sorts packed keys slot << b | id per table."""

    @pytest.mark.parametrize("layout", ["uint32", "uint64", "truncated"])
    def test_sorted_as_stable_argsort(self, layout, monkeypatch):
        """After the build and after every consolidation, each table's ids
        are the stable argsort of its slots, and its offsets bound them."""
        monkeypatch.setattr(maxip, "_REBUILD_FACTOR", 1)
        rng = np.random.default_rng(740)
        idx = _packed_index(rng, layout)
        _assert_directory(idx)
        if layout == "truncated":
            # Some slot is shared by points whose signatures differ.
            slots = _slots(idx, idx.cur_sig)
            assert any(len(np.unique(slots[t])) < len(np.unique(idx.cur_sig[t]))
                       for t in range(idx.params.n_tables))
        folds = 0
        for _ in range(40):
            moved = len(idx.moved)
            i = int(rng.integers(0, idx.n))
            z = idx.stored[i] + 0.3 * _unit_rows(rng, 1, idx.dim)[0]
            maxip_update(idx, i, z / np.linalg.norm(z))
            if len(idx.moved) < moved:
                folds += 1
                _assert_directory(idx)
        assert folds >= 2

    @pytest.mark.parametrize("factor", [128, 1])
    def test_truncated_prefix_matches_reference(self, factor, monkeypatch):
        """With K > B a slot holds every point of the query's top B bits;
        the freshness filter keeps exactly the members of its full
        signature, so gathers and results equal the reference's."""
        monkeypatch.setattr(maxip, "_REBUILD_FACTOR", factor)
        rng = np.random.default_rng(741)
        idx = _packed_index(rng, "truncated")
        _compare_over_update_sequence(idx, rng, factor, move=0.02, near=0.02)

    def test_bounds_at_32_bits_with_all_ones_signature(self):
        """At B + b = 32 (n = 2^15 + 1) the all-ones slot's key for the last
        id fills the uint32 build key without wrapping; the directory holds
        2^16 + 1 offsets per table, and the all-ones slot ends at n."""
        rng = np.random.default_rng(742)
        n = (1 << 15) + 1
        idx = maxip_init(_unit_rows(rng, n, 8), c=0.8, tau=0.98, delta=0.2, seed=1)
        L, K = idx.params.n_tables, idx.params.k_bits
        assert idx._slot_bits + idx._id_bits == 32 and idx.sig_dtype == np.uint64
        assert idx.base_dir.shape == (L, (1 << 16) + 1)
        assert idx.base_ids.dtype == idx.base_dir.dtype == np.uint16
        top = (1 << K) - 1
        idx.cur_sig[:, [3, 100, n - 1]] = top
        idx._consolidate()
        _assert_directory(idx)
        for qsig in (np.full(L, top, dtype=np.uint64),
                     np.full(L, top - 1, dtype=np.uint64), idx.cur_sig[:, 7].copy()):
            _assert_bounds_searchsorted(idx, qsig)
        lo, hi = idx._bounds(np.full(L, top, dtype=np.uint64))
        assert np.all(hi == n) and np.all(lo <= n - 3)
        assert np.all(idx.base_ids[:, -1] == n - 1)


class TestDeterminism:
    def test_same_seed_same_index(self):
        rng = np.random.default_rng(12)
        pts = _unit_rows(rng, 30, 8)
        a = maxip_init(pts, c=0.7, tau=0.5, delta=0.2, seed=42)
        b = maxip_init(pts, c=0.7, tau=0.5, delta=0.2, seed=42)
        np.testing.assert_array_equal(a.planes, b.planes)
        np.testing.assert_array_equal(a.cur_sig, b.cur_sig)
        q = _unit_rows(rng, 1, 8)[0]
        ra, rb = maxip_query(a, q), maxip_query(b, q)
        assert (ra.found, ra.index) == (rb.found, rb.index)
        if ra.found:
            assert ra.value == rb.value

    def test_different_seeds_differ(self):
        rng = np.random.default_rng(13)
        pts = _unit_rows(rng, 30, 8)
        a = maxip_init(pts, c=0.7, tau=0.5, delta=0.2, seed=0)
        b = maxip_init(pts, c=0.7, tau=0.5, delta=0.2, seed=1)
        assert not np.array_equal(a.planes, b.planes)
