"""Tests for the hyperplane-hash Max-IP index.

A query against unit vectors succeeds when it certifies some stored point
with inner product at least c*tau, where points above tau collide with the
query in some table with high probability.  Exactness properties are
absolute: any Found result carries an exactly recomputed inner product that
meets the threshold, so false positives are impossible by construction and
only misses are probabilistic.  Table signatures are memoized; the memo must
agree bitwise with rehashing the stored points after any update sequence.
"""

import math

import numpy as np
import pytest

from sketchmatch.core import NormBoundError, ParameterError, SeededRng, as_vector
from sketchmatch.maxip import (
    DEFAULT_MAX_TABLES,
    LshIndex,
    LshParams,
    MaxIpResult,
    maxip_exponent,
    maxip_init,
    maxip_query,
    maxip_update,
)


def _unit_rows(rng, n, d):
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _with_planted(rng, n, d, tau):
    """Random unit rows with row 0 replaced by a point at exact ip tau to q."""
    pts = _unit_rows(rng, n, d)
    q = _unit_rows(rng, 1, d)[0]
    u = rng.standard_normal(d)
    u -= (u @ q) * q
    u /= np.linalg.norm(u)
    pts[0] = tau * q + math.sqrt(1.0 - tau * tau) * u
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

    def test_bucket_query_agrees_with_logical_view(self):
        idx, rng = self._index()
        for _ in range(15):
            maxip_update(idx, int(rng.integers(0, idx.n)), _unit_rows(rng, 1, idx.dim)[0])
        for t in range(min(4, idx.params.n_tables)):
            logical = idx.logical_buckets(t)
            for sig, ids in logical.items():
                assert sorted(idx.bucket(t, sig)) == ids

    def test_update_to_identical_point_is_a_no_op(self):
        idx, _ = self._index()
        appends_before = idx._overlay_appends
        sig_before = idx.cur_sig.copy()
        maxip_update(idx, 7, idx.stored[7].copy())
        assert idx._overlay_appends == appends_before
        np.testing.assert_array_equal(idx.cur_sig, sig_before)

    def test_consolidation_clears_overlay_and_preserves_view(self):
        rng = np.random.default_rng(9)
        idx = maxip_init(
            _unit_rows(rng, 40, 10), c=0.7, tau=0.5, delta=0.2, seed=2,
            rebuild_factor=1,
        )
        logical_before = None
        for step in range(200):
            maxip_update(idx, int(rng.integers(0, 40)), _unit_rows(rng, 1, 10)[0])
            if step == 198:
                logical_before = [
                    idx.logical_buckets(t) for t in range(idx.params.n_tables)
                ]
        # rebuild_factor=1 forces consolidations during the loop above
        assert idx._overlay_appends <= idx.rebuild_factor * idx.params.n_tables
        np.testing.assert_array_equal(idx.cur_sig, idx.hash_points(idx.stored))

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
        with pytest.raises(IndexError):
            maxip_update(idx, idx.n, np.zeros(idx.dim))
        with pytest.raises(NormBoundError):
            maxip_update(idx, 0, np.zeros(idx.dim))


def _reference_query(index, q, cap=None):
    """maxip_query with its former inline per-table gather, kept verbatim."""
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
        cand = []
        sig_t = qsig[t]
        for i in index.base_order[t, lo[t] : hi[t]]:
            i = int(i)
            if index.cur_sig[t, i] == sig_t and i not in seen:
                seen.add(i)
                cand.append(i)
        if t in overlay_hits:
            for i in index.overlay[index._overlay_key(t, sig_t)]:
                if index.cur_sig[t, i] == sig_t and i not in seen:
                    seen.add(i)
                    cand.append(i)
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


class TestQueryMatchesReference:
    @pytest.mark.parametrize("rebuild_factor", [64, 1])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_same_result_over_update_sequence(self, seed, rebuild_factor):
        """Shared bucket gather returns the former loop's MaxIpResult.

        Queries near a stored point exit early on a Found; random queries
        mostly miss after scanning every table; a small cap stops the scan
        by count.  With rebuild_factor=1 the overlay is folded into the base
        every few updates.
        """
        rng = np.random.default_rng(700 + seed)
        n, d = 60, 12
        idx = maxip_init(_unit_rows(rng, n, d), c=0.9, tau=0.8, delta=0.2,
                         seed=seed, rebuild_factor=rebuild_factor)
        found = missed = overlay_queries = consolidations = 0
        for _ in range(80):
            appends = idx._overlay_appends
            i = int(rng.integers(0, n))
            z = idx.stored[i] + 0.3 * _unit_rows(rng, 1, d)[0]
            maxip_update(idx, i, z / np.linalg.norm(z))
            consolidations += idx._overlay_appends < appends
            near = idx.stored[int(rng.integers(0, n))] + 0.4 * _unit_rows(rng, 1, d)[0]
            for q in (near / np.linalg.norm(near), _unit_rows(rng, 1, d)[0]):
                overlay_queries += bool(idx.overlay)
                for cap in (None, 3):
                    got, want = maxip_query(idx, q, cap), _reference_query(idx, q, cap)
                    assert (got.found, got.index) == (want.found, want.index)
                    assert got.value == want.value or (
                        math.isnan(got.value) and math.isnan(want.value))
                    found += got.found
                    missed += not got.found
        assert found and missed and overlay_queries
        assert consolidations if rebuild_factor == 1 else not consolidations


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
