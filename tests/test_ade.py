"""Tests for sketch-based distance estimation.

The estimator projects every vector through m independent k x d sign
matrices and reports the median over groups of the sketch-difference norm.
Exact properties (linearity of the sketch map, power-of-two scale
equivariance, zero distance on identical inputs, bitwise update/rebuild
agreement) are asserted with zero or near-zero tolerance; the statistical
accuracy guarantee is checked as a bound on the fraction of failing seeds.
"""

import math
import tracemalloc

import numpy as np
import pytest

from sketchmatch.core import DimensionMismatch, ParameterError, PointSet
from sketchmatch.ade import (
    _CHUNK_BYTES,
    DEFAULT_C_K,
    DEFAULT_C_M,
    SketchPlan,
    ade_init,
    ade_query,
    ade_update,
)


def _unit_ball_points(rng, n, d):
    pts = rng.standard_normal((n, d))
    return pts / np.maximum(1.0, np.linalg.norm(pts, axis=1, keepdims=True))


def _reference_query(bank, q):
    """The unblocked formula: full (n, m, k) differences, median of roots.

    The query sketch is scaled and rounded to the bank's dtype and the roots
    are taken in it, as ade_query does; only the result is widened to
    float64 and scaled back.
    """
    q_sk = _as_stored(bank, np.asarray(q, dtype=np.float64))
    diff = bank.sketches - q_sk[np.newaxis]
    roots = np.sqrt(np.einsum("nmk,nmk->nm", diff, diff))
    return np.median(roots, axis=1).astype(np.float64) * bank.scale


def _as_stored(bank, v):
    """v's sketch as the bank stores it: divided by the scale, rounded."""
    return (bank._sketch(v) / bank.scale).astype(bank.sketches.dtype)


def _bank(seed=0, n=12, d=8, eps=0.09, delta=0.1, **kw):
    rng = np.random.default_rng(seed + 10_000)
    ps = PointSet(_unit_ball_points(rng, n, d), norm_bound=1.0)
    return ade_init(ps, eps, delta, seed=seed, **kw), ps


class TestSketchPlan:
    def test_width_formula(self):
        """k = ceil(c_k / eps^2) at the default constant."""
        plan = SketchPlan.derive(2, 4, epsilon=0.05, delta=0.1)
        assert plan.k == math.ceil(DEFAULT_C_K / 0.05**2) == 6400

    def test_group_count_formula_and_parity(self):
        for n, delta in [(2, 0.5), (100, 0.1), (10_000, 0.01), (1, 0.9)]:
            plan = SketchPlan.derive(n, 4, epsilon=0.09, delta=delta)
            raw = max(1, math.ceil(DEFAULT_C_M * math.log(n / delta)))
            assert plan.m in (raw, raw + 1)
            assert plan.m % 2 == 1

    def test_constants_are_tunable(self):
        plan = SketchPlan.derive(8, 4, epsilon=0.09, delta=0.1, c_k=4.0, c_m=1.0)
        assert plan.k == math.ceil(4.0 / 0.09**2)

    def test_epsilon_domain(self):
        for bad in [0.0, -0.1, 0.1, 0.5]:
            with pytest.raises(ParameterError):
                SketchPlan.derive(4, 4, epsilon=bad, delta=0.1)

    def test_delta_domain(self):
        for bad in [0.0, 1.0, -0.2]:
            with pytest.raises(ParameterError):
                SketchPlan.derive(4, 4, epsilon=0.05, delta=bad)

    def test_constants_domain(self):
        with pytest.raises(ParameterError):
            SketchPlan.derive(4, 4, epsilon=0.05, delta=0.1, c_k=0.0)
        with pytest.raises(ParameterError):
            SketchPlan.derive(4, 4, epsilon=0.05, delta=0.1, c_m=-1.0)


class TestSketchMap:
    def test_projection_entries(self):
        """Projection entries are exactly +-1/sqrt(k)."""
        bank, _ = _bank(c_k=4.0, c_m=1.0)
        mag = 1.0 / math.sqrt(bank.plan.k)
        vals = np.unique(bank.proj)
        np.testing.assert_array_equal(vals, [-mag, mag])

    def test_zero_vector_sketches_to_zero(self):
        bank, _ = _bank(c_k=4.0, c_m=1.0)
        np.testing.assert_array_equal(bank._sketch(np.zeros(bank.plan.d)), 0.0)

    def test_linearity(self):
        """sketch(a + b) = sketch(a) + sketch(b) up to rounding."""
        bank, _ = _bank(c_k=4.0, c_m=1.0)
        rng = np.random.default_rng(5)
        a = rng.standard_normal(bank.plan.d)
        b = rng.standard_normal(bank.plan.d)
        np.testing.assert_allclose(
            bank._sketch(a + b), bank._sketch(a) + bank._sketch(b), atol=1e-9
        )

    def test_power_of_two_scale_is_exact(self):
        """Scaling a vector by 2 scales its sketch by exactly 2."""
        bank, _ = _bank(c_k=4.0, c_m=1.0)
        rng = np.random.default_rng(6)
        v = rng.standard_normal(bank.plan.d)
        np.testing.assert_array_equal(bank._sketch(2.0 * v), 2.0 * bank._sketch(v))


class TestStorage:
    def test_bank_is_float32(self):
        """The bank stores n m k float32 values; the projection stays float64."""
        bank, ps = _bank(n=11, c_k=4.0, c_m=1.0)
        m, k = bank.plan.m, bank.plan.k
        assert bank.sketches.dtype == np.float32
        assert bank.sketches.shape == (ps.n, m, k)
        assert bank.sketches.nbytes == ps.n * m * k * 4
        assert bank.proj.dtype == np.float64


class TestRange:
    def test_scale_is_the_nearest_power_of_two(self):
        rng = np.random.default_rng(12)
        pts = _unit_ball_points(rng, 5, 4) * 0.25
        for bound, scale in [(1.0, 1.0), (1.0 + 1e-9, 1.0), (3.0, 4.0),
                             (0.3, 0.25), (2.0**100, 2.0**100)]:
            bank = ade_init(PointSet(pts, norm_bound=bound), 0.09, 0.1, seed=0,
                            c_k=4.0, c_m=1.0)
            assert bank.scale == scale

    def test_large_norms_scale_exactly(self):
        """Points, updates and queries near 2^100 give the unit-scale bank's
        sketches and estimates times 2^100, bit for bit, where a float32
        squared norm at that scale would overflow to inf."""
        small, ps = _bank(n=10, c_k=4.0, c_m=1.0)
        big = ade_init(PointSet(ps.points * 2.0**100, norm_bound=2.0**100),
                       0.09, 0.1, seed=0, c_k=4.0, c_m=1.0)
        rng = np.random.default_rng(13)
        z = _unit_ball_points(rng, 1, ps.dim)[0]
        ade_update(small, 3, z)
        ade_update(big, 3, z * 2.0**100)
        assert big.sketches.tobytes() == small.sketches.tobytes()
        for q in [ps.points[2], rng.standard_normal(ps.dim)]:
            est = ade_query(big, q * 2.0**100)
            assert np.all(np.isfinite(est))
            assert np.array_equal(est, ade_query(small, q) * 2.0**100)
        assert ade_query(big, ps.points[2] * 2.0**100)[2] == 0.0

    def test_out_of_range_vectors_rejected(self):
        """Norms up to 2^40 times the scale are sketched and stay finite;
        larger ones raise ParameterError in ade_query and ade_update."""
        bank, ps = _bank(c_k=4.0, c_m=1.0)
        unit = np.ones(ps.dim) / math.sqrt(ps.dim)
        est = ade_query(bank, unit * 2.0**40)
        assert np.all(np.isfinite(est))
        ade_update(bank, 0, unit * 2.0**40)
        assert np.all(np.isfinite(ade_query(bank, -unit * 2.0**40)))
        with pytest.raises(ParameterError):
            ade_query(bank, unit * 2.0**41)
        with pytest.raises(ParameterError):
            ade_update(bank, 1, unit * 2.0**41)

    def test_near_duplicate_error_is_additive(self):
        """The float32 bank moves an estimate from its float64 value by at
        most 2^-24 (||q|| + ||x||) plus k 2^-24 relative; the (1 +- eps)
        band holds for distances far above that additive term."""
        bank, ps = _bank(n=4, eps=0.09)
        rng = np.random.default_rng(14)
        x = ps.points[1]
        u = rng.standard_normal(ps.dim)
        u /= np.linalg.norm(u)
        for dist in [1e-1, 1e-3, 1e-5, 1e-7, 1e-9]:
            q = x + dist * u
            est = ade_query(bank, q)[1]
            diff = bank._sketch(q) - bank._sketch(x)
            ref = np.median(np.linalg.norm(diff, axis=1))
            add = 2.0**-24 * (np.linalg.norm(q) + np.linalg.norm(x))
            assert abs(est - ref) <= add + bank.plan.k * 2.0**-24 * ref
            if dist >= 1e-5:
                assert abs(est - dist) <= bank.plan.epsilon * dist


class TestQuery:
    def test_exact_zero_on_stored_point(self):
        """A query equal to a stored point reports distance exactly 0."""
        bank, ps = _bank(n=15, c_k=4.0, c_m=1.0)
        for i in range(ps.n):
            est = ade_query(bank, ps.points[i])
            assert est[i] == 0.0

    def test_output_shape(self):
        bank, ps = _bank(n=9, c_k=4.0, c_m=1.0)
        est = ade_query(bank, np.zeros(ps.dim))
        assert est.shape == (9,)
        assert est.dtype == np.float64

    def test_median_is_a_group_value(self):
        """With an odd group count the median equals one group's norm."""
        bank, ps = _bank(c_k=4.0, c_m=1.0)
        rng = np.random.default_rng(7)
        q = rng.standard_normal(ps.dim) * 0.1
        q_sk = _as_stored(bank, q)
        diff = bank.sketches - q_sk[np.newaxis]
        per_group = np.sqrt(np.einsum("nmk,nmk->nm", diff, diff)) * bank.scale
        est = ade_query(bank, q)
        for i in range(ps.n):
            assert est[i] in per_group[i]

    @pytest.mark.parametrize("n,c_k,c_m,shape", [
        (12, 4.0, 1.0, "n below one block"),
        (30, 4.0, 1.0, "ragged last block"),
        (12, DEFAULT_C_K, DEFAULT_C_M, "one-row blocks"),
    ])
    def test_blocked_reduction_is_bitwise_the_full_formula(self, n, c_k, c_m,
                                                           shape):
        bank, ps = _bank(n=n, c_k=c_k, c_m=c_m)
        row_bytes = bank.plan.m * bank.plan.k * bank.sketches.itemsize
        rows = _CHUNK_BYTES // row_bytes
        covered = {"n below one block": rows > n,
                   "ragged last block": 1 <= rows < n and n % rows != 0,
                   "one-row blocks": row_bytes > _CHUNK_BYTES}
        assert covered[shape]
        rng = np.random.default_rng(11)
        queries = [rng.standard_normal(ps.dim) * 0.3 for _ in range(4)]
        for i, x in enumerate(list(ps.points[:3]) + queries):
            est = ade_query(bank, x)
            assert np.array_equal(est, _reference_query(bank, x))
            if i < 3:
                assert est[i] == 0.0

    def test_query_memory_is_one_block(self):
        """One query never holds the bank-sized difference tensor."""
        bank, ps = _bank(n=200, c_k=4.0, c_m=1.0)
        assert bank.sketches.nbytes >= 8 * _CHUNK_BYTES
        q = np.full(ps.dim, 0.1)
        tracemalloc.start()
        try:
            ade_query(bank, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bank.sketches.nbytes / 2

    def test_wrong_dimension_rejected(self):
        bank, ps = _bank(c_k=4.0, c_m=1.0)
        with pytest.raises(DimensionMismatch):
            ade_query(bank, np.zeros(ps.dim + 1))

    def test_accuracy_fraction_of_seeds(self):
        """Fraction of seeds with any estimate outside (1 +- eps) stays <= 2*delta."""
        rng = np.random.default_rng(0)
        n, d, eps, delta = 20, 16, 0.09, 0.1
        trials, bad = 120, 0
        for seed in range(trials):
            pts = _unit_ball_points(rng, n, d)
            bank = ade_init(
                PointSet(pts), eps, delta, seed=seed, c_k=4.0, c_m=1.0
            )
            q = _unit_ball_points(rng, 1, d)[0]
            est = ade_query(bank, q)
            true = np.linalg.norm(pts - q, axis=1)
            lo = (1 - eps) * true - 1e-12
            hi = (1 + eps) * true + 1e-12
            if not np.all((est >= lo) & (est <= hi)):
                bad += 1
        assert bad / trials <= 2 * delta


class TestUpdate:
    def test_update_then_rebuild_bitwise(self):
        """Updating one point matches a fresh build on the edited set."""
        bank, ps = _bank(n=10, seed=3, c_k=4.0, c_m=1.0)
        rng = np.random.default_rng(8)
        z = _unit_ball_points(rng, 1, ps.dim)[0]
        ade_update(bank, 4, z)
        edited = ps.points.copy()
        edited[4] = z
        fresh = ade_init(
            PointSet(edited), bank.plan.epsilon, bank.plan.delta, seed=3,
            c_k=4.0, c_m=1.0,
        )
        np.testing.assert_array_equal(bank.sketches, fresh.sketches)
        np.testing.assert_array_equal(bank.proj, fresh.proj)
        assert bank.sketches[4].tobytes() == _as_stored(bank, z).tobytes()

    def test_update_to_self_is_identity(self):
        bank, ps = _bank(n=10, c_k=4.0, c_m=1.0)
        before = bank.sketches.copy()
        ade_update(bank, 2, ps.points[2])
        np.testing.assert_array_equal(bank.sketches, before)

    def test_update_bounds_checked(self):
        bank, _ = _bank(c_k=4.0, c_m=1.0)
        with pytest.raises(IndexError):
            ade_update(bank, bank.n, np.zeros(bank.plan.d))

    def test_updated_point_queries_to_zero(self):
        bank, ps = _bank(n=10, c_k=4.0, c_m=1.0)
        rng = np.random.default_rng(9)
        z = _unit_ball_points(rng, 1, ps.dim)[0]
        ade_update(bank, 0, z)
        assert ade_query(bank, z)[0] == 0.0


class TestDeterminism:
    def test_same_seed_same_bank(self):
        a, _ = _bank(seed=17, c_k=4.0, c_m=1.0)
        b, _ = _bank(seed=17, c_k=4.0, c_m=1.0)
        np.testing.assert_array_equal(a.proj, b.proj)
        np.testing.assert_array_equal(a.sketches, b.sketches)

    def test_different_seeds_differ(self):
        a, _ = _bank(seed=0, c_k=4.0, c_m=1.0)
        b, _ = _bank(seed=1, c_k=4.0, c_m=1.0)
        assert not np.array_equal(a.proj, b.proj)
