"""Tests for inner-product estimation via the padding reduction.

Stored points are scaled into the unit ball and data-padded; queries are
query-padded at scale 1.  The exact identity

    ||query_pad(q) - data_pad(x/D)||^2 = 2 - (2/D) <x, q>

makes the conversion w~ = D - (D/2) d~^2 an unbiased decoding of exact
distances, and a multiplicative (1 +- eps0) distance error with
eps0 = 2 eps / (3 D) lands the decoded value within +-eps of <x, q>.
The inequality chains behind that constant are checked symbolically here,
including the exact-equality boundary case.
"""

import numpy as np
import pytest

from sketchmatch.ade import ade_query
from sketchmatch.core import NormBoundError, ParameterError, PointSet, transform_data
from sketchmatch.ipe import ipe_init, ipe_query, ipe_update


def _scaled_ball(rng, n, d, radius):
    pts = rng.standard_normal((n, d))
    return pts / np.maximum(1.0, np.linalg.norm(pts, axis=1, keepdims=True) / radius)


def _state(seed=0, n=12, d=8, eps=0.12, delta=0.1, D=1.0, **kw):
    rng = np.random.default_rng(seed + 20_000)
    pts = PointSet(_scaled_ball(rng, n, d, D), norm_bound=D)
    kw.setdefault("c_k", 4.0)
    kw.setdefault("c_m", 1.0)
    return ipe_init(pts, eps, delta, seed=seed, **kw), pts


class TestPrecisionBudget:
    def test_epsilon0_formula(self):
        """eps0 = 2*eps/(3*D) exactly."""
        st, _ = _state(eps=0.06, D=1.0)
        assert st.epsilon0 == 2.0 * 0.06 / 3.0
        st2, _ = _state(eps=0.06, D=2.0)
        assert st2.epsilon0 == 2.0 * 0.06 / (3.0 * 2.0)

    def test_budget_out_of_range_rejected(self):
        """eps0 >= 0.1 is outside the sketch layer's domain."""
        with pytest.raises(ParameterError):
            _state(eps=0.16, D=1.0)
        with pytest.raises(ParameterError):
            _state(eps=0.2, D=1.0)
        # The same eps becomes feasible under a larger norm bound.
        st, _ = _state(eps=0.2, D=2.0)
        assert st.epsilon0 < 0.1

    def test_epsilon_domain(self):
        with pytest.raises(ParameterError):
            _state(eps=0.0)
        with pytest.raises(ParameterError):
            _state(eps=1.0)

    def test_error_budget_chains(self):
        """The scalar inequalities that size eps0.

        For eps0 = 2*eps/(3*D) and any D > 0:
            (D/2)(2*eps0 - eps0^2) <= D*eps0       <= eps
            (D/2)(2*eps0 + eps0^2) <= (3/2)*D*eps0 == eps
        The second right-hand side is an exact equality, which is what makes
        this choice of eps0 the largest feasible one.
        """
        for D in [0.25, 0.5, 1.0, 2.0, 4.0, 10.0]:
            for eps in [0.01, 0.05, 0.1, 0.12, 0.149]:
                eps0 = 2.0 * eps / (3.0 * D)
                if eps0 >= 0.1:
                    continue
                assert (D / 2.0) * (2.0 * eps0 - eps0**2) <= D * eps0 + 1e-15
                assert D * eps0 <= eps + 1e-15
                assert (D / 2.0) * (2.0 * eps0 + eps0**2) <= 1.5 * D * eps0 + 1e-15
                assert abs(1.5 * D * eps0 - eps) < 1e-15


class TestTransformedGeometry:
    def test_stored_embeddings_are_unit(self):
        st, pts = _state(D=2.0, eps=0.2)
        for i, x in enumerate(pts.points):
            t = transform_data(x / 2.0)
            assert abs(float(np.linalg.norm(t)) - 1.0) <= 1e-9
            bank = st.bank
            stored = (bank._sketch(t) / bank.scale).astype(bank.sketches.dtype)
            assert bank.sketches[i].tobytes() == stored.tobytes()

    def test_conversion_decodes_exact_distances(self):
        """D - (D/2) d^2 recovers <x, q> when d is the true padded distance."""
        rng = np.random.default_rng(31)
        D = 2.5
        for _ in range(200):
            d = 8
            x = _scaled_ball(rng, 1, d, D)[0]
            q = _scaled_ball(rng, 1, d, 1.0)[0]
            from sketchmatch.core import transform_data, transform_query

            dist_sq = float(
                np.sum((transform_query(q, 1.0) - transform_data(x / D)) ** 2)
            )
            decoded = D - (D / 2.0) * dist_sq
            assert abs(decoded - float(x @ q)) < 1e-9


class TestQuery:
    def test_identical_direction_is_exact(self):
        """Stored D*e1 queried with e1 estimates exactly D."""
        D = 2.0
        d = 6
        pts = np.zeros((3, d))
        pts[0, 0] = D
        pts[1, 1] = 0.5
        pts[2, 2] = -1.0
        st = ipe_init(PointSet(pts, norm_bound=D), 0.2, 0.1, seed=0, c_k=4.0, c_m=1.0)
        q = np.zeros(d)
        q[0] = 1.0
        assert ipe_query(st, q)[0] == D

    def test_orthogonal_estimate_near_zero(self):
        D, d = 1.0, 8
        pts = np.zeros((1, d))
        pts[0, 0] = D
        st = ipe_init(PointSet(pts, norm_bound=D), 0.12, 0.1, seed=5, c_k=4.0, c_m=1.0)
        q = np.zeros(d)
        q[1] = 1.0
        assert abs(ipe_query(st, q)[0]) <= 0.12 + 1e-9

    def test_zero_query(self):
        st, pts = _state(seed=2)
        est = ipe_query(st, np.zeros(pts.dim))
        np.testing.assert_allclose(est, 0.0, atol=0.12 + 1e-9)

    def test_additive_band_fraction_of_seeds(self):
        """Fraction of seeds with any |w~ - <x,q>| > eps stays <= 2*delta."""
        rng = np.random.default_rng(1)
        n, d, eps, delta, D = 20, 16, 0.12, 0.1, 1.0
        trials, bad = 120, 0
        for seed in range(trials):
            pts = _scaled_ball(rng, n, d, D)
            st = ipe_init(
                PointSet(pts, norm_bound=D), eps, delta, seed=seed, c_k=4.0, c_m=1.0
            )
            q = _scaled_ball(rng, 1, d, 1.0)[0]
            est = ipe_query(st, q)
            if np.any(np.abs(est - pts @ q) > eps + 1e-12):
                bad += 1
        assert bad / trials <= 2 * delta

    def test_query_slack_renormalized_vs_rejected(self):
        st, pts = _state()
        q = np.zeros(pts.dim)
        q[0] = 1.0 + 5e-10  # within slack: accepted and renormalized
        ipe_query(st, q)
        q[0] = 1.01
        with pytest.raises(NormBoundError):
            ipe_query(st, q)


class TestUpdate:
    def test_update_then_rebuild_bitwise(self):
        st, pts = _state(n=10, seed=4)
        rng = np.random.default_rng(32)
        z = _scaled_ball(rng, 1, pts.dim, pts.norm_bound)[0]
        ipe_update(st, 3, z)
        edited = pts.points.copy()
        edited[3] = z
        fresh = ipe_init(
            PointSet(edited, norm_bound=pts.norm_bound),
            st.epsilon,
            st.delta,
            seed=4,
            c_k=4.0,
            c_m=1.0,
        )
        np.testing.assert_array_equal(st.bank.sketches, fresh.bank.sketches)
        np.testing.assert_array_equal(st.bank.proj, fresh.bank.proj)
        t = transform_data(z / pts.norm_bound)
        bank = st.bank
        stored = (bank._sketch(t) / bank.scale).astype(bank.sketches.dtype)
        assert bank.sketches[3].tobytes() == stored.tobytes()

    def test_updated_point_queries_to_zero(self):
        """The updated row's embedding, queried against the bank, sits at
        distance exactly 0 from it."""
        st, pts = _state(n=10, seed=6)
        rng = np.random.default_rng(34)
        z = _scaled_ball(rng, 1, pts.dim, pts.norm_bound)[0]
        ipe_update(st, 5, z)
        est = ade_query(st.bank, transform_data(z / pts.norm_bound))
        assert est[5] == 0.0

    def test_update_to_self_is_identity(self):
        st, pts = _state(n=10)
        before = st.bank.sketches.copy()
        ipe_update(st, 1, pts.points[1])
        np.testing.assert_array_equal(st.bank.sketches, before)

    def test_update_norm_checked(self):
        st, pts = _state(D=1.0)
        big = np.zeros(pts.dim)
        big[0] = 1.5
        with pytest.raises(NormBoundError):
            ipe_update(st, 0, big)

    def test_update_bounds_checked(self):
        st, pts = _state()
        with pytest.raises(IndexError):
            ipe_update(st, st.n, np.zeros(pts.dim))


class TestDeterminism:
    def test_same_seed_same_estimates(self):
        rng = np.random.default_rng(33)
        q = _scaled_ball(rng, 1, 8, 1.0)[0]
        a, _ = _state(seed=9)
        b, _ = _state(seed=9)
        np.testing.assert_array_equal(ipe_query(a, q), ipe_query(b, q))
