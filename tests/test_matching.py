"""Tests for the online matchers.

All variants share one skeleton: keep per-offline accumulated weights w_i
and a running total s, route each arrival to the index maximizing the
estimated increment, and advance both by the clamped gain max{0, est - w}.
The accounting invariants (s equals the sum of the w_i after every update,
at most one w_i moves per update, exactly one assignment is appended) are
checked for every variant, the 1/2-competitive guarantee and its noisy
degradations are checked against exact offline optima, and the per-step
instrumentation is driven both by honest estimators (never flags) and an
adversarial one (must flag).
"""

import math

import numpy as np
import pytest

from sketchmatch import maxip
from sketchmatch.core import (
    ParameterError,
    PointSet,
    as_vector,
    transform_data,
    transform_query,
)
from sketchmatch.matching import (
    MATCHER_KINDS,
    FasterInnerProductMatching,
    GreedyExact,
    IncrementOracle,
    inject_noise_oracle,
    match_init,
    match_query,
    match_update,
    realized_value,
)
from sketchmatch.oracle import exhaustive_opt, matching_set_function, welfare_greedy

SMALL = dict(c_k=4.0, c_m=1.0)  # fast sketch constants for matcher tests


def _unit_ball(rng, n, d, radius=1.0):
    x = rng.standard_normal((n, d))
    return x / np.maximum(1.0, np.linalg.norm(x, axis=1, keepdims=True) / radius)


def _matcher(kind, offline, seed=0, **kw):
    if kind in ("DistanceMatching", "InnerProductMatching"):
        kw = {**SMALL, **kw}
    # distance sketches take eps directly and live in (0, 0.1)
    kw.setdefault("epsilon", 0.09 if kind == "DistanceMatching" else 0.12)
    return match_init(kind, offline, seed=seed, **kw)


class TestAccounting:
    @pytest.mark.parametrize("kind", MATCHER_KINDS)
    def test_invariants_every_step(self, kind):
        """s = sum(w), at most one w moves, exactly one assignment appended."""
        rng = np.random.default_rng(hash(kind) % 2**32)
        offline = PointSet(_unit_ball(rng, 12, 6))
        m = _matcher(kind, offline, seed=3, tau=0.3, delta=0.2)
        st = m.state
        for step in range(25):
            y = _unit_ball(rng, 1, 6)[0]
            before = st.accumulated.copy()
            count_before = sum(len(a) for a in st.assignments)
            i0 = match_update(m, y)
            assert 0 <= i0 < offline.n
            moved = np.nonzero(st.accumulated != before)[0]
            assert len(moved) <= 1
            assert np.all(st.accumulated >= before)
            assert sum(len(a) for a in st.assignments) == count_before + 1
            assert len(st.assignments[i0]) >= 1
            assert abs(st.tracked_value - st.accumulated.sum()) < 1e-9
            assert match_query(m) == st.tracked_value
            assert st.online_count == step + 1

    @pytest.mark.parametrize("kind", MATCHER_KINDS)
    def test_fresh_state(self, kind):
        rng = np.random.default_rng(0)
        offline = PointSet(_unit_ball(rng, 3, 4))
        m = _matcher(kind, offline, tau=0.3, delta=0.2)
        np.testing.assert_array_equal(m.state.accumulated, [0.0, 0.0, 0.0])
        assert match_query(m) == 0.0
        assert m.state.online_count == 0


class TestGreedyTraces:
    def test_basis_pair_hand_trace(self):
        """Offline {e1, e2}, arrivals e1 then e2: both match at weight 1."""
        offline = PointSet(np.eye(2))
        m = match_init("GreedyExact-IP", offline)
        assert match_update(m, [1.0, 0.0]) == 0
        assert match_update(m, [0.0, 1.0]) == 1
        assert match_query(m) == 2.0

    def test_tight_half_ratio_instance(self):
        """Greedy takes the blocking edge and lands at half the optimum."""
        gap = 1e-6
        offline = PointSet(np.eye(2))
        m = match_init("GreedyExact-IP", offline)
        match_update(m, [1.0, 1.0 - gap])  # greedy gives it to u1
        match_update(m, [1.0, 0.0])        # now worthless: u1 already at 1
        alg = realized_value(m)
        opt = exhaustive_opt([[1.0, 1.0], [1.0 - gap, 0.0]]).value
        ratio = alg / opt
        assert ratio >= 0.5 - 1e-9
        assert ratio <= 0.5 + 1e-3

    def test_single_offline_tracks_running_max(self):
        """n=1: s is the clamped running max of the estimated weights."""
        rng = np.random.default_rng(5)
        offline = PointSet(np.array([[1.0, 0.0]]))
        m = match_init("GreedyExact-IP", offline)
        ips = []
        for _ in range(15):
            y = _unit_ball(rng, 1, 2)[0]
            match_update(m, y)
            ips.append(float(offline.points[0] @ y))
        assert abs(match_query(m) - max(0.0, max(ips))) < 1e-12

    def test_ties_break_to_lowest_index(self):
        offline = PointSet(np.stack([np.eye(3)[0], np.eye(3)[0], np.eye(3)[1]]))
        m = match_init("GreedyExact-IP", offline)
        # arrival e1 ties offline 0 and 1 at weight 1
        assert match_update(m, [1.0, 0.0, 0.0]) == 0

    def test_argmax_invariant_under_scaling(self):
        """Scaling all weights by a power of two preserves the trace."""
        rng = np.random.default_rng(6)
        offline = PointSet(_unit_ball(rng, 8, 5))
        arrivals = rng.standard_normal((20, 5))
        for scale in [0.5, 4.0]:
            a = match_init("GreedyExact-IP", offline)
            b = match_init("GreedyExact-IP", offline)
            trace_a = [match_update(a, y) for y in arrivals]
            trace_b = [match_update(b, y * scale) for y in arrivals]
            assert trace_a == trace_b

    def test_distance_weight_variant(self):
        rng = np.random.default_rng(7)
        offline = PointSet(_unit_ball(rng, 6, 4))
        m = match_init("GreedyExact-Dist", offline)
        for y in rng.standard_normal((10, 4)):
            match_update(m, y)
        assert abs(realized_value(m, "distance") - match_query(m)) < 1e-9

    def test_matches_welfare_greedy_on_encoded_instance(self):
        """The matcher trace equals greedy welfare maximization's choices."""
        rng = np.random.default_rng(8)
        n, marr = 5, 7
        w = rng.integers(0, 9, size=(n, marr)).astype(np.float64) / 8.0
        offline = PointSet(np.eye(n))
        matcher = match_init("GreedyExact-IP", offline)
        trace = [match_update(matcher, w[:, j]) for j in range(marr)]
        f = matching_set_function(w)
        parts = [[(u, j) for u in range(n)] for j in range(marr)]
        chosen, value = welfare_greedy(f, parts)
        assert [u for (u, _) in chosen] == trace
        assert abs(value - realized_value(matcher)) < 1e-12


class TestCompetitiveRatio:
    def test_exact_greedy_half_of_optimum(self):
        """Realized value is at least half the exhaustive optimum."""
        rng = np.random.default_rng(9)
        for _ in range(60):
            n, marr, d = rng.integers(1, 7), rng.integers(1, 7), 4
            offline = PointSet(_unit_ball(rng, int(n), d))
            arrivals = _unit_ball(rng, int(marr), d)
            m = match_init("GreedyExact-IP", offline)
            for y in arrivals:
                match_update(m, y)
            w = np.maximum(0.0, offline.points @ arrivals.T)
            opt = exhaustive_opt(w).value
            if opt > 0:
                assert realized_value(m) >= 0.5 * opt - 1e-9

    def test_multiplicative_noise_ratio(self):
        """(1-2eps)/2 bound under full-magnitude multiplicative noise."""
        rng = np.random.default_rng(10)
        for eps in [0.05, 0.2]:
            for trial in range(30):
                n, marr, d = rng.integers(1, 7), rng.integers(1, 7), 4
                offline = PointSet(_unit_ball(rng, int(n), d))
                arrivals = _unit_ball(rng, int(marr), d)
                oracle = inject_noise_oracle("multiplicative", eps, seed=trial)
                m = match_init("GreedyExact-IP", offline, oracle=oracle)
                for y in arrivals:
                    match_update(m, y)
                w = np.maximum(0.0, offline.points @ arrivals.T)
                opt = exhaustive_opt(w).value
                assert realized_value(m) >= 0.5 * (1 - 2 * eps) * opt - 1e-9

    def test_additive_noise_ratio(self):
        """opt/2 - 1.5*m*eps bound under additive noise."""
        rng = np.random.default_rng(11)
        for eps in [0.01, 0.05]:
            for trial in range(30):
                n, marr, d = rng.integers(1, 7), rng.integers(1, 7), 4
                offline = PointSet(_unit_ball(rng, int(n), d))
                arrivals = _unit_ball(rng, int(marr), d)
                oracle = inject_noise_oracle("additive", eps, seed=trial)
                m = match_init("GreedyExact-IP", offline, oracle=oracle)
                for y in arrivals:
                    match_update(m, y)
                w = np.maximum(0.0, offline.points @ arrivals.T)
                opt = exhaustive_opt(w).value
                bound = 0.5 * opt - 1.5 * int(marr) * eps
                assert realized_value(m) >= bound - 1e-9

    def test_realized_tracks_s(self):
        """Exact oracle: realized = s; additive: |realized - s| <= m*eps."""
        rng = np.random.default_rng(12)
        offline = PointSet(_unit_ball(rng, 6, 4))
        arrivals = _unit_ball(rng, 10, 4)
        exact = match_init("GreedyExact-IP", offline)
        for y in arrivals:
            match_update(exact, y)
        assert abs(realized_value(exact) - match_query(exact)) < 1e-9

        eps = 0.05
        noisy = match_init(
            "GreedyExact-IP", offline, oracle=inject_noise_oracle("additive", eps, 0)
        )
        for y in arrivals:
            match_update(noisy, y)
        assert abs(realized_value(noisy) - match_query(noisy)) <= 10 * eps + 1e-9


class TestIncrementOracle:
    def test_exact_mode_identity(self):
        w = np.array([0.3, -0.2, 1.0])
        np.testing.assert_array_equal(IncrementOracle("exact").estimate(w), w)

    def test_multiplicative_full_magnitude(self):
        o = inject_noise_oracle("multiplicative", 0.1, seed=0)
        w = np.abs(np.random.default_rng(1).standard_normal(500))
        est = o.estimate(w)
        np.testing.assert_allclose(np.abs(est - w), 0.1 * w, atol=1e-15)

    def test_additive_full_magnitude(self):
        o = inject_noise_oracle("additive", 0.05, seed=0)
        w = np.random.default_rng(2).standard_normal(500)
        est = o.estimate(w)
        np.testing.assert_allclose(np.abs(est - w), 0.05, atol=1e-15)

    def test_zero_eps_is_exact(self):
        o = inject_noise_oracle("multiplicative", 0.0, seed=0)
        w = np.array([0.4, 0.7])
        np.testing.assert_array_equal(o.estimate(w), w)

    def test_zero_eps_trace_matches_exact(self):
        rng = np.random.default_rng(13)
        offline = PointSet(_unit_ball(rng, 7, 4))
        arrivals = _unit_ball(rng, 12, 4)
        a = match_init("GreedyExact-IP", offline)
        b = match_init(
            "GreedyExact-IP", offline,
            oracle=inject_noise_oracle("multiplicative", 0.0, seed=5),
        )
        assert [match_update(a, y) for y in arrivals] == [
            match_update(b, y) for y in arrivals
        ]

    def test_validation(self):
        with pytest.raises(ParameterError):
            inject_noise_oracle("gaussian", 0.1, seed=0)
        with pytest.raises(ParameterError):
            inject_noise_oracle("additive", 1.0, seed=0)
        with pytest.raises(ParameterError):
            IncrementOracle("multiplicative", 0.1).estimate(np.ones(3))


class TestInstrumentation:
    def test_exact_greedy_never_flags(self):
        rng = np.random.default_rng(14)
        offline = PointSet(_unit_ball(rng, 9, 5))
        m = match_init("GreedyExact-IP", offline, instrument=True)
        for y in _unit_ball(rng, 30, 5):
            match_update(m, y)
        assert m.state.flags == []
        assert not m.state.flagged

    def test_adversarial_estimates_flag_the_step(self):
        """An estimator that inverts the ranking must trip the per-step check."""

        class _Inverting:
            mode = "adversarial"
            epsilon = 0.5
            tau = 0.0

            def estimate(self, w):
                return np.asarray(w)[::-1].copy()

        offline = PointSet(np.eye(2))
        m = GreedyExact(offline, "ip", oracle=_Inverting(), tau=0.1, instrument=True)
        # true weights (1, 0.05); inverted estimates send the arrival to u2
        match_update(m, [1.0, 0.05])
        assert m.state.flags == [0]
        assert m.state.flagged

    def test_sketch_matchers_do_not_flag_benign_runs(self):
        rng = np.random.default_rng(15)
        offline = PointSet(_unit_ball(rng, 10, 6))
        for kind in ("DistanceMatching", "InnerProductMatching"):
            m = _matcher(kind, offline, seed=4, delta=0.1, instrument=True)
            for y in _unit_ball(rng, 15, 6):
                match_update(m, y)
            assert m.state.flags == []


class TestSketchBackedMatchers:
    def test_failure_budget_split(self):
        """Backing structures receive delta / n."""
        rng = np.random.default_rng(16)
        offline = PointSet(_unit_ball(rng, 10, 5))
        dm = _matcher("DistanceMatching", offline, delta=0.1)
        assert abs(dm.bank.plan.delta - 0.1 / 10) < 1e-15
        im = _matcher("InnerProductMatching", offline, delta=0.1)
        assert abs(im.est.delta - 0.1 / 10) < 1e-15
        fm = _matcher(
            "FasterInnerProductMatching", offline, tau=0.3, delta=0.1, epsilon=0.2
        )
        assert abs(fm.index.params.delta - 0.1 / 10) < 1e-15

    def test_distance_matcher_tracks_exact_greedy(self):
        """With tight sketches the distance matcher follows exact greedy."""
        rng = np.random.default_rng(17)
        offline = PointSet(_unit_ball(rng, 8, 6))
        arrivals = _unit_ball(rng, 12, 6)
        sketchy = match_init(
            "DistanceMatching", offline, epsilon=0.01, delta=0.1, seed=0,
        )
        exact = match_init("GreedyExact-Dist", offline)
        for y in arrivals:
            match_update(sketchy, y)
            match_update(exact, y)
        assert abs(realized_value(sketchy, "distance")
                   - realized_value(exact, "distance")) < 0.2

    def test_inner_product_matcher_value_near_exact(self):
        rng = np.random.default_rng(18)
        offline = PointSet(_unit_ball(rng, 8, 6))
        arrivals = _unit_ball(rng, 12, 6)
        sketchy = match_init(
            "InnerProductMatching", offline, epsilon=0.12, delta=0.1, seed=0, **SMALL
        )
        exact = match_init("GreedyExact-IP", offline)
        for y in arrivals:
            match_update(sketchy, y)
            match_update(exact, y)
        # additive eps error per step bounds the value gap
        gap = abs(realized_value(sketchy) - realized_value(exact))
        assert gap <= 12 * 2 * 0.12 + 1e-9


class TestFasterMatcher:
    def test_value_equals_realized(self):
        """Gains come from exact recomputed increments, so s = realized."""
        rng = np.random.default_rng(19)
        offline = PointSet(_unit_ball(rng, 20, 8))
        m = _matcher(
            "FasterInnerProductMatching", offline, seed=6,
            epsilon=0.2, tau=0.3, delta=0.2,
        )
        for y in _unit_ball(rng, 30, 8):
            match_update(m, y)
        assert abs(match_query(m) - realized_value(m)) < 1e-9

    def test_augmented_weight_can_reach_bound(self):
        """w_i = D keeps the augmented point inside the transform domain."""
        D = 2.0
        pts = np.zeros((2, 3))
        pts[0, 0] = D
        pts[1, 1] = 1.0
        offline = PointSet(pts, norm_bound=D)
        m = _matcher(
            "FasterInnerProductMatching", offline, seed=0,
            epsilon=0.2, tau=0.5, delta=0.2,
        )
        e1 = np.array([1.0, 0.0, 0.0])
        for _ in range(4):
            match_update(m, e1)  # pushes w_0 toward D = max ip
        assert m.state.accumulated[0] <= D + 1e-9
        assert match_query(m) <= realized_value(m) + 1e-9

    def test_found_steps_meet_increment_threshold(self):
        """A successful probe certifies increment >= (1-eps)*tau."""
        rng = np.random.default_rng(20)
        offline = PointSet(_unit_ball(rng, 30, 8))
        eps, tau = 0.2, 0.4
        m = _matcher(
            "FasterInnerProductMatching", offline, seed=7,
            epsilon=eps, tau=tau, delta=0.2,
        )
        from sketchmatch import maxip

        for y in _unit_ball(rng, 20, 8):
            before = m.state.accumulated.copy()
            q = np.concatenate([y, [-1.0]])
            from sketchmatch.core import transform_query

            res = maxip.maxip_query(m.index, transform_query(q, scale=math.sqrt(2)))
            i0 = match_update(m, y)
            if res.found:
                assert i0 == res.index
                true_inc = float(offline.points[i0] @ y) - before[i0]
                assert true_inc >= (1 - eps) * tau - 1e-9

    def test_tau_domain(self):
        rng = np.random.default_rng(21)
        offline = PointSet(_unit_ball(rng, 5, 4))
        with pytest.raises(ParameterError):
            _matcher("FasterInnerProductMatching", offline, tau=2.0, delta=0.2)
        with pytest.raises(ParameterError):
            _matcher("FasterInnerProductMatching", offline, tau=0.0, delta=0.2)

    def test_deterministic_trace(self):
        rng = np.random.default_rng(22)
        offline = PointSet(_unit_ball(rng, 15, 6))
        arrivals = _unit_ball(rng, 25, 6)
        traces = []
        for _ in range(2):
            m = _matcher(
                "FasterInnerProductMatching", offline, seed=9,
                epsilon=0.2, tau=0.3, delta=0.2,
            )
            traces.append([match_update(m, y) for y in arrivals])
        assert traces[0] == traces[1]


class _ReferenceFaster(FasterInnerProductMatching):
    """The hashed matcher with its former dedicated update, kept verbatim."""

    def update(self, y) -> int:
        y = as_vector(y, dim=self.offline.dim)
        st = self.state
        if self.instrument:
            before = st.accumulated.copy()
        q = transform_query(np.concatenate([y, [-1.0]]), scale=math.sqrt(2.0))
        res = maxip.maxip_query(self.index, q)
        if res.found:
            i0 = res.index
        else:
            i0 = int(self.rng.gen.integers(0, self.offline.n))
        z = float(self.offline.points[i0] @ y) - float(st.accumulated[i0])
        st.assignments[i0].append(y)
        if z > 0.0:
            st.accumulated[i0] += z
            st.tracked_value += z
            maxip.maxip_update(
                self.index, i0,
                transform_data(self._augment(self.offline.points[i0],
                                             st.accumulated[i0])))
        if self.instrument:
            self._assert_step(y, i0, before)
        st.online_count += 1
        return i0


def _clustered(rng, count, centres, spread=0.15):
    which = rng.integers(0, centres.shape[0], size=count)
    x = centres[which] + spread / math.sqrt(centres.shape[1]) * rng.standard_normal(
        (count, centres.shape[1]))
    return x / np.maximum(1.0, np.linalg.norm(x, axis=1, keepdims=True))


class TestHashedMatcherOnSharedSkeleton:
    @pytest.mark.parametrize("instrument", [False, True])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_reference_update_bitwise(self, seed, instrument):
        """The shared update reproduces the former hashed update exactly.

        Clustered arrivals first find large increments, then mostly fall
        back once their cluster's weights are filled; rebuild_factor=1 makes
        the index consolidate every few rehashes.
        """
        rng = np.random.default_rng(100 + seed)
        centres = _unit_ball(rng, 3, 8)
        centres /= np.linalg.norm(centres, axis=1, keepdims=True)
        offline = PointSet(_clustered(rng, 24, centres))
        arrivals = _clustered(rng, 240, centres)
        kw = dict(epsilon=0.2, tau=0.5, delta=0.2, seed=seed,
                  instrument=instrument)
        new = FasterInnerProductMatching(offline, **kw)
        ref = _ReferenceFaster(offline, **kw)
        new.index.rebuild_factor = ref.index.rebuild_factor = 1
        found = fallback = consolidations = 0
        for y in arrivals:
            q = transform_query(np.concatenate([y, [-1.0]]), scale=math.sqrt(2.0))
            if maxip.maxip_query(ref.index, q).found:
                found += 1
            else:
                fallback += 1
            appends = ref.index._overlay_appends
            assert match_update(new, y) == match_update(ref, y)
            consolidations += ref.index._overlay_appends < appends
        assert found and fallback and consolidations
        a, b = new.state, ref.state
        assert a.accumulated.tobytes() == b.accumulated.tobytes()
        assert type(a.tracked_value) is float and type(b.tracked_value) is float
        assert a.tracked_value == b.tracked_value
        assert a.flags == b.flags
        assert a.online_count == b.online_count
        for x, y in zip(a.assignments, b.assignments):
            assert [v.tobytes() for v in x] == [v.tobytes() for v in y]
        assert new.index.cur_sig.dtype == ref.index.cur_sig.dtype
        assert new.index.cur_sig.tobytes() == ref.index.cur_sig.tobytes()
        assert new.index.stored.tobytes() == ref.index.stored.tobytes()
        assert new.index.overlay == ref.index.overlay


class TestValidation:
    def test_unknown_kind(self):
        offline = PointSet(np.eye(2))
        with pytest.raises(ParameterError):
            match_init("TurboMatcher", offline)

    def test_bad_weight_name(self):
        with pytest.raises(ParameterError):
            GreedyExact(PointSet(np.eye(2)), weight="cosine")

    def test_realized_value_weight_fn_names(self):
        m = match_init("GreedyExact-IP", PointSet(np.eye(2)))
        with pytest.raises(ParameterError):
            realized_value(m, "manhattan")

    def test_faster_epsilon_domain(self):
        offline = PointSet(np.eye(3))
        with pytest.raises(ParameterError):
            _matcher("FasterInnerProductMatching", offline, epsilon=0.0, tau=0.3)
