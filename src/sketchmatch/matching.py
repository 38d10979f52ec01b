"""Online weighted matchers built on greedy increment maximization.

Offline points x_1..x_n are known upfront; online points arrive one at a
time and are assigned irrevocably.  Each offline point accumulates the best
weight among online points assigned to it, and the matching value is the sum
of those per-offline maxima.  Assigning arrival y greedily to

    i0 = argmax_i (estimated w(x_i, y) - w_i)

and advancing both w_{i0} and the running total s by max{0, estimate - w_{i0}}
is 1/2-competitive when estimates are exact, and degrades gracefully under
estimate error: multiplicatively (1 +- eps) accurate estimates keep the
realized value above (1 - 2 eps)/2 * opt, additively (+- eps) accurate ones
above opt/2 - 1.5 m eps for m arrivals.

Every matcher runs that one update and differs only in where the chosen
index and its estimate come from: exact scans (GreedyExact, optionally
perturbed through an IncrementOracle), sketched distances
(DistanceMatching), sketched inner products (InnerProductMatching), and
hashed Max-IP search over increment-augmented vectors
(FasterInnerProductMatching).  The last one hashes X_i = (x_i, w_i) against
Y = (y, -1) so that <X_i, Y> is exactly the increment; both sides are scaled
into the unit ball (data by sqrt(2) D, query by sqrt(2)), which turns an
increment threshold tau into a transformed-space threshold tau / (2 D).  It
also re-hashes X_i whenever an arrival raises w_i.

Per-offline value floors at zero: an assignment with negative weight never
counts against the matching, mirroring the option to leave a point unmatched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import ade, ipe, maxip
from .core import (
    ParameterError,
    PointSet,
    SeededRng,
    as_vector,
    child_seed,
    distance,
    transform_data,
    transform_query,
)

MATCHER_KINDS = (
    "GreedyExact-IP",
    "GreedyExact-Dist",
    "DistanceMatching",
    "InnerProductMatching",
    "FasterInnerProductMatching",
)

_FLAG_TOL = 1e-9


@dataclass
class MatchState:
    """Bookkeeping of the one update every matcher variant runs.

    tracked_value is the matcher's own running total s (a float) and equals
    sum(accumulated) after every update; accumulated[i] is the believed
    value of offline point i and never decreases.  assignments[i] stores
    the actual online vectors routed to offline point i, so the realized
    (true-weight) value can be recomputed after the fact.
    """

    offline: PointSet
    accumulated: np.ndarray
    assignments: list[list[np.ndarray]]
    tracked_value: float = 0.0
    online_count: int = 0
    flags: list[int] = field(default_factory=list)

    @property
    def flagged(self) -> bool:
        return bool(self.flags)


@dataclass
class IncrementOracle:
    """Weight-estimate source with a declared error mode.

    mode "exact" returns weights untouched; "multiplicative" returns
    w * (1 +- eps) and "additive" returns w +- eps, the sign drawn fresh per
    estimate so the noise sits at the full allowed magnitude.
    """

    mode: str
    epsilon: float = 0.0
    rng: SeededRng | None = None

    def estimate(self, true_w: np.ndarray) -> np.ndarray:
        w = np.asarray(true_w, dtype=np.float64)
        if self.mode == "exact":
            return w.copy()
        if self.rng is None:
            raise ParameterError("noisy oracle needs a seeded rng")
        signs = self.rng.gen.integers(0, 2, size=w.shape) * 2.0 - 1.0
        if self.mode == "multiplicative":
            return w * (1.0 + self.epsilon * signs)
        if self.mode == "additive":
            return w + self.epsilon * signs
        raise ParameterError(f"oracle mode {self.mode!r} has no estimator")


def inject_noise_oracle(mode: str, epsilon: float, seed) -> IncrementOracle:
    """Full-magnitude noise wrapper: w(1 +- eps) or w +- eps, seeded signs."""
    if mode not in ("multiplicative", "additive"):
        raise ParameterError("mode must be 'multiplicative' or 'additive'")
    if not 0.0 <= epsilon < 1.0:
        raise ParameterError("epsilon must lie in [0, 1)")
    return IncrementOracle(mode=mode, epsilon=epsilon, rng=SeededRng(seed))


class _MatcherBase:
    """The one update skeleton; subclasses supply the choice of index.

    weight names the true weight in realized_value's vocabulary
    ("inner-product" or "distance"); the per-step check scans it exactly.
    """

    kind: str = ""
    weight: str = "inner-product"

    def __init__(self, offline: PointSet, epsilon: float, tau: float,
                 delta: float, seed, instrument: bool = False) -> None:
        self.offline = offline
        self.epsilon = float(epsilon)
        self.tau = float(tau)
        self.delta = float(delta)
        self.instrument = bool(instrument)
        self.state = MatchState(
            offline=offline,
            accumulated=np.zeros(offline.n),
            assignments=[[] for _ in range(offline.n)],
        )

    # subclasses: return (chosen index, estimated new value at that index)
    def _choose(self, y: np.ndarray) -> tuple[int, float]:
        raise NotImplementedError

    # subclasses: react to a positive gain just credited to offline point i0
    def _accept(self, i0: int) -> None:
        pass

    def _exact_weights(self, y: np.ndarray) -> np.ndarray:
        if self.weight == "inner-product":
            return self.offline.points @ y
        d = self.offline.points - y
        return np.sqrt(np.einsum("nd,nd->n", d, d))

    def update(self, y) -> int:
        y = as_vector(y, dim=self.offline.dim)
        st = self.state
        if self.instrument:
            before = st.accumulated.copy()
        i0, est_new = self._choose(y)
        gain = max(0.0, est_new - float(st.accumulated[i0]))
        st.assignments[i0].append(y)
        if gain > 0.0:
            st.accumulated[i0] += gain
            st.tracked_value += gain
            self._accept(i0)
        if self.instrument:
            self._assert_step(y, i0, before)
        st.online_count += 1
        return i0

    def query(self) -> float:
        return self.state.tracked_value

    def _assert_step(self, y: np.ndarray, i0: int, before: np.ndarray) -> None:
        # Per-step greedy robustness condition on true clamped increments:
        # the credited index must gain at least (1 - eps) of the best
        # available increment, or come within tau of it.  A miss marks the
        # step (whp contract of the backing estimator violated); the run
        # continues regardless.
        inc = np.maximum(0.0, self._exact_weights(y) - before)
        best = float(inc.max())
        got = float(inc[i0])
        if got >= (1.0 - self.epsilon) * best - _FLAG_TOL:
            return
        if got >= best - self.tau - _FLAG_TOL:
            return
        self.state.flags.append(self.state.online_count)


class GreedyExact(_MatcherBase):
    """Exact linear-scan greedy; weights are inner products or distances.

    An IncrementOracle may perturb the scanned weights, which is how the
    noise-robustness guarantees are exercised: the matcher then maximizes
    the clamped estimated increment, exactly the quantity its bound needs.
    """

    def __init__(self, offline: PointSet, weight: str = "ip",
                 oracle: IncrementOracle | None = None,
                 epsilon: float = 0.0, tau: float = 0.0,
                 instrument: bool = False, seed=0) -> None:
        if weight not in ("ip", "dist"):
            raise ParameterError("weight must be 'ip' or 'dist'")
        eps = oracle.epsilon if oracle is not None else epsilon
        super().__init__(offline, eps, tau, 0.0, seed, instrument)
        self.kind = "GreedyExact-IP" if weight == "ip" else "GreedyExact-Dist"
        self.weight = "inner-product" if weight == "ip" else "distance"
        self.oracle = oracle if oracle is not None else IncrementOracle("exact")

    def _choose(self, y: np.ndarray) -> tuple[int, float]:
        est = self.oracle.estimate(self._exact_weights(y))
        inc = np.maximum(0.0, est - self.state.accumulated)
        i0 = int(np.argmax(inc))
        return i0, float(est[i0])


class DistanceMatching(_MatcherBase):
    """Distance-weight matcher answering scans from a sketch bank.

    Estimated distances are multiplicatively (1 +- eps) accurate per query
    with the sketch bank's failure budget set to delta / n, so a whole run
    of up to n arrivals stays inside delta.
    """

    kind = "DistanceMatching"
    weight = "distance"

    def __init__(self, offline: PointSet, epsilon: float, delta: float, seed,
                 instrument: bool = False,
                 c_k: float = ade.DEFAULT_C_K, c_m: float = ade.DEFAULT_C_M) -> None:
        super().__init__(offline, epsilon, 0.0, delta, seed, instrument)
        self.bank = ade.ade_init(offline, epsilon, delta / offline.n,
                                 child_seed(seed, 0), c_k=c_k, c_m=c_m)

    def _choose(self, y: np.ndarray) -> tuple[int, float]:
        est = ade.ade_query(self.bank, y)
        i0 = int(np.argmax(est - self.state.accumulated))
        return i0, float(est[i0])


class InnerProductMatching(_MatcherBase):
    """Inner-product matcher answering scans from a padded sketch bank.

    Estimates carry additive +-eps error per query (budget delta / n), so
    the realized value obeys the additive greedy bound opt/2 - 1.5 m eps.
    """

    kind = "InnerProductMatching"

    def __init__(self, offline: PointSet, epsilon: float, delta: float, seed,
                 instrument: bool = False,
                 c_k: float = ade.DEFAULT_C_K, c_m: float = ade.DEFAULT_C_M) -> None:
        super().__init__(offline, epsilon, 0.0, delta, seed, instrument)
        self.est = ipe.ipe_init(offline, epsilon, delta / offline.n,
                                child_seed(seed, 0), c_k=c_k, c_m=c_m)

    def _choose(self, y: np.ndarray) -> tuple[int, float]:
        est = ipe.ipe_query(self.est, y)
        i0 = int(np.argmax(est - self.state.accumulated))
        return i0, float(est[i0])


class FasterInnerProductMatching(_MatcherBase):
    """Sublinear matcher: each arrival is one hashed Max-IP probe.

    Offline point i is stored augmented as X_i = (x_i, w_i) scaled by
    1 / (sqrt(2) D); the arrival probes with (y, -1) scaled by 1 / sqrt(2),
    so transformed inner products equal (w(x_i, y) - w_i) / (2 D) and the
    increment threshold tau becomes tau / (2 D).  A Found result names an
    index whose exact recomputed increment is at least (1 - eps) tau; on
    Fail a uniformly random index is taken.  Either way the estimate is the
    exact weight at the chosen index, so a positive gain is the true
    increment; accepting it re-hashes the augmented point with the new w_i.
    """

    kind = "FasterInnerProductMatching"

    def __init__(self, offline: PointSet, epsilon: float, tau: float,
                 delta: float, seed, instrument: bool = False,
                 max_tables: int = maxip.DEFAULT_MAX_TABLES) -> None:
        if not 0.0 < epsilon < 1.0:
            raise ParameterError("epsilon must lie in (0, 1)")
        D = offline.norm_bound
        if not 0.0 < tau < 2.0 * D:
            raise ParameterError("tau must lie in (0, 2 D)")
        super().__init__(offline, epsilon, tau, delta, seed, instrument)
        self.scale = math.sqrt(2.0) * D
        transformed = np.stack([
            transform_data(self._augment(x, 0.0)) for x in offline.points
        ])
        self.index = maxip.maxip_init(
            transformed, c=1.0 - epsilon, tau=tau / (2.0 * D),
            delta=delta / offline.n, seed=child_seed(seed, 0),
            max_tables=max_tables,
        )
        self.rng = SeededRng(child_seed(seed, 1))

    def _augment(self, x: np.ndarray, w: float) -> np.ndarray:
        return np.concatenate([x, [w]]) / self.scale

    def _choose(self, y: np.ndarray) -> tuple[int, float]:
        q = transform_query(np.concatenate([y, [-1.0]]), scale=math.sqrt(2.0))
        res = maxip.maxip_query(self.index, q)
        if res.found:
            i0 = res.index
        else:
            i0 = int(self.rng.gen.integers(0, self.offline.n))
        return i0, float(self.offline.points[i0] @ y)

    def _accept(self, i0: int) -> None:
        maxip.maxip_update(
            self.index, i0,
            transform_data(self._augment(self.offline.points[i0],
                                         self.state.accumulated[i0])))


def match_init(kind: str, offline: PointSet, epsilon: float = 0.1,
               tau: float = 0.1, delta: float = 0.1, seed=0,
               oracle: IncrementOracle | None = None,
               instrument: bool = False, **kwargs) -> _MatcherBase:
    """Build a matcher of the named kind over the offline point set.

    Estimator-backed kinds hand their backing structure a failure budget of
    delta / n.  All accumulated weights and the tracked total start at zero.
    """
    if kind == "GreedyExact-IP":
        return GreedyExact(offline, "ip", oracle=oracle, seed=seed,
                           instrument=instrument, **kwargs)
    if kind == "GreedyExact-Dist":
        return GreedyExact(offline, "dist", oracle=oracle, seed=seed,
                           instrument=instrument, **kwargs)
    if kind == "DistanceMatching":
        return DistanceMatching(offline, epsilon, delta, seed,
                                instrument=instrument, **kwargs)
    if kind == "InnerProductMatching":
        return InnerProductMatching(offline, epsilon, delta, seed,
                                    instrument=instrument, **kwargs)
    if kind == "FasterInnerProductMatching":
        return FasterInnerProductMatching(offline, epsilon, tau, delta, seed,
                                          instrument=instrument, **kwargs)
    raise ParameterError(f"unknown matcher kind {kind!r}")


def match_update(matcher: _MatcherBase, y) -> int:
    """Assign one arriving online point; returns the chosen offline index."""
    return matcher.update(y)


def match_query(matcher: _MatcherBase) -> float:
    """The matcher's running total s, in constant time."""
    return matcher.query()


def realized_value(state_or_matcher, weight_fn: str = "inner-product") -> float:
    """Exact matching value of the recorded assignments.

    Sums, over offline points, the best true weight among assigned online
    points (floored at zero; empty lists contribute zero).  This is the
    quantity the competitive-ratio guarantees bound; the tracked s is only
    the matcher's belief.
    """
    state = getattr(state_or_matcher, "state", state_or_matcher)
    if weight_fn == "inner-product":
        wfn = lambda x, y: float(x @ y)
    elif weight_fn == "distance":
        wfn = distance
    else:
        raise ParameterError("weight_fn must be 'inner-product' or 'distance'")
    total = 0.0
    for x, assigned in zip(state.offline.points, state.assignments):
        best = 0.0
        for y in assigned:
            best = max(best, wfn(x, y))
        total += best
    return total
