"""The benchmark's own tests: generators, checks and span bookkeeping.

    python3 -m pytest perfbench -q
"""

import numpy as np
import pytest

import checks
import run
from tracing import Tracer, layer_metrics, root_ns, self_times
from workloads import WORKLOADS, make_instance


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    w = WORKLOADS[name]
    a, b = make_instance(w, 7), make_instance(w, 7)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    offline, online, _ = a
    assert offline.shape == (w.n, w.dim) and online.shape == (w.m, w.dim)
    assert np.allclose(np.linalg.norm(offline, axis=1), 1.0)
    assert not np.array_equal(offline, make_instance(w, 8)[0])


def _instance(seed=0, n=12, m=9, d=5):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    y = rng.standard_normal((m, d))
    return (x / np.linalg.norm(x, axis=1, keepdims=True),
            y / np.linalg.norm(y, axis=1, keepdims=True))


def _greedy_indices(offline, online):
    w = np.zeros(len(offline))
    out = []
    for y in online:
        inc = np.maximum(0.0, offline @ y - w)
        i = int(np.argmax(inc))
        w[i] += inc[i]
        out.append(i)
    return np.array(out)


def test_realized_value_matches_a_loop():
    offline, online = _instance()
    idx = _greedy_indices(offline, online)
    best = np.zeros(len(offline))
    for y, i in zip(online, idx):
        best[i] = max(best[i], float(offline[i] @ y))
    assert checks.realized(offline, online, idx) == pytest.approx(best.sum(), rel=1e-12)
    assert checks.realized(offline, online, idx) == pytest.approx(
        checks.exact_greedy(offline, online), rel=1e-12)


def test_check_values_rejects_a_wrong_index():
    offline, online = _instance()
    idx = _greedy_indices(offline, online)
    value = checks.realized(offline, online, idx)
    assert checks.check_values(offline, online, idx, value, value) == []
    wrong = idx.copy()
    wrong[0] = (wrong[0] + 1) % len(offline)
    assert checks.check_values(offline, online, wrong, value)
    assert checks.check_indices(wrong, len(offline), reference=idx)
    assert checks.check_indices(np.append(idx, len(offline)), len(offline))


def test_check_values_rejects_a_perturbed_value():
    offline, online = _instance()
    idx = _greedy_indices(offline, online)
    value = checks.realized(offline, online, idx)
    assert checks.check_values(offline, online, idx, value * (1 + 1e-6))
    assert checks.check_values(offline, online, idx, value, value + 1e-6)


def test_check_ratio_rejects_a_ratio_above_one():
    offline, online = _instance()
    opt = checks.optimum(offline, online)
    greedy = checks.exact_greedy(offline, online)
    assert checks.check_ratio(greedy, opt, greedy) == []
    assert checks.check_ratio(opt * 1.001, opt, greedy)
    assert checks.check_ratio(0.0, opt, greedy)
    assert checks.check_ratio(greedy, opt, opt * 0.49)


def test_optimum_is_at_least_every_assignment():
    offline, online = _instance(n=6, m=4, d=3)
    w = checks.weights(offline, online)
    rng = np.random.default_rng(1)
    opt = checks.optimum(offline, online)
    for _ in range(200):
        rows = rng.permutation(6)[:4]
        assert w[rows, np.arange(4)].sum() <= opt + 1e-12


def test_flagged_steps_and_bound():
    offline = np.eye(3)
    online = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert checks.flagged_steps(offline, online, [0, 1], eps=0.2, tau=0.5) == []
    # Taking point 2 (increment 0) when point 0 offers 1 is outside the band.
    assert checks.flagged_steps(offline, online, [2, 1], eps=0.2, tau=0.5) == [0]
    assert checks.check_hashed_bound(2.0, 2.0, 2, 0.2, 0.5, []) == ("held", [])
    status, problems = checks.check_hashed_bound(0.1, 2.0, 2, 0.2, 0.5, [])
    assert status == "missed" and problems
    assert checks.check_hashed_bound(0.1, 2.0, 2, 0.2, 0.5, [0]) == ("flagged", [])
    assert checks.check_hashed_bound(0.1, 2.0, 8, 0.2, 0.5, []) == ("vacuous", [])


def _found_case():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(6)
    x /= np.linalg.norm(x)
    y = x + 0.1 * rng.standard_normal(6)
    y /= np.linalg.norm(y)
    w = 0.2
    # The hashed matcher's query embedding of y, built here by hand.
    q = np.append(y, -1.0) / np.sqrt(2.0)
    q = np.concatenate([q, [0.0, np.sqrt(max(0.0, 1.0 - q @ q))]])
    return x, y, w, q, (float(x @ y) - w) / 2.0


def test_check_found_rejects_a_perturbed_value():
    x, y, w, q, value = _found_case()
    assert checks.check_found(value, q, x, y, w, 1.0, 0.2) == []
    assert checks.check_found(value + 1e-9, q, x, y, w, 1.0, 0.2)
    assert checks.check_found(value, q, x, y, w + 1e-6, 1.0, 0.2)
    # Below c * tau with zero tolerance.
    assert checks.check_found(value, q, x, y, w, 1.0, np.nextafter(value, 1.0))


def test_self_times_on_a_hand_built_tree():
    spans = [
        ["match_update", 0, 100, -1, 0],
        ["maxip_query", 10, 60, 0, 0],
        ["hash_points", 20, 30, 1, 0],
        ["maxip_update", 70, 90, 0, 0],
        ["hash_points", 75, 80, 3, 0],
        ["match_update", 200, 230, -1, 1],
    ]
    own = self_times(spans)
    assert own == [30, 40, 10, 15, 5, 30]
    assert sum(own) == root_ns(spans) == 130
    layers = layer_metrics(spans, own)
    assert layers["matching.update_ms"] == pytest.approx(60e-6)
    assert layers["maxip.hash_ms"] == pytest.approx(15e-6)
    assert layers["maxip.query_ms"] == pytest.approx(40e-6)
    assert layers["maxip.hash_calls"] == 2 and layers["maxip.queries"] == 1


def test_wrapped_calls_nest_and_add_up():
    tracer = Tracer()

    def leaf():
        return sum(range(1000))

    inner = tracer.wrap("hash_points", leaf)
    middle = tracer.wrap("maxip_query", lambda: inner() + inner(), keep=True)
    outer = tracer.wrap("match_update", lambda: middle())
    assert outer() == 2 * sum(range(1000))
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 1]
    assert tracer.kept == [(1, (), 2 * sum(range(1000)))]
    own = self_times(tracer.spans)
    assert min(own) >= 0 and sum(own) == root_ns(tracer.spans)


def test_installed_patches_and_restores():
    run.load_program()
    from sketchmatch import maxip
    original = maxip.maxip_query, maxip.LshIndex.hash_points
    tracer = Tracer()
    with tracer.installed():
        assert maxip.maxip_query is not original[0]
    assert (maxip.maxip_query, maxip.LshIndex.hash_points) == original


@pytest.mark.parametrize("trace", [False, True])
def test_sketch_workload_runs_clean(trace):
    result = run.run_one("sketch-ip", seed=1, seconds=0.0, trace=trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == WORKLOADS["sketch-ip"].m * (run.MIN_TIMED_ROUNDS + 1)
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(expected)
