"""Online weighted matching: exact greedy against sketch-backed variants.

Offline points are fixed; online points arrive one at a time and each is
routed to the offline point whose accumulated value it improves the most.
The matching value is the sum over offline points of their best assigned
weight.  Exact greedy earns at least half the offline optimum; the
estimator-backed variants trade a little of that constant for per-arrival
work that no longer scans all n offline points exactly.
"""

import numpy as np

from sketchmatch import (
    PointSet,
    flagged_steps,
    match_init,
    match_query,
    match_update,
    optimal_matching,
    realized_value,
)


def ball(rng, count, dim, radius=1.0):
    x = rng.standard_normal((count, dim))
    return x / np.maximum(1.0, np.linalg.norm(x, axis=1, keepdims=True) / radius)


def main():
    rng = np.random.default_rng(0)
    n, m, d = 80, 60, 24
    offline = PointSet(ball(rng, n, d), norm_bound=1.0)
    arrivals = ball(rng, m, d)
    opt = optimal_matching(np.maximum(0.0, offline.points @ arrivals.T)).value
    print(f"{n} offline points, {m} arrivals, offline optimum {opt:.3f}")

    kinds = (
        ("GreedyExact-IP", {}),
        ("InnerProductMatching", {"epsilon": 0.12}),
        ("FasterInnerProductMatching", {"epsilon": 0.2, "tau": 0.45}),
    )
    for kind, kw in kinds:
        matcher = match_init(kind, offline, delta=0.1, seed=7, **kw)
        for y in arrivals:
            match_update(matcher, y)
        realized = realized_value(matcher)
        print(f"  {kind:28s} tracked s = {match_query(matcher):.3f}  "
              f"realized = {realized:.3f}  ratio = {realized / opt:.3f}  "
              f"flagged steps = {len(flagged_steps(matcher))}")

    # The tight family for the 1/2 constant: greedy spends the versatile
    # offline axis on the first arrival, and the second arrival that only
    # that axis could serve arrives one step too late.
    eye = PointSet(np.eye(2), norm_bound=1.0)
    greedy = match_init("GreedyExact-IP", eye)
    for y in np.array([[1.0, 1.0 - 1e-6], [1.0, 0.0]]):
        match_update(greedy, y)
    worst = realized_value(greedy) / (2.0 - 1e-6)
    print(f"adversarial two-arrival family: ratio {worst:.6f} (the 1/2 "
          f"constant is tight)")


if __name__ == "__main__":
    main()
