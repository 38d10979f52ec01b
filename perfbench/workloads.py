"""The benchmark's workloads: matcher settings and seeded instance generators.

Each workload draws its instance from its own generator, keyed by the run's
seed and the workload's name, so the same seed always gives the same offline
points, arrivals and matcher seed, and two workloads never share a stream.
Every point has unit norm, so the offline norm bound D is 1.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field

import numpy as np

HASHED = "FasterInnerProductMatching"
SKETCH = "InnerProductMatching"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    n: int
    m: int
    dim: int
    epsilon: float
    tau: float
    delta: float
    # Clusters around shared centres; 0 draws from the uniform sphere.
    clusters: int = 0
    # Per-coordinate noise around a centre is N(0, spread^2 / dim).
    spread: float = 0.0
    # Further match_init keyword arguments (sketch constants).
    extra: dict = field(default_factory=dict)

    def matcher_kwargs(self) -> dict:
        return dict(epsilon=self.epsilon, tau=self.tau, delta=self.delta,
                    **self.extra)


WORKLOADS = {w.name: w for w in (
    # Most arrivals find an increment >= c*tau in their first tables: the
    # early exit in maxip_query and a rehash on nearly every arrival.
    Workload("hashed-hit", HASHED, n=256, m=256, dim=32, epsilon=0.2,
             tau=0.5, delta=0.1, clusters=8, spread=0.25),
    # Criterion-12 regime: no increment reaches tau, every query probes
    # every table and falls back to a random index.
    Workload("hashed-miss", HASHED, n=96, m=768, dim=128, epsilon=0.2,
             tau=0.5, delta=0.1),
    # One sketch GEMV plus the (n, m, k) difference/median reduction per
    # arrival; the constants keep the bank well inside one core's L2.
    Workload("sketch-ip", SKETCH, n=128, m=128, dim=128, epsilon=0.1,
             tau=0.1, delta=0.1, extra={"c_k": 0.25, "c_m": 1.0}),
)}


def _unit_rows(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def make_instance(w: Workload, seed: int):
    """Offline points (n, dim), arrivals (m, dim) and the matcher's seed."""
    seq = np.random.SeedSequence([int(seed), zlib.crc32(w.name.encode())])
    rng = np.random.default_rng(seq)
    if w.clusters:
        centres = _unit_rows(rng.standard_normal((w.clusters, w.dim)))
        sd = w.spread / math.sqrt(w.dim)

        def draw(count):
            which = rng.integers(0, w.clusters, size=count)
            return _unit_rows(centres[which]
                              + sd * rng.standard_normal((count, w.dim)))
    else:
        def draw(count):
            return _unit_rows(rng.standard_normal((count, w.dim)))
    offline = draw(w.n)
    online = draw(w.m)
    matcher_seed = int(rng.integers(0, 2**63 - 1))
    return offline, online, matcher_seed
