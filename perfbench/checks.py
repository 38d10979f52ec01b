"""Checks on a run's outputs, computed apart from the program.

Nothing here imports sketchmatch: values are recomputed in numpy from the
instance and the indices the matcher returned, and the offline optimum comes
from scipy's assignment solver.  Each check returns a list of problems; an
empty list means the output passed.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

REL_TOL = 1e-9
# Slack of the per-step greedy band, as in the matcher's own instrumentation.
STEP_TOL = 1e-9
# A Found value is an exact inner product; recomputing it by another route
# may differ in the last bits only.
FOUND_TOL = 1e-12


def weights(offline: np.ndarray, online: np.ndarray) -> np.ndarray:
    """Zero-floored inner-product weight matrix, offline rows by arrivals."""
    return np.maximum(offline @ online.T, 0.0)


def optimum(offline: np.ndarray, online: np.ndarray) -> float:
    w = weights(offline, online)
    rows, cols = linear_sum_assignment(w, maximize=True)
    return float(w[rows, cols].sum())


def realized(offline: np.ndarray, online: np.ndarray, indices) -> float:
    """Sum over offline points of the best zero-floored weight assigned."""
    idx = np.asarray(indices, dtype=np.int64)
    gains = np.einsum("md,md->m", offline[idx], online)
    best = np.zeros(offline.shape[0])
    np.maximum.at(best, idx, gains)
    return float(best.sum())


def exact_greedy(offline: np.ndarray, online: np.ndarray) -> float:
    """Value of exact greedy: each arrival takes the largest clamped increment."""
    w = np.zeros(offline.shape[0])
    for y in online:
        inc = np.maximum(0.0, offline @ y - w)
        i = int(np.argmax(inc))
        w[i] += inc[i]
    return float(w.sum())


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def check_indices(indices, n: int, reference=None) -> list[str]:
    idx = np.asarray(indices)
    problems = []
    if idx.ndim != 1 or not np.all((idx >= 0) & (idx < n)):
        problems.append("an index lies outside [0, n)")
    if reference is not None and not np.array_equal(idx, reference):
        problems.append("indices differ from the first round at the same seed")
    return problems


def check_values(offline, online, indices, reported: float,
                 tracked: float | None = None) -> list[str]:
    """The program's realized value (and exact running total) vs numpy's."""
    mine = realized(offline, online, indices)
    problems = []
    if not _close(mine, reported):
        problems.append(f"realized_value {reported!r} != recomputed {mine!r}")
    if tracked is not None and not _close(mine, tracked):
        problems.append(f"match_query {tracked!r} != recomputed {mine!r}")
    return problems


def check_ratio(alg: float, opt: float, greedy: float) -> list[str]:
    problems = []
    if not opt > 0.0 or not 0.0 < alg / opt <= 1.0:
        problems.append(f"ratio {alg!r} / {opt!r} outside (0, 1]")
    if greedy < opt / 2.0 - REL_TOL * opt:
        problems.append(f"exact greedy {greedy!r} below opt / 2 = {opt / 2.0!r}")
    return problems


def flagged_steps(offline, online, indices, eps: float, tau: float) -> list[int]:
    """Steps outside the greedy band, by an exact replay of the hashed matcher.

    The hashed matcher's running values are exact clamped maxima, so replaying
    them from the returned indices reproduces its state.  A step is in the band
    when the chosen clamped increment is at least (1 - eps) times the best one,
    or within tau of it.
    """
    w = np.zeros(offline.shape[0])
    flagged = []
    for t, (y, i) in enumerate(zip(online, indices)):
        exact = offline @ y
        inc = np.maximum(0.0, exact - w)
        best, got = float(inc.max()), float(inc[i])
        if got < (1.0 - eps) * best - STEP_TOL and got < best - tau - STEP_TOL:
            flagged.append(t)
        w[i] = max(w[i], exact[i])
    return flagged


def hashed_bound(opt: float, m: int, eps: float, tau: float) -> float:
    return 0.5 * min((1.0 - eps) * opt, opt - m * tau)


def check_hashed_bound(alg: float, opt: float, m: int, eps: float, tau: float,
                       flagged: list[int]) -> tuple[str, list[str]]:
    """(status, problems); the bound is checked only when positive and unflagged."""
    bound = hashed_bound(opt, m, eps, tau)
    if bound <= 0.0:
        return "vacuous", []
    if flagged:
        return "flagged", []
    if alg < bound - REL_TOL * opt:
        return "missed", [f"realized {alg!r} below the hashed bound {bound!r}"]
    return "held", []


def check_found(value: float, q: np.ndarray, x: np.ndarray, y: np.ndarray,
                w_before: float, norm_bound: float, threshold: float) -> list[str]:
    """A Found answer of the hashed matcher's Max-IP query.

    The answer names offline point x, stored augmented as (x, w) / (sqrt(2) D)
    with the unit-sphere padding, while w held w_before.  Its value must equal
    that stored vector's inner product with the query q, which the
    augmentation makes (<x, y> - w) / (2 D), and must reach c * tau exactly.
    """
    b = np.append(x, w_before) / (np.sqrt(2.0) * norm_bound)
    stored = np.concatenate([b, [np.sqrt(max(0.0, 1.0 - b @ b)), 0.0]])
    problems = []
    for route, expected in (("stored point . query", float(stored @ q)),
                            ("increment / 2D",
                             (float(x @ y) - w_before) / (2.0 * norm_bound))):
        if abs(value - expected) > FOUND_TOL:
            problems.append(f"found value {value!r} != {route} {expected!r}")
    if not value >= threshold:
        problems.append(f"found value {value!r} below c * tau = {threshold!r}")
    return problems
