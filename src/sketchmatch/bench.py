"""Experiment harness: synthetic instances, matcher runs, ratio and latency.

A trial draws an offline point set (norms <= D) and a stream of online
points (norms <= 1) from a seeded generator, runs one matcher over the
stream, and compares the realized matching value against the offline
optimum from the assignment solver.  Each matcher kind carries its own
theoretical lower bound:

    GreedyExact-*                alg >= opt / 2
    DistanceMatching             alg >= (1 - 2 eps) opt / 2
    InnerProductMatching         alg >= opt / 2 - 1.5 m eps
    FasterInnerProductMatching   alg >= min{(1 - eps) opt, opt - m tau} / 2

and a trial whose per-step instrumentation caught a violated estimator
contract is reported as flagged rather than failed: the bounds only hold
with high probability, and the flag is the event the probability is about.

Inner-product weights are floored at zero when computing opt, matching the
matchers' option of leaving an offline point effectively unmatched.  The
optimum is solved exactly up to 2000 points per side; larger trials report
latency only.  scaling_sweep times per-update cost across a range of n and
fits log-log slopes, which is how the sublinear matcher is compared against
the linear scanners without asserting any particular theoretical exponent.

Everything downstream of the config seed is deterministic; per-update
latency percentiles are the one exception, and measure_latency=False pins
them to zero so reports become byte-stable.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, fields, replace

import numpy as np
from scipy.spatial.distance import cdist

from .core import ParameterError, PointSet, SeededRng, child_seed
from .matching import (
    MATCHER_KINDS,
    IncrementOracle,
    match_init,
    match_query,
    match_update,
    realized_value,
)
from .maxip import DEFAULT_MAX_TABLES, maxip_exponent
from .oracle import optimal_matching

DISTRIBUTIONS = ("uniform-sphere", "gaussian-normalized", "clustered")
OPT_SIZE_CAP = 2000
BOUND_TOL = 1e-9

CSV_COLUMNS = (
    "trial", "matcher", "n", "m", "d", "eps", "tau", "delta", "seed",
    "s", "alg", "opt", "ratio", "bound", "bound_satisfied", "flagged",
    "p50_us", "p99_us",
)


@dataclass(frozen=True)
class ExperimentConfig:
    matcher: str = "GreedyExact-IP"
    n_offline: int = 200
    m_online: int = 200
    dim: int = 16
    norm_bound: float = 1.0
    epsilon: float = 0.1
    tau: float = 0.1
    delta: float = 0.1
    seed: int = 0
    distribution: str = "uniform-sphere"
    cluster_k: int = 4
    cluster_spread: float = 0.25
    output_format: str = "csv"
    trials: int = 1
    instrument: bool = True
    measure_latency: bool = True
    max_tables: int = DEFAULT_MAX_TABLES

    def __post_init__(self) -> None:
        if self.matcher not in MATCHER_KINDS:
            raise ParameterError(f"unknown matcher {self.matcher!r}")
        if self.distribution not in DISTRIBUTIONS:
            raise ParameterError(f"unknown distribution {self.distribution!r}")
        if self.output_format not in ("csv", "json"):
            raise ParameterError("output_format must be 'csv' or 'json'")
        if self.trials < 1:
            raise ParameterError("trials must be >= 1")
        if self.n_offline < 1 or self.m_online < 0 or self.dim < 1:
            raise ParameterError("need n >= 1, m >= 0, dim >= 1")
        if self.norm_bound <= 0:
            raise ParameterError("norm bound must be positive")


@dataclass
class TrialReport:
    trial: int
    matcher: str
    n: int
    m: int
    d: int
    eps: float
    tau: float
    delta: float
    seed: int
    tracked_s: float
    realized_alg: float
    opt: float
    ratio: float
    bound: float
    bound_formula: str
    bound_satisfied: bool
    flagged: bool
    p50_us: float
    p99_us: float


def _sphere(rng: np.random.Generator, count: int, dim: int, radius: float) -> np.ndarray:
    g = rng.standard_normal((count, dim))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return g * radius


def _points(rng: np.random.Generator, cfg: ExperimentConfig, count: int,
            radius: float, centers: np.ndarray | None) -> np.ndarray:
    if count == 0:
        return np.zeros((0, cfg.dim))
    if cfg.distribution == "uniform-sphere":
        return _sphere(rng, count, cfg.dim, radius)
    if cfg.distribution == "gaussian-normalized":
        g = rng.standard_normal((count, cfg.dim))
        return g * (radius / np.linalg.norm(g, axis=1).max())
    # clustered: sphere centers plus per-cluster gaussian offsets, clipped
    # back into the radius ball
    which = rng.integers(0, cfg.cluster_k, size=count)
    noise = rng.standard_normal((count, cfg.dim))
    pts = centers[which] * radius + noise * (cfg.cluster_spread * radius / math.sqrt(cfg.dim))
    norms = np.linalg.norm(pts, axis=1)
    over = norms > radius
    pts[over] *= (radius / norms[over])[:, np.newaxis]
    return pts


def generate_dataset(cfg: ExperimentConfig, trial: int = 0):
    """Seeded instance: offline PointSet with norms <= D, online list <= 1."""
    root = child_seed(cfg.seed, trial)
    centers = None
    if cfg.distribution == "clustered":
        crng = SeededRng(child_seed(root, 3)).gen
        centers = _sphere(crng, cfg.cluster_k, cfg.dim, 1.0)
    off = _points(SeededRng(child_seed(root, 0)).gen, cfg,
                  cfg.n_offline, cfg.norm_bound, centers)
    on = _points(SeededRng(child_seed(root, 1)).gen, cfg,
                 cfg.m_online, 1.0, centers)
    offline = PointSet(off, norm_bound=cfg.norm_bound)
    return offline, [on[j] for j in range(on.shape[0])]


def _weight_matrix(offline: PointSet, online: list, weight: str) -> np.ndarray:
    if not online:
        return np.zeros((offline.n, 0))
    on = np.stack(online)
    if weight == "inner-product":
        return offline.points @ on.T
    return cdist(offline.points, on)


def _bound(matcher: str, oracle: IncrementOracle | None, opt: float,
           m: int, eps: float, tau: float) -> tuple[float, str]:
    mode = oracle.mode if oracle is not None else None
    if matcher == "DistanceMatching" or mode == "multiplicative":
        return 0.5 * (1.0 - 2.0 * eps) * opt, "half-(1-2eps)-opt"
    if matcher == "InnerProductMatching" or mode == "additive":
        return 0.5 * opt - 1.5 * m * eps, "half-opt-minus-1.5-m-eps"
    if matcher == "FasterInnerProductMatching":
        return 0.5 * min((1.0 - eps) * opt, opt - m * tau), "half-min-eps-tau"
    return 0.5 * opt, "half-opt"


def _stream(cfg: ExperimentConfig, trial: int,
            oracle: IncrementOracle | None = None):
    """Build the trial's instance and matcher, then time each arrival."""
    offline, online = generate_dataset(cfg, trial)
    root = child_seed(cfg.seed, trial)
    matcher = match_init(
        cfg.matcher, offline, epsilon=cfg.epsilon, tau=cfg.tau,
        delta=cfg.delta, seed=child_seed(root, 2), oracle=oracle,
        instrument=cfg.instrument,
        **({"max_tables": cfg.max_tables}
           if cfg.matcher == "FasterInnerProductMatching" else {}),
    )
    lat_ns = []
    for y in online:
        t0 = time.perf_counter_ns()
        match_update(matcher, y)
        lat_ns.append(time.perf_counter_ns() - t0)
    return offline, online, matcher, lat_ns


def run_trial(cfg: ExperimentConfig, trial: int = 0,
              oracle: IncrementOracle | None = None) -> TrialReport:
    """One seeded experiment: build, stream, compare against the optimum."""
    offline, online, matcher, lat_ns = _stream(cfg, trial, oracle)
    weight = matcher.weight
    alg = realized_value(matcher, weight)
    s = match_query(matcher)

    if max(cfg.n_offline, cfg.m_online) <= OPT_SIZE_CAP:
        w = _weight_matrix(offline, online, weight)
        if weight == "inner-product":
            w = np.maximum(w, 0.0)
        opt = optimal_matching(w).value if w.size else 0.0
        bound, formula = _bound(cfg.matcher, oracle, opt,
                                cfg.m_online, cfg.epsilon, cfg.tau)
        ratio = alg / opt if opt > 0 else math.nan
        satisfied = bool(alg >= bound - BOUND_TOL)
    else:
        opt = ratio = bound = math.nan
        formula = "not-computed"
        satisfied = True

    if cfg.measure_latency and lat_ns:
        p50 = float(np.percentile(lat_ns, 50)) / 1e3
        p99 = float(np.percentile(lat_ns, 99)) / 1e3
    else:
        p50 = p99 = 0.0

    return TrialReport(
        trial=trial, matcher=cfg.matcher, n=cfg.n_offline, m=cfg.m_online,
        d=cfg.dim, eps=cfg.epsilon, tau=cfg.tau, delta=cfg.delta,
        seed=cfg.seed, tracked_s=s, realized_alg=alg, opt=opt, ratio=ratio,
        bound=bound, bound_formula=formula, bound_satisfied=satisfied,
        flagged=matcher.state.flagged, p50_us=p50, p99_us=p99,
    )


def run_experiment(cfg: ExperimentConfig,
                   oracle: IncrementOracle | None = None) -> list[TrialReport]:
    return [run_trial(cfg, t, oracle) for t in range(cfg.trials)]


def exit_code(reports: list[TrialReport]) -> int:
    """1 if any unflagged trial misses its bound, else 0 (flags don't fail)."""
    return 1 if any(not r.flagged and not r.bound_satisfied for r in reports) else 0


# -- reporting ---------------------------------------------------------------

def _row_values(r: TrialReport) -> list:
    return [r.trial, r.matcher, r.n, r.m, r.d,
            float(r.eps), float(r.tau), float(r.delta), r.seed,
            float(r.tracked_s), float(r.realized_alg), float(r.opt),
            float(r.ratio), float(r.bound),
            r.bound_satisfied, r.flagged, float(r.p50_us), float(r.p99_us)]


def render_report(reports: list[TrialReport], output_format: str = "csv") -> str:
    """Reports as one CSV or JSON string; floats via repr, so byte-stable."""
    if output_format == "csv":
        lines = [",".join(CSV_COLUMNS)]
        for r in reports:
            lines.append(",".join(
                repr(v) if isinstance(v, float) else str(v)
                for v in _row_values(r)))
        return "\n".join(lines) + "\n"
    if output_format == "json":
        objs = [dict(zip(CSV_COLUMNS, _row_values(r))) for r in reports]
        return json.dumps(objs, indent=2) + "\n"
    raise ParameterError("output_format must be 'csv' or 'json'")


def emit_report(reports: list[TrialReport], output_format: str, path) -> None:
    with open(path, "w") as fh:
        fh.write(render_report(reports, output_format))


# -- scaling -----------------------------------------------------------------

@dataclass
class SweepResult:
    n_values: list[int]
    median_us: dict[str, list[float]]
    slopes: dict[str, float]
    reference_exponent: float


def _fit_slope(ns: list[int], med_us: list[float]) -> float:
    x = np.log(np.asarray(ns, dtype=np.float64))
    y = np.log(np.asarray(med_us, dtype=np.float64))
    return float(np.polyfit(x, y, 1)[0])


def scaling_sweep(cfg: ExperimentConfig, n_values: list[int],
                  kinds: tuple[str, ...] = ("GreedyExact-IP",
                                            "FasterInnerProductMatching")) -> SweepResult:
    """Median per-update latency vs n, log-log slope per matcher kind.

    Instrumentation and opt are disabled: above the solver cap the guarantees
    are asymptotic and only the update cost is being measured.
    """
    if sorted(n_values) != list(n_values) or len(n_values) < 2:
        raise ParameterError("n_values must be ascending, length >= 2")
    med: dict[str, list[float]] = {k: [] for k in kinds}
    for n in n_values:
        for kind in kinds:
            sub = replace(cfg, matcher=kind, n_offline=int(n),
                          instrument=False, trials=1)
            lat = _stream(sub, 0)[3]
            med[kind].append(float(np.median(lat)) / 1e3)
    slopes = {k: _fit_slope(n_values, med[k]) for k in kinds}
    dstar = 2.0 * cfg.norm_bound
    exponent = maxip_exponent(1.0 - cfg.epsilon, cfg.tau / dstar, "time")
    return SweepResult(list(n_values), med, slopes, exponent)


def format_sweep(res: SweepResult) -> str:
    kinds = list(res.median_us)
    lines = ["n," + ",".join(f"{k}_median_us" for k in kinds)]
    for i, n in enumerate(res.n_values):
        lines.append(str(n) + "," + ",".join(
            repr(res.median_us[k][i]) for k in kinds))
    for k in kinds:
        lines.append(f"slope,{k},{repr(res.slopes[k])}")
    lines.append(f"reference_exponent,time-optimal,{repr(res.reference_exponent)}")
    return "\n".join(lines) + "\n"


# -- CLI ---------------------------------------------------------------------

_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def _coerce(name: str, raw: str):
    kind = _FIELD_TYPES[name]
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
    if kind == "bool":
        if raw.lower() in ("1", "true", "yes"):
            return True
        if raw.lower() in ("0", "false", "no"):
            return False
        raise ParameterError(f"bad boolean for {name}: {raw!r}")
    return raw


def parse_config_file(path) -> dict:
    """key=value lines (# comments allowed) mapping config field names."""
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParameterError(f"{path}:{lineno}: expected key=value")
            key, raw = (part.strip() for part in line.split("=", 1))
            if key not in _FIELD_TYPES:
                raise ParameterError(f"{path}:{lineno}: unknown key {key!r}")
            out[key] = _coerce(key, raw)
    return out


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sketchmatch-bench",
        description="Online matching benchmark: ratio vs opt and update latency.")
    p.add_argument("--matcher", choices=MATCHER_KINDS)
    p.add_argument("--n", type=int, help="offline point count")
    p.add_argument("--m", type=int, help="online arrival count")
    p.add_argument("--dim", type=int)
    p.add_argument("--norm-bound", type=float, help="offline norm bound D")
    p.add_argument("--eps", type=float)
    p.add_argument("--tau", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--dist", choices=DISTRIBUTIONS, help="instance distribution")
    p.add_argument("--trials", type=int)
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--sweep", help="comma-separated n values: latency sweep mode")
    p.add_argument("--config", help="key=value file; flags override it")
    return p


_FLAG_TO_FIELD = {
    "matcher": "matcher", "n": "n_offline", "m": "m_online", "dim": "dim",
    "norm_bound": "norm_bound", "eps": "epsilon", "tau": "tau",
    "delta": "delta", "seed": "seed", "dist": "distribution",
    "trials": "trials", "format": "output_format",
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    settings: dict = {}
    if args.config:
        settings.update(parse_config_file(args.config))
    for flag, field_name in _FLAG_TO_FIELD.items():
        value = getattr(args, flag)
        if value is not None:
            settings[field_name] = value
    try:
        cfg = ExperimentConfig(**settings)
    except (ParameterError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.sweep:
        n_values = [int(tok) for tok in args.sweep.split(",") if tok.strip()]
        res = scaling_sweep(cfg, n_values)
        text = format_sweep(res)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0

    reports = run_experiment(cfg)
    text = render_report(reports, cfg.output_format)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return exit_code(reports)


if __name__ == "__main__":
    sys.exit(main())
