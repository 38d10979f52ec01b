"""Benchmark of the online matchers, end to end (untraced) and per layer (traced).

    python3 perfbench/run.py --workload hashed-hit --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

A run builds its workload's instance from the seed, then repeats whole
rounds on it for the given number of seconds after one warm-up round.  A
round is one `match_init` and the whole stream of `match_update` calls, made
by one caller in a closed loop: every assignment depends on all earlier ones,
so arrivals cannot overlap.  Every round at a seed does the same work.  After
the loop the outputs are checked against numpy and scipy (see checks.py).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 reports the end-to-end metrics and
--trace 1 the per-layer ones (see README.md).  Details of the run go to
perfbench/out/.  `--workload all` runs each workload in its own process and
prints a table.
"""

from __future__ import annotations

import os

# One BLAS thread: the matchers make one small call at a time, and a second
# thread only adds scheduling noise.  Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

import checks
from tracing import CONSOLIDATE, Tracer, layer_metrics, root_ns, self_times
from workloads import HASHED, WORKLOADS, make_instance

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_TIMED_ROUNDS = 5

END_TO_END = {
    "setup_s": "s",
    "arrival_p50_us": "us",
    "arrival_p90_us": "us",
    "arrivals_per_s": "1/s",
    "index_bytes": "B",
    "peak_rss_mb": "MB",
    "ratio": "1",
}
PER_LAYER = {
    "maxip.init_ms": "ms",
    "matching.init_ms": "ms",
    "maxip.queries": "count",
    "maxip.query_ms": "ms",
    "maxip.found": "count",
    "maxip.found_rate": "1",
    "maxip.misses": "count",
    "maxip.updates": "count",
    "maxip.update_ms": "ms",
    "maxip.hash_calls": "count",
    "maxip.hash_ms": "ms",
    "maxip.consolidations": "count",
    "maxip.consolidate_ms": "ms",
    "ade.init_ms": "ms",
    "ipe.init_ms": "ms",
    "ade.queries": "count",
    "ade.query_ms": "ms",
    "ipe.query_ms": "ms",
    "ipe.band_misses": "count",
    "matching.update_ms": "ms",
}


def load_program():
    """Import sketchmatch from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "sketchmatch" / "__init__.py").is_file():
        raise SystemExit(f"error: no sketchmatch sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import sketchmatch
    return sketchmatch


def structure_bytes(matcher) -> int:
    """nbytes of the arrays the matcher's built structure holds.

    Walks the matcher's sketchmatch-owned attributes, except its matching
    state and the caller's offline set, and counts each array's memory once.
    """
    seen_objs, seen_mem, total = set(), set(), 0
    todo = [v for k, v in vars(matcher).items() if k not in ("state", "offline")]
    while todo:
        obj = todo.pop()
        if id(obj) in seen_objs:
            continue
        seen_objs.add(id(obj))
        if isinstance(obj, np.ndarray):
            owner = obj
            while isinstance(owner.base, np.ndarray):
                owner = owner.base
            if id(owner) not in seen_mem:
                seen_mem.add(id(owner))
                total += owner.nbytes
        elif isinstance(obj, (list, tuple)):
            todo.extend(obj)
        elif type(obj).__module__.startswith("sketchmatch") and hasattr(obj, "__dict__"):
            todo.extend(vars(obj).values())
    return total


class Run:
    def __init__(self, sm, workload, seed: int, tracer: Tracer | None) -> None:
        self.sm = sm
        self.w = workload
        self.offline, self.online, self.matcher_seed = make_instance(workload, seed)
        self.points = sm.PointSet(self.offline, norm_bound=1.0)
        self.rows = list(self.online)
        self.tracer = tracer
        self.init, self.update = sm.match_init, sm.match_update
        if tracer is not None:
            self.init = tracer.wrap("match_init", self.init)
            self.update = tracer.wrap("match_update", self.update)
        self.problems: list[str] = []
        self.failed = 0

    def round(self, first: bool) -> dict:
        w, tracer = self.w, self.tracer
        gc.collect()
        span0 = len(tracer.spans) if tracer else 0
        t0 = perf_counter_ns()
        matcher = self.init(w.kind, self.points, seed=self.matcher_seed,
                            **w.matcher_kwargs())
        setup_ns = perf_counter_ns() - t0
        out = {"setup_ns": setup_ns}
        if first:
            out["matcher"] = matcher
            out["index_bytes"] = structure_bytes(matcher)
        indices = np.full(w.m, -1, dtype=np.int64)
        lat = np.empty(w.m, dtype=np.int64)
        counts = {"maxip.found": 0, "maxip.misses": 0, "ipe.band_misses": 0}
        for j, y in enumerate(self.rows):
            if tracer is not None:
                tracer.arrival = j
                before = matcher.state.accumulated.copy()
            a = perf_counter_ns()
            try:
                indices[j] = self.update(matcher, y)
            except Exception:
                traceback.print_exc()
                self.failed += 1
            lat[j] = perf_counter_ns() - a
            if tracer is not None:
                self.observe(y, before, counts)
        # Arrivals per second of update time; in a traced run this leaves
        # out the benchmark's own checks between arrivals.
        out["rate"] = w.m * 1e9 / float(lat.sum())
        out["lat"], out["indices"] = lat, indices
        if tracer is not None:
            tracer.arrival = -1
            out["spans"] = (span0, len(tracer.spans))
            out["counts"] = counts
        return out

    def observe(self, y, before, counts) -> None:
        """Counts and checks that need a layer's return value, outside all spans."""
        w, tracer = self.w, self.tracer
        for idx, args, result in tracer.kept:
            name = tracer.spans[idx][0]
            if name == "maxip_query":
                if result.found:
                    counts["maxip.found"] += 1
                    threshold = (1.0 - w.epsilon) * (w.tau / 2.0)
                    problems = checks.check_found(
                        result.value, args[1], self.offline[result.index], y,
                        before[result.index], 1.0, threshold)
                    if problems:
                        self.failed += 1
                        print("arrival failed:", *problems, file=sys.stderr)
                elif np.max(self.offline @ y - before) >= w.tau:
                    counts["maxip.misses"] += 1
            elif name == "maxip_update":
                if len(args[0].overlay) == 0:
                    tracer.spans[idx][0] = CONSOLIDATE
            elif name == "ipe_query":
                counts["ipe.band_misses"] += int(np.count_nonzero(
                    np.abs(result - self.offline @ y) > w.epsilon))
        tracer.kept.clear()

    def check(self, rounds: list[dict]) -> dict:
        """Run-level checks on the first round; later rounds must repeat it."""
        w, first = self.w, rounds[0]
        idx = first["indices"]
        ok = idx >= 0
        for r in rounds:
            self.problems += checks.check_indices(r["indices"][ok], w.n,
                                                  reference=idx[ok])
        matcher = first["matcher"]
        tracked = self.sm.match_query(matcher) if w.kind == HASHED else None
        alg = self.sm.realized_value(matcher)
        self.problems += checks.check_values(self.offline, self.online[ok],
                                             idx[ok], alg, tracked)
        opt = checks.optimum(self.offline, self.online)
        greedy = checks.exact_greedy(self.offline, self.online)
        self.problems += checks.check_ratio(alg, opt, greedy)
        info = {"alg": alg, "opt": opt, "greedy": greedy,
                "ratio": alg / opt if opt > 0.0 else float("nan")}
        if w.kind == HASHED:
            flagged = checks.flagged_steps(self.offline, self.online[ok], idx[ok],
                                           w.epsilon, w.tau)
            status, problems = checks.check_hashed_bound(
                alg, opt, w.m, w.epsilon, w.tau, flagged)
            self.problems += problems
            info.update(flagged_steps=len(flagged), bound_status=status,
                        bound=checks.hashed_bound(opt, w.m, w.epsilon, w.tau))
        return info


def end_to_end(rounds: list[dict], info: dict) -> dict:
    timed = rounds[1:]
    lat = np.concatenate([r["lat"] for r in timed])
    return {
        "setup_s": float(np.median([r["setup_ns"] for r in timed])) / 1e9,
        "arrival_p50_us": float(np.percentile(lat, 50)) / 1e3,
        "arrival_p90_us": float(np.percentile(lat, 90)) / 1e3,
        "arrivals_per_s": float(np.median([r["rate"] for r in timed])),
        "index_bytes": rounds[0]["index_bytes"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ratio": info["ratio"],
    }


def per_layer(rounds: list[dict], tracer: Tracer, problems: list[str]) -> dict:
    """Median over the timed rounds of each round's per-layer totals."""
    own = self_times(tracer.spans)
    per_round = []
    for r in rounds:
        lo, hi = r["spans"]
        if sum(own[lo:hi]) != root_ns(tracer.spans[lo:hi]):
            problems.append("span self times do not add up to the root spans")
        layers = layer_metrics(tracer.spans[lo:hi], own[lo:hi])
        layers.update(r["counts"])
        queries = layers["maxip.queries"]
        layers["maxip.found_rate"] = layers["maxip.found"] / queries if queries else 0.0
        per_round.append(layers)
    return {k: float(np.median([layers[k] for layers in per_round[1:]]))
            for k in PER_LAYER}


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    sm = load_program()
    tracer = Tracer() if trace else None
    run = Run(sm, WORKLOADS[name], seed, tracer)
    rounds = []
    with tracer.installed() if tracer else nullcontext():
        rounds.append(run.round(first=True))
        start = perf_counter()
        while len(rounds) <= MIN_TIMED_ROUNDS or perf_counter() - start < seconds:
            rounds.append(run.round(first=False))
    info = run.check(rounds)
    if trace:
        values = per_layer(rounds, tracer, run.problems)
        units = PER_LAYER
        info["traced_arrivals_per_s"] = float(np.median([r["rate"] for r in rounds[1:]]))
    else:
        values = end_to_end(rounds, info)
        units = END_TO_END
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not run.problems,
        "attempted": run.w.m * len(rounds),
        "failed": run.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    OUT.mkdir(exist_ok=True)
    tag = f"{name}-trace{int(trace)}"
    details = dict(result, workload=name, seed=seed, rounds=len(rounds),
                   problems=run.problems, **info)
    (OUT / f"{tag}.json").write_text(json.dumps(details, indent=1) + "\n")
    if trace:
        tracer.write(OUT / f"{tag}.spans.jsonl")
    return result


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in its own process; a table, then one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=True)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, "
              f"correct {res['correct']}")
        for metric, v in res["metrics"].items():
            print(f"  {metric:24s} {v['value']:>16.6g} {v['unit']}")
            combined["metrics"][f"{name}/{metric}"] = v
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
    return combined


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
