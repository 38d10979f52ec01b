"""Benchmark harness: seeded trials, competitive-ratio audits, reports.

A trial draws a dataset from the configured distribution, streams it
through the chosen matcher, recomputes the realized value and the offline
optimum, and records whether the variant's proven bound held.  Reports are
deterministic functions of (config, seed) once latency measurement is off;
the same runs are reachable from the command line via `sketchmatch-bench`.
"""

import os

# One BLAS thread, set before numpy is first imported, as the root
# conftest.py does: the sweep times one small BLAS call at a time, and on a
# two-core host a second OpenBLAS thread can stall each call by
# milliseconds.  An explicit setting in the environment still wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from sketchmatch.bench import (  # noqa: E402
    ExperimentConfig,
    exit_code,
    format_sweep,
    render_report,
    run_experiment,
    scaling_sweep,
)


def main():
    cfg = ExperimentConfig(matcher="GreedyExact-IP", n_offline=100,
                           m_online=80, dim=16, trials=3, seed=42,
                           measure_latency=False)
    reports = run_experiment(cfg)
    print(render_report(reports, "csv"))
    print(f"exit code {exit_code(reports)} (nonzero only if an unflagged "
          f"trial missed its bound)")

    # Identical configs render identical bytes.
    again = render_report(run_experiment(cfg), "csv")
    print(f"re-run byte-identical: {render_report(reports, 'csv') == again}")

    # Median update latency vs n, fitted on a log-log scale: the hashed
    # matcher's update cost grows far more slowly with n than the exact scan.
    sweep_cfg = ExperimentConfig(n_offline=1024, m_online=64, dim=32,
                                 epsilon=0.2, tau=0.5, max_tables=64, seed=0)
    print()
    print(format_sweep(scaling_sweep(sweep_cfg, [1024, 4096, 16384])))


if __name__ == "__main__":
    main()
