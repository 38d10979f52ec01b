"""Tests for the benchmark harness and its CLI.

A trial generates a seeded instance, streams it through a matcher, and
reports the tracked total, the realized value, the offline optimum, and
whether the variant's proven lower bound held.  The report format is fixed:
a known column set, floats rendered with repr so identical runs produce
byte-identical files, and an exit code that fails only on unflagged bound
violations.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from sketchmatch import bench
from sketchmatch.bench import (
    CSV_COLUMNS,
    DISTRIBUTIONS,
    ExperimentConfig,
    _bound,
    _build_parser,
    _stream,
    _weight_matrix,
    exit_code,
    format_sweep,
    generate_dataset,
    main,
    parse_config_file,
    render_report,
    run_experiment,
    run_trial,
    scaling_sweep,
)
from sketchmatch.core import ParameterError, child_seed
from sketchmatch.matching import (
    IncrementOracle,
    flagged_steps,
    inject_noise_oracle,
    match_init,
    match_update,
)

FAST = dict(n_offline=25, m_online=20, dim=6, trials=1, measure_latency=False)


class TestDatasets:
    @pytest.mark.parametrize("dist", DISTRIBUTIONS)
    def test_norm_bounds_respected(self, dist):
        cfg = ExperimentConfig(distribution=dist, norm_bound=2.0, **FAST)
        offline, online = generate_dataset(cfg)
        assert np.all(np.linalg.norm(offline.points, axis=1) <= 2.0 + 1e-9)
        assert all(float(np.linalg.norm(y)) <= 1.0 + 1e-9 for y in online)
        assert offline.n == 25 and len(online) == 20

    def test_deterministic_per_trial(self):
        cfg = ExperimentConfig(**FAST)
        a_off, a_on = generate_dataset(cfg, trial=3)
        b_off, b_on = generate_dataset(cfg, trial=3)
        np.testing.assert_array_equal(a_off.points, b_off.points)
        np.testing.assert_array_equal(np.stack(a_on), np.stack(b_on))

    def test_trials_differ(self):
        cfg = ExperimentConfig(**FAST)
        a_off, _ = generate_dataset(cfg, trial=0)
        b_off, _ = generate_dataset(cfg, trial=1)
        assert not np.array_equal(a_off.points, b_off.points)

    def test_offline_online_streams_independent(self):
        cfg = ExperimentConfig(n_offline=10, m_online=10, dim=5,
                               trials=1, measure_latency=False)
        offline, online = generate_dataset(cfg)
        assert not np.array_equal(offline.points, np.stack(online))

    def test_clustered_points_hug_their_centers(self):
        cfg = ExperimentConfig(distribution="clustered", cluster_k=2,
                               cluster_spread=0.05, n_offline=40, m_online=0,
                               dim=8, measure_latency=False)
        offline, _ = generate_dataset(cfg)
        # two tight clusters: nearest-point gaps split into near and far
        from scipy.spatial.distance import pdist

        gaps = np.sort(pdist(offline.points))
        assert gaps[0] < 0.2 and gaps[-1] > 0.5


class TestConfigValidation:
    def test_defaults_valid(self):
        ExperimentConfig()

    def test_rejections(self):
        with pytest.raises(ParameterError):
            ExperimentConfig(matcher="Nope")
        with pytest.raises(ParameterError):
            ExperimentConfig(distribution="bimodal")
        with pytest.raises(ParameterError):
            ExperimentConfig(output_format="xml")
        with pytest.raises(ParameterError):
            ExperimentConfig(trials=0)
        with pytest.raises(ParameterError):
            ExperimentConfig(n_offline=0)
        with pytest.raises(ParameterError):
            ExperimentConfig(norm_bound=0.0)
        with pytest.raises(ParameterError):
            ExperimentConfig(distribution="clustered", cluster_k=0)

    def test_zero_online_allowed(self):
        ExperimentConfig(m_online=0)


class TestBounds:
    def test_formula_per_variant(self):
        opt, m, eps, tau = 10.0, 5, 0.1, 0.2
        assert _bound("GreedyExact-IP", None, opt, m, eps, tau) == (5.0, "half-opt")
        v, f = _bound("DistanceMatching", None, opt, m, eps, tau)
        assert (v, f) == (0.5 * 0.8 * opt, "half-(1-2eps)-opt")
        v, f = _bound("InnerProductMatching", None, opt, m, eps, tau)
        assert (v, f) == (0.5 * opt - 1.5 * m * eps, "half-opt-minus-1.5-m-eps")
        v, f = _bound("FasterInnerProductMatching", None, opt, m, eps, tau)
        assert (v, f) == (0.5 * min(0.9 * opt, opt - m * tau), "half-min-eps-tau")

    def test_oracle_mode_overrides(self):
        opt = 4.0
        v, f = _bound("GreedyExact-IP", IncrementOracle("multiplicative", 0.2),
                      opt, 3, 0.2, 0.0)
        assert f == "half-(1-2eps)-opt"
        v, f = _bound("GreedyExact-IP", IncrementOracle("additive", 0.1),
                      opt, 3, 0.1, 0.0)
        assert f == "half-opt-minus-1.5-m-eps"


class TestRunTrial:
    def test_greedy_report_coherent(self):
        cfg = ExperimentConfig(**FAST)
        r = run_trial(cfg)
        assert r.matcher == "GreedyExact-IP"
        assert r.bound_formula == "half-opt"
        assert r.bound_satisfied
        assert not r.flagged
        assert r.alg >= 0.5 * r.opt - 1e-9
        assert abs(r.ratio - r.alg / r.opt) < 1e-12
        assert r.p50_us == 0.0 and r.p99_us == 0.0

    def test_zero_arrivals(self):
        cfg = ExperimentConfig(n_offline=5, m_online=0, dim=4,
                               measure_latency=False)
        r = run_trial(cfg)
        assert r.alg == 0.0 and r.s == 0.0
        assert r.opt == 0.0
        assert math.isnan(r.ratio)
        assert r.bound_satisfied

    def test_above_solver_cap_skips_opt(self):
        cfg = ExperimentConfig(matcher="GreedyExact-IP", n_offline=2001,
                               m_online=3, dim=4, measure_latency=False)
        r = run_trial(cfg)
        assert math.isnan(r.opt) and math.isnan(r.ratio) and math.isnan(r.bound)
        assert r.bound_formula == "not-computed"
        assert r.bound_satisfied
        assert r.bound_vacuous

    def test_latency_percentiles_populated_when_measured(self):
        cfg = ExperimentConfig(n_offline=10, m_online=15, dim=4,
                               measure_latency=True)
        r = run_trial(cfg)
        assert r.p50_us > 0.0
        assert r.p99_us >= r.p50_us

    def test_latency_excludes_the_step_check(self, monkeypatch):
        """The per-step check runs once, after the timed stream, and only
        when the config asks for it."""
        logged = []

        def slow_check(matcher):
            time.sleep(0.005 * len(matcher.state.chosen))
            logged.append(len(matcher.state.chosen))
            return flagged_steps(matcher)

        monkeypatch.setattr(bench, "flagged_steps", slow_check)
        cfg = ExperimentConfig(n_offline=30, m_online=20, dim=6,
                               measure_latency=True)
        assert cfg.instrument
        r = run_trial(cfg)
        assert logged == [20]
        assert 0.0 < r.p50_us < 2500.0
        run_trial(replace(cfg, instrument=False))
        assert logged == [20]

    def test_stream_flags_the_steps_the_matcher_would(self):
        """run_trial flags a trial exactly when the matcher's stream has a
        flagged step."""
        cfg = ExperimentConfig(n_offline=30, m_online=40, dim=6, epsilon=0.1,
                               measure_latency=False)

        def oracle():
            return inject_noise_oracle("multiplicative", 0.5, 5)

        r = run_trial(cfg, 0, oracle())
        offline, online, m, _ = _stream(cfg, 0, oracle())
        own = match_init(cfg.matcher, offline, epsilon=cfg.epsilon, tau=cfg.tau,
                         delta=cfg.delta, seed=child_seed(child_seed(cfg.seed, 0), 2),
                         oracle=oracle())
        for y in online:
            match_update(own, y)
        assert flagged_steps(own) and flagged_steps(m) == flagged_steps(own)
        assert m.state.accumulated.tobytes() == own.state.accumulated.tobytes()
        assert r.flagged
        assert not run_trial(replace(cfg, instrument=False), 0, oracle()).flagged
        assert not run_trial(cfg, 0).flagged

    def test_oracle_for_a_kind_that_reads_none_is_rejected(self):
        """The bound must not follow an oracle the matcher never consulted."""
        cfg = ExperimentConfig(matcher="InnerProductMatching", n_offline=20,
                               m_online=20, dim=6, epsilon=0.12,
                               measure_latency=False)
        with pytest.raises(ParameterError, match="reads no oracle"):
            run_trial(cfg, oracle=inject_noise_oracle("multiplicative", 0.1, 1))
        assert run_trial(cfg).bound_formula == "half-opt-minus-1.5-m-eps"

    def test_noisy_trial_bound_uses_the_oracle_epsilon(self):
        """The bound and the eps column follow the error the estimates
        carried, which is also the band the trial was flagged against."""
        cfg = ExperimentConfig(n_offline=30, m_online=40, dim=6, epsilon=0.1,
                               measure_latency=False)
        oracle = inject_noise_oracle("multiplicative", 0.5, 5)
        r = run_trial(cfg, 0, oracle)
        assert r.eps == 0.5
        assert (r.bound, r.bound_formula) == _bound(
            cfg.matcher, oracle, r.opt, cfg.m_online, 0.5, cfg.tau)
        assert r.bound == 0.5 * (1.0 - 2.0 * 0.5) * r.opt
        assert r.flagged and r.bound_vacuous
        plain = run_trial(cfg, 0)
        assert plain.eps == cfg.epsilon and plain.opt == r.opt
        assert not plain.bound_vacuous

    def test_noisy_trial_keeps_its_bound(self):
        cfg = ExperimentConfig(n_offline=12, m_online=10, dim=5,
                               epsilon=0.1, measure_latency=False)
        oracle = inject_noise_oracle("multiplicative", 0.1, seed=1)
        r = run_trial(cfg, oracle=oracle)
        assert r.bound_formula == "half-(1-2eps)-opt"
        assert r.bound_satisfied

    @pytest.mark.parametrize(
        "matcher,eps,tau",
        [
            ("GreedyExact-Dist", 0.1, 0.1),
            ("DistanceMatching", 0.09, 0.1),
            ("InnerProductMatching", 0.12, 0.1),
            ("FasterInnerProductMatching", 0.2, 0.3),
        ],
    )
    def test_all_variants_run(self, matcher, eps, tau):
        cfg = ExperimentConfig(matcher=matcher, epsilon=eps, tau=tau,
                               n_offline=15, m_online=10, dim=6,
                               measure_latency=False)
        r = run_trial(cfg)
        assert r.matcher == matcher
        assert np.isfinite(r.alg)

    def test_flag_fraction_within_budget(self):
        # Across seeds, instrumented hashed-search trials may flag at most a
        # 2 delta fraction, and every unflagged trial must meet its bound.
        # Offline radius sized so tau matches typical increments.
        cfg = ExperimentConfig(matcher="FasterInnerProductMatching",
                               n_offline=100, m_online=100, dim=16,
                               norm_bound=0.15, epsilon=0.1, tau=0.1,
                               delta=0.1, trials=15, seed=3,
                               instrument=True, measure_latency=False)
        reports = run_experiment(cfg)
        flagged = sum(r.flagged for r in reports)
        assert flagged <= 2 * cfg.delta * cfg.trials
        assert all(r.bound_satisfied for r in reports if not r.flagged)


class TestReports:
    def test_csv_columns_frozen(self):
        assert CSV_COLUMNS == (
            "trial", "matcher", "n", "m", "d", "eps", "tau", "delta", "seed",
            "s", "alg", "opt", "ratio", "bound", "bound_satisfied",
            "bound_vacuous", "flagged", "p50_us", "p99_us",
        )

    def test_csv_shape(self):
        cfg = ExperimentConfig(**{**FAST, "trials": 3})
        reports = run_experiment(cfg)
        text = render_report(reports, "csv")
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 4
        assert all(len(line.split(",")) == len(CSV_COLUMNS) for line in lines)

    def test_empty_report_is_header_only(self):
        assert render_report([], "csv") == ",".join(CSV_COLUMNS) + "\n"

    def test_json_round_trip_matches_csv(self):
        cfg = ExperimentConfig(**FAST)
        reports = run_experiment(cfg)
        rows = json.loads(render_report(reports, "json"))
        assert len(rows) == 1
        assert list(rows[0]) == list(CSV_COLUMNS)
        csv_cells = render_report(reports, "csv").strip().split("\n")[1].split(",")
        for cell, (key, jval) in zip(csv_cells, rows[0].items()):
            if isinstance(jval, float):
                assert float(cell) == jval or (
                    math.isnan(float(cell)) and math.isnan(jval)
                )
            else:
                assert cell == str(jval)

    def test_declared_float_fields_render_as_floats(self):
        """The field's declared type, not the value's, picks the rendering:
        int tau and delta still report as 0.0 and 1.0."""
        cfg = ExperimentConfig(n_offline=6, m_online=5, dim=3, tau=0, delta=1,
                               measure_latency=False)
        reports = run_experiment(cfg)
        header, row = render_report(reports, "csv").strip().split("\n")
        cells = dict(zip(header.split(","), row.split(",")))
        assert (cells["tau"], cells["delta"]) == ("0.0", "1.0")
        obj = json.loads(render_report(reports, "json"))[0]
        assert type(obj["tau"]) is float and obj["tau"] == 0.0
        assert type(obj["delta"]) is float and obj["delta"] == 1.0
        assert tuple(header.split(",")) == tuple(obj) == CSV_COLUMNS
        assert "bound_formula" not in CSV_COLUMNS

    def test_byte_identical_reruns(self):
        """Identical seeds render byte-identical reports."""
        cfg = ExperimentConfig(**FAST)
        a = render_report(run_experiment(cfg), "csv")
        b = render_report(run_experiment(cfg), "csv")
        assert a == b
        ja = render_report(run_experiment(cfg), "json")
        jb = render_report(run_experiment(cfg), "json")
        assert ja == jb

    def test_vacuous_bound_is_reported(self):
        """A negative bound still reads as satisfied, so the report says it
        was vacuous; the exit code does not change."""
        cfg = ExperimentConfig(matcher="FasterInnerProductMatching",
                               n_offline=256, m_online=128, dim=128,
                               epsilon=0.2, tau=0.5, measure_latency=False)
        r = run_trial(cfg)
        assert r.bound < 0 and r.bound_satisfied and r.bound_vacuous
        assert exit_code([r]) == 0
        row = json.loads(render_report([r], "json"))[0]
        assert row["bound_vacuous"] is True and row["bound_satisfied"] is True
        assert not run_trial(ExperimentConfig(**FAST)).bound_vacuous

    def test_exit_code_predicate(self):
        cfg = ExperimentConfig(**FAST)
        good = run_trial(cfg)
        assert exit_code([good]) == 0
        violated = replace(good, bound_satisfied=False, flagged=False)
        excused = replace(good, bound_satisfied=False, flagged=True)
        assert exit_code([violated]) == 1
        assert exit_code([good, excused]) == 0
        assert exit_code([good, excused, violated]) == 1

    def test_contract_breaking_estimates_fail_the_run(self):
        """An estimator that lies about its error mode trips the exit code."""

        class _Lying:
            mode = "multiplicative"
            epsilon = 0.05  # claimed; actual estimates invert the ranking

            def estimate(self, w):
                return -np.asarray(w, dtype=np.float64)

        cfg = ExperimentConfig(n_offline=10, m_online=10, dim=5, epsilon=0.05,
                               instrument=False, measure_latency=False)
        reports = run_experiment(cfg, oracle=_Lying())
        assert exit_code(reports) == 1


class TestSweep:
    def test_structure_and_slopes(self):
        cfg = ExperimentConfig(n_offline=32, m_online=15, dim=6,
                               epsilon=0.2, tau=0.5, measure_latency=False,
                               max_tables=16)
        res = scaling_sweep(cfg, [32, 64, 128])
        assert res.n_values == [32, 64, 128]
        for kind, med in res.median_us.items():
            assert len(med) == 3
            assert all(v > 0 for v in med)
            assert kind in res.slopes
        assert np.isfinite(res.reference_exponent)
        text = format_sweep(res)
        assert "slope" in text and "reference_exponent" in text

    def test_rejects_unsorted_or_short(self):
        cfg = ExperimentConfig(**FAST)
        with pytest.raises(ParameterError):
            scaling_sweep(cfg, [64, 32])
        with pytest.raises(ParameterError):
            scaling_sweep(cfg, [64])


class TestConfigFile:
    def test_parse_types_and_comments(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(
            "# benchmark settings\n"
            "matcher = InnerProductMatching\n"
            "n_offline = 40\n"
            "epsilon=0.15   # additive budget\n"
            "measure_latency = false\n"
            "\n"
        )
        got = parse_config_file(p)
        assert got == {
            "matcher": "InnerProductMatching",
            "n_offline": 40,
            "epsilon": 0.15,
            "measure_latency": False,
        }

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("n_offIine = 40\n")
        with pytest.raises(ParameterError):
            parse_config_file(p)

    def test_bad_boolean_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("measure_latency = maybe\n")
        with pytest.raises(ParameterError):
            parse_config_file(p)

    def test_missing_equals_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("just a line\n")
        with pytest.raises(ParameterError):
            parse_config_file(p)


# Each config flag with a non-default value: (flag, config field, value,
# report column or None when the report does not carry the field).
CONFIG_FLAGS = [
    ("--matcher", "matcher", "GreedyExact-Dist", "matcher"),
    ("--n", "n_offline", 9, "n"),
    ("--m", "m_online", 7, "m"),
    ("--dim", "dim", 5, "d"),
    ("--norm-bound", "norm_bound", 0.5, None),
    ("--eps", "epsilon", 0.15, "eps"),
    ("--tau", "tau", 0.2, "tau"),
    ("--delta", "delta", 0.05, "delta"),
    ("--seed", "seed", 11, "seed"),
    ("--dist", "distribution", "clustered", None),
    ("--trials", "trials", 2, None),
    ("--format", "output_format", "json", None),
]


class TestCli:
    def test_every_config_flag_reaches_its_field(self, tmp_path, monkeypatch):
        default = ExperimentConfig()
        assert all(value != getattr(default, field)
                   for _, field, value, _ in CONFIG_FLAGS)
        seen = []

        def spy(cfg, oracle=None):
            seen.append(cfg)
            return run_experiment(cfg, oracle)

        monkeypatch.setattr(bench, "run_experiment", spy)
        out = tmp_path / "report.json"
        argv = [tok for flag, _, value, _ in CONFIG_FLAGS
                for tok in (flag, str(value))]
        assert main(argv + ["--out", str(out)]) == 0
        assert seen == [replace(default, **{field: value for _, field, value, _
                                            in CONFIG_FLAGS})]
        rows = json.loads(out.read_text())
        assert len(rows) == 2
        for row in rows:
            for _, _, value, column in CONFIG_FLAGS:
                if column is not None:
                    assert row[column] == value

    def test_expected_flags_exist(self):
        parser = _build_parser()
        flags = set(parser._option_string_actions)
        for expected in ["--matcher", "--n", "--m", "--dim", "--norm-bound",
                         "--eps", "--tau", "--delta", "--seed", "--dist",
                         "--trials", "--format", "--out", "--sweep", "--config"]:
            assert expected in flags

    def test_basic_run_writes_csv(self, tmp_path):
        out = tmp_path / "report.csv"
        rc = main(["--matcher", "GreedyExact-IP", "--n", "12", "--m", "8",
                   "--dim", "5", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 2

    def test_flags_override_config_file(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "matcher = GreedyExact-IP\nn_offline = 12\nm_online = 8\n"
            "dim = 5\nepsilon = 0.3\nmeasure_latency = false\n"
        )
        out = tmp_path / "a.csv"
        rc = main(["--config", str(cfgfile), "--eps", "0.05",
                   "--out", str(out)])
        assert rc == 0
        row = out.read_text().strip().split("\n")[1].split(",")
        eps_cell = row[CSV_COLUMNS.index("eps")]
        assert float(eps_cell) == 0.05

    def test_bad_settings_exit_2(self, capsys):
        rc = main(["--matcher", "GreedyExact-IP", "--trials", "0"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_bad_config_file_setting_exits_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("distribution = clustered\ncluster_k = 0\n")
        rc = main(["--config", str(cfgfile), "--n", "5", "--m", "3",
                   "--dim", "4"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "cluster_k" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("config, argv", [
        pytest.param("n_points = 5\n", [], id="unknown-config-key"),
        pytest.param("dim = four\n", [], id="non-numeric-config-value"),
        pytest.param(None, ["--config", "none.cfg"], id="unreadable-config-path"),
        pytest.param(None, ["--sweep", "16,3x2"], id="non-integer-sweep-token"),
        pytest.param(None, ["--out", "no/r.csv"], id="unwritable-out-path"),
        pytest.param(None, ["--sweep", "16,32", "--m", "0"],
                     id="sweep-without-arrivals"),
    ])
    def test_bad_setting_or_path_exits_2(self, config, argv, tmp_path,
                                         monkeypatch, capsys):
        """One error line and exit 2, which is not a missed bound's 1."""
        monkeypatch.chdir(tmp_path)
        if config is not None:
            (tmp_path / "run.cfg").write_text(config)
            argv = ["--config", "run.cfg"]
        rc = main(["--n", "5", "--m", "3"] + argv)
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_run_time_parameter_error_exits_2(self, capsys):
        """A setting outside a matcher's domain surfaces while the run builds it."""
        rc = main(["--matcher", "DistanceMatching", "--n", "8", "--m", "4",
                   "--dim", "4"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    def test_json_stdout(self, capsys):
        rc = main(["--n", "8", "--m", "4", "--dim", "4",
                   "--format", "json"])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 1 and rows[0]["matcher"] == "GreedyExact-IP"

    def test_sweep_mode(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["--eps", "0.2", "--tau", "0.5", "--dim", "6", "--m", "10",
                   "--sweep", "32,64", "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert text.startswith("n,")
        assert "reference_exponent" in text

    def test_identical_cli_runs_byte_identical(self, tmp_path):
        argv = ["--n", "10", "--m", "6", "--dim", "4", "--seed", "7"]
        cfgfile = tmp_path / "nolat.cfg"
        cfgfile.write_text("measure_latency = false\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + ["--config", str(cfgfile), "--out", str(a)]) == 0
        assert main(argv + ["--config", str(cfgfile), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
