import json
import math

import numpy as np
import pytest

import gausspurity.estimation as estimation
import gausspurity.experiments as experiments
from gausspurity import (BathParams, ExperimentConfig, GaussianParams,
                         GaussianState, QSampleBatch, cov_from_params, emit,
                         integrate_cov_ode, purity, run_experiment)
from gausspurity.cli import main
from gausspurity.experiments import DEFAULT_T_GRID, EVOLUTION_INPUTS, ODE_ORACLE_STEP
from gausspurity.sampling import read_homodyne_batches

SMALL_N_GRID = [300, 1_000, 3_000]


def small_config(experiment, **kw):
    base = dict(experiment=experiment, n_grid=SMALL_N_GRID, trials=5, seed=42,
                resamples=100)
    base.update(kw)
    return ExperimentConfig(**base)


class TestRunners:
    def test_reports_are_reproducible(self):
        for experiment in ("fig_varnx", "fig_trequad"):
            a = run_experiment(small_config(experiment))
            b = run_experiment(small_config(experiment))
            assert a.rows == b.rows
            assert a.columns == b.columns

    def test_seed_changes_rows(self):
        a = run_experiment(small_config("fig_varnx", seed=1))
        b = run_experiment(small_config("fig_varnx", seed=2))
        assert a.rows != b.rows

    def test_varnx_schema_and_accuracy(self):
        report = run_experiment(small_config("fig_varnx", trials=20))
        assert report.columns == ["n", "mu_hat", "err_low", "err_high",
                                  "mu_true", "rel_err", "n_degenerate"]
        assert [row["n"] for row in report.rows] == SMALL_N_GRID
        assert all(row["mu_true"] == pytest.approx(0.5) for row in report.rows)
        rel = [row["rel_err"] for row in report.rows]
        assert rel[0] > rel[-1]          # error shrinks with more data

    def test_varnx_single_trial_has_bootstrap_band(self):
        report = run_experiment(small_config("fig_varnx", trials=1))
        for row in report.rows:
            assert row["err_low"] <= row["mu_hat"] <= row["err_high"]
            assert row["err_high"] > row["err_low"]

    def test_trequad_positive_bias_and_degenerate_column(self):
        config = small_config("fig_trequad", n_grid=[3_000], trials=60)
        report = run_experiment(config)
        row = report.rows[0]
        assert row["n_degenerate"] >= 0
        assert row["bias"] > 0           # phi = 0: overestimates on average

    def test_varr_and_varnth_truth_columns(self):
        varr = run_experiment(ExperimentConfig(
            experiment="fig_varr", r_grid=[0.0, 1.0], trials=2, seed=5))
        assert [row["r"] for row in varr.rows] == [0.0, 1.0]
        assert all(row["mu_true"] == pytest.approx(0.5) for row in varr.rows)

        varnth = run_experiment(ExperimentConfig(
            experiment="fig_varnth", nbar_grid=[0.0, 1.0], trials=2, seed=5))
        assert varnth.rows[0]["mu_true"] == pytest.approx(1.0)
        assert varnth.rows[1]["mu_true"] == pytest.approx(1 / 3)

    def test_ratio_check_closed_form(self):
        report = run_experiment(ExperimentConfig(experiment="ratio_check"))
        row = report.rows[0]
        assert row["ratio"] == pytest.approx(0.537, abs=5e-4)
        assert row["mu_coherent"] == pytest.approx(0.4416493, abs=1e-6)
        assert row["mu_squeezed"] == pytest.approx(0.2371655, abs=1e-6)

    def test_evolution_time_curves(self):
        t_grid = [0.0, 0.5, 1.0, 2.0]
        report = run_experiment(ExperimentConfig(
            experiment="evolution_time", t_grid=t_grid))
        assert report.columns == ["input", "gamma_t", "mu", "r", "phi",
                                  "ode_residual"]
        by_input = {}
        for row in report.rows:
            by_input.setdefault(row["input"], []).append(row)
        assert set(by_input) == {"coherent", "squeezed", "thermal"}
        assert all(len(v) == len(t_grid) for v in by_input.values())
        # coherent input: the optimal curve, monotonically above the others
        for a, b, c in zip(by_input["coherent"], by_input["squeezed"],
                           by_input["thermal"]):
            assert a["mu"] >= b["mu"] - 1e-12
            assert a["mu"] >= c["mu"] - 1e-12
        assert all(row["ode_residual"] < 1e-8 for row in report.rows)

    def test_chained_oracle_matches_oracle_from_zero(self):
        bath = BathParams(gamma=1.0, N=1.0, M1=0.5, M2=0.3)
        params = GaussianParams(x0=1.0, p0=-0.5, nbar=0.2, r=1.5, phi=0.4)
        chained, t_prev = GaussianState.from_params(params), 0.0
        for t in DEFAULT_T_GRID:
            chained = integrate_cov_ode(chained, bath, t - t_prev, step=ODE_ORACLE_STEP)
            t_prev = t
            ref = integrate_cov_ode(GaussianState.from_params(params), bath, t,
                                    step=ODE_ORACLE_STEP)
            for got, want in ((chained.cov.sxx, ref.cov.sxx), (chained.cov.spp, ref.cov.spp),
                              (chained.cov.sxp, ref.cov.sxp), (chained.x0, ref.x0),
                              (chained.p0, ref.p0)):
                assert got == pytest.approx(want, abs=1e-12)

    def test_evolution_time_residual_is_oracle_from_zero(self):
        bath = BathParams(gamma=2.0, N=0.5, M1=0.2, M2=-0.1)
        t_grid = [0.0, 0.1, 0.5, 1.3, 2.0]
        report = run_experiment(ExperimentConfig(
            experiment="evolution_time", bath=bath, t_grid=t_grid))
        inputs = dict(EVOLUTION_INPUTS)
        assert len(report.rows) == len(inputs) * len(t_grid)
        for row in report.rows:
            params = inputs[row["input"]]
            ref = integrate_cov_ode(GaussianState.from_params(params), bath,
                                    row["gamma_t"] / bath.gamma, step=ODE_ORACLE_STEP)
            assert row["ode_residual"] == pytest.approx(
                abs(row["mu"] - purity(ref.cov)), abs=1e-12)
            assert all(type(row[k]) is float for k in ("gamma_t", "mu", "r", "phi",
                                                       "ode_residual"))

    def test_varnth_honours_explicit_squeezing(self, monkeypatch):
        assert ExperimentConfig(experiment="fig_varnth").state.r == 1.0
        sampled = []
        real_q_trial = experiments._q_trial

        def recording_q_trial(state, n, rng):
            sampled.append(state.cov)
            return real_q_trial(state, n, rng)

        # one worker, so the trials arrive in child order
        monkeypatch.setattr(estimation.os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(experiments, "_q_trial", recording_q_trial)
        nbar_grid = [0.0, 1.0]
        config = ExperimentConfig(experiment="fig_varnth", nbar_grid=nbar_grid,
                                  state=GaussianParams(nbar=0.5, r=1.5),
                                  trials=2, seed=5)
        report = run_experiment(config)
        assert report.config["state"]["r"] == 1.5
        assert [row["nbar"] for row in report.rows] == nbar_grid
        assert [row["mu_true"] for row in report.rows] == pytest.approx([1.0, 1 / 3])
        expected = [cov_from_params(GaussianParams(nbar=nb, r=1.5))
                    for nb in nbar_grid for _ in range(2)]
        assert sampled == expected
        default = run_experiment(ExperimentConfig(
            experiment="fig_varnth", nbar_grid=nbar_grid, trials=2, seed=5))
        assert default.rows != report.rows

    def test_evolution_r0_sweep_monotone(self):
        report = run_experiment(ExperimentConfig(
            experiment="evolution_r0_sweep", r_grid=[0.0, 0.5, 1.0, 1.5]))
        for n_bath in (0.0, 0.5, 1.0):
            mus = [row["mu"] for row in report.rows if row["N"] == n_bath]
            assert all(a >= b for a, b in zip(mus, mus[1:]))

    def test_bad_configs_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="no_such_experiment")
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="fig_varnx", n_grid=[100, 100])
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="fig_varnx", trials=0)
        # resamples = 1 once ran and gave an all-degenerate NaN row
        for kw, message in ((dict(resamples=0), "resamples must be >= 2, got 0"),
                            (dict(resamples=1), "resamples must be >= 2, got 1"),
                            (dict(level=0.0), "confidence level must lie in (0, 1), got 0.0"),
                            (dict(level=1.0), "confidence level must lie in (0, 1), got 1.0")):
            with pytest.raises(ValueError) as info:
                ExperimentConfig(experiment="fig_varnx", **kw)
            assert str(info.value) == message

    @pytest.mark.parametrize("trials", [1, 2])
    def test_two_pairs_are_a_degenerate_point(self, tmp_path, trials):
        # a rank-1 sample covariance: degenerate at any trial count, never an error
        config = ExperimentConfig(experiment="fig_varnx", n_grid=[2, 30], trials=trials,
                                  seed=3, resamples=50)
        two, thirty = run_experiment(config).rows
        assert (two["n"], thirty["n"]) == (2, 30)
        assert two["n_degenerate"] == trials
        assert all(math.isnan(two[k]) for k in ("mu_hat", "err_low", "err_high", "rel_err"))
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config.to_dict()))
        assert main(["figure", "varnx", "--config", str(config_path),
                     "--out", str(tmp_path / "varnx.csv")]) == 0

    @pytest.mark.parametrize("experiment, n_grid", [
        *(pytest.param(experiment, n_grid, id=f"n_grid{i}-{experiment}")
          for i, n_grid in enumerate([[-3], [0], [1], [1, 30]])
          for experiment in ("fig_varnx", "fig_trequad")),
        pytest.param("fig_trequad", [2], id="n_grid4-fig_trequad"),
        pytest.param("fig_trequad", [5], id="n_grid5-fig_trequad")])
    def test_sample_sizes_below_two_rejected(self, experiment, n_grid):
        with pytest.raises(ValueError, match=">= 2"):
            ExperimentConfig(experiment=experiment, n_grid=n_grid)

    def test_unknown_experiment_lists_every_runner(self):
        with pytest.raises(ValueError) as info:
            ExperimentConfig(experiment="fig_nope")
        assert str(info.value) == (
            "unknown experiment 'fig_nope'; choose one of ('fig_varnx', "
            "'fig_trequad', 'fig_varr', 'fig_varnth', 'evolution_r0_sweep', "
            "'evolution_time', 'ratio_check')")

    def test_config_round_trip(self):
        config = small_config("fig_varnx", state=GaussianParams(nbar=1.0, r=0.5))
        again = ExperimentConfig.from_dict(config.to_dict())
        assert again.to_dict() == config.to_dict()
        assert run_experiment(again).rows == run_experiment(config).rows


class TestEmit:
    def test_csv_round_trip(self, tmp_path):
        report = run_experiment(ExperimentConfig(experiment="ratio_check"))
        path = tmp_path / "ratio.csv"
        emit(report, path, "csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "gamma_t,mu_squeezed,mu_coherent,ratio"
        values = [float(v) for v in lines[1].split(",")]
        assert values[3] == pytest.approx(0.537, abs=5e-4)

    def test_json_report_refed_as_config(self, tmp_path):
        config = small_config("fig_varnx", trials=2,
                              state=GaussianParams(nbar=0.5, r=0.5))
        report = run_experiment(config)
        path = tmp_path / "report.json"
        emit(report, path, "json")
        data = json.loads(path.read_text())
        assert data["rows"] == report.rows
        again = run_experiment(ExperimentConfig.from_dict(data["config"]))
        assert again.rows == report.rows

    def test_unknown_format(self, tmp_path):
        report = run_experiment(ExperimentConfig(experiment="ratio_check"))
        with pytest.raises(ValueError):
            emit(report, tmp_path / "x.yaml", "yaml")

    def test_unwritable_path(self):
        report = run_experiment(ExperimentConfig(experiment="ratio_check"))
        with pytest.raises(OSError):
            emit(report, "/no/such/dir/report.csv", "csv")


class TestCli:
    def test_evolve_ratio(self, tmp_path, capsys):
        out = tmp_path / "ratio.csv"
        assert main(["evolve", "ratio", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].split(",")[-1] == "ratio"
        assert float(lines[1].split(",")[-1]) == pytest.approx(0.537, abs=5e-4)

    def test_figure_with_config_file(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(small_config(
            "fig_varnx", trials=2,
            state=GaussianParams(nbar=0.5, r=0.5)).to_dict()))
        out = tmp_path / "varnx.json"
        rc = main(["figure", "varnx", "--config", str(config_path),
                   "--out", str(out), "--format", "json"])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["experiment"] == "fig_varnx"
        assert len(data["rows"]) == len(SMALL_N_GRID)

        # the emitted report is itself a valid config
        out2 = tmp_path / "again.json"
        rc = main(["figure", "varnx", "--config", str(out),
                   "--out", str(out2), "--format", "json"])
        assert rc == 0
        assert json.loads(out2.read_text())["rows"] == data["rows"]

    def test_sample_then_estimate_q(self, tmp_path, capsys):
        data = tmp_path / "q.csv"
        rc = main(["sample", "--kind", "q", "--n", "20000", "--seed", "3",
                   "--nbar", "0.5", "--r", "1.5", "--out", str(data)])
        assert rc == 0
        assert QSampleBatch.from_csv(data).n == 20000
        rc = main(["estimate", "--method", "q", "--input", str(data)])
        assert rc == 0
        result = json.loads(capsys.readouterr().out)
        assert result["method"] == "q_joint"
        assert result["mu_hat"] == pytest.approx(0.5, rel=0.1)
        assert result["ci_low"] <= result["mu_hat"] <= result["ci_high"]
        # a recorded CSV need not be Gaussian: estimate stays nonparametric
        assert result["bootstrap"] == "nonparametric"
        assert 200 <= result["resamples_used"] <= 400

    def test_sample_then_estimate_homodyne(self, tmp_path, capsys):
        data = tmp_path / "homodyne.csv"
        rc = main(["sample", "--kind", "homodyne", "--n", "5000", "--seed", "4",
                   "--nbar", "1.0", "--out", str(data)])
        assert rc == 0
        rc = main(["estimate", "--method", "three-quadrature",
                   "--input", str(data)])
        assert rc == 0
        result = json.loads(capsys.readouterr().out)
        assert result["method"] == "three_quadrature"
        assert result["mu_hat"] == pytest.approx(1 / 3, rel=0.1)

    def test_homodyne_seeds_give_independent_records(self, tmp_path):
        # the pi/4 record of --seed 0 and the 0 record of --seed 1 must not
        # share draws
        records = []
        for seed in (0, 1):
            path = tmp_path / f"hom{seed}.csv"
            assert main(["sample", "--kind", "homodyne", "--n", "30000",
                         "--seed", str(seed), "--out", str(path)]) == 0
            records.append(read_homodyne_batches(path))
        pi4 = next(b for t, b in records[0].items() if math.isclose(t, math.pi / 4))
        corr = np.corrcoef(pi4.values, records[1][0.0].values)[0, 1]
        assert abs(corr) < 0.05

    def test_estimate_missing_quadrature(self, tmp_path, capsys):
        data = tmp_path / "one_phase.csv"
        rc = main(["sample", "--kind", "homodyne", "--n", "100", "--seed", "5",
                   "--theta", "0.0", "--out", str(data)])
        assert rc == 0
        rc = main(["estimate", "--method", "three-quadrature",
                   "--input", str(data)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert "theta" in err["message"]

    @pytest.mark.parametrize("sample, method, expected, found", [
        (["--kind", "homodyne", "--theta", "0", "--theta", "3"], "q",
         "x,p", "theta,value"),
        (["--kind", "q"], "three-quadrature", "theta,value", "x,p")])
    def test_estimate_rejects_the_other_record_kind(self, tmp_path, capsys,
                                                    sample, method, expected, found):
        # read as Q pairs, this two-phase homodyne record once gave mu = 0.680
        # for a state of mu = 0.625, and exit code 0
        data = tmp_path / "record.csv"
        assert main(["sample", *sample, "--n", "3000", "--nbar", "0.3",
                     "--seed", "4", "--out", str(data)]) == 0
        capsys.readouterr()
        rc = main(["estimate", "--method", method, "--input", str(data)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError",
                       "message": f"{data}: expected CSV header {expected!r}, "
                                  f"found {found!r}"}

    def test_invalid_state_is_json_error(self, tmp_path, capsys):
        rc = main(["sample", "--kind", "q", "--n", "10", "--nbar", "-1",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]

    @pytest.mark.parametrize("argv, error, message", [
        (["sample", "--kind", "q", "--n", "10", "--r", "400"], "ValueError",
         "r = 400.0 at nbar = 0.0 overflows the covariance entries"),
        (["sample", "--kind", "q", "--n", "10", "--nbar", "nan"], "ValueError",
         "state parameters must be finite, got "
         "GaussianParams(x0=0.0, p0=0.0, nbar=nan, r=0.0, phi=0.0)"),
        (["evolve", "ratio", "--bath-n", "nan"], "UnphysicalBathError",
         "bath parameters must be finite, got BathParams(gamma=1.0, N=nan, M1=0.0, M2=0.0)"),
        (["evolve", "ratio", "--bath-n", "inf"], "UnphysicalBathError",
         "bath parameters must be finite, got BathParams(gamma=1.0, N=inf, M1=0.0, M2=0.0)"),
        (["evolve", "ratio", "--bath-n", "1e200"], "UnphysicalBathError",
         "bath parameters overflow det sigma_inf, got "
         "BathParams(gamma=1.0, N=1e+200, M1=0.0, M2=0.0)")],
        ids=["r400", "nbar-nan", "bath-n-nan", "bath-n-inf", "bath-n-1e200"])
    def test_non_finite_or_overflowing_input_is_json_error(self, tmp_path, capsys,
                                                           argv, error, message):
        out = tmp_path / "out.csv"
        assert main([*argv, "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err) == {"error": error, "message": message}
        assert not out.exists()

    def test_sample_at_large_squeezing(self, tmp_path):
        out = tmp_path / "q.csv"
        assert main(["sample", "--kind", "q", "--n", "1000", "--r", "12", "--phi", "0.3",
                     "--out", str(out)]) == 0
        assert np.isfinite(QSampleBatch.from_csv(out).pairs).all()

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_override_is_validated(self, tmp_path, capsys, trials):
        out = tmp_path / "varnx.csv"
        rc = main(["figure", "varnx", "--trials", str(trials), "--out", str(out)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError",
                       "message": f"trials must be >= 1, got {trials}"}
        assert not out.exists()

    def test_config_with_one_resample_exits_before_drawing(self, tmp_path, capsys,
                                                          monkeypatch):
        ran = []
        monkeypatch.setattr(experiments, "_monte_carlo", lambda *args: ran.append(args))
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"n_grid": [30, 100], "resamples": 1}))
        out = tmp_path / "varnx.csv"
        assert main(["figure", "varnx", "--config", str(config_path),
                     "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError", "message": "resamples must be >= 2, got 1"}
        assert ran == [] and not out.exists()

    def test_estimate_rejects_too_few_resamples(self, tmp_path, capsys):
        data = tmp_path / "q.csv"
        assert main(["sample", "--kind", "q", "--n", "50", "--out", str(data)]) == 0
        rc = main(["estimate", "--method", "q", "--input", str(data),
                   "--resamples", "0"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError",
                       "message": "resamples must be >= 2, got 0"}

    def test_unwritable_out_is_os_error(self, capsys):
        rc = main(["evolve", "ratio", "--out", "/no/such/dir/out.csv"])
        assert rc == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "OSError"
