import json
import math
import re
import tempfile
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gausspurity
import gausspurity.cli as cli
import gausspurity.estimation as estimation
import gausspurity.experiments as experiments
from gausspurity import (BathParams, ExperimentConfig, GaussianParams, GaussPurityError,
                         GaussianState, QSampleBatch, UnphysicalBathError, channel_asymptote,
                         cov_from_params, emit, integrate_cov_ode, phi_of_t, purity,
                         run_experiment, trajectory)
from gausspurity.cli import main
from gausspurity.experiments import DEFAULT_T_GRID, EVOLUTION_INPUTS, ODE_ORACLE_STEP
from gausspurity.sampling import read_homodyne_batches

SMALL_N_GRID = [300, 1_000, 3_000]
BENCH = Path(__file__).resolve().parent.parent / "bench"
# an integer too large for a float: float() of it raises OverflowError
HUGE = str(10 ** 400)

# the config fields that each experiment reads: only a figure draws
MONTE_CARLO = {"trials", "seed", "resamples", "level"}
READS = {"fig_varnx": {"state", "n_grid", *MONTE_CARLO},
         "fig_trequad": {"state", "n_grid", *MONTE_CARLO},
         "fig_varr": {"state", "r_grid", *MONTE_CARLO},
         "fig_varnth": {"state", "nbar_grid", *MONTE_CARLO},
         "evolution_r0_sweep": {"r_grid"}, "evolution_time": {"bath", "t_grid"},
         "ratio_check": {"bath"}}
FIELD_VALUES = {"state": GaussianParams(nbar=1.0), "bath": BathParams(N=1.0),
                "n_grid": [10, 30], "r_grid": [0.0, 1.0], "nbar_grid": [0.5, 1.0],
                "t_grid": [0.0, 1.0], "trials": 2, "seed": 1, "resamples": 50, "level": 0.9}


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
                                    row["gamma_t"] / bath.gamma,
                                    step=ODE_ORACLE_STEP / bath.gamma)
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
        # each of these once reached a runner and crashed with a TypeError or OverflowError
        for experiment, kw in (("fig_varnx", dict(n_grid=[1000, math.inf])),
                               ("fig_varnx", dict(n_grid=[1000, 2500.5])),
                               ("fig_trequad", dict(n_grid=[6.5, 30])),
                               ("fig_varnx", dict(trials=2.5)),
                               ("fig_varnx", dict(trials="3")),
                               ("fig_varnx", dict(seed=1.5)),
                               ("fig_varnx", dict(resamples=2.5)),
                               ("fig_varnx", dict(level="0.5")),
                               ("fig_varr", dict(r_grid=[0.0, math.nan])),
                               ("fig_varnth", dict(nbar_grid=["a"])),
                               ("evolution_time", dict(t_grid=[0.0, math.inf])),
                               ("evolution_time", dict(t_grid=[0.0, math.nan, 1.0])),
                               ("evolution_time", dict(t_grid=np.array(3.0)))):
            with pytest.raises(ValueError):
                ExperimentConfig(experiment=experiment, **kw)
        # a bath given to an experiment that reads none was once ignored
        for experiment in ("evolution_r0_sweep", "fig_varnx"):
            with pytest.raises(ValueError, match="takes no bath"):
                ExperimentConfig(experiment=experiment, bath=BathParams(N=5.0))

    def test_oracle_steps_do_not_depend_on_gamma(self, monkeypatch):
        # the oracle once stepped 5e-3 in t, not in gamma*t: 100 times the steps
        # at gamma = 0.01, and no bound at all as gamma -> 0
        steps, real = [], experiments.integrate_cov_ode

        def counted(state, bath, t, step):
            steps[-1] += max(1, math.ceil(t / step - 1e-12))
            return real(state, bath, t, step)

        monkeypatch.setattr(experiments, "integrate_cov_ode", counted)
        for gamma in (1.0, 0.01):
            steps.append(0)
            run_experiment(ExperimentConfig(experiment="evolution_time",
                                            t_grid=[0.0, 0.5, 2.0],
                                            bath=BathParams(gamma=gamma, N=0.5)))
        assert steps == [3 * (1 + 100 + 300)] * 2

    @pytest.mark.parametrize("experiment", ["evolution_time", "ratio_check"])
    def test_tables_do_not_depend_on_gamma(self, experiment):
        # the runners once took t = v/gamma: at gamma = 3, 18 of the 153 gamma_t values
        # left the grid, and at gamma = 5e-324 t = 1/gamma overflowed to a ratio of 1.0
        rows = {}
        for gamma in (1.0, 3.0, 0.7, 5e-324):
            bath = replace(ExperimentConfig(experiment).bath, gamma=gamma)
            rows[gamma] = run_experiment(ExperimentConfig(experiment, bath=bath)).rows
            assert repr(rows[gamma]) == repr(rows[1.0])        # bit for bit
        if experiment == "ratio_check":
            assert rows[5e-324][0]["ratio"] == pytest.approx(0.5369998, abs=1e-7)
        else:
            assert [row["gamma_t"] for row in rows[3.0]] == DEFAULT_T_GRID * 3

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
        config_path.write_text(json.dumps(asdict(config)))
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
        again = ExperimentConfig.from_dict(asdict(config))
        assert asdict(again) == asdict(config)
        assert run_experiment(again).rows == run_experiment(config).rows


class TestExperimentTable:
    def test_experiment_lists_agree(self, monkeypatch):
        # a new experiment needs its CLI name and its benchmark span
        monkeypatch.syspath_prepend(str(BENCH))
        import spans

        names = set(experiments._EXPERIMENTS)
        assert names == set(READS)
        assert names == set(cli._FIGURES.values()) | set(cli._EVOLUTIONS.values())
        assert len(cli._FIGURES) + len(cli._EVOLUTIONS) == len(names)
        assert names == set(spans.EXPERIMENTS)

    @pytest.mark.parametrize("experiment, name", [
        (e, name) for e in READS for name in FIELD_VALUES if name not in READS[e]])
    def test_unread_field_rejected(self, experiment, name):
        # each of these was once ignored: the run used its own default
        with pytest.raises(ValueError, match=f"^experiment '{experiment}' takes no {name}; "
                                             "only '"):
            ExperimentConfig(experiment, **{name: FIELD_VALUES[name]})

    @pytest.mark.parametrize("experiment", READS)
    def test_read_fields_filled_or_kept(self, experiment):
        config = ExperimentConfig(experiment)
        for name in FIELD_VALUES:
            assert (getattr(config, name) is not None) == (name in READS[experiment]), name
        given = ExperimentConfig(experiment, **{n: FIELD_VALUES[n] for n in READS[experiment]})
        for name in READS[experiment]:
            assert getattr(given, name) == FIELD_VALUES[name]

    def test_defaults_filled(self):
        assert ExperimentConfig("evolution_time").bath == BathParams(N=0.5)
        assert ExperimentConfig("evolution_time").t_grid == DEFAULT_T_GRID
        assert ExperimentConfig("ratio_check").bath == BathParams(N=1.0)
        assert ExperimentConfig("fig_varnth").state == GaussianParams(nbar=0.5, r=1.0)
        assert ExperimentConfig("fig_varr").state == GaussianParams(nbar=0.5, r=1.5)
        r0 = ExperimentConfig("evolution_r0_sweep").r_grid
        assert len(r0) == 21 and r0[0] == 0.0 and r0[-1] == pytest.approx(2.0)

    def test_grids_typed_once(self):
        config = ExperimentConfig("fig_varnx", n_grid=[10.0, 30])
        assert config.n_grid == [10, 30] and all(type(n) is int for n in config.n_grid)
        for experiment, name in (("fig_varr", "r_grid"), ("fig_varnth", "nbar_grid"),
                                 ("evolution_r0_sweep", "r_grid"),
                                 ("evolution_time", "t_grid")):
            grid = getattr(ExperimentConfig(experiment, **{name: [0, 1]}), name)
            assert grid == [0.0, 1.0] and all(type(v) is float for v in grid)

    @pytest.mark.parametrize("grid", [(0, 1), np.arange(2)], ids=["tuple", "array"])
    def test_grid_any_sequence(self, grid):
        assert ExperimentConfig("evolution_time", t_grid=grid).t_grid == [0.0, 1.0]

    @pytest.mark.parametrize("experiment, name, value, message", [
        ("fig_varnx", "seed", -1, "seed must be >= 0, got -1"),
        ("fig_varnx", "trials", True, "trials must be an integer, got True"),
        ("fig_varnx", "n_grid", [30, True], "n_grid values must be finite real numbers"),
        ("evolution_time", "t_grid", 3, "t_grid must be a list of numbers, got 3"),
        ("evolution_time", "t_grid", "01", "t_grid must be a list of numbers, got '01'")])
    def test_bad_field_named(self, experiment, name, value, message):
        # a negative seed once failed inside numpy without naming the field
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            ExperimentConfig(experiment, **{name: value})


# Any small JSON value; and for each config field, values near and inside its range.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.just(10 ** 400)
    | st.floats() | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                                max_size=2),
    max_leaves=6)
NUMBERS = st.integers(-2, 40) | st.floats(-1.0, 3.0)
GRIDS = st.lists(NUMBERS, max_size=4, unique=True).map(sorted)


def _params_dicts(cls):
    return st.dictionaries(st.sampled_from([f.name for f in fields(cls)]),
                           NUMBERS | JSON_VALUES, max_size=3)


# the ten fields and output_path, which is no field: nothing ever read it
CONFIG_DICTS = st.fixed_dictionaries({}, optional={
    name: values | JSON_VALUES for name, values in (
        ("state", _params_dicts(GaussianParams)), ("bath", _params_dicts(BathParams)),
        ("n_grid", GRIDS), ("r_grid", GRIDS), ("nbar_grid", GRIDS), ("t_grid", GRIDS),
        ("trials", st.integers(-1, 4)), ("seed", st.integers(-1, 2 ** 64)),
        ("resamples", st.integers(0, 500)), ("level", st.floats(-0.5, 1.5)),
        ("output_path", st.text(max_size=3)))})


class TestConfigContract:
    @settings(max_examples=150)
    @given(st.sampled_from(list(READS)), CONFIG_DICTS, st.sampled_from(["ratio", "r0-sweep"]))
    def test_config_rejected_or_read_and_round_tripped(self, experiment, data, command):
        try:
            config = ExperimentConfig.from_dict({**data, "experiment": experiment})
        except (ValueError, GaussPurityError):
            pass
        else:
            for f in fields(config)[1:]:
                assert (getattr(config, f.name) is None) == (f.name not in READS[experiment])
            assert ExperimentConfig.from_dict(asdict(config)) == config
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "config.json")
            path.write_text(json.dumps(data))
            assert main(["evolve", command, "--config", str(path),
                         "--out", str(Path(tmp, "out.csv"))]) in (0, 2)


# the gamma*t at which the channel contract reads the squeezing angle
GAMMA_T = [0.0, 1e-6, 0.5, 1.0, 4.0, 40.0]


@st.composite
def contract_baths(draw):
    """(gamma, N, M1, M2): gamma log-uniform over [5e-324, 1e300], N <= 1e6, and M inside
    or on the bound |M|^2 = N(N+1), with M1 and M2 of either sign down to 1e-300."""
    gamma = max(5e-324, 10.0 ** draw(st.floats(math.log10(5e-324), 300.0)))
    n = draw(st.sampled_from([0.0, 1.0, 1e6]) | st.floats(0.0, 1e6))
    m = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)) * math.sqrt(n * (n + 1.0))
    angle = draw(st.floats(-math.pi, math.pi))
    tiny = st.sampled_from([1e-300, -1e-300])
    return (gamma, n, draw(st.just(m * math.cos(angle)) | tiny),
            draw(st.just(m * math.sin(angle)) | tiny))


class TestChannelContract:
    @settings(max_examples=60)
    @given(contract_baths(), st.sampled_from(["time", "r0-sweep", "ratio"]),
           st.floats(0.0, 3.0), st.floats(-4.0, 4.0), st.sampled_from(GAMMA_T),
           st.floats(0.05, 4.0))
    # phi_of_t and phi_inf once gave pi; ratio at gamma = 5e-324 once read 1.0;
    # the oracle at gamma*h = 10 once returned sxx = -2.46e7
    @example((1.0, 1.0, -0.5, -1e-300), "ratio", 1.0, 0.0, 1.0, 0.1)
    @example((5e-324, 1.0, 0.0, 0.0), "ratio", 1.0, 0.0, 1.0, 0.1)
    @example((10.0, 1.0, 0.0, 0.0), "r0-sweep", 0.0, 0.0, 30.0, 10.0)
    def test_angles_tables_and_oracle(self, values, command, r, phi, gt, gamma_step):
        # every table exits 0 with finite rows, or 2, and writes what it writes at gamma = 1
        with tempfile.TemporaryDirectory() as tmp:
            written = []
            for gamma in (values[0], 1.0):
                config = {"bath": dict(zip(("gamma", "N", "M1", "M2"), (gamma, *values[1:])))}
                if command == "time":
                    config["t_grid"] = [0.0, 0.5, 2.0]
                path, out = Path(tmp, "config.json"), Path(tmp, f"{gamma!r}.csv")
                path.write_text(json.dumps(config))
                code = main(["evolve", command, "--config", str(path), "--out", str(out)])
                assert code in (0, 2)
                written.append(out.read_bytes() if code == 0 else code)
            assert written[0] == written[1]
            if code == 0:
                rows = [line.split(",") for line in written[0].decode().splitlines()[1:]]
                # the time table's first column is the input's label
                cells = [v for row in rows for v in row[command == "time":]]
                assert all(math.isfinite(float(v)) for v in cells)
        try:
            bath = BathParams(*values)
        except UnphysicalBathError:
            return
        # every angle lies in [0, pi)
        params = GaussianParams(r=r, phi=phi)
        times = np.array([v / bath.gamma for v in GAMMA_T])       # inf, not a warning
        for angle in (*phi_of_t(params, bath, times), *trajectory(params, bath, times).phis,
                      phi_of_t(params, bath, gt / bath.gamma), channel_asymptote(bath).phi_inf):
            assert 0.0 <= angle < math.pi
        # the oracle returns a physical state, det >= 1/4 to the rounding of its entries,
        # or raises ValueError
        try:
            cov = integrate_cov_ode(GaussianState.from_params(params), bath, gt / bath.gamma,
                                    gamma_step / bath.gamma).cov
        except ValueError:
            return
        scale = cov.sxx * cov.spp + cov.sxp * cov.sxp
        assert cov.sxx > 0 and cov.spp > 0 and cov.det >= 0.25 * (1 - 1e-10) - 1e-12 * scale


def test_public_surface():
    # a new public name is added here on purpose
    assert set(gausspurity.__all__) == {
        "BathParams", "ChannelAsymptote", "CovMatrix", "DegenerateSampleError",
        "EstimationMethod", "ExperimentConfig",
        "ExperimentReport", "GaussPurityError", "GaussianParams", "GaussianState",
        "HomodyneBatch", "InsufficientDataError", "MomentEstimate", "PhysicalityError",
        "PurityEstimate", "QSampleBatch", "SweepRow", "Trajectory",
        "UnphysicalBathError", "UnsupportedConditionError", "asymptotic_cov",
        "channel_asymptote", "cov_from_params", "emit", "error_scaling_sweep",
        "estimate_purity_homodyne", "evolve_cov", "gaussian_weighted_integral",
        "has_purity_minimum", "homodyne_variance", "integrate_cov_ode", "moments_from_q",
        "mu_of_t", "mu_optimal", "optimal_input", "params_from_cov", "phi_of_t", "purity",
        "purity_by_phase_space_integral", "purity_from_moments", "purity_from_q",
        "purity_from_three_quadratures", "q_covariance", "r_of_t", "run_experiment",
        "sample_homodyne", "sample_q", "seralian", "trajectory",
        # the modules behind them
        "channel", "errors", "estimation", "experiments", "sampling", "states"}


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
        config_path.write_text(json.dumps(asdict(small_config(
            "fig_varnx", trials=2,
            state=GaussianParams(nbar=0.5, r=0.5)))))
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

    @pytest.mark.filterwarnings("error")    # a warning would be a second line on stderr
    @pytest.mark.parametrize("method, text, message", [
        ("q", "x,p\n", "no data rows after the CSV header 'x,p'"),
        ("three-quadrature", "theta,value\n",
         "no data rows after the CSV header 'theta,value'"),
        ("q", "x,p\n0.1,0.2\nnan,0.3\n0.4,0.5\n", "Q pairs must be finite"),
        ("three-quadrature",
         "".join(["theta,value\n"] + [f"{th!r},{v}\n"
                                        for th in (0.0, math.pi / 4, math.pi / 2)
                                        for v in (0.1, "inf" if th else -0.2, 0.3)]),
         "homodyne theta and values must be finite, theta=0.7853981633974483")],
        ids=["q-header-only", "homodyne-header-only", "q-nan", "homodyne-inf"])
    def test_unusable_record_is_one_json_line(self, tmp_path, capsys, method, text, message):
        data = tmp_path / "record.csv"
        data.write_text(text)
        assert main(["estimate", "--method", method, "--input", str(data)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert json.loads(err)["message"].endswith(message)

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
         "BathParams(gamma=1.0, N=1e+200, M1=0.0, M2=0.0)"),
        (["sample", "--kind", "homodyne", "--n", "10", "--theta", "inf"], "ValueError",
         "homodyne theta must be finite, got theta=inf")],
        ids=["r400", "nbar-nan", "bath-n-nan", "bath-n-inf", "bath-n-1e200", "theta-inf"])
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

    @pytest.mark.parametrize("command, config, error", [
        (("figure", "varnx"), '{"n_grid": [1000, Infinity]}', "ValueError"),
        (("figure", "varnx"), '{"trials": 2.5}', "ValueError"),
        (("figure", "varnx"), '{"seed": 1.5}', "ValueError"),
        (("figure", "varnx"), '{"resamples": 2.5}', "ValueError"),
        (("figure", "varnx"), '{"trials": "3"}', "ValueError"),
        (("figure", "varnx"), '{"level": "0.5"}', "ValueError"),
        (("evolve", "time"), '{"t_grid": [0.0, Infinity]}', "ValueError"),
        (("evolve", "time"), '{"t_grid": [0, NaN, 1]}', "ValueError"),
        (("evolve", "time"), '{"bath": {"N": 1.0, "M1": 1.5}}', "UnphysicalBathError"),
        # each of these once ended in a traceback, or ran for hours
        (("evolve", "time"), '{"bogus": 1}', "ValueError"),
        (("evolve", "time"), '{"state": {"q": 1}}', "ValueError"),
        (("evolve", "time"), '{"bath": {"N": "1"}}', "UnphysicalBathError"),
        (("evolve", "time"), '{"state": {"r": "1"}}', "ValueError"),
        (("evolve", "time"), '[1, 2]', "ValueError"),
        (("evolve", "time"), '{"state": [1]}', "ValueError"),
        (("evolve", "time"), '{"bath": 5}', "ValueError"),
        (("evolve", "time"), '{"t_grid": [0, 1e308]}', "ValueError"),
        (("evolve", "time"), '{"t_grid": [0, 1e12]}', "ValueError"),
        (("figure", "varnx"), '{"n_grid": [30], "bath": {"N": 1.0}}', "ValueError"),
        (("figure", "varr"), '{"n_grid": [10, 30]}', "ValueError"),
        (("evolve", "time"), '{"state": {"nbar": 0.5, "r": 1.5}}', "ValueError"),
        # integers too large for a float once ended in an OverflowError traceback
        (("figure", "varnx"), '{"state": {"nbar": %s}}' % HUGE, "ValueError"),
        (("evolve", "time"), '{"bath": {"N": %s}}' % HUGE, "UnphysicalBathError"),
        (("evolve", "time"), '{"t_grid": [0, %s]}' % HUGE, "ValueError"),
        (("figure", "varnx"), '{"n_grid": [30, %s]}' % HUGE, "ValueError"),
        # a grid that is not a list once ended in a traceback or was split into characters
        (("evolve", "time"), '{"t_grid": 3}', "ValueError"),
        (("evolve", "time"), '{"t_grid": "01"}', "ValueError"),
        # JSON true was once taken as the number 1, and a negative seed failed in numpy
        (("figure", "varnth"), '{"trials": true}', "ValueError"),
        (("evolve", "time"), '{"bath": {"N": true}}', "UnphysicalBathError"),
        (("figure", "varnx"), '{"state": {"r": true}}', "ValueError"),
        (("figure", "varnx"), '{"seed": -1}', "ValueError"),
        # no evolution draws: its trials were once accepted, ignored and echoed
        (("evolve", "ratio"), '{"trials": 5}', "ValueError")],
        ids=["n_grid-inf", "trials-float", "seed-float", "resamples-float", "trials-str",
             "level-str", "t_grid-inf", "t_grid-nan", "bath-unphysical", "unknown-key",
             "unknown-state-key", "bath-str", "state-str", "not-an-object",
             "state-not-an-object", "bath-not-an-object", "t_grid-1e308", "t_grid-1e12",
             "figure-bath", "varr-n_grid", "evolve-state", "state-huge-int",
             "bath-huge-int", "t_grid-huge-int", "n_grid-huge-int", "t_grid-int",
             "t_grid-str", "trials-true", "bath-true", "state-true", "seed-negative",
             "evolve-trials"])
    def test_bad_config_is_json_error(self, tmp_path, capsys, command, config, error):
        config_path = tmp_path / "config.json"
        config_path.write_text(config)
        out = tmp_path / "out.csv"
        assert main([*command, "--config", str(config_path), "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == error
        assert not out.exists()

    def test_evolve_time_report_echoes_the_defaults_it_used(self, tmp_path):
        # the report once recorded an unused state and bath: null, t_grid: null
        report, direct, refed = (tmp_path / n for n in ("time.json", "a.csv", "b.csv"))
        assert main(["evolve", "time", "--format", "json", "--out", str(report)]) == 0
        config = json.loads(report.read_text())["config"]
        assert config["state"] is None
        assert config["bath"] == {"gamma": 1.0, "N": 0.5, "M1": 0.0, "M2": 0.0}
        assert config["t_grid"] == DEFAULT_T_GRID
        assert [config[k] for k in ("trials", "seed", "resamples", "level")] == [None] * 4
        assert json.loads(report.read_text())["provenance"]["seed"] is None
        assert main(["evolve", "time", "--out", str(direct)]) == 0
        assert main(["evolve", "time", "--config", str(report), "--out", str(refed)]) == 0
        assert refed.read_bytes() == direct.read_bytes()

    @pytest.mark.parametrize("flag", [["--trials", "5"], ["--seed", "3"]],
                             ids=["trials", "seed"])
    def test_evolve_takes_no_seed_or_trials(self, tmp_path, capsys, flag):
        # no evolution table draws: these flags were once accepted and ignored
        out = tmp_path / "time.csv"
        with pytest.raises(SystemExit) as info:
            main(["evolve", "time", *flag, "--out", str(out)])
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_json_report_with_a_squeezed_bath_refeeds_to_the_same_csv(self, tmp_path):
        bath = ["--bath-n", "1.0", "--bath-m1", "0.5", "--bath-m2", "0.3"]
        report, direct, refed = (tmp_path / n for n in ("time.json", "a.csv", "b.csv"))
        assert main(["evolve", "time", *bath, "--format", "json", "--out", str(report)]) == 0
        assert json.loads(report.read_text())["config"]["bath"] == {
            "gamma": 1.0, "N": 1.0, "M1": 0.5, "M2": 0.3}
        assert main(["evolve", "time", *bath, "--out", str(direct)]) == 0
        assert main(["evolve", "time", "--config", str(report), "--out", str(refed)]) == 0
        assert refed.read_bytes() == direct.read_bytes()

    def test_bath_flags_override_a_config_bath(self, tmp_path):
        # the bath flags were once dropped whenever --config was given
        report, direct, refed = (tmp_path / n for n in ("ratio.json", "a.csv", "b.csv"))
        assert main(["evolve", "ratio", "--bath-n", "1", "--format", "json",
                     "--out", str(report)]) == 0
        assert main(["evolve", "ratio", "--bath-n", "3", "--out", str(direct)]) == 0
        assert main(["evolve", "ratio", "--config", str(report), "--bath-n", "3",
                     "--out", str(refed)]) == 0
        assert refed.read_bytes() == direct.read_bytes()

    @pytest.mark.parametrize("argv, message", [
        (["evolve", "ratio", "--gamma", "2", "--bath-m1", "0.4"],
         "--gamma, --bath-m1 and --bath-m2 set a bath, which needs --bath-n"),
        (["evolve", "r0-sweep", "--bath-n", "5"],
         "experiment 'evolution_r0_sweep' takes no bath; only 'evolution_time' "
         "and 'ratio_check' do")],
        ids=["bath-without-n", "r0-sweep-bath"])
    def test_bad_flags_are_json_error(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out.csv"
        assert main([*argv, "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err) == {"error": "ValueError",
                                                       "message": message}
        assert not out.exists()

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
