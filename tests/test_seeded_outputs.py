"""Golden values of seeded outputs: rows, intervals and written bytes.

Every seeded output of the library is meant to stay bit-identical unless a
change declares otherwise.  This module pins a set of small seeded runs:
the four Monte Carlo figure runners (trials 1 and 3, seeds 0 and 5,
degenerate-prone sample sizes), both error-scaling sweep methods
(trials 1, 2 and 5), nonparametric `purity_from_q` and
`estimate_purity_homodyne` intervals at five levels each, the sha256 of
the files written by the CSV writers and `emit`, and the closed-form
channel outputs: the rows of the three evolution runners, the four
columns of one `trajectory` (t = 0 and gamma*t = 1e-6 included) and
scalar mu/r/phi(t).  Floats are compared exactly (NaN equal to NaN)
together with the Python type of every value; JSON round-trips the repr
of a float exactly.

A change that alters a pinned output on purpose regenerates the data with

    PYTHONPATH=src python tests/test_seeded_outputs.py

and says in CHANGES.md which outputs changed.  With --diff the same command
writes nothing, prints the name of each case whose value would change, and
exits 1 if it printed any, else 0.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from gausspurity.channel import (BathParams, mu_of_t, phi_of_t, r_of_t,
                                 trajectory)
from gausspurity.estimation import (EstimationMethod, error_scaling_sweep,
                                    estimate_purity_homodyne, purity_from_q)
from gausspurity.experiments import (DEFAULT_STATE, ExperimentConfig, emit,
                                     run_experiment)
from gausspurity.sampling import (HomodyneBatch, QSampleBatch, sample_homodyne,
                                  sample_q, write_homodyne_batches)
from gausspurity.states import GaussianParams, GaussianState

DATA = Path(__file__).parent / "data" / "seeded_outputs.json"

_GRIDS = {"fig_varnx": {"n_grid": [10, 30]},
          "fig_trequad": {"n_grid": [10, 30]},
          "fig_varr": {"r_grid": [0.0, 1.0]},
          "fig_varnth": {"nbar_grid": [0.1, 2.0]}}


def _typed(value):
    """[type name, value], so that an int/float or float/float64 swap shows."""
    return [type(value).__name__, value]


def _report(experiment, **kw):
    report = run_experiment(ExperimentConfig(experiment=experiment, **kw))
    return {"columns": report.columns,
            "rows": [{k: _typed(v) for k, v in row.items()} for row in report.rows]}


def _figure(experiment, trials, seed):
    return _report(experiment, trials=trials, seed=seed, resamples=200, level=0.9,
                   **_GRIDS[experiment])


def _state():
    return GaussianState.from_params(DEFAULT_STATE)


def _sweep(method, trials):
    rows = error_scaling_sweep(_state(), method, [6, 30, 300, 3000], trials, seed=3)
    return [{k: _typed(v) for k, v in dataclasses.asdict(row).items()}
            for row in rows]


def _q_ci(level=0.68):
    # n = 20000 puts the B = 250 resamples in 20 row blocks of at most 13
    batch = sample_q(_state(), 20_000, seed=11)
    pe = purity_from_q(batch, resamples=250, level=level, seed=12)
    return {k: _typed(v) for k, v in pe.to_dict().items()}


def _homodyne_ci(level=0.68):
    # 10000 values per phase make the bootstrap run in two chunks
    batches = [sample_homodyne(_state(), th, 10_000, seed=20 + i)
               for i, th in enumerate((0.0, math.pi / 4, math.pi / 2))]
    pe = estimate_purity_homodyne(*batches, resamples=250, level=level, seed=13)
    return {k: _typed(v) for k, v in pe.to_dict().items()}


# further levels pin about ten order statistics of each bootstrap, not two
_CI_LEVELS = (0.2, 0.5, 0.9, 0.99)


def _sha256_of(write):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out")
        write(path)
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _homodyne_batches():
    children = np.random.SeedSequence(31).spawn(3)
    return [sample_homodyne(_state(), th, 30 + i, seed=child)
            for i, (th, child) in enumerate(zip((0.0, math.pi / 4, math.pi / 2),
                                                children))]


def _csv_hashes():
    report = run_experiment(ExperimentConfig(experiment="fig_trequad",
                                             n_grid=[10, 30], trials=3, seed=5))
    return {
        "QSampleBatch.to_csv": _sha256_of(sample_q(_state(), 50, seed=21).to_csv),
        "QSampleBatch.to_csv.one_row": _sha256_of(
            QSampleBatch(pairs=[[0.1, -2.5e-17]]).to_csv),
        "HomodyneBatch.to_csv": _sha256_of(
            sample_homodyne(_state(), math.pi / 4, 40, seed=22).to_csv),
        "HomodyneBatch.to_csv.small": _sha256_of(
            HomodyneBatch(theta=0.0, values=[1.0, -3e300]).to_csv),
        "write_homodyne_batches": _sha256_of(
            lambda path: write_homodyne_batches(_homodyne_batches(), path)),
        "emit.csv": _sha256_of(lambda path: emit(report, path, "csv")),
        "emit.json": _sha256_of(lambda path: emit(report, path, "json")),
    }


# A squeezed bath with both M1 and M2 set, and an input off every axis.
_SQUEEZED_BATH = BathParams(gamma=2.0, N=0.7, M1=0.3, M2=-0.4)
_EVOLVED_INPUT = GaussianParams(x0=0.3, p0=-0.2, nbar=0.4, r=0.8, phi=0.7)
_EVOLUTION_T_GRID = [0.0, 1e-6, 0.1, 1.0, 5.0]


def _trajectory_columns():
    # gamma*t = 0, 1e-6, 0.5, 2 and 8
    traj = trajectory(_EVOLVED_INPUT, _SQUEEZED_BATH, [0.0, 5e-7, 0.25, 1.0, 4.0])
    return {f.name: {"dtype": str(getattr(traj, f.name).dtype),
                     "values": getattr(traj, f.name).tolist()}
            for f in dataclasses.fields(traj)}


def _scalar_closed_forms():
    out = {}
    for label, state, bath in (("thermal", DEFAULT_STATE, BathParams(N=0.5)),
                               ("squeezed", _EVOLVED_INPUT, _SQUEEZED_BATH)):
        for t in (0.0, 1e-9, 0.35, 3.0):
            out[f"{label}.t{t!r}"] = [_typed(f(state, bath, t))
                                      for f in (mu_of_t, r_of_t, phi_of_t)]
    return out


CASES = {
    **{f"{e}.trials{t}.seed{s}": (lambda e=e, t=t, s=s: _figure(e, t, s))
       for e in _GRIDS for t in (1, 3) for s in (0, 5)},
    **{f"sweep.{m.value}.trials{t}": (lambda m=m, t=t: _sweep(m, t))
       for m in EstimationMethod for t in (1, 2, 5)},
    "purity_from_q.nonparametric": _q_ci,
    "estimate_purity_homodyne": _homodyne_ci,
    **{f"purity_from_q.nonparametric.level{lv}": (lambda lv=lv: _q_ci(lv))
       for lv in _CI_LEVELS},
    **{f"estimate_purity_homodyne.level{lv}": (lambda lv=lv: _homodyne_ci(lv))
       for lv in _CI_LEVELS},
    "csv_sha256": _csv_hashes,
    "evolution_time.default_bath": lambda: _report(
        "evolution_time", t_grid=_EVOLUTION_T_GRID),
    "evolution_time.squeezed_bath": lambda: _report(
        "evolution_time", t_grid=_EVOLUTION_T_GRID, bath=_SQUEEZED_BATH),
    "evolution_r0_sweep": lambda: _report(
        "evolution_r0_sweep", r_grid=[0.0, 0.3, 1.5, 3.0]),
    "ratio_check.default_bath": lambda: _report("ratio_check"),
    "ratio_check.squeezed_bath": lambda: _report("ratio_check", bath=_SQUEEZED_BATH),
    "trajectory.columns": _trajectory_columns,
    "closed_forms.scalar": _scalar_closed_forms,
}


def _same(actual, expected) -> bool:
    # repr tells -0.0 from 0.0 and makes NaN equal to NaN
    if isinstance(expected, float):
        return repr(actual) == repr(expected)
    return actual == expected


def _compare(actual, expected, where):
    """Exact comparison of two JSON-shaped values; NaN equals NaN."""
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and actual.keys() == expected.keys(), where
        for k in expected:
            _compare(actual[k], expected[k], f"{where}.{k}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), where
        for i, (a, e) in enumerate(zip(actual, expected)):
            _compare(a, e, f"{where}[{i}]")
    else:
        assert type(actual) is type(expected) and _same(actual, expected), (
            f"{where}: {actual!r} != {expected!r}")


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA.read_text())


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_seeded_output_is_bit_identical(golden, name):
    # a JSON round trip turns tuples into lists, as in the golden file
    actual = json.loads(json.dumps(CASES[name]()))
    _compare(actual, golden[name], name)


def _moved(golden) -> list:
    """Names of the cases whose value differs from the golden file, or is not in it."""
    moved = []
    for name in sorted(set(CASES) | set(golden)):
        try:
            _compare(json.loads(json.dumps(CASES[name]())), golden[name], name)
        except (AssertionError, KeyError):
            moved.append(name)
    return moved


if __name__ == "__main__":
    if sys.argv[1:] == ["--diff"]:
        moved = _moved(json.loads(DATA.read_text()))
        for name in moved:
            print(name)
        sys.exit(1 if moved else 0)
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps({name: case() for name, case in sorted(CASES.items())},
                               indent=1) + "\n")
    print(f"wrote {len(CASES)} cases to {DATA}")
