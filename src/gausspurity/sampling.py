"""Seeded synthetic measurement records for Gaussian states.

Two kinds of records are generated:

* joint (heterodyne-style) samples of conjugate quadrature pairs,
  distributed according to the Husimi Q-function of the state, which for
  a Gaussian state is a Gaussian with covariance sigma + I/2 -- the extra
  vacuum unit is forced by antinormal ordering, so that
  E_Q[x^2] - 1/2 = <x^2>;
* single-quadrature (balanced homodyne) samples of the rotated quadrature
  x_theta, Gaussian with variance u^T sigma u, u = (cos theta, sin theta).

All generators are backed by the counter-based Philox bit generator, so a
given (state, n, seed) triple produces a bit-identical record regardless
of what else has been sampled, and parallel batch generation with derived
seeds is schedule-independent.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .states import GaussianState, _finite, _number

CSV_Q_HEADER = "x,p"
CSV_HOMODYNE_HEADER = "theta,value"


def make_rng(seed) -> np.random.Generator:
    """Philox Generator from an integer seed >= 0 or a SeedSequence; a Generator passes."""
    if isinstance(seed, np.random.Generator):
        return seed
    if not isinstance(seed, np.random.SeedSequence):
        _check_integer("seed", seed, 0)
    return np.random.Generator(np.random.Philox(seed))


def _check_integer(name: str, value, low: int):
    """Reject a value that is not an integer (a bool is not one) or is below low."""
    if not _number(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


@dataclass(frozen=True)
class QSampleBatch:
    """Joint-quadrature record: an (n, 2) array of (x, p) pairs."""

    pairs: np.ndarray

    def __post_init__(self):
        pairs = np.atleast_2d(np.asarray(self.pairs, dtype=float))
        if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.shape[0] < 1:
            raise ValueError(f"pairs must have shape (n >= 1, 2), got {pairs.shape}")
        if not np.isfinite(pairs).all():
            raise ValueError("Q pairs must be finite")
        object.__setattr__(self, "pairs", pairs)

    @property
    def n(self) -> int:
        return self.pairs.shape[0]

    @property
    def x(self) -> np.ndarray:
        return self.pairs[:, 0]

    @property
    def p(self) -> np.ndarray:
        return self.pairs[:, 1]

    def to_csv(self, path):
        _write_csv(path, CSV_Q_HEADER, self.pairs)

    @classmethod
    def from_csv(cls, path) -> "QSampleBatch":
        return cls(pairs=_read_csv(path, CSV_Q_HEADER))


@dataclass(frozen=True)
class HomodyneBatch:
    """Single-quadrature record at fixed phase theta."""

    theta: float
    values: np.ndarray

    def __post_init__(self):
        values = np.atleast_1d(np.asarray(self.values, dtype=float))
        if not (math.isfinite(self.theta) and np.isfinite(values).all()):
            raise ValueError(f"homodyne theta and values must be finite, theta={self.theta}")
        if values.ndim != 1 or values.size < 2:
            raise ValueError(
                f"need at least 2 homodyne values (variance must be estimable), "
                f"got {values.size}")
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.size

    def to_csv(self, path):
        write_homodyne_batches([self], path)

    @classmethod
    def from_csv(cls, path) -> "HomodyneBatch":
        groups = read_homodyne_batches(path)
        if len(groups) != 1:
            raise ValueError(
                f"{path}: expected a single quadrature phase, found {len(groups)}; "
                "use read_homodyne_batches for mixed-phase files")
        return next(iter(groups.values()))


def read_homodyne_batches(path) -> dict:
    """Read a mixed-phase homodyne CSV, grouped by theta."""
    rows = _read_csv(path, CSV_HOMODYNE_HEADER)
    return {float(t): HomodyneBatch(theta=float(t), values=rows[rows[:, 0] == t, 1])
            for t in np.unique(rows[:, 0])}


def write_homodyne_batches(batches, path):
    """Write several homodyne batches into one mixed-phase CSV."""
    rows = np.vstack([np.column_stack([np.full(b.n, b.theta), b.values])
                      for b in batches])
    _write_csv(path, CSV_HOMODYNE_HEADER, rows)


def _write_csv(path, header: str, rows: np.ndarray):
    """The record CSV format: a header line, then rows of %.17g fields."""
    line = "%.17g," * (rows.shape[1] - 1) + "%.17g\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        # one %-format per block of 8192 rows, not one per row as np.savetxt does
        for block in np.split(rows, range(8192, rows.shape[0], 8192)):
            fh.write(line * block.shape[0] % tuple(block.ravel().tolist()))


def _read_csv(path, header: str) -> np.ndarray:
    with open(path) as fh:
        if (found := fh.readline().rstrip("\n")) != header:
            raise ValueError(f"{path}: expected CSV header {header!r}, found {found!r}")
        start = fh.tell()
        if not fh.readline().strip():       # else loadtxt warns on stderr, returns no rows
            raise ValueError(f"{path}: no data rows after the CSV header {header!r}")
        fh.seek(start)
        return np.loadtxt(fh, delimiter=",", ndmin=2)


def q_covariance(state: GaussianState) -> np.ndarray:
    """Covariance sigma + I/2 of the Husimi Q-function of the state."""
    return _q_covariance(state)


def _q_covariance(state: GaussianState) -> np.ndarray:
    return state.cov.matrix + 0.5 * np.eye(2)


def sample_q(state: GaussianState, n: int, seed) -> QSampleBatch:
    """Draw n joint-quadrature pairs from the Q-function of the state."""
    _check_integer("Q-sample count n", n, 1)
    return QSampleBatch(pairs=_q_pairs(state, n, make_rng(seed)))


def _q_pairs(state: GaussianState, n: int, rng: np.random.Generator, out=None) -> np.ndarray:
    """n Q-pairs mean + z chol^T, drawn into out (a new (n, 2) array if None) in place."""
    state.cov.require_physical()
    chol = np.linalg.cholesky(_q_covariance(state))
    z = rng.standard_normal((n, 2), out=out)
    # small overlap copies, same bits; no block of one row, which numpy
    # multiplies by another kernel with other roundings
    for block in np.split(z, range(4096, n - 1, 4096)):
        np.matmul(block, chol.T, out=block)
    for col, m in zip(z.T, state.mean):     # per column: same bits, no per-row loop
        col += m
    return z


def homodyne_variance(state: GaussianState, theta: float) -> float:
    """Variance u^T sigma u of the rotated quadrature x_theta.

    Equals (1/2mu)*(exp(-2r)*cos^2(theta + phi) + exp(2r)*sin^2(theta + phi))
    in the phenomenological parametrization: with the sigma_ij sign
    convention used throughout, the squeezed principal axis of a state
    with angle phi sits at quadrature phase -phi.
    """
    if not _finite(theta):
        raise ValueError(f"homodyne theta must be finite, got theta={theta}")
    return _homodyne_variance(state.cov, theta)


def _homodyne_variance(cov, theta: float) -> float:
    """u^T sigma u; where v^T sigma v is larger, v = u turned by pi/2, from the identity
    (u^T sigma u)(v^T sigma v) - (u^T sigma v)^2 = det sigma, which cancels nowhere."""
    c, s = math.cos(theta), math.sin(theta)
    var = cov.sxx * c * c + 2.0 * cov.sxp * c * s + cov.spp * s * s
    var_v = cov.sxx * s * s - 2.0 * cov.sxp * c * s + cov.spp * c * c
    cross = (cov.spp - cov.sxx) * c * s + cov.sxp * (c * c - s * s)
    return var if var >= var_v else (cov.det + cross * cross) / var_v


def sample_homodyne(state: GaussianState, theta: float, n: int, seed) -> HomodyneBatch:
    """Draw n balanced-homodyne outcomes of the quadrature x_theta."""
    state.cov.require_physical()
    _check_integer("homodyne sample count n", n, 2)
    rng = make_rng(seed)
    sd = math.sqrt(homodyne_variance(state, theta))     # checks theta
    values = (state.x0 * math.cos(theta) + state.p0 * math.sin(theta)
              + sd * rng.standard_normal(n))
    return HomodyneBatch(theta=theta, values=values)
