"""The RK4 oracle steps each component in Python floats with the bits of the vector form.

_vector_rk4 is the 5-vector numpy step that integrate_cov_ode once took (its
body after the argument checks), kept verbatim as the reference.  IEEE + - * /
round a Python float as they round a float64 array element, so the two agree
byte for byte as long as every operation is done in the same order.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gausspurity import (BathParams, CovMatrix, GaussianParams, GaussianState,
                         asymptotic_cov, integrate_cov_ode)


def _vector_rk4(state, bath, t, step):
    sinf = asymptotic_cov(bath)
    g = bath.gamma
    target = np.array([sinf.sxx, sinf.spp, sinf.sxp, 0.0, 0.0])
    rate = np.array([g, g, g, 0.5 * g, 0.5 * g])
    y = np.array([state.cov.sxx, state.cov.spp, state.cov.sxp, state.x0, state.p0])

    def f(y):
        return rate * (target - y)

    n_steps = max(1, int(math.ceil(t / step - 1e-12)))
    h = t / n_steps
    for _ in range(n_steps):
        k1 = f(y)
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return GaussianState(cov=CovMatrix(sxx=y[0], spp=y[1], sxp=y[2]),
                         x0=y[3], p0=y[4])


def _bytes(state):
    return np.array([state.cov.sxx, state.cov.spp, state.cov.sxp, state.x0, state.p0],
                    dtype=float).tobytes()


# Halving is exact above the subnormals, so only there can 0.5*(h*k) round otherwise
# than (0.5*h)*k; the draws reach them, and the third example below pins a case where
# either half-step differs in the result.
means = (st.sampled_from([0.0, -0.0]) | st.floats(-1e3, 1e3)
         | st.integers(-2**52, 2**52).map(lambda k: k * 5e-324))
angles = st.floats(-100.0, 100.0)


@st.composite
def states(draw):
    return GaussianState.from_params(GaussianParams(
        x0=draw(means), p0=draw(means), nbar=draw(st.floats(0.0, 50.0)),
        r=draw(st.floats(0.0, 12.0)), phi=draw(angles)))


@st.composite
def baths(draw):
    """Thermal (|M| = 0) to squeezed on the bound |M|^2 = N(N+1) at N <= 10, within
    0.998 of it above, where the bound's rounding would exceed the bath check's slack."""
    on_bound = draw(st.booleans())
    n = draw(st.floats(0.0, 10.0) if on_bound else st.floats(10.0, 1e6))
    top = 1.0 if on_bound else 0.998
    m = draw(st.sampled_from([0.0, top]) | st.floats(0.0, top)) * math.sqrt(n * (n + 1.0))
    angle = draw(angles)
    return BathParams(gamma=draw(st.floats(0.1, 10.0)), N=n,
                      M1=m * math.cos(angle), M2=m * math.sin(angle))


# gamma*step up to 3 reaches past RK4's stability bound, about 2.785, where the
# oracle raises: it once returned sxx = -2.46e7 at gamma*h = 10 (the closed form: 1.5)
@given(states(), baths(), st.floats(0.0, 300.0), st.floats(1e-4, 3.0),
       st.sampled_from([float, np.float64]))
@example(GaussianState(CovMatrix(0.5, 0.5, -0.0), x0=-0.0, p0=-0.0), BathParams(),
         1.0, 0.05, float)
@example(GaussianState.vacuum(), BathParams(N=0.5, M1=math.sqrt(0.75)), 0.0, 5e-3,
         np.float64)
@example(GaussianState(CovMatrix(0.5, 0.5), x0=-5.09175e-318, p0=3e-310),
         BathParams(gamma=9.6), 22.0, 0.2, float)
def test_component_steps_match_the_vector_step_bit_for_bit(state, bath, steps, gamma_step,
                                                           kind):
    # run_evolution_time passes numpy times; a caller may pass Python floats
    step = gamma_step / bath.gamma
    t = kind(steps * step)
    if bath.gamma * float(t / max(1, int(math.ceil(t / step - 1e-12)))) > 2.78:
        with pytest.raises(ValueError, match="2.785"):
            integrate_cov_ode(state, bath, t, step)
        return
    assert _bytes(integrate_cov_ode(state, bath, t, step)) == _bytes(
        _vector_rk4(state, bath, t, step))


def test_chained_legs_match_the_vector_step_bit_for_bit():
    # as run_evolution_time chains them: each leg starts from the last one's output
    bath = BathParams(N=0.5, M1=0.3, M2=-0.4)
    got = ref = GaussianState.from_params(GaussianParams(x0=1.0, p0=-2.0, r=1.5, phi=0.4))
    for dt in np.diff(np.linspace(0.0, 5.0, 51)):
        got, ref = integrate_cov_ode(got, bath, dt, 5e-3), _vector_rk4(ref, bath, dt, 5e-3)
        assert _bytes(got) == _bytes(ref)
