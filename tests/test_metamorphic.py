"""Metamorphic tests from exact symmetries of the model.

Velocity-time scaling: for lam > 0 the map
(nu, nu_t, g(t), v0, T, dt) -> (lam nu, nu_t, lam g(lam t), lam v0, T/lam, dt/lam)
sends the reduced solution z(t) to z'(t/lam) = lam z(t). Every term of the
reduced equation scales by lam^2: dz/dt, nu visc z, the convection (C y) y,
the closure 2 nu_t |eps| eps and H_g = -P gdot - (R g) g. Implicit Euler and
RK4 inherit the map step by step, and at lam = 2 every scaling is a power of
two, exact in floating point. The oracle shares no formulation with the code
under test: it sees errors of power, of scale and of time units that the
skew pairing, the energy identity and zero net flux all pass.
"""

import json

import numpy as np
import pytest

from recirc.config import build_scenario, preset_path, validate

T, DT, MODES, TOL = 0.3, 0.01, 10, 1e-12


def scaled_scenario(lam):
    """four_pumps at 16^2 on 10 modes from a vortex start, under the
    velocity-time scaling by lam."""
    cfg = json.loads(preset_path("four_pumps").read_text())
    cfg["fluid"]["nu"] *= lam
    for pump in cfg["pumps"]:
        pump["schedule"] = [[t / lam, lam * g] for t, g in pump["schedule"]]
    cfg["initial"] = {"preset": "vortex", "amplitude": 0.5 * lam}
    cfg["time"].update(T=T / lam, dt=DT / lam)
    return build_scenario(validate(cfg), modes=MODES).built()


@pytest.fixture(scope="module")
def scaled_pair():
    return scaled_scenario(1), scaled_scenario(2)


@pytest.mark.parametrize("scheme", ["implicit-euler", "explicit-rk4"])
def test_velocity_time_scaling(scaled_pair, scheme):
    # z'(k dt/2) = 2 z(k dt) at every step. The implicit-Euler defect
    # z - z_old + dt F scales by 2, and each Newton solve stops within TOL of
    # its root (the Newton matrix I + dt J is near the identity at this dt),
    # so each run drifts from its exact discrete solution by at most
    # n_steps TOL: 2 n TOL from the doubled run, n TOL from the scaled one.
    # RK4 has no solve, so only roundoff separates the two (it is 0 today).
    base, scaled = scaled_pair
    a = base.system.integrate(base.state0, T, DT, scheme=scheme, tol=TOL)
    b = scaled.system.integrate(scaled.state0, T / 2, DT / 2, scheme=scheme, tol=TOL)
    assert np.array_equal(2 * b.times, a.times)
    scale = np.abs(a.states).max()
    assert scale > 1e-3  # the vortex and the pumps both drive the run
    n_steps = len(a.times) - 1
    bound = 3 * n_steps * TOL if scheme == "implicit-euler" else 1e-13 * scale
    assert np.abs(b.states - 2 * a.states).max() <= bound
