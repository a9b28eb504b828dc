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

The square's dihedral group: on an even mesh the mirror x -> L - x, the 90
degree rotation and the point reflection map `build_rect_mesh`'s cells
onto themselves, diagonals included, and the model is invariant under
every rotation and reflection. A pump moved by one of them drives the
image of the flow, so every span-level output agrees: the ledger's columns
and ||v||. The z columns themselves rotate inside the degenerate pairs of
the basis, so they do not compare. The oracle sees orientation errors:
a side's arc coordinate or normal taken the wrong way round.
"""

import json

import numpy as np
import pytest

from recirc.config import build_scenario, preset_path, validate
from recirc.eigenbasis import solve_stokes_eigen
from recirc.monitors import ledger

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


# one pump on the unit square, from the bottom to the right side, and the
# maps of the square's dihedral group as maps of points
PUMP = {"injector": ("bottom", 1 / 16, 3 / 16), "collector": ("right", 1 / 2, 5 / 8)}
DIHEDRAL = {"mirror": lambda x, y: (1 - x, y), "rotation": lambda x, y: (1 - y, x),
            "point_reflection": lambda x, y: (1 - x, 1 - y)}
# the point at arc coordinate s of each side: x on bottom and top, y on the others
SIDE_POINT = {"bottom": lambda s: (s, 0.0), "right": lambda s: (1.0, s),
              "top": lambda s: (s, 1.0), "left": lambda s: (0.0, s)}
DIHEDRAL_TOL = 1e-10


def image_segment(f, side, start, end):
    """The side and the arc coordinates [start, end] of the image under f of
    a segment: [s, e] on the bottom goes to [L - e, L - s] on the bottom
    under the mirror, to [s, e] on the right under the rotation."""
    (x0, y0), (x1, y1) = f(*SIDE_POINT[side](start)), f(*SIDE_POINT[side](end))
    side = ("bottom" if y0 == y1 == 0 else "top" if y0 == y1 == 1
            else "left" if x0 == x1 == 0 else "right")
    arcs = (x0, x1) if side in ("bottom", "top") else (y0, y1)
    return side, min(arcs), max(arcs)


def one_pump_ledger(f=lambda x, y: (x, y)):
    """The ledger of the pump's image under f: four_pumps' first pump moved,
    16^2, 10 modes, from rest to T = 0.3 in steps of 0.01."""
    cfg = json.loads(preset_path("four_pumps").read_text())
    pump = cfg["pumps"][0]
    for role, segment in PUMP.items():
        side, start, end = image_segment(f, *segment)
        pump[role].update(side=side, start=start, end=end)
    cfg.update(pumps=[pump], galerkin={"modes": MODES})
    cfg["time"]["T"] = T
    scenario = build_scenario(validate(cfg)).built()
    return ledger(scenario.system, scenario.system.integrate(scenario.state0, T, DT))


@pytest.fixture(scope="module")
def base_ledger():
    return one_pump_ledger()


def test_dihedral_basis_splits_no_degenerate_pair():
    # the square's symmetries map the span of the first N modes onto itself
    # only where lambda_N < lambda_{N+1}: the pair lambda_9 = lambda_10 is
    # kept whole, and lambda_11 sits 8e-4 above it
    space = build_scenario(validate(preset_path("four_pumps"))).space
    lam = solve_stokes_eigen(space, MODES + 1).eigenvalues
    assert lam[MODES] - lam[MODES - 1] > 1e-4 * lam[MODES - 1]


@pytest.mark.parametrize("name", DIHEDRAL)
def test_dihedral_image_of_a_pump(base_ledger, name):
    # the image run's ledger, every column relative to its maximum, and its
    # final ||v|| agree with the base run's to DIHEDRAL_TOL; measured 2.0e-12
    # at most (the rotation). One run costs about 0.2 s of CPU.
    image = one_pump_ledger(DIHEDRAL[name])
    assert set(image.rows) == set(base_ledger.rows)
    for column, values in base_ledger.rows.items():
        scale = np.abs(values).max()
        assert scale > 0, column
        assert np.abs(image.rows[column] - values).max() <= DIHEDRAL_TOL * scale, column
    final = base_ledger.v_l2[-1]
    assert abs(image.v_l2[-1] - final) <= DIHEDRAL_TOL * final
