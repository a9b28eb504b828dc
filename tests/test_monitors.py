import numpy as np
import pytest

from recirc.eigenbasis import solve_stokes_eigen
from recirc.galerkin import GalerkinState, ReducedSystem
from recirc.lifting import build_lifting
from recirc.mesh import build_rect_mesh
from recirc.monitors import contraction, hg_l2_sq, hg_norms, ledger
from recirc.pumps import PumpSet
from recirc.space import MixedSpace
from recirc.turbulence import ClosureParams


@pytest.fixture(scope="module")
def quiet12():
    space = MixedSpace(build_rect_mesh(1, 1, 12, 12))
    basis = solve_stokes_eigen(space, 10)
    pumps = PumpSet([])
    params = ClosureParams(0.02, 0.1)
    lifting = build_lifting(space, pumps, params.nu)
    return ReducedSystem(space, basis, lifting, pumps, params)


def test_zero_trajectory_gives_zero_ledger(quiet12):
    traj = quiet12.integrate(GalerkinState(0.0, np.zeros(10)), T=0.1, dt=0.02)
    led = ledger(quiet12, traj)
    for key, col in led.rows.items():
        assert np.abs(col).max() == 0.0, key
    assert led.data["estimate1_lhs"] == 0.0


def test_running_integrals_nondecreasing(quiet12):
    rng = np.random.default_rng(2)
    z0 = 0.3 * rng.standard_normal(10)
    traj = quiet12.integrate(GalerkinState(0.0, z0), T=0.2, dt=0.02)
    led = ledger(quiet12, traj)
    for key in ("int_eps_z_l2_sq", "int_eps_w_l3_cu", "int_eps_z_l3_cu"):
        assert np.all(np.diff(led.rows[key]) >= -1e-15), key
    for key, col in led.rows.items():
        assert np.all(col >= -1e-15), key


def test_ledger_entries_match_space_norms(quiet12):
    rng = np.random.default_rng(4)
    z0 = 0.2 * rng.standard_normal(10)
    traj = quiet12.integrate(GalerkinState(0.0, z0), T=0.1, dt=0.02)
    led = ledger(quiet12, traj)
    space = quiet12.space
    for i in (0, 3, 5):
        zf = quiet12.basis.expand(traj.states[i])
        l2sq = space.norm(zf, "L2") ** 2
        assert abs(led.rows["z_l2_sq"][i] - l2sq) <= 1e-12 * max(1.0, l2sq)
        w13 = space.norm(zf, "L3") ** 3 + space.norm(zf, "W13semi") ** 3
        assert abs(led.rows["z_w13_cu"][i] - w13) <= 1e-12 * max(1.0, w13)


def test_ledger_requires_two_steps(quiet12):
    from recirc.galerkin import Trajectory

    t = Trajectory([0.0], [np.zeros(10)], [0], [0.0])
    with pytest.raises(ValueError):
        ledger(quiet12, t)


def test_identical_runs_flagged(quiet12):
    rng = np.random.default_rng(6)
    z0 = 0.2 * rng.standard_normal(10)
    traj = quiet12.integrate(GalerkinState(0.0, z0.copy()), T=0.1, dt=0.02)
    rep = contraction(quiet12, traj, traj)
    assert rep.identical
    assert rep.fitted_C2 == 0.0
    assert rep.bound_holds(rep.fitted_C2)


def test_zero_data_difference_nonincreasing(quiet12):
    rng = np.random.default_rng(8)
    z0 = 0.3 * rng.standard_normal(10)
    t1 = quiet12.integrate(GalerkinState(0.0, z0.copy()), T=0.2, dt=0.02, tol=1e-12)
    t2 = quiet12.integrate(
        GalerkinState(0.0, z0 + 1e-3 * rng.standard_normal(10)), T=0.2, dt=0.02,
        tol=1e-12,
    )
    rep = contraction(quiet12, t1, t2)
    assert np.all(np.diff(rep.diff_sq) <= 1e-16)
    assert rep.adjusted()[0] >= rep.adjusted()[-1] - 1e-20
    # adjusted norm is non-increasing under the fitted constant
    adj = rep.adjusted()
    assert np.all(np.diff(adj) <= 1e-14 * max(1.0, adj[0]))


def test_contraction_grid_mismatch_rejected(quiet12):
    z0 = np.zeros(10)
    t1 = quiet12.integrate(GalerkinState(0.0, z0.copy()), T=0.1, dt=0.02)
    t2 = quiet12.integrate(GalerkinState(0.0, z0.copy()), T=0.1, dt=0.01)
    with pytest.raises(ValueError):
        contraction(quiet12, t1, t2)


def test_hg_norms_zero_case(quiet12):
    vals = hg_norms(quiet12, np.linspace(0, 1, 11))
    assert vals["hg_l2l2_sq"] == 0.0
    assert vals["hg_tilde_l2l2_sq"] == 0.0


def test_hg_tilde_equals_lift_rate_norm(preset16):
    # with F = 0 the only surviving term of H~_g is the lift time derivative
    sys_ = preset16.system
    space = preset16.space
    for t in (0.1, 0.5):
        _, dzg = sys_.lift_fields(t)
        snorm = space.norm(dzg, "L2") ** 2
        _, val = hg_l2_sq(sys_, t)
        assert abs(val - snorm) <= 1e-10 * max(1.0, snorm)


def test_hg_norms_refined_grid_agreement(preset16):
    sys_ = preset16.system
    coarse = hg_norms(sys_, np.linspace(0, 1, 51))
    fine = hg_norms(sys_, np.linspace(0, 1, 101))
    for key in coarse:
        assert abs(coarse[key] - fine[key]) <= 0.01 * max(1e-30, abs(fine[key])), key


def test_adjusted_norm_monotone_under_fitted_constant(preset16):
    scn = preset16
    rng = np.random.default_rng(12)
    d = rng.standard_normal(scn.basis.size)
    d /= np.linalg.norm(d)
    base = scn.system.integrate(scn.state0, T=0.3, dt=0.01)
    pert = scn.system.integrate(
        GalerkinState(0.0, scn.state0.z + 1e-3 * d), T=0.3, dt=0.01
    )
    rep = contraction(scn.system, base, pert)
    adj = rep.adjusted()
    assert np.all(np.diff(adj) <= 1e-12 * max(adj.max(), 1e-30))
