"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Shared heavy artifacts (the 4-pump scenario) come from
session fixtures; each criterion times its own body against the stated
budget.
"""

import json
import time

import numpy as np
import pytest

from conftest import dissipation_rates, divfree_samples, full_stress, net_flux, potential_D
from recirc.config import build_scenario, preset_path, validate, vortex_field
from recirc.eigenbasis import solve_stokes_eigen
from recirc.fullspace import FullSpaceSystem
from recirc.galerkin import GalerkinState, ReducedSystem, initial_state
from recirc.mesh import build_rect_mesh
from recirc.mms import ManufacturedSolution
from recirc.monitors import contraction, ledger
from recirc.pumps import PumpSet
from recirc.space import MixedSpace
from recirc.turbulence import ClosureParams, strain_norm


def report(num, name, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:2d} [{status}] {name}: {detail} "
          f"[{elapsed:.1f}s, budget {budget:.0f}s]")
    assert ok, f"criterion {num} ({name}): {detail}"
    assert elapsed < budget, f"criterion {num} exceeded budget: {elapsed:.1f}s"


def preset_variant(**updates):
    cfg = json.loads(preset_path("four_pumps").read_text())
    for key, val in updates.items():
        cfg[key] = val
    return cfg


def test_criterion_01_boundary_compatibility(preset16):
    t0 = time.time()
    space, pumps = preset16.space, preset16.pumps
    rng = np.random.default_rng(101)
    worst = 0.0
    for t in rng.uniform(0.0, 1.0, size=20):
        g, _ = pumps.rates(t)
        bound = 1e-10 * max(1.0, float(np.abs(g).sum()))
        worst = max(worst, abs(net_flux(pumps, t, space)) / bound)
    report(1, "pump trace compatibility", worst <= 1.0,
           f"max |flux|/bound = {worst:.2e}", time.time() - t0, 1.0)


def test_criterion_02_operator_monotonicity(preset16):
    t0 = time.time()
    scn = preset16
    space, basis, params = scn.space, scn.basis, scn.params
    zg, _ = scn.system.lift_fields(0.5)
    eps_zg = space.strain_samples(zg)
    rng = np.random.default_rng(202)
    worst = np.inf
    for _ in range(200):
        z1 = basis.expand(0.5 * rng.standard_normal(basis.size))
        z2 = basis.expand(0.5 * rng.standard_normal(basis.size))
        e1 = eps_zg + space.strain_samples(z1)
        e2 = eps_zg + space.strain_samples(z2)
        s1, s2 = full_stress(e1, params), full_stress(e2, params)
        de = e1 - e2
        lhs = space.integrate(((s1 - s2) * de).sum(axis=(-2, -1)))
        lower = 2 * params.nu * space.integrate((de * de).sum(axis=(-2, -1)))
        worst = min(worst, (lhs - lower) + 1e-12 * (1 + abs(lhs)))
    report(2, "closure operator monotonicity", worst >= 0.0,
           f"min margin = {worst:.2e}", time.time() - t0, 60.0)


def test_criterion_03_potential_derivative_consistency():
    t0 = time.time()
    params = ClosureParams(nu=0.4, nu_tur=0.8)
    rng = np.random.default_rng(303)
    hs = [1e-2 / 2**k for k in range(7)]  # down to 1.5625e-4
    bad = 0
    checked = 0
    for _ in range(100):
        while True:
            e = rng.standard_normal((2, 2))
            e = 0.5 * (e + e.T)
            if strain_norm(e) >= 0.1:
                break
        d = rng.standard_normal((2, 2))
        d = 0.5 * (d + d.T)
        exact = float((full_stress(e, params) * d).sum())
        errs = [
            abs((potential_D(e + h * d, params) - potential_D(e - h * d, params))
                / (2 * h) - exact)
            for h in hs
        ]
        # the central difference cancels ~|D|/h in absolute size, so errors
        # below ~1e-10 sit on the roundoff floor and carry no order signal
        floor = 1e-10 * max(1.0, abs(exact))
        for e1, e2 in zip(errs, errs[1:]):
            if min(e1, e2) < floor:
                continue
            checked += 1
            if not (3.4 <= e1 / e2 <= 4.6):
                bad += 1
    report(3, "potential-derivative order 2", bad == 0 and checked > 300,
           f"{checked} ratios checked, {bad} outside [3.4, 4.6]",
           time.time() - t0, 10.0)


def test_criterion_04_zero_input_null_solution():
    t0 = time.time()
    scn = build_scenario(validate(preset_path("zero")))
    traj = scn.system.integrate(scn.state0, T=1.0, dt=0.01)
    worst = max(
        scn.space.norm(scn.system.velocity(traj.states[i], traj.times[i]), "L2")
        for i in range(len(traj))
    )
    report(4, "zero-input null solution", worst <= 1e-12,
           f"max ||v|| = {worst:.2e}", time.time() - t0, 10.0)


def test_criterion_05_lifting_orthogonality(preset16):
    t0 = time.time()
    scn = preset16
    space, lb, params = scn.space, scn.lifting, scn.params
    etas = divfree_samples(space, 50, seed=505)
    worst = 0.0
    for eta in etas:
        h1 = np.sqrt(space.norm(eta, "L2") ** 2 + space.norm(eta, "H1semi") ** 2)
        for k in range(len(lb)):
            val = abs(params.nu * (lb.zetas[k] @ (space.K_eps @ eta)))
            worst = max(worst, val / (1e-8 * h1))
    report(5, "lifting orthogonality", worst <= 1.0,
           f"max |2nu(eps(zeta),eps(eta))| / bound = {worst:.2e}",
           time.time() - t0, 30.0)


@pytest.mark.slow
def test_criterion_06_eigenbasis_quality():
    t0 = time.time()
    lams = {}
    detail = []
    ok = True
    for n, k in ((16, 10), (32, 10), (64, 10)):
        space = MixedSpace(build_rect_mesh(1, 1, n, n))
        basis = solve_stokes_eigen(space, k)
        lams[n] = basis.eigenvalues[0]
        ok &= basis.rayleigh_residuals.max() <= 1e-8
        ok &= basis.gram_residual <= 1e-10
        detail.append(f"{n}^2: lam1={basis.eigenvalues[0]:.6f} "
                      f"ray={basis.rayleigh_residuals.max():.1e} "
                      f"gram={basis.gram_residual:.1e}")
    ok &= lams[16] > lams[32] > lams[64]
    rel = abs(lams[32] - lams[64]) / lams[64]
    ok &= rel <= 0.02
    report(6, "Stokes eigenbasis", ok,
           "; ".join(detail) + f"; rel change 32->64 = {rel:.2e}",
           time.time() - t0, 120.0)


@pytest.mark.slow
def test_criterion_07_galerkin_mode_convergence(preset16):
    t0 = time.time()
    scn = preset16
    sys80 = ReducedSystem(scn.space, solve_stokes_eigen(scn.space, 80), scn.lifting, scn.pumps,
                          scn.params)
    runs = {}
    for n in (5, 10, 20, 40, 80):
        runs[n] = sys80.truncate(n).integrate(GalerkinState(0.0, np.zeros(n)), T=1.0, dt=1e-2)
    ref = runs[80]
    errs = []
    for n in (5, 10, 20, 40):
        d = ref.states.copy()
        d[:, :n] -= runs[n].states
        e2 = (d * d).sum(axis=1)
        errs.append(float(np.sqrt(np.trapezoid(e2, ref.times))))
    ok = all(e2 <= e1 * (1 + 1e-12) for e1, e2 in zip(errs, errs[1:]))
    report(7, "Galerkin mode convergence", ok,
           "errors vs N=80: " + ", ".join(f"N={n}: {e:.3e}"
                                          for n, e in zip((5, 10, 20, 40), errs)),
           time.time() - t0, 600.0)


@pytest.mark.slow
def test_criterion_08_manufactured_solution_order():
    t0 = time.time()
    params = ClosureParams(nu=0.05, nu_tur=0.02)
    mms = ManufacturedSolution(params.nu, params.nu_tur)
    errors = []
    for n in (8, 16, 32):
        space = MixedSpace(build_rect_mesh(1, 1, n, n))
        fs = FullSpaceSystem(space, params, source=mms)
        acc = {"sum": 0.0, "prev": None}

        def observer(t, z, acc=acc, space=space):
            e2 = mms.velocity_error(space, z, t) ** 2
            if acc["prev"] is not None:
                acc["sum"] += 0.5 * (acc["prev"] + e2) * 1e-3
            acc["prev"] = e2

        fs.integrate(mms.initial_velocity(space), T=1.0, dt=1e-3, observer=observer)
        errors.append(np.sqrt(acc["sum"]))
    orders = [float(np.log2(errors[i] / errors[i + 1])) for i in range(2)]
    ok = min(orders) >= 2.0
    report(8, "manufactured-solution spatial order", ok,
           f"errors = {[f'{e:.3e}' for e in errors]}, orders = "
           f"{[f'{o:.2f}' for o in orders]}", time.time() - t0, 600.0)


def test_criterion_09_energy_dissipation():
    t0 = time.time()
    space = MixedSpace(build_rect_mesh(1, 1, 16, 16))
    params = ClosureParams(nu=0.01, nu_tur=0.1)
    basis = solve_stokes_eigen(space, 20)
    pumps = PumpSet([])
    from recirc.lifting import build_lifting

    system = ReducedSystem(space, basis, build_lifting(space, pumps, params.nu),
                           pumps, params)
    v0 = vortex_field(space, amplitude=30.0)
    state0 = initial_state(basis.expand(basis.project(v0)), basis)
    traj = system.integrate(state0, T=1.0, dt=0.01, tol=1e-12)
    E = 0.5 * np.einsum("ij,ij->i", traj.states, traj.states)
    monotone = bool(np.all(np.diff(E) <= 0.0))
    worst = 0.0
    for i in range(1, len(traj)):
        zp, zm = traj.states[i], traj.states[i - 1]
        visc, smag = dissipation_rates(system, zp, traj.times[i])
        res = abs(0.5 * zp @ zp - 0.5 * zm @ zm + 0.5 * (zp - zm) @ (zp - zm)
                  + 0.01 * (visc + smag))
        worst = max(worst, res)
    report(9, "implicit-Euler energy dissipation", monotone and worst <= 1e-10,
           f"monotone={monotone}, max identity residual = {worst:.2e}",
           time.time() - t0, 60.0)


@pytest.mark.slow
def test_criterion_10_uniqueness_contraction():
    t0 = time.time()
    cfg = preset_variant(fluid={"nu": 0.005, "nu_tur": 0.01})
    for p in cfg["pumps"]:
        p["schedule"] = [[0.0, 0.0], [0.2, 0.12], [1.0, 0.12]]
    scn = build_scenario(validate(cfg))
    rng = np.random.default_rng(1010)
    d = rng.standard_normal(scn.basis.size)
    d /= np.linalg.norm(d)
    base = scn.system.integrate(scn.state0, T=1.0, dt=0.01)
    pert3 = scn.system.integrate(
        GalerkinState(0.0, scn.state0.z + 1e-3 * d), T=1.0, dt=0.01)
    pert4 = scn.system.integrate(
        GalerkinState(0.0, scn.state0.z + 1e-4 * d), T=1.0, dt=0.01)
    rep, rep4 = contraction(scn.system, base, pert3, pert4)
    fit_ok = np.isfinite(rep.fitted_C2) and rep.fitted_C2 >= 0.0
    adj = rep.adjusted()
    fit_ok &= bool(np.all(np.diff(adj) <= 1e-12 * max(1.0, adj.max())))
    bound_ok = rep4.bound_holds(rep.fitted_C2)

    # g == 0: pure dissipation, raw difference norm non-increasing
    space0 = MixedSpace(build_rect_mesh(1, 1, 16, 16))
    params0 = ClosureParams(0.01, 0.1)
    basis0 = solve_stokes_eigen(space0, 20)
    from recirc.lifting import build_lifting

    sys0 = ReducedSystem(space0, basis0, build_lifting(space0, PumpSet([]), params0.nu),
                         PumpSet([]), params0)
    v0 = vortex_field(space0, amplitude=30.0)
    z0 = basis0.project(v0)
    run1 = sys0.integrate(GalerkinState(0.0, z0.copy()), T=1.0, dt=0.01)
    run2 = sys0.integrate(GalerkinState(0.0, z0 + 1e-3 * d[: basis0.size]),
                          T=1.0, dt=0.01)
    rep0, = contraction(sys0, run1, run2)
    zero_ok = bool(np.all(np.diff(rep0.diff_sq) <= 1e-16))
    report(10, "uniqueness contraction", fit_ok and bound_ok and zero_ok,
           f"fitted C2 = {rep.fitted_C2:.3g}, independent-pair bound holds = "
           f"{bound_ok}, zero-data monotone = {zero_ok}",
           time.time() - t0, 300.0)


@pytest.mark.slow
def test_criterion_11_apriori_ledger_stability():
    t0 = time.time()
    c1s = {}
    finite = True
    for nx in (16, 32):
        for modes in (20, 40):
            cfg = preset_variant(mesh={"nx": nx, "ny": nx})
            cfg["galerkin"]["modes"] = modes
            scn = build_scenario(validate(cfg))
            traj = scn.system.integrate(scn.state0, T=1.0, dt=0.01)
            led = ledger(scn.system, traj)
            c1s[(nx, modes)] = led.data["C1_empirical"]
            finite &= bool(np.isfinite(led.data["estimate1_lhs"]))
            finite &= bool(np.isfinite(led.data["estimate2_lhs"]))
            for col in led.rows.values():
                finite &= bool(np.all(np.isfinite(col)))
    vals = np.array(list(c1s.values()))
    spread = vals.max() / vals.min()
    ok = finite and spread < 2.0
    report(11, "a priori ledger stability", ok,
           f"C1 = {[f'{v:.4g}' for v in vals]}, spread = {spread:.3f}",
           time.time() - t0, 900.0)
