import numpy as np
import pytest
from scipy.linalg import expm

from conftest import (apply_A, assert_no_instance_patches, closure_pairing_oracle, convect, phi_g,
                      ramp_source)
from recirc.config import build_scenario, preset_path, validate
from recirc.eigenbasis import solve_stokes_eigen
from recirc.errors import SolverError, StepError
from recirc.galerkin import STEP_RECORD, GalerkinState, ReducedSystem, initial_state
from recirc.lifting import build_lifting, compute_Hg_load
from recirc.mesh import build_rect_mesh
from recirc.pumps import PumpSet
from recirc.space import MixedSpace
from recirc.turbulence import ClosureParams


@pytest.fixture(scope="module")
def plain16():
    """Pump-free 16^2 setup with 12 modes (homogeneous boundary)."""
    space = MixedSpace(build_rect_mesh(1, 1, 16, 16))
    basis = solve_stokes_eigen(space, 12)
    pumps = PumpSet([])
    lifting = build_lifting(space, pumps, nu=0.01)
    return space, basis, pumps, lifting


def make_system(plain16, nu=0.01, nu_tur=0.1, **kw):
    space, basis, pumps, lifting = plain16
    return ReducedSystem(space, basis, lifting, pumps, ClosureParams(nu, nu_tur), **kw)


def test_initial_state_projections(plain16):
    space, basis, _, _ = plain16
    st = initial_state(np.zeros(space.n_velocity), basis)
    assert np.abs(st.z).max() == 0.0 and st.t == 0.0
    st = initial_state(basis.fields[:, 2], basis)
    expect = np.zeros(basis.size)
    expect[2] = 1.0
    assert np.abs(st.z - expect).max() <= 1e-12
    st = initial_state(2 * basis.fields[:, 0] + 3 * basis.fields[:, 1], basis)
    assert np.abs(st.z[:2] - [2.0, 3.0]).max() <= 1e-12
    assert np.abs(st.z[2:]).max() <= 1e-12


def test_initial_state_rejects_bad_fields(plain16):
    space, basis, _, _ = plain16
    bad = np.ones(space.n_velocity)  # nonzero trace
    with pytest.raises(ValueError):
        initial_state(bad, basis)
    grad_like = np.zeros(space.n_velocity)
    grad_like[space.interior_vdofs] = space.interpolate(
        lambda x, y: np.column_stack([x, y])
    )[space.interior_vdofs]  # interior of a divergent field
    with pytest.raises(ValueError):
        initial_state(grad_like, basis)


def test_rhs_zero_everything(plain16):
    sys_ = make_system(plain16)
    assert np.abs(sys_.rhs(np.zeros(12), 0.3)).max() == 0.0


def test_rhs_viscous_part_linear_regime(plain16):
    space, basis, _, _ = plain16
    sys_ = make_system(plain16, nu=0.02, nu_tur=0.0)
    e1 = np.eye(12)[0]
    rhs = sys_.rhs(e1, 0.0)
    conv = convect(space, basis.fields @ e1, basis.fields @ e1, basis.fields)
    oracle = -(0.02 * (space.K_eps @ basis.fields[:, 0])) @ basis.fields - conv
    assert np.abs(rhs - oracle).max() <= 1e-12 * max(1.0, np.abs(oracle).max())
    # for boundary-zero fields 2||eps||^2 = ||grad||^2 + ||div||^2 pointwise;
    # the modes are weakly divergence free, so the viscous diagonal sits at
    # lambda_1 plus the pointwise-divergence remainder
    xi = basis.fields[:, 0]
    visc_diag = xi @ space.K_eps @ xi
    G = space.eval_grads(xi)
    div_sq = space.integrate((G[..., 0, 0] + G[..., 1, 1]) ** 2)
    lam1 = basis.eigenvalues[0]
    assert abs(visc_diag - (lam1 + div_sq)) <= 1e-10 * lam1
    assert div_sq <= 1e-2 * lam1  # small relative to the eigenvalue itself


def test_rhs_energy_rate_identity(plain16):
    # z . rhs(z) = -2 nu ||eps(z)||^2 - 2 nu_tur ||eps(z)||^3_L3 when g=0, F=0
    sys_ = make_system(plain16, nu=0.015, nu_tur=0.25)
    rng = np.random.default_rng(8)
    for _ in range(5):
        z = 0.5 * rng.standard_normal(12)
        rate = z @ sys_.rhs(z, 0.1)
        visc, smag = sys_.dissipation_rates(z, 0.1)
        assert abs(rate + visc + smag) <= 1e-10 * max(1.0, abs(rate))


def test_rhs_consistency_with_independent_assembly(preset16):
    # pairings of the reduced rhs against the variational terms assembled
    # independently (public operator APIs, different decomposition)
    scn = preset16
    sys_ = scn.system
    space, basis = scn.space, scn.basis
    rng = np.random.default_rng(10)
    # z = 0 and z ~ 1e-8: c(w; w) and c(zeta_g; zeta_g) cancel in the rhs
    for scale in [0.2] * 20 + [0.0, 1e-8]:
        z = scale * rng.standard_normal(basis.size)
        t = float(rng.uniform(0.05, 1.0))
        rhs = sys_.rhs(z, t)

        zg, _ = sys_.lift_fields(t)
        zf = basis.expand(z)
        w = zg + zf
        hg = space.load_vector(compute_Hg_load(scn.lifting, scn.pumps, None, t).h) @ basis.fields
        conv = convect(space, zf, w, basis.fields) + convect(space, zg, zf, basis.fields)
        a_all = apply_A(space, zf, zg, scn.params, basis.fields)
        visc_zg = (scn.params.nu * (space.K_eps @ zg)) @ basis.fields
        oracle = hg - conv - (a_all - visc_zg)
        assert np.abs(rhs - oracle).max() <= 1e-10 * max(1.0, np.abs(oracle).max())


def test_step_zero_state(plain16):
    sys_ = make_system(plain16)
    st, diag = sys_.step(GalerkinState(0.0, np.zeros(12)), 0.01)
    assert np.abs(st.z).max() == 0.0
    assert diag["residual"] <= 1e-10


def test_step_rejects_bad_dt(plain16, preset16):
    # a NaN or infinite dt is refused before any stepping, with or without
    # pumps, not met as a NaN state, a failed Newton step or a schedule error
    for sys_ in (make_system(plain16), preset16.system):
        state = GalerkinState(0.0, np.zeros(sys_.basis.size))
        for scheme in ("implicit-euler", "explicit-rk4"):
            for dt in (-0.1, 0.0, np.nan, np.inf):
                with pytest.raises(ValueError, match="dt must be positive and finite"):
                    sys_.step(state, dt, scheme=scheme)
        with pytest.raises(ValueError, match="unknown scheme"):
            sys_.step(state, 0.1, scheme="leapfrog")


def test_implicit_euler_matches_exponential_in_linear_regime(plain16):
    # closed-form oracle: dz/dt = -nu E z  =>  z(t) = expm(-nu E t) z0
    space, basis, _, _ = plain16
    sys_ = make_system(plain16, nu=0.05, nu_tur=0.0)
    sys_.C[:] = 0.0  # convection off
    E = 0.05 * (basis.fields.T @ (space.K_eps @ basis.fields))
    z0 = np.ones(12) / np.sqrt(12)
    T = 0.1
    errs = []
    for dt in (0.01, 0.005, 0.0025):
        st = GalerkinState(0.0, z0.copy())
        traj = sys_.integrate(st, T=T, dt=dt, tol=1e-13)
        exact = expm(-E * T) @ z0
        errs.append(np.linalg.norm(traj.states[-1] - exact))
    # global first order: error halves with dt
    for e1, e2 in zip(errs, errs[1:]):
        assert 1.7 <= e1 / e2 <= 2.3


def test_rk4_vs_implicit_euler_first_order_gap(plain16):
    sys_ = make_system(plain16, nu=0.02, nu_tur=0.05)
    z0 = 0.3 * np.ones(12) / np.sqrt(12)
    gaps = []
    for dt in (0.02, 0.01):
        ie = sys_.integrate(GalerkinState(0.0, z0.copy()), T=0.2, dt=dt, tol=1e-12)
        rk = sys_.integrate(GalerkinState(0.0, z0.copy()), T=0.2, dt=dt, scheme="explicit-rk4")
        gaps.append(np.linalg.norm(ie.states[-1] - rk.states[-1]))
    assert 1.6 <= gaps[0] / gaps[1] <= 2.4  # the gap is the O(dt) Euler error


def test_integrate_zero_data_null_solution(plain16):
    sys_ = make_system(plain16)
    traj = sys_.integrate(GalerkinState(0.0, np.zeros(12)), T=0.5, dt=0.01)
    assert np.abs(traj.states).max() == 0.0
    v = sys_.velocity(traj.states[-1], 0.5)
    assert sys_.space.norm(v, "L2") == 0.0


def test_integrate_grid_mismatch_rejected(plain16):
    sys_ = make_system(plain16)
    with pytest.raises(ValueError):
        sys_.integrate(GalerkinState(0.0, np.zeros(12)), T=1.0, dt=0.3)


@pytest.mark.parametrize("T, dt, match", [
    (1.0, -0.1, "dt must be positive"), (1.0, 0.0, "dt must be positive"),
    (1.0, np.nan, "dt must be positive"), (1.0, np.inf, "dt must be positive"),
    (-1.0, 0.1, "T must be positive"), (0.0, 0.1, "T must be positive"),
    (np.inf, 0.1, "T must be positive"), (1.0, 5e-324, "too many steps"),
])
def test_integrate_rejects_nonpositive_or_nonfinite_step(plain16, T, dt, match):
    # a negative dt used to return after no step, dt = 0 to divide by zero and
    # dt = 5e-324 to overflow the step count
    sys_ = make_system(plain16)
    with pytest.raises(ValueError, match=match):
        sys_.integrate(GalerkinState(0.0, np.zeros(12)), T=T, dt=dt)


def test_dt_halving_self_convergence(plain16):
    sys_ = make_system(plain16, nu=0.02, nu_tur=0.1)
    z0 = 0.4 * np.eye(12)[0] + 0.2 * np.eye(12)[3]
    trajs = {}
    for dt in (0.02, 0.01, 0.005):
        trajs[dt] = sys_.integrate(GalerkinState(0.0, z0.copy()), T=0.4, dt=dt, tol=1e-12)
    d1 = np.linalg.norm(trajs[0.02].states[-1] - trajs[0.01].states[-1])
    d2 = np.linalg.norm(trajs[0.01].states[-1] - trajs[0.005].states[-1])
    assert 1.7 <= d1 / d2 <= 2.3


def test_energy_nonincreasing_and_identity(plain16):
    space, basis, _, _ = plain16
    sys_ = make_system(plain16, nu=0.01, nu_tur=0.2)
    rng = np.random.default_rng(14)
    z0 = 0.3 * rng.standard_normal(12)
    traj = sys_.integrate(GalerkinState(0.0, z0), T=0.3, dt=0.01, tol=1e-12)
    E = 0.5 * np.einsum("ij,ij->i", traj.states, traj.states)
    assert np.all(np.diff(E) <= 1e-14)
    for i in range(1, len(traj)):
        zp, zm = traj.states[i], traj.states[i - 1]
        visc, smag = sys_.dissipation_rates(zp, traj.times[i])
        res = 0.5 * zp @ zp - 0.5 * zm @ zm + 0.5 * (zp - zm) @ (zp - zm) \
            + 0.01 * (visc + smag)
        assert abs(res) <= 1e-10


def test_reconstruction_trace_and_divergence(preset16):
    scn = preset16
    traj = scn.system.integrate(scn.state0, T=0.05, dt=0.01)
    for i in (2, 5):
        t = traj.times[i]
        v = scn.system.velocity(traj.states[i], t)
        pg = phi_g(scn.pumps, t, scn.space)
        assert np.array_equal(v[scn.space.boundary_vdofs], pg[scn.space.boundary_vdofs])
        assert np.linalg.norm(scn.space.B @ v) <= 1e-8


def test_step_error_carries_partial_trajectory(plain16):
    sys_ = make_system(plain16, nu=0.01, nu_tur=0.1)
    z0 = 0.5 * np.ones(12)
    with pytest.raises(StepError) as err:
        sys_.integrate(GalerkinState(0.0, z0), T=1.0, dt=0.5, tol=0.0)
    exc = err.value
    assert exc.trajectory is not None
    assert exc.trajectory.completed is False
    assert exc.residual is not None
    # the failed step names its time, its iterations and their residuals
    assert exc.t == 0.5
    assert len(exc.history) == exc.iterations + 1 >= 2
    assert exc.residual == min(exc.history)
    assert all(b < a for a, b in zip(exc.history, exc.history[1:]))
    assert "t=0.5" in str(exc)


def test_step_error_partial_trajectory_keeps_the_step_record(preset16, monkeypatch):
    # a step failing after two good ones leaves the three levels reached, and
    # each step array is 0 at the initial state, then the on_step hook's diags
    sys_, dt = preset16.system, 0.01
    step = ReducedSystem.step_implicit_euler

    def failing(self, state, dt, **kw):
        if kw["t_new"] > 2.5 * dt:
            raise StepError("injected failure", residual=1.0, t=kw["t_new"])
        return step(self, state, dt, **kw)

    monkeypatch.setattr(ReducedSystem, "step_implicit_euler", failing)
    seen = []
    with pytest.raises(StepError) as err:
        sys_.integrate(preset16.state0, T=0.1, dt=dt,
                       on_step=lambda state: seen.append(dict(state.diag)))
    monkeypatch.undo()
    part = err.value.trajectory
    assert part.completed is False and len(seen) == 2
    assert len(part) == len(part.states) == 3 and part.times.tolist() == [0.0, dt, 2 * dt]
    assert np.array_equal(part.states, sys_.integrate(preset16.state0, T=2 * dt, dt=dt).states)
    for key, name in STEP_RECORD.items():
        assert getattr(part, name).tolist() == [0] + [d[key] for d in seen]
    assert part.iterations[1:].min() >= 1 and part.evaluations[1:].min() >= 2


def test_step_error_on_iteration_budget(preset16):
    scn = preset16
    state = GalerkinState(0.2, 0.01 * np.ones(scn.basis.size))
    with pytest.raises(StepError, match="did not converge in 1 Newton") as err:
        scn.system.step(state, 0.01, tol=1e-14, max_iter=1)
    assert err.value.iterations == 1 and len(err.value.history) == 2
    assert err.value.t == pytest.approx(0.21)


def _patch_newton(monkeypatch, wrap):
    """Patch ReducedSystem.implicit_euler_newton on the class to return
    wrap(defect, tangent, jacobian) of the method in place before. The
    class, not an instance: undoing an instance patch leaves a bound method
    in the instance's __dict__, on the session-wide preset16.system too."""
    newton = ReducedSystem.implicit_euler_newton
    monkeypatch.setattr(ReducedSystem, "implicit_euler_newton",
                        lambda self, *args: wrap(*newton(self, *args)))


def test_step_error_on_singular_newton_matrix(preset16, monkeypatch):
    sys_ = preset16.system
    _patch_newton(monkeypatch, lambda defect, tangent, _: (
        defect, tangent, lambda z, T_VV: np.zeros((len(z), len(z)))))
    state = GalerkinState(0.2, 0.01 * np.ones(preset16.basis.size))
    with pytest.raises(StepError, match="singular Newton matrix") as err:
        sys_.step(state, 0.01)
    assert err.value.iterations == 0 and len(err.value.history) == 1


def _logged_newton(monkeypatch, events):
    """Patch implicit_euler_newton to append ("defect", residual) and
    ("tangent", None) to events, in the order the step calls them."""

    def logged(defect, tangent, jacobian):
        def logged_defect(z):
            out = defect(z)
            events.append(("defect", out[1]))
            return out

        def logged_tangent(f):
            events.append(("tangent", None))
            return tangent(f)

        return logged_defect, logged_tangent, jacobian

    _patch_newton(monkeypatch, logged)


def _logged_secant(monkeypatch, log):
    """Patch implicit_euler_newton to append ("defect", z, d, residual),
    ("tangent", T) and ("jacobian", T, copy of T) to log, in call order."""

    def logged(defect, tangent, jacobian):
        def logged_defect(z):
            out = defect(z)
            log.append(("defect", z, out[0], out[1]))
            return out

        def logged_tangent(f):
            log.append(("tangent", tangent(f)))
            return log[-1][1]

        def logged_jacobian(z, T_VV):
            log.append(("jacobian", T_VV, T_VV.copy()))
            return jacobian(z, T_VV)

        return logged_defect, logged_tangent, logged_jacobian

    _patch_newton(monkeypatch, logged)


def _events(log):
    """The ("defect", residual) and ("tangent", None) events of a secant log."""
    return [(entry[0], entry[3] if entry[0] == "defect" else None)
            for entry in log if entry[0] != "jacobian"]


def _replay_secant(log, T, dt):
    """Replay a logged step (or run of steps) without backtracks from the
    tangent T in use at its start: every jacobian call receives the tangent
    formed or carried in plus the secant update r s^T / (dt s^T s) of each
    accepted update since, with s = z+ - z and r = d(z+) (lambda = 1),
    checked to 1e-14 relative; a trial without decrease is dropped. Every
    tangent passed is bitwise unchanged at the end. Returns the tangent in
    use at the end."""
    z = res = None
    for entry in log:
        if entry[0] == "tangent":
            T = entry[1]
        elif entry[0] == "jacobian":
            assert _rel_gap(entry[1], T) <= 1e-14
            assert np.array_equal(entry[1], entry[2])
        elif res is None or entry[3] < res:
            if res is not None:
                s = entry[1] - z
                T = T + np.outer(entry[2], s) / (dt * (s @ s))
            z, res = entry[1], entry[3]
    return T


def test_picard_step_convection_load_count(preset16, monkeypatch):
    # one strain-plane product and one strain-table load per defect
    # evaluation, z_old's included, and one strain kernel per step: the
    # tangent is formed once and frozen; the closure reads the strain table,
    # so no mesh-vector expand, strain sample, gradient or load; convection
    # is the modal contraction and H_g comes from offline tables, so no
    # convection pairing on the mesh
    import recirc.galerkin as galerkin
    from recirc.eigenbasis import EigenBasis

    names = ("convection", "smagorinsky", "strain", "stress", "grads", "planes", "pairings",
             "samples", "expand")
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kw):
            calls[name] += 1
            return fn(*args, **kw)
        return wrapper

    monkeypatch.setattr(galerkin, "convection_load",
                        counted("convection", galerkin.convection_load))
    monkeypatch.setattr(galerkin, "smagorinsky_load",
                        counted("smagorinsky", galerkin.smagorinsky_load))
    scn = preset16
    for name, method in (("strain", "weighted_strain_stiffness"), ("stress", "weighted_load"),
                         ("grads", "eval_grads"), ("planes", "strain_planes"),
                         ("pairings", "strain_load"), ("samples", "strain_samples")):
        monkeypatch.setattr(MixedSpace, method, counted(name, getattr(MixedSpace, method)))
    monkeypatch.setattr(EigenBasis, "expand", counted("expand", EigenBasis.expand))
    events = []
    _logged_newton(monkeypatch, events)
    dt = 0.01
    for t, tol in ((0.2, 1e-10), (0.3, 1e-6)):  # a new time each, so lift data are formed
        calls.update(dict.fromkeys(names, 0))
        events.clear()
        state = GalerkinState(t, 0.01 * np.ones(scn.basis.size))
        new, diag = scn.system.step(state, dt, tol=tol)
        defects = sum(kind == "defect" for kind, _ in events)
        assert diag["iterations"] >= 2
        assert calls["convection"] == 0
        assert calls["strain"] == diag["tangents"] == 1
        assert calls["planes"] == defects == diag["iterations"] + diag["backtracks"] + 1
        assert calls["pairings"] == defects
        for name in ("smagorinsky", "stress", "grads", "samples", "expand"):
            assert calls[name] == 0, name
        # the step's residual is the true fixed-point defect
        defect = new.z - state.z - dt * scn.system.rhs(new.z, new.t)
        assert abs(diag["residual"] - np.linalg.norm(defect)) <= 1e-15


def test_stiff_step_refreshes_the_tangent(plain16, monkeypatch):
    # test_energy_nonincreasing_and_identity's first step: far from the
    # solution a frozen tangent contracts slowly, so the rate rule forms it
    # again after every update that shrank the residual by less than
    # CHORD_RATE, and every frozen-tangent update that kept its tangent
    # shrank it by CHORD_RATE or more
    from recirc.galerkin import CHORD_RATE

    sys_ = make_system(plain16, nu=0.01, nu_tur=0.2)
    events = []
    _logged_newton(monkeypatch, events)
    z0 = 0.3 * np.random.default_rng(14).standard_normal(12)
    _, diag = sys_.step(GalerkinState(0.0, z0), 0.01, tol=1e-12)
    assert diag["tangents"] >= 2
    assert diag["tangents"] == sum(kind == "tangent" for kind, _ in events)
    assert diag["residual"] <= 1e-12 and diag["backtracks"] == 0
    # replay the log: per update [residual before, after, tangent frozen,
    # tangent formed next]
    updates, res, stale = [], None, False
    for kind, value in events:
        if kind == "tangent":
            stale = False
            if updates:
                updates[-1][3] = True
        elif res is None:
            res = value
        else:
            assert value < res  # no trial was dropped
            updates.append([res, value, stale, False])
            res, stale = value, True
    assert any(frozen for _, _, frozen, _ in updates)
    for before, after, frozen, refreshed in updates:
        if after > 1e-12:  # the last update ends the step
            assert refreshed == (after > CHORD_RATE * before)
        if frozen and not refreshed:
            assert after <= CHORD_RATE * before


def test_frozen_tangent_without_decrease_is_refreshed(preset16, monkeypatch):
    # the first frozen-tangent update gets a reversed Newton matrix, so its
    # trial raises the residual: the trial is dropped (no iteration, no
    # backtrack) and the tangent is formed again at the same iterate
    sys_ = preset16.system
    events = []
    _logged_newton(monkeypatch, events)
    jacobians = []

    def reversed_second(defect, tangent, jacobian):
        def jac(z, T_VV):
            jacobians.append(1)
            return -jacobian(z, T_VV) if len(jacobians) == 2 else jacobian(z, T_VV)

        return defect, tangent, jac

    _patch_newton(monkeypatch, reversed_second)
    state = GalerkinState(0.2, 0.01 * np.ones(preset16.basis.size))
    new, diag = sys_.step(state, 0.01)
    kinds = [kind for kind, _ in events]
    assert kinds[:6] == ["defect", "tangent", "defect", "defect", "tangent", "defect"]
    res = [value for _, value in events]
    assert res[3] > res[2] and res[5] < res[2]  # dropped, then a fresh decrease
    assert diag["tangents"] == 2 and diag["backtracks"] == 0
    assert diag["iterations"] == kinds.count("defect") - 2  # z_old's and the dropped trial
    assert diag["residual"] <= 1e-10
    defect = new.z - state.z - 0.01 * sys_.rhs(new.z, new.t)
    assert abs(diag["residual"] - np.linalg.norm(defect)) <= 1e-15


def test_integrate_agrees_with_fresh_steps(preset16):
    # integrate's extrapolated starts and carried tangents change only where
    # Newton stops inside its tolerance: a loop of bare steps (each from
    # z_n with a tangent formed there) agrees in every state, and forms a
    # tangent in every step
    scn, dt = preset16, 0.01
    traj = scn.system.integrate(scn.state0, T=0.4, dt=dt)
    assert traj.completed and traj.step_residuals.max() <= 1e-10
    state, fresh = scn.state0, 0
    for k in range(1, len(traj)):
        state, diag = scn.system.step(state, dt, t_new=k * dt)
        fresh += diag["tangents"]
        assert np.linalg.norm(traj.states[k] - state.z) <= 1e-7 * np.linalg.norm(state.z)
    assert fresh == len(traj) - 1
    assert 0 < traj.tangents.sum() <= fresh / 3


@pytest.fixture(scope="module")
def plateau_step(preset16):
    """(z_{n-1}, z_n, t_n, T) on the four_pumps plateau, T the closure
    tangent at z_n of the step that ends there."""
    sys_, dt = preset16.system, 0.01
    traj = sys_.integrate(preset16.state0, T=0.25, dt=dt)
    (zm, z), t = traj.states[-2:], traj.times[-1]
    defect, tangent, _ = sys_.implicit_euler_newton(zm, dt, t)
    return zm, z, t, tangent(defect(z)[2])


def _updates(events):
    """[residual before, after, tangent formed next] per accepted update of
    a logged step without dropped trials."""
    updates, res = [], None
    for kind, value in events:
        if kind == "tangent":
            if updates:
                updates[-1][2] = True
        elif res is None:
            res = value
        else:
            assert value < res
            updates.append([res, value, False])
            res = value
    return updates


@pytest.mark.parametrize("scale, case", [(1.0, "kept"), (1.25, "not handed on"),
                                         (2.0, "formed")])
def test_carried_tangent_rates(preset16, plateau_step, monkeypatch, scale, case):
    # a plateau step from the extrapolated start, carrying scale times the
    # tangent at z_old: a carried tangent that shrinks the residual by at
    # least CARRY_RATE per update is handed on as it is; by less than
    # CARRY_RATE but at least CHORD_RATE, it serves out the step and is not
    # handed on; by less than CHORD_RATE, it is formed at the next iterate
    from recirc.galerkin import CARRY_RATE, CHORD_RATE

    sys_, dt = preset16.system, 0.01
    zm, z, t, T = plateau_step
    carried = scale * T
    kept = carried.copy()
    log = []
    _logged_secant(monkeypatch, log)
    new, diag = sys_.step(GalerkinState(t, z), dt, start=2 * z - zm, T_VV=carried)
    assert np.array_equal(carried, kept)  # the carried tangent is never written into
    # each update's Newton matrix holds the carried or formed tangent plus
    # the secant updates since; the one in use at the end is handed on
    end = _replay_secant(log, carried, dt)
    updates = _updates(_events(log))
    rates = [after / before for before, after, _ in updates]
    for before, after, formed in updates[:-1]:
        assert formed == (after > CHORD_RATE * before)
    if case == "kept":
        assert max(rates) <= CARRY_RATE
        assert diag["tangents"] == 0 and _rel_gap(diag["T_VV"], end) <= 1e-14
    elif case == "not handed on":
        assert CARRY_RATE < max(rates) <= CHORD_RATE
        assert diag["tangents"] == 0 and diag["T_VV"] is None
    else:
        assert rates[0] > CHORD_RATE and updates[0][2]
        assert diag["tangents"] == 1
        assert diag["T_VV"] is not None and _rel_gap(diag["T_VV"], end) <= 1e-14
    assert diag["residual"] <= 1e-10 and diag["backtracks"] == 0
    defect = new.z - z - dt * sys_.rhs(new.z, new.t)
    assert abs(diag["residual"] - np.linalg.norm(defect)) <= 1e-15


def test_carried_tangent_without_decrease_is_refreshed(preset16, plateau_step, monkeypatch):
    # the carried tangent's one trial gets a reversed Newton matrix, so it
    # raises the residual: the trial is dropped and the tangent is formed at
    # the extrapolated start; the step hands on that fresh tangent with the
    # secant updates of the updates after it
    sys_, dt = preset16.system, 0.01
    zm, z, t, T = plateau_step
    start = 2 * z - zm
    kept = T.copy()
    log = []
    _logged_secant(monkeypatch, log)
    jacobians = []

    def reversed_first(defect, tangent, jacobian):
        def jac(z, T_VV):
            jacobians.append(T_VV)
            return -jacobian(z, T_VV) if len(jacobians) == 1 else jacobian(z, T_VV)

        return defect, tangent, jac

    _patch_newton(monkeypatch, reversed_first)
    new, diag = sys_.step(GalerkinState(t, z), dt, start=start, T_VV=T)
    assert _rel_gap(diag["T_VV"], _replay_secant(log, T, dt)) <= 1e-14
    events = _events(log)
    kinds = [kind for kind, _ in events]
    res = [value for _, value in events]
    assert kinds[:4] == ["defect", "defect", "tangent", "defect"]
    assert res[1] > res[0] and res[3] < res[0]
    assert jacobians[0] is T and np.array_equal(T, kept)
    assert diag["tangents"] == 1 and diag["backtracks"] == 0
    assert diag["iterations"] == kinds.count("defect") - 2  # the start's and the dropped trial
    formed = [entry[1] for entry in log if entry[0] == "tangent"]
    defect, tangent, _ = sys_.implicit_euler_newton(z, dt, t + dt)  # logs on
    assert np.array_equal(formed[0], tangent(defect(start)[2]))
    assert diag["residual"] <= 1e-10


def test_step_after_a_refresh_carries_its_tangent(preset16, monkeypatch):
    # in integrate, a step after one that formed a tangent and handed it on
    # makes no kernel call: every update uses that tangent with the secant
    # updates made since it was formed, in its own step and in this one
    sys_, dt = preset16.system, 0.01
    log, steps = [], []
    _logged_secant(monkeypatch, log)
    kernel, calls = MixedSpace.weighted_strain_stiffness, []
    monkeypatch.setattr(MixedSpace, "weighted_strain_stiffness",
                        lambda *a, **kw: calls.append(1) or kernel(*a, **kw))

    def on_step(state):
        steps.append((list(log), len(calls)))
        log.clear()
        calls.clear()

    traj = sys_.integrate(preset16.state0, T=0.3, dt=dt, on_step=on_step)
    assert [n for _, n in steps] == traj.tangents[1:].tolist()
    assert traj.backtracks.sum() == 0
    carried = 0
    for (before, n_before), (after, n) in zip(steps, steps[1:]):
        if n_before and n == 0:
            first = next(entry[1] for entry in before if entry[0] == "jacobian")
            _replay_secant(after, _replay_secant(before, first, dt), dt)
            carried += 1
    assert carried >= 3


def test_secant_update_satisfies_the_secant_condition(preset16, plateau_step, monkeypatch):
    # a plateau step carrying the tangent at z_old: after each accepted
    # update z -> z+, the Newton matrix at z with the updated tangent maps
    # s = z+ - z onto d(z+) - d(z), and the update calls jacobian no more.
    # s is rounded at the size of z+, so the condition holds to 1e-12 of
    # ||d(z)|| above the floor eps ||J+|| ||z+||, which the updates after
    # the first reach (||d|| ~ 1e-7 against ||z|| ~ 1e-2)
    sys_, dt = preset16.system, 0.01
    zm, z, t, T = plateau_step
    _, _, jacobian = sys_.implicit_euler_newton(z, dt, t + dt)
    log = []
    _logged_secant(monkeypatch, log)
    new, diag = sys_.step(GalerkinState(t, z), dt, start=2 * z - zm, T_VV=T)
    assert diag["tangents"] == 0 and diag["backtracks"] == 0 and diag["T_VV"] is not None
    defects = [entry[1:3] for entry in log if entry[0] == "defect"]
    tangents = [entry[1] for entry in log if entry[0] == "jacobian"][1:] + [diag["T_VV"]]
    assert len(defects) == diag["iterations"] + 1 >= 2
    assert len(tangents) == diag["iterations"]  # one jacobian call per update
    for k, ((z0, d0), (z1, d1), T1) in enumerate(zip(defects, defects[1:], tangents)):
        J1 = jacobian(z0, T1)
        gap = np.linalg.norm(J1 @ (z1 - z0) - (d1 - d0))
        floor = 0.0 if k == 0 else np.finfo(float).eps * np.linalg.norm(J1, 2) * np.linalg.norm(z1)
        assert gap <= 1e-12 * np.linalg.norm(d0) + floor


def test_integrate_starts_from_the_quadratic_extrapolation(preset16, monkeypatch):
    # step 1 starts at z_0, step 2 at 2 z_1 - z_0, and step n + 1 at
    # 3 z_n - 3 z_{n-1} + z_{n-2}
    step, starts = ReducedSystem.step, []

    def logged(self, state, dt, **kw):
        starts.append((state.z.copy(), kw.get("start")))
        return step(self, state, dt, **kw)

    monkeypatch.setattr(ReducedSystem, "step", logged)
    traj = preset16.system.integrate(preset16.state0, T=0.1, dt=0.01)
    z = traj.states
    assert len(starts) == len(traj) - 1
    for n, (z_old, start) in enumerate(starts):
        assert np.array_equal(z_old, z[n])
        if n == 0:
            assert start is None  # a step without a start begins at z_old
        elif n == 1:
            assert np.array_equal(start, 2 * z[1] - z[0])
        else:
            assert np.array_equal(start, 3 * z[n] - 3 * z[n - 1] + z[n - 2])


@pytest.mark.parametrize("scheme", ["implicit-euler", "explicit-rk4"])
def test_evaluations_count_the_closure_calls(preset16, monkeypatch, scheme):
    # each step's evaluations are its closure evaluations: 4 per RK4 step;
    # for implicit Euler the start's defect and every trial
    closure, calls = ReducedSystem._closure, []
    monkeypatch.setattr(ReducedSystem, "_closure",
                        lambda *a: calls.append(1) or closure(*a))
    traj = preset16.system.integrate(preset16.state0, T=0.4, dt=0.01, scheme=scheme)
    assert traj.evaluations[0] == 0
    assert traj.evaluations.sum() == len(calls)
    if scheme == "explicit-rk4":
        assert np.all(traj.evaluations[1:] == 4)
    else:
        assert np.all(traj.evaluations[1:] >= traj.iterations[1:] + 1)


def test_newton_without_closure_is_exact(preset16, monkeypatch):
    # nu_tur = 0: no kernel call, and every update is Newton's
    # z - J(z)^-1 d(z) with the Jacobian at the current iterate
    scn = preset16
    sys_ = ReducedSystem(scn.space, scn.basis, scn.lifting, scn.pumps,
                         ClosureParams(scn.params.nu, 0.0))
    calls = []
    kernel = MixedSpace.weighted_strain_stiffness
    monkeypatch.setattr(MixedSpace, "weighted_strain_stiffness",
                        lambda *a, **kw: calls.append(1) or kernel(*a, **kw))
    newton = sys_.implicit_euler_newton
    points = []
    _patch_newton(monkeypatch, lambda defect, tangent, jacobian: (
        lambda z: points.append(z) or defect(z), tangent, jacobian))
    state = GalerkinState(0.3, 0.5 * np.random.default_rng(44).standard_normal(scn.basis.size))
    dt = 0.05
    _, diag = sys_.step(state, dt, tol=1e-13)
    assert diag["tangents"] == 0 and not calls
    assert diag["iterations"] >= 2 and diag["backtracks"] == 0
    defect, _, jacobian = newton(state.z, dt, state.t + dt)
    for z, z_next in zip(points, points[1:]):
        assert np.array_equal(z_next, z - np.linalg.solve(jacobian(z, None), defect(z)[0]))


@pytest.mark.parametrize("nu_tur", [0.1, 0.0])
def test_newton_jacobian_matches_central_difference(preset16, nu_tur):
    # J = I + dt (visc + J_conv + T_VV) against central differences of the
    # defect, with pumps (t inside the plateau) and without the closure
    scn = preset16
    params = ClosureParams(scn.params.nu, nu_tur)
    sys_ = ReducedSystem(scn.space, scn.basis, scn.lifting, scn.pumps, params)
    rng = np.random.default_rng(41)
    dt, h = 0.01, 1e-5  # at h = 1e-5 the observed gap is at most 5e-10 of max|J - I|
    for t in (0.3, 0.9):
        defect, tangent, jacobian = sys_.implicit_euler_newton(
            rng.standard_normal(scn.basis.size), dt, t)
        z = 0.5 * rng.standard_normal(scn.basis.size)
        f = defect(z)[2]
        assert (f is None) == (nu_tur == 0)
        jac = jacobian(z, None if f is None else tangent(f))
        fd = np.column_stack([
            (defect(z + h * e)[0] - defect(z - h * e)[0]) / (2 * h)
            for e in np.eye(len(z))
        ])
        part = jac - np.eye(len(z))  # the dt (...) part; I is exact in both
        assert np.abs(fd - np.eye(len(z)) - part).max() <= 1e-8 * np.abs(part).max()


def test_closure_tangent_is_twice_the_load(preset16):
    # the closure is homogeneous of degree 2: 1/2 T(w) w is the closure load,
    # here the table's tangent against the load of the strain samples of w
    from recirc.turbulence import closure_tangent, smagorinsky_load

    scn = preset16
    sys_, space, V = scn.system, scn.space, scn.basis.fields
    rng = np.random.default_rng(43)
    for t in (0.1, 0.6):
        g, _ = sys_.lift_modal(t)
        z = 0.3 * rng.standard_normal(scn.basis.size)
        f = sys_.state_fields(z, g)
        w, a = closure_tangent(f.w_eps_mag, scn.params)
        U = np.column_stack([V, scn.lifting.combine(g)])
        T = space.weighted_strain_stiffness(w, space.strain_coefficients(U), rank_one=(a, f.w_eps))
        got = 0.5 * (T[:-1] @ np.append(z, 1.0))
        w_eps = space.strain_samples(scn.lifting.combine(g) + scn.basis.expand(z))
        load = V.T @ smagorinsky_load(space, w_eps, scn.params)
        assert np.abs(got - load).max() <= 1e-12 * np.abs(load).max()


def test_closure_tangent_guard_at_zero_strain(preset16):
    # at w = 0 (g = 0 at t = 0, z = 0) every |e| is 0: the rank-one weight is
    # guarded to 0, so the tangent block is exactly zero and nothing warns;
    # convection's Jacobian vanishes at y = 0, which leaves I + dt visc
    scn = preset16
    sys_ = scn.system
    g, _ = sys_.lift_modal(0.0)
    assert np.abs(g).max() == 0.0
    N, dt = scn.basis.size, 0.01
    z = np.zeros(N)
    defect, tangent, jacobian = sys_.implicit_euler_newton(z, dt, 0.0)
    with np.errstate(all="raise"):
        d, res, f = defect(z)
        T_VV = tangent(f)
        jac = jacobian(z, T_VV)
    assert np.all(np.isfinite(jac)) and np.isfinite(res)
    assert np.array_equal(T_VV, np.zeros((N, N)))
    assert np.array_equal(jac, np.eye(N) + dt * sys_.visc)


def _conv_oracle(space, basis, zg, z):
    """c(w; w, xi_k) - c(zeta_g; zeta_g, xi_k), w = zeta_g + z, by quadrature."""
    zf = basis.expand(z)
    return convect(space, zf, zg + zf, basis.fields) + convect(space, zg, zf, basis.fields)


@pytest.mark.parametrize("case", ["preset16", "plain16"])
def test_convection_contraction_matches_quadrature(case, request):
    if case == "preset16":
        scn = request.getfixturevalue("preset16")
        sys_ = scn.system
    else:
        sys_ = make_system(request.getfixturevalue("plain16"))
    space, basis = sys_.space, sys_.basis
    rng = np.random.default_rng(31)
    for scale in [0.3] * 4 + [0.0, 1e-8]:
        z = scale * rng.standard_normal(basis.size)
        t = float(rng.uniform(0.05, 1.0))
        g, _ = sys_.lift_modal(t)
        zg, _ = sys_.lift_fields(t)
        got = sys_._conv_modal(z, g)
        oracle = _conv_oracle(space, basis, zg, z)
        assert np.abs(got - oracle).max() <= 1e-12 * np.abs(oracle).max()


def test_convection_tensor_skew_self_pairing(preset16):
    # c(u_a; z, z) = 0 for every a: the mode-mode block is antisymmetric in (k, b)
    sys_ = preset16.system
    K = len(sys_.lifting)
    Cmm = sys_.C[:, :, K:]
    assert np.array_equal(Cmm, -Cmm.transpose(2, 1, 0))
    rng = np.random.default_rng(32)
    for _ in range(5):
        z = rng.standard_normal(sys_.basis.size)
        pair = np.einsum("k,kab,b->a", z, Cmm, z)
        terms = np.einsum("k,kab,b->a", np.abs(z), np.abs(Cmm), np.abs(z))
        assert np.all(np.abs(pair) <= 1e-14 * terms.max())
    assert np.abs(sys_.C[:, :K, :K]).max(initial=0.0) == 0.0


def test_lift_data_modal_hg_matches_quadrature(preset16):
    # inside the ramp (gdot != 0) and with a source: every term comes from
    # the offline tables, the source's from its modal part pairings
    scn = preset16
    sys_ = ReducedSystem(scn.space, scn.basis, scn.lifting, scn.pumps, scn.params,
                         source=ramp_source())
    t = 0.1
    _, hg = sys_.lift_modal(t)
    assert np.abs(scn.pumps.rates(t)[1]).max() > 0.0
    oracle = scn.basis.fields.T @ scn.space.load_vector(sys_.lift_data(t).h)
    assert np.abs(hg - oracle).max() <= 1e-12 * np.abs(oracle).max()


def test_steppers_form_no_lift_tables(preset16, monkeypatch):
    # without a source the right-hand side and both steppers read the rates
    # g and the offline H_g tables only, never a quadrature-point LiftData
    import recirc.galerkin as galerkin

    calls = []
    build = galerkin.compute_Hg_load
    monkeypatch.setattr(galerkin, "compute_Hg_load", lambda *a: calls.append(a) or build(*a))
    sys_ = preset16.system
    assert sys_.source is None
    state = GalerkinState(0.1, 0.01 * np.ones(preset16.basis.size))  # inside the ramp
    sys_.rhs(state.z, state.t)
    sys_.step(state, 0.01)
    sys_.step(state, 0.01, scheme="explicit-rk4")
    assert not calls
    sys_.lift_data(state.t)  # the counter sees the oracle's route
    assert len(calls) == 1


def test_manufactured_source_is_evaluated_only_at_construction(preset16, monkeypatch):
    # the source's tables are formed when the system is built: an implicit
    # run, an RK4 run and a ledger then never evaluate the forcing, and the
    # modal part pairings give the quadrature pairing of F(t) with the modes
    from recirc.mms import ManufacturedSolution
    from recirc.monitors import ledger

    scn = preset16
    mms = ManufacturedSolution(scn.params.nu, scn.params.nu_tur)
    sys_ = ReducedSystem(scn.space, scn.basis, scn.lifting, scn.pumps, scn.params, source=mms)
    calls = []
    for name in ("forcing", "forcing_parts"):
        real = getattr(mms, name)
        monkeypatch.setattr(mms, name, lambda *a, real=real: calls.append(1) or real(*a))
    traj = sys_.integrate(scn.state0, T=0.1, dt=0.02)
    sys_.integrate(scn.state0, T=0.1, dt=0.02, scheme="explicit-rk4")
    ledger(sys_, traj)
    assert not calls
    monkeypatch.undo()
    space, V = scn.space, scn.basis.fields
    for t in (0.0, 0.1, 0.5, 1.0):
        ref = V.T @ space.load_vector(space.sample(mms.forcing, t))
        assert np.abs(mms.combine(sys_.S, t) - ref).max() <= 1e-13 * np.abs(ref).max()


def test_step_fields_match_ledger_tables(preset16):
    # the steppers' StateFields, from the strain table at y = [g; z], against
    # the quadrature route, the lift's gradient table plus z's
    from recirc.turbulence import planes, strain_norm, sym_grad

    scn = preset16
    sys_, space = scn.system, scn.space
    rng = np.random.default_rng(46)
    for t, ramp in ((0.1, True), (0.6, False)):
        g, gdot = scn.pumps.rates(t)
        assert (np.abs(gdot).max() > 0) == ramp and np.abs(g).max() > 0
        z = 0.3 * rng.standard_normal(scn.basis.size)
        got = sys_.state_fields(z, g)
        eps = sym_grad(sys_.lift_data(t).zg_grads + space.eval_grads(scn.basis.expand(z)))
        for a, b in ((got.w_eps, np.stack(planes(eps))), (got.w_eps_mag, strain_norm(eps))):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


def test_perturbed_convection_tensor_rejected(preset16, monkeypatch):
    scn = preset16
    exact = MixedSpace.convection_tensor
    rng = np.random.default_rng(33)

    def perturbed(space, W):
        T = exact(space, W)
        return T + 1e-6 * np.abs(T).max() * rng.standard_normal(T.shape)

    monkeypatch.setattr(MixedSpace, "convection_tensor", perturbed)
    with pytest.raises(SolverError, match="convection tensor"):
        ReducedSystem(scn.space, scn.basis, scn.lifting, scn.pumps, scn.params)


def test_perturbed_strain_table_rejected(preset16, monkeypatch):
    scn = preset16
    exact = MixedSpace.strain_coefficients
    rng = np.random.default_rng(34)

    def perturbed(space, W):
        T = exact(space, W)
        return T + 1e-6 * np.abs(T).max() * rng.standard_normal(T.shape)

    monkeypatch.setattr(MixedSpace, "strain_coefficients", perturbed)
    with pytest.raises(SolverError, match="strain table"):
        ReducedSystem(scn.space, scn.basis, scn.lifting, scn.pumps, scn.params)


def test_strain_table_matches_strain_samples():
    # the non-square, non-unit mesh of test_eval_grads_exact_on_quadratic_field
    # with a pump from the bottom to the left side: the planes of every lift
    # column, every mode column and a truncated system's columns against the
    # strain samples of the column's velocity field
    from recirc.turbulence import planes

    cfg = {
        "domain": {"Lx": 1.0, "Ly": 2.0}, "mesh": {"nx": 3, "ny": 5},
        "fluid": {"nu": 0.02, "nu_tur": 0.05},
        "pumps": [{"injector": {"side": "bottom", "start": 1 / 3, "end": 2 / 3},
                   "collector": {"side": "left", "start": 0.8, "end": 1.6},
                   "profile": {"kind": "flat"}, "schedule": [[0.0, 0.0], [1.0, 0.1]]}],
        "time": {"T": 0.1, "dt": 0.01, "scheme": "implicit-euler"},
        "galerkin": {"modes": 6}, "output": {"dir": "out", "every": 5}, "seed": 3,
    }
    scn = build_scenario(validate(cfg))
    space, sys_ = scn.space, scn.system
    assert space.mesh.num_cells == 30 and len(scn.lifting) == 1
    W = np.column_stack([scn.lifting.zetas.T, scn.basis.fields])
    for system, n in ((sys_, scn.basis.size), (sys_.truncate(4), 4)):
        assert system.strain_coef.shape == (9 * space.mesh.num_cells, 1 + n)
        for k in range(1 + n):
            got = space.strain_planes(system.strain_coef[:, k])
            ref = np.stack(planes(space.strain_samples(W[:, k])))
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max(), (n, k)


def _fresh_truncation(scn, n):
    return ReducedSystem(scn.space, scn.basis.truncate(n), scn.lifting, scn.pumps, scn.params,
                         source=scn.source)


def _rel_gap(a, b):
    assert a.shape == b.shape
    return np.abs(a - b).max(initial=0.0) / max(np.abs(b).max(initial=0.0), 1e-300)


@pytest.mark.parametrize("preset", ["four_pumps", "manufactured"])
def test_truncate_slices_a_fresh_build(preset, preset16):
    # the convection tables of a truncation are the checked tables of the
    # full system, bit for bit; the Gram products differ by GEMM blocking
    scn = preset16 if preset == "four_pumps" else build_scenario(validate(preset_path(preset)))
    full = scn.system
    for n in (1, 5, scn.basis.size):
        sub, fresh = full.truncate(n), _fresh_truncation(scn, n)
        assert sub.basis.size == n and np.array_equal(sub.basis.fields, fresh.basis.fields)
        assert np.array_equal(sub.C, fresh.C) and sub.C.flags.c_contiguous
        assert np.array_equal(sub.R, fresh.R) and sub.R.flags.c_contiguous
        assert np.array_equal(sub.strain_coef, fresh.strain_coef)
        tables = ("visc", "P", "S") if scn.source is not None else ("visc", "P")
        for name in tables:
            assert _rel_gap(getattr(sub, name), getattr(fresh, name)) <= 1e-14, name
        for name in ("space", "lifting", "pumps", "params", "source"):
            assert getattr(sub, name) is getattr(full, name)
    for n in (0, scn.basis.size + 1):
        with pytest.raises(ValueError, match="cannot truncate"):
            full.truncate(n)


@pytest.mark.parametrize("scheme", ["implicit-euler", "explicit-rk4"])
def test_truncated_runs_match_a_fresh_build(preset16, scheme):
    scn = preset16
    for n in (5, 10):
        state0 = GalerkinState(0.0, scn.state0.z[:n].copy())
        got = scn.system.truncate(n).integrate(state0, T=0.3, dt=0.01, scheme=scheme)
        ref = _fresh_truncation(scn, n).integrate(state0, T=0.3, dt=0.01, scheme=scheme)
        assert _rel_gap(got.states, ref.states) <= 1e-14
        assert np.array_equal(got.iterations, ref.iterations)
        assert np.array_equal(got.tangents, ref.tangents)


def test_closure_defect_matches_oracle(preset16):
    # the defect's closure pairings (strain planes of the table, the weighted
    # stress planes, one table load) against the old composition (the strain
    # samples of the expanded w, the stress table, a scattered load and V^T),
    # with pumps
    scn = preset16
    sys_, V = scn.system, scn.basis.fields
    rng = np.random.default_rng(107)
    for t, scale in ((0.1, 0.01), (0.5, 0.2), (0.5, 0.0)):
        z = scale * rng.standard_normal(scn.basis.size)
        g, _ = scn.pumps.rates(t)
        got, _ = sys_._closure(z, g)
        w_eps = scn.space.strain_samples(scn.lifting.combine(g) + scn.basis.expand(z))
        ref = closure_pairing_oracle(scn.space, V, w_eps, scn.params)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_newton_patches_leave_no_instance_residue(preset16):
    # run after the tests above that patch implicit_euler_newton: each patched
    # the class, so the session-wide system still steps with the class method
    assert "implicit_euler_newton" not in vars(preset16.system)


def test_space_patches_leave_no_instance_residue(preset16):
    # run after the tests above that count or perturb MixedSpace methods: each
    # patched the class, so the session-wide space and system keep theirs
    assert_no_instance_patches(preset16.space)
    assert_no_instance_patches(preset16.system)
