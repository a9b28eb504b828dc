import numpy as np
import pytest
from scipy.linalg import expm

from recirc.eigenbasis import solve_stokes_eigen
from recirc.errors import SolverError, StepError
from recirc.galerkin import GalerkinState, ReducedSystem, initial_state
from recirc.lifting import build_lifting, compute_Hg_load
from recirc.mesh import build_rect_mesh
from recirc.pumps import PumpSet
from recirc.space import MixedSpace
from recirc.turbulence import ClosureParams, apply_A, convect


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


def test_step_rejects_bad_dt(plain16):
    sys_ = make_system(plain16)
    with pytest.raises(ValueError):
        sys_.step(GalerkinState(0.0, np.zeros(12)), -0.1)
    with pytest.raises(ValueError):
        sys_.step(GalerkinState(0.0, np.zeros(12)), 0.1, scheme="leapfrog")


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
        pg = scn.pumps.phi_g(t, scn.space)
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


def test_step_error_on_iteration_budget(preset16):
    scn = preset16
    state = GalerkinState(0.2, 0.01 * np.ones(scn.basis.size))
    with pytest.raises(StepError, match="did not converge in 1 Newton") as err:
        scn.system.step(state, 0.01, tol=1e-14, max_iter=1)
    assert err.value.iterations == 1 and len(err.value.history) == 2
    assert err.value.t == pytest.approx(0.21)


def test_step_error_on_singular_newton_matrix(preset16, monkeypatch):
    sys_ = preset16.system
    newton = sys_.implicit_euler_newton

    def singular(*args):
        defect, tangent, _ = newton(*args)
        return defect, tangent, lambda z, T_VV: np.zeros((len(z), len(z)))

    monkeypatch.setattr(sys_, "implicit_euler_newton", singular)
    state = GalerkinState(0.2, 0.01 * np.ones(preset16.basis.size))
    with pytest.raises(StepError, match="singular Newton matrix") as err:
        sys_.step(state, 0.01)
    assert err.value.iterations == 0 and len(err.value.history) == 1


def _logged_newton(sys_, monkeypatch, events):
    """Patch sys_.implicit_euler_newton to append ("defect", residual) and
    ("tangent", None) to events, in the order the step calls them."""
    newton = sys_.implicit_euler_newton

    def logged(*args):
        defect, tangent, jacobian = newton(*args)

        def logged_defect(z):
            out = defect(z)
            events.append(("defect", out[1]))
            return out

        def logged_tangent(f):
            events.append(("tangent", None))
            return tangent(f)

        return logged_defect, logged_tangent, jacobian

    monkeypatch.setattr(sys_, "implicit_euler_newton", logged)


def test_picard_step_convection_load_count(preset16, monkeypatch):
    # one closure load per defect evaluation, z_old's included, and one
    # strain kernel per step: the tangent is formed once and frozen;
    # convection is the modal contraction and H_g comes from offline
    # tables, so no convection pairing on the mesh
    import recirc.galerkin as galerkin

    calls = {"convection": 0, "smagorinsky": 0, "strain": 0}

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
    space = scn.system.space
    monkeypatch.setattr(space, "weighted_strain_stiffness",
                        counted("strain", space.weighted_strain_stiffness))
    events = []
    _logged_newton(scn.system, monkeypatch, events)
    dt = 0.01
    for t, tol in ((0.2, 1e-10), (0.3, 1e-6)):  # a new time each, so lift data are formed
        calls.update(convection=0, smagorinsky=0, strain=0)
        events.clear()
        state = GalerkinState(t, 0.01 * np.ones(scn.basis.size))
        new, diag = scn.system.step(state, dt, tol=tol)
        defects = sum(kind == "defect" for kind, _ in events)
        assert diag["iterations"] >= 2
        assert calls["convection"] == 0
        assert calls["strain"] == diag["tangents"] == 1
        assert calls["smagorinsky"] == defects == diag["iterations"] + diag["backtracks"] + 1
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
    _logged_newton(sys_, monkeypatch, events)
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
    _logged_newton(sys_, monkeypatch, events)
    logged = sys_.implicit_euler_newton
    jacobians = []

    def reversed_second(*args):
        defect, tangent, jacobian = logged(*args)

        def jac(z, T_VV):
            jacobians.append(1)
            return -jacobian(z, T_VV) if len(jacobians) == 2 else jacobian(z, T_VV)

        return defect, tangent, jac

    monkeypatch.setattr(sys_, "implicit_euler_newton", reversed_second)
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


def test_newton_without_closure_is_exact(preset16, monkeypatch):
    # nu_tur = 0: no kernel call, and every update is Newton's
    # z - J(z)^-1 d(z) with the Jacobian at the current iterate
    scn = preset16
    sys_ = ReducedSystem(scn.space, scn.basis, scn.lifting, scn.pumps,
                         ClosureParams(scn.params.nu, 0.0))
    calls = []
    kernel = scn.space.weighted_strain_stiffness
    monkeypatch.setattr(scn.space, "weighted_strain_stiffness",
                        lambda *a, **kw: calls.append(1) or kernel(*a, **kw))
    newton = sys_.implicit_euler_newton
    points = []

    def logged(*args):
        defect, tangent, jacobian = newton(*args)
        return (lambda z: points.append(z) or defect(z)), tangent, jacobian

    monkeypatch.setattr(sys_, "implicit_euler_newton", logged)
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
    # the closure is homogeneous of degree 2: 1/2 T(w) w is the closure load
    from recirc.turbulence import smagorinsky_load

    scn = preset16
    sys_, space, V = scn.system, scn.space, scn.basis.fields
    nu_tur = scn.params.nu_tur
    rng = np.random.default_rng(43)
    for t in (0.1, 0.6):
        g, _ = sys_.lift_modal(t)
        z = 0.3 * rng.standard_normal(scn.basis.size)
        f = sys_.state_fields(z, g)
        mag = f.w_eps_mag
        U = np.column_stack([V, scn.lifting.combine(g)])
        T = space.weighted_strain_stiffness(nu_tur * mag, U,
                                            rank_one=(nu_tur / mag, f.w_eps))
        got = 0.5 * (T[:-1] @ np.append(z, 1.0))
        load = V.T @ smagorinsky_load(space, f.w_eps, scn.params)
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
    # inside the ramp (gdot != 0) and with a source: only the source is paired
    # by quadrature, the rest comes from the offline tables
    scn = preset16

    def F(x, y, t):
        return np.column_stack([np.sin(3 * x) * y, x - t * y**2])

    sys_ = ReducedSystem(scn.space, scn.basis, scn.lifting, scn.pumps, scn.params, source=F)
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
    sys_.lift_data(state.t)  # the counter sees the ledger's route
    assert len(calls) == 1


def test_step_fields_match_ledger_tables(preset16):
    # the steppers' StateFields, from one gradient evaluation of w = zeta_g + z,
    # against the ledger's route, the lift's gradient table plus z's
    from recirc.galerkin import StateFields

    scn = preset16
    sys_, space = scn.system, scn.space
    rng = np.random.default_rng(46)
    for t, ramp in ((0.1, True), (0.6, False)):
        g, gdot = scn.pumps.rates(t)
        assert (np.abs(gdot).max() > 0) == ramp and np.abs(g).max() > 0
        z = 0.3 * rng.standard_normal(scn.basis.size)
        got = sys_.state_fields(z, g)
        ref = StateFields(sys_.lift_data(t).zg_grads + space.eval_grads(scn.basis.expand(z)))
        for a, b in ((got.w_eps, ref.w_eps), (got.w_eps_mag, ref.w_eps_mag)):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


def test_perturbed_convection_tensor_rejected(preset16, monkeypatch):
    scn = preset16
    space = scn.space
    exact = space.convection_tensor
    rng = np.random.default_rng(33)

    def perturbed(W):
        T = exact(W)
        return T + 1e-6 * np.abs(T).max() * rng.standard_normal(T.shape)

    monkeypatch.setattr(space, "convection_tensor", perturbed)
    with pytest.raises(SolverError, match="convection tensor"):
        ReducedSystem(space, scn.basis, scn.lifting, scn.pumps, scn.params)
