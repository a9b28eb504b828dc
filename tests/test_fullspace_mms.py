import weakref

import numpy as np
import pytest

from conftest import (doubled_grad_operator, doubled_nonlinear_load, doubled_state_fields,
                      nonlinear_load_oracle, strain_norm)
from recirc import fullspace
from recirc.errors import SolverError, StepError
from recirc.fullspace import FullSpaceSystem
from recirc.mesh import build_rect_mesh
from recirc.mms import ManufacturedSolution
from recirc.space import MixedSpace
from recirc.turbulence import ClosureParams, closure_tangent


@pytest.fixture(scope="module")
def mms():
    return ManufacturedSolution(nu=0.05, nu_tur=0.02)


def test_exact_velocity_divergence_free_and_boundary_zero(mms, space8):
    v0 = mms.initial_velocity(space8)
    assert np.abs(v0[space8.boundary_vdofs]).max() == 0.0
    G = space8.eval_grads(v0)
    div = G[..., 0, 0] + G[..., 1, 1]
    # interpolation leaves an O(h^2) pointwise divergence; the exact field is free
    xy = space8.qpoints
    h = 1e-6
    vxp = mms.velocity(xy[..., 0] + h, xy[..., 1], 0.0)[..., 0]
    vxm = mms.velocity(xy[..., 0] - h, xy[..., 1], 0.0)[..., 0]
    vyp = mms.velocity(xy[..., 0], xy[..., 1] + h, 0.0)[..., 1]
    vym = mms.velocity(xy[..., 0], xy[..., 1] - h, 0.0)[..., 1]
    div_exact = (vxp - vxm + vyp - vym) / (2 * h)
    assert np.abs(div_exact).max() <= 1e-8
    assert np.abs(div).max() <= 0.5  # discrete one is small but nonzero


def test_forcing_matches_finite_difference_operator(mms):
    # independent oracle: central differences of the strong momentum operator
    h = 1e-5
    nu, nut = mms.nu, mms.nu_tur

    def vel(x, y, t):
        return mms.velocity(np.atleast_1d(x), np.atleast_1d(y), t)[0]

    def stress_tensor(x, y, t):
        gx = (vel(x + h, y, t) - vel(x - h, y, t)) / (2 * h)
        gy = (vel(x, y + h, t) - vel(x, y - h, t)) / (2 * h)
        G = np.array([[gx[0], gy[0]], [gx[1], gy[1]]])
        E = 0.5 * (G + G.T)
        return (2 * nu + 2 * nut * np.sqrt((E * E).sum())) * E

    rng = np.random.default_rng(1)
    for _ in range(4):
        x, y, t = rng.uniform(0.15, 0.85, 3)
        dvdt = (vel(x, y, t + h) - vel(x, y, t - h)) / (2 * h)
        gx = (vel(x + h, y, t) - vel(x - h, y, t)) / (2 * h)
        gy = (vel(x, y + h, t) - vel(x, y - h, t)) / (2 * h)
        v = vel(x, y, t)
        conv = v[0] * gx + v[1] * gy
        dSx = (stress_tensor(x + h, y, t) - stress_tensor(x - h, y, t)) / (2 * h)
        dSy = (stress_tensor(x, y + h, t) - stress_tensor(x, y - h, t)) / (2 * h)
        divS = np.array([dSx[0, 0] + dSy[0, 1], dSx[1, 0] + dSy[1, 1]])
        P = mms.pressure_amplitude
        gradp = P * np.array(
            [np.pi * np.cos(np.pi * x) * np.cos(np.pi * y),
             -np.pi * np.sin(np.pi * x) * np.sin(np.pi * y)]
        )
        oracle = dvdt + conv - divS + gradp
        F = mms.forcing(np.array([x]), np.array([y]), t)[0]
        assert np.abs(F - oracle).max() <= 5e-5


def _symbolic_parts(mms):
    """vhat, F0, F1, F2 derived in sympy from the strong equations and
    lambdified: the oracle of the closed forms in recirc.mms."""
    import sympy as sym

    x, y = sym.symbols("x y", real=True)
    psi = mms.amplitude * (x * (1 - x) * y * (1 - y)) ** 2
    v = sym.Matrix([sym.diff(psi, y), -sym.diff(psi, x)])
    p = mms.pressure_amplitude * sym.sin(sym.pi * x) * sym.cos(sym.pi * y)
    G = v.jacobian([x, y])  # G[a, b] = d vhat_a / d x_b
    E = (G + G.T) / 2
    mag = sym.sqrt(E[0, 0] ** 2 + 2 * E[0, 1] ** 2 + E[1, 1] ** 2)

    def div(S):
        return sym.Matrix([sym.diff(S[a, 0], x) + sym.diff(S[a, 1], y) for a in (0, 1)])

    F0 = v / 2 + sym.Matrix([sym.diff(p, x), sym.diff(p, y)])
    F1 = -2 * mms.nu * div(E)
    F2 = G * v - 2 * mms.nu_tur * div(mag * E)
    f = sym.lambdify((x, y), [*v, *F0, *F1, *F2], modules="numpy", cse=True)
    # a constant entry comes back a scalar
    return lambda x, y: np.stack(np.broadcast_arrays(x, *f(x, y))[1:], axis=-1).reshape(-1, 4, 2)


@pytest.mark.parametrize("params", [(0.05, 0.02, 8.0, 0.2), (0.01, 0.3, -3.0, 0.7)])
def test_closed_form_matches_symbolic_derivation(params):
    # vhat and the three forcing parts at the 16^2 quadrature points and at
    # random interior points, each to 1e-13 of its largest |value|
    mms = ManufacturedSolution(*params)
    oracle = _symbolic_parts(mms)
    space = MixedSpace(build_rect_mesh(1, 1, 16, 16))
    rng = np.random.default_rng(13)
    for xy in (space.qpoints.reshape(-1, 2), rng.uniform(0.0, 1.0, (2000, 2))):
        x, y = xy.T
        got = np.concatenate([mms._vhat(x, y)[:, None], mms.forcing_parts(x, y)], axis=1)
        ref = oracle(x, y)
        for k in range(4):
            scale = np.abs(ref[:, k]).max()
            assert np.abs(got[:, k] - ref[:, k]).max() <= 1e-13 * scale


def test_forcing_parts_strain_zero_guard(mms):
    # |eps(vhat)| = 0 at the corners and the centre, where grad |eps| is 0/0;
    # no quadrature point is one, so every mesh's table is finite
    for x, y in ((0.0, 0.0), (1.0, 0.0), (0.5, 0.5)):
        with pytest.raises(FloatingPointError, match="strain zero"):
            mms.forcing_parts(np.array([x, 0.3]), np.array([y, 0.6]))
    for n in (8, 16, 32):
        space = MixedSpace(build_rect_mesh(1, 1, n, n))
        assert np.isfinite(space.sample(mms.forcing_parts)).all()


def test_project_divfree(space8):
    fs = FullSpaceSystem(space8, ClosureParams(0.05, 0.0))
    rng = np.random.default_rng(3)
    w = rng.standard_normal(space8.n_velocity)
    pw = fs.project_divfree(w)
    assert np.linalg.norm(space8.B @ pw) <= 1e-10 * max(1.0, np.abs(w).max())
    assert np.abs(pw[space8.boundary_vdofs]).max() == 0.0
    # idempotent and M-orthogonal remainder
    ppw = fs.project_divfree(pw)
    assert np.abs(ppw - pw).max() <= 1e-10
    for eta in (fs.project_divfree(rng.standard_normal(space8.n_velocity)),):
        assert abs((w - pw) @ (space8.M @ eta)) <= 1e-10


def test_short_mms_run_error_magnitude(mms, space8):
    params = ClosureParams(mms.nu, mms.nu_tur)
    fs = FullSpaceSystem(space8, params, source=mms)
    errs = []
    _, iterations = fs.integrate(
        mms.initial_velocity(space8), T=0.05, dt=1e-3,
        observer=lambda t, z: errs.append(mms.velocity_error(space8, z, t)),
    )
    # stays at the interpolation-error level, no blowup
    assert max(errs) <= 5 * errs[0] + 1e-12
    assert all(np.isfinite(errs))
    # the shifted Picard count of every step, as the sampled per-step forcing
    # and the batched convection products gave it
    assert iterations == [8, 8] + [7] * 7 + [6] * 12 + [5] * 20 + [4] * 9


def test_source_loads_match_sampled_forcing(mms, space8):
    # the three tabulated part loads against the load of the forcing sampled at t
    fs = FullSpaceSystem(space8, ClosureParams(mms.nu, mms.nu_tur), source=mms)
    for t in (0.0, 1e-3, 0.5, 1.0):
        ref = space8.load_vector(space8.sample(mms.forcing, t))
        assert np.abs(fs.source_load(t) - ref).max() <= 1e-13 * np.abs(ref).max()


def test_integrate_rejects_T_off_the_step_grid(mms, space8):
    # 0.015 / 0.01 rounds to 2 steps, which would end at t = 0.02
    fs = FullSpaceSystem(space8, ClosureParams(mms.nu, mms.nu_tur), source=mms)
    with pytest.raises(ValueError, match="T = 0.015 is not an integer multiple of dt = 0.01"):
        fs.integrate(mms.initial_velocity(space8), T=0.015, dt=0.01)


@pytest.mark.parametrize("T, dt, match", [
    (1.0, -0.1, "dt must be positive"), (1.0, 0.0, "dt must be positive"),
    (1.0, np.nan, "dt must be positive"), (-1.0, 0.1, "T must be positive"),
    (np.inf, 0.1, "T must be positive"), (1.0, 5e-324, "too many steps"),
    (1e-10, 0.01, "T = 1e-10 takes no step of dt = 0.01"),
])
def test_integrate_rejects_nonpositive_or_nonfinite_step(mms, space8, T, dt, match):
    fs = FullSpaceSystem(space8, ClosureParams(mms.nu, mms.nu_tur), source=mms)
    observed = []
    with pytest.raises(ValueError, match=match):
        fs.integrate(mms.initial_velocity(space8), T=T, dt=dt,
                     observer=lambda t, z: observed.append(t))
    assert not observed  # rejected before the projection and the first step


def test_velocity_error_tabulates_vhat_once(mms, monkeypatch):
    # vhat is evaluated once per space and scaled by a(t): the same bits as
    # sampling the exact velocity at every call
    space = MixedSpace(build_rect_mesh(1, 1, 4, 4))
    calls = []
    vhat = mms._vhat
    monkeypatch.setattr(mms, "_vhat", lambda x, y: calls.append(1) or vhat(x, y))
    z = np.random.default_rng(2).standard_normal(space.n_velocity)
    for t in (0.0, 0.01, 0.5):
        diff = space.eval_values(z) - space.sample(mms.velocity, t)
        ref = np.sqrt(space.integrate((diff * diff).sum(axis=-1)))
        before = len(calls)
        assert mms.velocity_error(space, z, t) == ref
        assert len(calls) - before == (t == 0.0)


def test_forcing_is_its_time_polynomial(mms):
    rng = np.random.default_rng(5)
    x, y = rng.uniform(0.05, 0.95, (2, 30))
    F0, F1, F2 = np.moveaxis(mms.forcing_parts(x, y), -2, 0)
    for t in (0.0, 0.3, 2.0):
        a = 1 + t / 2
        assert np.array_equal(mms.forcing(x, y, t), F0 + a * (F1 + a * F2))
        assert np.array_equal(mms.velocity(x, y, t), a * mms.velocity(x, y, 0.0))
    with pytest.raises(ValueError, match="a\\(t\\) = 1 \\+ t/2 > 0"):
        mms.forcing(x, y, -2.0)


def test_one_step_factorization_held(mms, space8, monkeypatch):
    # from rest the closure shift starts at 0 and is raised after the first
    # step: the stale step LU and the projection's LU must not outlive their use
    made = []

    class Factor:
        def __init__(self, lu):
            self.solve = lu.solve

    real = fullspace.splu

    def splu(A, **kw):
        made.append(weakref.ref(f := Factor(real(A, **kw))))
        return f

    monkeypatch.setattr(fullspace, "splu", splu)
    fs = FullSpaceSystem(space8, ClosureParams(mms.nu, mms.nu_tur), source=mms)
    z, iterations = fs.integrate(np.zeros(space8.n_velocity), T=0.003, dt=1e-3)
    assert len(iterations) == 3 and len(made) == 3  # projection, shift 0, raised shift
    assert [ref() is not None for ref in made] == [False, False, True]


def _singular(A, **kw):
    raise RuntimeError("Factor is exactly singular")


def test_step_factor_failure_is_a_solver_error(mms, space8, monkeypatch):
    # `fullspace.splu` is the one call that factors the steps and the projection
    fs = FullSpaceSystem(space8, ClosureParams(mms.nu, mms.nu_tur), source=mms)
    z0 = fs.project_divfree(mms.initial_velocity(space8))
    monkeypatch.setattr(fullspace, "splu", _singular)
    with pytest.raises(SolverError, match="^time-step factorization failed: Factor is"):
        fs.step(z0, 1e-3, 1e-3, 0.0)


def test_projection_factor_failure_is_a_solver_error(mms, space8, monkeypatch):
    fs = FullSpaceSystem(space8, ClosureParams(mms.nu, mms.nu_tur), source=mms)
    monkeypatch.setattr(fullspace, "splu", _singular)
    with pytest.raises(SolverError, match="^projection factorization failed: Factor is"):
        fs.project_divfree(mms.initial_velocity(space8))


def test_step_error_names_time_iterations_and_increments(mms, space8):
    # tol = 0 cannot be met: the stalled step names its time, its iteration
    # budget and the increment of each iteration, the last as its residual
    fs = FullSpaceSystem(space8, ClosureParams(mms.nu, mms.nu_tur), source=mms)
    z0 = fs.project_divfree(mms.initial_velocity(space8))
    dt, shift = 1e-3, 1.5 * fs.closure_shift(fs.state_fields(z0))
    errs = []
    for max_iter in (1, 2):
        with pytest.raises(StepError, match="t=0.001 stalled") as err:
            fs.step(z0, dt, dt, shift, tol=0.0, max_iter=max_iter)
        errs.append(err.value)
    for max_iter, exc in enumerate(errs, start=1):
        assert exc.t == dt and exc.iterations == max_iter
        assert len(exc.history) == max_iter and exc.residual == exc.history[-1]
    assert errs[1].history[0] == errs[0].history[0] > errs[1].history[1] > 0.0
    # the first increment is the M-norm of the first iterate's update
    z1, it = fs.step(z0, dt, dt, shift, tol=errs[0].history[0], max_iter=1)
    assert it == 1 and np.sqrt((z1 - z0) @ (space8.M @ (z1 - z0))) == errs[0].history[0]


def test_residual_load_matches_reduced_rhs_structure(space8):
    # cross-check between the two independent nonlinear assemblies
    from recirc.eigenbasis import solve_stokes_eigen
    from recirc.galerkin import ReducedSystem
    from recirc.lifting import build_lifting
    from recirc.pumps import PumpSet

    params = ClosureParams(0.03, 0.08)
    basis = solve_stokes_eigen(space8, 8)
    lifting = build_lifting(space8, PumpSet([]), params.nu)
    sys_ = ReducedSystem(space8, basis, lifting, PumpSet([]), params)
    fs = FullSpaceSystem(space8, params)
    rng = np.random.default_rng(9)
    for _ in range(5):
        z = 0.4 * rng.standard_normal(8)
        modal = sys_.rhs(z, 0.2)
        oracle = basis.fields.T @ fs.residual_load(basis.expand(z), 0.2)
        assert np.abs(modal - oracle).max() <= 1e-11 * max(1.0, np.abs(oracle).max())


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("nu_tur", [0.0, 0.3])
def test_fused_nonlinear_load_matches_oracle(n, nu_tur):
    # the one-pass load against the old composition (block-product gradient,
    # convection tables, closure stress, a body-force and a stress load) minus
    # shift K_eps z, on random fields that are neither divergence free nor
    # zero on the wall, on the unit square and on a 1.3 x 0.7 tank of
    # non-square cells ((n + 3) x (n + 1) of them)
    params = ClosureParams(0.05, nu_tur)
    rng = np.random.default_rng(n + 97)
    for mesh in (build_rect_mesh(1, 1, n, n), build_rect_mesh(1.3, 0.7, n + 3, n + 1)):
        space = MixedSpace(mesh)
        fs = FullSpaceSystem(space, params)
        for scale in (1.0, 1e-4, 30.0):
            z = scale * rng.standard_normal(space.n_velocity)
            oracle = nonlinear_load_oracle(space, z, params)
            for shift in (0.0, 0.7, 25.0):
                ref = oracle - shift * (space.K_eps @ z)
                got = fs.nonlinear_load(fs.state_fields(z), shift)
                assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("n", [4, 8, 16])
def test_scalar_gradient_operator_is_the_doubled_one(n):
    # the bundle and the load through the scalar map, one velocity component
    # at a time, bit for bit the compositions through the doubled operator
    # (both components' rows) and its transpose, with and without the
    # closure, with and without a shift
    space = MixedSpace(build_rect_mesh(1, 1, n, n))
    D = doubled_grad_operator(space)
    rng = np.random.default_rng(n + 37)
    for nu_tur in (0.0, 0.3):
        fs = FullSpaceSystem(space, ClosureParams(0.05, nu_tur))
        for scale in (1e-3, 1.0, 30.0):
            z = scale * rng.standard_normal(space.n_velocity)
            for shift in (0.0, 0.7):
                got, ref = fs.state_fields(z), doubled_state_fields(fs, z, D)
                for name in ("grads", "values", "half", "force"):
                    assert np.array_equal(getattr(got, name), getattr(ref, name)), name
                assert (got.mag is None and ref.mag is None) or np.array_equal(got.mag, ref.mag)
                assert np.array_equal(fs.nonlinear_load(got, shift),
                                      doubled_nonlinear_load(fs, ref, shift, D))


@pytest.mark.parametrize("n", [4, 8, 16])
def test_closure_shift_is_the_old_expression(n):
    # 2 nu_tur max|e| off the bundle's |e| alone, bit for bit twice the
    # largest closure-tangent weight nu_tur |e|; that |e| against the
    # quadrature path's strain norm to 1e-13 of its largest value
    space = MixedSpace(build_rect_mesh(1, 1, n, n))
    rng = np.random.default_rng(n)
    for nu_tur in (0.02, 0.37, 3.0):
        params = ClosureParams(0.05, nu_tur)
        fs = FullSpaceSystem(space, params)
        for scale in (1e-3, 1.0, 40.0):
            z = scale * rng.standard_normal(space.n_velocity)
            fields = fs.state_fields(z)
            w, _ = closure_tangent(fields.mag, params)
            assert fs.closure_shift(fields) == 2.0 * float(w.max())
            ref = strain_norm(space.strain_samples(z))
            assert np.abs(fields.mag - ref).max() <= 1e-13 * ref.max()


def test_fused_load_keeps_picard_counts(mms, space8):
    # 50 manufactured steps on the fused load and on the old composition, the
    # step's shift applied as the matrix product shift K_eps z: the same Picard
    # count at every step and the same states to roundoff
    params = ClosureParams(mms.nu, mms.nu_tur)
    # made: id of a bundle -> (the bundle, its state); holding the bundle
    # keeps its id from being reused
    shifts, made = [], {}

    def fields_of(z):
        fields = FullSpaceSystem.state_fields(fs, z)
        made[id(fields)] = (fields, z)
        return fields

    def composed(fields, shift=0.0):
        shifts.append(shift)
        z = made[id(fields)][1]
        return nonlinear_load_oracle(space8, z, params) - shift * (space8.K_eps @ z)

    runs = []
    for oracle in (False, True):
        fs = FullSpaceSystem(space8, params, source=mms)
        if oracle:
            fs.state_fields, fs.nonlinear_load = fields_of, composed
        states = []
        _, iterations = fs.integrate(mms.initial_velocity(space8), T=0.05, dt=1e-3,
                                     observer=lambda t, z: states.append(z))
        runs.append((iterations, np.array(states)))
    (it_fused, fused), (it_oracle, oracle) = runs
    # the composition ran every iterate of the second run, with the step's shift
    assert len(shifts) == sum(it_oracle) and min(shifts) > 0.0
    assert len(it_fused) == 50 and it_fused == it_oracle
    assert np.abs(fused - oracle).max() <= 1e-12 * np.abs(oracle).max()


def test_full_space_iterate_cost(mms, monkeypatch):
    # one nonlinear load and one saddle solve per Picard iterate; the load
    # reads the gradient operator, so no quadrature-point table of the space,
    # no body-force or stress load and no product with K_eps (the shift is in
    # the load, and the step factor is formed before the counted step)
    space = MixedSpace(build_rect_mesh(1, 1, 8, 8))
    fs = FullSpaceSystem(space, ClosureParams(mms.nu, mms.nu_tur), source=mms)
    z0 = fs.project_divfree(mms.initial_velocity(space))
    dt, shift = 1e-3, 1.5 * fs.closure_shift(fs.state_fields(z0))
    z1, _ = fs.step(z0, dt, dt, shift)

    names = ("load", "solve", "eval_values", "eval_grads", "load_vector",
             "stress_load_vector", "K_eps")
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kw):
            calls[name] += 1
            return fn(*args, **kw)
        return wrapper

    class CountedProducts:
        """K_eps with every product counted: with a vector or a scalar."""

        def __init__(self, K):
            self.K = K

        def __matmul__(self, x):
            calls["K_eps"] += 1
            return self.K @ x

        def __mul__(self, c):
            calls["K_eps"] += 1
            return self.K * c

        __rmul__ = __mul__

    monkeypatch.setattr(FullSpaceSystem, "nonlinear_load",
                        counted("load", FullSpaceSystem.nonlinear_load))
    monkeypatch.setattr(MixedSpace, "saddle_solve", counted("solve", MixedSpace.saddle_solve))
    for name in names[2:6]:
        monkeypatch.setattr(MixedSpace, name, counted(name, getattr(MixedSpace, name)))
    monkeypatch.setattr(space, "K_eps", CountedProducts(space.K_eps))
    _, it = fs.step(z1, 2 * dt, dt, shift)
    assert it >= 2
    assert calls == {"load": it, "solve": it, "eval_values": 0, "eval_grads": 0,
                     "load_vector": 0, "stress_load_vector": 0, "K_eps": 0}


@pytest.mark.parametrize("nu_tur", [0.02, 0.0])
def test_integrate_shares_each_accepted_states_fields(mms, space8, monkeypatch, nu_tur):
    # one bundle per Picard iterate plus the initial state's: each accepted
    # state's bundle decides the shift check and serves the next step's first
    # load, and no strain sample of the quadrature path is formed; a step
    # handed the bundle of z is the bare step from z, and without the closure
    # the shift stays 0
    calls = dict.fromkeys(("fields", "load", "strain_samples"), 0)
    steps = []

    def counted(name, fn):
        def wrapper(*args, **kw):
            calls[name] += 1
            return fn(*args, **kw)
        return wrapper

    step = FullSpaceSystem.step

    def recorded(self, z, t_new, dt, shift, **kw):
        out = step(self, z, t_new, dt, shift, **kw)
        steps.append((z, t_new, dt, shift, kw["fields"], out))
        return out

    monkeypatch.setattr(FullSpaceSystem, "state_fields",
                        counted("fields", FullSpaceSystem.state_fields))
    monkeypatch.setattr(FullSpaceSystem, "nonlinear_load",
                        counted("load", FullSpaceSystem.nonlinear_load))
    monkeypatch.setattr(MixedSpace, "strain_samples",
                        counted("strain_samples", MixedSpace.strain_samples))
    monkeypatch.setattr(FullSpaceSystem, "step", recorded)
    fs = FullSpaceSystem(space8, ClosureParams(mms.nu, nu_tur), source=mms)
    _, iterations = fs.integrate(mms.initial_velocity(space8), T=0.005, dt=1e-3)
    assert len(iterations) == 5 and sum(iterations) > 5
    assert calls == {"fields": sum(iterations) + 1, "load": sum(iterations),
                     "strain_samples": 0}
    shifts = [shift for _, _, _, shift, _, _ in steps]
    assert (min(shifts) > 0.0) if nu_tur else (shifts == [0.0] * 5)
    for z, t_new, dt, shift, fields, (z_new, it) in steps:
        # the handed bundle is z's: the load wrote its stress into the
        # gradient planes only, so its values, body force and |e| are z's
        ref = fs.state_fields(z)
        for name in ("values", "half", "force", "mag"):
            assert np.array_equal(getattr(fields, name), getattr(ref, name)), name
        assert (fields.mag is None) == (nu_tur == 0)
        for handed in (None, ref):
            z_ref, it_ref = step(fs, z, t_new, dt, shift, fields=handed)
            assert np.array_equal(z_ref, z_new) and it_ref == it
