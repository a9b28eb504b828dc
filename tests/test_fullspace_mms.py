import weakref

import numpy as np
import pytest

from recirc import fullspace
from recirc.errors import SolverError, StepError
from recirc.fullspace import FullSpaceSystem
from recirc.mesh import build_rect_mesh
from recirc.mms import ManufacturedSolution
from recirc.space import MixedSpace
from recirc.turbulence import ClosureParams


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
    dt, shift = 1e-3, 1.5 * fs.closure_shift(z0)
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
