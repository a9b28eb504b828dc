import numpy as np
import pytest

from conftest import PartsSource, boundary_traces, divfree_samples, duffy_rule, ramp_source
from recirc import lifting
from recirc.eigenbasis import solve_stokes_eigen
from recirc.errors import CompatibilityError, SolverError
from recirc.galerkin import ReducedSystem
from recirc.lifting import build_lifting, compute_Hg_load, solve_stokes_lift, stokes_operator
from recirc.mesh import build_rect_mesh, tag_boundary
from recirc.pumps import Pump, PumpSet, Schedule, build_profile, build_psi
from recirc.space import MixedSpace, _p2_values, _p2_grads
from recirc.turbulence import ClosureParams


def pumped_space(n):
    m = build_rect_mesh(1, 1, n, n)
    tag_boundary(m, [("bottom", 0.25, 0.5, "T1"), ("top", 0.25, 0.5, "C1")])
    return MixedSpace(m)


def one_pump(space, schedule=((0, 0), (0.5, 1), (1, 1))):
    inj = build_profile(space, "T1", "mollified", 0.0625)
    col = build_profile(space, "C1", "mollified", 0.0625)
    psi = build_psi(inj, col, space)
    return PumpSet([Pump(inj, col, psi, Schedule(list(schedule)))])


def test_zero_trace_gives_zero_solution():
    space = pumped_space(8)
    zeta, p, res = solve_stokes_lift(space, np.zeros(space.n_velocity),
                                     stokes_operator(space, 0.01))
    assert np.abs(zeta).max() <= 1e-12
    assert np.abs(p).max() <= 1e-12


def test_linearity_in_the_trace():
    space = pumped_space(8)
    pumps = one_pump(space)
    psi = pumps.pumps[0].psi
    operator = stokes_operator(space, 0.01)
    z1, _, _ = solve_stokes_lift(space, psi, operator)
    z2, _, _ = solve_stokes_lift(space, 2.0 * psi, operator)
    assert np.abs(z2 - 2.0 * z1).max() <= 1e-12 * max(1.0, np.abs(z1).max())


def test_incompatible_trace_rejected():
    space = pumped_space(8)
    bad = np.zeros(space.n_velocity)
    ns = space.n_scalar
    dofs = space.tagged_scalar_dofs("T1")
    bad[ns + dofs] = -1.0  # inflow with no matching outflow
    with pytest.raises(CompatibilityError):
        solve_stokes_lift(space, bad, stokes_operator(space, 0.01))


def test_lifts_share_one_operator(preset16, monkeypatch):
    # build_lifting forms nu K_eps, its boundary columns and their factor
    # once for all four pumps; each lift is the standalone solve's bit for bit
    space, pumps, nu = preset16.space, preset16.pumps, preset16.params.nu
    operator, calls = lifting.stokes_operator, []
    monkeypatch.setattr(lifting, "stokes_operator", lambda *a: calls.append(1) or operator(*a))
    lb = build_lifting(space, pumps, nu)
    assert len(pumps) == 4 and len(calls) == 1
    for k, pump in enumerate(pumps.pumps):
        zeta, p, res = solve_stokes_lift(space, pump.psi, lifting.stokes_operator(space, nu))
        assert np.array_equal(zeta, lb.zetas[k]) and np.array_equal(p, lb.pressures[k])
        assert res == lb.residuals[k]
    assert len(calls) == 5


def test_divergence_and_trace_invariants():
    space = pumped_space(16)
    pumps = one_pump(space)
    lb = build_lifting(space, pumps, nu=0.01)
    zeta = lb.zetas[0]
    assert np.linalg.norm(space.B @ zeta) <= 1e-8
    psi = pumps.pumps[0].psi
    assert np.array_equal(zeta[space.boundary_vdofs], psi[space.boundary_vdofs])
    # zero-mean pressure gauge
    assert abs(space.pressure_integral @ lb.pressures[0]) <= 1e-12


def test_orthogonality_against_divfree_fields():
    space = pumped_space(16)
    pumps = one_pump(space)
    nu = 0.01
    lb = build_lifting(space, pumps, nu=nu)
    for eta in divfree_samples(space, 50, seed=4):
        h1 = np.sqrt(space.norm(eta, "L2") ** 2 + space.norm(eta, "H1semi") ** 2)
        val = nu * (lb.zetas[0] @ (space.K_eps @ eta))
        assert abs(val) <= 1e-8 * h1


def _trace_mismatch(space, zeta, profiles):
    """Boundary L2 distance between the lifted trace and the exact closures."""
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(12)
    s = 0.5 * (x + 1.0)
    mesh = space.mesh
    exact_n = np.zeros((len(mesh.bnd_edge), len(s)))
    for prof, sign in profiles:
        on = mesh.bnd_tag == prof.tag
        axis = 0 if prof.side in ("bottom", "top") else 1
        # the edge's lower end and the segment start from the DOF coordinates
        lo = space.dof_coords[space.bnd_edge_dofs[on, :2], axis].min(axis=1)
        seg_start = space.dof_coords[prof.sdofs, axis].min()
        arc = (lo - seg_start)[:, None] + s * mesh.bnd_length[on, None]
        exact_n[on] += sign * prof.eval(arc) / prof.mu
    disc_n = np.einsum("ecq,ec->eq", boundary_traces(space, zeta, s), mesh.bnd_normal)
    return np.sqrt(mesh.bnd_length @ ((disc_n - exact_n) ** 2 @ (0.5 * w)))


def test_trace_interpolation_error_decreases_under_refinement():
    errs = []
    for n in (8, 16, 32):
        space = pumped_space(n)
        pumps = one_pump(space)
        lb = build_lifting(space, pumps, nu=0.01)
        pump = pumps.pumps[0]
        errs.append(
            _trace_mismatch(space, lb.zetas[0],
                            [(pump.injector, 1.0), (pump.collector, -1.0)])
        )
    assert errs[0] > errs[1] > errs[2]


def test_pressure_bounded_under_refinement():
    # indirect inf-sup check: the Stokes pressure stays bounded as the mesh
    # refines (an unstable pair would blow it up)
    norms = []
    for n in (8, 16, 32):
        space = pumped_space(n)
        pumps = one_pump(space)
        lb = build_lifting(space, pumps, nu=0.01)
        p_q = lb.pressures[0][space.mesh.cells] @ space.P1.T  # P1 pressure at (nt, nq)
        norms.append(np.sqrt(space.integrate(p_q**2)))
    assert max(norms) <= 2.0 * min(norms)


def test_stability_ratio_bounded_under_refinement():
    ratios = []
    for n in (8, 16, 32):
        space = pumped_space(n)
        pumps = one_pump(space)
        lb = build_lifting(space, pumps, nu=0.01)
        zeta = lb.zetas[0]
        h1 = np.sqrt(space.norm(zeta, "L2") ** 2 + space.norm(zeta, "H1semi") ** 2)
        ratios.append(h1 / space.norm(pumps.pumps[0].psi, "L2boundary"))
    assert max(ratios) <= 2.0 * min(ratios)


def lift_at(space, lb, pumps, t):
    """ReducedSystem.lift_fields at t; the one-mode basis plays no part in it."""
    system = ReducedSystem(space, solve_stokes_eigen(space, 1), lb, pumps,
                           ClosureParams(0.01, 0.0))
    return system.lift_fields(t)


def test_lift_at_zero_schedule():
    space = pumped_space(8)
    pumps = one_pump(space)
    lb = build_lifting(space, pumps, nu=0.01)
    zg, dzg = lift_at(space, lb, pumps, 0.0)
    assert np.abs(zg).max() == 0.0
    assert np.abs(dzg - 2.0 * lb.zetas[0]).max() <= 1e-14  # slope 2 ramp


def test_lift_at_linear_ramp_derivative():
    space = pumped_space(8)
    pumps = one_pump(space, schedule=((0, 0), (1, 2)))
    lb = build_lifting(space, pumps, nu=0.01)
    for t in (0.3, 0.8):
        zg, dzg = lift_at(space, lb, pumps, t)
        assert np.abs(dzg - 2.0 * lb.zetas[0]).max() <= 1e-14
        assert np.abs(zg - 2.0 * t * lb.zetas[0]).max() <= 1e-14


def test_lift_at_two_pump_combination():
    m = build_rect_mesh(1, 1, 8, 8)
    tag_boundary(m, [
        ("bottom", 0.25, 0.5, "T1"), ("top", 0.25, 0.5, "C1"),
        ("bottom", 0.625, 0.875, "T2"), ("top", 0.625, 0.875, "C2"),
    ])
    space = MixedSpace(m)
    pumps = []
    for k, sched in ((1, [(0, 0), (1, 1)]), (2, [(0, 0), (1, 3)])):
        inj = build_profile(space, f"T{k}", "mollified", 0.0625)
        col = build_profile(space, f"C{k}", "mollified", 0.0625)
        pumps.append(Pump(inj, col, build_psi(inj, col, space), Schedule(sched)))
    ps = PumpSet(pumps)
    lb = build_lifting(space, ps, nu=0.01)
    zg, _ = lift_at(space, lb, ps, 0.5)
    expect = 0.5 * lb.zetas[0] + 1.5 * lb.zetas[1]
    assert np.abs(zg - expect).max() <= 1e-14


def test_hg_equals_source_without_pumps():
    m = build_rect_mesh(1, 1, 8, 8)
    space = MixedSpace(m)
    lb = build_lifting(space, PumpSet([]), nu=0.01)
    # a time-independent F, in the P2 space exactly
    F = PartsSource(lambda x, y: (np.column_stack([x * y, x - y]),
                                  np.zeros((len(x), 2)), np.zeros((len(x), 2))))

    load = space.load_vector(compute_Hg_load(lb, PumpSet([]), F, 0.3).h)
    expect = space.M @ space.interpolate(lambda x, y: F.forcing(x, y, 0.3))
    assert np.abs(load - expect).max() <= 1e-10 * np.abs(expect).max()


def test_hg_pure_convection_after_ramp():
    space = pumped_space(8)
    pumps = one_pump(space)  # flat schedule after t = 0.5
    lb = build_lifting(space, pumps, nu=0.01)
    t = 0.75
    load = space.load_vector(compute_Hg_load(lb, pumps, None, t).h)
    g, gdot = pumps.rates(t)
    assert gdot[0] == 0.0
    from recirc.lifting import convective_qpt

    zg = lb.combine(g)
    expect = -space.load_vector(convective_qpt(space.eval_values(zg), space.eval_grads(zg)))
    assert np.abs(load - expect).max() <= 1e-14


def test_hg_load_matches_three_term_formula_during_ramp():
    """One quadrature of H_g against (F, phi) - M d zeta_g/dt - ((grad zeta_g) zeta_g, phi)
    while the schedule ramps, so that d zeta_g/dt does not vanish."""
    space = pumped_space(8)
    pumps = one_pump(space)
    lb = build_lifting(space, pumps, nu=0.01)
    t = 0.3

    load = space.load_vector(compute_Hg_load(lb, pumps, ramp_source(), t).h)
    g, gdot = pumps.rates(t)
    assert gdot[0] != 0.0
    from recirc.lifting import convective_qpt

    x, y = space.qpoints[..., 0].ravel(), space.qpoints[..., 1].ravel()
    Fq = np.column_stack([np.sin(3 * x) * y, x - t * y**2]).reshape(space.qpoints.shape)
    zg = lb.combine(g)
    expect = (
        space.load_vector(Fq)
        - space.M @ lb.combine(gdot)
        - space.load_vector(convective_qpt(space.eval_values(zg), space.eval_grads(zg)))
    )
    assert np.abs(load - expect).max() <= 1e-13 * np.abs(expect).max()


def test_hg_pairing_matches_refined_quadrature():
    space = pumped_space(8)
    pumps = one_pump(space)
    lb = build_lifting(space, pumps, nu=0.01)
    t = 0.75
    load = space.load_vector(compute_Hg_load(lb, pumps, None, t).h)

    # independent oracle: assemble (H_g, xi) with a degree-10 collapsed rule
    rule = duffy_rule(6)
    N = _p2_values(rule.points)
    Ghat = _p2_grads(rule.points)
    mesh = space.mesh
    p = mesh.vertices[mesh.cells]
    J = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=-1)
    invJT = np.linalg.inv(J).transpose(0, 2, 1)
    grads = np.einsum("cab,qlb->cqla", invJT, Ghat)
    ns = space.n_scalar
    g, gdot = pumps.rates(t)
    zg = lb.combine(g)
    dzg = lb.combine(gdot)

    def vals_of(u):
        return np.stack([u[c * ns + space.cell_dofs] @ N.T for c in range(2)], axis=-1)

    def grads_of(u):
        return np.stack(
            [np.einsum("cl,cqlb->cqb", u[c * ns + space.cell_dofs], grads) for c in range(2)],
            axis=-2,
        )

    hvals = -vals_of(dzg) - np.einsum("cqab,cqb->cqa", grads_of(zg), vals_of(zg))
    w = space.areas[:, None] * rule.weights[None, :]
    rng = np.random.default_rng(2)
    for _ in range(5):
        xi = np.zeros(space.n_velocity)
        xi[space.interior_vdofs] = rng.standard_normal(len(space.interior_vdofs))
        pairing = xi @ load
        xivals = vals_of(xi)
        oracle = float(np.einsum("cq,cqa,cqa->", w, hvals, xivals))
        assert abs(pairing - oracle) <= 1e-9 * max(1.0, abs(oracle))


def test_lift_factor_failure_is_a_solver_error(monkeypatch):
    # `lifting.splu` is the one call that factors the lifts
    def singular(A, **kw):
        raise RuntimeError("Factor is exactly singular")

    space = pumped_space(4)
    pumps = one_pump(space)
    monkeypatch.setattr(lifting, "splu", singular)
    with pytest.raises(SolverError, match="^Stokes saddle factorization failed: Factor is"):
        build_lifting(space, pumps, 0.01)
