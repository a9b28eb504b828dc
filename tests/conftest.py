import json
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.polynomial.legendre import leggauss

from recirc.config import build_scenario, preset_path, validate
from recirc.mesh import build_rect_mesh
from recirc.mms import ManufacturedSolution
from recirc.space import TRI_POINTS, TRI_WEIGHTS, MixedSpace
from recirc.turbulence import convection_load, strain_norm, sym_grad, sym_norm


@pytest.fixture(scope="session")
def space8():
    return MixedSpace(build_rect_mesh(1.0, 1.0, 8, 8))


@pytest.fixture(scope="session")
def preset16():
    """The shipped 4-pump scenario: 16^2 mesh, 20 modes, mollified profiles;
    every stage built here, so no test that patches a kernel builds one."""
    return build_scenario(validate(preset_path("four_pumps"))).built()


class PartsSource(ManufacturedSolution):
    """A source with its own parts: F = F0 + a F1 + a^2 F2, a = 1 + t/2, from
    parts(x, y) -> (F0, F1, F2), each (n, 2); the tables, loads and time
    polynomial are ManufacturedSolution's."""

    def __init__(self, parts):
        super().__init__(nu=0.0, nu_tur=0.0)
        self.parts = parts

    def forcing_parts(self, x, y):
        return np.stack(self.parts(x, y), axis=-2)


def rescale_case(name):
    """The configs the rescaled tangent and the chosen start were measured
    on: four_pumps at 16^2 (T = 1), the pumps32 benchmark's config (32^2,
    40 modes, T = 0.3), vortices of amplitude 30 and 100 without pumps,
    four_pumps with four distinct schedules and a vortex of amplitude 5, and
    four_pumps ramping to 0.3 and back in 0.05 over a vortex of amplitude
    10 (all but pumps32 16^2, T = 1)."""
    cfg = json.loads(preset_path("four_pumps").read_text())
    if name == "pumps32":
        cfg.update(mesh={"nx": 32, "ny": 32}, galerkin={"modes": 40})
        cfg["time"]["T"] = 0.3
    elif name == "vortex30":
        cfg.update(pumps=[], initial={"preset": "vortex", "amplitude": 30.0})
    elif name == "vortex100":
        cfg.update(pumps=[], initial={"preset": "vortex", "amplitude": 100.0})
    elif name == "spikes":
        for pump in cfg["pumps"]:
            pump["schedule"] = [[0.0, 0.0], [0.05, 0.3], [0.5, 0.3], [0.55, 0.0], [1.0, 0.0]]
        cfg["initial"] = {"preset": "vortex", "amplitude": 10.0}
    elif name == "distinct":
        schedules = ([[0.0, 0.0], [0.2, 0.05], [1.0, 0.05]],
                     [[0.0, 0.0], [0.4, 0.08], [1.0, 0.08]],
                     [[0.0, 0.0], [0.1, 0.03], [0.6, 0.03], [1.0, 0.0]],
                     [[0.0, 0.0], [0.3, 0.06], [0.7, 0.02], [1.0, 0.02]])
        for pump, schedule in zip(cfg["pumps"], schedules):
            pump["schedule"] = schedule
        cfg["initial"] = {"preset": "vortex", "amplitude": 5.0}
    return build_scenario(validate(cfg)).built()


def ramp_source():
    """F = (sin(3x) y, x - t y^2), as parts in a = 1 + t/2 (t = 2a - 2)."""
    def parts(x, y):
        zero = np.zeros_like(x)
        return (np.column_stack([np.sin(3 * x) * y, x + 2 * y**2]),
                np.column_stack([zero, -2 * y**2]), np.column_stack([zero, zero]))

    return PartsSource(parts)


def divfree_samples(space, count, seed=0):
    """Random discretely divergence-free boundary-zero fields (Leray projections)."""
    from recirc.fullspace import FullSpaceSystem
    from recirc.turbulence import ClosureParams

    fs = FullSpaceSystem(space, ClosureParams(1.0, 0.0))
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        w = rng.standard_normal(space.n_velocity)
        out.append(fs.project_divfree(w))
    return out


def potential_D(eps, params):
    """Dissipation potential D(eps) = nu [e:e] + (2/3) nu_tur [e:e]^(3/2), the
    oracle whose strain derivative the stress must be; vectorized."""
    ee = np.einsum("...ab,...ab->...", eps, eps)
    return params.nu * ee + (2.0 / 3.0) * params.nu_tur * ee**1.5


def closure_stress(eps, mag, params):
    """Smagorinsky stress 2 nu_tur |e| e of strain tables eps (..., 2, 2),
    with mag their norms."""
    return 2.0 * params.nu_tur * mag[..., None, None] * eps


def lift_data(system, t):
    """LiftData of a ReducedSystem at t, through the name the galerkin module
    holds, so that a patch of `galerkin.compute_Hg_load` sees it: the
    quadrature-point tables of zeta_g and H_g, the quadrature form of the
    modal H_g and of the ledger's Gram forms."""
    from recirc import galerkin

    return galerkin.compute_Hg_load(system.lifting, system.pumps, system.source, t)


def dissipation_rates(system, z, t):
    """(2 nu ||eps(z)||^2, 2 nu_tur ||eps(zg+z)||^3_L3) of a ReducedSystem at
    (z, t), by quadrature of its strain table's planes."""
    space = system.space
    f = system.state_fields(z, system.pumps.rates(t)[0])
    eps_z = sym_norm(*space.strain_planes(system.strain_coef[:, len(system.lifting):] @ z))
    visc = 2 * system.params.nu * space.integrate(eps_z * eps_z)
    smag = 2 * system.params.nu_tur * space.integrate(f.w_eps_mag**3)
    return visc, smag


def full_stress(eps, params):
    """The stress 2 nu e + closure_stress(e) of strain tables (..., 2, 2)."""
    return 2 * params.nu * eps + closure_stress(eps, strain_norm(eps), params)


def apply_A(space, z, zeta_g, params, test):
    """<A(z), xi> = int full_stress(e) : eps(xi), e = eps(zeta_g + z), for every
    test column xi: quadrature of the nonlinear form."""
    return space.stress_load_vector(full_stress(space.strain_samples(z + zeta_g), params)) @ test


def convect(space, w, u, test):
    """Skew convection pairings c(w; u, xi) for every test column xi."""
    w_vals = space.eval_values(w)
    u_vals = space.eval_values(u)
    u_grads = space.eval_grads(u)
    return convection_load(space, w_vals, u_vals, u_grads) @ test


def assembly_oracle(space):
    """The space's geometry tables and operators by the einsum formulas they
    were first assembled with: `grad` [c, q, b, l] and `qpoints` from
    two-operand einsums over the Jacobians, M and K_grad from the scalar
    mass and gradient einsums, K_eps from the block formula of its cell
    matrices on that `grad`, and B from one four-operand einsum per
    component. The space must reproduce them bit for bit."""
    J, invJT = space._jacobians()
    w, a, N, P1 = TRI_WEIGHTS, space.areas, space.N, space.P1
    G = np.einsum("cab,qlb->cqla", invJT, space.Nhat_grad)  # [c, q, l, b]
    grad = np.ascontiguousarray(G.transpose(0, 1, 3, 2))
    p = space.mesh.vertices[space.mesh.cells]
    qpoints = p[:, None, 0, :] + np.einsum("cab,qb->cqa", J, TRI_POINTS)

    def csr(rows, cols, data, shape):
        return sp.coo_matrix((data.ravel(), (rows.ravel(), cols.ravel())), shape=shape).tocsr()

    dofs, vdofs = space.cell_dofs, space.cell_vdofs
    ns, nu, npr = space.n_scalar, space.n_velocity, space.n_pressure
    rows, cols = np.repeat(dofs, 6, axis=1), np.tile(dofs, (1, 6))
    Ms = csr(rows, cols, a[:, None, None] * np.einsum("q,ql,qm->lm", w, N, N)[None], (ns, ns))
    Ks = csr(rows, cols, np.einsum("q,c,cqlb,cqmb->clm", w, a, G, G), (ns, ns))
    wq = space.qweights[:, :, None]
    gx, gy = grad[:, :, 0], grad[:, :, 1]
    xx = (wq * gx).transpose(0, 2, 1) @ gx
    yy = (wq * gy).transpose(0, 2, 1) @ gy
    xy = (wq * gy).transpose(0, 2, 1) @ gx
    cells = np.block([[2 * xx + yy, xy], [xy.transpose(0, 2, 1), 2 * yy + xx]])
    prow, vcol = np.repeat(space.mesh.cells, 6, axis=1), np.tile(dofs, (1, 3))
    Bx = np.einsum("q,c,qi,cqj->cij", w, a, P1, G[..., 0])
    By = np.einsum("q,c,qi,cqj->cij", w, a, P1, G[..., 1])
    return {
        "grad": grad,
        "qpoints": qpoints,
        "M": sp.block_diag([Ms, Ms]).tocsr(),
        "K_grad": sp.block_diag([Ks, Ks]).tocsr(),
        "K_eps": csr(np.repeat(vdofs, 12, axis=1), np.tile(vdofs, (1, 12)), cells, (nu, nu)),
        "B": (csr(prow, vcol, Bx, (npr, nu)) + csr(prow, vcol + ns, By, (npr, nu))).tocsr(),
    }


# rectangles (Lx, Ly, nx, ny) on which mesh and space set-up are checked
# against their oracles: square, coarse to fine, and two non-square boxes
SETUP_MESHES = [(1.0, 1.0, 1, 1), (1.0, 1.0, 4, 4), (1.0, 1.0, 16, 16), (1.0, 1.0, 32, 32),
                (2.0, 1.0, 8, 3), (1.3, 0.7, 11, 7)]


def edges_oracle(mesh):
    """`edges` and `cell_edges` by the formula they were first built with:
    np.unique over the rows of the sorted vertex pairs, local edge j of a cell
    opposite its vertex j."""
    c = mesh.cells
    pairs = np.sort(np.vstack([c[:, [1, 2]], c[:, [2, 0]], c[:, [0, 1]]]), axis=1)
    edges, inverse = np.unique(pairs, axis=0, return_inverse=True)
    return edges, inverse.reshape(3, -1).T


def pressure_integral_oracle(space):
    """The zero-mean gauge vector by np.add.at: a third of each cell's area
    added to its vertices, cell by cell."""
    m = np.zeros(space.n_pressure)
    np.add.at(m, space.mesh.cells.ravel(), np.repeat(space.areas / 3.0, 3))
    return m


def grads_oracle(space, u):
    """Velocity gradients [c, q, a, b] = d u_a/d x_b by a product of `grad`'s
    rows [c, q, (b, l)] with the zero-padded block factor [c, (b', l), (a, b)]
    = u_(a,l) delta_(b b'), the form eval_grads took before it became a view
    of the strain product."""
    nt, nq = space.qweights.shape
    UT = u[space.cell_vdofs].reshape(nt, 2, 6).transpose(0, 2, 1)  # [c, l, a]
    B = np.zeros((nt, 2, 6, 2, 2))
    B[:, 0, :, :, 0] = UT
    B[:, 1, :, :, 1] = UT
    return (space.grad.reshape(nt, nq, 12) @ B.reshape(nt, 12, 4)).reshape(nt, nq, 2, 2)


def n_vec_values(space, u):
    """Velocity values (nt, nq, 2) as `eval_values` formed them before the
    value planes: the cell coefficients u[cell_vdofs] times the zero-padded
    vector shape functions N_vec [6 a + l, 2 q + b] = delta_ab N_l(q)."""
    N_vec = np.einsum("ab,ql->alqb", np.eye(2), space.N).reshape(12, -1)
    return (u[space.cell_vdofs] @ N_vec).reshape(-1, len(TRI_WEIGHTS), 2)


def batched_body_load(space, fvals):
    """`load_vector` of values fvals (nt, nq, 2) as it was before the value
    planes: the weighted values, read as (nt, 2, nq), times `N` in one
    batched product, scattered over `cell_vdofs` in one bincount."""
    wf = space.qweights[:, :, None] * fvals
    return np.bincount(space.cell_vdofs.ravel(), weights=(wf.transpose(0, 2, 1) @ space.N).ravel(),
                       minlength=space.n_velocity)


def convection_tables_oracle(w_vals, u_vals, u_grads):
    """(f, S) = (1/2 (grad u) w, -1/2 w (x) u), S in the [b, a] layout, by
    broadcast products."""
    f = 0.5 * np.einsum("...ab,...b->...a", u_grads, w_vals)
    return f, -0.5 * w_vals[..., :, None] * u_vals[..., None, :]


def closure_stress_oracle(eps, params):
    """2 nu_tur |e| e by a broadcast product, |e| from the 2x2 axis reduction."""
    mag = np.sqrt((eps * eps).sum(axis=(-2, -1)))
    return 2.0 * params.nu_tur * mag[..., None, None] * eps


def stress_load_oracle(space, S):
    """int S^T : grad phi_i of S in the [c, q, b, a] layout: the quadrature
    weight multiplies the table, then an einsum over `grad`, scattered with
    np.add.at over `cell_vdofs`."""
    cells = np.einsum("cq,cqbl,cqba->cal", space.qweights, space.grad, S)
    out = np.zeros(space.n_velocity)
    np.add.at(out, space.cell_vdofs, cells.reshape(len(cells), 12))
    return out


def nonlinear_load_oracle(space, z, params):
    """c(z; z, .) plus the closure load, composed as the full-space load was
    before its fused pass: values, the block-product gradient, the convection
    tables and the closure stress, then one body-force and one stress load."""
    vals, grads = space.eval_values(z), grads_oracle(space, z)
    f, S = convection_tables_oracle(vals, vals, grads)
    if params.nu_tur > 0:
        S = S + closure_stress_oracle(0.5 * (grads + grads.swapaxes(-1, -2)), params)
    return space.load_vector(f) + stress_load_oracle(space, S)


def closure_pairing_oracle(space, V, eps, params):
    """V^T of the closure load of strain tables eps, through the stress table
    and the weight multiplying it: V.T @ smagorinsky_load as it was."""
    return V.T @ stress_load_oracle(space, closure_stress_oracle(eps, params))


def vertex_gradients(space):
    """The P2 shape gradients at the cell vertices (nt, 3, 2, 6), [c, j, b, l]
    = d phi_l/d x_b at vertex j of cell c, all six stored, zeros included."""
    from recirc.space import _P1_NODES, _p2_grads

    return np.einsum("cbd,jld->cjbl", space._jacobians()[1], _p2_grads(_P1_NODES))


def plane_dofs(space):
    """`cell_vdofs` in [a, c, l] order (2, nt, 6): each velocity component's
    cell DOFs as one plane."""
    return space.cell_dofs + np.array([0, space.n_scalar])[:, None, None]


def doubled_grad_operator(space):
    """The gradient operator as it was before the scalar map: D (12 nt,
    n_velocity) from velocity coefficients to the planes d u_a/d x_b, row
    3 nt (2 a + b) + 3 c + j, 6 entries over the component's `cell_dofs`,
    both components' rows carrying the same data."""
    nt = space.mesh.num_cells
    G = vertex_gradients(space).transpose(2, 0, 1, 3)  # [b, c, j, l]
    data = np.broadcast_to(G, (2,) + G.shape)          # [a, b, c, j, l]
    cols = np.broadcast_to(plane_dofs(space)[:, None, :, None, :], data.shape)
    return sp.csr_matrix((data.ravel(), cols.ravel(), np.arange(0, data.size + 1, 6)),
                         shape=(12 * nt, space.n_velocity))


def doubled_state_fields(fs, z, D):
    """`FullSpaceSystem.state_fields` as it was on the doubled operator D
    (`doubled_grad_operator`): one product D z, the values gathered through
    the cell DOFs as one plane per component."""
    from recirc.fullspace import FullSpaceFields
    from recirc.turbulence import sym_norm

    space = fs.space
    nt, nq = space.qweights.shape
    G = ((D @ z).reshape(4 * nt, 3) @ space.P1.T).reshape(2, 2, nt, nq)
    u = (z[plane_dofs(space)].reshape(2 * nt, 6) @ space.N.T).reshape(2, nt, nq)
    h = u * fs.half_weights
    f = G[:, 0] * h[0]
    f += G[:, 1] * h[1]
    G[0, 1] += G[1, 0]
    G[0, 1] *= 0.5
    mag = sym_norm(G[0, 0], G[0, 1], G[1, 1]) if fs.params.nu_tur > 0 else None
    return FullSpaceFields(G, u, h, f, mag)


def doubled_nonlinear_load(fs, fields, shift, D):
    """`FullSpaceSystem.nonlinear_load` as it was on the doubled operator D:
    one product with D's CSR transpose and one bincount over both
    components' cell DOFs."""
    space = fs.space
    nt, nq = space.qweights.shape
    G, h, u = fields.grads, fields.half, fields.values
    scale = (-2.0 * shift) * space.qweights
    if fields.mag is not None:
        scale += fs.stress_weights * fields.mag
    for a, b in ((0, 0), (0, 1), (1, 1)):
        G[a, b] *= scale
        G[a, b] -= h[a] * u[b]
    G[1, 0] = G[0, 1]
    L = D.T.tocsr() @ (G.reshape(4 * nt, nq) @ space.P1).ravel()
    L += np.bincount(plane_dofs(space).ravel(),
                     weights=(fields.force.reshape(2 * nt, nq) @ space.N).ravel(),
                     minlength=space.n_velocity)
    return L


def twelve_entry_strain_table(space, W):
    """The strain table as it was formed before the scalar map: the sparse
    product of W with the operator E (9 nt, n_velocity) of 12 entries per
    row over `cell_vdofs`, half of them stored zeros, e01's row holding
    0.5 d phi/d x_1 on the x DOFs and 0.5 d phi/d x_0 on the y DOFs."""
    nt = space.mesh.num_cells
    G = vertex_gradients(space)
    rows = np.zeros((3, nt, 3, 12))  # [a, c, j, (x DOFs, y DOFs)]
    rows[0, ..., :6] = G[:, :, 0]
    rows[1, ..., :6] = 0.5 * G[:, :, 1]
    rows[1, ..., 6:] = 0.5 * G[:, :, 0]
    rows[2, ..., 6:] = G[:, :, 1]
    cols = np.broadcast_to(space.cell_vdofs[None, :, None, :], rows.shape)
    E = sp.csr_matrix((rows.ravel(), cols.ravel(), np.arange(0, rows.size + 1, 12)),
                      shape=(9 * nt, space.n_velocity))
    return E @ W


def cell_major_strain_table(space, W):
    """The strain table of the columns of W in the cell-major row order it
    had before the plane-major one: row 9 c + 3 a + j holds plane a of
    (e00, e01, e11) at vertex j of cell c, from its own 6-entry products of
    the vertex gradients with each component: e00 = g00, e11 = g11 and
    e01 = 0.5 (g01 + g10)."""
    nt, ns = space.mesh.num_cells, space.n_scalar
    rows = vertex_gradients(space).transpose(0, 2, 1, 3)  # [c, b, j, l]
    cols = np.broadcast_to(space.cell_dofs[:, None, None, :], rows.shape)
    D = sp.csr_matrix((rows.ravel(), cols.ravel(), np.arange(0, rows.size + 1, 6)),
                      shape=(6 * nt, ns))
    gx, gy = ((D @ Wa).reshape(nt, 2, 3, -1) for Wa in (W[:ns], W[ns:]))
    e = np.stack([gx[:, 0], 0.5 * (gx[:, 1] + gy[:, 0]), gy[:, 1]], axis=1)
    return e.reshape(9 * nt, -1)


def cell_major_closure(space, coef, K, y, params):
    """The closure pairings at y = [g; z] on a cell-major strain table coef,
    composed as the defect was before the plane-major table: the planes
    through a transposed copy of s = coef y, fresh |e|, scale and stress
    tables, and the pairings put back in cell-major order."""
    nt, nq = space.qweights.shape
    s = coef @ y
    e = (s.reshape(nt, 3, 3).transpose(1, 0, 2).reshape(-1, 3) @ space.P1.T).reshape(3, nt, nq)
    mag = np.sqrt(e[0] * e[0] + 2.0 * (e[1] * e[1]) + e[2] * e[2])
    S = 2.0 * params.nu_tur * space.qweights * mag * e
    L = (S.reshape(-1, nq) @ space.P1).reshape(3, -1, 3)
    L *= np.array([1.0, 2.0, 1.0])[:, None, None]
    return coef[:, K:].T @ L.transpose(1, 0, 2).ravel()


def cell_major_strain_stiffness(space, weight, coef, rank_one):
    """`MixedSpace.weighted_strain_stiffness` on a cell-major strain table
    coef (`cell_major_strain_table`), as it was before the plane-major one:
    the table read as (nt, 9, m) in place."""
    nt, nq = space.qweights.shape
    m = coef.shape[1]
    pairing = np.array([1.0, 2.0, 1.0])
    wq = 2.0 * space.qweights
    a, e = rank_one
    h = e * pairing[:, None, None]
    D = ((wq * a) * h)[:, None] * h
    ww = wq * weight
    for i in range(3):
        D[i, i] += pairing[i] * ww
    A = (D.reshape(-1, nq) @ space.P1_pairs).reshape(3, 3, nt, 3, 3)
    A = A.transpose(2, 0, 3, 1, 4).reshape(nt, 9, 9)
    return coef.T @ (A @ coef.reshape(nt, 9, m)).reshape(-1, m)


def phi_g(pumps, t, space):
    """Boundary velocity field sum_k g_k(t) psi_k (velocity coefficient vector)."""
    g, _ = pumps.rates(t)
    out = np.zeros(space.n_velocity)
    for gk, p in zip(g, pumps.pumps):
        if gk != 0.0:
            out += gk * p.psi
    return out


def boundary_traces(space, u, s):
    """Traces (nb, 2, len(s)) of a velocity field u at the fractions s of every
    boundary edge (rows of the mesh's boundary table), from the quadratic edge
    shape functions at its scalar DOFs (v0, v1, midpoint)."""
    from recirc.space import _edge_trace

    U = u[space.bnd_edge_dofs[:, None, :] + np.array([[0], [space.n_scalar]])]
    return U @ _edge_trace(s).T


def net_flux(pumps, t, space):
    """Discrete net boundary flux of phi_g(t) (compatibility check)."""
    return float(space.flux_vector @ phi_g(pumps, t, space))


def lp(space, mag, p):
    """(int mag^p)^(1/p) by cell quadrature of samples mag (nt, nq)."""
    return space.integrate(mag**p) ** (1.0 / p)


def hg_sq(space, data):
    """(||H_g||^2, ||H~_g||^2) in L2 by quadrature of the tables of one LiftData."""
    return tuple(space.integrate((f * f).sum(axis=-1)) for f in (data.h, data.h_tilde))


def lift_row_terms(space, data):
    """The save-time lift terms of one LiftData by quadrature: ||H_g||^2,
    ||H~_g||^2, ||eps(d zeta_g/dt)||^2_L2 and ||eps(d zeta_g/dt)||^{3/2}_L3."""
    edzg = strain_norm(sym_grad(data.dzg_grads.copy()))
    return (*hg_sq(space, data), lp(space, edzg, 2) ** 2, lp(space, edzg, 3) ** 1.5)


def lift_midpoint_integrands(space, data):
    """The data functionals' integrands at one LiftData by quadrature:
    ||H_g||^2, ||H~_g||^2, ||zeta_g||^3_L3 + ||eps(zeta_g)||^3_L3,
    ||d zeta_g/dt||^2_H1 and (||d zeta_g/dt||^3_L3 + ||eps(d zeta_g/dt)||^3_L3)^(2/3)."""
    zg_mag, dzg_mag = (np.linalg.norm(v, axis=-1) for v in (data.zg_vals, data.dzg_vals))
    ezg, edzg = (strain_norm(sym_grad(g.copy())) for g in (data.zg_grads, data.dzg_grads))
    return (
        *hg_sq(space, data),
        lp(space, zg_mag, 3) ** 3 + lp(space, ezg, 3) ** 3,
        lp(space, dzg_mag, 2) ** 2 + lp(space, strain_norm(data.dzg_grads), 2) ** 2,
        (lp(space, dzg_mag, 3) ** 3 + lp(space, edzg, 3) ** 3) ** (2 / 3),
    )


def assert_no_instance_patches(obj):
    """No callable sits in obj's instance __dict__: undoing a monkeypatch of
    an instance's method leaves the bound method there, so a session-wide
    object is patched on its class or replaced by a fresh one."""
    patched = sorted(k for k, v in vars(obj).items() if callable(v))
    assert not patched, patched


def duffy_rule(n):
    """Collapsed n x n Gauss product rule on the reference triangle.

    Exact for total degree <= 2n - 2; the independent oracle against which
    the symmetric rules and assembled integrals are checked.
    """
    x_1d, w_1d = leggauss(n)
    x_1d = 0.5 * (x_1d + 1.0)
    w_1d = 0.5 * w_1d
    u, v = np.meshgrid(x_1d, x_1d, indexing="ij")
    wu, wv = np.meshgrid(w_1d, w_1d, indexing="ij")
    # (u, v) in the unit square -> (x, y) = (u, v(1-u)), Jacobian (1-u)
    x = u.ravel()
    y = (v * (1.0 - u)).ravel()
    w = (wu * wv * (1.0 - u)).ravel()
    # weights normalized to sum to 1, as the space's rule; |T_ref| = 1/2
    return SimpleNamespace(points=np.column_stack([x, y]), weights=2.0 * w)
