import ast
from math import factorial
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import eigh
from scipy.sparse.linalg import splu

from conftest import (SETUP_MESHES, assembly_oracle, batched_body_load, doubled_grad_operator,
                      doubled_nonlinear_load, doubled_state_fields, duffy_rule, grads_oracle,
                      n_vec_values, pressure_integral_oracle, stress_load_oracle)
from recirc.errors import MeshError
from recirc.fullspace import FullSpaceSystem
from recirc.mesh import TaggedMesh, build_rect_mesh
from recirc.space import (EDGE_POINTS, EDGE_WEIGHTS, SADDLE_LU, TRI_POINTS, TRI_WEIGHTS,
                          MixedSpace, _p2_values, nested_dissection)
from recirc.turbulence import ClosureParams, planes, sym_grad

SRC = Path(__file__).resolve().parent.parent / "src" / "recirc"


def const_field(space, cx, cy):
    ns = space.n_scalar
    return np.concatenate([np.full(ns, cx), np.full(ns, cy)])


def test_constant_field_in_stiffness_kernels(space8):
    c = const_field(space8, 1.7, -0.3)
    assert np.abs(space8.K_eps @ c).max() <= 1e-12
    assert np.abs(space8.K_grad @ c).max() <= 1e-12


def test_rigid_rotation_strain_free(space8):
    v = space8.interpolate(lambda x, y: np.column_stack([-y, x]))
    assert abs(v @ space8.K_eps @ v) <= 1e-12
    # int |grad v|^2 = 2 |Omega| for the rotation field
    assert abs(v @ space8.K_grad @ v - 2.0) <= 1e-10


def _oracle_l2_sq(space, u):
    """Independent L2 norm: high-order collapsed Gauss rule, direct evaluation."""
    rule = duffy_rule(6)
    N = _p2_values(rule.points)
    ns = space.n_scalar
    total = 0.0
    for comp in range(2):
        Uc = u[comp * ns + space.cell_dofs]  # (nt, 6)
        vals = Uc @ N.T  # (nt, nq)
        total += float(np.einsum("c,q,cq->", space.areas, rule.weights, vals**2))
    return total


def test_mass_matrix_matches_quadrature_oracle(space8):
    rng = np.random.default_rng(3)
    for _ in range(5):
        u = rng.standard_normal(space8.n_velocity)
        uMu = u @ space8.M @ u
        assert abs(uMu - _oracle_l2_sq(space8, u)) <= 1e-10 * uMu


def _strain_pairings(space, weight, U):
    """Independent 2 int w eps(u_i):eps(u_j) from strain samples, column by column."""
    E = [space.strain_samples(u) for u in U.T]
    wq = 2.0 * space.qweights * weight
    return np.array([[np.einsum("cq,cqab,cqab->", wq, a, b) for b in E] for a in E])


def test_strain_stiffness_matches_quadrature(space8):
    rng = np.random.default_rng(23)
    u, v = rng.standard_normal((2, space8.n_velocity))
    ref = _strain_pairings(space8, 1.0, np.column_stack([u, v]))[0, 1]
    assert abs(u @ space8.K_eps @ v - ref) <= 1e-12 * abs(ref)


def test_weighted_strain_stiffness_matches_quadrature(space8):
    rng = np.random.default_rng(29)
    weight = rng.uniform(0.1, 2.0, space8.qweights.shape)
    U = np.zeros((space8.n_velocity, 4))
    I = space8.interior_vdofs
    U[I, :3] = rng.standard_normal((len(I), 3))
    U[:, 3] = rng.standard_normal(space8.n_velocity)  # nonzero trace, as zeta_g has
    # a zero rank-one term leaves the weighted stiffness alone
    zero = (np.zeros_like(weight), np.stack(planes(space8.strain_samples(U[:, 3]))))
    S = space8.weighted_strain_stiffness(weight, space8.strain_coefficients(U), zero)
    ref = _strain_pairings(space8, weight, U)
    assert np.abs(S - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("dims", [(1.0, 1.0, 4, 4), (1.0, 1.0, 16, 16), (1.3, 0.7, 11, 7)])
def test_assembly_bit_identical_to_the_einsum_oracle(dims):
    # the geometry tables and B are explicit sums in the einsums' order of
    # operations, and K_grad keeps its einsum: every table and every sparse
    # array (data, indices, indptr) is the oracle's, bit for bit
    space = MixedSpace(build_rect_mesh(*dims))
    ref = assembly_oracle(space)
    assert space.grad.flags.c_contiguous
    for name in ("grad", "qpoints"):
        assert np.array_equal(getattr(space, name), ref[name]), name
    for name in ("M", "K_grad", "K_eps", "B"):
        got = getattr(space, name)
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, part), getattr(ref[name], part)), (name, part)
        # and the index dtype and the flags, so no later scipy call sorts one
        # and not the other
        for part in ("indices", "indptr"):
            assert getattr(got, part).dtype == getattr(ref[name], part).dtype, (name, part)
        for flag in ("has_sorted_indices", "has_canonical_format"):
            assert getattr(got, flag) == getattr(ref[name], flag), (name, flag)


def test_space_build_makes_four_coo_conversions_and_no_block_diag(monkeypatch):
    # M, K_eps and B's two components; K_grad's one on its first read. M and
    # K_grad double their scalar block from its CSR arrays
    calls = []
    coo = MixedSpace._coo

    def counted(self, *args):
        calls.append(args[-1])
        return coo(self, *args)

    def refused(*args, **kwargs):
        raise AssertionError("sp.block_diag called")

    monkeypatch.setattr(MixedSpace, "_coo", counted)
    monkeypatch.setattr(sp, "block_diag", refused)
    space = MixedSpace(build_rect_mesh(1.0, 1.0, 4, 4))
    ns, nu, npr = space.n_scalar, space.n_velocity, space.n_pressure
    assert calls == [(ns, ns), (nu, nu), (npr, nu), (npr, nu)]
    space.K_grad
    space.K_grad
    assert calls[4:] == [(ns, ns)]


@pytest.mark.parametrize("dims", SETUP_MESHES)
def test_pressure_integral_bit_identical_to_add_at(dims):
    # one bincount adds the cells' thirds in cell order, as np.add.at does
    space = MixedSpace(build_rect_mesh(*dims))
    assert np.array_equal(space.pressure_integral, pressure_integral_oracle(space))


def test_strain_cells_bit_identical_to_block_formula(space8):
    # the cells are written block by block into one array; K_eps, their
    # assembly, keeps the bits of the np.block formula
    wq = space8.qweights[:, :, None]
    gx, gy = space8.grad[:, :, 0], space8.grad[:, :, 1]
    xx = (wq * gx).transpose(0, 2, 1) @ gx
    yy = (wq * gy).transpose(0, 2, 1) @ gy
    xy = (wq * gy).transpose(0, 2, 1) @ gx
    ref = np.block([[2 * xx + yy, xy], [xy.transpose(0, 2, 1), 2 * yy + xx]])
    assert np.array_equal(space8._strain_cells(), ref)


def test_strain_stiffness_rank_one_term_matches_quadrature(space8):
    # int 2 w eps(u):eps(v) + 2 a (e:eps(u)) (e:eps(v)), column by column
    rng = np.random.default_rng(59)
    weight = rng.uniform(0.1, 2.0, space8.qweights.shape)
    a = rng.uniform(0.1, 2.0, space8.qweights.shape)
    e = space8.strain_samples(rng.standard_normal(space8.n_velocity))
    U = rng.standard_normal((space8.n_velocity, 4))
    S = space8.weighted_strain_stiffness(weight, space8.strain_coefficients(U),
                                         rank_one=(a, np.stack(planes(e))))
    E = [np.einsum("cqab,cqab->cq", e, space8.strain_samples(u)) for u in U.T]
    ref = _strain_pairings(space8, weight, U) + np.array(
        [[np.einsum("cq,cq,cq->", 2.0 * space8.qweights * a, ei, ej) for ej in E] for ei in E]
    )
    assert np.abs(S - ref).max() <= 1e-12 * np.abs(ref).max()


def test_eval_grads_exact_on_quadratic_field():
    # a P2 field on a non-square, non-unit mesh: every entry [a, b] of the
    # gradient differs, so a swapped component or axis shows
    space = MixedSpace(build_rect_mesh(1.0, 2.0, 3, 5))

    def u(x, y):
        return np.column_stack([1 + 2 * x - 3 * y + 0.5 * x * x + 4 * x * y - y * y,
                                -2 + 5 * x + 7 * y - 3 * x * x + x * y + 2 * y * y])

    x, y = space.qpoints[..., 0], space.qpoints[..., 1]
    exact = np.empty(x.shape + (2, 2))
    exact[..., 0, 0] = 2 + x + 4 * y
    exact[..., 0, 1] = -3 + 4 * x - 2 * y
    exact[..., 1, 0] = 5 - 6 * x + y
    exact[..., 1, 1] = 7 + x + 4 * y
    G = space.eval_grads(space.interpolate(u))
    assert G.shape == exact.shape
    for a in range(2):
        for b in range(2):
            assert np.abs(G[..., a, b] - exact[..., a, b]).max() <= 1e-12, (a, b)


def _stress_load_by_transposed_copy(space, S):
    """The stress load of [c, q, b, a] tables S as it was formed before the
    copy-free contraction: the weighted table copied into [c, a, (q, b)] rows,
    times grad's rows [c, (q, b), l], scattered over cell_vdofs."""
    nt, nq = space.qweights.shape
    WS = space.qweights[:, :, None, None] * S.swapaxes(-1, -2)
    A = WS.transpose(0, 2, 1, 3).reshape(nt, 2, nq * 2)
    return np.bincount(space.cell_vdofs.ravel(),
                       weights=(A @ space.grad.reshape(nt, nq * 2, 6)).ravel(),
                       minlength=space.n_velocity)


@pytest.mark.parametrize("dims", [(1.0, 1.0, 4, 4), (1.0, 1.0, 8, 8), (1.0, 2.0, 3, 5)])
def test_strain_and_stress_contractions_match_the_slow_path(dims):
    # strain_samples against sym_grad(eval_grads(u)) and stress_load_vector
    # against the transposed-copy contraction, on random fields and on
    # symmetric and non-symmetric random tables: the same bits
    space = MixedSpace(build_rect_mesh(*dims))
    rng = np.random.default_rng(71)
    for _ in range(3):
        u = rng.standard_normal(space.n_velocity)
        assert np.array_equal(space.strain_samples(u), sym_grad(space.eval_grads(u)))
        S = rng.standard_normal(space.qweights.shape + (2, 2))
        for table in (S, sym_grad(S.copy())):
            assert np.array_equal(space.stress_load_vector(table),
                                  _stress_load_by_transposed_copy(space, table))


@pytest.mark.parametrize("dims", [(1.0, 1.0, 4, 4), (1.0, 1.0, 8, 8), (1.0, 2.0, 3, 5)])
def test_eval_grads_is_the_block_product(dims):
    # eval_grads, the transposed view of the strain product's gradient,
    # keeps the bits of the zero-padded block product it replaced
    space = MixedSpace(build_rect_mesh(*dims))
    rng = np.random.default_rng(73)
    for scale in (1.0, 1e-6, 1e5):
        u = scale * rng.standard_normal(space.n_velocity)
        assert np.array_equal(space.eval_grads(u), grads_oracle(space, u))


@pytest.mark.parametrize("dims", [(1.0, 1.0, 4, 4), (1.0, 2.0, 3, 5)])
def test_stress_load_matches_quadrature(dims):
    # the stress load of a random table against an einsum stress load
    space = MixedSpace(build_rect_mesh(*dims))
    rng = np.random.default_rng(79)
    S = rng.standard_normal(space.qweights.shape + (2, 2))
    got, want = space.stress_load_vector(S), stress_load_oracle(space, S)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_quadrature_rules_are_exact_to_their_degree():
    # the 12-point rule integrates x^a y^b, a + b <= 6, over the reference
    # triangle (area 1/2) to a! b! / (a + b + 2)!, and the edge rule s^k,
    # k <= 7, over [0, 1] to 1 / (k + 1); both weight sets sum to 1
    x, y = TRI_POINTS.T
    for a in range(7):
        for b in range(7 - a):
            exact = factorial(a) * factorial(b) / factorial(a + b + 2)
            got = 0.5 * (TRI_WEIGHTS @ (x**a * y**b))
            assert abs(got - exact) <= 1e-14 * exact, (a, b)
    for k in range(8):
        assert abs(EDGE_WEIGHTS @ EDGE_POINTS**k - 1 / (k + 1)) <= 1e-14 / (k + 1), k
    assert TRI_POINTS.shape == (12, 2) and EDGE_POINTS.shape == (4,)
    assert abs(TRI_WEIGHTS.sum() - 1) <= 1e-14 and abs(EDGE_WEIGHTS.sum() - 1) <= 1e-14


@pytest.mark.parametrize("dims", SETUP_MESHES)
def test_plane_kernels_keep_the_old_products(dims):
    # eval_values, the view of value_planes, bit for bit the zero-padded
    # N_vec product; load_vector, the value_load of the weighted planes, bit
    # for bit the batched-product scatter; the full-space bundle and load,
    # now through the four plane kernels, bit for bit their compositions on
    # the doubled gradient operator; and grad_planes and grad_load against
    # the quadrature path's eval_grads and stress_load_vector to roundoff
    space = MixedSpace(build_rect_mesh(*dims))
    D = doubled_grad_operator(space)
    rng = np.random.default_rng(83)
    for scale in (1e-3, 1.0, 30.0):
        u = scale * rng.standard_normal(space.n_velocity)
        assert np.array_equal(space.eval_values(u), n_vec_values(space, u))
        f = scale * rng.standard_normal(space.qweights.shape + (2,))
        assert np.array_equal(space.load_vector(f), batched_body_load(space, f))

        G = space.grad_planes(u)
        ref = space.eval_grads(u)
        assert np.abs(G - ref.transpose(2, 3, 0, 1)).max() <= 1e-13 * np.abs(ref).max()
        S = rng.standard_normal((2, 2) + space.qweights.shape)
        ref = space.stress_load_vector(S.transpose(2, 3, 1, 0))
        got = space.grad_load(space.qweights * S)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

        for nu_tur in (0.0, 0.3):
            fs = FullSpaceSystem(space, ClosureParams(0.05, nu_tur))
            got, ref = fs.state_fields(u), doubled_state_fields(fs, u, D)
            for name in ("grads", "values", "half", "force", "mag"):
                assert np.array_equal(getattr(got, name), getattr(ref, name)), name
            assert np.array_equal(fs.nonlinear_load(got, 0.7),
                                  doubled_nonlinear_load(fs, ref, 0.7, D))


@pytest.mark.parametrize("dims", SETUP_MESHES)
def test_plane_kernels_read_cached_transposed_copies(dims):
    # strain_planes, value_planes and grad_planes multiply by C-ordered
    # copies of the transposed tables P1^T and N^T, formed once with the
    # space: bit for bit the products with the transposed views
    space = MixedSpace(build_rect_mesh(*dims))
    nt, n = space.mesh.num_cells, space.n_scalar
    assert space.P1_T.flags.c_contiguous and np.array_equal(space.P1_T, space.P1.T)
    assert space.N_T.flags.c_contiguous and np.array_equal(space.N_T, space.N.T)
    rng = np.random.default_rng(112)
    for scale in (1e-3, 1.0, 30.0):
        s = scale * rng.standard_normal(9 * nt)
        ref = (s.reshape(3 * nt, 3) @ space.P1.T).reshape(3, nt, -1)
        assert np.array_equal(space.strain_planes(s), ref)
        u = scale * rng.standard_normal(space.n_velocity)
        cells = u.reshape(2, n).take(space.cell_dofs, axis=1).reshape(2 * nt, 6)
        assert np.array_equal(space.value_planes(u), (cells @ space.N.T).reshape(2, nt, -1))
        G = np.concatenate([space.grad_operator @ ua for ua in u.reshape(2, n)])
        ref = (G.reshape(4 * nt, 3) @ space.P1.T).reshape(2, 2, nt, -1)
        assert np.array_equal(space.grad_planes(u), ref)


def test_only_the_space_reads_its_reference_element():
    # the shape-function tables, cell DOF maps and gradient operators of a
    # space are read inside space.py alone: every other module goes through
    # its field kernels
    private = {"cell_dofs", "cell_vdofs", "cell_vdofs_la", "N", "N_T", "P1", "P1_T", "P1_pairs",
               "grad", "Nhat_grad", "grad_operator", "grad_operator_T"}
    reads = [f"{path.name}:{node.lineno}: .{node.attr}"
             for path in sorted(SRC.glob("*.py")) if path.name != "space.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr in private]
    assert not reads


def test_degenerate_cell_rejected():
    m = build_rect_mesh(1, 1, 2, 2)
    vertices = m.vertices.copy()
    # collapse one cell to zero area
    c = m.cells[0]
    vertices[c[2]] = 0.5 * (vertices[c[0]] + vertices[c[1]])
    with pytest.raises(MeshError):
        MixedSpace(TaggedMesh(1, 1, vertices, m.cells))


def test_norms_of_zero_field(space8):
    z = np.zeros(space8.n_velocity)
    for kind in ("L2", "L3", "L4", "H1semi", "W13semi", "L2boundary"):
        assert space8.norm(z, kind) == 0.0


def test_norms_of_constant_field(space8):
    v = const_field(space8, -2.5, 0.0)
    assert abs(space8.norm(v, "L2") - 2.5) <= 1e-12
    assert space8.norm(v, "H1semi") <= 1e-12


def test_w13_seminorm_shear_field(space8):
    v = space8.interpolate(lambda x, y: np.column_stack([y, np.zeros_like(x)]))
    # |eps| = (1/2)^(1/2) everywhere, so the cubed seminorm is 2^(-3/2)
    assert abs(space8.norm(v, "W13semi") ** 3 - 2 ** -1.5) <= 1e-12


def test_boundary_norm_of_quadratic_field(space8):
    # u = (x^2, xy) is its own P2 interpolant; int_bnd |u|^2 on the unit square
    # is 1/5 (bottom) + 1/5 + 1/3 (top) + 0 (left) + 1 + 1/3 (right) = 31/15
    v = space8.interpolate(lambda x, y: np.column_stack([x * x, x * y]))
    assert abs(space8.norm(v, "L2boundary") ** 2 - 31 / 15) <= 1e-13


def test_unknown_norm_kind(space8):
    with pytest.raises(ValueError):
        space8.norm(np.zeros(space8.n_velocity), "L5")


def test_norm_l2_equals_mass_quadratic_form(space8):
    rng = np.random.default_rng(11)
    for _ in range(10):
        u = rng.standard_normal(space8.n_velocity)
        uMu = u @ space8.M @ u
        assert abs(space8.norm(u, "L2") ** 2 - uMu) <= 1e-10 * uMu


def test_operator_signs_on_random_fields(space8):
    rng = np.random.default_rng(5)
    for _ in range(100):
        v = rng.standard_normal(space8.n_velocity)
        assert v @ space8.K_eps @ v >= 0.0
        assert v @ space8.M @ v > 0.0


@pytest.mark.slow
def test_korn_constant_holds_for_fresh_batch(space8):
    # mesh-level constant: largest eigenvalue of (K_grad, K_eps) on the
    # boundary-zero subspace; then a fresh batch must satisfy the inequality
    c_k = space8.korn_constant()
    assert 0 < c_k <= 1.0 + 1e-10  # strain controls the gradient here
    I = space8.interior_vdofs
    rng = np.random.default_rng(17)
    for _ in range(100):
        v = np.zeros(space8.n_velocity)
        v[I] = rng.standard_normal(len(I))
        assert v @ space8.K_grad @ v <= c_k * (v @ space8.K_eps @ v) * (1 + 1e-10)
    # the constant comes from a Lanczos eigensolve; cross-check it against
    # the top of a dense generalized eigensolve of the same interior pencil
    Kg = space8.K_grad.tocsr()[I][:, I].toarray()
    Ke = space8.K_eps.tocsr()[I][:, I].toarray()
    n = len(I)
    val = float(eigh(Kg, Ke, eigvals_only=True, subset_by_index=[n - 1, n - 1])[0])
    assert abs(val - c_k) <= 1e-8 * c_k


@pytest.mark.parametrize("n", [3, 8, 16])
def test_strain_less_gradient_stiffness_is_the_div_div_form(n):
    # on zero-trace fields 2 ||eps(v)||^2 = ||grad v||^2 + ||div v||^2, so the
    # interior block of K_eps - K_grad is int div u div v, assembled here from
    # the shape gradients `grad`: [c, q, (a, l)] = d phi_l/d x_a is the
    # divergence of shape function l of component a, in `cell_vdofs` order.
    # Off the interior block the identity needs the trace, and fails.
    space = MixedSpace(build_rect_mesh(1.0, 1.0, n, n))
    nt, nu = space.mesh.num_cells, space.n_velocity
    div = space.grad.reshape(nt, -1, 12)
    cells = np.einsum("cq,cqi,cqj->cij", space.qweights, div, div)
    vdofs = space.cell_vdofs
    K_div = sp.coo_matrix((cells.ravel(), (np.repeat(vdofs, 12, axis=1).ravel(),
                                           np.tile(vdofs, (1, 12)).ravel())),
                          shape=(nu, nu)).tocsr()
    gap = space.K_eps - space.K_grad - K_div
    I = space.interior_vdofs
    assert abs(gap[I][:, I]).max() <= 1e-14 * abs(K_div).max()
    assert abs(gap).max() >= 0.1 * abs(K_div).max()


def test_divergence_operator_on_linear_fields(space8):
    v = space8.interpolate(lambda x, y: np.column_stack([x, -y]))
    assert np.abs(space8.B @ v).max() <= 1e-13
    w = space8.interpolate(lambda x, y: np.column_stack([x, y]))
    # (q, div w) with q = 1 gives 2 |Omega|
    assert abs(space8.pressure_integral @ np.ones(space8.n_pressure) - 1.0) <= 1e-12
    assert abs((space8.B @ w).sum() - 2.0) <= 1e-10


def test_boundary_flux_vector(space8):
    w = space8.interpolate(lambda x, y: np.column_stack([x, y]))
    assert abs(space8.flux_vector @ w - 2.0) <= 1e-12
    v = space8.interpolate(lambda x, y: np.column_stack([x, -y]))
    assert abs(space8.flux_vector @ v) <= 1e-12


def _bordered_saddle(space, A_II):
    """Reference saddle matrix bordered by the dense pressure-mean row and
    column instead of a pinned pressure DOF."""
    I = space.interior_vdofs
    B_I = space.B[:, I]
    m = space.pressure_integral
    npr = space.n_pressure
    return sp.bmat(
        [
            [A_II, B_I.T, None],
            [B_I, sp.csr_matrix((npr, npr)), m[:, None]],
            [None, m[None, :], None],
        ],
        format="csc",
    )


@pytest.fixture(scope="module")
def space16():
    return MixedSpace(build_rect_mesh(1.0, 1.0, 16, 16))


def _saddle_operator(space, operator):
    """A lift, step or mass velocity operator."""
    nu, dt = 0.01, 0.01
    return {
        "stokes": nu * space.K_eps,
        "step": space.M / dt + nu * space.K_eps,
        "mass": space.M,
    }[operator].tocsr()


def _check_pinned_saddle_against_bordered(space, operator):
    I = space.interior_vdofs
    A = _saddle_operator(space, operator)
    rng = np.random.default_rng(5)
    f = rng.standard_normal(space.n_velocity)  # its boundary rows are not read
    g = rng.standard_normal(space.n_pressure)
    g -= g.mean()  # compatible: constants are in the kernel of B_I^T
    u, p = space.saddle_solve(splu(space.saddle_matrix(A), **SADDLE_LU), f, g)
    ref = splu(_bordered_saddle(space, A[I][:, I])).solve(np.concatenate([f[I], g, [0.0]]))
    u_ref, p_ref = ref[: len(I)], ref[len(I) : len(I) + space.n_pressure]
    assert np.all(u[space.boundary_vdofs] == 0.0)
    assert abs(space.pressure_integral @ p) <= 1e-12 * np.abs(p).max()
    assert np.linalg.norm(u[I] - u_ref) <= 1e-10 * np.linalg.norm(u_ref)
    assert np.linalg.norm(p - p_ref) <= 1e-10 * np.linalg.norm(p_ref)


@pytest.mark.parametrize("operator", ["stokes", "step", "mass"])
def test_pinned_saddle_matches_bordered(space16, operator):
    _check_pinned_saddle_against_bordered(space16, operator)


# the 2x2 mesh is the smallest with a nonsingular pinned saddle matrix: on
# 1x1 only the diagonal's midpoint is interior, 2 velocity unknowns against
# 3 pressure rows
@pytest.mark.parametrize("dims", [(1.0, 1.0, 2, 2), (1.0, 2.0, 3, 5)], ids=["2x2", "1x2_3x5"])
@pytest.mark.parametrize("operator", ["stokes", "step", "mass"])
def test_pinned_saddle_matches_bordered_small_and_non_square(dims, operator):
    _check_pinned_saddle_against_bordered(MixedSpace(build_rect_mesh(*dims)), operator)


@pytest.mark.parametrize("n", [16, 32])
def test_ordered_saddle_factor_fills_less_than_colamd(n):
    # the ordered factor keeps its diagonal pivots; a pivot threshold that
    # trades them for off-diagonal ones multiplies the fill past COLAMD's
    space = MixedSpace(build_rect_mesh(1.0, 1.0, n, n))
    for operator in ("stokes", "step", "mass"):
        A = _saddle_operator(space, operator)
        ordered = splu(space.saddle_matrix(A), **SADDLE_LU)
        plain = splu(space.pinned_saddle(A))
        assert ordered.L.nnz + ordered.U.nnz < plain.L.nnz + plain.U.nnz, operator
        assert np.array_equal(ordered.perm_r, np.arange(ordered.shape[0])), operator


def test_saddle_order_is_a_permutation():
    jittered = build_rect_mesh(1.0, 1.0, 6, 6)
    rng = np.random.default_rng(3)
    inner = np.all((jittered.vertices > 0) & (jittered.vertices < 1), axis=1)
    jittered.vertices[inner] += rng.uniform(-0.03, 0.03, (inner.sum(), 2))
    for mesh in (build_rect_mesh(1, 1, 1, 1), build_rect_mesh(1.0, 2.0, 3, 5), jittered):
        space = MixedSpace(mesh)
        order = space.saddle_order
        nI = len(space.interior_vdofs)
        assert np.array_equal(np.sort(order), np.arange(nI + space.n_pressure - 1))


def test_nested_dissection_on_a_grid():
    # the P2 node points of a 4x4-cell grid, vertices (pressures) at even
    # coordinates. The square splits across x (the y extent is not longer)
    # at the vertex line x = 4, each 4x9 half across y at y = 4, and the 4x4
    # quarters are leaves of DISSECTION_LEAF = 16 points
    x, y = np.meshgrid(np.arange(9.0), np.arange(9.0), indexing="ij")
    xy = np.column_stack([x.ravel(), y.ravel()])
    pressure = (xy[:, 0] % 2 == 0) & (xy[:, 1] % 2 == 0)
    order = nested_dissection(xy, pressure)
    placed = xy[order]
    assert np.array_equal(np.sort(order), np.arange(81))
    # left half, right half, then the separator x = 4
    assert np.all(placed[:36, 0] < 4) and np.all(placed[36:72, 0] > 4)
    assert np.all(placed[72:, 0] == 4)
    # inside each half: y < 4, y > 4, then the line y = 4
    for h in (0, 36):
        assert np.all(placed[h : h + 16, 1] < 4) and np.all(placed[h + 16 : h + 32, 1] > 4)
        assert np.all(placed[h + 32 : h + 36, 1] == 4)
    # velocities before pressures inside every leaf and separator
    for lo, hi in ((0, 16), (16, 32), (32, 36), (36, 52), (52, 68), (68, 72), (72, 81)):
        assert np.all(np.diff(pressure[order[lo:hi]].astype(int)) >= 0)
