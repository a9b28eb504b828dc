import numpy as np
import pytest

from conftest import apply_A, full_stress, potential_D
from recirc.mesh import build_rect_mesh
from recirc.quadrature import duffy_rule
from recirc.space import MixedSpace, _p2_values, _p2_grads
from recirc.turbulence import (
    ClosureParams,
    closure_stress,
    closure_tangent,
    convect,
    convection_load,
    convection_tables,
    smagorinsky_load,
    strain_norm,
    sym_grad,
)


def sym(mat):
    return 0.5 * (mat + mat.T)


def random_strains(rng, count, min_norm=0.0):
    out = []
    while len(out) < count:
        e = sym(rng.standard_normal((2, 2)))
        if strain_norm(e) >= min_norm:
            out.append(e)
    return out


def test_potential_values():
    p = ClosureParams(nu=1.0, nu_tur=0.0)
    assert potential_D(np.zeros((2, 2)), p) == 0.0
    e = np.diag([1.0, 1.0])  # e:e = 2
    assert abs(potential_D(e, p) - 2.0) <= 1e-15
    p = ClosureParams(nu=1e-30, nu_tur=1.0)
    e = np.diag([np.sqrt(2), np.sqrt(2)])  # e:e = 4
    assert abs(potential_D(e, p) - 16.0 / 3.0) <= 1e-12


def beta(e, params):
    """Effective viscosity 2 nu + 2 w, w the closure weight nu_tur |e|."""
    return 2 * params.nu + 2 * closure_tangent(strain_norm(e), params)[0]


def test_beta_values():
    p = ClosureParams(nu=0.7, nu_tur=5.0)
    assert abs(beta(np.zeros((2, 2)), p) - 1.4) <= 1e-15
    p = ClosureParams(nu=1.0, nu_tur=1.0)
    e = np.diag([3.0 / np.sqrt(2), -3.0 / np.sqrt(2)])  # e:e = 9
    assert abs(beta(e, p) - 8.0) <= 1e-12
    # the stress is beta e
    assert np.abs(full_stress(e, p) - 8.0 * e).max() <= 1e-12


def test_stress_reduces_to_newtonian():
    p = ClosureParams(nu=0.3, nu_tur=0.0)
    rng = np.random.default_rng(0)
    for e in random_strains(rng, 10):
        assert np.allclose(full_stress(e, p), 2 * 0.3 * e, atol=1e-15)


def test_beta_lower_bound():
    p = ClosureParams(nu=0.02, nu_tur=0.5)
    rng = np.random.default_rng(1)
    for e in random_strains(rng, 100):
        assert beta(e, p) >= 2 * p.nu


def test_stress_is_potential_derivative_order2():
    # central differences of D converge to stress : direction at order 2
    p = ClosureParams(nu=0.4, nu_tur=0.8)
    rng = np.random.default_rng(42)
    hs = [1e-2 / 2**k for k in range(5)]
    for e in random_strains(rng, 100, min_norm=0.1):
        d = sym(rng.standard_normal((2, 2)))
        exact = float((full_stress(e, p) * d).sum())
        errs = [
            abs((potential_D(e + h * d, p) - potential_D(e - h * d, p)) / (2 * h) - exact)
            for h in hs
        ]
        floor = 1e-10 * max(1.0, abs(exact))  # central-difference roundoff
        for e1, e2 in zip(errs, errs[1:]):
            if min(e1, e2) < floor:
                continue
            assert 3.4 <= e1 / e2 <= 4.6


def test_pointwise_monotonicity():
    p = ClosureParams(nu=0.05, nu_tur=0.7)
    rng = np.random.default_rng(7)
    for _ in range(200):
        e1 = sym(rng.standard_normal((2, 2)))
        e2 = sym(rng.standard_normal((2, 2)))
        gap = float(((full_stress(e1, p) - full_stress(e2, p)) * (e1 - e2)).sum())
        lower = 2 * p.nu * float(((e1 - e2) ** 2).sum())
        assert gap >= lower - 1e-12 * (1 + abs(gap))


def test_closure_tangent_is_the_stress_derivative():
    # d/dh closure_stress(e + h d) at h = 0 is 2 w d + 2 a (e:d) e
    p = ClosureParams(nu=0.4, nu_tur=0.8)
    rng = np.random.default_rng(53)
    h = 1e-5
    for e in random_strains(rng, 100, min_norm=0.1):
        d = sym(rng.standard_normal((2, 2)))
        w, a = closure_tangent(strain_norm(e), p)
        exact = 2 * w * d + 2 * a * float((e * d).sum()) * e
        fd = [closure_stress(x, strain_norm(x), p) for x in (e + h * d, e - h * d)]
        fd = (fd[0] - fd[1]) / (2 * h)
        assert np.abs(fd - exact).max() <= 1e-8 * max(1.0, np.abs(exact).max())


def test_closure_stress_dissipation_is_cubic():
    # closure_stress(e) : e = 2 nu_tur |e|^3
    p = ClosureParams(nu=0.1, nu_tur=0.6)
    rng = np.random.default_rng(59)
    E = rng.standard_normal((40, 7, 2, 2)) * rng.uniform(1e-3, 1e3, (40, 7, 1, 1))
    E = 0.5 * (E + E.swapaxes(-1, -2))
    mag = strain_norm(E)
    got = (closure_stress(E, mag, p) * E).sum(axis=(-2, -1))
    cubic = 2 * p.nu_tur * mag**3
    assert np.all(np.abs(got - cubic) <= 1e-13 * cubic)


def test_closure_tangent_guard_at_zero_strain():
    # |e| = 0 gives the weights (0, 0), finite and without a warning
    p = ClosureParams(nu=0.1, nu_tur=0.6)
    mag = np.array([[0.0, 2.0], [0.5, 0.0]])
    with np.errstate(all="raise"):
        w, a = closure_tangent(mag, p)
    assert np.array_equal(w, p.nu_tur * mag)
    assert np.array_equal(a, np.array([[0.0, 0.3], [1.2, 0.0]]))
    with np.errstate(all="raise"):
        w, a = closure_tangent(np.zeros(()), p)
    assert w == 0.0 and a == 0.0


@pytest.fixture(scope="module")
def space4():
    return MixedSpace(build_rect_mesh(1, 1, 4, 4))


def test_closure_stress_bit_identical_to_the_load_expression(space4):
    # closure_stress keeps the order of operations smagorinsky_load had
    p = ClosureParams(nu=0.1, nu_tur=0.37)
    rng = np.random.default_rng(61)
    E = sym_grad(rng.standard_normal(space4.qweights.shape + (2, 2)))
    mag = strain_norm(E)
    old = 2.0 * p.nu_tur * mag[..., None, None] * E
    assert np.array_equal(closure_stress(E, mag, p), old)
    assert np.array_equal(smagorinsky_load(space4, E, p), space4.stress_load_vector(old))


def test_apply_A_zero_strain(space4):
    p = ClosureParams(nu=0.1, nu_tur=0.2)
    rng = np.random.default_rng(3)
    test = rng.standard_normal((space4.n_velocity, 5))
    zeros = np.zeros(space4.n_velocity)
    out = apply_A(space4, zeros, zeros, p, test)
    assert np.abs(out).max() <= 1e-14
    # rigid rotation has zero strain as well
    rot = space4.interpolate(lambda x, y: np.column_stack([-y, x]))
    out = apply_A(space4, rot, zeros, p, test)
    assert np.abs(out).max() <= 1e-12


def test_apply_A_linear_limit_matches_stiffness(space4):
    # nu_tur = 0: <A(z), xi> = nu (K_eps (zg + z)) . xi
    p = ClosureParams(nu=0.37, nu_tur=0.0)
    rng = np.random.default_rng(11)
    z = rng.standard_normal(space4.n_velocity)
    zg = rng.standard_normal(space4.n_velocity)
    test = rng.standard_normal((space4.n_velocity, 8))
    out = apply_A(space4, z, zg, p, test)
    oracle = (p.nu * (space4.K_eps @ (z + zg))) @ test
    scale = max(1.0, np.abs(oracle).max())
    assert np.abs(out - oracle).max() <= 1e-12 * scale


def test_apply_A_integrated_monotonicity(space4):
    p = ClosureParams(nu=0.05, nu_tur=0.3)
    rng = np.random.default_rng(19)
    zg = space4.interpolate(lambda x, y: np.column_stack([y * (1 - y), 0 * x]))
    for _ in range(20):
        z1 = rng.standard_normal(space4.n_velocity)
        z2 = rng.standard_normal(space4.n_velocity)
        d = (z1 - z2)[:, None]
        gap = float((apply_A(space4, z1, zg, p, d) - apply_A(space4, z2, zg, p, d))[0])
        eps_d = space4.strain_samples(z1 - z2)
        lower = 2 * p.nu * space4.integrate((eps_d * eps_d).sum(axis=(-2, -1)))
        assert gap >= lower - 1e-12 * (1 + abs(gap))


def test_convect_self_pairing_vanishes(space4):
    rng = np.random.default_rng(23)
    for _ in range(10):
        w = rng.standard_normal(space4.n_velocity)
        u = rng.standard_normal(space4.n_velocity)
        val = float(convect(space4, w, u, u[:, None])[0])
        scale = np.abs(u).max() ** 2 * np.abs(w).max()
        assert abs(val) <= 1e-12 * max(1.0, scale)


def test_convection_products_written_out(space4):
    # the tables of convection_tables against the batched (grad u) w and the
    # broadcast outer product u (x) w, on random tables; the 1/2 scales them
    # exactly, so convection_load keeps the bits of
    # 1/2 [load((grad u) w) - stress(u (x) w)] with the products written out
    rng = np.random.default_rng(37)
    w, u = rng.standard_normal((2, 64, 12, 2))
    g = rng.standard_normal((64, 12, 2, 2))
    f, S = convection_tables(w, u, g)
    batched = (g @ w[..., None])[..., 0]
    assert np.abs(2 * f - batched).max() <= 1e-15 * np.abs(batched).max()
    assert np.array_equal(-2 * S, u[..., :, None] * w[..., None, :])

    w, u = rng.standard_normal((2, space4.n_velocity))
    wv, uv, ug = space4.eval_values(w), space4.eval_values(u), space4.eval_grads(u)
    gw = np.stack([ug[..., a, 0] * wv[..., 0] + ug[..., a, 1] * wv[..., 1] for a in range(2)],
                  axis=-1)
    assert np.array_equal(2 * convection_tables(wv, uv, ug)[0], gw)
    halves = space4.load_vector(gw) - space4.stress_load_vector(uv[..., :, None] * wv[..., None, :])
    assert np.array_equal(convection_load(space4, wv, uv, ug), 0.5 * halves)


def test_convect_zero_advected(space4):
    rng = np.random.default_rng(29)
    w = rng.standard_normal(space4.n_velocity)
    test = rng.standard_normal((space4.n_velocity, 6))
    out = convect(space4, w, np.zeros(space4.n_velocity), test)
    assert np.abs(out).max() == 0.0


def test_convect_constant_advecting_field_oracle():
    # one-celled mesh, constant w, linear u: exact integrals by high-order rule
    space = MixedSpace(build_rect_mesh(1, 1, 1, 1))
    w = space.interpolate(lambda x, y: np.column_stack([np.full_like(x, 0.7), np.full_like(x, -0.3)]))
    u = space.interpolate(lambda x, y: np.column_stack([2 * x + y, x - y]))
    rng = np.random.default_rng(31)
    eta = rng.standard_normal(space.n_velocity)

    val = float(convect(space, w, u, eta[:, None])[0])

    # oracle: 1/2 [ int (grad u  w) . eta - int (grad eta  w) . u ] with an
    # independent collapsed rule and direct shape-function evaluation
    rule = duffy_rule(6)
    N = _p2_values(rule.points)
    Gh = _p2_grads(rule.points)
    mesh = space.mesh
    p = mesh.vertices[mesh.cells]
    J = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=-1)
    invJT = np.linalg.inv(J).transpose(0, 2, 1)
    grads = np.einsum("cab,qlb->cqla", invJT, Gh)
    ns = space.n_scalar

    def vals_of(f):
        return np.stack([f[c * ns + space.cell_dofs] @ N.T for c in range(2)], axis=-1)

    def grads_of(f):
        return np.stack(
            [np.einsum("cl,cqlb->cqb", f[c * ns + space.cell_dofs], grads) for c in range(2)],
            axis=-2,
        )

    wq = space.areas[:, None] * rule.weights[None, :]
    first = np.einsum("cq,cqab,cqb,cqa->", wq, grads_of(u), vals_of(w), vals_of(eta))
    second = np.einsum("cq,cqab,cqb,cqa->", wq, grads_of(eta), vals_of(w), vals_of(u))
    oracle = 0.5 * (first - second)
    assert abs(val - oracle) <= 1e-12 * max(1.0, abs(oracle))

    # divergence-free w: the skew form equals the raw integral up to the
    # boundary flux term 1/2 int (w.n)(u.eta), nonzero here since u and eta
    # do not vanish on the boundary
    from numpy.polynomial.legendre import leggauss

    from recirc.space import _edge_trace

    x1, w1 = leggauss(8)
    s = 0.5 * (x1 + 1.0)
    T = _edge_trace(s)
    bnd = 0.0
    for b, dofs in zip(space.mesh.boundary, space.bnd_edge_dofs):
        d = np.array(dofs)
        wn = sum((T @ w[c * ns + d]) * b.normal[c] for c in range(2))
        ueta = sum((T @ u[c * ns + d]) * (T @ eta[c * ns + d]) for c in range(2))
        bnd += b.length * float(0.5 * w1 @ (wn * ueta))
    raw = float(first)
    assert abs(val - (raw - 0.5 * bnd)) <= 1e-12 * max(1.0, abs(raw))


def test_params_validation():
    with pytest.raises(ValueError):
        ClosureParams(nu=0.0)
    with pytest.raises(ValueError):
        ClosureParams(nu=0.1, nu_tur=-1.0)


def test_sym_grad_bit_identical_to_transposed_mean():
    # the diagonal is kept (0.5 (x + x) = x) and the off-diagonal mean commutes
    rng = np.random.default_rng(21)
    for shape in [(2, 2), (7, 12, 2, 2), (3, 5, 6, 2, 2)]:
        G = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, size=shape)
        assert np.array_equal(sym_grad(G), 0.5 * (G + G.swapaxes(-1, -2)))


def test_strain_norm_bit_identical_to_axis_reduction():
    rng = np.random.default_rng(47)
    for shape in [(2, 2), (7, 2, 2), (64, 12, 2, 2)]:
        eps = rng.standard_normal(shape) * rng.uniform(1e-3, 1e3, shape)
        assert np.array_equal(strain_norm(eps), np.sqrt((eps * eps).sum(axis=(-2, -1))))
