import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, eigsh

from recirc.eigenbasis import (RAYLEIGH_RTOL, EigenBasis, solve_stokes_eigen,
                               subspace_dimension)
from recirc.errors import CapacityError, SolverError
from recirc.mesh import build_rect_mesh
from recirc.space import MixedSpace


@pytest.fixture(scope="module")
def basis8(space8):
    return solve_stokes_eigen(space8, 12)


def test_eigen_path_keeps_the_unordered_pinned_matrix(space8, basis8):
    # the Stokes spectrum has exactly degenerate pairs, inside which any
    # roundoff change rotates the modes: the eigensolver keeps its unordered
    # pinned saddle matrix and scipy's own shift-invert factorization, bit
    # for bit, whatever order `MixedSpace.saddle_matrix` uses
    I = space8.interior_vdofs
    B_I = space8.B[1:, I]
    A = sp.bmat([[space8.K_grad.tocsr()[I][:, I], B_I.T], [B_I, None]], format="csc")
    npr = A.shape[0] - len(I)
    Msad = sp.bmat([[space8.M.tocsr()[I][:, I], None], [None, sp.csr_matrix((npr, npr))]],
                   format="csc")
    start = np.sin(np.arange(1, A.shape[0] + 1, dtype=float))
    vals, vecs = eigsh(A, k=basis8.size, M=Msad, sigma=0.0, which="LM", tol=1e-9, v0=start)
    fields = np.zeros((space8.n_velocity, basis8.size))
    fields[I] = vecs[: len(I)]
    ref = EigenBasis(space8, vals, fields)
    assert np.array_equal(basis8.eigenvalues, ref.eigenvalues)
    assert np.array_equal(basis8.fields, ref.fields)


def _gram_schmidt(M, V):
    """Modified Gram-Schmidt in the M inner product, largest entry of each
    column made positive: the loop the Cholesky step replaced."""
    V = V.copy()
    for j in range(V.shape[1]):
        Mv = M @ V[:, j]
        for i in range(j):
            V[:, j] -= (V[:, i] @ Mv) * V[:, i]
            Mv = M @ V[:, j]
        V[:, j] /= np.sqrt(V[:, j] @ Mv)
        if V[np.argmax(np.abs(V[:, j])), j] < 0:
            V[:, j] *= -1.0
    return V


def test_orthonormalization_is_gram_schmidt(space8, basis8):
    # ARPACK-like input: near-orthonormal modes with arbitrary signs. The
    # Cholesky step and Gram-Schmidt in the same column order are one map in
    # exact arithmetic; in floating point they agree to roundoff
    rng = np.random.default_rng(4)
    signs = rng.choice([-1.0, 1.0], basis8.size)
    raw = basis8.fields * signs + 1e-8 * rng.standard_normal(basis8.fields.shape)
    raw[space8.boundary_vdofs] = 0.0
    ref = _gram_schmidt(space8.M, raw)
    got = EigenBasis(space8, basis8.eigenvalues, raw).fields
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_eigenvalues_positive_and_sorted(basis8):
    lam = basis8.eigenvalues
    assert lam[0] > 0
    assert np.all(np.diff(lam) >= -1e-12)


def test_rayleigh_quotients(basis8):
    assert basis8.rayleigh_residuals.max() <= 1e-8


def test_gram_identity(basis8):
    assert basis8.gram_residual <= 1e-10


def test_modes_divergence_free_and_boundary_zero(basis8, space8):
    for k in range(basis8.size):
        xi = basis8.fields[:, k]
        assert np.linalg.norm(space8.B @ xi) <= 1e-8
        assert np.abs(xi[space8.boundary_vdofs]).max() == 0.0


def test_lambda1_decreases_under_refinement():
    lams = []
    for n in (8, 16, 32):
        space = MixedSpace(build_rect_mesh(1, 1, n, n))
        lams.append(solve_stokes_eigen(space, 1).eigenvalues[0])
    assert lams[0] > lams[1] > lams[2]
    assert abs(lams[1] - lams[2]) / lams[2] <= 0.02


def test_expand_project_roundtrip(basis8):
    rng = np.random.default_rng(5)
    for _ in range(5):
        c = rng.standard_normal(basis8.size)
        back = basis8.project(basis8.expand(c))
        assert np.abs(back - c).max() <= 1e-12 * max(1.0, np.abs(c).max())


def test_project_single_mode(basis8):
    c = basis8.project(basis8.fields[:, 0])
    expect = np.zeros(basis8.size)
    expect[0] = 1.0
    assert np.abs(c - expect).max() <= 1e-12


def test_project_zero_field(basis8, space8):
    assert np.abs(basis8.project(np.zeros(space8.n_velocity))).max() == 0.0


def test_projection_error_nonincreasing_in_modes():
    space = MixedSpace(build_rect_mesh(1, 1, 16, 16))
    basis = solve_stokes_eigen(space, 40)

    def vort(x, y):
        sx, sy = x * (1 - x), y * (1 - y)
        return np.column_stack(
            [sx**2 * 2 * sy * (1 - 2 * y), -(sy**2) * 2 * sx * (1 - 2 * x)]
        )

    v0 = space.interpolate(vort)
    coeffs = basis.project(v0)
    errs = []
    for n in (5, 10, 20, 40):
        approx = basis.fields[:, :n] @ coeffs[:n]
        errs.append(space.norm(v0 - approx, "L2"))
    assert all(e2 <= e1 + 1e-14 for e1, e2 in zip(errs, errs[1:]))


def test_capacity_error():
    space = MixedSpace(build_rect_mesh(1, 1, 2, 2))
    cap = subspace_dimension(space)
    assert cap >= 1
    with pytest.raises(CapacityError):
        solve_stokes_eigen(space, cap + 1)
    with pytest.raises(ValueError):
        solve_stokes_eigen(space, 0)


@pytest.mark.parametrize("nx, ny", [(1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (1, 4), (2, 3),
                                    (3, 3)])
def test_subspace_dimension_is_the_rank_count(nx, ny):
    # the interior velocities less the dense rank of B on them; on a 1x1 mesh
    # B_I (4 x 2) has rank 2, not n_pressure - 1 = 3, and the subspace is {0}
    space = MixedSpace(build_rect_mesh(1.0, 1.0, nx, ny))
    I = space.interior_vdofs
    rank = np.linalg.matrix_rank(space.B[:, I].toarray())
    assert subspace_dimension(space) == len(I) - rank
    if (nx, ny) == (1, 1):
        assert (len(I), rank) == (2, 2)
        with pytest.raises(CapacityError, match="dimension 0$"):
            solve_stokes_eigen(space, 1)


def test_save_load_roundtrip(tmp_path, basis8, space8):
    path = tmp_path / "basis.npz"
    basis8.save(path)
    loaded = EigenBasis.load(path, space8)
    assert np.array_equal(loaded.eigenvalues, basis8.eigenvalues)
    assert np.array_equal(loaded.fields, basis8.fields)
    assert loaded.gram_residual <= 1e-10


def test_load_rejects_wrong_mesh(tmp_path, basis8):
    path = tmp_path / "basis.npz"
    basis8.save(path)
    other = MixedSpace(build_rect_mesh(1, 1, 4, 4))
    with pytest.raises(SolverError):
        EigenBasis.load(path, other)


def test_truncate_range(basis8):
    assert basis8.truncate(basis8.size).size == basis8.size
    assert basis8.truncate(1).size == 1
    for n in (0, -1, basis8.size + 1):
        with pytest.raises(ValueError):
            basis8.truncate(n)


def _recording_eigsh(calls):
    """eigsh that records the ncv of each call."""
    def recorded(*args, ncv=None, **kwargs):
        calls.append(ncv)
        return eigsh(*args, ncv=ncv, **kwargs)
    return recorded


@pytest.mark.parametrize("n, modes", [(4, 49), (4, 73), (2, 1), (2, 9), (16, 20)])
def test_eigsh_is_called_once_with_the_capped_default_basis(monkeypatch, n, modes):
    # ARPACK's default Lanczos basis fails (error -9999) from about 2/3 of the
    # dimension up (74 at 4^2) and at every N at 2x2 (dimension 10); capped at
    # the dimension it converges within criterion 06's bounds in one call. At
    # 16^2 (dimension 1634) the capped basis is the default, 2N + 1
    calls = []
    monkeypatch.setattr("recirc.eigenbasis.eigsh", _recording_eigsh(calls))
    space = MixedSpace(build_rect_mesh(1, 1, n, n))
    cap = subspace_dimension(space)
    basis = solve_stokes_eigen(space, modes)
    assert calls == [min(max(2 * modes + 1, 20), cap)]
    assert basis.size == modes
    assert basis.gram_residual <= 1e-10
    assert basis.rayleigh_residuals.max() <= 1e-8


def test_capped_basis_below_the_dimension_is_the_default_call(monkeypatch, space8, basis8):
    # where max(2N + 1, 20) is below the dimension, sizing the Lanczos basis
    # changes no bit of the basis against ARPACK's default call
    def default(*args, ncv=None, **kwargs):
        return eigsh(*args, **kwargs)

    monkeypatch.setattr("recirc.eigenbasis.eigsh", default)
    ref = solve_stokes_eigen(space8, basis8.size)
    assert np.array_equal(basis8.eigenvalues, ref.eigenvalues)
    assert np.array_equal(basis8.fields, ref.fields)


def test_mode_count_at_the_dimension_is_a_solver_error(monkeypatch):
    # refused before ARPACK runs: no eigsh call
    calls = []
    monkeypatch.setattr("recirc.eigenbasis.eigsh", _recording_eigsh(calls))
    space = MixedSpace(build_rect_mesh(1, 1, 2, 2))
    with pytest.raises(SolverError, match="N = 10 modes in a subspace of dimension 10"):
        solve_stokes_eigen(space, 10)
    assert calls == []


def test_one_arpack_failure_is_a_solver_error(monkeypatch):
    calls = []

    def failing(*args, ncv=None, **kwargs):
        calls.append(ncv)
        raise ArpackError(-9999)

    monkeypatch.setattr("recirc.eigenbasis.eigsh", failing)
    space = MixedSpace(build_rect_mesh(1, 1, 4, 4))
    with pytest.raises(SolverError, match="N = 12 modes in a subspace of dimension 74 "
                                          "with ncv = 25"):
        solve_stokes_eigen(space, 12)
    assert calls == [25]


@pytest.mark.parametrize("modes", [367, 368, 369])
def test_basis_off_its_rayleigh_quotients_is_a_solver_error(space8, modes):
    # at 8^2 (dimension 370) ARPACK returns N = 368 and 369 without an error,
    # their last eigenvalue (about 2.98e15) a mode of the singular pencil with
    # a Rayleigh residual of the same size; N = 367 is a true basis
    assert subspace_dimension(space8) == 370
    if modes == 367:
        basis = solve_stokes_eigen(space8, modes)
        assert (basis.rayleigh_residuals / basis.eigenvalues).max() <= RAYLEIGH_RTOL
    else:
        with pytest.raises(SolverError, match=f"mode {modes} of N = {modes} with lambda = "
                                              r"2\.98\d*e\+15"):
            solve_stokes_eigen(space8, modes)


def test_nonpositive_eigenvalue_names_its_mode():
    # at 7^2 (dimension 275) ARPACK returns N = 272 with a first eigenvalue
    # of about -4.76e15, the singular pencil's mode with the other sign
    space = MixedSpace(build_rect_mesh(1, 1, 7, 7))
    assert subspace_dimension(space) == 275
    with pytest.raises(SolverError, match=r"mode 1 of N = 272 with nonpositive lambda = "
                                          r"-4\.7\d*e\+15 in a subspace of dimension 275"):
        solve_stokes_eigen(space, 272)
