"""Discrete Stokes eigenbasis: divergence-free, boundary-zero, L2-orthonormal.

The generalized symmetric eigenproblem K_grad x = lambda M x is solved on
the discretely divergence-free boundary-zero subspace by keeping the
velocity-pressure saddle form (pressure DOF 0 pinned) and discarding
pressure; the pencil is handled by shift-invert Lanczos with the singular
velocity-only mass, the standard route for constrained pencils.

The eigensolver hands `MixedSpace.pinned_saddle(K_grad)`, in its natural
unknown order (velocities, then pressures), to scipy's shift-invert, which
factors it with COLAMD; it does not use `saddle_matrix` and its
nested-dissection order. The Stokes eigenvalues come in exactly degenerate
pairs and clusters, where any roundoff change of the factor rotates the
Lanczos vectors inside the cluster: on the 32x32 pumps config the N = 40
mode sits in such a pair, so a different order moves the reduced solution
far beyond roundoff. Keeping this matrix and its factorization fixed keeps
the basis bit for bit.
"""

from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_triangular
from scipy.sparse.linalg import ArpackError, eigsh

from .errors import CapacityError, SolverError

EIGEN_TOL = 1e-9  # ARPACK's relative eigenvalue tolerance
# largest |x^T K_grad x / x^T M x - lambda| / lambda a returned mode may have
RAYLEIGH_RTOL = 1e-8


class EigenBasis:
    """Stokes eigenpairs (lambda_n, xi_n), M-orthonormal velocity columns.

    Attributes
    ----------
    eigenvalues : (N,) ascending positive eigenvalues
    fields : (n_velocity, N) mode coefficient columns
    gram_residual : max |Xi^T M Xi - I|
    rayleigh_residuals : |x^T K_grad x / x^T M x - lambda| per mode

    The two residuals are formed on first read. `solve_stokes_eigen` reads
    the Rayleigh residuals of every basis it returns, and `recirc eigen`
    writes that same cached array; the Gram residual is read by `recirc
    eigen` and the tests alone, and a truncated basis forms neither.
    """

    def __init__(self, space, eigenvalues, fields):
        self.space = space
        order = np.argsort(eigenvalues)
        self.eigenvalues = np.asarray(eigenvalues)[order]
        self.fields = np.asarray(fields)[:, order]
        self._orthonormalize()

    @classmethod
    def _of(cls, space, eigenvalues, fields):
        """Basis over sorted, orthonormal modes as given (no re-orthonormalization)."""
        basis = cls.__new__(cls)
        basis.space, basis.eigenvalues, basis.fields = space, eigenvalues, fields
        return basis

    @cached_property
    def gram_residual(self):
        G = self.fields.T @ (self.space.M @ self.fields)
        return float(np.abs(G - np.eye(self.size)).max())

    @cached_property
    def rayleigh_residuals(self):
        num = np.einsum("ik,ik->k", self.fields, self.space.K_grad @ self.fields)
        den = np.einsum("ik,ik->k", self.fields, self.space.M @ self.fields)
        return np.abs(num / den - self.eigenvalues)

    def _orthonormalize(self):
        # one Cholesky step in the M inner product, V <- V L^-T with
        # V^T M V = L L^T: the modified Gram-Schmidt map in the same column
        # order, so no mode turns inside a degenerate pair. ARPACK vectors are
        # already near-orthonormal; this tightens the Gram residual to roundoff
        V = self.fields
        L = np.linalg.cholesky(V.T @ (self.space.M @ V))
        V = np.ascontiguousarray(solve_triangular(L, V.T, lower=True).T)
        # sign convention: the largest entry of each mode is positive
        V *= np.where(V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])] < 0, -1.0, 1.0)
        self.fields = V

    @property
    def size(self):
        return self.fields.shape[1]

    def truncate(self, n):
        """Basis of the first n modes, 1 <= n <= size; shares this basis's
        field storage."""
        if not 1 <= n <= self.size:
            raise ValueError(f"cannot truncate a {self.size}-mode basis to {n} modes")
        return self._of(self.space, self.eigenvalues[:n], self.fields[:, :n])

    def expand(self, coeffs):
        """Velocity coefficient vector of sum_k c_k xi_k."""
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.size,):
            raise ValueError(
                f"coefficient length {coeffs.shape} does not match basis size {self.size}"
            )
        return self.fields @ coeffs

    def project(self, v):
        """M-orthogonal projection coefficients of a velocity field."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.space.n_velocity,):
            raise ValueError("field length does not match the velocity space")
        return self.fields.T @ (self.space.M @ v)

    def save(self, path):
        np.savez_compressed(
            path,
            eigenvalues=self.eigenvalues,
            fields=self.fields,
            fingerprint=np.frombuffer(
                self.space.mesh.fingerprint().encode(), dtype=np.uint8
            ),
        )

    @classmethod
    def load(cls, path, space):
        data = np.load(path)
        stored = bytes(data["fingerprint"]).decode()
        if stored != space.mesh.fingerprint():
            raise SolverError(
                "stored eigenbasis belongs to a different mesh (fingerprint mismatch)"
            )
        return cls._of(space, data["eigenvalues"], data["fields"])


def subspace_dimension(space):
    """Dimension of the discretely divergence-free boundary-zero subspace,
    len(I) - rank(B_I) with rank(B_I) = n_pressure - 1. On a 1x1 mesh B_I
    has 2 columns and rank 2, so the count 2 - 3 = -1 is clamped at the
    true dimension 0."""
    return max(len(space.interior_vdofs) - (space.n_pressure - 1), 0)


def solve_stokes_eigen(space, n_modes):
    """First n_modes Stokes eigenpairs on the constrained subspace.

    Raises CapacityError for more modes than the subspace dimension, and
    SolverError when ARPACK fails, when n_modes equals the dimension
    (ARPACK needs ncv > n_modes), or when a returned mode's eigenvalue is
    nonpositive or its Rayleigh quotient misses its eigenvalue by more than
    RAYLEIGH_RTOL relative: next to the dimension ARPACK can return a mode
    of the singular pencil without an error. Both messages name the mode,
    N and the eigenvalue.
    """
    cap = subspace_dimension(space)
    if n_modes < 1:
        raise ValueError(f"mode count must be >= 1, got {n_modes}")
    if n_modes > cap:
        raise CapacityError(
            f"requested {n_modes} modes but the constrained subspace has dimension {cap}"
        )
    # ARPACK's default Lanczos basis, capped at the dimension on which the
    # shift-invert operator acts (uncapped, it fails from about 2/3 of it up);
    # below the cap this is the default call, bit for bit
    ncv = min(max(2 * n_modes + 1, 20), cap)
    if ncv <= n_modes:  # eigsh needs ncv > N
        raise SolverError(
            f"Stokes eigensolver cannot find N = {n_modes} modes in a subspace of "
            f"dimension {cap}: ARPACK needs N < {cap}"
        )
    I = space.interior_vdofs
    M_II = space.M.tocsr()[I][:, I]
    A = space.pinned_saddle(space.K_grad)  # unordered on purpose: see the module docstring
    npr = A.shape[0] - len(I)
    Msad = sp.bmat(
        [[M_II, None], [None, sp.csr_matrix((npr, npr))]], format="csc"
    )
    # deterministic Lanczos start: reruns give the same rotation within
    # degenerate eigenvalue clusters, keeping outputs bit-reproducible
    start = np.sin(np.arange(1, A.shape[0] + 1, dtype=float))
    try:
        vals, vecs = eigsh(A, k=n_modes, M=Msad, sigma=0.0, which="LM", tol=EIGEN_TOL,
                           v0=start, ncv=ncv)
    except ArpackError as exc:
        raise SolverError(
            f"Stokes eigensolver failed for N = {n_modes} modes in a subspace of "
            f"dimension {cap} with ncv = {ncv}: {exc}"
        ) from exc
    fields = np.zeros((space.n_velocity, n_modes))
    fields[I] = vecs[: len(I)]
    basis = EigenBasis(space, vals, fields)
    k = int(np.argmin(basis.eigenvalues))
    if not basis.eigenvalues[k] > 0:
        raise SolverError(f"Stokes eigensolver returned mode {k + 1} of N = {n_modes} with "
                          f"nonpositive lambda = {basis.eigenvalues[k]:.6e} in a subspace of "
                          f"dimension {cap}")
    rel = basis.rayleigh_residuals / basis.eigenvalues
    k = int(np.argmax(rel))
    if not rel[k] <= RAYLEIGH_RTOL:
        raise SolverError(f"Stokes eigensolver returned mode {k + 1} of N = {n_modes} with lambda "
                          f"= {basis.eigenvalues[k]:.6e} and Rayleigh residual "
                          f"{basis.rayleigh_residuals[k]:.3e}, {rel[k]:.1e} relative")
    return basis
