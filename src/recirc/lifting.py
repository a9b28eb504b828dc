"""Divergence-free trace lifting by steady Stokes solves.

For each pump trace psi_k, solve the homogeneous Stokes system with the
symmetric-gradient form and boundary data psi_k imposed strongly:

    2 nu (eps(zeta), eps(eta)) - (p, div eta) = 0   for interior test eta,
    (q, div zeta) = 0, zeta = psi_k on the boundary, mean(p) = 0.

The symmetric-gradient form makes the lifted fields orthogonal to every
discretely divergence-free boundary-zero field in the 2 nu (eps, eps) inner
product, which is what removes the viscous lifting term from the reduced
equations. The time-dependent lift is the schedule-weighted combination
zeta_g(t) = sum_k g_k(t) zeta_k.
"""

import numpy as np
from scipy.sparse.linalg import splu

from .errors import CompatibilityError, SolverError


class LiftingBasis:
    """Per-pump Stokes lifts: velocity fields, pressures, solve residuals."""

    def __init__(self, space, nu, zetas, pressures, residuals):
        self.space = space
        self.nu = nu
        # every table has a leading pump axis of length K, K = 0 included
        K, nt, nq = len(zetas), space.mesh.num_cells, len(space.rule)
        self.zetas = np.array(zetas, dtype=float).reshape(K, space.n_velocity)
        self.pressures = np.array(pressures, dtype=float).reshape(K, space.n_pressure)
        self.residuals = np.asarray(residuals)
        # quadrature-point tabulations combined into the tables of LiftData
        self.vals = np.array([space.eval_values(z) for z in self.zetas]).reshape(K, nt, nq, 2)
        self.grads = np.array([space.eval_grads(z) for z in self.zetas]).reshape(K, nt, nq, 2, 2)

    def __len__(self):
        return len(self.zetas)

    def combine(self, weights):
        """Coefficient-level combination sum_k w_k zeta_k."""
        return weights @ self.zetas

    def combine_qpt(self, weights):
        """(values, gradients) of sum_k w_k zeta_k at quadrature points."""
        v = np.einsum("k,kcqa->cqa", weights, self.vals)
        g = np.einsum("k,kcqab->cqab", weights, self.grads)
        return v, g


def _stokes_lu(space, A):
    """LU of the pinned Stokes saddle matrix for the velocity stiffness A."""
    I = space.interior_vdofs
    try:
        return splu(space.saddle_matrix(A[I][:, I]))
    except RuntimeError as exc:
        raise SolverError(f"Stokes saddle factorization failed: {exc}") from exc


def solve_stokes_lift(space, psi, nu, lu=None):
    """Solve the Stokes lift for one trace field; returns (zeta, p, residual).

    The pressure p has zero mean. Raises CompatibilityError if the trace has
    net discrete flux above 1e-8.
    """
    net = float(space.flux_vector @ psi)
    scale = max(1.0, float(np.abs(psi).max()))
    if abs(net) > 1e-8 * scale:
        raise CompatibilityError(
            f"trace field has net boundary flux {net:.3e}; Stokes lift unsolvable"
        )
    I = space.interior_vdofs
    Bd = space.boundary_vdofs
    A = (nu * space.K_eps).tocsr()
    psi_B = psi[Bd]
    rhs = space.saddle_rhs(-(A[I][:, Bd] @ psi_B), -(space.B[:, Bd] @ psi_B))
    if lu is None:
        lu = _stokes_lu(space, A)
    zeta = np.zeros(space.n_velocity)
    zeta[I], p = space.saddle_split(lu.solve(rhs))
    zeta[Bd] = psi_B

    res_mom = (A @ zeta + space.B.T @ p)[I]
    res_div = space.B @ zeta
    residual = float(np.sqrt(res_mom @ res_mom + res_div @ res_div))
    if not np.isfinite(residual) or residual > 1e-6 * max(1.0, abs(psi_B).max()):
        raise SolverError(f"Stokes lift residual {residual:.3e} out of tolerance")
    return zeta, p, residual


def build_lifting(space, pumps, nu):
    """Lift every pump trace of a PumpSet; one factorization, K solves."""
    lu = _stokes_lu(space, (nu * space.K_eps).tocsr()) if len(pumps) else None
    zetas, pressures, residuals = [], [], []
    for pump in pumps.pumps:
        z, p, r = solve_stokes_lift(space, pump.psi, nu, lu=lu)
        zetas.append(z)
        pressures.append(p)
        residuals.append(r)
    return LiftingBasis(space, nu, zetas, pressures, residuals)


def convective_qpt(vals, grads):
    """(grad u) u at quadrature points from (values, gradients)."""
    return np.einsum("cqab,cqb->cqa", grads, vals)


class LiftData:
    """Quadrature-point lift data at one time t, read by the energy ledger.

    Quadrature-point tables (nt, nq, ...) of zeta_g(t) and d zeta_g/dt(t)
    (values and gradients), H~_g = F - d zeta_g/dt and
    H_g = H~_g - (grad zeta_g) zeta_g. Its dual vector (H_g, phi_i) is
    `space.load_vector(h)`; the reduced system pairs H_g with its modes
    from offline tables and the rates g(t) alone.
    """

    __slots__ = ("zg_vals", "zg_grads", "dzg_vals", "dzg_grads", "h_tilde", "h")

    def __init__(self, lb, pumps, source, t):
        g, gdot = pumps.rates(t)
        self.zg_vals, self.zg_grads = lb.combine_qpt(g)
        self.dzg_vals, self.dzg_grads = lb.combine_qpt(gdot)
        source_vals = np.zeros_like(self.zg_vals) if source is None else lb.space.sample(source, t)
        self.h_tilde = source_vals - self.dzg_vals
        self.h = self.h_tilde - convective_qpt(self.zg_vals, self.zg_grads)


def compute_Hg_load(lb, pumps, source, t):
    """LiftData at t: the quadrature-point tables of
    H_g = F - d zeta_g/dt - grad zeta_g zeta_g and of its parts."""
    return LiftData(lb, pumps, source, t)
