"""Divergence-free trace lifting by steady Stokes solves.

For each pump trace psi_k, solve the homogeneous Stokes system with the
symmetric-gradient form and boundary data psi_k imposed strongly:

    2 nu (eps(zeta), eps(eta)) - (p, div eta) = 0   for interior test eta,
    (q, div zeta) = 0, zeta = psi_k on the boundary, mean(p) = 0.

The symmetric-gradient form makes the lifted fields orthogonal to every
discretely divergence-free boundary-zero field in the 2 nu (eps, eps) inner
product, which is what removes the viscous lifting term from the reduced
equations. The time-dependent lift is the schedule-weighted combination
zeta_g(t) = sum_k g_k(t) zeta_k. `LiftData` tabulates it, its rate and H_g
at the quadrature points, the quadrature form against which the reduced
system's modal H_g and the energy ledger's Gram forms are checked; a source's
values there come from the source's own parts table (`recirc.mms`), never
from sampling it.
"""

import numpy as np
from scipy.sparse.linalg import splu

from .errors import CompatibilityError, SolverError
from .space import SADDLE_LU


class LiftingBasis:
    """Per-pump Stokes lifts: velocity fields, pressures, solve residuals. The
    lift at rates g is the coefficient vector `combine(g)`, its only form."""

    def __init__(self, space, zetas, pressures, residuals):
        self.space = space
        # every table has a leading pump axis of length K, K = 0 included
        K = len(zetas)
        self.zetas = np.array(zetas, dtype=float).reshape(K, space.n_velocity)
        self.pressures = np.array(pressures, dtype=float).reshape(K, space.n_pressure)
        self.residuals = np.asarray(residuals)

    def __len__(self):
        return len(self.zetas)

    def combine(self, weights):
        """Coefficient-level combination sum_k w_k zeta_k."""
        return weights @ self.zetas


def _stokes_lu(space, A):
    """LU of the pinned Stokes saddle matrix for the velocity stiffness A."""
    try:
        return splu(space.saddle_matrix(A), **SADDLE_LU)
    except RuntimeError as exc:
        raise SolverError(f"Stokes saddle factorization failed: {exc}") from exc


def stokes_operator(space, nu):
    """(A, A_B, lu) that every lift on one space at one nu shares: the
    velocity stiffness A = nu K_eps, its boundary columns A_B and the LU of
    the pinned saddle matrix of A."""
    A = (nu * space.K_eps).tocsr()
    return A, A[:, space.boundary_vdofs], _stokes_lu(space, A)


def solve_stokes_lift(space, psi, operator):
    """Solve the Stokes lift for one trace field on `operator`, the
    `stokes_operator(space, nu)` that carries nu; returns (zeta, p,
    residual). The pressure p has zero mean. Raises CompatibilityError if
    the trace has net discrete flux above 1e-8.
    """
    net = float(space.flux_vector @ psi)
    scale = max(1.0, float(np.abs(psi).max()))
    if abs(net) > 1e-8 * scale:
        raise CompatibilityError(
            f"trace field has net boundary flux {net:.3e}; Stokes lift unsolvable"
        )
    A, A_B, lu = operator
    Bd = space.boundary_vdofs
    psi_B = psi[Bd]
    zeta, p = space.saddle_solve(lu, -(A_B @ psi_B), -(space.B[:, Bd] @ psi_B))
    zeta[Bd] = psi_B

    res_mom = (A @ zeta + space.B.T @ p)[space.interior_vdofs]
    res_div = space.B @ zeta
    residual = float(np.sqrt(res_mom @ res_mom + res_div @ res_div))
    if not np.isfinite(residual) or residual > 1e-6 * max(1.0, abs(psi_B).max()):
        raise SolverError(f"Stokes lift residual {residual:.3e} out of tolerance")
    return zeta, p, residual


def build_lifting(space, pumps, nu):
    """Lift every pump trace of a PumpSet; one operator and factorization, K solves."""
    operator = stokes_operator(space, nu) if len(pumps) else None
    zetas, pressures, residuals = [], [], []
    for pump in pumps.pumps:
        z, p, r = solve_stokes_lift(space, pump.psi, operator)
        zetas.append(z)
        pressures.append(p)
        residuals.append(r)
    return LiftingBasis(space, zetas, pressures, residuals)


def convective_qpt(vals, grads):
    """(grad u) u at quadrature points from (values, gradients)."""
    return np.einsum("cqab,cqb->cqa", grads, vals)


class LiftData:
    """Quadrature-point lift data at one time t, the quadrature form of H_g.

    Quadrature-point tables (nt, nq, ...) of zeta_g(t) and d zeta_g/dt(t)
    (values and gradients of `LiftingBasis.combine` at g(t) and gdot(t)),
    H~_g = F - d zeta_g/dt and H_g = H~_g - (grad zeta_g) zeta_g, with F
    formed by the source's `combine` on its `parts_table`. Its dual
    vector (H_g, phi_i) is `space.load_vector(h)`; the reduced system pairs
    H_g with its modes from offline tables and the rates g(t) alone.
    """

    __slots__ = ("zg_vals", "zg_grads", "dzg_vals", "dzg_grads", "h_tilde", "h")

    def __init__(self, lb, pumps, source, t):
        space = lb.space
        zg, dzg = (lb.combine(r) for r in pumps.rates(t))
        self.zg_vals, self.zg_grads = space.eval_values(zg), space.eval_grads(zg)
        self.dzg_vals, self.dzg_grads = space.eval_values(dzg), space.eval_grads(dzg)
        source_vals = (np.zeros_like(self.zg_vals) if source is None
                       else source.combine(source.parts_table(space), t))
        self.h_tilde = source_vals - self.dzg_vals
        self.h = self.h_tilde - convective_qpt(self.zg_vals, self.zg_grads)


def compute_Hg_load(lb, pumps, source, t):
    """LiftData at t: the quadrature-point tables of
    H_g = F - d zeta_g/dt - grad zeta_g zeta_g and of its parts."""
    return LiftData(lb, pumps, source, t)
