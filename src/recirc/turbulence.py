"""Smagorinsky closure: strain, dissipation potential, stress, weak operators.

The potential is D(e) = nu [e:e] + (2/3) nu_tur [e:e]^(3/2); its strain
derivative is the stress Xi(e) = beta(e) e with beta(e) = 2 nu + 2 nu_tur |e|,
|e| = (e:e)^(1/2). The weak nonlinear operator is

    <A(z), xi> = int beta(eps(zeta_g + z)) eps(zeta_g + z) : eps(xi),

monotone with constant 2 nu in the strain seminorm (the strengthening that
is provable pointwise: (beta(e1)e1 - beta(e2)e2):(e1-e2) >= 2 nu |e1-e2|^2).

Convection is assembled in the skew-symmetric form

    c(w; u, eta) = 1/2 int [ (grad u  w) . eta - (grad eta  w) . u ],

whose self-pairing c(w; u, u) vanishes at coefficient level, so the discrete
energy balance reproduces the continuous cancellations even though discrete
fields are only approximately divergence free.
"""

import numpy as np


class ClosureParams:
    """Molecular viscosity nu > 0 [m^2/s] and turbulent coefficient nu_tur >= 0."""

    def __init__(self, nu, nu_tur=0.0):
        if not nu > 0:
            raise ValueError(f"nu must be positive, got {nu}")
        if nu_tur < 0:
            raise ValueError(f"nu_tur must be nonnegative, got {nu_tur}")
        self.nu = float(nu)
        self.nu_tur = float(nu_tur)

    def __repr__(self):
        return f"ClosureParams(nu={self.nu}, nu_tur={self.nu_tur})"


def sym_grad(grads):
    """Strain tables eps = sym grad from gradient tables (..., 2, 2).

    Bit for bit 0.5 (G + G^T): the diagonal is kept, since 0.5 (x + x) = x
    exactly, and the off-diagonal mean is formed once, without a transposed
    sum over the strided 2x2 axes.
    """
    eps = grads.copy()
    off = 0.5 * (grads[..., 0, 1] + grads[..., 1, 0])
    eps[..., 0, 1] = off
    eps[..., 1, 0] = off
    return eps


def strain_norm(eps):
    """|eps| = (eps:eps)^(1/2) of (..., 2, 2) tables.

    Bit for bit np.sqrt((eps * eps).sum(axis=(-2, -1))): the four squares are
    added in the order that reduction takes, without a reduction over the
    strided 2x2 axes.
    """
    e00, e01, e10, e11 = eps[..., 0, 0], eps[..., 0, 1], eps[..., 1, 0], eps[..., 1, 1]
    return np.sqrt(e00 * e00 + e01 * e01 + e10 * e10 + e11 * e11)


def potential_D(eps, params):
    """Dissipation potential D(eps); vectorized over leading axes."""
    ee = np.einsum("...ab,...ab->...", eps, eps)
    return params.nu * ee + (2.0 / 3.0) * params.nu_tur * ee**1.5


def beta(eps, params):
    """Effective viscosity beta(eps) = 2 nu + 2 nu_tur |eps|."""
    return 2.0 * params.nu + 2.0 * params.nu_tur * strain_norm(eps)


def stress(eps, params):
    """Stress Xi(eps) = beta(eps) eps = dD/deps."""
    return beta(eps, params)[..., None, None] * eps


def smagorinsky_load(space, eps_qpt, params, eps_mag=None):
    """Dual vector of the closure term: L_i = int 2 nu_tur |eps| eps : eps(phi_i);
    eps_mag is strain_norm(eps_qpt) when the caller already has it."""
    mag = strain_norm(eps_qpt) if eps_mag is None else eps_mag
    S = 2.0 * params.nu_tur * mag[..., None, None] * eps_qpt
    return space.stress_load_vector(S)


def apply_A(space, z, zeta_g, params, test):
    """<A(z), xi> for every test column xi: quadrature of the nonlinear form.

    Parameters
    ----------
    z, zeta_g : velocity coefficient vectors (test fields vanish on the boundary)
    test : (n_velocity, m) matrix of test-field columns

    Returns
    -------
    (m,) array of pairings int beta(eps(w)) eps(w) : eps(xi), w = zeta_g + z
    """
    w = z + zeta_g
    E = space.strain_samples(w)
    S = beta(E, params)[..., None, None] * E
    return space.stress_load_vector(S) @ test


def convection_load(space, w_vals, u_vals, u_grads):
    """Dual vector of the skew convection form c(w; u, .).

    L_i = 1/2 [ int ((grad u) w) . phi_i  -  int (grad phi_i  w) . u ].
    """
    f = (u_grads @ w_vals[..., None])[..., 0]
    first = space.load_vector(f)
    # second term: (grad phi_i w) . u = phi_(i,b) w_b u_a for component a
    S = u_vals[..., :, None] * w_vals[..., None, :]
    second = space.stress_load_vector(S)
    return 0.5 * (first - second)


def convect(space, w, u, test):
    """Skew convection pairings c(w; u, xi) for every test column xi."""
    w_vals = space.eval_values(w)
    u_vals = space.eval_values(u)
    u_grads = space.eval_grads(u)
    return convection_load(space, w_vals, u_vals, u_grads) @ test
