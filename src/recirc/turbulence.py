"""Smagorinsky closure and skew convection at quadrature points.

The closure stress is 2 nu_tur |e| e, |e| = (e:e)^(1/2), the strain
derivative of the convex potential (2/3) nu_tur [e:e]^(3/2). Added to the
molecular stress 2 nu e it keeps the weak operator monotone, with constant
2 nu in the strain seminorm. Its tangent is

    2 nu_tur (|e| I + e (x) e / |e|) = 2 (w I + a e (x) e),

with the weights w = nu_tur |e| and a = nu_tur / |e|. `closure_stress` and
`closure_tangent` are that pointwise pair, the only place either is written;
`smagorinsky_load`, the full-space nonlinear load and the implicit step's
tangent read them.

Convection is assembled in the skew-symmetric form

    c(w; u, eta) = 1/2 int [ (grad u  w) . eta - (grad eta  w) . u ],

whose self-pairing c(w; u, u) vanishes at coefficient level, so the discrete
energy balance reproduces the continuous cancellations even though discrete
fields are only approximately divergence free. `convection_tables` writes
its pointwise products once, for `convection_load` and for the full-space
load, which adds its convection stress to the closure stress before one
stress assembly.
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


def closure_stress(eps, mag, params):
    """Smagorinsky stress 2 nu_tur |e| e of strain tables eps (..., 2, 2),
    with mag = strain_norm(eps)."""
    return 2.0 * params.nu_tur * mag[..., None, None] * eps


def closure_tangent(mag, params):
    """Weights (nu_tur |e|, nu_tur / |e|) of the closure tangent
    2 (w I + a e (x) e) at strain norms mag; a is 0 where |e| = 0."""
    nu_tur = params.nu_tur
    return nu_tur * mag, np.divide(nu_tur, mag, out=np.zeros_like(mag), where=mag > 0)


def smagorinsky_load(space, eps_qpt, params, eps_mag=None):
    """Dual vector of the closure term: L_i = int 2 nu_tur |eps| eps : eps(phi_i);
    eps_mag is strain_norm(eps_qpt) when the caller already has it."""
    mag = strain_norm(eps_qpt) if eps_mag is None else eps_mag
    return space.stress_load_vector(closure_stress(eps_qpt, mag, params))


def convection_tables(w_vals, u_vals, u_grads):
    """Body-force and stress tables (f, S) of the skew convection form,
    c(w; u, phi) = int f . phi + S : grad phi, with

        f = 1/2 (grad u) w,   S = -1/2 u (x) w.

    The 2x2 products are written out component by component, several times
    faster than a batched (2,2) @ (2,1) matmul or a broadcast outer product
    over the point tables. The 1/2 is applied to w first: a power of two
    scales every product exactly, so f and S are bit for bit the halves of
    (grad u) w and u (x) w.
    """
    h0, h1 = 0.5 * w_vals[..., 0], 0.5 * w_vals[..., 1]
    f = np.empty(u_grads.shape[:-1])
    f[..., 0] = u_grads[..., 0, 0] * h0 + u_grads[..., 0, 1] * h1
    f[..., 1] = u_grads[..., 1, 0] * h0 + u_grads[..., 1, 1] * h1
    # (grad phi_i w) . u = phi_(i,b) w_b u_a for component a
    m0, m1 = -h0, -h1
    S = np.empty(u_vals.shape + (2,))
    for a in range(2):
        S[..., a, 0] = u_vals[..., a] * m0
        S[..., a, 1] = u_vals[..., a] * m1
    return f, S


def convection_load(space, w_vals, u_vals, u_grads):
    """Dual vector of the skew convection form c(w; u, .).

    L_i = 1/2 [ int ((grad u) w) . phi_i  -  int (grad phi_i  w) . u ].
    """
    f, S = convection_tables(w_vals, u_vals, u_grads)
    return space.load_vector(f) + space.stress_load_vector(S)


def convect(space, w, u, test):
    """Skew convection pairings c(w; u, xi) for every test column xi."""
    w_vals = space.eval_values(w)
    u_vals = space.eval_values(u)
    u_grads = space.eval_grads(u)
    return convection_load(space, w_vals, u_vals, u_grads) @ test
