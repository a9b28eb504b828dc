"""Smagorinsky closure and skew convection at quadrature points.

The closure stress is 2 nu_tur |e| e, |e| = (e:e)^(1/2), the strain
derivative of the convex potential (2/3) nu_tur [e:e]^(3/2). Added to the
molecular stress 2 nu e it keeps the weak operator monotone, with constant
2 nu in the strain seminorm. Its tangent is

    2 nu_tur (|e| I + e (x) e / |e|) = 2 (w I + a e (x) e),

with the weights w = nu_tur |e| and a = nu_tur / |e|. `closure_scale`
writes the stress's scalar 2 nu_tur w_q |e|, with a quadrature weight
folded in, and `closure_tangent` the tangent's weights; neither is written
anywhere else. `smagorinsky_load` multiplies the scalar at w_q = 1 into the
strain tables and hands the stress to `MixedSpace.stress_load_vector`, the
one quadrature-point stress load. The reduced closure and the full-space
system each form `closure_scale` at |e| = 1 once, the weights
2 nu_tur w_q. The reduced closure multiplies them into its |e| and the
result into its strain planes (e00, e01, e11), each in place and bit for
bit the scalar's product; its implicit step reads the tangent's weights.
The full-space nonlinear load multiplies them into its |e| and the result,
with the Picard shift's part, into its strain planes. For symmetric
tensors |e| = (e00^2 + 2 e01^2 + e11^2)^(1/2) (`sym_norm`).

Convection is assembled in the skew-symmetric form

    c(w; u, eta) = 1/2 int [ (grad u  w) . eta - (grad eta  w) . u ],

whose self-pairing c(w; u, u) vanishes at coefficient level, so the discrete
energy balance reproduces the continuous cancellations even though discrete
fields are only approximately divergence free. `convection_tables` writes
its body force and stress, which `convection_load` hands to
`MixedSpace.load_vector` and `stress_load_vector`.
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
    """Strain tables eps = sym grad of gradient tables (..., 2, 2), in either
    index order, written over `grads`, which is returned: a caller that
    reads its gradients again passes a copy.

    Bit for bit 0.5 (G + G^T): the diagonal is kept, since 0.5 (x + x) = x
    exactly, and the off-diagonal mean is formed once, without a transposed
    sum over the strided 2x2 axes.
    """
    off = 0.5 * (grads[..., 0, 1] + grads[..., 1, 0])
    grads[..., 0, 1] = off
    grads[..., 1, 0] = off
    return grads


def strain_norm(eps):
    """|eps| = (eps:eps)^(1/2) of (..., 2, 2) tables.

    Bit for bit np.sqrt((eps * eps).sum(axis=(-2, -1))): the four squares are
    added in the order that reduction takes, without a reduction over the
    strided 2x2 axes.
    """
    e00, e01, e10, e11 = eps[..., 0, 0], eps[..., 0, 1], eps[..., 1, 0], eps[..., 1, 1]
    return np.sqrt(e00 * e00 + e01 * e01 + e10 * e10 + e11 * e11)


def planes(eps):
    """The planes (e00, e01, e11) of symmetric tables eps (..., 2, 2)."""
    return eps[..., 0, 0], eps[..., 0, 1], eps[..., 1, 1]


def sym_norm(e00, e01, e11):
    """|e| = (e00^2 + 2 e01^2 + e11^2)^(1/2) of symmetric tensors given by
    their planes, e10 = e01.

    Bit for bit np.sqrt(e00 * e00 + 2.0 * (e01 * e01) + e11 * e11), in that
    order of operations, on two tables of the planes' shape: the squares
    and sums are taken in place. Numpy scalars, which take no out=, get
    the same operations out of place.
    """
    mag = e00 * e00
    t = e01 * e01
    t *= 2.0
    mag += t
    if not isinstance(mag, np.ndarray):
        return np.sqrt(mag + e11 * e11)
    mag += np.multiply(e11, e11, out=t)
    return np.sqrt(mag, out=mag)


def closure_scale(weights, mag, params):
    """The closure stress's scalar 2 nu_tur weights |e|, of which the stress
    is the product with e. At mag = 1.0 it is the weights 2 nu_tur weights
    exactly, and their product with |e| is bit for bit the scalar at |e|:
    the reduced closure and the full-space system form them once and
    multiply |e| by them."""
    return 2.0 * params.nu_tur * weights * mag


def closure_tangent(mag, params):
    """Weights (nu_tur |e|, nu_tur / |e|) of the closure tangent
    2 (w I + a e (x) e) at strain norms mag; a is 0 where |e| = 0."""
    nu_tur = params.nu_tur
    return nu_tur * mag, np.divide(nu_tur, mag, out=np.zeros_like(mag), where=mag > 0)


def smagorinsky_load(space, eps_qpt, params):
    """Dual vector of the closure term: L_i = int 2 nu_tur |eps| eps : eps(phi_i),
    the stress load of 2 nu_tur |eps| eps at the strain tables eps_qpt."""
    scale = closure_scale(1.0, sym_norm(*planes(eps_qpt)), params)
    return space.stress_load_vector(scale[..., None, None] * eps_qpt)


def convection_tables(w_vals, u_vals, u_grads):
    """Body-force and stress tables (f, S) of the skew convection form,
    c(w; u, phi) = int f . phi + S^T : grad phi, with

        f = 1/2 (grad u) w,   S = -1/2 w (x) u,

    S in the [b, a] layout that `stress_load_vector` reads (S^T = -1/2 u (x) w
    is the stress of the usual [a, b] layout), u_grads in [a, b] = d u_a/d x_b:
    bit for bit the halves of (grad u) w and w (x) u, since 1/2 scales w
    exactly. f's 2x2 products are written out, several times faster than a
    batched (2,2) @ (2,1) matmul over the point tables.
    """
    h = 0.5 * w_vals
    f = np.empty(u_grads.shape[:-1])
    f[..., 0] = u_grads[..., 0, 0] * h[..., 0] + u_grads[..., 0, 1] * h[..., 1]
    f[..., 1] = u_grads[..., 1, 0] * h[..., 0] + u_grads[..., 1, 1] * h[..., 1]
    return f, -h[..., :, None] * u_vals[..., None, :]


def convection_load(space, w_vals, u_vals, u_grads):
    """Dual vector of the skew convection form c(w; u, .).

    L_i = 1/2 [ int ((grad u) w) . phi_i  -  int (grad phi_i  w) . u ].
    """
    f, S = convection_tables(w_vals, u_vals, u_grads)
    return space.load_vector(f) + space.stress_load_vector(S)
