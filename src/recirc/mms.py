"""Manufactured solution for convergence verification.

The velocity is the curl of a smooth stream function vanishing to second
order on the boundary of the unit square, with a linear-in-time amplitude:

    psi(x, y, t) = a(t) psihat,  psihat = A P(x) P(y),  P(s) = s^2 (1-s)^2,
    a(t) = 1 + t/2,  v = a(t) vhat,  vhat = (d psihat / d y, -d psihat / d x),
    p = P0 sin(pi x) cos(pi y).

The field is exactly divergence free, vanishes on the boundary, and its
linear time dependence keeps the implicit-Euler time error far below the
spatial error being measured. The forcing that makes (v, p) solve the
closure-modified momentum equation,

    F = dv/dt + (grad v) v - div( 2 nu eps(v) + 2 nu_tur |eps(v)| eps(v) ) + grad p,

is, since |eps(a vhat)| = a |eps(vhat)| for a > 0 (t > -2), exactly the
polynomial F = F0 + a F1 + a^2 F2 in a with the time-independent parts

    F0 = vhat / 2 + grad p,
    F1 = -div 2 nu eps(vhat),
    F2 = (grad vhat) vhat - div 2 nu_tur |eps(vhat)| eps(vhat).

Every derivative of psihat is separable, d^i/dx^i d^j/dy^j psihat =
A P^(i)(x) P^(j)(y), so vhat, grad vhat and the strain derivatives are
products of the polynomial derivatives of P (`numpy.polynomial` coefficient
arrays). The closure part is pointwise: div(|e| e) = |e| div e + e grad|e|
with grad|e| = (e : grad e) / |e|, finite wherever the strain is nonzero.
The tests check these closed forms against a symbolic derivation.
`velocity` and `forcing` evaluate them at any (x, y, t); `FullSpaceSystem`
tabulates the parts once per space (`forcing_parts`) and then forms each
step's load from three load vectors.
"""

import weakref

import numpy as np
from numpy.polynomial import polynomial as poly

DEFAULT_AMPLITUDE = 8.0
DEFAULT_PRESSURE = 0.2

# P(s) = s^2 (1 - s)^2 and its first three derivatives
_P_DERIVS = [poly.polyder([0.0, 0.0, 1.0, -2.0, 1.0], k) for k in range(4)]


def _derivatives(s):
    """[P(s), P'(s), P''(s), P'''(s)]."""
    return [poly.polyval(s, c) for c in _P_DERIVS]


class ManufacturedSolution:
    """Closed-form (v, p, F) for given closure parameters."""

    def __init__(self, nu, nu_tur, amplitude=DEFAULT_AMPLITUDE,
                 pressure_amplitude=DEFAULT_PRESSURE):
        self.nu = float(nu)
        self.nu_tur = float(nu_tur)
        self.amplitude = float(amplitude)
        self.pressure_amplitude = float(pressure_amplitude)
        self._vhat_tables = weakref.WeakKeyDictionary()  # space -> vhat (nt, nq, 2)

    @staticmethod
    def time_factor(t):
        """The amplitude a(t) = 1 + t/2 of v = a vhat; the split needs a > 0."""
        a = 1.0 + 0.5 * t
        if not a > 0:
            raise ValueError(f"the forcing split needs a(t) = 1 + t/2 > 0, got t = {t}")
        return a

    def _vhat(self, x, y):
        """vhat = A (P(x) P'(y), -P'(x) P(y)) -> (..., 2)."""
        X, Y = _derivatives(x), _derivatives(y)
        A = self.amplitude
        return np.stack([A * X[0] * Y[1], -A * X[1] * Y[0]], axis=-1)

    def velocity(self, x, y, t):
        """Exact velocity a(t) vhat -> (n, 2)."""
        return self.time_factor(t) * self._vhat(x, y)

    def forcing_parts(self, x, y):
        """(F0, F1, F2) -> (n, 3, 2); finite everywhere the strain is nonzero."""
        X, Y = _derivatives(x), _derivatives(y)
        A = self.amplitude
        v0, v1 = A * X[0] * Y[1], -A * X[1] * Y[0]
        # grad vhat = [[e, g01], [g10, -e]], eps(vhat) = [[e, s], [s, -e]]
        e = A * X[1] * Y[1]
        g01, g10 = A * X[0] * Y[2], -A * X[2] * Y[0]
        s = 0.5 * (g01 + g10)
        e_x, e_y = A * X[2] * Y[1], A * X[1] * Y[2]
        s_x = 0.5 * A * (X[1] * Y[2] - X[3] * Y[0])
        s_y = 0.5 * A * (X[0] * Y[3] - X[2] * Y[1])
        div0, div1 = e_x + s_y, s_x - e_y  # div eps
        with np.errstate(invalid="ignore", divide="ignore"):
            mag = np.sqrt(2.0 * (e * e + s * s))
            mag_x = 2.0 * (e * e_x + s * s_x) / mag
            mag_y = 2.0 * (e * e_y + s * s_y) / mag
        # div(|e| e) = |e| div e + e grad|e|
        c0 = mag * div0 + e * mag_x + s * mag_y
        c1 = mag * div1 + s * mag_x - e * mag_y
        px, py = np.pi * x, np.pi * y
        p0 = np.pi * self.pressure_amplitude
        two_nu, two_nut = 2.0 * self.nu, 2.0 * self.nu_tur
        out = np.stack([
            0.5 * v0 + p0 * np.cos(px) * np.cos(py), 0.5 * v1 - p0 * np.sin(px) * np.sin(py),
            -two_nu * div0, -two_nu * div1,
            e * v0 + g01 * v1 - two_nut * c0, g10 * v0 - e * v1 - two_nut * c1,
        ], axis=-1).reshape(np.shape(e) + (3, 2))
        if not np.isfinite(out).all():
            # |eps| = 0 points: the closure term and its derivative vanish
            # there, so the offending contribution is zero
            raise FloatingPointError(
                "manufactured forcing hit a strain zero at a quadrature point"
            )
        return out

    def forcing(self, x, y, t):
        """Exact forcing F0 + a (F1 + a F2) -> (n, 2)."""
        F = self.forcing_parts(x, y)
        a = self.time_factor(t)
        return F[..., 0, :] + a * (F[..., 1, :] + a * F[..., 2, :])

    def initial_velocity(self, space):
        """Nodal interpolant of v(., 0) on a MixedSpace."""
        return space.interpolate(
            lambda xx, yy: self.velocity(xx, yy, 0.0)
        )

    def velocity_error(self, space, z, t):
        """L2 distance between a discrete field and the exact velocity
        a(t) vhat at t; vhat is tabulated at the quadrature points once per
        space."""
        vhat = self._vhat_tables.get(space)
        if vhat is None:
            vhat = space.sample(self._vhat)
            self._vhat_tables[space] = vhat
        diff = space.eval_values(z) - self.time_factor(t) * vhat
        return np.sqrt(space.integrate((diff * diff).sum(axis=-1)))
