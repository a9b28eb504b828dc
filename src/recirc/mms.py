"""Manufactured solution for convergence verification.

The velocity is the curl of a smooth stream function vanishing to second
order on the boundary of the unit square, with a linear-in-time amplitude:

    psi(x, y, t) = a(t) psihat,  psihat = A [x (1-x) y (1-y)]^2,  a(t) = 1 + t/2,
    v = a(t) vhat,  vhat = (d psihat / d y, -d psihat / d x),
    p = P sin(pi x) cos(pi y).

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

vhat and the parts are derived symbolically and lambdified once per
parameter set; no value in them is hand-written. `velocity` and `forcing`
evaluate them at any (x, y, t); `FullSpaceSystem` tabulates the parts once
per space (`forcing_parts`) and then forms each step's load from three load
vectors.
"""

import weakref

import numpy as np
import sympy as sym

DEFAULT_AMPLITUDE = 8.0
DEFAULT_PRESSURE = 0.2


class ManufacturedSolution:
    """Closed-form (v, p, F) for given closure parameters."""

    def __init__(self, nu, nu_tur, amplitude=DEFAULT_AMPLITUDE,
                 pressure_amplitude=DEFAULT_PRESSURE):
        self.nu = float(nu)
        self.nu_tur = float(nu_tur)
        self.amplitude = float(amplitude)
        self.pressure_amplitude = float(pressure_amplitude)
        self._build()

    def _build(self):
        x, y = sym.symbols("x y", real=True)
        psi = self.amplitude * (x * (1 - x) * y * (1 - y)) ** 2
        v = sym.Matrix([sym.diff(psi, y), -sym.diff(psi, x)])
        p = self.pressure_amplitude * sym.sin(sym.pi * x) * sym.cos(sym.pi * y)

        G = v.jacobian([x, y])  # G[a, b] = d vhat_a / d x_b
        E = (G + G.T) / 2
        mag = sym.sqrt(E[0, 0] ** 2 + 2 * E[0, 1] ** 2 + E[1, 1] ** 2)

        def div(S):
            return sym.Matrix([sym.diff(S[a, 0], x) + sym.diff(S[a, 1], y) for a in (0, 1)])

        # the viscosities multiply after differentiation: a float factor
        # distributes over a sum, and differentiating the spread-out sum is slower
        F0 = v / 2 + sym.Matrix([sym.diff(p, x), sym.diff(p, y)])
        F1 = -2 * self.nu * div(E)
        F2 = G * v - 2 * self.nu_tur * div(mag * E)
        mods = ["numpy"]
        self._vhat = sym.lambdify((x, y), list(v), modules=mods, cse=True)
        self._parts = sym.lambdify((x, y), [*F0, *F1, *F2], modules=mods, cse=True)
        self._vhat_tables = weakref.WeakKeyDictionary()  # space -> vhat (nt, nq, 2)

    @staticmethod
    def time_factor(t):
        """The amplitude a(t) = 1 + t/2 of v = a vhat; the split needs a > 0."""
        a = 1.0 + 0.5 * t
        if not a > 0:
            raise ValueError(f"the forcing split needs a(t) = 1 + t/2 > 0, got t = {t}")
        return a

    @staticmethod
    def _table(f, x, y, width):
        x = np.asarray(x, dtype=float)
        vals = np.broadcast_arrays(x, *f(x, y))[1:]  # a constant entry comes back a scalar
        return np.stack(vals, axis=-1).reshape(x.shape + width)

    def velocity(self, x, y, t):
        """Exact velocity a(t) vhat -> (n, 2)."""
        return self.time_factor(t) * self._table(self._vhat, x, y, (2,))

    def forcing_parts(self, x, y):
        """(F0, F1, F2) -> (n, 3, 2); finite everywhere the strain is nonzero."""
        with np.errstate(invalid="ignore", divide="ignore"):
            out = self._table(self._parts, x, y, (3, 2))
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
            vhat = space.sample(lambda x, y: self._table(self._vhat, x, y, (2,)))
            self._vhat_tables[space] = vhat
        diff = space.eval_values(z) - self.time_factor(t) * vhat
        return np.sqrt(space.integrate((diff * diff).sum(axis=-1)))
