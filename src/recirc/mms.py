"""Manufactured solution for convergence verification.

The velocity is the curl of a smooth stream function vanishing to second
order on the boundary of the unit square, with a linear-in-time amplitude:

    psi(x, y, t) = A (1 + t/2) [x (1-x) y (1-y)]^2,
    v = (d psi / d y, -d psi / d x),    p = P sin(pi x) cos(pi y).

The field is exactly divergence free, vanishes on the boundary, and its
linear time dependence keeps the implicit-Euler time error far below the
spatial error being measured. The forcing that makes (v, p) solve the
closure-modified momentum equation,

    F = dv/dt + (grad v) v - div( 2 nu eps(v) + 2 nu_tur |eps(v)| eps(v) ) + grad p,

is derived symbolically and lambdified once per parameter set; no value in
it is hand-written.
"""

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
        x, y, t = sym.symbols("x y t", real=True)
        A = self.amplitude
        psi = A * (1 + t / 2) * (x * (1 - x) * y * (1 - y)) ** 2
        v1 = sym.diff(psi, y)
        v2 = -sym.diff(psi, x)
        p = self.pressure_amplitude * sym.sin(sym.pi * x) * sym.cos(sym.pi * y)

        e11 = sym.diff(v1, x)
        e22 = sym.diff(v2, y)
        e12 = (sym.diff(v1, y) + sym.diff(v2, x)) / 2
        mag = sym.sqrt(2 * e12**2 + e11**2 + e22**2)
        beta = 2 * self.nu + 2 * self.nu_tur * mag
        s11, s12, s22 = beta * e11, beta * e12, beta * e22

        f1 = (
            sym.diff(v1, t)
            + v1 * sym.diff(v1, x) + v2 * sym.diff(v1, y)
            - sym.diff(s11, x) - sym.diff(s12, y)
            + sym.diff(p, x)
        )
        f2 = (
            sym.diff(v2, t)
            + v1 * sym.diff(v2, x) + v2 * sym.diff(v2, y)
            - sym.diff(s12, x) - sym.diff(s22, y)
            + sym.diff(p, y)
        )
        mods = ["numpy"]
        self._v1 = sym.lambdify((x, y, t), v1, modules=mods, cse=True)
        self._v2 = sym.lambdify((x, y, t), v2, modules=mods, cse=True)
        self._p = sym.lambdify((x, y, t), p, modules=mods, cse=True)
        self._f1 = sym.lambdify((x, y, t), f1, modules=mods, cse=True)
        self._f2 = sym.lambdify((x, y, t), f2, modules=mods, cse=True)
        self._sym = {"v1": v1, "v2": v2, "f1": f1, "f2": f2, "vars": (x, y, t)}

    def velocity(self, x, y, t):
        """Exact velocity -> (n, 2)."""
        x = np.asarray(x, dtype=float)
        shape = x.shape
        out = np.empty(shape + (2,))
        out[..., 0] = self._v1(x, y, t)
        out[..., 1] = self._v2(x, y, t)
        return out

    def forcing(self, x, y, t):
        """Exact forcing -> (n, 2); finite everywhere the strain is nonzero."""
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape + (2,))
        with np.errstate(invalid="ignore", divide="ignore"):
            out[..., 0] = self._f1(x, y, t)
            out[..., 1] = self._f2(x, y, t)
        bad = ~np.isfinite(out)
        if bad.any():
            # |eps| = 0 points: the closure term and its derivative vanish
            # there, so the offending contribution is zero
            raise FloatingPointError(
                "manufactured forcing hit a strain zero at a quadrature point"
            )
        return out

    def initial_velocity(self, space):
        """Nodal interpolant of v(., 0) on a MixedSpace."""
        return space.interpolate(
            lambda xx, yy: self.velocity(xx, yy, 0.0)
        )

    def velocity_error(self, space, z, t):
        """L2 distance between a discrete field and the exact velocity at t."""
        diff = space.eval_values(z) - space.sample(self.velocity, t)
        return np.sqrt(space.integrate((diff * diff).sum(axis=-1)))
