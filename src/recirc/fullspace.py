"""Full-space implicit FEM integrator for homogeneous-boundary problems.

Used as the verification oracle: manufactured-solution convergence studies
and independent assembly of the variational residual that the reduced
system must reproduce. Velocity vanishes on the whole boundary (no pumps),
so the unknown is the velocity itself.

Implicit Euler with a shifted Picard iteration: the saddle matrix carries
the molecular viscosity plus a constant shift bounding the closure
coefficient, so the lagged closure terms contract without refactorizing
inside the step loop. Convergence is declared on the coefficient increment.
"""

import numpy as np
from scipy.sparse.linalg import splu

from .errors import SolverError, StepError
from .turbulence import convection_load, smagorinsky_load, strain_norm, sym_grad


class FullSpaceSystem:
    """Implicit Euler on the full Taylor-Hood space with zero velocity trace."""

    def __init__(self, space, params, source=None):
        self.space = space
        self.params = params
        self.source = source
        self.I = space.interior_vdofs
        self._dt_factor = {}
        self._proj_factor = None

    # -- saddle factorizations -------------------------------------------------

    def _factor(self, dt, shift):
        key = (float(dt), float(shift))
        if key not in self._dt_factor:
            I = self.I
            A = (self.space.M / dt + (self.params.nu + shift) * self.space.K_eps).tocsr()
            try:
                self._dt_factor[key] = splu(self.space.saddle_matrix(A[I][:, I]))
            except RuntimeError as exc:
                raise SolverError(f"time-step factorization failed: {exc}") from exc
        return self._dt_factor[key]

    def project_divfree(self, v):
        """L2 projection onto the discretely divergence-free zero-trace subspace."""
        space = self.space
        I = self.I
        if self._proj_factor is None:
            self._proj_factor = splu(space.saddle_matrix(space.M.tocsr()[I][:, I]))
        rhs = space.saddle_rhs((space.M @ v)[I], np.zeros(space.n_pressure))
        out = np.zeros(space.n_velocity)
        out[I], _ = space.saddle_split(self._proj_factor.solve(rhs))
        return out

    # -- weak form -----------------------------------------------------------------

    def source_load(self, t):
        if self.source is None:
            return np.zeros(self.space.n_velocity)
        return self.space.load_vector(self.space.sample(self.source, t))

    def nonlinear_load(self, z):
        """Dual vector of skew convection c(z; z, .) plus the closure term."""
        space = self.space
        vals = space.eval_values(z)
        grads = space.eval_grads(z)
        load = convection_load(space, vals, vals, grads)
        if self.params.nu_tur > 0:
            load = load + smagorinsky_load(space, sym_grad(grads), self.params)
        return load

    def residual_load(self, z, t):
        """Dual vector of F-load minus all spatial terms; the rhs oracle."""
        return (
            self.source_load(t)
            - self.nonlinear_load(z)
            - self.params.nu * (self.space.K_eps @ z)
        )

    def closure_shift(self, z, safety=2.0):
        """Viscosity shift bounding the closure coefficient nu_tur |eps(z)|."""
        if self.params.nu_tur == 0:
            return 0.0
        eps = self.space.strain_samples(z)
        return safety * self.params.nu_tur * float(strain_norm(eps).max())

    # -- stepping --------------------------------------------------------------------

    def step(self, z, t_new, dt, shift, tol=1e-10, max_iter=60):
        space = self.space
        I = self.I
        lu = self._factor(dt, shift)
        L = self.source_load(t_new)
        base = (space.M @ z) / dt
        shift_op = shift * space.K_eps
        zero_div = np.zeros(space.n_pressure)
        zi = z
        for it in range(1, max_iter + 1):
            rhs_mom = base + L - self.nonlinear_load(zi) + shift_op @ zi
            rhs = space.saddle_rhs(rhs_mom[I], zero_div)
            z_new = np.zeros(space.n_velocity)
            z_new[I], _ = space.saddle_split(lu.solve(rhs))
            inc = np.sqrt(float((z_new - zi) @ (space.M @ (z_new - zi))))
            zi = z_new
            if inc <= tol:
                return zi, it
        raise StepError(
            f"full-space step at t={t_new:.6g} stalled at increment {inc:.3e}; "
            "reduce dt or raise the closure shift",
            residual=inc,
        )

    def integrate(self, v0, T, dt, tol=1e-10, observer=None):
        """Step from the projected v0 to T; observer(t, z) runs after each step."""
        n_steps = int(round(T / dt))
        z = self.project_divfree(v0)
        shift = self.closure_shift(z) * 1.5
        if observer is not None:
            observer(0.0, z)
        for n in range(1, n_steps + 1):
            t_new = n * dt
            z, _ = self.step(z, t_new, dt, shift, tol=tol)
            current = self.closure_shift(z)
            if current > 2 * shift:  # strain grew past the contraction bound
                shift = 1.5 * current
            if observer is not None:
                observer(t_new, z)
        return z
