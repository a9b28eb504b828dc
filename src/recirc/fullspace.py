"""Full-space implicit FEM integrator for homogeneous-boundary problems.

Used as the verification oracle: manufactured-solution convergence studies
and independent assembly of the variational residual that the reduced
system must reproduce. Velocity vanishes on the whole boundary (no pumps),
so the unknown is the velocity itself.

Implicit Euler with a shifted Picard iteration: the saddle matrix carries
the molecular viscosity plus a constant shift bounding the closure
coefficient, so the lagged closure terms contract without refactorizing
inside the step loop. Convergence is declared on the coefficient increment.
The system holds one step factorization at a time, that of the current
(dt, shift); the projection's mass-saddle factorization lives only for its
one solve.

A source is a manufactured solution (`recirc.mms`) whose forcing is the
time polynomial F0 + a(t) F1 + a(t)^2 F2. Its three parts are tabulated and
assembled into three load vectors once, when the system is built, so a
step's source load is two axpys.
"""

import numpy as np
from scipy.sparse.linalg import splu

from .errors import SolverError, StepError
from .space import SADDLE_LU
from .turbulence import closure_stress, closure_tangent, convection_tables, strain_norm, sym_grad
# unused here; imported only so that the benchmark's traced names resolve
from .turbulence import convection_load, smagorinsky_load  # noqa: F401


class FullSpaceSystem:
    """Implicit Euler on the full Taylor-Hood space with zero velocity trace."""

    def __init__(self, space, params, source=None):
        """source: None, or a ManufacturedSolution (anything with its
        `forcing_parts(x, y)` and `time_factor(t)`)."""
        self.space = space
        self.params = params
        self.source = source
        self._step_factor = (None, None)  # ((dt, shift), LU) of the last step
        if source is not None:
            F = space.sample(source.forcing_parts)  # (nt, nq, 3, 2)
            self._source_loads = [space.load_vector(F[..., k, :]) for k in range(3)]

    # -- saddle factorizations -------------------------------------------------

    def _saddle_lu(self, A, what):
        """LU of the space's pinned saddle matrix for the velocity operator A."""
        try:
            return splu(self.space.saddle_matrix(A), **SADDLE_LU)
        except RuntimeError as exc:
            raise SolverError(f"{what} factorization failed: {exc}") from exc

    def _factor(self, dt, shift):
        key = (float(dt), float(shift))
        if self._step_factor[0] != key:
            self._step_factor = (None, None)  # release the old LU before the new fill
            A = self.space.M / dt + (self.params.nu + shift) * self.space.K_eps
            self._step_factor = (key, self._saddle_lu(A, "time-step"))
        return self._step_factor[1]

    def project_divfree(self, v):
        """L2 projection onto the discretely divergence-free zero-trace subspace."""
        M = self.space.M
        return self.space.saddle_solve(self._saddle_lu(M, "projection"), M @ v)[0]

    # -- weak form -----------------------------------------------------------------

    def source_load(self, t):
        """Dual vector of F(t): L0 + a (L1 + a L2) from the tabulated parts."""
        if self.source is None:
            return np.zeros(self.space.n_velocity)
        L0, L1, L2 = self._source_loads
        a = self.source.time_factor(t)
        return L0 + a * (L1 + a * L2)

    def nonlinear_load(self, z):
        """Dual vector of skew convection c(z; z, .) plus the closure term:
        the closure stress joins the convection stress, so one body-force
        and one stress assembly."""
        space = self.space
        vals = space.eval_values(z)
        grads = space.eval_grads(z)
        f, S = convection_tables(vals, vals, grads)
        if self.params.nu_tur > 0:
            eps = sym_grad(grads)
            S += closure_stress(eps, strain_norm(eps), self.params)
        return space.load_vector(f) + space.stress_load_vector(S)

    def residual_load(self, z, t):
        """Dual vector of F-load minus all spatial terms; the rhs oracle."""
        return (
            self.source_load(t)
            - self.nonlinear_load(z)
            - self.params.nu * (self.space.K_eps @ z)
        )

    def closure_shift(self, z, safety=2.0):
        """Viscosity shift bounding the closure weight w of `closure_tangent` at z."""
        if self.params.nu_tur == 0:
            return 0.0
        w, _ = closure_tangent(strain_norm(self.space.strain_samples(z)), self.params)
        return safety * float(w.max())

    # -- stepping --------------------------------------------------------------------

    def step(self, z, t_new, dt, shift, tol=1e-10, max_iter=60):
        space = self.space
        lu = self._factor(dt, shift)
        L = self.source_load(t_new)
        base = (space.M @ z) / dt
        shift_op = shift * space.K_eps
        zi = z
        history = []  # increment of each iteration
        for it in range(1, max_iter + 1):
            rhs_mom = base + L - self.nonlinear_load(zi) + shift_op @ zi
            z_new, _ = space.saddle_solve(lu, rhs_mom)
            inc = np.sqrt(float((z_new - zi) @ (space.M @ (z_new - zi))))
            history.append(inc)
            zi = z_new
            if inc <= tol:
                return zi, it
        raise StepError(
            f"full-space step at t={t_new:.6g} stalled at increment {inc:.3e}; "
            "reduce dt or raise the closure shift",
            residual=inc, t=t_new, iterations=max_iter, history=history,
        )

    def integrate(self, v0, T, dt, tol=1e-10, observer=None):
        """Step from the projected v0 to T; observer(t, z) runs after each step.
        Returns (z at T, the Picard iteration count of each step)."""
        n_steps = int(round(T / dt))
        z = self.project_divfree(v0)
        shift = self.closure_shift(z) * 1.5
        iterations = []
        if observer is not None:
            observer(0.0, z)
        for n in range(1, n_steps + 1):
            t_new = n * dt
            z, it = self.step(z, t_new, dt, shift, tol=tol)
            iterations.append(it)
            current = self.closure_shift(z)
            if current > 2 * shift:  # strain grew past the contraction bound
                shift = 1.5 * current
            if observer is not None:
                observer(t_new, z)
        return z, iterations
