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
time polynomial F0 + a(t) F1 + a(t)^2 F2. The source forms the three part
loads once per space, when the system is built, so a step's source load is
two axpys on them.

A Picard iterate evaluates convection and closure in one pass over the
quadrature points: the iterate's values and one gradient product, the
weighted convection body force, the convection and closure stresses written
plane by plane into one weighted table (the quadrature weight folded into
the pointwise scalars), and one `MixedSpace.weighted_load` of the two.
"""

import numpy as np
from scipy.sparse.linalg import splu

from .errors import SolverError, StepError
from .galerkin import step_count
from .space import SADDLE_LU
from .turbulence import convection_force, strain_norm, sym_norm, weighted_stress
# unused here; imported only so that the benchmark's traced names resolve
from .turbulence import convection_load, smagorinsky_load  # noqa: F401

PICARD_TOL = 1e-10  # M-norm coefficient increment at which a step's Picard iteration stops


class FullSpaceSystem:
    """Implicit Euler on the full Taylor-Hood space with zero velocity trace."""

    def __init__(self, space, params, source=None):
        """source: None, or a ManufacturedSolution (or a subclass with its
        own `forcing_parts(x, y)` and `time_factor(t)`)."""
        self.space = space
        self.params = params
        self.source = source
        self._step_factor = (None, None)  # ((dt, shift), LU) of the last step
        if source is not None:
            source.part_loads(space)  # formed here, so that stepping only reads it

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
        """Dual vector of F(t): L0 + a (L1 + a L2) from the source's part loads."""
        if self.source is None:
            return np.zeros(self.space.n_velocity)
        return self.source.combine(self.source.part_loads(self.space), t)

    def nonlinear_load(self, z):
        """Dual vector of skew convection c(z; z, .) plus the closure term, in
        one pass over the quadrature points: the values and one gradient
        product of z, the weighted body force of `convection_force`, the
        convection and closure stresses written into one weighted table
        (`weighted_stress`), and one `weighted_load` of the two."""
        space, qw = self.space, self.space.qweights
        u, G = space.eval_values(z), space.eval_grads(z)
        f, h = convection_force(u, G, qw)
        closure = None
        if self.params.nu_tur > 0:
            eps = (G[..., 0, 0], 0.5 * (G[..., 0, 1] + G[..., 1, 0]), G[..., 1, 1])
            closure = (eps, sym_norm(*eps), self.params)
        return space.weighted_load(weighted_stress(qw, closure, conv=(h, u)), f)

    def residual_load(self, z, t):
        """Dual vector of F-load minus all spatial terms; the rhs oracle."""
        return (
            self.source_load(t)
            - self.nonlinear_load(z)
            - self.params.nu * (self.space.K_eps @ z)
        )

    def closure_shift(self, z):
        """Viscosity shift bounding the closure weight nu_tur |e| of
        `closure_tangent` at z: twice its largest value, 2 nu_tur max |e|."""
        if self.params.nu_tur == 0:
            return 0.0
        return 2.0 * self.params.nu_tur * float(strain_norm(self.space.strain_samples(z)).max())

    # -- stepping --------------------------------------------------------------------

    def step(self, z, t_new, dt, shift, tol=PICARD_TOL, max_iter=60):
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

    def integrate(self, v0, T, dt, observer=None):
        """Step from the projected v0 to T; observer(t, z) runs after each step.
        Returns (z at T, the Picard iteration count of each step)."""
        n_steps = step_count(T, dt)
        z = self.project_divfree(v0)
        shift = self.closure_shift(z) * 1.5
        iterations = []
        if observer is not None:
            observer(0.0, z)
        for n in range(1, n_steps + 1):
            t_new = n * dt
            z, it = self.step(z, t_new, dt, shift)
            iterations.append(it)
            current = self.closure_shift(z)
            if current > 2 * shift:  # strain grew past the contraction bound
                shift = 1.5 * current
            if observer is not None:
                observer(t_new, z)
        return z, iterations
