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

A Picard iterate is one field bundle, one nonlinear load and one saddle
solve. The bundle (`state_fields`, a `FullSpaceFields`) holds a
state's fields on contiguous (., nt, nq) planes, formed in one pass: the
space's plane kernels give the gradient planes (`MixedSpace.grad_planes`)
and the values (`value_planes`), and the weighted body force and |e| are
pointwise in them. Self-convection c(z; z, .) pairs with the symmetric
stress -1/2 w_q z (x) z plus that body force, so the load adds the
convection stress, the closure stress 2 nu_tur w_q |e| e and the shift's
-2 shift w_q e into one symmetric stress, written over the bundle's
gradient planes, which goes back through `grad_load`, and the body force
through `value_load`. The system reads nothing of the space's reference
element or DOF maps. The step passes its shift to the load, so the
right-hand side needs no product with K_eps: the shift's K_eps lives in
the step factor and its lagged part in the load. The weights 1/2 w_q and 2 nu_tur w_q are formed once per system.

`integrate` forms the bundle of each accepted state once: the closure
shift 2 nu_tur max |e| is read off it, and it serves the next step's first
load, so every Picard iterate forms exactly one bundle. A bare `step` or
`residual_load` forms its own. The system stores no bundle: each is its
caller's.
"""

import numpy as np
from scipy.sparse.linalg import splu

from .errors import SolverError, StepError
from .galerkin import step_count
from .space import SADDLE_LU
from .turbulence import closure_scale, sym_norm
# unused here; imported only so that the benchmark's traced names resolve
from .turbulence import convection_load, smagorinsky_load  # noqa: F401

PICARD_TOL = 1e-10  # M-norm coefficient increment at which a step's Picard iteration stops


class FullSpaceFields:
    """One state z's fields at the quadrature points, in contiguous planes
    over (nt, nq): the gradient planes `grads` (2, 2, nt, nq), [a, b] =
    d z_a/d x_b except that [0, 1] holds e01; the values (2, nt, nq) and the
    `half` values 1/2 w_q z; the weighted body force `force` 1/2 w_q
    (grad z) z (2, nt, nq); and |e| (nt, nq) without quadrature weights,
    None without the closure."""

    __slots__ = ("grads", "values", "half", "force", "mag")

    def __init__(self, grads, values, half, force, mag):
        self.grads = grads
        self.values = values
        self.half = half
        self.force = force
        self.mag = mag


class FullSpaceSystem:
    """Implicit Euler on the full Taylor-Hood space with zero velocity trace."""

    def __init__(self, space, params, source=None):
        """source: None, or a ManufacturedSolution (or a subclass with its
        own `forcing_parts(x, y)` and `time_factor(t)`)."""
        self.space = space
        self.params = params
        self.source = source
        self._step_factor = (None, None)  # ((dt, shift), LU) of the last step
        self.half_weights = 0.5 * space.qweights  # 1/2 w_q
        self.stress_weights = closure_scale(space.qweights, 1.0, params)  # 2 nu_tur w_q
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

    def state_fields(self, z):
        """The FullSpaceFields of z in one pass: the space's gradient planes
        (`grad_planes`) and value planes (`value_planes`) of z, the weighted
        body force f = 1/2 w_q (grad z) z from them, then e01 in place of
        d z_0/d x_1 and |e| (`sym_norm`) when the closure is on. The bundle
        is the caller's: `nonlinear_load` writes its stress into the
        gradient planes."""
        G, u = self.space.grad_planes(z), self.space.value_planes(z)
        h = u * self.half_weights
        f = G[:, 0] * h[0]
        f += G[:, 1] * h[1]
        G[0, 1] += G[1, 0]  # e01 from here on
        G[0, 1] *= 0.5
        mag = sym_norm(G[0, 0], G[0, 1], G[1, 1]) if self.params.nu_tur > 0 else None
        return FullSpaceFields(G, u, h, f, mag)

    def nonlinear_load(self, fields, shift=0.0):
        """Dual vector of skew convection c(z; z, .) plus the closure term,
        minus shift K_eps z, at the state of `fields` (`state_fields`); the
        step passes its shift, `residual_load` none.

        c(z; z, eta) = int f . eta + S_c : grad eta with the bundle's body
        force f = 1/2 (grad z) z and the symmetric stress S_c = -1/2 z (x) z.
        So S_c, the closure stress 2 nu_tur |e| e and -2 shift e (K_eps z
        pairs 2 e with eps(eta), and the rule integrates that product of P1
        strains exactly) add into one symmetric stress, the quadrature
        weight folded into their scalars, written over the bundle's
        gradient planes. Its planes go back through the space's
        `grad_load`, and the weighted body force through its `value_load`.
        |e| is left as it was."""
        space = self.space
        G, h, u = fields.grads, fields.half, fields.values
        scale = (-2.0 * shift) * space.qweights
        if fields.mag is not None:
            scale += self.stress_weights * fields.mag
        for a, b in ((0, 0), (0, 1), (1, 1)):
            G[a, b] *= scale
            G[a, b] -= h[a] * u[b]
        G[1, 0] = G[0, 1]  # planes (s00, s01, s10, s11)
        return space.grad_load(G) + space.value_load(fields.force)

    def residual_load(self, z, t):
        """Dual vector of F-load minus all spatial terms; the rhs oracle."""
        return (
            self.source_load(t)
            - self.nonlinear_load(self.state_fields(z))
            - self.params.nu * (self.space.K_eps @ z)
        )

    def closure_shift(self, fields):
        """Viscosity shift bounding the closure weight nu_tur |e| of
        `closure_tangent` at the state of `fields`: twice its largest value,
        2 nu_tur max |e|, read off the bundle's |e|; 0 without the closure."""
        if fields.mag is None:
            return 0.0
        return 2.0 * self.params.nu_tur * float(fields.mag.max())

    # -- stepping --------------------------------------------------------------------

    def step(self, z, t_new, dt, shift, tol=PICARD_TOL, max_iter=60, fields=None):
        """One implicit Euler step from z: (z at t_new, its Picard count).
        fields, the FullSpaceFields of z if the caller has them, serve the
        first iterate's load; each later iterate forms its own."""
        space = self.space
        lu = self._factor(dt, shift)
        rhs = (space.M @ z) / dt + self.source_load(t_new)
        zi = z
        history = []  # increment of each iteration
        for it in range(1, max_iter + 1):
            f = self.state_fields(zi) if fields is None else fields
            fields = None
            z_new, _ = space.saddle_solve(lu, rhs - self.nonlinear_load(f, shift))
            d = z_new - zi
            inc = np.sqrt(float(d @ (space.M @ d)))
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
        Returns (z at T, the Picard iteration count of each step). The
        FullSpaceFields of each accepted state are formed once: they decide
        the shift check and serve the next step's first load."""
        n_steps = step_count(T, dt)
        z = self.project_divfree(v0)
        fields = self.state_fields(z)
        shift = self.closure_shift(fields) * 1.5
        iterations = []
        if observer is not None:
            observer(0.0, z)
        for n in range(1, n_steps + 1):
            t_new = n * dt
            z, it = self.step(z, t_new, dt, shift, fields=fields)
            iterations.append(it)
            fields = self.state_fields(z)
            current = self.closure_shift(fields)
            if current > 2 * shift:  # strain grew past the contraction bound
                shift = 1.5 * current
            if observer is not None:
                observer(t_new, z)
        return z, iterations
