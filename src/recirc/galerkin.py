"""Reduced time integration on the Stokes eigenbasis.

The homogenized unknown z(t) evolves by dz/dt = F(z, t). On the fixed basis
U = [zeta_1..zeta_K | xi_1..xi_N] of lifts and modes, with y = [g(t); z],
the velocity is w = zeta_g + z = sum_a y_a u_a, and

    F_k = (H_g, xi_k) - sum_ab C[k, a, b] y_a y_b
          - [ 2 nu (eps(z), eps(xi_k)) + 2 nu_tur (|eps(w)| eps(w), eps(xi_k)) ],

where C[k, a, b] = c(u_a; u_b, xi_k) is the skew-symmetrized convection form
with its lift-lift block (a, b < K) set to zero, so that the contraction is
c(w; w, xi_k) - c(zeta_g; zeta_g, xi_k); the lift's own convection enters
through H_g = F - d zeta_g/dt - (grad zeta_g) zeta_g. The mode-mode block of
C is antisymmetric in (k, b), so the self-pairing c(w; z, z) vanishes to
roundoff for every w. Because the basis is L2-orthonormal the mass matrix is
the identity and pairings are the coefficient derivatives directly.

Convection is quadratic in y, so it is split offline/online. Once per basis
the constructor forms T[a, y, z] = int ((u_a . grad) u_y) . u_z
(`MixedSpace.convection_tensor`), keeps C, R[k, p, q] = ((grad zeta_q)
zeta_p, xi_k) and P[k, p] = (zeta_p, xi_k), and checks C against one
quadrature pairing. Online, a time costs (H_g, xi_k) = (F, xi_k) - P gdot -
(R g) g, with a quadrature only for a source F, and a state costs (C y) y,
N (K + N)^2 multiply-adds. The Smagorinsky closure is the only term that
still reads the mesh. Implicit Euler solves each step by Newton's method,
with a step-length halving whenever the defect norm does not fall. The
Jacobian's convection part is a contraction of C; its closure part is the
tangent 2 nu_tur (|e| I + e (x) e / |e|) of the stress 2 nu_tur |e| e, the
strain-weighted stiffness plus one rank-one term per quadrature point,
projected onto [xi_1..xi_N | zeta_g] cell by cell
(`MixedSpace.weighted_strain_stiffness`) without assembling a mesh-sized
matrix. The closure is homogeneous of degree 2, so that projection applied
to [z; 1] is twice the closure load: one kernel call per iterate gives the
defect and the Jacobian, and the step makes no closure-load call.
Classical RK4 is available for cross-checks. The physical velocity at any
time is v = zeta_g(t) + sum_k z_k xi_k.

Quadrature-point data come in two bundles, read by the right-hand side, the
steppers and the energy ledger alike: `lifting.LiftData` (everything that
depends on t alone, formed by `compute_Hg_load`; the steppers read g, gdot
and the gradients of zeta_g from it, with the modal (H_g, xi_k), through the
one-entry cache of `lift_data`) and `StateFields` (the closure's fields of
one state).
"""

import numpy as np

from .errors import SolverError, StepError
from .lifting import compute_Hg_load
from .turbulence import convection_load, smagorinsky_load, strain_norm, sym_grad

MAX_HALVINGS = 20  # step-length halvings per Newton update before a step fails


class GalerkinState:
    """Time and reduced coefficient vector."""

    __slots__ = ("t", "z")

    def __init__(self, t, z):
        self.t = float(t)
        self.z = np.asarray(z, dtype=float)


class StateFields:
    """Quadrature-point tables (nt, nq, ...) of one state: values and
    gradients of z, gradients of w = zeta_g + z, eps(w) and |eps(w)|. The
    steppers read only eps(w) and |eps(w)|; the ledger forms eps(z) from
    z_grads."""

    __slots__ = ("z_vals", "z_grads", "w_grads", "w_eps", "w_eps_mag")

    def __init__(self, space, zf, data):
        self.z_vals = space.eval_values(zf)
        self.z_grads = space.eval_grads(zf)
        self.w_grads = data.zg_grads + self.z_grads
        self.w_eps = sym_grad(self.w_grads)
        self.w_eps_mag = strain_norm(self.w_eps)


class Trajectory:
    """Uniform-step trajectory of reduced coefficients with step diagnostics:
    per time level the solver's iterations, final residual and step-length
    halvings (backtracks), 0 at the initial state."""

    def __init__(self, times, states, iterations, step_residuals, backtracks, completed=True):
        self.times = np.asarray(times)
        self.states = np.asarray(states)  # (n_times, N)
        self.iterations = np.asarray(iterations)
        self.step_residuals = np.asarray(step_residuals)
        self.backtracks = np.asarray(backtracks)
        self.completed = completed

    def __len__(self):
        return len(self.times)


def initial_state(v0, basis, tol=1e-8):
    """Project an initial velocity onto the basis after trace/divergence checks."""
    space = basis.space
    v0 = np.asarray(v0, dtype=float)
    scale = max(1.0, float(np.abs(v0).max()) if v0.size else 1.0)
    trace = float(np.abs(v0[space.boundary_vdofs]).max()) if len(space.boundary_vdofs) else 0.0
    if trace > tol * scale:
        raise ValueError(
            f"initial velocity has boundary trace {trace:.3e}; must vanish on the wall"
        )
    div = float(np.linalg.norm(space.B @ v0))
    if div > tol * scale:
        raise ValueError(
            f"initial velocity has discrete divergence {div:.3e} (tolerance {tol * scale:.1e})"
        )
    return GalerkinState(0.0, basis.project(v0))


class ReducedSystem:
    """The right-hand side and time steppers of the reduced equations."""

    def __init__(self, space, basis, lifting, pumps, params, source=None):
        self.space = space
        self.basis = basis
        self.lifting = lifting
        self.pumps = pumps
        self.params = params
        self.source = source
        V = basis.fields
        Z = lifting.zetas.T
        K = len(lifting)
        self.visc = params.nu * (V.T @ (space.K_eps @ V))  # 2 nu (eps(xi_j), eps(xi_k))
        W = np.column_stack([Z, V])
        T = space.convection_tensor(W)  # [a, y, z] = ((u_a . grad) u_y, u_z)
        # C[k, a, b] = c(u_a; u_b, xi_k) = (T[a, b, K+k] - T[a, K+k, b]) / 2
        C = 0.5 * (T[:, :, K:] - T[:, K:, :].transpose(0, 2, 1))
        self.C = np.ascontiguousarray(C.transpose(2, 0, 1))
        self._check_convection(W)
        self.C[:, :K, :K] = 0.0  # the lift's self-convection is carried by H_g
        self.R = np.ascontiguousarray(T[:K, :K, K:].transpose(2, 0, 1))  # ((grad zeta_q) zeta_p, xi_k)
        self.P = V.T @ (space.M @ Z)  # (zeta_p, xi_k)
        self._t_cache = None

    def _check_convection(self, W):
        """The full contraction at y = 1 against one quadrature pairing of
        c(w; w, xi_k), w = W 1. Raises SolverError when they differ by more
        than 1e-10 times the largest sum_i |xi_k,i L_i| over the dual vector L
        of c(w; w, .), the size of the terms the pairing sums (a pairing can
        vanish by symmetry)."""
        y = np.ones(W.shape[1])
        w = W @ y
        vals, grads = self.space.eval_values(w), self.space.eval_grads(w)
        load = convection_load(self.space, vals, vals, grads)
        V = self.basis.fields
        gap = float(np.abs((self.C @ y) @ y - V.T @ load).max())
        scale = float((np.abs(V).T @ np.abs(load)).max())
        if not gap <= 1e-10 * scale:
            raise SolverError(
                f"modal convection tensor is off its quadrature pairing by {gap:.3e} "
                f"(term scale {scale:.3e}, tolerance 1e-10 relative)"
            )

    # -- lift data per time (one-entry cache) and fields per state ------------

    def lift_data(self, t):
        """(LiftData at t, modal pairings (H_g(t), xi_k)).

        (H_g, xi_k) = (F, xi_k) - P gdot - (R g) g: only a source needs a
        quadrature. The one-entry cache is read into a local before it is
        checked, so threads sharing this system never see another time's data.
        """
        cache = self._t_cache
        if cache is None or cache[0] != t:
            data = compute_Hg_load(self.lifting, self.pumps, self.source, t)
            hg = -(self.P @ data.gdot) - (self.R @ data.g) @ data.g
            if self.source is not None:
                hg = hg + self.basis.fields.T @ self.space.load_vector(data.source_vals)
            cache = self._t_cache = (t, data, hg)
        return cache[1], cache[2]

    def lift_fields(self, t):
        """(zeta_g(t), d zeta_g/dt(t)) as velocity coefficient vectors."""
        g, gdot = self.pumps.rates(t)
        return self.lifting.combine(g), self.lifting.combine(gdot)

    def velocity(self, z, t):
        """Reconstructed velocity v = zeta_g(t) + sum_k z_k xi_k."""
        zg, _ = self.lift_fields(t)
        return zg + self.basis.expand(z)

    def state_fields(self, z, data):
        """StateFields of z and w = zeta_g + z against the LiftData of their time."""
        return StateFields(self.space, self.basis.expand(z), data)

    # -- right-hand side -------------------------------------------------------

    def _conv_modal(self, z, data):
        """Modal pairings c(w; w, xi_k) - c(zeta_g; zeta_g, xi_k), w = zeta_g + z."""
        y = np.concatenate([data.g, z])
        return (self.C @ y) @ y

    def _smag_modal(self, z, data):
        """Modal pairings of the Smagorinsky stress at w = zeta_g + z."""
        if self.params.nu_tur == 0:
            return np.zeros(self.basis.size)
        f = self.state_fields(z, data)
        load = smagorinsky_load(self.space, f.w_eps, self.params, eps_mag=f.w_eps_mag)
        return self.basis.fields.T @ load

    def rhs(self, z, t):
        """dz/dt at (z, t)."""
        data, hg = self.lift_data(t)
        return hg - self.visc @ z - (self._conv_modal(z, data) + self._smag_modal(z, data))

    # -- steppers ----------------------------------------------------------------

    def implicit_euler_newton(self, z_old, dt, t_new):
        """The map z -> (d, ||d||_2, J) of the implicit-Euler step from z_old
        to t_new: its defect, residual and Jacobian.

        d(z) = z - z_old + dt (visc z + conv(z) + closure(z) - H_g) and
        J = I + dt (visc + J_conv + T_VV):

        - J_conv[k, j] = sum_b (C[k, K+j, b] + C[k, b, K+j]) y_b, the
          derivative of the modal contraction (C y) y;
        - T = U^T K_T U, U = [xi_1..xi_N | zeta_g], is the closure tangent
          2 nu_tur (|e| I + e (x) e / |e|), e = eps(w), from one
          `weighted_strain_stiffness` call; T_VV is its N x N block. The
          rank-one weight nu_tur / |e| is 0 where |e| = 0.

        The closure is homogeneous of degree 2 in w, so K_T w is twice its
        load: half the first N rows of T applied to [z; 1] are the closure
        pairings. One kernel call per evaluation thus gives the defect and
        the Jacobian, with no closure-load call.
        """
        data, hg = self.lift_data(t_new)
        N = self.basis.size
        K = len(self.lifting)
        nu_tur = self.params.nu_tur
        if nu_tur > 0:  # the modes and the lift: one projection per evaluation
            U = np.column_stack([self.basis.fields, self.lifting.combine(data.g)])
        base = np.eye(N) + dt * self.visc

        def evaluate(z):
            y = np.concatenate([data.g, z])
            Cy = self.C @ y
            jac = base + dt * (Cy[:, K:] + y @ self.C[:, :, K:])
            force = self.visc @ z + Cy @ y - hg
            if nu_tur > 0:
                f = self.state_fields(z, data)
                mag = f.w_eps_mag
                inv = np.divide(nu_tur, mag, out=np.zeros_like(mag), where=mag > 0)
                T = self.space.weighted_strain_stiffness(nu_tur * mag, U,
                                                         rank_one=(inv, f.w_eps))
                jac += dt * T[:N, :N]
                force += 0.5 * (T[:N] @ np.append(z, 1.0))
            d = z - z_old + dt * force
            return d, float(np.linalg.norm(d)), jac

        return evaluate

    def step_implicit_euler(self, state, dt, tol=1e-10, max_iter=50, t_new=None):
        """Solve z+ = z + dt rhs(z+, t+dt) by Newton's method on the defect of
        `implicit_euler_newton`.

        The residual is the defect's coefficient 2-norm, and the first
        iterate (z_old first) at or below `tol` is the result. An update
        z <- z - lambda J^{-1} d starts at lambda = 1 and halves lambda while
        the residual does not fall (the line search of Kelley, Iterative
        Methods for Linear and Nonlinear Equations, SIAM 1995, ch. 8, with
        simple decrease), at most MAX_HALVINGS times; the diag counts the
        halvings as "backtracks". The trial's evaluation is the next
        iterate's, so an accepted update costs one evaluation. A failure
        raises StepError with the time, the iteration count and the
        residuals of the accepted iterates.
        """
        if t_new is None:
            t_new = state.t + dt
        evaluate = self.implicit_euler_newton(state.z, dt, t_new)

        def fail(why):
            raise StepError(
                f"implicit Euler step at t={t_new:.6g} {why} "
                f"(best residual {min(history):.3e}, target {tol:.1e}); reduce dt",
                residual=min(history), t=t_new, iterations=len(history) - 1,
                history=history,
            )

        z = state.z
        d, res, jac = evaluate(z)
        history = [res]
        backtracks = 0
        while not res <= tol:
            if len(history) > max_iter:
                fail(f"did not converge in {max_iter} Newton iterations")
            try:
                dz = np.linalg.solve(jac, d)
            except np.linalg.LinAlgError:
                fail("met a singular Newton matrix")
            lam = 1.0
            for halvings in range(MAX_HALVINGS + 1):
                z_try = z - lam * dz
                d_try, res_try, jac_try = evaluate(z_try)
                if res_try < res:
                    break
                lam *= 0.5
            else:
                fail(f"found no decrease of the residual in {MAX_HALVINGS} halvings")
            backtracks += halvings
            z, d, res, jac = z_try, d_try, res_try, jac_try
            history.append(res)
        diag = {"iterations": len(history) - 1, "residual": res, "backtracks": backtracks}
        return GalerkinState(t_new, z), diag

    def step_rk4(self, state, dt, t_new=None):
        t, z = state.t, state.z
        if t_new is None:
            t_new = t + dt
        k1 = self.rhs(z, t)
        k2 = self.rhs(z + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = self.rhs(z + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = self.rhs(z + dt * k3, t_new)
        z_new = z + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        return GalerkinState(t_new, z_new), {"iterations": 4, "residual": 0.0, "backtracks": 0}

    def step(self, state, dt, scheme="implicit-euler", **kw):
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        if scheme == "implicit-euler":
            return self.step_implicit_euler(state, dt, **kw)
        if scheme == "explicit-rk4":
            return self.step_rk4(state, dt, t_new=kw.get("t_new"))
        raise ValueError(f"unknown scheme {scheme!r}")

    def integrate(self, state0, T, dt, scheme="implicit-euler", tol=1e-10,
                  on_step=None):
        """Step from state0 to T; on failure the partial trajectory is attached."""
        n_steps = int(round(T / dt))
        if abs(n_steps * dt - T) > 1e-9 * max(1.0, T):
            raise ValueError(f"T = {T} is not an integer multiple of dt = {dt}")
        times = [state0.t]
        states = [state0.z.copy()]
        iters = [0]
        residuals = [0.0]
        backtracks = [0]
        state = state0
        kw = {"tol": tol} if scheme == "implicit-euler" else {}
        for k in range(n_steps):
            kw["t_new"] = state0.t + (k + 1) * dt  # exact grid, no accumulation
            try:
                state, diag = self.step(state, dt, scheme=scheme, **kw)
            except StepError as exc:
                exc.trajectory = Trajectory(times, states, iters, residuals, backtracks,
                                            completed=False)
                raise
            times.append(state.t)
            states.append(state.z.copy())
            iters.append(diag["iterations"])
            residuals.append(diag["residual"])
            backtracks.append(diag["backtracks"])
            if on_step is not None:
                on_step(state)
        return Trajectory(times, states, iters, residuals, backtracks)

    # -- quadrature-level energy rates (used by the ledger and energy tests) -----

    def dissipation_rates(self, z, t):
        """(2 nu ||eps(z)||^2, 2 nu_tur ||eps(zg+z)||^3_L3) at (z, t)."""
        f = self.state_fields(z, self.lift_data(t)[0])
        eps_z = sym_grad(f.z_grads)
        visc = 2 * self.params.nu * self.space.integrate(
            np.einsum("cqab,cqab->cq", eps_z, eps_z)
        )
        smag = 2 * self.params.nu_tur * self.space.integrate(f.w_eps_mag**3)
        return visc, smag
