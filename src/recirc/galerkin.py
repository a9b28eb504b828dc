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
still reads the mesh. Implicit Euler solves each step by a simplified
Newton iteration (the chord method of implicit integrators: Hairer &
Wanner, Solving ODEs II, IV.8; Kelley, Iterative Methods for Linear and
Nonlinear Equations, SIAM 1995, 5.4). Every iterate's defect is the light
path of the right-hand side: one `StateFields`, one closure load and a
product with V^T. The Jacobian's convection part, a contraction of C, is
refreshed at every iterate; its closure part is the tangent
2 nu_tur (|e| I + e (x) e / |e|) of the stress 2 nu_tur |e| e, the
strain-weighted stiffness plus one rank-one term per quadrature point,
projected onto the modes cell by cell (`MixedSpace.weighted_strain_stiffness`)
without assembling a mesh-sized matrix. That projection is the heavy half of
an iteration, and the monotone closure's tangent moves by O(dt) over a
step, so it is formed once per step and frozen. It is formed again at the
current iterate only when a frozen-tangent update finds no decrease, or
when an accepted update shrinks the residual by less than CHORD_RATE.
Classical RK4 is available for cross-checks. The physical velocity at any
time is v = zeta_g(t) + sum_k z_k xi_k.

Time data are split by who reads them. The right-hand side and the steppers
read the rates g(t) and (H_g, xi_k) from `lift_modal`; the energy ledger reads
the quadrature-point tables of `lifting.LiftData` (zeta_g, its rate, H_g) from
`lift_data`. Both read a state's closure fields from `StateFields`, which the
steppers form from one gradient evaluation of w = zeta_g + z and the ledger
from its tables. The system holds no mutable state while it steps.
"""

import numpy as np

from .errors import SolverError, StepError
from .lifting import compute_Hg_load
from .turbulence import convection_load, smagorinsky_load, strain_norm, sym_grad

MAX_HALVINGS = 20  # step-length halvings per Newton update before a step fails
CHORD_RATE = 0.1  # an accepted update that shrinks the residual less refreshes the tangent


class GalerkinState:
    """Time and reduced coefficient vector."""

    __slots__ = ("t", "z")

    def __init__(self, t, z):
        self.t = float(t)
        self.z = np.asarray(z, dtype=float)


class StateFields:
    """Quadrature-point tables (nt, nq, ...) of one state's closure fields:
    eps(w) and |eps(w)| from the gradient table of w = zeta_g + z."""

    __slots__ = ("w_eps", "w_eps_mag")

    def __init__(self, w_grads):
        self.w_eps = sym_grad(w_grads)
        self.w_eps_mag = strain_norm(self.w_eps)


class Trajectory:
    """Uniform-step trajectory of reduced coefficients with step diagnostics:
    per time level the solver's iterations, final residual, step-length
    halvings (backtracks) and closure-tangent kernel calls (tangents), 0 at
    the initial state."""

    def __init__(self, times, states, iterations, step_residuals, backtracks, tangents,
                 completed=True):
        self.times = np.asarray(times)
        self.states = np.asarray(states)  # (n_times, N)
        self.iterations = np.asarray(iterations)
        self.step_residuals = np.asarray(step_residuals)
        self.backtracks = np.asarray(backtracks)
        self.tangents = np.asarray(tangents)
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

    # -- lift data per time and fields per state --------------------------------

    def lift_modal(self, t):
        """(g(t), (H_g(t), xi_k)), where (H_g, xi_k) = (F, xi_k) - P gdot - (R g) g:
        only a source needs a quadrature."""
        g, gdot = self.pumps.rates(t)
        hg = -(self.P @ gdot) - (self.R @ g) @ g
        if self.source is not None:
            F = self.space.sample(self.source, t)
            hg = hg + self.basis.fields.T @ self.space.load_vector(F)
        return g, hg

    def lift_data(self, t):
        """LiftData at t: the quadrature-point tables of zeta_g and H_g."""
        return compute_Hg_load(self.lifting, self.pumps, self.source, t)

    def lift_fields(self, t):
        """(zeta_g(t), d zeta_g/dt(t)) as velocity coefficient vectors."""
        g, gdot = self.pumps.rates(t)
        return self.lifting.combine(g), self.lifting.combine(gdot)

    def velocity(self, z, t):
        """Reconstructed velocity v = zeta_g(t) + sum_k z_k xi_k."""
        zg, _ = self.lift_fields(t)
        return zg + self.basis.expand(z)

    def state_fields(self, z, g):
        """StateFields of w = zeta_g + z at the lift rates g."""
        w = self.lifting.combine(g) + self.basis.expand(z)
        return StateFields(self.space.eval_grads(w))

    # -- right-hand side -------------------------------------------------------

    def _conv_modal(self, z, g):
        """Modal pairings c(w; w, xi_k) - c(zeta_g; zeta_g, xi_k), w = zeta_g + z."""
        y = np.concatenate([g, z])
        return (self.C @ y) @ y

    def _closure(self, z, g):
        """(modal pairings of the Smagorinsky stress at w = zeta_g + z, the
        StateFields of w); (0, None) without the closure."""
        if self.params.nu_tur == 0:
            return np.zeros(self.basis.size), None
        f = self.state_fields(z, g)
        load = smagorinsky_load(self.space, f.w_eps, self.params, eps_mag=f.w_eps_mag)
        return self.basis.fields.T @ load, f

    def rhs(self, z, t):
        """dz/dt at (z, t)."""
        g, hg = self.lift_modal(t)
        return hg - self.visc @ z - (self._conv_modal(z, g) + self._closure(z, g)[0])

    # -- steppers ----------------------------------------------------------------

    def implicit_euler_newton(self, z_old, dt, t_new):
        """The functions (defect, tangent, jacobian) of the implicit-Euler
        step from z_old to t_new.

        - defect(z) -> (d, ||d||_2, f): d = z - z_old + dt (visc z + (C y) y
          + closure(z) - H_g), y = [g; z], with the closure pairings formed
          as in `rhs` from f, the StateFields of z (None when nu_tur = 0).
        - tangent(f) -> T_VV = V^T K_T V, the closure tangent
          2 nu_tur (|e| I + e (x) e / |e|), e = eps(w), at the state whose
          StateFields are f, from one `weighted_strain_stiffness` call. The
          rank-one weight nu_tur / |e| is 0 where |e| = 0.
        - jacobian(z, T_VV) -> I + dt (visc + J_conv + T_VV), where
          J_conv[k, j] = sum_b (C[k, K+j, b] + C[k, b, K+j]) y_b is the
          derivative of (C y) y at z; T_VV None leaves the closure out.
        """
        g, hg = self.lift_modal(t_new)
        K = len(self.lifting)
        V = self.basis.fields
        nu_tur = self.params.nu_tur
        base = np.eye(self.basis.size) + dt * self.visc

        def defect(z):
            y = np.concatenate([g, z])
            closure, f = self._closure(z, g)
            d = z - z_old + dt * (self.visc @ z + (self.C @ y) @ y + closure - hg)
            return d, float(np.linalg.norm(d)), f

        def tangent(f):
            mag = f.w_eps_mag
            inv = np.divide(nu_tur, mag, out=np.zeros_like(mag), where=mag > 0)
            return self.space.weighted_strain_stiffness(nu_tur * mag, V, rank_one=(inv, f.w_eps))

        def jacobian(z, T_VV):
            y = np.concatenate([g, z])
            jac = base + dt * ((self.C @ y)[:, K:] + y @ self.C[:, :, K:])
            if T_VV is not None:
                jac += dt * T_VV
            return jac

        return defect, tangent, jacobian

    def step_implicit_euler(self, state, dt, tol=1e-10, max_iter=50, t_new=None):
        """Solve z+ = z + dt rhs(z+, t+dt) by a simplified Newton iteration on
        the functions of `implicit_euler_newton`.

        The residual is the defect's coefficient 2-norm, and the first
        iterate (z_old first) at or below `tol` is the result. An update is
        z <- z - lambda J^{-1} d, with J's convection part taken at the
        current iterate and its closure tangent T_VV frozen: T_VV is formed
        at the first update from the StateFields of z_old's defect, and
        formed again at the current iterate (from its defect's StateFields)
        in two cases:

        - an update with a frozen tangent from an earlier iterate finds no
          decrease at lambda = 1; that trial is dropped;
        - an accepted update shrinks the residual by less than a factor
          CHORD_RATE.

        An update with a tangent formed at its own iterate (every update
        without the closure, which is then Newton's method) starts at
        lambda = 1 and halves lambda while the residual does not fall (the
        line search of Kelley, ch. 8, with simple decrease), at most
        MAX_HALVINGS times; the diag counts the halvings as "backtracks"
        and the kernel calls as "tangents". The tangent lives in this call
        only, so threads sharing the system never share one. A trial's
        defect is the next iterate's, so an accepted update costs one
        defect evaluation. A failure raises StepError with the time, the
        iteration count and the residuals of the accepted iterates.
        """
        if t_new is None:
            t_new = state.t + dt
        defect, tangent, jacobian = self.implicit_euler_newton(state.z, dt, t_new)

        def fail(why):
            raise StepError(
                f"implicit Euler step at t={t_new:.6g} {why} "
                f"(best residual {min(history):.3e}, target {tol:.1e}); reduce dt",
                residual=min(history), t=t_new, iterations=len(history) - 1,
                history=history,
            )

        z = state.z
        d, res, f = defect(z)
        history = [res]
        backtracks = tangents = 0
        T_VV = None
        stale = False  # T_VV was formed at an earlier iterate
        while not res <= tol:
            if len(history) > max_iter:
                fail(f"did not converge in {max_iter} Newton iterations")
            if T_VV is None and f is not None:
                T_VV = tangent(f)
                tangents += 1
                stale = False
            try:
                dz = np.linalg.solve(jacobian(z, T_VV), d)
            except np.linalg.LinAlgError:
                fail("met a singular Newton matrix")
            lam = 1.0
            for halvings in range(MAX_HALVINGS + 1):
                z_try = z - lam * dz
                d_try, res_try, f_try = defect(z_try)
                if res_try < res or stale:  # a frozen tangent gets one trial
                    break
                lam *= 0.5
            else:
                fail(f"found no decrease of the residual in {MAX_HALVINGS} halvings")
            if not res_try < res:  # refresh the frozen tangent at z
                T_VV = None
                continue
            backtracks += halvings
            if res_try > CHORD_RATE * res:
                T_VV = None
            stale = T_VV is not None
            z, d, res, f = z_try, d_try, res_try, f_try
            history.append(res)
        diag = {"iterations": len(history) - 1, "residual": res, "backtracks": backtracks,
                "tangents": tangents}
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
        return GalerkinState(t_new, z_new), {"iterations": 4, "residual": 0.0, "backtracks": 0,
                                             "tangents": 0}

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
        tangents = [0]
        state = state0
        kw = {"tol": tol} if scheme == "implicit-euler" else {}
        for k in range(n_steps):
            kw["t_new"] = state0.t + (k + 1) * dt  # exact grid, no accumulation
            try:
                state, diag = self.step(state, dt, scheme=scheme, **kw)
            except StepError as exc:
                exc.trajectory = Trajectory(times, states, iters, residuals, backtracks,
                                            tangents, completed=False)
                raise
            times.append(state.t)
            states.append(state.z.copy())
            iters.append(diag["iterations"])
            residuals.append(diag["residual"])
            backtracks.append(diag["backtracks"])
            tangents.append(diag["tangents"])
            if on_step is not None:
                on_step(state)
        return Trajectory(times, states, iters, residuals, backtracks, tangents)

    # -- quadrature-level energy rates (used by the ledger and energy tests) -----

    def dissipation_rates(self, z, t):
        """(2 nu ||eps(z)||^2, 2 nu_tur ||eps(zg+z)||^3_L3) at (z, t)."""
        z_grads = self.space.eval_grads(self.basis.expand(z))
        f = StateFields(self.lift_data(t).zg_grads + z_grads)
        eps_z = sym_grad(z_grads)
        visc = 2 * self.params.nu * self.space.integrate(
            np.einsum("cqab,cqab->cq", eps_z, eps_z)
        )
        smag = 2 * self.params.nu_tur * self.space.integrate(f.w_eps_mag**3)
        return visc, smag
