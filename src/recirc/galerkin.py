"""Reduced time integration on the Stokes eigenbasis.

The homogenized unknown z(t) evolves by dz/dt = F(z, t) with components

    F_k = (H_g, xi_k) - [ c(z; zeta_g + z, xi_k) + c(zeta_g; z, xi_k)
                          + 2 nu (eps(z), eps(xi_k))
                          + 2 nu_tur (|eps(zeta_g+z)| eps(zeta_g+z), eps(xi_k)) ],

where c is the skew-symmetrized convection form. Because the basis is
L2-orthonormal the mass matrix is the identity and pairings are the
coefficient derivatives directly. Implicit Euler solves each step with a
damped Picard iteration whose linear solve carries the full strain-weighted
stiffness (|eps| frozen at the previous iterate); classical RK4 is
available for cross-checks. The physical velocity at any time is
v = zeta_g(t) + sum_k z_k xi_k.
"""

import numpy as np

from .errors import StepError
from .lifting import compute_Hg_load
from .turbulence import convection_load, smagorinsky_load, strain_norm


class GalerkinState:
    """Time and reduced coefficient vector."""

    __slots__ = ("t", "z")

    def __init__(self, t, z):
        self.t = float(t)
        self.z = np.asarray(z, dtype=float)


class Trajectory:
    """Uniform-step trajectory of reduced coefficients with step diagnostics."""

    def __init__(self, times, states, iterations, step_residuals, completed=True):
        self.times = np.asarray(times)
        self.states = np.asarray(states)  # (n_times, N)
        self.iterations = np.asarray(iterations)
        self.step_residuals = np.asarray(step_residuals)
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
        self.visc = params.nu * (V.T @ (space.K_eps @ V))  # 2 nu (eps(xi_j), eps(xi_k))
        self._t_cache = None

    # -- time-dependent data, cached per time value ---------------------------

    def _data_at(self, t):
        if self._t_cache is not None and self._t_cache[0] == t:
            return self._t_cache[1]
        g, gdot = self.pumps.rates(t) if len(self.pumps) else (np.zeros(0), np.zeros(0))
        zg_vals, zg_grads = self.lifting.combine_qpt(g)
        hg = self.basis.fields.T @ compute_Hg_load(self.lifting, self.pumps, self.source, t)
        data = {
            "g": g,
            "gdot": gdot,
            "zg_vals": zg_vals,
            "zg_grads": zg_grads,
            "zg_eps": 0.5 * (zg_grads + np.swapaxes(zg_grads, -1, -2)),
            "hg": hg,
        }
        self._t_cache = (t, data)
        return data

    def lift_fields(self, t):
        """(zeta_g(t), d zeta_g/dt(t)) as velocity coefficient vectors."""
        g, gdot = self.pumps.rates(t) if len(self.pumps) else (np.zeros(0), np.zeros(0))
        return self.lifting.combine(g), self.lifting.combine(gdot)

    def velocity(self, z, t):
        """Reconstructed velocity v = zeta_g(t) + sum_k z_k xi_k."""
        zg, _ = self.lift_fields(t)
        return zg + self.basis.expand(z)

    # -- right-hand side -------------------------------------------------------

    def _fields_at(self, z, data):
        """Quadrature tabulations of z and w = zeta_g + z at one time."""
        space = self.space
        zf = self.basis.expand(z)
        z_vals = space.eval_values(zf)
        z_grads = space.eval_grads(zf)
        w_grads = data["zg_grads"] + z_grads
        return {
            "z_vals": z_vals,
            "z_grads": z_grads,
            "w_vals": data["zg_vals"] + z_vals,
            "w_grads": w_grads,
            "w_eps": 0.5 * (w_grads + np.swapaxes(w_grads, -1, -2)),
        }

    def _conv_modal(self, f, data):
        """Modal pairings of c(z; zg+z, .) + c(zg; z, .)."""
        space = self.space
        load = convection_load(space, f["z_vals"], f["w_vals"], f["w_grads"])
        if len(self.pumps):
            load = load + convection_load(
                space, data["zg_vals"], f["z_vals"], f["z_grads"]
            )
        return self.basis.fields.T @ load

    def _smag_modal(self, f):
        """Modal pairings of the Smagorinsky stress at the current fields."""
        if self.params.nu_tur == 0:
            return np.zeros(self.basis.size)
        load = smagorinsky_load(self.space, f["w_eps"], self.params)
        return self.basis.fields.T @ load

    def _nonlinear(self, z, data):
        f = self._fields_at(z, data)
        return self._conv_modal(f, data) + self._smag_modal(f)

    def rhs(self, z, t):
        """dz/dt at (z, t)."""
        data = self._data_at(t)
        return data["hg"] - self.visc @ z - self._nonlinear(z, data)

    # -- steppers ----------------------------------------------------------------

    def step_implicit_euler(self, state, dt, tol=1e-10, max_iter=50, t_new=None):
        """Solve z+ = z + dt rhs(z+, t+dt) by Picard iteration.

        The full beta-weighted strain stiffness is kept implicit with |eps|
        frozen at the previous iterate (the classical linearization for
        strain-power closures); convection lags one iterate. The residual is
        the true fixed-point defect in the coefficient 2-norm.
        """
        if t_new is None:
            t_new = state.t + dt
        data = self._data_at(t_new)
        z_old = state.z
        V = self.basis.fields
        N = self.basis.size
        nu_tur = self.params.nu_tur
        z = z_old
        f = self._fields_at(z, data)
        best_res = np.inf
        prev_res = None
        omega = 1.0
        for it in range(1, max_iter + 1):
            conv = self._conv_modal(f, data)
            if nu_tur > 0:
                aeps = strain_norm(f["w_eps"])
                Kw = self.space.weighted_strain_stiffness(nu_tur * aeps)
                S = V.T @ (Kw @ V)
                lift_load = V.T @ self.space.stress_load_vector(
                    2.0 * nu_tur * aeps[..., None, None] * data["zg_eps"]
                )
            else:
                S = 0.0
                lift_load = 0.0
            A = np.eye(N) + dt * (self.visc + S)
            b = z_old + dt * (data["hg"] - conv - lift_load)
            z_new = (1.0 - omega) * z + omega * np.linalg.solve(A, b)
            f_new = self._fields_at(z_new, data)
            defect = z_new - z_old - dt * (
                data["hg"]
                - self.visc @ z_new
                - self._conv_modal(f_new, data)
                - self._smag_modal(f_new)
            )
            res = float(np.linalg.norm(defect))
            if res <= tol:
                return GalerkinState(t_new, z_new), {"iterations": it, "residual": res}
            if prev_res is not None and res > 0.7 * prev_res:
                omega = max(0.5 * omega, 0.25)  # damp the frozen-|eps| two-cycle
            prev_res = res
            best_res = min(best_res, res)
            z, f = z_new, f_new
        raise StepError(
            f"implicit Euler step at t={t_new:.6g} did not reach residual {tol:.1e} "
            f"in {max_iter} iterations (best {best_res:.3e}); reduce dt",
            residual=best_res,
        )

    def step_rk4(self, state, dt, t_new=None):
        t, z = state.t, state.z
        if t_new is None:
            t_new = t + dt
        k1 = self.rhs(z, t)
        k2 = self.rhs(z + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = self.rhs(z + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = self.rhs(z + dt * k3, t_new)
        z_new = z + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        return GalerkinState(t_new, z_new), {"iterations": 4, "residual": 0.0}

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
        state = state0
        kw = {"tol": tol} if scheme == "implicit-euler" else {}
        for k in range(n_steps):
            kw["t_new"] = state0.t + (k + 1) * dt  # exact grid, no accumulation
            try:
                state, diag = self.step(state, dt, scheme=scheme, **kw)
            except StepError as exc:
                exc.trajectory = Trajectory(times, states, iters, residuals, completed=False)
                raise
            times.append(state.t)
            states.append(state.z.copy())
            iters.append(diag["iterations"])
            residuals.append(diag["residual"])
            if on_step is not None:
                on_step(state)
        return Trajectory(times, states, iters, residuals)

    # -- quadrature-level energy rates (used by the ledger and energy tests) -----

    def dissipation_rates(self, z, t):
        """(2 nu ||eps(z)||^2, 2 nu_tur ||eps(zg+z)||^3_L3) at (z, t)."""
        zf = self.basis.expand(z)
        data = self._data_at(t)
        z_grads = self.space.eval_grads(zf)
        eps_z = 0.5 * (z_grads + np.swapaxes(z_grads, -1, -2))
        w_grads = data["zg_grads"] + z_grads
        eps_w = 0.5 * (w_grads + np.swapaxes(w_grads, -1, -2))
        visc = 2 * self.params.nu * self.space.integrate(
            np.einsum("cqab,cqab->cq", eps_z, eps_z)
        )
        smag = 2 * self.params.nu_tur * self.space.integrate(strain_norm(eps_w) ** 3)
        return visc, smag
