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
quadrature pairing. A source F = F0 + a(t) F1 + a(t)^2 F2 (`recirc.mms`) is
split the same way: the constructor keeps S[j, k] = (F_j, xi_k) from the
source's part loads. The spaces nest as in Faedo-Galerkin: W = [Z | V_n] is
a prefix of W, so the tables of the first n modes are leading blocks of
these, and `truncate(n)` slices them without forming or checking any again.
Online, a time costs (H_g, xi_k) = S0 + a (S1 + a S2) - P gdot - (R g) g, no
quadrature at all, and a state costs (C y) y, N (K + N)^2 multiply-adds.

The Smagorinsky closure is the only term that still reads the mesh, and it
reads it through one more offline table. A P2 field on an affine triangle
has an exactly P1 strain, sum_j lambda_j e_j over the barycentric
coordinates lambda_j and the vertex strains e_j, so each column of W is
described completely by the planes (e00, e01, e11) at the 3 vertices of
every cell: the strain table (`MixedSpace.strain_coefficients`,
(9 nt, K + N), plane-major rows 3 nt a + 3 c + j), formed through the vertex-
gradient map of the space's plane kernels (`MixedSpace.grad_operator`) and
checked against the strain samples of W 1 once per basis. It is stored
column-contiguous (Fortran order): each column's 9 nt coefficients are
contiguous, so both products with it run BLAS's long-column GEMV kernels,
and the leading columns that `truncate` keeps are a contiguous view of it,
never a copy.
A state's strain coefficients are the table times y; its strain planes at
the quadrature points are one GEMM with the P1 values
(`MixedSpace.strain_planes`), and |e| is pointwise (`turbulence.sym_norm`):
the `StateFields` of the state. A closure evaluation then consumes its
StateFields: it multiplies |e| in place by the weights 2 nu_tur w_q, which
the system forms once (`turbulence.closure_scale` at |e| = 1) and shares
with its truncations, and the planes in place by that scale, so the planes
become the stress 2 nu_tur w_q |e| e; the closure pairings are one GEMM
back with the P1 values (`MixedSpace.strain_load`) and one product with
the table's mode columns. Each product is the one of the out-of-place
expressions, in the same order, so the in-place steps change no bit. No
velocity vector of the mesh is expanded, gathered or scattered. Each
evaluation allocates its own tables, and no run changes the system, so
runs may share one system one after another (`study dt` does).

Implicit Euler solves each step by a simplified
Newton iteration (the chord method of implicit integrators: Hairer &
Wanner, Solving ODEs II, IV.8; Kelley, Iterative Methods for Linear and
Nonlinear Equations, SIAM 1995, 5.4). Every iterate's defect is the light
path of the right-hand side: one `StateFields` and the closure pairings
above. The Jacobian's convection part, a contraction of C, is refreshed at
every iterate; its closure part is the tangent
2 nu_tur (|e| I + e (x) e / |e|) of the stress 2 nu_tur |e| e (the weights
of `turbulence.closure_tangent`): the strain-weighted stiffness plus one
rank-one term per quadrature point, 9x9 matrices per cell on the strain
table, reduced to the modes in one GEMM
(`MixedSpace.weighted_strain_stiffness`) without assembling a mesh-sized
matrix. That projection is the heavy half of an iteration, and the
monotone closure's tangent moves by O(dt) over a step, so it is frozen, and
`integrate` carries it from step to step. It starts each step from an
extrapolation of the last states whose order the last step's prediction
error sets (the variable-order predictor of Shampine & Gordon, Computer
Solution of Ordinary Differential Equations, 1975): of the orders
p < MAX_START_ORDER that the states before z_{n+1} allow, the one whose
extrapolation missed z_{n+1} least, one order higher when that was the
highest tried (`start_order`). Every
accepted update corrects the frozen tangent by Broyden's rank-one secant
update (Broyden, Math. Comp. 19, 1965), from the two defects the update has
already evaluated, so the next update's Newton matrix maps the step just
taken onto the change of the defect it made. The stress 2 nu_tur |e| e is
positively homogeneous of degree 2 in the strain, so its tangent is of
degree 1: T(lambda w) = lambda T(w). The carried tangent therefore travels
with a reference scale s_ref, the closure's total eddy viscosity
s = sum_(c,q) 2 nu_tur w_q |e| at the iterate it was formed at: the sum
of the scale table each defect hands back, reduced only where the carry
reads it. Each step rescales it by s / s_ref before its first update, s
from its start's defect, which becomes its new s_ref. While the pumps ramp up
the state grows nearly along a ray, and the rescaled tangent stays
current. Where the change of state is not radial the secant updates and
the refresh rules remain the safeguard: the tangent is formed again at the
current iterate only when a frozen-tangent update finds no decrease, or
when an accepted update shrinks the residual by less than CHORD_RATE. A
step always hands on the tangent it ends with, its secant updates
included, as the pair (T_VV, s_ref). A tangent forms the StateFields
of its iterate again, one more strain product, and reads a cell-major
copy of the modes' table columns. Classical RK4 is available for cross-checks; it forms the lift
data of its three distinct times once each, k2 and k3 sharing t + dt/2,
and hands t + dt's on to the next step's k1. Both steppers read what the
step before hands on through one keyword, `carry`, and hand on their own
as the diag's "carry". The physical velocity at any time is
v = zeta_g(t) + sum_k z_k xi_k.

Time data are split by who reads them. The right-hand side and the steppers
read the rates g(t) and (H_g, xi_k) from `lift_modal`; the energy ledger
reads the rates and forms its own Gram matrices and lift tables
(`recirc.monitors`). The quadrature-point tables of `lifting.LiftData`
(zeta_g, its rate, H_g) are read by no run path: they are the tests'
quadrature oracle of the modal and Gram forms. Every lift field is formed
from `LiftingBasis.combine`. The steppers and the ledger read a state's
closure fields from `state_fields(z, g)`, one `StateFields` from the
strain table at y = [g; z]. The system holds no mutable state while it
steps: every table, the source's included, is formed when it is built.
"""

from math import comb

import numpy as np

from .errors import SolverError, StepError
from .turbulence import closure_scale, closure_tangent, convection_load, sym_norm
# unused here; imported only so that the benchmark's traced names resolve
from .lifting import compute_Hg_load  # noqa: F401
from .turbulence import smagorinsky_load  # noqa: F401

MAX_HALVINGS = 20  # step-length halvings per Newton update before a step fails
CHORD_RATE = 0.1  # an accepted update that shrinks the residual less refreshes the tangent
INITIAL_TOL = 1e-8  # relative trace and divergence an initial velocity may carry
MAX_START_ORDER = 6  # P: the orders tried on the last step are 0 .. P - 1, a start's at most P
# EXTRAPOLATION[p, j] = (-1)^j C(p + 1, j + 1): row p extrapolates the next
# state at order p from the last p + 1, newest first (row 2: 3, -3, 1)
EXTRAPOLATION = np.array([[(-1) ** j * comb(p + 1, j + 1) for j in range(MAX_START_ORDER + 1)]
                          for p in range(MAX_START_ORDER + 1)], dtype=float)
# The step record: each diag key of a step that `integrate` hands on, and its
# Trajectory array
STEP_RECORD = {"iterations": "iterations", "residual": "step_residuals",
               "backtracks": "backtracks", "tangents": "tangents", "evaluations": "evaluations",
               "tangent_scale": "tangent_scales", "start_order": "start_orders"}


def _check_positive(name, value):
    """ValueError unless value is positive and finite (not NaN)."""
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def step_count(T, dt):
    """The number of steps of length dt to T; ValueError unless dt and T are
    positive and finite and T is a positive integer multiple of dt."""
    _check_positive("dt", dt)
    _check_positive("T", T)
    if not np.isfinite(T / dt):
        raise ValueError(f"T = {T} takes too many steps of dt = {dt}")
    n_steps = int(round(T / dt))
    if n_steps == 0:
        raise ValueError(f"T = {T} takes no step of dt = {dt}")
    if abs(n_steps * dt - T) > 1e-9 * max(1.0, T):
        raise ValueError(f"T = {T} is not an integer multiple of dt = {dt}")
    return n_steps


def start_order(recent):
    """The order of the next implicit step's start from the last states
    `recent` (m + 1 >= 2 of them, newest first: z_{n+1}, z_n, ...), m =
    min(len(recent) - 1, MAX_START_ORDER): the order p < m whose
    extrapolation from z_n, z_{n-1}, ... missed z_{n+1} least in the 2-norm,
    the lowest on a tie, and one order higher when that p is m - 1, the
    highest tried."""
    m = min(len(recent) - 1, MAX_START_ORDER)
    miss = np.linalg.norm(EXTRAPOLATION[:m, :m] @ recent[1:m + 1] - recent[0], axis=1)
    p = int(np.argmin(miss))
    return p + (p == m - 1)


class GalerkinState:
    """Time and reduced coefficient vector; `diag` holds the step record (the
    keys of STEP_RECORD) of the step that made the state when `integrate`
    hands it to its on_step hook, else None."""

    __slots__ = ("t", "z", "diag")

    def __init__(self, t, z):
        self.t = float(t)
        self.z = np.asarray(z, dtype=float)
        self.diag = None


class StateFields:
    """Quadrature-point tables of one state's closure fields: the strain
    planes eps(w) (3, nt, nq) of w = zeta_g + z (`MixedSpace.strain_planes`)
    and |eps(w)| (nt, nq) (`sym_norm` of the planes), without quadrature
    weights, which the closure folds into its own scalar."""

    __slots__ = ("w_eps", "w_eps_mag")

    def __init__(self, w_eps, w_eps_mag):
        self.w_eps = w_eps
        self.w_eps_mag = w_eps_mag


class Trajectory:
    """Uniform-step trajectory of reduced coefficients and its step record:
    from `diags`, the diag of each step as the on_step hook saw it, one
    array per key of STEP_RECORD over the time levels, 0 at the initial
    state."""

    def __init__(self, times, states, diags, completed=True):
        self.times = np.asarray(times)
        self.states = np.asarray(states)  # (n_times, N)
        for key, name in STEP_RECORD.items():
            setattr(self, name, np.array([0] + [d[key] for d in diags]))
        self.completed = completed

    def __len__(self):
        return len(self.times)


def initial_state(v0, basis):
    """Project an initial velocity onto the basis after trace/divergence checks."""
    space = basis.space
    v0 = np.asarray(v0, dtype=float)
    tol = INITIAL_TOL * max(1.0, float(np.abs(v0).max()) if v0.size else 1.0)
    trace = float(np.abs(v0[space.boundary_vdofs]).max()) if len(space.boundary_vdofs) else 0.0
    if trace > tol:
        raise ValueError(
            f"initial velocity has boundary trace {trace:.3e}; must vanish on the wall"
        )
    div = float(np.linalg.norm(space.B @ v0))
    if div > tol:
        raise ValueError(
            f"initial velocity has discrete divergence {div:.3e} (tolerance {tol:.1e})"
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
        self.strain_coef = space.strain_coefficients(W)  # F order, rows (plane, cell, vertex)
        self._check_strain(W)
        self.stress_weights = closure_scale(space.qweights, 1.0, params)  # 2 nu_tur w_q
        self.R = np.ascontiguousarray(T[:K, :K, K:].transpose(2, 0, 1))  # ((grad zeta_q) zeta_p, xi_k)
        self.P = V.T @ (space.M @ Z)  # (zeta_p, xi_k)
        if source is not None:
            self.S = source.part_loads(space) @ V  # S[j, k] = (F_j, xi_k)

    def truncate(self, n):
        """The system on the first n modes, 1 <= n <= size, from the leading
        blocks of this one's tables; it shares the space, lifting, pumps,
        params and source, and no state that a run changes, so runs may share
        one system and its truncations one after another."""
        sub = ReducedSystem.__new__(ReducedSystem)
        sub.space, sub.lifting, sub.pumps = self.space, self.lifting, self.pumps
        sub.params, sub.source = self.params, self.source
        sub.basis = self.basis.truncate(n)
        K = len(self.lifting)
        sub.visc = self.visc[:n, :n]
        sub.strain_coef = self.strain_coef[:, :K + n]  # a contiguous view
        sub.stress_weights = self.stress_weights
        sub.C = np.ascontiguousarray(self.C[:n, :K + n, :K + n])
        sub.R = self.R[:n]
        sub.P = self.P[:n]
        if self.source is not None:
            sub.S = self.S[:, :n]
        return sub

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

    def _check_strain(self, W):
        """The strain table's planes at y = 1 against the strain samples of
        w = W 1. Raises SolverError when they differ by more than 1e-12 times
        the largest strain entry."""
        y = np.ones(W.shape[1])
        ref = self.space.strain_samples(W @ y)
        ref = np.stack([ref[..., 0, 0], ref[..., 0, 1], ref[..., 1, 1]])
        gap = float(np.abs(self.space.strain_planes(self.strain_coef @ y) - ref).max())
        scale = float(np.abs(ref).max())
        if not gap <= 1e-12 * scale:
            raise SolverError(
                f"strain table is off the strain samples by {gap:.3e} "
                f"(strain scale {scale:.3e}, tolerance 1e-12 relative)"
            )

    # -- lift data per time and fields per state --------------------------------

    def lift_modal(self, t):
        """(g(t), (H_g(t), xi_k)), where (H_g, xi_k) = (F, xi_k) - P gdot - (R g) g
        and (F, xi_k) = S0 + a (S1 + a S2): offline tables only."""
        g, gdot = self.pumps.rates(t)
        hg = -(self.P @ gdot) - (self.R @ g) @ g
        if self.source is not None:
            hg = hg + self.source.combine(self.S, t)
        return g, hg

    def lift_fields(self, t):
        """(zeta_g(t), d zeta_g/dt(t)) as velocity coefficient vectors."""
        g, gdot = self.pumps.rates(t)
        return self.lifting.combine(g), self.lifting.combine(gdot)

    def velocity(self, z, t):
        """Reconstructed velocity v = zeta_g(t) + sum_k z_k xi_k."""
        return self.lifting.combine(self.pumps.rates(t)[0]) + self.basis.expand(z)

    def state_fields(self, z, g):
        """StateFields of w = zeta_g + z at the lift rates g and the modal
        coefficients z: the strain table times y = [g; z], then its planes
        and their norms. They are the caller's: `_closure` overwrites the
        ones it forms with its stress."""
        planes = self.space.strain_planes(self.strain_coef @ np.concatenate([g, z]))
        return StateFields(planes, sym_norm(*planes))

    # -- right-hand side -------------------------------------------------------

    def _conv_modal(self, z, g):
        """Modal pairings c(w; w, xi_k) - c(zeta_g; zeta_g, xi_k), w = zeta_g + z."""
        y = np.concatenate([g, z])
        return (self.C @ y) @ y

    def _closure(self, z, g):
        """(pairings, scale) of the Smagorinsky stress at w = zeta_g + z: the
        StateFields of w, then, in place in them, the scale table
        2 nu_tur w_q |e| (nt, nq), whose sum is the total eddy viscosity s,
        the stress planes 2 nu_tur w_q |e| e, and their pairings with the
        table's rows. Without the closure: zero pairings, an empty table."""
        if self.params.nu_tur == 0:
            return np.zeros(self.basis.size), np.zeros((0, 0))
        f = self.state_fields(z, g)
        f.w_eps_mag *= self.stress_weights
        f.w_eps *= f.w_eps_mag
        pairings = self.strain_coef[:, len(self.lifting):].T @ self.space.strain_load(f.w_eps)
        return pairings, f.w_eps_mag

    def _tangent(self, z, g):
        """T_VV = V^T K_T V at w = zeta_g + z, the closure tangent
        2 nu_tur (|e| I + e (x) e / |e|), e = eps(w), from the StateFields
        of w and one `weighted_strain_stiffness` call with the weights of
        `closure_tangent`. It is homogeneous of degree 1 in w, as the scale
        table is; the closure pairings are of degree 2."""
        f = self.state_fields(z, g)
        w, a = closure_tangent(f.w_eps_mag, self.params)
        return self.space.weighted_strain_stiffness(w, self.strain_coef[:, len(self.lifting):],
                                                    rank_one=(a, f.w_eps))

    def _rhs(self, z, g, hg):
        """dz/dt at z from the lift data (g, (H_g, xi_k)) of its time."""
        return hg - self.visc @ z - (self._conv_modal(z, g) + self._closure(z, g)[0])

    def rhs(self, z, t):
        """dz/dt at (z, t)."""
        return self._rhs(z, *self.lift_modal(t))

    # -- steppers ----------------------------------------------------------------

    def implicit_euler_newton(self, z_old, dt, t_new):
        """The functions (defect, tangent, jacobian) of the implicit-Euler
        step from z_old to t_new.

        - defect(z) -> (d, ||d||_2, scale): d = z - z_old + dt
          (visc z + (C y) y + closure(z) - H_g), y = [g; z], with the
          closure pairings formed as in `rhs`, and the closure's scale
          table at z (`_closure`).
        - tangent(z) -> T_VV, `_tangent` at the iterate z.
        - jacobian(z, T_VV) -> I + dt (visc + J_conv + T_VV), where
          J_conv[k, j] = sum_b (C[k, K+j, b] + C[k, b, K+j]) y_b is the
          derivative of (C y) y at z; T_VV None leaves the closure out.
        """
        g, hg = self.lift_modal(t_new)
        K = len(self.lifting)
        base = np.eye(self.basis.size) + dt * self.visc

        def defect(z):
            y = np.concatenate([g, z])
            pairings, scale = self._closure(z, g)
            d = z - z_old + dt * (self.visc @ z + (self.C @ y) @ y + pairings - hg)
            return d, float(np.linalg.norm(d)), scale

        def tangent(z):
            return self._tangent(z, g)

        def jacobian(z, T_VV):
            y = np.concatenate([g, z])
            jac = base + dt * ((self.C @ y)[:, K:] + y @ self.C[:, :, K:])
            if T_VV is not None:
                jac += dt * T_VV
            return jac

        return defect, tangent, jacobian

    def step_implicit_euler(self, state, dt, tol=1e-10, max_iter=50, t_new=None,
                            start=None, carry=None):
        """Solve z+ = z + dt rhs(z+, t+dt) by a simplified Newton iteration on
        the functions of `implicit_euler_newton`.

        The residual is the defect's coefficient 2-norm, and the first
        iterate (`start`, default z_old, first) at or below `tol` is the
        result; the defect is always taken against z_old. An update is
        z <- z - lambda J^{-1} d, with J's convection part taken at the
        current iterate and its closure tangent T_VV frozen. T_VV is the
        tangent carried in from an earlier step when `carry` = (T_VV, s_ref)
        is passed, else it is formed at the first update, at the first
        iterate.

        The closure stress 2 nu_tur |e| e is positively homogeneous of
        degree 2 in the strain, so its tangent is of degree 1: the tangent
        at lambda w is lambda times the one at w. A carried tangent travels
        with its reference scale s_ref, the eddy-viscosity scale s =
        sum 2 nu_tur w_q |e| at which it was formed or last rescaled, and
        is multiplied by s / s_ref before its first use, s the sum of the
        start defect's scale table; an s_ref of 0 (a tangent formed where
        the strain vanishes) leaves it as it is. T_VV is formed again at
        the current iterate, with the sum of the scale table of that
        iterate's defect as its s_ref, in two cases:

        - an update with a frozen tangent from an earlier iterate or step
          finds no decrease at lambda = 1; that trial is dropped;
        - an accepted update shrinks the residual by less than a factor
          CHORD_RATE.

        Every accepted update z+ = z - lambda dz (J dz = d) corrects the
        tangent by Broyden's secant update T_VV + r s^T / (dt s^T s), with
        s = z+ - z and r = d(z+) - (1 - lambda) d(z), so that the Newton
        matrix at z with the updated tangent maps s onto d(z+) - d(z). It
        reads only the two defects in hand and builds a new array, never
        writing into the one passed in; it is skipped when s = 0.

        An update with a tangent formed at its own iterate (every update
        without the closure, which is then Newton's method) starts at
        lambda = 1 and halves lambda while the residual does not fall (the
        line search of Kelley, ch. 8, with simple decrease), at most
        MAX_HALVINGS times. The diag counts the halvings as "backtracks"
        and the kernel calls as "tangents", records the factor applied to
        the carried tangent as "tangent_scale" (1.0 when none was), and
        hands on as "carry" the pair (T_VV, s_ref) for a next step to
        carry: the tangent in use at the end, with its secant updates, and
        the scale of the iterate it was formed at, or the start's scale it
        was rescaled to; None when the step neither carried a tangent in
        nor formed one. The pair lives in the caller only, so a run leaves
        the system as it found it for the next run. A trial's defect is the
        next iterate's, so an accepted update costs one defect evaluation;
        the diag counts the start's defect and every trial, dropped or
        accepted, as "evaluations". A failure raises StepError with the
        time, the iteration count and the residuals of the accepted
        iterates.
        """
        if t_new is None:
            t_new = state.t + dt
        defect, tangent, jacobian = self.implicit_euler_newton(state.z, dt, t_new)
        closure = self.params.nu_tur > 0  # else T_VV stays None: Newton's method

        def fail(why):
            raise StepError(
                f"implicit Euler step at t={t_new:.6g} {why} "
                f"(best residual {min(history):.3e}, target {tol:.1e}); reduce dt",
                residual=min(history), t=t_new, iterations=len(history) - 1,
                history=history,
            )

        z = state.z if start is None else start
        d, res, scale = defect(z)
        factor = 1.0  # applied to the carried tangent
        T_VV = None
        if carry is not None:
            T_VV, s_ref = carry
            s_new = float(scale.sum())
            if s_ref > 0:
                factor = s_new / s_ref
            T_VV, s_ref = factor * T_VV, s_new
        history = [res]
        backtracks = tangents = 0
        evaluations = 1
        refresh = T_VV is None  # form T_VV at the next update
        stale = not refresh  # T_VV was formed at an earlier iterate or step
        while not res <= tol:
            if len(history) > max_iter:
                fail(f"did not converge in {max_iter} Newton iterations")
            if refresh and closure:
                T_VV, s_ref = tangent(z), float(scale.sum())
                tangents += 1
                refresh = stale = False
            try:
                dz = np.linalg.solve(jacobian(z, T_VV), d)
            except np.linalg.LinAlgError:
                fail("met a singular Newton matrix")
            lam = 1.0
            for halvings in range(MAX_HALVINGS + 1):
                z_try = z - lam * dz
                d_try, res_try, scale_try = defect(z_try)
                evaluations += 1
                if res_try < res or stale:  # a frozen tangent gets one trial
                    break
                lam *= 0.5
            else:
                fail(f"found no decrease of the residual in {MAX_HALVINGS} halvings")
            if not res_try < res:  # refresh the frozen tangent at z
                refresh = True
                continue
            backtracks += halvings
            refresh = res_try > CHORD_RATE * res
            stale = T_VV is not None
            s = z_try - z
            ss = s @ s
            if stale and ss > 0:  # Broyden: the Newton matrix at z now maps s to d_try - d
                T_VV = T_VV + np.outer(d_try - (1.0 - lam) * d, s) / (dt * ss)
            z, d, res, scale = z_try, d_try, res_try, scale_try
            history.append(res)
        diag = {"iterations": len(history) - 1, "residual": res, "backtracks": backtracks,
                "tangents": tangents, "evaluations": evaluations, "tangent_scale": factor,
                "carry": None if T_VV is None else (T_VV, s_ref)}
        return GalerkinState(t_new, z), diag

    def step_rk4(self, state, dt, t_new=None, carry=None):
        """Classical RK4: the lift data of each distinct time (t, t + dt/2,
        t_new) formed once, those of t passed in as `carry` when the caller
        has them (`lift_modal(t)`). The diag hands on t_new's as "carry"."""
        t, z = state.t, state.z
        if t_new is None:
            t_new = t + dt
        mid = self.lift_modal(t + 0.5 * dt)
        end = self.lift_modal(t_new)
        k1 = self._rhs(z, *(self.lift_modal(t) if carry is None else carry))
        k2 = self._rhs(z + 0.5 * dt * k1, *mid)
        k3 = self._rhs(z + 0.5 * dt * k2, *mid)
        k4 = self._rhs(z + dt * k3, *end)
        z_new = z + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        return GalerkinState(t_new, z_new), {"iterations": 4, "residual": 0.0, "backtracks": 0,
                                             "tangents": 0, "evaluations": 4,
                                             "tangent_scale": 1.0, "carry": end}

    def step(self, state, dt, scheme="implicit-euler", **kw):
        """One step of `scheme` with its stepper's keywords; a keyword the
        scheme's stepper does not read is a TypeError."""
        _check_positive("dt", dt)
        steppers = {"implicit-euler": self.step_implicit_euler, "explicit-rk4": self.step_rk4}
        if scheme not in steppers:
            raise ValueError(f"unknown scheme {scheme!r}")
        return steppers[scheme](state, dt, **kw)

    def integrate(self, state0, T, dt, scheme="implicit-euler", tol=1e-10,
                  on_step=None):
        """Step from state0 to T; on failure the partial trajectory is attached.
        After each step, on_step(state) receives the new state with its
        step's diag as `state.diag`; the Trajectory is built from these.

        Implicit Euler carries Newton data from one step to the next, as
        stiff integrators keep their Jacobian (Hairer & Wanner, IV.8). The
        first step starts at z_0. Once step n + 1 is accepted, the order-p
        extrapolations pi_p = sum_{j=0..p} (-1)^j C(p + 1, j + 1) z_{n-j}
        (the rows of EXTRAPOLATION) of z_{n+1} from the states before it,
        p < min(n + 1, MAX_START_ORDER), choose the order of step n + 2's
        start (`start_order`): the p whose pi_p missed z_{n+1} least in the
        2-norm, the lowest on a tie, and p + 1 when p was the highest
        tried. Step n + 2 starts from that order's extrapolation through
        z_{n+1}, so step 2 starts at 2 z_1 - z_0. The diag gains
        "start_order", the order of the step's start: 0 for a start at
        z_n and for RK4. Each step is passed as `carry` what the step
        before hands on as its diag's "carry", which is popped from the
        diag: implicit Euler's closure tangent, with its secant updates,
        and its reference scale; RK4's lift data of t_{n+1}, from step n's
        k4 to step n + 1's k1, so n steps form 2 n + 1 of them. They are
        locals of this call, never state of the system.
        """
        n_steps = step_count(T, dt)
        times = [state0.t]
        states = [state0.z.copy()]
        diags = []
        state = state0
        implicit = scheme == "implicit-euler"
        kw = {"tol": tol} if implicit else {}
        order = 0  # of this step's start
        for k in range(n_steps):
            kw["t_new"] = state0.t + (k + 1) * dt  # exact grid, no accumulation
            try:
                new, diag = self.step(state, dt, scheme=scheme, **kw)
            except StepError as exc:
                exc.trajectory = Trajectory(times, states, diags, completed=False)
                raise
            diag["start_order"] = order
            new.diag = diag
            state = new
            times.append(state.t)
            states.append(state.z.copy())
            diags.append(diag)
            kw["carry"] = diag.pop("carry")
            if implicit:  # the next step starts from the extrapolation of the last states
                recent = np.array(states[:-MAX_START_ORDER - 2:-1])  # the last P + 1, newest first
                order = start_order(recent)
                kw["start"] = EXTRAPOLATION[order, :order + 1] @ recent[:order + 1]
            if on_step is not None:
                on_step(state)
        return Trajectory(times, states, diags)
