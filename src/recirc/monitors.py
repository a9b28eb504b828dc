"""Computable ledgers for the a priori energy estimates and the uniqueness
contraction.

The inequalities being monitored carry unspecified constants, so the ledger
reports *fitted empirical* constants and the monitored quantities; nothing
here asserts an inequality with an unknown constant as pass/fail. State
integrals are trapezoid sums on the trajectory save grid; pure lift-data
integrals use interval midpoints because the pump rates jump at schedule
knots. The time derivative of z is a backward difference on that grid.

Every L2 term is a quadratic form in coefficients, the offline/online split
of quadratic outputs (Rozza, Huynh & Patera, ARCME 15, 2008). On the columns
W = [Z | V] of lifts and modes, with y = [g; z] and the Gram matrices that
one `ledger` call forms once,

    ||z||^2 = z . z (the basis is L2-orthonormal),
    ||eps(sum y_a u_a)||^2 = y^T E y,  E = W^T K_eps W / 2,
    ||grad z||^2 = z^T (V^T K_grad V) z,  ||d zeta_g/dt||^2_H1 = gdot^T Z^T (M + K_grad) Z gdot,
    ||H_g||^2 = c^T G c,  H_g = sum_i c_i(t) phi_i,

over the fixed fields phi = [F0, F1, F2, zeta_k, (grad zeta_q) zeta_p] (the
source's parts only when it exists) with c(t) = [1, a, a^2, -gdot, -g (x) g],
a = a(t) the source's time factor; ||H~_g||^2 = ||F - d zeta_g/dt||^2 is the
same form without the g (x) g block. G is the quadrature Gram matrix of phi
(`_hg_gram`), built one block of fields at a time. Each form is the
quadrature sum it replaces, regrouped, so it agrees with it to roundoff.

Only the L3 terms read quadrature-point tables. Every strain comes from
the system's strain table (`ReducedSystem.strain_coef`), the one the
steppers read: at a save time the ledger reads |eps(w)| from
`ReducedSystem.state_fields`, the bundle the steppers form, |eps(z)| from
the table's mode columns times z, and |z| from one value table of the
expanded state. The lift's L3 terms read one value table of
`LiftingBasis.combine(r)` and the table's lift columns times r per distinct
rate vector r, keyed by its exact bytes: g at the midpoints for zeta_g,
gdot at the save times and the midpoints for its rate. A source enters through G alone, so nothing is keyed
by t; without pumps there is no lift table at all. The key is exact, not
rounded or given a tolerance: equal keys give the same field bit for bit,
while a tolerant key could merge rates that differ. Only scalars are kept,
never a table, so memory does not grow with the save count.
"""

import numpy as np

from .turbulence import sym_norm

BOUND_SLACK = 1.05  # relative room the contraction bound allows the measured difference
DENOM_FLOOR = 1e-14  # smallest ||v1 - v2||^2 ||v1||^8_L4 a contraction ratio is taken at


class EnergyLedger:
    """Per-time rows of every quantity in the a priori estimates.

    Attributes
    ----------
    times : (n,) save grid
    rows : dict of (n,) arrays, keys listed in COLUMNS
    data : dict of scalar data functionals and fitted constants
    """

    COLUMNS = (
        "z_l2_sq",            # ||z||^2_{L2}
        "dzdt_l2_sq",         # backward-difference ||dz/dt||^2_{L2}
        "int_eps_z_l2_sq",    # running int ||eps(z)||^2
        "int_eps_w_l3_cu",    # running int ||eps(zg+z)||^3_{L3}
        "int_eps_z_l3_cu",    # running int ||eps(z)||^3_{L3}
        "psi1",               # ||eps(zg+z)||^2_{L2} + ||eps(zg+z)||^3_{L3}
        "psi2",               # ||eps(zg+z)||^2_{L3} + ||eps(dzg/dt)||^2_{L2} + ||eps(dzg/dt)||^{3/2}_{L3}
        "hg_l2_sq",           # ||H_g(t)||^2_{L2}
        "hg_tilde_l2_sq",     # ||F - dzg/dt||^2_{L2}
        "z_w12_sq",           # ||z||^2_{L2} + ||grad z||^2_{L2}
        "z_w13_cu",           # ||z||^3_{L3} + ||eps(z)||^3_{L3}
    )

    def __init__(self, times, rows, data):
        self.times = times
        self.rows = rows
        self.data = data


def _lift_mode_columns(system):
    """W = [Z | V]: the lifts' and the modes' velocity coefficient columns."""
    return np.column_stack([system.lifting.zetas.T, system.basis.fields])


def velocity_l2(system, traj):
    """||v||_L2 of v = zeta_g + V z at every save time, from the Gram form
    y^T (W^T M W) y with y = [g; z]."""
    W = _lift_mode_columns(system)
    gram = W.T @ (system.space.M @ W)
    y = np.array([np.concatenate([system.pumps.rates(t)[0], z])
                  for t, z in zip(traj.times, traj.states)])
    return np.sqrt(np.einsum("ia,ab,ib->i", y, gram, y))


def ledger(system, traj):
    """Evaluate the energy ledger of a reduced trajectory."""
    if len(traj) < 2:
        raise ValueError("ledger needs a trajectory with at least two saved steps")
    space = system.space
    times = traj.times
    n = len(times)
    rows = {k: np.zeros(n) for k in EnergyLedger.COLUMNS}

    K = len(system.lifting)
    W = _lift_mode_columns(system)
    Z, V = W[:, :K], W[:, K:]
    E = 0.5 * (W.T @ (space.K_eps @ W))  # ||eps(W y)||^2 = y^T E y
    E_ZZ, E_VV = E[:K, :K], E[K:, K:]
    coef_V = system.strain_coef[:, K:]
    grad_VV = V.T @ (space.K_grad @ V)
    h1_ZZ = Z.T @ ((space.M + space.K_grad) @ Z)
    hg_sq = _hg_form(system)
    cubes = _lift_cubes(system)

    eps_z_sq = np.zeros(n)
    eps_w_cu = np.zeros(n)
    eps_z_cu = np.zeros(n)
    for i, t in enumerate(times):
        g, gdot = system.pumps.rates(t)
        z = traj.states[i]
        y = np.concatenate([g, z])
        eps_w_cu[i] = _cube(space, system.state_fields(z, g).w_eps_mag)
        z_l3_cu, eps_z_cu[i] = _cubes(space, system.basis.expand(z), coef_V @ z)
        eps_z_sq[i] = z @ E_VV @ z
        rows["z_l2_sq"][i] = z @ z
        rows["psi1"][i] = y @ E @ y + eps_w_cu[i]
        rows["psi2"][i] = (eps_w_cu[i] ** (2 / 3) + gdot @ E_ZZ @ gdot
                           + cubes(gdot)[1] ** 0.5)
        rows["z_w12_sq"][i] = rows["z_l2_sq"][i] + z @ grad_VV @ z
        rows["z_w13_cu"][i] = z_l3_cu + eps_z_cu[i]
        rows["hg_l2_sq"][i], rows["hg_tilde_l2_sq"][i] = hg_sq(t, g, gdot)
        if i > 0:
            dt = times[i] - times[i - 1]
            dz = (traj.states[i] - traj.states[i - 1]) / dt
            rows["dzdt_l2_sq"][i] = dz @ dz  # the basis is L2-orthonormal

    rows["int_eps_z_l2_sq"] = _running_trapezoid(times, eps_z_sq)
    rows["int_eps_w_l3_cu"] = _running_trapezoid(times, eps_w_cu)
    rows["int_eps_z_l3_cu"] = _running_trapezoid(times, eps_z_cu)

    def integrands(t):
        """The data functionals' integrands at an interval midpoint t:
        ||H_g||^2, ||H~_g||^2, ||zeta_g||^3_L3 + ||eps(zeta_g)||^3_L3,
        ||d zeta_g/dt||^2_H1 and (||d zeta_g/dt||^3_L3 + ||eps(d zeta_g/dt)||^3_L3)^(2/3)."""
        g, gdot = system.pumps.rates(t)
        return (*hg_sq(t, g, gdot), sum(cubes(g)), gdot @ h1_ZZ @ gdot,
                sum(cubes(gdot)) ** (2 / 3))

    # g(0) = 0, so v(0) = z(0) and its data terms are the first row's
    data = {"v0_l2_sq": rows["z_l2_sq"][0], "eps_v0_l2_sq": eps_z_sq[0],
            "eps_v0_l3_cu": eps_z_cu[0]}
    keys = ("hg_l2l2_sq", "hg_tilde_l2l2_sq", "zg_l3w13_cu", "dzg_l2h1_sq", "dzg_l2w13_cu")
    data.update(zip(keys, _midpoint(times, integrands)))
    data["dzg_l2w13_cu"] **= 1.5
    _estimates(system.params, times, rows, data)
    return EnergyLedger(times, rows, data)


def _cube(space, mag):
    """int mag^3 by cell quadrature of samples mag (nt, nq)."""
    return space.integrate(mag * mag * mag)


def _cubes(space, u, s):
    """(int |u|^3, int |eps(u)|^3) of a velocity field u with strain
    coefficients s, from one value table and the planes of s."""
    vals = space.eval_values(u)
    return (_cube(space, np.sqrt(vals[..., 0] ** 2 + vals[..., 1] ** 2)),
            _cube(space, sym_norm(*space.strain_planes(s))))


def _lift_cubes(system):
    """The map r -> `_cubes` of u = lifting.combine(r), whose strain
    coefficients are the table's lift columns times r, formed once per
    distinct rate vector r of one ledger call (keyed by its exact bytes), and
    (0, 0) without pumps."""
    space, lifting = system.space, system.lifting
    coef_Z = system.strain_coef[:, :len(lifting)]
    kept = {}

    def cubes(r):
        key = r.tobytes()
        if key not in kept:
            kept[key] = _cubes(space, lifting.combine(r), coef_Z @ r) if len(r) else (0.0, 0.0)
        return kept[key]

    return cubes


def _hg_gram(system):
    """G[i, j] = int phi_i . phi_j by cell quadrature, over the fields
    phi = [F0, F1, F2, zeta_k, (grad zeta_q) zeta_p]: the source's parts
    table (none without a source), the K lifts, and the K^2 lift convection
    fields, index K q + p.

    The fields are formed a block at a time, the parts, the lifts, and the
    K fields of each q, as component planes (m, 2, nt, nq), and each pair of
    blocks gives one block of G. A convection block is formed again for
    every block it is paired with, so at most two are held at once, never
    all K^2 fields.
    """
    space, zetas = system.space, system.lifting.zetas
    K = len(zetas)
    vals = np.reshape([np.moveaxis(space.eval_values(z), -1, 0) for z in zetas],
                      (K, 2) + space.qweights.shape)
    parts = (vals[:0] if system.source is None
             else np.moveaxis(system.source.parts_table(space), -1, 1))

    def block(b):
        if b == 0:
            return parts
        if b == 1:
            return vals
        grads = space.eval_grads(zetas[b - 2])  # [a, c] = d zeta_q,a / d x_c
        conv = np.empty_like(vals)
        for a in range(2):
            conv[:, a] = grads[..., a, 0] * vals[:, 0] + grads[..., a, 1] * vals[:, 1]
        return conv

    ends = np.cumsum([0, len(parts), K] + [K] * K)
    spans = [slice(lo, hi) for lo, hi in zip(ends[:-1], ends[1:])]
    G = np.zeros((ends[-1], ends[-1]))
    for i, si in enumerate(spans):
        a = block(i)
        wa = space.qweights * a
        for j in range(i, len(spans)):
            sj = spans[j]
            G[si, sj] = np.tensordot(wa, a if j == i else block(j), ([1, 2, 3],) * 2)
            G[sj, si] = G[si, sj].T
    return G


def _hg_form(system):
    """The map (t, g, gdot) -> (||H_g||^2, ||H~_g||^2) at rates (g, gdot) =
    pumps.rates(t), as the quadratic forms c^T G c of `_hg_gram` with
    c = [1, a, a^2, -gdot, -g (x) g] (a from the source's own `combine`), and
    with the g (x) g block left out."""
    G = _hg_gram(system)
    source = system.source
    m = len(G) - len(system.lifting) ** 2  # the parts and the lifts

    def form(t, g, gdot):
        c = np.concatenate([[] if source is None else source.combine(np.eye(3), t),
                            -gdot, -np.outer(g, g).ravel()])
        return c @ G @ c, c[:m] @ G[:m, :m] @ c[:m]

    return form


def _running_trapezoid(times, vals):
    out = np.zeros_like(vals)
    dt = np.diff(times)
    out[1:] = np.cumsum(0.5 * dt * (vals[1:] + vals[:-1]))
    return out


def _trapezoid(times, vals):
    return float(np.trapezoid(vals, times))


def _midpoint(times, f):
    """Interval-midpoint quadrature of a scalar- or tuple-valued f; robust to
    the piecewise-constant pump rates, whose jumps sit on save-grid nodes."""
    dt = np.diff(times)
    mids = 0.5 * (times[1:] + times[:-1])
    vals = np.array([f(t) for t in mids], order="F").T  # contiguous per component
    return np.sum(dt * vals, axis=-1).tolist()


def _estimates(params, times, rows, data):
    """Add the two estimates' sides and fitted constants to data, which holds
    the initial-state terms and the data functionals."""
    # first estimate: sup-of-z triple against its data functionals
    lhs1 = (
        rows["z_l2_sq"].max()
        + _trapezoid(times, rows["z_w12_sq"])
        + _trapezoid(times, rows["z_w13_cu"])
    )
    rhs1 = data["v0_l2_sq"] + data["zg_l3w13_cu"] + data["hg_l2l2_sq"]
    data["estimate1_lhs"] = lhs1
    data["estimate1_rhs"] = rhs1
    data["C1_empirical"] = lhs1 / rhs1 if rhs1 > 0 else np.inf

    # second estimate: time-derivative triple against its exponential data bound
    lhs2 = (
        _trapezoid(times, rows["dzdt_l2_sq"])
        + rows["z_w12_sq"].max()
        + rows["z_w13_cu"].max()
    )
    base2 = (
        params.nu * data["eps_v0_l2_sq"]
        + (2.0 / 3.0) * params.nu_tur * data["eps_v0_l3_cu"]
        + data["hg_tilde_l2l2_sq"]
    )
    expo = (
        data["v0_l2_sq"]
        + data["zg_l3w13_cu"]
        + data["hg_l2l2_sq"]
        + data["dzg_l2h1_sq"]
        + data["dzg_l2w13_cu"]
    )
    rhs2 = base2 * (1.0 + np.exp(min(expo, 700.0)))
    data["estimate2_lhs"] = lhs2
    data["estimate2_rhs"] = rhs2
    data["estimate2_exponent"] = expo  # the Gronwall data factor can be huge
    data["C2_empirical"] = lhs2 / rhs2 if rhs2 > 0 else np.inf


class ContractionReport:
    """Gronwall diagnostics for a pair of runs differing in z0 only."""

    def __init__(self, times, diff_sq, w8, fitted_C2, identical):
        self.times = times
        self.diff_sq = diff_sq          # ||v1 - v2||^2_{L2} per time
        self.w8 = w8                    # ||v1||^8_{L4} per time
        self.fitted_C2 = fitted_C2
        self.identical = identical
        # left-Riemann cumulative of w8 makes the adjusted norm telescope
        dt = np.diff(times)
        self.cum_w8 = np.concatenate([[0.0], np.cumsum(dt * w8[:-1])])

    def adjusted(self):
        """exp(-C2 cum_w8) ||v1-v2||^2 at the fitted C2; non-increasing."""
        return np.exp(-self.fitted_C2 * self.cum_w8) * self.diff_sq

    def bound_holds(self, C2):
        """Check ||v(t)||^2 <= BOUND_SLACK ||v(0)||^2 exp(C2 int ||v1||^8)."""
        if self.diff_sq[0] == 0.0:
            return bool(np.all(self.diff_sq <= 1e-28))
        bound = BOUND_SLACK * self.diff_sq[0] * np.exp(C2 * self.cum_w8)
        return bool(np.all(self.diff_sq <= bound))


def contraction(system, traj1, traj2, w8=None):
    """Fit the Gronwall constant from a perturbation pair.

    traj1 is the base run whose velocity enters ||v1||^8_{L4}; both runs
    must share the time grid (identical configs except the initial state).
    w8, the `ContractionReport.w8` of an earlier call on the same base run,
    is that series, read instead of formed again.
    """
    if len(traj1) != len(traj2) or not np.allclose(traj1.times, traj2.times):
        raise ValueError("contraction requires runs on identical time grids")
    times = traj1.times
    n = len(times)
    # the basis is L2-orthonormal
    diff_sq = np.array([dz @ dz for dz in traj1.states - traj2.states])
    if w8 is None:
        w8 = np.array([system.space.norm(system.velocity(z, t), "L4") ** 8
                       for t, z in zip(times, traj1.states)])

    identical = bool(np.all(diff_sq <= 1e-28))
    ratios = []
    for i in range(n - 1):
        dt = times[i + 1] - times[i]
        denom = diff_sq[i] * w8[i]
        if denom > DENOM_FLOOR:
            ratios.append((diff_sq[i + 1] - diff_sq[i]) / dt / denom)
    fitted = max(max(ratios, default=0.0), 0.0)
    return ContractionReport(times, diff_sq, w8, fitted, identical)

