"""Computable ledgers for the a priori energy estimates and the uniqueness
contraction.

The inequalities being monitored carry unspecified constants, so the ledger
reports *fitted empirical* constants and the monitored quantities; nothing
here asserts an inequality with an unknown constant as pass/fail. State
integrals are trapezoid sums on the trajectory save grid; pure lift-data
integrals use interval midpoints because the pump rates jump at schedule
knots. The time derivative of z is a backward difference on that grid.
"""

import numpy as np

from .galerkin import StateFields
from .turbulence import strain_norm, sym_grad


def _lp(space, mag, p):
    """(int mag^p)^(1/p) by cell quadrature of samples mag (nt, nq)."""
    return space.integrate(mag**p) ** (1.0 / p)


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


def ledger(system, traj):
    """Evaluate the energy ledger of a reduced trajectory."""
    if len(traj) < 2:
        raise ValueError("ledger needs a trajectory with at least two saved steps")
    space = system.space
    times = traj.times
    n = len(times)
    rows = {k: np.zeros(n) for k in EnergyLedger.COLUMNS}

    eps_z_sq = np.zeros(n)
    eps_w_cu = np.zeros(n)
    eps_z_cu = np.zeros(n)
    for i, t in enumerate(times):
        lift = system.lift_data(t)
        zf = system.basis.expand(traj.states[i])
        z_grads = space.eval_grads(zf)
        f = StateFields(lift.zg_grads + z_grads)
        ez, edzg = strain_norm(sym_grad(z_grads)), strain_norm(sym_grad(lift.dzg_grads))
        z_mag = np.linalg.norm(space.eval_values(zf), axis=-1)
        ew_l3 = _lp(space, f.w_eps_mag, 3)
        rows["z_l2_sq"][i] = _lp(space, z_mag, 2) ** 2
        eps_z_sq[i] = _lp(space, ez, 2) ** 2
        eps_w_cu[i] = ew_l3**3
        eps_z_cu[i] = _lp(space, ez, 3) ** 3
        rows["psi1"][i] = _lp(space, f.w_eps_mag, 2) ** 2 + eps_w_cu[i]
        rows["psi2"][i] = ew_l3**2 + _lp(space, edzg, 2) ** 2 + _lp(space, edzg, 3) ** 1.5
        # strain_norm of a gradient table is |grad z|
        rows["z_w12_sq"][i] = rows["z_l2_sq"][i] + _lp(space, strain_norm(z_grads), 2) ** 2
        rows["z_w13_cu"][i] = _lp(space, z_mag, 3) ** 3 + eps_z_cu[i]
        rows["hg_l2_sq"][i], rows["hg_tilde_l2_sq"][i] = _hg_sq(space, lift)
        if i > 0:
            dt = times[i] - times[i - 1]
            dz = (traj.states[i] - traj.states[i - 1]) / dt
            rows["dzdt_l2_sq"][i] = dz @ dz  # the basis is L2-orthonormal

    rows["int_eps_z_l2_sq"] = _running_trapezoid(times, eps_z_sq)
    rows["int_eps_w_l3_cu"] = _running_trapezoid(times, eps_w_cu)
    rows["int_eps_z_l3_cu"] = _running_trapezoid(times, eps_z_cu)

    # g(0) = 0, so v(0) = z(0) and its data terms are the first row's
    v0 = {"v0_l2_sq": rows["z_l2_sq"][0], "eps_v0_l2_sq": eps_z_sq[0],
          "eps_v0_l3_cu": eps_z_cu[0]}
    data = _data_functionals(system, times, rows, v0)
    return EnergyLedger(times, rows, data)


def _running_trapezoid(times, vals):
    out = np.zeros_like(vals)
    dt = np.diff(times)
    out[1:] = np.cumsum(0.5 * dt * (vals[1:] + vals[:-1]))
    return out


def _trapezoid(times, vals):
    return float(np.trapezoid(vals, times))


def _hg_sq(space, data):
    """(||H_g||^2, ||H~_g||^2) in L2 from the tables of one LiftData."""
    return tuple(space.integrate((f * f).sum(axis=-1)) for f in (data.h, data.h_tilde))


def _midpoint(times, f):
    """Interval-midpoint quadrature of a scalar- or tuple-valued f; robust to
    the piecewise-constant pump rates, whose jumps sit on save-grid nodes."""
    dt = np.diff(times)
    mids = 0.5 * (times[1:] + times[:-1])
    vals = np.array([f(t) for t in mids], order="F").T  # contiguous per component
    return np.sum(dt * vals, axis=-1).tolist()


def _lift_functionals(space, data):
    """(||H_g||^2, ||H~_g||^2, ||zeta_g||^3_L3 + ||eps(zeta_g)||^3_L3,
    ||d zeta_g/dt||^2_H1, (||d zeta_g/dt||^3_L3 + ||eps(d zeta_g/dt)||^3_L3)^(2/3))
    at one time."""
    zg_mag, dzg_mag = (np.linalg.norm(v, axis=-1) for v in (data.zg_vals, data.dzg_vals))
    ezg, edzg = (strain_norm(sym_grad(g)) for g in (data.zg_grads, data.dzg_grads))
    return (
        *_hg_sq(space, data),
        _lp(space, zg_mag, 3) ** 3 + _lp(space, ezg, 3) ** 3,
        _lp(space, dzg_mag, 2) ** 2 + _lp(space, strain_norm(data.dzg_grads), 2) ** 2,
        (_lp(space, dzg_mag, 3) ** 3 + _lp(space, edzg, 3) ** 3) ** (2 / 3),
    )


def _data_functionals(system, times, rows, v0):
    params = system.params
    space = system.space
    keys = ("hg_l2l2_sq", "hg_tilde_l2l2_sq", "zg_l3w13_cu", "dzg_l2h1_sq", "dzg_l2w13_cu")
    vals = _midpoint(times, lambda t: _lift_functionals(space, system.lift_data(t)))
    data = {**v0, **dict(zip(keys, vals))}
    data["dzg_l2w13_cu"] **= 1.5

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
    return data


class ContractionReport:
    """Gronwall diagnostics for a pair of runs differing in z0 only."""

    def __init__(self, times, diff_sq, w8, fitted_C2, raw_max_ratio, identical):
        self.times = times
        self.diff_sq = diff_sq          # ||v1 - v2||^2_{L2} per time
        self.w8 = w8                    # ||v1||^8_{L4} per time
        self.fitted_C2 = fitted_C2
        self.raw_max_ratio = raw_max_ratio
        self.identical = identical
        # left-Riemann cumulative of w8 makes the adjusted norm telescope
        dt = np.diff(times)
        self.cum_w8 = np.concatenate([[0.0], np.cumsum(dt * w8[:-1])])

    def adjusted(self, C2=None):
        """exp(-C2 cum_w8) ||v1-v2||^2; non-increasing under the fitted C2."""
        c = self.fitted_C2 if C2 is None else C2
        return np.exp(-c * self.cum_w8) * self.diff_sq

    def bound_holds(self, C2, slack=1.05):
        """Check ||v(t)||^2 <= slack * ||v(0)||^2 exp(C2 int ||v1||^8)."""
        if self.diff_sq[0] == 0.0:
            return bool(np.all(self.diff_sq <= 1e-28))
        bound = slack * self.diff_sq[0] * np.exp(C2 * self.cum_w8)
        return bool(np.all(self.diff_sq <= bound))


def contraction(system, traj1, traj2, denom_floor=1e-14):
    """Fit the Gronwall constant from a perturbation pair.

    traj1 is the base run whose velocity enters ||v1||^8_{L4}; both runs
    must share the time grid (identical configs except the initial state).
    """
    if len(traj1) != len(traj2) or not np.allclose(traj1.times, traj2.times):
        raise ValueError("contraction requires runs on identical time grids")
    times = traj1.times
    n = len(times)
    diff_sq = np.zeros(n)
    w8 = np.zeros(n)
    space = system.space
    for i, t in enumerate(times):
        dz = traj1.states[i] - traj2.states[i]
        diff_sq[i] = dz @ dz  # the basis is L2-orthonormal
        v1 = system.velocity(traj1.states[i], t)
        w8[i] = space.norm(v1, "L4") ** 8

    identical = bool(np.all(diff_sq <= 1e-28))
    ratios = []
    for i in range(n - 1):
        dt = times[i + 1] - times[i]
        denom = diff_sq[i] * w8[i]
        if denom > denom_floor:
            ratios.append((diff_sq[i + 1] - diff_sq[i]) / dt / denom)
    raw = max(ratios) if ratios else 0.0
    fitted = max(raw, 0.0)
    return ContractionReport(times, diff_sq, w8, fitted, raw, identical)

