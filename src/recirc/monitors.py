"""Computable ledgers for the a priori energy estimates and the uniqueness
contraction.

The inequalities being monitored carry unspecified constants, so the ledger
reports *fitted empirical* constants and the monitored quantities; nothing
here asserts an inequality with an unknown constant as pass/fail. State
integrals are trapezoid sums on the trajectory save grid; pure lift-data
integrals use interval midpoints because the pump rates jump at schedule
knots. The time derivative of z is a backward difference on that grid.

The lift side of the ledger (H_g, the strain and L3 norms of zeta_g and its
rate) depends on t only through the pump rates (g, gdot), and through the
source's time factor a(t) when a source exists (its values come from the
source's parts table, formed once per space). So one `ledger` call
evaluates it once per distinct lift state, keyed by the exact bytes of
(g, gdot), plus t with a source, and reads the kept scalars at every save
time and midpoint with that key; on a rate plateau that is one evaluation
for all of it. A state gets the row terms only if a save time reads it, and
the midpoint integrands only if a midpoint does. The key is exact, not
rounded or given a tolerance: equal keys give the same `LiftData` bit for
bit, so reuse changes no digit, while a tolerant key could merge states
that differ. Only scalars are kept, never quadrature tables, so memory does
not grow with the save count. The state side expands each saved state once and hands the
expansion to `ReducedSystem.state_fields`, so the ledger reads the closure
fields the steppers formed.
"""

import numpy as np

from .turbulence import strain_norm, sym_grad

BOUND_SLACK = 1.05  # relative room the contraction bound allows the measured difference
DENOM_FLOOR = 1e-14  # smallest ||v1 - v2||^2 ||v1||^8_L4 a contraction ratio is taken at


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
    row_terms, integrands = _lift_scalars(system, times)
    for i, t in enumerate(times):
        g, _ = system.pumps.rates(t)
        hg, hg_tilde, edzg_l2_sq, edzg_l3_32 = row_terms(t)
        zf = system.basis.expand(traj.states[i])
        z_grads = space.eval_grads(zf)
        f = system.state_fields(zf, g)
        ez = strain_norm(sym_grad(z_grads))
        z_mag = np.linalg.norm(space.eval_values(zf), axis=-1)
        ew_l3 = _lp(space, f.w_eps_mag, 3)
        rows["z_l2_sq"][i] = _lp(space, z_mag, 2) ** 2
        eps_z_sq[i] = _lp(space, ez, 2) ** 2
        eps_w_cu[i] = ew_l3**3
        eps_z_cu[i] = _lp(space, ez, 3) ** 3
        rows["psi1"][i] = _lp(space, f.w_eps_mag, 2) ** 2 + eps_w_cu[i]
        rows["psi2"][i] = ew_l3**2 + edzg_l2_sq + edzg_l3_32
        # strain_norm of a gradient table is |grad z|
        rows["z_w12_sq"][i] = rows["z_l2_sq"][i] + _lp(space, strain_norm(z_grads), 2) ** 2
        rows["z_w13_cu"][i] = _lp(space, z_mag, 3) ** 3 + eps_z_cu[i]
        rows["hg_l2_sq"][i], rows["hg_tilde_l2_sq"][i] = hg, hg_tilde
        if i > 0:
            dt = times[i] - times[i - 1]
            dz = (traj.states[i] - traj.states[i - 1]) / dt
            rows["dzdt_l2_sq"][i] = dz @ dz  # the basis is L2-orthonormal

    rows["int_eps_z_l2_sq"] = _running_trapezoid(times, eps_z_sq)
    rows["int_eps_w_l3_cu"] = _running_trapezoid(times, eps_w_cu)
    rows["int_eps_z_l3_cu"] = _running_trapezoid(times, eps_z_cu)

    # g(0) = 0, so v(0) = z(0) and its data terms are the first row's
    data = {"v0_l2_sq": rows["z_l2_sq"][0], "eps_v0_l2_sq": eps_z_sq[0],
            "eps_v0_l3_cu": eps_z_cu[0]}
    keys = ("hg_l2l2_sq", "hg_tilde_l2l2_sq", "zg_l3w13_cu", "dzg_l2h1_sq", "dzg_l2w13_cu")
    data.update(zip(keys, _midpoint(times, integrands)))
    data["dzg_l2w13_cu"] **= 1.5
    _estimates(system.params, times, rows, data)
    return EnergyLedger(times, rows, data)


def _lift_scalars(system, times):
    """The lift scalars of one ledger call on the save grid `times`, as the
    maps t -> `_row_terms` at a save time and t -> `_midpoint_integrands` at
    an interval midpoint of `_midpoint`.

    It builds one LiftData per distinct lift state, keyed by the exact bytes
    of the rates (g, gdot), plus t when the system has a source, evaluates
    on it only the scalars that its save times and midpoints read, and keeps
    only those.
    """

    def key(t):
        g, gdot = system.pumps.rates(t)
        k = (g.tobytes(), gdot.tobytes())
        return k + (float(t),) if system.source is not None else k

    mids = 0.5 * (times[1:] + times[:-1])
    readers = {}  # key -> [a time of the state, read at a save time, at a midpoint]
    for t, at_mid in [(t, False) for t in times] + [(t, True) for t in mids]:
        r = readers.setdefault(key(t), [t, False, False])
        r[1 + at_mid] = True
    rows, mid_vals = {}, {}
    for k, (t, at_save, at_mid) in readers.items():
        data = system.lift_data(t)
        if at_save:
            rows[k] = _row_terms(system.space, data)
        if at_mid:
            mid_vals[k] = _midpoint_integrands(system.space, data)
    return (lambda t: rows[key(t)]), (lambda t: mid_vals[key(t)])


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


def _row_terms(space, data):
    """The save-time lift terms of one LiftData: ||H_g||^2, ||H~_g||^2,
    ||eps(d zeta_g/dt)||^2_L2 and ||eps(d zeta_g/dt)||^{3/2}_L3."""
    edzg = strain_norm(sym_grad(data.dzg_grads))
    return (*_hg_sq(space, data), _lp(space, edzg, 2) ** 2, _lp(space, edzg, 3) ** 1.5)


def _midpoint_integrands(space, data):
    """The data functionals' integrands at one LiftData: ||H_g||^2, ||H~_g||^2,
    ||zeta_g||^3_L3 + ||eps(zeta_g)||^3_L3, ||d zeta_g/dt||^2_H1 and
    (||d zeta_g/dt||^3_L3 + ||eps(d zeta_g/dt)||^3_L3)^(2/3)."""
    zg_mag, dzg_mag = (np.linalg.norm(v, axis=-1) for v in (data.zg_vals, data.dzg_vals))
    ezg, edzg = (strain_norm(sym_grad(g)) for g in (data.zg_grads, data.dzg_grads))
    return (
        *_hg_sq(space, data),
        _lp(space, zg_mag, 3) ** 3 + _lp(space, ezg, 3) ** 3,
        _lp(space, dzg_mag, 2) ** 2 + _lp(space, strain_norm(data.dzg_grads), 2) ** 2,
        (_lp(space, dzg_mag, 3) ** 3 + _lp(space, edzg, 3) ** 3) ** (2 / 3),
    )


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


def contraction(system, traj1, traj2):
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
        if denom > DENOM_FLOOR:
            ratios.append((diff_sq[i + 1] - diff_sq[i]) / dt / denom)
    fitted = max(max(ratios, default=0.0), 0.0)
    return ContractionReport(times, diff_sq, w8, fitted, identical)

