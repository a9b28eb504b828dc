"""Computable ledgers for the a priori energy estimates and the uniqueness
contraction.

The inequalities being monitored carry unspecified constants, so the ledger
reports *fitted empirical* constants and the monitored quantities; nothing
here asserts an inequality with an unknown constant as pass/fail. State
integrals are trapezoid sums on the trajectory save grid; pure lift-data
integrals use interval midpoints because the pump rates jump at schedule
knots. The time derivative of z is a backward difference on that grid.

The ledger works on the whole save grid at once. The rates g and gdot at
the save times and at the midpoints are arrays (n, K), the states are the
trajectory's (n, N) array, and every term is one array expression over
them, except the one term that reads the steppers' own bundle (below).

Every L2 term is a quadratic form in coefficients, the offline/online split
of quadratic outputs (Rozza, Huynh & Patera, ARCME 15, 2008). On the columns
W = [Z | V] of lifts and modes, with y = [g; z] and the Gram matrices that
one `ledger` call forms once,

    ||z||^2 = z . z (the basis is L2-orthonormal),  ||v||^2 = y^T (W^T M W) y,
    ||eps(sum y_a u_a)||^2 = y^T E y,  E = W^T K_eps W / 2,
    ||grad z||^2 = z^T (V^T K_grad V) z,  ||d zeta_g/dt||^2_H1 = gdot^T Z^T (M + K_grad) Z gdot,
    ||H_g||^2 = c^T G c,  H_g = sum_i c_i(t) phi_i,

over the fixed fields phi = [F0, F1, F2, zeta_k, (grad zeta_q) zeta_p] (the
source's parts only when it exists) with c(t) = [1, a, a^2, -gdot, -g (x) g],
a = a(t) the source's time factor; ||H~_g||^2 = ||F - d zeta_g/dt||^2 is the
same form without the g (x) g block. G is the quadrature Gram matrix of phi
(`_hg_gram`), built one block of fields at a time. Each form is evaluated
on all rows at once, X -> rowwise x^T A x, and is the quadrature sum it
replaces, regrouped, so it agrees with it to roundoff.

Only the L3 terms read quadrature-point tables. Every strain comes from
the system's strain table (`ReducedSystem.strain_coef`), the one the
steppers read.
- Per save time: |eps(w)|, w = zeta_g + z, from `ReducedSystem.state_fields`,
  the bundle the steppers form, so the ledger's closure fields are theirs
  bit for bit.
- Per chunk of at most CHUNK save times: |z| and |eps(z)|, from one product
  of the chunk's states with the basis and one with the table's mode
  columns, then the stacked `MixedSpace.value_planes`, `strain_planes` and
  `integrate`. A chunk's tables are a few (m, ., nt, nq) arrays with
  m <= CHUNK = 4, so memory does not grow with the save count.
- Per rate direction: the lift's L3 terms at g (the midpoints) and gdot
  (the save times and the midpoints). Both cubes are homogeneous of degree
  3, so for a rate vector r with s its entry of largest magnitude,
  int |u(r)|^3 = |s|^3 int |u(r / s)|^3, and likewise for eps. The value
  planes of `LiftingBasis.combine(d)` and the table's lift columns times d
  are tabulated once per direction d = r / s, keyed by its exact values
  (-0 read as 0, so r and -r share one), in chunks as the states are; a
  zero rate gives (0, 0). The key is exact, not rounded or given a
  tolerance: equal keys give the same field bit for bit, while a tolerant
  key could merge rates that differ. Pumps on one schedule share one
  direction, so four_pumps tabulates one field. A source enters through G
  alone, so nothing is keyed by t; without pumps there is no lift table at
  all.
"""

import numpy as np

BOUND_SLACK = 1.05  # relative room the contraction bound allows the measured difference
DENOM_FLOOR = 1e-14  # smallest ||v1 - v2||^2 ||v1||^8_L4 a contraction ratio is taken at
CHUNK = 4  # save times (or rate directions) per stacked field evaluation


class EnergyLedger:
    """Per-time rows of every quantity in the a priori estimates.

    Attributes
    ----------
    times : (n,) save grid
    rows : dict of (n,) arrays, keys listed in COLUMNS
    data : dict of scalar data functionals and fitted constants
    v_l2 : (n,) ||v||_{L2} of v = zeta_g + V z, the Gram form y^T (W^T M W) y
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

    def __init__(self, times, rows, data, v_l2):
        self.times = times
        self.rows = rows
        self.data = data
        self.v_l2 = v_l2


def ledger(system, traj):
    """Evaluate the energy ledger of a reduced trajectory."""
    if len(traj) < 2:
        raise ValueError("ledger needs a trajectory with at least two saved steps")
    space = system.space
    times, Zs = traj.times, traj.states
    mids = 0.5 * (times[1:] + times[:-1])
    G, Gdot = _rates(system.pumps, times)
    Gm, Gdotm = _rates(system.pumps, mids)
    Y = np.hstack([G, Zs])  # y = [g; z] per save time

    K, V = len(system.lifting), system.basis.fields
    W = np.column_stack([system.lifting.zetas.T, V])  # [Z | V]
    E = 0.5 * (W.T @ (space.K_eps @ W))  # ||eps(W y)||^2 = y^T E y
    mass, grad = (W.T @ (A @ W) for A in (space.M, space.K_grad))  # ||W y||^2, ||grad W y||^2
    hg_sq = _hg_form(system)

    eps_w_cu = np.array([_cube(space, system.state_fields(z, g).w_eps_mag)
                         for z, g in zip(Zs, G)])
    z_l3_cu, eps_z_cu = _chunked(
        lambda Zc: _cubes(space, Zc @ V.T, Zc @ system.strain_coef[:, K:].T), Zs)
    # the lift's cubes at gdot (save times), g (midpoints) and gdot (midpoints)
    n = len(times)
    dzg_cu, zg_cu_mid, dzg_cu_mid = np.split(
        _lift_cubes(system, np.vstack([Gdot, Gm, Gdotm])), [n, 2 * n - 1], axis=1)
    eps_z_sq = _quad(Zs, E[K:, K:])
    z_l2_sq = _quad(Zs)  # the basis is L2-orthonormal
    rows = {
        "z_l2_sq": z_l2_sq,
        "dzdt_l2_sq": np.concatenate([[0.0], _quad(np.diff(Zs, axis=0)
                                                   / np.diff(times)[:, None])]),
        "int_eps_z_l2_sq": _running_trapezoid(times, eps_z_sq),
        "int_eps_w_l3_cu": _running_trapezoid(times, eps_w_cu),
        "int_eps_z_l3_cu": _running_trapezoid(times, eps_z_cu),
        "psi1": _quad(Y, E) + eps_w_cu,
        "psi2": eps_w_cu ** (2 / 3) + _quad(Gdot, E[:K, :K]) + dzg_cu[1] ** 0.5,
        **dict(zip(("hg_l2_sq", "hg_tilde_l2_sq"), hg_sq(times, G, Gdot))),
        "z_w12_sq": z_l2_sq + _quad(Zs, grad[K:, K:]),
        "z_w13_cu": z_l3_cu + eps_z_cu,
    }

    # the data functionals' integrands at the interval midpoints: ||H_g||^2,
    # ||H~_g||^2, ||zeta_g||^3_L3 + ||eps(zeta_g)||^3_L3, ||d zeta_g/dt||^2_H1
    # and (||d zeta_g/dt||^3_L3 + ||eps(d zeta_g/dt)||^3_L3)^(2/3)
    integrands = (*hg_sq(mids, Gm, Gdotm), zg_cu_mid.sum(axis=0),
                  _quad(Gdotm, mass[:K, :K] + grad[:K, :K]),
                  dzg_cu_mid.sum(axis=0) ** (2 / 3))
    # g(0) = 0, so v(0) = z(0) and its data terms are the first row's
    data = {"v0_l2_sq": z_l2_sq[0], "eps_v0_l2_sq": eps_z_sq[0], "eps_v0_l3_cu": eps_z_cu[0]}
    keys = ("hg_l2l2_sq", "hg_tilde_l2l2_sq", "zg_l3w13_cu", "dzg_l2h1_sq", "dzg_l2w13_cu")
    data.update((key, float(np.sum(np.diff(times) * f))) for key, f in zip(keys, integrands))
    data["dzg_l2w13_cu"] **= 1.5
    _estimates(system.params, times, rows, data)
    v_l2 = np.sqrt(np.einsum("ia,ab,ib->i", Y, mass, Y))
    return EnergyLedger(times, rows, data, v_l2)


def _rates(pumps, times):
    """(g, gdot) at each of times, two (n, K) arrays."""
    rates = np.array([pumps.rates(t) for t in times]).reshape(len(times), 2, len(pumps))
    return rates[:, 0], rates[:, 1]


def _quad(X, A=None):
    """x^T A x for every row x of X, x . x without A."""
    return np.einsum("ia,ia->i", X if A is None else X @ A, X)


def _chunked(f, rows):
    """f over the rows in chunks of at most CHUNK, its (k, m) results
    joined along the last axis."""
    return np.concatenate([f(rows[i:i + CHUNK]) for i in range(0, len(rows), CHUNK)], axis=-1)


def _cube(space, mag):
    """int mag^3 by cell quadrature of samples mag (..., nt, nq)."""
    cube = mag * mag
    cube *= mag
    return space.integrate(cube)


def _cubes(space, u, s):
    """(int |u|^3, int |eps(u)|^3), a (2, m) array, of a stack of velocity
    fields u (m, n_velocity) with strain coefficients s (m, 9 nt), from
    their stacked value planes and strain planes, squared in place: q sqrt(q)
    of q = |u|^2 and of q = |e|^2 = e00^2 + 2 e01^2 + e11^2."""
    v = space.value_planes(u)
    e = space.strain_planes(s)
    v *= v
    e *= e
    e[:, 1] *= 2.0  # e01 counts twice in |e|^2
    out = []
    for q in (v[:, 0] + v[:, 1], e[:, 0] + e[:, 1] + e[:, 2]):
        cube = np.sqrt(q)
        cube *= q
        out.append(space.integrate(cube))
    return np.array(out)


def _lift_cubes(system, R):
    """`_cubes` of u = lifting.combine(r) for every row r of R (m, K), a (2,
    m) array: each distinct direction d = r / s, s the entry of r of largest
    magnitude, is tabulated once and scaled by |s|^3; a zero row (and every
    row without pumps) gives (0, 0)."""
    out = np.zeros((2, len(R)))
    if R.shape[1] == 0:
        return out
    s = R[np.arange(len(R)), np.abs(R).argmax(axis=1)]
    moving = s != 0
    D = R[moving] / s[moving, None] + 0.0  # + 0.0 turns -0 into 0: r and -r share a key
    dirs, index = np.unique(D, axis=0, return_inverse=True)
    if len(dirs):
        coef_Z = system.strain_coef[:, :R.shape[1]]
        tables = _chunked(lambda Dc: _cubes(system.space, system.lifting.combine(Dc),
                                            Dc @ coef_Z.T), dirs)
        out[:, moving] = tables[:, index.ravel()] * np.abs(s[moving]) ** 3
    return out


def _hg_gram(system):
    """G[i, j] = int phi_i . phi_j by cell quadrature, over the fields
    phi = [F0, F1, F2, zeta_k, (grad zeta_q) zeta_p]: the source's parts
    table (none without a source), the K lifts, and the K^2 lift convection
    fields, index K q + p.

    The fields are formed a block at a time, the parts, the lifts, and the
    K fields of each q, as component planes (m, 2, nt, nq) (the lifts'
    from `MixedSpace.value_planes`) that carry the square root of the
    quadrature weight, so that each pair of blocks gives one block of G as
    one product. Each lift's gradient is formed once and kept; a
    convection block is formed from it again for every block it is paired
    with, so at most two are held at once, never all K^2 fields.
    """
    space, zetas = system.space, system.lifting.zetas
    K = len(zetas)
    root_w = np.sqrt(space.qweights)
    vals = space.value_planes(zetas)  # (K, 2, nt, nq)
    vals *= root_w
    # [a, c] = d zeta_q,a / d x_c, kept as contiguous planes (2, 2, nt, nq)
    grads = [np.moveaxis(space.eval_grads(z), (-2, -1), (0, 1)).copy() for z in zetas]
    parts = (vals[:0] if system.source is None
             else root_w * np.moveaxis(system.source.parts_table(space), -1, 1))

    def block(b):
        if b == 0:
            return parts
        if b == 1:
            return vals
        grad = grads[b - 2]
        conv = grad[:, 0] * vals[:, :1]  # [p, a]
        for p in range(K):  # a temporary of one field, not of the block
            conv[p] += grad[:, 1] * vals[p, 1]
        return conv

    ends = np.cumsum([0, len(parts), K] + [K] * K)
    spans = [slice(lo, hi) for lo, hi in zip(ends[:-1], ends[1:])]
    G = np.zeros((ends[-1], ends[-1]))
    size = 2 * space.qweights.size  # one field's component planes, flat
    for i, si in enumerate(spans):
        a = block(i).reshape(-1, size)
        for j in range(i, len(spans)):
            sj = spans[j]
            G[si, sj] = a @ (a if j == i else block(j).reshape(-1, size)).T
            G[sj, si] = G[si, sj].T
    return G


def _hg_form(system):
    """The map (times, g, gdot) -> (||H_g||^2, ||H~_g||^2) at rows of rates
    (g, gdot) (n, K) = pumps.rates(t) per time, two (n,) arrays: the
    quadratic forms c^T G c of `_hg_gram` with c = [1, a, a^2, -gdot,
    -g (x) g] (a from the source's own `combine`) per row, and with the
    g (x) g block left out."""
    G = _hg_gram(system)
    source = system.source
    m = len(G) - len(system.lifting) ** 2  # the parts and the lifts

    def form(times, g, gdot):
        a = (np.zeros((len(times), 0)) if source is None
             else np.array([source.combine(np.eye(3), t) for t in times]))
        C = np.hstack([a, -gdot, -(g[:, :, None] * g[:, None, :]).reshape(len(g), -1)])
        return _quad(C, G), _quad(C[:, :m], G[:m, :m])

    return form


def _running_trapezoid(times, vals):
    out = np.zeros_like(vals)
    dt = np.diff(times)
    out[1:] = np.cumsum(0.5 * dt * (vals[1:] + vals[:-1]))
    return out


def _trapezoid(times, vals):
    return float(np.trapezoid(vals, times))


def _estimates(params, times, rows, data):
    """Add the two estimates' sides and fitted constants to data, which holds
    the initial-state terms and the data functionals: C1_empirical,
    C2_empirical with its exponent clamped at 700, and log10_C2, the log of
    C2 without the clamp."""
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
    # C2 without the clamp: log(1 + e^x) = logaddexp(0, x) never overflows;
    # -inf at lhs2 = 0, and +inf or nan at base2 = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        data["log10_C2"] = float((np.log(lhs2) - np.log(base2) - np.logaddexp(0.0, expo))
                                 / np.log(10.0))


class ContractionReport:
    """Gronwall diagnostics for a pair of runs differing in z0 only. The
    fitted C2 is the largest growth rate of ||v1 - v2||^2 per unit of
    ||v1 - v2||^2 ||v1||^8_{L4}, over the steps where that product exceeds
    DENOM_FLOOR, and 0 when no rate is positive."""

    def __init__(self, times, diff_sq, w8):
        self.times = times
        self.diff_sq = diff_sq          # ||v1 - v2||^2_{L2} per time
        self.w8 = w8                    # ||v1||^8_{L4} per time
        self.identical = bool(np.all(diff_sq <= 1e-28))
        dt = np.diff(times)
        denom = diff_sq[:-1] * w8[:-1]
        kept = denom > DENOM_FLOOR
        self.fitted_C2 = (np.diff(diff_sq)[kept] / dt[kept] / denom[kept]).max(initial=0.0)
        # left-Riemann cumulative of w8 makes the adjusted norm telescope
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


def contraction(system, base, *pairs):
    """Fit the Gronwall constant from each perturbation pair (base, pair):
    one ContractionReport per pair.

    base is the run whose velocity enters ||v1||^8_{L4}; its series is
    formed once, in chunks of at most CHUNK save times as the ledger's z
    terms are, and every report holds it. Every pair must share base's
    time grid (identical configs except the initial state).
    """
    if any(len(base) != len(pair) or not np.allclose(base.times, pair.times) for pair in pairs):
        raise ValueError("contraction requires runs on identical time grids")
    space, K, V = system.space, len(system.lifting), system.basis.fields

    def l4_pow8(Y):
        """||v||^8_L4 = (int |v|^4)^2 of v = zeta_g + V z per row y = [g; z]."""
        v = space.value_planes(system.lifting.combine(Y[:, :K]) + Y[:, K:] @ V.T)
        return space.integrate((v[:, 0] ** 2 + v[:, 1] ** 2) ** 2) ** 2

    w8 = _chunked(l4_pow8, np.hstack([_rates(system.pumps, base.times)[0], base.states]))
    # the basis is L2-orthonormal
    return [ContractionReport(base.times, np.array([dz @ dz for dz in base.states - pair.states]),
                              w8) for pair in pairs]
