"""Pump boundary data: injector/collector profiles, schedules, combined trace.

Each pump pair carries a scalar profile on its injector segment and one on
its collector segment, both nonnegative, supported on their segment, and
normalized so the boundary integral equals the segment measure. The pump
trace is

    psi = [ phi_inj / mu(T) - phi_col / mu(C) ] n,

whose net boundary flux vanishes; the time-dependent boundary velocity is
phi_g(t) = sum_k g_k(t) psi_k with volumetric rates g_k.

Profiles exist in two coupled representations: an exact arc-length closure
(used for reporting and boundary-quadrature checks of the construction) and
nodal values on the P2 boundary trace (used for strong imposition). The
nodal values vanish at segment endpoints and are rescaled so the *discrete*
trace integral equals the segment measure; without that rescaling the
interpolated trace has a spurious net flux at segment junctions and the
discrete Stokes lift is inconsistent.

A profile reads its segment from the mesh's boundary table under the tag
mask: measure, side, normal and start, and the discrete integral is one
masked sum of edge length times the exact shape integrals
(`space.EDGE_SHAPE_INTEGRALS`) against the nodal values.
"""

from bisect import bisect_left

import numpy as np

from .errors import CompatibilityError
from .mesh import SIDES
from .space import EDGE_SHAPE_INTEGRALS

PROFILE_KINDS = ("flat", "mollified")


class PumpProfile:
    """Scalar boundary profile on one tagged segment.

    Attributes
    ----------
    tag, kind, width : segment tag, "flat" or "mollified", ramp width [m]
    mu : segment measure [m]
    side, normal : side name and outward unit normal of the segment
    sdofs, values : boundary scalar DOFs of the segment and nodal values
    arcs : arc-length coordinate of each DOF from the segment start
    """

    def __init__(self, tag, kind, width, mu, side, normal, sdofs, arcs, values, closure):
        self.tag = tag
        self.kind = kind
        self.width = width
        self.mu = mu
        self.side = side
        self.normal = normal
        self.sdofs = sdofs
        self.arcs = arcs
        self.values = values
        self._closure = closure

    def eval(self, s):
        """Exact profile value at arc-length s (vectorized); 0 outside [0, mu]."""
        s = np.asarray(s, dtype=float)
        inside = (s >= 0) & (s <= self.mu)
        return np.where(inside, self._closure(np.clip(s, 0.0, self.mu)), 0.0)


def _mollified_closure(mu, delta):
    scale = mu / (mu - delta)

    def closure(s):
        s = np.asarray(s, dtype=float)
        up = 0.5 * (1 - np.cos(np.pi * s / delta))
        down = 0.5 * (1 - np.cos(np.pi * (mu - s) / delta))
        val = np.ones_like(s)
        val = np.where(s < delta, up, val)
        val = np.where(s > mu - delta, down, val)
        return scale * val

    return closure


def check_width(width, mu):
    """ValueError unless 0 < width < mu/2, so the mollified ramps leave a
    plateau; `build_profile` and `config.validate` both call it."""
    if width is None or not (0 < width < mu / 2):
        raise ValueError(f"mollified profile needs 0 < width < mu/2 = {mu / 2}, got {width}")


def build_profile(space, tag, kind="flat", width=None):
    """Build a pump profile on the segment carrying `tag`.

    For the mollified kind the profile ramps with raised cosines of width
    `width` at both segment ends (0 < width < mu/2) and is rescaled so its
    exact integral equals the segment measure; the flat kind is the
    indicator of the segment.
    """
    mesh = space.mesh
    on = mesh.bnd_tag == tag
    if not on.any():
        raise ValueError(f"no boundary edges carry tag {tag!r}")
    mu = mesh.measure(tag)  # positive: TaggedMesh has no degenerate boundary edge
    first = np.argmax(on)
    side, normal = SIDES[mesh.bnd_side[first]], mesh.bnd_normal[first]

    if kind == "flat":
        closure = lambda s: np.ones_like(np.asarray(s, dtype=float))
    elif kind == "mollified":
        check_width(width, mu)
        closure = _mollified_closure(mu, width)
    else:
        raise ValueError(f"unknown profile kind {kind!r}, expected one of {PROFILE_KINDS}")

    start = mesh.bnd_span[on, 0].min()
    axis = mesh.bnd_side[first] % 2  # x along bottom and top, y along right and left
    sdofs = space.tagged_scalar_dofs(tag)
    arcs = space.dof_coords[sdofs, axis] - start
    values = np.asarray(closure(arcs), dtype=float)
    end_node = (arcs < 1e-12) | (arcs > mu - 1e-12)
    values[end_node] = 0.0

    # rescale so the discrete trace integral matches mu exactly
    disc = _discrete_integral(space, tag, sdofs, values)
    if disc <= 0:
        raise ValueError(f"profile on {tag!r} has nonpositive discrete integral")
    values *= mu / disc

    return PumpProfile(tag, kind, width, mu, side, normal, sdofs, arcs, values, closure)


def _discrete_integral(space, tag, sdofs, values):
    """Exact integral over the edges carrying `tag` of the P2 boundary trace
    with `values` at `sdofs`: per edge its length times one dot of the nodal
    values with the shape integrals, summed in edge order."""
    nodal = np.zeros(space.n_scalar)
    nodal[sdofs] = values
    on = space.mesh.bnd_tag == tag
    per_edge = np.vecdot(nodal[space.bnd_edge_dofs[on]], EDGE_SHAPE_INTEGRALS)
    return sum((space.mesh.bnd_length[on] * per_edge).tolist())


def build_psi(injector, collector, space):
    """Combined trace field of one pump pair as a velocity coefficient vector.

    psi . n equals phi/mu(T) on the injector and -phi~/mu(C) on the
    collector, zero elsewhere; its net discrete boundary flux vanishes.
    """
    if injector.tag == collector.tag:
        raise ValueError("injector and collector must live on distinct segments")
    ns = space.n_scalar
    psi = np.zeros(space.n_velocity)
    for profile, sign in ((injector, 1.0), (collector, -1.0)):
        coef = sign / profile.mu
        for comp in range(2):
            psi[comp * ns + profile.sdofs] += coef * profile.values * profile.normal[comp]
    net = float(space.flux_vector @ psi)
    if abs(net) > 1e-10:
        raise CompatibilityError(
            f"pump trace has net flux {net:.3e}; profiles are not normalized"
        )
    return psi


def schedule_knots(samples):
    """Arrays (ts, gs) of a rate schedule's [t, g] samples, for `Schedule` and
    `config.validate`; ValueError naming every rule they break: at least two
    samples, a start at (0, 0) (the pump compatibility condition), strictly
    increasing times, nonnegative rates."""
    knots = np.array(samples, dtype=float)
    if knots.ndim != 2 or knots.shape[1] != 2 or len(knots) < 2:
        raise ValueError("schedule needs at least two [t, g] samples")
    ts, gs = knots.T.copy()
    broken = [message for message, bad in (
        ("schedule must start at t = 0", ts[0] != 0.0),
        ("g(0) must be 0 (pump compatibility condition)", gs[0] != 0.0),
        ("schedule times must be strictly increasing", np.any(np.diff(ts) <= 0)),
        ("volumetric flow rates must be nonnegative", np.any(gs < 0))) if bad]
    if broken:
        raise ValueError("; ".join(broken))
    return ts, gs


class Schedule:
    """Piecewise-linear volumetric flow rate g(t) >= 0 with g(0) = 0."""

    def __init__(self, samples):
        ts, gs = schedule_knots(samples)
        self.ts = ts
        self.gs = gs
        self.T = float(ts[-1])
        # Python floats for `eval`, which runs at every stage time: on a few
        # knots numpy's per-call overhead outweighs the arithmetic
        self._knots = ts.tolist()
        self._values = gs.tolist()
        self._slopes = (np.diff(gs) / np.diff(ts)).tolist()

    def eval(self, t):
        """(g(t), dg/dt(t)); the derivative takes the left limit at knots.

        Times within 1e-9 of a knot snap to it, so a time step landing on a
        knot sees the same one-sided derivative regardless of how its time
        accumulated in floating point. g is np.interp's value, bit for bit:
        the knot value at a knot, else slope * (t - t_j) + g_j.
        """
        if not (0.0 <= t <= self.T + 1e-12):
            raise ValueError(f"t = {t} outside the schedule horizon [0, {self.T}]")
        t = min(float(t), self.T)
        ts = self._knots
        i = bisect_left(ts, t)  # ts[i - 1] < t <= ts[i]
        near = i - 1 if i > 0 and t - ts[i - 1] <= ts[i] - t else i  # the first on a tie
        if abs(ts[near] - t) <= 1e-9 * max(1.0, self.T):
            t, i = ts[near], near
        if ts[i] == t:
            g = self._values[i]
        else:
            g = self._slopes[i - 1] * (t - ts[i - 1]) + self._values[i - 1]
        return g, self._slopes[max(i, 1) - 1]


class Pump:
    """One collector-injector pair: profiles, trace field, schedule."""

    def __init__(self, injector, collector, psi, schedule):
        self.injector = injector
        self.collector = collector
        self.psi = psi
        self.schedule = schedule


class PumpSet:
    """All pump pairs of a configuration and their rates g(t)."""

    def __init__(self, pumps):
        self.pumps = list(pumps)

    def __len__(self):
        return len(self.pumps)

    def rates(self, t):
        """Arrays (g_k(t), dg_k/dt(t)) over pumps."""
        pairs = [p.schedule.eval(t) for p in self.pumps]
        return np.array([g for g, _ in pairs]), np.array([d for _, d in pairs])
