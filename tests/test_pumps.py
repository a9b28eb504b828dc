import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from conftest import boundary_traces, net_flux, phi_g
from recirc.mesh import build_rect_mesh, tag_boundary
from recirc.pumps import PumpSet, Schedule, build_profile, build_psi
from recirc.space import MixedSpace


@pytest.fixture(scope="module")
def seg_space():
    m = build_rect_mesh(1, 1, 20, 20)
    tag_boundary(m, [("bottom", 0.2, 0.4, "T1"), ("top", 0.2, 0.4, "C1")])
    return MixedSpace(m)


def closure_integral(profile, n=60):
    """1D Gauss oracle for the exact profile integral, piecewise across
    the ramp junctions where the closure is only C^1."""
    x, w = leggauss(n)
    breaks = [0.0, profile.mu]
    if profile.width:
        breaks = [0.0, profile.width, profile.mu - profile.width, profile.mu]
    total = 0.0
    for lo, hi in zip(breaks, breaks[1:]):
        s = lo + 0.5 * (x + 1.0) * (hi - lo)
        total += 0.5 * (hi - lo) * float(w @ profile.eval(s))
    return total


def test_flat_profile_indicator(seg_space):
    p = build_profile(seg_space, "T1", "flat")
    assert p.eval(np.array([0.1]))[0] == 1.0
    assert p.eval(np.array([-0.05]))[0] == 0.0
    assert p.eval(np.array([0.25]))[0] == 0.0  # beyond the 0.2-long segment
    assert abs(closure_integral(p) - 0.2) <= 1e-10


def test_mollified_profile_peak_and_integral(seg_space):
    p = build_profile(seg_space, "T1", "mollified", 0.05)
    # plateau value is mu / (mu - width)
    assert abs(p.eval(np.array([0.1]))[0] - 4.0 / 3.0) <= 1e-10
    assert abs(closure_integral(p) - 0.2) <= 1e-10
    assert p.eval(np.array([0.0]))[0] == 0.0
    assert p.eval(np.array([0.2]))[0] == 0.0


def test_profile_nonnegative_everywhere(seg_space):
    for kind, width in (("flat", None), ("mollified", 0.03)):
        p = build_profile(seg_space, "T1", kind, width)
        s = np.linspace(-0.1, 0.3, 400)
        assert (p.eval(s) >= 0).all()
        assert (p.values >= 0).all()


def test_discrete_normalization(seg_space):
    # the nodal trace integrates to mu exactly (edge-rule oracle per edge)
    from recirc.pumps import _discrete_integral

    for kind, width in (("flat", None), ("mollified", 0.05)):
        p = build_profile(seg_space, "T1", kind, width)
        disc = _discrete_integral(seg_space, "T1", p.sdofs, p.values)
        assert abs(disc - p.mu) <= 1e-12


def test_mollified_width_validation(seg_space):
    with pytest.raises(ValueError):
        build_profile(seg_space, "T1", "mollified", 0.15)  # >= mu/2
    with pytest.raises(ValueError):
        build_profile(seg_space, "T1", "mollified", None)


def test_unknown_kind_and_empty_tag(seg_space):
    with pytest.raises(ValueError):
        build_profile(seg_space, "T1", "gaussian")
    with pytest.raises(ValueError):
        build_profile(seg_space, "T9", "flat")


def test_tag_on_two_sides_rejected():
    # tag_boundary is the only writer of tags, so no profile meets a tag on two sides
    m = build_rect_mesh(1, 1, 4, 4)
    with pytest.raises(ValueError, match="tag 'T1' is already placed"):
        tag_boundary(m, [("bottom", 0.25, 0.5, "T1"), ("left", 0.25, 0.5, "T1")])
    with pytest.raises(ValueError, match="tag 'T1' is already placed"):
        tag_boundary(m, [("right", 0.25, 0.5, "T1")])


def test_psi_normal_component_value(seg_space):
    inj = build_profile(seg_space, "T1", "flat")
    col = build_profile(seg_space, "C1", "flat")
    psi = build_psi(inj, col, seg_space)
    # closure value: phi / mu(T) = 1 / 0.2 = 5 against the bottom normal (0,-1)
    assert abs(inj.eval(np.array([0.1]))[0] / inj.mu - 5.0) <= 1e-12
    ns = seg_space.n_scalar
    interior = inj.sdofs[(inj.arcs > 1e-9) & (inj.arcs < inj.mu - 1e-9)]
    vals = psi[ns + interior] / (-1.0)  # y-component against outward normal
    assert np.all(vals > 4.5)  # 5.0 scaled by the discrete normalization
    assert abs(seg_space.flux_vector @ psi) <= 1e-10


def test_psi_same_segment_rejected(seg_space):
    p = build_profile(seg_space, "T1", "flat")
    with pytest.raises(ValueError):
        build_psi(p, p, seg_space)


def test_schedule_eval_linear():
    s = Schedule([(0, 0), (1, 2)])
    g, gd = s.eval(0.5)
    assert (g, gd) == (1.0, 2.0)


def test_schedule_compatibility_at_zero():
    s = Schedule([(0, 0), (1, 2)])
    g, gd = s.eval(0.0)
    assert g == 0.0 and gd == 2.0


def test_schedule_flat_segment_left_limit():
    s = Schedule([(0, 0), (0.5, 1), (1, 1)])
    assert s.eval(0.75) == (1.0, 0.0)
    # left limit at the knot itself
    assert s.eval(0.5) == (1.0, 2.0)


def _numpy_eval(s, t):
    """The numpy form of Schedule.eval: nearest-knot snap by argmin, np.interp
    for g and searchsorted for the left-limit slope."""
    t = min(float(t), s.T)
    near = int(np.argmin(np.abs(s.ts - t)))
    if abs(s.ts[near] - t) <= 1e-9 * max(1.0, s.T):
        t = float(s.ts[near])
    idx = max(int(np.searchsorted(s.ts, t, side="left")), 1)
    slope = (s.gs[idx] - s.gs[idx - 1]) / (s.ts[idx] - s.ts[idx - 1])
    return float(np.interp(t, s.ts, s.gs)), float(slope)


@pytest.mark.parametrize("samples", [
    [(0, 0), (0.2, 0.05), (1.0, 0.05)],  # the preset ramp
    [(0, 0), (0.1, 0.3), (0.35, 0.3), (0.6, 0.0), (0.7, 1.7), (2.5, 0.2)],
    [(0, 0), (1.0, 1.0), (1.0 + 2**-30, 2.0), (3.0, 0.5)],  # two knots in one snap window
])
def test_schedule_eval_matches_numpy_form(samples):
    # at the knots, within and just outside the 1e-9 snap window around
    # them, on step grids and at random times: (g, gdot) bit for bit
    s = Schedule(samples)
    rng = np.random.default_rng(3)
    win = 1e-9 * max(1.0, s.T)
    times = [0.0, s.T, s.T + 5e-13, 0.5 * win, 1.5 * win]
    for tk in s.ts:
        for off in (0.0, 0.3 * win, 0.999 * win, 1.001 * win, 2.0 * win, 1e-6):
            times += [tk - off, tk + off]
    times += list(rng.uniform(0.0, s.T, 500))
    times += [k * 0.01 for k in range(int(s.T / 0.01) + 1)]  # accumulated-free grid
    times += list(np.cumsum(np.full(int(s.T / 0.01), 0.01)))  # accumulated grid
    times += [(t1 + t2) / 2 for t1, t2 in zip(s.ts, s.ts[1:])]  # exact ties between two knots
    for t in times:
        if 0.0 <= t <= s.T + 1e-12:
            got = s.eval(t)
            assert [x.hex() for x in got] == [x.hex() for x in _numpy_eval(s, t)], t


def test_schedule_validation():
    with pytest.raises(ValueError):
        Schedule([(0, 1), (1, 2)])  # g(0) != 0
    with pytest.raises(ValueError):
        Schedule([(0.1, 0), (1, 1)])  # t0 != 0
    with pytest.raises(ValueError):
        Schedule([(0, 0), (0.5, -1), (1, 0)])  # negative rate
    with pytest.raises(ValueError):
        Schedule([(0, 0), (0.5, 1), (0.5, 2)])  # non-increasing times
    s = Schedule([(0, 0), (1, 1)])
    with pytest.raises(ValueError):
        s.eval(1.5)


def test_phi_g_zero_rates(preset16):
    space, pumps = preset16.space, preset16.pumps
    assert np.abs(phi_g(pumps, 0.0, space)).max() == 0.0


def test_phi_g_single_pump_linearity(seg_space):
    inj = build_profile(seg_space, "T1", "flat")
    col = build_profile(seg_space, "C1", "flat")
    psi = build_psi(inj, col, seg_space)
    from recirc.pumps import Pump

    pump = Pump(inj, col, psi, Schedule([(0, 0), (0.5, 1), (1, 1)]))
    ps = PumpSet([pump])
    assert np.array_equal(phi_g(ps, 0.75, seg_space), psi)
    # coefficient-level linearity in the rates
    assert np.array_equal(phi_g(ps, 0.25, seg_space), 0.5 * psi)


def _flux_oracle(space, field):
    """Independent boundary-flux quadrature: fine Gauss rule per edge."""
    x, w = leggauss(16)
    mesh = space.mesh
    trace_n = np.einsum("ecq,ec->eq", boundary_traces(space, field, 0.5 * (x + 1.0)),
                        mesh.bnd_normal)
    return float(mesh.bnd_length @ (trace_n @ (0.5 * w)))


def test_preset_compatibility_against_flux_oracle(preset16):
    space, pumps = preset16.space, preset16.pumps
    for t in (0.1, 0.5, 1.0):
        g, _ = pumps.rates(t)
        net = _flux_oracle(space, phi_g(pumps, t, space))
        assert abs(net) <= 1e-10 * max(1.0, np.abs(g).sum())


def test_left_right_pump_pair():
    # vertical sides exercise the y-axis arc coordinate and the x normals
    m = build_rect_mesh(1, 1, 8, 8)
    tag_boundary(m, [("left", 0.25, 0.5, "T1"), ("right", 0.5, 0.75, "C1")])
    space = MixedSpace(m)
    inj = build_profile(space, "T1", "mollified", 0.0625)
    col = build_profile(space, "C1", "flat")
    psi = build_psi(inj, col, space)
    assert abs(space.flux_vector @ psi) <= 1e-10
    ns = space.n_scalar
    # the trace points along x on both vertical sides
    assert np.abs(psi[ns:]).max() == 0.0
    from recirc.lifting import solve_stokes_lift, stokes_operator

    zeta, p, res = solve_stokes_lift(space, psi, stokes_operator(space, 0.01))
    assert res <= 1e-8
    assert np.linalg.norm(space.B @ zeta) <= 1e-8


def test_flux_compatibility_random_times(preset16):
    space, pumps = preset16.space, preset16.pumps
    rng = np.random.default_rng(23)
    for t in rng.uniform(0, 1, size=20):
        g, _ = pumps.rates(t)
        assert abs(net_flux(pumps, t, space)) <= 1e-10 * max(1.0, np.abs(g).sum())
