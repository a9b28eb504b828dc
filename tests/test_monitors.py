import numpy as np
import pytest

from conftest import (assert_no_instance_patches, hg_sq, lift_data, lift_midpoint_integrands,
                      lift_row_terms, lp, ramp_source, rescale_case, strain_norm)
from recirc.eigenbasis import solve_stokes_eigen
from recirc.galerkin import GalerkinState, ReducedSystem, StateFields
from recirc.lifting import build_lifting, compute_Hg_load
from recirc.mesh import build_rect_mesh
from recirc.mms import ManufacturedSolution
from recirc.monitors import EnergyLedger, _estimates, _hg_form, _hg_gram, contraction, ledger
from recirc.pumps import PumpSet
from recirc.space import MixedSpace
from recirc.turbulence import ClosureParams, sym_grad


@pytest.fixture(scope="module")
def quiet12():
    space = MixedSpace(build_rect_mesh(1, 1, 12, 12))
    basis = solve_stokes_eigen(space, 10)
    pumps = PumpSet([])
    params = ClosureParams(0.02, 0.1)
    lifting = build_lifting(space, pumps, params.nu)
    return ReducedSystem(space, basis, lifting, pumps, params)


def test_zero_trajectory_gives_zero_ledger(quiet12):
    traj = quiet12.integrate(GalerkinState(0.0, np.zeros(10)), T=0.1, dt=0.02)
    led = ledger(quiet12, traj)
    for key, col in led.rows.items():
        assert np.abs(col).max() == 0.0, key
    assert led.data["estimate1_lhs"] == 0.0


def test_running_integrals_nondecreasing(quiet12):
    rng = np.random.default_rng(2)
    z0 = 0.3 * rng.standard_normal(10)
    traj = quiet12.integrate(GalerkinState(0.0, z0), T=0.2, dt=0.02)
    led = ledger(quiet12, traj)
    for key in ("int_eps_z_l2_sq", "int_eps_w_l3_cu", "int_eps_z_l3_cu"):
        assert np.all(np.diff(led.rows[key]) >= -1e-15), key
    for key, col in led.rows.items():
        assert np.all(col >= -1e-15), key


def test_ledger_entries_match_space_norms(quiet12):
    rng = np.random.default_rng(4)
    z0 = 0.2 * rng.standard_normal(10)
    traj = quiet12.integrate(GalerkinState(0.0, z0), T=0.1, dt=0.02)
    led = ledger(quiet12, traj)
    space = quiet12.space
    for i in (0, 3, 5):
        zf = quiet12.basis.expand(traj.states[i])
        l2sq = space.norm(zf, "L2") ** 2
        assert abs(led.rows["z_l2_sq"][i] - l2sq) <= 1e-12 * max(1.0, l2sq)
        w13 = space.norm(zf, "L3") ** 3 + space.norm(zf, "W13semi") ** 3
        assert abs(led.rows["z_w13_cu"][i] - w13) <= 1e-12 * max(1.0, w13)


def test_ledger_requires_two_steps(quiet12):
    from recirc.galerkin import Trajectory

    t = Trajectory([0.0], [np.zeros(10)], [])
    with pytest.raises(ValueError):
        ledger(quiet12, t)


def test_identical_runs_flagged(quiet12):
    rng = np.random.default_rng(6)
    z0 = 0.2 * rng.standard_normal(10)
    traj = quiet12.integrate(GalerkinState(0.0, z0.copy()), T=0.1, dt=0.02)
    rep, = contraction(quiet12, traj, traj)
    assert rep.identical
    assert np.all(rep.diff_sq == 0.0)
    assert rep.fitted_C2 == 0.0
    assert rep.bound_holds(rep.fitted_C2)


def test_zero_data_difference_nonincreasing(quiet12):
    rng = np.random.default_rng(8)
    z0 = 0.3 * rng.standard_normal(10)
    t1 = quiet12.integrate(GalerkinState(0.0, z0.copy()), T=0.2, dt=0.02, tol=1e-12)
    t2 = quiet12.integrate(
        GalerkinState(0.0, z0 + 1e-3 * rng.standard_normal(10)), T=0.2, dt=0.02,
        tol=1e-12,
    )
    rep, = contraction(quiet12, t1, t2)
    # the modal |dz|^2 is the mesh L2 norm of the expanded difference
    for i in (0, 5, 10):
        dz = quiet12.basis.expand(t1.states[i] - t2.states[i])
        ref = quiet12.space.norm(dz, "L2") ** 2
        assert abs(rep.diff_sq[i] - ref) <= 1e-12 * ref
    assert np.all(np.diff(rep.diff_sq) <= 1e-16)
    assert rep.adjusted()[0] >= rep.adjusted()[-1] - 1e-20
    # adjusted norm is non-increasing under the fitted constant
    adj = rep.adjusted()
    assert np.all(np.diff(adj) <= 1e-14 * max(1.0, adj[0]))


def test_contraction_grid_mismatch_rejected(quiet12):
    z0 = np.zeros(10)
    t1 = quiet12.integrate(GalerkinState(0.0, z0.copy()), T=0.1, dt=0.02)
    t2 = quiet12.integrate(GalerkinState(0.0, z0.copy()), T=0.1, dt=0.01)
    with pytest.raises(ValueError):
        contraction(quiet12, t1, t2)


def test_contraction_grid_must_match_exactly(quiet12):
    # times within np.allclose's rtol of the base's are still another grid
    from recirc.galerkin import Trajectory

    t1 = quiet12.integrate(GalerkinState(0.0, np.zeros(10)), T=0.1, dt=0.02)
    t2 = Trajectory(t1.times * (1 + 1e-7), t1.states, [])
    assert np.allclose(t1.times, t2.times) and not np.array_equal(t1.times, t2.times)
    with pytest.raises(ValueError):
        contraction(quiet12, t1, t2)


def test_hg_norms_zero_case(quiet12):
    traj = quiet12.integrate(GalerkinState(0.0, np.zeros(10)), T=1.0, dt=0.1)
    data = ledger(quiet12, traj).data
    assert data["hg_l2l2_sq"] == 0.0
    assert data["hg_tilde_l2l2_sq"] == 0.0


def _midpoint(times, f):
    """Interval-midpoint quadrature of a tuple-valued f, a list."""
    dt = np.diff(times)
    vals = np.array([f(t) for t in 0.5 * (times[1:] + times[:-1])]).T
    return np.sum(dt * vals, axis=-1).tolist()


def _hg_norms(sys_, t):
    return hg_sq(sys_.space, compute_Hg_load(sys_.lifting, sys_.pumps, sys_.source, t))


def test_hg_tilde_equals_lift_rate_norm(preset16):
    # with F = 0 the only surviving term of H~_g is the lift time derivative
    sys_ = preset16.system
    space = preset16.space
    for t in (0.1, 0.5):
        _, dzg = sys_.lift_fields(t)
        snorm = space.norm(dzg, "L2") ** 2
        _, val = _hg_norms(sys_, t)
        assert abs(val - snorm) <= 1e-10 * max(1.0, snorm)


def test_hg_norms_refined_grid_agreement(preset16):
    sys_ = preset16.system
    coarse = _midpoint(np.linspace(0, 1, 51), lambda t: _hg_norms(sys_, t))
    fine = _midpoint(np.linspace(0, 1, 101), lambda t: _hg_norms(sys_, t))
    for c, f in zip(coarse, fine):
        assert abs(c - f) <= 0.01 * max(1e-30, abs(f))


def test_adjusted_norm_monotone_under_fitted_constant(preset16):
    scn = preset16
    rng = np.random.default_rng(12)
    d = rng.standard_normal(scn.basis.size)
    d /= np.linalg.norm(d)
    base = scn.system.integrate(scn.state0, T=0.3, dt=0.01)
    pert = scn.system.integrate(
        GalerkinState(0.0, scn.state0.z + 1e-3 * d), T=0.3, dt=0.01
    )
    rep, = contraction(scn.system, base, pert)
    adj = rep.adjusted()
    assert np.all(np.diff(adj) <= 1e-12 * max(adj.max(), 1e-30))


def _reference_rows(sys_, traj):
    """Ledger rows and lift functionals rebuilt from space.norm,
    space.strain_samples and lift_fields, without the ledger's tables."""
    space = sys_.space
    times = traj.times
    n = len(times)

    def lp_eps(u, p):
        mag = np.sqrt((space.strain_samples(u) ** 2).sum(axis=(-2, -1)))
        return space.integrate(mag**p) ** (1.0 / p)

    def hg_sq(t):
        zg, dzg = sys_.lift_fields(t)
        v, G, dv = space.eval_values(zg), space.eval_grads(zg), space.eval_values(dzg)
        h = -dv - np.einsum("cqab,cqb->cqa", G, v)  # F = 0 in the preset
        return space.integrate((h * h).sum(axis=-1)), space.norm(dzg, "L2") ** 2

    ref = {k: np.zeros(n) for k in EnergyLedger.COLUMNS}
    ez2, ew3, ez3 = np.zeros(n), np.zeros(n), np.zeros(n)
    for i, t in enumerate(times):
        zf = sys_.basis.expand(traj.states[i])
        zg, dzg = sys_.lift_fields(t)
        w = zg + zf
        ref["z_l2_sq"][i] = space.norm(zf, "L2") ** 2
        ez2[i], ew3[i], ez3[i] = lp_eps(zf, 2) ** 2, lp_eps(w, 3) ** 3, lp_eps(zf, 3) ** 3
        ref["psi1"][i] = lp_eps(w, 2) ** 2 + ew3[i]
        ref["psi2"][i] = lp_eps(w, 3) ** 2 + lp_eps(dzg, 2) ** 2 + lp_eps(dzg, 3) ** 1.5
        ref["hg_l2_sq"][i], ref["hg_tilde_l2_sq"][i] = hg_sq(t)
        ref["z_w12_sq"][i] = ref["z_l2_sq"][i] + space.norm(zf, "H1semi") ** 2
        ref["z_w13_cu"][i] = space.norm(zf, "L3") ** 3 + space.norm(zf, "W13semi") ** 3
        if i > 0:
            dz = (traj.states[i] - traj.states[i - 1]) / (times[i] - times[i - 1])
            ref["dzdt_l2_sq"][i] = space.norm(sys_.basis.expand(dz), "L2") ** 2
    for key, vals in (("int_eps_z_l2_sq", ez2), ("int_eps_w_l3_cu", ew3),
                      ("int_eps_z_l3_cu", ez3)):
        ref[key][1:] = np.cumsum(0.5 * np.diff(times) * (vals[1:] + vals[:-1]))

    data = {"zg_l3w13_cu": 0.0, "dzg_l2h1_sq": 0.0, "dzg_l2w13_cu": 0.0}
    for a, b in zip(times[:-1], times[1:]):
        zg, dzg = sys_.lift_fields(0.5 * (a + b))
        data["zg_l3w13_cu"] += (b - a) * (space.norm(zg, "L3") ** 3 + lp_eps(zg, 3) ** 3)
        data["dzg_l2h1_sq"] += (b - a) * (
            space.norm(dzg, "L2") ** 2 + space.norm(dzg, "H1semi") ** 2
        )
        data["dzg_l2w13_cu"] += (b - a) * (
            space.norm(dzg, "L3") ** 3 + lp_eps(dzg, 3) ** 3
        ) ** (2 / 3)
    data["dzg_l2w13_cu"] **= 1.5
    return ref, data


def test_ledger_matches_independent_norms_with_pumps(preset16):
    # every column at several saved times, pumps ramping, against tables
    # rebuilt from the public field evaluators
    sys_ = preset16.system
    traj = sys_.integrate(preset16.state0, T=0.1, dt=0.01)
    led = ledger(sys_, traj)
    ref, data = _reference_rows(sys_, traj)
    for i in (3, 6, 10):
        for key in EnergyLedger.COLUMNS:
            expect = ref[key][i]
            assert expect > 0.0, key
            assert abs(led.rows[key][i] - expect) <= 1e-12 * expect, (key, i)
    for key, expect in data.items():
        assert expect > 0.0, key
        assert abs(led.data[key] - expect) <= 1e-12 * expect, key


def _ledger_oracle(sys_, traj):
    """Ledger rows and data by quadrature, with one LiftData per save time
    and per interval midpoint (compute_Hg_load at every time) and every
    term from quadrature-point tables, the ledger's form before its Gram
    matrices."""
    space = sys_.space
    times = traj.times
    n = len(times)

    def lift(t):
        return compute_Hg_load(sys_.lifting, sys_.pumps, sys_.source, t)

    rows = {k: np.zeros(n) for k in EnergyLedger.COLUMNS}
    ez2, ew3, ez3 = np.zeros(n), np.zeros(n), np.zeros(n)
    for i, t in enumerate(times):
        hg, hg_tilde, edzg_l2_sq, edzg_l3_32 = lift_row_terms(space, lift(t))
        zf = sys_.basis.expand(traj.states[i])
        z_grads = space.eval_grads(zf)
        ew = strain_norm(space.strain_samples(sys_.lifting.combine(sys_.pumps.rates(t)[0]) + zf))
        ez = strain_norm(sym_grad(z_grads))
        z_mag = np.linalg.norm(space.eval_values(zf), axis=-1)
        ew_l3 = lp(space, ew, 3)
        rows["z_l2_sq"][i] = lp(space, z_mag, 2) ** 2
        ez2[i], ew3[i], ez3[i] = lp(space, ez, 2) ** 2, ew_l3**3, lp(space, ez, 3) ** 3
        rows["psi1"][i] = lp(space, ew, 2) ** 2 + ew3[i]
        rows["psi2"][i] = ew_l3**2 + edzg_l2_sq + edzg_l3_32
        rows["z_w12_sq"][i] = rows["z_l2_sq"][i] + lp(space, strain_norm(z_grads), 2) ** 2
        rows["z_w13_cu"][i] = lp(space, z_mag, 3) ** 3 + ez3[i]
        rows["hg_l2_sq"][i], rows["hg_tilde_l2_sq"][i] = hg, hg_tilde
        if i > 0:
            dz = (traj.states[i] - traj.states[i - 1]) / (times[i] - times[i - 1])
            rows["dzdt_l2_sq"][i] = dz @ dz
    for key, vals in (("int_eps_z_l2_sq", ez2), ("int_eps_w_l3_cu", ew3),
                      ("int_eps_z_l3_cu", ez3)):
        rows[key][1:] = np.cumsum(0.5 * np.diff(times) * (vals[1:] + vals[:-1]))

    data = {"v0_l2_sq": rows["z_l2_sq"][0], "eps_v0_l2_sq": ez2[0], "eps_v0_l3_cu": ez3[0]}
    keys = ("hg_l2l2_sq", "hg_tilde_l2l2_sq", "zg_l3w13_cu", "dzg_l2h1_sq", "dzg_l2w13_cu")
    data.update(zip(keys, _midpoint(times, lambda t: lift_midpoint_integrands(space, lift(t)))))
    data["dzg_l2w13_cu"] **= 1.5
    _estimates(sys_.params, times, rows, data)
    return rows, data


def test_estimate_sides_are_their_written_terms(preset16):
    # both estimates' sides, the Gronwall exponent and the fitted constants,
    # written out from the ledger's rows and data functionals, on four_pumps
    sys_ = preset16.system
    traj = sys_.integrate(preset16.state0, T=0.3, dt=0.01)
    led = ledger(sys_, traj)
    r, d, nu, nu_tur = led.rows, led.data, sys_.params.nu, sys_.params.nu_tur

    def integral(key):
        return np.trapezoid(r[key], traj.times)

    lhs1 = r["z_l2_sq"].max() + integral("z_w12_sq") + integral("z_w13_cu")
    rhs1 = d["v0_l2_sq"] + d["zg_l3w13_cu"] + d["hg_l2l2_sq"]
    lhs2 = integral("dzdt_l2_sq") + r["z_w12_sq"].max() + r["z_w13_cu"].max()
    base2 = nu * d["eps_v0_l2_sq"] + (2 / 3) * nu_tur * d["eps_v0_l3_cu"] + d["hg_tilde_l2l2_sq"]
    expo = rhs1 + d["dzg_l2h1_sq"] + d["dzg_l2w13_cu"]
    assert expo < 700.0  # the clamp is not reached
    rhs2 = base2 * (1.0 + np.exp(expo))
    expect = {"estimate1_lhs": lhs1, "estimate1_rhs": rhs1, "C1_empirical": lhs1 / rhs1,
              "estimate2_lhs": lhs2, "estimate2_rhs": rhs2, "estimate2_exponent": expo,
              "C2_empirical": lhs2 / rhs2, "log10_C2": np.log10(lhs2 / rhs2)}
    for key, value in expect.items():
        assert value != 0.0 and abs(d[key] - value) <= 1e-12 * abs(value), key
    for key in ("z_w12_sq", "z_w13_cu", "dzdt_l2_sq"):
        assert integral(key) > 1e-6 * lhs1, key  # every term weighs in its sum


def test_log10_C2_is_not_clamped():
    # past the clamp at x = 700 C2_empirical is set by the clamp, while
    # log10_C2 = log10(lhs2 / (base2 (1 + e^x))) follows x; below it the two
    # agree, to roundoff
    params = ClosureParams(0.01, 0.1)
    times = np.array([0.0, 0.5, 1.0])
    rows = {key: np.array([1.0, 2.0, 3.0])
            for key in ("z_l2_sq", "z_w12_sq", "z_w13_cu", "dzdt_l2_sq")}
    base2 = 0.01 + (2.0 / 3.0) * 0.1 + 1.0
    for x in (300.0, 6333.0):
        data = {"v0_l2_sq": x, "zg_l3w13_cu": 0.0, "hg_l2l2_sq": 0.0, "dzg_l2h1_sq": 0.0,
                "dzg_l2w13_cu": 0.0, "eps_v0_l2_sq": 1.0, "eps_v0_l3_cu": 1.0,
                "hg_tilde_l2l2_sq": 1.0}
        _estimates(params, times, rows, data)
        expect = np.log10(data["estimate2_lhs"] / base2) - x / np.log(10.0)  # log(1 + e^x) = x
        assert abs(data["log10_C2"] - expect) <= 1e-14 * abs(expect)
        clamped = np.log10(data["C2_empirical"])
        assert (abs(clamped - expect) <= 1e-13 * abs(expect)) == (x < 700.0)


def _counted_ledger(sys_, traj, monkeypatch):
    """(ledger, the LiftData it built, the lift fields it tabulated): the
    fields are the rows of its `combine` calls."""
    import recirc.galerkin as galerkin
    from recirc.lifting import LiftingBasis

    built, combined = [], []
    build, combine = galerkin.compute_Hg_load, LiftingBasis.combine
    monkeypatch.setattr(galerkin, "compute_Hg_load", lambda *a: built.append(1) or build(*a))
    monkeypatch.setattr(LiftingBasis, "combine",
                        lambda self, r: combined.append(len(np.atleast_2d(r))) or combine(self, r))
    led = ledger(sys_, traj)
    monkeypatch.undo()
    return led, len(built), sum(combined)


# the exponential factor of estimate 2 multiplies its exponent's relative
# roundoff by the exponent: measured 2.3e-13 relative at an exponent of 322
EXP_AMPLIFIED = ("estimate2_rhs", "C2_empirical")


def _assert_matches_oracle(led, sys_, traj):
    """Every column within 1e-12 of its largest entry of the quadrature
    oracle, every datum within 1e-12 relative, and the exponentially
    amplified ones within 1e-14 times the exponent."""
    rows, data = _ledger_oracle(sys_, traj)
    assert list(led.rows) == list(rows)
    for key in EnergyLedger.COLUMNS:
        gap = np.abs(led.rows[key] - rows[key]).max()
        assert gap <= 1e-12 * np.abs(rows[key]).max(), key
    assert led.data.keys() == data.keys()
    for key, expect in data.items():
        rtol = 1e-14 * max(1.0, data["estimate2_exponent"]) if key in EXP_AMPLIFIED else 1e-12
        assert abs(led.data[key] - expect) <= rtol * abs(expect), key


def _lift_keys(pumps, times):
    """(the distinct g at the interval midpoints, the distinct gdot at the
    save times and midpoints, the distinct directions r / s of all their
    nonzero rates r, s the entry of r of largest magnitude), as exact
    bytes, -0 read as 0."""
    mids = 0.5 * (times[1:] + times[:-1])
    gs = [pumps.rates(t)[0] for t in mids]
    gdots = [pumps.rates(t)[1] for t in (*times, *mids)]
    directions = {(r / s + 0.0).tobytes() for r in (*gs, *gdots)
                  for s in [r[np.argmax(np.abs(r))]] if s != 0}
    return {r.tobytes() for r in gs}, {r.tobytes() for r in gdots}, directions


def test_ledger_one_lift_evaluation_per_rate_state(preset16, monkeypatch):
    # four_pumps ramps its rates up to t = 0.2 and holds them to T = 1: the
    # 100 midpoints have 21 distinct g and the 201 save times and midpoints
    # 2 distinct gdot, one of them zero; every pump runs one schedule, so
    # every nonzero rate has one direction, and the ledger tabulates one
    # lift field, builds no LiftData, and matches the oracle with one
    # LiftData per time
    sys_ = preset16.system
    traj = sys_.integrate(preset16.state0, T=1.0, dt=0.01)
    g_keys, gdot_keys, directions = _lift_keys(sys_.pumps, traj.times)
    assert len(g_keys) == 21 and len(gdot_keys) == 2 and len(directions) == 1
    led, built, tables = _counted_ledger(sys_, traj, monkeypatch)
    assert built == 0
    assert tables == len(directions)
    _assert_matches_oracle(led, sys_, traj)


def test_ledger_with_source_evaluates_every_time(preset16, monkeypatch):
    # a time-dependent source enters through the Gram matrix of H_g alone:
    # on the rate plateau (t > 0.2) equal rates share a lift field although
    # the source differs, and the ledger matches the oracle, which
    # evaluates every save time and every midpoint
    scn = preset16
    sys_ = ReducedSystem(scn.space, scn.basis, scn.lifting, scn.pumps, scn.params,
                         source=ManufacturedSolution(scn.params.nu, scn.params.nu_tur))
    traj = sys_.integrate(scn.state0, T=0.3, dt=0.02)
    times = traj.times
    assert sys_.pumps.rates(times[-1])[0].tobytes() == sys_.pumps.rates(times[-2])[0].tobytes()
    g_keys, gdot_keys, directions = _lift_keys(sys_.pumps, times)
    assert len(g_keys) == 11 and len(gdot_keys) == 2 and len(directions) == 1
    led, built, tables = _counted_ledger(sys_, traj, monkeypatch)
    assert built == 0
    assert tables == len(directions)
    assert led.data["hg_l2l2_sq"] > 0.0
    _assert_matches_oracle(led, sys_, traj)


@pytest.mark.parametrize("name", ["distinct", "spikes"])
def test_ledger_matches_oracle_across_rate_directions(name, monkeypatch):
    # four distinct schedules give several rate directions, one table each;
    # spikes ramps down with gdot = -r where it ramped up with r, and the
    # two share one table, scaled by |s|^3
    scn = rescale_case(name)
    sys_ = scn.system
    traj = sys_.integrate(scn.state0, T=1.0, dt=0.01)
    _, _, directions = _lift_keys(sys_.pumps, traj.times)
    assert (len(directions) > 1) == (name == "distinct")
    led, built, tables = _counted_ledger(sys_, traj, monkeypatch)
    assert built == 0 and tables == len(directions)
    _assert_matches_oracle(led, sys_, traj)


def _gram_system(kind, preset16, quiet12):
    """The systems whose Gram forms are pinned: pumps alone, pumps with the
    manufactured source, pumps with the ramp source, and the manufactured
    source without pumps (K = 0)."""
    scn = preset16
    if kind == "pumps":
        return scn.system
    if kind == "no_pumps":
        q = quiet12
        return ReducedSystem(q.space, q.basis, q.lifting, q.pumps, q.params,
                             source=ManufacturedSolution(q.params.nu, q.params.nu_tur))
    source = ramp_source() if kind == "ramp" else ManufacturedSolution(scn.params.nu,
                                                                      scn.params.nu_tur)
    return ReducedSystem(scn.space, scn.basis, scn.lifting, scn.pumps, scn.params, source=source)


GRAM_KINDS = ["pumps", "mms", "ramp", "no_pumps"]


@pytest.mark.parametrize("kind", GRAM_KINDS)
def test_hg_gram_form_matches_quadrature(kind, preset16, quiet12):
    # c^T G c against the quadrature of the LiftData tables of H_g and H~_g,
    # on the ramp, at its end knot and on the plateau
    sys_ = _gram_system(kind, preset16, quiet12)
    assert (len(sys_.lifting) == 0) == (kind == "no_pumps")
    times = np.array([0.0, 0.05, 0.2, 0.5])
    rates = [sys_.pumps.rates(t) for t in times]
    got = _hg_form(sys_)(times, *(np.array(r).reshape(len(times), -1) for r in zip(*rates)))
    for i, t in enumerate(times):
        ref = hg_sq(sys_.space, lift_data(sys_, t))
        assert ref[0] > 0.0 or (kind == "pumps" and t == 0.0)
        for a, b in zip((got[0][i], got[1][i]), ref):
            assert abs(a - b) <= 1e-12 * b


def _gram_oracle(sys_):
    """The Gram matrix of the fields [F0, F1, F2, zeta_k, (grad zeta_q)
    zeta_p], all held at once, from `eval_values` and `eval_grads`, one
    sum over all quadrature points per entry."""
    space, zetas, source = sys_.space, sys_.lifting.zetas, sys_.source
    nt, nq = space.qweights.shape
    K = len(zetas)
    vals = np.array([space.eval_values(z) for z in zetas]).reshape(K, nt, nq, 2)
    grads = np.array([space.eval_grads(z) for z in zetas]).reshape(K, nt, nq, 2, 2)
    conv = np.einsum("qcxab,pcxb->qpcxa", grads, vals).reshape(K * K, nt, nq, 2)
    parts = np.zeros((0, nt, nq, 2)) if source is None else source.parts_table(space)
    phi = np.concatenate([parts, vals, conv]).reshape(-1, nt, nq * 2)
    weighted = np.repeat(space.qweights, 2, axis=1) * phi
    # numpy's pairwise summation along the contiguous axis
    return np.array([(weighted * f).reshape(len(phi), -1).sum(axis=1)
                     for f in phi]).reshape(len(phi), len(phi))


@pytest.mark.parametrize("kind", [*GRAM_KINDS, "zero"])
def test_hg_gram_forms_each_field_once(kind, preset16, quiet12, monkeypatch):
    # one value_planes call for the K lifts, one grad_planes call per lift
    # and no eval_grads; G is exactly symmetric and is the Gram matrix of
    # the fields held at once to 1e-14 of its largest entry, with and
    # without pumps and sources, and empty without either
    sys_ = quiet12 if kind == "zero" else _gram_system(kind, preset16, quiet12)
    K = len(sys_.lifting)
    ref = _gram_oracle(sys_)
    calls = {name: 0 for name in ("value_planes", "grad_planes", "eval_grads")}
    for name in calls:
        def counted(self, u, _name=name, _f=getattr(MixedSpace, name)):
            calls[_name] += 1
            return _f(self, u)
        monkeypatch.setattr(MixedSpace, name, counted)
    G = _hg_gram(sys_)
    monkeypatch.undo()
    assert calls == {"value_planes": 1, "grad_planes": K, "eval_grads": 0}
    m = 0 if sys_.source is None else 3
    assert G.shape == ref.shape == (m + K + K * K,) * 2
    assert np.array_equal(G, G.T)
    if G.size:
        assert np.abs(G - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("kind", GRAM_KINDS)
def test_ledger_gram_terms_match_quadrature(kind, preset16, quiet12):
    # every L2 term of the rows and data, a Gram form in the ledger, against
    # its quadrature in the oracle, with and without pumps and sources
    sys_ = _gram_system(kind, preset16, quiet12)
    z0 = 0.05 * np.random.default_rng(21).standard_normal(sys_.basis.size)
    traj = sys_.integrate(GalerkinState(0.0, z0), T=0.3, dt=0.05)
    _assert_matches_oracle(ledger(sys_, traj), sys_, traj)


def test_ledger_v_l2_matches_space_norm(preset16):
    # the ledger's Gram form y^T (W^T M W) y against the quadrature norm of
    # the reconstructed velocity, on the ramp and on the plateau
    sys_ = preset16.system
    traj = sys_.integrate(preset16.state0, T=0.3, dt=0.01)
    got = ledger(sys_, traj).v_l2
    for i in (0, 5, 20, 30):
        ref = sys_.space.norm(sys_.velocity(traj.states[i], traj.times[i]), "L2")
        assert abs(got[i] - ref) <= 1e-12 * ref


def test_ledger_reads_the_steppers_state_fields(preset16, monkeypatch):
    # at every save time the ledger's closure fields of w = zeta_g + z are,
    # bit for bit, those of the last defect of the step that made the state;
    # a defect writes its stress into the fields it formed, so each is
    # copied when it is formed
    sys_ = preset16.system
    formed = []
    fields = ReducedSystem.state_fields

    def recorded(self, z, g):
        f = fields(self, z, g)
        formed.append(StateFields(f.w_eps.copy(), f.w_eps_mag.copy()))
        return f

    monkeypatch.setattr(ReducedSystem, "state_fields", recorded)
    steps = []
    traj = sys_.integrate(preset16.state0, T=0.3, dt=0.01,
                          on_step=lambda state: steps.append(formed[-1]))
    assert len(steps) == len(traj) - 1 == 30
    del formed[:]
    ledger(sys_, traj)
    assert len(formed) == len(traj)
    for i, (f, g) in enumerate(zip(formed[1:], steps), start=1):
        assert np.array_equal(f.w_eps, g.w_eps), i
        assert np.array_equal(f.w_eps_mag, g.w_eps_mag), i


def test_ledger_patches_leave_no_instance_residue(preset16):
    # run after the tests above: they patch classes, so the session-wide
    # space and system keep their class methods
    assert_no_instance_patches(preset16.space)
    assert_no_instance_patches(preset16.system)
