"""Batch command-line front door.

Subcommands: validate, simulate, lift, eigen, study {dt,modes,mesh},
contract. Every output file carries a header comment with the code version
and the config hash; identical config and seed give bit-identical CSVs on
the same platform. Exit codes: 0 success, 1 numerical failure, 2 config
error. RECIRC_THREADS caps the fan-out of the independent runs of every
study kind.
"""

import argparse
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .config import build_scenario, preset_path, validate
from .eigenbasis import subspace_dimension
from .errors import ConfigError, RecircError, StepError
from .fullspace import FullSpaceSystem
from .galerkin import GalerkinState, step_count
from .mesh import build_rect_mesh
from .mms import ManufacturedSolution
from .monitors import contraction, ledger, velocity_l2
from .space import MixedSpace
from .vtk import vtk_geometry, write_vtk


# the most steps the finest run of `study dt` may take; every state of a run is kept
STUDY_MAX_STEPS = 100_000


def _fmt(x):
    return f"{x:.17g}"


def _write_csv(path, columns, rows, cfg_hash):
    lines = [f"# recirc {__version__} config={cfg_hash}", ",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def _write_json(path, obj):
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _config_errors(exc):
    """The {"valid": false, "errors": [...]} report of a ConfigError."""
    return json.dumps({"valid": False,
                       "errors": [{"path": p, "message": m} for p, m in exc.issues]},
                      indent=2)


def _say(quiet, *args):
    if not quiet:
        print(*args)


def _load_config(args):
    if args.config.startswith("preset:"):
        return validate(preset_path(args.config.split(":", 1)[1]))
    return validate(args.config)


def _outdir(args, cfg):
    out = Path(args.output_dir or cfg.output["dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _fan_out(fn, items):
    """[fn(x) for x in items], spread over RECIRC_THREADS threads."""
    try:
        threads = max(1, int(os.environ.get("RECIRC_THREADS", "1")))
    except ValueError:
        threads = 1
    if threads == 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _write_trajectory(path, traj, system, cfg_hash):
    """trajectory.csv; its last column, net_flux, is the discrete net boundary
    flux of zeta_g(t), which the lifts' traces make zero up to roundoff."""
    n = traj.states.shape[1]
    cols = (["t"] + [f"z{k + 1}" for k in range(n)]
            + ["iterations", "residual", "tangents", "net_flux"])
    lift_flux = system.lifting.zetas @ system.space.flux_vector  # (K,)
    rows = [
        [float(traj.times[i])]
        + [float(z) for z in traj.states[i]]
        + [int(traj.iterations[i]), float(traj.step_residuals[i]), int(traj.tangents[i]),
           float(lift_flux @ system.pumps.rates(traj.times[i])[0])]
        for i in range(len(traj))
    ]
    _write_csv(path, cols, rows, cfg_hash)


def _integrate(scenario, state0=None, system=None, dt=None, on_step=None):
    """Run a reduced system (the scenario's by default) from state0 (the
    scenario's) to the config's T with its scheme, at dt (the config's)."""
    cfg = scenario.config
    system = scenario.system if system is None else system
    return system.integrate(
        scenario.state0 if state0 is None else state0,
        T=cfg.time["T"],
        dt=cfg.time["dt"] if dt is None else dt,
        scheme=cfg.time["scheme"],
        on_step=on_step,
    )


def _progress(cfg):
    """An on_step hook printing one line per step to stderr."""
    n = step_count(cfg.time["T"], cfg.time["dt"])
    done = [0]

    def on_step(state):
        done[0] += 1
        print(f"step {done[0]}/{n} t={state.t:.6g} iterations={state.diag['iterations']} "
              f"residual={state.diag['residual']:.3e}", file=sys.stderr)

    return on_step


def cmd_simulate(args):
    cfg = _load_config(args)
    out = _outdir(args, cfg)
    h = cfg.hash()
    t0 = time.time()
    marks = [time.perf_counter()]  # phase boundaries
    scenario = build_scenario(cfg).built()
    marks.append(time.perf_counter())
    try:
        traj = _integrate(scenario,
                          on_step=_progress(cfg) if args.progress and not args.quiet else None)
    except StepError as exc:
        if exc.trajectory is not None:
            _write_trajectory(out / "trajectory_partial.csv", exc.trajectory, scenario.system,
                              h)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    marks.append(time.perf_counter())
    _write_trajectory(out / "trajectory.csv", traj, scenario.system, h)
    marks.append(time.perf_counter())

    led = ledger(scenario.system, traj)
    marks.append(time.perf_counter())
    cols = ["t"] + list(led.rows.keys())
    rows = [
        [float(led.times[i])] + [float(led.rows[k][i]) for k in led.rows]
        for i in range(len(led.times))
    ]
    _write_csv(out / "ledger.csv", cols, rows, h)

    every = int(cfg.output["every"])
    space = scenario.space
    v_norms = velocity_l2(scenario.system, traj)
    geometry = vtk_geometry(scenario.mesh)
    for i in range(len(traj)):
        if i % every == 0 or i == len(traj) - 1:
            v = scenario.system.velocity(traj.states[i], traj.times[i])
            write_vtk(
                out / f"velocity_{i:05d}.vtk",
                scenario.mesh,
                point_vectors={"velocity": space.vertex_velocity(v)},
                title=f"recirc {__version__} config={h} t={traj.times[i]:.6g}",
                geometry=geometry,
            )
    marks.append(time.perf_counter())
    lap = np.diff(marks).tolist()

    def finite(x):
        x = float(x)
        return x if np.isfinite(x) else None  # strict JSON has no Infinity

    summary = {
        "version": __version__,
        "config_hash": h,
        "modes": scenario.basis.size,
        "scheme": cfg.time["scheme"],
        "final_v_l2": float(v_norms[-1]),
        "max_v_l2": float(v_norms.max()),
        "final_z_l2": float(np.linalg.norm(traj.states[-1])),
        "C1_empirical": finite(led.data["C1_empirical"]),
        "C2_empirical": finite(led.data["C2_empirical"]),
        "wall_time_s": time.time() - t0,
        "solver": {
            "iterations_total": int(traj.iterations.sum()),
            "iterations_max": int(traj.iterations.max()),
            "backtracks_total": int(traj.backtracks.sum()),
            "worst_residual": float(traj.step_residuals.max()),
            "tangents_total": int(traj.tangents.sum()),
            # [n] = the number of steps that took n iterations
            "iterations_histogram": np.bincount(traj.iterations[1:]).tolist(),
            "evaluations_total": int(traj.evaluations.sum()),
        },
        # wall time per phase; output is the CSVs, the velocity norms and the
        # VTK files, not summary.json itself
        "phases": {"setup_s": lap[0], "integrate_s": lap[1], "ledger_s": lap[3],
                   "output_s": lap[2] + lap[4]},
    }
    _write_json(out / "summary.json", summary)
    _say(args.quiet, f"simulate: max ||v|| = {summary['max_v_l2']:.6g}, "
         f"artifacts in {out}")
    return 0


def cmd_lift(args):
    cfg = _load_config(args)
    out = _outdir(args, cfg)
    h = cfg.hash()
    scenario = build_scenario(cfg)
    space, lb = scenario.space, scenario.lifting
    geometry = vtk_geometry(scenario.mesh)
    rows = []
    for k, pump in enumerate(scenario.pumps.pumps, 1):
        z = lb.zetas[k - 1]
        l2 = space.norm(z, "L2")
        rows.append([k, float(lb.residuals[k - 1]), float(l2),
                     float(np.sqrt(l2**2 + space.norm(z, "H1semi") ** 2)),
                     float(space.norm(pump.psi, "L2boundary"))])
        write_vtk(out / f"lift_{k}.vtk", scenario.mesh,
                  point_vectors={"zeta": space.vertex_velocity(z)},
                  point_scalars={"pressure": lb.pressures[k - 1][: scenario.mesh.num_vertices]},
                  title=f"recirc {__version__} config={h} lift pump {k}", geometry=geometry)
        for role, prof in (("injector", pump.injector), ("collector", pump.collector)):
            order = np.argsort(prof.arcs)
            _write_csv(out / f"profile_{k}_{role}.csv", ["arc_length", "value"],
                       [[float(prof.arcs[i]), float(prof.values[i])] for i in order], h)
    _write_csv(out / "lifting_report.csv",
               ["pump", "residual", "zeta_l2", "zeta_h1", "psi_l2_boundary"], rows, h)
    _say(args.quiet, f"lift: {len(rows)} pumps, report in {out}")
    return 0


def cmd_eigen(args):
    cfg = _load_config(args)
    out = _outdir(args, cfg)
    h = cfg.hash()
    scenario = build_scenario(cfg)
    basis = scenario.basis
    rows = [
        [k + 1, float(basis.eigenvalues[k]), float(basis.rayleigh_residuals[k])]
        for k in range(basis.size)
    ]
    _write_csv(out / "eigenvalues.csv", ["mode", "lambda", "rayleigh_residual"], rows, h)
    basis.save(out / "basis.npz")
    summary = {
        "config_hash": h,
        "modes": basis.size,
        "lambda_1": float(basis.eigenvalues[0]),
        "gram_residual": float(basis.gram_residual),
        "max_rayleigh_residual": float(basis.rayleigh_residuals.max()),
        "korn_constant": scenario.space.korn_constant(),
        "subspace_dimension": subspace_dimension(scenario.space),
    }
    _write_json(out / "eigen_summary.json", summary)
    _say(args.quiet, f"eigen: {basis.size} modes, lambda_1 = {basis.eigenvalues[0]:.6f}, "
         f"gram residual {basis.gram_residual:.2e}, korn constant "
         f"{summary['korn_constant']:.6f}")
    return 0


def cmd_validate(args):
    try:
        cfg = _load_config(args)
    except ConfigError as exc:
        print(_config_errors(exc))
        return 2
    print(json.dumps({"valid": True, "config_hash": cfg.hash()}, indent=2))
    return 0


def _l2l2_diff(times, states_a, states_b):
    """Coefficient-level L2(0,T;L2) distance; shorter state padded with zeros."""
    na, nb = states_a.shape[1], states_b.shape[1]
    n = max(na, nb)
    d = np.zeros((len(times), n))
    d[:, :na] = states_a
    d[:, :nb] -= states_b
    e2 = (d * d).sum(axis=1)
    return float(np.sqrt(np.trapezoid(e2, times)))


def _parse_int_list(text, default, what):
    try:
        return [int(x) for x in (text or default).split(",")]
    except ValueError:
        raise ConfigError([(what, f"expected a comma list of integers, got {text!r}")])


def cmd_study(args):
    cfg = _load_config(args)
    out = _outdir(args, cfg)
    h = cfg.hash()
    unread = {"dt": "--levels", "mesh": "--reference"}.get(args.kind)
    if unread and getattr(args, unread[2:]) is not None:
        raise ConfigError([(unread, f"study {args.kind} does not read {unread}")])

    if args.kind == "modes":
        levels = _parse_int_list(args.levels, "5,10,20,40", "--levels")
        try:
            n_ref = int(args.reference or 80)
        except ValueError:
            raise ConfigError([("--reference", f"expected an integer, got {args.reference!r}")])
        bad = [n for n in levels if not 1 <= n <= n_ref]
        if bad:
            raise ConfigError([("--levels", f"mode counts {bad} not in 1..{n_ref} (--reference)")])
        scenario = build_scenario(cfg, modes=n_ref).built()
        traj_ref = _integrate(scenario)

        def run(n):
            return _integrate(scenario, GalerkinState(0.0, scenario.state0.z[:n].copy()),
                              scenario.system.truncate(n))

        trajs = _fan_out(run, levels)
        rows = [
            [n, _l2l2_diff(traj_ref.times, t.states, traj_ref.states)]
            for n, t in zip(levels, trajs)
        ]
        _write_csv(out / "study_modes.csv", ["modes", "error_vs_reference"], rows, h)
        _say(args.quiet, "study modes:", {n: f"{e:.3e}" for n, e in rows})
        return 0

    if args.kind == "dt":
        try:
            halvings = int(args.reference or 3)
        except ValueError:
            raise ConfigError([("--reference", f"expected an integer, got {args.reference!r}")])
        if halvings < 1:
            raise ConfigError([("--reference", f"halving count {halvings} < 1")])
        try:
            finest = step_count(cfg.time["T"], cfg.time["dt"] / 2**halvings)
        except (OverflowError, ValueError) as exc:
            raise ConfigError([("--reference", f"halving count {halvings}: {exc}")])
        if finest > STUDY_MAX_STEPS:
            raise ConfigError([("--reference", f"halving count {halvings}: the finest run "
                                f"takes {finest} steps, above the cap of {STUDY_MAX_STEPS}")])
        dts = [cfg.time["dt"] / 2**k for k in range(halvings + 1)]
        scenario = build_scenario(cfg).built()  # before the threads read it

        trajs = _fan_out(lambda dt: _integrate(scenario, dt=dt), dts)
        rows = []
        for k in range(halvings):
            coarse, fine = trajs[k], trajs[k + 1]
            diff = _l2l2_diff(coarse.times, coarse.states, fine.states[::2])
            rows.append([dts[k], diff])
        _write_csv(out / "study_dt.csv", ["dt", "diff_to_half_dt"], rows, h)
        _say(args.quiet, "study dt:", [(r[0], r[1]) for r in rows])
        return 0

    # mesh study: manufactured-solution verification on the full space
    levels = _parse_int_list(args.levels, "8,16,32", "--levels")
    bad = [n for n in levels if n < 1]
    if bad:
        raise ConfigError([("--levels", f"mesh sizes {bad} < 1")])
    params = build_scenario(cfg).params
    mms = ManufacturedSolution(params.nu, params.nu_tur)

    def run(n):
        space = MixedSpace(build_rect_mesh(cfg.domain["Lx"], cfg.domain["Ly"], n, n))
        fs = FullSpaceSystem(space, params, source=mms)
        acc = {"sum": 0.0, "prev": None}

        def observer(t, z):
            e2 = mms.velocity_error(space, z, t) ** 2
            if acc["prev"] is not None:
                acc["sum"] += 0.5 * (acc["prev"] + e2) * cfg.time["dt"]
            acc["prev"] = e2

        _, iterations = fs.integrate(mms.initial_velocity(space), T=cfg.time["T"],
                                     dt=cfg.time["dt"], observer=observer)
        return float(np.sqrt(acc["sum"])), sum(iterations)

    results = _fan_out(run, levels)
    errs = [e for e, _ in results]
    rows = []
    for i, (n, (e, iters)) in enumerate(zip(levels, results)):
        order = float(np.log2(errs[i - 1] / e)) if i else float("nan")
        rows.append([n, e, order, iters])
    _write_csv(out / "study_mesh.csv",
               ["mesh", "l2l2_error", "observed_order", "iterations_total"], rows, h)
    _say(args.quiet, "study mesh:", [(r[0], f"{r[1]:.3e}") for r in rows])
    return 0


def cmd_contract(args):
    cfg = _load_config(args)
    if not (np.isfinite(args.eps) and args.eps != 0):
        raise ConfigError([("--eps", f"expected a nonzero finite perturbation, got {args.eps}")])
    out = _outdir(args, cfg)
    h = cfg.hash()
    scenario = build_scenario(cfg).built()
    rng = np.random.default_rng(cfg.seed)
    direction = rng.standard_normal(scenario.basis.size)
    direction /= np.linalg.norm(direction)

    def run(z0):
        return _integrate(scenario, GalerkinState(0.0, z0))

    base = run(scenario.state0.z)
    eps_fit, eps_check = args.eps, args.eps / 10.0
    pair_fit = run(scenario.state0.z + eps_fit * direction)
    pair_check = run(scenario.state0.z + eps_check * direction)

    rep = contraction(scenario.system, base, pair_fit)
    rep_check = contraction(scenario.system, base, pair_check, w8=rep.w8)  # one base series
    holds = rep_check.bound_holds(rep.fitted_C2)

    rows = [
        [float(rep.times[i]), float(rep.diff_sq[i]), float(rep.w8[i]),
         float(rep.cum_w8[i]), float(rep.adjusted()[i])]
        for i in range(len(rep.times))
    ]
    _write_csv(out / "contraction.csv",
               ["t", "diff_l2_sq", "v1_l4_pow8", "cum_w8", "adjusted"], rows, h)
    summary = {
        "config_hash": h,
        "fitted_C2": rep.fitted_C2,
        "identical_pair": rep.identical,
        "check_eps": eps_check,
        "check_bound_holds": holds,
    }
    _write_json(out / "contraction_summary.json", summary)
    _say(args.quiet, f"contract: fitted C2 = {rep.fitted_C2:.6g}, "
         f"independent pair bound holds: {holds}")
    return 0 if holds else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="recirc",
        description="Pump-driven recirculation simulator (desk scale)",
    )
    parser.add_argument("--version", action="version", version=f"recirc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True,
                       help="JSON config path, or preset:<name>")
        p.add_argument("--output-dir", default=None)
        p.add_argument("--quiet", action="store_true")

    for name, fn in (("simulate", cmd_simulate), ("lift", cmd_lift),
                     ("eigen", cmd_eigen), ("validate", cmd_validate)):
        p = sub.add_parser(name)
        common(p)
        p.set_defaults(fn=fn)
        if name == "simulate":
            p.add_argument("--progress", action="store_true",
                           help="print each step's time, iterations and residual to stderr")

    p = sub.add_parser("study")
    p.add_argument("kind", choices=("dt", "modes", "mesh"))
    common(p)
    p.add_argument("--levels", default=None,
                   help="comma list: mode counts (modes) or mesh sizes (mesh)")
    p.add_argument("--reference", default=None,
                   help="reference mode count (modes) or halving count (dt)")
    p.set_defaults(fn=cmd_study)

    p = sub.add_parser("contract")
    common(p)
    p.add_argument("--eps", type=float, default=1e-3,
                   help="fitting perturbation size (check pair uses eps/10)")
    p.set_defaults(fn=cmd_contract)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(_config_errors(exc), file=sys.stderr)
        return 2
    except RecircError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
