"""Batch command-line front door.

Subcommands: validate, simulate, lift, eigen, study {dt,modes,mesh},
contract. Every output file carries a header comment with the code version
and the config hash; identical config and seed give bit-identical CSVs on
the same platform. Exit codes: 0 success, 1 numerical failure, 2 config
error.
"""

import argparse
import json
import os
import sys
import time
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
from .monitors import contraction, ledger
from .space import MixedSpace
from .vtk import vtk_geometry, write_vtk


# the most steps the finest run of `study dt` may take; every state of a run is kept
STUDY_MAX_STEPS = 100_000
# the variables that set the thread count of numpy's BLAS and of OpenMP
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _write_csv(path, table, cfg_hash):
    """Write `table`, a mapping from column name to a 1-D sequence, as CSV:
    the line `# recirc <version> config=<hash>`, the header row, then one
    row per index. A float column prints as %.17g, which reads back to the
    same double; an integer column prints in decimal. Columns of unequal
    length or ndim != 1 are a ValueError, any other dtype a TypeError."""
    columns = [np.asarray(c) for c in table.values()]
    if any(c.ndim != 1 for c in columns) or len({len(c) for c in columns}) > 1:
        raise ValueError(f"columns {list(table)} are not 1-D of one length: "
                         f"shapes {[c.shape for c in columns]}")
    texts = []
    for name, c in zip(table, columns):
        if c.dtype.kind not in "fiu":
            raise TypeError(f"column {name!r} is {c.dtype}, neither float nor integer")
        texts.append([f"{x:.17g}" for x in c.tolist()] if c.dtype.kind == "f"
                     else [str(x) for x in c.tolist()])
    lines = [f"# recirc {__version__} config={cfg_hash}", ",".join(table),
             *map(",".join, zip(*texts))]
    Path(path).write_text("\n".join(lines) + "\n")


def _write_json(path, obj):
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _environment():
    """The numerical environment a summary records: numpy's BLAS library and
    version, as numpy was built, and the thread variables that are set, as
    this process reads them; an unset one is left out, since no output
    holds a null. The BLAS thread count sets the summation order of some
    products, so it can move the last digits of the outputs."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"blas": {k: blas[k] for k in ("name", "version") if blas.get(k) is not None},
            "threads": {v: os.environ[v] for v in BLAS_THREAD_VARS if v in os.environ}}


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
    """The output directory, made if missing; a path that cannot be a
    directory is a ConfigError at the flag or key that named it."""
    out = Path(args.output_dir or cfg.output["dir"])
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError([("--output-dir" if args.output_dir else "output.dir",
                            f"cannot make output directory: {exc}")]) from exc
    return out


def _write_trajectory(path, traj, system, cfg_hash):
    """trajectory.csv; net_flux is the discrete net boundary flux of
    zeta_g(t), which the lifts' traces make zero up to roundoff,
    tangent_scale the factor by which the step rescaled its carried closure
    tangent and start_order the order of the extrapolation the step's Newton
    iteration started from."""
    lift_flux = system.lifting.zetas @ system.space.flux_vector  # (K,)
    _write_csv(path, {"t": traj.times,
                      **{f"z{k + 1}": z for k, z in enumerate(traj.states.T)},
                      "iterations": traj.iterations, "residual": traj.step_residuals,
                      "tangents": traj.tangents,
                      "net_flux": [lift_flux @ system.pumps.rates(t)[0] for t in traj.times],
                      "tangent_scale": traj.tangent_scales,
                      "start_order": traj.start_orders},
               cfg_hash)


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
        diag = state.diag
        print(f"step {done[0]}/{n} t={state.t:.6g} iterations={diag['iterations']} "
              f"residual={diag['residual']:.3e} evaluations={diag['evaluations']} "
              f"start_order={diag['start_order']}", file=sys.stderr)

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
    _write_csv(out / "ledger.csv", {"t": led.times, **led.rows}, h)

    every = int(cfg.output["every"])
    space = scenario.space
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
        "final_v_l2": float(led.v_l2[-1]),
        "max_v_l2": float(led.v_l2.max()),
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
            # [p] = the number of steps that started from the order-p extrapolation
            "start_order_histogram": np.bincount(traj.start_orders[1:]).tolist(),
        },
        # wall time per phase; output is the CSVs and the VTK files, not
        # summary.json itself; process CPU time per set-up stage
        "phases": {"setup_s": lap[0], "integrate_s": lap[1], "ledger_s": lap[3],
                   "output_s": lap[2] + lap[4], "setup_stages": scenario.stage_s},
        "environment": _environment(),
        **{key: finite(led.data[key]) for key in ("estimate1_lhs", "estimate1_rhs",
                                                  "estimate2_lhs", "estimate2_exponent",
                                                  "log10_C2")},
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
    pumps = scenario.pumps.pumps
    l2 = [space.norm(z, "L2") for z in lb.zetas]
    for k, (pump, z) in enumerate(zip(pumps, lb.zetas), 1):
        write_vtk(out / f"lift_{k}.vtk", scenario.mesh,
                  point_vectors={"zeta": space.vertex_velocity(z)},
                  point_scalars={"pressure": lb.pressures[k - 1][: scenario.mesh.num_vertices]},
                  title=f"recirc {__version__} config={h} lift pump {k}", geometry=geometry)
        for role, prof in (("injector", pump.injector), ("collector", pump.collector)):
            order = np.argsort(prof.arcs)
            _write_csv(out / f"profile_{k}_{role}.csv",
                       {"arc_length": prof.arcs[order], "value": prof.values[order]}, h)
    _write_csv(out / "lifting_report.csv", {
        "pump": np.arange(1, len(pumps) + 1), "residual": lb.residuals, "zeta_l2": l2,
        "zeta_h1": [np.sqrt(a**2 + space.norm(z, "H1semi") ** 2) for a, z in zip(l2, lb.zetas)],
        "psi_l2_boundary": [space.norm(pump.psi, "L2boundary") for pump in pumps]}, h)
    _say(args.quiet, f"lift: {len(pumps)} pumps, report in {out}")
    return 0


def cmd_eigen(args):
    cfg = _load_config(args)
    out = _outdir(args, cfg)
    h = cfg.hash()
    scenario = build_scenario(cfg)
    basis = scenario.basis
    _write_csv(out / "eigenvalues.csv",
               {"mode": np.arange(1, basis.size + 1), "lambda": basis.eigenvalues,
                "rayleigh_residual": basis.rayleigh_residuals}, h)
    basis.save(out / "basis.npz")
    summary = {
        "config_hash": h,
        "modes": basis.size,
        "lambda_1": float(basis.eigenvalues[0]),
        "gram_residual": float(basis.gram_residual),
        "max_rayleigh_residual": float(basis.rayleigh_residuals.max()),
        "korn_constant": scenario.space.korn_constant(),
        "subspace_dimension": subspace_dimension(scenario.space),
        "environment": _environment(),
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
    """The comma list of integers given at flag `what`, or `default` when the
    flag is not given; any text given, "" included, is parsed."""
    try:
        return [int(x) for x in (default if text is None else text).split(",")]
    except ValueError:
        raise ConfigError([(what, f"expected a comma list of integers, got {text!r}")])


def _parse_int(text, default, what):
    """The integer given at flag `what`, or `default` when it is not given."""
    try:
        return int(default if text is None else text)
    except ValueError:
        raise ConfigError([(what, f"expected an integer, got {text!r}")])


def cmd_study(args):
    cfg = _load_config(args)
    h = cfg.hash()
    unread = {"dt": "--levels", "mesh": "--reference"}.get(args.kind)
    if unread and getattr(args, unread[2:]) is not None:
        raise ConfigError([(unread, f"study {args.kind} does not read {unread}")])

    if args.kind == "modes":
        levels = _parse_int_list(args.levels, "5,10,20,40", "--levels")
        n_ref = _parse_int(args.reference, 80, "--reference")
        bad = [n for n in levels if not 1 <= n <= n_ref]
        if bad:
            raise ConfigError([("--levels", f"mode counts {bad} not in 1..{n_ref} (--reference)")])
        out = _outdir(args, cfg)
        scenario = build_scenario(cfg, modes=n_ref)
        traj_ref = _integrate(scenario)
        errs = []
        for n in levels:
            traj = _integrate(scenario, GalerkinState(0.0, scenario.state0.z[:n].copy()),
                              scenario.system.truncate(n))
            errs.append(_l2l2_diff(traj_ref.times, traj.states, traj_ref.states))
        _write_csv(out / "study_modes.csv", {"modes": levels, "error_vs_reference": errs}, h)
        _say(args.quiet, "study modes:", {n: f"{e:.3e}" for n, e in zip(levels, errs)})
        return 0

    if args.kind == "dt":
        halvings = _parse_int(args.reference, 3, "--reference")
        if halvings < 1:
            raise ConfigError([("--reference", f"halving count {halvings} < 1")])
        try:
            finest = step_count(cfg.time["T"], cfg.time["dt"] / 2**halvings)
        except (OverflowError, ValueError) as exc:
            raise ConfigError([("--reference", f"halving count {halvings}: {exc}")])
        if finest > STUDY_MAX_STEPS:
            raise ConfigError([("--reference", f"halving count {halvings}: the finest run "
                                f"takes {finest} steps, above the cap of {STUDY_MAX_STEPS}")])
        out = _outdir(args, cfg)
        dts = [cfg.time["dt"] / 2**k for k in range(halvings + 1)]
        scenario = build_scenario(cfg)
        trajs = [_integrate(scenario, dt=dt) for dt in dts]
        diffs = [_l2l2_diff(coarse.times, coarse.states, fine.states[::2])
                 for coarse, fine in zip(trajs, trajs[1:])]
        _write_csv(out / "study_dt.csv", {"dt": dts[:-1], "diff_to_half_dt": diffs}, h)
        _say(args.quiet, "study dt:", list(zip(dts, diffs)))
        return 0

    # mesh study: manufactured-solution verification on the full space
    levels = _parse_int_list(args.levels, "8,16,32", "--levels")
    bad = [n for n in levels if n < 1]
    if bad:
        raise ConfigError([("--levels", f"mesh sizes {bad} < 1")])
    repeated = sorted({n for n in levels if levels.count(n) > 1})
    if repeated:
        raise ConfigError([("--levels", f"mesh sizes {repeated} repeated")])
    if (cfg.domain["Lx"], cfg.domain["Ly"]) != (1, 1):
        raise ConfigError([("domain", "study mesh needs the unit square, where its manufactured "
                            f"solution vanishes on the boundary; got {cfg.domain}")])
    out = _outdir(args, cfg)
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
        return float(np.sqrt(acc["sum"])), sum(iterations), max(iterations)

    errs, iters, iters_max = zip(*[run(n) for n in levels])
    # log(e_prev / e) / log(n / n_prev): log2 of the error ratio when n doubles
    order = [np.nan] + [np.log2(e0 / e) / np.log2(n / n0)
                        for e0, e, n0, n in zip(errs, errs[1:], levels, levels[1:])]
    _write_csv(out / "study_mesh.csv",
               {"mesh": levels, "l2l2_error": errs, "observed_order": order,
                "iterations_total": iters, "iterations_max": iters_max}, h)
    _say(args.quiet, "study mesh:", [(n, f"{e:.3e}") for n, e in zip(levels, errs)])
    return 0


def cmd_contract(args):
    cfg = _load_config(args)
    if not (np.isfinite(args.eps) and args.eps != 0):
        raise ConfigError([("--eps", f"expected a nonzero finite perturbation, got {args.eps}")])
    out = _outdir(args, cfg)
    h = cfg.hash()
    scenario = build_scenario(cfg).built()
    rng = np.random.default_rng(int(cfg.seed))
    direction = rng.standard_normal(scenario.basis.size)
    direction /= np.linalg.norm(direction)

    def run(z0):
        return _integrate(scenario, GalerkinState(0.0, z0))

    base = run(scenario.state0.z)
    eps_fit, eps_check = args.eps, args.eps / 10.0
    pair_fit = run(scenario.state0.z + eps_fit * direction)
    pair_check = run(scenario.state0.z + eps_check * direction)

    rep, rep_check = contraction(scenario.system, base, pair_fit, pair_check)
    holds = rep_check.bound_holds(rep.fitted_C2)

    _write_csv(out / "contraction.csv",
               {"t": rep.times, "diff_l2_sq": rep.diff_sq, "v1_l4_pow8": rep.w8,
                "cum_w8": rep.cum_w8, "adjusted": rep.adjusted()}, h)
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
