"""The four benchmark workloads and the recirc layers the traced run wraps.

Each workload runs one CLI command through the program's own entry point,
`recirc.cli.main(argv)`, on a config file generated from a preset, so the
command's set-up, time stepping, monitors and output writing are the
program's code, not a copy. For the length of one operation, `StepHooks`
replaces `ReducedSystem.integrate` and `FullSpaceSystem.integrate` with thin
wrappers that stamp the end of set-up and every step through the program's
own hooks (`integrate(on_step=...)` and `integrate(observer=...)`), run the
machine-speed probe (speed.py) at every step, and keep the returned
trajectories for the output checks.

One call of `Workload.run` is one operation: it runs the command from
scratch, then checks its exit code and outputs. It returns a record with
the raw timings (probe time left out), the operation's speed factor, the
trajectory-derived counts and the list of failed checks.
"""

import csv
import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np
from sympy.core.cache import clear_cache as clear_sympy_cache

from recirc import cli
from recirc import config as rconfig
from recirc import eigenbasis, fullspace, galerkin, lifting
from recirc import mms as rmms
from recirc import space as rspace

import speed

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())
PICARD_TOL = 1e-10     # ReducedSystem.integrate default tolerance
LIFT_RESIDUAL_MAX = 1e-6
PROBE_SPAN = "bench.probe"  # the probe's span in traced operations; not a layer


class Record:
    """Measurements and check results of one operation."""

    def __init__(self):
        self.setup_s = None
        self.wall_s = None
        self.step_s = []
        self.factor = 1.0   # speed factor: raw times times factor = reference-speed times
        self.counts = {}
        self.output_bytes = 0
        self.failures = []
        self.layers = None  # per-layer metrics, traced operations only


def _dir_bytes(out):
    return sum(p.stat().st_size for p in Path(out).iterdir())


def _check_close(rec, what, value, ref, rtol):
    if not abs(value - ref) <= rtol * abs(ref):
        rec.failures.append(f"{what} = {value!r}, reference {ref!r} (rtol {rtol:g})")


class StepHooks:
    """Step and set-up clock of one operation, fed by the integrators' hooks.

    Set-up ends when the first `integrate` call starts; a burst of probes
    follows it. A step's time runs from the previous hook call (or the start
    of `integrate`) to the next; the probe that follows every step and the
    time the command's own observer takes are excluded.
    """

    def __init__(self, rec, probe):
        self.rec = rec
        self.probe = probe
        self.t0 = self.last = None
        self.systems = []        # ReducedSystem of each integrate call
        self.trajectories = []   # its returned Trajectory
        self.fullspace_steps = 0

    def _enter(self):
        now = speed.clock()
        if self.rec.setup_s is None:
            self.rec.setup_s = now - self.t0
            self.probe(speed.BURST)
        self.last = speed.clock()

    def _stamp(self):
        now = speed.clock()
        self.rec.step_s.append(now - self.last)
        self.probe()
        self.last = speed.clock()

    @contextmanager
    def installed(self):
        reduced = vars(galerkin.ReducedSystem)["integrate"]
        full = vars(fullspace.FullSpaceSystem)["integrate"]

        def reduced_integrate(system, *args, on_step=None, **kwargs):
            def stamped(state):
                self._stamp()
                if on_step is not None:
                    on_step(state)

            self._enter()
            traj = reduced(system, *args, on_step=stamped, **kwargs)
            self.systems.append(system)
            self.trajectories.append(traj)
            return traj

        def full_integrate(fs, *args, observer=None, **kwargs):
            first = [True]

            def stamped(t, z):
                if not first[0]:
                    self._stamp()
                    self.fullspace_steps += 1
                first[0] = False
                if observer is not None:
                    observer(t, z)
                self.last = speed.clock()

            self._enter()
            return full(fs, *args, observer=stamped, **kwargs)

        galerkin.ReducedSystem.integrate = reduced_integrate
        fullspace.FullSpaceSystem.integrate = full_integrate
        try:
            yield self
        finally:
            galerkin.ReducedSystem.integrate = reduced
            fullspace.FullSpaceSystem.integrate = full


def _preset(name, seed, **updates):
    cfg = json.loads(rconfig.preset_path(name).read_text())
    for section, values in updates.items():
        cfg[section] = {**cfg[section], **values}
    cfg["seed"] = seed
    return cfg


# -- output checks -------------------------------------------------------------


def _check_pumps(rec, hooks, implicit):
    """Checks of the pump commands' trajectories; also records their Picard counts."""
    trajs = hooks.trajectories
    if not trajs:
        rec.failures.append("no reduced trajectory was computed")
        return
    worst = max(float(np.max(s.lifting.residuals)) for s in hooks.systems)
    if not worst <= LIFT_RESIDUAL_MAX:
        rec.failures.append(f"lift residual {worst:.3e} > {LIFT_RESIDUAL_MAX:g}")
    iters = [int(i) for t in trajs for i in t.iterations[1:]] if implicit else []
    rec.counts["galerkin.picard_iters"] = sum(iters)
    rec.counts["galerkin.iters_per_step_max"] = max(iters, default=0)
    if implicit:
        worst = max(float(np.max(t.step_residuals[1:])) for t in trajs)
        if not (all(t.completed for t in trajs) and worst <= PICARD_TOL):
            rec.failures.append(f"a step ended at Picard residual {worst:.3e} > {PICARD_TOL:g}")


def check_simulate(rec, cfg, out, hooks, ref):
    _check_pumps(rec, hooks, implicit=cfg["time"]["scheme"] == "implicit-euler")
    summary = json.loads((out / "summary.json").read_text())
    for key in ("final_z_l2", "max_v_l2"):
        _check_close(rec, key, summary[key], ref[key], ref["rtol"])


def check_contract(rec, cfg, out, hooks, ref):
    _check_pumps(rec, hooks, implicit=cfg["time"]["scheme"] == "implicit-euler")
    summary = json.loads((out / "contraction_summary.json").read_text())
    if summary["check_bound_holds"] is not True:
        rec.failures.append("contraction bound does not hold on the check pair")


def check_study_mesh(rec, cfg, out, hooks, ref):
    steps = round(cfg["time"]["T"] / cfg["time"]["dt"])
    if hooks.fullspace_steps != steps:
        rec.failures.append(f"observer saw {hooks.fullspace_steps} of {steps} steps")
    with open(out / "study_mesh.csv") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    _check_close(rec, "l2l2_error", float(rows[0]["l2l2_error"]), ref["l2l2_error"],
                 ref["rtol"])


# -- the workloads ---------------------------------------------------------------


class Workload:
    """One CLI command on a generated config.

    nominal_s is the time of one operation measured on the reference
    machine when the benchmark was defined (see README.md). It fixes how many
    operations a run of a given length performs, so every commit measured
    later does the same work and pools the same number of steps.
    """

    def __init__(self, name, argv, check, cfg, nominal_s, probe_reps=1):
        self.name = name
        self.argv = argv
        self.check = check
        self.cfg = cfg
        self.nominal_s = nominal_s
        self.probe_reps = probe_reps  # probes per step, about 100 per operation

    def write_config(self, path):
        Path(path).write_text(json.dumps(self.cfg, indent=2))

    def run(self, config_path, out, tracer=None):
        """One operation: `recirc <argv> --config config_path --output-dir out`.

        With a tracer, the probe is recorded as a PROBE_SPAN span, so that no
        layer's self time includes it.
        """
        rec = Record()
        probe = speed.Probe(self.probe_reps)
        hooks = StepHooks(rec, probe if tracer is None else tracer.wrap(probe, PROBE_SPAN))
        argv = [*self.argv, "--config", str(config_path), "--output-dir", str(out), "--quiet"]
        clear_sympy_cache()  # each command derives the MMS forcing with a cold sympy cache
        probe(speed.BURST)
        with hooks.installed():
            before = probe.spent_s
            hooks.t0 = speed.clock()
            code = cli.main(argv)
            rec.wall_s = speed.clock() - hooks.t0 - (probe.spent_s - before)
        if rec.setup_s is None:
            rec.setup_s = rec.wall_s
        rec.factor = probe.factor()
        rec.output_bytes = _dir_bytes(out)
        if code != 0:
            rec.failures.append(f"recirc {self.argv[0]} exited with code {code}")
            return rec
        self.check(rec, self.cfg, out, hooks, REFERENCE[self.name])
        return rec


def make_workload(name, seed):
    """The workload `name`; `seed` reaches recirc only as the config's seed."""
    if name == "pumps16":
        return Workload(name, ["simulate"], check_simulate, _preset("four_pumps", seed), 9.6)
    if name == "pumps32":
        cfg = _preset("four_pumps", seed, mesh={"nx": 32, "ny": 32},
                      galerkin={"modes": 40}, time={"T": 0.3})
        return Workload(name, ["simulate"], check_simulate, cfg, 15.0, probe_reps=4)
    if name == "mms32":
        cfg = _preset("manufactured", seed, mesh={"nx": 32, "ny": 32}, time={"T": 0.015})
        return Workload(name, ["study", "mesh", "--levels", "32"], check_study_mesh, cfg, 5.5,
                        probe_reps=7)
    if name == "contract16_rk4":
        cfg = _preset("four_pumps", seed, time={"scheme": "explicit-rk4"})
        return Workload(name, ["contract"], check_contract, cfg, 5.8)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("pumps16", "pumps32", "mms32", "contract16_rk4")


# -- traced layers -----------------------------------------------------------------


def _traced_factor(layer):
    """splu result hook: count the L+U fill and trace the factor's solves."""

    def hook(tracer, lu):
        tracer.count(f"{layer}.fill_nnz", int(lu.L.nnz + lu.U.nnz))
        return _TracedFactor(lu, tracer.wrap(lu.solve, f"{layer}.solve"))

    return hook


class _TracedFactor:
    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


def _count_fullspace_iters(tracer, result):
    tracer.count("fullspace.picard_iters", int(result[1]))
    return result


MixedSpace = rspace.MixedSpace
TARGETS = [
    (rconfig, "build_rect_mesh", "mesh.build", None),
    (rconfig, "tag_boundary", "mesh.build", None),
    (cli, "build_rect_mesh", "mesh.build", None),
    (MixedSpace, "__init__", "space.assemble", None),
    (MixedSpace, "eval_values", "space.eval", None),
    (MixedSpace, "eval_grads", "space.eval", None),
    (MixedSpace, "load_vector", "space.load", None),
    (MixedSpace, "stress_load_vector", "space.load", None),
    (MixedSpace, "weighted_strain_stiffness", "space.weighted_stiffness", None),
    (MixedSpace, "norm", "space.norm", None),
    (rconfig, "build_profile", "pumps.build", None),
    (rconfig, "build_psi", "pumps.build", None),
    (rconfig, "build_lifting", "lifting.build", None),
    (lifting, "splu", "lifting.factor", _traced_factor("lifting")),
    (galerkin, "compute_Hg_load", "lifting.hg_load", None),
    (rconfig, "solve_stokes_eigen", "eigenbasis.solve", None),
    (eigenbasis.EigenBasis, "expand", "eigenbasis.expand", None),
    (galerkin, "convection_load", "turbulence.convection", None),
    (galerkin, "smagorinsky_load", "turbulence.smagorinsky", None),
    (fullspace, "convection_load", "turbulence.convection", None),
    (fullspace, "smagorinsky_load", "turbulence.smagorinsky", None),
    (galerkin.ReducedSystem, "integrate", "galerkin.integrate", None),
    (galerkin.ReducedSystem, "rhs", "galerkin.rhs", None),
    (galerkin.ReducedSystem, "lift_fields", "galerkin.lift_fields", None),
    (galerkin.ReducedSystem, "velocity", "galerkin.velocity", None),
    (fullspace, "splu", "fullspace.factor", _traced_factor("fullspace")),
    (fullspace.FullSpaceSystem, "step", "fullspace.step", _count_fullspace_iters),
    (rmms.ManufacturedSolution, "__init__", "mms.build", None),
    (rmms.ManufacturedSolution, "forcing", "mms.forcing", None),
    (rmms.ManufacturedSolution, "velocity_error", "mms.error", None),
    (cli, "ledger", "monitors.ledger", None),
    (cli, "contraction", "monitors.contraction", None),
    (cli, "_write_csv", "output.write", None),
    (cli, "_write_trajectory", "output.write", None),
    (cli, "write_vtk", "output.write", None),
]

# per-layer metric -> (span name, what to read)
_SELF_TIMES = {
    "mesh.build_s": "mesh.build",
    "space.assemble_s": "space.assemble",
    "pumps.build_s": "pumps.build",
    "eigenbasis.solve_s": "eigenbasis.solve",
    "eigenbasis.expand_s": "eigenbasis.expand",
    "lifting.factor_s": ("lifting.factor", "lifting.solve"),
    "lifting.build_s": "lifting.build",
    "lifting.hg_load_s": "lifting.hg_load",
    "space.eval_s": "space.eval",
    "space.load_s": "space.load",
    "space.weighted_stiffness_s": "space.weighted_stiffness",
    "turbulence.convection_s": "turbulence.convection",
    "turbulence.smagorinsky_s": "turbulence.smagorinsky",
    "fullspace.factor_s": "fullspace.factor",
    "mms.build_s": "mms.build",
    "mms.forcing_s": "mms.forcing",
    "mms.error_s": "mms.error",
    "monitors.ledger_s": "monitors.ledger",
    "monitors.contraction_s": "monitors.contraction",
    "space.norm_s": "space.norm",
    "output.write_s": "output.write",
}
_CALLS = {
    "eigenbasis.expand_calls": "eigenbasis.expand",
    "lifting.hg_load_calls": "lifting.hg_load",
    "space.eval_calls": "space.eval",
    "space.load_calls": "space.load",
    "space.weighted_stiffness_calls": "space.weighted_stiffness",
    "turbulence.convection_calls": "turbulence.convection",
    "turbulence.smagorinsky_calls": "turbulence.smagorinsky",
    "galerkin.rhs_calls": "galerkin.rhs",
    "fullspace.factor_calls": "fullspace.factor",
    "fullspace.solve_calls": "fullspace.solve",
    "space.norm_calls": "space.norm",
}
LAYER_UNITS = {
    **{k: "s" for k in _SELF_TIMES},
    **{k: "count" for k in _CALLS},
    "galerkin.integrate_s": "s",
    "galerkin.self_s": "s",
    "galerkin.picard_iters": "count",
    "galerkin.iters_per_step_max": "count",
    "galerkin.iter_ms": "ms",
    "fullspace.fill_nnz": "count",
    "fullspace.solve_ms": "ms",
    "fullspace.picard_iters": "count",
    "output.bytes": "bytes",
}


def layer_metrics(summary, counters, rec):
    """Per-layer metrics of one traced operation from its span summary."""

    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    out = {}
    for metric, names in _SELF_TIMES.items():
        names = (names,) if isinstance(names, str) else names
        out[metric] = sum(get(n, "self") for n in names)
    for metric, name in _CALLS.items():
        out[metric] = get(name, "calls")
    out["galerkin.integrate_s"] = get("galerkin.integrate", "total")  # probe excluded
    out["galerkin.self_s"] = sum(v["self"] for k, v in summary.items()
                                 if k.startswith("galerkin."))
    picard = out["galerkin.picard_iters"] = rec.counts.get("galerkin.picard_iters", 0)
    out["galerkin.iters_per_step_max"] = rec.counts.get("galerkin.iters_per_step_max", 0)
    out["galerkin.iter_ms"] = 1e3 * out["galerkin.integrate_s"] / picard if picard else 0.0
    out["fullspace.fill_nnz"] = counters.get("fullspace.fill_nnz", 0)
    solves = get("fullspace.solve", "calls")
    out["fullspace.solve_ms"] = 1e3 * get("fullspace.solve", "self") / solves if solves else 0.0
    out["fullspace.picard_iters"] = counters.get("fullspace.picard_iters", 0)
    out["output.bytes"] = rec.output_bytes
    return out
