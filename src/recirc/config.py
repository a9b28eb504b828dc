"""Run configuration: JSON schema validation, presets, scenario assembly.

A configuration fully determines a run: tank geometry and mesh, fluid
parameters, pump segments with profiles and schedules, source and initial
presets, time stepping, mode count, and output policy. `validate` returns a
RunConfig or raises ConfigError carrying one (json-path, message) pair per
violation; on pump data it records the ValueError of the rule the run calls
(`segment_vertices`, `schedule_knots`, `check_width`). `build_scenario`
turns a RunConfig into a Scenario: the chain of mesh, pump traces, Stokes
lifts, eigenbasis and reduced system as stages, each built on first read,
so `recirc lift` solves no eigenproblem.
"""

import copy
import hashlib
import json
import time
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .eigenbasis import solve_stokes_eigen
from .galerkin import GalerkinState, ReducedSystem, initial_state, step_count
from .lifting import build_lifting
from .mesh import SIDES, build_rect_mesh, segment_vertices, tag_boundary
from .mms import ManufacturedSolution
from .pumps import (PROFILE_KINDS, Pump, PumpSet, Schedule, build_profile, build_psi,
                    check_width, schedule_knots)
from .space import MixedSpace
from .turbulence import ClosureParams

SCHEMES = ("implicit-euler", "explicit-rk4")
SOURCES = ("zero", "manufactured")
INITIALS = ("zero", "vortex")

_PRESET_DIR = Path(__file__).parent / "presets"


def preset_path(name):
    """Path of a shipped preset configuration file."""
    p = _PRESET_DIR / f"{name}.json"
    if not p.exists():
        names = sorted(q.stem for q in _PRESET_DIR.glob("*.json"))
        raise ConfigError([("--config", f"unknown preset {name!r}; shipped presets: {names}")])
    return p


class RunConfig:
    """Validated configuration; `raw` is the canonical dict."""

    def __init__(self, raw):
        self.raw = raw
        self.domain = raw["domain"]
        self.mesh = raw["mesh"]
        self.fluid = raw["fluid"]
        self.pumps = raw["pumps"]
        self.source = raw["source"]
        self.initial = raw["initial"]
        self.time = raw["time"]
        self.galerkin = raw["galerkin"]
        self.output = raw["output"]
        self.seed = raw["seed"]

    def hash(self):
        blob = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


_DEFAULTS = {
    "source": "zero",
    "initial": {"preset": "zero"},
    "output": {"dir": "out", "every": 10},
    "seed": 0,
}


def _is_finite_number(v):
    """A number, not a bool, NaN or +-Infinity (floats end below 2**1024)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) < 2**1024


def _check_number(issues, obj, path, key, *, positive=False, nonnegative=False,
                  integer=False):
    where = f"{path}.{key}" if path else key
    if key not in obj:
        issues.append((where, "missing"))
        return None
    v = obj[key]
    if not _is_finite_number(v):
        issues.append((where, f"must be a finite number, got {v!r}"))
        return None
    if integer and int(v) != v:
        issues.append((where, f"must be an integer, got {v!r}"))
        return None
    if positive and not v > 0:
        issues.append((where, f"must be positive, got {v!r}"))
        return None
    if nonnegative and v < 0:
        issues.append((where, f"must be nonnegative, got {v!r}"))
        return None
    return v


def _follows(issues, path, rule, *args):
    """rule(*args), or None with its ValueError recorded at `path`."""
    try:
        return rule(*args)
    except ValueError as exc:
        issues.append((path, str(exc)))


def _validate_segment(issues, seg, path, sides):
    """(side, k0, k1, vertex distance) of a segment on mesh vertices, or None."""
    if not isinstance(seg, dict):
        issues.append((path, "must be an object with side/start/end"))
        return None
    side = seg.get("side")
    if side not in SIDES:
        issues.append((f"{path}.side", f"must be one of {SIDES}, got {side!r}"))
        return None
    start = _check_number(issues, seg, path, "start")
    end = _check_number(issues, seg, path, "end")
    if start is None or end is None or sides is None:
        return None
    L, n = sides[side]
    ks = _follows(issues, path, segment_vertices, side, start, end, L, n)
    return None if ks is None else (side, *ks, (ks[1] - ks[0]) * L / n)


def validate(config):
    """Validate a dict or JSON file path; returns RunConfig or raises ConfigError."""
    if isinstance(config, (str, Path)):
        try:
            with open(config) as fh:
                config = json.load(fh)
        except OSError as exc:
            raise ConfigError([("", f"cannot read config file: {exc}")])
        except ValueError as exc:  # malformed JSON or text that is not UTF-8
            raise ConfigError([("", f"config is not well-formed JSON: {exc}")])
    if not isinstance(config, dict):
        raise ConfigError([("", "config root must be a JSON object")])
    raw = copy.deepcopy({**_DEFAULTS, **config})  # shares no object with the caller or _DEFAULTS
    issues = []

    for section in ("domain", "mesh", "fluid", "time", "galerkin"):
        if section not in raw or not isinstance(raw[section], dict):
            issues.append((section, "missing or not an object"))
            raw[section] = {}

    Lx = _check_number(issues, raw["domain"], "domain", "Lx", positive=True)
    Ly = _check_number(issues, raw["domain"], "domain", "Ly", positive=True)
    nx = _check_number(issues, raw["mesh"], "mesh", "nx", positive=True, integer=True)
    ny = _check_number(issues, raw["mesh"], "mesh", "ny", positive=True, integer=True)
    _check_number(issues, raw["fluid"], "fluid", "nu", positive=True)
    _check_number(issues, raw["fluid"], "fluid", "nu_tur", nonnegative=True)
    T = _check_number(issues, raw["time"], "time", "T", positive=True)
    dt = _check_number(issues, raw["time"], "time", "dt", positive=True)
    scheme = raw["time"].get("scheme", "implicit-euler")
    raw["time"]["scheme"] = scheme
    if scheme not in SCHEMES:
        issues.append(("time.scheme", f"must be one of {SCHEMES}, got {scheme!r}"))
    if T and dt:
        try:
            step_count(T, dt)
        except ValueError as exc:
            issues.append(("time", str(exc)))
    _check_number(issues, raw["galerkin"], "galerkin", "modes", positive=True, integer=True)

    if raw["source"] not in SOURCES:
        issues.append(("source", f"must be one of {SOURCES}, got {raw['source']!r}"))
    ini = raw["initial"]
    if not isinstance(ini, dict) or ini.get("preset") not in INITIALS:
        issues.append(("initial.preset", f"must be one of {INITIALS}"))
    elif ini["preset"] == "vortex":
        ini.setdefault("amplitude", 1.0)
        _check_number(issues, ini, "initial", "amplitude")

    out = raw["output"]
    if not isinstance(out, dict):
        issues.append(("output", "must be an object"))
        raw["output"] = out = dict(_DEFAULTS["output"])
    for key, value in _DEFAULTS["output"].items():
        out.setdefault(key, value)
    if not isinstance(out["dir"], str):
        issues.append(("output.dir", f"must be a string, got {out['dir']!r}"))
    _check_number(issues, out, "output", "every", positive=True, integer=True)
    _check_number(issues, raw, "", "seed", nonnegative=True, integer=True)

    pumps = raw.get("pumps", [])
    raw["pumps"] = pumps
    if not isinstance(pumps, list):
        issues.append(("pumps", "must be an array"))
        pumps = []
    sides = None  # side -> (length, cell count)
    if Lx and Ly and nx and ny:
        sides = {"bottom": (Lx, nx), "top": (Lx, nx), "left": (Ly, ny), "right": (Ly, ny)}
    claimed = []
    for i, pump in enumerate(pumps):
        p = f"pumps[{i}]"
        if not isinstance(pump, dict):
            issues.append((p, "must be an object"))
            continue
        segs = []
        for role in ("injector", "collector"):
            if role not in pump:
                issues.append((f"{p}.{role}", "missing"))
                continue
            seg = _validate_segment(issues, pump[role], f"{p}.{role}", sides)
            if seg:
                segs.append(seg)
        for seg in segs:
            for other in claimed:  # (side, first vertex, last vertex) overlaps
                if seg[0] == other[0] and seg[1] < other[2] and other[1] < seg[2]:
                    issues.append((p, f"segment {seg[:3]} overlaps pump segment {other[:3]}"))
            claimed.append(seg)
        prof = pump.get("profile")
        if not isinstance(prof, dict) or prof.get("kind") not in PROFILE_KINDS:
            issues.append((f"{p}.profile.kind", f"must be one of {PROFILE_KINDS}"))
        elif prof["kind"] == "mollified":
            w = _check_number(issues, prof, f"{p}.profile", "width")
            if w is not None:
                mu = min((s[3] for s in segs), default=float("inf"))
                _follows(issues, f"{p}.profile.width", check_width, w, mu)
        sched = pump.get("schedule")
        if not isinstance(sched, list) or not all(
            isinstance(s, list) and len(s) == 2 and all(map(_is_finite_number, s)) for s in sched
        ):
            issues.append((f"{p}.schedule", "must be a list of [t, g] finite-number pairs"))
            continue
        knots = _follows(issues, f"{p}.schedule", schedule_knots, sched)
        if knots is not None and T and knots[0][-1] < T - 1e-12:
            issues.append((f"{p}.schedule", f"horizon {knots[0][-1]} does not cover T = {T}"))

    if issues:
        raise ConfigError(issues)
    return RunConfig(raw)


def vortex_field(space, amplitude=1.0):
    """curl of amplitude * [x(1-x)y(1-y)]^2 in tank-scaled coordinates."""
    Lx, Ly = space.mesh.Lx, space.mesh.Ly

    def f(x, y):
        sx = (x / Lx) * (1 - x / Lx)
        sy = (y / Ly) * (1 - y / Ly)
        dpsidy = amplitude * sx**2 * 2 * sy * (1 - 2 * y / Ly) / Ly
        dpsidx = amplitude * sy**2 * 2 * sx * (1 - 2 * x / Lx) / Lx
        return np.column_stack([dpsidy, -dpsidx])

    return space.interpolate(f)


class Scenario:
    """The chain of a validated RunConfig on `modes` modes, one stage per
    attribute, each built on first read; `built()` builds them all, so a
    command can time the whole build apart from its runs, and records the
    process CPU time of each stage in `stage_s` (next to nothing for a
    stage built before)."""

    STAGES = ("mesh", "space", "pumps", "params", "lifting", "basis", "source", "state0",
              "system")  # the chain's order

    def __init__(self, config, modes):
        self.config, self.modes = config, modes
        self.stage_s = {}

    def built(self):
        """Self, with every stage built in the chain's order and timed."""
        for name in self.STAGES:
            start = time.process_time()
            getattr(self, name)
            self.stage_s[name] = time.process_time() - start
        return self

    @cached_property
    def mesh(self):
        cfg = self.config
        segments = [(seg["side"], seg["start"], seg["end"], f"{tag}{i}")
                    for i, pump in enumerate(cfg.pumps, 1)
                    for tag, seg in (("T", pump["injector"]), ("C", pump["collector"]))]
        mesh = build_rect_mesh(cfg.domain["Lx"], cfg.domain["Ly"], cfg.mesh["nx"], cfg.mesh["ny"])
        return tag_boundary(mesh, segments)

    @cached_property
    def space(self):
        return MixedSpace(self.mesh)

    @cached_property
    def pumps(self):
        pumps = []
        for i, pump in enumerate(self.config.pumps, 1):
            kind, width = pump["profile"]["kind"], pump["profile"].get("width")
            injector, collector = (build_profile(self.space, f"{tag}{i}", kind, width)
                                   for tag in "TC")
            psi = build_psi(injector, collector, self.space)
            pumps.append(Pump(injector, collector, psi, Schedule(pump["schedule"])))
        return PumpSet(pumps)

    @cached_property
    def params(self):
        return ClosureParams(self.config.fluid["nu"], self.config.fluid["nu_tur"])

    @cached_property
    def lifting(self):
        return build_lifting(self.space, self.pumps, self.params.nu)

    @cached_property
    def basis(self):
        return solve_stokes_eigen(self.space, self.modes)

    @cached_property
    def source(self):
        if self.config.source == "manufactured":
            return ManufacturedSolution(self.params.nu, self.params.nu_tur)
        return None

    @cached_property
    def state0(self):
        if self.config.initial["preset"] == "zero":
            return GalerkinState(0.0, np.zeros(self.modes))
        v0 = vortex_field(self.space, self.config.initial["amplitude"])
        # hand over the basis projection: discretely divergence free by
        # construction, so the strict trace/divergence checks apply to the
        # field actually used
        return initial_state(self.basis.expand(self.basis.project(v0)), self.basis)

    @cached_property
    def system(self):
        return ReducedSystem(self.space, self.basis, self.lifting, self.pumps, self.params,
                             source=self.source)


def build_scenario(config, modes=None):
    """The Scenario of a config on `modes` modes (the config's by default); it
    builds no stage."""
    cfg = config if isinstance(config, RunConfig) else validate(config)
    return Scenario(cfg, int(modes if modes is not None else cfg.galerkin["modes"]))
