"""Run configuration: JSON schema validation, presets, scenario assembly.

A configuration fully determines a run: tank geometry and mesh, fluid
parameters, pump segments with profiles and schedules, source and initial
presets, time stepping, mode count, and output policy. `validate` returns a
RunConfig or raises ConfigError carrying one (json-path, message) pair per
violation; `build_scenario` turns a RunConfig into live objects.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .eigenbasis import solve_stokes_eigen
from .galerkin import GalerkinState, ReducedSystem, initial_state
from .lifting import build_lifting
from .mesh import SIDES, build_rect_mesh, tag_boundary
from .mms import ManufacturedSolution
from .pumps import PROFILE_KINDS, Pump, PumpSet, Schedule, build_profile, build_psi
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
                  integer=False, minimum=None):
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
    if minimum is not None and v < minimum:
        issues.append((where, f"must be >= {minimum}, got {v!r}"))
        return None
    return v


def _validate_segment(issues, seg, path, side_lengths):
    if not isinstance(seg, dict):
        issues.append((path, "must be an object with side/start/end"))
        return None
    side = seg.get("side")
    if side not in SIDES:
        issues.append((f"{path}.side", f"must be one of {SIDES}, got {side!r}"))
        return None
    start = _check_number(issues, seg, path, "start", nonnegative=True)
    end = _check_number(issues, seg, path, "end")
    if start is None or end is None:
        return None
    L = side_lengths[side]
    if not (0 <= start < end <= L + 1e-12):
        issues.append((path, f"segment [{start}, {end}] invalid on side of length {L}"))
        return None
    return side, float(start), float(end)


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
    raw = {**_DEFAULTS, **config}
    issues = []

    for section in ("domain", "mesh", "fluid", "time", "galerkin"):
        if section not in raw or not isinstance(raw[section], dict):
            issues.append((section, "missing or not an object"))
            raw[section] = {}

    Lx = _check_number(issues, raw["domain"], "domain", "Lx", positive=True)
    Ly = _check_number(issues, raw["domain"], "domain", "Ly", positive=True)
    _check_number(issues, raw["mesh"], "mesh", "nx", positive=True, integer=True)
    _check_number(issues, raw["mesh"], "mesh", "ny", positive=True, integer=True)
    _check_number(issues, raw["fluid"], "fluid", "nu", positive=True)
    _check_number(issues, raw["fluid"], "fluid", "nu_tur", nonnegative=True)
    T = _check_number(issues, raw["time"], "time", "T", positive=True)
    dt = _check_number(issues, raw["time"], "time", "dt", positive=True)
    scheme = raw["time"].get("scheme", "implicit-euler")
    raw["time"]["scheme"] = scheme
    if scheme not in SCHEMES:
        issues.append(("time.scheme", f"must be one of {SCHEMES}, got {scheme!r}"))
    if T and dt and not (
        np.isfinite(T / dt) and abs(round(T / dt) * dt - T) <= 1e-9 * max(1.0, T)
    ):
        issues.append(("time", f"T={T} is not an integer multiple of dt={dt}"))
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
    out.setdefault("dir", "out")
    out.setdefault("every", 10)
    if not isinstance(out["dir"], str):
        issues.append(("output.dir", f"must be a string, got {out['dir']!r}"))
    _check_number(issues, out, "output", "every", positive=True, integer=True)
    _check_number(issues, raw, "", "seed", nonnegative=True, integer=True)

    pumps = raw.get("pumps", [])
    raw["pumps"] = pumps
    if not isinstance(pumps, list):
        issues.append(("pumps", "must be an array"))
        pumps = []
    side_lengths = None
    if Lx and Ly:
        side_lengths = {"bottom": Lx, "top": Lx, "left": Ly, "right": Ly}
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
            if side_lengths:
                seg = _validate_segment(issues, pump[role], f"{p}.{role}", side_lengths)
                if seg:
                    segs.append(seg)
        for seg in segs:
            for other in claimed:
                if seg[0] == other[0] and seg[1] < other[2] - 1e-12 and other[1] < seg[2] - 1e-12:
                    issues.append(
                        (p, f"segment {seg} overlaps another pump segment {other}")
                    )
            claimed.append(seg)
        prof = pump.get("profile")
        if not isinstance(prof, dict) or prof.get("kind") not in PROFILE_KINDS:
            issues.append((f"{p}.profile.kind", f"must be one of {PROFILE_KINDS}"))
        elif prof["kind"] == "mollified":
            w = _check_number(issues, prof, f"{p}.profile", "width", positive=True)
            if w and segs:
                mu = min(s[2] - s[1] for s in segs)
                if not w < mu / 2:
                    issues.append(
                        (f"{p}.profile.width", f"must be < mu/2 = {mu / 2}, got {w}")
                    )
        sched = pump.get("schedule")
        if not isinstance(sched, list) or len(sched) < 2 or not all(
            isinstance(s, list) and len(s) == 2 and all(map(_is_finite_number, s)) for s in sched
        ):
            issues.append((f"{p}.schedule", "must be a list of [t, g] finite-number pairs (>= 2)"))
        else:
            ts = [s[0] for s in sched]
            gs = [s[1] for s in sched]
            if ts[0] != 0:
                issues.append((f"{p}.schedule", "must start at t = 0"))
            if gs[0] != 0:
                issues.append((f"{p}.schedule", "g(0) must be 0"))
            if any(t2 <= t1 for t1, t2 in zip(ts, ts[1:])):
                issues.append((f"{p}.schedule", "times must be strictly increasing"))
            if any(g < 0 for g in gs):
                issues.append((f"{p}.schedule", "g must be nonnegative"))
            if T and ts[-1] < T - 1e-12:
                issues.append(
                    (f"{p}.schedule", f"horizon {ts[-1]} does not cover T = {T}")
                )

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
    """Live objects assembled from a validated RunConfig."""

    def __init__(self, config, mesh, space, pumps, params, lifting, basis,
                 system, state0, source):
        self.config = config
        self.mesh = mesh
        self.space = space
        self.pumps = pumps
        self.params = params
        self.lifting = lifting
        self.basis = basis
        self.system = system
        self.state0 = state0
        self.source = source


def build_scenario(config, modes=None):
    """Assemble mesh, pumps, lifting, eigenbasis and the reduced system."""
    cfg = config if isinstance(config, RunConfig) else validate(config)
    mesh = build_rect_mesh(
        cfg.domain["Lx"], cfg.domain["Ly"], cfg.mesh["nx"], cfg.mesh["ny"]
    )
    segments = []
    for i, pump in enumerate(cfg.pumps, 1):
        inj, col = pump["injector"], pump["collector"]
        segments.append((inj["side"], inj["start"], inj["end"], f"T{i}"))
        segments.append((col["side"], col["start"], col["end"], f"C{i}"))
    tag_boundary(mesh, segments)
    space = MixedSpace(mesh)

    pump_objs = []
    for i, pump in enumerate(cfg.pumps, 1):
        kind = pump["profile"]["kind"]
        width = pump["profile"].get("width")
        injector = build_profile(space, f"T{i}", kind, width)
        collector = build_profile(space, f"C{i}", kind, width)
        psi = build_psi(injector, collector, space)
        schedule = Schedule(pump["schedule"])
        pump_objs.append(Pump(injector, collector, psi, schedule))
    pumps = PumpSet(pump_objs)

    params = ClosureParams(cfg.fluid["nu"], cfg.fluid["nu_tur"])
    lifting = build_lifting(space, pumps, params.nu)
    n_modes = int(modes if modes is not None else cfg.galerkin["modes"])
    basis = solve_stokes_eigen(space, n_modes)

    source = None
    if cfg.source == "manufactured":
        source = ManufacturedSolution(params.nu, params.nu_tur).forcing

    if cfg.initial["preset"] == "zero":
        state0 = GalerkinState(0.0, np.zeros(n_modes))
    else:
        v0 = vortex_field(space, cfg.initial.get("amplitude", 1.0))
        # hand over the basis projection: discretely divergence free by
        # construction, so the strict trace/divergence checks apply to the
        # field actually used
        state0 = initial_state(basis.expand(basis.project(v0)), basis)

    system = ReducedSystem(space, basis, lifting, pumps, params, source=source)
    return Scenario(cfg, mesh, space, pumps, params, lifting, basis, system,
                    state0, source)
