import json

import numpy as np
import pytest

from recirc.cli import main
from recirc.config import build_scenario, preset_path, validate
from recirc.errors import ConfigError


def small_config(tmp_path, **overrides):
    cfg = {
        "domain": {"Lx": 1.0, "Ly": 1.0},
        "mesh": {"nx": 8, "ny": 8},
        "fluid": {"nu": 0.02, "nu_tur": 0.05},
        "pumps": [
            {
                "injector": {"side": "bottom", "start": 0.25, "end": 0.5},
                "collector": {"side": "top", "start": 0.25, "end": 0.5},
                "profile": {"kind": "mollified", "width": 0.0625},
                "schedule": [[0.0, 0.0], [0.05, 0.05], [0.2, 0.05]],
            }
        ],
        "time": {"T": 0.2, "dt": 0.01, "scheme": "implicit-euler"},
        "galerkin": {"modes": 6},
        "output": {"dir": "out", "every": 5},
        "seed": 3,
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


def test_shipped_presets_validate():
    for name in ("four_pumps", "zero", "manufactured"):
        cfg = validate(preset_path(name))
        assert cfg.hash()


def test_schedule_compatibility_error(tmp_path):
    path, cfg = small_config(tmp_path)
    cfg["pumps"][0]["schedule"] = [[0.0, 1.0], [0.2, 1.0]]
    path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError) as err:
        validate(path)
    assert any("g(0) must be 0" in m for _, m in err.value.issues)


def test_overlapping_segments_error(tmp_path):
    path, cfg = small_config(tmp_path)
    cfg["pumps"].append(
        {
            "injector": {"side": "bottom", "start": 0.375, "end": 0.625},
            "collector": {"side": "top", "start": 0.625, "end": 0.875},
            "profile": {"kind": "flat"},
            "schedule": [[0.0, 0.0], [0.2, 0.1]],
        }
    )
    path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError) as err:
        validate(path)
    assert any("overlaps" in m for _, m in err.value.issues)


def test_error_paths_are_reported(tmp_path):
    path, cfg = small_config(tmp_path)
    cfg["fluid"]["nu"] = -1
    cfg["time"]["dt"] = 0.03  # T not a multiple
    path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError) as err:
        validate(path)
    paths = [p for p, _ in err.value.issues]
    assert "fluid.nu" in paths
    assert "time" in paths


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        validate(path)
    path.write_bytes(b'{"seed": "\xff"}')  # not UTF-8
    with pytest.raises(ConfigError):
        validate(path)


def test_cli_validate_exit_codes(tmp_path, capsys):
    path, _ = small_config(tmp_path)
    assert main(["validate", "--config", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is True

    bad, cfg = small_config(tmp_path)
    cfg["galerkin"]["modes"] = 0
    bad.write_text(json.dumps(cfg))
    assert main(["validate", "--config", str(bad)]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is False
    assert out["errors"][0]["path"].startswith("galerkin")


def test_cli_simulate_zero_data(tmp_path, capsys):
    path, cfg = small_config(tmp_path, pumps=[])
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(path), "--output-dir", str(out),
                 "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["max_v_l2"] <= 1e-12
    traj = (out / "trajectory.csv").read_text().splitlines()
    assert traj[0].startswith("# recirc")
    assert traj[1].split(",")[:2] == ["t", "z1"]
    assert (out / "ledger.csv").exists()
    assert any(p.suffix == ".vtk" for p in out.iterdir())


def test_cli_simulate_deterministic(tmp_path):
    # two runs of one config write the same bytes: the CSVs and the VTK files
    # of the small one-pump config and of four_pumps (16x16) cut to T = 0.1
    four = json.loads(preset_path("four_pumps").read_text())
    four["time"]["T"] = 0.1
    four["output"]["every"] = 5
    (tmp_path / "four.json").write_text(json.dumps(four))
    for path in (small_config(tmp_path)[0], tmp_path / "four.json"):
        out1, out2 = tmp_path / path.stem / "a", tmp_path / path.stem / "b"
        for out in (out1, out2):
            assert main(["simulate", "--config", str(path), "--output-dir", str(out),
                         "--quiet"]) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        assert {"trajectory.csv", "ledger.csv", "velocity_00000.vtk"} <= set(names)
        for name in names:
            if name != "summary.json":
                assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
        # only the clock readings differ between the summaries
        s1, s2 = (json.loads((o / "summary.json").read_text()) for o in (out1, out2))
        for s in (s1, s2):
            del s["wall_time_s"], s["phases"]
        assert s1 == s2


def test_cli_simulate_progress(tmp_path, capsys):
    # --progress prints one stderr line per step and changes no output
    path, cfg = small_config(tmp_path)
    outs = {}
    for flags in ([], ["--progress"], ["--progress", "--quiet"]):
        out = outs[tuple(flags)] = tmp_path / ("run" + "".join(flags))
        assert main(["simulate", "--config", str(path), "--output-dir", str(out),
                     *flags]) == 0
        err = capsys.readouterr().err.splitlines()
        if flags == ["--progress"]:
            steps = round(cfg["time"]["T"] / cfg["time"]["dt"])
            assert len(err) == steps
            assert err[0].startswith(f"step 1/{steps} t=0.01 iterations=")
            assert err[-1].startswith(f"step {steps}/{steps} t=0.2 iterations=")
            assert all("residual=" in line for line in err)
        else:
            assert err == []
    plain = outs[()]
    for out in outs.values():
        for name in ("trajectory.csv", "ledger.csv"):
            assert (out / name).read_bytes() == (plain / name).read_bytes()
        s1, s2 = (json.loads((o / "summary.json").read_text()) for o in (plain, out))
        for s in (s1, s2):
            del s["wall_time_s"], s["phases"]
        assert s1 == s2


def _csv_columns(path):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    cols = lines[0].split(",")
    return {c: [float(r.split(",")[j]) for r in lines[1:]] for j, c in enumerate(cols)}


def test_trajectory_net_flux_is_roundoff(preset16, tmp_path):
    # the appended net_flux column, flux_vector @ zeta_g(t), is zero up to
    # roundoff on four_pumps, ramp and plateau
    from recirc.cli import _write_trajectory

    sys_ = preset16.system
    traj = sys_.integrate(preset16.state0, T=0.3, dt=0.01)
    _write_trajectory(tmp_path / "t.csv", traj, sys_, "test")
    cols = _csv_columns(tmp_path / "t.csv")
    assert list(cols)[-1] == "net_flux" and cols["t"] == traj.times.tolist()
    g_max = max(np.abs(sys_.pumps.rates(t)[0]).max() for t in traj.times)
    bound = 1e-12 * g_max * np.abs(preset16.space.flux_vector).sum()
    assert g_max > 0.0 and max(np.abs(cols["net_flux"])) <= bound


def test_cli_lift_factor_failure_exits_1(tmp_path, monkeypatch, capsys):
    # a SuperLU failure in the lift factor, `lifting.splu`, is a numerical failure
    from recirc import lifting

    def singular(A, **kw):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(lifting, "splu", singular)
    path, cfg = small_config(tmp_path)
    assert main(["simulate", "--config", str(path), "--output-dir", str(tmp_path / "run"),
                 "--quiet"]) == 1
    assert capsys.readouterr().err.startswith("error: Stokes saddle factorization failed")


def test_cli_partial_trajectory_has_net_flux(tmp_path, monkeypatch):
    # a failed step leaves trajectory_partial.csv with every column
    from recirc.errors import StepError
    from recirc.galerkin import ReducedSystem

    step = ReducedSystem.step

    def failing(self, state, dt, **kw):
        if state.t >= 0.025:
            raise StepError("injected failure", residual=1.0, t=state.t + dt)
        return step(self, state, dt, **kw)

    monkeypatch.setattr(ReducedSystem, "step", failing)
    path, cfg = small_config(tmp_path)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(path), "--output-dir", str(out),
                 "--quiet"]) == 1
    cols = _csv_columns(out / "trajectory_partial.csv")
    assert list(cols)[-4:] == ["iterations", "residual", "tangents", "net_flux"]
    assert len(cols["t"]) == len(cols["net_flux"]) == 4  # t = 0 and three steps


def test_cli_simulate_solver_summary(tmp_path):
    # summary.json's solver block totals the trajectory's step diagnostics
    path, _ = small_config(tmp_path)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(path), "--output-dir", str(out),
                 "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    solver = summary["solver"]
    lines = [ln for ln in (out / "trajectory.csv").read_text().splitlines()
             if not ln.startswith("#")]
    cols = lines[0].split(",")
    assert cols[-4:] == ["iterations", "residual", "tangents", "net_flux"]
    rows = [dict(zip(cols, ln.split(","))) for ln in lines[1:]]
    iters = [int(r["iterations"]) for r in rows]
    assert solver["tangents_total"] == sum(int(r["tangents"]) for r in rows)
    assert int(rows[0]["tangents"]) == 0
    assert solver["iterations_total"] == sum(iters) > 0
    assert solver["iterations_max"] == max(iters)
    assert solver["worst_residual"] == max(float(r["residual"]) for r in rows) <= 1e-10
    assert solver["backtracks_total"] >= 0
    # each closure tangent is followed by an accepted update; the histogram
    # counts the steps (not the initial row) per iteration number
    assert 0 < solver["tangents_total"] <= solver["iterations_total"]
    hist = solver["iterations_histogram"]
    assert hist == [iters[1:].count(n) for n in range(max(iters) + 1)]
    # every step evaluates the closure at its start and at each Newton trial
    assert solver["evaluations_total"] >= solver["iterations_total"] + len(rows) - 1
    # the phases are disjoint parts of the run's wall time
    phases = summary["phases"]
    assert sorted(phases) == ["integrate_s", "ledger_s", "output_s", "setup_s"]
    assert all(v >= 0.0 for v in phases.values())
    assert sum(phases.values()) <= summary["wall_time_s"] + 1e-3


def test_import_cli_leaves_sympy_unloaded(tmp_path):
    # recirc never imports sympy: not on import of any of its modules, not
    # for `study mesh`, not for a manufactured-source `simulate`
    import os
    import subprocess
    import sys
    from pathlib import Path

    import recirc

    src = str(Path(recirc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    path, _ = small_config(tmp_path, pumps=[], source="manufactured",
                           time={"T": 0.02, "dt": 0.01, "scheme": "implicit-euler"})
    code = f"""
import pkgutil, sys
import recirc
from recirc.cli import main
for mod in pkgutil.walk_packages(recirc.__path__, "recirc."):
    __import__(mod.name)
print("import", "sympy" in sys.modules)
for name, argv in [("study", ["study", "mesh", "--levels", "4"]), ("simulate", ["simulate"])]:
    code = main([*argv, "--config", {str(path)!r}, "--output-dir", {str(tmp_path)!r} + "/" + name,
                 "--quiet"])
    print(name, code, "sympy" in sys.modules)
"""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=env)
    assert done.stdout.split("\n")[:3] == ["import False", "study 0 False", "simulate 0 False"]
    assert (tmp_path / "study" / "study_mesh.csv").exists()
    assert (tmp_path / "simulate" / "summary.json").exists()


def test_cli_eigen_artifacts(tmp_path):
    path, _ = small_config(tmp_path, pumps=[])
    out = tmp_path / "eig"
    assert main(["eigen", "--config", str(path), "--output-dir", str(out),
                 "--quiet"]) == 0
    lines = (out / "eigenvalues.csv").read_text().splitlines()
    assert lines[1] == "mode,lambda,rayleigh_residual"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 6
    assert all(float(r[2]) <= 1e-8 for r in rows)
    assert (out / "basis.npz").exists()


def test_cli_lift_artifacts(tmp_path):
    path, _ = small_config(tmp_path)
    out = tmp_path / "lift"
    assert main(["lift", "--config", str(path), "--output-dir", str(out),
                 "--quiet"]) == 0
    report = (out / "lifting_report.csv").read_text().splitlines()
    assert report[1].startswith("pump,residual")
    assert (out / "lift_1.vtk").exists()
    assert (out / "profile_1_injector.csv").exists()


def test_cli_study_modes_monotone(tmp_path):
    path, _ = small_config(tmp_path)
    out = tmp_path / "sm"
    assert main(["study", "modes", "--config", str(path), "--output-dir", str(out),
                 "--levels", "2,4,6", "--reference", "10", "--quiet"]) == 0
    lines = (out / "study_modes.csv").read_text().splitlines()[2:]
    errs = [float(line.split(",")[1]) for line in lines]
    assert all(e2 <= e1 + 1e-14 for e1, e2 in zip(errs, errs[1:]))


def test_cli_study_dt(tmp_path):
    path, _ = small_config(tmp_path)
    out = tmp_path / "sd"
    assert main(["study", "dt", "--config", str(path), "--output-dir", str(out),
                 "--reference", "2", "--quiet"]) == 0
    lines = (out / "study_dt.csv").read_text().splitlines()[2:]
    diffs = [float(line.split(",")[1]) for line in lines]
    assert len(diffs) == 2 and diffs[1] <= diffs[0]


def test_cli_study_mesh_iterations_column(tmp_path, monkeypatch):
    # the appended column is each level's total of the full-space step counts
    from recirc.fullspace import FullSpaceSystem

    totals = []
    integrate = FullSpaceSystem.integrate

    def counted(self, *args, **kwargs):
        z, iterations = integrate(self, *args, **kwargs)
        totals.append(sum(iterations))
        return z, iterations

    monkeypatch.setattr(FullSpaceSystem, "integrate", counted)
    path, _ = small_config(tmp_path)
    out = tmp_path / "mesh"
    assert main(["study", "mesh", "--config", str(path), "--output-dir", str(out),
                 "--levels", "4,8", "--quiet"]) == 0
    lines = (out / "study_mesh.csv").read_text().splitlines()[1:]
    assert lines[0] == "mesh,l2l2_error,observed_order,iterations_total"
    assert [int(line.split(",")[3]) for line in lines[1:]] == totals
    assert len(totals) == 2 and min(totals) >= 20  # 20 steps of at least one iteration


def test_cli_contract_small(tmp_path):
    path, _ = small_config(tmp_path)
    out = tmp_path / "ct"
    code = main(["contract", "--config", str(path), "--output-dir", str(out),
                 "--eps", "1e-3", "--quiet"])
    assert code == 0
    summary = json.loads((out / "contraction_summary.json").read_text())
    assert summary["check_bound_holds"] is True
    assert (out / "contraction.csv").exists()


def test_cli_contract_forms_the_base_l4_series_once(tmp_path, monkeypatch):
    # the fit and the check pair share the base run's ||v1||^8_L4 series:
    # one L4 norm per save time, and the check report is the one a second
    # full evaluation gives, bit for bit
    from recirc import cli
    from recirc.monitors import contraction
    from recirc.space import MixedSpace

    path, cfg = small_config(tmp_path)
    norm, kinds, reports = MixedSpace.norm, [], []
    monkeypatch.setattr(MixedSpace, "norm",
                        lambda self, u, kind: kinds.append(kind) or norm(self, u, kind))

    def kept(system, base, pair, **kw):
        reports.append((system, base, pair, kw, contraction(system, base, pair, **kw)))
        return reports[-1][-1]

    monkeypatch.setattr(cli, "contraction", kept)
    assert main(["contract", "--config", str(path), "--output-dir", str(tmp_path / "ct"),
                 "--quiet"]) == 0
    steps = round(cfg["time"]["T"] / cfg["time"]["dt"])
    assert kinds.count("L4") == steps + 1
    monkeypatch.undo()
    (system, base, pair, kw, rep), = reports[1:]
    assert kw["w8"] is reports[0][-1].w8
    again = contraction(system, base, pair)
    for name in ("diff_sq", "w8", "cum_w8"):
        assert np.array_equal(getattr(rep, name), getattr(again, name)), name
    assert rep.fitted_C2 == again.fitted_C2


def test_build_scenario_vortex_initial(tmp_path):
    path, cfg = small_config(tmp_path, pumps=[],
                             initial={"preset": "vortex", "amplitude": 20.0})
    path.write_text(json.dumps(cfg))
    scn = build_scenario(validate(path))
    assert np.linalg.norm(scn.state0.z) > 0
    v0 = scn.basis.expand(scn.state0.z)
    assert np.linalg.norm(scn.space.B @ v0) <= 1e-8


def test_cli_study_modes_level_above_reference(tmp_path):
    out = tmp_path / "sm"
    code = main(["study", "modes", "--config", "preset:four_pumps", "--output-dir",
                 str(out), "--levels", "4,12", "--reference", "10", "--quiet"])
    assert code == 2
    assert not (out / "study_modes.csv").exists()


@pytest.mark.parametrize("kind, preset, extra", [
    ("mesh", "manufactured", ["--levels", "0"]),
    ("mesh", "manufactured", ["--levels", "8,-4"]),
    ("dt", "zero", ["--reference", "0"]),
    ("dt", "zero", ["--reference", "-1"]),
    ("contract", "zero", ["--eps", "0"]),
    ("contract", "zero", ["--eps", "nan"]),
    ("dt", "zero", ["--reference", "1100"]),  # 2**1100 overflows a float
    ("dt", "zero", ["--reference", "1023"]),  # T / finest dt overflows step_count
    ("dt", "zero", ["--reference", "10"]),  # 102400 finest steps, above the cap
    ("mesh", "manufactured", ["--reference", "7"]),  # study mesh reads no reference
    ("dt", "zero", ["--reference", "40"]),  # 2**40 * 100 finest steps
    ("dt", "zero", ["--levels", "4"]),  # study dt reads no levels
])
def test_cli_study_size_that_builds_nothing(tmp_path, monkeypatch, capsys, kind, preset, extra):
    # a study size that builds nothing, a flag the study kind does not read,
    # or a contract pair that is not a perturbation, is a config error raised
    # before anything is built
    from recirc import cli

    def build(*args, **kw):
        raise AssertionError("built before the argument check")

    monkeypatch.setattr(cli, "build_scenario", build)
    monkeypatch.setattr(cli, "MixedSpace", build)
    out = tmp_path / "st"
    argv = ["contract"] if kind == "contract" else ["study", kind]
    code = main([*argv, "--config", f"preset:{preset}", "--output-dir", str(out), *extra,
                 "--quiet"])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["errors"][0]["path"] == extra[0]
    assert not any(out.glob("*.csv"))


@pytest.mark.parametrize("kind, extra", [
    ("dt", ["--reference", "2"]),
    ("modes", ["--levels", "2,4,6", "--reference", "6"]),
    ("mesh", ["--levels", "4,8"]),
])
def test_cli_study_independent_of_threads(tmp_path, monkeypatch, kind, extra):
    path, _ = small_config(tmp_path)
    texts = []
    for threads in ("1", "2"):
        monkeypatch.setenv("RECIRC_THREADS", threads)
        out = tmp_path / f"t{threads}"
        assert main(["study", kind, "--config", str(path), "--output-dir", str(out),
                     *extra, "--quiet"]) == 0
        texts.append((out / f"study_{kind}.csv").read_bytes())
    assert texts[0] == texts[1]


def _nonfinite(value):
    """The non-finite numbers (and JSON nulls) anywhere in a parsed JSON value."""
    if isinstance(value, dict):
        return [x for v in value.values() for x in _nonfinite(v)]
    if isinstance(value, list):
        return [x for v in value for x in _nonfinite(v)]
    if value is None or (isinstance(value, float) and not np.isfinite(value)):
        return [value]
    return []


@pytest.mark.parametrize("variant", ["no_pumps", "no_closure"])
@pytest.mark.parametrize("argv", [
    ["simulate"],
    ["contract"],
    ["lift"],
    ["eigen"],
    ["validate"],
    ["study", "dt", "--reference", "2"],
    ["study", "modes", "--levels", "2,4", "--reference", "6"],
], ids=lambda argv: "-".join(argv[:2]))
def test_cli_degenerate_config_through_every_subcommand(tmp_path, capsys, argv, variant):
    # no pumps (a vortex start, so the runs are not all zero) or no closure:
    # every subcommand exits 0 with finite outputs and never raises
    if variant == "no_pumps":
        overrides = {"pumps": [], "initial": {"preset": "vortex", "amplitude": 1.0}}
    else:
        overrides = {"fluid": {"nu": 0.02, "nu_tur": 0.0}}
    path, _ = small_config(tmp_path, **overrides)
    out = tmp_path / "out"
    assert main([*argv, "--config", str(path), "--output-dir", str(out), "--quiet"]) == 0
    bad = []
    if argv[0] == "validate":
        bad += _nonfinite(json.loads(capsys.readouterr().out))
    for p in out.glob("*.json"):
        bad += [(p.name, x) for x in _nonfinite(json.loads(p.read_text()))]
    for p in out.glob("*.csv"):
        for line in p.read_text().splitlines()[2:]:
            bad += [(p.name, v) for v in line.split(",") if not np.isfinite(float(v))]
    assert not bad
    if argv[0] in ("simulate", "contract", "study"):
        assert list(out.glob("*.csv"))


@pytest.mark.parametrize("section, key, value, where", [
    ("pumps", "schedule", [[0, 0], ["a", 1]], "pumps[0].schedule"),
    ("pumps", "schedule", [[0, 0], [0.1, None], [0.2, 0.05]], "pumps[0].schedule"),
    ("pumps", "schedule", [[0, 0], [float("nan"), 0.05]], "pumps[0].schedule"),
    ("time", "T", float("inf"), "time.T"),
    ("time", "dt", 5e-324, "time"),  # T / dt overflows
    ("fluid", "nu_tur", float("nan"), "fluid.nu_tur"),
    ("mesh", "nx", float("inf"), "mesh.nx"),
    ("output", "dir", 3, "output.dir"),
    (None, "seed", -1, "seed"),  # a root key has no leading dot
])
def test_cli_validate_malformed_values(tmp_path, capsys, section, key, value, where):
    # each used to escape validate as a traceback, or to pass it
    path, cfg = small_config(tmp_path)
    target = cfg if section is None else cfg["pumps"][0] if section == "pumps" else cfg[section]
    target[key] = value
    path.write_text(json.dumps(cfg))  # NaN and Infinity as Python's json writes them
    assert main(["validate", "--config", str(path)]) == 2
    errors = json.loads(capsys.readouterr().out)["errors"]
    assert where in [e["path"] for e in errors]


def test_cli_unknown_preset_is_config_error(tmp_path, capsys):
    assert main(["validate", "--config", "preset:nope"]) == 2
    errors = json.loads(capsys.readouterr().out)["errors"]
    assert errors[0]["path"] == "--config"
    assert "'nope'" in errors[0]["message"] and "four_pumps" in errors[0]["message"]
    assert main(["simulate", "--config", "preset:nope", "--output-dir", str(tmp_path),
                 "--quiet"]) == 2


def _json_paths(value, path=()):
    """The path of every value inside a parsed JSON value, the root's excluded."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return []
    return [p for k, v in items for p in [(*path, k), *_json_paths(v, (*path, k))]]


def _mutate(cfg, path, kind, rng):
    parent = cfg
    for k in path[:-1]:
        parent = parent[k]
    key, old = path[-1], parent[path[-1]]
    if kind == "delete":
        del parent[key]
    elif kind == "type":
        others = [x for x in ("a", True, {"k": 1}, [1, 2], 1.5) if type(x) is not type(old)]
        parent[key] = others[rng.integers(len(others))]
    elif kind == "negative":
        number = isinstance(old, (int, float)) and not isinstance(old, bool)
        parent[key] = -(abs(old) or 1) if number else -1
    else:
        parent[key] = {"null": None, "nan": float("nan"), "inf": float("inf"),
                       "-inf": float("-inf"), "empty": []}[kind]


def test_validate_fuzz_never_raises(tmp_path, capsys):
    # seeded batches of 1-3 mutations of the four_pumps preset at random JSON
    # paths: validate exits 0, or 2 with a non-empty list of located errors
    base = json.loads(preset_path("four_pumps").read_text())
    rng = np.random.default_rng(20261018)
    kinds = ("type", "null", "nan", "inf", "-inf", "negative", "delete", "empty")
    path = tmp_path / "fuzz.json"
    codes = []
    for case in range(400):
        cfg = json.loads(json.dumps(base))
        for _ in range(rng.integers(1, 4)):
            paths = _json_paths(cfg)
            _mutate(cfg, paths[rng.integers(len(paths))], kinds[rng.integers(len(kinds))], rng)
        path.write_text(json.dumps(cfg))
        code = main(["validate", "--config", str(path)])
        out = json.loads(capsys.readouterr().out)
        assert code in (0, 2), (case, cfg)
        if code == 2:
            assert out["valid"] is False and out["errors"], (case, cfg)
            assert all(isinstance(e["path"], str) and e["message"] for e in out["errors"])
        codes.append(code)
    assert 2 in codes and 0 in codes
