import json
import re
from fnmatch import fnmatch
from itertools import takewhile
from pathlib import Path

import numpy as np
import pytest

from recirc import __version__
from recirc.cli import _write_csv, main
from recirc.config import build_scenario, preset_path, validate
from recirc.eigenbasis import subspace_dimension
from recirc.errors import ConfigError
from recirc.mesh import build_rect_mesh
from recirc.pumps import Schedule, check_width, schedule_knots
from recirc.space import MixedSpace


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


def test_validate_shares_no_object_with_its_input():
    # validate fills its defaults into a deep copy: the caller's dict is left
    # as it was, a later edit of it reaches neither the RunConfig nor its
    # hash, and a defaulted section is the RunConfig's own
    from recirc.config import _DEFAULTS

    cfg = json.loads(preset_path("four_pumps").read_text())
    del cfg["time"]["scheme"]
    cfg["initial"] = {"preset": "vortex"}
    before = json.dumps(cfg, sort_keys=True)
    rc = validate(cfg)
    assert rc.time["scheme"] == "implicit-euler" and rc.initial["amplitude"] == 1.0
    assert json.dumps(cfg, sort_keys=True) == before
    h = rc.hash()
    cfg["time"]["dt"] = -1.0
    cfg["pumps"][0]["schedule"][1][1] = 9.0
    assert rc.time["dt"] == 0.01 and rc.pumps[0]["schedule"][1][1] == 0.05
    assert rc.hash() == h

    defaults = json.dumps(_DEFAULTS, sort_keys=True)
    bare = validate({k: v for k, v in json.loads(before).items()
                     if k not in ("output", "initial")})
    for section in ("output", "initial"):
        assert getattr(bare, section) == _DEFAULTS[section]
        assert getattr(bare, section) is not _DEFAULTS[section]
        getattr(bare, section)["edited"] = True
    assert json.dumps(_DEFAULTS, sort_keys=True) == defaults


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
            assert err[0].endswith(" start_order=0") and err[1].endswith(" start_order=1")
            assert all(re.search(r" evaluations=\d+ start_order=\d$", line) for line in err)
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


def test_write_csv_floats_round_trip(tmp_path):
    # %.17g reads back to the same double, sign of zero, subnormals, nan and
    # inf included, from an array or from a list of Python floats
    rng = np.random.default_rng(11)
    x = np.concatenate([rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200),
                        [5e-324, -2.5e-310, np.finfo(float).tiny, 0.0, -0.0,
                         np.nan, np.inf, -np.inf]])
    _write_csv(tmp_path / "f.csv", {"a": x, "b": x.tolist()}, "h")
    lines = (tmp_path / "f.csv").read_text().splitlines()
    assert lines[1] == "a,b" and len(lines) == 2 + len(x)
    back = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    for column in back.T:
        assert np.array_equal(column.view(np.int64), x.view(np.int64))


def test_write_csv_integers_in_decimal(tmp_path):
    _write_csv(tmp_path / "i.csv", {"a": [0, -7, 2**62],
                                     "b": np.array([3, -1, 12], dtype=np.int64)}, "h")
    assert (tmp_path / "i.csv").read_text().splitlines()[1:] == [
        "a,b", "0,3", "-7,-1", "4611686018427387904,12"]


def test_write_csv_zero_rows_and_header_line(tmp_path):
    _write_csv(tmp_path / "e.csv", {"t": [], "n": np.array([], dtype=int)}, "abc123")
    assert (tmp_path / "e.csv").read_text() == f"# recirc {__version__} config=abc123\nt,n\n"


@pytest.mark.parametrize("table, error", [
    ({"a": [1.0, 2.0], "b": [1.0]}, ValueError),  # zip would drop the second row
    ({"a": np.zeros((2, 2))}, ValueError),
    ({"a": [1.0, 2.0], "s": ["x", "y"]}, TypeError),
    ({"o": np.array([1.0, None], dtype=object)}, TypeError),
])
def test_write_csv_rejects_a_bad_column(tmp_path, table, error):
    with pytest.raises(error):
        _write_csv(tmp_path / "bad.csv", table, "h")
    assert not (tmp_path / "bad.csv").exists()


def _readme_csv_table():
    """{file pattern: columns} from the README's table of output files; a
    <name> in a file name is a wildcard."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = text.split("| file | command | columns |\n", 1)[1].splitlines()[1:]
    table = {}
    for row in takewhile(lambda line: line.startswith("|"), rows):
        files, _, columns = (cell.strip() for cell in row.strip("|").split("|"))
        for name in re.findall(r"`([^`]+)`", files):
            table[re.sub(r"<\w+>", "*", name)] = columns.strip("`").split(",")
    return table


def test_readme_table_lists_every_csv_header(tmp_path):
    # every CSV each command writes has the header the README's table lists
    # for it, z1..zN read as the config's modes, and rows of that many fields
    path, cfg = small_config(tmp_path, time={"T": 0.02, "dt": 0.01, "scheme": "implicit-euler"})
    modes = [f"z{k}" for k in range(1, cfg["galerkin"]["modes"] + 1)]
    table = _readme_csv_table()
    seen = set()
    for argv in (["simulate"], ["contract"], ["lift"], ["eigen"],
                 ["study", "dt", "--reference", "2"],
                 ["study", "modes", "--levels", "2,4", "--reference", "6"],
                 ["study", "mesh", "--levels", "4"]):
        out = tmp_path / "-".join(argv[:2])
        assert main([*argv, "--config", str(path), "--output-dir", str(out), "--quiet"]) == 0
        for csv in out.glob("*.csv"):
            (pattern,) = [p for p in table if fnmatch(csv.name, p)]
            seen.add(pattern)
            columns = [c for col in table[pattern] for c in (modes if col == "z1..zN" else [col])]
            lines = csv.read_text().splitlines()
            assert lines[0].startswith("# recirc ") and lines[1].split(",") == columns, csv.name
            assert all(len(line.split(",")) == len(columns) for line in lines[2:]), csv.name
    assert set(table) - seen == {"trajectory_partial.csv"}  # written by a failed step only


def test_readme_constant_names_exist():
    # every backticked ALL-CAPS name of three or more characters in the
    # README is an attribute of a recirc module, a thread variable the CLI
    # records or RECIRC_THREADS, which the README names as ignored, so a
    # constant that is gone cannot stay documented; the shorter ones (B, C,
    # M, N, T, L2..L4) are the README's symbols
    import importlib
    import pkgutil

    import recirc
    from recirc.cli import BLAS_THREAD_VARS

    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    names = set(re.findall(r"`([A-Z][A-Z0-9_]{2,})`", text))
    modules = [importlib.import_module(f"recirc.{info.name}")
               for info in pkgutil.iter_modules(recirc.__path__)]
    known = {name for module in modules for name in vars(module)}
    known |= {*BLAS_THREAD_VARS, "RECIRC_THREADS"}
    assert "CHORD_RATE" in names and "RECIRC_THREADS" in names
    assert names <= known, sorted(names - known)


def test_trajectory_net_flux_is_roundoff(preset16, tmp_path):
    # the appended net_flux column, flux_vector @ zeta_g(t), is zero up to
    # roundoff on four_pumps, ramp and plateau; the tangent_scale and
    # start_order columns after it are the step record's
    from recirc.cli import _write_trajectory

    sys_ = preset16.system
    traj = sys_.integrate(preset16.state0, T=0.3, dt=0.01)
    _write_trajectory(tmp_path / "t.csv", traj, sys_, "test")
    cols = _csv_columns(tmp_path / "t.csv")
    assert list(cols)[-3:] == ["net_flux", "tangent_scale", "start_order"]
    assert cols["t"] == traj.times.tolist()
    assert cols["tangent_scale"] == traj.tangent_scales.tolist()
    assert cols["start_order"] == traj.start_orders.tolist()
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
    assert list(cols)[-6:] == ["iterations", "residual", "tangents", "net_flux", "tangent_scale",
                               "start_order"]
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
    assert cols[-6:] == ["iterations", "residual", "tangents", "net_flux", "tangent_scale",
                         "start_order"]
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
    # [p] counts the steps that started from the order-p extrapolation:
    # the first at z_0, the second at the linear 2 z_1 - z_0
    orders = [int(r["start_order"]) for r in rows]
    assert orders[:3] == [0, 0, 1]
    assert solver["start_order_histogram"] == [orders[1:].count(p)
                                               for p in range(max(orders) + 1)]
    # the phases are disjoint parts of the run's wall time; setup_stages
    # splits setup_s (test_stages.py)
    phases = {k: v for k, v in summary["phases"].items() if k != "setup_stages"}
    assert sorted(phases) == ["integrate_s", "ledger_s", "output_s", "setup_s"]
    assert all(v >= 0.0 for v in phases.values())
    assert sum(phases.values()) <= summary["wall_time_s"] + 1e-3


def test_cli_summary_states_the_estimates(tmp_path):
    # summary.json adds the estimates' sides, the Gronwall exponent x and
    # log10_C2, C2 without the clamp at x = 700; below the clamp it is the
    # log10 of C2_empirical, and C1_empirical is the ratio of the sides
    path, _ = small_config(tmp_path)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(path), "--output-dir", str(out),
                 "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["C1_empirical"] == summary["estimate1_lhs"] / summary["estimate1_rhs"]
    assert 0.0 < summary["estimate2_exponent"] < 700.0
    log10_C2 = np.log10(summary["C2_empirical"])
    assert abs(summary["log10_C2"] - log10_C2) <= 1e-13 * abs(log10_C2)


def test_cli_summaries_record_the_numerical_environment(tmp_path, monkeypatch):
    # summary.json and eigen_summary.json record numpy's BLAS and the BLAS
    # thread variables that are set, as the process reads them; no other key,
    # and not RECIRC_THREADS, which recirc ignores
    from recirc.cli import BLAS_THREAD_VARS

    assert len(BLAS_THREAD_VARS) == 5
    for var in BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("MKL_NUM_THREADS", "3")
    monkeypatch.setenv("RECIRC_THREADS", "2")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    path, _ = small_config(tmp_path, pumps=[])
    keys = {
        "simulate": ("summary.json", ["C1_empirical", "C2_empirical", "config_hash", "environment",
                                      "estimate1_lhs", "estimate1_rhs", "estimate2_exponent",
                                      "estimate2_lhs", "final_v_l2", "final_z_l2", "log10_C2",
                                      "max_v_l2", "modes", "phases", "scheme", "solver",
                                      "version", "wall_time_s"]),
        "eigen": ("eigen_summary.json", ["config_hash", "environment", "gram_residual",
                                         "korn_constant", "lambda_1", "max_rayleigh_residual",
                                         "modes", "subspace_dimension"]),
    }
    for command, (name, expect) in keys.items():
        out = tmp_path / command
        assert main([command, "--config", str(path), "--output-dir", str(out), "--quiet"]) == 0
        summary = json.loads((out / name).read_text())
        assert sorted(summary) == expect
        env = summary["environment"]
        assert env["blas"] == {"name": blas["name"], "version": blas["version"]}
        assert env["threads"] == {"MKL_NUM_THREADS": "3", "OPENBLAS_NUM_THREADS": "1"}


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


def test_cli_eigen_on_a_1x1_mesh_is_a_capacity_error(tmp_path, capsys):
    # the divergence-free subspace of a 1x1 mesh is {0}, so even one mode is
    # a CapacityError (exit 1) that names dimension 0
    path, _ = small_config(tmp_path, pumps=[], mesh={"nx": 1, "ny": 1}, galerkin={"modes": 1})
    assert main(["eigen", "--config", str(path), "--output-dir", str(tmp_path / "eig"),
                 "--quiet"]) == 1
    assert capsys.readouterr().err == (
        "error: requested 1 modes but the constrained subspace has dimension 0\n")


def test_cli_eigen_basis_off_its_rayleigh_quotients_exits_1(tmp_path, capsys):
    # at 8^2 (dimension 370) ARPACK returns N = 368 with a last mode of the
    # singular pencil: the Rayleigh gate makes it a SolverError, and eigen
    # writes neither the eigenvalues nor the basis
    path, _ = small_config(tmp_path, galerkin={"modes": 368})
    out = tmp_path / "eig"
    assert main(["eigen", "--config", str(path), "--output-dir", str(out), "--quiet"]) == 1
    assert "mode 368 of N = 368" in capsys.readouterr().err
    assert list(out.iterdir()) == []


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
    # the appended columns are each level's total and largest of the
    # full-space step counts
    from recirc.fullspace import FullSpaceSystem

    totals, largest = [], []
    integrate = FullSpaceSystem.integrate

    def counted(self, *args, **kwargs):
        z, iterations = integrate(self, *args, **kwargs)
        totals.append(sum(iterations))
        largest.append(max(iterations))
        return z, iterations

    monkeypatch.setattr(FullSpaceSystem, "integrate", counted)
    path, _ = small_config(tmp_path)
    out = tmp_path / "mesh"
    assert main(["study", "mesh", "--config", str(path), "--output-dir", str(out),
                 "--levels", "4,8", "--quiet"]) == 0
    lines = (out / "study_mesh.csv").read_text().splitlines()[1:]
    assert lines[0] == "mesh,l2l2_error,observed_order,iterations_total,iterations_max"
    assert [int(line.split(",")[3]) for line in lines[1:]] == totals
    assert len(totals) == 2 and min(totals) >= 20  # 20 steps of at least one iteration
    assert [int(line.split(",")[4]) for line in lines[1:]] == largest
    assert min(largest) >= 1 and max(largest) < 60  # no step near the Picard cap


def test_cli_study_mesh_order_on_non_doubling_levels(tmp_path):
    # observed_order is log(e_prev / e) / log(n / n_prev), so it reads the
    # manufactured solution's order (2.35-2.67 at these sizes) on levels that
    # do not double, where the log2 of the error ratio reads 1.05-1.56
    cfg = json.loads(preset_path("manufactured").read_text())
    cfg["time"]["T"] = 0.015
    path = tmp_path / "mms.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "mesh"
    assert main(["study", "mesh", "--config", str(path), "--output-dir", str(out),
                 "--levels", "4,6,8,12", "--quiet"]) == 0
    rows = [line.split(",") for line in (out / "study_mesh.csv").read_text().splitlines()[2:]]
    n = [int(r[0]) for r in rows]
    err = [float(r[1]) for r in rows]
    order = [float(r[2]) for r in rows]
    assert n == [4, 6, 8, 12] and np.isnan(order[0])
    for i in range(1, 4):
        ref = np.log(err[i - 1] / err[i]) / np.log(n[i] / n[i - 1])
        assert abs(order[i] - ref) <= 1e-12 * ref
    assert 2.2 <= min(order[1:]) and max(order[1:]) <= 3.0


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
    # one contraction call serves the fit and the check pair: one stacked
    # velocity field per save time, both reports hold the one ||v1||^8_L4
    # array, which is the L4 norm of each save time's velocity to the
    # eighth, and each report is the one a single-pair call gives, bit for bit
    from recirc import cli
    from recirc.monitors import contraction
    from recirc.space import MixedSpace

    path, cfg = small_config(tmp_path)
    planes, stacked, calls = MixedSpace.value_planes, [], []
    monkeypatch.setattr(MixedSpace, "value_planes",
                        lambda self, u: (u.ndim == 2 and stacked.append(len(u))) or planes(self, u))

    def kept(system, base, *pairs):
        calls.append((system, base, pairs, contraction(system, base, *pairs)))
        return calls[-1][-1]

    monkeypatch.setattr(cli, "contraction", kept)
    assert main(["contract", "--config", str(path), "--output-dir", str(tmp_path / "ct"),
                 "--quiet"]) == 0
    steps = round(cfg["time"]["T"] / cfg["time"]["dt"])
    assert sum(stacked) == steps + 1
    monkeypatch.undo()
    (system, base, pairs, reports), = calls
    assert len(pairs) == len(reports) == 2
    assert reports[0].w8 is reports[1].w8
    ref = [system.space.norm(system.velocity(z, t), "L4") ** 8
           for t, z in zip(base.times, base.states)]
    assert np.allclose(reports[0].w8, ref, rtol=1e-13, atol=0.0)
    for pair, rep in zip(pairs, reports):
        again, = contraction(system, base, pair)
        for name in ("diff_sq", "w8", "cum_w8"):
            assert np.array_equal(getattr(rep, name), getattr(again, name)), name
        assert (rep.fitted_C2, rep.identical) == (again.fitted_C2, again.identical)


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
    assert not out.exists()


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
    ("mesh", "manufactured", ["--levels", "8,8"]),  # the order would be 0 / 0
    ("mesh", "manufactured", ["--levels", "16,8,16"]),  # a repeated mesh size
    ("mesh", "manufactured", ["--levels", ""]),  # an empty value is given, not the default
    ("modes", "zero", ["--reference", ""]),
    ("dt", "zero", ["--reference", ""]),
    ("modes", "zero", ["--levels", "abc"]),
    ("modes", "zero", ["--levels", "5,100", "--reference", "80"]),
])
def test_cli_study_size_that_builds_nothing(tmp_path, monkeypatch, capsys, kind, preset, extra):
    # a study size that builds nothing, a flag the study kind does not read,
    # or a contract pair that is not a perturbation, is a config error raised
    # before anything is built or the output directory is made
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
    assert not out.exists()


@pytest.mark.parametrize("Lx, Ly", [(2.0, 1.0), (1.0, 0.5)])
def test_cli_study_mesh_off_the_unit_square(tmp_path, monkeypatch, capsys, Lx, Ly):
    # the manufactured solution vanishes on the boundary of the unit square
    # only; elsewhere study mesh is a config error naming the domain, raised
    # before any mesh is built (it used to fail as a stalled full-space step)
    from recirc import cli

    def build(*args, **kw):
        raise AssertionError("built before the domain check")

    monkeypatch.setattr(cli, "build_scenario", build)
    monkeypatch.setattr(cli, "build_rect_mesh", build)
    path, _ = small_config(tmp_path, domain={"Lx": Lx, "Ly": Ly}, pumps=[])
    out = tmp_path / "st"
    code = main(["study", "mesh", "--config", str(path), "--output-dir", str(out),
                 "--levels", "4,8", "--quiet"])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["errors"][0]["path"] == "domain"
    assert not out.exists()


@pytest.mark.parametrize("kind, extra", [
    ("dt", ["--reference", "2"]),
    ("modes", ["--levels", "2,4,6", "--reference", "6"]),
    ("mesh", ["--levels", "4,8"]),
])
def test_cli_study_independent_of_threads(tmp_path, monkeypatch, kind, extra):
    # a study runs its levels in order and ignores RECIRC_THREADS, which
    # earlier versions read: a set value, valid or not, is no error
    path, _ = small_config(tmp_path)
    texts = []
    for threads in (None, "2", "abc"):
        if threads is None:
            monkeypatch.delenv("RECIRC_THREADS", raising=False)
        else:
            monkeypatch.setenv("RECIRC_THREADS", threads)
        out = tmp_path / f"t{threads}"
        assert main(["study", kind, "--config", str(path), "--output-dir", str(out),
                     *extra, "--quiet"]) == 0
        texts.append((out / f"study_{kind}.csv").read_bytes())
    assert texts[0] == texts[1] == texts[2]


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


def test_four_pumps_off_the_8x8_vertices_fails_typed(tmp_path, capsys):
    # four_pumps' segment ends sit at sixteenths, between the vertices of an
    # 8x8 mesh: every subcommand exits 2 with the located errors, no traceback
    cfg = json.loads(preset_path("four_pumps").read_text())
    cfg["mesh"] = {"nx": 8, "ny": 8}
    path = tmp_path / "four8.json"
    path.write_text(json.dumps(cfg))
    expected = [f"pumps[{i}].{role}" for i in range(4) for role in ("injector", "collector")]
    for command in ("validate", "lift", "eigen", "simulate"):
        assert main([command, "--config", str(path), "--output-dir", str(tmp_path / "out"),
                     "--quiet"]) == 2
        captured = capsys.readouterr()
        errors = json.loads(captured.out if command == "validate" else captured.err)["errors"]
        assert [e["path"] for e in errors] == expected
        assert all("does not run between two mesh vertices k*1.0/8" in e["message"]
                   for e in errors)


def test_horizon_shorter_than_half_a_step_fails_typed(tmp_path, capsys):
    # T = 1e-10 rounds to zero steps of dt = 0.01: every subcommand exits 2
    # with the error located at time and writes nothing (simulate used to
    # die in the ledger with a ValueError, contract and study dt to exit 0
    # after no step)
    cfg = json.loads(preset_path("four_pumps").read_text())
    cfg["time"]["T"] = 1e-10
    path, out = tmp_path / "short.json", tmp_path / "out"
    path.write_text(json.dumps(cfg))
    for command in (["validate"], ["lift"], ["eigen"], ["simulate"], ["contract"],
                    ["study", "dt"]):
        assert main([*command, "--config", str(path), "--output-dir", str(out),
                     "--quiet"]) == 2
        captured = capsys.readouterr()
        errors = json.loads(captured.out if command == ["validate"] else captured.err)["errors"]
        assert errors == [{"path": "time", "message": "T = 1e-10 takes no step of dt = 0.01"}]
        assert not out.exists()


def test_validate_builds_nothing_mesh_sized(monkeypatch):
    # the segment rule is arithmetic: a 10^7 x 10^7 mesh validates without a mesh
    def refuse(*args, **kwargs):
        raise AssertionError("validate built a mesh")

    monkeypatch.setattr("recirc.mesh.TaggedMesh.__init__", refuse)
    monkeypatch.setattr("numpy.linspace", refuse)
    cfg = json.loads(preset_path("four_pumps").read_text())
    cfg["mesh"] = {"nx": 10**7, "ny": 10**7}
    assert validate(cfg).mesh == {"nx": 10**7, "ny": 10**7}
    cfg["pumps"][0]["injector"]["end"] = 0.1875 + 3e-8  # 0.3 of a cell off its vertex
    with pytest.raises(ConfigError) as err:
        validate(cfg)
    assert [p for p, _ in err.value.issues] == ["pumps[0].injector"]


def test_validate_reads_the_run_rules(tmp_path):
    # validate records the ValueError messages of the rules that Schedule and
    # build_profile raise, at the JSON path of the data that breaks them
    path, cfg = small_config(tmp_path)
    cfg["pumps"][0]["schedule"] = [[0.1, 1.0], [0.05, -1.0], [0.2, 0.05]]
    cfg["pumps"][0]["profile"]["width"] = 0.125  # mu/2 of a 0.25 segment
    with pytest.raises(ConfigError) as err:
        validate(cfg)
    issues = dict(err.value.issues)
    for rule in (schedule_knots, lambda s: Schedule(s)):
        with pytest.raises(ValueError) as raised:
            rule(cfg["pumps"][0]["schedule"])
        assert issues["pumps[0].schedule"] == str(raised.value)
    assert issues["pumps[0].schedule"].count(";") == 3  # all four rules named
    with pytest.raises(ValueError) as raised:
        check_width(0.125, 0.25)
    assert issues["pumps[0].profile.width"] == str(raised.value)


def test_width_rule_reads_the_mesh_measure(tmp_path, capsys):
    # ends snapped 5e-10 outside the vertices 1/16 and 3/16: the config spans
    # 0.125 + 1e-9, the mesh 0.125, so a width of 0.0625 + 2e-10 breaks the
    # rule in the run and must in validate
    cfg = json.loads(preset_path("four_pumps").read_text())
    cfg["pumps"] = cfg["pumps"][:1]
    for role in ("injector", "collector"):
        cfg["pumps"][0][role].update(start=0.0625 - 5e-10, end=0.1875 + 5e-10)
    cfg["pumps"][0]["profile"]["width"] = 0.0625 + 2e-10
    with pytest.raises(ConfigError) as err:
        validate(cfg)
    assert [p for p, _ in err.value.issues] == ["pumps[0].profile.width"]
    cfg["pumps"][0]["profile"]["width"] = 0.0625 - 2e-10
    scenario = build_scenario(validate(cfg))
    assert scenario.pumps.pumps[0].injector.mu == 0.125


def _segment(rng, side, lengths, counts):
    """A random segment of `side` and its mesh measure: its ends on the mesh
    vertices within the snap, or drawn uniformly on 1.1 times the side, off
    every vertex (measure None)."""
    L, n = lengths[side], counts[side]
    if rng.random() < 0.8:
        k0 = int(rng.integers(n))
        k1 = int(rng.integers(k0 + 1, n + 1))
        jitter = rng.choice([0.0, 5e-10, -5e-10], 2)
        ends = [max(k * L / n + j, 0.0) for k, j in zip((k0, k1), jitter)]
        return {"side": side, "start": ends[0], "end": ends[1]}, (k1 - k0) * L / n
    start, end = np.sort(rng.uniform(0.0, 1.1 * L, 2)).tolist()
    return {"side": side, "start": start, "end": end}, None


def test_validated_configs_run_or_fail_typed(tmp_path, capsys):
    # seeded configs on meshes up to 8^2 (random domains, segment ends on and
    # off the mesh vertices, mode counts up to the subspace dimension): what
    # validate accepts exits 0, 1 or 2 from lift and from eigen with no
    # traceback, and what it rejects names exactly the offending paths
    rng = np.random.default_rng(20261020)
    path, base = small_config(tmp_path)
    codes = {"validate": [], "lift": [], "eigen": []}
    for case in range(40):
        cfg = json.loads(json.dumps(base))
        nx, ny = (int(n) for n in rng.integers(1, 9, 2))
        Lx, Ly = (round(float(L), 3) for L in rng.uniform(0.5, 2.0, 2))
        cfg["domain"], cfg["mesh"] = {"Lx": Lx, "Ly": Ly}, {"nx": nx, "ny": ny}
        lengths = {"bottom": Lx, "top": Lx, "left": Ly, "right": Ly}
        counts = {"bottom": nx, "top": nx, "left": ny, "right": ny}
        sides = rng.permutation(["bottom", "right", "top", "left"]).tolist()  # no overlaps
        cfg["pumps"], expected = [], set()
        for i in range(int(rng.integers(1, 3))):
            pump, on_mesh = {"schedule": base["pumps"][0]["schedule"]}, []
            for role, side in zip(("injector", "collector"), sides[2 * i: 2 * i + 2]):
                pump[role], mu = _segment(rng, side, lengths, counts)
                if mu is None:
                    expected.add(f"pumps[{i}].{role}")
                else:
                    on_mesh.append(mu)
            width = float(rng.uniform(0.05, 0.55)) * min(on_mesh + [1.0])
            pump["profile"] = {"kind": "mollified", "width": width}
            if not width < min(on_mesh, default=np.inf) / 2:
                expected.add(f"pumps[{i}].profile.width")
            cfg["pumps"].append(pump)
        # the dimension is 0 on a 1x1 mesh, where every mode count fails typed
        cap = max(subspace_dimension(MixedSpace(build_rect_mesh(Lx, Ly, nx, ny))), 1)
        cfg["galerkin"]["modes"] = int(rng.choice([1, cap, rng.integers(1, cap + 1)]))
        path.write_text(json.dumps(cfg))
        code = main(["validate", "--config", str(path)])
        report = json.loads(capsys.readouterr().out)
        codes["validate"].append(code)
        if code == 2:
            assert {e["path"] for e in report["errors"]} == expected, (case, cfg)
            continue
        assert code == 0 and not expected, (case, cfg)
        for command in ("lift", "eigen"):
            code = main([command, "--config", str(path), "--output-dir", str(tmp_path / "out"),
                         "--quiet"])
            capsys.readouterr()
            assert code in (0, 1, 2), (case, command, cfg)
            codes[command].append(code)
    assert {0, 2} <= set(codes["validate"]) and 0 in codes["lift"]
    assert {0, 1} <= set(codes["eigen"])  # N = dimension fails typed


@pytest.mark.parametrize("where", ["--output-dir", "output.dir"])
@pytest.mark.parametrize("argv", [
    ["simulate"],
    ["lift"],
    ["eigen"],
    ["study", "dt", "--reference", "2"],
    ["contract"],
], ids=lambda argv: "-".join(argv[:2]))
def test_cli_output_path_that_is_a_file_exits_2(tmp_path, capsys, argv, where):
    # an output path naming an existing file is a config error at the flag,
    # or at output.dir when no flag is given, and the file is left as it was
    blocker = tmp_path / "taken"
    blocker.write_text("keep me\n")
    if where == "output.dir":
        path, _ = small_config(tmp_path, output={"dir": str(blocker), "every": 5})
        flags = []
    else:
        path, _ = small_config(tmp_path)
        flags = ["--output-dir", str(blocker)]
    assert main([*argv, "--config", str(path), *flags, "--quiet"]) == 2
    errors = json.loads(capsys.readouterr().err)["errors"]
    assert [e["path"] for e in errors] == [where]
    assert blocker.read_text() == "keep me\n"


def test_cli_contract_whole_number_float_seed(tmp_path):
    # validate accepts 7.0 as an integer seed; the run reads it as 7, while
    # the config (and so its hash) keeps the value as written
    rows = []
    for seed in (7, 7.0):
        path, _ = small_config(tmp_path, seed=seed)
        out = tmp_path / f"ct_{seed!r}"
        assert main(["contract", "--config", str(path), "--output-dir", str(out),
                     "--quiet"]) == 0
        rows.append((out / "contraction.csv").read_text().split("\n", 1)[1])
    assert rows[0] == rows[1]
    assert repr(validate(path).seed) == "7.0"


@pytest.mark.parametrize("output, expected, items", [
    (None, "ad310dc2a468", [("dir", "out"), ("every", 10)]),
    ({"every": 5}, "a3f7cb941d15", [("every", 5), ("dir", "out")]),
])
def test_config_defaults_keep_raw_and_hash(output, expected, items):
    # each default is written once (in _DEFAULTS); filling it keeps the
    # canonical dict, its key order and the config hash of earlier versions
    cfg = json.loads(preset_path("four_pumps").read_text())
    if output is not None:
        cfg["output"] = output
    rc = validate(cfg)
    assert rc.hash() == expected
    assert list(rc.raw["output"].items()) == items
