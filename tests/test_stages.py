"""A scenario's stages are built on first read: each command builds the stages
it reads, a study's runs share one scenario, and simulate builds every stage
before it integrates."""

import json
from collections import Counter
from functools import cached_property

import pytest

from recirc import cli, config, galerkin
from recirc.cli import main
from recirc.config import Scenario
from recirc.space import MixedSpace

from test_config_cli import small_config


def _refuse(what):
    def call(*args, **kwargs):
        raise AssertionError(f"{what} called")

    return call


def _run(argv, path, out):
    return main([*argv, "--config", str(path), "--output-dir", str(out), "--quiet"])


@pytest.fixture
def scenarios(monkeypatch):
    """Every Scenario the CLI builds, in order."""
    made = []
    build = cli.build_scenario

    def recorded(*args, **kwargs):
        made.append(build(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(cli, "build_scenario", recorded)
    return made


def _unbuilt(scenario):
    return [name for name in Scenario.STAGES if name not in vars(scenario)]


def test_build_scenario_builds_no_stage(tmp_path):
    path, _ = small_config(tmp_path)
    scn = config.build_scenario(config.validate(path))
    assert _unbuilt(scn) == list(Scenario.STAGES)
    assert _unbuilt(scn.built()) == []


def test_lift_solves_no_eigenproblem(tmp_path, monkeypatch, scenarios):
    monkeypatch.setattr(config, "solve_stokes_eigen", _refuse("solve_stokes_eigen"))
    monkeypatch.setattr(config, "ReducedSystem", _refuse("ReducedSystem"))
    path, _ = small_config(tmp_path)
    out = tmp_path / "lift"
    assert _run(["lift"], path, out) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "lift_1.vtk", "lifting_report.csv", "profile_1_collector.csv",
        "profile_1_injector.csv"]
    assert _unbuilt(scenarios[0]) == ["basis", "source", "state0", "system"]


def test_eigen_lifts_no_pump(tmp_path, monkeypatch, scenarios):
    for name in ("build_lifting", "build_psi", "ReducedSystem"):
        monkeypatch.setattr(config, name, _refuse(name))
    path, _ = small_config(tmp_path)
    out = tmp_path / "eig"
    assert _run(["eigen"], path, out) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "basis.npz", "eigen_summary.json", "eigenvalues.csv"]
    assert _unbuilt(scenarios[0]) == ["pumps", "params", "lifting", "source", "state0",
                                      "system"]


def test_mode_count_above_capacity_fails_only_where_read(tmp_path, capsys):
    # lift reads no basis, so only the commands that solve for one fail
    path, _ = small_config(tmp_path, galerkin={"modes": 10_000})
    assert _run(["lift"], path, tmp_path / "lift") == 0
    for argv in (["eigen"], ["simulate"]):
        capsys.readouterr()
        assert _run(argv, path, tmp_path / argv[0]) == 1
        assert "requested 10000 modes but the constrained subspace" in capsys.readouterr().err


def _counting_stages(monkeypatch):
    """Stage name -> number of times its body ran."""
    counts = Counter()
    for name in Scenario.STAGES:
        def counted(self, body=vars(Scenario)[name].func, name=name):
            counts[name] += 1
            return body(self)

        stage = cached_property(counted)
        stage.__set_name__(Scenario, name)
        monkeypatch.setattr(Scenario, name, stage)
    return counts


@pytest.mark.parametrize("kind, extra", [
    ("dt", ["--reference", "2"]),
    ("modes", ["--levels", "2,4", "--reference", "6"]),
])
def test_study_builds_each_stage_once(tmp_path, monkeypatch, kind, extra):
    # the runs of a study, one after another, share one scenario
    counts = _counting_stages(monkeypatch)
    path, _ = small_config(tmp_path)
    assert _run(["study", kind, *extra], path, tmp_path / "st") == 0
    assert counts == dict.fromkeys(Scenario.STAGES, 1)


def test_simulate_builds_every_stage_before_it_integrates(tmp_path, monkeypatch, scenarios):
    # so that summary.json's setup_s holds the whole build
    unbuilt = []
    integrate = galerkin.ReducedSystem.integrate

    def checked(self, *args, **kwargs):
        unbuilt.append(_unbuilt(scenarios[0]))
        return integrate(self, *args, **kwargs)

    monkeypatch.setattr(galerkin.ReducedSystem, "integrate", checked)
    path, _ = small_config(tmp_path)
    out = tmp_path / "sim"
    assert _run(["simulate"], path, out) == 0
    assert unbuilt == [[]]
    assert json.loads((out / "summary.json").read_text())["phases"]["setup_s"] > 0


def test_simulate_states_the_cpu_time_of_each_stage(tmp_path):
    # summary.json's phases split set-up into the process CPU time of each
    # Scenario stage, the eigen solve's among them
    path, _ = small_config(tmp_path)
    out = tmp_path / "sim"
    assert _run(["simulate"], path, out) == 0
    stages = json.loads((out / "summary.json").read_text())["phases"]["setup_stages"]
    assert sorted(stages) == sorted(Scenario.STAGES)
    assert all(v >= 0.0 for v in stages.values())
    assert stages["basis"] > 0.0


def _patch_cached(monkeypatch, cls, name, body):
    """Replace the builder of the cached property cls.name by body."""
    prop = cached_property(body)
    prop.__set_name__(cls, name)
    monkeypatch.setattr(cls, name, prop)


@pytest.mark.parametrize("argv", [["lift"], ["study", "mesh", "--levels", "4,8"]])
def test_lift_and_study_mesh_form_no_gradient_stiffness(tmp_path, monkeypatch, argv):
    # only the eigensolver and the ledger read K_grad
    _patch_cached(monkeypatch, MixedSpace, "K_grad", _refuse("K_grad"))
    path, _ = small_config(tmp_path)
    assert _run(argv, path, tmp_path / "out") == 0


def test_simulate_forms_the_gradient_stiffness_once_in_the_basis_stage(tmp_path, monkeypatch):
    # K_grad is built on first read, by the eigensolver, so its time stays
    # in set-up; the ledger reads the same matrix
    formed, stage = [], []
    build = vars(MixedSpace)["K_grad"].func
    basis = vars(Scenario)["basis"].func

    def k_grad(space):
        formed.append(list(stage))
        return build(space)

    def in_basis(self):
        stage.append("basis")
        try:
            return basis(self)
        finally:
            stage.pop()

    _patch_cached(monkeypatch, MixedSpace, "K_grad", k_grad)
    _patch_cached(monkeypatch, Scenario, "basis", in_basis)
    seen = []
    integrate = galerkin.ReducedSystem.integrate

    def checked(self, *args, **kwargs):
        seen.append(list(formed))
        return integrate(self, *args, **kwargs)

    monkeypatch.setattr(galerkin.ReducedSystem, "integrate", checked)
    path, _ = small_config(tmp_path)
    assert _run(["simulate"], path, tmp_path / "sim") == 0
    assert seen == [[["basis"]]]
    assert formed == [["basis"]]
