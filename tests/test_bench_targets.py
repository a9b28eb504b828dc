"""The benchmark's contract with the program: every layer its traced runs
wrap still exists under its name, and what it reads outside the trace is
still there."""

import ast
import importlib
from pathlib import Path

import pytest

from recirc.errors import StepError
from recirc.galerkin import ReducedSystem

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"
SRC = Path(__file__).resolve().parent.parent / "src" / "recirc"


def test_traced_targets_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in workloads.TARGETS if attr not in vars(owner)]
    assert workloads.TARGETS and not missing


def test_trace_only_imports_are_traced(monkeypatch):
    # a name a module imports only for the trace (`# noqa: F401`) must be a
    # (module, attribute) target of the trace, so that it goes with its target
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    traced = {(owner, attr) for owner, attr, *_ in workloads.TARGETS}
    untraced = []
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text().splitlines()
        module = "recirc" if path.stem == "__init__" else f"recirc.{path.stem}"
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, ast.ImportFrom) and any(
                    "noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                owner = importlib.import_module(module)
                untraced += [f"{path.name}: {alias.asname or alias.name}" for alias in node.names
                             if (owner, alias.asname or alias.name) not in traced]
    assert not untraced


def test_untraced_reads_exist(monkeypatch, preset16):
    # workloads.StepHooks passes its step clock as integrate's on_step
    # keyword and keeps the trajectories; _check_pumps reads the lifts'
    # residuals and a trajectory's iterations, step_residuals and completed.
    # Both run here as the benchmark runs them.
    monkeypatch.syspath_prepend(str(BENCH))
    import speed
    import workloads

    rec = workloads.Record()
    hooks = workloads.StepHooks(rec, lambda *burst: None)
    hooks.t0 = speed.clock()
    with hooks.installed():
        traj = preset16.system.integrate(preset16.state0, T=0.03, dt=0.01)
    assert hooks.trajectories == [traj] and len(rec.step_s) == 3
    workloads._check_pumps(rec, hooks, implicit=True)
    assert rec.failures == []
    assert rec.counts["galerkin.picard_iters"] == traj.iterations.sum() > 0

    # the partial trajectory of a failed step has the same fields
    step = ReducedSystem.step_implicit_euler

    def failing(self, state, dt, **kw):
        if state.t > 0:
            raise StepError("injected failure", residual=1.0, t=kw["t_new"])
        return step(self, state, dt, **kw)

    monkeypatch.setattr(ReducedSystem, "step_implicit_euler", failing)
    with pytest.raises(StepError) as err:
        preset16.system.integrate(preset16.state0, T=0.03, dt=0.01)
    part = err.value.trajectory
    assert part.completed is False
    assert len(part.iterations) == len(part.step_residuals) == len(part) == 2
    assert part.iterations.tolist() == traj.iterations[:2].tolist()
    assert part.step_residuals.tolist() == traj.step_residuals[:2].tolist()
