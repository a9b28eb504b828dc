"""tools/call_counts.py counts the calls of recirc's functions in one command."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_validate_calls_counted_per_recirc_function(capsys):
    spec = importlib.util.spec_from_file_location("call_counts",
                                                  ROOT / "tools" / "call_counts.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.main(["validate", "--config", "preset:zero"]) == 0
    out = capsys.readouterr().out
    rows = out[out.index("    calls  function\n"):].splitlines()[1:]
    calls = {name: int(n) for n, name in (row.split() for row in rows)}
    assert calls["recirc.cli.main"] == 1
    assert calls["recirc.config.validate"] == 1
    assert calls["recirc.galerkin.step_count"] == 1
    assert all(name.startswith("recirc.") for name in calls)
    # most called first
    assert list(calls.values()) == sorted(calls.values(), reverse=True)
