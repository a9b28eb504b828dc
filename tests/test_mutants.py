"""tools/mutants.py runs a module's mutants against a test selection."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

MODULE = '''\
def count_down(n):
    steps = 0
    while n > 0:
        n -= 1
        steps = steps + 1
    return steps


def half(x):
    return 0.5 * x  # no test reads it
'''

TEST = '''\
from calc import count_down


def test_count_down():
    assert count_down(3) == 3
'''


@pytest.fixture
def tool():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def toy(root, text):
    """src/calc.py with `text` and its test under root; the module's path."""
    module = root / "src" / "calc.py"
    module.parent.mkdir()
    module.write_text(text)
    (root / "tests").mkdir()
    (root / "tests" / "test_calc.py").write_text(TEST)
    return module


def test_mutants_killed_survived_and_timed_out(tmp_path, capsys, tool):
    # about 7 s: 7 pytest runs of a tiny test, and the timeout of the loop
    module = toy(tmp_path, MODULE)
    assert tool.main([str(module)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("5 mutants of calc.py (5 points), tests tests/test_calc.py")
    assert [line.split() for line in out[1:-1]] == [
        ["killed", "src/calc.py:3", ">", "->", ">="],
        ["timed", "out", "src/calc.py:4", "-=", "->", "+="],  # the loop never ends
        ["killed", "src/calc.py:5", "+", "->", "-"],
        ["survived", "src/calc.py:10", "0.5", "->", "1.0"],
        ["survived", "src/calc.py:10", "*", "->", "/"],
    ]
    assert out[-1] == "killed 2, survived 2, timed out 1"
    # the mutants were written into a copy: the module is as it was
    assert module.read_text() == MODULE
    assert sorted(p.name for p in module.parent.iterdir()) == ["calc.py"]

    # a sample of 2, drawn with a seed, in source order
    assert tool.main([str(module), "--sample", "2", "--seed", "0",
                      "--tests", "tests/test_calc.py"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("2 mutants of calc.py (5 points)")
    assert [line.split()[2] for line in out[1:-1]] == ["0.5", "*"]
    assert out[-1] == "killed 0, survived 2, timed out 0"


def test_mutants_refuse_a_failing_selection(tmp_path, capsys, tool):
    module = toy(tmp_path, MODULE.replace("n -= 1", "n -= 2"))
    assert tool.main([str(module)]) == 1
    assert capsys.readouterr().out.startswith("error: the unchanged module fails")
