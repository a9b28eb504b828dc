"""tools/csv_drift.py reports the largest difference per column of two CSVs."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location("csv_drift", ROOT / "tools" / "csv_drift.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_drift_per_column_matched_by_name(tmp_path, capsys):
    tool = _tool()
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    a.write_text("# recirc 0.1 config=x\nt,u,w\n0,1,0\n0.5,2,0\n")
    b.write_text("# recirc 0.1 config=y\nu,t,w\n1.5,0,0\n2,0.5,0\n")
    assert [row[0] for row in tool.drift(tool.read(a), tool.read(b))] == ["t", "u", "w"]
    assert tool.main([str(a), str(b)]) == 0
    rows = {line.split()[0]: line.split()[1:] for line in capsys.readouterr().out.splitlines()}
    assert rows["u"] == ["5.000e-01", "3.333e-01"]  # 0.5 / 1.5 relative
    assert rows["t"] == rows["w"] == ["0.000e+00", "0.000e+00"]
    # a column in one file only is named, and so is a row count that differs
    c.write_text("t,v\n0,1\n0.5,2\n")
    assert tool.main([str(a), str(c)]) == 1
    out = capsys.readouterr().out
    assert "missing from B: u, w" in out and "extra in B: v" in out
    c.write_text("t,u,w\n0,1,0\n")
    assert tool.main([str(a), str(c)]) == 1
    assert "row counts differ: [1, 2]" in capsys.readouterr().out
