"""Every layer the benchmark's traced runs wrap still exists under its name."""

from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"


def test_traced_targets_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in workloads.TARGETS if attr not in vars(owner)]
    assert workloads.TARGETS and not missing
