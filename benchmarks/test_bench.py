"""Tests of the benchmark's own logic: span self time, the tail rule, failure counting.

    python3 -m pytest benchmarks -q
"""

import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402


def _fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_direct_children_only():
    tr = spans.Tracer(clock=_fake_clock([0, 1, 2, 4, 5, 6, 7, 10]))
    with tr.span("outer"):          # 0 .. 10
        with tr.span("a"):          # 1 .. 5
            with tr.span("b"):      # 2 .. 4
                pass
        with tr.span("a"):          # 6 .. 7
            pass
    s = spans.summarize(tr.spans)
    assert s["outer"] == {"self": 5, "total": 10, "calls": 1}
    assert s["a"] == {"self": 3, "total": 5, "calls": 2}
    assert s["b"] == {"self": 2, "total": 2, "calls": 1}
    assert sum(v["self"] for v in s.values()) == s["outer"]["total"]


def test_hidden_spans_leave_every_enclosing_total():
    tr = spans.Tracer(clock=_fake_clock([0, 1, 2, 3, 4, 5, 6, 7, 9, 10]))
    with tr.span("outer"):          # 0 .. 10
        with tr.span("a"):          # 1 .. 6
            with tr.span("probe"):  # 2 .. 3
                pass
            with tr.span("b"):      # 4 .. 5
                pass
        with tr.span("probe"):      # 7 .. 9
            pass
    s = spans.summarize(tr.spans, hidden=("probe",))
    assert "probe" not in s
    assert s["b"] == {"self": 1, "total": 1, "calls": 1}
    assert s["a"] == {"self": 3, "total": 4, "calls": 1}
    assert s["outer"] == {"self": 3, "total": 7, "calls": 1}


def test_installed_wrappers_trace_nested_calls_and_restore():
    class Layer:
        def inner(self, x):
            return x + 1

        def outer(self, x):
            return self.inner(x) * 2

    module = types.SimpleNamespace(helper=lambda x: x - 1)
    orig_outer, orig_helper = Layer.outer, module.helper
    tr = spans.Tracer(clock=_fake_clock(range(100)))
    targets = [
        (Layer, "outer", "layer.outer", None),
        (Layer, "inner", "layer.inner", None),
        (module, "helper", "mod.helper", lambda t, r: r * 10),
        (Layer, "removed_later", "layer.gone", None),  # absent: reported
    ]
    with tr.installed(targets):
        assert Layer().outer(1) == 4
        assert module.helper(3) == 20
    assert Layer.outer is orig_outer and module.helper is orig_helper
    s = spans.summarize(tr.spans)
    assert s["layer.outer"]["calls"] == s["layer.inner"]["calls"] == 1
    assert s["layer.outer"]["self"] == s["layer.outer"]["total"] - s["layer.inner"]["total"]
    assert "layer.gone" not in s
    assert tr.missing == ["Layer.removed_later"]


@pytest.mark.parametrize("n, p", [(19, 50.0), (20, 50.0), (39, 50.0), (40, 75.0),
                                  (99, 75.0), (100, 90.0), (200, 95.0), (900, 95.0),
                                  (1000, 99.0), (10000, 99.9)])
def test_tail_is_highest_ladder_percentile_with_ten_steps_beyond(n, p):
    assert run.tail_percentile(n) == p
    if n >= 20:
        assert n * (100 - p) / 100 >= 10 - 1e-9
        higher = [q for q in run.TAIL_LADDER if q > p]
        assert all(n * (100 - q) / 100 < 10 for q in higher)


def test_percentile_matches_numpy_linear_rule():
    xs = list(np.random.default_rng(0).exponential(size=37))
    for p in (50.0, 75.0, 90.0, 99.9):
        assert run.percentile(xs, p) == pytest.approx(np.percentile(xs, p), rel=1e-12)


def _record(steps=(), failures=(), factor=1.0):
    return types.SimpleNamespace(setup_s=1.0, wall_s=2.0, step_s=list(steps),
                                 failures=list(failures), layers=None, factor=factor)


def test_step_tail_uses_pooled_steps_of_all_operations():
    recs = [_record(steps=[0.001 * (i + 1) for i in range(100)]) for _ in range(2)]
    metrics, info = run.end_to_end(recs)
    assert info["step_count"] == 200 and info["step_ms_tail_percentile"] == 95.0
    pooled = [1e3 * s for r in recs for s in r.step_s]
    assert metrics["step_ms_tail"][0] == pytest.approx(np.percentile(pooled, 95.0))


class _Failure(Exception):
    pass


def test_failed_output_check_counts_as_failed_run():
    outcomes = iter([_record(), _record(failures=["l2l2_error off"]), _Failure("stall"),
                     _record()])

    def operation():
        item = next(outcomes)
        if isinstance(item, Exception):
            raise item
        return item

    records, attempted, failed = run.measure([operation], 4, lambda e: isinstance(e, _Failure),
                                             log=lambda msg: None)
    assert (attempted, failed, len(records)) == (4, 2, 3)


def test_alternate_rounds_reverse_the_order():
    order = []
    ops = [lambda: order.append("a") or _record(), lambda: order.append("b") or _record()]
    records, attempted, failed = run.measure(ops, 3, lambda e: False, alternate=True)
    assert order == ["a", "b", "b", "a", "a", "b"] and (attempted, failed) == (6, 0)


def test_real_reference_check_records_failure():
    import workloads

    rec = workloads.Record()
    workloads._check_close(rec, "final_z_l2", 1.0 + 2e-6, 1.0, 1e-6)
    assert rec.failures
    ok = workloads.Record()
    workloads._check_close(ok, "final_z_l2", 1.0 + 5e-7, 1.0, 1e-6)
    assert not ok.failures


def test_failed_command_counts_as_failed_run(tmp_path):
    import workloads

    def never_checked(*args):
        raise AssertionError("outputs of a failed command must not be checked")

    bad = workloads.Workload("pumps16", ["simulate"], never_checked,
                             {"time": {"dt": -1.0}}, 1.0)
    bad.write_config(tmp_path / "config.json")
    (tmp_path / "out").mkdir()
    records, attempted, failed = run.measure(
        [lambda: bad.run(tmp_path / "config.json", tmp_path / "out")], 1,
        lambda e: False, log=lambda m: None)
    assert (attempted, failed) == (1, 1)
    assert "exited with code 2" in records[0].failures[0]


def test_unexpected_exception_is_not_swallowed():
    def operation():
        raise KeyError("bug in the benchmark")

    with pytest.raises(KeyError):
        run.measure([operation], 1, lambda e: isinstance(e, _Failure), log=lambda m: None)


def test_probe_skips_warm_up_and_trims_outliers():
    warm = [50.0] * speed.WARM_UP
    samples = iter(warm + [1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 100.0])
    probe = speed.Probe(reps=2, kernel=lambda: next(samples), reference=4.0)
    for _ in range(5):
        probe()
    assert len(probe.samples) == 10 and 50.0 not in probe.samples
    assert probe.factor() == 2.0


def test_each_operation_is_scaled_by_its_own_factor():
    records = [_record(steps=[0.010], factor=2.0), _record(steps=[0.010, 0.010], factor=4.0),
               _record(steps=[0.010], factor=3.0)]
    metrics, info = run.end_to_end(records)
    assert metrics["wall_s"] == (6.0, "s") and metrics["setup_s"] == (3.0, "s")
    assert metrics["step_ms_p50"][0] == pytest.approx(35.0)  # of 20, 40, 40, 30 ms
    assert info["raw"]["wall_s"] == 2.0 and info["raw"]["step_ms_p50"] == pytest.approx(10.0)
