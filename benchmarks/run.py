"""Benchmark entry point for recirc.

    python3 benchmarks/run.py --workload pumps16 --seed 1 --seconds 20 --trace 0

Runs one workload (see README.md) single-threaded in this process, against
the recirc sources in `src/` next to this directory: max(2, seconds //
nominal_s) operations, so a run measures for about `--seconds` seconds at
the reference speed. Every operation runs the command through
`recirc.cli.main` from scratch, writes its outputs under `.bench_out/` and
checks them. Times are taken on the process's CPU clock, and each
operation's are scaled to the reference machine speed by the probe that runs
at its every step (see speed.py).

`--trace 0` reports the end-to-end metrics. `--trace 1` runs max(2,
operations // 2) rounds of one untraced and one traced operation, the order
alternating from round to round, and reports the per-layer metrics of the
traced ones, plus `trace.overhead_s`, the difference of their median
`wall_s`. A traced operation fails if a layer it should wrap no longer exists.
`--workload all` runs every workload in its own process and prints every
metric with its unit.

Output: a `machine` line with the machine facts, an `info` line, and as the
last line one JSON object with the keys correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
MIN_OPERATIONS = 2  # so that set-up and operation times are never a single sample


def percentile(values, p):
    """Linear-interpolated percentile of a non-empty sample (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n):
    """Highest ladder percentile with at least ten of n samples beyond it.

    Falls back to the median when fewer than twenty samples exist.
    """
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= TAIL_BEYOND - 1e-9:
            return p
    return TAIL_LADDER[-1]


def measure(round_ops, rounds, is_failure, log=print, alternate=False):
    """Run `rounds` rounds of operations; each callable in round_ops is one attempt.

    With alternate, every second round runs round_ops in reverse order. An
    operation fails when it raises an exception for which is_failure(exc)
    is true, or returns a record with failed output checks; any other
    exception propagates. Returns (records of completed operations,
    attempted, failed).
    """
    records, attempted, failed = [], 0, 0
    for i in range(rounds):
        for operation in (round_ops[::-1] if alternate and i % 2 else round_ops):
            attempted += 1
            try:
                rec = operation()
            except Exception as exc:
                if not is_failure(exc):
                    raise
                failed += 1
                log(f"operation {attempted} failed: {type(exc).__name__}: {exc}")
                continue
            if rec.failures:
                failed += 1
                log(f"operation {attempted} failed its output checks: {rec.failures}")
            records.append(rec)
    return records, attempted, failed


def _median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def _times(records, scaled):
    """Set-up, wall and pooled step times, each scaled by its operation's factor."""
    f = [r.factor if scaled else 1.0 for r in records]
    steps_ms = [1e3 * s * fi for r, fi in zip(records, f) for s in r.step_s] or [0.0]
    return ([r.setup_s * fi for r, fi in zip(records, f)],
            [r.wall_s * fi for r, fi in zip(records, f)], steps_ms)


def end_to_end(records):
    """End-to-end metrics at reference speed; the info keeps the raw values."""
    units = {"setup_s": "s", "wall_s": "s", "step_ms_p50": "ms", "step_ms_tail": "ms"}
    p = tail_percentile(sum(len(r.step_s) for r in records))

    def summary(scaled):
        setups, walls, steps_ms = _times(records, scaled)
        return {"setup_s": _median(setups), "wall_s": _median(walls),
                "step_ms_p50": percentile(steps_ms, 50.0),
                "step_ms_tail": percentile(steps_ms, p)}

    metrics = {name: (value, units[name]) for name, value in summary(True).items()}
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    info = {"step_ms_tail_percentile": p, "step_count": sum(len(r.step_s) for r in records),
            "operations": len(records),
            "speed_factors": [round(r.factor, 4) for r in records],
            "raw": {**summary(False), "wall_s_each": [round(r.wall_s, 4) for r in records]}}
    return metrics, info


def per_layer(untraced, traced, units):
    """Per-layer metrics of the traced records, times scaled by each one's factor."""
    metrics = {name: (_median(r.layers[name] * (r.factor if unit in ("s", "ms") else 1)
                              for r in traced), unit)
               for name, unit in units.items()}
    overhead = (_median(r.wall_s * r.factor for r in traced)
                - _median(r.wall_s * r.factor for r in untraced))
    metrics["trace.overhead_s"] = (overhead, "s")
    varying = sorted(name for name, unit in units.items()
                     if unit == "count" and len({r.layers[name] for r in traced}) > 1)
    return metrics, {"traced_operations": len(traced), "counts_varying": varying,
                     "speed_factors": [round(r.factor, 4) for r in (*untraced, *traced)]}


def _read(path):
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def machine_facts(np, scipy, sympy, threads_in_use):
    import hashlib
    import platform
    import subprocess

    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level").strip(), _read(index / "type").strip()
        caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = \
            _read(index / "size").strip()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    facts = {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "threads_in_use": threads_in_use,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "sympy": sympy.__version__,
        "source_sha256": src.hexdigest()[:16],
        "git_revision": None,
        "git_dirty": None,
    }
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                                  text=True, timeout=30).stdout.strip()
        facts["git_revision"] = git("rev-parse", "HEAD") or None
        facts["git_dirty"] = bool(git("status", "--porcelain", "--untracked-files=no"))
    return facts


def _thread_count():
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def run_all(args, names):
    """Run each workload in its own process and print every metric with its unit."""
    import subprocess

    results = {}
    for name in names:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"error: workload {name} exited with {proc.returncode}:\n{proc.stderr}",
                  file=sys.stderr)
            return 1
        print("\n".join(line for line in lines[:-1] if not line.startswith("machine")))
        results[name] = json.loads(lines[-1])
        for metric, m in results[name]["metrics"].items():
            print(f"{name:16s} {metric:32s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": m for name, r in results.items()
                    for metric, m in r["metrics"].items()},
    }))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="pumps16, pumps32, mms32, contract16_rk4, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "recirc" / "__init__.py").is_file():
        print(f"error: no recirc sources at {src}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # single-threaded, before numpy loads its BLAS
        os.environ[var] = "1"
    os.environ["RECIRC_THREADS"] = "1"  # no study fan-out
    sys.path.insert(0, str(src))
    import numpy as np
    import scipy
    import sympy

    import recirc
    from recirc.errors import RecircError

    import spans
    import speed
    import workloads

    if Path(recirc.__file__).resolve().parent != (src / "recirc").resolve():
        print(f"error: recirc imported from {recirc.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, workloads.WORKLOADS)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    # --seed may be any integer; recirc configs take a nonnegative one
    workload = workloads.make_workload(args.workload, args.seed % 2**32)
    out_root = ROOT / ".bench_out"
    work = out_root / f"{args.workload}-{os.getpid()}"
    config_path, out = work / "config.json", work / "out"
    missing = set()

    def operation(traced):
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        if not traced:
            return workload.run(config_path, out)
        tracer = spans.Tracer(clock=speed.clock)
        with tracer.installed(workloads.TARGETS):
            rec = workload.run(config_path, out, tracer)
        if tracer.missing:
            missing.update(tracer.missing)
            rec.failures.append(f"layers not traced, attributes gone: {tracer.missing}")
        summary = spans.summarize(tracer.spans, hidden=(workloads.PROBE_SPAN,))
        rec.layers = workloads.layer_metrics(summary, tracer.counters, rec)
        return rec

    def is_failure(exc):
        return isinstance(exc, RecircError)

    operations = max(MIN_OPERATIONS, int(args.seconds // workload.nominal_s))
    try:
        work.mkdir(parents=True, exist_ok=True)
        workload.write_config(config_path)
        if args.trace:
            # at least two traced operations, so their counts can be compared;
            # the rounds alternate which kind runs first
            untraced_first = [lambda: operation(False), lambda: operation(True)]
            records, attempted, failed = measure(
                untraced_first, max(2, operations // 2), is_failure, alternate=True)
            traced = [r for r in records if r.layers is not None]
            untraced = [r for r in records if r.layers is None]
            metrics, info = per_layer(untraced, traced, workloads.LAYER_UNITS)
            info["trace_missing"] = sorted(missing)
        else:
            records, attempted, failed = measure(
                [lambda: operation(False)], operations, is_failure)
            metrics, info = end_to_end(records)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if out_root.is_dir() and not any(out_root.iterdir()):
            out_root.rmdir()

    threads = _thread_count()
    facts = machine_facts(np, scipy, sympy, threads)
    print("machine " + json.dumps(facts, sort_keys=True))
    print("info " + json.dumps({"workload": args.workload, "seed": args.seed,
                                "seconds": args.seconds, "trace": args.trace, **info}))
    if threads is not None and threads > facts["nproc"]:
        print(f"error: {threads} threads in use, more than nproc", file=sys.stderr)
        failed = attempted
    if info.get("counts_varying"):
        print(f"error: traced counts differ between operations: {info['counts_varying']}",
              file=sys.stderr)
    result = {
        "correct": failed == 0 and bool(records) and not info.get("counts_varying"),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
