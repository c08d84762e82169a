#!/usr/bin/env python3
"""vilwav benchmark: build/verify sweeps and filter-bank throughput.

Run one workload:

    python3 perfbench/run.py --workload sweep5 --seed 1 --seconds 20 --trace 0

or every workload, each in its own process, with a table of all metrics:

    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

With --trace 0 the last stdout line is a JSON object holding the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced run.
The line before it is the run record: machine, versions, seed, input sizes
and every metric the workload defines, with sample counts.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1  # at most the core count; one caller, no concurrency
# The last seconds of a run are kept for set-ups alone, so setup_s has tens
# of samples even for filterbank, whose set-up takes about 0.4 s.
SETUP_RESERVE_S = 3.0

# filter-bank phase -> (record metric, unit, scale from work/s)
PHASE_RATES = {
    "cascade": ("coeffs_per_s", "1/s", 1.0),
    "batch": ("batch_coeffs_per_s", "1/s", 1.0),
    "io": ("io_mb_per_s", "MB/s", 1e-6),
}


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy without the dict form of show_config
        blas = "unknown"
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "bytecode_cache": not sys.dont_write_bytecode,  # off: each fresh import compiles vilwav
        "platform": platform.platform(),
    }


def _timing(values: list, unit: str) -> dict:
    return {"value": statistics.median(values), "unit": unit, "samples": len(values)}


def _typical_pass(passes: list) -> dict:
    """Sum over a pass's operations of each one's median time over the passes.

    Every pass runs the same operations in the same order, so a slow spell
    that hits one operation in one pass is dropped by that operation's
    median, even when each pass has a slow spell somewhere.
    """
    per_op = zip(*(p.ops for p in passes))
    return {"value": sum(statistics.median(op.seconds for op in ops) for ops in per_op),
            "unit": "s", "samples": len(passes)}


def _percentile(values: list, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def _phase(p, phase: str) -> tuple[int, float]:
    ops = [op for op in p.ops if op.phase == phase]
    return sum(op.work for op in ops), sum(op.seconds for op in ops)


def named_metrics(passes: list, setup_builds: list) -> dict:
    """The workload's own figures: medians over passes, with sample counts."""
    ops = [op for p in passes for op in p.ops]
    out = {"fail_share": {"value": sum(not op.ok for op in ops) / len(ops), "unit": "share",
                          "samples": len(ops)}}
    if any(op.phase == "system" for op in ops):
        lat = [op.seconds * 1e3 for op in ops if op.ok]
        out["build_s"] = _timing([p.build_s for p in passes], "s")
        out["verify_s"] = _timing([p.verify_s for p in passes], "s")
        out["systems_per_s"] = _timing([_phase(p, "system")[0] / p.wall_s for p in passes], "1/s")
        if lat:
            out["system_p50_ms"] = {"value": _percentile(lat, 50), "unit": "ms", "samples": len(lat)}
            out["system_p90_ms"] = {"value": _percentile(lat, 90), "unit": "ms", "samples": len(lat)}
        return out
    out["build_s"] = _timing(setup_builds, "s")
    for phase, (name, unit, scale) in PHASE_RATES.items():
        out[name] = _timing([scale * w / s for w, s in (_phase(p, phase) for p in passes)], unit)
    out["signal_roundtrip_s"] = _timing([_phase(p, "signal")[1] for p in passes], "s")
    return out


def _report_failures(passes) -> None:
    errors = [op.error for p in passes for op in p.ops if not op.ok]
    for err in errors[:10]:
        print(f"FAILED: {err}", file=sys.stderr)
    if len(errors) > 10:
        print(f"... and {len(errors) - 10} more failed operations", file=sys.stderr)


def _another_cycle(start: float, cycles: list, seconds: float) -> bool:
    """True while one more cycle of median length still fits in `seconds`."""
    return time.perf_counter() - start + statistics.median(cycles) <= seconds


def run_plain(name: str, seed: int, seconds: float, workdir: Path):
    """End-to-end run, tracing off: cycles of a set-up and a pass on its inputs.

    Each set-up imports vilwav afresh and makes the inputs again.  A new
    cycle starts only while the median cycle still fits in `seconds` less
    SETUP_RESERVE_S (there is always one); more set-ups fill the rest, so a
    run measures about `seconds`.
    """
    from workloads import WORKLOADS, load_vilwav

    wl = WORKLOADS[name]
    setups, builds, passes, cycles = [], [], [], []

    def set_up():
        gc.collect()  # each set-up starts from a collected heap
        t0 = time.perf_counter()
        m = load_vilwav(ROOT / "src")
        state = wl.prepare(m, seed, workdir)
        setups.append(time.perf_counter() - t0)
        builds.append(getattr(state, "build_s", None))
        return m, state

    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        m, state = set_up()
        passes.append(wl.run(m, state))
        cycles.append(time.perf_counter() - t0)
        if not _another_cycle(start, cycles, seconds - SETUP_RESERVE_S):
            break
    while time.perf_counter() - start < seconds:  # the time no cycle fits in
        set_up()
    _report_failures(passes)
    deterministic = len({p.digest for p in passes}) == 1
    if not deterministic:
        print("FAILED: passes over the same inputs gave different outputs", file=sys.stderr)
    metrics = {
        "setup_s": _timing(setups, "s"),
        "wall_s": _typical_pass(passes),
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB",
            "samples": 1,
        },
    }
    record = {
        "passes": len(passes),
        "setups": len(setups),
        "inputs": wl.describe(state),
        "named": named_metrics(passes, builds),
    }
    return passes, deterministic, metrics, record


def run_traced(name: str, seed: int, seconds: float, workdir: Path):
    """Per-layer run: untraced and traced repetitions (set-up + pass) in turn.

    Each repetition imports vilwav afresh; only the traced ones install the
    wrappers, and both kinds must produce identical outputs.  A new pair
    starts only while the median pair still fits in `seconds`.
    """
    from layers import TARGETS, summarize
    from spans import Tracer
    from workloads import WORKLOADS, load_vilwav

    wl = WORKLOADS[name]
    plain, traced, tracers, cycles, start = [], [], [], [], time.perf_counter()
    while True:
        t0 = time.perf_counter()
        m = load_vilwav(ROOT / "src")
        plain.append(wl.run(m, wl.prepare(m, seed, workdir)))
        m = load_vilwav(ROOT / "src")
        with Tracer(TARGETS) as tracer:
            state = wl.prepare(m, seed, workdir)
            traced.append(wl.run(m, state))
        tracers.append(tracer)
        cycles.append(time.perf_counter() - t0)
        if not _another_cycle(start, cycles, seconds):
            break
    _report_failures(plain + traced)
    identical = len({p.digest for p in plain + traced}) == 1
    if not identical:
        print("FAILED: traced outputs differ from the untraced run", file=sys.stderr)
    plain_wall = statistics.median(p.wall_s for p in plain)
    traced_wall = statistics.median(p.wall_s for p in traced)
    metrics = summarize(tracers, traced_wall - plain_wall)
    record = {
        "reps": len(traced),
        "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "inputs": wl.describe(state),
    }
    return plain + traced, identical, metrics, record


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as tmp:
        runner = run_traced if trace else run_plain
        passes, consistent, metrics, record = runner(name, seed, seconds, Path(tmp))
    ops = [op for p in passes for op in p.ops]
    failed = sum(not op.ok for op in ops)
    correct = failed == 0 and consistent
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": environment(), **record}
    print(json.dumps({"record": record}))
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, so peak_rss_mb is each one's own."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if len(lines) < 2:
            print(f"{name}: exited {proc.returncode} without a result", file=sys.stderr)
            combined["correct"] = False
            continue
        record, result = json.loads(lines[-2])["record"], json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, v in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = v
            rows.append((name, metric, v["value"], v["unit"]))
        for metric, v in record.get("named", {}).items():
            rows.append((name, metric + " (record)", v["value"], v["unit"]))
    for name, metric, value, unit in rows:
        print(f"{name:20s} {metric:52s} {value:14.6g} {unit}")
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    os.environ["OMP_NUM_THREADS"] = str(BLAS_THREADS)
    os.environ["MKL_NUM_THREADS"] = str(BLAS_THREADS)
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:  # no vilwav sources next to the benchmark
        print(f"cannot import vilwav from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
