#!/usr/bin/env python3
"""Alternated benchmark pairs of two checkouts, with a verdict per metric.

Runs `perfbench/run.py` of a parent checkout and of a changed one in N
pairs, on seeds seed-base, seed-base + 1, ...; the even pairs run the parent
first and the odd pairs the change.  Each run gets PYTHONDONTWRITEBYTECODE=1,
so every fresh import compiles vilwav as on a machine without a bytecode
cache; measure checkouts with no __pycache__ under src, as fresh clones are.
For each end-to-end metric of the change's BENCHMARK.json it prints both
sides' quartiles, the pairs the change won, and a verdict:

- "claim met": the change wins at least 9 of 10 pairs and its median beats
  the parent's by more than the parent's interquartile range;
- "worse": the change's median is worse than the parent's by more than the
  metric's bound, read as a fraction of the parent's median;
- "within bound": neither.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload filterbank --seconds 44 --seed-base 701 --pairs 10
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last stdout line of one run: correct, attempted, failed and the metrics."""
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{checkout}: exited {proc.returncode} without a result\n{proc.stderr}")
    return json.loads(lines[-1])


def verdict(parent: list, change: list, better: str, bound: float) -> tuple[str, int]:
    """The metric's verdict over paired values, and the pairs the change won."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (change - parent) < 0 is a win
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    q1, median, q3 = np.percentile(parent, [25, 50, 75])
    gap = sign * (np.median(change) - median)  # > 0 is worse
    if wins >= 0.9 * len(parent) and -gap > q3 - q1:
        return "claim met", wins
    if gap > bound * abs(median):
        return "worse", wins
    return "within bound", wins


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", type=Path, required=True, help="checkout measured as the baseline")
    ap.add_argument("--change", type=Path, required=True, help="checkout measured against it")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed-base", type=int, default=701)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in sides.items():  # a stored .pyc spares the compile a fresh clone pays in setup_s
        if any((path / "src").rglob("__pycache__")):
            print(f"warning: the {side} checkout holds __pycache__ under src", file=sys.stderr)
    metrics = json.loads((sides["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    values = {side: {m["name"]: [] for m in metrics} for side in sides}
    failed = {side: 0 for side in sides}
    for i in range(args.pairs):
        seed = args.seed_base + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run(sides[side], args.workload, seed, args.seconds)
            failed[side] += result["failed"] + (not result["correct"])
            for m in metrics:
                values[side][m["name"]].append(result["metrics"][m["name"]]["value"])
        print(f"pair {i} seed {seed}: " + ", ".join(
            f"{name} {values['parent'][name][-1]:.6g} -> {values['change'][name][-1]:.6g}"
            for name in values["parent"]), flush=True)
    print(f"{args.workload}, {args.pairs} pairs at --seconds {args.seconds}, seeds from {args.seed_base}; "
          f"failed ops or incorrect runs: parent {failed['parent']}, change {failed['change']}")
    for m in metrics:
        parent, change = values["parent"][m["name"]], values["change"][m["name"]]
        text, wins = verdict(parent, change, m["better"], m["bound"])
        p25, p50, p75 = np.percentile(parent, [25, 50, 75])
        c25, c50, c75 = np.percentile(change, [25, 50, 75])
        print(f"{m['name']:12s} parent {p50:.6g} [{p25:.6g}, {p75:.6g}]  change {c50:.6g} [{c25:.6g}, {c75:.6g}]  "
              f"({(c50 - p50) / p50:+.1%})  change won {wins}/{len(parent)}  {text}")
    return 0 if not any(failed.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
