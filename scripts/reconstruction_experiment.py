#!/usr/bin/env python3
"""Reconstruction and energy-conservation statistics for random signals.

Samples random trees at the given modulus, pushes batches of random
coefficient grids through an L-level analysis/synthesis cascade, and reports
the distribution of reconstruction and Parseval errors.
"""

import argparse

import numpy as np

from vilwav.transform import CoeffGrid, analyze_level, grid_error, synthesize_level
from vilwav.tree import sample_tree
from vilwav.wavelet import build_system


def battery(system, n_signals, levels, rng):
    p = system.p
    parts = rng.normal(size=(p * p, 2, n_signals))  # [key, re/im, signal], drawn key by key
    grid = CoeffGrid(p, 0, keys=np.arange(p * p), values=parts[:, 0] + 1j * parts[:, 1])
    stack = []
    current = grid
    parseval = 0.0
    for _ in range(levels):
        approx, details = analyze_level(current, system)
        split = approx.energy() + sum(d.energy() for d in details)
        parseval = max(parseval, float(np.abs(split - current.energy()).max()))
        stack.append(details)
        current = approx
    for details in reversed(stack):
        current = synthesize_level(current, details, system)
    return grid_error(grid, current), parseval


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("-p", type=int, default=5)
    ap.add_argument("--trees", type=int, default=20)
    ap.add_argument("--signals", type=int, default=100)
    ap.add_argument("--levels", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    recon_errs, parseval_errs = [], []
    for _ in range(args.trees):
        tree = sample_tree(args.p, rng)
        phases = {e: float(rng.uniform()) for e in tree.edges()}
        system = build_system(tree, phases)
        r, e = battery(system, args.signals, args.levels, rng)
        recon_errs.append(r)
        parseval_errs.append(e)

    recon_errs = np.array(recon_errs)
    parseval_errs = np.array(parseval_errs)
    print(
        f"{args.trees} random trees at p={args.p}, {args.signals} signals each, "
        f"L={args.levels}"
    )
    print(f"reconstruction error: max {recon_errs.max():.3e}  median {np.median(recon_errs):.3e}")
    print(f"per-level energy error: max {parseval_errs.max():.3e}  median {np.median(parseval_errs):.3e}")


if __name__ == "__main__":
    main()
