#!/usr/bin/env python3
"""Sweep every rooted labeled tree at a given modulus and verify each system.

For each tree the full verification battery runs under the default (zero)
edge phases plus a configurable number of random unimodular phase draws.
Prints one line per failure and a worst-deviation summary at the end.
"""

import argparse
import sys
import time

import numpy as np

from vilwav.config import SizeCapError
from vilwav.mask import mask_to_tree
from vilwav.tree import enumerate_trees
from vilwav.wavelet import build_system, verify_wavelet_system


def run_one(tree, phases, spectral_only):
    system = build_system(tree, phases)
    checks = verify_wavelet_system(system, spectral_only=spectral_only)
    back, _ = mask_to_tree(system.mask)
    ok = all(c.passed for c in checks) and back.parent == tree.parent
    return ok, max(c.max_deviation for c in checks)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("-p", type=int, default=5, help="prime; its p^(p-2) trees must fit the size cap")
    ap.add_argument("--draws", type=int, default=5, help="random phase draws per tree")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument(
        "--spectral-only", action="store_true",
        help="run the spectral checks only: skip the refinement identity, the two-route psi "
        "and the Gram check",
    )
    args = ap.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    worst = 0.0
    failures = 0
    n = 0
    t0 = time.time()
    for tree in enumerate_trees(args.p):
        draws = [{}] + [
            {e: float(rng.uniform()) for e in tree.edges()} for _ in range(args.draws)
        ]
        for phases in draws:
            ok, dev = run_one(tree, phases, args.spectral_only)
            worst = max(worst, dev)
            n += 1
            if not ok:
                failures += 1
                print(f"FAIL parent={list(tree.parent)} phases={phases} dev={dev:.3e}")
    elapsed = time.time() - t0
    print(
        f"{n} systems at p={args.p}: {n - failures} PASS, {failures} FAIL, "
        f"worst deviation {worst:.3e}, {elapsed:.1f}s"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SizeCapError as exc:
        sys.exit(f"size cap: {exc}")
