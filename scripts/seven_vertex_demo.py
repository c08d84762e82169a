#!/usr/bin/env python3
"""Walk through the two worked seven-vertex trees end to end.

Builds both height-4 systems at p=7, prints the root paths, the mask support
cosets, the spectrum support, and the verification report, then pushes a
random signal through a three-level filter bank and reports the round-trip
error.
"""

import argparse

import numpy as np

from vilwav.mask import mask_from_tree
from vilwav.transform import CoeffGrid, analyze, grid_error, synthesize
from vilwav.tree import RootedTree
from vilwav.wavelet import build_system, verify_wavelet_system

TREES = {
    "A": (0, 3, 3, 0, 5, 0, 4),
    "B": (0, 3, 3, 0, 5, 0, 2),
}


def coset_name(i, j):
    name = []
    if i:
        name.append(f"r(-1)^{i}")
    if j:
        name.append(f"r(0)^{j}")
    return " ".join(name) or "1"


def show_tree(label, parent, seed):
    p = 7
    tree = RootedTree.validate(parent, p)
    print(f"== tree {label}: parent={list(parent)}, height={tree.height()}, M={tree.support_exponent}")
    for v in range(1, p):
        print(f"   path to {v}: {tree.path_to(v)}")
    mask = mask_from_tree(tree)
    support = np.flatnonzero(np.abs(mask.lam))
    print("   mask support:", ", ".join(f"{k} = {coset_name(k % p, k // p)}" for k in support))

    system = build_system(tree)
    print("   spectrum support indices:", sorted(system.phi_hat.keys.tolist()))
    for check in verify_wavelet_system(system):
        flag = "PASS" if check.passed else "FAIL"
        print(f"   {flag} {check.name:28s} max_dev={check.max_deviation:.3e}")

    rng = np.random.default_rng(seed)
    pairs = rng.normal(size=(p * p, 2))  # [re, im] of each key, drawn key by key
    grid = CoeffGrid(p, 0, keys=np.arange(p * p), values=pairs[:, 0] + 1j * pairs[:, 1])
    back = synthesize(analyze(grid, system, 3), system)
    err = grid_error(grid, back)
    print(f"   3-level filter bank round trip error: {err:.3e}")
    print()


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    for label, parent in TREES.items():
        show_tree(label, parent, args.seed)


if __name__ == "__main__":
    main()
