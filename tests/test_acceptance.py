"""End-to-end acceptance gate.

Each test covers one numbered criterion and reports a single pass/fail line
in the terminal summary.  Criteria 3-7 share one exhaustive sweep over every
rooted labeled tree at p = 3 and p = 5 (default phases plus five random
unimodular phase draws each) so the expensive systems are built once.
"""

import time

import numpy as np
import pytest

import conftest
from vilwav.mask import MaskTable, mask_from_tree, mask_to_tree
from vilwav.oracle import cell_identities
from vilwav.refinable import inner_product, translate_dilate
from vilwav.transform import CoeffGrid, analyze_level, synthesize_level, shift_key_digits
from vilwav.tree import RootedTree, TreeError, enumerate_trees
from vilwav.wavelet import build_system, verify_wavelet_system

from conftest import TREE7_A_PARENT, TREE7_B_PARENT

SWEEP_PRIMES = (3, 5)
PHASE_DRAWS = 5


def report(criterion, title, ok, detail):
    line = f"criterion {criterion} ({title}): {'PASS' if ok else 'FAIL'} — {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


@pytest.fixture(scope="module")
def sweep():
    """Fully verify every tree at p in SWEEP_PRIMES under six phase draws, and check the cell identities."""
    rng = np.random.default_rng(515377520732011331)
    runs = []
    default_systems = []
    t0 = time.time()
    for p in SWEEP_PRIMES:
        for tree in enumerate_trees(p):
            for draw in range(PHASE_DRAWS + 1):
                if draw == 0:
                    phases = {}
                else:
                    phases = {e: float(rng.uniform()) for e in tree.edges()}
                system = build_system(tree, phases)
                checks = {c.name: c for c in verify_wavelet_system(system)}
                cells = cell_identities(system)
                back_tree, back_phases = mask_to_tree(system.mask)
                rebuilt = mask_from_tree(back_tree, back_phases)
                runs.append(
                    {
                        "p": p,
                        "parent": tree.parent,
                        "draw": draw,
                        "checks": checks,
                        "cells": cells,
                        "roundtrip_parent": back_tree.parent == tree.parent,
                        "roundtrip_mask": float(np.abs(rebuilt.lam - system.mask.lam).max()),
                    }
                )
                if draw == 0:
                    default_systems.append(system)
    return {"runs": runs, "default_systems": default_systems, "elapsed": time.time() - t0}


@pytest.fixture(scope="module")
def seven_vertex_systems():
    return [
        build_system(RootedTree.validate(parent, 7))
        for parent in (TREE7_A_PARENT, TREE7_B_PARENT)
    ]


def test_criterion_1_haar_recovery():
    from vilwav.group import unit_roots

    t0 = time.time()
    psi_dev = 0.0
    for p in (2, 3, 5, 7):
        system = build_system(RootedTree.validate([0] * p, p))
        phi_expected = np.zeros(p, dtype=complex)
        phi_expected[0] = 1.0
        # the refinable function is the subgroup indicator with exact 1/0 cells
        assert np.array_equal(system.phi.values, phi_expected)
        for l in range(1, p):
            expected = np.zeros(p * p, dtype=complex)
            for a0 in range(p):
                expected[p * a0] = unit_roots(p)[(l * a0) % p]
            psi_dev = max(psi_dev, float(np.abs(system.psi[l - 1].values - expected).max()))
        checks = verify_wavelet_system(system)
        assert all(c.passed for c in checks)
    elapsed = time.time() - t0
    ok = elapsed < 1.0 and psi_dev < 1e-12
    report(1, "generalized Haar recovery", ok,
           f"phi cells exact, psi deviation {psi_dev:.1e}, {elapsed:.2f}s")


def test_criterion_2_worked_p7_instances():
    t1 = RootedTree.validate(TREE7_A_PARENT, 7)
    t2 = RootedTree.validate(TREE7_B_PARENT, 7)
    ok = t1.height() == 4 and t2.height() == 4
    ok = ok and t1.support_exponent == 2 and t2.support_exponent == 2
    ok = ok and t2.path_to(6) == (0, 3, 2, 6)
    mask2 = mask_from_tree(t2)
    nonzero = set(int(i) for i in np.flatnonzero(np.abs(mask2.lam)))
    path_cosets = {3, 2 + 7 * 3, 6 + 7 * 2}  # r^3, r^2 s^3, r^6 s^2
    ok = ok and path_cosets <= nonzero
    report(2, "worked p=7 instances", ok,
           f"heights 4/4, M=2, path (0,3,2,6) -> lambda indices {sorted(path_cosets)}")


def test_criterion_3_exhaustive_sweep(sweep):
    bad = [r for r in sweep["runs"] if not all(c.passed for c in r["checks"].values())]
    worst = max(
        c.max_deviation for r in sweep["runs"] for c in r["checks"].values()
    )
    vanish_exact = all(
        r["checks"]["mask-vanishing-shell"].max_deviation == 0.0 for r in sweep["runs"]
    )
    n = len(sweep["runs"])
    ok = not bad and worst < 1e-12 and vanish_exact and sweep["elapsed"] < 300.0
    report(3, "exhaustive theorem sweep", ok,
           f"{n} systems (p=3,5 × 6 phase draws), worst deviation {worst:.1e}, "
           f"{sweep['elapsed']:.1f}s")


def test_criterion_4_mask_tree_roundtrip(sweep):
    ok = all(r["roundtrip_parent"] for r in sweep["runs"])
    worst_mask = max(r["roundtrip_mask"] for r in sweep["runs"])
    ok = ok and worst_mask < 1e-12

    # adversarial masks whose support encodes a cycle must be rejected by name
    lam2 = np.zeros(9, dtype=complex)
    lam2[[0, 1 + 3 * 2, 2 + 3 * 1]] = 1.0
    with pytest.raises(TreeError, match="cycle: 1->2->1"):
        mask_to_tree(MaskTable(3, lam2))
    lam3 = np.zeros(25, dtype=complex)
    lam3[0] = 1.0
    for i, j in [(1, 2), (2, 3), (3, 1), (4, 0)]:
        lam3[i + 5 * j] = 1.0
    with pytest.raises(TreeError, match="cycle: "):
        mask_to_tree(MaskTable(5, lam3))
    report(4, "mask/tree round trip", ok,
           f"{len(sweep['runs'])} round trips identical, mask rebuild error {worst_mask:.1e}, "
           "cycle masks rejected with the cycle named")


def test_criterion_5_beta_residual(sweep):
    worst = max(r["checks"]["beta-residual"].max_deviation for r in sweep["runs"])
    ok = worst < 1e-12
    report(5, "refinement coefficient residual", ok,
           f"max residual {worst:.1e} over {len(sweep['runs'])} systems")


def test_criterion_6_two_route_wavelets(sweep, seven_vertex_systems):
    # the psi tables by the time route against the frequency route's, cell for cell
    two_route = [r["cells"][1] for r in sweep["runs"]] + [cell_identities(s)[1] for s in seven_vertex_systems]
    worst = float(np.max(two_route))
    ok = worst < 1e-12
    report(6, "two-route wavelet agreement", ok,
           f"max cell discrepancy {worst:.1e} (sweep + both p=7 instances)")


def _filter_bank_battery(system, n_signals, levels, rng):
    p = system.p
    grid = CoeffGrid(
        p,
        0,
        {
            k: rng.normal(size=n_signals) + 1j * rng.normal(size=n_signals)
            for k in range(p * p)
        },
    )
    recon_err = 0.0
    parseval_err = 0.0
    stack = []
    current = grid
    for _ in range(levels):
        approx, details = analyze_level(current, system)
        split = approx.energy() + sum(d.energy() for d in details)
        parseval_err = max(parseval_err, float(np.abs(split - current.energy()).max()))
        stack.append(details)
        current = approx
    for details in reversed(stack):
        current = synthesize_level(current, details, system)
    for k in set(grid.entries) | set(current.entries):
        diff = np.abs(grid.entries.get(k, 0.0) - current.entries.get(k, 0.0))
        recon_err = max(recon_err, float(np.max(diff)))
    return recon_err, parseval_err


def test_criterion_7_reconstruction_and_parseval(sweep, seven_vertex_systems):
    rng = np.random.default_rng(6857)
    t0 = time.time()
    recon_err = 0.0
    parseval_err = 0.0
    for system in sweep["default_systems"]:
        r, e = _filter_bank_battery(system, 100, 3, rng)
        recon_err, parseval_err = max(recon_err, r), max(parseval_err, e)
    for system in seven_vertex_systems:
        r, e = _filter_bank_battery(system, 10, 3, rng)
        recon_err, parseval_err = max(recon_err, r), max(parseval_err, e)
    elapsed = time.time() - t0
    ok = recon_err < 1e-10 and parseval_err < 1e-10 and elapsed < 120.0
    report(7, "perfect reconstruction + Parseval", ok,
           f"reconstruction {recon_err:.1e}, per-level energy {parseval_err:.1e}, "
           f"{elapsed:.1f}s")


def test_criterion_8_filter_bank_vs_integration():
    rng = np.random.default_rng(99991)
    worst = 0.0
    from vilwav.transform import materialize

    for tree in enumerate_trees(3):
        system = build_system(tree)
        assert system.M <= 1
        grid = CoeffGrid(
            3, 1, {k: complex(rng.normal(), rng.normal()) for k in range(27)}
        )
        f = materialize(grid, system)
        approx, details = analyze_level(grid, system)
        for g in range(27):
            shift = shift_key_digits(g, 3)
            phi_g = translate_dilate(system.phi, 0, shift)
            dev = abs(approx.entries.get(g, 0.0) - inner_product(f, phi_g))
            worst = max(worst, dev)
            for l, d in enumerate(details):
                psi_g = translate_dilate(system.psi[l], 0, shift)
                dev = abs(d.entries.get(g, 0.0) - inner_product(f, psi_g))
                worst = max(worst, dev)
    ok = worst < 1e-12
    report(8, "filter bank equals brute-force integration", ok,
           f"max deviation {worst:.1e} over all p=3 trees, width-3 shift set")
